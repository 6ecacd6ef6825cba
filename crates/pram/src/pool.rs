//! Running a computation on a bounded number of workers.
//!
//! Experiment E9 measures wall-clock speedup of the construction algorithms
//! as a function of the number of processors `p` — the empirical counterpart
//! of Brent's theorem — and the sequential arms of E2/E3/E8 run the parallel
//! routines on one worker.  This module wraps rayon thread pools so a closure
//! (and every rayon `join`/parallel iterator it spawns) runs on exactly `p`
//! workers of a dedicated work-stealing pool.

/// Run `f` on a dedicated rayon pool with exactly `threads` workers and
/// return its result.
pub fn run_on_pool<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    let pool =
        rayon::ThreadPoolBuilder::new().num_threads(threads.max(1)).build().expect("failed to build thread pool");
    pool.install(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn pool_limits_thread_count() {
        let observed = run_on_pool(2, rayon::current_num_threads);
        assert_eq!(observed, 2);
        let observed = run_on_pool(1, rayon::current_num_threads);
        assert_eq!(observed, 1);
    }

    #[test]
    fn work_completes_on_small_pool() {
        let sum: u64 = run_on_pool(2, || (0..100_000u64).into_par_iter().sum());
        assert_eq!(sum, 100_000 * 99_999 / 2);
    }
}
