//! The admission queue: coalesce single point queries into `Router` batches.
//!
//! Individual requests arrive asynchronously, but the backend is cheaper per
//! query when driven in batches (one [`Router::distances`] call amortises
//! the batch machinery and lets vertex pairs stream through the `O(1)`
//! matrix fast path back-to-back).  The [`Coalescer`] owns no thread: the
//! callers waiting for answers run the batches themselves.
//!
//! - [`Coalescer::submit`] queues a query and returns a [`Ticket`].
//! - [`Ticket::recv`] returns the answer once it is there.  If it is not,
//!   and no other caller is executing, the caller takes the *executor role*:
//!   it drains up to `max_batch` queued queries (its own and anyone else's),
//!   runs them as one batch, fills every answer, and hands the role back.
//!   Otherwise it sleeps until an executor finishes.
//!
//! A lone query therefore costs no thread hand-off, and batching still
//! happens naturally: whatever queues while one executor runs becomes the
//! next batch.  An executor runs exactly one batch per turn; a caller whose
//! answer is still missing afterwards (the queue held more than `max_batch`
//! ahead of it) competes for the role again, and FIFO order bounds how many
//! turns that takes.
//!
//! With a nonzero *window* the executor lingers before draining, until the
//! oldest queued query is `window` old or `max_batch` queries are queued.
//!
//! Failure isolation: [`Router::distances`] fails the whole batch when any
//! single query is invalid (e.g. an endpoint strictly inside an obstacle).
//! One bad query must not poison its batch-mates, so on batch failure the
//! executor falls back to per-query [`Router::distance`] calls — every
//! caller still gets exactly the result a direct call would have produced.
//! If a batch panics, an unwind guard releases the executor role and its
//! batch-mates' [`Ticket::recv`] returns an error instead of hanging.

use crate::protocol::{QueueStats, ServerError};
use rsp_core::router::Router;
use rsp_geom::{Dist, Point};
use std::sync::mpsc::{RecvError, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

type Answer = Result<Dist, ServerError>;

/// Where a query's answer lands: `Some` once served, `None` if the batch
/// carrying it panicked.
type Slot = OnceLock<Option<Answer>>;

struct Pending {
    router: Arc<Router>,
    pair: (Point, Point),
    arrived: Instant,
    slot: Arc<Slot>,
}

struct State {
    pending: Vec<Pending>,
    /// Some caller holds the executor role (lingering or running a batch).
    executing: bool,
    /// Callers asleep waiting for an executor to hand its role back.
    sleepers: usize,
    shutdown: bool,
    stats: QueueStats,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when an executor hands its role back to sleeping callers,
    /// when the queue reaches `max_batch` under a window, and on shutdown.
    changed: Condvar,
    window: Duration,
    max_batch: usize,
}

/// A batching admission queue in front of one shard's routers.  It owns no
/// thread; dropping it cuts a lingering window short, and queued queries
/// are still served by their tickets.
pub struct Coalescer {
    shared: Arc<Shared>,
}

/// The claim on one submitted query's answer (see [`Coalescer::submit`]).
pub struct Ticket {
    shared: Arc<Shared>,
    slot: Arc<Slot>,
}

impl Coalescer {
    /// A queue whose executor drains a batch once its oldest query is
    /// `window` old, or as soon as `max_batch` (at least 1) queries are
    /// queued.  A zero window drains whatever has queued when a caller takes
    /// the executor role — lowest latency, coalescing only under contention.
    pub fn new(window: Duration, max_batch: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                pending: Vec::new(),
                executing: false,
                sleepers: 0,
                shutdown: false,
                stats: QueueStats::default(),
            }),
            changed: Condvar::new(),
            window,
            max_batch: max_batch.max(1),
        });
        Coalescer { shared }
    }

    /// Admit one point query against `router`.  Receiving on the returned
    /// ticket yields what a direct [`Router::distance`] call would return.
    pub fn submit(&self, router: Arc<Router>, a: Point, b: Point) -> Ticket {
        let slot = Arc::new(Slot::new());
        let mut state = self.shared.lock();
        state.stats.queries += 1;
        state.pending.push(Pending { router, pair: (a, b), arrived: Instant::now(), slot: Arc::clone(&slot) });
        // Only a lingering executor waits for the queue to fill.
        let full = !self.shared.window.is_zero() && state.pending.len() == self.shared.max_batch;
        drop(state);
        if full {
            self.shared.changed.notify_all();
        }
        Ticket { shared: Arc::clone(&self.shared), slot }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> QueueStats {
        self.shared.lock().stats
    }
}

impl Drop for Coalescer {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.changed.notify_all();
    }
}

impl Ticket {
    /// Block until the answer is there, serving a batch on this thread if
    /// no one else is.  `Err` means the batch carrying this query panicked.
    pub fn recv(&self) -> Result<Answer, RecvError> {
        self.wait(None).map_err(|_| RecvError)
    }

    /// [`recv`](Self::recv) that gives up waiting for another executor
    /// after `timeout`.  A batch this caller runs itself is not cut short;
    /// after a timeout the query stays queued and a later `recv` can still
    /// collect its answer.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Answer, RecvTimeoutError> {
        self.wait(Some(Instant::now() + timeout))
    }

    fn wait(&self, deadline: Option<Instant>) -> Result<Answer, RecvTimeoutError> {
        let shared = &*self.shared;
        let mut state = shared.lock();
        loop {
            if let Some(answer) = self.slot.get() {
                return answer.clone().ok_or(RecvTimeoutError::Disconnected);
            }
            // Unanswered and nobody executing: an executor fills every slot
            // it drained before handing the role back, so this query is
            // still queued.  Serve it.
            if !state.executing {
                state = shared.run_batch(state, execute);
                continue;
            }
            let left = deadline.map(|deadline| deadline.saturating_duration_since(Instant::now()));
            if left == Some(Duration::ZERO) {
                return Err(RecvTimeoutError::Timeout);
            }
            state.sleepers += 1;
            state = match left {
                None => shared.changed.wait(state).unwrap_or_else(PoisonError::into_inner),
                Some(left) => shared.changed.wait_timeout(state, left).unwrap_or_else(PoisonError::into_inner).0,
            };
            state.sleepers -= 1;
        }
    }
}

impl Shared {
    /// The state lock.  Nothing panics while holding it (batches run with
    /// it released), so a poisoned lock still guards consistent state.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Take the free executor role, linger out the window, drain one batch
    /// and run it through `exec` with the lock released.  Returns with the
    /// lock re-held and the role handed back.
    fn run_batch<'a>(&'a self, mut state: MutexGuard<'a, State>, exec: fn(&[Pending])) -> MutexGuard<'a, State> {
        debug_assert!(!state.executing && !state.pending.is_empty());
        state.executing = true;
        if !self.window.is_zero() {
            // Submits never drain, so the queue only grows while we linger
            // and its head stays the oldest query.
            let deadline = state.pending[0].arrived + self.window;
            while state.pending.len() < self.max_batch && !state.shutdown {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                state = self.changed.wait_timeout(state, left).unwrap_or_else(PoisonError::into_inner).0;
            }
        }
        let take = state.pending.len().min(self.max_batch);
        let drained = state.pending.drain(..take).collect();
        state.stats.batches += 1;
        state.stats.largest_batch = state.stats.largest_batch.max(take as u64);
        drop(state);
        let batch = Release { shared: self, batch: drained };
        exec(&batch.batch);
        drop(batch);
        self.lock()
    }
}

/// Hands the executor role back when a batch ends, normally or by unwinding:
/// any slot the batch left unfilled is marked failed, then every sleeping
/// caller is woken to collect its answer or take the role.
struct Release<'a> {
    shared: &'a Shared,
    batch: Vec<Pending>,
}

impl Drop for Release<'_> {
    fn drop(&mut self) {
        for pending in &self.batch {
            let _ = pending.slot.set(None);
        }
        let mut state = self.shared.lock();
        state.executing = false;
        // Waking is a system call even with no one asleep; skip it then.
        let wake = state.sleepers > 0;
        drop(state);
        if wake {
            self.shared.changed.notify_all();
        }
    }
}

/// Serve one drained batch: group by router (a batch may span scenes
/// sharing a shard), answer each group with one `distances` call, and fill
/// each query's slot.
fn execute(batch: &[Pending]) {
    let mut groups: Vec<(&Arc<Router>, Vec<&Pending>)> = Vec::new();
    for pending in batch {
        match groups.iter_mut().find(|(router, _)| Arc::ptr_eq(router, &pending.router)) {
            Some((_, members)) => members.push(pending),
            None => groups.push((&pending.router, vec![pending])),
        }
    }
    for (router, members) in groups {
        let pairs: Vec<(Point, Point)> = members.iter().map(|p| p.pair).collect();
        match router.distances(&pairs) {
            Ok(lengths) => {
                for (pending, length) in members.iter().zip(lengths) {
                    let _ = pending.slot.set(Some(Ok(length)));
                }
            }
            // One invalid query fails a whole `distances` call; re-serve the
            // group per-query so only the culprit sees its typed error.
            Err(_) => {
                for pending in members {
                    let (a, b) = pending.pair;
                    let _ = pending.slot.set(Some(router.distance(a, b).map_err(ServerError::from)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_geom::{ObstacleSet, Rect};
    use rsp_workload::{query_pairs, uniform_disjoint};

    #[test]
    fn coalesced_answers_match_per_call_distance() {
        let w = uniform_disjoint(8, 17);
        let router = Arc::new(Router::new(w.obstacles.clone()).unwrap());
        let queue = Coalescer::new(Duration::from_millis(2), 64);
        let mut pairs = query_pairs(&w.obstacles, 24, true, 3);
        pairs.extend(query_pairs(&w.obstacles, 24, false, 4));
        let receivers: Vec<_> = pairs.iter().map(|&(a, b)| queue.submit(Arc::clone(&router), a, b)).collect();
        for (rx, &(a, b)) in receivers.iter().zip(&pairs) {
            let got = rx.recv().unwrap().unwrap();
            assert_eq!(got, router.distance(a, b).unwrap(), "{a:?} -> {b:?}");
        }
        let stats = queue.stats();
        assert_eq!(stats.queries, 48);
        assert!(stats.batches >= 1);
        assert!(stats.largest_batch >= 2, "the window coalesced something: {stats:?}");
    }

    #[test]
    fn bad_query_fails_alone_not_its_batchmates() {
        let obstacles = ObstacleSet::new(vec![Rect::new(2, 2, 6, 10)]);
        let router = Arc::new(Router::new(obstacles).unwrap());
        let queue = Coalescer::new(Duration::from_millis(5), 64);
        let good_a = queue.submit(Arc::clone(&router), Point::new(0, 0), Point::new(8, 12));
        let bad = queue.submit(Arc::clone(&router), Point::new(3, 5), Point::new(0, 0));
        let good_b = queue.submit(Arc::clone(&router), Point::new(2, 2), Point::new(6, 10));
        assert_eq!(good_a.recv().unwrap().unwrap(), router.distance(Point::new(0, 0), Point::new(8, 12)).unwrap());
        assert!(matches!(bad.recv().unwrap().unwrap_err(), ServerError::PointInsideObstacle { obstacle: 0, .. }));
        assert_eq!(good_b.recv().unwrap().unwrap(), 12);
    }

    #[test]
    fn size_budget_flushes_before_the_window() {
        let w = uniform_disjoint(4, 9);
        let router = Arc::new(Router::new(w.obstacles.clone()).unwrap());
        // A long window with a tiny budget: dispatch must come from the
        // budget, not the timer.
        let queue = Coalescer::new(Duration::from_secs(60), 2);
        let pairs = query_pairs(&w.obstacles, 4, true, 5);
        let receivers: Vec<_> = pairs.iter().map(|&(a, b)| queue.submit(Arc::clone(&router), a, b)).collect();
        for rx in &receivers {
            assert!(rx.recv_timeout(Duration::from_secs(20)).unwrap().is_ok());
        }
        let stats = queue.stats();
        assert!(stats.batches >= 2, "{stats:?}");
        assert!(stats.largest_batch <= 2, "{stats:?}");
    }

    #[test]
    fn coalesced_window_on_implicit_store_sweeps_each_row_once() {
        let w = uniform_disjoint(8, 17);
        let verts = w.obstacles.vertices();
        let dim = verts.len();
        // A two-row budget: without planning, ten queries alternating
        // between rows 0 and 2 would thrash; the planner pins both rows
        // for the batch and sweeps each exactly once.
        let budget = 2 * dim * std::mem::size_of::<Dist>();
        let router = Arc::new(
            rsp_core::router::Router::builder(w.obstacles.clone())
                .store(rsp_core::store::StoreKind::Implicit { budget_bytes: budget })
                .build()
                .unwrap(),
        );
        let dense = Router::new(w.obstacles.clone()).unwrap();
        // Ten vertex queries, both orientations, spanning two canonical
        // rows (0 and 2).
        let mut pairs = Vec::new();
        for t in (4..24).step_by(5) {
            pairs.push((verts[0], verts[t]));
            pairs.push((verts[t], verts[0]));
        }
        pairs.push((verts[5], verts[2]));
        pairs.push((verts[2], verts[5]));
        // A long window with the budget set to the query count: the whole
        // window dispatches as exactly one batch, deterministically.
        let queue = Coalescer::new(Duration::from_secs(60), pairs.len());
        let receivers: Vec<_> = pairs.iter().map(|&(a, b)| queue.submit(Arc::clone(&router), a, b)).collect();
        for (rx, &(a, b)) in receivers.iter().zip(&pairs) {
            let got = rx.recv_timeout(Duration::from_secs(20)).unwrap().unwrap();
            assert_eq!(got, dense.distance(a, b).unwrap(), "{a:?} -> {b:?}");
        }
        assert_eq!(queue.stats().batches, 1, "one coalesced dispatch");
        let stats = router.memory_stats();
        assert_eq!(stats.row_misses, 2, "one sweep per distinct canonical row");
        assert_eq!(stats.pinned_bytes, 0, "batch pins released");
    }

    #[test]
    fn shutdown_drains_pending_queries() {
        let w = uniform_disjoint(4, 11);
        let router = Arc::new(Router::new(w.obstacles.clone()).unwrap());
        let queue = Coalescer::new(Duration::from_millis(50), 1024);
        let pending: Vec<_> = query_pairs(&w.obstacles, 8, true, 6)
            .iter()
            .map(|&(a, b)| queue.submit(Arc::clone(&router), a, b))
            .collect();
        drop(queue);
        for rx in pending {
            assert!(rx.recv().unwrap().is_ok(), "queued work drains on shutdown");
        }
    }

    #[test]
    fn zero_window_serves_everything_queued_in_one_batch() {
        let w = uniform_disjoint(8, 23);
        let router = Arc::new(Router::new(w.obstacles.clone()).unwrap());
        let queue = Coalescer::new(Duration::ZERO, 256);
        let mut pairs = query_pairs(&w.obstacles, 10, true, 7);
        pairs.extend(query_pairs(&w.obstacles, 7, false, 8));
        let tickets: Vec<_> = pairs.iter().map(|&(a, b)| queue.submit(Arc::clone(&router), a, b)).collect();
        // The first `recv` runs the whole queue; the rest find their answers.
        assert_eq!(tickets[0].recv().unwrap().unwrap(), router.distance(pairs[0].0, pairs[0].1).unwrap());
        assert_eq!(queue.stats(), QueueStats { queries: 17, batches: 1, largest_batch: 17 });
        for (ticket, &(a, b)) in tickets.iter().zip(&pairs) {
            assert_eq!(ticket.recv().unwrap().unwrap(), router.distance(a, b).unwrap(), "{a:?} -> {b:?}");
        }
        assert_eq!(queue.stats().batches, 1, "answered tickets run nothing");
    }

    #[test]
    fn concurrent_callers_all_get_their_own_answers() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 500;
        let w = uniform_disjoint(8, 31);
        let router = Arc::new(Router::new(w.obstacles.clone()).unwrap());
        let queue = Coalescer::new(Duration::ZERO, 256);
        std::thread::scope(|scope| {
            for t in 0..THREADS as u64 {
                let (queue, router, obstacles) = (&queue, &router, &w.obstacles);
                scope.spawn(move || {
                    let mut pairs = query_pairs(obstacles, PER_THREAD / 2, true, 100 + t);
                    pairs.extend(query_pairs(obstacles, PER_THREAD / 2, false, 200 + t));
                    for (a, b) in pairs {
                        // A lost wakeup fails here instead of hanging the suite.
                        let got = queue
                            .submit(Arc::clone(router), a, b)
                            .recv_timeout(Duration::from_secs(10))
                            .expect("answered within 10 s");
                        assert_eq!(got, router.distance(a, b).map_err(ServerError::from), "{a:?} -> {b:?}");
                    }
                });
            }
        });
        let stats = queue.stats();
        assert_eq!(stats.queries, (THREADS * PER_THREAD) as u64);
        assert!(stats.batches >= 1 && stats.batches <= stats.queries, "{stats:?}");
    }

    #[test]
    fn tickets_outlive_their_queue() {
        let w = uniform_disjoint(4, 13);
        let router = Arc::new(Router::new(w.obstacles.clone()).unwrap());
        let queue = Coalescer::new(Duration::ZERO, 3);
        let pairs = query_pairs(&w.obstacles, 8, false, 9);
        let tickets: Vec<_> = pairs.iter().map(|&(a, b)| queue.submit(Arc::clone(&router), a, b)).collect();
        // No worker thread exists to drain the queue: the tickets, received
        // in reverse, serve all eight queries (in batches of at most three)
        // after the queue itself is gone.
        drop(queue);
        for (ticket, &(a, b)) in tickets.iter().zip(&pairs).rev() {
            assert_eq!(ticket.recv().unwrap().unwrap(), router.distance(a, b).unwrap(), "{a:?} -> {b:?}");
        }
    }

    #[test]
    fn a_panicking_batch_releases_the_executor_role() {
        let w = uniform_disjoint(4, 15);
        let router = Arc::new(Router::new(w.obstacles.clone()).unwrap());
        let queue = Coalescer::new(Duration::ZERO, 2);
        let pairs = query_pairs(&w.obstacles, 3, true, 10);
        let tickets: Vec<_> = pairs.iter().map(|&(a, b)| queue.submit(Arc::clone(&router), a, b)).collect();
        let shared = Arc::clone(&queue.shared);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drop(shared.run_batch(shared.lock(), |_| panic!("batch failure")));
        }));
        assert!(unwound.is_err());
        // The failed batch's queries get an error instead of hanging...
        assert_eq!(tickets[0].recv(), Err(RecvError));
        assert_eq!(tickets[1].recv_timeout(Duration::from_secs(10)), Err(RecvTimeoutError::Disconnected));
        // ...and the role is free again for the query left queued.
        let (a, b) = pairs[2];
        assert_eq!(tickets[2].recv_timeout(Duration::from_secs(10)).unwrap(), Ok(router.distance(a, b).unwrap()));
        assert_eq!(queue.stats().batches, 2);
    }
}
