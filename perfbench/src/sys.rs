//! Facts about the process and the checkout that every run record states:
//! peak resident memory, CPU count and the source revision; and pinning to
//! one CPU.

use std::path::Path;

#[cfg(target_os = "linux")]
mod rusage {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs
    /// starting with `ru_maxrss` (KiB).
    #[repr(C)]
    pub struct RUsage {
        pub times: [i64; 4],
        pub maxrss_kib: i64,
        pub rest: [i64; 13],
    }

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
}

/// Peak resident set size of this process so far, in MiB.
#[cfg(target_os = "linux")]
pub fn peak_rss_mib() -> f64 {
    let mut usage = rusage::RUsage { times: [0; 4], maxrss_kib: 0, rest: [0; 13] };
    // SAFETY: `usage` matches the kernel's `struct rusage` layout on 64-bit
    // Linux and outlives the call; RUSAGE_SELF is 0.
    let rc = unsafe { rusage::getrusage(0, &mut usage) };
    if rc == 0 {
        usage.maxrss_kib as f64 / 1024.0
    } else {
        f64::NAN
    }
}

/// Peak resident set size (unsupported platform).
#[cfg(not(target_os = "linux"))]
pub fn peak_rss_mib() -> f64 {
    f64::NAN
}

/// CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(target_os = "linux")]
mod affinity {
    /// Room for 1024 CPUs, as glibc's `cpu_set_t`.
    pub type CpuSet = [u64; 16];

    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
}

/// Confine the calling thread, and every thread it starts from then on, to
/// one of the CPUs it may run on: the highest-numbered one, which takes
/// fewer device interrupts than CPU 0.  Returns that CPU, or `None` when
/// the affinity cannot be read or set.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: affinity::CpuSet = [0; 16];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: the mask is `size` bytes long and outlives the call; pid 0 is
    // the calling thread.
    if unsafe { affinity::sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..size * 8).rev().find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one: affinity::CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above.
    let rc = unsafe { affinity::sched_setaffinity(0, size, one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Pinning is not supported on this platform.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// The commit the checkout was made from: read from `.git` when present,
/// else `"unknown"` (the benchmark may run from a plain file tree).
pub fn git_rev() -> String {
    let git = Path::new(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| line.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}
