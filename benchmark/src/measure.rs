//! Process meters and order statistics.

use std::time::Instant;

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Linux clock ids.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Nanoseconds on a CPU-time clock; 0 when it is unreadable.
fn cpu_clock_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` — two 64-bit
    // fields on 64-bit Linux, which `Timespec` mirrors — through the
    // pointer, which is valid and exclusively borrowed for the call.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU nanoseconds this process has run, user + system, all threads
/// (living and joined). `/proc/self/stat` counts 10 ms ticks and
/// `/proc/self/task/*/schedstat` advances at scheduler ticks (4 ms on the
/// reference host), both coarser than a short repetition; the process
/// CPU-time clock charges the running threads up to the instant of the
/// call.
pub fn cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU nanoseconds the calling thread has run.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Hold the calling thread, and every thread it starts from now on, on
/// the CPU it is running on. Returns that CPU, or `None` when the kernel
/// refuses.
///
/// For the parallel engine's workload: its three threads hand each
/// window to one another, the kernel keeps them on one CPU while the
/// other is idle and spreads them once it has been busy, and spread the
/// same work takes 1.6 times as long (README, "One CPU for
/// smsg_fine_par2"). Unpinned, the metric has two values.
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: no arguments, no memory touched.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? = 1 << (cpu % 64);
    // SAFETY: the kernel reads `cpusetsize` bytes from `mask`, which is
    // exactly the array passed; pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Peak resident set of this process (`VmHWM`), KiB. 0 when unreadable.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

/// What an interval cost.
#[derive(Debug, Clone, Copy)]
pub struct Took {
    pub wall_s: f64,
    /// The whole process, all threads.
    pub cpu_s: f64,
    /// The calling thread's part of `cpu_s`.
    pub own_cpu_s: f64,
}

/// Run `f` and meter it.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Took) {
    let (cpu0, own0) = (cpu_ns(), thread_cpu_ns());
    let t0 = Instant::now();
    let r = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let took = Took {
        wall_s,
        cpu_s: (cpu_ns() - cpu0) as f64 / 1e9,
        own_cpu_s: (thread_cpu_ns() - own0) as f64 / 1e9,
    };
    (r, took)
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the "exclusive" method) — the rule the acceptance spread
/// is defined with. Needs at least two values.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    assert!(m >= 2, "quartiles need two values");
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Value at quantile `p` of an ascending sample (nearest rank).
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(median(&xs), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn meters_read() {
        // A millisecond of work: the CPU clocks must resolve far below
        // a scheduler tick, and a second thread's time must count for
        // the process and not for the caller.
        let spin = || {
            let mut x = 0u64;
            for i in 0..1_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i));
            }
        };
        let ((), t) = timed(spin);
        assert!(
            t.wall_s > 0.0 && t.cpu_s > 0.0 && t.own_cpu_s > 0.0,
            "{t:?}"
        );
        let ((), t2) = timed(|| {
            std::thread::scope(|s| {
                s.spawn(spin);
            })
        });
        assert!(
            t2.cpu_s > t2.own_cpu_s && t2.cpu_s > t.cpu_s / 4.0,
            "{t2:?}"
        );
        assert!(peak_rss_kib() > 0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&[], 0.5), 0);
    }
}
