//! Synchronization layer for the conservative parallel driver: an
//! adaptive spin-then-park barrier and a persistent worker pool.
//!
//! A barrier that burns a full spin/yield loop at every window crossing,
//! and a `thread::scope` re-spawned per run, turn each crossing into a
//! scheduler fight on an oversubscribed host (more workers than hardware
//! threads — notably a 1-core CI container): the small pinned workloads
//! ran ~60x *slower* at `threads = 2` than at `threads = 1` that way.
//! This module replaces both pieces:
//!
//! * `AdaptiveBarrier` spins for a short bounded budget and then parks
//!   on a condvar. When the participant count exceeds
//!   `available_parallelism()` the spin budget drops to zero — a waiter
//!   that cannot possibly be overtaken by a running peer goes straight
//!   to sleep instead of stealing the CPU the releaser needs.
//! * [`WorkerPool`] keeps its threads alive across `run_parallel`
//!   invocations (thread-local, sized to the partition count). Between
//!   rounds the workers are parked inside the barrier, so an idle pool
//!   costs nothing.
//!
//! The barrier also meters the nanoseconds participants spend waiting
//! (vs executing), drained as `sync_overhead_ns` by the repository
//! benchmark's parallel workload, so barrier cost is separable from
//! the work done between barriers.
//!
//! Everything here is wall-clock-side machinery: no virtual timestamps
//! pass through this module, so it cannot perturb simulation results —
//! the determinism argument lives entirely in the driver's window
//! protocol.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the barrier and pool are the sanctioned home of threads, atomics, spinning and \
              the wall-clock sync meter, which never feeds virtual time"
)]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Spin iterations before a waiter parks, when the host has a spare
/// hardware thread for it. Small on purpose: the windows being waited on
/// are microseconds of work, so a short spin catches the common
/// already-almost-done case and anything longer is better slept through.
const SPIN_BUDGET: u32 = 1 << 10;

fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// A reusable barrier that spins briefly and then parks.
///
/// `wait()` forms rounds of `n` participants: the last arriver of a
/// round publishes the next generation and wakes any sleepers; everyone
/// else spins up to the budget and then blocks on the condvar. The
/// generation counter only grows, so a stale wakeup can never release a
/// waiter early.
pub(crate) struct AdaptiveBarrier {
    n: usize,
    spin: u32,
    /// Monotone arrival tickets; `ticket / n` is the round index.
    tickets: AtomicUsize,
    /// Completed-round counter. A waiter of round `r` is released once
    /// `gen > r`.
    gen: AtomicUsize,
    /// Number of waiters that have committed to sleeping (or are about
    /// to). SeqCst, paired with the SeqCst `gen` store in the releaser:
    /// either the sleeper's increment is visible to the releaser (which
    /// then takes the lock and notifies) or the releaser's `gen` store
    /// is visible to the sleeper's re-check under the lock. Plain
    /// release/acquire would allow both flags to hide and lose the
    /// wakeup.
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
    /// Total nanoseconds participants spent inside `wait()` while not
    /// being the releaser — the `sync_overhead_ns` meter.
    wait_ns: AtomicU64,
}

impl AdaptiveBarrier {
    pub(crate) fn new(n: usize) -> Self {
        assert!(n > 0, "barrier needs at least one participant");
        // Oversubscribed: spinning only delays the peer we are waiting
        // for, so park immediately.
        let spin = if n > hardware_threads() {
            0
        } else {
            SPIN_BUDGET
        };
        AdaptiveBarrier {
            n,
            spin,
            tickets: AtomicUsize::new(0),
            gen: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            wait_ns: AtomicU64::new(0),
        }
    }

    /// Block until all `n` participants of the current round have
    /// arrived.
    pub(crate) fn wait(&self) {
        let ticket = self.tickets.fetch_add(1, Ordering::AcqRel);
        let round = ticket / self.n;
        if (ticket + 1).is_multiple_of(self.n) {
            // Last arriver: release the round. The SeqCst store orders
            // against the SeqCst `sleepers` load below (see `sleepers`).
            self.gen.store(round + 1, Ordering::SeqCst);
            if self.sleepers.load(Ordering::SeqCst) > 0 {
                // Taking the lock closes the race with a sleeper that
                // observed a stale `gen` and is between its re-check and
                // `cv.wait`.
                drop(self.lock.lock().unwrap());
                self.cv.notify_all();
            }
            return;
        }
        let start = Instant::now();
        let mut spins = self.spin;
        loop {
            if self.gen.load(Ordering::Acquire) > round {
                break;
            }
            if spins > 0 {
                spins -= 1;
                std::hint::spin_loop();
                continue;
            }
            // Park. Commit to sleeping first, then re-check under the
            // lock before actually waiting.
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            let mut guard = self.lock.lock().unwrap();
            while self.gen.load(Ordering::SeqCst) <= round {
                guard = self.cv.wait(guard).unwrap();
            }
            drop(guard);
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            break;
        }
        let waited = start.elapsed().as_nanos() as u64;
        self.wait_ns.fetch_add(waited, Ordering::Relaxed);
    }

    /// Cumulative nanoseconds participants have spent waiting at this
    /// barrier (excludes each round's releaser, who never waits).
    pub(crate) fn wait_ns(&self) -> u64 {
        self.wait_ns.load(Ordering::Relaxed)
    }
}

/// Worker-round control words (`WorkerPool::ctl`).
const CTL_RUN: usize = 0;
const CTL_SHUTDOWN: usize = 1;

/// Type-erased per-round job. The pointer is only dereferenced between
/// the two barrier crossings of a round, while the caller's closure is
/// alive on the coordinating thread's stack.
struct Job(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync`, and the pool's round protocol bounds
// every dereference to the lifetime of the borrow `round()` holds.
unsafe impl Send for Job {}

struct PoolShared {
    /// `workers + 1` participants: the coordinator joins every crossing.
    barrier: AdaptiveBarrier,
    ctl: AtomicUsize,
    job: Mutex<Option<Job>>,
}

/// A persistent pool of `workers` threads driven in rounds.
///
/// Protocol per round (coordinator side in [`WorkerPool::round`]):
/// publish the job, cross the barrier to release the workers, cross it
/// again to wait for them. Workers park inside the first crossing
/// between rounds, so an idle pool consumes no CPU. Dropping the pool
/// flips `ctl` to shutdown and joins the threads.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: usize,
    pub(crate) handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "pool needs at least one worker");
        let shared = Arc::new(PoolShared {
            barrier: AdaptiveBarrier::new(workers + 1),
            ctl: AtomicUsize::new(CTL_RUN),
            job: Mutex::new(None),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("charm-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            workers,
            handles,
        }
    }

    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Run one round: every worker `w` executes `job(w)` once; returns
    /// when all have finished.
    pub fn round(&self, job: &(dyn Fn(usize) + Sync)) {
        // SAFETY: only the borrow's lifetime is erased. Workers
        // dereference the pointer only between the two barrier crossings
        // below, and the job slot is cleared before this borrow ends.
        let erased = Job(unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
                job as *const _,
            )
        });
        *self.shared.job.lock().unwrap() = Some(erased);
        self.shared.barrier.wait(); // release the workers
        self.shared.barrier.wait(); // wait for the round to finish
        *self.shared.job.lock().unwrap() = None;
    }

    /// Cumulative barrier-wait nanoseconds across all participants. Take
    /// a snapshot before a session and subtract to get per-run overhead.
    pub(crate) fn wait_ns(&self) -> u64 {
        self.shared.barrier.wait_ns()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.ctl.store(CTL_SHUTDOWN, Ordering::Release);
        // Pairs with the workers' round-start crossing; they observe the
        // shutdown word and exit without a completion crossing.
        self.shared.barrier.wait();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, w: usize) {
    loop {
        shared.barrier.wait();
        if shared.ctl.load(Ordering::Acquire) == CTL_SHUTDOWN {
            return;
        }
        let job = shared.job.lock().unwrap().as_ref().map(|j| j.0);
        if let Some(p) = job {
            // SAFETY: the coordinator is blocked at the completion
            // crossing below for as long as we run, so the closure
            // behind `p` is alive.
            unsafe { (*p)(w) };
        }
        shared.barrier.wait();
    }
}

std::thread_local! {
    /// One pool per coordinating thread: concurrent tests each drive
    /// their own clusters, and the perf-critical case (a benchmark
    /// repetition loop) is a single thread re-running `run_parallel`
    /// thousands of times against the same pool.
    static POOL: std::cell::RefCell<Option<WorkerPool>> = const { std::cell::RefCell::new(None) };
}

/// Borrow this thread's persistent pool, (re)creating it when the
/// requested worker count differs from the cached one. Recreation joins
/// the old threads first, so at most one cached pool per thread exists.
///
/// The pool is *taken out* of the thread-local slot for the duration of
/// `f` (and put back afterwards), so a reentrant call — a simulated
/// handler driving a nested cluster — simply builds a temporary pool
/// instead of panicking on a `RefCell` borrow.
pub(crate) fn with_pool<R>(workers: usize, f: impl FnOnce(&WorkerPool) -> R) -> R {
    let pool = POOL
        .with(|cell| {
            let mut slot = cell.borrow_mut();
            match slot.take() {
                Some(p) if p.workers() == workers => Some(p),
                // Wrong size: drop (and join) the old pool before
                // spawning a fresh one below.
                _ => None,
            }
        })
        .unwrap_or_else(|| WorkerPool::new(workers));
    let r = f(&pool);
    POOL.with(|cell| *cell.borrow_mut() = Some(pool));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_synchronizes_rounds() {
        let n = 4;
        let b = Arc::new(AdaptiveBarrier::new(n));
        let hits = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let b = Arc::clone(&b);
                let hits = Arc::clone(&hits);
                std::thread::spawn(move || {
                    for round in 0..50 {
                        hits.fetch_add(1, Ordering::SeqCst);
                        b.wait();
                        // After the crossing every participant of the
                        // round has incremented.
                        assert!(hits.load(Ordering::SeqCst) >= (round + 1) * n);
                        b.wait();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(hits.load(Ordering::SeqCst), 50 * n);
    }

    #[test]
    fn barrier_meters_wait_time() {
        let b = Arc::new(AdaptiveBarrier::new(2));
        let b2 = Arc::clone(&b);
        let h = std::thread::spawn(move || b2.wait());
        std::thread::sleep(std::time::Duration::from_millis(5));
        b.wait();
        h.join().unwrap();
        // The early arriver waited ~5ms for us; the meter must have
        // recorded a nonzero (and plausibly-sized) wait.
        assert!(b.wait_ns() > 0);
    }

    #[test]
    fn pool_runs_rounds_and_persists() {
        let pool = WorkerPool::new(3);
        let sum = AtomicUsize::new(0);
        for _ in 0..20 {
            pool.round(&|w| {
                sum.fetch_add(w + 1, Ordering::SeqCst);
            });
        }
        // 20 rounds x (1 + 2 + 3).
        assert_eq!(sum.load(Ordering::SeqCst), 20 * 6);
    }

    #[test]
    fn with_pool_reuses_and_resizes() {
        // Thread ids are never reused: the same id is the same worker.
        let first = with_pool(2, |p| p.handles[0].thread().id());
        let again = with_pool(2, |p| p.handles[0].thread().id());
        assert_eq!(first, again, "same worker count must reuse the pool");
        let resized = with_pool(3, |p| (p.handles[0].thread().id(), p.workers()));
        assert_ne!(resized.0, first, "resize must build a fresh pool");
        assert_eq!(resized.1, 3);
    }
}
