//! Conservative parallel discrete-event execution primitives.
//!
//! This module and [`crate::sync`] are the only places in the simulation
//! crates where OS threads and locks are allowed (the workspace's
//! `clippy.toml` rejects them everywhere else). It provides the pieces a
//! driver needs to run partitioned simulations with bounded time windows
//! while reproducing the sequential engine's `(time, push-sequence)` event
//! order bit for bit:
//!
//! * [`EvKey`] — a plain `(time, ord)` pair, `Copy` and heap-free. The
//!   sequential engine orders same-time events by a global push counter;
//!   a parallel phase cannot draw from a shared counter without racing,
//!   so the driver gives each partition a *partition-local* counter
//!   starting at the phase epoch: keys with `ord < epoch` are global
//!   (pre-phase) positions, keys with `ord >= epoch` are in-phase
//!   positions local to one partition. Within a partition the local
//!   order equals the canonical order (a partition executes its own
//!   events in canonical order and receives no cross-partition pushes
//!   mid-phase); *across* partitions the driver compares in-phase keys
//!   structurally through its per-partition push-origin log (see
//!   `canon_cmp` in the driver and DESIGN.md §10). Every barrier
//!   re-keys the surviving in-phase keys to fresh global positions, so
//!   in-phase keys never outlive their phase.
//! * [`KeyedQueue`] — a min-heap ordered by [`EvKey`], used for
//!   partition queues and the serial queue during parallel runs; its
//!   keys can be read ([`KeyedQueue::keys`]) and rewritten in place
//!   ([`KeyedQueue::relabel`]) without moving an event.
//! * [`run_pool`] — alternates a serial phase (main thread, exclusive
//!   access) with a parallel phase (one worker per partition group) on
//!   the persistent [`crate::sync::WorkerPool`], and reports the
//!   barrier-wait nanoseconds the run spent synchronizing.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the parallel driver is the sanctioned home of threads and locks"
)]

use crate::time::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Mutex;

/// Canonical event key: virtual time plus a push-order position. `Copy`
/// on purpose — the worker hot path moves millions of these and must not
/// touch the allocator.
///
/// The derived lexicographic order (`t`, then `ord`) is the full
/// canonical order whenever the two keys' positions are drawn from the
/// same counter: two global keys, or two in-phase keys of the same
/// partition. In-phase keys of *different* partitions are numerically
/// incomparable (each partition counts from the shared epoch); only the
/// driver, which logs every in-phase push's parent, can order those —
/// and it re-keys every surviving in-phase key to a global position at
/// every barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EvKey {
    pub t: Time,
    pub ord: u64,
}

impl EvKey {
    #[inline]
    pub fn flat(t: Time, ord: u64) -> Self {
        EvKey { t, ord }
    }
}

struct KEntry<E> {
    key: EvKey,
    ev: E,
}
impl<E> PartialEq for KEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for KEntry<E> {}
impl<E> PartialOrd for KEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for KEntry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// Min-heap of events ordered by explicit [`EvKey`]s (unlike
/// [`crate::queue::EventQueue`], which assigns its own sequence numbers).
pub struct KeyedQueue<E> {
    heap: BinaryHeap<Reverse<KEntry<E>>>,
}

impl<E> Default for KeyedQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> KeyedQueue<E> {
    pub fn new() -> Self {
        KeyedQueue {
            heap: BinaryHeap::new(),
        }
    }

    #[inline]
    pub fn push(&mut self, key: EvKey, ev: E) {
        self.heap.push(Reverse(KEntry { key, ev }));
    }

    #[inline]
    pub fn pop(&mut self) -> Option<(EvKey, E)> {
        self.heap.pop().map(|Reverse(e)| (e.key, e.ev))
    }

    #[inline]
    pub fn peek_key(&self) -> Option<&EvKey> {
        self.heap.peek().map(|Reverse(e)| &e.key)
    }

    #[inline]
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse(e)| e.key.t)
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Every queued key, once each, in heap (not key) order. Touches no
    /// event.
    pub fn keys(&self) -> impl Iterator<Item = EvKey> + '_ {
        self.heap.iter().map(|Reverse(e)| e.key)
    }

    /// Rewrite every queued key in place with `f`, then restore the heap
    /// order in one O(n) heapify. Events stay where they are and the
    /// heap keeps its buffer: no allocation.
    pub fn relabel(&mut self, mut f: impl FnMut(&mut EvKey)) {
        let mut v = std::mem::take(&mut self.heap).into_vec();
        for Reverse(e) in v.iter_mut() {
            f(&mut e.key);
        }
        self.heap = BinaryHeap::from(v);
    }

    /// Drain every pending event in key order (used at teardown and by
    /// the stop drain; the caller re-sorts canonically when the queue
    /// may hold in-phase keys of several partitions).
    pub fn drain_sorted(&mut self) -> Vec<(EvKey, E)> {
        std::mem::take(&mut self.heap)
            .into_sorted_vec()
            .into_iter()
            .rev()
            .map(|Reverse(e)| (e.key, e.ev))
            .collect()
    }
}

/// Contiguous, balanced ranges: split `0..units` into `parts` blocks whose
/// sizes differ by at most one. `parts` is clamped to `units`.
pub fn partition_ranges(units: u32, parts: u32) -> Vec<std::ops::Range<u32>> {
    let parts = parts.clamp(1, units.max(1));
    (0..parts)
        .map(|p| {
            let lo = (p as u64 * units as u64 / parts as u64) as u32;
            let hi = ((p as u64 + 1) * units as u64 / parts as u64) as u32;
            lo..hi
        })
        .collect()
}

/// Alternate serial and parallel phases over partitioned state `P`.
///
/// `serial(&mut parts)` runs on the calling thread with exclusive access
/// to every partition; it returns the next window end `Some(p_end)` or
/// `None` when the run is finished. `phase(&mut p, p_end)` then runs once
/// per partition on the calling thread's persistent
/// [`crate::sync::WorkerPool`] (partitions are distributed round-robin
/// over `workers` threads; with `workers <= 1` everything runs inline).
/// Worker panics are re-raised on the caller.
///
/// Returns the partitions plus the nanoseconds this run spent waiting at
/// pool barriers (the `sync_overhead_ns` meter; `0` on the inline path).
pub fn run_pool<P: Send>(
    parts: Vec<P>,
    workers: usize,
    phase: impl Fn(&mut P, Time) + Sync,
    mut serial: impl FnMut(&mut Vec<P>) -> Option<Time>,
) -> (Vec<P>, u64) {
    let mut parts = parts;
    if workers <= 1 || parts.len() <= 1 {
        while let Some(p_end) = serial(&mut parts) {
            for p in parts.iter_mut() {
                phase(p, p_end);
            }
        }
        return (parts, 0);
    }

    let n = parts.len();
    let workers = workers.min(n);
    let slots: Vec<Mutex<Option<P>>> = parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let panic_box: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    let (out, sync_ns) = crate::sync::with_pool(workers, |pool| {
        let wait0 = pool.wait_ns();
        let out = loop {
            // Serial phase: take every partition out of its slot so the
            // main thread has plain `&mut` access with no locks held.
            // A panicking worker poisons its slot; the partition is
            // still there and the payload is re-raised below, so poison
            // is not an error here.
            let mut parts: Vec<P> = slots
                .iter()
                .map(|s| {
                    s.lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .take()
                        .expect("partition present")
                })
                .collect();
            if panic_box
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .is_some()
            {
                break parts;
            }
            match serial(&mut parts) {
                None => break parts,
                Some(p_end) => {
                    for (slot, p) in slots.iter().zip(parts) {
                        *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(p);
                    }
                    pool.round(&|w: usize| {
                        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            for slot in slots.iter().skip(w).step_by(workers) {
                                let mut g = slot.lock().unwrap_or_else(|e| e.into_inner());
                                if let Some(p) = g.as_mut() {
                                    phase(p, p_end);
                                }
                            }
                        }));
                        if let Err(e) = r {
                            let mut g = panic_box.lock().unwrap_or_else(|e| e.into_inner());
                            if g.is_none() {
                                *g = Some(e);
                            }
                        }
                    });
                }
            }
        };
        (out, pool.wait_ns().saturating_sub(wait0))
    });
    if let Some(e) = panic_box.lock().unwrap_or_else(|e| e.into_inner()).take() {
        std::panic::resume_unwind(e);
    }
    (out, sync_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_order_by_time_then_position() {
        let a = EvKey::flat(5, 0);
        let b = EvKey::flat(5, 1);
        let c = EvKey::flat(4, 9);
        assert!(a < b);
        assert!(c < a);
    }

    #[test]
    fn epoch_split_orders_pre_phase_keys_first() {
        // The driver hands every partition local counters starting at the
        // phase epoch, so any surviving global key (ord < epoch) sorts
        // before every in-phase key of the same time — by plain value.
        let epoch = 10u64;
        let pre = EvKey::flat(5, epoch - 1);
        let in_phase = EvKey::flat(5, epoch);
        assert!(pre < in_phase);
        // Time still dominates.
        assert!(EvKey::flat(4, 99) < in_phase);
        assert!(in_phase < EvKey::flat(6, 0));
    }

    #[test]
    fn keyed_queue_pops_in_key_order() {
        let mut q = KeyedQueue::new();
        q.push(EvKey::flat(5, 2), "c");
        q.push(EvKey::flat(5, 1), "b");
        q.push(EvKey::flat(3, 9), "a");
        assert_eq!(q.peek_time(), Some(3));
        assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("c"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn drain_sorted_is_key_order() {
        let mut q = KeyedQueue::new();
        for (t, o, v) in [(9, 1, 3), (2, 5, 0), (9, 0, 2), (4, 0, 1)] {
            q.push(EvKey::flat(t, o), v);
        }
        let vals: Vec<i32> = q.drain_sorted().into_iter().map(|(_, v)| v).collect();
        assert_eq!(vals, vec![0, 1, 2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn keys_yield_every_queued_key_once() {
        let mut q = KeyedQueue::new();
        let pushed = [(7, 3), (2, 0), (7, 1), (5, 9), (2, 4)];
        for (i, (t, o)) in pushed.into_iter().enumerate() {
            q.push(EvKey::flat(t, o), i);
        }
        let mut seen: Vec<EvKey> = q.keys().collect();
        seen.sort();
        let mut want: Vec<EvKey> = pushed.iter().map(|&(t, o)| EvKey::flat(t, o)).collect();
        want.sort();
        assert_eq!(seen, want);
        assert_eq!(q.len(), pushed.len(), "keys() must not consume");
    }

    #[test]
    fn pops_follow_relabelled_keys() {
        let mut q = KeyedQueue::new();
        for (o, v) in [(10, "a"), (11, "b"), (12, "c")] {
            q.push(EvKey::flat(5, o), v);
        }
        q.push(EvKey::flat(3, 0), "first");
        // Reverse the same-time ordinals: c, b, a.
        q.relabel(|k| {
            if k.t == 5 {
                k.ord = 22 - k.ord;
            }
        });
        let popped: Vec<(EvKey, &str)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            popped,
            vec![
                (EvKey::flat(3, 0), "first"),
                (EvKey::flat(5, 10), "c"),
                (EvKey::flat(5, 11), "b"),
                (EvKey::flat(5, 12), "a"),
            ]
        );
    }

    #[test]
    fn relabel_keeps_the_heap_buffer() {
        let mut q = KeyedQueue::new();
        for o in 0..100u64 {
            q.push(EvKey::flat(o % 7, o), o);
        }
        let (cap, buf) = (q.heap.capacity(), q.heap.as_slice().as_ptr());
        q.relabel(|k| k.ord += 1000);
        assert_eq!(q.heap.capacity(), cap);
        assert_eq!(q.heap.as_slice().as_ptr(), buf, "relabel reallocated");
        assert_eq!(q.len(), 100);
    }

    #[test]
    fn partition_ranges_are_contiguous_and_balanced() {
        for units in 1..40u32 {
            for parts in 1..10u32 {
                let rs = partition_ranges(units, parts);
                assert_eq!(rs[0].start, 0);
                assert_eq!(rs.last().unwrap().end, units);
                for w in rs.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
                let sizes: Vec<u32> = rs.iter().map(|r| r.end - r.start).collect();
                let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(mx - mn <= 1, "unbalanced: {sizes:?}");
            }
        }
    }

    #[test]
    fn run_pool_alternates_serial_and_parallel_phases() {
        // Each partition accumulates the window ends it saw; the serial
        // closure drives three windows then stops.
        let parts: Vec<(u32, Vec<Time>)> = (0..5).map(|i| (i, Vec::new())).collect();
        for workers in [1usize, 2, 4, 8] {
            let mut windows = vec![10u64, 20, 30];
            let (out, _sync_ns) = run_pool(
                parts.clone(),
                workers,
                |p, end| p.1.push(end),
                move |_parts| {
                    if windows.is_empty() {
                        None
                    } else {
                        Some(windows.remove(0))
                    }
                },
            );
            assert_eq!(out.len(), 5);
            for (i, seen) in &out {
                assert_eq!(seen, &vec![10, 20, 30], "partition {i} workers {workers}");
            }
        }
    }

    #[test]
    fn run_pool_serial_phase_sees_parallel_mutations() {
        // Workers increment; serial sums and stops at a threshold.
        let parts: Vec<u64> = vec![0; 4];
        let (out, _) = run_pool(
            parts,
            3,
            |p, _end| *p += 1,
            |parts| {
                let total: u64 = parts.iter().sum();
                if total >= 12 {
                    None
                } else {
                    Some(total)
                }
            },
        );
        assert_eq!(out.iter().sum::<u64>(), 12);
    }

    #[test]
    fn run_pool_meters_sync_overhead() {
        // A phase that does real (wall-clock) work forces the coordinator
        // to wait at the completion barrier, so the meter must be nonzero
        // on the pooled path and zero inline.
        let slow = |p: &mut u64, _end: Time| {
            std::thread::sleep(std::time::Duration::from_micros(200));
            *p += 1;
        };
        fn stop_after_two() -> impl FnMut(&mut Vec<u64>) -> Option<Time> {
            let mut rounds = 0u32;
            move |_parts| {
                rounds += 1;
                (rounds <= 2).then_some(1u64)
            }
        }
        let (_, inline_ns) = run_pool(vec![0u64; 2], 1, slow, stop_after_two());
        assert_eq!(inline_ns, 0);
        let (_, pooled_ns) = run_pool(vec![0u64; 2], 2, slow, stop_after_two());
        assert!(pooled_ns > 0, "pooled run must record barrier waits");
    }

    #[test]
    fn run_pool_propagates_worker_panics() {
        let r = std::panic::catch_unwind(|| {
            run_pool(
                vec![0u32, 1, 2],
                2,
                |p, _end| {
                    if *p == 1 {
                        panic!("boom from partition 1");
                    }
                },
                {
                    let mut rounds = 0;
                    move |_parts| {
                        rounds += 1;
                        if rounds > 3 {
                            None
                        } else {
                            Some(rounds)
                        }
                    }
                },
            )
        });
        let err = r.expect_err("panic must propagate");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("boom"), "got: {msg}");
    }

    #[test]
    fn run_pool_reuses_the_pool_across_invocations() {
        // Two back-to-back pooled runs from the same thread must land on
        // the same persistent pool (same worker threads).
        let run = || {
            let mut rounds = 0;
            run_pool(
                vec![0u64; 3],
                2,
                |p, _| *p += 1,
                move |_| {
                    rounds += 1;
                    (rounds <= 1).then_some(1u64)
                },
            )
        };
        run();
        // Thread ids are never reused: the same id is the same worker.
        let worker = || crate::sync::with_pool(2, |p| p.handles[0].thread().id());
        let before = worker();
        run();
        assert_eq!(worker(), before, "pool must persist across run_pool calls");
    }
}
