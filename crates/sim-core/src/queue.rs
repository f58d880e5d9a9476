//! The central event queue of the discrete-event simulation.
//!
//! Events are totally ordered by `(time, sequence)`: two events scheduled
//! for the same instant pop in the order they were pushed. That stability is
//! what makes every simulation in this workspace deterministic and therefore
//! testable — identical inputs produce identical virtual-time results.
//!
//! [`TwoLevelQueue`] is the queue the simulators run on: a
//! calendar-queue-style structure with a small binary heap for the
//! *active* time window, a ring of FIFO buckets for the near horizon (push
//! is O(1) there), and a far heap for distant timers. Discrete-event
//! simulators (SST/macro, Charm++'s own BigSim) use this shape because
//! event populations cluster tightly around the current virtual time.
//! [`HeapQueue`], a single `BinaryHeap`, is the reference model of the
//! contract: the differential tests require the two to pop identical
//! sequences.

use crate::time::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The event queue used by the simulators.
pub type EventQueue<E> = TwoLevelQueue<E>;

#[derive(Debug)]
struct Entry<E> {
    time: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A min-heap of timestamped events with FIFO tie-breaking: the reference
/// model [`TwoLevelQueue`] is tested against.
#[derive(Debug)]
pub struct HeapQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedule `event` at absolute time `time`.
    pub fn push(&mut self, time: Time, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { time, seq, event }));
    }

    /// Remove and return the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.event))
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Near-horizon bucket width: 2^10 ns. Scheduler and protocol charges in
/// this workspace are a few hundred ns and network latencies a few μs, so
/// most pushes land within a few buckets of the clock.
const BUCKET_BITS: u32 = 10;
const BUCKET_NS: Time = 1 << BUCKET_BITS;
/// Ring size (and `occ` bitmask width): the near horizon covers
/// `NUM_BUCKETS * BUCKET_NS` = 64 μs past the active window's start.
const NUM_BUCKETS: usize = 64;
const HORIZON_NS: Time = (NUM_BUCKETS as Time) << BUCKET_BITS;

/// Two-level (calendar-queue-style) event queue with exact `(time, seq)`
/// FIFO ordering.
///
/// Invariants, with `base` the start of the active window (a multiple of
/// [`BUCKET_NS`]):
///
/// * `active` holds every pending event with `time < base + BUCKET_NS`
///   (including stragglers pushed below `base`, so arbitrary push times
///   remain correct) — its min is therefore always the global min;
/// * ring bucket `j ∈ 1..NUM_BUCKETS` holds events in
///   `[base + j·W, base + (j+1)·W)`, unsorted (sorted lazily when the
///   bucket becomes active); bit `j` of `occ` says the bucket is
///   non-empty;
/// * `far` holds everything at or beyond `base + HORIZON_NS`, and is
///   re-bucketed whenever `base` advances.
#[derive(Debug)]
pub struct TwoLevelQueue<E> {
    active: BinaryHeap<Reverse<Entry<E>>>,
    /// Lazily allocated ring; empty until the first beyond-window push,
    /// so the many tiny per-endpoint queues in `ugni` stay cheap.
    ring: Vec<Vec<Entry<E>>>,
    /// Physical index of logical bucket 0 (the active window's slot; its
    /// vec is always empty because contents live in `active`).
    head: usize,
    /// Bit `j` set ⇔ logical ring bucket `j` is non-empty.
    occ: u64,
    /// Start of the active window; multiple of `BUCKET_NS`; monotonic.
    base: Time,
    far: BinaryHeap<Reverse<Entry<E>>>,
    len: usize,
    seq: u64,
    peak_len: usize,
    pushed: u64,
}

impl<E> Default for TwoLevelQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TwoLevelQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            active: BinaryHeap::new(),
            ring: Vec::new(),
            head: 0,
            occ: 0,
            base: 0,
            far: BinaryHeap::new(),
            len: 0,
            seq: 0,
            peak_len: 0,
            pushed: 0,
        }
    }

    /// An empty queue with pre-reserved capacity (in the active heap).
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = Self::new();
        q.active.reserve(cap);
        q
    }

    #[inline]
    fn phys(&self, logical: usize) -> usize {
        (self.head + logical) & (NUM_BUCKETS - 1)
    }

    fn place(&mut self, entry: Entry<E>) {
        let t = entry.time;
        if t < self.base + BUCKET_NS {
            self.active.push(Reverse(entry));
        } else if t - self.base < HORIZON_NS {
            if self.ring.is_empty() {
                self.ring.resize_with(NUM_BUCKETS, Vec::new);
            }
            let j = ((t - self.base) >> BUCKET_BITS) as usize;
            debug_assert!((1..NUM_BUCKETS).contains(&j));
            let slot = self.phys(j);
            self.ring[slot].push(entry);
            self.occ |= 1 << j;
        } else {
            self.far.push(Reverse(entry));
        }
    }

    /// Schedule `event` at absolute time `time`.
    #[inline]
    pub fn push(&mut self, time: Time, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.pushed += 1;
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
        self.place(Entry { time, seq, event });
    }

    /// Advance `base` to the window holding the earliest pending event and
    /// refill `active`. Caller guarantees `active` is empty and `len > 0`.
    fn advance(&mut self) {
        debug_assert!(self.active.is_empty());
        let next = if self.occ != 0 {
            let j = self.occ.trailing_zeros() as u64;
            self.base + j * BUCKET_NS
        } else {
            let t = self
                .far
                .peek()
                .map(|Reverse(e)| e.time)
                // panic-ok: pop() guards with is_empty before advancing
                .expect("advance called on empty queue");
            t & !(BUCKET_NS - 1)
        };
        let shift = (next - self.base) >> BUCKET_BITS;
        self.base = next;
        if shift >= NUM_BUCKETS as u64 {
            debug_assert_eq!(self.occ, 0);
            self.occ = 0;
        } else {
            self.head = self.phys(shift as usize);
            self.occ >>= shift;
        }
        // Move the now-active bucket's contents into the active heap.
        if self.occ & 1 != 0 {
            self.occ &= !1;
            let slot = self.head;
            // Rebuild the active heap inside the drained heap's own
            // allocation: one window's vector is recycled into the next,
            // so steady-state advancing allocates nothing.
            let mut items = std::mem::take(&mut self.active).into_vec();
            items.extend(self.ring[slot].drain(..).map(Reverse));
            self.active = BinaryHeap::from(items);
        }
        // The horizon moved: re-bucket far events that now fall inside it.
        while self
            .far
            .peek()
            .is_some_and(|Reverse(e)| e.time - self.base < HORIZON_NS)
        {
            // panic-ok: the loop condition just peeked this entry
            let Reverse(entry) = self.far.pop().expect("peeked");
            self.place(entry);
        }
    }

    /// Remove and return the earliest event, or `None` when empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        if self.len == 0 {
            return None;
        }
        if self.active.is_empty() {
            self.advance();
        }
        // panic-ok: advance() always refills active when len > 0
        let Reverse(e) = self.active.pop().expect("advance refills active");
        self.len -= 1;
        Some((e.time, e.event))
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        if let Some(Reverse(e)) = self.active.peek() {
            return Some(e.time);
        }
        if self.occ != 0 {
            let j = self.occ.trailing_zeros() as usize;
            let slot = self.phys(j);
            return self.ring[slot].iter().map(|e| e.time).min();
        }
        self.far.peek().map(|Reverse(e)| e.time)
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Largest number of simultaneously pending events seen so far.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Total events ever pushed.
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Drop all pending events.
    pub fn clear(&mut self) {
        self.active.clear();
        for b in &mut self.ring {
            b.clear();
        }
        self.occ = 0;
        self.far.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = TwoLevelQueue::new();
        q.push(30, "c");
        q.push(10, "a");
        q.push(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = TwoLevelQueue::new();
        for i in 0..100 {
            q.push(42, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((42, i)));
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = TwoLevelQueue::new();
        q.push(5, ());
        assert_eq!(q.peek_time(), Some(5));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn bookkeeping_counters() {
        let mut q = TwoLevelQueue::new();
        q.push(1, ());
        q.push(2, ());
        q.pop();
        q.push(3, ());
        assert_eq!(q.total_pushed(), 3);
        assert_eq!(q.peak_len(), 2);
        q.clear();
        assert!(q.is_empty());
        // peak and pushed survive clear
        assert_eq!(q.peak_len(), 2);
        assert_eq!(q.total_pushed(), 3);
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        let mut q = TwoLevelQueue::new();
        q.push(100, 100u64);
        q.push(50, 50);
        assert_eq!(q.pop(), Some((50, 50)));
        q.push(75, 75);
        q.push(25, 25);
        assert_eq!(q.pop(), Some((25, 25)));
        assert_eq!(q.pop(), Some((75, 75)));
        assert_eq!(q.pop(), Some((100, 100)));
    }

    #[test]
    fn two_level_spans_all_three_tiers() {
        // Events in the active window, mid-ring, and far beyond the
        // horizon, interleaved with same-time FIFO ties at each tier.
        let mut q = TwoLevelQueue::new();
        let far = 10 * HORIZON_NS;
        let mid = 5 * BUCKET_NS + 17;
        for i in 0..4 {
            q.push(far, 300 + i);
            q.push(mid, 200 + i);
            q.push(3, 100 + i);
        }
        let mut got = Vec::new();
        while let Some((t, v)) = q.pop() {
            got.push((t, v));
        }
        let want: Vec<(Time, i32)> = (0..4)
            .map(|i| (3, 100 + i))
            .chain((0..4).map(|i| (mid, 200 + i)))
            .chain((0..4).map(|i| (far, 300 + i)))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn two_level_far_rebuckets_on_advance() {
        // A far event whose bucket lands inside the ring after a jump:
        // push one event way out, one just past it, pop both in order.
        let mut q = TwoLevelQueue::new();
        q.push(HORIZON_NS * 3 + 5, "a");
        q.push(HORIZON_NS * 3 + BUCKET_NS * 2 + 1, "b");
        q.push(HORIZON_NS * 7, "c");
        assert_eq!(q.pop(), Some((HORIZON_NS * 3 + 5, "a")));
        // After the advance, pushing below the new base must still pop
        // first (straggler correctness).
        q.push(1, "early");
        assert_eq!(q.pop(), Some((1, "early")));
        assert_eq!(q.pop(), Some((HORIZON_NS * 3 + BUCKET_NS * 2 + 1, "b")));
        assert_eq!(q.pop(), Some((HORIZON_NS * 7, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn two_level_peek_reaches_every_tier() {
        let mut q = TwoLevelQueue::new();
        q.push(HORIZON_NS * 2, ());
        assert_eq!(q.peek_time(), Some(HORIZON_NS * 2));
        q.push(BUCKET_NS * 3 + 7, ());
        assert_eq!(q.peek_time(), Some(BUCKET_NS * 3 + 7));
        q.push(12, ());
        assert_eq!(q.peek_time(), Some(12));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Whatever we push, pops come out sorted by time, and same-time
        /// events preserve push order.
        #[test]
        fn pop_order_is_stable_sort(times in proptest::collection::vec(0u64..1000, 0..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(t, i);
            }
            let mut out = Vec::new();
            while let Some(x) = q.pop() {
                out.push(x);
            }
            prop_assert_eq!(out.len(), times.len());
            for w in out.windows(2) {
                let (t0, i0) = w[0];
                let (t1, i1) = w[1];
                prop_assert!(t0 <= t1);
                if t0 == t1 {
                    prop_assert!(i0 < i1, "FIFO violated for equal times");
                }
            }
        }

        /// len() always equals pushes minus pops.
        #[test]
        fn len_is_consistent(ops in proptest::collection::vec(proptest::option::of(0u64..100), 0..300)) {
            let mut q = EventQueue::new();
            let mut expect = 0usize;
            for op in ops {
                match op {
                    Some(t) => { q.push(t, ()); expect += 1; }
                    None => {
                        let popped = q.pop().is_some();
                        prop_assert_eq!(popped, expect > 0);
                        if popped { expect -= 1; }
                    }
                }
                prop_assert_eq!(q.len(), expect);
            }
        }

        /// Differential: the two-level queue pops *exactly* what the
        /// reference heap pops, for arbitrary interleaved push/pop traces spanning
        /// the active window, the ring, and the far horizon (time deltas
        /// up to several horizons).
        #[test]
        fn two_level_matches_heap(
            ops in proptest::collection::vec(
                proptest::option::of((0u64..(HORIZON_NS * 3), any::<bool>())), 0..400)
        ) {
            let mut a = HeapQueue::new();
            let mut b = TwoLevelQueue::new();
            let mut clock = 0u64;
            let mut id = 0u32;
            for op in ops {
                match op {
                    Some((dt, absolute)) => {
                        // Mix monotone-from-clock pushes (the simulator's
                        // pattern) with absolute ones (stragglers).
                        let t = if absolute { dt } else { clock + dt };
                        a.push(t, id);
                        b.push(t, id);
                        id += 1;
                    }
                    None => {
                        let x = a.pop();
                        let y = b.pop();
                        prop_assert_eq!(x, y, "pop diverged");
                        if let Some((t, _)) = x {
                            clock = clock.max(t);
                        }
                    }
                }
                prop_assert_eq!(a.len(), b.len());
                prop_assert_eq!(a.peek_time(), b.peek_time());
            }
            // Drain both fully.
            loop {
                let x = a.pop();
                let y = b.pop();
                prop_assert_eq!(x, y, "drain diverged");
                if x.is_none() { break; }
            }
        }
    }
}
