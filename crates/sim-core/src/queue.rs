//! The central event queue of the discrete-event simulation.
//!
//! Events are totally ordered by `(time, sequence)`: two events scheduled
//! for the same instant pop in the order they were pushed. That stability is
//! what makes every simulation in this workspace deterministic and therefore
//! testable — identical inputs produce identical virtual-time results.
//!
//! [`TwoLevelQueue`] is the queue the sequential engine runs on: two rungs
//! of one mechanism — an occupancy bitmap over FIFO lists — in front of a
//! far heap for distant timers. The coarse rung is a ring of 64 buckets of
//! 1 μs covering the near horizon; the fine rung splits the *active*
//! microsecond into 1,024 ticks of 1 ns, one per representable instant.
//! Push into either rung is an append; pop is "first set bit, front of
//! that list". Neither compares, sifts, nor depends on how many events are
//! pending — which matters because a whole-machine run holds hundreds of
//! thousands of events inside one microsecond (every PE of a ring exchange
//! acts at the same virtual instants: 306,432 pending on the 153,216-PE
//! `hopper_dense` benchmark workload against 6,144 on the 64-PE ones).
//!
//! # An event is stored once
//!
//! `push` writes the event into a node of one slab and `pop` takes it out;
//! in between, the tiers pass the node's `u32` index around. A tick is a
//! `(head, tail)` pair over a list threaded through the nodes, a ring
//! bucket a vector of 8-byte `(tick, node)` handles, a heap entry a 24-byte
//! `(time, seq, node)` key. A node does not store its time — a tick knows
//! it from its position, a heap key carries it — so it is the event plus
//! one link: 64 bytes for the runtime's 56-byte `Event` (pinned by a test
//! in `charm-rt`'s `kernel.rs`). Freed nodes form a LIFO list, so the
//! steady pop-one-push-one of a simulation keeps writing the node it just
//! read, and the slab's length is exactly the most events ever pending at
//! once ([`TwoLevelQueue::peak_len`]); it does not shrink.
//!
//! # Why FIFO lists give exact `(time, seq)` order without a sort
//!
//! A tick holds one instant, so order within it is `seq` order, and every
//! source already feeds a tick in `seq` order:
//!
//! * *Direct pushes* carry the queue's own increasing `seq`.
//! * *Ring buckets.* `far` only ever holds events at or beyond the horizon
//!   (`advance` re-establishes that each time `base` moves), and a direct
//!   push lands in a ring bucket only once its window is inside the
//!   horizon. So each window's bucket is filled in two phases that cannot
//!   interleave: first the one `advance` that brings the window inside the
//!   horizon drains every far entry for it — the far heap pops those in
//!   `(time, seq)` order — and only afterwards can direct pushes, with
//!   larger `seq`s, append. Restricted to any one instant the bucket is
//!   therefore in `seq` order, and handing it to the ticks front to back
//!   keeps it so.
//! * *A far jump* (ring empty, `base` leaps to the far minimum) drains far
//!   entries of the new active window straight into the ticks, again in
//!   `(time, seq)` order and before any direct push can reach that window.
//!
//! Debug builds keep each node's `seq` and assert the argument whenever a
//! node is linked behind a tick's tail. The simulator never pushes below
//! `base` (pushes are ≥ now ≥ `base`), but the contract allows it: such
//! stragglers go to a small `below` heap that pops before everything else.
//!
//! [`HeapQueue`], a single `BinaryHeap`, is the reference model of the
//! contract — the differential tests require the two to pop identical
//! sequences — and the right queue for the thousands of shallow (depth
//! 0–4) per-endpoint queues in `ugni`, where an 8 KiB tick table and 64
//! bucket headers each would be absurd.

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
/// Fine rung: one FIFO list per nanosecond of the active window.
const TICKS: usize = BUCKET_NS as usize;
const TICK_WORDS: usize = TICKS / 64;
// `tick_words` summarizes `tick_occ` one bit per word.
const _: () = assert!(TICK_WORDS == u16::BITS as usize);
/// A ring bucket that empties keeps its handle buffer for reuse only up to
/// this many entries: a whole-machine burst parks 150k handles (1.2 MiB,
/// 2 MiB of capacity) in each of several buckets, and they must not all
/// pin their high-water mark for the rest of the run.
const SLOT_KEEP_CAP: usize = 1024;
/// "No node": the end of the free list. A slab index never reaches it.
const NIL: u32 = u32::MAX;

/// One slab cell: a pending event, or a link of the free list.
#[derive(Debug)]
struct Node<E> {
    /// The next node of the same tick while the event is pending and not
    /// the tick's tail; the next free node once it has been popped.
    next: u32,
    /// The pending event's `seq`, for the tick-order assertion in
    /// [`TwoLevelQueue::link`].
    #[cfg(debug_assertions)]
    seq: u64,
    event: Option<E>,
}

/// A tick's FIFO list through [`Node::next`]. Meaningful only while the
/// tick's bit in `tick_occ` is set, so an all-zero table is an empty wheel.
#[derive(Debug, Clone, Copy, Default)]
struct Tick {
    head: u32,
    tail: u32,
}

/// What a ring bucket stores per event: its tick once the bucket's window
/// is the active one, and its node.
type Handle = (u32, u32);
/// What the `far` and `below` heaps store per event.
type Key = Reverse<(Time, u64, u32)>;

/// Two-rung (calendar-queue-style) event queue with exact `(time, seq)`
/// FIFO ordering and depth-independent push and pop.
///
/// A pending event is stored once, in a node of the `nodes` slab, from
/// `push` to `pop`; every tier holds node indices. Invariants, with `base`
/// the start of the active window (a multiple of `BUCKET_NS`):
///
/// * every node is either pending (`event` is `Some`, reachable from
///   exactly one tier) or on the free list; `nodes.len()` is the most
///   events ever pending at once, and `push` reuses the node the latest
///   `pop` released;
/// * `below` holds stragglers pushed with `time < base`; when non-empty
///   its min is the global min;
/// * tick `i ∈ 0..TICKS` lists every pending event at exactly `base + i`,
///   in `seq` order; bit `i` of `tick_occ` says the tick is non-empty,
///   bit `w` of `tick_words` that word `w` of `tick_occ` has a bit set;
/// * ring bucket `j ∈ 1..NUM_BUCKETS` holds events in
///   `[base + j·W, base + (j+1)·W)`, each instant's events in `seq` order
///   (see the module doc); bit `j` of `occ` says the bucket is non-empty;
/// * `far` holds everything at or beyond `base + HORIZON_NS`, and is
///   re-bucketed whenever `base` advances.
#[derive(Debug)]
pub struct TwoLevelQueue<E> {
    nodes: Vec<Node<E>>,
    /// Head of the LIFO free list through [`Node::next`].
    free: u32,
    below: BinaryHeap<Key>,
    /// Empty, like `ring`, until the first push (see `alloc`).
    ticks: Vec<Tick>,
    tick_occ: [u64; TICK_WORDS],
    /// Bit `w` set ⇔ `tick_occ[w]` is non-zero: the first set bit is two
    /// `trailing_zeros` away instead of a scan over sixteen words.
    tick_words: u16,
    ring: Vec<Vec<Handle>>,
    /// Physical index of logical bucket 0 (the active window's slot; its
    /// vec is always empty because the window's events are on the ticks).
    head: usize,
    /// Bit `j` set ⇔ logical ring bucket `j` is non-empty.
    occ: u64,
    /// Start of the active window; multiple of `BUCKET_NS`; monotonic.
    base: Time,
    far: BinaryHeap<Key>,
    len: usize,
    seq: u64,
}

impl<E> Default for TwoLevelQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TwoLevelQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with node storage for `cap` pending events.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(cap),
            free: NIL,
            below: BinaryHeap::new(),
            ticks: Vec::new(),
            tick_occ: [0; TICK_WORDS],
            tick_words: 0,
            ring: Vec::new(),
            head: 0,
            occ: 0,
            base: 0,
            far: BinaryHeap::new(),
            len: 0,
            seq: 0,
        }
    }

    #[inline]
    fn phys(&self, logical: usize) -> usize {
        (self.head + logical) & (NUM_BUCKETS - 1)
    }

    /// Append `node` to tick `i` of the active window. Touches no node
    /// unless the tick is occupied, and then only its tail.
    #[inline]
    fn link(&mut self, i: usize, node: u32) {
        let tick = &mut self.ticks[i];
        if self.tick_occ[i / 64] & (1 << (i % 64)) == 0 {
            self.tick_occ[i / 64] |= 1 << (i % 64);
            self.tick_words |= 1 << (i / 64);
            tick.head = node;
        } else {
            #[cfg(debug_assertions)]
            debug_assert!(
                self.nodes[tick.tail as usize].seq < self.nodes[node as usize].seq,
                "tick {i} fed out of seq order"
            );
            self.nodes[tick.tail as usize].next = node;
        }
        tick.tail = node;
    }

    /// File a pending node under the tier its time belongs to.
    #[inline]
    fn place(&mut self, time: Time, seq: u64, node: u32) {
        let Some(ahead) = time.checked_sub(self.base) else {
            self.below.push(Reverse((time, seq, node)));
            return;
        };
        if ahead < BUCKET_NS {
            self.link(ahead as usize, node);
        } else if ahead < HORIZON_NS {
            let j = (ahead >> BUCKET_BITS) as usize;
            debug_assert!((1..NUM_BUCKETS).contains(&j));
            let slot = self.phys(j);
            self.ring[slot].push(((ahead & (BUCKET_NS - 1)) as u32, node));
            self.occ |= 1 << j;
        } else {
            self.far.push(Reverse((time, seq, node)));
        }
    }

    /// Schedule `event` at absolute time `time`.
    #[inline]
    pub fn push(&mut self, time: Time, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        let node = self.alloc(event);
        #[cfg(debug_assertions)]
        {
            self.nodes[node as usize].seq = seq;
        }
        self.place(time, seq, node);
    }

    /// Put `event` in the node at the head of the free list, or in a new
    /// one when every node is pending.
    #[inline]
    fn alloc(&mut self, event: E) -> u32 {
        let node = self.free;
        if node != NIL {
            let cell = &mut self.nodes[node as usize];
            self.free = cell.next;
            cell.event = Some(event);
            return node;
        }
        // Every node is pending: grow the slab. The first node also brings
        // the tick table and the ring into being, so a queue nobody pushed
        // to owns no memory and the hot paths never test for them.
        if self.ticks.is_empty() {
            self.ticks = vec![Tick::default(); TICKS];
            self.ring.resize_with(NUM_BUCKETS, Vec::new);
        }
        // An index equal to NIL would end the free list early: abort
        // rather than lose events (2^32 nodes is beyond any host anyway).
        // panic-ok: a full slab cannot degrade, only corrupt the order
        assert!(self.nodes.len() < NIL as usize, "event queue slab is full");
        self.nodes.push(Node {
            next: NIL,
            #[cfg(debug_assertions)]
            seq: 0,
            event: Some(event),
        });
        (self.nodes.len() - 1) as u32
    }

    /// Take the event out of a pending node and put the node on the free
    /// list.
    #[inline]
    fn release(&mut self, node: u32) -> E {
        let cell = &mut self.nodes[node as usize];
        // panic-ok: every tier holds pending nodes only (struct invariant)
        let event = cell.event.take().expect("queued node holds an event");
        cell.next = self.free;
        self.free = node;
        event
    }

    /// Advance `base` to the window holding the earliest pending event and
    /// refill the ticks. Caller guarantees `below` and the ticks are empty
    /// and `len > 0`.
    fn advance(&mut self) {
        debug_assert!(self.below.is_empty() && self.tick_words == 0);
        let next = if self.occ != 0 {
            let j = self.occ.trailing_zeros() as u64;
            self.base + j * BUCKET_NS
        } else {
            let Some(&Reverse((t, ..))) = self.far.peek() else {
                return; // nothing pending anywhere: pop()'s guard was skipped
            };
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
        // Hand the now-active bucket to the ticks, front to back.
        if self.occ & 1 != 0 {
            self.occ &= !1;
            let mut bucket = std::mem::take(&mut self.ring[self.head]);
            for &(i, node) in &bucket {
                self.link(i as usize, node);
            }
            if bucket.capacity() <= SLOT_KEEP_CAP {
                bucket.clear();
                self.ring[self.head] = bucket;
            }
        }
        // The horizon moved: re-bucket far events that now fall inside it.
        while let Some(&Reverse((time, seq, node))) = self.far.peek() {
            if time - self.base >= HORIZON_NS {
                break;
            }
            self.far.pop();
            self.place(time, seq, node);
        }
    }

    /// Index of the earliest non-empty tick.
    #[inline]
    fn first_tick(&self) -> Option<usize> {
        if self.tick_words == 0 {
            return None;
        }
        let w = self.tick_words.trailing_zeros() as usize;
        Some(w * 64 + self.tick_occ[w].trailing_zeros() as usize)
    }

    /// Remove and return the earliest event, or `None` when empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        if let Some(Reverse((time, _, node))) = self.below.pop() {
            return Some((time, self.release(node)));
        }
        if self.tick_words == 0 {
            self.advance();
        }
        // panic-ok: advance() always refills the ticks when len > 0
        let i = self.first_tick().expect("advance refills the ticks");
        let tick = &mut self.ticks[i];
        let node = tick.head;
        if node == tick.tail {
            self.tick_occ[i / 64] &= !(1 << (i % 64));
            if self.tick_occ[i / 64] == 0 {
                self.tick_words &= !(1 << (i / 64));
            }
        } else {
            tick.head = self.nodes[node as usize].next;
        }
        Some((self.base + i as Time, self.release(node)))
    }

    /// The event the next [`pop`](Self::pop) returns if nothing is pushed
    /// before it, when that pop would take it straight off the active
    /// window's ticks; `None` when the pop would first drain `below` or
    /// `advance` (or the queue is empty). Read-only and
    /// O(1): it never moves an event between tiers. It also prefetches
    /// the node linked behind that event, so a caller that peeks once per
    /// pop finds each node already loaded.
    #[inline]
    pub fn peek_next(&self) -> Option<&E> {
        if !self.below.is_empty() {
            return None;
        }
        let i = self.first_tick()?;
        let tick = self.ticks[i];
        let node = &self.nodes[tick.head as usize];
        if tick.head != tick.tail {
            crate::prefetch(std::ptr::from_ref(&self.nodes[node.next as usize]).cast());
        }
        node.event.as_ref()
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        if let Some(&Reverse((time, ..))) = self.below.peek() {
            return Some(time);
        }
        if let Some(i) = self.first_tick() {
            return Some(self.base + i as Time);
        }
        if self.occ != 0 {
            let j = self.occ.trailing_zeros() as usize;
            let first = self.ring[self.phys(j)].iter().map(|&(i, _)| i).min()?;
            return Some(self.base + j as Time * BUCKET_NS + Time::from(first));
        }
        self.far.peek().map(|&Reverse((time, ..))| time)
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

    /// Largest number of simultaneously pending events seen so far: a new
    /// node is allocated exactly when every existing one is pending.
    pub fn peak_len(&self) -> usize {
        self.nodes.len()
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
        assert_eq!(q.len(), 2);
        assert_eq!(q.peak_len(), 2);
        while q.pop().is_some() {}
        // The high-water mark survives the drain.
        assert_eq!(q.peak_len(), 2);
    }

    /// Nodes on the free list, walked from its head.
    fn free_nodes<E>(q: &TwoLevelQueue<E>) -> usize {
        let first = Some(q.free).filter(|&n| n != NIL);
        let next = |&n: &u32| Some(q.nodes[n as usize].next).filter(|&n| n != NIL);
        std::iter::successors(first, next).count()
    }

    #[test]
    fn same_instant_burst_pops_fifo_and_frees_every_node() {
        // The whole-machine shape: every PE acts at one instant. One burst
        // lands in the active window directly, one arrives through a ring
        // bucket; both must pop in push order, each event held in one node
        // from push to pop, and every node must be reusable afterwards.
        const N: u32 = 200_000;
        let later = 7 * BUCKET_NS + 5;
        let mut q = TwoLevelQueue::new();
        for i in 0..N {
            q.push(3, i);
            q.push(later, N + i);
        }
        assert_eq!(q.peak_len(), 2 * N as usize);
        for i in 0..N {
            assert_eq!(q.pop(), Some((3, i)));
        }
        for i in 0..N {
            assert_eq!(q.pop(), Some((later, N + i)));
        }
        assert_eq!(q.pop(), None);
        assert_eq!(q.nodes.len(), 2 * N as usize);
        assert_eq!(free_nodes(&q), q.nodes.len());
        assert!(q.nodes.iter().all(|n| n.event.is_none()));
        assert!(q.ring.iter().all(|b| b.capacity() <= SLOT_KEEP_CAP));
    }

    #[test]
    fn steady_hold_reuses_the_node_the_last_pop_released() {
        // The simulator's steady state: pop one, push one. Whatever tier
        // the new event goes to (deltas reach past the horizon), it is
        // written into the node just released, so the slab never grows
        // beyond the initial depth.
        for depth in [64usize, 65_536] {
            let mut q = TwoLevelQueue::new();
            for i in 0..depth {
                q.push(i as Time % 4_000, i);
            }
            let mut delta = 1;
            for i in 0..4 * depth {
                let (now, _) = q.pop().expect("held at depth");
                let released = q.free;
                delta = delta * 5 % (3 * HORIZON_NS / 2);
                q.push(now + delta, i);
                assert!(q.nodes[released as usize].event.is_some());
                assert_eq!(q.free, NIL);
            }
            assert_eq!(q.nodes.len(), depth);
        }
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
    fn peek_next_stops_at_the_window_edges() {
        // Inside the active window the peek is the next pop.
        let mut q = TwoLevelQueue::new();
        q.push(3, "a");
        q.push(3, "b");
        q.push(5 * BUCKET_NS + 1, "ring");
        q.push(10 * HORIZON_NS, "far");
        assert_eq!(q.peek_next(), Some(&"a"));
        assert_eq!(q.pop(), Some((3, "a")));
        assert_eq!(q.peek_next(), Some(&"b"));
        assert_eq!(q.pop(), Some((3, "b")));
        // The next event sits in a ring bucket: reaching it takes an
        // advance, which the peek leaves to the pop.
        assert_eq!(q.peek_next(), None);
        assert_eq!((q.base, q.tick_words), (0, 0));
        assert_eq!(q.pop(), Some((5 * BUCKET_NS + 1, "ring")));
        // Only the far heap is left: a jump, again left to the pop.
        let base = q.base;
        assert_eq!(q.peek_next(), None);
        assert_eq!((q.base, q.far.len()), (base, 1));
        assert_eq!(q.pop(), Some((10 * HORIZON_NS, "far")));
        // A straggler below `base` pops first, out of `below`, even while
        // the active window holds an event.
        q.push(10 * HORIZON_NS + 2, "tick");
        q.push(1, "straggler");
        assert_eq!(q.peek_next(), None);
        assert_eq!(q.pop(), Some((1, "straggler")));
        assert_eq!(q.peek_next(), Some(&"tick"));
        assert_eq!(q.pop(), Some((10 * HORIZON_NS + 2, "tick")));
        assert_eq!(q.peek_next(), None);
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
        /// reference heap pops, for arbitrary interleaved push/pop traces
        /// spanning the ticks, the ring, and the far horizon (time deltas
        /// up to several horizons). One op in eight is a dense burst, the
        /// regime the tick wheel exists for: thousands of entries over four
        /// instants — the current minimum, its neighbour tick, one window
        /// on (a populated ring bucket) and one horizon on (the far heap)
        /// — half of which are then popped, so later ops find `base`
        /// advanced past earlier absolute times (stragglers) and windows
        /// are crossed with all three tiers occupied.
        #[test]
        fn two_level_matches_heap(
            ops in proptest::collection::vec(
                proptest::option::of((0u64..(HORIZON_NS * 3), 0u8..8)), 0..400)
        ) {
            let mut a = HeapQueue::new();
            let mut b = TwoLevelQueue::new();
            let mut clock = 0u64;
            let mut id = 0u32;
            // Most events the reference has held at once: every path
            // (`below`, `far`, a far jump) must give its node back, or
            // the slab outgrows this.
            let mut peak = 0;
            for op in ops {
                // `None`: one pop. `Some`: pushes, then `pops` pops.
                let mut pops = 0;
                match op {
                    // Absolute push times: stragglers once the clock moved.
                    Some((dt, 0..=2)) => {
                        a.push(dt, id);
                        b.push(dt, id);
                        id += 1;
                    }
                    // Monotone-from-clock: the simulator's pattern.
                    Some((dt, 3..=6)) => {
                        a.push(clock + dt, id);
                        b.push(clock + dt, id);
                        id += 1;
                    }
                    Some((dt, _)) => {
                        let min = a.peek_time().unwrap_or(clock);
                        let times = [min, min + 1, min + BUCKET_NS, min + HORIZON_NS];
                        let burst = dt % 2048;
                        for k in 0..burst {
                            let t = times[(k % 4) as usize];
                            a.push(t, id);
                            b.push(t, id);
                            id += 1;
                        }
                        pops = burst / 2;
                    }
                    None => pops = 1,
                }
                peak = peak.max(a.len());
                for _ in 0..pops {
                    let x = a.pop();
                    let y = b.pop();
                    prop_assert_eq!(x, y, "pop diverged");
                    if let Some((t, _)) = x {
                        clock = clock.max(t);
                    }
                }
                prop_assert_eq!(a.len(), b.len());
                prop_assert_eq!(a.peek_time(), b.peek_time());
                prop_assert_eq!(b.nodes.len(), peak, "a node leaked");
            }
            // Drain both fully.
            loop {
                let x = a.pop();
                let y = b.pop();
                prop_assert_eq!(x, y, "drain diverged");
                if x.is_none() { break; }
            }
        }

        /// `peek_next` is exact and read-only: whenever it names an event,
        /// a pop with no push in between returns that event at the
        /// earliest pending time, and a peeked queue pops exactly what the
        /// reference heap pops. Ops: push (times spanning the ticks, the
        /// ring, the far heap and stragglers), pop, peek.
        #[test]
        fn peek_next_names_the_next_pop(
            ops in proptest::collection::vec((0u8..4, 0u64..(HORIZON_NS * 2)), 0..400)
        ) {
            let mut a = HeapQueue::new();
            let mut b = TwoLevelQueue::new();
            let mut clock = 0u64;
            let mut id = 0u32;
            // The id the latest peek named, until a push or a pop.
            let mut peeked: Option<u32> = None;
            for (op, dt) in ops {
                match op {
                    0 => {
                        // Mostly the simulator's pattern (at or after the
                        // clock, often at it); one in eight absolute.
                        let t = match dt % 8 {
                            0 => dt,
                            1..=3 => clock,
                            _ => clock + dt % (3 * BUCKET_NS),
                        };
                        a.push(t, id);
                        b.push(t, id);
                        id += 1;
                        peeked = None;
                    }
                    1 | 2 => {
                        let want_time = a.peek_time();
                        let x = a.pop();
                        let y = b.pop();
                        prop_assert_eq!(x, y, "pop diverged");
                        if let Some(e) = peeked.take() {
                            prop_assert_eq!(y, Some((want_time.unwrap(), e)), "peek was not the pop");
                        }
                        if let Some((t, _)) = y {
                            clock = clock.max(t);
                        }
                    }
                    _ => {
                        peeked = b.peek_next().copied();
                        prop_assert_eq!(b.peek_next().copied(), peeked, "peek moved the queue");
                    }
                }
            }
            loop {
                let x = a.pop();
                let y = b.pop();
                prop_assert_eq!(x, y, "drain diverged");
                if x.is_none() { break; }
            }
        }
    }
}
