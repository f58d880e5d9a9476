//! A PE's Converse scheduler queue.
//!
//! What is queued is the encoded wire buffer itself, moved out of the
//! `Deliver` event that carried it — as Converse queues `CmiMsg` pointers
//! — and what comes out is `(priority, arrival)` order: smaller priority
//! first, FIFO within a priority (Charm++'s prioritized execution).
//!
//! Like Converse's `CqsPrioQueue`, the queue is two structures. Nearly all
//! traffic carries [`DEFAULT_PRIO`] and sits in a FIFO: push is an append,
//! pop a `pop_front`, neither depends on how many thousand messages a
//! fine-grain app has parked here. Anything else (the fault-tolerance
//! heartbeats, an app's prioritized sends) goes to a binary heap that is
//! not allocated until the first such message arrives.

use crate::msg::DEFAULT_PRIO;
use bytes::Bytes;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

#[derive(Default)]
pub(crate) struct SchedQueue {
    /// The [`DEFAULT_PRIO`] messages, in arrival order.
    fifo: VecDeque<Bytes>,
    /// Every other priority; `None` until one is pushed.
    prio: Option<Box<PrioHeap>>,
}

#[derive(Default)]
struct PrioHeap {
    /// `(priority, arrival, wire buffer)`, least first. Arrivals are
    /// unique, so the comparison never reaches the buffer.
    heap: BinaryHeap<Reverse<(u16, u64, Bytes)>>,
    /// Arrival counter: orders heap entries of one priority. The FIFO
    /// needs none, and the two never compare arrivals with one another
    /// (their priorities differ).
    seq: u64,
}

impl SchedQueue {
    /// Queue a wire buffer whose header carries priority `prio`.
    #[inline]
    pub(crate) fn push(&mut self, prio: u16, wire: Bytes) {
        if prio == DEFAULT_PRIO {
            self.fifo.push_back(wire);
        } else {
            self.push_prioritized(prio, wire);
        }
    }

    #[cold]
    fn push_prioritized(&mut self, prio: u16, wire: Bytes) {
        let p = self.prio.get_or_insert_with(Box::default);
        let seq = p.seq;
        p.seq += 1;
        p.heap.push(Reverse((prio, seq, wire)));
    }

    /// The most urgent message: the heap's while its top outranks the
    /// default priority, then the FIFO's, then what the heap holds below
    /// the default.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<Bytes> {
        if let Some(p) = &mut self.prio {
            let urgent = p
                .heap
                .peek()
                .is_some_and(|Reverse(top)| top.0 < DEFAULT_PRIO);
            if urgent || self.fifo.is_empty() {
                return p.heap.pop().map(|Reverse((_, _, wire))| wire);
            }
        }
        self.fifo.pop_front()
    }

    /// The oldest default-priority message: what the next [`pop`] returns
    /// unless a prioritized message outranks it. A hint for a prefetch —
    /// nothing that behaves depends on it.
    ///
    /// [`pop`]: SchedQueue::pop
    #[inline]
    pub(crate) fn front(&self) -> Option<&Bytes> {
        self.fifo.front()
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.fifo.is_empty() && self.prio.as_ref().is_none_or(|p| p.heap.is_empty())
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.fifo.len() + self.prio.as_ref().map_or(0, |p| p.heap.len())
    }

    /// Keep the messages `keep` accepts; those that stay pop in the order
    /// they would have popped in.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&Bytes) -> bool) {
        self.fifo.retain(&mut keep);
        if let Some(p) = &mut self.prio {
            p.heap.retain(|Reverse((_, _, wire))| keep(wire));
        }
    }

    pub(crate) fn clear(&mut self) {
        self.fifo.clear();
        self.prio = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{Envelope, HandlerId};
    use proptest::prelude::*;

    /// A wire buffer carrying `prio` and, as its `src_pe`, a tag.
    fn wire(prio: u16, tag: u32) -> Bytes {
        Envelope::new(tag, 0, HandlerId(0), Bytes::new())
            .with_priority(prio)
            .encode()
    }

    fn key(wire: &Bytes) -> (u16, u32) {
        let h = Envelope::peek(wire);
        (h.priority, h.src_pe)
    }

    #[test]
    fn a_pe_that_only_sees_default_priority_owns_no_heap() {
        let mut q = SchedQueue::default();
        for tag in 0..1000 {
            q.push(DEFAULT_PRIO, wire(DEFAULT_PRIO, tag));
        }
        q.retain(|w| key(w).1.is_multiple_of(2));
        while q.pop().is_some() {}
        assert!(q.prio.is_none());
        // The first prioritized message allocates it; a crash frees it.
        q.push(0, wire(0, 0));
        assert!(q.prio.is_some());
        q.clear();
        assert!(q.prio.is_none() && q.is_empty());
    }

    #[test]
    fn front_is_the_next_pop_unless_a_prioritized_message_outranks_it() {
        let mut q = SchedQueue::default();
        for tag in 0..4 {
            q.push(DEFAULT_PRIO, wire(DEFAULT_PRIO, tag));
        }
        // Default priority only: `front` is what `pop` returns next.
        while let Some(front) = q.front().map(key) {
            assert_eq!(q.pop().as_ref().map(key), Some(front));
        }
        assert!(q.pop().is_none());

        q.push(DEFAULT_PRIO, wire(DEFAULT_PRIO, 10));
        q.push(5, wire(5, 11));
        q.push(DEFAULT_PRIO + 1, wire(DEFAULT_PRIO + 1, 12));
        // The heap's message outranks the FIFO: `pop` takes it, and
        // `front` still names the FIFO's head — a hint, not the order.
        assert_eq!(q.front().map(key), Some((DEFAULT_PRIO, 10)));
        assert_eq!(q.pop().as_ref().map(key), Some((5, 11)));
        assert_eq!(q.pop().as_ref().map(key), Some((DEFAULT_PRIO, 10)));
        // Below the default the heap waits for an empty FIFO, which
        // `front` shows as none.
        assert!(q.front().is_none());
        assert_eq!(q.pop().as_ref().map(key), Some((DEFAULT_PRIO + 1, 12)));
        assert!(q.is_empty());
    }

    /// The priorities that matter: both ends, and both sides of the
    /// FIFO/heap split.
    const PRIOS: [u16; 6] = [
        0,
        5,
        DEFAULT_PRIO - 1,
        DEFAULT_PRIO,
        DEFAULT_PRIO + 1,
        u16::MAX,
    ];

    proptest! {
        /// Differential: under random push / pop / retain / clear the
        /// queue pops exactly what one heap keyed by `(priority, arrival)`
        /// — the structure it replaced — pops.
        #[test]
        fn pops_what_a_priority_arrival_heap_pops(
            ops in proptest::collection::vec((0u8..32, 0usize..PRIOS.len()), 0..400)
        ) {
            let mut q = SchedQueue::default();
            let mut model: BinaryHeap<Reverse<(u16, u32)>> = BinaryHeap::new();
            let mut arrival = 0u32;
            for (op, p) in ops {
                match op {
                    // Pushes outnumber pops: the backlog grows.
                    0..=17 => {
                        q.push(PRIOS[p], wire(PRIOS[p], arrival));
                        model.push(Reverse((PRIOS[p], arrival)));
                        arrival += 1;
                    }
                    18..=28 => {
                        let got = q.pop().map(|w| key(&w));
                        prop_assert_eq!(got, model.pop().map(|Reverse(k)| k));
                    }
                    29..=30 => {
                        let keep = |arrival: u32| !arrival.is_multiple_of(p as u32 + 2);
                        q.retain(|w| keep(key(w).1));
                        model.retain(|Reverse((_, a))| keep(*a));
                    }
                    _ => {
                        q.clear();
                        model.clear();
                    }
                }
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.is_empty(), model.is_empty());
            }
            while let Some(Reverse(k)) = model.pop() {
                prop_assert_eq!(q.pop().map(|w| key(&w)), Some(k));
            }
            prop_assert!(q.pop().is_none());
        }
    }
}
