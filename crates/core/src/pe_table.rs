//! Lazily materialized per-PE scheduler state (DESIGN.md §13).
//!
//! A whole-machine job at Hopper scale (153,216 PEs) or beyond must not
//! pay O(num_pes) heap structures at construction: the driver's per-PE
//! [`PeState`] — scheduler queue, parked machine events, deterministic
//! RNG, QD counters — is built page-by-page the first time a PE is
//! actually touched. An untouched PE costs one page-table slot
//! (`Option<Box<[PeState]>>` = 8 bytes amortized over [`PE_PAGE_LEN`]
//! neighbors), and reads through `&self` see a shared pristine flyweight
//! that is field-for-field identical to a fresh state. The same idea
//! applies once more inside a state: what only chare arrays, AM
//! aggregation, persistent channels and fault tolerance use (`PeCold`,
//! kernel.rs) sits behind an `Option<Box<_>>` that stays `None` until
//! one of them touches the PE, so a page is 16 × 160 B = 2.5 KiB.
//!
//! Correctness hinges on materialization being *pure*: a fresh
//! [`PeState`] is a function of `(seed, pe)` only (the RNG is
//! `DetRng::derive(seed, pe)`, every container starts empty), so whether
//! a PE is materialized at construction or on first touch is
//! unobservable — the same invariant the fabric's `LazyVec` tables rely
//! on, which is what keeps every pinned virtual time bit-identical.

use crate::kernel::PeState;

/// PEs per lazily materialized page: small enough that a sparse job
/// touching scattered PEs does not materialize large dead spans around
/// each.
pub const PE_PAGE_LEN: usize = 16;

/// Paged flyweight table of per-PE driver state.
pub(crate) struct PeTable {
    pages: Vec<Option<Box<[PeState]>>>,
    len: usize,
    seed: u64,
    /// Shared pristine state returned for `&self` reads of untouched PEs.
    /// Identical to any fresh state except for the (private, never read
    /// through `&self`) RNG stream, which is derived with a sentinel
    /// index so accidental use is loud in differential runs.
    fallback: PeState,
}

impl PeTable {
    pub(crate) fn new(num_pes: u32, seed: u64) -> Self {
        let len = num_pes as usize;
        PeTable {
            pages: (0..len.div_ceil(PE_PAGE_LEN)).map(|_| None).collect(),
            len,
            seed,
            fallback: PeState::fresh(seed, u64::MAX),
        }
    }

    /// Shared view of a PE's state; untouched PEs read as the pristine
    /// flyweight (empty queue, `Box<()>` user state, no cold part —
    /// exactly what a fresh state would contain).
    pub(crate) fn get(&self, pe: usize) -> &PeState {
        // panic-ok: an out-of-range PE id is a driver bug, not a runtime fault
        assert!(pe < self.len, "PE {pe} out of range ({} PEs)", self.len);
        match self.pages[pe / PE_PAGE_LEN]
            .as_ref()
            .and_then(|p| p.get(pe % PE_PAGE_LEN))
        {
            Some(st) => st,
            None => &self.fallback,
        }
    }

    /// Mutable access; materializes the PE's page on first touch.
    pub(crate) fn get_mut(&mut self, pe: usize) -> &mut PeState {
        // panic-ok: an out-of-range PE id is a driver bug, not a runtime fault
        assert!(pe < self.len, "PE {pe} out of range ({} PEs)", self.len);
        let pi = pe / PE_PAGE_LEN;
        if self.pages[pi].is_none() {
            let base = pi * PE_PAGE_LEN;
            let used = PE_PAGE_LEN.min(self.len - base);
            let page: Vec<PeState> = (0..used)
                .map(|i| PeState::fresh(self.seed, (base + i) as u64))
                .collect();
            self.pages[pi] = Some(page.into_boxed_slice());
        }
        // panic-ok: page materialized just above
        &mut self.pages[pi].as_mut().unwrap()[pe % PE_PAGE_LEN]
    }

    /// Start loading `pe`'s state into the cache (every line of it): a
    /// hint for an event about to run. Computes the address from the
    /// page table and reads nothing else; an untouched PE materializes
    /// nothing and is not prefetched.
    #[inline]
    pub(crate) fn prefetch(&self, pe: usize) {
        let Some(Some(page)) = self.pages.get(pe / PE_PAGE_LEN) else {
            return;
        };
        let Some(st) = page.get(pe % PE_PAGE_LEN) else {
            return;
        };
        let at = std::ptr::from_ref(st).cast::<u8>();
        // Points at most 64 bytes apart, first to last byte, name every
        // cache line the state spans.
        const LAST: usize = std::mem::size_of::<PeState>() - 1;
        for off in (0..LAST).step_by(64) {
            sim_core::prefetch(at.wrapping_add(off));
        }
        sim_core::prefetch(at.wrapping_add(LAST));
    }

    /// Number of materialized pages (memory diagnostics).
    pub(crate) fn materialized_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Materialize everything and hand out the dense state vector (the
    /// parallel engine partitions PE state by ownership). The table is
    /// left empty; [`PeTable::restore_dense`] puts the states back.
    pub(crate) fn take_dense(&mut self) -> Vec<PeState> {
        let mut out = Vec::with_capacity(self.len);
        for pi in 0..self.pages.len() {
            let base = pi * PE_PAGE_LEN;
            let used = PE_PAGE_LEN.min(self.len - base);
            match self.pages[pi].take() {
                Some(page) => out.extend(page.into_vec()),
                None => out.extend((0..used).map(|i| PeState::fresh(self.seed, (base + i) as u64))),
            }
        }
        out
    }

    /// Re-adopt a dense state vector from [`PeTable::take_dense`]
    /// (everything stays materialized — the states carry live queues).
    pub(crate) fn restore_dense(&mut self, pes: Vec<PeState>) {
        // panic-ok: a short dense vector is a driver bug, not a runtime fault
        assert_eq!(pes.len(), self.len, "dense PE vector length mismatch");
        let mut it = pes.into_iter();
        for pi in 0..self.pages.len() {
            let base = pi * PE_PAGE_LEN;
            let used = PE_PAGE_LEN.min(self.len - base);
            let page: Vec<PeState> = it.by_ref().take(used).collect();
            self.pages[pi] = Some(page.into_boxed_slice());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_pes_materialize_nothing() {
        let t = PeTable::new(1_000_000, 7);
        assert_eq!(t.materialized_pages(), 0);
        // Shared reads see pristine state and allocate nothing.
        assert_eq!(t.get(999_999).busy_until, 0);
        assert!(t.get(0).cold().is_none());
        assert_eq!(t.materialized_pages(), 0);
    }

    #[test]
    fn prefetch_materializes_nothing() {
        let mut t = PeTable::new(1_000_000, 7);
        for pe in 0..1_000_000 {
            t.prefetch(pe);
        }
        assert_eq!(t.materialized_pages(), 0);
        t.get_mut(123_456).busy_until = 9;
        for pe in 0..1_000_000 {
            t.prefetch(pe);
        }
        assert_eq!(t.materialized_pages(), 1);
        assert_eq!(t.get(123_456).busy_until, 9);
    }

    #[test]
    fn first_touch_materializes_one_page() {
        let mut t = PeTable::new(10_000, 7);
        t.get_mut(4_000).busy_until = 55;
        assert_eq!(t.materialized_pages(), 1);
        assert_eq!(t.get(4_000).busy_until, 55);
        // Page neighbors are fresh, other pages stay cold.
        assert_eq!(t.get(4_001).busy_until, 0);
        assert_eq!(t.materialized_pages(), 1);
    }

    #[test]
    fn dense_round_trip_preserves_state() {
        let mut t = PeTable::new(130, 9);
        t.get_mut(7).busy_until = 70;
        t.get_mut(128).busy_until = 1280;
        let dense = t.take_dense();
        assert_eq!(dense.len(), 130);
        assert_eq!(dense[7].busy_until, 70);
        assert_eq!(dense[128].busy_until, 1280);
        assert_eq!(dense[64].busy_until, 0);
        t.restore_dense(dense);
        assert_eq!(t.get(7).busy_until, 70);
        assert_eq!(t.get(128).busy_until, 1280);
        assert_eq!(t.materialized_pages(), 130usize.div_ceil(PE_PAGE_LEN));
    }

    #[test]
    fn materialized_rng_matches_eager_derivation() {
        // The whole flyweight rests on fresh state being a pure function
        // of (seed, pe): the paged RNG must equal the eager one.
        let mut t = PeTable::new(256, 0xC0FFEE);
        let mut eager = sim_core::DetRng::derive(0xC0FFEE, 200);
        let lazy = t.get_mut(200).rng_mut();
        for _ in 0..16 {
            assert_eq!(lazy.next_u64(), eager.next_u64());
        }
    }
}
