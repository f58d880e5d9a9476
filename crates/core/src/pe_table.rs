//! Lazily materialized per-PE scheduler state (DESIGN.md §13).
//!
//! A whole-machine job at Hopper scale (153,216 PEs) or beyond must not
//! pay O(num_pes) heap structures at construction: the driver's per-PE
//! [`PeState`] — scheduler queue, parked machine events, deterministic
//! RNG — lives in a [`LazyVec`] paged at [`PE_PAGE_LEN`]
//! PEs, built page by page the first time a PE is actually touched.
//! Reads through `&self` of an untouched PE see the table's shared
//! fallback, `PeState::fresh(seed, u64::MAX)`: field for field a fresh
//! state except for the (private, never read through `&self`) RNG
//! stream, whose sentinel index makes accidental use loud in
//! differential runs. The same idea applies once more inside a state:
//! what only chare arrays, AM aggregation, persistent channels and fault
//! tolerance use (`PeCold`, kernel.rs) sits behind an `Option<Box<_>>`
//! that stays `None` until one of them touches the PE, so a page is
//! 16 × 160 B = 2.5 KiB.
//!
//! Correctness hinges on materialization being *pure*: a fresh
//! [`PeState`] is a function of `(seed, pe)` only (the RNG is
//! `DetRng::derive(seed, pe)`, every container starts empty), so whether
//! a PE is materialized at construction or on first touch is
//! unobservable, which is what keeps every pinned virtual time
//! bit-identical.

use crate::kernel::PeState;
use sim_core::LazyVec;

/// PEs per lazily materialized page: small enough that a sparse job
/// touching scattered PEs does not materialize large dead spans around
/// each.
pub const PE_PAGE_LEN: usize = 16;

/// Paged flyweight table of per-PE driver state.
pub(crate) type PeTable = LazyVec<PeState, PE_PAGE_LEN>;

/// The table for `num_pes` PEs of a job seeded with `seed`; nothing is
/// materialized yet.
pub(crate) fn new(num_pes: u32, seed: u64) -> PeTable {
    LazyVec::with(num_pes as usize, move |pe| PeState::fresh(seed, pe as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_pes_materialize_nothing() {
        let t = new(1_000_000, 7);
        assert_eq!(t.materialized_pages(), 0);
        // Shared reads see pristine state and allocate nothing.
        assert_eq!(t.get(999_999).busy_until, 0);
        assert!(t.get(0).cold().is_none());
        assert_eq!(t.materialized_pages(), 0);
    }

    #[test]
    fn prefetch_materializes_nothing() {
        let mut t = new(1_000_000, 7);
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
        let mut t = new(10_000, 7);
        t.get_mut(4_000).busy_until = 55;
        assert_eq!(t.materialized_pages(), 1);
        assert_eq!(t.get(4_000).busy_until, 55);
        // Page neighbors are fresh, other pages stay cold.
        assert_eq!(t.get(4_001).busy_until, 0);
        assert_eq!(t.materialized_pages(), 1);
    }

    #[test]
    fn dense_round_trip_preserves_state() {
        let mut t = new(130, 9);
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
        let mut t = new(256, 0xC0FFEE);
        let mut eager = sim_core::DetRng::derive(0xC0FFEE, 200);
        let lazy = t.get_mut(200).rng_mut();
        for _ in 0..16 {
            assert_eq!(lazy.next_u64(), eager.next_u64());
        }
    }
}
