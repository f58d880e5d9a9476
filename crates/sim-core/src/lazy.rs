//! Lazily materialized per-PE / per-node / per-link storage: the one paged
//! first-touch table of the workspace (DESIGN.md §13).
//!
//! The machine model is sized to the whole torus (Hopper: 6,384 nodes and
//! 153,216 PEs; datacenter scenarios: millions of PEs), but any one run
//! usually touches a thin slice of it. A [`LazyVec`] keeps the *logical*
//! dense-vector semantics while allocating fixed-size pages on first
//! mutable touch, so an untouched entry costs one `Option` discriminant
//! amortized over its page. Used by the fabric's link, engine and
//! registration tables, the driver's per-PE state, the trace's pending
//! segments and the machine layers' per-PE arming state.
//!
//! Determinism: entry `i` is built by one constructor, `fresh(i)`, which
//! must be a pure function of `i`, so whether a page is built at
//! construction or on first touch is unobservable. Reads never allocate:
//! an untouched entry reads through `&self` as the shared `fresh(usize::MAX)`,
//! which for a constant constructor is simply the default. The eager twin
//! ([`LazyVec::eager`]) exists for differential comparison (the
//! `lazy_matches_eager` proptest in `gemini-net`'s `fabric.rs`).

use std::ops::Range;

/// Entries per page unless a table says otherwise. Pages are the
/// allocation unit: big enough to amortize the `Box` header, small enough
/// that a sparse traffic pattern touching a handful of nodes stays within
/// a few pages.
pub(crate) const PAGE_LEN: usize = 1024;

/// A fixed-length vector built entry by entry from `fresh(i)`, allocated
/// in pages on first mutable touch. `PAGE` is the entries-per-page grain:
/// the default suits per-node tables with clustered access; tables with
/// *scattered* access (a sparse job touching a handful of PEs per page)
/// want a much smaller grain, or one touched entry drags in a thousand
/// dead neighbors. Every page holds exactly the entries it covers, so the
/// last one may be short.
pub struct LazyVec<T, const PAGE: usize = PAGE_LEN> {
    pages: Vec<Option<Box<[T]>>>,
    len: usize,
    /// `fresh(i)`, handed the fallback too: a constant table clones it,
    /// so its box captures nothing and allocates nothing.
    fresh: Box<Fresh<T>>,
    /// `fresh(usize::MAX)`: what `&self` reads of untouched entries see.
    fallback: T,
}

type Fresh<T> = dyn Fn(usize, &T) -> T + Send + Sync;

impl<T: Clone, const PAGE: usize> LazyVec<T, PAGE> {
    /// Every entry starts as `default`.
    pub fn new(len: usize, default: T) -> Self {
        Self::build(len, default, Box::new(|_, d: &T| d.clone()))
    }
}

impl<T, const PAGE: usize> LazyVec<T, PAGE> {
    /// Entry `i` starts as `fresh(i)`.
    pub fn with(len: usize, fresh: impl Fn(usize) -> T + Send + Sync + 'static) -> Self {
        Self::build(len, fresh(usize::MAX), Box::new(move |i, _| fresh(i)))
    }

    fn build(len: usize, fallback: T, fresh: Box<Fresh<T>>) -> Self {
        let mut pages = Vec::new();
        pages.resize_with(len.div_ceil(PAGE), || None);
        LazyVec {
            pages,
            len,
            fresh,
            fallback,
        }
    }

    /// Eager twin: every page materialized now. Same observable behavior;
    /// exists so tests can compare the two.
    pub fn eager(mut self) -> Self {
        for pi in 0..self.pages.len() {
            self.pages[pi] = Some(Self::page(&*self.fresh, &self.fallback, self.len, pi));
        }
        self
    }

    /// The indices page `page` of a `len`-entry table covers.
    fn span(len: usize, page: usize) -> Range<usize> {
        page * PAGE..len.min((page + 1) * PAGE)
    }

    /// Build page `page`. Out of line and cold, so that the accessors
    /// inlined into every hot loop stay a bounds check and a load.
    #[cold]
    #[inline(never)]
    fn page(fresh: &Fresh<T>, fallback: &T, len: usize, page: usize) -> Box<[T]> {
        Self::span(len, page).map(|i| fresh(i, fallback)).collect()
    }

    #[inline]
    fn check(&self, i: usize) {
        // panic-ok: an out-of-range index is the caller's bug, not a runtime fault
        assert!(i < self.len, "index {i} out of {} entries", self.len);
    }

    /// Read without materializing: an untouched entry is the fallback.
    #[inline]
    pub fn get(&self, i: usize) -> &T {
        self.check(i);
        match &self.pages[i / PAGE] {
            Some(p) => &p[i % PAGE],
            None => &self.fallback,
        }
    }

    /// Write access; materializes the containing page.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        self.check(i);
        let (pi, len, fresh, fallback) = (i / PAGE, self.len, &self.fresh, &self.fallback);
        let page = self.pages[pi].get_or_insert_with(|| Self::page(&**fresh, fallback, len, pi));
        &mut page[i % PAGE]
    }

    /// Start loading entry `i` into the cache (every line of it): a hint
    /// for an entry about to be used. Computes the address from the page
    /// table and reads nothing else; an untouched page is not prefetched.
    #[inline]
    pub fn prefetch(&self, i: usize) {
        let Some(Some(page)) = self.pages.get(i / PAGE) else {
            return;
        };
        let Some(entry) = page.get(i % PAGE) else {
            return;
        };
        let at = std::ptr::from_ref(entry).cast::<u8>();
        // Points at most 64 bytes apart, first to last byte, name every
        // cache line the entry spans; a zero-sized entry names none.
        let size = std::mem::size_of::<T>();
        for off in (0..size).step_by(64).chain(size.checked_sub(1)) {
            crate::prefetch(at.wrapping_add(off));
        }
    }

    /// Materialized pages as `(start_index, entries)`, in index order.
    /// Untouched pages hold only fresh entries, so aggregations whose
    /// identity element is a constant default (sums of 0, maxes over
    /// 0-floored values) can skip them without changing the result.
    pub fn iter_pages(&self) -> impl Iterator<Item = (usize, &[T])> {
        let used = self.pages.iter().enumerate();
        used.filter_map(|(pi, p)| p.as_deref().map(|s| (pi * PAGE, s)))
    }

    /// How many pages have been materialized (diagnostics / memory tests).
    pub fn materialized_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Materialize everything and hand out the dense vector (the parallel
    /// engine partitions PE state by ownership). The table is left empty;
    /// [`LazyVec::restore_dense`] puts the entries back.
    pub fn take_dense(&mut self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len);
        for pi in 0..self.pages.len() {
            match self.pages[pi].take() {
                Some(page) => out.extend(page.into_vec()),
                None => {
                    out.extend(Self::span(self.len, pi).map(|i| (self.fresh)(i, &self.fallback)))
                }
            }
        }
        out
    }

    /// Re-adopt a dense vector from [`LazyVec::take_dense`] (everything
    /// stays materialized: the entries may carry live state).
    pub fn restore_dense(&mut self, dense: Vec<T>) {
        // panic-ok: a dense vector of another length is the caller's bug
        assert_eq!(dense.len(), self.len, "dense vector length mismatch");
        let mut it = dense.into_iter();
        for pi in 0..self.pages.len() {
            self.pages[pi] = Some(it.by_ref().take(Self::span(self.len, pi).len()).collect());
        }
    }
}

impl<T, const PAGE: usize> std::fmt::Debug for LazyVec<T, PAGE> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazyVec")
            .field("len", &self.len)
            .field("pages", &self.pages.len())
            .field("materialized", &self.materialized_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// The index-dependent constructor both the table and its model use.
    fn fresh(i: usize) -> u64 {
        (i as u64).wrapping_mul(7).wrapping_add(3)
    }

    /// Apply `ops` — `(kind, index, value)`: 0 `get`, 1 `get_mut` write,
    /// 2 `prefetch`, 3 a `take_dense` → `restore_dense` round trip — to a
    /// lazy table, its eager twin and an eager `Vec` model, checking after
    /// every step that the table matches the model and has materialized
    /// exactly the pages written to.
    fn matches_model<const PAGE: usize>(
        len: usize,
        ops: &[(u8, usize, u64)],
    ) -> Result<(), TestCaseError> {
        let mut lazy: LazyVec<u64, PAGE> = LazyVec::with(len, fresh);
        let mut eager: LazyVec<u64, PAGE> = LazyVec::with(len, fresh).eager();
        let mut model: Vec<u64> = (0..len).map(fresh).collect();
        let mut touched = vec![false; len.div_ceil(PAGE)];
        // What a read of entry `i` must see: the model once its page is
        // materialized, the shared fallback before.
        let seen = |model: &[u64], touched: &[bool], i: usize| {
            if touched[i / PAGE] {
                model[i]
            } else {
                fresh(usize::MAX)
            }
        };
        for &(kind, raw, val) in ops {
            let pages = lazy.materialized_pages();
            match kind {
                0 if len > 0 => {
                    let i = raw % len;
                    prop_assert_eq!(*lazy.get(i), seen(&model, &touched, i));
                    prop_assert_eq!(lazy.materialized_pages(), pages, "get materialized");
                }
                1 if len > 0 => {
                    let i = raw % len;
                    *lazy.get_mut(i) = val;
                    *eager.get_mut(i) = val;
                    model[i] = val;
                    touched[i / PAGE] = true;
                }
                2 => {
                    // Past the end too: the short last page's tail.
                    lazy.prefetch(raw % (len + PAGE));
                    prop_assert_eq!(lazy.materialized_pages(), pages, "prefetch materialized");
                }
                3 => {
                    let dense = lazy.take_dense();
                    prop_assert_eq!(&dense, &model);
                    prop_assert_eq!(lazy.materialized_pages(), 0);
                    lazy.restore_dense(dense);
                    touched.fill(true);
                }
                _ => {}
            }
            let want = touched.iter().filter(|&&t| t).count();
            prop_assert_eq!(lazy.materialized_pages(), want);
        }
        for i in 0..len {
            prop_assert_eq!(*lazy.get(i), seen(&model, &touched, i), "index {}", i);
            prop_assert_eq!(*eager.get(i), model[i], "eager twin, index {}", i);
        }
        let mut starts = Vec::new();
        for (start, entries) in lazy.iter_pages() {
            prop_assert_eq!(entries, &model[start..len.min(start + PAGE)]);
            starts.push(start / PAGE);
        }
        let want: Vec<usize> = (0..touched.len()).filter(|&p| touched[p]).collect();
        prop_assert_eq!(starts, want);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn lazy_vec_matches_an_eager_model(
            len in 0usize..300,
            ops in proptest::collection::vec((0u8..4, any::<usize>(), any::<u64>()), 0..80),
        ) {
            // The empty table, whatever `len` was drawn.
            matches_model::<16>(0, &ops)?;
            matches_model::<1>(len, &ops)?;
            matches_model::<16>(len, &ops)?;
            matches_model::<64>(len, &ops)?;
        }
    }

    #[test]
    fn reads_never_materialize() {
        let v: LazyVec<u64> = LazyVec::new(10 * PAGE_LEN, 7);
        for i in [0, PAGE_LEN, 5 * PAGE_LEN + 3, 10 * PAGE_LEN - 1] {
            assert_eq!(*v.get(i), 7);
        }
        assert_eq!(v.materialized_pages(), 0);
    }

    #[test]
    fn writes_materialize_only_their_page() {
        let mut v: LazyVec<u64> = LazyVec::new(10 * PAGE_LEN, 0);
        *v.get_mut(3 * PAGE_LEN + 5) = 42;
        assert_eq!(v.materialized_pages(), 1);
        assert_eq!(*v.get(3 * PAGE_LEN + 5), 42);
        assert_eq!(*v.get(3 * PAGE_LEN + 4), 0);
    }

    #[test]
    fn lazy_and_eager_agree_pointwise() {
        let mut a: LazyVec<u32> = LazyVec::new(2500, 9);
        let mut b: LazyVec<u32> = LazyVec::new(2500, 9).eager();
        for (i, val) in [(0usize, 1u32), (700, 2), (7, 4)] {
            *a.get_mut(i) = val;
            *b.get_mut(i) = val;
        }
        for i in 0..2500 {
            assert_eq!(a.get(i), b.get(i), "index {i}");
        }
        assert!(a.materialized_pages() < b.materialized_pages());
    }

    #[test]
    fn iter_pages_covers_partial_tail() {
        let mut v: LazyVec<u64> = LazyVec::new(PAGE_LEN + 10, 0);
        *v.get_mut(PAGE_LEN + 9) = 5;
        let pages: Vec<(usize, usize)> = v.iter_pages().map(|(s, p)| (s, p.len())).collect();
        assert_eq!(pages, vec![(PAGE_LEN, 10)]);
        let total: u64 = v.iter_pages().flat_map(|(_, p)| p.iter().copied()).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn slab_fallback_is_pristine_default() {
        // A constructor needs no `Clone`: each entry is built, not copied.
        #[derive(Default)]
        struct Counter {
            n: u64,
        }
        let mut s: LazyVec<Counter, 64> = LazyVec::with(1000, |_| Counter::default());
        assert_eq!(s.get(999).n, 0);
        assert_eq!(s.materialized_pages(), 0);
        s.get_mut(999).n = 3;
        assert_eq!(s.get(999).n, 3);
        assert_eq!(s.get(998).n, 0);
        assert_eq!(s.materialized_pages(), 1);
    }

    #[test]
    fn indices_past_the_end_panic() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // 10 entries in a 16-entry page: index 10 is inside the page.
        let mut v: LazyVec<u64, 16> = LazyVec::new(10, 0);
        for materialized in [false, true] {
            if materialized {
                *v.get_mut(9) = 1;
            }
            assert!(catch_unwind(AssertUnwindSafe(|| *v.get(10))).is_err());
            assert!(catch_unwind(AssertUnwindSafe(|| *v.get_mut(10) = 5)).is_err());
        }
        assert_eq!(v.materialized_pages(), 1);
    }
}
