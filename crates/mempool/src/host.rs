//! Host-side allocation pooling for the simulator's own hot path.
//!
//! [`MemPool`](crate::MemPool) models the *simulated* registered memory
//! pool of paper §IV-B; this module is its host-side sibling: a free-list
//! recycler for the real allocations the discrete-event engine churns
//! through while executing a run — most visibly the per-handler outbox
//! vectors that carry every `Deliver`/`Cmd` a handler emits. At
//! Hopper-and-beyond PE counts the engine executes hundreds of millions
//! of handlers, and a malloc/free pair per handler is pure overhead the
//! allocator never amortizes.
//!
//! Pooling host objects has zero effect on simulated time: virtual-time
//! costs are charged by the cost model, never by wall-clock measurement
//! (`clippy.toml` keeps it that way), so recycling is invisible
//! to every pinned result.

/// Objects that can be scrubbed back to a reusable (empty) state while
/// keeping their backing allocation.
pub trait Reset {
    fn reset(&mut self);
}

impl<T> Reset for Vec<T> {
    fn reset(&mut self) {
        self.clear();
    }
}

/// Occupancy counters; cheap enough to keep always-on.
#[derive(Debug, Default, Clone)]
pub struct ObjPoolStats {
    /// `get` served from the free list.
    pub hits: u64,
    /// `get` that had to construct a fresh object.
    pub misses: u64,
    /// Objects dropped on `put` because the pool was at capacity.
    pub(crate) shed: u64,
}

/// A bounded free-list pool of host objects.
///
/// `get` pops a recycled object (or constructs a default), `put` scrubs
/// the object with [`Reset`] and retains it up to `cap` — beyond that the
/// object is dropped so a one-off burst cannot pin memory forever.
#[derive(Debug)]
pub struct ObjPool<T> {
    free: Vec<T>,
    cap: usize,
    pub stats: ObjPoolStats,
}

impl<T: Default + Reset> ObjPool<T> {
    /// An empty pool retaining at most `cap` idle objects.
    pub fn new(cap: usize) -> Self {
        ObjPool {
            free: Vec::new(),
            cap,
            stats: ObjPoolStats::default(),
        }
    }

    /// Take an object: recycled when available, freshly constructed
    /// otherwise. Recycled objects are already scrubbed.
    pub fn get(&mut self) -> T {
        match self.free.pop() {
            Some(t) => {
                self.stats.hits += 1;
                t
            }
            None => {
                self.stats.misses += 1;
                T::default()
            }
        }
    }

    /// Return an object to the pool (scrubbed here, so callers can hand
    /// back used objects as-is).
    pub fn put(&mut self, mut t: T) {
        if self.free.len() >= self.cap {
            self.stats.shed += 1;
            return;
        }
        t.reset();
        self.free.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_recycles_allocation() {
        let mut p: ObjPool<Vec<u64>> = ObjPool::new(4);
        let mut v = p.get();
        assert_eq!(p.stats.misses, 1);
        v.extend(0..100);
        let cap = v.capacity();
        p.put(v);
        let v2 = p.get();
        assert_eq!(p.stats.hits, 1);
        assert!(v2.is_empty(), "recycled object must be scrubbed");
        assert_eq!(v2.capacity(), cap, "recycled object keeps its allocation");
    }

    #[test]
    fn cap_bounds_retained_objects() {
        let mut p: ObjPool<Vec<u8>> = ObjPool::new(2);
        let (a, b, c) = (p.get(), p.get(), p.get());
        p.put(a);
        p.put(b);
        p.put(c);
        assert_eq!(p.free.len(), 2);
        assert_eq!(p.stats.shed, 1);
    }
}
