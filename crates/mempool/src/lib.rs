//! The pre-registered memory pool of paper §IV-B.
//!
//! > "we can exploit the use of a memory pool aggressively by
//! > pre-allocating and registering a relatively large amount of memory,
//! > and explicitly managing it for CHARM++ messages. [...] Since the
//! > entire memory pool is pre-registered, there is no additional
//! > registration cost for each message. In the case when the memory pool
//! > overflows, it can be dynamically expanded."
//!
//! The pool is a power-of-two size-class allocator over registered slabs.
//! An allocation that hits a non-empty free list costs a few tens of
//! nanoseconds of virtual time; a miss expands the pool by one slab,
//! paying `T_malloc + T_register` once for many future messages. Blocks
//! returned by [`MemPool::alloc`] carry the slab's [`MemHandle`], so RDMA
//! can start immediately — this is exactly what removes `T_malloc` and
//! `T_register` from the paper's Equation 1.

use gemini_net::{Addr, GeminiParams, MemHandle, RegTable};
use sim_core::Time;

/// Smallest block the pool hands out.
pub(crate) const MIN_CLASS_SHIFT: u32 = 6; // 64 B
/// Largest pooled block; bigger requests fall back to direct registration.
pub(crate) const MAX_CLASS_SHIFT: u32 = 23; // 8 MiB

const NUM_CLASSES: usize = (MAX_CLASS_SHIFT - MIN_CLASS_SHIFT + 1) as usize;

/// A block handed out by the pool (or by the direct-registration fallback).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    pub addr: Addr,
    pub handle: MemHandle,
    /// Usable size of the block (the full size class).
    pub(crate) size: u64,
    /// Index of the size class, or `DIRECT` for fallback blocks.
    class: u32,
}

const DIRECT: u32 = u32::MAX;

/// Free blocks of one size class.
///
/// A freshly carved slab is *not* enumerated into a vector (a 256 KiB
/// slab of 64 B blocks would materialize 4096 addresses — 32 KiB of host
/// memory per pool, which at one pool per touched PE dominated the
/// simulator's footprint on huge sparse machines). Instead the slab is
/// kept as a lazy descending span and addresses are minted on `pop`.
/// The observable address sequence is bit-identical to the eager vector:
/// a slab used to be pushed ascending (so popped descending) and only
/// ever carved when the list was empty, meaning the stack was always
/// "returned blocks on top of the remaining slab suffix" — exactly what
/// `returned` + `span` encode.
///
/// Every entry carries its slab's registration handle, so a pop needs no
/// search for the slab a block came from.
#[derive(Debug, Default, Clone)]
struct FreeList {
    /// Blocks explicitly freed back to the pool (LIFO, popped first).
    returned: Vec<(Addr, MemHandle)>,
    span_base: u64,
    /// Blocks remaining in the current slab span. The next span block is
    /// `span_base + (span_left - 1) * block_size` (descending).
    span_left: u64,
    /// The handle of the slab the span is carved from.
    span_handle: MemHandle,
}

impl FreeList {
    fn is_empty(&self) -> bool {
        self.returned.is_empty() && self.span_left == 0
    }

    fn pop(&mut self, block_size: u64) -> Option<(Addr, MemHandle)> {
        if let Some(b) = self.returned.pop() {
            return Some(b);
        }
        if self.span_left == 0 {
            return None;
        }
        self.span_left -= 1;
        let addr = Addr(self.span_base + self.span_left * block_size);
        Some((addr, self.span_handle))
    }
}

impl Block {
    /// True when this block bypassed the pool (oversize request).
    pub(crate) fn is_direct(&self) -> bool {
        self.class == DIRECT
    }
}

/// Cost knobs of the pool itself (virtual ns).
#[derive(Debug, Clone)]
pub(crate) struct PoolCosts {
    /// Free-list hit: pop + header fixup.
    pub(crate) alloc_hit: Time,
    /// Returning a block to its free list.
    pub(crate) free: Time,
}

impl Default for PoolCosts {
    fn default() -> Self {
        PoolCosts {
            alloc_hit: 80,
            free: 60,
        }
    }
}

#[derive(Debug, Default, Clone)]
pub(crate) struct PoolStats {
    pub(crate) allocs: u64,
    pub(crate) frees: u64,
    pub(crate) expansions: u64,
    pub(crate) direct_allocs: u64,
    pub(crate) slab_bytes: u64,
}

/// The per-node message memory pool.
#[derive(Debug)]
pub struct MemPool {
    free: [FreeList; NUM_CLASSES],
    next_addr: u64,
    slab_min_bytes: u64,
    costs: PoolCosts,
    pub(crate) stats: PoolStats,
    #[cfg(debug_assertions)]
    outstanding: sim_core::DetHashSet<u64>,
}

impl MemPool {
    /// `addr_base` carves a private simulated address range for this pool;
    /// distinct pools on one node must use distinct bases.
    pub fn new(addr_base: u64) -> Self {
        Self::with_costs(addr_base, PoolCosts::default())
    }

    pub(crate) fn with_costs(addr_base: u64, costs: PoolCosts) -> Self {
        MemPool {
            free: std::array::from_fn(|_| FreeList::default()),
            next_addr: addr_base,
            slab_min_bytes: 256 * 1024,
            costs,
            stats: PoolStats::default(),
            #[cfg(debug_assertions)]
            outstanding: sim_core::DetHashSet::default(),
        }
    }

    /// Size class index for a request, or `None` when oversize.
    fn class_of(bytes: u64) -> Option<usize> {
        if bytes <= (1 << MIN_CLASS_SHIFT) {
            return Some(0);
        }
        let shift = 64 - (bytes - 1).leading_zeros();
        if shift > MAX_CLASS_SHIFT {
            None
        } else {
            Some((shift - MIN_CLASS_SHIFT) as usize)
        }
    }

    /// Rounded block size of a class.
    fn class_size(class: usize) -> u64 {
        1u64 << (class as u32 + MIN_CLASS_SHIFT)
    }

    /// Allocate a block of at least `bytes`. Returns the block and the
    /// virtual-time cost. Oversize requests fall back to direct
    /// malloc+register (and pay for it, like the unoptimized path).
    pub fn alloc(&mut self, p: &GeminiParams, reg: &mut RegTable, bytes: u64) -> (Block, Time) {
        self.stats.allocs += 1;
        let Some(class) = Self::class_of(bytes) else {
            // Oversize: direct registration, like the pre-pool design.
            self.stats.direct_allocs += 1;
            let addr = Addr(self.bump(bytes));
            let (handle, reg_cost) = reg.register(p, addr, bytes);
            let cost = p.malloc_cost(bytes) + reg_cost;
            return (
                Block {
                    addr,
                    handle,
                    size: bytes,
                    class: DIRECT,
                },
                cost,
            );
        };

        let mut cost = self.costs.alloc_hit;
        if self.free[class].is_empty() {
            cost += self.expand(p, reg, class);
        }
        let (addr, handle) = self.free[class]
            .pop(Self::class_size(class))
            .expect("expand filled the list");
        #[cfg(debug_assertions)]
        {
            assert!(self.outstanding.insert(addr.0), "double allocation");
        }
        (
            Block {
                addr,
                handle,
                size: Self::class_size(class),
                class: class as u32,
            },
            cost,
        )
    }

    /// Return a block. Direct blocks pay deregistration; pooled blocks are
    /// pushed back on their free list (no deregistration — the pool keeps
    /// memory pinned, which is the entire point).
    pub fn free(&mut self, p: &GeminiParams, reg: &mut RegTable, block: Block) -> Time {
        self.stats.frees += 1;
        if block.is_direct() {
            // Direct blocks are registered at alloc time, so deregistration
            // can only fail on a caller double-free; charge nothing then.
            return reg.deregister(p, block.handle).unwrap_or(0) + p.malloc_base;
        }
        #[cfg(debug_assertions)]
        {
            // panic-ok: a double free is a caller's bookkeeping bug, not a fault
            assert!(self.outstanding.remove(&block.addr.0), "double free");
        }
        let returned = &mut self.free[block.class as usize].returned;
        returned.push((block.addr, block.handle));
        self.costs.free
    }

    /// Grow one size class by a slab; returns the cost.
    fn expand(&mut self, p: &GeminiParams, reg: &mut RegTable, class: usize) -> Time {
        let block = Self::class_size(class);
        let slab = block.max(self.slab_min_bytes);
        let count = slab / block;
        let base = self.bump(slab);
        let (handle, reg_cost) = reg.register(p, Addr(base), slab);
        // The pre-span pool pushed all `count` addresses ascending here;
        // the span mints the same addresses in the same (descending) pop
        // order without materializing them.
        let list = &mut self.free[class];
        (list.span_base, list.span_left, list.span_handle) = (base, count, handle);
        self.stats.expansions += 1;
        self.stats.slab_bytes += slab;
        p.malloc_cost(slab) + reg_cost
    }

    fn bump(&mut self, bytes: u64) -> u64 {
        let a = self.next_addr;
        // Keep every slab page-aligned so slabs never share pages.
        let aligned = bytes.div_ceil(gemini_net::PAGE) * gemini_net::PAGE;
        self.next_addr += aligned.max(gemini_net::PAGE);
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (GeminiParams, RegTable, MemPool) {
        (
            GeminiParams::hopper(),
            RegTable::new(),
            MemPool::new(1 << 40),
        )
    }

    #[test]
    fn first_alloc_pays_expansion_second_is_cheap() {
        let (p, mut reg, mut pool) = setup();
        let (a, cost_a) = pool.alloc(&p, &mut reg, 4096);
        assert!(cost_a > p.register_cost(4096), "first alloc expands");
        pool.free(&p, &mut reg, a);
        let (_b, cost_b) = pool.alloc(&p, &mut reg, 4096);
        assert_eq!(cost_b, PoolCosts::default().alloc_hit);
        assert_eq!(pool.stats.expansions, 1);
    }

    #[test]
    fn block_is_large_enough_and_power_of_two() {
        let (p, mut reg, mut pool) = setup();
        for req in [1u64, 63, 64, 65, 1000, 4096, 100_000] {
            let (b, _) = pool.alloc(&p, &mut reg, req);
            assert!(b.size >= req, "req {req} got {}", b.size);
            assert!(b.size.is_power_of_two());
        }
    }

    #[test]
    fn pool_memory_stays_registered_after_free() {
        let (p, mut reg, mut pool) = setup();
        let (b, _) = pool.alloc(&p, &mut reg, 8192);
        let pinned = reg.registered_bytes();
        pool.free(&p, &mut reg, b);
        assert_eq!(reg.registered_bytes(), pinned, "free must not deregister");
        assert_eq!(reg.total_deregistrations, 0);
    }

    #[test]
    fn freed_block_is_reused() {
        let (p, mut reg, mut pool) = setup();
        let (a, _) = pool.alloc(&p, &mut reg, 1024);
        let addr = a.addr;
        pool.free(&p, &mut reg, a);
        let (b, _) = pool.alloc(&p, &mut reg, 1024);
        assert_eq!(b.addr, addr, "LIFO reuse of the freed block");
    }

    #[test]
    fn oversize_falls_back_to_direct_registration() {
        let (p, mut reg, mut pool) = setup();
        let big = (1u64 << MAX_CLASS_SHIFT) + 1;
        let (b, cost) = pool.alloc(&p, &mut reg, big);
        assert!(b.is_direct());
        assert!(cost >= p.register_cost(big));
        let regs = reg.total_registrations;
        let fcost = pool.free(&p, &mut reg, b);
        assert!(fcost >= p.deregister_cost(big));
        assert_eq!(reg.total_registrations, regs);
        assert_eq!(reg.total_deregistrations, 1);
        assert_eq!(pool.stats.direct_allocs, 1);
    }

    #[test]
    fn blocks_in_one_slab_share_a_handle() {
        let (p, mut reg, mut pool) = setup();
        let (a, _) = pool.alloc(&p, &mut reg, 1024);
        let (b, _) = pool.alloc(&p, &mut reg, 1024);
        assert_eq!(a.handle, b.handle);
        assert_ne!(a.addr, b.addr);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn double_free_panics_in_debug() {
        let (p, mut reg, mut pool) = setup();
        let (a, _) = pool.alloc(&p, &mut reg, 256);
        pool.free(&p, &mut reg, a);
        pool.free(&p, &mut reg, a);
    }

    #[test]
    fn many_allocations_amortize_registration() {
        // The paper's claim, in miniature: 1000 message allocations through
        // the pool must be far cheaper than 1000 malloc+register pairs.
        let (p, mut reg, mut pool) = setup();
        let bytes = 16 * 1024;
        let mut pool_cost: Time = 0;
        for _ in 0..1000 {
            let (b, c) = pool.alloc(&p, &mut reg, bytes);
            pool_cost += c;
            pool_cost += pool.free(&p, &mut reg, b);
        }
        let naive: Time = 1000 * (p.malloc_cost(bytes) + p.register_cost(bytes));
        assert!(
            pool_cost * 10 < naive,
            "pool {pool_cost}ns vs naive {naive}ns: amortization too weak"
        );
    }

    #[test]
    fn zero_byte_alloc_works() {
        let (p, mut reg, mut pool) = setup();
        let (b, _) = pool.alloc(&p, &mut reg, 0);
        assert_eq!(b.size, 64);
        pool.free(&p, &mut reg, b);
    }

    #[test]
    fn distinct_classes_expand_separately() {
        let (p, mut reg, mut pool) = setup();
        pool.alloc(&p, &mut reg, 100);
        pool.alloc(&p, &mut reg, 100_000);
        assert_eq!(pool.stats.expansions, 2);
        assert!(pool.stats.slab_bytes >= 2 * 256 * 1024 - 256 * 1024 / 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Live blocks never overlap, regardless of alloc/free interleaving.
        #[test]
        fn live_blocks_never_overlap(
            ops in proptest::collection::vec((1u64..300_000, any::<bool>()), 1..200)
        ) {
            let p = GeminiParams::hopper();
            let mut reg = RegTable::new();
            let mut pool = MemPool::new(1 << 40);
            let mut live: Vec<Block> = Vec::new();
            for (bytes, do_free) in ops {
                if do_free && !live.is_empty() {
                    let b = live.swap_remove((bytes % live.len() as u64) as usize);
                    pool.free(&p, &mut reg, b);
                } else {
                    let (b, _) = pool.alloc(&p, &mut reg, bytes);
                    live.push(b);
                }
                let mut spans: Vec<(u64, u64)> =
                    live.iter().map(|b| (b.addr.0, b.addr.0 + b.size)).collect();
                spans.sort_unstable();
                for w in spans.windows(2) {
                    prop_assert!(w[0].1 <= w[1].0, "overlap: {:?}", w);
                }
            }
        }

        /// Every block's handle is registered and covers the block, also
        /// when the block is a recycled one popped off a free list.
        #[test]
        fn handles_cover_blocks(
            ops in proptest::collection::vec((1u64..3_000_000, any::<bool>()), 1..120)
        ) {
            let p = GeminiParams::hopper();
            let mut reg = RegTable::new();
            let mut pool = MemPool::new(1 << 40);
            let mut live: Vec<Block> = Vec::new();
            for (s, do_free) in ops {
                if do_free && !live.is_empty() {
                    let b = live.swap_remove((s % live.len() as u64) as usize);
                    pool.free(&p, &mut reg, b);
                    continue;
                }
                // Small sizes too, so freed blocks of a class are reused.
                let bytes = if s % 3 == 0 { s } else { s % 20_000 + 1 };
                let (b, _) = pool.alloc(&p, &mut reg, bytes);
                prop_assert!(reg.is_registered(b.handle));
                let (base, len) = reg.lookup(b.handle).unwrap();
                prop_assert!(b.addr.0 >= base.0);
                prop_assert!(b.addr.0 + b.size <= base.0 + len);
                live.push(b);
            }
        }

        /// Dynamic expansion under registration pressure stays O(1) per
        /// operation: once a class has expanded, every later alloc that
        /// hits its free list costs exactly the constant `alloc_hit`, and
        /// every pooled free costs exactly the constant `free` — no matter
        /// how deep the churn. Counters and pinned bytes must balance at
        /// the end, and expansions stay bounded by the live-set peak.
        #[test]
        fn expansion_churn_stays_constant_time(
            ops in proptest::collection::vec((6u32..18, 0u64..4, any::<bool>()), 20..300)
        ) {
            let p = GeminiParams::hopper();
            let mut reg = RegTable::new();
            let mut pool = MemPool::new(1 << 40);
            let mut live: Vec<Block> = Vec::new();
            // Per-class live peak: a class only expands when every block it
            // ever carved is live, so expansions_c <= peak_live_c.
            let mut live_per_class: std::collections::BTreeMap<u64, u64> =
                std::collections::BTreeMap::new();
            let mut peak_per_class: std::collections::BTreeMap<u64, u64> =
                std::collections::BTreeMap::new();
            for (shift, pick, do_free) in ops {
                if do_free && !live.is_empty() {
                    let b = live.swap_remove((pick % live.len() as u64) as usize);
                    *live_per_class.get_mut(&b.size).unwrap() -= 1;
                    let c = pool.free(&p, &mut reg, b);
                    prop_assert_eq!(c, PoolCosts::default().free, "pooled free must be O(1)");
                } else {
                    let bytes = 1u64 << shift; // 64 B .. 128 KiB: always pooled
                    let expansions_before = pool.stats.expansions;
                    let (b, c) = pool.alloc(&p, &mut reg, bytes);
                    if pool.stats.expansions == expansions_before {
                        prop_assert_eq!(
                            c,
                            PoolCosts::default().alloc_hit,
                            "free-list hit must be O(1)"
                        );
                    }
                    let n = live_per_class.entry(b.size).or_insert(0);
                    *n += 1;
                    let pk = peak_per_class.entry(b.size).or_insert(0);
                    *pk = (*pk).max(*n);
                    live.push(b);
                }
            }
            // Drain: counters balance, nothing deregistered, memory pinned.
            for b in live.drain(..) {
                pool.free(&p, &mut reg, b);
            }
            prop_assert_eq!(pool.stats.allocs, pool.stats.frees);
            prop_assert_eq!(reg.total_deregistrations, 0, "pool must keep memory pinned");
            prop_assert!(reg.registered_bytes() >= pool.stats.slab_bytes);
            let bound: u64 = peak_per_class.values().sum();
            prop_assert!(
                pool.stats.expansions <= bound.max(1),
                "expansions {} outran summed per-class live peaks {}",
                pool.stats.expansions,
                bound
            );
        }

        /// alloc/free cycles leave counters balanced and expansion bounded.
        #[test]
        fn stats_balance(n in 1usize..100, bytes in 1u64..100_000) {
            let p = GeminiParams::hopper();
            let mut reg = RegTable::new();
            let mut pool = MemPool::new(1 << 40);
            for _ in 0..n {
                let (b, _) = pool.alloc(&p, &mut reg, bytes);
                pool.free(&p, &mut reg, b);
            }
            prop_assert_eq!(pool.stats.allocs, n as u64);
            prop_assert_eq!(pool.stats.frees, n as u64);
            prop_assert_eq!(pool.stats.expansions, 1);
        }
    }
}
