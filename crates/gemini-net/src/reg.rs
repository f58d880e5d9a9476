//! Memory registration model (paper §II-B, §IV).
//!
//! Gemini requires memory to be registered with the NIC before any RDMA can
//! touch it, and the paper's central optimization (the memory pool) exists
//! precisely because `GNI_MemRegister` is expensive. This module models the
//! per-node registration table plus a uDREG-style registration *cache* used
//! by the MPI baseline (paper §IV-B cites MPI's uDREG cache [17]).

use crate::params::GeminiParams;
use serde::{Deserialize, Serialize};
use sim_core::{DetHashMap, Time};
use std::collections::BTreeMap;

/// Opaque simulated memory address: identifies a buffer for registration
/// caching. Buffers allocated at different times get distinct addresses
/// unless the allocator deliberately reuses one (as the memory pool does).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Addr(pub u64);

/// Handle returned by a successful registration.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct MemHandle(pub u64);

/// Deregistration failure: the handle is not (or no longer) registered.
/// Real `GNI_MemDeregister` returns `GNI_RC_INVALID_PARAM` here; callers
/// decide whether that is a recoverable condition or a protocol bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeregError {
    pub(crate) handle: MemHandle,
}

/// A node's registration table.
#[derive(Debug, Default, PartialEq)]
pub struct RegTable {
    next: u64,
    regions: DetHashMap<MemHandle, (Addr, u64)>,
    registered_bytes: u64,
    /// Lifetime counters for diagnostics / assertions in tests.
    pub total_registrations: u64,
    pub total_deregistrations: u64,
}

impl RegTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `bytes` at `addr`; returns the handle and the CPU cost.
    pub fn register(&mut self, p: &GeminiParams, addr: Addr, bytes: u64) -> (MemHandle, Time) {
        let h = MemHandle(self.next);
        self.next += 1;
        self.regions.insert(h, (addr, bytes));
        self.registered_bytes += bytes;
        self.total_registrations += 1;
        (h, p.register_cost(bytes))
    }

    /// Deregister; returns the CPU cost. An unknown (e.g. already
    /// deregistered) handle is reported as a typed error, mirroring
    /// `GNI_RC_INVALID_PARAM` — not a process abort.
    pub fn deregister(&mut self, p: &GeminiParams, h: MemHandle) -> Result<Time, DeregError> {
        let (_, bytes) = self.regions.remove(&h).ok_or(DeregError { handle: h })?;
        self.registered_bytes -= bytes;
        self.total_deregistrations += 1;
        Ok(p.deregister_cost(bytes))
    }

    /// Is this handle currently registered? RDMA against an unregistered
    /// handle is a protocol error the fabric checks.
    pub fn is_registered(&self, h: MemHandle) -> bool {
        self.regions.contains_key(&h)
    }

    /// Bytes currently pinned.
    pub fn registered_bytes(&self) -> u64 {
        self.registered_bytes
    }

    pub fn lookup(&self, h: MemHandle) -> Option<(Addr, u64)> {
        self.regions.get(&h).copied()
    }
}

/// uDREG-style registration cache: keyed by `(addr, len)`. A hit costs a
/// small lookup; a miss pays full registration and may evict (paying
/// deregistration) when over capacity. This is what makes the MPI
/// rendezvous fast when the application reuses the *same* buffer and slow
/// when every send uses a fresh one — the effect behind the two MPI curves
/// in the paper's Fig. 9(a).
#[derive(Debug)]
pub struct RegCache {
    /// Keyed `(addr, len)`. A `BTreeMap` (not `HashMap`): any iteration
    /// over the keys must be deterministic for bit-for-bit replay
    /// (enforced workspace-wide by `clippy.toml`).
    entries: BTreeMap<(Addr, u64), MemHandle>,
    lru: Vec<(Addr, u64)>,
    capacity: usize,
    pub(crate) lookup_cost: Time,
    pub hits: u64,
    pub(crate) misses: u64,
}

impl RegCache {
    pub fn new(capacity: usize, lookup_cost: Time) -> Self {
        RegCache {
            entries: BTreeMap::new(),
            lru: Vec::new(),
            capacity: capacity.max(1),
            lookup_cost,
            hits: 0,
            misses: 0,
        }
    }

    /// Get a registration for `(addr, bytes)`, registering through `table`
    /// on miss. Returns `(handle, cpu_cost)`.
    pub fn acquire(
        &mut self,
        p: &GeminiParams,
        table: &mut RegTable,
        addr: Addr,
        bytes: u64,
    ) -> (MemHandle, Time) {
        let key = (addr, bytes);
        if let Some(&h) = self.entries.get(&key) {
            self.hits += 1;
            // refresh LRU position
            if let Some(pos) = self.lru.iter().position(|k| *k == key) {
                self.lru.remove(pos);
            }
            self.lru.push(key);
            return (h, self.lookup_cost);
        }
        self.misses += 1;
        let mut cost = self.lookup_cost;
        if self.entries.len() >= self.capacity {
            let victim = self.lru.remove(0);
            let vh = self.entries.remove(&victim).expect("lru desync");
            // The cache owns its entries, so the victim is registered by
            // construction; a stale handle just costs nothing extra.
            cost += table.deregister(p, vh).unwrap_or(0);
        }
        let (h, reg_cost) = table.register(p, addr, bytes);
        cost += reg_cost;
        self.entries.insert(key, h);
        self.lru.push(key);
        (h, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> GeminiParams {
        GeminiParams::hopper()
    }

    #[test]
    fn register_then_deregister_balances() {
        let p = p();
        let mut t = RegTable::new();
        let (h, c1) = t.register(&p, Addr(1), 8192);
        assert!(t.is_registered(h));
        assert_eq!(t.registered_bytes(), 8192);
        assert_eq!(c1, p.register_cost(8192));
        let c2 = t.deregister(&p, h).unwrap();
        assert_eq!(c2, p.deregister_cost(8192));
        assert!(!t.is_registered(h));
        assert_eq!(t.registered_bytes(), 0);
    }

    #[test]
    fn double_deregister_is_reported_not_fatal() {
        let p = p();
        let mut t = RegTable::new();
        let (h, _) = t.register(&p, Addr(1), 100);
        assert!(t.deregister(&p, h).is_ok());
        // Second deregister of the same handle: typed error, no abort, and
        // the table's books stay balanced.
        assert_eq!(t.deregister(&p, h), Err(DeregError { handle: h }));
        assert_eq!(t.registered_bytes(), 0);
        assert_eq!(t.total_deregistrations, 1);
        // The table keeps working afterwards.
        let (h2, _) = t.register(&p, Addr(2), 100);
        assert!(t.deregister(&p, h2).is_ok());
    }

    #[test]
    fn cache_hit_is_cheap() {
        let p = p();
        let mut t = RegTable::new();
        let mut c = RegCache::new(16, 50);
        let (h1, cost1) = c.acquire(&p, &mut t, Addr(7), 65536);
        assert!(cost1 > p.register_cost(65536) / 2, "miss pays registration");
        let (h2, cost2) = c.acquire(&p, &mut t, Addr(7), 65536);
        assert_eq!(h1, h2);
        assert_eq!(cost2, 50, "hit pays only the lookup");
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
        assert_eq!(t.total_registrations, 1);
    }

    #[test]
    fn distinct_buffers_miss() {
        let p = p();
        let mut t = RegTable::new();
        let mut c = RegCache::new(16, 50);
        for i in 0..10 {
            c.acquire(&p, &mut t, Addr(i), 4096);
        }
        assert_eq!(c.misses, 10);
        assert_eq!(c.hits, 0);
    }

    #[test]
    fn eviction_deregisters_lru_victim() {
        let p = p();
        let mut t = RegTable::new();
        let mut c = RegCache::new(2, 0);
        c.acquire(&p, &mut t, Addr(1), 4096);
        c.acquire(&p, &mut t, Addr(2), 4096);
        // Touch 1 so 2 becomes LRU.
        c.acquire(&p, &mut t, Addr(1), 4096);
        c.acquire(&p, &mut t, Addr(3), 4096);
        assert_eq!(t.total_deregistrations, 1);
        // Addr(2) was evicted: re-acquiring misses.
        let before = c.misses;
        c.acquire(&p, &mut t, Addr(2), 4096);
        assert_eq!(c.misses, before + 1);
    }

    #[test]
    fn eviction_order_is_least_recently_used_first() {
        // 3 x capacity acquires, every third followed by a hit on the
        // second-oldest entry: the victims, read off the registration
        // table, must come out in exactly LRU order.
        let p = p();
        let mut t = RegTable::new();
        const CAP: u64 = 4;
        let mut c = RegCache::new(CAP as usize, 0);
        let mut handle_of = std::collections::BTreeMap::new();
        let mut model: Vec<u64> = Vec::new(); // LRU first
        let mut evicted = Vec::new();
        for i in 0..3 * CAP {
            let (h, _) = c.acquire(&p, &mut t, Addr(i), 4096);
            handle_of.insert(i, h);
            if model.len() as u64 == CAP {
                evicted.push(model.remove(0));
            }
            model.push(i);
            if i % 3 == 2 {
                // Touch the second-oldest: it becomes the youngest.
                let touched = model.remove(1);
                let (h, cost) = c.acquire(&p, &mut t, Addr(touched), 4096);
                assert_eq!((h, cost), (handle_of[&touched], 0), "hit keeps the handle");
                model.push(touched);
            }
        }
        assert_eq!(evicted, [0, 2, 1, 4, 5, 3, 7, 8]);
        assert_eq!(model, [6, 10, 11, 9]);
        for i in 0..3 * CAP {
            assert_eq!(
                t.is_registered(handle_of[&i]),
                model.contains(&i),
                "buffer {i}: evicted <=> deregistered"
            );
        }
        assert_eq!(t.total_deregistrations, evicted.len() as u64);
    }
}
