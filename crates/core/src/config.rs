//! Cluster-wide configuration and the parallel engine's barrier-wait
//! meter.

use sim_core::Time;
use std::cell::Cell;

thread_local! {
    /// Barrier-wait nanoseconds accumulated by parallel runs on this
    /// thread since the last [`take_sync_overhead_ns`].
    static SYNC_OVERHEAD: Cell<u64> = const { Cell::new(0) };
}

/// Drain this thread's accumulated parallel-sync overhead meter: the
/// nanoseconds runs since the last call spent waiting at pool barriers
/// (as opposed to executing events). Always 0 for sequential runs.
pub fn take_sync_overhead_ns() -> u64 {
    SYNC_OVERHEAD.with(|c| c.replace(0))
}

/// Credit one parallel run's barrier waits to this thread's meter.
pub(crate) fn add_sync_overhead_ns(ns: u64) {
    SYNC_OVERHEAD.with(|c| c.set(c.get().saturating_add(ns)));
}

/// Cluster-wide configuration.
#[derive(Debug, Clone)]
pub struct ClusterCfg {
    pub num_pes: u32,
    pub cores_per_node: u32,
    /// Timeline bucket width for Fig.-12-style profiles (None = totals only).
    pub trace_bucket: Option<Time>,
    /// Seed for all per-PE deterministic RNGs.
    pub seed: u64,
    /// Chaos knob: the fault plan active in the machine layer's fabric (the
    /// inert default injects nothing). Kept here so drivers and reports can
    /// see at the cluster level whether a run was a chaos run.
    pub fault: gemini_net::FaultPlan,
    /// Worker threads for [`crate::cluster::Cluster::run`]: 1 = sequential
    /// engine, N > 1 = conservative parallel execution over node
    /// partitions (bit-identical results — see DESIGN.md §10). The count
    /// is taken as given, even beyond `available_parallelism()`: the
    /// differential suites and the pinned shapes check virtual results at
    /// thread counts the host may not physically have. Default 1.
    pub threads: u32,
    /// Consecutive lookahead windows a worker may execute per barrier
    /// crossing (≥ 1). Workers publish a per-partition frontier once per
    /// window and bound themselves by the other partitions' frontiers
    /// plus the lookahead, so deeper batches amortize the barrier without
    /// changing any virtual timestamp (DESIGN.md §10). Default 4.
    pub batch_windows: u32,
    /// Minimum events queued across the window's ready partitions before
    /// the driver wakes the worker pool; smaller windows execute inline
    /// on the driver thread in the same canonical order (bit-identical,
    /// just cheaper than a barrier round-trip for a handful of events).
    /// Default 16; 0 hands off every eligible window (the determinism
    /// suites use this to keep the worker path exercised on tiny
    /// configurations).
    pub handoff_min_events: u32,
}

impl ClusterCfg {
    pub fn new(num_pes: u32, cores_per_node: u32) -> Self {
        ClusterCfg {
            num_pes,
            cores_per_node,
            trace_bucket: None,
            seed: 0xC0FFEE,
            fault: gemini_net::FaultPlan::default(),
            threads: 1,
            batch_windows: 4,
            handoff_min_events: 16,
        }
    }

    pub fn num_nodes(&self) -> u32 {
        self.num_pes.div_ceil(self.cores_per_node)
    }
}
