//! Helpers shared by the integration suites: the parallel-vs-sequential
//! comparisons, the machine-size suites' Hopper shape and RSS meter, and
//! the virtual-time pin table (`pins`).
#![allow(dead_code)] // each suite uses its own subset

pub mod pins;

use charm_rt::prelude::{ClusterCfg, RunReport};
use gemini_net::{FaultPlan, LinkDownWindow};

/// Hopper: 6,384 compute nodes, 24 cores each (paper §V: "Hopper ...
/// 153,216 cores").
pub const HOPPER_NODES: u32 = 6_384;
pub const HOPPER_CORES_PER_NODE: u32 = 24;
pub const HOPPER_PES: u32 = HOPPER_NODES * HOPPER_CORES_PER_NODE;

/// Peak RSS of the current process, bytes (`VmHWM`). 0 when unreadable.
/// A process-lifetime high-water mark: it covers every test the binary
/// has run so far, which is why a row that needs its own meter gets its
/// own test file.
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<u64>().ok())
        })
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// Parallel thread counts each case compares against the sequential run.
/// `CHARM_TEST_THREADS=N` (set by CI's matrix legs) narrows the sweep to
/// one count so the legs split the work instead of repeating it.
pub fn thread_counts() -> Vec<u32> {
    match std::env::var("CHARM_TEST_THREADS") {
        Ok(v) => vec![v.parse().expect("CHARM_TEST_THREADS must be a number")],
        Err(_) => vec![2, 4, 8],
    }
}

/// A `threads`-way cluster configuration that hands off every eligible
/// window: these suites run small configurations, and the point is to
/// exercise the worker path, not to run fast.
pub fn par_cfg(pes: u32, cores_per_node: u32, threads: u32) -> ClusterCfg {
    ClusterCfg {
        threads,
        handoff_min_events: 0,
        ..ClusterCfg::new(pes, cores_per_node)
    }
}

/// Run `f(1)` (the sequential engine) and `f(t)` per parallel thread
/// count, and hand each pair to the caller's comparator.
pub fn differential<R>(f: impl Fn(u32) -> R, check: impl Fn(&R, &R, u32)) {
    let seq = f(1);
    for t in thread_counts() {
        check(&seq, &f(t), t);
    }
}

pub fn assert_reports_eq(a: &RunReport, b: &RunReport, ctx: &str) {
    assert_eq!(a.end_time, b.end_time, "{ctx}: virtual end time drifted");
    assert_eq!(a.stats, b.stats, "{ctx}: event statistics drifted");
    assert_eq!(a.stopped_early, b.stopped_early, "{ctx}: stop flag drifted");
}

/// An active wire fault plan: drops, corrupted SMSGs, and a mid-run
/// link-down window (which degrades the lookahead and reroutes traffic).
pub fn plan() -> FaultPlan {
    let mut f = FaultPlan::uniform_drop(0xD1FF, 1e-3);
    f.smsg_corrupt = 1e-3;
    f.link_down.push(LinkDownWindow {
        node: 0,
        dim: 0,
        plus: true,
        from_ns: 100_000,
        until_ns: 400_000,
    });
    f
}
