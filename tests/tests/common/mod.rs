//! Helpers shared by the suites that compare the parallel engine against
//! the sequential one.
#![allow(dead_code)] // each suite uses its own subset

use charm_rt::prelude::{ClusterCfg, RunReport};
use gemini_net::{FaultPlan, LinkDownWindow};

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
