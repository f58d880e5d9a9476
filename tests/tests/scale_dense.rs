//! The dense machine-size row: kNeighbor on every PE of the full Hopper
//! installation (6,384 nodes x 24 cores = 153,216 PEs), k = 1, one
//! 512-byte payload, two iterations — the paper's Fig. 10 exchange at the
//! machine's full width, where every flyweight table materializes and RSS
//! is live per-PE state (DESIGN.md §13). Every uGNI call of the run goes
//! through the contract checker, and its report must be clean.
//!
//! One test in its own file, so `VmHWM` is this row's alone: a test
//! binary is one process, and the high-water mark covers everything it
//! has run.

mod common;

use charm_apps::{kneighbor, LayerKind};
use charm_rt::cluster::ClusterCfg;
use common::{peak_rss_bytes, HOPPER_CORES_PER_NODE, HOPPER_PES};
use lrts_ugni::UgniLayer;

/// Peak-RSS budget for the row's process, bytes: far above the measured
/// peak, so it catches an O(num_pes) regression (which blows past any
/// constant factor), not allocator jitter.
const RSS_BUDGET: u64 = 2 * 1024 * 1024 * 1024;

#[test]
fn whole_hopper_kneighbor_holds_its_pin_and_rss_budget() {
    let cfg = ClusterCfg::new(HOPPER_PES, HOPPER_CORES_PER_NODE);
    let mut c = LayerKind::ugni().build(cfg);
    let (_, rep) = kneighbor::run_on(&mut c, 1, 512, 2);
    assert_eq!(
        rep.end_time, 41_484,
        "virtual end drifted on the 153,216-PE machine"
    );
    // The integration tests build lrts-ugni with `verify`: every uGNI call
    // of the whole machine went through the contract checker.
    let report = c
        .layer_mut::<UgniLayer>()
        .contract_report()
        .expect("lrts-ugni is built with `verify` here");
    assert!(report.is_clean(), "uGNI contract violations:\n{report}");
    let peak = peak_rss_bytes();
    assert!(
        peak <= RSS_BUDGET,
        "process peak RSS {peak} bytes exceeds budget {RSS_BUDGET}"
    );
}
