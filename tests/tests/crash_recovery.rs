//! Crash-recovery acceptance: a node dies mid-run (and maybe restarts),
//! the heartbeat detector declares it, buddy checkpoints restore it, and
//! the application finishes with *bitwise-identical results* to the
//! fault-free run — recovery may cost virtual time, never correctness.
//! Every crash run must also be bit-replayable, and the parallel driver
//! must agree with the sequential engine to the bit.

use charm_apps::jacobi2d::{run_jacobi, run_jacobi_ft, JacobiConfig, JacobiResult};
use charm_apps::pingpong::run_pingpong_ft;
use charm_apps::LayerKind;
use charm_rt::prelude::{set_default_handoff_min_events, set_default_threads, FtConfig, FtReport};
use gemini_net::{FaultPlan, LinkDownWindow, NodeCrashWindow};

/// One node-1 crash at 80us. `restart_after` picks between restart-in-
/// place and gone-for-good (redistribute) recovery.
fn crash_plan(restart_after: Option<sim_core::Time>) -> FaultPlan {
    let mut plan = FaultPlan::default();
    plan.node_crash.push(NodeCrashWindow {
        node: 1,
        at_ns: 80_000,
        restart_after_ns: restart_after,
    });
    plan
}

/// Detector sized for this machine: jacobi saturates PEs in ~30us bursts
/// and the layer's first-touch pool registration stalls each PE ~22us
/// once, so the suspicion timeout must sit well above both.
fn ft_config() -> FtConfig {
    FtConfig {
        hb_period: 20_000,
        hb_timeout: 150_000,
        ckpt_period: 60_000,
        ..FtConfig::default()
    }
}

fn jacobi_cfg() -> JacobiConfig {
    JacobiConfig {
        n: 24,
        blocks: 4,
        iters: 20,
    }
}

fn crashed_jacobi(restart_after: Option<sim_core::Time>) -> (JacobiResult, FtReport) {
    let layer = LayerKind::ugni().with_fault(crash_plan(restart_after));
    run_jacobi_ft(&layer, 8, 4, &jacobi_cfg(), ft_config())
}

#[test]
fn jacobi_crash_restart_matches_fault_free() {
    let clean = run_jacobi(&LayerKind::ugni(), 8, 4, &jacobi_cfg());
    let (r, ft) = crashed_jacobi(Some(40_000));
    assert_eq!(ft.recoveries, 1, "the crash was never recovered");
    assert_eq!(ft.epoch, 1);
    assert!(ft.ckpts >= 1, "no checkpoint wave completed");
    assert_eq!(r.iterations_run, 20);
    assert_eq!(r.grid, clean.grid, "recovery perturbed the arithmetic");
    assert_eq!(r.residual.to_bits(), clean.residual.to_bits());
    assert!(
        r.time_ns > clean.time_ns,
        "rollback-replay cost no virtual time? {} vs {}",
        r.time_ns,
        clean.time_ns
    );
}

#[test]
fn jacobi_crash_redistribute_matches_fault_free() {
    // Gone for good: node 1's blocks fold onto the buddies holding their
    // checkpoint copies, and the shrunken membership still finishes with
    // the exact fault-free grid.
    let clean = run_jacobi(&LayerKind::ugni(), 8, 4, &jacobi_cfg());
    let (r, ft) = crashed_jacobi(None);
    assert_eq!(ft.recoveries, 1);
    assert_eq!(r.iterations_run, 20);
    assert_eq!(r.grid, clean.grid, "redistribute perturbed the arithmetic");
    assert_eq!(r.residual.to_bits(), clean.residual.to_bits());
}

#[test]
fn crash_runs_are_bit_replayable() {
    // Same plan, same config, run twice: every virtual timestamp and
    // counter must repeat exactly — crash recovery is deterministic.
    for restart in [Some(40_000), None] {
        let (a, fa) = crashed_jacobi(restart);
        let (b, fb) = crashed_jacobi(restart);
        assert_eq!(a.time_ns, b.time_ns, "restart={restart:?}");
        assert_eq!(a.events, b.events, "restart={restart:?}");
        assert_eq!(a.grid, b.grid, "restart={restart:?}");
        assert_eq!((fa.ckpts, fa.recoveries), (fb.ckpts, fb.recoveries));
    }
}

/// Thread counts for the parallel leg; `CHARM_TEST_THREADS=N` (CI's
/// matrix legs) narrows the sweep to one count.
fn thread_counts() -> Vec<u32> {
    match std::env::var("CHARM_TEST_THREADS") {
        Ok(v) => vec![v.parse().expect("CHARM_TEST_THREADS must be a number")],
        Err(_) => vec![2, 4],
    }
}

#[test]
fn crash_identical_under_parallel_driver_threads() {
    // The parallel driver forces crash-window runs through the serial
    // engine (node death is a global membership edge, not a per-partition
    // event), so any thread count must reproduce the sequential run to
    // the bit.
    set_default_handoff_min_events(0);
    set_default_threads(1);
    let (seq, seq_ft) = crashed_jacobi(Some(40_000));
    for threads in thread_counts() {
        set_default_threads(threads);
        let (par, par_ft) = crashed_jacobi(Some(40_000));
        set_default_threads(1);
        assert_eq!(seq.time_ns, par.time_ns, "threads={threads}");
        assert_eq!(seq.events, par.events, "threads={threads}");
        assert_eq!(seq.grid, par.grid, "threads={threads}");
        assert_eq!(seq_ft, par_ft, "threads={threads}");
    }
}

#[test]
fn crash_inside_link_down_window_still_recovers() {
    // The node dies while one of node 0's links is already out: detection
    // traffic reroutes around the outage, and recovery still converges on
    // the fault-free answer.
    let mut plan = crash_plan(Some(40_000));
    plan.link_down.push(LinkDownWindow {
        node: 0,
        dim: 0,
        plus: true,
        from_ns: 60_000,
        until_ns: 160_000,
    });
    let layer = LayerKind::ugni().with_fault(plan);
    let (r, ft) = run_jacobi_ft(&layer, 8, 4, &jacobi_cfg(), ft_config());
    let clean = run_jacobi(&LayerKind::ugni(), 8, 4, &jacobi_cfg());
    assert_eq!(ft.recoveries, 1);
    assert_eq!(r.iterations_run, 20);
    assert_eq!(r.grid, clean.grid);
}

#[test]
fn pingpong_crash_is_exactly_once() {
    // Both endpoints count every round exactly once across the crash:
    // rollback-replay must neither lose nor double a message.
    for restart in [Some(30_000), None] {
        let mut plan = FaultPlan::default();
        plan.node_crash.push(NodeCrashWindow {
            node: 1,
            at_ns: 50_000,
            restart_after_ns: restart,
        });
        let layer = LayerKind::ugni().with_fault(plan);
        let (c0, cp, end, ft) = run_pingpong_ft(&layer, 4, 2, 256, 100, ft_config());
        assert_eq!(ft.recoveries, 1, "restart={restart:?}");
        assert_eq!((c0, cp), (100, 100), "restart={restart:?}");
        assert!(end > 0, "restart={restart:?}");
    }
}
