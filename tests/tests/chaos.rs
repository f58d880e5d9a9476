//! Chaos-mode acceptance: with an active fault plan (message drops,
//! corrupted completions, a mid-run link outage, a forced CQ overrun) the
//! full stack must still run every protocol to completion with zero panics
//! and *bitwise-identical application results* — recovery may cost time,
//! never correctness. And with the inert plan, nothing may change at all.

use charm_apps::jacobi2d::{jacobi_sequential, run_jacobi, JacobiConfig};
use charm_apps::pingpong::charm_one_way;
use charm_apps::LayerKind;
use gemini_net::{FaultPlan, LinkDownWindow};
use lrts_ugni::{SmallPath, UgniConfig};

/// The acceptance plan from the issue: 1e-3 drop probability everywhere,
/// corrupted completions, one mid-run link-down window, one forced CQ
/// overrun.
fn chaos_plan() -> FaultPlan {
    let mut f = FaultPlan::uniform_drop(0xC4A05, 1e-3);
    f.smsg_corrupt = 1e-3;
    f.fma_corrupt = 1e-3;
    f.bte_corrupt = 1e-3;
    f.force_cq_overrun_at = Some(100_000);
    f.link_down.push(LinkDownWindow {
        node: 0,
        dim: 0,
        plus: true,
        from_ns: 200_000,
        until_ns: 600_000,
    });
    f
}

/// A heavier plan so short runs are guaranteed to actually exercise the
/// recovery paths, not just have them armed.
fn heavy_plan() -> FaultPlan {
    let mut f = FaultPlan::uniform_drop(0xC4A06, 0.02);
    f.smsg_corrupt = 0.02;
    f.fma_corrupt = 0.02;
    f.bte_corrupt = 0.02;
    f
}

fn chaos_layers() -> Vec<LayerKind> {
    vec![
        LayerKind::ugni().with_fault(chaos_plan()),
        LayerKind::mpi().with_fault(chaos_plan()),
    ]
}

#[test]
fn pingpong_completes_under_chaos_on_both_layers() {
    for layer in chaos_layers() {
        // Small (SMSG/eager), large (rendezvous), persistent (PUT).
        for &(bytes, persistent) in &[(64usize, false), (65536, false), (65536, true)] {
            let lat = charm_one_way(&layer, 1, bytes, 200, persistent);
            assert!(
                lat > 0.0,
                "{} pingpong ({bytes}B, persistent={persistent}) did not finish",
                layer.name()
            );
        }
    }
}

#[test]
fn jacobi_bitwise_identical_under_chaos() {
    let cfg = JacobiConfig {
        n: 20,
        blocks: 4,
        iters: 15,
    };
    let (seq, _) = jacobi_sequential(20, 15);
    for layer in chaos_layers() {
        let r = run_jacobi(&layer, 8, 4, &cfg);
        assert_eq!(
            r.grid,
            seq,
            "chaos perturbed jacobi results on {}",
            layer.name()
        );
    }
    // Heavier faults: recovery paths definitely fire, results still exact.
    for layer in [
        LayerKind::ugni().with_fault(heavy_plan()),
        LayerKind::mpi().with_fault(heavy_plan()),
    ] {
        let r = run_jacobi(&layer, 8, 4, &cfg);
        assert_eq!(
            r.grid,
            seq,
            "heavy chaos perturbed jacobi results on {}",
            layer.name()
        );
    }
}

#[test]
fn chaos_runs_replay_bit_for_bit() {
    let cfg = JacobiConfig {
        n: 20,
        blocks: 4,
        iters: 10,
    };
    for layer in chaos_layers() {
        let a = run_jacobi(&layer, 8, 4, &cfg);
        let b = run_jacobi(&layer, 8, 4, &cfg);
        assert_eq!(
            (a.time_ns, a.residual, a.grid),
            (b.time_ns, b.residual, b.grid),
            "same seed + same plan diverged on {}",
            layer.name()
        );
    }
}

#[test]
fn inert_plan_changes_nothing() {
    // FaultPlan::none() must be invisible: identical virtual end times to
    // a layer that never heard of fault injection.
    let cfg = JacobiConfig {
        n: 20,
        blocks: 4,
        iters: 10,
    };
    for (plain, gated, pinned) in [
        (
            LayerKind::ugni(),
            LayerKind::ugni().with_fault(FaultPlan::none()),
            242_228,
        ),
        (
            LayerKind::mpi(),
            LayerKind::mpi().with_fault(FaultPlan::none()),
            314_200,
        ),
    ] {
        let a = run_jacobi(&plain, 8, 4, &cfg);
        let b = run_jacobi(&gated, 8, 4, &cfg);
        assert_eq!(
            a.time_ns,
            b.time_ns,
            "inert plan perturbed {}",
            plain.name()
        );
        assert_eq!(a.grid, b.grid);
        // Pinned virtual end-times. These match the `verify`-off build
        // bit for bit (the contract checker is purely observational), so
        // any drift here means the figure pipeline's numbers moved too.
        assert_eq!(
            a.time_ns,
            pinned,
            "virtual end time drifted on {}",
            plain.name()
        );
    }
}

#[test]
fn chaos_recovery_costs_time_but_not_results() {
    let cfg = JacobiConfig {
        n: 20,
        blocks: 4,
        iters: 15,
    };
    let clean = run_jacobi(&LayerKind::ugni(), 8, 4, &cfg);
    let chaotic = run_jacobi(&LayerKind::ugni().with_fault(heavy_plan()), 8, 4, &cfg);
    assert_eq!(clean.grid, chaotic.grid);
    assert!(
        chaotic.time_ns > clean.time_ns,
        "2% fault rates should cost time: clean {} vs chaos {}",
        clean.time_ns,
        chaotic.time_ns
    );
}

/// What a reordered fault draw or a changed MSGQ timing would move: the
/// virtual end time, the fabric's fault and flow-control counters, and the
/// uGNI layer's recovery counters, in that order.
type Readings = [u64; 10];

/// kNeighbor (`k` = 2, 6 iterations) on `pes` PEs, 4 per node, over
/// `layer`, then read what [`Readings`] names off the cluster.
fn kneighbor_readings(layer: &LayerKind, pes: u32, bytes: usize) -> Readings {
    let mut c = layer.cluster(pes, 4);
    let (_, rep) = charm_apps::kneighbor::run_on(&mut c, 2, bytes, 6);
    charm_apps::assert_contract_clean(&mut c);
    let l = c.layer_mut::<lrts_ugni::UgniLayer>();
    let f = &l.gni().fabric().stats;
    let u = &l.stats;
    [
        rep.end_time,
        f.faults_smsg,
        f.faults_rdma,
        f.faults_node_down,
        f.faults_link_down,
        f.credit_stalls,
        f.msgq_sends,
        u.send_faults,
        u.rdma_faults,
        u.dup_drops,
    ]
}

fn msgq() -> LayerKind {
    LayerKind::Ugni(UgniConfig::optimized().with_small_path(SmallPath::Msgq))
}

/// The chaos suites above compare a run with itself, so a change that
/// moves *which* transaction a fault hits passes them; the pins below do
/// not. A refactor that claims bit-identical behaviour leaves them alone;
/// a change to how faults are drawn restates them.
#[test]
fn heavy_plan_fault_draws_are_pinned() {
    let heavy = LayerKind::ugni().with_fault(heavy_plan());
    // 2 KiB rides FMA, 16 KiB rides BTE; both rendezvous over SMSG.
    let got: Vec<Readings> = [2048, 16384]
        .map(|bytes| kneighbor_readings(&heavy, 16, bytes))
        .into();
    assert_eq!(
        got,
        vec![
            [128_286, 29, 16, 0, 0, 0, 0, 29, 16, 15],
            [400_343, 29, 16, 0, 0, 0, 0, 29, 16, 13],
        ]
    );
}

#[test]
fn msgq_runs_are_pinned() {
    let got: Vec<Readings> = [msgq(), msgq().with_fault(chaos_plan())]
        .map(|layer| kneighbor_readings(&layer, 256, 64))
        .into();
    assert_eq!(
        got,
        vec![
            [110_405, 0, 0, 0, 0, 0, 4_608, 0, 0, 0],
            [112_710, 9, 0, 0, 0, 0, 4_617, 9, 0, 4],
        ]
    );
}

#[test]
fn link_down_window_run_is_pinned() {
    let mut plan = FaultPlan::none();
    plan.link_down.push(LinkDownWindow {
        node: 0,
        dim: 1,
        plus: true,
        from_ns: 0,
        until_ns: 200_000,
    });
    let layer = LayerKind::ugni().with_fault(plan);
    // SMSG for 64 B; BTE, behind an SMSG rendezvous, for 16 KiB.
    let got: Vec<Readings> = [64, 16384]
        .map(|bytes| kneighbor_readings(&layer, 16, bytes))
        .into();
    assert_eq!(
        got,
        vec![
            [281_108, 0, 0, 0, 48, 0, 0, 48, 0, 0],
            [522_524, 0, 0, 0, 48, 0, 0, 48, 0, 0],
        ]
    );
}
