//! Crash-recovery acceptance: a node dies mid-run (and maybe restarts),
//! the heartbeat detector declares it, buddy checkpoints restore it, and
//! the application finishes with *bitwise-identical results* to the
//! fault-free run — recovery may cost virtual time, never correctness.
//! Every crash run must also be bit-replayable, and the parallel driver
//! must agree with the sequential engine to the bit.

mod common;

use bytes::Bytes;
use charm_apps::jacobi2d::{self, run_jacobi, JacobiConfig, JacobiResult};
use charm_apps::pingpong::ft_rally_on;
use charm_apps::LayerKind;
use charm_rt::prelude::*;
use common::{differential, par_cfg};
use gemini_net::{FaultPlan, LinkDownWindow, NodeCrashWindow};
use lrts_ugni::{UgniConfig, UgniLayer};
use std::any::Any;
use ugni_verify::Leak;

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
    }
}

fn jacobi_cfg() -> JacobiConfig {
    JacobiConfig {
        n: 24,
        blocks: 4,
        iters: 20,
    }
}

/// FT jacobi on 8 PEs under `plan`, on `threads` workers.
fn ft_jacobi(plan: FaultPlan, threads: u32) -> (JacobiResult, FtReport) {
    let mut c = LayerKind::ugni()
        .with_fault(plan)
        .build(par_cfg(8, 4, threads));
    c.enable_ft(ft_config());
    let r = jacobi2d::run_on(&mut c, &jacobi_cfg());
    (r, c.ft_report())
}

fn crashed_jacobi(restart_after: Option<sim_core::Time>) -> (JacobiResult, FtReport) {
    ft_jacobi(crash_plan(restart_after), 1)
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

#[test]
fn crash_identical_under_parallel_driver_threads() {
    // The parallel driver forces crash-window runs through the serial
    // engine (node death is a global membership edge, not a per-partition
    // event), so any thread count must reproduce the sequential run to
    // the bit.
    differential(
        |t| ft_jacobi(crash_plan(Some(40_000)), t),
        |(seq, seq_ft), (par, par_ft), threads| {
            assert_eq!(seq.time_ns, par.time_ns, "threads={threads}");
            assert_eq!(seq.events, par.events, "threads={threads}");
            assert_eq!(seq.grid, par.grid, "threads={threads}");
            assert_eq!(seq_ft, par_ft, "threads={threads}");
        },
    );
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
    let (r, ft) = ft_jacobi(plan, 1);
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
        let mut c = LayerKind::ugni().with_fault(plan).cluster(4, 2);
        c.enable_ft(ft_config());
        let (c0, cp, end) = ft_rally_on(&mut c, 256, 100);
        assert_eq!(c.ft_report().recoveries, 1, "restart={restart:?}");
        assert_eq!((c0, cp), (100, 100), "restart={restart:?}");
        assert!(end > 0, "restart={restart:?}");
    }
}

/// A pass-through machine layer defined out here, counting what crosses
/// the LRTS boundary. Persistent channels keep the trait's fall-back to
/// `sync_send`; jacobi opens none.
struct Counting {
    inner: Box<dyn MachineLayer>,
    sends: u64,
    node_faults: u64,
}

impl MachineLayer for Counting {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    fn init(&mut self, ctx: &mut MachineCtx) {
        self.inner.init(ctx)
    }

    fn sync_send(&mut self, ctx: &mut MachineCtx, src_pe: PeId, dst_pe: PeId, msg: Bytes) {
        self.sends += 1;
        self.inner.sync_send(ctx, src_pe, dst_pe, msg)
    }

    fn on_event(&mut self, ctx: &mut MachineCtx, pe: PeId, ev: Box<dyn Any + Send>) {
        self.inner.on_event(ctx, pe, ev)
    }

    fn lookahead(&self) -> sim_core::Time {
        self.inner.lookahead()
    }

    fn node_fault(&mut self, ctx: &mut MachineCtx, node: gemini_net::NodeId) {
        self.node_faults += 1;
        self.inner.node_fault(ctx, node)
    }
}

#[test]
fn jacobi_runs_on_a_caller_wrapped_layer_with_ft() {
    // The caller owns construction: its own decorator around the layer,
    // FT switched on, and both read back from the cluster afterwards.
    let layer = LayerKind::ugni().with_fault(crash_plan(Some(40_000)));
    let cfg = ClusterCfg {
        fault: layer.fault(),
        ..ClusterCfg::new(8, 4)
    };
    let wrapped = Counting {
        inner: layer.make_layer(),
        sends: 0,
        node_faults: 0,
    };
    let mut c = Cluster::new(cfg, Box::new(wrapped));
    c.enable_ft(ft_config());
    let r = jacobi2d::run_on(&mut c, &jacobi_cfg());

    let (plain, plain_ft) = crashed_jacobi(Some(40_000));
    assert_eq!(r.time_ns, plain.time_ns, "the decorator moved virtual time");
    assert_eq!(r.grid, plain.grid);
    assert_eq!(c.ft_report(), plain_ft);
    assert_eq!(c.ft_report().recoveries, 1);
    let net_msgs = c.stats().net_msgs;
    let counted = c.layer_mut::<Counting>();
    assert!(counted.sends > 0, "nothing crossed the LRTS boundary");
    assert_eq!(net_msgs, counted.sends, "the runtime counts each send once");
    // Crash onset and restart each reset the node's NIC-side state.
    assert_eq!(counted.node_faults, 2);
}

#[test]
fn persistent_sends_count_once_on_the_channel_and_on_its_fallback() {
    // One send rides a persistent channel; one names a handle the layer
    // never bound and falls back to the ordinary path. Each crosses the
    // machine layer once, with its whole envelope.
    let mut c = LayerKind::ugni().cluster(2, 1);
    let sink = c.register_handler(|_, _| {});
    let payload = Bytes::from(vec![3; 200]);
    let p = payload.clone();
    let ping = c.register_handler(move |ctx, _| {
        let chan = ctx.create_persistent(1, 1_024);
        ctx.send_persistent(chan, 1, sink, p.clone());
        ctx.send_persistent(PersistentHandle(u64::MAX), 1, sink, p.clone());
    });
    c.inject(0, 0, ping, Bytes::new());
    c.run();
    let wire = Envelope::new(0, 1, sink, payload).encode().len() as u64;
    assert_eq!((c.stats().net_msgs, c.stats().net_bytes), (2, 2 * wire));
    let ugni = &c.layer_mut::<UgniLayer>().stats;
    assert_eq!((ugni.persistent_msgs, ugni.small_msgs), (1, 1));
}

#[test]
fn an_abandoned_get_returns_its_landing_buffer() {
    // Node 1 sends 1 MiB to node 0 and dies for good between its
    // rendezvous announcement (~81 us, once the send buffer is registered)
    // and node 0's GET (~165 us, once the landing buffer is): the fabric
    // refuses the GET, the layer abandons it, and the landing buffer's
    // direct registration on the surviving node must be released rather
    // than held until the run ends.
    let mut plan = FaultPlan::default();
    plan.node_crash.push(NodeCrashWindow {
        node: 1,
        at_ns: 120_000,
        restart_after_ns: None,
    });
    let kind = LayerKind::Ugni(UgniConfig::optimized().with_mempool(false)).with_fault(plan);
    let mut c = kind.cluster(2, 1);
    let sink = c.register_handler(|_, _| {});
    let send = c.register_handler(move |ctx, _| ctx.send(0, sink, Bytes::from(vec![7; 1 << 20])));
    c.inject(0, 1, send, Bytes::new());
    c.run();
    let layer = c.layer_mut::<UgniLayer>();
    assert_eq!(layer.stats.rdma_faults, 1, "the GET was never refused");
    let report = layer.contract_report().expect("verify feature on");
    let held: Vec<_> = report
        .leaks
        .iter()
        .filter(|l| matches!(l, Leak::Registration { node: 0, .. }))
        .collect();
    assert!(held.is_empty(), "landing buffer still registered: {held:?}");
}
