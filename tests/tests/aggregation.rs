//! Destination-batched AM aggregation acceptance (ISSUE 10): coalescing
//! is a *timing* optimization and must never be an observable one beyond
//! timing. Aggregated runs must bit-replay, agree with the sequential
//! engine at every thread count, survive an active fault plan with
//! exactly-once delivery per *constituent* AM (not per batch envelope),
//! recover through a node crash without losing or doubling a constituent,
//! and produce identical application results at every flush threshold.

mod common;

use bytes::Bytes;
use charm_apps::{assert_contract_clean, kneighbor, LayerKind};
use charm_rt::prelude::*;
use common::{assert_reports_eq, differential, par_cfg, plan};
use gemini_net::{FaultPlan, NodeCrashWindow};
use proptest::prelude::*;

/// Aggregated fine-grained kNeighbor (8 PEs, k = 2, 8 AMs per neighbor,
/// 10 iterations) on `threads` workers.
fn fine(layer: &LayerKind, threads: u32) -> (f64, RunReport) {
    layer.run_checked(par_cfg(8, 4, threads), |c| {
        c.am_config(kneighbor::fine_am_config(true));
        kneighbor::run_fine_on(c, 2, 8, 10)
    })
}

/// All-to-all scatter of 16-byte typed AMs under `cfg`; returns the
/// cluster-wide (receipt count, content xor, virtual end time).
/// The xor folds every payload byte position-sensitively, so a constituent
/// lost, doubled, truncated, or scattered at the wrong offset by the batch
/// walk changes it.
fn am_scatter(
    layer: &LayerKind,
    cfg: AmConfig,
    pes: u32,
    cores_per_node: u32,
    msgs: u32,
) -> (u64, u64, u64) {
    let mut c = layer.cluster(pes, cores_per_node);
    c.am_config(cfg);
    #[derive(Default)]
    struct St {
        count: u64,
        xor: u64,
    }
    c.init_user(|_| St::default());
    let recv = c.register_am::<[u8; 16]>(|ctx, _src, payload| {
        let st = ctx.user::<St>();
        st.count += 1;
        for (i, b) in payload.iter().enumerate() {
            st.xor ^= (*b as u64) << (8 * (i % 8));
        }
    });
    let kick = c.register_handler(move |ctx, _| {
        let me = ctx.pe();
        for dst in 0..ctx.num_pes() {
            if dst == me {
                continue;
            }
            for m in 0..msgs {
                let mut p = [0u8; 16];
                p[0] = me as u8;
                p[1] = dst as u8;
                p[2] = m as u8;
                p[3] = (me.wrapping_mul(31) ^ dst.wrapping_mul(7) ^ m) as u8;
                ctx.am_send(dst, recv, p);
            }
        }
    });
    for pe in 0..pes {
        c.inject(0, pe, kick, Bytes::new());
    }
    let report = c.run();
    let (mut count, mut xor) = (0u64, 0u64);
    for pe in 0..pes {
        let st = c.user::<St>(pe);
        count += st.count;
        xor ^= st.xor;
    }
    assert_contract_clean(&mut c);
    (count, xor, report.end_time)
}

#[test]
fn aggregated_runs_are_bit_replayable() {
    // Same shape twice: the flush timers are ordinary virtual-time events,
    // so every timestamp and counter must repeat exactly.
    let a = fine(&LayerKind::ugni(), 1);
    let b = fine(&LayerKind::ugni(), 1);
    assert_eq!(a.0.to_bits(), b.0.to_bits(), "iteration time drifted");
    assert_reports_eq(&a.1, &b.1, "aggregated double-run");
}

#[test]
fn aggregated_identical_across_parallel_threads() {
    differential(
        |t| fine(&LayerKind::ugni(), t),
        |a, b, t| {
            let ctx = format!("aggregated kneighbor_fine threads={t}");
            assert_eq!(a.0.to_bits(), b.0.to_bits(), "{ctx}: iteration time");
            assert_reports_eq(&a.1, &b.1, &ctx);
            assert!(a.1.stats.am_batches > 0, "{ctx}: nothing aggregated");
        },
    );
}

#[test]
fn aggregated_identical_across_threads_under_active_fault_plan() {
    // Drops and corruption force SMSG retransmits of whole batch
    // envelopes; the link-down window reroutes them. Exactly-once per
    // constituent (the internal `st.done` assert needs every data AM and
    // every ack exactly once) must hold at every thread count, bit-equal
    // to the sequential engine.
    let layer = LayerKind::ugni().with_fault(plan());
    differential(
        |t| fine(&layer, t),
        |a, b, t| {
            let ctx = format!("aggregated faulty kneighbor_fine threads={t}");
            assert_eq!(a.0.to_bits(), b.0.to_bits(), "{ctx}: iteration time");
            assert_reports_eq(&a.1, &b.1, &ctx);
        },
    );
}

#[test]
fn faults_never_lose_or_double_a_constituent() {
    // The fault plan retries lost envelopes; the seq-window dedup must
    // then drop *whole duplicate batches* so no constituent lands twice.
    let cfg = || AmConfig {
        aggregation: true,
        ..AmConfig::default()
    };
    let clean = am_scatter(&LayerKind::ugni(), cfg(), 8, 2, 12);
    let faulty = am_scatter(&LayerKind::ugni().with_fault(plan()), cfg(), 8, 2, 12);
    assert_eq!(clean.0, 8 * 7 * 12, "clean run lost a constituent");
    assert_eq!(faulty.0, clean.0, "faults changed the receipt count");
    assert_eq!(faulty.1, clean.1, "faults changed the received bytes");
    assert!(
        faulty.2 >= clean.2,
        "retransmits cannot make the run faster"
    );
}

/// Exactly-once across a node crash: an AM ping-pong where PE 0 drives
/// `ROUNDS` rounds of `MSGS` aggregated 16-byte AMs to a peer on node 1,
/// which acks each completed round. Node 1 dies mid-run and restarts; the
/// detector declares it, rollback-replay restores the buddy checkpoint
/// (wiping half-built coalescing buffers — their constituents are
/// pre-rollback sends the replay regenerates), and the final counters
/// must equal the fault-free totals exactly.
#[test]
fn crash_recovery_is_exactly_once_per_constituent() {
    const ROUNDS: u64 = 100;
    const MSGS: u64 = 4;

    #[derive(Default)]
    struct St {
        acks: u64,
        data: u64,
    }
    impl Checkpoint for St {
        fn save(&self) -> Vec<u8> {
            let mut v = self.acks.to_le_bytes().to_vec();
            v.extend_from_slice(&self.data.to_le_bytes());
            v
        }
        fn restore(b: &[u8]) -> Self {
            St {
                acks: u64::from_le_bytes(b[..8].try_into().unwrap()),
                data: u64::from_le_bytes(b[8..16].try_into().unwrap()),
            }
        }
    }

    let mut plan = FaultPlan::default();
    plan.node_crash.push(NodeCrashWindow {
        node: 1,
        at_ns: 50_000,
        restart_after_ns: Some(30_000),
    });
    let layer = LayerKind::ugni().with_fault(plan);
    let mut c = layer.cluster(4, 2);
    c.am_config(AmConfig {
        aggregation: true,
        flush_delay_ns: 1_000,
        ..AmConfig::default()
    });
    c.enable_ft(FtConfig {
        hb_period: 20_000,
        hb_timeout: 150_000,
        ckpt_period: 60_000,
    });
    c.init_user(|_| St::default());
    c.ft_user::<St>();

    let peer: PeId = 2; // first PE of node 1, the crashing node
    let ack_cell = std::sync::Arc::new(std::sync::OnceLock::new());
    let ack2 = ack_cell.clone();
    let data = c.register_am::<[u8; 16]>(move |ctx, _src, _payload| {
        let st = ctx.user::<St>();
        st.data += 1;
        if st.data % MSGS == 0 {
            ctx.am_send(0, *ack2.get().expect("ack AM registered"), ());
        }
    });
    let send_round = move |ctx: &mut PeCtx| {
        for m in 0..MSGS {
            ctx.am_send(peer, data, [m as u8; 16]);
        }
    };
    let ack = c.register_am::<()>(move |ctx, _src, ()| {
        let st = ctx.user::<St>();
        st.acks += 1;
        if st.acks >= ROUNDS {
            ctx.stop();
            return;
        }
        send_round(ctx);
        ctx.ft_maybe_checkpoint();
    });
    ack_cell.set(ack).expect("set once");
    let kick = c.register_handler(move |ctx, _| send_round(ctx));
    let resume = c.register_handler(move |ctx, _| {
        // The in-flight round died with the old epoch; the restored ack
        // count says which round to replay.
        if ctx.user::<St>().acks < ROUNDS {
            send_round(ctx);
        }
    });
    c.ft_on_resume(resume, 0);
    c.inject(0, 0, kick, Bytes::new());
    let report = c.run();

    let ft = c.ft_report();
    assert_eq!(ft.recoveries, 1, "the crash was never recovered");
    assert!(ft.ckpts >= 1, "no checkpoint wave completed");
    assert_eq!(c.user::<St>(0).acks, ROUNDS, "acks lost or doubled");
    assert_eq!(
        c.user::<St>(peer).data,
        ROUNDS * MSGS,
        "a constituent AM was lost or doubled across the rollback"
    );
    assert!(report.end_time > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any flush threshold from 1 byte (every AM oversized, pure direct
    /// path) up to the full SMSG limit yields the exact results of the
    /// unaggregated run — the knob moves timing, never application state.
    #[test]
    fn flush_threshold_never_changes_results(max_batch in 1usize..=1024) {
        let off = am_scatter(
            &LayerKind::ugni(),
            AmConfig::default(), // aggregation disabled: ground truth
            6, 2, 8,
        );
        let on = am_scatter(
            &LayerKind::ugni(),
            AmConfig {
                aggregation: true,
                max_batch_bytes: max_batch,
                ..AmConfig::default()
            },
            6, 2, 8,
        );
        prop_assert_eq!(on.0, off.0, "receipt count moved at threshold {}", max_batch);
        prop_assert_eq!(on.1, off.1, "payload bytes moved at threshold {}", max_batch);
    }
}
