//! Property-based validation of the conservative parallel driver's
//! lookahead contract: over random torus topologies, fault plans, and
//! app-shaped traffic mixes, no cross-partition event may ever be
//! scheduled closer than the derived lookahead — the driver asserts the
//! bound on every cross-partition push in debug builds (which is what
//! `cargo test` runs), so simply completing a parallel run under this
//! traffic is the property. Each case additionally cross-checks the
//! parallel run against the sequential engine bit for bit, making this a
//! randomized extension of the pinned differential suite.

mod common;

use bytes::Bytes;
use charm_apps::jacobi2d::{self, jacobi_sequential, JacobiConfig};
use charm_apps::{kneighbor, LayerKind};
use charm_rt::prelude::{AmConfig, ClusterCfg, ClusterStats, FtConfig};
use common::par_cfg;
use gemini_net::{FaultPlan, LinkDownWindow, NodeCrashWindow, Torus};
use lrts_ugni::UgniConfig;
use proptest::prelude::*;

/// App-shaped traffic: a scatter burst from PE 0 (mixed sizes straddling
/// the eager/rendezvous switch), then a neighbor-ring echo wave — enough
/// fan-out to keep several partitions busy inside one window.
fn traffic(layer: &LayerKind, cfg: ClusterCfg, sizes: &[usize]) -> (u64, u64, u64) {
    let (end, _, _, seen, xor) = traffic_full(layer, cfg, sizes, false);
    (end, seen, xor)
}

/// Full-observability variant: also returns the aggregate stats and (when
/// `traced`) the exported per-PE segment log, so callers can assert the
/// engines agree on every observable byte, not just end time and payload
/// digests.
fn traffic_full(
    layer: &LayerKind,
    cfg: ClusterCfg,
    sizes: &[usize],
    traced: bool,
) -> (u64, ClusterStats, String, u64, u64) {
    let pes = cfg.num_pes;
    let mut c = layer.build(cfg);
    if traced {
        c.enable_trace_log();
    }
    #[derive(Default)]
    struct St {
        seen: u64,
        xor: u64,
    }
    c.init_user(|_| St::default());
    let echo = c.register_handler(|ctx, env| {
        let st = ctx.user::<St>();
        st.seen += 1;
        for (i, b) in env.payload.iter().enumerate() {
            st.xor ^= (*b as u64) << (8 * (i % 8));
        }
        ctx.charge(200);
    });
    let recv = c.register_handler(move |ctx, env| {
        let st = ctx.user::<St>();
        st.seen += 1;
        for (i, b) in env.payload.iter().enumerate() {
            st.xor ^= (*b as u64) << (8 * (i % 8));
        }
        // Ring hop: bounce a small echo to the next PE over.
        let dst = (ctx.pe() + 1) % ctx.num_pes();
        ctx.send(dst, echo, env.payload.slice(0..env.payload.len().min(32)));
    });
    let sizes_owned: Vec<usize> = sizes.to_vec();
    let kick = c.register_handler(move |ctx, _| {
        for (i, &s) in sizes_owned.iter().enumerate() {
            let dst = 1 + (i as u32 % (ctx.num_pes() - 1));
            let payload: Vec<u8> = (0..s).map(|j| ((i * 131 + j * 7) % 251) as u8).collect();
            ctx.send(dst, recv, Bytes::from(payload));
        }
    });
    c.inject(0, 0, kick, Bytes::new());
    let rep = c.run();
    let mut xor = 0u64;
    let mut seen = 0u64;
    for pe in 0..pes {
        let st = c.user::<St>(pe);
        seen += st.seen;
        xor ^= st.xor;
    }
    let log = if traced {
        c.trace().export_log()
    } else {
        String::new()
    };
    (rep.end_time, rep.stats, log, seen, xor)
}

fn make_layer(
    dims: (u32, u32, u32),
    cores: u32,
    drop_p: f64,
    down: Option<(u32, u8, u64)>,
) -> (LayerKind, u32) {
    let mut cfg = UgniConfig::optimized();
    cfg.params.torus_dims = dims;
    cfg.params.cores_per_node = cores;
    // `Torus::new` panics, typed, on a node count past `u32`.
    let nodes = Torus::new(dims).num_nodes();
    let mut fault = if drop_p > 0.0 {
        FaultPlan::uniform_drop(0xBEEF, drop_p)
    } else {
        FaultPlan::none()
    };
    if let Some((node, dim, from)) = down {
        fault.link_down.push(LinkDownWindow {
            node: node % nodes,
            dim: dim % 3,
            plus: true,
            from_ns: from,
            until_ns: from + 300_000,
        });
    }
    cfg.params.fault = fault;
    let pes = nodes.checked_mul(cores).expect("PE count overflows u32");
    (LayerKind::Ugni(cfg), pes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random topology + random traffic, fault-free: the parallel run
    /// must complete without tripping the lookahead assert and land on
    /// the sequential timestamps exactly.
    #[test]
    fn lookahead_bound_holds_on_random_topologies(
        dx in 2u32..4, dy in 1u32..3, dz in 1u32..3,
        cores in 1u32..4,
        sizes in proptest::collection::vec(1usize..100_000, 2..10),
        threads in 2u32..6,
    ) {
        let (layer, pes) = make_layer((dx, dy, dz), cores, 0.0, None);
        prop_assume!(pes > 2);
        let seq = traffic(&layer, par_cfg(pes, cores, 1), &sizes);
        let par = traffic(&layer, par_cfg(pes, cores, threads), &sizes);
        prop_assert_eq!(seq, par, "threads={} diverged", threads);
    }

    /// Same property under an active fault plan: drops force retries and
    /// a link-down window fails the transactions routed across it mid-run.
    #[test]
    fn lookahead_bound_holds_under_fault_plans(
        dx in 2u32..4, dy in 1u32..3,
        cores in 1u32..3,
        drop_p in 0.0f64..0.01,
        down_node in 0u32..8, down_dim in 0u8..3,
        down_from in 10_000u64..200_000,
        sizes in proptest::collection::vec(1usize..60_000, 2..8),
    ) {
        let (layer, pes) =
            make_layer((dx, dy, 1), cores, drop_p, Some((down_node, down_dim, down_from)));
        prop_assume!(pes > 2);
        let seq = traffic(&layer, par_cfg(pes, cores, 1), &sizes);
        let par = traffic(&layer, par_cfg(pes, cores, 4), &sizes);
        prop_assert_eq!(seq, par, "faulty parallel run diverged");
    }

    /// Window batching is a pure wallclock optimization: for any batch
    /// size k, the parallel engine must produce bit-identical end times,
    /// aggregate stats, and trace bytes versus both the unbatched (k=1)
    /// parallel engine and the sequential engine. Fault plans are in
    /// scope — dropped packets and link-down windows reshape the event
    /// mix mid-batch.
    #[test]
    fn window_batching_is_invisible(
        dx in 2u32..4, dy in 1u32..3, dz in 1u32..3,
        cores in 1u32..3,
        drop_p in 0.0f64..0.01,
        sizes in proptest::collection::vec(1usize..60_000, 2..8),
        threads in 2u32..6,
        k in 1u32..9,
    ) {
        let (layer, pes) = make_layer((dx, dy, dz), cores, drop_p, None);
        prop_assume!(pes > 2);
        let batch = |batch_windows| ClusterCfg {
            batch_windows,
            ..par_cfg(pes, cores, threads)
        };
        let seq = traffic_full(&layer, par_cfg(pes, cores, 1), &sizes, true);
        let unbatched = traffic_full(&layer, batch(1), &sizes, true);
        let batched = traffic_full(&layer, batch(k), &sizes, true);
        prop_assert_eq!(&seq, &unbatched, "unbatched parallel diverged from sequential");
        prop_assert_eq!(&unbatched, &batched, "batch_windows={} diverged", k);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The determinism product in one place, now that configuration is a
    /// value: AM aggregation on/off × an active wire fault plan × a
    /// node-crash window (restart or gone for good) × window batching ×
    /// thread count. Fine-grained kNeighbor takes every dimension but the
    /// crash (it has no checkpoints to come back from), FT jacobi takes all
    /// five; each must match the sequential default-knob run under the
    /// same faults in end time, statistics and application result, and
    /// jacobi's grid must still be the sequential solver's.
    ///
    /// One cell is left out: kNeighbor on more than one thread under a wire
    /// plan. This product found that the parallel engine is not bit-exact
    /// there (`parallel_differential.rs`'s ignored
    /// `same_instant_sends_draw_faults_in_canonical_order`, ROADMAP item 1).
    #[test]
    fn engine_knobs_are_invisible_across_the_fault_product(
        aggregate in any::<bool>(),
        wire_seed in proptest::option::of(0u64..1_000),
        crash in proptest::option::of(
            (40_000u64..120_000, proptest::option::of(30_000u64..60_000))),
        deep_batches in any::<bool>(),
        threads_log2 in 0u32..3,
    ) {
        let engine = |pes, cores| ClusterCfg {
            batch_windows: if deep_batches { 4 } else { 1 },
            ..par_cfg(pes, cores, 1 << threads_log2)
        };
        let mut plan = FaultPlan::default();
        if let Some(seed) = wire_seed {
            plan = FaultPlan::uniform_drop(seed, 1e-3);
            plan.smsg_corrupt = 1e-3;
            plan.link_down.push(LinkDownWindow {
                node: 0,
                dim: 0,
                plus: true,
                from_ns: 100_000,
                until_ns: 400_000,
            });
        }

        let fine = |cfg| {
            LayerKind::ugni().with_fault(plan.clone()).run_checked(cfg, |c| {
                c.am_config(kneighbor::fine_am_config(aggregate));
                kneighbor::run_fine_on(c, 2, 8, 6)
            })
        };
        let fine_engine = match wire_seed {
            Some(_) => ClusterCfg { threads: 1, ..engine(8, 4) },
            None => engine(8, 4),
        };
        let (seq, par) = (fine(ClusterCfg::new(8, 4)), fine(fine_engine));
        prop_assert_eq!(seq.0.to_bits(), par.0.to_bits(), "kneighbor_fine iteration time");
        prop_assert_eq!(seq.1.end_time, par.1.end_time, "kneighbor_fine end time");
        prop_assert_eq!(&seq.1.stats, &par.1.stats, "kneighbor_fine stats");

        let jacobi = |cfg| {
            let mut plan = plan.clone();
            if let Some((at_ns, restart_after_ns)) = crash {
                plan.node_crash.push(NodeCrashWindow { node: 1, at_ns, restart_after_ns });
            }
            let mut c = LayerKind::ugni().with_fault(plan).build(cfg);
            c.am_config(AmConfig { aggregation: aggregate, ..AmConfig::default() });
            c.enable_ft(FtConfig {
                hb_period: 20_000,
                hb_timeout: 150_000,
                ckpt_period: 60_000,
                ..FtConfig::default()
            });
            let r = jacobi2d::run_on(&mut c, &JacobiConfig { n: 24, blocks: 4, iters: 12 });
            (r.time_ns, c.stats().clone(), c.ft_report(), r.residual.to_bits(), r.grid)
        };
        let (seq, par) = (jacobi(ClusterCfg::new(8, 4)), jacobi(engine(8, 4)));
        prop_assert_eq!(&seq, &par, "FT jacobi");
        prop_assert_eq!(&seq.4, &jacobi_sequential(24, 12).0, "FT jacobi grid");
    }
}
