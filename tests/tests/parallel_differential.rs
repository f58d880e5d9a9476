//! Parallel-vs-sequential bit-identity: `Cluster::run_parallel(t)` must
//! reproduce the sequential engine's every virtual timestamp, statistic,
//! and figure input exactly, for every thread count — parallel execution
//! is an implementation detail, never an observable one.
//!
//! Each case runs the same app with `threads = 1` (the sequential engine)
//! and `threads ∈ {2, 4, 8}` (the conservative windowed engine) and
//! compares results to the bit. The suite deliberately straddles every
//! protocol regime: SMSG eager, FMA/BTE rendezvous, persistent channels
//! (whose remote-side setup charge exercises the driver's global-halt
//! path), collective fan-out, and an active fault plan with a mid-run
//! link-down window (which fails the transactions routed across it).

mod common;

use charm_apps::jacobi2d::JacobiConfig;
use charm_apps::pingpong::{bandwidth_on, one_way_on};
use charm_apps::{assert_contract_clean, jacobi2d, kneighbor, one_to_all, LayerKind};
use common::{assert_reports_eq, differential, par_cfg, plan};

#[test]
fn pingpong_straddles_eager_and_rendezvous() {
    for layer in [LayerKind::ugni(), LayerKind::mpi()] {
        // 64B = SMSG eager, 8K/64K = rendezvous (FMA then BTE).
        for bytes in [64usize, 8192, 65536] {
            differential(
                |t| layer.run_checked(par_cfg(2, 1, t), |c| one_way_on(c, bytes, 30, false)),
                |a, b, t| {
                    let ctx = format!("{} pingpong {bytes}B threads={t}", layer.name());
                    assert_eq!(a.0.to_bits(), b.0.to_bits(), "{ctx}: latency");
                    assert_reports_eq(&a.1, &b.1, &ctx);
                },
            );
        }
    }
}

#[test]
fn pingpong_persistent_channels() {
    // Persistent setup charges the destination PE from the source's
    // command — the one remote-side effect the parallel driver must
    // serialize via the global halt.
    for layer in [LayerKind::ugni(), LayerKind::mpi()] {
        differential(
            |t| layer.run_checked(par_cfg(2, 1, t), |c| one_way_on(c, 65536, 30, true)),
            |a, b, t| {
                let ctx = format!("{} persistent pingpong threads={t}", layer.name());
                assert_eq!(a.0.to_bits(), b.0.to_bits(), "{ctx}: latency");
                assert_reports_eq(&a.1, &b.1, &ctx);
            },
        );
    }
}

#[test]
fn bandwidth_window() {
    differential(
        |t| LayerKind::ugni().run_checked(par_cfg(2, 1, t), |c| bandwidth_on(c, 65536, 8, 10)),
        |a, b, t| {
            assert_eq!(a.0.to_bits(), b.0.to_bits(), "bandwidth threads={t}");
            assert_reports_eq(&a.1, &b.1, &format!("bandwidth threads={t}"));
        },
    );
}

#[test]
fn jacobi2d_grid_and_residual() {
    let cfg = JacobiConfig {
        n: 48,
        blocks: 4,
        iters: 12,
    };
    for layer in [LayerKind::ugni(), LayerKind::mpi()] {
        differential(
            |t| layer.run_checked(par_cfg(8, 2, t), |c| jacobi2d::run_on(c, &cfg)),
            |a, b, t| {
                let ctx = format!("{} jacobi threads={t}", layer.name());
                assert_eq!(a.time_ns, b.time_ns, "{ctx}: end time");
                assert_eq!(a.events, b.events, "{ctx}: event count");
                assert_eq!(
                    a.residual.to_bits(),
                    b.residual.to_bits(),
                    "{ctx}: residual"
                );
                let drift = a
                    .grid
                    .iter()
                    .zip(&b.grid)
                    .any(|(x, y)| x.to_bits() != y.to_bits());
                assert!(!drift, "{ctx}: grid values drifted");
            },
        );
    }
}

#[test]
fn kneighbor_ring() {
    for layer in [LayerKind::ugni(), LayerKind::mpi()] {
        differential(
            |t| layer.run_checked(par_cfg(16, 4, t), |c| kneighbor::run_on(c, 2, 1024, 8)),
            |a, b, t| {
                let ctx = format!("{} kneighbor threads={t}", layer.name());
                assert_eq!(a.0.to_bits(), b.0.to_bits(), "{ctx}: iteration time");
                assert_reports_eq(&a.1, &b.1, &ctx);
            },
        );
    }
}

#[test]
fn one_to_all_under_active_fault_plan() {
    // The link-down window fails the transactions routed across it
    // mid-run; recovery timestamps must still replay.
    for layer in [
        LayerKind::ugni().with_fault(plan()),
        LayerKind::mpi().with_fault(plan()),
    ] {
        differential(
            |t| layer.run_checked(par_cfg(16, 4, t), |c| one_to_all::run_on(c, 4096, 6)),
            |a, b, t| {
                let ctx = format!("{} one_to_all faulty threads={t}", layer.name());
                assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: latency");
            },
        );
    }
}

#[test]
fn jacobi_under_active_fault_plan() {
    let cfg = JacobiConfig {
        n: 32,
        blocks: 4,
        iters: 8,
    };
    for layer in [
        LayerKind::ugni().with_fault(plan()),
        LayerKind::mpi().with_fault(plan()),
    ] {
        differential(
            |t| layer.run_checked(par_cfg(8, 2, t), |c| jacobi2d::run_on(c, &cfg)),
            |a, b, t| {
                let ctx = format!("{} jacobi faulty threads={t}", layer.name());
                assert_eq!(a.time_ns, b.time_ns, "{ctx}: end time");
                assert_eq!(a.events, b.events, "{ctx}: event count");
                assert_eq!(
                    a.residual.to_bits(),
                    b.residual.to_bits(),
                    "{ctx}: residual"
                );
            },
        );
    }
}

/// Two partitions each send one message at the same instant to the same
/// PE, so the barrier harvest must order the two buffered send commands
/// by their parents' canonical order (PE 4's kick was injected first),
/// not by partition index. The receiver logs who arrived first.
#[test]
fn same_instant_cross_partition_sends_keep_canonical_order() {
    use bytes::Bytes;
    use charm_rt::prelude::{Cluster, IdealLayer};

    let arrivals = |t: u32| {
        let mut c = Cluster::new(par_cfg(8, 4, t), Box::new(IdealLayer::new(500)));
        c.init_user(|_| Vec::<u32>::new());
        let log = c.register_handler(|ctx, env| ctx.user::<Vec<u32>>().push(env.src_pe));
        let kick = c.register_handler(move |ctx, _| ctx.send(2, log, Bytes::new()));
        // PE 4 lives in partition 1, PE 0 in partition 0.
        c.inject(0, 4, kick, Bytes::new());
        c.inject(0, 0, kick, Bytes::new());
        let report = c.run();
        (report, c.user::<Vec<u32>>(2).clone())
    };
    differential(arrivals, |a, b, t| {
        let ctx = format!("same-instant sends threads={t}");
        assert_eq!(a.1, vec![4, 0], "{ctx}: sequential arrival order");
        assert_eq!(a.1, b.1, "{ctx}: arrival order");
        assert_reports_eq(&a.0, &b.0, &ctx);
    });
}

/// Found by `proptest_parallel.rs`'s determinism product: once a wire plan's
/// faults actually fire, two sends issued at one instant from different
/// partitions can reach the fabric — and its single fault RNG stream — in
/// an order that depends on how far each worker had run when the window
/// closed, so *which* message is dropped differs from the sequential
/// engine's choice and from one parallel run to the next (seed 7: PE 0's
/// send at 298,186 ns sequentially, PE 4's on about half the parallel
/// runs). The end time holds; what handlers observe, and sometimes the
/// event statistics, do not.
#[test]
#[ignore = "parallel engine defect, ROADMAP item 1: fails on roughly half the runs"]
fn same_instant_sends_draw_faults_in_canonical_order() {
    let layer = LayerKind::ugni().with_fault(gemini_net::FaultPlan::uniform_drop(7, 1e-3));
    let fine = |t| {
        layer.run_checked(par_cfg(8, 4, t), |c| {
            c.am_config(kneighbor::fine_am_config(false));
            kneighbor::run_fine_on(c, 2, 8, 6)
        })
    };
    let seq = fine(1);
    for rep in 0..12 {
        let par = fine(2);
        assert_eq!(seq.0.to_bits(), par.0.to_bits(), "rep {rep}: PE 0's time");
        assert_reports_eq(&seq.1, &par.1, &format!("rep {rep}"));
    }
}

/// The uGNI contract verifier must stay clean when the cluster runs under
/// the parallel driver: windowed execution reorders host wall-clock work
/// but never the virtual-time uGNI call sequence the checker observes.
#[test]
fn ugni_contract_stays_clean_under_parallel_driver() {
    use bytes::Bytes;

    for threads in [2u32, 4] {
        let mut c = LayerKind::ugni()
            .with_fault(plan())
            .build(par_cfg(16, 4, threads));
        c.init_user(|_| 0u64);
        let echo = c.register_handler(|ctx, env| {
            *ctx.user::<u64>() += env.payload.len() as u64;
            ctx.charge(150);
        });
        let kick = c.register_handler(move |ctx, _| {
            // Mixed sizes: SMSG eager, FMA rendezvous, BTE rendezvous.
            for (i, bytes) in [96usize, 6_000, 70_000, 256, 20_000].iter().enumerate() {
                let dst = 1 + (i as u32 * 5) % (ctx.num_pes() - 1);
                ctx.send(dst, echo, Bytes::from(vec![i as u8; *bytes]));
            }
        });
        c.inject(0, 0, kick, Bytes::new());
        let report = c.run();
        assert!(report.end_time > 0);
        assert_contract_clean(&mut c);
    }
}
