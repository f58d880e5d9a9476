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
//! link-down window (which degrades the lookahead and reroutes traffic).

use charm_apps::jacobi2d::{run_jacobi, JacobiConfig};
use charm_apps::kneighbor::kneighbor_report;
use charm_apps::one_to_all::one_to_all_latency;
use charm_apps::pingpong::{charm_bandwidth, charm_one_way_report};
use charm_apps::LayerKind;
use charm_rt::prelude::{set_default_handoff_min_events, set_default_threads, RunReport};
use gemini_net::{FaultPlan, LinkDownWindow};

/// Parallel thread counts each case compares against the sequential run.
/// `CHARM_TEST_THREADS=N` (set by CI's matrix legs) narrows the sweep to
/// one count so the legs split the work instead of repeating it.
fn thread_counts() -> Vec<u32> {
    match std::env::var("CHARM_TEST_THREADS") {
        Ok(v) => vec![v.parse().expect("CHARM_TEST_THREADS must be a number")],
        Err(_) => vec![2, 4, 8],
    }
}

/// Run `f` once sequentially and once per parallel thread count, and hand
/// each result to the caller's comparator together with a context label.
fn differential<R>(f: impl Fn() -> R, check: impl Fn(&R, &R, u32)) {
    // Hand off every eligible window: these configurations are small, and
    // the point is to exercise the worker path, not to run fast.
    set_default_handoff_min_events(0);
    set_default_threads(1);
    let seq = f();
    for t in thread_counts() {
        set_default_threads(t);
        let par = f();
        set_default_threads(1);
        check(&seq, &par, t);
    }
}

fn assert_reports_eq(a: &RunReport, b: &RunReport, ctx: &str) {
    assert_eq!(a.end_time, b.end_time, "{ctx}: virtual end time drifted");
    assert_eq!(a.stats, b.stats, "{ctx}: event statistics drifted");
    assert_eq!(a.stopped_early, b.stopped_early, "{ctx}: stop flag drifted");
}

fn plan() -> FaultPlan {
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

#[test]
fn pingpong_straddles_eager_and_rendezvous() {
    for layer in [LayerKind::ugni(), LayerKind::mpi()] {
        // 64B = SMSG eager, 8K/64K = rendezvous (FMA then BTE).
        for bytes in [64usize, 8192, 65536] {
            differential(
                || charm_one_way_report(&layer, 1, bytes, 30, false),
                |a, b, t| {
                    let ctx = format!("{} pingpong {bytes}B threads={t}", layer.name());
                    assert_eq!(a.0.to_bits(), b.0.to_bits(), "{ctx}: latency");
                    assert_reports_eq(&a.2, &b.2, &ctx);
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
            || charm_one_way_report(&layer, 1, 65536, 30, true),
            |a, b, t| {
                let ctx = format!("{} persistent pingpong threads={t}", layer.name());
                assert_eq!(a.0.to_bits(), b.0.to_bits(), "{ctx}: latency");
                assert_reports_eq(&a.2, &b.2, &ctx);
            },
        );
    }
}

#[test]
fn bandwidth_window() {
    differential(
        || charm_bandwidth(&LayerKind::ugni(), 65536, 8, 10),
        |a, b, t| assert_eq!(a.to_bits(), b.to_bits(), "bandwidth threads={t}"),
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
            || run_jacobi(&layer, 8, 2, &cfg),
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
            || kneighbor_report(&layer, 16, 4, 2, 1024, 8),
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
    // The link-down window degrades the derived lookahead and forces
    // adaptive reroutes mid-run; recovery timestamps must still replay.
    for layer in [
        LayerKind::ugni().with_fault(plan()),
        LayerKind::mpi().with_fault(plan()),
    ] {
        differential(
            || one_to_all_latency(&layer, 4, 4, 4096, 6),
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
            || run_jacobi(&layer, 8, 2, &cfg),
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

/// The uGNI contract verifier must stay clean when the cluster runs under
/// the parallel driver: windowed execution reorders host wall-clock work
/// but never the virtual-time uGNI call sequence the checker observes.
#[test]
fn ugni_contract_stays_clean_under_parallel_driver() {
    use bytes::Bytes;

    set_default_handoff_min_events(0);
    for threads in [2u32, 4] {
        set_default_threads(threads);
        let layer = LayerKind::ugni().with_fault(plan());
        let mut c = layer.cluster(16, 4);
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
        set_default_threads(1);
        assert!(report.end_time > 0);
        layer.assert_contract_clean(&mut c);
    }
}
