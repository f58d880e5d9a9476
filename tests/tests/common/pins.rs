//! Virtual-time pins: the end times of a fixed set of workload shapes
//! (ping-pong sweeps, streaming bandwidth, Jacobi2D, kNeighbor on both
//! machine layers, fine-grained kNeighbor with AM aggregation off and on),
//! recorded once and required to hold bit for bit ever since. Engine work
//! (queue, wire buffers, tracing, the parallel driver) may change how fast
//! the simulator runs, never where virtual time ends; a drift here is a
//! correctness bug. Host time is measured by `benchmark/`, not here.
//!
//! Each set runs exactly once per `cargo test`:
//! * quick shapes, sequential engine: `scale.rs::pinned_quick_shapes_stay_bit_identical`;
//! * quick shapes, every parallel thread count (`CHARM_TEST_THREADS`
//!   narrows the sweep): `determinism.rs::wallclock_quick_suite_virtual_times_match_pins`;
//! * full shapes, sequential engine: `pins.rs::full_shapes_hold_their_pins`.

use charm_apps::jacobi2d::{self, JacobiConfig};
use charm_apps::pingpong::{bandwidth_on, one_way_on};
use charm_apps::{kneighbor, LayerKind};
use charm_rt::prelude::ClusterCfg;

/// Pinned virtual end times, each recorded when its shape landed (most
/// from the seed engine, before any fast-path work). Keyed by
/// `(workload, layer, quick)`.
const PINS: &[(&str, &str, bool, u64)] = &[
    // The canonical inert-plan pins (tests/tests/chaos.rs) ride along so
    // this file cross-checks the same numbers the chaos suite pins.
    ("jacobi2d_seed", "ugni", false, 242_228),
    ("jacobi2d_seed", "mpi", false, 314_200),
    ("jacobi2d_seed", "ugni", true, 242_228),
    ("jacobi2d_seed", "mpi", true, 314_200),
    // Same seed shape behind an inert `FaultPlan::none()`: the chaos and
    // crash machinery must be free when the plan never fires, so these
    // pin to the exact plain-run numbers above.
    ("jacobi2d_inert", "ugni", false, 242_228),
    ("jacobi2d_inert", "mpi", false, 314_200),
    ("jacobi2d_inert", "ugni", true, 242_228),
    ("jacobi2d_inert", "mpi", true, 314_200),
    ("pingpong_sweep", "ugni", false, 30_337_820),
    ("pingpong_sweep", "mpi", false, 66_978_602),
    ("pingpong_sweep", "ugni", true, 4_078_160),
    ("pingpong_sweep", "mpi", true, 8_425_202),
    ("bandwidth", "ugni", false, 7_453_718),
    ("bandwidth", "mpi", false, 21_534_320),
    ("bandwidth", "ugni", true, 1_061_378),
    ("bandwidth", "mpi", true, 2_350_590),
    ("jacobi2d", "ugni", false, 1_123_628),
    ("jacobi2d", "mpi", false, 2_362_820),
    ("jacobi2d", "ugni", true, 331_092),
    ("jacobi2d", "mpi", true, 563_660),
    ("kneighbor", "ugni", false, 1_959_503),
    ("kneighbor", "mpi", false, 4_166_345),
    ("kneighbor", "ugni", true, 213_561),
    ("kneighbor", "mpi", true, 375_853),
    // The aggregation figure: fine-grained kNeighbor with destination
    // batching off/on. The off leg is the typed-AM direct path, the on
    // leg exercises the coalescing engine end to end. Each on pin is
    // below its off pin, so these rows also hold aggregation's
    // virtual-time win.
    ("kneighbor_fine", "agg_off", false, 4_860_170),
    ("kneighbor_fine", "agg_on", false, 843_180),
    ("kneighbor_fine", "agg_off", true, 578_570),
    ("kneighbor_fine", "agg_on", true, 231_355),
];

fn pin_for(name: &str, layer: &str, quick: bool) -> Option<u64> {
    PINS.iter()
        .find(|(n, l, q, _)| *n == name && *l == layer && *q == quick)
        .map(|(_, _, _, v)| *v)
}

fn layers() -> [(&'static str, LayerKind); 2] {
    [("ugni", LayerKind::ugni()), ("mpi", LayerKind::mpi())]
}

/// Run every pinned shape once at `threads` and return
/// `(workload, layer, virtual end ns)` per shape.
fn run_shapes(quick: bool, threads: u32) -> Vec<(&'static str, &'static str, u64)> {
    let cfg = |pes: u32, cores_per_node: u32| ClusterCfg {
        threads,
        ..ClusterCfg::new(pes, cores_per_node)
    };
    let mut rows = Vec::new();

    // Ping-pong sweep: sizes straddling the eager/rendezvous switch plus
    // one persistent-channel run; the row is the sum of the end times.
    let (sizes, pp_iters): (&[usize], u64) = if quick {
        (&[64, 65536], 60)
    } else {
        (&[64, 4096, 65536], 400)
    };
    for (tag, layer) in layers() {
        let plain = sizes.iter().map(|&b| (b, false));
        let vend = plain
            .chain([(65536, true)])
            .map(|(b, persistent)| {
                let (_, rep) =
                    layer.run_checked(cfg(2, 1), |c| one_way_on(c, b, pp_iters, persistent));
                rep.end_time
            })
            .sum();
        rows.push(("pingpong_sweep", tag, vend));
    }

    // Streaming bandwidth: windowed rendezvous traffic.
    let (bw_window, bw_rounds) = if quick { (8, 10) } else { (16, 40) };
    for (tag, layer) in layers() {
        let (_, rep) =
            layer.run_checked(cfg(2, 1), |c| bandwidth_on(c, 65536, bw_window, bw_rounds));
        rows.push(("bandwidth", tag, rep.end_time));
    }

    // Jacobi2D at the canonical seed shape, plain and behind an inert
    // fault plan.
    let seed_cfg = JacobiConfig {
        n: 20,
        blocks: 4,
        iters: 10,
    };
    for (tag, layer) in layers() {
        let r = layer.run_checked(cfg(8, 4), |c| jacobi2d::run_on(c, &seed_cfg));
        rows.push(("jacobi2d_seed", tag, r.time_ns));
    }
    for (tag, layer) in layers() {
        let gated = layer.with_fault(gemini_net::FaultPlan::none());
        let r = gated.run_checked(cfg(8, 4), |c| jacobi2d::run_on(c, &seed_cfg));
        rows.push(("jacobi2d_inert", tag, r.time_ns));
    }

    // Jacobi2D at measurement scale.
    let jac_cfg = if quick {
        JacobiConfig {
            n: 32,
            blocks: 4,
            iters: 20,
        }
    } else {
        JacobiConfig {
            n: 48,
            blocks: 8,
            iters: 40,
        }
    };
    for (tag, layer) in layers() {
        let r = layer.run_checked(cfg(16, 4), |c| jacobi2d::run_on(c, &jac_cfg));
        rows.push(("jacobi2d", tag, r.time_ns));
    }

    // kNeighbor: the synthetic all-neighbor exchange (Fig. 10 shape).
    let (kn_cores, kn_k, kn_bytes, kn_iters) = if quick {
        (8, 2, 1024, 15)
    } else {
        (16, 3, 4096, 60)
    };
    for (tag, layer) in layers() {
        let (_, rep) = layer.run_checked(cfg(kn_cores, 4), |c| {
            kneighbor::run_on(c, kn_k, kn_bytes, kn_iters)
        });
        rows.push(("kneighbor", tag, rep.end_time));
    }

    // Fine-grained kNeighbor on uGNI — many 16-byte AMs per neighbor per
    // iteration — with destination batching off and on.
    let (fg_cores, fg_k, fg_msgs, fg_iters) = if quick {
        (8, 2, 8, 10)
    } else {
        (16, 3, 16, 30)
    };
    let ugni = LayerKind::ugni();
    for (tag, aggregate) in [("agg_off", false), ("agg_on", true)] {
        let (_, rep) = ugni.run_checked(cfg(fg_cores, 4), |c| {
            c.am_config(kneighbor::fine_am_config(aggregate));
            kneighbor::run_fine_on(c, fg_k, fg_msgs, fg_iters)
        });
        rows.push(("kneighbor_fine", tag, rep.end_time));
    }

    rows
}

/// Every pinned shape of the `quick` or full set ends at its pin when run
/// at `threads`.
pub fn assert_pins_hold(quick: bool, threads: u32) {
    let rows = run_shapes(quick, threads);
    assert_eq!(
        rows.len(),
        PINS.iter().filter(|p| p.2 == quick).count(),
        "every pinned shape runs once"
    );
    let drifted: Vec<String> = rows
        .iter()
        .filter_map(|&(name, layer, vend)| {
            let pin = pin_for(name, layer, quick);
            (pin != Some(vend))
                .then(|| format!("{name}/{layer}: ended at {vend} ns, pinned {pin:?}"))
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "virtual-time drift (quick={quick}, threads={threads}): {drifted:?}"
    );
}
