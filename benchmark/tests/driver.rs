//! The ring driver drives the code path the figures use, its inputs come
//! from the seed, and the tracing decorator is invisible to the
//! simulation.

use charm_apps::kneighbor::{kneighbor_fine_report, kneighbor_report};
use charm_apps::LayerKind;
use charm_benchmark::driver::{build, outcome, plain_ring, RingInput};
use charm_benchmark::span::{self, Op};
use charm_benchmark::workloads::{ring_input, Layer, RingShape, Sizes};
use charm_rt::prelude::*;
use lrts_ugni::UgniLayer;
use std::sync::Arc;

/// `ClusterCfg::new`'s seed, which the apps run with.
const APP_SEED: u64 = 0xC0FFEE;

fn plain(layer: LayerKind, cores: u32, cpn: u32, k: u32, msgs: u32, iters: u32) -> RingInput {
    RingInput {
        layer,
        cores,
        cores_per_node: cpn,
        neighbors: plain_ring(cores, k),
        fanout: 2 * k,
        msgs,
        iters,
        sizes: Arc::new([16]),
        ack_echo: false,
        aggregation: false,
        threads: 1,
        seed: APP_SEED,
    }
}

fn run(inp: &RingInput) -> RunReport {
    let mut c = build::<false>(inp);
    let report = c.run();
    assert_eq!(outcome(&c, inp).failed, 0);
    report
}

#[test]
fn plain_ring_reproduces_kneighbor_fine_report() {
    for aggregation in [false, true] {
        let (_, app) = kneighbor_fine_report(&LayerKind::ugni(), 12, 4, 2, 8, 6, aggregation);
        let inp = RingInput {
            aggregation,
            ..plain(LayerKind::ugni(), 12, 4, 2, 8, 6)
        };
        let mine = run(&inp);
        assert_eq!(mine.stats, app.stats, "aggregation {aggregation}");
        assert_eq!(mine.end_time, app.end_time, "aggregation {aggregation}");
    }
}

#[test]
fn plain_ring_reproduces_kneighbor_report() {
    for (layer, bytes) in [
        (LayerKind::ugni(), 512),
        (LayerKind::ugni(), 262_144),
        (LayerKind::mpi(), 4096),
        (LayerKind::mpi(), 65_536),
    ] {
        let (_, app) = kneighbor_report(&layer, 10, 2, 2, bytes, 5);
        let inp = RingInput {
            sizes: Arc::new([bytes as u32]),
            ack_echo: true,
            ..plain(layer.clone(), 10, 2, 2, 1, 5)
        };
        let mine = run(&inp);
        assert_eq!(mine.stats, app.stats, "{} {bytes} B", layer.name());
        assert_eq!(mine.end_time, app.end_time, "{} {bytes} B", layer.name());
    }
}

const SHAPE: RingShape = RingShape {
    layer: Layer::Ugni,
    cores: 32,
    cores_per_node: 4,
    offsets: &[5, 9],
    msgs: 4,
    iters: 3,
    sizes: Sizes::Uniform { lo: 8, hi: 900 },
    ack_echo: false,
    aggregation: false,
    threads: 1,
};

#[test]
fn the_seed_generates_the_inputs() {
    let (a, b, other) = (
        ring_input(&SHAPE, 7),
        ring_input(&SHAPE, 7),
        ring_input(&SHAPE, 8),
    );
    assert_eq!(a.sizes, b.sizes);
    assert_ne!(a.sizes, other.sizes);
    assert!(a.sizes.iter().all(|s| (8..=900).contains(s)));
    // The table is symmetric: q lists p as often as p lists q.
    let lists = |p: u32, q: u32| {
        let row = &a.neighbors[(p * a.fanout) as usize..((p + 1) * a.fanout) as usize];
        row.iter().filter(|&&n| n == q).count()
    };
    for p in 0..a.cores {
        for q in 0..a.cores {
            assert_eq!(lists(p, q), lists(q, p), "PEs {p} and {q}");
        }
    }

    let (ra, rb, ro) = (run(&a), run(&b), run(&other));
    assert_eq!(ra.stats, rb.stats);
    assert_eq!(ra.end_time, rb.end_time);
    assert_ne!(
        ra.end_time, ro.end_time,
        "another seed, the same virtual time"
    );
}

#[test]
fn timed_layer_is_invisible_and_forwards_as_any() {
    let inp = ring_input(&SHAPE, 7);
    let plain = run(&inp);

    span::start();
    let mut c = build::<true>(&inp);
    let traced = {
        let _g = span::span::<true>(Op::Run);
        c.run()
    };
    let spans = span::finish();
    assert_eq!(traced.stats, plain.stats);
    assert_eq!(traced.end_time, plain.end_time);

    // The decorator forwards `as_any`: the real layer is still reachable.
    let small = c.layer_mut::<UgniLayer>().stats.small_msgs;
    assert!(small > 0);

    // Every boundary was seen, as often as the exact counters say.
    assert_eq!(spans.of(Op::Run).count, 1);
    assert_eq!(spans.of(Op::LayerInit).count, 1);
    assert_eq!(spans.of(Op::SyncSend).count, traced.stats.net_msgs);
    assert_eq!(spans.of(Op::Handler).count, traced.stats.handlers_run);
    assert_eq!(spans.of(Op::AmSend).count, traced.stats.msgs_sent);
    assert!(spans.of(Op::OnEvent).count > 0);
    // Self times partition the roots exactly (init is a root of its own).
    assert_eq!(
        spans.self_sum_ns(),
        spans.of(Op::Run).total_ns + spans.of(Op::LayerInit).total_ns
    );

    // The raw spans carry parents, and the Chrome trace is valid JSON.
    assert!(spans.raw.iter().any(|r| r.parent != 0));
    let trace = charm_benchmark::json::parse(&spans.chrome_trace()).expect("chrome trace parses");
    let events = trace
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("events");
    assert_eq!(events.len(), spans.raw.len());
}
