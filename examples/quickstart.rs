//! Quickstart: bring up a simulated Cray XE6 job, register a handler, and
//! bounce a message across nodes over the uGNI machine layer.
//!
//! ```text
//! cargo run --release -p charm-examples --bin quickstart
//! ```

use charm_apps::LayerKind;
use charm_rt::prelude::*;
use lrts_ugni::UgniLayer;

fn main() {
    // 8 PEs, 2 cores per node -> 4 simulated Gemini nodes. Every run knob
    // (threads, trace_bucket, seed, ...) is a field of this value.
    let cfg = ClusterCfg::new(8, 2);
    let mut cluster = LayerKind::ugni().build(cfg);

    // A Converse handler: forward the token to the next PE, stop after one
    // full circle.
    let relay = cluster.register_handler(|ctx, env| {
        let hops = wire::unpack_u64(&env.payload, 0);
        println!(
            "PE {:>2} (node {}) got the token at t = {}",
            ctx.pe(),
            ctx.node(),
            sim_core::time::fmt(ctx.now()),
        );
        if hops == 0 {
            ctx.stop();
            return;
        }
        ctx.charge(2_000); // pretend to compute for 2 us
        let next = (ctx.pe() + 1) % ctx.num_pes();
        ctx.send(next, env.handler, wire::pack_u64s(&[hops - 1]));
    });

    cluster.inject(0, 0, relay, wire::pack_u64s(&[8]));
    let report = cluster.run();

    println!("\ndone at t = {}", sim_core::time::fmt(report.end_time));
    println!(
        "messages: {} sent / {} delivered; handler executions: {}",
        report.stats.msgs_sent, report.stats.msgs_delivered, report.stats.handlers_run
    );
    let (busy, ovh, idle) = cluster.trace().utilization(None);
    println!(
        "utilization: {:.1}% busy, {:.1}% runtime overhead, {:.1}% idle",
        busy * 100.0,
        ovh * 100.0,
        idle * 100.0
    );
    // The machine layer is yours to read too.
    let layer = cluster.layer_mut::<UgniLayer>();
    println!(
        "uGNI layer: {} small (SMSG) messages, {} rendezvous",
        layer.stats.small_msgs, layer.stats.rendezvous_msgs
    );
    assert!(report.stopped_early, "token never completed the ring");
}
