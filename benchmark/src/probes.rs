//! Isolated probes: the benchmark calls one layer's public functions
//! directly, in a loop, with a seeded op mix, and reports the median
//! ns/op of five batches. A probe's ns/op times the matching exact
//! counter of a workload, over that workload's `run_s`, is the layer's
//! `est_share` there — an estimate (a warm loop is cheaper than the same
//! call made cold between other work), and labelled so.

use crate::measure::{median, pin_to_current_cpu};
use bytes::Bytes;
use charm_rt::prelude::*;
use gemini_net::{Addr, Fabric, GeminiParams, Mechanism, RdmaOp, RegTable, Torus};
use mempool::MemPool;
use mpi_sim::{MpiConfig, MpiSim};
use sim_core::sync::WorkerPool;
use sim_core::{DetRng, EventQueue};
use std::hint::black_box;
use std::time::{Duration, Instant};
use ugni::{Gni, PostDescriptor};

const BATCHES: usize = 5;

/// Median ns per call of `op` over [`BATCHES`] batches of about
/// `batch` each (batch length calibrated by doubling).
pub fn ns_per_op(batch: Duration, mut op: impl FnMut()) -> f64 {
    let mut n = 1u64;
    let mut time = |n: u64| {
        let t0 = Instant::now();
        for _ in 0..n {
            op();
        }
        t0.elapsed()
    };
    loop {
        let took = time(n);
        if took >= batch / 4 || n >= 1 << 30 {
            // Scale to the target from the last calibration batch.
            let scale = batch.as_secs_f64() / took.as_secs_f64().max(1e-9);
            n = ((n as f64 * scale).ceil() as u64).max(1);
            break;
        }
        n *= 2;
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| time(n).as_nanos() as f64 / n as f64)
        .collect();
    median(&samples)
}

/// Every probe's `(metric name, ns/op)`, in a fixed order.
pub fn run_all(seed: u64, batch: Duration) -> Vec<(&'static str, f64)> {
    vec![
        ("core.envelope_codec_small_ns", envelope_codec(batch, 16)),
        (
            "core.envelope_codec_large_ns",
            envelope_codec(batch, 256 << 10),
        ),
        ("sim-core.queue_hold_ns_d64", queue_hold(seed, batch, 64)),
        (
            "sim-core.queue_hold_ns_d64k",
            queue_hold(seed, batch, 65_536),
        ),
        ("ugni.smsg_cycle_ns", ugni_smsg_cycle(batch)),
        ("ugni.rdma_cycle_ns", ugni_rdma_cycle(batch)),
        ("gemini-net.route_ns", torus_route(seed, batch)),
        ("gemini-net.smsg_send_ns", fabric_smsg_send(batch)),
        ("gemini-net.rdma_bte_get_ns", fabric_rdma_bte_get(batch)),
        ("gemini-net.reg_cycle_ns", reg_cycle(batch)),
        ("mempool.alloc_free_ns", mempool_alloc_free(batch)),
        ("mempool.expand_ns", mempool_expand(batch)),
        ("mpi-sim.eager_cycle_ns", mpi_cycle(batch, 1 << 10)),
        ("mpi-sim.rndv_cycle_ns", mpi_cycle(batch, 64 << 10)),
        ("mpi-sim.iprobe_miss_ns", mpi_iprobe_miss(batch)),
        // Last: it leaves the calling thread pinned.
        ("sim-core.barrier_round_ns", barrier_round(batch)),
    ]
}

/// `Envelope::encode` then `decode`. The large payload must cost the same
/// as the small one: encode chains the payload, decode slices it.
fn envelope_codec(batch: Duration, bytes: usize) -> f64 {
    let payload = Bytes::from(vec![0u8; bytes]);
    ns_per_op(batch, || {
        let env = Envelope::new(3, 5, HandlerId(2), payload.clone());
        let wire = black_box(env.encode());
        black_box(Envelope::decode(&wire));
    })
}

/// Pop one, push one at a steady depth: the hold operation of a
/// simulation in flight. Push times are the popped time plus a seeded
/// delta of the magnitudes the fabric produces (100 ns - 20 us).
fn queue_hold(seed: u64, batch: Duration, depth: usize) -> f64 {
    let mut rng = DetRng::derive(seed, 3);
    let deltas: Vec<u64> = (0..4096).map(|_| rng.range(100, 20_000)).collect();
    let mut q = EventQueue::with_capacity(depth);
    for i in 0..depth {
        q.push(deltas[i % deltas.len()], i as u64);
    }
    let mut i = 0;
    ns_per_op(batch, || {
        let (t, v) = q.pop().expect("steady depth");
        i = (i + 1) % deltas.len();
        q.push(t + deltas[i], black_box(v));
    })
}

/// One `WorkerPool::round` with an empty job on two workers: two barrier
/// crossings, the fixed cost of a parallel window. Caller and workers
/// are held on one CPU, as `smsg_fine_par2` runs: across two the same
/// round costs six times as much, and where the kernel puts unpinned
/// threads changes from run to run.
fn barrier_round(batch: Duration) -> f64 {
    pin_to_current_cpu();
    let pool = WorkerPool::new(2);
    ns_per_op(batch, || {
        pool.round(&|w| {
            black_box(w);
        })
    })
}

fn ugni_smsg_cycle(batch: Duration) -> f64 {
    let mut g = Gni::new(GeminiParams::hopper(), 2);
    let cq = g.cq_create();
    let ep = g.ep_create(0, 1, cq).expect("ep");
    let payload = Bytes::from(vec![0u8; 16]);
    let mut t = 0;
    ns_per_op(batch, || {
        t += 10_000;
        let ok = g
            .smsg_send_w_tag(t, ep, 0, payload.clone())
            .expect("credits return within 10 us");
        black_box(g.smsg_get_next_w_tag(1, 1, ok.deliver_at).expect("arrived"));
        let _ = black_box(g.cq_get_event(cq, ok.deliver_at));
    })
}

fn ugni_rdma_cycle(batch: Duration) -> f64 {
    const BYTES: u64 = 256 << 10;
    let mut g = Gni::new(GeminiParams::hopper(), 2);
    let cq = g.cq_create();
    let ep = g.ep_create(1, 0, cq).expect("ep");
    let ra = g.alloc_addr(0).expect("alloc");
    let (rh, _) = g.mem_register(0, ra, BYTES).expect("register");
    g.mem_write(0, ra, Bytes::from(vec![0u8; BYTES as usize]));
    let la = g.alloc_addr(1).expect("alloc");
    let mut t = 0;
    ns_per_op(batch, || {
        t += 1_000_000;
        let (lh, _) = g.mem_register(1, la, BYTES).expect("register");
        let ok = g
            .post_rdma(
                t,
                ep,
                PostDescriptor {
                    op: RdmaOp::Get,
                    local_mem: lh,
                    local_addr: la,
                    remote_mem: rh,
                    remote_addr: ra,
                    bytes: BYTES,
                    data: None,
                    user_id: 0,
                },
            )
            .expect("post");
        black_box(g.cq_get_event(cq, ok.local_cq_at).expect("completion"));
        g.mem_deregister(1, lh).expect("deregister");
    })
}

/// `Torus::route` between seeded node pairs on Hopper's 17 x 8 x 24.
fn torus_route(seed: u64, batch: Duration) -> f64 {
    let t = Torus::new((17, 8, 24));
    let mut rng = DetRng::derive(seed, 4);
    let n = t.num_nodes() as u64;
    let pairs: Vec<(u32, u32)> = (0..1024)
        .map(|_| (rng.below(n) as u32, rng.below(n) as u32))
        .collect();
    let mut i = 0;
    ns_per_op(batch, || {
        i = (i + 1) % pairs.len();
        let (a, b) = pairs[i];
        black_box(t.route(black_box(a), black_box(b)));
    })
}

fn fabric_smsg_send(batch: Duration) -> f64 {
    let mut f = Fabric::new(GeminiParams::hopper(), 16);
    let mut t = 0;
    ns_per_op(batch, || {
        t += 10_000;
        black_box(f.smsg_send(t, 0, 1, (0, 1), 16).expect("credits"));
    })
}

fn fabric_rdma_bte_get(batch: Duration) -> f64 {
    let mut f = Fabric::new(GeminiParams::hopper(), 16);
    let mut t = 0;
    ns_per_op(batch, || {
        t += 1_000_000;
        black_box(f.rdma(t, 1, 0, 256 << 10, Mechanism::Bte, RdmaOp::Get));
    })
}

fn reg_cycle(batch: Duration) -> f64 {
    let p = GeminiParams::hopper();
    let mut reg = RegTable::new();
    ns_per_op(batch, || {
        let (h, cost) = reg.register(&p, Addr(1 << 30), 64 << 10);
        black_box(cost);
        black_box(reg.deregister(&p, h).expect("registered"));
    })
}

fn mempool_alloc_free(batch: Duration) -> f64 {
    let p = GeminiParams::hopper();
    let mut reg = RegTable::new();
    let mut pool = MemPool::new(1 << 40);
    let (blk, _) = pool.alloc(&p, &mut reg, 16 << 10);
    pool.free(&p, &mut reg, blk);
    ns_per_op(batch, || {
        let (blk, cost) = pool.alloc(&p, &mut reg, 16 << 10);
        black_box(cost + pool.free(&p, &mut reg, blk));
    })
}

/// First allocation of a fresh pool: slab growth + registration.
fn mempool_expand(batch: Duration) -> f64 {
    let p = GeminiParams::hopper();
    ns_per_op(batch, || {
        let mut reg = RegTable::new();
        let mut pool = MemPool::new(1 << 40);
        black_box(pool.alloc(&p, &mut reg, 16 << 10));
    })
}

/// `isend` -> `iprobe` -> `recv` between two nodes, reused buffers.
fn mpi_cycle(batch: Duration, bytes: usize) -> f64 {
    let mut m = MpiSim::new(MpiConfig::default(), 2, 1);
    let payload = Bytes::from(vec![0u8; bytes]);
    let (sbuf, rbuf) = (m.fresh_buf(0), m.fresh_buf(1));
    let mut t = 0;
    ns_per_op(batch, || {
        let fx = m.isend(t, 0, 1, 0, payload.clone(), sbuf);
        let wake = fx.wakes.first().map_or(t + fx.cpu, |w| w.1);
        let (hit, cpu) = m.iprobe(wake, 1, None, None);
        assert!(hit.is_some(), "probe lost a message");
        let out = m.recv(wake + cpu, 1, Some(0), Some(0), rbuf).expect("recv");
        t = black_box(out.done_at) + 10_000;
    })
}

fn mpi_iprobe_miss(batch: Duration) -> f64 {
    let mut m = MpiSim::new(MpiConfig::default(), 2, 1);
    let mut t = 0;
    ns_per_op(batch, || {
        t += 1_000;
        black_box(m.iprobe(t, 1, None, None));
    })
}
