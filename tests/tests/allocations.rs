//! Heap allocations per message, counted by a global allocator that keeps
//! one count per thread (the harness runs tests on parallel threads).
//!
//! An encoded envelope's wire buffer is one block whatever the payload:
//! reference counts and header, then either a copy of the payload (when
//! the copy costs no memory: a payload of a few dozen bytes, or one of up
//! to 1 KiB that the envelope alone owns) or the payload's handle, which
//! shares the sender's allocation. An empty `Bytes` owns nothing, and an
//! aggregated typed AM costs an allocation only through the few blocks
//! its batch needs.

mod common;

use bytes::Bytes;
use charm_apps::LayerKind;
use charm_rt::msg::HEADER_BYTES;
use charm_rt::prelude::*;
use common::{HOPPER_CORES_PER_NODE, HOPPER_PES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, OnceLock};

struct Counting;

thread_local! {
    static ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Count one allocation of `bytes` bytes.
fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// count is a thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc`, passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed`, passed on unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the heap allocations it made on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let ((n, _), r) = allocated(f);
    (n, r)
}

/// `f`'s result, and the heap allocations it made on this thread and the
/// bytes they asked for.
fn allocated<R>(f: impl FnOnce() -> R) -> ((u64, u64), R) {
    let (n0, b0) = ALLOCS.with(Cell::get);
    let r = f();
    let (n1, b1) = ALLOCS.with(Cell::get);
    ((n1 - n0, b1 - b0), r)
}

fn envelope(payload: Bytes) -> Envelope {
    Envelope::new(1, 2, HandlerId(3), payload)
}

#[test]
fn a_small_envelope_encodes_into_one_allocation() {
    let e = envelope(Bytes::from(vec![7u8; 24]));
    let (n, wire) = allocations(|| e.encode());
    assert_eq!(n, 1, "reference counts, header and payload in one block");
    assert_eq!(Envelope::from_wire(wire), e);
}

#[test]
fn a_large_envelope_is_one_allocation_and_keeps_the_senders_payload() {
    let payload = Bytes::from(vec![7u8; 4096]);
    let e = envelope(payload.clone());
    let (n, wire) = allocations(|| e.encode());
    assert_eq!(n, 1, "counts, header and the payload's handle in one block");
    let d = Envelope::from_wire(wire);
    assert_eq!(d.payload.as_ptr(), payload.as_ptr());
}

#[test]
fn a_shared_payload_is_one_allocation_and_reaches_the_handler_in_place() {
    let sender = Bytes::from(vec![7u8; 1024]);
    let e = envelope(sender.slice(..512));
    let (n, wire) = allocations(|| e.encode());
    assert_eq!(
        n, 1,
        "one block: the sender still holds the payload, no copy"
    );
    assert_eq!(Envelope::from_wire(wire).payload.as_ptr(), sender.as_ptr());

    // And through a machine layer, into a handler.
    let mut c = LayerKind::Ideal(1_000).cluster(2, 1);
    let got: Arc<OnceLock<usize>> = Arc::new(OnceLock::new());
    let seen = got.clone();
    let h = c.register_handler(move |_, env| {
        seen.set(env.payload.as_ptr() as usize).unwrap();
    });
    let payload = sender.slice(..512);
    let kick = c.register_handler(move |ctx, _| ctx.send(1, h, payload.clone()));
    c.inject(0, 0, kick, Bytes::new());
    c.run();
    assert_eq!(got.get(), Some(&(sender.as_ptr() as usize)));
}

#[test]
fn a_sole_owned_payload_up_to_a_kibibyte_is_copied_into_one_allocation() {
    let e = envelope(Bytes::from(vec![7u8; 512]));
    let sent_at = e.payload.as_ptr();
    let (n, wire) = allocations(|| e.encode());
    assert_eq!(
        n, 1,
        "counts, header and a copy of the payload in one block"
    );
    let body = wire[HEADER_BYTES..].as_ptr();
    assert_ne!(body, sent_at, "a copy: the original goes with the envelope");
    assert_eq!(Envelope::from_wire(wire).payload.as_ptr(), body);
}

#[test]
fn a_shared_payload_no_larger_than_a_handle_and_its_bookkeeping_is_copied() {
    let sender = Bytes::from(vec![7u8; 24]);
    let e = envelope(sender.clone());
    let (n, wire) = allocations(|| e.encode());
    assert_eq!(n, 1);
    let d = Envelope::from_wire(wire);
    assert_ne!(d.payload.as_ptr(), sender.as_ptr(), "copied, not shared");
    assert_eq!(d.payload, sender);
}

/// Heap allocations and bytes allocated over the run of a token ring:
/// `pes` PEs on `layer`, `laps` times round, so each hop encodes and
/// delivers one envelope (`laps * pes + 1` messages, the kick included).
/// Every hop forwards the 24-byte payload it received, or, given `shared`,
/// sends a clone of that buffer, which the ring holds throughout
/// (kNeighbor's one buffer per PE).
fn ring(layer: &LayerKind, pes: u32, laps: u64, shared: Option<Bytes>) -> (u64, u64) {
    let mut c = layer.cluster(pes, 4);
    c.init_user(|_| 0u64);
    let cell: Arc<OnceLock<HandlerId>> = Arc::new(OnceLock::new());
    let next = cell.clone();
    let hop = c.register_handler(move |ctx, env| {
        if ctx.pe() == 0 {
            let lap = ctx.user::<u64>();
            *lap += 1;
            if *lap > laps {
                return;
            }
        }
        let dst = (ctx.pe() + 1) % ctx.num_pes();
        let payload = match &shared {
            Some(b) => b.clone(),
            None => env.payload,
        };
        ctx.send(dst, *next.get().unwrap(), payload);
    });
    cell.set(hop).unwrap();
    c.inject(0, 0, hop, Bytes::from(vec![0u8; 24]));
    let (totals, report) = allocated(|| c.run());
    assert_eq!(
        report.stats.msgs_delivered,
        laps * pes as u64 + 1,
        "the ring ran every lap"
    );
    totals
}

#[test]
fn an_empty_bytes_allocates_nothing() {
    let full = Bytes::from(vec![1u8; 16]);
    let (n, (e, s)) = allocations(|| (Bytes::new(), full.slice(4..4)));
    assert_eq!(n, 0, "an empty handle owns no block");
    assert!(e.is_empty() && s.is_empty());
    let (n, _) = allocations(|| (e.clone(), s.slice(..)));
    assert_eq!(n, 0);
}

/// Heap allocations per typed AM of an exchange on 8 ideal-layer PEs:
/// each PE sends `sends` 16-byte data AMs to the next PE, and each is
/// acked with an empty AM. Counts data AMs and acks alike.
fn am_exchange(aggregation: bool, sends: u64) -> f64 {
    let mut c = LayerKind::Ideal(1_000).cluster(8, 4);
    c.am_config(AmConfig {
        aggregation,
        flush_delay_ns: 1_000,
        ..AmConfig::default()
    });
    c.init_user(|_| 0u64);
    let ack = c.register_am::<Bytes>(|ctx, _, _| *ctx.user::<u64>() += 1);
    let data = c.register_am::<Bytes>(move |ctx, src, _| {
        *ctx.user::<u64>() += 1;
        ctx.am_send(src, ack, Bytes::new());
    });
    let payload = Bytes::from(vec![0u8; 16]);
    let kick = c.register_handler(move |ctx, _| {
        let dst = (ctx.pe() + 1) % ctx.num_pes();
        for _ in 0..sends {
            ctx.am_send(dst, data, payload.clone());
        }
    });
    for pe in 0..8 {
        c.inject(0, pe, kick, Bytes::new());
    }
    let (n, _) = allocations(|| c.run());
    let ams: u64 = (0..8).map(|pe| *c.user::<u64>(pe)).sum();
    assert_eq!(ams, 2 * 8 * sends, "every data AM and every ack arrived");
    n as f64 / ams as f64
}

#[test]
fn aggregated_ams_allocate_once_per_batch_not_per_am() {
    let off = am_exchange(false, 2_000);
    let on = am_exchange(true, 2_000);
    println!("allocations per AM: aggregation off {off:.3}, on {on:.3}");
    // A batch of 16-byte frames carries ~40 AMs for its few blocks; an
    // allocation per empty ack alone would read 0.5.
    assert!(on < 0.1, "{on:.3} allocations per aggregated AM");
}

#[test]
fn a_ring_reports_its_allocations_per_delivered_message() {
    let shared = Bytes::from(vec![0u8; 512]);
    let delivered = (250 * 8 + 1) as f64;
    // A debug build's memory pool also keeps a set of the blocks it hands
    // out: over uGNI's run, two more allocations of 84 bytes.
    let debug = u64::from(cfg!(debug_assertions));
    for layer in [LayerKind::Ideal(1_000), LayerKind::ugni(), LayerKind::mpi()] {
        for (what, payload) in [("forwarded 24 B", None), ("shared 512 B", Some(&shared))] {
            let (n, b) = ring(&layer, 8, 250, payload.cloned());
            let (per_msg, bytes) = (n as f64 / delivered, b as f64 / delivered);
            println!(
                "{}, {what}: {per_msg:.4} allocations and {bytes:.2} bytes per delivered message ({n}, {b} in all)",
                layer.name()
            );
            // The most the two machine layers allocate over the run, as
            // measured: a count that rises is a regression.
            let (most, most_bytes) = match (&layer, payload) {
                (LayerKind::Ideal(_), _) => {
                    // The wire buffer, plus the cluster's first touches
                    // spread over the run; a second block per message reads
                    // above 2.
                    assert!(
                        per_msg < 1.5,
                        "{what}: {per_msg:.2} allocations per message"
                    );
                    // A copy of a shared 512-byte payload alone would be 512.
                    assert!(bytes < 256.0, "{what}: {bytes:.0} bytes per message");
                    continue;
                }
                (LayerKind::Ugni(_), None) => (4_096 + 2 * debug, 232_668 + 168 * debug),
                (LayerKind::Ugni(_), Some(_)) => (4_096 + 2 * debug, 328_668 + 168 * debug),
                (LayerKind::Mpi(_), None) => (4_095, 278_980),
                (LayerKind::Mpi(_), Some(_)) => (4_095, 374_980),
            };
            assert!(
                n <= most && b <= most_bytes,
                "{}, {what}: {n} allocations and {b} bytes, at most {most} and {most_bytes}",
                layer.name()
            );
        }
    }
}

/// A fabric transaction, once its connection and the pages of the links
/// and NICs it touches are warm, allocates nothing: its route is walked
/// link by link, not built. Covers every mechanism over one multi-hop
/// route: SMSG, MSGQ, an FMA PUT and a BTE GET (whose request leg crosses
/// the route the other way).
#[test]
fn a_warm_fabric_transaction_allocates_nothing() {
    use gemini_net::{Fabric, GeminiParams, Mechanism, RdmaOp};
    let mut f = Fabric::new(GeminiParams::hopper(), 512);
    let (a, b) = (f.topo.node_at((0, 0, 0)), f.topo.node_at((5, 3, 7)));
    assert_eq!(f.topo.hops(a, b), 15, "hops in every dimension");
    let each = |f: &mut Fabric, now| {
        f.smsg_send(now, a, b, (0, 1), 64).unwrap();
        f.msgq_send(now, a, b, 64).unwrap();
        f.rdma(now, a, b, 4096, Mechanism::Fma, RdmaOp::Put);
        f.rdma(now, a, b, 1 << 20, Mechanism::Bte, RdmaOp::Get);
    };
    each(&mut f, 0);
    // A millisecond apart, so every earlier transaction has drained and
    // no per-connection queue of in-flight credits grows.
    let (n, _) = allocations(|| (1..=100).for_each(|i| each(&mut f, i * 1_000_000)));
    assert_eq!(n, 0, "allocations over 400 warm transactions");
    assert_eq!(f.stats.bte_transactions, 101);
}

/// What one message between two idle, far-apart PEs of a whole-Hopper
/// uGNI machine (153,216 PEs, 24 per node) first-touches: the heap
/// allocations made during `run()`, and the pages materialized in the
/// PE table, the fabric's tables and the trace. Counts, not bytes: how a
/// page is laid out may change, how many are touched may not, unless a
/// change means to move these numbers.
#[test]
fn one_message_across_hopper_first_touches_a_pinned_footprint() {
    let mut c = LayerKind::ugni().cluster(HOPPER_PES, HOPPER_CORES_PER_NODE);
    let far = HOPPER_PES / 2 + 7;
    let sink = c.register_handler(|_, _| {});
    let kick = c.register_handler(move |ctx, _| ctx.send(far, sink, Bytes::from(vec![9u8; 24])));
    c.inject(0, 0, kick, Bytes::new());
    let (n, report) = allocations(|| c.run());
    assert_eq!(report.stats.msgs_delivered, 2, "the kick and the message");
    let pe_pages = c.materialized_pe_pages();
    let trace_pages = c.trace().materialized_pages();
    let fabric_pages = c
        .layer_mut::<lrts_ugni::UgniLayer>()
        .gni()
        .fabric()
        .materialized_pages();
    println!(
        "first touch: {n} allocations, {pe_pages} PE pages, {fabric_pages} fabric pages, {trace_pages} trace pages"
    );
    // A debug build's memory pool also keeps a set of the blocks it handed
    // out, to catch double allocations and frees: one more allocation.
    // `inject` touches no per-PE state, so PE 0's page is first touched
    // (and counted) inside `run`.
    let allocs = 48 + u64::from(cfg!(debug_assertions));
    assert_eq!(
        (n, pe_pages, fabric_pages, trace_pages),
        (allocs, 2, 20, 0),
        "(allocations, PE pages, fabric pages, trace pages)"
    );
}

/// Heap allocations and flushed batches of `rounds` rounds of a
/// ping-pong on 2 ideal-layer PEs: PE 0 sends PE 1 `per_round`
/// aggregated `u64` AMs (16-byte frames) under `max_batch_bytes`, and
/// PE 1 answers the round's last one with a plain send that starts the
/// next round.
fn am_rounds(max_batch_bytes: usize, per_round: u64, rounds: u64) -> (u64, u64) {
    let mut c = LayerKind::Ideal(1_000).cluster(2, 1);
    c.am_config(AmConfig {
        aggregation: true,
        max_batch_bytes,
        ..AmConfig::default()
    });
    c.init_user(|_| 0u64);
    let cell: Arc<OnceLock<HandlerId>> = Arc::new(OnceLock::new());
    let next = cell.clone();
    let am = c.register_am::<u64>(move |ctx, src, _| {
        let got = ctx.user::<u64>();
        *got += 1;
        if *got % per_round == 0 {
            ctx.send(src, *next.get().unwrap(), Bytes::new());
        }
    });
    let round = c.register_handler(move |ctx, _| {
        let done = ctx.user::<u64>();
        *done += 1;
        if *done > rounds {
            return;
        }
        for i in 0..per_round {
            ctx.am_send(1, am, i);
        }
    });
    cell.set(round).unwrap();
    c.inject(0, 0, round, Bytes::new());
    let (n, report) = allocations(|| c.run());
    assert_eq!(*c.user::<u64>(1), per_round * rounds, "every AM arrived");
    (n, report.stats.am_batches)
}

#[test]
fn a_flushed_batch_reuses_its_coalescing_buffer() {
    // A batch of three 16-byte frames and a default one of 63.
    for (max_batch_bytes, per_round) in [(64, 10), (1024, 200)] {
        let (n1, b1) = am_rounds(max_batch_bytes, per_round, 100);
        let (n2, b2) = am_rounds(max_batch_bytes, per_round, 200);
        // Steady state: what the second hundred rounds add. Each round
        // allocates three blocks besides its batches (the flush-timer
        // tick's payload and envelope, and the reply).
        let (n, batches) = (n2 - n1, b2 - b1);
        let per_batch = (n - 3 * 100) as f64 / batches as f64;
        println!(
            "{max_batch_bytes} B batches: {per_batch:.3} allocations per flushed batch ({n} over {batches} batches)"
        );
        // Two per batch: the handle that adopts the buffer and the wire
        // buffer the encode copies it into; queue growth spread over the
        // run adds a few hundredths. A coalescing buffer grown afresh for
        // every batch reads above 4.
        assert!(
            per_batch <= 2.03,
            "{max_batch_bytes} B: {per_batch:.3} allocations per flushed batch"
        );
    }
}
