//! Machine-size scaling: the flyweight/lazy machinery (`sim_core::LazyVec`
//! for per-PE state, fabric tables and traces; lazy CQs/pools — DESIGN.md §13)
//! must keep Hopper-and-beyond PE counts a non-problem, without moving a
//! single virtual timestamp at any size.
//!
//! Two angles:
//!
//! * a Hopper-sized (153,216-PE) and a mebi-PE machine run sparse
//!   workloads to pinned virtual end times;
//! * memory stays proportional to *touched* state: untouched PEs
//!   materialize nothing, and the whole test process stays under a
//!   peak-RSS ceiling (`VmHWM`) that an O(num_pes) eager regression
//!   would blow through.
//!
//! The dense whole-Hopper row has its own file (`scale_dense.rs`), so its
//! peak RSS is its own process's.

mod common;

use bytes::Bytes;
use charm_apps::LayerKind;
use charm_rt::pe_table::PE_PAGE_LEN;
use common::{peak_rss_bytes, HOPPER_CORES_PER_NODE, HOPPER_PES};

/// The beyond-Hopper machine: a full mebi-PE machine (64k nodes x 16).
const MILLION_PES: u32 = 1 << 20;
const MILLION_CORES_PER_NODE: u32 = 16;

/// Whole-process peak-RSS ceiling, bytes. `VmHWM` is process-wide and the
/// harness runs this binary's tests concurrently, so the ceiling covers
/// everything here together, the mebi-PE row included: measured peak is
/// ~130 MB in a debug build, while eagerly materializing the mebi-PE
/// machine's per-PE state alone would add ~400 MB more. A bust means
/// construction went O(num_pes) somewhere.
const PROCESS_RSS_CEILING: u64 = 512 * 1024 * 1024;

fn assert_under_rss_ceiling(context: &str) {
    let peak = peak_rss_bytes();
    if peak == 0 {
        return; // no /proc/self/status on this platform
    }
    assert!(
        peak <= PROCESS_RSS_CEILING,
        "{context}: process peak RSS {peak} bytes exceeds ceiling {PROCESS_RSS_CEILING}"
    );
}

/// The sparse workload: `seeds` PEs spread evenly across the machine
/// each start a relay chain that hops `hops` times by a fixed large
/// stride, so the touched set scatters over many nodes while the
/// overwhelming majority of the machine is never woken. All chain state
/// rides in the message payload — no `init_user`, which would be O(PEs)
/// by definition. Returns (events, virtual end, materialized PE pages).
fn sparse_relay(num_pes: u32, cores_per_node: u32, seeds: u32, hops: u32) -> (u64, u64, u64) {
    let mut c = LayerKind::ugni().cluster(num_pes, cores_per_node);
    // A large prime stride lands every hop on a different, far-away node.
    let stride: u32 = 600_011 % num_pes;
    let slot = std::sync::Arc::new(std::sync::OnceLock::new());
    let slot2 = slot.clone();
    let h = c.register_handler(move |ctx, env| {
        let left = u32::from_le_bytes(env.payload[..4].try_into().expect("4-byte relay payload"));
        if left > 0 {
            let dst = (ctx.pe() + stride) % num_pes;
            let payload = Bytes::copy_from_slice(&(left - 1).to_le_bytes());
            ctx.send(dst, *slot2.get().expect("handler registered"), payload);
        }
    });
    slot.set(h).expect("single registration");
    let gap = num_pes / seeds;
    for i in 0..seeds {
        c.inject(0, i * gap, h, Bytes::copy_from_slice(&hops.to_le_bytes()));
    }
    let rep = c.run();
    // Audit the run's uGNI calls, registration lifetimes on the fabric's
    // paged tables among them (a no-op unless built with `verify`).
    charm_apps::assert_contract_clean(&mut c);
    (
        rep.stats.events,
        rep.end_time,
        c.materialized_pe_pages() as u64,
    )
}

fn total_pe_pages(pes: u32) -> u64 {
    (pes as u64).div_ceil(PE_PAGE_LEN as u64)
}

/// The small end of the size range: the quick pinned shapes (8-16 PEs,
/// `common/pins.rs`) hold bit for bit on the sequential engine in a debug
/// build, so the lazy machinery costs nothing when the machine is tiny.
#[test]
fn pinned_quick_shapes_stay_bit_identical() {
    common::pins::assert_pins_hold(true, 1);
}

/// Tiny machine, same code path: the touched page count must be bounded
/// by the chain footprint, not the machine size.
#[test]
fn sparse_relay_touches_a_sliver() {
    let (events, vend, pages) = sparse_relay(64 * 1024, 16, 8, 3);
    assert!(events > 0 && vend > 0);
    assert!(pages < 64, "8 chains x 3 hops touched {pages} pages");
}

#[test]
fn vmhwm_reads_on_linux() {
    if std::path::Path::new("/proc/self/status").exists() {
        assert!(peak_rss_bytes() > 0);
    }
}

/// Hopper-sized machine (6,384 nodes x 24 cores), sparse relay: the
/// virtual end time is pinned, and only a sliver of the machine's per-PE
/// state may materialize.
#[test]
fn hopper_scale_sparse_smoke() {
    let (events, vend, pages) = sparse_relay(HOPPER_PES, HOPPER_CORES_PER_NODE, 256, 6);
    assert_eq!(events, 6_656);
    assert_eq!(vend, 148_707, "virtual end drifted at Hopper scale");
    // 256 chains x 7 touched PEs: far under a quarter of the machine.
    let total = total_pe_pages(HOPPER_PES);
    assert!(
        pages < total / 4,
        "sparse run materialized {pages} of {total} PE pages"
    );
    assert_under_rss_ceiling("hopper sparse smoke");
}

/// The mebi-PE row: 2,048 scattered relay chains of 6 hops, pinned
/// virtual end time, and a peak RSS under the 512 MiB the row is
/// budgeted (the process ceiling).
#[test]
fn million_pe_row_is_bit_identical_in_debug() {
    let (events, vend, pages) = sparse_relay(MILLION_PES, MILLION_CORES_PER_NODE, 2048, 6);
    assert_eq!(events, 53_248);
    assert_eq!(vend, 167_519, "virtual end drifted on the mebi-PE row");
    let total = total_pe_pages(MILLION_PES);
    assert!(
        pages < total / 4,
        "sparse run materialized {pages} of {total} PE pages"
    );
    assert_under_rss_ceiling("million-PE row");
}

/// Building a mebi-PE machine must materialize no per-PE state at all:
/// construction is O(nodes), first touch is what pays.
#[test]
fn million_pe_construction_materializes_nothing() {
    let c = LayerKind::ugni().cluster(MILLION_PES, MILLION_CORES_PER_NODE);
    assert_eq!(
        c.materialized_pe_pages(),
        0,
        "construction alone materialized per-PE state"
    );
    assert!(c.total_pe_pages() > 0);
    assert_under_rss_ceiling("million-PE construction");
}

/// Outside timeline mode (`trace_bucket: None`, the default) the trace
/// keeps whole-job totals only: a run that touches every one of 1,024 PEs
/// materializes no per-PE trace page, yet still accounts its work.
#[test]
fn untimed_trace_keeps_no_per_pe_state() {
    let mut c = LayerKind::ugni().cluster(1024, 16);
    assert_eq!(c.cfg.trace_bucket, None);
    charm_apps::kneighbor::run_on(&mut c, 1, 64, 2);
    assert!(c.trace().total_busy() + c.trace().total_overhead() > 0);
    assert_eq!(c.trace().materialized_pages(), 0);
}
