//! Double-run bit-identity at the `Cluster` level, fault-free.
//!
//! The chaos suite already proves replay under an active fault plan; this
//! file is the determinism backstop for the *normal* paths the clippy
//! config guards — in particular the registration-cache invalidation walk
//! in `gemini-net::reg`, which iterates its key set (a `BTreeMap`, enforced
//! by `clippy.toml`: a `HashMap` there would reshuffle deregistration order
//! between runs and shift every downstream virtual timestamp). The quick
//! virtual-time pins are checked here on the parallel engine.

mod common;

use charm_apps::jacobi2d::{run_jacobi, JacobiConfig};
use charm_apps::pingpong::{charm_bandwidth, charm_one_way};
use charm_apps::LayerKind;
use proptest::prelude::*;
use sim_core::queue::{HeapQueue, TwoLevelQueue};

fn layers() -> Vec<LayerKind> {
    vec![LayerKind::ugni(), LayerKind::mpi()]
}

#[test]
fn mixed_size_pingpong_replays_bit_for_bit() {
    // Sizes straddle the eager/rendezvous switch, so both the SMSG path
    // and the registration cache (acquire + invalidate on free) run.
    for layer in layers() {
        for &(bytes, persistent) in &[
            (64usize, false),
            (8192, false),
            (65536, false),
            (65536, true),
        ] {
            let a = charm_one_way(&layer, 1, bytes, 50, persistent);
            let b = charm_one_way(&layer, 1, bytes, 50, persistent);
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} pingpong ({bytes}B, persistent={persistent}) diverged across runs",
                layer.name()
            );
        }
    }
}

#[test]
fn bandwidth_window_replays_bit_for_bit() {
    // Windowed rendezvous traffic churns many concurrent registrations,
    // the workload most sensitive to map-iteration order.
    for layer in layers() {
        let a = charm_bandwidth(&layer, 65536, 8, 20);
        let b = charm_bandwidth(&layer, 65536, 8, 20);
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{} bandwidth run diverged across runs",
            layer.name()
        );
    }
}

/// The two-level queue must pop the exact sequence the reference heap pops —
/// this is the engine-level guarantee behind every pinned virtual time in
/// this file. A deterministic trace shaped like real simulator traffic:
/// bursts of same-time events (scheduler cascades), short hops (protocol
/// charges), long timer jumps (retry horizons), and the whole-machine
/// fan-out where every PE is delivered to and woken at one instant.
#[test]
fn two_level_queue_matches_reference_heap_on_simulator_shaped_trace() {
    let mut heap = HeapQueue::new();
    let mut two = TwoLevelQueue::new();
    let mut clock: u64 = 0;
    let mut id: u32 = 0;
    let mut state: u64 = 0x2545_F491_4F6C_DD1D;
    let mut next = || {
        // xorshift64*: deterministic, no external RNG needed here.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    for round in 0..2000 {
        let r = next();
        match r % 10 {
            // Same-time cascade: several events at one instant must pop
            // in push order.
            0 => {
                for _ in 0..(r / 10 % 5 + 2) {
                    heap.push(clock, id);
                    two.push(clock, id);
                    id += 1;
                }
            }
            // Short protocol hop.
            1..=5 => {
                let t = clock + r % 2048;
                heap.push(t, id);
                two.push(t, id);
                id += 1;
            }
            // Long timer: far beyond the near horizon.
            6 => {
                let t = clock + 100_000 + r % 1_000_000;
                heap.push(t, id);
                two.push(t, id);
                id += 1;
            }
            // Pop and advance the clock.
            _ => {
                let a = heap.pop();
                let b = two.pop();
                assert_eq!(a, b, "pop diverged at round {round}");
                if let Some((t, _)) = a {
                    clock = clock.max(t);
                }
            }
        }
        // Same-instant fan-out: one delivery per PE at a single
        // timestamp; each delivery popped wakes its PE at that same
        // timestamp, queueing behind every delivery still pending.
        if round % 500 == 499 {
            const PES: u32 = 2048;
            let t = clock + r % 4096;
            let deliveries = id..id + PES;
            for _ in 0..PES {
                heap.push(t, id);
                two.push(t, id);
                id += 1;
            }
            let mut delivered = 0;
            while delivered < PES {
                let a = heap.pop();
                assert_eq!(a, two.pop(), "fan-out diverged at round {round}");
                let (at, ev) = a.expect("deliveries pending");
                clock = clock.max(at);
                if deliveries.contains(&ev) {
                    delivered += 1;
                    heap.push(t, id);
                    two.push(t, id);
                    id += 1;
                }
            }
        }
        assert_eq!(heap.len(), two.len());
        assert_eq!(heap.peek_time(), two.peek_time());
    }
    loop {
        let a = heap.pop();
        let b = two.pop();
        assert_eq!(a, b, "drain diverged");
        if a.is_none() {
            break;
        }
    }
}

proptest! {
    /// Random (time, seq) interleavings: the two-level queue pops a
    /// FIFO-stable sort regardless of push pattern, and agrees with the
    /// reference heap at every step.
    #[test]
    fn two_level_queue_pops_fifo_stable(
        ops in proptest::collection::vec(
            proptest::option::of(0u64..500_000), 0..300)
    ) {
        let mut heap = HeapQueue::new();
        let mut two = TwoLevelQueue::new();
        let mut id = 0u32;
        for op in ops {
            match op {
                Some(t) => {
                    heap.push(t, id);
                    two.push(t, id);
                    id += 1;
                }
                None => {
                    prop_assert_eq!(heap.pop(), two.pop());
                }
            }
        }
        // Final drain (no more pushes): what comes out must be a
        // FIFO-stable sort — times never decrease, ties in push order.
        let mut drained: Vec<(u64, u32)> = Vec::new();
        while let Some(b) = two.pop() {
            prop_assert_eq!(heap.pop(), Some(b));
            drained.push(b);
        }
        prop_assert_eq!(heap.pop(), None);
        for w in drained.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO violated at t={}", w[0].0);
            }
        }
    }
}

/// The quick pinned shapes (`common/pins.rs`, once run by the retired
/// wallclock harness) end at their pins on the parallel engine at every
/// thread count: partitioning the machine across workers must never move
/// virtual time. `CHARM_TEST_THREADS` narrows the sweep.
#[test]
fn wallclock_quick_suite_virtual_times_match_pins() {
    for threads in common::thread_counts() {
        common::pins::assert_pins_hold(true, threads);
    }
}

#[test]
fn jacobi_replays_bit_for_bit_without_faults() {
    let cfg = JacobiConfig {
        n: 20,
        blocks: 4,
        iters: 10,
    };
    for layer in layers() {
        let a = run_jacobi(&layer, 8, 4, &cfg);
        let b = run_jacobi(&layer, 8, 4, &cfg);
        assert_eq!(
            (a.time_ns, a.residual.to_bits(), a.iterations_run),
            (b.time_ns, b.residual.to_bits(), b.iterations_run),
            "{} jacobi diverged across runs",
            layer.name()
        );
        assert_eq!(a.grid, b.grid, "{} grids diverged", layer.name());
    }
}
