//! The seven workloads and the seeded generation of their inputs.
//!
//! A workload is a fixed *shape* (layer, machine size, ring offsets,
//! amount of work) plus inputs drawn from the seed: the size of every
//! data message, inside the shape's size class, and `ClusterCfg::seed`.
//! The shapes are sized so one repetition takes two to five seconds on
//! the reference host; a run repeats it until `--seconds` is used.
//!
//! The seed must not move a workload between cost regimes, or ten seeds
//! would spread wider than any bound. That is why the ring offsets are
//! part of the shape and not drawn: on the 16-node torus they decide
//! which exchanges stay inside a node and which links are shared, and
//! drawing them (from 4..=31) moved `rdma_large`'s virtual end time by
//! 20 % between seeds (sizes alone: 1-2 %). Size classes stay on one
//! protocol path.

use crate::driver::{ring_with_offsets, RingInput};
use charm_apps::jacobi2d::{jacobi_sequential, JacobiConfig};
use charm_apps::minimd::{MdConfig, System};
use charm_apps::nqueens::{calibrated_seq_ns, count_tasks, NqConfig, WorkMode};
use charm_apps::LayerKind;
use sim_core::DetRng;
use std::sync::Arc;

/// Entries in the seeded size table (prime, so per-PE walks that start
/// 131 apart do not alias).
const SIZE_TABLE_LEN: usize = 4093;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Ugni,
    Mpi,
}

/// How the seed picks data-AM sizes.
#[derive(Debug, Clone, Copy)]
pub enum Sizes {
    /// Uniform in `lo..=hi` bytes.
    Uniform { lo: u32, hi: u32 },
    /// One of a few sizes, equally likely.
    Choice(&'static [u32]),
}

#[derive(Debug, Clone, Copy)]
pub struct RingShape {
    pub layer: Layer,
    pub cores: u32,
    pub cores_per_node: u32,
    /// Ring offsets: PE p exchanges with p +- d for each.
    pub offsets: &'static [u32],
    pub msgs: u32,
    pub iters: u32,
    pub sizes: Sizes,
    pub ack_echo: bool,
    pub aggregation: bool,
    pub threads: u32,
}

#[derive(Debug, Clone, Copy)]
pub struct AppsShape {
    pub pes: u32,
    pub cores_per_node: u32,
    pub queens: u32,
    pub queens_threshold: u32,
    pub md_steps: u32,
    pub jacobi: (u32, u32, u32),
}

#[derive(Debug, Clone, Copy)]
pub enum Shape {
    Ring(RingShape),
    Apps(AppsShape),
}

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why the workload exists.
    pub why: &'static str,
    pub shape: Shape,
}

/// 16 nodes x 4 cores, three neighbours either side.
const SMALL: RingShape = RingShape {
    layer: Layer::Ugni,
    cores: 64,
    cores_per_node: 4,
    // The plain k = 3 ring of the kNeighbor figures: with 4 cores per
    // node about half the exchanges stay inside a node (pxshm), the rest
    // go one node over.
    offsets: &[1, 2, 3],
    msgs: 16,
    iters: 130,
    sizes: Sizes::Uniform { lo: 8, hi: 24 },
    ack_echo: false,
    aggregation: false,
    threads: 1,
};

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "smsg_fine",
        why: "uGNI, 64 PEs, 16 tiny AMs per neighbour: per-event engine cost (queue, scheduler, codec, SMSG) is everything",
        shape: Shape::Ring(SMALL),
    },
    Workload {
        name: "smsg_fine_agg",
        why: "same traffic with AM aggregation on: fewer, larger, dearer events through the batching path",
        shape: Shape::Ring(RingShape {
            aggregation: true,
            iters: 750,
            ..SMALL
        }),
    },
    Workload {
        name: "rdma_large",
        why: "64 KiB-1 MiB payloads: mempool, registration, BTE GET and link reservation carry the work, the queue little",
        shape: Shape::Ring(RingShape {
            msgs: 1,
            iters: 1100,
            sizes: Sizes::Choice(&[64 << 10, 256 << 10, 1 << 20]),
            ack_echo: true,
            ..SMALL
        }),
    },
    Workload {
        name: "mpi_mid",
        why: "MPI machine layer, 1-64 KiB: mpi-sim matching, uDREG, eager and rendezvous; second client of ugni/gemini-net",
        shape: Shape::Ring(RingShape {
            layer: Layer::Mpi,
            msgs: 1,
            iters: 1000,
            sizes: Sizes::Choice(&[1 << 10, 4 << 10, 64 << 10]),
            ack_echo: true,
            ..SMALL
        }),
    },
    Workload {
        name: "smsg_fine_par2",
        why: "smsg_fine traffic on the 2-thread parallel engine: the coordinator's window protocol and replay, barrier waits, pool CPU",
        shape: Shape::Ring(RingShape {
            threads: 2,
            // One iteration costs about four of smsg_fine's: the
            // coordinating thread splits, harvests and replays every
            // lookahead window (three quarters of the CPU time; the two
            // pool threads wait for it), so fewer iterations fill a
            // repetition.
            iters: 32,
            ..SMALL
        }),
    },
    Workload {
        name: "hopper_dense",
        why: "153,216 PEs (full Hopper), working set far beyond caches: set-up, RSS, flyweight pages and deep queues dominate",
        shape: Shape::Ring(RingShape {
            cores: 153_216,
            cores_per_node: 24,
            // Adjacent PEs, as in BENCH_scale's row: 23 of 24 exchanges
            // stay inside the node (pxshm).
            offsets: &[1],
            msgs: 1,
            iters: 1,
            // Above the 256 B SMSG limit of a 6,384-node job: one
            // protocol path for the whole class.
            sizes: Sizes::Uniform { lo: 384, hi: 640 },
            ack_echo: true,
            ..SMALL
        }),
    },
    Workload {
        name: "apps_irregular",
        why: "N-Queens, miniMD and Jacobi entry points at 96 PEs: chare arrays, reductions, ssse, priorities, pxshm, multicasts",
        shape: Shape::Apps(AppsShape {
            pes: 96,
            cores_per_node: 24,
            queens: 14,
            queens_threshold: 7,
            md_steps: 20,
            jacobi: (384, 8, 100),
        }),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Generate a ring workload's inputs from the seed.
pub fn ring_input(s: &RingShape, seed: u64) -> RingInput {
    let mut rng = DetRng::derive(seed, 1);
    let sizes: Arc<[u32]> = (0..SIZE_TABLE_LEN)
        .map(|_| match s.sizes {
            Sizes::Uniform { lo, hi } => rng.range(lo as u64, hi as u64 + 1) as u32,
            Sizes::Choice(c) => c[rng.below(c.len() as u64) as usize],
        })
        .collect();
    RingInput {
        layer: match s.layer {
            Layer::Ugni => LayerKind::ugni(),
            Layer::Mpi => LayerKind::mpi(),
        },
        cores: s.cores,
        cores_per_node: s.cores_per_node,
        neighbors: ring_with_offsets(s.cores, s.offsets),
        fanout: 2 * s.offsets.len() as u32,
        msgs: s.msgs,
        iters: s.iters,
        sizes,
        ack_echo: s.ack_echo,
        aggregation: s.aggregation,
        threads: s.threads,
        seed,
    }
}

/// Seeded inputs of `apps_irregular`.
pub struct AppsInput {
    pub pes: u32,
    pub cores_per_node: u32,
    pub nq: NqConfig,
    pub md: MdConfig,
    pub jacobi: JacobiConfig,
}

pub fn apps_input(s: &AppsShape, seed: u64) -> AppsInput {
    let (n, blocks, iters) = s.jacobi;
    let mut md = MdConfig::for_system(System::Apoa1, s.md_steps);
    md.seed = seed;
    AppsInput {
        pes: s.pes,
        cores_per_node: s.cores_per_node,
        nq: NqConfig {
            n: s.queens,
            threshold: s.queens_threshold,
            mode: WorkMode::Modeled {
                total_seq_ns: calibrated_seq_ns(s.queens),
                alpha: 1.2,
            },
            seed,
        },
        md,
        jacobi: JacobiConfig { n, blocks, iters },
    }
}

/// What `apps_irregular`'s outputs are checked against. The benchmark's
/// own reference code, so a run computes it once, outside every timed
/// interval; neither depends on the seed.
pub struct AppsRefs {
    /// Tasks N-Queens must execute (leaves + expansions).
    pub nq_tasks: u64,
    /// The grid of the sequential Jacobi sweep.
    pub jacobi_grid: Vec<f64>,
}

pub fn apps_refs(s: &AppsShape) -> AppsRefs {
    let (leaves, inner) = count_tasks(s.queens, s.queens_threshold);
    let (n, _, iters) = s.jacobi;
    AppsRefs {
        nq_tasks: leaves + inner,
        jacobi_grid: jacobi_sequential(n, iters).0,
    }
}
