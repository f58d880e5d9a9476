//! The benchmark's contract in one place: every metric's name, unit,
//! direction and bound. `BENCHMARK.json` at the repository root and
//! `metrics.json` beside this package are printed from these tables
//! (`charm-benchmark spec [--full]`) and a test keeps them in step.

use crate::json::Json;
use crate::workloads::WORKLOADS;

/// Seconds one run measures (`run_seconds`).
pub const RUN_SECONDS: u32 = 10;
/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 20120521;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How `compare` judges one end-to-end metric: run i of A against run i
/// of B, same workload, same seed.
pub struct Judged {
    /// Share of A's median by which B's may be worse. 0 = exact: any run
    /// of B worse than its pair in A is a regression.
    pub bound: f64,
    /// Workloads whose host noise needs a wider bound (never past 10 %).
    pub bound_on: &'static [(&'static str, f64)],
    /// Medians closer than this (in the metric's unit) tie.
    pub tie_floor: f64,
}

impl Judged {
    pub fn bound_for(&self, workload: &str) -> f64 {
        self.bound_on
            .iter()
            .find(|(w, _)| *w == workload)
            .map_or(self.bound, |&(_, b)| b)
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `BENCHMARK.json`'s bound, the gate the pipeline applies to sets of
    /// ten runs at ten *different* seeds: one per metric for all
    /// workloads, and at least three times the widest spread such a set
    /// showed on the reference host (README, "Spread").
    pub bound: f64,
    /// The tighter, per-workload rule `compare` applies at paired seeds.
    pub judged: Judged,
    pub what: &'static str,
}

/// Host time: 5 %, wider where a working set beyond the caches
/// (hopper_dense 495 MiB, mpi_mid 250 MiB) or thread hand-offs
/// (smsg_fine_par2) make the host noisier.
const HOST_TIME: Judged = Judged {
    bound: 0.05,
    bound_on: &[
        ("hopper_dense", 0.08),
        ("mpi_mid", 0.08),
        ("smsg_fine_par2", 0.10),
    ],
    tie_floor: 0.0,
};

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        judged: HOST_TIME,
        what: "host wall seconds inside Cluster::run (apps_irregular: inside the three app calls) for the fixed seeded work of one repetition; the fastest of the run's repetitions. Time to solution, not events/s. smsg_fine_par2 holds its three threads on one CPU",
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        judged: HOST_TIME,
        what: "process CPU seconds, user + system, all threads (the process CPU-time clock) over the same interval of the same repetition; separates faster from burning a second core spinning",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        judged: Judged {
            bound: 0.03,
            bound_on: &[],
            tie_floor: 0.0,
        },
        what: "VmHWM of the workload's process at exit",
    },
    EndToEnd {
        name: "virt_end_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
        judged: Judged {
            bound: 0.0,
            bound_on: &[],
            tie_floor: 0.0,
        },
        what: "virtual end time of the simulation(s) of one repetition (apps_irregular: the three apps' summed). Repetitions of a run must agree exactly; a simulator-only change leaves it bit-identical at every seed, a runtime-protocol change may lower it",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        judged: Judged {
            bound: 0.10,
            bound_on: &[],
            tie_floor: 0.005,
        },
        what: "from the seed to the entry of Cluster::run: input generation, Cluster::new (with the layer's init), AM/handler registration, init_user, injects; median over every set-up of the run (the repetitions' own plus set-up-only builds made between them). apps_irregular: the seeded configurations and one LayerKind::cluster(96, 24) build-and-drop",
    },
];

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// (a) exact counter read through a `pub` path after an untraced run:
    /// repeats bit for bit at a seed.
    Counter,
    /// (a) host-time meter of an untraced run (a wall or CPU clock, or an
    /// exact counter divided by one): does not repeat exactly.
    Meter,
    /// (b) host-time spans of the traced repetition.
    Span,
    /// (c) isolated probe of a layer's public functions.
    Probe,
    /// Derived: probe ns/op x exact counter / run_s. An estimate.
    Estimate,
}

impl Source {
    pub fn as_str(self) -> &'static str {
        match self {
            Source::Counter => "a:counter",
            Source::Meter => "a:meter",
            Source::Span => "b:span",
            Source::Probe => "c:probe",
            Source::Estimate => "c:estimate",
        }
    }
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    /// The end-to-end metric it should move, and on which workload.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
        moves,
    }
}

use Better::{Higher, Lower};
use Source::{Counter, Estimate, Meter, Probe, Span};

const FINE: &str = "run_s on smsg_fine, smsg_fine_par2, hopper_dense";

pub const PER_LAYER: [PerLayer; 67] = [
    // core
    m("core.events", "count", Lower, Counter, FINE),
    m("core.events_per_s", "1/s", Higher, Meter, "diagnostic only: events / run_s"),
    m("core.handlers_run", "count", Lower, Counter, FINE),
    m("core.net_msgs", "count", Lower, Counter, "run_s and virt_end_ms on smsg_fine_agg"),
    m("core.net_bytes", "B", Lower, Counter, "run_s on rdma_large"),
    m("core.am_batches", "count", Lower, Counter, "run_s and virt_end_ms on smsg_fine_agg; 0 elsewhere"),
    m("core.am_batch_fill", "ratio", Higher, Counter, "run_s and virt_end_ms on smsg_fine_agg; 0 elsewhere"),
    m("core.virt_overhead_frac", "ratio", Lower, Counter, "virt_end_ms everywhere"),
    m("core.virt_idle_frac", "ratio", Lower, Counter, "virt_end_ms everywhere"),
    m("core.pe_pages_materialized", "count", Lower, Counter, "peak_rss_mb and setup_s on hopper_dense"),
    m("core.sync_wait_frac", "ratio", Lower, Meter, "run_s and cpu_s on smsg_fine_par2 (barrier waits summed over the three participants / run_s, so it can exceed 1); 0 elsewhere"),
    m("core.worker_cpu_frac", "ratio", Higher, Meter, "run_s on smsg_fine_par2: share of cpu_s spent off the coordinating thread, i.e. on the pool; 0 elsewhere"),
    m("core.run_self_ns_per_event", "ns", Lower, Span, FINE),
    m("core.am_send_ns_per_call", "ns", Lower, Span, "run_s on smsg_fine, smsg_fine_agg"),
    m("core.envelope_codec_small_ns", "ns", Lower, Probe, "run_s on smsg_fine"),
    m("core.envelope_codec_large_ns", "ns", Lower, Probe, "run_s on rdma_large; must stay O(1) in payload size"),
    // sim-core
    m("sim-core.queue_hold_ns_d64", "ns", Lower, Probe, "run_s on smsg_fine"),
    m("sim-core.queue_hold_ns_d64k", "ns", Lower, Probe, "run_s on hopper_dense"),
    m("sim-core.barrier_round_ns", "ns", Lower, Probe, "run_s and cpu_s on smsg_fine_par2"),
    // lrts-ugni
    m("lrts-ugni.small_msgs", "count", Lower, Counter, "run_s on smsg_fine; 0 on mpi_mid"),
    m("lrts-ugni.rendezvous_msgs", "count", Lower, Counter, "run_s on rdma_large; 0 on mpi_mid"),
    m("lrts-ugni.shm_msgs", "count", Lower, Counter, "run_s on hopper_dense"),
    m("lrts-ugni.persistent_msgs", "count", Lower, Counter, "0 on every workload (no persistent channels)"),
    m("lrts-ugni.credit_retries", "count", Lower, Counter, "virt_end_ms on smsg_fine"),
    m("lrts-ugni.sync_send_ns_per_call", "ns", Lower, Span, "run_s on smsg_fine, rdma_large; 0 on mpi_mid"),
    m("lrts-ugni.on_event_ns_per_call", "ns", Lower, Span, "run_s on smsg_fine, rdma_large; 0 on mpi_mid"),
    m("lrts-ugni.init_ns", "ns", Lower, Span, "setup_s on hopper_dense"),
    m("lrts-ugni.subtree_share", "ratio", Lower, Span, "run_s on smsg_fine, rdma_large; includes ugni, gemini-net, mempool and core callbacks beneath"),
    // lrts-mpi
    m("lrts-mpi.sync_send_ns_per_call", "ns", Lower, Span, "run_s on mpi_mid; 0 elsewhere"),
    m("lrts-mpi.on_event_ns_per_call", "ns", Lower, Span, "run_s on mpi_mid; 0 elsewhere"),
    m("lrts-mpi.subtree_share", "ratio", Lower, Span, "run_s on mpi_mid; 0 elsewhere"),
    // mpi-sim
    m("mpi-sim.eager_msgs", "count", Lower, Counter, "run_s and virt_end_ms on mpi_mid; 0 elsewhere"),
    m("mpi-sim.rndv_msgs", "count", Lower, Counter, "run_s and virt_end_ms on mpi_mid; 0 elsewhere"),
    m("mpi-sim.shm_msgs", "count", Lower, Counter, "run_s on mpi_mid (the intra-node half of the ring)"),
    m("mpi-sim.udreg_hit_ratio", "ratio", Higher, Counter, "virt_end_ms on mpi_mid"),
    m("mpi-sim.send_retries", "count", Lower, Counter, "0 without a fault plan"),
    m("mpi-sim.blocking_recv_virt_ns", "ns", Lower, Counter, "virt_end_ms on mpi_mid"),
    m("mpi-sim.eager_cycle_ns", "ns", Lower, Probe, "run_s on mpi_mid"),
    m("mpi-sim.rndv_cycle_ns", "ns", Lower, Probe, "run_s on mpi_mid"),
    m("mpi-sim.iprobe_miss_ns", "ns", Lower, Probe, "run_s on mpi_mid"),
    m("mpi-sim.est_share", "ratio", Lower, Estimate, "run_s on mpi_mid; 0 elsewhere"),
    // ugni
    m("ugni.smsg_cycle_ns", "ns", Lower, Probe, "run_s on smsg_fine, mpi_mid"),
    m("ugni.rdma_cycle_ns", "ns", Lower, Probe, "run_s on rdma_large"),
    m("ugni.est_share", "ratio", Lower, Estimate, "run_s on smsg_fine, rdma_large, mpi_mid"),
    // gemini-net
    m("gemini-net.smsg_sends", "count", Lower, Counter, "run_s on smsg_fine"),
    m("gemini-net.fma_transactions", "count", Lower, Counter, "run_s on mpi_mid"),
    m("gemini-net.bte_transactions", "count", Lower, Counter, "run_s on rdma_large"),
    m("gemini-net.rdma_bytes", "B", Lower, Counter, "virt_end_ms on rdma_large"),
    m("gemini-net.credit_stalls", "count", Lower, Counter, "virt_end_ms on smsg_fine"),
    m("gemini-net.link_bytes", "B", Lower, Counter, "virt_end_ms on rdma_large"),
    m("gemini-net.route_ns", "ns", Lower, Probe, "run_s on rdma_large, hopper_dense"),
    m("gemini-net.smsg_send_ns", "ns", Lower, Probe, "run_s on smsg_fine"),
    m("gemini-net.rdma_bte_get_ns", "ns", Lower, Probe, "run_s on rdma_large, hopper_dense"),
    m("gemini-net.reg_cycle_ns", "ns", Lower, Probe, "run_s on rdma_large, hopper_dense"),
    m("gemini-net.est_share", "ratio", Lower, Estimate, "run_s on smsg_fine, rdma_large"),
    m("gemini-net.rdma_est_share", "ratio", Lower, Estimate, "run_s on rdma_large; ~0 on smsg_fine"),
    // mempool
    m("mempool.alloc_free_ns", "ns", Lower, Probe, "run_s on rdma_large"),
    m("mempool.expand_ns", "ns", Lower, Probe, "run_s on hopper_dense (first touch per PE)"),
    m("mempool.est_share", "ratio", Lower, Estimate, "run_s on rdma_large; ~0 on smsg_fine"),
    // apps
    m("apps.handler_self_ns_per_call", "ns", Lower, Span, "bounds what any runtime optimisation can save"),
    m("apps.handler_share", "ratio", Lower, Span, "bounds what any runtime optimisation can save"),
    m("apps.virt_iter_p50_us", "us", Lower, Counter, "virt_end_ms on the ring workloads"),
    m("apps.virt_iter_p99_us", "us", Lower, Counter, "virt_end_ms on the ring workloads"),
    m("apps.entry_s", "s", Lower, Span, "run_s on apps_irregular: sum of its three top-level app spans; 0 elsewhere"),
    // the traced run's own hygiene
    m("trace.overhead", "ratio", Lower, Span, "traced run_s / untraced run_s of the same process"),
    m("trace.attribution_gap", "ratio", Lower, Span, "|run span - sum of self times| / run span; the run fails above 0.05"),
    m("trace.reps", "count", Higher, Span, "traced repetitions the medians above are taken over"),
];

/// Counters no `pub` path reaches today; left for the in-program tracing
/// issue (no accessors are added by the benchmark).
pub const UNREACHABLE: [&str; 5] = [
    "per-PE mempool PoolStats inside UgniLayer (allocs, expansions, slab bytes)",
    "event-queue depth (peak, mean) and far-heap rebucket counts (Cluster::events is crate-private); without the depth a workload runs at, neither queue_hold probe can be scaled to a sim-core.est_share, so none is reported",
    "AM flush causes (size limit / timer / QD collect) inside core::am",
    "per-partition barrier waits of the parallel driver (only the summed take_sync_overhead_ns)",
    "counters and spans inside charm-apps entry points (they build their Cluster internally)",
];

/// `BENCHMARK.json`: exactly the keys of the builder contract.
pub fn benchmark_json() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .iter()
                .map(|s| Json::str(s))
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|e| {
                        Json::obj([
                            ("name", Json::str(e.name)),
                            ("unit", Json::str(e.unit)),
                            ("better", Json::str(e.better.as_str())),
                            ("bound", Json::Num(e.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("name", Json::str(p.name)),
                            ("unit", Json::str(p.unit)),
                            ("better", Json::str(p.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `metrics.json`: what the contract's schema has no room for — default
/// seed, definitions, sources, predicted interactions, unreachable
/// counters.
pub fn metrics_json() -> Json {
    Json::obj([
        ("default_seed", Json::Num(DEFAULT_SEED as f64)),
        ("claim", Json::Null),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|e| {
                        let j = &e.judged;
                        let on = j
                            .bound_on
                            .iter()
                            .map(|&(w, b)| (w.to_string(), Json::Num(b)));
                        Json::obj([
                            ("name", Json::str(e.name)),
                            ("definition", Json::str(e.what)),
                            (
                                "compare",
                                Json::obj([
                                    ("bound", Json::Num(j.bound)),
                                    ("bound_on", Json::Obj(on.collect())),
                                    ("tie_floor", Json::Num(j.tie_floor)),
                                ]),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("name", Json::str(p.name)),
                            ("source", Json::str(p.source.as_str())),
                            ("moves", Json::str(p.moves)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "unreachable",
            Json::Arr(UNREACHABLE.iter().map(|s| Json::str(s)).collect()),
        ),
    ])
}
