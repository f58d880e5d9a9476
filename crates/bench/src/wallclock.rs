//! Wall-clock benchmark harness: how fast does the *simulator* run?
//!
//! Every other harness in this crate reports virtual time — the quantity
//! the paper is about. This one reports host time: events/sec and
//! ns/event over a fixed suite of workloads (ping-pong sweeps, Jacobi2D,
//! kNeighbor, streaming bandwidth, on both machine layers), so engine
//! optimizations are measurable and regressions visible. The suite's
//! *virtual* end times are pinned: an engine change that moves wall-clock
//! is expected, one that moves virtual time is a bug, and the harness
//! fails loudly on it (`cargo run --release -p charm-bench --bin
//! wallclock`, `--quick` in CI).
//!
//! Results are written to `BENCH_wallclock.json` at the repo root so the
//! perf trajectory is machine-readable PR over PR.

use crate::Effort;
use charm_apps::jacobi2d::JacobiConfig;
use charm_apps::pingpong::{bandwidth_on, one_way_on};
use charm_apps::{jacobi2d, kneighbor, LayerKind};
use charm_rt::prelude::ClusterCfg;
use std::time::Instant;

/// Aggregate events/sec of the pre-PR engine on this suite (single global
/// `BinaryHeap` event queue, copy-on-freeze `Bytes`, unbuffered trace
/// charges), measured on the same host right before the fast-path work
/// landed. The speedup reported in `BENCH_wallclock.json` is against this
/// number; refresh it only when the suite itself changes.
pub const BASELINE_EVENTS_PER_SEC_FULL: f64 = 1_484_000.0;
/// `--quick` variant of [`BASELINE_EVENTS_PER_SEC_FULL`].
pub const BASELINE_EVENTS_PER_SEC_QUICK: f64 = 1_584_000.0;

/// One measured workload.
#[derive(Debug, Clone)]
pub struct WallRun {
    pub name: &'static str,
    pub layer: &'static str,
    /// Simulator events processed (identical on every repetition).
    pub events: u64,
    /// Deterministic fingerprint of the run: the sum of the virtual end
    /// times of every simulation the workload executes, in ns.
    pub virtual_end_ns: u64,
    /// Expected `virtual_end_ns`, pinned from the seed engine. The
    /// harness fails when they differ.
    pub pinned_end_ns: Option<u64>,
    /// Best-of-repetitions host time, ns.
    pub wall_ns: u64,
    /// Host ns the parallel engine spent blocked at barriers (spinning or
    /// parked) during the best repetition; 0 for the sequential engine.
    pub sync_overhead_ns: u64,
}

impl WallRun {
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 * 1e9 / self.wall_ns.max(1) as f64
    }

    pub fn ns_per_event(&self) -> f64 {
        self.wall_ns as f64 / self.events.max(1) as f64
    }
}

/// Whole-suite result.
#[derive(Debug, Clone)]
pub struct WallSuite {
    pub quick: bool,
    /// Worker threads the simulator ran with (1 = sequential engine).
    pub threads: u32,
    pub runs: Vec<WallRun>,
}

impl WallSuite {
    pub fn total_events(&self) -> u64 {
        self.runs.iter().map(|r| r.events).sum()
    }

    pub fn total_wall_ns(&self) -> u64 {
        self.runs.iter().map(|r| r.wall_ns).sum()
    }

    /// Aggregate barrier-wait time across the suite (best reps).
    pub fn total_sync_overhead_ns(&self) -> u64 {
        self.runs.iter().map(|r| r.sync_overhead_ns).sum()
    }

    pub fn events_per_sec(&self) -> f64 {
        self.total_events() as f64 * 1e9 / self.total_wall_ns().max(1) as f64
    }

    pub fn baseline_events_per_sec(&self) -> f64 {
        if self.quick {
            BASELINE_EVENTS_PER_SEC_QUICK
        } else {
            BASELINE_EVENTS_PER_SEC_FULL
        }
    }

    pub fn speedup_vs_baseline(&self) -> f64 {
        self.events_per_sec() / self.baseline_events_per_sec()
    }

    /// Workloads whose virtual fingerprint drifted from the pin.
    pub fn drifted(&self) -> Vec<&WallRun> {
        self.runs
            .iter()
            .filter(|r| r.pinned_end_ns.is_some_and(|p| p != r.virtual_end_ns))
            .collect()
    }

    /// Render the human-readable report table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "## Wallclock suite ({})\n{:<22}{:>20}{:>12}{:>16}{:>14}{:>12}\n",
            if self.quick { "quick" } else { "full" },
            "workload",
            "layer",
            "events",
            "virtual_end_ns",
            "events/sec",
            "ns/event",
        ));
        for r in &self.runs {
            out.push_str(&format!(
                "{:<22}{:>20}{:>12}{:>16}{:>14.0}{:>12.1}\n",
                r.name,
                r.layer,
                r.events,
                r.virtual_end_ns,
                r.events_per_sec(),
                r.ns_per_event(),
            ));
        }
        out.push_str(&format!(
            "total: {} events in {:.3}s -> {:.0} events/sec ({:.2}x vs pre-fast-path baseline {:.0})\n",
            self.total_events(),
            self.total_wall_ns() as f64 / 1e9,
            self.events_per_sec(),
            self.speedup_vs_baseline(),
            self.baseline_events_per_sec(),
        ));
        if self.threads > 1 {
            out.push_str(&format!(
                "sync overhead: {:.3}s blocked at barriers ({:.1}% of wall)\n",
                self.total_sync_overhead_ns() as f64 / 1e9,
                100.0 * self.total_sync_overhead_ns() as f64 / self.total_wall_ns().max(1) as f64,
            ));
        }
        out
    }

    /// The aggregation figure's two legs (`kneighbor_fine` off/on), when
    /// this suite ran them.
    pub fn aggregation_legs(&self) -> Option<(&WallRun, &WallRun)> {
        let find = |layer: &str| {
            self.runs
                .iter()
                .find(|r| r.name == "kneighbor_fine" && r.layer == layer)
        };
        Some((find("agg_off")?, find("agg_on")?))
    }

    /// The `aggregation` figure gate (ISSUE 10): both legs run the exact
    /// same application-level AM traffic, so the host events/s ratio on
    /// that traffic *is* the wall-time ratio — require >= 1.5x — and the
    /// aggregated leg must also finish earlier in virtual time. Returns a
    /// failure message, or None when the gate holds (or the figure wasn't
    /// run).
    pub fn aggregation_gate(&self) -> Option<String> {
        let (off, on) = self.aggregation_legs()?;
        let ratio = off.wall_ns as f64 / on.wall_ns.max(1) as f64;
        if ratio < 1.5 {
            return Some(format!(
                "aggregation figure: {ratio:.2}x host speedup on fine-grained \
                 kneighbor, need >= 1.5x (off {} ns, on {} ns)",
                off.wall_ns, on.wall_ns
            ));
        }
        if on.virtual_end_ns >= off.virtual_end_ns {
            return Some(format!(
                "aggregation figure: no virtual-time win (off {} ns, on {} ns)",
                off.virtual_end_ns, on.virtual_end_ns
            ));
        }
        None
    }

    /// Keyed history row for the aggregation figure, appended alongside
    /// the wallclock rows in `BENCH_wallclock.json`.
    pub fn aggregation_history_record(&self, rev: &str) -> Option<String> {
        let (off, on) = self.aggregation_legs()?;
        Some(format!(
            "{{\"suite\": \"aggregation\", \"quick\": {}, \"threads\": {}, \
             \"rev\": \"{}\", \"off_wall_ns\": {}, \"on_wall_ns\": {}, \
             \"host_speedup\": {:.2}, \"off_virtual_ns\": {}, \
             \"on_virtual_ns\": {}}}",
            self.quick,
            self.threads,
            rev,
            off.wall_ns,
            on.wall_ns,
            off.wall_ns as f64 / on.wall_ns.max(1) as f64,
            off.virtual_end_ns,
            on.virtual_end_ns,
        ))
    }

    /// One appendable history record: the keyed row
    /// `(suite, quick, threads, rev)` → throughput, kept across runs so
    /// `BENCH_wallclock.json` records the perf trajectory PR over PR and
    /// thread-count over thread-count.
    pub fn history_record(&self, rev: &str) -> String {
        format!(
            "{{\"suite\": \"wallclock\", \"quick\": {}, \"threads\": {}, \
             \"rev\": \"{}\", \"total_events\": {}, \"total_wall_ns\": {}, \
             \"events_per_sec\": {:.1}, \"sync_overhead_ns\": {}}}",
            self.quick,
            self.threads,
            rev,
            self.total_events(),
            self.total_wall_ns(),
            self.events_per_sec(),
            self.total_sync_overhead_ns(),
        )
    }

    /// Machine-readable `BENCH_wallclock.json` contents: the latest run in
    /// full, plus the accumulated `history` rows (pass the rows parsed
    /// from the previous file via [`extract_history`], plus any new ones).
    pub fn to_json_with_history(&self, history: &[String]) -> String {
        let mut out = self.to_json();
        let tail = out.rfind("]\n}").expect("workloads array present");
        out.truncate(tail + 1); // keep the "]", drop "\n}"
        out.push_str(",\n  \"history\": [\n");
        for (i, h) in history.iter().enumerate() {
            out.push_str("    ");
            out.push_str(h);
            out.push_str(if i + 1 == history.len() { "\n" } else { ",\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Machine-readable `BENCH_wallclock.json` contents.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"suite\": \"wallclock\",\n");
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"total_events\": {},\n", self.total_events()));
        out.push_str(&format!("  \"total_wall_ns\": {},\n", self.total_wall_ns()));
        out.push_str(&format!(
            "  \"events_per_sec\": {:.1},\n",
            self.events_per_sec()
        ));
        out.push_str(&format!(
            "  \"baseline_events_per_sec\": {:.1},\n",
            self.baseline_events_per_sec()
        ));
        out.push_str(&format!(
            "  \"speedup_vs_baseline\": {:.3},\n",
            self.speedup_vs_baseline()
        ));
        out.push_str(&format!(
            "  \"sync_overhead_ns\": {},\n",
            self.total_sync_overhead_ns()
        ));
        out.push_str("  \"workloads\": [\n");
        for (i, r) in self.runs.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"layer\": \"{}\", \"events\": {}, \
                 \"virtual_end_ns\": {}, \"pinned_end_ns\": {}, \"wall_ns\": {}, \
                 \"events_per_sec\": {:.1}, \"ns_per_event\": {:.2}, \
                 \"sync_overhead_ns\": {}}}{}\n",
                r.name,
                r.layer,
                r.events,
                r.virtual_end_ns,
                r.pinned_end_ns
                    .map(|p| p.to_string())
                    .unwrap_or_else(|| "null".into()),
                r.wall_ns,
                r.events_per_sec(),
                r.ns_per_event(),
                r.sync_overhead_ns,
                if i + 1 == self.runs.len() { "" } else { "," },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Pinned virtual fingerprints, recorded once from the seed engine
/// (pre-fast-path) and required to hold bit-for-bit ever since. Keyed by
/// `(workload, layer, quick)`.
const PINS: &[(&str, &str, bool, u64)] = &[
    // The canonical inert-plan pins (tests/tests/chaos.rs) ride along so
    // the harness cross-checks the same numbers CI pins elsewhere.
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
    // The aggregation figure (ISSUE 10): fine-grained kNeighbor with
    // destination batching off/on. Pinned when the figure landed; the
    // off leg is the typed-AM direct path, the on leg exercises the
    // coalescing engine end to end.
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

/// Repetitions per workload; wall time is the best of these, which is
/// the standard way to strip scheduler noise from a deterministic
/// computation.
const REPS: u32 = 3;

fn measure(
    name: &'static str,
    layer_tag: &'static str,
    quick: bool,
    mut body: impl FnMut() -> (u64, u64),
) -> WallRun {
    let mut best_wall = u64::MAX;
    let mut best_sync = 0;
    let mut events = 0;
    let mut virtual_end = 0;
    for rep in 0..REPS {
        // Drain any overhead accumulated outside this workload so the
        // meter reads exactly this repetition's barrier waits.
        let _ = charm_rt::prelude::take_sync_overhead_ns();
        let t0 = Instant::now();
        let (ev, vend) = body();
        let wall = t0.elapsed().as_nanos() as u64;
        let sync = charm_rt::prelude::take_sync_overhead_ns();
        if wall < best_wall {
            best_wall = wall;
            best_sync = sync;
        }
        if rep == 0 {
            events = ev;
            virtual_end = vend;
        } else {
            assert_eq!(
                (ev, vend),
                (events, virtual_end),
                "{name}/{layer_tag}: nondeterministic repetition"
            );
        }
    }
    WallRun {
        name,
        layer: layer_tag,
        events,
        virtual_end_ns: virtual_end,
        pinned_end_ns: pin_for(name, layer_tag, quick),
        wall_ns: best_wall,
        sync_overhead_ns: best_sync,
    }
}

fn layers() -> [(&'static str, LayerKind); 2] {
    [("ugni", LayerKind::ugni()), ("mpi", LayerKind::mpi())]
}

/// Pull the accumulated `history` rows out of a previously written
/// `BENCH_wallclock.json`, one JSON object per entry. Tolerates the
/// pre-history file layout (returns empty).
pub fn extract_history(json: &str) -> Vec<String> {
    let Some(start) = json.find("\"history\": [") else {
        return Vec::new();
    };
    let body = &json[start + "\"history\": [".len()..];
    let Some(end) = body.find(']') else {
        return Vec::new();
    };
    body[..end]
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with('{'))
        .map(|l| l.trim_end_matches(',').to_string())
        .collect()
}

/// Run the whole suite sequentially. `Effort::quick()` selects the
/// reduced CI shape.
pub fn wallclock_suite(e: &Effort) -> WallSuite {
    wallclock_suite_threads(e, 1)
}

/// Run the whole suite with the simulator in `threads`-way conservative
/// parallel mode (1 = the sequential engine). Virtual fingerprints are
/// pinned identically for every thread count — the parallel engine is
/// bit-exact, so a drift at `threads > 1` is a determinism bug, not a
/// perf artifact. The count is used as given: the point of the sweep is
/// to measure the parallel engine's overhead even when the host has fewer
/// cores than `threads`.
pub fn wallclock_suite_threads(e: &Effort, threads: u32) -> WallSuite {
    let cfg = |pes: u32, cores_per_node: u32| ClusterCfg {
        threads,
        ..ClusterCfg::new(pes, cores_per_node)
    };
    let quick = !e.full_scale;
    let mut runs = Vec::new();

    // Ping-pong sweep: sizes straddling the eager/rendezvous switch plus
    // one persistent-channel run.
    let (sizes, pp_iters): (&[usize], u64) = if quick {
        (&[64, 65536], 60)
    } else {
        (&[64, 4096, 65536], 400)
    };
    for (tag, layer) in layers() {
        runs.push(measure("pingpong_sweep", tag, quick, || {
            let mut events = 0;
            let mut vend = 0;
            let plain = sizes.iter().map(|&b| (b, false));
            for (b, persistent) in plain.chain([(65536, true)]) {
                let (_, rep) =
                    layer.run_checked(cfg(2, 1), |c| one_way_on(c, b, pp_iters, persistent));
                events += rep.stats.events;
                vend += rep.end_time;
            }
            (events, vend)
        }));
    }

    // Streaming bandwidth: windowed rendezvous traffic, the workload with
    // the highest event fan-out per virtual ns.
    let (bw_window, bw_rounds) = if quick { (8, 10) } else { (16, 40) };
    for (tag, layer) in layers() {
        runs.push(measure("bandwidth", tag, quick, || {
            let (_, rep) =
                layer.run_checked(cfg(2, 1), |c| bandwidth_on(c, 65536, bw_window, bw_rounds));
            (rep.stats.events, rep.end_time)
        }));
    }

    // Jacobi2D at the canonical seed shape: pinned to the same end times
    // the chaos suite asserts (242228 ns uGNI / 314200 ns MPI).
    let seed_cfg = JacobiConfig {
        n: 20,
        blocks: 4,
        iters: 10,
    };
    for (tag, layer) in layers() {
        runs.push(measure("jacobi2d_seed", tag, quick, || {
            let r = layer.run_checked(cfg(8, 4), |c| jacobi2d::run_on(c, &seed_cfg));
            (r.events, r.time_ns)
        }));
    }

    // The seed shape again, gated behind an inert fault plan: keyed proof
    // that the fault-injection fast path costs nothing when no window is
    // live — same pins as the plain runs, bit for bit.
    for (tag, layer) in layers() {
        let gated = layer.with_fault(gemini_net::FaultPlan::none());
        runs.push(measure("jacobi2d_inert", tag, quick, || {
            let r = gated.run_checked(cfg(8, 4), |c| jacobi2d::run_on(c, &seed_cfg));
            (r.events, r.time_ns)
        }));
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
        runs.push(measure("jacobi2d", tag, quick, || {
            let r = layer.run_checked(cfg(16, 4), |c| jacobi2d::run_on(c, &jac_cfg));
            (r.events, r.time_ns)
        }));
    }

    // kNeighbor: the synthetic all-neighbor exchange (Fig. 10 shape).
    let (kn_cores, kn_k, kn_bytes, kn_iters) = if quick {
        (8, 2, 1024, 15)
    } else {
        (16, 3, 4096, 60)
    };
    for (tag, layer) in layers() {
        runs.push(measure("kneighbor", tag, quick, || {
            let (_, rep) = layer.run_checked(cfg(kn_cores, 4), |c| {
                kneighbor::run_on(c, kn_k, kn_bytes, kn_iters)
            });
            (rep.stats.events, rep.end_time)
        }));
    }

    // The aggregation figure (ISSUE 10): fine-grained kNeighbor — many
    // 16-byte AMs per neighbor per iteration, the shape where SMSG's fixed
    // per-message cost dominates — with destination batching off and on.
    // Both legs move the identical application-level AM traffic on uGNI,
    // so the wall-time ratio is the app-level events/s win.
    let (fg_cores, fg_k, fg_msgs, fg_iters) = if quick {
        (8, 2, 8, 10)
    } else {
        (16, 3, 16, 30)
    };
    let ugni = LayerKind::ugni();
    for (tag, aggregate) in [("agg_off", false), ("agg_on", true)] {
        runs.push(measure("kneighbor_fine", tag, quick, || {
            let (_, rep) = ugni.run_checked(cfg(fg_cores, 4), |c| {
                c.am_config(kneighbor::fine_am_config(aggregate));
                kneighbor::run_fine_on(c, fg_k, fg_msgs, fg_iters)
            });
            (rep.stats.events, rep.end_time)
        }));
    }

    WallSuite {
        quick,
        threads,
        runs,
    }
}
