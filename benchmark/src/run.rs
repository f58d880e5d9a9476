//! One run of one workload: repeat the fixed, seeded work until the
//! measuring time is used, check every repetition's outputs, and reduce
//! to the named metrics. `--trace 0` gives the end-to-end metrics with no
//! timer code in the measured path; `--trace 1` gives the per-layer
//! metrics from exact counters, a traced repetition and the probes.

use crate::driver::{self, RingInput};
use crate::measure::{median, peak_rss_kib, percentile_sorted, pin_to_current_cpu, timed};
use crate::span::{self, span, Op, Spans};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::workloads::{
    apps_input, apps_refs, ring_input, AppsInput, AppsRefs, AppsShape, Layer, RingShape, Shape,
    Workload,
};
use crate::{json::Json, probes};
use charm_apps::jacobi2d::run_jacobi;
use charm_apps::minimd::run_minimd;
use charm_apps::nqueens::run_nqueens;
use charm_apps::LayerKind;
use charm_rt::prelude::*;
use lrts_mpi::MpiLayer;
use lrts_ugni::UgniLayer;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Share of the measuring time the probes of a traced run may use.
const PROBE_SHARE: f64 = 0.3;
/// Set-up-only builds a run times after each repetition, beside the
/// repetition's own set-up, and the share of the repetition's time they
/// may use. A 64-PE set-up takes tens of microseconds — lazily
/// materialised state makes `Cluster::new` nearly free — so its median
/// needs hundreds of samples to be steady, and they are taken between
/// the repetitions so that they see the same stretch of host time, not
/// one instant at the end.
const SETUPS_PER_REP: usize = 200;
const SETUP_TOPUP_SHARE: f64 = 0.1;
/// A traced run whose self times do not add up to its run span within
/// this share fails.
const MAX_ATTRIBUTION_GAP: f64 = 0.05;

/// One repetition of a workload.
pub struct Rep {
    pub setup_s: f64,
    pub run_s: f64,
    pub cpu_s: f64,
    pub virt_end_ns: u64,
    pub events: u64,
    /// Application messages / tasks / result checks expected to come out
    /// right exactly once, and how many did not.
    pub attempted: u64,
    pub failed: u64,
    /// Exact per-layer counters (source a), by metric name.
    pub counters: BTreeMap<&'static str, f64>,
}

/// Set-up alone: generate, build, time, drop. Every repetition
/// regenerates the inputs from the seed inside its set-up interval too:
/// set-up is everything between the seed and the entry of `Cluster::run`.
fn setup_only(shape: &Shape, seed: u64) -> f64 {
    let t0 = Instant::now();
    match shape {
        Shape::Ring(s) => {
            let built = ring_setup::<false>(s, seed);
            let took = t0.elapsed();
            drop(built);
            took
        }
        Shape::Apps(s) => {
            std::hint::black_box(apps_setup(s, seed));
            t0.elapsed()
        }
    }
    .as_secs_f64()
}

/// One repetition. With `instrument`, sequential ring runs wrap the
/// layer, the handlers and the `am_send` calls in spans (a recording
/// must be active); the parallel engine runs handlers on worker
/// threads, so there only the run span is recorded.
fn rep(w: &Prepared, seed: u64, instrument: bool) -> Rep {
    match w {
        Prepared::Ring(s) if instrument && s.threads == 1 => ring_rep::<true>(s, seed),
        Prepared::Ring(s) => ring_rep::<false>(s, seed),
        Prepared::Apps(s, refs) => apps_rep(s, seed, refs),
    }
}

/// A shape with what its outputs are checked against beyond the driver's
/// own ledgers: computed once per run, outside every timed interval.
enum Prepared<'a> {
    /// The ring driver counts its own deliveries.
    Ring(&'a RingShape),
    Apps(&'a AppsShape, AppsRefs),
}

fn prepare(shape: &Shape) -> Prepared<'_> {
    match shape {
        Shape::Ring(s) => Prepared::Ring(s),
        Shape::Apps(s) => Prepared::Apps(s, apps_refs(s)),
    }
}

/// Before the first repetition of a parallel workload: its pool threads
/// are spawned by the first `Cluster::run` and inherit the placement.
fn place_threads(shape: &Shape, notes: &mut Vec<String>) {
    if matches!(shape, Shape::Ring(s) if s.threads > 1) {
        notes.push(match pin_to_current_cpu() {
            Some(cpu) => format!("all threads held on cpu {cpu}"),
            None => "could not pin the threads: run_s may show either of two values".into(),
        });
    }
}

fn ring_setup<const TRACED: bool>(s: &RingShape, seed: u64) -> (RingInput, Cluster) {
    let inp = ring_input(s, seed);
    let c = driver::build::<TRACED>(&inp);
    (inp, c)
}

fn ring_rep<const TRACED: bool>(s: &RingShape, seed: u64) -> Rep {
    let ((inp, mut c), setup) = timed(|| ring_setup::<TRACED>(s, seed));
    let inp = &inp;
    take_sync_overhead_ns();
    let (report, run) = timed(|| {
        // A no-op unless a recording is active on this thread.
        let _g = span::<true>(Op::Run);
        c.run()
    });
    let sync_ns = take_sync_overhead_ns();
    let (run_s, cpu_s) = (run.wall_s, run.cpu_s);
    let out = driver::outcome(&c, inp);

    let st = &report.stats;
    // Every data AM and every ack exactly once, plus two ledger checks:
    // every envelope sent (and every injected kick) was delivered, and
    // the run drained rather than stopped.
    let attempted = 2 * inp.expected_data() + 2;
    let failed = out.failed
        + u64::from(st.msgs_delivered != st.msgs_sent + inp.cores as u64)
        + u64::from(report.stopped_early);

    let mut k: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (_, ovh, idle) = c.trace().utilization(Some(report.end_time));
    k.insert("core.events", st.events as f64);
    k.insert("core.events_per_s", st.events as f64 / run_s);
    k.insert("core.handlers_run", st.handlers_run as f64);
    k.insert("core.net_msgs", st.net_msgs as f64);
    k.insert("core.net_bytes", st.net_bytes as f64);
    k.insert("core.am_batches", st.am_batches as f64);
    k.insert(
        "core.am_batch_fill",
        ratio(st.am_agg_sent as f64, st.am_batches as f64),
    );
    k.insert("core.virt_overhead_frac", ovh);
    k.insert("core.virt_idle_frac", idle);
    k.insert(
        "core.pe_pages_materialized",
        c.materialized_pe_pages() as f64,
    );
    k.insert("core.sync_wait_frac", sync_ns as f64 / 1e9 / run_s);
    k.insert(
        "core.worker_cpu_frac",
        ratio(cpu_s - run.own_cpu_s, cpu_s).max(0.0),
    );
    k.insert(
        "apps.virt_iter_p50_us",
        percentile_sorted(&out.iter_virt_ns, 0.50) as f64 / 1e3,
    );
    k.insert(
        "apps.virt_iter_p99_us",
        percentile_sorted(&out.iter_virt_ns, 0.99) as f64 / 1e3,
    );
    let fabric = match s.layer {
        Layer::Ugni => {
            let l = c.layer_mut::<UgniLayer>();
            let u = &l.stats;
            k.insert("lrts-ugni.small_msgs", u.small_msgs as f64);
            k.insert("lrts-ugni.rendezvous_msgs", u.rendezvous_msgs as f64);
            k.insert("lrts-ugni.shm_msgs", u.shm_msgs as f64);
            k.insert("lrts-ugni.persistent_msgs", u.persistent_msgs as f64);
            k.insert("lrts-ugni.credit_retries", u.credit_retries as f64);
            l.gni().fabric()
        }
        Layer::Mpi => {
            let mpi = c.layer_mut::<MpiLayer>().mpi();
            let u = &mpi.stats;
            k.insert("mpi-sim.eager_msgs", u.eager_msgs as f64);
            k.insert("mpi-sim.rndv_msgs", u.rndv_msgs as f64);
            k.insert("mpi-sim.shm_msgs", u.shm_msgs as f64);
            k.insert(
                "mpi-sim.udreg_hit_ratio",
                ratio(u.udreg_hits as f64, (u.udreg_hits + u.udreg_misses) as f64),
            );
            k.insert("mpi-sim.send_retries", u.send_retries as f64);
            k.insert("mpi-sim.blocking_recv_virt_ns", u.blocking_recv_ns as f64);
            mpi.gni().fabric()
        }
    };
    let f = &fabric.stats;
    k.insert("gemini-net.smsg_sends", f.smsg_sends as f64);
    k.insert("gemini-net.fma_transactions", f.fma_transactions as f64);
    k.insert("gemini-net.bte_transactions", f.bte_transactions as f64);
    k.insert("gemini-net.rdma_bytes", f.rdma_bytes as f64);
    k.insert("gemini-net.credit_stalls", f.credit_stalls as f64);
    k.insert("gemini-net.link_bytes", fabric.total_link_bytes() as f64);

    Rep {
        setup_s: setup.wall_s,
        run_s,
        cpu_s,
        virt_end_ns: report.end_time,
        events: st.events,
        attempted,
        failed,
        counters: k,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The apps build their clusters internally, so set-up here is the
/// seeded configurations plus one benchmark-side build-and-drop of the
/// same machine (everything in it is lazy).
fn apps_setup(s: &AppsShape, seed: u64) -> AppsInput {
    let a = apps_input(s, seed);
    drop(LayerKind::ugni().cluster(a.pes, a.cores_per_node));
    a
}

fn apps_rep(s: &AppsShape, seed: u64, refs: &AppsRefs) -> Rep {
    let (a, setup) = timed(|| apps_setup(s, seed));
    let a = &a;
    let layer = LayerKind::ugni();
    let ((nq, md, jac), run) = timed(|| {
        let app = || span::<true>(Op::App);
        let nq = {
            let _g = app();
            run_nqueens(&layer, a.pes, a.cores_per_node, &a.nq)
        };
        let md = {
            let _g = app();
            run_minimd(&layer, a.pes, a.cores_per_node, &a.md)
        };
        let jac = {
            let _g = app();
            run_jacobi(&layer, a.pes, a.cores_per_node, &a.jacobi)
        };
        (nq, md, jac)
    });
    // Every N-Queens task exactly once; the grid bit-identical to the
    // sequential sweep; miniMD ran its steps.
    let failed = nq.tasks.abs_diff(refs.nq_tasks)
        + u64::from(jac.grid != refs.jacobi_grid)
        + u64::from(jac.iterations_run != a.jacobi.iters)
        + u64::from(md.steps != a.md.steps);
    Rep {
        setup_s: setup.wall_s,
        run_s: run.wall_s,
        cpu_s: run.cpu_s,
        virt_end_ns: nq.time_ns + md.time_ns + jac.time_ns,
        events: 0,
        attempted: refs.nq_tasks + 3,
        failed,
        counters: BTreeMap::new(),
    }
}

/// A metric as the result line carries it.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines (spread of the repetitions, notes); printed
    /// before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.to_string(),
                                Json::obj([
                                    ("value", Json::Num(m.value)),
                                    ("unit", Json::str(m.unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .line()
    }
}

fn spread_note(name: &str, unit: &str, xs: &[f64]) -> String {
    let (lo, hi) = xs
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    let quart = if xs.len() >= 2 {
        let (q1, q3) = crate::measure::quartiles(xs);
        format!("q1 {q1:.6} q3 {q3:.6} ")
    } else {
        String::new()
    };
    format!(
        "{name:<14} median {:.6} {unit}  {quart}min {lo:.6} max {hi:.6} n {}",
        median(xs),
        xs.len()
    )
}

/// `--trace 0`: the end-to-end metrics.
pub fn end_to_end(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let prepared = prepare(&w.shape);
    let mut notes = Vec::new();
    place_threads(&w.shape, &mut notes);
    let mut reps: Vec<Rep> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let t0 = Instant::now();
    loop {
        let r = rep(&prepared, seed, false);
        setups.push(r.setup_s);
        let slot = Instant::now();
        for _ in 0..SETUPS_PER_REP {
            if slot.elapsed().as_secs_f64() >= r.run_s * SETUP_TOPUP_SHARE {
                break;
            }
            setups.push(setup_only(&w.shape, seed));
        }
        reps.push(r);
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    let col = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    let runs = col(|r| r.run_s);
    let cpus = col(|r| r.cpu_s);
    let virt = reps[0].virt_end_ns;
    let deterministic = reps.iter().all(|r| r.virt_end_ns == virt);
    let failed: u64 = reps.iter().map(|r| r.failed).sum();

    // The work of a repetition is fixed and deterministic, so host noise
    // only ever adds to it: the fastest repetition is the estimate of its
    // cost, and the one that repeats (README, "Spread"). `cpu_s` is that
    // same repetition's, so the two describe one interval.
    let fastest = reps
        .iter()
        .min_by(|a, b| a.run_s.total_cmp(&b.run_s))
        .expect("at least one repetition");
    let value = |name: &str| match name {
        "setup_s" => median(&setups),
        "run_s" => fastest.run_s,
        "cpu_s" => fastest.cpu_s,
        "peak_rss_mb" => peak_rss_kib() as f64 / 1024.0,
        "virt_end_ms" => virt as f64 / 1e6,
        other => unreachable!("end-to-end metric {other} has no measurement"),
    };
    notes.extend([
        spread_note("run_s", "s", &runs),
        spread_note("cpu_s", "s", &cpus),
        spread_note("setup_s", "s", &setups),
    ]);
    if !deterministic {
        notes.push("FAILED: repetitions disagree on the virtual end time".into());
    }
    Outcome {
        correct: deterministic && failed == 0,
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed,
        metrics: END_TO_END
            .iter()
            .map(|e| Metric {
                name: e.name,
                unit: e.unit,
                value: value(e.name),
            })
            .collect(),
        notes,
    }
}

/// Span-derived metrics (source b) of one traced repetition.
fn span_metrics(
    spans: &Spans,
    rep: &Rep,
    layer: Option<Layer>,
    untraced_run_s: f64,
) -> BTreeMap<&'static str, f64> {
    let mut k = BTreeMap::new();
    let run = spans.of(Op::Run);
    let per = |total: u64, n: u64| ratio(total as f64, n as f64);
    let share = |ns: u64| ratio(ns as f64, run.total_ns as f64);
    let (send, ev, init) = (
        spans.of(Op::SyncSend),
        spans.of(Op::OnEvent),
        spans.of(Op::LayerInit),
    );
    let other = spans.of(Op::LayerOther);
    let (handler, am, app) = (
        spans.of(Op::Handler),
        spans.of(Op::AmSend),
        spans.of(Op::App),
    );
    k.insert("core.run_self_ns_per_event", per(run.self_ns, rep.events));
    k.insert("core.am_send_ns_per_call", per(am.total_ns, am.count));
    let subtree = share(send.total_ns + ev.total_ns + other.total_ns);
    match layer {
        Some(Layer::Ugni) => {
            k.insert(
                "lrts-ugni.sync_send_ns_per_call",
                per(send.total_ns, send.count),
            );
            k.insert("lrts-ugni.on_event_ns_per_call", per(ev.total_ns, ev.count));
            k.insert("lrts-ugni.init_ns", init.total_ns as f64);
            k.insert("lrts-ugni.subtree_share", subtree);
        }
        Some(Layer::Mpi) => {
            k.insert(
                "lrts-mpi.sync_send_ns_per_call",
                per(send.total_ns, send.count),
            );
            k.insert("lrts-mpi.on_event_ns_per_call", per(ev.total_ns, ev.count));
            k.insert("lrts-mpi.subtree_share", subtree);
        }
        None => {}
    }
    k.insert(
        "apps.handler_self_ns_per_call",
        per(handler.self_ns, handler.count),
    );
    k.insert("apps.handler_share", share(handler.self_ns));
    k.insert("apps.entry_s", app.total_ns as f64 / 1e9);
    k.insert("trace.overhead", ratio(rep.run_s, untraced_run_s));
    // Everything under the run span must be accounted for: the run's own
    // self time plus the self times of all it encloses.
    let inside: u64 = [run, send, ev, other, handler, am]
        .iter()
        .map(|a| a.self_ns)
        .sum();
    k.insert(
        "trace.attribution_gap",
        share(run.total_ns.abs_diff(inside)),
    );
    k
}

/// Probe ns/op x exact counter / run_s (source c, estimates).
fn estimates(
    probe: &BTreeMap<&'static str, f64>,
    k: &BTreeMap<&'static str, f64>,
    run_s: f64,
) -> BTreeMap<&'static str, f64> {
    let p = |n: &str| probe.get(n).copied().unwrap_or(0.0);
    let c = |n: &str| k.get(n).copied().unwrap_or(0.0);
    let share = |ns: f64| ns / 1e9 / run_s;
    let rdma = c("gemini-net.fma_transactions") + c("gemini-net.bte_transactions");
    BTreeMap::from([
        (
            "mpi-sim.est_share",
            share(
                p("mpi-sim.eager_cycle_ns") * c("mpi-sim.eager_msgs")
                    + p("mpi-sim.rndv_cycle_ns") * c("mpi-sim.rndv_msgs"),
            ),
        ),
        (
            "ugni.est_share",
            share(
                p("ugni.smsg_cycle_ns") * c("gemini-net.smsg_sends")
                    + p("ugni.rdma_cycle_ns") * rdma,
            ),
        ),
        (
            "gemini-net.est_share",
            share(
                p("gemini-net.smsg_send_ns") * c("gemini-net.smsg_sends")
                    + p("gemini-net.rdma_bte_get_ns") * rdma,
            ),
        ),
        (
            "gemini-net.rdma_est_share",
            share(p("gemini-net.rdma_bte_get_ns") * rdma),
        ),
        (
            "mempool.est_share",
            share(p("mempool.alloc_free_ns") * c("lrts-ugni.rendezvous_msgs")),
        ),
    ])
}

/// `--trace 1`: the per-layer metrics. Alternates an untraced and a
/// traced repetition until the measuring time (less the probes' share)
/// is used; the traced one must leave the simulation untouched.
pub fn per_layer(w: &Workload, seed: u64, seconds: f64, trace_dir: &std::path::Path) -> Outcome {
    let layer = match &w.shape {
        Shape::Ring(s) => Some(s.layer),
        Shape::Apps(_) => None,
    };
    let prepared = prepare(&w.shape);
    let mut notes = Vec::new();
    place_threads(&w.shape, &mut notes);
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut first_spans: Option<Spans> = None;
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let t0 = Instant::now();
    loop {
        let base = rep(&prepared, seed, false);
        span::start();
        let traced_rep = rep(&prepared, seed, true);
        let spans = span::finish();
        if (traced_rep.virt_end_ns, traced_rep.events) != (base.virt_end_ns, base.events) {
            correct = false;
            notes.push(format!(
                "FAILED: the traced run changed the simulation: virt_end {} vs {} ns, events {} vs {}",
                traced_rep.virt_end_ns, base.virt_end_ns, traced_rep.events, base.events
            ));
        }
        attempted += base.attempted + traced_rep.attempted;
        failed += base.failed + traced_rep.failed;
        traced.push(span_metrics(&spans, &traced_rep, layer, base.run_s));
        first_spans.get_or_insert(spans);
        plain.push(base);
        if t0.elapsed().as_secs_f64() >= seconds * (1.0 - PROBE_SHARE) {
            break;
        }
    }

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    // Exact counters repeat exactly; rate-like ones take the median.
    for name in plain[0].counters.keys() {
        let xs: Vec<f64> = plain.iter().map(|r| r.counters[name]).collect();
        values.insert(name, median(&xs));
    }
    for name in traced[0].keys() {
        let xs: Vec<f64> = traced.iter().map(|t| t[name]).collect();
        values.insert(name, median(&xs));
    }
    values.insert("trace.reps", traced.len() as f64);
    let gap = values["trace.attribution_gap"];
    if gap > MAX_ATTRIBUTION_GAP {
        correct = false;
        notes.push(format!(
            "FAILED: attribution_gap {gap:.4} > {MAX_ATTRIBUTION_GAP}"
        ));
    }

    let batch = Duration::from_secs_f64(seconds * PROBE_SHARE / 16.0 / 7.0);
    let probe: BTreeMap<&'static str, f64> = probes::run_all(seed, batch).into_iter().collect();
    let run_s = median(&plain.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let est = estimates(&probe, &values, run_s);
    values.extend(probe);
    values.extend(est);

    if let Some(spans) = &first_spans {
        let path = trace_dir.join(format!("trace_{}.json", w.name));
        let written = std::fs::create_dir_all(trace_dir)
            .and_then(|()| std::fs::write(&path, spans.chrome_trace()));
        match written {
            Ok(()) => notes.push(format!(
                "chrome trace: {} ({} raw spans)",
                path.display(),
                spans.raw.len()
            )),
            Err(e) => {
                correct = false;
                notes.push(format!("FAILED: writing {}: {e}", path.display()));
            }
        }
    }
    Outcome {
        correct: correct && failed == 0,
        attempted,
        failed,
        // Metrics a workload cannot produce (another layer's, or a ring
        // driver's on the apps) are reported as 0, so every run carries
        // every name.
        metrics: PER_LAYER
            .iter()
            .map(|p| Metric {
                name: p.name,
                unit: p.unit,
                value: values.get(p.name).copied().unwrap_or(0.0),
            })
            .collect(),
        notes,
    }
}
