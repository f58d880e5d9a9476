//! Result files round-trip through `compare`, the contract files are in
//! step with the tables they are printed from, and a whole run of a
//! small workload produces exactly the named metrics.

use charm_benchmark::compare::{compare, ResultSet, Series, WorkloadResult};
use charm_benchmark::json::{self, Json};
use charm_benchmark::run::{end_to_end, per_layer};
use charm_benchmark::spec::{benchmark_json, metrics_json, END_TO_END, PER_LAYER, RUN_SECONDS};
use charm_benchmark::workloads::{Layer, RingShape, Shape, Sizes, Workload, WORKLOADS};
use std::path::Path;

fn set(run_s: &[f64]) -> ResultSet {
    let series = |unit: &str, values: &[f64]| Series {
        unit: unit.into(),
        values: values.to_vec(),
    };
    ResultSet {
        seed: 7,
        seconds: 10.0,
        runs: run_s.len() as u32,
        nproc: 2,
        workloads: vec![(
            "smsg_fine".into(),
            WorkloadResult {
                correct: true,
                attempted: 1_000,
                failed: 0,
                metrics: [
                    ("run_s".to_string(), series("s", run_s)),
                    (
                        "virt_end_ms".to_string(),
                        series("ms", &vec![7.5; run_s.len()]),
                    ),
                    ("core.events".to_string(), series("count", &[3e6])),
                ]
                .into(),
            },
        )],
    }
}

#[test]
fn result_json_round_trips_through_compare() {
    let a = set(&[1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]);
    let back = ResultSet::from_json(&json::parse(&a.to_json().pretty()).unwrap()).unwrap();
    assert_eq!(back, a);

    let mut text = String::new();
    assert_eq!(compare(&a, &back, &mut text), 0);
    assert!(
        text.contains("run_s") && text.contains("unchanged"),
        "{text}"
    );
    assert!(text.contains("core.events"), "{text}");
    assert!(text.contains("0 exact counters moved"), "{text}");

    let slow = set(&[1.3, 1.31, 1.29, 1.3, 1.32, 1.28, 1.3, 1.31, 1.29, 1.3]);
    let mut text = String::new();
    assert_eq!(compare(&a, &slow, &mut text), 1, "{text}");
    assert!(text.contains("worse"), "{text}");

    // A run whose checks fail is worse whatever its times.
    let mut broken = a.clone();
    broken.workloads[0].1.failed = 3;
    broken.workloads[0].1.correct = false;
    assert_eq!(compare(&a, &broken, &mut String::new()), 1);

    // The virtual end time is exact at paired seeds, and an exact
    // counter that differs there is pointed out...
    let mut drifted = a.clone();
    let metrics = &mut drifted.workloads[0].1.metrics;
    metrics.get_mut("virt_end_ms").unwrap().values[3] += 1e-6;
    metrics.get_mut("core.events").unwrap().values[0] += 1.0;
    let mut text = String::new();
    assert_eq!(compare(&a, &drifted, &mut text), 1, "{text}");
    assert!(text.contains("1 exact counters moved"), "{text}");
    // ... and cannot be judged between sets of different seeds.
    drifted.seed += 1;
    let mut text = String::new();
    assert_eq!(compare(&a, &drifted, &mut text), 0, "{text}");
    assert!(text.contains("unresolved"), "{text}");

    // Dropping a workload is worse; adding one is not.
    let mut fewer = a.clone();
    fewer.workloads.clear();
    assert_eq!(compare(&a, &fewer, &mut String::new()), 1);
    assert_eq!(compare(&fewer, &a, &mut String::new()), 0);
}

fn name_ok(n: &str) -> bool {
    let mut c = n.chars();
    c.next().is_some_and(|f| f.is_ascii_alphanumeric())
        && n.len() <= 64
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(u: &str) -> bool {
    !u.is_empty()
        && u.len() <= 16
        && u.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn spec_meets_the_contract_limits() {
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(END_TO_END.iter().map(|e| e.name));
    names.extend(PER_LAYER.iter().map(|p| p.name));
    assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");

    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!(WORKLOADS
        .iter()
        .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!(END_TO_END
        .iter()
        .all(|e| unit_ok(e.unit) && e.bound > 0.0 && e.bound <= 0.25));
    assert!(PER_LAYER.iter().all(|p| unit_ok(p.unit)));
    assert!((1..=60).contains(&RUN_SECONDS));

    let setup = END_TO_END
        .iter()
        .find(|e| e.name == "setup_s")
        .expect("setup_s");
    assert_eq!(setup.unit, "s");
    assert!(END_TO_END.iter().all(|e| e.bound <= setup.bound));

    let text = benchmark_json().pretty();
    assert!(text.len() <= 64 * 1024);
    let j = json::parse(&text).unwrap();
    let keys: Vec<&str> = j
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}

/// The committed files are what `spec` prints. Skipped where the
/// package is checked out without the repository around it.
#[test]
fn committed_contract_files_are_current() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for (path, want) in [
        (root.join("../BENCHMARK.json"), benchmark_json()),
        (root.join("metrics.json"), metrics_json()),
    ] {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        assert!(
            json::parse(&text).unwrap() == want,
            "{} is stale: regenerate it with `charm-benchmark spec`",
            path.display()
        );
    }
}

const TINY: Workload = Workload {
    name: "tiny",
    why: "test",
    shape: Shape::Ring(RingShape {
        layer: Layer::Mpi,
        cores: 16,
        cores_per_node: 4,
        offsets: &[5],
        msgs: 2,
        iters: 3,
        sizes: Sizes::Choice(&[1 << 10, 64 << 10]),
        ack_echo: true,
        aggregation: false,
        threads: 1,
    }),
};

fn metric_names(line: &str) -> (Json, Vec<String>) {
    let j = json::parse(line).expect("result line parses");
    let keys: Vec<&str> = j
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let names = j.get("metrics").unwrap().as_obj().unwrap();
    for (n, m) in names {
        let fields: Vec<&str> = m
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(fields, ["value", "unit"], "{n}");
    }
    let names = names.iter().map(|(n, _)| n.clone()).collect();
    (j, names)
}

#[test]
fn a_run_reports_exactly_the_named_metrics() {
    let out = end_to_end(&TINY, 3, 0.05);
    assert!(out.correct, "{:?}", out.notes);
    let (j, names) = metric_names(&out.result_line());
    assert_eq!(names, END_TO_END.iter().map(|e| e.name).collect::<Vec<_>>());
    assert_eq!(j.get("failed"), Some(&Json::Num(0.0)));
    assert!(out.attempted >= 1);
    // Repetitions here last about a millisecond: every meter must
    // resolve that.
    for m in &out.metrics {
        assert!(m.value > 0.0, "{} read {}", m.name, m.value);
    }

    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace");
    let traced = per_layer(&TINY, 3, 0.2, &dir);
    assert!(traced.correct, "{:?}", traced.notes);
    let (_, names) = metric_names(&traced.result_line());
    assert_eq!(names, PER_LAYER.iter().map(|p| p.name).collect::<Vec<_>>());
    let value = |n: &str| traced.metrics.iter().find(|m| m.name == n).unwrap().value;
    // An MPI workload moves the MPI layers' numbers and not uGNI's.
    assert!(value("lrts-mpi.subtree_share") > 0.0);
    assert!(value("mpi-sim.eager_msgs") > 0.0 && value("mpi-sim.rndv_msgs") > 0.0);
    assert_eq!(value("lrts-ugni.subtree_share"), 0.0);
    assert_eq!(value("lrts-ugni.small_msgs"), 0.0);
    assert!(value("trace.attribution_gap") <= 0.05);
    assert!(value("sim-core.queue_hold_ns_d64") > 0.0);
    let trace = std::fs::read_to_string(dir.join("trace_tiny.json")).expect("trace written");
    assert!(json::parse(&trace).is_ok());

    // Same seed, same virtual time; another seed, other inputs.
    let virt = |o: &charm_benchmark::run::Outcome| {
        o.metrics
            .iter()
            .find(|m| m.name == "virt_end_ms")
            .unwrap()
            .value
    };
    assert_eq!(virt(&end_to_end(&TINY, 3, 0.05)), virt(&out));
    assert_ne!(virt(&end_to_end(&TINY, 4, 0.05)), virt(&out));
}
