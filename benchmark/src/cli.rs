//! Command line.
//!
//! ```text
//! charm-benchmark --workload W --seed N --seconds S --trace 0|1
//!     One run of one workload; the last line of standard output is the
//!     result object. This is the form BENCHMARK.json's command takes.
//! charm-benchmark run [--seed N] [--workload W]... [--runs R] [--seconds S]
//!                     [--trace] [--out FILE] [--vs EXE --vs-out FILE]
//!     Every workload (or the named ones), each run in its own child
//!     process (clean VmHWM), run i at seed N + i; prints every metric by
//!     name with its unit and writes a result file. Exits non-zero when a
//!     check fails. With --vs, run i of this build and run i of the
//!     other build (a charm-benchmark executable of another commit) go
//!     back to back, alternating which is first, and each side gets its
//!     own result file: the host's speed drifts by several per cent over
//!     minutes, so only interleaved sets compare fairly.
//! charm-benchmark compare A.json B.json
//!     Verdict per (metric, workload); exits non-zero on any `worse`.
//! charm-benchmark spec [--full]
//!     Print BENCHMARK.json (or, with --full, metrics.json).
//! ```

use crate::compare::{compare, ResultSet, Series, WorkloadResult};
use crate::json::{self, Json};
use crate::measure::{median, quartiles};
use crate::run::{end_to_end, per_layer};
use crate::spec::{benchmark_json, metrics_json, DEFAULT_SEED, RUN_SECONDS};
use crate::workloads::{find, WORKLOADS};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// Where traced runs write their Chrome-trace files, relative to the
/// working directory (the root of the checkout).
const TRACE_DIR: &str = "benchmark/out";

pub fn main(args: Vec<String>) -> ExitCode {
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        Some("spec") => {
            let full = args.get(1).is_some_and(|a| a == "--full");
            print!(
                "{}",
                if full {
                    metrics_json()
                } else {
                    benchmark_json()
                }
                .pretty()
            );
            Ok(true)
        }
        _ => one_run(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("charm-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs (and bare switches) of one invocation.
struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    /// Every value given for `--name`.
    fn all(&self, name: &str) -> Vec<&'a str> {
        self.args
            .windows(2)
            .filter(|w| w[0] == name)
            .map(|w| w[1].as_str())
            .collect()
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.all(name).last() {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name}: cannot read {v:?}")),
        }
    }

    /// Reject anything that is not a known flag or a flag's value.
    fn check(&self, valued: &[&str], switches: &[&str]) -> Result<(), String> {
        let mut i = 0;
        while i < self.args.len() {
            let a = self.args[i].as_str();
            if valued.contains(&a) {
                if i + 1 >= self.args.len() {
                    return Err(format!("{a} needs a value"));
                }
                i += 2;
            } else if switches.contains(&a) {
                i += 1;
            } else {
                return Err(format!("unknown argument {a:?}"));
            }
        }
        Ok(())
    }
}

fn seconds_in_range(s: f64) -> Result<f64, String> {
    if s > 0.0 && s <= 600.0 {
        Ok(s)
    } else {
        Err(format!("--seconds {s}: must be in (0, 600]"))
    }
}

/// The contract form: one workload, one run, result object last.
fn one_run(args: &[String]) -> Result<bool, String> {
    let f = Flags { args };
    f.check(&["--workload", "--seed", "--seconds", "--trace"], &[])?;
    let name = f
        .all("--workload")
        .last()
        .copied()
        .ok_or("usage: --workload W --seed N --seconds S --trace 0|1 | run | compare | spec")?;
    let w = find(name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })?;
    let seed: u64 = f.parsed("--seed", DEFAULT_SEED)?;
    let seconds = seconds_in_range(f.parsed("--seconds", RUN_SECONDS as f64)?)?;
    let trace: u8 = f.parsed("--trace", 0)?;
    let out = match trace {
        0 => end_to_end(w, seed, seconds),
        1 => per_layer(w, seed, seconds, Path::new(TRACE_DIR)),
        t => return Err(format!("--trace {t}: must be 0 or 1")),
    };
    println!(
        "workload {name} seed {seed} seconds {seconds} trace {trace} threads available {}",
        nproc()
    );
    for n in &out.notes {
        println!("{n}");
    }
    for m in &out.metrics {
        println!("{:<36} {:>20.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", out.result_line());
    Ok(out.correct)
}

fn nproc() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
}

/// Run one child of `exe` in the contract form and parse its result line.
fn child(exe: &Path, name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let out = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or("");
    let j = json::parse(last).map_err(|e| {
        format!(
            "{name} (seed {seed}, trace {trace}) exited with {} and no result line: {e}",
            out.status
        )
    })?;
    for line in text.lines().filter(|l| l.starts_with("FAILED")) {
        println!("  {name}: {line}");
    }
    Ok(j)
}

impl WorkloadResult {
    /// Add one child's result line.
    fn absorb(&mut self, j: &Json) {
        self.correct &= j.get("correct") == Some(&Json::Bool(true));
        let count = |k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        self.attempted += count("attempted");
        self.failed += count("failed");
        for (m, v) in j.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            let s = self.metrics.entry(m.clone()).or_insert_with(|| Series {
                unit: v.get("unit").and_then(Json::as_str).unwrap_or("").into(),
                values: Vec::new(),
            });
            s.values.extend(v.get("value").and_then(Json::as_f64));
        }
    }

    fn print(&self, title: &str, runs: u32) {
        println!(
            "\n{title}: {} ops_attempted {} ops_failed {} ({} run{})",
            if self.correct { "ok" } else { "FAILED" },
            self.attempted,
            self.failed,
            runs,
            if runs == 1 { "" } else { "s" }
        );
        for (m, s) in &self.metrics {
            if s.values.len() >= 2 {
                let (q1, q3) = quartiles(&s.values);
                println!(
                    "  {m:<36} {:>18.6} {:<6} q1 {q1:.6} q3 {q3:.6} n {}",
                    median(&s.values),
                    s.unit,
                    s.values.len()
                );
            } else if let Some(v) = s.values.first() {
                println!("  {m:<36} {v:>18.6} {}", s.unit);
            }
        }
    }
}

fn write_set(path: &str, set: &ResultSet) -> Result<(), String> {
    if let Some(dir) = Path::new(path)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
    {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, set.to_json().pretty()).map_err(|e| format!("{path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

fn run_all(args: &[String]) -> Result<bool, String> {
    let f = Flags { args };
    f.check(
        &[
            "--workload",
            "--seed",
            "--seconds",
            "--runs",
            "--out",
            "--vs",
            "--vs-out",
        ],
        &["--trace"],
    )?;
    let seed: u64 = f.parsed("--seed", DEFAULT_SEED)?;
    let seconds = seconds_in_range(f.parsed("--seconds", RUN_SECONDS as f64)?)?;
    let runs: u32 = f.parsed("--runs", 1)?;
    if !(1..=1000).contains(&runs) {
        return Err(format!("--runs {runs}: must be in 1..=1000"));
    }
    let trace = args.iter().any(|a| a == "--trace");
    let mut names = f.all("--workload");
    if names.is_empty() {
        names = WORKLOADS.iter().map(|w| w.name).collect();
    }
    for n in &names {
        find(n).ok_or_else(|| format!("unknown workload {n:?}"))?;
    }
    // This build, then the build it is measured against, if any.
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut sides = vec![(me, f.all("--out").last().copied())];
    match (f.all("--vs").last(), f.all("--vs-out").last()) {
        (Some(exe), Some(out)) => sides.push((exe.into(), Some(*out))),
        (None, None) => {}
        _ => return Err("--vs EXE and --vs-out FILE go together".into()),
    }

    let mut sets: Vec<ResultSet> = sides
        .iter()
        .map(|_| ResultSet {
            seed,
            seconds,
            runs,
            nproc: nproc(),
            workloads: Vec::new(),
        })
        .collect();
    let mut ok = true;
    for name in names {
        let mut results = vec![
            WorkloadResult {
                correct: true,
                ..Default::default()
            };
            sides.len()
        ];
        for i in 0..runs {
            // Alternate which side goes first.
            let mut order: Vec<usize> = (0..sides.len()).collect();
            order.rotate_left(i as usize % sides.len());
            for side in order {
                for traced in [false, true] {
                    if traced && !trace {
                        continue;
                    }
                    let j = child(&sides[side].0, name, seed + i as u64, seconds, traced)?;
                    results[side].absorb(&j);
                }
            }
        }
        for (side, w) in results.into_iter().enumerate() {
            let title = if side == 0 {
                name.to_string()
            } else {
                format!("{name} ({})", sides[side].0.display())
            };
            w.print(&title, runs);
            ok &= w.correct;
            sets[side].workloads.push((name.to_string(), w));
        }
    }
    println!();
    for ((_, out), set) in sides.iter().zip(&sets) {
        if let Some(path) = out {
            write_set(path, set)?;
        }
    }
    Ok(ok)
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: compare A.json B.json".into());
    };
    let (a, b) = (ResultSet::load(a)?, ResultSet::load(b)?);
    let mut text = String::new();
    let worse = compare(&a, &b, &mut text);
    print!("{text}");
    Ok(worse == 0)
}
