//! Result files and their comparison.
//!
//! `run` writes one file per set of runs; `compare A.json B.json` reads
//! two and gives each (metric, workload) pair a verdict by the rules of
//! the choosing-metrics guide (§6, §8), with the metric's bound on that
//! workload ([`crate::spec::Judged`]):
//!
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `unresolved` — not worse, but the run-to-run spread (distance
//!   between the quartiles over the median, the wider of the two sides)
//!   exceeds the bound, so "no regression" cannot be claimed;
//! * `improved` — B wins at least nine tenths of the pairs (run i of A
//!   against run i of B, ties counting for neither) and the medians
//!   differ by more than the distance between A's own quartiles;
//! * `unchanged` — none of the above, or medians inside the tie floor.
//!
//! A bound of 0 (`virt_end_ms`) is exact: run i of A and run i of B have
//! the same seed, so any pair where B is worse is `worse`, any movement
//! the other way `improved`, and sets run at different seeds cannot be
//! judged at all (`unresolved`). A workload A has and B lacks is `worse`.
//!
//! Per-layer metrics carry no bound: their medians are listed, not
//! judged. An exact counter that differs between paired runs is marked
//! `moved` — a simulator-only change must leave every one of them alone.

use crate::json::{self, Json};
use crate::measure::{median, quartiles};
use crate::spec::{Better, Source, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;

/// Values of one metric over a set's runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    pub unit: String,
    pub values: Vec<f64>,
}

#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Series>,
}

/// One set of runs: every workload `runs` times, run i at `seed + i`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultSet {
    pub seed: u64,
    pub seconds: f64,
    pub runs: u32,
    pub nproc: u32,
    /// In the order they ran.
    pub workloads: Vec<(String, WorkloadResult)>,
}

impl WorkloadResult {
    fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|(name, s)| {
            let values = s.values.iter().map(|&v| Json::Num(v)).collect();
            let series = Json::obj([("unit", Json::str(&s.unit)), ("values", Json::Arr(values))]);
            (name.clone(), series)
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics.collect())),
        ])
    }
}

impl ResultSet {
    pub fn to_json(&self) -> Json {
        let workloads = self
            .workloads
            .iter()
            .map(|(name, w)| (name.clone(), w.to_json()));
        Json::obj([
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("runs", Json::Num(self.runs as f64)),
            ("nproc", Json::Num(self.nproc as f64)),
            ("workloads", Json::Obj(workloads.collect())),
        ])
    }

    pub fn from_json(j: &Json) -> Result<ResultSet, String> {
        let num = |j: &Json, k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("result file: missing number \"{k}\""))
        };
        let mut set = ResultSet {
            seed: num(j, "seed")? as u64,
            seconds: num(j, "seconds")?,
            runs: num(j, "runs")? as u32,
            nproc: num(j, "nproc")? as u32,
            workloads: Vec::new(),
        };
        let workloads = j
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or("result file: missing \"workloads\"")?;
        for (name, w) in workloads {
            let mut out = WorkloadResult {
                correct: w.get("correct") == Some(&Json::Bool(true)),
                attempted: num(w, "attempted")? as u64,
                failed: num(w, "failed")? as u64,
                metrics: BTreeMap::new(),
            };
            let metrics = w
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("result file: {name} has no \"metrics\""))?;
            for (m, s) in metrics {
                let values = s
                    .get("values")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("result file: {name}.{m} has no \"values\""))?
                    .iter()
                    .map(|v| {
                        v.as_f64()
                            .ok_or_else(|| format!("result file: {name}.{m}: not a number"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let unit = s
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                out.metrics.insert(m.clone(), Series { unit, values });
            }
            set.workloads.push((name.clone(), out));
        }
        Ok(set)
    }

    pub fn load(path: &str) -> Result<ResultSet, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        ResultSet::from_json(&json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
    }

    pub fn workload(&self, name: &str) -> Option<&WorkloadResult> {
        self.workloads
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, w)| w)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and distance between the quartiles (0 for a single run: one
/// value has no spread to show).
fn centre(xs: &[f64]) -> (f64, f64, f64) {
    if xs.len() < 2 {
        return (xs[0], xs[0], xs[0]);
    }
    let (q1, q3) = quartiles(xs);
    (median(xs), q1, q3)
}

/// Judge an exact metric: `a[i]` and `b[i]` are the same workload at the
/// same seed.
fn judge_exact(a: &[f64], b: &[f64], better: Better) -> Verdict {
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let pairs = || a.iter().zip(b).map(|(a, b)| sign * (b - a));
    if pairs().any(|d| d > 0.0) {
        Verdict::Worse
    } else if pairs().any(|d| d < 0.0) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Judge B against A for one metric. `tie_floor` is in the metric's
/// unit; `bound` 0 means exact (see the module text).
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64, tie_floor: f64) -> Verdict {
    if bound == 0.0 {
        return judge_exact(a, b, better);
    }
    let (ma, qa1, qa3) = centre(a);
    let (mb, qb1, qb3) = centre(b);
    if (mb - ma).abs() < tie_floor {
        return Verdict::Unchanged;
    }
    let scale = ma.abs().max(f64::MIN_POSITIVE);
    // Positive = B worse.
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worse_by = sign * (mb - ma) / scale;
    if worse_by > bound {
        return Verdict::Worse;
    }
    let spread = ((qa3 - qa1) / scale).max((qb3 - qb1) / mb.abs().max(f64::MIN_POSITIVE));
    if spread > bound {
        return Verdict::Unresolved;
    }
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| sign * (b[i] - a[i]) < 0.0).count();
    if worse_by < 0.0 && wins * 10 >= pairs * 9 && (mb - ma).abs() > qa3 - qa1 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Print the comparison; returns how many pairs were `worse`.
pub fn compare(a: &ResultSet, b: &ResultSet, out: &mut impl std::fmt::Write) -> usize {
    let (mut worse, mut moved) = (0, 0);
    let _ = writeln!(
        out,
        "A: seed {} runs {} x {} s, nproc {}   B: seed {} runs {} x {} s, nproc {}",
        a.seed, a.runs, a.seconds, a.nproc, b.seed, b.runs, b.seconds, b.nproc
    );
    // Run i of each set is at seed + i: pairs share their inputs only
    // when the sets started from the same seed.
    let paired = a.seed == b.seed;
    for (name, _) in &b.workloads {
        if a.workload(name).is_none() {
            let _ = writeln!(out, "\n{name}: only in B");
        }
    }
    for (name, wa) in &a.workloads {
        let Some(wb) = b.workload(name) else {
            let _ = writeln!(out, "\n{name}: only in A: worse (a workload was dropped)");
            worse += 1;
            continue;
        };
        let _ = writeln!(
            out,
            "\n{name}: failed {}/{} -> {}/{}",
            wa.failed, wa.attempted, wb.failed, wb.attempted
        );
        // More failures than the parent cancels any gain (and is worse).
        if wb.failed > wa.failed || (wa.correct && !wb.correct) {
            let _ = writeln!(out, "  outputs: worse (B fails checks A passed)");
            worse += 1;
        }
        for e in &END_TO_END {
            let (Some(sa), Some(sb)) = (wa.metrics.get(e.name), wb.metrics.get(e.name)) else {
                continue;
            };
            if sa.values.is_empty() || sb.values.is_empty() {
                continue;
            }
            let bound = e.judged.bound_for(name);
            let v = if bound == 0.0 && !paired {
                Verdict::Unresolved
            } else {
                judge(&sa.values, &sb.values, e.better, bound, e.judged.tie_floor)
            };
            worse += usize::from(v == Verdict::Worse);
            let (ma, qa1, qa3) = centre(&sa.values);
            let (mb, qb1, qb3) = centre(&sb.values);
            let _ = writeln!(
                out,
                "  {:<12} {:>12.6} [{:.6}, {:.6}] -> {:>12.6} [{:.6}, {:.6}] {:<4} {:+7.2}%  bound {:>4.1}%  {}",
                e.name,
                ma,
                qa1,
                qa3,
                mb,
                qb1,
                qb3,
                e.unit,
                100.0 * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
                100.0 * bound,
                v.as_str()
            );
        }
        for p in &PER_LAYER {
            let (Some(sa), Some(sb)) = (wa.metrics.get(p.name), wb.metrics.get(p.name)) else {
                continue;
            };
            if sa.values.is_empty() || sb.values.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&sa.values), median(&sb.values));
            if ma == 0.0 && mb == 0.0 {
                continue;
            }
            let exact_moved = paired && p.source == Source::Counter && sa.values != sb.values;
            moved += usize::from(exact_moved);
            let _ = writeln!(
                out,
                "  {:<34} {:>16.4} -> {:>16.4} {:<5} {:+7.2}%{}",
                p.name,
                ma,
                mb,
                p.unit,
                100.0 * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
                if exact_moved { "  moved" } else { "" }
            );
        }
    }
    let _ = writeln!(out, "\n{worse} worse, {moved} exact counters moved");
    worse
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(centre: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| centre * (1.0 + jitter * ((i * 7 % 10) as f64 / 9.0 - 0.5)))
            .collect()
    }

    #[test]
    fn verdicts_follow_the_paired_rule() {
        let a = around(1.0, 0.02);
        let lower = |a: &[f64], b: &[f64], bound| judge(a, b, Better::Lower, bound, 0.0);
        assert_eq!(lower(&a, &a, 0.05), Verdict::Unchanged);
        assert_eq!(lower(&a, &around(0.8, 0.02), 0.05), Verdict::Improved);
        assert_eq!(lower(&a, &around(1.2, 0.02), 0.05), Verdict::Worse);
        // The same 20 % drop is a regression when higher is better.
        assert_eq!(
            judge(&a, &around(0.8, 0.02), Better::Higher, 0.05, 0.0),
            Verdict::Worse
        );
        // Spread wider than the bound: no "unchanged" claim.
        assert_eq!(
            lower(&around(1.0, 0.3), &around(1.0, 0.3), 0.05),
            Verdict::Unresolved
        );
        // A small gain inside A's own spread is not an improvement.
        assert_eq!(lower(&a, &around(0.995, 0.02), 0.05), Verdict::Unchanged);
        // Single runs compare by the bound alone.
        assert_eq!(lower(&[1.0], &[1.2], 0.1), Verdict::Worse);
        assert_eq!(lower(&[1.0], &[1.05], 0.1), Verdict::Unchanged);
    }

    #[test]
    fn exact_metrics_and_tie_floors() {
        // Bound 0: pair by pair, no tolerance either way.
        let exact = |a: &[f64], b: &[f64]| judge(a, b, Better::Lower, 0.0, 0.0);
        assert_eq!(exact(&[7.5, 8.0], &[7.5, 8.0]), Verdict::Unchanged);
        assert_eq!(exact(&[7.5, 8.0], &[7.5, 8.000001]), Verdict::Worse);
        assert_eq!(exact(&[7.5, 8.0], &[7.4, 8.0]), Verdict::Improved);
        // One pair worse outweighs another better.
        assert_eq!(exact(&[7.5, 8.0], &[7.0, 8.1]), Verdict::Worse);
        // 30 us against 40 us of set-up is a tie under a 5 ms floor and a
        // regression without one.
        let (a, b) = (around(30e-6, 0.02), around(40e-6, 0.02));
        assert_eq!(judge(&a, &b, Better::Lower, 0.1, 0.005), Verdict::Unchanged);
        assert_eq!(judge(&a, &b, Better::Lower, 0.1, 0.0), Verdict::Worse);
    }
}
