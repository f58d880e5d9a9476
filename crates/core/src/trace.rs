//! Projections-like utilization accounting (paper Fig. 12).
//!
//! The paper's time profiles show, per time interval, how much of the
//! machine was doing useful computation (yellow), sitting idle (white), or
//! burning runtime overhead (black). We accumulate exactly those three
//! quantities: handler compute time is *busy*, scheduler + machine-layer
//! time is *overhead*, and idle is whatever remains of `num_pes × span`.

use crate::msg::PeId;
use sim_core::{time, LazyVec, Time};

/// What a recorded time segment was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Useful application computation (handler `charge`d work).
    Busy,
    /// Runtime overhead: scheduling, protocol processing, copies.
    Overhead,
    /// Fault-recovery work: transaction retries, CQ overrun resyncs,
    /// registration fallbacks, crash-recovery restores and replays. Zero in
    /// fault-free runs; splitting it from ordinary overhead makes
    /// chaos-mode profiles show what robustness costs.
    Recovery,
    /// Checkpoint work: serializing PE state and shipping it to the buddy
    /// node. Proactive (it runs in fault-free time too, unlike
    /// [`Kind::Recovery`]), so it gets its own bucket — the cadence sweep
    /// reads checkpoint overhead directly from here.
    Checkpoint,
}

#[derive(Debug, Default, Clone, Copy)]
struct Acc {
    busy: Time,
    ovh: Time,
    rec: Time,
    ckpt: Time,
}

/// One buffered [`Trace::record`] call from a parallel-phase event
/// execution (see `par.rs`). Workers cannot touch the shared [`Trace`], so
/// they record these and the driver replays them in canonical event order
/// at the window barrier — reproducing the exact `record` call sequence of
/// the sequential engine (which the per-PE pending-segment buffering and
/// the raw log depend on).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TraceOp(
    pub(crate) PeId,
    pub(crate) Time,
    pub(crate) Time,
    pub(crate) Kind,
);

/// One row of a rendered time profile.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProfileRow {
    /// Bucket start, ns.
    pub(crate) t: Time,
    pub(crate) busy_frac: f64,
    pub(crate) overhead_frac: f64,
    pub(crate) recovery_frac: f64,
    pub(crate) checkpoint_frac: f64,
    pub(crate) idle_frac: f64,
}

/// Materialization grain for the timeline's per-PE pending segments.
/// Traffic patterns that touch widely scattered PEs (a relay striding a
/// million-PE machine) materialize one page per touched neighborhood, so
/// the page is kept small: 64 entries is 1.5 KiB per scattered PE.
const TRACE_PAGE: usize = 64;

/// Utilization accumulator for a whole job: whole-job totals per [`Kind`],
/// and, in timeline mode, the Fig.-12 buckets.
///
/// The only per-PE state is the timeline's pending segment, stored in
/// lazily materialized pages ([`sim_core::LazyVec`]) and touched only
/// in timeline mode, so a totals-only trace allocates nothing per PE and a
/// timeline costs memory proportional to the *touched* PEs, not the
/// machine size. The differential tests compare it against an eager twin,
/// `Trace::new_dense`.
#[derive(Debug)]
pub struct Trace {
    totals: Acc,
    num_pes: u32,
    /// Aggregated timeline buckets across all PEs (None = totals only).
    /// Dense over *time*, not PEs: bounded by span / bucket width.
    bucket_ns: Option<Time>,
    buckets: Vec<Acc>,
    /// Per-PE buffered segment awaiting bucket application. The driver
    /// charges most work as back-to-back same-kind segments (scheduler
    /// overhead chained behind handler compute), so buffering one pending
    /// segment per PE and extending it in place batches the bucket-split
    /// loop across whole busy stretches. A buffer drains when a
    /// non-adjacent or different-kind charge for that PE arrives; readers
    /// ([`Trace::profile`]) overlay still-pending segments, so observable
    /// results are exact at any instant. Totals, `end`, and the optional
    /// raw log are updated eagerly and never buffered.
    pending: LazyVec<Option<(Time, Time, Kind)>, TRACE_PAGE>,
    /// Optional full event log: (pe, start, dur, kind) — the
    /// Projections-style export. Off by default (memory).
    log: Option<Vec<(PeId, Time, Time, Kind)>>,
    end: Time,
}

impl Trace {
    /// `bucket_ns = None` records only totals (cheap); `Some(w)` also keeps
    /// an aggregated timeline with bucket width `w`.
    pub(crate) fn new(num_pes: u32, bucket_ns: Option<Time>) -> Self {
        Trace {
            totals: Acc::default(),
            num_pes,
            bucket_ns,
            buckets: Vec::new(),
            pending: LazyVec::new(num_pes as usize, None),
            log: None,
            end: 0,
        }
    }

    /// Pages of per-PE state currently materialized (memory diagnostics;
    /// 0 unless a timeline PE has recorded something).
    pub fn materialized_pages(&self) -> usize {
        self.pending.materialized_pages()
    }

    /// Record every segment for a Projections-style per-PE export
    /// ([`Trace::export_log`]). Costs memory proportional to segment count.
    pub(crate) fn enable_log(&mut self) {
        self.log = Some(Vec::new());
    }

    /// Record `dur` ns of `kind` work on `pe` starting at `start`.
    // serial-only: appends to the shared timeline
    pub(crate) fn record(&mut self, pe: PeId, start: Time, dur: Time, kind: Kind) {
        if dur == 0 {
            return;
        }
        if let Some(log) = &mut self.log {
            log.push((pe, start, dur, kind));
        }
        self.totals.add(kind, dur);
        self.end = self.end.max(start + dur);
        let Some(w) = self.bucket_ns else {
            return;
        };
        // Timeline mode: merge the charge into this PE's pending segment
        // when it extends it seamlessly (same kind, contiguous in time);
        // otherwise drain the old segment into the buckets and start a new
        // one. Splitting a merged segment across buckets distributes
        // exactly the same durations as splitting its parts one by one.
        match self.pending.get_mut(pe as usize) {
            Some((s, d, k)) if *k == kind && *s + *d == start => *d += dur,
            p => {
                if let Some((s, d, k)) = p.replace((start, dur, kind)) {
                    split_into(&mut self.buckets, w, s, d, k);
                }
            }
        }
    }

    /// Replay one buffered [`TraceOp`].
    pub(crate) fn apply(&mut self, &TraceOp(pe, start, dur, kind): &TraceOp) {
        self.record(pe, start, dur, kind);
    }

    /// Latest recorded activity.
    pub fn end_time(&self) -> Time {
        self.end
    }

    pub fn total_busy(&self) -> Time {
        self.totals.busy
    }

    pub fn total_overhead(&self) -> Time {
        self.totals.ovh
    }

    pub(crate) fn total_recovery(&self) -> Time {
        self.totals.rec
    }

    pub fn total_checkpoint(&self) -> Time {
        self.totals.ckpt
    }

    /// Whole-run utilization fractions `(busy, overhead, idle)` over
    /// `span` (defaults to the recorded end time). Recovery time is folded
    /// into the overhead fraction here (it is runtime work, not idleness);
    /// use [`Trace::utilization_with_recovery`] for the split.
    pub fn utilization(&self, span: Option<Time>) -> (f64, f64, f64) {
        let (busy, ovh, rec, idle) = self.utilization_with_recovery(span);
        (busy, ovh + rec, idle)
    }

    /// Whole-run utilization fractions `(busy, overhead, recovery, idle)`.
    /// Checkpoint time is folded into the overhead fraction (it is
    /// proactive runtime work); read [`Trace::total_checkpoint`] for the
    /// split.
    pub fn utilization_with_recovery(&self, span: Option<Time>) -> (f64, f64, f64, f64) {
        let span = span.unwrap_or(self.end).max(1);
        let cap = (span as f64) * self.num_pes as f64;
        let busy = self.total_busy() as f64 / cap;
        let ovh = (self.total_overhead() + self.total_checkpoint()) as f64 / cap;
        let rec = self.total_recovery() as f64 / cap;
        (busy, ovh, rec, (1.0 - busy - ovh - rec).max(0.0))
    }

    /// Render the Fig.-12-style time profile (requires timeline mode).
    pub(crate) fn profile(&self) -> Vec<ProfileRow> {
        let w = self
            .bucket_ns
            .expect("trace built without timeline buckets");
        // Overlay the per-PE pending segments that have not been drained
        // into the shared buckets yet, so the profile is exact even when
        // read mid-run.
        let mut buckets = self.buckets.clone();
        // Materialized pages come back in ascending index order, so the
        // overlay applies pending segments in exactly the per-PE index
        // order the dense representation used.
        for p in self.pending.iter_pages().flat_map(|(_, p)| p.iter()) {
            if let Some((start, dur, kind)) = *p {
                split_into(&mut buckets, w, start, dur, kind);
            }
        }
        let cap = (w as f64) * self.num_pes as f64;
        buckets
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let busy = a.busy as f64 / cap;
                let ovh = a.ovh as f64 / cap;
                let rec = a.rec as f64 / cap;
                let ckpt = a.ckpt as f64 / cap;
                ProfileRow {
                    t: i as Time * w,
                    busy_frac: busy,
                    overhead_frac: ovh,
                    recovery_frac: rec,
                    checkpoint_frac: ckpt,
                    idle_frac: (1.0 - busy - ovh - rec - ckpt).max(0.0),
                }
            })
            .collect()
    }

    /// Export the per-PE segment log in a Projections-like text format:
    /// one line per segment, `pe start_ns dur_ns busy|ovhd`, sorted by
    /// (pe, start). Requires [`Trace::enable_log`].
    pub fn export_log(&self) -> String {
        let log = self.log.as_ref().expect("trace log not enabled");
        let mut rows: Vec<&(PeId, Time, Time, Kind)> = log.iter().collect();
        rows.sort_by_key(|(pe, start, _, _)| (*pe, *start));
        let mut out = String::with_capacity(rows.len() * 24);
        out.push_str("# pe start_ns dur_ns kind\n");
        for (pe, start, dur, kind) in rows {
            let k = kind_tag(*kind);
            out.push_str(&format!("{pe} {start} {dur} {k}\n"));
        }
        out
    }

    /// ASCII rendering of the profile, one row per bucket.
    pub fn render_profile(&self) -> String {
        let mut out = String::new();
        out.push_str("      t        busy%   ovhd%   rcvy%   ckpt%   idle%\n");
        for r in self.profile() {
            out.push_str(&format!(
                "{:>10}  {:>6.1}  {:>6.1}  {:>6.1}  {:>6.1}  {:>6.1}\n",
                time::fmt(r.t),
                r.busy_frac * 100.0,
                r.overhead_frac * 100.0,
                r.recovery_frac * 100.0,
                r.checkpoint_frac * 100.0,
                r.idle_frac * 100.0
            ));
        }
        out
    }
}

impl Acc {
    fn add(&mut self, kind: Kind, dur: Time) {
        match kind {
            Kind::Busy => self.busy += dur,
            Kind::Overhead => self.ovh += dur,
            Kind::Recovery => self.rec += dur,
            Kind::Checkpoint => self.ckpt += dur,
        }
    }
}

/// Split one segment across timeline buckets of width `w` (the flush side
/// of the per-PE buffering in [`Trace::record`], and the profile's overlay
/// of still-pending segments).
fn split_into(buckets: &mut Vec<Acc>, w: Time, start: Time, dur: Time, kind: Kind) {
    let mut t = start;
    let end = start + dur;
    while t < end {
        let b = (t / w) as usize;
        if b >= buckets.len() {
            buckets.resize(b + 1, Acc::default());
        }
        let seg_end = ((b as Time + 1) * w).min(end);
        buckets[b].add(kind, seg_end - t);
        t = seg_end;
    }
}

fn kind_tag(kind: Kind) -> &'static str {
    match kind {
        Kind::Busy => "busy",
        Kind::Overhead => "ovhd",
        Kind::Recovery => "rcvy",
        Kind::Checkpoint => "ckpt",
    }
}

#[cfg(test)]
impl Trace {
    /// Eager twin of [`Trace::new`]: the pending segments fully
    /// materialized up front. Observationally identical to the sparse
    /// default; the differential unit tests compare against it.
    pub(crate) fn new_dense(num_pes: u32, bucket_ns: Option<Time>) -> Self {
        let mut t = Self::new(num_pes, bucket_ns);
        t.pending = LazyVec::new(num_pes as usize, None).eager();
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_accumulate_per_kind() {
        let mut t = Trace::new(2, None);
        t.record(0, 0, 100, Kind::Busy);
        t.record(0, 100, 50, Kind::Overhead);
        t.record(1, 0, 25, Kind::Busy);
        assert_eq!(t.total_busy(), 125);
        assert_eq!(t.total_overhead(), 50);
        assert_eq!(t.end_time(), 150);
    }

    #[test]
    fn zero_duration_is_ignored() {
        let mut t = Trace::new(1, Some(10));
        t.record(0, 5, 0, Kind::Busy);
        assert_eq!(t.total_busy(), 0);
        assert_eq!(t.end_time(), 0);
    }

    #[test]
    fn utilization_fractions_sum_to_one() {
        let mut t = Trace::new(2, None);
        t.record(0, 0, 600, Kind::Busy);
        t.record(1, 0, 200, Kind::Overhead);
        let (b, o, i) = t.utilization(Some(1000));
        assert!((b - 0.3).abs() < 1e-9);
        assert!((o - 0.1).abs() < 1e-9);
        assert!((b + o + i - 1.0).abs() < 1e-9);
    }

    #[test]
    fn segments_split_across_buckets() {
        let mut t = Trace::new(1, Some(100));
        // 250..450 busy: buckets 2 (50ns), 3 (100ns), 4 (50ns)
        t.record(0, 250, 200, Kind::Busy);
        let p = t.profile();
        assert_eq!(p.len(), 5);
        assert!((p[2].busy_frac - 0.5).abs() < 1e-9);
        assert!((p[3].busy_frac - 1.0).abs() < 1e-9);
        assert!((p[4].busy_frac - 0.5).abs() < 1e-9);
        assert_eq!(p[0].busy_frac, 0.0);
    }

    #[test]
    fn adjacent_charges_profile_like_one_segment() {
        // Coalesced path (adjacent same-kind records) vs a single merged
        // record: bucket profiles must match exactly.
        let mut a = Trace::new(1, Some(100));
        a.record(0, 250, 80, Kind::Busy);
        a.record(0, 330, 120, Kind::Busy);
        let mut b = Trace::new(1, Some(100));
        b.record(0, 250, 200, Kind::Busy);
        let (pa, pb) = (a.profile(), b.profile());
        assert_eq!(pa.len(), pb.len());
        for (ra, rb) in pa.iter().zip(&pb) {
            assert_eq!(ra.busy_frac, rb.busy_frac);
        }
        assert_eq!(a.total_busy(), b.total_busy());
    }

    #[test]
    fn drained_and_pending_segments_both_show_in_profile() {
        let mut t = Trace::new(2, Some(100));
        // PE 0: two non-adjacent busy stretches — the first drains into
        // the shared buckets when the second arrives, the second is still
        // pending at read time. PE 1: different kind, still pending.
        t.record(0, 0, 100, Kind::Busy);
        t.record(0, 300, 100, Kind::Busy);
        t.record(1, 100, 50, Kind::Overhead);
        let p = t.profile();
        assert!((p[0].busy_frac - 0.5).abs() < 1e-9, "drained segment");
        assert!((p[3].busy_frac - 0.5).abs() < 1e-9, "pending segment");
        assert!((p[1].overhead_frac - 0.25).abs() < 1e-9, "other PE pending");
        assert_eq!(t.end_time(), 400);
    }

    #[test]
    fn kind_change_drains_the_buffer() {
        let mut t = Trace::new(1, Some(1000));
        t.record(0, 0, 100, Kind::Busy);
        t.record(0, 100, 100, Kind::Overhead); // adjacent but different kind
        t.record(0, 200, 100, Kind::Recovery);
        let p = t.profile();
        assert!((p[0].busy_frac - 0.1).abs() < 1e-9);
        assert!((p[0].overhead_frac - 0.1).abs() < 1e-9);
        assert!((p[0].recovery_frac - 0.1).abs() < 1e-9);
    }

    #[test]
    fn profile_normalizes_by_pe_count() {
        let mut t = Trace::new(4, Some(100));
        t.record(0, 0, 100, Kind::Busy);
        let p = t.profile();
        assert!((p[0].busy_frac - 0.25).abs() < 1e-9, "1 of 4 PEs busy");
        assert!((p[0].idle_frac - 0.75).abs() < 1e-9);
    }

    #[test]
    fn recovery_is_tracked_separately_but_folds_into_overhead() {
        let mut t = Trace::new(1, None);
        t.record(0, 0, 300, Kind::Busy);
        t.record(0, 300, 100, Kind::Overhead);
        t.record(0, 400, 100, Kind::Recovery);
        assert_eq!(t.total_recovery(), 100);
        assert_eq!(t.total_overhead(), 100);
        let (b, o, r, i) = t.utilization_with_recovery(Some(1000));
        assert!((b - 0.3).abs() < 1e-9);
        assert!((o - 0.1).abs() < 1e-9);
        assert!((r - 0.1).abs() < 1e-9);
        assert!((b + o + r + i - 1.0).abs() < 1e-9);
        // Legacy 3-tuple folds recovery into overhead.
        let (_, o3, _) = t.utilization(Some(1000));
        assert!((o3 - 0.2).abs() < 1e-9);
    }

    #[test]
    fn recovery_appears_in_log_and_profile() {
        let mut t = Trace::new(1, Some(100));
        t.enable_log();
        t.record(0, 0, 50, Kind::Recovery);
        assert!(t.export_log().contains("0 0 50 rcvy"));
        let p = t.profile();
        assert!((p[0].recovery_frac - 0.5).abs() < 1e-9);
        assert!((p[0].idle_frac - 0.5).abs() < 1e-9);
        assert!(t.render_profile().contains("rcvy%"));
    }

    #[test]
    fn checkpoint_is_tracked_separately_and_folds_into_overhead() {
        let mut t = Trace::new(1, Some(100));
        t.enable_log();
        t.record(0, 0, 300, Kind::Busy);
        t.record(0, 300, 100, Kind::Checkpoint);
        assert_eq!(t.total_checkpoint(), 100);
        assert_eq!(t.total_overhead(), 0);
        let (b, o, r, i) = t.utilization_with_recovery(Some(1000));
        assert!((b - 0.3).abs() < 1e-9);
        assert!((o - 0.1).abs() < 1e-9, "checkpoint folds into overhead");
        assert_eq!(r, 0.0);
        assert!((b + o + r + i - 1.0).abs() < 1e-9);
        assert!(t.export_log().contains("0 300 100 ckpt"));
        let p = t.profile();
        assert!((p[3].checkpoint_frac - 1.0).abs() < 1e-9);
        assert!(t.render_profile().contains("ckpt%"));
    }

    #[test]
    fn export_log_round_trips_segments() {
        let mut t = Trace::new(2, None);
        t.enable_log();
        t.record(1, 100, 50, Kind::Busy);
        t.record(0, 30, 20, Kind::Overhead);
        t.record(0, 10, 5, Kind::Busy);
        let log = t.export_log();
        let lines: Vec<&str> = log.lines().skip(1).collect();
        assert_eq!(lines, vec!["0 10 5 busy", "0 30 20 ovhd", "1 100 50 busy"]);
    }

    #[test]
    #[should_panic(expected = "trace log not enabled")]
    fn export_without_log_panics() {
        let t = Trace::new(1, None);
        t.export_log();
    }

    /// Drive one identical charge sequence into two traces.
    fn drive(t: &mut Trace) {
        t.record(0, 0, 100, Kind::Busy);
        t.record(0, 100, 80, Kind::Busy); // adjacent: extends pending
        t.record(0, 250, 40, Kind::Overhead); // gap: drains PE 0
        t.record(3, 120, 300, Kind::Recovery); // crosses bucket boundaries
        t.record(7, 50, 25, Kind::Checkpoint);
    }

    #[test]
    fn streaming_profile_equals_dense_profile() {
        let mut sparse = Trace::new(4096, Some(100));
        let mut dense = Trace::new_dense(4096, Some(100));
        drive(&mut sparse);
        drive(&mut dense);
        let (ps, pd) = (sparse.profile(), dense.profile());
        assert_eq!(ps.len(), pd.len());
        for (a, b) in ps.iter().zip(&pd) {
            assert_eq!(a.t, b.t);
            assert_eq!(a.busy_frac, b.busy_frac);
            assert_eq!(a.overhead_frac, b.overhead_frac);
            assert_eq!(a.recovery_frac, b.recovery_frac);
            assert_eq!(a.checkpoint_frac, b.checkpoint_frac);
            assert_eq!(a.idle_frac, b.idle_frac);
        }
        assert_eq!(sparse.total_busy(), dense.total_busy());
        assert_eq!(sparse.total_overhead(), dense.total_overhead());
        assert_eq!(sparse.total_recovery(), dense.total_recovery());
        assert_eq!(sparse.total_checkpoint(), dense.total_checkpoint());
        assert_eq!(sparse.end_time(), dense.end_time());
        assert!(sparse.materialized_pages() < dense.materialized_pages());
    }

    #[test]
    fn streaming_profile_overlays_pending_mid_run() {
        // Read the profile *mid-run*, while PE 0's second stretch and PE
        // 3's only stretch are still buffered (never drained): the sparse
        // overlay must match the dense one bucket-for-bucket.
        let mut sparse = Trace::new(16, Some(100));
        let mut dense = Trace::new_dense(16, Some(100));
        for t in [&mut sparse, &mut dense] {
            t.record(0, 0, 100, Kind::Busy);
            t.record(0, 350, 100, Kind::Busy); // pending at read time
            t.record(3, 120, 60, Kind::Overhead); // pending at read time
        }
        let (ps, pd) = (sparse.profile(), dense.profile());
        assert_eq!(ps.len(), pd.len());
        for (a, b) in ps.iter().zip(&pd) {
            assert_eq!(a.busy_frac, b.busy_frac);
            assert_eq!(a.overhead_frac, b.overhead_frac);
        }
        // The pending segments really were part of the read.
        assert!(ps[3].busy_frac > 0.0);
        assert!(ps[1].overhead_frac > 0.0);
    }

    #[test]
    fn untouched_pes_allocate_nothing() {
        // A timeline trace sized for a million PEs where only a handful
        // record anything must materialize pages for those PEs alone.
        let mut t = Trace::new(1_000_000, Some(1000));
        assert_eq!(
            t.materialized_pages(),
            0,
            "construction allocates no per-PE state"
        );
        t.record(5, 0, 100, Kind::Busy);
        // One pending-segment page; the other ~999k PEs stay untouched.
        assert_eq!(t.materialized_pages(), 1);
        t.profile();
        assert_eq!(t.materialized_pages(), 1, "reads never materialize");
        assert_eq!(t.total_busy(), 100);
        // Totals only: no per-PE state at all.
        let mut totals = Trace::new(1_000_000, None);
        totals.record(999_999, 0, 100, Kind::Busy);
        assert_eq!(totals.materialized_pages(), 0);
        assert_eq!(totals.total_busy(), 100);
    }

    #[test]
    fn render_contains_rows() {
        let mut t = Trace::new(1, Some(1000));
        t.record(0, 0, 500, Kind::Busy);
        t.record(0, 500, 250, Kind::Overhead);
        let s = t.render_profile();
        assert!(s.contains("busy%"));
        assert!(s.contains("50.0"));
        assert!(s.contains("25.0"));
    }
}
