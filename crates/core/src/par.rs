//! The conservative parallel engine (DESIGN.md §10): node partitions run
//! PE-local events in bounded lookahead windows on a worker pool, the main
//! thread executes the serial frontier (machine layer, commands, ties) in
//! canonical order between them. Workers and the driver are two callers
//! of the event kernel (kernel.rs); this file only decides *when* an event
//! may run and where its effects are buffered, keyed and replayed.

#![allow(
    clippy::disallowed_types,
    reason = "the halt time and partition frontiers are the engine's cross-thread state"
)]

use crate::cluster::{Cluster, RunReport};
use crate::config::add_sync_overhead_ns;
use crate::ctx::{MachineCtx, McBack};
use crate::kernel::{self, ClusterStats, Cmd, Delivered, Event, ExecEnv, Gate, PeRun, PeState};
use crate::lrts::MachineLayer;
use crate::msg::PeId;
use crate::trace::{Kind, Trace, TraceOp};
use sim_core::parallel::{partition_ranges, run_pool, EvKey, KeyedQueue};
use sim_core::Time;
use std::sync::atomic::{AtomicU64, Ordering};

impl Cluster {
    /// Conservative parallel execution over node partitions (DESIGN.md §10).
    ///
    /// The cluster's nodes are split into `threads` contiguous partitions,
    /// each owning its PEs' state and a keyed event queue. Execution
    /// alternates a serial phase (main thread, canonical global order:
    /// machine-layer events, command execution, ties) with bounded parallel
    /// windows in which workers run PE-local events with
    /// `t < min(next layer event, frontier + lookahead)`. Side effects that
    /// touch shared accounting (trace, stats) are buffered per event and
    /// replayed in canonical key order at the window barrier, so every
    /// virtual timestamp, trace charge, RNG draw and statistic is
    /// bit-identical to [`Cluster::run`] with `threads = 1`.
    ///
    /// Falls back to the sequential engine when parallelism cannot help or
    /// is unsupported: `threads <= 1`, fewer than two nodes, or node-crash
    /// chaos (crash enactment and checkpoint/recovery mutate PE state
    /// across every partition at one instant, which the windowed engine
    /// cannot interleave — forcing serial keeps crash runs bit-identical
    /// at any thread count).
    pub(crate) fn run_parallel(&mut self, threads: u32) -> RunReport {
        if threads <= 1
            || self.cfg.num_nodes() < 2
            || self.ft.is_some()
            || self.cfg.fault.has_node_crash()
        {
            return self.run_seq();
        }
        let nparts = threads.min(self.cfg.num_nodes());
        let num_pes = self.cfg.num_pes;
        let cores = self.cfg.cores_per_node;

        // Contiguous node blocks; a node's PEs never split across partitions
        // (intra-node traffic must stay partition-local — the lookahead
        // bound only covers cross-node latency).
        let node_ranges = partition_ranges(self.cfg.num_nodes(), nparts);
        let mut pe_part = vec![0u32; num_pes as usize];
        let mut parts: Vec<PartData> = Vec::with_capacity(node_ranges.len());
        // The parallel engine owns PE state densely per partition:
        // materialize everything (whole-machine parallel runs touch every
        // PE anyway) and take the dense vector.
        let mut all_pes = self.pes.take_dense().into_iter();
        for (i, r) in node_ranges.iter().enumerate() {
            let lo = (r.start * cores).min(num_pes);
            let hi = (r.end * cores).min(num_pes);
            for pe in lo..hi {
                pe_part[pe as usize] = i as u32;
            }
            parts.push(PartData {
                idx: i as u32,
                base_pe: lo,
                pes: all_pes.by_ref().take((hi - lo) as usize).collect(),
                q: KeyedQueue::new(),
                epoch: 0,
                fx: Vec::new(),
                origins: Vec::new(),
                trace_ops: Vec::new(),
                cmds: Vec::new(),
                scratch: ExecOut::default(),
            });
        }
        debug_assert!(all_pes.next().is_none());

        // Split the pending queue in pop order: `(time, seq)` pop order IS
        // the canonical order, so assigning ascending flat ordinals here
        // seeds the keyed queues with the exact sequential tie-break.
        let mut serial: KeyedQueue<Event> = KeyedQueue::new();
        let mut ord = 0u64;
        while let Some((t, ev)) = self.events.pop() {
            let key = EvKey::flat(t, ord);
            ord += 1;
            match ev.local_pe() {
                Some(pe) => parts[pe_part[pe as usize] as usize].q.push(key, ev),
                None => serial.push(key, ev),
            }
        }

        let lookahead = self.layer.lookahead().max(1);
        let ctl = BatchCtl {
            halt: AtomicU64::new(u64::MAX),
            frontiers: (0..nparts).map(|_| AtomicU64::new(u64::MAX)).collect(),
            lookahead,
            batch_windows: self.cfg.batch_windows.max(1),
        };
        let env = ExecEnv {
            cfg: &self.cfg,
            handlers: &self.handlers,
            charm_reg: &self.charm,
            am_reg: &self.am,
            system_handlers: &self.system_handlers,
        };
        let mut driver = ParDriver {
            env: &env,
            layer: self.layer.as_mut(),
            trace: &mut self.trace,
            stats: &mut self.stats,
            pe_part: &pe_part,
            serial,
            ord,
            now: 0,
            stopped: false,
            lookahead,
            ctl: &ctl,
            scratch: ExecOut::default(),
            leftovers: Vec::new(),
            in_phase: Vec::new(),
            renum: vec![Vec::new(); parts.len()],
        };
        let (parts, sync_ns) = run_pool(
            parts,
            nparts as usize,
            |part, t_s| phase_run(part, t_s, &env, &ctl),
            |parts| driver.step(parts),
        );
        let ParDriver {
            mut serial,
            leftovers: stop_leftovers,
            now,
            stopped,
            ..
        } = driver;

        add_sync_overhead_ns(sync_ns);
        self.now = now;
        self.stopped = stopped;
        // Reassemble PE state (partitions are contiguous and in order) and
        // put any still-pending events back on the sequential queue in
        // canonical order, mirroring the state `run_seq` leaves on an early
        // stop. At most one source is non-empty: a stop found *inside a
        // window* drains every queue into `stop_leftovers` (already in
        // canonical order); a stop on the serial frontier leaves flat-keyed
        // queues, where the plain key sort is the canonical order.
        let mut leftover_evs: Vec<(EvKey, Event)> = serial.drain_sorted();
        let mut pes = Vec::with_capacity(num_pes as usize);
        for mut p in parts {
            leftover_evs.extend(p.q.drain_sorted());
            pes.append(&mut p.pes);
        }
        leftover_evs.sort_by_key(|e| e.0);
        for (k, ev) in leftover_evs {
            self.events.push(k.t, ev);
        }
        for (t, ev) in stop_leftovers {
            self.events.push(t, ev);
        }
        self.pes.restore_dense(pes);

        RunReport {
            end_time: self.now,
            stats: self.stats.clone(),
            stopped_early: self.stopped,
        }
    }
}

/// Buffered side effects of one event execution: everything that touches
/// state outside the owning partition. Replayed in canonical key order.
#[derive(Default)]
struct ExecOut {
    stats: ClusterStats,
    trace: Vec<TraceOp>,
    cmds: Vec<(EvKey, Event)>,
    stop: bool,
    /// Recycled handler outbox (the counterpart of the sequential
    /// engine's `Cluster::outbox`): drained after every handler, so only
    /// the allocation survives between events.
    outbox: Vec<(Time, Event)>,
}

impl ExecOut {
    fn clear(&mut self) {
        self.stats = ClusterStats::default();
        self.trace.clear();
        self.cmds.clear();
        self.stop = false;
        self.outbox.clear();
    }
}

/// One executed event's buffered effects, in partition execution (= key)
/// order. The trace ops live in a per-partition stream (`trace_ops`);
/// `trace_n` is this record's run length in it.
struct FxRec {
    key: EvKey,
    stats: ClusterStats,
    trace_n: u32,
    stop: bool,
}

/// Per-partition state owned by one worker during a parallel window batch.
pub(crate) struct PartData {
    /// This partition's index (= its slot in the driver's `parts` /
    /// frontier arrays).
    idx: u32,
    base_pe: u32,
    pes: Vec<PeState>,
    pub(crate) q: KeyedQueue<Event>,
    /// Global push-ordinal watermark at the start of the current phase:
    /// in-phase keys mint partition-local ordinals `epoch + i`.
    epoch: u64,
    fx: Vec<FxRec>,
    /// Push-origin log for the current phase: `origins[k.ord - epoch]` is
    /// the index (into `fx`) of the event whose execution pushed the
    /// in-phase key `k`. `canon_cmp` uses it to order in-phase keys of
    /// different partitions by their parents.
    origins: Vec<u32>,
    trace_ops: Vec<TraceOp>,
    cmds: Vec<(EvKey, Event)>,
    scratch: ExecOut,
}

impl PartData {
    pub(crate) fn pe_mut(&mut self, pe: PeId) -> &mut PeState {
        &mut self.pes[(pe - self.base_pe) as usize]
    }
}

/// Execute one PE-local event (`PeRun` or `Deliver`) on its partition:
/// the kernel decides what happens; effects are buffered into `out` and
/// follow-up events keyed by `mint(origins, at)` — called once per push,
/// in push order, so the key minter's internal counter reproduces the
/// sequential engine's push sequence. Workers mint in-phase keys (logging
/// each push's parent in the partition's `origins`) and leave `out` for
/// the barrier harvest; the driver mints flat keys and applies `out` at
/// once.
fn exec_local(
    env: &ExecEnv,
    part: &mut PartData,
    t: Time,
    ev: Event,
    mut mint: impl FnMut(&mut Vec<u32>, Time) -> EvKey,
    out: &mut ExecOut,
) {
    out.clear();
    let PartData {
        base_pe,
        pes,
        q,
        origins,
        ..
    } = part;
    let mut mk_key = |at| mint(origins, at);
    match ev {
        Event::Deliver(pe, bytes) => {
            let st = &mut pes[(pe - *base_pe) as usize];
            // Crash plans force the sequential engine: nothing to gate.
            let gate = Gate::default();
            if let Delivered::Queued { wake_at: Some(at) } =
                kernel::deliver(env, st, t, pe, bytes, gate, &mut out.stats)
            {
                q.push(mk_key(at), Event::PeRun(pe));
            }
        }
        Event::PeRun(pe) => {
            let st = &mut pes[(pe - *base_pe) as usize];
            // FT forces the sequential engine; handlers here never touch it.
            match kernel::pe_run(env, &mut None, st, t, pe, &mut out.outbox, &mut out.stats) {
                PeRun::Busy { until } => q.push(mk_key(until), Event::PeRun(pe)),
                PeRun::Idle => {}
                PeRun::Ran {
                    charged_app,
                    charged_ovh,
                    stop,
                    next_run,
                } => {
                    let busy = TraceOp(pe, t, charged_app, Kind::Busy);
                    let ovh = TraceOp(pe, t + charged_app, charged_ovh, Kind::Overhead);
                    out.trace.extend([busy, ovh]);
                    for (at, ev) in out.outbox.drain(..) {
                        let key = mk_key(at);
                        match &ev {
                            // Handler Delivers are self-send loopback:
                            // always this PE.
                            Event::Deliver(..) => q.push(key, ev),
                            Event::Cmd(..) => out.cmds.push((key, ev)),
                            _ => unreachable!("handlers only emit Deliver/Cmd"),
                        }
                    }
                    if let Some(at) = next_run {
                        q.push(mk_key(at), Event::PeRun(pe));
                    }
                    out.stop = stop;
                }
            }
        }
        _ => unreachable!("partition queues hold only PeRun/Deliver"),
    }
}

/// Upper bound on events one partition executes per parallel window
/// batch, so the runaway guard's event cap is checked (on the main
/// thread) with bounded overshoot.
const PHASE_CAP: usize = 4096;

/// Shared control state of one parallel window batch. Workers only ever
/// exchange monotone time bounds through it: `halt` shrinks (fetch_min),
/// each partition's frontier grows (one release-store per window) — a
/// stale read is always the *smaller* value, which is conservative, so no
/// ordering decision can race.
struct BatchCtl {
    /// Global early-stop bound (DESIGN.md §10): a worker that executes a
    /// stop or emits a `CreatePersistent` command publishes its timestamp
    /// so every partition halts there.
    halt: AtomicU64,
    /// Per-partition progress frontier: a lower bound on any event the
    /// partition has yet to execute *and* on any cross-partition push its
    /// pending commands may cause (commands execute serially later, and
    /// their deliveries land at least `lookahead` after the command).
    frontiers: Vec<AtomicU64>,
    lookahead: Time,
    /// Max consecutive windows per barrier crossing (`ClusterCfg::batch_windows`).
    batch_windows: u32,
}

/// One partition's parallel window batch: run PE-local events in
/// canonical key order while `t` stays below every bound the partition
/// must respect — the serial-class horizon `t_s`, its own first pending
/// command, the global halt, and every *other* partition's published
/// frontier plus the lookahead. After each window it publishes its own
/// new frontier and, if any other frontier moved, starts the next window
/// without a barrier crossing — up to `batch_windows` windows per phase.
/// Stopping early for any reason is always safe: unprocessed events
/// simply stay queued for the next serial phase.
fn phase_run(part: &mut PartData, t_s: Time, env: &ExecEnv, ctl: &BatchCtl) {
    let me = part.idx as usize;
    let epoch = part.epoch;
    // First Cmd this partition emits bounds it: the command executes later
    // (serially, in canonical order) and may extend the issuing PE's busy
    // window, so events at or after its timestamp must wait.
    let mut bound = t_s;
    let mut executed = 0usize;
    let mut scratch = std::mem::take(&mut part.scratch);
    for _window in 0..ctl.batch_windows.max(1) {
        let mut lim = bound.min(ctl.halt.load(Ordering::Relaxed));
        for (i, f) in ctl.frontiers.iter().enumerate() {
            if i != me {
                lim = lim.min(f.load(Ordering::Acquire).saturating_add(ctl.lookahead));
            }
        }
        let mut progressed = false;
        while executed < PHASE_CAP {
            let Some(t) = part.q.peek_time() else { break };
            if t >= lim {
                break;
            }
            let (key, ev) = part.q.pop().expect("peeked");
            let fx_idx = part.fx.len() as u32;
            let mint = |origins: &mut Vec<u32>, at| {
                let ord = epoch + origins.len() as u64;
                origins.push(fx_idx);
                EvKey { t: at, ord }
            };
            exec_local(env, part, t, ev, mint, &mut scratch);
            for (k, ev) in scratch.cmds.drain(..) {
                bound = bound.min(k.t);
                if matches!(&ev, Event::Cmd(_, Cmd::CreatePersistent { .. })) {
                    // Persistent-channel setup charges the *remote* PE when
                    // it executes; halt every partition at its timestamp so
                    // that charge sees sequential busy state (DESIGN.md §10).
                    ctl.halt.fetch_min(k.t, Ordering::Relaxed);
                }
                part.cmds.push((k, ev));
            }
            if scratch.stop {
                ctl.halt.fetch_min(t, Ordering::Relaxed);
            }
            part.fx.push(FxRec {
                key,
                stats: scratch.stats.clone(),
                trace_n: scratch.trace.len() as u32,
                stop: scratch.stop,
            });
            part.trace_ops.append(&mut scratch.trace);
            progressed = true;
            executed += 1;
        }
        // Publish how far this partition has provably advanced: its next
        // pending event and its first pending command both lower-bound
        // everything it can still cause. Monotone across windows (event
        // times are non-decreasing and new commands carry times at or
        // after the event that emitted them), so a peer acting on the old
        // value is merely conservative.
        let f = part.q.peek_time().unwrap_or(u64::MAX).min(bound);
        ctl.frontiers[me].store(f, Ordering::Release);
        if !progressed || executed >= PHASE_CAP {
            break;
        }
    }
    part.scratch = scratch;
}

/// Compare two phase keys in canonical (sequential push) order. `epoch`
/// is the phase's shared ordinal watermark; `pa`/`pb` name the partition
/// each key lives in (any value is fine for pre-phase keys — their order
/// is decided without touching partition state; [`SER`] marks keys from
/// the serial queue, which never holds in-phase keys).
///
/// Time dominates. At equal times: two pre-phase keys (`ord < epoch`)
/// compare by their global ordinals; a pre-phase key precedes any
/// in-phase key (everything pushed during the phase was pushed after it);
/// two in-phase keys of the same partition compare by local ordinal
/// (partition execution order is canonical order); two in-phase keys of
/// different partitions are ordered by their *parents* — the events whose
/// execution pushed them, recorded in the partitions' `origins` logs —
/// because the sequential engine would have numbered their pushes in
/// parent execution order. Parent chains ground in pre-phase keys, so the
/// recursion terminates.
fn canon_cmp(
    parts: &[PartData],
    epoch: u64,
    pa: usize,
    ka: EvKey,
    pb: usize,
    kb: EvKey,
) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match ka.t.cmp(&kb.t) {
        Ordering::Equal => {}
        o => return o,
    }
    match (ka.ord < epoch, kb.ord < epoch) {
        (true, true) => ka.ord.cmp(&kb.ord),
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        (false, false) => {
            if pa == pb {
                return ka.ord.cmp(&kb.ord);
            }
            let fa = parts[pa].origins[(ka.ord - epoch) as usize] as usize;
            let fb = parts[pb].origins[(kb.ord - epoch) as usize] as usize;
            let pka = parts[pa].fx[fa].key;
            let pkb = parts[pb].fx[fb].key;
            // Distinct parents (they live in different partitions), so the
            // recursive comparison decides; the ordinal tiebreak is for
            // form only.
            canon_cmp(parts, epoch, pa, pka, pb, pkb).then(ka.ord.cmp(&kb.ord))
        }
    }
}

/// Partition marker for serial-queue keys in [`canon_cmp`]/[`ckey_cmp`]:
/// the serial queue only ever holds pre-phase (flat) keys, whose order
/// never consults partition state.
const SER: usize = usize::MAX;

/// A classified key during the stop drain ([`ParDriver::finish_stop`]):
/// `phase` keys were minted before or during the interrupted phase and
/// compare by [`canon_cmp`]; fresh keys (`phase == false`) are flat
/// ordinals minted *by the drain itself* from the driver's global counter
/// — numerically overlapping the in-phase range, so the class must be
/// tracked structurally.
#[derive(Clone, Copy)]
struct CKey {
    phase: bool,
    part: usize,
    k: EvKey,
}

/// Canonical order over classified keys: within a class, the class's own
/// order; across classes at equal times, phase keys first (everything the
/// drain pushes was pushed after every pre-existing event at that time —
/// the same root-before-descendant rule the sequential engine's push
/// counter encodes).
fn ckey_cmp(parts: &[PartData], epoch: u64, a: CKey, b: CKey) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a.phase, b.phase) {
        (true, true) => canon_cmp(parts, epoch, a.part, a.k, b.part, b.k),
        (false, false) => a.k.cmp(&b.k),
        (true, false) => a.k.t.cmp(&b.k.t).then(Ordering::Less),
        (false, true) => a.k.t.cmp(&b.k.t).then(Ordering::Greater),
    }
}

/// Main-thread half of the parallel driver: harvests window output,
/// executes the canonical serial frontier (machine layer, commands, ties),
/// and decides the next window.
struct ParDriver<'a> {
    env: &'a ExecEnv<'a>,
    layer: &'a mut dyn MachineLayer,
    trace: &'a mut Trace,
    stats: &'a mut ClusterStats,
    pe_part: &'a [u32],
    serial: KeyedQueue<Event>,
    ord: u64,
    now: Time,
    stopped: bool,
    lookahead: Time,
    ctl: &'a BatchCtl,
    scratch: ExecOut,
    /// Events still pending when a stop found inside a window ended the
    /// run, in canonical order (`finish_stop` fills this; the queues are
    /// empty afterwards). `run_parallel` pushes them back on the
    /// sequential queue at teardown.
    leftovers: Vec<(Time, Event)>,
    /// `flatten`'s recycled buffers: the phase's surviving in-phase keys
    /// with their partitions, and per partition the fresh flat ordinal
    /// of each local ordinal (`renum[i][ord - epoch]`).
    in_phase: Vec<(usize, EvKey)>,
    renum: Vec<Vec<u64>>,
}

impl ParDriver<'_> {
    /// The serial phase. Returns `Some(p_end)` to run a parallel window
    /// with that bound, `None` when the run is complete.
    fn step(&mut self, parts: &mut [PartData]) -> Option<Time> {
        // ---- harvest the previous window batch ----
        if parts.iter().any(|p| !p.fx.is_empty()) {
            let epoch = parts.first().map_or(0, |p| p.epoch);
            // Canonical-min stop across partitions. Within a partition the
            // fx stream is in canonical order, so its first stop record is
            // its earliest; cross-partition ties need the full comparison.
            let mut stop: Option<(usize, EvKey)> = None;
            for (i, p) in parts.iter().enumerate() {
                if let Some(f) = p.fx.iter().find(|f| f.stop) {
                    stop = match stop {
                        Some((bi, bk))
                            if canon_cmp(parts, epoch, bi, bk, i, f.key)
                                != std::cmp::Ordering::Greater =>
                        {
                            Some((bi, bk))
                        }
                        _ => Some((i, f.key)),
                    };
                }
            }
            if let Some((pstar, kstar)) = stop {
                self.finish_stop(parts, pstar, kstar);
                return None;
            }
            self.replay_fx(parts);
            self.flatten(parts);
        }

        // ---- canonical serial frontier ----
        loop {
            kernel::check_runaway(self.stats.events, self.now);
            let t_s = self.serial.peek_time().unwrap_or(u64::MAX);
            let t_l = parts
                .iter()
                .filter_map(|p| p.q.peek_time())
                .min()
                .unwrap_or(u64::MAX);
            if t_s == u64::MAX && t_l == u64::MAX {
                return None; // drained
            }
            if t_l < t_s {
                let p_end = t_s.min(t_l.saturating_add(self.lookahead));
                let mut ready = 0usize;
                let mut queued = 0usize;
                for p in parts.iter() {
                    if p.q.peek_time().is_some_and(|t| t < p_end) {
                        ready += 1;
                        // Queue length is an upper bound on the events this
                        // partition can execute in the batch — cheap, and
                        // good enough to decide whether waking the pool can
                        // possibly pay for the barrier crossing.
                        queued += p.q.len();
                    }
                }
                if ready >= 2 && queued >= self.env.cfg.handoff_min_events as usize {
                    // Hand off: at least two partitions have work strictly
                    // inside the first window. Workers bound themselves by
                    // the serial horizon and each other's frontiers
                    // (seeded here with the queue heads — exactly the
                    // `t_l` this p_end was computed from), batching up to
                    // `batch_windows` windows before the next barrier.
                    self.ctl.halt.store(u64::MAX, Ordering::Relaxed);
                    for (i, p) in parts.iter_mut().enumerate() {
                        p.epoch = self.ord;
                        self.ctl.frontiers[i]
                            .store(p.q.peek_time().unwrap_or(u64::MAX), Ordering::Relaxed);
                    }
                    return Some(t_s);
                }
                // Single-partition or under-threshold window: run the
                // canonical min inline (cheaper than a barrier round-trip
                // for a handful of events).
                let pi = self.min_part(parts).expect("partition head exists");
                let (key, ev) = parts[pi].q.pop().expect("peeked");
                // `now` is the furthest virtual time reached (harvested
                // window effects may already sit past a pending command's
                // timestamp, so it is a running max, not a monotone clock).
                self.now = self.now.max(key.t);
                self.exec_inline(&mut parts[pi], key.t, ev);
            } else {
                // Serial head is at or before every partition head; the
                // canonical min is decided by full key comparison (time
                // ties between a layer event and a PE event are real).
                let part_min = self.min_part(parts);
                let serial_first = match (self.serial.peek_key(), part_min) {
                    (Some(sk), Some(pi)) => sk < parts[pi].q.peek_key().expect("head"),
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => unreachable!("checked above"),
                };
                if serial_first {
                    let (key, ev) = self.serial.pop().expect("peeked");
                    self.now = self.now.max(key.t);
                    self.exec_serial(parts, key.t, ev);
                } else {
                    let pi = part_min.expect("partition head exists");
                    let (key, ev) = parts[pi].q.pop().expect("peeked");
                    self.now = self.now.max(key.t);
                    self.exec_inline(&mut parts[pi], key.t, ev);
                }
            }
            if self.stopped {
                return None;
            }
        }
    }

    /// Index of the partition holding the smallest queue head key.
    fn min_part(&self, parts: &[PartData]) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, p) in parts.iter().enumerate() {
            if let Some(k) = p.q.peek_key() {
                match best {
                    None => best = Some(i),
                    Some(b) => {
                        if k < parts[b].q.peek_key().expect("head") {
                            best = Some(i);
                        }
                    }
                }
            }
        }
        best
    }

    /// Execute a PE-local event on the main thread with immediate effect
    /// application and `Flat` push ordinals — exactly the sequential
    /// semantics.
    fn exec_inline(&mut self, part: &mut PartData, t: Time, ev: Event) {
        let ord = &mut self.ord;
        let mint = |_: &mut Vec<u32>, at| {
            let k = EvKey::flat(at, *ord);
            *ord += 1;
            k
        };
        exec_local(self.env, part, t, ev, mint, &mut self.scratch);
        self.stats.add(&self.scratch.stats);
        for op in &self.scratch.trace {
            self.trace.apply(op);
        }
        for (k, ev) in self.scratch.cmds.drain(..) {
            self.serial.push(k, ev);
        }
        self.stopped |= self.scratch.stop;
    }

    /// Execute a serial-class event (machine layer, command, parked wake)
    /// with the partitioned queues behind the layer's context.
    fn exec_serial(&mut self, parts: &mut [PartData], t: Time, ev: Event) {
        let back = McBack::Par {
            parts,
            pe_part: self.pe_part,
            serial: &mut self.serial,
            ord: &mut self.ord,
            cur_part: None,
            lookahead: self.lookahead,
        };
        let mut ctx = MachineCtx::new(t, self.env.cfg, back, self.trace, self.stats);
        kernel::layer_event(self.layer, &mut ctx, ev);
    }

    /// Apply buffered window effects. Every destination is either
    /// per-partition-order sensitive at most per PE (the trace's per-PE
    /// pending segments, and a log that consumers stable-sort by
    /// `(pe, start)`) or commutative (the trace totals, stats sums, the
    /// `now` running max), so replaying each partition's stream
    /// sequentially is observation-equivalent to the canonical k-way merge
    /// — without the per-record comparisons.
    ///
    /// Leaves `fx`/`origins` in place: `flatten` still needs them to order
    /// surviving in-phase keys.
    fn replay_fx(&mut self, parts: &mut [PartData]) {
        for p in parts.iter() {
            for rec in &p.fx {
                self.stats.add(&rec.stats);
            }
            for op in &p.trace_ops {
                self.trace.apply(op);
            }
            if let Some(rec) = p.fx.last() {
                // Partition streams are time-sorted: the last record holds
                // the partition's furthest virtual time.
                self.now = self.now.max(rec.key.t);
            }
        }
    }

    /// Give every surviving in-phase key (`ord >= epoch`: the queued
    /// follow-ups the workers minted, and the buffered commands) a fresh
    /// flat ordinal, in canonical order, so in-phase keys — meaningless
    /// without this phase's `origins`/`fx` logs — never outlive their
    /// phase. Pre-phase keys are global positions already and keep them:
    /// every fresh ordinal is `>= self.ord`, above all of them, which is
    /// the canonical rule "a pre-phase key precedes any in-phase key". The
    /// serial queue never holds in-phase keys. So a harvest costs one scan
    /// of the partition keys and a sort of the in-phase ones; the heaps
    /// are re-keyed in place and no queued event moves. The commands go
    /// to the serial queue under their new keys. Clears the phase logs.
    fn flatten(&mut self, parts: &mut [PartData]) {
        let epoch = parts.first().map_or(0, |p| p.epoch);
        let in_phase = &mut self.in_phase;
        in_phase.clear();
        for (i, p) in parts.iter().enumerate() {
            in_phase.extend(p.q.keys().filter(|k| k.ord >= epoch).map(|k| (i, k)));
            in_phase.extend(p.cmds.iter().map(|&(k, _)| (i, k)));
            // Queued keys and commands share the partition's local
            // ordinals `epoch .. epoch + origins.len()`.
            self.renum[i].resize(p.origins.len(), 0);
        }
        // Distinct in-phase keys never compare equal (see `canon_cmp`).
        in_phase.sort_unstable_by(|a, b| canon_cmp(parts, epoch, a.0, a.1, b.0, b.1));
        for &(i, k) in in_phase.iter() {
            self.renum[i][(k.ord - epoch) as usize] = self.ord;
            self.ord += 1;
        }
        for (p, renum) in parts.iter_mut().zip(&self.renum) {
            p.q.relabel(|k| {
                if k.ord >= epoch {
                    k.ord = renum[(k.ord - epoch) as usize];
                }
            });
            for (k, ev) in p.cmds.drain(..) {
                debug_assert!(ev.local_pe().is_none(), "commands are serial-class");
                let ord = renum[(k.ord - epoch) as usize];
                self.serial.push(EvKey::flat(k.t, ord), ev);
            }
            p.fx.clear();
            p.origins.clear();
            p.trace_ops.clear();
        }
    }

    /// A window batch discovered a stop; `kstar` (in partition `pstar`) is
    /// its canonical key. Events canonically after it are dead (the
    /// sequential engine never reaches them — their buffered effects are
    /// discarded, and unexecuted ones become post-run leftovers only if
    /// the sequential engine would also have left them queued); events
    /// before it that other partitions had not yet processed (windows may
    /// end early on Cmd bounds, frontiers or the event cap) are executed
    /// here, interleaved with the buffered effect replay in one canonical
    /// key-ordered pass.
    fn finish_stop(&mut self, parts: &mut [PartData], pstar: usize, kstar: EvKey) {
        use std::cmp::Ordering as O;
        let epoch = parts.first().map_or(0, |p| p.epoch);
        // Unexecuted phase work (partition queues + buffered commands):
        // keep what lies canonically below the stop, in canonical order.
        // Draining the queues up front also means that from here on the
        // partition heaps only ever hold *fresh* flat keys pushed by the
        // drain itself, whose plain heap order is exact.
        let mut pending: Vec<(usize, EvKey, Event)> = Vec::new();
        for (i, p) in parts.iter_mut().enumerate() {
            for (k, ev) in p.q.drain_sorted() {
                pending.push((i, k, ev));
            }
            for (k, ev) in p.cmds.drain(..) {
                pending.push((i, k, ev));
            }
        }
        pending.retain(|(pi, k, _)| canon_cmp(parts, epoch, *pi, *k, pstar, kstar) == O::Less);
        pending.sort_by(|a, b| {
            canon_cmp(parts, epoch, a.0, a.1, b.0, b.1).then_with(|| a.0.cmp(&b.0))
        });
        let mut pending = pending.into_iter().peekable();

        enum Pick {
            Fx(usize),
            Pend,
            Serial,
            PartQ(usize),
        }
        let kstar_ck = CKey {
            phase: true,
            part: pstar,
            k: kstar,
        };
        let n = parts.len();
        let mut fi = vec![0usize; n];
        let mut ti = vec![0usize; n];
        let mut early = false;
        loop {
            // Discard effect records canonically past the stop (executed
            // too far; the partition state they mutated is unobservable —
            // the run ends at the stop). Streams are canonically sorted,
            // so these form a suffix.
            for i in 0..n {
                while fi[i] < parts[i].fx.len() {
                    let k = parts[i].fx[fi[i]].key;
                    if canon_cmp(parts, epoch, i, k, pstar, kstar) == O::Greater {
                        ti[i] += parts[i].fx[fi[i]].trace_n as usize;
                        fi[i] += 1;
                    } else {
                        break;
                    }
                }
            }
            // Canonical-min candidate across the four sources.
            let mut best: Option<(CKey, Pick)> = None;
            for i in 0..n {
                if fi[i] < parts[i].fx.len() {
                    let c = CKey {
                        phase: true,
                        part: i,
                        k: parts[i].fx[fi[i]].key,
                    };
                    if best
                        .as_ref()
                        .is_none_or(|(b, _)| ckey_cmp(parts, epoch, c, *b) == O::Less)
                    {
                        best = Some((c, Pick::Fx(i)));
                    }
                }
            }
            if let Some((pi, k, _)) = pending.peek() {
                let c = CKey {
                    phase: true,
                    part: *pi,
                    k: *k,
                };
                if best
                    .as_ref()
                    .is_none_or(|(b, _)| ckey_cmp(parts, epoch, c, *b) == O::Less)
                {
                    best = Some((c, Pick::Pend));
                }
            }
            if let Some(k) = self.serial.peek_key() {
                let c = CKey {
                    phase: k.ord < epoch,
                    part: SER,
                    k: *k,
                };
                if best
                    .as_ref()
                    .is_none_or(|(b, _)| ckey_cmp(parts, epoch, c, *b) == O::Less)
                {
                    best = Some((c, Pick::Serial));
                }
            }
            for i in 0..n {
                if let Some(k) = parts[i].q.peek_key() {
                    let c = CKey {
                        phase: false,
                        part: i,
                        k: *k,
                    };
                    if best
                        .as_ref()
                        .is_none_or(|(b, _)| ckey_cmp(parts, epoch, c, *b) == O::Less)
                    {
                        best = Some((c, Pick::PartQ(i)));
                    }
                }
            }
            let Some((ck, pick)) = best else { break };
            if ckey_cmp(parts, epoch, ck, kstar_ck) == O::Greater {
                // Nothing before the stop remains (while the stop's own
                // effect record is unapplied it bounds every pick, so this
                // cannot skip it). What's left stays queued as leftovers.
                break;
            }
            match pick {
                Pick::Fx(b) => {
                    let rec = &parts[b].fx[fi[b]];
                    self.now = self.now.max(rec.key.t);
                    self.stats.add(&rec.stats);
                    for k in 0..rec.trace_n as usize {
                        self.trace.apply(&parts[b].trace_ops[ti[b] + k]);
                    }
                    ti[b] += rec.trace_n as usize;
                    let stop_here = rec.stop;
                    fi[b] += 1;
                    if stop_here {
                        break; // kstar itself: the run ends here.
                    }
                }
                Pick::Pend => {
                    let (_, k, ev) = pending.next().expect("peeked");
                    self.now = self.now.max(k.t);
                    match ev.local_pe() {
                        Some(pe) => {
                            let pi = self.pe_part[pe as usize] as usize;
                            self.exec_inline(&mut parts[pi], k.t, ev);
                        }
                        None => self.exec_serial(parts, k.t, ev),
                    }
                }
                Pick::Serial => {
                    let (k, ev) = self.serial.pop().expect("peeked");
                    self.now = self.now.max(k.t);
                    self.exec_serial(parts, k.t, ev);
                }
                Pick::PartQ(i) => {
                    let (k, ev) = parts[i].q.pop().expect("peeked");
                    self.now = self.now.max(k.t);
                    self.exec_inline(&mut parts[i], k.t, ev);
                }
            }
            if self.stopped {
                // An earlier event also stopped: it wins outright.
                early = true;
                break;
            }
        }
        if !early {
            self.now = self.now.max(kstar.t);
            self.stopped = true;
        }
        // Everything still queued mirrors what the sequential engine
        // leaves behind on an early stop; hand it to the teardown in
        // canonical order (the keys die with this phase's logs).
        let mut left: Vec<(CKey, Event)> = Vec::new();
        for (pi, k, ev) in pending {
            left.push((
                CKey {
                    phase: true,
                    part: pi,
                    k,
                },
                ev,
            ));
        }
        for (k, ev) in self.serial.drain_sorted() {
            left.push((
                CKey {
                    phase: k.ord < epoch,
                    part: SER,
                    k,
                },
                ev,
            ));
        }
        for (i, p) in parts.iter_mut().enumerate() {
            for (k, ev) in p.q.drain_sorted() {
                left.push((
                    CKey {
                        phase: false,
                        part: i,
                        k,
                    },
                    ev,
                ));
            }
        }
        left.sort_by(|a, b| ckey_cmp(parts, epoch, a.0, b.0).then_with(|| a.0.part.cmp(&b.0.part)));
        self.leftovers = left.into_iter().map(|(c, ev)| (c.k.t, ev)).collect();
        for p in parts.iter_mut() {
            p.fx.clear();
            p.origins.clear();
            p.trace_ops.clear();
        }
    }
}
