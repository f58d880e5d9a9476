//! The two capability surfaces the runtime hands out: [`PeCtx`] (what an
//! application handler sees — the Converse/Charm API) and [`MachineCtx`]
//! (what a machine layer sees of the cluster).

use crate::charm::CharmRegistry;
use crate::config::ClusterCfg;
use crate::ft::FtCore;
use crate::kernel::{ClusterStats, Cmd, Event, PeCold, PeState};
use crate::lrts::PersistentHandle;
use crate::msg::{Envelope, HandlerId, PeId, DEFAULT_PRIO};
use crate::par::PartData;
use crate::pe_table::PeTable;
use crate::trace::{Kind, Trace};
use bytes::Bytes;
use gemini_net::NodeId;
use sim_core::parallel::{EvKey, KeyedQueue};
use sim_core::{DetRng, EventQueue, Time};
use std::any::Any;

/// Event-storage backend behind a [`MachineCtx`]: the sequential engine's
/// single queue, or the parallel driver's partitioned queues. Layers never
/// see the difference — pushes route by event class (PE-local `PeRun`/
/// `Deliver` to the owning partition, layer events to the serial queue)
/// with main-thread `Flat` ordinals, so the canonical event order is the
/// sequential `(time, push-seq)` order in both modes.
pub(crate) enum McBack<'a> {
    Seq {
        pes: &'a mut PeTable,
        events: &'a mut EventQueue<Event>,
    },
    Par {
        parts: &'a mut [PartData],
        pe_part: &'a [u32],
        serial: &'a mut KeyedQueue<Event>,
        ord: &'a mut u64,
        /// Partition of the PE whose `Cmd` is executing, when one is: its
        /// cross-partition pushes must respect the lookahead bound (see
        /// the debug assert in `push_event`). `None` for machine events,
        /// whose pushes are ordered by the serial phase unconditionally.
        cur_part: Option<u32>,
        lookahead: Time,
    },
}

/// What a machine layer sees of the cluster.
pub struct MachineCtx<'a> {
    now: Time,
    cfg: &'a ClusterCfg,
    back: McBack<'a>,
    trace: &'a mut Trace,
    pub(crate) stats: &'a mut ClusterStats,
}

impl<'a> MachineCtx<'a> {
    #[inline]
    pub(crate) fn new(
        now: Time,
        cfg: &'a ClusterCfg,
        back: McBack<'a>,
        trace: &'a mut Trace,
        stats: &'a mut ClusterStats,
    ) -> Self {
        MachineCtx {
            now,
            cfg,
            back,
            trace,
            stats,
        }
    }

    pub fn now(&self) -> Time {
        self.now
    }

    #[inline]
    pub(crate) fn pe_state_mut(&mut self, pe: PeId) -> &mut PeState {
        match &mut self.back {
            McBack::Seq { pes, .. } => pes.get_mut(pe as usize),
            McBack::Par { parts, pe_part, .. } => parts[pe_part[pe as usize] as usize].pe_mut(pe),
        }
    }

    /// A `Cmd` issued by `pe` is about to execute: from here on this
    /// context's pushes are checked against the lookahead contract.
    #[inline]
    pub(crate) fn set_cmd_origin(&mut self, pe: PeId) {
        if let McBack::Par {
            cur_part, pe_part, ..
        } = &mut self.back
        {
            *cur_part = Some(pe_part[pe as usize]);
        }
    }

    /// Route one event push through the active backend.
    #[inline]
    // serial-only: mutates shared queues
    pub(crate) fn push_event(&mut self, at: Time, ev: Event) {
        debug_assert!(at >= self.now);
        match &mut self.back {
            McBack::Seq { events, .. } => events.push(at, ev),
            McBack::Par {
                parts,
                pe_part,
                serial,
                ord,
                cur_part,
                lookahead,
            } => {
                let key = EvKey::flat(at, **ord);
                **ord += 1;
                let (Event::PeRun(pe)
                | Event::Deliver(pe, _)
                | Event::Machine(pe, _)
                | Event::MachineNow(pe, _)
                | Event::ParkedWake(pe)
                | Event::Cmd(pe, _)) = &ev
                else {
                    // run_parallel forces the serial engine whenever the
                    // fault plan schedules crashes. panic-ok: see above.
                    unreachable!("crash events in the parallel backend")
                };
                let tp = pe_part[*pe as usize];
                // Whatever a Cmd pushes onto another partition — a
                // delivery, or a machine event for its serial queue —
                // must land at least one lookahead away.
                debug_assert!(
                    cur_part.is_none_or(|cp| cp == tp)
                        || matches!(ev, Event::Cmd(..))
                        || at >= self.now + *lookahead,
                    "cross-partition push at {at} violates lookahead {lookahead} (now {})",
                    self.now
                );
                if ev.local_pe().is_some() {
                    parts[tp as usize].q.push(key, ev);
                } else {
                    serial.push(key, ev);
                }
            }
        }
    }

    pub fn num_pes(&self) -> u32 {
        self.cfg.num_pes
    }

    pub fn cores_per_node(&self) -> u32 {
        self.cfg.cores_per_node
    }

    pub fn num_nodes(&self) -> u32 {
        self.cfg.num_nodes()
    }

    pub fn node_of(&self, pe: PeId) -> NodeId {
        pe / self.cfg.cores_per_node
    }

    /// When the PE will next be free (>= now when busy).
    pub fn pe_free_at(&mut self, pe: PeId) -> Time {
        self.pe_state_mut(pe).busy_until
    }

    /// Hand a fully received, decoded-ready message to a PE's scheduler at
    /// `at` (now, or later when a modeled copy completes first).
    // serial-only: applies an effect
    pub fn deliver(&mut self, at: Time, pe: PeId, msg: Bytes) {
        self.push_event(at, Event::Deliver(pe, msg));
    }

    /// Schedule a machine-layer event for `pe` at `at` (delivered when the
    /// PE is free — use for progress-engine work like draining mailboxes).
    // serial-only: applies an effect
    pub fn schedule(&mut self, at: Time, pe: PeId, ev: Box<dyn Any + Send>) {
        self.push_event(at, Event::Machine(pe, ev));
    }

    /// Schedule a machine-layer event that fires at `at` even if the PE is
    /// then busy. Use for protocol continuations (e.g. "buffer prepared,
    /// ship the control message") whose CPU cost was already charged —
    /// deferring those would serialize independent transfers behind
    /// unrelated work.
    // serial-only: applies an effect
    pub fn schedule_nodefer(&mut self, at: Time, pe: PeId, ev: Box<dyn Any + Send>) {
        self.push_event(at, Event::MachineNow(pe, ev));
    }

    /// Charge `pe` for CPU work starting no earlier than now: extend its
    /// busy window and record the segment under the charge's trace
    /// category. Returns when the PE finishes the work.
    // serial-only: writes trace + busy windows
    pub fn charge(&mut self, pe: PeId, charge: Charge) -> Time {
        let (ns, kind) = match charge {
            Charge::Overhead(ns) => (ns, Kind::Overhead),
            Charge::Recovery(ns) => (ns, Kind::Recovery),
        };
        let now = self.now;
        let st = self.pe_state_mut(pe);
        let start = st.busy_until.max(now);
        if ns == 0 {
            return start;
        }
        st.busy_until = start + ns;
        self.trace.record(pe, start, ns, kind);
        start + ns
    }
}

/// CPU time a machine layer burns on a PE (paper Eq. 1's per-message
/// terms), by the trace category it lands in: the overhead bucket of the
/// Fig. 12 time profile, or fault recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Charge {
    /// Protocol processing: copies, allocation, registration, SMSG and
    /// RDMA calls, polls.
    Overhead(Time),
    /// Fault-recovery work: retries, CQ resyncs, registration fallbacks.
    Recovery(Time),
}

/// Converse-level cost of issuing one send (envelope setup), excluding
/// everything the machine layer charges. An aggregated AM pays it once
/// per flushed batch.
const SEND_OVERHEAD: Time = 100;

/// What an application handler sees: the Converse/Charm API. Built only
/// by `kernel::pe_run`, for the duration of one handler.
pub struct PeCtx<'a> {
    pub(crate) pe: PeId,
    pub(crate) start: Time,
    pub(crate) charged_app: Time,
    pub(crate) charged_ovh: Time,
    pub(crate) cfg: &'a ClusterCfg,
    pub(crate) user: &'a mut Box<dyn Any + Send>,
    pub(crate) rng: &'a mut DetRng,
    /// Chare, AM-aggregation, persistent-channel and FT state: reach it
    /// through [`PeCtx::cold`], which materializes it on first use.
    pub(crate) cold: &'a mut Option<Box<PeCold>>,
    pub(crate) charm_reg: &'a CharmRegistry,
    pub(crate) am_reg: &'a crate::am::AmRegistry,
    pub(crate) outbox: &'a mut Vec<(Time, Event)>,
    pub(crate) stop: &'a mut bool,
    pub(crate) stats: &'a mut ClusterStats,
    /// FT subsystem state (None when FT is off — FT forces the sequential
    /// engine, so parallel execution always sees None here).
    pub(crate) ft_global: &'a mut Option<FtCore>,
    /// Membership epoch stamped on every send from this handler.
    pub(crate) epoch: u32,
}

impl PeCtx<'_> {
    pub fn pe(&self) -> PeId {
        self.pe
    }

    pub fn num_pes(&self) -> u32 {
        self.cfg.num_pes
    }

    pub fn node(&self) -> NodeId {
        self.pe / self.cfg.cores_per_node
    }

    /// Current PE-local virtual time (start of handler + charged work).
    pub fn now(&self) -> Time {
        self.start + self.charged_app + self.charged_ovh
    }

    /// Account for `ns` of application computation.
    pub fn charge(&mut self, ns: Time) {
        self.charged_app += ns;
    }

    /// Per-PE deterministic RNG.
    pub(crate) fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    /// This PE's cold state (kernel.rs), materialized on first use.
    #[inline]
    pub(crate) fn cold(&mut self) -> &mut PeCold {
        self.cold.get_or_insert_with(Box::default)
    }

    /// Typed access to this PE's user state.
    pub fn user<T: 'static>(&mut self) -> &mut T {
        self.user.downcast_mut().expect("user state type mismatch")
    }

    /// The shared tail of every send flavour: envelope build
    /// with priority and epoch stamps, encode, send counters, then the
    /// outbox entry leaving at `at` — Converse loopback for a plain
    /// self-send, a machine-layer command otherwise (`via` rides a
    /// persistent channel, even to self). Hands the payload handle back,
    /// so a sender that owned the buffer alone can reclaim it once the
    /// encode has copied it (the AM flush does).
    fn emit(
        &mut self,
        at: Time,
        dst: PeId,
        handler: HandlerId,
        payload: Bytes,
        priority: u16,
        via: Option<PersistentHandle>,
    ) -> Bytes {
        let env = Envelope::new(self.pe, dst, handler, payload)
            .with_priority(priority)
            .with_epoch(self.epoch);
        let msg = env.encode();
        self.stats.msgs_sent += 1;
        let ev = match via {
            Some(handle) => Event::Cmd(self.pe, Cmd::SendPersistent { handle, dst, msg }),
            None if dst == self.pe => Event::Deliver(dst, msg),
            None => Event::Cmd(self.pe, Cmd::Send { dst, msg }),
        };
        self.outbox.push((at, ev));
        env.payload
    }

    /// Asynchronous send: the message leaves at the current PE-local time.
    /// Self-sends short-circuit the machine layer (Converse loopback).
    pub fn send(&mut self, dst: PeId, handler: HandlerId, payload: Bytes) {
        self.send_prio(dst, handler, payload, DEFAULT_PRIO);
    }

    /// Like [`PeCtx::send`] with an explicit scheduling priority: smaller
    /// values are executed first at the destination (Charm++'s prioritized
    /// messages). Network transit is unaffected — priority orders the
    /// destination's scheduler queue. Returns the payload handle (see
    /// `emit`).
    pub(crate) fn send_prio(
        &mut self,
        dst: PeId,
        handler: HandlerId,
        payload: Bytes,
        priority: u16,
    ) -> Bytes {
        self.charged_ovh += SEND_OVERHEAD;
        self.emit(self.now(), dst, handler, payload, priority, None)
    }

    /// Deferred send (timer): like [`PeCtx::send_prio`] but leaving after
    /// `delay` ns of additional virtual time. The FT
    /// heartbeat chains use priority 0: a timer that queues behind a
    /// saturated PE's application backlog drifts by the backlog depth,
    /// which would turn scheduler pressure into false failure suspicions.
    ///
    /// Arming a timer is not a send yet: no [`SEND_OVERHEAD`] is charged.
    pub(crate) fn send_after_prio(
        &mut self,
        delay: Time,
        dst: PeId,
        handler: HandlerId,
        payload: Bytes,
        priority: u16,
    ) {
        self.emit(self.now() + delay, dst, handler, payload, priority, None);
    }

    /// `LrtsCreatePersistent`: set up a persistent channel to `dst` able to
    /// carry up to `max_bytes` messages. Returns immediately; the machine
    /// layer binds the handle when the command reaches it (sends issued
    /// after this call on this PE are ordered behind the creation).
    pub fn create_persistent(&mut self, dst: PeId, max_bytes: u64) -> PersistentHandle {
        // Handles are per-PE namespaced so the value does not depend on the
        // global interleaving of create calls (identical in run and
        // run_parallel).
        let pe = self.pe as u64;
        let next = &mut self.cold().next_persistent;
        let handle = PersistentHandle((pe << 32) | *next);
        *next += 1;
        let cmd = Cmd::CreatePersistent {
            dst,
            max_bytes,
            handle,
        };
        self.outbox.push((self.now(), Event::Cmd(self.pe, cmd)));
        handle
    }

    /// `LrtsSendPersistentMsg`.
    pub fn send_persistent(
        &mut self,
        handle: PersistentHandle,
        dst: PeId,
        h: HandlerId,
        payload: Bytes,
    ) {
        self.charged_ovh += SEND_OVERHEAD;
        self.emit(self.now(), dst, h, payload, DEFAULT_PRIO, Some(handle));
    }

    /// Halt the whole simulation after this handler returns.
    pub fn stop(&mut self) {
        *self.stop = true;
    }

    /// The fault-tolerance core state (panics when FT is not enabled; only
    /// the FT system handlers call this).
    pub(crate) fn ft_state(&mut self) -> &mut FtCore {
        self.ft_global
            .as_mut()
            .expect("fault tolerance not enabled")
    }

    /// The current membership epoch (0 when fault tolerance is off).
    pub(crate) fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Request a checkpoint if the configured cadence has elapsed since the
    /// last one. Apps call this from a consistent point (e.g. a reduction
    /// client); the snapshot itself is taken by the driver between events,
    /// after this handler returns. Returns whether a checkpoint was queued.
    /// No-op (false) when fault tolerance is off, so apps can call it
    /// unconditionally.
    pub fn ft_maybe_checkpoint(&mut self) -> bool {
        let now = self.now();
        let Some(ft) = self.ft_global.as_mut() else {
            return false;
        };
        if now < ft.last_ckpt.saturating_add(ft.cfg.ckpt_period) {
            return false;
        }
        ft.last_ckpt = now;
        ft.pending.push(crate::ft::FtAction::Checkpoint);
        true
    }
}
