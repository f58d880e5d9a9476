//! The event-semantics kernel: the single definition of what a simulation
//! event *does* (the timing model of DESIGN.md §3).
//!
//! Every PE owns a Converse scheduler — a prioritized queue of delivered
//! wire buffers ([`SchedQueue`]), each decoded when its handler runs.
//! Handlers are real Rust closures executed at their virtual
//! start time; they account for computation with [`PeCtx::charge`] and
//! their sends are timestamped at the PE-local virtual time at which they
//! were issued. A PE processes one message at a time (`busy_until`);
//! machine-layer progress for a PE is deferred while that PE is busy,
//! which is exactly how a non-SMP Charm++ process only advances the
//! network between handler executions — the mechanism behind the paper's
//! Fig. 10 and Fig. 12 observations.
//!
//! The functions here mutate one borrowed [`PeState`] (or, for machine
//! events, what a [`MachineCtx`] reaches) and *return* what happened.
//! Where the consequences go — which queue a follow-up event is pushed to
//! and under which key, whether a trace segment is recorded or buffered,
//! whose [`ClusterStats`] is counted into — is the caller's business:
//! the sequential loop (cluster.rs), the parallel worker and the parallel
//! driver (par.rs) are three callers of this one kernel.
//!
//! [`PeState`] is laid out for the kernel's access pattern: `deliver` and
//! `pe_run` touch one per event, and at whole-machine scale each touch is
//! a cache miss, so it holds only what they need (144 bytes); the rest is
//! [`PeCold`], behind a pointer that stays `None` on PEs that never use
//! it.

use crate::charm::{CharmPe, CharmRegistry};
use crate::config::ClusterCfg;
use crate::ctx::{MachineCtx, PeCtx};
use crate::ft::{FtCore, FtSnapshot};
use crate::lrts::{MachineLayer, PersistentHandle};
use crate::msg::{Envelope, HandlerId, PeId};
use crate::sched::SchedQueue;
use bytes::Bytes;
use gemini_net::NodeId;
use sim_core::{DetRng, Time};
use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Converse scheduler cost per executed handler (dequeue + dispatch).
const SCHED_OVERHEAD: Time = 200;

/// Safety valve for runaway simulations: no run executes more events.
const MAX_EVENTS: u64 = 2_000_000_000;

/// Panic once a run has executed [`MAX_EVENTS`] events. The sequential
/// loop and the parallel serial frontier check it before each event.
#[inline]
pub(crate) fn check_runaway(events: u64, now: Time) {
    assert!(
        events < MAX_EVENTS,
        "simulation exceeded max_events={MAX_EVENTS} at t={now}"
    );
}

/// Commands from application handlers to the machine layer, executed at
/// the PE-local virtual time they were issued (this keeps all fabric calls
/// globally time-ordered).
pub enum Cmd {
    Send {
        dst: PeId,
        msg: Bytes,
    },
    CreatePersistent {
        dst: PeId,
        max_bytes: u64,
        handle: PersistentHandle,
    },
    SendPersistent {
        handle: PersistentHandle,
        dst: PeId,
        msg: Bytes,
    },
}

/// Simulation events.
pub enum Event {
    /// Let the PE's Converse scheduler run one message.
    PeRun(PeId),
    /// Hand an encoded envelope to a PE's scheduler queue.
    Deliver(PeId, Bytes),
    /// Machine-layer-specific event, processed when the PE is free.
    Machine(PeId, Box<dyn Any + Send>),
    /// Machine-layer event processed at its exact time even if the PE is
    /// busy (protocol continuations whose CPU cost was already charged).
    MachineNow(PeId, Box<dyn Any + Send>),
    /// Drain a PE's parked machine events now that it may be free.
    ParkedWake(PeId),
    /// Application command issued from a handler on `PeId`.
    Cmd(PeId, Cmd),
    /// A node goes down (`up = false`, volatile state lost) or a fresh
    /// incarnation boots (`up = true`). Scheduled from the fault plan's
    /// crash windows at cluster construction.
    NodeLife(NodeId, bool),
    /// Enact crash recovery for a declared-dead node (scheduled by the
    /// failure detector; waits for the node's restart when one is coming).
    FtRecover(NodeId),
}

impl Event {
    /// [`ClusterStats::event_kinds`] slots of the two PE-local kinds.
    const KIND_PE_RUN: usize = 0;
    const KIND_DELIVER: usize = 1;

    /// This event's slot in [`ClusterStats::event_kinds`].
    #[inline]
    pub(crate) fn kind_index(&self) -> usize {
        match self {
            Event::PeRun(_) => Self::KIND_PE_RUN,
            Event::Deliver(..) => Self::KIND_DELIVER,
            Event::Machine(..)
            | Event::ParkedWake(_)
            | Event::NodeLife(..)
            | Event::FtRecover(_) => 2,
            Event::MachineNow(..) => 3,
            Event::Cmd(..) => 4,
        }
    }

    /// The PE whose own state is all this event touches, if it is that
    /// kind of event: a parallel worker may execute these; everything else
    /// runs on the serial frontier.
    #[inline]
    pub(crate) fn local_pe(&self) -> Option<PeId> {
        match self {
            Event::PeRun(pe) | Event::Deliver(pe, _) => Some(*pe),
            _ => None,
        }
    }
}

/// Aggregate run statistics.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ClusterStats {
    pub events: u64,
    /// Event-type breakdown: [PeRun, Deliver, Machine, MachineNow, Cmd]
    /// (NodeLife/FtRecover count under the Machine bucket).
    pub(crate) event_kinds: [u64; 5],
    pub handlers_run: u64,
    pub msgs_sent: u64,
    pub msgs_delivered: u64,
    /// Messages / bytes that actually crossed the machine layer (excludes
    /// Converse self-send loopback).
    pub net_msgs: u64,
    pub net_bytes: u64,
    /// Events discarded because their target node was inside a crash
    /// window (its cores and NIC were dead).
    pub(crate) ft_dead_drops: u64,
    /// Messages discarded because they were sent in a pre-recovery
    /// membership epoch (rollback-replay exactly-once).
    pub(crate) ft_stale_drops: u64,
    /// Typed AMs that were appended to a destination coalescing buffer
    /// (constituents, not envelopes — am.rs).
    pub am_agg_sent: u64,
    /// Batch envelopes flushed by the AM aggregation engine.
    pub am_batches: u64,
}

impl ClusterStats {
    /// Count one executed event of the given [`Event::kind_index`].
    #[inline]
    pub(crate) fn count(&mut self, kind: usize) {
        self.events += 1;
        self.event_kinds[kind] += 1;
    }

    /// Accumulate a buffered per-event delta (all counters are sums).
    pub(crate) fn add(&mut self, o: &ClusterStats) {
        self.events += o.events;
        for i in 0..self.event_kinds.len() {
            self.event_kinds[i] += o.event_kinds[i];
        }
        self.handlers_run += o.handlers_run;
        self.msgs_sent += o.msgs_sent;
        self.msgs_delivered += o.msgs_delivered;
        self.net_msgs += o.net_msgs;
        self.net_bytes += o.net_bytes;
        self.ft_dead_drops += o.ft_dead_drops;
        self.ft_stale_drops += o.ft_stale_drops;
        self.am_agg_sent += o.am_agg_sent;
        self.am_batches += o.am_batches;
    }
}

pub(crate) struct PeState {
    /// Prioritized Converse scheduler queue of delivered wire buffers.
    pub(crate) queue: SchedQueue,
    pub(crate) busy_until: Time,
    pub(crate) run_scheduled: bool,
    /// Machine events deferred while this PE was busy, drained by a single
    /// ParkedWake event (re-queueing each one individually is quadratic
    /// under load).
    parked: VecDeque<Box<dyn Any + Send>>,
    parked_wake: bool,
    pub(crate) user: Box<dyn Any + Send>,
    rng: DetRng,
    /// Everything `deliver` and a plain handler run never touch, out of
    /// line: `None` until first used.
    pub(crate) cold: Option<Box<PeCold>>,
}

/// The cold part of a PE's state: what only chare arrays, AM aggregation,
/// persistent channels and fault tolerance use. It is 216 bytes of mostly
/// empty container headers, and a whole-machine message-driven run touches
/// every [`PeState`] once per event with a working set far beyond the
/// caches — so it lives behind one pointer and a 16-PE page is 2.3 KiB
/// instead of 5.5. `PeCold::default()` is all-empty containers: a missing
/// cold part and a fresh one are indistinguishable, which keeps a fresh
/// [`PeState`] a pure function of `(seed, pe)`.
#[derive(Default)]
pub(crate) struct PeCold {
    pub(crate) charm: CharmPe,
    /// Typed-AM per-PE state: destination coalescing buffers and their
    /// free list (am.rs).
    pub(crate) am: crate::am::AmPe,
    /// Per-PE persistent-channel handle counter. Handles are namespaced by
    /// PE (`pe << 32 | local`) so allocation is identical no matter which
    /// thread executes the PE in parallel mode.
    pub(crate) next_persistent: u64,
    /// This PE's own latest checkpoint (survivors roll back to it).
    pub(crate) ft_local: Option<Arc<FtSnapshot>>,
    /// Buddy copies this PE holds for remote PEs (keyed by owner PE;
    /// BTreeMap so recovery scans are deterministic).
    pub(crate) ft_buddy: BTreeMap<PeId, Arc<FtSnapshot>>,
}

impl PeState {
    /// A pristine per-PE state. This must stay a *pure* function of
    /// `(seed, pe)`: the flyweight table (pe_table.rs) materializes states
    /// lazily, and lazy-vs-eager construction is only unobservable while
    /// a fresh state depends on nothing but its coordinates.
    pub(crate) fn fresh(seed: u64, pe: u64) -> Self {
        PeState {
            queue: SchedQueue::default(),
            busy_until: 0,
            run_scheduled: false,
            parked: VecDeque::new(),
            parked_wake: false,
            user: Box::new(()),
            rng: DetRng::derive(seed, pe),
            cold: None,
        }
    }

    /// The cold part, if anything ever used it.
    pub(crate) fn cold(&self) -> Option<&PeCold> {
        self.cold.as_deref()
    }

    /// The cold part, materialized on first use.
    pub(crate) fn cold_mut(&mut self) -> &mut PeCold {
        self.cold.get_or_insert_with(Box::default)
    }

    /// The node crashed: volatile state is lost with it. Scheduler queue,
    /// parked machine events, user state, chare elements, and even the
    /// node's own checkpoint copies (they live in its memory) — only the
    /// buddy copies on other nodes survive.
    pub(crate) fn lose_volatile(&mut self) {
        self.queue.clear();
        self.run_scheduled = false;
        self.parked.clear();
        self.parked_wake = false;
        self.user = Box::new(());
        if let Some(cold) = &mut self.cold {
            cold.charm.wipe();
            cold.am.wipe();
            cold.ft_local = None;
            cold.ft_buddy.clear();
        }
    }

    /// Arm the single `ParkedWake` at the busy horizon: `Some(when)` if the
    /// caller must push it, `None` if one is already pending.
    #[inline]
    fn arm_parked_wake(&mut self) -> Option<Time> {
        if self.parked_wake {
            return None;
        }
        self.parked_wake = true;
        Some(self.busy_until)
    }

    #[cfg(test)]
    pub(crate) fn rng_mut(&mut self) -> &mut DetRng {
        &mut self.rng
    }
}

/// The handlers whose traffic is runtime-internal, as a dense table over
/// [`HandlerId`] (ids are indices into `Cluster::handlers`): `deliver` and
/// every send ask once per message.
#[derive(Default)]
pub(crate) struct SystemHandlers(Vec<bool>);

impl SystemHandlers {
    pub(crate) fn insert(&mut self, h: HandlerId) {
        let i = h.0 as usize;
        if self.0.len() <= i {
            self.0.resize(i + 1, false);
        }
        self.0[i] = true;
    }

    #[inline]
    pub(crate) fn contains(&self, h: HandlerId) -> bool {
        self.0.get(h.0 as usize).copied().unwrap_or(false)
    }
}

/// A registered Converse handler.
pub(crate) type Handler = Arc<dyn Fn(&mut PeCtx, Envelope) + Send + Sync>;

/// Shared read-only context needed to execute a PE-local event, usable
/// from worker threads (everything in here is `Sync`).
pub(crate) struct ExecEnv<'a> {
    pub(crate) cfg: &'a ClusterCfg,
    pub(crate) handlers: &'a [Handler],
    pub(crate) charm_reg: &'a CharmRegistry,
    pub(crate) am_reg: &'a crate::am::AmRegistry,
    /// See `Cluster::system_handlers`.
    pub(crate) system_handlers: &'a SystemHandlers,
}

/// Crash-window view of a delivery's destination. The default (live node,
/// epoch 0) gates nothing: crash-free runs pay one predictable branch.
#[derive(Clone, Copy, Default)]
pub(crate) struct Gate {
    /// The destination's node is inside a crash window.
    pub(crate) dead: bool,
    /// Current membership epoch (0 when fault tolerance is off).
    pub(crate) epoch: u32,
}

/// Outcome of [`deliver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Delivered {
    /// Dropped: the destination's cores are dead, the message is lost with
    /// the node (rollback-replay regenerates it in the next epoch).
    DroppedDead,
    /// Dropped: sent before the last recovery rolled the membership epoch.
    /// The replay already (or will) re-send it, so delivering this copy
    /// would break exactly-once.
    DroppedStale,
    /// The envelope sits in the PE's scheduler queue. `wake_at` is when
    /// the caller must schedule a `PeRun` — `None` when one is already
    /// pending.
    Queued { wake_at: Option<Time> },
}

/// `Deliver`: read the envelope's header in place, gate it against crash
/// windows and the membership epoch, count it, and move the wire buffer
/// onto the PE's scheduler queue.
#[inline]
pub(crate) fn deliver(
    env: &ExecEnv,
    st: &mut PeState,
    t: Time,
    pe: PeId,
    bytes: Bytes,
    gate: Gate,
    stats: &mut ClusterStats,
) -> Delivered {
    stats.count(Event::KIND_DELIVER);
    let hdr = Envelope::peek(&bytes);
    debug_assert_eq!(hdr.dst_pe, pe);
    if gate.dead {
        stats.ft_dead_drops += 1;
        return Delivered::DroppedDead;
    }
    let system = env.system_handlers.contains(hdr.handler);
    if hdr.epoch < gate.epoch && !system {
        stats.ft_stale_drops += 1;
        return Delivered::DroppedStale;
    }
    stats.msgs_delivered += 1;
    st.queue.push(hdr.priority, bytes);
    let wake_at = (!st.run_scheduled).then(|| {
        st.run_scheduled = true;
        t.max(st.busy_until)
    });
    Delivered::Queued { wake_at }
}

/// Outcome of [`pe_run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PeRun {
    /// Still finishing earlier work (overhead charges can extend it): the
    /// caller re-arms the wake-up at `until`. A busy wake-up does no work
    /// and is left out of the event count — how many occur depends on
    /// engine scheduling internals (how often `busy_until` moved after the
    /// wake-up was scheduled), and the count must stay engine-invariant.
    Busy { until: Time },
    /// Nothing queued (a crash emptied the scheduler).
    Idle,
    /// One handler ran from `t`: `charged_app` of application work, then
    /// `charged_ovh` of runtime overhead (the handler's own charges plus
    /// the scheduler's per-message cost). Its sends are in the outbox; the
    /// caller pushes those *first*, then a `PeRun` at `next_run` if more
    /// messages are queued.
    Ran {
        charged_app: Time,
        charged_ovh: Time,
        stop: bool,
        next_run: Option<Time>,
    },
}

/// `PeRun`: let the PE's scheduler execute its most urgent message. The
/// one place a [`PeCtx`] is built and a handler is called. `ft` is the
/// cluster's fault-tolerance state; FT forces the sequential engine, so
/// parallel callers pass `&mut None`.
#[inline]
pub(crate) fn pe_run(
    env: &ExecEnv,
    ft: &mut Option<FtCore>,
    st: &mut PeState,
    t: Time,
    pe: PeId,
    outbox: &mut Vec<(Time, Event)>,
    stats: &mut ClusterStats,
) -> PeRun {
    if st.busy_until > t {
        return PeRun::Busy {
            until: st.busy_until,
        };
    }
    stats.count(Event::KIND_PE_RUN);
    let Some(wire) = st.queue.pop() else {
        st.run_scheduled = false;
        return PeRun::Idle;
    };
    let menv = Envelope::from_wire(wire);
    let handler = env
        .handlers
        .get(menv.handler.0 as usize)
        .unwrap_or_else(|| panic!("unregistered handler {:?}", menv.handler));
    let mut stop = false;
    let epoch = ft.as_ref().map_or(0, |f| f.epoch);
    let mut ctx = PeCtx {
        pe,
        start: t,
        charged_app: 0,
        charged_ovh: 0,
        cfg: env.cfg,
        user: &mut st.user,
        rng: &mut st.rng,
        cold: &mut st.cold,
        charm_reg: env.charm_reg,
        am_reg: env.am_reg,
        outbox,
        stop: &mut stop,
        stats,
        ft_global: ft,
        epoch,
    };
    handler(&mut ctx, menv);
    let charged_app = ctx.charged_app;
    let charged_ovh = ctx.charged_ovh + SCHED_OVERHEAD;
    stats.handlers_run += 1;

    st.busy_until = t + charged_app + charged_ovh;
    let next_run = if st.queue.is_empty() {
        st.run_scheduled = false;
        None
    } else {
        Some(st.busy_until)
    };
    PeRun::Ran {
        charged_app,
        charged_ovh,
        stop,
        next_run,
    }
}

/// `Machine` / `MachineNow` / `ParkedWake` / `Cmd`: everything that enters
/// the machine layer. Backend-blind — PE state and event pushes go
/// through the [`MachineCtx`], which knows which engine it serves.
#[inline]
// serial-only: drives the machine layer, which applies its effects directly
pub(crate) fn layer_event(layer: &mut dyn MachineLayer, ctx: &mut MachineCtx, ev: Event) {
    ctx.stats.count(ev.kind_index());
    let t = ctx.now();
    match ev {
        Event::Machine(pe, mev) => {
            let st = ctx.pe_state_mut(pe);
            if st.busy_until > t {
                // Progress only happens when the PE is free: park the
                // event and arm a single wake at the busy horizon.
                st.parked.push_back(mev);
                if let Some(at) = st.arm_parked_wake() {
                    ctx.push_event(at, Event::ParkedWake(pe));
                }
            } else {
                layer.on_event(ctx, pe, mev);
            }
        }
        Event::MachineNow(pe, mev) => layer.on_event(ctx, pe, mev),
        Event::ParkedWake(pe) => {
            ctx.pe_state_mut(pe).parked_wake = false;
            loop {
                let st = ctx.pe_state_mut(pe);
                if st.busy_until > t {
                    // (Still) busy — an event just drained may have
                    // charged the PE: whatever is left waits again.
                    if !st.parked.is_empty() {
                        if let Some(at) = st.arm_parked_wake() {
                            ctx.push_event(at, Event::ParkedWake(pe));
                        }
                    }
                    break;
                }
                let Some(mev) = st.parked.pop_front() else {
                    break;
                };
                layer.on_event(ctx, pe, mev);
            }
        }
        Event::Cmd(pe, cmd) => {
            ctx.set_cmd_origin(pe);
            // Each send handed to the layer is one message on the wire.
            if let Cmd::Send { msg, .. } | Cmd::SendPersistent { msg, .. } = &cmd {
                ctx.stats.net_msgs += 1;
                ctx.stats.net_bytes += msg.len() as u64;
            }
            match cmd {
                Cmd::Send { dst, msg } => layer.sync_send(ctx, pe, dst, msg),
                Cmd::CreatePersistent {
                    dst,
                    max_bytes,
                    handle,
                } => layer.create_persistent(ctx, pe, dst, max_bytes, handle),
                Cmd::SendPersistent { handle, dst, msg } => {
                    layer.send_persistent(ctx, handle, pe, dst, msg)
                }
            }
        }
        Event::PeRun(_) | Event::Deliver(..) | Event::NodeLife(..) | Event::FtRecover(_) => {
            unreachable!("not a machine-layer event")
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_types,
    reason = "handlers hand results back through shared cells"
)]
mod tests {
    use super::*;

    const USER: HandlerId = HandlerId(0);
    const SYSTEM: HandlerId = HandlerId(1);
    const PE: PeId = 3;

    /// Everything an [`ExecEnv`] borrows, owned in one place. Handler 0
    /// is application traffic: it computes for 1 µs, sends one message to
    /// PE 1 and one system message to itself, and stops the run when its
    /// payload is non-empty. Handler 1 is a do-nothing system handler.
    struct Fixture {
        cfg: ClusterCfg,
        handlers: Vec<Handler>,
        charm: CharmRegistry,
        am: crate::am::AmRegistry,
        system: SystemHandlers,
    }

    impl Fixture {
        fn new() -> Self {
            let user: Handler = Arc::new(|ctx, env| {
                ctx.charge(1_000);
                ctx.send(1, USER, Bytes::new());
                ctx.send(ctx.pe(), SYSTEM, Bytes::new());
                if !env.payload.is_empty() {
                    ctx.stop();
                }
            });
            let mut system = SystemHandlers::default();
            system.insert(SYSTEM);
            Fixture {
                cfg: ClusterCfg::new(8, 4),
                handlers: vec![user, Arc::new(|_, _| {})],
                charm: CharmRegistry::default(),
                am: crate::am::AmRegistry::default(),
                system,
            }
        }

        fn env(&self) -> ExecEnv<'_> {
            ExecEnv {
                cfg: &self.cfg,
                handlers: &self.handlers,
                charm_reg: &self.charm,
                am_reg: &self.am,
                system_handlers: &self.system,
            }
        }
    }

    fn wire(handler: HandlerId, epoch: u32, payload: &'static [u8]) -> Bytes {
        Envelope::new(0, PE, handler, Bytes::from_static(payload))
            .with_epoch(epoch)
            .encode()
    }

    #[test]
    fn pe_state_stays_hot_sized() {
        // deliver/pe_run touch one PeState per event with a working set
        // far beyond the caches at whole-machine scale: what they do not
        // need belongs in PeCold.
        assert_eq!(std::mem::size_of::<PeState>(), 144);
        assert_eq!(std::mem::size_of::<PeCold>(), 216);
        let mut st = PeState::fresh(7, PE as u64);
        assert!(st.cold().is_none());
        st.lose_volatile();
        assert!(st.cold().is_none(), "a crash must not materialize state");
        st.cold_mut().next_persistent = 3;
        st.lose_volatile();
        // Handle numbering survives a crash, as it did before the split.
        assert_eq!(st.cold().map(|c| c.next_persistent), Some(3));
    }

    #[test]
    fn a_queued_event_stays_56_bytes() {
        // Every pending event pays this: the central queue holds each one
        // in a slab node (`sim_core::queue`, 64 B with its link) and a
        // whole-machine run holds 300k of them, so a new variant or field
        // must not fatten the node silently.
        assert_eq!(std::mem::size_of::<Event>(), 56);
        assert_eq!(std::mem::size_of::<Cmd>(), 48);
    }

    #[test]
    fn deliver_outcomes() {
        struct Case {
            name: &'static str,
            handler: HandlerId,
            msg_epoch: u32,
            gate: Gate,
            run_scheduled: bool,
            busy_until: Time,
            want: Delivered,
            /// Expected (msgs_delivered, dead drops, stale drops).
            counts: (u64, u64, u64),
        }
        let live = Gate::default();
        let epoch1 = Gate {
            dead: false,
            epoch: 1,
        };
        let dead = Gate {
            dead: true,
            epoch: 0,
        };
        let wake = |at| Delivered::Queued { wake_at: Some(at) };
        #[rustfmt::skip]
        let cases = [
            Case { name: "idle PE wakes at once", handler: USER, msg_epoch: 0, gate: live,
                   run_scheduled: false, busy_until: 0, want: wake(50), counts: (1, 0, 0) },
            Case { name: "busy PE wakes at its horizon", handler: USER, msg_epoch: 0, gate: live,
                   run_scheduled: false, busy_until: 900, want: wake(900), counts: (1, 0, 0) },
            Case { name: "second delivery rides the pending PeRun", handler: USER, msg_epoch: 0,
                   gate: live, run_scheduled: true, busy_until: 900,
                   want: Delivered::Queued { wake_at: None }, counts: (1, 0, 0) },
            Case { name: "dead node drops", handler: USER, msg_epoch: 0, gate: dead,
                   run_scheduled: false, busy_until: 0,
                   want: Delivered::DroppedDead, counts: (0, 1, 0) },
            Case { name: "dead node drops system traffic too", handler: SYSTEM, msg_epoch: 0,
                   gate: dead, run_scheduled: false, busy_until: 0,
                   want: Delivered::DroppedDead, counts: (0, 1, 0) },
            Case { name: "stale epoch drops", handler: USER, msg_epoch: 0, gate: epoch1,
                   run_scheduled: false, busy_until: 0,
                   want: Delivered::DroppedStale, counts: (0, 0, 1) },
            Case { name: "current epoch passes", handler: USER, msg_epoch: 1, gate: epoch1,
                   run_scheduled: false, busy_until: 0, want: wake(50), counts: (1, 0, 0) },
            Case { name: "system traffic skips the epoch gate", handler: SYSTEM,
                   msg_epoch: 0, gate: epoch1, run_scheduled: false, busy_until: 0,
                   want: wake(50), counts: (1, 0, 0) },
        ];
        let fx = Fixture::new();
        for c in cases {
            let mut st = PeState::fresh(7, PE as u64);
            st.run_scheduled = c.run_scheduled;
            st.busy_until = c.busy_until;
            let mut stats = ClusterStats::default();
            let bytes = wire(c.handler, c.msg_epoch, b"");
            let got = deliver(&fx.env(), &mut st, 50, PE, bytes, c.gate, &mut stats);
            assert_eq!(got, c.want, "{}", c.name);
            let counts = (
                stats.msgs_delivered,
                stats.ft_dead_drops,
                stats.ft_stale_drops,
            );
            assert_eq!(counts, c.counts, "{}", c.name);
            // A dropped delivery is still an executed event.
            assert_eq!((stats.events, stats.event_kinds[1]), (1, 1), "{}", c.name);
            let queued = matches!(got, Delivered::Queued { .. });
            assert_eq!(st.queue.len(), queued as usize, "{}", c.name);
            assert_eq!(st.run_scheduled, queued || c.run_scheduled, "{}", c.name);
        }
    }

    #[test]
    fn a_chained_envelope_reaches_its_handler_without_a_copy() {
        // Above the inline limit `encode` chains the payload behind the
        // header; the queue holds that wire buffer and `pe_run` narrows it.
        let mut v = vec![7u8; 4096];
        v[0] = 1; // non-empty payloads stop the fixture's user handler
        let sent_at = v.as_ptr();
        let payload = Bytes::from(v);
        let got = Arc::new(std::sync::Mutex::new(None));
        let mut fx = Fixture::new();
        let stash = got.clone();
        fx.handlers[SYSTEM.0 as usize] = Arc::new(move |_, env| {
            *stash.lock().unwrap() = Some(env.payload);
        });
        let bytes = Envelope::new(0, PE, SYSTEM, payload.clone()).encode();
        let mut st = PeState::fresh(7, PE as u64);
        let mut stats = ClusterStats::default();
        deliver(
            &fx.env(),
            &mut st,
            0,
            PE,
            bytes,
            Gate::default(),
            &mut stats,
        );
        pe_run(
            &fx.env(),
            &mut None,
            &mut st,
            0,
            PE,
            &mut Vec::new(),
            &mut stats,
        );
        let got = got.lock().unwrap().take().expect("the handler ran");
        assert_eq!(got.as_ptr(), sent_at);
        // Nothing else still refers to it: once the sender lets go, the
        // handler's payload is the sole owner of the sender's allocation.
        drop(payload);
        let back = got.try_reclaim().expect("sole owner");
        assert_eq!(back.as_ptr(), sent_at);
    }

    #[test]
    fn pe_run_outcomes() {
        struct Case {
            name: &'static str,
            /// Payloads queued on the PE before the wake-up fires at t=500.
            queued: &'static [&'static [u8]],
            busy_until: Time,
            want: PeRun,
            /// Expected (events, handlers_run, busy_until, run_scheduled).
            after: (u64, u64, Time, bool),
        }
        // The fixture's user handler: 1000 ns of work, two sends at 100 ns
        // each, plus the scheduler's 200 ns.
        let ran = |stop, next_run| PeRun::Ran {
            charged_app: 1_000,
            charged_ovh: 400,
            stop,
            next_run,
        };
        #[rustfmt::skip]
        let cases = [
            Case { name: "busy wake-up is uncounted and re-arms at the horizon", queued: &[b""],
                   busy_until: 800, want: PeRun::Busy { until: 800 }, after: (0, 0, 800, true) },
            Case { name: "nothing queued", queued: &[], busy_until: 500, want: PeRun::Idle,
                   after: (1, 0, 500, false) },
            Case { name: "last message leaves the PE unscheduled", queued: &[b""], busy_until: 0,
                   want: ran(false, None), after: (1, 1, 1_900, false) },
            Case { name: "more queued: next run at the new horizon", queued: &[b"", b""],
                   busy_until: 500, want: ran(false, Some(1_900)), after: (1, 1, 1_900, true) },
            Case { name: "stop is reported, not applied", queued: &[b"stop"], busy_until: 0,
                   want: ran(true, None), after: (1, 1, 1_900, false) },
        ];
        let fx = Fixture::new();
        for c in cases {
            let mut st = PeState::fresh(7, PE as u64);
            let mut stats = ClusterStats::default();
            for payload in c.queued {
                let bytes = wire(USER, 0, payload);
                deliver(
                    &fx.env(),
                    &mut st,
                    0,
                    PE,
                    bytes,
                    Gate::default(),
                    &mut stats,
                );
            }
            st.run_scheduled = true;
            st.busy_until = c.busy_until;
            stats = ClusterStats::default();
            let mut outbox = Vec::new();
            let got = pe_run(
                &fx.env(),
                &mut None,
                &mut st,
                500,
                PE,
                &mut outbox,
                &mut stats,
            );
            assert_eq!(got, c.want, "{}", c.name);
            let after = (
                stats.events,
                stats.handlers_run,
                st.busy_until,
                st.run_scheduled,
            );
            assert_eq!(after, c.after, "{}", c.name);
            if let PeRun::Ran { .. } = got {
                // Sends leave at the PE-local time they were issued.
                assert!(
                    matches!(
                        outbox[..],
                        [
                            (1_600, Event::Cmd(PE, Cmd::Send { dst: 1, .. })),
                            (1_700, Event::Deliver(PE, _))
                        ]
                    ),
                    "{}",
                    c.name
                );
                assert_eq!(stats.msgs_sent, 2, "{}", c.name);
            } else {
                assert!(outbox.is_empty(), "{}", c.name);
            }
        }
    }
}
