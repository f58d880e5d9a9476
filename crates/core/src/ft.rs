//! Runtime-level fault tolerance: a heartbeat failure detector plus
//! in-memory double (buddy) checkpointing, after Charm++'s in-memory
//! checkpoint/restart (DESIGN.md §11).
//!
//! Everything here runs end-to-end in virtual time and is bit-replayable:
//! crashes come only from the [`gemini_net::FaultPlan`]'s schedule-driven
//! crash windows (never the fault RNG), detection is timeout arithmetic on
//! virtual-time heartbeats, and recovery mutates the cluster between
//! events, so two runs under the same plan are byte-identical.
//!
//! Protocol sketch:
//!
//! * every node's lead PE self-schedules a **heartbeat** to the monitor
//!   (PE 0) each `hb_period`; the monitor's **detector tick** declares a
//!   node dead when its last heartbeat is older than `hb_timeout`;
//! * apps opt into **checkpointing** via the [`Checkpoint`] trait;
//!   [`crate::cluster::PeCtx::ft_maybe_checkpoint`] snapshots every PE
//!   from a consistent point on a `ckpt_period` cadence, storing one copy
//!   locally and one on a **buddy** (next live node, same core offset);
//! * on a declared failure the membership **epoch** rolls forward, every
//!   live PE rolls back to its last checkpoint, the dead node's PEs are
//!   restored from their buddy copies — onto the restarted incarnation
//!   when the crash window has `restart_after_ns`, or redistributed onto
//!   the buddy-holding PEs when the node is gone for good — and messages
//!   from earlier epochs are discarded at delivery, which together with
//!   replay from the checkpoint keeps execution exactly-once.

use crate::cluster::{Cluster, Event, PeCtx};
use crate::msg::{wire, Envelope, HandlerId, Header, PeId};
use crate::trace::Kind;
use bytes::Bytes;
use gemini_net::NodeId;
use sim_core::Time;
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// App-side opt-in: state that can ride a checkpoint. Mirrors Charm++'s
/// PUP in the small: one flat byte serialization, one reconstruction.
pub trait Checkpoint {
    fn save(&self) -> Vec<u8>;
    fn restore(bytes: &[u8]) -> Self
    where
        Self: Sized;
}

/// Fault-tolerance tuning knobs (all virtual time).
#[derive(Debug, Clone)]
pub struct FtConfig {
    /// Heartbeat send period per node.
    pub hb_period: Time,
    /// Declare a node dead when its heartbeat is older than this. Beats
    /// ride the scheduler at top priority, but a PE that is *computing*
    /// cannot beat: size the timeout several times the application's
    /// longest busy stretch or a loaded node reads as a dead one.
    pub hb_timeout: Time,
    /// Minimum spacing between checkpoints (enforced by
    /// [`crate::cluster::PeCtx::ft_maybe_checkpoint`]).
    pub ckpt_period: Time,
}

impl Default for FtConfig {
    fn default() -> Self {
        FtConfig {
            hb_period: 10_000,
            hb_timeout: 30_000,
            ckpt_period: 50_000,
        }
    }
}

/// Fixed virtual-time cost of taking one PE's checkpoint.
const CKPT_BASE_NS: Time = 1_000;
/// Incremental checkpoint cost per KiB of serialized state.
const CKPT_NS_PER_KB: Time = 100;
/// Fixed virtual-time cost of restoring one PE.
const RESTORE_BASE_NS: Time = 2_000;
/// Incremental restore cost per KiB of serialized state.
const RESTORE_NS_PER_KB: Time = 200;

/// Post-run summary of FT activity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FtReport {
    /// Completed checkpoint waves (including the bootstrap one at t=0).
    pub ckpts: u64,
    /// Completed crash recoveries.
    pub recoveries: u64,
    /// Final membership epoch (= recoveries; kept separate for clarity).
    pub epoch: u32,
}

/// One PE's checkpoint: serialized chare elements, the per-array local
/// reduction wave counters (the in-flight application-level sequence
/// numbers), and the bare per-PE user state.
pub(crate) struct FtSnapshot {
    /// `(array, index, bytes)`, sorted by key.
    pub(crate) elements: Vec<(u16, u64, Vec<u8>)>,
    /// `(array, wave)`, sorted.
    pub(crate) local_wave: Vec<(u16, u64)>,
    /// Serialized user state (None when the app registered no
    /// [`Cluster::ft_user`] serializer).
    pub(crate) user: Option<Vec<u8>>,
    /// Total serialized payload (drives the virtual-time cost model).
    pub(crate) bytes: u64,
}

/// Deferred FT work queued by handlers and enacted by the driver between
/// events (so snapshots and restores always see a consistent cluster).
pub(crate) enum FtAction {
    Checkpoint,
    Declare(NodeId),
}

type SaveFn = Arc<dyn Fn(&dyn Any) -> Vec<u8> + Send + Sync>;
type LoadFn = Arc<dyn Fn(&[u8]) -> Box<dyn Any + Send> + Send + Sync>;

/// Failure-detector and checkpoint bookkeeping, installed by
/// [`Cluster::enable_ft`].
pub(crate) struct FtCore {
    pub(crate) cfg: FtConfig,
    /// Current membership epoch; rolls forward on every recovery.
    pub(crate) epoch: u32,
    /// Virtual time of the last checkpoint wave (cadence gate).
    pub(crate) last_ckpt: Time,
    /// Work queued by handlers, drained after each event.
    pub(crate) pending: Vec<FtAction>,
    /// Monitor side: node -> last heartbeat receipt (BTreeMap: the
    /// detector scan must be deterministic).
    last_hb: BTreeMap<NodeId, Time>,
    /// Nodes declared dead. A restarting node leaves this set when its
    /// recovery completes; a redistributed one never does.
    dead: BTreeSet<NodeId>,
    /// Nodes whose fresh incarnation has booted and awaits restore.
    pub(crate) restarted: BTreeSet<NodeId>,
    /// Gone-for-good nodes whose recovery (redistribute) has completed:
    /// the membership shrank, and waves over the survivors are complete
    /// again.
    gone: BTreeSet<NodeId>,
    beat_h: HandlerId,
    /// App resume entry `(handler, pe)` kicked once after each recovery.
    resume: Option<(HandlerId, PeId)>,
    /// Heartbeat traffic stops past this virtual time so runs drain; 0
    /// (inert plan: no crash windows) means no heartbeats at all.
    hb_horizon: Time,
    /// Per-array element (de)serializers, keyed by `ArrayId.0`.
    savers: BTreeMap<u16, (SaveFn, LoadFn)>,
    /// Bare per-PE user-state (de)serializer.
    user_ck: Option<(SaveFn, LoadFn)>,
    pub(crate) ckpts: u64,
    pub(crate) recoveries: u64,
}

impl Cluster {
    /// Install the fault-tolerance subsystem: heartbeat failure detector,
    /// buddy checkpointing, epoch-based rollback recovery.
    ///
    /// Must be called before arrays are FT-registered ([`Cluster::ft_array`])
    /// and before [`Cluster::run`]. The monitor and recovery coordinator
    /// live on node 0, so crash plans must spare node 0.
    pub fn enable_ft(&mut self, cfg: FtConfig) {
        assert!(self.ft.is_none(), "fault tolerance enabled twice");
        assert!(
            !self.cfg.fault.node_crash.iter().any(|w| w.node == 0),
            "the FT monitor lives on node 0: crash plans must spare node 0"
        );
        let cores = self.cfg.cores_per_node;

        // Monitor side: record a heartbeat receipt.
        let hb_h = self.register_handler(move |ctx: &mut PeCtx, env: Envelope| {
            let node = wire::unpack_u64(&env.payload, 0) as NodeId;
            let now = ctx.now();
            ctx.ft_state().last_hb.insert(node, now);
        });
        // Node side: send a heartbeat to the monitor, re-arm until the
        // horizon. All FT control traffic runs at priority 0 — on a
        // saturated PE a default-priority beat queues behind the whole
        // application backlog, and that drift would read as a timeout.
        let beat_h = self.register_handler(move |ctx: &mut PeCtx, env: Envelope| {
            let now = ctx.now();
            let (period, horizon) = {
                let ft = ctx.ft_state();
                (ft.cfg.hb_period, ft.hb_horizon)
            };
            let node = (ctx.pe() / cores) as u64;
            ctx.send_prio(0, hb_h, wire::pack_u64s(&[node]), 0);
            if now < horizon {
                let pe = ctx.pe();
                ctx.send_after_prio(period, pe, env.handler, Bytes::new(), 0);
            }
        });
        // Monitor side: timeout-based suspicion; declarations are queued
        // and enacted between events.
        let tick_h = self.register_handler(move |ctx: &mut PeCtx, env: Envelope| {
            let now = ctx.now();
            let (period, horizon) = {
                let ft = ctx.ft_state();
                let timeout = ft.cfg.hb_timeout;
                let mut suspects: Vec<NodeId> = Vec::new();
                for (n, last) in ft.last_hb.iter() {
                    if !ft.dead.contains(n) && now.saturating_sub(*last) > timeout {
                        suspects.push(*n);
                    }
                }
                for n in suspects {
                    ft.dead.insert(n);
                    ft.pending.push(FtAction::Declare(n));
                }
                (ft.cfg.hb_period, ft.hb_horizon)
            };
            if now < horizon {
                let pe = ctx.pe();
                ctx.send_after_prio(period, pe, env.handler, Bytes::new(), 0);
            }
        });
        for h in [hb_h, beat_h, tick_h] {
            // FT control traffic is outside the membership-epoch gate (a
            // recovery must not kill the detector's own self-scheduling
            // chains).
            self.system_handlers.insert(h);
        }

        // Heartbeats only need to cover the window in which a crash can
        // be detected; past the horizon the chains stop re-arming so the
        // event queue drains. An inert plan (no crash windows) gets a
        // zero horizon and therefore zero heartbeat traffic.
        let hb_horizon = self
            .cfg
            .fault
            .node_crash
            .iter()
            .map(|w| w.restart_at().unwrap_or(w.at_ns) + cfg.hb_timeout + 2 * cfg.hb_period)
            .max()
            .unwrap_or(0);

        let mut last_hb: BTreeMap<NodeId, Time> = BTreeMap::new();
        if hb_horizon > 0 {
            for n in 0..self.cfg.num_nodes() {
                last_hb.insert(n, 0);
                let lead = n * cores;
                if lead < self.cfg.num_pes {
                    let env = Envelope::new(lead, lead, beat_h, Bytes::new()).with_priority(0);
                    self.events
                        .push(cfg.hb_period, Event::Deliver(lead, env.encode()));
                }
            }
            let env = Envelope::new(0, 0, tick_h, Bytes::new()).with_priority(0);
            self.events
                .push(cfg.hb_period, Event::Deliver(0, env.encode()));
        }

        self.crash_gate = true;
        self.ft = Some(FtCore {
            cfg,
            epoch: 0,
            last_ckpt: 0,
            pending: Vec::new(),
            last_hb,
            dead: BTreeSet::new(),
            restarted: BTreeSet::new(),
            gone: BTreeSet::new(),
            beat_h,
            resume: None,
            hb_horizon,
            savers: BTreeMap::new(),
            user_ck: None,
            ckpts: 0,
            recoveries: 0,
        });
    }

    /// Register array `aid`'s element type for checkpointing. Every array
    /// that exists when FT is enabled must be registered — an unregistered
    /// array's elements cannot be serialized, which would silently lose
    /// them at recovery, so the checkpointer panics instead.
    pub fn ft_array<T: Checkpoint + Send + 'static>(&mut self, aid: crate::charm::ArrayId) {
        let ft = match self.ft.as_mut() {
            Some(f) => f,
            None => panic!("call enable_ft before ft_array"),
        };
        ft.savers.insert(aid.0, ck_fns::<T>());
    }

    /// Register the bare per-PE user state (see [`Cluster::init_user`])
    /// for checkpointing. Optional; without it user state is not restored.
    pub fn ft_user<T: Checkpoint + Send + 'static>(&mut self) {
        let ft = match self.ft.as_mut() {
            Some(f) => f,
            None => panic!("call enable_ft before ft_user"),
        };
        ft.user_ck = Some(ck_fns::<T>());
    }

    /// Route a post-recovery resume kick to `(handler, pe)`: invoked once
    /// after every completed recovery with payload
    /// `[epoch, dead node, restarted? 1 : 0]` (u64 LE each). The handler's
    /// job is to re-drive the app from its restored state. `pe` should be
    /// on node 0 (it must survive every plannable crash).
    pub fn ft_on_resume(&mut self, handler: HandlerId, pe: PeId) {
        let ft = match self.ft.as_mut() {
            Some(f) => f,
            None => panic!("call enable_ft before ft_on_resume"),
        };
        ft.resume = Some((handler, pe));
    }

    /// Whether [`Cluster::enable_ft`] was called: apps written against a
    /// cluster the caller built register their [`Checkpoint`] savers only
    /// then.
    pub fn ft_enabled(&self) -> bool {
        self.ft.is_some()
    }

    /// FT activity summary (all zeros when FT is off).
    pub fn ft_report(&self) -> FtReport {
        match &self.ft {
            Some(f) => FtReport {
                ckpts: f.ckpts,
                recoveries: f.recoveries,
                epoch: f.epoch,
            },
            None => FtReport::default(),
        }
    }

    /// Take the bootstrap checkpoint at t=0 (called from `run`): every
    /// recovery has a wave to roll back to even before the app's first
    /// `ft_maybe_checkpoint`.
    pub(crate) fn ft_bootstrap(&mut self) {
        let fresh = match &self.ft {
            Some(f) => f.ckpts == 0,
            None => false,
        };
        if fresh {
            self.ft_checkpoint(0);
        }
    }

    /// Drain FT work queued by the handlers of the event just dispatched.
    pub(crate) fn ft_pump(&mut self, t: Time) {
        let pending = match self.ft.as_mut() {
            Some(f) if !f.pending.is_empty() => std::mem::take(&mut f.pending),
            _ => return,
        };
        for action in pending {
            match action {
                FtAction::Checkpoint => self.ft_checkpoint(t),
                FtAction::Declare(node) => {
                    // When the plan restarts the node later, recovery
                    // waits for the fresh incarnation; otherwise the
                    // node is gone and its PEs redistribute now.
                    let restart = self
                        .cfg
                        .fault
                        .node_crash
                        .iter()
                        .find(|w| w.node == node)
                        .and_then(|w| w.restart_at());
                    match restart {
                        Some(r) if r > t => self.events.push(r, Event::FtRecover(node)),
                        _ => self.ft_recover(t, node),
                    }
                }
            }
        }
    }

    /// Take one checkpoint wave: serialize every live PE's state and
    /// place copies locally and on the PE's buddy.
    pub(crate) fn ft_checkpoint(&mut self, t: Time) {
        let mut ft = match self.ft.take() {
            Some(f) => f,
            None => return,
        };
        self.ft_checkpoint_inner(t, &mut ft);
        self.ft = Some(ft);
    }

    fn ft_checkpoint_inner(&mut self, t: Time, ft: &mut FtCore) {
        // A wave taken with a member down would be a partial snapshot:
        // recovery would then restore the survivors from it but the dead
        // PEs from an older wave — an inconsistent cut that loses the
        // causality between them (a pong counted on one side but not the
        // other). Checkpointing suspends until recovery settles the
        // membership: a restart restores full membership, a redistribute
        // shrinks it (waves over the survivors are complete again). Until
        // then the last complete wave stays the rollback point.
        let unsettled = self
            .node_down
            .iter()
            .enumerate()
            .any(|(n, &d)| d && !ft.gone.contains(&(n as NodeId)));
        if unsettled {
            return;
        }
        let cores = self.cfg.cores_per_node;
        for pe in 0..self.cfg.num_pes {
            if self.node_down[(pe / cores) as usize] {
                continue;
            }
            let snap = {
                // The snapshot is stored in this PE's cold part below, so
                // materializing it here costs nothing extra.
                let st = self.pes.get_mut(pe as usize);
                let charm = &st.cold.get_or_insert_with(Box::default).charm;
                let keys = charm.element_keys();
                let mut elements = Vec::with_capacity(keys.len());
                let mut bytes = 0u64;
                for (aid, idx) in keys {
                    let save = match ft.savers.get(&aid) {
                        Some((s, _)) => s.clone(),
                        // A populated array without a Checkpoint registration
                        // cannot be saved — config bug. panic-ok: by design.
                        None => panic!(
                            "array {aid} has elements but no Checkpoint \
                             registration (call ft_array)"
                        ),
                    };
                    let data = save(charm.element_state((aid, idx)));
                    // 16 bytes of per-element framing in the cost model.
                    bytes += data.len() as u64 + 16;
                    elements.push((aid, idx, data));
                }
                let user = match &ft.user_ck {
                    Some((save, _)) => {
                        let data = save(st.user.as_ref());
                        bytes += data.len() as u64;
                        Some(data)
                    }
                    None => None,
                };
                Arc::new(FtSnapshot {
                    elements,
                    local_wave: charm.wave_snapshot(),
                    user,
                    bytes,
                })
            };
            // Serialization + buddy copy is real work: charge it as its
            // own trace category so the cadence sweep can read overhead.
            let cost = CKPT_BASE_NS + snap.bytes.div_ceil(1024) * CKPT_NS_PER_KB;
            let start = t.max(self.pes.get(pe as usize).busy_until);
            self.trace.record(pe, start, cost, Kind::Checkpoint);
            self.pes.get_mut(pe as usize).busy_until = start + cost;
            let buddy = self.ft_buddy_of(pe, ft);
            self.pes.get_mut(pe as usize).cold_mut().ft_local = Some(snap.clone());
            let holder = self.pes.get_mut(buddy as usize).cold_mut();
            holder.ft_buddy.insert(pe, snap);
        }
        ft.ckpts += 1;
        ft.last_ckpt = t;
    }

    /// The PE holding `pe`'s second checkpoint copy: same core offset on
    /// the next live node (wrapping). Degenerates to `pe` itself on a
    /// single-node job, where no buddy can survive a node loss anyway.
    fn ft_buddy_of(&self, pe: PeId, ft: &FtCore) -> PeId {
        let cores = self.cfg.cores_per_node;
        let nodes = self.cfg.num_nodes();
        let node = pe / cores;
        let offset = pe % cores;
        for k in 1..nodes {
            let cand = (node + k) % nodes;
            if self.node_down[cand as usize] || ft.dead.contains(&cand) {
                continue;
            }
            let bpe = cand * cores + offset;
            if bpe < self.cfg.num_pes {
                return bpe;
            }
        }
        pe
    }

    /// Enact crash recovery for a declared-dead node: roll the membership
    /// epoch, restore the dead node's PEs from their buddy checkpoints
    /// (in place after a restart, redistributed otherwise), roll every
    /// surviving PE back to its own last checkpoint, and kick the app's
    /// resume handler in the new epoch.
    pub(crate) fn ft_recover(&mut self, t: Time, node: NodeId) {
        let mut ft = match self.ft.take() {
            Some(f) => f,
            // panic-ok: a crash with FT disabled is unrecoverable by design
            None => panic!("crash recovery without fault tolerance enabled"),
        };
        self.ft_recover_inner(t, node, &mut ft);
        self.ft = Some(ft);
    }

    fn ft_recover_inner(&mut self, t: Time, node: NodeId, ft: &mut FtCore) {
        ft.epoch += 1;
        ft.recoveries += 1;
        let cores = self.cfg.cores_per_node;
        let num_pes = self.cfg.num_pes;
        let lo = node * cores;
        let hi = (lo + cores).min(num_pes);
        let restart = ft.restarted.remove(&node);

        // Locate the dead PEs' buddy snapshots: scan the live PEs in PE
        // order (deterministic), first hit wins.
        let mut orphans: Vec<(PeId, PeId, Arc<FtSnapshot>)> = Vec::new();
        for dead in lo..hi {
            let mut found: Option<(PeId, Arc<FtSnapshot>)> = None;
            for holder in 0..num_pes {
                if self.node_down[(holder / cores) as usize] {
                    continue;
                }
                let held = self.pes.get(holder as usize).cold();
                if let Some(s) = held.and_then(|cold| cold.ft_buddy.get(&dead)) {
                    found = Some((holder, s.clone()));
                    break;
                }
            }
            match found {
                Some((holder, s)) => orphans.push((dead, holder, s)),
                // Both replicas lost — unrecoverable with buddy (double)
                // checkpointing. panic-ok: by design.
                None => panic!("no surviving checkpoint for PE {dead} (its buddy also died)"),
            }
        }

        if restart {
            // The fresh incarnation rejoins the membership and will be
            // restored in place below. Its NIC state starts clean too:
            // polls armed during the outage were dropped with the dead
            // incarnation, and a stale arm would suppress the coalesced
            // polls the new one needs.
            self.node_down[node as usize] = false;
            self.with_layer(t, |layer, ctx| layer.node_fault(ctx, node));
            ft.dead.remove(&node);
        } else {
            // Redistribute: elements move to the PEs already holding
            // their buddy copies. Re-point every home whose route led to
            // the dead node (covers homes redirected by earlier
            // recoveries too), then fold the participant lists.
            for h in 0..num_pes {
                let cur = self.charm.route.get(h);
                if (lo..hi).contains(&cur) {
                    for (dead, holder, _) in &orphans {
                        if *dead == cur {
                            self.charm.route.set(h, *holder);
                        }
                    }
                }
            }
            self.charm.relocated = true;
            self.charm.remap_participants();
            ft.gone.insert(node);
        }

        // Roll every live PE back to the last checkpoint wave.
        for pe in 0..num_pes {
            if self.node_down[(pe / cores) as usize] {
                continue;
            }
            let dead_range = (lo..hi).contains(&pe);
            let own_snap = if restart && dead_range {
                // A restarted PE's own copy died with the old
                // incarnation; restore from the buddy copy.
                let mut s = None;
                for (dead, _, snap) in &orphans {
                    if *dead == pe {
                        s = Some(snap.clone());
                    }
                }
                s
            } else {
                let cold = self.pes.get(pe as usize).cold();
                cold.and_then(|cold| cold.ft_local.clone())
            };
            let st = self.pes.get_mut(pe as usize);
            if restart && dead_range {
                // Fresh incarnation: nothing before `t` happened on it.
                st.busy_until = t;
            }
            // Drop undelivered pre-recovery application messages from the
            // scheduler queue (their sends will be replayed from the
            // checkpoint), but keep FT control envelopes — the
            // detector's chains must survive recovery. (`Header::read`,
            // not `Envelope::peek`: recovery does not panic.)
            st.queue.retain(|wire| {
                Header::read(wire).is_ok_and(|h| self.system_handlers.contains(h.handler))
            });
            if let Some(cold) = &mut st.cold {
                cold.charm.clear_reductions();
                // Buffered (unflushed) typed AMs are pre-rollback sends:
                // the replay from the checkpoint regenerates them, so
                // delivering the stale copies too would double-deliver.
                cold.am.wipe();
            }
            let mut bytes = 0u64;
            if let Some(snap) = own_snap {
                st.cold_mut().charm.wipe();
                restore_snapshot(st, ft, &snap);
                bytes += snap.bytes;
            }
            if !restart {
                // Holders adopt the elements of the dead PEs whose buddy
                // copies they hold (the dead PEs' bare user state is
                // dropped — only chare elements migrate).
                for (_, holder, snap) in &orphans {
                    if *holder == pe {
                        adopt_snapshot(st, ft, snap);
                        bytes += snap.bytes;
                    }
                }
            }
            let cost = RESTORE_BASE_NS + bytes.div_ceil(1024) * RESTORE_NS_PER_KB;
            let start = t.max(st.busy_until);
            self.trace.record(pe, start, cost, Kind::Recovery);
            self.pes.get_mut(pe as usize).busy_until = start + cost;
        }

        // A gone-for-good node's buddy entries are unreachable garbage;
        // a restarting node's stay (they are still the latest checkpoint
        // should it crash again before the next wave).
        if !restart {
            for pe in 0..num_pes {
                // Shared-read gate first: PEs holding no buddy copies
                // (including never-materialized ones) are skipped without
                // forcing their pages into existence.
                let held = self.pes.get(pe as usize).cold();
                if held.is_none_or(|cold| cold.ft_buddy.is_empty()) {
                    continue;
                }
                let cold = self.pes.get_mut(pe as usize).cold_mut();
                for dead in lo..hi {
                    cold.ft_buddy.remove(&dead);
                }
            }
        }

        // Failure-detector bookkeeping: fresh heartbeat horizon for the
        // surviving membership, and a re-armed beat chain for the
        // restarted node (its old chain died with it).
        let nodes: Vec<NodeId> = ft.last_hb.keys().copied().collect();
        for n in nodes {
            if ft.dead.contains(&n) {
                ft.last_hb.remove(&n);
            } else {
                ft.last_hb.insert(n, t);
            }
        }
        if restart {
            ft.last_hb.insert(node, t);
            let lead = lo;
            let env = Envelope::new(lead, lead, ft.beat_h, Bytes::new())
                .with_priority(0)
                .with_epoch(ft.epoch);
            self.events
                .push(t + ft.cfg.hb_period, Event::Deliver(lead, env.encode()));
        }

        // Kick the app back to life in the new epoch.
        if let Some((h, pe)) = ft.resume {
            let payload =
                wire::pack_u64s(&[ft.epoch as u64, node as u64, if restart { 1 } else { 0 }]);
            let env = Envelope::new(pe, pe, h, payload).with_epoch(ft.epoch);
            self.events.push(t, Event::Deliver(pe, env.encode()));
        }
    }
}

/// Build the type-erased (de)serializer pair for `T`.
fn ck_fns<T: Checkpoint + Send + 'static>() -> (SaveFn, LoadFn) {
    (
        Arc::new(|any: &dyn Any| match any.downcast_ref::<T>() {
            Some(v) => v.save(),
            None => panic!("checkpoint serializer saw a different state type"),
        }),
        Arc::new(|bytes: &[u8]| Box::new(T::restore(bytes)) as Box<dyn Any + Send>),
    )
}

/// Restore a PE's own snapshot: elements, wave counters, user state.
fn restore_snapshot(st: &mut crate::kernel::PeState, ft: &FtCore, snap: &FtSnapshot) {
    let charm = &mut st.cold_mut().charm;
    for (aid, idx, data) in &snap.elements {
        let load = match ft.savers.get(aid) {
            Some((_, l)) => l.clone(),
            // A snapshot without its loader cannot be restored — a
            // registration lifetime bug. panic-ok: unrecoverable by design.
            None => panic!("checkpointed array {aid} lost its Checkpoint registration"),
        };
        charm.insert_element((*aid, *idx), load(data));
    }
    for (aid, w) in &snap.local_wave {
        charm.merge_wave(*aid, *w);
    }
    if let (Some((_, load)), Some(data)) = (&ft.user_ck, &snap.user) {
        st.user = load(data);
    }
}

/// Adopt a dead PE's snapshot onto its buddy holder (redistribute mode):
/// elements and wave counters migrate; the dead PE's user state does not.
fn adopt_snapshot(st: &mut crate::kernel::PeState, ft: &FtCore, snap: &FtSnapshot) {
    let charm = &mut st.cold_mut().charm;
    for (aid, idx, data) in &snap.elements {
        let load = match ft.savers.get(aid) {
            Some((_, l)) => l.clone(),
            // A snapshot without its loader cannot be restored — a
            // registration lifetime bug. panic-ok: unrecoverable by design.
            None => panic!("checkpointed array {aid} lost its Checkpoint registration"),
        };
        charm.insert_element((*aid, *idx), load(data));
    }
    for (aid, w) in &snap.local_wave {
        charm.merge_wave(*aid, *w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charm::RedOp;
    use crate::cluster::{Cluster, ClusterCfg, RunReport};
    use crate::ideal::IdealLayer;
    use gemini_net::{FaultPlan, NodeCrashWindow};

    struct Cnt(u64);
    impl Checkpoint for Cnt {
        fn save(&self) -> Vec<u8> {
            self.0.to_le_bytes().to_vec()
        }
        fn restore(bytes: &[u8]) -> Self {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[..8]);
            Cnt(u64::from_le_bytes(b))
        }
    }

    /// A reduction-driven round loop: every element bumps a counter and
    /// contributes; the client re-broadcasts until `rounds` waves are
    /// done. Exactly-once ⇒ every counter ends at exactly `rounds`.
    fn run_ring(plan: FaultPlan, rounds: u64) -> (RunReport, Vec<u64>, FtReport) {
        let mut cfg = ClusterCfg::new(8, 2);
        cfg.fault = plan;
        let mut c = Cluster::new(cfg, Box::new(IdealLayer::new(1_000)));
        c.enable_ft(FtConfig {
            ckpt_period: 20_000,
            ..FtConfig::default()
        });
        let aid = c.create_array(8, |_| Cnt(0));
        c.ft_array::<Cnt>(aid);
        let bump = c.register_entry::<Cnt>(aid, move |ctx, st, _idx, _p| {
            st.0 += 1;
            ctx.contribute(aid, &[st.0 as f64], RedOp::Sum);
        });
        let client = c.register_handler(move |ctx, env| {
            let wave = u64::from_le_bytes(env.payload[0..8].try_into().unwrap());
            if wave + 1 >= rounds {
                ctx.stop();
            } else {
                ctx.charm_broadcast(aid, bump, Bytes::new());
                ctx.ft_maybe_checkpoint();
            }
        });
        c.set_reduction_client(aid, client, 0);
        let resume = c.register_handler(move |ctx, _env| {
            ctx.charm_broadcast(aid, bump, Bytes::new());
        });
        c.ft_on_resume(resume, 0);
        c.inject_broadcast(0, aid, bump, Bytes::new());
        let r = c.run();
        let counts: Vec<u64> = (0..8).map(|i| c.element::<Cnt>(aid, i).0).collect();
        (r, counts, c.ft_report())
    }

    fn crash_plan(node: u32, restart: Option<sim_core::Time>) -> FaultPlan {
        let mut plan = FaultPlan::default();
        plan.node_crash.push(NodeCrashWindow {
            node,
            at_ns: 60_000,
            restart_after_ns: restart,
        });
        plan
    }

    #[test]
    fn inert_plan_means_no_heartbeats_and_one_bootstrap_checkpoint() {
        let (r, counts, ft) = run_ring(FaultPlan::default(), 10);
        assert!(r.stopped_early);
        assert_eq!(counts, vec![10; 8]);
        assert_eq!(ft.recoveries, 0);
        assert_eq!(ft.epoch, 0);
        assert!(ft.ckpts >= 1, "bootstrap checkpoint missing");
        assert_eq!(r.stats.ft_dead_drops, 0);
        assert_eq!(r.stats.ft_stale_drops, 0);
    }

    #[test]
    fn restart_crash_recovers_exactly_once() {
        let rounds = 60;
        let (rf, fault_free, _) = run_ring(FaultPlan::default(), rounds);
        let (rc, crashed, ft) = run_ring(crash_plan(1, Some(30_000)), rounds);
        assert!(rf.stopped_early && rc.stopped_early);
        assert_eq!(ft.recoveries, 1);
        assert_eq!(ft.epoch, 1);
        assert_eq!(crashed, fault_free, "crash run diverged from fault-free");
        assert_eq!(crashed, vec![rounds; 8]);
        assert!(rc.stats.ft_dead_drops > 0, "nothing died with the node?");
        assert!(rc.end_time > rf.end_time, "recovery cost no time?");
    }

    #[test]
    fn redistribute_crash_folds_elements_onto_buddies() {
        let rounds = 60;
        let (r, counts, ft) = run_ring(crash_plan(3, None), rounds);
        assert!(r.stopped_early);
        assert_eq!(ft.recoveries, 1);
        assert_eq!(counts, vec![rounds; 8]);
    }

    #[test]
    fn crash_runs_are_bit_replayable() {
        for restart in [Some(30_000), None] {
            let a = run_ring(crash_plan(1, restart), 60);
            let b = run_ring(crash_plan(1, restart), 60);
            assert_eq!(a.0.end_time, b.0.end_time);
            assert_eq!(a.0.stats, b.0.stats);
            assert_eq!(a.1, b.1);
            assert_eq!(a.2, b.2);
        }
    }

    #[test]
    fn recovery_drops_the_application_backlog_and_keeps_control_traffic_in_order() {
        use crate::msg::DEFAULT_PRIO;
        let mut c = Cluster::new(ClusterCfg::new(8, 2), Box::new(IdealLayer::new(1_000)));
        c.enable_ft(FtConfig::default());
        let app = c.register_handler(|_, _| {});
        let beat = c.ft.as_ref().unwrap().beat_h;
        // The detector's tick is registered right after the beat.
        let tick = HandlerId(beat.0 + 1);
        c.ft_checkpoint(0);
        // PE 2 survives with a mixed backlog, tagged through `src_pe`.
        let backlog = [
            (app, DEFAULT_PRIO),
            (tick, DEFAULT_PRIO),
            (beat, 0),
            (app, 3),
            (tick, DEFAULT_PRIO),
            (app, DEFAULT_PRIO + 1),
            (beat, 0),
            (app, DEFAULT_PRIO),
            (tick, DEFAULT_PRIO + 1),
            (tick, DEFAULT_PRIO),
        ];
        for (tag, (h, prio)) in backlog.into_iter().enumerate() {
            let env = Envelope::new(tag as u32, 2, h, Bytes::new()).with_priority(prio);
            c.pes.get_mut(2).queue.push(prio, env.encode());
        }
        // Node 3 is gone for good: its PEs fold onto their buddies.
        c.node_down[3] = true;
        c.ft_recover(100, 3);
        let q = &mut c.pes.get_mut(2).queue;
        let left: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|w| Envelope::from_wire(w).src_pe)
            .collect();
        // Heartbeats first, then default-priority control in arrival
        // order, then the one below default; tags 0, 3, 5, 7 were the app's.
        assert_eq!(left, [2, 6, 1, 4, 9, 8]);
    }

    #[test]
    #[should_panic(expected = "spare node 0")]
    fn crashing_the_monitor_node_is_rejected() {
        run_ring(crash_plan(0, Some(10_000)), 10);
    }

    #[test]
    #[should_panic(expected = "call enable_ft")]
    fn ft_array_requires_enable_ft() {
        let mut c = Cluster::new(ClusterCfg::new(4, 2), Box::new(IdealLayer::new(1_000)));
        let aid = c.create_array(4, |_| Cnt(0));
        c.ft_array::<Cnt>(aid);
    }

    #[test]
    #[should_panic(expected = "restart window without fault tolerance")]
    fn restart_windows_require_ft() {
        let mut cfg = ClusterCfg::new(8, 2);
        cfg.fault = crash_plan(1, Some(30_000));
        let mut c = Cluster::new(cfg, Box::new(IdealLayer::new(1_000)));
        c.run();
    }
}
