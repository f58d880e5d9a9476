//! A complete simulated job: the [`Cluster`] that binds Converse
//! schedulers, a machine layer, and the simulated fabric together, its
//! registration API, and the sequential engine — a plain pop-and-dispatch
//! loop over one event queue.
//!
//! What an event *does* is defined once, in the kernel (kernel.rs); the
//! loop here is one of its callers, the parallel engine (par.rs) holds the
//! other two. Configuration lives in config.rs, the handler- and
//! layer-facing APIs in ctx.rs; their public names are re-exported here:
//! `charm_rt::cluster::X` is the path callers and sibling crates use.

use crate::charm::CharmRegistry;
use crate::ctx::McBack;
use crate::ft::FtCore;
use crate::kernel::{self, Delivered, ExecEnv, Gate, Handler, PeRun, SystemHandlers};
use crate::lrts::MachineLayer;
use crate::msg::{Envelope, HandlerId, PeId};
use crate::pe_table::{self, PeTable};
use crate::trace::{Kind, Trace};
use bytes::Bytes;
use gemini_net::NodeId;
use sim_core::{EventQueue, Time};
use std::any::Any;
use std::sync::Arc;

pub use crate::config::{take_sync_overhead_ns, ClusterCfg};
pub use crate::ctx::{MachineCtx, PeCtx};
pub use crate::kernel::{ClusterStats, Cmd, Event};

/// Result of [`Cluster::run`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Virtual time of the last processed event.
    pub end_time: Time,
    pub stats: ClusterStats,
    pub stopped_early: bool,
}

/// A complete simulated job.
pub struct Cluster {
    /// Shared immutable configuration: one copy behind an `Arc`, no
    /// matter how many PEs, workers, or report handles look at it.
    pub cfg: Arc<ClusterCfg>,
    pub(crate) now: Time,
    pub(crate) events: EventQueue<Event>,
    pub(crate) pes: PeTable,
    pub(crate) layer: Box<dyn MachineLayer>,
    pub(crate) handlers: Vec<Handler>,
    pub(crate) charm: CharmRegistry,
    /// Typed-AM dispatch table + aggregation policy (am.rs).
    pub(crate) am: crate::am::AmRegistry,
    pub(crate) trace: Trace,
    pub(crate) stats: ClusterStats,
    pub(crate) stopped: bool,
    /// Handlers whose traffic is excluded from the membership-epoch gate
    /// (the FT control plane — heartbeats and detector ticks are
    /// epoch-agnostic — and the AM batch envelope).
    pub(crate) system_handlers: SystemHandlers,
    /// Per-node liveness under the fault plan's crash windows: a down
    /// node's events are discarded at dispatch (its cores are dead).
    pub(crate) node_down: Vec<bool>,
    /// True when any crash-window machinery is armed (crash windows in the
    /// plan or the FT subsystem installed): gates the per-event liveness
    /// and epoch checks so crash-free runs pay nothing.
    pub(crate) crash_gate: bool,
    /// Fault-tolerance subsystem state (heartbeat failure detector + buddy
    /// checkpointing), installed by [`Cluster::enable_ft`].
    pub(crate) ft: Option<FtCore>,
    /// The handler outbox, drained after every `PeRun` so only its
    /// allocation survives: the scheduler runs one handler at a time, and
    /// a malloc/free pair per handler is the single hottest host
    /// allocation at scale. Purely a host-memory optimization — virtual
    /// time never observes it.
    outbox: Vec<(Time, Event)>,
}

/// Prefetch the state `ev` will touch when it runs: its PE's state and,
/// for a delivery, the wire block, for a machine event, its box.
#[inline]
fn prefetch_event(pes: &PeTable, ev: &Event) {
    let pe = match ev {
        Event::Deliver(pe, wire) => {
            sim_core::prefetch(wire.block_addr());
            *pe
        }
        Event::Machine(pe, m) | Event::MachineNow(pe, m) => {
            // A zero-sized event (`lrts-mpi`'s `Poll`) owns no block: its
            // box is a dangling address in the unmapped first page, where
            // a prefetch costs a page walk every time.
            let m: &(dyn Any + Send) = &**m;
            if std::mem::size_of_val(m) != 0 {
                sim_core::prefetch(std::ptr::from_ref(m).cast());
            }
            *pe
        }
        Event::PeRun(pe) | Event::ParkedWake(pe) | Event::Cmd(pe, _) => *pe,
        Event::NodeLife(..) | Event::FtRecover(_) => return,
    };
    pes.prefetch(pe as usize);
}

impl Cluster {
    pub fn new(cfg: ClusterCfg, layer: Box<dyn MachineLayer>) -> Self {
        if let Err(e) = cfg.fault.validate() {
            panic!("invalid fault plan: {e}");
        }
        let trace = Trace::new(cfg.num_pes, cfg.trace_bucket);
        // Per-PE state is a lazily materialized flyweight: nothing is
        // allocated here, PEs spring into (deterministic) existence on
        // first touch (pe_table.rs).
        let pes = pe_table::new(cfg.num_pes, cfg.seed);
        let node_down = vec![false; cfg.num_nodes() as usize];
        let crash_gate = cfg.fault.has_node_crash();
        let mut c = Cluster {
            cfg: Arc::new(cfg),
            now: 0,
            events: EventQueue::new(),
            pes,
            layer,
            handlers: Vec::new(),
            charm: CharmRegistry::default(),
            am: crate::am::AmRegistry::default(),
            trace,
            stats: ClusterStats::default(),
            stopped: false,
            system_handlers: SystemHandlers::default(),
            node_down,
            crash_gate,
            ft: None,
            outbox: Vec::new(),
        };
        // Handler 0 is reserved for the Charm dispatch (arrays, broadcast,
        // reductions — see charm.rs).
        let h = c.register_handler(crate::charm::dispatch);
        debug_assert_eq!(h, crate::charm::CHARM_HANDLER);
        // Schedule the plan's crash windows as first-class events.
        for w in c.cfg.fault.node_crash.clone() {
            assert!(
                w.node < c.cfg.num_nodes(),
                "crash window names node {} but the job has {} nodes",
                w.node,
                c.cfg.num_nodes()
            );
            c.events.push(w.at_ns, Event::NodeLife(w.node, false));
            if let Some(r) = w.restart_at() {
                c.events.push(r, Event::NodeLife(w.node, true));
            }
        }
        // Give the machine layer its LrtsInit call at t=0.
        c.with_layer(0, |layer, ctx| layer.init(ctx));
        c
    }

    /// Register a Converse handler; returns its id. Handlers must be
    /// `Send + Sync` because parallel runs execute them from worker
    /// threads (shared immutably, one PE at a time).
    pub fn register_handler(
        &mut self,
        f: impl Fn(&mut PeCtx, Envelope) + Send + Sync + 'static,
    ) -> HandlerId {
        self.handlers.push(Arc::new(f));
        HandlerId(self.handlers.len() as u16 - 1)
    }

    /// Install per-PE user state. Inherently eager — it materializes
    /// every PE. Whole-machine apps do exactly that anyway; sparse
    /// jobs at huge PE counts should install state from handlers instead.
    pub fn init_user<T: Send + 'static>(&mut self, mut f: impl FnMut(PeId) -> T) {
        for pe in 0..self.cfg.num_pes {
            self.pes.get_mut(pe as usize).user = Box::new(f(pe));
        }
    }

    /// Read back per-PE user state after a run.
    pub fn user<T: 'static>(&self, pe: PeId) -> &T {
        self.pes
            .get(pe as usize)
            .user
            .downcast_ref()
            .expect("user state type mismatch")
    }

    /// Seed the job with an initial message (like a mainchare entry).
    pub fn inject(&mut self, at: Time, dst: PeId, handler: HandlerId, payload: Bytes) {
        let env = Envelope::new(dst, dst, handler, payload);
        self.events.push(at, Event::Deliver(dst, env.encode()));
    }

    /// Direct access to the machine layer (e.g. to read its stats after a
    /// run).
    pub fn layer_mut<T: 'static>(&mut self) -> &mut T {
        self.try_layer_mut().expect("layer type mismatch")
    }

    /// [`Cluster::layer_mut`] for callers that do not know which layer
    /// the cluster was built on: `None` when it is not a `T`.
    pub fn try_layer_mut<T: 'static>(&mut self) -> Option<&mut T> {
        self.layer.as_any().downcast_mut()
    }

    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Enable the per-PE Projections-style segment log (see
    /// `Trace::export_log`); call before `run`.
    pub fn enable_trace_log(&mut self) {
        self.trace.enable_log();
    }

    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// Pages of per-PE driver state currently materialized (memory
    /// diagnostics; see pe_table.rs and DESIGN.md §13). A sparse job on a
    /// huge machine should report far fewer than [`Self::total_pe_pages`].
    pub fn materialized_pe_pages(&self) -> usize {
        self.pes.materialized_pages()
    }

    /// Page count a fully dense machine would materialize — the
    /// denominator for [`Self::materialized_pe_pages`].
    pub fn total_pe_pages(&self) -> usize {
        (self.cfg.num_pes as usize).div_ceil(pe_table::PE_PAGE_LEN)
    }

    /// Largest number of events ever pending at once in the sequential
    /// engine's central queue — the depth its cost per pop must not depend
    /// on (sim-core's queue.rs). A parallel run drains this queue into
    /// per-partition ones it does not see, so there it reports little more
    /// than the initial injects.
    pub fn peak_queue_len(&self) -> usize {
        self.events.peak_len()
    }

    /// Run until the event queue drains, a handler calls [`PeCtx::stop`],
    /// or `max_events` is hit. With `cfg.threads > 1` this dispatches to
    /// `Cluster::run_parallel`; results are bit-identical either way.
    pub fn run(&mut self) -> RunReport {
        if self.ft.is_some() {
            self.ft_bootstrap();
        } else {
            assert!(
                !self
                    .cfg
                    .fault
                    .node_crash
                    .iter()
                    .any(|w| w.restart_after_ns.is_some()),
                "a restart window without fault tolerance rejoins an empty node: \
                 call enable_ft() or drop restart_after_ns"
            );
        }
        if self.cfg.threads > 1 {
            self.run_parallel(self.cfg.threads)
        } else {
            self.run_seq()
        }
    }

    /// The sequential engine (`threads = 1` degenerate case).
    pub(crate) fn run_seq(&mut self) -> RunReport {
        while !self.stopped {
            if self.stats.events >= self.cfg.max_events {
                panic!(
                    "simulation exceeded max_events={} at t={}",
                    self.cfg.max_events, self.now
                );
            }
            let Some((t, ev)) = self.events.pop() else {
                break;
            };
            // Load what the next event will touch while this one runs: at
            // whole-machine scale each of them was written hundreds of
            // thousands of events ago (DESIGN.md §9).
            if let Some(next) = self.events.peek_next() {
                prefetch_event(&self.pes, next);
            }
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            self.dispatch(t, ev);
            // Handlers queue FT work (checkpoints, failure declarations)
            // instead of mutating global state mid-event; enact it here so
            // every snapshot/restore sees a consistent cluster.
            if self.ft.is_some() {
                self.ft_pump(t);
            }
        }
        RunReport {
            end_time: self.now,
            stats: self.stats.clone(),
            stopped_early: self.stopped,
        }
    }

    /// Is `pe`'s node currently inside a crash window? (Cheap gate first:
    /// crash-free runs never index the liveness table.)
    fn pe_node_down(&self, pe: PeId) -> bool {
        self.crash_gate && self.node_down[(pe / self.cfg.cores_per_node) as usize]
    }

    /// The sequential caller of the kernel: every effect applies at once —
    /// follow-up events go straight onto the one queue, trace segments
    /// straight into the trace, counts straight into `self.stats`.
    fn dispatch(&mut self, t: Time, ev: Event) {
        let env = ExecEnv {
            cfg: &self.cfg,
            handlers: &self.handlers,
            charm_reg: &self.charm,
            am_reg: &self.am,
            system_handlers: &self.system_handlers,
        };
        match ev {
            Event::Deliver(pe, bytes) => {
                let gate = Gate {
                    dead: self.pe_node_down(pe),
                    epoch: self.ft.as_ref().map_or(0, |f| f.epoch),
                };
                let st = self.pes.get_mut(pe as usize);
                if let Delivered::Queued { wake_at: Some(at) } =
                    kernel::deliver(&env, st, t, pe, bytes, gate, &mut self.stats)
                {
                    self.events.push(at, Event::PeRun(pe));
                }
            }
            Event::NodeLife(node, up) => {
                self.stats.count(ev.kind_index());
                self.node_life(t, node, up)
            }
            Event::FtRecover(node) => {
                self.stats.count(ev.kind_index());
                self.ft_recover(t, node)
            }
            Event::PeRun(pe)
            | Event::Machine(pe, _)
            | Event::MachineNow(pe, _)
            | Event::ParkedWake(pe)
            | Event::Cmd(pe, _)
                if self.pe_node_down(pe) =>
            {
                // The node's cores and NIC are dead: its scheduler, its
                // progress engine, and any command one of its PEs issued
                // before crashing die with it. (Commands from live PEs to
                // dead destinations still reach the layer — the fabric
                // surfaces NodeDown and the retry machinery reacts.)
                self.stats.count(ev.kind_index());
                self.stats.ft_dead_drops += 1;
            }
            Event::PeRun(pe) => {
                let st = self.pes.get_mut(pe as usize);
                match kernel::pe_run(
                    &env,
                    &mut self.ft,
                    st,
                    t,
                    pe,
                    &mut self.outbox,
                    &mut self.stats,
                ) {
                    PeRun::Busy { until } => self.events.push(until, Event::PeRun(pe)),
                    PeRun::Idle => {}
                    PeRun::Ran {
                        charged_app,
                        charged_ovh,
                        stop,
                        next_run,
                    } => {
                        self.trace.record(pe, t, charged_app, Kind::Busy);
                        self.trace
                            .record(pe, t + charged_app, charged_ovh, Kind::Overhead);
                        for (at, ev) in self.outbox.drain(..) {
                            self.events.push(at, ev);
                        }
                        if let Some(at) = next_run {
                            self.events.push(at, Event::PeRun(pe));
                        }
                        self.stopped |= stop;
                    }
                }
            }
            ev => self.with_layer(t, |layer, ctx| kernel::layer_event(layer, ctx, ev)),
        }
    }

    /// Enact a crash-window edge: take the node's volatile state down, or
    /// record its fresh (empty) incarnation.
    fn node_life(&mut self, t: Time, node: NodeId, up: bool) {
        if !up {
            self.node_down[node as usize] = true;
            // The machine layer loses the node's NIC state too (armed
            // polls, backlogs): without this the layer would keep
            // coalescing onto progress events that were dropped with the
            // node, wedging its connections after a restart.
            self.with_layer(t, |layer, ctx| layer.node_fault(ctx, node));
            let lo = node * self.cfg.cores_per_node;
            let hi = (lo + self.cfg.cores_per_node).min(self.cfg.num_pes);
            for pe in lo..hi {
                self.pes.get_mut(pe as usize).lose_volatile();
            }
            return;
        }
        match &mut self.ft {
            Some(ft) => {
                // Stay gated (node_down remains true) until recovery
                // restores the PEs from their buddy checkpoints: the empty
                // incarnation must not consume application messages.
                ft.restarted.insert(node);
            }
            None => {
                // Without FT a restart would rejoin an empty node; run()
                // rejects such plans up front, so this is unreachable in
                // practice but harmless: the node simply reports back up.
                self.node_down[node as usize] = false;
            }
        }
    }

    pub(crate) fn with_layer(
        &mut self,
        t: Time,
        f: impl FnOnce(&mut dyn MachineLayer, &mut MachineCtx),
    ) {
        let back = McBack::Seq {
            pes: &mut self.pes,
            events: &mut self.events,
        };
        let mut ctx = MachineCtx::new(t, &self.cfg, back, &mut self.trace, &mut self.stats);
        f(self.layer.as_mut(), &mut ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ideal::IdealLayer;
    use crate::msg::{wire, DEFAULT_PRIO};

    fn cluster(pes: u32) -> Cluster {
        Cluster::new(ClusterCfg::new(pes, 4), Box::new(IdealLayer::new(1000)))
    }

    #[test]
    fn ping_pong_round_trip_times() {
        let mut c = cluster(2);
        // Bounce between PE 0 and PE 1, decrementing; stop at 0.
        let h = c.register_handler(|ctx, env| {
            let n = wire::unpack_u64(&env.payload, 0);
            if n == 0 {
                ctx.stop();
            } else {
                ctx.send(1 - ctx.pe(), env.handler, wire::pack_u64s(&[n - 1]));
            }
        });
        c.inject(0, 0, h, wire::pack_u64s(&[4]));
        let r = c.run();
        assert!(r.stopped_early);
        // 4 network traversals at 1000ns each plus overheads.
        assert!(r.end_time >= 4_000, "end {}", r.end_time);
        assert_eq!(r.stats.msgs_delivered, 5); // inject + 4 hops
        assert_eq!(r.stats.handlers_run, 5);
    }

    #[test]
    fn peak_queue_len_sees_a_same_instant_burst() {
        let mut c = cluster(8);
        let h = c.register_handler(|_, _| {});
        for pe in 0..8 {
            c.inject(0, pe, h, Bytes::new());
        }
        assert!(c.peak_queue_len() >= 8);
        c.run();
        assert!(c.peak_queue_len() >= 8);
    }

    #[test]
    fn self_send_skips_machine_layer() {
        let mut c = cluster(1);
        let h = c.register_handler(|ctx, env| {
            let n = wire::unpack_u64(&env.payload, 0);
            if n > 0 {
                ctx.send(ctx.pe(), env.handler, wire::pack_u64s(&[n - 1]));
            }
        });
        c.inject(0, 0, h, wire::pack_u64s(&[3]));
        let r = c.run();
        assert_eq!(r.stats.handlers_run, 4);
        // No network latency: should finish in a few hundred ns of overhead.
        assert!(r.end_time < 3_000, "self sends must not touch the network");
    }

    #[test]
    fn charge_advances_virtual_time() {
        let mut c = cluster(1);
        let h = c.register_handler(|ctx, _| {
            assert_eq!(ctx.now(), 0);
            ctx.charge(5_000);
            assert_eq!(ctx.now(), 5_000);
        });
        c.inject(0, 0, h, Bytes::new());
        c.run();
        assert_eq!(c.trace().total_busy(), 5_000);
    }

    #[test]
    fn busy_pe_serializes_handlers() {
        let mut c = cluster(2);
        let h = c.register_handler(|ctx, _| ctx.charge(10_000));
        // Two messages land at the same PE at t=0.
        c.inject(0, 1, h, Bytes::new());
        c.inject(0, 1, h, Bytes::new());
        c.run();
        // Second handler cannot start before the first's 10us finishes.
        assert!(
            c.trace().end_time() >= 20_000,
            "end {}",
            c.trace().end_time()
        );
        assert_eq!(c.trace().total_busy(), 20_000);
    }

    #[test]
    fn user_state_round_trips() {
        let mut c = cluster(3);
        c.init_user(|pe| pe as u64 * 100);
        let h = c.register_handler(|ctx, _| {
            *ctx.user::<u64>() += 1;
        });
        for pe in 0..3 {
            c.inject(0, pe, h, Bytes::new());
        }
        c.run();
        assert_eq!(*c.user::<u64>(0), 1);
        assert_eq!(*c.user::<u64>(2), 201);
    }

    #[test]
    fn send_after_delays_delivery() {
        let mut c = cluster(1);
        let h2 = c.register_handler(|ctx, _| ctx.stop());
        let h1 = c.register_handler(move |ctx, _| {
            ctx.send_after_prio(50_000, ctx.pe(), h2, Bytes::new(), DEFAULT_PRIO);
        });
        c.inject(0, 0, h1, Bytes::new());
        let r = c.run();
        assert!(r.end_time >= 50_000);
    }

    #[test]
    fn deterministic_across_runs() {
        let run_once = || {
            let mut c = cluster(4);
            let h = c.register_handler(|ctx, env| {
                let n = wire::unpack_u64(&env.payload, 0);
                if n > 0 {
                    let dst = ctx.rng().below(4) as u32;
                    ctx.send(dst, env.handler, wire::pack_u64s(&[n - 1]));
                }
            });
            c.inject(0, 0, h, wire::pack_u64s(&[64]));
            c.run().end_time
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    #[should_panic(expected = "unregistered handler")]
    fn unknown_handler_panics() {
        let mut c = cluster(1);
        c.inject(0, 0, HandlerId(40), Bytes::new());
        c.run();
    }

    #[test]
    fn priorities_order_the_scheduler_queue() {
        let mut c = cluster(1);
        c.init_user(|_| Vec::<u16>::new());
        let record = c.register_handler(|ctx, env| {
            let p = env.priority;
            ctx.user::<Vec<u16>>().push(p);
        });
        let kick = c.register_handler(move |ctx, _| {
            // Self-sends with a spread of priorities, issued in one burst:
            // a busy charge ensures they all queue before any runs.
            ctx.charge(50_000);
            ctx.send_prio(0, record, Bytes::new(), 900);
            ctx.send_prio(0, record, Bytes::new(), 5);
            ctx.send_prio(0, record, Bytes::new(), 100);
            ctx.send_prio(0, record, Bytes::new(), 5); // FIFO within 5
        });
        c.inject(0, 0, kick, Bytes::new());
        c.run();
        assert_eq!(c.user::<Vec<u16>>(0), &vec![5, 5, 100, 900]);
    }

    #[test]
    fn a_priority_zero_timer_overtakes_a_deep_default_backlog() {
        // What the FT heartbeat chains rely on (`PeCtx::send_after_prio`):
        // a timer that fires into a saturated PE runs next, not after the
        // backlog.
        const BACKLOG: usize = 10_000;
        let mut c = cluster(1);
        c.init_user(|_| Vec::<u16>::new());
        let record = c.register_handler(|ctx, env| {
            ctx.charge(1_000);
            let p = env.priority;
            ctx.user::<Vec<u16>>().push(p);
        });
        let kick = c.register_handler(move |ctx, _| {
            // Fires 2 ms in: the burst below takes 1 ms to issue and more
            // than 10 ms to drain, so the timer lands mid-backlog.
            ctx.send_after_prio(2_000_000, 0, record, Bytes::new(), 0);
            for _ in 0..BACKLOG {
                ctx.send(0, record, Bytes::new());
            }
        });
        c.inject(0, 0, kick, Bytes::new());
        c.run();
        let ran = c.user::<Vec<u16>>(0);
        assert_eq!(ran.len(), BACKLOG + 1);
        let at = ran.iter().position(|&p| p == 0).expect("the timer ran");
        assert!(
            (1..BACKLOG / 5).contains(&at),
            "timer ran as message {at} of {BACKLOG}"
        );
    }

    /// Random fan-out traffic over 4 nodes, run at a given thread count.
    /// Returns everything the parallel engine must reproduce bit for bit.
    fn fanout_run(threads: u32, stop_at: Option<u64>) -> (RunReport, Time, Time, u64, String) {
        let mut cfg = ClusterCfg::new(16, 4);
        cfg.threads = threads;
        let mut c = Cluster::new(cfg, Box::new(IdealLayer::new(1000)));
        c.enable_trace_log();
        let h = c.register_handler(move |ctx, env| {
            let n = wire::unpack_u64(&env.payload, 0);
            ctx.charge(300 + (n % 7) * 40);
            if stop_at == Some(n) {
                ctx.stop();
                return;
            }
            if n > 0 {
                let dst = ctx.rng().below(16) as u32;
                ctx.send(dst, env.handler, wire::pack_u64s(&[n - 1]));
                if n.is_multiple_of(3) {
                    let dst2 = ctx.rng().below(16) as u32;
                    ctx.send(dst2, env.handler, wire::pack_u64s(&[n / 2]));
                }
                if n % 4 == 1 {
                    // Prioritised and deferred sends, mostly cross-PE: the
                    // first jumps (or trails) the destination's backlog,
                    // the second is a command with a future timestamp.
                    let dst3 = ctx.rng().below(16) as u32;
                    let prio = (n % 5) as u16 * 10_000;
                    ctx.send_prio(dst3, env.handler, wire::pack_u64s(&[n / 3]), prio);
                    ctx.send_after_prio(
                        700 * n,
                        15 - dst3,
                        env.handler,
                        wire::pack_u64s(&[n / 4]),
                        DEFAULT_PRIO,
                    );
                }
            }
        });
        for pe in 0..16 {
            c.inject(0, pe, h, wire::pack_u64s(&[24 + pe as u64]));
        }
        let r = c.run();
        let msgs = r.stats.msgs_delivered;
        (
            r,
            c.trace().total_busy(),
            c.trace().total_overhead(),
            msgs,
            c.trace().export_log(),
        )
    }

    #[test]
    fn parallel_matches_sequential() {
        let seq = fanout_run(1, None);
        for threads in [2, 4, 8] {
            let par = fanout_run(threads, None);
            assert_eq!(seq.0.end_time, par.0.end_time, "threads={threads}");
            assert_eq!(seq.0.stats, par.0.stats, "threads={threads}");
            assert_eq!(seq.1, par.1, "busy, threads={threads}");
            assert_eq!(seq.2, par.2, "overhead, threads={threads}");
            assert_eq!(seq.3, par.3, "msgs, threads={threads}");
            assert_eq!(seq.4, par.4, "trace log, threads={threads}");
        }
    }

    #[test]
    fn parallel_matches_sequential_with_stop() {
        let seq = fanout_run(1, Some(5));
        assert!(seq.0.stopped_early);
        for threads in [2, 4] {
            let par = fanout_run(threads, Some(5));
            assert_eq!(seq.0.end_time, par.0.end_time, "threads={threads}");
            assert_eq!(seq.0.stats, par.0.stats, "threads={threads}");
            assert_eq!(seq.4, par.4, "trace log, threads={threads}");
        }
    }

    #[test]
    fn trace_records_overhead() {
        let mut c = cluster(2);
        let h = c.register_handler(|ctx, env| {
            if ctx.pe() == 0 {
                ctx.send(1, env.handler, Bytes::new());
            }
        });
        c.inject(0, 0, h, Bytes::new());
        c.run();
        assert!(c.trace().total_overhead() > 0);
        assert_eq!(c.stats().msgs_sent, 1);
    }
}
