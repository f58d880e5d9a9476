//! The uGNI machine layer (paper §III-C and §IV).
//!
//! Protocols implemented here, mapped to the paper:
//!
//! * **Small messages** (≤ SMSG limit): `GNI_SmsgSendWTag` with per-
//!   connection credits; the receiver drains its mailbox from the progress
//!   engine and hands copies to Converse (§III-C).
//! * **Large messages**: the GET-based rendezvous of Fig. 5 — the sender
//!   registers its buffer and ships a small `INIT_TAG` control message with
//!   the memory handle; the receiver allocates + registers a landing
//!   buffer, posts an FMA or BTE **GET** (by size), and on completion sends
//!   `ACK_TAG` back so the sender can free. Cost without the pool is
//!   exactly the paper's Equation 1.
//! * **Memory pool** (§IV-B): message buffers come from a pre-registered
//!   pool, removing `T_malloc + T_register` from both sides.
//! * **Persistent messages** (§IV-A, Fig. 7a): a pre-registered receive
//!   buffer lets the sender **PUT** directly and follow with one
//!   `PERSISTENT_TAG` notification — `T_cost = T_rdma + T_smsg`.
//! * **Intra-node pxshm** (§IV-C): double- or single-copy shared-memory
//!   delivery that bypasses the NIC entirely.

use crate::config::{IntraNode, SmallPath, UgniConfig};
use bytes::{BufMut, Bytes, BytesMut};
use charm_rt::cluster::{Charge, MachineCtx};
use charm_rt::lrts::{MachineLayer, PersistentHandle};
use charm_rt::msg::PeId;
use gemini_net::{Addr, FaultPlan, Mechanism, MemHandle, NodeId, RdmaOp};
use mempool::{Block, MemPool};
use sim_core::{DetHashMap, DetHashSet, LazyVec, Time};
use std::any::Any;
use std::collections::VecDeque;
use ugni::{
    next_backoff, CqEvent, CqHandle, EpHandle, Gni, GniError, GniResult, PostDescriptor, PostOk,
    RdvFrame, XidFrame,
};

// With the `verify` feature every uGNI call goes through the CheckedGni
// contract verifier; signatures are identical, so only the stored type
// changes. CheckedGni derefs to Gni for the read-only surface.
#[cfg(not(feature = "verify"))]
use ugni::Gni as LGni;
#[cfg(feature = "verify")]
use ugni_verify::CheckedGni as LGni;

const TAG_SMALL: u8 = 0;
const TAG_INIT: u8 = 1;
const TAG_ACK: u8 = 2;
const TAG_PERSIST: u8 = 3;

/// Fixed pxshm handshake overhead per message per side (lock/fence +
/// notify), ns.
const SHM_OVERHEAD: Time = 250;
/// Latency until the receiver's progress engine notices a shared-memory
/// message, ns.
const SHM_NOTICE: Time = 400;
/// Worker -> comm-thread handoff cost per message in SMP mode, ns.
const SMP_HANDOFF: Time = 120;

/// When to try a failed transfer toward `peer_node` again: `from` plus
/// the next backoff, which is stored in `backoff`. `None` when the node
/// is down for good by then: retrying forever would wedge the transfer,
/// so the caller abandons it (with FT on, rollback-replay re-drives the
/// message for whichever PE adopts the peer's work).
fn retry_at(fault: &FaultPlan, peer_node: NodeId, backoff: &mut Time, from: Time) -> Option<Time> {
    *backoff = next_backoff(*backoff);
    let at = from + *backoff;
    (!fault.node_dead_forever(peer_node, at)).then_some(at)
}

/// Bytes of the per-message sequence header prepended on the small path
/// when a fault plan is active (receiver-side duplicate suppression).
const SEQ_HDR: usize = 8;

/// Machine-layer event payloads (driven through `MachineCtx::schedule`).
enum Ev {
    /// Drain this PE's SMSG mailbox.
    PollSmsg,
    /// Drain this node's shared MSGQ (the event's PE does the software
    /// demultiplexing for its node).
    PollMsgq,
    /// Drain this PE's transaction CQ.
    PollCq,
    /// Credits may have freed on the connection to `peer`: retry queued
    /// sends.
    Retry { peer: PeId },
    /// Sender-side buffer prepared; ship the rendezvous INIT control
    /// message (fires after T_malloc+T_register / pool alloc).
    StartRendezvous { xid: u64 },
    /// Receiver-side landing buffer ready; post the GET.
    PostGet { xid: u64 },
    /// A persistent PUT completed locally (fault-free runs); notify the
    /// receiver.
    PersistPutDone { xid: u64 },
    /// A persistent PUT failed in the fabric; post it again (chaos mode).
    RepostPut { xid: u64 },
    /// A pxshm message becomes visible to the receiver.
    ShmArrive { data: Bytes, copy_out: bool },
}

/// A buffer obtained either from the pool or via malloc+register.
enum Buf {
    Pooled(Block),
    Direct { addr: Addr, handle: MemHandle },
}

impl Buf {
    fn addr(&self) -> Addr {
        match self {
            Buf::Pooled(b) => b.addr,
            Buf::Direct { addr, .. } => *addr,
        }
    }

    fn handle(&self) -> MemHandle {
        match self {
            Buf::Pooled(b) => b.handle,
            Buf::Direct { handle, .. } => *handle,
        }
    }
}

struct PendingSend {
    src_pe: PeId,
    dst_pe: PeId,
    buf: Buf,
    bytes: u64,
}

struct PendingRecv {
    dst_pe: PeId,
    src_pe: PeId,
    buf: Buf,
    bytes: u64,
    remote_handle: MemHandle,
    remote_addr: Addr,
    /// Current retry backoff; nonzero once the GET has faulted.
    backoff: Time,
}

/// A persistent PUT, from its post until the receiver takes the payload.
struct InflightPut {
    handle: PersistentHandle,
    src_pe: PeId,
    dst_pe: PeId,
    data: Bytes,
    /// The completion is still to be reaped from the CQ, where a
    /// `PostError` re-posts the PUT (chaos mode). False once the receiver
    /// is notified, and from the start in fault-free runs, where the
    /// direct `PersistPutDone` event notifies.
    on_cq: bool,
    /// Current retry backoff; nonzero once the PUT has faulted.
    backoff: Time,
}

/// Small/control messages parked behind exhausted credits or a faulted
/// transaction on one connection, FIFO, with a single armed retry timer.
#[derive(Default)]
struct Backlog {
    q: VecDeque<(u8, Bytes)>,
    armed: bool,
    /// Current transaction-error backoff (0 = healthy connection).
    backoff: Time,
}

/// The sequence numbers one connection has delivered (chaos mode): all of
/// `0..next`, plus any that arrived ahead of a gap. A connection numbers
/// its messages in order and a failed send is retried before anything
/// queued behind it, so arrivals are in order with duplicates and `ahead`
/// stays empty: what is kept no longer grows with the messages carried.
/// Only a number that is never delivered (its message died in a crashed
/// node's backlog) leaves a gap, behind which `ahead` grows as the set of
/// everything delivered used to.
#[derive(Default)]
struct SeqSeen {
    next: u64,
    ahead: DetHashSet<u64>,
}

impl SeqSeen {
    /// Record `seq` as delivered; `false` when it already was (a duplicate
    /// to drop). Any arrival order gives the answers a set of every number
    /// ever delivered would.
    fn insert(&mut self, seq: u64) -> bool {
        if seq < self.next || !self.ahead.insert(seq) {
            return false;
        }
        while self.ahead.remove(&self.next) {
            self.next += 1;
        }
        true
    }
}

/// One `(src_pe, dst_pe)` connection.
#[derive(Default)]
struct Conn {
    /// Bound on the connection's first send.
    ep: Option<EpHandle>,
    /// Send backlog (credit exhaustion + fabric faults).
    backlog: Backlog,
    /// Next small-path sequence number (chaos mode).
    seq_tx: u64,
    /// Sequence numbers already delivered (chaos mode; receiver side).
    seq_seen: SeqSeen,
}

/// What the layer keeps per PE, created on the PE's first traffic (a
/// whole-machine job at Hopper scale must not create 150k+ CQs and pools
/// up front when a run touches a fraction of them; handles are opaque, so
/// first-touch creation order is unobservable).
struct PeRecord {
    /// The PE's transaction CQ.
    cq: Option<CqHandle>,
    /// The PE's message pool (per process, as in non-SMP Charm++), boxed:
    /// most PEs of a sparse job never allocate one.
    pool: Option<Box<MemPool>>,
    /// Earliest armed PollSmsg / PollMsgq / PollCq (coalescing: one
    /// in-flight poll of each kind; `Time::MAX` = none armed).
    armed: [Time; 3],
}

impl PeRecord {
    const IDLE: PeRecord = PeRecord {
        cq: None,
        pool: None,
        armed: [Time::MAX; 3],
    };

    /// The PE's transaction CQ, created on first touch.
    fn cq(&mut self, gni: &mut LGni) -> CqHandle {
        *self.cq.get_or_insert_with(|| gni.cq_create())
    }

    /// The PE's pool, created on first allocation from `pe`'s fixed address
    /// window.
    fn pool(&mut self, pe: PeId) -> &mut MemPool {
        self.pool
            .get_or_insert_with(|| Box::new(MemPool::new(UgniLayer::pool_base(pe))))
    }
}

/// The layer's uGNI instance, created by `init()`.
fn live(gni: &mut Option<LGni>) -> &mut LGni {
    // panic-ok: init() runs before any traffic; absence is a harness bug
    gni.as_mut().expect("layer not initialized")
}

struct PersistChan {
    src_pe: PeId,
    dst_pe: PeId,
    max_bytes: u64,
    /// Pre-registered receive buffer on the destination (paper Fig. 7a).
    remote: Buf,
    /// Pre-registered send buffer on the source.
    local: Buf,
}

impl PersistChan {
    /// The PUT of `data` from the send buffer into the receive buffer.
    fn put(&self, xid: u64, data: Bytes) -> PostDescriptor {
        PostDescriptor {
            op: RdmaOp::Put,
            local_mem: self.local.handle(),
            local_addr: self.local.addr(),
            remote_mem: self.remote.handle(),
            remote_addr: self.remote.addr(),
            bytes: data.len() as u64,
            data: Some(data),
            user_id: xid,
        }
    }
}

#[derive(Debug, Default, Clone)]
pub struct UgniStats {
    pub small_msgs: u64,
    pub rendezvous_msgs: u64,
    pub persistent_msgs: u64,
    pub shm_msgs: u64,
    pub credit_retries: u64,
    /// Small-path sends that failed in the fabric and were re-sent.
    pub send_faults: u64,
    /// FMA/BTE transactions that failed and were re-posted.
    pub rdma_faults: u64,
    /// CQ overruns recovered via resync.
    pub(crate) cq_resyncs: u64,
    /// Direct-path registrations that hit NIC resource exhaustion and fell
    /// back to the pre-registered pool.
    pub(crate) reg_fallbacks: u64,
    /// Duplicate small-path messages suppressed by the receiver (resends
    /// after a corrupted-completion delivery).
    pub dup_drops: u64,
    /// Total CPU time charged as fault recovery.
    pub(crate) recovery_ns: Time,
}

/// Materialization grain for per-PE records (40 B per PE here; a sparse
/// job touching scattered PEs should not pay 40 KiB pages).
const PE_PAGE: usize = 64;

/// The machine layer object.
pub struct UgniLayer {
    cfg: UgniConfig,
    gni: Option<LGni>,
    /// Per-PE records, paged lazily at a small grain ([`PE_PAGE`]): an
    /// untouched PE is disarmed with no CQ and no pool, so idle PEs cost
    /// nothing and sparse jobs materialize little around each PE.
    pes: LazyVec<PeRecord, PE_PAGE>,
    /// Connections, keyed `(src_pe, dst_pe)`, created on first use.
    conns: DetHashMap<(PeId, PeId), Conn>,
    sends: DetHashMap<u64, PendingSend>,
    recvs: DetHashMap<u64, PendingRecv>,
    persists: DetHashMap<PersistentHandle, PersistChan>,
    puts: DetHashMap<u64, InflightPut>,
    /// True when the configured fault plan can inject anything. All
    /// recovery bookkeeping that would perturb timing (sequence headers,
    /// CQ-reaped PUT completions) is gated on this so fault-free runs stay
    /// bit-identical to the pre-chaos code.
    chaos: bool,
    /// SMP mode: per-node comm-thread availability.
    comm_busy: Vec<Time>,
    next_xid: u64,
    pub stats: UgniStats,
}

impl UgniLayer {
    pub fn new(cfg: UgniConfig) -> Self {
        let chaos = cfg.params.fault.is_active();
        UgniLayer {
            cfg,
            gni: None,
            pes: LazyVec::with(0, |_| PeRecord::IDLE),
            conns: DetHashMap::default(),
            sends: DetHashMap::default(),
            recvs: DetHashMap::default(),
            persists: DetHashMap::default(),
            puts: DetHashMap::default(),
            chaos,
            comm_busy: Vec::new(),
            next_xid: 0,
            stats: UgniStats::default(),
        }
    }

    /// Charge protocol work for `pe`'s traffic; returns when it is done.
    /// In non-SMP mode it is worker-PE time (the progress engine runs
    /// inside the process), traced by the charge's category; in SMP mode
    /// the per-node comm thread absorbs it. Recovery time is also summed
    /// into `recovery_ns`.
    fn charge(&mut self, ctx: &mut MachineCtx, pe: PeId, charge: Charge) -> Time {
        if let Charge::Recovery(ns) = charge {
            self.stats.recovery_ns += ns;
        }
        if self.cfg.smp {
            let (Charge::Overhead(ns) | Charge::Recovery(ns)) = charge;
            let node = ctx.node_of(pe) as usize;
            let start = self.comm_busy[node].max(ctx.now());
            self.comm_busy[node] = start + ns;
            return start + ns;
        }
        ctx.charge(pe, charge)
    }

    /// Schedule a progress poll for `pe`'s traffic, coalescing with any
    /// already-armed poll of the same kind (the drain loops process every
    /// ready message, so one in-flight poll per PE suffices — without
    /// this, deferred duplicate polls pile up quadratically on busy PEs).
    /// In SMP mode the comm thread polls regardless of worker business.
    fn schedule_poll(&mut self, ctx: &mut MachineCtx, at: Time, pe: PeId, ev: Ev) {
        let at = at.max(ctx.now());
        let kind = match ev {
            Ev::PollSmsg => 0,
            Ev::PollMsgq => 1,
            Ev::PollCq => 2,
            // panic-ok: callers pass poll events only — a misuse is a code bug
            _ => unreachable!("schedule_poll on a non-poll event"),
        };
        if at >= self.pes.get(pe as usize).armed[kind] {
            return; // the armed poll will see this message too
        }
        self.pes.get_mut(pe as usize).armed[kind] = at;
        if self.cfg.smp {
            ctx.schedule_nodefer(at, pe, Box::new(ev));
        } else {
            ctx.schedule(at, pe, Box::new(ev));
        }
    }

    /// Mark a poll kind as disarmed (called on drain entry). Skips the
    /// write when already disarmed so cold pages stay unmaterialized.
    fn disarm(&mut self, pe: PeId, kind: usize) {
        if self.pes.get(pe as usize).armed[kind] != Time::MAX {
            self.pes.get_mut(pe as usize).armed[kind] = Time::MAX;
        }
    }

    /// Base of `pe`'s fixed mempool address window. Purely a function of
    /// the PE id, so a lazily created pool is identical to an eager one.
    /// Windows are 2^40 bytes starting at 2^62: large enough for any
    /// pool's simulated slabs, clear of the per-node bump windows at
    /// `(node + 1) << 44`, and — unlike a wider spacing — overflow-free
    /// up to 4M PEs (`2^62 + 2^22 * 2^40 < 2^63`).
    fn pool_base(pe: PeId) -> u64 {
        (1u64 << 62) + ((pe as u64) << 40)
    }

    pub fn gni(&self) -> &Gni {
        self.gni.as_ref().expect("layer not initialized")
    }

    /// Contract-verifier findings for this layer's uGNI instance.
    /// `Some` only when built with the `verify` feature.
    #[cfg(feature = "verify")]
    pub fn contract_report(&self) -> Option<ugni_verify::ContractReport> {
        self.gni.as_ref().map(|g| g.report())
    }

    #[cfg(not(feature = "verify"))]
    pub fn contract_report(&self) -> Option<ugni_verify::ContractReport> {
        None
    }

    fn gni_mut(&mut self) -> &mut LGni {
        live(&mut self.gni)
    }

    /// Post an RDMA transfer on the mechanism the fabric model prefers for
    /// its size: FMA up to the paper's crossover, BTE above it.
    fn post_transfer(
        &mut self,
        now: Time,
        ep: EpHandle,
        desc: PostDescriptor,
    ) -> GniResult<PostOk> {
        match self.cfg.params.preferred_mechanism(desc.bytes) {
            Mechanism::Fma => self.gni_mut().post_fma(now, ep, desc),
            Mechanism::Bte => self.gni_mut().post_rdma(now, ep, desc),
        }
    }

    /// The connection `src_pe -> dst_pe` and its endpoint, bound on
    /// first use.
    fn conn(&mut self, ctx: &MachineCtx, src_pe: PeId, dst_pe: PeId) -> (EpHandle, &mut Conn) {
        let conn = self.conns.entry((src_pe, dst_pe)).or_default();
        if let Some(ep) = conn.ep {
            return (ep, conn);
        }
        let gni = live(&mut self.gni);
        let cq = self.pes.get_mut(src_pe as usize).cq(gni);
        let (sn, dn) = (ctx.node_of(src_pe), ctx.node_of(dst_pe));
        let ep = gni
            .ep_create_inst(sn, src_pe, dn, dst_pe, cq)
            // panic-ok: CQ handles and node ids are fixed at init
            .expect("ep bind: CQ and nodes fixed at init");
        conn.ep = Some(ep);
        (ep, conn)
    }

    /// Allocate a message buffer on `pe`'s node: pool or malloc+register.
    /// Returns the buffer and the CPU cost.
    fn alloc_buf(&mut self, ctx: &MachineCtx, pe: PeId, bytes: u64) -> (Buf, Time) {
        let node = ctx.node_of(pe);
        let params = &self.cfg.params;
        let gni = live(&mut self.gni);
        if self.cfg.use_mempool {
            let reg = gni.fabric_mut().reg_table(node);
            let (block, cost) = self
                .pes
                .get_mut(pe as usize)
                .pool(pe)
                .alloc(params, reg, bytes);
            (Buf::Pooled(block), cost)
        } else {
            let addr = gni.alloc_addr(node).expect("node within job");
            let malloc = params.malloc_cost(bytes);
            match gni.mem_register(node, addr, bytes) {
                Ok((handle, reg_cost)) => (Buf::Direct { addr, handle }, malloc + reg_cost),
                Err(_) => {
                    // Transient NIC memory-descriptor exhaustion
                    // (GNI_RC_ERROR_RESOURCE): fall back to the
                    // pre-registered pool so the transfer still proceeds.
                    self.stats.reg_fallbacks += 1;
                    let reg = gni.fabric_mut().reg_table(node);
                    let pool = self.pes.get_mut(pe as usize).pool(pe);
                    let (block, cost) = pool.alloc(params, reg, bytes);
                    (Buf::Pooled(block), malloc + cost)
                }
            }
        }
    }

    /// Free a message buffer; returns the CPU cost (deregister+free for the
    /// direct path, a pool push for the pooled path).
    fn free_buf(&mut self, ctx: &MachineCtx, pe: PeId, buf: Buf) -> Time {
        let node = ctx.node_of(pe);
        let params = &self.cfg.params;
        let gni = live(&mut self.gni);
        match buf {
            Buf::Pooled(block) => {
                gni.mem_clear(node, block.addr);
                let reg = gni.fabric_mut().reg_table(node);
                self.pes
                    .get_mut(pe as usize)
                    .pool(pe)
                    .free(params, reg, block)
            }
            Buf::Direct { addr, handle } => {
                gni.mem_clear(node, addr);
                // A stale handle is a bookkeeping bug, not a fabric fault:
                // charge nothing extra and keep going.
                gni.mem_deregister(node, handle).unwrap_or(0) + params.malloc_base
            }
        }
    }

    /// Queue-or-send a tagged SMSG on a connection, preserving FIFO order
    /// behind any credit backlog. `earliest` is when this message's own
    /// preparation is done (a burst of rendezvous preps must not make each
    /// control message wait for the *sum* of all preps).
    fn smsg(
        &mut self,
        ctx: &mut MachineCtx,
        src_pe: PeId,
        dst_pe: PeId,
        tag: u8,
        data: Bytes,
        earliest: Time,
    ) {
        let chaos = self.chaos;
        let (ep, conn) = self.conn(ctx, src_pe, dst_pe);
        // Chaos mode: frame every small-path message with a per-connection
        // sequence number so the receiver can suppress the duplicates that
        // corrupted-completion resends produce (exactly-once delivery).
        let data = if chaos {
            let mut b = BytesMut::with_capacity(SEQ_HDR + data.len());
            b.put_u64(conn.seq_tx);
            conn.seq_tx += 1;
            b.put_slice(&data);
            b.freeze()
        } else {
            data
        };
        if !conn.backlog.q.is_empty() {
            conn.backlog.q.push_back((tag, data));
            return;
        }
        let backoff = std::mem::take(&mut conn.backlog.backoff);
        let now = earliest.max(ctx.now());
        self.try_smsg(
            ctx,
            (src_pe, dst_pe),
            (ep, backoff),
            (tag, data),
            now,
            false,
        );
    }

    /// Attempt one SMSG (or MSGQ message, by configuration) on the
    /// connection `src_pe -> dst_pe`: a fresh send, or a backlog retry
    /// (`front`). The caller took the connection's endpoint and its
    /// transaction-error backoff out of its record; a send that goes out
    /// leaves the backoff at 0. On credit exhaustion or a fabric fault the
    /// message is parked, a retry armed, and the backoff put back (doubled
    /// after a fault). Returns true when the message went out.
    fn try_smsg(
        &mut self,
        ctx: &mut MachineCtx,
        (src_pe, dst_pe): (PeId, PeId),
        (ep, mut backoff): (EpHandle, Time),
        (tag, data): (u8, Bytes),
        now: Time,
        front: bool,
    ) -> bool {
        let use_msgq = self.cfg.small_path == SmallPath::Msgq;
        let res = if use_msgq {
            self.gni_mut().msgq_send_w_tag(now, ep, tag, data.clone())
        } else {
            self.gni_mut().smsg_send_w_tag(now, ep, tag, data.clone())
        };
        let poll = || if use_msgq { Ev::PollMsgq } else { Ev::PollSmsg };
        match res {
            Ok(ok) => {
                self.charge(ctx, src_pe, Charge::Overhead(ok.cpu));
                self.schedule_poll(ctx, ok.deliver_at, dst_pe, poll());
                true
            }
            Err(GniError::NoCredits { retry_at }) => {
                self.stats.credit_retries += 1;
                let at = retry_at.max(now + 1);
                self.park_and_arm(ctx, (src_pe, dst_pe), backoff, (tag, data), at, front);
                false
            }
            Err(GniError::TransactionError {
                cpu,
                error_at,
                delivered_at,
                ..
            }) => {
                // The fabric lost or corrupted the message. The send CPU
                // was burned either way; if the payload landed anyway
                // (corrupted completion) wake the receiver so it drains —
                // the re-send becomes a duplicate its dedup filter drops.
                self.stats.send_faults += 1;
                self.charge(ctx, src_pe, Charge::Recovery(cpu));
                if let Some(t) = delivered_at {
                    self.schedule_poll(ctx, t, dst_pe, poll());
                }
                let fault = &self.cfg.params.fault;
                let peer_node = ctx.node_of(dst_pe);
                if let Some(at) = retry_at(fault, peer_node, &mut backoff, error_at.max(now)) {
                    self.park_and_arm(ctx, (src_pe, dst_pe), backoff, (tag, data), at, front);
                } else {
                    let conn = self.conns.entry((src_pe, dst_pe)).or_default();
                    conn.backlog.backoff = backoff;
                }
                false
            }
            // panic-ok: non-credit smsg errors are protocol bugs, not faults
            Err(e) => panic!("small-path send failed: {e:?}"),
        }
    }

    /// Park a small-path message on its connection backlog (front for
    /// in-order retries, back for fresh sends) with the connection's
    /// `backoff`, and make sure exactly one retry timer is armed for it.
    fn park_and_arm(
        &mut self,
        ctx: &mut MachineCtx,
        (src_pe, peer): (PeId, PeId),
        backoff: Time,
        msg: (u8, Bytes),
        at: Time,
        front: bool,
    ) {
        let b = &mut self.conns.entry((src_pe, peer)).or_default().backlog;
        b.backoff = backoff;
        if front {
            b.q.push_front(msg);
        } else {
            b.q.push_back(msg);
        }
        if !b.armed {
            b.armed = true;
            // Retries interleave with other machine-layer work (the
            // progress engine runs between protocol steps), so they must
            // not defer behind long overhead windows.
            ctx.schedule_nodefer(at, src_pe, Box::new(Ev::Retry { peer }));
        }
    }

    fn conn_retry(&mut self, ctx: &mut MachineCtx, src_pe: PeId, peer: PeId) {
        loop {
            let (ep, conn) = self.conn(ctx, src_pe, peer);
            conn.backlog.armed = false;
            let Some(msg) = conn.backlog.q.pop_front() else {
                return;
            };
            let backoff = std::mem::take(&mut conn.backlog.backoff);
            let now = ctx.pe_free_at(src_pe).max(ctx.now());
            if !self.try_smsg(ctx, (src_pe, peer), (ep, backoff), msg, now, true) {
                return;
            }
        }
    }

    fn rendezvous_start(&mut self, ctx: &mut MachineCtx, xid: u64) {
        let (src_pe, dst_pe, bytes, addr, handle) = {
            let p = self.sends.get(&xid).expect("unknown rendezvous xid");
            (p.src_pe, p.dst_pe, p.bytes, p.buf.addr(), p.buf.handle())
        };
        // INIT_TAG control message: xid, size, memory handle + address of
        // the sender buffer (paper Fig. 5).
        let init = RdvFrame {
            xid,
            bytes,
            handle,
            addr,
        };
        // The SR event fires exactly when this message's buffer prep is
        // done, so the control message departs now.
        let at = ctx.now();
        self.smsg(ctx, src_pe, dst_pe, TAG_INIT, init.encode(TAG_INIT), at);
    }

    fn handle_init(&mut self, ctx: &mut MachineCtx, dst_pe: PeId, src_pe: PeId, ctrl: &Bytes) {
        let RdvFrame {
            xid,
            bytes,
            handle,
            addr,
        } = RdvFrame::decode(ctrl).expect("malformed INIT frame");
        // Allocate the landing buffer (T_malloc + T_register, or the pool).
        let (buf, cost) = self.alloc_buf(ctx, dst_pe, bytes);
        let ready = self.charge(ctx, dst_pe, Charge::Overhead(cost));
        self.recvs.insert(
            xid,
            PendingRecv {
                dst_pe,
                src_pe,
                buf,
                bytes,
                remote_handle: handle,
                remote_addr: addr,
                backoff: 0,
            },
        );
        // Post the GET once the buffer is ready (after the charge).
        ctx.schedule_nodefer(ready, dst_pe, Box::new(Ev::PostGet { xid }));
    }

    fn post_get(&mut self, ctx: &mut MachineCtx, xid: u64) {
        let (dst_pe, src_pe, bytes, local_mem, local_addr, remote_mem, remote_addr, backoff) = {
            let r = self.recvs.get(&xid).expect("unknown recv xid");
            (
                r.dst_pe,
                r.src_pe,
                r.bytes,
                r.buf.handle(),
                r.buf.addr(),
                r.remote_handle,
                r.remote_addr,
                r.backoff,
            )
        };
        let (ep, _) = self.conn(ctx, dst_pe, src_pe);
        let now = ctx.pe_free_at(dst_pe).max(ctx.now());
        let desc = PostDescriptor {
            op: RdmaOp::Get,
            local_mem,
            local_addr,
            remote_mem,
            remote_addr,
            bytes,
            data: None,
            user_id: xid,
        };
        let ok = self
            .post_transfer(now, ep, desc)
            .expect("rendezvous GET rejected");
        // A re-post after a fabric fault is recovery work, not
        // steady-state protocol overhead.
        let kind = if backoff > 0 {
            Charge::Recovery
        } else {
            Charge::Overhead
        };
        self.charge(ctx, dst_pe, kind(ok.cpu));
        self.schedule_poll(ctx, ok.local_cq_at, dst_pe, Ev::PollCq);
    }

    fn drain_cq(&mut self, ctx: &mut MachineCtx, pe: PeId) {
        self.disarm(pe, 2);
        let cq = self.pes.get_mut(pe as usize).cq(live(&mut self.gni));
        loop {
            let now = ctx.now();
            let poll_cost = self.gni().cq_poll_cost();
            match self.gni_mut().cq_get_event(cq, now) {
                Ok(CqEvent::PostDone { user_id, op, data }) => {
                    self.charge(ctx, pe, Charge::Overhead(poll_cost));
                    match op {
                        RdmaOp::Get => self.get_done(ctx, user_id, data),
                        // Only chaos mode reaps persistent PUTs here: the
                        // PUT may have been re-posted.
                        RdmaOp::Put => self.put_done(ctx, pe, user_id, true),
                    }
                }
                Ok(CqEvent::SmsgRx { .. }) => {
                    // SMSG arrivals are drained via PollSmsg.
                }
                Ok(CqEvent::PostError { user_id, op, .. }) => {
                    self.stats.rdma_faults += 1;
                    self.charge(ctx, pe, Charge::Recovery(poll_cost));
                    self.repost_after_error(ctx, pe, user_id, op);
                }
                Err(GniError::NotDone) => {
                    self.charge(ctx, pe, Charge::Overhead(poll_cost));
                    if let Some(t) = self.gni().cq_next_ready(cq) {
                        self.schedule_poll(ctx, t, pe, Ev::PollCq);
                    }
                    return;
                }
                Err(GniError::CqOverrun) => {
                    // The CQ dropped completions. Resync: audit outstanding
                    // transactions, recover the lost events, keep draining.
                    let (cost, _n) = self
                        .gni_mut()
                        .cq_resync(cq, now)
                        .expect("cq resync on a healthy queue");
                    self.stats.cq_resyncs += 1;
                    self.charge(ctx, pe, Charge::Recovery(cost));
                }
                Err(e) => panic!("cq poll failed: {e:?}"),
            }
        }
    }

    /// A fabric-failed FMA/BTE transaction: schedule a re-post with capped
    /// exponential backoff in virtual time, or abandon the transfer when
    /// its peer is down for good.
    fn repost_after_error(&mut self, ctx: &mut MachineCtx, pe: PeId, xid: u64, op: RdmaOp) {
        // A fault for a transfer no longer tracked (already completed or
        // cancelled) is stale; recovery absorbs it rather than aborting.
        // A GET pulls from the sender's memory, a PUT pushes into the
        // receiver's: the peer is the node that must stay up.
        let tracked = match op {
            RdmaOp::Get => self.recvs.get_mut(&xid).map(|r| (r.src_pe, &mut r.backoff)),
            RdmaOp::Put => self
                .puts
                .get_mut(&xid)
                .filter(|p| p.on_cq)
                .map(|p| (p.dst_pe, &mut p.backoff)),
        };
        let Some((peer, backoff)) = tracked else {
            return;
        };
        let fault = &self.cfg.params.fault;
        let Some(at) = retry_at(fault, ctx.node_of(peer), backoff, ctx.now()) else {
            match op {
                RdmaOp::Get => {
                    // Nothing will land: give the landing buffer back.
                    if let Some(r) = self.recvs.remove(&xid) {
                        let cost = self.free_buf(ctx, r.dst_pe, r.buf);
                        self.charge(ctx, r.dst_pe, Charge::Recovery(cost));
                    }
                }
                RdmaOp::Put => {
                    self.puts.remove(&xid);
                }
            }
            return;
        };
        let repost = match op {
            RdmaOp::Get => Ev::PostGet { xid },
            RdmaOp::Put => Ev::RepostPut { xid },
        };
        ctx.schedule_nodefer(at, pe, Box::new(repost));
    }

    /// A persistent PUT completed: from the direct event (fault-free runs,
    /// `reaped` false) or reaped from the CQ (chaos mode). Notify the
    /// receiver with one `PERSISTENT_TAG` SMSG (paper Fig. 7a), once: a CQ
    /// completion of a PUT the direct event notifies, or of one no longer
    /// tracked, is a no-op.
    fn put_done(&mut self, ctx: &mut MachineCtx, pe: PeId, xid: u64, reaped: bool) {
        let Some(p) = self.puts.get_mut(&xid).filter(|p| p.on_cq == reaped) else {
            return;
        };
        p.on_cq = false;
        let dst_pe = p.dst_pe;
        let at = ctx.now();
        let notify = XidFrame { xid }.encode(TAG_PERSIST);
        self.smsg(ctx, pe, dst_pe, TAG_PERSIST, notify, at);
    }

    /// Re-post a fabric-failed persistent PUT (chaos mode). The payload is
    /// still held in its record and the channel buffers are permanent, so
    /// the descriptor can be rebuilt exactly.
    fn repost_put(&mut self, ctx: &mut MachineCtx, xid: u64) {
        // Stale re-post (transfer completed meanwhile): absorb, don't abort.
        let Some(p) = self.puts.get(&xid).filter(|p| p.on_cq) else {
            return;
        };
        let (src_pe, dst_pe) = (p.src_pe, p.dst_pe);
        let Some(chan) = self.persists.get(&p.handle) else {
            return;
        };
        let desc = chan.put(xid, p.data.clone());
        let (ep, _) = self.conn(ctx, src_pe, dst_pe);
        match self.post_transfer(ctx.now(), ep, desc) {
            Ok(ok) => {
                self.charge(ctx, src_pe, Charge::Recovery(ok.cpu));
                self.schedule_poll(ctx, ok.local_cq_at, src_pe, Ev::PollCq);
            }
            Err(_) => {
                // The NIC rejected the re-post (e.g. transiently invalid
                // handle); back off and try again instead of panicking.
                self.stats.rdma_faults += 1;
                self.repost_after_error(ctx, src_pe, xid, RdmaOp::Put);
            }
        }
    }

    fn get_done(&mut self, ctx: &mut MachineCtx, xid: u64, data: Option<Bytes>) {
        let r = self.recvs.remove(&xid).expect("GET done for unknown xid");
        let data = data.expect("GET completed without data — sender buffer missing");
        debug_assert_eq!(data.len() as u64, r.bytes);
        // ACK so the sender can free (paper Fig. 5).
        let ack = XidFrame { xid }.encode(TAG_ACK);
        let at = ctx.pe_free_at(r.dst_pe).max(ctx.now());
        self.smsg(ctx, r.dst_pe, r.src_pe, TAG_ACK, ack, at);
        // Hand the buffer to Converse (no copy — the runtime owns it).
        ctx.deliver(ctx.now(), r.dst_pe, data);
        // The app consumes the message; return the landing buffer.
        let cost = self.free_buf(ctx, r.dst_pe, r.buf);
        self.charge(ctx, r.dst_pe, Charge::Overhead(cost));
    }

    fn handle_ack(&mut self, ctx: &mut MachineCtx, ctrl: &Bytes) {
        let xid = XidFrame::decode(ctrl).expect("malformed ACK frame").xid;
        let p = self.sends.remove(&xid).expect("ACK for unknown xid");
        let cost = self.free_buf(ctx, p.src_pe, p.buf);
        self.charge(ctx, p.src_pe, Charge::Overhead(cost));
    }

    fn drain_msgq(&mut self, ctx: &mut MachineCtx, pe: PeId) {
        self.disarm(pe, 1);
        let node = ctx.node_of(pe);
        loop {
            let now = ctx.now();
            match self.gni_mut().msgq_get_next_w_tag(node, now) {
                Ok((rx, dst_inst)) => {
                    // The drainer (worker or comm thread) pays the
                    // demultiplex cost; the message belongs to `dst_inst`.
                    self.charge(ctx, pe, Charge::Overhead(rx.cpu));
                    self.process_small(ctx, dst_inst, rx);
                }
                Err(GniError::NotDone) => {
                    // Coalescing: suppressed polls mean pending future
                    // arrivals need a fresh wake-up.
                    if let Some(t) = self.gni().msgq_next_arrival(node) {
                        self.schedule_poll(ctx, t, pe, Ev::PollMsgq);
                    }
                    return;
                }
                Err(e) => panic!("msgq drain failed: {e:?}"),
            }
        }
    }

    fn drain_smsg(&mut self, ctx: &mut MachineCtx, pe: PeId) {
        self.disarm(pe, 0);
        let node = ctx.node_of(pe);
        loop {
            let now = ctx.now();
            match self.gni_mut().smsg_get_next_w_tag(node, pe, now) {
                Ok(rx) => {
                    self.charge(ctx, pe, Charge::Overhead(rx.cpu));
                    self.process_small(ctx, pe, rx);
                }
                Err(GniError::NotDone) => {
                    if let Some(t) = self.gni().smsg_next_arrival(node, pe) {
                        self.schedule_poll(ctx, t, pe, Ev::PollSmsg);
                    }
                    return;
                }
                Err(e) => panic!("smsg drain failed: {e:?}"),
            }
        }
    }

    /// Handle one received small-path message addressed to `pe`.
    fn process_small(&mut self, ctx: &mut MachineCtx, pe: PeId, rx: ugni::SmsgRecv) {
        // The mailbox's handle moves on by value: nothing reads the block
        // until the scheduler dequeues it, so no reference count is
        // touched here.
        let ugni::SmsgRecv {
            tag,
            from_inst,
            mut data,
            ..
        } = rx;
        // Chaos mode: strip the sequence header and drop duplicates (a
        // corrupted completion delivers the payload AND makes the sender
        // re-send — dedup restores exactly-once delivery).
        if self.chaos {
            let seq = u64::from_be_bytes(*data.first_chunk().expect("unsequenced message"));
            let conn = self.conns.entry((from_inst, pe)).or_default();
            if !conn.seq_seen.insert(seq) {
                self.stats.dup_drops += 1;
                return;
            }
            data.advance(SEQ_HDR);
        }
        match tag {
            TAG_SMALL => {
                // Copy out of the mailbox into a runtime buffer. Small
                // buffers are never registered: the pool path pays a
                // free-list hit, the direct path a plain malloc.
                let len = data.len() as u64;
                let cost = if self.cfg.use_mempool {
                    let params = &self.cfg.params;
                    let node = ctx.node_of(pe);
                    let reg = live(&mut self.gni).fabric_mut().reg_table(node);
                    let pool = self.pes.get_mut(pe as usize).pool(pe);
                    let (b, c1) = pool.alloc(params, reg, len);
                    let c2 = pool.free(params, reg, b);
                    c1 + c2
                } else {
                    self.cfg.params.malloc_cost(len) + self.cfg.params.malloc_base
                };
                let done = self.charge(ctx, pe, Charge::Overhead(cost));
                ctx.deliver(done, pe, data);
            }
            TAG_INIT => self.handle_init(ctx, pe, from_inst, &data),
            TAG_ACK => self.handle_ack(ctx, &data),
            TAG_PERSIST => {
                let xid = XidFrame::decode(&data)
                    .expect("malformed PERSIST frame")
                    .xid;
                let put = self
                    .puts
                    .remove(&xid)
                    .expect("persistent notify without data");
                debug_assert_eq!(put.dst_pe, pe);
                ctx.deliver(ctx.now(), pe, put.data);
            }
            t => panic!("unknown small-path tag {t}"),
        }
    }

    fn send_shm(&mut self, ctx: &mut MachineCtx, src_pe: PeId, dst_pe: PeId, msg: Bytes) {
        self.stats.shm_msgs += 1;
        let params = &self.cfg.params;
        let copy = params.memcpy_cost(msg.len() as u64);
        // Sender: lock/allocate a region in the shared segment + copy in.
        ctx.charge(src_pe, Charge::Overhead(SHM_OVERHEAD + copy));
        let copy_out = self.cfg.intranode == IntraNode::PxshmDoubleCopy;
        let at = ctx.now() + SHM_OVERHEAD + copy + SHM_NOTICE;
        ctx.schedule(
            at,
            dst_pe,
            Box::new(Ev::ShmArrive {
                data: msg,
                copy_out,
            }),
        );
    }
}

impl MachineLayer for UgniLayer {
    fn name(&self) -> &'static str {
        "uGNI"
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    fn lookahead(&self) -> Time {
        self.cfg.params.min_remote_latency()
    }

    fn init(&mut self, ctx: &mut MachineCtx) {
        // Per-PE records (CQ, mempool, arming state) are created lazily on
        // first touch: init stays O(nodes), not O(PEs), so a Hopper-scale
        // machine costs nothing for the PEs a run never uses.
        let gni = LGni::new(self.cfg.params.clone(), ctx.num_nodes());
        self.comm_busy = vec![0; ctx.num_nodes() as usize];
        self.pes = LazyVec::with(ctx.num_pes() as usize, |_| PeRecord::IDLE);
        self.gni = Some(gni);
    }

    fn sync_send(&mut self, ctx: &mut MachineCtx, src_pe: PeId, dst_pe: PeId, msg: Bytes) {
        debug_assert_ne!(src_pe, dst_pe, "self-sends bypass the machine layer");
        let same_node = ctx.node_of(src_pe) == ctx.node_of(dst_pe);
        if same_node && self.cfg.smp {
            // SMP: workers share the address space — pass the pointer.
            self.stats.shm_msgs += 1;
            ctx.charge(src_pe, Charge::Overhead(SMP_HANDOFF));
            ctx.deliver(ctx.now() + SMP_HANDOFF, dst_pe, msg);
            return;
        }
        if same_node && self.cfg.intranode != IntraNode::NetworkLoopback {
            self.send_shm(ctx, src_pe, dst_pe, msg);
            return;
        }
        if self.cfg.smp {
            // Worker hands the message to the node's comm thread.
            ctx.charge(src_pe, Charge::Overhead(SMP_HANDOFF));
        }

        // Chaos mode frames small messages with a sequence header; keep
        // the framed message within the mailbox limit.
        let mut limit = self.gni().smsg_limit() as usize;
        if self.chaos {
            limit = limit.saturating_sub(SEQ_HDR);
        }
        if msg.len() <= limit {
            self.stats.small_msgs += 1;
            let at = ctx.pe_free_at(src_pe).max(ctx.now());
            self.smsg(ctx, src_pe, dst_pe, TAG_SMALL, msg, at);
            return;
        }

        // Large path: GET-based rendezvous (paper Fig. 5).
        self.stats.rendezvous_msgs += 1;
        let bytes = msg.len() as u64;
        let (buf, cost) = self.alloc_buf(ctx, src_pe, bytes);
        // The message content moves into the registered send buffer.
        let node = ctx.node_of(src_pe);
        self.gni_mut().mem_write(node, buf.addr(), msg);
        let xid = self.next_xid;
        self.next_xid += 1;
        self.sends.insert(
            xid,
            PendingSend {
                src_pe,
                dst_pe,
                buf,
                bytes,
            },
        );
        let ready = self.charge(ctx, src_pe, Charge::Overhead(cost));
        // Control message departs once the buffer is prepared (exactly
        // then: the preparation cost was just charged).
        ctx.schedule_nodefer(ready, src_pe, Box::new(Ev::StartRendezvous { xid }));
    }

    fn on_event(&mut self, ctx: &mut MachineCtx, pe: PeId, ev: Box<dyn Any + Send>) {
        let ev = *ev.downcast::<Ev>().expect("foreign machine event");
        match ev {
            Ev::PollSmsg => self.drain_smsg(ctx, pe),
            Ev::PollMsgq => self.drain_msgq(ctx, pe),
            Ev::PollCq => self.drain_cq(ctx, pe),
            Ev::Retry { peer } => self.conn_retry(ctx, pe, peer),
            Ev::StartRendezvous { xid } => self.rendezvous_start(ctx, xid),
            Ev::PostGet { xid } => self.post_get(ctx, xid),
            Ev::RepostPut { xid } => self.repost_put(ctx, xid),
            Ev::PersistPutDone { xid } => self.put_done(ctx, pe, xid, false),
            Ev::ShmArrive { data, copy_out } => {
                let mut cost = SHM_OVERHEAD;
                if copy_out {
                    cost += self.cfg.params.memcpy_cost(data.len() as u64);
                }
                ctx.charge(pe, Charge::Overhead(cost));
                ctx.deliver(ctx.now(), pe, data);
            }
        }
    }

    fn create_persistent(
        &mut self,
        ctx: &mut MachineCtx,
        src_pe: PeId,
        dst_pe: PeId,
        max_bytes: u64,
        handle: PersistentHandle,
    ) {
        // Both sides' persistent buffers, registered once. (The set-up
        // handshake cost is charged here; steady-state sends never pay it.)
        let (remote, rcost) = self.alloc_buf(ctx, dst_pe, max_bytes);
        ctx.charge(dst_pe, Charge::Overhead(rcost));
        let (local, lcost) = self.alloc_buf(ctx, src_pe, max_bytes);
        let lcost = lcost + self.cfg.params.smsg_send_cpu;
        ctx.charge(src_pe, Charge::Overhead(lcost));
        self.persists.insert(
            handle,
            PersistChan {
                src_pe,
                dst_pe,
                max_bytes,
                remote,
                local,
            },
        );
    }

    fn send_persistent(
        &mut self,
        ctx: &mut MachineCtx,
        handle: PersistentHandle,
        src_pe: PeId,
        dst_pe: PeId,
        msg: Bytes,
    ) {
        let Some(chan) = self.persists.get(&handle) else {
            // No channel: fall back to the ordinary path.
            self.sync_send(ctx, src_pe, dst_pe, msg);
            return;
        };
        assert!(msg.len() as u64 <= chan.max_bytes, "persistent overflow");
        assert_eq!((chan.src_pe, chan.dst_pe), (src_pe, dst_pe));
        self.stats.persistent_msgs += 1;
        let xid = self.next_xid;
        self.next_xid += 1;
        // "the sender can directly put its message data into the
        // persistent buffer" — no malloc, no registration, no control
        // message (paper §IV-A).
        let desc = chan.put(xid, msg.clone());
        let (ep, _) = self.conn(ctx, src_pe, dst_pe);
        let now = ctx.now();
        let ok = self
            .post_transfer(now, ep, desc)
            .expect("persistent PUT rejected");
        self.charge(ctx, src_pe, Charge::Overhead(ok.cpu));
        // Chaos mode reaps the completion from the CQ so a PostError can
        // trigger a re-post; the fault-free direct event would wrongly
        // notify the receiver of a PUT that never landed.
        let on_cq = self.chaos;
        self.puts.insert(
            xid,
            InflightPut {
                handle,
                src_pe,
                dst_pe,
                data: msg,
                on_cq,
                backoff: 0,
            },
        );
        if on_cq {
            self.schedule_poll(ctx, ok.local_cq_at, src_pe, Ev::PollCq);
        } else {
            ctx.schedule_nodefer(ok.local_cq_at, src_pe, Box::new(Ev::PersistPutDone { xid }));
        }
    }

    #[expect(
        clippy::iter_over_hash_type,
        reason = "each entry is reset or removed on its own; no order reaches the run"
    )]
    fn node_fault(&mut self, ctx: &mut MachineCtx, node: gemini_net::NodeId) {
        // The node's NIC died with its memory. Armed polls point at
        // progress events the runtime will drop for the dead PEs; left
        // set, they would suppress every poll the node's fresh
        // incarnation needs, wedging its connections forever.
        let cores = ctx.cores_per_node();
        for pe in node * cores..ctx.num_pes().min((node + 1) * cores) {
            if self.pes.get(pe as usize).armed != [Time::MAX; 3] {
                self.pes.get_mut(pe as usize).armed = [Time::MAX; 3];
            }
        }
        // Outbound backlogs and half-open transactions rooted on the dead
        // PEs die too (their retry timers are dropped with the node, so
        // keeping the entries would strand armed-but-dead connections).
        // The connections' endpoints and sequence numbers stay: exactly-once
        // delivery needs them. Peers' transactions TOWARD the node stay: the
        // fabric surfaces NodeDown errors and their retry machinery reacts.
        for ((src, _), conn) in &mut self.conns {
            if src / cores == node {
                conn.backlog = Backlog::default();
            }
        }
        self.sends.retain(|_, p| p.src_pe / cores != node);
        self.recvs.retain(|_, r| r.dst_pe / cores != node);
        self.puts
            .retain(|_, p| !(p.on_cq && p.src_pe / cores == node));
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "the checks read the window as a set"
)]
mod tests {
    use super::SeqSeen;
    use proptest::prelude::*;
    use sim_core::DetHashSet;

    proptest! {
        /// Any arrival order, gaps and duplicates included, gets the
        /// accept/drop decisions of the set of everything ever delivered,
        /// and what is kept beyond the watermark is only what is ahead of
        /// a gap.
        #[test]
        fn seq_seen_decides_like_the_set_of_everything_delivered(
            arrivals in proptest::collection::vec(0u64..48, 0..200),
        ) {
            let (mut seen, mut model) = (SeqSeen::default(), DetHashSet::default());
            for seq in arrivals {
                prop_assert_eq!(seen.insert(seq), model.insert(seq), "seq {}", seq);
                prop_assert!(!model.contains(&seen.next));
                prop_assert!(seen.ahead.iter().all(|s| *s > seen.next && model.contains(s)));
                prop_assert_eq!(seen.next as usize + seen.ahead.len(), model.len());
            }
        }

        /// What a connection really produces — every number once, locally
        /// reordered, some repeated: the window ends up empty.
        #[test]
        fn seq_seen_keeps_nothing_once_the_gaps_close(
            keys in proptest::collection::vec((0u64..8, any::<bool>()), 1..300),
        ) {
            // Arrival i carries number i, displaced by up to 8 places;
            // flagged ones arrive twice.
            let mut order: Vec<(u64, u64, bool)> = keys
                .iter()
                .enumerate()
                .map(|(i, &(jitter, dup))| (i as u64 + jitter, i as u64, dup))
                .collect();
            order.sort_unstable();
            let (mut seen, mut model) = (SeqSeen::default(), DetHashSet::default());
            for &(_, seq, dup) in &order {
                prop_assert_eq!(seen.insert(seq), model.insert(seq));
                if dup {
                    prop_assert!(!seen.insert(seq), "duplicate {} accepted", seq);
                }
                prop_assert!(seen.ahead.len() <= 8, "window grew to {}", seen.ahead.len());
            }
            prop_assert_eq!(seen.next, keys.len() as u64);
            prop_assert!(seen.ahead.is_empty());
        }
    }
}
