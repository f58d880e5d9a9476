//! `mpi-sim`: an MPI point-to-point subset implemented **on the simulated
//! uGNI**, standing in for Cray MPI (MPICH2 Nemesis over uGNI \[17\]) as the
//! paper's baseline.
//!
//! The structural behaviors the paper attributes to MPI are all here:
//!
//! * **Eager protocol** for small/medium messages: the sender copies into
//!   MPI-internal pre-registered buffers (one memcpy), ships via SMSG or an
//!   RDMA PUT into the receiver's eager slots, and the receiver copies out
//!   into the user buffer at match time (second memcpy).
//! * **Rendezvous protocol** (>= [`MpiConfig::rndv_threshold`]): RTS / GET /
//!   zero copy, with a **uDREG registration cache** — reusing the *same*
//!   user buffer hits the cache, fresh buffers pay `GNI_MemRegister` every
//!   time. This is the difference between the two "pure MPI" curves in the
//!   paper's Fig. 9(a).
//! * **In-order matching** with an unexpected-message queue, tag and
//!   source matching, and `MPI_Iprobe` semantics: probing costs CPU, and a
//!   matched large message must be drained with a **blocking receive** that
//!   occupies the core until the data lands (the effect behind Fig. 10).
//! * **Intra-node**: double-copy shared memory for small messages, an
//!   XPMEM-style single-copy path (with extra synchronization cost) for
//!   large ones.
//!
//! The type is driven in virtual time: every operation takes `now` and
//! returns CPU cost plus wake hints; there are no threads.

use bytes::Bytes;
use gemini_net::{Addr, FaultKind, GeminiParams, Mechanism, MemHandle, NodeId, RdmaOp, RegCache};
use sim_core::{DetHashMap, Time};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use ugni::{
    next_backoff, CqEvent, CqHandle, EpHandle, Gni, GniError, PostDescriptor, PostOk, RdvFrame,
    SmsgSendOk, XidFrame,
};

// With the `verify` feature every uGNI call goes through the CheckedGni
// contract verifier (identical signatures; derefs to Gni for reads).
#[cfg(not(feature = "verify"))]
use ugni::Gni as LGni;
#[cfg(feature = "verify")]
use ugni_verify::CheckedGni as LGni;

pub(crate) type Rank = u32;
pub(crate) type Tag = i32;

const TAG_EAGER: u8 = 10;
const TAG_PUT_NOTIFY: u8 = 11;
const TAG_RTS: u8 = 12;
const TAG_DONE: u8 = 13;

/// Per-call library overhead (argument checking, request bookkeeping).
const CALL_OVERHEAD: Time = 120;
/// uDREG cache capacity (registrations kept per rank).
const UDREG_CAPACITY: usize = 64;
/// uDREG lookup cost per rendezvous operation.
const UDREG_LOOKUP: Time = 60;
/// Intra-node: below this, double-copy shm; at/above, XPMEM single copy.
const XPMEM_THRESHOLD: u64 = 16 * 1024;
/// Extra synchronization cost of an XPMEM single-copy transfer.
const XPMEM_SYNC: Time = 3_000;
/// Shared-memory notice latency (receiver polling period).
const SHM_NOTICE: Time = 400;
/// Per-entry cost of scanning the unexpected-message queue (MPICH keeps
/// it as a linear list; under fine-grain message storms this is the
/// paper's "prolonged MPI_Iprobe").
const MATCH_SCAN_PER_ENTRY: Time = 90;

/// Configuration of the MPI model.
#[derive(Debug, Clone)]
pub struct MpiConfig {
    pub params: GeminiParams,
    /// Eager/rendezvous switch (Cray MPI default order of magnitude: 8 KiB).
    pub rndv_threshold: u64,
}

impl Default for MpiConfig {
    fn default() -> Self {
        MpiConfig {
            params: GeminiParams::hopper(),
            rndv_threshold: 8192,
        }
    }
}

/// An unexpected (or arrived-but-unmatched) message header.
#[derive(Debug, Clone)]
enum Unexp {
    /// Fully arrived eager data; receive = copy out.
    Eager { src: Rank, tag: Tag, data: Bytes },
    /// Intra-node message (double-copy shm or XPMEM single copy — the
    /// sender-side cost difference was charged at send time; the receiver
    /// pays exactly one copy either way).
    Shm { src: Rank, tag: Tag, data: Bytes },
    /// Rendezvous ready-to-send: data still on the sender.
    Rts {
        src: Rank,
        tag: Tag,
        bytes: u64,
        xid: u64,
        handle: MemHandle,
        addr: Addr,
    },
}

impl Unexp {
    fn src_tag(&self) -> (Rank, Tag) {
        match self {
            Unexp::Eager { src, tag, .. }
            | Unexp::Shm { src, tag, .. }
            | Unexp::Rts { src, tag, .. } => (*src, *tag),
        }
    }

    fn len(&self) -> u64 {
        match self {
            Unexp::Eager { data, .. } | Unexp::Shm { data, .. } => data.len() as u64,
            Unexp::Rts { bytes, .. } => *bytes,
        }
    }
}

/// Result of a probe: message metadata without consuming it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeHit {
    pub src: Rank,
    pub tag: Tag,
    pub(crate) bytes: u64,
    /// True when receiving this message will block the core for a
    /// rendezvous transfer (the paper's Fig. 10 mechanism).
    pub is_rendezvous: bool,
}

/// Result of a receive.
#[derive(Debug, Clone)]
pub struct RecvOutcome {
    pub data: Bytes,
    /// When the receive completes; the calling core is busy from the call
    /// until then (for eager this is just the copy; for rendezvous it spans
    /// the whole GET).
    pub done_at: Time,
}

/// CPU + wake side effects of an operation, for the embedding layer to
/// turn into events.
#[derive(Debug, Clone, Default)]
pub struct Effects {
    /// CPU the calling rank burned.
    pub cpu: Time,
    /// (rank, time): schedule a progress poll there.
    pub wakes: Vec<(Rank, Time)>,
}

#[derive(Debug, Default, Clone)]
pub struct MpiStats {
    pub eager_msgs: u64,
    pub rndv_msgs: u64,
    pub shm_msgs: u64,
    pub udreg_hits: u64,
    pub udreg_misses: u64,
    pub blocking_recv_ns: Time,
    /// Transfers re-driven after a fabric transaction error.
    pub send_retries: u64,
    /// CQ overrun recoveries performed.
    pub(crate) cq_resyncs: u64,
}

/// What MPI keeps per rank.
struct RankState {
    cq: CqHandle,
    /// When the CQ was last polled ([`MpiSim::reap_post`]).
    cq_polled: Time,
    udreg: RegCache,
    /// Matched-order delivery queue, with the time each entry becomes
    /// visible (messages must not be matchable before arrival).
    unexpected: VecDeque<(Time, Unexp)>,
    /// Pre-registered internal eager buffer.
    eager_addr: Addr,
    eager_handle: MemHandle,
}

/// The per-job MPI instance.
pub struct MpiSim {
    cfg: MpiConfig,
    gni: LGni,
    cores_per_node: u32,
    ranks: Vec<RankState>,
    eps: DetHashMap<(Rank, Rank), EpHandle>,
    /// Rendezvous sends in flight per staged source buffer: the content
    /// at `buf` leaves [`Gni`] when the last transfer reading it has
    /// completed, so a buffer re-staged by a later `isend` while an
    /// earlier one is still unreceived keeps its content.
    staged: DetHashMap<(NodeId, Addr), u32>,
    next_xid: u64,
    pub stats: MpiStats,
}

impl MpiSim {
    /// Bring up MPI across `ranks` ranks, `cores_per_node` per node.
    pub fn new(cfg: MpiConfig, ranks: u32, cores_per_node: u32) -> Self {
        let nodes = ranks.div_ceil(cores_per_node);
        let mut gni = LGni::new(cfg.params.clone(), nodes);
        let mut states = Vec::with_capacity(ranks as usize);
        for r in 0..ranks {
            let cq = gni.cq_create();
            let node = r / cores_per_node;
            let a = gni.alloc_addr(node).expect("node within job");
            // 8 MiB of internal pre-registered buffering per rank.
            // Transient NIC descriptor exhaustion (chaos plans) is retried;
            // a bounded number of attempts keeps a pathological plan from
            // hanging startup.
            let (h, _) = (0..64)
                .find_map(|_| gni.mem_register(node, a, 8 << 20).ok())
                .expect("eager buffer registration: NIC resources exhausted");
            states.push(RankState {
                cq,
                cq_polled: 0,
                udreg: RegCache::new(UDREG_CAPACITY, UDREG_LOOKUP),
                unexpected: VecDeque::new(),
                eager_addr: a,
                eager_handle: h,
            });
        }
        MpiSim {
            ranks: states,
            eps: DetHashMap::default(),
            staged: DetHashMap::default(),
            next_xid: 0,
            stats: MpiStats::default(),
            cfg,
            gni,
            cores_per_node,
        }
    }

    pub fn gni(&self) -> &Gni {
        &self.gni
    }

    /// Contract-verifier findings for the underlying uGNI instance.
    /// `Some` only when built with the `verify` feature.
    #[cfg(feature = "verify")]
    pub fn contract_report(&self) -> Option<ugni_verify::ContractReport> {
        Some(self.gni.report())
    }

    #[cfg(not(feature = "verify"))]
    pub fn contract_report(&self) -> Option<ugni_verify::ContractReport> {
        None
    }

    pub(crate) fn node_of(&self, rank: Rank) -> NodeId {
        rank / self.cores_per_node
    }

    fn ep(&mut self, src: Rank, dst: Rank) -> EpHandle {
        if let Some(&ep) = self.eps.get(&(src, dst)) {
            return ep;
        }
        let cq = self.ranks[src as usize].cq;
        let (sn, dn) = (self.node_of(src), self.node_of(dst));
        let ep = self
            .gni
            .ep_create_inst(sn, src, dn, dst, cq)
            .expect("ep bind: CQ and nodes fixed at init");
        self.eps.insert((src, dst), ep);
        ep
    }

    /// Send an SMSG, absorbing credit exhaustion and fabric transaction
    /// errors by blocking and resending with capped exponential backoff
    /// (Cray MPI semantics: the library spins in the send call). Returns
    /// the successful send and the virtual time the call returns at.
    fn smsg_send_blocking(
        &mut self,
        mut at: Time,
        ep: EpHandle,
        tag: u8,
        data: Bytes,
    ) -> (SmsgSendOk, Time) {
        let mut backoff = 0;
        loop {
            match self.gni.smsg_send_w_tag(at, ep, tag, data.clone()) {
                Ok(ok) => return (ok, at + ok.cpu),
                Err(GniError::NoCredits { retry_at }) => at = at.max(retry_at),
                Err(GniError::TransactionError { cpu, error_at, .. }) => {
                    // The failure is observable at error_at; resend after a
                    // backoff. A corrupted completion already delivered the
                    // payload — the duplicate is discarded at drain time.
                    self.stats.send_retries += 1;
                    backoff = next_backoff(backoff);
                    at = error_at.max(at + cpu) + backoff;
                }
                Err(e) => panic!("SMSG send failed unrecoverably: {e:?}"),
            }
        }
    }

    /// Reap the completion for `user_id` from `rank`'s CQ, looking from
    /// `at`. Recovers CQ overruns in place (audit + resync) and discards
    /// stale completions from earlier eagerly-drained posts. `Ok` carries
    /// the consume time and any GET payload; `Err` reports a failed post
    /// and when the failure became observable.
    ///
    /// `at` is the rank's view; the NIC is polled no earlier than this CQ
    /// was last polled. `isend` drains a PUT's completion at its future
    /// `local_cq_at` and returns at once, so the rank's next post can
    /// complete before the previous drain's instant (an FMA PUT posted
    /// behind a BTE PUT): the later poll sees the same queue head, and the
    /// consume time stays the one the rank would have seen.
    fn reap_post(
        &mut self,
        rank: Rank,
        user_id: u64,
        mut at: Time,
    ) -> Result<(Time, Option<Bytes>), (FaultKind, Time)> {
        let cq = self.ranks[rank as usize].cq;
        loop {
            let poll = at.max(self.ranks[rank as usize].cq_polled);
            let head = self.gni.cq_next_ready(cq);
            let polled = self.gni.cq_get_event(cq, poll);
            if polled.is_ok() {
                self.ranks[rank as usize].cq_polled = poll;
                // Popped at `poll`, ready at `head`: the rank had it then.
                at = at.max(head.unwrap_or(at));
            }
            match polled {
                Ok(CqEvent::PostDone {
                    user_id: id, data, ..
                }) if id == user_id => {
                    return Ok((at, data));
                }
                Ok(CqEvent::PostError {
                    user_id: id, kind, ..
                }) if id == user_id => {
                    return Err((kind, at));
                }
                // Stale completion (or error already handled by a retry).
                Ok(_) => continue,
                Err(GniError::CqOverrun) => match self.gni.cq_resync(cq, poll) {
                    Ok((cost, _)) => {
                        self.ranks[rank as usize].cq_polled = poll;
                        self.stats.cq_resyncs += 1;
                        at += cost;
                    }
                    // Resync refused (stale CQ handle): surface as a failed
                    // post so the caller's retry path runs — recovery code
                    // degrades rather than aborting.
                    Err(_) => return Err((FaultKind::Dropped, at)),
                },
                Err(GniError::NotDone) => match head {
                    Some(t) if t > at => at = t,
                    // The completion for `user_id` is always pushed (queued
                    // or into the overrun-lost set), so an empty CQ here is
                    // a protocol bug, not a fabric fault. panic-ok: see above.
                    _ => panic!("completion for post {user_id} vanished"),
                },
                // panic-ok: poll errors other than NotDone are protocol bugs
                Err(e) => panic!("CQ poll failed: {e:?}"),
            }
        }
    }

    /// Post `desc` on `mech` from `rank` at `at` and spin on the CQ until
    /// it completes, re-posting after each fabric failure once its error
    /// surfaces, with capped exponential backoff (the library blocks, so
    /// the wait is CPU time). Returns when the successful post was issued,
    /// its result and any GET payload.
    fn post_blocking(
        &mut self,
        rank: Rank,
        mut at: Time,
        ep: EpHandle,
        mech: Mechanism,
        desc: PostDescriptor,
    ) -> (Time, PostOk, Option<Bytes>) {
        let mut backoff = 0;
        loop {
            let posted = match mech {
                Mechanism::Fma => self.gni.post_fma(at, ep, desc.clone()),
                Mechanism::Bte => self.gni.post_rdma(at, ep, desc.clone()),
            }
            .expect("MPI transfer rejected");
            match self.reap_post(rank, desc.user_id, posted.local_cq_at) {
                Ok((_, data)) => return (at, posted, data),
                Err((_kind, err_at)) => {
                    self.stats.send_retries += 1;
                    backoff = next_backoff(backoff);
                    at = err_at.max(at + posted.cpu) + backoff;
                }
            }
        }
    }

    /// Register `buf` on `rank`'s node through its uDREG cache, counting
    /// the hit or miss. Returns the handle and the CPU cost.
    fn udreg_acquire(&mut self, rank: Rank, buf: Addr, bytes: u64) -> (MemHandle, Time) {
        let node = self.node_of(rank);
        let cache = &mut self.ranks[rank as usize].udreg;
        let table = self.gni.fabric_mut().reg_table(node);
        let before = cache.hits;
        let r = cache.acquire(&self.cfg.params, table, buf, bytes);
        if cache.hits > before {
            self.stats.udreg_hits += 1;
        } else {
            self.stats.udreg_misses += 1;
        }
        r
    }

    /// `MPI_Isend` (the send-side request always completes locally in this
    /// model; rendezvous data is held until the receiver pulls it).
    /// `buf` identifies the application buffer for uDREG purposes — pass
    /// the same `Addr` to model a reused buffer, a fresh one otherwise.
    pub fn isend(
        &mut self,
        now: Time,
        src: Rank,
        dst: Rank,
        tag: Tag,
        data: Bytes,
        buf: Addr,
    ) -> Effects {
        let mut fx = Effects {
            cpu: CALL_OVERHEAD,
            wakes: Vec::new(),
        };
        let bytes = data.len() as u64;

        // Intra-node path.
        if self.node_of(src) == self.node_of(dst) && src != dst {
            self.stats.shm_msgs += 1;
            let (send_cost, visible) = if bytes >= XPMEM_THRESHOLD {
                // XPMEM: map + hand off, no sender copy, extra sync.
                (XPMEM_SYNC, now + XPMEM_SYNC + SHM_NOTICE)
            } else {
                let c = self.cfg.params.memcpy_cost(bytes);
                (c, now + c + SHM_NOTICE)
            };
            fx.cpu += send_cost;
            self.ranks[dst as usize]
                .unexpected
                .push_back((visible, Unexp::Shm { src, tag, data }));
            fx.wakes.push((dst, visible));
            return fx;
        }

        let smsg_limit = self.gni.smsg_limit() as u64;
        if bytes + 16 <= smsg_limit {
            // Small eager: copy into the internal buffer, one SMSG. The
            // blocking send absorbs credit exhaustion and fabric faults.
            self.stats.eager_msgs += 1;
            fx.cpu += self.cfg.params.memcpy_cost(bytes);
            let ep = self.ep(src, dst);
            let (ok, end) = self.smsg_send_blocking(now + fx.cpu, ep, TAG_EAGER, data.clone());
            fx.cpu = end - now;
            self.ranks[dst as usize]
                .unexpected
                .push_back((ok.deliver_at, Unexp::Eager { src, tag, data }));
            fx.wakes.push((dst, ok.deliver_at));
            return fx;
        }

        if bytes < self.cfg.rndv_threshold {
            // Medium eager: copy into internal registered buffer, PUT into
            // the receiver's eager slots, tiny notify SMSG.
            self.stats.eager_msgs += 1;
            fx.cpu += self.cfg.params.memcpy_cost(bytes);
            let xid = self.next_xid;
            self.next_xid += 1;
            let src_node = self.node_of(src);
            let eager_addr = self.ranks[src as usize].eager_addr;
            self.gni.mem_write(src_node, eager_addr, data.clone());
            let ep = self.ep(src, dst);
            let (local, remote) = (&self.ranks[src as usize], &self.ranks[dst as usize]);
            let desc = PostDescriptor {
                op: RdmaOp::Put,
                local_mem: local.eager_handle,
                local_addr: local.eager_addr,
                remote_mem: remote.eager_handle,
                remote_addr: remote.eager_addr,
                bytes,
                data: Some(data.clone()),
                user_id: xid,
            };
            // Post the PUT and drain our own CQ entry eagerly (send request
            // completion).
            let mech = self.cfg.params.preferred_mechanism(bytes);
            let (posted_at, ok, _) = self.post_blocking(src, now + fx.cpu, ep, mech, desc);
            fx.cpu = (posted_at - now) + ok.cpu;
            let visible_guess = ok.data_at.max(now + fx.cpu);
            self.ranks[dst as usize]
                .unexpected
                .push_back((visible_guess, Unexp::Eager { src, tag, data }));
            // Notify once the data is visible.
            let notify = XidFrame { xid }.encode(TAG_PUT_NOTIFY);
            let notify_at = ok.data_at.max(now + fx.cpu);
            let (n, _) = self.smsg_send_blocking(notify_at, ep, TAG_PUT_NOTIFY, notify);
            // The receiver learns of the message via the notify.
            if let Some(back) = self.ranks[dst as usize].unexpected.back_mut() {
                back.0 = back.0.max(n.deliver_at);
            }
            fx.wakes.push((dst, n.deliver_at));
            return fx;
        }

        // Rendezvous: register the user buffer (uDREG) and send RTS.
        self.stats.rndv_msgs += 1;
        let src_node = self.node_of(src);
        let (handle, reg_cost) = self.udreg_acquire(src, buf, bytes);
        fx.cpu += reg_cost;
        self.gni.mem_write(src_node, buf, data);
        *self.staged.entry((src_node, buf)).or_insert(0) += 1;
        let xid = self.next_xid;
        self.next_xid += 1;
        let rts = RdvFrame {
            xid,
            bytes,
            handle,
            addr: buf,
        }
        .encode(TAG_RTS);
        let ep = self.ep(src, dst);
        let (ok, end) = self.smsg_send_blocking(now + fx.cpu, ep, TAG_RTS, rts);
        fx.cpu = end - now;
        self.ranks[dst as usize].unexpected.push_back((
            ok.deliver_at,
            Unexp::Rts {
                src,
                tag,
                bytes,
                xid,
                handle,
                addr: buf,
            },
        ));
        fx.wakes.push((dst, ok.deliver_at));
        fx
    }

    /// Drain NIC-level arrivals for `rank`. Headers were enqueued at send
    /// time (callers must only probe at/after the corresponding wake), so
    /// this consumes mailbox entries and returns the CPU spent.
    pub(crate) fn progress(&mut self, now: Time, rank: Rank) -> Time {
        let node = self.node_of(rank);
        let mut cpu = 0;
        while let Ok(rx) = self.gni.smsg_get_next_w_tag(node, rank, now + cpu) {
            cpu += rx.cpu;
        }
        cpu
    }

    /// Is a message from `src`/`tag` (wildcards allowed) matchable at
    /// `now`? Models `MPI_Iprobe`: costs CPU whether or not it hits.
    pub fn iprobe(
        &mut self,
        now: Time,
        rank: Rank,
        src: Option<Rank>,
        tag: Option<Tag>,
    ) -> (Option<ProbeHit>, Time) {
        let mut cpu = CALL_OVERHEAD + self.progress(now, rank);
        let queue = &self.ranks[rank as usize].unexpected;
        let found = self.match_unexpected(now, rank, src, tag);
        let hit = found.map(|i| {
            let u = &queue[i].1;
            let (s, t) = u.src_tag();
            ProbeHit {
                src: s,
                tag: t,
                bytes: u.len(),
                is_rendezvous: matches!(u, Unexp::Rts { .. }),
            }
        });
        // Linear scan of the unexpected queue, up to the match (or its
        // full length on a miss).
        let scanned = found.map_or(queue.len(), |i| i + 1);
        cpu += 40 + scanned as Time * MATCH_SCAN_PER_ENTRY;
        (hit, cpu)
    }

    fn match_unexpected(
        &self,
        now: Time,
        rank: Rank,
        src: Option<Rank>,
        tag: Option<Tag>,
    ) -> Option<usize> {
        self.ranks[rank as usize]
            .unexpected
            .iter()
            .position(|(vis, u)| {
                if *vis > now {
                    return false;
                }
                let (s, t) = u.src_tag();
                src.is_none_or(|x| x == s) && tag.is_none_or(|x| x == t)
            })
    }

    /// Earliest not-yet-visible message for `rank` (for re-arming polls).
    pub fn next_visible(&self, now: Time, rank: Rank) -> Option<Time> {
        self.ranks[rank as usize]
            .unexpected
            .iter()
            .map(|(vis, _)| *vis)
            .filter(|&v| v > now)
            .min()
    }

    /// Blocking `MPI_Recv` of a message already visible to `iprobe`.
    /// `recv_buf` identifies the destination application buffer (uDREG).
    /// The calling core is busy from `now` to `done_at`.
    pub fn recv(
        &mut self,
        now: Time,
        rank: Rank,
        src: Option<Rank>,
        tag: Option<Tag>,
        recv_buf: Addr,
    ) -> Option<RecvOutcome> {
        let idx = self.match_unexpected(now, rank, src, tag)?;
        let (_, u) = self.ranks[rank as usize].unexpected.remove(idx).unwrap();
        // Matching re-scans the unexpected list up to the hit.
        let base = now + CALL_OVERHEAD + (idx as Time + 1) * MATCH_SCAN_PER_ENTRY;
        match u {
            Unexp::Eager { data, .. } | Unexp::Shm { data, .. } => {
                // Copy out of MPI internal (or shared) memory into the user
                // buffer.
                let done = base + self.cfg.params.memcpy_cost(data.len() as u64);
                Some(RecvOutcome {
                    data,
                    done_at: done,
                })
            }
            Unexp::Rts {
                src,
                bytes,
                xid,
                handle,
                addr,
                ..
            } => {
                // Register the landing buffer, post the GET, block to done.
                let node = self.node_of(rank);
                let (rh, reg_cost) = self.udreg_acquire(rank, recv_buf, bytes);
                let ep = self.ep(rank, src);
                let desc = PostDescriptor {
                    op: RdmaOp::Get,
                    local_mem: rh,
                    local_addr: recv_buf,
                    remote_mem: handle,
                    remote_addr: addr,
                    bytes,
                    data: None,
                    user_id: xid,
                };
                // Blocking: spin on the CQ until done, re-posting the GET
                // if the fabric fails it (zero-copy pull is idempotent).
                let (_, ok, data) =
                    self.post_blocking(rank, base + reg_cost, ep, Mechanism::Bte, desc);
                let data = data.expect("rendezvous GET without data");
                // DONE message lets the sender's request complete.
                let frame = XidFrame { xid }.encode(TAG_DONE);
                let _ = self.smsg_send_blocking(ok.local_cq_at, ep, TAG_DONE, frame);
                // The transfer is over and `data` owns the payload: neither
                // the landing buffer nor the source buffer needs to hold
                // content any longer — unless an in-flight send reads it.
                if !self.staged.contains_key(&(node, recv_buf)) {
                    self.gni.mem_clear(node, recv_buf);
                }
                if let Entry::Occupied(mut sends) = self.staged.entry((self.node_of(src), addr)) {
                    *sends.get_mut() -= 1;
                    if *sends.get() == 0 {
                        let (src_node, _) = sends.remove_entry().0;
                        self.gni.mem_clear(src_node, addr);
                    }
                }
                let done = ok.local_cq_at + CALL_OVERHEAD;
                self.stats.blocking_recv_ns += done.saturating_sub(now);
                Some(RecvOutcome {
                    data,
                    done_at: done,
                })
            }
        }
    }

    /// A fresh application-buffer identity on `rank`'s node.
    pub fn fresh_buf(&mut self, rank: Rank) -> Addr {
        let node = self.node_of(rank);
        self.gni.alloc_addr(node).expect("node within job")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mpi(ranks: u32, cores: u32) -> MpiSim {
        MpiSim::new(MpiConfig::default(), ranks, cores)
    }

    #[test]
    fn small_eager_round_trip() {
        let mut m = mpi(2, 1);
        let buf = m.fresh_buf(0);
        let fx = m.isend(0, 0, 1, 7, Bytes::from_static(b"hello"), buf);
        assert!(fx.cpu > 0);
        let (_, arrive) = fx.wakes[0];
        let (hit, _) = m.iprobe(arrive, 1, None, None);
        let hit = hit.expect("message not probed");
        assert_eq!(hit.src, 0);
        assert_eq!(hit.tag, 7);
        assert!(!hit.is_rendezvous);
        let rbuf = m.fresh_buf(1);
        let out = m.recv(arrive, 1, Some(0), Some(7), rbuf).unwrap();
        assert_eq!(&out.data[..], b"hello");
        assert!(out.done_at > arrive);
        assert_eq!(m.stats.eager_msgs, 1);
    }

    #[test]
    fn medium_eager_uses_put() {
        let mut m = mpi(2, 1);
        let buf = m.fresh_buf(0);
        let data = Bytes::from(vec![3u8; 4000]);
        let fx = m.isend(0, 0, 1, 1, data.clone(), buf);
        let (_, arrive) = fx.wakes[0];
        let rbuf = m.fresh_buf(1);
        let out = m.recv(arrive, 1, None, None, rbuf).unwrap();
        assert_eq!(out.data, data);
        assert_eq!(m.stats.eager_msgs, 1);
        assert_eq!(m.stats.rndv_msgs, 0);
        assert!(m.gni().fabric().stats.rdma_bytes >= 4000);
    }

    #[test]
    fn eager_put_takes_the_fabric_models_mechanism() {
        // FMA up to the 4 KiB crossover, BTE above it; the PUT notify is
        // an SMSG, not a transaction.
        for (bytes, fma, bte) in [(4096, 1, 0), (4097, 0, 1)] {
            let mut m = mpi(2, 1);
            let buf = m.fresh_buf(0);
            m.isend(0, 0, 1, 0, Bytes::from(vec![0u8; bytes]), buf);
            let stats = &m.gni().fabric().stats;
            assert_eq!(m.stats.eager_msgs, 1, "{bytes} B");
            assert_eq!(
                (stats.fma_transactions, stats.bte_transactions),
                (fma, bte),
                "{bytes} B: (FMA, BTE) transactions"
            );
        }
    }

    #[test]
    fn large_uses_rendezvous_and_blocks() {
        let mut m = mpi(2, 1);
        let buf = m.fresh_buf(0);
        let data = Bytes::from(vec![9u8; 65536]);
        let fx = m.isend(0, 0, 1, 5, data.clone(), buf);
        let (_, arrive) = fx.wakes[0];
        let (hit, _) = m.iprobe(arrive, 1, None, None);
        assert!(hit.unwrap().is_rendezvous);
        let rbuf = m.fresh_buf(1);
        let out = m.recv(arrive, 1, Some(0), Some(5), rbuf).unwrap();
        assert_eq!(out.data, data);
        assert!(
            out.done_at > arrive + 10_000,
            "recv window {}",
            out.done_at - arrive
        );
        assert_eq!(m.stats.rndv_msgs, 1);
        assert!(m.stats.blocking_recv_ns > 0);
    }

    #[test]
    fn same_buffer_hits_udreg_cache() {
        let mut m = mpi(2, 1);
        let sbuf = m.fresh_buf(0);
        let rbuf = m.fresh_buf(1);
        let data = Bytes::from(vec![1u8; 32768]);
        let mut t = 0;
        let mut first_cpu = 0;
        let mut later_cpu = 0;
        for i in 0..5 {
            let fx = m.isend(t, 0, 1, 0, data.clone(), sbuf);
            if i == 0 {
                first_cpu = fx.cpu;
            } else {
                later_cpu = fx.cpu;
            }
            let (_, arrive) = fx.wakes[0];
            let out = m.recv(arrive, 1, None, None, rbuf).unwrap();
            t = out.done_at + 1000;
        }
        assert!(m.stats.udreg_hits >= 8, "hits {}", m.stats.udreg_hits);
        assert!(
            later_cpu + 1000 < first_cpu,
            "cached send {later_cpu} not cheaper than first {first_cpu}"
        );
    }

    #[test]
    fn fresh_buffers_miss_udreg_cache() {
        let mut m = mpi(2, 1);
        let data = Bytes::from(vec![1u8; 32768]);
        let mut t = 0;
        for _ in 0..5 {
            let sbuf = m.fresh_buf(0);
            let rbuf = m.fresh_buf(1);
            let fx = m.isend(t, 0, 1, 0, data.clone(), sbuf);
            let (_, arrive) = fx.wakes[0];
            let out = m.recv(arrive, 1, None, None, rbuf).unwrap();
            t = out.done_at + 1000;
        }
        assert_eq!(m.stats.udreg_hits, 0);
        assert_eq!(m.stats.udreg_misses, 10);
    }

    /// An instance that has sent `n` messages of `bytes` from rank 0 to
    /// rank 1 through fresh buffers and received each.
    fn drained(cores: u32, bytes: usize, n: u32) -> MpiSim {
        let mut m = mpi(2, cores);
        let data = Bytes::from(vec![7u8; bytes]);
        let mut t = 0;
        for _ in 0..n {
            let (sbuf, rbuf) = (m.fresh_buf(0), m.fresh_buf(1));
            let fx = m.isend(t, 0, 1, 0, data.clone(), sbuf);
            let out = m.recv(fx.wakes[0].1, 1, None, None, rbuf).unwrap();
            assert_eq!(out.data, data);
            t = out.done_at + 1_000;
        }
        assert!(m.ranks[1].unexpected.is_empty());
        assert!(m.staged.is_empty(), "no rendezvous send is in flight");
        m
    }

    #[test]
    fn retained_content_tracks_what_is_in_flight_not_run_length() {
        for (class, cores, bytes) in [
            ("small eager", 1, 64),
            ("medium eager PUT", 1, 4_000),
            ("rendezvous", 1, 65_536),
            ("intra-node double copy", 2, 1_024),
            ("intra-node XPMEM", 2, 65_536),
        ] {
            let retained = |n| drained(cores, bytes, n).gni().contents_len();
            let (few, many) = (retained(8), retained(32));
            assert_eq!(few, many, "{class}: retained buffers grew with messages");
            // The pre-registered eager slot each rank owns is overwritten,
            // never freed; nothing else may stay.
            assert!(many <= 2, "{class}: {many} buffers retained by 2 ranks");
        }
    }

    #[test]
    fn two_sends_in_flight_from_one_buffer_both_arrive() {
        // MPI lets concurrent sends read one buffer. The first transfer to
        // complete must not take the staged content from under the second.
        let mut m = mpi(2, 1);
        let sbuf = m.fresh_buf(0);
        let data = Bytes::from(vec![5u8; 32_768]);
        let f1 = m.isend(0, 0, 1, 1, data.clone(), sbuf);
        let f2 = m.isend(f1.cpu, 0, 1, 2, data.clone(), sbuf);
        let t = f1.wakes[0].1.max(f2.wakes[0].1);
        let (r1, r2) = (m.fresh_buf(1), m.fresh_buf(1));
        let first = m.recv(t, 1, Some(0), Some(1), r1).unwrap();
        assert_eq!(first.data, data);
        assert_eq!(m.gni().contents_len(), 1, "still staged for the second");
        let second = m.recv(first.done_at, 1, Some(0), Some(2), r2).unwrap();
        assert_eq!(second.data, data);
        assert_eq!(m.gni().contents_len(), 0);
        assert!(m.staged.is_empty());
        // The buffer is free for the same-buffer pingpong to stage again.
        let f3 = m.isend(second.done_at, 0, 1, 3, data.clone(), sbuf);
        let third = m.recv(f3.wakes[0].1, 1, None, None, r1).unwrap();
        assert_eq!(third.data, data);
        assert_eq!(m.gni().contents_len(), 0);
    }

    #[cfg(feature = "verify")]
    #[test]
    fn verifier_sees_no_stale_rendezvous_content() {
        let report = drained(1, 32_768, 6)
            .contract_report()
            .expect("verify feature is on");
        assert!(report.is_clean(), "{report}");
        // Without the clear in `recv`: one stale source buffer per message.
        assert_eq!(report.stale_content(), 0, "{report}");
    }

    #[test]
    fn tag_and_source_matching() {
        let mut m = mpi(3, 1);
        let b0 = m.fresh_buf(0);
        let b2 = m.fresh_buf(2);
        let f1 = m.isend(0, 0, 1, 100, Bytes::from_static(b"a"), b0);
        let f2 = m.isend(0, 2, 1, 200, Bytes::from_static(b"b"), b2);
        let t = f1.wakes[0].1.max(f2.wakes[0].1);
        let rbuf = m.fresh_buf(1);
        let out = m.recv(t, 1, None, Some(200), rbuf).unwrap();
        assert_eq!(&out.data[..], b"b");
        let out = m.recv(t, 1, Some(0), None, rbuf).unwrap();
        assert_eq!(&out.data[..], b"a");
        assert!(m.recv(t, 1, None, None, rbuf).is_none());
    }

    #[test]
    fn in_order_delivery_per_pair() {
        let mut m = mpi(2, 1);
        let mut last = 0;
        for i in 0..5u8 {
            let b = m.fresh_buf(0);
            let fx = m.isend(i as Time * 10, 0, 1, 0, Bytes::from(vec![i]), b);
            last = last.max(fx.wakes[0].1);
        }
        let rbuf = m.fresh_buf(1);
        for i in 0..5u8 {
            let out = m.recv(last, 1, None, None, rbuf).unwrap();
            assert_eq!(out.data[0], i, "order violated");
        }
    }

    #[test]
    fn messages_match_in_arrival_order() {
        // MPICH fills its unexpected queue at *arrival*: a later-sent
        // message that lands earlier (different protocol class) may match
        // first, but same-class messages never overtake each other.
        let mut m = mpi(2, 1);
        let b1 = m.fresh_buf(0);
        let fx1 = m.isend(0, 0, 1, 0, Bytes::from(vec![1u8; 16]), b1);
        let b2 = m.fresh_buf(0);
        let fx2 = m.isend(100, 0, 1, 0, Bytes::from(vec![2u8; 16]), b2);
        let t = fx1.wakes[0].1.max(fx2.wakes[0].1);
        let rb = m.fresh_buf(1);
        let a = m.recv(t, 1, None, None, rb).unwrap();
        let b = m.recv(t, 1, None, None, rb).unwrap();
        assert_eq!(a.data[0], 1, "same-class messages must not overtake");
        assert_eq!(b.data[0], 2);
    }

    #[test]
    fn invisible_messages_do_not_match_early() {
        let mut m = mpi(2, 1);
        let b1 = m.fresh_buf(0);
        let fx = m.isend(0, 0, 1, 0, Bytes::from_static(b"later"), b1);
        let arrive = fx.wakes[0].1;
        let rb = m.fresh_buf(1);
        // Before arrival: nothing matchable.
        assert!(m.recv(arrive - 1, 1, None, None, rb).is_none());
        let (hit, _) = m.iprobe(arrive - 1, 1, None, None);
        assert!(hit.is_none(), "probe must not see in-flight data");
        assert!(m.recv(arrive, 1, None, None, rb).is_some());
    }

    #[test]
    fn intranode_small_is_fast_double_copy() {
        let mut m = mpi(2, 2); // same node
        let b = m.fresh_buf(0);
        let fx = m.isend(0, 0, 1, 0, Bytes::from(vec![0u8; 1024]), b);
        let (_, visible) = fx.wakes[0];
        assert!(visible < 5_000, "shm visibility {visible}ns too slow");
        let rbuf = m.fresh_buf(1);
        let out = m.recv(visible, 1, None, None, rbuf).unwrap();
        assert_eq!(out.data.len(), 1024);
        assert_eq!(m.stats.shm_msgs, 1);
        // Never touched the NIC.
        assert_eq!(m.gni().fabric().stats.smsg_sends, 0);
    }

    #[test]
    fn intranode_large_pays_xpmem_sync() {
        let mut m = mpi(2, 2);
        let b = m.fresh_buf(0);
        let fx = m.isend(0, 0, 1, 0, Bytes::from(vec![0u8; 262_144]), b);
        // Single copy: sender pays sync, not a 256K memcpy.
        assert!(fx.cpu < MpiConfig::default().params.memcpy_cost(262_144));
        assert!(fx.cpu >= XPMEM_SYNC);
    }

    #[test]
    fn probe_miss_costs_cpu() {
        let mut m = mpi(2, 1);
        let (hit, cpu) = m.iprobe(100, 1, None, None);
        assert!(hit.is_none());
        assert!(cpu > 0, "Iprobe must cost CPU even on a miss");
    }

    #[test]
    fn self_send_not_supported_via_shm_branch() {
        // rank -> same rank goes through the network path (callers are
        // expected to loop back above MPI); just ensure no panic and
        // delivery works.
        let mut m = mpi(2, 2);
        let b = m.fresh_buf(0);
        let fx = m.isend(0, 0, 0, 0, Bytes::from_static(b"z"), b);
        let rbuf = m.fresh_buf(0);
        let t = fx.wakes.first().map(|w| w.1).unwrap_or(10_000);
        let out = m.recv(t.max(10_000), 0, None, None, rbuf);
        assert!(out.is_some());
    }
}
