//! Simulated user-level Generic Network Interface (uGNI).
//!
//! This crate substitutes for Cray's `libugni` (see DESIGN.md §1): the same
//! API shape — endpoints, completion queues, memory registration, SMSG,
//! FMA/BTE posts — implemented over the [`gemini_net`] timing model. The
//! machine layers (`lrts-ugni`, `mpi-sim`) are written against this API
//! exactly as the paper's machine layer is written against real uGNI, and
//! share its control frames ([`RdvFrame`], [`XidFrame`]) and retry pace
//! ([`next_backoff`]).
//!
//! Two simulation-specific conventions:
//!
//! * **No daemon threads.** Every call returns the timestamps of the events
//!   it causes ([`SmsgSendOk::deliver_at`], [`PostOk::local_cq_at`]); the
//!   runtime driver schedules progress wake-ups from them. Polling a CQ or
//!   mailbox "too early" returns [`GniError::NotDone`], as on real hardware.
//! * **Payload transport.** Registered memory can hold content
//!   ([`Gni::mem_write`]); a GET returns the remote content, a PUT deposits
//!   its payload into remote memory. This models RDMA data movement without
//!   a real address space.

mod ctrl;
pub(crate) mod types;

use bytes::Bytes;
use gemini_net::{
    Addr, Fabric, FaultKind, GeminiParams, Mechanism, MemHandle, NodeId, RdmaOp, SmsgError,
    SmsgOutcome,
};
use sim_core::queue::HeapQueue;
use sim_core::{DetHashMap, Time};

pub use ctrl::{next_backoff, RdvFrame, XidFrame};
pub use types::*;

struct Endpoint {
    local: NodeId,
    remote: NodeId,
    /// Process-level connection key: (local instance, remote instance).
    /// Mailbox credits and RX queues are per instance (PE), matching the
    /// paper's per-process peer-to-peer connections.
    conn: (u32, u32),
    cq: CqHandle,
}

#[derive(Default)]
struct Cq {
    /// CQs and mailboxes hold a handful of events each and there are
    /// thousands of them: a plain heap, not the engine's tick wheel.
    events: HeapQueue<CqEvent>,
    /// Overrun error state (`GNI_CQ_OVERRUN`): set when an event arrives
    /// past the configured depth, cleared only by [`Gni::cq_resync`].
    overrun: bool,
    /// Events that fell off the queue during the overrun, kept so a resync
    /// can audit outstanding transactions and recover them.
    lost: Vec<(Time, CqEvent)>,
}

/// The per-job uGNI instance: owns the fabric and all handles.
pub struct Gni {
    fabric: Fabric,
    cqs: Vec<Cq>,
    eps: Vec<Endpoint>,
    /// Per-(node, instance) inbound SMSG mailboxes (time-ordered).
    #[allow(clippy::type_complexity)]
    rx: DetHashMap<(NodeId, u32), HeapQueue<(u8, u32, Bytes)>>,
    /// Per-node shared MSGQ queues: (tag, from_inst, dst_inst, data).
    msgq_rx: DetHashMap<NodeId, HeapQueue<(u8, u32, u32, Bytes)>>,
    /// Content of simulated buffers, keyed by address (blocks carved from
    /// one registered slab have distinct addresses), for RDMA data
    /// movement.
    contents: DetHashMap<(NodeId, Addr), Bytes>,
    /// Per-node bump allocator for simulated addresses.
    next_addr: Vec<u64>,
    /// One-shot latch for `FaultPlan::force_cq_overrun_at`.
    forced_overrun_done: bool,
    /// Lifetime count of CQ overrun episodes.
    pub(crate) cq_overruns: u64,
}

impl Gni {
    /// Bring up uGNI on a fabric spanning `job_nodes` nodes, with the torus
    /// shaped to the job.
    pub fn new(params: GeminiParams, job_nodes: u32) -> Self {
        Self::with_fabric(Fabric::for_job(params, job_nodes))
    }

    /// Bring up uGNI on an explicitly shaped fabric.
    pub fn with_fabric(fabric: Fabric) -> Self {
        let n = fabric.job_nodes() as usize;
        Gni {
            fabric,
            cqs: Vec::new(),
            eps: Vec::new(),
            rx: DetHashMap::default(),
            msgq_rx: DetHashMap::default(),
            contents: DetHashMap::default(),
            next_addr: (0..n).map(|i| (i as u64 + 1) << 44).collect(),
            forced_overrun_done: false,
            cq_overruns: 0,
        }
    }

    pub fn params(&self) -> &GeminiParams {
        &self.fabric.params
    }

    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    pub fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    pub(crate) fn job_nodes(&self) -> u32 {
        self.fabric.job_nodes()
    }

    /// `GNI_CqCreate`.
    pub fn cq_create(&mut self) -> CqHandle {
        self.cqs.push(Cq::default());
        CqHandle(self.cqs.len() as u32 - 1)
    }

    /// `GNI_EpCreate` + `GNI_EpBind`: endpoint from `local` to `remote`,
    /// with local completions delivered to `cq`. Instances default to the
    /// node ids (one process per node). Binding to an unknown CQ or node
    /// is a contract violation, reported as a typed error.
    pub fn ep_create(
        &mut self,
        local: NodeId,
        remote: NodeId,
        cq: CqHandle,
    ) -> GniResult<EpHandle> {
        self.ep_create_inst(local, local, remote, remote, cq)
    }

    /// Endpoint between two *process instances* (e.g. PEs). Credits and RX
    /// mailboxes are per instance pair.
    pub fn ep_create_inst(
        &mut self,
        local: NodeId,
        local_inst: u32,
        remote: NodeId,
        remote_inst: u32,
        cq: CqHandle,
    ) -> GniResult<EpHandle> {
        if (cq.0 as usize) >= self.cqs.len() {
            return Err(GniError::InvalidHandle);
        }
        if local >= self.job_nodes() || remote >= self.job_nodes() {
            return Err(GniError::InvalidNode);
        }
        self.eps.push(Endpoint {
            local,
            remote,
            conn: (local_inst, remote_inst),
            cq,
        });
        Ok(EpHandle(self.eps.len() as u32 - 1))
    }

    /// Allocate a fresh simulated buffer address on `node` (stand-in for
    /// the application's `malloc` result; costs are modeled separately).
    pub fn alloc_addr(&mut self, node: NodeId) -> GniResult<Addr> {
        let slot = self
            .next_addr
            .get_mut(node as usize)
            .ok_or(GniError::InvalidNode)?;
        let a = *slot;
        *slot += 1 << 24;
        Ok(Addr(a))
    }

    /// `GNI_MemRegister`: returns the handle and the CPU cost. Under an
    /// active fault plan the NIC's descriptor table can be transiently
    /// exhausted ([`GniError::ResourceError`]); callers fall back to
    /// pre-registered memory or retry later.
    pub fn mem_register(
        &mut self,
        node: NodeId,
        addr: Addr,
        bytes: u64,
    ) -> GniResult<(MemHandle, Time)> {
        if self.fabric.reg_fault_roll() {
            return Err(GniError::ResourceError);
        }
        Ok(self.fabric.register(node, addr, bytes))
    }

    /// `GNI_MemDeregister`: returns the CPU cost. Deregistering an unknown
    /// or already-released handle is reported, not fatal.
    pub fn mem_deregister(&mut self, node: NodeId, h: MemHandle) -> GniResult<Time> {
        self.fabric
            .deregister(node, h)
            .map_err(|_| GniError::InvalidHandle)
    }

    /// Store content into a simulated buffer (the side channel for RDMA
    /// payloads).
    pub fn mem_write(&mut self, node: NodeId, addr: Addr, data: Bytes) {
        self.contents.insert((node, addr), data);
    }

    /// Read content back out of a simulated buffer.
    pub fn mem_read(&self, node: NodeId, addr: Addr) -> Option<Bytes> {
        self.contents.get(&(node, addr)).cloned()
    }

    /// Drop a buffer's content (free).
    pub fn mem_clear(&mut self, node: NodeId, addr: Addr) {
        self.contents.remove(&(node, addr));
    }

    /// Buffers currently holding content (diagnostics: must track what is
    /// in flight, not how long the run has been going).
    pub fn contents_len(&self) -> usize {
        self.contents.len()
    }

    /// Effective SMSG payload limit for this job size.
    pub fn smsg_limit(&self) -> u32 {
        self.fabric.smsg_limit()
    }

    /// `GNI_SmsgSendWTag`.
    pub fn smsg_send_w_tag(
        &mut self,
        now: Time,
        ep: EpHandle,
        tag: u8,
        data: Bytes,
    ) -> GniResult<SmsgSendOk> {
        let (local, remote, conn) = {
            let e = self.eps.get(ep.0 as usize).ok_or(GniError::InvalidHandle)?;
            (e.local, e.remote, e.conn)
        };
        let res = self
            .fabric
            .smsg_send(now, local, remote, conn, data.len() as u64);
        small_result(res, |at| {
            self.rx
                .entry((remote, conn.1))
                .or_default()
                .push(at, (tag, conn.0, data))
        })
    }

    /// `GNI_SmsgGetNextWTag`: drain the next delivered SMSG addressed to
    /// `(node, inst)`, if one is ready at `now`.
    pub fn smsg_get_next_w_tag(
        &mut self,
        node: NodeId,
        inst: u32,
        now: Time,
    ) -> GniResult<SmsgRecv> {
        let Some(q) = self.rx.get_mut(&(node, inst)) else {
            return Err(GniError::NotDone);
        };
        match q.peek_time() {
            Some(t) if t <= now => {
                let (_, (tag, from_inst, data)) = q
                    .pop()
                    .ok_or(GniError::Internal("smsg mailbox peek/pop desync"))?;
                let cpu = self.fabric.smsg_recv_cost(data.len() as u64);
                Ok(SmsgRecv {
                    tag,
                    from_inst,
                    data,
                    cpu,
                })
            }
            _ => Err(GniError::NotDone),
        }
    }

    /// Earliest time a pending SMSG becomes pollable at `(node, inst)`.
    pub fn smsg_next_arrival(&self, node: NodeId, inst: u32) -> Option<Time> {
        self.rx.get(&(node, inst)).and_then(|q| q.peek_time())
    }

    /// Send through the shared per-node message queue (MSGQ, paper §II-B):
    /// cheaper mailbox memory at scale, slower per message.
    pub fn msgq_send_w_tag(
        &mut self,
        now: Time,
        ep: EpHandle,
        tag: u8,
        data: Bytes,
    ) -> GniResult<SmsgSendOk> {
        let (local, remote, conn) = {
            let e = self.eps.get(ep.0 as usize).ok_or(GniError::InvalidHandle)?;
            (e.local, e.remote, e.conn)
        };
        let res = self.fabric.msgq_send(now, local, remote, data.len() as u64);
        small_result(res, |at| {
            self.msgq_rx
                .entry(remote)
                .or_default()
                .push(at, (tag, conn.0, conn.1, data))
        })
    }

    /// Earliest pending MSGQ arrival on `node`.
    pub fn msgq_next_arrival(&self, node: NodeId) -> Option<Time> {
        self.msgq_rx.get(&node).and_then(|q| q.peek_time())
    }

    /// Drain the next MSGQ message on `node`; also returns the destination
    /// instance the sender addressed (the shared queue is demultiplexed in
    /// software).
    pub fn msgq_get_next_w_tag(&mut self, node: NodeId, now: Time) -> GniResult<(SmsgRecv, u32)> {
        let Some(q) = self.msgq_rx.get_mut(&node) else {
            return Err(GniError::NotDone);
        };
        match q.peek_time() {
            Some(t) if t <= now => {
                let (_, (tag, from_inst, dst_inst, data)) =
                    q.pop().ok_or(GniError::Internal("msgq peek/pop desync"))?;
                let cpu = self.fabric.msgq_recv_cost(data.len() as u64);
                Ok((
                    SmsgRecv {
                        tag,
                        from_inst,
                        data,
                        cpu,
                    },
                    dst_inst,
                ))
            }
            _ => Err(GniError::NotDone),
        }
    }

    /// `GNI_PostFma`: execute a transaction through the FMA window.
    pub fn post_fma(&mut self, now: Time, ep: EpHandle, desc: PostDescriptor) -> GniResult<PostOk> {
        self.post(now, ep, desc, Mechanism::Fma)
    }

    /// `GNI_PostRdma`: hand a descriptor to the BTE.
    pub fn post_rdma(
        &mut self,
        now: Time,
        ep: EpHandle,
        desc: PostDescriptor,
    ) -> GniResult<PostOk> {
        self.post(now, ep, desc, Mechanism::Bte)
    }

    fn post(
        &mut self,
        now: Time,
        ep: EpHandle,
        desc: PostDescriptor,
        mech: Mechanism,
    ) -> GniResult<PostOk> {
        let (local, remote, cq) = {
            let e = self.eps.get(ep.0 as usize).ok_or(GniError::InvalidHandle)?;
            (e.local, e.remote, e.cq)
        };
        if !self
            .fabric
            .reg_table_ref(local)
            .is_registered(desc.local_mem)
            || !self
                .fabric
                .reg_table_ref(remote)
                .is_registered(desc.remote_mem)
        {
            return Err(GniError::NotRegistered);
        }

        let out = self
            .fabric
            .rdma(now, local, remote, desc.bytes, mech, desc.op);

        if let Some(kind) = out.fault {
            // Failure surfaces asynchronously at the CQ, as on real
            // hardware: the post itself succeeds, the error event carries
            // the descriptor's user_id so the initiator can re-post. A
            // corrupted completion still moved the data.
            if kind == FaultKind::CorruptDelivered {
                self.move_rdma_data(local, remote, &desc);
            }
            self.cq_push(
                cq,
                out.local_cq_at,
                CqEvent::PostError {
                    user_id: desc.user_id,
                    op: desc.op,
                    kind,
                },
            );
            return Ok(PostOk {
                cpu: out.cpu,
                local_cq_at: out.local_cq_at,
                data_at: out.data_at,
            });
        }

        let data = self.move_rdma_data(local, remote, &desc);
        self.cq_push(
            cq,
            out.local_cq_at,
            CqEvent::PostDone {
                user_id: desc.user_id,
                op: desc.op,
                data,
            },
        );

        Ok(PostOk {
            cpu: out.cpu,
            local_cq_at: out.local_cq_at,
            data_at: out.data_at,
        })
    }

    /// Perform the simulated data movement for a post: GET copies remote
    /// content into local memory (and returns it for the CQ event), PUT
    /// deposits the descriptor's payload into remote memory.
    fn move_rdma_data(
        &mut self,
        local: NodeId,
        remote: NodeId,
        desc: &PostDescriptor,
    ) -> Option<Bytes> {
        match desc.op {
            RdmaOp::Get => {
                let d = self.contents.get(&(remote, desc.remote_addr)).cloned();
                if let Some(ref d) = d {
                    self.contents.insert((local, desc.local_addr), d.clone());
                }
                d
            }
            RdmaOp::Put => {
                if let Some(ref d) = desc.data {
                    self.contents.insert((remote, desc.remote_addr), d.clone());
                }
                desc.data.clone()
            }
        }
    }

    /// Append a completion to a CQ, honoring the fault plan's queue depth
    /// and forced-overrun point. Once a CQ overruns, further completions
    /// are lost (kept aside for [`Gni::cq_resync`]) until the owner
    /// recovers the queue.
    fn cq_push(&mut self, cq: CqHandle, at: Time, ev: CqEvent) {
        let depth = self.fabric.params.fault.cq_depth;
        let forced = !self.forced_overrun_done
            && self
                .fabric
                .params
                .fault
                .force_cq_overrun_at
                .is_some_and(|t| at >= t);
        if forced {
            self.forced_overrun_done = true;
        }
        let q = &mut self.cqs[cq.0 as usize];
        let over_depth = depth > 0 && q.events.len() as u32 >= depth;
        if q.overrun || over_depth || forced {
            if !q.overrun {
                q.overrun = true;
                self.cq_overruns += 1;
            }
            q.lost.push((at, ev));
            return;
        }
        q.events.push(at, ev);
    }

    /// `GNI_CqGetEvent`: poll a CQ. Returns `NotDone` when no event is
    /// ready at `now`. The poll itself costs [`Gni::cq_poll_cost`].
    /// An overrun CQ reports [`GniError::CqOverrun`] on every poll until
    /// the owner calls [`Gni::cq_resync`].
    pub fn cq_get_event(&mut self, cq: CqHandle, now: Time) -> GniResult<CqEvent> {
        let c = self
            .cqs
            .get_mut(cq.0 as usize)
            .ok_or(GniError::InvalidHandle)?;
        if c.overrun {
            return Err(GniError::CqOverrun);
        }
        match c.events.peek_time() {
            Some(t) if t <= now => c
                .events
                .pop()
                .map(|(_, ev)| ev)
                .ok_or(GniError::Internal("cq peek/pop desync")),
            _ => Err(GniError::NotDone),
        }
    }

    /// Recover an overrun CQ: audit outstanding transactions and reinsert
    /// the completions that fell off the queue (they become pollable no
    /// earlier than `now`). Returns the CPU cost of the audit and the
    /// number of events recovered. Safe to call on a healthy CQ (audits
    /// nothing, still pays the two bookkeeping polls).
    pub fn cq_resync(&mut self, cq: CqHandle, now: Time) -> GniResult<(Time, u32)> {
        let poll = self.fabric.params.cq_poll_cpu;
        let c = self
            .cqs
            .get_mut(cq.0 as usize)
            .ok_or(GniError::InvalidHandle)?;
        let lost = std::mem::take(&mut c.lost);
        let n = lost.len() as u32;
        for (t, ev) in lost {
            c.events.push(t.max(now), ev);
        }
        c.overrun = false;
        Ok((poll * (n as Time + 2), n))
    }

    /// Earliest pending event time on a CQ, counting events stranded by an
    /// overrun (so progress engines keep polling and reach the resync).
    pub fn cq_next_ready(&self, cq: CqHandle) -> Option<Time> {
        self.cqs.get(cq.0 as usize).and_then(|c| {
            let queued = c.events.peek_time();
            let lost = c.lost.iter().map(|(t, _)| *t).min();
            match (queued, lost) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            }
        })
    }

    /// CPU cost of one CQ poll.
    pub fn cq_poll_cost(&self) -> Time {
        self.fabric.params.cq_poll_cpu
    }
}

/// The uGNI result of a fabric small send (SMSG or MSGQ). `land(at)` queues
/// the payload at the receiver for `at`; it runs only when the payload
/// lands: on success, and on a corrupted completion, whose resend will
/// then duplicate it (receivers dedup by sequence number).
fn small_result(
    res: Result<SmsgOutcome, SmsgError>,
    land: impl FnOnce(Time),
) -> GniResult<SmsgSendOk> {
    match res {
        Ok(SmsgOutcome { cpu, deliver_at }) => {
            land(deliver_at);
            Ok(SmsgSendOk { cpu, deliver_at })
        }
        Err(SmsgError::NoCredits { retry_at }) => Err(GniError::NoCredits { retry_at }),
        Err(SmsgError::TooLarge { limit }) => Err(GniError::TooLarge { limit }),
        Err(SmsgError::TransactionError {
            kind,
            cpu,
            error_at,
            delivered_at,
        }) => {
            if let Some(at) = delivered_at {
                land(at);
            }
            Err(GniError::TransactionError {
                kind,
                cpu,
                error_at,
                delivered_at,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemini_net::GeminiParams;

    fn gni() -> Gni {
        Gni::new(GeminiParams::test_small(), 8)
    }

    #[test]
    fn smsg_round_trip_carries_payload() {
        let mut g = gni();
        let cq = g.cq_create();
        let ep = g.ep_create(0, 1, cq).unwrap();
        let sent = g
            .smsg_send_w_tag(0, ep, 7, Bytes::from_static(b"hello"))
            .unwrap();
        // Too early: not pollable.
        assert_eq!(
            g.smsg_get_next_w_tag(1, 1, sent.deliver_at - 1)
                .unwrap_err(),
            GniError::NotDone
        );
        let rx = g.smsg_get_next_w_tag(1, 1, sent.deliver_at).unwrap();
        assert_eq!(rx.tag, 7);
        assert_eq!(rx.from_inst, 0);
        assert_eq!(&rx.data[..], b"hello");
        assert!(rx.cpu > 0);
        // Mailbox drained.
        assert_eq!(
            g.smsg_get_next_w_tag(1, 1, sent.deliver_at).unwrap_err(),
            GniError::NotDone
        );
    }

    #[test]
    fn smsg_respects_job_size_limit() {
        let mut g = gni();
        let cq = g.cq_create();
        let ep = g.ep_create(0, 1, cq).unwrap();
        let limit = g.smsg_limit() as usize;
        let too_big = Bytes::from(vec![0u8; limit + 1]);
        assert!(matches!(
            g.smsg_send_w_tag(0, ep, 0, too_big),
            Err(GniError::TooLarge { .. })
        ));
    }

    #[test]
    fn get_reads_remote_content() {
        let mut g = gni();
        let cq = g.cq_create();
        let ep = g.ep_create(1, 0, cq).unwrap(); // node 1 GETs from node 0
        let payload = Bytes::from(vec![0xABu8; 8192]);

        let a0 = g.alloc_addr(0).unwrap();
        let (h0, _) = g.mem_register(0, a0, 8192).unwrap();
        g.mem_write(0, a0, payload.clone());

        let a1 = g.alloc_addr(1).unwrap();
        let (h1, _) = g.mem_register(1, a1, 8192).unwrap();

        let ok = g
            .post_rdma(
                0,
                ep,
                PostDescriptor {
                    op: RdmaOp::Get,
                    local_mem: h1,
                    local_addr: a1,
                    remote_mem: h0,
                    remote_addr: a0,
                    bytes: 8192,
                    data: None,
                    user_id: 42,
                },
            )
            .unwrap();

        assert_eq!(
            g.cq_get_event(cq, ok.local_cq_at - 1).unwrap_err(),
            GniError::NotDone
        );
        match g.cq_get_event(cq, ok.local_cq_at).unwrap() {
            CqEvent::PostDone { user_id, op, data } => {
                assert_eq!(user_id, 42);
                assert_eq!(op, RdmaOp::Get);
                assert_eq!(data.unwrap(), payload);
            }
            e => panic!("unexpected {e:?}"),
        }
        // Content also landed in local registered memory.
        assert_eq!(g.mem_read(1, a1).unwrap(), payload);
    }

    #[test]
    fn put_deposits_into_remote_memory() {
        let mut g = gni();
        let cq = g.cq_create();
        let ep = g.ep_create(0, 1, cq).unwrap();
        let payload = Bytes::from(vec![3u8; 4096]);

        let a0 = g.alloc_addr(0).unwrap();
        let (h0, _) = g.mem_register(0, a0, 4096).unwrap();
        g.mem_write(0, a0, payload.clone());
        let a1 = g.alloc_addr(1).unwrap();
        let (h1, _) = g.mem_register(1, a1, 4096).unwrap();

        let ok = g
            .post_fma(
                0,
                ep,
                PostDescriptor {
                    op: RdmaOp::Put,
                    local_mem: h0,
                    local_addr: a0,
                    remote_mem: h1,
                    remote_addr: a1,
                    bytes: 4096,
                    data: Some(payload.clone()),
                    user_id: 1,
                },
            )
            .unwrap();
        assert!(ok.data_at <= ok.local_cq_at);
        assert_eq!(g.mem_read(1, a1).unwrap(), payload);
    }

    #[test]
    fn post_requires_registration() {
        let mut g = gni();
        let cq = g.cq_create();
        let ep = g.ep_create(0, 1, cq).unwrap();
        let a0 = g.alloc_addr(0).unwrap();
        let (h0, _) = g.mem_register(0, a0, 64).unwrap();
        let bogus = MemHandle(999);
        let desc = PostDescriptor {
            op: RdmaOp::Put,
            local_mem: h0,
            local_addr: a0,
            remote_mem: bogus,
            remote_addr: Addr(0),
            bytes: 64,
            data: None,
            user_id: 0,
        };
        assert_eq!(
            g.post_fma(0, ep, desc).unwrap_err(),
            GniError::NotRegistered
        );
    }

    #[test]
    fn deregister_forbids_rdma() {
        let mut g = gni();
        let cq = g.cq_create();
        let ep = g.ep_create(1, 0, cq).unwrap();
        let a0 = g.alloc_addr(0).unwrap();
        let (h0, _) = g.mem_register(0, a0, 64).unwrap();
        g.mem_write(0, a0, Bytes::from_static(b"x"));
        g.mem_deregister(0, h0).unwrap();
        g.mem_clear(0, a0);
        assert!(g.mem_read(0, a0).is_none());
        let a1 = g.alloc_addr(1).unwrap();
        let (h1, _) = g.mem_register(1, a1, 64).unwrap();
        let desc = PostDescriptor {
            op: RdmaOp::Get,
            local_mem: h1,
            local_addr: a1,
            remote_mem: h0,
            remote_addr: a0,
            bytes: 64,
            data: None,
            user_id: 0,
        };
        assert_eq!(
            g.post_rdma(0, ep, desc).unwrap_err(),
            GniError::NotRegistered
        );
    }

    #[test]
    fn smsg_fifo_order_preserved_at_receiver() {
        let mut g = gni();
        let cq = g.cq_create();
        let ep = g.ep_create(0, 1, cq).unwrap();
        let mut last_deliver = 0;
        for i in 0..4u8 {
            let ok = g
                .smsg_send_w_tag(i as Time * 10, ep, i, Bytes::from(vec![i]))
                .unwrap();
            last_deliver = last_deliver.max(ok.deliver_at);
        }
        for i in 0..4u8 {
            let rx = g.smsg_get_next_w_tag(1, 1, last_deliver).unwrap();
            assert_eq!(rx.tag, i, "FIFO violated");
        }
    }

    #[test]
    fn credit_exhaustion_surfaces() {
        let mut g = gni();
        let cq = g.cq_create();
        let ep = g.ep_create(0, 1, cq).unwrap();
        let credits = g.fabric().params.smsg_credits;
        for _ in 0..credits {
            g.smsg_send_w_tag(0, ep, 0, Bytes::new()).unwrap();
        }
        match g.smsg_send_w_tag(0, ep, 0, Bytes::new()) {
            Err(GniError::NoCredits { retry_at }) => assert!(retry_at > 0),
            other => panic!("expected NoCredits, got {other:?}"),
        }
    }

    #[test]
    fn invalid_handles_are_rejected() {
        let mut g = gni();
        assert_eq!(
            g.cq_get_event(CqHandle(99), 0).unwrap_err(),
            GniError::InvalidHandle
        );
        assert!(matches!(
            g.smsg_send_w_tag(0, EpHandle(99), 0, Bytes::new()),
            Err(GniError::InvalidHandle)
        ));
    }

    #[test]
    fn cq_next_ready_reports_pending() {
        let mut g = gni();
        let cq = g.cq_create();
        let ep = g.ep_create(0, 1, cq).unwrap();
        assert_eq!(g.cq_next_ready(cq), None);
        let a0 = g.alloc_addr(0).unwrap();
        let (h0, _) = g.mem_register(0, a0, 64).unwrap();
        g.mem_write(0, a0, Bytes::from_static(b"y"));
        let a1 = g.alloc_addr(1).unwrap();
        let (h1, _) = g.mem_register(1, a1, 64).unwrap();
        let ok = g
            .post_fma(
                0,
                ep,
                PostDescriptor {
                    op: RdmaOp::Put,
                    local_mem: h0,
                    local_addr: a0,
                    remote_mem: h1,
                    remote_addr: a1,
                    bytes: 64,
                    data: Some(Bytes::from_static(b"y")),
                    user_id: 5,
                },
            )
            .unwrap();
        assert_eq!(g.cq_next_ready(cq), Some(ok.local_cq_at));
    }

    #[test]
    fn msgq_round_trip_and_slower_than_smsg() {
        let mut g = gni();
        let cq = g.cq_create();
        let ep = g.ep_create_inst(0, 10, 1, 11, cq).unwrap();
        let smsg = g
            .smsg_send_w_tag(0, ep, 3, Bytes::from_static(b"fast"))
            .unwrap();
        let msgq = g
            .msgq_send_w_tag(0, ep, 4, Bytes::from_static(b"slow"))
            .unwrap();
        assert!(msgq.deliver_at > smsg.deliver_at);
        let (rx, dst) = g.msgq_get_next_w_tag(1, msgq.deliver_at).unwrap();
        assert_eq!(rx.tag, 4);
        assert_eq!(rx.from_inst, 10);
        assert_eq!(dst, 11);
        assert_eq!(&rx.data[..], b"slow");
        assert!(matches!(
            g.msgq_get_next_w_tag(1, msgq.deliver_at),
            Err(GniError::NotDone)
        ));
    }

    #[test]
    fn distinct_addrs_per_node() {
        let mut g = gni();
        let a = g.alloc_addr(0).unwrap();
        let b = g.alloc_addr(0).unwrap();
        let c = g.alloc_addr(1).unwrap();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    // ---- fault injection ----

    fn gni_with_fault(f: impl FnOnce(&mut gemini_net::FaultPlan)) -> Gni {
        let mut p = GeminiParams::test_small();
        f(&mut p.fault);
        Gni::new(p, 8)
    }

    fn put_desc(
        h0: MemHandle,
        a0: Addr,
        h1: MemHandle,
        a1: Addr,
        bytes: u64,
        user_id: u64,
    ) -> PostDescriptor {
        PostDescriptor {
            op: RdmaOp::Put,
            local_mem: h0,
            local_addr: a0,
            remote_mem: h1,
            remote_addr: a1,
            bytes,
            data: Some(Bytes::from(vec![0x5Au8; bytes as usize])),
            user_id,
        }
    }

    #[test]
    fn corrupt_smsg_error_still_delivers_payload() {
        let mut g = gni_with_fault(|f| {
            f.seed = 42;
            f.smsg_corrupt = 1.0;
        });
        let cq = g.cq_create();
        let ep = g.ep_create(0, 1, cq).unwrap();
        let err = g
            .smsg_send_w_tag(0, ep, 9, Bytes::from_static(b"dup"))
            .unwrap_err();
        let GniError::TransactionError {
            kind, delivered_at, ..
        } = err
        else {
            panic!("expected TransactionError, got {err:?}");
        };
        assert_eq!(kind, FaultKind::CorruptDelivered);
        let at = delivered_at.expect("corrupt delivery still lands");
        let rx = g.smsg_get_next_w_tag(1, 1, at).unwrap();
        assert_eq!(rx.tag, 9);
        assert_eq!(&rx.data[..], b"dup");
    }

    #[test]
    fn dropped_rdma_surfaces_post_error_on_cq() {
        let mut g = gni_with_fault(|f| {
            f.seed = 7;
            f.fma_drop = 1.0;
        });
        let cq = g.cq_create();
        let ep = g.ep_create(0, 1, cq).unwrap();
        let a0 = g.alloc_addr(0).unwrap();
        let (h0, _) = g.mem_register(0, a0, 256).unwrap();
        let a1 = g.alloc_addr(1).unwrap();
        let (h1, _) = g.mem_register(1, a1, 256).unwrap();
        let ok = g
            .post_fma(0, ep, put_desc(h0, a0, h1, a1, 256, 77))
            .unwrap();
        match g.cq_get_event(cq, ok.local_cq_at).unwrap() {
            CqEvent::PostError { user_id, op, kind } => {
                assert_eq!(user_id, 77);
                assert_eq!(op, RdmaOp::Put);
                assert_eq!(kind, FaultKind::Dropped);
            }
            e => panic!("expected PostError, got {e:?}"),
        }
        // Dropped means dropped: nothing landed in remote memory.
        assert!(g.mem_read(1, a1).is_none());
    }

    #[test]
    fn cq_overrun_is_sticky_until_resync() {
        let mut g = gni_with_fault(|f| f.cq_depth = 1);
        let cq = g.cq_create();
        let ep = g.ep_create(0, 1, cq).unwrap();
        let a0 = g.alloc_addr(0).unwrap();
        let (h0, _) = g.mem_register(0, a0, 64).unwrap();
        let a1 = g.alloc_addr(1).unwrap();
        let (h1, _) = g.mem_register(1, a1, 64).unwrap();
        let ok1 = g.post_fma(0, ep, put_desc(h0, a0, h1, a1, 64, 1)).unwrap();
        let ok2 = g.post_fma(0, ep, put_desc(h0, a0, h1, a1, 64, 2)).unwrap();
        assert_eq!(g.cq_overruns, 1);
        let late = ok1.local_cq_at.max(ok2.local_cq_at) + 1_000;
        // The error state masks the queue and persists across polls.
        assert_eq!(g.cq_get_event(cq, late).unwrap_err(), GniError::CqOverrun);
        assert_eq!(g.cq_get_event(cq, late).unwrap_err(), GniError::CqOverrun);
        // Progress engines still see pending work, so they reach the resync.
        assert!(g.cq_next_ready(cq).is_some());
        let (cpu, recovered) = g.cq_resync(cq, late).unwrap();
        assert!(cpu > 0);
        assert_eq!(recovered, 1);
        // Both completions are recoverable after the resync.
        let mut ids = Vec::new();
        while let Ok(ev) = g.cq_get_event(cq, late) {
            match ev {
                CqEvent::PostDone { user_id, .. } => ids.push(user_id),
                e => panic!("unexpected {e:?}"),
            }
        }
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn forced_overrun_fires_exactly_once() {
        let mut g = gni_with_fault(|f| f.force_cq_overrun_at = Some(0));
        let cq = g.cq_create();
        let ep = g.ep_create(0, 1, cq).unwrap();
        let a0 = g.alloc_addr(0).unwrap();
        let (h0, _) = g.mem_register(0, a0, 64).unwrap();
        let a1 = g.alloc_addr(1).unwrap();
        let (h1, _) = g.mem_register(1, a1, 64).unwrap();
        let ok1 = g.post_fma(0, ep, put_desc(h0, a0, h1, a1, 64, 1)).unwrap();
        assert_eq!(
            g.cq_get_event(cq, ok1.local_cq_at).unwrap_err(),
            GniError::CqOverrun
        );
        let (_, recovered) = g.cq_resync(cq, ok1.local_cq_at).unwrap();
        assert_eq!(recovered, 1);
        // One-shot: the next completion is delivered normally.
        let ok2 = g
            .post_fma(ok1.local_cq_at, ep, put_desc(h0, a0, h1, a1, 64, 2))
            .unwrap();
        assert!(matches!(
            g.cq_get_event(cq, ok2.local_cq_at),
            Ok(CqEvent::PostDone { .. })
        ));
        assert_eq!(g.cq_overruns, 1);
    }

    #[test]
    fn register_resource_exhaustion_reported() {
        let mut g = gni_with_fault(|f| {
            f.seed = 3;
            f.reg_fail = 1.0;
        });
        let a = g.alloc_addr(0).unwrap();
        assert_eq!(
            g.mem_register(0, a, 64).unwrap_err(),
            GniError::ResourceError
        );
    }
}
