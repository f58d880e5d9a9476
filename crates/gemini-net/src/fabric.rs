//! The fabric: NIC front-ends (SMSG credits, FMA unit, BTE engine) bound to
//! the routed torus. This is the timing oracle the simulated uGNI API is
//! built on: every call returns *when* things complete and *how much CPU*
//! the initiating core burned, and the caller (the runtime driver) turns
//! those into discrete events.

use crate::fault::FaultKind;
use crate::links::LinkTable;
use crate::params::{GeminiParams, Mechanism, RdmaOp};
use crate::reg::{Addr, DeregError, MemHandle, RegTable};
use crate::topology::{NodeId, Torus, Walk};
use sim_core::{DetHashMap, DetRng, LazyVec, Time};
use std::collections::VecDeque;

/// Why an SMSG send could not be accepted right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmsgError {
    /// All mailbox credits for this connection are in flight; retry not
    /// before the embedded time.
    NoCredits { retry_at: Time },
    /// Payload exceeds the job-size-dependent SMSG limit.
    TooLarge { limit: u32 },
    /// An injected fault ate the transaction. `cpu` was still burned by the
    /// sender, the failure is reported to the sender's NIC at `error_at`,
    /// and when `delivered_at` is `Some` the payload *did* land at the
    /// receiver (corrupted completion): resending will duplicate it, so
    /// receivers need dedup.
    TransactionError {
        kind: FaultKind,
        cpu: Time,
        error_at: Time,
        delivered_at: Option<Time>,
    },
}

/// Result of an accepted SMSG send.
#[derive(Debug, Clone, Copy)]
pub struct SmsgOutcome {
    /// CPU time the sending core spent (charge as overhead).
    pub cpu: Time,
    /// When the message lands in the destination mailbox (remote CQ event).
    pub deliver_at: Time,
}

/// Result of an RDMA transaction post.
#[derive(Debug, Clone, Copy)]
pub struct RdmaOutcome {
    /// CPU time the initiating core spent.
    pub cpu: Time,
    /// When the initiator's completion queue sees the transaction done —
    /// or, for a faulted transaction, sees the error event.
    pub local_cq_at: Time,
    /// When the data is fully visible at the data-destination node
    /// (== `local_cq_at` for GET, the remote landing time for PUT).
    /// Meaningless unless the fault is `None` or `CorruptDelivered`.
    pub data_at: Time,
    /// Injected failure, if any. `Dropped`/`LinkDown` moved no data;
    /// `CorruptDelivered` moved the data but the completion is an error.
    pub fault: Option<FaultKind>,
}

#[derive(Debug, Default)]
struct SmsgConn {
    /// Times at which in-flight mailbox slots free up (credit returns).
    in_flight: VecDeque<Time>,
}

/// Aggregate traffic counters.
#[derive(Debug, Default, Clone)]
pub struct FabricStats {
    pub smsg_sends: u64,
    pub msgq_sends: u64,
    pub(crate) smsg_bytes: u64,
    pub fma_transactions: u64,
    pub bte_transactions: u64,
    pub rdma_bytes: u64,
    pub credit_stalls: u64,
    /// Injected SMSG/MSGQ transaction faults (drop + corrupt).
    pub faults_smsg: u64,
    /// Injected FMA/BTE transaction faults (drop + corrupt).
    pub faults_rdma: u64,
    /// Transactions refused because their route crossed a downed link.
    pub faults_link_down: u64,
    /// Transactions refused because an endpoint node was inside a crash
    /// window: its NIC was not servicing any engine.
    pub faults_node_down: u64,
    /// Injected `GNI_MemRegister` resource failures.
    pub(crate) faults_reg: u64,
}

/// Materialization grain for per-node NIC state (same reasoning as
/// `links::LINK_PAGE`: sparse jobs touch scattered nodes).
pub(crate) const NODE_PAGE: usize = 64;

/// When one engine is next free in each direction: the hardware is full
/// duplex, so opposite directions never contend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Engine {
    tx: Time,
    rx: Time,
}

/// One node's NIC: its FMA unit and BTE engine, indexed by [`Mechanism`]
/// (SMSG and FMA transactions share the FMA unit), and its registration
/// table.
#[derive(Debug, Default, PartialEq)]
struct NodeNic {
    engines: [Engine; 2],
    reg: RegTable,
}

/// The simulated interconnect.
#[derive(Debug)]
pub struct Fabric {
    pub params: GeminiParams,
    pub topo: Torus,
    links: LinkTable,
    /// Per-node NICs, lazily paged: a node's record materializes on its
    /// first gated transaction or registration.
    nics: LazyVec<NodeNic, NODE_PAGE>,
    /// Lazily created per-connection SMSG state. Connections are between
    /// *processes* (PEs), not nodes — the paper: "It requires each
    /// peer-to-peer connection to create mailboxes for its both ends".
    conns: DetHashMap<(u32, u32), SmsgConn>,
    /// How many nodes this job actually spans (sets the SMSG size limit).
    job_nodes: u32,
    /// Dedicated RNG stream for fault injection, derived from the plan's
    /// own seed. Never consulted unless the relevant probability is
    /// nonzero, so an inert plan leaves runs bit-identical.
    fault_rng: DetRng,
    pub stats: FabricStats,
}

impl Fabric {
    /// Build a fabric for a job spanning `job_nodes` nodes. The torus holds
    /// the whole machine; the job occupies the first `job_nodes` node ids.
    pub fn new(params: GeminiParams, job_nodes: u32) -> Self {
        let topo = Torus::new(params.torus_dims);
        assert!(
            job_nodes <= topo.num_nodes(),
            "job ({job_nodes} nodes) exceeds machine ({})",
            topo.num_nodes()
        );
        let n = topo.num_nodes();
        let links = LinkTable::new(n, params.link_bw_gbs, params.hop_latency);
        Fabric {
            nics: LazyVec::with(n as usize, |_| NodeNic::default()),
            conns: DetHashMap::default(),
            links,
            topo,
            job_nodes,
            fault_rng: DetRng::derive(params.fault.seed, 0xFA17),
            params,
            stats: FabricStats::default(),
        }
    }

    /// Materialized lazy-state pages across links and node records
    /// (memory diagnostics for the scale harness and tests).
    pub fn materialized_pages(&self) -> usize {
        self.links.materialized_pages() + self.nics.materialized_pages()
    }

    /// Convenience: fabric sized exactly to the job (torus dims overridden
    /// to a near-cubic shape covering `job_nodes`).
    pub fn for_job(mut params: GeminiParams, job_nodes: u32) -> Self {
        params.torus_dims = near_cubic(job_nodes);
        Self::new(params, job_nodes)
    }

    pub fn job_nodes(&self) -> u32 {
        self.job_nodes
    }

    /// Effective SMSG payload limit for this job.
    pub fn smsg_limit(&self) -> u32 {
        self.params.smsg_max_size(self.job_nodes)
    }

    pub fn reg_table(&mut self, node: NodeId) -> &mut RegTable {
        &mut self.nics.get_mut(node as usize).reg
    }

    /// Register memory on `node` under this fabric's own cost parameters.
    pub fn register(&mut self, node: NodeId, addr: Addr, bytes: u64) -> (MemHandle, Time) {
        let reg = &mut self.nics.get_mut(node as usize).reg;
        reg.register(&self.params, addr, bytes)
    }

    /// Release a registration on `node`; returns the CPU cost.
    pub fn deregister(&mut self, node: NodeId, h: MemHandle) -> Result<Time, DeregError> {
        let reg = &mut self.nics.get_mut(node as usize).reg;
        reg.deregister(&self.params, h)
    }

    /// Read-only view of a node's registration table. A node that never
    /// registered anything reads as an empty table (the shared pristine
    /// default) without materializing its slot.
    pub fn reg_table_ref(&self, node: NodeId) -> &RegTable {
        &self.nics.get(node as usize).reg
    }

    /// The preamble every transaction shares, in order: a crashed
    /// endpoint, then a downed link on `route`, then the fault draw with
    /// `probs` = (drop, corrupt). The first two refuse the transaction
    /// before anything is transmitted and return its kind with the time the
    /// sending NIC learns of it, `lead` (the sender's CPU and NIC start-up)
    /// plus a control trip over `route`. Crash windows are purely
    /// schedule-driven and never touch the fault RNG, so plans whose only
    /// entries are crash windows leave every surviving transaction's timing
    /// and fault stream untouched. The draw consults the fault RNG only
    /// when a probability is nonzero.
    fn admit(
        &mut self,
        now: Time,
        (a, b): (NodeId, NodeId),
        route: Walk,
        lead: Time,
        (drop_p, corrupt_p): (f64, f64),
    ) -> Result<Option<FaultKind>, (FaultKind, Time)> {
        let f = &self.params.fault;
        let refused =
            if !f.node_crash.is_empty() && (f.node_is_down(a, now) || f.node_is_down(b, now)) {
                self.stats.faults_node_down += 1;
                FaultKind::NodeDown
            } else if f.route_is_down(route, now) {
                self.stats.faults_link_down += 1;
                FaultKind::LinkDown
            } else {
                return Ok(Self::fault_decide(&mut self.fault_rng, drop_p, corrupt_p));
            };
        let error_at = now + lead + self.params.injection_latency + self.control(route);
        Err((refused, error_at))
    }

    /// Latency of an uncontended control packet (a request, ack or credit
    /// return) over `route`: one router traversal per hop.
    fn control(&self, route: Walk) -> Time {
        self.params.hop_latency * route.len() as Time
    }

    /// Roll the fault dice for one transaction. Draws from the fault RNG
    /// only when a probability is actually nonzero.
    fn fault_decide(rng: &mut DetRng, drop_p: f64, corrupt_p: f64) -> Option<FaultKind> {
        if drop_p <= 0.0 && corrupt_p <= 0.0 {
            return None;
        }
        let u = rng.unit();
        if u < drop_p {
            Some(FaultKind::Dropped)
        } else if u < drop_p + corrupt_p {
            Some(FaultKind::CorruptDelivered)
        } else {
            None
        }
    }

    /// Roll for a transient `GNI_MemRegister` resource failure (called by
    /// the uGNI layer on every registration attempt).
    pub fn reg_fault_roll(&mut self) -> bool {
        let p = self.params.fault.reg_fail;
        if p <= 0.0 {
            return false;
        }
        if self.fault_rng.unit() < p {
            self.stats.faults_reg += 1;
            true
        } else {
            false
        }
    }

    /// Send one SMSG of `bytes` from `src` to `dst` node at time `now`,
    /// over the peer-to-peer connection `conn` (a pair of process ids; the
    /// mailbox credits belong to the connection, the routing to the nodes).
    /// The credit returns one control-latency after the receiver could have
    /// drained the mailbox.
    pub fn smsg_send(
        &mut self,
        now: Time,
        src: NodeId,
        dst: NodeId,
        conn_key: (u32, u32),
        bytes: u64,
    ) -> Result<SmsgOutcome, SmsgError> {
        self.mailbox(now, conn_key, self.params.smsg_credits, bytes)?;
        let route = self.topo.walk(src, dst);
        let cpu = self.params.smsg_send_cpu;
        let fault = self.admit_small(now, (src, dst), route, cpu)?;

        let p = &self.params;
        // SMSG packets interleave with bulk FMA traffic (sub-chunk sized),
        // so they neither wait for nor occupy the engine window; they still
        // contend for link bandwidth.
        let inject = now + cpu + p.smsg_nic_latency + p.injection_latency;
        let (_, arrive) = self.links.reserve(inject, route, bytes, p.fma_bw_gbs);
        let deliver_at = arrive + p.ejection_latency;

        // Credit returns after the receiver drains the slot and the NIC-level
        // ack crosses back.
        let back = self.control(route);
        let release = deliver_at + p.smsg_recv_cpu + back + p.injection_latency;

        self.stats.smsg_sends += 1;
        self.stats.smsg_bytes += bytes;
        self.small_outcome(
            conn_key,
            release,
            SmsgOutcome { cpu, deliver_at },
            back,
            fault,
        )
    }

    /// The mailbox checks every small send makes before anything else: the
    /// job-size-dependent size limit, then a free slot among `credits` on
    /// the connection `key`. Credits are reclaimed lazily: slots whose
    /// release time has passed are freed before the check, which keeps the
    /// fabric free of callbacks.
    fn mailbox(
        &mut self,
        now: Time,
        key: (u32, u32),
        credits: u32,
        bytes: u64,
    ) -> Result<(), SmsgError> {
        let limit = self.smsg_limit();
        if bytes > limit as u64 {
            return Err(SmsgError::TooLarge { limit });
        }
        let conn = self.conns.entry(key).or_default();
        while conn.in_flight.front().is_some_and(|&t| t <= now) {
            conn.in_flight.pop_front();
        }
        if conn.in_flight.len() >= credits as usize {
            self.stats.credit_stalls += 1;
            // panic-ok: nonempty — in_flight.len() >= credits >= 1 just above
            let retry_at = *conn.in_flight.front().unwrap();
            return Err(SmsgError::NoCredits { retry_at });
        }
        Ok(())
    }

    /// [`Fabric::admit`] for a small send: a refusal is a transaction
    /// error that delivered nothing.
    fn admit_small(
        &mut self,
        now: Time,
        ends: (NodeId, NodeId),
        route: Walk,
        cpu: Time,
    ) -> Result<Option<FaultKind>, SmsgError> {
        let probs = (self.params.fault.smsg_drop, self.params.fault.smsg_corrupt);
        self.admit(now, ends, route, cpu, probs)
            .map_err(|(kind, error_at)| SmsgError::TransactionError {
                kind,
                cpu,
                error_at,
                delivered_at: None,
            })
    }

    /// The end of every small send that reached the wire: hold the mailbox
    /// slot on `key` until `release`, then report the drawn fault. The
    /// failure (lost data or corrupted completion) surfaces to the sender
    /// once the NIC-level nack/timeout crosses back (`back`); the slot is
    /// reclaimed as usual.
    fn small_outcome(
        &mut self,
        key: (u32, u32),
        release: Time,
        out: SmsgOutcome,
        back: Time,
        fault: Option<FaultKind>,
    ) -> Result<SmsgOutcome, SmsgError> {
        self.conns
            .entry(key)
            .or_default()
            .in_flight
            .push_back(release);
        let Some(kind) = fault else {
            return Ok(out);
        };
        self.stats.faults_smsg += 1;
        Err(SmsgError::TransactionError {
            kind,
            cpu: out.cpu,
            error_at: out.deliver_at + back,
            delivered_at: (kind == FaultKind::CorruptDelivered).then_some(out.deliver_at),
        })
    }

    /// CPU cost for the receiver to dequeue and copy out one SMSG of
    /// `bytes` (GNI_SmsgGetNextWTag + copy into a runtime buffer).
    pub fn smsg_recv_cost(&self, bytes: u64) -> Time {
        self.params.smsg_recv_cpu
            + (self.params.smsg_copy_ns_per_byte * bytes as f64).ceil() as Time
    }

    /// Send a small message through the shared per-node message queue
    /// (MSGQ, paper §II-B): slower than SMSG, but mailbox memory is per
    /// node rather than per peer. Credits are shared per destination node.
    pub fn msgq_send(
        &mut self,
        now: Time,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> Result<SmsgOutcome, SmsgError> {
        // Shared credits: the connection key is the destination node.
        let key = (u32::MAX, dst);
        self.mailbox(now, key, self.params.msgq_credits, bytes)?;
        let route = self.topo.walk(src, dst);
        let cpu = self.params.smsg_send_cpu + self.params.msgq_extra_cpu;
        let fault = self.admit_small(now, (src, dst), route, cpu)?;

        let p = &self.params;
        let fma = Mechanism::Fma as usize;
        let nic_ready = (now + cpu).max(self.nics.get(src as usize).engines[fma].tx);
        let inject = nic_ready + p.smsg_nic_latency + p.msgq_extra_latency + p.injection_latency;
        let (sent, arrive) = self.links.reserve(inject, route, bytes, p.fma_bw_gbs);
        self.nics.get_mut(src as usize).engines[fma].tx = sent;
        let deliver_at = arrive + p.ejection_latency;

        let back = self.control(route);
        let release = deliver_at + p.smsg_recv_cpu + p.msgq_extra_cpu + back + p.injection_latency;

        self.stats.msgq_sends += 1;
        self.stats.smsg_bytes += bytes;
        self.small_outcome(key, release, SmsgOutcome { cpu, deliver_at }, back, fault)
    }

    /// CPU cost for the receiver to dequeue one MSGQ message.
    pub fn msgq_recv_cost(&self, bytes: u64) -> Time {
        self.smsg_recv_cost(bytes) + self.params.msgq_extra_cpu
    }

    /// Post an RDMA transaction of `bytes` between `initiator` and
    /// `remote`. For `Get`, data flows remote -> initiator; for `Put`,
    /// initiator -> remote. Both sides' memory must already be registered
    /// (enforced by the uGNI layer above, which holds the handles).
    pub fn rdma(
        &mut self,
        now: Time,
        initiator: NodeId,
        remote: NodeId,
        bytes: u64,
        mech: Mechanism,
        op: RdmaOp,
    ) -> RdmaOutcome {
        let p = &self.params;
        self.stats.rdma_bytes += bytes;
        match mech {
            Mechanism::Fma => self.stats.fma_transactions += 1,
            Mechanism::Bte => self.stats.bte_transactions += 1,
        }

        // CPU involvement and engine costs.
        let (cpu, bw_cap, startup) = match mech {
            Mechanism::Fma => {
                let chunks = bytes.div_ceil(p.fma_chunk_bytes as u64);
                let cpu = p.fma_post_cpu + chunks * p.fma_chunk_cpu;
                (cpu, p.fma_bw_gbs, p.fma_nic_latency)
            }
            Mechanism::Bte => (p.bte_post_cpu, p.bte_bw_gbs, p.bte_startup),
        };

        // Data path endpoints.
        let (data_src, data_dst) = match op {
            RdmaOp::Put => (initiator, remote),
            RdmaOp::Get => (remote, initiator),
        };

        // A route across a downed link fails without touching the wire —
        // the NIC raises an error CQ event after the dead path is discovered.
        let route = self.topo.walk(data_src, data_dst);
        let probs = match mech {
            Mechanism::Fma => (p.fault.fma_drop, p.fault.fma_corrupt),
            Mechanism::Bte => (p.fault.bte_drop, p.fault.bte_corrupt),
        };
        let fault = match self.admit(now, (data_src, data_dst), route, cpu + startup, probs) {
            Ok(fault) => fault,
            Err((kind, error_at)) => {
                return RdmaOutcome {
                    cpu,
                    local_cq_at: error_at,
                    data_at: error_at,
                    fault: Some(kind),
                }
            }
        };
        if fault.is_some() {
            self.stats.faults_rdma += 1;
        }
        let p = &self.params;

        // The transfer needs the source node's outbound engine and the
        // destination node's inbound engine. This shared-NIC occupancy
        // is what makes routing intra-node traffic through uGNI "interfere
        // with uGNI handling inter-node communication" (paper §IV-C).
        // Short transfers interleave at packet granularity instead of
        // reserving the engine for a whole-message window.
        let gated = bytes > p.engine_gate_min_bytes;
        let engine = mech as usize;
        let gate = if gated {
            let tx = self.nics.get(data_src as usize).engines[engine].tx;
            tx.max(self.nics.get(data_dst as usize).engines[engine].rx)
        } else {
            0
        };

        // Descriptor setup and (for GET) the request traversal pipeline
        // with earlier transfers — only the *data window* waits for the
        // engine. Without this overlap, back-to-back small transfers from
        // one node would space out by setup+request (~2 µs) instead of
        // their serialization time, which real NICs do not do.
        let ready = now + cpu + startup;
        let start = match op {
            RdmaOp::Put => ready + p.injection_latency,
            RdmaOp::Get => {
                let req = self.control(self.topo.walk(initiator, remote));
                ready + p.injection_latency + req + p.get_request_overhead
            }
        };

        let (sent, arrive) = self.links.reserve(start.max(gate), route, bytes, bw_cap);

        if gated {
            let tx = &mut self.nics.get_mut(data_src as usize).engines[engine].tx;
            *tx = (*tx).max(sent);
            let rx = &mut self.nics.get_mut(data_dst as usize).engines[engine].rx;
            *rx = (*rx).max(sent);
        }

        let landed = arrive + p.ejection_latency;
        match op {
            RdmaOp::Put => {
                // Local completion after the remote NIC acks back.
                let ack = self.control(route);
                RdmaOutcome {
                    cpu,
                    local_cq_at: landed + ack,
                    data_at: landed,
                    fault,
                }
            }
            RdmaOp::Get => RdmaOutcome {
                cpu,
                local_cq_at: landed,
                data_at: landed,
                fault,
            },
        }
    }

    /// Diagnostics.
    pub fn total_link_bytes(&self) -> u64 {
        self.links.total_bytes()
    }
}

/// Choose a near-cubic torus covering at least `n` nodes.
pub fn near_cubic(n: u32) -> (u32, u32, u32) {
    let mut x = (n as f64).cbrt().floor().max(1.0) as u32;
    while x > 1 && !n.is_multiple_of(x) {
        x -= 1;
    }
    let rest = n / x;
    let mut y = (rest as f64).sqrt().floor().max(1.0) as u32;
    while y > 1 && !rest.is_multiple_of(y) {
        y -= 1;
    }
    let z = rest / y;
    debug_assert_eq!(x * y * z, n);
    (x, y, z)
}

#[cfg(test)]
impl Fabric {
    /// Eager twin of [`Fabric::new`]: every link and node record
    /// materialized up front. Exists for the lazy-vs-eager differential
    /// proptests.
    pub(crate) fn new_eager(params: GeminiParams, job_nodes: u32) -> Self {
        let f = Self::new(params, job_nodes);
        Fabric {
            links: f.links.eager(),
            nics: f.nics.eager(),
            ..f
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::time;

    fn fabric() -> Fabric {
        Fabric::new(GeminiParams::test_small(), 8)
    }

    #[test]
    fn near_cubic_covers_exactly() {
        for n in [1u32, 2, 3, 8, 16, 24, 160, 640, 3264] {
            let (x, y, z) = near_cubic(n);
            assert_eq!(x * y * z, n, "n={n}");
        }
    }

    #[test]
    fn smsg_small_message_latency_near_paper() {
        // Pure uGNI 8-byte one-way latency on Hopper was ~1.2us; the model
        // should land in 0.9..1.5us for adjacent nodes.
        let mut f = Fabric::new(GeminiParams::hopper(), 16);
        let out = f.smsg_send(0, 0, 1, (0, 1), 8).unwrap();
        let total = out.deliver_at + f.smsg_recv_cost(8);
        assert!(
            (900..1500).contains(&total),
            "8B smsg total {total}ns out of calibration band"
        );
    }

    #[test]
    fn smsg_rejects_oversize() {
        let mut f = fabric();
        let limit = f.smsg_limit() as u64;
        assert!(matches!(
            f.smsg_send(0, 0, 1, (0, 1), limit + 1),
            Err(SmsgError::TooLarge { .. })
        ));
        assert!(f.smsg_send(0, 0, 1, (0, 1), limit).is_ok());
    }

    #[test]
    fn smsg_credits_exhaust_and_recover() {
        let mut f = fabric();
        let credits = f.params.smsg_credits;
        let mut retry = 0;
        for i in 0..credits + 2 {
            match f.smsg_send(0, 0, 1, (0, 1), 64) {
                Ok(_) => assert!(i < credits, "more sends than credits at t=0"),
                Err(SmsgError::NoCredits { retry_at }) => {
                    assert!(i >= credits);
                    retry = retry_at;
                }
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(retry > 0);
        // After the release time, sends flow again.
        assert!(f.smsg_send(retry, 0, 1, (0, 1), 64).is_ok());
        assert!(f.stats.credit_stalls >= 2);
    }

    #[test]
    fn smsg_is_fifo_per_connection() {
        let mut f = fabric();
        let a = f.smsg_send(0, 0, 1, (0, 1), 512).unwrap();
        let b = f.smsg_send(0, 0, 1, (0, 1), 8).unwrap();
        assert!(
            b.deliver_at > a.deliver_at,
            "later send may not overtake on same connection"
        );
    }

    #[test]
    fn bte_beats_fma_for_large_messages() {
        let mut f1 = fabric();
        let mut f2 = fabric();
        let big = 256 * 1024;
        let fma = f1.rdma(0, 0, 1, big, Mechanism::Fma, RdmaOp::Get);
        let bte = f2.rdma(0, 0, 1, big, Mechanism::Bte, RdmaOp::Get);
        assert!(bte.local_cq_at < fma.local_cq_at, "BTE should win at 256K");
        assert!(bte.cpu < fma.cpu, "BTE offloads the CPU");
    }

    #[test]
    fn fma_beats_bte_for_small_messages() {
        let mut f1 = fabric();
        let mut f2 = fabric();
        let small = 1024;
        let fma = f1.rdma(0, 0, 1, small, Mechanism::Fma, RdmaOp::Get);
        let bte = f2.rdma(0, 0, 1, small, Mechanism::Bte, RdmaOp::Get);
        assert!(fma.local_cq_at < bte.local_cq_at, "FMA should win at 1K");
    }

    #[test]
    fn crossover_is_in_paper_band() {
        // Paper §II-A: FMA/BTE crossover between 2048 and 8192 bytes.
        let mut cross = None;
        for exp in 8..20 {
            let bytes = 1u64 << exp;
            let mut f1 = fabric();
            let mut f2 = fabric();
            let fma = f1.rdma(0, 0, 1, bytes, Mechanism::Fma, RdmaOp::Get);
            let bte = f2.rdma(0, 0, 1, bytes, Mechanism::Bte, RdmaOp::Get);
            if bte.local_cq_at <= fma.local_cq_at {
                cross = Some(bytes);
                break;
            }
        }
        let cross = cross.expect("no crossover found");
        assert!(
            (2048..=8192).contains(&cross),
            "crossover {cross} outside paper band"
        );
    }

    #[test]
    fn get_pays_request_trip_over_put() {
        let mut f1 = fabric();
        let mut f2 = fabric();
        let put = f1.rdma(0, 0, 1, 4096, Mechanism::Fma, RdmaOp::Put);
        let get = f2.rdma(0, 0, 1, 4096, Mechanism::Fma, RdmaOp::Get);
        assert!(get.data_at > put.data_at, "GET adds a request traversal");
    }

    #[test]
    fn put_local_completion_trails_remote_visibility() {
        let mut f = fabric();
        let put = f.rdma(0, 0, 1, 4096, Mechanism::Bte, RdmaOp::Put);
        assert!(put.local_cq_at >= put.data_at);
    }

    #[test]
    fn concurrent_bte_transfers_serialize_on_engine() {
        let mut f = fabric();
        let a = f.rdma(0, 0, 1, 1 << 20, Mechanism::Bte, RdmaOp::Put);
        let b = f.rdma(0, 0, 1, 1 << 20, Mechanism::Bte, RdmaOp::Put);
        // Second transfer finishes roughly one serialization later.
        let ser = time::transfer_ns(1 << 20, f.params.bte_bw_gbs);
        assert!(b.data_at >= a.data_at + ser / 2);
    }

    #[test]
    fn intra_node_rdma_skips_routing() {
        let mut f = fabric();
        let same = f.rdma(0, 0, 0, 65536, Mechanism::Bte, RdmaOp::Put);
        let mut f2 = fabric();
        let cross = f2.rdma(0, 0, 1, 65536, Mechanism::Bte, RdmaOp::Put);
        assert!(same.data_at < cross.data_at);
    }

    #[test]
    fn bandwidth_approaches_link_rate() {
        // Windowed BTE transfers should sustain near 6 GB/s.
        let mut f = Fabric::new(GeminiParams::hopper(), 16);
        let bytes = 4u64 << 20;
        let reps = 8;
        let mut last = 0;
        for _ in 0..reps {
            let o = f.rdma(last, 0, 1, bytes, Mechanism::Bte, RdmaOp::Get);
            last = o.local_cq_at;
        }
        let gbs = (bytes * reps) as f64 / last as f64;
        assert!(gbs > 4.5, "sustained {gbs:.2} GB/s too low");
        assert!(gbs <= 6.0 + 1e-9, "sustained {gbs:.2} GB/s above link rate");
    }

    #[test]
    fn get_occupies_source_nic_too() {
        // A GET initiated by node 1 pulling from node 0 must occupy node
        // 0's BTE as data source, delaying a subsequent loopback GET there.
        let mut f = fabric();
        let big = 1u64 << 20;
        let pull = f.rdma(0, 1, 0, big, Mechanism::Bte, RdmaOp::Get);
        let loopback = f.rdma(0, 0, 0, big, Mechanism::Bte, RdmaOp::Get);
        let mut f2 = fabric();
        let iso = f2.rdma(0, 0, 0, big, Mechanism::Bte, RdmaOp::Get);
        assert!(
            loopback.local_cq_at > iso.local_cq_at,
            "loopback {} should be delayed past isolated {} by the pull {}",
            loopback.local_cq_at,
            iso.local_cq_at,
            pull.local_cq_at
        );
    }

    #[test]
    fn msgq_slower_but_works() {
        let mut f = fabric();
        let smsg = f.smsg_send(0, 0, 1, (0, 1), 256).unwrap();
        let mut f2 = fabric();
        let msgq = f2.msgq_send(0, 0, 1, 256).unwrap();
        assert!(msgq.deliver_at > smsg.deliver_at, "MSGQ must be slower");
        assert!(msgq.cpu > smsg.cpu);
        assert!(f2.msgq_recv_cost(256) > f2.smsg_recv_cost(256));
        assert_eq!(f2.stats.msgq_sends, 1);
    }

    #[test]
    fn msgq_credits_shared_per_destination_node() {
        let mut f = Fabric::new(GeminiParams::test_small(), 8);
        let credits = f.params.msgq_credits;
        // Several *different* sources share the destination's queue.
        let mut sent = 0;
        'outer: for src in [0u32, 2, 3, 4] {
            for _ in 0..credits {
                match f.msgq_send(0, src, 1, 64) {
                    Ok(_) => sent += 1,
                    Err(SmsgError::NoCredits { .. }) => break 'outer,
                    Err(e) => panic!("{e:?}"),
                }
            }
        }
        assert_eq!(sent, credits, "shared credit pool exhausted at node level");
    }

    #[test]
    fn smsg_drop_reports_transaction_error() {
        let mut p = GeminiParams::test_small();
        p.fault = crate::fault::FaultPlan::uniform_drop(7, 1.0);
        let mut f = Fabric::new(p, 8);
        match f.smsg_send(0, 0, 1, (0, 1), 64) {
            Err(SmsgError::TransactionError {
                kind: crate::fault::FaultKind::Dropped,
                cpu,
                error_at,
                delivered_at,
            }) => {
                assert!(cpu > 0, "sender still burned CPU");
                assert!(error_at > cpu, "error surfaces after the wire trip");
                assert!(delivered_at.is_none(), "dropped data never lands");
            }
            other => panic!("expected drop, got {other:?}"),
        }
        assert_eq!(f.stats.faults_smsg, 1);
    }

    #[test]
    fn smsg_corrupt_still_delivers_payload() {
        let mut p = GeminiParams::test_small();
        p.fault.seed = 7;
        p.fault.smsg_corrupt = 1.0;
        let mut f = Fabric::new(p, 8);
        match f.smsg_send(0, 0, 1, (0, 1), 64) {
            Err(SmsgError::TransactionError {
                kind: crate::fault::FaultKind::CorruptDelivered,
                delivered_at,
                error_at,
                ..
            }) => {
                let d = delivered_at.expect("corrupt delivery lands the data");
                assert!(error_at >= d, "sender learns after the landing");
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn link_down_window_fails_then_recovers() {
        let mut p = GeminiParams::test_small();
        // Node 0 -> 1 differs in x: DOR uses node 0's x-link.
        p.fault.link_down.push(crate::fault::LinkDownWindow {
            node: 0,
            dim: 0,
            plus: true,
            from_ns: 0,
            until_ns: 50_000,
        });
        let mut f = Fabric::new(p, 8);
        assert!(matches!(
            f.smsg_send(10, 0, 1, (0, 1), 64),
            Err(SmsgError::TransactionError {
                kind: crate::fault::FaultKind::LinkDown,
                ..
            })
        ));
        assert_eq!(f.stats.faults_link_down, 1);
        // After the window lifts the same send succeeds.
        assert!(f.smsg_send(50_000, 0, 1, (0, 1), 64).is_ok());
    }

    #[test]
    fn rdma_drop_flags_outcome() {
        let mut p = GeminiParams::test_small();
        p.fault = crate::fault::FaultPlan::uniform_drop(3, 1.0);
        let mut f = Fabric::new(p, 8);
        let out = f.rdma(0, 0, 1, 8192, Mechanism::Bte, RdmaOp::Put);
        assert_eq!(out.fault, Some(crate::fault::FaultKind::Dropped));
        assert!(out.local_cq_at > 0, "error event still has a CQ time");
        assert_eq!(f.stats.faults_rdma, 1);
    }

    #[test]
    fn a_down_link_fails_every_route_across_it() {
        let mut p = GeminiParams::test_small();
        p.torus_dims = (4, 4, 1);
        // Node 0's +x link, down for the whole run.
        p.fault.link_down.push(crate::fault::LinkDownWindow {
            node: 0,
            dim: 0,
            plus: true,
            from_ns: 0,
            until_ns: Time::MAX,
        });
        let mut f = Fabric::new(p, 16);
        // The x-first route crosses it. A y-first one would not, but the
        // fabric does not steer around a down link.
        let b = f.topo.node_at((2, 2, 0));
        let out = f.rdma(0, 0, b, 1 << 16, Mechanism::Bte, RdmaOp::Put);
        assert_eq!(out.fault, Some(crate::fault::FaultKind::LinkDown));
        let c = f.topo.node_at((0, 2, 0));
        let up = f.rdma(0, 0, c, 1 << 16, Mechanism::Bte, RdmaOp::Put);
        assert_eq!(up.fault, None, "a route leaving along y is up");
        assert_eq!(f.stats.faults_link_down, 1);
    }

    #[test]
    fn fault_sequence_is_deterministic() {
        let run = || {
            let mut p = GeminiParams::test_small();
            p.fault = crate::fault::FaultPlan::uniform_drop(42, 0.3);
            let mut f = Fabric::new(p, 8);
            (0..64)
                .map(|i| f.smsg_send(i * 10_000, 0, 1, (0, 1), 64).is_ok())
                .collect::<Vec<bool>>()
        };
        let a = run();
        assert_eq!(a, run(), "same plan + seed must fail identically");
        assert!(a.iter().any(|ok| !ok), "p=0.3 over 64 sends should fault");
        assert!(a.iter().any(|ok| *ok));
    }

    #[test]
    fn reg_fault_roll_respects_probability() {
        let mut p = GeminiParams::test_small();
        p.fault.reg_fail = 1.0;
        let mut f = Fabric::new(p, 8);
        assert!(f.reg_fault_roll());
        assert_eq!(f.stats.faults_reg, 1);
        let mut f2 = fabric(); // inert plan
        assert!(!f2.reg_fault_roll());
        assert_eq!(f2.stats.faults_reg, 0);
    }

    #[test]
    fn stats_accumulate() {
        let mut f = fabric();
        f.smsg_send(0, 0, 1, (0, 1), 100).unwrap();
        f.rdma(0, 0, 1, 5000, Mechanism::Bte, RdmaOp::Get);
        f.rdma(0, 0, 1, 500, Mechanism::Fma, RdmaOp::Put);
        assert_eq!(f.stats.smsg_sends, 1);
        assert_eq!(f.stats.smsg_bytes, 100);
        assert_eq!(f.stats.bte_transactions, 1);
        assert_eq!(f.stats.fma_transactions, 1);
        assert_eq!(f.stats.rdma_bytes, 5500);
        assert!(f.total_link_bytes() > 0);
    }
}

/// Differential proptests: the lazily materialized fabric must be
/// observationally equivalent to the eager-allocation construction it
/// replaced — same outcome stream, same per-link state, same registration
/// books — under random torus shapes, traffic patterns, and fault plans.
#[cfg(test)]
mod lazy_equivalence {
    use super::*;
    use crate::fault::{FaultPlan, LinkDownWindow, NodeCrashWindow};
    use crate::reg::Addr;
    use crate::topology::LinkId;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Smsg {
            src: u32,
            dst: u32,
            conn: (u32, u32),
            bytes: u64,
        },
        Msgq {
            src: u32,
            dst: u32,
            bytes: u64,
        },
        Rdma {
            initiator: u32,
            remote: u32,
            bytes: u64,
            bte: bool,
            put: bool,
        },
        Register {
            node: u32,
            addr: u64,
            bytes: u64,
        },
    }

    fn op_strategy() -> impl Strategy<Value = (Op, Time)> {
        (
            0u8..4,
            any::<u32>(),
            any::<u32>(),
            1u64..1_000_000,
            any::<u64>(),
        )
            .prop_map(|(kind, a, b, bytes, x)| {
                let op = match kind {
                    0 => Op::Smsg {
                        src: a,
                        dst: b,
                        conn: ((x >> 16) as u32 % 64, (x >> 40) as u32 % 64),
                        bytes: bytes % 2048 + 1,
                    },
                    1 => Op::Msgq {
                        src: a,
                        dst: b,
                        bytes: bytes % 2048 + 1,
                    },
                    2 => Op::Rdma {
                        initiator: a,
                        remote: b,
                        bytes,
                        bte: x & 1 == 1,
                        put: x & 2 == 2,
                    },
                    _ => Op::Register {
                        node: a,
                        addr: x,
                        bytes: bytes % 65536 + 64,
                    },
                };
                (op, x % 20_000)
            })
    }

    fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
        (
            any::<u64>(),
            0.0f64..0.4,
            0.0f64..0.3,
            proptest::option::of((
                0u32..64,
                0u8..3,
                any::<bool>(),
                0u64..200_000u64,
                1u64..400_000u64,
            )),
            proptest::option::of((
                0u32..64,
                0u64..300_000u64,
                proptest::option::of(1u64..200_000u64),
            )),
        )
            .prop_map(|(seed, drop_p, corrupt_p, link, crash)| {
                let mut plan = FaultPlan::uniform_drop(seed, drop_p);
                plan.smsg_corrupt = corrupt_p;
                plan.fma_corrupt = corrupt_p;
                plan.bte_corrupt = corrupt_p;
                if let Some((node, dim, plus, from_ns, len)) = link {
                    plan.link_down.push(LinkDownWindow {
                        node,
                        dim,
                        plus,
                        from_ns,
                        until_ns: from_ns + len,
                    });
                }
                if let Some((node, at_ns, restart_after_ns)) = crash {
                    plan.node_crash.push(NodeCrashWindow {
                        node,
                        at_ns,
                        restart_after_ns,
                    });
                }
                plan
            })
    }

    /// Run one op against a fabric, folding the full observable outcome
    /// (the "delivered-message stream") into a string for comparison.
    fn apply(f: &mut Fabric, now: Time, op: &Op) -> String {
        let nodes = f.topo.num_nodes();
        match *op {
            Op::Smsg {
                src,
                dst,
                conn,
                bytes,
            } => {
                format!(
                    "{:?}",
                    f.smsg_send(now, src % nodes, dst % nodes, conn, bytes)
                )
            }
            Op::Msgq { src, dst, bytes } => {
                format!("{:?}", f.msgq_send(now, src % nodes, dst % nodes, bytes))
            }
            Op::Rdma {
                initiator,
                remote,
                bytes,
                bte,
                put,
            } => {
                let mech = if bte { Mechanism::Bte } else { Mechanism::Fma };
                let op = if put { RdmaOp::Put } else { RdmaOp::Get };
                format!(
                    "{:?}",
                    f.rdma(now, initiator % nodes, remote % nodes, bytes, mech, op)
                )
            }
            Op::Register { node, addr, bytes } => {
                format!("{:?}", f.register(node % nodes, Addr(addr), bytes))
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn lazy_matches_eager(
            dims in (1u32..6, 1u32..6, 1u32..6),
            plan in plan_strategy(),
            ops in proptest::collection::vec(op_strategy(), 1..60),
        ) {
            let mut p = GeminiParams::test_small();
            p.torus_dims = dims;
            p.fault = plan;
            let nodes = dims.0 * dims.1 * dims.2;
            let mut lazy = Fabric::new(p.clone(), nodes);
            let mut eager = Fabric::new_eager(p, nodes);

            let mut now: Time = 0;
            for (op, dt) in &ops {
                now += dt;
                let a = apply(&mut lazy, now, op);
                let b = apply(&mut eager, now, op);
                prop_assert_eq!(a, b, "outcome stream diverged at t={}", now);
            }

            // Per-link state: every directed link of the whole torus.
            for from in 0..nodes {
                for dim in 0..3u8 {
                    for plus in [false, true] {
                        let l = LinkId { from, dim, plus };
                        prop_assert_eq!(
                            lazy.links.link(&l),
                            eager.links.link(&l),
                            "link {:?}", l
                        );
                    }
                }
            }
            // Every node's whole NIC record: FMA and BTE tx/rx times and
            // the registration table.
            for n in 0..nodes as usize {
                prop_assert_eq!(lazy.nics.get(n), eager.nics.get(n), "node {}", n);
            }
            prop_assert_eq!(lazy.total_link_bytes(), eager.total_link_bytes());
            prop_assert_eq!(
                format!("{:?}", lazy.stats),
                format!("{:?}", eager.stats)
            );
            // The whole point: the lazy fabric materialized no more than
            // the eager one.
            prop_assert!(lazy.materialized_pages() <= eager.materialized_pages());
        }
    }
}
