//! All timing and sizing constants of the Gemini model, in one serde-able
//! struct so experiments can perturb them and ablation benches can sweep
//! them.
//!
//! The defaults ([`GeminiParams::hopper`]) are calibrated against the
//! numbers the paper itself reports for Hopper (NERSC Cray XE6):
//! pure-uGNI 8-byte one-way latency ≈ 1.2 µs, SMSG limit 1024 bytes,
//! FMA/BTE crossover between 2 KB and 8 KB, peak per-link bandwidth in the
//! 6 GB/s range, and memory registration expensive enough that the naive
//! malloc+register rendezvous loses to Cray MPI (paper Fig. 6).

use crate::fault::FaultPlan;
use serde::{Deserialize, Serialize};
use sim_core::Time;

/// Which hardware unit carries an RDMA transaction (paper §II-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Mechanism {
    /// Fast Memory Access: OS-bypass, lowest latency, CPU participates in
    /// pushing data through the FMA window.
    Fma,
    /// Block Transfer Engine: descriptor handed to the NIC, full offload,
    /// best overlap, higher start-up cost.
    Bte,
}

/// RDMA direction (paper §III-C uses GET-based rendezvous).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RdmaOp {
    Put,
    Get,
}

/// Complete parameter set for the fabric model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeminiParams {
    // ---- topology ----
    /// 3D torus dimensions (x, y, z) in *nodes*.
    pub torus_dims: (u32, u32, u32),
    /// Cores (PEs) per node. Hopper: 24.
    pub cores_per_node: u32,

    // ---- links / routing ----
    /// Per-hop router traversal latency (ns).
    pub(crate) hop_latency: Time,
    /// Per-link bandwidth, GB/s (1e9 bytes per second).
    pub(crate) link_bw_gbs: f64,
    /// Fixed injection latency from NIC to first router (ns).
    pub(crate) injection_latency: Time,
    /// Fixed ejection latency from last router into the destination NIC (ns).
    pub(crate) ejection_latency: Time,

    // ---- SMSG ----
    /// SMSG sender CPU overhead per message (ns): building the header and
    /// storing through the FMA window.
    pub smsg_send_cpu: Time,
    /// SMSG receiver CPU overhead to dequeue one message from the mailbox,
    /// excluding the payload copy (ns).
    pub(crate) smsg_recv_cpu: Time,
    /// Per-byte CPU cost of the receiver copy out of the mailbox (ns/byte).
    pub(crate) smsg_copy_ns_per_byte: f64,
    /// NIC-side fixed latency for an SMSG (tx + rx hardware path), ns.
    pub(crate) smsg_nic_latency: Time,
    /// Mailbox credits per peer-to-peer connection (messages in flight).
    pub smsg_credits: u32,
    /// Base SMSG maximum message size (bytes) for small jobs. The effective
    /// limit shrinks as the job grows (see [`GeminiParams::smsg_max_size`]).
    pub(crate) smsg_max_size_base: u32,

    // ---- FMA ----
    /// Fixed CPU cost to start an FMA transaction (ns).
    pub(crate) fma_post_cpu: Time,
    /// FMA window chunk size (bytes); the CPU stores the payload through
    /// the window in chunks.
    pub(crate) fma_chunk_bytes: u32,
    /// CPU cost per FMA chunk (ns). This is what makes FMA lose to BTE for
    /// large transfers: the processor stays involved.
    pub(crate) fma_chunk_cpu: Time,
    /// NIC-side fixed latency for an FMA transaction (ns).
    pub(crate) fma_nic_latency: Time,
    /// Effective FMA streaming bandwidth cap, GB/s.
    pub(crate) fma_bw_gbs: f64,

    // ---- BTE ----
    /// CPU cost to build + post a BTE descriptor (ns).
    pub(crate) bte_post_cpu: Time,
    /// Fixed NIC latency to launch a BTE transaction (DMA engine start), ns.
    pub(crate) bte_startup: Time,
    /// Effective BTE streaming bandwidth cap, GB/s.
    pub(crate) bte_bw_gbs: f64,

    /// Transfers at or below this size do not occupy the NIC transfer
    /// engines exclusively: Gemini moves data in small chunks/packets, so
    /// short messages interleave with bulk transfers instead of queueing
    /// behind whole-message windows. Larger transfers contend for engine
    /// bandwidth as whole windows.
    pub(crate) engine_gate_min_bytes: u64,

    // ---- GET extra cost ----
    /// Extra round-trip a GET pays: the request must travel to the remote
    /// NIC before data flows back (ns, in addition to routed path time).
    pub(crate) get_request_overhead: Time,

    // ---- memory ----
    /// malloc: base cost (ns) and per-4KiB-page cost (first touch), ns.
    pub malloc_base: Time,
    pub(crate) malloc_per_page: Time,
    /// Memory registration with the NIC (GNI_MemRegister): base + per page.
    pub(crate) reg_base: Time,
    pub(crate) reg_per_page: Time,
    /// Deregistration (GNI_MemDeregister): base + per page.
    pub(crate) dereg_base: Time,
    pub(crate) dereg_per_page: Time,
    /// Intra-node memcpy bandwidth, GB/s (single core, user space).
    pub(crate) memcpy_bw_gbs: f64,
    /// Fixed cost of any memcpy call (ns).
    pub(crate) memcpy_base: Time,

    // ---- MSGQ ----
    /// Extra per-message CPU cost of the shared message queue relative to
    /// SMSG (demultiplexing through the per-node queue).
    pub(crate) msgq_extra_cpu: Time,
    /// Extra NIC-side latency of MSGQ delivery.
    pub(crate) msgq_extra_latency: Time,
    /// Per-node MSGQ buffer (shared by all peers).
    pub(crate) msgq_bytes_per_node: u64,
    /// MSGQ shared credits per node (messages in flight to one node).
    pub(crate) msgq_credits: u32,

    // ---- CQ ----
    /// CPU cost of one GNI_CqGetEvent poll (ns), hit or miss.
    pub cq_poll_cpu: Time,

    // ---- fault injection ----
    /// Deterministic chaos schedule (inert by default; see
    /// [`crate::fault::FaultPlan`]).
    pub fault: FaultPlan,
}

pub const PAGE: u64 = 4096;

impl GeminiParams {
    /// Calibration matching the paper's Hopper numbers. See module docs.
    pub fn hopper() -> Self {
        GeminiParams {
            torus_dims: (17, 8, 24), // Hopper-like 3D torus (6384 nodes ~ 17x8x24 = 3264*? scaled)
            cores_per_node: 24,
            hop_latency: 105,
            link_bw_gbs: 6.0,
            injection_latency: 120,
            ejection_latency: 120,

            smsg_send_cpu: 180,
            smsg_recv_cpu: 150,
            smsg_copy_ns_per_byte: 0.25,
            smsg_nic_latency: 500,
            smsg_credits: 8,
            smsg_max_size_base: 1024,

            fma_post_cpu: 150,
            fma_chunk_bytes: 64,
            fma_chunk_cpu: 10,
            fma_nic_latency: 450,
            fma_bw_gbs: 4.5,

            bte_post_cpu: 350,
            bte_startup: 1600,
            bte_bw_gbs: 6.0,

            engine_gate_min_bytes: 4096,

            get_request_overhead: 400,

            malloc_base: 350,
            malloc_per_page: 45,
            reg_base: 1900,
            reg_per_page: 260,
            dereg_base: 1300,
            dereg_per_page: 90,
            memcpy_bw_gbs: 4.0,
            memcpy_base: 90,

            msgq_extra_cpu: 250,
            msgq_extra_latency: 600,
            msgq_bytes_per_node: 1 << 20,
            msgq_credits: 64,

            cq_poll_cpu: 60,

            fault: FaultPlan::none(),
        }
    }

    /// A small-machine variant for unit tests: 2x2x2 torus, 4 cores/node.
    pub fn test_small() -> Self {
        let mut p = Self::hopper();
        p.torus_dims = (2, 2, 2);
        p.cores_per_node = 4;
        p
    }

    /// Effective SMSG maximum message size for a job of `job_nodes` nodes.
    ///
    /// The paper (§III-C): "By default, the maximum SMSG message size is
    /// 1024 bytes. However, as the job size increases, this limit decreases
    /// to reduce the mailbox memory cost for each SMSG connection pair."
    pub fn smsg_max_size(&self, job_nodes: u32) -> u32 {
        let base = self.smsg_max_size_base;
        if job_nodes <= 512 {
            base
        } else if job_nodes <= 2048 {
            base / 2
        } else if job_nodes <= 8192 {
            base / 4
        } else {
            base / 8
        }
    }

    /// SMSG mailbox memory per node for a job of `job_nodes` nodes: one
    /// mailbox per peer connection (the scalability problem MSGQ solves).
    pub fn smsg_mailbox_bytes(&self, job_nodes: u32) -> u64 {
        let per_conn = self.smsg_max_size(job_nodes) as u64 * self.smsg_credits as u64;
        per_conn * (job_nodes.saturating_sub(1)) as u64
    }

    /// MSGQ memory per node: constant in the number of peers — the paper:
    /// "Setup of MSGQs is done on a per-node rather than per-peer basis,
    /// so the memory only grows as the number of nodes in the job."
    pub fn msgq_mailbox_bytes(&self, _job_nodes: u32) -> u64 {
        self.msgq_bytes_per_node
    }

    /// Number of 4 KiB pages spanned by `bytes`.
    pub(crate) fn pages(bytes: u64) -> u64 {
        bytes.div_ceil(PAGE)
    }

    /// Cost of malloc'ing a fresh buffer of `bytes` (paper's `T_malloc`).
    pub fn malloc_cost(&self, bytes: u64) -> Time {
        self.malloc_base + self.malloc_per_page * Self::pages(bytes)
    }

    /// Cost of registering `bytes` with the NIC (paper's `T_register`).
    pub fn register_cost(&self, bytes: u64) -> Time {
        self.reg_base + self.reg_per_page * Self::pages(bytes)
    }

    /// Cost of deregistering `bytes`.
    pub fn deregister_cost(&self, bytes: u64) -> Time {
        self.dereg_base + self.dereg_per_page * Self::pages(bytes)
    }

    /// Cost of an intra-node memcpy of `bytes`.
    pub fn memcpy_cost(&self, bytes: u64) -> Time {
        self.memcpy_base + sim_core::time::transfer_ns(bytes, self.memcpy_bw_gbs)
    }

    /// The mechanism a well-tuned runtime picks for `bytes` (paper §II-A:
    /// "the crossover point ... is between 2048 and 8192 bytes").
    pub fn preferred_mechanism(&self, bytes: u64) -> Mechanism {
        if bytes <= 4096 {
            Mechanism::Fma
        } else {
            Mechanism::Bte
        }
    }

    /// A lower bound on the latency of *any* cross-node effect: no uGNI
    /// transaction (SMSG, FMA, BTE, MSGQ — every path charges at least one
    /// NIC traversal plus injection, and routed paths add per-hop wire
    /// time) can touch a remote node sooner than this after it is issued.
    ///
    /// Both machine layers hand it to the parallel driver as their
    /// lookahead. A link-down window does not lower it: a transaction
    /// whose dimension-ordered route crosses a down link fails, and one
    /// that goes through crosses the same hops as without the outage.
    pub fn min_remote_latency(&self) -> Time {
        self.injection_latency
            .min(self.ejection_latency)
            .min(self.hop_latency)
            .min(self.smsg_nic_latency)
            .min(self.fma_nic_latency)
            .max(1)
    }
}

impl Default for GeminiParams {
    fn default() -> Self {
        Self::hopper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Torus;

    #[test]
    fn hopper_counts() {
        let p = GeminiParams::hopper();
        assert_eq!(Torus::new(p.torus_dims).num_nodes(), 17 * 8 * 24);
        assert_eq!(p.cores_per_node, 24);
    }

    #[test]
    fn min_remote_latency_is_the_smallest_wire_constant() {
        let p = GeminiParams::hopper();
        // hop (105) is the smallest of {injection 120, ejection 120,
        // hop 105, smsg_nic 500, fma_nic 450}.
        assert_eq!(p.min_remote_latency(), 105);
    }

    #[test]
    fn smsg_limit_shrinks_with_job_size() {
        let p = GeminiParams::hopper();
        assert_eq!(p.smsg_max_size(16), 1024);
        assert_eq!(p.smsg_max_size(512), 1024);
        assert_eq!(p.smsg_max_size(1024), 512);
        assert_eq!(p.smsg_max_size(4096), 256);
        assert_eq!(p.smsg_max_size(10_000), 128);
    }

    #[test]
    fn mailbox_memory_grows_linearly_with_peers() {
        let p = GeminiParams::hopper();
        let m64 = p.smsg_mailbox_bytes(64);
        let m128 = p.smsg_mailbox_bytes(128);
        // Roughly double the peers, roughly double the memory.
        assert!(m128 > m64 && m128 < m64 * 3);
    }

    #[test]
    fn msgq_memory_constant_in_peers() {
        // The paper's §II-B scalability argument: at large node counts
        // per-peer SMSG mailboxes dwarf the shared MSGQ.
        let p = GeminiParams::hopper();
        assert_eq!(p.msgq_mailbox_bytes(64), p.msgq_mailbox_bytes(8192));
        assert!(p.smsg_mailbox_bytes(8192) > p.msgq_mailbox_bytes(8192));
        // While at tiny jobs SMSG's per-peer memory is the cheaper one.
        assert!(p.smsg_mailbox_bytes(4) < p.msgq_mailbox_bytes(4));
    }

    #[test]
    fn registration_dominates_malloc() {
        // The whole point of the memory pool (paper §IV-B): registration is
        // the expensive part.
        let p = GeminiParams::hopper();
        for kb in [4u64, 64, 512] {
            let b = kb * 1024;
            assert!(p.register_cost(b) > p.malloc_cost(b));
        }
    }

    #[test]
    fn pages_round_up() {
        assert_eq!(GeminiParams::pages(0), 0);
        assert_eq!(GeminiParams::pages(1), 1);
        assert_eq!(GeminiParams::pages(4096), 1);
        assert_eq!(GeminiParams::pages(4097), 2);
    }

    #[test]
    fn crossover_in_paper_range() {
        let p = GeminiParams::hopper();
        assert_eq!(p.preferred_mechanism(1024), Mechanism::Fma);
        assert_eq!(p.preferred_mechanism(2048), Mechanism::Fma);
        assert_eq!(p.preferred_mechanism(8192), Mechanism::Bte);
        assert_eq!(p.preferred_mechanism(1 << 20), Mechanism::Bte);
    }

    #[test]
    fn test_small_is_small() {
        let p = GeminiParams::test_small();
        assert_eq!(Torus::new(p.torus_dims).num_nodes(), 8);
        assert_eq!(p.cores_per_node, 4);
    }
}
