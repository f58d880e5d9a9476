//! uGNI-style handle types, return codes, descriptors and CQ events.
//!
//! Names deliberately mirror the Cray uGNI API (paper §II-B) so the machine
//! layer reads like the real one: `GNI_CqCreate` → [`crate::Gni::cq_create`],
//! `GNI_SmsgSendWTag` → [`crate::Gni::smsg_send_w_tag`], `GNI_PostRdma` →
//! [`crate::Gni::post_rdma`], and so on.

use bytes::Bytes;
use gemini_net::{Addr, FaultKind, MemHandle, NodeId, RdmaOp};
use sim_core::Time;

/// Completion queue handle (`gni_cq_handle_t`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CqHandle(pub(crate) u32);

/// Endpoint handle (`gni_ep_handle_t`): a bound (local node, remote node)
/// pair with a CQ for local completions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EpHandle(pub(crate) u32);

/// Return codes, mirroring `gni_return_t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GniError {
    /// `GNI_RC_NOT_DONE`: nothing ready yet.
    NotDone,
    /// SMSG mailbox credits exhausted for this connection; retry at the
    /// embedded time (`GNI_RC_NOT_DONE` on the real NIC; we carry the
    /// earliest useful retry time to keep the simulation event-efficient).
    NoCredits { retry_at: Time },
    /// Payload exceeds the SMSG limit (`GNI_RC_INVALID_PARAM`).
    TooLarge { limit: u32 },
    /// Unknown or stale handle (`GNI_RC_INVALID_PARAM`).
    InvalidHandle,
    /// RDMA against unregistered memory (`GNI_RC_PERMISSION_ERROR`).
    NotRegistered,
    /// The transaction failed in the fabric (`GNI_RC_TRANSACTION_ERROR`).
    /// The sender's CPU cost was still paid and the failure is observable
    /// at `error_at`; when `delivered_at` is `Some` the payload landed
    /// anyway (corrupted completion) and a resend will duplicate it.
    TransactionError {
        kind: FaultKind,
        cpu: Time,
        error_at: Time,
        delivered_at: Option<Time>,
    },
    /// The CQ overflowed and dropped events (`GNI_CQ_OVERRUN`). The queue
    /// stays in the error state until [`crate::Gni::cq_resync`] audits and
    /// recovers the lost completions.
    CqOverrun,
    /// Transient NIC resource exhaustion (`GNI_RC_ERROR_RESOURCE`), e.g.
    /// no memory-descriptor slots left for `GNI_MemRegister`.
    ResourceError,
    /// A node id outside the job (`GNI_RC_INVALID_PARAM`): the caller
    /// addressed a node the fabric was never brought up on.
    InvalidNode,
    /// An internal invariant of the simulated NIC broke (peek/pop desync
    /// and the like). Never expected; surfaced as a typed error so the
    /// contract verifier can report it instead of an opaque panic.
    Internal(&'static str),
}

pub type GniResult<T> = Result<T, GniError>;

/// Transaction descriptor for `post_fma` / `post_rdma`
/// (`gni_post_descriptor_t`).
#[derive(Debug, Clone)]
pub struct PostDescriptor {
    pub op: RdmaOp,
    /// Registered memory on the initiating node.
    pub local_mem: MemHandle,
    /// Buffer address within the local registration (content key).
    pub local_addr: Addr,
    /// Registered memory on the remote node.
    pub remote_mem: MemHandle,
    /// Buffer address within the remote registration (content key).
    pub remote_addr: Addr,
    pub bytes: u64,
    /// For PUT: the payload to deposit into remote memory.
    pub data: Option<Bytes>,
    /// Opaque id returned in the completion event (`post_id`).
    pub user_id: u64,
}

/// An event delivered by a completion queue.
#[derive(Debug, Clone)]
pub enum CqEvent {
    /// A posted FMA/BTE transaction completed locally.
    PostDone {
        user_id: u64,
        op: RdmaOp,
        /// For GET: the bytes read out of remote memory.
        data: Option<Bytes>,
    },
    /// An SMSG landed in this node's mailbox (drain it with
    /// `smsg_get_next_w_tag`).
    SmsgRx { from: NodeId },
    /// A posted FMA/BTE transaction failed in the fabric
    /// (`GNI_CQ_STATUS` error bits). Carries the posting descriptor's
    /// `user_id` so the initiator can find and re-post the transfer.
    PostError {
        user_id: u64,
        op: RdmaOp,
        kind: FaultKind,
    },
}

/// Result of a successful SMSG send.
#[derive(Debug, Clone, Copy)]
pub struct SmsgSendOk {
    /// CPU time the sender burned (charge as overhead).
    pub cpu: Time,
    /// When the message is pollable at the destination. The caller is
    /// responsible for arranging a progress wake-up at the remote node —
    /// the simulation has no daemon threads.
    pub deliver_at: Time,
}

/// Result of a successful post (FMA or RDMA).
#[derive(Debug, Clone, Copy)]
pub struct PostOk {
    /// CPU time the initiator burned.
    pub cpu: Time,
    /// When the local CQ will report `PostDone`.
    pub local_cq_at: Time,
    /// When the data is fully visible at its destination.
    pub data_at: Time,
}

/// A received SMSG.
#[derive(Debug, Clone)]
pub struct SmsgRecv {
    pub tag: u8,
    /// The sending endpoint's local instance (`ep_create_inst`'s
    /// `local_inst`): the sender's PE under `lrts-ugni`, its rank under
    /// `mpi-sim`. Not a node.
    pub from_inst: u32,
    pub data: Bytes,
    /// CPU cost of the dequeue + copy out of the mailbox.
    pub cpu: Time,
}
