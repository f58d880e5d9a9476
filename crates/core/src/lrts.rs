//! The Lower-level RunTime System (LRTS) interface — paper §III-B.
//!
//! This is the "concise specification of the minimum requirements to
//! implement the CHARM++ software stack" on a new network. The three
//! essential functions map directly:
//!
//! | Paper                   | Here                              |
//! |-------------------------|-----------------------------------|
//! | `LrtsInit`              | [`MachineLayer::init`]            |
//! | `LrtsSyncSend`          | [`MachineLayer::sync_send`]       |
//! | `LrtsNetworkEngine`     | [`MachineLayer::on_event`] (the progress engine, driven by simulation events instead of a poll loop) |
//! | `LrtsCreatePersistent`  | [`MachineLayer::create_persistent`] |
//! | `LrtsSendPersistentMsg` | [`MachineLayer::send_persistent`] |
//!
//! A machine layer is a state machine: `sync_send` starts a protocol,
//! `on_event` advances it when the simulated NIC raises completions, and
//! delivery back into the Converse scheduler happens through
//! [`crate::cluster::MachineCtx::deliver`]. All CPU time a layer burns
//! must be charged via [`crate::cluster::MachineCtx::charge`] so it shows
//! up in traces by its [`crate::cluster::Charge`] category (overhead is the
//! black part of the paper's Fig. 12). The runtime counts every message
//! a layer is handed as one network send.

use crate::cluster::MachineCtx;
use crate::msg::PeId;
use bytes::Bytes;
use std::any::Any;

/// Handle for a persistent communication channel (paper §IV-A). Allocated
/// by the driver; bound to machine-layer state when the create command is
/// processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PersistentHandle(pub u64);

/// A Converse machine layer.
pub trait MachineLayer {
    /// Short name used in reports (e.g. `"uGNI"`, `"MPI"`).
    fn name(&self) -> &'static str;

    /// Downcast access, so harnesses can read layer-specific stats after a
    /// run (`cluster.layer_mut::<UgniLayer>()`).
    fn as_any(&mut self) -> &mut dyn Any;

    /// `LrtsInit`: one-time setup (mailboxes, CQs, pools).
    fn init(&mut self, ctx: &mut MachineCtx);

    /// `LrtsSyncSend`: non-blocking send of an encoded [`crate::msg::Envelope`]
    /// from `src_pe` to `dst_pe`. "The message is either sent immediately
    /// to network or buffered."
    fn sync_send(&mut self, ctx: &mut MachineCtx, src_pe: PeId, dst_pe: PeId, msg: Bytes);

    /// Progress engine: a machine-specific event fired (SMSG arrival, CQ
    /// completion, retry timer, ...). Events are delivered when the owning
    /// PE is free, modeling progress made between handler executions.
    fn on_event(&mut self, ctx: &mut MachineCtx, pe: PeId, ev: Box<dyn Any + Send>);

    /// Conservative lookahead (ns) for parallel execution: a lower bound on
    /// the virtual latency of any cross-node interaction this layer can
    /// produce. The parallel driver sizes its bounded time windows with
    /// this; correctness never depends on it (the serial phase orders all
    /// layer work canonically), so a conservative 1 is always safe.
    fn lookahead(&self) -> sim_core::Time {
        1
    }

    /// `LrtsCreatePersistent`: set up a persistent channel from `src_pe`
    /// to `dst_pe` with a pre-allocated receive buffer of `max_bytes`.
    /// Layers without persistent support ignore this; subsequent
    /// [`MachineLayer::send_persistent`] calls then fall back to
    /// [`MachineLayer::sync_send`].
    fn create_persistent(
        &mut self,
        _ctx: &mut MachineCtx,
        _src_pe: PeId,
        _dst_pe: PeId,
        _max_bytes: u64,
        _handle: PersistentHandle,
    ) {
    }

    /// `LrtsSendPersistentMsg`. Default: ordinary send.
    fn send_persistent(
        &mut self,
        ctx: &mut MachineCtx,
        _handle: PersistentHandle,
        src_pe: PeId,
        dst_pe: PeId,
        msg: Bytes,
    ) {
        self.sync_send(ctx, src_pe, dst_pe, msg);
    }

    /// A node entered a crash window: its NIC-side state (armed progress
    /// polls, outbound backlogs, half-open transactions rooted on its PEs)
    /// dies with the node's memory. Without this the layer's poll
    /// coalescing can point at progress events the runtime dropped on the
    /// dead node's floor, wedging the connection after a restart. Layers
    /// with no per-node progress state can keep the no-op default.
    fn node_fault(&mut self, _ctx: &mut MachineCtx, _node: gemini_net::NodeId) {}
}
