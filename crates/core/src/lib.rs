//! `charm-rt`: an asynchronous message-driven runtime system in Rust,
//! reproducing the Charm++/Converse stack of the paper (§III).
//!
//! Layering, top to bottom (paper Fig. 3):
//!
//! * `charm` — chare arrays, entry methods, broadcast, reductions;
//! * [`ssse`] — the state-space search engine used by N-Queens;
//! * [`cluster`] — the Converse scheduler per PE plus the discrete-event
//!   engines that bind everything to virtual time (one event-semantics
//!   kernel, a sequential and a conservative parallel caller);
//! * [`lrts`] — the Lower-level RunTime System interface a machine layer
//!   implements (`LrtsInit` / `LrtsSyncSend` / `LrtsNetworkEngine` /
//!   persistent messages);
//! * `ideal` — a perfect-network machine layer for tests and ablations.
//!
//! Machine layers for the simulated Gemini (`lrts-ugni`) and the simulated
//! MPI (`lrts-mpi`) live in sibling crates.
//!
//! # Quickstart
//!
//! Typed active messages (`am`): register a handler once per message
//! *type* and send typed values — no handler enums, no byte packing.
//!
//! ```
//! use charm_rt::prelude::*;
//! use bytes::Bytes;
//! use std::sync::{Arc, OnceLock};
//!
//! let mut c = Cluster::new(ClusterCfg::new(4, 2), Box::new(IdealLayer::new(1_000)));
//! let hop_cell: Arc<OnceLock<AmId>> = Arc::new(OnceLock::new());
//! let cell = hop_cell.clone();
//! let hop = c.register_am::<u64>(move |ctx, _src, count| {
//!     if ctx.pe() + 1 < ctx.num_pes() {
//!         ctx.am_send(ctx.pe() + 1, *cell.get().unwrap(), count + 1);
//!     } else {
//!         assert_eq!(count, 3);
//!         ctx.stop();
//!     }
//! });
//! hop_cell.set(hop).unwrap();
//! c.inject(0, 0, hop.handler(), Bytes::from(vec![0u8; 8]));
//! let report = c.run();
//! assert!(report.stopped_early);
//! ```

pub(crate) mod am;
pub(crate) mod charm;
pub mod cluster;
mod config;
mod ctx;
pub(crate) mod ft;
pub(crate) mod ideal;
mod kernel;
pub mod lrts;
pub mod msg;
mod par;
pub mod pe_table;
mod sched;
pub mod ssse;
pub(crate) mod trace;

/// The commonly used names, for `use charm_rt::prelude::*`.
pub mod prelude {
    pub use crate::am::{AmConfig, AmData, AmId};
    pub use crate::charm::{ArrayId, EntryId, RedOp, CHARM_HANDLER};
    pub use crate::cluster::{
        take_sync_overhead_ns, Charge, Cluster, ClusterCfg, ClusterStats, MachineCtx, PeCtx,
        RunReport,
    };
    pub use crate::ft::{Checkpoint, FtConfig, FtReport};
    pub use crate::ideal::IdealLayer;
    pub use crate::lrts::{MachineLayer, PersistentHandle};
    pub use crate::msg::{wire, Envelope, HandlerId, PeId};
    pub use crate::ssse::{Ssse, SsseStats};
}
