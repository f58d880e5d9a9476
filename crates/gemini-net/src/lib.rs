//! A discrete-event model of the Cray Gemini interconnect (paper §II).
//!
//! This crate is the hardware substrate substituted for the real Gemini
//! ASIC (see DESIGN.md §1). It models:
//!
//! * the **3D torus** with dimension-ordered routing and per-link
//!   bandwidth contention ([`topology`], [`links`]);
//! * the **NIC**: SMSG mailboxes with per-connection credits and a
//!   job-size-dependent message limit, the FMA unit (low latency, CPU
//!   participates) and the BTE engine (offloaded, higher start-up)
//!   ([`fabric`]);
//! * **memory registration** and its cost, plus a uDREG-style registration
//!   cache for the MPI baseline ([`reg`]);
//! * a single calibrated parameter set ([`params::GeminiParams`]).
//!
//! The fabric is a *timing oracle*: calls return completion timestamps and
//! CPU costs; the runtime driver above turns them into simulation events.
//! No payload bytes move through this crate.

pub(crate) mod fabric;
pub(crate) mod fault;
pub(crate) mod links;
pub(crate) mod params;
pub(crate) mod reg;
pub(crate) mod topology;

pub use fabric::{near_cubic, Fabric, FabricStats, RdmaOutcome, SmsgError, SmsgOutcome};
pub use fault::{FaultKind, FaultPlan, FaultPlanError, LinkDownWindow, NodeCrashWindow};
pub use params::{GeminiParams, Mechanism, RdmaOp, PAGE};
pub use reg::{Addr, DeregError, MemHandle, RegCache, RegTable};
pub use topology::{LinkId, NodeId, TopologyError, Torus, Walk};
