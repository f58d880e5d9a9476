//! The repository benchmark: seconds-long seeded workloads, five
//! end-to-end metrics, per-layer numbers measured from outside the
//! program. See `README.md` for the definitions and `../BENCHMARK.json`
//! for the contract.
//!
//! Every layer is reached through its public API only: `Cluster::new`
//! with a boxed [`charm_rt::lrts::MachineLayer`], `register_am` /
//! `am_send` / `inject` / `run`, the `charm-apps` entry points, and the
//! lower crates' `pub fn`s.

pub mod cli;
pub mod compare;
pub mod driver;
pub mod json;
pub mod measure;
pub mod probes;
pub mod run;
pub mod span;
pub mod spec;
pub mod workloads;
