//! `charm-apps`: benchmark programs and proxy applications from the
//! paper's evaluation (§V), all written against the `charm-rt` public API
//! and linkable against either machine layer:
//!
//! * [`pingpong`] — latency/bandwidth at the uGNI, MPI, and Charm levels
//!   (Figs. 1, 4, 6, 8, 9a, 9b);
//! * [`one_to_all`] — the one-to-all latency benchmark (Fig. 9c);
//! * [`kneighbor`] — the synthetic kNeighbor benchmark (Fig. 10);
//! * [`nqueens`] — N-Queens on the state-space search engine
//!   (Fig. 11, Fig. 12, Table I);
//! * [`jacobi2d`] — a 5-point stencil on a chare array (example app);
//! * [`minimd`] — a NAMD-like molecular-dynamics proxy with patches,
//!   pairwise computes, per-step PME, and greedy measurement-based load
//!   balancing (Fig. 13, Table II).

pub mod common;
pub mod jacobi2d;
pub mod kneighbor;
pub mod minimd;
pub mod nqueens;
pub mod one_to_all;
pub mod pingpong;

pub use common::{assert_contract_clean, LayerKind};
