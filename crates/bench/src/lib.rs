//! `charm-bench`: the harness that regenerates every table and figure of
//! the paper's evaluation (§V). Each `fig*`/`table*` function returns the
//! same rows/series the paper reports; the binaries under `src/bin/` print
//! them, and `src/bin/all.rs` regenerates everything in one run.
//!
//! Absolute numbers come from the calibrated simulator (DESIGN.md §3) —
//! the claim being reproduced is the *shape*: who wins, by what factor,
//! where the crossovers fall.

pub mod ablations;
pub(crate) mod figures;
pub(crate) mod tables;

pub use ablations::*;
pub use figures::*;
pub use tables::*;

/// Default iteration counts, tuned so every figure regenerates in seconds
/// in release mode while still averaging over steady-state behaviour.
#[derive(Debug, Clone)]
pub struct Effort {
    pub(crate) pingpong_iters: u64,
    pub(crate) md_steps: u32,
    /// Scale factor on the largest core counts (1 = paper scale).
    pub(crate) full_scale: bool,
}

impl Default for Effort {
    fn default() -> Self {
        Effort {
            pingpong_iters: 50,
            md_steps: 3,
            full_scale: true,
        }
    }
}

impl Effort {
    /// Reduced effort for integration tests / debug builds.
    pub fn quick() -> Self {
        Effort {
            pingpong_iters: 12,
            md_steps: 2,
            full_scale: false,
        }
    }
}
