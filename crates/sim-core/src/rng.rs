//! Deterministic random numbers for workloads.
//!
//! Experiments must be reproducible run-to-run, so all randomness in this
//! workspace flows through [`DetRng`], a seeded xoshiro-style generator
//! (`rand::rngs::SmallRng`). Helpers cover the distributions the paper's
//! workloads need: uniform placement (N-Queens random task assignment) and
//! a heavy-tailed work distribution (leaf subtree cost model).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A deterministic, seedable RNG.
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: SmallRng,
}

impl DetRng {
    /// Create from a 64-bit seed. Equal seeds yield equal streams.
    pub fn seed(seed: u64) -> Self {
        Self {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derive a child RNG from this seed and a stream id, without consuming
    /// state from `self`. Used to give each PE / task an independent but
    /// reproducible stream.
    pub fn derive(base_seed: u64, stream: u64) -> Self {
        // SplitMix64 finalizer mixes the pair into a well-distributed seed.
        let mut z =
            base_seed.wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(stream.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        Self::seed(z)
    }

    /// Uniform in `[0, n)`. `n` must be nonzero.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.inner.gen_range(0..n)
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        self.inner.gen_range(lo..hi)
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// A raw 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.gen()
    }

    /// Sample a bounded Pareto (heavy-tail) value in `[lo, hi]` with shape
    /// `alpha`. Smaller `alpha` means heavier tail. This models the skewed
    /// leaf-subtree costs in state-space search (see DESIGN.md §4).
    pub fn bounded_pareto(&mut self, lo: f64, hi: f64, alpha: f64) -> f64 {
        assert!(lo > 0.0 && hi > lo && alpha > 0.0);
        let u = self.unit().clamp(1e-12, 1.0 - 1e-12);
        let la = lo.powf(alpha);
        let ha = hi.powf(alpha);
        // Inverse CDF of the bounded Pareto distribution.
        let x = (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha);
        x.clamp(lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed(7);
        let mut b = DetRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::seed(1);
        let mut b = DetRng::seed(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be effectively independent");
    }

    #[test]
    fn derive_is_deterministic_and_distinct() {
        let mut a = DetRng::derive(99, 0);
        let mut a2 = DetRng::derive(99, 0);
        let mut b = DetRng::derive(99, 1);
        assert_eq!(a.next_u64(), a2.next_u64());
        assert_ne!(DetRng::derive(99, 0).next_u64(), b.next_u64());
    }

    #[test]
    fn below_is_in_range() {
        let mut r = DetRng::seed(3);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
            let x = r.range(5, 10);
            assert!((5..10).contains(&x));
        }
    }

    #[test]
    fn bounded_pareto_within_bounds_and_skewed() {
        let mut r = DetRng::seed(42);
        let (lo, hi) = (1.0, 1000.0);
        let n = 20_000;
        let mut sum = 0.0;
        let mut below_10 = 0usize;
        for _ in 0..n {
            let x = r.bounded_pareto(lo, hi, 1.1);
            assert!((lo..=hi).contains(&x));
            sum += x;
            if x < 10.0 {
                below_10 += 1;
            }
        }
        let mean = sum / n as f64;
        // Heavy tail: most samples small, mean well above median region.
        assert!(below_10 as f64 / n as f64 > 0.7, "tail not heavy enough");
        assert!(mean > 3.0, "mean {mean} unexpectedly small");
    }
}
