//! 3D torus topology and dimension-ordered routing.
//!
//! Gemini builds "a three-dimensional torus of connected nodes" (paper
//! §II-A). We model one router per node (the real ASIC serves two nodes;
//! that factor is folded into link bandwidth) and route packets
//! dimension-ordered (x, then y, then z), taking the shorter way around
//! each ring. Real Gemini routes packet-by-packet adaptively; deterministic
//! DOR keeps the simulation reproducible while preserving hop counts and
//! locality, which is what latency depends on.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Node index in `0..num_nodes`.
pub type NodeId = u32;

/// Why a torus cannot be constructed.
///
/// `NodeId`/PE ids are `u32`; dimension products are computed in `u64`
/// internally and rejected here instead of wrapping silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// Some dimension is zero — the torus would contain no nodes.
    EmptyDim { dims: (u32, u32, u32) },
    /// `x * y * z` does not fit a `u32` node id.
    NodeOverflow { dims: (u32, u32, u32), nodes: u64 },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TopologyError::EmptyDim { dims } => {
                write!(f, "empty torus: dims {dims:?} contain a zero")
            }
            TopologyError::NodeOverflow { dims, nodes } => write!(
                f,
                "torus {dims:?} has {nodes} nodes, exceeding the u32 NodeId space"
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

/// A directed link: from node `from`, along `dim` (0=x,1=y,2=z), in `dir`
/// (+1 or -1 step around the ring).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LinkId {
    pub(crate) from: NodeId,
    pub(crate) dim: u8,
    pub(crate) plus: bool,
}

/// The torus: dimensions and coordinate conversion.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Torus {
    pub(crate) dims: (u32, u32, u32),
}

impl Torus {
    /// Validated constructor: every dim positive and `x*y*z` within the
    /// `u32` NodeId space (the product is taken in `u64` so large dims are
    /// rejected instead of wrapping).
    pub(crate) fn try_new(dims: (u32, u32, u32)) -> Result<Self, TopologyError> {
        if dims.0 == 0 || dims.1 == 0 || dims.2 == 0 {
            return Err(TopologyError::EmptyDim { dims });
        }
        let nodes = dims.0 as u64 * dims.1 as u64 * dims.2 as u64;
        if nodes > u32::MAX as u64 {
            return Err(TopologyError::NodeOverflow { dims, nodes });
        }
        Ok(Torus { dims })
    }

    /// Panicking constructor for in-range dims (the common path in tests
    /// and calibrated configs).
    pub fn new(dims: (u32, u32, u32)) -> Self {
        match Self::try_new(dims) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    pub fn num_nodes(&self) -> u32 {
        // `try_new` guarantees the u64 product fits; recompute widened so
        // a hand-built `Torus { dims }` (e.g. via Deserialize) still can't
        // wrap silently.
        let n = self.dims.0 as u64 * self.dims.1 as u64 * self.dims.2 as u64;
        debug_assert!(n <= u32::MAX as u64, "torus dims overflow NodeId");
        n as u32
    }

    /// Node id -> (x, y, z) coordinates.
    pub(crate) fn coords(&self, n: NodeId) -> (u32, u32, u32) {
        debug_assert!(n < self.num_nodes());
        let plane = self.dims.0 as u64 * self.dims.1 as u64;
        let x = n % self.dims.0;
        let y = (n / self.dims.0) % self.dims.1;
        let z = (n as u64 / plane) as u32;
        (x, y, z)
    }

    /// (x, y, z) -> node id.
    pub fn node_at(&self, c: (u32, u32, u32)) -> NodeId {
        debug_assert!(c.0 < self.dims.0 && c.1 < self.dims.1 && c.2 < self.dims.2);
        let n = c.0 as u64
            + c.1 as u64 * self.dims.0 as u64
            + c.2 as u64 * self.dims.0 as u64 * self.dims.1 as u64;
        n as NodeId
    }

    /// Signed shortest step count along one ring of size `k` from `a` to
    /// `b`: positive means stepping in + direction.
    fn ring_delta(k: u32, a: u32, b: u32) -> i64 {
        let fwd = ((b + k - a) % k) as i64; // steps in + direction
        let bwd = fwd - k as i64; // negative: steps in - direction
        if fwd <= -bwd {
            fwd
        } else {
            bwd
        }
    }

    /// Minimal hop count between two nodes.
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        self.walk(a, b).len() as u32
    }

    /// The dimension-ordered route from `a` to `b`, walked one directed
    /// link at a time without building it. Empty when `a == b`.
    pub(crate) fn walk(&self, a: NodeId, b: NodeId) -> Walk {
        let (ca, cb) = (self.coords(a), self.coords(b));
        let dims = [self.dims.0, self.dims.1, self.dims.2];
        let (at, to) = ([ca.0, ca.1, ca.2], [cb.0, cb.1, cb.2]);
        let delta: [i64; 3] = std::array::from_fn(|d| Self::ring_delta(dims[d], at[d], to[d]));
        Walk {
            node: a,
            at,
            left: delta.map(|d| d.unsigned_abs() as u32),
            plus: delta.map(|d| d > 0),
            dims,
            stride: [1, dims[0], dims[0] * dims[1]],
        }
    }

    /// The dimension-ordered route from `a` to `b` as a list of directed
    /// links: [`Torus::walk`], collected.
    pub fn route(&self, a: NodeId, b: NodeId) -> Vec<LinkId> {
        self.walk(a, b).collect()
    }
}

/// A dimension-ordered route in progress (x, then y, then z): the node it
/// stands on and the hops left in each dimension. Each step moves the
/// node id by the dimension's stride, wrapping at the ring's end.
#[derive(Debug, Clone, Copy)]
pub struct Walk {
    node: NodeId,
    /// Coordinates of `node`.
    at: [u32; 3],
    left: [u32; 3],
    plus: [bool; 3],
    dims: [u32; 3],
    stride: [u32; 3],
}

impl Iterator for Walk {
    type Item = LinkId;

    #[inline]
    fn next(&mut self) -> Option<LinkId> {
        let d = self.left.iter().position(|&n| n > 0)?;
        self.left[d] -= 1;
        let (plus, k, s) = (self.plus[d], self.dims[d], self.stride[d]);
        let link = LinkId {
            from: self.node,
            dim: d as u8,
            plus,
        };
        // Stepping off either end of the ring lands on its other end.
        (self.at[d], self.node) = match (plus, self.at[d]) {
            (true, c) if c + 1 == k => (0, self.node - (k - 1) * s),
            (true, c) => (c + 1, self.node + s),
            (false, 0) => (k - 1, self.node + (k - 1) * s),
            (false, c) => (c - 1, self.node - s),
        };
        Some(link)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.left.iter().sum::<u32>() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Walk {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_round_trip() {
        let t = Torus::new((4, 3, 5));
        for n in 0..t.num_nodes() {
            assert_eq!(t.node_at(t.coords(n)), n);
        }
    }

    #[test]
    fn self_route_is_empty() {
        let t = Torus::new((4, 4, 4));
        assert!(t.route(13, 13).is_empty());
        assert_eq!(t.hops(13, 13), 0);
    }

    #[test]
    fn neighbor_is_one_hop() {
        let t = Torus::new((4, 4, 4));
        let a = t.node_at((0, 0, 0));
        let b = t.node_at((1, 0, 0));
        assert_eq!(t.hops(a, b), 1);
        assert_eq!(t.route(a, b).len(), 1);
    }

    #[test]
    fn wraparound_takes_short_way() {
        let t = Torus::new((8, 1, 1));
        let a = t.node_at((0, 0, 0));
        let b = t.node_at((7, 0, 0));
        // 7 forward or 1 backward: must take 1 hop.
        assert_eq!(t.hops(a, b), 1);
        let r = t.route(a, b);
        assert_eq!(r.len(), 1);
        assert!(!r[0].plus, "should step in the - direction");
    }

    #[test]
    fn route_length_equals_hops() {
        let t = Torus::new((5, 4, 3));
        let ring = |k: u32, a: u32, b: u32| ((b + k - a) % k).min((a + k - b) % k);
        for a in 0..t.num_nodes() {
            for b in 0..t.num_nodes() {
                let (ca, cb) = (t.coords(a), t.coords(b));
                let min = ring(5, ca.0, cb.0) + ring(4, ca.1, cb.1) + ring(3, ca.2, cb.2);
                assert_eq!(t.hops(a, b), min, "{a}->{b}");
                assert_eq!(t.route(a, b).len() as u32, min, "{a}->{b}");
            }
        }
    }

    #[test]
    fn hops_symmetric() {
        let t = Torus::new((5, 4, 3));
        for a in 0..t.num_nodes() {
            for b in 0..t.num_nodes() {
                assert_eq!(t.hops(a, b), t.hops(b, a));
            }
        }
    }

    #[test]
    fn max_hops_bounded_by_half_dims() {
        let t = Torus::new((6, 4, 2));
        let bound = 6 / 2 + 4 / 2 + 2 / 2;
        for a in 0..t.num_nodes() {
            for b in 0..t.num_nodes() {
                assert!(t.hops(a, b) <= bound);
            }
        }
    }

    #[test]
    fn ordered_routes_are_minimal_and_distinct() {
        let t = Torus::new((4, 4, 4));
        let a = t.node_at((0, 0, 0));
        let b = t.node_at((2, 2, 0));
        let there = t.route(a, b);
        let back = t.route(b, a);
        assert_eq!(there.len() as u32, t.hops(a, b), "minimal");
        assert_eq!(back.len(), there.len(), "minimal both ways");
        let dims: Vec<u8> = there.iter().map(|l| l.dim).collect();
        assert_eq!(dims, [0, 0, 1, 1], "x is corrected before y");
        assert!(there.iter().all(|l| !back.contains(l)), "no shared link");
    }

    #[test]
    fn zero_dim_is_typed_error() {
        assert_eq!(
            Torus::try_new((4, 0, 4)),
            Err(TopologyError::EmptyDim { dims: (4, 0, 4) })
        );
    }

    #[test]
    fn node_count_at_u32_boundary_is_exact() {
        // 2^16 * 2^16 * 1 = 2^32 - must be rejected, not wrap to 0.
        let over = Torus::try_new((1 << 16, 1 << 16, 1));
        assert_eq!(
            over,
            Err(TopologyError::NodeOverflow {
                dims: (1 << 16, 1 << 16, 1),
                nodes: 1u64 << 32,
            })
        );
        // One ring shorter fits exactly.
        let t = Torus::try_new((1 << 16, (1 << 16) - 1, 1)).unwrap();
        assert_eq!(t.num_nodes() as u64, (1u64 << 16) * ((1u64 << 16) - 1));
    }

    #[test]
    fn coords_round_trip_near_u32_boundary() {
        // Largest-index nodes of a near-max torus: the old u32 products in
        // coords()/node_at() would have wrapped here for larger dims.
        let t = Torus::try_new((65536, 32767, 2)).unwrap();
        assert_eq!(t.num_nodes() as u64, 65536u64 * 32767 * 2);
        for n in [0, 1, t.num_nodes() - 1, t.num_nodes() / 2] {
            assert_eq!(t.node_at(t.coords(n)), n);
        }
    }

    #[test]
    #[should_panic(expected = "exceeding the u32 NodeId space")]
    fn new_panics_with_typed_message_on_overflow() {
        let _ = Torus::new((1 << 16, 1 << 16, 2));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn torus_strategy() -> impl Strategy<Value = Torus> {
        (1u32..6, 1u32..6, 1u32..6).prop_map(Torus::new)
    }

    proptest! {
        /// Routes are valid walks: consecutive links chain, and the walk
        /// ends at the destination.
        #[test]
        fn routes_are_connected_walks(t in torus_strategy(), seed in 0u64..1000) {
            let n = t.num_nodes() as u64;
            let a = (seed % n) as NodeId;
            let b = ((seed / n) % n) as NodeId;
            let route = t.route(a, b);
            let mut cur = a;
            for l in &route {
                prop_assert_eq!(l.from, cur);
                let c = t.coords(cur);
                let dims = [t.dims.0, t.dims.1, t.dims.2];
                let k = dims[l.dim as usize];
                let step = |v: u32| if l.plus { (v + 1) % k } else { (v + k - 1) % k };
                cur = match l.dim {
                    0 => t.node_at((step(c.0), c.1, c.2)),
                    1 => t.node_at((c.0, step(c.1), c.2)),
                    _ => t.node_at((c.0, c.1, step(c.2))),
                };
            }
            prop_assert_eq!(cur, b);
        }

        /// Triangle inequality on hop distance.
        #[test]
        fn hops_triangle_inequality(t in torus_strategy(), seed in 0u64..100_000) {
            let n = t.num_nodes() as u64;
            let a = (seed % n) as NodeId;
            let b = ((seed / n) % n) as NodeId;
            let c = ((seed / (n * n)) % n) as NodeId;
            prop_assert!(t.hops(a, c) <= t.hops(a, b) + t.hops(b, c));
        }
    }
}
