//! Per-link contention model.
//!
//! Transfers are pipelined: a message pays its serialization time once (at
//! the path bottleneck) plus one router latency per hop. Contention is
//! modeled by per-directed-link `busy_until` times: a transfer reserves
//! every link on its dimension-ordered route for its serialization window,
//! so concurrent transfers through shared links queue up. This is the
//! mechanism behind the paper's Fig. 8(c) observation that routing
//! intra-node traffic through the NIC "interferes with uGNI handling
//! inter-node communication".

use crate::topology::{LinkId, Walk};
use sim_core::{time, LazyVec, Time};

/// Materialization grain for link state. Dimension-ordered routes touch
/// runs of adjacent x-links but scatter across y/z (indices jump by the
/// row/plane size), so large pages materialize mostly dead slots around
/// every y/z hop. 64 links x 16-byte records = 1 KiB pages.
pub(crate) const LINK_PAGE: usize = 64;

/// One directed link: when it is next free and what it has carried.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Link {
    pub(crate) busy_until: Time,
    pub(crate) bytes_carried: u64,
}

/// Busy-until bookkeeping for every directed link in the torus.
///
/// Storage is lazily paged: the table is *logically* dense over all
/// `num_nodes * 6` directed links, but a link allocates nothing until a
/// transfer actually reserves it — the whole-machine torus costs a page
/// table, not O(nodes) vectors, and a job touching a corner of the machine
/// pays only for the links its routes cross.
#[derive(Debug)]
pub(crate) struct LinkTable {
    /// Indexed by `from * 6 + dim * 2 + plus`.
    links: LazyVec<Link, LINK_PAGE>,
    bw_gbs: f64,
    hop_latency: Time,
}

impl LinkTable {
    pub(crate) fn new(num_nodes: u32, bw_gbs: f64, hop_latency: Time) -> Self {
        LinkTable {
            links: LazyVec::new(num_nodes as usize * 6, Link::default()),
            bw_gbs,
            hop_latency,
        }
    }

    /// Pages of link state currently materialized (memory diagnostics).
    pub(crate) fn materialized_pages(&self) -> usize {
        self.links.materialized_pages()
    }

    #[inline]
    fn idx(l: &LinkId) -> usize {
        l.from as usize * 6 + l.dim as usize * 2 + usize::from(l.plus)
    }

    /// Reserve the route for `bytes` starting no earlier than `earliest`;
    /// returns `(sent, arrive)`: when the last byte leaves the source (the
    /// route's links are busy until then) and when it reaches the far end
    /// of the last link. An empty route (same-node loopback through the
    /// NIC) has no router hops and waits for no link.
    ///
    /// `bw_cap_gbs` lets the caller clamp throughput below link rate (e.g.
    /// the FMA unit's streaming limit).
    pub(crate) fn reserve(
        &mut self,
        earliest: Time,
        route: Walk,
        bytes: u64,
        bw_cap_gbs: f64,
    ) -> (Time, Time) {
        let ser = time::transfer_ns(bytes, self.bw_gbs.min(bw_cap_gbs));
        let sent = earliest.max(self.path_busy(route)) + ser;
        for l in route {
            let link = self.links.get_mut(Self::idx(&l));
            link.busy_until = sent;
            link.bytes_carried += bytes;
        }
        (sent, sent + self.hop_latency * route.len() as Time)
    }

    /// Latest `busy_until` along a route; 0 for an empty one.
    fn path_busy(&self, route: Walk) -> Time {
        let busy = route.map(|l| self.links.get(Self::idx(&l)).busy_until);
        busy.max().unwrap_or(0)
    }

    /// Total bytes ever carried over all links (diagnostics). Untouched
    /// links carried 0 bytes, so summing only materialized pages is exact.
    pub(crate) fn total_bytes(&self) -> u64 {
        self.carried().sum()
    }

    /// Bytes carried by every materialized link.
    fn carried(&self) -> impl Iterator<Item = u64> + '_ {
        let pages = self.links.iter_pages();
        pages.flat_map(|(_, p)| p.iter().map(|l| l.bytes_carried))
    }
}

/// The lazy-vs-eager reference model the differential proptests compare
/// against.
#[cfg(test)]
impl LinkTable {
    /// Eager twin — every link materialized up front. Observationally
    /// identical; the lazy-vs-eager differential proptests compare against it.
    pub(crate) fn eager(self) -> Self {
        LinkTable {
            links: self.links.eager(),
            ..self
        }
    }

    /// One directed link's state — what the differential tests compare.
    pub(crate) fn link(&self, l: &LinkId) -> Link {
        *self.links.get(Self::idx(l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Torus;

    fn net() -> (Torus, LinkTable) {
        let topo = Torus::new((4, 4, 4));
        let links = LinkTable::new(topo.num_nodes(), 6.0, 100);
        (topo, links)
    }

    #[test]
    fn uncontended_transfer_time() {
        let (t, mut l) = net();
        let route = t.walk(0, 1);
        assert_eq!(route.len(), 1);
        // 6000 bytes at 6 GB/s = 1000ns serialization + 100ns hop.
        assert_eq!(l.reserve(0, route, 6000, f64::INFINITY), (1000, 1100));
    }

    #[test]
    fn loopback_has_no_hops() {
        let (t, mut l) = net();
        let x = l.reserve(10, t.walk(5, 5), 6000, f64::INFINITY);
        assert_eq!(x, (10 + 1000, 10 + 1000));
    }

    #[test]
    fn back_to_back_transfers_queue_on_link() {
        let (t, mut l) = net();
        let (_, a1) = l.reserve(0, t.walk(0, 1), 6000, f64::INFINITY);
        // Second transfer at the same instant must wait for the first
        // serialization window (1000ns), then pay its own.
        let (sent, a2) = l.reserve(0, t.walk(0, 1), 6000, f64::INFINITY);
        assert_eq!((sent, a2), (2000, 2100));
        assert!(a2 > a1);
    }

    #[test]
    fn disjoint_routes_do_not_contend() {
        let (t, mut l) = net();
        let c = t.coords(0);
        let other = t.node_at((c.0, (c.1 + 1) % 4, c.2));
        let x1 = l.reserve(0, t.walk(0, 1), 6000, f64::INFINITY);
        let x2 = l.reserve(0, t.walk(0, other), 6000, f64::INFINITY);
        assert_eq!(x2.0, 1000, "different dimension, no shared link");
        assert_eq!(x1, x2);
    }

    #[test]
    fn bandwidth_cap_slows_transfer() {
        let (t, mut l) = net();
        let (_, fast) = l.reserve(0, t.walk(0, 1), 6000, f64::INFINITY);
        let (t2, mut l2) = net();
        let (_, slow) = l2.reserve(0, t2.walk(0, 1), 6000, 3.0);
        assert_eq!(fast, 1100);
        assert_eq!(slow, 2100, "3 GB/s cap doubles serialization");
    }

    #[test]
    fn multi_hop_adds_latency_once_per_hop() {
        let (t, mut l) = net();
        let a = t.node_at((0, 0, 0));
        let b = t.node_at((2, 2, 0));
        let route = t.walk(a, b);
        assert_eq!(route.len(), 4);
        // 1ns serialization + 4 hops * 100ns.
        assert_eq!(l.reserve(0, route, 6, f64::INFINITY).1, 401);
    }

    #[test]
    fn byte_counters_accumulate() {
        let (t, mut l) = net();
        let route = t.walk(0, 2);
        l.reserve(0, route, 500, f64::INFINITY);
        l.reserve(0, route, 500, f64::INFINITY);
        assert_eq!(l.total_bytes(), 500 * 2 * route.len() as u64);
    }
}
