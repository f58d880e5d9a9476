//! A minimal ParSSSE-style state-space search engine (paper [19],
//! used by the N-Queens evaluation in §V-C).
//!
//! Tasks are self-contained payloads. Spawning a task sends it to a
//! uniformly random PE (the paper: "After a new task is dynamically
//! created, it is randomly assigned to a processor"), where the registered
//! task function either expands it into child tasks or solves it
//! sequentially, reporting results into a per-PE accumulator that is
//! summed after the run drains.

use crate::cluster::{Cluster, PeCtx};
use crate::msg::{HandlerId, PeId};
use bytes::Bytes;

/// Per-PE accumulator every SSSE app shares.
#[derive(Debug, Default, Clone)]
pub struct SsseStats {
    /// Tasks executed on this PE.
    pub tasks: u64,
    /// Application-defined result counter (e.g. solutions found).
    pub results: u64,
    /// Nodes/states expanded (for work accounting).
    pub nodes: u64,
}

/// Handle to a registered search.
#[derive(Debug, Clone, Copy)]
pub struct Ssse {
    handler: HandlerId,
}

impl Ssse {
    /// Register a search whose task function is `f(ctx, payload)`.
    /// The per-PE [`SsseStats`] lives alongside the user state `U`.
    pub fn register<U: 'static>(
        cluster: &mut Cluster,
        f: impl Fn(&mut PeCtx, &Ssse, Bytes) + Send + Sync + 'static,
    ) -> Ssse {
        // Self-referential handler: the task function gets the Ssse handle
        // so it can spawn children. HandlerId is assigned before the
        // closure can run, so materialize it in a cell.
        let cell = std::sync::Arc::new(std::sync::OnceLock::new());
        let cell2 = cell.clone();
        let h = cluster.register_handler(move |ctx, env| {
            let me = Ssse {
                handler: *cell2.get().expect("ssse handler registered"),
            };
            f(ctx, &me, env.payload);
        });
        cell.set(h).expect("set once");
        Ssse { handler: h }
    }

    /// Spawn a task on a uniformly random PE.
    pub fn spawn(&self, ctx: &mut PeCtx, payload: Bytes) {
        let n = ctx.num_pes() as u64;
        let dst = ctx.rng().below(n) as PeId;
        ctx.send(dst, self.handler, payload);
    }

    /// Seed the search from outside the simulation.
    pub fn seed(&self, cluster: &mut Cluster, at: sim_core::Time, pe: PeId, payload: Bytes) {
        cluster.inject(at, pe, self.handler, payload);
    }
}

/// Sum a field of [`SsseStats`] over all PEs after a run, given the stats
/// live in user state accessible by `get`.
pub fn sum_stats<U: 'static>(cluster: &Cluster, get: impl Fn(&U) -> &SsseStats) -> SsseStats {
    let mut total = SsseStats::default();
    for pe in 0..cluster.cfg.num_pes {
        let s = get(cluster.user::<U>(pe));
        total.tasks += s.tasks;
        total.results += s.results;
        total.nodes += s.nodes;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterCfg};
    use crate::ideal::IdealLayer;
    use crate::msg::wire;

    /// A toy search: count all leaves of a uniform tree of given depth and
    /// branching. Exact expected count = branch^depth.
    #[test]
    fn counts_leaves_of_uniform_tree() {
        let mut c = Cluster::new(ClusterCfg::new(8, 4), Box::new(IdealLayer::new(500)));
        c.init_user(|_| SsseStats::default());
        let ssse = Ssse::register::<SsseStats>(&mut c, |ctx, me, payload| {
            let depth = wire::unpack_u64(&payload, 0);
            let branch = wire::unpack_u64(&payload, 1);
            let st = ctx.user::<SsseStats>();
            st.tasks += 1;
            st.nodes += 1;
            if depth == 0 {
                st.results += 1;
                return;
            }
            for _ in 0..branch {
                me.spawn(ctx, wire::pack_u64s(&[depth - 1, branch]));
            }
        });
        ssse.seed(&mut c, 0, 0, wire::pack_u64s(&[5, 3]));
        c.run();
        let total = sum_stats::<SsseStats>(&c, |u| u);
        assert_eq!(total.results, 3u64.pow(5));
        // Total tasks = all tree nodes = (3^6 - 1) / 2.
        assert_eq!(total.tasks, (3u64.pow(6) - 1) / 2);
    }

    #[test]
    fn random_placement_spreads_work() {
        let mut c = Cluster::new(ClusterCfg::new(16, 4), Box::new(IdealLayer::new(500)));
        c.init_user(|_| SsseStats::default());
        let ssse = Ssse::register::<SsseStats>(&mut c, |ctx, me, payload| {
            let depth = wire::unpack_u64(&payload, 0);
            ctx.user::<SsseStats>().tasks += 1;
            if depth > 0 {
                for _ in 0..2 {
                    me.spawn(ctx, wire::pack_u64s(&[depth - 1]));
                }
            }
        });
        ssse.seed(&mut c, 0, 0, wire::pack_u64s(&[9]));
        c.run();
        let busy_pes = (0..16)
            .filter(|&pe| c.user::<SsseStats>(pe).tasks > 0)
            .count();
        assert!(busy_pes >= 14, "only {busy_pes}/16 PEs saw tasks");
    }
}
