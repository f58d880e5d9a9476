//! The one-to-all benchmark (paper Fig. 9c).
//!
//! "processor 0 sends a message to one core on each remote node, and each
//! destination core sends an ack message back." Run on 16 nodes; the
//! metric is the time for one full round (all sends out, all acks in),
//! averaged over iterations.

use crate::common::LayerKind;
use bytes::Bytes;
use charm_rt::prelude::*;
use sim_core::Time;

/// Average round latency in ns for `bytes`-sized messages from PE 0 to one
/// core on each of the other `nodes - 1` nodes.
pub fn one_to_all_latency(
    layer: &LayerKind,
    nodes: u32,
    cores_per_node: u32,
    bytes: usize,
    iters: u32,
) -> f64 {
    layer.run_checked(
        ClusterCfg::new(nodes * cores_per_node, cores_per_node),
        |c| run_on(c, bytes, iters),
    )
}

/// One-to-all on a cluster the caller built: PE 0 to the first core of
/// every other node; average round latency in ns.
pub fn run_on(c: &mut Cluster, bytes: usize, iters: u32) -> f64 {
    let (nodes, cores_per_node) = (c.cfg.num_nodes(), c.cfg.cores_per_node);
    struct St {
        acks: u32,
        rounds_left: u32,
        t0: Time,
        total: Time,
    }
    c.init_user(|_| St {
        acks: 0,
        rounds_left: 0,
        t0: 0,
        total: 0,
    });

    let targets: Vec<PeId> = (1..nodes).map(|n| n * cores_per_node).collect();
    let n_targets = targets.len() as u32;

    let ack = std::sync::Arc::new(std::sync::OnceLock::new());
    let ack2 = ack.clone();
    let data = c.register_am::<Bytes>(move |ctx, _src, _payload| {
        // Remote core: ack back with a small message.
        ctx.am_send(0, *ack2.get().expect("ack AM registered"), ());
    });
    let targets2 = targets.clone();
    let ack_h = c.register_am::<()>(move |ctx, _src, ()| {
        let now = ctx.now();
        let go_again = {
            let st = ctx.user::<St>();
            st.acks += 1;
            if st.acks < n_targets {
                return;
            }
            st.acks = 0;
            st.total += now - st.t0;
            st.rounds_left -= 1;
            if st.rounds_left == 0 {
                ctx.stop();
                false
            } else {
                st.t0 = now;
                true
            }
        };
        if go_again {
            for &t in &targets2 {
                ctx.am_send(t, data, Bytes::from(vec![0u8; bytes]));
            }
        }
    });
    ack.set(ack_h).expect("set once");
    let targets3 = targets;
    let kick = c.register_handler(move |ctx, _| {
        let now = ctx.now();
        {
            let st = ctx.user::<St>();
            st.rounds_left = iters;
            st.t0 = now;
        }
        for &t in &targets3 {
            ctx.am_send(t, data, Bytes::from(vec![0u8; bytes]));
        }
    });
    c.inject(0, 0, kick, Bytes::new());
    c.run();
    let st = c.user::<St>(0);
    st.total as f64 / iters as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_targets_ack_and_rounds_complete() {
        let t = one_to_all_latency(&LayerKind::ugni(), 4, 2, 1024, 3);
        assert!(t > 0.0);
    }

    #[test]
    fn fig9c_small_messages_ugni_wins_by_margin() {
        // Paper: "for small messages, uGNI-based CHARM++ outperforms
        // MPI-based CHARM++ by a large margin" (16 nodes).
        let u = one_to_all_latency(&LayerKind::ugni(), 16, 1, 128, 5);
        let m = one_to_all_latency(&LayerKind::mpi(), 16, 1, 128, 5);
        assert!(
            u * 1.3 < m,
            "expected >30% win for small messages: uGNI {u:.0}ns vs MPI {m:.0}ns"
        );
    }

    #[test]
    fn fig9c_gap_closes_for_large_messages() {
        let size = 1 << 20;
        let u = one_to_all_latency(&LayerKind::ugni(), 16, 1, size, 3);
        let m = one_to_all_latency(&LayerKind::mpi(), 16, 1, size, 3);
        let small_u = one_to_all_latency(&LayerKind::ugni(), 16, 1, 128, 3);
        let small_m = one_to_all_latency(&LayerKind::mpi(), 16, 1, 128, 3);
        let large_gap = m / u;
        let small_gap = small_m / small_u;
        assert!(
            large_gap < small_gap,
            "gap should close as size grows: small x{small_gap:.2}, large x{large_gap:.2}"
        );
    }

    #[test]
    fn scales_with_node_count() {
        let t4 = one_to_all_latency(&LayerKind::ugni(), 4, 1, 1024, 3);
        let t16 = one_to_all_latency(&LayerKind::ugni(), 16, 1, 1024, 3);
        assert!(t16 > t4, "more targets must take longer");
    }
}
