//! The synthetic kNeighbor benchmark (paper §V-B, Fig. 10).
//!
//! "each core sends messages to its k left and k right neighbors in a ring
//! virtual topology. When each core receives all the 2*k messages, it
//! proceeds to the next iteration. We measure the total time for sending
//! 2*k messages and receiving 2*k ping-back messages."
//!
//! The paper runs 3 cores on 3 different nodes with k = 1. The interesting
//! result: even though one-way ping-pong latencies are similar, the
//! MPI-based runtime is ~2x slower here because its blocking `MPI_Recv`
//! stalls the progress engine while concurrent messages are in flight —
//! "in uGNI-based CHARM++, the progress engine is free to continue working
//! when the underlying BTE is receiving message".

use crate::common::LayerKind;
use bytes::Bytes;
use charm_rt::prelude::*;
use sim_core::Time;

struct St {
    /// Cumulative neighbor-data messages received.
    data_total: u64,
    /// Cumulative ping-back acks received.
    ack_total: u64,
    /// Iterations this PE has completed.
    iter: u32,
    iters: u32,
    t0: Time,
    total: Time,
    done: bool,
}

/// Advance as many iterations as the cumulative counts allow; returns
/// the next batches to send. Counting cumulatively makes early arrivals
/// from faster neighbors (already in iteration i+1) harmless.
fn maybe_advance(ctx: &mut PeCtx, expected: u64) -> u32 {
    let now = ctx.now();
    let pe = ctx.pe();
    let st = ctx.user::<St>();
    let mut batches = 0;
    while !st.done
        && st.ack_total >= expected * (st.iter as u64 + 1)
        && st.data_total >= expected * (st.iter as u64 + 1)
    {
        st.iter += 1;
        if pe == 0 {
            st.total += now - st.t0;
            st.t0 = now;
        }
        if st.iter >= st.iters {
            st.done = true;
        } else {
            batches += 1;
        }
    }
    batches
}

/// Average per-iteration time in ns, measured on PE 0.
pub fn kneighbor_iteration_time(
    layer: &LayerKind,
    cores: u32,
    cores_per_node: u32,
    k: u32,
    bytes: usize,
    iters: u32,
) -> f64 {
    kneighbor_report(layer, cores, cores_per_node, k, bytes, iters).0
}

/// [`kneighbor_iteration_time`] plus the driver's [`RunReport`].
pub fn kneighbor_report(
    layer: &LayerKind,
    cores: u32,
    cores_per_node: u32,
    k: u32,
    bytes: usize,
    iters: u32,
) -> (f64, RunReport) {
    layer.run_checked(ClusterCfg::new(cores, cores_per_node), |c| {
        run_on(c, k, bytes, iters)
    })
}

/// kNeighbor over every PE of a cluster the caller built: the average
/// per-iteration time in ns measured on PE 0, and the run report.
pub fn run_on(c: &mut Cluster, k: u32, bytes: usize, iters: u32) -> (f64, RunReport) {
    let cores = c.cfg.num_pes;
    assert!(cores > 2 * k, "ring too small for k");
    c.init_user(|_| St {
        data_total: 0,
        ack_total: 0,
        iter: 0,
        iters,
        t0: 0,
        total: 0,
        done: false,
    });

    let expected = (2 * k) as u64;
    let neighbors = move |pe: PeId| -> Vec<PeId> {
        let mut v = Vec::new();
        for d in 1..=k {
            v.push((pe + d) % cores);
            v.push((pe + cores - d) % cores);
        }
        v
    };

    let ack = std::sync::Arc::new(std::sync::OnceLock::new());
    let ack2 = ack.clone();
    let data_cell = std::sync::Arc::new(std::sync::OnceLock::new());
    let data_cell2 = data_cell.clone();

    // All data messages carry the same zeroed payload; share one
    // refcounted buffer instead of alloc+memset-ing per send (wire bytes
    // and therefore virtual times are identical — `Bytes` rides the typed
    // AM direct path untouched).
    let zeros = Bytes::from(vec![0u8; bytes]);
    let zeros_data = zeros.clone();
    let data = c.register_am::<Bytes>(move |ctx, src, payload| {
        // Ping back, reusing the buffer (paper: "the same message buffer is
        // used to send the ack back").
        ctx.am_send(src, *ack2.get().expect("ack AM registered"), payload);
        ctx.user::<St>().data_total += 1;
        let batches = maybe_advance(ctx, expected);
        let me = *data_cell2.get().expect("data AM registered");
        for _ in 0..batches {
            for n in neighbors(ctx.pe()) {
                ctx.am_send(n, me, zeros_data.clone());
            }
        }
    });
    data_cell.set(data).expect("set once");
    let zeros_ack = zeros.clone();
    let ack_h = c.register_am::<Bytes>(move |ctx, _src, _payload| {
        ctx.user::<St>().ack_total += 1;
        let batches = maybe_advance(ctx, expected);
        for _ in 0..batches {
            for n in neighbors(ctx.pe()) {
                ctx.am_send(n, data, zeros_ack.clone());
            }
        }
    });
    ack.set(ack_h).expect("set once");

    let kick = c.register_handler(move |ctx, _| {
        let now = ctx.now();
        ctx.user::<St>().t0 = now;
        for n in neighbors(ctx.pe()) {
            ctx.am_send(n, data, zeros.clone());
        }
    });
    for pe in 0..cores {
        c.inject(0, pe, kick, Bytes::new());
    }
    let report = c.run();
    let st = c.user::<St>(0);
    assert!(
        st.done,
        "kNeighbor stalled: finished {} of {} iterations (data {}, acks {})",
        st.iter, iters, st.data_total, st.ack_total
    );
    (st.total as f64 / iters as f64, report)
}

/// [`run_fine_on`] on a default cluster of `layer` under
/// [`fine_am_config`]; `aggregate` toggles the AM coalescing engine,
/// everything else is identical.
pub fn kneighbor_fine_report(
    layer: &LayerKind,
    cores: u32,
    cores_per_node: u32,
    k: u32,
    msgs: u32,
    iters: u32,
    aggregate: bool,
) -> (f64, RunReport) {
    layer.run_checked(ClusterCfg::new(cores, cores_per_node), |c| {
        c.am_config(fine_am_config(aggregate));
        run_fine_on(c, k, msgs, iters)
    })
}

/// The AM policy the fine-grained benchmark is pinned under.
pub fn fine_am_config(aggregate: bool) -> AmConfig {
    AmConfig {
        aggregation: aggregate,
        // Tight flush bound: the tiny-AM bursts are latency-sensitive, so
        // straggler constituents must not idle a full default window.
        flush_delay_ns: 1_000,
        ..AmConfig::default()
    }
}

/// Fine-grained kNeighbor on a cluster the caller built: each core sends
/// `msgs` 16-byte typed AMs to each of its 2k ring neighbors per
/// iteration, and every data AM is acked with an empty AM — the
/// many-tiny-messages shape where SMSG's fixed per-message cost dominates
/// and destination-batched aggregation pays (ISSUE 10's `aggregation`
/// figure). Returns the average per-iteration time and the run report;
/// the caller's `c.am_config(..)` decides whether AMs coalesce.
pub fn run_fine_on(c: &mut Cluster, k: u32, msgs: u32, iters: u32) -> (f64, RunReport) {
    let cores = c.cfg.num_pes;
    assert!(cores > 2 * k, "ring too small for k");
    c.init_user(|_| St {
        data_total: 0,
        ack_total: 0,
        iter: 0,
        iters,
        t0: 0,
        total: 0,
        done: false,
    });

    let expected = (2 * k * msgs) as u64;
    let neighbors = move |pe: PeId| -> Vec<PeId> {
        let mut v = Vec::new();
        for d in 1..=k {
            v.push((pe + d) % cores);
            v.push((pe + cores - d) % cores);
        }
        v
    };

    let ack = std::sync::Arc::new(std::sync::OnceLock::new());
    let ack2 = ack.clone();
    let data_cell = std::sync::Arc::new(std::sync::OnceLock::new());
    let data_cell2 = data_cell.clone();

    let data = c.register_am::<[u8; 16]>(move |ctx, src, payload| {
        ctx.am_send(src, *ack2.get().expect("ack AM registered"), ());
        ctx.user::<St>().data_total += 1;
        let batches = maybe_advance(ctx, expected);
        let me = *data_cell2.get().expect("data AM registered");
        for _ in 0..batches {
            for n in neighbors(ctx.pe()) {
                for _ in 0..msgs {
                    ctx.am_send(n, me, payload);
                }
            }
        }
    });
    data_cell.set(data).expect("set once");
    let ack_h = c.register_am::<()>(move |ctx, _src, ()| {
        ctx.user::<St>().ack_total += 1;
        let batches = maybe_advance(ctx, expected);
        for _ in 0..batches {
            for n in neighbors(ctx.pe()) {
                for _ in 0..msgs {
                    ctx.am_send(n, data, [0u8; 16]);
                }
            }
        }
    });
    ack.set(ack_h).expect("set once");

    let kick = c.register_handler(move |ctx, _| {
        let now = ctx.now();
        ctx.user::<St>().t0 = now;
        for n in neighbors(ctx.pe()) {
            for _ in 0..msgs {
                ctx.am_send(n, data, [0u8; 16]);
            }
        }
    });
    for pe in 0..cores {
        c.inject(0, pe, kick, Bytes::new());
    }
    let report = c.run();
    let st = c.user::<St>(0);
    assert!(
        st.done,
        "fine kNeighbor stalled: finished {} of {} iterations (data {}, acks {})",
        st.iter, iters, st.data_total, st.ack_total
    );
    (st.total as f64 / iters as f64, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completes_and_times_positive() {
        let t = kneighbor_iteration_time(&LayerKind::ugni(), 3, 1, 1, 1024, 4);
        assert!(t > 0.0);
    }

    #[test]
    fn all_layers_complete_all_iterations() {
        for layer in [LayerKind::ugni(), LayerKind::mpi(), LayerKind::Ideal(900)] {
            let t = kneighbor_iteration_time(&layer, 5, 1, 2, 16_384, 6);
            assert!(t > 0.0, "{}", layer.name());
        }
    }

    #[test]
    fn fig10_mpi_slower_for_large_messages() {
        // Paper Fig. 10: "The latency on uGNI-based CHARM++ is only half of
        // that on the MPI-based CHARM++ ... even for 1M byte message".
        let u = kneighbor_iteration_time(&LayerKind::ugni(), 3, 1, 1, 262_144, 10);
        let m = kneighbor_iteration_time(&LayerKind::mpi(), 3, 1, 1, 262_144, 10);
        assert!(
            u * 1.4 < m,
            "expected MPI well behind under concurrency: uGNI {u:.0}ns MPI {m:.0}ns"
        );
    }

    #[test]
    fn fine_grained_aggregation_preserves_results_and_saves_virtual_time() {
        let (t_off, r_off) = kneighbor_fine_report(&LayerKind::ugni(), 6, 2, 2, 8, 6, false);
        let (t_on, r_on) = kneighbor_fine_report(&LayerKind::ugni(), 6, 2, 2, 8, 6, true);
        assert!(t_off > 0.0 && t_on > 0.0);
        assert_eq!(r_off.stats.am_batches, 0);
        assert!(r_on.stats.am_batches > 0, "nothing aggregated");
        assert!(
            r_on.stats.msgs_sent < r_off.stats.msgs_sent,
            "batching must shrink envelope count: {} vs {}",
            r_on.stats.msgs_sent,
            r_off.stats.msgs_sent
        );
        assert!(
            r_on.end_time < r_off.end_time,
            "aggregated fine-grained run must finish earlier: {} vs {}",
            r_on.end_time,
            r_off.end_time
        );
    }

    #[test]
    fn larger_k_multiplies_traffic() {
        let t1 = kneighbor_iteration_time(&LayerKind::ugni(), 8, 1, 1, 4096, 5);
        let t3 = kneighbor_iteration_time(&LayerKind::ugni(), 8, 1, 3, 4096, 5);
        assert!(t3 > t1, "k=3 moves 3x the messages: {t1} vs {t3}");
    }
}
