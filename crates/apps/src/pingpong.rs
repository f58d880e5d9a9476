//! Ping-pong latency and bandwidth benchmarks at three levels of the stack
//! (paper Figs. 1, 6, 8a, 8b, 8c, 9a, 9b):
//!
//! * **raw uGNI** — drive the simulated `Gni` directly (the "pure uGNI"
//!   curves);
//! * **raw MPI** — drive `MpiSim` directly, with same-buffer or
//!   fresh-buffer variants (the two "pure MPI" curves of Fig. 9a);
//! * **Charm level** — a ping-pong written against the runtime API, linked
//!   with either machine layer (paper: "linked with either MPI- or
//!   uGNI-based message-driven runtime for comparison").

use crate::common::LayerKind;
use bytes::Bytes;
use charm_rt::prelude::*;
use gemini_net::{GeminiParams, Mechanism, RdmaOp};
use mpi_sim::{MpiConfig, MpiSim};
use sim_core::Time;
use ugni::{Gni, PostDescriptor};

/// One-way latency in ns of a single `bytes` transfer over raw uGNI using
/// the best native scheme (SMSG for small, pre-exchanged-handle GET for
/// large) — the "pure uGNI" baseline.
pub fn raw_ugni_one_way(params: &GeminiParams, bytes: u64) -> Time {
    let mut g = Gni::new(params.clone(), 2);
    let cq = g.cq_create();
    if bytes <= g.smsg_limit() as u64 {
        let ep = g.ep_create(0, 1, cq).expect("ep");
        let ok = g
            .smsg_send_w_tag(0, ep, 0, Bytes::from(vec![0u8; bytes as usize]))
            .expect("smsg");
        return ok.deliver_at + g.smsg_get_next_w_tag(1, 1, ok.deliver_at).unwrap().cpu;
    }
    // Pre-registered buffers on both sides, receiver GETs.
    let mech = params.preferred_mechanism(bytes);
    raw_transaction_latency(params, bytes, mech, RdmaOp::Get)
}

/// Latency of one raw FMA/BTE PUT/GET transaction of `bytes` between two
/// adjacent nodes with pre-registered memory — the four curves of Fig. 4.
pub fn raw_transaction_latency(
    params: &GeminiParams,
    bytes: u64,
    mech: Mechanism,
    op: RdmaOp,
) -> Time {
    let mut g = Gni::new(params.clone(), 2);
    let cq = g.cq_create();
    // Initiator is node 1 for GET (data flows 0 -> 1), node 0 for PUT.
    let (init, remote) = match op {
        RdmaOp::Get => (1u32, 0u32),
        RdmaOp::Put => (0, 1),
    };
    let ep = g.ep_create(init, remote, cq).expect("ep");
    let la = g.alloc_addr(init).expect("alloc");
    let (lh, _) = g.mem_register(init, la, bytes.max(1)).expect("register");
    let ra = g.alloc_addr(remote).expect("alloc");
    let (rh, _) = g.mem_register(remote, ra, bytes.max(1)).expect("register");
    let data = Bytes::from(vec![0u8; bytes as usize]);
    g.mem_write(remote, ra, data.clone());
    g.mem_write(init, la, data.clone());
    let desc = PostDescriptor {
        op,
        local_mem: lh,
        local_addr: la,
        remote_mem: rh,
        remote_addr: ra,
        bytes,
        data: Some(data),
        user_id: 0,
    };
    let ok = match mech {
        Mechanism::Fma => g.post_fma(0, ep, desc),
        Mechanism::Bte => g.post_rdma(0, ep, desc),
    }
    .expect("post");
    // One-way data latency: CPU post cost + time to data visibility.
    ok.data_at.max(ok.cpu)
}

/// Raw MPI ping-pong one-way latency in ns. `same_buffer` selects whether
/// the application reuses one buffer (uDREG-friendly) or uses a fresh one
/// per iteration — the paper's two MPI variants in Fig. 9a.
pub fn raw_mpi_one_way(cfg: &MpiConfig, bytes: u64, iters: u32, same_buffer: bool) -> f64 {
    let mut m = MpiSim::new(cfg.clone(), 2, 1);
    let payload = Bytes::from(vec![0u8; bytes as usize]);
    let buf0 = m.fresh_buf(0);
    let buf1 = m.fresh_buf(1);
    let rb0 = m.fresh_buf(0);
    let rb1 = m.fresh_buf(1);
    let mut t: Time = 0;
    let mut t_measure_start = 0;
    let warmup = 4.min(iters / 2);
    for it in 0..iters {
        if it == warmup {
            t_measure_start = t;
        }
        for dir in 0..2u32 {
            let (src, dst) = if dir == 0 { (0, 1) } else { (1, 0) };
            let (sbuf, rbuf) = if same_buffer {
                if dir == 0 {
                    (buf0, rb1)
                } else {
                    (buf1, rb0)
                }
            } else {
                (m.fresh_buf(src), m.fresh_buf(dst))
            };
            let fx = m.isend(t, src, dst, 0, payload.clone(), sbuf);
            let wake = fx.wakes.first().map(|w| w.1).unwrap_or(t + fx.cpu);
            // Receiver polls at the wake time.
            let (hit, probe_cpu) = m.iprobe(wake, dst, None, None);
            assert!(hit.is_some(), "pingpong lost a message");
            let out = m
                .recv(wake + probe_cpu, dst, Some(src), Some(0), rbuf)
                .expect("recv");
            t = out.done_at;
        }
    }
    let measured = (iters - warmup) as f64;
    (t - t_measure_start) as f64 / (2.0 * measured)
}

/// Charm-level ping-pong one-way latency in ns on a default cluster of
/// `layer` (inter-node when `cores_per_node == 1`, intra-node when both
/// PEs share a node).
pub fn charm_one_way(
    layer: &LayerKind,
    cores_per_node: u32,
    bytes: usize,
    iters: u64,
    persistent: bool,
) -> f64 {
    layer
        .run_checked(ClusterCfg::new(2, cores_per_node), |c| {
            one_way_on(c, bytes, iters, persistent)
        })
        .0
}

/// Ping-pong between PEs 0 and 1 of a cluster the caller built: the
/// one-way latency in ns and the driver's [`RunReport`].
pub fn one_way_on(c: &mut Cluster, bytes: usize, iters: u64, persistent: bool) -> (f64, RunReport) {
    struct St {
        remaining: u64,
        handle: Option<PersistentHandle>,
        t0: Time,
        elapsed: Time,
    }
    c.init_user(|_| St {
        remaining: iters,
        handle: None,
        t0: 0,
        elapsed: 0,
    });
    let h = c.register_handler(move |ctx, env| {
        let peer = 1 - ctx.pe();
        if ctx.pe() == 0 {
            let now = ctx.now();
            let st = ctx.user::<St>();
            st.remaining -= 1;
            if st.remaining == 0 {
                st.elapsed = now - st.t0;
                ctx.stop();
                return;
            }
        }
        let handle = ctx.user::<St>().handle;
        match handle {
            Some(hd) => ctx.send_persistent(hd, peer, env.handler, env.payload.clone()),
            None => ctx.send(peer, env.handler, env.payload.clone()),
        }
    });
    let kick = c.register_handler(move |ctx, _| {
        if persistent {
            let hd = ctx.create_persistent(1 - ctx.pe(), bytes as u64 + 64);
            ctx.user::<St>().handle = Some(hd);
        }
        if ctx.pe() == 0 {
            let now = ctx.now();
            let payload = Bytes::from(vec![0u8; bytes]);
            let st = ctx.user::<St>();
            st.remaining = iters;
            st.t0 = now;
            let handle = st.handle;
            match handle {
                Some(hd) => ctx.send_persistent(hd, 1, h, payload),
                None => ctx.send(1, h, payload),
            }
        }
    });
    c.inject(0, 1, kick, Bytes::new());
    c.inject(50_000, 0, kick, Bytes::new());
    let report = c.run();
    let lat = c.user::<St>(0).elapsed as f64 / (2.0 * iters as f64);
    (lat, report)
}

/// One ping-pong endpoint as a chare element: `count` completed rounds.
struct PpSt {
    count: u64,
}

impl Checkpoint for PpSt {
    fn save(&self) -> Vec<u8> {
        self.count.to_le_bytes().to_vec()
    }

    fn restore(bytes: &[u8]) -> Self {
        let mut b = [0u8; 8];
        b.copy_from_slice(&bytes[..8]);
        PpSt {
            count: u64::from_le_bytes(b),
        }
    }
}

/// Fault-tolerant Charm-level ping-pong on a cluster the caller built and
/// called `enable_ft` on: element 0 (node 0) rallies with the element
/// homed on node 1's first PE, checkpointing on the FT cadence, surviving
/// any crash window in the cluster's fault plan that spares node 0.
/// Returns the rounds completed by each endpoint (both must equal
/// `rounds` — the exactly-once check) and the virtual end time;
/// `c.ft_report()` has the FT activity.
pub fn ft_rally_on(c: &mut Cluster, bytes: usize, rounds: u64) -> (u64, u64, Time) {
    let num_pes = c.cfg.num_pes;
    assert!(c.cfg.num_nodes() > 1, "need a second node to rally with");
    let peer = c.cfg.cores_per_node as u64;
    let aid = c.create_array(num_pes as u64, |_| PpSt { count: 0 });
    c.ft_array::<PpSt>(aid);

    let rally_cell: std::sync::Arc<std::sync::OnceLock<EntryId>> =
        std::sync::Arc::new(std::sync::OnceLock::new());
    let rc = rally_cell.clone();
    let rally = c.register_entry::<PpSt>(aid, move |ctx, st, idx, payload| {
        let rally = *rc.get().expect("entry registered");
        ctx.charge(100);
        st.count += 1;
        if idx == 0 {
            // A pong landed: one round done.
            if st.count >= rounds {
                ctx.stop();
                return;
            }
            ctx.charm_send(aid, peer, rally, payload.clone());
            ctx.ft_maybe_checkpoint();
        } else {
            ctx.charm_send(aid, 0, rally, payload.clone());
        }
    });
    rally_cell.set(rally).expect("set once");
    // Element 0's serve: fires at start and after every recovery (the
    // in-flight ball died with the old epoch; the restored count says
    // which round to replay).
    let serve = c.register_entry::<PpSt>(aid, move |ctx, _st, _idx, payload| {
        ctx.charm_send(aid, peer, rally, payload.clone());
    });
    let resume = c.register_handler(move |ctx, _env| {
        ctx.charm_send(aid, 0, serve, Bytes::from(vec![0u8; bytes]));
    });
    c.ft_on_resume(resume, 0);

    c.inject_entry(0, aid, 0, serve, Bytes::from(vec![0u8; bytes]));
    let report = c.run();
    let c0 = c.element::<PpSt>(aid, 0).count;
    let cp = c.element::<PpSt>(aid, peer).count;
    (c0, cp, report.end_time)
}

/// Charm-level streaming bandwidth in MB/s between two single-core nodes
/// of `layer` (Fig. 9b).
pub fn charm_bandwidth(layer: &LayerKind, bytes: usize, window: u32, rounds: u32) -> f64 {
    layer
        .run_checked(ClusterCfg::new(2, 1), |c| {
            bandwidth_on(c, bytes, window, rounds)
        })
        .0
}

/// Streaming bandwidth on a cluster the caller built: `window` messages
/// of `bytes` in flight from PE 0 to PE 1, acked in bulk. Returns MB/s
/// and the driver's [`RunReport`].
pub fn bandwidth_on(c: &mut Cluster, bytes: usize, window: u32, rounds: u32) -> (f64, RunReport) {
    #[derive(Default)]
    struct St {
        got: u32,
        rounds_left: u32,
        t0: Time,
        total: Time,
        total_bytes: u64,
    }
    c.init_user(|_| St::default());
    let ack = std::sync::Arc::new(std::sync::OnceLock::new());
    let ack2 = ack.clone();
    let data = c.register_handler(move |ctx, env| {
        // Receiver counts; acks the window when complete.
        let full = {
            let st = ctx.user::<St>();
            st.got += 1;
            st.got == window
        };
        if full {
            ctx.user::<St>().got = 0;
            ctx.send(
                0,
                *ack2.get().expect("ack handler registered"),
                Bytes::new(),
            );
        }
        let _ = env;
    });
    // One refcounted payload shared by every message in the stream: the
    // wire contents are identical to a fresh zeroed buffer per send, so
    // virtual time is unchanged, but the host stops paying a
    // payload-sized alloc+memset per message.
    let zeros = Bytes::from(vec![0u8; bytes]);
    let zeros_ack = zeros.clone();
    let ack_h = c.register_handler(move |ctx, _| {
        let now = ctx.now();
        let send_more = {
            let st = ctx.user::<St>();
            st.total += now - st.t0;
            st.total_bytes += window as u64 * bytes as u64;
            st.rounds_left -= 1;
            if st.rounds_left == 0 {
                ctx.stop();
                false
            } else {
                st.t0 = now;
                true
            }
        };
        if send_more {
            for _ in 0..window {
                ctx.send(1, data, zeros_ack.clone());
            }
        }
    });
    ack.set(ack_h).expect("set once");
    let kick = c.register_handler(move |ctx, _| {
        let now = ctx.now();
        {
            let st = ctx.user::<St>();
            st.rounds_left = rounds;
            st.t0 = now;
        }
        for _ in 0..window {
            ctx.send(1, data, zeros.clone());
        }
    });
    c.inject(0, 0, kick, Bytes::new());
    let report = c.run();
    let st = c.user::<St>(0);
    // bytes / ns == GB/s; report MB/s like the paper.
    ((st.total_bytes as f64 / st.total as f64) * 1000.0, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_ugni_small_matches_calibration() {
        let p = GeminiParams::hopper();
        let t = raw_ugni_one_way(&p, 8);
        assert!((900..1500).contains(&t), "8B pure uGNI {t}ns");
    }

    #[test]
    fn fig4_shapes() {
        let p = GeminiParams::hopper();
        // Small: FMA wins; large: BTE wins; GET slower than PUT.
        let fma_s = raw_transaction_latency(&p, 64, Mechanism::Fma, RdmaOp::Put);
        let bte_s = raw_transaction_latency(&p, 64, Mechanism::Bte, RdmaOp::Put);
        assert!(fma_s < bte_s);
        let fma_l = raw_transaction_latency(&p, 1 << 20, Mechanism::Fma, RdmaOp::Put);
        let bte_l = raw_transaction_latency(&p, 1 << 20, Mechanism::Bte, RdmaOp::Put);
        assert!(bte_l < fma_l);
        let put = raw_transaction_latency(&p, 4096, Mechanism::Fma, RdmaOp::Put);
        let get = raw_transaction_latency(&p, 4096, Mechanism::Fma, RdmaOp::Get);
        assert!(get > put);
    }

    #[test]
    fn raw_mpi_same_buffer_faster_for_large() {
        let cfg = MpiConfig::default();
        let same = raw_mpi_one_way(&cfg, 65536, 12, true);
        let diff = raw_mpi_one_way(&cfg, 65536, 12, false);
        assert!(
            same < diff,
            "same-buffer {same:.0}ns should beat fresh-buffer {diff:.0}ns"
        );
    }

    #[test]
    fn raw_mpi_small_buffering_irrelevant() {
        let cfg = MpiConfig::default();
        let same = raw_mpi_one_way(&cfg, 8, 12, true);
        let diff = raw_mpi_one_way(&cfg, 8, 12, false);
        let ratio = same / diff;
        assert!((0.9..1.1).contains(&ratio), "{same:.0} vs {diff:.0}");
    }

    #[test]
    fn fig1_ordering_small_messages() {
        // Paper Fig. 1: uGNI < MPI < MPI-based CHARM++.
        let p = GeminiParams::hopper();
        let ugni = raw_ugni_one_way(&p, 256) as f64;
        let mpi = raw_mpi_one_way(&MpiConfig::default(), 256, 20, true);
        let charm_mpi = charm_one_way(&LayerKind::mpi(), 1, 256, 50, false);
        assert!(ugni < mpi, "uGNI {ugni:.0} !< MPI {mpi:.0}");
        assert!(mpi < charm_mpi, "MPI {mpi:.0} !< charm-MPI {charm_mpi:.0}");
    }

    #[test]
    fn fig9a_ordering_at_64k() {
        // uGNI-based CHARM++ beats MPI-based CHARM++ for large messages.
        let u = charm_one_way(&LayerKind::ugni(), 1, 65536, 30, false);
        let m = charm_one_way(&LayerKind::mpi(), 1, 65536, 30, false);
        assert!(u < m, "charm-uGNI {u:.0}ns !< charm-MPI {m:.0}ns");
    }

    #[test]
    fn ft_pingpong_survives_crash_exactly_once() {
        use gemini_net::{FaultPlan, NodeCrashWindow};
        // Restart and gone-for-good (redistribute) modes both finish with
        // exactly `rounds` on each endpoint — no lost or doubled rounds.
        for restart in [Some(30_000), None] {
            let mut plan = FaultPlan::default();
            plan.node_crash.push(NodeCrashWindow {
                node: 1,
                at_ns: 50_000,
                restart_after_ns: restart,
            });
            let mut c = LayerKind::ugni().with_fault(plan).cluster(4, 2);
            // Detector sized above the layer's startup transient (the
            // first-touch mempool slab registration stalls each PE ~22us
            // once) so suspicion only fires on the real crash.
            c.enable_ft(FtConfig {
                hb_period: 20_000,
                hb_timeout: 150_000,
                ckpt_period: 40_000,
            });
            let (c0, cp, _t) = ft_rally_on(&mut c, 256, 100);
            assert_eq!(c.ft_report().recoveries, 1, "restart={restart:?}");
            assert_eq!((c0, cp), (100, 100), "restart={restart:?}");
        }
    }

    #[test]
    fn bandwidth_grows_with_message_size_and_approaches_link() {
        let k = LayerKind::ugni();
        let bw_64k = charm_bandwidth(&k, 65536, 8, 6);
        let bw_4m = charm_bandwidth(&k, 4 << 20, 4, 4);
        assert!(bw_4m > bw_64k, "bandwidth should grow: {bw_64k} vs {bw_4m}");
        assert!(bw_4m < 6200.0, "cannot exceed link rate: {bw_4m} MB/s");
        assert!(bw_4m > 3000.0, "large-message bandwidth too low: {bw_4m}");
    }
}
