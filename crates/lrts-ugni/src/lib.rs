//! `lrts-ugni`: the paper's uGNI-based machine layer for the Charm-like
//! runtime — SMSG small-message path, GET-based rendezvous for large
//! messages, the pre-registered memory pool, persistent messages, and
//! POSIX-shared-memory intra-node delivery. See `layer.rs` for the protocol
//! walk-through and [`config::UgniConfig`] for the ablation switches.

pub(crate) mod config;
pub(crate) mod layer;

pub use config::{IntraNode, SmallPath, UgniConfig};
pub use layer::{UgniLayer, UgniStats};

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use charm_rt::prelude::*;
    use gemini_net::GeminiParams;

    fn cluster_with(cfg: UgniConfig, pes: u32, cores: u32) -> Cluster {
        Cluster::new(ClusterCfg::new(pes, cores), Box::new(UgniLayer::new(cfg)))
    }

    /// One-way latency of a `bytes`-payload message between PE 0 and PE 1
    /// (different nodes when cores=1): run a ping-pong and halve.
    fn one_way_latency(cfg: UgniConfig, bytes: usize, iters: u64, persistent: bool) -> f64 {
        let mut c = cluster_with(cfg, 2, 1);
        struct St {
            remaining: u64,
            handle: Option<PersistentHandle>,
            t_begin: sim_core::Time,
            elapsed: sim_core::Time,
        }
        c.init_user(|_| St {
            remaining: iters,
            handle: None,
            t_begin: 0,
            elapsed: 0,
        });
        let h = c.register_handler(move |ctx, env| {
            let peer = 1 - ctx.pe();
            if ctx.pe() == 0 {
                let now = ctx.now();
                let st = ctx.user::<St>();
                st.remaining -= 1;
                if st.remaining == 0 {
                    st.elapsed = now - st.t_begin;
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
        // Kick on each PE: optionally set up a persistent channel to the
        // peer; PE 0 (kicked second) then starts the ping-pong.
        let kick = c.register_handler(move |ctx, _env| {
            if persistent {
                let hd = ctx.create_persistent(1 - ctx.pe(), bytes as u64 + 64);
                ctx.user::<St>().handle = Some(hd);
            }
            if ctx.pe() == 0 {
                let payload = Bytes::from(vec![0u8; bytes]);
                let now = ctx.now();
                let st = ctx.user::<St>();
                st.remaining = iters;
                st.t_begin = now;
                let handle = st.handle;
                match handle {
                    Some(hd) => ctx.send_persistent(hd, 1, h, payload),
                    None => ctx.send(1, h, payload),
                }
            }
        });
        c.inject(0, 1, kick, Bytes::new());
        c.inject(10_000, 0, kick, Bytes::new());
        c.run();
        let st: &St = c.user(0);
        st.elapsed as f64 / (2.0 * iters as f64)
    }

    #[test]
    fn small_message_latency_near_paper() {
        // Paper §V-A: uGNI-based CHARM++ 8-byte one-way ≈ 1.6 µs.
        let lat = one_way_latency(UgniConfig::optimized(), 8, 100, false);
        assert!(
            (1200.0..2400.0).contains(&lat),
            "8B one-way {lat:.0}ns outside calibration band"
        );
    }

    #[test]
    fn large_messages_ride_rendezvous() {
        let mut c = cluster_with(UgniConfig::optimized(), 2, 1);
        let h = c.register_handler(|ctx, env| {
            if ctx.pe() == 1 {
                assert_eq!(env.payload.len(), 65536);
                ctx.stop();
            }
        });
        let kick = c.register_handler(move |ctx, _| {
            ctx.send(1, h, Bytes::from(vec![7u8; 65536]));
        });
        c.inject(0, 0, kick, Bytes::new());
        let r = c.run();
        assert!(r.stopped_early, "large message never arrived");
        let layer: &mut UgniLayer = c.layer_mut();
        assert_eq!(layer.stats.rendezvous_msgs, 1);
        assert_eq!(layer.stats.small_msgs, 0);
    }

    #[test]
    fn payload_integrity_across_rendezvous() {
        let mut c = cluster_with(UgniConfig::optimized(), 2, 1);
        let pattern: Vec<u8> = (0..100_000u32).map(|i| (i * 31 % 251) as u8).collect();
        let expect = pattern.clone();
        let h = c.register_handler(move |ctx, env| {
            if ctx.pe() == 1 {
                assert_eq!(&env.payload[..], &expect[..], "payload corrupted");
                ctx.stop();
            }
        });
        let payload = Bytes::from(pattern);
        let kick = c.register_handler(move |ctx, _| ctx.send(1, h, payload.clone()));
        c.inject(0, 0, kick, Bytes::new());
        assert!(c.run().stopped_early);
    }

    #[test]
    fn mempool_beats_no_mempool_for_large_messages() {
        // Paper Fig. 8b: memory pool halves large-message latency.
        let with = one_way_latency(UgniConfig::optimized(), 65536, 40, false);
        let without = one_way_latency(
            UgniConfig::optimized().with_mempool(false),
            65536,
            40,
            false,
        );
        assert!(
            with < without * 0.75,
            "pool {with:.0}ns vs none {without:.0}ns: expected >25% win"
        );
    }

    #[test]
    fn persistent_beats_plain_rendezvous() {
        // Paper Fig. 8a: persistent messages eliminate the control message
        // and all memory management.
        let plain = one_way_latency(UgniConfig::optimized(), 65536, 40, false);
        let persist = one_way_latency(UgniConfig::optimized(), 65536, 40, true);
        assert!(
            persist < plain,
            "persistent {persist:.0}ns not faster than plain {plain:.0}ns"
        );
    }

    #[test]
    fn small_messages_unaffected_by_mempool() {
        let with = one_way_latency(UgniConfig::optimized(), 64, 50, false);
        let without = one_way_latency(UgniConfig::optimized().with_mempool(false), 64, 50, false);
        let ratio = with / without;
        assert!(
            (0.8..1.2).contains(&ratio),
            "small-message latency should barely move: {with:.0} vs {without:.0}"
        );
    }

    #[test]
    fn single_copy_beats_double_copy_for_large_messages() {
        // Paper Fig. 8c: one fewer memcpy for every intra-node message.
        let single = one_way_latency_intranode(IntraNode::PxshmSingleCopy, 65536);
        let double = one_way_latency_intranode(IntraNode::PxshmDoubleCopy, 65536);
        assert!(
            single < double,
            "single copy {single:.0}ns should beat double copy {double:.0}ns"
        );
        // And in an *isolated* ping-pong, NIC loopback is competitive —
        // the paper: "This implementation is quite efficient in a pingpong
        // test". The pxshm win only appears under NIC contention (below).
        let nic = one_way_latency_intranode(IntraNode::NetworkLoopback, 65536);
        assert!(
            nic < double,
            "loopback should beat double copy in isolation"
        );
    }

    #[test]
    fn shm_wins_under_nic_contention() {
        // Paper §IV-C: "when there are lots of intra-node and inter-node
        // messages, the uGNI hardware can be a bottleneck and may cause
        // contention" — one should not route intra-node traffic through the
        // NIC. Two nodes x 4 cores: PEs 2,3 blast inter-node rendezvous
        // traffic while PE 0 <-> PE 1 run an intra-node ping-pong.
        fn pingpong_under_load(mode: IntraNode) -> sim_core::Time {
            let mut c = cluster_with(UgniConfig::optimized().with_intranode(mode), 8, 4);
            struct St {
                remaining: u64,
                t0: sim_core::Time,
                elapsed: sim_core::Time,
            }
            let iters = 40;
            c.init_user(|_| St {
                remaining: iters,
                t0: 0,
                elapsed: 0,
            });
            let pp = c.register_handler(move |ctx, env| {
                let peer = 1 - ctx.pe();
                if ctx.pe() == 0 {
                    let now = ctx.now();
                    let st = ctx.user::<St>();
                    st.remaining -= 1;
                    if st.remaining == 0 {
                        st.elapsed = now - st.t0;
                        return;
                    }
                }
                ctx.send(peer, env.handler, env.payload.clone());
            });
            let sink = c.register_handler(|_ctx, _env| {});
            let blast = c.register_handler(move |ctx, _| {
                // PEs 2 and 3 stream large messages to node 1.
                for _ in 0..200 {
                    ctx.send(ctx.pe() + 4, sink, Bytes::from(vec![0u8; 131_072]));
                }
            });
            let kick = c.register_handler(move |ctx, _| {
                let now = ctx.now();
                ctx.user::<St>().t0 = now;
                ctx.send(1, pp, Bytes::from(vec![0u8; 65_536]));
            });
            c.inject(0, 2, blast, Bytes::new());
            c.inject(0, 3, blast, Bytes::new());
            // Start the ping-pong once the background stream is flowing.
            c.inject(3_000_000, 0, kick, Bytes::new());
            c.run();
            c.user::<St>(0).elapsed
        }
        let loopback = pingpong_under_load(IntraNode::NetworkLoopback);
        let shm = pingpong_under_load(IntraNode::PxshmSingleCopy);
        assert!(
            shm < loopback,
            "under NIC contention shm {shm}ns should beat loopback {loopback}ns"
        );
    }

    fn one_way_latency_intranode(mode: IntraNode, bytes: usize) -> f64 {
        // Two PEs on the same node.
        let mut c = cluster_with(UgniConfig::optimized().with_intranode(mode), 2, 2);
        struct St {
            remaining: u64,
            t0: sim_core::Time,
            elapsed: sim_core::Time,
        }
        let iters = 30;
        c.init_user(|_| St {
            remaining: iters,
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
            ctx.send(peer, env.handler, env.payload.clone());
        });
        let kick = c.register_handler(move |ctx, _| {
            ctx.user::<St>().t0 = ctx.now();
            ctx.send(1, h, Bytes::from(vec![0u8; bytes]));
        });
        c.inject(0, 0, kick, Bytes::new());
        c.run();
        c.user::<St>(0).elapsed as f64 / (2.0 * iters as f64)
    }

    #[test]
    fn msgq_mode_delivers_but_is_slower() {
        // Paper §II-B: "MSGQ overcomes the above scalability issue due to
        // memory cost, but at the expense of lower performance."
        let smsg = one_way_latency(UgniConfig::optimized(), 256, 40, false);
        let msgq = one_way_latency(
            UgniConfig::optimized().with_small_path(SmallPath::Msgq),
            256,
            40,
            false,
        );
        assert!(
            msgq > smsg * 1.2,
            "MSGQ {msgq:.0}ns should be clearly slower than SMSG {smsg:.0}ns"
        );
    }

    #[test]
    fn msgq_mode_handles_rendezvous_control_traffic() {
        // Large messages still work when the control messages ride MSGQ.
        let mut c = cluster_with(
            UgniConfig::optimized().with_small_path(SmallPath::Msgq),
            2,
            1,
        );
        let h = c.register_handler(|ctx, env| {
            if ctx.pe() == 1 {
                assert_eq!(env.payload.len(), 65536);
                ctx.stop();
            }
        });
        let kick = c.register_handler(move |ctx, _| {
            ctx.send(1, h, Bytes::from(vec![9u8; 65536]));
        });
        c.inject(0, 0, kick, Bytes::new());
        assert!(c.run().stopped_early, "rendezvous over MSGQ failed");
    }

    #[test]
    fn smp_mode_offloads_protocol_work_to_comm_threads() {
        // Paper §VII: SMP mode moves the progress engine off the workers.
        // Under a compute+communicate mix, workers in SMP mode accumulate
        // far less overhead.
        fn overhead_under_load(smp: bool) -> (f64, sim_core::Time) {
            let mut c = cluster_with(UgniConfig::optimized().with_smp(smp), 4, 2);
            c.init_user(|_| 0u64);
            let h = c.register_handler(|ctx, _env| {
                // Compute while more messages stream in.
                ctx.charge(30_000);
                *ctx.user::<u64>() += 1;
            });
            let kick = c.register_handler(move |ctx, _| {
                for i in 0..40 {
                    let dst = 2 + (i % 2);
                    ctx.send(dst, h, Bytes::from(vec![0u8; 32_768]));
                }
            });
            c.inject(0, 0, kick, Bytes::new());
            let r = c.run();
            let got: u64 = (0..4).map(|pe| *c.user::<u64>(pe)).sum();
            assert_eq!(got, 40, "smp={smp}: messages lost");
            let ovh = c.trace().total_overhead() as f64;
            (ovh, r.end_time)
        }
        let (ovh_classic, _t_classic) = overhead_under_load(false);
        let (ovh_smp, _t_smp) = overhead_under_load(true);
        assert!(
            ovh_smp < ovh_classic * 0.5,
            "SMP worker overhead {ovh_smp} should be well below classic {ovh_classic}"
        );
    }

    #[test]
    fn smp_intranode_pointer_passing_is_fast() {
        let classic = one_way_latency_intranode(IntraNode::PxshmSingleCopy, 65536);
        let smp = {
            let mut c = cluster_with(UgniConfig::optimized().with_smp(true), 2, 2);
            struct St {
                remaining: u64,
                t0: sim_core::Time,
                elapsed: sim_core::Time,
            }
            let iters = 30;
            c.init_user(|_| St {
                remaining: iters,
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
                ctx.send(peer, env.handler, env.payload.clone());
            });
            let kick = c.register_handler(move |ctx, _| {
                let now = ctx.now();
                ctx.user::<St>().t0 = now;
                ctx.send(1, h, Bytes::from(vec![0u8; 65536]));
            });
            c.inject(0, 0, kick, Bytes::new());
            c.run();
            c.user::<St>(0).elapsed as f64 / (2.0 * iters as f64)
        };
        assert!(
            smp * 5.0 < classic,
            "pointer passing {smp:.0}ns should crush copies {classic:.0}ns"
        );
    }

    #[test]
    fn credit_pressure_retries_and_delivers_everything() {
        // Blast many small messages over one connection to exhaust credits.
        let mut params = GeminiParams::hopper();
        params.smsg_credits = 2;
        let cfg = UgniConfig {
            params,
            ..UgniConfig::optimized()
        };
        let mut c = cluster_with(cfg, 2, 1);
        c.init_user(|_| 0u64);
        let n = 64;
        let h = c.register_handler(|ctx, _env| {
            *ctx.user::<u64>() += 1;
        });
        let kick = c.register_handler(move |ctx, _| {
            for _ in 0..n {
                ctx.send(1, h, Bytes::from_static(b"x"));
            }
        });
        c.inject(0, 0, kick, Bytes::new());
        c.run();
        assert_eq!(*c.user::<u64>(1), n, "messages lost under credit pressure");
        let layer: &mut UgniLayer = c.layer_mut();
        assert!(layer.stats.credit_retries > 0, "test never hit the backlog");
    }

    #[test]
    fn many_to_one_delivers_all() {
        let mut c = cluster_with(UgniConfig::optimized(), 8, 1);
        c.init_user(|_| 0u64);
        let h = c.register_handler(|ctx, _| {
            *ctx.user::<u64>() += 1;
        });
        let kick = c.register_handler(move |ctx, _| {
            if ctx.pe() != 0 {
                for _ in 0..10 {
                    ctx.send(0, h, Bytes::from(vec![1u8; 2048]));
                }
            }
        });
        for pe in 0..8 {
            c.inject(0, pe, kick, Bytes::new());
        }
        c.run();
        assert_eq!(*c.user::<u64>(0), 70);
    }

    fn chaos_cfg(seed: u64, drop: f64, corrupt: f64) -> UgniConfig {
        let mut cfg = UgniConfig::optimized();
        cfg.params.fault = gemini_net::FaultPlan {
            seed,
            smsg_drop: drop,
            smsg_corrupt: corrupt,
            fma_drop: drop,
            fma_corrupt: corrupt,
            bte_drop: drop,
            bte_corrupt: corrupt,
            ..gemini_net::FaultPlan::none()
        };
        cfg
    }

    /// PE 0 blasts `n` small messages at PE 1 under the given config; the
    /// run drains its event queue and returns (delivered count, end time,
    /// stats debug string).
    fn run_small_blast(cfg: UgniConfig, n: u64, bytes: usize) -> (u64, sim_core::Time, String) {
        let mut c = cluster_with(cfg, 2, 1);
        c.init_user(|_| 0u64);
        let h = c.register_handler(|ctx, _env| {
            *ctx.user::<u64>() += 1;
        });
        let kick = c.register_handler(move |ctx, _| {
            for _ in 0..n {
                ctx.send(1, h, Bytes::from(vec![3u8; bytes]));
            }
        });
        c.inject(0, 0, kick, Bytes::new());
        let r = c.run();
        let got = *c.user::<u64>(1);
        let layer: &mut UgniLayer = c.layer_mut();
        (got, r.end_time, format!("{:?}", layer.stats))
    }

    #[test]
    fn chaos_small_messages_recover_exactly_once() {
        let mut c = cluster_with(chaos_cfg(42, 0.05, 0.05), 2, 1);
        c.init_user(|_| 0u64);
        let n = 200u64;
        let h = c.register_handler(|ctx, _env| {
            *ctx.user::<u64>() += 1;
        });
        let kick = c.register_handler(move |ctx, _| {
            for _ in 0..n {
                ctx.send(1, h, Bytes::from_static(b"payload"));
            }
        });
        c.inject(0, 0, kick, Bytes::new());
        c.run();
        // Exactly-once despite drops (resent) and corrupted completions
        // (delivered + resent -> receiver dedup): not one more, not one
        // fewer.
        assert_eq!(*c.user::<u64>(1), n, "delivery not exactly-once");
        let layer: &mut UgniLayer = c.layer_mut();
        assert!(layer.stats.send_faults > 0, "plan injected no smsg faults");
        assert!(
            layer.stats.dup_drops > 0,
            "no corrupt-delivery duplicate was suppressed"
        );
        assert!(
            layer.stats.recovery_ns > 0,
            "recovery work was never accounted"
        );
    }

    #[test]
    fn chaos_rendezvous_reposts_and_preserves_payload() {
        let mut c = cluster_with(chaos_cfg(7, 0.2, 0.2), 2, 1);
        c.init_user(|_| 0u64);
        let pattern: Vec<u8> = (0..65536u32).map(|i| (i * 131 % 251) as u8).collect();
        let expect = pattern.clone();
        let n = 10u64;
        let h = c.register_handler(move |ctx, env| {
            assert_eq!(
                &env.payload[..],
                &expect[..],
                "rendezvous payload corrupted"
            );
            *ctx.user::<u64>() += 1;
        });
        let payload = Bytes::from(pattern);
        let kick = c.register_handler(move |ctx, _| {
            for _ in 0..n {
                ctx.send(1, h, payload.clone());
            }
        });
        c.inject(0, 0, kick, Bytes::new());
        c.run();
        assert_eq!(*c.user::<u64>(1), n, "rendezvous not exactly-once");
        let layer: &mut UgniLayer = c.layer_mut();
        assert!(layer.stats.rdma_faults > 0, "plan injected no RDMA faults");
    }

    #[test]
    fn forced_cq_overrun_resyncs_and_completes() {
        let mut cfg = UgniConfig::optimized();
        cfg.params.fault.force_cq_overrun_at = Some(1);
        let (got, _, stats) = run_small_blast(cfg, 20, 40_000);
        assert_eq!(got, 20, "messages lost across the CQ overrun");
        assert!(
            stats.contains("cq_resyncs: 1"),
            "forced overrun never resynced: {stats}"
        );
    }

    #[test]
    fn persistent_sends_recover_from_put_faults() {
        let mut c = cluster_with(chaos_cfg(11, 0.2, 0.2), 2, 1);
        struct St {
            handle: Option<PersistentHandle>,
            got: u64,
        }
        c.init_user(|_| St {
            handle: None,
            got: 0,
        });
        let n = 20u64;
        let h = c.register_handler(|ctx, _env| {
            ctx.user::<St>().got += 1;
        });
        let send_all = c.register_handler(move |ctx, _| {
            let hd = ctx.user::<St>().handle.unwrap();
            for _ in 0..n {
                ctx.send_persistent(hd, 1, h, Bytes::from(vec![9u8; 4096]));
            }
        });
        let kick = c.register_handler(move |ctx, _| {
            let hd = ctx.create_persistent(1, 8192);
            ctx.user::<St>().handle = Some(hd);
            ctx.send(ctx.pe(), send_all, Bytes::new());
        });
        c.inject(0, 0, kick, Bytes::new());
        c.run();
        assert_eq!(c.user::<St>(1).got, n, "persistent path not exactly-once");
    }

    #[test]
    fn link_down_window_is_survivable() {
        let mut cfg = UgniConfig::optimized();
        cfg.params.fault.link_down.push(gemini_net::LinkDownWindow {
            node: 0,
            dim: 0,
            plus: true,
            from_ns: 50_000,
            until_ns: 250_000,
        });
        let (got, _, _) = run_small_blast(cfg, 100, 512);
        assert_eq!(got, 100, "messages lost across the link outage");
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let a = run_small_blast(chaos_cfg(99, 0.05, 0.05), 150, 1024);
        let b = run_small_blast(chaos_cfg(99, 0.05, 0.05), 150, 1024);
        assert_eq!(a, b, "same seed + same plan must replay identically");
        let c = run_small_blast(chaos_cfg(100, 0.05, 0.05), 150, 1024);
        assert_ne!(a.1, c.1, "different fault seed should perturb timing");
    }

    #[test]
    fn registration_exhaustion_falls_back_to_pool() {
        let mut cfg = UgniConfig::optimized().with_mempool(false);
        cfg.params.fault.seed = 5;
        cfg.params.fault.reg_fail = 0.5;
        let mut c = cluster_with(cfg, 2, 1);
        c.init_user(|_| 0u64);
        let n = 12u64;
        let h = c.register_handler(|ctx, env| {
            assert_eq!(env.payload.len(), 32768);
            *ctx.user::<u64>() += 1;
        });
        let kick = c.register_handler(move |ctx, _| {
            for _ in 0..n {
                ctx.send(1, h, Bytes::from(vec![5u8; 32768]));
            }
        });
        c.inject(0, 0, kick, Bytes::new());
        c.run();
        assert_eq!(*c.user::<u64>(1), n);
        let layer: &mut UgniLayer = c.layer_mut();
        assert!(
            layer.stats.reg_fallbacks > 0,
            "50% reg failure never hit the fallback path"
        );
    }

    #[test]
    fn fma_bte_choice_follows_threshold() {
        let mut c = cluster_with(UgniConfig::optimized(), 2, 1);
        let h = c.register_handler(|_ctx, _env| {});
        let kick = c.register_handler(move |ctx, _| {
            ctx.send(1, h, Bytes::from(vec![0u8; 2048])); // FMA-range rendezvous
            ctx.send(1, h, Bytes::from(vec![0u8; 262144])); // BTE range
        });
        c.inject(0, 0, kick, Bytes::new());
        c.run();
        let layer: &mut UgniLayer = c.layer_mut();
        let stats = layer.gni().fabric().stats.clone();
        assert!(stats.fma_transactions >= 1, "2KB should use FMA");
        assert!(stats.bte_transactions >= 1, "256KB should use BTE");
    }
}
