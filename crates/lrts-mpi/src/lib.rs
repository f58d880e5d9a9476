//! `lrts-mpi`: the MPI-based Converse machine layer — the baseline the
//! paper improves on.
//!
//! Structure (paper §I, §V):
//!
//! * `LrtsSyncSend` maps to `MPI_Isend` with a **fresh buffer identity**
//!   per message: the Charm runtime allocates/frees message buffers itself,
//!   so the MPI rendezvous path almost never hits the uDREG registration
//!   cache (the reason MPI-based CHARM++ tracks the *"different send/recv
//!   buffer"* MPI curve in Fig. 9a, not the fast same-buffer one).
//! * The progress engine (`LrtsNetworkEngine`) is an `MPI_Iprobe` loop.
//!   Probes cost CPU even when they miss, and — the Fig. 10 mechanism —
//!   "once a MPI_IProbe returns true, the progress engine calls blocking
//!   MPI_Recv to receive the large message, which prevents the progress
//!   engine from doing any other work".

use bytes::Bytes;
use charm_rt::cluster::MachineCtx;
use charm_rt::lrts::MachineLayer;
use charm_rt::msg::PeId;
use mpi_sim::{MpiConfig, MpiSim};
use sim_core::{LazyVec, Time};
use std::any::Any;

/// Extra `MPI_Iprobe` rounds the Charm progress engine performs per
/// drained message (the paper: performance problems "caused by prolonged
/// MPI_Iprobe").
const EXTRA_PROBES_PER_MSG: u32 = 2;

/// Machine-layer events.
enum Ev {
    /// Run the Iprobe progress loop on this PE.
    Poll,
}

#[derive(Debug, Default, Clone)]
pub(crate) struct MpiLayerStats {
    pub(crate) iprobe_calls: u64,
    /// Time the progress engine spent inside blocking receives.
    pub(crate) blocked_ns: Time,
}

/// Materialization grain for per-PE poll state (small: sparse jobs
/// touch scattered PEs).
const POLL_PAGE: usize = 64;

/// The MPI machine layer.
pub struct MpiLayer {
    cfg: MpiConfig,
    mpi: Option<MpiSim>,
    /// Earliest armed Poll per PE (coalescing; u64::MAX = none). Paged
    /// lazily: the disarmed state IS the default, so idle PEs cost nothing.
    poll_armed: LazyVec<Time, POLL_PAGE>,
    pub(crate) stats: MpiLayerStats,
}

impl MpiLayer {
    pub fn new(cfg: MpiConfig) -> Self {
        MpiLayer {
            cfg,
            mpi: None,
            poll_armed: LazyVec::new(0, Time::MAX),
            stats: MpiLayerStats::default(),
        }
    }

    pub fn mpi(&self) -> &MpiSim {
        self.mpi.as_ref().expect("layer not initialized")
    }

    /// Contract-verifier findings from the MPI library's uGNI instance.
    /// `Some` only when built with the `verify` feature.
    pub fn contract_report(&self) -> Option<ugni_verify::ContractReport> {
        self.mpi.as_ref().and_then(|m| m.contract_report())
    }

    fn mpi_mut(&mut self) -> &mut MpiSim {
        self.mpi.as_mut().expect("layer not initialized")
    }
}

impl MachineLayer for MpiLayer {
    fn name(&self) -> &'static str {
        "MPI"
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    fn lookahead(&self) -> Time {
        // MPI rides the same Gemini wires: the uGNI latency floor holds.
        self.cfg.params.min_remote_latency()
    }

    fn init(&mut self, ctx: &mut MachineCtx) {
        self.poll_armed = LazyVec::new(ctx.num_pes() as usize, Time::MAX);
        self.mpi = Some(MpiSim::new(
            self.cfg.clone(),
            ctx.num_pes(),
            ctx.cores_per_node(),
        ));
    }

    fn sync_send(&mut self, ctx: &mut MachineCtx, src_pe: PeId, dst_pe: PeId, msg: Bytes) {
        debug_assert_ne!(src_pe, dst_pe, "self-sends bypass the machine layer");
        ctx.count_send(msg.len() as u64);
        // "If CHARM++ is implemented on MPI, an extra memory copy between
        // CHARM++ and MPI memory space may be needed" (paper §I) — charged
        // here for eager-sized messages.
        if (msg.len() as u64) < self.cfg.rndv_threshold {
            ctx.charge_overhead(src_pe, self.cfg.params.memcpy_cost(msg.len() as u64));
        }
        // The send hits MPI once the PE's charged work is done.
        let now = ctx.pe_free_at(src_pe).max(ctx.now());
        // The Charm runtime manages its own buffers: every message is a
        // fresh buffer as far as MPI's registration cache can tell.
        let buf = self.mpi_mut().fresh_buf(src_pe);
        let fx = self.mpi_mut().isend(now, src_pe, dst_pe, 0, msg, buf);
        ctx.charge_overhead(src_pe, fx.cpu);
        for (rank, at) in fx.wakes {
            let at = at.max(now);
            // One in-flight Poll per PE: the Iprobe loop drains everything
            // matchable, so duplicates only pile up behind busy PEs.
            if at < *self.poll_armed.get(rank as usize) {
                *self.poll_armed.get_mut(rank as usize) = at;
                ctx.schedule(at, rank, Box::new(Ev::Poll));
            }
        }
    }

    fn on_event(&mut self, ctx: &mut MachineCtx, pe: PeId, ev: Box<dyn Any + Send>) {
        match *ev.downcast::<Ev>().expect("foreign machine event") {
            Ev::Poll => {
                if *self.poll_armed.get(pe as usize) != Time::MAX {
                    *self.poll_armed.get_mut(pe as usize) = Time::MAX;
                }
                // The Iprobe-driven progress engine: drain everything that
                // is matchable right now; each large message blocks.
                loop {
                    let t = ctx.pe_free_at(pe).max(ctx.now());
                    let (hit, probe_cpu) = self.mpi_mut().iprobe(t, pe, None, None);
                    self.stats.iprobe_calls += 1;
                    ctx.charge_overhead(pe, probe_cpu);
                    let Some(hit) = hit else {
                        // Re-arm for messages not yet visible at the time
                        // the probe ran (anything that became visible while
                        // the probe CPU was charged must also be covered,
                        // so the probe's own timestamp `t` is the cutoff).
                        if let Some(next) = self.mpi().next_visible(t, pe) {
                            let next = next.max(ctx.now());
                            if next < *self.poll_armed.get(pe as usize) {
                                *self.poll_armed.get_mut(pe as usize) = next;
                                ctx.schedule(next, pe, Box::new(Ev::Poll));
                            }
                        }
                        break;
                    };
                    // Prolonged probing: the Charm-on-MPI progress engine
                    // makes several library calls per message.
                    ctx.charge_overhead(pe, probe_cpu * EXTRA_PROBES_PER_MSG as Time);
                    self.stats.iprobe_calls += EXTRA_PROBES_PER_MSG as u64;
                    let t = ctx.pe_free_at(pe).max(ctx.now());
                    let rbuf = self.mpi_mut().fresh_buf(pe);
                    let out = self
                        .mpi_mut()
                        .recv(t, pe, Some(hit.src), Some(hit.tag), rbuf)
                        .expect("probed message vanished");
                    // Blocking window: the PE can do nothing else (for
                    // rendezvous this spans the whole transfer).
                    let window = out.done_at.saturating_sub(t);
                    if hit.is_rendezvous {
                        self.stats.blocked_ns += window;
                    }
                    ctx.charge_overhead(pe, window);
                    ctx.deliver_at(out.done_at.max(ctx.now()), pe, out.data);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charm_rt::prelude::*;

    fn cluster(pes: u32, cores: u32) -> Cluster {
        Cluster::new(
            ClusterCfg::new(pes, cores),
            Box::new(MpiLayer::new(MpiConfig::default())),
        )
    }

    #[test]
    fn small_message_delivery() {
        let mut c = cluster(2, 1);
        let h = c.register_handler(|ctx, env| {
            if ctx.pe() == 1 {
                assert_eq!(&env.payload[..], b"ping");
                ctx.stop();
            }
        });
        let kick = c.register_handler(move |ctx, _| ctx.send(1, h, Bytes::from_static(b"ping")));
        c.inject(0, 0, kick, Bytes::new());
        assert!(c.run().stopped_early);
    }

    #[test]
    fn large_message_delivery_with_blocking_recv() {
        let mut c = cluster(2, 1);
        let h = c.register_handler(|ctx, env| {
            if ctx.pe() == 1 {
                assert_eq!(env.payload.len(), 262_144);
                ctx.stop();
            }
        });
        let kick =
            c.register_handler(move |ctx, _| ctx.send(1, h, Bytes::from(vec![5u8; 262_144])));
        c.inject(0, 0, kick, Bytes::new());
        assert!(c.run().stopped_early);
        let layer: &mut MpiLayer = c.layer_mut();
        assert!(
            layer.stats.blocked_ns > 10_000,
            "rendezvous recv must block"
        );
        assert!(layer.stats.iprobe_calls >= 1);
    }

    #[test]
    fn many_messages_all_arrive() {
        let mut c = cluster(4, 2);
        c.init_user(|_| 0u64);
        let h = c.register_handler(|ctx, _| *ctx.user::<u64>() += 1);
        let kick = c.register_handler(move |ctx, _| {
            for dst in 0..4 {
                if dst != ctx.pe() {
                    for _ in 0..5 {
                        ctx.send(dst, h, Bytes::from(vec![0u8; 512]));
                    }
                }
            }
        });
        for pe in 0..4 {
            c.inject(0, pe, kick, Bytes::new());
        }
        c.run();
        for pe in 0..4 {
            assert_eq!(*c.user::<u64>(pe), 15, "pe {pe}");
        }
    }

    #[test]
    fn mixed_sizes_preserve_all_payloads() {
        let mut c = cluster(2, 1);
        c.init_user(|_| (0u64, 0u64)); // (count, total_bytes)
        let h = c.register_handler(|ctx, env| {
            let st = ctx.user::<(u64, u64)>();
            st.0 += 1;
            st.1 += env.payload.len() as u64;
        });
        let sizes = [8usize, 900, 4000, 9000, 70_000, 300_000];
        let total: u64 = sizes.iter().map(|&s| s as u64).sum();
        let kick = c.register_handler(move |ctx, _| {
            for &s in &sizes {
                ctx.send(1, h, Bytes::from(vec![1u8; s]));
            }
        });
        c.inject(0, 0, kick, Bytes::new());
        c.run();
        let st = c.user::<(u64, u64)>(1);
        assert_eq!(st.0, sizes.len() as u64);
        assert_eq!(st.1, total);
    }
}
