//! Quiescence detection (QD).
//!
//! Charm++ programs with dynamic task graphs (like the paper's N-Queens)
//! detect completion through quiescence: the moment when no handler is
//! running and no message is in flight anywhere. This module implements
//! the classic two-wave counting algorithm Converse uses: a coordinator
//! repeatedly collects `(sent, delivered)` totals from all PEs over the
//! spanning tree; quiescence is declared when two consecutive waves agree
//! and sends equal deliveries.
//!
//! The DES driver can also detect drain trivially (empty event queue), but
//! applications inside the simulation cannot see that — QD is the *in
//! band* mechanism, exactly like on a real machine, and it lets a program
//! start a next phase (or stop) from within.

use crate::cluster::{Cluster, PeCtx};
use crate::msg::{wire, HandlerId, PeId};
use bytes::Bytes;
use sim_core::Time;

/// Per-PE QD state, updated by the driver on every send/delivery.
#[derive(Debug, Default, Clone)]
pub struct QdPe {
    pub sent: u64,
    pub delivered: u64,
}

/// The coordinator's view of one collection wave.
#[derive(Debug, Default)]
struct Wave {
    reported: u32,
    sent: u64,
    delivered: u64,
}

/// QD coordinator state (lives on PE 0's user state side table).
#[derive(Debug)]
pub struct QdState {
    /// Client to notify on quiescence.
    client: (HandlerId, PeId),
    wave: Wave,
    prev: Option<(u64, u64)>,
    /// Poll period between waves.
    period: Time,
    armed: bool,
}

/// Handle returned by [`register`]; kick it with [`Qd::start`].
#[derive(Debug, Clone, Copy)]
pub struct Qd {
    collect: HandlerId,
}

const QD_COORDINATOR: PeId = 0;

/// Install the QD handlers on a cluster. `client` is invoked on
/// `client_pe` when quiescence is detected. Must be called before `run`.
pub fn register(cluster: &mut Cluster, client: HandlerId, client_pe: PeId, period: Time) -> Qd {
    // Handler: coordinator asks every PE for its counters.
    let report_cell = std::sync::Arc::new(std::sync::OnceLock::new());
    let rc = report_cell.clone();
    let collect = cluster.register_handler(move |ctx, _env| {
        // Drain any coalescing AM buffers first: a buffered constituent is
        // counted as sent but not yet delivered, so flushing here both
        // prevents a false quiescence verdict and guarantees buffered AMs
        // cannot outlive an idle machine (ISSUE flush trigger (c)).
        ctx.am_flush_all();
        let (sent, delivered) = ctx.qd_counters();
        ctx.send(
            QD_COORDINATOR,
            *rc.get().expect("report handler registered"),
            wire::pack_u64s(&[sent, delivered]),
        );
    });
    let collect_copy = collect;
    let report = cluster.register_handler(move |ctx, env| {
        let sent = wire::unpack_u64(&env.payload, 0);
        let delivered = wire::unpack_u64(&env.payload, 1);
        let num_pes = ctx.num_pes();
        let decided = {
            let qd = ctx.qd_state();
            qd.wave.reported += 1;
            qd.wave.sent += sent;
            qd.wave.delivered += delivered;
            if qd.wave.reported < num_pes {
                None
            } else {
                let totals = (qd.wave.sent, qd.wave.delivered);
                qd.wave = Wave::default();
                let stable = qd.prev == Some(totals) && totals.0 == totals.1;
                qd.prev = Some(totals);
                Some(stable)
            }
        };
        match decided {
            Some(true) => {
                let qd = ctx.qd_state();
                qd.armed = false;
                let client = qd.client;
                ctx.send(client.1, client.0, Bytes::new());
            }
            Some(false) => {
                // Schedule the next wave after the poll period.
                let period = ctx.qd_state().period;
                for pe in 0..num_pes {
                    ctx.send_after(period, pe, collect_copy, Bytes::new());
                }
            }
            None => {}
        }
    });
    report_cell.set(report).expect("set once");
    cluster.install_qd(
        QdState {
            client: (client, client_pe),
            wave: Wave::default(),
            prev: None,
            period,
            armed: false,
        },
        &[collect, report, client],
    );
    Qd { collect }
}

impl Qd {
    /// Begin watching for quiescence (call from a handler, typically right
    /// after seeding the work).
    pub fn start(&self, ctx: &mut PeCtx) {
        {
            let qd = ctx.qd_state();
            if qd.armed {
                return;
            }
            qd.armed = true;
            qd.prev = None;
        }
        let num_pes = ctx.num_pes();
        let period = ctx.qd_state().period;
        for pe in 0..num_pes {
            ctx.send_after(period, pe, self.collect, Bytes::new());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterCfg};
    use crate::ideal::IdealLayer;

    /// A diffusion: each task spawns children until depth 0; QD must fire
    /// only after the whole tree has drained.
    #[test]
    fn qd_fires_after_tree_drains() {
        let mut c = Cluster::new(ClusterCfg::new(8, 4), Box::new(IdealLayer::new(800)));
        c.init_user(|_| 0u64); // tasks executed
        let spawn = c.register_handler(|ctx, env| {
            *ctx.user::<u64>() += 1;
            let depth = wire::unpack_u64(&env.payload, 0);
            if depth > 0 {
                for _ in 0..2 {
                    let n = ctx.num_pes() as u64;
                    let dst = ctx.rng().below(n) as u32;
                    ctx.send(dst, env.handler, wire::pack_u64s(&[depth - 1]));
                }
            }
        });
        let done = c.register_handler(move |ctx, _| {
            // Quiescence: all 2^7-1... = 2^(d+1)-1 tasks must have run.
            ctx.stop();
        });
        let qd = register(&mut c, done, 0, 5_000);
        let kick = c.register_handler(move |ctx, _| {
            ctx.send(0, spawn, wire::pack_u64s(&[6]));
            qd.start(ctx);
        });
        c.inject(0, 0, kick, Bytes::new());
        let r = c.run();
        assert!(r.stopped_early, "QD never fired");
        let total: u64 = (0..8).map(|pe| *c.user::<u64>(pe)).sum();
        assert_eq!(total, (1 << 7) - 1, "QD fired before the tree drained");
    }

    /// QD on an already-quiet system fires promptly.
    #[test]
    fn qd_fires_on_idle_system() {
        let mut c = Cluster::new(ClusterCfg::new(4, 2), Box::new(IdealLayer::new(500)));
        let done = c.register_handler(|ctx, _| ctx.stop());
        let qd = register(&mut c, done, 0, 2_000);
        let kick = c.register_handler(move |ctx, _| qd.start(ctx));
        c.inject(0, 3, kick, Bytes::new());
        let r = c.run();
        assert!(r.stopped_early);
    }

    /// Two consecutive agreeing waves are required: a system that is
    /// momentarily quiet between bursts must not trigger QD.
    #[test]
    fn qd_survives_bursty_traffic() {
        let mut c = Cluster::new(ClusterCfg::new(4, 2), Box::new(IdealLayer::new(500)));
        c.init_user(|_| 0u64);
        // A chain with long gaps (timers) between hops: the network is
        // quiet during each gap, but messages are still logically pending.
        let chain = c.register_handler(|ctx, env| {
            *ctx.user::<u64>() += 1;
            let hops = wire::unpack_u64(&env.payload, 0);
            if hops > 0 {
                // Delay longer than the QD period.
                ctx.send_after(
                    30_000,
                    (ctx.pe() + 1) % 4,
                    env.handler,
                    wire::pack_u64s(&[hops - 1]),
                );
            }
        });
        let done = c.register_handler(move |ctx, _| {
            let done_count = *ctx.user::<u64>();
            let _ = done_count;
            ctx.stop();
        });
        let qd = register(&mut c, done, 0, 5_000);
        let kick = c.register_handler(move |ctx, _| {
            ctx.send(0, chain, wire::pack_u64s(&[4]));
            qd.start(ctx);
        });
        c.inject(0, 0, kick, Bytes::new());
        c.run();
        let total: u64 = (0..4).map(|pe| *c.user::<u64>(pe)).sum();
        assert_eq!(total, 5, "QD fired before the delayed chain completed");
    }
}
