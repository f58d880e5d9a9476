//! An idealized machine layer: constant latency, zero overhead.
//!
//! Used by the core runtime's own tests (network-independent logic) and as
//! the "perfect network" ablation baseline — any gap between a real machine
//! layer and [`IdealLayer`] is, by construction, communication cost.

use crate::cluster::MachineCtx;
use crate::lrts::MachineLayer;
use crate::msg::PeId;
use bytes::Bytes;
use sim_core::Time;
use std::any::Any;

/// Delivers every message `latency` ns after it is sent, free of CPU cost.
pub struct IdealLayer {
    latency: Time,
}

impl IdealLayer {
    pub fn new(latency: Time) -> Self {
        IdealLayer { latency }
    }
}

impl MachineLayer for IdealLayer {
    fn name(&self) -> &'static str {
        "ideal"
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    fn init(&mut self, _ctx: &mut MachineCtx) {}

    fn lookahead(&self) -> Time {
        // Every delivery lands exactly one latency after the send.
        self.latency.max(1)
    }

    fn sync_send(&mut self, ctx: &mut MachineCtx, _src_pe: PeId, dst_pe: PeId, msg: Bytes) {
        ctx.deliver(ctx.now() + self.latency, dst_pe, msg);
    }

    fn on_event(&mut self, _ctx: &mut MachineCtx, _pe: PeId, _ev: Box<dyn Any + Send>) {
        unreachable!("IdealLayer schedules no machine events");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterCfg};
    use crate::msg::wire;

    #[test]
    fn constant_latency_delivery() {
        let mut c = Cluster::new(ClusterCfg::new(2, 2), Box::new(IdealLayer::new(777)));
        let h = c.register_handler(|ctx, env| {
            if ctx.pe() == 1 {
                // Arrived one latency after the send instant.
                assert!(ctx.now() >= 777);
                ctx.stop();
            } else {
                ctx.send(1, env.handler, wire::pack_u64s(&[1]));
            }
        });
        c.inject(0, 0, h, Bytes::new());
        let r = c.run();
        assert!(r.stopped_early);
        assert_eq!(r.stats.net_msgs, 1);
    }
}
