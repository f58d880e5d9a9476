//! The benchmark-owned ring-exchange driver.
//!
//! Each PE sends `msgs` typed AMs to each of its neighbours per
//! iteration, every data AM is acked, and a PE advances when it has all
//! the data and all the acks of its iteration — the kNeighbor exchange of
//! `charm-apps` (paper Fig. 10), generalised to a neighbour table and a
//! size table so a seed can generate the inputs. It is closed-loop by
//! construction: apart from the t=0 kick, every send is triggered by a
//! delivery.
//!
//! Owning the driver (instead of calling `kneighbor_*_report`) is what
//! lets the benchmark time set-up apart from `Cluster::run`, wrap the
//! machine layer and the handlers for the traced run, read the layers'
//! stats afterwards, and record per-iteration virtual times. With a
//! [`plain_ring`] neighbour table and one fixed size it reproduces the
//! app's event count and virtual end time exactly (tests/driver.rs).

use crate::span::{span, Op, TimedLayer};
use bytes::Bytes;
use charm_apps::LayerKind;
use charm_rt::prelude::*;
use sim_core::Time;
use std::sync::{Arc, OnceLock};

/// Generated inputs of one ring run. The simulator sees only this.
#[derive(Clone)]
pub struct RingInput {
    pub layer: LayerKind,
    pub cores: u32,
    pub cores_per_node: u32,
    /// `fanout` neighbours per PE, PE-major. Must be symmetric (q lists p
    /// as often as p lists q): a PE expects `fanout * msgs` data AMs per
    /// iteration.
    pub neighbors: Arc<[PeId]>,
    pub fanout: u32,
    /// Data AMs per neighbour per iteration.
    pub msgs: u32,
    pub iters: u32,
    /// Data payload sizes, bytes. Each PE walks the table cyclically from
    /// its own starting point, one entry per data AM sent.
    pub sizes: Arc<[u32]>,
    /// Ack carries the data buffer back (kNeighbor: "the same message
    /// buffer is used to send the ack back") instead of being empty.
    pub ack_echo: bool,
    pub aggregation: bool,
    pub threads: u32,
    /// Becomes `ClusterCfg::seed`.
    pub seed: u64,
}

impl RingInput {
    /// Data AMs (and acks) the run must deliver exactly once.
    pub fn expected_data(&self) -> u64 {
        self.cores as u64 * self.per_pe_iter() * self.iters as u64
    }

    fn per_pe_iter(&self) -> u64 {
        self.fanout as u64 * self.msgs as u64
    }
}

/// Neighbour table of the plain ring: offsets 1..=k either side, in the
/// order `charm-apps` enumerates them.
pub fn plain_ring(cores: u32, k: u32) -> Arc<[PeId]> {
    ring_with_offsets(cores, &(1..=k).collect::<Vec<_>>())
}

/// Neighbour table of a ring with the given offsets either side.
pub fn ring_with_offsets(cores: u32, offsets: &[u32]) -> Arc<[PeId]> {
    assert!(
        offsets.iter().all(|&d| d >= 1 && 2 * d < cores),
        "ring too small for its offsets"
    );
    (0..cores)
        .flat_map(|pe| {
            offsets
                .iter()
                .flat_map(move |&d| [(pe + d) % cores, (pe + cores - d) % cores])
        })
        .collect()
}

/// Per-PE state. Cumulative counts make early arrivals from faster
/// neighbours (already an iteration ahead) harmless.
pub struct PeState {
    pub data_total: u64,
    pub ack_total: u64,
    pub iter: u32,
    pub done: bool,
    /// Next entry of the size table.
    cursor: usize,
    iter_start: Time,
    /// Virtual duration of each completed iteration, ns.
    pub iter_virt_ns: Vec<Time>,
}

/// What the handlers share.
struct Shared {
    inp: RingInput,
    /// All data AMs alias one zeroed buffer (as the app does): no alloc +
    /// memset per send, identical wire bytes.
    zeros: Bytes,
    data: OnceLock<AmId>,
    ack: OnceLock<AmId>,
}

impl Shared {
    /// One iteration's burst: `msgs` data AMs to every neighbour.
    fn send_burst<const TRACED: bool>(&self, ctx: &mut PeCtx) {
        let data = *self.data.get().expect("data AM registered");
        let inp = &self.inp;
        let (pe, fanout) = (ctx.pe() as usize, inp.fanout as usize);
        for &n in &inp.neighbors[pe * fanout..(pe + 1) * fanout] {
            for _ in 0..inp.msgs {
                let st = ctx.user::<PeState>();
                let size = inp.sizes[st.cursor % inp.sizes.len()] as usize;
                st.cursor += 1;
                let _g = span::<TRACED>(Op::AmSend);
                ctx.am_send(n, data, self.zeros.slice(0..size));
            }
        }
    }

    /// Advance as many iterations as the cumulative counts allow, then
    /// send the bursts of the iterations entered.
    fn advance<const TRACED: bool>(&self, ctx: &mut PeCtx) {
        let now = ctx.now();
        let per_iter = self.inp.per_pe_iter();
        let st = ctx.user::<PeState>();
        let mut bursts = 0;
        while !st.done
            && st.ack_total >= per_iter * (st.iter as u64 + 1)
            && st.data_total >= per_iter * (st.iter as u64 + 1)
        {
            st.iter += 1;
            st.iter_virt_ns.push(now - st.iter_start);
            st.iter_start = now;
            if st.iter >= self.inp.iters {
                st.done = true;
            } else {
                bursts += 1;
            }
        }
        for _ in 0..bursts {
            self.send_burst::<TRACED>(ctx);
        }
    }
}

/// Set-up: everything from `Cluster::new` to the last inject. The
/// returned cluster is ready for [`Cluster::run`]. With `TRACED` the
/// machine layer is wrapped in [`TimedLayer`] and handlers and `am_send`
/// calls record spans (start a recording first: the layer's `init` runs
/// in here).
pub fn build<const TRACED: bool>(inp: &RingInput) -> Cluster {
    let mut cfg = ClusterCfg::new(inp.cores, inp.cores_per_node);
    cfg.seed = inp.seed;
    cfg.threads = inp.threads;
    cfg.fault = inp.layer.fault();
    let layer = inp.layer.make_layer();
    let layer: Box<dyn MachineLayer> = if TRACED {
        Box::new(TimedLayer::new(layer))
    } else {
        layer
    };
    let mut c = Cluster::new(cfg, layer);
    c.am_config(AmConfig {
        aggregation: inp.aggregation,
        // As the fine-grained app sets it: tiny-AM bursts are
        // latency-sensitive (irrelevant with aggregation off).
        flush_delay_ns: 1_000,
        ..AmConfig::default()
    });
    let iters = inp.iters as usize;
    c.init_user(|pe| PeState {
        data_total: 0,
        ack_total: 0,
        iter: 0,
        done: false,
        cursor: pe as usize * 131,
        iter_start: 0,
        iter_virt_ns: Vec::with_capacity(iters),
    });

    let max_size = inp.sizes.iter().copied().max().expect("size table") as usize;
    let sh = Arc::new(Shared {
        inp: inp.clone(),
        zeros: Bytes::from(vec![0u8; max_size]),
        data: OnceLock::new(),
        ack: OnceLock::new(),
    });

    let s = sh.clone();
    let data = c.register_am::<Bytes>(move |ctx, src, payload| {
        let _g = span::<TRACED>(Op::Handler);
        let ack = *s.ack.get().expect("ack AM registered");
        let reply = if s.inp.ack_echo {
            payload
        } else {
            Bytes::new()
        };
        {
            let _g = span::<TRACED>(Op::AmSend);
            ctx.am_send(src, ack, reply);
        }
        ctx.user::<PeState>().data_total += 1;
        s.advance::<TRACED>(ctx);
    });
    sh.data.set(data).expect("set once");
    let s = sh.clone();
    let ack = c.register_am::<Bytes>(move |ctx, _src, _payload| {
        let _g = span::<TRACED>(Op::Handler);
        ctx.user::<PeState>().ack_total += 1;
        s.advance::<TRACED>(ctx);
    });
    sh.ack.set(ack).expect("set once");

    let s = sh;
    let kick = c.register_handler(move |ctx, _| {
        let _g = span::<TRACED>(Op::Handler);
        let now = ctx.now();
        ctx.user::<PeState>().iter_start = now;
        s.send_burst::<TRACED>(ctx);
    });
    for pe in 0..inp.cores {
        c.inject(0, pe, kick, Bytes::new());
    }
    c
}

/// Application-level outcome of a finished run, read back from the
/// per-PE state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingOutcome {
    /// Σ over PEs of |received − expected| for data AMs plus the same for
    /// acks, plus PEs that did not finish: missing or duplicated
    /// deliveries. 0 on a correct run.
    pub failed: u64,
    /// Virtual duration of every (PE, iteration), ns, sorted.
    pub iter_virt_ns: Vec<Time>,
}

pub fn outcome(c: &Cluster, inp: &RingInput) -> RingOutcome {
    let expect = inp.per_pe_iter() * inp.iters as u64;
    let mut failed = 0;
    let mut iter_virt_ns = Vec::with_capacity(inp.cores as usize * inp.iters as usize);
    for pe in 0..inp.cores {
        let st = c.user::<PeState>(pe);
        failed += st.data_total.abs_diff(expect) + st.ack_total.abs_diff(expect);
        failed += u64::from(!st.done);
        iter_virt_ns.extend_from_slice(&st.iter_virt_ns);
    }
    iter_virt_ns.sort_unstable();
    RingOutcome {
        failed,
        iter_virt_ns,
    }
}
