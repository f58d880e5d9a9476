//! Host-time spans recorded from outside the program (choosing-metrics
//! §4): a per-thread span stack with exact self-time attribution, and
//! [`TimedLayer`], the machine-layer decorator that times every call core
//! makes across the LRTS boundary.
//!
//! 18M events cannot keep raw spans, so every span is folded into a
//! per-[`Op`] aggregate (count / total / self) as it closes; only the
//! first [`RAW_CAP`] spans are kept raw, with parent ids, for the
//! Chrome-trace file. The recorder is thread-local: the ring driver's
//! traced runs are sequential, so handlers, `am_send` calls and layer
//! calls all land on the main thread's stack and nest correctly.

use bytes::Bytes;
use charm_rt::prelude::*;
use std::any::Any;
use std::cell::RefCell;
use std::time::Instant;

/// Raw spans kept for the Chrome trace.
pub const RAW_CAP: usize = 10_000;

/// The span kinds. One per boundary the benchmark can see from outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Op {
    /// `Cluster::run` — the root. Its self time is everything core does
    /// between layer calls and handlers: queue, scheduler, envelope codec,
    /// QD, virtual-time trace.
    Run = 0,
    /// `MachineLayer::init` (inside `Cluster::new`).
    LayerInit,
    /// `MachineLayer::sync_send`.
    SyncSend,
    /// `MachineLayer::on_event`.
    OnEvent,
    /// Persistent-channel and node-fault calls (unused by the workloads,
    /// forwarded and timed all the same).
    LayerOther,
    /// A driver-registered handler (kick / data / ack).
    Handler,
    /// The driver's `PeCtx::am_send` calls.
    AmSend,
    /// A top-level `charm-apps` entry point (`apps_irregular`).
    App,
}

/// Number of [`Op`] kinds (`agg` is indexed by `Op as usize`).
const OP_KINDS: usize = Op::App as usize + 1;

impl Op {
    /// `layer.op` as it appears in the Chrome trace.
    pub fn label(self) -> (&'static str, &'static str) {
        match self {
            Op::Run => ("core", "run"),
            Op::LayerInit => ("lrts", "init"),
            Op::SyncSend => ("lrts", "sync_send"),
            Op::OnEvent => ("lrts", "on_event"),
            Op::LayerOther => ("lrts", "other"),
            Op::Handler => ("apps", "handler"),
            Op::AmSend => ("core", "am_send"),
            Op::App => ("apps", "entry"),
        }
    }
}

/// Per-[`Op`] aggregate, nanoseconds.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the part covered by child spans.
    pub self_ns: u64,
}

/// One raw span for the Chrome trace.
#[derive(Debug, Clone, Copy)]
pub struct RawSpan {
    pub id: u32,
    /// 0 = no parent (ids start at 1).
    pub parent: u32,
    pub op: Op,
    pub start_ns: u64,
    pub dur_ns: u64,
}

struct Open {
    op: Op,
    start_ns: u64,
    child_ns: u64,
    /// Index into `raw` (`usize::MAX` once the raw buffer is full).
    raw: usize,
    id: u32,
}

/// What a traced run produced.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    pub agg: [Agg; OP_KINDS],
    pub raw: Vec<RawSpan>,
}

impl Spans {
    pub fn of(&self, op: Op) -> Agg {
        self.agg[op as usize]
    }

    /// Sum of every op's self time: equals the root spans' total when
    /// every `enter` met its `exit` on one stack.
    pub fn self_sum_ns(&self) -> u64 {
        self.agg.iter().map(|a| a.self_ns).sum()
    }

    /// Chrome-trace JSON (`chrome://tracing`, Perfetto): complete events
    /// (`ph: "X"`), microsecond timestamps, parent id in `args`.
    pub fn chrome_trace(&self) -> String {
        let mut s = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
        for (i, r) in self.raw.iter().enumerate() {
            let (layer, op) = r.op.label();
            if i > 0 {
                s.push_str(",\n");
            }
            s.push_str(&format!(
                "{{\"name\": \"{layer}.{op}\", \"cat\": \"{layer}\", \"ph\": \"X\", \
                 \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"id\": {}, \"parent\": {}}}}}",
                r.start_ns as f64 / 1e3,
                r.dur_ns as f64 / 1e3,
                r.id,
                r.parent
            ));
        }
        s.push_str("\n]}\n");
        s
    }
}

struct Recorder {
    epoch: Instant,
    stack: Vec<Open>,
    out: Spans,
    next_id: u32,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread (drops any previous recording).
pub fn start() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            stack: Vec::with_capacity(16),
            out: Spans {
                agg: Default::default(),
                raw: Vec::with_capacity(RAW_CAP),
            },
            next_id: 1,
        })
    });
}

/// Stop recording and take the spans. Panics if spans are still open:
/// an unbalanced stack would silently misattribute self time.
pub fn finish() -> Spans {
    REC.with(|r| {
        let rec = r.borrow_mut().take().expect("span::finish without start");
        assert!(rec.stack.is_empty(), "span stack not empty at finish");
        rec.out
    })
}

fn enter(op: Op) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else { return };
        let id = rec.next_id;
        rec.next_id = rec.next_id.wrapping_add(1);
        let raw = if rec.out.raw.len() < RAW_CAP {
            rec.out.raw.push(RawSpan {
                id,
                parent: rec.stack.last().map_or(0, |p| p.id),
                op,
                start_ns: 0,
                dur_ns: 0,
            });
            rec.out.raw.len() - 1
        } else {
            usize::MAX
        };
        // Read the clock last so the bookkeeping above lands in the
        // parent's self time, not the child's.
        let start_ns = rec.epoch.elapsed().as_nanos() as u64;
        rec.stack.push(Open {
            op,
            start_ns,
            child_ns: 0,
            raw,
            id,
        });
    });
}

fn exit() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else { return };
        let end_ns = rec.epoch.elapsed().as_nanos() as u64;
        let open = rec.stack.pop().expect("span exit without enter");
        let dur = end_ns - open.start_ns;
        let a = &mut rec.out.agg[open.op as usize];
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(parent) = rec.stack.last_mut() {
            parent.child_ns += dur;
        }
        if open.raw != usize::MAX {
            let raw = &mut rec.out.raw[open.raw];
            raw.start_ns = open.start_ns;
            raw.dur_ns = dur;
        }
    });
}

/// RAII span. `TRACED = false` compiles to nothing, so the untraced
/// (end-to-end) runs execute no timer code at all.
pub struct Guard<const TRACED: bool>;

#[inline(always)]
pub fn span<const TRACED: bool>(op: Op) -> Guard<TRACED> {
    if TRACED {
        enter(op);
    }
    Guard
}

impl<const TRACED: bool> Drop for Guard<TRACED> {
    #[inline(always)]
    fn drop(&mut self) {
        if TRACED {
            exit();
        }
    }
}

/// Machine-layer decorator: forwards every [`MachineLayer`] method to the
/// wrapped layer inside a span. Invisible to the simulation — it adds no
/// events and no charges, and `as_any` forwards so
/// `cluster.layer_mut::<UgniLayer>()` still reaches the real layer.
///
/// Everything beneath the LRTS boundary (`ugni`, `gemini-net`, `mempool`,
/// `mpi-sim`) and core's `deliver_now` / `schedule` / `charge_*`
/// callbacks run inside these spans: the layer metrics are *subtree*
/// times and are named so.
pub struct TimedLayer {
    inner: Box<dyn MachineLayer>,
}

impl TimedLayer {
    pub fn new(inner: Box<dyn MachineLayer>) -> Self {
        TimedLayer { inner }
    }
}

impl MachineLayer for TimedLayer {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self.inner.as_any()
    }

    fn init(&mut self, ctx: &mut MachineCtx) {
        let _g = span::<true>(Op::LayerInit);
        self.inner.init(ctx)
    }

    fn sync_send(&mut self, ctx: &mut MachineCtx, src_pe: PeId, dst_pe: PeId, msg: Bytes) {
        let _g = span::<true>(Op::SyncSend);
        self.inner.sync_send(ctx, src_pe, dst_pe, msg)
    }

    fn on_event(&mut self, ctx: &mut MachineCtx, pe: PeId, ev: Box<dyn Any + Send>) {
        let _g = span::<true>(Op::OnEvent);
        self.inner.on_event(ctx, pe, ev)
    }

    fn lookahead(&self) -> sim_core::Time {
        self.inner.lookahead()
    }

    fn create_persistent(
        &mut self,
        ctx: &mut MachineCtx,
        src_pe: PeId,
        dst_pe: PeId,
        max_bytes: u64,
        handle: PersistentHandle,
    ) {
        let _g = span::<true>(Op::LayerOther);
        self.inner
            .create_persistent(ctx, src_pe, dst_pe, max_bytes, handle)
    }

    fn send_persistent(
        &mut self,
        ctx: &mut MachineCtx,
        handle: PersistentHandle,
        src_pe: PeId,
        dst_pe: PeId,
        msg: Bytes,
    ) {
        let _g = span::<true>(Op::LayerOther);
        self.inner.send_persistent(ctx, handle, src_pe, dst_pe, msg)
    }

    fn node_fault(&mut self, ctx: &mut MachineCtx, node: gemini_net::NodeId) {
        let _g = span::<true>(Op::LayerOther);
        self.inner.node_fault(ctx, node)
    }
}
