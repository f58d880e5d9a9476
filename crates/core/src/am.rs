//! Typed active messages with destination-batched small-message
//! aggregation (DESIGN.md §14).
//!
//! The Converse layer below this one is deliberately raw: handlers take an
//! [`Envelope`] and apps hand-roll byte packing per message. This module
//! adds the AM++/Charm++-style typed layer — register a handler once per
//! message *type* with [`Cluster::register_am`], send with
//! [`PeCtx::am_send`], and the runtime owns the encode/decode — and, under
//! it, the throughput feature the paper's SMSG economics beg for: small
//! AMs to the same destination are coalesced into one SMSG-sized buffer
//! and ride the wire as a single envelope, so the fixed per-message cost
//! (mailbox credit, CQ event, 32-byte header) is paid once per *batch*.
//!
//! A destination buffer is flushed when:
//!
//! * it cannot take the next AM without exceeding
//!   [`AmConfig::max_batch_bytes`] (the SMSG frame limit),
//! * or its per-destination flush timer expires — a normal scheduled
//!   event at a fixed virtual delay, so flushing is deterministic and
//!   bit-replayable at any thread count.
//!
//! Aggregation is opt-in per cluster ([`Cluster::am_config`]); with it off
//! (the default), `am_send` is byte-for-byte the plain [`PeCtx::send`] of
//! the same payload, which is what keeps every pre-existing virtual-time
//! pin (`tests/tests/common/pins.rs`) bit-identical.
//!
//! Charge discipline: the typed layer charges only `Kind::Overhead` time
//! (`PER_AM_SEND_NS` at append, `PER_AM_DISPATCH_NS` per constituent at
//! the receiver's sub-header walk, plus the one send overhead per flushed
//! batch); handler bodies charge their own `Kind::Busy` via
//! [`PeCtx::charge`] exactly as raw handlers do.
//!
//! Exactly-once under faults: each constituent carries the membership
//! epoch it was appended in. The batch envelope itself is a *system*
//! message (it survives the recovery queue filter like any control
//! message), but the receiver walk re-applies the stale-epoch drop per
//! constituent, and crash wipes / rollback-replay clear the coalescing
//! buffers on every affected PE — so a constituent AM is delivered exactly
//! as often as its unaggregated twin would have been.

use crate::cluster::{Cluster, PeCtx};
use crate::msg::{Envelope, HandlerId, PeId, DEFAULT_PRIO, INLINE_WIRE};
use bytes::Bytes;
use sim_core::Time;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Payload codec for a typed active message. Encoding appends straight to
/// the destination's coalescing buffer; decoding slices the batch
/// zero-copy.
pub trait AmData: Sized + 'static {
    fn encode(&self, out: &mut Vec<u8>);
    fn decode(b: Bytes) -> Self;

    /// Payload for the direct (unaggregated) path. The default routes
    /// through [`AmData::encode`]; `Bytes` overrides it to pass its
    /// buffer through untouched, so a typed port of a raw-`send` app has
    /// identical wire bytes *and* identical host-side copy behavior.
    fn into_direct(self) -> Bytes {
        let mut v = Vec::new();
        self.encode(&mut v);
        Bytes::from(v)
    }
}

impl AmData for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_b: Bytes) -> Self {}
    fn into_direct(self) -> Bytes {
        Bytes::new()
    }
}

impl AmData for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(b: Bytes) -> Self {
        u32::from_le_bytes(b[..4].try_into().expect("u32 AM payload"))
    }
}

impl AmData for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(b: Bytes) -> Self {
        u64::from_le_bytes(b[..8].try_into().expect("u64 AM payload"))
    }
}

impl AmData for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(b: Bytes) -> Self {
        f64::from_le_bytes(b[..8].try_into().expect("f64 AM payload"))
    }
}

impl AmData for (u64, u64) {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_le_bytes());
        out.extend_from_slice(&self.1.to_le_bytes());
    }
    fn decode(b: Bytes) -> Self {
        (
            u64::from_le_bytes(b[..8].try_into().expect("pair AM payload")),
            u64::from_le_bytes(b[8..16].try_into().expect("pair AM payload")),
        )
    }
}

impl<const N: usize> AmData for [u8; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
    fn decode(b: Bytes) -> Self {
        b[..N].try_into().expect("fixed-array AM payload")
    }
}

impl AmData for Bytes {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
    fn decode(b: Bytes) -> Self {
        b
    }
    fn into_direct(self) -> Bytes {
        self
    }
}

/// Handle returned by [`Cluster::register_am`]: the AM's slot in the
/// batch-dispatch table plus its dedicated Converse handler for the
/// direct path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AmId {
    pub(crate) idx: u16,
    pub(crate) h: HandlerId,
}

impl AmId {
    /// The plain Converse handler the direct (unaggregated) path uses.
    pub fn handler(&self) -> HandlerId {
        self.h
    }
}

/// Aggregation policy, set once before the run via [`Cluster::am_config`].
#[derive(Debug, Clone)]
pub struct AmConfig {
    /// Coalesce small same-destination AMs (default: off — `am_send` is
    /// then exactly a plain `send` of the encoded payload).
    pub aggregation: bool,
    /// Coalescing buffer capacity, batch framing included. Defaults to
    /// the SMSG frame size (1024 B) so a full batch always rides the
    /// small-message path; an AM whose framed size alone exceeds this
    /// bypasses aggregation entirely.
    pub max_batch_bytes: usize,
    /// Virtual-time bound on how long an appended AM may sit buffered
    /// before the per-destination flush timer fires.
    pub flush_delay_ns: Time,
}

impl Default for AmConfig {
    fn default() -> Self {
        AmConfig {
            aggregation: false,
            max_batch_bytes: 1024,
            flush_delay_ns: 5_000,
        }
    }
}

/// Overhead charged at append on the aggregated path, in place of the
/// per-message send overhead (paid once per batch instead).
const PER_AM_SEND_NS: Time = 30;

/// Overhead charged per constituent at the receiver's batch walk.
const PER_AM_DISPATCH_NS: Time = 40;

/// Idle coalescing buffers a PE keeps for reuse; a burst beyond it frees
/// the rest, so one cannot pin memory forever.
const FREE_BUFS: usize = 16;

/// Batch-payload op bytes: a dispatch envelope is either a batch of
/// constituent AMs or a per-destination flush-timer tick (self-send).
const OP_BATCH: u8 = 0;
const OP_TIMER: u8 = 1;

/// Per-constituent framing: `[am_idx u16][len u16][epoch u32]`, little
/// endian, followed by `len` payload bytes.
const SUBHDR: usize = 8;

/// Type-erased AM dispatch entry (the typed closure behind a decode). The
/// batch walk calls it through a borrow of the registry, never a clone.
type AmFn = Box<dyn Fn(&mut PeCtx, PeId, Bytes) + Send + Sync>;

/// Global (per-cluster) AM state: the dispatch table, the lazily
/// registered batch/timer Converse handler, and the aggregation policy.
/// Shared immutably by workers during parallel windows.
#[derive(Default)]
pub(crate) struct AmRegistry {
    pub(crate) handlers: Vec<AmFn>,
    pub(crate) dispatch: Option<HandlerId>,
    pub(crate) cfg: AmConfig,
}

/// One destination's coalescing buffer.
#[derive(Default)]
struct DstBuf {
    /// Framed batch bytes (`OP_BATCH` + constituent frames); empty when
    /// nothing is buffered (the backing `Vec` is then on the free list).
    data: Vec<u8>,
    /// Whether a flush-timer tick is already in flight for this
    /// destination (one timer per destination at a time).
    timer_armed: bool,
}

/// Per-PE AM state: destination buffers plus a free list of emptied
/// coalescing buffers. Lives in `PeCold`, wiped with the rest of volatile
/// PE state on crash and rollback. The free list is host memory only —
/// virtual time never observes it.
#[derive(Default)]
pub(crate) struct AmPe {
    /// BTreeMap so flush-all order is deterministic.
    bufs: BTreeMap<PeId, DstBuf>,
    /// Emptied buffers, capacity kept (a flush copies the batch into its
    /// wire block and keeps the buffer, so steady-state batching does not
    /// grow one per batch). At most [`FREE_BUFS`].
    free: Vec<Vec<u8>>,
}

impl AmPe {
    /// Drop all buffered constituents (node crash / rollback-replay):
    /// they were sent in the dying epoch and the replay re-sends them.
    pub(crate) fn wipe(&mut self) {
        self.bufs.clear();
    }
}

/// A batch buffer holding just the `OP_BATCH` byte: a recycled one when
/// `free` has any.
fn fresh_batch(free: &mut Vec<Vec<u8>>) -> Vec<u8> {
    let mut v = free.pop().unwrap_or_default();
    v.push(OP_BATCH);
    v
}

/// Keep an emptied buffer's allocation for the next batch.
fn recycle(free: &mut Vec<Vec<u8>>, mut v: Vec<u8>) {
    if free.len() < FREE_BUFS {
        v.clear();
        free.push(v);
    }
}

impl Cluster {
    /// Set the aggregation policy (call before `run`, like handler
    /// registration).
    pub fn am_config(&mut self, cfg: AmConfig) {
        self.am.cfg = cfg;
    }

    /// Register a typed active-message handler. The returned [`AmId`] is
    /// `Copy` and is all a sender needs: [`PeCtx::am_send`] encodes the
    /// typed value, the runtime routes it (directly or batched), and `f`
    /// runs at the destination with the decoded value and the source PE.
    pub fn register_am<T: AmData>(
        &mut self,
        f: impl Fn(&mut PeCtx, PeId, T) + Send + Sync + 'static,
    ) -> AmId {
        self.am_ensure_dispatch();
        let f = Arc::new(f);
        let g = f.clone();
        let idx = self.am.handlers.len();
        assert!(idx <= u16::MAX as usize, "too many registered AMs");
        self.am
            .handlers
            .push(Box::new(move |ctx, src, b| g(ctx, src, T::decode(b))));
        // The dedicated Converse handler carries the direct path: its wire
        // envelope is indistinguishable from a hand-rolled handler's.
        let h = self.register_handler(move |ctx, env| {
            let src = env.src_pe;
            f(ctx, src, T::decode(env.payload));
        });
        AmId { idx: idx as u16, h }
    }

    /// Register the shared batch/timer dispatch handler once, as a
    /// *system* handler: batches are transport framing, not application
    /// traffic — the stats and the membership-epoch gate account per
    /// constituent instead (in `am_send` and the batch walk).
    fn am_ensure_dispatch(&mut self) {
        if self.am.dispatch.is_some() {
            return;
        }
        let h = self.register_handler(am_dispatch);
        self.am.dispatch = Some(h);
        self.system_handlers.insert(h);
    }
}

impl PeCtx<'_> {
    /// Send a typed active message. Small AMs to remote destinations are
    /// coalesced when aggregation is on; self-sends, oversized AMs, and
    /// aggregation-off sends take the direct path (a plain [`PeCtx::send`]
    /// on the AM's dedicated handler — identical charges and wire bytes).
    /// An AM whose encoding does not fit a batch frame, or its `u16`
    /// length field, is oversized.
    pub fn am_send<T: AmData>(&mut self, dst: PeId, am: AmId, data: T) {
        let acfg = &self.am_reg.cfg;
        if !acfg.aggregation || dst == self.pe() {
            let payload = data.into_direct();
            return self.send(dst, am.h, payload);
        }
        let (max_batch, flush_delay) = (acfg.max_batch_bytes, acfg.flush_delay_ns);

        // Encode in place: the sub-header with a zero length, the value
        // straight behind it, then the length patched in.
        let epoch = self.epoch();
        let AmPe { bufs, free } = &mut self.cold().am;
        let buf = bufs.entry(dst).or_default();
        let fresh = buf.data.is_empty();
        if fresh {
            buf.data = fresh_batch(free);
        }
        let frame = buf.data.len();
        buf.data.extend_from_slice(&am.idx.to_le_bytes());
        buf.data.extend_from_slice(&[0, 0]);
        buf.data.extend_from_slice(&epoch.to_le_bytes());
        data.encode(&mut buf.data);
        let len = buf.data.len() - frame - SUBHDR;
        if 1 + SUBHDR + len > max_batch || len > u16::MAX as usize {
            // Oversized: restore the buffer as it was, then direct send.
            buf.data.truncate(frame);
            if fresh {
                recycle(free, std::mem::take(&mut buf.data));
            }
            return self.send(dst, am.h, data.into_direct());
        }
        buf.data[frame + 2..frame + 4].copy_from_slice(&(len as u16).to_le_bytes());

        // Size-triggered flush, so a batch never exceeds the SMSG frame:
        // the new frame moves alone into a fresh buffer and what was
        // buffered before it is sent.
        let full = (buf.data.len() > max_batch).then(|| {
            let mut next = fresh_batch(free);
            next.extend_from_slice(&buf.data[frame..]);
            buf.data.truncate(frame);
            std::mem::replace(&mut buf.data, next)
        });
        let arm = !buf.timer_armed;
        buf.timer_armed = true;
        if let Some(batch) = full {
            self.am_flush_batch(dst, batch);
        }

        // Constituent-level accounting: the batch envelope is system
        // traffic, so the stats count the AM itself here.
        self.charged_ovh += PER_AM_SEND_NS;
        self.stats.am_agg_sent += 1;

        if arm {
            // One timer tick per destination at a time: a fixed virtual
            // delay from the arming append, scheduled like any other
            // event, so flush points are bit-replayable.
            let dispatch = self.am_reg.dispatch.expect("am dispatch registered");
            let mut tp = [OP_TIMER; 5];
            tp[1..].copy_from_slice(&dst.to_le_bytes());
            let me = self.pe();
            self.send_after_prio(flush_delay, me, dispatch, &tp[..], DEFAULT_PRIO);
        }
    }

    /// Flush one destination's buffer, if it holds anything.
    fn am_flush_dst(&mut self, dst: PeId) {
        let data = match self.cold().am.bufs.get_mut(&dst) {
            Some(buf) if !buf.data.is_empty() => std::mem::take(&mut buf.data),
            _ => return,
        };
        self.am_flush_batch(dst, data);
    }

    /// Send one framed batch as a single envelope on the dispatch handler.
    /// A batch up to the encode's inline limit (1 KiB; the default
    /// `max_batch_bytes` is 1024) is copied into the wire block straight
    /// from the coalescing buffer, which is then kept for the next batch:
    /// one allocation per batch. A larger batch rides shared behind the
    /// header, and its vector with it.
    fn am_flush_batch(&mut self, dst: PeId, data: Vec<u8>) {
        debug_assert_ne!(dst, self.pe(), "self-sends never aggregate");
        let dispatch = self.am_reg.dispatch.expect("am dispatch registered");
        self.stats.am_batches += 1;
        if data.len() <= INLINE_WIRE {
            self.send_prio(dst, dispatch, &data[..], DEFAULT_PRIO);
            recycle(&mut self.cold().am.free, data);
        } else {
            self.send_prio(dst, dispatch, Bytes::from(data), DEFAULT_PRIO);
        }
    }
}

/// The sub-header of the frame at `o`: `(am_idx, payload length, epoch)`.
#[inline]
fn subheader(p: &[u8], o: usize) -> (u16, usize, u32) {
    let h = &p[o..o + SUBHDR];
    (
        u16::from_le_bytes([h[0], h[1]]),
        u16::from_le_bytes([h[2], h[3]]) as usize,
        u32::from_le_bytes([h[4], h[5], h[6], h[7]]),
    )
}

/// The Converse handler behind every batch envelope and flush-timer tick.
/// Worker-pure: everything it touches is per-PE state reached through
/// `PeCtx`, and its sends go through the buffered outbox.
pub(crate) fn am_dispatch(ctx: &mut PeCtx, env: Envelope) {
    let p: &[u8] = &env.payload;
    match p[0] {
        OP_TIMER => {
            let dst = PeId::from_le_bytes(p[1..5].try_into().expect("timer payload"));
            if let Some(buf) = ctx.cold().am.bufs.get_mut(&dst) {
                buf.timer_armed = false;
            }
            ctx.am_flush_dst(dst);
        }
        OP_BATCH => {
            // Validate the framing first, so a malformed batch panics
            // before any constituent runs.
            let mut o = 1;
            while o + SUBHDR <= p.len() {
                o += SUBHDR + subheader(p, o).1;
            }
            assert_eq!(o, p.len(), "malformed AM batch framing");
            // Then dispatch, re-reading the sub-headers. `reg` is a copy of
            // the context's registry reference, so calling a handler through
            // it borrows neither `ctx` (constituents may re-enter `am_send`)
            // nor a reference count.
            let reg = ctx.am_reg;
            let cur = ctx.epoch();
            let mut o = 1;
            while o < p.len() {
                let (idx, len, am_epoch) = subheader(p, o);
                let a = o + SUBHDR;
                o = a + len;
                if am_epoch < cur {
                    // Stale-epoch drop per constituent (exactly-once under
                    // rollback-replay), mirroring the driver's gate for
                    // unaggregated messages.
                    ctx.stats.ft_stale_drops += 1;
                    continue;
                }
                ctx.charged_ovh += PER_AM_DISPATCH_NS;
                (reg.handlers[idx as usize])(ctx, env.src_pe, env.payload.slice(a..o));
            }
        }
        op => panic!("unknown AM dispatch op {op}"),
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_types,
    reason = "handlers hand results back through shared cells"
)]
mod tests {
    use super::*;
    use crate::cluster::ClusterCfg;
    use crate::ideal::IdealLayer;

    fn cluster(pes: u32) -> Cluster {
        Cluster::new(ClusterCfg::new(pes, 2), Box::new(IdealLayer::new(1_000)))
    }

    /// Per-PE test state: a running sum and a message count.
    #[derive(Default)]
    struct St {
        sum: u64,
        n: u64,
        from: Vec<PeId>,
    }

    fn sum_app(c: &mut Cluster, agg: bool, sends_per_pe: u64) -> (u64, u64, Time) {
        c.am_config(AmConfig {
            aggregation: agg,
            ..AmConfig::default()
        });
        c.init_user(|_| St::default());
        let bump = c.register_am::<u64>(|ctx, src, v| {
            let st = ctx.user::<St>();
            st.sum += v;
            st.n += 1;
            st.from.push(src);
        });
        let kick = c.register_handler(move |ctx, _| {
            let n = ctx.num_pes();
            for i in 0..sends_per_pe {
                let dst = (ctx.pe() + 1 + (i as u32 % (n - 1))) % n;
                ctx.am_send(dst, bump, i);
            }
        });
        for pe in 0..c.cfg.num_pes {
            c.inject(0, pe, kick, Bytes::new());
        }
        let r = c.run();
        let (mut sum, mut n) = (0, 0);
        for pe in 0..c.cfg.num_pes {
            let st = c.user::<St>(pe);
            sum += st.sum;
            n += st.n;
        }
        (sum, n, r.end_time)
    }

    #[test]
    fn typed_round_trip_direct() {
        let mut c = cluster(4);
        let (sum, n, _) = sum_app(&mut c, false, 10);
        assert_eq!(n, 40);
        assert_eq!(sum, 4 * (0..10).sum::<u64>());
        assert_eq!(c.stats().am_agg_sent, 0);
        assert_eq!(c.stats().am_batches, 0);
    }

    #[test]
    fn aggregated_run_same_results_fewer_envelopes_less_virtual_time() {
        let mut direct = cluster(4);
        let (ds, dn, dv) = sum_app(&mut direct, false, 50);
        let mut agg = cluster(4);
        let (asum, an, av) = sum_app(&mut agg, true, 50);
        assert_eq!((asum, an), (ds, dn), "aggregation changed app results");
        assert!(agg.stats().am_batches > 0, "nothing was batched");
        assert_eq!(agg.stats().am_agg_sent, 200);
        assert!(
            agg.stats().msgs_sent < direct.stats().msgs_sent,
            "batching must shrink envelope count: {} vs {}",
            agg.stats().msgs_sent,
            direct.stats().msgs_sent
        );
        assert!(
            av < dv,
            "many small AMs must finish earlier aggregated: {av} vs {dv}"
        );
    }

    #[test]
    fn aggregated_src_pe_is_preserved_per_constituent() {
        let mut c = cluster(3);
        c.am_config(AmConfig {
            aggregation: true,
            ..AmConfig::default()
        });
        c.init_user(|_| St::default());
        let h = c.register_am::<u64>(|ctx, src, v| {
            assert_eq!(v as u32, src, "payload encodes the true sender");
            ctx.user::<St>().n += 1;
        });
        let kick = c.register_handler(move |ctx, _| {
            for _ in 0..4 {
                ctx.am_send(2, h, ctx.pe() as u64);
            }
        });
        c.inject(0, 0, kick, Bytes::new());
        c.inject(0, 1, kick, Bytes::new());
        c.run();
        assert_eq!(c.user::<St>(2).n, 8);
    }

    #[test]
    fn size_limit_splits_batches() {
        let mut c = cluster(2);
        c.am_config(AmConfig {
            aggregation: true,
            max_batch_bytes: 64, // 3 u64 frames (16 B each) per batch
            flush_delay_ns: 1_000_000,
        });
        c.init_user(|_| St::default());
        let h = c.register_am::<u64>(|ctx, _, _| ctx.user::<St>().n += 1);
        let kick = c.register_handler(move |ctx, _| {
            for i in 0..10u64 {
                ctx.am_send(1, h, i);
            }
        });
        c.inject(0, 0, kick, Bytes::new());
        c.run();
        assert_eq!(c.user::<St>(1).n, 10);
        // 10 frames at 3 per batch: three full flushes plus the timer tail.
        assert_eq!(c.stats().am_batches, 4);
    }

    /// PE 0 sends PE 1 one `Bytes` AM of each size in `sizes`; PE 1's
    /// handler counts them and sums their lengths. Returns the cluster,
    /// the count and the sum.
    fn bytes_to_pe1(cfg: AmConfig, sizes: &'static [usize]) -> (Cluster, u64, u64) {
        let mut c = cluster(2);
        c.am_config(cfg);
        c.init_user(|_| St::default());
        let h = c.register_am::<Bytes>(|ctx, _, b| {
            ctx.user::<St>().sum += b.len() as u64;
            ctx.user::<St>().n += 1;
        });
        let kick = c.register_handler(move |ctx, _| {
            for &n in sizes {
                ctx.am_send(1, h, Bytes::from(vec![7u8; n]));
            }
        });
        c.inject(0, 0, kick, Bytes::new());
        c.run();
        let st = c.user::<St>(1);
        let (n, sum) = (st.n, st.sum);
        (c, n, sum)
    }

    #[test]
    fn oversized_am_takes_the_direct_path() {
        let cfg = AmConfig {
            aggregation: true,
            max_batch_bytes: 32,
            ..AmConfig::default()
        };
        let (c, n, sum) = bytes_to_pe1(cfg, &[100, 4]);
        assert_eq!((n, sum), (2, 104));
        assert_eq!(c.stats().am_agg_sent, 1, "only the small AM aggregates");
    }

    #[test]
    fn a_length_past_the_u16_field_takes_the_direct_path() {
        // The batch limit alone would admit it; the frame's length field
        // would not.
        let cfg = AmConfig {
            aggregation: true,
            max_batch_bytes: 200_000,
            ..AmConfig::default()
        };
        let (c, n, sum) = bytes_to_pe1(cfg, &[70_000]);
        assert_eq!((n, sum), (1, 70_000));
        assert_eq!(c.stats().am_agg_sent, 0);
        assert_eq!(c.stats().am_batches, 0);
    }

    #[test]
    fn an_oversized_am_between_small_ones_leaves_their_batch_intact() {
        // The oversized AM is encoded into the buffer behind the first
        // small one before it is known to be oversized; the buffer must
        // come back exactly as it was.
        let cfg = AmConfig {
            aggregation: true,
            max_batch_bytes: 64,
            ..AmConfig::default()
        };
        let (c, n, sum) = bytes_to_pe1(cfg, &[4, 100, 5]);
        assert_eq!((n, sum), (3, 109));
        assert_eq!(c.stats().am_agg_sent, 2);
        assert_eq!(c.stats().am_batches, 1);
    }

    #[test]
    fn a_batch_whose_last_frame_overruns_runs_no_constituent() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let mut c = cluster(2);
        let h = c.register_am::<u64>(|_, _, _| {
            RUNS.fetch_add(1, Ordering::Relaxed);
        });
        let frame = |len: u16, payload: &[u8]| {
            let mut f = h.idx.to_le_bytes().to_vec();
            f.extend_from_slice(&len.to_le_bytes());
            f.extend_from_slice(&0u32.to_le_bytes());
            f.extend_from_slice(payload);
            f
        };
        let mut batch = vec![OP_BATCH];
        batch.extend(frame(8, &1u64.to_le_bytes()));
        batch.extend(frame(9, &2u64.to_le_bytes())); // one byte short
        let dispatch = c.am.dispatch.expect("registered with the AM");
        c.inject(0, 1, dispatch, Bytes::from(batch));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.run()))
            .expect_err("an overrunning frame must panic");
        let msg = err.downcast_ref::<String>().map_or("", |s| s.as_str());
        assert!(msg.contains("malformed AM batch framing"), "{msg}");
        assert_eq!(RUNS.load(Ordering::Relaxed), 0, "a constituent ran");
    }

    #[test]
    fn timer_drains_a_sub_threshold_buffer() {
        let mut c = cluster(2);
        c.am_config(AmConfig {
            aggregation: true,
            ..AmConfig::default()
        });
        c.init_user(|_| St::default());
        let h = c.register_am::<u64>(|ctx, _, v| ctx.user::<St>().sum += v);
        let kick = c.register_handler(move |ctx, _| {
            ctx.am_send(1, h, 41u64);
            ctx.am_send(1, h, 1u64);
        });
        c.inject(0, 0, kick, Bytes::new());
        let r = c.run();
        assert_eq!(c.user::<St>(1).sum, 42, "timer flush never fired");
        assert_eq!(c.stats().am_batches, 1);
        assert!(r.end_time > 5_000, "flush waited out the timer delay");
    }

    #[test]
    fn self_sends_and_aggregation_off_are_plain_sends() {
        // Bit-identical end times: am_send with aggregation off vs the
        // hand-rolled handler it replaces.
        let run = |typed: bool| {
            let mut c = cluster(4);
            c.init_user(|_| St::default());
            if typed {
                let h = c.register_am::<u64>(|ctx, _, v| ctx.user::<St>().sum += v);
                let kick = c.register_handler(move |ctx, _| {
                    ctx.am_send(ctx.pe(), h, 7u64); // self-send
                    ctx.am_send((ctx.pe() + 1) % 4, h, 9u64);
                });
                c.inject(0, 0, kick, Bytes::new());
            } else {
                // The hand-rolled equivalent: dispatch handler first so the
                // handler-id layout matches register_am's.
                let _dispatch_slot = c.register_handler(|_, _| {});
                let h = c.register_handler(|ctx, env| {
                    let v = u64::from_le_bytes(env.payload[..8].try_into().unwrap());
                    ctx.user::<St>().sum += v;
                });
                let kick = c.register_handler(move |ctx, _| {
                    ctx.send(ctx.pe(), h, crate::msg::wire::pack_u64s(&[7]));
                    ctx.send((ctx.pe() + 1) % 4, h, crate::msg::wire::pack_u64s(&[9]));
                });
                c.inject(0, 0, kick, Bytes::new());
            }
            let r = c.run();
            (
                r.end_time,
                r.stats.events,
                c.user::<St>(0).sum + c.user::<St>(1).sum,
            )
        };
        assert_eq!(run(true), run(false));
    }
}
