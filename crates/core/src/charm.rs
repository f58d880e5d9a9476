//! The Charm layer: indexed collections of migratable objects (chare
//! arrays) with asynchronous entry-method invocation, spanning-tree
//! broadcast, and tree reductions (paper §III-A).
//!
//! Objects are `Box<dyn Any>` states owned by the runtime and placed
//! round-robin over PEs. An entry-method send is an ordinary Converse
//! message to the owning PE carrying a small Charm sub-header; handler 0
//! ([`CHARM_HANDLER`]) decodes it and invokes the registered entry function
//! on the addressed element — active messages, exactly as the paper
//! describes the model.

use crate::cluster::{Cluster, PeCtx};
use crate::msg::{Envelope, HandlerId, PeId};
use bytes::{BufMut, Bytes, BytesMut};
use sim_core::DetHashMap;
use std::any::Any;
use std::sync::Arc;

/// The reserved Converse handler that dispatches all Charm traffic.
pub const CHARM_HANDLER: HandlerId = HandlerId(0);

/// Fan-out of the PE spanning tree used for broadcast and reductions.
pub(crate) const TREE_ARITY: u32 = 4;

/// A chare array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayId(pub(crate) u16);

/// An entry method of some array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EntryId(pub(crate) u16);

/// Reduction combiner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedOp {
    Sum = 0,
    Min = 1,
    Max = 2,
}

impl RedOp {
    fn combine(self, acc: &mut [f64], vals: &[f64]) {
        assert_eq!(acc.len(), vals.len(), "reduction arity mismatch");
        for (a, v) in acc.iter_mut().zip(vals) {
            match self {
                RedOp::Sum => *a += v,
                RedOp::Min => *a = a.min(*v),
                RedOp::Max => *a = a.max(*v),
            }
        }
    }

    fn from_id(b: u8) -> Option<Self> {
        match b {
            0 => Some(RedOp::Sum),
            1 => Some(RedOp::Min),
            2 => Some(RedOp::Max),
            _ => None,
        }
    }
}

type EntryFn = Arc<dyn Fn(&mut PeCtx, &mut dyn Any, u64, Bytes) + Send + Sync>;

struct ArrayDef {
    /// Reduction client: (handler, pe) receiving finished reductions.
    red_client: Option<(HandlerId, PeId)>,
    /// PEs owning at least one element, sorted. The reduction tree spans
    /// exactly these (a PE with no elements never contributes, so it must
    /// not appear in the tree).
    participants: Vec<PeId>,
}

struct EntryDef {
    array: ArrayId,
    f: EntryFn,
}

/// Element routing indirection: an element whose round-robin home is PE
/// `h` currently lives on `route.get(h)`. Identity until a
/// redistribute-mode crash recovery folds a dead PE's elements onto the
/// PE holding their buddy checkpoint — so only the (rare) redirected
/// homes are stored, not an O(num_pes) identity vector. A million-PE
/// machine that never crashes routes through an empty map.
#[derive(Default, Debug)]
pub(crate) struct RouteMap {
    overrides: std::collections::BTreeMap<PeId, PeId>,
}

impl RouteMap {
    /// Where the element homed at `h` currently lives.
    pub(crate) fn get(&self, home: PeId) -> PeId {
        self.overrides.get(&home).copied().unwrap_or(home)
    }

    /// Redirect `home`'s elements to `dst` (identity writes erase the
    /// override, keeping the map proportional to live redirections).
    pub(crate) fn set(&mut self, home: PeId, dst: PeId) {
        if dst == home {
            self.overrides.remove(&home);
        } else {
            self.overrides.insert(home, dst);
        }
    }
}

/// Global (pre-run) Charm registrations.
#[derive(Default)]
pub(crate) struct CharmRegistry {
    arrays: Vec<ArrayDef>,
    entries: Vec<EntryDef>,
    /// Element routing indirection (see [`RouteMap`]).
    pub(crate) route: RouteMap,
    /// True once any element has moved off its home PE: broadcasts then
    /// switch from the PE spanning tree (which may contain dead PEs) to
    /// direct sends from the root.
    pub(crate) relocated: bool,
}

impl CharmRegistry {
    /// Fold every participant list through [`CharmRegistry::route`] after a
    /// redistribute recovery: dead PEs' entries collapse onto the PEs that
    /// adopted their elements.
    pub(crate) fn remap_participants(&mut self) {
        for a in &mut self.arrays {
            for p in &mut a.participants {
                *p = self.route.get(*p);
            }
            a.participants.sort_unstable();
            a.participants.dedup();
        }
    }
}

/// Per-PE Charm runtime state.
#[derive(Default)]
pub(crate) struct CharmPe {
    /// Element states; `Option` so dispatch can take one out while the
    /// entry runs (an entry may send to a co-located element).
    elements: DetHashMap<(u16, u64), Option<Box<dyn Any + Send>>>,
    /// Elements living on this PE, per array.
    local_count: DetHashMap<u16, u64>,
    /// In-flight reduction partials keyed by (array, wave).
    reductions: DetHashMap<(u16, u64), RedState>,
    /// Next local contribution wave per array.
    local_wave: DetHashMap<u16, u64>,
}

struct RedState {
    contributed: u64,
    children_reported: u32,
    acc: Option<Vec<f64>>,
    op: RedOp,
}

impl CharmPe {
    /// Number of elements of `aid` on this PE.
    pub(crate) fn local_elements(&self, aid: ArrayId) -> u64 {
        self.local_count.get(&aid.0).copied().unwrap_or(0)
    }

    /// Drop all volatile Charm state (node crash, or rollback before a
    /// checkpoint restore).
    pub(crate) fn wipe(&mut self) {
        self.elements.clear();
        self.local_count.clear();
        self.reductions.clear();
        self.local_wave.clear();
    }

    /// Sorted `(array, index)` keys of every element on this PE
    /// (checkpoint order must not depend on hash order).
    #[expect(
        clippy::disallowed_methods,
        reason = "the keys are sorted before they leave"
    )]
    pub(crate) fn element_keys(&self) -> Vec<(u16, u64)> {
        let mut keys: Vec<(u16, u64)> = self.elements.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Borrow an element's state for checkpoint serialization.
    pub(crate) fn element_state(&self, key: (u16, u64)) -> &dyn Any {
        match self.elements.get(&key) {
            Some(Some(state)) => state.as_ref(),
            // panic-ok: checkpointing an unregistered element is a code bug
            _ => panic!("checkpoint of missing element {key:?}"),
        }
    }

    /// Install (or adopt) an element restored from a checkpoint.
    pub(crate) fn insert_element(&mut self, key: (u16, u64), state: Box<dyn Any + Send>) {
        if self.elements.insert(key, Some(state)).is_none() {
            *self.local_count.entry(key.0).or_insert(0) += 1;
        }
    }

    /// Sorted per-array local reduction wave counters (the app-level
    /// in-flight sequence numbers a checkpoint must capture).
    #[expect(
        clippy::disallowed_methods,
        reason = "the counters are sorted before they leave"
    )]
    pub(crate) fn wave_snapshot(&self) -> Vec<(u16, u64)> {
        let mut waves: Vec<(u16, u64)> =
            self.local_wave.iter().map(|(aid, w)| (*aid, *w)).collect();
        waves.sort_unstable();
        waves
    }

    /// Merge a checkpointed wave counter back in. Max-merge: when a PE
    /// adopts a dead PE's elements their counters agree at the checkpoint's
    /// consistent point, and max keeps a later local value from regressing.
    pub(crate) fn merge_wave(&mut self, aid: u16, wave: u64) {
        let w = self.local_wave.entry(aid).or_insert(0);
        *w = (*w).max(wave);
    }

    /// Discard in-flight reduction partials (rollback: contributions will
    /// be regenerated by replay from the checkpoint).
    pub(crate) fn clear_reductions(&mut self) {
        self.reductions.clear();
    }
}

/// Round-robin element placement.
pub(crate) fn home_pe(idx: u64, num_pes: u32) -> PeId {
    (idx % num_pes as u64) as PeId
}

fn tree_parent(pe: PeId) -> PeId {
    (pe - 1) / TREE_ARITY
}

fn tree_children(pe: PeId, num_pes: u32) -> impl Iterator<Item = PeId> {
    (1..=TREE_ARITY)
        .map(move |i| pe * TREE_ARITY + i)
        .filter(move |&c| c < num_pes)
}

// ---- wire format of Charm sub-messages (Envelope payload) ----
const OP_ENTRY: u8 = 0;
const OP_BCAST: u8 = 1;
const OP_REDUCE: u8 = 2;
const OP_BCAST_DIRECT: u8 = 3;

/// One Charm sub-message, the payload [`CHARM_HANDLER`] dispatches: an
/// opcode byte and big-endian ids, then the user payload or, for a
/// reduction partial, little-endian `f64`s.
#[derive(Debug, PartialEq)]
enum Frame {
    /// Entry `EntryId` on element `u64` of the array (13-byte header).
    Entry(ArrayId, EntryId, u64, Bytes),
    /// A broadcast (5-byte header). `true` marks a leg the root sends
    /// point-to-point to one participating PE, which does not forward it:
    /// after a redistribute recovery the PE spanning tree may run through
    /// dead PEs.
    Bcast(ArrayId, EntryId, bool, Bytes),
    /// A child PE's partial for reduction wave `u64` (12-byte header).
    Reduce(ArrayId, u64, RedOp, Vec<f64>),
}

/// Why [`Frame::decode`] refused a payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameError {
    /// Shorter than its opcode's header of this many bytes.
    Short(usize),
    /// A reduction partial whose values are not whole `f64`s.
    Ragged,
    BadOpcode(u8),
    BadRedOp(u8),
}

/// The first `N` bytes of `p`, or [`FrameError::Short`].
fn head<const N: usize>(p: &[u8]) -> Result<[u8; N], FrameError> {
    p.first_chunk().copied().ok_or(FrameError::Short(N))
}

impl Frame {
    fn encode(&self) -> Bytes {
        let mut b;
        match self {
            Frame::Entry(aid, eid, idx, user) => {
                b = BytesMut::with_capacity(13 + user.len());
                b.put_u8(OP_ENTRY);
                b.put_u16(aid.0);
                b.put_u16(eid.0);
                b.put_u64(*idx);
                b.put_slice(user);
            }
            Frame::Bcast(aid, eid, direct, user) => {
                b = BytesMut::with_capacity(5 + user.len());
                b.put_u8(if *direct { OP_BCAST_DIRECT } else { OP_BCAST });
                b.put_u16(aid.0);
                b.put_u16(eid.0);
                b.put_slice(user);
            }
            Frame::Reduce(aid, wave, op, vals) => {
                b = BytesMut::with_capacity(14 + vals.len() * 8);
                b.put_u8(OP_REDUCE);
                b.put_u16(aid.0);
                b.put_u64(*wave);
                b.put_u8(*op as u8);
                for v in vals {
                    b.put_f64_le(*v);
                }
            }
        }
        b.freeze()
    }

    /// The frame `p` holds; a user payload is a slice of `p`, not a copy.
    fn decode(p: &Bytes) -> Result<Frame, FrameError> {
        let id = |hi, lo| u16::from_be_bytes([hi, lo]);
        match head(p)? {
            [OP_ENTRY] => {
                let [_, a0, a1, e0, e1, idx @ ..] = head::<13>(p)?;
                let (aid, eid) = (ArrayId(id(a0, a1)), EntryId(id(e0, e1)));
                let idx = u64::from_be_bytes(idx);
                Ok(Frame::Entry(aid, eid, idx, p.slice(13..)))
            }
            [op @ (OP_BCAST | OP_BCAST_DIRECT)] => {
                let [_, a0, a1, e0, e1] = head(p)?;
                let (aid, eid) = (ArrayId(id(a0, a1)), EntryId(id(e0, e1)));
                Ok(Frame::Bcast(aid, eid, op == OP_BCAST_DIRECT, p.slice(5..)))
            }
            [OP_REDUCE] => {
                let [_, a0, a1, wave @ .., op] = head::<12>(p)?;
                let op = RedOp::from_id(op).ok_or(FrameError::BadRedOp(op))?;
                let (vals, []) = p[12..].as_chunks() else {
                    return Err(FrameError::Ragged);
                };
                let vals = vals.iter().map(|v| f64::from_le_bytes(*v)).collect();
                let (aid, wave) = (ArrayId(id(a0, a1)), u64::from_be_bytes(wave));
                Ok(Frame::Reduce(aid, wave, op, vals))
            }
            [op] => Err(FrameError::BadOpcode(op)),
        }
    }
}

impl Cluster {
    /// Create a chare array of `n` elements; `ctor(idx)` builds each
    /// element's state on its home PE.
    pub fn create_array<T: Send + 'static>(
        &mut self,
        n: u64,
        mut ctor: impl FnMut(u64) -> T,
    ) -> ArrayId {
        let aid = ArrayId(self.charm.arrays.len() as u16);
        let num_pes = self.cfg.num_pes;
        let mut participants: Vec<PeId> = Vec::new();
        for idx in 0..n {
            let pe = home_pe(idx, num_pes);
            let st = &mut self.pes.get_mut(pe as usize).cold_mut().charm;
            st.elements.insert((aid.0, idx), Some(Box::new(ctor(idx))));
            *st.local_count.entry(aid.0).or_insert(0) += 1;
            if !participants.contains(&pe) {
                participants.push(pe);
            }
        }
        participants.sort_unstable();
        self.charm.arrays.push(ArrayDef {
            red_client: None,
            participants,
        });
        aid
    }

    /// Register an entry method for `aid`. The closure receives the PE
    /// context, the element state, the element index, and the payload.
    pub fn register_entry<T: Send + 'static>(
        &mut self,
        aid: ArrayId,
        f: impl Fn(&mut PeCtx, &mut T, u64, Bytes) + Send + Sync + 'static,
    ) -> EntryId {
        let eid = EntryId(self.charm.entries.len() as u16);
        self.charm.entries.push(EntryDef {
            array: aid,
            f: Arc::new(move |ctx, any, idx, payload| {
                let t = any.downcast_mut::<T>().expect("element state type");
                f(ctx, t, idx, payload)
            }),
        });
        eid
    }

    /// Route finished reductions of `aid` to `(handler, pe)`.
    pub fn set_reduction_client(&mut self, aid: ArrayId, handler: HandlerId, pe: PeId) {
        self.charm.arrays[aid.0 as usize].red_client = Some((handler, pe));
    }

    /// Kick an entry method from outside the simulation (mainchare-style),
    /// at virtual time `at`.
    pub fn inject_entry(
        &mut self,
        at: sim_core::Time,
        aid: ArrayId,
        idx: u64,
        entry: EntryId,
        payload: Bytes,
    ) {
        let pe = self.charm.route.get(home_pe(idx, self.cfg.num_pes));
        let frame = Frame::Entry(aid, entry, idx, payload);
        self.inject(at, pe, CHARM_HANDLER, frame.encode());
    }

    /// Inject a broadcast from outside the simulation.
    pub fn inject_broadcast(
        &mut self,
        at: sim_core::Time,
        aid: ArrayId,
        entry: EntryId,
        payload: Bytes,
    ) {
        let frame = Frame::Bcast(aid, entry, false, payload);
        self.inject(at, 0, CHARM_HANDLER, frame.encode());
    }

    /// Read an element's state after a run.
    pub fn element<T: 'static>(&self, aid: ArrayId, idx: u64) -> &T {
        let pe = self.charm.route.get(home_pe(idx, self.cfg.num_pes));
        self.pes
            .get(pe as usize)
            .cold()
            .and_then(|cold| cold.charm.elements.get(&(aid.0, idx)))
            .expect("no such element")
            .as_ref()
            .expect("element taken")
            .downcast_ref()
            .expect("element type mismatch")
    }
}

impl PeCtx<'_> {
    /// Asynchronous entry-method invocation on element `idx` of `aid`.
    pub fn charm_send(&mut self, aid: ArrayId, idx: u64, entry: EntryId, payload: Bytes) {
        let pe = self.charm_reg.route.get(home_pe(idx, self.num_pes()));
        let frame = Frame::Entry(aid, entry, idx, payload);
        self.send(pe, CHARM_HANDLER, frame.encode());
    }

    /// Broadcast an entry-method invocation to every element of `aid`
    /// (spanning tree over PEs, then local fan-out).
    pub fn charm_broadcast(&mut self, aid: ArrayId, entry: EntryId, payload: Bytes) {
        // Route to the tree root; it forwards.
        let frame = Frame::Bcast(aid, entry, false, payload);
        self.send(0, CHARM_HANDLER, frame.encode());
    }

    /// Contribute this element's share of the current reduction wave.
    /// When every element of `aid` has contributed, the combined vector is
    /// delivered to the array's reduction client.
    pub fn contribute(&mut self, aid: ArrayId, vals: &[f64], op: RedOp) {
        let local = self.cold().charm.local_elements(aid);
        assert!(local > 0, "contribute from a PE with no elements");
        let wave = *self.cold().charm.local_wave.entry(aid.0).or_insert(0);
        red_accumulate(self, aid, wave, op, vals, true);
    }
}

/// Fold a contribution (local element or child partial) into this PE's
/// reduction state, flushing up the tree when complete.
fn red_accumulate(
    ctx: &mut PeCtx<'_>,
    aid: ArrayId,
    wave: u64,
    op: RedOp,
    vals: &[f64],
    from_local_element: bool,
) {
    let pe = ctx.pe();
    // Tree over participating PEs (ranks in the sorted participant list).
    let participants = &ctx.charm_reg.arrays[aid.0 as usize].participants;
    let n_parts = participants.len() as u32;
    let rank = participants
        .binary_search(&pe)
        .expect("reduction message on a PE with no elements") as u32;
    let n_children = tree_children(rank, n_parts).count() as u32;
    let parent_pe = if rank == 0 {
        None
    } else {
        Some(participants[tree_parent(rank) as usize])
    };
    let local_needed = ctx.cold().charm.local_elements(aid);

    let st = ctx
        .cold()
        .charm
        .reductions
        .entry((aid.0, wave))
        .or_insert(RedState {
            contributed: 0,
            children_reported: 0,
            acc: None,
            op,
        });
    debug_assert_eq!(st.op, op, "mixed reduction ops in one wave");
    match &mut st.acc {
        None => st.acc = Some(vals.to_vec()),
        Some(acc) => op.combine(acc, vals),
    }
    if from_local_element {
        st.contributed += 1;
    } else {
        st.children_reported += 1;
    }
    let done = st.contributed == local_needed && st.children_reported == n_children;
    if !done {
        return;
    }
    let acc = ctx
        .cold()
        .charm
        .reductions
        .remove(&(aid.0, wave))
        .and_then(|s| s.acc)
        .expect("finished reduction with no accumulator");
    // This PE's wave is finished; advance the local wave counter so the
    // next contribute() call on this PE opens the following wave.
    let w = ctx.cold().charm.local_wave.entry(aid.0).or_insert(0);
    if *w == wave {
        *w = wave + 1;
    }
    match parent_pe {
        None => {
            // Root: deliver to the client.
            let (handler, target) = ctx.charm_reg.arrays[aid.0 as usize]
                .red_client
                .expect("reduction finished but no client registered");
            let mut b = BytesMut::with_capacity(8 + acc.len() * 8);
            b.put_u64_le(wave);
            for v in &acc {
                b.put_f64_le(*v);
            }
            ctx.send(target, handler, b.freeze());
        }
        Some(parent) => {
            let frame = Frame::Reduce(aid, wave, op, acc);
            ctx.send(parent, CHARM_HANDLER, frame.encode());
        }
    }
}

/// The Converse handler behind [`CHARM_HANDLER`].
pub(crate) fn dispatch(ctx: &mut PeCtx, env: Envelope) {
    let frame = Frame::decode(&env.payload);
    match frame.unwrap_or_else(|e| panic!("malformed charm frame: {e:?}")) {
        Frame::Entry(aid, eid, idx, user) => invoke_entry(ctx, aid, eid, idx, user),
        Frame::Bcast(aid, eid, direct, user) => {
            // A root's point-to-point leg (`direct`) is not forwarded.
            if !direct && ctx.charm_reg.relocated {
                // After a redistribute recovery the PE spanning tree may
                // run through dead PEs: fan out directly to every
                // participating PE instead.
                let me = ctx.pe();
                let parts = ctx.charm_reg.arrays[aid.0 as usize].participants.clone();
                let leg = Frame::Bcast(aid, eid, true, user.clone()).encode();
                for pe in parts {
                    if pe != me {
                        ctx.send(pe, CHARM_HANDLER, leg.clone());
                    }
                }
            } else if !direct {
                // Forward down the PE spanning tree.
                for child in tree_children(ctx.pe(), ctx.num_pes()) {
                    ctx.send(child, CHARM_HANDLER, env.payload.clone());
                }
            }
            bcast_local(ctx, aid, eid, user);
        }
        Frame::Reduce(aid, wave, op, vals) => red_accumulate(ctx, aid, wave, op, &vals, false),
    }
}

/// Invoke a broadcast entry on each element living on this PE.
#[expect(
    clippy::disallowed_methods,
    reason = "the indices are sorted before any is invoked"
)]
fn bcast_local(ctx: &mut PeCtx, aid: ArrayId, eid: EntryId, user: Bytes) {
    // The PE tree spans PEs that own nothing: those stay cold.
    let Some(cold) = ctx.cold.as_deref() else {
        return;
    };
    let mut local: Vec<u64> = cold
        .charm
        .elements
        .keys()
        .filter(|(a, _)| *a == aid.0)
        .map(|(_, i)| *i)
        .collect();
    local.sort_unstable();
    for idx in local {
        invoke_entry(ctx, aid, eid, idx, user.clone());
    }
}

fn invoke_entry(ctx: &mut PeCtx, aid: ArrayId, eid: EntryId, idx: u64, user: Bytes) {
    let def = &ctx.charm_reg.entries[eid.0 as usize];
    assert_eq!(def.array, aid, "entry {eid:?} does not belong to {aid:?}");
    let f = def.f.clone();
    let pe = ctx.pe();
    let mut state = ctx
        .cold()
        .charm
        .elements
        .get_mut(&(aid.0, idx))
        .unwrap_or_else(|| panic!("message for missing element {aid:?}[{idx}] on PE {pe}"))
        .take()
        .expect("reentrant entry on one element");
    f(ctx, state.as_mut(), idx, user);
    *ctx.cold().charm.elements.get_mut(&(aid.0, idx)).unwrap() = Some(state);
}

// `wire` is re-exported for payload packing in the doc examples.

#[cfg(test)]
#[allow(
    clippy::disallowed_types,
    reason = "handlers hand results back through shared cells"
)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterCfg};
    use crate::ideal::IdealLayer;
    use crate::msg::wire;

    fn cluster(pes: u32) -> Cluster {
        Cluster::new(ClusterCfg::new(pes, 4), Box::new(IdealLayer::new(1000)))
    }

    #[test]
    fn frames_round_trip_at_their_wire_sizes() {
        let (aid, eid, user) = (ArrayId(0x0102), EntryId(0x0304), Bytes::from_static(b"hi"));
        let frames = [
            Frame::Entry(aid, eid, 0x0506_0708_090a_0b0c, user.clone()),
            Frame::Bcast(aid, eid, false, user.clone()),
            Frame::Bcast(aid, eid, true, user),
            Frame::Reduce(aid, 9, RedOp::Max, vec![1.5, -2.0]),
        ];
        let wire: Vec<Bytes> = frames.iter().map(Frame::encode).collect();
        let sizes: Vec<usize> = wire.iter().map(Bytes::len).collect();
        assert_eq!(sizes, [13 + 2, 5 + 2, 5 + 2, 12 + 16]);
        let ops: Vec<u8> = wire.iter().map(|w| w[0]).collect();
        assert_eq!(ops, [OP_ENTRY, OP_BCAST, OP_BCAST_DIRECT, OP_REDUCE]);
        assert_eq!(
            &wire[0][1..13],
            b"\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c"
        );
        assert_eq!(
            &wire[3][11..20],
            b"\x02\0\0\0\0\0\0\xf8\x3f",
            "op, then 1.5 LE"
        );
        for (f, w) in frames.iter().zip(&wire) {
            assert_eq!(Frame::decode(w).as_ref(), Ok(f));
        }
    }

    #[test]
    fn short_and_malformed_frames_are_refused_by_name() {
        let entry = Frame::Entry(ArrayId(1), EntryId(2), 3, Bytes::new()).encode();
        for cut in 1..13 {
            let short = Frame::decode(&entry.slice(..cut));
            assert_eq!(short, Err(FrameError::Short(13)), "{cut} B");
        }
        let decode = |b: &'static [u8]| Frame::decode(&Bytes::from_static(b));
        assert_eq!(decode(b""), Err(FrameError::Short(1)));
        assert_eq!(decode(b"\x03\0\0\0"), Err(FrameError::Short(5)));
        assert_eq!(decode(&[2; 11]), Err(FrameError::Short(12)));
        assert_eq!(decode(&[2; 15]), Err(FrameError::Ragged));
        let bad_op = b"\x02\0\0\0\0\0\0\0\0\0\0\x07";
        assert_eq!(decode(bad_op), Err(FrameError::BadRedOp(7)));
        assert_eq!(decode(b"\x07"), Err(FrameError::BadOpcode(7)));
    }

    #[test]
    fn tree_shape_is_consistent() {
        let n = 23;
        for pe in 1..n {
            let p = tree_parent(pe);
            assert!(tree_children(p, n).any(|c| c == pe), "pe {pe}");
        }
        // Every PE reachable from the root.
        let mut seen = vec![false; n as usize];
        let mut stack = vec![0u32];
        while let Some(pe) = stack.pop() {
            seen[pe as usize] = true;
            stack.extend(tree_children(pe, n));
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn entry_send_reaches_element() {
        let mut c = cluster(4);
        let aid = c.create_array(10, |_| 0u64);
        let bump = c.register_entry::<u64>(aid, |_ctx, st, _idx, payload| {
            *st += wire::unpack_u64(&payload, 0);
        });
        c.inject_entry(0, aid, 7, bump, wire::pack_u64s(&[41]));
        c.inject_entry(0, aid, 7, bump, wire::pack_u64s(&[1]));
        c.run();
        assert_eq!(*c.element::<u64>(aid, 7), 42);
        assert_eq!(*c.element::<u64>(aid, 6), 0);
    }

    #[test]
    fn elements_chat_between_pes() {
        let mut c = cluster(3);
        let aid = c.create_array(6, |_| 0u64);
        let entry = c.register_entry::<u64>(aid, move |ctx, st, idx, payload| {
            let hops = wire::unpack_u64(&payload, 0);
            *st += 1;
            if hops > 0 {
                let next = (idx + 1) % 6;
                ctx.charm_send(aid, next, EntryId(0), wire::pack_u64s(&[hops - 1]));
            }
        });
        c.inject_entry(0, aid, 0, entry, wire::pack_u64s(&[12]));
        c.run();
        // 13 invocations around the ring: each element hit at least twice.
        let total: u64 = (0..6).map(|i| *c.element::<u64>(aid, i)).sum();
        assert_eq!(total, 13);
    }

    #[test]
    fn broadcast_reaches_every_element() {
        let mut c = cluster(5);
        let aid = c.create_array(17, |_| 0u32);
        let touch = c.register_entry::<u32>(aid, |_ctx, st, _idx, _p| *st += 1);
        c.inject_broadcast(0, aid, touch, Bytes::new());
        c.run();
        for i in 0..17 {
            assert_eq!(*c.element::<u32>(aid, i), 1, "element {i} missed");
        }
    }

    #[test]
    fn reduction_sums_over_all_elements() {
        let mut c = cluster(4);
        let aid = c.create_array(12, |idx| idx as f64);
        let done = std::sync::Arc::new(std::sync::Mutex::new(-1.0));
        let done2 = done.clone();
        let client = c.register_handler(move |ctx, env| {
            let wave = u64::from_le_bytes(env.payload[0..8].try_into().unwrap());
            assert_eq!(wave, 0);
            *done2.lock().unwrap() = wire::unpack_f64(&env.payload[8..], 0);
            ctx.stop();
        });
        c.set_reduction_client(aid, client, 0);
        let kick = c.register_entry::<f64>(aid, move |ctx, st, _idx, _p| {
            ctx.contribute(aid, &[*st], RedOp::Sum);
        });
        c.inject_broadcast(0, aid, kick, Bytes::new());
        c.run();
        // sum 0..12 = 66
        assert_eq!(*done.lock().unwrap(), 66.0);
    }

    #[test]
    fn successive_reduction_waves_keep_sequence() {
        let mut c = cluster(3);
        let aid = c.create_array(6, |_| ());
        let results = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let r2 = results.clone();
        let kick_cell: std::sync::Arc<std::sync::OnceLock<EntryId>> =
            std::sync::Arc::new(std::sync::OnceLock::new());
        let kc = kick_cell.clone();
        let client = c.register_handler(move |ctx, env| {
            let wave = u64::from_le_bytes(env.payload[0..8].try_into().unwrap());
            let v = wire::unpack_f64(&env.payload[8..], 0);
            r2.lock().unwrap().push((wave, v));
            if wave < 2 {
                ctx.charm_broadcast(aid, *kc.get().unwrap(), Bytes::new());
            } else {
                ctx.stop();
            }
        });
        c.set_reduction_client(aid, client, 0);
        let kick = c.register_entry::<()>(aid, move |ctx, _st, _idx, _p| {
            ctx.contribute(aid, &[1.0], RedOp::Sum);
        });
        kick_cell.set(kick).expect("set once");
        c.inject_broadcast(0, aid, kick, Bytes::new());
        c.run();
        assert_eq!(&*results.lock().unwrap(), &[(0, 6.0), (1, 6.0), (2, 6.0)]);
    }

    #[test]
    fn min_max_reductions() {
        for (op, expect) in [(RedOp::Min, 0.0), (RedOp::Max, 9.0)] {
            let mut c = cluster(2);
            let aid = c.create_array(10, |idx| idx as f64);
            let got = std::sync::Arc::new(std::sync::Mutex::new(f64::NAN));
            let g2 = got.clone();
            let client = c.register_handler(move |ctx, env| {
                *g2.lock().unwrap() = wire::unpack_f64(&env.payload[8..], 0);
                ctx.stop();
            });
            c.set_reduction_client(aid, client, 0);
            let kick = c.register_entry::<f64>(aid, move |ctx, st, _i, _p| {
                ctx.contribute(aid, &[*st], op);
            });
            c.inject_broadcast(0, aid, kick, Bytes::new());
            c.run();
            assert_eq!(*got.lock().unwrap(), expect, "{op:?}");
        }
    }

    #[test]
    fn reduction_completes_with_fewer_elements_than_pes() {
        // Regression: the reduction tree must span only PEs that own
        // elements — PEs without elements used to deadlock the wave.
        let mut c = cluster(16);
        let aid = c.create_array(3, |idx| idx as f64);
        let got = std::sync::Arc::new(std::sync::Mutex::new(f64::NAN));
        let g2 = got.clone();
        let client = c.register_handler(move |ctx, env| {
            *g2.lock().unwrap() = wire::unpack_f64(&env.payload[8..], 0);
            ctx.stop();
        });
        c.set_reduction_client(aid, client, 0);
        let kick = c.register_entry::<f64>(aid, move |ctx, st, _i, _p| {
            ctx.contribute(aid, &[*st], RedOp::Sum);
        });
        c.inject_broadcast(0, aid, kick, Bytes::new());
        let r = c.run();
        assert!(r.stopped_early, "sparse reduction deadlocked");
        assert_eq!(*got.lock().unwrap(), 0.0 + 1.0 + 2.0);
    }

    #[test]
    fn broadcast_message_count_is_tree_not_quadratic() {
        let mut c = cluster(16);
        let aid = c.create_array(16, |_| 0u32);
        let touch = c.register_entry::<u32>(aid, |_ctx, st, _idx, _p| *st += 1);
        c.inject_broadcast(0, aid, touch, Bytes::new());
        c.run();
        // Tree forwarding: at most num_pes - 1 forwards (plus the inject).
        assert!(
            c.stats().msgs_sent <= 16,
            "broadcast used {} messages",
            c.stats().msgs_sent
        );
        for i in 0..16 {
            assert_eq!(*c.element::<u32>(aid, i), 1);
        }
    }

    #[test]
    fn vector_reductions_combine_elementwise() {
        let mut c = cluster(4);
        let aid = c.create_array(8, |idx| idx as f64);
        let got = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let g2 = got.clone();
        let client = c.register_handler(move |ctx, env| {
            let body = &env.payload[8..];
            *g2.lock().unwrap() = (0..wire::f64_count(body))
                .map(|i| wire::unpack_f64(body, i))
                .collect();
            ctx.stop();
        });
        c.set_reduction_client(aid, client, 0);
        let kick = c.register_entry::<f64>(aid, move |ctx, st, _i, _p| {
            ctx.contribute(aid, &[*st, 1.0, -*st], RedOp::Sum);
        });
        c.inject_broadcast(0, aid, kick, Bytes::new());
        c.run();
        assert_eq!(&*got.lock().unwrap(), &[28.0, 8.0, -28.0]);
    }

    #[test]
    #[should_panic(expected = "missing element")]
    fn send_to_missing_element_panics() {
        let mut c = cluster(2);
        let aid = c.create_array(2, |_| ());
        let e = c.register_entry::<()>(aid, |_, _, _, _| {});
        c.inject_entry(0, aid, 99, e, Bytes::new());
        c.run();
    }
}
