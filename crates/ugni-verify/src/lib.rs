//! Runtime contract verifier for the simulated uGNI API — a valgrind for
//! [`ugni::Gni`] (DESIGN.md §8).
//!
//! [`CheckedGni`] wraps a `Gni` and enforces the usage contract the real
//! NIC only punishes with corruption or hangs:
//!
//! * no post through a deregistered [`MemHandle`], and no
//!   `mem_deregister` while a transaction on that handle is in flight;
//! * every posted descriptor id receives **exactly one** consumed CQ
//!   event — no lost completions, no double consumption (including the
//!   error/retry paths);
//! * SMSG/MSGQ sends that hit credit exhaustion must be retried through
//!   the connection backlog (same message next), never dropped or
//!   reordered past fresh traffic;
//! * per-CQ outstanding transactions stay within the queue depth unless
//!   the fault plan explicitly overruns it;
//! * consumption clocks (CQ polls, mailbox drains) are monotonic per
//!   object;
//! * at `report()` time, live registrations, in-flight posts, undrained
//!   mailboxes, parked retries and buffer content written but never
//!   cleared are surfaced as *leaks*.
//!
//! Violations carry the offending descriptor/handle and the call site.
//! In strict mode ([`CheckedGni::set_strict`]) the first violation
//! panics; otherwise everything accumulates into a [`ContractReport`].
//!
//! The wrapper derefs to `Gni`, so read-only accessors come for free and
//! the machine layers swap it in behind a `verify` cfg-feature with zero
//! call-site changes. Registrations made directly against the fabric
//! (e.g. the memory pool's slab, via `fabric_mut()`) are outside the
//! tracked surface; posts through them are still checked against the
//! NIC's own registration table.

use bytes::Bytes;
use gemini_net::{Addr, Fabric, GeminiParams, MemHandle, NodeId};
use sim_core::Time;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Deref;
use std::panic::Location;
use ugni::{
    CqEvent, CqHandle, EpHandle, Gni, GniError, GniResult, PostDescriptor, PostOk, SmsgRecv,
    SmsgSendOk,
};

/// Source location of the offending call, captured via `#[track_caller]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Site {
    pub file: &'static str,
    pub line: u32,
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.file, self.line)
    }
}

/// Which consumption clock a [`Violation::NonMonotonicTime`] is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Cq(CqHandle),
    Smsg(NodeId, u32),
    Msgq(NodeId),
}

/// A breach of the uGNI usage contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A post named a memory handle the NIC has no registration for and
    /// that was never seen registered through this wrapper.
    PostUnregistered {
        node: NodeId,
        handle: MemHandle,
        user_id: u64,
        site: Site,
    },
    /// A post named a handle that *was* registered and has since been
    /// deregistered.
    UseAfterDereg {
        node: NodeId,
        handle: MemHandle,
        user_id: u64,
        dereg_site: Site,
        site: Site,
    },
    /// `mem_deregister` on a handle still referenced by an in-flight
    /// transaction (its completion has not been consumed).
    DeregInFlight {
        node: NodeId,
        handle: MemHandle,
        user_id: u64,
        site: Site,
    },
    /// A `PostDone`/`PostError` was consumed for a descriptor id with no
    /// matching outstanding post — a lost or double-consumed completion.
    DoubleCompletion {
        cq: CqHandle,
        user_id: u64,
        site: Site,
    },
    /// After `NoCredits` parked a message on an endpoint, the next send
    /// on that endpoint carried a *different* message: the connection
    /// backlog was bypassed (the parked message was dropped or
    /// reordered).
    CreditBypass {
        ep: EpHandle,
        parked_tag: u8,
        parked_len: usize,
        sent_tag: u8,
        sent_len: usize,
        site: Site,
    },
    /// Outstanding (unconsumed) completions on one CQ exceeded the
    /// depth limit while no fault plan legitimizes an overrun.
    CqDepthExceeded {
        cq: CqHandle,
        outstanding: u64,
        limit: u64,
        site: Site,
    },
    /// A consumption clock went backwards (poll/drain at an earlier
    /// `now` than a previous successful one on the same object).
    NonMonotonicTime {
        clock: Clock,
        prev: Time,
        now: Time,
        site: Site,
    },
    /// `mem_write` to a buffer whose registration was released (and not
    /// renewed) — the NIC may no longer see coherent content.
    WriteAfterDereg {
        node: NodeId,
        addr: Addr,
        site: Site,
    },
    /// `mem_read` of a buffer whose registration was released.
    ReadAfterDereg {
        node: NodeId,
        addr: Addr,
        site: Site,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::PostUnregistered {
                node,
                handle,
                user_id,
                site,
            } => write!(
                f,
                "post of descriptor {user_id} through unregistered {handle:?} on node {node} at {site}"
            ),
            Violation::UseAfterDereg {
                node,
                handle,
                user_id,
                dereg_site,
                site,
            } => write!(
                f,
                "post of descriptor {user_id} through {handle:?} on node {node} at {site}, deregistered at {dereg_site}"
            ),
            Violation::DeregInFlight {
                node,
                handle,
                user_id,
                site,
            } => write!(
                f,
                "deregister of {handle:?} on node {node} at {site} while descriptor {user_id} is in flight"
            ),
            Violation::DoubleCompletion { cq, user_id, site } => write!(
                f,
                "completion for descriptor {user_id} consumed on {cq:?} at {site} with no outstanding post (lost or double-consumed)"
            ),
            Violation::CreditBypass {
                ep,
                parked_tag,
                parked_len,
                sent_tag,
                sent_len,
                site,
            } => write!(
                f,
                "credit backlog bypassed on {ep:?} at {site}: parked (tag {parked_tag}, {parked_len} B) but sent (tag {sent_tag}, {sent_len} B)"
            ),
            Violation::CqDepthExceeded {
                cq,
                outstanding,
                limit,
                site,
            } => write!(
                f,
                "{cq:?} has {outstanding} outstanding completions (limit {limit}) after post at {site}"
            ),
            Violation::NonMonotonicTime {
                clock,
                prev,
                now,
                site,
            } => write!(
                f,
                "consumption clock {clock:?} went backwards at {site}: {now} < {prev}"
            ),
            Violation::WriteAfterDereg { node, addr, site } => {
                write!(f, "mem_write to deregistered {addr:?} on node {node} at {site}")
            }
            Violation::ReadAfterDereg { node, addr, site } => {
                write!(f, "mem_read of deregistered {addr:?} on node {node} at {site}")
            }
        }
    }
}

/// Resources still live when the report was taken. Leaks are advisory —
/// a run that ends mid-protocol (e.g. `ctx.stop()` after the measured
/// iterations) legitimately leaves pools registered and retries parked —
/// so they are reported separately from violations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Leak {
    /// A registration acquired through the wrapper was never released.
    Registration {
        node: NodeId,
        handle: MemHandle,
        site: Site,
    },
    /// A posted descriptor whose completion was never consumed.
    UnconsumedCompletion {
        cq: CqHandle,
        user_id: u64,
        site: Site,
    },
    /// A CQ still holds (or lost to an unresynced overrun) events.
    PendingCqEvents { cq: CqHandle, at: Time },
    /// An SMSG mailbox still holds delivered messages.
    UndrainedMailbox { node: NodeId, inst: u32, at: Time },
    /// A node's shared MSGQ still holds delivered messages.
    UndrainedMsgq { node: NodeId, at: Time },
    /// A message parked by `NoCredits` whose retry never fired.
    PendingCreditRetry { ep: EpHandle, tag: u8, len: usize },
    /// Content stored by `mem_write` (at `site`) that no `mem_clear` has
    /// released. Pre-registered slots written once per message (eager
    /// buffers, persistent channels) legitimately show up here; a count
    /// that grows with the number of messages is a leak of their payloads.
    StaleContent {
        node: NodeId,
        addr: Addr,
        site: Site,
    },
}

impl fmt::Display for Leak {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Leak::Registration { node, handle, site } => {
                write!(f, "live registration {handle:?} on node {node} from {site}")
            }
            Leak::UnconsumedCompletion { cq, user_id, site } => write!(
                f,
                "descriptor {user_id} posted at {site} never saw its completion consumed on {cq:?}"
            ),
            Leak::PendingCqEvents { cq, at } => {
                write!(f, "{cq:?} still has events pending (earliest at {at})")
            }
            Leak::UndrainedMailbox { node, inst, at } => write!(
                f,
                "SMSG mailbox (node {node}, inst {inst}) undrained (earliest at {at})"
            ),
            Leak::UndrainedMsgq { node, at } => {
                write!(f, "MSGQ on node {node} undrained (earliest at {at})")
            }
            Leak::PendingCreditRetry { ep, tag, len } => write!(
                f,
                "message (tag {tag}, {len} B) parked on {ep:?} by NoCredits was never retried"
            ),
            Leak::StaleContent { node, addr, site } => write!(
                f,
                "content written to {addr:?} on node {node} at {site} was never cleared"
            ),
        }
    }
}

/// Everything the verifier knows at the moment [`CheckedGni::report`] is
/// called.
#[derive(Debug, Clone, Default)]
pub struct ContractReport {
    pub violations: Vec<Violation>,
    pub leaks: Vec<Leak>,
    pub live_eps: usize,
    pub live_cqs: usize,
    pub checked_calls: u64,
}

impl ContractReport {
    /// No contract violations (leaks are advisory and do not count).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// How many [`Leak::StaleContent`] advisories the report carries: the
    /// number tests compare across run lengths.
    pub fn stale_content(&self) -> usize {
        self.leaks
            .iter()
            .filter(|l| matches!(l, Leak::StaleContent { .. }))
            .count()
    }
}

impl fmt::Display for ContractReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "uGNI contract report: {} violation(s), {} leak(s), {} EPs, {} CQs, {} checked calls",
            self.violations.len(),
            self.leaks.len(),
            self.live_eps,
            self.live_cqs,
            self.checked_calls
        )?;
        for v in &self.violations {
            writeln!(f, "  violation: {v}")?;
        }
        for l in &self.leaks {
            writeln!(f, "  leak: {l}")?;
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
struct RegInfo {
    addr: Addr,
    site: Site,
}

#[derive(Debug, Clone, Copy)]
struct Flight {
    /// Posts outstanding under this (cq, user_id). Reposting the same id
    /// before consuming the previous completion is legal (each post gets
    /// its own event), so this is a count, not a flag.
    count: u32,
    local: (NodeId, MemHandle),
    remote: (NodeId, MemHandle),
    site: Site,
}

#[derive(Debug, Clone, Copy)]
struct EpInfo {
    local: NodeId,
    remote: NodeId,
    remote_inst: u32,
    cq: CqHandle,
}

#[derive(Debug, Clone, Copy)]
struct Obligation {
    tag: u8,
    len: usize,
    hash: u64,
}

fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Default ceiling for outstanding completions per CQ when no fault plan
/// bounds the queue: generous enough for every legitimate workload, small
/// enough to catch a reap loop that stopped consuming.
pub const DEFAULT_CQ_DEPTH_LIMIT: u64 = 65_536;

/// The contract-checking wrapper. See the crate docs for the rules.
pub struct CheckedGni {
    inner: Gni,
    strict: bool,
    depth_limit: u64,
    checked_calls: Cell<u64>,
    /// Live registrations made through the wrapper.
    regs: BTreeMap<(NodeId, MemHandle), RegInfo>,
    /// Released registrations (for use-after-dereg classification).
    dereg: BTreeMap<(NodeId, MemHandle), Site>,
    /// Registration count per buffer address (re-registration revives).
    live_addr: BTreeMap<(NodeId, Addr), u32>,
    /// Buffer addresses with no live registration left.
    dead_addr: BTreeMap<(NodeId, Addr), Site>,
    /// Buffers holding `mem_write` content, with the (latest) writer.
    content: BTreeMap<(NodeId, Addr), Site>,
    /// Outstanding posts, keyed by (completion queue, descriptor id).
    in_flight: BTreeMap<(CqHandle, u64), Flight>,
    /// Unconsumed completions per CQ (incl. ones stranded by overrun).
    outstanding: BTreeMap<CqHandle, u64>,
    eps: BTreeMap<EpHandle, EpInfo>,
    /// Message parked by the last NoCredits on each endpoint.
    credit: BTreeMap<EpHandle, Obligation>,
    last_cq: BTreeMap<CqHandle, Time>,
    last_smsg: BTreeMap<(NodeId, u32), Time>,
    last_msgq: BTreeMap<NodeId, Time>,
    /// SMSG mailbox keys ever addressed (for leak scanning).
    mailboxes: BTreeSet<(NodeId, u32)>,
    msgq_nodes: BTreeSet<NodeId>,
    /// Interior mutability: `mem_read` is `&self` but must record.
    violations: RefCell<Vec<Violation>>,
}

impl Deref for CheckedGni {
    type Target = Gni;
    fn deref(&self) -> &Gni {
        &self.inner
    }
}

impl CheckedGni {
    pub fn new(params: GeminiParams, job_nodes: u32) -> Self {
        Self::wrap(Gni::new(params, job_nodes))
    }

    pub fn with_fabric(fabric: Fabric) -> Self {
        Self::wrap(Gni::with_fabric(fabric))
    }

    /// Wrap an existing instance. State built up before wrapping is
    /// unknown to the verifier (tolerated, not checked).
    pub fn wrap(inner: Gni) -> Self {
        CheckedGni {
            inner,
            strict: false,
            depth_limit: DEFAULT_CQ_DEPTH_LIMIT,
            checked_calls: Cell::new(0),
            regs: BTreeMap::new(),
            dereg: BTreeMap::new(),
            live_addr: BTreeMap::new(),
            dead_addr: BTreeMap::new(),
            content: BTreeMap::new(),
            in_flight: BTreeMap::new(),
            outstanding: BTreeMap::new(),
            eps: BTreeMap::new(),
            credit: BTreeMap::new(),
            last_cq: BTreeMap::new(),
            last_smsg: BTreeMap::new(),
            last_msgq: BTreeMap::new(),
            mailboxes: BTreeSet::new(),
            msgq_nodes: BTreeSet::new(),
            violations: RefCell::new(Vec::new()),
        }
    }

    /// Panic on the first violation instead of accumulating.
    pub fn set_strict(&mut self, strict: bool) {
        self.strict = strict;
    }

    /// Override the outstanding-completions ceiling (mutation tests use a
    /// tiny limit to trip the rule deliberately).
    pub fn set_cq_depth_limit(&mut self, limit: u64) {
        self.depth_limit = limit.max(1);
    }

    #[track_caller]
    fn here() -> Site {
        let l = Location::caller();
        Site {
            file: l.file(),
            line: l.line(),
        }
    }

    fn tick(&self) {
        self.checked_calls.set(self.checked_calls.get() + 1);
    }

    fn record(&self, v: Violation) {
        if self.strict {
            // panic-ok: strict mode aborts on contract violation by design
            panic!("uGNI contract violation: {v}");
        }
        self.violations.borrow_mut().push(v);
    }

    /// Snapshot the current report: accumulated violations plus a live
    /// leak scan. Does not consume the wrapper — call at shutdown or
    /// between phases.
    pub fn report(&self) -> ContractReport {
        let mut leaks = Vec::new();
        for (&(node, handle), info) in &self.regs {
            leaks.push(Leak::Registration {
                node,
                handle,
                site: info.site,
            });
        }
        for (&(cq, user_id), fl) in &self.in_flight {
            leaks.push(Leak::UnconsumedCompletion {
                cq,
                user_id,
                site: fl.site,
            });
        }
        for &cq in self.outstanding.keys() {
            if let Some(at) = self.inner.cq_next_ready(cq) {
                leaks.push(Leak::PendingCqEvents { cq, at });
            }
        }
        for &(node, inst) in &self.mailboxes {
            if let Some(at) = self.inner.smsg_next_arrival(node, inst) {
                leaks.push(Leak::UndrainedMailbox { node, inst, at });
            }
        }
        for &node in &self.msgq_nodes {
            if let Some(at) = self.inner.msgq_next_arrival(node) {
                leaks.push(Leak::UndrainedMsgq { node, at });
            }
        }
        for (&ep, ob) in &self.credit {
            leaks.push(Leak::PendingCreditRetry {
                ep,
                tag: ob.tag,
                len: ob.len,
            });
        }
        for (&(node, addr), &site) in &self.content {
            leaks.push(Leak::StaleContent { node, addr, site });
        }
        ContractReport {
            violations: self.violations.borrow().clone(),
            leaks,
            live_eps: self.eps.len(),
            live_cqs: self.outstanding.len(),
            checked_calls: self.checked_calls.get(),
        }
    }

    /// Tear down: final report. Alias of [`CheckedGni::report`] that
    /// consumes the wrapper, for end-of-run assertions.
    pub fn finish(self) -> ContractReport {
        self.report()
    }

    // ----- wrapped API (identical signatures to `Gni`) -----

    #[track_caller]
    pub fn cq_create(&mut self) -> CqHandle {
        self.tick();
        let cq = self.inner.cq_create();
        self.outstanding.insert(cq, 0);
        cq
    }

    #[track_caller]
    pub fn ep_create(
        &mut self,
        local: NodeId,
        remote: NodeId,
        cq: CqHandle,
    ) -> GniResult<EpHandle> {
        self.ep_create_inst(local, local, remote, remote, cq)
    }

    #[track_caller]
    pub fn ep_create_inst(
        &mut self,
        local: NodeId,
        local_inst: u32,
        remote: NodeId,
        remote_inst: u32,
        cq: CqHandle,
    ) -> GniResult<EpHandle> {
        self.tick();
        let _ = local_inst;
        let ep = self
            .inner
            .ep_create_inst(local, local_inst, remote, remote_inst, cq)?;
        self.eps.insert(
            ep,
            EpInfo {
                local,
                remote,
                remote_inst,
                cq,
            },
        );
        self.mailboxes.insert((remote, remote_inst));
        self.msgq_nodes.insert(remote);
        Ok(ep)
    }

    #[track_caller]
    pub fn alloc_addr(&mut self, node: NodeId) -> GniResult<Addr> {
        self.tick();
        self.inner.alloc_addr(node)
    }

    #[track_caller]
    pub fn mem_register(
        &mut self,
        node: NodeId,
        addr: Addr,
        bytes: u64,
    ) -> GniResult<(MemHandle, Time)> {
        self.tick();
        let site = Self::here();
        let (h, cost) = self.inner.mem_register(node, addr, bytes)?;
        self.regs.insert((node, h), RegInfo { addr, site });
        self.dereg.remove(&(node, h));
        *self.live_addr.entry((node, addr)).or_insert(0) += 1;
        self.dead_addr.remove(&(node, addr));
        Ok((h, cost))
    }

    #[track_caller]
    pub fn mem_deregister(&mut self, node: NodeId, h: MemHandle) -> GniResult<Time> {
        self.tick();
        let site = Self::here();
        for (&(_, user_id), fl) in &self.in_flight {
            if fl.local == (node, h) || fl.remote == (node, h) {
                self.record(Violation::DeregInFlight {
                    node,
                    handle: h,
                    user_id,
                    site,
                });
            }
        }
        let cost = self.inner.mem_deregister(node, h)?;
        if let Some(info) = self.regs.remove(&(node, h)) {
            self.dereg.insert((node, h), site);
            let key = (node, info.addr);
            if let Some(n) = self.live_addr.get_mut(&key) {
                *n -= 1;
                if *n == 0 {
                    self.live_addr.remove(&key);
                    self.dead_addr.insert(key, site);
                }
            }
        }
        Ok(cost)
    }

    #[track_caller]
    pub fn mem_write(&mut self, node: NodeId, addr: Addr, data: Bytes) {
        self.tick();
        let site = Self::here();
        if self.dead_addr.contains_key(&(node, addr)) {
            self.record(Violation::WriteAfterDereg { node, addr, site });
        }
        self.content.insert((node, addr), site);
        self.inner.mem_write(node, addr, data);
    }

    /// Shadows [`Gni::mem_read`] (same signature) to flag reads of
    /// buffers whose registration was released.
    #[track_caller]
    pub fn mem_read(&self, node: NodeId, addr: Addr) -> Option<Bytes> {
        self.tick();
        if self.dead_addr.contains_key(&(node, addr)) {
            self.record(Violation::ReadAfterDereg {
                node,
                addr,
                site: Self::here(),
            });
        }
        self.inner.mem_read(node, addr)
    }

    #[track_caller]
    pub fn mem_clear(&mut self, node: NodeId, addr: Addr) {
        self.tick();
        self.content.remove(&(node, addr));
        self.inner.mem_clear(node, addr)
    }

    /// Escape hatch to the fabric (pool registrations, fault plans).
    /// State changed through here is not tracked.
    pub fn fabric_mut(&mut self) -> &mut Fabric {
        self.inner.fabric_mut()
    }

    #[track_caller]
    fn send_credit_check(&mut self, ep: EpHandle, tag: u8, data: &Bytes, site: Site) {
        if let Some(ob) = self.credit.get(&ep).copied() {
            let same = ob.tag == tag && ob.len == data.len() && ob.hash == fnv1a(data);
            self.credit.remove(&ep);
            if !same {
                self.record(Violation::CreditBypass {
                    ep,
                    parked_tag: ob.tag,
                    parked_len: ob.len,
                    sent_tag: tag,
                    sent_len: data.len(),
                    site,
                });
            }
        }
    }

    fn send_credit_result(&mut self, ep: EpHandle, tag: u8, data: &Bytes, err: &GniError) {
        if let GniError::NoCredits { .. } = err {
            self.credit.insert(
                ep,
                Obligation {
                    tag,
                    len: data.len(),
                    hash: fnv1a(data),
                },
            );
        }
    }

    #[track_caller]
    pub fn smsg_send_w_tag(
        &mut self,
        now: Time,
        ep: EpHandle,
        tag: u8,
        data: Bytes,
    ) -> GniResult<SmsgSendOk> {
        self.tick();
        let site = Self::here();
        self.send_credit_check(ep, tag, &data, site);
        if let Some(info) = self.eps.get(&ep) {
            self.mailboxes.insert((info.remote, info.remote_inst));
        }
        let res = self.inner.smsg_send_w_tag(now, ep, tag, data.clone());
        if let Err(ref e) = res {
            self.send_credit_result(ep, tag, &data, e);
        }
        res
    }

    #[track_caller]
    pub fn smsg_get_next_w_tag(
        &mut self,
        node: NodeId,
        inst: u32,
        now: Time,
    ) -> GniResult<SmsgRecv> {
        self.tick();
        let site = Self::here();
        let res = self.inner.smsg_get_next_w_tag(node, inst, now);
        if res.is_ok() {
            self.bump_clock(Clock::Smsg(node, inst), now, site);
        }
        res
    }

    #[track_caller]
    pub fn msgq_send_w_tag(
        &mut self,
        now: Time,
        ep: EpHandle,
        tag: u8,
        data: Bytes,
    ) -> GniResult<SmsgSendOk> {
        self.tick();
        let site = Self::here();
        self.send_credit_check(ep, tag, &data, site);
        if let Some(info) = self.eps.get(&ep) {
            self.msgq_nodes.insert(info.remote);
        }
        let res = self.inner.msgq_send_w_tag(now, ep, tag, data.clone());
        if let Err(ref e) = res {
            self.send_credit_result(ep, tag, &data, e);
        }
        res
    }

    #[track_caller]
    pub fn msgq_get_next_w_tag(&mut self, node: NodeId, now: Time) -> GniResult<(SmsgRecv, u32)> {
        self.tick();
        let site = Self::here();
        let res = self.inner.msgq_get_next_w_tag(node, now);
        if res.is_ok() {
            self.bump_clock(Clock::Msgq(node), now, site);
        }
        res
    }

    #[track_caller]
    pub fn post_fma(&mut self, now: Time, ep: EpHandle, desc: PostDescriptor) -> GniResult<PostOk> {
        self.tick();
        let site = Self::here();
        self.check_post(now, ep, desc, site, |g, now, ep, desc| {
            g.post_fma(now, ep, desc)
        })
    }

    #[track_caller]
    pub fn post_rdma(
        &mut self,
        now: Time,
        ep: EpHandle,
        desc: PostDescriptor,
    ) -> GniResult<PostOk> {
        self.tick();
        let site = Self::here();
        self.check_post(now, ep, desc, site, |g, now, ep, desc| {
            g.post_rdma(now, ep, desc)
        })
    }

    fn check_post(
        &mut self,
        now: Time,
        ep: EpHandle,
        desc: PostDescriptor,
        site: Site,
        post: impl FnOnce(&mut Gni, Time, EpHandle, PostDescriptor) -> GniResult<PostOk>,
    ) -> GniResult<PostOk> {
        let info = self.eps.get(&ep).copied();
        let user_id = desc.user_id;
        let (local_mem, remote_mem) = (desc.local_mem, desc.remote_mem);
        let res = post(&mut self.inner, now, ep, desc);
        let Some(info) = info else {
            // Endpoint created outside the wrapper: nothing to attribute
            // the post to; the inner checks still ran.
            return res;
        };
        match &res {
            Err(GniError::NotRegistered) => {
                // Attribute the stale handle: prefer the one we saw die.
                for (node, handle) in [(info.local, local_mem), (info.remote, remote_mem)] {
                    if self.regs.contains_key(&(node, handle)) {
                        continue;
                    }
                    if let Some(&dereg_site) = self.dereg.get(&(node, handle)) {
                        self.record(Violation::UseAfterDereg {
                            node,
                            handle,
                            user_id,
                            dereg_site,
                            site,
                        });
                    } else {
                        self.record(Violation::PostUnregistered {
                            node,
                            handle,
                            user_id,
                            site,
                        });
                    }
                }
            }
            Ok(_) => {
                let fl = self.in_flight.entry((info.cq, user_id)).or_insert(Flight {
                    count: 0,
                    local: (info.local, local_mem),
                    remote: (info.remote, remote_mem),
                    site,
                });
                fl.count += 1;
                fl.local = (info.local, local_mem);
                fl.remote = (info.remote, remote_mem);
                fl.site = site;
                let out = self.outstanding.entry(info.cq).or_insert(0);
                *out += 1;
                let plan = &self.inner.params().fault;
                let plan_bounds_cq = plan.cq_depth > 0 || plan.force_cq_overrun_at.is_some();
                if !plan_bounds_cq && *out > self.depth_limit {
                    let outstanding = *out;
                    let limit = self.depth_limit;
                    self.record(Violation::CqDepthExceeded {
                        cq: info.cq,
                        outstanding,
                        limit,
                        site,
                    });
                }
            }
            Err(_) => {}
        }
        res
    }

    #[track_caller]
    pub fn cq_get_event(&mut self, cq: CqHandle, now: Time) -> GniResult<CqEvent> {
        self.tick();
        let site = Self::here();
        let res = self.inner.cq_get_event(cq, now);
        if let Ok(ref ev) = res {
            self.bump_clock(Clock::Cq(cq), now, site);
            match ev {
                CqEvent::PostDone { user_id, .. } | CqEvent::PostError { user_id, .. } => {
                    self.consume_completion(cq, *user_id, site);
                }
                CqEvent::SmsgRx { .. } => {}
            }
        }
        res
    }

    #[track_caller]
    pub fn cq_resync(&mut self, cq: CqHandle, now: Time) -> GniResult<(Time, u32)> {
        self.tick();
        let site = Self::here();
        let res = self.inner.cq_resync(cq, now);
        if res.is_ok() {
            self.bump_clock(Clock::Cq(cq), now, site);
        }
        res
    }

    fn consume_completion(&mut self, cq: CqHandle, user_id: u64, site: Site) {
        match self.in_flight.get_mut(&(cq, user_id)) {
            Some(fl) if fl.count > 0 => {
                fl.count -= 1;
                if fl.count == 0 {
                    self.in_flight.remove(&(cq, user_id));
                }
                if let Some(out) = self.outstanding.get_mut(&cq) {
                    *out = out.saturating_sub(1);
                }
            }
            _ => {
                self.record(Violation::DoubleCompletion { cq, user_id, site });
            }
        }
    }

    fn bump_clock(&mut self, clock: Clock, now: Time, site: Site) {
        let prev = match clock {
            Clock::Cq(cq) => self.last_cq.insert(cq, now),
            Clock::Smsg(node, inst) => self.last_smsg.insert((node, inst), now),
            Clock::Msgq(node) => self.last_msgq.insert(node, now),
        };
        if let Some(prev) = prev {
            if now < prev {
                self.record(Violation::NonMonotonicTime {
                    clock,
                    prev,
                    now,
                    site,
                });
            } else {
                return;
            }
            // Keep the clock at its high-water mark so one regression is
            // reported once, not for every subsequent in-order call.
            match clock {
                Clock::Cq(cq) => {
                    self.last_cq.insert(cq, prev);
                }
                Clock::Smsg(node, inst) => {
                    self.last_smsg.insert((node, inst), prev);
                }
                Clock::Msgq(node) => {
                    self.last_msgq.insert(node, prev);
                }
            }
        }
    }

    /// Direct access to the accumulated violations (mutation tests).
    pub fn violations(&self) -> Vec<Violation> {
        self.violations.borrow().clone()
    }
}
