//! Deterministic fault injection for the simulated Gemini fabric.
//!
//! A [`FaultPlan`] describes, in advance, every way a run is allowed to go
//! wrong: per-link outage windows in virtual time, per-transaction drop and
//! corruption probabilities for each transfer mechanism, transient
//! registration-resource exhaustion, and completion-queue overruns. All
//! randomness flows through a [`sim_core::DetRng`] stream derived from the
//! plan's own seed, so the same seed and plan reproduce the exact same
//! fault sequence — chaos runs are replayable bit for bit.
//!
//! The all-zeros plan ([`FaultPlan::none`]) is inert by construction: no
//! RNG is ever consulted, so enabling the machinery does not perturb
//! fault-free runs at all.

use crate::topology::{LinkId, NodeId};
use serde::{Deserialize, Serialize};
use sim_core::Time;

/// A scheduled outage of one directed torus link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkDownWindow {
    /// Node owning the link (matches `LinkId::from`).
    pub node: NodeId,
    /// Torus dimension of the link (0 = x, 1 = y, 2 = z).
    pub dim: u8,
    /// Direction along the dimension.
    pub plus: bool,
    /// Outage start, inclusive (virtual ns).
    pub from_ns: Time,
    /// Outage end, exclusive (virtual ns).
    pub until_ns: Time,
}

impl LinkDownWindow {
    /// Does this window take `link` down at instant `at`?
    pub(crate) fn covers(&self, link: &LinkId, at: Time) -> bool {
        self.node == link.from
            && self.dim == link.dim
            && self.plus == link.plus
            && at >= self.from_ns
            && at < self.until_ns
    }
}

/// A scheduled whole-node crash. While the node is down its NIC stops
/// servicing every engine (SMSG, MSGQ, FMA, BTE) and all of its links go
/// dark: transactions from or to the node fail at the endpoint without
/// consulting the fault RNG, so plans whose only entries are crash windows
/// still leave fault-free transactions bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeCrashWindow {
    /// The node that crashes.
    pub node: NodeId,
    /// Crash instant, inclusive (virtual ns).
    pub at_ns: Time,
    /// If `Some(d)`, a fresh incarnation of the node boots `d` ns after the
    /// crash (with all volatile state lost). `None` means the node never
    /// comes back and its work must be redistributed.
    pub restart_after_ns: Option<Time>,
}

impl NodeCrashWindow {
    /// Absolute restart instant, if the node restarts at all.
    pub fn restart_at(&self) -> Option<Time> {
        self.restart_after_ns.map(|d| self.at_ns.saturating_add(d))
    }

    /// Is `node` down under this window at instant `at`?
    pub(crate) fn covers(&self, node: NodeId, at: Time) -> bool {
        self.node == node
            && at >= self.at_ns
            && match self.restart_at() {
                Some(r) => at < r,
                None => true,
            }
    }
}

/// How a transaction failed, as observed by the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The dimension-ordered route crossed a link inside a down window;
    /// nothing was transmitted. There is no steering around a down link.
    LinkDown,
    /// One endpoint node was crashed at the time of the transaction; the
    /// NIC never serviced it.
    NodeDown,
    /// The transaction was lost in flight: no data reached the destination.
    Dropped,
    /// The data reached the destination but the completion/ack was
    /// corrupted: the sender must assume failure and resend, so receivers
    /// need duplicate suppression.
    CorruptDelivered,
}

/// Why a [`FaultPlan`] failed [`FaultPlan::validate`]. An invalid plan must
/// be rejected up front: running it would silently skew the fault RNG
/// stream (probabilities clamp inside the fabric) and break replayability
/// claims.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlanError {
    /// A probability field is outside `[0, 1]` (or NaN).
    ProbabilityOutOfRange {
        /// Which field, e.g. `"smsg_drop"`.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// `drop + corrupt` for one mechanism exceeds 1, so the two outcomes
    /// cannot be disjoint events of one RNG draw.
    DropCorruptBudget {
        /// Which mechanism, e.g. `"smsg"`.
        mechanism: &'static str,
        /// The offending sum.
        sum: f64,
    },
    /// A link-down window is empty or inverted (`until_ns <= from_ns`).
    EmptyLinkWindow {
        /// Index into [`FaultPlan::link_down`].
        index: usize,
    },
    /// Two crash windows name the same node; a node crashes at most once
    /// per run.
    DuplicateCrash {
        /// The node named twice.
        node: NodeId,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::ProbabilityOutOfRange { field, value } => {
                write!(
                    f,
                    "fault plan: `{field}` = {value} is not a probability in [0, 1]"
                )
            }
            FaultPlanError::DropCorruptBudget { mechanism, sum } => {
                write!(
                    f,
                    "fault plan: {mechanism} drop + corrupt = {sum} > 1; the outcomes must be \
                     disjoint events of one RNG draw"
                )
            }
            FaultPlanError::EmptyLinkWindow { index } => {
                write!(
                    f,
                    "fault plan: link_down[{index}] is empty (until_ns <= from_ns)"
                )
            }
            FaultPlanError::DuplicateCrash { node } => {
                write!(f, "fault plan: node {node} has more than one crash window")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// Complete fault-injection schedule for one run.
///
/// Probabilities are per transaction in `[0, 1]`; `drop` and `corrupt` for
/// one mechanism must sum to at most 1. The plan travels on
/// [`crate::GeminiParams`] so every experiment config captures its chaos
/// settings alongside its timing calibration.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the dedicated fault RNG stream (independent of all other
    /// simulation randomness).
    pub seed: u64,
    /// SMSG/MSGQ per-message drop probability.
    pub smsg_drop: f64,
    /// SMSG/MSGQ per-message corrupt-delivery probability.
    pub smsg_corrupt: f64,
    /// FMA per-transaction drop probability.
    pub fma_drop: f64,
    /// FMA per-transaction corrupt-delivery probability.
    pub fma_corrupt: f64,
    /// BTE per-transaction drop probability.
    pub bte_drop: f64,
    /// BTE per-transaction corrupt-delivery probability.
    pub bte_corrupt: f64,
    /// Probability that one `GNI_MemRegister` call transiently fails with a
    /// resource error (NIC MDD/TLB exhaustion).
    pub reg_fail: f64,
    /// Completion-queue capacity in events; 0 means unlimited. Events posted
    /// beyond this depth overrun the CQ (GNI_CQ_OVERRUN semantics).
    pub cq_depth: u32,
    /// Force exactly one CQ overrun on the first event posted at/after this
    /// instant, regardless of depth (deterministic overrun drills).
    pub force_cq_overrun_at: Option<Time>,
    /// Scheduled link outages. A transaction whose dimension-ordered route
    /// crosses a down link fails with [`FaultKind::LinkDown`].
    pub link_down: Vec<LinkDownWindow>,
    /// Scheduled whole-node crashes (at most one window per node).
    pub node_crash: Vec<NodeCrashWindow>,
}

impl FaultPlan {
    /// The inert plan: nothing ever fails, and no RNG is consulted.
    pub fn none() -> Self {
        Self::default()
    }

    /// A uniform plan: the same drop probability for every mechanism.
    /// Convenient for sweeps.
    pub fn uniform_drop(seed: u64, p: f64) -> Self {
        FaultPlan {
            seed,
            smsg_drop: p,
            fma_drop: p,
            bte_drop: p,
            ..Self::none()
        }
    }

    /// Does this plan inject anything at all?
    ///
    /// Written as a full destructure — no `..` — so adding a field to
    /// [`FaultPlan`] without deciding whether it activates the plan is a
    /// compile error, not a silent bug (`seed` alone is the one field that
    /// intentionally does not activate anything).
    pub fn is_active(&self) -> bool {
        let FaultPlan {
            seed: _,
            smsg_drop,
            smsg_corrupt,
            fma_drop,
            fma_corrupt,
            bte_drop,
            bte_corrupt,
            reg_fail,
            cq_depth,
            force_cq_overrun_at,
            link_down,
            node_crash,
        } = self;
        *smsg_drop > 0.0
            || *smsg_corrupt > 0.0
            || *fma_drop > 0.0
            || *fma_corrupt > 0.0
            || *bte_drop > 0.0
            || *bte_corrupt > 0.0
            || *reg_fail > 0.0
            || *cq_depth > 0
            || force_cq_overrun_at.is_some()
            || !link_down.is_empty()
            || !node_crash.is_empty()
    }

    /// Check the plan's documented invariants; an `Err` plan must not run.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        let probs: [(&'static str, f64); 7] = [
            ("smsg_drop", self.smsg_drop),
            ("smsg_corrupt", self.smsg_corrupt),
            ("fma_drop", self.fma_drop),
            ("fma_corrupt", self.fma_corrupt),
            ("bte_drop", self.bte_drop),
            ("bte_corrupt", self.bte_corrupt),
            ("reg_fail", self.reg_fail),
        ];
        for (field, value) in probs {
            if !(0.0..=1.0).contains(&value) {
                return Err(FaultPlanError::ProbabilityOutOfRange { field, value });
            }
        }
        let budgets: [(&'static str, f64); 3] = [
            ("smsg", self.smsg_drop + self.smsg_corrupt),
            ("fma", self.fma_drop + self.fma_corrupt),
            ("bte", self.bte_drop + self.bte_corrupt),
        ];
        for (mechanism, sum) in budgets {
            if sum > 1.0 {
                return Err(FaultPlanError::DropCorruptBudget { mechanism, sum });
            }
        }
        for (index, w) in self.link_down.iter().enumerate() {
            if w.until_ns <= w.from_ns {
                return Err(FaultPlanError::EmptyLinkWindow { index });
            }
        }
        for (i, w) in self.node_crash.iter().enumerate() {
            if self.node_crash[..i].iter().any(|p| p.node == w.node) {
                return Err(FaultPlanError::DuplicateCrash { node: w.node });
            }
        }
        Ok(())
    }

    /// Does the plan crash any node at all?
    pub fn has_node_crash(&self) -> bool {
        !self.node_crash.is_empty()
    }

    /// Is `node` inside a crash window (down) at instant `at`?
    pub(crate) fn node_is_down(&self, node: NodeId, at: Time) -> bool {
        self.node_crash.iter().any(|w| w.covers(node, at))
    }

    /// Is `node` dead at `at` with no restart ever coming? Retry loops use
    /// this to give up instead of backing off forever against a peer that
    /// cannot answer.
    pub fn node_dead_forever(&self, node: NodeId, at: Time) -> bool {
        self.node_crash
            .iter()
            .any(|w| w.node == node && at >= w.at_ns && w.restart_after_ns.is_none())
    }

    /// Is `link` inside any down window at `at`?
    pub(crate) fn link_is_down(&self, link: &LinkId, at: Time) -> bool {
        self.link_down.iter().any(|w| w.covers(link, at))
    }

    /// Does any link of `route` cross a down window at `at`?
    pub(crate) fn route_is_down(&self, route: impl IntoIterator<Item = LinkId>, at: Time) -> bool {
        if self.link_down.is_empty() {
            return false;
        }
        route.into_iter().any(|l| self.link_is_down(&l, at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inactive() {
        assert!(!FaultPlan::none().is_active());
        assert!(!FaultPlan::default().is_active());
    }

    #[test]
    fn any_field_activates() {
        let mut p = FaultPlan::none();
        p.smsg_drop = 1e-3;
        assert!(p.is_active());
        let mut p = FaultPlan::none();
        p.cq_depth = 4;
        assert!(p.is_active());
        let mut p = FaultPlan::none();
        p.force_cq_overrun_at = Some(0);
        assert!(p.is_active());
        assert!(FaultPlan::uniform_drop(1, 0.5).is_active());
        let mut p = FaultPlan::none();
        p.node_crash.push(NodeCrashWindow {
            node: 1,
            at_ns: 1_000,
            restart_after_ns: None,
        });
        assert!(p.is_active(), "a crash window alone must activate the plan");
    }

    /// Exhaustiveness companion to the destructure inside `is_active`: mass-
    /// assigning every field and checking each non-seed one flips the plan
    /// active. The destructure is the compile-time guard; this pins the
    /// runtime behaviour of each field.
    #[test]
    fn every_field_is_audited_by_is_active() {
        let seeded = FaultPlan {
            seed: 42,
            ..FaultPlan::none()
        };
        assert!(!seeded.is_active(), "seed alone must stay inert");
        let single = |f: fn(&mut FaultPlan)| {
            let mut p = FaultPlan::none();
            f(&mut p);
            assert!(p.is_active(), "field left out of is_active audit");
        };
        single(|p| p.smsg_drop = 0.1);
        single(|p| p.smsg_corrupt = 0.1);
        single(|p| p.fma_drop = 0.1);
        single(|p| p.fma_corrupt = 0.1);
        single(|p| p.bte_drop = 0.1);
        single(|p| p.bte_corrupt = 0.1);
        single(|p| p.reg_fail = 0.1);
        single(|p| p.cq_depth = 1);
        single(|p| p.force_cq_overrun_at = Some(5));
        single(|p| {
            p.link_down.push(LinkDownWindow {
                node: 0,
                dim: 0,
                plus: true,
                from_ns: 0,
                until_ns: 1,
            })
        });
        single(|p| {
            p.node_crash.push(NodeCrashWindow {
                node: 0,
                at_ns: 0,
                restart_after_ns: Some(1),
            })
        });
    }

    #[test]
    fn validate_accepts_sane_plans() {
        assert_eq!(FaultPlan::none().validate(), Ok(()));
        let mut p = FaultPlan::uniform_drop(7, 0.5);
        p.smsg_corrupt = 0.5;
        assert_eq!(p.validate(), Ok(()), "drop + corrupt == 1 is allowed");
    }

    #[test]
    fn validate_rejects_drop_corrupt_over_budget() {
        let mut p = FaultPlan::none();
        p.bte_drop = 0.7;
        p.bte_corrupt = 0.5;
        assert_eq!(
            p.validate(),
            Err(FaultPlanError::DropCorruptBudget {
                mechanism: "bte",
                sum: 1.2
            })
        );
    }

    #[test]
    fn validate_rejects_bad_probability_and_windows() {
        let mut p = FaultPlan::none();
        p.reg_fail = 1.5;
        assert!(matches!(
            p.validate(),
            Err(FaultPlanError::ProbabilityOutOfRange {
                field: "reg_fail",
                ..
            })
        ));
        let mut p = FaultPlan::none();
        p.smsg_drop = -0.1;
        assert!(matches!(
            p.validate(),
            Err(FaultPlanError::ProbabilityOutOfRange {
                field: "smsg_drop",
                ..
            })
        ));
        let mut p = FaultPlan::none();
        p.link_down.push(LinkDownWindow {
            node: 0,
            dim: 0,
            plus: true,
            from_ns: 100,
            until_ns: 100,
        });
        assert_eq!(
            p.validate(),
            Err(FaultPlanError::EmptyLinkWindow { index: 0 })
        );
        let mut p = FaultPlan::none();
        for _ in 0..2 {
            p.node_crash.push(NodeCrashWindow {
                node: 3,
                at_ns: 50,
                restart_after_ns: None,
            });
        }
        assert_eq!(
            p.validate(),
            Err(FaultPlanError::DuplicateCrash { node: 3 })
        );
    }

    #[test]
    fn crash_window_coverage_and_restart() {
        let w = NodeCrashWindow {
            node: 2,
            at_ns: 1_000,
            restart_after_ns: Some(500),
        };
        assert_eq!(w.restart_at(), Some(1_500));
        assert!(!w.covers(2, 999));
        assert!(w.covers(2, 1_000));
        assert!(w.covers(2, 1_499));
        assert!(!w.covers(2, 1_500), "restart instant is back up");
        assert!(!w.covers(1, 1_200), "other nodes unaffected");

        let forever = NodeCrashWindow {
            node: 2,
            at_ns: 1_000,
            restart_after_ns: None,
        };
        assert_eq!(forever.restart_at(), None);
        assert!(forever.covers(2, u64::MAX));

        let mut p = FaultPlan::none();
        p.node_crash.push(w);
        assert!(p.node_is_down(2, 1_200));
        assert!(!p.node_is_down(2, 2_000));
        assert!(!p.node_dead_forever(2, 1_200), "restart is coming");
        p.node_crash.push(NodeCrashWindow {
            node: 4,
            at_ns: 10,
            restart_after_ns: None,
        });
        assert!(p.node_dead_forever(4, 10));
        assert!(!p.node_dead_forever(4, 9));
    }

    #[test]
    fn window_covers_matching_link_in_interval() {
        let w = LinkDownWindow {
            node: 3,
            dim: 1,
            plus: false,
            from_ns: 100,
            until_ns: 200,
        };
        let link = LinkId {
            from: 3,
            dim: 1,
            plus: false,
        };
        assert!(w.covers(&link, 100));
        assert!(w.covers(&link, 199));
        assert!(!w.covers(&link, 99));
        assert!(!w.covers(&link, 200), "until is exclusive");
        let other = LinkId {
            from: 3,
            dim: 1,
            plus: true,
        };
        assert!(!w.covers(&other, 150), "direction must match");
    }

    #[test]
    fn route_down_detection() {
        let mut p = FaultPlan::none();
        p.link_down.push(LinkDownWindow {
            node: 0,
            dim: 0,
            plus: true,
            from_ns: 0,
            until_ns: 1000,
        });
        let hit = LinkId {
            from: 0,
            dim: 0,
            plus: true,
        };
        let miss = LinkId {
            from: 1,
            dim: 0,
            plus: true,
        };
        assert!(p.route_is_down([miss, hit], 500));
        assert!(!p.route_is_down([miss], 500));
        assert!(!p.route_is_down([hit], 1000));
    }
}
