//! N-Queens on the state-space search engine (paper §V-C, Fig. 11,
//! Fig. 12, Table I).
//!
//! "A task-based parallelization scheme is used, wherein each task is
//! responsible for the exploration of some states and spawn new tasks if
//! necessary. After a new task is dynamically created, it is randomly
//! assigned to a processor. The grain size of each task is controlled by a
//! user-defined threshold."
//!
//! Tasks are bitboard prefixes (occupied columns + both diagonal masks).
//! Above the threshold depth a task expands into one child per valid
//! placement; at the threshold it becomes a *leaf* and the remaining
//! subproblem is solved sequentially.
//!
//! Two leaf work modes (DESIGN.md §4):
//!
//! * [`WorkMode::Exact`] really enumerates the subtree (used for N ≤ 13,
//!   validated against the known solution counts);
//! * [`WorkMode::Modeled`] charges virtual time drawn from a heavy-tailed
//!   prefix-seeded distribution calibrated so the total equals a
//!   paper-derived sequential solve time — full enumeration of 19-Queens
//!   (4.97e9 solutions) is out of laptop scope, but the *load-imbalance
//!   shape* (the long tail of Fig. 12a) is preserved because it comes from
//!   leaf-cost variance either way.

use crate::common::LayerKind;
use charm_rt::prelude::*;
use sim_core::{DetRng, Time};

/// How leaf tasks account their work.
#[derive(Debug, Clone, Copy)]
pub enum WorkMode {
    /// Enumerate the remaining subtree; charge `ns_per_node` per visited
    /// search node.
    Exact { ns_per_node: u64 },
    /// Charge a heavy-tailed random cost with the given total budget
    /// across all leaves (`alpha` = Pareto shape, smaller = heavier tail).
    Modeled { total_seq_ns: u64, alpha: f64 },
}

#[derive(Debug, Clone)]
pub struct NqConfig {
    pub n: u32,
    pub threshold: u32,
    pub mode: WorkMode,
    pub seed: u64,
}

#[derive(Debug, Clone, Default)]
pub struct NqResult {
    /// Exact mode only: number of solutions found.
    pub solutions: u64,
    /// Tasks executed (== messages spawned + the seed).
    pub tasks: u64,
    /// Search nodes visited (exact) or leaves charged (modeled).
    pub nodes: u64,
    /// Completion time (virtual ns).
    pub time_ns: Time,
    /// Busy/overhead/idle fractions over the run.
    pub utilization: (f64, f64, f64),
}

/// Count solutions and visited nodes of the subtree below a prefix.
fn solve_seq(n: u32, row: u32, cols: u64, d1: u64, d2: u64) -> (u64, u64) {
    if row == n {
        return (1, 1);
    }
    let full = (1u64 << n) - 1;
    let mut free = full & !(cols | d1 | d2);
    let mut solutions = 0;
    let mut nodes = 1;
    while free != 0 {
        let bit = free & free.wrapping_neg();
        free ^= bit;
        let (s, nd) = solve_seq(
            n,
            row + 1,
            cols | bit,
            ((d1 | bit) << 1) & full,
            (d2 | bit) >> 1,
        );
        solutions += s;
        nodes += nd;
    }
    (solutions, nodes)
}

/// Number of valid prefixes at exactly `depth` (the leaf-task count) and
/// the total number of expansion tasks above them.
pub fn count_tasks(n: u32, threshold: u32) -> (u64, u64) {
    fn walk(n: u32, depth_left: u32, cols: u64, d1: u64, d2: u64) -> (u64, u64) {
        if depth_left == 0 {
            return (1, 0);
        }
        let full = (1u64 << n) - 1;
        let mut free = full & !(cols | d1 | d2);
        let mut leaves = 0;
        let mut inner = 1;
        while free != 0 {
            let bit = free & free.wrapping_neg();
            free ^= bit;
            let (l, i) = walk(
                n,
                depth_left - 1,
                cols | bit,
                ((d1 | bit) << 1) & full,
                (d2 | bit) >> 1,
            );
            leaves += l;
            inner += i;
        }
        (leaves, inner)
    }
    let (leaves, inner) = walk(n, threshold, 0, 0, 0);
    (leaves, inner)
}

/// Paper-derived sequential solve times (ns), calibrated from Table I as
/// `best_time x cores x 0.85` (85% parallel efficiency at the paper's best
/// configuration). Used by the Modeled work mode.
pub fn calibrated_seq_ns(n: u32) -> u64 {
    match n {
        14 => 1_090_000_000,
        15 => 2_860_000_000,
        16 => 18_300_000_000,
        17 => 94_700_000_000,
        18 => 587_000_000_000,
        19 => 4_308_000_000_000,
        // Below the paper's table: extrapolate with the measured exact
        // growth rate (~x6 per queen from a 120ns/node exact solve).
        _ => {
            let (_, nodes) = solve_seq(n.min(13), 0, 0, 0, 0);
            nodes * 120
        }
    }
}

struct NqPe {
    stats: SsseStats,
}

/// Run the search on a default cluster of `layer` with `num_pes` PEs.
pub fn run_nqueens(
    layer: &LayerKind,
    num_pes: u32,
    cores_per_node: u32,
    cfg: &NqConfig,
) -> NqResult {
    layer.run_checked(ClusterCfg::new(num_pes, cores_per_node), |c| run_on(c, cfg))
}

/// Run the search on a cluster the caller built; returns totals after the
/// job drains. For a Fig.-12 timeline build the cluster with
/// `trace_bucket` set and read `c.trace().render_profile()` afterwards.
pub fn run_on(c: &mut Cluster, cfg: &NqConfig) -> NqResult {
    c.init_user(|_| NqPe {
        stats: SsseStats::default(),
    });
    let n = cfg.n;
    let threshold = cfg.threshold;
    let mode = cfg.mode;
    let seed = cfg.seed;
    // Mean leaf budget for the modeled path, and the analytic mean of the
    // leaf-cost draw that normalizes each draw to it.
    let (mean_leaf_ns, leaf_draw_mean) = match mode {
        WorkMode::Modeled {
            total_seq_ns,
            alpha,
        } => {
            let (leaves, _) = count_tasks(n, threshold);
            let (lo, hi) = LEAF_SPREAD;
            (
                (total_seq_ns as f64 / leaves.max(1) as f64).max(1.0),
                bounded_pareto_mean(lo, hi, alpha),
            )
        }
        WorkMode::Exact { .. } => (0.0, 1.0),
    };

    let ssse = Ssse::register::<NqPe>(c, move |ctx, me, payload| {
        let depth = wire::unpack_u64(&payload, 0) as u32;
        let cols = wire::unpack_u64(&payload, 1);
        let d1 = wire::unpack_u64(&payload, 2);
        let d2 = wire::unpack_u64(&payload, 3);
        ctx.user::<NqPe>().stats.tasks += 1;

        if depth < threshold {
            // Expansion task: one child per valid placement, randomly
            // placed (paper §V-C). Charge a small expansion cost.
            let full = (1u64 << n) - 1;
            let mut free = full & !(cols | d1 | d2);
            let mut kids = 0;
            while free != 0 {
                let bit = free & free.wrapping_neg();
                free ^= bit;
                me.spawn(
                    ctx,
                    wire::pack_u64s(&[
                        (depth + 1) as u64,
                        cols | bit,
                        ((d1 | bit) << 1) & full,
                        (d2 | bit) >> 1,
                    ]),
                );
                kids += 1;
            }
            ctx.charge(300 + 60 * kids);
            ctx.user::<NqPe>().stats.nodes += 1;
            return;
        }

        // Leaf task.
        match mode {
            WorkMode::Exact { ns_per_node } => {
                let (sols, nodes) = solve_seq(n, depth, cols, d1, d2);
                ctx.charge(nodes * ns_per_node);
                let st = &mut ctx.user::<NqPe>().stats;
                st.results += sols;
                st.nodes += nodes;
            }
            WorkMode::Modeled { alpha, .. } => {
                // Prefix-seeded heavy-tail cost, normalized to unit mean.
                let key = cols
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(d1)
                    .rotate_left(17)
                    .wrapping_add(d2);
                let mut rng = DetRng::derive(seed, key);
                let (lo, hi) = LEAF_SPREAD;
                let x = rng.bounded_pareto(lo, hi, alpha);
                let cost = (mean_leaf_ns * x / leaf_draw_mean).max(1.0) as u64;
                ctx.charge(cost);
                ctx.user::<NqPe>().stats.nodes += 1;
            }
        }
    });
    ssse.seed(c, 0, 0, wire::pack_u64s(&[0, 0, 0, 0]));
    let report = c.run();
    let total = charm_rt::ssse::sum_stats::<NqPe>(c, |u| &u.stats);
    let end = c.trace().end_time().max(report.end_time);
    NqResult {
        solutions: total.results,
        tasks: total.tasks,
        nodes: total.nodes,
        time_ns: end,
        utilization: c.trace().utilization(Some(end)),
    }
}

/// Support of the modeled leaf cost's bounded Pareto, chosen so the
/// largest leaf is ~30x the mean: heavy enough to produce the paper's
/// Fig. 12a long tail at coarse grain, light enough that fine grain
/// (threshold 7) still scales to thousands of cores as in Fig. 11.
const LEAF_SPREAD: (f64, f64) = (0.1, 30.0);

/// Analytic mean of the bounded Pareto on `[lo, hi]` with shape `alpha`.
fn bounded_pareto_mean(lo: f64, hi: f64, alpha: f64) -> f64 {
    let la = lo.powf(alpha);
    let ha = hi.powf(alpha);
    (la / (1.0 - la / ha))
        * (alpha / (alpha - 1.0))
        * (1.0 / lo.powf(alpha - 1.0) - 1.0 / hi.powf(alpha - 1.0))
}

/// Known N-Queens solution counts for validation.
pub fn known_solutions(n: u32) -> Option<u64> {
    Some(match n {
        1 => 1,
        2 | 3 => 0,
        4 => 2,
        5 => 10,
        6 => 4,
        7 => 40,
        8 => 92,
        9 => 352,
        10 => 724,
        11 => 2_680,
        12 => 14_200,
        13 => 73_712,
        14 => 365_596,
        15 => 2_279_184,
        16 => 14_772_512,
        17 => 95_815_104,
        18 => 666_090_624,
        19 => 4_968_057_848,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_solver_matches_known_counts() {
        for n in 1..=11 {
            let (sols, _) = solve_seq(n, 0, 0, 0, 0);
            assert_eq!(Some(sols), known_solutions(n), "N={n}");
        }
    }

    #[test]
    fn parallel_exact_matches_sequential() {
        for (n, threshold, pes) in [(8, 3, 4), (9, 2, 8), (10, 4, 16)] {
            let cfg = NqConfig {
                n,
                threshold,
                mode: WorkMode::Exact { ns_per_node: 120 },
                seed: 1,
            };
            let r = run_nqueens(&LayerKind::ugni(), pes, 4, &cfg);
            assert_eq!(Some(r.solutions), known_solutions(n), "N={n}");
            assert!(r.tasks > 1);
            assert!(r.time_ns > 0);
        }
    }

    #[test]
    fn exact_matches_on_mpi_layer_too() {
        let cfg = NqConfig {
            n: 8,
            threshold: 4,
            mode: WorkMode::Exact { ns_per_node: 120 },
            seed: 2,
        };
        let r = run_nqueens(&LayerKind::mpi(), 6, 3, &cfg);
        assert_eq!(r.solutions, 92);
    }

    #[test]
    fn task_counts_match_enumeration() {
        let (leaves, inner) = count_tasks(8, 3);
        // Depth-3 valid prefixes for 8 queens.
        let mut expect = 0;
        let full = 255u64;
        for a in 0..8u64 {
            for b in 0..8u64 {
                for c in 0..8u64 {
                    let (ba, bb, bc) = (1 << a, 1 << b, 1 << c);
                    let cols1 = ba;
                    let d11 = (ba << 1) & full;
                    let d21 = ba >> 1;
                    if bb & (cols1 | d11 | d21) != 0 {
                        continue;
                    }
                    let cols2 = cols1 | bb;
                    let d12 = ((d11 | bb) << 1) & full;
                    let d22 = (d21 | bb) >> 1;
                    if bc & (cols2 | d12 | d22) != 0 {
                        continue;
                    }
                    expect += 1;
                }
            }
        }
        assert_eq!(leaves, expect);
        assert!(inner > 0);
    }

    #[test]
    fn threshold_controls_grain() {
        // Paper: "Increasing the threshold decreases the grain size and
        // increases the parallelism" (more messages).
        let (l6, _) = count_tasks(12, 3);
        let (l7, _) = count_tasks(12, 4);
        assert!(l7 > l6 * 4, "deeper threshold must multiply tasks");
    }

    #[test]
    fn modeled_total_work_matches_budget() {
        // Total charged work should approximate the configured budget.
        let total = 50_000_000u64; // 50 ms
        let cfg = NqConfig {
            n: 10,
            threshold: 3,
            mode: WorkMode::Modeled {
                total_seq_ns: total,
                alpha: 1.2,
            },
            seed: 7,
        };
        let r = run_nqueens(&LayerKind::ugni(), 16, 4, &cfg);
        // time * pes * busy_frac == busy total ~ budget (within tail noise).
        let busy_total = r.time_ns as f64 * 16.0 * r.utilization.0;
        let ratio = busy_total / total as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "modeled work off: busy {busy_total:.2e} vs budget {total:.2e}"
        );
    }

    #[test]
    fn modeled_is_deterministic() {
        let cfg = NqConfig {
            n: 10,
            threshold: 3,
            mode: WorkMode::Modeled {
                total_seq_ns: 10_000_000,
                alpha: 1.2,
            },
            seed: 9,
        };
        let a = run_nqueens(&LayerKind::ugni(), 8, 4, &cfg);
        let b = run_nqueens(&LayerKind::ugni(), 8, 4, &cfg);
        assert_eq!(a.time_ns, b.time_ns);
        assert_eq!(a.tasks, b.tasks);
    }

    #[test]
    fn more_pes_run_faster() {
        let cfg = NqConfig {
            n: 11,
            threshold: 5,
            mode: WorkMode::Modeled {
                total_seq_ns: 200_000_000,
                alpha: 1.2,
            },
            seed: 3,
        };
        let t4 = run_nqueens(&LayerKind::ugni(), 4, 4, &cfg).time_ns;
        let t16 = run_nqueens(&LayerKind::ugni(), 16, 4, &cfg).time_ns;
        assert!(
            (t16 as f64) < t4 as f64 * 0.45,
            "poor strong scaling: {t4} -> {t16}"
        );
    }

    #[test]
    fn traced_run_produces_profile() {
        let cfg = NqConfig {
            n: 9,
            threshold: 3,
            mode: WorkMode::Exact { ns_per_node: 120 },
            seed: 4,
        };
        let mut c = LayerKind::ugni().build(ClusterCfg {
            trace_bucket: Some(100_000),
            ..ClusterCfg::new(8, 4)
        });
        let r = run_on(&mut c, &cfg);
        let profile = c.trace().render_profile();
        assert_eq!(r.solutions, 352);
        assert!(profile.contains("busy%"));
        assert!(profile.lines().count() > 2);
    }
}
