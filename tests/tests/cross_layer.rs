//! Cross-crate integration tests: the same applications must produce
//! identical *results* on every machine layer (uGNI, MPI, ideal) — only
//! the virtual timing may differ. This exercises the full stack: app ->
//! charm arrays/reductions -> converse -> LRTS -> simulated uGNI/MPI ->
//! Gemini fabric.

use charm_apps::jacobi2d::{jacobi_sequential, run_jacobi, JacobiConfig};
use charm_apps::minimd::{self, run_minimd, MdConfig, System};
use charm_apps::nqueens::{known_solutions, run_nqueens, NqConfig, WorkMode};
use charm_apps::{assert_contract_clean, LayerKind};
use lrts_mpi::MpiLayer;

fn layers() -> Vec<LayerKind> {
    vec![LayerKind::ugni(), LayerKind::mpi(), LayerKind::Ideal(1_200)]
}

#[test]
fn nqueens_exact_identical_across_layers() {
    let cfg = NqConfig {
        n: 10,
        threshold: 4,
        mode: WorkMode::Exact { ns_per_node: 120 },
        seed: 5,
    };
    for layer in layers() {
        let r = run_nqueens(&layer, 12, 4, &cfg);
        assert_eq!(
            Some(r.solutions),
            known_solutions(10),
            "wrong count on {}",
            layer.name()
        );
    }
}

#[test]
fn nqueens_task_count_independent_of_layer() {
    let cfg = NqConfig {
        n: 9,
        threshold: 3,
        mode: WorkMode::Exact { ns_per_node: 120 },
        seed: 6,
    };
    let counts: Vec<u64> = layers()
        .iter()
        .map(|l| run_nqueens(l, 8, 4, &cfg).tasks)
        .collect();
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "task counts diverged: {counts:?}"
    );
}

#[test]
fn jacobi_identical_across_layers_and_matches_sequential() {
    let cfg = JacobiConfig {
        n: 20,
        blocks: 4,
        iters: 15,
    };
    let (seq, _) = jacobi_sequential(20, 15);
    for layer in layers() {
        let r = run_jacobi(&layer, 8, 4, &cfg);
        assert_eq!(r.grid, seq, "grid mismatch on {}", layer.name());
    }
}

#[test]
fn minimd_completes_on_all_layers() {
    let cfg = MdConfig {
        atoms: 5_000,
        steps: 3,
        ns_per_atom: 21_233,
        patches: None,
        pme_bytes: 2_048,
        lb_at_step: Some(1),
        imbalance: 0.3,
        seed: 7,
    };
    for layer in layers() {
        let r = run_minimd(&layer, 12, 4, &cfg);
        assert_eq!(r.steps, 3, "{} lost steps", layer.name());
        assert!(r.ms_per_step > 0.0);
    }
}

#[test]
fn ugni_faster_than_mpi_on_every_app() {
    // The paper's headline: the uGNI machine layer wins end to end.
    // Fine grain: enough tasks per PE that the systematic per-message
    // advantage dominates placement noise (at coarse grain, random task
    // placement varies with delivery order and can swing either way).
    let nq = NqConfig {
        n: 12,
        threshold: 5,
        mode: WorkMode::Modeled {
            total_seq_ns: 500_000_000,
            alpha: 1.2,
        },
        seed: 8,
    };
    let nq_u = run_nqueens(&LayerKind::ugni(), 48, 24, &nq).time_ns;
    let nq_m = run_nqueens(&LayerKind::mpi(), 48, 24, &nq).time_ns;
    assert!(nq_u < nq_m, "nqueens: uGNI {nq_u} !< MPI {nq_m}");

    let md = MdConfig {
        atoms: 10_000,
        steps: 3,
        ns_per_atom: 21_233,
        patches: None,
        pme_bytes: 2_048,
        lb_at_step: None,
        imbalance: 0.2,
        seed: 9,
    };
    let md_u = run_minimd(&LayerKind::ugni(), 48, 24, &md).ms_per_step;
    let md_m = run_minimd(&LayerKind::mpi(), 48, 24, &md).ms_per_step;
    assert!(md_u < md_m, "minimd: uGNI {md_u} !< MPI {md_m}");
}

#[test]
fn determinism_across_repeated_runs() {
    let cfg = NqConfig {
        n: 11,
        threshold: 4,
        mode: WorkMode::Exact { ns_per_node: 100 },
        seed: 10,
    };
    for layer in [LayerKind::ugni(), LayerKind::mpi()] {
        let a = run_nqueens(&layer, 16, 4, &cfg);
        let b = run_nqueens(&layer, 16, 4, &cfg);
        assert_eq!(a.time_ns, b.time_ns, "{} nondeterministic", layer.name());
        assert_eq!(a.tasks, b.tasks);
    }
}

/// ApoA1 miniMD without load balancing on the MPI layer at 16 PEs × 4;
/// returns the cluster for the caller to look inside. Each step a rank
/// posts an FMA eager PUT right behind a BTE one, whose completion it has
/// already drained at a later instant.
fn minimd_on_mpi(steps: u32) -> charm_rt::prelude::Cluster {
    let mut md = MdConfig::for_system(System::Apoa1, steps);
    md.lb_at_step = None;
    let mut c = LayerKind::mpi().cluster(16, 4);
    let r = minimd::run_on(&mut c, &md);
    assert_eq!(r.steps, steps);
    c
}

#[test]
fn minimd_on_mpi_consumes_each_cq_in_time_order() {
    assert_contract_clean(&mut minimd_on_mpi(3));
}

#[test]
fn mpi_layer_retains_nothing_per_message() {
    // What the MPI library's uGNI instance still holds after the run:
    // buffers with content, and the verifier's stale-content advisories.
    let retained = |steps| {
        let mut c = minimd_on_mpi(steps);
        let layer = c.layer_mut::<MpiLayer>();
        let report = layer
            .contract_report()
            .expect("the tests crate turns the verify feature on");
        let stats = &layer.mpi().stats;
        assert!(stats.eager_msgs > 0 && stats.rndv_msgs > 0, "{stats:?}");
        (layer.mpi().gni().contents_len(), report.stale_content())
    };
    let (few, many) = (retained(3), retained(12));
    assert_eq!(few, many, "(buffers with content, stale advisories)");
    // One pre-registered eager slot per rank is all that may stay.
    assert!(many.0 <= 16 && many.1 <= 16, "{many:?}");
    assert!(many.0 > 0, "the eager PUT path was not exercised");
}
