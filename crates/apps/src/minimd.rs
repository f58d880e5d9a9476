//! miniMD: a NAMD-like molecular-dynamics proxy (paper §V-D, Fig. 13,
//! Table II).
//!
//! Reproduces NAMD's communication structure per timestep:
//!
//! 1. **Patches** (spatial domains) multicast their atom coordinates to
//!    the **compute objects** responsible for their pair interactions —
//!    messages in the 1–16 KB range, like the paper says;
//! 2. computes evaluate short-range forces (virtual work proportional to
//!    the atom product, with configurable initial imbalance) and return
//!    force messages to both partner patches;
//! 3. patches integrate and enter the **PME** surrogate: a global
//!    reduce-plus-broadcast carrying grid-sized payloads every step —
//!    standing in for the FFT transpose all-to-alls (DESIGN.md §1); it
//!    preserves what matters for the runtime comparison: a latency-bound
//!    global communication on every timestep.
//!
//! "Measurement-based load balancing" is modeled by switching compute
//! costs from the imbalanced initial distribution to the balanced one at a
//! configurable step, standing in for object migration.

use crate::common::LayerKind;
use bytes::Bytes;
use charm_rt::prelude::*;
use sim_core::{DetRng, Time};

/// Pair computes per patch: d = 0 (self) through MAX_D (downstream ring
/// neighbors). Each patch therefore touches 2*MAX_D + 1 = 13 computes,
/// NAMD's half-shell flavor.
const MAX_D: u64 = 6;

/// Benchmark systems from the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// 5,570 atoms.
    Iapp,
    /// 23,558 atoms.
    Dhfr,
    /// 92,224 atoms.
    Apoa1,
}

impl System {
    pub fn atoms(self) -> u64 {
        match self {
            System::Iapp => 5_570,
            System::Dhfr => 23_558,
            System::Apoa1 => 92_224,
        }
    }
}

#[derive(Debug, Clone)]
pub struct MdConfig {
    pub atoms: u64,
    pub steps: u32,
    /// Total short-range force work per atom per step (virtual ns).
    /// Calibrated from Table II: 2 cores x 979 ms/step / 92,224 atoms.
    pub ns_per_atom: u64,
    /// Number of patches (None: max(atoms/640, PEs/2), clamped to
    /// [8, 2 x PEs] — NAMD refines its decomposition as core counts grow).
    pub patches: Option<u32>,
    /// PME payload carried by the per-step global phase.
    pub pme_bytes: usize,
    /// Step at which measurement-based LB kicks in (None = off).
    pub lb_at_step: Option<u32>,
    /// Initial atom imbalance across patches (0.3 = +/-30%).
    pub imbalance: f64,
    pub seed: u64,
}

impl MdConfig {
    pub fn for_system(sys: System, steps: u32) -> Self {
        MdConfig {
            atoms: sys.atoms(),
            steps,
            ns_per_atom: 21_233,
            patches: None,
            pme_bytes: 2_048,
            lb_at_step: Some(2),
            imbalance: 0.3,
            seed: 0x4D44,
        }
    }
}

#[derive(Debug, Clone)]
pub struct MdResult {
    pub ms_per_step: f64,
    pub time_ns: Time,
    pub steps: u32,
    pub patches: u32,
    /// Busy/overhead/idle over the whole run.
    pub utilization: (f64, f64, f64),
}

struct Patch {
    coords_bytes: usize,
    forces_needed: u32,
    forces_got: u32,
    atoms: u64,
}

struct ComputeObj {
    inputs_needed: u32,
    inputs_got: u32,
    cost_imbalanced: u64,
    cost_balanced: u64,
    coords_bytes: usize,
    p: u64,
    q: u64,
}

/// Run miniMD on a default cluster of `layer`: `num_pes` PEs with
/// `cores_per_node` cores per node.
pub fn run_minimd(
    layer: &LayerKind,
    num_pes: u32,
    cores_per_node: u32,
    cfg: &MdConfig,
) -> MdResult {
    layer.run_checked(ClusterCfg::new(num_pes, cores_per_node), |c| run_on(c, cfg))
}

/// Run miniMD on a cluster the caller built.
pub fn run_on(c: &mut Cluster, cfg: &MdConfig) -> MdResult {
    let num_pes = c.cfg.num_pes;

    let patches = cfg
        .patches
        .unwrap_or_else(|| {
            ((cfg.atoms / 640) as u32)
                .max(num_pes / 2)
                .max(8)
                .min(num_pes * 2)
        })
        .max(2) as u64;

    // Atom distribution with configurable imbalance.
    let mut rng = DetRng::seed(cfg.seed);
    let weights: Vec<f64> = (0..patches)
        .map(|_| 1.0 + cfg.imbalance * (2.0 * rng.unit() - 1.0))
        .collect();
    let wsum: f64 = weights.iter().sum();
    let atoms_of: Vec<u64> = weights
        .iter()
        .map(|w| ((cfg.atoms as f64) * w / wsum).max(1.0) as u64)
        .collect();

    // Per-pair work, imbalanced and balanced, normalized so each step's
    // total equals atoms x ns_per_atom.
    let total_work = (cfg.atoms * cfg.ns_per_atom) as f64;
    let mut pair_w = Vec::new();
    let mut wtot = 0.0;
    for p in 0..patches {
        for d in 0..=MAX_D {
            let q = (p + d) % patches;
            let w = (atoms_of[p as usize] as f64) * (atoms_of[q as usize] as f64);
            pair_w.push(w);
            wtot += w;
        }
    }
    let n_computes = pair_w.len() as u64;
    let balanced_cost = (total_work / n_computes as f64) as u64;
    let costs: Vec<u64> = pair_w
        .iter()
        .map(|w| (total_work * w / wtot) as u64)
        .collect();

    let lb_at = cfg.lb_at_step.unwrap_or(u32::MAX) as u64;

    // Exact per-patch force-message counts (wraparound on small rings
    // makes some pairs self-pairs, which produce one message, not two).
    let mut forces_needed = vec![0u32; patches as usize];
    for p in 0..patches {
        for d in 0..=MAX_D {
            let q = (p + d) % patches;
            forces_needed[p as usize] += 1;
            if q != p {
                forces_needed[q as usize] += 1;
            }
        }
    }

    let patch_aid = c.create_array(patches, |p| {
        let ap = atoms_of[p as usize];
        Patch {
            coords_bytes: (ap as usize) * 24,
            forces_needed: forces_needed[p as usize],
            forces_got: 0,
            atoms: ap,
        }
    });
    let comp_aid = c.create_array(n_computes, |idx| {
        let p = idx / (MAX_D + 1);
        let d = idx % (MAX_D + 1);
        let q = (p + d) % patches;
        // The owning patch always sends one coords message (downstream
        // loop); the partner patch sends a second through its upstream
        // loop, which reaches this compute exactly when q's upstream index
        // (q - d) equals p — true for every d >= 1, including self pairs.
        ComputeObj {
            inputs_needed: if d == 0 { 1 } else { 2 },
            inputs_got: 0,
            cost_imbalanced: costs[idx as usize],
            cost_balanced: balanced_cost,
            coords_bytes: (atoms_of[p as usize].max(atoms_of[q as usize]) as usize) * 24,
            p,
            q,
        }
    });

    let ids: std::sync::Arc<std::sync::OnceLock<(EntryId, EntryId, EntryId)>> =
        std::sync::Arc::new(std::sync::OnceLock::new());

    // Compute: receive coords [step u64, ...payload]; fire when complete.
    let ids_c = ids.clone();
    let comp_recv = c.register_entry::<ComputeObj>(comp_aid, move |ctx, st, _idx, payload| {
        let (_, _, patch_force) = *ids_c.get().expect("entries registered");
        let step = wire::unpack_u64(&payload, 0);
        st.inputs_got += 1;
        ctx.charge(120);
        if st.inputs_got < st.inputs_needed {
            return;
        }
        st.inputs_got = 0;
        let cost = if step >= lb_at {
            st.cost_balanced
        } else {
            st.cost_imbalanced
        };
        ctx.charge(cost);
        // Force messages back to both partner patches (one message for a
        // self pair).
        let fmsg = vec![0u8; st.coords_bytes.max(64)];
        ctx.charm_send(patch_aid, st.p, patch_force, Bytes::from(fmsg.clone()));
        if st.q != st.p {
            ctx.charm_send(patch_aid, st.q, patch_force, Bytes::from(fmsg));
        }
    });

    // Patch: a force message arrived; integrate + contribute when done.
    let patch_force = c.register_entry::<Patch>(patch_aid, move |ctx, st, _idx, _payload| {
        st.forces_got += 1;
        ctx.charge(80);
        if st.forces_got < st.forces_needed {
            return;
        }
        st.forces_got = 0;
        // Integration.
        ctx.charge(st.atoms * 12);
        // PME surrogate: global reduce (energies + grid summary).
        ctx.contribute(patch_aid, &[st.atoms as f64, 1.0], RedOp::Sum);
    });

    // Patch: `go` — multicast coordinates to all computes touching us.
    let ids_g = ids.clone();
    let patch_go = c.register_entry::<Patch>(patch_aid, move |ctx, st, idx, payload| {
        let (comp_recv, _, _) = *ids_g.get().expect("entries registered");
        let step = wire::unpack_u64(&payload, 0);
        ctx.charge(200);
        let mut coords = Vec::with_capacity(8 + st.coords_bytes);
        coords.extend_from_slice(&step.to_le_bytes());
        coords.resize(8 + st.coords_bytes, 0);
        let coords = Bytes::from(coords);
        // Downstream computes (idx, d).
        for d in 0..=MAX_D {
            ctx.charm_send(comp_aid, idx * (MAX_D + 1) + d, comp_recv, coords.clone());
        }
        // Upstream computes ((idx - d) mod patches, d).
        for d in 1..=MAX_D {
            let p = (idx + patches - d % patches) % patches;
            ctx.charm_send(comp_aid, p * (MAX_D + 1) + d, comp_recv, coords.clone());
        }
    });
    ids.set((comp_recv, patch_go, patch_force))
        .expect("set once");

    // Client: one reduction per step -> next `go` broadcast with the PME
    // result payload.
    struct Ctl {
        steps_left: u32,
        step: u64,
        t0: Time,
        total: Time,
    }
    let steps = cfg.steps;
    c.init_user(|_| Ctl {
        steps_left: steps,
        step: 0,
        t0: 0,
        total: 0,
    });
    let pme_bytes = cfg.pme_bytes;
    let client = c.register_handler(move |ctx, _env| {
        let now = ctx.now();
        let next = {
            let ctl = ctx.user::<Ctl>();
            ctl.total += now - ctl.t0;
            ctl.t0 = now;
            ctl.steps_left -= 1;
            ctl.step += 1;
            if ctl.steps_left == 0 {
                ctx.stop();
                None
            } else {
                Some(ctl.step)
            }
        };
        if let Some(step) = next {
            // PME result distribution: grid-sized broadcast payload.
            let mut payload = vec![0u8; 8 + pme_bytes];
            payload[..8].copy_from_slice(&step.to_le_bytes());
            ctx.charm_broadcast(patch_aid, patch_go, Bytes::from(payload));
        }
    });
    c.set_reduction_client(patch_aid, client, 0);

    let mut first = vec![0u8; 8 + cfg.pme_bytes];
    first[..8].copy_from_slice(&0u64.to_le_bytes());
    c.inject_broadcast(0, patch_aid, patch_go, Bytes::from(first));
    let report = c.run();

    let ctl = c.user::<Ctl>(0);
    MdResult {
        ms_per_step: sim_core::time::to_ms(ctl.total) / cfg.steps as f64,
        time_ns: report.end_time,
        steps: cfg.steps,
        patches: patches as u32,
        utilization: c.trace().utilization(Some(report.end_time)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(atoms: u64, steps: u32) -> MdConfig {
        MdConfig {
            atoms,
            steps,
            ns_per_atom: 21_233,
            patches: None,
            pme_bytes: 2_048,
            lb_at_step: Some(2),
            imbalance: 0.3,
            seed: 42,
        }
    }

    #[test]
    fn completes_all_steps() {
        let r = run_minimd(&LayerKind::ugni(), 8, 4, &quick_cfg(4000, 4));
        assert_eq!(r.steps, 4);
        assert!(r.ms_per_step > 0.0);
        assert!(r.patches >= 2);
    }

    #[test]
    fn two_core_step_time_matches_calibration() {
        // Table II anchor: ApoA1 on 2 cores ~ 979 ms/step (uGNI).
        let mut cfg = quick_cfg(System::Apoa1.atoms(), 2);
        cfg.lb_at_step = None;
        let r = run_minimd(&LayerKind::ugni(), 2, 2, &cfg);
        assert!(
            (800.0..1200.0).contains(&r.ms_per_step),
            "2-core ApoA1 {:.0} ms/step out of band",
            r.ms_per_step
        );
    }

    #[test]
    fn strong_scaling_reduces_step_time() {
        let cfg = quick_cfg(20_000, 3);
        let t8 = run_minimd(&LayerKind::ugni(), 8, 4, &cfg).ms_per_step;
        let t32 = run_minimd(&LayerKind::ugni(), 32, 4, &cfg).ms_per_step;
        assert!(
            t32 < t8 * 0.5,
            "expected decent strong scaling: {t8:.2} -> {t32:.2} ms/step"
        );
    }

    #[test]
    fn ugni_beats_mpi_at_scale() {
        // Fig. 13 shape: ~10-18% uGNI advantage in fine-grain runs.
        let cfg = quick_cfg(10_000, 3);
        let u = run_minimd(&LayerKind::ugni(), 48, 8, &cfg).ms_per_step;
        let m = run_minimd(&LayerKind::mpi(), 48, 8, &cfg).ms_per_step;
        assert!(u < m, "uGNI {u:.3} !< MPI {m:.3} ms/step");
    }

    #[test]
    fn load_balancing_improves_step_time() {
        let mut cfg = quick_cfg(30_000, 6);
        cfg.imbalance = 0.8;
        cfg.lb_at_step = Some(3);
        let with_lb = run_minimd(&LayerKind::ugni(), 16, 4, &cfg);
        cfg.lb_at_step = None;
        let without = run_minimd(&LayerKind::ugni(), 16, 4, &cfg);
        assert!(
            with_lb.time_ns < without.time_ns,
            "LB should shorten the run: {} vs {}",
            with_lb.time_ns,
            without.time_ns
        );
    }

    #[test]
    fn deterministic() {
        let cfg = quick_cfg(5_000, 3);
        let a = run_minimd(&LayerKind::ugni(), 8, 4, &cfg).time_ns;
        let b = run_minimd(&LayerKind::ugni(), 8, 4, &cfg).time_ns;
        assert_eq!(a, b);
    }
}
