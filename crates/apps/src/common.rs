//! Shared harness plumbing: layer selection and cluster construction.

use charm_rt::prelude::*;
use gemini_net::{FaultPlan, GeminiParams};
use lrts_mpi::MpiLayer;
use lrts_ugni::{UgniConfig, UgniLayer};
use mpi_sim::MpiConfig;
use sim_core::Time;

/// Which machine layer to run a benchmark on.
#[derive(Debug, Clone)]
pub enum LayerKind {
    /// The paper's uGNI machine layer (configurable optimizations).
    Ugni(UgniConfig),
    /// The MPI-based baseline.
    Mpi(MpiConfig),
    /// Perfect network with constant latency (ablation baseline).
    Ideal(Time),
}

impl LayerKind {
    pub fn ugni() -> Self {
        LayerKind::Ugni(UgniConfig::optimized())
    }

    pub fn mpi() -> Self {
        LayerKind::Mpi(MpiConfig::default())
    }

    pub fn name(&self) -> &'static str {
        match self {
            LayerKind::Ugni(_) => "uGNI-based CHARM++",
            LayerKind::Mpi(_) => "MPI-based CHARM++",
            LayerKind::Ideal(_) => "ideal network",
        }
    }

    /// Chaos knob: run this layer's fabric under `plan`. The ideal layer
    /// has no fabric to break, so the plan is ignored there.
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        match &mut self {
            LayerKind::Ugni(cfg) => cfg.params.fault = plan,
            LayerKind::Mpi(cfg) => cfg.params.fault = plan,
            LayerKind::Ideal(_) => {}
        }
        self
    }

    /// The fault plan this layer will run under.
    pub fn fault(&self) -> FaultPlan {
        match self {
            LayerKind::Ugni(cfg) => cfg.params.fault.clone(),
            LayerKind::Mpi(cfg) => cfg.params.fault.clone(),
            LayerKind::Ideal(_) => FaultPlan::default(),
        }
    }

    pub fn make_layer(&self) -> Box<dyn MachineLayer> {
        match self {
            LayerKind::Ugni(cfg) => Box::new(UgniLayer::new(cfg.clone())),
            LayerKind::Mpi(cfg) => Box::new(MpiLayer::new(cfg.clone())),
            LayerKind::Ideal(lat) => Box::new(IdealLayer::new(*lat)),
        }
    }

    /// Hardware parameters used by this layer (for cost models in apps).
    pub fn params(&self) -> GeminiParams {
        match self {
            LayerKind::Ugni(cfg) => cfg.params.clone(),
            LayerKind::Mpi(cfg) => cfg.params.clone(),
            LayerKind::Ideal(_) => GeminiParams::hopper(),
        }
    }

    /// Build a cluster on this layer from `cfg` — the one place the
    /// layer's fault plan is stamped into `cfg.fault`. Everything else
    /// (`threads`, `trace_bucket`, `seed`, …) is the caller's to set on
    /// `cfg`; `enable_ft` / `am_config` are calls on the result.
    pub fn build(&self, mut cfg: ClusterCfg) -> Cluster {
        cfg.fault = self.fault();
        Cluster::new(cfg, self.make_layer())
    }

    /// [`LayerKind::build`] with every knob at its default.
    pub fn cluster(&self, num_pes: u32, cores_per_node: u32) -> Cluster {
        self.build(ClusterCfg::new(num_pes, cores_per_node))
    }

    /// [`LayerKind::build`], run `app` on the cluster, and check the
    /// layer's uGNI usage afterwards: what the apps' four-argument entry
    /// points are made of.
    pub fn run_checked<R>(&self, cfg: ClusterCfg, app: impl FnOnce(&mut Cluster) -> R) -> R {
        let mut c = self.build(cfg);
        let r = app(&mut c);
        assert_contract_clean(&mut c);
        r
    }
}

/// After a run, assert the machine layer's uGNI usage was contract clean.
/// With the `verify` feature off (release figure builds) the layers report
/// `None` and this is a no-op, as it is on a layer that is neither
/// [`UgniLayer`] nor [`MpiLayer`]; under `cargo test` the
/// integration-tests crate turns verification on and every app run doubles
/// as a contract check.
pub fn assert_contract_clean(c: &mut Cluster) {
    // A crashed endpoint dies mid-protocol by design: its half-open
    // transactions are exactly what the FT layer exists to absorb, so
    // contract verification is meaningless under a node-crash plan.
    if c.cfg.fault.has_node_crash() {
        return;
    }
    let report = match c.try_layer_mut::<UgniLayer>() {
        Some(l) => l.contract_report(),
        None => c
            .try_layer_mut::<MpiLayer>()
            .and_then(|l| l.contract_report()),
    };
    if let Some(report) = report {
        assert!(report.is_clean(), "uGNI contract violations:\n{report}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_kinds_construct() {
        for k in [LayerKind::ugni(), LayerKind::mpi(), LayerKind::Ideal(500)] {
            let c = k.cluster(4, 2);
            assert_eq!(c.cfg.num_pes, 4);
            assert!(!k.name().is_empty());
        }
    }
}
