//! Configuration of the uGNI machine layer. Every optimization the paper
//! introduces is individually switchable so the ablation figures (6, 8a,
//! 8b, 8c) can be regenerated from the same code.

use gemini_net::GeminiParams;
use sim_core::Time;

/// Which small-message facility to use (paper §II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmallPath {
    /// Per-peer SMSG mailboxes: best performance, memory grows with the
    /// number of connections.
    Smsg,
    /// Shared per-node message queue: memory grows only with node count,
    /// at lower performance.
    Msgq,
}

/// Intra-node delivery strategy (paper §IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntraNode {
    /// Send through uGNI even for co-located PEs — simple, but the NIC
    /// becomes a bottleneck under mixed traffic (the paper's "original
    /// uGNI-based" curve in Fig. 8c).
    NetworkLoopback,
    /// POSIX-shared-memory with sender copy-in and receiver copy-out.
    PxshmDoubleCopy,
    /// Sender-side single copy: the receiver consumes the shared-memory
    /// message in place (works because the runtime owns message buffers).
    PxshmSingleCopy,
}

/// uGNI machine-layer configuration.
#[derive(Debug, Clone)]
pub struct UgniConfig {
    /// Hardware model parameters.
    pub params: GeminiParams,
    /// Small-message facility (§II-B).
    pub small_path: SmallPath,
    /// Use the pre-registered memory pool for message buffers (§IV-B).
    /// Off reproduces the paper's "initial design" of Fig. 6.
    pub use_mempool: bool,
    /// Intra-node strategy (§IV-C).
    pub intranode: IntraNode,
    /// Fixed pxshm handshake overhead per message per side (lock/fence +
    /// notify), ns.
    pub shm_overhead: Time,
    /// Latency until the receiver's progress engine notices a shared-memory
    /// message, ns.
    pub shm_notice: Time,
    /// SMP mode (paper §VII future work): one communication thread per
    /// node runs the progress engine, so protocol processing neither
    /// consumes worker-PE time nor waits for busy workers, and intra-node
    /// messages pass by pointer within the shared address space.
    pub smp: bool,
    /// Worker -> comm-thread handoff cost per message in SMP mode (ns).
    pub smp_handoff: Time,
}

impl UgniConfig {
    /// The fully optimized configuration the paper evaluates in §V.
    pub fn optimized() -> Self {
        UgniConfig {
            params: GeminiParams::hopper(),
            small_path: SmallPath::Smsg,
            use_mempool: true,
            intranode: IntraNode::PxshmSingleCopy,
            shm_overhead: 250,
            shm_notice: 400,
            smp: false,
            smp_handoff: 120,
        }
    }

    /// The "initial version" of §III-C: no memory pool, no pxshm.
    pub fn initial() -> Self {
        UgniConfig {
            use_mempool: false,
            intranode: IntraNode::NetworkLoopback,
            ..Self::optimized()
        }
    }

    pub fn with_mempool(mut self, on: bool) -> Self {
        self.use_mempool = on;
        self
    }

    pub fn with_intranode(mut self, mode: IntraNode) -> Self {
        self.intranode = mode;
        self
    }

    pub fn with_small_path(mut self, path: SmallPath) -> Self {
        self.small_path = path;
        self
    }

    pub fn with_smp(mut self, on: bool) -> Self {
        self.smp = on;
        self
    }
}

impl Default for UgniConfig {
    fn default() -> Self {
        Self::optimized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_as_documented() {
        let opt = UgniConfig::optimized();
        let ini = UgniConfig::initial();
        assert!(opt.use_mempool && !ini.use_mempool);
        assert_eq!(opt.intranode, IntraNode::PxshmSingleCopy);
        assert_eq!(ini.intranode, IntraNode::NetworkLoopback);
    }

    #[test]
    fn builders_compose() {
        let c = UgniConfig::optimized()
            .with_mempool(false)
            .with_intranode(IntraNode::PxshmDoubleCopy);
        assert!(!c.use_mempool);
        assert_eq!(c.intranode, IntraNode::PxshmDoubleCopy);
    }
}
