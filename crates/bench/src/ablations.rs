//! Ablation studies for the design choices DESIGN.md §5 calls out, beyond
//! the paper's own figures:
//!
//! * SMSG vs MSGQ (performance vs mailbox memory, paper §II-B);
//! * SMP mode vs classic non-SMP (paper §VII future work);
//! * GET- vs PUT-based rendezvous (paper §III-C's design argument).

use crate::rendezvous;
use charm_apps::kneighbor::kneighbor_iteration_time;
use charm_apps::pingpong::charm_one_way;
use charm_apps::LayerKind;
use gemini_net::{GeminiParams, RdmaOp};
use lrts_ugni::{SmallPath, UgniConfig};

/// The three ablation tables, as `all` and the `ablations` binary print
/// them. Deterministic, like every figure.
pub fn ablations() -> String {
    let p = GeminiParams::hopper();
    let mut out = String::new();

    out.push_str("## Ablation: SMSG vs MSGQ (small-message facility, paper §II-B)\n");
    out.push_str(&format!(
        "{:>8}  {:>14}  {:>14}\n",
        "bytes", "SMSG us", "MSGQ us"
    ));
    for bytes in [8usize, 64, 256, 1024] {
        let smsg = charm_one_way(&LayerKind::ugni(), 1, bytes, 40, false) / 1000.0;
        let msgq = charm_one_way(
            &LayerKind::Ugni(UgniConfig::optimized().with_small_path(SmallPath::Msgq)),
            1,
            bytes,
            40,
            false,
        ) / 1000.0;
        out.push_str(&format!("{bytes:>8}  {smsg:>14.3}  {msgq:>14.3}\n"));
    }
    out.push_str("\nper-node mailbox memory (KiB):\n");
    out.push_str(&format!(
        "{:>8}  {:>14}  {:>14}\n",
        "nodes", "SMSG (per-peer)", "MSGQ (shared)"
    ));
    for nodes in [16u32, 128, 1024, 8192] {
        out.push_str(&format!(
            "{:>8}  {:>14}  {:>14}\n",
            nodes,
            p.smsg_mailbox_bytes(nodes) / 1024,
            p.msgq_mailbox_bytes(nodes) / 1024
        ));
    }

    out.push_str("\n## Ablation: SMP mode (comm thread per node, paper §VII)\n");
    out.push_str(&format!(
        "{:>8}  {:>16}  {:>16}\n",
        "bytes", "classic us/iter", "SMP us/iter"
    ));
    for bytes in [4096usize, 65_536, 262_144] {
        let classic = kneighbor_iteration_time(&LayerKind::ugni(), 6, 2, 1, bytes, 8) / 1000.0;
        let smp = kneighbor_iteration_time(
            &LayerKind::Ugni(UgniConfig::optimized().with_smp(true)),
            6,
            2,
            1,
            bytes,
            8,
        ) / 1000.0;
        out.push_str(&format!("{bytes:>8}  {classic:>16.3}  {smp:>16.3}\n"));
    }

    out.push_str("\n## Ablation: GET- vs PUT-based rendezvous (paper §III-C)\n");
    out.push_str("(data-landed virtual time; PUT pays one extra control message)\n");
    out.push_str(&format!(
        "{:>8}  {:>14}  {:>14}\n",
        "bytes", "GET ns", "PUT ns"
    ));
    for bytes in [4096u64, 65_536, 1 << 20] {
        let get = rendezvous(RdmaOp::Get, bytes);
        let put = rendezvous(RdmaOp::Put, bytes);
        out.push_str(&format!("{bytes:>8}  {get:>14}  {put:>14}\n"));
    }
    out
}
