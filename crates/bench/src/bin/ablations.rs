//! Ablation studies for the design choices DESIGN.md §5 calls out, beyond
//! the paper's own figures:
//!
//! * SMSG vs MSGQ (performance vs mailbox memory, paper §II-B);
//! * SMP mode vs classic non-SMP (paper §VII future work);
//! * GET- vs PUT-based rendezvous (paper §III-C's design argument).

use charm_apps::kneighbor::kneighbor_iteration_time;
use charm_apps::pingpong::charm_one_way;
use charm_apps::LayerKind;
use charm_bench::rendezvous;
use gemini_net::{GeminiParams, RdmaOp};
use lrts_ugni::{SmallPath, UgniConfig};

fn main() {
    let p = GeminiParams::hopper();

    println!("## Ablation: SMSG vs MSGQ (small-message facility, paper §II-B)");
    println!("{:>8}  {:>14}  {:>14}", "bytes", "SMSG us", "MSGQ us");
    for bytes in [8usize, 64, 256, 1024] {
        let smsg = charm_one_way(&LayerKind::ugni(), 1, bytes, 40, false) / 1000.0;
        let msgq = charm_one_way(
            &LayerKind::Ugni(UgniConfig::optimized().with_small_path(SmallPath::Msgq)),
            1,
            bytes,
            40,
            false,
        ) / 1000.0;
        println!("{bytes:>8}  {smsg:>14.3}  {msgq:>14.3}");
    }
    println!("\nper-node mailbox memory (KiB):");
    println!(
        "{:>8}  {:>14}  {:>14}",
        "nodes", "SMSG (per-peer)", "MSGQ (shared)"
    );
    for nodes in [16u32, 128, 1024, 8192] {
        println!(
            "{:>8}  {:>14}  {:>14}",
            nodes,
            p.smsg_mailbox_bytes(nodes) / 1024,
            p.msgq_mailbox_bytes(nodes) / 1024
        );
    }

    println!("\n## Ablation: SMP mode (comm thread per node, paper §VII)");
    println!(
        "{:>8}  {:>16}  {:>16}",
        "bytes", "classic us/iter", "SMP us/iter"
    );
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
        println!("{bytes:>8}  {classic:>16.3}  {smp:>16.3}");
    }

    println!("\n## Ablation: GET- vs PUT-based rendezvous (paper §III-C)");
    println!("(data-landed virtual time; PUT pays one extra control message)");
    println!("{:>8}  {:>14}  {:>14}", "bytes", "GET ns", "PUT ns");
    for bytes in [4096u64, 65_536, 1 << 20] {
        let get = rendezvous(RdmaOp::Get, bytes);
        let put = rendezvous(RdmaOp::Put, bytes);
        println!("{bytes:>8}  {get:>14}  {put:>14}");
    }
}
