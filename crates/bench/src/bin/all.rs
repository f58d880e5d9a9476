//! Regenerates the paper's tables and figures, the fault and crash
//! sweeps and the ablations, printing EXPERIMENTS.md-ready markdown.
//! With no names it prints every one, in order; name some to print only
//! those (`all -- fig09a table1`). `--quick` runs the reduced-scale
//! variant. The output is deterministic: the full-scale run of everything
//! is committed as `repro_full.txt`, and CI fails when a regeneration
//! differs from it.

use charm_bench::Effort;

/// A section's name and what renders it.
type Section = (&'static str, fn(&Effort) -> String);

/// Every section, in print order.
const SECTIONS: [Section; 18] = [
    ("fig01", |e| charm_bench::fig01(e).render()),
    ("fig04", |e| charm_bench::fig04(e).render()),
    ("fig06", |e| charm_bench::fig06(e).render()),
    ("fig08a", |e| charm_bench::fig08a(e).render()),
    ("fig08b", |e| charm_bench::fig08b(e).render()),
    ("fig08c", |e| charm_bench::fig08c(e).render()),
    ("fig09a", |e| charm_bench::fig09a(e).render()),
    ("fig09b", |e| charm_bench::fig09b(e).render()),
    ("fig09c", |e| charm_bench::fig09c(e).render()),
    ("fig10", |e| charm_bench::fig10(e).render()),
    ("fig11", |e| charm_bench::fig11(e).render()),
    // Projections-style time profiles.
    ("fig12", charm_bench::fig12),
    ("fig13", |e| charm_bench::fig13(e).render()),
    // N-Queens best configurations.
    ("table1", |e| {
        charm_bench::render_table1(&charm_bench::table1(e))
    }),
    // ApoA1 strong scaling.
    ("table2", |e| {
        charm_bench::render_table2(&charm_bench::table2(e))
    }),
    // Pingpong latency and recovery share vs fabric drop probability.
    ("fault_sweep", |e| charm_bench::fault_sweep(e).render()),
    // Jacobi2D recovery latency and checkpoint cost vs cadence.
    ("crash_sweep", |e| charm_bench::crash_sweep(e).render()),
    // SMSG vs MSGQ, SMP mode, GET- vs PUT-based rendezvous.
    ("ablations", |_| charm_bench::ablations()),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let names: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--quick")
        .collect();
    if let Some(bad) = names
        .iter()
        .find(|n| !SECTIONS.iter().any(|(name, _)| name == *n))
    {
        let known: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
        eprintln!("unknown section `{bad}`; known: {}", known.join(" "));
        std::process::exit(2);
    }
    let e = if quick {
        Effort::quick()
    } else {
        Effort::default()
    };
    println!(
        "# Reproduction run ({})\n",
        if quick { "quick" } else { "full scale" }
    );
    for (name, section) in SECTIONS {
        if names.is_empty() || names.contains(&name) {
            println!("{}", section(&e));
        }
    }
}
