//! Regenerates every table and figure, then the ablations, in one run,
//! printing EXPERIMENTS.md-ready markdown. `--quick` runs the
//! reduced-scale variant. The output is deterministic: the full-scale run
//! is committed as `repro_full.txt`, and CI fails when a regeneration
//! differs from it.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let e = if quick {
        charm_bench::Effort::quick()
    } else {
        charm_bench::Effort::default()
    };
    println!(
        "# Reproduction run ({})\n",
        if quick { "quick" } else { "full scale" }
    );
    println!("{}", charm_bench::fig01(&e).render());
    println!("{}", charm_bench::fig04(&e).render());
    println!("{}", charm_bench::fig06(&e).render());
    println!("{}", charm_bench::fig08a(&e).render());
    println!("{}", charm_bench::fig08b(&e).render());
    println!("{}", charm_bench::fig08c(&e).render());
    println!("{}", charm_bench::fig09a(&e).render());
    println!("{}", charm_bench::fig09b(&e).render());
    println!("{}", charm_bench::fig09c(&e).render());
    println!("{}", charm_bench::fig10(&e).render());
    println!("{}", charm_bench::fig11(&e).render());
    println!("{}", charm_bench::fig12(&e));
    println!("{}", charm_bench::fig13(&e).render());
    println!("{}", charm_bench::render_table1(&charm_bench::table1(&e)));
    println!("{}", charm_bench::render_table2(&charm_bench::table2(&e)));
    println!("{}", charm_bench::fault_sweep(&e).render());
    println!("{}", charm_bench::crash_sweep(&e).render());
    println!("{}", charm_bench::ablations());
}
