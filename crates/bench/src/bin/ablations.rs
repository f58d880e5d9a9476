//! Prints the ablation tables (`charm_bench::ablations`): SMSG vs MSGQ,
//! SMP mode, and GET- vs PUT-based rendezvous. `all` prints them too.

fn main() {
    print!("{}", charm_bench::ablations());
}
