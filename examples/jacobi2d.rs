//! Jacobi 2D example: a 5-point Laplace stencil on a chare array with
//! real ghost exchanges over the simulated network, verified against the
//! sequential solver.
//!
//! ```text
//! cargo run --release -p charm-examples --bin jacobi2d [-- N [blocks] [iters]]
//! ```

use charm_apps::jacobi2d::{self, jacobi_sequential, JacobiConfig};
use charm_apps::LayerKind;
use charm_rt::prelude::ClusterCfg;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n: u32 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(96);
    let blocks: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(8);
    let iters: u32 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(100);

    let cfg = JacobiConfig { n, blocks, iters };
    println!("Jacobi 2D: {n}x{n} grid, {blocks}x{blocks} blocks, {iters} iterations\n");

    let (seq, _) = jacobi_sequential(n, iters);
    for layer in [LayerKind::ugni(), LayerKind::mpi()] {
        // Build the cluster, hand it to the app, read it afterwards.
        let mut c = layer.build(ClusterCfg::new(16, 4));
        let r = jacobi2d::run_on(&mut c, &cfg);
        let (busy, ovh, _idle) = c.trace().utilization(Some(r.time_ns));
        println!(
            "{:<22} residual {:>12.6e}  virtual time {:>10}  busy {:>4.1}%  runtime {:>4.1}%",
            layer.name(),
            r.residual,
            sim_core::time::fmt(r.time_ns),
            busy * 100.0,
            ovh * 100.0
        );
        let max_diff = r
            .grid
            .iter()
            .zip(&seq)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert_eq!(max_diff, 0.0, "parallel result must be bitwise identical");
    }
    println!("parallel result is bitwise identical to the sequential sweep.");
}
