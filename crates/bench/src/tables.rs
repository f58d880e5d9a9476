//! Table I (N-Queens best configurations) and Table II (ApoA1 strong
//! scaling) from the paper's evaluation.

use crate::Effort;
use charm_apps::common::LayerKind;
use charm_apps::minimd::{run_minimd, MdConfig, System};
use charm_apps::nqueens::{self, NqConfig, WorkMode};

/// One row of Table I.
#[derive(Debug, Clone)]
pub struct Table1Row {
    pub(crate) queens: u32,
    pub(crate) cores_ugni: u32,
    pub(crate) cores_mpi: u32,
    pub(crate) time_ugni_s: f64,
    pub(crate) time_mpi_s: f64,
}

/// Table I: best core counts from the paper, times measured here.
/// "for the same N-Queens problem, uGNI-based Charm++ scales to more
/// cores with much less time."
pub fn table1(e: &Effort) -> Vec<Table1Row> {
    // (N, paper's best cores for uGNI, for MPI).
    let rows: Vec<(u32, u32, u32)> = if e.full_scale {
        vec![
            (14, 256, 48),
            (15, 480, 120),
            (16, 1536, 384),
            (17, 3840, 1536),
            (18, 7680, 3840),
            (19, 15360, 7680),
        ]
    } else {
        vec![(14, 64, 24), (15, 128, 48)]
    };
    // Threshold 7 for the fine-grain uGNI runs, 6 for MPI (the paper's
    // optima); smaller in quick mode to keep CI cheap.
    let (thr_u, thr_m) = if e.full_scale { (5, 4) } else { (4, 3) };
    rows.into_iter()
        .map(|(n, cu, cm)| {
            let seq = nqueens::calibrated_seq_ns(n);
            let mk = |threshold| NqConfig {
                n,
                threshold,
                mode: WorkMode::Modeled {
                    total_seq_ns: seq,
                    alpha: 1.2,
                },
                seed: n as u64,
            };
            let ru = nqueens::run_nqueens(&LayerKind::ugni(), cu, 24.min(cu), &mk(thr_u));
            let rm = nqueens::run_nqueens(&LayerKind::mpi(), cm, 24.min(cm), &mk(thr_m));
            Table1Row {
                queens: n,
                cores_ugni: cu,
                cores_mpi: cm,
                time_ugni_s: sim_core::time::to_secs(ru.time_ns),
                time_mpi_s: sim_core::time::to_secs(rm.time_ns),
            }
        })
        .collect()
}

pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::from(
        "## Table I: best configurations for N-Queens\n\
         Queens  cores(uGNI)  cores(MPI)  time(s,uGNI)  time(s,MPI)\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>6}  {:>11}  {:>10}  {:>12.3}  {:>11.3}\n",
            r.queens, r.cores_ugni, r.cores_mpi, r.time_ugni_s, r.time_mpi_s
        ));
    }
    out
}

/// One row of Table II.
#[derive(Debug, Clone)]
pub struct Table2Row {
    pub(crate) cores: u32,
    pub(crate) ms_mpi: f64,
    pub(crate) ms_ugni: f64,
}

/// Table II: ApoA1 ms/step strong scaling.
pub fn table2(e: &Effort) -> Vec<Table2Row> {
    let cores: Vec<u32> = if e.full_scale {
        vec![2, 12, 48, 120, 240, 480, 1920, 3840]
    } else {
        vec![2, 12, 48]
    };
    cores
        .into_iter()
        .map(|c| {
            let cfg = MdConfig::for_system(System::Apoa1, e.md_steps);
            let cpn = 24.min(c);
            let ru = run_minimd(&LayerKind::ugni(), c, cpn, &cfg);
            let rm = run_minimd(&LayerKind::mpi(), c, cpn, &cfg);
            Table2Row {
                cores: c,
                ms_mpi: rm.ms_per_step,
                ms_ugni: ru.ms_per_step,
            }
        })
        .collect()
}

pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = String::from(
        "## Table II: ApoA1 time (ms/step)\n\
         cores   MPI-based   uGNI-based\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>5}  {:>10.2}  {:>11.2}\n",
            r.cores, r.ms_mpi, r.ms_ugni
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_quick_shape() {
        let rows = table1(&Effort::quick());
        for r in &rows {
            // uGNI runs on more cores in less time.
            assert!(r.cores_ugni > r.cores_mpi);
            assert!(
                r.time_ugni_s < r.time_mpi_s,
                "N={}: uGNI {:.4}s !< MPI {:.4}s",
                r.queens,
                r.time_ugni_s,
                r.time_mpi_s
            );
        }
        assert!(render_table1(&rows).contains("Table I"));
    }

    #[test]
    fn table2_quick_shape() {
        let rows = table2(&Effort::quick());
        // Strong scaling: time decreases with cores for both runtimes.
        for w in rows.windows(2) {
            assert!(w[1].ms_ugni < w[0].ms_ugni);
            assert!(w[1].ms_mpi < w[0].ms_mpi);
        }
        // uGNI at least as fast everywhere.
        for r in &rows {
            assert!(r.ms_ugni <= r.ms_mpi * 1.02, "cores {}", r.cores);
        }
        assert!(render_table2(&rows).contains("Table II"));
    }
}
