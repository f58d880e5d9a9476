//! Jacobi 2D: a 5-point Laplace stencil on a chare array.
//!
//! This is the workspace's "real computation through the whole stack"
//! example: blocks hold actual `f64` grids, ghost exchanges carry actual
//! edge values as message payloads across the simulated network, and the
//! parallel result is *bitwise identical* to a sequential Jacobi sweep
//! (the update is order-independent), which the tests verify.
//!
//! Flow per iteration: a broadcast `go` reaches every block; blocks send
//! their four edges to neighbors; once a block has its `go` and all
//! expected edges, it computes the stencil (charging virtual time per
//! cell), contributes its residual to a reduction, and waits. The
//! reduction client advances or stops the run.

use crate::common::LayerKind;
use bytes::Bytes;
use charm_rt::prelude::*;
use sim_core::Time;

/// Cost model: virtual ns per updated cell.
const NS_PER_CELL: u64 = 6;

/// Problem definition.
#[derive(Debug, Clone)]
pub struct JacobiConfig {
    /// Grid is `n x n` interior cells.
    pub n: u32,
    /// Blocks per dimension (must divide `n`).
    pub blocks: u32,
    /// Iterations to run.
    pub iters: u32,
}

/// Result of a run.
#[derive(Debug, Clone)]
pub struct JacobiResult {
    /// Final residual (sum of |new - old| over the last iteration).
    pub residual: f64,
    /// Completion virtual time.
    pub time_ns: Time,
    /// Interior cell values, row-major `n x n`, reassembled.
    pub grid: Vec<f64>,
    pub iterations_run: u32,
    /// Simulator events processed by the run.
    pub events: u64,
}

struct BlockState {
    /// `(bs + 2)^2` cells including the ghost ring.
    cells: Vec<f64>,
    next: Vec<f64>,
    bs: usize,
    /// Block coordinates.
    bx: u32,
    by: u32,
    nb: u32,
    /// Iteration sync.
    has_go: bool,
    edges_got: u32,
    edges_expected: u32,
}

/// Flat little-endian serialization for the checkpoint layer: seven u64
/// header words (`bs bx by nb has_go edges_got edges_expected`) followed
/// by the cell grid. `next` is scratch recomputed every sweep, so it
/// restores as zeros.
impl Checkpoint for BlockState {
    fn save(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(7 * 8 + self.cells.len() * 8);
        for v in [
            self.bs as u64,
            self.bx as u64,
            self.by as u64,
            self.nb as u64,
            self.has_go as u64,
            self.edges_got as u64,
            self.edges_expected as u64,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for c in &self.cells {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out
    }

    fn restore(bytes: &[u8]) -> Self {
        let word = |i: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[i * 8..(i + 1) * 8]);
            u64::from_le_bytes(b)
        };
        let bs = word(0) as usize;
        let w = bs + 2;
        let cells: Vec<f64> = (0..w * w).map(|i| f64::from_bits(word(7 + i))).collect();
        BlockState {
            next: vec![0.0; cells.len()],
            cells,
            bs,
            bx: word(1) as u32,
            by: word(2) as u32,
            nb: word(3) as u32,
            has_go: word(4) != 0,
            edges_got: word(5) as u32,
            edges_expected: word(6) as u32,
        }
    }
}

/// Per-PE control state; only the copy on PE 0 (the reduction client)
/// ever changes.
struct Ctl {
    iters_left: u32,
    iters_run: u32,
    residual: f64,
}

impl Checkpoint for Ctl {
    fn save(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(&(self.iters_left as u64).to_le_bytes());
        out.extend_from_slice(&(self.iters_run as u64).to_le_bytes());
        out.extend_from_slice(&self.residual.to_le_bytes());
        out
    }

    fn restore(bytes: &[u8]) -> Self {
        let word = |i: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[i * 8..(i + 1) * 8]);
            u64::from_le_bytes(b)
        };
        Ctl {
            iters_left: word(0) as u32,
            iters_run: word(1) as u32,
            residual: f64::from_bits(word(2)),
        }
    }
}

impl BlockState {
    fn idx(&self, x: usize, y: usize) -> usize {
        y * (self.bs + 2) + x
    }

    /// Apply the fixed Dirichlet boundary into the ghost ring where the
    /// block touches the global border: top edge = 1.0, others 0.0.
    fn apply_boundary(&mut self) {
        let bs = self.bs;
        if self.by == 0 {
            for x in 0..bs + 2 {
                let i = self.idx(x, 0);
                self.cells[i] = 1.0;
            }
        }
        if self.by == self.nb - 1 {
            for x in 0..bs + 2 {
                let i = self.idx(x, bs + 1);
                self.cells[i] = 0.0;
            }
        }
        if self.bx == 0 {
            for y in 0..bs + 2 {
                let i = self.idx(0, y);
                self.cells[i] = 0.0;
            }
        }
        if self.bx == self.nb - 1 {
            for y in 0..bs + 2 {
                let i = self.idx(bs + 1, y);
                self.cells[i] = 0.0;
            }
        }
    }

    /// One Jacobi sweep over the interior; returns the residual.
    fn sweep(&mut self) -> f64 {
        let bs = self.bs;
        let mut res = 0.0;
        for y in 1..=bs {
            for x in 1..=bs {
                let v = 0.25
                    * (self.cells[self.idx(x - 1, y)]
                        + self.cells[self.idx(x + 1, y)]
                        + self.cells[self.idx(x, y - 1)]
                        + self.cells[self.idx(x, y + 1)]);
                let i = self.idx(x, y);
                res += (v - self.cells[i]).abs();
                self.next[i] = v;
            }
        }
        for y in 1..=bs {
            for x in 1..=bs {
                let i = self.idx(x, y);
                self.cells[i] = self.next[i];
            }
        }
        res
    }

    fn edge(&self, dir: u8) -> Vec<f64> {
        let bs = self.bs;
        match dir {
            0 => (1..=bs).map(|x| self.cells[self.idx(x, 1)]).collect(), // top row
            1 => (1..=bs).map(|x| self.cells[self.idx(x, bs)]).collect(), // bottom row
            2 => (1..=bs).map(|y| self.cells[self.idx(1, y)]).collect(), // left col
            _ => (1..=bs).map(|y| self.cells[self.idx(bs, y)]).collect(), // right col
        }
    }

    fn set_ghost(&mut self, dir: u8, vals: &[f64]) {
        let bs = self.bs;
        match dir {
            // Values arriving from the neighbor above land in our top ghost.
            0 => {
                for (k, v) in vals.iter().enumerate() {
                    let i = self.idx(k + 1, 0);
                    self.cells[i] = *v;
                }
            }
            1 => {
                for (k, v) in vals.iter().enumerate() {
                    let i = self.idx(k + 1, bs + 1);
                    self.cells[i] = *v;
                }
            }
            2 => {
                for (k, v) in vals.iter().enumerate() {
                    let i = self.idx(0, k + 1);
                    self.cells[i] = *v;
                }
            }
            _ => {
                for (k, v) in vals.iter().enumerate() {
                    let i = self.idx(bs + 1, k + 1);
                    self.cells[i] = *v;
                }
            }
        }
    }
}

/// Sequential reference solver: identical arithmetic, one big grid.
pub fn jacobi_sequential(n: u32, iters: u32) -> (Vec<f64>, f64) {
    let n = n as usize;
    let w = n + 2;
    let mut cells = vec![0.0f64; w * w];
    let mut next = cells.clone();
    for c in cells.iter_mut().take(w) {
        *c = 1.0; // top boundary
    }
    let mut res = 0.0;
    for _ in 0..iters {
        res = 0.0;
        for y in 1..=n {
            for x in 1..=n {
                let v = 0.25
                    * (cells[y * w + x - 1]
                        + cells[y * w + x + 1]
                        + (cells[(y - 1) * w + x])
                        + cells[(y + 1) * w + x]);
                res += (v - cells[y * w + x]).abs();
                next[y * w + x] = v;
            }
        }
        for y in 1..=n {
            for x in 1..=n {
                cells[y * w + x] = next[y * w + x];
            }
        }
    }
    let interior = (1..=n)
        .flat_map(|y| (1..=n).map(move |x| (x, y)))
        .map(|(x, y)| cells[y * w + x])
        .collect();
    (interior, res)
}

/// Run the parallel solver on a default cluster of `layer`.
pub fn run_jacobi(
    layer: &LayerKind,
    num_pes: u32,
    cores_per_node: u32,
    cfg: &JacobiConfig,
) -> JacobiResult {
    layer.run_checked(ClusterCfg::new(num_pes, cores_per_node), |c| run_on(c, cfg))
}

/// Run the parallel solver on a cluster the caller built. When the caller
/// enabled fault tolerance (`c.enable_ft(..)`) the blocks checkpoint on
/// its cadence and crash windows in `c.cfg.fault` are detected and
/// recovered mid-run; the returned grid is bit-identical to the
/// fault-free run's, and `c.ft_report()` / `c.trace()` say what it cost.
pub fn run_on(c: &mut Cluster, cfg: &JacobiConfig) -> JacobiResult {
    assert_eq!(cfg.n % cfg.blocks, 0, "blocks must divide n");
    let bs = (cfg.n / cfg.blocks) as usize;
    let nb = cfg.blocks;
    let ft_on = c.ft_enabled();

    let aid = c.create_array((nb * nb) as u64, |idx| {
        let bx = (idx as u32) % nb;
        let by = (idx as u32) / nb;
        let mut st = BlockState {
            cells: vec![0.0; (bs + 2) * (bs + 2)],
            next: vec![0.0; (bs + 2) * (bs + 2)],
            bs,
            bx,
            by,
            nb,
            has_go: false,
            edges_got: 0,
            edges_expected: {
                let mut e = 4;
                if by == 0 {
                    e -= 1;
                }
                if by == nb - 1 {
                    e -= 1;
                }
                if bx == 0 {
                    e -= 1;
                }
                if bx == nb - 1 {
                    e -= 1;
                }
                e
            },
        };
        st.apply_boundary();
        st
    });
    if ft_on {
        c.ft_array::<BlockState>(aid);
        c.ft_user::<Ctl>();
    }

    // Entry 0: receive a ghost edge [dir, values...].
    // Entry 1: go (start iteration: send edges).
    let entry_cell: std::sync::Arc<std::sync::OnceLock<(EntryId, EntryId)>> =
        std::sync::Arc::new(std::sync::OnceLock::new());

    fn maybe_compute(ctx: &mut PeCtx, st: &mut BlockState, aid: ArrayId) {
        if !st.has_go || st.edges_got < st.edges_expected {
            return;
        }
        st.has_go = false;
        st.edges_got = 0;
        let res = st.sweep();
        ctx.charge(NS_PER_CELL * (st.bs * st.bs) as u64);
        ctx.contribute(aid, &[res], RedOp::Sum);
    }

    let ec = entry_cell.clone();
    let recv_edge = c.register_entry::<BlockState>(aid, move |ctx, st, _idx, payload| {
        let dir = payload[0];
        let vals: Vec<f64> = (0..wire::f64_count(&payload[8..]))
            .map(|i| wire::unpack_f64(&payload[8..], i))
            .collect();
        st.set_ghost(dir, &vals);
        st.edges_got += 1;
        ctx.charge(50 + 2 * vals.len() as u64);
        maybe_compute(ctx, st, aid);
        let _ = ec.get();
    });

    let ec2 = entry_cell.clone();
    let go = c.register_entry::<BlockState>(aid, move |ctx, st, _idx, _payload| {
        let (recv_edge, _) = *ec2.get().expect("entries registered");
        // Send edges to each existing neighbor. Direction encoding matches
        // the receiver's ghost side: our bottom edge becomes their top
        // ghost (dir 0), etc.
        let (bx, by, nb) = (st.bx, st.by, st.nb);
        let sends: [(bool, i32, i32, u8, u8); 4] = [
            (by > 0, 0, -1, 0, 1),     // to the block above: its bottom ghost
            (by < nb - 1, 0, 1, 1, 0), // below: its top ghost
            (bx > 0, -1, 0, 2, 3),     // left: its right ghost
            (bx < nb - 1, 1, 0, 3, 2), // right: its left ghost
        ];
        for (exists, dx, dy, my_edge, their_ghost) in sends {
            if !exists {
                continue;
            }
            let vals = st.edge(my_edge);
            let mut payload = Vec::with_capacity(8 + vals.len() * 8);
            payload.push(their_ghost);
            payload.extend_from_slice(&[0u8; 7]);
            for v in &vals {
                payload.extend_from_slice(&v.to_le_bytes());
            }
            let nx = (bx as i32 + dx) as u64;
            let ny = (by as i32 + dy) as u64;
            ctx.charm_send(aid, ny * nb as u64 + nx, recv_edge, Bytes::from(payload));
        }
        st.has_go = true;
        ctx.charge(200);
        maybe_compute(ctx, st, aid);
    });
    entry_cell.set((recv_edge, go)).expect("set once");

    // Reduction client: iterate or stop. The reduction instant is a
    // consistent point for the array — every block has contributed and the
    // next iteration's `go` is still queued locally — so it is also where
    // the FT layer is offered a checkpoint (a no-op when FT is off).
    c.init_user(|_| Ctl {
        iters_left: cfg.iters,
        iters_run: 0,
        residual: f64::NAN,
    });
    let client = c.register_handler(move |ctx, env| {
        let res = wire::unpack_f64(&env.payload[8..], 0);
        let ctl = ctx.user::<Ctl>();
        ctl.iters_run += 1;
        ctl.iters_left -= 1;
        ctl.residual = res;
        if ctl.iters_left == 0 {
            ctx.stop();
        } else {
            ctx.charm_broadcast(aid, go, Bytes::new());
            ctx.ft_maybe_checkpoint();
        }
    });
    c.set_reduction_client(aid, client, 0);
    if ft_on {
        // Post-recovery: every block is back at the last checkpoint with
        // `has_go` clear, so re-broadcasting `go` replays the interrupted
        // iteration from scratch.
        let ec3 = entry_cell.clone();
        let resume = c.register_handler(move |ctx, _env| {
            let (_, go) = *ec3.get().expect("entries registered");
            ctx.charm_broadcast(aid, go, Bytes::new());
        });
        c.ft_on_resume(resume, 0);
    }

    c.inject_broadcast(0, aid, go, Bytes::new());
    let report = c.run();

    // Reassemble the grid.
    let n = cfg.n as usize;
    let mut grid = vec![0.0f64; n * n];
    for by in 0..nb {
        for bx in 0..nb {
            let st: &BlockState = c.element(aid, (by * nb + bx) as u64);
            for y in 0..bs {
                for x in 0..bs {
                    let gx = bx as usize * bs + x;
                    let gy = by as usize * bs + y;
                    grid[gy * n + gx] = st.cells[st.idx(x + 1, y + 1)];
                }
            }
        }
    }
    let ctl = c.user::<Ctl>(0);
    JacobiResult {
        residual: ctl.residual,
        time_ns: report.end_time,
        grid,
        iterations_run: ctl.iters_run,
        events: report.stats.events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let cfg = JacobiConfig {
            n: 24,
            blocks: 4,
            iters: 20,
        };
        let r = run_jacobi(&LayerKind::ugni(), 8, 4, &cfg);
        let (seq, seq_res) = jacobi_sequential(24, 20);
        assert_eq!(r.iterations_run, 20);
        assert_eq!(r.grid.len(), seq.len());
        for (i, (a, b)) in r.grid.iter().zip(&seq).enumerate() {
            assert_eq!(a, b, "cell {i} differs: parallel {a} vs sequential {b}");
        }
        assert_eq!(r.residual, seq_res);
    }

    #[test]
    fn matches_on_mpi_layer_too() {
        let cfg = JacobiConfig {
            n: 12,
            blocks: 3,
            iters: 8,
        };
        let r = run_jacobi(&LayerKind::mpi(), 6, 3, &cfg);
        let (seq, _) = jacobi_sequential(12, 8);
        for (a, b) in r.grid.iter().zip(&seq) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn residual_decreases() {
        let cfg_short = JacobiConfig {
            n: 16,
            blocks: 2,
            iters: 5,
        };
        let cfg_long = JacobiConfig {
            n: 16,
            blocks: 2,
            iters: 50,
        };
        let r1 = run_jacobi(&LayerKind::ugni(), 4, 4, &cfg_short);
        let r2 = run_jacobi(&LayerKind::ugni(), 4, 4, &cfg_long);
        assert!(
            r2.residual < r1.residual,
            "residual must shrink: {} -> {}",
            r1.residual,
            r2.residual
        );
    }

    #[test]
    fn ft_crash_restart_matches_fault_free_grid() {
        use gemini_net::{FaultPlan, NodeCrashWindow};
        let cfg = JacobiConfig {
            n: 24,
            blocks: 4,
            iters: 20,
        };
        let mut plan = FaultPlan::default();
        plan.node_crash.push(NodeCrashWindow {
            node: 1,
            at_ns: 80_000,
            restart_after_ns: Some(40_000),
        });
        let mut c = LayerKind::ugni().with_fault(plan).cluster(8, 4);
        // Jacobi saturates its PEs in ~30us bursts: the suspicion timeout
        // must sit well above that or load reads as death.
        c.enable_ft(FtConfig {
            hb_period: 20_000,
            hb_timeout: 150_000,
            ckpt_period: 60_000,
        });
        let r = run_on(&mut c, &cfg);
        let ft = c.ft_report();
        assert_eq!(ft.recoveries, 1, "the crash was never recovered");
        assert_eq!(r.iterations_run, 20);
        let clean = run_jacobi(&LayerKind::ugni(), 8, 4, &cfg);
        assert_eq!(r.grid, clean.grid, "recovery perturbed the arithmetic");
        assert_eq!(r.residual, clean.residual);
        assert!(
            r.time_ns > clean.time_ns,
            "losing a node for 40us must cost virtual time"
        );
    }

    #[test]
    fn heat_flows_from_top_boundary() {
        let cfg = JacobiConfig {
            n: 16,
            blocks: 4,
            iters: 100,
        };
        let r = run_jacobi(&LayerKind::ugni(), 8, 4, &cfg);
        let n = 16usize;
        // Row 0 (adjacent to hot boundary) must be warmer than the last row.
        let top_avg: f64 = r.grid[..n].iter().sum::<f64>() / n as f64;
        let bottom_avg: f64 = r.grid[(n - 1) * n..].iter().sum::<f64>() / n as f64;
        assert!(top_avg > 0.3, "top {top_avg}");
        assert!(
            bottom_avg < top_avg / 2.0,
            "bottom {bottom_avg} vs top {top_avg}"
        );
    }
}
