//! Distributed HPL on a two-dimensional process grid.
//!
//! §IV-A: "The data is distributed on a two-dimensional grid using a cyclic
//! scheme for better load balance and scalability." This module implements
//! exactly that — the `P×Q` block-cyclic distribution of ScaLAPACK/HPL —
//! on the mini-MPI runtime:
//!
//! * block `(bi, bj)` of the matrix lives on grid process
//!   `(bi mod P, bj mod Q)`;
//! * pivot search is a max-loc reduction down the process *column* owning
//!   the panel;
//! * row interchanges are pairwise exchanges between process rows;
//! * the factored panel is broadcast along process *rows*, the computed
//!   `U₁₂` block row along process *columns*, and every process updates its
//!   local trailing submatrix with a local GEMM — HPL's communication
//!   pattern in miniature.
//!
//! A `1×Q` grid (column block-cyclic, every pivot search local) is one
//! shape of the same code, not a second solver. Local rows and columns are
//! stored in ascending global order, so the rows at or below a pivot and
//! the columns right of a panel are contiguous suffixes of the local
//! storage, and the hot loops run over slices.

use crate::comm::Communicator;
use hpc_kernels::hpl::{scaled_residual, RESIDUAL_THRESHOLD};
use hpc_kernels::matrix::Matrix;
use std::time::Instant;

/// Configuration of a 2D-grid distributed HPL run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid2dConfig {
    /// Problem order N.
    pub n: usize,
    /// Square block size NB.
    pub block_size: usize,
    /// Process-grid rows P (world size must equal `p * q`).
    pub p: usize,
    /// Process-grid columns Q.
    pub q: usize,
    /// Seed for the problem generator.
    pub seed: u64,
}

/// Per-rank result (solution replicated, validated by the HPL residual).
#[derive(Debug, Clone, PartialEq)]
pub struct Grid2dResult {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Wall seconds for factor + solve on this rank.
    pub seconds: f64,
    /// The HPL scaled residual.
    pub scaled_residual: f64,
    /// Whether the residual test passed.
    pub passed: bool,
}

/// One rank's share of the 2D block-cyclic distribution.
#[derive(Debug)]
struct Grid {
    n: usize,
    nb: usize,
    p: usize,
    q: usize,
    /// This rank's grid coordinates.
    pr: usize,
    pc: usize,
    /// Global indices of my rows and columns, ascending; local index `l`
    /// holds global row `rows[l]` (column `cols[l]`).
    rows: Vec<usize>,
    cols: Vec<usize>,
}

impl Grid {
    fn new(n: usize, nb: usize, p: usize, q: usize, rank: usize) -> Self {
        let (pr, pc) = (rank % p, rank / p);
        let rows = (0..n).filter(|&i| (i / nb) % p == pr).collect();
        let cols = (0..n).filter(|&j| (j / nb) % q == pc).collect();
        Grid { n, nb, p, q, pr, pc, rows, cols }
    }

    fn rank_of(&self, pr: usize, pc: usize) -> usize {
        pr + self.p * pc
    }

    fn owner_row_of(&self, i: usize) -> usize {
        (i / self.nb) % self.p
    }

    fn owner_col_of(&self, j: usize) -> usize {
        (j / self.nb) % self.q
    }

    /// Local row index of global row `i` (valid only on its owner row).
    fn local_row(&self, i: usize) -> usize {
        (i / self.nb) / self.p * self.nb + i % self.nb
    }

    /// Local column index of global column `j` (on its owner column).
    fn local_col(&self, j: usize) -> usize {
        (j / self.nb) / self.q * self.nb + j % self.nb
    }

    /// Number of my rows with global index below `i`: my rows from global
    /// row `i` down are the local rows from here on.
    fn rows_before(&self, i: usize) -> usize {
        self.rows.partition_point(|&g| g < i)
    }

    /// Number of my columns with global index below `j`.
    fn cols_before(&self, j: usize) -> usize {
        self.cols.partition_point(|&g| g < j)
    }

    /// Ranks in process column `pc` (all grid rows), ascending.
    fn col_group(&self, pc: usize) -> Vec<usize> {
        (0..self.p).map(|pr| self.rank_of(pr, pc)).collect()
    }

    /// Ranks in process row `pr` (all grid columns), ascending.
    fn row_group(&self, pr: usize) -> Vec<usize> {
        (0..self.q).map(|pc| self.rank_of(pr, pc)).collect()
    }
}

/// Runs the 2D-grid HPL on this rank; call with identical config on every
/// rank of a `p*q`-rank world.
pub fn run(comm: &mut Communicator, config: Grid2dConfig) -> Grid2dResult {
    assert!(config.n > 0, "problem order must be positive");
    assert!(config.block_size > 0, "block size must be positive");
    assert_eq!(comm.size(), config.p * config.q, "world size must equal p*q");
    let grid = Grid::new(config.n, config.block_size, config.p, config.q, comm.rank());

    // Replicated problem generation (HPL's generator is replicated too).
    let full = Matrix::random(config.n, config.n, config.seed);
    let b: Vec<f64> =
        Matrix::random(config.n, 1, config.seed.wrapping_add(0x9E37_79B9)).as_slice().to_vec();

    // Local storage: my rows × my cols, column-major.
    let ld = grid.rows.len();
    let mut local = vec![0.0f64; ld * grid.cols.len()];
    for (lc, &gj) in grid.cols.iter().enumerate() {
        let src = full.col(gj);
        for (lr, &gi) in grid.rows.iter().enumerate() {
            local[lc * ld + lr] = src[gi];
        }
    }

    let start = Instant::now();
    let piv = factor(comm, &grid, &mut local);
    let x = solve(comm, &grid, &local, &piv, &b);
    let seconds = start.elapsed().as_secs_f64().max(1e-9);

    let scaled = scaled_residual(&full, &x, &b);
    Grid2dResult { x, seconds, scaled_residual: scaled, passed: scaled <= RESIDUAL_THRESHOLD }
}

/// The panel loop. Returns the replicated pivot vector.
fn factor(comm: &mut Communicator, grid: &Grid, local: &mut [f64]) -> Vec<usize> {
    let (n, nb) = (grid.n, grid.nb);
    let ld = grid.rows.len();
    let ncols = grid.cols.len();
    let blocks = n.div_ceil(nb);
    let world: Vec<usize> = (0..comm.size()).collect();
    let mut piv = vec![0usize; n];

    for k in 0..blocks {
        let k0 = k * nb;
        let kb = nb.min(n - k0);
        let pc_k = grid.owner_col_of(k0);
        let pr_k = grid.owner_row_of(k0);
        let gen = k as u64 * 1000;
        let col_group = grid.col_group(pc_k);
        let in_panel_col = grid.pc == pc_k;
        // The panel is one block column: on process column pc_k it is the
        // contiguous local columns lc0..lc0 + kb.
        let lc0 = grid.local_col(k0);
        let panel_cols: Vec<usize> =
            if in_panel_col { (lc0..lc0 + kb).collect() } else { Vec::new() };

        // ---- Phase 1: panel factorization within process column pc_k. ----
        let mut block_piv = vec![0usize; kb];
        if in_panel_col {
            for j in 0..kb {
                let gj = k0 + j;
                let lcj = lc0 + j;
                // Local pivot candidate among my rows with global index ≥ gj.
                let from = grid.rows_before(gj);
                let (mut best_val, mut best_row) = (-1.0f64, gj);
                for (lr, v) in local[lcj * ld + from..(lcj + 1) * ld].iter().enumerate() {
                    if v.abs() > best_val {
                        best_val = v.abs();
                        best_row = grid.rows[from + lr];
                    }
                }
                let (val, _owner, gpiv) =
                    comm.allreduce_max_loc(&col_group, gen + j as u64 * 4, best_val, best_row);
                assert!(val > 0.0, "2D HPL hit a singular panel at step {gj}");
                block_piv[j] = gpiv;

                // Swap rows gj ↔ gpiv across the *panel* columns.
                interchange(comm, grid, local, gj, &[gpiv], &panel_cols, gen + j as u64 * 4 + 1);

                // Broadcast the (post-swap) pivot row's panel segment.
                let prow_owner = grid.rank_of(grid.owner_row_of(gj), pc_k);
                let row_seg = (comm.rank() == prow_owner).then(|| {
                    let lr = grid.local_row(gj);
                    panel_cols.iter().map(|&lc| local[lc * ld + lr]).collect::<Vec<f64>>()
                });
                let row_seg =
                    comm.broadcast(&col_group, prow_owner, gen + j as u64 * 4 + 2, row_seg);

                // Eliminate below the pivot: scale the pivot column's
                // suffix, then update each later panel column's suffix.
                let below = grid.rows_before(gj + 1);
                let (left, right) = local.split_at_mut((lcj + 1) * ld);
                let l = &mut left[lcj * ld + below..];
                for v in l.iter_mut() {
                    *v /= row_seg[j];
                }
                for (c, &u) in row_seg.iter().enumerate().skip(j + 1) {
                    if u == 0.0 {
                        continue;
                    }
                    let col = &mut right[(c - j - 1) * ld..(c - j) * ld];
                    for (d, &li) in col[below..].iter_mut().zip(l.iter()) {
                        *d -= li * u;
                    }
                }
            }
        }

        // ---- Phase 2: publish the pivots, and broadcast the factored
        //      panel along each process row before any other work. Each
        //      row sends its rows from k0 down: L11 over L21 on the diagonal
        //      process row pr_k, L21 alone elsewhere. ----
        let head = col_group[0];
        let block_piv =
            (comm.rank() == head).then(|| block_piv.iter().map(|&p| p as f64).collect());
        let block_piv: Vec<usize> = comm
            .broadcast(&world, head, gen + 500, block_piv)
            .iter()
            .map(|&p| p as usize)
            .collect();
        piv[k0..k0 + kb].copy_from_slice(&block_piv);

        let last = k0 + kb >= n;
        let from = grid.rows_before(k0);
        let pl = ld - from;
        let panel = if last {
            Vec::new()
        } else {
            let root = grid.rank_of(grid.pr, pc_k);
            let data = (comm.rank() == root).then(|| {
                let mut buf = Vec::with_capacity(pl * kb);
                for &lc in &panel_cols {
                    buf.extend_from_slice(&local[lc * ld + from..(lc + 1) * ld]);
                }
                buf
            });
            comm.broadcast(&grid.row_group(grid.pr), root, gen + 600, data)
        };

        // ---- Phase 3: apply the swaps outside the panel. ----
        let outside_cols: Vec<usize> = if in_panel_col {
            (0..lc0).chain(lc0 + kb..ncols).collect()
        } else {
            (0..ncols).collect()
        };
        interchange(comm, grid, local, k0, &block_piv, &outside_cols, gen + 510);

        if last {
            break; // no trailing submatrix
        }

        // ---- Phase 4: process row pr_k solves L11·U12 = A12 in place on
        //      its trailing columns and broadcasts U12 down each process
        //      column; every process then updates A22 -= L21·U12. ----
        let tc0 = grid.cols_before(k0 + kb);
        let trailing = tc0..ncols;
        let u12 = (grid.pr == pr_k).then(|| {
            let mut u12 = vec![0.0f64; kb * trailing.len()];
            for (t, lc) in trailing.clone().enumerate() {
                let u = &mut local[lc * ld + from..lc * ld + from + kb];
                for r in 0..kb {
                    let y = u[r];
                    if y == 0.0 {
                        continue;
                    }
                    let l11 = &panel[r * pl..r * pl + kb];
                    for rr in r + 1..kb {
                        u[rr] -= l11[rr] * y;
                    }
                }
                u12[t * kb..(t + 1) * kb].copy_from_slice(u);
            }
            u12
        });
        let u12 =
            comm.broadcast(&grid.col_group(grid.pc), grid.rank_of(pr_k, grid.pc), gen + 601, u12);

        // A22_local -= L21_local · U12_local, one contiguous column suffix
        // at a time: my rows below the panel start at local row `tr0`.
        let tr0 = grid.rows_before(k0 + kb);
        let l21_off = tr0 - from;
        for (t, lc) in trailing.enumerate() {
            let dst = &mut local[lc * ld + tr0..(lc + 1) * ld];
            let l21 = |jj: usize| &panel[jj * pl + l21_off..(jj + 1) * pl];
            let u = &u12[t * kb..(t + 1) * kb];
            let mut jj = 0;
            while jj < kb {
                // Four L21 columns per pass over `dst` when none of their
                // multipliers is zero. Each element still subtracts the
                // four products one at a time, in `jj` order.
                if jj + 4 <= kb && u[jj..jj + 4].iter().all(|&v| v != 0.0) {
                    let (l0, l1, l2, l3) = (l21(jj), l21(jj + 1), l21(jj + 2), l21(jj + 3));
                    let (u0, u1, u2, u3) = (u[jj], u[jj + 1], u[jj + 2], u[jj + 3]);
                    let lanes = dst.iter_mut().zip(l0).zip(l1).zip(l2).zip(l3);
                    for ((((d, &a), &b), &c), &e) in lanes {
                        *d = *d - a * u0 - b * u1 - c * u2 - e * u3;
                    }
                    jj += 4;
                    continue;
                }
                if u[jj] != 0.0 {
                    for (d, &l) in dst.iter_mut().zip(l21(jj)) {
                        *d -= l * u[jj];
                    }
                }
                jj += 1;
            }
        }
    }
    piv
}

/// Applies the row interchanges `first + j ↔ pivots[j]`, in order, to the
/// given local columns of this rank's process column. A swap whose two
/// rows are both mine is local; one row mine is a pairwise exchange with
/// the other row's owner; neither mine is a no-op. When every swap is local
/// for this rank — always so on a `1×Q` grid — they are applied column by
/// column.
fn interchange(
    comm: &mut Communicator,
    grid: &Grid,
    local: &mut [f64],
    first: usize,
    pivots: &[usize],
    local_cols: &[usize],
    generation: u64,
) {
    let ld = grid.rows.len();
    let mine = |g: usize| grid.owner_row_of(g) == grid.pr;
    let swaps =
        pivots.iter().enumerate().map(|(j, &gp)| (first + j, gp)).filter(|&(ga, gb)| ga != gb);
    if swaps.clone().all(|(ga, gb)| mine(ga) == mine(gb)) {
        let pairs: Vec<(usize, usize)> = swaps
            .filter(|&(ga, _)| mine(ga))
            .map(|(ga, gb)| (grid.local_row(ga), grid.local_row(gb)))
            .collect();
        for &lc in local_cols {
            let col = &mut local[lc * ld..(lc + 1) * ld];
            for &(a, b) in &pairs {
                col.swap(a, b);
            }
        }
        return;
    }
    for (j, &gb) in pivots.iter().enumerate() {
        let ga = first + j;
        if ga == gb || (!mine(ga) && !mine(gb)) {
            continue;
        }
        if mine(ga) && mine(gb) {
            let (lra, lrb) = (grid.local_row(ga), grid.local_row(gb));
            for &lc in local_cols {
                local.swap(lc * ld + lra, lc * ld + lrb);
            }
            continue;
        }
        let (my_row, peer_pr) =
            if mine(ga) { (ga, grid.owner_row_of(gb)) } else { (gb, grid.owner_row_of(ga)) };
        let lr = grid.local_row(my_row);
        let row: Vec<f64> = local_cols.iter().map(|&lc| local[lc * ld + lr]).collect();
        let peer = grid.rank_of(peer_pr, grid.pc);
        let theirs = comm.exchange(peer, generation + j as u64, &row);
        debug_assert_eq!(theirs.len(), row.len());
        for (&lc, v) in local_cols.iter().zip(theirs) {
            local[lc * ld + lr] = v;
        }
    }
}

/// Distributed triangular solves with replicated right-hand side.
#[allow(clippy::needless_range_loop)] // block indices mirror the math
fn solve(
    comm: &mut Communicator,
    grid: &Grid,
    local: &[f64],
    piv: &[usize],
    b: &[f64],
) -> Vec<f64> {
    let (n, nb) = (grid.n, grid.nb);
    let ld = grid.rows.len();
    let blocks = n.div_ceil(nb);
    let world: Vec<usize> = (0..comm.size()).collect();
    let mut y = b.to_vec();
    for (kk, &p) in piv.iter().enumerate() {
        y.swap(kk, p);
    }

    // Forward: L y = Pb, block by block.
    for k in 0..blocks {
        let k0 = k * nb;
        let kb = nb.min(n - k0);
        let pc_k = grid.owner_col_of(k0);
        let pr_k = grid.owner_row_of(k0);
        let diag_owner = grid.rank_of(pr_k, pc_k);
        let gen = (blocks + k) as u64 * 1000;

        // Diagonal-block solve on its owner, then world broadcast.
        let z = if comm.rank() == diag_owner {
            let mut zb = y[k0..k0 + kb].to_vec();
            for j in 0..kb {
                let zj = zb[j];
                if zj == 0.0 {
                    continue;
                }
                let lc = grid.local_col(k0 + j);
                for r in j + 1..kb {
                    let lr = grid.local_row(k0 + r);
                    zb[r] -= local[lc * ld + lr] * zj;
                }
            }
            Some(zb)
        } else {
            None
        };
        let z = comm.broadcast(&world, diag_owner, gen, z);
        y[k0..k0 + kb].copy_from_slice(&z);

        // Delta for rows below, contributed by the panel's process column.
        let mut delta = vec![0.0f64; n];
        if grid.pc == pc_k {
            let below = grid.rows_before(k0 + kb);
            for (j, &zj) in z.iter().enumerate() {
                if zj == 0.0 {
                    continue;
                }
                let lc = grid.local_col(k0 + j);
                let l21 = &local[lc * ld + below..(lc + 1) * ld];
                for (&gi, &l) in grid.rows[below..].iter().zip(l21) {
                    delta[gi] += l * zj;
                }
            }
        }
        let delta = comm.allreduce_sum(&world, gen + 1, &delta);
        for (yi, d) in y.iter_mut().zip(&delta) {
            *yi -= d;
        }
    }

    // Backward: U x = y, blocks in reverse.
    let mut x = y;
    for k in (0..blocks).rev() {
        let k0 = k * nb;
        let kb = nb.min(n - k0);
        let pc_k = grid.owner_col_of(k0);
        let pr_k = grid.owner_row_of(k0);
        let diag_owner = grid.rank_of(pr_k, pc_k);
        let gen = (2 * blocks + k) as u64 * 1000;

        let xb = if comm.rank() == diag_owner {
            let mut xb = x[k0..k0 + kb].to_vec();
            for j in (0..kb).rev() {
                let lc = grid.local_col(k0 + j);
                let lrj = grid.local_row(k0 + j);
                xb[j] /= local[lc * ld + lrj];
                let xj = xb[j];
                if xj == 0.0 {
                    continue;
                }
                for r in 0..j {
                    let lr = grid.local_row(k0 + r);
                    xb[r] -= local[lc * ld + lr] * xj;
                }
            }
            Some(xb)
        } else {
            None
        };
        let xb = comm.broadcast(&world, diag_owner, gen, xb);
        x[k0..k0 + kb].copy_from_slice(&xb);

        let mut delta = vec![0.0f64; n];
        if grid.pc == pc_k {
            let above = grid.rows_before(k0);
            for (j, &xj) in xb.iter().enumerate() {
                if xj == 0.0 {
                    continue;
                }
                let lc = grid.local_col(k0 + j);
                let u01 = &local[lc * ld..lc * ld + above];
                for (&gi, &u) in grid.rows[..above].iter().zip(u01) {
                    delta[gi] += u * xj;
                }
            }
        }
        let delta = comm.allreduce_sum(&world, gen + 1, &delta);
        for (xi, d) in x.iter_mut().zip(&delta) {
            *xi -= d;
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::World;
    use hpc_kernels::lu;
    use proptest::prelude::*;

    fn run_grid(n: usize, nb: usize, p: usize, q: usize, seed: u64) -> Vec<Grid2dResult> {
        let config = Grid2dConfig { n, block_size: nb, p, q, seed };
        World::run(p * q, move |comm| run(comm, config))
    }

    #[test]
    fn one_by_one_grid_matches_shared_memory() {
        let n = 48;
        let out = run_grid(n, 8, 1, 1, 5);
        assert!(out[0].passed, "residual {}", out[0].scaled_residual);
        let a = Matrix::random(n, n, 5);
        let b: Vec<f64> = Matrix::random(n, 1, 5u64.wrapping_add(0x9E37_79B9)).as_slice().to_vec();
        let x_ref = lu::solve(a, &b, 8).expect("non-singular");
        for (xd, xr) in out[0].x.iter().zip(&x_ref) {
            assert!((xd - xr).abs() < 1e-8, "{xd} vs {xr}");
        }
    }

    /// Solves the `n`-order, `seed` problem on a `1×q` grid and checks
    /// rank 0's `x` against the shared-memory solver to 1e-8.
    fn assert_one_by_q_matches_shared_memory(n: usize, nb: usize, q: usize, seed: u64) {
        let out = run_grid(n, nb, 1, q, seed);
        assert!(out[0].passed, "1x{q}: residual {}", out[0].scaled_residual);
        let a = Matrix::random(n, n, seed);
        let b: Vec<f64> = Matrix::random(n, 1, seed.wrapping_add(0x9E37_79B9)).as_slice().to_vec();
        let x_ref = lu::solve(a, &b, nb).expect("non-singular");
        for (xd, xr) in out[0].x.iter().zip(&x_ref) {
            assert!((xd - xr).abs() < 1e-8, "1x{q}: {xd} vs {xr}");
        }
    }

    #[test]
    fn one_by_q_grids_match_shared_memory() {
        for q in [1usize, 2, 4] {
            assert_one_by_q_matches_shared_memory(48, 8, q, 21);
        }
    }

    #[test]
    fn one_by_q_single_rank_matches_shared_memory() {
        // NativeDistributedHpl's block size and seed; one 32-wide block
        // column per half of the matrix.
        assert_one_by_q_matches_shared_memory(64, 32, 1, 42);
    }

    #[test]
    fn various_grids_agree_with_each_other() {
        let n = 60;
        let nb = 8;
        let seed = 31;
        let reference = run_grid(n, nb, 1, 1, seed)[0].x.clone();
        for (p, q) in [(2usize, 1usize), (1, 3), (1, 4), (2, 2), (3, 2), (2, 3)] {
            let out = run_grid(n, nb, p, q, seed);
            for r in &out {
                assert!(r.passed, "grid {p}x{q}: residual {}", r.scaled_residual);
                for (a, b) in r.x.iter().zip(&reference) {
                    assert!((a - b).abs() < 1e-8, "grid {p}x{q}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn non_dividing_sizes_and_tall_grids() {
        // n=37 with nb=5 and a 3×2 grid: ragged blocks everywhere.
        let out = run_grid(37, 5, 3, 2, 7);
        for r in &out {
            assert!(r.passed, "residual {}", r.scaled_residual);
        }
    }

    #[test]
    fn one_by_q_block_size_not_dividing_n() {
        // n=70 with nb=16 on 1×3: a 6-wide tail block.
        let out = run_grid(70, 16, 1, 3, 11);
        for r in &out {
            assert!(r.passed, "residual {}", r.scaled_residual);
            assert_eq!(r.x, out[0].x);
        }
    }

    #[test]
    fn grid_with_more_rows_than_blocks() {
        // 2 block rows on a 4-row grid: two process rows own nothing.
        let out = run_grid(16, 8, 4, 1, 3);
        assert!(out[0].passed, "residual {}", out[0].scaled_residual);
    }

    #[test]
    fn grid_with_more_columns_than_blocks() {
        // 2 block columns on a 1×5 grid: three ranks own no columns.
        let out = run_grid(32, 16, 1, 5, 3);
        for r in &out {
            assert!(r.passed, "residual {}", r.scaled_residual);
            assert_eq!(r.x, out[0].x);
        }
    }

    /// `x` of the n = 54, NB = 9, seed 77 problem on 1×3, as the former
    /// `1×Q`-only solver computed it. A 1×Q grid must reproduce it bit for bit.
    const ONE_BY_THREE_X_BITS: [u64; 54] = [
        0x3ff0be89ed73e023,
        0x3ff9d9faebe0f305,
        0xbff83940dc23b25b,
        0x3ffe7b9030f4753a,
        0x3fe10a16f7573dc7,
        0xbfd900cea4c7d3b5,
        0x3fc1517cd945babf,
        0xbfac571185d56d3f,
        0x3fedbd381730ed42,
        0x3ffd535d496d5208,
        0x40017bab182cd273,
        0x3feb19dac21c909a,
        0xc0058907f8f60c7c,
        0x3fe31bba13635c52,
        0xbfe53439b0fa0581,
        0xc00057df52f551be,
        0x40132d6eecdae1f6,
        0xbfe07811b5d2fbd1,
        0x3fce84c3aa32070e,
        0xbf956fb8d3bc140d,
        0x40078461b1335777,
        0x3fcce12c0b7249c2,
        0xc0061bd526c0d741,
        0x3fd03a6ad6db30da,
        0x400318ad3c03abba,
        0x3ff6b1ae916c3abd,
        0xbfe2c147d524a1ca,
        0x4001ede0a97f65a1,
        0xbfdf331c2b076198,
        0xc010ae8cba5a5ce2,
        0x3fe121f50fa6eaa7,
        0xbffe7bf1bd916d86,
        0xbfc21d25d423b3a2,
        0x3fe9ee0ff3d154e8,
        0xc00166d2309a3852,
        0x3fd416189a0ccf6f,
        0xbfe97a8b49cd5c40,
        0xbfd8a91ff565fccb,
        0x3febc98aeaed1844,
        0x3ffc6141238b3b66,
        0xc000f281fbb1ab4e,
        0xbff83ae3941122f5,
        0xbfdfb629a7631cee,
        0x3fc33169865bf47d,
        0xbfa7290ccde10ab0,
        0x3fda7fcc9ad61c0d,
        0x3ffbe0871ed8153c,
        0xbfe24b98b3ff0cd2,
        0xbfd8c166aa0e71a0,
        0xc00199988b00b756,
        0x3ff07e0fd0d2fa4d,
        0xbfde1d26ea1cd26d,
        0xbfd4be26b8c2e317,
        0xbffcbab08358d7ae,
    ];

    #[test]
    fn reproduces_the_1xq_solvers_bits() {
        let out = run_grid(54, 9, 1, 3, 77);
        for r in &out {
            let bits: Vec<u64> = r.x.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, ONE_BY_THREE_X_BITS);
        }
    }

    #[test]
    fn grid_ownership_round_trips() {
        for (n, nb, p, q) in [(100usize, 8usize, 1usize, 3usize), (37, 5, 3, 2), (100, 8, 2, 3)] {
            let mut row_owner = vec![None; n];
            let mut col_owner = vec![None; n];
            for rank in 0..p * q {
                let g = Grid::new(n, nb, p, q, rank);
                for (l, &i) in g.rows.iter().enumerate() {
                    assert_eq!(g.owner_row_of(i), g.pr);
                    assert_eq!(g.local_row(i), l, "local rows are dense and ordered");
                    assert!(row_owner[i].is_none_or(|pr| pr == g.pr), "row {i} owned twice");
                    row_owner[i] = Some(g.pr);
                }
                for (l, &j) in g.cols.iter().enumerate() {
                    assert_eq!(g.owner_col_of(j), g.pc);
                    assert_eq!(g.local_col(j), l, "local columns are dense and ordered");
                    assert!(col_owner[j].is_none_or(|pc| pc == g.pc), "column {j} owned twice");
                    col_owner[j] = Some(g.pc);
                }
            }
            assert!(row_owner.iter().chain(&col_owner).all(Option::is_some), "every index owned");
        }
    }

    #[test]
    #[should_panic(expected = "world size must equal")]
    fn wrong_grid_shape_panics() {
        let config = Grid2dConfig { n: 16, block_size: 4, p: 2, q: 2, seed: 1 };
        World::run(3, move |comm| run(comm, config));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Arbitrary shapes, blocks, and grids pass the HPL residual test
        /// and agree across ranks.
        #[test]
        fn prop_grid_hpl_valid(
            n in 6usize..48,
            nb in 2usize..12,
            p in 1usize..4,
            q in 1usize..4,
            seed in 0u64..40,
        ) {
            let out = run_grid(n, nb, p, q, seed);
            for r in &out {
                prop_assert!(
                    r.passed,
                    "n={n} nb={nb} grid={p}x{q}: residual {}",
                    r.scaled_residual
                );
                prop_assert_eq!(&r.x, &out[0].x);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// 1×Q grids, the shape `NativeDistributedHpl` runs, at larger
        /// orders and blocks than the general grid property reaches.
        #[test]
        fn prop_one_by_q_hpl_valid(
            n in 8usize..72,
            nb in 4usize..24,
            q in 1usize..5,
            seed in 0u64..50,
        ) {
            let out = run_grid(n, nb, 1, q, seed);
            for r in &out {
                prop_assert!(r.passed, "n={n} nb={nb} grid=1x{q}: {}", r.scaled_residual);
                prop_assert_eq!(&r.x, &out[0].x);
            }
        }
    }
}
