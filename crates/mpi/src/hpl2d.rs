//! Distributed HPL on a true two-dimensional process grid.
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
//! The [`crate::hpl`] module remains the simpler `1×Q` specialization; this
//! one is the general grid, validated against it and against the
//! shared-memory solver.

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

/// 2D block-cyclic ownership arithmetic.
#[derive(Debug, Clone, Copy)]
struct Grid {
    n: usize,
    nb: usize,
    p: usize,
    q: usize,
    /// This rank's grid coordinates.
    pr: usize,
    pc: usize,
}

impl Grid {
    fn coords_of(rank: usize, p: usize) -> (usize, usize) {
        (rank % p, rank / p)
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

    fn my_global_rows(&self) -> Vec<usize> {
        (0..self.n).filter(|&i| self.owner_row_of(i) == self.pr).collect()
    }

    fn my_global_cols(&self) -> Vec<usize> {
        (0..self.n).filter(|&j| self.owner_col_of(j) == self.pc).collect()
    }

    /// Ranks in my process column (fixed pc, all grid rows), ascending.
    fn col_group(&self, pc: usize) -> Vec<usize> {
        (0..self.p).map(|pr| self.rank_of(pr, pc)).collect()
    }

    /// Ranks in my process row (fixed pr, all grid columns), ascending.
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
    let (pr, pc) = Grid::coords_of(comm.rank(), config.p);
    let grid = Grid { n: config.n, nb: config.block_size, p: config.p, q: config.q, pr, pc };

    // Replicated problem generation (HPL's generator is replicated too).
    let full = Matrix::random(config.n, config.n, config.seed);
    let b: Vec<f64> =
        Matrix::random(config.n, 1, config.seed.wrapping_add(0x9E37_79B9)).as_slice().to_vec();

    // Local storage: my rows × my cols, column-major.
    let rows = grid.my_global_rows();
    let cols = grid.my_global_cols();
    let ld = rows.len();
    let mut local = vec![0.0f64; ld * cols.len()];
    for (lc, &gj) in cols.iter().enumerate() {
        let src = full.col(gj);
        for (lr, &gi) in rows.iter().enumerate() {
            local[lc * ld + lr] = src[gi];
        }
    }

    let start = Instant::now();
    let piv = factor(comm, &grid, &rows, &cols, &mut local);
    let x = solve(comm, &grid, &rows, &cols, &local, &piv, &b);
    let seconds = start.elapsed().as_secs_f64().max(1e-9);

    let scaled = scaled_residual(&full, &x, &b);
    Grid2dResult { x, seconds, scaled_residual: scaled, passed: scaled <= RESIDUAL_THRESHOLD }
}

/// The panel loop. Returns the replicated pivot vector.
fn factor(
    comm: &mut Communicator,
    grid: &Grid,
    rows: &[usize],
    cols: &[usize],
    local: &mut [f64],
) -> Vec<usize> {
    let (n, nb) = (grid.n, grid.nb);
    let ld = rows.len();
    let blocks = n.div_ceil(nb);
    let mut piv = vec![0usize; n];

    for k in 0..blocks {
        let k0 = k * nb;
        let kb = nb.min(n - k0);
        let pc_k = grid.owner_col_of(k0);
        let pr_k = grid.owner_row_of(k0);
        let gen = k as u64 * 1000;
        let col_group = grid.col_group(pc_k);
        let in_panel_col = grid.pc == pc_k;

        // ---- Phase 1: panel factorization within process column pc_k. ----
        let mut block_piv = vec![0usize; kb];
        for j in 0..kb {
            let gj = k0 + j;
            if in_panel_col {
                let lcj = grid.local_col(gj);
                // Local pivot candidate among my rows with global index ≥ gj.
                let (mut best_val, mut best_row) = (-1.0f64, gj);
                for (lr, &gi) in rows.iter().enumerate() {
                    if gi >= gj {
                        let v = local[lcj * ld + lr].abs();
                        if v > best_val {
                            best_val = v;
                            best_row = gi;
                        }
                    }
                }
                let (val, _owner, gpiv) = comm.allreduce_max_loc_among(
                    &col_group,
                    gen + j as u64 * 4,
                    best_val,
                    best_row,
                );
                assert!(val > 0.0, "2D HPL hit a singular panel at step {gj}");
                block_piv[j] = gpiv;

                // Swap rows gj ↔ gpiv across the *panel* columns.
                swap_rows_segment(
                    comm,
                    grid,
                    rows,
                    local,
                    ld,
                    gj,
                    gpiv,
                    &panel_local_cols(grid, cols, k0, kb),
                    gen + j as u64 * 4 + 1,
                );

                // Broadcast the (post-swap) pivot row's panel segment.
                let prow_owner = grid.rank_of(grid.owner_row_of(gj), pc_k);
                let row_seg = if comm.rank() == prow_owner {
                    let lr = grid.local_row(gj);
                    let seg: Vec<f64> = panel_local_cols(grid, cols, k0, kb)
                        .iter()
                        .map(|&lc| local[lc * ld + lr])
                        .collect();
                    Some(seg)
                } else {
                    None
                };
                let row_seg = comm.broadcast_f64_among(
                    &col_group,
                    prow_owner,
                    gen + j as u64 * 4 + 2,
                    row_seg.as_deref(),
                );

                // Eliminate below the pivot in my local rows.
                let pivot = row_seg[j];
                let panel_cols = panel_local_cols(grid, cols, k0, kb);
                for (lr, &gi) in rows.iter().enumerate() {
                    if gi > gj {
                        let lcol = panel_cols[j];
                        let l = local[lcol * ld + lr] / pivot;
                        local[lcol * ld + lr] = l;
                        for (c, &lc) in panel_cols.iter().enumerate().skip(j + 1) {
                            local[lc * ld + lr] -= l * row_seg[c];
                        }
                    }
                }
            }
        }

        // ---- Phase 2: publish pivots; apply swaps outside the panel. ----
        let head = col_group[0];
        let block_piv = comm.broadcast_usize(
            head,
            gen + 500,
            if comm.rank() == head { Some(&block_piv) } else { None },
        );
        piv[k0..k0 + kb].copy_from_slice(&block_piv);

        let outside_cols: Vec<usize> = cols
            .iter()
            .enumerate()
            .filter(|(_, &gj)| !(gj >= k0 && gj < k0 + kb))
            .map(|(lc, _)| lc)
            .collect();
        for (j, &gpiv) in block_piv.iter().enumerate() {
            let gj = k0 + j;
            swap_rows_segment(
                comm,
                grid,
                rows,
                local,
                ld,
                gj,
                gpiv,
                &outside_cols,
                gen + 510 + j as u64,
            );
        }

        if k0 + kb >= n {
            break; // no trailing submatrix
        }

        // ---- Phase 3: broadcast L11 along the diagonal process row; the
        //      owning process row computes U12 and broadcasts it down
        //      process columns. ----
        let diag_owner = grid.rank_of(pr_k, pc_k);
        let row_group = grid.row_group(pr_k);
        let l11 = if grid.pr == pr_k {
            let data = if comm.rank() == diag_owner {
                // Pack L11 (kb×kb) from my local storage.
                let panel_cols = panel_local_cols(grid, cols, k0, kb);
                let mut buf = vec![0.0f64; kb * kb];
                for (c, &lc) in panel_cols.iter().enumerate() {
                    for r in 0..kb {
                        let lr = grid.local_row(k0 + r);
                        buf[c * kb + r] = local[lc * ld + lr];
                    }
                }
                Some(buf)
            } else {
                None
            };
            comm.broadcast_f64_among(&row_group, diag_owner, gen + 600, data.as_deref())
        } else {
            Vec::new()
        };

        // Trailing local columns (global col ≥ k0+kb).
        let trailing_cols: Vec<usize> =
            cols.iter().enumerate().filter(|(_, &gj)| gj >= k0 + kb).map(|(lc, _)| lc).collect();

        // U12: on process row pr_k, solve L11·u = a(k0..k0+kb, c) per column.
        let mut u12 = vec![0.0f64; kb * trailing_cols.len()];
        if grid.pr == pr_k {
            for (t, &lc) in trailing_cols.iter().enumerate() {
                for r in 0..kb {
                    let lr = grid.local_row(k0 + r);
                    u12[t * kb + r] = local[lc * ld + lr];
                }
                for r in 0..kb {
                    let y = u12[t * kb + r];
                    if y == 0.0 {
                        continue;
                    }
                    for rr in r + 1..kb {
                        u12[t * kb + rr] -= l11[r * kb + rr] * y;
                    }
                }
                // Write U12 back into the local storage (it is part of U).
                for r in 0..kb {
                    let lr = grid.local_row(k0 + r);
                    local[lc * ld + lr] = u12[t * kb + r];
                }
            }
        }
        // Broadcast U12 down each process column from (pr_k, my pc).
        let my_col_group = grid.col_group(grid.pc);
        let u12_root = grid.rank_of(pr_k, grid.pc);
        let u12 = comm.broadcast_f64_among(
            &my_col_group,
            u12_root,
            gen + 601,
            if comm.rank() == u12_root { Some(&u12) } else { None },
        );

        // ---- Phase 4: broadcast L21 along process rows; local GEMM. ----
        // My trailing rows (global row ≥ k0+kb).
        let trailing_rows: Vec<usize> =
            rows.iter().enumerate().filter(|(_, &gi)| gi >= k0 + kb).map(|(lr, _)| lr).collect();
        let my_row_group = grid.row_group(grid.pr);
        let l21_root = grid.rank_of(grid.pr, pc_k);
        let l21 = {
            let data = if comm.rank() == l21_root {
                let panel_cols = panel_local_cols(grid, cols, k0, kb);
                let mut buf = vec![0.0f64; trailing_rows.len() * kb];
                for (c, &lc) in panel_cols.iter().enumerate() {
                    for (t, &lr) in trailing_rows.iter().enumerate() {
                        buf[c * trailing_rows.len() + t] = local[lc * ld + lr];
                    }
                }
                Some(buf)
            } else {
                None
            };
            comm.broadcast_f64_among(&my_row_group, l21_root, gen + 602, data.as_deref())
        };

        // A22_local -= L21_local · U12_local.
        let tr = trailing_rows.len();
        for (t_c, &lc) in trailing_cols.iter().enumerate() {
            for jj in 0..kb {
                let u = u12[t_c * kb + jj];
                if u == 0.0 {
                    continue;
                }
                let lcol = &l21[jj * tr..(jj + 1) * tr];
                for (t_r, &lr) in trailing_rows.iter().enumerate() {
                    local[lc * ld + lr] -= lcol[t_r] * u;
                }
            }
        }
    }
    piv
}

/// Local indices of the panel's columns (on the owning process column).
fn panel_local_cols(_grid: &Grid, cols: &[usize], k0: usize, kb: usize) -> Vec<usize> {
    cols.iter().enumerate().filter(|(_, &gj)| gj >= k0 && gj < k0 + kb).map(|(lc, _)| lc).collect()
}

/// Swaps global rows `ga` and `gb` across the given local columns, within
/// this rank's process column (pairwise exchange between the two owning
/// process rows; no-op for bystanders).
#[allow(clippy::too_many_arguments)]
fn swap_rows_segment(
    comm: &mut Communicator,
    grid: &Grid,
    _rows: &[usize],
    local: &mut [f64],
    ld: usize,
    ga: usize,
    gb: usize,
    local_cols: &[usize],
    generation: u64,
) {
    if ga == gb {
        return;
    }
    let pr_a = grid.owner_row_of(ga);
    let pr_b = grid.owner_row_of(gb);
    let own_a = grid.pr == pr_a;
    let own_b = grid.pr == pr_b;
    if !own_a && !own_b {
        return;
    }
    if own_a && own_b {
        let (lra, lrb) = (grid.local_row(ga), grid.local_row(gb));
        for &lc in local_cols {
            local.swap(lc * ld + lra, lc * ld + lrb);
        }
        return;
    }
    let (my_row, peer_pr) = if own_a { (ga, pr_b) } else { (gb, pr_a) };
    let lr = grid.local_row(my_row);
    let mine: Vec<f64> = local_cols.iter().map(|&lc| local[lc * ld + lr]).collect();
    let peer = grid.rank_of(peer_pr, grid.pc);
    let theirs = comm.exchange_f64(peer, generation, &mine);
    debug_assert_eq!(theirs.len(), mine.len());
    for (&lc, v) in local_cols.iter().zip(theirs) {
        local[lc * ld + lr] = v;
    }
}

/// Distributed triangular solves with replicated right-hand side.
#[allow(clippy::needless_range_loop)] // block indices mirror the math
fn solve(
    comm: &mut Communicator,
    grid: &Grid,
    rows: &[usize],
    _cols: &[usize],
    local: &[f64],
    piv: &[usize],
    b: &[f64],
) -> Vec<f64> {
    let (n, nb) = (grid.n, grid.nb);
    let ld = rows.len();
    let blocks = n.div_ceil(nb);
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
        let z = comm.broadcast_f64(diag_owner, gen, z.as_deref());
        y[k0..k0 + kb].copy_from_slice(&z);

        // Delta for rows below, contributed by the panel's process column.
        let mut delta = vec![0.0f64; n];
        if grid.pc == pc_k {
            for (j, &zj) in z.iter().enumerate() {
                if zj == 0.0 {
                    continue;
                }
                let lc = grid.local_col(k0 + j);
                for (lr, &gi) in rows.iter().enumerate() {
                    if gi >= k0 + kb {
                        delta[gi] += local[lc * ld + lr] * zj;
                    }
                }
            }
        }
        let delta = comm.allreduce_sum(&delta);
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
        let xb = comm.broadcast_f64(diag_owner, gen, xb.as_deref());
        x[k0..k0 + kb].copy_from_slice(&xb);

        let mut delta = vec![0.0f64; n];
        if grid.pc == pc_k {
            for (j, &xj) in xb.iter().enumerate() {
                if xj == 0.0 {
                    continue;
                }
                let lc = grid.local_col(k0 + j);
                for (lr, &gi) in rows.iter().enumerate() {
                    if gi < k0 {
                        delta[gi] += local[lc * ld + lr] * xj;
                    }
                }
            }
        }
        let delta = comm.allreduce_sum(&delta);
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
    fn grid_with_more_rows_than_blocks() {
        // 2 block rows on a 4-row grid: two process rows own nothing.
        let out = run_grid(16, 8, 4, 1, 3);
        assert!(out[0].passed, "residual {}", out[0].scaled_residual);
    }

    #[test]
    fn agrees_with_the_1xq_implementation() {
        let n = 54;
        let seed = 77;
        let cfg1d = crate::hpl::DistributedHplConfig { n, block_size: 9, seed };
        let out1d = World::run(3, move |comm| crate::hpl::run(comm, cfg1d));
        let out2d = run_grid(n, 9, 1, 3, seed);
        for (a, b) in out2d[0].x.iter().zip(&out1d[0].x) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
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
}
