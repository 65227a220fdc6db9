//! HPL — the High-Performance LINPACK benchmark (§IV-A of the paper).
//!
//! "It solves a dense linear system of equations of the form Ax = b of the
//! order N. It uses LU factorization with row partial pivoting of matrix A
//! and the solution x is obtained by solving the resultant upper triangular
//! system. … The HPL benchmark reports its performance as gigaflops."
//!
//! This driver follows the reference HPL exactly where it matters:
//!
//! * random A and b in `[-0.5, 0.5)` (HPL's generator range);
//! * blocked LU with row partial pivoting ([`crate::lu::factor_blocked`]);
//! * the official FLOP count `2/3·N³ + 2·N²` — achieved GFLOPS is derived
//!   from that formula, not from operations actually retired;
//! * the scaled-residual acceptance test
//!   `‖Ax−b‖∞ / (ε · (‖A‖∞·‖x‖∞ + ‖b‖∞) · N) ≤ 16`.

use crate::lu::{self, SingularMatrix};
use crate::matrix::{vec_norm_inf, Matrix};
use crate::timing::time_until_resolved_excluding_setup;
use crate::Work;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Configuration for one HPL run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HplConfig {
    /// Problem order N.
    pub n: usize,
    /// Panel block size NB.
    pub block_size: usize,
    /// Seed for the problem generator.
    pub seed: u64,
}

impl HplConfig {
    /// A config with the default block size.
    pub fn new(n: usize) -> Self {
        HplConfig { n, block_size: lu::DEFAULT_BLOCK, seed: 42 }
    }

    /// Overrides the block size.
    pub fn with_block_size(mut self, nb: usize) -> Self {
        self.block_size = nb;
        self
    }

    /// Overrides the generator seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The official HPL FLOP count for order `n`: `2/3·n³ + 2·n²`.
    pub fn flops(&self) -> f64 {
        let n = self.n as f64;
        (2.0 / 3.0) * n * n * n + 2.0 * n * n
    }
}

/// Result of one HPL run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HplResult {
    /// Problem order.
    pub n: usize,
    /// Achieved GFLOPS per the official FLOP formula.
    pub gflops: f64,
    /// Mean wall-clock seconds per factor + solve.
    pub seconds: f64,
    /// The HPL scaled residual (must be ≤ 16 to pass).
    pub scaled_residual: f64,
    /// Whether the residual test passed.
    pub passed: bool,
}

/// HPL's residual acceptance threshold.
pub const RESIDUAL_THRESHOLD: f64 = 16.0;

/// Runs the HPL benchmark.
///
/// Generation and validation are excluded from the timed region, exactly as
/// in the reference implementation. Each repetition generates `A` in its
/// untimed setup (a tiny order repeats the factor+solve until the timer
/// resolves; the reported GFLOPS is a per-solve mean and always finite),
/// and the residual check regenerates it from its seed once the factored
/// copy is gone, as the reference HPL does, so only one `n × n` matrix is
/// ever live.
pub fn run(config: HplConfig) -> Result<HplResult, SingularMatrix> {
    assert!(config.n > 0, "HPL problem order must be positive");
    let generate = || Matrix::random(config.n, config.n, config.seed);
    let b: Vec<f64> = {
        let bm = Matrix::random(config.n, 1, config.seed.wrapping_add(0x9E37_79B9));
        bm.as_slice().to_vec()
    };

    let mut factor_error = None;
    let mut x = Vec::new();
    let (_, seconds) = time_until_resolved_excluding_setup(|| {
        let mut lu_mat = generate(); // untimed setup
        let start = Instant::now();
        match lu::factor_blocked(&mut lu_mat, config.block_size) {
            Ok(piv) => x = lu::solve_factored(&lu_mat, &piv, &b),
            Err(e) => {
                factor_error = Some(e);
                // Force the loop to stop on the first failure.
                return f64::INFINITY;
            }
        }
        start.elapsed().as_secs_f64()
    });
    if let Some(e) = factor_error {
        return Err(e);
    }

    let scaled_residual = scaled_residual(&generate(), &x, &b);
    Ok(HplResult {
        n: config.n,
        gflops: config.flops() / seconds / 1e9,
        seconds,
        scaled_residual,
        passed: scaled_residual <= RESIDUAL_THRESHOLD,
    })
}

/// The HPL acceptance residual:
/// `‖Ax−b‖∞ / (ε · (‖A‖∞·‖x‖∞ + ‖b‖∞) · N)`.
pub fn scaled_residual(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
    let n = a.rows();
    let ax = a.matvec(x);
    let r: Vec<f64> = ax.iter().zip(b).map(|(p, q)| p - q).collect();
    let num = vec_norm_inf(&r);
    let denom = f64::EPSILON * (a.norm_inf() * vec_norm_inf(x) + vec_norm_inf(b)) * n as f64;
    num / denom
}

/// Work accounting for an HPL run of order `n` (FLOPs and the approximate
/// memory traffic of a blocked LU, `~n³/3` reads + writes of 8-byte words
/// per GEMM-dominated pass).
pub fn work(n: usize) -> Work {
    let nf = n as f64;
    let flops = (2.0 / 3.0) * nf * nf * nf + 2.0 * nf * nf;
    // A blocked LU streams the trailing matrix once per panel: about
    // n/nb · n²/2 elements touched; approximate with n³ / DEFAULT_BLOCK.
    let bytes = 8.0 * nf * nf * nf / lu::DEFAULT_BLOCK as f64;
    Work::compute(flops, bytes)
}

/// Chooses an HPL problem order that fills `fraction` of `mem_bytes` of
/// memory with the 8-byte matrix (the standard sizing rule: N ≈
/// √(mem·fraction/8)).
pub fn problem_size_for_memory(mem_bytes: u64, fraction: f64) -> usize {
    assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
    ((mem_bytes as f64 * fraction / 8.0).sqrt()) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_passes_residual_test() {
        let r = run(HplConfig::new(128)).unwrap();
        assert!(r.passed, "scaled residual {} > 16", r.scaled_residual);
        assert!(r.gflops > 0.0);
        assert!(r.seconds > 0.0);
        assert_eq!(r.n, 128);
    }

    #[test]
    fn non_square_block_sizes_pass() {
        for nb in [1usize, 7, 32, 200] {
            let r = run(HplConfig::new(64).with_block_size(nb)).unwrap();
            assert!(r.passed, "nb={nb}: residual {}", r.scaled_residual);
        }
    }

    #[test]
    fn different_seeds_give_different_problems_but_both_pass() {
        let r1 = run(HplConfig::new(96).with_seed(1)).unwrap();
        let r2 = run(HplConfig::new(96).with_seed(2)).unwrap();
        assert!(r1.passed && r2.passed);
        // Residuals are problem-dependent; they should differ.
        assert_ne!(r1.scaled_residual, r2.scaled_residual);
    }

    #[test]
    fn flop_formula_matches_reference() {
        let c = HplConfig::new(1000);
        let expected = 2.0 / 3.0 * 1e9 + 2.0 * 1e6;
        assert!((c.flops() - expected).abs() < 1.0);
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        let a = Matrix::identity(8);
        let b = vec![3.0; 8];
        let x = vec![3.0; 8];
        assert_eq!(scaled_residual(&a, &x, &b), 0.0);
    }

    #[test]
    fn residual_of_wrong_solution_fails() {
        let a = Matrix::identity(8);
        let b = vec![3.0; 8];
        let x = vec![4.0; 8]; // off by 1 everywhere
        assert!(scaled_residual(&a, &x, &b) > RESIDUAL_THRESHOLD);
    }

    #[test]
    fn residual_with_one_nan_in_x_fails() {
        let a = Matrix::random(8, 8, 5);
        let b = Matrix::random(8, 1, 6).as_slice().to_vec();
        let mut lu_mat = a.clone();
        let piv = lu::factor_blocked(&mut lu_mat, 4).unwrap();
        let x = lu::solve_factored(&lu_mat, &piv, &b);
        assert!(scaled_residual(&a, &x, &b) <= RESIDUAL_THRESHOLD);
        for i in [0, 3, 7] {
            let mut poisoned = x.clone();
            poisoned[i] = f64::NAN;
            let r = scaled_residual(&a, &poisoned, &b);
            let passed = r <= RESIDUAL_THRESHOLD;
            assert!(!passed, "NaN at x[{i}] passed with residual {r}");
        }
    }

    #[test]
    fn problem_sizing_rule() {
        // 8 GB, 80% fill: N = sqrt(8e9 * 0.8 / 8) ≈ 28284.
        let n = problem_size_for_memory(8_000_000_000, 0.8);
        assert!((28_000..29_000).contains(&n), "got {n}");
    }

    #[test]
    fn work_accounting_positive_and_compute_only() {
        let w = work(512);
        assert!(w.flops > 0.0);
        assert!(w.bytes_moved > 0.0);
        assert_eq!(w.io_bytes, 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_order_panics() {
        let _ = run(HplConfig::new(0));
    }
}
