//! Numerical stress tests for the linear-algebra substrate: pathological
//! matrices that punish sloppy pivoting, plus analytically-known transforms.

use tgi::kernels::fft::{self, Direction};
use tgi::kernels::lu;
use tgi::kernels::matrix::{vec_norm_inf, Matrix};
use tgi::kernels::Complex64;

fn solve_and_residual(a: &Matrix, nb: usize) -> f64 {
    let n = a.rows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
    let x = lu::solve(a.clone(), &b, nb).expect("non-singular");
    let ax = a.matvec(&x);
    let r: Vec<f64> = ax.iter().zip(&b).map(|(p, q)| p - q).collect();
    let scale = a.norm_inf() * vec_norm_inf(&x) + vec_norm_inf(&b);
    vec_norm_inf(&r) / scale.max(1e-300)
}

#[test]
fn hilbert_matrix_solves_with_expected_accuracy() {
    // Hilbert matrices are famously ill-conditioned; at n = 8, κ ≈ 1e10, so
    // a backward-stable solver still produces a small *residual* even
    // though the solution error is large.
    let n = 8;
    let h = Matrix::from_fn(n, n, |i, j| 1.0 / (i + j + 1) as f64);
    let residual = solve_and_residual(&h, 4);
    assert!(residual < 1e-13, "residual {residual}");
}

#[test]
fn permutation_matrix_exercises_pivoting_only() {
    // A permutation matrix has zero diagonal (mostly): every elimination
    // step must pivot.
    let n = 17;
    let p = Matrix::from_fn(n, n, |i, j| if (i + 5) % n == j { 1.0 } else { 0.0 });
    let residual = solve_and_residual(&p, 4);
    assert!(residual < 1e-15, "residual {residual}");
}

#[test]
fn wilkinson_growth_matrix_still_passes_residual() {
    // Wilkinson's example: partial pivoting suffers 2^(n-1) element growth,
    // the worst case. The residual stays acceptable at modest n.
    let n = 24;
    let w = Matrix::from_fn(n, n, |i, j| {
        if i == j || j == n - 1 {
            1.0
        } else if i > j {
            -1.0
        } else {
            0.0
        }
    });
    let residual = solve_and_residual(&w, 8);
    assert!(residual < 1e-10, "residual {residual}");
}

#[test]
fn scaled_rows_do_not_break_partial_pivoting() {
    // Wildly different row scales: partial pivoting picks magnitude-max
    // pivots; the solve must stay backward stable per row scale.
    let n = 32;
    let mut a = Matrix::random(n, n, 77);
    for i in 0..n {
        let scale = 10f64.powi((i % 13) as i32 - 6);
        for j in 0..n {
            a[(i, j)] *= scale;
        }
    }
    for i in 0..n {
        a[(i, i)] += 1e-6; // keep it comfortably non-singular
    }
    let residual = solve_and_residual(&a, 8);
    assert!(residual < 1e-12, "residual {residual}");
}

#[test]
fn tridiagonal_system_exact() {
    // -1/2/-1 Poisson matrix has a known LU without any pivoting drama.
    let n = 50;
    let a = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            2.0
        } else if i.abs_diff(j) == 1 {
            -1.0
        } else {
            0.0
        }
    });
    // Solve against the all-ones RHS; solution is analytic:
    // x_i = (i+1)(n-i)/2 for the discrete Poisson problem.
    let b = vec![1.0; n];
    let x = lu::solve(a.clone(), &b, 16).expect("non-singular");
    for (i, xi) in x.iter().enumerate() {
        let expected = (i + 1) as f64 * (n - i) as f64 / 2.0;
        assert!((xi - expected).abs() < 1e-9 * expected, "x[{i}] = {xi}, expected {expected}");
    }
}

#[test]
fn fft_of_pure_sinusoid_has_single_bin() {
    let n = 256;
    let k0 = 19;
    let mut data: Vec<Complex64> = (0..n)
        .map(|t| {
            let ang = 2.0 * std::f64::consts::PI * (k0 * t) as f64 / n as f64;
            Complex64::new(ang.cos(), ang.sin())
        })
        .collect();
    fft::fft(&mut data, Direction::Forward);
    for (k, z) in data.iter().enumerate() {
        if k == k0 {
            assert!((z.re - n as f64).abs() < 1e-9, "bin {k0}: {z:?}");
            assert!(z.im.abs() < 1e-9);
        } else {
            assert!(z.abs() < 1e-9, "leakage at bin {k}: {}", z.abs());
        }
    }
}

#[test]
fn fft_shift_theorem_holds() {
    // x[t-s] ⇔ X[k]·e^{-2πiks/n}.
    let n = 128;
    let s = 5usize;
    let signal: Vec<Complex64> =
        (0..n).map(|t| Complex64::new(((t * t) % 23) as f64 / 23.0 - 0.5, 0.0)).collect();
    let mut spectrum = signal.clone();
    fft::fft(&mut spectrum, Direction::Forward);

    let shifted: Vec<Complex64> = (0..n).map(|t| signal[(t + n - s) % n]).collect();
    let mut shifted_spectrum = shifted;
    fft::fft(&mut shifted_spectrum, Direction::Forward);

    for k in 0..n {
        let phase = -2.0 * std::f64::consts::PI * (k * s) as f64 / n as f64;
        let expected = spectrum[k] * Complex64::from_polar_unit(phase);
        let diff = (shifted_spectrum[k] - expected).abs();
        assert!(diff < 1e-9, "bin {k}: diff {diff}");
    }
}

#[test]
fn distributed_hpl_agrees_on_pathological_matrix_sizes() {
    // Prime sizes with tiny blocks stress the block-cyclic bookkeeping.
    use tgi::mpi::hpl2d::{run, Grid2dConfig};
    use tgi::mpi::World;
    for (n, nb, ranks) in [(13usize, 3usize, 4usize), (29, 5, 3), (31, 7, 2)] {
        let config = Grid2dConfig { n, block_size: nb, p: 1, q: ranks, seed: 99 };
        let out = World::run(ranks, move |comm| run(comm, config));
        for r in &out {
            assert!(r.passed, "n={n} nb={nb} ranks={ranks}: {}", r.scaled_residual);
            assert_eq!(r.x, out[0].x);
        }
    }
}
