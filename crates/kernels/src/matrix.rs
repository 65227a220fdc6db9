//! Dense column-major matrix storage for the linear-algebra kernels.
//!
//! Column-major layout matches HPL/LAPACK convention: element `(i, j)` lives
//! at `data[i + j * rows]`. Columns are contiguous, which is what the LU
//! panel factorization and the GEMM micro-kernel iterate over.

use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, heap-allocated, column-major `f64` matrix.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Allocates a zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// The identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Builds a matrix from column-major data.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Matrix { rows, cols, data }
    }

    /// Fills with uniform random values in `[-0.5, 0.5)`, the HPL generator's
    /// range, from a deterministic seed.
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = Uniform::new(-0.5, 0.5);
        let data = (0..rows * cols).map(|_| dist.sample(&mut rng)).collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the raw column-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the raw column-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow one column as a contiguous slice.
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Matrix–vector product `A · x`.
    ///
    /// # Panics
    /// Panics when `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch in matvec");
        let mut y = vec![0.0; self.rows];
        for (j, &xj) in x.iter().enumerate() {
            let col = self.col(j);
            for (yi, &aij) in y.iter_mut().zip(col) {
                *yi += aij * xj;
            }
        }
        y
    }

    /// Transpose (out of place).
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for j in 0..self.cols {
            for i in 0..self.rows {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Swaps rows `a` and `b` across all columns.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for j in 0..self.cols {
            self.data.swap(a + j * self.rows, b + j * self.rows);
        }
    }

    /// Infinity norm: maximum absolute row sum (NaN if any entry is).
    pub fn norm_inf(&self) -> f64 {
        let mut row_sums = vec![0.0; self.rows];
        for j in 0..self.cols {
            let col = self.col(j);
            for i in 0..self.rows {
                row_sums[i] += col[i].abs();
            }
        }
        row_sums.into_iter().fold(0.0, max_or_nan)
    }

    /// One norm: maximum absolute column sum (NaN if any entry is).
    pub fn norm_one(&self) -> f64 {
        (0..self.cols)
            .map(|j| self.col(j).iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, max_or_nan)
    }

    /// Frobenius norm.
    pub fn norm_frobenius(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute element-wise difference to another matrix (NaN if
    /// any difference is).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0, max_or_nan)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i + j * self.rows]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i + j * self.rows]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(6);
        let show_cols = self.cols.min(6);
        for i in 0..show_rows {
            write!(f, "  ")?;
            for j in 0..show_cols {
                write!(f, "{:>10.4} ", self[(i, j)])?;
            }
            if show_cols < self.cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if show_rows < self.rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

/// Infinity norm of a vector: maximum absolute entry (NaN if any entry is).
pub fn vec_norm_inf(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).fold(0.0, max_or_nan)
}

/// The larger of `m` and `v`, or NaN if either is NaN. `f64::max` returns
/// the other operand for a NaN, so `fold(0.0, f64::max)` skips a NaN and a
/// poisoned result would read as a small error; the kernels' validation
/// folds with this instead so it fails closed.
pub(crate) fn max_or_nan(m: f64, v: f64) -> f64 {
    if v > m || v.is_nan() {
        v
    } else {
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_and_indexing() {
        let mut m = Matrix::zeros(3, 2);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        m[(2, 1)] = 7.0;
        assert_eq!(m[(2, 1)], 7.0);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn column_major_layout() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        // data = [a00, a10, a01, a11, a02, a12]
        assert_eq!(m.as_slice(), &[0.0, 10.0, 1.0, 11.0, 2.0, 12.0]);
        assert_eq!(m.col(1), &[1.0, 11.0]);
    }

    #[test]
    fn from_col_major_round_trip() {
        let m = Matrix::from_col_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 0)], 2.0);
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 1)], 4.0);
    }

    #[test]
    #[should_panic(expected = "rows*cols")]
    fn from_col_major_wrong_len_panics() {
        Matrix::from_col_major(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn identity_matvec_is_identity_map() {
        let m = Matrix::identity(4);
        let x = vec![1.0, -2.0, 3.0, 0.5];
        assert_eq!(m.matvec(&x), x);
    }

    #[test]
    fn matvec_known_values() {
        // [[1, 2], [3, 4]] · [5, 6] = [17, 39]
        let m = Matrix::from_fn(2, 2, |i, j| (1 + 2 * i + j) as f64);
        let y = m.matvec(&[5.0, 6.0]);
        assert_eq!(y, vec![17.0, 39.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::random(5, 3, 42);
        let tt = m.transpose().transpose();
        assert_eq!(m.max_abs_diff(&tt), 0.0);
    }

    #[test]
    fn swap_rows_swaps_all_columns() {
        let mut m = Matrix::from_fn(3, 2, |i, j| (i * 10 + j) as f64);
        m.swap_rows(0, 2);
        assert_eq!(m[(0, 0)], 20.0);
        assert_eq!(m[(2, 0)], 0.0);
        assert_eq!(m[(0, 1)], 21.0);
        assert_eq!(m[(2, 1)], 1.0);
    }

    #[test]
    fn swap_rows_same_row_is_noop() {
        let mut m = Matrix::random(4, 4, 1);
        let before = m.clone();
        m.swap_rows(2, 2);
        assert_eq!(m.max_abs_diff(&before), 0.0);
    }

    #[test]
    fn norms_on_known_matrix() {
        // [[1, -2], [-3, 4]]
        let m = Matrix::from_col_major(2, 2, vec![1.0, -3.0, -2.0, 4.0]);
        assert_eq!(m.norm_inf(), 7.0); // row 1: |-3| + |4|
        assert_eq!(m.norm_one(), 6.0); // col 1: |-2| + |4|
        assert!((m.norm_frobenius() - (30.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn norms_are_nan_when_one_entry_is_nan() {
        for i in [0, 5, 11] {
            let mut x = vec![1.0, -5.0, 3.0, 0.5, 2.0, -1.0, 4.0, 0.0, 1.5, -2.5, 3.5, 1.0];
            x[i] = f64::NAN;
            assert!(vec_norm_inf(&x).is_nan(), "vec_norm_inf missed a NaN at {i}");
            let mut m = Matrix::from_col_major(4, 3, x.iter().map(|v| v.abs()).collect());
            assert!(m.norm_inf().is_nan(), "norm_inf missed a NaN at {i}");
            assert!(m.norm_one().is_nan(), "norm_one missed a NaN at {i}");
            let zeros = Matrix::zeros(4, 3);
            assert!(m.max_abs_diff(&zeros).is_nan(), "max_abs_diff missed a NaN at {i}");
            m.as_mut_slice()[i] = 1.0;
            assert!(m.norm_inf().is_finite());
        }
    }

    #[test]
    fn random_is_deterministic_and_in_range() {
        let a = Matrix::random(8, 8, 7);
        let b = Matrix::random(8, 8, 7);
        assert_eq!(a.max_abs_diff(&b), 0.0);
        assert!(a.as_slice().iter().all(|v| (-0.5..0.5).contains(v)));
        let c = Matrix::random(8, 8, 8);
        assert!(a.max_abs_diff(&c) > 0.0);
    }

    #[test]
    fn vector_norms() {
        assert_eq!(vec_norm_inf(&[1.0, -5.0, 3.0]), 5.0);
        assert_eq!(vec_norm_inf(&[]), 0.0);
    }

    #[test]
    fn debug_format_truncates() {
        let m = Matrix::zeros(10, 10);
        let s = format!("{m:?}");
        assert!(s.contains("Matrix 10x10"));
        assert!(s.contains("..."));
    }

    proptest! {
        /// norm_inf(A^T) == norm_one(A) — duality of the two norms.
        #[test]
        fn prop_norm_duality(seed in 0u64..1000, r in 1usize..12, c in 1usize..12) {
            let m = Matrix::random(r, c, seed);
            let t = m.transpose();
            prop_assert!((m.norm_one() - t.norm_inf()).abs() < 1e-12);
            prop_assert!((m.norm_inf() - t.norm_one()).abs() < 1e-12);
        }

        /// matvec is linear: A(x + y) == Ax + Ay.
        #[test]
        fn prop_matvec_linear(seed in 0u64..1000, n in 1usize..10) {
            let m = Matrix::random(n, n, seed);
            let x: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
            let y: Vec<f64> = (0..n).map(|i| (i as f64) * -0.5).collect();
            let xy: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
            let lhs = m.matvec(&xy);
            let ax = m.matvec(&x);
            let ay = m.matvec(&y);
            for i in 0..n {
                prop_assert!((lhs[i] - (ax[i] + ay[i])).abs() < 1e-9);
            }
        }
    }
}
