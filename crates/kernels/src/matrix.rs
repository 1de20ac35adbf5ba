//! Dense row-major `f64` matrices with the loop kernels the paper's test
//! programs are built from: initialization, addition/subtraction, and
//! multiplication.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Fill from a function of `(row, col)` — the "matrix initialization"
    /// loop class of the paper.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Deterministic pseudo-random matrix (for tests/examples).
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.random_range(-1.0..1.0))
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Raw data slice (row-major).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Element-wise sum (the "matrix addition" loop class).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Element-wise difference.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a - b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Naive triple-loop multiplication (i-k-j order for row-major
    /// locality) — the "matrix multiplication" loop class.
    ///
    /// # Panics
    /// Panics unless `self.cols == other.rows`.
    pub fn mul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimension mismatch");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            for kk in 0..k {
                let a = self.data[i * k + kk];
                if a == 0.0 {
                    continue;
                }
                let brow = &other.data[kk * n..(kk + 1) * n];
                let orow = &mut out.data[i * n..(i + 1) * n];
                for j in 0..n {
                    orow[j] += a * brow[j];
                }
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Largest absolute element difference to another matrix.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
    }

    /// Approximate equality within `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.max_abs_diff(other) <= tol
    }

    /// Copy a rectangular sub-block starting at `(r0, c0)`.
    pub fn block(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> Matrix {
        assert!(r0 + rows <= self.rows && c0 + cols <= self.cols, "block out of range");
        Matrix::from_fn(rows, cols, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Write `src` into this matrix at offset `(r0, c0)`.
    pub fn set_block(&mut self, r0: usize, c0: usize, src: &Matrix) {
        assert!(r0 + src.rows <= self.rows && c0 + src.cols <= self.cols, "block out of range");
        for i in 0..src.rows {
            for j in 0..src.cols {
                self[(r0 + i, c0 + j)] = src[(i, j)];
            }
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_multiplication() {
        let a = Matrix::random(8, 8, 1);
        let eye = Matrix::from_fn(8, 8, |i, j| if i == j { 1.0 } else { 0.0 });
        assert!(a.mul(&eye).approx_eq(&a, 1e-12));
        assert!(eye.mul(&a).approx_eq(&a, 1e-12));
    }

    #[test]
    fn known_product() {
        let a = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64); // [[0,1,2],[3,4,5]]
        let b = Matrix::from_fn(3, 2, |i, j| (i * 2 + j) as f64); // [[0,1],[2,3],[4,5]]
        let c = a.mul(&b);
        assert_eq!(c[(0, 0)], 10.0);
        assert_eq!(c[(0, 1)], 13.0);
        assert_eq!(c[(1, 0)], 28.0);
        assert_eq!(c[(1, 1)], 40.0);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Matrix::random(6, 6, 4);
        let b = Matrix::random(6, 6, 5);
        let back = a.add(&b).sub(&b);
        assert!(back.approx_eq(&a, 1e-12));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::random(5, 9, 6);
        assert!(a.transpose().transpose().approx_eq(&a, 0.0));
        assert_eq!(a.transpose().rows(), 9);
    }

    #[test]
    fn transpose_of_product() {
        // (AB)^T = B^T A^T
        let a = Matrix::random(4, 6, 7);
        let b = Matrix::random(6, 3, 8);
        let lhs = a.mul(&b).transpose();
        let rhs = b.transpose().mul(&a.transpose());
        assert!(lhs.approx_eq(&rhs, 1e-10));
    }

    #[test]
    fn block_get_set_roundtrip() {
        let a = Matrix::random(8, 8, 9);
        let blk = a.block(2, 4, 3, 4);
        assert_eq!(blk.rows(), 3);
        assert_eq!(blk[(0, 0)], a[(2, 4)]);
        let mut b = Matrix::zeros(8, 8);
        b.set_block(2, 4, &blk);
        assert_eq!(b[(4, 7)], a[(4, 7)]);
        assert_eq!(b[(0, 0)], 0.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_shape_mismatch_panics() {
        let _ = Matrix::zeros(2, 2).add(&Matrix::zeros(3, 3));
    }

    #[test]
    #[should_panic(expected = "inner dimension")]
    fn mul_shape_mismatch_panics() {
        let _ = Matrix::zeros(2, 3).mul(&Matrix::zeros(2, 3));
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        assert_eq!(Matrix::random(4, 4, 42), Matrix::random(4, 4, 42));
        assert_ne!(Matrix::random(4, 4, 42), Matrix::random(4, 4, 43));
    }
}
