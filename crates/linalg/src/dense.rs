//! Row-major dense matrices.
//!
//! [`DenseMatrix`] is the workhorse container of the reproduction: node
//! attribute matrices, GCN weights, embeddings, alignment matrices and
//! correlation matrices are all dense.  The implementation favours clarity and
//! predictable memory layout (a single contiguous `Vec<f64>`); the
//! hand-optimised kernels are the four matrix products (`A·B`, `Aᵀ·B`,
//! `A·Bᵀ`, `AᵀA`), which route through the cache-blocked, register-tiled GEMM driver
//! in [`crate::gemm`] because they dominate the runtime of both training and
//! the LISI computation.  The `*_into` variants write into caller-owned
//! output matrices so hot loops (training epochs, per-orbit refinement) reuse
//! allocations instead of re-allocating per product.

use crate::error::LinalgError;
use crate::gemm::{self, StridedA};
use crate::ops::axpy;
use crate::Result;

/// A row-major dense `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Default for DenseMatrix {
    /// An empty `0 × 0` matrix — the canonical "unsized scratch buffer" that
    /// every `*_into` kernel resizes on first use.
    fn default() -> Self {
        DenseMatrix::zeros(0, 0)
    }
}

impl DenseMatrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a row-major data buffer.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DataLength {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from nested rows. All rows must have equal length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        let r = rows.len();
        let c = rows.first().map(|row| row.len()).unwrap_or(0);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            if row.len() != c {
                return Err(LinalgError::DataLength {
                    expected: c,
                    actual: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: r,
            cols: c,
            data,
        })
    }

    /// Builds a diagonal matrix from the given diagonal entries.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &v) in diag.iter().enumerate() {
            m.set(i, i, v);
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning the underlying buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns the element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = value;
    }

    /// Adds `value` to the element at `(r, c)`.
    #[inline]
    pub fn add_at(&mut self, r: usize, c: usize, value: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] += value;
    }

    /// Checked element access.
    pub fn try_get(&self, r: usize, c: usize) -> Result<f64> {
        if r >= self.rows || c >= self.cols {
            return Err(LinalgError::IndexOutOfBounds {
                index: (r, c),
                shape: self.shape(),
            });
        }
        Ok(self.get(r, c))
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    pub fn column(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Resizes to `rows x cols` without preserving contents, reusing the
    /// existing allocation where possible.  Every element is considered
    /// uninitialised after the call; callers must overwrite the full buffer.
    /// This is the cheap shape-setting step of every `*_into` kernel —
    /// prefer it over [`DenseMatrix::copy_from`] when the copied values
    /// would be immediately overwritten anyway.
    pub fn resize_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Copies `other` into `self`, reusing `self`'s allocation.
    pub fn copy_from(&mut self, other: &DenseMatrix) {
        self.resize_for_overwrite(other.rows, other.cols);
        self.data.copy_from_slice(&other.data);
    }

    /// Overwrites `self` with `f` applied element-wise to `src`, reusing
    /// `self`'s allocation (`self` is resized to `src`'s shape).
    ///
    /// This is the allocation-free counterpart of [`DenseMatrix::map`]; the
    /// encoder's activation layers use it so every epoch reuses the same
    /// hidden-state buffers.
    pub fn map_from(&mut self, src: &DenseMatrix, f: impl Fn(f64) -> f64) {
        self.resize_for_overwrite(src.rows, src.cols);
        for (dst, &v) in self.data.iter_mut().zip(&src.data) {
            *dst = f(v);
        }
    }

    /// Returns the transpose as a new matrix (tile-blocked so both operands
    /// stream through cache in lines rather than strided single elements).
    pub fn transpose(&self) -> DenseMatrix {
        const TILE: usize = 32;
        let (rows, cols) = self.shape();
        let mut out = DenseMatrix::zeros(cols, rows);
        for r0 in (0..rows).step_by(TILE) {
            let r1 = (r0 + TILE).min(rows);
            for c0 in (0..cols).step_by(TILE) {
                let c1 = (c0 + TILE).min(cols);
                for r in r0..r1 {
                    for c in c0..c1 {
                        out.data[c * rows + r] = self.data[r * cols + c];
                    }
                }
            }
        }
        out
    }

    /// Matrix product `self * rhs` (blocked GEMM, parallelised over output
    /// row chunks).
    pub fn matmul(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        let mut out = DenseMatrix::zeros(0, 0);
        self.matmul_into(rhs, &mut out)?;
        Ok(out)
    }

    /// Like [`DenseMatrix::matmul`], but writes into `out`, reusing its
    /// allocation (`out` is resized as needed).
    pub fn matmul_into(&self, rhs: &DenseMatrix, out: &mut DenseMatrix) -> Result<()> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        out.resize_for_overwrite(m, n);
        let rhs_data = &rhs.data;
        let lhs = StridedA {
            data: &self.data,
            row_stride: k,
            col_stride: 1,
        };
        gemm::gemm_into(m, n, k, lhs, |p, j| rhs_data[p * n + j], &mut out.data);
        Ok(())
    }

    /// Computes `selfᵀ * self` (the `cols x cols` Gram matrix) without
    /// materialising the transpose.
    pub fn gram(&self) -> DenseMatrix {
        let (n, d) = self.shape();
        let mut out = DenseMatrix::zeros(d, d);
        let data = &self.data;
        let lhs = StridedA {
            data,
            row_stride: 1,
            col_stride: d,
        };
        gemm::gemm_into(d, d, n, lhs, |p, j| data[p * d + j], &mut out.data);
        out
    }

    /// Computes `selfᵀ * rhs` without materialising the transpose of `self`.
    ///
    /// Both operands must have the same number of rows (the contracted
    /// dimension).  The result is `self.cols x rhs.cols`.  This is the kernel
    /// behind the weight gradient `∂loss/∂W = Pᵀ·dZ` of GCN backpropagation,
    /// which previously paid for an explicit transpose per layer per epoch.
    pub fn transposed_matmul(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        let mut out = DenseMatrix::zeros(0, 0);
        self.transposed_matmul_into(rhs, &mut out)?;
        Ok(out)
    }

    /// Like [`DenseMatrix::transposed_matmul`], but writes into `out`, reusing
    /// its allocation (`out` is resized as needed).
    pub fn transposed_matmul_into(&self, rhs: &DenseMatrix, out: &mut DenseMatrix) -> Result<()> {
        if self.rows != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "transposed_matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (m, k, n) = (self.cols, self.rows, rhs.cols);
        out.resize_for_overwrite(m, n);
        let rhs_data = &rhs.data;
        let lhs = StridedA {
            data: &self.data,
            row_stride: 1,
            col_stride: m,
        };
        gemm::gemm_into(m, n, k, lhs, |p, j| rhs_data[p * n + j], &mut out.data);
        Ok(())
    }

    /// Computes `self * rhsᵀ` without materialising the transpose of `rhs`.
    ///
    /// Both operands must have the same number of columns. The result is
    /// `self.rows x rhs.rows`.  This is the kernel behind the node-embedding
    /// correlation matrix.
    pub fn matmul_transpose(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        let mut out = DenseMatrix::zeros(0, 0);
        self.matmul_transpose_into(rhs, &mut out)?;
        Ok(out)
    }

    /// Like [`DenseMatrix::matmul_transpose`], but writes into `out`, reusing
    /// its allocation (`out` is resized as needed).
    pub fn matmul_transpose_into(&self, rhs: &DenseMatrix, out: &mut DenseMatrix) -> Result<()> {
        if self.cols != rhs.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_transpose",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (m, d, n) = (self.rows, self.cols, rhs.rows);
        out.resize_for_overwrite(m, n);
        let rhs_data = &rhs.data;
        let lhs = StridedA {
            data: &self.data,
            row_stride: d,
            col_stride: 1,
        };
        gemm::gemm_into(m, n, d, lhs, |p, j| rhs_data[j * d + p], &mut out.data);
        Ok(())
    }

    /// Bit-for-bit equality: same shape and equal `to_bits()` of every value.
    /// Unlike `==` it tells `0.0` from `-0.0` and equates a NaN with itself,
    /// so equal matrices give equal bits through every kernel.
    pub fn bit_eq(&self, rhs: &DenseMatrix) -> bool {
        self.shape() == rhs.shape() && same_bits(&self.data, &rhs.data)
    }

    /// Element-wise sum. Shapes must match.
    pub fn add(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise difference. Shapes must match.
    pub fn sub(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product. Shapes must match.
    pub fn hadamard(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        self.zip_with(rhs, "hadamard", |a, b| a * b)
    }

    fn zip_with(
        &self,
        rhs: &DenseMatrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<DenseMatrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// In-place element-wise addition of `alpha * rhs` (fused AXPY — one
    /// traversal, shared with every other scaled-accumulate in the
    /// workspace via [`crate::ops::axpy`]).
    pub fn add_scaled_inplace(&mut self, rhs: &DenseMatrix, alpha: f64) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "add_scaled_inplace",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        axpy(alpha, &rhs.data, &mut self.data);
        Ok(())
    }

    /// Returns a copy scaled by `alpha`.
    pub fn scale(&self, alpha: f64) -> DenseMatrix {
        let data = self.data.iter().map(|&v| v * alpha).collect();
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Scales the matrix in place.
    pub fn scale_inplace(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Applies `f` element-wise, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> DenseMatrix {
        let data = self.data.iter().map(|&v| f(v)).collect();
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Applies `f` element-wise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Scales row `r` by `alpha`.
    pub fn scale_row(&mut self, r: usize, alpha: f64) {
        for v in self.row_mut(r) {
            *v *= alpha;
        }
    }

    /// Left-multiplies by a diagonal matrix given as a vector of diagonal
    /// entries: `out[i, :] = diag[i] * self[i, :]`.
    pub fn scale_rows(&self, diag: &[f64]) -> Result<DenseMatrix> {
        if diag.len() != self.rows {
            return Err(LinalgError::DataLength {
                expected: self.rows,
                actual: diag.len(),
            });
        }
        let mut out = self.clone();
        for (r, &a) in diag.iter().enumerate() {
            out.scale_row(r, a);
        }
        Ok(out)
    }

    /// Right-multiplies by a diagonal matrix: `out[:, j] = self[:, j] * diag[j]`.
    pub fn scale_cols(&self, diag: &[f64]) -> Result<DenseMatrix> {
        if diag.len() != self.cols {
            return Err(LinalgError::DataLength {
                expected: self.cols,
                actual: diag.len(),
            });
        }
        let mut out = self.clone();
        for r in 0..out.rows {
            for (c, &a) in diag.iter().enumerate() {
                out.data[r * out.cols + c] *= a;
            }
        }
        Ok(out)
    }

    /// Squared Frobenius norm `Σ self[i,j]²`.
    pub fn frobenius_norm_sq(&self) -> f64 {
        self.data.iter().map(|&v| v * v).sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.frobenius_norm_sq().sqrt()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Trace (sum of diagonal entries) of a square matrix.
    pub fn trace(&self) -> f64 {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self.get(i, i)).sum()
    }

    /// Frobenius inner product `<self, rhs> = Σ self[i,j] * rhs[i,j]`.
    pub fn frobenius_dot(&self, rhs: &DenseMatrix) -> Result<f64> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "frobenius_dot",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        Ok(self.data.iter().zip(&rhs.data).map(|(&a, &b)| a * b).sum())
    }

    /// Maximum absolute entry (0 for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |acc, &v| acc.max(v.abs()))
    }

    /// Extracts the sub-matrix formed by the given row indices (in order).
    pub fn select_rows(&self, indices: &[usize]) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(indices.len(), self.cols);
        for (i, &r) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Stacks `self` on top of `other` (column counts must match).
    pub fn vstack(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "vstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut data = Vec::with_capacity((self.rows + other.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Ok(DenseMatrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Solves the linear system `self · X = rhs` for `X` by Gaussian
    /// elimination with partial pivoting.
    ///
    /// `self` must be square and non-singular; `rhs` may have any number of
    /// columns.  Used by the ridge-regression mapping step of the PALE
    /// baseline and by small dense solves in tests.
    pub fn solve(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        if self.rows != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "solve (lhs must be square)",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        if self.rows != rhs.rows() {
            return Err(LinalgError::ShapeMismatch {
                op: "solve",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let n = self.rows;
        let m = rhs.cols();
        let mut a = self.clone();
        let mut b = rhs.clone();
        for col in 0..n {
            // Partial pivoting.
            let mut pivot_row = col;
            let mut pivot_val = a.get(col, col).abs();
            for r in (col + 1)..n {
                let v = a.get(r, col).abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-12 {
                return Err(LinalgError::InvalidSparseStructure(
                    "matrix is singular to working precision".into(),
                ));
            }
            if pivot_row != col {
                for c in 0..n {
                    let tmp = a.get(col, c);
                    a.set(col, c, a.get(pivot_row, c));
                    a.set(pivot_row, c, tmp);
                }
                for c in 0..m {
                    let tmp = b.get(col, c);
                    b.set(col, c, b.get(pivot_row, c));
                    b.set(pivot_row, c, tmp);
                }
            }
            // Eliminate below.
            let pivot = a.get(col, col);
            for r in (col + 1)..n {
                let factor = a.get(r, col) / pivot;
                if factor == 0.0 {
                    continue;
                }
                for c in col..n {
                    let v = a.get(r, c) - factor * a.get(col, c);
                    a.set(r, c, v);
                }
                for c in 0..m {
                    let v = b.get(r, c) - factor * b.get(col, c);
                    b.set(r, c, v);
                }
            }
        }
        // Back substitution.
        let mut x = DenseMatrix::zeros(n, m);
        for r in (0..n).rev() {
            for c in 0..m {
                let mut acc = b.get(r, c);
                for k in (r + 1)..n {
                    acc -= a.get(r, k) * x.get(k, c);
                }
                x.set(r, c, acc / a.get(r, r));
            }
        }
        Ok(x)
    }

    /// Returns true if every element differs from the corresponding element of
    /// `rhs` by at most `tol`.
    pub fn approx_eq(&self, rhs: &DenseMatrix, tol: f64) -> bool {
        self.shape() == rhs.shape()
            && self
                .data
                .iter()
                .zip(&rhs.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

/// True when both slices hold the same values bit for bit (`to_bits()`), so
/// `0.0` and `-0.0` differ and a NaN equals the same NaN payload.
pub(crate) fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Dot product between two equally sized slices.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DenseMatrix {
        DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    #[test]
    fn bit_eq_tells_signed_zeros_and_shapes_apart() {
        let m = small();
        assert!(m.bit_eq(&m.clone()));
        let zeros = DenseMatrix::zeros(1, 2);
        let negative = DenseMatrix::from_vec(1, 2, vec![0.0, -0.0]).unwrap();
        assert_eq!(zeros, negative, "`==` merges the signed zeros");
        assert!(!zeros.bit_eq(&negative));
        assert!(!zeros.bit_eq(&DenseMatrix::zeros(2, 1)));
        let nan = DenseMatrix::filled(1, 1, f64::NAN);
        assert!(nan.bit_eq(&nan.clone()));
    }

    #[test]
    fn construct_and_access() {
        let m = small();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.column(2), vec![3.0, 6.0]);
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).is_err());
    }

    #[test]
    fn identity_and_diagonal() {
        let i = DenseMatrix::identity(3);
        assert_eq!(i.trace(), 3.0);
        let d = DenseMatrix::from_diagonal(&[2.0, 5.0]);
        assert_eq!(d.get(0, 0), 2.0);
        assert_eq!(d.get(1, 1), 5.0);
        assert_eq!(d.get(0, 1), 0.0);
    }

    #[test]
    fn transpose_round_trip() {
        let m = small();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_known_values() {
        let a = small();
        let b = DenseMatrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.get(0, 0), 58.0);
        assert_eq!(c.get(0, 1), 64.0);
        assert_eq!(c.get(1, 0), 139.0);
        assert_eq!(c.get(1, 1), 154.0);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = small();
        let i = DenseMatrix::identity(3);
        assert!(m.matmul(&i).unwrap().approx_eq(&m, 1e-12));
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = small();
        assert!(a.matmul(&small()).is_err());
    }

    #[test]
    fn matmul_transpose_matches_explicit_transpose() {
        let a = small();
        let b = DenseMatrix::from_vec(4, 3, (0..12).map(|v| v as f64).collect()).unwrap();
        let via_t = a.matmul(&b.transpose()).unwrap();
        let direct = a.matmul_transpose(&b).unwrap();
        assert!(via_t.approx_eq(&direct, 1e-12));
    }

    #[test]
    fn transposed_matmul_matches_explicit_transpose() {
        let a = DenseMatrix::from_vec(4, 2, (0..8).map(|v| v as f64 - 3.0).collect()).unwrap();
        let b = DenseMatrix::from_vec(4, 3, (0..12).map(|v| v as f64 * 0.5).collect()).unwrap();
        let via_t = a.transpose().matmul(&b).unwrap();
        let direct = a.transposed_matmul(&b).unwrap();
        assert!(via_t.approx_eq(&direct, 1e-12));
        // Mismatched contracted dimension is rejected.
        assert!(a.transposed_matmul(&DenseMatrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn map_from_reuses_and_resizes() {
        let src = small();
        let mut out = DenseMatrix::zeros(7, 7);
        out.map_from(&src, |v| v * 2.0);
        assert_eq!(out.shape(), src.shape());
        assert_eq!(out.get(1, 2), 12.0);
    }

    #[test]
    fn gram_matches_explicit_product() {
        let a = small();
        let explicit = a.transpose().matmul(&a).unwrap();
        assert!(a.gram().approx_eq(&explicit, 1e-12));
    }

    #[test]
    fn elementwise_ops() {
        let a = small();
        let b = small();
        assert_eq!(a.add(&b).unwrap().get(1, 2), 12.0);
        assert_eq!(a.sub(&b).unwrap().frobenius_norm(), 0.0);
        assert_eq!(a.hadamard(&b).unwrap().get(0, 2), 9.0);
    }

    #[test]
    fn add_scaled_inplace_works() {
        let mut a = small();
        let b = small();
        a.add_scaled_inplace(&b, -1.0).unwrap();
        assert_eq!(a.frobenius_norm(), 0.0);
    }

    #[test]
    fn scale_rows_and_cols() {
        let m = small();
        let r = m.scale_rows(&[2.0, 0.5]).unwrap();
        assert_eq!(r.get(0, 0), 2.0);
        assert_eq!(r.get(1, 2), 3.0);
        let c = m.scale_cols(&[1.0, 0.0, 2.0]).unwrap();
        assert_eq!(c.get(0, 1), 0.0);
        assert_eq!(c.get(1, 2), 12.0);
    }

    #[test]
    fn norms_and_trace() {
        let m = small();
        assert!((m.frobenius_norm_sq() - 91.0).abs() < 1e-12);
        assert!((m.frobenius_norm() - 91.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!(m.sum(), 21.0);
        assert_eq!(m.max_abs(), 6.0);
        let sq = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(sq.trace(), 5.0);
    }

    #[test]
    fn frobenius_dot_matches_manual() {
        let a = small();
        let b = small().scale(2.0);
        assert!((a.frobenius_dot(&b).unwrap() - 2.0 * 91.0).abs() < 1e-12);
    }

    #[test]
    fn select_rows_and_vstack() {
        let m = small();
        let s = m.select_rows(&[1, 0, 1]);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.row(0), m.row(1));
        let v = m.vstack(&m).unwrap();
        assert_eq!(v.shape(), (4, 3));
        assert_eq!(v.row(2), m.row(0));
    }

    #[test]
    fn map_and_scale() {
        let m = small().map(|v| v * v);
        assert_eq!(m.get(1, 2), 36.0);
        let mut n = small();
        n.map_inplace(|v| -v);
        assert_eq!(n.get(0, 0), -1.0);
        n.scale_inplace(-1.0);
        assert_eq!(n.get(0, 0), 1.0);
    }

    #[test]
    fn zero_dimension_products_are_cheap_noops() {
        // Every (m, k, n) with at least one zero dimension, through all four
        // product variants and their `*_into` entry points.  The output must
        // be correctly shaped and zeroed (never stale), and nothing may
        // panic or pack out of bounds.  `out` starts dirty and mis-shaped to
        // prove the resize-and-zero contract.
        let dirty = || DenseMatrix::filled(3, 3, 7.5);

        for &(m, k, n) in &[(0usize, 4usize, 3usize), (4, 0, 3), (4, 3, 0), (0, 0, 0)] {
            let a = DenseMatrix::filled(m, k, 1.0);
            let b = DenseMatrix::filled(k, n, 1.0);
            let mut out = dirty();
            a.matmul_into(&b, &mut out).unwrap();
            assert_eq!(out.shape(), (m, n), "matmul ({m},{k},{n})");
            assert!(out.data().iter().all(|&v| v == 0.0));

            // A·Bᵀ: contract over k columns, rhs has n rows.
            let bt = DenseMatrix::filled(n, k, 1.0);
            let mut out = dirty();
            a.matmul_transpose_into(&bt, &mut out).unwrap();
            assert_eq!(out.shape(), (m, n), "matmul_transpose ({m},{k},{n})");
            assert!(out.data().iter().all(|&v| v == 0.0));

            // Aᵀ·B: contract over the shared row count.
            let tall = DenseMatrix::filled(k, m, 1.0);
            let rhs = DenseMatrix::filled(k, n, 1.0);
            let mut out = dirty();
            tall.transposed_matmul_into(&rhs, &mut out).unwrap();
            assert_eq!(out.shape(), (m, n), "transposed_matmul ({m},{k},{n})");
            assert!(out.data().iter().all(|&v| v == 0.0));
        }

        // AᵀA of a 0×d matrix is a d×d zero matrix; of an n×0 matrix, 0×0.
        let gram_empty_rows = DenseMatrix::zeros(0, 5).gram();
        assert_eq!(gram_empty_rows.shape(), (5, 5));
        assert!(gram_empty_rows.data().iter().all(|&v| v == 0.0));
        assert_eq!(DenseMatrix::zeros(5, 0).gram().shape(), (0, 0));
    }

    #[test]
    fn try_get_bounds() {
        let m = small();
        assert!(m.try_get(0, 0).is_ok());
        assert!(m.try_get(2, 0).is_err());
        assert!(m.try_get(0, 3).is_err());
    }

    #[test]
    fn dot_helper() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a =
            DenseMatrix::from_vec(3, 3, vec![4.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0]).unwrap();
        let x_true = DenseMatrix::from_vec(3, 2, vec![1.0, -1.0, 2.0, 0.5, -0.5, 3.0]).unwrap();
        let b = a.matmul(&x_true).unwrap();
        let x = a.solve(&b).unwrap();
        assert!(x.approx_eq(&x_true, 1e-9));
    }

    #[test]
    fn solve_handles_pivoting() {
        // Leading zero forces a row swap.
        let a = DenseMatrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let b = DenseMatrix::from_vec(2, 1, vec![3.0, 7.0]).unwrap();
        let x = a.solve(&b).unwrap();
        assert!((x.get(0, 0) - 7.0).abs() < 1e-12);
        assert!((x.get(1, 0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_rejects_singular_and_mismatched() {
        let singular = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]).unwrap();
        assert!(singular.solve(&DenseMatrix::zeros(2, 1)).is_err());
        let not_square = DenseMatrix::zeros(2, 3);
        assert!(not_square.solve(&DenseMatrix::zeros(2, 1)).is_err());
        let square = DenseMatrix::identity(3);
        assert!(square.solve(&DenseMatrix::zeros(2, 1)).is_err());
    }
}
