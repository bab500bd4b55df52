//! Row-major dense `f32` matrix.
//!
//! [`Matrix`] is the workhorse type of the workspace. It stores data
//! contiguously in row-major order, which matches the "token-major" layout
//! used throughout the paper: a batch of activations is a `tokens x channels`
//! matrix whose *channels* are the last (contiguous) dimension, exactly the
//! convention Atom's group quantization assumes (§2 of the paper denotes the
//! channel as the last dimension of the input matrix).

use crate::{Result, TensorError};
use serde::{Deserialize, Serialize};

/// A dense, row-major `f32` matrix.
///
/// Rows typically index tokens (activations) or output features (weights);
/// columns index channels.
///
/// # Example
///
/// ```
/// use atom_tensor::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// assert_eq!(m[(1, 2)], 6.0);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Matrix({}x{}", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, ", {:?}", self.data)?;
        } else {
            let head: Vec<f32> = self.data.iter().take(8).copied().collect();
            write!(f, ", head={head:?}…")?;
        }
        write!(f, ")")
    }
}

/// Output columns per panel of [`Matrix::matmul_nt`]: 16 `f32` accumulators
/// are four SSE registers, enough independent chains to hide the add latency.
const NT_PANEL: usize = 16;

impl Matrix {
    /// Creates a matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows.checked_mul(cols).expect("matrix size overflow");
        Matrix {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Creates a matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        m.data.fill(value);
        m
    }

    /// Creates the `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from an owned buffer in row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "row {i} has length {} != {cols}", r.len());
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a `1 x n` row vector matrix.
    pub fn from_row(row: &[f32]) -> Self {
        Matrix {
            rows: 1,
            cols: row.len(),
            data: row.to_vec(),
        }
    }

    /// Builds a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (channels).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns its row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds for {} rows", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds for {} rows", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> Vec<f32> {
        assert!(c < self.cols, "col {c} out of bounds for {} cols", self.cols);
        (0..self.rows).map(|r| self.data[r * self.cols + c]).collect()
    }

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        // Blocked transpose for cache friendliness on large matrices.
        const B: usize = 32;
        for rb in (0..self.rows).step_by(B) {
            for cb in (0..self.cols).step_by(B) {
                for r in rb..(rb + B).min(self.rows) {
                    for c in cb..(cb + B).min(self.cols) {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
        out
    }

    /// Dense matrix multiplication `self * rhs`.
    ///
    /// Uses an i-k-j loop order so the inner loop streams both operand rows,
    /// which lets LLVM auto-vectorize it.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`. Use [`Matrix::try_matmul`] for a
    /// fallible variant.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        self.try_matmul(rhs).expect("matmul shape mismatch")
    }

    /// Fallible dense matrix multiplication `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols() != rhs.rows()`.
    pub fn try_matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let n = rhs.cols;
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &rhs.data[k * n..(k + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix multiplication with the second operand pre-transposed:
    /// computes `self * rhs_t.transpose()` without materializing the
    /// transpose. This is the natural layout for `x @ W^T` linear layers.
    ///
    /// The output columns are walked in panels of `NT_PANEL`: each panel's
    /// weight rows are packed once per call into a `k x NT_PANEL` buffer,
    /// and every activation row then adds `a[p] * panel[p][t]` into
    /// `NT_PANEL` independent accumulators, `p` ascending. Each output is
    /// therefore the plain dot product, bit for bit: `k` products added in
    /// order to a sum that starts at `0.0`. Only the lanes are vectorised,
    /// across output columns instead of along one serial chain per output.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs_t.cols()`.
    pub fn matmul_nt(&self, rhs_t: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs_t.cols,
            "matmul_nt inner dimension mismatch: {} vs {}",
            self.cols, rhs_t.cols
        );
        let (k, n) = (self.cols, rhs_t.rows);
        let mut out = Matrix::zeros(self.rows, n);
        let mut panel = vec![[0.0f32; NT_PANEL]; k];
        for j0 in (0..n).step_by(NT_PANEL) {
            let width = NT_PANEL.min(n - j0);
            // Lanes past `width` repeat the last row; their sums are never stored.
            let w_rows: [&[f32]; NT_PANEL] = std::array::from_fn(|t| rhs_t.row(j0 + t.min(width - 1)));
            for (p, dst) in panel.iter_mut().enumerate() {
                for (d, w_row) in dst.iter_mut().zip(&w_rows) {
                    *d = w_row[p];
                }
            }
            let a_rows = self.data.chunks_exact(k.max(1));
            for (a_row, out_row) in a_rows.zip(out.data.chunks_exact_mut(n)) {
                let mut acc = [0.0f32; NT_PANEL];
                for (&a, w) in a_row.iter().zip(&panel) {
                    for (s, &b) in acc.iter_mut().zip(w) {
                        *s += a * b;
                    }
                }
                out_row[j0..j0 + width].copy_from_slice(&acc[..width]);
            }
        }
        out
    }

    /// Element-wise sum. Both operands must share a shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Element-wise difference `self - rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "hadamard shape mismatch");
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a * b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_in_place(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Returns a copy scaled by `s`.
    pub fn scaled(&self, s: f32) -> Matrix {
        let mut out = self.clone();
        out.scale_in_place(s);
        out
    }

    /// Adds `rhs` scaled by `alpha` into `self` (axpy).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled_in_place(&mut self, rhs: &Matrix, alpha: f32) {
        assert_eq!(self.shape(), rhs.shape(), "add_scaled shape mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Scales each column `c` by `scales[c]` in place (per-channel scaling).
    ///
    /// # Panics
    ///
    /// Panics if `scales.len() != self.cols()`.
    pub fn scale_cols_in_place(&mut self, scales: &[f32]) {
        assert_eq!(scales.len(), self.cols, "scale_cols length mismatch");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (v, &s) in row.iter_mut().zip(scales.iter()) {
                *v *= s;
            }
        }
    }

    /// Gathers columns in the order given by `perm`, producing a new matrix
    /// whose column `i` is `self`'s column `perm[i]`.
    ///
    /// This implements the *channel reordering* of §4.1: activations are
    /// permuted so that outlier channels land at the end of the matrix, which
    /// keeps mixed-precision memory accesses regular.
    ///
    /// # Panics
    ///
    /// Panics if `perm.len() != self.cols()` or an index is out of bounds.
    pub fn permute_cols(&self, perm: &[usize]) -> Matrix {
        assert_eq!(perm.len(), self.cols, "permutation length mismatch");
        self.gather_cols(perm)
    }

    /// Gathers columns: output column `i` is `self`'s column `cols[i]` —
    /// [`permute_cols`](Self::permute_cols) without the requirement that
    /// every column appears (e.g. only the outlier tail of a reorder plan).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn gather_cols(&self, cols: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, cols.len());
        for r in 0..self.rows {
            let src = &self.data[r * self.cols..(r + 1) * self.cols];
            for (d, &c) in out.row_mut(r).iter_mut().zip(cols) {
                *d = src[c];
            }
        }
        out
    }

    /// Gathers rows: output row `i` is `self`'s row `rows[i]`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn gather_rows(&self, rows: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(rows.len(), self.cols);
        for (i, &r) in rows.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Returns a new matrix containing rows `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.rows()`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.rows, "row slice out of bounds");
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Returns a new matrix containing columns `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.cols()`.
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.cols, "col slice out of bounds");
        let mut out = Matrix::zeros(self.rows, end - start);
        for r in 0..self.rows {
            out.row_mut(r)
                .copy_from_slice(&self.row(r)[start..end]);
        }
        out
    }

    /// Vertically stacks `self` on top of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.extend_rows(other);
        out
    }

    /// Appends `other`'s rows below `self`'s in place: the in-place
    /// [`vstack`](Self::vstack). The held rows move only when the storage
    /// outgrows its capacity, so growing row by row costs amortized O(1)
    /// copies per row.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn extend_rows(&mut self, other: &Matrix) {
        assert_eq!(self.cols, other.cols, "vstack column mismatch");
        self.data.extend_from_slice(&other.data);
        self.rows += other.rows;
    }

    /// Drops every row past the first `rows`, in place. A no-op when the
    /// matrix holds `rows` or fewer.
    pub fn truncate_rows(&mut self, rows: usize) {
        if rows < self.rows {
            self.rows = rows;
            self.data.truncate(rows * self.cols);
        }
    }

    /// Horizontally concatenates `self` with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn hstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hstack row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Maximum absolute element, or `0.0` for an empty matrix.
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Frobenius norm.
    pub fn frob_norm(&self) -> f32 {
        crate::cast::f64_to_f32(self.data.iter().map(|v| (*v as f64) * (*v as f64)).sum::<f64>().sqrt())
    }

    /// Mean squared error against `other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or an empty matrix.
    pub fn mse(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "mse shape mismatch");
        assert!(!self.is_empty(), "mse of empty matrix");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| {
                let d = (*a as f64) - (*b as f64);
                d * d
            })
            .sum::<f64>()
            / self.data.len() as f64
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_and_full() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let f = Matrix::full(2, 2, 7.5);
        assert!(f.as_slice().iter().all(|&v| v == 7.5));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.matmul(&Matrix::eye(2)), a);
        assert_eq!(Matrix::eye(2).matmul(&a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]));
    }

    #[test]
    fn try_matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.try_matmul(&b),
            Err(TensorError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.5 - 2.0);
        let w = Matrix::from_fn(5, 4, |r, c| ((r + c) % 7) as f32 - 3.0);
        let fast = a.matmul_nt(&w);
        let slow = a.matmul(&w.transpose());
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    /// The loop `matmul_nt` replaced: one serial dot chain per output.
    fn matmul_nt_oracle(a: &Matrix, w: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows(), w.rows(), |i, j| {
            let mut acc = 0.0f32;
            for (&x, &y) in a.row(i).iter().zip(w.row(j)) {
                acc += x * y;
            }
            acc
        })
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Normal entries, a third of them exactly `±0.0`, the rest scaled by
    /// `2^e` for `e` in `-20..20`: signed zeros and sums whose rounding
    /// depends on the order of their terms.
    fn wide(rng: &mut crate::SeededRng, rows: usize, cols: usize) -> Matrix {
        let mut m = rng.normal_matrix(rows, cols, 0.0, 1.0);
        for v in m.as_mut_slice() {
            let e = i32::try_from(rng.below(40)).unwrap_or(0) - 20;
            *v = if v.abs() < 0.43 { 0.0 * v.signum() } else { *v * 2f32.powi(e) };
        }
        m
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn matmul_nt_is_the_dot_loop_bit_for_bit(
            m in 0usize..131,
            n in 1usize..201,
            k in 1usize..401,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = crate::SeededRng::new(seed);
            let a = wide(&mut rng, m, k);
            let w = wide(&mut rng, n, k);
            prop_assert_eq!(bits(&a.matmul_nt(&w)), bits(&matmul_nt_oracle(&a, &w)));
        }
    }

    #[test]
    fn matmul_nt_handles_empty_operands() {
        let empty_k = Matrix::zeros(3, 0).matmul_nt(&Matrix::zeros(5, 0));
        assert_eq!(bits(&empty_k), vec![0; 15]);
        assert_eq!(Matrix::zeros(0, 4).matmul_nt(&Matrix::zeros(7, 4)).shape(), (0, 7));
        assert_eq!(Matrix::zeros(2, 4).matmul_nt(&Matrix::zeros(0, 4)).shape(), (2, 0));
        assert_eq!(Matrix::zeros(0, 0).matmul_nt(&Matrix::zeros(0, 0)).shape(), (0, 0));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(5, 7, |r, c| (r * 31 + c * 17) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn permute_cols_roundtrip() {
        let a = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        let perm = vec![2, 0, 3, 1];
        let p = a.permute_cols(&perm);
        // Invert the permutation.
        let mut inv = vec![0usize; 4];
        for (i, &p_i) in perm.iter().enumerate() {
            inv[p_i] = i;
        }
        assert_eq!(p.permute_cols(&inv), a);
    }

    #[test]
    fn slices_and_stacks() {
        let a = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let top = a.slice_rows(0, 2);
        let bottom = a.slice_rows(2, 4);
        assert_eq!(top.vstack(&bottom), a);
        let mut grown = top.clone();
        grown.extend_rows(&bottom);
        assert_eq!(grown, a);
        grown.truncate_rows(2);
        assert_eq!(grown, top);
        grown.truncate_rows(3);
        assert_eq!(grown, top);
        let left = a.slice_cols(0, 2);
        let right = a.slice_cols(2, 4);
        assert_eq!(left.hstack(&right), a);
    }

    #[test]
    fn scale_cols_in_place_scales_columns() {
        let mut a = Matrix::full(2, 3, 1.0);
        a.scale_cols_in_place(&[1.0, 2.0, 3.0]);
        assert_eq!(a.row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn mse_and_norms() {
        let a = Matrix::from_row(&[3.0, 4.0]);
        assert!((a.frob_norm() - 5.0).abs() < 1e-6);
        assert_eq!(a.abs_max(), 4.0);
        let b = Matrix::from_row(&[3.0, 2.0]);
        assert!((a.mse(&b) - 2.0).abs() < 1e-9);
    }
}
