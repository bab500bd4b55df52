//! Asymmetric per-row quantized containers for the KV-cache (paper §4.4).
//!
//! The KV-cache is quantized *asymmetrically* because — unlike the dense
//! GEMM operands — its dequantization happens inside attention, before an
//! FP16 computation, so zero points cost no extra integer cross-terms (§2).
//! The paper uses attention-head granularity: each `(token, head)` vector
//! gets its own scale and zero point. Here one [`AsymQuantized`] holds one head's
//! rows, so each row is exactly one `(token, head)` quantization group.

use crate::group::{code_bias, code_levels, integer_low_byte, round_clamped};
use crate::packed::PackedMatrix;
use atom_tensor::f16::round_f16;
use atom_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Asymmetrically quantized matrix with one `(scale, zero)` pair per row.
///
/// Follows the paper's uniform asymmetric formula (§2) in the equivalent
/// affine `(scale, min)` form, which keeps constant rows exact and offsets
/// lossless (the integer zero point `z = -min/s` is folded into the stored
/// minimum):
///
/// ```text
/// s = (max(X) - min(X)) / (2^n - 1)
/// q = clamp(round((x - min) / s), 0, 2^n - 1)
/// x' = min + s * q
/// ```
///
/// # Example
///
/// ```
/// use atom_kernels::AsymQuantized;
/// use atom_tensor::Matrix;
///
/// let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]);
/// let q = AsymQuantized::quantize(&x, 4);
/// assert!(q.dequantize().mse(&x) < 0.02);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsymQuantized {
    bits: u8,
    /// Unsigned codes stored biased into the signed packed container.
    codes: PackedMatrix,
    /// Per-row scale (f16-rounded).
    scales: Vec<f32>,
    /// Per-row minimum (f16-rounded); plays the role of the zero point.
    mins: Vec<f32>,
}

impl AsymQuantized {
    /// Quantizes each row of `x` asymmetrically at `bits` precision.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= bits <= 8`.
    pub fn quantize(x: &Matrix, bits: u8) -> Self {
        Self::quantize_row_slices((0..x.rows()).map(|r| x.row(r)), x.cols(), bits)
    }

    /// [`quantize`](Self::quantize) over rows handed in as slices, each
    /// `cols` wide — so a caller holding wider rows quantizes a column block
    /// without copying it out first.
    ///
    /// # Example
    ///
    /// ```
    /// use atom_kernels::AsymQuantized;
    /// use atom_tensor::Matrix;
    ///
    /// let wide = Matrix::from_rows(&[&[9.0, 1.0, 2.0, 3.0], &[9.0, -1.0, 0.5, 8.0]]);
    /// let block = (0..wide.rows()).map(|r| wide.row(r).get(1..).unwrap_or(&[]));
    /// let from_slices = AsymQuantized::quantize_row_slices(block, 3, 4);
    /// assert_eq!(from_slices, AsymQuantized::quantize(&wide.slice_cols(1, 4), 4));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= bits <= 8` and every row is `cols` wide.
    pub fn quantize_row_slices<'a>(
        rows: impl ExactSizeIterator<Item = &'a [f32]>,
        cols: usize,
        bits: u8,
    ) -> Self {
        let mut q = Self::empty(cols, bits);
        q.extend_rows(rows);
        q
    }

    /// Quantizes `rows`, each [`cols`](Self::cols) wide, onto the end of
    /// this container: the payload grows once by the new rows, and each
    /// row's codes are packed into its slot and its scale and minimum
    /// pushed, so the cost is the new rows only and the history is never
    /// re-packed. This is the one copy of the quantizer arithmetic:
    /// [`quantize`], [`quantize_row_slices`] and [`append_rows`] all run it.
    /// Quantization is strictly per row, so N single-row extends `==` one
    /// N-row extend `==` quantizing all N rows at once.
    ///
    /// The KV cache extends each head's container straight from the
    /// `head_dim`-wide blocks of its `kv_dim`-wide rows.
    ///
    /// [`quantize`]: Self::quantize
    /// [`quantize_row_slices`]: Self::quantize_row_slices
    /// [`append_rows`]: Self::append_rows
    ///
    /// # Panics
    ///
    /// Panics if a row is not [`cols`](Self::cols) wide, or if `rows`
    /// yields a different number of rows than its `len()`. The payload has
    /// grown by then, so a container whose extend panicked must be dropped,
    /// not reused.
    pub fn extend_rows<'a>(&mut self, rows: impl ExactSizeIterator<Item = &'a [f32]>) {
        let cols = self.cols();
        let levels = f32::from(code_levels(self.bits));
        let bias = code_bias(self.bits); // shift unsigned codes into signed storage
        let first = self.rows();
        self.codes.grow_rows(rows.len());
        self.scales.reserve(rows.len());
        self.mins.reserve(rows.len());
        let mut row_codes = vec![0i8; cols];
        for (r, row) in (first..).zip(rows) {
            assert_eq!(row.len(), cols, "row width mismatch");
            let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
            for &v in row {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            if !lo.is_finite() || !hi.is_finite() {
                lo = 0.0;
                hi = 0.0;
            }
            let lo = round_f16(lo);
            let mut s = (hi - lo) / levels;
            if s <= 0.0 {
                s = 1.0;
            }
            s = round_f16(s).max(f32::MIN_POSITIVE);
            self.scales.push(s);
            self.mins.push(lo);
            for (c, &v) in row_codes.iter_mut().zip(row) {
                // q in 0..=levels fits a byte; `q - bias` in two's complement.
                let q = integer_low_byte(round_clamped((v - lo) / s, 0.0, levels));
                *c = i8::from_le_bytes([q.wrapping_sub(bias)]);
            }
            self.codes.pack_row(r, &row_codes);
        }
        assert_eq!(self.scales.len(), self.codes.rows(), "row iterator length mismatch");
    }

    /// Bit width.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.codes.rows()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.codes.cols()
    }

    /// Dequantizes every row: one sweep decodes the whole code payload
    /// ([`PackedMatrix::unpack_rows`]), then each row applies its affine
    /// map — the same per-element arithmetic as
    /// [`dequantize_row_scratch`](Self::dequantize_row_scratch), so the
    /// same bits.
    pub fn dequantize(&self) -> Matrix {
        let cols = self.cols();
        let mut out = Matrix::zeros(self.rows(), cols);
        let mut codes = vec![0i8; self.rows() * cols];
        self.codes.unpack_rows(0, &mut codes);
        let bias = f32::from(code_bias(self.bits));
        let affine = self.scales.iter().zip(&self.mins);
        let rows = out.as_mut_slice().chunks_exact_mut(cols.max(1));
        for ((row, row_codes), (&s, &lo)) in rows.zip(codes.chunks_exact(cols.max(1))).zip(affine) {
            for (d, &q) in row.iter_mut().zip(row_codes) {
                *d = lo + s * (f32::from(q) + bias);
            }
        }
        out
    }

    /// Dequantizes a single row into a caller buffer, allocating the code
    /// scratch [`dequantize_row_scratch`](Self::dequantize_row_scratch)
    /// lets a loop reuse.
    ///
    /// # Panics
    ///
    /// As [`dequantize_row_scratch`](Self::dequantize_row_scratch).
    pub fn dequantize_row_into(&self, r: usize, out: &mut [f32]) {
        self.dequantize_row_scratch(r, out, &mut Vec::new());
    }

    /// Dequantizes a single row into a caller buffer, decoding through a
    /// caller-owned code scratch buffer so a loop over many rows (KV
    /// materialization) performs no per-row allocation. `codes`
    /// is resized to `self.cols()` on every call; its prior contents are
    /// irrelevant.
    ///
    /// # Example
    ///
    /// ```
    /// use atom_kernels::AsymQuantized;
    /// use atom_tensor::Matrix;
    ///
    /// let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0], &[-1.0, 0.5, 2.0, 8.0]]);
    /// let q = AsymQuantized::quantize(&x, 4);
    /// let mut scratch = Vec::new();
    /// let mut row = vec![0.0f32; 4];
    /// q.dequantize_row_scratch(1, &mut row, &mut scratch);
    /// assert_eq!(&row[..], q.dequantize().row(1));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.cols()`. A row index out of range is a
    /// caller bug: it trips a debug assertion under test and writes zeros in
    /// release builds.
    pub fn dequantize_row_scratch(&self, r: usize, out: &mut [f32], codes: &mut Vec<i8>) {
        assert_eq!(out.len(), self.cols(), "buffer size mismatch");
        let (Some(&s), Some(&lo)) = (self.scales.get(r), self.mins.get(r)) else {
            debug_assert!(false, "row {r} out of range");
            out.fill(0.0);
            return;
        };
        codes.clear();
        codes.resize(self.cols(), 0);
        self.codes.unpack_row(r, codes);
        let bias = f32::from(code_bias(self.bits));
        for (d, &q) in out.iter_mut().zip(codes.iter()) {
            *d = lo + s * (f32::from(q) + bias);
        }
    }

    /// Appends the rows of `x`, quantizing them on the way in
    /// ([`extend_rows`](Self::extend_rows)).
    ///
    /// # Panics
    ///
    /// Panics if `x` is not [`cols`](Self::cols) wide.
    pub fn append_rows(&mut self, x: &Matrix) {
        assert_eq!(x.cols(), self.cols(), "append width mismatch");
        self.extend_rows((0..x.rows()).map(|r| x.row(r)));
    }

    /// Truncates to the first `rows` rows, dropping later codes and their
    /// scale/minimum pairs. A no-op when `rows >= self.rows()`.
    ///
    /// Because quantization is strictly per row, the surviving rows keep the
    /// exact codes/scales/mins they were written with — truncation is
    /// bit-identical to never having appended the dropped rows (the prefix
    /// cache relies on this when replaying a KV snapshot cut mid-sequence).
    pub fn truncate_rows(&mut self, rows: usize) {
        self.codes.truncate_rows(rows);
        self.scales.truncate(rows);
        self.mins.truncate(rows);
    }

    /// Real memory footprint: packed codes plus 16-bit scale and minimum
    /// per row.
    pub fn packed_bytes(&self) -> usize {
        self.codes.packed_bytes() + self.scales.len() * 2 + self.mins.len() * 2
    }

    /// Creates an empty container of width `cols`.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= bits <= 8`.
    pub fn empty(cols: usize, bits: u8) -> Self {
        AsymQuantized {
            bits,
            codes: PackedMatrix::zeros(0, cols, bits),
            scales: Vec::new(),
            mins: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atom_tensor::SeededRng;

    #[test]
    fn asym_beats_symmetric_on_shifted_data() {
        // Data with a large positive offset wastes half the symmetric grid.
        let mut rng = SeededRng::new(1);
        let mut x = rng.normal_matrix(4, 32, 0.0, 0.1);
        for v in x.as_mut_slice() {
            *v += 5.0;
        }
        let asym = AsymQuantized::quantize(&x, 4).dequantize().mse(&x);
        let sym = crate::group::fake_quantize(&x, crate::group::QuantSpec::new(4, usize::MAX))
            .mse(&x);
        assert!(asym < sym / 2.0, "asym {asym} vs sym {sym}");
    }

    #[test]
    fn roundtrip_error_bounded_by_half_step() {
        let mut rng = SeededRng::new(2);
        let x = rng.uniform_matrix(6, 16, -3.0, 7.0);
        let q = AsymQuantized::quantize(&x, 8);
        let d = q.dequantize();
        for r in 0..x.rows() {
            let range: f32 = 10.0; // hi - lo upper bound
            let step = range / 255.0;
            for (a, b) in x.row(r).iter().zip(d.row(r)) {
                assert!((a - b).abs() <= step, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn constant_rows_are_exact() {
        let x = Matrix::full(3, 8, 2.5);
        let q = AsymQuantized::quantize(&x, 4);
        let d = q.dequantize();
        for (a, b) in x.as_slice().iter().zip(d.as_slice()) {
            assert!((a - b).abs() < 2.5 * 2.0f32.powi(-10), "{a} vs {b}");
        }
    }

    #[test]
    fn append_rows_matches_fresh_quantization() {
        let mut rng = SeededRng::new(3);
        let a = rng.normal_matrix(2, 8, 0.0, 1.0);
        let b = rng.normal_matrix(3, 8, 2.0, 0.5);
        let mut grown = AsymQuantized::quantize(&a, 4);
        grown.append_rows(&b);
        assert_eq!(grown.rows(), 5);
        let fresh_b = AsymQuantized::quantize(&b, 4);
        let gd = grown.dequantize();
        let bd = fresh_b.dequantize();
        for r in 0..3 {
            assert_eq!(gd.row(2 + r), bd.row(r));
        }
    }

    /// The path [`AsymQuantized::extend_rows`] replaced: quantize the new
    /// rows into a fresh container (zeroed payload, one `pack_row` per row),
    /// then concatenate its payload, scales and minima onto the history.
    fn quantize_then_append(history: &mut AsymQuantized, x: &Matrix) {
        let levels = f32::from(code_levels(history.bits));
        let bias = code_bias(history.bits);
        let mut codes = PackedMatrix::zeros(x.rows(), x.cols(), history.bits);
        let mut row_codes = vec![0i8; x.cols()];
        for r in 0..x.rows() {
            let row = x.row(r);
            let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
            for &v in row {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            if !lo.is_finite() || !hi.is_finite() {
                lo = 0.0;
                hi = 0.0;
            }
            let lo = round_f16(lo);
            let mut s = (hi - lo) / levels;
            if s <= 0.0 {
                s = 1.0;
            }
            s = round_f16(s).max(f32::MIN_POSITIVE);
            for (c, &v) in row_codes.iter_mut().zip(row) {
                let q = integer_low_byte(round_clamped((v - lo) / s, 0.0, levels));
                *c = i8::from_le_bytes([q.wrapping_sub(bias)]);
            }
            codes.pack_row(r, &row_codes);
            history.scales.push(s);
            history.mins.push(lo);
        }
        history.codes.append_rows(&codes);
    }

    #[test]
    fn row_at_a_time_in_place_equals_quantize_then_append() {
        let bits_of = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = SeededRng::new(7);
        for bits in 2..=8u8 {
            for cols in [1, 7, 16] {
                let history = rng.normal_matrix(3, cols, 0.0, 1.0);
                let mut x = rng.normal_matrix(9, cols, 1.0, 4.0);
                // A constant row and rows with non-finite entries.
                x.row_mut(2).fill(-3.5);
                x[(4, 0)] = f32::INFINITY;
                x[(6, cols - 1)] = f32::NAN;
                let mut paths = [(); 3].map(|()| AsymQuantized::quantize(&history, bits));
                let [one_by_one, at_once, oracle] = &mut paths;
                for r in 0..x.rows() {
                    one_by_one.extend_rows(std::iter::once(x.row(r)));
                }
                at_once.append_rows(&x);
                quantize_then_append(oracle, &x);
                for q in [&*one_by_one, &*at_once] {
                    let label = format!("bits {bits}, cols {cols}");
                    assert_eq!(q.codes, oracle.codes, "{label}");
                    assert_eq!(bits_of(&q.scales), bits_of(&oracle.scales), "{label}");
                    assert_eq!(bits_of(&q.mins), bits_of(&oracle.mins), "{label}");
                }
            }
        }
    }

    #[test]
    fn dequantize_row_into_matches_full() {
        let mut rng = SeededRng::new(4);
        let x = rng.normal_matrix(4, 8, 0.0, 1.0);
        let q = AsymQuantized::quantize(&x, 4);
        let full = q.dequantize();
        let mut buf = vec![0.0f32; 8];
        for r in 0..4 {
            q.dequantize_row_into(r, &mut buf);
            assert_eq!(&buf[..], full.row(r));
        }
    }

    #[test]
    fn bytes_shrink_with_bits() {
        let mut rng = SeededRng::new(5);
        let x = rng.normal_matrix(16, 64, 0.0, 1.0);
        let b4 = AsymQuantized::quantize(&x, 4).packed_bytes();
        let b8 = AsymQuantized::quantize(&x, 8).packed_bytes();
        assert!(b4 * 2 <= b8 + 64 * 4);
    }

    #[test]
    fn truncate_rows_is_bit_identical_to_short_history() {
        let mut rng = SeededRng::new(6);
        let a = rng.normal_matrix(3, 8, 0.0, 1.0);
        let b = rng.normal_matrix(4, 8, 1.0, 0.5);
        let mut grown = AsymQuantized::quantize(&a, 4);
        grown.append_rows(&b);
        grown.truncate_rows(3);
        let fresh = AsymQuantized::quantize(&a, 4);
        assert_eq!(grown, fresh);
        // Truncating past the end changes nothing.
        grown.truncate_rows(99);
        assert_eq!(grown, fresh);
    }

    #[test]
    fn empty_container_appends() {
        let mut q = AsymQuantized::empty(8, 4);
        assert_eq!(q.rows(), 0);
        q.append_rows(&Matrix::full(2, 8, 1.0));
        assert_eq!(q.rows(), 2);
    }
}
