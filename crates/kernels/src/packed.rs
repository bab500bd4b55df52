//! Bit-packed signed-integer matrices.
//!
//! [`PackedMatrix`] stores an `rows x cols` matrix of `bits`-wide signed
//! integers with values biased to unsigned at rest, rows padded to byte
//! boundaries — the same layout low-bit GPU kernels use (INT4 packs two
//! values per byte). It is the storage substrate for both the symmetric
//! group-quantized GEMM operands and the asymmetric KV-cache.

use crate::group::{code_bias, code_levels, code_max, code_min, MAX_BITS, MIN_BITS};
use serde::{Deserialize, Serialize};

/// A dense matrix of `bits`-wide signed integers (2 ≤ bits ≤ 8).
///
/// Element `v` is stored as the unsigned value `v + 2^(bits-1)`; the signed
/// range is `[-2^(bits-1), 2^(bits-1) - 1]` (e.g. `[-8, 7]` for INT4).
///
/// # Example
///
/// ```
/// use atom_kernels::PackedMatrix;
///
/// let mut m = PackedMatrix::zeros(2, 3, 4);
/// m.set(1, 2, -8);
/// m.set(0, 0, 7);
/// assert_eq!(m.get(1, 2), -8);
/// assert_eq!(m.get(0, 0), 7);
/// assert_eq!(m.packed_bytes(), 4); // 2 rows x ceil(3*4/8) = 2 bytes
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackedMatrix {
    rows: usize,
    cols: usize,
    bits: u8,
    row_stride: usize,
    data: Vec<u8>,
}

impl PackedMatrix {
    /// Creates a matrix of zeros (the signed value `0`).
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= bits <= 8`.
    pub fn zeros(rows: usize, cols: usize, bits: u8) -> Self {
        assert!(
            (MIN_BITS..=MAX_BITS).contains(&bits),
            "bits must be in {MIN_BITS}..={MAX_BITS}, got {bits}"
        );
        let row_stride = (cols * bits as usize).div_ceil(8);
        // Biased representation of signed 0 is 2^(bits-1), not raw 0: pack
        // one row of it (pad bits stay 0) and repeat the bytes.
        let mut zero_row = vec![0u8; row_stride];
        pack_codes(bits, &vec![0i8; cols], &mut zero_row);
        PackedMatrix {
            rows,
            cols,
            bits,
            row_stride,
            data: zero_row.repeat(rows),
        }
    }

    /// Builds a packed matrix from signed values in row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != rows * cols` or any value is out of the
    /// signed range of `bits`.
    pub fn from_values(rows: usize, cols: usize, bits: u8, values: &[i8]) -> Self {
        assert_eq!(values.len(), rows * cols, "value count mismatch");
        let mut m = Self::zeros(rows, cols, bits);
        for (r, row) in values.chunks(cols.max(1)).enumerate().take(rows) {
            m.pack_row(r, row);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Bit width per element.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Smallest representable signed value.
    pub fn min_value(&self) -> i8 {
        code_min(self.bits)
    }

    /// Largest representable signed value.
    pub fn max_value(&self) -> i8 {
        code_max(self.bits)
    }

    /// Bytes of packed storage (the real memory footprint).
    pub fn packed_bytes(&self) -> usize {
        self.data.len()
    }

    /// Reads one element.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    pub fn get(&self, r: usize, c: usize) -> i8 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        let bits = self.bits as usize;
        let bit_off = c * bits;
        let byte = r * self.row_stride + bit_off / 8;
        let shift = bit_off % 8;
        // Read up to 16 bits covering the window. The asserted index bounds
        // plus the row-stride allocation keep the window inside `data`.
        #[expect(clippy::indexing_slicing, reason = "byte = r*stride + c*bits/8 < data.len() by the asserted bounds")]
        let lo = u16::from(self.data[byte]);
        let hi = if shift + bits > 8 {
            #[expect(clippy::indexing_slicing, reason = "a straddling window implies the stride has a following byte")]
            u16::from(self.data[byte + 1])
        } else {
            0
        };
        let window = lo | (hi << 8);
        let mask = u16::from(code_levels(self.bits));
        let raw = ((window >> shift) & mask) as i16;
        (raw - i16::from(code_bias(self.bits))) as i8
    }

    /// Writes one element.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices or out-of-range values.
    #[expect(
        clippy::indexing_slicing,
        reason = "byte = r*stride + c*bits/8 < data.len() by the asserted bounds, and a straddling window implies the stride has a following byte (an assignment cannot carry the attribute itself)"
    )]
    pub fn set(&mut self, r: usize, c: usize, v: i8) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        assert!(
            v >= self.min_value() && v <= self.max_value(),
            "value {v} out of range for {} bits",
            self.bits
        );
        let bits = self.bits as usize;
        let raw = (v as i16 + i16::from(code_bias(self.bits))) as u16;
        let bit_off = c * bits;
        let byte = r * self.row_stride + bit_off / 8;
        let shift = bit_off % 8;
        let mask = u16::from(code_levels(self.bits)) << shift;
        let mut window = self.data[byte] as u16;
        if shift + bits > 8 {
            window |= (self.data[byte + 1] as u16) << 8;
        }
        window = (window & !mask) | (raw << shift);
        self.data[byte] = (window & 0xFF) as u8;
        if shift + bits > 8 {
            self.data[byte + 1] = (window >> 8) as u8;
        }
    }

    /// Overwrites row `r` with `values`, writing whole bytes (the row's
    /// pad bits are written as 0) — the bulk counterpart of
    /// [`set`](Self::set) the quantizers pack through.
    ///
    /// # Example
    ///
    /// ```
    /// use atom_kernels::PackedMatrix;
    ///
    /// let mut by_row = PackedMatrix::zeros(2, 5, 3);
    /// let mut by_elem = PackedMatrix::zeros(2, 5, 3);
    /// let vals = [-4i8, 3, 0, -1, 2];
    /// by_row.pack_row(1, &vals);
    /// for (c, &v) in vals.iter().enumerate() {
    ///     by_elem.set(1, c, v);
    /// }
    /// assert_eq!(by_row, by_elem); // same bytes, pad bits included
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds, `values.len() != self.cols()`, or a
    /// value is out of range for the bit width.
    pub fn pack_row(&mut self, r: usize, values: &[i8]) {
        assert_eq!(values.len(), self.cols, "pack buffer size mismatch");
        let (lo, hi) = (self.min_value(), self.max_value());
        assert!(
            values.iter().all(|&v| v >= lo && v <= hi),
            "value out of range for {} bits",
            self.bits
        );
        assert!(r < self.rows, "row {r} out of bounds");
        let span = r * self.row_stride..(r + 1) * self.row_stride;
        // `rows * row_stride == data.len()` is the struct invariant, so the
        // asserted row index always resolves.
        if let Some(row) = self.data.get_mut(span) {
            pack_codes(self.bits, values, row);
        }
    }

    /// Appends the rows of `other` in place. Rows are byte-aligned
    /// (`row_stride`), so appending is exact payload concatenation and the
    /// history is never re-packed: a token-at-a-time KV append costs the new
    /// rows only, and the parallel row-block quantizer reassembles
    /// per-block results into the same bytes the sequential quantizer
    /// writes.
    ///
    /// # Panics
    ///
    /// Panics if the column counts or bit widths differ.
    pub fn append_rows(&mut self, other: &PackedMatrix) {
        assert_eq!(other.cols, self.cols, "append width mismatch");
        assert_eq!(other.bits, self.bits, "append bit width mismatch");
        self.data.extend_from_slice(&other.data);
        self.rows += other.rows;
    }

    /// Drops every row beyond the first `rows` in place (a payload
    /// `truncate`); a no-op when `rows >= self.rows()`. The surviving bytes
    /// are untouched, so the result equals never having appended the rest.
    pub fn truncate_rows(&mut self, rows: usize) {
        if rows < self.rows {
            self.data.truncate(rows * self.row_stride);
            self.rows = rows;
        }
    }

    /// Unpacks row `r` into `out` as signed i8 values.
    ///
    /// This is the hot path of every GEMM kernel: operand rows are unpacked
    /// once into registers/cache-resident buffers before the integer MMA.
    /// INT4 and INT8 rows decode through plain byte-at-a-time loops the
    /// compiler vectorizes; every other width runs the generic bit-window
    /// loop. [`get`](Self::get) is the per-element oracle both must match.
    ///
    /// # Example
    ///
    /// ```
    /// use atom_kernels::PackedMatrix;
    ///
    /// let vals: Vec<i8> = (0..37).map(|c| (c % 16) - 8).collect();
    /// let m = PackedMatrix::from_values(1, vals.len(), 4, &vals);
    /// let mut row = vec![0i8; vals.len()];
    /// m.unpack_row(0, &mut row);
    /// assert_eq!(row, vals);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.cols()`. A row index out of range is a
    /// caller bug: it trips a debug assertion under test and writes zeros in
    /// release builds.
    pub fn unpack_row(&self, r: usize, out: &mut [i8]) {
        assert_eq!(out.len(), self.cols, "unpack buffer size mismatch");
        let Some(row) = self
            .data
            .get(r * self.row_stride..(r + 1) * self.row_stride)
        else {
            debug_assert!(false, "row {r} out of range");
            out.fill(0);
            return;
        };
        match self.bits {
            4 => unpack_codes_i4(row, out),
            8 => unpack_codes_i8(row, out),
            _ => self.unpack_row_generic(row, out),
        }
    }

    /// Decodes the `out.len() / cols` consecutive rows starting at `first`
    /// back to back into `out` — [`unpack_row`](Self::unpack_row) for a run
    /// of rows. Rows are byte-aligned, so when a row packs without pad bits
    /// (`cols * bits` a multiple of 8) the run's payload is one continuous
    /// code stream, which the INT4/INT8 decoders sweep in a single pass;
    /// any other case decodes row by row. Same bytes either way.
    ///
    /// # Example
    ///
    /// ```
    /// use atom_kernels::PackedMatrix;
    ///
    /// let vals: Vec<i8> = (0..40).map(|c| (c % 16) - 8).collect();
    /// let m = PackedMatrix::from_values(4, 10, 4, &vals);
    /// let mut run = vec![0i8; 20];
    /// m.unpack_rows(1, &mut run); // rows 1 and 2
    /// assert_eq!(run, vals[10..30]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not a whole number of rows. Rows out of
    /// range are a caller bug: they trip a debug assertion under test and
    /// decode as zeros in release builds.
    pub fn unpack_rows(&self, first: usize, out: &mut [i8]) {
        let cols = self.cols.max(1);
        let n = out.len() / cols;
        assert_eq!(out.len(), n * self.cols, "unpack buffer is not whole rows");
        let unpadded = self.row_stride * 8 == self.cols * usize::from(self.bits);
        let payload = self
            .data
            .get(first * self.row_stride..(first + n) * self.row_stride);
        match (payload, self.bits) {
            (Some(bytes), 4) if unpadded => unpack_codes_i4(bytes, out),
            (Some(bytes), 8) if unpadded => unpack_codes_i8(bytes, out),
            _ => {
                for (r, row) in out.chunks_exact_mut(cols).enumerate() {
                    self.unpack_row(first + r, row);
                }
            }
        }
    }

    /// The decode for widths without a byte-level layout: one
    /// shift/mask/debias chain per element over a 16-bit window.
    fn unpack_row_generic(&self, row: &[u8], out: &mut [i8]) {
        let bits = self.bits as usize;
        let bias = i16::from(code_bias(self.bits));
        let mask = u16::from(code_levels(self.bits));
        for (c, o) in out.iter_mut().enumerate() {
            let bit_off = c * bits;
            let byte = bit_off / 8;
            let shift = bit_off % 8;
            #[expect(clippy::indexing_slicing, reason = "byte = c*bits/8 < row_stride because c < cols")]
            let lo = u16::from(row[byte]);
            let hi = if shift + bits > 8 {
                #[expect(clippy::indexing_slicing, reason = "a straddling window implies the stride has a following byte")]
                u16::from(row[byte + 1])
            } else {
                0
            };
            let raw = ((lo | (hi << 8)) >> shift) & mask;
            *o = (raw as i16 - bias) as i8;
        }
    }

    /// [`unpack`](Self::unpack) through the bit-window loop at every width,
    /// INT4 and INT8 included: what `gemm::reference` decodes with, so the
    /// oracle does not depend on the byte loops the kernels run.
    pub(crate) fn unpack_generic(&self) -> Vec<i8> {
        let mut out = vec![0i8; self.rows * self.cols];
        let rows = self.data.chunks_exact(self.row_stride.max(1));
        for (row, codes) in rows.zip(out.chunks_exact_mut(self.cols.max(1))) {
            self.unpack_row_generic(row, codes);
        }
        out
    }

    /// Unpacks the whole matrix into a row-major i8 buffer.
    pub fn unpack(&self) -> Vec<i8> {
        let mut out = vec![0i8; self.rows * self.cols];
        self.unpack_rows(0, &mut out);
        out
    }
}

/// Decodes packed INT4 codes (two biased codes per byte, low nibble first)
/// into `out.len()` sign-extended values. The stored code is
/// `raw = v + 8`, so a decode is one mask or shift plus one subtract — a
/// loop with no cross-iteration state, which the compiler's vectorizer
/// turns into 16-byte loads, mask/shift, interleave and a packed subtract
/// at the baseline x86-64 feature level.
///
/// `bytes` must carry at least `out.len().div_ceil(2)` payload bytes;
/// missing bytes leave their outputs untouched (an unreachable backstop,
/// kept total so the kernel hot path stays panic-free).
fn unpack_codes_i4(bytes: &[u8], out: &mut [i8]) {
    debug_assert!(bytes.len() >= out.len().div_ceil(2), "payload too short");
    // `raw <= 15`, so the subtract never wraps; `wrapping_sub` states the
    // (unreachable) overflow contract without a checked branch.
    let code = |raw: u8| i8::from_le_bytes([raw]).wrapping_sub(8);
    let (pairs, tail) = out.as_chunks_mut::<2>();
    let full_bytes = pairs.len();
    for ([lo, hi], &b) in pairs.iter_mut().zip(bytes) {
        *lo = code(b & 0x0F);
        *hi = code(b >> 4);
    }
    // Odd column count: the last code is the low nibble of the last byte.
    if let ([last], Some(&b)) = (tail, bytes.get(full_bytes)) {
        *last = code(b & 0x0F);
    }
}

/// Decodes packed INT8 codes (one biased code per byte) into `out.len()`
/// sign-extended values. Subtracting the `+128` storage bias modulo `2^8`
/// is exactly flipping bit 7, so the decode is one XOR per byte.
///
/// `bytes` must carry at least `out.len()` payload bytes; missing bytes
/// leave their outputs untouched (unreachable backstop, kept total).
fn unpack_codes_i8(bytes: &[u8], out: &mut [i8]) {
    debug_assert!(bytes.len() >= out.len(), "payload too short");
    for (o, &b) in out.iter_mut().zip(bytes) {
        *o = i8::from_le_bytes([b ^ 0x80]);
    }
}

/// Packs `values` (already range-checked) into `row`, biased to unsigned,
/// `bits` per code, low bits first; trailing pad bits are written as 0.
/// Whole-byte stores only: INT8 and INT4 take the byte-level layouts
/// [`PackedMatrix::unpack_row`] decodes, other widths go through a bit
/// accumulator.
fn pack_codes(bits: u8, values: &[i8], row: &mut [u8]) {
    // `v + 2^(bits-1)` lands in `0..2^bits` for an in-range `v`; the
    // wrapping add on the reinterpreted byte is that sum modulo 256.
    let bias = code_bias(bits);
    let raw = |v: i8| u8::from_le_bytes(v.to_le_bytes()).wrapping_add(bias);
    match bits {
        8 => {
            for (b, &v) in row.iter_mut().zip(values) {
                *b = raw(v);
            }
        }
        4 => {
            let (pairs, last) = values.as_chunks::<2>();
            for (b, &[lo, hi]) in row.iter_mut().zip(pairs) {
                *b = raw(lo) | (raw(hi) << 4);
            }
            // Odd column count: the last byte carries one code and pad bits.
            if let ([v], Some(b)) = (last, row.get_mut(pairs.len())) {
                *b = raw(*v);
            }
        }
        _ => {
            let mut bytes = row.iter_mut();
            let (mut acc, mut held) = (0u32, 0u32);
            for &v in values {
                acc |= u32::from(raw(v)) << held;
                held += u32::from(bits);
                while held >= 8 {
                    if let Some(b) = bytes.next() {
                        *b = (acc & 0xFF) as u8;
                    }
                    acc >>= 8;
                    held -= 8;
                }
            }
            if let Some(b) = bytes.next() {
                *b = (acc & 0xFF) as u8;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atom_tensor::cast::{i32_to_i8_saturating, usize_to_i32_saturating};

    #[test]
    fn roundtrip_all_bit_widths() {
        for bits in 2..=8u8 {
            let cols = 13; // odd to exercise byte-boundary crossings
            let mut m = PackedMatrix::zeros(3, cols, bits);
            let (lo, hi) = (m.min_value(), m.max_value());
            let span = i32::from(hi) - i32::from(lo) + 1;
            let mut expected = Vec::new();
            for r in 0..3 {
                for c in 0..cols {
                    let code = usize_to_i32_saturating(r * cols + c) % span;
                    let v = i32_to_i8_saturating(i32::from(lo) + code);
                    m.set(r, c, v);
                    expected.push(v);
                }
            }
            for r in 0..3 {
                for c in 0..cols {
                    assert_eq!(m.get(r, c), expected[r * cols + c], "bits={bits} r={r} c={c}");
                }
            }
            assert_eq!(m.unpack(), expected, "bits={bits}");
        }
    }

    #[test]
    fn int4_packs_two_per_byte() {
        let m = PackedMatrix::zeros(1, 128, 4);
        assert_eq!(m.packed_bytes(), 64);
        let m8 = PackedMatrix::zeros(1, 128, 8);
        assert_eq!(m8.packed_bytes(), 128);
        let m3 = PackedMatrix::zeros(1, 128, 3);
        assert_eq!(m3.packed_bytes(), 48);
    }

    #[test]
    fn zeros_decode_to_zero() {
        for bits in 2..=8u8 {
            let m = PackedMatrix::zeros(2, 5, bits);
            assert!(m.unpack().iter().all(|&v| v == 0), "bits={bits}");
        }
    }

    #[test]
    fn extremes_roundtrip() {
        let mut m = PackedMatrix::zeros(1, 2, 4);
        m.set(0, 0, -8);
        m.set(0, 1, 7);
        assert_eq!(m.get(0, 0), -8);
        assert_eq!(m.get(0, 1), 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn overflow_value_panics() {
        let mut m = PackedMatrix::zeros(1, 1, 4);
        m.set(0, 0, 8);
    }

    #[test]
    fn from_values_matches_sets() {
        let vals: Vec<i8> = vec![-2, -1, 0, 1, -2, 1];
        let m = PackedMatrix::from_values(2, 3, 2, &vals);
        assert_eq!(m.unpack(), vals);
    }

    #[test]
    fn neighbors_do_not_clobber() {
        let mut m = PackedMatrix::zeros(1, 8, 3);
        for (c, v) in (-4i8..4).enumerate() {
            m.set(0, c, v);
        }
        m.set(0, 3, 3); // rewrite middle element
        let expect: Vec<i8> = vec![-4, -3, -2, 3, 0, 1, 2, 3];
        assert_eq!(m.unpack(), expect);
    }
}
