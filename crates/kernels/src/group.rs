//! Symmetric per-group quantized tensors — the operand format of Atom's
//! fused GEMM (paper §4.2).
//!
//! A [`GroupQuantized`] matrix divides every row (channel dimension last,
//! as in the paper) into contiguous groups of `group` elements, each with
//! its own FP16 scale. Quantization is symmetric with the paper's formula
//! (§2):
//!
//! ```text
//! s = 2 * max|X| / (2^n - 1) * c        (c = clipping factor)
//! q = clamp(round(x / s), -2^(n-1), 2^(n-1) - 1)
//! ```
//!
//! The same container stores weights (quantized offline) and activations
//! (quantized dynamically per token, §4.3) — exactly like the GPU pipeline,
//! where one format feeds the INT4/INT8 tensor-core MMA.

use crate::packed::PackedMatrix;
use atom_tensor::f16::round_f16;
use atom_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Smallest quantizer width any spec may carry. Together with
/// [`MAX_BITS`] this bounds every `bits` value in the workspace —
/// `QuantSpec::validate` (and the asserts at the other quantizer entry
/// points) enforce it at runtime, and the `const` block below proves at
/// compile time that every width in the range yields codes that fit the
/// types the kernels hold them in.
pub const MIN_BITS: u8 = 2;
/// Largest quantizer width any spec may carry; see [`MIN_BITS`].
pub const MAX_BITS: u8 = 8;

/// `2^(bits-1)`: the offset between a signed code and the unsigned form it
/// is stored in, and the magnitude of the most negative code. Like the
/// three functions below it is meant for `bits` in
/// [`MIN_BITS`]`..=`[`MAX_BITS`], the range the callers validate.
pub const fn code_bias(bits: u8) -> u8 {
    (1u32 << (bits - 1)) as u8
}

/// Smallest signed code of a `bits`-wide quantizer, `-2^(bits-1)`.
pub const fn code_min(bits: u8) -> i8 {
    -(1i32 << (bits - 1)) as i8
}

/// Largest signed code of a `bits`-wide quantizer, `2^(bits-1) - 1`.
pub const fn code_max(bits: u8) -> i8 {
    ((1i32 << (bits - 1)) - 1) as i8
}

/// `2^bits - 1`: the number of steps between the smallest and the largest
/// code (the divisor of the paper's scale formulas), and the bit mask of one
/// stored code.
pub const fn code_levels(bits: u8) -> u8 {
    ((1u32 << bits) - 1) as u8
}

// The narrowing casts above lose nothing at any width a spec may carry:
// rustc evaluates this for every `bits` in `MIN_BITS..=MAX_BITS`, so
// widening the range past what `u8`/`i8` hold fails the build.
const _: () = {
    let mut bits = MIN_BITS;
    while bits <= MAX_BITS {
        let half = 1i32 << (bits - 1);
        assert!(code_bias(bits) as i32 == half);
        assert!(code_min(bits) as i32 == -half);
        assert!(code_max(bits) as i32 == half - 1);
        assert!(code_levels(bits) as i32 == 2 * half - 1);
        bits += 1;
    }
};

/// Parameters of a symmetric group quantization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantSpec {
    /// Bit width ([`MIN_BITS`]–[`MAX_BITS`]).
    pub bits: u8,
    /// Group size along the channel dimension; the final group of a row may
    /// be smaller if `cols % group != 0`. Use `usize::MAX` for per-channel
    /// (one group spanning the whole row).
    pub group: usize,
    /// Clipping factor `c` in `(0, 1]` shrinking the quantization range.
    pub clip: f32,
}

impl QuantSpec {
    /// Spec with the given bits, group size, and no clipping.
    pub fn new(bits: u8, group: usize) -> Self {
        QuantSpec {
            bits,
            group,
            clip: 1.0,
        }
    }

    /// Returns a copy with the clipping factor set.
    pub fn with_clip(mut self, clip: f32) -> Self {
        self.clip = clip;
        self
    }

    /// Number of groups needed for `cols` channels.
    pub fn groups_for(&self, cols: usize) -> usize {
        if self.group == usize::MAX {
            return usize::from(cols > 0);
        }
        cols.div_ceil(self.group)
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns a message when bits or clip are out of range.
    pub fn validate(&self) -> Result<(), String> {
        if !(MIN_BITS..=MAX_BITS).contains(&self.bits) {
            return Err(format!(
                "bits {} out of {MIN_BITS}..={MAX_BITS}",
                self.bits
            ));
        }
        if self.group == 0 {
            return Err("group must be positive".into());
        }
        if !(self.clip > 0.0 && self.clip <= 1.0) {
            return Err(format!("clip {} out of (0, 1]", self.clip));
        }
        Ok(())
    }
}

/// A symmetric group-quantized matrix: packed integers plus one FP16 scale
/// per `(row, group)`.
///
/// # Example
///
/// ```
/// use atom_kernels::{GroupQuantized, QuantSpec};
/// use atom_tensor::Matrix;
///
/// let x = Matrix::from_rows(&[&[0.1, -0.5, 2.0, 0.7]]);
/// let q = GroupQuantized::quantize(&x, QuantSpec::new(4, 2));
/// let err = q.dequantize().mse(&x);
/// assert!(err < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupQuantized {
    spec: QuantSpec,
    values: PackedMatrix,
    /// `rows x n_groups` scales, rounded to the f16 grid.
    scales: Matrix,
}

impl GroupQuantized {
    /// Quantizes `x` row-wise with the paper's symmetric formula: per row,
    /// scales, then codes into a row buffer (the same row quantizer
    /// [`ActivationLanes::quantize_gather`] runs), then one whole-byte
    /// [`PackedMatrix::pack_row`].
    ///
    /// [`ActivationLanes::quantize_gather`]: crate::panel::ActivationLanes::quantize_gather
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid.
    pub fn quantize(x: &Matrix, spec: QuantSpec) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "documented `# Panics` contract: an invalid spec is a programmer error, not a data condition"
        )]
        spec.validate().expect("invalid quant spec");
        let mut values = PackedMatrix::zeros(x.rows(), x.cols(), spec.bits);
        let mut scales = Matrix::zeros(x.rows(), spec.groups_for(x.cols()));
        let mut quantizer = RowQuantizer::new(spec, None);
        for r in 0..x.rows() {
            let codes = quantizer.row(x.row(r), scales.row_mut(r));
            values.pack_row(r, codes);
        }
        GroupQuantized {
            spec,
            values,
            scales,
        }
    }

    /// The quantization spec.
    pub fn spec(&self) -> QuantSpec {
        self.spec
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.values.rows()
    }

    /// Number of columns (channels).
    pub fn cols(&self) -> usize {
        self.values.cols()
    }

    /// The packed integer payload.
    pub fn values(&self) -> &PackedMatrix {
        &self.values
    }

    /// The `rows x n_groups` scale matrix.
    pub fn scales(&self) -> &Matrix {
        &self.scales
    }

    /// Builds a container from pre-computed integers and scales (used by
    /// GPTQ, which chooses the integers itself).
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree with the spec.
    pub fn from_parts(spec: QuantSpec, values: PackedMatrix, scales: Matrix) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "documented `# Panics` contract: an invalid spec is a programmer error, not a data condition"
        )]
        spec.validate().expect("invalid quant spec");
        assert_eq!(values.bits(), spec.bits, "payload bit width mismatch");
        assert_eq!(scales.rows(), values.rows(), "scale rows mismatch");
        assert_eq!(
            scales.cols(),
            spec.groups_for(values.cols()),
            "scale group count mismatch"
        );
        GroupQuantized {
            spec,
            values,
            scales,
        }
    }

    /// Quantizes `x` with *pre-computed* per-group scales shared by every
    /// row — the static-quantization variant the paper argues against in
    /// §4.3 (scales come from calibration instead of the live input).
    ///
    /// # Panics
    ///
    /// Panics if `scales.len()` does not match the group count or contains
    /// non-positive values.
    pub fn quantize_with_shared_scales(x: &Matrix, spec: QuantSpec, shared: &[f32]) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "documented `# Panics` contract: an invalid spec is a programmer error, not a data condition"
        )]
        spec.validate().expect("invalid quant spec");
        let (rows, cols) = x.shape();
        let group = spec.group.min(cols.max(1));
        let n_groups = spec.groups_for(cols);
        assert_eq!(shared.len(), n_groups, "shared scale count mismatch");
        assert!(shared.iter().all(|&s| s > 0.0), "scales must be positive");
        let (qmin, qmax_pos) = code_range(spec.bits);
        let mut values = PackedMatrix::zeros(rows, cols, spec.bits);
        let mut scales = Matrix::zeros(rows, n_groups);
        let mut codes = vec![0i8; cols];
        for r in 0..rows {
            for (((chunk, q_out), s_out), &shared_s) in x
                .row(r)
                .chunks(group)
                .zip(codes.chunks_mut(group))
                .zip(scales.row_mut(r))
                .zip(shared)
            {
                let s = round_f16(shared_s).max(f32::MIN_POSITIVE);
                *s_out = s;
                encode_group(chunk, s, qmin, qmax_pos, q_out);
            }
            values.pack_row(r, &codes);
        }
        GroupQuantized {
            spec,
            values,
            scales,
        }
    }

    /// Per-group scales that map a calibration sample's maxima onto the
    /// grid — the offline half of static quantization. Returns one scale
    /// per group.
    pub fn calibrate_shared_scales(sample: &Matrix, spec: QuantSpec) -> Vec<f32> {
        let cols = sample.cols();
        let group = spec.group.min(cols.max(1));
        let n_groups = spec.groups_for(cols);
        let levels = f32::from(code_levels(spec.bits));
        let mut amax = vec![0.0f32; n_groups];
        for row in sample.iter_rows() {
            for (m, chunk) in amax.iter_mut().zip(row.chunks(group.max(1))) {
                for &v in chunk {
                    *m = m.max(v.abs());
                }
            }
        }
        amax.into_iter()
            .map(|a| {
                let s = 2.0 * a * spec.clip / levels;
                round_f16(if s > 0.0 { s } else { 1.0 }).max(f32::MIN_POSITIVE)
            })
            .collect()
    }

    /// Dequantizes to f32.
    pub fn dequantize(&self) -> Matrix {
        let (rows, cols) = (self.rows(), self.cols());
        let group = self.spec.group.min(cols.max(1));
        let mut out = Matrix::zeros(rows, cols);
        let mut buf = vec![0i8; cols];
        for r in 0..rows {
            self.values.unpack_row(r, &mut buf);
            let dst = out.row_mut(r);
            let scale_row = self.scales.row(r);
            for ((qchunk, dchunk), &s) in buf
                .chunks(group)
                .zip(dst.chunks_mut(group))
                .zip(scale_row)
            {
                for (&q, d) in qchunk.iter().zip(dchunk) {
                    *d = f32::from(q) * s;
                }
            }
        }
        out
    }

    /// Real memory footprint: packed integers plus 16-bit scales.
    pub fn packed_bytes(&self) -> usize {
        self.values.packed_bytes() + self.scales.len() * 2
    }

    /// Effective bits per element including scales (paper §4.2 defines
    /// `effective bit` as the average bits per element counting
    /// quantization parameters).
    pub fn effective_bits(&self) -> f64 {
        8.0 * self.packed_bytes() as f64 / (self.rows() * self.cols()) as f64
    }
}

/// The dynamic quantizer of one row — every constructor of a dynamically
/// quantized operand ([`GroupQuantized::quantize`] and the GEMM's
/// `ActivationLanes`) funnels into it, so they write the same codes and
/// scales: the row (through `gather`'s column list when given) is read
/// into a row buffer, then each group gets its scale and its codes.
pub(crate) struct RowQuantizer<'a> {
    spec: QuantSpec,
    gather: Option<&'a [usize]>,
    gathered: Vec<f32>,
    codes: Vec<i8>,
}

impl<'a> RowQuantizer<'a> {
    /// A quantizer for rows of `gather.len()` columns, or of the source
    /// row's width without a gather (the buffers grow on first use).
    pub(crate) fn new(spec: QuantSpec, gather: Option<&'a [usize]>) -> Self {
        let cols = gather.map_or(0, <[usize]>::len);
        RowQuantizer {
            spec,
            gather,
            gathered: vec![0.0; cols],
            codes: vec![0; cols],
        }
    }

    /// Quantizes `src` (one source row), writes its group scales into
    /// `scales` and returns its codes.
    pub(crate) fn row(&mut self, src: &[f32], scales: &mut [f32]) -> &[i8] {
        let spec = self.spec;
        let row = match self.gather {
            None => src,
            Some(idx) => {
                for (d, &c) in self.gathered.iter_mut().zip(idx) {
                    // In range by the caller's index assert.
                    *d = src.get(c).copied().unwrap_or(0.0);
                }
                &self.gathered
            }
        };
        self.codes.resize(row.len(), 0);
        let group = spec.group.min(row.len().max(1));
        let levels = f32::from(code_levels(spec.bits));
        let (qmin, qmax_pos) = code_range(spec.bits);
        // `chunks(group)` walks exactly the `n_groups` per-row groups
        // (final chunk ragged), so the group index never leaves range.
        for ((chunk, q_out), s_out) in row
            .chunks(group)
            .zip(self.codes.chunks_mut(group))
            .zip(scales)
        {
            let amax = chunk.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            // Paper §2: s = 2 max|X| c / (2^n - 1).
            let mut s = 2.0 * amax * spec.clip / levels;
            if s <= 0.0 {
                s = 1.0; // all-zero group: any scale decodes to zeros
            }
            s = round_f16(s).max(f32::MIN_POSITIVE);
            *s_out = s;
            encode_group(chunk, s, qmin, qmax_pos, q_out);
        }
        &self.codes
    }
}

/// The signed code range of a `bits`-wide quantizer as floats:
/// `(-2^(bits-1), 2^(bits-1) - 1)`.
fn code_range(bits: u8) -> (f32, f32) {
    (f32::from(code_min(bits)), f32::from(code_max(bits)))
}

/// Paper §2: `q = clamp(round(x / s), qmin, qmax)` for one group.
fn encode_group(chunk: &[f32], s: f32, qmin: f32, qmax_pos: f32, out: &mut [i8]) {
    for (q, &v) in out.iter_mut().zip(chunk) {
        *q = i8::from_le_bytes([integer_low_byte(round_clamped(v / s, qmin, qmax_pos))]);
    }
}

/// `1.5 * 2^23`. Adding it to a float of magnitude at most `2^22` yields a
/// float in `[2^23, 2^24)`, where the spacing is exactly 1: the sum is the
/// operand's nearest integer (ties to even), and it sits in the low
/// mantissa bits as a two's-complement offset from `0x4B40_0000`.
const ROUND_MAGIC: f32 = 12_582_912.0;

/// `t.round().clamp(lo, hi)` for integer limits of magnitude at most `2^22`
/// — the `clamp(round(·))` of both quantizers — in branch-free float
/// arithmetic the compiler vectorizes. `f32::round` (half away from zero)
/// is a libm call per element at the baseline x86-64 feature level, and a
/// float-to-integer `as` cast saturates element by element; together they
/// were most of the dynamic-quantization epilogue.
///
/// It is exact, not an approximation. `round` is monotone and maps an
/// integer to itself, so clamping before rounding changes nothing.
/// `(t + MAGIC) - MAGIC` is `t`'s nearest integer with ties to even, and
/// `t` minus it is exact; half-away-from-zero differs from ties-to-even
/// only on a tie that went toward zero, which is `diff == ±0.5` with the
/// sign of `t`. A NaN becomes `0.0`, which is what the integer cast this
/// replaces made of `NaN.round()` (`-0.0` likewise comes back as `0.0`).
/// Every one of the 2^32 bit patterns was swept once against
/// `t.round().clamp(lo, hi)` at the INT4/INT8 signed and unsigned limits.
#[inline]
pub(crate) fn round_clamped(t: f32, lo: f32, hi: f32) -> f32 {
    let t = if t.is_nan() { 0.0 } else { t.clamp(lo, hi) };
    let even = (t + ROUND_MAGIC) - ROUND_MAGIC;
    let diff = t - even;
    if diff == 0.5 && t > 0.0 {
        even + 1.0
    } else if diff == -0.5 && t < 0.0 {
        even - 1.0
    } else {
        even
    }
}

/// The low byte of the two's-complement integer an integer-valued float of
/// magnitude at most `2^22` holds — `q as i8` (or `as u8`) for a `q` in
/// range, without the saturating cast (see [`ROUND_MAGIC`]).
#[inline]
pub(crate) fn integer_low_byte(q: f32) -> u8 {
    ((q + ROUND_MAGIC).to_bits() & 0xFF) as u8
}

/// Convenience: quantize then immediately dequantize ("fake quantization"),
/// the standard tool for accuracy ablations.
pub fn fake_quantize(x: &Matrix, spec: QuantSpec) -> Matrix {
    GroupQuantized::quantize(x, spec).dequantize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use atom_tensor::SeededRng;

    #[test]
    fn roundtrip_error_shrinks_with_bits() {
        let mut rng = SeededRng::new(1);
        let x = rng.normal_matrix(8, 64, 0.0, 1.0);
        let mut last = f64::INFINITY;
        for bits in [2u8, 3, 4, 6, 8] {
            let err = fake_quantize(&x, QuantSpec::new(bits, 16)).mse(&x);
            assert!(err < last, "error should drop with bits: {bits} -> {err}");
            last = err;
        }
    }

    #[test]
    fn finer_groups_reduce_error_on_normal_channels() {
        // This is exactly Atom's group-quantization argument: with a few
        // high-magnitude channels in the row, per-channel scales are set by
        // the outliers and crush the normal values; per-group scales adapt
        // locally. Measure error on the *normal* channels only.
        let mut rng = SeededRng::new(2);
        let mut x = rng.normal_matrix(4, 128, 0.0, 1.0);
        for r in 0..4 {
            for c in 112..128 {
                x[(r, c)] *= 50.0;
            }
        }
        let normal_mse = |d: &Matrix| {
            let mut e = 0.0f64;
            for r in 0..4 {
                for c in 0..112 {
                    e += ((d[(r, c)] - x[(r, c)]) as f64).powi(2);
                }
            }
            e / (4.0 * 112.0)
        };
        let coarse = normal_mse(&fake_quantize(&x, QuantSpec::new(4, usize::MAX)));
        let fine = normal_mse(&fake_quantize(&x, QuantSpec::new(4, 16)));
        assert!(
            fine < coarse / 10.0,
            "group quant should win on normal channels: fine {fine} vs coarse {coarse}"
        );
    }

    #[test]
    fn zero_matrix_roundtrips_exactly() {
        let x = Matrix::zeros(3, 10);
        let q = GroupQuantized::quantize(&x, QuantSpec::new(4, 4));
        assert_eq!(q.dequantize(), x);
    }

    #[test]
    fn scales_are_f16_representable() {
        let mut rng = SeededRng::new(3);
        let x = rng.normal_matrix(4, 32, 0.0, 3.0);
        let q = GroupQuantized::quantize(&x, QuantSpec::new(4, 8));
        for &s in q.scales().as_slice() {
            assert_eq!(s, round_f16(s), "scale {s} not on f16 grid");
        }
    }

    #[test]
    fn quantized_values_in_range() {
        let mut rng = SeededRng::new(4);
        let x = rng.normal_matrix(4, 32, 0.0, 10.0);
        for bits in [3u8, 4, 8] {
            let q = GroupQuantized::quantize(&x, QuantSpec::new(bits, 8));
            let (lo, hi) = (q.values().min_value(), q.values().max_value());
            for v in q.values().unpack() {
                assert!(v >= lo && v <= hi, "bits {bits}: {v}");
            }
        }
    }

    #[test]
    fn clipping_reduces_outlier_dominance() {
        // One huge value per group; clipping trades its accuracy for the
        // rest of the group.
        let mut x = Matrix::full(1, 32, 0.1);
        x[(0, 5)] = 100.0;
        let unclipped = GroupQuantized::quantize(&x, QuantSpec::new(4, 32));
        // The clip must bring the step below ~0.2 so the 0.1 values land on
        // a nonzero level: s_unclipped = 2*100/15 = 13.3, so clip 0.01
        // yields s = 0.133.
        let clipped = GroupQuantized::quantize(&x, QuantSpec::new(4, 32).with_clip(0.01));
        let small_err = |m: &Matrix| {
            let mut e = 0.0f64;
            for c in 0..32 {
                if c != 5 {
                    e += ((m[(0, c)] - 0.1) as f64).powi(2);
                }
            }
            e
        };
        assert!(small_err(&clipped.dequantize()) < small_err(&unclipped.dequantize()));
    }

    #[test]
    fn ragged_final_group() {
        let mut rng = SeededRng::new(5);
        let x = rng.normal_matrix(2, 10, 0.0, 1.0); // 10 cols, group 4 -> 3 groups
        let spec = QuantSpec::new(4, 4);
        assert_eq!(spec.groups_for(10), 3);
        let q = GroupQuantized::quantize(&x, spec);
        assert_eq!(q.scales().cols(), 3);
        assert!(q.dequantize().mse(&x) < 0.05);
    }

    #[test]
    fn effective_bits_matches_paper_formula() {
        // Paper footnote 1: group 128 INT4 with FP16 scales has
        // 4 + 16/128 = 4.125 effective bits (before outliers).
        let x = Matrix::zeros(4, 512);
        let q = GroupQuantized::quantize(&x, QuantSpec::new(4, 128));
        assert!((q.effective_bits() - 4.125).abs() < 1e-9);
    }

    #[test]
    fn per_channel_spec() {
        let mut rng = SeededRng::new(6);
        let x = rng.normal_matrix(3, 20, 0.0, 1.0);
        let q = GroupQuantized::quantize(&x, QuantSpec::new(8, usize::MAX));
        assert_eq!(q.scales().cols(), 1);
        assert!(q.dequantize().mse(&x) < 1e-4);
    }

    #[test]
    fn static_scales_roundtrip_on_calibration_like_data() {
        let mut rng = SeededRng::new(7);
        let sample = rng.normal_matrix(32, 32, 0.0, 1.0);
        let spec = QuantSpec::new(4, 8);
        let shared = GroupQuantized::calibrate_shared_scales(&sample, spec);
        assert_eq!(shared.len(), 4);
        let live = rng.normal_matrix(8, 32, 0.0, 1.0);
        let q_static = GroupQuantized::quantize_with_shared_scales(&live, spec, &shared);
        let q_dynamic = GroupQuantized::quantize(&live, spec);
        let err_static = q_static.dequantize().mse(&live);
        let err_dynamic = q_dynamic.dequantize().mse(&live);
        // Dynamic adapts to the live input and must not lose; static stays
        // usable when the distribution matches calibration.
        assert!(err_dynamic <= err_static * 1.5, "{err_dynamic} vs {err_static}");
        assert!(err_static < 0.1, "static error unusable: {err_static}");
    }

    #[test]
    fn static_scales_fail_on_distribution_shift() {
        // The paper's §4.3 argument: statically calculated parameters miss
        // the live input's local distribution.
        let mut rng = SeededRng::new(8);
        let sample = rng.normal_matrix(32, 16, 0.0, 0.1); // calibrated small
        let spec = QuantSpec::new(4, 8);
        let shared = GroupQuantized::calibrate_shared_scales(&sample, spec);
        let live = rng.normal_matrix(8, 16, 0.0, 5.0); // live is 50x larger
        let err_static = GroupQuantized::quantize_with_shared_scales(&live, spec, &shared)
            .dequantize()
            .mse(&live);
        let err_dynamic = GroupQuantized::quantize(&live, spec).dequantize().mse(&live);
        assert!(
            err_static > err_dynamic * 10.0,
            "static should clip badly: {err_static} vs {err_dynamic}"
        );
    }

    #[test]
    fn round_clamped_is_round_then_clamp_exactly() {
        // Ties (every half-integer in range, both signs), their nearest
        // neighbours on either side, the values just inside 0.5, and the
        // out-of-range / non-finite inputs a degenerate scale produces. (All
        // 2^32 bit patterns were swept once against `f32::round`; this keeps
        // the boundaries pinned.)
        let mut inputs = vec![
            0.0f32, -0.0, 0.49999997, -0.49999997, 0.5, -0.5, 1e-40, -1e-40, 126.5, 127.5,
            -128.5, 300.0, -300.0, 8_388_607.5, 3.0e9, -3.0e9, f32::MAX, f32::MIN,
            f32::INFINITY, f32::NEG_INFINITY, f32::NAN,
        ];
        for half in -260i16..=260 {
            let tie = f32::from(half) + 0.5;
            inputs.extend([tie, tie.next_up(), tie.next_down(), f32::from(half)]);
        }
        for &(lo, hi) in &[(-8.0f32, 7.0f32), (-128.0, 127.0), (-2.0, 1.0), (0.0, 15.0), (0.0, 255.0)] {
            for &t in &inputs {
                // NaN is the one input where the floats differ (NaN vs 0.0)
                // while the callers' integer casts agree (both 0).
                let rounded = t.round().clamp(lo, hi);
                let expect = if rounded.is_nan() { 0.0 } else { rounded };
                let got = round_clamped(t, lo, hi);
                assert_eq!(got, expect, "t={t:e} in [{lo}, {hi}]");
                // ... and the byte is the cast's: two's complement below 0.
                let byte = if expect < 0.0 { expect + 256.0 } else { expect };
                assert_eq!(f32::from(integer_low_byte(got)), byte, "t={t:e} in [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn code_range_fns_equal_the_shift_expressions_at_every_width() {
        // The expressions the call sites used to spell out by hand.
        for bits in MIN_BITS..=MAX_BITS {
            let half = 1i16 << (bits - 1);
            assert_eq!(i16::from(code_bias(bits)), half, "bits {bits}");
            assert_eq!(code_bias(bits), 1u8 << (bits - 1), "bits {bits}");
            assert_eq!(i16::from(code_min(bits)), -half, "bits {bits}");
            assert_eq!(i16::from(code_max(bits)), half - 1, "bits {bits}");
            let levels = u32::from(code_levels(bits));
            assert_eq!(levels, (1u32 << bits) - 1, "bits {bits}");
            let range = (code_min(bits), code_max(bits));
            let m = PackedMatrix::zeros(1, 1, bits);
            assert_eq!((m.min_value(), m.max_value()), range, "bits {bits}");
            let floats = (f32::from(-half), f32::from(half - 1));
            assert_eq!(code_range(bits), floats, "bits {bits}");
        }
    }

    #[test]
    fn invalid_specs_rejected() {
        assert!(QuantSpec::new(1, 8).validate().is_err());
        assert!(QuantSpec::new(9, 8).validate().is_err());
        assert!(QuantSpec::new(4, 0).validate().is_err());
        assert!(QuantSpec::new(4, 8).with_clip(0.0).validate().is_err());
        assert!(QuantSpec::new(4, 8).with_clip(1.5).validate().is_err());
    }
}
