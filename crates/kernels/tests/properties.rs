//! Property-based tests of the kernel crate's quantization invariants.

use atom_kernels::gemm::{
    fused_group_gemm, fused_group_gemm_with, mixed_gemm_with, reference, reference_gemm,
};
use atom_kernels::{
    attention_quant_kv_heads_with, AsymQuantized, GroupQuantized, PackedMatrix, QuantSpec,
    QuantizedKvHead,
};
use atom_parallel::Pool;
use atom_tensor::Matrix;
use proptest::prelude::*;

fn matrix(rows: std::ops::Range<usize>, cols: std::ops::Range<usize>) -> impl Strategy<Value = Matrix> {
    (rows, cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-50.0f32..50.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

/// Row widths the serving model actually hands the GEMM: the INT4 normal
/// region is `k - outliers` channels wide (118 = 7 x 16 + 6 and 352 at the
/// benchmark's model, 6 and 17 as sub-group / one-over-a-group cases) and
/// the INT8 outlier region 10 or 32, every one at `group = min(16, k)`.
const NORMAL_K: [usize; 4] = [6, 17, 118, 352];
const OUTLIER_K: [usize; 2] = [10, 32];
/// Activation row counts: decode, a ragged few, one row block, prefill.
const SERVING_M: [usize; 4] = [1, 3, 8, 65];
/// Weight row counts on both sides of the kernel's 32-row tile.
const SERVING_N: [usize; 4] = [1, 31, 33, 70];

fn bits_of(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn quantized(
    rng: &mut atom_tensor::SeededRng,
    rows: usize,
    cols: usize,
    std: f32,
    bits: u8,
) -> GroupQuantized {
    GroupQuantized::quantize(&rng.normal_matrix(rows, cols, 0.0, std), QuantSpec::new(bits, 16))
}

proptest! {
    #[test]
    fn packed_matrix_roundtrips(
        bits in 2u8..=8,
        rows in 1usize..5,
        cols in 1usize..20,
        seed in 0u64..1000,
    ) {
        let mut rng = atom_tensor::SeededRng::new(seed);
        let lo = -(1i16 << (bits - 1)) as i32;
        let hi = (1i16 << (bits - 1)) as i32 - 1;
        let values: Vec<i8> = (0..rows * cols)
            .map(|_| (lo + rng.below((hi - lo + 1) as usize) as i32) as i8)
            .collect();
        let m = PackedMatrix::from_values(rows, cols, bits, &values);
        prop_assert_eq!(m.unpack(), values);
    }

    #[test]
    fn symmetric_quantization_error_bounded(m in matrix(1..6, 1..48), bits in 3u8..=8) {
        let spec = QuantSpec::new(bits, 16);
        let q = GroupQuantized::quantize(&m, spec);
        let d = q.dequantize();
        let group = 16usize;
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                let g = c / group;
                let s = q.scales()[(r, g)];
                let err = (m[(r, c)] - d[(r, c)]).abs();
                // Half a step plus f16 scale-rounding slack.
                prop_assert!(
                    err <= 0.5 * s + m[(r, c)].abs() * 2e-3 + 1e-6,
                    "err {err} vs step {s} at ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn asymmetric_quantization_error_bounded(m in matrix(1..6, 2..32), bits in 3u8..=8) {
        let q = AsymQuantized::quantize(&m, bits);
        let d = q.dequantize();
        let levels = ((1u32 << bits) - 1) as f32;
        for r in 0..m.rows() {
            let row = m.row(r);
            let lo = row.iter().cloned().fold(f32::INFINITY, f32::min);
            let hi = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let step = ((hi - lo) / levels).max(f32::MIN_POSITIVE);
            for (a, b) in row.iter().zip(d.row(r)) {
                prop_assert!(
                    (a - b).abs() <= 0.51 * step + a.abs() * 2e-3 + 1e-6,
                    "row {r}: {a} vs {b}, step {step}"
                );
            }
        }
    }

    #[test]
    fn requantization_moves_at_most_one_step(m in matrix(1..4, 1..24), bits in 3u8..=8) {
        // The paper's scale formula s = 2*amax/(2^n - 1) never places amax
        // itself on the grid (it maps to the half-step (2^n-1)/2), so
        // quantization is NOT idempotent — but a second pass may move each
        // value by at most one step of its new scale.
        let spec = QuantSpec::new(bits, 8);
        let q2 = GroupQuantized::quantize(
            &GroupQuantized::quantize(&m, spec).dequantize(),
            spec,
        );
        let once = GroupQuantized::quantize(&m, spec).dequantize();
        let twice = q2.dequantize();
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                let s = q2.scales()[(r, c / 8)];
                let delta = (once[(r, c)] - twice[(r, c)]).abs();
                prop_assert!(delta <= s + 1e-6, "moved {delta} with step {s}");
            }
        }
    }

    #[test]
    fn fused_gemm_equals_reference(
        seed in 0u64..500,
        m in 1usize..5,
        n in 1usize..6,
        groups in 1usize..4,
        bits in 3u8..=8,
    ) {
        let k = groups * 8;
        let mut rng = atom_tensor::SeededRng::new(seed);
        let a = rng.normal_matrix(m, k, 0.0, 1.0);
        let w = rng.normal_matrix(n, k, 0.0, 1.0);
        let qa = GroupQuantized::quantize(&a, QuantSpec::new(bits, 8));
        let qw = GroupQuantized::quantize(&w, QuantSpec::new(bits, 8));
        let fused = fused_group_gemm(&qa, &qw).unwrap();
        let reference = reference_gemm(&qa, &qw);
        for (x, y) in fused.as_slice().iter().zip(reference.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3 * (1.0 + y.abs()), "{x} vs {y}");
        }
    }

    #[test]
    fn parallel_gemm_bit_identical_to_sequential(
        seed in 0u64..300,
        m in 1usize..8,
        n in 1usize..8,
        groups in 1usize..4,
        bits in 3u8..=8,
    ) {
        // The determinism contract: pool width never changes a single
        // output bit (disjoint row tiles, no atomics in reductions).
        let k = groups * 8;
        let mut rng = atom_tensor::SeededRng::new(seed);
        let a = rng.normal_matrix(m, k, 0.0, 1.0);
        let w = rng.normal_matrix(n, k, 0.0, 1.0);
        let qa = GroupQuantized::quantize(&a, QuantSpec::new(bits, 8));
        let qw = GroupQuantized::quantize(&w, QuantSpec::new(bits, 8));
        let solo = fused_group_gemm_with(&Pool::sequential(), &qa, &qw).unwrap();
        for threads in [2usize, 4, 8] {
            let par = fused_group_gemm_with(&Pool::new(threads), &qa, &qw).unwrap();
            prop_assert_eq!(solo.as_slice(), par.as_slice());
        }
    }

    #[test]
    fn parallel_quantization_bit_identical(
        m in matrix(1..10, 8..40),
        bits in 2u8..=8,
        threads in 2usize..=8,
    ) {
        // Row-block quantization stitched with PackedMatrix::append_rows must
        // reproduce the sequential packing byte-for-byte.
        let spec = QuantSpec::new(bits, 8);
        let seq = GroupQuantized::quantize(&m, spec);
        let par = GroupQuantized::quantize_with(&Pool::new(threads), &m, spec);
        prop_assert_eq!(seq.values().unpack(), par.values().unpack());
        prop_assert_eq!(seq.scales().as_slice(), par.scales().as_slice());
        prop_assert_eq!(
            seq.dequantize().as_slice(),
            par.dequantize_with(&Pool::new(threads)).as_slice()
        );
    }

    #[test]
    fn parallel_attention_heads_bit_identical(
        seed in 0u64..200,
        heads in 1usize..6,
        len in 1usize..10,
        q_rows in 1usize..4,
    ) {
        let hd = 8usize;
        let q_rows = q_rows.min(len); // queries may not exceed cached tokens
        let mut rng = atom_tensor::SeededRng::new(seed);
        let mut kv_heads = Vec::new();
        let mut q_heads = Vec::new();
        for _ in 0..heads {
            let mut h = QuantizedKvHead::new(hd, 8);
            h.append(
                &rng.normal_matrix(len, hd, 0.0, 1.0),
                &rng.normal_matrix(len, hd, 0.0, 1.0),
            );
            kv_heads.push(h);
            q_heads.push(rng.normal_matrix(q_rows, hd, 0.0, 1.0));
        }
        let scale = 1.0 / (hd as f32).sqrt();
        let solo =
            attention_quant_kv_heads_with(&Pool::sequential(), &q_heads, &kv_heads, scale).unwrap();
        for threads in [2usize, 4] {
            let par =
                attention_quant_kv_heads_with(&Pool::new(threads), &q_heads, &kv_heads, scale)
                    .unwrap();
            prop_assert_eq!(solo.len(), par.len());
            for (s, p) in solo.iter().zip(&par) {
                prop_assert_eq!(s.as_slice(), p.as_slice());
            }
        }
    }

    #[test]
    fn gemm_bit_identical_to_reference(
        seed in 0u64..300,
        m in 1usize..8,
        n in 1usize..10,
        k in 1usize..70,
        group in 1usize..80,
        bits in 2u8..=8,
    ) {
        // The kernel's contract: the weight-block sweep returns the same
        // bits as the reference loop nest for random shapes, bit widths,
        // and group sizes (including ragged tail groups and group > k),
        // at thread widths 1, 2, and 8.
        let mut rng = atom_tensor::SeededRng::new(seed);
        let a = rng.normal_matrix(m, k, 0.0, 1.0);
        let w = rng.normal_matrix(n, k, 0.0, 1.0);
        let qa = GroupQuantized::quantize(&a, QuantSpec::new(bits, group));
        let qw = GroupQuantized::quantize(&w, QuantSpec::new(bits, group));
        let oracle = reference::fused_group_gemm(&Pool::sequential(), &qa, &qw).unwrap();
        for threads in [1usize, 2, 8] {
            let kernel = fused_group_gemm_with(&Pool::new(threads), &qa, &qw).unwrap();
            prop_assert_eq!(oracle.as_slice(), kernel.as_slice(), "threads {}", threads);
        }
    }

    #[test]
    fn mixed_gemm_bit_identical_to_reference(
        seed in 0u64..200,
        m in 1usize..5,
        n in 1usize..6,
        groups in 1usize..3,
        outlier_cols in 1usize..24,
    ) {
        // The mixed-precision kernel: INT4 normal region + INT8 outlier
        // region in one sweep — identical bytes to the reference's two
        // GEMMs and FP32 region sum, at widths 1/2/8.
        let k = groups * 16;
        let mut rng = atom_tensor::SeededRng::new(seed);
        let qa_n = GroupQuantized::quantize(&rng.normal_matrix(m, k, 0.0, 1.0), QuantSpec::new(4, 16));
        let qw_n = GroupQuantized::quantize(&rng.normal_matrix(n, k, 0.0, 0.5), QuantSpec::new(4, 16));
        let qa_o = GroupQuantized::quantize(
            &rng.normal_matrix(m, outlier_cols, 0.0, 20.0),
            QuantSpec::new(8, 16),
        );
        let qw_o = GroupQuantized::quantize(
            &rng.normal_matrix(n, outlier_cols, 0.0, 0.5),
            QuantSpec::new(8, 16),
        );
        let outliers = Some((&qa_o, &qw_o));
        let oracle = reference::mixed_gemm(&Pool::sequential(), &qa_n, &qw_n, outliers).unwrap();
        for threads in [1usize, 2, 8] {
            let kernel = mixed_gemm_with(&Pool::new(threads), &qa_n, &qw_n, outliers).unwrap();
            prop_assert_eq!(oracle.as_slice(), kernel.as_slice(), "threads {}", threads);
        }
    }

    #[test]
    fn gemm_bit_identical_to_reference_on_serving_shapes(
        seed in 0u64..300,
        k_idx in 0usize..4,
        m_idx in 0usize..4,
        n_idx in 0usize..4,
        bits_idx in 0usize..3,
    ) {
        // The ragged rows serving really runs: a short last group the
        // kernel zero-pads, weight-row counts that leave a partial tile.
        // Compared as bit patterns, at pool widths 1/2/4.
        let (k, m, n) = (NORMAL_K[k_idx], SERVING_M[m_idx], SERVING_N[n_idx]);
        let bits = [3u8, 4, 8][bits_idx];
        let mut rng = atom_tensor::SeededRng::new(seed);
        let qa = quantized(&mut rng, m, k, 1.0, bits);
        let qw = quantized(&mut rng, n, k, 0.5, bits);
        let oracle = reference::fused_group_gemm(&Pool::sequential(), &qa, &qw).unwrap();
        for threads in [1usize, 2, 4] {
            let kernel = fused_group_gemm_with(&Pool::new(threads), &qa, &qw).unwrap();
            prop_assert_eq!(bits_of(&oracle), bits_of(&kernel), "threads {}", threads);
        }
    }

    #[test]
    fn one_sweep_mixed_gemm_equals_reference_composition(
        seed in 0u64..300,
        k_idx in 0usize..4,
        o_idx in 0usize..2,
        m_idx in 0usize..4,
        n_idx in 0usize..4,
        bits_idx in 0usize..3,
    ) {
        // The one-sweep kernel against the definition it replaces: two
        // reference GEMMs and an FP32 matrix add. Bit patterns, so the
        // `fold(normal) + fold(outlier)` it writes once is the same float
        // the composition reaches through `out += 1.0 * outlier`.
        let (k, o) = (NORMAL_K[k_idx], OUTLIER_K[o_idx]);
        let (m, n) = (SERVING_M[m_idx], SERVING_N[n_idx]);
        let bits = [3u8, 4, 8][bits_idx];
        let mut rng = atom_tensor::SeededRng::new(seed);
        let (qa_n, qw_n) = (quantized(&mut rng, m, k, 1.0, bits), quantized(&mut rng, n, k, 0.5, bits));
        let (qa_o, qw_o) = (quantized(&mut rng, m, o, 20.0, 8), quantized(&mut rng, n, o, 0.5, 8));
        let seq = Pool::sequential();
        let mut composed = reference::fused_group_gemm(&seq, &qa_n, &qw_n).unwrap();
        let outlier = reference::fused_group_gemm(&seq, &qa_o, &qw_o).unwrap();
        composed.add_scaled_in_place(&outlier, 1.0);
        for threads in [1usize, 2, 4] {
            let swept =
                mixed_gemm_with(&Pool::new(threads), &qa_n, &qw_n, Some((&qa_o, &qw_o))).unwrap();
            prop_assert_eq!(bits_of(&composed), bits_of(&swept), "threads {}", threads);
        }
    }

    #[test]
    fn gather_quantize_equals_quantizing_the_permuted_copy(
        seed in 0u64..400,
        rows in 1usize..7,
        cols in 1usize..40,
        split_pct in 0usize..=100,
        bits in 2u8..=8,
        group in 1usize..20,
        threads in 1usize..=4,
    ) {
        // The fused reorder+quantize epilogue: both regions of a random
        // permutation (odd widths included) quantized through the index
        // list must be `==` — spec, packed bytes, scales — to quantizing
        // the materialized `permute_cols(x).slice_cols(..)`.
        let mut rng = atom_tensor::SeededRng::new(seed);
        let x = rng.normal_matrix(rows, cols, 0.0, 2.0);
        let mut perm: Vec<usize> = (0..cols).collect();
        for i in (1..cols).rev() {
            perm.swap(i, rng.below(i + 1));
        }
        let split = cols * split_pct / 100;
        let spec = QuantSpec::new(bits, group);
        let permuted = x.permute_cols(&perm);
        let pool = Pool::new(threads);
        for (lo, hi) in [(0, split), (split, cols)] {
            let fused = GroupQuantized::quantize_gather_with(&pool, &x, &perm[lo..hi], spec);
            let copied = GroupQuantized::quantize(&permuted.slice_cols(lo, hi), spec);
            prop_assert_eq!(&fused, &copied, "columns {}..{}", lo, hi);
        }
    }

    #[test]
    fn kv_appends_and_truncation_are_exact(
        seed in 0u64..400,
        rows in 1usize..12,
        half_cols in 0usize..9,
        keep in 0usize..14,
        bits in 2u8..=8,
    ) {
        // In-place growth: N single-row appends == one N-row append ==
        // quantizing the N rows at once, and truncate_rows(n) == never
        // having appended the rest — codes, scales and minima, at every
        // bit width and at odd widths (whose rows end in pad bits).
        let cols = 2 * half_cols + 1;
        let mut rng = atom_tensor::SeededRng::new(seed);
        let x = rng.normal_matrix(rows, cols, 0.5, 2.0);
        let whole = AsymQuantized::quantize(&x, bits);
        let mut at_once = AsymQuantized::empty(cols, bits);
        at_once.append_rows(&x);
        let mut one_by_one = AsymQuantized::empty(cols, bits);
        for r in 0..rows {
            one_by_one.append_rows(&x.slice_rows(r, r + 1));
        }
        prop_assert_eq!(&at_once, &whole);
        prop_assert_eq!(&one_by_one, &whole);

        let keep = keep.min(rows + 1);
        let mut cut = whole.clone();
        cut.truncate_rows(keep);
        let never = AsymQuantized::quantize(&x.slice_rows(0, keep.min(rows)), bits);
        prop_assert_eq!(&cut, &never);
        // ... and the truncated container keeps growing correctly.
        let mut regrown = cut;
        regrown.append_rows(&x.slice_rows(keep.min(rows), rows));
        prop_assert_eq!(&regrown, &whole);
    }

    #[test]
    fn bulk_pack_and_unpack_match_per_element(
        seed in 0u64..400,
        bits in 2u8..=8,
        rows in 1usize..6,
        cols in 1usize..40,
        first in 0usize..5,
    ) {
        // pack_row writes the bytes set() writes (pad bits included), a row
        // decode returns what per-element get() returns, and a run decode
        // the values packed, whether or not rows end in pad bits.
        let mut rng = atom_tensor::SeededRng::new(seed);
        let lo = -(1i16 << (bits - 1)) as i32;
        let hi = (1i16 << (bits - 1)) as i32 - 1;
        let values: Vec<i8> = (0..rows * cols)
            .map(|_| (lo + rng.below((hi - lo + 1) as usize) as i32) as i8)
            .collect();
        let mut by_elem = PackedMatrix::zeros(rows, cols, bits);
        let mut by_row = PackedMatrix::zeros(rows, cols, bits);
        for (r, row) in values.chunks(cols).enumerate() {
            by_row.pack_row(r, row);
            for (c, &v) in row.iter().enumerate() {
                by_elem.set(r, c, v);
            }
        }
        prop_assert_eq!(&by_row, &by_elem);
        let mut row = vec![0i8; cols];
        for r in 0..rows {
            by_row.unpack_row(r, &mut row);
            let by_get: Vec<i8> = (0..cols).map(|c| by_row.get(r, c)).collect();
            prop_assert_eq!(&row, &by_get, "row {}", r);
        }

        let first = first.min(rows - 1);
        let mut run = vec![0i8; (rows - first) * cols];
        by_row.unpack_rows(first, &mut run);
        prop_assert_eq!(&run[..], &values[first * cols..]);
    }

    #[test]
    fn packed_bytes_monotone_in_bits(rows in 1usize..8, cols in 8usize..64) {
        let mut last = 0usize;
        for bits in 2u8..=8 {
            let m = PackedMatrix::zeros(rows, cols, bits);
            prop_assert!(m.packed_bytes() >= last);
            last = m.packed_bytes();
        }
    }

    #[test]
    fn effective_bits_at_least_nominal(m in matrix(2..4, 16..64), bits in 2u8..=8) {
        let q = GroupQuantized::quantize(&m, QuantSpec::new(bits, 16));
        prop_assert!(q.effective_bits() >= bits as f64 - 1e-9);
        // Scales add at most 16/group + packing slack.
        prop_assert!(q.effective_bits() <= bits as f64 + 16.0 / 16.0 + 8.0);
    }

    #[test]
    fn shared_scale_quantization_stays_on_grid(
        seed in 0u64..200,
        cols in 8usize..33,
    ) {
        let mut rng = atom_tensor::SeededRng::new(seed);
        let sample = rng.normal_matrix(16, cols, 0.0, 1.0);
        let spec = QuantSpec::new(4, 8);
        let shared = GroupQuantized::calibrate_shared_scales(&sample, spec);
        let live = rng.normal_matrix(4, cols, 0.0, 1.0);
        let q = GroupQuantized::quantize_with_shared_scales(&live, spec, &shared);
        // Every scale row equals the shared scales.
        for r in 0..q.scales().rows() {
            for (g, &sh) in shared.iter().enumerate() {
                let expect = atom_tensor::f16::round_f16(sh).max(f32::MIN_POSITIVE);
                prop_assert_eq!(q.scales()[(r, g)], expect);
            }
        }
    }
}
