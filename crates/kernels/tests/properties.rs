//! Property-based tests of the kernel crate's quantization invariants.

use atom_kernels::gemm::{group_sum_bound, lane_gemm, mixed_gemm, reference, reference_gemm, GemmRegion};
use atom_kernels::{ActivationLanes, AsymQuantized, GroupQuantized, PackedMatrix, QuantSpec, WeightPanels};
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
/// Activation row counts: decode, every width of a last row block (1–3
/// rows alone, and after whole blocks of 4: 5, 6, 7 = 4 + 3, 9 = 8 + 1), a
/// batched decode step (six sequences, the benchmark's mean batch), whole
/// row blocks, a 16-row chunk and its neighbours, prefill, and a whole
/// prompt chunk.
const SERVING_M: [usize; 14] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 65, 128];
/// Weight row counts on both sides of the kernel's 32-row tile.
const SERVING_N: [usize; 4] = [1, 31, 33, 70];

/// Pools at each of `threads`, then a width-2 pool under the seeded
/// schedule perturbation `stress` — each proptest case draws its own seed,
/// so every width sweep below also runs under 64 stress seeds.
fn pools<const N: usize>(threads: [usize; N], stress: u64) -> impl Iterator<Item = Pool> {
    threads
        .into_iter()
        .map(Pool::new)
        .chain([Pool::new(2).with_stress(stress)])
}

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
        let fused = mixed_gemm(&qa, &qw, None).unwrap();
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
        stress in 0u64..1 << 32,
    ) {
        // The determinism contract: pool width never changes a single
        // output bit (disjoint row tiles, no atomics in reductions).
        let k = groups * 8;
        let mut rng = atom_tensor::SeededRng::new(seed);
        let a = rng.normal_matrix(m, k, 0.0, 1.0);
        let w = rng.normal_matrix(n, k, 0.0, 1.0);
        let qa = GroupQuantized::quantize(&a, QuantSpec::new(bits, 8));
        let qw = GroupQuantized::quantize(&w, QuantSpec::new(bits, 8));
        let solo = Pool::sequential().install(|| mixed_gemm(&qa, &qw, None)).unwrap();
        for pool in pools([2, 4, 8], stress) {
            let par = pool.install(|| mixed_gemm(&qa, &qw, None)).unwrap();
            prop_assert_eq!(solo.as_slice(), par.as_slice(), "{:?}", pool);
        }
    }

    #[test]
    fn parallel_quantization_bit_identical(
        m in matrix(1..10, 8..40),
        bits in 2u8..=8,
        threads in 2usize..=8,
        stress in 0u64..1 << 32,
    ) {
        // Row-block quantization into lanes, stitched on the caller, must
        // reproduce the sequential quantizer's codes and scales exactly;
        // the identity column list makes the gather a plain quantize.
        let spec = QuantSpec::new(bits, 8);
        let seq = ActivationLanes::decode(&GroupQuantized::quantize(&m, spec));
        let identity: Vec<usize> = (0..m.cols()).collect();
        for pool in pools([threads], stress) {
            let par = pool.install(|| ActivationLanes::quantize_gather(&m, &identity, spec));
            prop_assert_eq!(&seq, &par, "{:?}", pool);
        }
    }

    #[test]
    fn gemm_bit_identical_to_reference(
        seed in 0u64..300,
        m in 1usize..40,
        n in 1usize..10,
        k in 1usize..70,
        group in 1usize..80,
        bits in 2u8..=8,
        stress in 0u64..1 << 32,
    ) {
        // The kernel's contract: the weight-block sweep returns the same
        // bits as the reference loop nest for random shapes, bit widths,
        // and group sizes (including ragged tail groups and group > k),
        // at thread widths 1, 2, and 8, and 2 under stress — with row
        // counts from 1 to 39, so a last row block of every width (1–4
        // rows) meets every group shape.
        let mut rng = atom_tensor::SeededRng::new(seed);
        let a = rng.normal_matrix(m, k, 0.0, 1.0);
        let w = rng.normal_matrix(n, k, 0.0, 1.0);
        let qa = GroupQuantized::quantize(&a, QuantSpec::new(bits, group));
        let qw = GroupQuantized::quantize(&w, QuantSpec::new(bits, group));
        let oracle = reference::fused_group_gemm(&qa, &qw).unwrap();
        for pool in pools([1, 2, 8], stress) {
            let kernel = pool.install(|| mixed_gemm(&qa, &qw, None)).unwrap();
            prop_assert_eq!(bits_of(&oracle), bits_of(&kernel), "{:?}", pool);
        }
    }

    #[test]
    fn mixed_gemm_bit_identical_to_reference(
        seed in 0u64..200,
        m in 1usize..5,
        n in 1usize..6,
        groups in 1usize..3,
        outlier_cols in 1usize..24,
        stress in 0u64..1 << 32,
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
        let oracle = reference::mixed_gemm(&qa_n, &qw_n, outliers).unwrap();
        for pool in pools([1, 2, 8], stress) {
            let kernel = pool.install(|| mixed_gemm(&qa_n, &qw_n, outliers)).unwrap();
            prop_assert_eq!(bits_of(&oracle), bits_of(&kernel), "{:?}", pool);
        }
    }

    #[test]
    fn gemm_bit_identical_to_reference_on_serving_shapes(
        seed in 0u64..300,
        k_idx in 0usize..4,
        m_idx in 0usize..SERVING_M.len(),
        n_idx in 0usize..4,
        bits_idx in 0usize..3,
        stress in 0u64..1 << 32,
    ) {
        // The ragged rows serving really runs: a short last group the
        // kernel zero-pads, weight-row counts that leave a partial tile.
        // Compared as bit patterns, at pool widths 1/2/4.
        let (k, m, n) = (NORMAL_K[k_idx], SERVING_M[m_idx], SERVING_N[n_idx]);
        let bits = [3u8, 4, 8][bits_idx];
        let mut rng = atom_tensor::SeededRng::new(seed);
        let qa = quantized(&mut rng, m, k, 1.0, bits);
        let qw = quantized(&mut rng, n, k, 0.5, bits);
        let oracle = reference::fused_group_gemm(&qa, &qw).unwrap();
        for pool in pools([1, 2, 4], stress) {
            let kernel = pool.install(|| mixed_gemm(&qa, &qw, None)).unwrap();
            prop_assert_eq!(bits_of(&oracle), bits_of(&kernel), "{:?}", pool);
        }
    }

    #[test]
    fn one_sweep_mixed_gemm_equals_reference_composition(
        seed in 0u64..300,
        k_idx in 0usize..4,
        o_idx in 0usize..2,
        m_idx in 0usize..SERVING_M.len(),
        n_idx in 0usize..4,
        bits_idx in 0usize..3,
        stress in 0u64..1 << 32,
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
        let mut composed = reference::fused_group_gemm(&qa_n, &qw_n).unwrap();
        let outlier = reference::fused_group_gemm(&qa_o, &qw_o).unwrap();
        composed.add_scaled_in_place(&outlier, 1.0);
        for pool in pools([1, 2, 4], stress) {
            let swept = pool.install(|| mixed_gemm(&qa_n, &qw_n, Some((&qa_o, &qw_o)))).unwrap();
            prop_assert_eq!(bits_of(&composed), bits_of(&swept), "{:?}", pool);
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
        stress in 0u64..1 << 32,
    ) {
        // The fused reorder+quantize epilogue: both regions of a random
        // permutation (odd widths included) quantized through the index
        // list into lanes must be `==` — codes, scales — to quantizing the
        // materialized `permute_cols(x).slice_cols(..)`.
        let mut rng = atom_tensor::SeededRng::new(seed);
        let x = rng.normal_matrix(rows, cols, 0.0, 2.0);
        let mut perm: Vec<usize> = (0..cols).collect();
        for i in (1..cols).rev() {
            perm.swap(i, rng.below(i + 1));
        }
        let split = cols * split_pct / 100;
        let spec = QuantSpec::new(bits, group);
        let permuted = x.permute_cols(&perm);
        for pool in pools([threads], stress) {
            for (lo, hi) in [(0, split), (split, cols)] {
                let fused = pool.install(|| ActivationLanes::quantize_gather(&x, &perm[lo..hi], spec));
                let copied = ActivationLanes::decode(&GroupQuantized::quantize(&permuted.slice_cols(lo, hi), spec));
                prop_assert_eq!(&fused, &copied, "{:?} columns {}..{}", pool, lo, hi);
            }
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

/// The benchmark model's mixed-GEMM widths: (INT4 normal, INT8 outlier)
/// channels of the attention / gate / up projections and of the down
/// projection.
const BENCH_REGIONS: [(usize, usize); 2] = [(118, 10), (352, 32)];

/// Row counts of the row-independence oracle: 1–9, so a row sits in a
/// block of 1, 2, 3 and 4 rows, alone and after whole blocks; 15 / 16 / 17
/// around a 16-row chunk; and a whole prompt chunk.
const ROW_INDEPENDENCE_M: [usize; 13] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 128];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn gemm_row_is_independent_of_the_rows_beside_it(
        seed in 0u64..1000,
        shape_idx in 0usize..BENCH_REGIONS.len(),
        m_idx in 0usize..ROW_INDEPENDENCE_M.len(),
        stress in 0u64..1 << 32,
    ) {
        // The stream rule chunked prefill and the golden self-check lean
        // on: row i of an m-row mixed GEMM is, bit for bit, the 1-row GEMM
        // of that row — whether it sits in a block of 4 rows or in a last
        // block of 1, 2 or 3, at pool width 1 and at width 2 under stress.
        let (k, o) = BENCH_REGIONS[shape_idx];
        let m = ROW_INDEPENDENCE_M[m_idx];
        let n = 40;
        let mut rng = atom_tensor::SeededRng::new(seed);
        let (x_n, x_o) = (rng.normal_matrix(m, k, 0.0, 1.0), rng.normal_matrix(m, o, 0.0, 20.0));
        let (qw_n, qw_o) = (quantized(&mut rng, n, k, 0.5, 4), quantized(&mut rng, n, o, 0.5, 8));
        let quantize = |x: &Matrix, bits| GroupQuantized::quantize(x, QuantSpec::new(bits, 16));
        for pool in pools([1], stress) {
            let whole = pool
                .install(|| mixed_gemm(&quantize(&x_n, 4), &qw_n, Some((&quantize(&x_o, 8), &qw_o))))
                .unwrap();
            for i in 0..m {
                let (row_n, row_o) = (x_n.slice_rows(i, i + 1), x_o.slice_rows(i, i + 1));
                let alone = pool
                    .install(|| mixed_gemm(&quantize(&row_n, 4), &qw_n, Some((&quantize(&row_o, 8), &qw_o))))
                    .unwrap();
                prop_assert_eq!(
                    bits_of(&whole.slice_rows(i, i + 1)),
                    bits_of(&alone),
                    "row {} of {} at {:?}", i, m, pool
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn panel_weights_serve_the_bits_of_the_row_major_gemm(
        seed in 0u64..1000,
        shape_idx in 0usize..BENCH_REGIONS.len(),
        m_idx in 0usize..SERVING_M.len(),
        stress in 0u64..1 << 32,
    ) {
        // What a quantized linear runs — activations quantized straight
        // into lanes through a column list, weights laid out panel-major
        // once — against `mixed_gemm` over the packed row-major operands
        // of the permuted input: the same bits, at widths 1 and 2 under
        // stress. The panels read back the row-major weights they were
        // laid out from.
        let (k, o) = BENCH_REGIONS[shape_idx];
        let (m, n) = (SERVING_M[m_idx], 40);
        let mut rng = atom_tensor::SeededRng::new(seed);
        let x = rng.normal_matrix(m, k + o, 0.0, 1.0);
        let mut perm: Vec<usize> = (0..k + o).collect();
        for i in (1..k + o).rev() {
            perm.swap(i, rng.below(i + 1));
        }
        let (cols_n, cols_o) = perm.split_at(k);
        let (spec_n, spec_o) = (QuantSpec::new(4, 16), QuantSpec::new(8, 16));
        let (qw_n, qw_o) = (quantized(&mut rng, n, k, 0.5, 4), quantized(&mut rng, n, o, 0.5, 8));
        let (p_n, p_o) = (WeightPanels::new(&qw_n), WeightPanels::new(&qw_o));
        prop_assert_eq!(&p_n.row_major(), &qw_n);
        prop_assert_eq!(&p_o.row_major(), &qw_o);
        for pool in pools([1], stress) {
            let packed = pool.install(|| {
                let (a_n, a_o) = (
                    GroupQuantized::quantize(&x.gather_cols(cols_n), spec_n),
                    GroupQuantized::quantize(&x.gather_cols(cols_o), spec_o),
                );
                mixed_gemm(&a_n, &qw_n, Some((&a_o, &qw_o))).unwrap()
            });
            let lanes = pool.install(|| {
                let (a_n, a_o) = (
                    ActivationLanes::quantize_gather(&x, cols_n, spec_n),
                    ActivationLanes::quantize_gather(&x, cols_o, spec_o),
                );
                let normal = GemmRegion { act: &a_n, panels: &p_n };
                let outlier = GemmRegion { act: &a_o, panels: &p_o };
                lane_gemm(normal, Some(outlier)).unwrap()
            });
            prop_assert_eq!(bits_of(&packed), bits_of(&lanes), "m = {} at {:?}", m, pool);
        }
    }
}

#[test]
fn int4_worst_case_group_fits_i16_lanes() {
    // Every code -8 against -8: a full group of 16 sums 16 x 2^6 = 1024,
    // the largest integer an INT4 x INT4 group's `i16` lane sum reaches.
    // At widths n = 24 and 40 (a panel and a half, two and a half: the
    // last panel's lanes past the last row are padding) and m = 1–5 (every
    // row block width, and a block of 4 followed by one of 1), the `i16`
    // lanes never saturate: the kernel returns the reference's bits, and
    // with unit scales the exact value.
    let (k, spec) = (48, QuantSpec::new(4, 16));
    let all_min = |rows: usize, scale: f32| {
        let values = PackedMatrix::from_values(rows, k, 4, &vec![-8; rows * k]);
        GroupQuantized::from_parts(spec, values, Matrix::full(rows, k / 16, scale))
    };
    for n in [24, 40] {
        let w = all_min(n, 1.0);
        for m in 1..=5 {
            let a = all_min(m, 1.0);
            let kernel = mixed_gemm(&a, &w, None).unwrap();
            assert_eq!(bits_of(&kernel), bits_of(&reference::fused_group_gemm(&a, &w).unwrap()));
            assert!(kernel.as_slice().iter().all(|&v| v == 3.0 * 1024.0), "m = {m}, n = {n}");
            let a = all_min(m, 0.013);
            let kernel = mixed_gemm(&a, &w, None).unwrap();
            assert_eq!(bits_of(&kernel), bits_of(&reference::fused_group_gemm(&a, &w).unwrap()));
        }
    }
}

#[test]
fn int8_worst_case_group_reaches_the_panel_bound() {
    // Every code -128 against -128: one group of 16 sums 16 x 2^14 = 2^18,
    // the largest integer the GEMM's f32 lane sums must hold exactly.
    // At every row block width (m = 1–5) the kernel must return the
    // reference's bits, and with unit scales the exact value.
    let (k, n) = (48, 37);
    let spec = QuantSpec::new(8, 16);
    let all_min = |rows: usize, scale: f32| {
        let values = PackedMatrix::from_values(rows, k, 8, &vec![i8::MIN; rows * k]);
        GroupQuantized::from_parts(spec, values, Matrix::full(rows, k / 16, scale))
    };
    let w = all_min(n, 1.0);
    for m in 1..=5 {
        let a = all_min(m, 1.0);
        let kernel = mixed_gemm(&a, &w, None).unwrap();
        assert_eq!(bits_of(&kernel), bits_of(&reference::fused_group_gemm(&a, &w).unwrap()));
        assert!(kernel.as_slice().iter().all(|&v| v == 3.0 * 262_144.0), "m = {m}");
        // A scale that is not a power of two rounds each group term.
        let a = all_min(m, 0.013);
        let kernel = mixed_gemm(&a, &w, None).unwrap();
        assert_eq!(bits_of(&kernel), bits_of(&reference::fused_group_gemm(&a, &w).unwrap()));
    }
}

#[test]
fn int8_per_channel_group_past_2_24_runs_in_i32_lanes() {
    // One INT8 x INT8 group over 1,100 channels (per-channel, the ablation
    // spec at a width past 1,024) can sum past 2^24, where `f32` lanes
    // would round: it runs in `i32` lanes and must equal the reference bit
    // for bit, at m = 1, 3 and 5 (a block of 1, of 3, and 4 + 1). Every
    // code 127 against 127 walks its partial sums over odd integers above
    // 2^24 (1,041 x 16,129 = 16,790,289) to an exact 17,741,900.
    let (k, n) = (1100, 40);
    let spec = QuantSpec::new(8, usize::MAX);
    assert!(group_sum_bound(k, 8, 8) >= 1 << 24);
    let all_max = |rows: usize| {
        let values = PackedMatrix::from_values(rows, k, 8, &vec![127; rows * k]);
        GroupQuantized::from_parts(spec, values, Matrix::full(rows, 1, 1.0))
    };
    let mut rng = atom_tensor::SeededRng::new(17);
    let w_random = GroupQuantized::quantize(&rng.normal_matrix(n, k, 0.0, 1.0), spec);
    for m in [1, 3, 5] {
        let (a, w) = (all_max(m), all_max(n));
        let kernel = mixed_gemm(&a, &w, None).unwrap();
        assert_eq!(bits_of(&kernel), bits_of(&reference::fused_group_gemm(&a, &w).unwrap()));
        assert!(kernel.as_slice().iter().all(|&v| v == 17_741_900.0), "m = {m}");
        let a = GroupQuantized::quantize(&rng.normal_matrix(m, k, 0.0, 1.0), spec);
        let kernel = mixed_gemm(&a, &w_random, None).unwrap();
        let oracle = reference::fused_group_gemm(&a, &w_random).unwrap();
        assert_eq!(bits_of(&kernel), bits_of(&oracle), "m = {m}");
    }
}
