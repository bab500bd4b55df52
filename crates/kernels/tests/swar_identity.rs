//! Directed scalar-vs-swar bit-identity tests at the shapes property
//! generators rarely hit: empty reductions, single groups, accumulator-cap
//! boundaries, the ragged column tails the swar kernel zero-pads, and the
//! whole grid of row widths the serving model produces.

use atom_kernels::gemm::{fused_group_gemm_with_path, mixed_gemm_with_path, MAX_ACC_K};
use atom_kernels::{
    attention_quant_kv_path, AsymQuantized, GroupQuantized, KernelPath, PackedMatrix, QuantSpec,
    QuantizedKvHead,
};
use atom_parallel::Pool;
use atom_tensor::{Matrix, SeededRng};

/// Runs the fused GEMM on both paths at thread widths 1/2/8 and asserts
/// exact equality everywhere.
fn assert_gemm_paths_identical(qa: &GroupQuantized, qw: &GroupQuantized, what: &str) {
    let scalar = fused_group_gemm_with_path(&Pool::sequential(), qa, qw, KernelPath::Scalar)
        .unwrap_or_else(|e| panic!("{what}: scalar path failed: {e}"));
    for threads in [1usize, 2, 8] {
        let swar = fused_group_gemm_with_path(&Pool::new(threads), qa, qw, KernelPath::Swar)
            .unwrap_or_else(|e| panic!("{what}: swar path failed: {e}"));
        assert_eq!(
            scalar.as_slice(),
            swar.as_slice(),
            "{what}: scalar != swar at {threads} threads"
        );
    }
}

fn quantized_pair(
    rng: &mut SeededRng,
    m: usize,
    n: usize,
    k: usize,
    bits: u8,
    group: usize,
) -> (GroupQuantized, GroupQuantized) {
    let a = rng.normal_matrix(m, k, 0.0, 1.0);
    let w = rng.normal_matrix(n, k, 0.0, 1.0);
    (
        GroupQuantized::quantize(&a, QuantSpec::new(bits, group)),
        GroupQuantized::quantize(&w, QuantSpec::new(bits, group)),
    )
}

#[test]
fn gemm_identical_with_empty_reduction() {
    // k = 0: no groups, every output element is the empty sum 0.0.
    let mut rng = SeededRng::new(1);
    let (qa, qw) = quantized_pair(&mut rng, 3, 4, 0, 4, 16);
    assert_gemm_paths_identical(&qa, &qw, "k=0");
}

#[test]
fn gemm_identical_with_empty_outputs() {
    let mut rng = SeededRng::new(2);
    let (qa, qw) = quantized_pair(&mut rng, 0, 4, 32, 4, 16);
    assert_gemm_paths_identical(&qa, &qw, "m=0");
    let (qa, qw) = quantized_pair(&mut rng, 3, 0, 32, 4, 16);
    assert_gemm_paths_identical(&qa, &qw, "n=0");
}

#[test]
fn gemm_identical_with_single_group() {
    // group >= k collapses the epilogue to a single dequant per element.
    let mut rng = SeededRng::new(3);
    let (qa, qw) = quantized_pair(&mut rng, 2, 5, 24, 4, usize::MAX);
    assert_gemm_paths_identical(&qa, &qw, "single group");
}

#[test]
fn gemm_identical_on_ragged_k_tails() {
    // K values straddling the 16-code block boundary the swar kernel pads
    // to: one below, at, and above it and its half, plus a prime far from
    // any boundary.
    for &k in &[1usize, 7, 8, 9, 15, 16, 17, 31, 33, 61] {
        for bits in [4u8, 8] {
            let mut rng = SeededRng::new(1000 + k as u64 + u64::from(bits));
            let (qa, qw) = quantized_pair(&mut rng, 3, 4, k, bits, 16);
            assert_gemm_paths_identical(&qa, &qw, &format!("k={k} bits={bits}"));
        }
    }
}

#[test]
fn gemm_and_one_sweep_mixed_gemm_identical_on_the_serving_grid() {
    // Every row width serving hands the kernel — normal k in {6, 17, 118,
    // 352}, outlier k in {10, 32}, group = min(16, k) — at decode, ragged,
    // one-block and prefill row counts and at INT3/INT4/INT8, with 33
    // weight rows (one full 32-row tile and a one-row tile). Each region
    // alone, then the one-sweep mixed kernel against the scalar two-call
    // composition, as bit patterns at pool widths 1/2/4.
    let bits_of = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    let seq = Pool::sequential();
    for (ki, &k) in [6usize, 17, 118, 352].iter().enumerate() {
        for &o in &[10usize, 32] {
            for &m in &[1usize, 3, 8, 65] {
                for bits in [3u8, 4, 8] {
                    let what = format!("k={k} o={o} m={m} bits={bits}");
                    let mut rng = SeededRng::new(7000 + (ki * 1000 + o * 10 + m) as u64 + u64::from(bits));
                    let (qa_n, qw_n) = quantized_pair(&mut rng, m, 33, k, bits, 16);
                    let (qa_o, qw_o) = quantized_pair(&mut rng, m, 33, o, 8, 16);
                    assert_gemm_paths_identical(&qa_n, &qw_n, &what);
                    assert_gemm_paths_identical(&qa_o, &qw_o, &what);

                    let mut composed =
                        fused_group_gemm_with_path(&seq, &qa_n, &qw_n, KernelPath::Scalar).unwrap();
                    let outlier =
                        fused_group_gemm_with_path(&seq, &qa_o, &qw_o, KernelPath::Scalar).unwrap();
                    composed.add_scaled_in_place(&outlier, 1.0);
                    for threads in [1usize, 2, 4] {
                        let swept = mixed_gemm_with_path(
                            &Pool::new(threads),
                            &qa_n,
                            &qw_n,
                            Some((&qa_o, &qw_o)),
                            KernelPath::Swar,
                        )
                        .unwrap_or_else(|e| panic!("{what}: one-sweep kernel failed: {e}"));
                        assert_eq!(
                            bits_of(&composed),
                            bits_of(&swept),
                            "{what}: composition != one sweep at {threads} threads"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn mixed_gemm_identical_with_an_empty_region() {
    // A region without channels contributes the empty sum; the swar path
    // must agree with the scalar composition whichever side is empty, and
    // reject the same mismatched shapes.
    let mut rng = SeededRng::new(11);
    let (qa, qw) = quantized_pair(&mut rng, 3, 5, 40, 4, 16);
    let (qa_none, qw_none) = quantized_pair(&mut rng, 3, 5, 0, 8, 16);
    let seq = Pool::sequential();
    for (normal, outlier) in [((&qa, &qw), (&qa_none, &qw_none)), ((&qa_none, &qw_none), (&qa, &qw))] {
        let scalar =
            mixed_gemm_with_path(&seq, normal.0, normal.1, Some(outlier), KernelPath::Scalar).unwrap();
        let swar =
            mixed_gemm_with_path(&seq, normal.0, normal.1, Some(outlier), KernelPath::Swar).unwrap();
        assert_eq!(scalar.as_slice(), swar.as_slice());
    }
    let (qa_short, qw_short) = quantized_pair(&mut rng, 2, 5, 10, 8, 16);
    for path in [KernelPath::Scalar, KernelPath::Swar] {
        assert!(
            mixed_gemm_with_path(&seq, &qa, &qw, Some((&qa_short, &qw_short)), path).is_err(),
            "{path:?}: outlier region with fewer rows must be rejected"
        );
    }
}

#[test]
fn gemm_identical_at_odd_bit_widths() {
    // Widths with no byte-level decode (the per-element decode on both
    // paths) still go through the weight-block loop order on the swar path.
    for bits in [2u8, 3, 5, 6, 7] {
        let mut rng = SeededRng::new(2000 + u64::from(bits));
        let (qa, qw) = quantized_pair(&mut rng, 2, 3, 37, bits, 8);
        assert_gemm_paths_identical(&qa, &qw, &format!("bits={bits}"));
    }
}

#[test]
fn gemm_identical_at_accumulator_cap_boundary() {
    // K at and just below MAX_ACC_K with a single group: the per-group i32
    // sums sit as close to the overflow cap as a legal call can get, and
    // the two paths must still agree exactly. W8A8 (the widest setting) is
    // what the cap is derived for.
    assert_eq!(MAX_ACC_K, 131_071, "cap derivation changed; update docs");
    for k in [MAX_ACC_K, MAX_ACC_K - 1] {
        let mut rng = SeededRng::new(k as u64);
        let a = rng.normal_matrix(1, k, 0.0, 1.0);
        let w = rng.normal_matrix(2, k, 0.0, 1.0);
        let qa = GroupQuantized::quantize(&a, QuantSpec::new(8, usize::MAX));
        let qw = GroupQuantized::quantize(&w, QuantSpec::new(8, usize::MAX));
        assert_gemm_paths_identical(&qa, &qw, &format!("k={k} at cap"));
    }
}

#[test]
fn unpack_identical_on_sub_word_rows() {
    // Short rows, odd and even: the swar decoders' vector body, remainder
    // and odd last nibble must all match the reference decode.
    for bits in [4u8, 8] {
        for cols in 1usize..20 {
            let lo = -(1i16 << (bits - 1)) as i32;
            let values: Vec<i8> = (0..cols)
                .map(|c| (lo + (c as i32 % (1 << bits))) as i8)
                .collect();
            let m = PackedMatrix::from_values(1, cols, bits, &values);
            let mut scalar = vec![0i8; cols];
            let mut swar = vec![0i8; cols];
            m.unpack_row_with(0, &mut scalar, KernelPath::Scalar);
            m.unpack_row_with(0, &mut swar, KernelPath::Swar);
            assert_eq!(scalar, swar, "bits={bits} cols={cols}");
            assert_eq!(scalar, values, "bits={bits} cols={cols} decode wrong");
        }
    }
}

#[test]
fn dequantize_scratch_identical_to_allocating() {
    let mut rng = SeededRng::new(7);
    let x = rng.normal_matrix(5, 19, 0.0, 2.0);
    for bits in [4u8, 8] {
        let q = AsymQuantized::quantize(&x, bits);
        let mut scratch = Vec::new();
        let mut via_scratch = vec![0.0f32; 19];
        let mut via_alloc = vec![0.0f32; 19];
        for r in 0..5 {
            for path in [KernelPath::Scalar, KernelPath::Swar] {
                q.dequantize_row_scratch(r, &mut via_scratch, &mut scratch, path);
                q.dequantize_row_into_with(r, &mut via_alloc, path);
                assert_eq!(via_scratch, via_alloc, "bits={bits} row={r} {path:?}");
            }
        }
    }
}

#[test]
fn attention_identical_on_degenerate_shapes() {
    let mut rng = SeededRng::new(8);
    // (kv_len, q_rows, head_dim): single token, sub-word head dims, and a
    // head dim straddling a 16-byte vector of codes.
    for &(len, q_rows, hd) in &[(1usize, 1usize, 1usize), (2, 1, 3), (5, 5, 17), (9, 2, 16)] {
        for bits in [2u8, 4, 8] {
            let mut kv = QuantizedKvHead::new(hd, bits);
            kv.append(
                &rng.normal_matrix(len, hd, 0.0, 1.0),
                &rng.normal_matrix(len, hd, 0.0, 1.0),
            );
            let q = rng.normal_matrix(q_rows, hd, 0.0, 1.0);
            let scale = 1.0 / (hd as f32).sqrt();
            let scalar = attention_quant_kv_path(&q, &kv, scale, KernelPath::Scalar);
            let swar = attention_quant_kv_path(&q, &kv, scale, KernelPath::Swar);
            assert_eq!(
                scalar.as_slice(),
                swar.as_slice(),
                "len={len} q={q_rows} hd={hd} bits={bits}"
            );
        }
    }
}

#[test]
fn attention_identical_on_empty_query() {
    let mut kv = QuantizedKvHead::new(4, 4);
    kv.append(&Matrix::full(2, 4, 1.0), &Matrix::full(2, 4, 2.0));
    let q = Matrix::zeros(0, 4);
    let scalar = attention_quant_kv_path(&q, &kv, 0.5, KernelPath::Scalar);
    let swar = attention_quant_kv_path(&q, &kv, 0.5, KernelPath::Swar);
    assert_eq!(scalar.as_slice(), swar.as_slice());
    assert_eq!(scalar.rows(), 0);
}
