//! Directed tests of each kernel against its reference at the shapes
//! property generators rarely hit: empty reductions, single groups,
//! accumulator-cap boundaries, the ragged column tails the GEMM kernel
//! zero-pads, and the whole grid of row widths the serving model produces.
//! The GEMMs must equal `gemm::reference` bit for bit, the row decoders
//! `PackedMatrix::get`, and quantized-KV attention `attention_reference`
//! over the dequantized K/V within FP32 summation-order tolerance.

use atom_kernels::attention::attention_reference;
use atom_kernels::gemm::{fused_group_gemm_with, mixed_gemm_with, reference, MAX_ACC_K};
use atom_kernels::{attention_quant_kv, GroupQuantized, PackedMatrix, QuantSpec, QuantizedKvHead};
use atom_parallel::Pool;
use atom_tensor::{Matrix, SeededRng};

/// Runs the fused GEMM kernel at thread widths 1/2/8 and asserts exact
/// equality with the reference everywhere.
fn assert_gemm_matches_reference(qa: &GroupQuantized, qw: &GroupQuantized, what: &str) {
    let oracle = reference::fused_group_gemm(&Pool::sequential(), qa, qw)
        .unwrap_or_else(|e| panic!("{what}: reference failed: {e}"));
    for threads in [1usize, 2, 8] {
        let kernel = fused_group_gemm_with(&Pool::new(threads), qa, qw)
            .unwrap_or_else(|e| panic!("{what}: kernel failed: {e}"));
        assert_eq!(
            oracle.as_slice(),
            kernel.as_slice(),
            "{what}: reference != kernel at {threads} threads"
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
fn gemm_matches_reference_with_empty_reduction() {
    // k = 0: no groups, every output element is the empty sum 0.0.
    let mut rng = SeededRng::new(1);
    let (qa, qw) = quantized_pair(&mut rng, 3, 4, 0, 4, 16);
    assert_gemm_matches_reference(&qa, &qw, "k=0");
}

#[test]
fn gemm_matches_reference_with_empty_outputs() {
    let mut rng = SeededRng::new(2);
    let (qa, qw) = quantized_pair(&mut rng, 0, 4, 32, 4, 16);
    assert_gemm_matches_reference(&qa, &qw, "m=0");
    let (qa, qw) = quantized_pair(&mut rng, 3, 0, 32, 4, 16);
    assert_gemm_matches_reference(&qa, &qw, "n=0");
}

#[test]
fn gemm_matches_reference_with_single_group() {
    // group >= k collapses the epilogue to a single dequant per element.
    let mut rng = SeededRng::new(3);
    let (qa, qw) = quantized_pair(&mut rng, 2, 5, 24, 4, usize::MAX);
    assert_gemm_matches_reference(&qa, &qw, "single group");
}

#[test]
fn gemm_matches_reference_on_ragged_k_tails() {
    // K values straddling the 16-code block boundary the kernel pads to: one below, at, and above it and its half, plus a prime far from
    // any boundary.
    for &k in &[1usize, 7, 8, 9, 15, 16, 17, 31, 33, 61] {
        for bits in [4u8, 8] {
            let mut rng = SeededRng::new(1000 + k as u64 + u64::from(bits));
            let (qa, qw) = quantized_pair(&mut rng, 3, 4, k, bits, 16);
            assert_gemm_matches_reference(&qa, &qw, &format!("k={k} bits={bits}"));
        }
    }
}

#[test]
fn gemm_and_mixed_gemm_match_reference_on_the_serving_grid() {
    // Every row width serving hands the kernel — normal k in {6, 17, 118,
    // 352}, outlier k in {10, 32}, group = min(16, k) — at decode, ragged,
    // one-block and prefill row counts and at INT3/INT4/INT8, with 33
    // weight rows (one full 32-row tile and a one-row tile). Each region
    // alone, then the one-sweep mixed kernel against the reference two-call
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
                    assert_gemm_matches_reference(&qa_n, &qw_n, &what);
                    assert_gemm_matches_reference(&qa_o, &qw_o, &what);

                    let outliers = Some((&qa_o, &qw_o));
                    let composed = reference::mixed_gemm(&seq, &qa_n, &qw_n, outliers).unwrap();
                    for threads in [1usize, 2, 4] {
                        let swept = mixed_gemm_with(&Pool::new(threads), &qa_n, &qw_n, outliers)
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
fn mixed_gemm_matches_reference_with_an_empty_region() {
    // A region without channels contributes the empty sum; the kernel must
    // agree with the reference composition whichever side is empty, and
    // reject the same mismatched shapes.
    let mut rng = SeededRng::new(11);
    let (qa, qw) = quantized_pair(&mut rng, 3, 5, 40, 4, 16);
    let (qa_none, qw_none) = quantized_pair(&mut rng, 3, 5, 0, 8, 16);
    let seq = Pool::sequential();
    for (normal, outlier) in [((&qa, &qw), (&qa_none, &qw_none)), ((&qa_none, &qw_none), (&qa, &qw))] {
        let oracle = reference::mixed_gemm(&seq, normal.0, normal.1, Some(outlier)).unwrap();
        let kernel = mixed_gemm_with(&seq, normal.0, normal.1, Some(outlier)).unwrap();
        assert_eq!(oracle.as_slice(), kernel.as_slice());
    }
    let (qa_short, qw_short) = quantized_pair(&mut rng, 2, 5, 10, 8, 16);
    let short = Some((&qa_short, &qw_short));
    assert!(
        reference::mixed_gemm(&seq, &qa, &qw, short).is_err()
            && mixed_gemm_with(&seq, &qa, &qw, short).is_err(),
        "outlier region with fewer rows must be rejected"
    );
}

#[test]
fn gemm_matches_reference_at_odd_bit_widths() {
    // Widths with no byte-level decode (the generic bit-window loop) still
    // go through the kernel's weight-block loop order.
    for bits in [2u8, 3, 5, 6, 7] {
        let mut rng = SeededRng::new(2000 + u64::from(bits));
        let (qa, qw) = quantized_pair(&mut rng, 2, 3, 37, bits, 8);
        assert_gemm_matches_reference(&qa, &qw, &format!("bits={bits}"));
    }
}

#[test]
fn gemm_matches_reference_at_accumulator_cap_boundary() {
    // K at and just below MAX_ACC_K with a single group: the per-group i32
    // sums sit as close to the overflow cap as a legal call can get, and
    // kernel and reference must still agree exactly. W8A8 (the widest setting) is
    // what the cap is derived for.
    assert_eq!(MAX_ACC_K, 131_071, "cap derivation changed; update docs");
    for k in [MAX_ACC_K, MAX_ACC_K - 1] {
        let mut rng = SeededRng::new(k as u64);
        let a = rng.normal_matrix(1, k, 0.0, 1.0);
        let w = rng.normal_matrix(2, k, 0.0, 1.0);
        let qa = GroupQuantized::quantize(&a, QuantSpec::new(8, usize::MAX));
        let qw = GroupQuantized::quantize(&w, QuantSpec::new(8, usize::MAX));
        assert_gemm_matches_reference(&qa, &qw, &format!("k={k} at cap"));
    }
}

#[test]
fn unpack_row_matches_get_on_sub_word_rows_and_every_byte_value() {
    // Short rows, odd and even, at every width: the INT4/INT8 decoders'
    // vector body, remainder and odd last nibble, and the generic
    // bit-window loop, must all return what per-element `get` returns. The
    // long rows put every byte value through the INT4 decoder (each
    // (low, high) nibble pair) and every code through the INT8 one.
    for bits in 2u8..=8 {
        let span = 1usize << bits;
        let check = |cols: usize, raw: &dyn Fn(usize) -> usize| {
            let values: Vec<i8> = (0..cols)
                .map(|c| ((raw(c) % span) as i32 - (span / 2) as i32) as i8)
                .collect();
            let m = PackedMatrix::from_values(1, cols, bits, &values);
            let mut row = vec![0i8; cols];
            m.unpack_row(0, &mut row);
            let by_get: Vec<i8> = (0..cols).map(|c| m.get(0, c)).collect();
            assert_eq!(row, by_get, "bits={bits} cols={cols}");
            assert_eq!(row, values, "bits={bits} cols={cols} decode wrong");
        };
        for cols in 1usize..20 {
            check(cols, &|c| c);
        }
        // Column pair (2i, 2i+1) holds raw codes (i, i / 16): at INT4 byte
        // `i` of the row is the byte value `i`, at INT8 the even columns
        // run through all 256 codes. 513 columns keep an odd tail.
        check(513, &|c| if c % 2 == 0 { c / 2 } else { c / 32 });
    }
}

#[test]
fn attention_within_tolerance_of_reference_on_degenerate_shapes() {
    let mut rng = SeededRng::new(8);
    // (kv_len, q_rows, head_dim): single token, sub-word head dims, a head
    // dim straddling a 16-byte vector of codes, an empty query, and the
    // Fig. 11 decode shape (one query row over a 1024-token history).
    let shapes =
        [(1usize, 1usize, 1usize), (2, 1, 3), (5, 5, 17), (9, 2, 16), (2, 0, 4), (1024, 1, 128)];
    for &(len, q_rows, hd) in &shapes {
        for bits in [2u8, 4, 8] {
            let mut kv = QuantizedKvHead::new(hd, bits);
            kv.append(
                &rng.normal_matrix(len, hd, 0.0, 1.0),
                &rng.normal_matrix(len, hd, 0.0, 1.0),
            );
            let q = rng.normal_matrix(q_rows, hd, 0.0, 1.0);
            let scale = 1.0 / (hd as f32).sqrt();
            let out = attention_quant_kv(&q, &kv, scale);
            let (k, v) = (kv.keys.dequantize(), kv.values.dequantize());
            let reference = attention_reference(&q, &k, &v, scale);
            assert_eq!((out.rows(), out.cols()), (q_rows, hd));
            for (x, y) in out.as_slice().iter().zip(reference.as_slice()) {
                assert!(
                    (x - y).abs() <= 1e-5 * (1.0 + y.abs()),
                    "len={len} q={q_rows} hd={hd} bits={bits}: {x} vs {y}"
                );
            }
        }
    }
}
