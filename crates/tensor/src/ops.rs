//! Neural-network primitives used by Llama-family models.
//!
//! Everything a decoder-only transformer forward pass needs: numerically
//! stable softmax, RMSNorm, the SiLU activation, rotary position embeddings
//! (RoPE), causal masking, the one causal attention loop the KV stores run
//! ([`causal_attention`]), argmax and cross-entropy.

use crate::Matrix;

/// Numerically stable softmax over one slice, in place.
///
/// An empty slice is left untouched.
pub fn softmax_in_place(row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Softmax applied independently to each row of `m`.
pub fn softmax_rows(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    for r in 0..out.rows() {
        softmax_in_place(out.row_mut(r));
    }
    out
}

/// Log-softmax of one row, returned as a new vector.
///
/// Used by perplexity and zero-shot likelihood scoring.
pub fn log_softmax(row: &[f32]) -> Vec<f32> {
    let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    let log_sum: f32 = row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln() + max;
    row.iter().map(|&v| v - log_sum).collect()
}

/// RMSNorm over each row: `x / rms(x) * gain`, with `rms(x) =
/// sqrt(mean(x^2) + eps)`.
///
/// This is the normalization used throughout the Llama family.
///
/// # Panics
///
/// Panics if `gain.len() != m.cols()`.
pub fn rmsnorm_rows(m: &Matrix, gain: &[f32], eps: f32) -> Matrix {
    assert_eq!(gain.len(), m.cols(), "rmsnorm gain length mismatch");
    let mut out = m.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let ms: f32 = row.iter().map(|v| v * v).sum::<f32>() / crate::cast::usize_to_f32(row.len());
        let inv = 1.0 / (ms + eps).sqrt();
        for (v, &g) in row.iter_mut().zip(gain.iter()) {
            *v *= inv * g;
        }
    }
    out
}

/// SiLU (swish) activation `x * sigmoid(x)`.
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// Applies rotary position embeddings to each row of `m` in place.
///
/// Row `r` is treated as the hidden vector of the token at absolute position
/// `positions[r]`. Pairs `(2i, 2i+1)` of each `head_dim` segment are rotated
/// by angle `pos * theta^(-2i/head_dim)`.
///
/// # Panics
///
/// Panics if `positions.len() != m.rows()`, `head_dim` is zero or odd, or
/// `m.cols()` is not a multiple of `head_dim`.
pub fn rope_in_place(m: &mut Matrix, positions: &[usize], head_dim: usize, theta: f32) {
    rotate_pairs(m, positions, head_dim, theta, |[a, b], sin, cos| {
        [a * cos - b * sin, a * sin + b * cos]
    });
}

/// Inverse rotation of [`rope_in_place`] (used by the autograd backward pass).
///
/// # Panics
///
/// As [`rope_in_place`].
pub fn rope_inverse_in_place(m: &mut Matrix, positions: &[usize], head_dim: usize, theta: f32) {
    // Rotate by -angle.
    rotate_pairs(m, positions, head_dim, theta, |[a, b], sin, cos| {
        [a * cos + b * sin, -a * sin + b * cos]
    });
}

/// Maps every pair `(2i, 2i+1)` of every `head_dim` segment of row `r`
/// through `rotate(pair, sin, cos)` of the angle `positions[r] * freq_i`,
/// `freq_i = theta^(-2i/head_dim)`. The frequencies are computed once per
/// call and each row's `(sin, cos)` once per row, then applied to every
/// head: the same inputs to `powf` and `sin_cos` as recomputing them per
/// (row, head, pair), so the same bits.
fn rotate_pairs(
    m: &mut Matrix,
    positions: &[usize],
    head_dim: usize,
    theta: f32,
    rotate: impl Fn([f32; 2], f32, f32) -> [f32; 2],
) {
    assert_eq!(positions.len(), m.rows(), "rope positions length mismatch");
    assert!(head_dim > 0 && head_dim.is_multiple_of(2), "head_dim must be even");
    assert_eq!(m.cols() % head_dim, 0, "cols must be a multiple of head_dim");
    let hd = crate::cast::usize_to_f32(head_dim);
    let freqs: Vec<f32> = (0..head_dim / 2)
        .map(|i| theta.powf(-2.0 * crate::cast::usize_to_f32(i) / hd))
        .collect();
    let mut sin_cos = vec![(0.0f32, 0.0f32); head_dim / 2];
    for (r, &pos) in positions.iter().enumerate() {
        let pos = crate::cast::usize_to_f32(pos);
        for (sc, &freq) in sin_cos.iter_mut().zip(&freqs) {
            *sc = (pos * freq).sin_cos();
        }
        for seg in m.row_mut(r).chunks_exact_mut(head_dim) {
            for (pair, &(sin, cos)) in seg.as_chunks_mut::<2>().0.iter_mut().zip(&sin_cos) {
                *pair = rotate(*pair, sin, cos);
            }
        }
    }
}

/// Adds a causal mask to a `q_len x kv_len` score matrix in place: position
/// `q` may attend to kv positions `0..=q + offset`, everything later is set
/// to negative infinity.
///
/// `offset` is `kv_len - q_len` during incremental decoding (the queries are
/// the *last* `q_len` positions of the kv sequence).
///
/// # Panics
///
/// Panics if `scores.cols() < scores.rows() + offset` would make the mask
/// meaningless (i.e. `offset + scores.rows() > scores.cols()` is allowed only
/// when it never masks in-range entries; we simply require
/// `offset + 1 <= scores.cols()` for non-empty matrices).
pub fn causal_mask_in_place(scores: &mut Matrix, offset: usize) {
    let (q_len, kv_len) = scores.shape();
    for q in 0..q_len {
        let last_visible = q + offset;
        let row = scores.row_mut(q);
        for (k, item) in row.iter_mut().enumerate().take(kv_len) {
            if k > last_visible {
                *item = f32::NEG_INFINITY;
            }
        }
    }
}

/// Causal attention of one KV head's query rows over its decoded history,
/// computing only the scores the causal mask keeps.
///
/// `keys_t` is the head's keys transposed (`head_dim x len`) and `values`
/// its values (`len x head_dim`), for `len` cached positions. `q` stacks
/// the query heads that share this KV head, head-major, `new_rows` rows per
/// head: row `r` is the query at position `len - new_rows + r % new_rows`,
/// and it attends to positions `0..=pos`. Returns one `head_dim`-wide output
/// row per query row.
///
/// The result is bit-identical to the materialised reference on each head
/// block: `q.matmul_nt(k)`, `scale_in_place(scale)`,
/// [`causal_mask_in_place`] with offset `len - new_rows`, [`softmax_rows`],
/// `matmul(v)`.
/// - Every kept score accumulates `q[d] * k[d]` over `d` in order from
///   `0.0` and is then multiplied by `scale`: the operations `matmul_nt`
///   then `scale_in_place` run, in the same order. Consecutive keys run
///   in parallel lanes, which reorders nothing inside one score.
/// - The reference's masked entries are `-inf`, and they trail the visible
///   ones. They never raise the max, and each adds `exp(-inf) = +0.0` to a
///   sum that is already at least 1 (the max entry contributes
///   `exp(0) = 1`), so the sum is unchanged. [`softmax_in_place`] over the
///   visible prefix alone therefore yields the same max, sum and
///   probabilities.
/// - The masked probabilities are exactly 0, and `matmul` skips zero
///   weights. Mixing the visible value rows in key order, skipping
///   `p == 0`, adds the same terms in the same order.
///
/// # Panics
///
/// Panics if the shapes disagree, if `new_rows` exceeds `len`, or if
/// `q.rows()` is not a multiple of `new_rows`.
pub fn causal_attention(
    q: &Matrix,
    keys_t: &Matrix,
    values: &Matrix,
    new_rows: usize,
    scale: f32,
) -> Matrix {
    let (hd, len) = keys_t.shape();
    assert_eq!(q.cols(), hd, "query width mismatch");
    assert_eq!(values.shape(), (len, hd), "values shape mismatch");
    assert!(new_rows <= len, "queries exceed cached tokens");
    assert!(
        q.rows().is_multiple_of(new_rows),
        "query rows must stack whole heads of new rows"
    );
    let first = len - new_rows;
    let mut out = Matrix::zeros(q.rows(), hd);
    let mut scores = vec![0.0f32; len];
    for r in 0..q.rows() {
        let s = &mut scores[..first + r % new_rows + 1];
        s.fill(0.0);
        for (&qd, k_d) in q.row(r).iter().zip(keys_t.iter_rows()) {
            for (acc, &k) in s.iter_mut().zip(k_d) {
                *acc += qd * k;
            }
        }
        for v in s.iter_mut() {
            *v *= scale;
        }
        softmax_in_place(s);
        let o = out.row_mut(r);
        for (&p, v_row) in s.iter().zip(values.iter_rows()) {
            if p == 0.0 {
                continue;
            }
            for (o, &v) in o.iter_mut().zip(v_row) {
                *o += p * v;
            }
        }
    }
    out
}

/// Index of the maximum element (first one on ties).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn argmax(row: &[f32]) -> usize {
    assert!(!row.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

/// Cross-entropy (nats) of the target index under the logits row.
///
/// # Panics
///
/// Panics if `target >= logits.len()`.
pub fn cross_entropy(logits: &[f32], target: usize) -> f32 {
    assert!(target < logits.len(), "target out of vocabulary");
    -log_softmax(logits)[target]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let mut row = vec![1.0, 2.0, 3.0, 4.0];
        softmax_in_place(&mut row);
        let sum: f32 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(row.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn softmax_handles_extremes() {
        let mut row = vec![1000.0, 1000.0];
        softmax_in_place(&mut row);
        assert!((row[0] - 0.5).abs() < 1e-6);
        let mut neg = vec![-1000.0, -999.0];
        softmax_in_place(&mut neg);
        assert!(neg.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let row = vec![0.3, -1.2, 2.5];
        let ls = log_softmax(&row);
        let mut sm = row.clone();
        softmax_in_place(&mut sm);
        for (l, s) in ls.iter().zip(sm.iter()) {
            assert!((l.exp() - s).abs() < 1e-6);
        }
    }

    #[test]
    fn rmsnorm_unit_rows() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        let gain = vec![1.0, 1.0];
        let n = rmsnorm_rows(&m, &gain, 0.0);
        let ms: f32 = n.row(0).iter().map(|v| v * v).sum::<f32>() / 2.0;
        assert!((ms - 1.0).abs() < 1e-5);
    }

    #[test]
    fn rope_preserves_norm_and_inverts() {
        let mut m = Matrix::from_fn(3, 8, |r, c| (r + c) as f32 * 0.3 - 1.0);
        let orig = m.clone();
        let norms: Vec<f32> = (0..3).map(|r| m.row(r).iter().map(|v| v * v).sum()).collect();
        rope_in_place(&mut m, &[0, 5, 11], 4, 10000.0);
        for (r, &n0) in norms.iter().enumerate() {
            let n1: f32 = m.row(r).iter().map(|v| v * v).sum();
            assert!((n0 - n1).abs() < 1e-3, "rope should preserve norms");
        }
        rope_inverse_in_place(&mut m, &[0, 5, 11], 4, 10000.0);
        for (a, b) in m.as_slice().iter().zip(orig.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    /// The loop `rope_in_place` / `rope_inverse_in_place` replaced: the
    /// frequency and the rotation recomputed for every (row, head, pair).
    fn rope_oracle(m: &mut Matrix, positions: &[usize], head_dim: usize, theta: f32, inverse: bool) {
        let heads = m.cols() / head_dim;
        for (r, &p) in positions.iter().enumerate() {
            let pos = crate::cast::usize_to_f32(p);
            let row = m.row_mut(r);
            for h in 0..heads {
                let seg = &mut row[h * head_dim..(h + 1) * head_dim];
                for i in 0..head_dim / 2 {
                    let freq = theta.powf(
                        -2.0 * crate::cast::usize_to_f32(i) / crate::cast::usize_to_f32(head_dim),
                    );
                    let (sin, cos) = (pos * freq).sin_cos();
                    let (a, b) = (seg[2 * i], seg[2 * i + 1]);
                    if inverse {
                        seg[2 * i] = a * cos + b * sin;
                        seg[2 * i + 1] = -a * sin + b * cos;
                    } else {
                        seg[2 * i] = a * cos - b * sin;
                        seg[2 * i + 1] = a * sin + b * cos;
                    }
                }
            }
        }
    }

    #[test]
    fn rope_is_the_per_pair_loop_bit_for_bit() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut rng = crate::SeededRng::new(9);
        // Power-of-two and other head widths: `2i / head_dim` rounds only
        // for the latter.
        let shapes = [(0, 4, 2), (1, 2, 1), (3, 8, 4), (8, 16, 8), (33, 32, 3), (5, 6, 3), (7, 24, 2)];
        for (rows, head_dim, heads) in shapes {
            let x = rng.normal_matrix(rows, head_dim * heads, 0.0, 3.0);
            let positions: Vec<usize> = (0..rows).map(|r| r * 37 % 1000 + r).collect();
            for theta in [10_000.0, 500_000.0] {
                for inverse in [false, true] {
                    let (mut fast, mut slow) = (x.clone(), x.clone());
                    if inverse {
                        rope_inverse_in_place(&mut fast, &positions, head_dim, theta);
                    } else {
                        rope_in_place(&mut fast, &positions, head_dim, theta);
                    }
                    rope_oracle(&mut slow, &positions, head_dim, theta, inverse);
                    assert_eq!(bits(&fast), bits(&slow), "{rows}x{heads}x{head_dim} inverse {inverse}");
                }
            }
        }
    }

    #[test]
    fn rope_position_zero_is_identity() {
        let mut m = Matrix::from_fn(1, 8, |_, c| c as f32);
        let orig = m.clone();
        rope_in_place(&mut m, &[0], 8, 10000.0);
        assert_eq!(m, orig);
    }

    #[test]
    fn causal_mask_blocks_future() {
        let mut s = Matrix::full(2, 4, 1.0);
        causal_mask_in_place(&mut s, 2);
        // Query 0 sees kv 0..=2, query 1 sees all 4.
        assert_eq!(s.row(0)[3], f32::NEG_INFINITY);
        assert!(s.row(0)[2].is_finite());
        assert!(s.row(1).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn causal_attention_is_the_masked_reference_bit_for_bit() {
        let mut rng = crate::SeededRng::new(5);
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // (cached, new rows, query heads per KV head, head width)
        let shapes = [(1, 1, 1, 4), (7, 7, 2, 3), (40, 1, 4, 16), (5, 0, 1, 4)];
        for (len, new_rows, group, hd) in shapes {
            let k = rng.normal_matrix(len, hd, 0.0, 1.0);
            let v = rng.normal_matrix(len, hd, 0.0, 1.0);
            let q = rng.normal_matrix(group * new_rows, hd, 0.0, 2.0);
            let out = causal_attention(&q, &k.transpose(), &v, new_rows, 0.3);
            for g in 0..group {
                let mut scores = q.slice_rows(g * new_rows, (g + 1) * new_rows).matmul_nt(&k);
                scores.scale_in_place(0.3);
                causal_mask_in_place(&mut scores, len - new_rows);
                let reference = softmax_rows(&scores).matmul(&v);
                let got = out.slice_rows(g * new_rows, (g + 1) * new_rows);
                assert_eq!(bits(&got), bits(&reference), "{len} {new_rows} {g}");
            }
        }
    }

    #[test]
    fn argmax_and_cross_entropy() {
        let row = vec![0.1, 5.0, -2.0, 3.0];
        assert_eq!(argmax(&row), 1);
        let ce_good = cross_entropy(&row, 1);
        let ce_bad = cross_entropy(&row, 2);
        assert!(ce_good < ce_bad);
    }

    #[test]
    fn silu_shape() {
        assert!(silu(0.0).abs() < 1e-7);
        assert!(silu(10.0) > 9.9);
    }
}
