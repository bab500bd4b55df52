//! Self-attention with dequantize-on-load quantized KV.
//!
//! Mirrors the paper's fused FlashInfer integration (§4.5): keys and values
//! are *stored* in low-bit form; the kernel loads them, dequantizes to
//! floating point, and performs the FP attention arithmetic — so only
//! low-bit bytes cross the (simulated) memory boundary, which is where the
//! self-attention speedup of Fig. 11(b) comes from.

use crate::asym::AsymQuantized;
use atom_telemetry::{names, span, Telemetry};
use atom_tensor::{ops, Matrix};

/// One attention head's quantized KV block.
#[derive(Debug, Clone)]
pub struct QuantizedKvHead {
    /// Quantized keys, one row per cached token.
    pub keys: AsymQuantized,
    /// Quantized values, one row per cached token.
    pub values: AsymQuantized,
}

impl QuantizedKvHead {
    /// Creates an empty head block of width `head_dim`.
    pub fn new(head_dim: usize, bits: u8) -> Self {
        QuantizedKvHead {
            keys: AsymQuantized::empty(head_dim, bits),
            values: AsymQuantized::empty(head_dim, bits),
        }
    }

    /// Appends new tokens' K/V rows, quantizing them per `(token, head)` —
    /// the paper's KV granularity.
    pub fn append(&mut self, k: &Matrix, v: &Matrix) {
        self.keys.append_rows(k);
        self.values.append_rows(v);
    }

    /// Number of cached tokens.
    pub fn len(&self) -> usize {
        self.keys.rows()
    }

    /// Whether the block is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Memory footprint of the block in bytes.
    pub fn packed_bytes(&self) -> usize {
        self.keys.packed_bytes() + self.values.packed_bytes()
    }

    /// Drops cached tokens beyond the first `tokens` (see
    /// [`AsymQuantized::truncate_rows`]); surviving rows are bit-identical.
    pub fn truncate(&mut self, tokens: usize) {
        self.keys.truncate_rows(tokens);
        self.values.truncate_rows(tokens);
    }
}

/// Single-head attention over a quantized KV block with dequantize-on-load.
///
/// `q` is `q_len x head_dim`; queries are the final `q_len` positions of the
/// cached sequence (causal masking applied accordingly). Every K/V row
/// decodes through one code scratch buffer reused across the whole sweep.
///
/// # Example
///
/// ```
/// use atom_kernels::attention::attention_reference;
/// use atom_kernels::{attention_quant_kv, QuantizedKvHead};
/// use atom_tensor::Matrix;
///
/// let mut kv = QuantizedKvHead::new(8, 4);
/// kv.append(&Matrix::full(3, 8, 0.5), &Matrix::full(3, 8, 1.5));
/// let q = Matrix::full(2, 8, 1.0);
/// let out = attention_quant_kv(&q, &kv, 0.35);
/// let (k, v) = (kv.keys.dequantize(), kv.values.dequantize());
/// let reference = attention_reference(&q, &k, &v, 0.35);
/// assert!(out.sub(&reference).frob_norm() < 1e-5);
/// ```
///
/// # Panics
///
/// Panics if shapes disagree or `q_len` exceeds the cached length.
pub fn attention_quant_kv(q: &Matrix, kv: &QuantizedKvHead, scale: f32) -> Matrix {
    let head_dim = q.cols();
    assert_eq!(kv.keys.cols(), head_dim, "key width mismatch");
    assert_eq!(kv.values.cols(), head_dim, "value width mismatch");
    let kv_len = kv.len();
    assert!(q.rows() <= kv_len, "queries exceed cached tokens");
    let offset = kv_len - q.rows();

    let bytes = kv.packed_bytes() as u64;
    let t = Telemetry::global();
    let _timer = t.timer(names::OP_ATTENTION_WALL_NS);
    let _span = span!(names::SPAN_ATTENTION_QUANT_KV, bytes = bytes, kv_len = kv_len);
    t.counter_add(names::OP_ATTENTION_BYTES, bytes);
    t.counter_add(names::OP_ATTENTION_CALLS, 1);

    // Dequantize-on-load: each K/V row is expanded to FP as it streams in.
    let mut scratch = Vec::new();
    let mut scores = Matrix::zeros(q.rows(), kv_len);
    let mut krow = vec![0.0f32; head_dim];
    for t in 0..kv_len {
        kv.keys.dequantize_row_scratch(t, &mut krow, &mut scratch);
        for i in 0..q.rows() {
            let mut dot = 0.0f32;
            for (a, b) in q.row(i).iter().zip(krow.iter()) {
                dot += a * b;
            }
            #[expect(
                clippy::indexing_slicing,
                reason = "i < q.rows() and t < kv_len are exactly the dimensions `scores` was constructed with"
            )]
            let score = &mut scores.row_mut(i)[t];
            *score = dot * scale;
        }
    }
    ops::causal_mask_in_place(&mut scores, offset);
    let probs = ops::softmax_rows(&scores);

    let mut out = Matrix::zeros(q.rows(), head_dim);
    let mut vrow = vec![0.0f32; head_dim];
    for t in 0..kv_len {
        kv.values.dequantize_row_scratch(t, &mut vrow, &mut scratch);
        for i in 0..q.rows() {
            #[expect(
                clippy::indexing_slicing,
                reason = "probs is softmax(scores) and shares its constructed dimensions"
            )]
            let p = probs.row(i)[t];
            if p == 0.0 {
                continue;
            }
            let dst = out.row_mut(i);
            for (d, &v) in dst.iter_mut().zip(vrow.iter()) {
                *d += p * v;
            }
        }
    }
    out
}

/// FP32 reference attention over explicit K/V matrices (`kv_len x
/// head_dim`), used to validate the quantized kernel and as the FP16
/// baseline in benches.
pub fn attention_reference(q: &Matrix, k: &Matrix, v: &Matrix, scale: f32) -> Matrix {
    assert_eq!(k.rows(), v.rows(), "k/v length mismatch");
    assert!(q.rows() <= k.rows(), "queries exceed keys");
    let offset = k.rows() - q.rows();
    let mut scores = q.matmul_nt(k);
    scores.scale_in_place(scale);
    ops::causal_mask_in_place(&mut scores, offset);
    ops::softmax_rows(&scores).matmul(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atom_tensor::SeededRng;

    #[test]
    fn int8_kv_attention_close_to_reference() {
        let mut rng = SeededRng::new(1);
        let (kv_len, hd) = (24, 16);
        let k = rng.normal_matrix(kv_len, hd, 0.0, 1.0);
        let v = rng.normal_matrix(kv_len, hd, 0.0, 1.0);
        let q = rng.normal_matrix(4, hd, 0.0, 1.0);
        let scale = 1.0 / atom_tensor::cast::usize_to_f32(hd).sqrt();
        let reference = attention_reference(&q, &k, &v, scale);

        let mut kv = QuantizedKvHead::new(hd, 8);
        kv.append(&k, &v);
        let quant = attention_quant_kv(&q, &kv, scale);
        let rel = quant.sub(&reference).frob_norm() / reference.frob_norm();
        assert!(rel < 0.02, "INT8 KV attention error {rel}");
    }

    #[test]
    fn int4_worse_than_int8_but_usable() {
        let mut rng = SeededRng::new(2);
        let (kv_len, hd) = (32, 8);
        let k = rng.normal_matrix(kv_len, hd, 0.0, 1.0);
        let v = rng.normal_matrix(kv_len, hd, 0.0, 1.0);
        let q = rng.normal_matrix(2, hd, 0.0, 1.0);
        let scale = 1.0 / atom_tensor::cast::usize_to_f32(hd).sqrt();
        let reference = attention_reference(&q, &k, &v, scale);
        let rel_of = |bits| {
            let mut kv = QuantizedKvHead::new(hd, bits);
            kv.append(&k, &v);
            let o = attention_quant_kv(&q, &kv, scale);
            (o.sub(&reference).frob_norm() / reference.frob_norm()) as f64
        };
        let r8 = rel_of(8);
        let r4 = rel_of(4);
        assert!(r8 < r4, "INT8 ({r8}) should beat INT4 ({r4})");
        assert!(r4 < 0.25, "INT4 KV attention error too large: {r4}");
    }

    #[test]
    fn causal_masking_respected() {
        // A huge "future" value must not leak into earlier queries.
        let hd = 4;
        let mut k = Matrix::zeros(3, hd);
        let mut v = Matrix::zeros(3, hd);
        for c in 0..hd {
            k[(2, c)] = 5.0;
            v[(2, c)] = 100.0;
        }
        let q = Matrix::full(3, hd, 1.0);
        let mut kv = QuantizedKvHead::new(hd, 8);
        kv.append(&k, &v);
        let out = attention_quant_kv(&q, &kv, 1.0);
        // Query 0 (position 0) sees only token 0 -> output 0.
        assert!(out.row(0).iter().all(|&x| x.abs() < 1e-3));
        // Query 2 (position 2) sees token 2's giant value.
        assert!(out.row(2)[0] > 10.0);
    }

    #[test]
    fn incremental_append_matches_batch() {
        let mut rng = SeededRng::new(3);
        let hd = 8;
        let k = rng.normal_matrix(6, hd, 0.0, 1.0);
        let v = rng.normal_matrix(6, hd, 0.0, 1.0);
        let mut all = QuantizedKvHead::new(hd, 8);
        all.append(&k, &v);
        let mut inc = QuantizedKvHead::new(hd, 8);
        for r in 0..6 {
            inc.append(&k.slice_rows(r, r + 1), &v.slice_rows(r, r + 1));
        }
        assert_eq!(all.len(), inc.len());
        let q = rng.normal_matrix(1, hd, 0.0, 1.0);
        let a = attention_quant_kv(&q, &all, 0.5);
        let b = attention_quant_kv(&q, &inc, 0.5);
        // Per-row quantization is identical either way.
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn memory_footprint_scales_with_bits() {
        let mut rng = SeededRng::new(4);
        let k = rng.normal_matrix(64, 16, 0.0, 1.0);
        let v = rng.normal_matrix(64, 16, 0.0, 1.0);
        let bytes_of = |bits| {
            let mut kv = QuantizedKvHead::new(16, bits);
            kv.append(&k, &v);
            kv.packed_bytes()
        };
        let b8 = bytes_of(8);
        let b4 = bytes_of(4);
        let b2 = bytes_of(2);
        assert!(b4 < b8 && b2 < b4);
        // Codes shrink exactly 2x; scales/zeros stay constant.
        assert_eq!(b8 - b4, 64 * 16 * 2 / 2);
    }
}
