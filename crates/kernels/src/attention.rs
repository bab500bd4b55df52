//! Self-attention over quantized KV, with the dequantization fused in.
//!
//! Mirrors the paper's fused FlashInfer integration (§4.5): keys and values
//! are *stored* in low-bit form, and attention reads them where they lie.
//! [`QuantizedKvHead::attend`] decodes each of one head's rows once into
//! FP32 scratch and runs the causal loop of [`ops::causal_attention`] over
//! it, so only low-bit bytes cross the (simulated) memory boundary — where
//! the self-attention speedup of Fig. 11(b) comes from — and no layer is
//! ever materialised. The serving store, `atom::QuantizedKvCache`, attends
//! through it.

use crate::asym::AsymQuantized;
use atom_telemetry::{names, span};
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

    /// Causal attention of stacked query heads over this block, with the
    /// dequantization fused in: every K/V row decodes once
    /// ([`AsymQuantized::dequantize`]), into a transposed key scratch and a
    /// value scratch, and [`ops::causal_attention`] then computes only the
    /// scores the causal mask keeps.
    ///
    /// `q` stacks the query heads that share this KV head, head-major,
    /// `new_rows` rows per head (see [`ops::causal_attention`] for the
    /// positions and the bit-identity argument). The result equals
    /// [`attention_reference`] over the dequantized K/V on each head block,
    /// bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the widths disagree, if `new_rows` exceeds the cached
    /// length, or if `q` does not stack whole heads of `new_rows` rows.
    pub fn attend(&self, q: &Matrix, new_rows: usize, scale: f32) -> Matrix {
        let (bytes, kv_len) = (self.packed_bytes() as u64, self.len());
        let _span = span!(names::SPAN_ATTENTION_QUANT_KV, bytes = bytes, kv_len = kv_len);
        let keys_t = self.keys.dequantize().transpose();
        ops::causal_attention(q, &keys_t, &self.values.dequantize(), new_rows, scale)
    }
}

/// Single-head attention over a quantized KV block, decoding each K/V row
/// once.
///
/// `q` is `q_len x head_dim`; queries are the final `q_len` positions of the
/// cached sequence (causal masking applied accordingly). This is
/// [`QuantizedKvHead::attend`] with one query head, so the result equals
/// [`attention_reference`] over the dequantized K/V bit for bit.
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
/// assert_eq!(out, attention_reference(&q, &k, &v, 0.35));
/// ```
///
/// # Panics
///
/// Panics if shapes disagree or `q_len` exceeds the cached length.
pub fn attention_quant_kv(q: &Matrix, kv: &QuantizedKvHead, scale: f32) -> Matrix {
    kv.attend(q, q.rows(), scale)
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
