//! Quantized KV-cache (paper §4.4).
//!
//! Keys and values are quantized *asymmetrically* at attention-head
//! granularity as they are appended, and dequantized on load. Plugging this
//! [`atom_nn::KvStore`] implementation into the unchanged model forward
//! reproduces the paper's KV-quantization accuracy ablation (Table 3's
//! final row), and its byte accounting feeds the serving-memory model.

use atom_kernels::attention::QuantizedKvHead;
use atom_kernels::AsymQuantized;
use atom_nn::KvStore;
use atom_parallel::Pool;
use atom_tensor::Matrix;

/// KV cache storing each layer/head block in low-bit asymmetric form.
#[derive(Debug, Clone)]
pub struct QuantizedKvCache {
    layers: Vec<Vec<QuantizedKvHead>>,
    kv_dim: usize,
    head_dim: usize,
    bits: u8,
}

impl QuantizedKvCache {
    /// Creates an empty cache: `layers` layers of `kv_dim / head_dim` heads.
    ///
    /// # Panics
    ///
    /// Panics if `head_dim` does not divide `kv_dim` or bits are out of
    /// range.
    pub fn new(layers: usize, kv_dim: usize, head_dim: usize, bits: u8) -> Self {
        assert!(head_dim > 0 && kv_dim.is_multiple_of(head_dim), "head layout invalid");
        let heads = kv_dim / head_dim;
        QuantizedKvCache {
            layers: (0..layers)
                .map(|_| (0..heads).map(|_| QuantizedKvHead::new(head_dim, bits)).collect())
                .collect(),
            kv_dim,
            head_dim,
            bits,
        }
    }

    /// Bit width of the stored cache.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Total packed bytes across all layers and heads.
    pub fn packed_bytes(&self) -> usize {
        self.layers
            .iter()
            .flat_map(|heads| heads.iter().map(|h| h.packed_bytes()))
            .sum()
    }

    /// Direct access to one head block (used by the quantized attention
    /// kernel benches).
    pub fn head(&self, layer: usize, head: usize) -> &QuantizedKvHead {
        &self.layers[layer][head]
    }

    fn materialize(&self, layer: usize, keys: bool) -> Matrix {
        let heads = &self.layers[layer];
        let len = heads[0].len();
        let hd = self.head_dim;
        // Dequantize-on-load writes every (token, head) row straight into
        // its `head_dim`-wide column block of the output — no per-head
        // intermediate, no stitch copy. It parallelizes over blocks of
        // token rows: each block is an exclusive span of the output decoded
        // by the same per-row code, so the result is bit-identical at any
        // pool width. One code scratch buffer serves a whole block.
        let decode_rows = |first: usize, rows: &mut [f32]| {
            let mut scratch = Vec::new();
            for (i, row) in rows.chunks_exact_mut(self.kv_dim).enumerate() {
                for (block, dst) in heads.iter().zip(row.chunks_exact_mut(hd)) {
                    let src = if keys { &block.keys } else { &block.values };
                    src.dequantize_row_scratch(first + i, dst, &mut scratch);
                }
            }
        };
        let mut out = Matrix::zeros(len, self.kv_dim);
        let span = LOAD_ROW_BLOCK * self.kv_dim;
        let done = Pool::global().par_chunks_mut(out.as_mut_slice(), span, |b, rows| {
            decode_rows(b * LOAD_ROW_BLOCK, rows);
        });
        if done.is_err() {
            // A contained worker panic (a caller bug: ragged head lengths)
            // re-raises on the caller thread, as the sequential loop would.
            decode_rows(0, out.as_mut_slice());
        }
        out
    }
}

/// Token rows one pool chunk dequantizes on load.
const LOAD_ROW_BLOCK: usize = 64;

impl KvStore for QuantizedKvCache {
    fn append(&mut self, layer: usize, k: &Matrix, v: &Matrix) {
        assert_eq!(k.cols(), self.kv_dim, "k width mismatch");
        assert_eq!(v.cols(), self.kv_dim, "v width mismatch");
        assert_eq!(k.rows(), v.rows(), "k/v row mismatch");
        let (hd, bits) = (self.head_dim, self.bits);
        for (h, block) in self.layers[layer].iter_mut().enumerate() {
            // Quantize each head's column block from the row sub-slices.
            let head_rows = |x: &Matrix| {
                AsymQuantized::quantize_row_slices(
                    (0..x.rows()).map(|t| &x.row(t)[h * hd..(h + 1) * hd]),
                    hd,
                    bits,
                )
            };
            block.keys.append(&head_rows(k));
            block.values.append(&head_rows(v));
        }
    }

    fn keys(&self, layer: usize) -> Matrix {
        self.materialize(layer, true)
    }

    fn values(&self, layer: usize) -> Matrix {
        self.materialize(layer, false)
    }

    fn len(&self, layer: usize) -> usize {
        self.layers[layer][0].len()
    }

    fn clear(&mut self) {
        for heads in &mut self.layers {
            for h in heads.iter_mut() {
                *h = QuantizedKvHead::new(self.head_dim, self.bits);
            }
        }
    }

    fn clone_box(&self) -> Box<dyn KvStore> {
        Box::new(self.clone())
    }

    fn truncate(&mut self, tokens: usize) {
        for heads in &mut self.layers {
            for h in heads.iter_mut() {
                h.truncate(tokens);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atom_nn::{Fp32KvCache, LlamaModel, ModelConfig};
    use atom_tensor::SeededRng;

    #[test]
    fn append_and_materialize_roundtrip() {
        let mut rng = SeededRng::new(1);
        let mut cache = QuantizedKvCache::new(2, 16, 8, 8);
        let k = rng.normal_matrix(5, 16, 0.0, 1.0);
        let v = rng.normal_matrix(5, 16, 0.0, 1.0);
        cache.append(0, &k, &v);
        assert_eq!(cache.len(0), 5);
        assert_eq!(cache.len(1), 0);
        let km = cache.keys(0);
        assert_eq!(km.shape(), (5, 16));
        let rel = km.sub(&k).frob_norm() / k.frob_norm();
        assert!(rel < 0.02, "INT8 kv roundtrip error {rel}");
    }

    #[test]
    fn int4_cache_coarser_than_int8() {
        let mut rng = SeededRng::new(2);
        let k = rng.normal_matrix(10, 16, 0.0, 1.0);
        let v = rng.normal_matrix(10, 16, 0.0, 1.0);
        let err = |bits| {
            let mut c = QuantizedKvCache::new(1, 16, 8, bits);
            c.append(0, &k, &v);
            (c.values(0).sub(&v).frob_norm() / v.frob_norm()) as f64
        };
        assert!(err(4) > err(8));
        assert!(err(4) < 0.2);
    }

    #[test]
    fn model_runs_with_quantized_cache() {
        let config = ModelConfig {
            dim: 32,
            layers: 2,
            heads: 4,
            kv_heads: 4,
            ffn_dim: 64,
            ..ModelConfig::default()
        };
        let model = LlamaModel::random_init(config, 3);
        let tokens = [1u16, 5, 9, 13, 2];

        let mut fp = Fp32KvCache::new(config.layers, config.kv_dim());
        let exact = model.forward(&tokens, &mut fp);

        let mut q = QuantizedKvCache::new(config.layers, config.kv_dim(), config.head_dim(), 8);
        let approx = model.forward(&tokens, &mut q);
        let rel = approx.sub(&exact).frob_norm() / exact.frob_norm();
        assert!(rel < 0.05, "INT8 KV cache changed logits too much: {rel}");
    }

    #[test]
    fn memory_shrinks_with_bits() {
        let mut rng = SeededRng::new(4);
        let k = rng.normal_matrix(64, 32, 0.0, 1.0);
        let v = rng.normal_matrix(64, 32, 0.0, 1.0);
        let bytes = |bits| {
            let mut c = QuantizedKvCache::new(1, 32, 8, bits);
            c.append(0, &k, &v);
            c.packed_bytes()
        };
        assert!(bytes(4) < bytes(8));
        assert!(bytes(2) < bytes(4));
    }

    #[test]
    fn append_and_load_match_the_per_head_copies_exactly() {
        // append() quantizes each head from row sub-slices and keys() /
        // values() decode straight into the output's column blocks; the
        // definition they replace copies each head out (`slice_cols`),
        // quantizes the copy, dequantizes per head and stitches. Same
        // codes/scales/minima, same floats — for prefill (multi-row) and
        // decode (one row at a time) appends, past one load row block.
        let mut rng = SeededRng::new(21);
        let (kv_dim, hd, bits) = (24, 8, 4);
        let mut cache = QuantizedKvCache::new(1, kv_dim, hd, bits);
        let mut reference: Vec<QuantizedKvHead> =
            (0..kv_dim / hd).map(|_| QuantizedKvHead::new(hd, bits)).collect();
        let mut feed = |rows: usize, rng: &mut SeededRng| {
            let k = rng.normal_matrix(rows, kv_dim, 0.0, 1.0);
            let v = rng.normal_matrix(rows, kv_dim, 0.5, 2.0);
            cache.append(0, &k, &v);
            for (h, head) in reference.iter_mut().enumerate() {
                head.append(&k.slice_cols(h * hd, (h + 1) * hd), &v.slice_cols(h * hd, (h + 1) * hd));
            }
        };
        feed(LOAD_ROW_BLOCK + 3, &mut rng);
        for _ in 0..5 {
            feed(1, &mut rng);
        }
        let len = LOAD_ROW_BLOCK + 8;
        assert_eq!(cache.len(0), len);
        let (keys, values) = (cache.keys(0), cache.values(0));
        for (h, head) in reference.iter().enumerate() {
            assert_eq!(cache.head(0, h).keys, head.keys, "head {h} key codes");
            assert_eq!(cache.head(0, h).values, head.values, "head {h} value codes");
            let (dk, dv) = (head.keys.dequantize(), head.values.dequantize());
            for t in 0..len {
                assert_eq!(&keys.row(t)[h * hd..(h + 1) * hd], dk.row(t), "key ({t}, {h})");
                assert_eq!(&values.row(t)[h * hd..(h + 1) * hd], dv.row(t), "value ({t}, {h})");
            }
        }
    }

    #[test]
    fn clear_resets_all_layers() {
        let mut c = QuantizedKvCache::new(2, 8, 4, 4);
        c.append(0, &Matrix::full(2, 8, 1.0), &Matrix::full(2, 8, 1.0));
        c.append(1, &Matrix::full(3, 8, 1.0), &Matrix::full(3, 8, 1.0));
        c.clear();
        assert_eq!(c.len(0), 0);
        assert_eq!(c.len(1), 0);
    }

    #[test]
    fn clone_box_truncate_is_bit_identical_to_short_history() {
        // Appending [a; b] then truncating back to |a| must be bit-identical
        // to appending only `a` — the invariant the prefix cache replays rely
        // on (per-(token, head) asymmetric quantization is row-independent).
        let mut rng = SeededRng::new(11);
        let a_k = rng.normal_matrix(5, 16, 0.0, 1.0);
        let a_v = rng.normal_matrix(5, 16, 0.0, 1.0);
        let b_k = rng.normal_matrix(3, 16, 1.0, 0.5);
        let b_v = rng.normal_matrix(3, 16, -1.0, 0.5);
        let mut long = QuantizedKvCache::new(2, 16, 8, 4);
        let mut short = QuantizedKvCache::new(2, 16, 8, 4);
        for layer in 0..2 {
            long.append(layer, &a_k, &a_v);
            long.append(layer, &b_k, &b_v);
            short.append(layer, &a_k, &a_v);
        }
        let mut cut = long.clone_box();
        cut.truncate(5);
        for layer in 0..2 {
            assert_eq!(cut.len(layer), 5);
            assert_eq!(cut.keys(layer).as_slice(), short.keys(layer).as_slice());
            assert_eq!(cut.values(layer).as_slice(), short.values(layer).as_slice());
        }
        assert_eq!(long.len(0), 8, "truncating the clone must not touch the original");
    }

    #[test]
    fn incremental_decode_with_quant_cache_is_stable() {
        let config = ModelConfig {
            dim: 32,
            layers: 1,
            heads: 4,
            kv_heads: 4,
            ffn_dim: 48,
            ..ModelConfig::default()
        };
        let model = LlamaModel::random_init(config, 5);
        let mut cache = QuantizedKvCache::new(1, config.kv_dim(), config.head_dim(), 8);
        let mut last = Matrix::zeros(0, 0);
        for &t in &[3u16, 7, 11, 15] {
            last = model.forward(&[t], &mut cache);
        }
        assert!(last.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(cache.len(0), 4);
    }
}
