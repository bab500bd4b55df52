//! KV-cache abstraction.
//!
//! The model writes each layer's keys and values through the [`KvStore`]
//! trait, so cache precision is swappable exactly like linear-layer
//! precision: the FP32 store here is the baseline, and the `atom` crate
//! provides the paper's asymmetric low-bit quantized store (§4.4), which
//! dequantizes on load.

use atom_tensor::Matrix;

/// Per-layer append-only key/value storage used during autoregressive
/// decoding.
///
/// Keys are stored *after* RoPE is applied, matching serving systems where
/// the cache holds position-encoded keys.
///
/// A batched forward holds one store per sequence and calls it on the
/// caller thread: `append` the sequence's new rows, then `keys` / `values`
/// for its attention. `Send` is a supertrait so boxed caches can move
/// between threads with the engine that owns them; `Sync` so frozen
/// prefix-cache snapshots (`Arc<Snapshot>` in `atom-prefix`) can be shared
/// immutably.
pub trait KvStore: std::fmt::Debug + Send + Sync {
    /// Appends `k` and `v` rows (one per new token) to layer `layer`.
    ///
    /// Both matrices are `new_tokens x kv_dim`.
    fn append(&mut self, layer: usize, k: &Matrix, v: &Matrix);

    /// Materializes the full key cache of a layer (`seq_len x kv_dim`).
    fn keys(&self, layer: usize) -> Matrix;

    /// Materializes the full value cache of a layer (`seq_len x kv_dim`).
    fn values(&self, layer: usize) -> Matrix;

    /// Number of cached positions in a layer.
    fn len(&self, layer: usize) -> usize;

    /// Whether the layer cache is empty.
    fn is_empty(&self, layer: usize) -> bool {
        self.len(layer) == 0
    }

    /// Clears all layers.
    fn clear(&mut self);

    /// Deep-copies the cache behind a fresh box.
    ///
    /// The prefix cache snapshots per-request KV state through this hook:
    /// a snapshot must be bit-identical to the original (same codes, same
    /// scales for quantized stores), so later replays decode the exact
    /// rows the donor request produced.
    fn clone_box(&self) -> Box<dyn KvStore>;

    /// Drops every cached position beyond the first `tokens` in *all*
    /// layers. A no-op when the cache already holds `tokens` or fewer.
    ///
    /// Because both stores in this workspace quantize/record per token row,
    /// truncating to `n` rows is bit-identical to having only ever appended
    /// those first `n` rows — the property the radix prefix cache relies on
    /// when it replays a snapshot cut at a block boundary, and the serving
    /// engine when it rolls back the rows a panicked batched forward had
    /// already appended.
    fn truncate(&mut self, tokens: usize);
}

/// Full-precision KV cache (the FP16-serving baseline; values are kept in
/// f32 here since f32→f16 rounding of the *cache* is exercised separately by
/// the quantized store).
#[derive(Debug, Clone)]
pub struct Fp32KvCache {
    layers: Vec<(Matrix, Matrix)>,
    kv_dim: usize,
}

impl Fp32KvCache {
    /// Creates an empty cache for `layers` layers of width `kv_dim`.
    pub fn new(layers: usize, kv_dim: usize) -> Self {
        Fp32KvCache {
            layers: (0..layers)
                .map(|_| (Matrix::zeros(0, kv_dim), Matrix::zeros(0, kv_dim)))
                .collect(),
            kv_dim,
        }
    }

    /// KV width the cache was created with.
    pub fn kv_dim(&self) -> usize {
        self.kv_dim
    }
}

impl KvStore for Fp32KvCache {
    fn append(&mut self, layer: usize, k: &Matrix, v: &Matrix) {
        assert_eq!(k.cols(), self.kv_dim, "k width mismatch");
        assert_eq!(v.cols(), self.kv_dim, "v width mismatch");
        assert_eq!(k.rows(), v.rows(), "k/v row mismatch");
        let (ks, vs) = &mut self.layers[layer];
        *ks = ks.vstack(k);
        *vs = vs.vstack(v);
    }

    fn keys(&self, layer: usize) -> Matrix {
        self.layers[layer].0.clone()
    }

    fn values(&self, layer: usize) -> Matrix {
        self.layers[layer].1.clone()
    }

    fn len(&self, layer: usize) -> usize {
        self.layers[layer].0.rows()
    }

    fn clear(&mut self) {
        for (k, v) in &mut self.layers {
            *k = Matrix::zeros(0, self.kv_dim);
            *v = Matrix::zeros(0, self.kv_dim);
        }
    }

    fn clone_box(&self) -> Box<dyn KvStore> {
        Box::new(self.clone())
    }

    fn truncate(&mut self, tokens: usize) {
        let top_rows = |m: &Matrix, n: usize| {
            let mut out = Matrix::zeros(n, m.cols());
            for r in 0..n {
                out.row_mut(r).copy_from_slice(m.row(r));
            }
            out
        };
        for (k, v) in &mut self.layers {
            if k.rows() > tokens {
                *k = top_rows(k, tokens);
                *v = top_rows(v, tokens);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_read() {
        let mut c = Fp32KvCache::new(2, 4);
        assert!(c.is_empty(0));
        let k = Matrix::full(3, 4, 1.0);
        let v = Matrix::full(3, 4, 2.0);
        c.append(0, &k, &v);
        c.append(0, &k, &v);
        assert_eq!(c.len(0), 6);
        assert_eq!(c.len(1), 0);
        assert_eq!(c.keys(0).rows(), 6);
        assert_eq!(c.values(0)[(5, 3)], 2.0);
    }

    #[test]
    fn clear_resets() {
        let mut c = Fp32KvCache::new(1, 2);
        c.append(0, &Matrix::full(1, 2, 1.0), &Matrix::full(1, 2, 1.0));
        c.clear();
        assert!(c.is_empty(0));
    }

    #[test]
    #[should_panic(expected = "k width mismatch")]
    fn wrong_width_panics() {
        let mut c = Fp32KvCache::new(1, 4);
        c.append(0, &Matrix::full(1, 3, 0.0), &Matrix::full(1, 3, 0.0));
    }

    #[test]
    fn clone_box_then_truncate_matches_short_append() {
        let mut long = Fp32KvCache::new(2, 4);
        let mut short = Fp32KvCache::new(2, 4);
        for t in 0..5u32 {
            let k = Matrix::full(1, 4, t as f32);
            let v = Matrix::full(1, 4, -(t as f32));
            long.append(0, &k, &v);
            long.append(1, &k, &v);
            if t < 3 {
                short.append(0, &k, &v);
                short.append(1, &k, &v);
            }
        }
        let mut cut = long.clone_box();
        cut.truncate(3);
        for layer in 0..2 {
            assert_eq!(cut.len(layer), 3);
            assert_eq!(cut.keys(layer).as_slice(), short.keys(layer).as_slice());
            assert_eq!(cut.values(layer).as_slice(), short.values(layer).as_slice());
        }
        // The original is untouched by truncating the clone.
        assert_eq!(long.len(0), 5);
        // Truncating past the end is a no-op.
        cut.truncate(10);
        assert_eq!(cut.len(0), 3);
    }
}
