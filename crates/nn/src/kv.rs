//! KV-cache abstraction.
//!
//! The model writes each layer's keys and values through the [`KvStore`]
//! trait and attends to them through it, so cache precision is swappable
//! exactly like linear-layer precision: the FP32 store here is the
//! baseline, and the `atom` crate provides the paper's asymmetric low-bit
//! quantized store (§4.4), which decodes one head's rows inside its
//! attention (§4.5) and never materialises a layer.

use atom_tensor::{ops, Matrix};

/// Per-layer append-only key/value storage used during autoregressive
/// decoding.
///
/// Keys are stored *after* RoPE is applied, matching serving systems where
/// the cache holds position-encoded keys.
///
/// A batched forward holds one store per sequence. On the caller thread it
/// `append`s the sequence's new rows; then every (sequence, KV head) cell
/// of the layer's attention grid calls [`attend`](KvStore::attend), on
/// whichever pool thread runs the cell. `Send` is a supertrait so boxed
/// caches can move between threads with the engine that owns them; `Sync`
/// so the grid's cells can share a store, and frozen prefix-cache snapshots
/// (`Arc<Snapshot>` in `atom-prefix`) can be shared immutably.
pub trait KvStore: std::fmt::Debug + Send + Sync {
    /// Appends `k` and `v` rows (one per new token) to layer `layer`.
    ///
    /// Both matrices are `new_tokens x kv_dim`.
    fn append(&mut self, layer: usize, k: &Matrix, v: &Matrix);

    /// Materializes the full key cache of a layer (`seq_len x kv_dim`).
    ///
    /// The forward never calls it: it is the default
    /// [`attend`](Self::attend)'s input, and a test's window on the store.
    fn keys(&self, layer: usize) -> Matrix;

    /// Materializes the full value cache of a layer (`seq_len x kv_dim`).
    fn values(&self, layer: usize) -> Matrix;

    /// Causal attention of query rows over KV head `kv_head` of `layer`.
    ///
    /// `q` stacks the query heads that share `kv_head`, head-major, with
    /// `new_rows` rows per head: row `r` is the query at position
    /// `len - new_rows + r % new_rows`, so the last `new_rows` cached
    /// positions are the queries' own. Under grouped-query attention each
    /// KV row is therefore read once per group, not once per query head.
    /// Returns one `head_dim`-wide output row per query row.
    ///
    /// The default body is the reference arithmetic over the materialised
    /// [`keys`](Self::keys) / [`values`](Self::values), one head block at a
    /// time: `slice_cols`, `matmul_nt`, `scale_in_place`,
    /// [`ops::causal_mask_in_place`], [`ops::softmax_rows`], `matmul`.
    /// Overrides must return the same bits; both stores here do, through
    /// [`ops::causal_attention`].
    ///
    /// # Panics
    ///
    /// Panics if `kv_head`'s columns lie outside the layer, or if `q` does
    /// not stack whole heads of `new_rows` rows over at least as many
    /// cached positions.
    fn attend(
        &self,
        layer: usize,
        kv_head: usize,
        q: &Matrix,
        new_rows: usize,
        scale: f32,
    ) -> Matrix {
        let (keys, values) = (self.keys(layer), self.values(layer));
        let hd = q.cols();
        assert!(new_rows <= keys.rows(), "queries exceed cached tokens");
        assert!(
            q.rows().is_multiple_of(new_rows),
            "query rows must stack whole heads of new rows"
        );
        let cols = (kv_head * hd, (kv_head + 1) * hd);
        let (k, v) = (
            keys.slice_cols(cols.0, cols.1),
            values.slice_cols(cols.0, cols.1),
        );
        let mut out = Matrix::zeros(q.rows(), hd);
        for head in 0..q.rows().checked_div(new_rows).unwrap_or(0) {
            let rows = head * new_rows..(head + 1) * new_rows;
            let mut scores = q.slice_rows(rows.start, rows.end).matmul_nt(&k);
            scores.scale_in_place(scale);
            ops::causal_mask_in_place(&mut scores, keys.rows() - new_rows);
            let mixed = ops::softmax_rows(&scores).matmul(&v);
            for (r, row) in rows.zip(mixed.iter_rows()) {
                out.row_mut(r).copy_from_slice(row);
            }
        }
        out
    }

    /// Bytes of `layer`'s K/V as the store packs them: what attending to
    /// every KV head of the layer reads. `None`, the default, means dense
    /// FP32 rows, `4 · 2 · len · kv_dim` bytes.
    fn layer_bytes(&self, _layer: usize) -> Option<usize> {
        None
    }

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
        ks.extend_rows(k);
        vs.extend_rows(v);
    }

    fn keys(&self, layer: usize) -> Matrix {
        self.layers[layer].0.clone()
    }

    fn values(&self, layer: usize) -> Matrix {
        self.layers[layer].1.clone()
    }

    /// Copies the head's key columns out transposed and its value columns
    /// out as rows, then runs [`ops::causal_attention`]: the layer itself
    /// is never cloned.
    fn attend(
        &self,
        layer: usize,
        kv_head: usize,
        q: &Matrix,
        new_rows: usize,
        scale: f32,
    ) -> Matrix {
        let (ks, vs) = &self.layers[layer];
        let cols = (kv_head * q.cols(), (kv_head + 1) * q.cols());
        let keys_t = ks.slice_cols(cols.0, cols.1).transpose();
        ops::causal_attention(q, &keys_t, &vs.slice_cols(cols.0, cols.1), new_rows, scale)
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
        for (k, v) in &mut self.layers {
            k.truncate_rows(tokens);
            v.truncate_rows(tokens);
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
    fn row_appends_and_truncate_grow_in_place_bit_for_bit() {
        // N single-row appends hold the bits of one N-row append, and
        // truncating to n rows holds the bits of never having appended the
        // rest — and appending them again restores the long history.
        let mut rng = atom_tensor::SeededRng::new(7);
        let (k, v) = (
            rng.normal_matrix(9, 6, 0.0, 1.0),
            rng.normal_matrix(9, 6, 0.5, 2.0),
        );
        let bits = |m: Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let same = |a: &Fp32KvCache, b: &Fp32KvCache| {
            assert_eq!(a.len(1), b.len(1));
            assert_eq!(bits(a.keys(1)), bits(b.keys(1)));
            assert_eq!(bits(a.values(1)), bits(b.values(1)));
        };
        let mut once = Fp32KvCache::new(2, 6);
        once.append(1, &k, &v);
        let mut rows = Fp32KvCache::new(2, 6);
        for t in 0..9 {
            rows.append(1, &k.slice_rows(t, t + 1), &v.slice_rows(t, t + 1));
        }
        same(&rows, &once);
        let mut short = Fp32KvCache::new(2, 6);
        short.append(1, &k.slice_rows(0, 4), &v.slice_rows(0, 4));
        rows.truncate(4);
        same(&rows, &short);
        rows.append(1, &k.slice_rows(4, 9), &v.slice_rows(4, 9));
        same(&rows, &once);
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
