//! Property-based tests of the core quantization algorithms.

use atom::calibrate::ReorderPlan;
use atom::fp4::{fake_quantize_fp4, snap_fp4, FP4_GRID};
use atom::gptq::{gptq_quantize, rtn_quantize, GptqConfig};
use atom::{AnyLinear, AtomScheme, QuantizedKvCache, QuantizedLinear};
use atom_kernels::QuantSpec;
use atom_nn::{Fp32KvCache, KvStore, LinearLayer, LlamaModel, ModelConfig, SeqRows};
use atom_parallel::Pool;
use atom_tensor::{Matrix, SeededRng};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

proptest! {
    #[test]
    fn reorder_plan_is_permutation(channels in 2usize..64, n_out in 0usize..8, seed in 0u64..500) {
        let n_out = n_out.min(channels);
        let mut rng = SeededRng::new(seed);
        let outliers = rng.sample_indices(channels, n_out);
        let plan = ReorderPlan::from_outlier_set(channels, &outliers);
        let mut seen = plan.perm().to_vec();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..channels).collect::<Vec<_>>());
        prop_assert_eq!(plan.n_outliers(), n_out);
        // The trailing positions carry exactly the outlier set (in order).
        prop_assert_eq!(&plan.perm()[channels - n_out..], &outliers[..]);
    }

    #[test]
    fn reorder_preserves_matmul(seed in 0u64..300, k in 4usize..24, n_out in 0usize..4) {
        let n_out = n_out.min(k / 2);
        let mut rng = SeededRng::new(seed);
        let outliers = rng.sample_indices(k, n_out);
        let plan = ReorderPlan::from_outlier_set(k, &outliers);
        let x = rng.normal_matrix(3, k, 0.0, 1.0);
        let w = rng.normal_matrix(5, k, 0.0, 1.0);
        let before = x.matmul_nt(&w);
        let after = plan.reorder_activation(&x).matmul_nt(&plan.reorder_weight(&w));
        for (a, b) in before.as_slice().iter().zip(after.as_slice()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn inverse_perm_roundtrips(channels in 2usize..32, seed in 0u64..200) {
        let mut rng = SeededRng::new(seed);
        let n_out = rng.below(channels / 2 + 1);
        let outliers = rng.sample_indices(channels, n_out);
        let plan = ReorderPlan::from_outlier_set(channels, &outliers);
        let x = rng.normal_matrix(2, channels, 0.0, 1.0);
        let round = plan.reorder_activation(&x).permute_cols(&plan.inverse());
        prop_assert_eq!(round, x);
    }

    #[test]
    fn gptq_identity_gram_equals_rtn(seed in 0u64..200, n in 1usize..8, k in 4usize..32) {
        let mut rng = SeededRng::new(seed);
        let w = rng.normal_matrix(n, k, 0.0, 1.0);
        let cfg = GptqConfig::uniform(QuantSpec::new(4, 8));
        let g = gptq_quantize(&w, None, &cfg).dequantize();
        let r = rtn_quantize(&w, &cfg).dequantize();
        for (a, b) in g.as_slice().iter().zip(r.as_slice()) {
            prop_assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn gptq_quantized_values_on_grid(seed in 0u64..100) {
        // Every dequantized weight must be an integer multiple of its
        // group's scale.
        let mut rng = SeededRng::new(seed);
        let w = rng.normal_matrix(4, 16, 0.0, 1.0);
        let x = rng.normal_matrix(64, 16, 0.0, 1.0);
        let mut gram = vec![0.0f64; 16 * 16];
        for r in 0..x.rows() {
            let row = x.row(r);
            for i in 0..16 {
                for j in 0..16 {
                    gram[i * 16 + j] += row[i] as f64 * row[j] as f64;
                }
            }
        }
        let cfg = GptqConfig::uniform(QuantSpec::new(4, 8));
        let q = gptq_quantize(&w, Some(&gram), &cfg);
        let d = q.normal.dequantize();
        for r in 0..4 {
            for c in 0..16 {
                let s = q.normal.scales()[(r, c / 8)];
                let ratio = d[(r, c)] / s;
                prop_assert!((ratio - ratio.round()).abs() < 1e-3, "off grid: {ratio}");
                prop_assert!((-8.0..=7.0).contains(&ratio.round()));
            }
        }
    }

    #[test]
    fn fp4_snap_is_idempotent_and_nearest(v in -20.0f32..20.0) {
        let s = snap_fp4(v);
        prop_assert_eq!(snap_fp4(s), s);
        // s must be the nearest grid point (ties allowed either way).
        let best = FP4_GRID
            .iter()
            .map(|&g| (v.abs() - g).abs())
            .fold(f32::INFINITY, f32::min);
        prop_assert!(((v.abs() - s.abs()).abs() - best).abs() < 1e-6);
        prop_assert_eq!(s < 0.0, v < 0.0 && s != 0.0);
    }

    #[test]
    fn fp4_group_error_bounded(seed in 0u64..200, cols in 4usize..32) {
        let mut rng = SeededRng::new(seed);
        let x = rng.normal_matrix(3, cols, 0.0, 2.0);
        let q = fake_quantize_fp4(&x, 8, 1.0);
        // FP4 with a per-group max-to-6 scale: the largest grid gap is 2.0
        // (between codes 4 and 6), so the worst-case error is half that gap
        // times the scale, i.e. amax * (2/2) / 6 = amax / 6.
        for r in 0..x.rows() {
            for c in 0..cols {
                let group_start = (c / 8) * 8;
                let group_end = (group_start + 8).min(cols);
                let amax = x.row(r)[group_start..group_end]
                    .iter()
                    .fold(0.0f32, |m, &v| m.max(v.abs()));
                let err = (x[(r, c)] - q[(r, c)]).abs();
                prop_assert!(err <= amax / 6.0 + amax * 2e-3 + 1e-6, "err {err} amax {amax}");
            }
        }
    }
}

/// A small model at one of the four corners the batched forward must hold
/// at: dense or MoE feed-forward, FP32 or W4A4 linears (RTN, two INT8
/// outlier channels per layer, ragged last groups).
fn batch_model(seed: u64, moe: bool, w4a4: bool) -> LlamaModel<AnyLinear> {
    let config = ModelConfig {
        dim: 32,
        layers: 2,
        heads: 4,
        kv_heads: 2,
        ffn_dim: 48,
        experts: if moe { 3 } else { 1 },
        ..ModelConfig::default()
    };
    let scheme = AtomScheme {
        use_gptq: false,
        ..AtomScheme::w4a4()
    };
    LlamaModel::random_init(config, seed).map_linears(|_, dense| {
        if w4a4 {
            let plan = ReorderPlan::from_outlier_set(dense.in_features(), &[3, 17]);
            AnyLinear::Atom(QuantizedLinear::quantize(&dense, plan, None, &scheme))
        } else {
            AnyLinear::Dense(dense)
        }
    })
}

fn logit_bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    /// The batched forward is the per-sequence forward, bit for bit: over a
    /// ragged mix of prefills and single decode rows behind histories of
    /// any length, logits row `i` is the last row of sequence `i`'s own
    /// forward, and every cache ends holding the same keys and values —
    /// the only witness for the rows the batch runs but does not return —
    /// over FP32 and 4-bit quantized KV, dense and MoE, FP32 and W4A4
    /// linears. The batch runs on a width-2 pool under a stress seed drawn
    /// per case.
    #[test]
    fn forward_batch_rows_equal_per_sequence_forwards(
        seed in 0u64..1 << 32,
        corner in 0usize..8,
        seqs in proptest::collection::vec((0usize..6, 1usize..5, 0usize..2), 1..6),
        stress in 0u64..1 << 32,
    ) {
        let (moe, w4a4, kv4) = (corner & 1 == 1, corner & 2 == 2, corner & 4 == 4);
        let model = batch_model(seed, moe, w4a4);
        let c = *model.config();
        let fresh = || -> Box<dyn KvStore> {
            if kv4 {
                Box::new(QuantizedKvCache::new(c.layers, c.kv_dim(), c.head_dim(), 4))
            } else {
                Box::new(Fp32KvCache::new(c.layers, c.kv_dim()))
            }
        };
        let mut rng = SeededRng::new(seed ^ 0xBA7C);
        let mut tokens = |n: usize| -> Vec<u16> { (0..n).map(|_| rng.below(c.vocab) as u16).collect() };
        // (history, new rows): a decode runs one row, a prefill several.
        let work: Vec<(Vec<u16>, Vec<u16>)> = seqs
            .iter()
            .map(|&(history, rows, decode)| (tokens(history), tokens(if decode == 1 { 1 } else { rows })))
            .collect();
        let mut batched: Vec<Box<dyn KvStore>> = Vec::new();
        let mut alone: Vec<Box<dyn KvStore>> = Vec::new();
        for (history, _) in &work {
            let (mut a, mut b) = (fresh(), fresh());
            if !history.is_empty() {
                model.forward(history, a.as_mut());
                model.forward(history, b.as_mut());
            }
            batched.push(a);
            alone.push(b);
        }

        let mut batch: Vec<SeqRows<'_>> = work
            .iter()
            .zip(batched.iter_mut())
            .map(|((_, rows), kv)| SeqRows { tokens: rows, kv: kv.as_mut() })
            .collect();
        let stacked = Pool::new(2).with_stress(stress).install(|| model.forward_batch(&mut batch));
        drop(batch);
        let mut expected = Vec::new();
        for ((_, rows), kv) in work.iter().zip(alone.iter_mut()) {
            let logits = Pool::sequential().install(|| model.forward(rows, kv.as_mut()));
            expected.extend(logit_bits(&logits.slice_rows(rows.len() - 1, rows.len())));
        }
        prop_assert_eq!(logit_bits(&stacked), expected);
        for (a, b) in batched.iter().zip(&alone) {
            for layer in 0..c.layers {
                prop_assert_eq!(logit_bits(&a.keys(layer)), logit_bits(&b.keys(layer)));
                prop_assert_eq!(logit_bits(&a.values(layer)), logit_bits(&b.values(layer)));
            }
        }
    }
}

proptest! {
    /// Chunked prefill is one-shot prefill, bit for bit: feeding a prompt
    /// in chunks of arbitrary sizes, one forward each, leaves the same
    /// last-row logits and the same keys and values in every layer as one
    /// forward over the whole prompt — over FP32 and 4-bit KV, FP32 and
    /// W4A4 linears. The chunks run on a width-2 pool under a stress seed
    /// drawn per case.
    #[test]
    fn chunked_prefill_equals_one_shot_prefill(
        seed in 0u64..1 << 32,
        corner in 0usize..4,
        len in 1usize..120,
        chunks in proptest::collection::vec(1usize..50, 1..8),
        stress in 0u64..1 << 32,
    ) {
        let (w4a4, kv4) = (corner & 1 == 1, corner & 2 == 2);
        let model = batch_model(seed, false, w4a4);
        let c = *model.config();
        let fresh = || -> Box<dyn KvStore> {
            if kv4 {
                Box::new(QuantizedKvCache::new(c.layers, c.kv_dim(), c.head_dim(), 4))
            } else {
                Box::new(Fp32KvCache::new(c.layers, c.kv_dim()))
            }
        };
        let mut rng = SeededRng::new(seed ^ 0xC4A2);
        let prompt: Vec<u16> = (0..len).map(|_| rng.below(c.vocab) as u16).collect();
        let mut whole = fresh();
        let expected = Pool::sequential().install(|| model.forward(&prompt, whole.as_mut()));

        // The drawn sizes in turn, then the rest of the prompt at once.
        let mut chunked = fresh();
        let mut fed = 0;
        let mut last = Matrix::zeros(0, 0);
        for size in chunks.iter().copied().chain([len]) {
            let end = (fed + size).min(len);
            if end == fed {
                break;
            }
            let mut batch = [SeqRows { tokens: &prompt[fed..end], kv: chunked.as_mut() }];
            last = Pool::new(2).with_stress(stress).install(|| model.forward_batch(&mut batch));
            fed = end;
        }
        let last_row = |m: &Matrix| m.row(m.rows() - 1).iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        prop_assert_eq!(last_row(&last), last_row(&expected));
        for layer in 0..c.layers {
            prop_assert_eq!(logit_bits(&chunked.keys(layer)), logit_bits(&whole.keys(layer)));
            prop_assert_eq!(logit_bits(&chunked.values(layer)), logit_bits(&whole.values(layer)));
        }
    }
}

/// A store whose `attend` is the trait's default body: every other method
/// forwards to `0`, so `attend` runs the reference arithmetic over `0`'s
/// materialised `keys` / `values`.
#[derive(Debug)]
struct DefaultAttend(Box<dyn KvStore>);

impl KvStore for DefaultAttend {
    fn append(&mut self, layer: usize, k: &Matrix, v: &Matrix) {
        self.0.append(layer, k, v);
    }
    fn keys(&self, layer: usize) -> Matrix {
        self.0.keys(layer)
    }
    fn values(&self, layer: usize) -> Matrix {
        self.0.values(layer)
    }
    fn len(&self, layer: usize) -> usize {
        self.0.len(layer)
    }
    fn clear(&mut self) {
        self.0.clear();
    }
    fn clone_box(&self) -> Box<dyn KvStore> {
        Box::new(DefaultAttend(self.0.clone_box()))
    }
    fn truncate(&mut self, tokens: usize) {
        self.0.truncate(tokens);
    }
}

/// An empty store of one of the three kinds the attention contract covers:
/// 4-bit and 8-bit quantized, and FP32.
fn store(kind: usize, layers: usize, kv_dim: usize, hd: usize) -> Box<dyn KvStore> {
    match kind {
        0 => Box::new(QuantizedKvCache::new(layers, kv_dim, hd, 4)),
        1 => Box::new(QuantizedKvCache::new(layers, kv_dim, hd, 8)),
        _ => Box::new(Fp32KvCache::new(layers, kv_dim)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Each store's `attend` override is the trait's default body, bit for
    /// bit: over INT4, INT8 and FP32 stores, head widths 16 / 32 / 64,
    /// 1-300 new rows behind 0-350 cached ones, GQA groups of 1, 2 and 4,
    /// on both KV heads of the layer. Query scales up to 8 push some
    /// probabilities to exactly 0, the weights the value mix skips. The
    /// override runs on a width-2 pool under a stress seed drawn per case.
    #[test]
    fn attend_overrides_equal_the_default_body_bit_for_bit(
        seed in 0u64..1 << 32,
        kind in 0usize..3,
        hd_pick in 0usize..3,
        group_pick in 0usize..3,
        cached in 0usize..351,
        new_rows in 1usize..301,
        q_scale in 0.5f32..8.0,
        stress in 0u64..1 << 32,
    ) {
        let (hd, group) = ([16, 32, 64][hd_pick], [1, 2, 4][group_pick]);
        let kv_dim = 2 * hd;
        let mut rng = SeededRng::new(seed);
        let mut kv = store(kind, 2, kv_dim, hd);
        for rows in [cached, new_rows] {
            if rows > 0 {
                let k = rng.normal_matrix(rows, kv_dim, 0.0, 1.0);
                kv.append(1, &k, &rng.normal_matrix(rows, kv_dim, 0.5, 2.0));
            }
        }
        let oracle = DefaultAttend(kv.clone_box());
        let scale = 1.0 / (hd as f32).sqrt();
        for kv_head in 0..2 {
            let q = rng.normal_matrix(group * new_rows, hd, 0.0, q_scale);
            let expected = oracle.attend(1, kv_head, &q, new_rows, scale);
            let got = Pool::new(2)
                .with_stress(stress)
                .install(|| kv.attend(1, kv_head, &q, new_rows, scale));
            prop_assert_eq!(logit_bits(&got), logit_bits(&expected));
        }
    }
}

/// A store that forwards everything, `attend` included, to `inner` and
/// counts the `keys` / `values` calls.
#[derive(Debug)]
struct CountingLoads {
    inner: Box<dyn KvStore>,
    loads: Arc<AtomicUsize>,
}

impl KvStore for CountingLoads {
    fn append(&mut self, layer: usize, k: &Matrix, v: &Matrix) {
        self.inner.append(layer, k, v);
    }
    fn keys(&self, layer: usize) -> Matrix {
        self.loads.fetch_add(1, Ordering::Relaxed);
        self.inner.keys(layer)
    }
    fn values(&self, layer: usize) -> Matrix {
        self.loads.fetch_add(1, Ordering::Relaxed);
        self.inner.values(layer)
    }
    fn attend(
        &self,
        layer: usize,
        kv_head: usize,
        q: &Matrix,
        new_rows: usize,
        scale: f32,
    ) -> Matrix {
        self.inner.attend(layer, kv_head, q, new_rows, scale)
    }
    fn layer_bytes(&self, layer: usize) -> Option<usize> {
        self.inner.layer_bytes(layer)
    }
    fn len(&self, layer: usize) -> usize {
        self.inner.len(layer)
    }
    fn clear(&mut self) {
        self.inner.clear();
    }
    fn clone_box(&self) -> Box<dyn KvStore> {
        Box::new(CountingLoads {
            inner: self.inner.clone_box(),
            loads: Arc::clone(&self.loads),
        })
    }
    fn truncate(&mut self, tokens: usize) {
        self.inner.truncate(tokens);
    }
}

#[test]
fn forward_batch_attends_without_materialising_a_layer() {
    // A GQA model over each store kind: a batched prefill, then batched
    // decodes. The forward attends through `KvStore::attend` alone and
    // never calls `keys` / `values`.
    let model = batch_model(7, false, true);
    let c = *model.config();
    for kind in 0..3 {
        let loads = Arc::new(AtomicUsize::new(0));
        let mut kvs: Vec<CountingLoads> = (0..2)
            .map(|_| CountingLoads {
                inner: store(kind, c.layers, c.kv_dim(), c.head_dim()),
                loads: Arc::clone(&loads),
            })
            .collect();
        let [a, b] = &mut kvs[..] else {
            unreachable!("two stores")
        };
        model.forward_batch(&mut [
            SeqRows {
                tokens: &[3, 1, 4, 1, 5],
                kv: a,
            },
            SeqRows {
                tokens: &[9, 2, 6],
                kv: b,
            },
        ]);
        for t in [5u16, 3] {
            model.forward_batch(&mut [
                SeqRows {
                    tokens: &[t],
                    kv: a,
                },
                SeqRows {
                    tokens: &[t + 1],
                    kv: b,
                },
            ]);
        }
        assert_eq!(a.len(0), 7);
        assert_eq!(
            loads.load(Ordering::Relaxed),
            0,
            "store kind {kind} was materialised"
        );
    }
}
