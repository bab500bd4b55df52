//! Outlier-channel injection via function-preserving equivalence transforms.
//!
//! Real LLMs exhibit a handful of activation channels whose magnitudes are
//! orders larger than the rest (paper Fig. 5); this phenomenon is the
//! central difficulty Atom's mixed-precision design addresses. Models as
//! small as this reproduction's zoo do not develop such outliers on their
//! own, so we *create* them with the exact inverse of SmoothQuant's
//! smoothing transform: pick channels, multiply them by a large factor at
//! the point where the activation is produced, and divide the consuming
//! weight columns by the same factor. The FP32 model computes the identical
//! function (up to float rounding); only its *intermediate activations* gain
//! heavy-tailed channels — precisely the property quantization error cares
//! about.
//!
//! Injection sites:
//!
//! 1. **Attention input** — scale `attn_norm` gains, divide columns of
//!    `wq`/`wk`/`wv`.
//! 2. **FFN input** — scale `ffn_norm` gains, divide columns of
//!    `gate`/`up` (every expert) and the MoE router.
//! 3. **MLP hidden** — scale rows of `up`, divide columns of `down`.
//! 4. **Attention output** — scale rows of `wv` (value channels), divide
//!    the matching head-expanded columns of `wo`.

use crate::linear::DenseLinear;
use crate::model::{FeedForward, LlamaModel};
use atom_tensor::cast;
use atom_tensor::SeededRng;
use serde::{Deserialize, Serialize};

/// Parameters of the outlier injection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OutlierSpec {
    /// Number of channels per injection site that become outliers.
    pub channels_per_site: usize,
    /// Median scale factor applied to outlier channels.
    pub magnitude: f32,
    /// Median scale factor for the value-channel site (site 4). Kept far
    /// smaller than `magnitude`: the paper's Fig. 9 observes that the V
    /// cache exhibits the outlier phenomenon much less than activations,
    /// and that mildness is what makes the KV-cache quantizable (§4.4).
    pub value_magnitude: f32,
    /// Log-normal spread of the per-channel factors (0 = all identical).
    pub spread: f64,
    /// RNG seed selecting channels and factors.
    pub seed: u64,
}

impl Default for OutlierSpec {
    fn default() -> Self {
        OutlierSpec {
            channels_per_site: 4,
            magnitude: 40.0,
            value_magnitude: 4.0,
            spread: 0.35,
            seed: 0,
        }
    }
}

/// Applies the outlier-injection transform in place.
///
/// The transformed model computes the same function as the original up to
/// floating-point rounding; its hidden activations gain
/// `spec.channels_per_site` outlier channels at each injection site.
///
/// # Panics
///
/// Panics if `channels_per_site` exceeds any injected dimension.
pub fn inject_outliers(model: &mut LlamaModel<DenseLinear>, spec: &OutlierSpec) {
    let config = *model.config();
    let dim = config.dim;
    assert!(
        spec.channels_per_site <= dim && spec.channels_per_site <= config.ffn_dim,
        "channels_per_site {} exceeds model dims",
        spec.channels_per_site
    );
    let mut rng = SeededRng::new(spec.seed ^ 0x0071_1E85);

    let draw_factors = |rng: &mut SeededRng, n: usize, max: usize, magnitude: f32| {
        let idx = rng.sample_indices(max, n);
        let factors: Vec<f32> = (0..n)
            .map(|_| {
                let f = cast::f64_to_f32(rng.lognormal_f64((magnitude as f64).ln(), spec.spread));
                f.max(2.0)
            })
            .collect();
        (idx, factors)
    };

    for block in &mut model.blocks {
        // Site 1: attention input channels.
        let (idx, factors) = draw_factors(&mut rng, spec.channels_per_site, dim, spec.magnitude);
        for (&c, &f) in idx.iter().zip(&factors) {
            block.attn_norm[c] *= f;
            for w in [&mut block.attn.wq, &mut block.attn.wk, &mut block.attn.wv] {
                scale_col(w, c, 1.0 / f);
            }
        }

        // Site 4: attention output (value channels -> wo columns).
        let kv_dim = config.kv_dim();
        let (idx, factors) = draw_factors(
            &mut rng,
            spec.channels_per_site.min(kv_dim),
            kv_dim,
            spec.value_magnitude,
        );
        let hd = config.head_dim();
        let group = config.group_size();
        for (&c, &f) in idx.iter().zip(&factors) {
            scale_row(&mut block.attn.wv, c, f);
            // Value channel c of kv head (c / hd) feeds concat column
            // q_head * hd + (c % hd) for every q head in the group.
            let kv_head = c / hd;
            let within = c % hd;
            for g in 0..group {
                let q_head = kv_head * group + g;
                scale_col(&mut block.attn.wo, q_head * hd + within, 1.0 / f);
            }
        }

        // Sites 2 and 3: FFN input and MLP hidden channels.
        let (in_idx, in_factors) =
            draw_factors(&mut rng, spec.channels_per_site, dim, spec.magnitude);
        let (hid_idx, hid_factors) =
            draw_factors(&mut rng, spec.channels_per_site, config.ffn_dim, spec.magnitude);
        for (&c, &f) in in_idx.iter().zip(&in_factors) {
            block.ffn_norm[c] *= f;
        }
        match &mut block.ffn {
            FeedForward::Dense(mlp) => {
                for (&c, &f) in in_idx.iter().zip(&in_factors) {
                    scale_col(&mut mlp.gate, c, 1.0 / f);
                    scale_col(&mut mlp.up, c, 1.0 / f);
                }
                for (&c, &f) in hid_idx.iter().zip(&hid_factors) {
                    scale_row(&mut mlp.up, c, f);
                    scale_col(&mut mlp.down, c, 1.0 / f);
                }
            }
            FeedForward::Moe { router, experts } => {
                for (&c, &f) in in_idx.iter().zip(&in_factors) {
                    scale_col(router, c, 1.0 / f);
                }
                for mlp in experts {
                    for (&c, &f) in in_idx.iter().zip(&in_factors) {
                        scale_col(&mut mlp.gate, c, 1.0 / f);
                        scale_col(&mut mlp.up, c, 1.0 / f);
                    }
                    for (&c, &f) in hid_idx.iter().zip(&hid_factors) {
                        scale_row(&mut mlp.up, c, f);
                        scale_col(&mut mlp.down, c, 1.0 / f);
                    }
                }
            }
        }
    }
}

fn scale_col(layer: &mut DenseLinear, col: usize, s: f32) {
    let w = layer.weight_mut();
    for r in 0..w.rows() {
        w[(r, col)] *= s;
    }
}

fn scale_row(layer: &mut DenseLinear, row: usize, s: f32) {
    let w = layer.weight_mut();
    for v in w.row_mut(row) {
        *v *= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::kv::Fp32KvCache;
    use crate::model::{ForwardObserver, LinearId, LlamaModel};
    use atom_tensor::stats::ChannelStats;
    use atom_tensor::Matrix;
    use std::collections::BTreeMap;

    fn tiny_config() -> ModelConfig {
        ModelConfig {
            dim: 32,
            layers: 2,
            heads: 4,
            kv_heads: 4,
            ffn_dim: 64,
            ..ModelConfig::default()
        }
    }

    fn forward_logits(m: &LlamaModel<DenseLinear>, tokens: &[u16]) -> Matrix {
        let c = m.config();
        let mut cache = Fp32KvCache::new(c.layers, c.kv_dim());
        m.forward(tokens, &mut cache)
    }

    #[test]
    fn transform_preserves_function() {
        let mut m = LlamaModel::random_init(tiny_config(), 1);
        let tokens = [3u16, 14, 15, 92, 65, 35];
        let before = forward_logits(&m, &tokens);
        inject_outliers(&mut m, &OutlierSpec::default());
        let after = forward_logits(&m, &tokens);
        let mut max_rel = 0.0f32;
        for (a, b) in before.as_slice().iter().zip(after.as_slice()) {
            let rel = (a - b).abs() / (a.abs().max(1.0));
            max_rel = max_rel.max(rel);
        }
        assert!(max_rel < 5e-3, "transform changed outputs: {max_rel}");
    }

    #[test]
    fn transform_preserves_function_gqa_and_moe() {
        for config in [
            ModelConfig {
                heads: 4,
                kv_heads: 2,
                ..tiny_config()
            },
            ModelConfig {
                experts: 3,
                ..tiny_config()
            },
        ] {
            let mut m = LlamaModel::random_init(config, 2);
            let tokens = [1u16, 2, 3, 4];
            let before = forward_logits(&m, &tokens);
            inject_outliers(&mut m, &OutlierSpec::default());
            let after = forward_logits(&m, &tokens);
            for (a, b) in before.as_slice().iter().zip(after.as_slice()) {
                assert!(
                    (a - b).abs() / a.abs().max(1.0) < 5e-3,
                    "{config:?}: {a} vs {b}"
                );
            }
        }
    }

    /// Collects activation stats of every linear input.
    #[derive(Default)]
    struct StatObserver(BTreeMap<LinearId, ChannelStats>);
    impl ForwardObserver for StatObserver {
        fn observe(&mut self, id: LinearId, input: &Matrix) {
            self.0
                .entry(id)
                .or_insert_with(|| ChannelStats::new(input.cols()))
                .update(input);
        }
    }

    #[test]
    fn transform_creates_activation_outliers() {
        let config = tiny_config();
        let mut m = LlamaModel::random_init(config, 3);
        let tokens: Vec<u16> = (0..48).map(|i| (i * 7 % 96) as u16).collect();

        let ratio_of = |m: &LlamaModel<DenseLinear>| {
            let mut obs = StatObserver::default();
            let mut cache = Fp32KvCache::new(config.layers, config.kv_dim());
            m.forward_observed(&tokens, &mut cache, &mut obs);
            // Average outlier ratio over the Q projections (attention inputs).
            let mut total = 0.0;
            let mut n = 0;
            for (id, stats) in &obs.0 {
                if id.proj == crate::model::Proj::Q {
                    total += stats.outlier_ratio();
                    n += 1;
                }
            }
            total / n as f64
        };

        let before = ratio_of(&m);
        inject_outliers(&mut m, &OutlierSpec::default());
        let after = ratio_of(&m);
        assert!(
            after > before * 5.0,
            "outlier ratio did not grow: {before} -> {after}"
        );
        assert!(after > 10.0, "absolute outlier ratio too small: {after}");
    }

    #[test]
    fn injection_is_deterministic() {
        let mut a = LlamaModel::random_init(tiny_config(), 4);
        let mut b = LlamaModel::random_init(tiny_config(), 4);
        inject_outliers(&mut a, &OutlierSpec::default());
        inject_outliers(&mut b, &OutlierSpec::default());
        assert_eq!(
            a.blocks[0].attn.wq.weight().as_slice(),
            b.blocks[0].attn.wq.weight().as_slice()
        );
    }
}
