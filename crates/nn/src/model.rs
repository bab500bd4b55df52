//! Llama-family decoder, generic over linear-layer precision.
//!
//! The same model code runs the FP32 reference and Atom's quantized variant:
//! `LlamaModel<DenseLinear>` is the baseline, and the `atom` crate
//! instantiates `LlamaModel<QuantizedLinear>` after calibration. Forward
//! hooks ([`ForwardObserver`]) expose every linear layer's input activations,
//! which is how calibration collects the channel statistics used for outlier
//! identification and reordering (paper §4.1, §5.1).

use crate::config::ModelConfig;
use crate::kv::KvStore;
use crate::linear::{DenseLinear, LinearLayer};
use atom_parallel::Pool;
use atom_telemetry::{names, span, Telemetry};
use atom_tensor::cast;
use atom_tensor::{ops, Matrix, SeededRng};
use serde::{Deserialize, Serialize};

/// Which projection a linear layer implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Proj {
    /// Query projection.
    Q,
    /// Key projection.
    K,
    /// Value projection.
    V,
    /// Attention output projection.
    O,
    /// SwiGLU gate projection.
    Gate,
    /// SwiGLU up projection.
    Up,
    /// SwiGLU down projection.
    Down,
    /// MoE router.
    Router,
}

impl Proj {
    /// All projections in forward order.
    pub fn all() -> [Proj; 8] {
        [
            Proj::Q,
            Proj::K,
            Proj::V,
            Proj::O,
            Proj::Gate,
            Proj::Up,
            Proj::Down,
            Proj::Router,
        ]
    }
}

/// Stable identity of one linear layer inside a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinearId {
    /// Transformer block index.
    pub layer: usize,
    /// Projection kind.
    pub proj: Proj,
    /// Expert index for MoE FFN projections (0 for dense models and for
    /// non-FFN projections).
    pub expert: usize,
}

impl LinearId {
    /// Convenience constructor for non-MoE layers.
    pub fn new(layer: usize, proj: Proj) -> Self {
        LinearId {
            layer,
            proj,
            expert: 0,
        }
    }
}

impl std::fmt::Display for LinearId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}.{:?}", self.layer, self.proj)?;
        if self.expert != 0 {
            write!(f, ".e{}", self.expert)?;
        }
        Ok(())
    }
}

/// Hook receiving every linear layer's input activation during a forward
/// pass. Used by calibration; the default [`NoopObserver`] costs nothing.
pub trait ForwardObserver {
    /// Called with the activation matrix that is about to enter linear `id`.
    fn observe(&mut self, id: LinearId, input: &Matrix);
}

/// Observer that ignores everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl ForwardObserver for NoopObserver {
    fn observe(&mut self, _id: LinearId, _input: &Matrix) {}
}

/// Grouped-query attention block.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Attention<L> {
    /// Query projection (`dim -> dim`).
    pub wq: L,
    /// Key projection (`dim -> kv_dim`).
    pub wk: L,
    /// Value projection (`dim -> kv_dim`).
    pub wv: L,
    /// Output projection (`dim -> dim`).
    pub wo: L,
}

/// SwiGLU MLP.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp<L> {
    /// Gate projection (`dim -> ffn_dim`).
    pub gate: L,
    /// Up projection (`dim -> ffn_dim`).
    pub up: L,
    /// Down projection (`ffn_dim -> dim`).
    pub down: L,
}

impl<L: LinearLayer> Mlp<L> {
    fn forward(&self, x: &Matrix, layer: usize, expert: usize, obs: &mut dyn ForwardObserver) -> Matrix {
        let gid = LinearId {
            layer,
            proj: Proj::Gate,
            expert,
        };
        obs.observe(gid, x);
        let g = self.gate.forward(x).map(ops::silu);
        let uid = LinearId {
            layer,
            proj: Proj::Up,
            expert,
        };
        obs.observe(uid, x);
        let u = self.up.forward(x);
        let h = g.hadamard(&u);
        let did = LinearId {
            layer,
            proj: Proj::Down,
            expert,
        };
        obs.observe(did, &h);
        self.down.forward(&h)
    }
}

/// Feed-forward section: a dense SwiGLU MLP or a softly routed MoE.
///
/// The MoE uses *soft routing* (every expert runs, outputs are mixed by the
/// router softmax) in both training and inference so the quantized model
/// computes the same function it was trained as. Atom's MoE finding — shared
/// reorder indices across experts suffice (paper §6, footnote 4) — is about
/// per-expert FFN weight quantization and is fully exercised by this layout.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum FeedForward<L> {
    /// Standard dense MLP.
    Dense(Mlp<L>),
    /// Mixture of experts with a linear router.
    Moe {
        /// Router (`dim -> experts`).
        router: L,
        /// Expert MLPs.
        experts: Vec<Mlp<L>>,
    },
}

impl<L: LinearLayer> FeedForward<L> {
    fn forward(&self, x: &Matrix, layer: usize, obs: &mut dyn ForwardObserver) -> Matrix {
        match self {
            FeedForward::Dense(mlp) => mlp.forward(x, layer, 0, obs),
            FeedForward::Moe { router, experts } => {
                obs.observe(LinearId::new(layer, Proj::Router), x);
                let gates = ops::softmax_rows(&router.forward(x));
                let mut out = Matrix::zeros(x.rows(), x.cols());
                for (e, expert) in experts.iter().enumerate() {
                    let y = expert.forward(x, layer, e, obs);
                    for r in 0..x.rows() {
                        let g = gates[(r, e)];
                        let dst = out.row_mut(r);
                        for (d, s) in dst.iter_mut().zip(y.row(r)) {
                            *d += g * s;
                        }
                    }
                }
                out
            }
        }
    }
}

/// One transformer block: pre-norm attention and pre-norm feed-forward, both
/// with residual connections.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Block<L> {
    /// RMSNorm gain before attention.
    pub attn_norm: Vec<f32>,
    /// Attention projections.
    pub attn: Attention<L>,
    /// RMSNorm gain before the feed-forward.
    pub ffn_norm: Vec<f32>,
    /// Feed-forward section.
    pub ffn: FeedForward<L>,
}

/// Decoder-only Llama-style model, generic over linear precision `L`.
///
/// # Example
///
/// ```
/// use atom_nn::{config::ModelConfig, kv::Fp32KvCache, model::LlamaModel};
///
/// let config = ModelConfig { layers: 2, ..ModelConfig::default() };
/// let model = LlamaModel::random_init(config, 0);
/// let mut cache = Fp32KvCache::new(config.layers, config.kv_dim());
/// let logits = model.forward(&[1, 2, 3], &mut cache);
/// assert_eq!(logits.shape(), (3, config.vocab));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LlamaModel<L> {
    config: ModelConfig,
    /// Token embedding table (`vocab x dim`).
    pub embed: Matrix,
    /// Transformer blocks.
    pub blocks: Vec<Block<L>>,
    /// Final RMSNorm gain.
    pub final_norm: Vec<f32>,
    /// Output head weight (`vocab x dim`). Kept in full precision, as the
    /// paper quantizes the *dense layers* of the blocks.
    pub head: Matrix,
}

impl<L> LlamaModel<L> {
    /// Assembles a model from its parts.
    ///
    /// # Panics
    ///
    /// Panics if the parts disagree with `config` on basic shapes.
    pub fn from_parts(
        config: ModelConfig,
        embed: Matrix,
        blocks: Vec<Block<L>>,
        final_norm: Vec<f32>,
        head: Matrix,
    ) -> Self {
        assert_eq!(embed.shape(), (config.vocab, config.dim), "embed shape");
        assert_eq!(head.shape(), (config.vocab, config.dim), "head shape");
        assert_eq!(blocks.len(), config.layers, "block count");
        assert_eq!(final_norm.len(), config.dim, "final norm width");
        LlamaModel {
            config,
            embed,
            blocks,
            final_norm,
            head,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Consumes the model and applies `f` to every linear layer, producing a
    /// model with a different linear precision (this is how the `atom` crate
    /// builds the quantized model).
    pub fn map_linears<M>(self, mut f: impl FnMut(LinearId, L) -> M) -> LlamaModel<M> {
        let config = self.config;
        let blocks = self
            .blocks
            .into_iter()
            .enumerate()
            .map(|(l, b)| Block {
                attn_norm: b.attn_norm,
                attn: Attention {
                    wq: f(LinearId::new(l, Proj::Q), b.attn.wq),
                    wk: f(LinearId::new(l, Proj::K), b.attn.wk),
                    wv: f(LinearId::new(l, Proj::V), b.attn.wv),
                    wo: f(LinearId::new(l, Proj::O), b.attn.wo),
                },
                ffn_norm: b.ffn_norm,
                ffn: match b.ffn {
                    FeedForward::Dense(mlp) => FeedForward::Dense(Mlp {
                        gate: f(
                            LinearId {
                                layer: l,
                                proj: Proj::Gate,
                                expert: 0,
                            },
                            mlp.gate,
                        ),
                        up: f(
                            LinearId {
                                layer: l,
                                proj: Proj::Up,
                                expert: 0,
                            },
                            mlp.up,
                        ),
                        down: f(
                            LinearId {
                                layer: l,
                                proj: Proj::Down,
                                expert: 0,
                            },
                            mlp.down,
                        ),
                    }),
                    FeedForward::Moe { router, experts } => FeedForward::Moe {
                        router: f(LinearId::new(l, Proj::Router), router),
                        experts: experts
                            .into_iter()
                            .enumerate()
                            .map(|(e, mlp)| Mlp {
                                gate: f(
                                    LinearId {
                                        layer: l,
                                        proj: Proj::Gate,
                                        expert: e,
                                    },
                                    mlp.gate,
                                ),
                                up: f(
                                    LinearId {
                                        layer: l,
                                        proj: Proj::Up,
                                        expert: e,
                                    },
                                    mlp.up,
                                ),
                                down: f(
                                    LinearId {
                                        layer: l,
                                        proj: Proj::Down,
                                        expert: e,
                                    },
                                    mlp.down,
                                ),
                            })
                            .collect(),
                    },
                },
            })
            .collect();
        LlamaModel {
            config,
            embed: self.embed,
            blocks,
            final_norm: self.final_norm,
            head: self.head,
        }
    }

    /// Visits every linear layer with its identity.
    pub fn visit_linears(&self, mut f: impl FnMut(LinearId, &L)) {
        for (l, b) in self.blocks.iter().enumerate() {
            f(LinearId::new(l, Proj::Q), &b.attn.wq);
            f(LinearId::new(l, Proj::K), &b.attn.wk);
            f(LinearId::new(l, Proj::V), &b.attn.wv);
            f(LinearId::new(l, Proj::O), &b.attn.wo);
            match &b.ffn {
                FeedForward::Dense(mlp) => {
                    f(
                        LinearId {
                            layer: l,
                            proj: Proj::Gate,
                            expert: 0,
                        },
                        &mlp.gate,
                    );
                    f(
                        LinearId {
                            layer: l,
                            proj: Proj::Up,
                            expert: 0,
                        },
                        &mlp.up,
                    );
                    f(
                        LinearId {
                            layer: l,
                            proj: Proj::Down,
                            expert: 0,
                        },
                        &mlp.down,
                    );
                }
                FeedForward::Moe { router, experts } => {
                    f(LinearId::new(l, Proj::Router), router);
                    for (e, mlp) in experts.iter().enumerate() {
                        f(
                            LinearId {
                                layer: l,
                                proj: Proj::Gate,
                                expert: e,
                            },
                            &mlp.gate,
                        );
                        f(
                            LinearId {
                                layer: l,
                                proj: Proj::Up,
                                expert: e,
                            },
                            &mlp.up,
                        );
                        f(
                            LinearId {
                                layer: l,
                                proj: Proj::Down,
                                expert: e,
                            },
                            &mlp.down,
                        );
                    }
                }
            }
        }
    }
}

impl LlamaModel<DenseLinear> {
    /// Builds a model with Kaiming-initialized random weights (untrained;
    /// used by unit tests and kernel-parity checks).
    pub fn random_init(config: ModelConfig, seed: u64) -> Self {
        config.validate().expect("invalid model config");
        let mut rng = SeededRng::new(seed ^ 0x11AA_4A4A);
        let dim = config.dim;
        let kv_dim = config.kv_dim();
        let blocks = (0..config.layers)
            .map(|_| {
                let mlp = |rng: &mut SeededRng| Mlp {
                    gate: DenseLinear::new(rng.kaiming_matrix(config.ffn_dim, dim, 1.0)),
                    up: DenseLinear::new(rng.kaiming_matrix(config.ffn_dim, dim, 1.0)),
                    down: DenseLinear::new(rng.kaiming_matrix(dim, config.ffn_dim, 1.0)),
                };
                Block {
                    attn_norm: vec![1.0; dim],
                    attn: Attention {
                        wq: DenseLinear::new(rng.kaiming_matrix(dim, dim, 1.0)),
                        wk: DenseLinear::new(rng.kaiming_matrix(kv_dim, dim, 1.0)),
                        wv: DenseLinear::new(rng.kaiming_matrix(kv_dim, dim, 1.0)),
                        wo: DenseLinear::new(rng.kaiming_matrix(dim, dim, 1.0)),
                    },
                    ffn_norm: vec![1.0; dim],
                    ffn: if config.experts > 1 {
                        FeedForward::Moe {
                            router: DenseLinear::new(rng.kaiming_matrix(config.experts, dim, 1.0)),
                            experts: (0..config.experts).map(|_| mlp(&mut rng)).collect(),
                        }
                    } else {
                        FeedForward::Dense(mlp(&mut rng))
                    },
                }
            })
            .collect();
        LlamaModel {
            config,
            embed: rng.normal_matrix(config.vocab, dim, 0.0, 0.02),
            blocks,
            final_norm: vec![1.0; dim],
            head: rng.kaiming_matrix(config.vocab, dim, 1.0),
        }
    }
}

impl<L: LinearLayer> LlamaModel<L> {
    /// Forward pass over `tokens`, appending their K/V to `cache` and
    /// returning `tokens.len() x vocab` logits.
    pub fn forward(&self, tokens: &[u16], cache: &mut dyn KvStore) -> Matrix {
        self.forward_observed(tokens, cache, &mut NoopObserver)
    }

    /// Forward pass with a calibration observer hooked before every linear.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty or contains out-of-vocabulary ids.
    pub fn forward_observed(
        &self,
        tokens: &[u16],
        cache: &mut dyn KvStore,
        obs: &mut dyn ForwardObserver,
    ) -> Matrix {
        assert!(!tokens.is_empty(), "forward of empty token slice");
        let _timer = Telemetry::global().timer(names::MODEL_FORWARD_WALL_NS);
        let _span = span!(names::SPAN_MODEL_FORWARD, tokens = tokens.len());
        let c = &self.config;
        let start = cache.len(0);
        let positions: Vec<usize> = (start..start + tokens.len()).collect();

        // Embed.
        let mut x = Matrix::zeros(tokens.len(), c.dim);
        for (r, &t) in tokens.iter().enumerate() {
            assert!((t as usize) < c.vocab, "token {t} out of vocabulary");
            x.row_mut(r).copy_from_slice(self.embed.row(t as usize));
        }

        for (l, block) in self.blocks.iter().enumerate() {
            // Attention with pre-norm and residual.
            let normed = ops::rmsnorm_rows(&x, &block.attn_norm, c.norm_eps);
            let attn_out = self.attention(block, &normed, l, &positions, cache, obs);
            x = x.add(&attn_out);

            // Feed-forward with pre-norm and residual.
            let normed = ops::rmsnorm_rows(&x, &block.ffn_norm, c.norm_eps);
            let ffn_out = block.ffn.forward(&normed, l, obs);
            x = x.add(&ffn_out);
        }

        let x = ops::rmsnorm_rows(&x, &self.final_norm, c.norm_eps);
        x.matmul_nt(&self.head)
    }

    fn attention(
        &self,
        block: &Block<L>,
        x: &Matrix,
        layer: usize,
        positions: &[usize],
        cache: &mut dyn KvStore,
        obs: &mut dyn ForwardObserver,
    ) -> Matrix {
        let c = &self.config;
        let hd = c.head_dim();

        obs.observe(LinearId::new(layer, Proj::Q), x);
        let mut q = block.attn.wq.forward(x);
        obs.observe(LinearId::new(layer, Proj::K), x);
        let mut k = block.attn.wk.forward(x);
        obs.observe(LinearId::new(layer, Proj::V), x);
        let v = block.attn.wv.forward(x);

        ops::rope_in_place(&mut q, positions, hd, c.rope_theta);
        ops::rope_in_place(&mut k, positions, hd, c.rope_theta);

        // The timed attention section covers cache append + materialization
        // (dequantize-on-load for quantized stores) and the per-head
        // score/softmax/mix arithmetic — everything except the four linear
        // projections, which account under the GEMM metric.
        let t = Telemetry::global();
        let attn_timer = t.timer(names::OP_ATTENTION_WALL_NS);
        let attn_span = span!(names::SPAN_ATTENTION, layer = layer);
        cache.append(layer, &k, &v);
        let keys = cache.keys(layer);
        let values = cache.values(layer);
        let kv_len = keys.rows();
        let offset = kv_len - x.rows();
        t.counter_add(
            names::OP_ATTENTION_BYTES,
            // Materialized FP32 keys + values.
            (4 * 2 * kv_len * keys.cols()) as u64,
        );
        t.counter_add(names::OP_ATTENTION_CALLS, 1);

        let scale = 1.0 / cast::usize_to_f32(hd).sqrt();
        // Heads are independent read-only functions of (q, keys, values);
        // running them on the pool keeps each head's arithmetic identical to
        // the sequential loop, so the concat below is bit-stable for any
        // thread count. A worker panic (impossible for well-formed configs)
        // falls back to the sequential loop, which re-raises it on the
        // caller thread — preserving the panic contract.
        let compute_head = |h: usize| {
            let kv_h = h / c.group_size();
            let q_h = q.slice_cols(h * hd, (h + 1) * hd);
            let k_h = keys.slice_cols(kv_h * hd, (kv_h + 1) * hd);
            let v_h = values.slice_cols(kv_h * hd, (kv_h + 1) * hd);
            let mut scores = q_h.matmul_nt(&k_h);
            scores.scale_in_place(scale);
            ops::causal_mask_in_place(&mut scores, offset);
            let probs = ops::softmax_rows(&scores);
            probs.matmul(&v_h)
        };
        let head_ids: Vec<usize> = (0..c.heads).collect();
        let heads = Pool::global()
            .par_map(&head_ids, |_, &h| compute_head(h))
            .unwrap_or_else(|_| head_ids.iter().map(|&h| compute_head(h)).collect());
        let mut concat = heads[0].clone();
        for h in &heads[1..] {
            concat = concat.hstack(h);
        }
        drop(attn_span);
        attn_timer.stop();
        obs.observe(LinearId::new(layer, Proj::O), &concat);
        block.attn.wo.forward(&concat)
    }

    /// Number of linear layers in the model.
    pub fn num_linears(&self) -> usize {
        let mut n = 0;
        self.visit_linears(|_, _| n += 1);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::Fp32KvCache;

    fn tiny_config() -> ModelConfig {
        ModelConfig {
            vocab: 96,
            dim: 32,
            layers: 2,
            heads: 4,
            kv_heads: 4,
            ffn_dim: 64,
            experts: 1,
            rope_theta: 10_000.0,
            norm_eps: 1e-5,
            max_seq_len: 64,
        }
    }

    #[test]
    fn forward_shapes() {
        let config = tiny_config();
        let m = LlamaModel::random_init(config, 1);
        let mut cache = Fp32KvCache::new(config.layers, config.kv_dim());
        let logits = m.forward(&[5, 6, 7], &mut cache);
        assert_eq!(logits.shape(), (3, config.vocab));
        assert_eq!(cache.len(0), 3);
        assert!(logits.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn incremental_decode_matches_full_forward() {
        // The KV cache must make token-by-token decoding produce the same
        // final logits as processing the whole sequence at once.
        let config = tiny_config();
        let m = LlamaModel::random_init(config, 2);
        let tokens = [10u16, 20, 30, 40, 50];

        let mut full_cache = Fp32KvCache::new(config.layers, config.kv_dim());
        let full = m.forward(&tokens, &mut full_cache);

        let mut inc_cache = Fp32KvCache::new(config.layers, config.kv_dim());
        let mut last = Matrix::zeros(0, 0);
        for &t in &tokens {
            last = m.forward(&[t], &mut inc_cache);
        }
        let full_last = full.row(tokens.len() - 1);
        for (a, b) in full_last.iter().zip(last.row(0)) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn gqa_forward_works() {
        let config = ModelConfig {
            kv_heads: 2,
            ..tiny_config()
        };
        let m = LlamaModel::random_init(config, 3);
        let mut cache = Fp32KvCache::new(config.layers, config.kv_dim());
        let logits = m.forward(&[1, 2, 3, 4], &mut cache);
        assert_eq!(logits.shape(), (4, config.vocab));
        assert_eq!(cache.keys(0).cols(), config.kv_dim());
    }

    #[test]
    fn moe_forward_works() {
        let config = ModelConfig {
            experts: 4,
            ..tiny_config()
        };
        let m = LlamaModel::random_init(config, 4);
        let mut cache = Fp32KvCache::new(config.layers, config.kv_dim());
        let logits = m.forward(&[1, 2], &mut cache);
        assert_eq!(logits.shape(), (2, config.vocab));
        assert!(logits.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn linear_count() {
        let m = LlamaModel::random_init(tiny_config(), 5);
        // 2 layers x (4 attention + 3 mlp).
        assert_eq!(m.num_linears(), 14);
        let moe = LlamaModel::random_init(
            ModelConfig {
                experts: 2,
                ..tiny_config()
            },
            5,
        );
        // 2 layers x (4 attention + 1 router + 2x3 expert mlp).
        assert_eq!(moe.num_linears(), 22);
    }

    #[test]
    fn observer_sees_every_linear_input() {
        use std::collections::BTreeSet;

        #[derive(Debug, Default)]
        struct Collect(BTreeSet<LinearId>, usize);
        impl ForwardObserver for Collect {
            fn observe(&mut self, id: LinearId, input: &Matrix) {
                self.0.insert(id);
                self.1 += 1;
                assert!(input.rows() > 0);
            }
        }

        let config = tiny_config();
        let m = LlamaModel::random_init(config, 6);
        let mut cache = Fp32KvCache::new(config.layers, config.kv_dim());
        let mut obs = Collect::default();
        m.forward_observed(&[1, 2, 3], &mut cache, &mut obs);
        assert_eq!(obs.0.len(), m.num_linears());
        assert_eq!(obs.1, m.num_linears());
    }

    #[test]
    fn map_linears_identity_preserves_output() {
        let config = tiny_config();
        let m = LlamaModel::random_init(config, 7);
        let mut c1 = Fp32KvCache::new(config.layers, config.kv_dim());
        let before = m.forward(&[3, 1, 4], &mut c1);
        let mapped = m.clone().map_linears(|_, l| l);
        let mut c2 = Fp32KvCache::new(config.layers, config.kv_dim());
        let after = mapped.forward(&[3, 1, 4], &mut c2);
        assert_eq!(before, after);
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn oov_token_panics() {
        let config = tiny_config();
        let m = LlamaModel::random_init(config, 8);
        let mut cache = Fp32KvCache::new(config.layers, config.kv_dim());
        m.forward(&[9999], &mut cache);
    }
}
