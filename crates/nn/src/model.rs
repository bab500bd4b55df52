//! Llama-family decoder, generic over linear-layer precision.
//!
//! The same model code runs the FP32 reference and Atom's quantized variant:
//! `LlamaModel<DenseLinear>` is the baseline, and the `atom` crate
//! instantiates `LlamaModel<QuantizedLinear>` after calibration. Forward
//! hooks ([`ForwardObserver`]) expose every linear layer's input activations,
//! which is how calibration collects the channel statistics used for outlier
//! identification and reordering (paper §4.1, §5.1).
//!
//! There is one forward body, and it is batched
//! ([`LlamaModel::forward_batch`]): the token rows of every sequence in the
//! batch are stacked, so the embedding, the norms, every linear layer,
//! SwiGLU / MoE and the output head each run once over all of them — the
//! dense layers see `m` = the batch's total rows, which is what puts them on
//! the compute-bound side of the roofline (paper §3, Fig. 4). Rows part per
//! sequence only where sequences differ: RoPE positions, the KV append, and
//! self-attention, which runs over the (sequence, KV head) grid: each cell
//! stacks the query heads that share one KV head and calls
//! [`KvStore::attend`], so a quantized store decodes each of the head's rows
//! once, inside the attention (§4.5).
//! [`LlamaModel::forward`] is the batch of one, and returns every row's
//! logits. [`LlamaModel::forward_batch`] returns one row per sequence, its
//! last, which is all a serving step reads: the last block appends every
//! row's K/V, then runs its queries, attention, output projection,
//! feed-forward, the final norm and the head on those rows alone.
//!
//! Batching changes no bit of any row. Every stacked operator is row-wise:
//! `matmul_nt`, RMSNorm, RoPE and softmax act on each row alone, activation
//! scales are dynamic per token, and the W4A4 GEMM returns its reference's
//! bits whatever the row count (the row count only picks which of its two
//! loops runs; both equal the reference, which folds each output on its
//! own row). Dropping rows after
//! the last K/V append changes none either: a sequence's last row attends
//! to its whole store, scored and mixed in key order, whether it is the
//! last of `n` query rows or the only one.

use crate::config::ModelConfig;
use crate::kv::KvStore;
use crate::linear::{DenseLinear, LinearLayer};
use atom_parallel::Pool;
use atom_telemetry::{names, span, Telemetry};
use atom_tensor::cast;
use atom_tensor::{ops, Matrix, SeededRng};
use serde::{Deserialize, Serialize};
use std::ops::Range;

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

    /// The id the forward observes this linear's input under: linears that
    /// read one activation share one id. Q/K/V read the attention input
    /// (filed under Q); the router and every expert's gate/up read the
    /// feed-forward input (filed under expert 0's gate); O and each down
    /// projection read their own.
    pub fn input(self) -> LinearId {
        match self.proj {
            Proj::Q | Proj::K | Proj::V => LinearId::new(self.layer, Proj::Q),
            Proj::Gate | Proj::Up | Proj::Router => LinearId::new(self.layer, Proj::Gate),
            Proj::O | Proj::Down => self,
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

/// Hook receiving every distinct linear-layer input activation during a
/// forward pass. Used by calibration; the default [`NoopObserver`] costs
/// nothing.
pub trait ForwardObserver {
    /// Called once with each activation matrix that is about to enter
    /// linears: `id` is their shared [`LinearId::input`].
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
    /// The MLP of `x`. The caller observes `x`, which the router and every
    /// expert of the layer read too; this observes the down projection's
    /// input.
    fn forward(&self, x: &Matrix, layer: usize, expert: usize, obs: &mut dyn ForwardObserver) -> Matrix {
        let [g, u] = outputs(L::forward_shared(&[(&self.gate, None), (&self.up, None)], x));
        let h = g.map(ops::silu).hadamard(&u);
        let did = LinearId {
            layer,
            proj: Proj::Down,
            expert,
        };
        obs.observe(did, &h);
        self.down.forward(&h)
    }
}

/// The `N` outputs of a [`LinearLayer::forward_shared`] call over `N`
/// layers.
fn outputs<const N: usize>(outs: Vec<Matrix>) -> [Matrix; N] {
    outs.try_into().unwrap_or_else(|outs: Vec<Matrix>| {
        panic!("forward_shared gave {} outputs for {N} layers", outs.len())
    })
}

/// Feed-forward section: a dense SwiGLU MLP or a softly routed MoE.
///
/// The MoE uses *soft routing* (every expert runs, outputs are mixed by the
/// router softmax) in both training and inference so the quantized model
/// computes the same function it was trained as. Atom's MoE finding — shared
/// reorder indices across experts suffice (paper §6, footnote 4) — holds by
/// construction: the router and every expert's gate/up read one input,
/// observed once, so calibration gives them one reorder plan.
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
        obs.observe(LinearId::new(layer, Proj::Gate), x);
        match self {
            FeedForward::Dense(mlp) => mlp.forward(x, layer, 0, obs),
            FeedForward::Moe { router, experts } => {
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

/// One sequence's share of a batched forward: the token rows it runs and the
/// KV store its keys and values go to.
///
/// The tokens take the positions after the ones `kv` already holds.
#[derive(Debug)]
pub struct SeqRows<'a> {
    /// Tokens to run, in order (at least one).
    pub tokens: &'a [u16],
    /// This sequence's KV cache; the forward appends one row per token.
    pub kv: &'a mut dyn KvStore,
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

/// Where the rows of a stacked batch sit: each row's position in its own
/// sequence, and each sequence's run of rows (sequence `i`'s follow
/// sequence `i - 1`'s).
struct Layout {
    positions: Vec<usize>,
    seqs: Vec<Range<usize>>,
}

/// Each sequence's last row: where it sits in the full stack, and the
/// layout of the stack of those rows alone (one row per sequence).
struct Tail {
    index: Vec<usize>,
    layout: Layout,
}

impl Layout {
    fn tail(&self) -> Tail {
        let index: Vec<usize> = self.seqs.iter().map(|rows| rows.end - 1).collect();
        let layout = Layout {
            positions: index.iter().map(|&r| self.positions[r]).collect(),
            seqs: (0..index.len()).map(|s| s..s + 1).collect(),
        };
        Tail { index, layout }
    }
}

impl<L: LinearLayer> LlamaModel<L> {
    /// Forward pass over `tokens`, appending their K/V to `cache` and
    /// returning `tokens.len() x vocab` logits: the batch of one.
    pub fn forward(&self, tokens: &[u16], cache: &mut dyn KvStore) -> Matrix {
        self.forward_observed(tokens, cache, &mut NoopObserver)
    }

    /// Forward pass with a calibration observer hooked before every linear.
    /// Every row runs through every block and comes back as logits.
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
        self.forward_rows(&mut [SeqRows { tokens, kv: cache }], false, obs)
    }

    /// One forward over every sequence of `batch` — a prefill's prompt
    /// rows, a decode's single row, any ragged mix — appending each
    /// sequence's K/V to its own store. Returns one logits row per
    /// sequence: row `i` is that of sequence `i`'s last token, the one its
    /// next token comes from. Every row still runs through every block up
    /// to the last one's K/V append; past it, only the returned rows run.
    /// Each returned row, and each store, is bit-identical to what
    /// [`forward`](Self::forward) of that sequence alone gives (see the
    /// module docs).
    ///
    /// # Example
    ///
    /// ```
    /// use atom_nn::{kv::Fp32KvCache, model::SeqRows, LlamaModel, ModelConfig};
    ///
    /// let config = ModelConfig { layers: 2, ..ModelConfig::default() };
    /// let model = LlamaModel::random_init(config, 0);
    /// let fresh = || Fp32KvCache::new(config.layers, config.kv_dim());
    /// let (mut a, mut b) = (fresh(), fresh());
    /// let logits = model.forward_batch(&mut [
    ///     SeqRows { tokens: &[1, 2, 3], kv: &mut a },
    ///     SeqRows { tokens: &[9], kv: &mut b },
    /// ]);
    /// assert_eq!(logits.shape(), (2, config.vocab));
    /// let alone = model.forward(&[9], &mut fresh());
    /// assert_eq!(logits.row(1), alone.row(0)); // bit for bit
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if a sequence has no tokens or an out-of-vocabulary id, or if
    /// a KV store panics. Stores appended before the panic keep those
    /// rows; [`KvStore::truncate`] undoes them.
    pub fn forward_batch(&self, batch: &mut [SeqRows<'_>]) -> Matrix {
        self.forward_rows(batch, true, &mut NoopObserver)
    }

    /// The one forward body; the observer sees each linear's stacked input.
    /// With `last_only`, the last block runs its queries and everything
    /// after them on each sequence's last row alone, and the logits are
    /// those rows'; otherwise every row runs throughout.
    fn forward_rows(
        &self,
        batch: &mut [SeqRows<'_>],
        last_only: bool,
        obs: &mut dyn ForwardObserver,
    ) -> Matrix {
        let c = &self.config;
        let rows: usize = batch.iter().map(|s| s.tokens.len()).sum();
        let _timer = Telemetry::global().timer(names::MODEL_FORWARD_WALL_NS);
        let _span = span!(names::SPAN_MODEL_FORWARD, tokens = rows, seqs = batch.len());

        // Embed, and give each row its position: the next ones of its own
        // sequence.
        let mut x = Matrix::zeros(rows, c.dim);
        let mut layout = Layout {
            positions: Vec::with_capacity(rows),
            seqs: Vec::with_capacity(batch.len()),
        };
        for seq in batch.iter() {
            assert!(!seq.tokens.is_empty(), "forward of empty token slice");
            let first = layout.positions.len();
            let start = seq.kv.len(0);
            for (pos, &t) in (start..).zip(seq.tokens) {
                assert!((t as usize) < c.vocab, "token {t} out of vocabulary");
                x.row_mut(layout.positions.len())
                    .copy_from_slice(self.embed.row(t as usize));
                layout.positions.push(pos);
            }
            layout.seqs.push(first..layout.positions.len());
        }

        let tail = last_only.then(|| layout.tail());
        for (l, block) in self.blocks.iter().enumerate() {
            // Attention with pre-norm and residual. The last block appends
            // every row's K/V; if only the tail is returned, that is all
            // the other rows are still needed for.
            let tail = tail.as_ref().filter(|_| l + 1 == self.blocks.len());
            let normed = ops::rmsnorm_rows(&x, &block.attn_norm, c.norm_eps);
            let attn_out = self.attention(l, &normed, &layout, tail, batch, obs);
            if let Some(tail) = tail {
                x = x.gather_rows(&tail.index);
            }
            x = x.add(&attn_out);

            // Feed-forward with pre-norm and residual.
            let normed = ops::rmsnorm_rows(&x, &block.ffn_norm, c.norm_eps);
            let ffn_out = block.ffn.forward(&normed, l, obs);
            x = x.add(&ffn_out);
        }

        let x = ops::rmsnorm_rows(&x, &self.final_norm, c.norm_eps);
        x.matmul_nt(&self.head)
    }

    /// Self-attention of one layer over the stacked rows `x`: K/V and the
    /// output projection run stacked; each sequence appends its own K/V
    /// rows, then every (sequence, KV head) cell hands its group's query
    /// rows to the store's [`KvStore::attend`], which reads the head where
    /// it lies — no history is materialised. The queries, and so the
    /// output, are every row's, or with a `tail` only those rows'.
    fn attention(
        &self,
        layer: usize,
        x: &Matrix,
        rows: &Layout,
        tail: Option<&Tail>,
        batch: &mut [SeqRows<'_>],
        obs: &mut dyn ForwardObserver,
    ) -> Matrix {
        let c = &self.config;
        let hd = c.head_dim();
        let attn = &self.blocks[layer].attn;

        obs.observe(LinearId::new(layer, Proj::Q), x);
        // Q/K/V read one input; with a `tail`, Q reads only its rows.
        let q_rows = tail.map(|tail| tail.index.as_slice());
        let queries = tail.map_or(rows, |tail| &tail.layout);
        let [mut q, mut k, v] = outputs(L::forward_shared(
            &[(&attn.wq, q_rows), (&attn.wk, None), (&attn.wv, None)],
            x,
        ));

        ops::rope_in_place(&mut q, &queries.positions, hd, c.rope_theta);
        ops::rope_in_place(&mut k, &rows.positions, hd, c.rope_theta);

        // The timed attention section covers the cache appends and the
        // per-(sequence, KV head) attention, K/V decoding included —
        // everything except the four linear projections, which account
        // under the GEMM metric.
        let t = Telemetry::global();
        let attn_timer = t.timer(names::OP_ATTENTION_WALL_NS);
        let attn_span = span!(names::SPAN_ATTENTION, layer = layer);
        // Each sequence appends its rows of K/V, which become its newest
        // positions.
        for (seq, kv_rows) in batch.iter_mut().zip(&rows.seqs) {
            let (start, end) = (kv_rows.start, kv_rows.end);
            seq.kv
                .append(layer, &k.slice_rows(start, end), &v.slice_rows(start, end));
            // What attention reads: the store's K/V as it holds them.
            // The history ends at the sequence's last new position.
            // `len` is read once per forward, at the embedding: a
            // wrapping store may take `len(0)` as a forward's start.
            let dense = 4 * 2 * (rows.positions[end - 1] + 1) * c.kv_dim();
            let bytes = seq.kv.layer_bytes(layer).unwrap_or(dense);
            t.counter_add(names::OP_ATTENTION_BYTES, bytes as u64);
            t.counter_add(names::OP_ATTENTION_CALLS, 1);
        }

        let scale = 1.0 / cast::usize_to_f32(hd).sqrt();
        let group = c.group_size();
        let stores: Vec<&dyn KvStore> = batch.iter().map(|seq| &*seq.kv).collect();
        // Row `r` of cell (s, g)'s stacked queries: query head
        // `g * group + r / n` at sequence s's `r % n`-th query row, for n
        // query rows — the head-major layout `KvStore::attend` takes. The
        // query rows are the newest `n` of the sequence's positions, all
        // of its new rows or only the last. Returns the row of `q` /
        // `concat` it sits in and its first column.
        let place = |s: usize, g: usize, r: usize| {
            let n = queries.seqs[s].len();
            (queries.seqs[s].start + r % n, (g * group + r / n) * hd)
        };
        // Every (sequence, KV head) cell is an independent read-only
        // function of its query rows and its sequence's store; running the
        // grid on the pool keeps each cell's arithmetic identical to the
        // sequential loop, so the stitched output is bit-stable for any
        // thread count. A cell's panic (a malformed KV store, say)
        // continues on the caller thread, as it would from the sequential
        // loop.
        let compute_cell = |&(s, g): &(usize, usize)| {
            let n = queries.seqs[s].len();
            let mut q_g = Matrix::zeros(group * n, hd);
            for r in 0..group * n {
                let (row, first) = place(s, g, r);
                let src = &q.row(row)[first..first + hd];
                q_g.row_mut(r).copy_from_slice(src);
            }
            stores[s].attend(layer, g, &q_g, n, scale)
        };
        let grid: Vec<(usize, usize)> = (0..batch.len())
            .flat_map(|s| (0..c.kv_heads).map(move |g| (s, g)))
            .collect();
        let Ok(cells) = Pool::current().par_map(&grid, |_, cell| compute_cell(cell));
        let mut concat = Matrix::zeros(q.rows(), c.dim);
        for (&(s, g), out) in grid.iter().zip(&cells) {
            for (r, row) in out.iter_rows().enumerate() {
                let (dst, first) = place(s, g, r);
                concat.row_mut(dst)[first..first + hd].copy_from_slice(row);
            }
        }
        drop(attn_span);
        attn_timer.stop();
        obs.observe(LinearId::new(layer, Proj::O), &concat);
        attn.wo.forward(&concat)
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
        use std::collections::BTreeMap;

        /// Each observed id with its input width, and the number of calls.
        #[derive(Debug, Default)]
        struct Collect(BTreeMap<LinearId, usize>, usize);
        impl ForwardObserver for Collect {
            fn observe(&mut self, id: LinearId, input: &Matrix) {
                self.0.insert(id, input.cols());
                self.1 += 1;
                assert!(input.rows() > 0);
            }
        }

        // Per layer: dense Q, O, gate, down; MoE Q, O, gate and one down
        // per expert.
        for (experts, inputs_per_layer) in [(1, 4), (4, 3 + 4)] {
            let config = ModelConfig {
                experts,
                ..tiny_config()
            };
            let m = LlamaModel::random_init(config, 6);
            let mut cache = Fp32KvCache::new(config.layers, config.kv_dim());
            let mut obs = Collect::default();
            m.forward_observed(&[1, 2, 3], &mut cache, &mut obs);
            assert_eq!(obs.1, config.layers * inputs_per_layer, "experts {experts}");
            assert_eq!(obs.0.len(), obs.1, "experts {experts}: one call per input");
            let mut wanted = BTreeMap::new();
            m.visit_linears(|id, l| {
                wanted.insert(id.input(), l.in_features());
            });
            assert_eq!(obs.0, wanted, "experts {experts}");
        }
    }

    #[test]
    fn last_block_tail_runs_on_one_row_per_sequence() {
        use std::collections::BTreeMap;
        use std::sync::{Arc, Mutex};

        type Seen = Arc<Mutex<BTreeMap<LinearId, usize>>>;

        /// A dense linear adding the rows it is fed to its id's count.
        #[derive(Debug)]
        struct Counting {
            id: LinearId,
            inner: DenseLinear,
            seen: Seen,
        }
        impl LinearLayer for Counting {
            fn forward(&self, x: &Matrix) -> Matrix {
                *self
                    .seen
                    .lock()
                    .expect("unpoisoned")
                    .entry(self.id)
                    .or_default() += x.rows();
                self.inner.forward(x)
            }
            fn in_features(&self) -> usize {
                self.inner.in_features()
            }
            fn out_features(&self) -> usize {
                self.inner.out_features()
            }
        }

        for experts in [1, 3] {
            let config = ModelConfig {
                experts,
                ..tiny_config()
            };
            let seen = Seen::default();
            let m = LlamaModel::random_init(config, 9).map_linears(|id, inner| Counting {
                id,
                inner,
                seen: Arc::clone(&seen),
            });
            // Every linear of the model, with the rows it saw since the
            // last call.
            let take = || {
                let counts = std::mem::take(&mut *seen.lock().expect("unpoisoned"));
                let mut all = Vec::new();
                m.visit_linears(|id, _| all.push((id, counts.get(&id).copied().unwrap_or(0))));
                assert_eq!(all.len(), counts.len(), "experts {experts}: an unknown id");
                all
            };
            let fresh = || Fp32KvCache::new(config.layers, config.kv_dim());

            // `forward` feeds every row everywhere.
            let (mut a, mut b, mut c) = (fresh(), fresh(), fresh());
            m.forward(&[1, 2, 3], &mut a);
            for (id, rows) in take() {
                assert_eq!(rows, 3, "experts {experts}: {id}");
            }
            m.forward(&[4, 5], &mut b);
            take();

            // Two decode rows beside a 5-row chunk: past the last block's
            // K/V, only each sequence's last row runs.
            let logits = m.forward_batch(&mut [
                SeqRows {
                    tokens: &[7],
                    kv: &mut a,
                },
                SeqRows {
                    tokens: &[8],
                    kv: &mut b,
                },
                SeqRows {
                    tokens: &[1, 2, 3, 4, 5],
                    kv: &mut c,
                },
            ]);
            assert_eq!(logits.shape(), (3, config.vocab));
            assert_eq!([a.len(0), b.len(0), c.len(0)], [4, 3, 5]);
            for (id, rows) in take() {
                let last = id.layer + 1 == config.layers;
                let tail = last && !matches!(id.proj, Proj::K | Proj::V);
                assert_eq!(rows, if tail { 3 } else { 7 }, "experts {experts}: {id}");
            }
        }
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
