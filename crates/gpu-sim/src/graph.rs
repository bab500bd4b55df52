//! Llama operator graph per serving iteration.
//!
//! Builds the list of GPU operators one decode (or prefill) iteration
//! executes for a batch, under each serving scheme, and aggregates the
//! Fig. 3 breakdown (dense / self-attention / other).

use crate::cost::{ComputeKind, Op};
use crate::hardware::HardwareProfile;
use crate::tp::{iteration_breakdown_tp, TpConfig};
use serde::{Deserialize, Serialize};

/// GPU-scale Llama architecture description.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LlamaGpuConfig {
    /// Hidden dimension.
    pub dim: usize,
    /// Transformer layers.
    pub layers: usize,
    /// Attention heads.
    pub heads: usize,
    /// MLP hidden dimension.
    pub ffn_dim: usize,
    /// Vocabulary size.
    pub vocab: usize,
}

impl LlamaGpuConfig {
    /// Llama-7B (the paper's kernel/e2e evaluation model).
    pub fn llama7b() -> Self {
        LlamaGpuConfig {
            dim: 4096,
            layers: 32,
            heads: 32,
            ffn_dim: 11008,
            vocab: 32000,
        }
    }

    /// Per-head dimension.
    pub fn head_dim(&self) -> usize {
        self.dim / self.heads
    }

    /// Total weight parameters (ignoring embeddings, like the serving
    /// memory model which streams them once).
    pub fn block_params(&self) -> f64 {
        let attn = 4.0 * (self.dim * self.dim) as f64;
        let mlp = 3.0 * (self.dim * self.ffn_dim) as f64;
        self.layers as f64 * (attn + mlp)
    }
}

/// Serving schemes of the end-to-end comparison (Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SimScheme {
    /// FP16 weights, activations, and KV.
    Fp16,
    /// 4-bit weights, FP16 compute and KV (AWQ-style).
    W4A16,
    /// 8-bit weights and activations, INT8 KV (SmoothQuant-style).
    W8A8,
    /// Atom: 4-bit weights/activations with mixed precision + group fusion,
    /// INT4 KV.
    AtomW4A4,
}

impl SimScheme {
    /// All schemes in Fig. 10 legend order.
    pub fn all() -> [SimScheme; 4] {
        [
            SimScheme::Fp16,
            SimScheme::W4A16,
            SimScheme::W8A8,
            SimScheme::AtomW4A4,
        ]
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            SimScheme::Fp16 => "FP16",
            SimScheme::W4A16 => "W4A16",
            SimScheme::W8A8 => "W8A8",
            SimScheme::AtomW4A4 => "Atom W4A4",
        }
    }

    /// Stored weight precision in bits.
    pub fn weight_bits(self) -> f64 {
        match self {
            SimScheme::Fp16 => 16.0,
            SimScheme::W4A16 => 4.25, // group scales included (§4.2)
            SimScheme::W8A8 => 8.0,
            SimScheme::AtomW4A4 => 4.25,
        }
    }

    /// Activation precision crossing memory into the dense GEMMs.
    pub fn act_bits(self) -> f64 {
        match self {
            SimScheme::Fp16 | SimScheme::W4A16 => 16.0,
            SimScheme::W8A8 => 8.0,
            SimScheme::AtomW4A4 => 4.25,
        }
    }

    /// KV-cache storage precision.
    pub fn kv_bits(self) -> f64 {
        match self {
            SimScheme::Fp16 | SimScheme::W4A16 => 16.0,
            SimScheme::W8A8 => 8.0,
            SimScheme::AtomW4A4 => 4.0,
        }
    }

    /// Compute pipeline of the dense layers.
    pub fn compute(self) -> ComputeKind {
        match self {
            // W4A16 dequantizes to FP16 before the MMA (§3): FP16 compute.
            SimScheme::Fp16 | SimScheme::W4A16 => ComputeKind::Fp16Tensor,
            SimScheme::W8A8 => ComputeKind::Int8Fused,
            SimScheme::AtomW4A4 => ComputeKind::Int4Atom,
        }
    }

    /// Extra elementwise streams for quantization epilogues (reorder +
    /// dynamic quantization, fused into prior operators; §4.1 reports
    /// <0.5% of runtime — one extra streamed pass models it).
    pub fn epilogue_streams(self) -> f64 {
        match self {
            SimScheme::Fp16 | SimScheme::W4A16 => 0.0,
            SimScheme::W8A8 => 1.0,
            SimScheme::AtomW4A4 => 1.0,
        }
    }
}

/// Which phase of an iteration is being costed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// One token per sequence.
    Decode,
    /// `q_len` prompt tokens per sequence.
    Prefill {
        /// Prompt tokens processed this iteration.
        q_len: usize,
    },
}

impl Phase {
    pub(crate) fn q_len(self) -> usize {
        match self {
            Phase::Decode => 1,
            Phase::Prefill { q_len } => q_len,
        }
    }
}

/// The operator list of one iteration over a batch of `batch` sequences
/// whose KV caches average `kv_len` tokens.
pub fn iteration_ops(
    config: &LlamaGpuConfig,
    scheme: SimScheme,
    batch: usize,
    kv_len: usize,
    phase: Phase,
) -> Vec<(OpClass, Op)> {
    let q = phase.q_len();
    let m = batch * q; // batched tokens entering dense layers (§3)
    let d = config.dim;
    let f = config.ffn_dim;
    let compute = scheme.compute();
    let wb = scheme.weight_bits();
    let ab = scheme.act_bits();
    let mut ops = Vec::new();
    let gemm = |n: usize, k: usize| Op::Gemm {
        m,
        n,
        k,
        weight_bits: wb,
        act_bits: ab,
        compute,
    };
    for _ in 0..config.layers {
        // Pre-attention norm (+ fused reorder/quant epilogue).
        ops.push((
            OpClass::Other,
            Op::Elementwise {
                tokens: m,
                dim: d,
                streams: 2.0 + scheme.epilogue_streams(),
            },
        ));
        // QKV generation and O projection (dense).
        ops.push((OpClass::Dense, gemm(3 * d, d)));
        ops.push((OpClass::Dense, gemm(d, d)));
        // Self-attention over the KV cache.
        ops.push((
            OpClass::Attention,
            Op::Attention {
                batch,
                heads: config.heads,
                head_dim: config.head_dim(),
                kv_len: kv_len + q,
                q_len: q,
                kv_bits: scheme.kv_bits(),
            },
        ));
        // Pre-MLP norm (+ epilogue).
        ops.push((
            OpClass::Other,
            Op::Elementwise {
                tokens: m,
                dim: d,
                streams: 2.0 + scheme.epilogue_streams(),
            },
        ));
        // SwiGLU MLP: gate+up then down.
        ops.push((OpClass::Dense, gemm(2 * f, d)));
        ops.push((OpClass::Dense, gemm(d, f)));
    }
    // Final norm + LM head (always FP16 in the paper's serving stack).
    ops.push((
        OpClass::Other,
        Op::Elementwise {
            tokens: m,
            dim: d,
            streams: 2.0,
        },
    ));
    ops.push((
        OpClass::Other,
        Op::Gemm {
            m,
            n: config.vocab,
            k: d,
            weight_bits: 16.0,
            act_bits: 16.0,
            compute: ComputeKind::Fp16Tensor,
        },
    ));
    ops
}

/// Operator classes of the Fig. 3 breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Batched dense GEMMs (QKV, O, MLP).
    Dense,
    /// Self-attention over the KV cache.
    Attention,
    /// Norms, residuals, sampling, quantization epilogues, LM head.
    Other,
}

/// Aggregated iteration timing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Breakdown {
    /// Dense-layer seconds.
    pub dense_s: f64,
    /// Self-attention seconds.
    pub attention_s: f64,
    /// Everything else.
    pub other_s: f64,
}

impl Breakdown {
    /// Total iteration latency.
    pub fn total_s(&self) -> f64 {
        self.dense_s + self.attention_s + self.other_s
    }

    /// Fraction of time in dense + attention (the >90% claim of Fig. 3).
    pub fn bottleneck_fraction(&self) -> f64 {
        (self.dense_s + self.attention_s) / self.total_s()
    }
}

/// Costs one iteration on a single GPU and aggregates by class: the
/// tensor-parallel costing at degree 1, where sharding is the identity and
/// the all-reduces cost nothing.
pub fn iteration_breakdown(
    config: &LlamaGpuConfig,
    scheme: SimScheme,
    batch: usize,
    kv_len: usize,
    phase: Phase,
    hw: &HardwareProfile,
) -> Breakdown {
    let single = TpConfig::single();
    iteration_breakdown_tp(config, scheme, batch, kv_len, phase, hw, &single)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_dense_and_attention_dominate() {
        // Fig. 3: dense + self-attention account for over 90% of the time
        // across batch sizes.
        let hw = HardwareProfile::rtx4090();
        let cfg = LlamaGpuConfig::llama7b();
        for batch in [8, 32, 128, 256] {
            let b = iteration_breakdown(&cfg, SimScheme::Fp16, batch, 1024, Phase::Decode, &hw);
            assert!(
                b.bottleneck_fraction() > 0.9,
                "batch {batch}: bottleneck fraction {}",
                b.bottleneck_fraction()
            );
        }
    }

    #[test]
    fn attention_share_grows_with_batch() {
        // Fig. 3's visible trend: self-attention (KV traffic) takes an
        // increasing share as batch grows.
        let hw = HardwareProfile::rtx4090();
        let cfg = LlamaGpuConfig::llama7b();
        let share = |batch| {
            let b = iteration_breakdown(&cfg, SimScheme::Fp16, batch, 1024, Phase::Decode, &hw);
            b.attention_s / b.total_s()
        };
        assert!(share(256) > share(8));
    }

    #[test]
    fn atom_iteration_faster_than_all_baselines() {
        let hw = HardwareProfile::rtx4090();
        let cfg = LlamaGpuConfig::llama7b();
        let total = |s| {
            iteration_breakdown(&cfg, s, 64, 1024, Phase::Decode, &hw).total_s()
        };
        let fp16 = total(SimScheme::Fp16);
        let w4a16 = total(SimScheme::W4A16);
        let w8a8 = total(SimScheme::W8A8);
        let atom = total(SimScheme::AtomW4A4);
        assert!(atom < w8a8 && w8a8 < fp16, "{atom} {w8a8} {fp16}");
        assert!(atom < w4a16, "{atom} vs {w4a16}");
    }

    #[test]
    fn latency_grows_with_batch_but_stays_sub_100ms() {
        // Fig. 10b: Atom's decode latency stays below 100 ms even at batch
        // 256 (the human reading-speed target).
        let hw = HardwareProfile::rtx4090();
        let cfg = LlamaGpuConfig::llama7b();
        let latency = |scheme, batch| {
            iteration_breakdown(&cfg, scheme, batch, 1024, Phase::Decode, &hw).total_s()
        };
        let lat256 = latency(SimScheme::AtomW4A4, 256);
        assert!(lat256 > latency(SimScheme::AtomW4A4, 8));
        assert!(lat256 < 0.100, "Atom at batch 256: {lat256}s");
        // FP16 at batch 256 blows past the same target.
        assert!(latency(SimScheme::Fp16, 256) > lat256 * 2.0);
    }

    #[test]
    fn w4a16_good_at_small_batch_bad_at_large() {
        // The crossover the paper's Fig. 11a shows.
        let hw = HardwareProfile::rtx4090();
        let cfg = LlamaGpuConfig::llama7b();
        let ratio = |batch| {
            let f = iteration_breakdown(&cfg, SimScheme::Fp16, batch, 512, Phase::Decode, &hw);
            let w = iteration_breakdown(&cfg, SimScheme::W4A16, batch, 512, Phase::Decode, &hw);
            f.dense_s / w.dense_s
        };
        assert!(ratio(1) > 2.0, "weight-only should win at batch 1");
        assert!(ratio(512) < 1.1, "weight-only gains vanish at batch 512");
    }

    #[test]
    fn prefill_is_compute_heavy() {
        let hw = HardwareProfile::rtx4090();
        let cfg = LlamaGpuConfig::llama7b();
        let decode = iteration_breakdown(&cfg, SimScheme::Fp16, 8, 512, Phase::Decode, &hw);
        let prefill = iteration_breakdown(
            &cfg,
            SimScheme::Fp16,
            8,
            0,
            Phase::Prefill { q_len: 512 },
            &hw,
        );
        // Prefill does 512x the dense FLOPs of a decode step; the decode
        // step is memory bound on weights, so the latency gap is smaller
        // but still large.
        assert!(prefill.dense_s > decode.dense_s * 10.0);
    }

    #[test]
    fn op_list_shape() {
        let cfg = LlamaGpuConfig::llama7b();
        let ops = iteration_ops(&cfg, SimScheme::AtomW4A4, 4, 128, Phase::Decode);
        // 7 ops per layer (2 norms, 4 GEMMs, attention) + 2 tail ops.
        assert_eq!(ops.len(), cfg.layers * 7 + 2);
    }
}
