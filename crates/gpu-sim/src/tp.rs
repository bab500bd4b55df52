//! Tensor-parallel serving model (paper footnote 2).
//!
//! The paper notes that "with quantization, pipelining, and tensor
//! parallelism to amortize weights, it is practical to deploy a 180B model
//! with a 256 batch size in the serving scenario". This module extends the
//! roofline model with Megatron-style tensor parallelism so that claim is
//! checkable: QKV/gate/up shard column-parallel, O/down shard row-parallel,
//! attention heads shard across GPUs, and each transformer block pays two
//! ring all-reduces of the `tokens x dim` activation over the interconnect.

use crate::cost::{op_time, Op};
use crate::graph::{iteration_ops, Breakdown, LlamaGpuConfig, OpClass, Phase, SimScheme};
use crate::hardware::HardwareProfile;
use serde::{Deserialize, Serialize};

/// Tensor-parallel execution parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TpConfig {
    /// Number of GPUs the model shards across (1 = no TP).
    pub degree: usize,
    /// Per-GPU interconnect bandwidth for collectives, GB/s (NVLink on
    /// A100: ~600 GB/s; PCIe-class: ~32 GB/s).
    pub interconnect_gbps: f64,
}

impl TpConfig {
    /// Single-GPU (no parallelism).
    pub fn single() -> Self {
        TpConfig {
            degree: 1,
            interconnect_gbps: f64::INFINITY,
        }
    }

    /// NVLink-connected A100 pod of `degree` GPUs.
    pub fn nvlink(degree: usize) -> Self {
        TpConfig {
            degree,
            interconnect_gbps: 600.0,
        }
    }

    /// Ring all-reduce time for `bytes` of payload: each GPU moves
    /// `2 (N-1)/N * bytes` over its link.
    pub fn allreduce_seconds(&self, bytes: f64) -> f64 {
        if self.degree <= 1 {
            return 0.0;
        }
        let n = self.degree as f64;
        2.0 * (n - 1.0) / n * bytes / (self.interconnect_gbps * 1e9)
    }
}

/// Larger-model configs the single-GPU experiments cannot hold.
impl LlamaGpuConfig {
    /// Llama-2-70B-like dense shapes.
    pub fn llama70b() -> Self {
        LlamaGpuConfig {
            dim: 8192,
            layers: 80,
            heads: 64,
            ffn_dim: 28672,
            vocab: 32000,
        }
    }

    /// A 180B-class dense model (the footnote's deployment target;
    /// Falcon-180B-like shapes).
    pub fn llama180b() -> Self {
        LlamaGpuConfig {
            dim: 14848,
            layers: 80,
            heads: 64,
            ffn_dim: 59392,
            vocab: 65024,
        }
    }
}

/// One decode/prefill iteration under tensor parallelism: per-GPU latency
/// of the sharded operator graph plus the per-layer all-reduces.
///
/// # Panics
///
/// Panics if `tp.degree` is zero or does not divide the head count.
pub fn iteration_breakdown_tp(
    config: &LlamaGpuConfig,
    scheme: SimScheme,
    batch: usize,
    kv_len: usize,
    phase: Phase,
    hw: &HardwareProfile,
    tp: &TpConfig,
) -> Breakdown {
    assert!(tp.degree > 0, "TP degree must be positive");
    assert!(
        config.heads.is_multiple_of(tp.degree),
        "heads {} not divisible by TP degree {}",
        config.heads,
        tp.degree
    );
    let n = tp.degree;
    let mut b = Breakdown {
        dense_s: 0.0,
        attention_s: 0.0,
        other_s: 0.0,
    };
    for (class, op) in iteration_ops(config, scheme, batch, kv_len, phase) {
        let sharded = shard_op(&op, class, n);
        let t = op_time(&sharded, hw).seconds();
        match class {
            OpClass::Dense => b.dense_s += t,
            OpClass::Attention => b.attention_s += t,
            OpClass::Other => b.other_s += t,
        }
    }
    // Two ring all-reduces per layer (after attention's row-parallel O and
    // after the MLP's row-parallel down), each over the token activations.
    let m = batch * phase.q_len();
    let payload = m as f64 * config.dim as f64 * 2.0; // fp16 activations
    b.other_s += 2.0 * config.layers as f64 * tp.allreduce_seconds(payload);
    b
}

/// Shards one operator across `n` GPUs.
fn shard_op(op: &Op, class: OpClass, n: usize) -> Op {
    match *op {
        // Dense GEMMs shard their weight matrix (column- or row-parallel;
        // either way each GPU holds 1/n of the weights and does 1/n of the
        // FLOPs — the larger of n/n' and k/n' split is what matters for the
        // roofline, and both divide evenly).
        Op::Gemm {
            m,
            n: out,
            k,
            weight_bits,
            act_bits,
            compute,
        } if class == OpClass::Dense => Op::Gemm {
            m,
            n: (out / n).max(1),
            k,
            weight_bits,
            act_bits,
            compute,
        },
        // Attention shards heads (each GPU holds its heads' KV).
        Op::Attention {
            batch,
            heads,
            head_dim,
            kv_len,
            q_len,
            kv_bits,
        } => Op::Attention {
            batch,
            heads: (heads / n).max(1),
            head_dim,
            kv_len,
            q_len,
            kv_bits,
        },
        // LM head and elementwise work stays replicated (the LM head is a
        // small fraction; norms are memory-trivial).
        other => other,
    }
}

/// Maximum batch of a TP deployment: each GPU holds `weights/n` plus its
/// head-sharded slice of the KV pool.
pub fn max_batch_tp(
    config: &LlamaGpuConfig,
    scheme: SimScheme,
    hw: &HardwareProfile,
    tp: &TpConfig,
    avg_context: usize,
) -> usize {
    let mem = crate::memory::MemoryModel::new(*config, scheme, hw.mem_bytes);
    let usable = hw.mem_bytes as f64 * (1.0 - mem.workspace_frac);
    let weights_per_gpu = mem.weight_bytes() / tp.degree as f64;
    let kv_per_token_per_gpu = mem.kv_bytes_per_token() / tp.degree as f64;
    let pool = (usable - weights_per_gpu).max(0.0);
    let per_seq = kv_per_token_per_gpu * avg_context as f64;
    if per_seq <= 0.0 {
        return 0;
    }
    (pool / per_seq) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allreduce_math() {
        let tp = TpConfig::nvlink(4);
        // 2 * 3/4 * bytes / bw.
        let t = tp.allreduce_seconds(600e9);
        assert!((t - 1.5).abs() < 1e-9);
        assert_eq!(TpConfig::single().allreduce_seconds(1e9), 0.0);
    }

    #[test]
    fn tp_speeds_up_memory_bound_decode() {
        // At small batch the dense layers are weight-streaming bound, so
        // sharding weights across 4 GPUs cuts iteration latency several-fold.
        let hw = HardwareProfile::a100();
        let cfg = LlamaGpuConfig::llama70b();
        let single = iteration_breakdown_tp(
            &cfg, SimScheme::Fp16, 8, 512, Phase::Decode, &hw, &TpConfig::single(),
        );
        let tp4 = iteration_breakdown_tp(
            &cfg, SimScheme::Fp16, 8, 512, Phase::Decode, &hw, &TpConfig::nvlink(4),
        );
        assert!(
            tp4.total_s() < single.total_s() / 2.0,
            "{} vs {}",
            tp4.total_s(),
            single.total_s()
        );
    }

    #[test]
    fn allreduce_overhead_grows_with_slow_interconnect() {
        let hw = HardwareProfile::a100();
        let cfg = LlamaGpuConfig::llama70b();
        let fast = iteration_breakdown_tp(
            &cfg, SimScheme::AtomW4A4, 64, 1024, Phase::Decode, &hw, &TpConfig::nvlink(8),
        );
        let slow = iteration_breakdown_tp(
            &cfg,
            SimScheme::AtomW4A4,
            64,
            1024,
            Phase::Decode,
            &hw,
            &TpConfig {
                degree: 8,
                interconnect_gbps: 32.0, // PCIe-class
            },
        );
        assert!(slow.other_s > fast.other_s * 5.0);
        assert!(slow.total_s() > fast.total_s());
    }

    #[test]
    fn footnote2_claim_180b_at_batch_256() {
        // Paper footnote 2: with quantization + TP it is practical to
        // deploy a 180B model with a 256 batch. On 8xA100-80GB:
        let hw = HardwareProfile::a100_80gb();
        let cfg = LlamaGpuConfig::llama180b();
        let tp = TpConfig::nvlink(8);
        let ctx = 700;
        let atom = max_batch_tp(&cfg, SimScheme::AtomW4A4, &hw, &tp, ctx);
        let fp16 = max_batch_tp(&cfg, SimScheme::Fp16, &hw, &tp, ctx);
        assert!(atom >= 256, "Atom 180B max batch {atom}");
        assert!(fp16 < atom / 4, "FP16 180B max batch {fp16} vs Atom {atom}");
        // And the decode latency at 256 stays reasonable on the simulator.
        let b = iteration_breakdown_tp(
            &cfg, SimScheme::AtomW4A4, 256, ctx, Phase::Decode, &hw, &tp,
        );
        assert!(b.total_s() < 0.2, "180B@256 decode {}s", b.total_s());
    }

    #[test]
    #[should_panic(expected = "not divisible by TP degree")]
    fn degree_must_divide_heads() {
        let hw = HardwareProfile::a100();
        let cfg = LlamaGpuConfig::llama7b();
        iteration_breakdown_tp(
            &cfg,
            SimScheme::Fp16,
            1,
            64,
            Phase::Decode,
            &hw,
            &TpConfig {
                degree: 7,
                interconnect_gbps: 600.0,
            },
        );
    }
}
