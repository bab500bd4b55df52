//! Tags cost-model outputs with the serving stack's telemetry names.
//!
//! The measured CPU path (`atom-kernels`, `atom-nn`, `atom-serve`) and this
//! simulated path record under **identical** metric names from
//! `atom_telemetry::names`, so `telemetry_report` can print the measured
//! Fig. 3-style breakdown next to the roofline prediction key-for-key. The
//! only differences: simulated "wall time" is the roofline latency converted
//! to nanoseconds, and the quantization epilogue — fused into the norm
//! elementwise ops in the graph — is split back out into `op.quant.*` by its
//! share of the elementwise streams.

use crate::cost::{op_time, Op};
use crate::graph::{iteration_ops, LlamaGpuConfig, OpClass, Phase, SimScheme};
use crate::hardware::HardwareProfile;
use atom_telemetry::{names, Telemetry};

/// Records one simulated serving iteration into `telemetry` under the same
/// names the measured path uses, and returns the predicted iteration
/// latency in seconds.
///
/// Pass an enabled instance ([`Telemetry::enabled`]); a disabled one
/// records nothing (and the return value is still correct).
pub fn record_iteration(
    telemetry: &Telemetry,
    config: &LlamaGpuConfig,
    scheme: SimScheme,
    batch: usize,
    kv_len: usize,
    phase: Phase,
    hw: &HardwareProfile,
) -> f64 {
    let ep = scheme.epilogue_streams();
    let mut total_s = 0.0;
    for (class, op) in iteration_ops(config, scheme, batch, kv_len, phase) {
        let t = op_time(&op, hw);
        let secs = t.seconds();
        total_s += secs;
        let ns = (secs * 1e9).round() as u64;
        match (class, &op) {
            (OpClass::Dense, Op::Gemm { m, .. }) => {
                telemetry.record(names::OP_GEMM_WALL_NS, ns);
                telemetry.counter_add(names::OP_GEMM_BYTES, t.bytes as u64);
                telemetry.counter_add(names::OP_GEMM_ROWS, *m as u64);
                telemetry.counter_add(names::OP_GEMM_CALLS, 1);
            }
            (OpClass::Attention, _) => {
                telemetry.record(names::OP_ATTENTION_WALL_NS, ns);
                telemetry.counter_add(names::OP_ATTENTION_BYTES, t.bytes as u64);
                telemetry.counter_add(names::OP_ATTENTION_CALLS, 1);
            }
            (_, Op::Elementwise { streams, .. }) if ep > 0.0 && *streams > 2.0 => {
                // Roofline time is linear in streams on both the compute
                // and memory axes, so the fused quantization epilogue's
                // share of this op is exactly its share of the streams.
                let quant_frac = ep / streams;
                let quant_ns = (secs * quant_frac * 1e9).round() as u64;
                telemetry.record(names::OP_QUANT_WALL_NS, quant_ns);
                telemetry.counter_add(names::OP_QUANT_CALLS, 1);
                telemetry.record(names::OP_OTHER_WALL_NS, ns.saturating_sub(quant_ns));
            }
            _ => {
                telemetry.record(names::OP_OTHER_WALL_NS, ns);
            }
        }
    }
    telemetry.record(names::MODEL_FORWARD_WALL_NS, (total_s * 1e9).round() as u64);
    total_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::iteration_breakdown;

    #[test]
    fn simulated_metrics_use_measured_names_and_sum_to_breakdown() {
        let hw = HardwareProfile::rtx4090();
        let cfg = LlamaGpuConfig::llama7b();
        let t = Telemetry::enabled();
        let total =
            record_iteration(&t, &cfg, SimScheme::AtomW4A4, 64, 1024, Phase::Decode, &hw);
        let b = iteration_breakdown(&cfg, SimScheme::AtomW4A4, 64, 1024, Phase::Decode, &hw);
        assert!((total - b.total_s()).abs() < 1e-12);

        let snap = t.metrics().snapshot();
        let gemm_s = snap.hist_sum(names::OP_GEMM_WALL_NS) as f64 / 1e9;
        let attn_s = snap.hist_sum(names::OP_ATTENTION_WALL_NS) as f64 / 1e9;
        let quant_s = snap.hist_sum(names::OP_QUANT_WALL_NS) as f64 / 1e9;
        let other_s = snap.hist_sum(names::OP_OTHER_WALL_NS) as f64 / 1e9;
        // Class sums line up with the Breakdown aggregation (ns rounding).
        assert!((gemm_s - b.dense_s).abs() < 1e-6, "{gemm_s} vs {}", b.dense_s);
        assert!((attn_s - b.attention_s).abs() < 1e-6);
        assert!((quant_s + other_s - b.other_s).abs() < 1e-6);
        assert!(quant_s > 0.0, "Atom scheme has a quant epilogue");
        // Components cover the forward total.
        let fwd_s = snap.hist_sum(names::MODEL_FORWARD_WALL_NS) as f64 / 1e9;
        let parts = gemm_s + attn_s + quant_s + other_s;
        assert!((parts - fwd_s).abs() / fwd_s < 1e-3);
        // Call counts: 4 dense GEMMs and 1 attention per layer.
        assert_eq!(snap.counter(names::OP_GEMM_CALLS), 4 * cfg.layers as u64);
        assert_eq!(snap.counter(names::OP_ATTENTION_CALLS), cfg.layers as u64);
    }

    #[test]
    fn fp16_scheme_records_no_quant_time() {
        let hw = HardwareProfile::rtx4090();
        let cfg = LlamaGpuConfig::llama7b();
        let t = Telemetry::enabled();
        record_iteration(&t, &cfg, SimScheme::Fp16, 8, 256, Phase::Decode, &hw);
        let snap = t.metrics().snapshot();
        assert!(snap.histogram(names::OP_QUANT_WALL_NS).is_none());
    }
}
