//! Names, units, directions and bounds of every workload and metric the
//! benchmark reports. `BENCHMARK.json` at the repository root must say the
//! same (tests/contract.rs compares them), so a name cannot drift between
//! the contract file and the program's output.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// The eight end-to-end metrics, the same on every workload.
///
/// The bounds are set by the host, not by the estimator: two runs in a quiet
/// phase agree within 1-3 %, but this shared machine has phases, a minute or
/// more long, in which everything runs 8-20 % slower (2 of the first 40
/// baseline runs), and the acceptance rule — interquartile distance of ten
/// runs within the bound — fails as soon as three of ten fall in one. See
/// README, "Bounds".
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("out_tok_s", "tok/s", Higher, 0.20),
    e2e("ttft_ms_p50", "ms", Lower, 0.20),
    e2e("ttft_ms_p90", "ms", Lower, 0.20),
    e2e("tpot_ms_p50", "ms", Lower, 0.20),
    e2e("itl_ms_p99", "ms", Lower, 0.20),
    e2e("slo_goodput_frac", "fraction", Higher, 0.20),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// Per-layer metrics of the traced pass; layer = crate.
pub const PER_LAYER: &[MetricDef] = &[
    layer("gateway.offer_us_p50", "us", Lower),
    layer("gateway.accepted", "count", Higher),
    layer("gateway.rejected_rate_limited", "count", Lower),
    layer("gateway.rejected_queue_full", "count", Lower),
    layer("gateway.deadline_exceeded", "count", Lower),
    layer("gateway.retries", "count", Lower),
    layer("gateway.queue_wait_ticks_p50", "ticks", Lower),
    layer("gateway.queue_wait_ticks_p90", "ticks", Lower),
    layer("gateway.queue_depth_max", "requests", Lower),
    layer("serve.ticks", "count", Lower),
    layer("serve.batch_mean", "requests", Higher),
    layer("serve.prefill_tokens", "count", Lower),
    layer("serve.decode_tokens", "count", Lower),
    layer("serve.prefill_ms", "ms", Lower),
    layer("serve.decode_ms", "ms", Lower),
    layer("serve.sched_self_ms", "ms", Lower),
    layer("serve.sched_self_share", "fraction", Lower),
    layer("serve.engine_queue_wait_steps_p90", "steps", Lower),
    layer("serve.preemptions", "count", Lower),
    layer("serve.kv_peak_blocks", "blocks", Lower),
    layer("serve.kv_peak_logical_blocks", "blocks", Lower),
    layer("prefix.hits", "count", Higher),
    layer("prefix.misses", "count", Lower),
    layer("prefix.hit_token_share", "fraction", Higher),
    layer("prefix.insertions", "count", Lower),
    layer("prefix.evictions", "count", Lower),
    layer("prefix.cow_forks", "count", Lower),
    layer("prefix.cached_blocks_end", "blocks", Lower),
    layer("prefix.snapshot_copy_ms", "ms", Lower),
    layer("nn.forward_calls", "count", Lower),
    layer("nn.forward_ms", "ms", Lower),
    layer("nn.attention_self_ms", "ms", Lower),
    layer("nn.other_self_ms", "ms", Lower),
    layer("core.qlinear_calls", "count", Lower),
    layer("core.qlinear_ms", "ms", Lower),
    layer("core.qlinear_m1_us_p50", "us", Lower),
    layer("core.quant_epilogue_ms", "ms", Lower),
    layer("core.kv_append_ms", "ms", Lower),
    layer("core.kv_load_ms", "ms", Lower),
    layer("core.kv_us_per_decode_tok", "us", Lower),
    layer("core.kv_load_bytes", "bytes", Lower),
    layer("core.kv_packed_bytes_peak", "bytes", Lower),
    layer("kernels.gemm_w4a4_m1_us", "us", Lower),
    layer("kernels.gemm_w4a4_m8_us", "us", Lower),
    layer("kernels.gemm_w4a4_m64_us", "us", Lower),
    layer("kernels.gemm_w4a4_m256_us", "us", Lower),
    layer("kernels.gemm_macs_m1", "count", Lower),
    layer("kernels.gemm_weight_bytes", "bytes", Lower),
    layer("kernels.gemm_est_ms", "ms", Lower),
    layer("kernels.group_quantize_m1_us", "us", Lower),
    layer("kernels.attn_kv4_l64_us", "us", Lower),
    layer("kernels.attn_kv4_l512_us", "us", Lower),
    layer("parallel.par_map_overhead_us", "us", Lower),
    layer("parallel.gemm_m64_w2_speedup", "ratio", Higher),
    layer("telemetry.on_out_tok_s", "tok/s", Higher),
    layer("telemetry.overhead_frac", "fraction", Lower),
    layer("trace.overhead_frac", "fraction", Lower),
    layer("trace.spans", "count", Lower),
    layer("quality.self_check_requests", "count", Higher),
    layer("quality.golden_match_frac", "fraction", Higher),
    layer("host.rep_spread_frac", "fraction", Lower),
    layer("host.runqueue_wait_ms", "ms", Lower),
];

pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Measured values in declaration order, each checked against its
/// definition: a value for an undeclared name, or a declared name without a
/// value, is a bug in the harness and panics.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            !self.0.iter().any(|(n, _)| *n == name),
            "metric {name} set twice"
        );
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The values in the order of `defs`, which they must cover exactly.
    pub fn in_order(&self, defs: &'static [MetricDef]) -> Vec<(&'static MetricDef, f64)> {
        for (name, _) in &self.0 {
            assert!(
                defs.iter().any(|d| d.name == *name),
                "metric {name} is not declared"
            );
        }
        defs.iter()
            .map(|d| {
                let v = self
                    .get(d.name)
                    .unwrap_or_else(|| panic!("declared metric {} was not measured", d.name));
                (d, v)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(m.name), "{}", m.name);
            assert!(ok_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} declared twice", m.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }
}
