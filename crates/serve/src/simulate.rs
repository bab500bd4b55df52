//! End-to-end serving simulator (paper Fig. 10).
//!
//! Drives the continuous batcher over a ShareGPT-like trace, costing every
//! iteration with the `atom-gpu-sim` roofline model. Reports the paper's
//! two end-to-end metrics — generated tokens per second and average decode
//! latency per token (queuing excluded, §5.3.2) — plus memory statistics
//! for the fixed-memory comparison of Fig. 10c.

use crate::error::ServeError;
use crate::paged::PagedAllocator;
use crate::scheduler::ContinuousBatcher;
use atom_data::Request;
use atom_gpu_sim::graph::{iteration_breakdown, Phase};
use atom_gpu_sim::{HardwareProfile, LlamaGpuConfig, MemoryModel, SimScheme};
use serde::{Deserialize, Serialize};

/// Results of one serving run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingReport {
    /// Scheme label.
    pub scheme: &'static str,
    /// Batch-size cap of the run.
    pub max_batch: usize,
    /// Generated tokens per second (decode tokens / total busy time).
    pub throughput_tps: f64,
    /// Mean decode-iteration latency per token, seconds.
    pub avg_decode_latency_s: f64,
    /// 99th-percentile decode latency, seconds.
    pub p99_decode_latency_s: f64,
    /// Requests completed.
    pub finished: usize,
    /// Total simulated busy time, seconds.
    pub busy_s: f64,
    /// Peak KV blocks in use.
    pub peak_kv_blocks: usize,
    /// Mean prefill-iteration latency (the time-to-first-token a request
    /// pays once admitted, queuing excluded), seconds.
    pub avg_prefill_latency_s: f64,
    /// Requests rejected at submission (oversized for the KV pool).
    pub rejected: usize,
    /// Recompute preemptions over the run.
    pub preemptions: usize,
}

/// Discrete-iteration serving simulator.
#[derive(Debug, Clone)]
pub struct ServingSimulator {
    /// Model architecture (GPU scale).
    pub config: LlamaGpuConfig,
    /// Device profile.
    pub hw: HardwareProfile,
    /// Serving scheme.
    pub scheme: SimScheme,
    /// Batch-size cap.
    pub max_batch: usize,
    /// KV block size in tokens.
    pub block_size: usize,
}

impl ServingSimulator {
    /// Creates a simulator whose KV pool is sized from the device memory
    /// left after the scheme's weights (the Fig. 10c regime).
    pub fn with_device_memory(
        config: LlamaGpuConfig,
        hw: HardwareProfile,
        scheme: SimScheme,
        max_batch: usize,
    ) -> Self {
        ServingSimulator {
            config,
            hw,
            scheme,
            max_batch,
            block_size: 16,
        }
    }

    fn build_allocator(&self) -> PagedAllocator {
        let mem = MemoryModel::new(self.config, self.scheme, self.hw.mem_bytes);
        PagedAllocator::for_budget(mem.kv_pool_bytes(), mem.kv_bytes_per_token(), self.block_size)
    }

    /// Runs the trace to completion (offline throughput protocol: all
    /// requests available, FCFS, continuous refill — §5.3.2).
    ///
    /// Requests whose final context exceeds the KV pool are rejected at
    /// submission and counted in [`ServingReport::rejected`] rather than
    /// stalling the run.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::EmptyTrace`] for an empty trace,
    /// [`ServeError::InvalidConfig`] for a zero batch cap, and
    /// [`ServeError::Stalled`] if the scheduler ever stops making progress
    /// (an internal invariant breach, unreachable for validated traces).
    pub fn run(&self, trace: &[Request]) -> Result<ServingReport, ServeError> {
        if trace.is_empty() {
            return Err(ServeError::EmptyTrace);
        }
        let mut batcher = ContinuousBatcher::new(self.max_batch, self.build_allocator())?;
        let mut rejected = 0usize;
        for &r in trace {
            if batcher.submit(r).is_err() {
                rejected += 1;
            }
        }

        let mut busy_s = 0.0f64;
        let mut decode_tokens = 0u64;
        let mut decode_latencies: Vec<f64> = Vec::new();
        let mut prefill_latencies: Vec<f64> = Vec::new();
        let mut stall_guard = 0usize;
        let mut step = 0usize;

        while !batcher.is_idle() {
            step += 1;
            batcher.admit();
            // Prefill the newly admitted requests (batched prefill phase).
            let fresh = batcher.complete_prefill();
            if !fresh.is_empty() {
                let total_prompt: usize = fresh.iter().map(|r| r.prefill_tokens).sum();
                let q_len = (total_prompt / fresh.len()).max(1);
                let b = iteration_breakdown(
                    &self.config,
                    self.scheme,
                    fresh.len(),
                    0,
                    Phase::Prefill { q_len },
                    &self.hw,
                );
                busy_s += b.total_s();
                prefill_latencies.push(b.total_s());
            }

            // One decode iteration over the whole batch.
            let batch = batcher.decoding();
            if batch > 0 {
                let kv_len = batcher.mean_context() as usize;
                let b = iteration_breakdown(
                    &self.config,
                    self.scheme,
                    batch,
                    kv_len,
                    Phase::Decode,
                    &self.hw,
                );
                let dt = b.total_s();
                busy_s += dt;
                batcher.step_decode();
                let advanced = batcher.last_advanced();
                if advanced > 0 {
                    decode_latencies.push(dt);
                    decode_tokens += advanced as u64;
                    stall_guard = 0;
                } else {
                    // Memory pressure: the batcher preempted a sequence
                    // (recompute-style); the iteration still took time.
                    stall_guard += 1;
                }
            } else {
                stall_guard += 1;
            }
            // Admission validation makes true stalls unreachable; if one
            // ever appears it is an invariant breach, surfaced as a typed
            // error instead of a panic or an infinite loop.
            if stall_guard >= 10_000 {
                return Err(ServeError::Stalled { step });
            }
        }

        decode_latencies.sort_by(f64::total_cmp);
        let avg = decode_latencies.iter().sum::<f64>() / decode_latencies.len().max(1) as f64;
        let p99 = decode_latencies
            .get((decode_latencies.len().saturating_sub(1)) * 99 / 100)
            .copied()
            .unwrap_or(0.0);
        let avg_prefill = prefill_latencies.iter().sum::<f64>()
            / prefill_latencies.len().max(1) as f64;
        Ok(ServingReport {
            scheme: self.scheme.label(),
            max_batch: self.max_batch,
            // Every request rejected at submission: nothing ran, 0 / 0.
            throughput_tps: if busy_s > 0.0 { decode_tokens as f64 / busy_s } else { 0.0 },
            avg_decode_latency_s: avg,
            p99_decode_latency_s: p99,
            finished: batcher.finished(),
            busy_s,
            peak_kv_blocks: batcher.allocator().peak_used(),
            avg_prefill_latency_s: avg_prefill,
            rejected,
            preemptions: batcher.preemptions(),
        })
    }

    /// Analytic steady-state point (used for the dashed extrapolated lines
    /// of Fig. 10a/b): decode-iteration latency at exactly `batch`
    /// sequences with `avg_context` cached tokens, ignoring admission.
    pub fn steady_state(&self, batch: usize, avg_context: usize) -> (f64, f64) {
        let b = iteration_breakdown(
            &self.config,
            self.scheme,
            batch,
            avg_context,
            Phase::Decode,
            &self.hw,
        );
        let latency = b.total_s();
        (batch as f64 / latency, latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atom_data::WorkloadSpec;

    fn small_trace(n: usize) -> Vec<Request> {
        let spec = WorkloadSpec {
            max_context: 1024,
            ..WorkloadSpec::default()
        };
        spec.generate(n, 42)
    }

    fn sim(scheme: SimScheme, batch: usize) -> ServingSimulator {
        ServingSimulator::with_device_memory(
            LlamaGpuConfig::llama7b(),
            HardwareProfile::rtx4090(),
            scheme,
            batch,
        )
    }

    #[test]
    fn all_requests_finish() {
        let trace = small_trace(24);
        let report = sim(SimScheme::AtomW4A4, 8).run(&trace).unwrap();
        assert_eq!(report.finished, 24);
        assert!(report.throughput_tps > 0.0);
        assert!(report.avg_decode_latency_s > 0.0);
        assert!(report.p99_decode_latency_s >= report.avg_decode_latency_s);
        // Prefill processes hundreds of prompt tokens, so its iteration
        // latency (TTFT) exceeds a single decode step's.
        assert!(report.avg_prefill_latency_s > report.avg_decode_latency_s);
    }

    #[test]
    fn atom_beats_baselines_in_throughput() {
        // Fig. 10a ordering at a fixed batch.
        let trace = small_trace(32);
        let tput = |scheme| sim(scheme, 16).run(&trace).unwrap().throughput_tps;
        let fp16 = tput(SimScheme::Fp16);
        let w4a16 = tput(SimScheme::W4A16);
        let w8a8 = tput(SimScheme::W8A8);
        let atom = tput(SimScheme::AtomW4A4);
        assert!(atom > w8a8, "atom {atom} vs w8a8 {w8a8}");
        assert!(w8a8 > fp16, "w8a8 {w8a8} vs fp16 {fp16}");
        assert!(atom > w4a16, "atom {atom} vs w4a16 {w4a16}");
    }

    #[test]
    fn throughput_grows_with_batch() {
        let trace = small_trace(64);
        let t8 = sim(SimScheme::AtomW4A4, 8).run(&trace).unwrap().throughput_tps;
        let t32 = sim(SimScheme::AtomW4A4, 32).run(&trace).unwrap().throughput_tps;
        assert!(t32 > 1.5 * t8, "batching effect missing: {t8} -> {t32}");
    }

    #[test]
    fn latency_grows_with_batch_but_stays_sub_100ms() {
        // Fig. 10b: Atom's decode latency stays below 100 ms even at batch
        // 256 (the human reading-speed target).
        let s = sim(SimScheme::AtomW4A4, 256);
        let (_, lat256) = s.steady_state(256, 1024);
        let (_, lat8) = s.steady_state(8, 1024);
        assert!(lat256 > lat8);
        assert!(lat256 < 0.100, "Atom at batch 256: {lat256}s");
        // FP16 at batch 256 blows past the same target.
        let (_, fp16_lat) = sim(SimScheme::Fp16, 256).steady_state(256, 1024);
        assert!(fp16_lat > lat256 * 2.0);
    }

    #[test]
    fn fig10_headline_speedups() {
        // Fixed-memory comparison: each scheme runs at its own max batch
        // (Fig. 10c): Atom ~7.7x FP16 and ~2.5x W8A8 throughput.
        let trace = small_trace(48);
        let run_at_max = |scheme| {
            let mem = MemoryModel::new(LlamaGpuConfig::llama7b(), scheme, HardwareProfile::rtx4090().mem_bytes);
            let ctx = 700; // ShareGPT-like mean context
            let batch = mem.max_batch(ctx).clamp(1, 256);
            sim(scheme, batch).run(&trace).unwrap().throughput_tps
        };
        let fp16 = run_at_max(SimScheme::Fp16);
        let w8a8 = run_at_max(SimScheme::W8A8);
        let atom = run_at_max(SimScheme::AtomW4A4);
        let vs_fp16 = atom / fp16;
        let vs_w8a8 = atom / w8a8;
        assert!((4.0..12.0).contains(&vs_fp16), "Atom vs FP16: {vs_fp16}");
        assert!((1.7..3.5).contains(&vs_w8a8), "Atom vs W8A8: {vs_w8a8}");
    }

    #[test]
    fn empty_trace_is_typed_error() {
        let err = sim(SimScheme::AtomW4A4, 8).run(&[]).unwrap_err();
        assert_eq!(err, ServeError::EmptyTrace);
    }

    #[test]
    fn oversized_requests_rejected_not_stalled() {
        // A trace containing a request far beyond any KV pool must not
        // hang the simulator: it is rejected and reported.
        let mut trace = small_trace(8);
        trace.push(Request {
            id: trace.len(),
            arrival_s: 0.0,
            prefill_tokens: 50_000_000,
            decode_tokens: 1_000,
        });
        let report = sim(SimScheme::AtomW4A4, 8).run(&trace).unwrap();
        assert_eq!(report.rejected, 1);
        assert_eq!(report.finished, 8);

        // Nothing but oversized requests: an empty run, not NaN tokens/s
        // (a report holding NaN would not even equal itself).
        let oversized = trace.split_off(8);
        let report = sim(SimScheme::AtomW4A4, 8).run(&oversized).unwrap();
        assert_eq!((report.rejected, report.finished), (1, 0));
        assert_eq!(report.throughput_tps, 0.0);
        assert_eq!(report, report.clone());
    }

    #[test]
    fn steady_state_consistency() {
        let s = sim(SimScheme::W8A8, 64);
        let (tput, lat) = s.steady_state(64, 512);
        assert!((tput - 64.0 / lat).abs() < 1e-9);
    }
}
