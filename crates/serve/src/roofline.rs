//! Fig. 10's roofline as a model the serving engine runs.
//!
//! [`RooflineModel`] stands in for a GPU-scale Llama inside [`CpuEngine`]:
//! each batched forward is costed with the `atom-gpu-sim` roofline instead
//! of computed, so the end-to-end comparison of §5.3.2 goes through the
//! engine's own admission, stall handling and recompute preemption. [`serve`]
//! replays a ShareGPT-like trace and reports the paper's two end-to-end
//! metrics — generated tokens per second and mean decode latency per token
//! (queuing excluded) — plus the memory statistics of the fixed-memory
//! comparison (Fig. 10c).

use crate::engine::{BatchModel, CpuEngine};
use crate::error::ServeError;
use atom_data::Request;
use atom_gpu_sim::graph::{iteration_breakdown, Phase};
use atom_gpu_sim::{HardwareProfile, LlamaGpuConfig, MemoryModel, SimScheme};
use atom_nn::kv::Fp32KvCache;
use atom_nn::{KvStore, SeqRows};
use atom_tensor::Matrix;
use std::cell::RefCell;

/// Results of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
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

/// Simulated seconds of every forward the engine ran, by phase.
#[derive(Debug, Default)]
struct Ledger {
    /// Every forward's seconds, summed in the order they ran.
    busy_s: f64,
    prefill_s: Vec<f64>,
    decode_s: Vec<f64>,
    decode_tokens: usize,
}

/// A GPU-scale Llama whose forwards are costed, not computed.
///
/// A batch whose KV stores are all empty is a prefill, costed at kv 0 with
/// the batch's mean prompt length; any other batch is one decode token per
/// sequence, costed at the sequences' mean store length. Either way each
/// store grows by its rows and the logits are zeros, so every sequence
/// generates token 0.
#[derive(Debug)]
pub struct RooflineModel {
    config: LlamaGpuConfig,
    hw: HardwareProfile,
    scheme: SimScheme,
    ledger: RefCell<Ledger>,
}

impl RooflineModel {
    /// The model `config` served under `scheme` on `hw`.
    pub fn new(config: LlamaGpuConfig, hw: HardwareProfile, scheme: SimScheme) -> Self {
        RooflineModel {
            config,
            hw,
            scheme,
            ledger: RefCell::default(),
        }
    }

    /// An engine serving this model with a batch cap of `max_batch`, over
    /// the KV pool the device memory leaves after the scheme's weights (the
    /// Fig. 10c regime), in 16-token blocks. Its KV stores hold zero-width
    /// rows: they only count tokens.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for a zero batch cap or a pool smaller
    /// than one block.
    pub fn engine(self, max_batch: usize) -> Result<CpuEngine<Self>, ServeError> {
        let mem = MemoryModel::new(self.config, self.scheme, self.hw.mem_bytes);
        let pool_tokens = (mem.kv_pool_bytes() / mem.kv_bytes_per_token()) as usize;
        let stores = || Box::new(Fp32KvCache::new(1, 0)) as Box<dyn KvStore>;
        CpuEngine::new(self, Box::new(stores), max_batch, pool_tokens)
    }
}

impl BatchModel for RooflineModel {
    fn forward_batch(&self, batch: &mut [SeqRows<'_>]) -> Matrix {
        let seqs = batch.len();
        let rows: usize = batch.iter().map(|s| s.tokens.len()).sum();
        if seqs == 0 {
            return Matrix::zeros(0, 1);
        }
        // Every prompt is token 0, so a prefix cache of any capacity would
        // make every later prompt a hit; the engine keeps capacity 0, and a
        // prefill therefore always starts from empty stores.
        let prefill = batch.iter().all(|s| s.kv.is_empty(0));
        let (phase, kv_len) = if prefill {
            (Phase::Prefill { q_len: rows / seqs }, 0)
        } else {
            let total: f64 = batch.iter().map(|s| s.kv.len(0) as f64).sum();
            (Phase::Decode, (total / seqs as f64) as usize)
        };
        let b = iteration_breakdown(&self.config, self.scheme, seqs, kv_len, phase, &self.hw);
        let seconds = b.total_s();
        for seq in batch.iter_mut() {
            let none = Matrix::zeros(seq.tokens.len(), 0);
            seq.kv.append(0, &none, &none);
        }
        let mut ledger = self.ledger.borrow_mut();
        ledger.busy_s += seconds;
        if prefill {
            ledger.prefill_s.push(seconds);
        } else {
            ledger.decode_s.push(seconds);
            ledger.decode_tokens += rows;
        }
        Matrix::zeros(rows, 1)
    }
}

/// Replays `trace` to completion on `engine`, fresh from
/// [`RooflineModel::engine`], under the offline throughput protocol of
/// §5.3.2 (every request available at once, FCFS, continuous refill), and
/// reports the run.
///
/// A request whose final context exceeds the KV pool is refused at
/// submission and counted in [`ServingReport::rejected`]; an empty trace
/// reports zeros.
pub fn serve(engine: &mut CpuEngine<RooflineModel>, trace: &[Request]) -> ServingReport {
    let mut rejected = 0;
    for r in trace {
        let refused = engine.submit(vec![0; r.prefill_tokens], r.decode_tokens, None);
        rejected += usize::from(refused.is_err());
    }
    engine.run_to_completion();
    let Ledger {
        busy_s,
        prefill_s,
        mut decode_s,
        decode_tokens,
    } = engine.model().ledger.take();
    decode_s.sort_by(f64::total_cmp);
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len().max(1) as f64;
    let p99 = decode_s.get(decode_s.len().saturating_sub(1) * 99 / 100);
    ServingReport {
        // Every request rejected at submission: nothing ran, 0 / 0.
        throughput_tps: if busy_s > 0.0 {
            decode_tokens as f64 / busy_s
        } else {
            0.0
        },
        avg_decode_latency_s: mean(&decode_s),
        p99_decode_latency_s: p99.copied().unwrap_or(0.0),
        finished: engine.completed_count(),
        busy_s,
        peak_kv_blocks: engine.batcher().allocator().peak_used(),
        avg_prefill_latency_s: mean(&prefill_s),
        rejected,
        preemptions: engine.batcher().preemptions(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Terminal;
    use atom_data::WorkloadSpec;
    use std::collections::BTreeSet;

    fn small_trace(n: usize) -> Vec<Request> {
        let spec = WorkloadSpec {
            max_context: 1024,
            ..WorkloadSpec::default()
        };
        spec.generate(n, 42)
    }

    fn model(scheme: SimScheme) -> RooflineModel {
        let (config, hw) = (LlamaGpuConfig::llama7b(), HardwareProfile::rtx4090());
        RooflineModel::new(config, hw, scheme)
    }

    fn memory(scheme: SimScheme) -> MemoryModel {
        let m = model(scheme);
        MemoryModel::new(m.config, scheme, m.hw.mem_bytes)
    }

    fn run(scheme: SimScheme, batch: usize, trace: &[Request]) -> ServingReport {
        let mut engine = model(scheme).engine(batch).expect("valid config");
        serve(&mut engine, trace)
    }

    /// One forward of `m` over `stores`, `rows[i]` token rows for store `i`.
    fn forward(m: &RooflineModel, stores: &mut [Fp32KvCache], rows: &[usize]) -> Matrix {
        let tokens: Vec<Vec<u16>> = rows.iter().map(|&n| vec![0; n]).collect();
        let mut batch: Vec<SeqRows> = stores
            .iter_mut()
            .zip(&tokens)
            .map(|(kv, tokens)| SeqRows { tokens, kv })
            .collect();
        m.forward_batch(&mut batch)
    }

    #[test]
    fn all_requests_finish() {
        let trace = small_trace(24);
        let report = run(SimScheme::AtomW4A4, 8, &trace);
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
        let tput = |scheme| run(scheme, 16, &trace).throughput_tps;
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
        let t8 = run(SimScheme::AtomW4A4, 8, &trace).throughput_tps;
        let t32 = run(SimScheme::AtomW4A4, 32, &trace).throughput_tps;
        assert!(t32 > 1.5 * t8, "batching effect missing: {t8} -> {t32}");
    }

    #[test]
    fn fig10_headline_speedups() {
        // Fixed-memory comparison: each scheme runs at its own max batch
        // (Fig. 10c): Atom ~7.7x FP16 and ~2.5x W8A8 throughput.
        let trace = small_trace(48);
        let run_at_max = |scheme| {
            let ctx = 700; // ShareGPT-like mean context
            let batch = memory(scheme).max_batch(ctx).clamp(1, 256);
            run(scheme, batch, &trace).throughput_tps
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
    fn empty_trace_is_a_zero_report() {
        let report = run(SimScheme::AtomW4A4, 8, &[]);
        let counts = (report.finished, report.rejected, report.peak_kv_blocks);
        assert_eq!(counts, (0, 0, 0));
        assert_eq!((report.throughput_tps, report.busy_s), (0.0, 0.0));
    }

    #[test]
    fn oversized_requests_rejected_not_stalled() {
        // A trace containing a request far beyond any KV pool must not
        // hang the engine: it is rejected and reported.
        let mut trace = small_trace(8);
        trace.push(Request {
            id: trace.len(),
            arrival_s: 0.0,
            prefill_tokens: 1_000_000,
            decode_tokens: 1_000,
        });
        let report = run(SimScheme::AtomW4A4, 8, &trace);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.finished, 8);

        // Nothing but oversized requests: an empty run, not NaN tokens/s
        // (a report holding NaN would not even equal itself).
        let oversized = trace.split_off(8);
        let report = run(SimScheme::AtomW4A4, 8, &oversized);
        assert_eq!((report.rejected, report.finished), (1, 0));
        assert_eq!(report.throughput_tps, 0.0);
        assert_eq!(report, report.clone());
    }

    #[test]
    fn pool_is_sized_from_the_kv_budget() {
        // The pool holds the device memory left after the weights, in whole
        // 16-token blocks: a request of exactly that many tokens fits, one
        // token more is refused.
        let scheme = SimScheme::AtomW4A4;
        let mem = memory(scheme);
        let slots = (mem.kv_pool_bytes() / mem.kv_bytes_per_token()) as usize / 16 * 16;
        let request = |id, prefill_tokens| Request {
            id,
            arrival_s: 0.0,
            prefill_tokens,
            decode_tokens: 1,
        };
        let report = run(scheme, 8, &[request(0, slots - 1), request(1, slots)]);
        assert_eq!((report.finished, report.rejected), (1, 1));
        assert_eq!(report.peak_kv_blocks, slots / 16);
    }

    #[test]
    fn forwards_are_costed_by_phase_and_grow_the_stores() {
        let m = model(SimScheme::W8A8);
        let mut stores = [Fp32KvCache::new(1, 0), Fp32KvCache::new(1, 0)];
        let lens = |stores: &[Fp32KvCache; 2]| stores.each_ref().map(|s| s.len(0));
        // A prefill of 5 + 8 prompt rows: q_len is their truncated mean, 6.
        let logits = forward(&m, &mut stores, &[5, 8]);
        assert_eq!(logits.shape(), (13, 1));
        assert!(logits.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(lens(&stores), [5, 8]);
        // One decode row each over stores of 5 and 8: kv 6 (6.5 truncated).
        forward(&m, &mut stores, &[1, 1]);
        assert_eq!(lens(&stores), [6, 9]);
        let cost =
            |kv, phase| iteration_breakdown(&m.config, m.scheme, 2, kv, phase, &m.hw).total_s();
        let ledger = m.ledger.take();
        assert_eq!(ledger.prefill_s, [cost(0, Phase::Prefill { q_len: 6 })]);
        assert_eq!(ledger.decode_s, [cost(6, Phase::Decode)]);
        assert_eq!(ledger.decode_tokens, 2);
        assert_eq!(ledger.busy_s, ledger.prefill_s[0] + ledger.decode_s[0]);
    }

    #[test]
    fn fp16_arm_preempts_through_the_engine() {
        // Fig. 10c's FP16 arm: seed 7, 192 requests at its max batch of 25.
        // Its pool runs dry mid-decode, so the engine preempts (recompute)
        // and every request still completes exactly once, in full.
        let trace = WorkloadSpec::default().generate(192, 7);
        let mut engine = model(SimScheme::Fp16).engine(25).expect("valid config");
        let report = serve(&mut engine, &trace);
        assert!(report.preemptions >= 1, "no preemption: {report:?}");
        assert_eq!(report.preemptions, engine.batcher().preemptions());
        let outcomes = engine.outcomes();
        let preempted: usize = outcomes.iter().map(|o| o.stats.preemptions).sum();
        assert_eq!(preempted, report.preemptions);
        let ids: BTreeSet<usize> = outcomes.iter().map(|o| o.id).collect();
        assert_eq!((outcomes.len(), ids.len()), (trace.len(), trace.len()));
        for o in outcomes {
            let want = (&Terminal::Completed, trace[o.id].decode_tokens);
            assert_eq!((&o.terminal, o.tokens.len()), want, "request {}", o.id);
        }
        assert_eq!(report.finished, trace.len());
        let alloc = engine.batcher().allocator();
        alloc.leak_check().expect("no leaked block");
        assert_eq!(alloc.used_blocks(), 0);
    }
}
