//! `atom-benchmark trace`: the per-layer pass.
//!
//! A separate invocation from the end-to-end pass, so its overhead never
//! touches an end-to-end number. Three kinds of repetition, interleaved so
//! a slow phase of the host hits them alike: plain (the baseline for the
//! two overheads), traced (decorated model and KV cache, harness spans
//! around `offer` and `tick`), and plain with `Telemetry::enable_global()`.
//! Per tick, the fastest traced repetition supplies that tick's spans.

use std::collections::BTreeMap;

use atom_gateway::GatewayTerminal;
use atom_nn::KvStore;
use atom_telemetry::Telemetry;

use crate::checks;
use crate::metrics::{Values, PER_LAYER};
use crate::probes::Probes;
use crate::replay::{replay, Repetition, TickDomain};
use crate::report::{Options, RunResult};
use crate::run::{
    header, rep_spread_frac, repetitions, require_identical, require_single_thread, timing_text,
};
use crate::system;
use crate::timeline::{self, percentile};
use crate::trace::{self, attribute, Kind, LayerTimes, LinearShape, Span, TimedKv, TimedLinear};
use crate::workload;

/// Repetitions of each kind.
pub const TRACE_REPETITIONS: usize = 5;

/// Run-queue wait of this process so far, ms (`/proc/self/schedstat`,
/// second field).
fn runqueue_wait_ms() -> f64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map_or(f64::NAN, |ns| ns / 1e6)
}

/// The traced pass interleaves three kinds of repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RepKind {
    /// The baseline of the two overheads.
    Plain,
    /// Decorated model and KV cache, harness spans around `offer`/`tick`.
    Traced,
    /// Plain, with `Telemetry::enable_global()`.
    Telemetry,
}

struct Rep {
    kind: RepKind,
    rep: Repetition,
    /// What the recorder held afterwards: empty unless `Traced`.
    spans: Vec<Span>,
    kv_peak_bytes: u64,
}

impl Rep {
    /// The spans of timed region `k`.
    fn tick_spans(&self, k: usize) -> &[Span] {
        let from = if k == 0 {
            0
        } else {
            self.rep.span_marks[k - 1]
        };
        &self.spans[from..self.rep.span_marks[k]]
    }
}

fn p_of(mut v: Vec<u64>, p: f64) -> f64 {
    v.sort_unstable();
    percentile(&v, p).map_or(0.0, |x| x as f64)
}

pub fn per_layer(opts: &Options) -> Result<RunResult, String> {
    let run_start = std::time::Instant::now();
    require_single_thread()?;
    let runqueue_before = runqueue_wait_ms();
    let want = if opts.quick { 1 } else { TRACE_REPETITIONS };
    let workload = workload::generate(
        &opts.workload,
        opts.seed,
        system::model_config().vocab,
        opts.quick,
    );
    let (model, _) = system::build_model();
    let timed_model = model.clone().map_linears(TimedLinear::new);

    // Kinds interleaved, so a slow phase of the host hits them alike.
    let kinds = [RepKind::Plain, RepKind::Traced, RepKind::Telemetry];
    let all = repetitions(kinds.len() * want, run_start, opts.seconds, |i| {
        let kind = kinds[i % kinds.len()];
        let _ = trace::take();
        let rep = match kind {
            RepKind::Plain => replay(
                system::plain_gateway(model.clone(), &workload),
                &workload,
                false,
            ),
            RepKind::Traced => {
                let gw = system::gateway(timed_model.clone(), &workload, || {
                    Box::new(TimedKv::new(system::new_kv_cache())) as Box<dyn KvStore>
                });
                replay(gw, &workload, true)
            }
            RepKind::Telemetry => {
                Telemetry::enable_global();
                let rep = replay(
                    system::plain_gateway(model.clone(), &workload),
                    &workload,
                    false,
                );
                Telemetry::disable_global();
                // The global tracer keeps every span until drained.
                drop(Telemetry::global().tracer().drain());
                rep
            }
        }?;
        let (spans, kv_peak_bytes) = trace::take();
        Ok(Rep {
            kind,
            rep,
            spans,
            kv_peak_bytes,
        })
    })?;
    let domain: TickDomain = require_identical(all.iter().map(|r| &r.rep.domain))?.clone();
    let of_kind = |kind| -> Vec<&Rep> { all.iter().filter(|r| r.kind == kind).collect() };
    let (plain, traced, telemetry) = (
        of_kind(RepKind::Plain),
        of_kind(RepKind::Traced),
        of_kind(RepKind::Telemetry),
    );
    if traced.is_empty() || telemetry.is_empty() {
        return Err("the --seconds budget ended before one repetition of each kind ran".into());
    }

    let compose_of = |reps: &[&Rep]| {
        let v: Vec<&[u64]> = reps.iter().map(|r| r.rep.tick_ns.as_slice()).collect();
        timeline::compose(&v)
    };
    let (plain_ticks, _) = compose_of(&plain);
    let (traced_ticks, traced_from) = compose_of(&traced);
    let (telemetry_ticks, _) = compose_of(&telemetry);
    let plain_reps: Vec<&Repetition> = plain.iter().map(|r| &r.rep).collect();
    let plain_timing = timeline::timing(&plain_ticks, &domain.served, workload.slo);
    let telemetry_timing = timeline::timing(&telemetry_ticks, &domain.served, workload.slo);
    let traced_ns: u64 = traced_ticks.iter().sum();
    let plain_ns: u64 = plain_ticks.iter().sum();

    // The composed trace: per tick the fastest traced repetition's spans,
    // rebased so regions follow each other without gaps.
    let mut total = LayerTimes::default();
    let mut composed: Vec<Span> = Vec::new();
    let mut tick_of: Vec<u32> = Vec::new();
    let mut at_ns = 0u64;
    for (k, (&region_ns, &from)) in traced_ticks.iter().zip(&traced_from).enumerate() {
        let spans = traced[from].tick_spans(k);
        total.add(&attribute(spans, region_ns));
        // The region ends when its tick span ends; it is the last recorded.
        let region_end = spans.last().map_or(0, |s| s.end_ns);
        let shift = |t: u64| at_ns + region_ns - (region_end - t);
        composed.extend(spans.iter().map(|s| Span {
            start_ns: shift(s.start_ns),
            end_ns: shift(s.end_ns),
            ..*s
        }));
        tick_of.extend(std::iter::repeat_n(k as u32, spans.len()));
        at_ns += region_ns;
    }
    if total.self_times().iter().sum::<u64>() != traced_ns {
        return Err("trace: per-layer self times do not add up to the traced timeline".into());
    }

    // Counts and distributions taken at the same boundaries.
    let mut qlinear_m1 = Vec::new();
    let mut gemm_calls: BTreeMap<(LinearShape, u32), u64> = BTreeMap::new();
    let mut kv_load_bytes = 0u64;
    let config = system::model_config();
    // Packed K (or V) history of one layer: codes at KV_BITS per element
    // plus an f16 scale and minimum per (token, head). Computed from shapes.
    let load_bytes_per_token =
        (config.kv_dim() * usize::from(system::KV_BITS) / 8 + config.kv_heads * 4) as u64;
    for s in &composed {
        match s.kind {
            Kind::Linear(id) => {
                if s.n == 1 {
                    qlinear_m1.push(s.dur_ns());
                }
                *gemm_calls
                    .entry((LinearShape::of(id.proj), s.n))
                    .or_default() += 1;
            }
            Kind::KvKeys | Kind::KvValues => kv_load_bytes += u64::from(s.n) * load_bytes_per_token,
            _ => {}
        }
    }
    // Per offer (they repeat in the same order), the fastest traced call.
    let offers = traced[0].rep.offer_ns.len();
    let offer_min: Vec<u64> = (0..offers)
        .map(|i| {
            traced
                .iter()
                .map(|t| t.rep.offer_ns[i])
                .min()
                .expect("non-empty")
        })
        .collect();

    let probes = Probes::run();
    let gemm_est_ns: f64 = gemm_calls
        .iter()
        .map(|(&(shape, m), &calls)| calls as f64 * probes.gemm_estimate_ns(shape, m as usize))
        .sum();

    let checked = checks::self_check(&model, &workload.requests, &domain.served)?;
    let golden = checks::golden_digests(&model);

    let dir = crate::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let trace_path = dir.join(format!("{}.trace.json", workload.name));
    std::fs::write(&trace_path, trace::chrome_trace(&composed, &tick_of))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    // Tick-domain distributions.
    let mut gateway_wait = Vec::new();
    let mut engine_wait = Vec::new();
    let mut prompt_tokens = 0u64;
    let mut hit_tokens = 0u64;
    let mut deadline_exceeded = 0u64;
    for (request, s) in workload.requests.iter().zip(&domain.served) {
        let Some(o) = &s.outcome else { continue };
        if o.terminal == GatewayTerminal::DeadlineExceeded {
            deadline_exceeded += 1;
        }
        prompt_tokens += request.prompt.len() as u64;
        hit_tokens += o.engine_stats.prefix_tokens as u64;
        if let Some(q) = o.engine_stats.queue_steps() {
            engine_wait.push(q as u64);
        }
        if let (Some(first), Some(ttft_steps)) = (o.first_token_tick, o.engine_stats.ttft_steps()) {
            // The tick it was dispatched into the engine, against the first
            // tick that could have dispatched it.
            let dispatch_tick = first + 1 - ttft_steps as u64;
            gateway_wait.push(dispatch_tick.saturating_sub(s.due_tick + 1));
        }
    }

    let ms = |ns: u64| ns as f64 / 1e6;
    let mut v = Values::default();
    v.set("gateway.offer_us_p50", p_of(offer_min, 0.5) / 1e3);
    v.set("gateway.accepted", domain.accepted as f64);
    v.set(
        "gateway.rejected_rate_limited",
        domain.rejects.rate_limited as f64,
    );
    v.set(
        "gateway.rejected_queue_full",
        domain.rejects.queue_full as f64,
    );
    v.set("gateway.deadline_exceeded", deadline_exceeded as f64);
    v.set("gateway.retries", domain.gateway_retries as f64);
    v.set(
        "gateway.queue_wait_ticks_p50",
        p_of(gateway_wait.clone(), 0.5),
    );
    v.set("gateway.queue_wait_ticks_p90", p_of(gateway_wait, 0.9));
    v.set("gateway.queue_depth_max", domain.queue_depth_max as f64);
    v.set("serve.ticks", domain.ticks as f64);
    v.set(
        "serve.batch_mean",
        total.decode_tokens as f64 / domain.engine_decode_steps.max(1) as f64,
    );
    v.set("serve.prefill_tokens", total.prefill_tokens as f64);
    v.set("serve.decode_tokens", total.decode_tokens as f64);
    v.set("serve.prefill_ms", ms(total.prefill));
    v.set("serve.decode_ms", ms(total.decode));
    v.set("serve.sched_self_ms", ms(total.sched_self));
    v.set(
        "serve.sched_self_share",
        total.sched_self as f64 / traced_ns as f64,
    );
    v.set("serve.engine_queue_wait_steps_p90", p_of(engine_wait, 0.9));
    v.set("serve.preemptions", domain.preemptions as f64);
    v.set("serve.kv_peak_blocks", domain.kv_peak_blocks as f64);
    v.set(
        "serve.kv_peak_logical_blocks",
        domain.kv_peak_logical_blocks as f64,
    );
    v.set("prefix.hits", domain.prefix.hits as f64);
    v.set("prefix.misses", domain.prefix.misses as f64);
    v.set(
        "prefix.hit_token_share",
        hit_tokens as f64 / prompt_tokens.max(1) as f64,
    );
    v.set("prefix.insertions", domain.prefix.insertions as f64);
    v.set("prefix.evictions", domain.prefix.evictions as f64);
    v.set("prefix.cow_forks", domain.prefix.cow_forks as f64);
    v.set(
        "prefix.cached_blocks_end",
        domain.prefix.cached_blocks as f64,
    );
    v.set("prefix.snapshot_copy_ms", ms(total.kv_copy));
    v.set("nn.forward_calls", total.forwards as f64);
    v.set("nn.forward_ms", ms(total.forward));
    v.set("nn.attention_self_ms", ms(total.attention_self));
    v.set("nn.other_self_ms", ms(total.other_self));
    v.set("core.qlinear_calls", total.qlinear_calls as f64);
    v.set("core.qlinear_ms", ms(total.qlinear));
    v.set("core.qlinear_m1_us_p50", p_of(qlinear_m1, 0.5) / 1e3);
    v.set(
        "core.quant_epilogue_ms",
        ms(total.qlinear) - gemm_est_ns / 1e6,
    );
    v.set("core.kv_append_ms", ms(total.kv_append));
    v.set("core.kv_load_ms", ms(total.kv_load));
    v.set(
        "core.kv_us_per_decode_tok",
        total.kv_in_decode as f64 / 1e3 / total.decode_tokens.max(1) as f64,
    );
    v.set("core.kv_load_bytes", kv_load_bytes as f64);
    v.set(
        "core.kv_packed_bytes_peak",
        traced.iter().map(|t| t.kv_peak_bytes).max().unwrap_or(0) as f64,
    );
    v.set("kernels.gemm_w4a4_m1_us", probes.widen_gemm_ns(0) / 1e3);
    v.set("kernels.gemm_w4a4_m8_us", probes.widen_gemm_ns(1) / 1e3);
    v.set("kernels.gemm_w4a4_m64_us", probes.widen_gemm_ns(2) / 1e3);
    v.set("kernels.gemm_w4a4_m256_us", probes.widen_gemm_ns(3) / 1e3);
    v.set("kernels.gemm_macs_m1", probes.gemm_macs_m1 as f64);
    v.set("kernels.gemm_weight_bytes", probes.gemm_weight_bytes as f64);
    v.set("kernels.gemm_est_ms", gemm_est_ns / 1e6);
    v.set(
        "kernels.group_quantize_m1_us",
        probes.group_quantize_m1_ns / 1e3,
    );
    v.set("kernels.attn_kv4_l64_us", probes.attn_kv4_l64_ns / 1e3);
    v.set("kernels.attn_kv4_l512_us", probes.attn_kv4_l512_ns / 1e3);
    v.set(
        "parallel.par_map_overhead_us",
        probes.par_map_overhead_ns / 1e3,
    );
    v.set("parallel.gemm_m64_w2_speedup", probes.gemm_m64_w2_speedup);
    v.set("telemetry.on_out_tok_s", telemetry_timing.out_tok_s);
    v.set(
        "telemetry.overhead_frac",
        (plain_timing.out_tok_s - telemetry_timing.out_tok_s) / plain_timing.out_tok_s,
    );
    v.set(
        "trace.overhead_frac",
        traced_ns as f64 / plain_ns as f64 - 1.0,
    );
    v.set("trace.spans", composed.len() as f64);
    v.set("quality.self_check_requests", checked as f64);
    v.set(
        "quality.golden_match_frac",
        checks::golden_match_frac(&golden),
    );
    v.set("host.rep_spread_frac", rep_spread_frac(&plain_reps));
    v.set(
        "host.runqueue_wait_ms",
        runqueue_wait_ms() - runqueue_before,
    );

    let share = |ns: u64| 100.0 * ns as f64 / traced_ns as f64;
    let mut text = header(&workload, opts);
    text.push_str(&timing_text(&plain_timing, &plain_reps, &domain, &workload));
    text.push_str(&format!(
        "traced pass     {} plain, {} traced and {} telemetry-on repetitions, interleaved; composed traced timeline {:.3} s vs plain {:.3} s\n\
         where time goes (self time, share of the traced timeline; bytes and MACs are computed from shapes, kernel time inside the linears is estimated from probes):\n\
         \x20 gateway   offer                 {:>9.3} ms {:>5.1} %\n\
         \x20 serve     scheduling+gateway    {:>9.3} ms {:>5.1} %\n\
         \x20 prefix    snapshot copies       {:>9.3} ms {:>5.1} %\n\
         \x20 nn        attention arithmetic  {:>9.3} ms {:>5.1} %\n\
         \x20 nn        norms, glue, head     {:>9.3} ms {:>5.1} %\n\
         \x20 core      quantized linears     {:>9.3} ms {:>5.1} %  (probe estimate: GEMM {:.3} ms, epilogue {:.3} ms)\n\
         \x20 core      KV append             {:>9.3} ms {:>5.1} %\n\
         \x20 core      KV dequantise on load {:>9.3} ms {:>5.1} %\n\
         trace file      {} ({} spans)\n\
         self-check      {checked} of {} completed requests recomputed by a plain greedy loop: identical\n",
        plain.len(),
        traced.len(),
        telemetry.len(),
        traced_ns as f64 / 1e9,
        plain_ns as f64 / 1e9,
        ms(total.offer),
        share(total.offer),
        ms(total.sched_self),
        share(total.sched_self),
        ms(total.kv_copy),
        share(total.kv_copy),
        ms(total.attention_self),
        share(total.attention_self),
        ms(total.other_self),
        share(total.other_self),
        ms(total.qlinear),
        share(total.qlinear),
        gemm_est_ns / 1e6,
        ms(total.qlinear) - gemm_est_ns / 1e6,
        ms(total.kv_append),
        share(total.kv_append),
        ms(total.kv_load),
        share(total.kv_load),
        trace_path.display(),
        composed.len(),
        plain_timing.completed,
    ));
    Ok(RunResult {
        text,
        attempted: plain_timing.offered,
        failed: plain_timing.failed,
        metrics: v.in_order(PER_LAYER),
    })
}
