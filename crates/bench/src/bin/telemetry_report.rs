//! Telemetry report: a **measured** Fig. 3-style runtime breakdown of the
//! CPU serving stack (GEMM vs attention vs quantization epilogue vs
//! scheduler), printed next to the gpu-sim roofline prediction recorded
//! under identical metric names.
//!
//! The binary runs one Atom-W4A4 serving workload with the global
//! telemetry enabled, prints the breakdown and writes:
//!
//! * `results/telemetry_report.json` — the breakdown (committed),
//! * `results/telemetry_metrics.prom` / `.json` — full metric exports and
//!   `results/telemetry_trace.json` — Chrome `trace_event` spans (load in
//!   `chrome://tracing` or <https://ui.perfetto.dev>); all three git-ignored.
//!
//! Exits non-zero if the breakdown components cover less than 95% of the
//! measured wall time (the instrumentation would be missing a hot path).
//! What telemetry costs is the serving benchmark's `telemetry.overhead_frac`.

use atom::pipeline::{AtomScheme, Scheme};
use atom::{AnyLinear, Calibration};
use atom_gpu_sim::{HardwareProfile, LlamaGpuConfig, Phase, SimScheme};
use atom_nn::kv::Fp32KvCache;
use atom_nn::zoo;
use atom_nn::LlamaModel;
use atom_serve::engine::CpuEngine;
use atom_serve::PrefixConfig;
use atom_telemetry::{export, names, MetricsSnapshot, Telemetry};
use std::fmt::Write as _;
use std::time::Instant;

const REQUESTS: usize = 16;
const MAX_BATCH: usize = 4;
const KV_POOL_TOKENS: usize = 1024; // roomy: this is a timing run, not a pressure run

/// Runs the fixed serving workload on a freshly quantized engine and times
/// the `run_to_completion` loop (submissions land before the clock starts).
/// Returns `(wall seconds, engine steps)`.
fn run_workload(model: LlamaModel<AnyLinear>) -> (f64, usize) {
    let config = *model.config();
    let mut engine = CpuEngine::new(
        model,
        Box::new(move || Box::new(Fp32KvCache::new(config.layers, config.kv_dim()))),
        MAX_BATCH,
        KV_POOL_TOKENS,
    )
    .expect("valid engine config")
    .with_prefix_cache(PrefixConfig::default());
    // Every prompt opens with the same 16-token system prefix so the
    // prefix-cache metrics show up in the report with real traffic behind
    // them (the first request donates, the rest hit).
    for i in 0..REQUESTS {
        let len = 8 + (i * 5) % 17;
        let max_new = 8 + (i * 3) % 9;
        let mut prompt: Vec<u16> = (0..16u16).map(|t| (t * 5) % 96).collect();
        prompt.extend(
            (0..len).map(|t| atom_tensor::cast::usize_to_u16_saturating((i * 13 + t * 7) % 96)),
        );
        engine.submit(prompt, max_new).expect("admission under a roomy pool");
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "the coverage gate needs the wall time the telemetry spans are supposed to add up to"
    )]
    let start = Instant::now();
    engine.run_to_completion();
    (start.elapsed().as_secs_f64(), engine.steps())
}

fn hist_sum(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.histograms.get(name).map_or(0, |h| h.sum)
}

fn pct(part: u64, total: u64) -> String {
    if total == 0 {
        return "-".into();
    }
    format!("{:.1}%", part as f64 / total as f64 * 100.0)
}

fn main() {
    let model = zoo::trained(zoo::ZooId::Tiny);
    let calib = Calibration::collect(&model, &zoo::calibration_sequences(64), true, 2);
    let scheme = Scheme::Atom(AtomScheme::w4a4());

    Telemetry::enable_global();
    let (wall_s, steps) = run_workload(scheme.quantize(&model, &calib).model);
    let snap = Telemetry::global().metrics().snapshot();

    // Measured breakdown. Scheduler time is everything in a step outside
    // the model forward; "other" is the forward residue outside the three
    // instrumented operator classes (norms, embeddings, sampling).
    let step_ns = hist_sum(&snap, names::ENGINE_STEP_WALL_NS);
    let fwd_ns = hist_sum(&snap, names::MODEL_FORWARD_WALL_NS);
    let gemm_ns = hist_sum(&snap, names::OP_GEMM_WALL_NS);
    let attn_ns = hist_sum(&snap, names::OP_ATTENTION_WALL_NS);
    let quant_ns = hist_sum(&snap, names::OP_QUANT_WALL_NS);
    let other_ns = fwd_ns.saturating_sub(gemm_ns + attn_ns + quant_ns);
    let sched_ns = step_ns.saturating_sub(fwd_ns);
    let wall_ns = (wall_s * 1e9) as u64;
    let coverage = step_ns as f64 / wall_ns as f64;

    // Simulated twin: one Atom-W4A4 decode iteration of the paper's
    // Llama-7B on the RTX 4090 roofline, recorded under the same names.
    let sim = Telemetry::enabled();
    atom_gpu_sim::record_iteration(
        &sim,
        &LlamaGpuConfig::llama7b(),
        SimScheme::AtomW4A4,
        64,
        1024,
        Phase::Decode,
        &HardwareProfile::rtx4090(),
    );
    let sim_snap = sim.metrics().snapshot();
    let sim_gemm = hist_sum(&sim_snap, names::OP_GEMM_WALL_NS);
    let sim_attn = hist_sum(&sim_snap, names::OP_ATTENTION_WALL_NS);
    let sim_quant = hist_sum(&sim_snap, names::OP_QUANT_WALL_NS);
    let sim_other = hist_sum(&sim_snap, names::OP_OTHER_WALL_NS);
    let sim_total = hist_sum(&sim_snap, names::MODEL_FORWARD_WALL_NS);

    let rows = vec![
        breakdown_row("op.gemm", gemm_ns, step_ns, sim_gemm, sim_total),
        breakdown_row("op.attention", attn_ns, step_ns, sim_attn, sim_total),
        breakdown_row("op.quant", quant_ns, step_ns, sim_quant, sim_total),
        breakdown_row("op.other", other_ns, step_ns, sim_other, sim_total),
        breakdown_row("scheduler", sched_ns, step_ns, 0, 0),
    ];
    let table = atom_bench::table(
        &["component", "measured ns", "share", "roofline ns", "share"],
        &rows,
    );

    let ttft = snap.histograms.get(names::ENGINE_TTFT_STEPS);
    let tpot = snap.histograms.get(names::ENGINE_TPOT_MILLISTEPS);
    let lat_rows = vec![
        vec![
            "TTFT (steps)".to_string(),
            q(ttft, 0.5),
            q(ttft, 0.9),
            q(ttft, 0.99),
        ],
        vec![
            "TPOT (millisteps)".to_string(),
            q(tpot, 0.5),
            q(tpot, 0.9),
            q(tpot, 0.99),
        ],
    ];
    let lat_table = atom_bench::table(&["latency", "p50", "p90", "p99"], &lat_rows);

    let mut content = String::new();
    let _ = writeln!(
        content,
        "Telemetry report — Atom W4A4 tiny model, {REQUESTS} requests, max batch {MAX_BATCH}.\n\
         Measured CPU breakdown over {steps} engine steps ({wall_s:.3}s wall) vs the gpu-sim\n\
         roofline prediction for one Llama-7B decode iteration (batch 64, kv 1024, RTX 4090),\n\
         both recorded under identical atom_telemetry::names keys.\n\n{table}"
    );
    let _ = writeln!(
        content,
        "breakdown coverage: components sum to {:.1}% of measured wall time (gate: >=95%)\n",
        coverage * 100.0
    );
    let _ = writeln!(content, "{lat_table}");
    let _ = writeln!(
        content,
        "terminal counters: completed={} preempted={} degraded={} faults={}",
        snap.counter(names::ENGINE_TERMINAL_COMPLETED),
        snap.counter(names::ENGINE_PREEMPTIONS),
        snap.counter(names::ENGINE_DEGRADED_ADMISSIONS),
        snap.counter(names::ENGINE_FAULTS),
    );
    let hit_ttft = snap.histograms.get(names::PREFIX_HIT_TTFT_STEPS);
    let _ = writeln!(
        content,
        "prefix cache: hits={} misses={} evictions={} cow_forks={} hit-TTFT p50={} steps",
        snap.counter(names::PREFIX_HITS),
        snap.counter(names::PREFIX_MISSES),
        snap.counter(names::PREFIX_EVICTIONS),
        snap.counter(names::PREFIX_COW_FORKS),
        q(hit_ttft, 0.5),
    );
    println!("{content}");

    // The report as JSON, plus the raw exporter outputs and the Chrome trace.
    let dir = atom_bench::results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let json = format!(
        "{{\n  \"measured\": {{\n    \"wall_ns\": {wall_ns},\n    \"step_ns\": {step_ns},\n    \
         \"gemm_ns\": {gemm_ns},\n    \"attention_ns\": {attn_ns},\n    \"quant_ns\": {quant_ns},\n    \
         \"other_ns\": {other_ns},\n    \"scheduler_ns\": {sched_ns},\n    \"coverage\": {coverage:.4}\n  }},\n  \
         \"roofline\": {{\n    \"total_ns\": {sim_total},\n    \"gemm_ns\": {sim_gemm},\n    \
         \"attention_ns\": {sim_attn},\n    \"quant_ns\": {sim_quant},\n    \"other_ns\": {sim_other}\n  }},\n  \
         \"prefix_cache\": {{\n    \"hits\": {},\n    \"misses\": {},\n    \
         \"evictions\": {},\n    \"cow_forks\": {}\n  }}\n}}\n",
        snap.counter(names::PREFIX_HITS),
        snap.counter(names::PREFIX_MISSES),
        snap.counter(names::PREFIX_EVICTIONS),
        snap.counter(names::PREFIX_COW_FORKS),
    );
    std::fs::write(dir.join("telemetry_report.json"), json).expect("write json report");
    std::fs::write(dir.join("telemetry_metrics.prom"), export::prometheus_text(&snap))
        .expect("write prometheus export");
    std::fs::write(dir.join("telemetry_metrics.json"), export::json(&snap))
        .expect("write metrics json");
    let events = Telemetry::global().tracer().drain();
    std::fs::write(dir.join("telemetry_trace.json"), export::chrome_trace(&events))
        .expect("write chrome trace");
    eprintln!(
        "[written to results/telemetry_report.json, telemetry_metrics.{{prom,json}}, \
         telemetry_trace.json ({} spans)]",
        events.len()
    );

    if coverage < 0.95 {
        eprintln!(
            "BREAKDOWN COVERAGE VIOLATED: components sum to {:.1}% of wall time (< 95%)",
            coverage * 100.0
        );
        std::process::exit(1);
    }
}

fn breakdown_row(name: &str, ns: u64, total: u64, sim_ns: u64, sim_total: u64) -> Vec<String> {
    vec![
        name.to_string(),
        ns.to_string(),
        pct(ns, total),
        if sim_total == 0 { "-".into() } else { sim_ns.to_string() },
        pct(sim_ns, sim_total),
    ]
}

fn q(h: Option<&atom_telemetry::HistogramSnapshot>, quantile: f64) -> String {
    h.and_then(|h| h.quantile(quantile))
        .map_or_else(|| "-".into(), |v| v.to_string())
}
