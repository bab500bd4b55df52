//! SLO gate: the full serving stack — gateway + Atom W4A4 engine — under
//! an open-loop multi-tenant flash-crowd trace with a seeded chaos fault
//! plan, graded against latency SLOs and replayed at several thread-pool
//! widths to prove bit-identical behaviour.
//!
//! The run replays one deterministic trace (interactive + batch tenants,
//! flash-crowd arrival curve) through a gateway configured with rate
//! limits, weighted fairness, retry/backoff, a brownout breaker, and a
//! graceful drain at the end. From the telemetry histograms it reports
//! p50/p99 TTFT and TPOT in gateway ticks plus SLO attainment (the
//! fraction of completed requests at or under the target), then gates —
//! with a non-zero exit for CI — on:
//!
//! 1. exactly one terminal per accepted request, zero lost in the drain;
//! 2. bit-identical outcomes and SLO report at 1, 2, and 8 threads;
//! 3. SLO attainment and completion-rate floors.

use atom::pipeline::{AtomScheme, Scheme};
use atom::{Calibration, QuantizedKvCache};
use atom_data::{ArrivalPattern, TenantTraffic, TrafficSpec};
use atom_gateway::{Gateway, GatewayConfig, GatewayOutcome, RejectCounts, TenantSpec};
use atom_nn::kv::Fp32KvCache;
use atom_nn::zoo;
use atom_parallel::Pool;
use atom_serve::engine::CpuEngine;
use atom_serve::fault::{FaultPlan, FaultRates};
use atom_serve::PressurePolicy;
use atom_telemetry::{names, MetricsSnapshot, Telemetry};
use std::fmt::Write as _;
use std::sync::Arc;

const DEFAULT_SEED: u64 = 0x510;
const KV_POOL_TOKENS: usize = 1024; // 64 blocks
const MAX_BATCH: usize = 8;
const HORIZON_TICKS: u64 = 90;
const FAULT_HORIZON_STEPS: usize = 600;
const DRAIN_BUDGET_TICKS: u64 = 3_000;

/// SLO targets, in gateway ticks (one engine step per tick).
const TTFT_SLO_TICKS: u64 = 60;
const TPOT_SLO_MILLITICKS: u64 = 2_500;
/// Gates: deterministic for a fixed seed+trace, with margin for the
/// default seed so an intentional change shows up as a clear regression,
/// not noise.
const MIN_TTFT_ATTAINMENT: f64 = 0.90;
const MIN_COMPLETION_RATE: f64 = 0.90;

struct RunResult {
    outcomes: Vec<GatewayOutcome>,
    snapshot: MetricsSnapshot,
    offered: u64,
    accepted: u64,
    rejects: RejectCounts,
    retries: u64,
    ticks: u64,
    converged: bool,
}

fn main() {
    let seed = atom_bench::arg_u64("seed", DEFAULT_SEED);

    // Trained tiny model, quantized with the paper's W4A4 Atom scheme.
    let model = zoo::trained(zoo::ZooId::Tiny);
    let calib = Calibration::collect(&model, &zoo::calibration_sequences(64), true, 2);
    let quantized = Scheme::Atom(AtomScheme::w4a4()).quantize(&model, &calib);
    let weights = quantized.model;

    // Open-loop multi-tenant trace: an interactive tenant with deadlines
    // and a batch tenant, hit by a flash crowd one third in.
    let spec = TrafficSpec {
        base_rate_per_tick: 0.9,
        pattern: ArrivalPattern::FlashCrowd {
            at_tick: HORIZON_TICKS / 3,
            magnitude: 4.0,
            decay_ticks: 20,
        },
        horizon_ticks: HORIZON_TICKS,
        tenants: vec![
            TenantTraffic::interactive(0.65, 70),
            TenantTraffic::batch(0.35),
        ],
    };
    let trace = spec.generate(seed);

    let runs: Vec<(usize, RunResult)> = [1usize, 2, 8]
        .iter()
        .map(|&threads| (threads, run_stack(&weights, &trace, seed, threads)))
        .collect();

    let mut violations: Vec<String> = Vec::new();
    let Some((_, base)) = runs.first() else {
        eprintln!("INVARIANT VIOLATED: no runs executed");
        std::process::exit(1);
    };

    // Gate 1 — lifecycle: drain converged, exactly one terminal per
    // accepted request, no duplicate ids, offered = accepted + rejected.
    for (threads, r) in &runs {
        if !r.converged {
            violations.push(format!("{threads}-thread run did not drain to idle"));
        }
        if r.outcomes.len() as u64 != r.accepted {
            violations.push(format!(
                "{threads}-thread run lost requests: {} terminals for {} accepted",
                r.outcomes.len(),
                r.accepted
            ));
        }
        let mut ids: Vec<usize> = r.outcomes.iter().map(|o| o.id).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != r.outcomes.len() {
            violations.push(format!("{threads}-thread run has duplicate terminal records"));
        }
        if r.offered != r.accepted + r.rejects.total() {
            violations.push(format!(
                "{threads}-thread run dropped offers: {} offered, {} accepted, {} rejected",
                r.offered,
                r.accepted,
                r.rejects.total()
            ));
        }
    }

    // Gate 2 — determinism: every width reproduces the width-1 run bit
    // for bit (admission decisions, retry schedules, outcomes, report).
    for (threads, r) in runs.iter().skip(1) {
        if r.outcomes != base.outcomes {
            violations.push(format!(
                "outcomes diverge between 1 and {threads} threads"
            ));
        }
        if r.accepted != base.accepted || r.rejects != base.rejects {
            violations.push(format!(
                "admission decisions diverge between 1 and {threads} threads"
            ));
        }
        if r.retries != base.retries {
            violations.push(format!(
                "retry schedules diverge between 1 and {threads} threads"
            ));
        }
        if slo_row(&r.snapshot) != slo_row(&base.snapshot) {
            violations.push(format!(
                "SLO report diverges between 1 and {threads} threads"
            ));
        }
    }

    // Gate 3 — service levels, from the width-1 telemetry histograms.
    let r = base;
    let (ttft_p50, ttft_p99, ttft_att) = slo_triple(&r.snapshot, names::GATEWAY_TTFT_TICKS, TTFT_SLO_TICKS);
    let (tpot_p50, tpot_p99, tpot_att) = slo_triple(
        &r.snapshot,
        names::GATEWAY_TPOT_MILLITICKS,
        TPOT_SLO_MILLITICKS,
    );
    let completed = r
        .outcomes
        .iter()
        .filter(|o| o.terminal.is_completed())
        .count();
    let completion_rate = if r.accepted == 0 {
        0.0
    } else {
        completed as f64 / r.accepted as f64
    };
    if ttft_att < MIN_TTFT_ATTAINMENT {
        violations.push(format!(
            "TTFT SLO attainment {ttft_att:.3} below the {MIN_TTFT_ATTAINMENT} floor"
        ));
    }
    if completion_rate < MIN_COMPLETION_RATE {
        violations.push(format!(
            "completion rate {completion_rate:.3} below the {MIN_COMPLETION_RATE} floor"
        ));
    }

    if !violations.is_empty() {
        for v in &violations {
            eprintln!("SLO GATE VIOLATED: {v}");
        }
        std::process::exit(1);
    }

    // Report.
    let sn = &r.snapshot;
    let count = |n: &str| sn.counter(n);
    let rows = vec![
        row("arrivals in trace", trace.len() as u64),
        row("offered", r.offered),
        row("accepted", r.accepted),
        row("rejected: rate limited", r.rejects.rate_limited),
        row("rejected: queue full", r.rejects.queue_full),
        row("rejected: brownout", r.rejects.brownout),
        row("rejected: draining", r.rejects.draining),
        row("completed", completed as u64),
        row("deadline exceeded", count(names::GATEWAY_TERMINAL_DEADLINE)),
        row("cancelled", count(names::GATEWAY_TERMINAL_CANCELLED)),
        row("failed", count(names::GATEWAY_TERMINAL_FAILED)),
        row("retries", r.retries),
        row("drain force-fails", count(names::GATEWAY_DRAIN_FORCED)),
        row("engine faults observed", count(names::ENGINE_FAULTS)),
        row("degraded admissions (INT4 KV)", count(names::ENGINE_DEGRADED_ADMISSIONS)),
        row("gateway ticks to drain", r.ticks),
    ];
    let counters = atom_bench::table(&["counter", "value"], &rows);
    let lat = atom_bench::table(
        &["metric", "p50", "p99", "SLO", "attainment"],
        &[
            vec![
                "TTFT (ticks)".into(),
                fmt_opt(ttft_p50),
                fmt_opt(ttft_p99),
                TTFT_SLO_TICKS.to_string(),
                format!("{:.3}", ttft_att),
            ],
            vec![
                "TPOT (milliticks)".into(),
                fmt_opt(tpot_p50),
                fmt_opt(tpot_p99),
                TPOT_SLO_MILLITICKS.to_string(),
                format!("{:.3}", tpot_att),
            ],
        ],
    );

    let mut content = String::new();
    let _ = writeln!(
        content,
        "SLO gate — gateway + Atom W4A4 engine, seed {seed:#x}, flash-crowd trace\n\
         ({HORIZON_TICKS}-tick horizon, 2 tenants, {} arrivals), seeded chaos\n\
         faults, graceful drain; replayed at 1/2/8 threads — bit-identical.\n\n{counters}\n{lat}",
        trace.len(),
    );
    let _ = writeln!(
        content,
        "gates held: exactly-once terminals, zero lost in drain, thread-invariant\n\
         outcomes + SLO report, TTFT attainment >= {MIN_TTFT_ATTAINMENT}, completion rate\n\
         {completion_rate:.3} >= {MIN_COMPLETION_RATE}"
    );
    println!("{content}");

    let json = format!(
        "{{\n  \"seed\": {seed},\n  \"host_threads\": {host_threads},\n  \"arrivals\": {},\n  \
         \"offered\": {},\n  \"accepted\": {},\n  \"completed\": {completed},\n  \
         \"rejected_rate_limited\": {},\n  \"rejected_queue_full\": {},\n  \
         \"rejected_brownout\": {},\n  \"rejected_draining\": {},\n  \
         \"deadline_exceeded\": {},\n  \"failed\": {},\n  \"retries\": {},\n  \
         \"drain_forced\": {},\n  \"engine_faults\": {},\n  \"ticks_to_drain\": {},\n  \
         \"ttft_p50_ticks\": {},\n  \"ttft_p99_ticks\": {},\n  \"ttft_slo_ticks\": {TTFT_SLO_TICKS},\n  \
         \"ttft_attainment\": {ttft_att:.6},\n  \"tpot_p50_milliticks\": {},\n  \
         \"tpot_p99_milliticks\": {},\n  \"tpot_slo_milliticks\": {TPOT_SLO_MILLITICKS},\n  \
         \"tpot_attainment\": {tpot_att:.6},\n  \"completion_rate\": {completion_rate:.6},\n  \
         \"thread_widths\": [1, 2, 8],\n  \"deterministic\": true\n}}\n",
        trace.len(),
        r.offered,
        r.accepted,
        r.rejects.rate_limited,
        r.rejects.queue_full,
        r.rejects.brownout,
        r.rejects.draining,
        count(names::GATEWAY_TERMINAL_DEADLINE),
        count(names::GATEWAY_TERMINAL_FAILED),
        r.retries,
        count(names::GATEWAY_DRAIN_FORCED),
        count(names::ENGINE_FAULTS),
        r.ticks,
        fmt_opt(ttft_p50),
        fmt_opt(ttft_p99),
        fmt_opt(tpot_p50),
        fmt_opt(tpot_p99),
        host_threads = atom_bench::host_threads(),
    );
    let path = atom_bench::results_dir().join("slo_gate.json");
    std::fs::write(&path, json).expect("write json report");
    eprintln!("[written to results/slo_gate.json]");
}

/// Builds the full stack at one pool width and replays the trace through
/// offer -> dispatch -> retry -> drain.
fn run_stack(
    weights: &atom_nn::LlamaModel<atom::AnyLinear>,
    trace: &[atom_data::Arrival],
    seed: u64,
    threads: usize,
) -> RunResult {
    let config = *weights.config();
    let telemetry = Arc::new(Telemetry::enabled());
    let engine = CpuEngine::new(
        weights.clone(),
        Box::new(move || Box::new(Fp32KvCache::new(config.layers, config.kv_dim()))),
        MAX_BATCH,
        KV_POOL_TOKENS,
    )
    .expect("valid engine config")
    .with_degraded_cache(Box::new(move || {
        Box::new(QuantizedKvCache::new(
            config.layers,
            config.kv_dim(),
            config.head_dim(),
            4,
        ))
    }))
    .with_policy(PressurePolicy {
        degrade_kv_at: 0.75,
        degrade_queue_depth: Some(6),
        shed_queue_depth: Some(24),
    })
    .with_fault_plan(FaultPlan::seeded_chaos(
        seed ^ 0xFA17,
        FAULT_HORIZON_STEPS,
        FaultRates {
            alloc: 0.02,
            forward: 0.04,
            timeout: 0.02,
            cancel: 0.01,
        },
    ))
    .with_telemetry(telemetry.clone())
    .with_pool(Pool::new(threads));

    let tenants = vec![
        TenantSpec::new("interactive", 3, 2).with_rate(2_000, 5_000),
        TenantSpec::new("batch", 1, 0)
            .with_rate(1_000, 3_000)
            .with_queue_cap(24),
    ];
    let mut cfg = GatewayConfig::new(tenants).with_seed(seed);
    // The flash crowd leaves a deep backlog; give the drain room to finish
    // honest work before force-failing stragglers.
    cfg.drain_grace_ticks = 256;
    let mut gw = Gateway::new(engine, cfg).expect("valid gateway config");
    let summary = gw.replay_trace(trace);
    gw.begin_drain();
    let converged = gw.run_until_idle(DRAIN_BUDGET_TICKS);
    RunResult {
        outcomes: gw.outcomes().to_vec(),
        snapshot: telemetry.metrics().snapshot(),
        offered: summary.offered,
        accepted: summary.accepted,
        rejects: gw.rejects(),
        retries: gw.retries(),
        ticks: gw.now(),
        converged,
    }
}

/// (p50, p99, attainment) of one latency histogram against its SLO.
fn slo_triple(sn: &MetricsSnapshot, name: &str, slo: u64) -> (Option<u64>, Option<u64>, f64) {
    match sn.histograms.get(name) {
        Some(h) => (
            h.p50(),
            h.p99(),
            h.fraction_at_or_below(slo).unwrap_or(1.0),
        ),
        None => (None, None, 1.0),
    }
}

/// The comparable SLO report row: every histogram quantile the report
/// prints, for the determinism gate.
fn slo_row(sn: &MetricsSnapshot) -> Vec<(Option<u64>, Option<u64>, u64)> {
    [names::GATEWAY_TTFT_TICKS, names::GATEWAY_TPOT_MILLITICKS]
        .iter()
        .map(|n| {
            let h = sn.histograms.get(*n);
            (
                h.and_then(|h| h.p50()),
                h.and_then(|h| h.p99()),
                h.map_or(0, |h| h.count),
            )
        })
        .collect()
}

fn fmt_opt(v: Option<u64>) -> String {
    v.map_or_else(|| "-".to_string(), |x| x.to_string())
}

fn row(name: &str, v: u64) -> Vec<String> {
    vec![name.to_string(), v.to_string()]
}
