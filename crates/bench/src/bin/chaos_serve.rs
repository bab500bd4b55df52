//! Chaos serving report: the CPU engine under a seeded fault plan, a tight
//! KV pool, and KV-pressure degradation, with every request accounted for.
//!
//! Exercises the robustness layer end to end — allocator-grow faults,
//! injected forward-pass failures, deadlines, queue shedding, and
//! degradation of new admissions to the Atom INT4 KV cache — then checks
//! the bookkeeping invariants (exactly one terminal state per submission,
//! zero leaked KV blocks), prints an aligned text table and writes
//! `results/chaos_serve.json`. Both are byte-reproducible at a fixed `--seed`.

use atom::pipeline::{AtomScheme, Scheme};
use atom::{Calibration, QuantizedKvCache};
use atom_gateway::{synth_prompt, Gateway, GatewayConfig, TenantSpec};
use atom_nn::kv::Fp32KvCache;
use atom_nn::zoo;
use atom_serve::engine::CpuEngine;
use atom_serve::fault::FaultRates;
use atom_serve::{FaultPlan, PrefixConfig, PressurePolicy, SubmitOptions, Terminal};
use std::fmt::Write as _;

const DEFAULT_SEED: u64 = 0xC4A0;
const REQUESTS: usize = 24;
const KV_POOL_TOKENS: usize = 160; // 10 blocks — deliberately tight
const MAX_BATCH: usize = 4;

fn main() {
    let seed = atom_bench::arg_u64("seed", DEFAULT_SEED);
    let model = zoo::trained(zoo::ZooId::Tiny);
    let calib = Calibration::collect(&model, &zoo::calibration_sequences(64), true, 2);
    let quantized = Scheme::Atom(AtomScheme::w4a4()).quantize(&model, &calib);
    let weights = quantized.model;
    let config = *weights.config();

    let plan = FaultPlan::seeded(seed, 600, 0.25, 0.02);
    let planned_faults = plan.fault_count();
    let mut engine = CpuEngine::new(
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
        degrade_kv_at: 0.5,
        degrade_queue_depth: Some(4),
        shed_queue_depth: Some(18),
    })
    .with_fault_plan(plan);

    // A bursty workload: everything arrives at once, lengths vary, half the
    // requests carry deadlines tight enough that some expire under faults.
    let mut submitted = 0usize;
    for i in 0..REQUESTS {
        let len = 4 + (i * 7) % 29;
        let max_new = 4 + (i * 5) % 17;
        let opts = if i % 2 == 0 {
            SubmitOptions::new(max_new)
        } else {
            SubmitOptions::new(max_new).with_deadline(12 + i)
        };
        let prompt: Vec<u16> = (0..len).map(|t| atom_tensor::cast::usize_to_u16_saturating((i * 31 + t * 7) % 96)).collect();
        let _ = engine.submit_with(prompt, opts);
        submitted += 1;
    }
    // Cancel two requests mid-flight to exercise that path too.
    engine.step();
    let _ = engine.cancel(3);
    let _ = engine.cancel(17);

    engine.run_to_completion();

    let mut completed = 0usize;
    let mut rejected = 0usize;
    let mut cancelled = 0usize;
    let mut expired = 0usize;
    let mut failed = 0usize;
    let mut tokens = 0usize;
    for o in engine.outcomes() {
        tokens += o.tokens.len();
        match &o.terminal {
            Terminal::Completed => completed += 1,
            Terminal::Rejected(_) => rejected += 1,
            Terminal::Cancelled => cancelled += 1,
            Terminal::DeadlineExceeded => expired += 1,
            Terminal::Failed { .. } => failed += 1,
        }
    }
    let preemptions = engine.batcher().preemptions();
    let degraded = engine.degraded_admissions();
    let injected = engine.batcher().allocator().injected_failures();
    let leaked = engine.batcher().allocator().used_blocks();

    // Scenario 2: gateway drain under fire. Accepted requests are mid-retry
    // and mid-flight when the drain begins, and the grace window is short
    // enough that force-drain fires — every accepted request must still get
    // exactly one terminal, none lost.
    let drain = drain_under_fault(&weights, seed);

    // Scenario 3: prefix-cache reuse under fire. Requests sharing cached
    // KV runs get timed out and cancelled mid-prefill; every shared
    // refcount must still return to zero through drain + flush.
    let prefix = prefix_reuse_under_fault(&weights, seed);

    // Invariant checks: collect every violation so a broken run reports all
    // of them, then fail with a non-zero exit (CI gates on this).
    let mut violations: Vec<String> = drain.violations.clone();
    violations.extend(prefix.violations.clone());
    if engine.outcomes().len() != submitted {
        violations.push(format!(
            "expected exactly one terminal state per submission: {} outcomes for {submitted} submissions",
            engine.outcomes().len()
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    for o in engine.outcomes() {
        if !seen.insert(o.id) {
            violations.push(format!("request {} has more than one terminal record", o.id));
        }
    }
    if leaked != 0 {
        violations.push(format!("idle engine still holds {leaked} KV blocks"));
    }
    if completed == 0 {
        violations.push("no request completed under the fault plan".to_string());
    }
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("INVARIANT VIOLATED: {v}");
        }
        std::process::exit(1);
    }

    let rows = vec![
        row("submitted", submitted),
        row("completed", completed),
        row("rejected", rejected),
        row("cancelled", cancelled),
        row("deadline exceeded", expired),
        row("failed (injected)", failed),
        row("preemptions", preemptions),
        row("degraded admissions (INT4 KV)", degraded),
        row("alloc faults fired", injected),
        row("planned fault points", planned_faults),
        row("tokens generated", tokens),
        row("engine steps", engine.steps()),
        row("drain scenario: offered", drain.offered),
        row("drain scenario: accepted", drain.accepted),
        row("drain scenario: completed", drain.completed),
        row("drain scenario: force-failed", drain.force_failed),
        row("prefix scenario: submitted", prefix.submitted),
        row("prefix scenario: completed", prefix.completed),
        row("prefix scenario: cache hits", prefix.hits),
        row("prefix scenario: CoW forks", prefix.cow_forks),
        row("prefix scenario: blocks flushed", prefix.flushed),
    ];
    let table = atom_bench::table(&["counter", "value"], &rows);

    let mut content = String::new();
    let _ = writeln!(
        content,
        "Chaos serving — Atom W4A4 7B* engine, seed {seed:#x}, {KV_POOL_TOKENS}-token KV pool,\n\
         max batch {MAX_BATCH}, degrade at 50% pool / queue depth 4, shed at depth 18.\n\n{table}"
    );
    let _ = writeln!(
        content,
        "invariants held: one terminal per submission, 0 leaked KV blocks; gateway\n\
         drain-under-fault: {} accepted, {} terminals, zero lost; prefix-reuse-under-\n\
         fault: {} hits on shared INT4 runs, every refcount back to zero through\n\
         drain + flush",
        drain.accepted, drain.accepted, prefix.hits,
    );
    println!("{content}");

    // The same counters for downstream tooling (hand-rolled: the workspace
    // deliberately has no JSON dependency).
    let json = format!(
        "{{\n  \"seed\": {seed},\n  \"host_threads\": {host_threads},\n  \"kv_pool_tokens\": {KV_POOL_TOKENS},\n  \"max_batch\": {MAX_BATCH},\n  \
         \"submitted\": {submitted},\n  \"completed\": {completed},\n  \"rejected\": {rejected},\n  \
         \"cancelled\": {cancelled},\n  \"deadline_exceeded\": {expired},\n  \"failed\": {failed},\n  \
         \"preemptions\": {preemptions},\n  \"degraded_admissions\": {degraded},\n  \
         \"alloc_faults_fired\": {injected},\n  \"planned_fault_points\": {planned_faults},\n  \
         \"tokens_generated\": {tokens},\n  \"engine_steps\": {steps},\n  \"leaked_blocks\": {leaked},\n  \
         \"drain_offered\": {},\n  \"drain_accepted\": {},\n  \"drain_completed\": {},\n  \
         \"drain_force_failed\": {},\n  \"prefix_submitted\": {},\n  \"prefix_completed\": {},\n  \
         \"prefix_hits\": {},\n  \"prefix_cow_forks\": {},\n  \"prefix_blocks_flushed\": {}\n}}\n",
        drain.offered,
        drain.accepted,
        drain.completed,
        drain.force_failed,
        prefix.submitted,
        prefix.completed,
        prefix.hits,
        prefix.cow_forks,
        prefix.flushed,
        steps = engine.steps(),
        host_threads = atom_bench::host_threads(),
    );
    let path = atom_bench::results_dir().join("chaos_serve.json");
    std::fs::write(&path, json).expect("write json report");
    eprintln!("[written to results/chaos_serve.json]");
}

fn row(name: &str, v: usize) -> Vec<String> {
    vec![name.to_string(), v.to_string()]
}

struct DrainStats {
    offered: usize,
    accepted: usize,
    completed: usize,
    force_failed: usize,
    violations: Vec<String>,
}

/// Gateway drain while a dense fault plan is firing: offers a burst, lets
/// it get mid-flight (some requests parked in retry backoff), then drains
/// with a grace window short enough that force-drain fires. Checks that
/// every accepted request still reaches exactly one terminal and none are
/// lost across the drain.
fn drain_under_fault(weights: &atom_nn::LlamaModel<atom::AnyLinear>, seed: u64) -> DrainStats {
    let config = *weights.config();
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
        degrade_kv_at: 0.5,
        degrade_queue_depth: Some(4),
        shed_queue_depth: Some(18),
    })
    .with_fault_plan(FaultPlan::seeded_chaos(
        seed ^ 0xD7A1,
        400,
        FaultRates {
            alloc: 0.10,
            forward: 0.08,
            timeout: 0.05,
            cancel: 0.03,
        },
    ));

    let mut cfg = GatewayConfig::new(vec![
        TenantSpec::new("drain-a", 2, 1).with_rate(8_000, 16_000),
        TenantSpec::new("drain-b", 1, 0).with_rate(8_000, 16_000),
    ])
    .with_seed(seed);
    cfg.drain_grace_ticks = 16; // short on purpose: force-drain must fire
    let mut gw = match Gateway::new(engine, cfg) {
        Ok(gw) => gw,
        Err(e) => {
            return DrainStats {
                offered: 0,
                accepted: 0,
                completed: 0,
                force_failed: 0,
                violations: vec![format!("drain scenario: gateway refused config: {e}")],
            }
        }
    };

    let mut offered = 0usize;
    for i in 0..20usize {
        let tenant = i % 2;
        let deadline = if i % 3 == 0 { Some(40) } else { None };
        let _ = gw.offer(tenant, synth_prompt(i, 4 + (i * 5) % 24), 6 + (i * 3) % 12, deadline);
        offered += 1;
    }
    // Let the burst get mid-flight (and some attempts fail into retry
    // parking) before pulling the plug.
    for _ in 0..6 {
        gw.tick();
    }
    gw.begin_drain();
    let converged = gw.run_until_idle(600);

    let accepted = usize::try_from(gw.accepted()).unwrap_or(usize::MAX);
    let mut violations = Vec::new();
    if !converged {
        violations.push("drain scenario: gateway did not reach idle".to_string());
    }
    if gw.outcomes().len() != accepted {
        violations.push(format!(
            "drain scenario lost requests: {} terminals for {accepted} accepted",
            gw.outcomes().len()
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    for o in gw.outcomes() {
        if !seen.insert(o.id) {
            violations.push(format!(
                "drain scenario: request {} has more than one terminal record",
                o.id
            ));
        }
    }
    let completed = gw
        .outcomes()
        .iter()
        .filter(|o| o.terminal.is_completed())
        .count();
    let force_failed = gw
        .outcomes()
        .iter()
        .filter(|o| {
            matches!(&o.terminal,
                atom_gateway::GatewayTerminal::Failed { reason } if reason.contains("drained"))
        })
        .count();
    DrainStats {
        offered,
        accepted,
        completed,
        force_failed,
        violations,
    }
}

struct PrefixChaosStats {
    submitted: usize,
    completed: usize,
    hits: usize,
    cow_forks: usize,
    flushed: usize,
    violations: Vec<String>,
}

/// Prefix-cache block conservation under faults: shared-prefix prompts
/// flow through an engine with the radix cache on while timeout, cancel,
/// forward, and alloc faults fire — so requests holding *shared* KV
/// blocks die mid-prefill and mid-decode. After drain the cache's own
/// references must be the only ones left, and flushing it must return
/// the pool to exactly empty.
fn prefix_reuse_under_fault(
    weights: &atom_nn::LlamaModel<atom::AnyLinear>,
    seed: u64,
) -> PrefixChaosStats {
    let config = *weights.config();
    let mut engine = match CpuEngine::new(
        weights.clone(),
        Box::new(move || Box::new(Fp32KvCache::new(config.layers, config.kv_dim()))),
        MAX_BATCH,
        KV_POOL_TOKENS,
    ) {
        Ok(e) => e,
        Err(e) => {
            return PrefixChaosStats {
                submitted: 0,
                completed: 0,
                hits: 0,
                cow_forks: 0,
                flushed: 0,
                violations: vec![format!("prefix scenario: engine refused config: {e}")],
            }
        }
    };
    engine = engine
        .with_degraded_cache(Box::new(move || {
            Box::new(QuantizedKvCache::new(
                config.layers,
                config.kv_dim(),
                config.head_dim(),
                4,
            ))
        }))
        .with_policy(PressurePolicy {
            degrade_kv_at: 0.5,
            degrade_queue_depth: Some(4),
            shed_queue_depth: None,
        })
        .with_prefix_cache(PrefixConfig {
            max_cached_blocks: Some(6),
        })
        .with_fault_plan(FaultPlan::seeded_chaos(
            seed ^ 0x9EF1,
            400,
            FaultRates {
                alloc: 0.06,
                forward: 0.06,
                timeout: 0.08,
                cancel: 0.05,
            },
        ));

    // Two system prompts of two blocks each; every request reuses one and
    // appends a unique suffix, staggered so later arrivals hit the runs
    // earlier donors cached.
    let prefixes: [Vec<u16>; 2] = [
        (0..32u16).collect(),
        (0..32u16).map(|t| 95 - t).collect(),
    ];
    let mut submitted = 0usize;
    for wave in 0..5usize {
        for i in 0..4usize {
            let n = wave * 4 + i;
            let mut prompt = prefixes[n % 2].clone();
            prompt.extend((0..4 + n % 5).map(|t| atom_tensor::cast::usize_to_u16_saturating((n * 13 + t * 3) % 96)));
            let opts = if n % 3 == 0 {
                SubmitOptions::new(4 + n % 6).with_deadline(20 + n)
            } else {
                SubmitOptions::new(4 + n % 6)
            };
            let _ = engine.submit_with(prompt, opts);
            submitted += 1;
        }
        engine.step();
    }
    let _ = engine.cancel(2);
    let _ = engine.cancel(11);
    engine.run_to_completion();

    let mut violations = Vec::new();
    if engine.outcomes().len() != submitted {
        violations.push(format!(
            "prefix scenario lost requests: {} terminals for {submitted} submissions",
            engine.outcomes().len()
        ));
    }
    let completed = engine
        .outcomes()
        .iter()
        .filter(|o| o.terminal.is_completed())
        .count();
    let stats = engine.prefix_stats().unwrap_or_default();
    if stats.hits == 0 {
        violations.push("prefix scenario: no cache hits — faults were not exercised against shared blocks".to_string());
    }
    // At idle the cache holds exactly one reference per cached block;
    // every request-held reference (shared or owned) must be gone even
    // though many holders died to injected faults.
    let alloc = engine.batcher().allocator();
    if let Err(e) = alloc.leak_check() {
        violations.push(format!("prefix scenario: {e}"));
    }
    if alloc.used_blocks() != stats.cached_blocks
        || alloc.total_refs() != stats.cached_blocks as u64
    {
        violations.push(format!(
            "prefix scenario: idle pool holds {} blocks / {} refs for {} cached",
            alloc.used_blocks(),
            alloc.total_refs(),
            stats.cached_blocks
        ));
    }
    let flushed = engine.flush_prefix_cache();
    let alloc = engine.batcher().allocator();
    if alloc.used_blocks() != 0 || alloc.total_refs() != 0 || alloc.leak_check().is_err() {
        violations.push(format!(
            "prefix scenario: flush left {} blocks / {} refs live",
            alloc.used_blocks(),
            alloc.total_refs()
        ));
    }
    PrefixChaosStats {
        submitted,
        completed,
        hits: usize::try_from(stats.hits).unwrap_or(usize::MAX),
        cow_forks: usize::try_from(stats.cow_forks).unwrap_or(usize::MAX),
        flushed,
        violations,
    }
}
