//! Every name `atom_telemetry::names` declares is recorded by the stack.
//!
//! The name types reject a literal or a wrong-kind name at compile time;
//! what they cannot see is a declared name nothing records, which would
//! make `telemetry_report` claim coverage it does not have. This test
//! enables the global instance — alone in its own test binary, so no other
//! test shares it — drives every recording path once, and requires each
//! declared name in the metrics snapshot under its own kind, or, for spans,
//! in the drained trace.

use atom::{AtomScheme, QuantizedKvCache, QuantizedLinear, ReorderPlan};
use atom_gateway::{Gateway, GatewayConfig, TenantSpec};
use atom_gpu_sim::{HardwareProfile, LlamaGpuConfig, Phase, SimScheme};
use atom_nn::kv::Fp32KvCache;
use atom_nn::{DenseLinear, LinearLayer, LlamaModel, ModelConfig};
use atom_parallel::Pool;
use atom_serve::engine::CpuEngine;
use atom_serve::fault::FaultRates;
use atom_serve::{FaultPlan, PrefixConfig, PressurePolicy};
use atom_telemetry::{names, Telemetry};
use atom_tensor::SeededRng;
use std::collections::BTreeSet;

fn config() -> ModelConfig {
    ModelConfig {
        dim: 32,
        layers: 1,
        heads: 4,
        kv_heads: 4,
        ffn_dim: 48,
        ..ModelConfig::default()
    }
}

/// A tiny FP32-KV engine recording into the global instance.
fn engine(max_batch: usize, pool_tokens: usize) -> CpuEngine<LlamaModel<DenseLinear>> {
    let c = config();
    CpuEngine::new(
        LlamaModel::random_init(c, 3),
        Box::new(move || Box::new(Fp32KvCache::new(c.layers, c.kv_dim()))),
        max_batch,
        pool_tokens,
    )
    .expect("valid engine config")
}

/// A prompt opening with one of two 32-token system prefixes.
fn prompt(i: usize) -> Vec<u16> {
    let prefix = (i % 2) as u16 * 40;
    (0..32)
        .map(|t| prefix + t)
        .chain([80 + (i % 16) as u16, 90])
        .collect()
}

/// A gateway over an engine with a prefix cache, a degraded INT4 cache and
/// a seeded fault plan: an unknown tenant, a rate limit, a full queue,
/// retries, a brownout, a cancel, a deadline, a drain and a forced drain.
/// The model records `op.attention.*` over every cache; the degraded INT4
/// caches attend through the fused kernel, which records its span.
fn serve_through_a_gateway() {
    // A wall of forward faults early on trips the breaker for certain, and a
    // timeout fault expires a request inside the engine.
    let rates = FaultRates {
        alloc: 0.05,
        forward: 0.1,
        ..FaultRates::default()
    };
    let seeded = FaultPlan::seeded_chaos(28, 200, rates).with_timeout_fault(10, 0);
    let plan = (2..8).fold(seeded, |p, step| p.with_forward_fault(step, 0));
    let c = config();
    let engine = engine(4, 1024)
        .with_prefix_cache(PrefixConfig {
            max_cached_blocks: Some(2),
        })
        .with_degraded_cache(Box::new(move || {
            Box::new(QuantizedKvCache::new(c.layers, c.kv_dim(), c.head_dim(), 4))
        }))
        .with_policy(PressurePolicy {
            degrade_kv_at: 0.5,
            degrade_queue_depth: Some(2),
            shed_queue_depth: None,
        })
        .with_fault_plan(plan);
    let open = TenantSpec::new("open", 1, 1).with_rate(100_000, 1_000_000);
    let tenants = vec![
        open.clone(),
        TenantSpec::new("low", 1, 0).with_rate(100_000, 1_000_000),
        TenantSpec::new("metered", 1, 1).with_rate(0, 1_000),
        open.with_queue_cap(1),
    ];
    let mut cfg = GatewayConfig::new(tenants).with_seed(28);
    cfg.breaker.degrade_failures = 1;
    cfg.breaker.shed_failures = 2;
    cfg.drain_grace_ticks = 4;
    let mut g = Gateway::new(engine, cfg).expect("valid gateway config");

    // Refused: an unknown tenant, the metered tenant's second offer, the
    // narrow queue's second offer.
    for tenant in [9, 2, 2, 3, 3] {
        let _ = g.offer(tenant, prompt(tenant), 2, None);
    }
    g.offer(0, prompt(2), 40, Some(3))
        .expect("accepted, to miss its deadline");
    let cancelled = g.offer(0, prompt(3), 40, None).expect("accepted");
    for i in 0..8 {
        g.offer(0, prompt(i), 6, None).expect("accepted");
    }
    g.tick();
    g.cancel(cancelled).expect("cancel in flight");
    for _ in 0..40 {
        // Low priority: refused once the breaker sheds.
        let _ = g.offer(1, prompt(4), 4, None);
        g.tick();
    }
    for i in 0..6 {
        g.offer(0, prompt(i), 60, None)
            .expect("accepted, to outlast the drain grace");
    }
    g.begin_drain();
    let _ = g.offer(0, prompt(0), 2, None);
    assert!(g.run_until_idle(500), "the drain converges");
}

#[test]
fn every_declared_name_is_recorded() {
    Telemetry::enable_global();
    serve_through_a_gateway();

    // What the gateway never lets reach an engine: a submission larger than
    // the KV pool, and two sequences that outgrow a 6-block pool together.
    let mut e = engine(2, 96);
    assert!(e.submit(vec![1; 200], 4, None).is_err(), "larger than the pool");
    for i in 0..2 {
        e.submit((0..16).map(|t| t + i * 20).collect(), 40, None)
            .expect("fits alone");
    }
    e.run_to_completion();
    assert!(e.batcher().preemptions() >= 1);

    let mut data = vec![0u32; 4];
    Pool::new(2).par_chunks_mut(&mut data, 1, |i, chunk| chunk.fill(i as u32));

    let mut rng = SeededRng::new(1);
    let dense = DenseLinear::new(rng.normal_matrix(24, 64, 0.0, 0.3));
    let scheme = AtomScheme {
        use_gptq: false,
        ..AtomScheme::w4a4()
    };
    let plan = ReorderPlan::from_outlier_set(64, &[5, 40]);
    QuantizedLinear::quantize(&dense, plan, None, &scheme)
        .forward(&rng.normal_matrix(2, 64, 0.0, 1.0));

    let (llama, hw) = (LlamaGpuConfig::llama7b(), HardwareProfile::rtx4090());
    let global = Telemetry::global();
    atom_gpu_sim::record_iteration(
        global,
        &llama,
        SimScheme::AtomW4A4,
        64,
        1024,
        Phase::Decode,
        &hw,
    );

    let snap = global.metrics().snapshot();
    let events = global.tracer().drain();
    let traced: BTreeSet<&str> = events.iter().map(|e| e.name).collect();
    let mut missing: Vec<&str> = Vec::new();
    let counters = names::COUNTERS.iter().map(|n| n.as_str());
    missing.extend(counters.filter(|n| !snap.counters.contains_key(*n)));
    let gauges = names::GAUGES.iter().map(|n| n.as_str());
    missing.extend(gauges.filter(|n| !snap.gauges.contains_key(*n)));
    let histograms = names::HISTOGRAMS.iter().map(|n| n.as_str());
    missing.extend(histograms.filter(|n| !snap.histograms.contains_key(*n)));
    let spans = names::SPANS.iter().map(|n| n.as_str());
    missing.extend(spans.filter(|n| !traced.contains(n)));
    assert!(missing.is_empty(), "never recorded: {missing:?}");
}
