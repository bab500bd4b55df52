//! Engine telemetry: the TTFT/TPOT histograms and terminal counters the
//! engine records must agree exactly with the per-request `RequestStats`
//! it hands back in `Outcome`s.

use atom_nn::kv::Fp32KvCache;
use atom_nn::{DenseLinear, LlamaModel, ModelConfig};
use atom_serve::engine::CpuEngine;
use atom_serve::{SubmitOptions, Terminal};
use atom_telemetry::{names, Telemetry};
use std::sync::Arc;

fn tiny_config() -> ModelConfig {
    ModelConfig {
        dim: 16,
        layers: 1,
        heads: 2,
        kv_heads: 2,
        ffn_dim: 24,
        ..ModelConfig::default()
    }
}

/// An engine with its own enabled telemetry instance, isolated from the
/// process-global one other tests may touch.
fn instrumented_engine(pool_tokens: usize) -> (CpuEngine<LlamaModel<DenseLinear>>, Arc<Telemetry>) {
    let config = tiny_config();
    let model = LlamaModel::random_init(config, 11);
    let telemetry = Arc::new(Telemetry::enabled());
    let engine = CpuEngine::new(
        model,
        Box::new(move || Box::new(Fp32KvCache::new(config.layers, config.kv_dim()))),
        4,
        pool_tokens,
    )
    .expect("valid config")
    .with_telemetry(Arc::clone(&telemetry));
    (engine, telemetry)
}

#[test]
fn ttft_and_tpot_histograms_match_request_stats() {
    let (mut engine, telemetry) = instrumented_engine(1024);
    for i in 0..8 {
        let prompt: Vec<u16> = (0..4 + i * 3).map(|t| (t % 96) as u16).collect();
        engine
            .submit_with(prompt, SubmitOptions::new(3 + i % 5))
            .expect("roomy pool admits everything");
    }
    engine.run_to_completion();

    let mut ttfts = Vec::new();
    let mut tpots = Vec::new();
    let mut completed = 0u64;
    for o in engine.outcomes() {
        assert!(matches!(o.terminal, Terminal::Completed), "no faults configured");
        completed += 1;
        ttfts.push(o.stats.ttft_steps().expect("completed ⇒ first token") as u64);
        if let Some(t) = o.stats.tpot_millisteps(o.tokens.len()) {
            tpots.push(t);
        }
    }

    let snap = telemetry.metrics().snapshot();
    let ttft_h = &snap.histograms[names::ENGINE_TTFT_STEPS.as_str()];
    assert_eq!(ttft_h.count, ttfts.len() as u64);
    assert_eq!(ttft_h.sum, ttfts.iter().sum::<u64>());
    assert_eq!(ttft_h.min, *ttfts.iter().min().expect("requests completed"));
    assert_eq!(ttft_h.max, *ttfts.iter().max().expect("requests completed"));

    let tpot_h = &snap.histograms[names::ENGINE_TPOT_MILLISTEPS.as_str()];
    assert_eq!(tpot_h.count, tpots.len() as u64);
    assert_eq!(tpot_h.sum, tpots.iter().sum::<u64>());
    assert_eq!(tpot_h.min, *tpots.iter().min().expect("multi-token requests"));
    assert_eq!(tpot_h.max, *tpots.iter().max().expect("multi-token requests"));

    assert_eq!(snap.counter(names::ENGINE_TERMINAL_COMPLETED), completed);
    assert_eq!(
        snap.histograms[names::ENGINE_STEP_WALL_NS.as_str()].count,
        engine.steps() as u64,
        "one step timer sample per engine step"
    );
    assert_eq!(
        snap.histograms[names::ENGINE_QUEUE_DEPTH.as_str()].count,
        engine.steps() as u64,
        "queue depth sampled once per step"
    );
}

#[test]
fn default_engine_uses_disabled_global_and_records_nothing_new() {
    // The engine without `with_telemetry` records into the (disabled)
    // global instance: finished requests must not create TTFT samples.
    let config = tiny_config();
    let model = LlamaModel::random_init(config, 7);
    let before = Telemetry::global()
        .metrics()
        .snapshot()
        .histogram(names::ENGINE_TTFT_STEPS)
        .map_or(0, |h| h.count);
    let mut engine = CpuEngine::new(
        model,
        Box::new(move || Box::new(Fp32KvCache::new(config.layers, config.kv_dim()))),
        2,
        512,
    )
    .expect("valid config");
    engine.submit((0..6).collect(), 4).expect("admitted");
    engine.run_to_completion();
    assert!(matches!(engine.outcomes()[0].terminal, Terminal::Completed));
    let after = Telemetry::global()
        .metrics()
        .snapshot()
        .histogram(names::ENGINE_TTFT_STEPS)
        .map_or(0, |h| h.count);
    assert_eq!(before, after, "disabled global telemetry must stay silent");
}
