//! Chaos tests: the serving stack under randomized workloads and seeded,
//! deterministic fault schedules.
//!
//! Invariants asserted under every schedule:
//!
//! - **liveness** — the stack always drains (no deadlock, no livelock);
//! - **conservation** — no KV blocks leak: `used_blocks == 0` at idle and
//!   `used + free == total` at every step;
//! - **exactly-once terminals** — every submission ends in precisely one
//!   `Terminal` state, including rejected, cancelled, expired, and
//!   fault-killed requests.

use atom::QuantizedKvCache;
use atom_data::Request;
use atom_nn::kv::Fp32KvCache;
use atom_nn::{DenseLinear, LlamaModel, ModelConfig};
use atom_serve::engine::CpuEngine;
use atom_serve::{
    ContinuousBatcher, FaultPlan, PagedAllocator, PressurePolicy, SubmitOptions, Terminal,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Drives a bare batcher to idle under a fault plan, asserting block
/// conservation every step. Returns the number of steps taken.
fn drain_batcher_under_faults(
    batcher: &mut ContinuousBatcher,
    plan: &FaultPlan,
    max_steps: usize,
) -> usize {
    let mut step = 0usize;
    while !batcher.is_idle() && step < max_steps {
        step += 1;
        if plan.alloc_fault(step) {
            batcher.arm_alloc_fault();
        }
        batcher.admit();
        batcher.complete_prefill();
        batcher.step_decode();
        batcher.disarm_alloc_fault();
        let a = batcher.allocator();
        assert_eq!(a.used_blocks() + a.free_blocks(), a.total_blocks());
    }
    step
}

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

fn tiny_engine(max_batch: usize, pool_tokens: usize) -> CpuEngine<DenseLinear> {
    let config = tiny_config();
    let model = LlamaModel::random_init(config, 11);
    CpuEngine::new(
        model,
        Box::new(move || Box::new(Fp32KvCache::new(config.layers, config.kv_dim()))),
        max_batch,
        pool_tokens,
    )
    .expect("valid config")
}

/// 160 seeded fault schedules against a bare batcher on a tight pool:
/// always drains, never leaks a block (the ≥100-schedule acceptance gate).
#[test]
fn batcher_survives_160_seeded_fault_schedules() {
    for seed in 0..160u64 {
        let plan = FaultPlan::seeded(seed, 400, 0.25, 0.0);
        let mut b = ContinuousBatcher::new(3, PagedAllocator::new(8, 16)).expect("config");
        // 128-slot pool; footprints capped at 1 + 3*30 + 20 = 111 slots.
        let mut submitted = 0usize;
        for i in 0..6usize {
            let prefill = 1 + (seed as usize + i * 37) % 91;
            let decode = 1 + (i * 13 + seed as usize / 3) % 20;
            if b.submit(Request {
                id: i,
                arrival_s: 0.0,
                prefill_tokens: prefill,
                decode_tokens: decode,
            })
            .is_ok()
            {
                submitted += 1;
            }
        }
        let steps = drain_batcher_under_faults(&mut b, &plan, 5_000);
        assert!(b.is_idle(), "seed {seed}: not drained after {steps} steps");
        assert_eq!(b.finished(), submitted, "seed {seed}");
        assert_eq!(b.allocator().used_blocks(), 0, "seed {seed}");
    }
}

/// 120 seeded fault schedules through the *real engine* (model forward,
/// real KV caches): every submission reaches exactly one terminal state.
#[test]
fn engine_survives_120_seeded_fault_schedules() {
    for seed in 0..120u64 {
        let plan = FaultPlan::seeded(seed, 80, 0.2, 0.05);
        let mut e = tiny_engine(2, 160).with_fault_plan(plan);
        let mut accepted = Vec::new();
        let mut rejected = 0usize;
        for i in 0..5usize {
            let len = 1 + (seed as usize + i * 7) % 6;
            let max_new = 1 + (i + seed as usize) % 5;
            let deadline = if i % 2 == 0 { None } else { Some(40 + i) };
            let opts = SubmitOptions {
                max_new,
                deadline_steps: deadline,
            };
            match e.submit_with(vec![(i as u16 + 1) % 96; len], opts) {
                Ok(id) => accepted.push(id),
                Err(_) => rejected += 1,
            }
        }
        // Cancel one mid-flight request on odd seeds.
        if seed % 2 == 1 {
            e.step();
            if let Some(&victim) = accepted.first() {
                let _ = e.cancel(victim);
            }
        }
        e.run_to_completion();
        assert_eq!(
            e.outcomes().len(),
            accepted.len() + rejected,
            "seed {seed}: one terminal per submission"
        );
        let mut per_id: BTreeMap<usize, usize> = BTreeMap::new();
        for o in e.outcomes() {
            *per_id.entry(o.id).or_default() += 1;
        }
        assert!(
            per_id.values().all(|&n| n == 1),
            "seed {seed}: duplicated terminal state: {per_id:?}"
        );
        assert_eq!(
            e.batcher().allocator().used_blocks(),
            0,
            "seed {seed}: leaked KV blocks"
        );
        assert!(e.batcher().is_idle(), "seed {seed}");
    }
}

/// KV-pressure degradation: with a tight pool and a backed-up queue, the
/// engine admits new requests into the Atom-quantized INT4 KV cache, and
/// every request still reaches a terminal state.
#[test]
fn kv_pressure_degrades_admissions_to_quantized_cache() {
    let config = tiny_config();
    let model = LlamaModel::random_init(config, 11);
    let mut e = CpuEngine::new(
        model,
        Box::new(move || Box::new(Fp32KvCache::new(config.layers, config.kv_dim()))),
        4,
        128, // 8 blocks: three 40-token requests cannot coexist
    )
    .expect("valid config")
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
        degrade_queue_depth: Some(2),
        shed_queue_depth: Some(8),
    });

    // First wave: two requests admitted into an empty pool (4 of 8 blocks,
    // no queue) — below both watermarks, so they stay full precision.
    let mut ids: Vec<usize> = (0..2)
        .map(|i| e.submit(vec![(10 + i) as u16; 30], 8).unwrap())
        .collect();
    e.step();
    // Second wave: four more stack the queue past the depth-2 watermark, so
    // the next admissions land in the quantized cache.
    ids.extend((2..6).map(|i| e.submit(vec![(10 + i) as u16; 30], 8).unwrap()));
    e.run_to_completion();

    assert!(
        e.degraded_admissions() > 0,
        "pressure never degraded an admission"
    );
    assert_eq!(e.outcomes().len(), ids.len());
    for id in &ids {
        let o = e.outcome_of(*id).expect("terminal state");
        assert_eq!(o.terminal, Terminal::Completed, "request {id}");
        assert_eq!(o.tokens.len(), 8);
        assert!(o.tokens.iter().all(|&t| (t as usize) < config.vocab));
    }
    assert!(
        e.outcomes().iter().any(|o| o.stats.degraded_kv),
        "no outcome records a degraded admission"
    );
    assert!(
        e.outcomes().iter().any(|o| !o.stats.degraded_kv),
        "early low-pressure admissions should stay full precision"
    );
    assert_eq!(e.batcher().allocator().used_blocks(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random workloads × random fault plans on the bare batcher: always
    /// terminate, conserve blocks, finish every accepted request.
    #[test]
    fn random_workloads_with_random_faults_drain(
        lens in proptest::collection::vec((1usize..100, 1usize..40), 1..16),
        seed in 0u64..10_000,
        alloc_rate in 0.0f64..0.6,
        max_batch in 1usize..5,
    ) {
        let plan = FaultPlan::seeded(seed, 600, alloc_rate, 0.0);
        let mut b = ContinuousBatcher::new(max_batch, PagedAllocator::new(10, 16))
            .expect("config");
        let mut accepted = 0usize;
        let mut rejected = 0usize;
        for (i, &(prefill, decode)) in lens.iter().enumerate() {
            // Deliberately unvalidated lengths: some requests exceed the
            // 160-slot pool and must be rejected, not deadlock the batch.
            let r = Request { id: i, arrival_s: 0.0, prefill_tokens: prefill, decode_tokens: decode };
            if b.submit(r).is_ok() { accepted += 1; } else { rejected += 1; }
        }
        prop_assert_eq!(accepted + rejected, lens.len());
        let steps = drain_batcher_under_faults(&mut b, &plan, 30_000);
        prop_assert!(b.is_idle(), "not drained after {} steps", steps);
        prop_assert_eq!(b.finished(), accepted);
        prop_assert_eq!(b.allocator().used_blocks(), 0);
    }

    /// Random workloads × random fault plans through the real engine:
    /// exactly one terminal event per submission, no leaked blocks.
    #[test]
    fn engine_chaos_exactly_once_terminals(
        reqs in proptest::collection::vec((1usize..6, 1usize..6), 1..6),
        seed in 0u64..10_000,
        alloc_rate in 0.0f64..0.4,
        forward_rate in 0.0f64..0.15,
    ) {
        let plan = FaultPlan::seeded(seed, 60, alloc_rate, forward_rate);
        let mut e = tiny_engine(2, 256).with_fault_plan(plan);
        let mut submissions = 0usize;
        for (i, &(len, max_new)) in reqs.iter().enumerate() {
            let _ = e.submit(vec![(i as u16) % 96 + 1; len], max_new);
            submissions += 1;
        }
        e.run_to_completion();
        prop_assert_eq!(e.outcomes().len(), submissions);
        let mut seen = std::collections::BTreeSet::new();
        for o in e.outcomes() {
            prop_assert!(seen.insert(o.id), "duplicate terminal for {}", o.id);
            if o.terminal == Terminal::Completed {
                prop_assert_eq!(o.tokens.len(), reqs[o.id].1);
            }
        }
        prop_assert_eq!(e.batcher().allocator().used_blocks(), 0);
        prop_assert!(e.batcher().is_idle());
    }
}
