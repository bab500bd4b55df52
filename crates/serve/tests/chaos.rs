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
//!   fault-killed requests;
//! - **shared-block refcounts** — with the prefix cache on, the cache's
//!   own references are the only ones left at idle.

use atom::QuantizedKvCache;
use atom_gpu_sim::{HardwareProfile, LlamaGpuConfig, SimScheme};
use atom_nn::kv::Fp32KvCache;
use atom_nn::{DenseLinear, LlamaModel, ModelConfig};
use atom_parallel::Pool;
use atom_serve::engine::CpuEngine;
use atom_serve::fault::FaultRates;
use atom_serve::{FaultPlan, PrefixConfig, PressurePolicy, RooflineModel, Terminal};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// A seeded plan with allocator and forward faults only.
fn alloc_forward_plan(seed: u64, horizon: usize, alloc: f64, forward: f64) -> FaultPlan {
    let rates = FaultRates {
        alloc,
        forward,
        ..FaultRates::default()
    };
    FaultPlan::seeded_chaos(seed, horizon, rates)
}

/// An engine over Fig. 10's roofline model: its KV rows have zero width
/// and its forwards are a cost formula, so the engine's admission, stall
/// and preemption path runs at almost no cost.
fn roofline_engine(max_batch: usize, pool_tokens: usize) -> CpuEngine<RooflineModel> {
    let (config, hw) = (LlamaGpuConfig::llama7b(), HardwareProfile::rtx4090());
    let model = RooflineModel::new(config, hw, SimScheme::AtomW4A4);
    let stores = Box::new(|| Box::new(Fp32KvCache::new(1, 0)) as Box<dyn atom_nn::KvStore>);
    CpuEngine::new(model, stores, max_batch, pool_tokens).expect("valid config")
}

/// Steps `e` to idle under its fault plan, asserting block conservation
/// every step. Returns the number of steps taken and of requests completed.
fn drain_under_faults(e: &mut CpuEngine<RooflineModel>, max_steps: usize) -> (usize, usize) {
    let mut steps = 0usize;
    while !e.batcher().is_idle() && steps < max_steps {
        e.step();
        steps += 1;
        let a = e.batcher().allocator();
        assert_eq!(a.used_blocks() + a.free_blocks(), a.total_blocks());
    }
    (steps, e.completed_count())
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

fn tiny_engine(max_batch: usize, pool_tokens: usize) -> CpuEngine<LlamaModel<DenseLinear>> {
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

/// 160 seeded allocator-fault schedules against the batcher on a tight
/// pool, driven by the engine over the roofline model: always drains, never
/// leaks a block (the ≥100-schedule acceptance gate).
#[test]
fn batcher_survives_160_seeded_fault_schedules() {
    for seed in 0..160u64 {
        let plan = alloc_forward_plan(seed, 400, 0.25, 0.0);
        // 128-slot pool; footprints capped at 1 + 3*30 + 20 = 111 slots.
        let mut e = roofline_engine(3, 128).with_fault_plan(plan);
        let mut submitted = 0usize;
        for i in 0..6usize {
            let prefill = 1 + (seed as usize + i * 37) % 91;
            let decode = 1 + (i * 13 + seed as usize / 3) % 20;
            if e.submit(vec![0; prefill], decode, None).is_ok() {
                submitted += 1;
            }
        }
        let (steps, finished) = drain_under_faults(&mut e, 5_000);
        assert!(
            e.batcher().is_idle(),
            "seed {seed}: not drained after {steps} steps"
        );
        assert_eq!(finished, submitted, "seed {seed}");
        assert_eq!(e.batcher().allocator().used_blocks(), 0, "seed {seed}");
    }
}

/// The Atom INT4 KV cache (§4.4) as the engine's degraded-admission store.
fn int4_cache(config: ModelConfig) -> atom_serve::engine::CacheFactory {
    Box::new(move || {
        Box::new(QuantizedKvCache::new(
            config.layers,
            config.kv_dim(),
            config.head_dim(),
            4,
        ))
    })
}

/// 120 seeded fault schedules through the *real engine* (model forward,
/// real KV caches): every submission reaches exactly one terminal state.
/// Each schedule runs twice: plain on the default pool, then with pressure
/// degrading admissions to INT4 KV and shedding a deep queue, on a width-2
/// pool whose schedule is perturbed with the schedule's seed.
#[test]
fn engine_survives_120_seeded_fault_schedules() {
    let (mut completed, mut degraded) = (0usize, 0usize);
    for (seed, pressure) in (0..120u64).flat_map(|s| [(s, false), (s, true)]) {
        let plan = alloc_forward_plan(seed, 80, 0.2, 0.05);
        let mut e = tiny_engine(2, 160).with_fault_plan(plan);
        let pool = if pressure {
            Pool::new(2).with_stress(seed)
        } else {
            Pool::current()
        };
        if pressure {
            e = e
                .with_degraded_cache(int4_cache(tiny_config()))
                .with_policy(PressurePolicy {
                    degrade_kv_at: 0.5,
                    degrade_queue_depth: Some(2),
                    shed_queue_depth: Some(4),
                });
        }
        let mut accepted = Vec::new();
        let mut rejected = 0usize;
        for i in 0..5usize {
            let len = 1 + (seed as usize + i * 7) % 6;
            let max_new = 1 + (i + seed as usize) % 5;
            let deadline = if i % 2 == 0 { None } else { Some(40 + i) };
            match e.submit(vec![(i as u16 + 1) % 96; len], max_new, deadline) {
                Ok(id) => accepted.push(id),
                Err(_) => rejected += 1,
            }
        }
        pool.install(|| {
            // Cancel one mid-flight request on odd seeds.
            if seed % 2 == 1 {
                e.step();
                if let Some(&victim) = accepted.first() {
                    let _ = e.cancel(victim);
                }
            }
            e.run_to_completion();
        });
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
        if pressure {
            completed += e.completed_count();
            degraded += e.degraded_admissions();
        }
    }
    assert!(
        completed > 0,
        "no request completed under pressure and faults"
    );
    assert!(degraded > 0, "pressure never degraded an admission");
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
    .with_degraded_cache(int4_cache(config))
    .with_policy(PressurePolicy {
        degrade_kv_at: 0.75,
        degrade_queue_depth: Some(2),
        shed_queue_depth: Some(8),
    });

    // First wave: two requests admitted into an empty pool (4 of 8 blocks,
    // no queue) — below both watermarks, so they stay full precision.
    let mut ids: Vec<usize> = (0..2)
        .map(|i| e.submit(vec![(10 + i) as u16; 30], 8, None).unwrap())
        .collect();
    e.step();
    // Second wave: four more stack the queue past the depth-2 watermark, so
    // the next admissions land in the quantized cache.
    ids.extend((2..6).map(|i| e.submit(vec![(10 + i) as u16; 30], 8, None).unwrap()));
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

/// The prefix cache under 32 fault schedules: shared-prefix prompts flow
/// through an engine with the radix cache on while every fault kind fires,
/// so requests holding *shared* KV blocks die mid-prefill and mid-decode.
/// At idle the cache's own references are the only ones left, and flushing
/// it returns the pool to exactly empty. Each schedule runs on a width-2
/// pool perturbed with its seed.
#[test]
fn prefix_cache_conserves_blocks_under_32_fault_schedules() {
    let prefixes: [Vec<u16>; 2] = [(0..32).collect(), (0..32).map(|t| 95 - t).collect()];
    let mut hits = 0u64;
    for seed in 0..32u64 {
        let rates = FaultRates {
            alloc: 0.06,
            forward: 0.06,
            timeout: 0.08,
            cancel: 0.05,
        };
        let mut e = tiny_engine(4, 160)
            .with_degraded_cache(int4_cache(tiny_config()))
            .with_policy(PressurePolicy {
                degrade_kv_at: 0.5,
                degrade_queue_depth: Some(4),
                shed_queue_depth: None,
            })
            .with_prefix_cache(PrefixConfig {
                max_cached_blocks: Some(6),
            })
            .with_fault_plan(FaultPlan::seeded_chaos(seed, 400, rates));
        // Five waves of four, one engine step apart: each prompt is one of
        // the two 2-block system prompts plus a unique suffix, so later
        // waves hit runs earlier ones cached; a third carry deadlines.
        let mut submitted = 0usize;
        Pool::new(2).with_stress(seed).install(|| {
            for wave in 0..5usize {
                for i in 0..4usize {
                    let n = wave * 4 + i;
                    let mut prompt = prefixes[n % 2].clone();
                    prompt.extend((0..4 + n % 5).map(|t| ((n * 13 + t * 3) % 96) as u16));
                    // Submitted at step `wave`, with `20 + n` steps to run.
                    let deadline = (n % 3 == 0).then_some(wave + 20 + n);
                    let _ = e.submit(prompt, 4 + n % 6, deadline);
                    submitted += 1;
                }
                e.step();
            }
            let _ = e.cancel(2);
            let _ = e.cancel(11);
            e.run_to_completion();
        });

        let ids: BTreeSet<usize> = e.outcomes().iter().map(|o| o.id).collect();
        assert_eq!(
            e.outcomes().len(),
            submitted,
            "seed {seed}: one terminal per submission"
        );
        assert_eq!(
            ids.len(),
            submitted,
            "seed {seed}: duplicated terminal state"
        );
        let stats = e.prefix_stats().expect("always present");
        hits += stats.hits;
        let alloc = e.batcher().allocator();
        if let Err(err) = alloc.leak_check() {
            panic!("seed {seed}: {err}");
        }
        assert_eq!(
            (alloc.used_blocks(), alloc.total_refs()),
            (stats.cached_blocks, stats.cached_blocks as u64),
            "seed {seed}: idle pool holds blocks or refs beyond the cache's own"
        );
        e.flush_prefix_cache();
        let alloc = e.batcher().allocator();
        assert_eq!(
            (alloc.used_blocks(), alloc.total_refs()),
            (0, 0),
            "seed {seed}: flush left blocks live"
        );
    }
    assert!(hits > 0, "no cache hit: faults never met shared blocks");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random workloads × random allocator-fault plans through the batcher
    /// (the engine over the roofline model): always terminate, conserve
    /// blocks, finish every accepted request.
    #[test]
    fn random_workloads_with_random_faults_drain(
        lens in proptest::collection::vec((1usize..100, 1usize..40), 1..16),
        seed in 0u64..10_000,
        alloc_rate in 0.0f64..0.6,
        max_batch in 1usize..5,
    ) {
        let plan = alloc_forward_plan(seed, 600, alloc_rate, 0.0);
        let mut e = roofline_engine(max_batch, 160).with_fault_plan(plan);
        let mut accepted = 0usize;
        let mut rejected = 0usize;
        for &(prefill, decode) in &lens {
            // Deliberately unvalidated lengths: some requests exceed the
            // 160-slot pool and must be rejected, not deadlock the batch.
            if e.submit(vec![0; prefill], decode, None).is_ok() { accepted += 1; } else { rejected += 1; }
        }
        prop_assert_eq!(accepted + rejected, lens.len());
        let (steps, finished) = drain_under_faults(&mut e, 30_000);
        prop_assert!(e.batcher().is_idle(), "not drained after {} steps", steps);
        prop_assert_eq!(finished, accepted);
        prop_assert_eq!(e.batcher().allocator().used_blocks(), 0);
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
        let plan = alloc_forward_plan(seed, 60, alloc_rate, forward_rate);
        let mut e = tiny_engine(2, 256).with_fault_plan(plan);
        let mut submissions = 0usize;
        for (i, &(len, max_new)) in reqs.iter().enumerate() {
            let _ = e.submit(vec![(i as u16) % 96 + 1; len], max_new, None);
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
