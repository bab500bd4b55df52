//! Overload-safe serving gateway in front of the Atom CPU engine.
//!
//! Atom's pitch is serving *throughput* under tight accuracy budgets;
//! this crate supplies the robustness layer a real deployment of it
//! needs: a front door that stays predictable when offered load exceeds
//! capacity. [`Gateway`] owns the request lifecycle end to end —
//!
//! - **Admission control.** An offer passes, in order: drain refusal,
//!   tenant lookup, brownout tier, request validation (the same
//!   [`RejectReason`](atom_serve::RejectReason) checks the engine applies,
//!   run *before* acceptance so an accepted request can never terminalize
//!   `Rejected`), a bounded per-tenant queue, and an integer milli-token
//!   bucket ([`bucket::TokenBucket`], 1000 per request;
//!   [`GatewayReject::RateLimited`] carries a `retry_after_ticks` estimate
//!   derived from the refill rate). Every rejection is a typed
//!   [`GatewayReject`], never an unbounded queue.
//! - **Weighted fairness.** Dispatch into the engine's admission queue uses
//!   virtual-finish-time weighted fair queuing: the backlogged tenant with
//!   the smallest virtual finish time dispatches next and is charged
//!   `WFQ_SCALE / weight`, so a weight-3 tenant gets ~3x the slots of a
//!   weight-1 tenant under contention without ever starving it (a plain
//!   credit scheme fails exactly that test). Idle tenants catch up to the
//!   live minimum on wake so sleeping never accumulates priority. The
//!   dispatcher stops feeding the engine at
//!   [`GatewayConfig::dispatch_queue_target`], keeping ordering decisions
//!   in the gateway rather than the engine's FCFS queue.
//! - **Deadlines.** The engine steps on the gateway's clock (one step per
//!   tick, idle or not), so a request's deadline tick is passed unchanged
//!   to [`CpuEngine::submit`](atom_serve::CpuEngine::submit) as its
//!   deadline step, and engine-side expiry lands exactly on the first
//!   expired gateway tick; queued requests are checked at dispatch and
//!   parked retries are released no later than `deadline + 1`. Either way
//!   the outcome's `finished_tick` is the tick that found the expiry.
//! - **Retry with backoff.** Faulted attempts
//!   ([`Terminal::Failed`](atom_serve::Terminal::Failed), or a spurious
//!   timeout whose gateway deadline has not actually elapsed) are re-queued
//!   after `min(base·2^(k-1), max) + jitter` ticks ([`RetryPolicy`]), where
//!   the jitter is a SplitMix64 hash of (seed, request id, attempt) — retry
//!   storms decorrelate, yet every schedule is a pure function of the seed.
//!   Client cancellations are never retried; an exhausted budget is a typed
//!   `Failed{retry budget exhausted}` terminal.
//! - **Brownout, not blackout.** A circuit breaker ([`Breaker`]) maps a
//!   sliding window of per-tick failure counts onto an ordered
//!   [`BrownoutTier`] ladder — [`Normal`](BrownoutTier::Normal) →
//!   [`DegradedKv`](BrownoutTier::DegradedKv) (new admissions take the INT4
//!   quantized KV cache, the paper's §4.4 lever, by forcing
//!   [`degrade_kv_at`](atom_serve::PressurePolicy::degrade_kv_at) to 0) →
//!   [`ShedLowPriority`](BrownoutTier::ShedLowPriority) (tenants under the
//!   priority floor are refused) → [`RejectAll`](BrownoutTier::RejectAll)
//!   (every offer refused with a retry-after). It trips up instantly and
//!   steps down one tier per cooldown of calm ticks, probing recovery
//!   gently.
//! - **Graceful drain.** [`Gateway::begin_drain`] refuses new offers while
//!   queued, parked, and in-flight work completes normally; after
//!   [`GatewayConfig::drain_grace_ticks`] stragglers are force-failed
//!   (queued/parked directly, in-flight via engine cancel mapped to a typed
//!   `Failed{drained before completion}`), so every accepted request
//!   reaches exactly one [`GatewayTerminal`].
//! - **Determinism.** Ticks, not wall time: one gateway tick drives exactly
//!   one engine step, and all order-sensitive state lives in ordered
//!   structures (per-tenant `VecDeque`s, `BTreeMap`s for parked/in-flight,
//!   the engine's outcome log), so a (config, seed, trace) triple replays
//!   bit-identically at any thread count.
//!
//! # Example
//!
//! ```
//! use atom_gateway::{Gateway, GatewayConfig};
//! use atom_nn::kv::Fp32KvCache;
//! use atom_nn::{LlamaModel, ModelConfig};
//! use atom_serve::CpuEngine;
//!
//! let config = ModelConfig { dim: 32, layers: 1, heads: 4, kv_heads: 4, ffn_dim: 48, ..ModelConfig::default() };
//! let model = LlamaModel::random_init(config, 3);
//! let engine = CpuEngine::new(
//!     model,
//!     Box::new(move || Box::new(Fp32KvCache::new(config.layers, config.kv_dim()))),
//!     4,
//!     1024,
//! ).unwrap();
//! let mut gw = Gateway::new(engine, GatewayConfig::single_tenant()).unwrap();
//! let id = gw.offer(0, vec![1, 2, 3], 4, None).unwrap();
//! assert!(gw.run_until_idle(100));
//! assert!(gw.outcome_of(id).unwrap().terminal.is_completed());
//! ```

// The gateway owns the request lifecycle above the engine: a panic here
// strands every queued and in-flight request. Tests are exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

pub mod breaker;
pub mod bucket;
pub mod config;
pub mod error;
pub mod gateway;

pub use breaker::{Breaker, BrownoutTier};
pub use config::{BreakerConfig, GatewayConfig, RetryPolicy, TenantSpec};
pub use error::{GatewayReject, GatewayTerminal};
pub use gateway::{synth_prompt, Gateway, GatewayOutcome, RejectCounts, ReplaySummary};
