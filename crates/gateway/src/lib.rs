//! Overload-safe serving gateway in front of the Atom CPU engine.
//!
//! Atom's pitch is serving *throughput* under tight accuracy budgets;
//! this crate supplies the robustness layer a real deployment of it
//! needs: a front door that stays predictable when offered load exceeds
//! capacity. [`Gateway`] owns the request lifecycle end to end —
//!
//! - **Admission control** — per-tenant integer token buckets
//!   ([`bucket::TokenBucket`]) and bounded tenant queues refuse excess
//!   load synchronously with typed, retry-after-carrying rejections
//!   ([`GatewayReject`]) instead of letting queues grow without bound.
//! - **Weighted fairness** — virtual-time weighted fair queuing decides
//!   which tenant dispatches into the engine next, so one noisy tenant
//!   cannot starve the rest.
//! - **Retry with backoff** — retryable engine terminals (injected
//!   faults, spurious timeouts) are redispatched under an exponential
//!   backoff schedule with seeded deterministic jitter.
//! - **Brownout, not blackout** — a circuit breaker ([`Breaker`]) maps
//!   windowed failure counts onto a four-tier ladder
//!   ([`BrownoutTier`]): degrade new admissions to quantized KV (the
//!   paper's own quality/throughput knob), shed low-priority tenants,
//!   then reject-all with retry-after.
//! - **Graceful drain** — [`Gateway::begin_drain`] stops intake, lets
//!   accepted work finish, and force-fails stragglers when the grace
//!   budget elapses, so every accepted request reaches exactly one
//!   [`GatewayTerminal`] — proven under chaos schedules at any thread
//!   count.
//!
//! Ticks, not wall time: the gateway advances on a deterministic
//! tick-based event loop (one engine step per tick), which makes every
//! admission decision, retry schedule, and SLO report bit-identical for
//! a given (config, seed, trace) triple.
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
