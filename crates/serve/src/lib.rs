//! LLM serving substrate for the Atom reproduction.
//!
//! The paper integrates Atom into Punica with FlashInfer + PagedAttention
//! and continuous batching (§4.5, §5.3.2). This crate rebuilds that stack:
//!
//! - [`paged`] — a vLLM-style paged KV-cache block allocator with per-
//!   sequence block tables and byte accounting per quantization scheme.
//! - [`scheduler`] — Orca-style continuous batching: FCFS admission,
//!   iteration-level refill when requests finish.
//! - [`engine`] — the serving loop: a *real* CPU serving engine running the
//!   trained zoo models with Atom-quantized weights and KV caches end to
//!   end (scheduling, paging, quantized decode), over any [`BatchModel`].
//! - [`roofline`] — Fig. 10's GPU-scale Llama as a [`BatchModel`] costed by
//!   the `atom-gpu-sim` roofline; the engine serves it over ShareGPT-like
//!   traces to regenerate the throughput / latency / fixed-memory
//!   comparisons.
//! - [`error`] — the typed failure model: every runtime condition (bad
//!   input, memory pressure, faults) surfaces as a [`ServeError`] or a
//!   per-request [`Terminal`] state, never a panic.
//! - [`fault`] — deterministic, seeded fault injection ([`FaultPlan`])
//!   driving the chaos tests.

// The serving hot path must never panic on traffic (see the error-model
// docs above): a panic here fails the whole batch instead of one request.
// Tests are exempt: unwrapping in a test is the assertion.
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
pub mod engine;
pub mod error;
pub mod fault;
pub mod paged;
pub mod roofline;
pub mod scheduler;

pub use engine::{
    BatchModel, Completion, CpuEngine, Outcome, PressurePolicy, RequestStats, SubmitOptions,
};
pub use error::{RejectReason, ServeError, Terminal};
pub use fault::FaultPlan;
pub use paged::{BlockTable, PagedAllocator, SharedPrefix};
pub use roofline::{RooflineModel, ServingReport};
pub use scheduler::{AdmitOutcome, BatchEvent, ContinuousBatcher};

// The prefix-cache configuration and stats types cross the engine's public
// API (`CpuEngine::with_prefix_cache` / `prefix_stats`); re-export them so
// downstream crates need no direct `atom-prefix` dependency.
pub use atom_prefix::{PrefixCacheStats, PrefixConfig};
