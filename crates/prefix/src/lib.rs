//! Radix-tree prefix cache over token streams (atom-prefix).
//!
//! Real fleets serve a small set of system prompts to millions of users, so
//! most prefill work re-derives KV state an earlier request already
//! produced. This crate indexes completed prefills in a radix tree keyed by
//! token content at KV-block granularity (the SGLang/vLLM prefix-caching
//! lineage): each tree node covers one physical KV block — a full
//! `block_size`-token chunk for interior nodes, or a shorter leaf for a
//! prompt's partial tail — and owns an [`Snapshot`] of the donor request's
//! KV state so a later request with the same prompt prefix can skip
//! recomputing it.
//!
//! The index is **pure bookkeeping over block ids**: reference counts and
//! the free list live in the serving crate's `PagedAllocator`, and KV
//! payloads live in snapshots ([`atom_nn::KvStore`] boxes — which stay
//! INT4-quantized when the donor ran the quantized store, so degraded
//! admissions hit the same cache). The contract with the caller:
//!
//! - every node holds exactly one cache reference on its block; callers
//!   retain blocks reported by [`radix::InsertReport::newly_shared`] and
//!   release the block returned by [`RadixIndex::evict_lru`];
//! - matching is all-or-nothing per node and capped at `prompt_len - 1`
//!   tokens by the engine, so a hit always leaves at least one token to
//!   forward (the model needs one logits row to emit the first token);
//! - snapshots are only ever *truncated* to a match point, never extended,
//!   and per-row quantization makes truncation bit-identical to a fresh
//!   short prefill — which is what keeps token streams identical at any
//!   cache capacity;
//! - nodes are tagged with a [`Flavor`] and only match within it, so a
//!   request admitted into the degraded (INT4) KV store replays degraded
//!   snapshots only: degraded admissions hit the cache, outputs never move;
//! - all iteration orders (children, arena slots, free slots) are
//!   insertion-deterministic, preserving the engine's bit-identical-replay
//!   contract at any thread count.

#![warn(missing_docs)]
// Every request's prompt flows through the radix lookup at admission, so
// this crate inherits the serving contract. Tests are exempt.
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

pub mod radix;
pub mod snapshot;

pub use radix::{Flavor, InsertReport, MatchOutcome, RadixIndex, FLAVOR_DEGRADED, FLAVOR_NORMAL};
pub use snapshot::Snapshot;

/// The prefix cache's capacity. The engine's index always exists; this is
/// how much it may hold.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrefixConfig {
    /// Soft cap on cached blocks: after each insertion the engine evicts
    /// least-recently-used unshared runs down to this bound. `Some(0)`
    /// caches nothing (the engine's setting until configured); `None` lets
    /// the cache grow until admission or decode pressure evicts it.
    pub max_cached_blocks: Option<usize>,
}

/// Point-in-time prefix-cache statistics assembled by the serving engine
/// (index counters plus allocator sharing state).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixCacheStats {
    /// Admissions that attached a cached prefix.
    pub hits: u64,
    /// Admissions that found no usable prefix.
    pub misses: u64,
    /// Prompt insertions that created at least one new node.
    pub insertions: u64,
    /// Cached runs evicted (LRU or flush).
    pub evictions: u64,
    /// Copy-on-write forks performed by the allocator.
    pub cow_forks: u64,
    /// Nodes (= blocks) currently held by the index.
    pub cached_blocks: usize,
    /// Physical blocks currently referenced more than once.
    pub shared_blocks: usize,
}
