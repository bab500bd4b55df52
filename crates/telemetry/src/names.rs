//! Canonical metric names: a closed set, one declaration per name.
//!
//! The measured path (CPU kernels + serve engine) and the simulated path
//! (gpu-sim cost model) record into **the same names** so their breakdowns
//! are directly comparable; the only difference is which registry instance
//! holds them. Naming scheme: `<subsystem>.<entity>.<unit>`, with `_ns`
//! histograms for wall time, `.bytes`/`.rows`/`.calls` counters for volume,
//! and `_steps` histograms for scheduler-clock latencies.
//!
//! Each name is declared once below with its string and its kind, and the
//! kind is its type: [`CounterName`], [`GaugeName`], [`HistogramName`] or
//! [`SpanName`]. The contract has three holders: only this module can make
//! a name and each hook of [`Telemetry`](crate::Telemetry) takes one kind,
//! so a literal or a wrong kind does not compile; a unit test below checks
//! no string is declared twice; and `crates/bench/tests/names_recorded.rs`
//! fails when a declared name is never recorded. A metric name also carries
//! its row in the registry's fixed table, so recording needs no lookup.

/// Declares one kind: its type, a `pub const` per name, and the list of
/// all of them in declaration order. Metric kinds also number their names
/// with a private enum; that number is the name's row in the registry.
macro_rules! declare {
    ($(#[$kind_doc:meta])* $kind:ident, $all:ident, $rows:ident: $($(#[$doc:meta])* $id:ident = $name:literal,)*) => {
        $(#[$kind_doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct $kind {
            row: usize,
            name: &'static str,
        }

        impl $kind {
            /// The metric string, as exported.
            pub const fn as_str(self) -> &'static str {
                self.name
            }

            /// This name's row in the registry's table of its kind.
            pub(crate) const fn row(self) -> usize {
                self.row
            }
        }

        #[allow(non_camel_case_types)]
        enum $rows { $($id),* }
        $($(#[$doc])* pub const $id: $kind = $kind { row: $rows::$id as usize, name: $name };)*
        #[doc = concat!("Every [`", stringify!($kind), "`], in declaration order.")]
        pub const $all: &[$kind] = &[$($id),*];
    };
    ($(#[$kind_doc:meta])* $kind:ident, $all:ident: $($(#[$doc:meta])* $id:ident = $name:literal,)*) => {
        $(#[$kind_doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct $kind {
            name: &'static str,
        }

        impl $kind {
            /// The span string (the Chrome trace "name" field).
            pub const fn as_str(self) -> &'static str {
                self.name
            }
        }

        $($(#[$doc])* pub const $id: $kind = $kind { name: $name };)*
        #[doc = concat!("Every [`", stringify!($kind), "`], in declaration order.")]
        pub const $all: &[$kind] = &[$($id),*];
    };
}

declare! {
    /// The name of a monotonic counter: what
    /// [`Telemetry::counter_add`](crate::Telemetry::counter_add) takes.
    /// Only this module declares names; nothing outside can make one:
    ///
    /// ```compile_fail,E0451
    /// let mine = atom_telemetry::names::CounterName { row: 0, name: "my.counter" };
    /// ```
    CounterName, COUNTERS, CounterRow:
    /// Bytes of operand data moved per GEMM call.
    OP_GEMM_BYTES = "op.gemm.bytes",
    /// Activation rows processed by GEMM.
    OP_GEMM_ROWS = "op.gemm.rows",
    /// GEMM invocations.
    OP_GEMM_CALLS = "op.gemm.calls",
    /// Bytes of KV-cache data attention reads, as the store holds them
    /// (packed codes and scales, or FP32 rows), per (sequence, layer).
    OP_ATTENTION_BYTES = "op.attention.bytes",
    /// Attention invocations: one per (sequence, layer).
    OP_ATTENTION_CALLS = "op.attention.calls",
    /// Quantization epilogue invocations.
    OP_QUANT_CALLS = "op.quant.calls",

    /// Preemption events.
    ENGINE_PREEMPTIONS = "engine.preemptions",
    /// Admissions downgraded to quantized KV under pressure.
    ENGINE_DEGRADED_ADMISSIONS = "engine.degraded_admissions",
    /// Faults injected into the engine that were observed by a request.
    ENGINE_FAULTS = "engine.faults",
    /// Requests that completed (one counter per terminal outcome).
    ENGINE_TERMINAL_COMPLETED = "engine.terminal.completed",
    /// Requests that exceeded their deadline.
    ENGINE_TERMINAL_DEADLINE = "engine.terminal.deadline_exceeded",
    /// Requests cancelled by the client.
    ENGINE_TERMINAL_CANCELLED = "engine.terminal.cancelled",
    /// Requests that failed on an exhausted fault-retry budget.
    ENGINE_TERMINAL_FAILED = "engine.terminal.failed",
    /// Requests rejected at admission.
    ENGINE_TERMINAL_REJECTED = "engine.terminal.rejected",

    /// Admissions that attached a cached prefix run.
    PREFIX_HITS = "prefix.cache.hits",
    /// Admissions that found no cached prefix for their prompt.
    PREFIX_MISSES = "prefix.cache.misses",
    /// Cached prefix runs evicted — LRU pressure, cap enforcement, or flush.
    PREFIX_EVICTIONS = "prefix.cache.evictions",
    /// Copy-on-write forks of shared KV blocks.
    PREFIX_COW_FORKS = "prefix.kv.cow_forks",

    /// Requests offered to the serving gateway, accepted or not.
    GATEWAY_OFFERED = "gateway.offered",
    /// Offers accepted into a tenant queue.
    GATEWAY_ACCEPTED = "gateway.accepted",
    /// Offers refused by a tenant's token bucket.
    GATEWAY_REJECT_RATE_LIMITED = "gateway.reject.rate_limited",
    /// Offers refused because the tenant's bounded queue was full.
    GATEWAY_REJECT_QUEUE_FULL = "gateway.reject.queue_full",
    /// Offers refused by a brownout tier (shed or reject-all).
    GATEWAY_REJECT_BROWNOUT = "gateway.reject.brownout",
    /// Offers refused because the gateway was draining.
    GATEWAY_REJECT_DRAINING = "gateway.reject.draining",
    /// Offers refused by admission validation (degenerate or unservable).
    GATEWAY_REJECT_INVALID = "gateway.reject.invalid",
    /// Engine attempts re-dispatched after a retryable terminal.
    GATEWAY_RETRIES = "gateway.retries",
    /// Accepted requests force-failed when the drain grace budget elapsed.
    GATEWAY_DRAIN_FORCED = "gateway.drain.forced",
    /// Accepted requests that completed (one counter per gateway-level
    /// terminal outcome; retries collapse into one terminal per accepted
    /// request).
    GATEWAY_TERMINAL_COMPLETED = "gateway.terminal.completed",
    /// Accepted requests whose end-to-end deadline elapsed.
    GATEWAY_TERMINAL_DEADLINE = "gateway.terminal.deadline_exceeded",
    /// Accepted requests cancelled by the client.
    GATEWAY_TERMINAL_CANCELLED = "gateway.terminal.cancelled",
    /// Accepted requests that exhausted their retry budget or were drained.
    GATEWAY_TERMINAL_FAILED = "gateway.terminal.failed",

    /// Chunks dispatched into thread-pool parallel regions.
    POOL_TASKS = "pool.tasks",
}

declare! {
    /// The name of a last-write-wins gauge: what
    /// [`Telemetry::gauge_set`](crate::Telemetry::gauge_set) takes.
    GaugeName, GAUGES, GaugeRow:
    /// KV pool blocks in use right now.
    ENGINE_KV_USED_BLOCKS = "engine.kv.used_blocks",
    /// KV pool capacity in blocks.
    ENGINE_KV_TOTAL_BLOCKS = "engine.kv.total_blocks",
    /// Physical KV blocks currently referenced by more than one owner.
    PREFIX_SHARED_BLOCKS = "prefix.kv.shared_blocks",
    /// Circuit-breaker brownout tier: 0 normal, 1 degraded-KV, 2 shed
    /// low-priority, 3 reject-all.
    GATEWAY_BREAKER_TIER = "gateway.breaker.tier",
    /// Chunks waiting to execute when a parallel region dispatches (returns
    /// to 0 when the region joins).
    POOL_QUEUE_DEPTH = "pool.queue.depth",
}

declare! {
    /// The name of a histogram: what
    /// [`Telemetry::record`](crate::Telemetry::record) and
    /// [`Telemetry::timer`](crate::Telemetry::timer) take.
    HistogramName, HISTOGRAMS, HistogramRow:
    /// Wall time per GEMM call (ns). Covers the fused group-dequant
    /// INT4/INT8 GEMM and the dense FP32 reference path.
    OP_GEMM_WALL_NS = "op.gemm.wall_ns",
    /// Wall time of a layer's attention section (ns): the KV appends and
    /// every (sequence, KV head) attention cell, K/V decoding included.
    OP_ATTENTION_WALL_NS = "op.attention.wall_ns",
    /// Wall time spent in runtime (de)quantization epilogues — Atom §4.3's
    /// dynamic per-group activation quantization plus channel reordering
    /// (ns).
    OP_QUANT_WALL_NS = "op.quant.wall_ns",
    /// Wall time of everything in an iteration that is neither GEMM,
    /// attention, nor quantization — norms, activations, embeddings (ns).
    /// Only the simulated path records this directly; the measured path
    /// derives it as `model.forward − (gemm + attention + quant)`.
    OP_OTHER_WALL_NS = "op.other.wall_ns",
    /// Wall time per full model forward (ns).
    MODEL_FORWARD_WALL_NS = "model.forward.wall_ns",

    /// Wall time per engine scheduling step, inclusive of forwards (ns).
    ENGINE_STEP_WALL_NS = "engine.step.wall_ns",
    /// Waiting-queue depth sampled once per step.
    ENGINE_QUEUE_DEPTH = "engine.queue.depth",
    /// KV pool occupancy per step, in tenths of a percent 0..=1000.
    ENGINE_KV_OCCUPANCY_PERMILLE = "engine.kv.occupancy_permille",
    /// Time to first token per finished request, in scheduler steps.
    ENGINE_TTFT_STEPS = "engine.request.ttft_steps",
    /// Time per output token per finished request, in milli-steps (1000 =
    /// one step per token).
    ENGINE_TPOT_MILLISTEPS = "engine.request.tpot_millisteps",

    /// Time to first token for requests admitted with a cached prefix, in
    /// scheduler steps — compare against [`ENGINE_TTFT_STEPS`] to see the
    /// cache-hit TTFT collapse.
    PREFIX_HIT_TTFT_STEPS = "prefix.request.hit_ttft_steps",

    /// Backoff delay assigned per retry, in ticks.
    GATEWAY_BACKOFF_TICKS = "gateway.retry.backoff_ticks",
    /// Requests waiting in gateway tenant queues, sampled once per tick.
    GATEWAY_QUEUE_DEPTH = "gateway.queue.depth",
    /// End-to-end time to first token per completed request, in gateway
    /// ticks — includes gateway queueing, backoff, and every retried
    /// attempt.
    GATEWAY_TTFT_TICKS = "gateway.request.ttft_ticks",
    /// End-to-end time per output token per completed request, in
    /// milli-ticks (1000 = one tick per token).
    GATEWAY_TPOT_MILLITICKS = "gateway.request.tpot_milliticks",

    /// Worker busy time over `threads x region wall`, in permille 0..=1000
    /// — 1000 means every worker was busy for the whole region.
    POOL_UTILIZATION_PERMILLE = "pool.utilization_permille",
    /// Wall time of one parallel region, dispatch to join (ns).
    POOL_REGION_WALL_NS = "pool.region.wall_ns",
}

declare! {
    /// The name of a trace span: what
    /// [`Telemetry::span`](crate::Telemetry::span) and
    /// [`span!`](crate::span!) take.
    SpanName, SPANS:
    /// Span covering one full model forward pass.
    SPAN_MODEL_FORWARD = "model_forward",
    /// Span covering one attention layer inside a forward pass.
    SPAN_ATTENTION = "attention",
    /// Span covering one engine scheduling step.
    SPAN_ENGINE_STEP = "engine_step",
    /// Span covering the fused W4A4 GEMM kernel.
    SPAN_GEMM_W4A4 = "gemm_w4a4",
    /// Span covering one quantized-KV attention cell (the fused kernel).
    SPAN_ATTENTION_QUANT_KV = "attention_quant_kv",
    /// Span covering the dequantize/requantize epilogue of a quantized
    /// linear.
    SPAN_QUANT_EPILOGUE = "quant_epilogue",
    /// Span covering one worker's share of a thread-pool parallel region.
    SPAN_POOL_WORKER = "pool_worker",
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Two declarations of one string would merge two series in every
    /// export; spans are included so a trace name never shadows a metric.
    #[test]
    fn every_declared_string_is_distinct() {
        let all: Vec<&str> = COUNTERS
            .iter()
            .map(|n| n.as_str())
            .chain(GAUGES.iter().map(|n| n.as_str()))
            .chain(HISTOGRAMS.iter().map(|n| n.as_str()))
            .chain(SPANS.iter().map(|n| n.as_str()))
            .collect();
        let distinct: BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(distinct.len(), all.len(), "{all:?}");
    }
}
