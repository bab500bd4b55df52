//! Canonical metric names.
//!
//! The measured path (CPU kernels + serve engine) and the simulated path
//! (gpu-sim cost model) record into **the same names** so their breakdowns
//! are directly comparable; the only difference is which registry instance
//! holds them. Naming scheme: `<subsystem>.<entity>.<unit>`, with `_ns`
//! histograms for wall time, `.bytes`/`.rows`/`.calls` counters for volume,
//! and `_steps` histograms for scheduler-clock latencies.

/// Wall time per GEMM call (histogram, ns). Covers the fused group-dequant
/// INT4/INT8 GEMM and the dense FP32 reference path.
pub const OP_GEMM_WALL_NS: &str = "op.gemm.wall_ns";
/// Bytes of operand data moved per GEMM call (counter).
pub const OP_GEMM_BYTES: &str = "op.gemm.bytes";
/// Activation rows processed by GEMM (counter).
pub const OP_GEMM_ROWS: &str = "op.gemm.rows";
/// GEMM invocations (counter).
pub const OP_GEMM_CALLS: &str = "op.gemm.calls";

/// Wall time per attention call (histogram, ns), including KV
/// dequantize-on-load.
pub const OP_ATTENTION_WALL_NS: &str = "op.attention.wall_ns";
/// Bytes of KV-cache data read per attention call (counter).
pub const OP_ATTENTION_BYTES: &str = "op.attention.bytes";
/// Attention invocations (counter).
pub const OP_ATTENTION_CALLS: &str = "op.attention.calls";

/// Wall time spent in runtime (de)quantization epilogues — Atom §4.3's
/// dynamic per-group activation quantization plus channel reordering
/// (histogram, ns).
pub const OP_QUANT_WALL_NS: &str = "op.quant.wall_ns";
/// Quantization epilogue invocations (counter).
pub const OP_QUANT_CALLS: &str = "op.quant.calls";

/// Wall time of everything in an iteration that is neither GEMM, attention,
/// nor quantization — norms, activations, embeddings (histogram, ns). Only
/// the simulated path records this directly; the measured path derives it
/// as `model.forward − (gemm + attention + quant)`.
pub const OP_OTHER_WALL_NS: &str = "op.other.wall_ns";

/// Wall time per full model forward (histogram, ns).
pub const MODEL_FORWARD_WALL_NS: &str = "model.forward.wall_ns";

/// Wall time per engine scheduling step, inclusive of forwards (histogram,
/// ns).
pub const ENGINE_STEP_WALL_NS: &str = "engine.step.wall_ns";
/// Waiting-queue depth sampled once per step (histogram).
pub const ENGINE_QUEUE_DEPTH: &str = "engine.queue.depth";
/// KV pool blocks in use right now (gauge).
pub const ENGINE_KV_USED_BLOCKS: &str = "engine.kv.used_blocks";
/// KV pool capacity in blocks (gauge).
pub const ENGINE_KV_TOTAL_BLOCKS: &str = "engine.kv.total_blocks";
/// KV pool occupancy per step, in tenths of a percent 0..=1000
/// (histogram).
pub const ENGINE_KV_OCCUPANCY_PERMILLE: &str = "engine.kv.occupancy_permille";

/// Time to first token per finished request, in scheduler steps
/// (histogram).
pub const ENGINE_TTFT_STEPS: &str = "engine.request.ttft_steps";
/// Time per output token per finished request, in milli-steps (histogram;
/// 1000 = one step per token).
pub const ENGINE_TPOT_MILLISTEPS: &str = "engine.request.tpot_millisteps";

/// Preemption events (counter).
pub const ENGINE_PREEMPTIONS: &str = "engine.preemptions";
/// Admissions downgraded to quantized KV under pressure (counter).
pub const ENGINE_DEGRADED_ADMISSIONS: &str = "engine.degraded_admissions";
/// Faults injected into the engine that were observed by a request
/// (counter).
pub const ENGINE_FAULTS: &str = "engine.faults";
/// Terminal events by outcome (counters).
pub const ENGINE_TERMINAL_COMPLETED: &str = "engine.terminal.completed";
/// Requests that exceeded their deadline.
pub const ENGINE_TERMINAL_DEADLINE: &str = "engine.terminal.deadline_exceeded";
/// Requests cancelled by the client.
pub const ENGINE_TERMINAL_CANCELLED: &str = "engine.terminal.cancelled";
/// Requests that failed on an exhausted fault-retry budget.
pub const ENGINE_TERMINAL_FAILED: &str = "engine.terminal.failed";
/// Requests rejected at admission.
pub const ENGINE_TERMINAL_REJECTED: &str = "engine.terminal.rejected";

/// Admissions that attached a cached prefix run (counter).
pub const PREFIX_HITS: &str = "prefix.cache.hits";
/// Admissions that found no cached prefix for their prompt (counter).
pub const PREFIX_MISSES: &str = "prefix.cache.misses";
/// Cached prefix runs evicted — LRU pressure, cap enforcement, or flush
/// (counter).
pub const PREFIX_EVICTIONS: &str = "prefix.cache.evictions";
/// Copy-on-write forks of shared KV blocks (counter).
pub const PREFIX_COW_FORKS: &str = "prefix.kv.cow_forks";
/// Physical KV blocks currently referenced by more than one owner (gauge).
pub const PREFIX_SHARED_BLOCKS: &str = "prefix.kv.shared_blocks";
/// Time to first token for requests admitted with a cached prefix, in
/// scheduler steps (histogram) — compare against
/// [`ENGINE_TTFT_STEPS`] to see the cache-hit TTFT collapse.
pub const PREFIX_HIT_TTFT_STEPS: &str = "prefix.request.hit_ttft_steps";

/// Requests offered to the serving gateway, accepted or not (counter).
pub const GATEWAY_OFFERED: &str = "gateway.offered";
/// Offers accepted into a tenant queue (counter).
pub const GATEWAY_ACCEPTED: &str = "gateway.accepted";
/// Offers refused by a tenant's token bucket (counter).
pub const GATEWAY_REJECT_RATE_LIMITED: &str = "gateway.reject.rate_limited";
/// Offers refused because the tenant's bounded queue was full (counter).
pub const GATEWAY_REJECT_QUEUE_FULL: &str = "gateway.reject.queue_full";
/// Offers refused by a brownout tier (shed or reject-all) (counter).
pub const GATEWAY_REJECT_BROWNOUT: &str = "gateway.reject.brownout";
/// Offers refused because the gateway was draining (counter).
pub const GATEWAY_REJECT_DRAINING: &str = "gateway.reject.draining";
/// Offers refused by admission validation (degenerate or unservable)
/// (counter).
pub const GATEWAY_REJECT_INVALID: &str = "gateway.reject.invalid";
/// Engine attempts re-dispatched after a retryable terminal (counter).
pub const GATEWAY_RETRIES: &str = "gateway.retries";
/// Backoff delay assigned per retry, in ticks (histogram).
pub const GATEWAY_BACKOFF_TICKS: &str = "gateway.retry.backoff_ticks";
/// Accepted requests force-failed when the drain grace budget elapsed
/// (counter).
pub const GATEWAY_DRAIN_FORCED: &str = "gateway.drain.forced";
/// Gateway-level terminal events by outcome (counters; retries collapse
/// into one terminal per accepted request).
pub const GATEWAY_TERMINAL_COMPLETED: &str = "gateway.terminal.completed";
/// Accepted requests whose end-to-end deadline elapsed.
pub const GATEWAY_TERMINAL_DEADLINE: &str = "gateway.terminal.deadline_exceeded";
/// Accepted requests cancelled by the client.
pub const GATEWAY_TERMINAL_CANCELLED: &str = "gateway.terminal.cancelled";
/// Accepted requests that exhausted their retry budget or were drained.
pub const GATEWAY_TERMINAL_FAILED: &str = "gateway.terminal.failed";
/// Requests waiting in gateway tenant queues, sampled once per tick
/// (histogram).
pub const GATEWAY_QUEUE_DEPTH: &str = "gateway.queue.depth";
/// Circuit-breaker brownout tier: 0 normal, 1 degraded-KV, 2 shed
/// low-priority, 3 reject-all (gauge).
pub const GATEWAY_BREAKER_TIER: &str = "gateway.breaker.tier";
/// End-to-end time to first token per completed request, in gateway ticks
/// — includes gateway queueing, backoff, and every retried attempt
/// (histogram).
pub const GATEWAY_TTFT_TICKS: &str = "gateway.request.ttft_ticks";
/// End-to-end time per output token per completed request, in milli-ticks
/// (histogram; 1000 = one tick per token).
pub const GATEWAY_TPOT_MILLITICKS: &str = "gateway.request.tpot_milliticks";

/// Chunks dispatched into thread-pool parallel regions (counter).
pub const POOL_TASKS: &str = "pool.tasks";
/// Chunks waiting to execute when a parallel region dispatches (gauge;
/// returns to 0 when the region joins).
pub const POOL_QUEUE_DEPTH: &str = "pool.queue.depth";
/// Worker busy time over `threads x region wall`, in permille 0..=1000
/// (histogram) — 1000 means every worker was busy for the whole region.
pub const POOL_UTILIZATION_PERMILLE: &str = "pool.utilization_permille";
/// Wall time of one parallel region, dispatch to join (histogram, ns).
pub const POOL_REGION_WALL_NS: &str = "pool.region.wall_ns";

/// Span covering one full model forward pass.
pub const SPAN_MODEL_FORWARD: &str = "model_forward";
/// Span covering one attention layer inside a forward pass.
pub const SPAN_ATTENTION: &str = "attention";
/// Span covering one engine scheduling step.
pub const SPAN_ENGINE_STEP: &str = "engine_step";
/// Span covering the fused W4A4 GEMM kernel.
pub const SPAN_GEMM_W4A4: &str = "gemm_w4a4";
/// Span covering quantized-KV attention.
pub const SPAN_ATTENTION_QUANT_KV: &str = "attention_quant_kv";
/// Span covering the dequantize/requantize epilogue of a quantized linear.
pub const SPAN_QUANT_EPILOGUE: &str = "quant_epilogue";
/// Span covering one worker's share of a thread-pool parallel region.
pub const SPAN_POOL_WORKER: &str = "pool_worker";
