//! The CPU serving engine: continuous batching over paged KV with one
//! record per request, one admission path and one KV path.
//!
//! Actual tokens flow through the actual (optionally Atom-quantized) model;
//! this is the engine the serving benchmark under `benchmark/` measures.
//! One [`CpuEngine::step`] is one iteration of the loop of §4.5 / §5.3.2:
//! expire deadlines, admit from the FCFS queue, run one forward over the
//! batch, retire what finished.
//! It is the workspace's only serving loop: the model is anything that runs
//! a [`BatchModel::forward_batch`], so Fig. 10's roofline
//! ([`RooflineModel`](crate::roofline::RooflineModel)) is served by it too.
//! Every call advances the step clock by one, idle or not, so a caller that
//! steps once per tick of its own clock shares that clock with the engine:
//! deadlines and every [`RequestStats`] step are on it.
//!
//! # One forward per step
//!
//! A step runs the model at most once: one batched forward
//! ([`LlamaModel::forward_batch`]) over a row of every decoding member plus
//! prompt chunks, first come first served, up to `block_size × max_batch`
//! tokens (`ContinuousBatcher::plan`). Each linear layer sees every
//! in-flight row at once — the batching Atom's throughput argument rests on
//! (paper §3, Fig. 4) — and a long prompt prefills over several steps
//! instead of stalling every decoder for one long forward (Sarathi-Serve's
//! chunked prefill). The forward returns one logits row per member, its
//! last: the other rows of a chunk run only as far as the last block's K/V
//! append, which is all a later step reads of them. The step commits after
//! the forward: a decoder's argmax is its next token, a member whose last
//! chunk ran gets its first one, and no row runs whose logits would be
//! discarded.
//!
//! Chunking changes no bit. Every stacked operator is row-wise (embedding,
//! RMSNorm, RoPE by position, per-token activation quantization, the GEMM
//! rows), so a row equals that sequence's forward alone, whoever shares the
//! step. A chunk row at position `p` attends to keys `0..=p`: the same
//! quantized rows whether they were appended in one forward or across
//! chunks, since KV quantization is per token row.
//!
//! A batch member may be mid-prefill when it is picked as a fault victim or
//! counted for decode headroom. A panic inside the batched forward is still
//! one request's failure: the step truncates every cache back to its
//! pre-step length and re-runs the members one at a time, and only those
//! whose own forward panics again terminalize `Failed`.
//!
//! # One record
//!
//! Every live request is one record held by the
//! [`ContinuousBatcher`]: its prompt, its [`RequestStats`], its KV store and
//! generated tokens once admitted, and what its latest admission decided.
//! The batcher's FCFS queue holds the waiting records and its batch the
//! admitted ones, so where a record sits is its state. Only the batcher
//! knows that layout: the engine asks it for the queue's head, the member
//! it just admitted, the step's plan, a fault's victim or the live ids in
//! id order. The forward borrows straight from the record, and preemption
//! drops its KV where it sits. It leaves the batcher exactly once, into
//! the one terminalization function, which keeps its partial tokens and
//! records its [`Outcome`]: every submission — accepted or not — ends in
//! precisely one [`Terminal`] state, and the engine never panics on
//! traffic.
//!
//! # One admission path
//!
//! The radix prefix index (`atom-prefix`) is always there; the prefix cache
//! is its *capacity*, not a mode. [`CpuEngine::new`] installs capacity 0 —
//! nothing is inserted, no snapshot is cloned, every lookup misses on an
//! empty trie — and [`CpuEngine::with_prefix_cache`] only sets it. Each
//! admission, head of queue first, (1) decides the request's KV flavor
//! (below), (2) matches the prompt's longest cached prefix in that flavor,
//! capped at `len - 1` so one token is always left to forward, and pins the
//! matched blocks, (3) admits the request seeded with that shared run,
//! evicting least-recently-used cache-only blocks while the pool is short,
//! and (4) gives it its KV store: the hit's snapshot cut to the matched
//! boundary — bit-identical to prefilling those tokens, since KV
//! quantization state is per token row — or a fresh one of its flavor. The
//! first request that does not fit blocks the queue (FCFS).
//!
//! Prefill forwards only the unseen suffix and, after its last chunk,
//! donates the prompt's blocks to the index (full blocks shared, the
//! partial tail copy-forked so the donor's own tail stays writable). Cached
//! blocks yield before decode would stall and do not count as load below,
//! so the cache only ever *adds* capacity; token streams are identical at
//! any capacity and any pool width.
//!
//! # Robustness
//!
//! - **admission validation**: degenerate or pool-exceeding requests are
//!   refused at [`CpuEngine::submit`] with a typed [`RejectReason`], so a
//!   lone accepted request can always grow; a livelock circuit breaker is
//!   the last line of defense;
//! - **graceful degradation**: at or past the [`PressurePolicy`] watermarks
//!   an admission gets the degraded (Atom INT4) KV cache — the paper's KV
//!   quantization as a memory-pressure valve. The rule is per request: of
//!   several admitted in one step, only those that reach a watermark
//!   degrade. Past `shed_queue_depth` the newest submissions are shed;
//! - **fault tolerance**: a deterministic [`FaultPlan`] can poison block
//!   allocation or kill, time out or cancel an in-flight request at chosen
//!   steps, without leaking a block or losing a terminal event; a panicking
//!   forward fails only its own request (above).

use crate::error::{RejectReason, ServeError, Terminal};
use crate::fault::FaultPlan;
use crate::paged::{PagedAllocator, SharedPrefix};
use crate::scheduler::{AdmitOutcome, ContinuousBatcher, Seq};
use atom_nn::{KvStore, LinearLayer, LlamaModel, SeqRows};
use atom_parallel::catch_panic;
use atom_prefix::{
    PrefixCacheStats, PrefixConfig, RadixIndex, Snapshot, FLAVOR_DEGRADED, FLAVOR_NORMAL,
};
use atom_telemetry::{names, Telemetry};
use atom_tensor::cast;
use atom_tensor::ops;
use atom_tensor::Matrix;
use std::sync::Arc;

/// Factory producing a fresh KV cache per admitted sequence.
pub type CacheFactory = Box<dyn Fn() -> Box<dyn KvStore>>;

/// What the engine runs once per step: a batched forward over every
/// sequence's rows, appending each sequence's K/V to its own store and
/// returning one logits row per sequence, that of its last token: row `i`
/// is sequence `i`'s. The engine picks each next token as that row's
/// argmax. [`LlamaModel`] computes it, running the last block's tail and
/// the head on those rows only;
/// [`RooflineModel`](crate::roofline::RooflineModel) costs it instead.
pub trait BatchModel {
    /// One forward over every sequence of `batch` (see
    /// [`LlamaModel::forward_batch`]).
    fn forward_batch(&self, batch: &mut [SeqRows<'_>]) -> Matrix;
}

impl<L: LinearLayer> BatchModel for LlamaModel<L> {
    fn forward_batch(&self, batch: &mut [SeqRows<'_>]) -> Matrix {
        LlamaModel::forward_batch(self, batch)
    }
}

/// Per-request lifecycle accounting, in engine steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestStats {
    /// Step count at submission.
    pub submitted_step: usize,
    /// Step of first admission into the batch (`None`: never admitted).
    pub admitted_step: Option<usize>,
    /// Step at which the first token was generated (`None`: none was).
    pub first_token_step: Option<usize>,
    /// Times this request was recompute-preempted.
    pub preemptions: usize,
    /// Whether admission placed it in a degraded (low-bit) KV cache.
    pub degraded_kv: bool,
    /// Prompt tokens served from the prefix cache instead of being
    /// prefilled (0 = no hit).
    pub prefix_tokens: usize,
    /// The last step the request may run in, if it was submitted with a
    /// deadline; the first step after it terminates it `DeadlineExceeded`.
    pub deadline_step: Option<usize>,
    /// Step at which the request reached its terminal state (`None` while
    /// in flight).
    pub finished_step: Option<usize>,
}

impl RequestStats {
    /// Steps spent queued before first admission.
    pub fn queue_steps(&self) -> Option<usize> {
        self.admitted_step.map(|a| a - self.submitted_step)
    }

    /// Time-to-first-token in steps (includes queue time).
    pub fn ttft_steps(&self) -> Option<usize> {
        self.first_token_step.map(|t| t - self.submitted_step)
    }

    /// Time-per-output-token in milli-steps (1000 = one step per token),
    /// averaged over the decode span for `tokens` generated tokens. `None`
    /// until the request is terminal or when fewer than two tokens came out.
    pub fn tpot_millisteps(&self, tokens: usize) -> Option<u64> {
        let first = self.first_token_step?;
        let finished = self.finished_step?;
        if tokens < 2 {
            return None;
        }
        Some(((finished - first) * 1000 / (tokens - 1)) as u64)
    }
}

/// The terminal record of one request: exactly one per submission.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Request id (submission order; rejected submissions consume one too).
    pub id: usize,
    /// How the request ended.
    pub terminal: Terminal,
    /// Tokens generated before the terminal state (full generation for
    /// `Completed`, partial for cancel/deadline/failure, empty otherwise).
    pub tokens: Vec<u16>,
    /// Lifecycle accounting.
    pub stats: RequestStats,
}

/// Load-shedding and graceful-degradation watermarks.
///
/// When KV-pool utilization or queue depth crosses these thresholds the
/// engine (a) hands *new* admissions a degraded (lower-precision) KV cache
/// if one was configured, and (b) sheds the newest submissions with
/// [`RejectReason::QueueFull`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PressurePolicy {
    /// KV-pool load fraction (blocks used right after a request's own
    /// admission, less evictable cached ones, over total) at or above which
    /// that admission degrades. Values above 1.0 disable it.
    pub degrade_kv_at: f64,
    /// Requests still queued behind an admission at or above which that
    /// admission degrades.
    pub degrade_queue_depth: Option<usize>,
    /// Queue depth at which new submissions are shed.
    pub shed_queue_depth: Option<usize>,
}

impl Default for PressurePolicy {
    fn default() -> Self {
        PressurePolicy {
            degrade_kv_at: 2.0, // disabled
            degrade_queue_depth: None,
            shed_queue_depth: None,
        }
    }
}

/// Runs `seqs` as one batched forward and commits each one's rows with the
/// argmax of its logits row, that of its last token ([`Seq::commit`]).
fn forward_seqs<M: BatchModel>(model: &M, seqs: &mut [&mut Seq], step: usize) {
    let mut batch: Vec<SeqRows<'_>> = seqs.iter_mut().filter_map(|s| s.rows()).collect();
    let logits = model.forward_batch(&mut batch);
    drop(batch);
    for (i, seq) in seqs.iter_mut().filter(|s| s.kv.is_some()).enumerate() {
        seq.commit(
            cast::usize_to_u16_saturating(ops::argmax(logits.row(i))),
            step,
        );
    }
}

/// Runs a step's members as **one** batched model forward on
/// [`Pool::current`](atom_parallel::Pool::current): each feeds the rows
/// [`ContinuousBatcher::plan`] gave it. Every row is bit-identical to that
/// sequence's forward alone, whoever shares the step and at any pool width.
///
/// The failure contract stays per request. If the batched forward panics,
/// every KV store is truncated back to its length before the step and the
/// sequences run again one at a time; only those whose own forward panics
/// again are returned, each with its message labelled by what it fed — also
/// when the panic was raised in a GEMM tile or an attention cell on a pool
/// worker, since a region re-raises its workers' panics on the caller. The
/// panic is contained on the caller thread, not in a pool region: inside
/// one, the forward's GEMM row blocks and attention grid would run inline.
fn run_forwards<M: BatchModel>(
    model: &M,
    mut seqs: Vec<&mut Seq>,
    step: usize,
) -> Vec<(usize, String)> {
    if seqs.is_empty() {
        return Vec::new();
    }
    let before: Vec<usize> = seqs
        .iter()
        .map(|s| s.kv.as_ref().map_or(0, |kv| kv.len(0)))
        .collect();
    if catch_panic(|| forward_seqs(model, &mut seqs, step)).is_ok() {
        return Vec::new();
    }
    let mut failed = Vec::new();
    for (seq, len) in seqs.iter_mut().zip(before) {
        if let Some(kv) = seq.kv.as_mut() {
            kv.truncate(len);
        }
        let phase = if seq.prefilling() { "prefill" } else { "decode" };
        let alone = std::slice::from_mut(seq);
        if let Err(message) = catch_panic(|| forward_seqs(model, alone, step)) {
            failed.push((seq.id, format!("{phase} forward panic: {message}")));
        }
    }
    failed
}

/// Where engine metrics go: the process-global telemetry instance, or an
/// engine-owned one (tests and benches that need isolation).
#[derive(Clone)]
enum TelemetrySink {
    Global,
    Owned(Arc<Telemetry>),
}

impl TelemetrySink {
    fn get(&self) -> &Telemetry {
        match self {
            TelemetrySink::Global => Telemetry::global(),
            TelemetrySink::Owned(t) => t,
        }
    }
}

fn terminal_metric(terminal: &Terminal) -> names::CounterName {
    match terminal {
        Terminal::Completed => names::ENGINE_TERMINAL_COMPLETED,
        Terminal::Rejected(_) => names::ENGINE_TERMINAL_REJECTED,
        Terminal::Cancelled => names::ENGINE_TERMINAL_CANCELLED,
        Terminal::DeadlineExceeded => names::ENGINE_TERMINAL_DEADLINE,
        Terminal::Failed { .. } => names::ENGINE_TERMINAL_FAILED,
    }
}

/// CPU serving engine: continuous batching over a real model.
///
/// # Example
///
/// Serve two prompts to completion on a tiny FP32 model; every submission
/// reaches exactly one terminal state and batching never changes tokens:
///
/// ```
/// use atom_nn::{kv::Fp32KvCache, LlamaModel, ModelConfig};
/// use atom_serve::CpuEngine;
///
/// let config = ModelConfig {
///     dim: 32, layers: 1, heads: 4, kv_heads: 4, ffn_dim: 48,
///     ..ModelConfig::default()
/// };
/// let model = LlamaModel::random_init(config, 3);
/// let mut engine = CpuEngine::new(
///     model,
///     Box::new(move || Box::new(Fp32KvCache::new(config.layers, config.kv_dim()))),
///     2,    // max batch
///     1024, // KV pool tokens
/// )
/// .expect("valid config");
/// let a = engine.submit(vec![1, 2, 3], 4, None).expect("accepted");
/// engine.submit(vec![9, 8], 3, None).expect("accepted");
/// let done = engine.run_to_completion();
/// assert_eq!(done.len(), 2);
/// let first = done.iter().find(|o| o.id == a).expect("terminal");
/// assert!(first.terminal.is_completed());
/// assert_eq!(first.tokens.len(), 4);
/// ```
pub struct CpuEngine<M: BatchModel> {
    model: M,
    new_cache: CacheFactory,
    degraded_cache: Option<CacheFactory>,
    policy: PressurePolicy,
    fault: FaultPlan,
    /// Every request between submission and its terminal state.
    batcher: ContinuousBatcher,
    /// Radix index over completed prefills, held to `max_cached_blocks`
    /// blocks (0: nothing is cached; `usize::MAX`: bounded by the pool).
    index: RadixIndex,
    max_cached_blocks: usize,
    /// Hits, misses, insertions and evictions so far; the other fields are
    /// filled in by [`Self::prefix_stats`].
    prefix_events: PrefixCacheStats,
    /// Allocator copy-on-write forks already reported to telemetry.
    cow_forks_reported: u64,
    outcomes: Vec<Outcome>,
    next_id: usize,
    clock: usize,
    /// Steps that ran a forward, and those whose forward fed a decode row.
    forwards: usize,
    decode_steps: usize,
    degraded_admissions: usize,
    telemetry: TelemetrySink,
}

impl<M: BatchModel> std::fmt::Debug for CpuEngine<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CpuEngine")
            .field("queued", &self.batcher.queued())
            .field("running", &self.batcher.running())
            .field("cached_blocks", &self.index.len())
            .field("clock", &self.clock)
            .field("decode_steps", &self.decode_steps)
            .field("degraded_admissions", &self.degraded_admissions)
            .finish_non_exhaustive()
    }
}

impl<M: BatchModel> CpuEngine<M> {
    /// Consecutive no-progress steps after which in-flight requests are
    /// failed instead of looping forever (livelock circuit breaker; with
    /// validated admission it should never trip outside pathological
    /// fault plans).
    const STALL_LIMIT: usize = 10_000;

    /// Creates an engine with a batch cap and a KV pool of `kv_pool_tokens`
    /// token slots (16-token blocks).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] if `max_batch == 0` or the
    /// pool cannot hold a single block.
    pub fn new(
        model: M,
        new_cache: CacheFactory,
        max_batch: usize,
        kv_pool_tokens: usize,
    ) -> Result<Self, ServeError> {
        if kv_pool_tokens < 16 {
            return Err(ServeError::InvalidConfig(
                "kv pool must hold at least one 16-token block",
            ));
        }
        let allocator = PagedAllocator::new(kv_pool_tokens / 16, 16);
        let index = RadixIndex::new(allocator.block_size());
        Ok(CpuEngine {
            model,
            new_cache,
            degraded_cache: None,
            policy: PressurePolicy::default(),
            fault: FaultPlan::none(),
            batcher: ContinuousBatcher::new(max_batch, allocator)?,
            index,
            max_cached_blocks: 0,
            prefix_events: PrefixCacheStats::default(),
            cow_forks_reported: 0,
            outcomes: Vec::new(),
            next_id: 0,
            clock: 0,
            forwards: 0,
            decode_steps: 0,
            degraded_admissions: 0,
            telemetry: TelemetrySink::Global,
        })
    }

    /// Routes this engine's metrics into `telemetry` instead of the process
    /// global. Used by tests and benches that need an isolated registry.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = TelemetrySink::Owned(telemetry);
        self
    }

    /// Installs the degraded KV-cache factory used for admissions under
    /// memory pressure (typically an Atom INT4 quantized cache).
    pub fn with_degraded_cache(mut self, factory: CacheFactory) -> Self {
        self.degraded_cache = Some(factory);
        self
    }

    /// Installs the load-shedding / degradation watermarks.
    pub fn with_policy(mut self, policy: PressurePolicy) -> Self {
        self.set_policy(policy);
        self
    }

    /// Replaces the pressure watermarks at runtime. The gateway's circuit
    /// breaker uses this to push the engine into brownout (e.g. degrading
    /// every new admission to the low-bit KV cache) and to restore the
    /// baseline policy on recovery.
    pub fn set_policy(&mut self, policy: PressurePolicy) {
        self.policy = policy;
        self.batcher.set_queue_limit(policy.shed_queue_depth);
    }

    /// The currently installed pressure watermarks.
    pub fn policy(&self) -> PressurePolicy {
        self.policy
    }

    /// Installs a deterministic fault-injection plan (chaos testing).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }

    /// Gives the prefix cache its capacity: completed prefills are indexed
    /// by token content, and later admissions whose prompt shares a cached
    /// prefix attach the existing (refcounted, copy-on-write) KV blocks and
    /// prefill only the suffix. Token streams are bit-identical at any
    /// capacity — only the prefill work changes.
    pub fn with_prefix_cache(mut self, config: PrefixConfig) -> Self {
        self.max_cached_blocks = config.max_cached_blocks.unwrap_or(usize::MAX);
        self
    }

    /// Submits a prompt for generation of `max_new` tokens; returns the
    /// request id. With a `deadline` step, a request still running in any
    /// later step terminates [`Terminal::DeadlineExceeded`] at the start of
    /// it.
    ///
    /// # Errors
    ///
    /// Returns the typed [`RejectReason`] when the request cannot be
    /// served (empty prompt, zero tokens, exceeds the KV pool, or the
    /// queue shed watermark was reached). Rejected submissions still
    /// consume an id and leave a [`Terminal::Rejected`] outcome.
    pub fn submit(
        &mut self,
        prompt: Vec<u16>,
        max_new: usize,
        deadline: Option<usize>,
    ) -> Result<usize, RejectReason> {
        let id = self.next_id;
        self.next_id += 1;
        let stats = RequestStats {
            submitted_step: self.clock,
            deadline_step: deadline,
            ..RequestStats::default()
        };
        if let Err(reason) = self.batcher.submit(Seq::new(id, prompt, max_new, stats)) {
            self.telemetry
                .get()
                .counter_add(names::ENGINE_TERMINAL_REJECTED, 1);
            self.outcomes.push(Outcome {
                id,
                terminal: Terminal::Rejected(reason),
                tokens: Vec::new(),
                stats: RequestStats {
                    finished_step: Some(self.clock),
                    ..stats
                },
            });
            return Err(reason);
        }
        Ok(id)
    }

    /// Cancels an in-flight (queued or active) request. Its KV blocks are
    /// released and it terminates [`Terminal::Cancelled`] with whatever
    /// tokens it had generated.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownRequest`] if the id was never
    /// submitted or is already terminal.
    pub fn cancel(&mut self, id: usize) -> Result<(), ServeError> {
        self.end(id, Terminal::Cancelled)
            .ok_or(ServeError::UnknownRequest(id))
    }

    /// Takes `id` out of the batcher, releasing its KV blocks, and
    /// terminalizes it; `None` if it is not live.
    fn end(&mut self, id: usize, terminal: Terminal) -> Option<()> {
        let seq = self.batcher.remove(id)?;
        self.terminalize(seq, terminal);
        Some(())
    }

    /// Records the terminal state of a record that has left the batcher
    /// (its blocks are released already), with whatever tokens it had
    /// generated. The single funnel through which every accepted request
    /// exits guarantees the exactly-once terminal property.
    fn terminalize(&mut self, seq: Seq, terminal: Terminal) {
        let Seq {
            id,
            mut stats,
            generated: tokens,
            ..
        } = seq;
        stats.finished_step = Some(self.clock);
        let tel = self.telemetry.get();
        tel.counter_add(terminal_metric(&terminal), 1);
        if terminal.is_completed() {
            if let Some(ttft) = stats.ttft_steps() {
                tel.record(names::ENGINE_TTFT_STEPS, ttft as u64);
                if stats.prefix_tokens > 0 {
                    tel.record(names::PREFIX_HIT_TTFT_STEPS, ttft as u64);
                }
            }
            if let Some(tpot) = stats.tpot_millisteps(tokens.len()) {
                tel.record(names::ENGINE_TPOT_MILLISTEPS, tpot);
            }
        }
        self.outcomes.push(Outcome {
            id,
            terminal,
            tokens,
            stats,
        });
    }

    /// Runs one serving iteration: advance the clock, expire deadlines,
    /// admit, inject scheduled faults, then run one forward over a row of
    /// every decoder and the prompt chunks the budget leaves room for, and
    /// retire what finished. Returns `false`, having only advanced the
    /// clock, when nothing is queued or running.
    pub fn step(&mut self) -> bool {
        self.clock += 1;
        if self.batcher.is_idle() {
            return false;
        }
        let sink = self.telemetry.clone();
        let tel = sink.get();
        let _step_timer = tel.timer(names::ENGINE_STEP_WALL_NS);
        let _step_span = tel.span(names::SPAN_ENGINE_STEP, &[]);

        // Deadline sweep: a request whose last step has passed terminates
        // before it can consume another iteration, and same-step expiries
        // terminalize in id order.
        let clock = self.clock;
        let expired = self
            .batcher
            .ids_where(|s| s.stats.deadline_step.is_some_and(|d| clock > d));
        for id in expired {
            self.end(id, Terminal::DeadlineExceeded);
        }

        // Injected allocator fault: poison block growth for this step.
        if self.fault.alloc_fault(clock) {
            self.batcher.allocator_mut().arm_fault();
            tel.counter_add(names::ENGINE_FAULTS, 1);
        }

        self.admit_from_queue();

        let used = self.batcher.allocator().used_blocks();
        let total = self.batcher.allocator().total_blocks();
        let util = used as f64 / total.max(1) as f64;
        tel.record(names::ENGINE_QUEUE_DEPTH, self.batcher.queued() as u64);
        tel.gauge_set(names::ENGINE_KV_USED_BLOCKS, used as i64);
        tel.gauge_set(names::ENGINE_KV_TOTAL_BLOCKS, total as i64);
        tel.record(
            names::ENGINE_KV_OCCUPANCY_PERMILLE,
            (util * 1000.0).round() as u64,
        );

        // Injected faults, one in-flight victim each, in this order: a
        // forward fault surfaces a typed failure instead of poisoning the
        // batch; a spurious timeout trips the victim's watchdog although its
        // real deadline had not passed (`DeadlineExceeded` with whatever
        // tokens it had — the retryable shape the gateway's retry policy
        // absorbs); a client cancel hangs up, and must never be retried
        // upstream.
        let forward_failed = Terminal::Failed {
            reason: format!("injected forward fault at step {clock}"),
        };
        let injected = [
            (self.fault.forward_fault(clock), forward_failed),
            (self.fault.timeout_fault(clock), Terminal::DeadlineExceeded),
            (self.fault.cancel_fault(clock), Terminal::Cancelled),
        ];
        for (slot, terminal) in injected {
            if let Some(id) = slot.and_then(|s| self.batcher.victim(s)) {
                tel.counter_add(names::ENGINE_FAULTS, 1);
                self.end(id, terminal);
            }
        }

        // Guarantee decode headroom before the scheduler plans this step.
        // Every sequence may need one fresh block, and blocks held only by
        // the cache must yield rather than stall (or preempt) live work.
        while self.batcher.allocator().free_blocks() < self.batcher.running() {
            if self.evict_one_cached().is_none() {
                break;
            }
        }

        // The step's one forward, over the rows the scheduler planned. A
        // forward that panicked fails only its own request; a member whose
        // last chunk ran donates its prompt to the prefix index.
        let preemptions = self.batcher.preemptions();
        let seqs = self.batcher.plan();
        let last = seqs.iter().filter(|s| s.prefilling() && s.fed + s.feed == s.prompt.len());
        let prefilled: Vec<usize> = last.map(|s| s.id).collect();
        self.forwards += usize::from(!seqs.is_empty());
        self.decode_steps += usize::from(seqs.iter().any(|s| !s.prefilling()));
        for (id, reason) in run_forwards(&self.model, seqs, clock) {
            self.end(id, Terminal::Failed { reason });
        }
        if self.batcher.preemptions() > preemptions {
            tel.counter_add(names::ENGINE_PREEMPTIONS, 1);
        }
        for id in prefilled {
            self.cache_completed_prefill(id);
        }
        for id in self.batcher.ids_where(Seq::done) {
            self.end(id, Terminal::Completed);
        }
        // The cache cap is enforced once per step as well as at insert
        // time: blocks shared with a live donor are unevictable when
        // inserted, and only fall to refcount 1 (cache-only) after the
        // donor finishes — which may be this step's finished requests.
        self.enforce_cache_cap();

        // The allocator owns the copy-on-write fork total; report its delta.
        let alloc = self.batcher.allocator();
        let cow_forks = alloc.cow_forks() as u64;
        tel.counter_add(names::PREFIX_COW_FORKS, cow_forks - self.cow_forks_reported);
        self.cow_forks_reported = cow_forks;
        tel.gauge_set(names::PREFIX_SHARED_BLOCKS, alloc.shared_blocks() as i64);
        self.batcher.allocator_mut().disarm_fault();
        true
    }

    /// Admission, the one path: for each head-of-queue request, decide its
    /// KV flavor, look up the longest cached prefix of its prompt in that
    /// flavor, pin the matched blocks, admit it seeded with the shared run
    /// — evicting cold cached runs when the pool is short — and build its
    /// KV store. Stops at the first request that cannot be admitted (FCFS
    /// head-of-line).
    fn admit_from_queue(&mut self) {
        while let Some(head) = self.batcher.head() {
            if self.batcher.allocator().fault_armed() {
                break;
            }
            let degraded = self.predict_degraded(head.prompt.len());
            let flavor = if degraded { FLAVOR_DEGRADED } else { FLAVOR_NORMAL };
            // Cap at `prompt_len - 1`: at least one prompt token must be
            // forwarded to produce the first decode logits.
            let cap = head.prompt.len().saturating_sub(1);
            let outcome = self
                .index
                .match_prefix(&head.prompt, flavor, cap, self.clock as u64);
            // Pin the planned blocks so the eviction loop below can never
            // free part of the plan we are about to attach.
            let shared = SharedPrefix {
                blocks: outcome.blocks,
                tokens: outcome.tokens,
            };
            for &block in &shared.blocks {
                self.batcher.allocator_mut().retain_block(block);
            }
            let fits = loop {
                match self.batcher.try_admit_head(&shared) {
                    AdmitOutcome::Admitted => break true,
                    AdmitOutcome::NeedBlocks { .. } => {
                        if self.evict_one_cached().is_none() {
                            break false;
                        }
                    }
                    AdmitOutcome::Blocked => break false,
                }
            };
            for &block in &shared.blocks {
                self.batcher.allocator_mut().release_block(block);
            }
            if !fits {
                break;
            }
            let Some(seq) = self.batcher.newest_mut() else {
                break; // unreachable: the admission just pushed it
            };
            let tel = self.telemetry.get();
            let kv = match &outcome.snapshot {
                // A hit replays the donor's snapshot cut to the matched
                // prefix — bit-identical to prefilling those tokens, since
                // both stores quantize per token row.
                Some(snapshot) => {
                    self.prefix_events.hits += 1;
                    tel.counter_add(names::PREFIX_HITS, 1);
                    snapshot.clone_prefix(shared.tokens)
                }
                None => {
                    self.prefix_events.misses += 1;
                    tel.counter_add(names::PREFIX_MISSES, 1);
                    match &self.degraded_cache {
                        Some(factory) if degraded => factory(),
                        _ => (self.new_cache)(),
                    }
                }
            };
            seq.kv = Some(kv);
            seq.flavor = flavor;
            seq.fed = shared.tokens;
            if degraded {
                self.degraded_admissions += 1;
                tel.counter_add(names::ENGINE_DEGRADED_ADMISSIONS, 1);
                seq.stats.degraded_kv = true;
            }
            seq.stats.prefix_tokens = seq.stats.prefix_tokens.max(shared.tokens);
            seq.stats.admitted_step.get_or_insert(self.clock);
        }
    }

    /// Indexes the just-completed prefill of batch member `id` into the
    /// prefix cache: freezes its KV state as a snapshot, shares
    /// its full prompt blocks with the radix index, and copy-forks the
    /// partial tail so the sequence's own tail stays writable, then
    /// enforces the capacity. A capacity-0 cache indexes nothing, so it
    /// never clones a KV store.
    fn cache_completed_prefill(&mut self, id: usize) {
        if self.max_cached_blocks == 0 {
            return;
        }
        let Some((seq, alloc)) = self.batcher.member_and_allocator(id) else {
            return;
        };
        let Some(kv) = seq.kv.as_ref() else {
            return;
        };
        let snapshot = Arc::new(Snapshot::new(kv.clone_box(), seq.prompt.len()));
        let prompt_blocks = alloc.blocks_for(seq.prompt.len());
        let Some(blocks) = alloc
            .table(seq.id)
            .and_then(|t| t.blocks().get(..prompt_blocks))
            .map(<[usize]>::to_vec)
        else {
            debug_assert!(false, "prefilled sequence {} has no block table", seq.id);
            return;
        };
        let report = self.index.insert(
            &seq.prompt,
            &blocks,
            seq.flavor,
            snapshot,
            self.clock as u64,
            &mut |src| alloc.fork_copy(src).ok(),
        );
        for &block in &report.newly_shared {
            let retained = alloc.retain_block(block);
            debug_assert!(retained, "cache retained an unallocated block");
        }
        if report.new_nodes > 0 {
            self.prefix_events.insertions += 1;
        }
        self.enforce_cache_cap();
    }

    /// Evicts least-recently-used cache-only blocks until the index is
    /// within its capacity or nothing more is evictable.
    fn enforce_cache_cap(&mut self) {
        while self.index.len() > self.max_cached_blocks {
            if self.evict_one_cached().is_none() {
                break;
            }
        }
    }

    /// Evicts the least-recently-used cache-only block (allocator refcount
    /// 1: no live sequence maps it) and frees it, returning the block id.
    /// `None` when the cache holds nothing evictable.
    fn evict_one_cached(&mut self) -> Option<usize> {
        let alloc = self.batcher.allocator_mut();
        let block = self.index.evict_lru(&|b| alloc.refcount(b) == 1)?;
        alloc.release_block(block);
        self.prefix_events.evictions += 1;
        self.telemetry.get().counter_add(names::PREFIX_EVICTIONS, 1);
        Some(block)
    }

    /// Decides whether admitting the queue's head, of `prompt_len` tokens,
    /// hands it the degraded KV cache — per request and *before* its prefix
    /// lookup, so the lookup queries the matching flavor. Load is what the
    /// pool would hold right after this admission; the queue depth is what
    /// stays behind it.
    fn predict_degraded(&self, prompt_len: usize) -> bool {
        if self.degraded_cache.is_none() {
            return false;
        }
        let alloc = self.batcher.allocator();
        // Cached blocks no live sequence maps (refcount 1) are headroom the
        // cache surrenders on demand: a warm cache must not read as load.
        let cached = self.index.blocks();
        let reclaimable = cached.iter().filter(|&&b| alloc.refcount(b) == 1).count();
        let total = alloc.total_blocks().max(1);
        let projected = alloc.used_blocks() + alloc.blocks_for(prompt_len + 1);
        let load = projected.saturating_sub(reclaimable);
        let util = load as f64 / total as f64;
        util >= self.policy.degrade_kv_at
            || self
                .policy
                .degrade_queue_depth
                .is_some_and(|d| self.batcher.queued().saturating_sub(1) >= d)
    }

    /// Runs until every submitted request reaches a terminal state, and
    /// returns every terminal record so far.
    ///
    /// Progress is guaranteed for validated admissions; as a last line of
    /// defense a livelock circuit breaker fails all in-flight requests
    /// (typed `Failed`, blocks released) instead of spinning forever.
    pub fn run_to_completion(&mut self) -> &[Outcome] {
        let mut quiet = 0usize;
        while !self.batcher.is_idle() {
            let before = self.progress_mark();
            self.step();
            if self.progress_mark() == before {
                quiet += 1;
                if quiet > Self::STALL_LIMIT {
                    for id in self.batcher.ids_where(|_| true) {
                        let reason = "livelock circuit breaker".to_string();
                        self.end(id, Terminal::Failed { reason });
                    }
                }
            } else {
                quiet = 0;
            }
        }
        &self.outcomes
    }

    fn progress_mark(&self) -> usize {
        self.outcomes.len() + self.forwards + self.batcher.preemptions()
    }

    /// Terminal records so far, in terminalization order — exactly one per
    /// submitted id once the engine is idle.
    pub fn outcomes(&self) -> &[Outcome] {
        &self.outcomes
    }

    /// The terminal record of `id`, if it has reached one.
    pub fn outcome_of(&self, id: usize) -> Option<&Outcome> {
        self.outcomes.iter().find(|o| o.id == id)
    }

    /// Requests that completed so far.
    pub fn completed_count(&self) -> usize {
        let outcomes = self.outcomes.iter();
        outcomes.filter(|o| o.terminal.is_completed()).count()
    }

    /// Steps whose forward fed at least one decode row.
    pub fn decode_steps(&self) -> usize {
        self.decode_steps
    }

    /// Steps taken: every call to [`Self::step`], idle or not.
    pub fn steps(&self) -> usize {
        self.clock
    }

    /// Admissions that received the degraded KV cache.
    pub fn degraded_admissions(&self) -> usize {
        self.degraded_admissions
    }

    /// The underlying batcher (for memory/queue introspection).
    pub fn batcher(&self) -> &ContinuousBatcher {
        &self.batcher
    }

    /// The model the engine runs (the roofline model's ledger lives there).
    pub(crate) fn model(&self) -> &M {
        &self.model
    }

    /// Point-in-time prefix-cache statistics. Always `Some`: an engine
    /// whose cache has capacity 0 reports zero hits and zero cached blocks.
    pub fn prefix_stats(&self) -> Option<PrefixCacheStats> {
        let alloc = self.batcher.allocator();
        Some(PrefixCacheStats {
            cow_forks: alloc.cow_forks() as u64,
            cached_blocks: self.index.len(),
            shared_blocks: alloc.shared_blocks(),
            ..self.prefix_events
        })
    }

    /// Drops every cached prefix run, releasing the cache's block
    /// references (blocks still mapped by live sequences survive until
    /// those sequences release them). Returns the number of cache
    /// references dropped.
    pub fn flush_prefix_cache(&mut self) -> usize {
        let blocks = self.index.clear();
        for &block in &blocks {
            self.batcher.allocator_mut().release_block(block);
        }
        self.prefix_events.evictions += blocks.len() as u64;
        let tel = self.telemetry.get();
        tel.counter_add(names::PREFIX_EVICTIONS, blocks.len() as u64);
        blocks.len()
    }

    /// The telemetry instance this engine records into (the process global
    /// unless [`Self::with_telemetry`] installed an owned one).
    pub fn telemetry(&self) -> &Telemetry {
        self.telemetry.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atom_nn::kv::Fp32KvCache;
    use atom_nn::{DenseLinear, ModelConfig};
    use atom_parallel::Pool;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tiny_config() -> ModelConfig {
        ModelConfig {
            dim: 32,
            layers: 1,
            heads: 4,
            kv_heads: 4,
            ffn_dim: 48,
            ..ModelConfig::default()
        }
    }

    /// The ids that completed, in completion order.
    fn completed<M: BatchModel>(e: &CpuEngine<M>) -> Vec<usize> {
        let outcomes = e.outcomes().iter();
        outcomes
            .filter(|o| o.terminal.is_completed())
            .map(|o| o.id)
            .collect()
    }

    fn tiny_engine(max_batch: usize, pool: usize) -> CpuEngine<LlamaModel<DenseLinear>> {
        let config = tiny_config();
        let model = LlamaModel::random_init(config, 3);
        CpuEngine::new(
            model,
            Box::new(move || Box::new(Fp32KvCache::new(config.layers, config.kv_dim()))),
            max_batch,
            pool,
        )
        .expect("valid config")
    }

    #[test]
    fn serves_all_requests() {
        let mut e = tiny_engine(2, 1024);
        let a = e.submit(vec![1, 2, 3], 4, None).unwrap();
        let b = e.submit(vec![4, 5], 3, None).unwrap();
        let c = e.submit(vec![6], 2, None).unwrap();
        let done = e.run_to_completion().to_vec();
        assert_eq!(done.len(), 3);
        let by_id = |id| done.iter().find(|c| c.id == id).unwrap();
        assert_eq!(by_id(a).tokens.len(), 4);
        assert_eq!(by_id(b).tokens.len(), 3);
        assert_eq!(by_id(c).tokens.len(), 2);
        // Every submission has exactly one terminal record, all Completed.
        assert_eq!(e.outcomes().len(), 3);
        assert_eq!(e.completed_count(), 3);
    }

    #[test]
    fn batched_serving_matches_solo_generation() {
        // Continuous batching must not change each request's output.
        let mut solo = tiny_engine(1, 1024);
        solo.submit(vec![10, 20, 30], 5, None).unwrap();
        let solo_out = solo.run_to_completion()[0].tokens.clone();

        let mut batched = tiny_engine(3, 1024);
        batched.submit(vec![10, 20, 30], 5, None).unwrap();
        batched.submit(vec![42, 17], 5, None).unwrap();
        batched.submit(vec![7, 8, 9, 10], 5, None).unwrap();
        let batched_all = batched.run_to_completion().to_vec();
        let same = batched_all.iter().find(|c| c.id == 0).unwrap();
        assert_eq!(same.tokens, solo_out);
    }

    #[test]
    fn token_streams_bit_identical_across_pool_widths() {
        // The determinism contract: pool width changes wall-clock only,
        // never a single generated token or terminal state.
        fn streams<M: BatchModel>(pool: Pool, mut e: CpuEngine<M>) -> Vec<(usize, Vec<u16>)> {
            let mut done = pool.install(|| e.run_to_completion().to_vec());
            done.sort_by_key(|c| c.id);
            done.into_iter().map(|c| (c.id, c.tokens)).collect()
        }
        // Widths 2/4/8, then width 2 under 16 seeded schedule
        // perturbations (the pool's test-only stress mode).
        fn assert_width_invariant<M: BatchModel>(engine: impl Fn() -> CpuEngine<M>) {
            let solo = streams(Pool::new(1), engine());
            for threads in [2, 4, 8] {
                let wide = streams(Pool::new(threads), engine());
                assert_eq!(solo, wide, "{threads} threads");
            }
            for seed in 0..16 {
                let stressed = streams(Pool::new(2).with_stress(seed), engine());
                assert_eq!(solo, stressed, "2 threads, stress seed {seed}");
            }
        }
        assert_width_invariant(|| {
            let mut e = tiny_engine(3, 1024);
            e.submit(vec![10, 20, 30], 5, None).unwrap();
            e.submit(vec![42, 17], 7, None).unwrap();
            e.submit(vec![7, 8, 9, 10], 4, None).unwrap();
            e
        });
        // Six concurrent requests over 8-bit quantized KV: the fused
        // attention decodes each KV head inside the grid's workers.
        assert_width_invariant(|| {
            let config = ModelConfig {
                dim: 64,
                layers: 2,
                heads: 8,
                kv_heads: 8,
                ffn_dim: 128,
                ..ModelConfig::default()
            };
            let mut e = CpuEngine::new(
                LlamaModel::random_init(config, 7),
                Box::new(move || {
                    Box::new(atom::QuantizedKvCache::new(
                        config.layers,
                        config.kv_dim(),
                        config.head_dim(),
                        8,
                    ))
                }),
                6,
                4096,
            )
            .expect("valid config");
            for r in 0..6u16 {
                e.submit(vec![r * 7 + 1, 3, 5], 16, None).unwrap();
            }
            e
        });
    }

    /// An FP32 KV store that panics when an append would take it past
    /// `limit` rows, naming its sequence — its place in admission order —
    /// in the message. A limit of 0 poisons the prefill; `prompt + d`, the
    /// `d + 1`-th decode. The poison belongs to one sequence however many
    /// rows a batched forward stacks. Those panics fire on the caller
    /// thread; with `narrow_keys` the store's `keys` lack the last head's
    /// columns instead, so the model's attention cell for that head panics
    /// slicing them, inside the (sequence, head) grid.
    #[derive(Debug, Clone)]
    struct PoisonKv {
        inner: Fp32KvCache,
        seq: usize,
        limit: Option<usize>,
        narrow_keys: bool,
    }

    impl KvStore for PoisonKv {
        fn append(&mut self, layer: usize, k: &atom_tensor::Matrix, v: &atom_tensor::Matrix) {
            let rows = self.inner.len(layer) + k.rows();
            if self.limit.is_some_and(|limit| rows > limit) {
                panic!("injected kv panic in sequence {}", self.seq);
            }
            self.inner.append(layer, k, v);
        }
        fn keys(&self, layer: usize) -> atom_tensor::Matrix {
            let keys = self.inner.keys(layer);
            if self.narrow_keys {
                keys.slice_cols(0, keys.cols() - tiny_config().head_dim())
            } else {
                keys
            }
        }
        fn values(&self, layer: usize) -> atom_tensor::Matrix {
            self.inner.values(layer)
        }
        fn len(&self, layer: usize) -> usize {
            self.inner.len(layer)
        }
        fn clear(&mut self) {
            self.inner.clear();
        }
        fn clone_box(&self) -> Box<dyn KvStore> {
            Box::new(self.clone())
        }
        fn truncate(&mut self, tokens: usize) {
            self.inner.truncate(tokens);
        }
    }

    /// A 4-wide engine whose `n`-th admitted sequence gets a [`PoisonKv`]
    /// limited to `limits[n]` rows (none past the list's end), with narrow
    /// keys for the `narrow`-th.
    fn poisoned_engine(
        limits: &'static [Option<usize>],
        narrow: Option<usize>,
    ) -> CpuEngine<LlamaModel<DenseLinear>> {
        let config = tiny_config();
        let admitted = AtomicUsize::new(0);
        CpuEngine::new(
            LlamaModel::random_init(config, 3),
            Box::new(move || {
                let seq = admitted.fetch_add(1, Ordering::Relaxed);
                Box::new(PoisonKv {
                    inner: Fp32KvCache::new(config.layers, config.kv_dim()),
                    seq,
                    limit: limits.get(seq).copied().flatten(),
                    narrow_keys: narrow == Some(seq),
                })
            }),
            4,
            1024,
        )
        .expect("valid config")
    }

    #[test]
    fn prefill_worker_panic_fails_only_its_request() {
        // Four prompts prefill in one batched forward; the second's and the
        // fourth's KV stores panic on their first append. The process
        // survives, each victim terminalizes Failed with its own panic's
        // message, and the other requests complete untouched.
        for threads in [1, 2] {
            let mut e = poisoned_engine(&[None, Some(0), None, Some(0)], None);
            let ids: Vec<usize> = (2..6u16)
                .map(|len| e.submit((1..=len).collect(), 3, None).unwrap())
                .collect();
            Pool::new(threads).install(|| e.run_to_completion().len());
            assert_eq!(completed(&e), [ids[0], ids[2]]);
            for bad in [ids[1], ids[3]] {
                let outcome = e.outcomes().iter().find(|o| o.id == bad).expect("terminal");
                let Terminal::Failed { reason } = &outcome.terminal else {
                    panic!("expected Failed, got {:?}", outcome.terminal);
                };
                let own = format!("prefill forward panic: injected kv panic in sequence {bad}");
                assert_eq!(reason, &own, "{threads} threads");
            }
        }
    }

    #[test]
    fn decode_worker_panic_fails_request_with_typed_terminal() {
        // The store panics past the 2 prompt rows: prefill succeeds, the
        // first decode forward dies. The request fails typed, keeping the
        // token it had already committed.
        let mut e = poisoned_engine(&[Some(2)], None);
        let id = e.submit(vec![1, 2], 3, None).unwrap();
        Pool::new(2).install(|| {
            e.run_to_completion();
        });
        assert!(completed(&e).is_empty());
        let outcome = e.outcomes().iter().find(|o| o.id == id).expect("terminal");
        match &outcome.terminal {
            Terminal::Failed { reason } => {
                assert!(reason.contains("decode forward panic"), "reason: {reason}")
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(outcome.tokens.len(), 1, "first token was already committed");
    }

    #[test]
    fn batched_decode_panic_fails_only_its_request() {
        // Four requests decode in one batched forward. The third's store
        // panics on its third decode append — after the first two have
        // appended theirs — so the step must roll every cache back and
        // re-run the requests one at a time. Only the third fails; the
        // survivors' streams equal a run without the poison, which they
        // would not if a rolled-back row were appended twice.
        let prompts: Vec<Vec<u16>> = (0..4u16).map(|r| vec![r * 11 + 1, 7, 3]).collect();
        let run = |limits: &'static [Option<usize>], threads: usize| {
            let mut e = poisoned_engine(limits, None);
            for p in &prompts {
                e.submit(p.clone(), 6, None).unwrap();
            }
            Pool::new(threads).install(|| {
                e.run_to_completion();
            });
            let mut outcomes = e.outcomes().to_vec();
            outcomes.sort_by_key(|o| o.id);
            outcomes
        };
        let clean = run(&[], 1);
        assert!(clean.iter().all(|o| o.terminal.is_completed()));
        for threads in [1, 2] {
            let poisoned = run(&[None, None, Some(3 + 2)], threads);
            for (p, c) in poisoned.iter().zip(&clean) {
                if p.id == 2 {
                    let reason = "decode forward panic: injected kv panic in sequence 2";
                    let failed = Terminal::Failed {
                        reason: reason.to_string(),
                    };
                    assert_eq!(p.terminal, failed, "{threads} threads");
                    assert_eq!(p.tokens, c.tokens[..3], "tokens committed before the panic");
                } else {
                    let (got, want) = ((&p.terminal, &p.tokens), (&c.terminal, &c.tokens));
                    assert_eq!(got, want, "request {} at {threads} threads", p.id);
                }
            }
        }
    }

    #[test]
    fn attention_cell_panic_on_a_worker_fails_only_its_request() {
        // Four prompts prefill together; the last one's store has narrow
        // keys. Its last-head cell is the grid's last, which at width 2 runs
        // on the spawned worker — in the batched forward and in the
        // request's solo re-run — and the region re-raises the panic on the
        // caller. Only that request fails, with the cell's own message, and
        // the other streams equal a run that never saw it.
        let prompts: Vec<Vec<u16>> = (0..4u16).map(|r| vec![r * 11 + 1, 7, 3, r + 2]).collect();
        let run = |prompts: &[Vec<u16>], narrow: Option<usize>, pool: Pool| {
            let mut e = poisoned_engine(&[], narrow);
            for p in prompts {
                e.submit(p.clone(), 6, None).unwrap();
            }
            pool.install(|| {
                e.run_to_completion();
            });
            let mut outcomes = e.outcomes().to_vec();
            outcomes.sort_by_key(|o| o.id);
            outcomes
        };
        let clean = run(&prompts[..3], None, Pool::new(1));
        assert!(clean.iter().all(|o| o.terminal.is_completed()));
        let failed = Terminal::Failed {
            reason: "prefill forward panic: col slice out of bounds".to_string(),
        };
        for seed in 0..16 {
            let poisoned = run(&prompts, Some(3), Pool::new(2).with_stress(seed));
            assert_eq!(poisoned[3].terminal, failed, "stress seed {seed}");
            for (p, c) in poisoned.iter().zip(&clean) {
                let (got, want) = ((&p.terminal, &p.tokens), (&c.terminal, &c.tokens));
                assert_eq!(got, want, "request {}, stress seed {seed}", p.id);
            }
        }
    }

    /// A dense layer counting its forwards into `calls`, if it has one.
    #[derive(Debug)]
    struct CountedLinear {
        inner: DenseLinear,
        calls: Option<Arc<AtomicUsize>>,
    }

    impl LinearLayer for CountedLinear {
        fn forward(&self, x: &atom_tensor::Matrix) -> atom_tensor::Matrix {
            if let Some(calls) = &self.calls {
                calls.fetch_add(1, Ordering::Relaxed);
            }
            self.inner.forward(x)
        }
        fn in_features(&self) -> usize {
            self.inner.in_features()
        }
        fn out_features(&self) -> usize {
            self.inner.out_features()
        }
    }

    /// A `max_batch`-wide engine over the tiny model whose first Q
    /// projection counts its forwards into `calls`.
    fn counted_engine(
        max_batch: usize,
        calls: &Arc<AtomicUsize>,
    ) -> CpuEngine<LlamaModel<CountedLinear>> {
        let config = tiny_config();
        let q0 = atom_nn::LinearId::new(0, atom_nn::Proj::Q);
        let model = LlamaModel::random_init(config, 3).map_linears(|id, inner| CountedLinear {
            inner,
            calls: (id == q0).then(|| Arc::clone(calls)),
        });
        CpuEngine::new(
            model,
            Box::new(move || Box::new(Fp32KvCache::new(config.layers, config.kv_dim()))),
            max_batch,
            1024,
        )
        .expect("valid config")
    }

    #[test]
    fn one_forward_per_step() {
        // Eight concurrent requests: every step runs at most one forward,
        // prompt chunks and decode rows together, so one linear layer runs
        // at most once per step — not once per request or phase.
        let calls = Arc::new(AtomicUsize::new(0));
        let mut e = counted_engine(8, &calls);
        for r in 0..8u16 {
            e.submit(
                vec![r + 1; 3 + usize::from(r)],
                6 + usize::from(r % 3),
                None,
            )
            .unwrap();
        }
        assert_eq!(e.run_to_completion().len(), 8);
        let calls = calls.load(Ordering::Relaxed);
        assert!(calls <= e.steps(), "{calls} forwards in {} steps", e.steps());
    }

    #[test]
    fn long_prompt_prefills_in_budgeted_chunks_and_matches_greedy_forward() {
        // At max batch 1 the step budget is one 16-token block: a 50-token
        // prompt runs as chunks of 16, 16, 16 and 2, and only the fourth
        // commits a token. The stream equals the model's own greedy loop
        // over one whole-prompt forward.
        let prompt: Vec<u16> = (0..50u16).map(|t| (t * 7) % 90 + 1).collect();
        let calls = Arc::new(AtomicUsize::new(0));
        let mut e = counted_engine(1, &calls);
        let id = e.submit(prompt.clone(), 5, None).unwrap();
        e.run_to_completion();
        let outcome = e.outcome_of(id).expect("terminal").clone();
        assert_eq!(outcome.stats.first_token_step, Some(4));
        let forwards = calls.load(Ordering::Relaxed);
        assert_eq!(forwards, 4 + 4, "four prompt forwards, then one per later token");
        assert_eq!(e.decode_steps(), 4, "the steps that fed a decode row");

        let config = tiny_config();
        let model = LlamaModel::random_init(config, 3);
        let mut kv = Fp32KvCache::new(config.layers, config.kv_dim());
        let mut logits = model.forward(&prompt, &mut kv);
        let mut greedy = Vec::new();
        while greedy.len() < 5 {
            let last = logits.row(logits.rows() - 1);
            greedy.push(cast::usize_to_u16_saturating(ops::argmax(last)));
            logits = model.forward(&greedy[greedy.len() - 1..], &mut kv);
        }
        assert_eq!(outcome.tokens, greedy);
    }

    /// A model counting the rows it is fed.
    struct RowCounting {
        inner: LlamaModel<DenseLinear>,
        rows: Arc<AtomicUsize>,
    }

    impl BatchModel for RowCounting {
        fn forward_batch(&self, batch: &mut [SeqRows<'_>]) -> atom_tensor::Matrix {
            let rows: usize = batch.iter().map(|s| s.tokens.len()).sum();
            self.rows.fetch_add(rows, Ordering::Relaxed);
            self.inner.forward_batch(batch)
        }
    }

    #[test]
    fn rows_fed_are_prompt_suffixes_plus_one_per_later_token() {
        // Prefix hits, prompts chunked behind decode rows (budget 3 x 16)
        // and requests finishing: no row runs twice or is thrown away, so
        // the rows fed are each prompt's unmatched suffix plus one row for
        // every generated token after the first.
        let config = tiny_config();
        let rows = Arc::new(AtomicUsize::new(0));
        let model = RowCounting {
            inner: LlamaModel::random_init(config, 3),
            rows: Arc::clone(&rows),
        };
        let mut e = CpuEngine::new(
            model,
            Box::new(move || Box::new(Fp32KvCache::new(config.layers, config.kv_dim()))),
            3,
            1024,
        )
        .expect("valid config")
        .with_prefix_cache(PrefixConfig::default());
        let prompts = shared_prompts(6, 32, 60);
        for (i, p) in prompts.iter().enumerate() {
            e.submit(p.clone(), 2 + i, None).unwrap();
            if i == 0 {
                e.run_to_completion(); // the donor's prompt is cached first
            }
        }
        e.run_to_completion();
        let outcomes = e.outcomes();
        assert!(outcomes.iter().all(|o| o.terminal.is_completed()));
        assert_eq!(e.prefix_stats().expect("always present").hits, 5);
        let suffixes: usize = outcomes.iter().map(|o| 60 - o.stats.prefix_tokens).sum();
        let later: usize = (0..prompts.len()).map(|i| 2 + i - 1).sum();
        assert_eq!(rows.load(Ordering::Relaxed), suffixes + later);
    }

    #[test]
    fn mixed_forward_panic_fails_only_its_request() {
        // Request 0 decodes while request 1's 200-token prompt prefills in
        // chunks of 63 beside its row (budget 4 x 16), so the forwards of
        // steps 2 to 4 hold both. Poisoning either one's store fails that
        // request alone, labelled by what it fed, and the other's stream
        // equals a run without the poison, on 2 threads under 16 stress
        // seeds.
        let long: Vec<u16> = (0..200u16).map(|t| t % 90 + 1).collect();
        let run = |limits: &'static [Option<usize>], pool: Pool| {
            let mut e = poisoned_engine(limits, None);
            e.submit(vec![1, 2, 3], 8, None).unwrap();
            e.step();
            e.submit(long.clone(), 4, None).unwrap();
            pool.install(|| e.run_to_completion().len());
            let mut outcomes = e.outcomes().to_vec();
            outcomes.sort_by_key(|o| o.id);
            outcomes
        };
        let clean = run(&[], Pool::new(1));
        assert!(clean.iter().all(|o| o.terminal.is_completed()));
        // Request 1's first chunk panics on its first append at step 2;
        // request 0's third decode row (its store's sixth row) panics at
        // step 4, beside request 1's third chunk.
        let cases: [(&'static [Option<usize>], usize, usize, &str); 2] = [
            (&[None, Some(0)], 1, 0, "prefill forward panic: injected kv panic in sequence 1"),
            (&[Some(3 + 2)], 0, 3, "decode forward panic: injected kv panic in sequence 0"),
        ];
        for (limits, bad, kept, reason) in cases {
            for seed in 0..16 {
                let poisoned = run(limits, Pool::new(2).with_stress(seed));
                for (p, c) in poisoned.iter().zip(&clean) {
                    if p.id == bad {
                        let failed = Terminal::Failed {
                            reason: reason.to_string(),
                        };
                        assert_eq!(p.terminal, failed, "stress seed {seed}");
                        assert_eq!(p.tokens, c.tokens[..kept], "tokens committed before");
                    } else {
                        let (got, want) = ((&p.terminal, &p.tokens), (&c.terminal, &c.tokens));
                        assert_eq!(got, want, "request {}, stress seed {seed}", p.id);
                    }
                }
            }
        }
    }

    #[test]
    fn tight_memory_still_completes() {
        // Pool of 96 slots with three 40+-slot requests: they must be
        // served in waves rather than concurrently.
        let mut e = tiny_engine(4, 96);
        for _ in 0..3 {
            e.submit(vec![5; 40], 4, None).unwrap();
        }
        let done = e.run_to_completion().len();
        assert_eq!(done, 3);
        assert_eq!(e.batcher().allocator().used_blocks(), 0);
    }

    #[test]
    fn generated_tokens_in_vocabulary() {
        let mut e = tiny_engine(2, 512);
        e.submit(vec![50, 60], 6, None).unwrap();
        for c in e.run_to_completion() {
            assert!(c.tokens.iter().all(|&t| (t as usize) < 96));
        }
    }

    #[test]
    fn bad_submissions_rejected_with_terminal_outcomes() {
        let mut e = tiny_engine(2, 64);
        assert_eq!(e.submit(vec![], 4, None), Err(RejectReason::EmptyPrompt));
        assert_eq!(
            e.submit(vec![1], 0, None),
            Err(RejectReason::ZeroDecodeTokens)
        );
        // 64-slot pool: a request ending at 70 tokens can never be served.
        let err = e.submit(vec![2; 60], 10, None).unwrap_err();
        assert!(matches!(err, RejectReason::ExceedsKvPool { .. }));
        assert_eq!(e.outcomes().len(), 3, "rejections leave terminal records");
        assert!(e
            .outcomes()
            .iter()
            .all(|o| matches!(o.terminal, Terminal::Rejected(_))));
        // The engine remains perfectly serviceable afterwards.
        let id = e.submit(vec![1, 2], 3, None).unwrap();
        e.run_to_completion();
        assert_eq!(completed(&e), [id]);
    }

    #[test]
    fn zero_max_batch_is_invalid_config() {
        let config = tiny_config();
        let model = LlamaModel::random_init(config, 3);
        let err = CpuEngine::new(
            model,
            Box::new(move || {
                Box::new(Fp32KvCache::new(config.layers, config.kv_dim())) as Box<dyn KvStore>
            }),
            0,
            1024,
        )
        .expect_err("invalid");
        assert!(matches!(err, ServeError::InvalidConfig(_)));
    }

    #[test]
    fn cancel_queued_and_active_requests() {
        let mut e = tiny_engine(1, 1024);
        let a = e.submit(vec![1, 2, 3], 8, None).unwrap();
        let b = e.submit(vec![4, 5], 8, None).unwrap();
        e.step(); // a admitted + first token; b queued
        e.cancel(a).unwrap();
        e.cancel(b).unwrap();
        assert!(matches!(e.cancel(a), Err(ServeError::UnknownRequest(_))));
        assert!(matches!(e.cancel(99), Err(ServeError::UnknownRequest(_))));
        e.run_to_completion();
        assert!(completed(&e).is_empty());
        assert_eq!(e.outcomes().len(), 2);
        assert!(e
            .outcomes()
            .iter()
            .all(|o| o.terminal == Terminal::Cancelled));
        assert_eq!(e.batcher().allocator().used_blocks(), 0);
    }

    #[test]
    fn deadline_exceeded_is_terminal_with_partial_tokens() {
        let mut e = tiny_engine(1, 1024);
        let slow = e.submit(vec![1, 2, 3], 50, Some(5)).unwrap();
        let fast = e.submit(vec![4, 5], 3, None).unwrap();
        e.run_to_completion();
        let slow_out = e.outcome_of(slow).expect("terminal").clone();
        assert_eq!(slow_out.terminal, Terminal::DeadlineExceeded);
        assert!(
            slow_out.tokens.len() < 50,
            "deadline cut generation short ({} tokens)",
            slow_out.tokens.len()
        );
        assert_eq!(
            e.outcome_of(fast).unwrap().terminal,
            Terminal::Completed,
            "the fast request is unaffected"
        );
        assert_eq!(e.batcher().allocator().used_blocks(), 0);
    }

    #[test]
    fn queue_shedding_under_policy() {
        let mut e = tiny_engine(1, 1024).with_policy(PressurePolicy {
            shed_queue_depth: Some(3),
            ..PressurePolicy::default()
        });
        e.submit(vec![1], 2, None).unwrap();
        e.submit(vec![2], 2, None).unwrap();
        e.submit(vec![3], 2, None).unwrap();
        let err = e.submit(vec![4], 2, None).unwrap_err();
        assert!(matches!(err, RejectReason::QueueFull { .. }));
        assert_eq!(e.run_to_completion().len(), 4);
        assert_eq!(completed(&e).len(), 3);
    }

    #[test]
    fn per_request_stats_track_lifecycle() {
        let mut e = tiny_engine(1, 1024);
        let a = e.submit(vec![1, 2, 3], 2, None).unwrap();
        let b = e.submit(vec![4, 5], 2, None).unwrap();
        e.run_to_completion();
        let sa = e.outcome_of(a).unwrap().stats;
        let sb = e.outcome_of(b).unwrap().stats;
        assert_eq!(sa.queue_steps(), Some(1), "first request admitted at once");
        assert!(sb.queue_steps().unwrap() > sa.queue_steps().unwrap());
        assert!(sa.ttft_steps().unwrap() <= sb.ttft_steps().unwrap());
        assert_eq!(sa.preemptions, 0);
        assert!(!sa.degraded_kv);
    }

    #[test]
    fn injected_timeout_fault_is_deadline_terminal() {
        // No deadline was set, yet the watchdog "fires": the victim must
        // terminalize DeadlineExceeded with its partial tokens and leave
        // the rest of the batch untouched.
        let plan = FaultPlan::none().with_timeout_fault(3, 0);
        let mut e = tiny_engine(2, 1024).with_fault_plan(plan);
        let a = e.submit(vec![1, 2], 8, None).unwrap();
        let b = e.submit(vec![3, 4], 8, None).unwrap();
        e.run_to_completion();
        assert_eq!(e.outcomes().len(), 2);
        let timed_out = e
            .outcomes()
            .iter()
            .filter(|o| o.terminal == Terminal::DeadlineExceeded)
            .count();
        assert_eq!(timed_out, 1, "exactly one spurious timeout");
        assert_eq!(e.completed_count(), 1, "the survivor completes normally");
        for id in [a, b] {
            let stats = e.outcome_of(id).unwrap().stats;
            assert!(stats.finished_step.is_some(), "terminal sets finished_step");
        }
        assert_eq!(e.batcher().allocator().used_blocks(), 0);
    }

    #[test]
    fn injected_cancel_fault_is_cancelled_terminal() {
        let plan = FaultPlan::none().with_cancel_fault(2, 1);
        let mut e = tiny_engine(2, 1024).with_fault_plan(plan);
        e.submit(vec![1, 2], 6, None).unwrap();
        e.submit(vec![3, 4], 6, None).unwrap();
        e.run_to_completion();
        assert_eq!(e.outcomes().len(), 2);
        let cancelled = e
            .outcomes()
            .iter()
            .filter(|o| o.terminal == Terminal::Cancelled)
            .count();
        assert_eq!(cancelled, 1, "exactly one injected client cancel");
        assert_eq!(completed(&e).len(), 1);
        assert_eq!(e.batcher().allocator().used_blocks(), 0);
    }

    fn degrade_probe(degrade_kv_at: f64) -> bool {
        // 4-block pool (64 tokens). A 31-token prompt reserves 32 tokens =
        // 2 blocks at admission, so utilization measured after admit is
        // exactly 0.5 when the degrade check runs.
        let config = tiny_config();
        let model = LlamaModel::random_init(config, 3);
        let mut e = CpuEngine::new(
            model,
            Box::new(move || Box::new(Fp32KvCache::new(config.layers, config.kv_dim()))),
            2,
            64,
        )
        .expect("valid config")
        .with_degraded_cache(Box::new(move || {
            Box::new(Fp32KvCache::new(config.layers, config.kv_dim()))
        }))
        .with_policy(PressurePolicy {
            degrade_kv_at,
            ..PressurePolicy::default()
        });
        let id = e.submit(vec![7; 31], 2, None).unwrap();
        e.run_to_completion();
        e.outcome_of(id).unwrap().stats.degraded_kv
    }

    #[test]
    fn degrade_watermark_boundary_is_inclusive() {
        // Utilization == watermark degrades (the check is `>=`); a hair
        // above the observed utilization does not.
        assert!(degrade_probe(0.5), "admission exactly at the watermark degrades");
        assert!(!degrade_probe(0.501), "admission just below the watermark does not");
    }

    #[test]
    fn degrade_queue_depth_boundary_is_inclusive() {
        let run = |watermark: usize, backlog: usize| -> bool {
            let config = tiny_config();
            let model = LlamaModel::random_init(config, 3);
            let mut e = CpuEngine::new(
                model,
                Box::new(move || Box::new(Fp32KvCache::new(config.layers, config.kv_dim()))),
                1,
                1024,
            )
            .expect("valid config")
            .with_degraded_cache(Box::new(move || {
                Box::new(Fp32KvCache::new(config.layers, config.kv_dim()))
            }))
            .with_policy(PressurePolicy {
                degrade_queue_depth: Some(watermark),
                ..PressurePolicy::default()
            });
            let first = e.submit(vec![1, 2], 2, None).unwrap();
            for i in 0..backlog {
                e.submit(vec![3, 4 + i as u16], 2, None).unwrap();
            }
            e.run_to_completion();
            e.outcome_of(first).unwrap().stats.degraded_kv
        };
        // First request admits with `backlog` still queued: depth == the
        // watermark degrades, depth == watermark - 1 does not.
        assert!(run(2, 2), "queue depth exactly at the watermark degrades");
        assert!(!run(3, 2), "queue depth below the watermark does not");
    }

    #[test]
    fn degrade_is_decided_per_request_within_one_step() {
        // 8-block pool; three 31-token prompts reserve 2 blocks each and
        // are all admitted by the first step, which takes the pool to 0.25,
        // 0.5 and 0.75. Each request is judged by the load its own
        // admission reaches: the first stays below the 0.5 watermark, the
        // other two do not. (The step's final load, 0.75, would degrade all
        // three.)
        let config = tiny_config();
        let mut e = tiny_engine(4, 128)
            .with_degraded_cache(Box::new(move || {
                Box::new(Fp32KvCache::new(config.layers, config.kv_dim()))
            }))
            .with_policy(PressurePolicy {
                degrade_kv_at: 0.5,
                ..PressurePolicy::default()
            });
        let ids: Vec<usize> = (0..3)
            .map(|i| e.submit(vec![7 + i; 31], 2, None).unwrap())
            .collect();
        e.step();
        assert_eq!(e.batcher().running(), 3, "one step admitted all three");
        e.run_to_completion();
        let degraded: Vec<bool> = ids
            .iter()
            .map(|&id| e.outcome_of(id).unwrap().stats.degraded_kv)
            .collect();
        assert_eq!(degraded, [false, true, true]);
        assert_eq!(e.degraded_admissions(), 2);
    }

    #[test]
    fn shed_watermark_boundary_is_exact() {
        let mut e = tiny_engine(1, 1024).with_policy(PressurePolicy {
            shed_queue_depth: Some(2),
            ..PressurePolicy::default()
        });
        // Depth 0 and 1: accepted. The submission arriving at depth == 2
        // (the watermark) is the first one shed.
        e.submit(vec![1], 2, None).unwrap();
        e.submit(vec![2], 2, None).unwrap();
        assert_eq!(e.batcher().queued(), 2);
        let err = e.submit(vec![3], 2, None).unwrap_err();
        assert_eq!(err, RejectReason::QueueFull { depth: 2, limit: 2 });
        // The engine keeps serving; draining the queue re-opens admission.
        e.run_to_completion();
        e.submit(vec![4], 2, None).unwrap();
        e.run_to_completion();
        assert_eq!(completed(&e).len(), 3);
    }

    #[test]
    fn set_policy_updates_watermarks_at_runtime() {
        let mut e = tiny_engine(1, 1024);
        assert_eq!(e.policy().shed_queue_depth, None);
        e.set_policy(PressurePolicy {
            shed_queue_depth: Some(2),
            ..PressurePolicy::default()
        });
        e.submit(vec![1], 2, None).unwrap();
        e.submit(vec![2], 2, None).unwrap();
        let err = e.submit(vec![3], 2, None).unwrap_err();
        assert!(matches!(err, RejectReason::QueueFull { .. }));
        // Restoring the permissive policy re-opens the queue.
        e.set_policy(PressurePolicy::default());
        e.submit(vec![4], 2, None).unwrap();
        e.run_to_completion();
        assert_eq!(completed(&e).len(), 3);
    }

    fn prefix_engine(max_batch: usize, pool: usize) -> CpuEngine<LlamaModel<DenseLinear>> {
        tiny_engine(max_batch, pool).with_prefix_cache(PrefixConfig::default())
    }

    /// Shared-prefix workload: `n` prompts of `len` tokens sharing the
    /// first `shared` tokens, each decoding `decode` tokens.
    fn shared_prompts(n: usize, shared: usize, len: usize) -> Vec<Vec<u16>> {
        (0..n)
            .map(|i| {
                let mut p: Vec<u16> = (0..shared as u16).collect();
                p.extend((0..(len - shared) as u16).map(|t| 40 + t + i as u16));
                p
            })
            .collect()
    }

    /// An FP32 KV store that counts `clone_box` calls: the hook only a
    /// prefix-cache insertion or hit goes through.
    #[derive(Debug)]
    struct CountingKv {
        inner: Fp32KvCache,
        clones: Arc<AtomicUsize>,
    }

    impl KvStore for CountingKv {
        fn append(&mut self, layer: usize, k: &atom_tensor::Matrix, v: &atom_tensor::Matrix) {
            self.inner.append(layer, k, v);
        }
        fn keys(&self, layer: usize) -> atom_tensor::Matrix {
            self.inner.keys(layer)
        }
        fn values(&self, layer: usize) -> atom_tensor::Matrix {
            self.inner.values(layer)
        }
        fn len(&self, layer: usize) -> usize {
            self.inner.len(layer)
        }
        fn clear(&mut self) {
            self.inner.clear();
        }
        fn clone_box(&self) -> Box<dyn KvStore> {
            self.clones.fetch_add(1, Ordering::Relaxed);
            Box::new(CountingKv {
                inner: self.inner.clone(),
                clones: Arc::clone(&self.clones),
            })
        }
        fn truncate(&mut self, tokens: usize) {
            self.inner.truncate(tokens);
        }
    }

    #[test]
    fn cache_on_token_streams_match_cache_off() {
        let prompts = shared_prompts(6, 32, 40);
        // `None`: `with_prefix_cache` is never called.
        let run = |capacity: Option<PrefixConfig>| {
            let config = tiny_config();
            let clones = Arc::new(AtomicUsize::new(0));
            let counter = Arc::clone(&clones);
            let mut e = CpuEngine::new(
                LlamaModel::random_init(config, 3),
                Box::new(move || {
                    Box::new(CountingKv {
                        inner: Fp32KvCache::new(config.layers, config.kv_dim()),
                        clones: Arc::clone(&counter),
                    })
                }),
                3,
                1024,
            )
            .expect("valid config");
            if let Some(capacity) = capacity {
                e = e.with_prefix_cache(capacity);
            }
            // The first prompt prefills alone, so every later admission can
            // hit the run it donates while it is still decoding.
            for (i, p) in prompts.iter().enumerate() {
                e.submit(p.clone(), 5, None).unwrap();
                if i == 0 {
                    e.step();
                }
            }
            let mut done: Vec<(usize, Vec<u16>)> = e
                .run_to_completion()
                .iter()
                .map(|o| (o.id, o.tokens.clone()))
                .collect();
            done.sort_unstable();
            let stats = e.prefix_stats().expect("always present");
            let alloc = e.batcher().allocator();
            let peaks = (alloc.peak_logical(), alloc.peak_used());
            let clones = clones.load(Ordering::Relaxed);
            (done, stats, alloc.used_blocks(), clones, peaks)
        };
        // Room for the 2-block shared prefix only: each forked tail is
        // evicted as it lands, so the footprint shows the live hits' sharing.
        let prefix_only = PrefixConfig {
            max_cached_blocks: Some(2),
        };
        let (on, stats, _, clones, (logical, physical)) = run(Some(prefix_only));
        assert!(stats.hits >= 1, "later requests hit the shared prefix: {stats:?}");
        assert!(stats.insertions >= 1);
        assert!(clones > 0, "insertions and hits snapshot through clone_box");
        assert!(logical > physical, "live hits share blocks: {logical} vs {physical}");
        let zero = PrefixConfig {
            max_cached_blocks: Some(0),
        };
        for capacity in [None, Some(zero)] {
            let (off, stats, used, clones, (logical, physical)) = run(capacity);
            assert_eq!(off, on, "prefix cache must never change a token");
            assert_eq!((stats.hits, stats.cached_blocks), (0, 0), "{stats:?}");
            assert_eq!(used, 0, "a capacity-0 cache holds no block after drain");
            assert_eq!(clones, 0, "a capacity-0 cache never snapshots a KV store");
            assert_eq!(logical, physical, "nothing is shared without a cache");
        }
    }

    #[test]
    fn prefix_hits_skip_prefill_and_record_stats() {
        let mut e = prefix_engine(1, 1024);
        let prompts = shared_prompts(3, 32, 40);
        let ids: Vec<usize> = prompts
            .iter()
            .map(|p| e.submit(p.clone(), 3, None).unwrap())
            .collect();
        e.run_to_completion();
        let first = e.outcome_of(ids[0]).unwrap().stats;
        assert_eq!(first.prefix_tokens, 0, "the donor prefilled everything");
        for &id in &ids[1..] {
            let stats = e.outcome_of(id).unwrap().stats;
            assert_eq!(stats.prefix_tokens, 32, "followers reuse the shared 2 blocks");
        }
        let stats = e.prefix_stats().expect("cache enabled");
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
        // At idle no sequence is live: every cached block is refcount 1.
        assert_eq!(e.batcher().allocator().shared_blocks(), 0);
        e.batcher().allocator().leak_check().unwrap();
    }

    #[test]
    fn request_ended_between_chunks_is_terminal_once_and_never_cached() {
        // Budget 16 at max batch 1: a 50-token prompt holds 16 prompt tokens
        // after one step and 32 after two. Cancelled after the first, or
        // past its deadline after the second, it ends exactly once with no
        // token and every block free, and the prefix index never saw it:
        // the same prompt submitted afterwards misses. Each case runs on 2
        // threads under 16 stress seeds.
        let prompt: Vec<u16> = (0..50u16).map(|t| t % 90 + 1).collect();
        for case in 0..32 {
            let (cancel, pool) = (case < 16, Pool::new(2).with_stress(case % 16));
            let mut e = prefix_engine(1, 1024);
            let id = e.submit(prompt.clone(), 3, (!cancel).then_some(2)).unwrap();
            pool.install(|| e.step());
            let want = if cancel {
                e.cancel(id).unwrap();
                Terminal::Cancelled
            } else {
                pool.install(|| (e.step(), e.step()));
                Terminal::DeadlineExceeded
            };
            let outcome = e.outcome_of(id).expect("terminal").clone();
            assert_eq!((outcome.terminal, outcome.tokens.len()), (want, 0));
            assert_eq!(outcome.stats.first_token_step, None);
            assert_eq!(e.batcher().allocator().used_blocks(), 0);
            assert_eq!(e.prefix_stats().expect("always present").cached_blocks, 0);
            let again = e.submit(prompt.clone(), 3, None).unwrap();
            pool.install(|| e.run_to_completion().len());
            assert_eq!(e.outcomes().iter().filter(|o| o.id == id).count(), 1);
            assert!(e.outcome_of(again).expect("terminal").terminal.is_completed());
            let stats = e.prefix_stats().expect("always present");
            assert_eq!((stats.hits, stats.misses), (0, 2), "{stats:?}");
            e.batcher().allocator().leak_check().unwrap();
        }
    }

    #[test]
    fn flush_prefix_cache_returns_pool_to_empty() {
        let mut e = prefix_engine(2, 1024);
        for p in shared_prompts(4, 32, 40) {
            e.submit(p, 3, None).unwrap();
        }
        e.run_to_completion();
        let alloc_used = e.batcher().allocator().used_blocks();
        assert!(alloc_used > 0, "cache retains blocks after drain");
        let cached = e.prefix_stats().unwrap().cached_blocks;
        assert_eq!(e.batcher().allocator().total_refs(), cached as u64, "one ref per cached block");
        let freed = e.flush_prefix_cache();
        assert_eq!(freed, alloc_used, "flush releases exactly the cached blocks");
        assert_eq!(e.batcher().allocator().used_blocks(), 0);
        assert_eq!(e.batcher().allocator().total_refs(), 0);
        e.batcher().allocator().leak_check().unwrap();
        assert_eq!(e.prefix_stats().unwrap().cached_blocks, 0);
    }

    #[test]
    fn cache_yields_blocks_under_memory_pressure() {
        // Pool of 6 blocks (96 slots). Each 40-token request needs 3
        // blocks; the cache fills up between waves and must be evicted to
        // admit later arrivals rather than deadlock or preempt forever.
        let mut e = prefix_engine(1, 96);
        let prompts = shared_prompts(4, 32, 40);
        for p in &prompts {
            e.submit(p.clone(), 3, None).unwrap();
        }
        let done = e.run_to_completion().len();
        assert_eq!(done, 4, "pressure evictions keep admissions flowing");
        let stats = e.prefix_stats().expect("cache enabled");
        assert!(stats.evictions > 0, "pool pressure forced evictions: {stats:?}");
        e.batcher().allocator().leak_check().unwrap();
    }

    #[test]
    fn cache_on_streams_identical_across_pool_widths() {
        let prompts = shared_prompts(5, 16, 24);
        let run = |threads: usize| {
            let mut e = prefix_engine(3, 1024);
            for p in &prompts {
                e.submit(p.clone(), 4, None).unwrap();
            }
            let mut done = Pool::new(threads).install(|| e.run_to_completion().to_vec());
            done.sort_by_key(|c| c.id);
            done
        };
        let solo = run(1);
        assert_eq!(solo, run(2));
        assert_eq!(solo, run(8));
    }

    #[test]
    fn max_cached_blocks_cap_is_enforced() {
        let mut e = tiny_engine(2, 1024).with_prefix_cache(PrefixConfig {
            max_cached_blocks: Some(2),
        });
        // Disjoint prompts (within the 96-token vocabulary): each inserts
        // 2 blocks (one full chunk + a forked tail), so the cap must evict.
        for i in 0..4u16 {
            e.submit((0..20).map(|t| t + i * 24).collect(), 2, None).unwrap();
        }
        e.run_to_completion();
        let stats = e.prefix_stats().expect("cache enabled");
        assert!(stats.cached_blocks <= 2, "cap respected: {stats:?}");
        assert!(stats.evictions > 0);
        e.batcher().allocator().leak_check().unwrap();
    }

    #[test]
    fn injected_faults_surface_as_typed_terminals() {
        let plan = FaultPlan::none()
            .with_alloc_fault(2)
            .with_alloc_fault(3)
            .with_forward_fault(4, 0);
        let mut e = tiny_engine(2, 1024).with_fault_plan(plan);
        let ids: Vec<usize> = (0..3)
            .map(|i| e.submit(vec![i as u16 + 1, 7], 6, None).unwrap())
            .collect();
        e.run_to_completion();
        assert_eq!(e.outcomes().len(), 3, "exactly one terminal per request");
        let failed = e
            .outcomes()
            .iter()
            .filter(|o| matches!(o.terminal, Terminal::Failed { .. }))
            .count();
        assert_eq!(failed, 1, "the forward fault killed exactly one request");
        for id in ids {
            assert!(e.outcome_of(id).is_some());
        }
        assert_eq!(e.batcher().allocator().used_blocks(), 0);
    }
}
