//! The CPU serving engine: continuous batching over paged KV with one
//! request table, one admission path and one KV path.
//!
//! Actual tokens flow through the actual (optionally Atom-quantized) model;
//! this is the engine the serving benchmark under `benchmark/` measures.
//! One [`CpuEngine::step`] is one iteration of the loop of §4.5 / §5.3.2:
//! expire deadlines, admit from the FCFS queue, prefill what was admitted,
//! advance every decoding sequence by one token, retire what finished.
//!
//! # One table
//!
//! Every live request — queued, prefilling, decoding or preempted — is one
//! entry of one id-keyed map: its prompt, its [`RequestStats`], its KV state
//! once admitted, and what its latest admission decided; forwards borrow
//! their state straight from it. It leaves that map exactly once, through
//! the one terminalization function, which releases its KV blocks, keeps
//! its partial tokens and records the [`Outcome`]: every submission —
//! accepted or not — ends in precisely one [`Terminal`] state, and the
//! engine never panics on traffic.
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
//! Prefill forwards only the unseen suffix and donates the prompt's blocks
//! to the index (full blocks shared, the partial tail copy-forked so the
//! donor's own tail stays writable). Cached blocks yield before decode
//! would stall and do not count as load below, so the cache only ever
//! *adds* capacity; token streams are identical at any capacity and any
//! pool width.
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
//!   steps, without leaking a block or losing a terminal event.

use crate::error::{RejectReason, ServeError, Terminal};
use crate::fault::FaultPlan;
use crate::paged::{PagedAllocator, SharedPrefix};
use crate::scheduler::{AdmitOutcome, BatchEvent, ContinuousBatcher};
use atom_data::Request;
use atom_nn::{KvStore, LinearLayer, LlamaModel};
use atom_parallel::{Pool, PoolError};
use atom_prefix::{
    Flavor, PrefixCacheStats, PrefixConfig, RadixIndex, Snapshot, FLAVOR_DEGRADED, FLAVOR_NORMAL,
};
use atom_telemetry::{names, Telemetry};
use atom_tensor::cast;
use atom_tensor::ops;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A completed generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// Request id (submission order).
    pub id: usize,
    /// Generated token ids (greedy decoding).
    pub tokens: Vec<u16>,
}

/// Factory producing a fresh KV cache per admitted sequence.
pub type CacheFactory = Box<dyn Fn() -> Box<dyn KvStore>>;

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
    /// The step budget the request was submitted with, if any.
    pub deadline_steps: Option<usize>,
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

/// Submission parameters beyond the prompt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Tokens to generate.
    pub max_new: usize,
    /// Optional step budget: if the request has not completed within this
    /// many engine steps of submission it terminates `DeadlineExceeded`.
    pub deadline_steps: Option<usize>,
}

impl SubmitOptions {
    /// Options generating `max_new` tokens with no deadline.
    pub fn new(max_new: usize) -> Self {
        SubmitOptions {
            max_new,
            deadline_steps: None,
        }
    }

    /// Sets a step budget (builder style).
    pub fn with_deadline(mut self, steps: usize) -> Self {
        self.deadline_steps = Some(steps);
        self
    }
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

struct SeqState {
    cache: Box<dyn KvStore>,
    generated: Vec<u16>,
    next_input: u16,
}

/// One unit of model work handed to the thread pool, borrowed from the live
/// table: `Some(prompt)` prefills those prompt tokens, `None` advances the
/// sequence by one decode token from `state.next_input`. Each job borrows
/// its state exclusively, so workers never share mutable data.
struct ForwardJob<'a> {
    id: usize,
    state: &'a mut SeqState,
    prompt: Option<&'a [u16]>,
}

/// One live request: an entry from submission to its terminal state.
struct Live {
    /// Kept for the request's whole life: a preempted sequence prefills
    /// again from it.
    prompt: Vec<u16>,
    stats: RequestStats,
    /// KV cache and generated tokens, from admission until the request
    /// ends or is preempted.
    state: Option<SeqState>,
    /// The KV flavor the latest admission chose.
    flavor: Flavor,
    /// Prompt tokens the latest admission replayed from a prefix hit; its
    /// prefill forwards only the rest.
    skip: usize,
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

fn terminal_metric(terminal: &Terminal) -> &'static str {
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
/// let a = engine.submit(vec![1, 2, 3], 4).expect("accepted");
/// engine.submit(vec![9, 8], 3).expect("accepted");
/// let done = engine.run_to_completion();
/// assert_eq!(done.len(), 2);
/// let first = done.iter().find(|c| c.id == a).expect("completed");
/// assert_eq!(first.tokens.len(), 4);
/// ```
pub struct CpuEngine<L: LinearLayer> {
    model: LlamaModel<L>,
    new_cache: CacheFactory,
    degraded_cache: Option<CacheFactory>,
    policy: PressurePolicy,
    fault: FaultPlan,
    batcher: ContinuousBatcher,
    /// Every request between submission and its terminal state, by id.
    live: BTreeMap<usize, Live>,
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
    completions: Vec<Completion>,
    next_id: usize,
    clock: usize,
    decode_steps: usize,
    degraded_admissions: usize,
    telemetry: TelemetrySink,
    pool: Pool,
}

impl<L: LinearLayer> std::fmt::Debug for CpuEngine<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CpuEngine")
            .field("live", &self.live.len())
            .field("cached_blocks", &self.index.len())
            .field("clock", &self.clock)
            .field("decode_steps", &self.decode_steps)
            .field("degraded_admissions", &self.degraded_admissions)
            .finish_non_exhaustive()
    }
}

impl<L: LinearLayer> CpuEngine<L> {
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
        model: LlamaModel<L>,
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
            live: BTreeMap::new(),
            index,
            max_cached_blocks: 0,
            prefix_events: PrefixCacheStats::default(),
            cow_forks_reported: 0,
            outcomes: Vec::new(),
            completions: Vec::new(),
            next_id: 0,
            clock: 0,
            decode_steps: 0,
            degraded_admissions: 0,
            telemetry: TelemetrySink::Global,
            pool: *Pool::global(),
        })
    }

    /// Runs batched prefill and decode forwards on `pool` instead of the
    /// process-wide pool. Scheduling decisions (admission, preemption,
    /// deadline sweeps) never depend on the pool width, and each request's
    /// forward is computed independently, so generated tokens are identical
    /// for any thread count — including under chaos/fault schedules.
    pub fn with_pool(mut self, pool: Pool) -> Self {
        self.pool = pool;
        self
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
    /// request id.
    ///
    /// # Errors
    ///
    /// Returns the typed [`RejectReason`] when the request cannot be
    /// served (empty prompt, zero tokens, exceeds the KV pool, or the
    /// queue shed watermark was reached). Rejected submissions still
    /// consume an id and leave a [`Terminal::Rejected`] outcome.
    pub fn submit(&mut self, prompt: Vec<u16>, max_new: usize) -> Result<usize, RejectReason> {
        self.submit_with(prompt, SubmitOptions::new(max_new))
    }

    /// [`Self::submit`] with explicit options (deadline support).
    ///
    /// # Errors
    ///
    /// See [`Self::submit`].
    pub fn submit_with(
        &mut self,
        prompt: Vec<u16>,
        options: SubmitOptions,
    ) -> Result<usize, RejectReason> {
        let id = self.next_id;
        self.next_id += 1;
        let stats = RequestStats {
            submitted_step: self.clock,
            deadline_steps: options.deadline_steps,
            ..RequestStats::default()
        };
        let submitted = self.batcher.submit(Request {
            id,
            arrival_s: 0.0,
            prefill_tokens: prompt.len(),
            decode_tokens: options.max_new,
        });
        if let Err(reason) = submitted {
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
        let live = Live {
            prompt,
            stats,
            state: None,
            flavor: FLAVOR_NORMAL,
            skip: 0,
        };
        self.live.insert(id, live);
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
        if !self.live.contains_key(&id) {
            return Err(ServeError::UnknownRequest(id));
        }
        self.terminalize(id, Terminal::Cancelled);
        Ok(())
    }

    /// Moves a live request to its terminal state: removes its one table
    /// entry, drops it from the scheduler (releasing its KV blocks) and
    /// records the outcome with whatever tokens it had generated. The single
    /// funnel through which every accepted request exits guarantees the
    /// exactly-once terminal property.
    fn terminalize(&mut self, id: usize, terminal: Terminal) {
        let Some(live) = self.live.remove(&id) else {
            debug_assert!(false, "terminalize on unknown request {id}");
            return;
        };
        let mut stats = live.stats;
        stats.finished_step = Some(self.clock);
        let tokens = live.state.map(|s| s.generated).unwrap_or_default();
        let tel = self.telemetry.get();
        tel.counter_add(terminal_metric(&terminal), 1);
        if terminal.is_completed() {
            // The scheduler retired it and released its blocks already.
            if let Some(ttft) = stats.ttft_steps() {
                tel.record(names::ENGINE_TTFT_STEPS, ttft as u64);
                if stats.prefix_tokens > 0 {
                    tel.record(names::PREFIX_HIT_TTFT_STEPS, ttft as u64);
                }
            }
            if let Some(tpot) = stats.tpot_millisteps(tokens.len()) {
                tel.record(names::ENGINE_TPOT_MILLISTEPS, tpot);
            }
            self.completions.push(Completion {
                id,
                tokens: tokens.clone(),
            });
        } else {
            self.batcher.cancel(id);
        }
        self.outcomes.push(Outcome {
            id,
            terminal,
            tokens,
            stats,
        });
    }

    /// Runs one serving iteration: expire deadlines, inject scheduled
    /// faults, admit, prefill the newly admitted, then advance every
    /// decoding sequence by one token. Returns `false` when everything is
    /// finished.
    pub fn step(&mut self) -> bool {
        if self.batcher.is_idle() {
            return false;
        }
        let sink = self.telemetry.clone();
        let tel = sink.get();
        let _step_timer = tel.timer(names::ENGINE_STEP_WALL_NS);
        let _step_span = tel.span(names::SPAN_ENGINE_STEP, &[]);
        self.clock += 1;

        // Deadline sweep: a request whose step budget elapsed terminates
        // before it can consume another iteration. `live` is a BTreeMap
        // keyed by request id, so same-step expiries terminalize in id
        // order by construction (`clippy.toml` disallows `HashMap`, so the
        // PR 5 hash-ordered sweep bug cannot come back).
        let expired: Vec<usize> = self
            .live
            .iter()
            .filter(|(_, l)| {
                let deadline = l.stats.deadline_steps;
                deadline.is_some_and(|d| self.clock > l.stats.submitted_step + d)
            })
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            self.terminalize(id, Terminal::DeadlineExceeded);
        }

        // Injected allocator fault: poison block growth for this step.
        if self.fault.alloc_fault(self.clock) {
            self.batcher.arm_alloc_fault();
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

        // Prefill phase for the newly admitted sequences; a forward that
        // panicked fails only its own request, the rest donate their prompt
        // to the prefix index.
        let admitted = self.batcher.complete_prefill();
        let admitted: Vec<usize> = admitted.iter().map(|r| r.id).collect();
        for (id, reason) in self.run_forwards(&admitted, true) {
            self.terminalize(
                id,
                Terminal::Failed {
                    reason: format!("prefill worker panic: {reason}"),
                },
            );
        }
        for id in admitted {
            self.cache_completed_prefill(id);
        }

        // Injected faults, one in-flight victim each, in this order: a
        // forward fault surfaces a typed failure instead of poisoning the
        // batch; a spurious timeout trips the victim's watchdog although its
        // real step budget had not elapsed (`DeadlineExceeded` with whatever
        // tokens it had — the retryable shape the gateway's retry policy
        // absorbs); a client cancel hangs up, and must never be retried
        // upstream.
        let forward_failed = Terminal::Failed {
            reason: format!("injected forward fault at step {}", self.clock),
        };
        let injected = [
            (self.fault.forward_fault(self.clock), forward_failed),
            (
                self.fault.timeout_fault(self.clock),
                Terminal::DeadlineExceeded,
            ),
            (self.fault.cancel_fault(self.clock), Terminal::Cancelled),
        ];
        for (slot, terminal) in injected {
            if let Some(victim) = slot.and_then(|s| self.fault_victim(s)) {
                tel.counter_add(names::ENGINE_FAULTS, 1);
                self.terminalize(victim, terminal);
            }
        }

        // Guarantee decode headroom before the scheduler commits this step.
        // Every decoding sequence may need one fresh block, and blocks held
        // only by the cache must yield rather than stall (or preempt) live
        // work.
        while self.batcher.allocator().free_blocks() < self.batcher.decoding() {
            if self.evict_one_cached().is_none() {
                break;
            }
        }

        // Decode phase: let the scheduler commit its block accounting first,
        // then run the model for exactly the sequences it advanced. (A
        // sequence can advance even when the pool looked full beforehand —
        // another sequence finishing in the same step frees its blocks — so
        // predicting the advanced set from a pre-step snapshot drops tokens.)
        let events = self.batcher.step_decode();
        let advanced = self.batcher.last_advanced_ids().to_vec();
        let poisoned = self.run_forwards(&advanced, false);
        if !advanced.is_empty() {
            self.decode_steps += 1;
        }
        for event in events {
            match event {
                BatchEvent::Finished(req) => self.terminalize(req.id, Terminal::Completed),
                BatchEvent::Preempted(req) => {
                    // Recompute preemption: drop the state; the request is
                    // back in the queue and will prefill again from its
                    // stored prompt.
                    tel.counter_add(names::ENGINE_PREEMPTIONS, 1);
                    if let Some(live) = self.live.get_mut(&req.id) {
                        live.state = None;
                        live.stats.preemptions += 1;
                    }
                }
                BatchEvent::Admitted(_) => {}
            }
        }
        // A sequence whose decode forward panicked fails — unless the token
        // pushed this step already finished it, in which case the lost
        // logits would have been discarded anyway and the completion stands.
        for (id, reason) in poisoned {
            if self.live.contains_key(&id) {
                self.terminalize(
                    id,
                    Terminal::Failed {
                        reason: format!("decode worker panic: {reason}"),
                    },
                );
            }
        }
        // The cache cap is enforced once per step as well as at insert
        // time: blocks shared with a live donor are unevictable when
        // inserted, and only fall to refcount 1 (cache-only) after the
        // donor finishes — which may be this step's Finished events.
        self.enforce_cache_cap();

        // The allocator owns the copy-on-write fork total; report its delta.
        let alloc = self.batcher.allocator();
        let cow_forks = alloc.cow_forks() as u64;
        tel.counter_add(names::PREFIX_COW_FORKS, cow_forks - self.cow_forks_reported);
        self.cow_forks_reported = cow_forks;
        tel.gauge_set(names::PREFIX_SHARED_BLOCKS, alloc.shared_blocks() as i64);
        self.batcher.disarm_alloc_fault();
        true
    }

    /// Admission, the one path: for each head-of-queue request, decide its
    /// KV flavor, look up the longest cached prefix of its prompt in that
    /// flavor, pin the matched blocks, admit it seeded with the shared run
    /// — evicting cold cached runs when the pool is short — and build its
    /// KV store. Stops at the first request that cannot be admitted (FCFS
    /// head-of-line).
    fn admit_from_queue(&mut self) {
        while let Some(head) = self.batcher.queue_head().copied() {
            if self.batcher.allocator().fault_armed() {
                break;
            }
            let Some(live) = self.live.get(&head.id) else {
                debug_assert!(false, "queued request {} is not live", head.id);
                break;
            };
            let degraded = self.predict_degraded(&head);
            let flavor = if degraded { FLAVOR_DEGRADED } else { FLAVOR_NORMAL };
            // Cap at `prompt_len - 1`: at least one prompt token must be
            // forwarded to produce the first decode logits.
            let cap = head.prefill_tokens.saturating_sub(1);
            let outcome = self
                .index
                .match_prefix(&live.prompt, flavor, cap, self.clock as u64);
            // Pin the planned blocks so the eviction loop below can never
            // free part of the plan we are about to attach.
            let shared = SharedPrefix {
                blocks: outcome.blocks,
                tokens: outcome.tokens,
            };
            let alloc = self.batcher.allocator_mut();
            for &block in &shared.blocks {
                alloc.retain_block(block);
            }
            let admitted = loop {
                match self.batcher.try_admit_head(&shared) {
                    AdmitOutcome::Admitted(_) => break true,
                    AdmitOutcome::NeedBlocks { .. } => {
                        if self.evict_one_cached().is_none() {
                            break false;
                        }
                    }
                    AdmitOutcome::Blocked => break false,
                }
            };
            let alloc = self.batcher.allocator_mut();
            for &block in &shared.blocks {
                alloc.release_block(block);
            }
            if !admitted {
                break;
            }
            let Some(live) = self.live.get_mut(&head.id) else {
                break; // unreachable: it was live at the top of this iteration
            };
            let tel = self.telemetry.get();
            let cache = match &outcome.snapshot {
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
            live.state = Some(SeqState {
                cache,
                generated: Vec::new(),
                next_input: 0,
            });
            live.flavor = flavor;
            live.skip = shared.tokens;
            if degraded {
                self.degraded_admissions += 1;
                tel.counter_add(names::ENGINE_DEGRADED_ADMISSIONS, 1);
                live.stats.degraded_kv = true;
            }
            live.stats.prefix_tokens = live.stats.prefix_tokens.max(shared.tokens);
            live.stats.admitted_step.get_or_insert(self.clock);
        }
    }

    /// Indexes a just-completed prefill into the prefix cache: freezes the
    /// sequence's KV state as a snapshot, shares its full prompt blocks
    /// with the radix index, and copy-forks the partial tail so the
    /// sequence's own tail stays writable, then enforces the capacity. A
    /// capacity-0 cache indexes nothing, so it never clones a KV store.
    fn cache_completed_prefill(&mut self, id: usize) {
        if self.max_cached_blocks == 0 {
            return;
        }
        let Some(live) = self.live.get(&id) else {
            return;
        };
        let Some(state) = live.state.as_ref() else {
            return;
        };
        let prompt = &live.prompt;
        let snapshot = Arc::new(Snapshot::new(state.cache.clone_box(), prompt.len()));
        let alloc = self.batcher.allocator_mut();
        let prompt_blocks = alloc.blocks_for(prompt.len());
        let Some(blocks) = alloc
            .table(id)
            .and_then(|t| t.blocks().get(..prompt_blocks))
            .map(<[usize]>::to_vec)
        else {
            debug_assert!(false, "prefilled sequence {id} has no block table");
            return;
        };
        let report = self.index.insert(
            prompt,
            &blocks,
            live.flavor,
            snapshot,
            self.clock as u64,
            &mut |src, _fill| alloc.fork_copy(src).ok(),
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

    /// Decides whether admitting `head` hands it the degraded KV cache —
    /// per request and *before* its prefix lookup, so the lookup queries
    /// the matching flavor. Load is what the pool would hold right after
    /// this admission; the queue depth is what stays behind it.
    fn predict_degraded(&self, head: &Request) -> bool {
        if self.degraded_cache.is_none() {
            return false;
        }
        let alloc = self.batcher.allocator();
        // Cached blocks no live sequence maps (refcount 1) are headroom the
        // cache surrenders on demand: a warm cache must not read as load.
        let cached = self.index.blocks();
        let reclaimable = cached.iter().filter(|&&b| alloc.refcount(b) == 1).count();
        let total = alloc.total_blocks().max(1);
        let projected = alloc.used_blocks() + alloc.blocks_for(head.prefill_tokens + 1);
        let load = projected.saturating_sub(reclaimable);
        let util = load as f64 / total as f64;
        util >= self.policy.degrade_kv_at
            || self
                .policy
                .degrade_queue_depth
                .is_some_and(|d| self.batcher.queued().saturating_sub(1) >= d)
    }

    /// Resolves an injected fault's victim: the prefilled in-flight request
    /// in batch slot `slot % live_count`, or `None` when nothing is live.
    fn fault_victim(&self, slot: usize) -> Option<usize> {
        let live: Vec<usize> = self
            .batcher
            .active()
            .iter()
            .filter(|s| s.prefilled)
            .map(|s| s.request.id)
            .collect();
        live.get(slot % live.len().max(1)).copied()
    }

    /// Runs one model forward per listed request on the engine pool — the
    /// prompt suffix its admission left to prefill (a hit's match cap of
    /// `prompt_len - 1` guarantees at least one token), or, when `prefill`
    /// is false, one decode token after committing the token chosen last
    /// iteration as output — and picks each next token by argmax over the
    /// final logits row. Jobs borrow straight from the live table, one
    /// chunk each: every worker shares `&self.model` read-only and borrows
    /// its job's KV state exclusively, so token streams are identical at
    /// any pool width, and a panicking forward is attributable to — and
    /// poisons — a single request. Returns those requests, each with the
    /// panic message.
    fn run_forwards(&mut self, ids: &[usize], prefill: bool) -> Vec<(usize, String)> {
        let clock = self.clock;
        let picked = self.live.iter_mut().filter(|(id, _)| ids.contains(id));
        let mut jobs: Vec<ForwardJob> = picked
            .filter_map(|(&id, live)| {
                let state = live.state.as_mut()?;
                let prompt = if prefill {
                    Some(live.prompt.get(live.skip..).unwrap_or(&live.prompt))
                } else {
                    state.generated.push(state.next_input);
                    live.stats.first_token_step.get_or_insert(clock);
                    None
                };
                Some(ForwardJob { id, state, prompt })
            })
            .collect();
        let model = &self.model;
        let region = self.pool.par_chunks_mut(&mut jobs, 1, |_, chunk| {
            let Some(job) = chunk.first_mut() else { return };
            let logits = match job.prompt {
                Some(prompt) => model.forward(prompt, job.state.cache.as_mut()),
                None => model.forward(&[job.state.next_input], job.state.cache.as_mut()),
            };
            let last = logits.rows().saturating_sub(1);
            job.state.next_input = cast::usize_to_u16_saturating(ops::argmax(logits.row(last)));
        });
        // Chunk size 1: the pool's failed-chunk indices are job indices.
        let Err(PoolError::WorkerPanic {
            failed_chunks,
            message,
        }) = region
        else {
            return Vec::new();
        };
        let failed = failed_chunks.iter().filter_map(|&idx| jobs.get(idx));
        failed.map(|job| (job.id, message.clone())).collect()
    }

    /// Runs until every submitted request reaches a terminal state.
    ///
    /// Progress is guaranteed for validated admissions; as a last line of
    /// defense a livelock circuit breaker fails all in-flight requests
    /// (typed `Failed`, blocks released) instead of spinning forever.
    pub fn run_to_completion(&mut self) -> &[Completion] {
        let mut quiet = 0usize;
        while !self.batcher.is_idle() {
            let before = self.progress_mark();
            self.step();
            if self.progress_mark() == before {
                quiet += 1;
                if quiet > Self::STALL_LIMIT {
                    // BTreeMap keys iterate in ascending id order already.
                    let stuck: Vec<usize> = self.live.keys().copied().collect();
                    for id in stuck {
                        self.terminalize(
                            id,
                            Terminal::Failed {
                                reason: "livelock circuit breaker".to_string(),
                            },
                        );
                    }
                }
            } else {
                quiet = 0;
            }
        }
        &self.completions
    }

    fn progress_mark(&self) -> usize {
        self.outcomes.len() + self.decode_steps + self.batcher.preemptions()
    }

    /// Completions so far (submission order not guaranteed).
    pub fn completions(&self) -> &[Completion] {
        &self.completions
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

    /// Decode iterations executed.
    pub fn decode_steps(&self) -> usize {
        self.decode_steps
    }

    /// Serving iterations executed (admission + decode).
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
        let alloc = self.batcher.allocator_mut();
        for &block in &blocks {
            alloc.release_block(block);
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

    fn tiny_engine(max_batch: usize, pool: usize) -> CpuEngine<DenseLinear> {
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
        let a = e.submit(vec![1, 2, 3], 4).unwrap();
        let b = e.submit(vec![4, 5], 3).unwrap();
        let c = e.submit(vec![6], 2).unwrap();
        let done = e.run_to_completion().to_vec();
        assert_eq!(done.len(), 3);
        let by_id = |id| done.iter().find(|c| c.id == id).unwrap();
        assert_eq!(by_id(a).tokens.len(), 4);
        assert_eq!(by_id(b).tokens.len(), 3);
        assert_eq!(by_id(c).tokens.len(), 2);
        // Every submission has exactly one terminal record, all Completed.
        assert_eq!(e.outcomes().len(), 3);
        assert!(e.outcomes().iter().all(|o| o.terminal.is_completed()));
    }

    #[test]
    fn batched_serving_matches_solo_generation() {
        // Continuous batching must not change each request's output.
        let mut solo = tiny_engine(1, 1024);
        solo.submit(vec![10, 20, 30], 5).unwrap();
        let solo_out = solo.run_to_completion()[0].tokens.clone();

        let mut batched = tiny_engine(3, 1024);
        batched.submit(vec![10, 20, 30], 5).unwrap();
        batched.submit(vec![42, 17], 5).unwrap();
        batched.submit(vec![7, 8, 9, 10], 5).unwrap();
        let batched_all = batched.run_to_completion().to_vec();
        let same = batched_all.iter().find(|c| c.id == 0).unwrap();
        assert_eq!(same.tokens, solo_out);
    }

    #[test]
    fn token_streams_bit_identical_across_pool_widths() {
        // The determinism contract: pool width changes wall-clock only,
        // never a single generated token or terminal state.
        fn streams<L: LinearLayer>(mut e: CpuEngine<L>) -> Vec<(usize, Vec<u16>)> {
            let mut done = e.run_to_completion().to_vec();
            done.sort_by_key(|c| c.id);
            done.into_iter().map(|c| (c.id, c.tokens)).collect()
        }
        fn assert_width_invariant(run: impl Fn(usize) -> Vec<(usize, Vec<u16>)>) {
            let solo = run(1);
            for threads in [2, 4, 8] {
                assert_eq!(solo, run(threads), "{threads} threads");
            }
        }
        assert_width_invariant(|threads| {
            let mut e = tiny_engine(3, 1024).with_pool(Pool::new(threads));
            e.submit(vec![10, 20, 30], 5).unwrap();
            e.submit(vec![42, 17], 7).unwrap();
            e.submit(vec![7, 8, 9, 10], 4).unwrap();
            streams(e)
        });
        // Six concurrent requests over 8-bit quantized KV: the cache's
        // quantize-on-append and dequantize-on-load run inside the workers.
        assert_width_invariant(|threads| {
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
            .expect("valid config")
            .with_pool(Pool::new(threads));
            for r in 0..6u16 {
                e.submit(vec![r * 7 + 1, 3, 5], 16).unwrap();
            }
            streams(e)
        });
    }

    /// A linear layer that panics whenever it sees an activation with a
    /// specific row count — rows == prompt length during prefill, rows == 1
    /// during decode — so one request's forward can be poisoned on demand.
    #[derive(Debug)]
    struct PanickyLinear {
        inner: DenseLinear,
        panic_rows: usize,
    }

    impl LinearLayer for PanickyLinear {
        fn forward(&self, x: &atom_tensor::Matrix) -> atom_tensor::Matrix {
            assert!(x.rows() != self.panic_rows, "injected layer panic");
            self.inner.forward(x)
        }
        fn in_features(&self) -> usize {
            self.inner.in_features()
        }
        fn out_features(&self) -> usize {
            self.inner.out_features()
        }
    }

    fn panicky_engine(panic_rows: usize, threads: usize) -> CpuEngine<PanickyLinear> {
        let config = tiny_config();
        let model = LlamaModel::random_init(config, 3).map_linears(|_, l| PanickyLinear {
            inner: l,
            panic_rows,
        });
        CpuEngine::new(
            model,
            Box::new(move || Box::new(Fp32KvCache::new(config.layers, config.kv_dim()))),
            4,
            1024,
        )
        .expect("valid config")
        .with_pool(Pool::new(threads))
    }

    #[test]
    fn prefill_worker_panic_fails_only_its_request() {
        // Prompts of length 2/3/4; layers panic at 3 rows, so exactly the
        // middle request's prefill dies. The process survives, the victim
        // terminalizes Failed, and the other requests complete untouched.
        let mut e = panicky_engine(3, 2);
        let ok_a = e.submit(vec![1, 2], 3).unwrap();
        let bad = e.submit(vec![1, 2, 3], 3).unwrap();
        let ok_b = e.submit(vec![1, 2, 3, 4], 3).unwrap();
        let done = e.run_to_completion().to_vec();
        assert_eq!(done.len(), 2);
        assert!(done.iter().any(|c| c.id == ok_a));
        assert!(done.iter().any(|c| c.id == ok_b));
        let outcome = e.outcomes().iter().find(|o| o.id == bad).expect("terminal");
        match &outcome.terminal {
            Terminal::Failed { reason } => {
                assert!(reason.contains("prefill worker panic"), "reason: {reason}")
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn decode_worker_panic_fails_request_with_typed_terminal() {
        // Layers panic at 1 row: prefill (2 rows) succeeds, the first
        // decode forward dies. The request fails typed, keeping the token
        // it had already committed.
        let mut e = panicky_engine(1, 2);
        let id = e.submit(vec![1, 2], 3).unwrap();
        e.run_to_completion();
        assert!(e.completions().is_empty());
        let outcome = e.outcomes().iter().find(|o| o.id == id).expect("terminal");
        match &outcome.terminal {
            Terminal::Failed { reason } => {
                assert!(reason.contains("decode worker panic"), "reason: {reason}")
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(outcome.tokens.len(), 1, "first token was already committed");
    }

    #[test]
    fn tight_memory_still_completes() {
        // Pool of 96 slots with three 40+-slot requests: they must be
        // served in waves rather than concurrently.
        let mut e = tiny_engine(4, 96);
        for _ in 0..3 {
            e.submit(vec![5; 40], 4).unwrap();
        }
        let done = e.run_to_completion().len();
        assert_eq!(done, 3);
        assert_eq!(e.batcher().allocator().used_blocks(), 0);
    }

    #[test]
    fn generated_tokens_in_vocabulary() {
        let mut e = tiny_engine(2, 512);
        e.submit(vec![50, 60], 6).unwrap();
        for c in e.run_to_completion() {
            assert!(c.tokens.iter().all(|&t| (t as usize) < 96));
        }
    }

    #[test]
    fn bad_submissions_rejected_with_terminal_outcomes() {
        let mut e = tiny_engine(2, 64);
        assert_eq!(e.submit(vec![], 4), Err(RejectReason::EmptyPrompt));
        assert_eq!(e.submit(vec![1], 0), Err(RejectReason::ZeroDecodeTokens));
        // 64-slot pool: a request ending at 70 tokens can never be served.
        let err = e.submit(vec![2; 60], 10).unwrap_err();
        assert!(matches!(err, RejectReason::ExceedsKvPool { .. }));
        assert_eq!(e.outcomes().len(), 3, "rejections leave terminal records");
        assert!(e
            .outcomes()
            .iter()
            .all(|o| matches!(o.terminal, Terminal::Rejected(_))));
        // The engine remains perfectly serviceable afterwards.
        e.submit(vec![1, 2], 3).unwrap();
        assert_eq!(e.run_to_completion().len(), 1);
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
        let a = e.submit(vec![1, 2, 3], 8).unwrap();
        let b = e.submit(vec![4, 5], 8).unwrap();
        e.step(); // a admitted + first token; b queued
        e.cancel(a).unwrap();
        e.cancel(b).unwrap();
        assert!(matches!(e.cancel(a), Err(ServeError::UnknownRequest(_))));
        assert!(matches!(e.cancel(99), Err(ServeError::UnknownRequest(_))));
        e.run_to_completion();
        assert_eq!(e.completions().len(), 0);
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
        let slow = e
            .submit_with(vec![1, 2, 3], SubmitOptions::new(50).with_deadline(5))
            .unwrap();
        let fast = e.submit(vec![4, 5], 3).unwrap();
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
        e.submit(vec![1], 2).unwrap();
        e.submit(vec![2], 2).unwrap();
        e.submit(vec![3], 2).unwrap();
        let err = e.submit(vec![4], 2).unwrap_err();
        assert!(matches!(err, RejectReason::QueueFull { .. }));
        assert_eq!(e.run_to_completion().len(), 3);
        assert_eq!(e.outcomes().len(), 4);
    }

    #[test]
    fn per_request_stats_track_lifecycle() {
        let mut e = tiny_engine(1, 1024);
        let a = e.submit(vec![1, 2, 3], 2).unwrap();
        let b = e.submit(vec![4, 5], 2).unwrap();
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
        let a = e.submit(vec![1, 2], 8).unwrap();
        let b = e.submit(vec![3, 4], 8).unwrap();
        e.run_to_completion();
        assert_eq!(e.outcomes().len(), 2);
        let timed_out = e
            .outcomes()
            .iter()
            .filter(|o| o.terminal == Terminal::DeadlineExceeded)
            .count();
        assert_eq!(timed_out, 1, "exactly one spurious timeout");
        let completed = e
            .outcomes()
            .iter()
            .filter(|o| o.terminal.is_completed())
            .count();
        assert_eq!(completed, 1, "the survivor completes normally");
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
        e.submit(vec![1, 2], 6).unwrap();
        e.submit(vec![3, 4], 6).unwrap();
        e.run_to_completion();
        assert_eq!(e.outcomes().len(), 2);
        let cancelled = e
            .outcomes()
            .iter()
            .filter(|o| o.terminal == Terminal::Cancelled)
            .count();
        assert_eq!(cancelled, 1, "exactly one injected client cancel");
        assert_eq!(e.completions().len(), 1);
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
        let id = e.submit(vec![7; 31], 2).unwrap();
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
            let first = e.submit(vec![1, 2], 2).unwrap();
            for i in 0..backlog {
                e.submit(vec![3, 4 + i as u16], 2).unwrap();
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
            .map(|i| e.submit(vec![7 + i; 31], 2).unwrap())
            .collect();
        e.step();
        assert_eq!(e.batcher().active().len(), 3, "one step admitted all three");
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
        e.submit(vec![1], 2).unwrap();
        e.submit(vec![2], 2).unwrap();
        assert_eq!(e.batcher().queued(), 2);
        let err = e.submit(vec![3], 2).unwrap_err();
        assert_eq!(err, RejectReason::QueueFull { depth: 2, limit: 2 });
        // The engine keeps serving; draining the queue re-opens admission.
        e.run_to_completion();
        e.submit(vec![4], 2).unwrap();
        assert_eq!(e.run_to_completion().len(), 3);
    }

    #[test]
    fn set_policy_updates_watermarks_at_runtime() {
        let mut e = tiny_engine(1, 1024);
        assert_eq!(e.policy().shed_queue_depth, None);
        e.set_policy(PressurePolicy {
            shed_queue_depth: Some(2),
            ..PressurePolicy::default()
        });
        e.submit(vec![1], 2).unwrap();
        e.submit(vec![2], 2).unwrap();
        let err = e.submit(vec![3], 2).unwrap_err();
        assert!(matches!(err, RejectReason::QueueFull { .. }));
        // Restoring the permissive policy re-opens the queue.
        e.set_policy(PressurePolicy::default());
        e.submit(vec![4], 2).unwrap();
        assert_eq!(e.run_to_completion().len(), 3);
    }

    fn prefix_engine(max_batch: usize, pool: usize) -> CpuEngine<DenseLinear> {
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
            for p in &prompts {
                e.submit(p.clone(), 5).unwrap();
            }
            let mut done = e.run_to_completion().to_vec();
            done.sort_by_key(|c| c.id);
            let stats = e.prefix_stats().expect("always present");
            let used = e.batcher().allocator().used_blocks();
            (done, stats, used, clones.load(Ordering::Relaxed))
        };
        let (on, stats, _, clones) = run(Some(PrefixConfig::default()));
        assert!(stats.hits >= 1, "later requests hit the shared prefix: {stats:?}");
        assert!(stats.insertions >= 1);
        assert!(clones > 0, "insertions and hits snapshot through clone_box");
        let zero = PrefixConfig {
            max_cached_blocks: Some(0),
        };
        for capacity in [None, Some(zero)] {
            let (off, stats, used, clones) = run(capacity);
            assert_eq!(off, on, "prefix cache must never change a token");
            assert_eq!((stats.hits, stats.cached_blocks), (0, 0), "{stats:?}");
            assert_eq!(used, 0, "a capacity-0 cache holds no block after drain");
            assert_eq!(clones, 0, "a capacity-0 cache never snapshots a KV store");
        }
    }

    #[test]
    fn prefix_hits_skip_prefill_and_record_stats() {
        let mut e = prefix_engine(1, 1024);
        let prompts = shared_prompts(3, 32, 40);
        let ids: Vec<usize> = prompts
            .iter()
            .map(|p| e.submit(p.clone(), 3).unwrap())
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
    fn flush_prefix_cache_returns_pool_to_empty() {
        let mut e = prefix_engine(2, 1024);
        for p in shared_prompts(4, 32, 40) {
            e.submit(p, 3).unwrap();
        }
        e.run_to_completion();
        let alloc_used = e.batcher().allocator().used_blocks();
        assert!(alloc_used > 0, "cache retains blocks after drain");
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
            e.submit(p.clone(), 3).unwrap();
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
            let mut e = prefix_engine(3, 1024).with_pool(Pool::new(threads));
            for p in &prompts {
                e.submit(p.clone(), 4).unwrap();
            }
            let mut done = e.run_to_completion().to_vec();
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
            e.submit((0..20).map(|t| t + i * 24).collect(), 2).unwrap();
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
            .map(|i| e.submit(vec![i as u16 + 1, 7], 6).unwrap())
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
