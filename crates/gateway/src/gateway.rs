//! The gateway event loop: admission, fairness, retry, brownout, drain.
//!
//! [`Gateway`] wraps a [`CpuEngine`] and owns the request lifecycle end
//! to end. It advances in discrete *ticks* — an in-process async event
//! loop with a deterministic clock instead of wall time. Each tick:
//!
//! 1. refill per-tenant token buckets;
//! 2. release retries whose backoff elapsed back into their tenant queue;
//! 3. dispatch queued requests into the engine by weighted fair credit,
//!    stopping at the engine's pre-admission queue target so gateway
//!    fairness (not engine FCFS) orders work under load;
//! 4. run one engine step;
//! 5. harvest engine terminals — completed requests finish, retryable faults
//!    park with seeded-jitter exponential backoff;
//! 6. feed the tick's failure count to the circuit breaker and apply its
//!    brownout tier;
//! 7. force-fail stragglers if a drain's grace budget elapsed.
//!
//! Nothing reads wall time or host entropy, so a (config, seed, trace)
//! triple reproduces admission decisions, retry schedules, and outcomes
//! bit-identically at any worker-pool width.

use std::collections::{BTreeMap, VecDeque};

use atom_data::Arrival;
use atom_nn::{LinearLayer, LlamaModel};
use atom_serve::{
    CpuEngine, Outcome, PressurePolicy, RejectReason, RequestStats, ServeError, Terminal,
};
use atom_telemetry::{names, Telemetry};
use atom_tensor::cast;

use crate::breaker::{Breaker, BrownoutTier};
use crate::bucket::{TokenBucket, REQUEST_COST_MILLI};
use crate::config::GatewayConfig;
use crate::error::{GatewayReject, GatewayTerminal};

/// Virtual-time scale for weighted fair queuing: one dispatch advances a
/// tenant's virtual finish time by `WFQ_SCALE / weight`, so long-run
/// dispatch ratios converge to the weight ratios. Divisible by 1..=10 to
/// keep truncation bias negligible for small weights.
const WFQ_SCALE: u64 = 10_080;

/// The exactly-once record of one accepted request, retries collapsed.
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayOutcome {
    /// Gateway request id (acceptance order; rejected offers consume
    /// none).
    pub id: usize,
    /// Tenant index the request arrived under.
    pub tenant: usize,
    /// How the request ended, across all attempts.
    pub terminal: GatewayTerminal,
    /// Generated tokens of the final attempt (full generation for
    /// `Completed`).
    pub tokens: Vec<u16>,
    /// Engine dispatches performed (0 if it never left the gateway
    /// queue).
    pub attempts: u32,
    /// Gateway clock when the offer was accepted.
    pub offered_tick: u64,
    /// Gateway clock when the final attempt produced its first token.
    pub first_token_tick: Option<u64>,
    /// Gateway clock when the terminal was recorded.
    pub finished_tick: u64,
    /// Engine-side accounting of the final attempt (default if never
    /// dispatched).
    pub engine_stats: RequestStats,
}

/// Synchronous rejection tallies, by reason class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RejectCounts {
    /// Token-bucket refusals.
    pub rate_limited: u64,
    /// Bounded tenant-queue refusals.
    pub queue_full: u64,
    /// Brownout-tier refusals (shed + reject-all).
    pub brownout: u64,
    /// Refusals while draining.
    pub draining: u64,
    /// Validation refusals (unknown tenant, degenerate, unservable).
    pub invalid: u64,
}

impl RejectCounts {
    /// Total synchronous rejections.
    pub fn total(&self) -> u64 {
        self.rate_limited + self.queue_full + self.brownout + self.draining + self.invalid
    }
}

/// Counts from replaying a trace (see [`Gateway::replay_trace`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Arrivals offered.
    pub offered: u64,
    /// Offers accepted into a tenant queue.
    pub accepted: u64,
}

/// An accepted, not-yet-terminal request. Where it is waiting is told by
/// which of the gateway's containers holds its id: a tenant queue, the
/// retry backoff, or the engine (`inflight`).
#[derive(Debug, Clone)]
struct GwRequest {
    tenant: usize,
    prompt: Vec<u16>,
    max_new: usize,
    offered_tick: u64,
    deadline_tick: Option<u64>,
    attempts: u32,
    /// Engine accounting of the latest attempt (default before the first).
    last_stats: RequestStats,
}

/// Overload-safe serving gateway in front of a [`CpuEngine`].
///
/// See the [module docs](self) for the per-tick loop. Construct with
/// [`Gateway::new`], feed it with [`offer`] / [`replay_trace`], advance
/// with [`tick`] / [`run_until_idle`], and read [`outcomes`].
///
/// [`offer`]: Gateway::offer
/// [`replay_trace`]: Gateway::replay_trace
/// [`tick`]: Gateway::tick
/// [`run_until_idle`]: Gateway::run_until_idle
/// [`outcomes`]: Gateway::outcomes
pub struct Gateway<L: LinearLayer> {
    engine: CpuEngine<LlamaModel<L>>,
    cfg: GatewayConfig,
    base_policy: PressurePolicy,
    buckets: Vec<TokenBucket>,
    queues: Vec<VecDeque<usize>>,
    /// Per-tenant virtual finish time for weighted fair dispatch.
    vft: Vec<u64>,
    /// Live (accepted, not yet terminal) request count per tenant.
    live: Vec<usize>,
    requests: BTreeMap<usize, GwRequest>,
    parked: BTreeMap<u64, Vec<usize>>,
    /// Engine id → gateway id of every dispatched attempt not yet
    /// harvested.
    inflight: BTreeMap<usize, usize>,
    outcomes: Vec<GatewayOutcome>,
    engine_cursor: usize,
    breaker: Breaker,
    applied_tier: BrownoutTier,
    drain_started: Option<u64>,
    drain_forced: bool,
    next_id: usize,
    failures_this_tick: u64,
    accepted: u64,
    retries: u64,
    rejects: RejectCounts,
}

impl<L: LinearLayer> std::fmt::Debug for Gateway<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("tick", &self.now())
            .field("tenants", &self.cfg.tenants.len())
            .field("live_requests", &self.requests.len())
            .field("inflight", &self.inflight.len())
            .field("outcomes", &self.outcomes.len())
            .field("tier", &self.applied_tier)
            .field("draining", &self.drain_started.is_some())
            .finish_non_exhaustive()
    }
}

impl<L: LinearLayer> Gateway<L> {
    /// Wraps `engine` with the given gateway config.
    ///
    /// The engine's current [`PressurePolicy`] becomes the *base* policy
    /// that brownout tiers perturb and recovery restores.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when the config is unusable:
    /// no tenants, a zero tenant weight, a zero retry budget, or a zero
    /// dispatch queue target.
    pub fn new(engine: CpuEngine<LlamaModel<L>>, cfg: GatewayConfig) -> Result<Self, ServeError> {
        if cfg.tenants.is_empty() {
            return Err(ServeError::InvalidConfig("gateway needs at least one tenant"));
        }
        if cfg.tenants.iter().any(|t| t.weight == 0) {
            return Err(ServeError::InvalidConfig("tenant weight must be >= 1"));
        }
        if cfg.retry.max_attempts == 0 {
            return Err(ServeError::InvalidConfig("retry budget must allow one attempt"));
        }
        if cfg.dispatch_queue_target == 0 {
            return Err(ServeError::InvalidConfig("dispatch queue target must be >= 1"));
        }
        let buckets = cfg
            .tenants
            .iter()
            .map(|t| TokenBucket::new(t.rate_millitokens_per_tick, t.burst_millitokens))
            .collect();
        let queues = cfg.tenants.iter().map(|_| VecDeque::new()).collect();
        let vft = cfg.tenants.iter().map(|_| 0u64).collect();
        let live = cfg.tenants.iter().map(|_| 0usize).collect();
        let breaker = Breaker::new(cfg.breaker);
        let base_policy = engine.policy();
        Ok(Gateway {
            engine,
            cfg,
            base_policy,
            buckets,
            queues,
            vft,
            live,
            requests: BTreeMap::new(),
            parked: BTreeMap::new(),
            inflight: BTreeMap::new(),
            outcomes: Vec::new(),
            engine_cursor: 0,
            breaker,
            applied_tier: BrownoutTier::Normal,
            drain_started: None,
            drain_forced: false,
            next_id: 0,
            failures_this_tick: 0,
            accepted: 0,
            retries: 0,
            rejects: RejectCounts::default(),
        })
    }

    /// Offers a request on behalf of `tenant`.
    ///
    /// Checks run front-door-outward: drain state, tenant validity,
    /// brownout tier, request validation, the tenant's bounded queue, and
    /// finally its token bucket (so refusals earlier in the chain never
    /// consume bucket tokens). Acceptance returns a gateway request id
    /// that will appear in exactly one [`GatewayOutcome`].
    ///
    /// # Errors
    ///
    /// Returns the first [`GatewayReject`] that applies; nothing is
    /// queued on rejection.
    pub fn offer(
        &mut self,
        tenant: usize,
        prompt: Vec<u16>,
        max_new: usize,
        deadline_ticks: Option<u64>,
    ) -> Result<usize, GatewayReject> {
        self.tel(|t| t.counter_add(names::GATEWAY_OFFERED, 1));
        if self.drain_started.is_some() {
            self.rejects.draining += 1;
            self.tel(|t| t.counter_add(names::GATEWAY_REJECT_DRAINING, 1));
            return Err(GatewayReject::Draining);
        }
        let Some(spec) = self.cfg.tenants.get(tenant) else {
            self.rejects.invalid += 1;
            self.tel(|t| t.counter_add(names::GATEWAY_REJECT_INVALID, 1));
            return Err(GatewayReject::UnknownTenant { tenant });
        };
        let (priority, queue_cap) = (spec.priority, spec.queue_cap);
        let tier = self.breaker.tier();
        let browned_out = match tier {
            BrownoutTier::RejectAll => true,
            BrownoutTier::ShedLowPriority => priority < self.cfg.breaker.shed_priority_floor,
            BrownoutTier::Normal | BrownoutTier::DegradedKv => false,
        };
        if browned_out {
            self.rejects.brownout += 1;
            self.tel(|t| t.counter_add(names::GATEWAY_REJECT_BROWNOUT, 1));
            return Err(GatewayReject::Brownout {
                tier,
                retry_after_ticks: self.cfg.breaker.retry_after_ticks,
            });
        }
        // The engine's own admission check, so an accepted request can
        // never terminalize `Rejected` later.
        if let Err(reason) = self.engine.batcher().validate(prompt.len(), max_new) {
            self.rejects.invalid += 1;
            self.tel(|t| t.counter_add(names::GATEWAY_REJECT_INVALID, 1));
            return Err(GatewayReject::Invalid(reason));
        }
        let depth = self.queues.get(tenant).map_or(0, VecDeque::len);
        if depth >= queue_cap {
            self.rejects.queue_full += 1;
            self.tel(|t| t.counter_add(names::GATEWAY_REJECT_QUEUE_FULL, 1));
            return Err(GatewayReject::TenantQueueFull {
                depth,
                cap: queue_cap,
            });
        }
        let Some(bucket) = self.buckets.get_mut(tenant) else {
            self.rejects.invalid += 1;
            self.tel(|t| t.counter_add(names::GATEWAY_REJECT_INVALID, 1));
            return Err(GatewayReject::UnknownTenant { tenant });
        };
        if !bucket.try_take(REQUEST_COST_MILLI) {
            let retry_after_ticks = bucket.ticks_until(REQUEST_COST_MILLI);
            self.rejects.rate_limited += 1;
            self.tel(|t| t.counter_add(names::GATEWAY_REJECT_RATE_LIMITED, 1));
            return Err(GatewayReject::RateLimited { retry_after_ticks });
        }
        // Fair-queuing catch-up: a tenant waking from idle starts at the
        // busiest peers' floor instead of monopolizing with a stale (low)
        // virtual time; with no live work at all, the clock resets.
        let floor = self
            .vft
            .iter()
            .enumerate()
            .filter(|(i, _)| self.live.get(*i).copied().unwrap_or(0) > 0)
            .map(|(_, v)| *v)
            .min();
        match floor {
            Some(f) => {
                if let Some(v) = self.vft.get_mut(tenant) {
                    *v = (*v).max(f);
                }
            }
            None => {
                for v in &mut self.vft {
                    *v = 0;
                }
            }
        }
        if let Some(n) = self.live.get_mut(tenant) {
            *n += 1;
        }
        let id = self.next_id;
        self.next_id += 1;
        let now = self.now();
        self.requests.insert(
            id,
            GwRequest {
                tenant,
                prompt,
                max_new,
                offered_tick: now,
                deadline_tick: deadline_ticks.map(|d| now.saturating_add(d)),
                attempts: 0,
                last_stats: RequestStats::default(),
            },
        );
        if let Some(q) = self.queues.get_mut(tenant) {
            q.push_back(id);
        }
        self.accepted += 1;
        self.tel(|t| t.counter_add(names::GATEWAY_ACCEPTED, 1));
        Ok(id)
    }

    /// Cancels an accepted request wherever it currently lives: queued
    /// and parked requests terminalize `Cancelled` immediately, in-flight
    /// ones are cancelled in the engine and harvested on the next tick.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownRequest`] if the id was never
    /// accepted or is already terminal.
    pub fn cancel(&mut self, id: usize) -> Result<(), ServeError> {
        let Some(tenant) = self.requests.get(&id).map(|r| r.tenant) else {
            return Err(ServeError::UnknownRequest(id));
        };
        let engine_id = self
            .inflight
            .iter()
            .find(|(_, &g)| g == id)
            .map(|(&e, _)| e);
        if let Some(engine_id) = engine_id {
            // An attempt the engine already ended (cancelled, awaiting the
            // next harvest) is terminal for the caller too.
            return self
                .engine
                .cancel(engine_id)
                .map_err(|_| ServeError::UnknownRequest(id));
        }
        if let Some(q) = self.queues.get_mut(tenant) {
            q.retain(|&x| x != id);
        }
        for ids in self.parked.values_mut() {
            ids.retain(|&x| x != id);
        }
        self.parked.retain(|_, v| !v.is_empty());
        self.finish(id, GatewayTerminal::Cancelled, Vec::new(), self.now());
        Ok(())
    }

    /// Advances the gateway (and the engine underneath it) by one tick:
    /// one engine step, which moves the shared clock on to this tick.
    pub fn tick(&mut self) {
        let tick = self.now() + 1;
        self.failures_this_tick = 0;
        for b in &mut self.buckets {
            b.refill();
        }
        self.release_due_retries(tick);
        self.dispatch(tick);
        self.engine.step();
        self.harvest();
        let tier = self.breaker.observe(self.failures_this_tick);
        self.apply_tier(tier);
        if let Some(start) = self.drain_started {
            if !self.drain_forced && tick.saturating_sub(start) >= self.cfg.drain_grace_ticks {
                self.force_drain();
            }
        }
        let depth: usize = self.queues.iter().map(VecDeque::len).sum();
        self.tel(|t| t.record(names::GATEWAY_QUEUE_DEPTH, depth as u64));
        let level = self.applied_tier.level();
        self.tel(|t| t.gauge_set(names::GATEWAY_BREAKER_TIER, level));
    }

    /// Stops accepting offers; queued and in-flight work keeps running.
    /// After `drain_grace_ticks` further ticks, stragglers are
    /// force-failed so the drain always converges. Idempotent.
    pub fn begin_drain(&mut self) {
        if self.drain_started.is_none() {
            self.drain_started = Some(self.now());
        }
    }

    /// Whether every accepted request has reached its terminal.
    pub fn is_idle(&self) -> bool {
        self.requests.is_empty()
    }

    /// Ticks until idle or until `max_ticks` elapse; returns whether idle
    /// was reached.
    pub fn run_until_idle(&mut self, max_ticks: u64) -> bool {
        let mut n = 0u64;
        while !self.is_idle() && n < max_ticks {
            self.tick();
            n += 1;
        }
        self.is_idle()
    }

    /// Replays an open-loop arrival trace: each tick, offers every
    /// arrival stamped for the current clock, then advances one tick.
    /// Returns offer/accept counts; leftover work keeps running via
    /// [`tick`](Gateway::tick) / [`run_until_idle`](Gateway::run_until_idle).
    pub fn replay_trace(&mut self, trace: &[Arrival]) -> ReplaySummary {
        let mut summary = ReplaySummary::default();
        let mut idx = 0usize;
        while idx < trace.len() {
            while let Some(a) = trace.get(idx) {
                if a.tick > self.now() {
                    break;
                }
                summary.offered += 1;
                let prompt = synth_prompt(idx, a.prefill_tokens);
                if self
                    .offer(a.tenant, prompt, a.decode_tokens, a.deadline_ticks)
                    .is_ok()
                {
                    summary.accepted += 1;
                }
                idx += 1;
            }
            self.tick();
        }
        summary
    }

    /// Terminal records, in finish order.
    pub fn outcomes(&self) -> &[GatewayOutcome] {
        &self.outcomes
    }

    /// The terminal record for `id`, if it finished.
    pub fn outcome_of(&self, id: usize) -> Option<&GatewayOutcome> {
        self.outcomes.iter().find(|o| o.id == id)
    }

    /// Ticks elapsed: the engine's step clock, which every tick advances
    /// by one.
    pub fn now(&self) -> u64 {
        self.engine.steps() as u64
    }

    /// Offers accepted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Retry dispatches performed so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Synchronous rejection tallies.
    pub fn rejects(&self) -> RejectCounts {
        self.rejects
    }

    /// The brownout tier currently applied.
    pub fn breaker_tier(&self) -> BrownoutTier {
        self.applied_tier
    }

    /// The engine behind the gateway (read-only).
    pub fn engine(&self) -> &CpuEngine<LlamaModel<L>> {
        &self.engine
    }

    /// Prefix-cache statistics from the engine (always `Some`) — surfaced
    /// here so operators reading gateway dashboards need not reach through
    /// [`Self::engine`].
    pub fn prefix_stats(&self) -> Option<atom_serve::PrefixCacheStats> {
        self.engine.prefix_stats()
    }

    /// Requests currently waiting in gateway tenant queues.
    pub fn queued_depth(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn tel(&self, f: impl FnOnce(&Telemetry)) {
        f(self.engine.telemetry());
    }

    fn release_due_retries(&mut self, tick: u64) {
        let due: Vec<u64> = self.parked.range(..=tick).map(|(k, _)| *k).collect();
        for k in due {
            let Some(ids) = self.parked.remove(&k) else {
                continue;
            };
            for id in ids {
                let Some(tenant) = self.requests.get(&id).map(|r| r.tenant) else {
                    continue;
                };
                if let Some(q) = self.queues.get_mut(tenant) {
                    q.push_back(id);
                }
            }
        }
    }

    /// Weighted fair dispatch (virtual-time WFQ): the backlogged tenant
    /// with the *lowest* virtual finish time dispatches next (ties to the
    /// lowest index), and each dispatch advances that tenant's virtual
    /// time by `WFQ_SCALE / weight` — so long-run dispatch ratios equal
    /// the weight ratios regardless of how scarce slots are. Dispatch
    /// stops at the engine's pre-admission queue target — the smaller of
    /// the gateway's own target and the engine's shed watermark, so
    /// backpressure composes instead of fighting.
    fn dispatch(&mut self, tick: u64) {
        loop {
            let target = self
                .cfg
                .dispatch_queue_target
                .min(self.engine.policy().shed_queue_depth.unwrap_or(usize::MAX));
            if self.engine.batcher().queued() >= target {
                break;
            }
            let mut best: Option<(u64, usize)> = None;
            for (i, q) in self.queues.iter().enumerate() {
                if q.is_empty() {
                    continue;
                }
                let v = self.vft.get(i).copied().unwrap_or(0);
                match best {
                    Some((bv, _)) if bv <= v => {}
                    _ => best = Some((v, i)),
                }
            }
            let Some((_, tenant)) = best else {
                break;
            };
            let Some(id) = self.queues.get_mut(tenant).and_then(VecDeque::pop_front) else {
                break;
            };
            let cost = WFQ_SCALE
                / self
                    .cfg
                    .tenants
                    .get(tenant)
                    .map_or(1, |t| t.weight.max(1));
            if let Some(v) = self.vft.get_mut(tenant) {
                *v = v.saturating_add(cost.max(1));
            }
            if !self.dispatch_one(id, tick) {
                // Transient engine refusal: restore the request and its
                // virtual time, and stop feeding the engine this tick.
                if let Some(q) = self.queues.get_mut(tenant) {
                    q.push_front(id);
                }
                if let Some(v) = self.vft.get_mut(tenant) {
                    *v = v.saturating_sub(cost.max(1));
                }
                break;
            }
        }
    }

    /// Submits one queued request into the engine during `tick`. Returns
    /// `false` only on a transient engine refusal (queue-full), which tells
    /// the dispatcher to requeue and yield.
    fn dispatch_one(&mut self, id: usize, tick: u64) -> bool {
        let Some(req) = self.requests.get(&id) else {
            return true;
        };
        if req.deadline_tick.is_some_and(|d| tick > d) {
            self.finish(id, GatewayTerminal::DeadlineExceeded, Vec::new(), tick);
            return true;
        }
        // The engine steps on the gateway's clock, so the deadline tick is
        // its deadline step.
        let deadline = req
            .deadline_tick
            .map(|d| usize::try_from(d).unwrap_or(usize::MAX));
        match self
            .engine
            .submit(req.prompt.clone(), req.max_new, deadline)
        {
            Ok(engine_id) => {
                if let Some(req) = self.requests.get_mut(&id) {
                    req.attempts += 1;
                }
                self.inflight.insert(engine_id, id);
                true
            }
            Err(RejectReason::QueueFull { .. }) => false,
            Err(other) => {
                // Unreachable while offer-time validation mirrors the
                // engine's checks; terminalize rather than wedge.
                let reason = format!("engine rejected a validated request: {other}");
                self.finish(id, GatewayTerminal::Failed { reason }, Vec::new(), tick);
                true
            }
        }
    }

    /// Translates freshly recorded engine terminals into gateway
    /// decisions: finish, or park for retry.
    fn harvest(&mut self) {
        let fresh: Vec<Outcome> = self
            .engine
            .outcomes()
            .get(self.engine_cursor..)
            .map(<[Outcome]>::to_vec)
            .unwrap_or_default();
        self.engine_cursor += fresh.len();
        let now = self.now();
        for o in fresh {
            // Engine ids not in the in-flight map are the engine's own
            // synchronous rejects (e.g. queue-full probes) — not gateway
            // requests.
            let Some(gid) = self.inflight.remove(&o.id) else {
                continue;
            };
            let Some(req) = self.requests.get_mut(&gid) else {
                continue;
            };
            req.last_stats = o.stats;
            let deadline = req.deadline_tick;
            match o.terminal {
                Terminal::Completed => self.finish(gid, GatewayTerminal::Completed, o.tokens, now),
                Terminal::Failed { reason } => {
                    self.failures_this_tick += 1;
                    self.maybe_retry(gid, reason);
                }
                Terminal::DeadlineExceeded => {
                    let real_expiry = deadline.is_some_and(|d| now > d);
                    if real_expiry || !self.cfg.retry.retry_timeouts {
                        self.finish(gid, GatewayTerminal::DeadlineExceeded, o.tokens, now);
                    } else {
                        // The engine expired it but the end-to-end budget
                        // has not elapsed: an injected timeout fault.
                        self.failures_this_tick += 1;
                        self.maybe_retry(gid, "spurious timeout fault".to_string());
                    }
                }
                // After a forced drain, every in-flight attempt was
                // cancelled by it: a client cancel or an injected one is
                // harvested in the tick it happens, before the drain check.
                Terminal::Cancelled if self.drain_forced => {
                    self.tel(|t| t.counter_add(names::GATEWAY_DRAIN_FORCED, 1));
                    let reason = "drained before completion".to_string();
                    self.finish(gid, GatewayTerminal::Failed { reason }, o.tokens, now);
                }
                Terminal::Cancelled => self.finish(gid, GatewayTerminal::Cancelled, o.tokens, now),
                Terminal::Rejected(reason) => {
                    let reason = format!("unexpected engine reject in flight: {reason}");
                    self.finish(gid, GatewayTerminal::Failed { reason }, Vec::new(), now);
                }
            }
        }
    }

    /// Parks a failed request for redispatch, or finishes it when the
    /// retry budget is spent.
    fn maybe_retry(&mut self, gid: usize, reason: String) {
        let Some((attempts, deadline)) = self
            .requests
            .get(&gid)
            .map(|r| (r.attempts, r.deadline_tick))
        else {
            return;
        };
        if attempts >= self.cfg.retry.max_attempts {
            let reason = format!("retry budget exhausted after {attempts} attempts: {reason}");
            self.finish(gid, GatewayTerminal::Failed { reason }, Vec::new(), self.now());
            return;
        }
        let delay = self.backoff_delay(gid, attempts).max(1);
        let mut release = self.now().saturating_add(delay);
        if let Some(d) = deadline {
            // No point waiting past the deadline; release one tick after
            // it so expiry is detected promptly.
            release = release.min(d.saturating_add(1));
        }
        self.tel(|t| t.record(names::GATEWAY_BACKOFF_TICKS, delay));
        self.tel(|t| t.counter_add(names::GATEWAY_RETRIES, 1));
        self.retries += 1;
        self.parked.entry(release).or_default().push(gid);
    }

    /// Exponential backoff with deterministic seeded jitter: attempt `k`
    /// (1-based failures so far) waits `min(base * 2^(k-1), max) +
    /// (jitter < base)` ticks.
    fn backoff_delay(&self, gid: usize, failures: u32) -> u64 {
        let base = self.cfg.retry.backoff_base_ticks.max(1);
        let shift = failures.saturating_sub(1).min(16);
        let exp = base
            .saturating_mul(1u64 << shift)
            .min(self.cfg.retry.backoff_max_ticks.max(base));
        let jitter = splitmix(
            self.cfg
                .seed
                .wrapping_add((gid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(u64::from(failures) << 32),
        );
        exp + jitter % base
    }

    /// Applies a brownout tier to the engine: degraded tiers zero the KV
    /// degradation watermark (every new admission gets quantized KV);
    /// recovery restores the base policy.
    fn apply_tier(&mut self, tier: BrownoutTier) {
        if tier == self.applied_tier {
            return;
        }
        let mut policy = self.base_policy;
        if tier >= BrownoutTier::DegradedKv {
            policy.degrade_kv_at = 0.0;
        }
        self.engine.set_policy(policy);
        self.applied_tier = tier;
    }

    /// Force-fails everything still live once the drain grace budget is
    /// spent: queued and parked requests terminalize immediately;
    /// in-flight ones are cancelled in the engine and harvested as
    /// drain-failures next tick.
    fn force_drain(&mut self) {
        self.drain_forced = true;
        let now = self.now();
        let queued: Vec<usize> = self
            .queues
            .iter_mut()
            .flat_map(std::mem::take)
            .collect();
        let parked: Vec<usize> = std::mem::take(&mut self.parked)
            .into_values()
            .flatten()
            .collect();
        for id in queued.into_iter().chain(parked) {
            self.tel(|t| t.counter_add(names::GATEWAY_DRAIN_FORCED, 1));
            let reason = "drained before completion".to_string();
            self.finish(id, GatewayTerminal::Failed { reason }, Vec::new(), now);
        }
        for &engine_id in self.inflight.keys() {
            // Already-terminal engine ids are fine to skip.
            let _ = self.engine.cancel(engine_id);
        }
    }

    /// Records the exactly-once gateway terminal for `gid`, finished in
    /// tick `now` — the dispatch phase runs before the tick's engine step,
    /// so it passes the tick rather than the engine clock. The first-token
    /// tick is the latest attempt's, like the rest of its accounting.
    fn finish(&mut self, gid: usize, terminal: GatewayTerminal, tokens: Vec<u16>, now: u64) {
        let Some(req) = self.requests.remove(&gid) else {
            debug_assert!(false, "finish on unknown gateway request {gid}");
            return;
        };
        let stats = req.last_stats;
        let first_token_tick = stats.first_token_step.map(|s| s as u64);
        if let Some(n) = self.live.get_mut(req.tenant) {
            *n = n.saturating_sub(1);
        }
        let metric = match &terminal {
            GatewayTerminal::Completed => names::GATEWAY_TERMINAL_COMPLETED,
            GatewayTerminal::Cancelled => names::GATEWAY_TERMINAL_CANCELLED,
            GatewayTerminal::DeadlineExceeded => names::GATEWAY_TERMINAL_DEADLINE,
            GatewayTerminal::Failed { .. } => names::GATEWAY_TERMINAL_FAILED,
        };
        self.tel(|t| t.counter_add(metric, 1));
        if terminal.is_completed() {
            if let Some(ft) = first_token_tick {
                let ttft = ft.saturating_sub(req.offered_tick);
                self.tel(|t| t.record(names::GATEWAY_TTFT_TICKS, ttft));
                if tokens.len() >= 2 {
                    let span = now.saturating_sub(ft);
                    let per = span.saturating_mul(1000) / (tokens.len() as u64 - 1);
                    self.tel(|t| t.record(names::GATEWAY_TPOT_MILLITICKS, per));
                }
            }
        }
        self.outcomes.push(GatewayOutcome {
            id: gid,
            tenant: req.tenant,
            terminal,
            tokens,
            attempts: req.attempts,
            offered_tick: req.offered_tick,
            first_token_tick,
            finished_tick: now,
            engine_stats: stats,
        });
    }
}

/// Deterministic synthetic prompt for trace replay: `len` token ids in
/// `1..=89`, varied by arrival index so batches are not degenerate.
pub fn synth_prompt(index: usize, len: usize) -> Vec<u16> {
    (0..len.max(1))
        .map(|j| {
            let v = index
                .wrapping_mul(31)
                .wrapping_add(j.wrapping_mul(7))
                % 89
                + 1;
            cast::usize_to_u16_saturating(v)
        })
        .collect()
}

/// SplitMix64 finalizer — the jitter hash. Deterministic, seedable, and
/// independent of call order.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BreakerConfig, RetryPolicy, TenantSpec};
    use atom_nn::kv::Fp32KvCache;
    use atom_nn::{DenseLinear, LlamaModel, ModelConfig};
    use atom_parallel::Pool;
    use atom_serve::FaultPlan;
    use atom_serve::fault::FaultRates;

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

    fn tiny_engine(max_batch: usize, pool_tokens: usize) -> CpuEngine<LlamaModel<DenseLinear>> {
        let config = tiny_config();
        let model = LlamaModel::random_init(config, 3);
        CpuEngine::new(
            model,
            Box::new(move || Box::new(Fp32KvCache::new(config.layers, config.kv_dim()))),
            max_batch,
            pool_tokens,
        )
        .expect("valid engine config")
    }

    fn gw(cfg: GatewayConfig) -> Gateway<DenseLinear> {
        Gateway::new(tiny_engine(4, 2048), cfg).expect("valid gateway config")
    }

    #[test]
    fn invalid_configs_are_refused() {
        let empty = GatewayConfig::new(vec![]);
        assert!(Gateway::new(tiny_engine(2, 1024), empty).is_err());
        let mut zero_weight = GatewayConfig::single_tenant();
        zero_weight.tenants[0].weight = 0;
        assert!(Gateway::new(tiny_engine(2, 1024), zero_weight).is_err());
        let mut no_retry = GatewayConfig::single_tenant();
        no_retry.retry.max_attempts = 0;
        assert!(Gateway::new(tiny_engine(2, 1024), no_retry).is_err());
    }

    #[test]
    fn single_request_completes_end_to_end() {
        let mut g = gw(GatewayConfig::single_tenant());
        let id = g.offer(0, vec![1, 2, 3], 4, None).expect("accepted");
        assert!(g.run_until_idle(100));
        let o = g.outcome_of(id).expect("terminal").clone();
        assert_eq!(o.terminal, GatewayTerminal::Completed);
        assert_eq!(o.tokens.len(), 4);
        assert_eq!(o.attempts, 1);
        assert_eq!(o.tenant, 0);
        assert!(o.first_token_tick.is_some());
        assert!(o.finished_tick >= o.first_token_tick.unwrap());
    }

    #[test]
    fn prefix_stats_surface_through_the_gateway() {
        let engine = tiny_engine(4, 2048).with_prefix_cache(atom_serve::PrefixConfig::default());
        let mut g = Gateway::new(engine, GatewayConfig::single_tenant()).expect("valid config");
        // Two requests sharing a 16-token prefix: the second hits the run
        // the first donated, and the gateway reports it.
        let shared: Vec<u16> = (0..16).collect();
        let mut a = shared.clone();
        a.extend([20, 21, 22]);
        let mut b = shared;
        b.extend([30, 31]);
        g.offer(0, a, 2, None).expect("accepted");
        assert!(g.run_until_idle(100));
        g.offer(0, b, 2, None).expect("accepted");
        assert!(g.run_until_idle(100));
        let stats = g.prefix_stats().expect("cache enabled");
        assert_eq!(stats.hits, 1, "second prompt reuses the donated prefix");
        let plain = gw(GatewayConfig::single_tenant());
        let none = plain.prefix_stats().expect("always present");
        assert_eq!((none.hits, none.cached_blocks), (0, 0)); // capacity 0
    }

    #[test]
    fn offer_validation_rejects_degenerate_requests() {
        let mut g = gw(GatewayConfig::single_tenant());
        assert!(matches!(
            g.offer(0, vec![], 4, None),
            Err(GatewayReject::Invalid(RejectReason::EmptyPrompt))
        ));
        assert!(matches!(
            g.offer(0, vec![1], 0, None),
            Err(GatewayReject::Invalid(RejectReason::ZeroDecodeTokens))
        ));
        assert!(matches!(
            g.offer(0, vec![1; 4000], 1000, None),
            Err(GatewayReject::Invalid(RejectReason::ExceedsKvPool { .. }))
        ));
        assert!(matches!(
            g.offer(9, vec![1], 1, None),
            Err(GatewayReject::UnknownTenant { tenant: 9 })
        ));
        assert_eq!(g.rejects().invalid, 4);
        // No terminal records were consumed by rejections.
        assert!(g.is_idle());
        assert_eq!(g.accepted(), 0);
    }

    /// Gateway, engine and batcher must refuse exactly the same requests
    /// for exactly the same reason: one check, three callers.
    #[test]
    fn gateway_engine_and_batcher_agree_on_admission() {
        let probe = tiny_engine(4, 64);
        let alloc = probe.batcher().allocator();
        let cap = alloc.total_blocks() * alloc.block_size();
        // (prompt_len, max_new): degenerate shapes, then both sides of the
        // KV-pool boundary, reached through either argument.
        let grid = [
            (0, 0),
            (0, 1),
            (1, 0),
            (cap + 5, 0),
            (1, 1),
            (cap - 1, 1),
            (cap, 1),
            (1, cap - 1),
            (1, cap),
        ];
        let mut refused = 0;
        for (prompt_len, max_new) in grid {
            let mut engine = tiny_engine(4, 64);
            let batcher = engine.batcher().validate(prompt_len, max_new);
            let submitted = engine.submit(vec![1; prompt_len], max_new, None).map(|_| ());
            let mut g = Gateway::new(tiny_engine(4, 64), GatewayConfig::single_tenant())
                .expect("valid gateway config");
            let offered = match g.offer(0, vec![1; prompt_len], max_new, None) {
                Ok(_) => Ok(()),
                Err(GatewayReject::Invalid(reason)) => Err(reason),
                Err(other) => panic!("({prompt_len}, {max_new}): unexpected {other:?}"),
            };
            assert_eq!(submitted, batcher, "engine vs batcher at ({prompt_len}, {max_new})");
            assert_eq!(offered, batcher, "gateway vs batcher at ({prompt_len}, {max_new})");
            refused += usize::from(batcher.is_err());
        }
        assert_eq!(refused, 6, "the grid straddles the boundary");
        let over = probe.batcher().validate(cap, 1);
        assert!(matches!(over, Err(RejectReason::ExceedsKvPool { .. })), "{over:?}");
    }

    #[test]
    fn token_bucket_rate_limits_offers() {
        let tenant = TenantSpec::new("limited", 1, 1).with_rate(500, 1_000);
        let mut g = gw(GatewayConfig::new(vec![tenant]));
        assert!(g.offer(0, vec![1, 2], 2, None).is_ok());
        match g.offer(0, vec![1, 2], 2, None) {
            Err(GatewayReject::RateLimited { retry_after_ticks }) => {
                assert_eq!(retry_after_ticks, 2);
            }
            other => panic!("expected rate limit, got {other:?}"),
        }
        // Two ticks of refill cover one more request.
        g.tick();
        g.tick();
        assert!(g.offer(0, vec![1, 2], 2, None).is_ok());
        assert_eq!(g.rejects().rate_limited, 1);
    }

    #[test]
    fn bounded_tenant_queue_rejects_overflow() {
        let tenant = TenantSpec::new("t", 1, 1)
            .with_rate(10_000, 100_000)
            .with_queue_cap(2);
        let mut g = gw(GatewayConfig::new(vec![tenant]));
        assert!(g.offer(0, vec![1], 2, None).is_ok());
        assert!(g.offer(0, vec![1], 2, None).is_ok());
        assert!(matches!(
            g.offer(0, vec![1], 2, None),
            Err(GatewayReject::TenantQueueFull { depth: 2, cap: 2 })
        ));
        assert_eq!(g.rejects().queue_full, 1);
    }

    #[test]
    fn weighted_fairness_shares_dispatch_under_contention() {
        // Two saturating tenants, weights 3:1, on a batch-1 engine so
        // dispatch slots are scarce.
        let heavy = TenantSpec::new("heavy", 3, 1)
            .with_rate(100_000, 1_000_000)
            .with_queue_cap(1_000);
        let light = TenantSpec::new("light", 1, 1)
            .with_rate(100_000, 1_000_000)
            .with_queue_cap(1_000);
        let mut cfg = GatewayConfig::new(vec![heavy, light]);
        cfg.dispatch_queue_target = 1;
        let mut g = Gateway::new(tiny_engine(1, 2048), cfg).expect("valid");
        for _ in 0..60 {
            let _ = g.offer(0, vec![1, 2], 2, None);
            let _ = g.offer(1, vec![1, 2], 2, None);
        }
        for _ in 0..200 {
            g.tick();
        }
        // Measure shares over the contention window: among the first 40
        // finishes both tenants were still backlogged, so the 3:1 weights
        // should show (once heavy's backlog drains, light catches up).
        let window: Vec<&GatewayOutcome> = g.outcomes().iter().take(40).collect();
        let done = |tenant: usize| {
            window
                .iter()
                .filter(|o| o.tenant == tenant && o.terminal.is_completed())
                .count()
        };
        let (h, l) = (done(0), done(1));
        assert!(h > 0 && l > 0, "both tenants make progress (h={h}, l={l})");
        // Weight-3 tenant completes roughly 3x the weight-1 tenant.
        assert!(
            h >= 2 * l,
            "weighted share not honored in contention window: heavy={h}, light={l}"
        );
        // And nothing is lost overall: every accepted request finishes.
        assert!(g.run_until_idle(500));
        assert_eq!(g.outcomes().len() as u64, g.accepted());
    }

    #[test]
    fn deadline_propagates_into_engine_and_expires() {
        let mut g = gw(GatewayConfig::single_tenant());
        // 200-token decode with a 5-tick budget can never finish.
        let id = g.offer(0, vec![1, 2, 3], 200, Some(5)).expect("accepted");
        assert!(g.run_until_idle(100));
        let o = g.outcome_of(id).expect("terminal");
        assert_eq!(o.terminal, GatewayTerminal::DeadlineExceeded);
        // The engine got the deadline tick as its deadline step (propagated,
        // not just enforced gateway-side).
        assert_eq!(o.engine_stats.deadline_step, Some(5));
        // Expiry lands exactly one tick after the budget.
        assert_eq!(o.finished_tick, o.offered_tick + 5 + 1);
    }

    #[test]
    fn gateway_and_engine_share_one_clock_across_an_idle_gap() {
        // Serve one request, idle for ten ticks, then serve two more — one
        // of them under a deadline it cannot meet. The engine steps on
        // every tick, busy or not, so its step clock is the gateway's.
        let mut g = gw(GatewayConfig::single_tenant());
        g.offer(0, vec![1, 2, 3], 3, None).expect("accepted");
        assert!(g.run_until_idle(100));
        for _ in 0..10 {
            g.tick();
        }
        assert_eq!(g.engine().steps() as u64, g.now());
        g.offer(0, vec![4, 5, 6], 4, None).expect("accepted");
        let late = g.offer(0, vec![7, 8], 200, Some(6)).expect("accepted");
        assert!(g.run_until_idle(300));
        assert_eq!(g.engine().steps() as u64, g.now());
        for o in g.outcomes() {
            let first_step = o.engine_stats.first_token_step.map(|s| s as u64);
            assert_eq!(o.first_token_tick, first_step, "request {}", o.id);
        }
        let o = g.outcome_of(late).expect("terminal");
        assert_eq!(o.terminal, GatewayTerminal::DeadlineExceeded);
        assert_eq!(o.engine_stats.deadline_step, Some(o.offered_tick as usize + 6));
        assert_eq!(o.finished_tick, o.offered_tick + 6 + 1, "first tick past the deadline");
    }

    #[test]
    fn second_cancel_of_a_retried_request_reports_the_callers_id() {
        // A forward fault at step 2 kills the first attempt of gateway
        // request 0; its retry runs as engine request 1. Cancelling twice
        // before the next tick: the second call names the caller's id.
        let engine = tiny_engine(2, 1024).with_fault_plan(FaultPlan::none().with_forward_fault(2, 0));
        let mut cfg = GatewayConfig::single_tenant();
        cfg.retry = RetryPolicy {
            max_attempts: 3,
            backoff_base_ticks: 2,
            backoff_max_ticks: 8,
            retry_timeouts: true,
        };
        let mut g = Gateway::new(engine, cfg).expect("valid");
        let id = g.offer(0, vec![1, 2, 3], 30, None).expect("accepted");
        while g.retries() == 0 || !g.inflight.values().any(|&gid| gid == id) {
            assert!(g.now() < 50, "the retry never went in flight");
            g.tick();
        }
        assert_eq!(g.inflight.keys().copied().collect::<Vec<_>>(), [1]);
        g.cancel(id).expect("first cancel");
        assert!(matches!(g.cancel(id), Err(ServeError::UnknownRequest(i)) if i == id));
        assert!(g.run_until_idle(100));
        let o = g.outcome_of(id).expect("terminal");
        assert_eq!((&o.terminal, o.attempts), (&GatewayTerminal::Cancelled, 2));
    }

    #[test]
    fn parked_retry_expires_on_the_first_tick_past_its_deadline() {
        // Deadline tick 5; a forward fault at step 2 parks the request, and
        // the long backoff is clipped to release it at tick 6, where the
        // dispatcher finds it expired before the tick's engine step.
        let engine = tiny_engine(2, 1024).with_fault_plan(FaultPlan::none().with_forward_fault(2, 0));
        let mut cfg = GatewayConfig::single_tenant();
        cfg.retry = RetryPolicy {
            max_attempts: 3,
            backoff_base_ticks: 8,
            backoff_max_ticks: 16,
            retry_timeouts: true,
        };
        let mut g = Gateway::new(engine, cfg).expect("valid");
        let id = g.offer(0, vec![1, 2, 3], 30, Some(5)).expect("accepted");
        assert!(g.run_until_idle(50));
        let o = g.outcome_of(id).expect("terminal");
        assert_eq!((&o.terminal, o.attempts), (&GatewayTerminal::DeadlineExceeded, 1));
        assert_eq!(o.finished_tick, 5 + 1);
    }

    #[test]
    fn queued_request_expires_in_the_tick_that_dispatches_it() {
        // One batch slot and a one-deep engine queue: the filler holds the
        // engine queue while the long request runs, so the last request
        // waits in the gateway queue well past its deadline tick 3 and
        // expires in the tick whose dispatch reaches it.
        let mut cfg = GatewayConfig::single_tenant();
        cfg.dispatch_queue_target = 1;
        let mut g = Gateway::new(tiny_engine(1, 1024), cfg).expect("valid");
        g.offer(0, vec![1, 2, 3], 6, None).expect("accepted");
        g.offer(0, vec![4, 5], 2, None).expect("accepted");
        let late = g.offer(0, vec![6, 7], 2, Some(3)).expect("accepted");
        while g.outcome_of(late).is_none() {
            assert!(g.now() < 50, "never expired");
            g.tick();
        }
        let o = g.outcome_of(late).expect("terminal");
        assert_eq!((&o.terminal, o.attempts), (&GatewayTerminal::DeadlineExceeded, 0));
        assert!(o.finished_tick > 3 + 1, "held past the deadline");
        assert_eq!(o.finished_tick, g.now(), "finished in the tick that dispatched it");
    }

    #[test]
    fn first_token_tick_is_the_final_attempts() {
        // Attempt 1 decodes its first token at tick 1 and dies at step 2;
        // attempt 2 is dispatched at tick 3 and dies at step 3 before its
        // first decode. Cancelled while parked, the request reports the
        // final attempt's first token — none — as its engine stats do.
        let plan = FaultPlan::none()
            .with_forward_fault(2, 0)
            .with_forward_fault(3, 0);
        let mut cfg = GatewayConfig::single_tenant();
        cfg.retry = RetryPolicy {
            max_attempts: 3,
            backoff_base_ticks: 1,
            backoff_max_ticks: 8,
            retry_timeouts: true,
        };
        let mut g = Gateway::new(tiny_engine(2, 1024).with_fault_plan(plan), cfg).expect("valid");
        let id = g.offer(0, vec![1, 2, 3], 30, None).expect("accepted");
        for _ in 0..3 {
            g.tick();
        }
        assert_eq!(g.retries(), 2, "both attempts failed and parked");
        g.cancel(id).expect("parked request cancels");
        let o = g.outcome_of(id).expect("terminal");
        assert_eq!((&o.terminal, o.attempts), (&GatewayTerminal::Cancelled, 2));
        assert_eq!(o.engine_stats.first_token_step, None);
        assert_eq!(o.first_token_tick, None);
        assert_eq!(o.finished_tick, 3);
    }

    #[test]
    fn fault_is_retried_and_completes_with_timing_stats() {
        // One forward fault at engine step 2 kills the sole in-flight
        // request; the gateway parks it, backs off, redispatches, and the
        // second attempt completes.
        let engine = tiny_engine(2, 1024);
        let engine = engine.with_fault_plan(FaultPlan::none().with_forward_fault(2, 0));
        let mut cfg = GatewayConfig::single_tenant().with_seed(7);
        cfg.retry = RetryPolicy {
            max_attempts: 3,
            backoff_base_ticks: 2,
            backoff_max_ticks: 8,
            retry_timeouts: true,
        };
        let mut g = Gateway::new(engine, cfg).expect("valid");
        let id = g.offer(0, vec![1, 2, 3], 6, None).expect("accepted");
        assert!(g.run_until_idle(200));
        let o = g.outcome_of(id).expect("terminal").clone();
        assert_eq!(o.terminal, GatewayTerminal::Completed);
        assert_eq!(o.attempts, 2, "one fault, one retry");
        assert_eq!(o.tokens.len(), 6);
        assert_eq!(g.retries(), 1);
        // RequestStats describe the *final* attempt: it was submitted
        // after the fault+backoff, admitted, and produced a first token
        // at or after admission.
        let s = o.engine_stats;
        assert!(s.submitted_step >= 2, "resubmitted after the fault step");
        let admitted = s.admitted_step.expect("second attempt admitted");
        assert!(admitted >= s.submitted_step);
        let first = s.first_token_step.expect("second attempt decoded");
        assert!(first >= admitted, "prefill emits the first token");
        let finished = s.finished_step.expect("terminal attempt has finish step");
        assert!(finished >= first);
        assert_eq!(s.ttft_steps(), Some(first - s.submitted_step));
        // Gateway-level timing spans the retry: first token happened
        // after the backoff window.
        let ft = o.first_token_tick.expect("completed has first token");
        assert!(ft > 2, "first token only after redispatch (tick {ft})");
        assert!(o.finished_tick >= ft);
    }

    #[test]
    fn retry_budget_exhaustion_fails_the_request() {
        // Faults at every early step: all attempts die.
        let mut plan = FaultPlan::none();
        for step in 1..60 {
            plan = plan.with_forward_fault(step, 0);
        }
        let engine = tiny_engine(2, 1024).with_fault_plan(plan);
        let mut cfg = GatewayConfig::single_tenant();
        cfg.retry.max_attempts = 2;
        cfg.retry.backoff_base_ticks = 1;
        cfg.retry.backoff_max_ticks = 2;
        let mut g = Gateway::new(engine, cfg).expect("valid");
        let id = g.offer(0, vec![1, 2, 3], 8, None).expect("accepted");
        assert!(g.run_until_idle(200));
        let o = g.outcome_of(id).expect("terminal");
        assert_eq!(o.attempts, 2);
        match &o.terminal {
            GatewayTerminal::Failed { reason } => {
                assert!(reason.contains("retry budget exhausted"), "{reason}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn breaker_escalates_sheds_and_recovers() {
        // A solid wall of forward faults drives windowed failures up.
        let mut plan = FaultPlan::none();
        for step in 1..30 {
            plan = plan.with_forward_fault(step, 0);
        }
        let engine = tiny_engine(2, 2048).with_fault_plan(plan);
        let low = TenantSpec::new("low", 1, 0).with_rate(100_000, 1_000_000);
        let high = TenantSpec::new("high", 1, 5).with_rate(100_000, 1_000_000);
        let mut cfg = GatewayConfig::new(vec![low, high]);
        cfg.retry.max_attempts = 1; // every fault is a terminal failure
        cfg.breaker = BreakerConfig {
            window_ticks: 8,
            degrade_failures: 2,
            shed_failures: 3,
            reject_failures: 20,
            shed_priority_floor: 1,
            cooldown_ticks: 2,
            retry_after_ticks: 4,
        };
        let mut g = Gateway::new(engine, cfg).expect("valid");
        let mut max_tier = BrownoutTier::Normal;
        for _ in 0..30 {
            let _ = g.offer(0, vec![1, 2], 4, None);
            let _ = g.offer(1, vec![1, 2], 4, None);
            g.tick();
            max_tier = max_tier.max(g.breaker_tier());
        }
        assert!(
            max_tier >= BrownoutTier::ShedLowPriority,
            "sustained faults must trip the breaker (reached {max_tier})"
        );
        // While shedding, the low-priority tenant is refused and the
        // high-priority one is not.
        if g.breaker_tier() == BrownoutTier::ShedLowPriority {
            assert!(matches!(
                g.offer(0, vec![1, 2], 2, None),
                Err(GatewayReject::Brownout { .. })
            ));
            assert!(g.offer(1, vec![1, 2], 2, None).is_ok());
        }
        assert!(g.rejects().brownout > 0 || max_tier == BrownoutTier::RejectAll);
        // Faults end at step 30; calm ticks walk the ladder back down.
        assert!(g.run_until_idle(300));
        for _ in 0..40 {
            g.tick();
        }
        assert_eq!(g.breaker_tier(), BrownoutTier::Normal, "breaker recovers");
    }

    #[test]
    fn drain_refuses_new_work_and_finishes_accepted() {
        let mut g = gw(GatewayConfig::single_tenant());
        let a = g.offer(0, vec![1, 2], 3, None).expect("accepted");
        let b = g.offer(0, vec![3, 4], 3, None).expect("accepted");
        g.begin_drain();
        assert!(matches!(
            g.offer(0, vec![5], 2, None),
            Err(GatewayReject::Draining)
        ));
        assert!(g.run_until_idle(200));
        for id in [a, b] {
            let o = g.outcome_of(id).expect("drained request still finishes");
            assert_eq!(o.terminal, GatewayTerminal::Completed);
        }
        assert_eq!(g.rejects().draining, 1);
    }

    #[test]
    fn drain_grace_force_fails_stragglers_exactly_once() {
        // Fault-free, then with every fault kind armed: six ticks in, some
        // requests are killed or cancelled when the drain begins.
        let chaos = FaultPlan::seeded_chaos(
            0xC4A0 ^ 0xD7A1,
            400,
            FaultRates {
                alloc: 0.10,
                forward: 0.25,
                timeout: 0.10,
                cancel: 0.03,
            },
        );
        let mut runs = Vec::new();
        for plan in [FaultPlan::none(), chaos] {
            let tenant = TenantSpec::new("t", 1, 1)
                .with_rate(100_000, 1_000_000)
                .with_queue_cap(100);
            let mut cfg = GatewayConfig::new(vec![tenant]);
            cfg.drain_grace_ticks = 3;
            cfg.dispatch_queue_target = 1;
            // Batch-1 engine + long decodes: most of the backlog cannot
            // finish inside the 3-tick grace.
            let mut g =
                Gateway::new(tiny_engine(1, 2048).with_fault_plan(plan), cfg).expect("valid");
            let mut ids = Vec::new();
            for _ in 0..8 {
                ids.push(g.offer(0, vec![1, 2, 3], 40, None).expect("accepted"));
            }
            for _ in 0..6 {
                g.tick();
            }
            g.begin_drain();
            assert!(g.run_until_idle(100), "drain must converge");
            // Exactly one terminal per accepted request, no losses.
            assert_eq!(g.outcomes().len(), ids.len());
            let mut seen: Vec<usize> = g.outcomes().iter().map(|o| o.id).collect();
            seen.sort_unstable();
            let mut want = ids.clone();
            want.sort_unstable();
            assert_eq!(seen, want);
            // At least one straggler was force-failed by the grace budget.
            assert!(g
                .outcomes()
                .iter()
                .any(|o| matches!(&o.terminal, GatewayTerminal::Failed { reason } if reason.contains("drained"))));
            runs.push(g.outcomes().to_vec());
        }
        assert_ne!(runs[0], runs[1], "faults fired before the drain ended");
    }

    #[test]
    fn client_cancel_works_in_every_location() {
        let tenant = TenantSpec::new("t", 1, 1).with_rate(100_000, 1_000_000);
        let mut cfg = GatewayConfig::new(vec![tenant]);
        cfg.dispatch_queue_target = 1;
        let mut g = Gateway::new(tiny_engine(1, 2048), cfg).expect("valid");
        let queued = g.offer(0, vec![1, 2], 30, None).expect("accepted");
        let inflight = g.offer(0, vec![3, 4], 30, None).expect("accepted");
        // Cancel one while still queued (no tick has run).
        g.cancel(queued).expect("cancel queued");
        assert_eq!(
            g.outcome_of(queued).expect("terminal").terminal,
            GatewayTerminal::Cancelled
        );
        // Let the other go in flight, then cancel it.
        g.tick();
        g.tick();
        g.cancel(inflight).expect("cancel in flight");
        assert!(g.run_until_idle(100));
        assert_eq!(
            g.outcome_of(inflight).expect("terminal").terminal,
            GatewayTerminal::Cancelled
        );
        assert!(g.cancel(queued).is_err(), "double cancel is an error");
    }

    /// Everything a chaos replay must reproduce bit for bit at any pool
    /// width.
    #[derive(Debug, PartialEq)]
    struct Replay {
        summary: ReplaySummary,
        outcomes: Vec<GatewayOutcome>,
        rejects: RejectCounts,
        retries: u64,
        /// The gateway's TTFT and TPOT histograms.
        latency: [Option<atom_telemetry::HistogramSnapshot>; 2],
    }

    /// Replays `trace` through `engine` behind `cfg`, drains within
    /// `budget` ticks, and checks the bookkeeping of that one run: exactly
    /// one terminal per accepted request, and every offer either accepted
    /// or counted as a rejection.
    fn chaos_replay(
        engine: CpuEngine<LlamaModel<DenseLinear>>,
        cfg: GatewayConfig,
        trace: &[atom_data::Arrival],
        budget: u64,
    ) -> Replay {
        let engine = engine.with_telemetry(std::sync::Arc::new(Telemetry::enabled()));
        let mut g = Gateway::new(engine, cfg).expect("valid");
        let summary = g.replay_trace(trace);
        g.begin_drain();
        assert!(g.run_until_idle(budget), "drain converges under chaos");
        let outcomes = g.outcomes().to_vec();
        assert_eq!(
            outcomes.len() as u64,
            summary.accepted,
            "lost or extra terminals"
        );
        let ids: std::collections::BTreeSet<usize> = outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids.len(), outcomes.len(), "duplicate terminals");
        assert_eq!(
            summary.offered,
            summary.accepted + g.rejects().total(),
            "dropped offers"
        );
        let metrics = g.engine().telemetry().metrics().snapshot();
        let latency = [names::GATEWAY_TTFT_TICKS, names::GATEWAY_TPOT_MILLITICKS]
            .map(|n| metrics.histogram(n).cloned());
        Replay {
            summary,
            outcomes,
            rejects: g.rejects(),
            retries: g.retries(),
            latency,
        }
    }

    #[test]
    fn chaos_replay_is_exactly_once_and_thread_invariant() {
        use atom_data::{ArrivalPattern, TenantTraffic, TrafficSpec};
        // Row 1: bursty traffic on a 4-wide engine, no allocator faults.
        let bursty = TrafficSpec {
            base_rate_per_tick: 1.2,
            pattern: ArrivalPattern::Bursty {
                on_ticks: 10,
                off_ticks: 5,
            },
            horizon_ticks: 60,
            tenants: vec![
                TenantTraffic::interactive(0.7, 40),
                TenantTraffic::batch(0.3),
            ],
        }
        .generate(11);
        let bursty_row = || {
            let engine = tiny_engine(4, 2048)
                .with_fault_plan(FaultPlan::seeded_chaos(
                    99,
                    400,
                    FaultRates {
                        alloc: 0.0,
                        forward: 0.05,
                        timeout: 0.03,
                        cancel: 0.02,
                    },
                ));
            let tenants = vec![
                TenantSpec::new("interactive", 3, 2).with_rate(3_000, 9_000),
                TenantSpec::new("batch", 1, 0).with_rate(2_000, 6_000),
            ];
            chaos_replay(
                engine,
                GatewayConfig::new(tenants).with_seed(5),
                &bursty,
                2_000,
            )
        };
        // Row 2: a flash crowd into an 8-wide engine on a 64-block pool that
        // degrades admissions to INT4 KV under pressure, every fault kind
        // armed, and a drain grace long enough to finish honest work.
        let seed = 0x510;
        let flash = TrafficSpec {
            base_rate_per_tick: 0.9,
            pattern: ArrivalPattern::FlashCrowd {
                at_tick: 30,
                magnitude: 4.0,
                decay_ticks: 20,
            },
            horizon_ticks: 90,
            tenants: vec![
                TenantTraffic::interactive(0.65, 70),
                TenantTraffic::batch(0.35),
            ],
        }
        .generate(seed);
        let flash_row = || {
            let config = tiny_config();
            let engine = tiny_engine(8, 1024)
                .with_degraded_cache(Box::new(move || {
                    Box::new(atom::QuantizedKvCache::new(
                        config.layers,
                        config.kv_dim(),
                        config.head_dim(),
                        4,
                    ))
                }))
                .with_policy(atom_serve::PressurePolicy {
                    degrade_kv_at: 0.75,
                    degrade_queue_depth: Some(6),
                    shed_queue_depth: Some(24),
                })
                .with_fault_plan(FaultPlan::seeded_chaos(
                    seed ^ 0xFA17,
                    600,
                    FaultRates {
                        alloc: 0.02,
                        forward: 0.04,
                        timeout: 0.02,
                        cancel: 0.01,
                    },
                ));
            let tenants = vec![
                TenantSpec::new("interactive", 3, 2).with_rate(2_000, 5_000),
                TenantSpec::new("batch", 1, 0)
                    .with_rate(1_000, 3_000)
                    .with_queue_cap(24),
            ];
            let mut cfg = GatewayConfig::new(tenants).with_seed(seed);
            cfg.drain_grace_ticks = 256;
            chaos_replay(engine, cfg, &flash, 3_000)
        };
        // Each row at widths 1, 2 and 8, then at width 2 under eight seeded
        // schedule perturbations of its own (the pool's test-only stress
        // mode; 16 seeds over the two rows).
        let rows: [&dyn Fn() -> Replay; 2] = [&bursty_row, &flash_row];
        let solos: Vec<Replay> = rows
            .iter()
            .enumerate()
            .map(|(row, run)| {
                let solo = Pool::new(1).install(run);
                assert!(solo.summary.accepted > 0, "row {row}: empty replay");
                assert_eq!(solo, Pool::new(2).install(run), "row {row}: 1 vs 2 threads");
                assert_eq!(solo, Pool::new(8).install(run), "row {row}: 1 vs 8 threads");
                for seed in row as u64 * 8..(row as u64 + 1) * 8 {
                    let stressed = Pool::new(2).with_stress(seed).install(run);
                    assert_eq!(
                        solo, stressed,
                        "row {row}: 1 vs 2 threads, stress seed {seed}"
                    );
                }
                solo
            })
            .collect();
        // Service levels of the flash crowd: >= 90 % of accepted requests
        // complete, and >= 90 % of those see a first token within
        // 60 ticks of their offer.
        let flash = &solos[1];
        let completed: Vec<&GatewayOutcome> = flash
            .outcomes
            .iter()
            .filter(|o| o.terminal.is_completed())
            .collect();
        let done = completed.len() as u64;
        assert!(
            done * 10 >= flash.summary.accepted * 9,
            "{done} of {} completed",
            flash.summary.accepted
        );
        let fast = completed
            .iter()
            .filter(|o| o.first_token_tick.is_some_and(|t| t - o.offered_tick <= 60))
            .count() as u64;
        assert!(
            fast * 10 >= done * 9,
            "{fast} of {done} completed within the TTFT target"
        );
    }

    #[test]
    fn synth_prompt_is_deterministic_and_in_vocab() {
        let a = synth_prompt(3, 10);
        let b = synth_prompt(3, 10);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        assert!(a.iter().all(|&t| (1..=89).contains(&t)));
        assert_ne!(synth_prompt(4, 10), a);
        assert_eq!(synth_prompt(0, 0).len(), 1, "degenerate length clamps to 1");
    }
}
