//! One repetition: replay a workload's trace against a fresh gateway,
//! timing every tick.
//!
//! The gateway is tick-driven and never reads the wall clock, so a trace
//! whose arrivals are stamped in ticks (or triggered by completions, in a
//! closed loop) executes the identical instruction stream every time it is
//! replayed. The only thing that differs between repetitions is how long
//! each tick took.

use std::collections::BTreeMap;
use std::time::Instant;

use atom_gateway::{Gateway, GatewayOutcome, GatewayReject, RejectCounts};
use atom_nn::LinearLayer;
use atom_serve::PrefixCacheStats;

use crate::rng::Digest;
use crate::trace::{self, Kind};
use crate::workload::{Loop, Workload};

/// Ticks a client waits before re-offering after `TenantQueueFull` (a
/// rate-limited client waits the gateway's own `retry_after_ticks`).
const QUEUE_FULL_BACKOFF_TICKS: u64 = 4;
/// A client gives up (the request fails) after this many refusals.
const MAX_CLIENT_OFFERS: u32 = 64;
/// A repetition that has not drained by this tick is a bug.
const MAX_TICKS: u64 = 100_000;

/// What happened to one request of the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    /// Gateway clock when the request was first due: it is timed from the
    /// start of the next tick, so generator lateness is zero by
    /// construction.
    pub due_tick: u64,
    /// Offers made for it (1 + client retries after a refusal).
    pub offers: u32,
    /// `None` when every offer was refused.
    pub outcome: Option<GatewayOutcome>,
}

/// Tick-domain results of a repetition: identical across repetitions of
/// the same trace, or the benchmark stops.
#[derive(Debug, Clone, PartialEq)]
pub struct TickDomain {
    pub ticks: u64,
    pub served: Vec<Served>,
    pub offers: u64,
    pub accepted: u64,
    pub rejects: RejectCounts,
    pub gateway_retries: u64,
    pub queue_depth_max: usize,
    pub engine_steps: usize,
    pub engine_decode_steps: usize,
    pub preemptions: usize,
    pub kv_peak_blocks: usize,
    pub kv_peak_logical_blocks: usize,
    pub prefix: PrefixCacheStats,
}

impl TickDomain {
    /// Digest of how every request ended and what it generated.
    pub fn streams_digest(&self) -> u64 {
        let mut d = Digest::default();
        for s in &self.served {
            match &s.outcome {
                Some(o) => {
                    d.word(u64::from(o.terminal.is_completed()));
                    d.tokens(&o.tokens);
                }
                None => d.word(u64::MAX),
            }
        }
        d.finish()
    }
}

#[derive(Debug)]
pub struct Repetition {
    pub domain: TickDomain,
    /// Wall time of each timed region: the offers due before tick k, then
    /// tick k.
    pub tick_ns: Vec<u64>,
    /// Wall time of every `offer` call, in call order.
    pub offer_ns: Vec<u64>,
    /// With tracing on: how many spans had been recorded when each region
    /// ended, so the recorder's span list can be cut per tick.
    pub span_marks: Vec<usize>,
}

/// Replays `workload` to completion. `traced` additionally records the
/// harness's own spans around `offer` and `tick` (the decorators inside
/// the model and KV cache record theirs if they were installed).
pub fn replay<L: LinearLayer>(
    mut gw: Gateway<L>,
    workload: &Workload,
    traced: bool,
) -> Result<Repetition, String> {
    let requests = &workload.requests;
    let mut served: Vec<Served> = requests
        .iter()
        .map(|_| Served {
            due_tick: 0,
            offers: 0,
            outcome: None,
        })
        .collect();
    // Requests to offer when the gateway clock reads the key.
    let mut pending: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut next_unissued = 0usize;
    match workload.looping {
        Loop::Closed { clients } => {
            // Each client's first request goes out at its staggered start.
            next_unissued = clients.min(requests.len());
            for (i, r) in requests[..next_unissued].iter().enumerate() {
                served[i].due_tick = r.arrival_tick;
                pending.entry(r.arrival_tick).or_default().push(i);
            }
        }
        Loop::TickStamped => {
            for (i, r) in requests.iter().enumerate() {
                served[i].due_tick = r.arrival_tick;
                pending.entry(r.arrival_tick).or_default().push(i);
            }
        }
    }
    let mut request_of_gateway_id: BTreeMap<usize, usize> = BTreeMap::new();
    let mut resolved = 0usize;
    let mut harvested = 0usize;
    let mut queue_depth_max = 0usize;
    let mut tick_ns = Vec::new();
    let mut offer_ns = Vec::new();
    let mut span_marks = Vec::new();

    while resolved < requests.len() {
        let now = gw.now();
        if now >= MAX_TICKS {
            return Err(format!(
                "{} did not drain within {MAX_TICKS} ticks",
                workload.name
            ));
        }
        // Untimed: the client side prepares what it sends this tick.
        let due: Vec<(usize, Vec<u16>)> = pending
            .remove(&now)
            .unwrap_or_default()
            .into_iter()
            .map(|i| (i, requests[i].prompt.clone()))
            .collect();
        let mut refused: Vec<(usize, GatewayReject)> = Vec::new();

        let region_start = Instant::now();
        for (i, prompt) in due {
            let r = &requests[i];
            let span_start = if traced { trace::now_ns() } else { 0 };
            let t = Instant::now();
            let result = gw.offer(r.tenant, prompt, r.max_new, r.deadline_ticks);
            offer_ns.push(t.elapsed().as_nanos() as u64);
            if traced {
                trace::close(Kind::Offer, span_start);
            }
            served[i].offers += 1;
            match result {
                Ok(id) => {
                    request_of_gateway_id.insert(id, i);
                }
                Err(reject) => refused.push((i, reject)),
            }
        }
        let span_start = if traced { trace::now_ns() } else { 0 };
        gw.tick();
        if traced {
            trace::close(Kind::Tick, span_start);
            span_marks.push(trace::span_count());
        }
        tick_ns.push(region_start.elapsed().as_nanos() as u64);

        // Untimed: clients react to what the tick produced.
        queue_depth_max = queue_depth_max.max(gw.queued_depth());
        for (i, reject) in refused {
            let wait = match reject {
                GatewayReject::RateLimited { retry_after_ticks } => Some(retry_after_ticks.max(1)),
                GatewayReject::TenantQueueFull { .. } => Some(QUEUE_FULL_BACKOFF_TICKS),
                _ => None,
            };
            match wait {
                Some(w) if served[i].offers < MAX_CLIENT_OFFERS => {
                    pending.entry(now + w).or_default().push(i);
                }
                _ => resolved += 1,
            }
        }
        let finished_at = gw.now();
        for outcome in &gw.outcomes()[harvested..] {
            let i = *request_of_gateway_id
                .get(&outcome.id)
                .ok_or_else(|| format!("outcome for unknown gateway id {}", outcome.id))?;
            if served[i].outcome.is_some() {
                return Err(format!("request {i} reached two terminals"));
            }
            served[i].outcome = Some(outcome.clone());
            resolved += 1;
            if matches!(workload.looping, Loop::Closed { .. }) && next_unissued < requests.len() {
                // The client whose request just finished sends its next one.
                served[next_unissued].due_tick = finished_at;
                pending.entry(finished_at).or_default().push(next_unissued);
                next_unissued += 1;
            }
        }
        harvested = gw.outcomes().len();
    }

    // Lifecycle: every offer was accepted or refused, every accepted
    // request reached exactly one terminal, and no KV block leaked.
    let rejects = gw.rejects();
    let offers: u64 = served.iter().map(|s| u64::from(s.offers)).sum();
    if gw.accepted() + rejects.total() != offers {
        return Err(format!(
            "lifecycle: {offers} offers but {} accepted + {} refused",
            gw.accepted(),
            rejects.total()
        ));
    }
    if !gw.is_idle() || gw.outcomes().len() as u64 != gw.accepted() {
        return Err(format!(
            "lifecycle: {} accepted but {} terminals (idle: {})",
            gw.accepted(),
            gw.outcomes().len(),
            gw.is_idle()
        ));
    }
    let engine = gw.engine();
    let allocator = engine.batcher().allocator();
    allocator
        .leak_check()
        .map_err(|e| format!("lifecycle: KV leak at idle: {e}"))?;

    Ok(Repetition {
        domain: TickDomain {
            ticks: gw.now(),
            served,
            offers,
            accepted: gw.accepted(),
            rejects,
            gateway_retries: gw.retries(),
            queue_depth_max,
            engine_steps: engine.steps(),
            engine_decode_steps: engine.decode_steps(),
            preemptions: engine.batcher().preemptions(),
            kv_peak_blocks: allocator.peak_used(),
            kv_peak_logical_blocks: allocator.peak_logical(),
            prefix: engine.prefix_stats().unwrap_or_default(),
        },
        tick_ns,
        offer_ns,
        span_marks,
    })
}
