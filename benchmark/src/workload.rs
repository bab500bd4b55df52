//! The four workloads: what each offers to the gateway and why.
//!
//! A workload is a fixed *schedule*: how many requests, of which lengths,
//! from which tenant, sharing which prompt, arriving at which tick. The
//! schedule is drawn once, from [`SCHEDULE_SEED`], by stratified sampling
//! (fixed multisets of lengths, a fixed number of arrivals per window, so
//! the one draw is typical rather than lucky). `--seed` draws every token
//! of every prompt, and nothing else.
//!
//! Why the seed does not touch the schedule: a run affords about a hundred
//! requests, the bounds are a few per cent, and a p90 over a hundred
//! requests moves by tens of per cent when arrivals or lengths are redrawn —
//! that would be the benchmark's noise floor. Work in this stack does not
//! depend on token values (dense kernels, no stop token, greedy decoding to
//! a fixed length), so with the schedule fixed two seeds execute the same
//! ticks on different text, and what differs between their metrics is
//! measurement noise alone. The price, stated in the README: a change that
//! only helps one particular schedule is not caught by varying the seed;
//! redrawing [`SCHEDULE_SEED`] is a benchmark revision.

use atom_gateway::TenantSpec;

use crate::rng::{Digest, SplitMix64};

pub const NAMES: [&str; 4] = [
    "decode_heavy",
    "long_context",
    "shared_prefix",
    "mixed_burst",
];

/// Draws the schedule of every workload. A constant: changing it changes
/// the workloads, and every baseline must then be measured again.
const SCHEDULE_SEED: u64 = 0x5C4E_D01E;

/// One line per workload for `BENCHMARK.json` and the report header.
pub fn why(name: &str) -> &'static str {
    match name {
        "decode_heavy" => "closed loop, 8 clients, unshared prompts 16-32, outputs 16-32: m=1 quantized linears and per-token KV append dominate; prefix cache never hits, gateway queues idle. SLO 29/20 ms",
        "long_context" => "closed loop, 2 clients, unshared prompts 288-384: prefill GEMMs at large m set TTFT and stall other decoders, KV append+load at context ~350 price each token; prefix cache only writes. SLO 400/45 ms",
        "shared_prefix" => "tick-stamped arrivals 0.5/tick, 6 in 7 share one of 4 system prompts: prefix-cache hit path (match, snapshot copy, suffix prefill) with inserts and LRU evictions beside it. SLO 22/22 ms",
        "mixed_burst" => "tick-stamped bursts, chat+batch tenants, tight KV pool: token buckets, WFQ, bounded queues, admission, long prefills stalling decoders; the only workload that queues. SLO 92/35 ms",
        _ => panic!("unknown workload {name}"),
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub tenant: usize,
    pub prompt: Vec<u16>,
    pub max_new: usize,
    pub deadline_ticks: Option<u64>,
    /// Gateway clock value at which the request is first offered. In a
    /// closed loop only a client's first request uses it (clients start
    /// staggered); every later one is due at the tick the client's previous
    /// request finished.
    pub arrival_tick: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    /// `clients` callers that each wait for a reply before sending again.
    Closed { clients: usize },
    /// Independent users: arrivals stamped in gateway ticks.
    TickStamped,
}

/// Latency limits of the goodput metric, frozen per workload (see README,
/// "SLO limits").
#[derive(Debug, Clone, Copy)]
pub struct Slo {
    pub ttft_ms: f64,
    pub tpot_ms: f64,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub looping: Loop,
    pub max_batch: usize,
    pub kv_pool_tokens: usize,
    pub prefix_cap_blocks: usize,
    pub tenants: Vec<TenantSpec>,
    pub slo: Slo,
    pub requests: Vec<Request>,
}

impl Workload {
    /// Digest of everything the gateway will be offered.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for r in &self.requests {
            d.word(r.tenant as u64);
            d.tokens(&r.prompt);
            d.word(r.max_new as u64);
            d.word(r.deadline_ticks.map_or(u64::MAX, |t| t));
            d.word(r.arrival_tick);
        }
        d.finish()
    }

    pub fn loop_label(&self) -> String {
        match self.looping {
            Loop::Closed { clients } => format!("closed loop, {clients} clients"),
            Loop::TickStamped => "open loop, tick-stamped arrivals".to_string(),
        }
    }
}

/// What a request's prompt is made of; the seed turns it into tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Prompt {
    Unique(usize),
    /// One of the workload's system prompts plus a unique suffix.
    Shared {
        system: usize,
        suffix: usize,
    },
}

/// A request of the schedule, before it has text.
#[derive(Debug, Clone, Copy)]
struct Slot {
    tenant: usize,
    prompt: Prompt,
    max_new: usize,
    deadline_ticks: Option<u64>,
    arrival_tick: u64,
}

/// Gives the schedule its text: the only place `seed` is used.
fn write_prompts(
    slots: Vec<Slot>,
    system_prompt_tokens: usize,
    seed: u64,
    vocab: usize,
) -> Vec<Request> {
    let mut text = SplitMix64::stream(seed, "tokens");
    let mut tokens =
        |len: usize| -> Vec<u16> { (0..len).map(|_| text.below(vocab as u64) as u16).collect() };
    let systems = slots
        .iter()
        .filter_map(|s| match s.prompt {
            Prompt::Shared { system, .. } => Some(system + 1),
            Prompt::Unique(_) => None,
        })
        .max()
        .unwrap_or(0);
    let systems: Vec<Vec<u16>> = (0..systems).map(|_| tokens(system_prompt_tokens)).collect();
    slots
        .into_iter()
        .map(|s| Request {
            tenant: s.tenant,
            prompt: match s.prompt {
                Prompt::Unique(len) => tokens(len),
                Prompt::Shared { system, suffix } => {
                    let mut p = systems[system].clone();
                    p.extend(tokens(suffix));
                    p
                }
            },
            max_new: s.max_new,
            deadline_ticks: s.deadline_ticks,
            arrival_tick: s.arrival_tick,
        })
        .collect()
}

/// `n` values evenly spaced over `lo..=hi` (both ends included when
/// `n >= 2`): a fixed multiset for the schedule to permute.
pub fn spread(lo: usize, hi: usize, n: usize) -> Vec<usize> {
    if n == 1 {
        return vec![(lo + hi) / 2];
    }
    (0..n)
        .map(|i| lo + (i * (hi - lo) + (n - 1) / 2) / (n - 1))
        .collect()
}

fn shuffled(mut v: Vec<usize>, rng: &mut SplitMix64) -> Vec<usize> {
    rng.shuffle(&mut v);
    v
}

/// `count` arrival ticks inside `start..start + len`, ascending.
fn window_arrivals(rng: &mut SplitMix64, start: u64, len: u64, count: usize) -> Vec<u64> {
    let mut ticks: Vec<u64> = (0..count).map(|_| start + rng.below(len)).collect();
    ticks.sort_unstable();
    ticks
}

/// A tenant the gateway never throttles: the three single-tenant workloads
/// are not about admission control.
fn open_tenant() -> TenantSpec {
    TenantSpec::new("default", 1, 1)
        .with_rate(1_000_000, 1_000_000)
        .with_queue_cap(4096)
}

/// Builds workload `name` with text drawn from `seed`. `quick` shrinks
/// every schedule for the smoke test; quick numbers mean nothing.
pub fn generate(name: &str, seed: u64, vocab: usize, quick: bool) -> Workload {
    let mut schedule = SplitMix64::stream(SCHEDULE_SEED, name);
    match name {
        "decode_heavy" => decode_heavy(&mut schedule, seed, vocab, quick),
        "long_context" => long_context(&mut schedule, seed, vocab, quick),
        "shared_prefix" => shared_prefix(&mut schedule, seed, vocab, quick),
        "mixed_burst" => mixed_burst(&mut schedule, seed, vocab, quick),
        _ => panic!("unknown workload {name}"),
    }
}

/// `n` unshared requests for `clients` closed-loop clients, client `c`
/// starting at tick `c * stagger` so the loop does not open with every
/// client prefilling in the same tick.
fn closed_loop_slots(
    schedule: &mut SplitMix64,
    n: usize,
    clients: usize,
    stagger: u64,
    prompts: (usize, usize),
    outputs: (usize, usize),
) -> Vec<Slot> {
    let prompt_lens = shuffled(spread(prompts.0, prompts.1, n), schedule);
    let output_lens = shuffled(spread(outputs.0, outputs.1, n), schedule);
    prompt_lens
        .into_iter()
        .zip(output_lens)
        .enumerate()
        .map(|(i, (p, o))| Slot {
            tenant: 0,
            prompt: Prompt::Unique(p),
            max_new: o,
            deadline_ticks: None,
            arrival_tick: if i < clients { i as u64 * stagger } else { 0 },
        })
        .collect()
}

fn decode_heavy(schedule: &mut SplitMix64, seed: u64, vocab: usize, quick: bool) -> Workload {
    let (n, clients, outputs) = if quick {
        (8, 4, (4, 8))
    } else {
        (24, 8, (16, 32))
    };
    let slots = closed_loop_slots(schedule, n, clients, 3, (16, 32), outputs);
    Workload {
        name: "decode_heavy",
        looping: Loop::Closed { clients },
        max_batch: 8,
        kv_pool_tokens: 16_384,
        prefix_cap_blocks: 64,
        tenants: vec![open_tenant()],
        slo: Slo {
            ttft_ms: 29.0,
            tpot_ms: 20.0,
        },
        requests: write_prompts(slots, 0, seed, vocab),
    }
}

fn long_context(schedule: &mut SplitMix64, seed: u64, vocab: usize, quick: bool) -> Workload {
    let (n, clients, prompts, outputs) = if quick {
        (2, 2, (96, 128), (4, 6))
    } else {
        (4, 2, (288, 384), (12, 20))
    };
    let slots = closed_loop_slots(schedule, n, clients, 8, prompts, outputs);
    Workload {
        name: "long_context",
        looping: Loop::Closed { clients },
        max_batch: 8,
        kv_pool_tokens: 4096,
        prefix_cap_blocks: 64,
        tenants: vec![open_tenant()],
        slo: Slo {
            ttft_ms: 400.0,
            tpot_ms: 45.0,
        },
        requests: write_prompts(slots, 0, seed, vocab),
    }
}

/// Shared system prompt length (3 blocks of 16), unique-prompt length, the
/// popularity of the four system prompts and the fixed output length.
const SYSTEM_PROMPT_TOKENS: usize = 48;
const UNIQUE_PROMPT_TOKENS: usize = 64;
const SYSTEM_POPULARITY: [usize; 4] = [4, 3, 2, 1];
const SHARED_PREFIX_OUTPUT: usize = 4;

fn shared_prefix(schedule: &mut SplitMix64, seed: u64, vocab: usize, quick: bool) -> Workload {
    // Groups of 7 consecutive arrivals: 6 shared + 1 unique at a drawn
    // position. 4 arrivals in every 8-tick window (0.5/tick).
    let groups = if quick { 2 } else { 10 };
    let n = groups * 7;
    let n_shared = groups * 6;

    let mut unique_at = vec![false; n];
    for g in 0..groups {
        unique_at[g * 7 + schedule.range(0, 6)] = true;
    }
    // Which system prompt each shared request uses: popularity 4:3:2:1 over
    // the shared slots, then permuted.
    let weight_sum: usize = SYSTEM_POPULARITY.iter().sum();
    let mut which: Vec<usize> = Vec::with_capacity(n_shared);
    for (s, w) in SYSTEM_POPULARITY.iter().enumerate() {
        which.extend(std::iter::repeat_n(s, n_shared * w / weight_sum));
    }
    while which.len() < n_shared {
        which.push(which.len() % SYSTEM_POPULARITY.len());
    }
    let which = shuffled(which, schedule);
    let suffix_lens = shuffled(spread(4, 12, n_shared), schedule);

    let mut ticks: Vec<u64> = Vec::with_capacity(n);
    let mut window = 0u64;
    while ticks.len() < n {
        let take = 4.min(n - ticks.len());
        ticks.extend(window_arrivals(schedule, window * 8, 8, take));
        window += 1;
    }

    let mut shared = which.into_iter().zip(suffix_lens);
    let slots = ticks
        .into_iter()
        .zip(unique_at)
        .map(|(arrival_tick, unique)| Slot {
            tenant: 0,
            prompt: if unique {
                Prompt::Unique(UNIQUE_PROMPT_TOKENS)
            } else {
                let (system, suffix) = shared.next().expect("shared slots cover the schedule");
                Prompt::Shared { system, suffix }
            },
            max_new: SHARED_PREFIX_OUTPUT,
            deadline_ticks: None,
            arrival_tick,
        })
        .collect();
    Workload {
        name: "shared_prefix",
        looping: Loop::TickStamped,
        max_batch: 8,
        kv_pool_tokens: 4096,
        prefix_cap_blocks: 32,
        tenants: vec![open_tenant()],
        slo: Slo {
            ttft_ms: 22.0,
            tpot_ms: 22.0,
        },
        requests: write_prompts(slots, SYSTEM_PROMPT_TOKENS, seed, vocab),
    }
}

pub const CHAT: usize = 0;
pub const BATCH: usize = 1;

/// One segment of the `mixed_burst` schedule: `ticks` long, with exactly
/// `chat` + `batch` arrivals at drawn positions.
struct Segment {
    ticks: u64,
    chat: usize,
    batch: usize,
}

/// Deadline of `chat` requests in gateway ticks: the deadline path runs on
/// every tick (the engine sweeps deadlines each step), but no request of
/// the schedule expires, because the contract wants workloads on which
/// nothing fails.
const CHAT_DEADLINE_TICKS: u64 = 200;

fn mixed_burst(schedule: &mut SplitMix64, seed: u64, vocab: usize, quick: bool) -> Workload {
    // 45 ticks of base load (8 arrivals, 0.18/tick), then a 10-tick burst of
    // 20 (2/tick); two cycles = 110 ticks, 56 requests.
    let cycles = if quick { 1 } else { 2 };
    let cycle = [
        Segment {
            ticks: if quick { 12 } else { 45 },
            chat: if quick { 2 } else { 6 },
            batch: if quick { 1 } else { 2 },
        },
        Segment {
            ticks: if quick { 4 } else { 10 },
            chat: if quick { 5 } else { 17 },
            batch: if quick { 1 } else { 3 },
        },
    ];
    let n_chat = cycles * cycle.iter().map(|s| s.chat).sum::<usize>();
    let n_batch = cycles * cycle.iter().map(|s| s.batch).sum::<usize>();

    let mut chat_shapes = shuffled(spread(8, 16, n_chat), schedule)
        .into_iter()
        .zip(shuffled(spread(4, 8, n_chat), schedule));
    let mut batch_shapes = shuffled(spread(48, 96, n_batch), schedule)
        .into_iter()
        .zip(shuffled(spread(4, 8, n_batch), schedule));

    let mut slots = Vec::with_capacity(n_chat + n_batch);
    let mut start = 0u64;
    for _ in 0..cycles {
        for seg in &cycle {
            let ticks = window_arrivals(schedule, start, seg.ticks, seg.chat + seg.batch);
            let mut tenant_of: Vec<usize> = std::iter::repeat_n(CHAT, seg.chat)
                .chain(std::iter::repeat_n(BATCH, seg.batch))
                .collect();
            schedule.shuffle(&mut tenant_of);
            for (arrival_tick, tenant) in ticks.into_iter().zip(tenant_of) {
                let (prompt_len, max_new) = if tenant == CHAT {
                    chat_shapes.next().expect("chat shapes cover the schedule")
                } else {
                    batch_shapes
                        .next()
                        .expect("batch shapes cover the schedule")
                };
                slots.push(Slot {
                    tenant,
                    prompt: Prompt::Unique(prompt_len),
                    max_new,
                    deadline_ticks: (tenant == CHAT).then_some(CHAT_DEADLINE_TICKS),
                    arrival_tick,
                });
            }
            start += seg.ticks;
        }
    }
    Workload {
        name: "mixed_burst",
        looping: Loop::TickStamped,
        max_batch: 8,
        kv_pool_tokens: 256,
        prefix_cap_blocks: 16,
        tenants: vec![
            TenantSpec::new("chat", 3, 2)
                .with_rate(1_000, 8_000)
                .with_queue_cap(24),
            TenantSpec::new("batch", 1, 1)
                .with_rate(250, 1_000)
                .with_queue_cap(8),
        ],
        slo: Slo {
            ttft_ms: 92.0,
            tpot_ms: 35.0,
        },
        requests: write_prompts(slots, 0, seed, vocab),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VOCAB: usize = 96;

    #[test]
    fn spread_covers_both_ends_evenly() {
        assert_eq!(spread(16, 32, 5), vec![16, 20, 24, 28, 32]);
        assert_eq!(spread(4, 6, 1), vec![5]);
        let s = spread(8, 24, 86);
        assert_eq!((s[0], s[85]), (8, 24));
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn same_seed_same_trace_other_seed_other_trace() {
        for name in NAMES {
            let a = generate(name, 42, VOCAB, false);
            let b = generate(name, 42, VOCAB, false);
            let c = generate(name, 43, VOCAB, false);
            assert_eq!(a.requests, b.requests, "{name}");
            assert_eq!(a.digest(), b.digest(), "{name}");
            assert_ne!(a.digest(), c.digest(), "{name}");
        }
    }

    /// The seed writes the text and leaves the schedule alone.
    #[test]
    fn the_seed_changes_text_only() {
        for name in NAMES {
            let schedule = |seed| -> Vec<(usize, usize, usize, Option<u64>, u64)> {
                generate(name, seed, VOCAB, false)
                    .requests
                    .iter()
                    .map(|r| {
                        (
                            r.tenant,
                            r.prompt.len(),
                            r.max_new,
                            r.deadline_ticks,
                            r.arrival_tick,
                        )
                    })
                    .collect()
            };
            assert_eq!(schedule(1), schedule(2), "{name}");
            let text = |seed| -> Vec<Vec<u16>> {
                generate(name, seed, VOCAB, false)
                    .requests
                    .into_iter()
                    .map(|r| r.prompt)
                    .collect()
            };
            assert!(
                text(1).iter().zip(text(2)).all(|(a, b)| *a != b),
                "{name}: every prompt is rewritten"
            );
        }
    }

    #[test]
    fn shapes_match_the_documented_workloads() {
        let d = generate("decode_heavy", 42, VOCAB, false);
        assert_eq!(d.requests.len(), 24);
        assert!(d
            .requests
            .iter()
            .all(|r| (16..=32).contains(&r.prompt.len())));
        assert!(d.requests.iter().all(|r| (16..=32).contains(&r.max_new)));
        let starts: Vec<u64> = d.requests[..8].iter().map(|r| r.arrival_tick).collect();
        assert_eq!(
            starts,
            [0, 3, 6, 9, 12, 15, 18, 21],
            "clients start staggered"
        );

        let l = generate("long_context", 42, VOCAB, false);
        assert_eq!(l.requests.len(), 4);
        assert!(l
            .requests
            .iter()
            .all(|r| (288..=384).contains(&r.prompt.len())));

        let s = generate("shared_prefix", 42, VOCAB, false);
        assert_eq!(s.requests.len(), 70);
        let unique = s
            .requests
            .iter()
            .filter(|r| r.prompt.len() == UNIQUE_PROMPT_TOKENS)
            .count();
        assert_eq!(unique, 10);
        assert!(s
            .requests
            .windows(2)
            .all(|w| w[0].arrival_tick <= w[1].arrival_tick));
        assert!(s.requests.iter().all(|r| r.arrival_tick < 144));
        // Shared requests really share: exactly 4 distinct system prompts.
        let heads: std::collections::BTreeSet<&[u16]> = s
            .requests
            .iter()
            .filter(|r| r.prompt.len() != UNIQUE_PROMPT_TOKENS)
            .map(|r| &r.prompt[..SYSTEM_PROMPT_TOKENS])
            .collect();
        assert_eq!(heads.len(), 4);

        let m = generate("mixed_burst", 42, VOCAB, false);
        assert_eq!(m.requests.len(), 56);
        assert_eq!(m.requests.iter().filter(|r| r.tenant == BATCH).count(), 10);
        assert!(m.requests.iter().all(|r| r.arrival_tick < 110));
        for cycle in 0..2u64 {
            let burst = (cycle * 55 + 45)..(cycle * 55 + 55);
            assert_eq!(
                m.requests
                    .iter()
                    .filter(|r| burst.contains(&r.arrival_tick))
                    .count(),
                20
            );
        }
    }

    #[test]
    fn tokens_stay_in_vocabulary() {
        for name in NAMES {
            let w = generate(name, 7, VOCAB, true);
            assert!(w
                .requests
                .iter()
                .flat_map(|r| &r.prompt)
                .all(|&t| usize::from(t) < VOCAB));
        }
    }
}
