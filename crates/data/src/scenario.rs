//! Prompt-level serving scenarios over [`traffic`](crate::traffic) traces.
//!
//! The gateway experiments replay [`Arrival`]s that only carry *lengths*;
//! the prefix-cache experiments need actual token content, because cache
//! hits are decided by prompt bytes. A [`ScenarioSpec`] compiles a
//! [`TrafficSpec`] plus a content [`ScenarioKind`] into a deterministic
//! trace of [`PromptArrival`]s — the arrival schedule stays exactly the
//! traffic model's; only the prompts are synthesized:
//!
//! - [`ScenarioKind::SharedPrefix`] — a small pool of system prompts shared
//!   by every request (the millions-of-users chat-assistant shape that
//!   makes radix prefix caching pay);
//! - [`ScenarioKind::MultiTurn`] — conversations whose every turn resends
//!   the full history, so each turn's prompt extends the previous one;
//! - [`ScenarioKind::LongContext`] — a few long documents queried many
//!   times with short distinct questions.
//!
//! All token ids stay inside the 96-symbol vocabulary of
//! [`Tokenizer`](crate::Tokenizer)-compatible models, and everything is a
//! pure function of spec and seed.

use crate::traffic::{Arrival, TrafficSpec};
use atom_tensor::SeededRng;
use serde::{Deserialize, Serialize};

/// Vocabulary bound for synthesized prompt tokens (the zoo models embed a
/// fixed 96-symbol vocabulary).
const VOCAB: u16 = 96;

/// One arrival with concrete prompt content.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PromptArrival {
    /// The underlying traffic arrival (tick, tenant, lengths, deadline).
    /// `arrival.prefill_tokens` always equals `prompt.len()`.
    pub arrival: Arrival,
    /// The prompt token ids.
    pub prompt: Vec<u16>,
}

/// How prompt content is synthesized on top of the arrival schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScenarioKind {
    /// Every request starts with one of `prefixes` fixed system prompts of
    /// `prefix_tokens` tokens, followed by a unique user suffix. Prefix
    /// popularity is linearly skewed (pool entry 0 is hottest).
    SharedPrefix {
        /// Number of distinct system prompts.
        prefixes: usize,
        /// Length of each system prompt in tokens.
        prefix_tokens: usize,
    },
    /// Requests are grouped into conversations of `turns` turns; each turn
    /// resends the whole history plus `followup_tokens` fresh tokens, and
    /// lands `turn_gap_ticks` after the previous turn.
    MultiTurn {
        /// Turns per conversation (>= 1).
        turns: usize,
        /// Ticks between consecutive turns of one conversation.
        turn_gap_ticks: u64,
        /// Fresh tokens appended per follow-up turn.
        followup_tokens: usize,
    },
    /// Every request quotes one of `documents` long documents of
    /// `document_tokens` tokens and appends a short unique question.
    LongContext {
        /// Number of distinct documents.
        documents: usize,
        /// Length of each document in tokens.
        document_tokens: usize,
    },
}

/// A complete prompt-level scenario: arrival schedule plus content model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Arrival schedule (rates, tenants, pattern, horizon).
    pub traffic: TrafficSpec,
    /// Prompt content model layered on the schedule.
    pub kind: ScenarioKind,
}

impl ScenarioSpec {
    /// Generates the deterministic prompt trace for `seed`, sorted by tick.
    ///
    /// The arrival schedule is exactly `self.traffic.generate(seed)`; the
    /// content model then rewrites each arrival's prompt (and therefore its
    /// `prefill_tokens`) to match the scenario's sharing structure. Decode
    /// lengths and deadlines pass through untouched.
    pub fn generate(&self, seed: u64) -> Vec<PromptArrival> {
        let arrivals = self.traffic.generate(seed);
        let mut rng = SeededRng::new(seed ^ 0x5CE9_A210);
        match self.kind {
            ScenarioKind::SharedPrefix {
                prefixes,
                prefix_tokens,
            } => shared_prefix(&arrivals, prefixes, prefix_tokens, &mut rng),
            ScenarioKind::MultiTurn {
                turns,
                turn_gap_ticks,
                followup_tokens,
            } => multi_turn(
                &arrivals,
                turns.max(1),
                turn_gap_ticks,
                followup_tokens.max(1),
                &mut rng,
                self.traffic.horizon_ticks,
            ),
            ScenarioKind::LongContext {
                documents,
                document_tokens,
            } => shared_prefix(&arrivals, documents, document_tokens, &mut rng),
        }
    }
}

/// A fixed pseudo-random token stream for pool entry `which`: deterministic
/// in `which` alone so every request quoting the same entry gets identical
/// bytes.
fn pool_entry(which: usize, tokens: usize) -> Vec<u16> {
    let mut rng = SeededRng::new(0x00D0_C5EED ^ (which as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..tokens).map(|_| atom_tensor::cast::usize_to_u16_saturating(rng.below(VOCAB as usize))).collect()
}

/// Linearly skewed pool pick: entry 0 has weight `n`, entry `n-1` weight 1.
fn skewed_pick(rng: &mut SeededRng, n: usize) -> usize {
    let total = n * (n + 1) / 2;
    let mut ticket = rng.below(total.max(1));
    for entry in 0..n {
        let weight = n - entry;
        if ticket < weight {
            return entry;
        }
        ticket -= weight;
    }
    0
}

fn shared_prefix(
    arrivals: &[Arrival],
    pool: usize,
    prefix_tokens: usize,
    rng: &mut SeededRng,
) -> Vec<PromptArrival> {
    let pool = pool.max(1);
    let prefix_tokens = prefix_tokens.max(1);
    let prefixes: Vec<Vec<u16>> = (0..pool).map(|i| pool_entry(i, prefix_tokens)).collect();
    arrivals
        .iter()
        .map(|a| {
            let which = skewed_pick(rng, pool);
            let mut prompt = prefixes.get(which).cloned().unwrap_or_default();
            // The suffix keeps the arrival's own prompt length so tenant
            // length bands still shape the unique part.
            for _ in 0..a.prefill_tokens.max(1) {
                prompt.push(atom_tensor::cast::usize_to_u16_saturating(rng.below(VOCAB as usize)));
            }
            let mut arrival = *a;
            arrival.prefill_tokens = prompt.len();
            PromptArrival { arrival, prompt }
        })
        .collect()
}

fn multi_turn(
    arrivals: &[Arrival],
    turns: usize,
    turn_gap_ticks: u64,
    followup_tokens: usize,
    rng: &mut SeededRng,
    horizon: u64,
) -> Vec<PromptArrival> {
    let mut out = Vec::new();
    for a in arrivals {
        // Turn 1 is the arrival's own prompt; later turns resend the whole
        // history plus a fresh follow-up, prefix-extending the previous
        // prompt — exactly the multi-turn chat shape prefix caching serves.
        let mut history: Vec<u16> = (0..a.prefill_tokens.max(1))
            .map(|_| atom_tensor::cast::usize_to_u16_saturating(rng.below(VOCAB as usize)))
            .collect();
        for turn in 0..turns {
            let tick = a.tick + turn_gap_ticks.saturating_mul(turn as u64);
            if turn > 0 && tick >= horizon {
                break;
            }
            if turn > 0 {
                for _ in 0..followup_tokens {
                    history.push(atom_tensor::cast::usize_to_u16_saturating(rng.below(VOCAB as usize)));
                }
            }
            let mut arrival = *a;
            arrival.tick = tick;
            arrival.prefill_tokens = history.len();
            out.push(PromptArrival {
                arrival,
                prompt: history.clone(),
            });
        }
    }
    // Interleave conversations back into tick order; the sort is stable so
    // same-tick arrivals keep their generation order.
    out.sort_by_key(|p| p.arrival.tick);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{ArrivalPattern, TenantTraffic};

    fn spec(kind: ScenarioKind) -> ScenarioSpec {
        ScenarioSpec {
            traffic: TrafficSpec {
                base_rate_per_tick: 1.0,
                pattern: ArrivalPattern::Steady,
                horizon_ticks: 200,
                tenants: vec![TenantTraffic::interactive(1.0, 50)],
            },
            kind,
        }
    }

    #[test]
    fn shared_prefix_traces_share_and_replay() {
        let s = spec(ScenarioKind::SharedPrefix {
            prefixes: 2,
            prefix_tokens: 32,
        });
        let a = s.generate(7);
        assert_eq!(a, s.generate(7), "bit-identical replay");
        assert!(!a.is_empty());
        for p in &a {
            assert_eq!(p.arrival.prefill_tokens, p.prompt.len());
            assert!(p.prompt.len() > 32, "prefix plus a unique suffix");
            assert!(p.prompt.iter().all(|&t| t < VOCAB));
        }
        // Every request starts with one of exactly two 32-token prefixes.
        let mut heads: Vec<Vec<u16>> = a.iter().map(|p| p.prompt[..32].to_vec()).collect();
        heads.sort();
        heads.dedup();
        assert_eq!(heads.len(), 2, "two distinct system prompts");
        // The skew makes pool entry 0 the hotter prefix.
        let zero = pool_entry(0, 32);
        let hot = a.iter().filter(|p| p.prompt[..32] == zero[..]).count();
        assert!(hot * 2 > a.len(), "hottest prefix covers most requests");
    }

    #[test]
    fn multi_turn_prompts_extend_prefixwise() {
        let s = spec(ScenarioKind::MultiTurn {
            turns: 3,
            turn_gap_ticks: 10,
            followup_tokens: 6,
        });
        let trace = s.generate(9);
        assert_eq!(trace, s.generate(9));
        assert!(trace
            .windows(2)
            .all(|w| w[0].arrival.tick <= w[1].arrival.tick));
        // Group by conversation: turns of one conversation share the first
        // turn's prompt as a strict prefix.
        let firsts: Vec<&PromptArrival> = trace
            .iter()
            .filter(|p| p.prompt.len() == p.arrival.prefill_tokens && p.arrival.tick < 10)
            .collect();
        assert!(!firsts.is_empty());
        let mut extended = 0;
        for first in &firsts {
            for later in &trace {
                if later.prompt.len() > first.prompt.len()
                    && later.prompt[..first.prompt.len()] == first.prompt[..]
                {
                    extended += 1;
                    break;
                }
            }
        }
        assert!(extended > 0, "later turns extend earlier prompts");
    }

    #[test]
    fn long_context_documents_are_shared() {
        let s = spec(ScenarioKind::LongContext {
            documents: 1,
            document_tokens: 64,
        });
        let trace = s.generate(3);
        assert!(!trace.is_empty());
        let doc = pool_entry(0, 64);
        for p in &trace {
            assert_eq!(&p.prompt[..64], &doc[..], "all requests quote the document");
            assert!(p.prompt.len() > 64, "each adds a unique question");
        }
    }
}
