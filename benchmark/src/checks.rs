//! Output correctness, checked outside the timed region.
//!
//! Batching, prefix hits and preemption are all claimed bit-identical to a
//! plain greedy loop, so every [`SELF_CHECK_STRIDE`]-th completed request is
//! recomputed by exactly that loop — `model.forward` + `ops::argmax` on a
//! fresh quantized KV cache — and must match token for token. That makes a
//! request's tokens a function of (weights, prompt, length) alone, never of
//! the workload's scheduling, which is why one seed-independent golden file
//! can watch the arithmetic for all four workloads and for whatever seed
//! the caller picks.

use atom_nn::{KvStore, LinearLayer, LlamaModel};
use atom_tensor::ops;

use crate::replay::Served;
use crate::rng::{Digest, SplitMix64};
use crate::system;
use crate::workload::Request;

pub const SELF_CHECK_STRIDE: usize = 8;

/// Greedy generation with no serving stack around it.
pub fn plain_generate<L: LinearLayer>(
    model: &LlamaModel<L>,
    prompt: &[u16],
    max_new: usize,
) -> Vec<u16> {
    let mut cache: Box<dyn KvStore> = Box::new(system::new_kv_cache());
    let mut logits = model.forward(prompt, cache.as_mut());
    let mut out = Vec::with_capacity(max_new);
    loop {
        let next = ops::argmax(logits.row(logits.rows() - 1)) as u16;
        out.push(next);
        if out.len() == max_new {
            return out;
        }
        logits = model.forward(&[next], cache.as_mut());
    }
}

/// Recomputes every [`SELF_CHECK_STRIDE`]-th completed request; returns how
/// many were checked, or the first mismatch.
pub fn self_check<L: LinearLayer>(
    model: &LlamaModel<L>,
    requests: &[Request],
    served: &[Served],
) -> Result<usize, String> {
    let mut checked = 0usize;
    let completed = requests.iter().zip(served).filter_map(|(r, s)| {
        s.outcome
            .as_ref()
            .filter(|o| o.terminal.is_completed())
            .map(|o| (r, o))
    });
    for (i, (request, outcome)) in completed.enumerate() {
        if i % SELF_CHECK_STRIDE != 0 {
            continue;
        }
        let expect = plain_generate(model, &request.prompt, request.max_new);
        if outcome.tokens != expect {
            return Err(format!(
                "self-check: completed request #{i} (prompt {} tokens, {} new) differs from the plain greedy loop:\n  served {:?}\n  plain  {:?}",
                request.prompt.len(),
                request.max_new,
                outcome.tokens,
                expect
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

const GOLDEN_SEED: u64 = 0x601D;
const GOLDEN_PROMPTS: usize = 16;
const GOLDEN_PROMPT_TOKENS: usize = 24;
const GOLDEN_NEW_TOKENS: usize = 12;

/// Digests of the plain greedy loop on a fixed prompt set, one per prompt.
pub fn golden_digests<L: LinearLayer>(model: &LlamaModel<L>) -> Vec<u64> {
    let vocab = model.config().vocab as u64;
    let mut rng = SplitMix64::new(GOLDEN_SEED);
    (0..GOLDEN_PROMPTS)
        .map(|_| {
            let prompt: Vec<u16> = (0..GOLDEN_PROMPT_TOKENS)
                .map(|_| rng.below(vocab) as u16)
                .collect();
            let mut d = Digest::default();
            d.tokens(&plain_generate(model, &prompt, GOLDEN_NEW_TOKENS));
            d.finish()
        })
        .collect()
}

/// The committed digests (`benchmark/golden/plain_greedy.txt`, one hex
/// digest per line, `#` comments).
pub fn committed_golden() -> Vec<u64> {
    include_str!("../golden/plain_greedy.txt")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| u64::from_str_radix(l, 16).expect("golden file holds hex digests"))
        .collect()
}

/// Share of golden prompts whose output still matches the committed
/// digest. Reported, not enforced: a later change of arithmetic order is
/// visible without being blocked.
pub fn golden_match_frac(measured: &[u64]) -> f64 {
    let committed = committed_golden();
    if committed.len() != measured.len() {
        return 0.0;
    }
    let same = committed
        .iter()
        .zip(measured)
        .filter(|(a, b)| a == b)
        .count();
    same as f64 / measured.len() as f64
}
