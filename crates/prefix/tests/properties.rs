//! Property-based tests of the radix index: lookup/insert consistency,
//! flavor isolation, and eviction draining under randomized prompt sets
//! against a model block allocator (plain refcounts).

use atom_nn::Fp32KvCache;
use atom_prefix::{RadixIndex, Snapshot, FLAVOR_DEGRADED, FLAVOR_NORMAL};
use proptest::prelude::*;
use std::sync::Arc;

const BS: usize = 8;

fn snap(tokens: usize) -> Arc<Snapshot> {
    Arc::new(Snapshot::new(Box::new(Fp32KvCache::new(1, 2)), tokens))
}

/// A model allocator: refcounted block ids with no tables. `alloc` hands
/// out fresh ids, mirroring how the real pool backs donor sequences and
/// forked tails.
struct ModelAlloc {
    refs: Vec<u32>,
}

impl ModelAlloc {
    fn new() -> Self {
        ModelAlloc { refs: Vec::new() }
    }

    fn alloc(&mut self) -> usize {
        if let Some(free) = self.refs.iter().position(|&r| r == 0) {
            self.refs[free] = 1;
            free
        } else {
            self.refs.push(1);
            self.refs.len() - 1
        }
    }

    fn retain(&mut self, b: usize) {
        self.refs[b] += 1;
    }

    fn release(&mut self, b: usize) {
        assert!(self.refs[b] > 0, "refcount underflow on block {b}");
        self.refs[b] -= 1;
    }

    fn live(&self) -> usize {
        self.refs.iter().filter(|&&r| r > 0).count()
    }
}

/// Deterministic prompt content for a small prompt family: family `f`,
/// length `len`. Prompts of one family share all leading tokens, so the
/// index actually dedups chunks across insertions.
fn prompt(f: usize, len: usize) -> Vec<u16> {
    (0..len).map(|t| ((f * 17 + t * 3) % 96) as u16).collect()
}

/// Inserts `p` as a fresh donor: donor blocks are allocated, shared with
/// the index per the report, then the donor releases its own references —
/// exactly the engine's completed-prefill flow.
fn donate(index: &mut RadixIndex, alloc: &mut ModelAlloc, p: &[u16], flavor: u8, tick: u64) {
    let blocks: Vec<usize> = (0..p.len().div_ceil(BS)).map(|_| alloc.alloc()).collect();
    let report = index.insert(p, &blocks, flavor, snap(p.len()), tick, &mut |_src| {
        Some(alloc.alloc())
    });
    for &b in &report.newly_shared {
        alloc.retain(b);
    }
    for &b in &blocks {
        alloc.release(b);
    }
}

/// Every invariant the index must preserve at all times against the model
/// allocator.
fn check(index: &RadixIndex, alloc: &ModelAlloc) -> Result<(), TestCaseError> {
    let blocks = index.blocks();
    prop_assert_eq!(blocks.len(), index.len(), "one block per node");
    let mut sorted = blocks.clone();
    sorted.sort_unstable();
    sorted.dedup();
    prop_assert_eq!(sorted.len(), blocks.len(), "no block in two nodes");
    for &b in &blocks {
        prop_assert!(alloc.refs[b] > 0, "index holds dead block {b}");
    }
    Ok(())
}

proptest! {
    #[test]
    fn interleavings_preserve_refcounts_and_lookup(
        ops in proptest::collection::vec((0usize..4, 0usize..4, 1usize..33), 1..50),
    ) {
        let mut index = RadixIndex::new(BS);
        let mut alloc = ModelAlloc::new();
        for (tick, (op, family, len)) in ops.into_iter().enumerate() {
            match op {
                0 | 1 => {
                    let p = prompt(family, len);
                    donate(&mut index, &mut alloc, &p, FLAVOR_NORMAL, tick as u64);
                    // Lookup consistency, before any later eviction: a
                    // donated prompt re-matches at least its own full
                    // chunks (the cap excludes the last token, so an
                    // exact-multiple prompt matches one chunk short; a
                    // sibling's partial tail may extend the match further
                    // since same-family prompts share leading bytes).
                    let m = index.match_prefix(&p, FLAVOR_NORMAL, len - 1, tick as u64);
                    let full = len / BS;
                    let floor = if len % BS == 0 {
                        full.saturating_sub(1) * BS
                    } else {
                        full * BS
                    };
                    prop_assert!(m.tokens >= floor, "family {} len {}: {} < {}", family, len, m.tokens, floor);
                    prop_assert!(m.tokens < len, "cap excludes the full prompt");
                    prop_assert!(m.blocks.len() >= floor / BS);
                    // Flavor isolation: the same bytes under the other
                    // flavor miss.
                    let other = index.match_prefix(&p, FLAVOR_DEGRADED, len - 1, tick as u64);
                    prop_assert_eq!(other.tokens, 0);
                }
                2 => {
                    // Lookup never dangles: matched tokens respect the cap
                    // and every returned block is live.
                    let p = prompt(family, len);
                    let m = index.match_prefix(&p, FLAVOR_NORMAL, len.saturating_sub(1), tick as u64);
                    prop_assert!(m.tokens < len.max(1), "cap respected");
                    prop_assert_eq!(m.snapshot.is_some(), m.tokens > 0);
                    for &b in &m.blocks {
                        prop_assert!(alloc.refs[b] > 0, "match returned dead block {b}");
                    }
                }
                _ => {
                    if let Some(b) = index.evict_lru(&|b| alloc.refs[b] == 1) {
                        prop_assert_eq!(alloc.refs[b], 1, "evicted a shared block");
                        alloc.release(b);
                    }
                }
            }
            check(&index, &alloc)?;
        }

        // Drain: with every block evictable the index empties, and with
        // its references gone the model pool is pristine.
        while let Some(b) = index.evict_lru(&|_| true) {
            alloc.release(b);
        }
        prop_assert!(index.is_empty());
        prop_assert_eq!(index.len(), 0);
        prop_assert_eq!(alloc.live(), 0, "leaked blocks after full eviction");
    }

    #[test]
    fn clear_returns_every_held_block(
        prompts in proptest::collection::vec((0usize..3, 1usize..40), 1..12),
    ) {
        let mut index = RadixIndex::new(BS);
        let mut alloc = ModelAlloc::new();
        for (tick, &(family, len)) in prompts.iter().enumerate() {
            donate(&mut index, &mut alloc, &prompt(family, len), FLAVOR_NORMAL, tick as u64);
        }
        let mut held = index.blocks();
        held.sort_unstable();
        let mut cleared = index.clear();
        cleared.sort_unstable();
        prop_assert_eq!(cleared, held, "clear surrenders exactly the held blocks");
        prop_assert!(index.is_empty());
    }
}
