//! The radix (trie) index mapping token prefixes to cached KV block runs.
//!
//! Nodes live in a slab arena with an explicit free-slot list, children are
//! kept in insertion order, and eviction scans slots in index order — every
//! operation is deterministic given the operation sequence, which is part
//! of the serving engine's bit-identical-replay contract.

use crate::snapshot::Snapshot;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Cache flavor tag: prefixes only match within a flavor, so a request
/// admitted with a degraded (INT4) KV store never replays a full-precision
/// snapshot and vice versa — flavor-blind matching would silently change
/// outputs between cache-on and cache-off runs.
pub type Flavor = u8;

/// Flavor tag for the engine's primary KV store.
pub const FLAVOR_NORMAL: Flavor = 0;
/// Flavor tag for pressure-degraded (quantized) KV admissions.
pub const FLAVOR_DEGRADED: Flavor = 1;

/// A resolved lookup: how many prompt tokens matched, the physical blocks
/// covering them (one per radix node on the match path), and the deepest
/// node's KV snapshot to replay them from.
#[derive(Debug, Clone, Default)]
pub struct MatchOutcome {
    /// Prompt tokens covered (0 = miss).
    pub tokens: usize,
    /// Physical block ids in logical order, `blocks_for(tokens)` of them.
    pub blocks: Vec<usize>,
    /// KV snapshot covering at least `tokens` positions (present iff
    /// `tokens > 0`).
    pub snapshot: Option<Arc<Snapshot>>,
}

/// What an insertion changed, and which follow-up block accounting the
/// caller owes the allocator.
#[derive(Debug, Default)]
pub struct InsertReport {
    /// Donor-table blocks now *also* referenced by a new cache node; the
    /// caller must add one allocator reference to each. (A forked tail
    /// block is absent here — `fork_tail` already produced it owned by the
    /// cache.)
    pub newly_shared: Vec<usize>,
    /// Nodes created (0 = the prompt was already fully cached).
    pub new_nodes: usize,
    /// The partial tail could not be forked (pool exhausted); the full
    /// blocks were still cached.
    pub tail_fork_failed: bool,
}

#[derive(Debug)]
struct Node {
    flavor: Flavor,
    /// Token content covered by this node: exactly `block_size` tokens for
    /// interior-capable nodes, fewer for partial-tail leaves.
    chunk: Vec<u16>,
    /// Physical KV block backing the chunk.
    block: usize,
    parent: Option<usize>,
    /// Child node ids in insertion order. Only full nodes ever gain
    /// children; partial nodes are always leaves.
    children: Vec<usize>,
    /// Deepest-prefill KV state that covers this node's path.
    snapshot: Arc<Snapshot>,
    /// Engine tick of the last match or insertion touching this node.
    last_used: u64,
    /// Monotonic creation stamp — the LRU tie-breaker.
    stamp: u64,
}

/// Deterministic radix index over token prefixes at KV-block granularity.
///
/// # Example
///
/// ```
/// use atom_prefix::{RadixIndex, Snapshot, FLAVOR_NORMAL};
/// use atom_nn::Fp32KvCache;
/// use std::sync::Arc;
///
/// let mut idx = RadixIndex::new(4);
/// let prompt: Vec<u16> = (0..10).collect();
/// let snap = Arc::new(Snapshot::new(Box::new(Fp32KvCache::new(1, 2)), 10));
/// // Blocks 5, 6, 7 back the prompt; the partial tail (tokens 8..10) is
/// // forked to block 9 by the callback.
/// let report = idx.insert(&prompt, &[5, 6, 7], FLAVOR_NORMAL, snap, 0, &mut |_src| Some(9));
/// assert_eq!(report.newly_shared, vec![5, 6]);
/// let hit = idx.match_prefix(&prompt, FLAVOR_NORMAL, prompt.len() - 1, 1);
/// assert_eq!(hit.tokens, 8); // the 2-token tail fits under the 9-token cap
/// ```
#[derive(Debug)]
pub struct RadixIndex {
    block_size: usize,
    slots: Vec<Option<Node>>,
    free_slots: Vec<usize>,
    /// Root children per flavor (BTreeMap for deterministic iteration).
    roots: BTreeMap<Flavor, Vec<usize>>,
    next_stamp: u64,
    node_count: usize,
}

impl RadixIndex {
    /// Creates an empty index at `block_size`-token granularity (must match
    /// the paged allocator's block size).
    ///
    /// # Panics
    ///
    /// Panics if `block_size == 0`.
    pub fn new(block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        RadixIndex {
            block_size,
            slots: Vec::new(),
            free_slots: Vec::new(),
            roots: BTreeMap::new(),
            next_stamp: 0,
            node_count: 0,
        }
    }

    /// Token granularity of the index.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of cached nodes (== cached blocks: one block per node).
    pub fn len(&self) -> usize {
        self.node_count
    }

    /// Whether the index holds nothing.
    pub fn is_empty(&self) -> bool {
        self.node_count == 0
    }

    /// Every cached block id, in arena-slot (deterministic) order.
    pub fn blocks(&self) -> Vec<usize> {
        self.slots.iter().flatten().map(|n| n.block).collect()
    }

    fn node(&self, id: usize) -> Option<&Node> {
        self.slots.get(id).and_then(|s| s.as_ref())
    }

    fn node_mut(&mut self, id: usize) -> Option<&mut Node> {
        self.slots.get_mut(id).and_then(|s| s.as_mut())
    }

    fn children_of(&self, parent: Option<usize>, flavor: Flavor) -> &[usize] {
        match parent {
            Some(id) => self.node(id).map(|n| n.children.as_slice()).unwrap_or(&[]),
            None => self.roots.get(&flavor).map(|v| v.as_slice()).unwrap_or(&[]),
        }
    }

    fn alloc_node(&mut self, node: Node) -> usize {
        let parent = node.parent;
        let flavor = node.flavor;
        let id = match self.free_slots.pop() {
            Some(slot) => {
                if let Some(s) = self.slots.get_mut(slot) {
                    *s = Some(node);
                }
                slot
            }
            None => {
                self.slots.push(Some(node));
                self.slots.len() - 1
            }
        };
        match parent {
            Some(p) => {
                if let Some(pn) = self.node_mut(p) {
                    pn.children.push(id);
                }
            }
            None => self.roots.entry(flavor).or_default().push(id),
        }
        self.node_count += 1;
        id
    }

    /// Finds the longest cached prefix of `prompt` within `flavor`, capped
    /// at `max_tokens` (the engine passes `prompt.len() - 1` so a hit never
    /// swallows the whole prompt). Matching is all-or-nothing per node: a
    /// node either covers its full chunk inside the cap or contributes
    /// nothing. Every node on the hit path has its recency bumped to
    /// `tick`.
    pub fn match_prefix(
        &mut self,
        prompt: &[u16],
        flavor: Flavor,
        max_tokens: usize,
        tick: u64,
    ) -> MatchOutcome {
        let mut matched = 0usize;
        let mut path: Vec<usize> = Vec::new();
        let mut kids: Vec<usize> = self.roots.get(&flavor).cloned().unwrap_or_default();
        loop {
            let rest = prompt.get(matched..).unwrap_or(&[]);
            if rest.is_empty() {
                break;
            }
            let budget = max_tokens.saturating_sub(matched);
            // One pass over the children: a full-chunk node matches at most
            // once (children are content-deduplicated) and wins outright;
            // otherwise the longest matching partial leaf wins.
            let mut best: Option<(usize, usize)> = None;
            for &id in &kids {
                let Some(node) = self.node(id) else { continue };
                let take = node.chunk.len();
                if take == 0 || take > budget || take > rest.len() {
                    continue;
                }
                if rest.get(..take) != Some(node.chunk.as_slice()) {
                    continue;
                }
                if take == self.block_size {
                    best = Some((id, take));
                    break;
                }
                if best.is_none_or(|(_, t)| take > t) {
                    best = Some((id, take));
                }
            }
            let Some((id, take)) = best else { break };
            matched += take;
            path.push(id);
            if take < self.block_size {
                break; // partial leaves have no children
            }
            kids = self.node(id).map(|n| n.children.clone()).unwrap_or_default();
        }
        let mut blocks = Vec::with_capacity(path.len());
        let mut snapshot = None;
        for &id in &path {
            if let Some(node) = self.node_mut(id) {
                node.last_used = tick;
                blocks.push(node.block);
            }
        }
        if let Some(&deepest) = path.last() {
            snapshot = self.node(deepest).map(|n| Arc::clone(&n.snapshot));
        }
        if snapshot.is_none() {
            return MatchOutcome::default();
        }
        MatchOutcome {
            tokens: matched,
            blocks,
            snapshot,
        }
    }

    /// Indexes a completed prefill: `blocks` are the sequence's physical
    /// blocks covering `prompt` (`blocks_for(prompt.len())` of them, last
    /// possibly partial), and `snapshot` is its frozen KV state. Chunks
    /// already cached are recency-refreshed (and their snapshot upgraded);
    /// uncovered full chunks become new nodes sharing the donor's blocks;
    /// an uncovered partial tail is copied through `fork_tail(src_block)`
    /// so the donor's own tail stays writable — `None` from the callback
    /// (pool exhausted) skips tail caching.
    ///
    /// The caller owns the allocator follow-up described on
    /// [`InsertReport`].
    pub fn insert(
        &mut self,
        prompt: &[u16],
        blocks: &[usize],
        flavor: Flavor,
        snapshot: Arc<Snapshot>,
        tick: u64,
        fork_tail: &mut dyn FnMut(usize) -> Option<usize>,
    ) -> InsertReport {
        let bs = self.block_size;
        let mut report = InsertReport::default();
        let full_chunks = prompt.len() / bs;
        let mut parent: Option<usize> = None;
        for k in 0..full_chunks {
            let Some(chunk) = prompt.get(k * bs..(k + 1) * bs) else {
                return report;
            };
            let existing = self
                .children_of(parent, flavor)
                .iter()
                .copied()
                .find(|&id| self.node(id).is_some_and(|n| n.chunk == chunk));
            match existing {
                Some(id) => {
                    if let Some(n) = self.node_mut(id) {
                        n.last_used = tick;
                        n.snapshot = Arc::clone(&snapshot);
                    }
                    parent = Some(id);
                }
                None => {
                    let Some(&block) = blocks.get(k) else {
                        return report;
                    };
                    let stamp = self.next_stamp;
                    self.next_stamp += 1;
                    let id = self.alloc_node(Node {
                        flavor,
                        chunk: chunk.to_vec(),
                        block,
                        parent,
                        children: Vec::new(),
                        snapshot: Arc::clone(&snapshot),
                        last_used: tick,
                        stamp,
                    });
                    report.newly_shared.push(block);
                    report.new_nodes += 1;
                    parent = Some(id);
                }
            }
        }
        let tail = prompt.get(full_chunks * bs..).unwrap_or(&[]);
        if !tail.is_empty() {
            let existing = self
                .children_of(parent, flavor)
                .iter()
                .copied()
                .find(|&id| self.node(id).is_some_and(|n| n.chunk == tail));
            match existing {
                Some(id) => {
                    if let Some(n) = self.node_mut(id) {
                        n.last_used = tick;
                        n.snapshot = Arc::clone(&snapshot);
                    }
                }
                None => {
                    let Some(&src) = blocks.get(full_chunks) else {
                        return report;
                    };
                    match fork_tail(src) {
                        Some(copy) => {
                            let stamp = self.next_stamp;
                            self.next_stamp += 1;
                            self.alloc_node(Node {
                                flavor,
                                chunk: tail.to_vec(),
                                block: copy,
                                parent,
                                children: Vec::new(),
                                snapshot: Arc::clone(&snapshot),
                                last_used: tick,
                                stamp,
                            });
                            report.new_nodes += 1;
                        }
                        None => report.tail_fork_failed = true,
                    }
                }
            }
        }
        report
    }

    /// Evicts the least-recently-used leaf whose block passes `evictable`
    /// (the engine passes "allocator refcount == 1", i.e. only the cache
    /// still holds it), returning its block for the caller to release.
    /// Recency ties break by creation stamp, then slot index — fully
    /// deterministic. Returns `None` when nothing qualifies.
    pub fn evict_lru(&mut self, evictable: &dyn Fn(usize) -> bool) -> Option<usize> {
        let mut best: Option<(u64, u64, usize)> = None;
        for (id, slot) in self.slots.iter().enumerate() {
            let Some(n) = slot else { continue };
            if !n.children.is_empty() || !evictable(n.block) {
                continue;
            }
            let key = (n.last_used, n.stamp, id);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        let (_, _, id) = best?;
        self.remove_node(id)
    }

    fn remove_node(&mut self, id: usize) -> Option<usize> {
        let node = self.slots.get_mut(id)?.take()?;
        self.node_count -= 1;
        self.free_slots.push(id);
        match node.parent {
            Some(p) => {
                if let Some(pn) = self.node_mut(p) {
                    pn.children.retain(|&c| c != id);
                }
            }
            None => {
                if let Some(r) = self.roots.get_mut(&node.flavor) {
                    r.retain(|&c| c != id);
                }
            }
        }
        Some(node.block)
    }

    /// Drops every node, returning all cached block ids (arena order) for
    /// the caller to release.
    pub fn clear(&mut self) -> Vec<usize> {
        let blocks = self.blocks();
        self.slots.clear();
        self.free_slots.clear();
        self.roots.clear();
        self.node_count = 0;
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atom_nn::Fp32KvCache;

    fn snap(tokens: usize) -> Arc<Snapshot> {
        Arc::new(Snapshot::new(Box::new(Fp32KvCache::new(1, 2)), tokens))
    }

    fn prompt(n: usize, offset: u16) -> Vec<u16> {
        (0..n as u16).map(|t| t + offset).collect()
    }

    #[test]
    fn insert_then_match_full_and_partial() {
        let mut idx = RadixIndex::new(4);
        let p = prompt(10, 0); // 2 full chunks + 2-token tail
        let report =
            idx.insert(&p, &[10, 11, 12], FLAVOR_NORMAL, snap(10), 0, &mut |src| {
                assert_eq!(src, 12);
                Some(20)
            });
        assert_eq!(report.newly_shared, vec![10, 11]);
        assert_eq!(report.new_nodes, 3);
        assert_eq!(idx.len(), 3);
        // Exact-prompt query capped at len-1: tail (8..10) would reach 10 > 9.
        let hit = idx.match_prefix(&p, FLAVOR_NORMAL, p.len() - 1, 1);
        assert_eq!(hit.tokens, 8);
        assert_eq!(hit.blocks, vec![10, 11]);
        assert!(hit.snapshot.is_some());
        // A longer query with the same prefix takes the tail too.
        let longer: Vec<u16> = p.iter().copied().chain([99, 98]).collect();
        let hit = idx.match_prefix(&longer, FLAVOR_NORMAL, longer.len() - 1, 2);
        assert_eq!(hit.tokens, 10);
        assert_eq!(hit.blocks, vec![10, 11, 20]);
    }

    #[test]
    fn miss_on_divergent_content_and_flavor() {
        let mut idx = RadixIndex::new(4);
        let p = prompt(8, 0);
        idx.insert(&p, &[1, 2], FLAVOR_NORMAL, snap(8), 0, &mut |_| None);
        let divergent = prompt(8, 1);
        assert_eq!(idx.match_prefix(&divergent, FLAVOR_NORMAL, 7, 1).tokens, 0);
        assert_eq!(idx.match_prefix(&p, FLAVOR_DEGRADED, 7, 1).tokens, 0, "flavors are isolated");
        assert_eq!(idx.match_prefix(&p, FLAVOR_NORMAL, 7, 1).tokens, 4);
    }

    #[test]
    fn dedup_refreshes_instead_of_duplicating() {
        let mut idx = RadixIndex::new(4);
        let p = prompt(8, 0);
        idx.insert(&p, &[1, 2], FLAVOR_NORMAL, snap(8), 0, &mut |_| None);
        let report = idx.insert(&p, &[7, 8], FLAVOR_NORMAL, snap(8), 5, &mut |_| None);
        assert_eq!(report.new_nodes, 0);
        assert!(report.newly_shared.is_empty());
        assert_eq!(idx.len(), 2);
        // Recency was refreshed: evicting now picks slot order among equal
        // ticks, but both nodes carry last_used = 5.
        let evicted = idx.evict_lru(&|_| true);
        assert!(evicted.is_some());
    }

    #[test]
    fn eviction_is_lru_and_leaf_only() {
        let mut idx = RadixIndex::new(4);
        let a = prompt(8, 0);
        let b = prompt(8, 50);
        idx.insert(&a, &[1, 2], FLAVOR_NORMAL, snap(8), 0, &mut |_| None);
        idx.insert(&b, &[3, 4], FLAVOR_NORMAL, snap(8), 1, &mut |_| None);
        // Touch `a` (full-length cap so both its chunks bump) so `b`
        // becomes least recent.
        idx.match_prefix(&a, FLAVOR_NORMAL, 8, 2);
        // The leaves are blocks 2 (a, tick 2) and 4 (b, tick 1): LRU = 4.
        assert_eq!(idx.evict_lru(&|_| true), Some(4));
        // Now b's first chunk (block 3) is a leaf with tick 1.
        assert_eq!(idx.evict_lru(&|_| true), Some(3));
        assert_eq!(idx.evict_lru(&|_| true), Some(2));
        assert_eq!(idx.evict_lru(&|_| true), Some(1));
        assert_eq!(idx.evict_lru(&|_| true), None);
        assert!(idx.is_empty());
    }

    #[test]
    fn eviction_respects_the_block_predicate() {
        let mut idx = RadixIndex::new(4);
        idx.insert(&prompt(4, 0), &[1], FLAVOR_NORMAL, snap(4), 0, &mut |_| None);
        idx.insert(&prompt(4, 9), &[2], FLAVOR_NORMAL, snap(4), 1, &mut |_| None);
        assert_eq!(idx.evict_lru(&|b| b != 1), Some(2), "pinned block 1 is skipped");
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn failed_tail_fork_keeps_full_blocks() {
        let mut idx = RadixIndex::new(4);
        let p = prompt(6, 0);
        let report = idx.insert(&p, &[1, 2], FLAVOR_NORMAL, snap(6), 0, &mut |_| None);
        assert!(report.tail_fork_failed);
        assert_eq!(report.newly_shared, vec![1]);
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn clear_returns_every_block() {
        let mut idx = RadixIndex::new(4);
        idx.insert(&prompt(10, 0), &[1, 2, 3], FLAVOR_NORMAL, snap(10), 0, &mut |_| Some(9));
        let mut blocks = idx.clear();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![1, 2, 9]);
        assert!(idx.is_empty());
        assert!(idx.blocks().is_empty());
    }

    #[test]
    fn longest_partial_sibling_wins() {
        let mut idx = RadixIndex::new(4);
        // Two partial leaves under the root: [0,1] and [0,1,2].
        idx.insert(&[0, 1], &[1], FLAVOR_NORMAL, snap(2), 0, &mut |_| Some(11));
        idx.insert(&[0, 1, 2], &[2], FLAVOR_NORMAL, snap(3), 1, &mut |_| Some(12));
        let hit = idx.match_prefix(&[0, 1, 2, 3, 4], FLAVOR_NORMAL, 4, 2);
        assert_eq!(hit.tokens, 3);
        assert_eq!(hit.blocks, vec![12]);
        // Under a tighter cap only the shorter leaf fits.
        let hit = idx.match_prefix(&[0, 1, 2, 3, 4], FLAVOR_NORMAL, 2, 3);
        assert_eq!(hit.tokens, 2);
        assert_eq!(hit.blocks, vec![11]);
    }
}
