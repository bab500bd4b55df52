//! Paged KV-cache block allocator (PagedAttention-style) with refcounted
//! copy-on-write block sharing.
//!
//! GPU memory for the KV cache is carved into fixed-size blocks of
//! `block_size` token slots; each sequence owns a block table mapping its
//! logical positions to physical blocks. Paging eliminates the reservation
//! fragmentation of contiguous allocation and is what lets the serving
//! stack push batch sizes to the memory limit (paper §4.5 / Fig. 10c).
//!
//! On top of plain paging, blocks carry a reference count so the radix
//! prefix cache (`atom-prefix`) can share one physical block run between
//! the cache and any number of sequences whose prompts start with the same
//! tokens (the vLLM prefix-caching lineage). The sharing rules are:
//!
//! - a block with `refs == 1` is **owned** (exactly one holder may write);
//! - a block with `refs > 1` is **shared** and immutable; a sequence that
//!   needs to append into a shared *partial* tail block first forks a
//!   private copy inside [`PagedAllocator::grow`] (copy-on-write), which
//!   replaces the tail in its table and drops one reference on the donor;
//! - a *full* shared block is never forked — appends go to fresh blocks,
//!   so full prefix blocks are shared at zero marginal cost;
//! - blocks return to the free list exactly when their count reaches zero,
//!   so conservation is `free + referenced == total` at every step.
//!
//! The allocator is pure bookkeeping: actual KV payloads live in the
//! engine's per-sequence `KvStore` boxes and in the prefix cache's
//! snapshots, which is what keeps shared blocks INT4-quantized when the
//! donor ran (or was degraded to) the quantized KV store.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Sequence identity within the allocator.
pub type SeqId = usize;

/// A sequence's block table: physical block ids in logical order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockTable {
    blocks: Vec<usize>,
    tokens: usize,
}

impl BlockTable {
    /// Physical blocks backing this sequence.
    pub fn blocks(&self) -> &[usize] {
        &self.blocks
    }

    /// Number of tokens stored.
    pub fn tokens(&self) -> usize {
        self.tokens
    }
}

/// A resolved prefix-cache match: the physical blocks covering the first
/// `tokens` tokens of a prompt, ready to be attached to a new sequence via
/// [`PagedAllocator::attach_shared`].
///
/// An empty plan (`tokens == 0`) means "no reuse" and admission proceeds
/// exactly as it would without a prefix cache.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SharedPrefix {
    /// Physical blocks in logical order; `blocks.len()` must equal
    /// `blocks_for(tokens)`.
    pub blocks: Vec<usize>,
    /// Prompt tokens covered by `blocks` (the last block may be partial).
    pub tokens: usize,
}

impl SharedPrefix {
    /// Whether this plan shares anything at all.
    pub fn is_empty(&self) -> bool {
        self.tokens == 0
    }
}

/// Fixed-pool block allocator.
///
/// # Example
///
/// ```
/// use atom_serve::PagedAllocator;
///
/// let mut alloc = PagedAllocator::new(8, 16); // 8 blocks of 16 tokens
/// alloc.register(0);
/// assert!(alloc.grow(0, 20).is_ok()); // needs 2 blocks
/// assert_eq!(alloc.used_blocks(), 2);
/// alloc.release(0);
/// assert_eq!(alloc.used_blocks(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct PagedAllocator {
    block_size: usize,
    free: Vec<usize>,
    tables: BTreeMap<SeqId, BlockTable>,
    total_blocks: usize,
    /// Per-block reference count: 0 = free, 1 = owned, >1 = shared.
    refs: Vec<u32>,
    /// Sum of `table.blocks.len()` over all registered sequences — the
    /// block count an exclusive (non-sharing) allocator would be holding.
    table_refs: usize,
    peak_used: usize,
    /// High-water mark of `table_refs` (exclusive-equivalent demand).
    peak_logical: usize,
    /// Copy-on-write forks performed (in `grow` and `fork_copy`).
    cow_forks: usize,
    /// While armed, every growth that needs a fresh block fails (used by
    /// the deterministic fault injector to simulate transient memory
    /// stalls). Cleared explicitly by the caller.
    fault_armed: bool,
    /// Block allocations refused because a fault was armed.
    injected_failures: usize,
}

/// Error returned when the block pool is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfBlocks {
    /// Blocks requested beyond availability.
    pub short_by: usize,
}

impl std::fmt::Display for OutOfBlocks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "KV block pool exhausted (short by {} blocks)", self.short_by)
    }
}

impl std::error::Error for OutOfBlocks {}

impl PagedAllocator {
    /// Creates a pool of `total_blocks` blocks of `block_size` token slots.
    ///
    /// # Panics
    ///
    /// Panics if `block_size == 0`.
    pub fn new(total_blocks: usize, block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        PagedAllocator {
            block_size,
            free: (0..total_blocks).rev().collect(),
            tables: BTreeMap::new(),
            total_blocks,
            refs: vec![0; total_blocks],
            table_refs: 0,
            peak_used: 0,
            peak_logical: 0,
            cow_forks: 0,
            fault_armed: false,
            injected_failures: 0,
        }
    }

    /// Sizes a pool for a byte budget, given bytes per cached token.
    pub fn for_budget(budget_bytes: f64, bytes_per_token: f64, block_size: usize) -> Self {
        let tokens = (budget_bytes / bytes_per_token).max(0.0) as usize;
        Self::new(tokens / block_size, block_size)
    }

    /// Tokens per block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Total pool size in blocks.
    pub fn total_blocks(&self) -> usize {
        self.total_blocks
    }

    /// Currently allocated blocks.
    pub fn used_blocks(&self) -> usize {
        self.total_blocks - self.free.len()
    }

    /// High-water mark of allocated blocks.
    pub fn peak_used(&self) -> usize {
        self.peak_used
    }

    /// High-water mark of the *logical* (exclusive-equivalent) block
    /// demand: the sum of every sequence's table length, counting a block
    /// once per sequence that maps it. The gap between `peak_logical` and
    /// [`Self::peak_used`] is the physical footprint saved by sharing.
    pub fn peak_logical(&self) -> usize {
        self.peak_logical
    }

    /// Free blocks remaining.
    pub fn free_blocks(&self) -> usize {
        self.free.len()
    }

    /// Reference count of a physical block (0 = free or out of range).
    pub fn refcount(&self, block: usize) -> u32 {
        self.refs.get(block).copied().unwrap_or(0)
    }

    /// Number of blocks currently shared (refcount > 1).
    pub fn shared_blocks(&self) -> usize {
        self.refs.iter().filter(|&&r| r > 1).count()
    }

    /// Sum of all block reference counts.
    pub fn total_refs(&self) -> u64 {
        self.refs.iter().map(|&r| u64::from(r)).sum()
    }

    /// Current sum of table lengths (references held by sequences; the
    /// remainder of [`Self::total_refs`] is held by the prefix cache and
    /// transient pins).
    pub fn table_refs(&self) -> usize {
        self.table_refs
    }

    /// Copy-on-write forks performed so far.
    pub fn cow_forks(&self) -> usize {
        self.cow_forks
    }

    /// Registers an empty sequence.
    ///
    /// # Panics
    ///
    /// Panics if the id is already registered.
    pub fn register(&mut self, seq: SeqId) {
        let prev = self.tables.insert(seq, BlockTable::default());
        assert!(prev.is_none(), "sequence {seq} already registered");
    }

    /// Whether a sequence is registered.
    pub fn contains(&self, seq: SeqId) -> bool {
        self.tables.contains_key(&seq)
    }

    /// The block table of a sequence.
    pub fn table(&self, seq: SeqId) -> Option<&BlockTable> {
        self.tables.get(&seq)
    }

    /// Blocks needed to store `tokens` tokens.
    pub fn blocks_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.block_size)
    }

    /// Arms the fault injector: until [`Self::disarm_fault`], every growth
    /// that needs a fresh block fails with [`OutOfBlocks`].
    pub fn arm_fault(&mut self) {
        self.fault_armed = true;
    }

    /// Clears an armed fault.
    pub fn disarm_fault(&mut self) {
        self.fault_armed = false;
    }

    /// Whether an injected allocation fault is currently armed.
    pub fn fault_armed(&self) -> bool {
        self.fault_armed
    }

    /// Block allocations refused by the fault injector so far.
    pub fn injected_failures(&self) -> usize {
        self.injected_failures
    }

    /// Fresh blocks an admission of `total_tokens` tokens would consume
    /// given an attached shared prefix (tail fork included). Used by the
    /// scheduler's watermark check before committing to an admission.
    pub fn fresh_blocks_for(&self, total_tokens: usize, shared: &SharedPrefix) -> usize {
        let target = self.blocks_for(total_tokens);
        let have = shared.blocks.len();
        let fork = total_tokens > shared.tokens && !shared.tokens.is_multiple_of(self.block_size);
        target.saturating_sub(have) + usize::from(fork)
    }

    /// Extends a sequence by `new_tokens`, allocating blocks as needed and
    /// copy-on-write-forking a shared partial tail before writing into it.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfBlocks`] (allocating nothing) when the pool cannot
    /// cover the growth.
    ///
    /// Growing an unregistered sequence is a caller bug: it trips a debug
    /// assertion under test and fails as an allocation error (allocating
    /// nothing) in release builds.
    pub fn grow(&mut self, seq: SeqId, new_tokens: usize) -> Result<(), OutOfBlocks> {
        // The one lookup: `table` stays borrowed to the end, beside the
        // other fields (disjoint borrows), so it cannot go missing halfway.
        let Some(table) = self.tables.get_mut(&seq) else {
            debug_assert!(false, "sequence {seq} not registered");
            return Err(OutOfBlocks {
                short_by: self.blocks_for(new_tokens),
            });
        };
        let old_tail = table.blocks.last().copied();
        // The append must first fork the tail block when that block is
        // partial (so the append writes into it) and shared (so the write
        // would be visible to other holders).
        let fork_needed = new_tokens > 0
            && !table.tokens.is_multiple_of(self.block_size)
            && old_tail.is_some_and(|b| self.refs.get(b).is_some_and(|&r| r > 1));
        let target = (table.tokens + new_tokens).div_ceil(self.block_size);
        let needed = target.saturating_sub(table.blocks.len()) + usize::from(fork_needed);
        if needed > 0 && self.fault_armed {
            self.injected_failures += 1;
            return Err(OutOfBlocks { short_by: needed });
        }
        if needed > self.free.len() {
            return Err(OutOfBlocks {
                short_by: needed - self.free.len(),
            });
        }
        // `pop()` order: the tail of the free list lands in the table
        // newest-first. When a CoW fork is due, its replacement block is
        // detached first.
        let mut detached = self.free.split_off(self.free.len() - needed);
        detached.reverse();
        let mut detached = detached.into_iter();
        let replacement = if fork_needed { detached.next() } else { None };
        let fresh: Vec<usize> = detached.collect();
        if let (Some(nb), Some(old)) = (replacement, old_tail) {
            if let Some(r) = self.refs.get_mut(nb) {
                *r = 1;
            }
            // The donor's count stays ≥ 1: fork_needed required refs > 1.
            if let Some(r) = self.refs.get_mut(old) {
                *r = r.saturating_sub(1);
            }
            self.cow_forks += 1;
        }
        for &b in &fresh {
            if let Some(r) = self.refs.get_mut(b) {
                *r = 1;
            }
        }
        if let (Some(nb), Some(last)) = (replacement, table.blocks.last_mut()) {
            *last = nb;
        }
        self.table_refs += fresh.len();
        table.blocks.extend(fresh);
        table.tokens += new_tokens;
        self.peak_used = self.peak_used.max(self.total_blocks - self.free.len());
        self.peak_logical = self.peak_logical.max(self.table_refs);
        Ok(())
    }

    /// Seeds a freshly registered, still-empty sequence with a shared block
    /// run (a prefix-cache hit): every block gains one reference and the
    /// table starts at `shared.tokens` tokens. Returns `false` — attaching
    /// nothing — if the plan is inconsistent with the allocator state
    /// (caller bug; trips a debug assertion under test).
    pub fn attach_shared(&mut self, seq: SeqId, shared: &SharedPrefix) -> bool {
        let valid = shared.tokens > 0
            && shared.blocks.len() == self.blocks_for(shared.tokens)
            && self
                .tables
                .get(&seq)
                .is_some_and(|t| t.blocks.is_empty() && t.tokens == 0)
            && shared
                .blocks
                .iter()
                .all(|&b| self.refs.get(b).is_some_and(|&r| r > 0));
        if !valid {
            debug_assert!(false, "invalid shared-prefix attach for sequence {seq}");
            return false;
        }
        for &b in &shared.blocks {
            if let Some(r) = self.refs.get_mut(b) {
                *r += 1;
            }
        }
        if let Some(table) = self.tables.get_mut(&seq) {
            table.blocks = shared.blocks.clone();
            table.tokens = shared.tokens;
        }
        self.table_refs += shared.blocks.len();
        self.peak_logical = self.peak_logical.max(self.table_refs);
        true
    }

    /// Allocates a private copy of an allocated block, owned by the caller
    /// (refcount 1) and mapped by no sequence. The prefix cache uses this
    /// to snapshot a donor's *partial* tail block at insertion time without
    /// freezing the donor's own tail.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfBlocks`] when the pool is empty or a fault is armed.
    pub fn fork_copy(&mut self, src: usize) -> Result<usize, OutOfBlocks> {
        if self.refs.get(src).is_none_or(|&r| r == 0) {
            debug_assert!(false, "fork_copy of unallocated block {src}");
            return Err(OutOfBlocks { short_by: 1 });
        }
        if self.fault_armed {
            self.injected_failures += 1;
            return Err(OutOfBlocks { short_by: 1 });
        }
        let Some(nb) = self.free.pop() else {
            return Err(OutOfBlocks { short_by: 1 });
        };
        if let Some(r) = self.refs.get_mut(nb) {
            *r = 1;
        }
        self.cow_forks += 1;
        self.peak_used = self.peak_used.max(self.total_blocks - self.free.len());
        Ok(nb)
    }

    /// Adds one reference to an allocated block (prefix-cache retention or
    /// a transient admission pin). Returns `false` — a caller bug that
    /// trips a debug assertion under test — if the block is free.
    pub fn retain_block(&mut self, block: usize) -> bool {
        match self.refs.get_mut(block) {
            Some(r) if *r > 0 => {
                *r += 1;
                true
            }
            _ => {
                debug_assert!(false, "retain of unallocated block {block}");
                false
            }
        }
    }

    /// Drops one reference from an allocated block, returning it to the
    /// free list when the count reaches zero. Releasing a free block is a
    /// caller bug (debug assertion under test, ignored in release builds).
    pub fn release_block(&mut self, block: usize) {
        match self.refs.get_mut(block) {
            Some(r) if *r > 0 => {
                *r -= 1;
                if *r == 0 {
                    self.free.push(block);
                }
            }
            _ => debug_assert!(false, "release of unallocated block {block}"),
        }
    }

    /// Releases a sequence, dropping one reference per mapped block (in
    /// table order, so free-list order stays deterministic). Blocks still
    /// referenced elsewhere — by the prefix cache or by sequences sharing
    /// the prefix — stay allocated.
    ///
    /// Unknown ids are ignored (releasing twice is harmless).
    pub fn release(&mut self, seq: SeqId) {
        if let Some(table) = self.tables.remove(&seq) {
            self.table_refs -= table.blocks.len();
            for &b in &table.blocks {
                self.release_block(b);
            }
        }
    }

    /// Verifies block conservation: `free + referenced == total`, free
    /// blocks carry no references, every table entry maps an allocated
    /// block, and no block is mapped by more tables than its refcount.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found (sequences are
    /// scanned in sorted id order, so the report is deterministic).
    pub fn leak_check(&self) -> Result<(), String> {
        let live = self.refs.iter().filter(|&&r| r > 0).count();
        if live + self.free.len() != self.total_blocks {
            return Err(format!(
                "conservation broken: {live} referenced + {} free != {} total",
                self.free.len(),
                self.total_blocks
            ));
        }
        for &b in &self.free {
            if self.refs.get(b).copied().unwrap_or(1) != 0 {
                return Err(format!("free-list block {b} still referenced"));
            }
        }
        let mut mapped = vec![0u32; self.total_blocks];
        let mut table_refs = 0usize;
        // BTreeMap keys iterate in ascending sequence order already.
        let seqs: Vec<&SeqId> = self.tables.keys().collect();
        for seq in seqs {
            let Some(table) = self.tables.get(seq) else {
                continue;
            };
            if table.blocks.len() != self.blocks_for(table.tokens) {
                return Err(format!(
                    "sequence {seq}: {} blocks for {} tokens",
                    table.blocks.len(),
                    table.tokens
                ));
            }
            table_refs += table.blocks.len();
            for &b in &table.blocks {
                if self.refs.get(b).copied().unwrap_or(0) == 0 {
                    return Err(format!("sequence {seq} maps free block {b}"));
                }
                if let Some(m) = mapped.get_mut(b) {
                    *m += 1;
                }
            }
        }
        if table_refs != self.table_refs {
            return Err(format!(
                "table_refs drift: counted {table_refs}, cached {}",
                self.table_refs
            ));
        }
        for (b, (&r, &m)) in self.refs.iter().zip(mapped.iter()).enumerate() {
            if m > r {
                return Err(format!("block {b} mapped by {m} tables but refcount is {r}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grow_and_release_cycle() {
        let mut a = PagedAllocator::new(4, 8);
        a.register(1);
        a.grow(1, 8).unwrap(); // exactly one block
        assert_eq!(a.used_blocks(), 1);
        a.grow(1, 1).unwrap(); // spills into a second block
        assert_eq!(a.used_blocks(), 2);
        assert_eq!(a.table(1).unwrap().tokens(), 9);
        a.release(1);
        assert_eq!(a.used_blocks(), 0);
        assert_eq!(a.free_blocks(), 4);
        a.leak_check().unwrap();
    }

    #[test]
    fn exhaustion_is_atomic() {
        let mut a = PagedAllocator::new(2, 4);
        a.register(1);
        a.register(2);
        a.grow(1, 4).unwrap();
        let err = a.grow(2, 9).unwrap_err(); // needs 3 blocks, 1 free
        assert_eq!(err.short_by, 2);
        // Nothing was allocated for seq 2.
        assert_eq!(a.table(2).unwrap().blocks().len(), 0);
        assert_eq!(a.used_blocks(), 1);
    }

    #[test]
    fn blocks_are_reused_after_release() {
        let mut a = PagedAllocator::new(2, 4);
        a.register(1);
        a.grow(1, 8).unwrap();
        let blocks_1: Vec<usize> = a.table(1).unwrap().blocks().to_vec();
        a.release(1);
        a.register(2);
        a.grow(2, 8).unwrap();
        let mut blocks_2: Vec<usize> = a.table(2).unwrap().blocks().to_vec();
        blocks_2.sort_unstable();
        let mut sorted_1 = blocks_1;
        sorted_1.sort_unstable();
        assert_eq!(sorted_1, blocks_2);
    }

    #[test]
    fn for_budget_sizing() {
        // 1 MiB budget at 1 KiB per token, 16-token blocks = 64 blocks.
        let a = PagedAllocator::for_budget(1_048_576.0, 1024.0, 16);
        assert_eq!(a.total_blocks(), 64);
    }

    #[test]
    fn peak_tracking() {
        let mut a = PagedAllocator::new(4, 4);
        a.register(1);
        a.grow(1, 16).unwrap();
        a.release(1);
        assert_eq!(a.used_blocks(), 0);
        assert_eq!(a.peak_used(), 4);
        assert_eq!(a.peak_logical(), 4);
    }

    #[test]
    fn armed_fault_refuses_fresh_blocks_only() {
        let mut a = PagedAllocator::new(4, 4);
        a.register(1);
        a.grow(1, 3).unwrap(); // one block, one slot spare
        a.arm_fault();
        a.grow(1, 1).expect("in-block growth survives the fault");
        assert!(a.grow(1, 1).is_err(), "fresh-block growth is refused");
        assert_eq!(a.injected_failures(), 1);
        a.disarm_fault();
        a.grow(1, 1).unwrap();
        assert_eq!(a.used_blocks(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn double_register_panics() {
        let mut a = PagedAllocator::new(1, 1);
        a.register(0);
        a.register(0);
    }

    #[test]
    fn attach_shared_then_grow_forks_partial_tail() {
        let mut a = PagedAllocator::new(8, 8);
        a.register(1);
        a.grow(1, 20).unwrap(); // 3 blocks, tail holds 4 tokens
        let donor: Vec<usize> = a.table(1).unwrap().blocks().to_vec();
        let plan = SharedPrefix { blocks: donor.clone(), tokens: 20 };
        a.register(2);
        assert!(a.attach_shared(2, &plan));
        for &b in &donor {
            assert_eq!(a.refcount(b), 2);
        }
        assert_eq!(a.used_blocks(), 3, "attaching allocates nothing");
        assert_eq!(a.shared_blocks(), 3);
        // Consumer appends: the shared partial tail must be forked, plus one
        // fresh block for the spill (20 + 5 = 25 tokens -> 4 blocks).
        assert_eq!(a.fresh_blocks_for(25, &plan), 2);
        a.grow(2, 5).unwrap();
        assert_eq!(a.cow_forks(), 1);
        assert_eq!(a.used_blocks(), 5);
        let consumer: Vec<usize> = a.table(2).unwrap().blocks().to_vec();
        assert_eq!(consumer.len(), 4);
        assert_eq!(&consumer[..2], &donor[..2], "full blocks stay shared");
        assert_ne!(consumer[2], donor[2], "partial tail was forked");
        assert_eq!(a.refcount(donor[2]), 1, "donor got its tail back");
        a.leak_check().unwrap();
        // Releasing the donor keeps the still-shared full blocks allocated.
        a.release(1);
        assert_eq!(a.refcount(donor[0]), 1);
        assert_eq!(a.refcount(donor[2]), 0, "unshared tail was freed");
        a.release(2);
        assert_eq!(a.used_blocks(), 0);
        a.leak_check().unwrap();
    }

    #[test]
    fn block_aligned_prefix_shares_without_fork() {
        let mut a = PagedAllocator::new(8, 8);
        a.register(1);
        a.grow(1, 16).unwrap(); // exactly 2 full blocks
        let donor: Vec<usize> = a.table(1).unwrap().blocks().to_vec();
        let plan = SharedPrefix { blocks: donor.clone(), tokens: 16 };
        a.register(2);
        assert!(a.attach_shared(2, &plan));
        a.grow(2, 5).unwrap(); // spills straight into a fresh block
        assert_eq!(a.cow_forks(), 0);
        assert_eq!(a.used_blocks(), 3);
        a.leak_check().unwrap();
    }

    #[test]
    fn retain_and_release_block_cycle() {
        let mut a = PagedAllocator::new(2, 4);
        a.register(1);
        a.grow(1, 4).unwrap();
        let b = a.table(1).unwrap().blocks()[0];
        assert!(a.retain_block(b));
        a.release(1);
        assert_eq!(a.used_blocks(), 1, "cache reference keeps the block");
        assert_eq!(a.refcount(b), 1);
        a.release_block(b);
        assert_eq!(a.used_blocks(), 0);
        a.leak_check().unwrap();
    }

    #[test]
    fn fork_copy_allocates_owned_block() {
        let mut a = PagedAllocator::new(2, 8);
        a.register(1);
        a.grow(1, 5).unwrap();
        let src = a.table(1).unwrap().blocks()[0];
        let copy = a.fork_copy(src).unwrap();
        assert_ne!(copy, src);
        assert_eq!(a.refcount(copy), 1);
        assert_eq!(a.cow_forks(), 1);
        assert_eq!(a.used_blocks(), 2);
        a.release_block(copy);
        a.release(1);
        a.leak_check().unwrap();
    }

    #[test]
    fn fork_copy_respects_faults_and_exhaustion() {
        let mut a = PagedAllocator::new(1, 8);
        a.register(1);
        a.grow(1, 3).unwrap();
        let src = a.table(1).unwrap().blocks()[0];
        assert_eq!(a.fork_copy(src), Err(OutOfBlocks { short_by: 1 }));
        a.release(1);
        a.register(2);
        a.arm_fault();
        a.grow(2, 3).unwrap_err();
        assert_eq!(a.injected_failures(), 1);
    }

    #[test]
    fn shared_utilization_counts_physical_blocks_once() {
        let mut a = PagedAllocator::new(4, 8);
        a.register(1);
        a.grow(1, 8).unwrap();
        let plan = SharedPrefix {
            blocks: a.table(1).unwrap().blocks().to_vec(),
            tokens: 8,
        };
        a.register(2);
        assert!(a.attach_shared(2, &plan));
        // One physical block, two tables.
        assert_eq!(a.used_blocks(), 1);
        assert_eq!(a.table_refs(), 2);
        assert_eq!(a.peak_logical(), 2);
        assert_eq!(a.peak_used(), 1);
    }

    #[test]
    fn attach_shared_rejects_inconsistent_plans() {
        // Release builds refuse bad plans instead of corrupting counts;
        // debug builds would assert, so exercise the release-path contract
        // only where it cannot trip (index out of pool range is checked
        // before any mutation).
        let mut a = PagedAllocator::new(2, 4);
        a.register(1);
        let bad = SharedPrefix { blocks: vec![0], tokens: 4 };
        // Block 0 is free: the plan is invalid. (debug_assert fires under
        // `cargo test` only via std::panic::catch_unwind.)
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.attach_shared(1, &bad)
        }));
        // Err means the debug assertion tripped; nothing was mutated.
        if let Ok(attached) = result {
            assert!(!attached);
        }
        assert_eq!(a.used_blocks(), 0);
    }
}
