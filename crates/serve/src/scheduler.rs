//! Continuous batching scheduler (Orca-style iteration-level scheduling,
//! with Sarathi-Serve's chunked prefill).
//!
//! Requests are admitted First-Come-First-Served up to a batch cap and the
//! KV block pool's capacity; whenever a request finishes decoding, the
//! on-the-fly batch is refilled from the queue at the *next iteration*
//! boundary — the continuous batching of §5.3.2. Each iteration is one
//! forward (`ContinuousBatcher::plan`): a row for every decoding member,
//! then prompt chunks up to a per-step token budget, so a long prompt
//! prefills over several iterations and stalls no decoder for longer than
//! one chunk.
//!
//! The batcher holds every live request's one record, a `Seq`: a waiting
//! request sits in the FCFS queue, an admitted one in the batch, and which
//! of the two holds it is its whole scheduling state. A batch member is
//! prefilling until its whole prompt is in its KV store, decoding after.

use crate::engine::RequestStats;
use crate::error::{RejectReason, ServeError};
use crate::paged::{PagedAllocator, SharedPrefix};
use atom_nn::{KvStore, SeqRows};
use atom_prefix::{Flavor, FLAVOR_NORMAL};
use std::collections::VecDeque;

/// Outcome of a single head-of-queue admission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AdmitOutcome {
    /// The head request moved to the end of the batch.
    Admitted,
    /// The head request would fit the batch but the pool is short of
    /// blocks; freeing `short_by` blocks (e.g. by evicting cached prefix
    /// runs) and retrying may succeed this same step.
    NeedBlocks {
        /// Additional free blocks required, watermark included.
        short_by: usize,
    },
    /// Nothing can be admitted right now: the queue is empty, the batch is
    /// at its cap, or an injected allocation fault is armed.
    Blocked,
}

/// One request from submission to its terminal state.
#[derive(Debug)]
pub(crate) struct Seq {
    /// Request id (submission order).
    pub(crate) id: usize,
    /// Kept for the request's whole life: a preempted sequence prefills
    /// again from it.
    pub(crate) prompt: Vec<u16>,
    /// Tokens to generate.
    pub(crate) max_new: usize,
    pub(crate) stats: RequestStats,
    /// KV store from admission until the request ends or is preempted.
    pub(crate) kv: Option<Box<dyn KvStore>>,
    /// Tokens generated since the latest admission; the last one is what
    /// the next decode row feeds.
    pub(crate) generated: Vec<u16>,
    /// The KV flavor the latest admission chose.
    pub(crate) flavor: Flavor,
    /// Prompt tokens in its KV store: the latest admission's prefix hit,
    /// then every chunk forwarded since.
    pub(crate) fed: usize,
    /// Rows the step's forward feeds it, set by
    /// [`ContinuousBatcher::plan`]: a prompt chunk, one decode row, or none
    /// (a decoder that found no block for its next token stalls).
    pub(crate) feed: usize,
}

impl Seq {
    /// A queued request with no KV state yet.
    pub(crate) fn new(id: usize, prompt: Vec<u16>, max_new: usize, stats: RequestStats) -> Self {
        Seq {
            id,
            prompt,
            max_new,
            stats,
            kv: None,
            generated: Vec::new(),
            flavor: FLAVOR_NORMAL,
            fed: 0,
            feed: 0,
        }
    }

    /// Whether part of its prompt is not in its KV store yet.
    pub(crate) fn prefilling(&self) -> bool {
        self.fed < self.prompt.len()
    }

    /// Whether it has generated every token it asked for.
    pub(crate) fn done(&self) -> bool {
        self.generated.len() >= self.max_new
    }

    /// This sequence's part of the step's forward — its planned prompt
    /// chunk, or one decode row from its latest token — or `None` while it
    /// holds no KV store.
    pub(crate) fn rows(&mut self) -> Option<SeqRows<'_>> {
        let tokens = if self.prefilling() {
            self.prompt.get(self.fed..self.fed + self.feed).unwrap_or_default()
        } else {
            self.generated.last().map(std::slice::from_ref).unwrap_or_default()
        };
        let kv = self.kv.as_deref_mut()?;
        Some(SeqRows { tokens, kv })
    }

    /// Commits the step's forward, `token` being the argmax of its last
    /// row: a chunk moves `fed` on, and once the whole prompt is in, the
    /// token is generated — the first one stamps `first_token_step`.
    pub(crate) fn commit(&mut self, token: u16, step: usize) {
        if self.prefilling() {
            self.fed += self.feed;
        }
        if !self.prefilling() {
            self.generated.push(token);
            self.stats.first_token_step.get_or_insert(step);
        }
    }
}

/// Iteration-level FCFS continuous batcher with paged-KV admission control.
#[derive(Debug)]
pub struct ContinuousBatcher {
    queue: VecDeque<Seq>,
    batch: Vec<Seq>,
    max_batch: usize,
    allocator: PagedAllocator,
    preemptions: usize,
    queue_limit: Option<usize>,
}

impl ContinuousBatcher {
    /// Creates a batcher with a batch-size cap and a KV block pool.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] if `max_batch == 0`.
    pub(crate) fn new(max_batch: usize, allocator: PagedAllocator) -> Result<Self, ServeError> {
        if max_batch == 0 {
            return Err(ServeError::InvalidConfig("max_batch must be positive"));
        }
        Ok(ContinuousBatcher {
            queue: VecDeque::new(),
            batch: Vec::new(),
            max_batch,
            allocator,
            preemptions: 0,
            queue_limit: None,
        })
    }

    /// Caps the waiting queue: submissions past `limit` are shed with
    /// [`RejectReason::QueueFull`]. `None` disables shedding.
    pub(crate) fn set_queue_limit(&mut self, limit: Option<usize>) {
        self.queue_limit = limit;
    }

    /// Whether a request of this shape can be served at all, whatever the
    /// load: the one copy of the outside-input check, which the engine's
    /// submission and the gateway's offer path both go through.
    ///
    /// # Errors
    ///
    /// - [`RejectReason::EmptyPrompt`] / [`RejectReason::ZeroDecodeTokens`]
    ///   for degenerate requests;
    /// - [`RejectReason::ExceedsKvPool`] if the request's final context
    ///   would not fit the pool even running alone — admitting it would
    ///   eventually stall the scheduler forever, so it is refused here.
    pub fn validate(&self, prefill_tokens: usize, decode_tokens: usize) -> Result<(), RejectReason> {
        if prefill_tokens == 0 {
            return Err(RejectReason::EmptyPrompt);
        }
        if decode_tokens == 0 {
            return Err(RejectReason::ZeroDecodeTokens);
        }
        let needed = self.allocator.blocks_for(prefill_tokens + decode_tokens);
        if needed > self.allocator.total_blocks() {
            return Err(RejectReason::ExceedsKvPool {
                needed_blocks: needed,
                total_blocks: self.allocator.total_blocks(),
            });
        }
        Ok(())
    }

    /// Enqueues a request (FCFS order) after [`Self::validate`].
    ///
    /// # Errors
    ///
    /// Whatever [`Self::validate`] returns, then
    /// [`RejectReason::QueueFull`] when the shed watermark is reached.
    pub(crate) fn submit(&mut self, seq: Seq) -> Result<(), RejectReason> {
        self.validate(seq.prompt.len(), seq.max_new)?;
        if let Some(limit) = self.queue_limit {
            if self.queue.len() >= limit {
                return Err(RejectReason::QueueFull {
                    depth: self.queue.len(),
                    limit,
                });
            }
        }
        self.queue.push_back(seq);
        Ok(())
    }

    /// Takes a request out wherever it lives (queue or batch), releasing
    /// any KV blocks it holds. `None` if the id is not live.
    pub(crate) fn remove(&mut self, id: usize) -> Option<Seq> {
        let seq = match self.queue.iter().position(|s| s.id == id) {
            Some(pos) => self.queue.remove(pos),
            None => {
                let pos = self.batch.iter().position(|s| s.id == id)?;
                Some(self.batch.remove(pos))
            }
        };
        self.allocator.release(id);
        seq
    }

    /// Number of queued (not yet admitted) requests.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Number of admitted requests in the batch.
    pub fn running(&self) -> usize {
        self.batch.len()
    }

    /// Whether all submitted work is complete.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.batch.is_empty()
    }

    /// The KV allocator (for memory introspection).
    pub fn allocator(&self) -> &PagedAllocator {
        &self.allocator
    }

    /// The KV allocator, for the engine's prefix cache and fault injection.
    pub(crate) fn allocator_mut(&mut self) -> &mut PagedAllocator {
        &mut self.allocator
    }

    /// The head of the FCFS queue: the next request admission considers.
    pub(crate) fn head(&self) -> Option<&Seq> {
        self.queue.front()
    }

    /// The ids of the live requests, queued or admitted, that satisfy
    /// `keep`, in id order.
    pub(crate) fn ids_where(&self, keep: impl Fn(&Seq) -> bool) -> Vec<usize> {
        let live = self.queue.iter().chain(&self.batch);
        let mut ids: Vec<usize> = live.filter(|s| keep(s)).map(|s| s.id).collect();
        ids.sort_unstable();
        ids
    }

    /// The batch's newest member: the request admission just appended.
    pub(crate) fn newest_mut(&mut self) -> Option<&mut Seq> {
        self.batch.last_mut()
    }

    /// An admitted request by id, beside the allocator that holds its
    /// blocks. `None` if the id is not in the batch.
    pub(crate) fn member_and_allocator(&mut self, id: usize) -> Option<(&Seq, &mut PagedAllocator)> {
        let seq = self.batch.iter().find(|s| s.id == id)?;
        Some((seq, &mut self.allocator))
    }

    /// The id of the batch member an injected fault aimed at `slot` hits
    /// (slots wrap around the batch); `None` while the batch is empty.
    pub(crate) fn victim(&self, slot: usize) -> Option<usize> {
        self.batch.get(slot % self.batch.len().max(1)).map(|s| s.id)
    }

    /// Attempts to admit exactly the head-of-queue request, optionally
    /// seeding it with a prefix-cache block run (`shared`; pass an empty
    /// plan for a plain admission). Admission is strictly FCFS: the caller
    /// stops at the first head that does not fit (head-of-line blocking is
    /// intentional — it is what the paper's serving setup does).
    ///
    /// Admission keeps a small block *watermark* free when other sequences
    /// are running (vLLM's policy): without it, a freshly preempted request
    /// would immediately re-admit into the very blocks its eviction freed
    /// and the batch would thrash forever.
    ///
    /// On [`AdmitOutcome::NeedBlocks`] nothing was mutated; the caller may
    /// free blocks (evict cached runs) and retry within the same step. The
    /// caller guarantees `shared.tokens` is below the head's prompt length
    /// and that the shared blocks are pinned (refcount ≥ 1) for the
    /// duration of the call.
    pub(crate) fn try_admit_head(&mut self, shared: &SharedPrefix) -> AdmitOutcome {
        if self.batch.len() >= self.max_batch || self.allocator.fault_armed() {
            return AdmitOutcome::Blocked;
        }
        let Some(front) = self.queue.front() else {
            return AdmitOutcome::Blocked;
        };
        // Admission reserves the prompt plus one decode block so a newly
        // admitted request can always make progress.
        let reserve = front.prompt.len() + 1;
        let id = front.id;
        debug_assert!(
            shared.is_empty() || shared.tokens < front.prompt.len(),
            "shared prefix must leave at least one prompt token to prefill"
        );
        let needed = self.allocator.fresh_blocks_for(reserve, shared);
        let watermark = if self.batch.is_empty() {
            0 // a lone request may take the whole pool
        } else {
            (self.allocator.total_blocks() / 100).max(1)
        };
        if self.allocator.free_blocks() < needed + watermark {
            return AdmitOutcome::NeedBlocks {
                short_by: needed + watermark - self.allocator.free_blocks(),
            };
        }
        if !self.allocator.contains(id) {
            self.allocator.register(id);
        }
        let attached = if shared.is_empty() {
            0
        } else if self.allocator.attach_shared(id, shared) {
            shared.tokens
        } else {
            0 // inconsistent plan (caller bug): fall back to a full prefill
        };
        if self.allocator.grow(id, reserve - attached).is_err() {
            // Unreachable given the headroom check; stay safe and leave the
            // request queued (any attached blocks are released with the
            // table so nothing leaks).
            self.allocator.release(id);
            return AdmitOutcome::Blocked;
        }
        let Some(seq) = self.queue.pop_front() else {
            return AdmitOutcome::Blocked; // unreachable: `front()` was Some above
        };
        self.batch.push(seq);
        AdmitOutcome::Admitted
    }

    /// Plans the step's one forward and returns its members, in batch
    /// order, each with its `feed` set. Every decoder past its admission
    /// reserve (which covers its first decode row) grows its table by one
    /// token, and stalls — feeds nothing — if no block is free; every other
    /// decoder feeds one row. The prefilling members then take prompt
    /// chunks, in batch order, from what is left of a budget of one block
    /// per batch slot (`block_size × max_batch` tokens).
    ///
    /// If no member got a row, every one of them is a stalled decoder (the
    /// budget always leaves room for a chunk), and the youngest is
    /// preempted: its blocks are released, its KV state and tokens dropped,
    /// its `stats.preemptions` counted, and it re-enters the head of the
    /// queue to prefill again, so the batch can never deadlock on memory —
    /// the same policy vLLM uses.
    ///
    /// Preemption is skipped while an injected allocation fault is armed
    /// (the stall is transient and eviction would only burn recompute) and
    /// when the stalled sequence is alone with an empty queue — a state
    /// [`Self::validate`] makes unreachable, since a lone admitted request
    /// always fits the pool.
    pub(crate) fn plan(&mut self) -> Vec<&mut Seq> {
        let mut budget = self.allocator.block_size() * self.max_batch;
        for seq in self.batch.iter_mut().filter(|s| !s.prefilling()) {
            let grown = seq.generated.len() < 2 || self.allocator.grow(seq.id, 1).is_ok();
            seq.feed = usize::from(grown);
            budget = budget.saturating_sub(seq.feed);
        }
        for seq in self.batch.iter_mut().filter(|s| s.prefilling()) {
            seq.feed = (seq.prompt.len() - seq.fed).min(budget);
            budget -= seq.feed;
        }
        let idle = self.batch.iter().all(|s| s.feed == 0);
        if idle && !self.allocator.fault_armed() {
            // Evicting it only helps if someone else can use the freed blocks.
            if self.batch.len() > 1 || !self.queue.is_empty() {
                if let Some(mut victim) = self.batch.pop() {
                    self.allocator.release(victim.id);
                    victim.kv = None;
                    victim.generated.clear();
                    victim.fed = 0;
                    victim.stats.preemptions += 1;
                    self.queue.push_front(victim);
                    self.preemptions += 1;
                }
            } else {
                // A lone stalled sequence with an empty queue would mean a
                // request larger than the pool slipped past validation.
                debug_assert!(
                    self.batch.is_empty(),
                    "request {:?} stalled alone with an empty queue",
                    self.batch.first().map(|s| s.id)
                );
            }
        }
        self.batch.iter_mut().filter(|s| s.feed > 0).collect()
    }

    /// Total recompute preemptions so far.
    pub fn preemptions(&self) -> usize {
        self.preemptions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(id: usize, prefill: usize, decode: usize) -> Seq {
        Seq::new(id, vec![0; prefill], decode, RequestStats::default())
    }

    fn batcher(max_batch: usize, blocks: usize) -> ContinuousBatcher {
        ContinuousBatcher::new(max_batch, PagedAllocator::new(blocks, 16)).expect("valid config")
    }

    /// Admits heads of the queue, no prefix attached, until one does not
    /// fit; returns how many were admitted.
    fn admit_heads(b: &mut ContinuousBatcher) -> usize {
        let mut admitted = 0;
        while b.try_admit_head(&SharedPrefix::default()) == AdmitOutcome::Admitted {
            admitted += 1;
        }
        admitted
    }

    fn ids(seqs: &[Seq]) -> Vec<usize> {
        seqs.iter().map(|s| s.id).collect()
    }

    /// One engine step with a model that computes nothing: plans the
    /// forward, commits token 0 for every member it feeds, and takes out
    /// (releasing their blocks) and returns the members that finished.
    fn step(b: &mut ContinuousBatcher, step: usize) -> Vec<Seq> {
        for seq in b.plan() {
            seq.commit(0, step);
        }
        let done = b.ids_where(Seq::done);
        done.into_iter().filter_map(|id| b.remove(id)).collect()
    }

    /// Runs `steps` steps (admitting in between when `refill`), stopping
    /// early at idle; returns the requests finished.
    fn drain(b: &mut ContinuousBatcher, steps: usize, refill: bool) -> usize {
        let mut finished = 0;
        for n in 0..steps {
            if b.is_idle() {
                break;
            }
            finished += step(b, n).len();
            if refill {
                admit_heads(b);
            }
        }
        finished
    }

    #[test]
    fn zero_max_batch_is_invalid_config() {
        let err = ContinuousBatcher::new(0, PagedAllocator::new(4, 16)).unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)));
    }

    #[test]
    fn degenerate_requests_rejected_at_submit() {
        let mut b = batcher(2, 4);
        assert_eq!(b.submit(seq(0, 0, 4)), Err(RejectReason::EmptyPrompt));
        assert_eq!(b.submit(seq(1, 4, 0)), Err(RejectReason::ZeroDecodeTokens));
        // 4 blocks of 16 = 64 slots; 60 + 10 = 70 tokens can never fit.
        assert_eq!(
            b.submit(seq(2, 60, 10)),
            Err(RejectReason::ExceedsKvPool {
                needed_blocks: 5,
                total_blocks: 4
            })
        );
        assert!(b.is_idle(), "rejected requests never enter the queue");
    }

    #[test]
    fn queue_limit_sheds_newest() {
        let mut b = batcher(1, 100);
        b.set_queue_limit(Some(2));
        b.submit(seq(0, 8, 1)).unwrap();
        b.submit(seq(1, 8, 1)).unwrap();
        let err = b.submit(seq(2, 8, 1)).unwrap_err();
        assert_eq!(err, RejectReason::QueueFull { depth: 2, limit: 2 });
        assert_eq!(b.queued(), 2);
    }

    #[test]
    fn cancel_releases_queue_and_active() {
        let mut b = batcher(2, 100);
        b.submit(seq(0, 16, 4)).unwrap();
        b.submit(seq(1, 16, 4)).unwrap();
        admit_heads(&mut b);
        b.submit(seq(2, 16, 4)).unwrap();
        assert!(b.remove(0).is_some(), "active request cancels");
        assert!(b.remove(2).is_some(), "queued request cancels");
        assert!(b.remove(0).is_none(), "double cancel reports unknown");
        assert!(b.remove(99).is_none(), "never-submitted id reports unknown");
        // Only request 1 remains; drain it.
        assert_eq!(drain(&mut b, 50, false), 1);
        assert_eq!(b.allocator().used_blocks(), 0);
    }

    #[test]
    fn armed_fault_pauses_without_preempting() {
        let mut b = batcher(2, 4);
        b.submit(seq(0, 30, 30)).unwrap(); // final context 60 -> 4 blocks
        admit_heads(&mut b);
        // Prefill, then decode past the reserve (31 tokens, 2 blocks) until
        // the next token needs a third block.
        for n in 0..3 {
            step(&mut b, n);
        }
        b.allocator.arm_fault();
        let before = b.batch[0].generated.len();
        assert!(step(&mut b, 3).is_empty());
        assert_eq!(b.preemptions(), 0, "no preemption under injected fault");
        assert_eq!(b.batch[0].generated.len(), before, "sequence stalled in place");
        assert_eq!(b.batch[0].feed, 0, "a stalled decoder feeds no row");
        b.allocator.disarm_fault();
        assert_eq!(drain(&mut b, 200, false), 1);
        assert!(b.is_idle(), "recovers after the fault clears");
    }

    #[test]
    fn fcfs_admission_and_refill() {
        let mut b = batcher(2, 100);
        for i in 0..4 {
            b.submit(seq(i, 16, 2)).unwrap();
        }
        assert_eq!(admit_heads(&mut b), 2);
        assert_eq!(b.running(), 2);
        assert_eq!(b.queued(), 2);

        assert!(step(&mut b, 1).is_empty()); // prefilled, first token each
        let finished = step(&mut b, 2); // decoded 2/2 -> both finish
        assert_eq!(ids(&finished), [0, 1]);

        // Refill admits the next two in order.
        assert_eq!(admit_heads(&mut b), 2);
        assert_eq!(ids(&b.batch), [2, 3]);
    }

    #[test]
    fn memory_limits_admission() {
        // 4 blocks of 16 = 64 token slots; each request needs 33 -> 3 blocks.
        let mut b = batcher(8, 4);
        b.submit(seq(0, 32, 4)).unwrap();
        b.submit(seq(1, 32, 4)).unwrap();
        assert_eq!(admit_heads(&mut b), 1, "only one request fits");
        assert_eq!(b.queued(), 1);
        // Finishing the first frees room for the second.
        assert_eq!(drain(&mut b, 4, false), 1);
        assert_eq!(admit_heads(&mut b), 1);
    }

    #[test]
    fn plan_feeds_every_member_once() {
        // The first step prefills both prompts whole and commits their first
        // tokens; the next feeds one decode row each.
        let mut b = batcher(2, 100);
        b.submit(seq(0, 8, 3)).unwrap();
        b.submit(seq(1, 8, 3)).unwrap();
        admit_heads(&mut b);
        step(&mut b, 7);
        for s in &b.batch {
            assert_eq!((s.generated.len(), s.feed, s.fed), (1, 8, 8), "request {}", s.id);
            assert_eq!(s.stats.first_token_step, Some(7));
        }
        step(&mut b, 8);
        assert!(b.batch.iter().all(|s| (s.generated.len(), s.feed) == (2, 1)));
        assert!(b.batch.iter().all(|s| s.stats.first_token_step == Some(7)));
    }

    #[test]
    fn long_prompt_prefills_in_chunks_behind_decode_rows() {
        // Budget 2 x 16 = 32 tokens a step. A decoder keeps its one row
        // every step while a 70-token prompt takes the rest in chunks of
        // 31, 31 and 8; only the step of its last chunk commits a token.
        let mut b = batcher(2, 100);
        b.submit(seq(0, 8, 10)).unwrap();
        admit_heads(&mut b);
        step(&mut b, 0);
        b.submit(seq(1, 70, 2)).unwrap();
        admit_heads(&mut b);
        for (n, chunk) in [(1, 31), (2, 31), (3, 8)] {
            let planned = b.plan();
            let fed: Vec<(usize, usize)> = planned.iter().map(|s| (s.id, s.feed)).collect();
            for seq in planned {
                seq.commit(0, n);
            }
            assert_eq!(fed, [(0, 1), (1, chunk)], "step {n}");
        }
        let long = b.batch.iter().find(|s| s.id == 1).unwrap();
        assert_eq!((long.fed, long.generated.len()), (70, 1));
        assert_eq!(long.stats.first_token_step, Some(3));
    }

    #[test]
    fn kv_blocks_released_on_finish() {
        let mut b = batcher(1, 10);
        b.submit(seq(0, 16, 1)).unwrap();
        admit_heads(&mut b);
        assert!(b.allocator().used_blocks() > 0);
        step(&mut b, 1);
        assert_eq!(b.allocator().used_blocks(), 0);
        assert!(b.is_idle());
    }

    #[test]
    fn decode_growth_can_stall_then_recover() {
        // Pool of 3 blocks (48 slots). The long request ends at context
        // 16 + 20 = 36 -> 3 blocks, so it can only finish after the short
        // one releases its block: it must stall and then recover.
        let mut b = batcher(2, 3);
        b.submit(seq(0, 16, 20)).unwrap(); // grows over time
        b.submit(seq(1, 14, 2)).unwrap(); // short
        admit_heads(&mut b);
        // Step until the short one finishes; the long one may stall but
        // must finish eventually.
        assert_eq!(drain(&mut b, 200, true), 2);
        assert!(b.is_idle(), "deadlocked");
    }

    #[test]
    fn full_pool_triggers_preemption_not_deadlock() {
        // Two long-running sequences that are co-admitted (2 blocks each,
        // pool of 6) but together outgrow the pool (4 blocks each at the
        // end): the scheduler must preempt one (recompute) instead of
        // deadlocking, and both must eventually finish.
        let mut b = batcher(2, 6); // 96 slots
        b.submit(seq(0, 16, 40)).unwrap(); // ends at context 56 -> 4 blocks
        b.submit(seq(1, 16, 40)).unwrap(); // same; together they need 8 blocks
        admit_heads(&mut b);
        let mut finished = Vec::new();
        for n in 0..500 {
            if b.is_idle() {
                break;
            }
            finished.extend(step(&mut b, n));
            admit_heads(&mut b);
        }
        assert!(b.is_idle(), "deadlocked");
        assert_eq!(finished.len(), 2);
        assert!(b.preemptions() >= 1, "expected at least one preemption");
        // The record itself counts its preemptions and keeps the tokens of
        // its last admission only.
        let counted: usize = finished.iter().map(|s| s.stats.preemptions).sum();
        assert_eq!(counted, b.preemptions());
        assert!(finished.iter().all(|s| s.generated.len() == 40));
    }

    #[test]
    fn try_admit_head_attaches_shared_prefix() {
        let mut b = batcher(2, 8); // 8 blocks of 16
        // Donor: 40-token prompt -> reserve 41 -> 3 blocks.
        b.submit(seq(0, 40, 2)).unwrap();
        assert_eq!(b.try_admit_head(&SharedPrefix::default()), AdmitOutcome::Admitted);
        let donor_blocks: Vec<usize> = b.allocator().table(0).unwrap().blocks()[..2].to_vec();
        // Pretend a prefix cache holds the donor's first 2 full blocks.
        for &blk in &donor_blocks {
            assert!(b.allocator.retain_block(blk));
        }
        // Consumer shares 32 of its 40 prompt tokens.
        b.submit(seq(1, 40, 2)).unwrap();
        let plan = SharedPrefix { blocks: donor_blocks.clone(), tokens: 32 };
        let used_before = b.allocator().used_blocks();
        assert_eq!(b.try_admit_head(&plan), AdmitOutcome::Admitted);
        // Reserve 41 = 3 blocks; 2 came shared, 1 fresh (no fork: the
        // shared run is block-aligned).
        assert_eq!(b.allocator().used_blocks(), used_before + 1);
        assert_eq!(&b.allocator().table(1).unwrap().blocks()[..2], &donor_blocks[..]);
        assert_eq!(b.allocator().table(1).unwrap().tokens(), 41);
        assert_eq!(b.allocator().shared_blocks(), 2);
        b.allocator().leak_check().unwrap();
    }

    #[test]
    fn try_admit_head_reports_shortfall_without_mutating() {
        let mut b = batcher(4, 3);
        b.submit(seq(0, 16, 2)).unwrap();
        assert_eq!(b.try_admit_head(&SharedPrefix::default()), AdmitOutcome::Admitted);
        // Head needs 3 blocks (33 tokens) + watermark 1, only 1 free.
        b.submit(seq(1, 32, 2)).unwrap();
        let used = b.allocator().used_blocks();
        match b.try_admit_head(&SharedPrefix::default()) {
            AdmitOutcome::NeedBlocks { short_by } => assert_eq!(short_by, 3),
            other => panic!("expected NeedBlocks, got {other:?}"),
        }
        assert_eq!(b.allocator().used_blocks(), used, "failed attempt allocates nothing");
        assert_eq!(b.queued(), 1);
        assert!(matches!(
            b.try_admit_head(&SharedPrefix::default()),
            AdmitOutcome::NeedBlocks { .. }
        ));
        // Empty queue or armed fault block outright.
        b.allocator.arm_fault();
        assert_eq!(b.try_admit_head(&SharedPrefix::default()), AdmitOutcome::Blocked);
    }
}
