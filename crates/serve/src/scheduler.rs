//! Continuous batching scheduler (Orca-style iteration-level scheduling).
//!
//! Requests are admitted First-Come-First-Served up to a batch cap and the
//! KV block pool's capacity; whenever a request finishes decoding, the
//! on-the-fly batch is refilled from the queue at the *next iteration*
//! boundary — the continuous batching of §5.3.2.

use crate::error::{RejectReason, ServeError};
use crate::paged::{PagedAllocator, SharedPrefix};
use atom_data::Request;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Outcome of a single head-of-queue admission attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmitOutcome {
    /// The head request was admitted (its prefill is now pending).
    Admitted(Request),
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

/// What happened to a request during one scheduler step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BatchEvent {
    /// Request was admitted and needs its prompt prefilled.
    Admitted(Request),
    /// Request finished and its memory was released.
    Finished(Request),
    /// Request was preempted under memory pressure (vLLM-style recompute
    /// preemption): its KV blocks were released and it re-entered the head
    /// of the queue; its prompt must be prefilled again and generation
    /// restarts.
    Preempted(Request),
}

/// One active sequence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActiveSeq {
    /// The underlying request.
    pub request: Request,
    /// Tokens decoded so far.
    pub decoded: usize,
    /// Whether the prompt has been prefilled.
    pub prefilled: bool,
}

impl ActiveSeq {
    /// Current context length (prompt + decoded tokens).
    pub fn context(&self) -> usize {
        self.request.prefill_tokens + self.decoded
    }

    /// Whether generation is complete.
    pub fn done(&self) -> bool {
        self.decoded >= self.request.decode_tokens
    }
}

/// Iteration-level FCFS continuous batcher with paged-KV admission control.
#[derive(Debug)]
pub struct ContinuousBatcher {
    queue: VecDeque<Request>,
    active: Vec<ActiveSeq>,
    max_batch: usize,
    allocator: PagedAllocator,
    finished: usize,
    advanced_ids: Vec<usize>,
    preemptions: usize,
    queue_limit: Option<usize>,
}

impl ContinuousBatcher {
    /// Creates a batcher with a batch-size cap and a KV block pool.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] if `max_batch == 0`.
    pub fn new(max_batch: usize, allocator: PagedAllocator) -> Result<Self, ServeError> {
        if max_batch == 0 {
            return Err(ServeError::InvalidConfig("max_batch must be positive"));
        }
        Ok(ContinuousBatcher {
            queue: VecDeque::new(),
            active: Vec::new(),
            max_batch,
            allocator,
            finished: 0,
            advanced_ids: Vec::new(),
            preemptions: 0,
            queue_limit: None,
        })
    }

    /// Caps the waiting queue: submissions past `limit` are shed with
    /// [`RejectReason::QueueFull`]. `None` disables shedding.
    pub fn set_queue_limit(&mut self, limit: Option<usize>) {
        self.queue_limit = limit;
    }

    /// Whether a request of this shape can be served at all, whatever the
    /// load: the one copy of the outside-input check, which [`Self::submit`],
    /// the engine and the gateway's offer path all go through.
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
    pub fn submit(&mut self, request: Request) -> Result<(), RejectReason> {
        self.validate(request.prefill_tokens, request.decode_tokens)?;
        if let Some(limit) = self.queue_limit {
            if self.queue.len() >= limit {
                return Err(RejectReason::QueueFull {
                    depth: self.queue.len(),
                    limit,
                });
            }
        }
        self.queue.push_back(request);
        Ok(())
    }

    /// Removes a request wherever it lives (queue or active batch),
    /// releasing any KV blocks it holds. Returns `false` if the id is
    /// unknown (already finished, never submitted, or previously removed).
    pub fn cancel(&mut self, id: usize) -> bool {
        if let Some(pos) = self.queue.iter().position(|r| r.id == id) {
            self.queue.remove(pos);
            self.allocator.release(id);
            return true;
        }
        if let Some(pos) = self.active.iter().position(|s| s.request.id == id) {
            self.active.remove(pos);
            self.allocator.release(id);
            return true;
        }
        false
    }

    /// Arms the allocator's injected-fault fuse for the coming step.
    pub fn arm_alloc_fault(&mut self) {
        self.allocator.arm_fault();
    }

    /// Clears the allocator's injected-fault fuse.
    pub fn disarm_alloc_fault(&mut self) {
        self.allocator.disarm_fault();
    }

    /// Number of queued (not yet admitted) requests.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The active batch.
    pub fn active(&self) -> &[ActiveSeq] {
        &self.active
    }

    /// Total finished requests.
    pub fn finished(&self) -> usize {
        self.finished
    }

    /// Whether all submitted work is complete.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.active.is_empty()
    }

    /// The KV allocator (for memory introspection).
    pub fn allocator(&self) -> &PagedAllocator {
        &self.allocator
    }

    /// Mutable access to the KV allocator, for prefix-cache maintenance
    /// (retaining/releasing cached blocks and copy-on-write tail forks).
    /// Engine-internal use: external callers observe via
    /// [`Self::allocator`].
    pub fn allocator_mut(&mut self) -> &mut PagedAllocator {
        &mut self.allocator
    }

    /// The request at the head of the FCFS queue (the only admission
    /// candidate), if any.
    pub fn queue_head(&self) -> Option<&Request> {
        self.queue.front()
    }

    /// Admits queued requests while the batch cap and block pool allow,
    /// strictly in FCFS order (head-of-line blocking is intentional — it is
    /// what the paper's serving setup does).
    ///
    /// Admission keeps a small block *watermark* free when other sequences
    /// are running (vLLM's policy): without it, a freshly preempted request
    /// would immediately re-admit into the very blocks its eviction freed
    /// and the batch would thrash forever.
    pub fn admit(&mut self) -> Vec<BatchEvent> {
        let mut events = Vec::new();
        let no_prefix = SharedPrefix::default();
        while let AdmitOutcome::Admitted(request) = self.try_admit_head(&no_prefix) {
            events.push(BatchEvent::Admitted(request));
        }
        events
    }

    /// Attempts to admit exactly the head-of-queue request, optionally
    /// seeding it with a prefix-cache block run (`shared`; pass an empty
    /// plan for a plain admission — [`Self::admit`] is exactly that in a
    /// loop).
    ///
    /// On [`AdmitOutcome::NeedBlocks`] nothing was mutated; the caller may
    /// free blocks (evict cached runs) and retry within the same step. The
    /// caller guarantees `shared.tokens < head.prefill_tokens` and that the
    /// shared blocks are pinned (refcount ≥ 1) for the duration of the
    /// call.
    pub fn try_admit_head(&mut self, shared: &SharedPrefix) -> AdmitOutcome {
        if self.active.len() >= self.max_batch || self.allocator.fault_armed() {
            return AdmitOutcome::Blocked;
        }
        let Some(front) = self.queue.front() else {
            return AdmitOutcome::Blocked;
        };
        // Admission reserves the prompt plus one decode block so a newly
        // admitted request can always make progress.
        let reserve = front.prefill_tokens + 1;
        let id = front.id;
        debug_assert!(
            shared.is_empty() || shared.tokens < front.prefill_tokens,
            "shared prefix must leave at least one prompt token to prefill"
        );
        let needed = self.allocator.fresh_blocks_for(reserve, shared);
        let watermark = if self.active.is_empty() {
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
        let Some(request) = self.queue.pop_front() else {
            return AdmitOutcome::Blocked; // unreachable: `front()` was Some above
        };
        self.active.push(ActiveSeq {
            request,
            decoded: 0,
            prefilled: false,
        });
        AdmitOutcome::Admitted(request)
    }

    /// Marks the pending prefills as done (called after the engine runs the
    /// prefill phase) and returns the sequences that were prefilled.
    pub fn complete_prefill(&mut self) -> Vec<Request> {
        let mut done = Vec::new();
        for seq in &mut self.active {
            if !seq.prefilled {
                seq.prefilled = true;
                done.push(seq.request);
            }
        }
        done
    }

    /// Advances every decoding sequence by one token, retiring finished
    /// requests and releasing their KV blocks. Returns finish (and
    /// possibly preemption) events.
    ///
    /// Sequences that cannot obtain a block for their next token stall for
    /// this iteration. If *nothing* advanced and at least one sequence
    /// stalled, the youngest stalled sequence is preempted (its blocks are
    /// released and it re-enters the head of the queue for recompute), so
    /// the batch can never deadlock on memory — the same policy vLLM uses.
    ///
    /// Preemption is skipped while an injected allocation fault is armed
    /// (the stall is transient and eviction would only burn recompute) and
    /// when the stalled sequence is alone with an empty queue — a state
    /// [`Self::submit`]'s footprint validation makes unreachable, since a
    /// lone admitted request always fits the pool.
    pub fn step_decode(&mut self) -> Vec<BatchEvent> {
        let mut events = Vec::new();
        let mut kept = Vec::with_capacity(self.active.len());
        let mut stalled_ids = Vec::new();
        self.advanced_ids.clear();
        for mut seq in std::mem::take(&mut self.active) {
            if !seq.prefilled {
                kept.push(seq);
                continue;
            }
            // The admission reserve covers the first decode token; later
            // tokens grow the table one at a time.
            if seq.decoded > 0
                && self.allocator.grow(seq.request.id, 1).is_err() {
                    stalled_ids.push(seq.request.id);
                    kept.push(seq); // stalled: no block available
                    continue;
                }
            seq.decoded += 1;
            self.advanced_ids.push(seq.request.id);
            if seq.done() {
                self.allocator.release(seq.request.id);
                self.finished += 1;
                events.push(BatchEvent::Finished(seq.request));
            } else {
                kept.push(seq);
            }
        }
        self.active = kept;
        if self.advanced_ids.is_empty() && !stalled_ids.is_empty() && !self.allocator.fault_armed() {
            // Evicting only helps if someone else can use the freed blocks.
            if self.active.len() > 1 || !self.queue.is_empty() {
                // Preempt the youngest stalled sequence. Every stalled id
                // came from `self.active` this step, so the lookup is total;
                // a miss would be an invariant breach we absorb by skipping
                // the preemption rather than killing the batch.
                let victim_pos = stalled_ids
                    .last()
                    .and_then(|id| self.active.iter().rposition(|s| s.request.id == *id));
                if let Some(pos) = victim_pos {
                    let victim = self.active.remove(pos);
                    self.allocator.release(victim.request.id);
                    self.queue.push_front(victim.request);
                    self.preemptions += 1;
                    events.push(BatchEvent::Preempted(victim.request));
                } else {
                    debug_assert!(false, "stalled id not found in the active set");
                }
            } else {
                // A lone stalled sequence with an empty queue would mean a
                // request larger than the pool slipped past submission
                // validation.
                debug_assert!(
                    false,
                    "request {:?} stalled alone with an empty queue",
                    stalled_ids.first()
                );
            }
        }
        events
    }

    /// How many sequences produced a token in the last [`Self::step_decode`].
    pub fn last_advanced(&self) -> usize {
        self.advanced_ids.len()
    }

    /// The sequences that actually grew by one token in the last
    /// [`Self::step_decode`], in batch order. A sequence can advance even if
    /// the pool looked full beforehand (another sequence finishing earlier
    /// in the same step frees its blocks), so compute that mirrors the
    /// scheduler must consume this list rather than predict it.
    pub fn last_advanced_ids(&self) -> &[usize] {
        &self.advanced_ids
    }

    /// Total recompute preemptions so far.
    pub fn preemptions(&self) -> usize {
        self.preemptions
    }

    /// Number of active sequences currently decoding (prefilled).
    pub fn decoding(&self) -> usize {
        self.active.iter().filter(|s| s.prefilled).count()
    }

    /// Mean context length over active sequences (0 when empty).
    pub fn mean_context(&self) -> f64 {
        if self.active.is_empty() {
            return 0.0;
        }
        self.active.iter().map(|s| s.context() as f64).sum::<f64>() / self.active.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: usize, prefill: usize, decode: usize) -> Request {
        Request {
            id,
            arrival_s: 0.0,
            prefill_tokens: prefill,
            decode_tokens: decode,
        }
    }

    fn batcher(max_batch: usize, blocks: usize) -> ContinuousBatcher {
        ContinuousBatcher::new(max_batch, PagedAllocator::new(blocks, 16)).expect("valid config")
    }

    #[test]
    fn zero_max_batch_is_invalid_config() {
        let err = ContinuousBatcher::new(0, PagedAllocator::new(4, 16)).unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)));
    }

    #[test]
    fn degenerate_requests_rejected_at_submit() {
        let mut b = batcher(2, 4);
        assert_eq!(b.submit(req(0, 0, 4)), Err(RejectReason::EmptyPrompt));
        assert_eq!(b.submit(req(1, 4, 0)), Err(RejectReason::ZeroDecodeTokens));
        // 4 blocks of 16 = 64 slots; 60 + 10 = 70 tokens can never fit.
        assert_eq!(
            b.submit(req(2, 60, 10)),
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
        b.submit(req(0, 8, 1)).unwrap();
        b.submit(req(1, 8, 1)).unwrap();
        let err = b.submit(req(2, 8, 1)).unwrap_err();
        assert_eq!(err, RejectReason::QueueFull { depth: 2, limit: 2 });
        assert_eq!(b.queued(), 2);
    }

    #[test]
    fn cancel_releases_queue_and_active() {
        let mut b = batcher(2, 100);
        b.submit(req(0, 16, 4)).unwrap();
        b.submit(req(1, 16, 4)).unwrap();
        b.admit();
        b.complete_prefill();
        b.submit(req(2, 16, 4)).unwrap();
        assert!(b.cancel(0), "active request cancels");
        assert!(b.cancel(2), "queued request cancels");
        assert!(!b.cancel(0), "double cancel reports unknown");
        assert!(!b.cancel(99), "never-submitted id reports unknown");
        // Only request 1 remains; drain it.
        let mut steps = 0;
        while !b.is_idle() && steps < 50 {
            b.step_decode();
            steps += 1;
        }
        assert_eq!(b.finished(), 1);
        assert_eq!(b.allocator().used_blocks(), 0);
    }

    #[test]
    fn armed_fault_pauses_without_preempting() {
        let mut b = batcher(2, 4);
        b.submit(req(0, 30, 30)).unwrap(); // final context 60 -> 4 blocks
        b.admit();
        b.complete_prefill();
        // Decode past the reserve so further tokens need real growth.
        for _ in 0..2 {
            b.step_decode();
        }
        b.arm_alloc_fault();
        let before = b.active()[0].decoded;
        let events = b.step_decode();
        assert!(events.is_empty(), "no preemption under injected fault");
        assert_eq!(b.active()[0].decoded, before, "sequence stalled in place");
        assert_eq!(b.last_advanced(), 0);
        b.disarm_alloc_fault();
        let mut steps = 0;
        while !b.is_idle() && steps < 200 {
            b.step_decode();
            steps += 1;
        }
        assert!(b.is_idle(), "recovers after the fault clears");
        assert_eq!(b.finished(), 1);
    }

    #[test]
    fn fcfs_admission_and_refill() {
        let mut b = batcher(2, 100);
        for i in 0..4 {
            b.submit(req(i, 16, 2)).unwrap();
        }
        let admitted = b.admit();
        assert_eq!(admitted.len(), 2);
        assert_eq!(b.active().len(), 2);
        assert_eq!(b.queued(), 2);

        b.complete_prefill();
        b.step_decode(); // decoded 1/2
        let finished = b.step_decode(); // decoded 2/2 -> both finish
        assert_eq!(finished.len(), 2);
        assert_eq!(b.finished(), 2);

        // Refill admits the next two in order.
        let refill = b.admit();
        match &refill[0] {
            BatchEvent::Admitted(r) => assert_eq!(r.id, 2),
            other => panic!("unexpected event {other:?}"),
        }
        assert_eq!(b.active().len(), 2);
    }

    #[test]
    fn memory_limits_admission() {
        // 4 blocks of 16 = 64 token slots; each request needs 33 -> 3 blocks.
        let mut b = batcher(8, 4);
        b.submit(req(0, 32, 4)).unwrap();
        b.submit(req(1, 32, 4)).unwrap();
        let events = b.admit();
        assert_eq!(events.len(), 1, "only one request fits");
        assert_eq!(b.queued(), 1);
        // Finishing the first frees room for the second.
        b.complete_prefill();
        for _ in 0..4 {
            b.step_decode();
        }
        assert_eq!(b.finished(), 1);
        assert_eq!(b.admit().len(), 1);
    }

    #[test]
    fn prefill_required_before_decode() {
        let mut b = batcher(1, 10);
        b.submit(req(0, 8, 1)).unwrap();
        b.admit();
        // Without prefill, decode makes no progress.
        assert!(b.step_decode().is_empty());
        assert_eq!(b.decoding(), 0);
        b.complete_prefill();
        assert_eq!(b.decoding(), 1);
        assert_eq!(b.step_decode().len(), 1);
    }

    #[test]
    fn kv_blocks_released_on_finish() {
        let mut b = batcher(1, 10);
        b.submit(req(0, 16, 1)).unwrap();
        b.admit();
        b.complete_prefill();
        assert!(b.allocator().used_blocks() > 0);
        b.step_decode();
        assert_eq!(b.allocator().used_blocks(), 0);
        assert!(b.is_idle());
    }

    #[test]
    fn decode_growth_can_stall_then_recover() {
        // Pool of 3 blocks (48 slots). The long request ends at context
        // 16 + 20 = 36 -> 3 blocks, so it can only finish after the short
        // one releases its block: it must stall and then recover.
        let mut b = batcher(2, 3);
        b.submit(req(0, 16, 20)).unwrap(); // grows over time
        b.submit(req(1, 14, 2)).unwrap(); // short
        b.admit();
        b.complete_prefill();
        // Step until the short one finishes; the long one may stall but
        // must finish eventually.
        let mut steps = 0;
        while !b.is_idle() && steps < 200 {
            b.step_decode();
            b.admit();
            b.complete_prefill();
            steps += 1;
        }
        assert!(b.is_idle(), "deadlocked after {steps} steps");
        assert_eq!(b.finished(), 2);
    }

    #[test]
    fn full_pool_triggers_preemption_not_deadlock() {
        // Two long-running sequences that are co-admitted (2 blocks each,
        // pool of 6) but together outgrow the pool (4 blocks each at the
        // end): the scheduler must preempt one (recompute) instead of
        // deadlocking, and both must eventually finish.
        let mut b = batcher(2, 6); // 96 slots
        b.submit(req(0, 16, 40)).unwrap(); // ends at context 56 -> 4 blocks
        b.submit(req(1, 16, 40)).unwrap(); // same; together they need 8 blocks
        b.admit();
        b.complete_prefill();
        let mut steps = 0;
        while !b.is_idle() && steps < 500 {
            b.step_decode();
            b.admit();
            b.complete_prefill();
            steps += 1;
        }
        assert!(b.is_idle(), "deadlocked after {steps} steps");
        assert_eq!(b.finished(), 2);
        assert!(b.preemptions() >= 1, "expected at least one preemption");
    }

    #[test]
    fn last_advanced_counts_progress() {
        let mut b = batcher(2, 100);
        b.submit(req(0, 8, 3)).unwrap();
        b.submit(req(1, 8, 3)).unwrap();
        b.admit();
        b.complete_prefill();
        b.step_decode();
        assert_eq!(b.last_advanced(), 2);
    }

    #[test]
    fn try_admit_head_attaches_shared_prefix() {
        let mut b = batcher(2, 8); // 8 blocks of 16
        // Donor: 40-token prompt -> reserve 41 -> 3 blocks.
        b.submit(req(0, 40, 2)).unwrap();
        assert!(matches!(
            b.try_admit_head(&SharedPrefix::default()),
            AdmitOutcome::Admitted(_)
        ));
        let donor_blocks: Vec<usize> = b.allocator().table(0).unwrap().blocks()[..2].to_vec();
        // Pretend a prefix cache holds the donor's first 2 full blocks.
        for &blk in &donor_blocks {
            assert!(b.allocator_mut().retain_block(blk));
        }
        // Consumer shares 32 of its 40 prompt tokens.
        b.submit(req(1, 40, 2)).unwrap();
        let plan = SharedPrefix { blocks: donor_blocks.clone(), tokens: 32 };
        let used_before = b.allocator().used_blocks();
        assert!(matches!(b.try_admit_head(&plan), AdmitOutcome::Admitted(_)));
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
        b.submit(req(0, 16, 2)).unwrap();
        assert!(matches!(
            b.try_admit_head(&SharedPrefix::default()),
            AdmitOutcome::Admitted(_)
        ));
        // Head needs 3 blocks (33 tokens) + watermark 1, only 1 free.
        b.submit(req(1, 32, 2)).unwrap();
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
        b.arm_alloc_fault();
        assert_eq!(b.try_admit_head(&SharedPrefix::default()), AdmitOutcome::Blocked);
    }

    #[test]
    fn mean_context_tracks_growth() {
        let mut b = batcher(1, 100);
        b.submit(req(0, 10, 5)).unwrap();
        b.admit();
        b.complete_prefill();
        let before = b.mean_context();
        b.step_decode();
        assert!((b.mean_context() - before - 1.0).abs() < 1e-9);
    }
}
