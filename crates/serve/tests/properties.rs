//! Property-based tests of the serving substrate: allocator conservation
//! invariants, scheduler liveness, and prefix-cache/copy-on-write block
//! sharing under randomized workloads.

use atom_data::Request;
use atom_nn::kv::Fp32KvCache;
use atom_prefix::{RadixIndex, Snapshot, FLAVOR_NORMAL};
use atom_serve::{AdmitOutcome, BatchEvent, ContinuousBatcher, PagedAllocator, SharedPrefix};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #[test]
    fn allocator_conserves_blocks(
        ops in proptest::collection::vec((0usize..8, 1usize..40), 1..60),
        total in 4usize..32,
    ) {
        let mut a = PagedAllocator::new(total, 8);
        let mut registered = std::collections::BTreeSet::new();
        for (seq, tokens) in ops {
            if registered.contains(&seq) {
                // Randomly grow or release.
                if tokens % 3 == 0 {
                    a.release(seq);
                    registered.remove(&seq);
                } else {
                    let _ = a.grow(seq, tokens);
                }
            } else {
                a.register(seq);
                registered.insert(seq);
                let _ = a.grow(seq, tokens);
            }
            prop_assert_eq!(a.used_blocks() + a.free_blocks(), a.total_blocks());
            prop_assert!(a.peak_used() <= a.total_blocks());
        }
        // Releasing everything returns the pool to pristine state.
        for seq in registered {
            a.release(seq);
        }
        prop_assert_eq!(a.free_blocks(), a.total_blocks());
    }

    #[test]
    fn allocated_blocks_are_disjoint(
        grows in proptest::collection::vec(1usize..30, 1..8),
    ) {
        let mut a = PagedAllocator::new(64, 4);
        for (seq, &tokens) in grows.iter().enumerate() {
            a.register(seq);
            let _ = a.grow(seq, tokens);
        }
        let mut seen = std::collections::BTreeSet::new();
        for seq in 0..grows.len() {
            if let Some(t) = a.table(seq) {
                for &b in t.blocks() {
                    prop_assert!(seen.insert(b), "block {b} double-allocated");
                }
            }
        }
    }

    #[test]
    fn scheduler_always_drains(
        lens in proptest::collection::vec((1usize..60, 1usize..30), 1..20),
        max_batch in 1usize..6,
    ) {
        // Any workload whose largest request fits the pool must drain.
        let pool_blocks = 16usize; // 256 slots
        let block = 16usize;
        let mut b = ContinuousBatcher::new(max_batch, PagedAllocator::new(pool_blocks, block))
            .expect("positive max_batch");
        let mut total = 0usize;
        for (i, &(prefill, decode)) in lens.iter().enumerate() {
            // Cap each request under the pool size.
            let prefill = prefill.min(120);
            let decode = decode.min(100);
            b.submit(Request {
                id: i,
                arrival_s: 0.0,
                prefill_tokens: prefill,
                decode_tokens: decode,
            })
            .expect("capped under the pool size");
            total += 1;
        }
        let (mut steps, mut finished) = (0usize, 0usize);
        while !b.is_idle() && steps < 20_000 {
            while let AdmitOutcome::Admitted(_) = b.try_admit_head(&SharedPrefix::default()) {}
            b.complete_prefill();
            let events = b.step_decode();
            finished += events
                .iter()
                .filter(|e| matches!(e, BatchEvent::Finished(_)))
                .count();
            steps += 1;
        }
        prop_assert!(b.is_idle(), "scheduler failed to drain after {steps} steps");
        prop_assert_eq!(finished, total);
        prop_assert_eq!(b.allocator().used_blocks(), 0);
    }

    #[test]
    fn prefix_sharing_conserves_every_refcount(
        ops in proptest::collection::vec((0usize..5, 0usize..3, 9usize..33), 1..60),
    ) {
        // The engine's whole prefix-cache life cycle against the real
        // allocator and index: admit-with-match (pin, attach, grow,
        // unpin), complete-and-donate, cancel, evict, and bare lookups in
        // random orders. After every op the pool must balance exactly:
        // each block's refcount equals its table mappings plus the
        // index's own hold, so no interleaving can leak or double-free.
        const BS: usize = 8;
        const POOL: usize = 32;
        let family_prompt =
            |f: usize, len: usize| -> Vec<u16> { (0..len).map(|t| ((f * 17 + t * 3) % 96) as u16).collect() };
        let snap = |tokens: usize| Arc::new(Snapshot::new(Box::new(Fp32KvCache::new(1, 2)), tokens));

        let mut alloc = PagedAllocator::new(POOL, BS);
        let mut index = RadixIndex::new(BS);
        let mut donors: Vec<(usize, Vec<u16>)> = Vec::new();
        let mut next_seq = 0usize;
        for (tick, (op, family, len)) in ops.into_iter().enumerate() {
            let tick = tick as u64;
            match op {
                0 | 1 => {
                    // Admission: match, pin, attach, grow to full length
                    // plus one decode slot, unpin — the engine's
                    // admit_with_cache flow.
                    let p = family_prompt(family, len);
                    let m = index.match_prefix(&p, FLAVOR_NORMAL, len - 1, tick);
                    for &b in &m.blocks {
                        prop_assert!(alloc.retain_block(b), "pinned a dead block");
                    }
                    let seq = next_seq;
                    next_seq += 1;
                    alloc.register(seq);
                    if m.tokens > 0 {
                        prop_assert!(alloc.attach_shared(seq, &SharedPrefix {
                            blocks: m.blocks.clone(),
                            tokens: m.tokens,
                        }));
                    }
                    let grown = alloc.grow(seq, len + 1 - m.tokens);
                    for &b in &m.blocks {
                        alloc.release_block(b);
                    }
                    if grown.is_ok() {
                        donors.push((seq, p));
                    } else {
                        alloc.release(seq); // admission failed: roll back
                    }
                }
                2 => {
                    // Completed prefill donates its prompt blocks to the
                    // cache, then the sequence finishes.
                    if let Some((seq, p)) = donors.pop() {
                        let covering = alloc.blocks_for(p.len());
                        let blocks: Vec<usize> = alloc
                            .table(seq)
                            .map(|t| t.blocks()[..covering].to_vec())
                            .unwrap_or_default();
                        let (a, ix) = (&mut alloc, &mut index);
                        let report = ix.insert(&p, &blocks, FLAVOR_NORMAL, snap(p.len()), tick,
                            &mut |src| a.fork_copy(src).ok());
                        for &b in &report.newly_shared {
                            prop_assert!(alloc.retain_block(b));
                        }
                        alloc.release(seq);
                    }
                }
                3 => {
                    // Cancel: the sequence dies without donating.
                    if let Some((seq, _)) = donors.pop() {
                        alloc.release(seq);
                    }
                }
                _ => {
                    if let Some(b) = index.evict_lru(&|b| alloc.refcount(b) == 1) {
                        prop_assert_eq!(alloc.refcount(b), 1, "evicted a shared block");
                        alloc.release_block(b);
                    }
                }
            }

            // Exact balance: refcount(b) == table mappings of b + index
            // hold of b, for every block; implies refcounts never go
            // negative and no refcount-1 block sits in two owned tables.
            prop_assert!(alloc.leak_check().is_ok());
            let mut expected = vec![0u64; POOL];
            for (seq, _) in &donors {
                if let Some(t) = alloc.table(*seq) {
                    for &b in t.blocks() {
                        expected[b] += 1;
                    }
                }
            }
            for b in index.blocks() {
                expected[b] += 1;
            }
            for (b, &want) in expected.iter().enumerate() {
                prop_assert_eq!(
                    alloc.refcount(b) as u64, want,
                    "block {} refcount out of balance", b
                );
            }
        }

        // Drain: finish every sequence, then evict the cache dry — the
        // pool must return to pristine.
        for (seq, _) in donors.drain(..) {
            alloc.release(seq);
        }
        while let Some(b) = index.evict_lru(&|b| alloc.refcount(b) == 1) {
            alloc.release_block(b);
        }
        prop_assert!(index.is_empty());
        prop_assert_eq!(alloc.used_blocks(), 0);
        prop_assert_eq!(alloc.total_refs(), 0);
        prop_assert_eq!(alloc.free_blocks(), POOL);
    }

    #[test]
    fn workload_generation_invariants(
        rate in 0.5f64..100.0,
        cont in 0.0f64..1.0,
        seed in 0u64..500,
    ) {
        let spec = atom_data::WorkloadSpec {
            arrival_rate: rate,
            continuation_prob: cont,
            ..atom_data::WorkloadSpec::default()
        };
        let trace = spec.generate(50, seed);
        prop_assert_eq!(trace.len(), 50);
        for w in trace.windows(2) {
            prop_assert!(w[0].arrival_s <= w[1].arrival_s);
        }
        for r in &trace {
            prop_assert!(r.prefill_tokens >= 4);
            prop_assert!(r.decode_tokens >= 1);
            prop_assert!(r.prefill_tokens <= spec.max_context);
        }
    }
}
