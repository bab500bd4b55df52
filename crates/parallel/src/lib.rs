//! Deterministic scope-based data parallelism for the Atom workspace.
//!
//! The paper's speedups come from saturating the hardware — fused low-bit
//! GEMM and quantized-KV attention keep every SM busy (Fig. 8 / Fig. 11) —
//! and this crate is the CPU analogue of that execution layer: it spreads
//! the bit-exact kernels over cores **without changing a single output
//! bit**. The workspace's hot paths (packed GEMM row-blocks, per-head
//! quantized-KV attention, batched prefill/decode in the serving engine)
//! all parallelize through the one [`Pool`] type defined here.
//!
//! # Determinism contract
//!
//! Identical inputs produce byte-identical outputs for **any** thread
//! count. The contract is enforced structurally, not by testing alone:
//!
//! * **chunked static partitioning** — work splits into fixed-size chunks
//!   assigned to workers by index arithmetic, never by racing a queue;
//! * **disjoint writes** — every chunk owns an exclusive `&mut` span of
//!   the output ([`Pool::par_chunks_mut`] hands out non-overlapping
//!   sub-slices via `split_at_mut`), so there is nothing to race on;
//! * **no reduction atomics** — cross-chunk combining happens on the
//!   caller thread after the join, in chunk-index order.
//!
//! A chunk's result therefore depends only on the sequential code that
//! computed it, and the (1-thread vs N-thread) proptests in
//! `crates/kernels/tests` and `crates/serve/tests` hold bit-for-bit.
//!
//! # Pool size
//!
//! [`Pool::global`] reads the `ATOM_THREADS` environment variable once per
//! process (unset: the machine's available parallelism; set but not a
//! positive integer: 1). At
//! `ATOM_THREADS=1` every API runs inline on the caller thread — no worker
//! is ever spawned, which is the reproducibility-first default for chaos
//! and fault-injection runs. Explicit pools ([`Pool::new`]) serve tests
//! and benches that sweep thread counts.
//!
//! # Worker lifecycle and panics
//!
//! Workers are scoped to one parallel region via [`std::thread::scope`] —
//! the only way in safe Rust to run borrowed closures on other threads
//! (persistent workers would need `'static` jobs or `unsafe` lifetime
//! erasure, and this workspace forbids `unsafe` outside `telemetry`). A
//! panicking chunk does not abort the process: each chunk runs under
//! `catch_unwind`, failed chunk indices are collected, and the region
//! returns a typed [`PoolError::WorkerPanic`] after every other chunk has
//! completed. The serving engine maps that error onto per-request
//! `Terminal::Failed` outcomes instead of poisoning the batch.
//!
//! # Example
//!
//! ```
//! use atom_parallel::Pool;
//!
//! // Square 10 numbers in chunks of 4, on up to 2 threads.
//! let pool = Pool::new(2);
//! let mut data: Vec<u64> = (0..10).collect();
//! pool.par_chunks_mut(&mut data, 4, |_chunk_index, chunk| {
//!     for v in chunk.iter_mut() {
//!         *v *= *v;
//!     }
//! })
//! .expect("no chunk panicked");
//! assert_eq!(data[3], 9);
//! // Bit-identical to the sequential pool, by construction.
//! let mut seq: Vec<u64> = (0..10).collect();
//! Pool::new(1)
//!     .par_chunks_mut(&mut seq, 4, |_, c| c.iter_mut().for_each(|v| *v *= *v))
//!     .expect("sequential path cannot panic here");
//! assert_eq!(data, seq);
//! ```

#![warn(missing_docs)]
// The pool exists to contain worker panics; a panicking construct in the
// pool itself would defeat that. Tests are exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

use atom_telemetry::{names, Telemetry};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::Instant;

/// Error surfaced by a parallel region whose closure panicked.
///
/// The region still runs every other chunk to completion before returning
/// (no chunk is silently skipped), so callers know exactly which units of
/// work are poisoned and which outputs are valid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// One or more chunks panicked inside a parallel region.
    WorkerPanic {
        /// Indices of the chunks whose closure panicked, ascending.
        failed_chunks: Vec<usize>,
        /// The first panic's payload, when it was a string.
        message: String,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::WorkerPanic {
                failed_chunks,
                message,
            } => write!(
                f,
                "worker panic in {} chunk(s) {:?}: {}",
                failed_chunks.len(),
                failed_chunks,
                message
            ),
        }
    }
}

impl std::error::Error for PoolError {}

thread_local! {
    /// Set while the current thread executes inside a parallel region;
    /// nested pool calls then run inline instead of spawning a second
    /// generation of workers (unbounded fan-out would oversubscribe the
    /// machine without changing any result).
    static IN_PARALLEL_REGION: Cell<bool> = const { Cell::new(false) };
}

/// RAII flag marking the current thread as inside a parallel region.
struct RegionGuard {
    prev: bool,
}

impl RegionGuard {
    fn enter() -> Self {
        let prev = IN_PARALLEL_REGION.with(|f| f.replace(true));
        RegionGuard { prev }
    }
}

impl Drop for RegionGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_PARALLEL_REGION.with(|f| f.set(prev));
    }
}

/// Weight rows per chunk when a kernel partitions row-blocked work over
/// [`Pool::par_chunks_mut`]. The GEMM kernel hands each worker chunk a tile
/// of [`KERNEL_ROW_BLOCK`] weight rows: big enough that one chunk amortizes
/// its decode-buffer allocation and the per-block decode call (at 8 rows
/// they were a tenth of an `m = 1` call on a 384-row projection), small
/// enough that the decoded block stays cache-resident and a 2048-row
/// projection still splits into 64 chunks — plenty of slack for any
/// realistic thread width. Because `par_chunks_mut` assigns chunk `i` the
/// same span at every width, this constant also fixes the decomposition,
/// keeping results bit-identical across thread counts.
pub const KERNEL_ROW_BLOCK: usize = 32;

/// What one worker reports back to the region join: busy wall time (0 when
/// telemetry is disabled) and the chunks whose closure panicked.
type WorkerReport = (u64, Vec<(usize, String)>);

/// A deterministic data-parallel executor of fixed width.
///
/// Cheap to create and to clone — the pool carries configuration, not
/// threads; workers are scoped per region (see the crate docs for why).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool running work on up to `threads` threads (the caller thread
    /// counts as one of them). `0` is clamped to `1`.
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// A single-threaded pool: every API runs inline on the caller.
    pub fn sequential() -> Self {
        Pool::new(1)
    }

    /// The pool described by the environment: `ATOM_THREADS` when set (an
    /// invalid value means 1), the machine's available parallelism when
    /// unset — see [`Pool::resolve_threads`].
    pub fn from_env() -> Self {
        #[expect(
            clippy::disallowed_methods,
            reason = "audited config entry point: ATOM_THREADS is read once, at pool construction, and width never changes a result"
        )]
        let configured = std::env::var("ATOM_THREADS").ok();
        Pool::new(Self::resolve_threads(configured.as_deref()))
    }

    /// The process-wide pool, built from the environment once on first use
    /// (see [`Pool::from_env`]). Kernel entry points default to this.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(Pool::from_env)
    }

    /// Resolves a thread count from an `ATOM_THREADS`-style setting: a
    /// positive integer is taken as-is; a value that is set but invalid
    /// (`0`, malformed, empty) falls back to **1**, the deterministic
    /// default, so a typo never silently widens the pool; only an unset
    /// variable selects the machine's available parallelism.
    pub fn resolve_threads(configured: Option<&str>) -> usize {
        match configured {
            Some(raw) => match raw.trim().parse::<usize>() {
                Ok(n) if n > 0 => n,
                _ => 1,
            },
            None => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }

    /// The configured width (including the caller thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether a region started now would run inline on the caller: the
    /// pool is width 1, or the caller is already inside a parallel region
    /// (nested regions never spawn — see the crate docs).
    pub fn is_sequential(&self) -> bool {
        self.threads == 1 || IN_PARALLEL_REGION.with(Cell::get)
    }

    /// Runs `f` over `data` split into chunks of `chunk` elements (the
    /// final chunk may be shorter), distributing contiguous runs of chunks
    /// across the pool. `f` receives the chunk index and the chunk's
    /// exclusive sub-slice; chunk `i` always covers
    /// `data[i * chunk .. ((i + 1) * chunk).min(len)]` regardless of the
    /// thread count, which is what makes the output bit-stable.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::WorkerPanic`] listing every chunk whose
    /// closure panicked; all other chunks still ran to completion.
    ///
    /// # Example
    ///
    /// ```
    /// use atom_parallel::Pool;
    ///
    /// let mut rows = vec![0u32; 6];
    /// Pool::new(4)
    ///     .par_chunks_mut(&mut rows, 2, |i, chunk| {
    ///         for v in chunk.iter_mut() {
    ///             *v = i as u32;
    ///         }
    ///     })
    ///     .expect("no panics");
    /// assert_eq!(rows, [0, 0, 1, 1, 2, 2]);
    /// ```
    pub fn par_chunks_mut<T, F>(&self, data: &mut [T], chunk: usize, f: F) -> Result<(), PoolError>
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let chunk = chunk.max(1);
        let n_chunks = data.len().div_ceil(chunk);
        if n_chunks == 0 {
            return Ok(());
        }
        let workers = self.effective_workers(n_chunks);
        let region = Region::open(n_chunks, workers);

        let mut failures: Vec<(usize, String)> = Vec::new();
        let mut busy_total = 0u64;
        if workers <= 1 {
            let (busy, mut fails) = run_chunk_span(&f, data, chunk, 0, n_chunks, 0, region.timed);
            busy_total = busy;
            failures.append(&mut fails);
        } else {
            // Contiguous static partition: the first `n_chunks % workers`
            // workers take one extra chunk. Worker 0 is the caller thread.
            let base = n_chunks / workers;
            let extra = n_chunks % workers;
            let timed = region.timed;
            let reports = std::thread::scope(|scope| {
                let f = &f;
                let mut handles = Vec::with_capacity(workers - 1);
                let mut rest = data;
                let mut first_chunk = 0usize;
                let mut caller_share: Option<(&mut [T], usize, usize)> = None;
                for w in 0..workers {
                    let count = base + usize::from(w < extra);
                    let take = (count * chunk).min(rest.len());
                    let (head, tail) = rest.split_at_mut(take);
                    rest = tail;
                    if w == 0 {
                        caller_share = Some((head, first_chunk, count));
                    } else {
                        let start = first_chunk;
                        handles.push(scope.spawn(move || {
                            let _guard = RegionGuard::enter();
                            let report = run_chunk_span(f, head, chunk, start, count, w, timed);
                            if timed {
                                Telemetry::global().tracer().flush_thread();
                            }
                            report
                        }));
                    }
                    first_chunk += count;
                }
                let caller_report = match caller_share {
                    Some((head, start, count)) => {
                        let _guard = RegionGuard::enter();
                        run_chunk_span(f, head, chunk, start, count, 0, timed)
                    }
                    None => (0, Vec::new()),
                };
                let mut reports = vec![caller_report];
                for h in handles {
                    // A scoped worker can only fail to join if its closure
                    // panicked outside `catch_unwind` (e.g. inside the
                    // telemetry flush); treat that as a panic of its first
                    // chunk rather than unwinding through the scope.
                    reports.push(h.join().unwrap_or_else(|payload| {
                        (0, vec![(usize::MAX, panic_message(payload.as_ref()))])
                    }));
                }
                reports
            });
            for (busy, mut fails) in reports {
                busy_total = busy_total.saturating_add(busy);
                failures.append(&mut fails);
            }
        }
        region.close(busy_total);

        if failures.is_empty() {
            return Ok(());
        }
        failures.sort();
        let message = failures
            .first()
            .map(|(_, m)| m.clone())
            .unwrap_or_default();
        Err(PoolError::WorkerPanic {
            failed_chunks: failures.into_iter().map(|(i, _)| i).collect(),
            message,
        })
    }

    /// Maps `f` over `items`, returning the results in input order. Each
    /// item is one chunk, so on error the failed-chunk indices of
    /// [`PoolError::WorkerPanic`] are exactly the failed *item* indices —
    /// the serving engine relies on this to fail only the poisoned
    /// requests of a batch.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::WorkerPanic`] listing every item whose closure
    /// panicked; all other items still produced their result (discarded on
    /// the error path).
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Result<Vec<R>, PoolError>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
        self.par_chunks_mut(&mut slots, 1, |i, slot| {
            if let (Some(out), Some(item)) = (slot.first_mut(), items.get(i)) {
                *out = Some(f(i, item));
            }
        })?;
        let results: Vec<R> = slots.into_iter().flatten().collect();
        if results.len() == items.len() {
            Ok(results)
        } else {
            // Unreachable under the par_chunks_mut contract (every chunk
            // either filled its slot or reported a panic), kept as a typed
            // backstop instead of an unwrap.
            Err(PoolError::WorkerPanic {
                failed_chunks: Vec::new(),
                message: "parallel map lost results without a reported panic".to_string(),
            })
        }
    }

    /// Runs `a` and `b`, potentially in parallel, returning both results.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::WorkerPanic`] if either closure panicked
    /// (chunk 0 = `a`, chunk 1 = `b`); the surviving closure still ran to
    /// completion.
    pub fn par_join<RA, RB, A, B>(&self, a: A, b: B) -> Result<(RA, RB), PoolError>
    where
        RA: Send,
        A: FnOnce() -> RA + Send,
        RB: Send,
        B: FnOnce() -> RB + Send,
    {
        let region = Region::open(2, self.effective_workers(2));
        let (ra, rb) = if self.is_sequential() {
            let _guard = RegionGuard::enter();
            let ra = catch_unwind(AssertUnwindSafe(a));
            let rb = catch_unwind(AssertUnwindSafe(b));
            (ra, rb)
        } else {
            std::thread::scope(|scope| {
                let hb = scope.spawn(move || {
                    let _guard = RegionGuard::enter();
                    catch_unwind(AssertUnwindSafe(b))
                });
                let ra = {
                    let _guard = RegionGuard::enter();
                    catch_unwind(AssertUnwindSafe(a))
                };
                let rb = hb
                    .join()
                    .unwrap_or_else(|payload| Err(Box::new(panic_message(payload.as_ref()))));
                (ra, rb)
            })
        };
        region.close(0);
        match (ra, rb) {
            (Ok(ra), Ok(rb)) => Ok((ra, rb)),
            (ra, rb) => {
                let mut failed_chunks = Vec::new();
                let mut message = String::new();
                for (i, err) in [ra.err(), rb.err()].into_iter().enumerate() {
                    if let Some(payload) = err {
                        failed_chunks.push(i);
                        if message.is_empty() {
                            message = panic_message(payload.as_ref());
                        }
                    }
                }
                Err(PoolError::WorkerPanic {
                    failed_chunks,
                    message,
                })
            }
        }
    }

    /// Workers a region over `n_chunks` chunks would actually use.
    fn effective_workers(&self, n_chunks: usize) -> usize {
        if self.is_sequential() {
            1
        } else {
            self.threads.min(n_chunks).max(1)
        }
    }
}

impl Default for Pool {
    /// The environment-configured pool (same resolution as
    /// [`Pool::from_env`]).
    fn default() -> Self {
        Pool::from_env()
    }
}

/// Telemetry bracket around one parallel region: queue-depth gauge up on
/// dispatch, region wall + utilization histograms on join. All of it is
/// skipped (down to one atomic load) while telemetry is disabled.
struct Region {
    timed: bool,
    start: Option<Instant>,
    workers: usize,
}

impl Region {
    fn open(n_chunks: usize, workers: usize) -> Region {
        let t = Telemetry::global();
        let timed = t.is_enabled();
        if timed {
            t.counter_add(names::POOL_TASKS, n_chunks as u64);
            t.gauge_set(names::POOL_QUEUE_DEPTH, n_chunks as i64);
        }
        Region {
            timed,
            #[expect(
                clippy::disallowed_methods,
                reason = "region wall time is pool telemetry only; chunk assignment and results never read the clock"
            )]
            start: timed.then(Instant::now),
            workers,
        }
    }

    fn close(self, busy_total_ns: u64) {
        if !self.timed {
            return;
        }
        let t = Telemetry::global();
        t.gauge_set(names::POOL_QUEUE_DEPTH, 0);
        if let Some(start) = self.start {
            let wall = start.elapsed().as_nanos() as u64;
            t.record(names::POOL_REGION_WALL_NS, wall);
            let denom = (self.workers as u64).saturating_mul(wall).max(1);
            let util = busy_total_ns.saturating_mul(1000) / denom;
            t.record(names::POOL_UTILIZATION_PERMILLE, util.min(1000));
        }
    }
}

/// Executes `count` chunks starting at global chunk index `start` over
/// `data` (already narrowed to exactly those chunks), each under
/// `catch_unwind`, inside one `pool_worker` telemetry span. Returns the
/// worker's busy nanoseconds (0 when untimed) and its failed chunks.
fn run_chunk_span<T, F>(
    f: &F,
    data: &mut [T],
    chunk: usize,
    start: usize,
    count: usize,
    worker: usize,
    timed: bool,
) -> WorkerReport
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let span = timed.then(|| {
        Telemetry::global().span(
            names::SPAN_POOL_WORKER,
            &[("chunks", count as f64), ("worker", worker as f64)],
        )
    });
    #[expect(
        clippy::disallowed_methods,
        reason = "worker busy time feeds the utilization histogram only; never scheduling"
    )]
    let busy_start = timed.then(Instant::now);
    let mut failures = Vec::new();
    for (j, piece) in data.chunks_mut(chunk).enumerate().take(count) {
        let index = start + j;
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(index, piece))) {
            failures.push((index, panic_message(payload.as_ref())));
        }
    }
    drop(span);
    let busy = busy_start.map_or(0, |s| s.elapsed().as_nanos() as u64);
    (busy, failures)
}

/// Renders a panic payload: the `&str` / `String` message when there is
/// one, a placeholder otherwise.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_indices_cover_input_in_order() {
        let pool = Pool::new(3);
        let mut data = vec![0usize; 10];
        pool.par_chunks_mut(&mut data, 3, |i, c| c.iter_mut().for_each(|v| *v = i))
            .expect("no panics");
        assert_eq!(data, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
    }

    #[test]
    fn nested_regions_run_inline() {
        let pool = Pool::new(4);
        let mut outer = vec![0u32; 4];
        pool.par_chunks_mut(&mut outer, 1, |_, c| {
            assert!(pool.is_sequential(), "nested call must be sequential");
            let mut inner = vec![0u32; 4];
            pool.par_chunks_mut(&mut inner, 1, |i, ic| {
                ic.iter_mut().for_each(|v| *v = i as u32)
            })
            .expect("inner region");
            c.iter_mut().for_each(|v| *v = inner.iter().sum());
        })
        .expect("outer region");
        assert_eq!(outer, [6, 6, 6, 6]);
    }

    #[test]
    fn par_join_returns_both() {
        let (a, b) = Pool::new(2).par_join(|| 40, || 2).expect("no panics");
        assert_eq!(a + b, 42);
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let pool = Pool::new(4);
        let mut data: Vec<u8> = Vec::new();
        pool.par_chunks_mut(&mut data, 8, |_, _| unreachable!("no chunks"))
            .expect("empty region");
        let out: Vec<u8> = pool.par_map(&data, |_, &v| v).expect("empty map");
        assert!(out.is_empty());
    }

    #[test]
    fn chunk_larger_than_input_yields_one_chunk() {
        let pool = Pool::new(4);
        let mut data = vec![1u32; 3];
        pool.par_chunks_mut(&mut data, 100, |i, c| {
            assert_eq!(i, 0);
            assert_eq!(c.len(), 3);
            c.iter_mut().for_each(|v| *v += 1);
        })
        .expect("single chunk");
        assert_eq!(data, [2, 2, 2]);
    }

    #[test]
    fn worker_panic_reports_failed_chunks_not_abort() {
        let pool = Pool::new(3);
        let mut data = vec![0i32; 6];
        let err = pool
            .par_chunks_mut(&mut data, 1, |i, c| {
                if i == 1 || i == 4 {
                    panic!("chunk {i} poisoned");
                }
                c.iter_mut().for_each(|v| *v = 7);
            })
            .expect_err("two chunks panic");
        let PoolError::WorkerPanic {
            failed_chunks,
            message,
        } = err;
        assert_eq!(failed_chunks, [1, 4], "sorted failed chunk indices");
        assert!(message.contains("poisoned"), "payload preserved: {message}");
        // Surviving chunks still ran to completion.
        assert_eq!(data, [7, 0, 7, 7, 0, 7]);
    }

    #[test]
    fn par_map_preserves_item_order() {
        let items: Vec<usize> = (0..23).collect();
        let out = Pool::new(4)
            .par_map(&items, |i, &v| {
                assert_eq!(i, v, "index argument matches item position");
                v * v
            })
            .expect("no panics");
        let expect: Vec<usize> = (0..23).map(|v| v * v).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn resolve_threads_parses_atom_threads_contract() {
        // Explicit counts win; 0, garbage, and empty fall back to one
        // thread per the documented ATOM_THREADS contract.
        assert_eq!(Pool::resolve_threads(Some("4")), 4);
        assert_eq!(Pool::resolve_threads(Some("1")), 1);
        assert_eq!(Pool::resolve_threads(Some("0")), 1);
        assert_eq!(Pool::resolve_threads(Some("not-a-number")), 1);
        assert_eq!(Pool::resolve_threads(Some("")), 1);
        assert!(Pool::resolve_threads(None) >= 1);
    }

    #[test]
    fn single_thread_pool_takes_sequential_path() {
        // Regression: ATOM_THREADS=1 must never spawn a worker thread —
        // every chunk runs on the caller thread itself.
        let pool = Pool::new(1);
        assert!(pool.is_sequential());
        let caller = std::thread::current().id();
        let mut data = vec![0u8; 8];
        pool.par_chunks_mut(&mut data, 2, |_, c| {
            assert_eq!(std::thread::current().id(), caller);
            c.iter_mut().for_each(|v| *v = 1);
        })
        .expect("sequential region");
        assert_eq!(data, [1; 8]);
    }
}
