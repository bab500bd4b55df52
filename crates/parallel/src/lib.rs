//! Deterministic scope-based data parallelism for the Atom workspace.
//!
//! The paper's speedups come from saturating the hardware — fused low-bit
//! GEMM and quantized-KV attention keep every SM busy (Fig. 8 / Fig. 11) —
//! and this crate is the CPU analogue of that execution layer: it spreads
//! the bit-exact kernels over cores **without changing a single output
//! bit**. The workspace's hot paths (packed GEMM row-blocks, the model's
//! (sequence, head) attention grid, quantized-KV attention) all parallelize
//! through the one [`Pool`] type defined here.
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
//! positive integer: 1, so a typo never silently widens the pool — see
//! [`Pool::resolve_threads`]). At
//! `ATOM_THREADS=1` every API runs inline on the caller thread — no worker
//! is ever spawned (a regression test pins this), which is the
//! reproducibility-first default for chaos and fault-injection runs and the
//! width the serving benchmark runs at. Every kernel runs on
//! [`Pool::current`]: the pool an enclosing [`Pool::install`] put in place,
//! else the global one. Installing a pool is the only way to pick another
//! width — a test that sweeps thread counts installs a [`Pool::new`] around
//! the work; the serving engine installs nothing, so its forwards run on
//! whatever pool its caller put in place.
//!
//! # Worker lifecycle and panics
//!
//! Workers are scoped to one parallel region via [`std::thread::scope`] —
//! the only way in safe Rust to run borrowed closures on other threads
//! (persistent workers would need `'static` jobs or `unsafe` lifetime
//! erasure, and the workspace forbids `unsafe`: `unsafe_code = "forbid"`
//! in the root manifest). Spawn cost is accepted because regions wrap
//! coarse work (whole row blocks of a batch's stacked rows, whole attention
//! cells), and nested `par_*` calls see a thread-local flag and run inline
//! instead of oversubscribing.
//!
//! A region does not catch a chunk's panic. The panic unwinds its worker,
//! which runs none of its later chunks; the caller joins every worker and
//! then resumes ([`std::panic::resume_unwind`]) the original payload of the
//! lowest-index chunk that panicked. Each worker owns a contiguous run of
//! chunks, so that chunk — and the message the caller sees — is the same at
//! every width. Guards restore the caller's installed pool, its
//! nested-region flag and the region's telemetry as the panic passes, so a
//! panic in a GEMM tile continues on the caller exactly as it would from
//! the sequential loop. A caller that must survive one catches it itself
//! with [`catch_panic`], the workspace's one `catch_unwind`: the serving
//! engine contains each batched forward with it on the caller thread — not
//! in a region, where the forward's own regions would run inline — then
//! rolls the batch back and re-runs its requests one at a time, so exactly
//! the poisoned requests terminalize `Failed`, each with the message of its
//! own panic.
//!
//! # Stress mode
//!
//! Static partitioning makes the *assignment* of chunks width-independent,
//! but not the order in which they finish, and on a host with two cores the
//! workers rarely finish in an unusual order. The test-only `stress` cargo
//! feature adds `Pool::with_stress`: a pool that, seeded, pauses each
//! worker for a random bounded while before every chunk claim and before the
//! region join. The width sweeps of the kernel proptests, the engine's
//! stream-identity and chaos tests and the gateway's chaos replay each run
//! under at least 16 such seeds at width 2, so a result folded in completion
//! order instead of chunk order fails there. Dev-dependencies turn the
//! feature on; a release build has neither the code nor a branch on it.
//!
//! # Where the pool is wired
//!
//! The packed GEMM over tiles of [`KERNEL_ROW_BLOCK`] weight rows, the
//! fused gather + quantize epilogue over row blocks (dynamic activation
//! quantization in `QuantizedLinear::forward`), the model's attention over
//! the (sequence, KV head) grid of a batched forward, and the quantized KV
//! cache's materialising `keys` / `values` over blocks of token rows. The
//! engine opens no region
//! of its own: each phase's one forward runs on [`Pool::current`], and its
//! stacked rows give the GEMM and the grid their width. While telemetry
//! is on, each region records [`names::POOL_TASKS`],
//! [`names::POOL_QUEUE_DEPTH`], [`names::POOL_REGION_WALL_NS`],
//! [`names::POOL_UTILIZATION_PERMILLE`] and one [`names::SPAN_POOL_WORKER`]
//! span per worker.
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
//! });
//! assert_eq!(data[3], 9);
//! // Bit-identical to the sequential pool, by construction.
//! let mut seq: Vec<u64> = (0..10).collect();
//! Pool::new(1).par_chunks_mut(&mut seq, 4, |_, c| c.iter_mut().for_each(|v| *v *= *v));
//! assert_eq!(data, seq);
//! ```

#![warn(missing_docs)]
// The pool re-raises its chunks' panics on the caller; a panicking
// construct of its own would be mistaken for one of them. Tests are exempt.
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

#[cfg(feature = "stress")]
mod stress;

use atom_telemetry::{names, Telemetry};
use std::cell::Cell;
use std::convert::Infallible;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::Instant;

thread_local! {
    /// Set while the current thread executes inside a parallel region;
    /// nested pool calls then run inline instead of spawning a second
    /// generation of workers (unbounded fan-out would oversubscribe the
    /// machine without changing any result).
    static IN_PARALLEL_REGION: Cell<bool> = const { Cell::new(false) };
    /// The pool [`Pool::install`] put in place on this thread, if any.
    static INSTALLED: Cell<Option<Pool>> = const { Cell::new(None) };
}

/// Restores the previously installed pool when an [`Pool::install`] call
/// returns or unwinds.
struct InstallGuard {
    prev: Option<Pool>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        INSTALLED.with(|p| p.set(prev));
    }
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

/// A deterministic data-parallel executor of fixed width.
///
/// Cheap to create and to clone — the pool carries configuration, not
/// threads; workers are scoped per region (see the crate docs for why).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
    /// Seed of the test-only schedule perturbation (see
    /// [`Pool::with_stress`]).
    #[cfg(feature = "stress")]
    stress: Option<u64>,
}

impl Pool {
    /// A pool running work on up to `threads` threads (the caller thread
    /// counts as one of them). `0` is clamped to `1`.
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
            #[cfg(feature = "stress")]
            stress: None,
        }
    }

    /// This pool, perturbing its own schedule for tests: every
    /// multi-worker region draws a stream from `seed`, and each worker
    /// yields or spins a bounded while before it claims a chunk and before
    /// the region joins. Outputs must not change — the perturbation only
    /// shuffles which chunk finishes first, which is what a result that
    /// depends on completion order would expose. Exists only with the
    /// test-only `stress` feature, which dev-dependencies enable.
    #[cfg(feature = "stress")]
    pub fn with_stress(mut self, seed: u64) -> Pool {
        self.stress = Some(seed);
        self
    }

    /// A single-threaded pool: every API runs inline on the caller.
    pub fn sequential() -> Self {
        Pool::new(1)
    }

    /// The process-wide pool, built on first use from `ATOM_THREADS` (an
    /// invalid value means 1; unset means the machine's available
    /// parallelism — see [`Pool::resolve_threads`]): what [`Pool::current`]
    /// is outside any [`Pool::install`]. This is the one place the variable
    /// is read.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            #[expect(
                clippy::disallowed_methods,
                reason = "audited config entry point: ATOM_THREADS is read once, at pool construction, and width never changes a result"
            )]
            let configured = std::env::var("ATOM_THREADS").ok();
            Pool::new(Self::resolve_threads(configured.as_deref()))
        })
    }

    /// The pool every kernel runs on: the one the innermost enclosing
    /// [`Pool::install`] on this thread put in place, else [`Pool::global`].
    pub fn current() -> Pool {
        INSTALLED.with(Cell::get).unwrap_or(*Pool::global())
    }

    /// Runs `f` with this pool as [`Pool::current`] on the calling thread,
    /// restoring the previous one when `f` returns or unwinds. This is how a
    /// caller that cannot pass a pool down — a model forward, whose linear
    /// layers take only their input — still decides the width of every
    /// GEMM, quantizer and attention region inside it. Workers of those
    /// regions run nested calls inline, so they never consult it.
    ///
    /// # Example
    ///
    /// ```
    /// use atom_parallel::Pool;
    ///
    /// let width = Pool::new(3).install(|| Pool::current().threads());
    /// assert_eq!(width, 3);
    /// assert_eq!(Pool::current(), *Pool::global());
    /// ```
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let _guard = InstallGuard {
            prev: INSTALLED.with(|p| p.replace(Some(*self))),
        };
        f()
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
    /// # Panics
    ///
    /// If `f` panics, the panic continues on the caller once every worker
    /// has stopped: that of the lowest-index chunk that panicked, with its
    /// own payload. A worker runs none of its chunks after its first panic.
    ///
    /// # Example
    ///
    /// ```
    /// use atom_parallel::Pool;
    ///
    /// let mut rows = vec![0u32; 6];
    /// Pool::new(4).par_chunks_mut(&mut rows, 2, |i, chunk| {
    ///     for v in chunk.iter_mut() {
    ///         *v = i as u32;
    ///     }
    /// });
    /// assert_eq!(rows, [0, 0, 1, 1, 2, 2]);
    /// ```
    pub fn par_chunks_mut<T, F>(&self, data: &mut [T], chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let chunk = chunk.max(1);
        let n_chunks = data.len().div_ceil(chunk);
        if n_chunks == 0 {
            return;
        }
        let workers = self.effective_workers(n_chunks);
        let mut region = Region::open(n_chunks, workers);
        let timed = region.timed;
        if workers <= 1 {
            region.busy_ns = run_chunk_span(&f, data, chunk, 0, n_chunks, 0, timed);
            return;
        }
        // Contiguous static partition: the first `n_chunks % workers`
        // workers take one extra chunk. Worker 0 is the caller thread.
        let base = n_chunks / workers;
        let extra = n_chunks % workers;
        #[cfg(feature = "stress")]
        let _stress = stress::Region::enter(self.stress);
        // A panic of the caller's own share unwinds out of the scope after
        // it has joined every worker; the caller owns the lowest chunks, so
        // that panic is the lowest-index one.
        let first_panic = std::thread::scope(|scope| {
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
                    #[cfg(feature = "stress")]
                    let stream = stress::fork(w);
                    handles.push(scope.spawn(move || {
                        #[cfg(feature = "stress")]
                        stress::adopt(stream);
                        let _guard = RegionGuard::enter();
                        let busy = run_chunk_span(f, head, chunk, start, count, w, timed);
                        #[cfg(feature = "stress")]
                        stress::pause();
                        if timed {
                            Telemetry::global().tracer().flush_thread();
                        }
                        busy
                    }));
                }
                first_chunk += count;
            }
            if let Some((head, start, count)) = caller_share {
                let _guard = RegionGuard::enter();
                region.busy_ns = run_chunk_span(f, head, chunk, start, count, 0, timed);
            }
            #[cfg(feature = "stress")]
            stress::pause();
            // Workers join in chunk order, so the first payload is the
            // lowest-index panic.
            let mut first_panic = None;
            for h in handles {
                match h.join() {
                    Ok(busy) => region.busy_ns = region.busy_ns.saturating_add(busy),
                    Err(payload) => {
                        first_panic.get_or_insert(payload);
                    }
                }
            }
            first_panic
        });
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
    }

    /// Maps `f` over `items`, returning the results in input order; each
    /// item is one chunk of [`Pool::par_chunks_mut`], whose panic contract
    /// it shares. The `Result` never holds an error.
    ///
    /// # Errors
    ///
    /// None: the error type is [`Infallible`], so callers bind the result
    /// with `let Ok(results) = …;`.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Result<Vec<R>, Infallible>
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
        });
        Ok(slots.into_iter().flatten().collect())
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

/// Telemetry bracket around one parallel region: queue-depth gauge up on
/// dispatch; gauge down, region wall and utilization histograms when it
/// drops — on return or while a chunk's panic unwinds through the region.
/// All of it is skipped (down to one atomic load) while telemetry is
/// disabled.
struct Region {
    timed: bool,
    start: Option<Instant>,
    workers: usize,
    /// Summed busy time of the workers that finished.
    busy_ns: u64,
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
            busy_ns: 0,
        }
    }
}

impl Drop for Region {
    fn drop(&mut self) {
        if !self.timed {
            return;
        }
        let t = Telemetry::global();
        t.gauge_set(names::POOL_QUEUE_DEPTH, 0);
        if let Some(start) = self.start {
            let wall = start.elapsed().as_nanos() as u64;
            t.record(names::POOL_REGION_WALL_NS, wall);
            let denom = (self.workers as u64).saturating_mul(wall).max(1);
            let util = self.busy_ns.saturating_mul(1000) / denom;
            t.record(names::POOL_UTILIZATION_PERMILLE, util.min(1000));
        }
    }
}

/// Executes `count` chunks starting at global chunk index `start` over
/// `data` (already narrowed to exactly those chunks), inside one
/// `pool_worker` telemetry span, and returns the worker's busy nanoseconds
/// (0 when untimed). A chunk's panic unwinds out of it, skipping the rest.
fn run_chunk_span<T, F>(
    f: &F,
    data: &mut [T],
    chunk: usize,
    start: usize,
    count: usize,
    worker: usize,
    timed: bool,
) -> u64
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
    for (j, piece) in data.chunks_mut(chunk).enumerate().take(count) {
        #[cfg(feature = "stress")]
        stress::pause();
        f(start + j, piece);
    }
    drop(span);
    busy_start.map_or(0, |s| s.elapsed().as_nanos() as u64)
}

/// Runs `f` on the calling thread and contains a panic as its message —
/// the one place the workspace catches a panic. A region re-raises its
/// chunks' panics on the caller, so wrapping a region (or work that opens
/// regions) in it contains those too; call it outside the region: inside
/// one, nested regions run inline and the work would lose its parallelism.
///
/// # Errors
///
/// Returns the panic's message if `f` panicked.
///
/// # Example
///
/// ```
/// let caught = atom_parallel::catch_panic(|| -> u8 { panic!("poisoned row") });
/// assert_eq!(caught, Err("poisoned row".to_string()));
/// assert_eq!(atom_parallel::catch_panic(|| 7), Ok(7));
/// ```
pub fn catch_panic<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| panic_message(payload.as_ref()))
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
        pool.par_chunks_mut(&mut data, 3, |i, c| c.iter_mut().for_each(|v| *v = i));
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
            });
            c.iter_mut().for_each(|v| *v = inner.iter().sum());
        });
        assert_eq!(outer, [6, 6, 6, 6]);
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let pool = Pool::new(4);
        let mut data: Vec<u8> = Vec::new();
        pool.par_chunks_mut(&mut data, 8, |_, _| unreachable!("no chunks"));
        let Ok(out) = pool.par_map(&data, |_, &v| v);
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
        });
        assert_eq!(data, [2, 2, 2]);
    }

    #[test]
    fn region_panic_resumes_lowest_chunk_on_caller() {
        // Chunks 1 and 4 of six panic. At every width the caller sees chunk
        // 1's own payload, each worker stops at its first panic, and a
        // worker without one runs all its chunks: width 1 runs chunk 0
        // alone, width 2 splits 0..3 | 3..6 and width 3 0..2 | 2..4 | 4..6.
        let pools = [
            (Pool::new(1), [7, 0, 0, 0, 0, 0]),
            (Pool::new(3), [7, 0, 7, 7, 0, 0]),
        ]
        .into_iter();
        #[cfg(feature = "stress")]
        let pools =
            pools.chain((0..16).map(|seed| (Pool::new(2).with_stress(seed), [7, 0, 0, 7, 0, 0])));
        let outer = Pool::new(5);
        for (pool, ran) in pools {
            let mut data = vec![0i32; 6];
            outer.install(|| {
                let caught = catch_panic(|| {
                    pool.install(|| {
                        Pool::current().par_chunks_mut(&mut data, 1, |i, c| {
                            if i == 1 || i == 4 {
                                panic!("chunk {i} poisoned");
                            }
                            c.fill(7);
                        })
                    })
                });
                assert_eq!(caught, Err("chunk 1 poisoned".to_string()), "{pool:?}");
                assert_eq!(Pool::current(), outer, "{pool:?}: installed pool restored");
                let wide = !Pool::new(2).is_sequential();
                assert!(wide, "{pool:?}: nested-region flag cleared");
            });
            assert_eq!(data, ran, "{pool:?}: chunks that ran");
        }
    }

    #[test]
    fn par_map_preserves_item_order() {
        let items: Vec<usize> = (0..23).collect();
        let Ok(out) = Pool::new(4).par_map(&items, |i, &v| {
            assert_eq!(i, v, "index argument matches item position");
            v * v
        });
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

    #[cfg(feature = "stress")]
    #[test]
    fn stressed_pool_changes_no_result() {
        let expect: Vec<usize> = (0..37).map(|j| j / 3).collect();
        for seed in 0..16 {
            let pool = Pool::new(2).with_stress(seed);
            let mut data = vec![0usize; 37];
            pool.par_chunks_mut(&mut data, 3, |i, c| c.iter_mut().for_each(|v| *v = i));
            assert_eq!(data, expect, "seed {seed}");
            let Ok(squares) = pool.par_map(&data, |i, &v| i * v);
            let want: Vec<usize> = expect.iter().enumerate().map(|(i, v)| i * v).collect();
            assert_eq!(squares, want, "seed {seed}");
        }
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
        });
        assert_eq!(data, [1; 8]);
    }
}
