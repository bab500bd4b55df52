//! Scoped span tracing with thread-local buffering and a Chrome
//! `trace_event` exporter.
//!
//! A [`SpanGuard`] measures the wall time between its creation and drop and
//! records a complete ("ph":"X") event. Events are staged in a
//! thread-local buffer and flushed into the owning tracer's shared store in
//! batches, so the per-span cost on the hot path is an `Instant` read and a
//! `Vec::push`. The shared store is bounded: beyond the cap, events are
//! counted as dropped rather than accumulated.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Maximum key/value pairs attached to one span.
pub const MAX_SPAN_ARGS: usize = 2;

/// Thread-local events staged per tracer before a batched flush.
const FLUSH_BATCH: usize = 64;

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Span name (the Chrome trace "name" field).
    pub name: &'static str,
    /// Start offset from the tracer's epoch, ns.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Small per-process thread id (the Chrome trace "tid" field).
    pub tid: u64,
    /// Up to [`MAX_SPAN_ARGS`] numeric arguments.
    pub args: [Option<(&'static str, f64)>; MAX_SPAN_ARGS],
}

static NEXT_TRACER_ID: AtomicUsize = AtomicUsize::new(0);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
    // Staged events per tracer instance id. Events for a tracer are only
    // flushed by the thread that staged them (on batch overflow or when
    // that thread calls `flush_thread`), so single-threaded workloads pay
    // one mutex lock per FLUSH_BATCH spans.
    static STAGED: RefCell<BTreeMap<usize, Vec<SpanEvent>>> = const { RefCell::new(BTreeMap::new()) };
}

/// Collects [`SpanEvent`]s for one telemetry instance.
#[derive(Debug)]
pub struct Tracer {
    id: usize,
    epoch: Instant,
    events: Mutex<Vec<SpanEvent>>,
    dropped: AtomicU64,
    cap: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::with_capacity(1 << 20)
    }
}

impl Tracer {
    /// Tracer retaining at most `cap` events; later events count as
    /// dropped.
    pub fn with_capacity(cap: usize) -> Self {
        Tracer {
            id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            cap,
        }
    }

    /// Nanoseconds elapsed since this tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a completed span (hot path: staged thread-locally).
    pub fn record(&self, event: SpanEvent) {
        STAGED.with(|staged| {
            let mut staged = staged.borrow_mut();
            let buf = staged.entry(self.id).or_default();
            buf.push(event);
            if buf.len() >= FLUSH_BATCH {
                let batch = std::mem::take(buf);
                self.sink(batch);
            }
        });
    }

    /// Moves this thread's staged events for this tracer into the shared
    /// store. Exporters call this on their own thread; other threads'
    /// staged events flush when those threads hit a batch boundary.
    pub fn flush_thread(&self) {
        let batch = STAGED.with(|staged| staged.borrow_mut().remove(&self.id));
        if let Some(batch) = batch {
            self.sink(batch);
        }
    }

    fn sink(&self, batch: Vec<SpanEvent>) {
        let mut events = self.events.lock().expect("tracer lock");
        let room = self.cap.saturating_sub(events.len());
        if batch.len() > room {
            self.dropped.fetch_add((batch.len() - room) as u64, Ordering::Relaxed);
        }
        events.extend(batch.into_iter().take(room));
    }

    /// Flushes the calling thread and returns all retained events, clearing
    /// the store.
    pub fn drain(&self) -> Vec<SpanEvent> {
        self.flush_thread();
        std::mem::take(&mut *self.events.lock().expect("tracer lock"))
    }

    /// Events dropped because the store was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The calling thread's stable small id.
    pub fn current_thread_id() -> u64 {
        THREAD_ID.with(|t| *t)
    }
}

/// Live span; records a [`SpanEvent`] into its tracer on drop.
///
/// Obtained from `Telemetry::span` (usually via the `span!` macro). A guard
/// from a disabled telemetry instance holds no tracer and does nothing.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    state: Option<SpanState<'a>>,
}

#[derive(Debug)]
struct SpanState<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    start: Instant,
    start_ns: u64,
    args: [Option<(&'static str, f64)>; MAX_SPAN_ARGS],
}

impl<'a> SpanGuard<'a> {
    /// A guard that records nothing (disabled telemetry).
    pub fn noop() -> Self {
        SpanGuard { state: None }
    }

    /// Starts a span on `tracer` with up to [`MAX_SPAN_ARGS`] arguments
    /// (extras are ignored).
    pub fn start(tracer: &'a Tracer, name: &'static str, args: &[(&'static str, f64)]) -> Self {
        let mut fixed = [None; MAX_SPAN_ARGS];
        for (slot, &arg) in fixed.iter_mut().zip(args) {
            *slot = Some(arg);
        }
        SpanGuard {
            state: Some(SpanState {
                tracer,
                name,
                start: Instant::now(),
                start_ns: tracer.now_ns(),
                args: fixed,
            }),
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(state) = self.state.take() {
            state.tracer.record(SpanEvent {
                name: state.name,
                start_ns: state.start_ns,
                dur_ns: state.start.elapsed().as_nanos() as u64,
                tid: Tracer::current_thread_id(),
                args: state.args,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_on_drop() {
        let tracer = Tracer::default();
        {
            let _g = SpanGuard::start(&tracer, "outer", &[("bytes", 128.0)]);
            let _inner = SpanGuard::start(&tracer, "inner", &[]);
        }
        let events = tracer.drain();
        assert_eq!(events.len(), 2);
        // Inner drops first.
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[1].name, "outer");
        assert_eq!(events[1].args[0], Some(("bytes", 128.0)));
        assert!(events[1].dur_ns >= events[0].dur_ns);
    }

    #[test]
    fn noop_guard_records_nothing() {
        let tracer = Tracer::default();
        drop(SpanGuard::noop());
        assert!(tracer.drain().is_empty());
    }

    #[test]
    fn cap_bounds_memory() {
        let tracer = Tracer::with_capacity(10);
        for _ in 0..FLUSH_BATCH * 3 {
            drop(SpanGuard::start(&tracer, "s", &[]));
        }
        let events = tracer.drain();
        assert!(events.len() <= 10);
        assert!(tracer.dropped() > 0);
    }

    #[test]
    fn batches_flush_across_threads() {
        let tracer = std::sync::Arc::new(Tracer::default());
        let t2 = std::sync::Arc::clone(&tracer);
        std::thread::spawn(move || {
            for _ in 0..FLUSH_BATCH {
                drop(SpanGuard::start(&t2, "worker", &[]));
            }
        })
        .join()
        .expect("worker thread");
        let events = tracer.drain();
        assert_eq!(events.len(), FLUSH_BATCH);
        assert!(events.iter().all(|e| e.name == "worker"));
    }
}
