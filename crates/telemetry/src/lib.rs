//! Zero-dependency observability for the Atom serving stack.
//!
//! Three pieces, one handle:
//!
//! * **Metrics** — counters, gauges, and log-bucketed mergeable histograms
//!   in a [`MetricsRegistry`] ([`metrics`]).
//! * **Spans** — scoped wall-time tracing via the [`span!`] macro, exported
//!   as Chrome `trace_event` JSON for `chrome://tracing`/Perfetto
//!   ([`mod@span`], [`export::chrome_trace`]).
//! * **Exporters** — Prometheus text and JSON renderings of a metrics
//!   snapshot ([`export`]).
//!
//! Instrumented code records through a [`Telemetry`] handle. The process
//! global ([`Telemetry::global`]) starts **disabled**: every hook first
//! checks one relaxed atomic and returns before touching clocks or locks,
//! so instrumentation costs nothing until [`Telemetry::enable_global`] is
//! called (typically by a bench binary). Tests that need isolation build
//! their own enabled instance with [`Telemetry::enabled`] instead of
//! sharing the global.
//!
//! Metric names are centralized in [`names`] and deliberately shared
//! between the measured CPU path and the gpu-sim cost model so the two
//! breakdowns line up key-for-key.
//!
//! ```
//! use atom_telemetry::{names, Telemetry};
//!
//! let t = Telemetry::enabled();
//! {
//!     let _timer = t.timer(names::OP_GEMM_WALL_NS);
//!     t.counter_add(names::OP_GEMM_BYTES, 4096);
//! } // timer records on drop
//! let snap = t.metrics().snapshot();
//! assert_eq!(snap.counter(names::OP_GEMM_BYTES), 4096);
//! assert_eq!(snap.histograms[names::OP_GEMM_WALL_NS].count, 1);
//! ```
#![warn(missing_docs)]
#![expect(
    clippy::disallowed_methods,
    reason = "this crate owns the wall clock: timers and spans are what it is for, and nothing it records feeds back into a result"
)]

pub mod export;
pub mod metrics;
pub mod names;
pub mod span;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use span::{SpanEvent, SpanGuard, Tracer};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One observability domain: an enabled/disabled switch, a metrics
/// registry, and a span tracer.
#[derive(Debug)]
pub struct Telemetry {
    enabled: AtomicBool,
    registry: MetricsRegistry,
    tracer: Tracer,
}

impl Telemetry {
    /// A disabled instance: every hook is a no-op until [`enable`] is
    /// called.
    ///
    /// [`enable`]: Telemetry::enable
    pub fn disabled() -> Self {
        Telemetry {
            enabled: AtomicBool::new(false),
            registry: MetricsRegistry::new(),
            tracer: Tracer::default(),
        }
    }

    /// An instance that records immediately.
    pub fn enabled() -> Self {
        let t = Telemetry::disabled();
        t.enable();
        t
    }

    /// The process-wide instance used by kernel and model instrumentation.
    /// Starts disabled.
    pub fn global() -> &'static Telemetry {
        static GLOBAL: OnceLock<Telemetry> = OnceLock::new();
        GLOBAL.get_or_init(Telemetry::disabled)
    }

    /// Turns the global instance on (idempotent).
    pub fn enable_global() {
        Telemetry::global().enable();
    }

    /// Turns the global instance off (idempotent). In-flight guards from
    /// before the flip still record.
    pub fn disable_global() {
        Telemetry::global().disable();
    }

    /// Turns this instance on.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Turns this instance off.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether hooks currently record. One relaxed load — this is the
    /// entire fast-path cost when disabled.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The metrics registry (recording through it bypasses the
    /// enabled check; prefer the hook methods below in instrumented code).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The span tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Adds to a named counter.
    #[inline]
    pub fn counter_add(&self, name: &'static str, v: u64) {
        if self.is_enabled() {
            self.registry.counter(name).add(v);
        }
    }

    /// Sets a named gauge.
    #[inline]
    pub fn gauge_set(&self, name: &'static str, v: i64) {
        if self.is_enabled() {
            self.registry.gauge(name).set(v);
        }
    }

    /// Records a sample into a named histogram.
    #[inline]
    pub fn record(&self, name: &'static str, v: u64) {
        if self.is_enabled() {
            self.registry.histogram(name).record(v);
        }
    }

    /// Starts a wall-time histogram timer; the elapsed nanoseconds record
    /// into `name` when the guard drops. No clock is read when disabled.
    #[inline]
    pub fn timer(&self, name: &'static str) -> TimerGuard<'_> {
        TimerGuard {
            start: self.is_enabled().then(|| (self, Instant::now())),
            name,
        }
    }

    /// Starts a trace span with numeric arguments (see [`span!`]). Returns
    /// a guard that records a [`SpanEvent`] on drop; a no-op guard when
    /// disabled.
    #[inline]
    pub fn span(&self, name: &'static str, args: &[(&'static str, f64)]) -> SpanGuard<'_> {
        if self.is_enabled() {
            SpanGuard::start(&self.tracer, name, args)
        } else {
            SpanGuard::noop()
        }
    }
}

/// Live timer from [`Telemetry::timer`]; records elapsed ns on drop.
#[derive(Debug)]
pub struct TimerGuard<'a> {
    start: Option<(&'a Telemetry, Instant)>,
    name: &'static str,
}

impl TimerGuard<'_> {
    /// Stops the timer and records now instead of at scope end.
    pub fn stop(self) {}
}

impl Drop for TimerGuard<'_> {
    fn drop(&mut self) {
        if let Some((t, start)) = self.start.take() {
            t.registry
                .histogram(self.name)
                .record(start.elapsed().as_nanos() as u64);
        }
    }
}

/// Opens a scoped trace span on the **global** telemetry instance; the span
/// closes when the returned guard drops.
///
/// ```
/// # fn quantize(_: &[f32]) {}
/// # let activations = [0.0f32; 8];
/// let n = activations.len();
/// {
///     let _span = atom_telemetry::span!("gemm_w4a4", bytes = n);
///     quantize(&activations);
/// }
/// ```
///
/// Arguments (at most [`span::MAX_SPAN_ARGS`]) are numeric and appear in
/// the Chrome trace's `args` pane; values are converted with `as f64`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Telemetry::global().span($name, &[])
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::Telemetry::global().span($name, &[$((stringify!($key), $value as f64)),+])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hooks_record_nothing() {
        let t = Telemetry::disabled();
        t.counter_add(names::OP_GEMM_BYTES, 10);
        t.record(names::OP_GEMM_WALL_NS, 10);
        t.gauge_set(names::ENGINE_KV_USED_BLOCKS, 3);
        drop(t.timer(names::OP_GEMM_WALL_NS));
        drop(t.span("s", &[]));
        let snap = t.metrics().snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(t.tracer().drain().is_empty());
    }

    #[test]
    fn enabled_hooks_record() {
        let t = Telemetry::enabled();
        t.counter_add("c", 2);
        {
            let _timer = t.timer("h");
        }
        drop(t.span("s", &[("rows", 4.0)]));
        let snap = t.metrics().snapshot();
        assert_eq!(snap.counter("c"), 2);
        assert_eq!(snap.histograms["h"].count, 1);
        let events = t.tracer().drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].args[0], Some(("rows", 4.0)));
    }

    #[test]
    fn toggling_is_dynamic() {
        let t = Telemetry::disabled();
        t.counter_add("c", 1);
        t.enable();
        t.counter_add("c", 1);
        t.disable();
        t.counter_add("c", 1);
        assert_eq!(t.metrics().snapshot().counter("c"), 1);
    }
}
