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
//! checks one relaxed atomic and returns before touching a clock or a
//! metric, so instrumentation costs nothing until
//! [`Telemetry::enable_global`] is called (typically by a bench binary).
//! Enabled, a hook indexes the registry's fixed table by the name it was
//! given and updates relaxed atomics; nothing locks. Tests that need
//! isolation build their own enabled instance with [`Telemetry::enabled`]
//! instead of sharing the global.
//!
//! # What is instrumented
//!
//! The fused group-dequant GEMM, the dense FP32 GEMM, quantized-KV
//! attention, the model's attention block and the quantization epilogue
//! record wall time, bytes moved, rows and call counts (`op.gemm.*`,
//! `op.attention.*`, `op.quant.*`). The serving engine records per-step
//! queue depth, KV-pool occupancy and step wall time, per-request TTFT
//! (steps) and TPOT (milli-steps), and counters for preemptions, degraded
//! admissions, faults and every terminal state; its tests assert these
//! match the per-request stats exactly. The thread pool records `pool.*`
//! per parallel region.
//!
//! Metric names are centralized in [`names`] and deliberately shared
//! between the measured CPU path and the gpu-sim cost model
//! (`atom_gpu_sim::record_iteration` tags the roofline's per-op outputs
//! under the same keys, splitting the fused quantization epilogue out of
//! the elementwise ops by its share of the memory streams), so the two
//! breakdowns line up key-for-key. The `telemetry_report` binary of
//! `atom-bench` serves a real workload with telemetry on, prints the
//! measured Fig. 3-style breakdown next to that prediction, and exits
//! non-zero when the components cover less than 95% of measured wall
//! time. What the hooks cost is the serving benchmark's
//! `telemetry.overhead_frac`. That key-for-key comparison makes the names
//! a contract; [`names`] says what holds it.
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
//! assert_eq!(snap.histograms[names::OP_GEMM_WALL_NS.as_str()].count, 1);
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

pub use metrics::{Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use span::{SpanEvent, SpanGuard, Tracer};

use names::{CounterName, GaugeName, HistogramName, SpanName};
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
            registry: MetricsRegistry::default(),
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

    /// The metrics registry, read through [`MetricsRegistry::snapshot`].
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The span tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Adds to a counter. Only a declared counter name compiles: neither a
    /// string nor a name of another kind does.
    ///
    /// ```compile_fail,E0308
    /// atom_telemetry::Telemetry::enabled().counter_add("op.gemm.bytes", 1);
    /// ```
    ///
    /// ```compile_fail,E0308
    /// use atom_telemetry::{names, Telemetry};
    /// Telemetry::enabled().counter_add(names::OP_GEMM_WALL_NS, 1); // a histogram
    /// ```
    #[inline]
    pub fn counter_add(&self, name: CounterName, v: u64) {
        if self.is_enabled() {
            self.registry.counter(name).add(v);
        }
    }

    /// Sets a gauge.
    ///
    /// ```compile_fail,E0308
    /// use atom_telemetry::{names, Telemetry};
    /// Telemetry::enabled().gauge_set(names::POOL_TASKS, 1); // a counter
    /// ```
    #[inline]
    pub fn gauge_set(&self, name: GaugeName, v: i64) {
        if self.is_enabled() {
            self.registry.gauge(name).set(v);
        }
    }

    /// Records a sample into a histogram.
    ///
    /// ```compile_fail,E0308
    /// use atom_telemetry::{names, Telemetry};
    /// Telemetry::enabled().record(names::POOL_QUEUE_DEPTH, 1); // a gauge
    /// ```
    #[inline]
    pub fn record(&self, name: HistogramName, v: u64) {
        if self.is_enabled() {
            self.registry.histogram(name).record(v);
        }
    }

    /// Starts a wall-time histogram timer; the elapsed nanoseconds record
    /// into `name` when the guard drops. No clock is read when disabled.
    ///
    /// ```compile_fail,E0308
    /// use atom_telemetry::{names, Telemetry};
    /// let _timer = Telemetry::enabled().timer(names::OP_GEMM_CALLS); // a counter
    /// ```
    #[inline]
    pub fn timer(&self, name: HistogramName) -> TimerGuard<'_> {
        TimerGuard {
            start: self.is_enabled().then(|| (self, Instant::now())),
            name,
        }
    }

    /// Starts a trace span with numeric arguments (see [`span!`]). Returns
    /// a guard that records a [`SpanEvent`] on drop; a no-op guard when
    /// disabled.
    ///
    /// ```compile_fail,E0308
    /// let _span = atom_telemetry::span!("gemm_w4a4");
    /// ```
    #[inline]
    pub fn span(&self, name: SpanName, args: &[(&'static str, f64)]) -> SpanGuard<'_> {
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
    name: HistogramName,
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
/// use atom_telemetry::names;
/// # fn quantize(_: &[f32]) {}
/// # let activations = [0.0f32; 8];
/// let n = activations.len();
/// {
///     let _span = atom_telemetry::span!(names::SPAN_GEMM_W4A4, bytes = n);
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
        drop(t.span(names::SPAN_GEMM_W4A4, &[]));
        let snap = t.metrics().snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(t.tracer().drain().is_empty());
    }

    #[test]
    fn enabled_hooks_record() {
        let t = Telemetry::enabled();
        t.counter_add(names::OP_GEMM_CALLS, 2);
        t.gauge_set(names::ENGINE_KV_USED_BLOCKS, 0);
        {
            let _timer = t.timer(names::OP_GEMM_WALL_NS);
        }
        drop(t.span(names::SPAN_GEMM_W4A4, &[("rows", 4.0)]));
        let snap = t.metrics().snapshot();
        assert_eq!(snap.counter(names::OP_GEMM_CALLS), 2);
        assert_eq!(snap.gauges[names::ENGINE_KV_USED_BLOCKS.as_str()], 0);
        assert_eq!(snap.histograms[names::OP_GEMM_WALL_NS.as_str()].count, 1);
        let events = t.tracer().drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, names::SPAN_GEMM_W4A4.as_str());
        assert_eq!(events[0].args[0], Some(("rows", 4.0)));
    }

    #[test]
    fn toggling_is_dynamic() {
        let t = Telemetry::disabled();
        t.counter_add(names::OP_GEMM_CALLS, 1);
        t.enable();
        t.counter_add(names::OP_GEMM_CALLS, 1);
        t.disable();
        t.counter_add(names::OP_GEMM_CALLS, 1);
        assert_eq!(t.metrics().snapshot().counter(names::OP_GEMM_CALLS), 1);
    }
}
