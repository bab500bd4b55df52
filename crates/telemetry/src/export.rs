//! Exporters: Prometheus text exposition, JSON, and Chrome `trace_event`.
//!
//! All three are string builders over snapshot data — no I/O here; callers
//! decide where the bytes go. JSON is emitted by a minimal escaper rather
//! than a serde format crate so the telemetry crate stays dependency-free.

use crate::metrics::MetricsSnapshot;
use crate::span::SpanEvent;
use std::fmt::Write as _;

/// Replaces characters Prometheus forbids in metric names (`.`, `-`) with
/// underscores.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect()
}

/// Renders a snapshot in the Prometheus text exposition format. Histograms
/// are rendered as summaries (quantile-labelled series plus `_sum` and
/// `_count`).
pub fn prometheus_text(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {value}");
    }
    for (name, value) in &snapshot.gauges {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {value}");
    }
    for (name, hist) in &snapshot.histograms {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} summary");
        for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)] {
            if let Some(v) = hist.quantile(q) {
                let _ = writeln!(out, "{n}{{quantile=\"{label}\"}} {v}");
            }
        }
        let _ = writeln!(out, "{n}_sum {}", hist.sum);
        let _ = writeln!(out, "{n}_count {}", hist.count);
    }
    out
}

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Writes an f64 as JSON (finite values only; non-finite become null).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Renders a snapshot as a JSON object:
/// `{"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
/// mean, min, p50, p90, p99, max}}}`. Bucket arrays are omitted — the JSON
/// export is for reports, not for re-merging.
pub fn json(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::from("{\n  \"counters\": {");
    let mut first = true;
    for (name, value) in &snapshot.counters {
        let sep = if first { "" } else { "," };
        let _ = write!(out, "{sep}\n    \"{}\": {value}", json_escape(name));
        first = false;
    }
    out.push_str("\n  },\n  \"gauges\": {");
    let mut first = true;
    for (name, value) in &snapshot.gauges {
        let sep = if first { "" } else { "," };
        let _ = write!(out, "{sep}\n    \"{}\": {value}", json_escape(name));
        first = false;
    }
    out.push_str("\n  },\n  \"histograms\": {");
    let mut first = true;
    for (name, hist) in &snapshot.histograms {
        let sep = if first { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"mean\": {}, \"min\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}",
            json_escape(name),
            hist.count,
            hist.sum,
            json_f64(hist.mean().unwrap_or(0.0)),
            if hist.count == 0 { 0 } else { hist.min },
            hist.p50().unwrap_or(0),
            hist.p90().unwrap_or(0),
            hist.p99().unwrap_or(0),
            hist.max,
        );
        first = false;
    }
    out.push_str("\n  }\n}\n");
    out
}

/// Renders span events as a Chrome `trace_event` JSON document that loads
/// directly in `chrome://tracing` or <https://ui.perfetto.dev>. Timestamps
/// are microseconds relative to the tracer epoch; every event is a complete
/// ("ph":"X") duration event.
pub fn chrome_trace(events: &[SpanEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}",
            json_escape(e.name),
            e.tid,
            json_f64(e.start_ns as f64 / 1_000.0),
            json_f64(e.dur_ns as f64 / 1_000.0),
        );
        let args: Vec<(&str, f64)> = e.args.iter().flatten().copied().collect();
        if !args.is_empty() {
            out.push_str(",\"args\":{");
            for (j, (k, v)) in args.iter().enumerate() {
                let sep = if j > 0 { "," } else { "" };
                let _ = write!(out, "{sep}\"{}\":{}", json_escape(k), json_f64(*v));
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::names;
    use crate::span::{SpanGuard, Tracer};

    fn sample_snapshot() -> MetricsSnapshot {
        let r = MetricsRegistry::default();
        r.counter(names::OP_GEMM_BYTES).add(4096);
        r.gauge(names::ENGINE_KV_USED_BLOCKS).set(17);
        let h = r.histogram(names::OP_GEMM_WALL_NS);
        for v in [100u64, 200, 300, 400] {
            h.record(v);
        }
        r.snapshot()
    }

    #[test]
    fn prometheus_text_has_all_series() {
        let text = prometheus_text(&sample_snapshot());
        assert!(text.contains("# TYPE op_gemm_bytes counter"));
        assert!(text.contains("op_gemm_bytes 4096"));
        assert!(text.contains("engine_kv_used_blocks 17"));
        assert!(text.contains("op_gemm_wall_ns{quantile=\"0.5\"}"));
        assert!(text.contains("op_gemm_wall_ns_count 4"));
        assert!(text.contains("op_gemm_wall_ns_sum 1000"));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let doc = json(&sample_snapshot());
        assert!(doc.contains("\"op.gemm.bytes\": 4096"));
        assert!(doc.contains("\"count\": 4"));
        // Balanced braces as a cheap structural check.
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    #[test]
    fn chrome_trace_loads_fields() {
        let tracer = Tracer::default();
        let args = [("bytes", 64.0)];
        drop(SpanGuard::start(&tracer, names::SPAN_GEMM_W4A4, &args));
        let doc = chrome_trace(&tracer.drain());
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\"name\":\"gemm_w4a4\""));
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"args\":{\"bytes\":64}"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    #[test]
    fn escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(prom_name("op.gemm.wall_ns"), "op_gemm_wall_ns");
    }
}
