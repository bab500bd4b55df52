//! Outside-in tracing: spans recorded by the benchmark's own decorators
//! around the calls into each layer, kept in memory, attributed to layers
//! by self time, and written as a Chrome `trace_event` file at exit.
//!
//! Nothing inside the program is instrumented. What can be wrapped from
//! outside is wrapped — every linear layer ([`TimedLinear`], installed with
//! `LlamaModel::map_linears`), every KV-cache call ([`TimedKv`], handed out
//! by the engine's cache factory and propagated through `clone_box`), and
//! `Gateway::offer` / `Gateway::tick` (the replay loop). What cannot — the
//! attention arithmetic, norms and the output head inside
//! `LlamaModel::forward`, and all gateway and engine bookkeeping — is the
//! time *between* wrapped calls, attributed by where in the forward it
//! falls (see [`attribute`]).
//!
//! The recorder is thread-local: the benchmark runs at pool width 1, where
//! every pool region executes inline on the calling thread.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

use atom::QuantizedKvCache;
use atom_nn::{KvStore, LinearId, LinearLayer, Proj};
use atom_tensor::Matrix;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Gateway::offer`, recorded by the replay loop.
    Offer,
    /// `Gateway::tick`, recorded by the replay loop; parent of everything
    /// recorded while it ran.
    Tick,
    /// `KvStore::len(0)`: the first thing `LlamaModel::forward` does, and
    /// nothing else on the serving path calls it — a zero-length marker for
    /// "a forward of this sequence starts here".
    ForwardStart,
    Linear(LinearId),
    KvAppend,
    KvKeys,
    KvValues,
    KvClone,
    KvTruncate,
}

impl Kind {
    /// Span name in the trace file: `<layer>.<call>`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Offer => "gateway.offer",
            Kind::Tick => "gateway.tick",
            Kind::ForwardStart => "nn.forward_start",
            Kind::Linear(_) => "core.qlinear",
            Kind::KvAppend => "core.kv_append",
            Kind::KvKeys => "core.kv_keys",
            Kind::KvValues => "core.kv_values",
            Kind::KvClone => "prefix.kv_clone_box",
            Kind::KvTruncate => "prefix.kv_truncate",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The sequence the span belongs to: the id of the [`TimedKv`] instance
    /// serving it (0 for gateway spans). All spans of one admitted sequence
    /// share it.
    pub seq: u32,
    /// The instance this sequence's cache was cloned from (the donor on a
    /// prefix hit); 0 for a fresh cache.
    pub parent: u32,
    /// Rows: `m` of a linear, rows appended, or context length loaded.
    pub n: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    current_seq: u32,
    current_parent: u32,
    next_seq: u32,
    live_kv_bytes: u64,
    peak_kv_bytes: u64,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        spans: Vec::new(),
        current_seq: 0,
        current_parent: 0,
        next_seq: 1,
        live_kv_bytes: 0,
        peak_kv_bytes: 0,
    });
}

pub fn now_ns() -> u64 {
    REC.with(|r| r.borrow().epoch.elapsed().as_nanos() as u64)
}

/// Records a span that started at `start_ns` and ends now. `owner` is the
/// `(seq, parent)` of the KV instance it belongs to; `None` means the
/// sequence whose forward is running.
fn push(kind: Kind, start_ns: u64, owner: Option<(u32, u32)>, n: usize) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let end_ns = r.epoch.elapsed().as_nanos() as u64;
        let (seq, parent) = owner.unwrap_or((r.current_seq, r.current_parent));
        r.spans.push(Span {
            kind,
            start_ns,
            end_ns,
            seq,
            parent,
            n: n as u32,
        });
    });
}

/// Records a gateway-level span that started at `start_ns` and ends now.
pub fn close(kind: Kind, start_ns: u64) {
    push(kind, start_ns, Some((0, 0)), 0);
}

pub fn span_count() -> usize {
    REC.with(|r| r.borrow().spans.len())
}

/// Hands over everything recorded since the last call, and the peak of the
/// packed KV bytes held by live [`TimedKv`] instances (prefix-cache
/// snapshots included).
pub fn take() -> (Vec<Span>, u64) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let peak = r.peak_kv_bytes;
        r.peak_kv_bytes = r.live_kv_bytes;
        (std::mem::take(&mut r.spans), peak)
    })
}

/// A linear layer that records one span per `forward`.
#[derive(Debug, Clone)]
pub struct TimedLinear<L> {
    inner: L,
    id: LinearId,
}

impl<L> TimedLinear<L> {
    pub fn new(id: LinearId, inner: L) -> Self {
        TimedLinear { inner, id }
    }
}

impl<L: LinearLayer> LinearLayer for TimedLinear<L> {
    fn forward(&self, x: &Matrix) -> Matrix {
        let start_ns = now_ns();
        let y = self.inner.forward(x);
        push(Kind::Linear(self.id), start_ns, None, x.rows());
        y
    }

    fn in_features(&self) -> usize {
        self.inner.in_features()
    }

    fn out_features(&self) -> usize {
        self.inner.out_features()
    }
}

/// A quantized KV cache that records one span per call and knows which
/// instance it was cloned from.
#[derive(Debug)]
pub struct TimedKv {
    inner: QuantizedKvCache,
    id: u32,
    parent: u32,
    bytes: u64,
}

impl TimedKv {
    pub fn new(inner: QuantizedKvCache) -> Self {
        let bytes = inner.packed_bytes() as u64;
        let id = REC.with(|r| {
            let mut r = r.borrow_mut();
            r.live_kv_bytes += bytes;
            r.peak_kv_bytes = r.peak_kv_bytes.max(r.live_kv_bytes);
            let id = r.next_seq;
            r.next_seq += 1;
            id
        });
        TimedKv {
            inner,
            id,
            parent: 0,
            bytes,
        }
    }

    fn record(&self, kind: Kind, start_ns: u64, n: usize) {
        push(kind, start_ns, Some((self.id, self.parent)), n);
    }

    /// After a call that changed the cache: keeps the live and peak packed
    /// bytes current (outside the span just recorded).
    fn resized(&mut self) {
        let bytes = self.inner.packed_bytes() as u64;
        REC.with(|r| {
            let mut r = r.borrow_mut();
            r.live_kv_bytes = r.live_kv_bytes + bytes - self.bytes;
            r.peak_kv_bytes = r.peak_kv_bytes.max(r.live_kv_bytes);
        });
        self.bytes = bytes;
    }
}

impl Drop for TimedKv {
    fn drop(&mut self) {
        // `try_with`: a cache dropped during thread teardown has nowhere
        // left to report to.
        let _ = REC.try_with(|r| {
            if let Ok(mut r) = r.try_borrow_mut() {
                r.live_kv_bytes = r.live_kv_bytes.saturating_sub(self.bytes);
            }
        });
    }
}

impl KvStore for TimedKv {
    fn append(&mut self, layer: usize, k: &Matrix, v: &Matrix) {
        let start_ns = now_ns();
        self.inner.append(layer, k, v);
        self.record(Kind::KvAppend, start_ns, k.rows());
        self.resized();
    }

    fn keys(&self, layer: usize) -> Matrix {
        let start_ns = now_ns();
        let m = self.inner.keys(layer);
        self.record(Kind::KvKeys, start_ns, m.rows());
        m
    }

    fn values(&self, layer: usize) -> Matrix {
        let start_ns = now_ns();
        let m = self.inner.values(layer);
        self.record(Kind::KvValues, start_ns, m.rows());
        m
    }

    fn len(&self, layer: usize) -> usize {
        if layer == 0 {
            REC.with(|r| {
                let mut r = r.borrow_mut();
                r.current_seq = self.id;
                r.current_parent = self.parent;
            });
            self.record(Kind::ForwardStart, now_ns(), 0);
        }
        self.inner.len(layer)
    }

    fn clear(&mut self) {
        self.inner.clear();
        self.resized();
    }

    fn clone_box(&self) -> Box<dyn KvStore> {
        let start_ns = now_ns();
        let mut copy = TimedKv::new(self.inner.clone());
        copy.parent = self.id;
        copy.record(Kind::KvClone, start_ns, self.inner.len(0));
        Box::new(copy)
    }

    fn truncate(&mut self, tokens: usize) {
        let start_ns = now_ns();
        self.inner.truncate(tokens);
        self.record(Kind::KvTruncate, start_ns, tokens);
        self.resized();
    }
}

/// Nanoseconds of one timed region (the offers preceding a tick plus the
/// tick) by the layer that spent them, and the counts taken at the same
/// boundaries. The eight self times add up to the region's length exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerTimes {
    /// gateway: inside `Gateway::offer`.
    pub offer: u64,
    /// core: inside `QuantizedLinear::forward` (epilogue + GEMM).
    pub qlinear: u64,
    /// core: inside `KvStore::append`.
    pub kv_append: u64,
    /// core: inside `KvStore::keys` / `values` (dequantize on load).
    pub kv_load: u64,
    /// prefix: inside `clone_box` / `truncate` (snapshot copies).
    pub kv_copy: u64,
    /// nn: V-projection end to O-projection start, minus the KV calls in
    /// between — RoPE, scores, softmax, mixing.
    pub attention_self: u64,
    /// nn: every other gap inside a forward — embedding, norms, residuals,
    /// SwiGLU glue, and for a forward directly followed by another its
    /// output head and the engine's argmax.
    pub other_self: u64,
    /// serve: the region minus everything above — gateway and engine
    /// bookkeeping, which cannot be told apart from outside (and, for the
    /// last forward of a phase, its output head).
    pub sched_self: u64,

    pub forwards: u64,
    /// Sum of forward intervals: qlinear + kv_append + kv_load +
    /// attention_self + other_self.
    pub forward: u64,
    /// Forward intervals with m > 1 / m == 1, and their token counts.
    pub prefill: u64,
    pub decode: u64,
    pub prefill_tokens: u64,
    pub decode_tokens: u64,
    /// kv_append + kv_load spent inside m == 1 forwards.
    pub kv_in_decode: u64,
    pub qlinear_calls: u64,
}

impl LayerTimes {
    pub fn self_times(&self) -> [u64; 8] {
        [
            self.offer,
            self.qlinear,
            self.kv_append,
            self.kv_load,
            self.kv_copy,
            self.attention_self,
            self.other_self,
            self.sched_self,
        ]
    }

    pub fn add(&mut self, o: &LayerTimes) {
        self.offer += o.offer;
        self.qlinear += o.qlinear;
        self.kv_append += o.kv_append;
        self.kv_load += o.kv_load;
        self.kv_copy += o.kv_copy;
        self.attention_self += o.attention_self;
        self.other_self += o.other_self;
        self.sched_self += o.sched_self;
        self.forwards += o.forwards;
        self.forward += o.forward;
        self.prefill += o.prefill;
        self.decode += o.decode;
        self.prefill_tokens += o.prefill_tokens;
        self.decode_tokens += o.decode_tokens;
        self.kv_in_decode += o.kv_in_decode;
        self.qlinear_calls += o.qlinear_calls;
    }
}

/// A forward being walked: from its `ForwardStart` marker to the end of its
/// last linear.
struct OpenForward {
    start: u64,
    last_end: u64,
    m: u64,
    linear: u64,
    kv: u64,
    /// Sum of V-end → O-start windows, and the KV time inside them.
    windows: u64,
    kv_in_windows: u64,
    v_end: Option<u64>,
}

/// Attributes one region's spans (in time order) to layers.
///
/// A forward's interval runs from its `ForwardStart` marker to the end of
/// its last linear (the final down-projection); when the next recorded span
/// is another forward's marker, the gap up to it — output head, argmax —
/// is still this forward's. Self time = span minus children: the tick's
/// children are forwards and snapshot copies, a forward's are its linears,
/// KV calls and attention windows.
pub fn attribute(spans: &[Span], region_ns: u64) -> LayerTimes {
    let mut t = LayerTimes::default();
    let mut open: Option<OpenForward> = None;

    fn close(t: &mut LayerTimes, open: &mut Option<OpenForward>, next_forward_at: Option<u64>) {
        let Some(f) = open.take() else { return };
        let end = next_forward_at.unwrap_or(f.last_end).max(f.last_end);
        let interval = end - f.start;
        t.forwards += 1;
        t.forward += interval;
        t.attention_self += f.windows - f.kv_in_windows;
        t.other_self += interval - f.linear - f.windows - (f.kv - f.kv_in_windows);
        if f.m > 1 {
            t.prefill += interval;
            t.prefill_tokens += f.m;
        } else {
            t.decode += interval;
            t.decode_tokens += f.m;
            t.kv_in_decode += f.kv;
        }
    }

    for s in spans {
        let dur = s.dur_ns();
        match s.kind {
            Kind::Tick => {}
            Kind::Offer => t.offer += dur,
            Kind::ForwardStart => {
                close(&mut t, &mut open, Some(s.start_ns));
                open = Some(OpenForward {
                    start: s.start_ns,
                    last_end: s.end_ns,
                    m: 0,
                    linear: 0,
                    kv: 0,
                    windows: 0,
                    kv_in_windows: 0,
                    v_end: None,
                });
            }
            Kind::Linear(id) => {
                t.qlinear += dur;
                t.qlinear_calls += 1;
                if let Some(f) = open.as_mut() {
                    f.linear += dur;
                    f.last_end = s.end_ns;
                    f.m = u64::from(s.n);
                    match id.proj {
                        Proj::V => f.v_end = Some(s.end_ns),
                        Proj::O => {
                            if let Some(v_end) = f.v_end.take() {
                                f.windows += s.start_ns - v_end;
                            }
                        }
                        _ => {}
                    }
                }
            }
            Kind::KvAppend | Kind::KvKeys | Kind::KvValues => {
                if s.kind == Kind::KvAppend {
                    t.kv_append += dur;
                } else {
                    t.kv_load += dur;
                }
                if let Some(f) = open.as_mut() {
                    f.kv += dur;
                    if f.v_end.is_some() {
                        f.kv_in_windows += dur;
                    }
                }
            }
            Kind::KvClone | Kind::KvTruncate => {
                close(&mut t, &mut open, None);
                t.kv_copy += dur;
            }
        }
    }
    close(&mut t, &mut open, None);
    t.sched_self = region_ns - t.offer - t.forward - t.kv_copy;
    t
}

/// The model's linears have three shapes; the GEMM probes are keyed by
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LinearShape {
    /// Q, K, V, O: dim → dim.
    Square,
    /// Gate, Up: dim → ffn.
    Widen,
    /// Down: ffn → dim.
    Narrow,
}

impl LinearShape {
    pub const ALL: [LinearShape; 3] =
        [LinearShape::Square, LinearShape::Widen, LinearShape::Narrow];

    pub fn of(proj: Proj) -> LinearShape {
        match proj {
            Proj::Q | Proj::K | Proj::V | Proj::O => LinearShape::Square,
            Proj::Gate | Proj::Up => LinearShape::Widen,
            Proj::Down => LinearShape::Narrow,
            Proj::Router => panic!("the benchmark's model is dense: no MoE router"),
        }
    }
}

/// Chrome `trace_event` JSON ("X" complete events, microsecond timestamps)
/// of spans already rebased onto one timeline. `tick_of[i]` is the tick
/// span `i` belongs to.
pub fn chrome_trace(spans: &[Span], tick_of: &[u32]) -> String {
    let mut out = String::with_capacity(spans.len() * 160);
    out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    let mut event = |name: &str, s: &Span, tick: u32, linear: Option<LinearId>| {
        let separator = if out.ends_with('[') { "\n" } else { ",\n" };
        let layer = name.split('.').next().unwrap_or(name);
        let linear = linear.map_or(String::new(), |id| format!(", \"linear\": \"{id}\""));
        let _ = write!(
            out,
            "{separator}{{\"name\": \"{name}\", \"cat\": \"{layer}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"tick\": {tick}, \"seq\": {}, \"parent\": {}, \"rows\": {}{linear}}}}}",
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.seq,
            s.parent,
            s.n,
        );
    };
    // Forward intervals are derived (marker → last linear) so the viewer
    // shows them as the parents they are.
    let mut forward: Option<(Span, u32)> = None;
    for (s, &tick) in spans.iter().zip(tick_of) {
        let ends_a_forward = matches!(
            s.kind,
            Kind::ForwardStart | Kind::Tick | Kind::KvClone | Kind::KvTruncate
        );
        if let Some((f, ftick)) = forward.take_if(|_| ends_a_forward) {
            event("nn.forward", &f, ftick, None);
        }
        match s.kind {
            Kind::ForwardStart => forward = Some((*s, tick)),
            Kind::Linear(id) => {
                if let Some((f, _)) = forward.as_mut() {
                    f.end_ns = s.end_ns;
                    f.n = s.n;
                }
                event(s.kind.name(), s, tick, Some(id));
            }
            _ => event(s.kind.name(), s, tick, None),
        }
    }
    if let Some((f, ftick)) = forward {
        event("nn.forward", &f, ftick, None);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, start_ns: u64, end_ns: u64, n: u32) -> Span {
        Span {
            kind,
            start_ns,
            end_ns,
            seq: 1,
            parent: 0,
            n,
        }
    }

    fn lin(proj: Proj, start_ns: u64, end_ns: u64, m: u32) -> Span {
        span(Kind::Linear(LinearId::new(0, proj)), start_ns, end_ns, m)
    }

    /// One region, 1000 ns long: an offer, then a tick holding a snapshot
    /// copy, a 3-row prefill forward and a decode forward right behind it.
    fn hand_built() -> Vec<Span> {
        vec![
            span(Kind::Offer, 10, 30, 0), // 20
            // tick spans 40..1000, recorded when it ends, so listed last
            span(Kind::KvClone, 50, 90, 0),        // 40
            span(Kind::KvTruncate, 90, 100, 0),    // 10
            span(Kind::ForwardStart, 120, 120, 0), // prefill forward from 120
            lin(Proj::Q, 130, 160, 3),             // 30
            lin(Proj::K, 160, 180, 3),             // 20
            lin(Proj::V, 180, 200, 3),             // 20, window opens at 200
            span(Kind::KvAppend, 205, 225, 3),     // 20
            span(Kind::KvKeys, 225, 240, 3),       // 15
            span(Kind::KvValues, 240, 255, 3),     // 15
            lin(Proj::O, 300, 330, 3),             // 30, window 200..300 = 100
            lin(Proj::Gate, 340, 370, 3),          // 30
            lin(Proj::Up, 370, 400, 3),            // 30
            lin(Proj::Down, 410, 450, 3),          // 40, last linear ends 450
            span(Kind::ForwardStart, 480, 480, 0), // decode forward; tail 450..480
            lin(Proj::Q, 485, 495, 1),
            lin(Proj::K, 495, 505, 1),
            lin(Proj::V, 505, 515, 1),
            span(Kind::KvAppend, 520, 560, 1), // 40
            span(Kind::KvKeys, 560, 570, 4),   // 10
            span(Kind::KvValues, 570, 580, 4), // 10
            lin(Proj::O, 600, 610, 1),         // window 515..600 = 85
            lin(Proj::Gate, 615, 625, 1),
            lin(Proj::Up, 625, 635, 1),
            lin(Proj::Down, 640, 650, 1), // ends 650; then engine work to 1000
            span(Kind::Tick, 40, 1000, 0),
        ]
    }

    #[test]
    fn self_times_follow_span_minus_children_and_sum_to_the_region() {
        let t = attribute(&hand_built(), 1000);
        assert_eq!(t.offer, 20);
        assert_eq!(t.kv_copy, 50);
        assert_eq!(t.qlinear, 200 + 70);
        assert_eq!(t.qlinear_calls, 14);
        assert_eq!(t.kv_append, 20 + 40);
        assert_eq!(t.kv_load, 30 + 20);
        // windows 100 and 85, minus the KV calls inside them (50 and 60)
        assert_eq!(t.attention_self, 50 + 25);
        // prefill forward: 120..480 (its tail runs to the next marker) = 360;
        // decode forward: 480..650 = 170
        assert_eq!((t.forwards, t.forward), (2, 360 + 170));
        assert_eq!((t.prefill, t.prefill_tokens), (360, 3));
        assert_eq!((t.decode, t.decode_tokens), (170, 1));
        assert_eq!(t.kv_in_decode, 60);
        // forward minus linears minus windows: 360-200-100, 170-70-85
        assert_eq!(t.other_self, 60 + 15);
        assert_eq!(t.sched_self, 1000 - 20 - 530 - 50);
        assert_eq!(t.self_times().iter().sum::<u64>(), 1000);
        assert_eq!(
            t.forward,
            t.qlinear + t.kv_append + t.kv_load + t.attention_self + t.other_self
        );
    }

    #[test]
    fn a_snapshot_copy_ends_a_forwards_tail() {
        // Forward, then clone_box: the gap between them is the engine's.
        let spans = vec![
            span(Kind::ForwardStart, 0, 0, 0),
            lin(Proj::Q, 10, 20, 2),
            lin(Proj::Down, 30, 40, 2),
            span(Kind::KvClone, 70, 80, 0),
            span(Kind::Tick, 0, 100, 0),
        ];
        let t = attribute(&spans, 100);
        assert_eq!(t.forward, 40);
        assert_eq!(t.kv_copy, 10);
        assert_eq!(t.sched_self, 50);
        assert_eq!(t.self_times().iter().sum::<u64>(), 100);
    }

    #[test]
    fn decorators_record_spans_and_kv_lineage() {
        let _ = take();
        let mut kv = TimedKv::new(QuantizedKvCache::new(1, 16, 8, 4));
        let k = Matrix::full(2, 16, 0.5);
        assert_eq!(kv.len(0), 0);
        kv.append(0, &k, &k);
        let _ = kv.keys(0);
        let copy = kv.clone_box();
        drop(copy);
        let (spans, peak) = take();
        let kinds: Vec<Kind> = spans.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            [
                Kind::ForwardStart,
                Kind::KvAppend,
                Kind::KvKeys,
                Kind::KvClone
            ]
        );
        assert_eq!(spans[3].parent, spans[1].seq, "the clone names its donor");
        assert_ne!(spans[3].seq, spans[1].seq);
        assert!(spans.windows(2).all(|w| w[0].end_ns <= w[1].end_ns));
        assert!(
            peak >= 2 * kv.inner.packed_bytes() as u64,
            "the clone's bytes were live"
        );
    }

    #[test]
    fn trace_file_is_json_with_one_event_per_span_plus_forwards() {
        let spans = hand_built();
        let tick_of = vec![0u32; spans.len()];
        let text = chrome_trace(&spans, &tick_of);
        let parsed = crate::json::parse(&text).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("events");
        // every span except the 2 markers, plus 2 derived nn.forward spans
        assert_eq!(events.len(), spans.len());
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(|n| n.as_str()) == Some("nn.forward")));
    }
}
