//! Metric primitives: counters, gauges, log-bucketed histograms, and the
//! registry that holds one of each declared name.
//!
//! The registry is a fixed table with a row per name in [`crate::names`],
//! built whole when the registry is: a name carries its row, so recording is
//! an array index and relaxed atomics, with no lock and no lookup. Snapshots
//! are plain owned data and merge associatively, so per-thread or
//! per-process snapshots can be combined in any order.

use crate::names::{CounterName, GaugeName, HistogramName, COUNTERS, GAUGES, HISTOGRAMS};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// Number of identity buckets covering values `0..SUB_BUCKETS`.
const SUB_BUCKETS: u64 = 8;
/// log2 of [`SUB_BUCKETS`].
const SUB_BITS: u32 = 3;
/// Total bucket count: 8 identity buckets + 61 octaves × 8 sub-buckets.
pub const HISTOGRAM_BUCKETS: usize = 8 + 61 * 8;

/// Monotonic event counter.
#[derive(Debug, Default)]
pub(crate) struct Counter {
    value: AtomicU64,
    touched: AtomicBool,
}

impl Counter {
    /// Adds `v` to the counter.
    pub(crate) fn add(&self, v: u64) {
        self.value.fetch_add(v, Ordering::Relaxed);
        self.touched.store(true, Ordering::Relaxed);
    }

    /// The value once any add happened (an add of 0 included).
    fn read(&self) -> Option<u64> {
        let value = self.value.load(Ordering::Relaxed);
        self.touched.load(Ordering::Relaxed).then_some(value)
    }
}

/// Last-write-wins signed instantaneous value.
#[derive(Debug, Default)]
pub(crate) struct Gauge {
    value: AtomicI64,
    touched: AtomicBool,
}

impl Gauge {
    /// Sets the gauge.
    pub(crate) fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
        self.touched.store(true, Ordering::Relaxed);
    }

    /// The value once any set happened.
    fn read(&self) -> Option<i64> {
        let value = self.value.load(Ordering::Relaxed);
        self.touched.load(Ordering::Relaxed).then_some(value)
    }
}

/// Maps a value to its bucket index.
///
/// Values below 8 get identity buckets; larger values get 8 sub-buckets per
/// power of two, bounding the relative width of every bucket by 1/8
/// (12.5%), which in turn bounds quantile estimation error.
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let octave = msb - SUB_BITS;
        let sub = ((v >> octave) & (SUB_BUCKETS - 1)) as usize;
        (octave as usize) * 8 + sub + SUB_BUCKETS as usize
    }
}

/// Inclusive `[lower, upper]` value range covered by bucket `idx`.
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < SUB_BUCKETS as usize {
        (idx as u64, idx as u64)
    } else {
        let octave = ((idx - SUB_BUCKETS as usize) / 8) as u32;
        let sub = ((idx - SUB_BUCKETS as usize) % 8) as u64;
        let lower = (SUB_BUCKETS + sub) << octave;
        let width = 1u64 << octave;
        // `width - 1` first: the top bucket's upper bound is exactly
        // `u64::MAX`, so `lower + width` would overflow.
        (lower, lower + (width - 1))
    }
}

/// Lock-free log-bucketed histogram of `u64` samples.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        let buckets: Vec<AtomicU64> = (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            buckets: buckets.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Consistent-enough copy of the current state (individual fields are
    /// read relaxed; under concurrent writes the snapshot may straddle a
    /// recording, which quantile estimation tolerates).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// The snapshot once any sample was recorded.
    fn read(&self) -> Option<HistogramSnapshot> {
        (self.count.load(Ordering::Relaxed) > 0).then(|| self.snapshot())
    }
}

/// Owned, mergeable copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (length [`HISTOGRAM_BUCKETS`]).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Merges another snapshot into this one. Merging is associative and
    /// commutative, so per-thread snapshots combine in any order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`).
    ///
    /// Returns the upper bound of the bucket holding the quantile sample,
    /// clamped to the observed `[min, max]`, so the estimate is exact for
    /// values below 8 and within 12.5% of the true sample otherwise.
    /// Returns `None` for an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the quantile sample, 1-based.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (_, upper) = bucket_bounds(idx);
                return Some(upper.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Median estimate.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 90th percentile estimate.
    pub fn p90(&self) -> Option<u64> {
        self.quantile(0.90)
    }

    /// 99th percentile estimate.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Mean of all samples (exact, from `sum`/`count`).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

/// One metric per declared name, in a fixed table indexed by the name. A
/// fresh registry has every metric at zero and none in a snapshot yet.
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: [Counter; COUNTERS.len()],
    gauges: [Gauge; GAUGES.len()],
    histograms: [Histogram; HISTOGRAMS.len()],
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            counters: std::array::from_fn(|_| Counter::default()),
            gauges: std::array::from_fn(|_| Gauge::default()),
            histograms: std::array::from_fn(|_| Histogram::default()),
        }
    }
}

impl MetricsRegistry {
    /// The counter `name` names.
    pub(crate) fn counter(&self, name: CounterName) -> &Counter {
        &self.counters[name.row()]
    }

    /// The gauge `name` names.
    pub(crate) fn gauge(&self, name: GaugeName) -> &Gauge {
        &self.gauges[name.row()]
    }

    /// The histogram `name` names.
    pub(crate) fn histogram(&self, name: HistogramName) -> &Histogram {
        &self.histograms[name.row()]
    }

    /// Owned copy of every metric a hook has touched, keyed by name; a
    /// metric nothing recorded into is absent. Values are relaxed atomics,
    /// so a snapshot is not atomic across metrics.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: touched(COUNTERS, CounterName::as_str, &self.counters, Counter::read),
            gauges: touched(GAUGES, GaugeName::as_str, &self.gauges, Gauge::read),
            histograms: touched(
                HISTOGRAMS,
                HistogramName::as_str,
                &self.histograms,
                Histogram::read,
            ),
        }
    }
}

/// The touched metrics of one table, by owned name.
fn touched<N: Copy, M, V>(
    names: &[N],
    as_str: fn(N) -> &'static str,
    table: &[M],
    read: fn(&M) -> Option<V>,
) -> BTreeMap<String, V> {
    let rows = names.iter().zip(table);
    rows.filter_map(|(&name, metric)| Some((as_str(name).to_string(), read(metric)?)))
        .collect()
}

/// Owned copy of a [`MetricsRegistry`] at one point in time.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// One histogram, `None` when nothing recorded into it.
    pub fn histogram(&self, name: HistogramName) -> Option<&HistogramSnapshot> {
        self.histograms.get(name.as_str())
    }

    /// Sum of one histogram's samples, 0 when absent.
    pub fn hist_sum(&self, name: HistogramName) -> u64 {
        self.histogram(name).map_or(0, |h| h.sum)
    }

    /// A counter's value, 0 when absent.
    pub fn counter(&self, name: CounterName) -> u64 {
        self.counters.get(name.as_str()).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names;

    #[test]
    fn bucket_index_roundtrips_bounds() {
        for v in [0u64, 1, 7, 8, 9, 15, 16, 100, 1_000, 123_456, u64::MAX / 2, u64::MAX] {
            let idx = bucket_index(v);
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && v <= hi, "v={v} idx={idx} lo={lo} hi={hi}");
        }
        // Bucket ranges tile the u64 line in order.
        let mut expected_next = 0u64;
        for idx in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = bucket_bounds(idx);
            assert_eq!(lo, expected_next, "gap before bucket {idx}");
            expected_next = hi.wrapping_add(1);
        }
        assert_eq!(expected_next, 0, "buckets must cover all of u64");
    }

    #[test]
    fn bucket_relative_resolution() {
        for idx in 8..HISTOGRAM_BUCKETS {
            let (lo, hi) = bucket_bounds(idx);
            let width = (hi - lo) as f64;
            assert!(width / lo as f64 <= 0.125 + 1e-12, "bucket {idx} too wide");
        }
    }

    #[test]
    fn histogram_quantiles_small_values_exact() {
        let h = Histogram::default();
        for v in [1u64, 2, 3, 4, 5, 6, 7] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.0), Some(1));
        assert_eq!(s.p50(), Some(4));
        assert_eq!(s.quantile(1.0), Some(7));
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 28);
    }

    #[test]
    fn histogram_merge_matches_combined() {
        let a = Histogram::default();
        let b = Histogram::default();
        let all = Histogram::default();
        for v in 0..500u64 {
            let target = if v % 2 == 0 { &a } else { &b };
            target.record(v * v);
            all.record(v * v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
    }

    #[test]
    fn registry_reuses_metrics() {
        let r = MetricsRegistry::default();
        assert!(r.snapshot().counters.is_empty());
        r.counter(names::OP_GEMM_CALLS).add(2);
        r.counter(names::OP_GEMM_CALLS).add(3);
        r.counter(names::PREFIX_COW_FORKS).add(0);
        r.gauge(names::GATEWAY_BREAKER_TIER).set(-7);
        r.histogram(names::OP_GEMM_WALL_NS).record(42);
        let s = r.snapshot();
        assert_eq!(s.counter(names::OP_GEMM_CALLS), 5);
        // An add of 0 touches a counter.
        assert_eq!(s.counters.get(names::PREFIX_COW_FORKS.as_str()), Some(&0));
        assert_eq!(s.counters.len(), 2);
        assert_eq!(s.gauges[names::GATEWAY_BREAKER_TIER.as_str()], -7);
        assert_eq!(s.hist_sum(names::OP_GEMM_WALL_NS), 42);
        assert_eq!(s.histograms.len(), 1);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        assert_eq!(HistogramSnapshot::default().quantile(0.5), None);
    }
}
