//! The metrics registry: counters, gauges and log-linear histograms,
//! labeled by arbitrary `key=value` pairs (tenant, site, link, stage,
//! …), with deterministic JSON export.
//!
//! Each kind has the one write path its traffic needs. A [`Counter`]
//! is the only handle: an `Arc<AtomicU64>` bumped with a relaxed
//! fetch-add, because the net simulator counts on every event without
//! taking a lock. Gauges and histograms are plain values under the
//! registry's mutex, written by one call per series when a run
//! publishes its totals (`Telemetry::add_gauge`,
//! `Telemetry::record_histogram`). [`LogHistogram`] is the one
//! histogram store: the registry keeps one per series beside the
//! series' exact sum, min and max, and collectors that move between
//! threads (ingest's per-class stats) keep their own. A disconnected
//! counter (what a disabled [`Telemetry`](crate::Telemetry) hands out)
//! is a `None` and costs one branch per bump.

use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sorted `key=value` label pairs identifying one series of a metric.
pub(crate) type Labels = Vec<(String, String)>;

/// Build a sorted label set from `(key, value)` pairs.
pub fn labels(pairs: &[(&str, &str)]) -> Labels {
    let mut v: Labels = pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    v.sort();
    v
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SeriesKey {
    name: String,
    labels: Labels,
}

impl SeriesKey {
    fn new(name: &str, labels: &Labels) -> Self {
        SeriesKey {
            name: name.to_string(),
            labels: labels.clone(),
        }
    }
}

// ---------------------------------------------------------------------------
// Counter

/// Monotone `u64` counter. Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A disconnected counter: every operation is a no-op.
    pub(crate) fn noop() -> Self {
        Counter(None)
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// Histogram

/// Sub-buckets per octave: 16 → worst-case relative quantization error
/// of a bucket midpoint is 1/32 ≈ 3.1%.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// Values 0..SUB get exact unit buckets; each octave above contributes
/// SUB buckets up to the top bit of `u64`.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Map a value to its log-linear bucket. Exact below `SUB`; above, the
/// top `SUB_BITS+1` significant bits select the bucket.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize;
    let octave = msb - SUB_BITS as usize + 1;
    let sub = ((v >> (msb - SUB_BITS as usize)) - SUB as u64) as usize;
    octave * SUB + sub
}

/// Inclusive-exclusive `[lo, hi)` value range covered by a bucket.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < SUB {
        return (idx as u64, idx as u64 + 1);
    }
    let octave = idx / SUB;
    let sub = (idx % SUB) as u64;
    let width = 1u64 << (octave - 1);
    let lo = (SUB as u64 + sub) << (octave - 1);
    (lo, lo.saturating_add(width))
}

/// Representative value reported for a bucket: its midpoint.
fn bucket_mid(idx: usize) -> u64 {
    let (lo, hi) = bucket_bounds(idx);
    lo + (hi - lo) / 2
}

/// 1-based nearest rank of quantile `q` (in `[0, 1]`) among `count > 0`
/// samples: the smallest rank whose cumulative share reaches `q`.
pub fn nearest_rank(q: f64, count: u64) -> u64 {
    ((q * count as f64).ceil() as u64).clamp(1, count)
}

/// Log-linear histogram of `u64` samples (latencies in ps, batch
/// sizes, …) with approximate nearest-rank percentiles, kept in plain
/// `u64` cells so it can live inside a value that moves between
/// threads (a shard's per-class stats) and be merged afterwards. Memory
/// is fixed however many samples arrive; the worst-case quantization
/// error of a reported percentile is ±3.2% of the true value.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    buckets: Box<[u64]>,
    count: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: vec![0; BUCKETS].into_boxed_slice(),
            count: 0,
        }
    }
}

impl LogHistogram {
    pub fn new() -> Self {
        LogHistogram::default()
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
    }

    /// Fold `other`'s samples into this histogram.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
    }

    /// Nearest-rank quantile `q` (in `[0, 1]`, e.g. `0.999`) as the
    /// matched bucket's midpoint; `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = nearest_rank(q, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bucket_mid(idx));
            }
        }
        Some(bucket_mid(BUCKETS - 1))
    }
}

/// One registry histogram series: the bucketed samples plus their
/// exact sum, min and max.
#[derive(Debug, Default)]
struct HistogramSeries {
    samples: LogHistogram,
    /// Accumulated in record order as `f64` (a `u64` sum of picosecond
    /// latencies can overflow over long runs).
    sum: f64,
    /// `None` until the first sample.
    min: Option<u64>,
    max: u64,
}

impl HistogramSeries {
    fn record(&mut self, v: u64) {
        self.samples.record(v);
        self.sum += v as f64;
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = self.max.max(v);
    }

    fn snapshot(&self, key: &SeriesKey) -> HistogramSnapshot {
        // Percent over 100, not a quantile literal: `99.9 / 100.0` is
        // 0.9990000000000001, which ranks one sample higher than 0.999
        // at 1,000 samples and at many counts after.
        let percentile = |p: f64| self.samples.percentile(p / 100.0).unwrap_or(0);
        HistogramSnapshot {
            name: key.name.clone(),
            labels: key.labels.clone(),
            count: self.samples.count,
            sum: self.sum,
            min: self.min.unwrap_or(0),
            max: self.max,
            p50: percentile(50.0),
            p99: percentile(99.0),
            p999: percentile(99.9),
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshots

/// Point-in-time value of one counter series.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub(crate) struct CounterSnapshot {
    pub(crate) name: String,
    pub(crate) labels: Labels,
    pub(crate) value: u64,
}

/// Point-in-time value of one gauge series.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub(crate) struct GaugeSnapshot {
    pub(crate) name: String,
    pub(crate) labels: Labels,
    pub(crate) value: f64,
}

/// Point-in-time summary of one histogram series.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HistogramSnapshot {
    pub(crate) name: String,
    pub(crate) labels: Labels,
    pub count: u64,
    pub(crate) sum: f64,
    pub(crate) min: u64,
    pub(crate) max: u64,
    pub p50: u64,
    pub p99: u64,
    pub p999: u64,
}

/// Deterministic (sorted by name, then labels) registry snapshot —
/// the JSON exporter serializes exactly this.
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct MetricsSnapshot {
    pub(crate) counters: Vec<CounterSnapshot>,
    pub(crate) gauges: Vec<GaugeSnapshot>,
    pub(crate) histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Value of a counter series, if present.
    pub fn counter(&self, name: &str, labels: &Labels) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name && &c.labels == labels)
            .map(|c| c.value)
    }

    /// Value of a gauge series, if present.
    pub fn gauge(&self, name: &str, labels: &Labels) -> Option<f64> {
        self.gauges
            .iter()
            .find(|g| g.name == name && &g.labels == labels)
            .map(|g| g.value)
    }

    /// Summary of a histogram series, if present.
    pub fn histogram(&self, name: &str, labels: &Labels) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|h| h.name == name && &h.labels == labels)
    }
}

// ---------------------------------------------------------------------------
// Registry

/// The series store behind an enabled handle's mutex, keyed by
/// `(name, labels)`: writing a series that exists adds to it.
#[derive(Debug, Default)]
pub(crate) struct Registry {
    counters: BTreeMap<SeriesKey, Arc<AtomicU64>>,
    gauges: BTreeMap<SeriesKey, f64>,
    histograms: BTreeMap<SeriesKey, HistogramSeries>,
}

impl Registry {
    /// Register (or look up) a counter series: registering it twice
    /// hands out two handles to one cell.
    pub(crate) fn counter(&mut self, name: &str, labels: &Labels) -> Counter {
        let cell = self.counters.entry(SeriesKey::new(name, labels));
        Counter(Some(Arc::clone(cell.or_default())))
    }

    /// Add `dv` to a gauge series (created at 0.0).
    pub(crate) fn add_gauge(&mut self, name: &str, labels: &Labels, dv: f64) {
        *self
            .gauges
            .entry(SeriesKey::new(name, labels))
            .or_insert(0.0) += dv;
    }

    /// Record `samples` in order into a histogram series, creating it
    /// (empty) if absent.
    pub(crate) fn record_histogram(
        &mut self,
        name: &str,
        labels: &Labels,
        samples: impl IntoIterator<Item = u64>,
    ) {
        let series = self
            .histograms
            .entry(SeriesKey::new(name, labels))
            .or_default();
        samples.into_iter().for_each(|v| series.record(v));
    }

    /// Deterministic point-in-time snapshot of every series.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, c)| CounterSnapshot {
                    name: k.name.clone(),
                    labels: k.labels.clone(),
                    value: c.load(Ordering::Relaxed),
                })
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(k, &value)| GaugeSnapshot {
                    name: k.name.clone(),
                    labels: k.labels.clone(),
                    value,
                })
                .collect(),
            histograms: self.histograms.iter().map(|(k, h)| h.snapshot(k)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        let mut prev = bucket_index(0);
        assert_eq!(prev, 0);
        for v in 1..100_000u64 {
            let idx = bucket_index(v);
            assert!(idx == prev || idx == prev + 1, "jump at {v}");
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && v < hi, "{v} outside [{lo},{hi}) idx {idx}");
            prev = idx;
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn bucket_bounds_tile_the_line() {
        for idx in 0..BUCKETS - 1 {
            let (_, hi) = bucket_bounds(idx);
            let (lo2, _) = bucket_bounds(idx + 1);
            assert_eq!(hi, lo2, "gap between bucket {idx} and {}", idx + 1);
        }
    }

    #[test]
    fn histogram_percentiles_are_close_to_exact() {
        let mut reg = Registry::default();
        let l = labels(&[("tenant", "0")]);
        let mut exact: Vec<u64> = (0..10_000).map(|i| 1_000 + 37 * i).collect();
        reg.record_histogram("lat", &l, exact.iter().copied());
        let snap = reg.snapshot();
        let h = snap.histogram("lat", &l).expect("series recorded");
        exact.sort_unstable();
        for (p, approx) in [(50.0, h.p50), (99.0, h.p99), (99.9, h.p999)] {
            let rank = ((p / 100.0 * exact.len() as f64).ceil() as usize).max(1);
            let truth = exact[rank - 1] as f64;
            let rel = (approx as f64 - truth).abs() / truth;
            assert!(rel < 0.04, "p{p}: approx {approx} vs exact {truth}");
        }
    }

    /// The snapshot fields of a 1,000-sample series and of an empty one,
    /// pinned to the values the registry has always exported. At 1,000
    /// samples `99.9 / 100.0` ranks the 1,000th sample and a literal
    /// 0.999 the 999th, so the outlier decides p999.
    #[test]
    fn histogram_snapshot_pins_the_p999_rank_and_the_empty_series() {
        let mut reg = Registry::default();
        let (a, b) = (labels(&[("tenant", "a")]), labels(&[("tenant", "b")]));
        let samples = (0..1_000u64).map(|i| if i == 500 { 5_000_000 } else { 1_000 + 37 * i });
        reg.record_histogram("lat", &a, samples);
        reg.record_histogram("lat", &b, []);
        let snap = reg.snapshot();
        let full = snap.histogram("lat", &a).expect("series a");
        assert_eq!(
            (full.count, full.sum, full.min, full.max),
            (1_000, 24_462_000.0, 1_000, 5_000_000)
        );
        assert_eq!((full.p50, full.p99, full.p999), (19_968, 37_888, 5_111_808));
        assert_eq!(
            reg.histograms[&SeriesKey::new("lat", &a)]
                .samples
                .percentile(0.999),
            Some(37_888),
            "a literal 0.999 ranks the 999th sample"
        );
        let empty = snap
            .histogram("lat", &b)
            .expect("an empty series still exports");
        assert_eq!(
            (empty.count, empty.sum, empty.min, empty.max),
            (0, 0.0, 0, 0)
        );
        assert_eq!((empty.p50, empty.p99, empty.p999), (0, 0, 0));
    }

    /// Seeded samples spanning the exact unit buckets and many octaves.
    fn seeded_samples(seed: u64, n: usize) -> Vec<u64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                // SplitMix64 step.
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                z >> (z % 64)
            })
            .collect()
    }

    #[test]
    fn log_histogram_merge_equals_recording_the_union() {
        let (xs, ys) = (seeded_samples(1, 3_000), seeded_samples(2, 5_000));
        let mut a = LogHistogram::new();
        xs.iter().for_each(|&v| a.record(v));
        let mut b = LogHistogram::new();
        ys.iter().for_each(|&v| b.record(v));
        let mut union = LogHistogram::new();
        xs.iter().chain(&ys).for_each(|&v| union.record(v));
        a.merge(&b);
        assert_eq!(a, union);
        assert_eq!(LogHistogram::new().percentile(0.5), None);
    }

    #[test]
    fn registry_dedups_series_and_snapshot_is_sorted() {
        let mut reg = Registry::default();
        let a = reg.counter("x_total", &labels(&[("t", "1")]));
        let b = reg.counter("x_total", &labels(&[("t", "1")]));
        a.inc();
        b.add(2);
        reg.counter("a_total", &Labels::new()).inc();
        reg.add_gauge("e_joules", &Labels::new(), 1.5);
        reg.add_gauge("e_joules", &Labels::new(), 2.0);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["a_total", "x_total"]);
        assert_eq!(snap.counter("x_total", &labels(&[("t", "1")])), Some(3));
        assert_eq!(snap.gauge("e_joules", &Labels::new()), Some(3.5));
    }
}
