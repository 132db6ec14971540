//! The metrics registry: typed counters, gauges, and log-linear
//! histograms, labeled by arbitrary `key=value` pairs (tenant, site,
//! link, stage, …), with deterministic Prometheus-text and JSON export.
//! [`LogHistogram`] is the same bucket scheme as a plain owned value,
//! for collectors that are moved between threads rather than shared.
//!
//! Handles are cheap to clone and lock-free on the hot path: a
//! [`Counter`] is an `Arc<AtomicU64>` bumped with a relaxed fetch-add,
//! a [`Gauge`] stores `f64` bits in an `AtomicU64`, and a [`Histogram`]
//! indexes a fixed table of atomic buckets. The registry's mutex is
//! taken only at registration and export time, never per-sample. A
//! no-op handle ([`Counter::noop`] etc.) is a `None` and compiles down
//! to a single branch — that is what a disabled
//! [`Telemetry`](crate::Telemetry) hands out.

use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sorted `key=value` label pairs identifying one series of a metric.
pub type Labels = Vec<(String, String)>;

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

// ---------------------------------------------------------------------------
// Counter

/// Monotone `u64` counter. Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A disconnected counter: every operation is a no-op.
    pub fn noop() -> Self {
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

    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

// ---------------------------------------------------------------------------
// Gauge

/// An `f64` gauge (set/add), stored as bits in an `AtomicU64`.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// A disconnected gauge: every operation is a no-op.
    pub fn noop() -> Self {
        Gauge(None)
    }

    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(g) = &self.0 {
            g.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Add `dv` (compare-and-swap loop; fine for the sim's contention
    /// levels, which are effectively zero).
    #[inline]
    pub fn add(&self, dv: f64) {
        if let Some(g) = &self.0 {
            let mut cur = g.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(cur) + dv).to_bits();
                match g.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
    }

    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |g| f64::from_bits(g.load(Ordering::Relaxed)))
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

/// Nearest-rank quantile `q` over per-bucket counts summing to
/// `count`: the matched bucket's midpoint, `None` when empty.
fn bucket_percentile(buckets: impl Iterator<Item = u64>, count: u64, q: f64) -> Option<u64> {
    if count == 0 {
        return None;
    }
    let rank = nearest_rank(q, count);
    let mut seen = 0u64;
    for (idx, n) in buckets.enumerate() {
        seen += n;
        if seen >= rank {
            return Some(bucket_mid(idx));
        }
    }
    Some(bucket_mid(BUCKETS - 1))
}

#[derive(Debug)]
struct HistogramCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum kept as f64 bits (a u64 sum of picosecond latencies can
    /// overflow over long runs).
    sum_bits: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v as f64).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Nearest-rank percentile (`p` in percent) over the bucketed
    /// distribution; returns the matched bucket's midpoint (0 when
    /// empty).
    fn percentile(&self, p: f64) -> u64 {
        bucket_percentile(
            self.buckets.iter().map(|b| b.load(Ordering::Relaxed)),
            self.count.load(Ordering::Relaxed),
            p / 100.0,
        )
        .unwrap_or(0)
    }

    fn snapshot(&self, name: &str, labels: &Labels) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            name: name.to_string(),
            labels: labels.clone(),
            count,
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            p50: self.percentile(50.0),
            p99: self.percentile(99.0),
            p999: self.percentile(99.9),
        }
    }
}

/// Log-linear histogram of `u64` samples (latencies in ps, batch
/// sizes, …) with approximate p50/p99/p999. Worst-case quantization
/// error of a reported percentile is ±3.2% of the true value.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// A disconnected histogram: every operation is a no-op.
    pub fn noop() -> Self {
        Histogram(None)
    }

    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.record(v);
        }
    }

    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |h| h.count.load(Ordering::Relaxed))
    }

    /// Approximate percentile (`p` in percent, e.g. `99.9`).
    pub fn percentile(&self, p: f64) -> u64 {
        self.0.as_ref().map_or(0, |h| h.percentile(p))
    }
}

/// Single-owner log-linear histogram: the bucket scheme and
/// nearest-rank walk of [`Histogram`], kept in plain `u64` cells so it
/// can live inside a value that moves between threads (a shard's
/// per-class stats) and be merged afterwards. Memory is fixed however
/// many samples arrive; percentiles carry the same ±3.2% bound.
#[derive(Debug, Clone, PartialEq, Eq)]
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

    /// Nearest-rank quantile `q` (in `[0, 1]`, e.g. `0.999`) as a
    /// bucket midpoint; `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        bucket_percentile(self.buckets.iter().copied(), self.count, q)
    }
}

// ---------------------------------------------------------------------------
// Snapshots

/// Point-in-time value of one counter series.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CounterSnapshot {
    pub name: String,
    pub labels: Labels,
    pub value: u64,
}

/// Point-in-time value of one gauge series.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GaugeSnapshot {
    pub name: String,
    pub labels: Labels,
    pub value: f64,
}

/// Point-in-time summary of one histogram series.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HistogramSnapshot {
    pub name: String,
    pub labels: Labels,
    pub count: u64,
    pub sum: f64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p99: u64,
    pub p999: u64,
}

/// Deterministic (sorted by name, then labels) registry snapshot —
/// the JSON exporter serializes exactly this.
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<CounterSnapshot>,
    pub gauges: Vec<GaugeSnapshot>,
    pub histograms: Vec<HistogramSnapshot>,
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

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<SeriesKey, Arc<AtomicU64>>,
    gauges: BTreeMap<SeriesKey, Arc<AtomicU64>>,
    histograms: BTreeMap<SeriesKey, Arc<HistogramCore>>,
}

/// The series store. Registration (cold path) takes a mutex and dedups
/// by `(name, labels)` — registering the same series twice returns a
/// handle to the same cell. Sampling through a handle never locks.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Register (or look up) a counter series.
    pub fn counter(&self, name: &str, labels: &Labels) -> Counter {
        let key = SeriesKey {
            name: name.to_string(),
            labels: labels.clone(),
        };
        let mut inner = self.inner.lock().unwrap();
        let cell = inner
            .counters
            .entry(key)
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter(Some(Arc::clone(cell)))
    }

    /// Register (or look up) a gauge series.
    pub fn gauge(&self, name: &str, labels: &Labels) -> Gauge {
        let key = SeriesKey {
            name: name.to_string(),
            labels: labels.clone(),
        };
        let mut inner = self.inner.lock().unwrap();
        let cell = inner
            .gauges
            .entry(key)
            .or_insert_with(|| Arc::new(AtomicU64::new(0f64.to_bits())));
        Gauge(Some(Arc::clone(cell)))
    }

    /// Register (or look up) a histogram series.
    pub fn histogram(&self, name: &str, labels: &Labels) -> Histogram {
        let key = SeriesKey {
            name: name.to_string(),
            labels: labels.clone(),
        };
        let mut inner = self.inner.lock().unwrap();
        let cell = inner
            .histograms
            .entry(key)
            .or_insert_with(|| Arc::new(HistogramCore::new()));
        Histogram(Some(Arc::clone(cell)))
    }

    /// Deterministic point-in-time snapshot of every series.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, c)| CounterSnapshot {
                    name: k.name.clone(),
                    labels: k.labels.clone(),
                    value: c.load(Ordering::Relaxed),
                })
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, g)| GaugeSnapshot {
                    name: k.name.clone(),
                    labels: k.labels.clone(),
                    value: f64::from_bits(g.load(Ordering::Relaxed)),
                })
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| h.snapshot(&k.name, &k.labels))
                .collect(),
        }
    }

    /// Prometheus text exposition of every series (sorted, hence
    /// byte-deterministic for a deterministic run). Histograms emit
    /// cumulative `_bucket{le=...}` lines for non-empty buckets plus
    /// `+Inf`, `_sum`, and `_count`.
    pub fn prometheus_text(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::new();
        let mut last_type: Option<(String, String)> = None;
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            if last_type.as_ref().map(|(n, k)| (n.as_str(), k.as_str())) != Some((name, kind)) {
                out.push_str(&format!("# TYPE {name} {kind}\n"));
                last_type = Some((name.to_string(), kind.to_string()));
            }
        };
        for (k, c) in &inner.counters {
            type_line(&mut out, &k.name, "counter");
            out.push_str(&format!(
                "{}{} {}\n",
                k.name,
                label_text(&k.labels),
                c.load(Ordering::Relaxed)
            ));
        }
        for (k, g) in &inner.gauges {
            type_line(&mut out, &k.name, "gauge");
            out.push_str(&format!(
                "{}{} {}\n",
                k.name,
                label_text(&k.labels),
                f64::from_bits(g.load(Ordering::Relaxed))
            ));
        }
        for (k, h) in &inner.histograms {
            type_line(&mut out, &k.name, "histogram");
            let mut cum = 0u64;
            for (idx, b) in h.buckets.iter().enumerate() {
                let n = b.load(Ordering::Relaxed);
                if n == 0 {
                    continue;
                }
                cum += n;
                let (_, hi) = bucket_bounds(idx);
                out.push_str(&format!(
                    "{}_bucket{} {}\n",
                    k.name,
                    label_text_with(&k.labels, "le", &hi.to_string()),
                    cum
                ));
            }
            out.push_str(&format!(
                "{}_bucket{} {}\n",
                k.name,
                label_text_with(&k.labels, "le", "+Inf"),
                h.count.load(Ordering::Relaxed)
            ));
            out.push_str(&format!(
                "{}_sum{} {}\n",
                k.name,
                label_text(&k.labels),
                f64::from_bits(h.sum_bits.load(Ordering::Relaxed))
            ));
            out.push_str(&format!(
                "{}_count{} {}\n",
                k.name,
                label_text(&k.labels),
                h.count.load(Ordering::Relaxed)
            ));
        }
        out
    }
}

fn label_text(labels: &Labels) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{{{}}}", body.join(","))
}

fn label_text_with(labels: &Labels, extra_k: &str, extra_v: &str) -> String {
    let mut all = labels.clone();
    all.push((extra_k.to_string(), extra_v.to_string()));
    all.sort();
    label_text(&all)
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
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", &labels(&[("tenant", "0")]));
        let mut exact: Vec<u64> = (0..10_000).map(|i| 1_000 + 37 * i).collect();
        for &v in &exact {
            h.record(v);
        }
        exact.sort_unstable();
        for p in [50.0, 99.0, 99.9] {
            let rank = ((p / 100.0 * exact.len() as f64).ceil() as usize).max(1);
            let truth = exact[rank - 1] as f64;
            let approx = h.percentile(p) as f64;
            let rel = (approx - truth).abs() / truth;
            assert!(rel < 0.04, "p{p}: approx {approx} vs exact {truth}");
        }
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
    fn log_histogram_percentiles_match_the_registry_histogram() {
        let samples = seeded_samples(7, 10_007);
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", &Labels::new());
        let mut owned = LogHistogram::new();
        for &v in &samples {
            h.record(v);
            owned.record(v);
        }
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(owned.percentile(q), Some(h.percentile(100.0 * q)), "q={q}");
        }
    }

    #[test]
    fn registry_dedups_series_and_snapshot_is_sorted() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x_total", &labels(&[("t", "1")]));
        let b = reg.counter("x_total", &labels(&[("t", "1")]));
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same series shares the cell");
        reg.counter("a_total", &Labels::new()).inc();
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["a_total", "x_total"]);
        assert_eq!(snap.counter("x_total", &labels(&[("t", "1")])), Some(3));
    }

    #[test]
    fn noop_handles_do_nothing() {
        let c = Counter::noop();
        c.inc();
        assert_eq!(c.get(), 0);
        let g = Gauge::noop();
        g.add(1.0);
        assert_eq!(g.get(), 0.0);
        let h = Histogram::noop();
        h.record(5);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn prometheus_text_has_type_lines_and_inf_bucket() {
        let reg = MetricsRegistry::new();
        reg.counter("req_total", &labels(&[("tenant", "0")])).inc();
        reg.gauge("load", &Labels::new()).set(0.5);
        let h = reg.histogram("lat_ps", &Labels::new());
        h.record(10);
        h.record(1_000);
        let text = reg.prometheus_text();
        assert!(text.contains("# TYPE req_total counter"));
        assert!(text.contains("req_total{tenant=\"0\"} 1"));
        assert!(text.contains("# TYPE load gauge"));
        assert!(text.contains("# TYPE lat_ps histogram"));
        assert!(text.contains("lat_ps_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("lat_ps_count 2"));
    }
}
