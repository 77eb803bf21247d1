//! The metrics registry and its three instrument kinds.
//!
//! A [`MetricsRegistry`] is a named map of instruments. Handles
//! ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`-backed clones:
//! the registry's lock is touched only when a handle is created, recording
//! itself is purely relaxed atomics. Get-or-create is idempotent — asking
//! twice for `pool.items.count` returns handles over the same storage, which
//! is what lets far-apart subsystems share one process-wide tally.

use crate::json::JsonObject;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Duration;

/// A monotone event counter (relaxed atomics; safe from any thread).
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A free-standing counter (not registered anywhere).
    fn detached() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Count one event.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Count `n` events.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value instrument (queue depth, cache entries, worker count).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A free-standing gauge (not registered anywhere).
    fn detached() -> Self {
        Gauge(Arc::new(AtomicI64::new(0)))
    }

    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Upper bucket bounds used when a histogram is created without explicit
/// bounds: powers of two from 1 µs to ~67 s. Values above the last bound
/// land in an implicit overflow bucket.
pub(crate) const DEFAULT_LATENCY_BOUNDS_US: [u64; 27] = {
    let mut b = [0u64; 27];
    let mut i = 0;
    while i < 27 {
        b[i] = 1u64 << i;
        i += 1;
    }
    b
};

#[derive(Debug)]
struct HistogramCore {
    /// Ascending upper bounds; `counts` has one extra slot for overflow.
    bounds: Vec<u64>,
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A fixed-bucket histogram of `u64` samples (latencies in µs by
/// convention). Recording is 4 relaxed atomic ops; percentile queries walk
/// the bucket array and report the upper bound of the bucket holding the
/// requested rank, clamped to the largest value actually observed.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

/// A point-in-time digest of one histogram.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Mean sample (0 when empty).
    pub(crate) mean: f64,
    /// Largest sample.
    pub max: u64,
    /// Median estimate.
    pub(crate) p50: u64,
    /// 90th-percentile estimate.
    pub(crate) p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

impl Histogram {
    /// A free-standing histogram with the given ascending bucket bounds.
    fn with_bounds(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bucket bounds must be strictly ascending");
        let mut counts = Vec::with_capacity(bounds.len() + 1);
        counts.resize_with(bounds.len() + 1, || AtomicU64::new(0));
        Histogram(Arc::new(HistogramCore {
            bounds: bounds.to_vec(),
            counts,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }

    /// A free-standing histogram with [`DEFAULT_LATENCY_BOUNDS_US`].
    fn detached() -> Self {
        Histogram::with_bounds(&DEFAULT_LATENCY_BOUNDS_US)
    }

    /// Record one sample.
    pub fn record(&self, value: u64) {
        let c = &self.0;
        // partition_point: first bucket whose upper bound admits the value
        let idx = c.bounds.partition_point(|&b| b < value);
        c.counts[idx].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(value, Ordering::Relaxed);
        c.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record a duration in whole microseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples recorded so far.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Largest sample recorded so far.
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0..=1.0`): the upper bound of the bucket holding
    /// the rank-`ceil(q·count)` sample, clamped to the observed maximum.
    /// Returns 0 for an empty histogram.
    fn percentile(&self, q: f64) -> u64 {
        let c = &self.0;
        let total = c.count.load(Ordering::Relaxed);
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let max = c.max.load(Ordering::Relaxed);
        let mut cumulative = 0u64;
        for (i, slot) in c.counts.iter().enumerate() {
            cumulative += slot.load(Ordering::Relaxed);
            if cumulative >= rank {
                return c.bounds.get(i).copied().unwrap_or(max).min(max);
            }
        }
        max
    }

    /// Count, sum, mean, max and the standard percentiles in one read.
    pub fn summary(&self) -> HistogramSummary {
        let count = self.count();
        let sum = self.sum();
        HistogramSummary {
            count,
            sum,
            mean: if count == 0 { 0.0 } else { sum as f64 / count as f64 },
            max: self.max(),
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p99: self.percentile(0.99),
        }
    }

    /// Render the summary as a single-line JSON object.
    fn summary_json(&self) -> String {
        let s = self.summary();
        let mut o = JsonObject::new();
        o.field_u64("count", s.count);
        o.field_u64("sum", s.sum);
        o.field_f64("mean", s.mean, 1);
        o.field_u64("max", s.max);
        o.field_u64("p50", s.p50);
        o.field_u64("p90", s.p90);
        o.field_u64("p99", s.p99);
        o.finish()
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A named map of instruments. `BTreeMap` keeps JSON dumps deterministically
/// sorted; the lock is only held for handle creation and dumps, never for
/// recording.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The process-wide registry every subsystem records into by default.
    pub fn global() -> &'static Arc<MetricsRegistry> {
        global()
    }

    fn get_or_insert<T: Clone>(
        &self,
        name: &str,
        pick: impl Fn(&Metric) -> Option<T>,
        make: impl FnOnce() -> (Metric, T),
    ) -> T {
        if let Some(metric) = self.metrics.read().expect("metrics lock").get(name) {
            return pick(metric).unwrap_or_else(|| {
                panic!("metric {name:?} is already registered as a {}", metric.kind())
            });
        }
        let mut map = self.metrics.write().expect("metrics lock");
        // double-checked: another thread may have created it meanwhile
        if let Some(metric) = map.get(name) {
            return pick(metric).unwrap_or_else(|| {
                panic!("metric {name:?} is already registered as a {}", metric.kind())
            });
        }
        let (metric, handle) = make();
        map.insert(name.to_owned(), metric);
        handle
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.get_or_insert(
            name,
            |m| if let Metric::Counter(c) = m { Some(c.clone()) } else { None },
            || {
                let c = Counter::detached();
                (Metric::Counter(c.clone()), c)
            },
        )
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.get_or_insert(
            name,
            |m| if let Metric::Gauge(g) = m { Some(g.clone()) } else { None },
            || {
                let g = Gauge::detached();
                (Metric::Gauge(g.clone()), g)
            },
        )
    }

    /// Get or create the histogram `name` with the default latency buckets.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.get_or_insert(
            name,
            |m| if let Metric::Histogram(h) = m { Some(h.clone()) } else { None },
            || {
                let h = Histogram::detached();
                (Metric::Histogram(h.clone()), h)
            },
        )
    }

    /// `true` when a metric of any kind is registered under `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.metrics.read().expect("metrics lock").contains_key(name)
    }

    /// The whole registry as one single-line JSON object, names sorted.
    /// Counters and gauges dump as numbers, histograms as
    /// `{"count":…,"sum":…,"mean":…,"max":…,"p50":…,"p90":…,"p99":…}`.
    pub fn to_json(&self) -> String {
        let map = self.metrics.read().expect("metrics lock");
        let mut o = JsonObject::new();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => o.field_u64(name, c.get()),
                Metric::Gauge(g) => o.field_i64(name, g.get()),
                Metric::Histogram(h) => o.field_raw(name, &h.summary_json()),
            };
        }
        o.finish()
    }
}

static GLOBAL: OnceLock<Arc<MetricsRegistry>> = OnceLock::new();

/// The process-wide registry. Subsystems record here unless handed an
/// explicit registry; `METRICS`-style dumps of this registry therefore see
/// trainer, pool, cache and serve metrics side by side.
pub fn global() -> &'static Arc<MetricsRegistry> {
    GLOBAL.get_or_init(|| Arc::new(MetricsRegistry::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("t.events.count");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(reg.counter("t.events.count").get(), 5, "same storage on re-lookup");

        let g = reg.gauge("t.depth.count");
        g.set(7);
        assert_eq!(g.get(), 7);
        assert_eq!(reg.gauge("t.depth.count").get(), 7);
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("t.x");
        reg.histogram("t.x");
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let h = Histogram::with_bounds(&[1, 2, 4, 8, 16]);
        for v in [1, 1, 2, 3, 5, 9, 9, 9, 9, 20] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 10);
        assert_eq!(s.sum, 68);
        assert_eq!(s.max, 20);
        assert!((s.mean - 6.8).abs() < 1e-9, "{}", s.mean);
        // ranks: bucket cumulative ≤1:2, ≤2:3, ≤4:4, ≤8:5, ≤16:9, overflow:10
        assert_eq!(h.percentile(0.5), 8, "rank 5 sits in the ≤8 bucket");
        assert_eq!(h.percentile(0.9), 16, "rank 9 sits in the ≤16 bucket");
        assert_eq!(h.percentile(0.99), 20, "rank 10 overflows; clamped to max");
        assert_eq!(h.percentile(0.0), 1, "rank clamps to 1; sample 1 sits in the ≤1 bucket");
        assert_eq!(h.percentile(1.0), 20);
    }

    #[test]
    fn percentile_clamps_to_observed_max() {
        let h = Histogram::with_bounds(&[100, 1000]);
        h.record(3);
        h.record(5);
        // rank lands in the ≤100 bucket, but nothing above 5 was observed
        assert_eq!(h.percentile(0.99), 5);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::detached();
        let s = h.summary();
        assert_eq!(s, HistogramSummary::default());
        assert_eq!(h.percentile(0.5), 0);
    }

    #[test]
    fn default_bounds_are_ascending_powers_of_two() {
        assert_eq!(DEFAULT_LATENCY_BOUNDS_US[0], 1);
        assert_eq!(DEFAULT_LATENCY_BOUNDS_US[26], 1 << 26);
        assert!(DEFAULT_LATENCY_BOUNDS_US.windows(2).all(|w| w[1] == w[0] * 2));
    }

    #[test]
    fn json_dump_is_sorted_single_line_and_typed() {
        let reg = MetricsRegistry::new();
        reg.counter("b.counter.count").add(2);
        reg.gauge("a.gauge.count").set(-1);
        let h = reg.histogram("c.hist.us");
        h.record(10);
        let json = reg.to_json();
        assert!(!json.contains('\n'));
        let a = json.find("a.gauge.count").unwrap();
        let b = json.find("b.counter.count").unwrap();
        let c = json.find("c.hist.us").unwrap();
        assert!(a < b && b < c, "sorted: {json}");
        assert!(json.contains("\"a.gauge.count\": -1"), "{json}");
        assert!(json.contains("\"b.counter.count\": 2"), "{json}");
        assert!(json.contains("\"c.hist.us\": {\"count\": 1"), "{json}");
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let reg = Arc::new(MetricsRegistry::new());
        let c = reg.counter("t.conc.count");
        let h = reg.histogram("t.conc.us");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let (c, h) = (c.clone(), h.clone());
                scope.spawn(move || {
                    for v in 0..1000u64 {
                        c.inc();
                        h.record(v % 64);
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
        assert_eq!(h.count(), 8000);
        assert_eq!(h.sum(), 8 * (0..1000u64).map(|v| v % 64).sum::<u64>());
    }
}
