//! A small metrics registry: named counters, gauges, and histograms.
//!
//! Handles are `Arc`-backed and lock-free to update; the registry is a
//! name → handle map consulted only at registration time, so hot paths
//! (cache lookups, pool bookkeeping) pay one atomic op per event.
//! [`MetricsRegistry::summary`] renders a human-oriented report for the
//! `--metrics` flag; `<name>.hits` / `<name>.misses` counter pairs are
//! collapsed into a single hit-rate line.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, PoisonError, RwLock};

/// A monotonically increasing event count.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not registered anywhere (for tests or optional wiring).
    #[must_use]
    pub fn detached() -> Self {
        Self::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add a wall-time duration as whole microseconds (saturating), the
    /// convention for `*_us` busy/latency counters throughout the stack.
    pub fn add_duration_us(&self, d: std::time::Duration) {
        self.add(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Reset to zero (used by cache `clear()` so stats windows restart).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// An instantaneous value, set outright or adjusted by deltas.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A gauge not registered anywhere.
    #[must_use]
    pub fn detached() -> Self {
        Self::default()
    }

    /// Set the current value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `delta` to the current value. Atomic, so concurrent
    /// adjusters never lose an update.
    pub fn add(&self, delta: f64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + delta).to_bits())
            });
    }

    /// Read the current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

const BUCKETS: usize = 65;

#[derive(Debug)]
struct HistInner {
    /// Power-of-two buckets: index 0 holds zeros, index `k` holds values
    /// in `[2^(k-1), 2^k)`.
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A log₂-bucketed histogram of non-negative integer samples
/// (microseconds, queue depths, ...).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistInner>);

impl Default for Histogram {
    fn default() -> Self {
        Self(Arc::new(HistInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }
}

fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

impl Histogram {
    /// A histogram not registered anywhere.
    #[must_use]
    pub fn detached() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn observe(&self, v: u64) {
        let inner = &self.0;
        inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(v, Ordering::Relaxed);
        inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a wall-time duration as whole microseconds (saturating),
    /// the convention for `*_us` latency histograms throughout the stack.
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Mean sample value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.0.sum.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Largest sample seen.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// Lower bound of the bucket containing quantile `q` (0 when empty).
    /// Approximate by construction: resolution is one power of two.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, b) in self.0.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << (i - 1) };
            }
        }
        self.max()
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A name → metric map. Registration is idempotent: asking for an
/// existing name returns a handle to the same underlying metric.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or register the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || Metric::Counter(Counter::detached())) {
            Metric::Counter(c) => c,
            other => panic!("metric `{name}` is not a counter: {other:?}"),
        }
    }

    /// Get or register the gauge `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || Metric::Gauge(Gauge::detached())) {
            Metric::Gauge(g) => g,
            other => panic!("metric `{name}` is not a gauge: {other:?}"),
        }
    }

    /// Get or register the histogram `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.get_or_insert(name, || Metric::Histogram(Histogram::detached())) {
            Metric::Histogram(h) => h,
            other => panic!("metric `{name}` is not a histogram: {other:?}"),
        }
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        if let Some(m) = self
            .metrics
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
        {
            return m.clone();
        }
        self.metrics
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name.to_owned())
            .or_insert_with(make)
            .clone()
    }

    /// Registered metric names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.metrics
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect()
    }

    /// Render a human-readable summary (no trailing newline).
    ///
    /// `<base>.hits` / `<base>.misses` counter pairs collapse to one
    /// `H hits / M misses (R% hit rate)` line under `<base>`.
    #[must_use]
    pub fn summary(&self) -> String {
        let metrics = self
            .metrics
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let mut lines = vec!["metrics:".to_owned()];
        let mut consumed: Vec<String> = Vec::new();
        for (name, metric) in &metrics {
            if consumed.iter().any(|c| c == name) {
                continue;
            }
            if let (Some(base), Metric::Counter(hits)) = (name.strip_suffix(".hits"), metric) {
                let miss_name = format!("{base}.misses");
                if let Some(Metric::Counter(misses)) = metrics.get(&miss_name) {
                    let (h, m) = (hits.get(), misses.get());
                    let total = h + m;
                    let rate = if total == 0 {
                        0.0
                    } else {
                        100.0 * h as f64 / total as f64
                    };
                    lines.push(format!(
                        "  {base}: {h} hits / {m} misses ({rate:.1}% hit rate)"
                    ));
                    consumed.push(miss_name);
                    continue;
                }
            }
            match metric {
                Metric::Counter(c) => lines.push(format!("  {name} = {}", c.get())),
                Metric::Gauge(g) => lines.push(format!("  {name} = {:.3}", g.get())),
                Metric::Histogram(h) => lines.push(format!(
                    "  {name}: n={} mean={:.1} p50={} p99={} max={}",
                    h.count(),
                    h.mean(),
                    h.quantile(0.5),
                    h.quantile(0.99),
                    h.max()
                )),
            }
        }
        lines.join("\n")
    }

    /// Render the registry as one JSON object, metric names sorted:
    /// counters as integers, gauges as floats (`null` when non-finite,
    /// which JSON cannot carry), histograms as
    /// `{"count":…,"mean":…,"p50":…,"p99":…,"max":…}`.
    ///
    /// Built for machine consumers such as `twocs serve`'s
    /// `/v1/metrics?format=json`; always a single well-formed JSON value
    /// (the exporter tests run it through [`crate::json::validate`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        use crate::chrome::escape_json;
        use std::fmt::Write as _;
        let metrics = self
            .metrics
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let mut out = String::from("{");
        for (i, (name, metric)) in metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":", escape_json(name));
            match metric {
                Metric::Counter(c) => {
                    let _ = write!(out, "{}", c.get());
                }
                Metric::Gauge(g) => {
                    let v = g.get();
                    if v.is_finite() {
                        let _ = write!(out, "{v}");
                    } else {
                        out.push_str("null");
                    }
                }
                Metric::Histogram(h) => {
                    let _ = write!(
                        out,
                        "{{\"count\":{},\"mean\":{:.3},\"p50\":{},\"p99\":{},\"max\":{}}}",
                        h.count(),
                        h.mean(),
                        h.quantile(0.5),
                        h.quantile(0.99),
                        h.max()
                    );
                }
            }
        }
        out.push('}');
        out
    }
}

static GLOBAL: LazyLock<MetricsRegistry> = LazyLock::new(MetricsRegistry::new);

/// The process-wide registry. Caches and the sweep pool register here so
/// one `--metrics` flag surfaces everything.
#[must_use]
pub fn global() -> &'static MetricsRegistry {
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip_and_identity() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        a.reset();
        assert_eq!(b.get(), 0);
    }

    #[test]
    fn gauge_stores_floats() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("util");
        g.set(0.75);
        assert!((reg.gauge("util").get() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn gauge_adds_never_lose_an_update() {
        let g = Gauge::detached();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        g.add(1.0);
                    }
                });
            }
        });
        g.add(-1500.0);
        assert_eq!(g.get(), 2500.0);
    }

    #[test]
    fn histogram_quantiles_are_bucket_lower_bounds() {
        let h = Histogram::detached();
        for v in [0, 1, 2, 3, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 512); // 1000 lives in [512, 1024)
        assert!(h.mean() > 180.0 && h.mean() < 190.0);
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.gauge("m");
        let _ = reg.counter("m");
    }

    #[test]
    fn summary_collapses_hit_miss_pairs() {
        let reg = MetricsRegistry::new();
        reg.counter("cache.gemm.hits").add(3);
        reg.counter("cache.gemm.misses").add(1);
        reg.counter("tasks").add(7);
        let s = reg.summary();
        assert!(s.contains("cache.gemm: 3 hits / 1 misses (75.0% hit rate)"));
        assert!(s.contains("tasks = 7"));
        assert!(!s.contains("cache.gemm.hits ="));
        assert!(!s.contains("cache.gemm.misses"));
    }

    #[test]
    fn to_json_is_well_formed_and_typed() {
        let reg = MetricsRegistry::new();
        reg.counter("serve.requests_total").add(12);
        reg.gauge("util").set(0.5);
        reg.gauge("bad \"name\"").set(f64::NAN);
        let h = reg.histogram("latency_us");
        h.observe(100);
        h.observe(900);
        let json = reg.to_json();
        crate::json::validate(&json).expect("metrics JSON must be well-formed");
        assert!(json.contains("\"serve.requests_total\":12"), "{json}");
        assert!(json.contains("\"util\":0.5"), "{json}");
        assert!(json.contains("\"bad \\\"name\\\"\":null"), "{json}");
        assert!(json.contains("\"latency_us\":{\"count\":2"), "{json}");
    }

    #[test]
    fn empty_registry_renders_an_empty_object() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.to_json(), "{}");
        crate::json::validate(&reg.to_json()).unwrap();
    }

    #[test]
    fn summary_handles_orphan_hits() {
        let reg = MetricsRegistry::new();
        reg.counter("lonely.hits").add(2);
        assert!(reg.summary().contains("lonely.hits = 2"));
    }
}
