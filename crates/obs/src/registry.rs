//! Lock-cheap metrics registry: monotonic counters, gauges, and
//! log-bucketed latency histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are acquired once —
//! taking a short registration lock — and updated with plain atomics
//! afterwards, so the hot path never contends on the registry map. A
//! [`Registry`] is `Clone + Send + Sync` and carries no global state:
//! every subsystem that wants metrics receives its own handle, which
//! keeps tests deterministic and parallel-safe.
//!
//! [`Registry::disabled`] produces a registry whose handles short-circuit
//! every update to a single branch on a `None` — the compiled-out
//! configuration benchmarked by `benches/obs.rs`.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log₂ buckets a histogram keeps: bucket 0 holds zeros, bucket
/// `i ≥ 1` holds values in `[2^(i-1), 2^i)`. 64 buckets cover the whole
/// `u64` range (nanosecond latencies up to ~584 years).
const BUCKETS: usize = 65;

/// A monotonically increasing counter handle.
///
/// Disabled handles (from [`Registry::disabled`]) make every update a
/// single `None` branch.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A no-op counter (what disabled registries hand out).
    pub fn noop() -> Counter {
        Counter(None)
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for disabled handles).
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A gauge handle: a value that can move both ways.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// A no-op gauge.
    pub fn noop() -> Gauge {
        Gauge(None)
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: i64) {
        if let Some(cell) = &self.0 {
            cell.store(value, Ordering::Relaxed);
        }
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `value` if it is below it — a running maximum
    /// (e.g. the queue-depth high-water mark). Lowering
    /// requires [`Gauge::set`].
    #[inline]
    pub fn record_max(&self, value: i64) {
        if let Some(cell) = &self.0 {
            cell.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Current value (0 for disabled handles).
    pub fn get(&self) -> i64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// Shared histogram storage: log₂ buckets plus exact count/sum/min/max.
#[derive(Debug)]
struct HistogramCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    fn new() -> HistogramCore {
        HistogramCore {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, value: u64) {
        let idx = bucket_index(value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let sum = self.sum.load(Ordering::Relaxed);
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let min = self.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum,
            min: if count == 0 { 0 } else { min },
            max: self.max.load(Ordering::Relaxed),
            mean: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            p50: quantile(&buckets, count, 0.50),
            p90: quantile(&buckets, count, 0.90),
            p99: quantile(&buckets, count, 0.99),
        }
    }
}

/// Bucket index of a value: 0 for 0, else `64 - leading_zeros` (so bucket
/// `i` spans `[2^(i-1), 2^i)`).
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// Lower bound of a bucket.
fn bucket_floor(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else {
        1u64 << (idx - 1)
    }
}

/// Inclusive integer upper bound of a bucket — the Prometheus `le` value.
/// Bucket 0 holds only zeros; bucket `i` spans `[2^(i-1), 2^i)`, so its
/// largest integer member is `2^i - 1`; the final bucket absorbs
/// everything up to `u64::MAX`.
fn bucket_ceiling(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else if idx >= 64 {
        u64::MAX
    } else {
        (1u64 << idx) - 1
    }
}

/// Approximate quantile: walk the cumulative bucket counts to the target
/// rank and interpolate linearly inside the owning bucket.
fn quantile(buckets: &[u64], count: u64, q: f64) -> f64 {
    if count == 0 {
        return 0.0;
    }
    let target = q * count as f64;
    let mut cumulative = 0u64;
    for (idx, &n) in buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let before = cumulative as f64;
        cumulative += n;
        if cumulative as f64 >= target {
            let lo = bucket_floor(idx) as f64;
            let hi = if idx == 0 {
                0.0
            } else {
                (bucket_floor(idx) * 2) as f64
            };
            let frac = ((target - before) / n as f64).clamp(0.0, 1.0);
            return lo + (hi - lo) * frac;
        }
    }
    bucket_floor(buckets.len() - 1) as f64
}

/// A histogram handle recording `u64` samples (typically nanoseconds).
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// A no-op histogram.
    pub fn noop() -> Histogram {
        Histogram(None)
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(core) = &self.0 {
            core.record(value);
        }
    }

    /// True when updates actually land somewhere — callers use this to
    /// skip expensive sample *acquisition* (e.g. `Instant::now`) entirely
    /// when the registry is disabled.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Samples recorded so far (0 for disabled handles).
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |core| core.count.load(Ordering::Relaxed))
    }

    /// Point-in-time summary.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0
            .as_ref()
            .map_or_else(HistogramSnapshot::default, |core| core.snapshot())
    }
}

/// Summary of one histogram: exact count/sum/min/max plus log-bucket
/// approximations of the p50/p90/p99 quantiles.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
    /// Exact smallest sample (0 when empty).
    pub min: u64,
    /// Exact largest sample.
    pub max: u64,
    /// Exact arithmetic mean.
    pub mean: f64,
    /// Approximate median.
    pub p50: f64,
    /// Approximate 90th percentile.
    pub p90: f64,
    /// Approximate 99th percentile.
    pub p99: f64,
}

/// Point-in-time dump of a whole registry, with a JSON exposition.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Pretty JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }

    /// Parses a snapshot back from JSON.
    pub fn from_json(json: &str) -> Result<MetricsSnapshot, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Value of a counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Value of a gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
}

/// The metrics registry. Cloning shares the underlying store; a disabled
/// registry ([`Registry::disabled`]) hands out no-op handles so
/// instrumented code pays a single branch per update.
///
/// `Default` is the *disabled* registry: instrumentation is opt-in, and
/// config structs embedding a registry stay inert unless one is provided.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Option<Arc<RegistryInner>>,
}

impl Registry {
    /// A fresh, enabled registry.
    pub fn new() -> Registry {
        Registry {
            inner: Some(Arc::new(RegistryInner::default())),
        }
    }

    /// The no-op registry: every handle it hands out discards updates.
    pub fn disabled() -> Registry {
        Registry { inner: None }
    }

    /// False for the disabled registry.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers (or retrieves) a counter. Takes the registration lock —
    /// acquire handles once, outside hot loops.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            None => Counter(None),
            Some(inner) => {
                let mut map = inner.counters.lock().expect("counter registry poisoned");
                let cell = map
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(AtomicU64::new(0)));
                Counter(Some(Arc::clone(cell)))
            }
        }
    }

    /// Registers (or retrieves) a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            None => Gauge(None),
            Some(inner) => {
                let mut map = inner.gauges.lock().expect("gauge registry poisoned");
                let cell = map
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(AtomicI64::new(0)));
                Gauge(Some(Arc::clone(cell)))
            }
        }
    }

    /// Registers (or retrieves) a histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.inner {
            None => Histogram(None),
            Some(inner) => {
                let mut map = inner
                    .histograms
                    .lock()
                    .expect("histogram registry poisoned");
                let core = map
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(HistogramCore::new()));
                Histogram(Some(Arc::clone(core)))
            }
        }
    }

    /// Dumps every metric. Disabled registries return an empty snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.inner else {
            return MetricsSnapshot::default();
        };
        MetricsSnapshot {
            counters: inner
                .counters
                .lock()
                .expect("counter registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: inner
                .gauges
                .lock()
                .expect("gauge registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            histograms: inner
                .histograms
                .lock()
                .expect("histogram registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Prometheus-style text exposition: counters and gauges as scalar
    /// samples, histograms as proper `histogram` families with cumulative
    /// `_bucket{le="…"}` samples plus `_sum` / `_count`. The `le` bounds
    /// are the log₂ buckets' exact integer ceilings (`0`, `1`, `3`, `7`,
    /// …, `2^i - 1`), emitted up to the highest non-empty bucket and
    /// always closed with `le="+Inf"`. Metric names are sanitized (`.`
    /// and `-` → `_`).
    pub fn render_prometheus(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::new();
        for (name, value) in &snap.counters {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} counter");
            let _ = writeln!(out, "{n} {value}");
        }
        for (name, value) in &snap.gauges {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} gauge");
            let _ = writeln!(out, "{n} {value}");
        }
        // Cumulative buckets need the raw per-bucket counts, which the
        // summary snapshot does not carry — read the cores directly.
        let Some(inner) = &self.inner else {
            return out;
        };
        let cores: Vec<(String, Arc<HistogramCore>)> = inner
            .histograms
            .lock()
            .expect("histogram registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect();
        for (name, core) in cores {
            let n = sanitize(&name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            let buckets: Vec<u64> = core
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect();
            // Using the bucket total for `+Inf`/`_count` keeps the family
            // internally consistent even if a sample lands concurrently
            // with this scrape.
            let total: u64 = buckets.iter().sum();
            let last = buckets.iter().rposition(|&c| c != 0).unwrap_or(0);
            let mut cumulative = 0u64;
            for (idx, &count) in buckets.iter().enumerate().take(last + 1) {
                cumulative += count;
                let _ = writeln!(
                    out,
                    "{n}_bucket{{le=\"{}\"}} {cumulative}",
                    bucket_ceiling(idx)
                );
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {total}");
            let _ = writeln!(out, "{n}_sum {}", core.sum.load(Ordering::Relaxed));
            let _ = writeln!(out, "{n}_count {total}");
        }
        out
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '_' | ':' => c,
            _ => '_',
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_by_name() {
        let registry = Registry::new();
        let a = registry.counter("detect.windows_scored");
        let b = registry.counter("detect.windows_scored");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(
            registry.snapshot().counter("detect.windows_scored"),
            Some(5)
        );
    }

    #[test]
    fn gauges_move_both_ways() {
        let registry = Registry::new();
        let g = registry.gauge("sessions.open");
        g.add(3);
        g.add(-1);
        assert_eq!(g.get(), 2);
        g.set(10);
        assert_eq!(registry.snapshot().gauges["sessions.open"], 10);
    }

    #[test]
    fn gauge_record_max_is_a_running_maximum() {
        let registry = Registry::new();
        let g = registry.gauge("queue.depth");
        g.record_max(5);
        g.record_max(3); // below the max: ignored
        assert_eq!(g.get(), 5);
        g.record_max(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn disabled_registry_discards_everything() {
        let registry = Registry::disabled();
        assert!(!registry.is_enabled());
        let c = registry.counter("x");
        c.add(100);
        assert_eq!(c.get(), 0);
        let h = registry.histogram("y");
        assert!(!h.is_enabled());
        h.record(1);
        assert_eq!(h.count(), 0);
        assert_eq!(registry.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn clone_shares_storage() {
        let registry = Registry::new();
        let clone = registry.clone();
        clone.counter("n").inc();
        assert_eq!(registry.snapshot().counter("n"), Some(1));
    }

    #[test]
    fn histogram_summary_tracks_exact_extremes() {
        let registry = Registry::new();
        let h = registry.histogram("lat");
        for v in [10u64, 20, 30, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 1060);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 1000);
        assert!((s.mean - 265.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_are_log_bucket_accurate() {
        let registry = Registry::new();
        let h = registry.histogram("lat");
        // 100 samples of 100ns, 10 of ~100µs: p50 must sit in the small
        // bucket, p99 in the large one.
        for _ in 0..100 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(100_000);
        }
        let s = h.snapshot();
        assert!(s.p50 >= 64.0 && s.p50 < 256.0, "p50 = {}", s.p50);
        assert!(s.p99 >= 65_536.0 && s.p99 < 262_144.0, "p99 = {}", s.p99);
        assert_eq!(s.max, 100_000);
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for idx in 1..BUCKETS {
            assert_eq!(bucket_index(bucket_floor(idx)), idx);
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let registry = Registry::new();
        registry.counter("a.b").add(7);
        registry.gauge("g").set(-3);
        registry.histogram("h").record(42);
        let snap = registry.snapshot();
        let parsed = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn prometheus_exposition_contains_all_families() {
        let registry = Registry::new();
        registry.counter("detect.windows_scored").add(2);
        registry.gauge("sessions.open").set(1);
        registry.histogram("detect.score_ns").record(500);
        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE detect_windows_scored counter"));
        assert!(text.contains("detect_windows_scored 2"));
        assert!(text.contains("# TYPE sessions_open gauge"));
        assert!(text.contains("# TYPE detect_score_ns histogram"));
        // 500 lives in [256, 512): cumulative count 1 at le=511.
        assert!(text.contains("detect_score_ns_bucket{le=\"511\"} 1"));
        assert!(text.contains("detect_score_ns_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("detect_score_ns_sum 500"));
        assert!(text.contains("detect_score_ns_count 1"));
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative() {
        let registry = Registry::new();
        let h = registry.histogram("lat");
        // Samples spread over four distinct buckets (plus the zero
        // bucket), with known per-bucket counts.
        h.record(0); // bucket 0 (le=0): 1
        for _ in 0..3 {
            h.record(1); // bucket 1 (le=1): 3
        }
        for _ in 0..2 {
            h.record(300); // bucket 9 (le=511): 2
        }
        h.record(100_000); // bucket 17 (le=131071): 1
        let text = registry.render_prometheus();

        // Parse every `lat_bucket` sample in emission order.
        let mut bounds = Vec::new();
        let mut counts = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("lat_bucket{le=\"") {
                let (bound, count) = rest.split_once("\"} ").unwrap();
                bounds.push(bound.to_string());
                counts.push(count.parse::<u64>().unwrap());
            }
        }
        // Cumulativity: counts never decrease, and +Inf equals the total.
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
        assert_eq!(bounds.last().map(String::as_str), Some("+Inf"));
        assert_eq!(counts.last(), Some(&7));
        // Spot-check the known cumulative steps.
        let at = |b: &str| {
            counts[bounds
                .iter()
                .position(|x| x == b)
                .unwrap_or_else(|| panic!("bound {b} missing in {bounds:?}"))]
        };
        assert_eq!(at("0"), 1);
        assert_eq!(at("1"), 4);
        assert_eq!(at("511"), 6);
        assert_eq!(at("131071"), 7);
        // Empty buckets between populated ones are still emitted (with the
        // running cumulative), so the family has no holes below the top.
        assert_eq!(at("255"), 4);
    }

    #[test]
    fn empty_histogram_snapshot_is_zeroed() {
        let registry = Registry::new();
        let h = registry.histogram("empty");
        let s = h.snapshot();
        assert_eq!(s, HistogramSnapshot::default());
    }
}
