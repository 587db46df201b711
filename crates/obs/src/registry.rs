//! Metric registration and snapshotting.
//!
//! A [`Registry`] maps dotted names to live metric handles. Recording
//! through a handle is lock-free ([`crate::metric`]); the registry's mutex
//! guards only registration and snapshots — neither is on a hot path.
//!
//! [`Registry::snapshot`] aggregates every metric's shards into an
//! immutable [`MetricsSnapshot`]: a sorted list of `(name, value)`
//! samples. Snapshots subtract ([`MetricsSnapshot::delta_since`] — how a
//! report scopes counters to one run), merge
//! ([`MetricsSnapshot::merged`] — how a server combines the process-wide
//! and per-pipeline registries), and export
//! ([`MetricsSnapshot::encode_text`] — Prometheus text exposition, the
//! `/metrics` payload of the future `blast serve`).

use crate::metric::{bucket_bounds, Counter, Gauge, Histogram, FINITE_BUCKETS, TOTAL_BUCKETS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};

/// A live metric handle held by the registry.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics. Create per-subsystem registries with
/// [`Registry::new`] (the incremental pipeline owns one per stream) or use
/// the process-wide [`global`] one.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

/// Panics unless `name` follows the dotted convention (lowercase
/// `[a-z0-9_]` segments joined by single dots).
fn validate_name(name: &str) {
    let ok = !name.is_empty()
        && name.split('.').all(|seg| {
            !seg.is_empty()
                && seg
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        });
    assert!(
        ok,
        "invalid metric name {name:?} (want dotted lowercase segments)"
    );
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or registers a counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        validate_name(name);
        let mut metrics = self.metrics.lock().unwrap();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Gets or registers a gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        validate_name(name);
        let mut metrics = self.metrics.lock().unwrap();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Gets or registers a plain value histogram (`unit = 1.0`).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with_unit(name, 1.0)
    }

    /// Gets or registers a histogram whose raw unit is worth `unit` in
    /// exported terms (latency histograms record nanoseconds with
    /// `unit = 1e-9` and export seconds). Panics if the name is already
    /// registered with a different unit.
    pub fn histogram_with_unit(&self, name: &str, unit: f64) -> Arc<Histogram> {
        validate_name(name);
        let mut metrics = self.metrics.lock().unwrap();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new(unit))))
        {
            Metric::Histogram(h) => {
                assert!(
                    h.unit() == unit,
                    "metric {name:?} already registered with unit {}, asked for {unit}",
                    h.unit()
                );
                Arc::clone(h)
            }
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Aggregates every metric into an immutable snapshot. Concurrent
    /// writers keep recording while the shards are summed; each metric's
    /// value is internally consistent, the set as a whole is a point-in-
    /// time view to within in-flight records.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.metrics.lock().unwrap();
        let samples = metrics
            .iter()
            .map(|(name, metric)| MetricSample {
                name: name.clone(),
                value: match metric {
                    Metric::Counter(c) => SampleValue::Counter(c.value()),
                    Metric::Gauge(g) => SampleValue::Gauge(g.value()),
                    Metric::Histogram(h) => SampleValue::Histogram(HistogramSample {
                        count: h.count(),
                        raw_sum: h.raw_sum(),
                        unit: h.unit(),
                        buckets: h.bucket_counts(),
                    }),
                },
            })
            .collect();
        MetricsSnapshot { samples }
    }
}

/// The process-wide registry (crate-internal instruments record here via
/// the `Lazy*` handles; `/metrics` exports it alongside any per-pipeline
/// registries).
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// One metric's aggregated value.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// The dotted metric name.
    pub name: String,
    /// The aggregated value.
    pub value: SampleValue,
}

/// An aggregated metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Counter total.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Histogram distribution.
    Histogram(HistogramSample),
}

/// An aggregated histogram: exact count and raw sum plus the merged
/// log-bucket counts (last slot is the `+Inf` overflow bucket).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSample {
    /// Exact number of recorded samples.
    pub count: u64,
    /// Exact sum in raw units.
    pub raw_sum: u64,
    /// Exported value of one raw unit.
    pub unit: f64,
    /// Non-cumulative per-bucket counts, bucket-index order.
    pub buckets: Vec<u64>,
}

impl HistogramSample {
    /// The sum in exported units (seconds for latency histograms).
    pub fn sum(&self) -> f64 {
        self.raw_sum as f64 * self.unit
    }

    /// The mean in exported units, if any samples were recorded.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum() / self.count as f64)
    }

    /// Nearest-rank quantile estimate in exported units (`q` in `[0, 1]`).
    ///
    /// Resolution is the bucket width (≤ 25 % relative); the estimate is
    /// the midpoint of the bucket holding the rank, so the true quantile
    /// lies within that bucket's bounds — the property the tests pin
    /// against a sorted reference. Returns `f64::INFINITY` when the rank
    /// falls in the overflow bucket, `None` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                if i >= FINITE_BUCKETS {
                    return Some(f64::INFINITY);
                }
                let (lo, hi) = bucket_bounds(i);
                return Some((lo + hi) as f64 / 2.0 * self.unit);
            }
        }
        unreachable!("cumulative bucket counts reach the total count")
    }

    /// Inclusive raw-value bounds of the bucket holding `q`'s rank, or
    /// `None` for an empty histogram / overflow rank. Test/diagnostic aid.
    pub fn quantile_bucket_bounds(&self, q: f64) -> Option<(u64, u64)> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return (i < FINITE_BUCKETS).then(|| bucket_bounds(i));
            }
        }
        None
    }

    fn saturating_sub(&self, earlier: &HistogramSample) -> HistogramSample {
        HistogramSample {
            count: self.count.saturating_sub(earlier.count),
            raw_sum: self.raw_sum.saturating_sub(earlier.raw_sum),
            unit: self.unit,
            buckets: self
                .buckets
                .iter()
                .zip(earlier.buckets.iter().chain(std::iter::repeat(&0)))
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
        }
    }
}

/// An immutable point-in-time aggregation of one registry (sorted by
/// metric name).
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    samples: Vec<MetricSample>,
}

impl MetricsSnapshot {
    /// The samples, sorted by name.
    pub fn samples(&self) -> &[MetricSample] {
        &self.samples
    }

    fn find(&self, name: &str) -> Option<&SampleValue> {
        self.samples
            .binary_search_by(|s| s.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.samples[i].value)
    }

    /// A counter's total (0 when absent — counters materialise on first
    /// record, so "never touched" and "zero" coincide).
    pub fn counter(&self, name: &str) -> u64 {
        match self.find(name) {
            Some(SampleValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// A gauge's level, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.find(name) {
            Some(SampleValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// A histogram's aggregation, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSample> {
        match self.find(name) {
            Some(SampleValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// The monotone difference `self − earlier`: counters and histograms
    /// subtract (scoping totals to a window), gauges keep their current
    /// level. Metrics absent from `earlier` pass through unchanged.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let samples = self
            .samples
            .iter()
            .map(|s| {
                let value = match (&s.value, earlier.find(&s.name)) {
                    (SampleValue::Counter(v), Some(SampleValue::Counter(e))) => {
                        SampleValue::Counter(v.saturating_sub(*e))
                    }
                    (SampleValue::Histogram(h), Some(SampleValue::Histogram(e))) => {
                        SampleValue::Histogram(h.saturating_sub(e))
                    }
                    (v, _) => v.clone(),
                };
                MetricSample {
                    name: s.name.clone(),
                    value,
                }
            })
            .collect();
        MetricsSnapshot { samples }
    }

    /// Merges two snapshots into one sorted sample list (e.g. the global
    /// and a pipeline registry for one `/metrics` page). On a name
    /// collision `self`'s sample wins.
    pub fn merged(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        let mut samples = self.samples.clone();
        for s in &other.samples {
            if self.find(&s.name).is_none() {
                samples.push(s.clone());
            }
        }
        samples.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { samples }
    }

    /// Encodes the snapshot in Prometheus text exposition format
    /// (version 0.0.4): dotted names become `blast_`-prefixed underscore
    /// names, counters/gauges one sample line each, histograms the
    /// standard cumulative `_bucket{le="…"}` series plus `_sum`/`_count`.
    /// Bucket bounds are emitted in exported units; only non-empty buckets
    /// get a line (plus the mandatory `+Inf`), keeping the page compact.
    pub fn encode_text(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            let name = prom_name(&s.name);
            match &s.value {
                SampleValue::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {v}");
                }
                SampleValue::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {v}");
                }
                SampleValue::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let mut cum = 0u64;
                    for (i, &c) in h.buckets.iter().enumerate() {
                        if i >= FINITE_BUCKETS {
                            break;
                        }
                        if c == 0 {
                            continue;
                        }
                        cum += c;
                        let (_, hi) = bucket_bounds(i);
                        // `le` is inclusive; the bucket's inclusive raw
                        // upper bound scaled to exported units.
                        let le = fmt_f64(hi as f64 * h.unit);
                        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}");
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
                    let _ = writeln!(out, "{name}_sum {}", fmt_f64(h.sum()));
                    let _ = writeln!(out, "{name}_count {}", h.count);
                }
            }
        }
        out
    }
}

/// Formats an f64 for Prometheus: finite shortest-roundtrip, exponent
/// notation for the very small/large (Go `ParseFloat` accepts both).
fn fmt_f64(v: f64) -> String {
    if v != 0.0 && (v.abs() < 1e-3 || v.abs() >= 1e15) {
        format!("{v:e}")
    } else {
        format!("{v}")
    }
}

/// Maps a dotted metric name to its Prometheus identifier.
pub(crate) fn prom_name(name: &str) -> String {
    format!("blast_{}", name.replace('.', "_"))
}

/// Asserts that `TOTAL_BUCKETS` matches the sample layout (compile-time
/// coupling between the metric and snapshot halves).
#[allow(dead_code)]
const _: [(); TOTAL_BUCKETS] = [(); FINITE_BUCKETS + 1];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_register_returns_the_same_metric() {
        let r = Registry::new();
        let a = r.counter("x.hits");
        let b = r.counter("x.hits");
        a.add(3);
        b.add(4);
        assert_eq!(r.snapshot().counter("x.hits"), 7);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn uppercase_names_are_rejected() {
        Registry::new().counter("x.Hits");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_clash_panics() {
        let r = Registry::new();
        r.counter("x.hits");
        r.gauge("x.hits");
    }

    #[test]
    fn delta_since_scopes_counters_and_histograms() {
        let r = Registry::new();
        let c = r.counter("runs.widgets");
        let h = r.histogram("runs.sizes");
        c.add(10);
        h.record(5);
        let before = r.snapshot();
        c.add(7);
        h.record(9);
        h.record(9);
        let delta = r.snapshot().delta_since(&before);
        assert_eq!(delta.counter("runs.widgets"), 7);
        let hs = delta.histogram("runs.sizes").unwrap();
        assert_eq!(hs.count, 2);
        assert_eq!(hs.raw_sum, 18);
    }

    #[test]
    fn merged_prefers_self_and_stays_sorted() {
        let a = Registry::new();
        a.counter("a.one").add(1);
        a.counter("shared.n").add(5);
        let b = Registry::new();
        b.counter("b.two").add(2);
        b.counter("shared.n").add(9);
        let m = a.snapshot().merged(&b.snapshot());
        assert_eq!(m.counter("a.one"), 1);
        assert_eq!(m.counter("b.two"), 2);
        assert_eq!(m.counter("shared.n"), 5, "self wins collisions");
        let names: Vec<_> = m.samples().iter().map(|s| s.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn encode_text_is_wellformed_prometheus() {
        let r = Registry::new();
        r.counter("commit.count").add(3);
        r.gauge("pipeline.retained").set(-2);
        let h = r.histogram_with_unit("commit.total_secs", 1e-9);
        h.record(1_000); // 1 µs
        h.record(3_000_000); // 3 ms
        let text = r.snapshot().encode_text();

        let mut series: Vec<&str> = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split_whitespace();
                let name = it.next().unwrap();
                let kind = it.next().unwrap();
                assert!(matches!(kind, "counter" | "gauge" | "histogram"));
                assert!(name.starts_with("blast_"));
                series.push(name);
                continue;
            }
            // Sample lines: `name[{le="x"}] value`.
            let (name_part, value) = line.rsplit_once(' ').expect("sample line");
            let metric = name_part.split('{').next().unwrap();
            assert!(
                metric
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'_'),
                "bad metric identifier {metric:?}"
            );
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable sample value {value:?}"
            );
        }
        assert_eq!(
            series,
            vec![
                "blast_commit_count",
                "blast_commit_total_secs",
                "blast_pipeline_retained"
            ]
        );
        // Cumulative buckets end at +Inf == count.
        let inf: Vec<&str> = text.lines().filter(|l| l.contains("le=\"+Inf\"")).collect();
        assert_eq!(inf, vec!["blast_commit_total_secs_bucket{le=\"+Inf\"} 2"]);
        assert!(text.contains("blast_commit_total_secs_count 2"));
        let cums: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("blast_commit_total_secs_bucket") && !l.contains("+Inf"))
            .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
            .collect();
        assert!(cums.windows(2).all(|w| w[0] <= w[1]), "cumulative buckets");
    }

    #[test]
    fn quantiles_track_the_distribution() {
        let r = Registry::new();
        let h = r.histogram("q.values");
        for v in 0..1000u64 {
            h.record(v);
        }
        let snap = r.snapshot();
        let hs = snap.histogram("q.values").unwrap();
        let p50 = hs.quantile(0.5).unwrap();
        // Bucket resolution: the true median (499/500) is inside the
        // reported bucket, whose width is ≤ 25 % of its lower bound.
        let (lo, hi) = hs.quantile_bucket_bounds(0.5).unwrap();
        assert!(
            (lo as f64..=hi as f64).contains(&499.0) || (lo as f64..=hi as f64).contains(&500.0)
        );
        assert!(p50 >= lo as f64 && p50 <= hi as f64);
        assert_eq!(hs.quantile(0.0).unwrap(), 0.0);
        assert!(hs.quantile(1.0).unwrap() >= 896.0);
    }

    #[test]
    fn overflow_quantile_is_infinite() {
        let r = Registry::new();
        let h = r.histogram("q.overflow");
        h.record(u64::MAX);
        let snap = r.snapshot();
        let hs = snap.histogram("q.overflow").unwrap();
        assert_eq!(hs.quantile(0.5), Some(f64::INFINITY));
        assert_eq!(hs.quantile_bucket_bounds(0.5), None);
        // The +Inf bucket still shows in the export and equals the count.
        let text = snap.encode_text();
        assert!(text.contains("blast_q_overflow_bucket{le=\"+Inf\"} 1"));
    }

    #[test]
    fn empty_histogram_has_no_quantile() {
        let r = Registry::new();
        r.histogram("q.empty");
        let snap = r.snapshot();
        assert_eq!(snap.histogram("q.empty").unwrap().quantile(0.5), None);
        assert_eq!(snap.histogram("q.empty").unwrap().mean(), None);
    }
}
