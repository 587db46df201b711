//! Metric registration and snapshotting.
//!
//! A [`Registry`] maps dotted names to live metric handles. Recording
//! through a handle is one relaxed atomic operation ([`crate::metric`]);
//! the registry's mutex guards only registration and snapshots — neither is
//! on a hot path.
//!
//! [`Registry::snapshot`] reads every metric into an immutable
//! [`MetricsSnapshot`]: a sorted list of `(name, value)` samples, read back
//! by name ([`MetricsSnapshot::counter`] and friends — what `/stats`,
//! `--stats` and the repo benchmark do) or exported whole
//! ([`MetricsSnapshot::encode_text`] — Prometheus text exposition, the
//! `/metrics` page of `blast serve` and the file `blast stream --metrics`
//! writes).
//!
//! There is one registry per pipeline and no process-wide one: a server
//! registers its serve metrics on the registry its pipeline's
//! [`crate::CommitMetrics`] already owns, so one page carries both.

use crate::metric::{bucket_bounds, Counter, Gauge, Histogram, FINITE_BUCKETS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A live metric handle held by the registry.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics. The incremental pipeline owns one per
/// stream ([`crate::CommitMetrics`]); the serving layer registers on the
/// same one.
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

    /// The name → handle map. A registration that panics on a kind clash
    /// does so while holding the lock; the map is valid at every step (an
    /// entry is either inserted whole or not at all), so a poisoned lock is
    /// recovered rather than taking every later scrape down with it.
    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Metric>> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Gets the handle registered under `name`, registering `make()` first
    /// when the name is new; `pick` selects the wanted kind. Panics when
    /// the name is invalid or already holds another kind.
    fn register<T>(
        &self,
        name: &str,
        make: impl FnOnce() -> Metric,
        pick: impl FnOnce(&Metric) -> Option<Arc<T>>,
    ) -> Arc<T> {
        validate_name(name);
        let mut metrics = self.lock();
        let metric = metrics.entry(name.to_string()).or_insert_with(make);
        pick(metric).unwrap_or_else(|| panic!("metric {name:?} already registered as {metric:?}"))
    }

    /// Gets or registers a counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.register(
            name,
            || Metric::Counter(Arc::new(Counter::new())),
            |m| match m {
                Metric::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// Gets or registers a gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.register(
            name,
            || Metric::Gauge(Arc::new(Gauge::new())),
            |m| match m {
                Metric::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
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
        let h = self.register(
            name,
            || Metric::Histogram(Arc::new(Histogram::new(unit))),
            |m| match m {
                Metric::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        );
        assert!(
            h.unit() == unit,
            "metric {name:?} already registered with unit {}, asked for {unit}",
            h.unit()
        );
        h
    }

    /// Reads every metric into an immutable snapshot. Concurrent writers
    /// keep recording meanwhile: each counter, gauge and bucket is one
    /// atomic read, a histogram's count is the sum of the buckets read, and
    /// the set as a whole is a point-in-time view to within in-flight
    /// records.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.lock();
        let samples = metrics
            .iter()
            .map(|(name, metric)| MetricSample {
                name: name.clone(),
                value: match metric {
                    Metric::Counter(c) => SampleValue::Counter(c.value()),
                    Metric::Gauge(g) => SampleValue::Gauge(g.value()),
                    Metric::Histogram(h) => {
                        let buckets = h.bucket_counts();
                        SampleValue::Histogram(HistogramSample {
                            count: buckets.iter().sum(),
                            raw_sum: h.raw_sum(),
                            unit: h.unit(),
                            buckets,
                        })
                    }
                },
            })
            .collect();
        MetricsSnapshot { samples }
    }
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

/// A histogram as read by one snapshot: the log-bucket counts (last slot
/// is the `+Inf` overflow bucket), their sum as the count, and the raw sum.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSample {
    /// Number of recorded samples — the sum of `buckets`.
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
        (self.count > 0).then(|| match self.quantile_bucket_bounds(q) {
            Some((lo, hi)) => (lo + hi) as f64 / 2.0 * self.unit,
            None => f64::INFINITY,
        })
    }

    /// Inclusive raw-value bounds of the bucket holding `q`'s rank, or
    /// `None` for an empty histogram / overflow rank. The rank is at most
    /// `count`, the sum of the buckets, so a rank no finite bucket reaches
    /// lies in the overflow bucket.
    pub fn quantile_bucket_bounds(&self, q: f64) -> Option<(u64, u64)> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        let finite = self.buckets.iter().take(FINITE_BUCKETS);
        finite.enumerate().find_map(|(i, &c)| {
            cum += c;
            (cum >= rank).then(|| bucket_bounds(i))
        })
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
                        cum += c;
                        if c == 0 || i >= FINITE_BUCKETS {
                            continue;
                        }
                        let (_, hi) = bucket_bounds(i);
                        // `le` is inclusive; the bucket's inclusive raw
                        // upper bound scaled to exported units.
                        let le = fmt_f64(hi as f64 * h.unit);
                        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}");
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
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
