//! Typed serve-side views over a [`Registry`] — the read-path counterpart
//! of [`blast_obs::CommitMetrics`].
//!
//! [`ServeMetrics`] is the write side: the server owns one, registered on
//! the registry its pipeline's commit metrics already live on (one
//! `/metrics` page carries both), and every reader thread records through
//! shared handles — a query is one relaxed add on a counter and two on a
//! histogram. [`ServeTotals`] is the read side, reconstructed from a
//! [`MetricsSnapshot`] for `/stats`, the repo benchmark and the smoke
//! script.

use crate::snapshot::CopyStats;
use blast_obs::registry::{HistogramSample, MetricsSnapshot, Registry};
use blast_obs::{names, Counter, Gauge, Histogram};
use std::sync::Arc;

/// Pre-registered write handles for the serving layer.
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    registry: Arc<Registry>,
    queries: Arc<Counter>,
    swaps: Arc<Counter>,
    read_latency: Arc<Histogram>,
    stale_epochs: Arc<Gauge>,
    publish: Arc<Histogram>,
    rows_copied: Arc<Counter>,
    chunks_copied: Arc<Counter>,
}

impl ServeMetrics {
    /// Registers the serve metrics on a fresh registry.
    pub fn new() -> Self {
        Self::on(Arc::new(Registry::new()))
    }

    /// Registers the serve metrics on `registry` (e.g. the one the
    /// pipeline's `CommitMetrics` already lives on, so `/metrics` exports
    /// both families from one page).
    pub fn on(registry: Arc<Registry>) -> Self {
        Self {
            queries: registry.counter(names::SERVE_QUERIES),
            swaps: registry.counter(names::SERVE_SNAPSHOT_SWAPS),
            read_latency: registry.histogram_with_unit(names::SERVE_READ_LATENCY, 1e-9),
            stale_epochs: registry.gauge(names::SERVE_STALE_EPOCHS),
            publish: registry.histogram_with_unit(names::SERVE_PUBLISH_SECS, 1e-9),
            rows_copied: registry.counter(names::SERVE_ROWS_COPIED),
            chunks_copied: registry.counter(names::SERVE_CHUNKS_COPIED),
            registry,
        }
    }

    /// The backing registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Convenience: a snapshot of the backing registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Records one answered query and its wall-clock latency. Hot path:
    /// lock-free, called from every reader thread.
    #[inline]
    pub fn record_query(&self, secs: f64) {
        self.queries.inc();
        self.read_latency.record_secs(secs);
    }

    /// Records one snapshot publication: how many retired versions readers
    /// still hold after it (the stale-epoch gauge), what the builder copied
    /// for it, and its wall clock from the end of the engine's commit to
    /// the end of the swap. Writer path.
    pub fn record_publish(&self, stale_epochs: usize, copied: CopyStats, secs: f64) {
        self.swaps.inc();
        self.stale_epochs.set(stale_epochs as i64);
        self.publish.record_secs(secs);
        self.rows_copied.add(copied.rows as u64);
        self.chunks_copied.add(copied.chunks as u64);
    }
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

/// Everything the serving layer recorded, read back out of a snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeTotals {
    /// Queries answered in the window.
    pub queries: u64,
    /// Snapshot versions published.
    pub snapshot_swaps: u64,
    /// Retired versions a reader still held after the latest publish.
    pub stale_epochs: i64,
    /// Read-latency quantiles in seconds (p50 / p99 / p999); zero when no
    /// query was recorded.
    pub read_p50_secs: f64,
    /// 99th percentile read latency.
    pub read_p99_secs: f64,
    /// 99.9th percentile read latency.
    pub read_p999_secs: f64,
    /// Mean read latency.
    pub read_mean_secs: f64,
    /// Median publish wall clock in seconds (commit end → swap end); zero
    /// when nothing was published.
    pub publish_p50_secs: f64,
    /// 99th percentile publish wall clock.
    pub publish_p99_secs: f64,
    /// Snapshot rows copied by publishes.
    pub rows_copied: u64,
    /// Snapshot chunks whose row pointers publishes cloned.
    pub chunks_copied: u64,
}

impl ServeTotals {
    /// Reconstructs the totals from a snapshot.
    pub fn from_snapshot(s: &MetricsSnapshot) -> ServeTotals {
        let hist = s.histogram(names::SERVE_READ_LATENCY);
        let publish = s.histogram(names::SERVE_PUBLISH_SECS);
        let quantile =
            |h: Option<&HistogramSample>, p: f64| h.and_then(|h| h.quantile(p)).unwrap_or(0.0);
        let q = |p: f64| quantile(hist, p);
        ServeTotals {
            queries: s.counter(names::SERVE_QUERIES),
            snapshot_swaps: s.counter(names::SERVE_SNAPSHOT_SWAPS),
            stale_epochs: s.gauge(names::SERVE_STALE_EPOCHS).unwrap_or(0),
            read_p50_secs: q(0.50),
            read_p99_secs: q(0.99),
            read_p999_secs: q(0.999),
            read_mean_secs: hist.and_then(|h| h.mean()).unwrap_or(0.0),
            publish_p50_secs: quantile(publish, 0.50),
            publish_p99_secs: quantile(publish, 0.99),
            rows_copied: s.counter(names::SERVE_ROWS_COPIED),
            chunks_copied: s.counter(names::SERVE_CHUNKS_COPIED),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_then_read_back_roundtrips() {
        let m = ServeMetrics::new();
        for _ in 0..100 {
            m.record_query(1e-6);
        }
        m.record_publish(3, CopyStats { rows: 7, chunks: 2 }, 2e-3);
        m.record_publish(1, CopyStats { rows: 5, chunks: 1 }, 4e-3);
        let snap = m.snapshot();
        let t = ServeTotals::from_snapshot(&snap);
        assert_eq!(t.queries, 100);
        assert_eq!(t.snapshot_swaps, 2);
        assert_eq!(t.stale_epochs, 1, "gauge keeps the last value");
        assert_eq!((t.rows_copied, t.chunks_copied), (12, 3));
        assert!(t.publish_p50_secs > 1e-3 && t.publish_p99_secs >= t.publish_p50_secs);
        let publishes = snap
            .histogram(names::SERVE_PUBLISH_SECS)
            .expect("registered");
        assert_eq!(publishes.count, t.snapshot_swaps, "one per swap");
        let page = snap.encode_text();
        for series in [
            "blast_serve_publish_secs_count 2",
            "blast_serve_rows_copied 12",
            "blast_serve_chunks_copied 3",
        ] {
            assert!(page.contains(series), "{series} missing:\n{page}");
        }
        assert!(t.read_p50_secs > 0.0);
        assert!(t.read_p999_secs >= t.read_p50_secs);
        assert!(t.read_mean_secs > 0.0);
    }

    #[test]
    fn empty_registry_reads_back_zeroes() {
        let t = ServeTotals::from_snapshot(&ServeMetrics::new().snapshot());
        assert_eq!(t, ServeTotals::default());
    }

    #[test]
    fn shares_a_registry_with_commit_metrics() {
        let commit = blast_obs::CommitMetrics::new();
        let serve = ServeMetrics::on(Arc::clone(commit.registry()));
        serve.record_query(1e-6);
        let text = serve.snapshot().encode_text();
        assert!(text.contains("blast_serve_queries"), "{text}");
        assert!(text.contains("blast_commit_count"), "{text}");
    }
}
