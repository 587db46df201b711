//! The metric primitives: plain atomic counters and gauges, and
//! log-bucketed histograms.
//!
//! Every record operation is a relaxed `fetch_add` (or `store`) on one
//! atomic: lock-free and safe from any thread. The writers are one
//! committing thread plus the HTTP workers, so nothing is sharded per
//! thread — a [`Counter`] is eight bytes, a [`Histogram`] one bucket array
//! (under 1.5 KiB).
//!
//! **Histogram buckets.** Log-linear ("log-bucketed"): values `0..4` get
//! their own unit buckets, and every power-of-two octave above that is cut
//! into 4 sub-buckets, giving a ≤ 25 % relative bucket width everywhere —
//! enough for latency quantiles without per-sample allocation. Values at or
//! above 2⁴⁰ raw units (~18 minutes in nanoseconds) land in a single
//! overflow bucket exported as `+Inf`. A histogram keeps no sample count of
//! its own: the count *is* the sum of the buckets, so a reader racing a
//! writer can never see a count its buckets do not add up to.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing counter.
#[derive(Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds `n` (a single relaxed `fetch_add`).
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Counter")
            .field("value", &self.value())
            .finish()
    }
}

/// A last-write-wins signed gauge.
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjusts the gauge by a signed delta.
    #[inline]
    pub fn add(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gauge")
            .field("value", &self.value())
            .finish()
    }
}

/// Sub-buckets per octave as a bit count (2 → 4 sub-buckets, ≤ 25 %
/// relative bucket width).
const SUB_BITS: u32 = 2;
const SUB: u64 = 1 << SUB_BITS;
/// Values at or above `2^TRACK_BITS` raw units land in the overflow
/// (`+Inf`) bucket.
const TRACK_BITS: u32 = 40;
/// Finite buckets: `SUB` unit buckets plus `SUB` per tracked octave.
pub(crate) const FINITE_BUCKETS: usize = (SUB + (TRACK_BITS - SUB_BITS) as u64 * SUB) as usize;
/// Finite buckets plus the overflow bucket.
pub(crate) const TOTAL_BUCKETS: usize = FINITE_BUCKETS + 1;

/// The bucket a raw value lands in.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    if msb >= TRACK_BITS {
        return FINITE_BUCKETS;
    }
    let sub = ((v >> (msb - SUB_BITS)) & (SUB - 1)) as usize;
    SUB as usize * (msb - SUB_BITS) as usize + SUB as usize + sub
}

/// Inclusive `[lower, upper]` raw-value bounds of a finite bucket
/// (`bucket_index(v)` is in `bucket_bounds(i)` iff it returned `i`).
pub(crate) fn bucket_bounds(i: usize) -> (u64, u64) {
    debug_assert!(i < FINITE_BUCKETS);
    if (i as u64) < SUB {
        return (i as u64, i as u64);
    }
    let octave = (i - SUB as usize) as u32 / SUB as u32;
    let sub = (i as u64 - SUB) % SUB;
    let lower = (SUB + sub) << octave;
    (lower, lower + (1u64 << octave) - 1)
}

/// A log-bucketed histogram of `u64` raw values.
///
/// `unit` is the exported value of one raw unit — latency histograms
/// record **nanoseconds** with `unit = 1e-9`, so exports and quantiles
/// read in seconds while the hot path never touches floating point. The
/// sample count is the sum of the buckets and the raw sum is exact; only
/// quantiles are bucket-resolution estimates.
pub struct Histogram {
    buckets: Box<[AtomicU64; TOTAL_BUCKETS]>,
    sum: AtomicU64,
    unit: f64,
}

impl Histogram {
    pub(crate) fn new(unit: f64) -> Self {
        assert!(unit > 0.0, "histogram unit must be positive");
        Self {
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            sum: AtomicU64::new(0),
            unit,
        }
    }

    /// Exported value of one raw unit (1.0 for plain value histograms,
    /// 1e-9 for nanosecond-recorded latency histograms).
    pub fn unit(&self) -> f64 {
        self.unit
    }

    /// Records one raw value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records a duration given in (non-negative) seconds.
    #[inline]
    pub fn record_secs(&self, secs: f64) {
        self.record((secs.max(0.0) * 1e9).round() as u64);
    }

    /// Total recorded samples: the sum of the buckets.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Exact raw-unit sum.
    pub fn raw_sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (index order; last slot is the overflow).
    pub(crate) fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("unit", &self.unit)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads_exactly() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 80_000);
    }

    #[test]
    fn a_counter_is_one_atomic_and_a_histogram_one_bucket_array() {
        assert_eq!(std::mem::size_of::<Counter>(), 8);
        assert!(std::mem::size_of::<[AtomicU64; TOTAL_BUCKETS]>() < 1536);
    }

    #[test]
    fn gauge_set_and_add() {
        let g = Gauge::new();
        g.set(7);
        g.add(-10);
        assert_eq!(g.value(), -3);
    }

    #[test]
    fn freshly_registered_metrics_record_on_first_use() {
        // No process-wide switch to arm: the first record after registration counts.
        let registry = crate::Registry::new();
        let c = registry.counter("fresh.counter");
        let g = registry.gauge("fresh.gauge");
        let h = registry.histogram("fresh.histogram");
        c.inc();
        g.set(3);
        h.record(5);
        assert_eq!(c.value(), 1);
        assert_eq!(g.value(), 3);
        assert_eq!((h.count(), h.raw_sum()), (1, 5));
    }

    #[test]
    fn bucket_index_and_bounds_are_inverse() {
        for i in 0..FINITE_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= hi);
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            assert_eq!(bucket_index(hi), i, "upper bound of bucket {i}");
            if i > 0 {
                let (_, prev_hi) = bucket_bounds(i - 1);
                assert_eq!(prev_hi + 1, lo, "buckets {i} are contiguous");
            }
        }
        // The first value past the last finite bucket overflows.
        let (_, last_hi) = bucket_bounds(FINITE_BUCKETS - 1);
        assert_eq!(last_hi, (1u64 << TRACK_BITS) - 1);
        assert_eq!(bucket_index(1u64 << TRACK_BITS), FINITE_BUCKETS);
        assert_eq!(bucket_index(u64::MAX), FINITE_BUCKETS);
    }

    #[test]
    fn bucket_width_is_at_most_an_eighth() {
        for i in SUB as usize..FINITE_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(
                (hi - lo) as f64 <= lo as f64 / 4.0,
                "bucket {i} [{lo}, {hi}] wider than 25% of its lower bound"
            );
        }
    }

    #[test]
    fn histogram_count_and_sum_are_exact_under_concurrency() {
        let h = Histogram::new(1.0);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..25_000u64 {
                        h.record(t * 1_000 + (i % 97));
                    }
                });
            }
        });
        assert_eq!(h.count(), 200_000);
        let expected: u64 = (0..8u64)
            .map(|t| (0..25_000u64).map(|i| t * 1_000 + (i % 97)).sum::<u64>())
            .sum();
        assert_eq!(h.raw_sum(), expected, "shard-merge totals are exact");
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 200_000);
    }
}
