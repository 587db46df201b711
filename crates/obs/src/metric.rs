//! The metric primitives: per-thread sharded, lock-free counters and
//! gauges, log-bucketed latency histograms, and the RAII span timer.
//!
//! **Sharding.** Every thread is assigned a fixed shard slot (round-robin
//! over [`SHARDS`] lanes at first use); a record call touches only its own
//! shard's cache lines, so concurrent writers never contend on one atomic.
//! Reading a metric sums the shards — reads are rare (snapshots), writes
//! are the hot path. All record operations are single relaxed
//! `fetch_add`s: lock-free, wait-free, and safe from any thread including
//! the `parallel_work_steal` workers.
//!
//! **Histogram buckets.** Log-linear ("log-bucketed"): values `0..4` get
//! their own unit buckets, and every power-of-two octave above that is cut
//! into 4 sub-buckets, giving a ≤ 12.5 % bucket width everywhere — enough
//! for latency quantiles without per-sample allocation. Values at or above
//! 2⁴⁰ raw units (~18 minutes in nanoseconds) land in a single overflow
//! bucket exported as `+Inf`. Recording is a `leading_zeros` + three
//! relaxed adds — low single-digit nanoseconds.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Number of write lanes. More than the container's cores so round-robin
/// assignment rarely aliases two busy threads onto one lane.
pub const SHARDS: usize = 16;

/// The round-robin source of per-thread shard slots.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

/// This thread's shard slot (assigned on first use, fixed thereafter).
#[inline]
fn shard_id() -> usize {
    SHARD.with(|s| *s)
}

/// One cache-line-isolated atomic lane.
#[repr(align(128))]
#[derive(Default)]
struct Lane(AtomicU64);

/// A monotonically increasing, per-thread-sharded counter.
pub struct Counter {
    lanes: [Lane; SHARDS],
}

impl Counter {
    pub(crate) fn new() -> Self {
        Self {
            lanes: std::array::from_fn(|_| Lane::default()),
        }
    }

    /// Adds `n` (a single relaxed `fetch_add` on this thread's lane).
    #[inline]
    pub fn add(&self, n: u64) {
        self.lanes[shard_id()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total (sums the shards; snapshot-path only).
    pub fn value(&self) -> u64 {
        self.lanes.iter().map(|l| l.0.load(Ordering::Relaxed)).sum()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Counter")
            .field("value", &self.value())
            .finish()
    }
}

/// A last-write-wins signed gauge (single atomic: gauges are set once per
/// commit by one writer, never contended like counters).
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub(crate) fn new() -> Self {
        Self {
            value: AtomicI64::new(0),
        }
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

/// Sub-buckets per octave as a bit count (2 → 4 sub-buckets, ≤ 12.5 %
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

/// One shard of a histogram: bucket lanes plus exact count/sum. The shard
/// is its own aligned region, so two threads recording concurrently never
/// share a cache line.
#[repr(align(128))]
struct HistLane {
    buckets: [AtomicU64; TOTAL_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistLane {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A log-bucketed, per-thread-sharded histogram of `u64` raw values.
///
/// `unit` is the exported value of one raw unit — latency histograms
/// record **nanoseconds** with `unit = 1e-9`, so exports and quantiles
/// read in seconds while the hot path never touches floating point. The
/// exact `count` and `sum` are maintained alongside the buckets (shard
/// merges are plain sums, so concurrent totals are exact; only quantiles
/// are bucket-resolution estimates).
pub struct Histogram {
    lanes: Box<[HistLane; SHARDS]>,
    unit: f64,
}

impl Histogram {
    pub(crate) fn new(unit: f64) -> Self {
        assert!(unit > 0.0, "histogram unit must be positive");
        let lanes: Vec<HistLane> = (0..SHARDS).map(|_| HistLane::new()).collect();
        let lanes: Box<[HistLane; SHARDS]> = match lanes.try_into() {
            Ok(a) => a,
            Err(_) => unreachable!("built SHARDS lanes"),
        };
        Self { lanes, unit }
    }

    /// Exported value of one raw unit (1.0 for plain value histograms,
    /// 1e-9 for nanosecond-recorded latency histograms).
    pub fn unit(&self) -> f64 {
        self.unit
    }

    /// Records one raw value.
    #[inline]
    pub fn record(&self, v: u64) {
        let lane = &self.lanes[shard_id()];
        lane.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        lane.count.fetch_add(1, Ordering::Relaxed);
        lane.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds (latency histograms; pair with
    /// `unit = 1e-9`).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records a duration given in (non-negative) seconds.
    #[inline]
    pub fn record_secs(&self, secs: f64) {
        self.record((secs.max(0.0) * 1e9).round() as u64);
    }

    /// Total recorded samples (exact across threads).
    pub fn count(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| l.count.load(Ordering::Relaxed))
            .sum()
    }

    /// Exact raw-unit sum across threads.
    pub fn raw_sum(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| l.sum.load(Ordering::Relaxed))
            .sum()
    }

    /// Merged per-bucket counts (index order; last slot is the overflow).
    pub(crate) fn bucket_counts(&self) -> Vec<u64> {
        let mut out = vec![0u64; TOTAL_BUCKETS];
        for lane in self.lanes.iter() {
            for (slot, b) in out.iter_mut().zip(lane.buckets.iter()) {
                *slot += b.load(Ordering::Relaxed);
            }
        }
        out
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

/// RAII span timer: records the elapsed wall-clock into a nanosecond
/// histogram when dropped.
///
/// ```
/// let registry = blast_obs::Registry::new();
/// let hist = registry.histogram_with_unit("commit.total_secs", 1e-9);
/// {
///     let _span = blast_obs::SpanTimer::start(&hist);
///     // … timed work …
/// } // records here
/// assert_eq!(hist.count(), 1);
/// ```
#[must_use = "a span timer records when dropped; binding it to _ drops immediately"]
pub struct SpanTimer<'a> {
    hist: &'a Histogram,
    start: Instant,
    armed: bool,
}

impl<'a> SpanTimer<'a> {
    /// Starts the span.
    pub fn start(hist: &'a Histogram) -> Self {
        Self {
            hist,
            start: Instant::now(),
            armed: true,
        }
    }

    /// Seconds elapsed so far (the span keeps running).
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Abandons the span without recording.
    pub fn discard(mut self) {
        self.armed = false;
    }
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.hist.record_duration(self.start.elapsed());
        }
    }
}

/// A counter on the process-wide registry, registered on first use — the
/// handle pattern for instrumenting crates that have no registry to
/// plumb (`static SPLICES: LazyCounter = LazyCounter::new(names::CSR_SPLICES);`).
/// After the first call the cost over a plain [`Counter`] is one atomic
/// load.
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<Arc<Counter>>,
}

impl LazyCounter {
    /// Declares the handle (no registration yet).
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The underlying counter (registers on first use).
    #[inline]
    pub fn get(&self) -> &Counter {
        self.cell.get_or_init(|| crate::global().counter(self.name))
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.get().add(n);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.get().inc();
    }
}

/// A gauge on the process-wide registry, registered on first use.
pub struct LazyGauge {
    name: &'static str,
    cell: OnceLock<Arc<Gauge>>,
}

impl LazyGauge {
    /// Declares the handle (no registration yet).
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The underlying gauge (registers on first use).
    #[inline]
    pub fn get(&self) -> &Gauge {
        self.cell.get_or_init(|| crate::global().gauge(self.name))
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.get().set(v);
    }
}

/// A histogram on the process-wide registry, registered on first use.
pub struct LazyHistogram {
    name: &'static str,
    unit: f64,
    cell: OnceLock<Arc<Histogram>>,
}

impl LazyHistogram {
    /// Declares a plain value histogram (`unit = 1.0`).
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            unit: 1.0,
            cell: OnceLock::new(),
        }
    }

    /// Declares a histogram with an explicit raw-unit scale (1e-9 for
    /// nanosecond-recorded latency).
    pub const fn with_unit(name: &'static str, unit: f64) -> Self {
        Self {
            name,
            unit,
            cell: OnceLock::new(),
        }
    }

    /// The underlying histogram (registers on first use).
    #[inline]
    pub fn get(&self) -> &Histogram {
        self.cell
            .get_or_init(|| crate::global().histogram_with_unit(self.name, self.unit))
    }

    /// Records one raw value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.get().record(v);
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

    #[test]
    fn span_timer_records_once_and_discard_does_not() {
        let h = Histogram::new(1e-9);
        {
            let _span = SpanTimer::start(&h);
        }
        assert_eq!(h.count(), 1);
        SpanTimer::start(&h).discard();
        assert_eq!(h.count(), 1);
    }
}
