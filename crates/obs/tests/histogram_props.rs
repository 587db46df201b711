//! Property tests pinning the log-bucketed histogram against a
//! sorted-reference implementation, plus the concurrent exactness and
//! snapshot-consistency contracts at the registry level.

use blast_obs::Registry;
use proptest::prelude::*;
use std::sync::Arc;

/// Nearest-rank reference quantile over the raw recorded values.
fn reference_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

/// Records `values` into a fresh registry histogram and returns its sample.
fn sample_of(values: &[u64]) -> blast_obs::HistogramSample {
    let registry = Registry::new();
    let h = registry.histogram("test.hist");
    for &v in values {
        h.record(v);
    }
    let snap = registry.snapshot();
    snap.histogram("test.hist").expect("registered").clone()
}

proptest! {
    /// Every quantile's bucket must contain the nearest-rank reference
    /// value, and the midpoint estimate must sit within the bucket's
    /// guaranteed relative error (bucket width ≤ 25 % of its lower bound
    /// for values past the first octaves, so the midpoint is ≤ 12.5 % off).
    #[test]
    fn quantile_bucket_contains_reference(
        values in proptest::collection::vec(0u64..1 << 30, 1..200),
        qx in 0u32..=100,
    ) {
        let q = f64::from(qx) / 100.0;
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let reference = reference_quantile(&sorted, q);

        let s = sample_of(&values);
        prop_assert_eq!(s.count, values.len() as u64);
        let (lo, hi) = s.quantile_bucket_bounds(q).expect("in-range values");
        prop_assert!(
            (lo..=hi).contains(&reference),
            "reference {} outside bucket [{}, {}] at q={}",
            reference, lo, hi, q
        );
        let estimate = s.quantile(q).expect("non-empty");
        let width_bound = (reference as f64 / 8.0).max(2.0);
        prop_assert!(
            (estimate - reference as f64).abs() <= width_bound.max((hi - lo) as f64),
            "estimate {} vs reference {} (bucket [{}, {}])",
            estimate, reference, lo, hi
        );
    }

    /// All-equal recordings land in a single bucket: every quantile returns
    /// the same estimate, and its bucket contains the value.
    #[test]
    fn single_bucket_histogram_is_flat(v in 0u64..1 << 38, n in 1usize..64) {
        let s = sample_of(&vec![v; n]);
        let p50 = s.quantile(0.5).expect("non-empty");
        let p99 = s.quantile(0.99).expect("non-empty");
        prop_assert_eq!(p50, p99);
        let (lo, hi) = s.quantile_bucket_bounds(0.5).expect("finite");
        prop_assert!((lo..=hi).contains(&v));
        prop_assert_eq!(s.raw_sum, v.saturating_mul(n as u64));
    }

    /// Values at or past the trackable range land in the overflow bucket:
    /// the top quantile reports +Inf, never a fabricated finite estimate.
    #[test]
    fn overflow_values_report_infinite_quantiles(extra in 0u64..1 << 20) {
        let s = sample_of(&[1, 2, (1 << 40) + extra]);
        prop_assert_eq!(s.count, 3);
        let top = s.quantile(1.0).expect("non-empty");
        prop_assert!(top.is_infinite());
        prop_assert!(s.quantile_bucket_bounds(1.0).is_none());
        // The lower ranks stay finite.
        prop_assert!(s.quantile(0.34).expect("non-empty").is_finite());
    }
}

#[test]
fn empty_histogram_has_no_quantiles() {
    let s = sample_of(&[]);
    assert_eq!(s.count, 0);
    assert_eq!(s.quantile(0.5), None);
    assert_eq!(s.quantile_bucket_bounds(0.5), None);
    assert_eq!(s.mean(), None);
}

/// Concurrent recording from many threads must merge shards exactly: the
/// snapshot's count and raw sum equal the arithmetic totals, bucket counts
/// sum to the count, and no sample is lost or duplicated.
#[test]
fn concurrent_recording_merges_shards_exactly() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 20_000;
    let registry = Arc::new(Registry::new());
    let h = registry.histogram("test.concurrent");
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let h = Arc::clone(&h);
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    h.record(t * PER_THREAD + i);
                }
            });
        }
    });
    let snap = registry.snapshot();
    let s = snap.histogram("test.concurrent").expect("registered");
    let n = THREADS * PER_THREAD;
    assert_eq!(s.count, n);
    assert_eq!(s.raw_sum, n * (n - 1) / 2);
    assert_eq!(s.buckets.iter().sum::<u64>(), n);
}

/// A scrape racing writers never sees a count its buckets do not add up to:
/// four threads record until a fifth has taken its snapshots, and in every
/// snapshot the `_count` line equals the `+Inf` cumulative bucket, `count`
/// is the sum of the buckets, and the top quantile is answered.
#[test]
fn snapshots_racing_writers_are_internally_consistent() {
    use std::sync::atomic::{AtomicU32, Ordering};
    const WRITERS: usize = 4;
    const SCRAPES: u32 = 50;
    let registry = Registry::new();
    let h = registry.histogram_with_unit("test.raced_secs", 1e-9);
    let start = std::sync::Barrier::new(WRITERS + 1);
    let scrapes = AtomicU32::new(0);
    let recorded: u64 = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..WRITERS as u64)
            .map(|t| {
                let (h, start, scrapes) = (&h, &start, &scrapes);
                scope.spawn(move || {
                    start.wait();
                    let mut n = 0u64;
                    // At least one record, then on until the scraper is done:
                    // every snapshot is taken beside live writers.
                    while n == 0 || scrapes.load(Ordering::Relaxed) < SCRAPES {
                        h.record((t + 1) * (n % 4096));
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        start.wait();
        for _ in 0..SCRAPES {
            let snap = registry.snapshot();
            let s = snap.histogram("test.raced_secs").expect("registered");
            assert_eq!(s.count, s.buckets.iter().sum::<u64>());
            assert!(s.count == 0 || s.quantile(1.0).is_some());
            let page = snap.encode_text();
            let value_of = |series: &str| -> u64 {
                let line = page.lines().find(|l| l.starts_with(series));
                let line = line.unwrap_or_else(|| panic!("{series} missing:\n{page}"));
                line.rsplit_once(' ')
                    .expect("sample line")
                    .1
                    .parse()
                    .unwrap()
            };
            assert_eq!(
                value_of("blast_test_raced_secs_count "),
                value_of("blast_test_raced_secs_bucket{le=\"+Inf\"} "),
            );
            scrapes.fetch_add(1, Ordering::Relaxed);
        }
        writers
            .into_iter()
            .map(|w| w.join().expect("writer panicked"))
            .sum()
    });
    let snap = registry.snapshot();
    let s = snap.histogram("test.raced_secs").expect("registered");
    assert_eq!(s.count, recorded, "no record lost");
    assert!(s.quantile(1.0).is_some());
}
