//! Minimal scoped-thread parallel helpers (std scoped threads).
//!
//! The heavy loops in this workspace — attribute-pair similarity and
//! node-centric graph weighting — are embarrassingly parallel over disjoint
//! index ranges. One scheduler serves them all: [`parallel_work_steal`] cuts
//! the range into many fine-grained chunks claimed off a shared atomic
//! counter. Zipf-skewed collections concentrate the heavy nodes in a few
//! spots, and contiguous per-thread chunking would leave most threads idle
//! while one grinds through the hot chunk; dynamic claiming keeps every
//! thread busy until the queue drains. [`parallel_map`] is the per-item
//! convenience over it.
//!
//! Results come back **in chunk order**, so callers merge deterministically
//! regardless of thread scheduling. The chunk geometry depends only on `len`
//! and `chunk` — never on the thread count — so even order-sensitive merges
//! (floating-point folds) are bit-identical across thread counts.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The `BLAST_THREADS` override, read once per process (the scheduler runs
/// deep inside hot loops; an env lookup per invocation would be felt).
fn env_threads() -> Option<usize> {
    static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();
    *ENV_THREADS.get_or_init(|| {
        std::env::var("BLAST_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map(|n| n.max(1))
    })
}

/// The available parallelism, read once per process: on Linux the lookup
/// reads cgroup quota files, and graph snapshots ask for their thread
/// count once per pass.
fn hw_threads() -> usize {
    static HW_THREADS: OnceLock<usize> = OnceLock::new();
    *HW_THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Number of worker threads to use: the available parallelism, capped so
/// tiny inputs don't pay thread-spawn overhead. A `BLAST_THREADS`
/// environment override pins the count unconditionally for any non-empty
/// input (the knob CI's multi-core tier-1 run and operators turn; explicit
/// per-structure overrides like `GraphSnapshot::with_threads` still win
/// over both). Zero items is always one thread — there is nothing to pin.
pub fn default_threads(items: usize) -> usize {
    if items == 0 {
        return 1;
    }
    if let Some(n) = env_threads() {
        return n;
    }
    let hw = hw_threads();
    // Below ~4k items per thread the spawn overhead dominates.
    hw.min(items / 4096 + 1).max(1)
}

/// Work-stealing chunk length for a `len`-item pass. A function of the
/// range length only — **never** the thread count — so chunk-ordered merges
/// (including floating-point folds) are bit-identical whatever the
/// parallelism.
#[inline]
pub fn chunk_len(len: usize) -> usize {
    (len / 128).clamp(32, 4096)
}

/// Work-stealing scheduler with per-worker scratch state.
///
/// `0..len` is cut into `⌈len/chunk⌉` chunks; workers repeatedly claim the
/// next unprocessed chunk off an atomic counter. Each worker owns one state
/// value built by `init` (e.g. a dense scratch array) that is reused across
/// all chunks it processes — states are never shared between threads.
///
/// Returns the per-chunk results **in chunk order**. Because the chunk
/// geometry is a function of `len` and `chunk` alone, the result vector —
/// including any order-sensitive per-chunk accumulation — is bit-identical
/// for every thread count.
pub fn parallel_work_steal<S, R, FI, FW>(
    len: usize,
    threads: usize,
    chunk: usize,
    init: FI,
    work: FW,
) -> Vec<R>
where
    R: Send,
    FI: Fn() -> S + Sync,
    FW: Fn(&mut S, std::ops::Range<usize>) -> R + Sync,
{
    let chunk = chunk.max(1);
    let threads = threads.max(1);
    if len == 0 {
        let mut state = init();
        return vec![work(&mut state, 0..0)];
    }
    let n_chunks = len.div_ceil(chunk);
    let range_of = |i: usize| (i * chunk)..((i + 1) * chunk).min(len);
    if threads == 1 || n_chunks == 1 {
        let mut state = init();
        return (0..n_chunks)
            .map(|i| work(&mut state, range_of(i)))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let workers = threads.min(n_chunks);
    let mut results: Vec<Option<R>> = Vec::with_capacity(n_chunks);
    results.resize_with(n_chunks, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let init = &init;
                let work = &work;
                scope.spawn(move || {
                    let mut state = init();
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n_chunks {
                            break;
                        }
                        local.push((i, work(&mut state, range_of(i))));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("parallel worker panicked") {
                results[i] = Some(r);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every chunk claimed"))
        .collect()
}

/// Parallel map over a slice: applies `f` to every element on
/// [`parallel_work_steal`] (chunks of [`chunk_len`]), preserving order.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let chunks = parallel_work_steal(
        items.len(),
        threads,
        chunk_len(items.len()),
        || (),
        |(), range| items[range].iter().map(&f).collect::<Vec<R>>(),
    );
    let mut out = Vec::with_capacity(items.len());
    for chunk in chunks {
        out.extend(chunk);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let data: Vec<u64> = (0..10_000).collect();
        let expected: Vec<u64> = data.iter().map(|x| x * 2).collect();
        for threads in [1, 2, 3, 8] {
            assert_eq!(parallel_map(&data, threads, |x| x * 2), expected);
            assert!(parallel_map(&data[..0], threads, |x| x * 2).is_empty());
        }
    }

    #[test]
    fn default_threads_reasonable() {
        assert_eq!(default_threads(0), 1);
        assert!(default_threads(10) >= 1);
        assert!(default_threads(1_000_000) >= 1);
    }

    #[test]
    fn work_steal_covers_exactly_once() {
        for threads in [1, 2, 3, 8] {
            let parts =
                parallel_work_steal(101, threads, 7, || (), |_, r| r.collect::<Vec<usize>>());
            let all: Vec<usize> = parts.into_iter().flatten().collect();
            assert_eq!(all, (0..101).collect::<Vec<_>>(), "threads = {threads}");
        }
    }

    #[test]
    fn work_steal_chunk_geometry_is_thread_independent() {
        let shapes: Vec<Vec<usize>> = [1, 2, 5, 16]
            .iter()
            .map(|&t| parallel_work_steal(1000, t, 64, || (), |_, r| r.len()))
            .collect();
        for s in &shapes[1..] {
            assert_eq!(&shapes[0], s);
        }
    }

    #[test]
    fn work_steal_reuses_worker_state() {
        // Each worker's state counts the chunks it processed; the total over
        // all workers must equal the number of chunks.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let total = AtomicUsize::new(0);
        struct Guard<'a>(&'a AtomicUsize, usize);
        impl Drop for Guard<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(self.1, Ordering::Relaxed);
            }
        }
        parallel_work_steal(
            100,
            4,
            10,
            || Guard(&total, 0),
            |g, _| {
                g.1 += 1;
            },
        );
        assert_eq!(total.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn work_steal_empty_input() {
        let parts = parallel_work_steal(0, 4, 16, || (), |_, r| r.len());
        assert_eq!(parts, vec![0]);
    }
}
