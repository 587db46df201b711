//! The published value: an `RwLock<Arc<T>>` one writer swaps and any
//! number of readers clone out of.
//!
//! A reader holds the shared lock for one `Arc::clone`, the writer the
//! exclusive lock for one pointer swap; neither section can panic, so the
//! lock is never poisoned. A reader keeps its version alive by holding the
//! `Arc`, and the last holder frees it: the version a publish retires is
//! handed back to the caller and dropped outside the lock.

use std::sync::{Arc, RwLock};

/// The current version of a `T`, replaced whole on every publish.
#[derive(Debug)]
pub struct Epoch<T>(RwLock<Arc<T>>);

impl<T> Epoch<T> {
    /// An epoch whose current version is `initial`.
    pub fn new(initial: Arc<T>) -> Self {
        Self(RwLock::new(initial))
    }

    /// The current version; it stays alive for as long as the caller holds
    /// the `Arc`, however many publishes follow.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.0.read().expect("no epoch section can panic"))
    }

    /// Makes `next` the current version and returns the one it retired.
    pub fn publish(&self, next: Arc<T>) -> Arc<T> {
        std::mem::replace(
            &mut *self.0.write().expect("no epoch section can panic"),
            next,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Weak;

    /// Counts live instances so freeing is observable.
    struct Tracked(u64, Arc<AtomicUsize>);

    impl Tracked {
        fn new(v: u64, live: &Arc<AtomicUsize>) -> Arc<Self> {
            live.fetch_add(1, Ordering::SeqCst);
            Arc::new(Tracked(v, Arc::clone(live)))
        }
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.1.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn publish_and_read_roundtrip() {
        let epoch = Epoch::new(Arc::new(0u64));
        assert_eq!(*epoch.load(), 0);
        assert_eq!(
            *epoch.publish(Arc::new(7)),
            0,
            "publish returns the retired"
        );
        assert_eq!(*epoch.load(), 7);
    }

    #[test]
    fn unheld_versions_are_freed_at_publish() {
        let live = Arc::new(AtomicUsize::new(0));
        let epoch = Epoch::new(Tracked::new(0, &live));
        for v in 1..=100 {
            // A read that ends before the publish holds nothing back.
            assert!(epoch.load().0 < v);
            drop(epoch.publish(Tracked::new(v, &live)));
            assert_eq!(live.load(Ordering::SeqCst), 1, "only current is alive");
        }
        drop(epoch);
        assert_eq!(live.load(Ordering::SeqCst), 0, "drop frees everything");
    }

    #[test]
    fn held_version_stays_alive_and_is_counted() {
        let live = Arc::new(AtomicUsize::new(0));
        let epoch = Epoch::new(Tracked::new(0, &live));
        let held = epoch.load();
        // The writer's backlog count: weak handles to what it retired.
        let mut retired: Vec<Weak<Tracked>> = Vec::new();
        for v in 1..=10 {
            retired.push(Arc::downgrade(&epoch.publish(Tracked::new(v, &live))));
            retired.retain(|w| w.strong_count() > 0);
            assert_eq!(held.0, 0, "a held version is immutable");
            assert_eq!(live.load(Ordering::SeqCst), 2, "held + current");
            assert_eq!(retired.len(), 1, "the camping reader's version");
        }
        drop(held);
        retired.retain(|w| w.strong_count() > 0);
        assert!(retired.is_empty(), "releasing clears the backlog");
        assert_eq!(live.load(Ordering::SeqCst), 1, "only current remains");
    }

    #[test]
    fn concurrent_readers_never_see_torn_versions() {
        // Versions carry a self-consistency stamp: (v, v * 3). A torn or
        // freed read would break the invariant.
        let epoch = Epoch::new(Arc::new((0u64, 0u64)));
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let mut last = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let (v, stamp) = *epoch.load();
                        assert_eq!(stamp, v * 3, "torn read");
                        assert!(v >= last, "versions observed non-monotonically");
                        last = v;
                    }
                });
            }
            for v in 1..=10_000u64 {
                epoch.publish(Arc::new((v, v * 3)));
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(*epoch.load(), (10_000, 30_000));
    }
}
