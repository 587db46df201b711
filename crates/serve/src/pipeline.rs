//! The writer side of the serving layer: an [`IncrementalPipeline`] whose
//! every commit publishes an immutable [`ServeSnapshot`] into an
//! [`Epoch`].
//!
//! [`ServePipeline`] wraps the engine rather than patching it: the engine
//! keeps its batch-equivalence contract untouched, and this wrapper
//! translates each [`CommitOutcome`]'s `PairDelta` (plus the store's
//! liveness bookkeeping) into a [`CommitUpdate`] for the
//! [`SnapshotBuilder`]. Because the snapshot is built by replaying the
//! engine's own deltas, the published candidate set at seq N is — by
//! construction — exactly `retained()` after commit N, which the
//! equivalence tests and the CI gate then pin against `batch_retained()`.

use crate::epoch::Epoch;
use crate::metrics::ServeMetrics;
use crate::snapshot::{CommitUpdate, ServeSnapshot, SnapshotBuilder};
use blast_datamodel::entity::{ProfileId, SourceId};
use blast_incremental::{CommitOutcome, IncrementalPipeline};
use std::sync::{Arc, Weak};
use std::time::Instant;

/// An incremental pipeline that publishes a [`ServeSnapshot`] per commit.
/// Single-owner (the writer thread); readers clone
/// [`ServePipeline::epoch`] and never touch this struct.
pub struct ServePipeline {
    inner: IncrementalPipeline,
    builder: SnapshotBuilder,
    epoch: Arc<Epoch<ServeSnapshot>>,
    metrics: ServeMetrics,
    /// Commit sequence of the last published snapshot (0 = pre-ingest).
    seq: u64,
    /// Ids mutated since the last commit (classified live/dead at commit).
    touched: Vec<ProfileId>,
    /// The last published view — the epoch's current version.
    latest: Arc<ServeSnapshot>,
    /// Retired versions a reader still holds: the `serve.stale_epochs`
    /// backlog, pruned at every publish.
    retired: Vec<Weak<ServeSnapshot>>,
}

impl ServePipeline {
    /// Wraps an engine. The serve metrics register on the engine's own
    /// registry, so one `/metrics` page exports both the commit and the
    /// serve families.
    pub fn new(inner: IncrementalPipeline) -> Self {
        let metrics = ServeMetrics::on(Arc::clone(inner.metrics().registry()));
        let latest = Arc::new(ServeSnapshot::default());
        Self {
            inner,
            builder: SnapshotBuilder::new(),
            epoch: Arc::new(Epoch::new(Arc::clone(&latest))),
            metrics,
            seq: 0,
            touched: Vec::new(),
            latest,
            retired: Vec::new(),
        }
    }

    /// The epoch readers [`Epoch::load`] the current view from.
    pub fn epoch(&self) -> &Arc<Epoch<ServeSnapshot>> {
        &self.epoch
    }

    /// The serve-side metric handles (cloneable into reader threads).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// The wrapped engine (read access — e.g. for the equivalence oracle).
    pub fn inner(&self) -> &IncrementalPipeline {
        &self.inner
    }

    /// Seq of the last published snapshot.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The last published view.
    pub fn latest(&self) -> &ServeSnapshot {
        &self.latest
    }

    /// Inserts a profile (see [`IncrementalPipeline::insert`]).
    pub fn insert<'a>(
        &mut self,
        source: SourceId,
        external_id: &str,
        pairs: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> ProfileId {
        let id = self.inner.insert(source, external_id, pairs);
        self.touched.push(id);
        id
    }

    /// Replaces a profile's values (see [`IncrementalPipeline::update`]).
    pub fn update<'a>(
        &mut self,
        id: ProfileId,
        pairs: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) {
        self.inner.update(id, pairs);
        self.touched.push(id);
    }

    /// Tombstones a profile (see [`IncrementalPipeline::delete`]).
    pub fn delete(&mut self, id: ProfileId) {
        self.inner.delete(id);
        self.touched.push(id);
    }

    /// Commits the pending micro-batch and publishes the resulting view at
    /// the next seq. Returns the engine's outcome.
    pub fn commit_and_publish(&mut self) -> CommitOutcome {
        let outcome = self.inner.commit();
        let t0 = Instant::now();
        self.seq += 1;

        self.touched.sort_unstable();
        self.touched.dedup();
        let mut update = CommitUpdate {
            seq: self.seq,
            blocks: outcome.blocks as u64,
            ..CommitUpdate::default()
        };
        let store = self.inner.store();
        for &id in &self.touched {
            if store.is_live(id) {
                let ext = store.external_id_of(id).unwrap_or_default();
                update.upserts.push((id.0, Arc::from(ext)));
            } else {
                update.deletes.push(id.0);
            }
        }
        self.touched.clear();
        update.retracted = outcome
            .delta
            .retracted
            .iter()
            .map(|&(a, b)| (a.0, b.0))
            .collect();
        // The weights are the decision stage's own, off the delta: nothing
        // here reads the engine's structures, so under a memory budget the
        // publish rehydrates nothing.
        update.added = outcome
            .delta
            .added_weighted()
            .map(|((a, b), w)| (a.0, b.0, w))
            .collect();

        let (snap, copied) = self.builder.apply(&update);
        self.latest = Arc::new(snap);
        // The retired version is dropped here, outside the epoch's lock;
        // what stays alive past that is held by a reader.
        let old = self.epoch.publish(Arc::clone(&self.latest));
        self.retired.push(Arc::downgrade(&old));
        drop(old);
        self.retired.retain(|version| version.strong_count() > 0);
        self.metrics
            .record_publish(self.retired.len(), copied, t0.elapsed().as_secs_f64());
        outcome
    }

    /// Whether the last published candidate set equals the engine's
    /// current retained set *and* its from-scratch batch counterpart — the
    /// read-your-writes equivalence gate. O(pairs); off the commit path.
    pub fn verify_equivalence(&self) -> bool {
        let published = self.latest.all_pairs();
        let retained: Vec<(u32, u32)> = self
            .inner
            .retained()
            .iter()
            .map(|(a, b)| (a.0, b.0))
            .collect();
        if published != retained {
            return false;
        }
        let batch: Vec<(u32, u32)> = self
            .inner
            .batch_retained()
            .iter()
            .map(|(a, b)| (a.0, b.0))
            .collect();
        published == batch
    }
}

impl std::fmt::Debug for ServePipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServePipeline")
            .field("seq", &self.seq)
            .field("pairs", &self.builder.pairs())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_graph::meta::PruningAlgorithm;
    use blast_graph::weights::WeightingScheme;
    use blast_incremental::{CleaningConfig, IncrementalPruning};

    fn serve_pipeline(cleaning: CleaningConfig) -> ServePipeline {
        ServePipeline::new(IncrementalPipeline::dirty(
            WeightingScheme::Cbs,
            IncrementalPruning::Traditional(PruningAlgorithm::Wnp1),
            cleaning,
        ))
    }

    #[test]
    fn every_commit_publishes_an_equivalent_snapshot() {
        let mut p = serve_pipeline(CleaningConfig::default());
        let rows = [
            "john abram jr car seller 1985 main street",
            "ellen smith 85 retail abram st 30 ny",
            "jon jr abram 85 car retail main st",
            "ellen smith may 10 1985 retailer abram street ny",
        ];
        for (i, row) in rows.iter().enumerate() {
            p.insert(SourceId(0), &format!("p{i}"), [("text", *row)]);
            p.commit_and_publish();
            assert_eq!(p.seq(), (i + 1) as u64);
            assert!(p.verify_equivalence(), "step {i}");
            let view = p.epoch().load();
            assert_eq!(view.seq(), p.seq(), "reader sees the fresh seq");
            assert_eq!(view.live(), (i + 1) as u32);
            assert_eq!(view.external_id(i as u32), Some(format!("p{i}").as_str()));
        }
        // The serve family recorded one swap per commit on the shared
        // registry.
        let snap = p.metrics().snapshot();
        assert_eq!(snap.counter(blast_obs::names::SERVE_SNAPSHOT_SWAPS), 4);
        assert_eq!(snap.counter(blast_obs::names::COMMIT_COUNT), 4);
    }

    #[test]
    fn deletes_retract_and_tombstone_in_the_published_view() {
        // Purging is off: in a two-profile corpus every block holds the
        // whole corpus and default purging would drop them all.
        let mut p = serve_pipeline(CleaningConfig::none());
        let a = p.insert(SourceId(0), "a", [("t", "alpha beta gamma")]);
        p.insert(SourceId(0), "b", [("t", "alpha beta gamma")]);
        p.commit_and_publish();
        assert!(p.latest().contains(0, 1));
        assert!(p.latest().candidates(0).unwrap()[0].weight > 0.0);

        p.delete(a);
        p.commit_and_publish();
        let snap = p.latest();
        assert!(!snap.contains(0, 1));
        assert!(!snap.is_live(0));
        assert!(snap.is_live(1));
        assert_eq!(snap.external_id(0), Some("a"), "tombstones keep their id");
        assert!(p.verify_equivalence());
    }

    #[test]
    fn insert_then_delete_in_one_batch_publishes_a_tombstone() {
        let mut p = serve_pipeline(CleaningConfig::none());
        let a = p.insert(SourceId(0), "a", [("t", "x y")]);
        p.delete(a);
        p.commit_and_publish();
        assert!(!p.latest().is_live(0));
        assert_eq!(p.latest().live(), 0);
        assert!(p.verify_equivalence());
    }
}
