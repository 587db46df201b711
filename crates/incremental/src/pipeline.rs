//! The incremental pipeline: streamed mutations in, candidate-pair deltas
//! out.
//!
//! ```text
//! insert/update/delete … → commit() → PairDelta { added, retracted }
//! ```
//!
//! Each [`IncrementalPipeline::commit`] absorbs the pending micro-batch:
//! the index mutates only the touched postings, cleaning is re-applied on
//! the dirty blocks and **edits the owned graph snapshot in place** — the
//! snapshot's block slots are the one copy of the cleaned memberships, the
//! cleaner inserts and removes members, restates the changed slots and
//! splices the changed rows (no per-commit index rebuild;
//! `GraphSnapshot::build` never runs on the commit path) — and the
//! meta-blocking graph is repaired over the dirty neighbourhoods. The
//! **batch-equivalence contract**: after any commit,
//! [`IncrementalPipeline::retained`] is bit-identical to
//! [`IncrementalPipeline::batch_retained`], a from-scratch batch run
//! (Token Blocking → purging → filtering → weighting → pruning) on the
//! materialised input — pinned by the property tests in
//! `tests/incremental_equivalence.rs` for all prunings × schemes, and the
//! patched snapshot itself is pinned field-for-field against
//! `GraphSnapshot::build` by `tests/snapshot_maintenance.rs`.
//!
//! Loose schema information is supported as a *fixed* partitioning (e.g.
//! extracted from a seed batch): keys are disambiguated per attribute
//! cluster and blocks carry the cluster's aggregate entropy, exactly like
//! the batch pipeline's phase 2 + 3 with that same partitioning.

use crate::cleaner::{CleaningConfig, IncrementalCleaner};
use crate::graph::{
    DirtyScope, IncrementalMetaBlocker, IncrementalPruning, PairDelta, RepairStats,
};
use crate::index::IncrementalBlockIndex;
use crate::store::MutableProfileStore;
use blast_blocking::collection::BlockCollection;
use blast_blocking::filtering::BlockFiltering;
use blast_blocking::key::{ClusterId, KeyDisambiguator};
use blast_blocking::purging::BlockPurging;
use blast_blocking::token_blocking::TokenBlocking;
use blast_core::schema::partitioning::AttributePartitioning;
use blast_datamodel::entity::{ProfileId, SourceId};
use blast_datamodel::input::ErInput;
use blast_datamodel::interner::Symbol;
use blast_datamodel::tokenizer::Tokenizer;
use blast_graph::context::GraphSnapshot;
use blast_graph::retained::RetainedPairs;
use blast_graph::weights::EdgeWeigher;
use blast_graph::{ColdStats, SpillBackend};
use blast_io::TempSpillFile;
use blast_obs::CommitMetrics;
use std::time::Instant;

/// Wall-clock split of one commit across the pipeline stages. The type
/// lives in `blast-obs` ([`blast_obs::CommitPhases`]), beside
/// [`RepairStats`], so the registry, the `--stats` lines and the trace
/// journal all read a commit's statistics from where they are declared;
/// the historical `CommitTimings` name is kept for the pipeline's callers.
pub use blast_obs::CommitPhases as CommitTimings;

/// Resident-footprint counters of a streaming pipeline — the structure
/// sizes behind the bytes-per-profile budget of the memory benchmark, and
/// the counters `blast stream --stats` prints. Byte figures are estimates
/// from container capacities (what the structures asked the allocator
/// for), not allocator-measured; the benchmark reports kernel RSS
/// alongside them.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemoryFootprint {
    /// Live edges in the blocker's edge cache (every variant keeps one).
    pub live_edges: usize,
    /// Packed accumulator entries cached in the edge adjacency.
    pub cached_accumulators: usize,
    /// Distinct token strings interned by the block index.
    pub interned_tokens: usize,
    /// Profile store (slot payloads + attribute interners).
    pub store_bytes: usize,
    /// Inverted block index (postings, token interner, key slab).
    pub index_bytes: usize,
    /// Incremental cleaner's decision caches (purge status, raw
    /// cardinalities, per-profile kept key sets).
    pub cleaner_bytes: usize,
    /// Owned graph snapshot (every key's cleaned membership, slot stats,
    /// profile rows).
    pub snapshot_bytes: usize,
    /// Meta-blocker: adjacency, decision structure, per-node artefacts.
    pub blocker_bytes: usize,
    /// Cold-tier frames resident in memory (the block index's evicted
    /// posting lists, delta-encoded). Disjoint from the hot `index_bytes`
    /// — a posting list is counted exactly once, in whichever tier it
    /// currently occupies.
    pub cold_bytes: usize,
    /// Cold-tier frames held by a spill backend (on disk, not resident).
    pub spilled_bytes: usize,
}

impl MemoryFootprint {
    /// Sum of the resident byte estimates: the five hot structures plus
    /// in-memory cold frames. Spilled bytes live on disk and are excluded.
    pub fn total_bytes(&self) -> usize {
        self.store_bytes
            + self.index_bytes
            + self.cleaner_bytes
            + self.snapshot_bytes
            + self.blocker_bytes
            + self.cold_bytes
    }
}

/// The cold-tier residency knobs of a budgeted pipeline (see
/// [`IncrementalPipeline::with_residency`]).
///
/// A budget demotes the block index's **posting lists only**: the graph
/// snapshot and the blocker's edge cache stay hot, because parallel repair
/// workers read them under `&self`. At the end of every commit the
/// enforcer demotes posting lists untouched for `idle_commits` commits and
/// keeps demoting coldest-first while the hot posting bytes exceed the
/// whole of `budget_bytes` (no other structure shares it). Any setting is bit-identical to the unbudgeted pipeline
/// — the knobs trade memory for rehydration work, never the answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidencyPolicy {
    /// Target hot posting-list bytes. `0` demotes every non-empty posting
    /// list each commit (the adversarial extreme).
    pub budget_bytes: usize,
    /// Commits a posting list may sit untouched before it becomes stale.
    /// `0` demotes lists the moment the enforcer sees them, including
    /// lists the current commit touched.
    pub idle_commits: u32,
    /// Spill cold frames to an unlinked temp file instead of holding them
    /// in an in-memory arena.
    pub spill: bool,
}

impl ResidencyPolicy {
    /// The default knobs for a byte budget: posting lists idle for 2
    /// commits are evictable, frames stay in memory.
    pub fn budget(budget_bytes: usize) -> Self {
        ResidencyPolicy {
            budget_bytes,
            idle_commits: 2,
            spill: false,
        }
    }
}

/// What one commit produced.
#[derive(Debug)]
pub struct CommitOutcome {
    /// The candidate-pair delta of this micro-batch.
    pub delta: PairDelta,
    /// Everything the commit counted: the repair and decision diagnostics
    /// plus the cleaner, cold-tier and structure-size figures — what the
    /// registry recorded for this commit.
    pub stats: RepairStats,
    /// Size of the candidate set after the commit.
    pub retained_len: usize,
    /// Number of cleaned blocks after the commit.
    pub blocks: usize,
    /// Per-phase wall-clock split of this commit.
    pub timings: CommitTimings,
}

/// The incremental BLAST pipeline.
pub struct IncrementalPipeline {
    store: MutableProfileStore,
    index: IncrementalBlockIndex,
    cleaner: IncrementalCleaner,
    blocker: IncrementalMetaBlocker,
    weigher: Box<dyn EdgeWeigher + Send>,
    tokenizer: Tokenizer,
    /// Fixed loose schema information; `None` = schema-agnostic blocking.
    partitioning: Option<AttributePartitioning>,
    /// The owned graph snapshot (one per pipeline): the one copy of the
    /// cleaned blocks, edited in place by the cleaner every commit.
    snapshot: GraphSnapshot,
    pending: bool,
    /// Index-maintenance time accrued since the last commit.
    pending_index_secs: f64,
    /// The pipeline's metrics registry (one per pipeline, so concurrent
    /// pipelines in one process never bleed into each other's counters).
    metrics: CommitMetrics,
    /// Cold-tier residency policy; `None` = never evict.
    residency: Option<ResidencyPolicy>,
    /// Cumulative (evictions, rehydrations) already reported to the
    /// metrics registry — the per-commit record carries the delta.
    cold_seen: (u64, u64),
}

impl std::fmt::Debug for IncrementalPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalPipeline")
            .field("mode", &self.store.mode())
            .field("weigher", &self.weigher.name())
            .field("pruning", &self.blocker.pruning().label())
            .finish()
    }
}

impl IncrementalPipeline {
    /// A dirty-ER pipeline with schema-agnostic blocking.
    pub fn dirty(
        weigher: impl EdgeWeigher + Send + 'static,
        pruning: IncrementalPruning,
        cleaning: CleaningConfig,
    ) -> Self {
        Self::with_store(MutableProfileStore::dirty(), weigher, pruning, cleaning)
    }

    /// A clean-clean pipeline whose first collection holds at most
    /// `separator` profiles.
    pub fn clean_clean(
        separator: u32,
        weigher: impl EdgeWeigher + Send + 'static,
        pruning: IncrementalPruning,
        cleaning: CleaningConfig,
    ) -> Self {
        Self::with_store(
            MutableProfileStore::clean_clean(separator),
            weigher,
            pruning,
            cleaning,
        )
    }

    fn with_store(
        store: MutableProfileStore,
        weigher: impl EdgeWeigher + Send + 'static,
        pruning: IncrementalPruning,
        cleaning: CleaningConfig,
    ) -> Self {
        let snapshot = GraphSnapshot::empty(store.is_clean_clean(), store.separator());
        Self {
            store,
            index: IncrementalBlockIndex::new(false),
            cleaner: IncrementalCleaner::new(cleaning),
            blocker: IncrementalMetaBlocker::new(pruning),
            weigher: Box::new(weigher),
            tokenizer: Tokenizer::new(),
            partitioning: None,
            snapshot,
            pending: false,
            pending_index_secs: 0.0,
            metrics: CommitMetrics::new(),
            residency: None,
            cold_seen: (0, 0),
        }
    }

    /// Aligns the store's attribute ids with the collection a fixed
    /// partitioning was extracted from (see
    /// [`MutableProfileStore::adopt_attributes`]). Call once per source
    /// before streaming when using [`IncrementalPipeline::with_partitioning`].
    pub fn adopt_attributes<'a>(
        &mut self,
        source: SourceId,
        names: impl IntoIterator<Item = &'a str>,
    ) {
        self.store.adopt_attributes(source, names);
    }

    /// Attaches a fixed attribute partitioning (loosely schema-aware
    /// blocking + entropy-weighted graph). Must be called before the first
    /// insert; the partitioning's attribute ids must align with this
    /// store's interning (see [`IncrementalPipeline::adopt_attributes`]).
    pub fn with_partitioning(mut self, partitioning: AttributePartitioning) -> Self {
        assert_eq!(
            self.store.total_slots(),
            if self.store.is_clean_clean() {
                self.store.separator()
            } else {
                0
            },
            "attach the partitioning before streaming profiles"
        );
        self.index = IncrementalBlockIndex::new(partitioning.cluster_count() > 1);
        self.snapshot = GraphSnapshot::empty(self.store.is_clean_clean(), self.store.separator())
            .with_entropies_enabled();
        self.partitioning = Some(partitioning);
        self
    }

    /// Replaces the tokenizer (before the first insert).
    pub fn with_tokenizer(mut self, tokenizer: Tokenizer) -> Self {
        self.tokenizer = tokenizer;
        self
    }

    /// Pins the worker-thread count of every parallel phase (the
    /// accumulate pass, fresh-edge weighing, the reweigh sweep, artefact
    /// recomputes) — `1` runs them all on the calling thread. Without it
    /// the count auto-scales with the collection (and honours the
    /// `BLAST_THREADS` environment override). Any value is bit-identical.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.snapshot.set_threads(threads);
        self
    }

    /// Mid-stream variant of [`IncrementalPipeline::with_threads`] (safe
    /// to turn between commits; outcomes stay bit-identical).
    pub fn set_threads(&mut self, threads: usize) {
        self.snapshot.set_threads(threads);
    }

    /// Attaches a full cold-tier residency policy. Safe to set before or
    /// between commits; outcomes stay bit-identical.
    pub fn with_residency(mut self, policy: ResidencyPolicy) -> Self {
        self.residency = Some(policy);
        self
    }

    /// Mid-stream variant of [`IncrementalPipeline::with_residency`].
    /// `budget_bytes` and `idle_commits` take effect at the next commit's
    /// sweep. `spill` is read once, when the first sweep arms the index,
    /// so flipping it later changes nothing. `None` stops the sweeps;
    /// posting lists already cold stay cold until a mutation promotes
    /// them.
    pub fn set_residency(&mut self, policy: Option<ResidencyPolicy>) {
        self.residency = policy;
    }

    /// The active residency policy, if any.
    pub fn residency(&self) -> Option<ResidencyPolicy> {
        self.residency
    }

    /// The block index's cold-tier counters (cumulative since the policy
    /// was attached).
    pub fn cold_stats(&self) -> ColdStats {
        self.index.cold_stats()
    }

    /// The end-of-commit residency sweep: arm the index on the first one
    /// (opening the spill file if the policy asks for it), then let it
    /// demote stale and over-budget posting lists.
    fn enforce_residency(&mut self) {
        let Some(policy) = self.residency else { return };
        if !self.index.residency_enabled() {
            let spill = policy.spill.then(|| {
                Box::new(TempSpillFile::create().expect("create cold-tier spill file"))
                    as Box<dyn SpillBackend>
            });
            self.index.enable_residency(spill);
        }
        self.index
            .enforce_residency(policy.idle_commits, policy.budget_bytes);
    }

    /// The mutable store (read access).
    pub fn store(&self) -> &MutableProfileStore {
        &self.store
    }

    /// The current candidate set.
    pub fn retained(&self) -> &RetainedPairs {
        self.blocker.retained()
    }

    /// The owned graph snapshot (read access; patched per commit).
    pub fn snapshot(&self) -> &GraphSnapshot {
        &self.snapshot
    }

    /// Diagnostics/test oracle: the weight of edge `(u, v)`, re-derived
    /// from the blocks — one full adjacency load of `u`
    /// ([`GraphSnapshot::edge`]) — under this pipeline's weighing scheme;
    /// `None` when the profiles share no cleaned block. With `u < v` it is
    /// bit-identical to what the decision stage compared, which is what
    /// [`PairDelta::added_weights`] hands out without the traversal; tests
    /// pin the two against each other. Reads only
    /// immutable-between-commits state, at any residency policy.
    pub fn edge_weight(&self, u: u32, v: u32) -> Option<f64> {
        let acc = self.snapshot.edge(u, v)?;
        Some(self.weigher.weight(&self.snapshot, u, v, &acc))
    }

    /// The pipeline's metrics registry: everything `commit` has recorded
    /// (phase histograms, repair-tier counters, cleaner drains, structure
    /// gauges). Snapshot it for aggregate reporting
    /// ([`blast_obs::CommitTotals::from_snapshot`]) or Prometheus export
    /// ([`blast_obs::MetricsSnapshot::encode_text`]).
    pub fn metrics(&self) -> &CommitMetrics {
        &self.metrics
    }

    /// The pipeline's resident-footprint counters (see [`MemoryFootprint`]).
    /// The per-structure `*_bytes` count hot state only; evicted posting
    /// lists appear once, under `cold_bytes` (in-memory frames) or
    /// `spilled_bytes` (on disk).
    pub fn footprint(&self) -> MemoryFootprint {
        let cold = self.cold_stats();
        MemoryFootprint {
            live_edges: self.blocker.live_edges(),
            cached_accumulators: self.blocker.cached_accumulators(),
            interned_tokens: self.index.interned_tokens(),
            store_bytes: self.store.resident_bytes(),
            index_bytes: self.index.resident_bytes(),
            cleaner_bytes: self.cleaner.resident_bytes(),
            snapshot_bytes: self.snapshot.resident_bytes(),
            blocker_bytes: self.blocker.resident_bytes(),
            cold_bytes: cold.cold_bytes,
            spilled_bytes: cold.spilled_bytes,
        }
    }

    /// Inserts a profile, returning its stable global id.
    pub fn insert<'a>(
        &mut self,
        source: SourceId,
        external_id: &str,
        pairs: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> ProfileId {
        let id = self.store.insert(source, external_id, pairs);
        self.reindex(id);
        id
    }

    /// Replaces a profile's name–value pairs.
    pub fn update<'a>(
        &mut self,
        id: ProfileId,
        pairs: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) {
        self.store.update(id, pairs);
        self.reindex(id);
    }

    /// Tombstones a profile.
    pub fn delete(&mut self, id: ProfileId) {
        let t0 = Instant::now();
        self.store.delete(id);
        self.index.clear_profile(id.0);
        self.pending_index_secs += t0.elapsed().as_secs_f64();
        self.pending = true;
    }

    fn reindex(&mut self, id: ProfileId) {
        let t0 = Instant::now();
        let source = self.store.source_of(id);
        // Collect (cluster, token) keys exactly like batch Token Blocking:
        // excluded attributes produce none, everything else its cluster.
        // Tokens are interned straight out of the tokenizer callback, so no
        // per-token string is ever materialised on the streaming path.
        let mut keys: Vec<(ClusterId, Symbol)> = Vec::new();
        let index = &mut self.index;
        for (attr, value) in self.store.values(id) {
            let cluster = match &self.partitioning {
                Some(p) => p.cluster_of(source, *attr),
                None => Some(ClusterId::GLUE),
            };
            let Some(cluster) = cluster else { continue };
            self.tokenizer.for_each_token(value, |tok| {
                keys.push((cluster, index.intern_token(tok)));
            });
        }
        self.index.set_profile_symbols(id.0, keys);
        self.pending_index_secs += t0.elapsed().as_secs_f64();
        self.pending = true;
    }

    /// Absorbs the pending micro-batch, repairing blocks, the owned graph
    /// snapshot, weights and pruning over the affected neighbourhoods, and
    /// returns the candidate-pair delta.
    pub fn commit(&mut self) -> CommitOutcome {
        self.pending = false;
        let mut timings = CommitTimings {
            index_secs: std::mem::take(&mut self.pending_index_secs),
            ..CommitTimings::default()
        };

        let t0 = Instant::now();
        let drain = self.index.drain_dirty();
        timings.index_secs += t0.elapsed().as_secs_f64();

        // The cleaner patches the snapshot as it decides; the slot
        // restatements and row splices are timed apart as the snapshot
        // phase.
        let t0 = Instant::now();
        let outcome = self.cleaner.apply(
            &self.index,
            &drain,
            &mut self.snapshot,
            self.store.total_slots(),
            self.partitioning.as_ref().map(|p| p.entropies()),
        );
        timings.snapshot_secs = outcome.snapshot_secs;
        timings.cleaning_secs = (t0.elapsed().as_secs_f64() - outcome.snapshot_secs).max(0.0);

        // Degrees are delta-maintained inside the repair ladder (EJS's
        // former forced-full path is gone): `refresh` patches them from
        // its edge-existence diff before any weight is computed.
        let t0 = Instant::now();
        let scope = DirtyScope {
            nodes: outcome.dirty_nodes,
            lists_changed: outcome.lists_changed,
            total_blocks_changed: outcome.total_blocks_changed,
        };
        let (delta, mut stats) = self
            .blocker
            .refresh(&mut self.snapshot, &*self.weigher, &scope);
        timings.decision_secs = stats.decision_secs;
        timings.reweigh_secs = stats.reweigh_secs;
        timings.repair_secs =
            (t0.elapsed().as_secs_f64() - stats.decision_secs - stats.reweigh_secs).max(0.0);
        stats.patched_rows = outcome.patched_rows;
        stats.patched_slots = outcome.patched_slots;
        stats.added = delta.added.len();
        stats.retracted = delta.retracted.len();
        stats.cleaner_dirty_keys = drain.keys.len();
        stats.cleaner_removed_members = drain.removed_members.len();
        stats.cleaner_touched_profiles = drain.touched_profiles.len();
        // Demote cold posting lists *after* the repair settled — eviction never
        // observes (or perturbs) in-flight repair state, so any budget or
        // cadence leaves the commit outcome bit-identical.
        self.enforce_residency();
        let cold = self.cold_stats();
        stats.cold_evictions = (cold.evictions - self.cold_seen.0) as usize;
        stats.cold_rehydrations = (cold.rehydrations - self.cold_seen.1) as usize;
        self.cold_seen = (cold.evictions, cold.rehydrations);
        // The levels are all O(1) reads — `footprint()`'s byte estimates
        // are O(n) and stay off the commit path.
        stats.retained = self.blocker.retained_len();
        stats.blocks = self.snapshot.total_blocks() as usize;
        stats.live_edges = self.blocker.live_edges();
        stats.cached_accumulators = self.blocker.cached_accumulators();
        stats.interned_tokens = self.index.interned_tokens();
        stats.cold_resident_bytes = cold.cold_bytes;
        self.metrics.record(&stats, &timings);
        CommitOutcome {
            delta,
            stats,
            retained_len: stats.retained,
            blocks: stats.blocks,
            timings,
        }
    }

    /// Forces the next commit onto the degraded-full repair tier (tier 3)
    /// regardless of what moved — the testing/operational escape hatch
    /// that keeps the rarely-exercised fallback exercised (see
    /// [`crate::IncrementalMetaBlocker::force_full_next`]).
    pub fn force_full_repair(&mut self) {
        self.blocker.force_full_next();
    }

    /// Whether mutations are waiting for a commit.
    pub fn has_pending(&self) -> bool {
        self.pending
    }

    /// Freezes the store into the batch input (see
    /// [`MutableProfileStore::materialize`]).
    pub fn materialize(&self) -> ErInput {
        self.store.materialize()
    }

    /// The from-scratch batch counterpart on the materialised input — what
    /// the equivalence contract compares [`IncrementalPipeline::retained`]
    /// against. (Off the commit path, so it *does* build a fresh snapshot.)
    pub fn batch_retained(&self) -> RetainedPairs {
        let input = self.materialize();
        let blocks = self.batch_blocks(&input);
        let mut ctx = GraphSnapshot::build(&blocks);
        if let Some(p) = &self.partitioning {
            ctx = ctx.with_block_entropies(p.block_entropies(&blocks));
        }
        if self.weigher.requires_degrees() {
            ctx.ensure_degrees();
        }
        self.blocker.pruning().batch_prune(&ctx, &*self.weigher)
    }

    /// The batch blocking + cleaning counterpart on an input.
    pub fn batch_blocks(&self, input: &ErInput) -> BlockCollection {
        let blocking = TokenBlocking::with_tokenizer(self.tokenizer.clone());
        let blocks = match &self.partitioning {
            Some(p) => blocking.build_with(input, p),
            None => blocking.build(input),
        };
        let config = self.cleaner.config();
        let blocks = if config.purging {
            BlockPurging::new()
                .max_profile_fraction(config.purge_fraction)
                .purge(&blocks)
        } else {
            blocks
        };
        if config.filtering {
            BlockFiltering::with_ratio(config.filter_ratio).filter(&blocks)
        } else {
            blocks
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_graph::meta::PruningAlgorithm;
    use blast_graph::weights::WeightingScheme;

    fn wnp1() -> IncrementalPruning {
        IncrementalPruning::Traditional(PruningAlgorithm::Wnp1)
    }

    #[test]
    fn stream_inserts_match_batch_at_every_commit() {
        let mut p =
            IncrementalPipeline::dirty(WeightingScheme::Cbs, wnp1(), CleaningConfig::default());
        let rows = [
            "john abram jr car seller 1985 main street",
            "ellen smith 85 retail abram st 30 ny",
            "jon jr abram 85 car retail main st",
            "ellen smith may 10 1985 retailer abram street ny",
            "marie curie physics",
        ];
        for (i, row) in rows.iter().enumerate() {
            p.insert(SourceId(0), &format!("p{i}"), [("text", *row)]);
            let out = p.commit();
            assert_eq!(p.retained().pairs(), p.batch_retained().pairs(), "step {i}");
            assert_eq!(out.retained_len, p.retained().len());
            assert_eq!(
                p.snapshot().version(),
                (i + 1) as u64,
                "one patch per commit"
            );
        }
    }

    #[test]
    fn update_and_delete_emit_retractions() {
        let mut p =
            IncrementalPipeline::dirty(WeightingScheme::Cbs, wnp1(), CleaningConfig::none());
        let a = p.insert(SourceId(0), "a", [("t", "alpha beta gamma")]);
        let _b = p.insert(SourceId(0), "b", [("t", "alpha beta gamma")]);
        let out = p.commit();
        assert_eq!(out.retained_len, 1, "the twin pair is retained");
        assert_eq!(out.delta.added.len(), 1);

        // Deleting one endpoint retracts the pair.
        p.delete(a);
        let out = p.commit();
        assert_eq!(out.delta.retracted.len(), 1);
        assert_eq!(p.retained().len(), 0);
        assert_eq!(p.retained().pairs(), p.batch_retained().pairs());
    }

    #[test]
    fn empty_commit_is_a_noop() {
        let mut p =
            IncrementalPipeline::dirty(WeightingScheme::Cbs, wnp1(), CleaningConfig::default());
        p.insert(SourceId(0), "a", [("t", "x y")]);
        p.commit();
        assert!(!p.has_pending());
        let out = p.commit();
        assert!(out.delta.is_empty());
        assert_eq!(out.stats.patched_rows, 0, "nothing to patch");
    }

    #[test]
    fn clean_clean_stream_matches_batch() {
        let mut p = IncrementalPipeline::clean_clean(
            3,
            WeightingScheme::Js,
            IncrementalPruning::Traditional(PruningAlgorithm::Wnp2),
            CleaningConfig::default(),
        );
        p.insert(
            SourceId(0),
            "a0",
            [("name", "john abram"), ("year", "1985")],
        );
        p.insert(SourceId(1), "b0", [("title", "john abram 1985")]);
        p.commit();
        assert_eq!(p.retained().pairs(), p.batch_retained().pairs());
        p.insert(SourceId(0), "a1", [("name", "ellen smith"), ("year", "85")]);
        p.insert(SourceId(1), "b1", [("title", "ellen smith 85")]);
        p.commit();
        assert_eq!(p.retained().pairs(), p.batch_retained().pairs());
        // Cross-separator pairs only.
        for (x, y) in p.retained().iter() {
            assert!(x.0 < 3 && y.0 >= 3);
        }
    }

    /// A WEP mean drift must flip *clean* edges — nodes the micro-batch
    /// never touched — via the ordered weight index's frontier band, and
    /// report them as threshold crossers.
    #[test]
    fn wep_mean_drift_flips_clean_edges() {
        let mut p = IncrementalPipeline::dirty(
            WeightingScheme::Cbs,
            IncrementalPruning::Traditional(PruningAlgorithm::Wep),
            CleaningConfig::none(),
        );
        p.insert(SourceId(0), "a", [("t", "x y")]);
        p.insert(SourceId(0), "b", [("t", "x y")]);
        let out = p.commit();
        // Single edge (0,1) at CBS weight 2; Θ = 2 → retained.
        assert_eq!(out.retained_len, 1);

        // A disjoint, heavier twin pair: edge (2,3) at weight 4. Θ moves to
        // 3, so the untouched edge (0,1) drops — nodes 0 and 1 are clean,
        // the flip must come from the frontier band.
        p.insert(SourceId(0), "c", [("t", "p q r s")]);
        p.insert(SourceId(0), "d", [("t", "p q r s")]);
        let out = p.commit();
        assert!(!out.stats.is_full(), "disjoint insert must not degrade");
        assert_eq!(out.stats.threshold_crossers, 1, "clean edge crossed Θ");
        assert_eq!(
            out.delta.retracted,
            vec![(ProfileId(0), ProfileId(1))],
            "the clean survivor is retracted by mean drift"
        );
        assert_eq!(out.delta.added, vec![(ProfileId(2), ProfileId(3))]);
        assert_eq!(p.retained().pairs(), p.batch_retained().pairs());
    }

    #[test]
    fn footprint_counters_track_the_structures() {
        let mut p = IncrementalPipeline::dirty(
            WeightingScheme::Cbs,
            IncrementalPruning::Traditional(PruningAlgorithm::Wep),
            CleaningConfig::none(),
        );
        let empty = p.footprint();
        assert_eq!(empty.live_edges, 0);
        assert_eq!(empty.interned_tokens, 0);

        p.insert(SourceId(0), "a", [("t", "alpha beta")]);
        p.insert(SourceId(0), "b", [("t", "alpha beta")]);
        p.insert(SourceId(0), "c", [("t", "alpha gamma")]);
        p.commit();
        let fp = p.footprint();
        // Edges: (a,b), (a,c), (b,c) share blocks alpha/beta/gamma.
        assert_eq!(fp.live_edges, 3);
        assert_eq!(
            fp.cached_accumulators,
            2 * fp.live_edges,
            "one packed entry per direction"
        );
        assert_eq!(fp.interned_tokens, 3, "alpha, beta, gamma");
        assert!(fp.store_bytes > 0);
        assert!(fp.index_bytes > 0);
        assert!(fp.cleaner_bytes > 0);
        assert!(fp.snapshot_bytes > 0);
        assert!(fp.blocker_bytes > 0);
        assert_eq!(
            fp.total_bytes(),
            fp.store_bytes
                + fp.index_bytes
                + fp.cleaner_bytes
                + fp.snapshot_bytes
                + fp.blocker_bytes
        );

        // Deleting everything drains the live counters.
        for pid in 0..3 {
            p.delete(ProfileId(pid));
        }
        p.commit();
        let fp = p.footprint();
        assert_eq!(fp.live_edges, 0);
        assert_eq!(fp.cached_accumulators, 0);
        assert_eq!(fp.interned_tokens, 3, "interned strings are permanent");
    }

    #[test]
    fn zero_budget_stream_matches_batch_and_evicts() {
        // budget 0 + idle 0: every evictable row is demoted after every
        // commit — the adversarial extreme of the residency policy.
        let mut p =
            IncrementalPipeline::dirty(WeightingScheme::Cbs, wnp1(), CleaningConfig::default())
                .with_residency(ResidencyPolicy {
                    budget_bytes: 0,
                    idle_commits: 0,
                    spill: false,
                });
        let rows = [
            "john abram jr car seller 1985 main street",
            "ellen smith 85 retail abram st 30 ny",
            "jon jr abram 85 car retail main st",
            "ellen smith may 10 1985 retailer abram street ny",
            "marie curie physics",
        ];
        for (i, row) in rows.iter().enumerate() {
            p.insert(SourceId(0), &format!("p{i}"), [("text", *row)]);
            p.commit();
            assert_eq!(p.retained().pairs(), p.batch_retained().pairs(), "step {i}");
        }
        let cold = p.cold_stats();
        assert!(cold.evictions > 0, "zero budget must demote rows");
        assert!(cold.rehydrations > 0, "later commits must read cold rows");
        let fp = p.footprint();
        assert!(fp.cold_bytes > 0, "frames stay in the in-memory arena");
        assert_eq!(fp.spilled_bytes, 0, "spill disabled");
        // Spilled variant: identical answers, frames on disk.
        let mut s =
            IncrementalPipeline::dirty(WeightingScheme::Cbs, wnp1(), CleaningConfig::default())
                .with_residency(ResidencyPolicy {
                    budget_bytes: 0,
                    idle_commits: 0,
                    spill: true,
                });
        for (i, row) in rows.iter().enumerate() {
            s.insert(SourceId(0), &format!("p{i}"), [("text", *row)]);
            s.commit();
        }
        assert_eq!(s.retained().pairs(), p.retained().pairs());
        let fp = s.footprint();
        assert_eq!(fp.cold_bytes, 0, "frames live in the spill file");
        assert!(fp.spilled_bytes > 0);
    }

    #[test]
    fn commit_records_phase_timings() {
        let mut p =
            IncrementalPipeline::dirty(WeightingScheme::Cbs, wnp1(), CleaningConfig::default());
        p.insert(SourceId(0), "a", [("t", "x y z")]);
        p.insert(SourceId(0), "b", [("t", "x y w")]);
        let out = p.commit();
        assert!(out.timings.index_secs > 0.0, "insert time accrued");
        assert!(out.timings.total_secs() >= out.timings.repair_secs);
    }
}
