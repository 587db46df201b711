//! Incremental block cleaning: purging + filtering re-applied only where a
//! micro-batch touched the index, editing the graph snapshot's block slots
//! in place instead of materialising a collection.
//!
//! Both batch cleaners are *locally decidable* given a handful of cached
//! statistics, which is what makes incremental re-application sound:
//!
//! * **Purging** keeps a block iff `|b| ≤ max` — a per-block test. It must
//!   be re-evaluated for blocks whose membership changed and, when the
//!   threshold itself moved (the profile count grew), for the blocks whose
//!   length lies in the crossed interval — found through the index's lazy
//!   length buckets, not a full key scan.
//! * **Filtering** keeps profile `p` in the `ratio` smallest of its
//!   surviving blocks, ranked by (cardinality, canonical position). The
//!   kept set of `p` depends only on `p`'s own block list and those blocks'
//!   cardinalities, so it must be recomputed exactly for the profiles whose
//!   list or whose blocks changed — everyone else's cached kept set remains
//!   bit-identical to what a batch run would compute.
//!
//! The cleaner keeps only those decision caches (purge status, raw
//! cardinality, kept sets). The cleaned memberships themselves live in one
//! place, the [`GraphSnapshot`]'s slots (slot id = key id): each kept-set
//! change is one member inserted into or removed from a slot, the snapshot
//! restates the changed slots (a slot emits a block iff its comparison
//! cardinality is positive) and the cleaner splices the rows whose block
//! list moved. The [`CleanOutcome`] carries the *graph-dirty* node set:
//! every profile whose cleaned co-occurrence changed, which is what the
//! downstream meta-blocking repair needs. The snapshot stays
//! field-for-field equivalent to batch purge→filter on the materialised
//! input ([`IncrementalCleaner::materialize`] reads that collection back
//! for verification paths; the commit hot path never does).

use crate::index::{DirtyDrain, IncrementalBlockIndex, KeyId};
use blast_blocking::block::{comparison_cardinality, Block};
use blast_blocking::collection::BlockCollection;
use blast_graph::context::GraphSnapshot;
use std::time::Instant;

/// Purging/filtering configuration (defaults match `BlastConfig`).
#[derive(Debug, Clone)]
pub struct CleaningConfig {
    /// Apply Block Purging.
    pub purging: bool,
    /// Maximum fraction of the collection's profiles a block may hold.
    pub purge_fraction: f64,
    /// Apply Block Filtering.
    pub filtering: bool,
    /// Fraction of each profile's smallest blocks to keep.
    pub filter_ratio: f64,
}

impl Default for CleaningConfig {
    fn default() -> Self {
        Self {
            purging: true,
            purge_fraction: 0.5,
            filtering: true,
            filter_ratio: 0.8,
        }
    }
}

impl CleaningConfig {
    /// No cleaning at all (raw token blocking).
    pub fn none() -> Self {
        Self {
            purging: false,
            filtering: false,
            ..Self::default()
        }
    }
}

/// What one cleaning pass changed, for the graph-repair stage.
#[derive(Debug)]
pub struct CleanOutcome {
    /// Profiles whose cleaned co-occurrence changed (members added to or
    /// removed from some cleaned block, or members of blocks whose
    /// cardinality changed). Sorted, deduplicated.
    pub dirty_nodes: Vec<u32>,
    /// Profiles whose cleaned block *list* changed (their `|B_u|` moved).
    /// Subset of `dirty_nodes`; sorted.
    pub lists_changed: Vec<u32>,
    /// Whether the cleaned block count |B| differs from before the pass.
    pub total_blocks_changed: bool,
    /// Block slots the snapshot restated.
    pub patched_slots: usize,
    /// Profile rows spliced.
    pub patched_rows: usize,
    /// Wall-clock seconds of the slot restatements and row splices (steps
    /// 6–7 of [`IncrementalCleaner::apply`]).
    pub snapshot_secs: f64,
}

/// The incremental purging + filtering stage.
#[derive(Debug)]
pub struct IncrementalCleaner {
    config: CleaningConfig,
    /// Per key: survives validity + purging (aligned with the key slab).
    present: Vec<bool>,
    /// Per key: cached raw comparison cardinality.
    cardinality: Vec<u64>,
    /// Per profile: kept key ids (sorted by key id).
    kept: Vec<Vec<KeyId>>,
    prev_max_profiles: Option<usize>,
}

impl IncrementalCleaner {
    /// A cleaner with the given configuration.
    pub fn new(config: CleaningConfig) -> Self {
        Self {
            config,
            present: Vec::new(),
            cardinality: Vec::new(),
            kept: Vec::new(),
            prev_max_profiles: None,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CleaningConfig {
        &self.config
    }

    /// Estimated resident heap footprint of the decision caches in bytes
    /// (capacities, not lengths).
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.present.capacity()
            + self.cardinality.capacity() * size_of::<u64>()
            + self
                .kept
                .iter()
                .map(|k| k.capacity() * size_of::<KeyId>())
                .sum::<usize>()
            + self.kept.capacity() * size_of::<Vec<KeyId>>()
    }

    /// Re-applies cleaning after the index absorbed a micro-batch, patching
    /// `snapshot` in place (one [`GraphSnapshot::begin_patch`] per call).
    /// `cluster_entropies` carries the fixed partitioning's aggregate
    /// entropies (indexed by cluster id) for the restated slots; `None` for
    /// schema-agnostic pipelines.
    pub fn apply(
        &mut self,
        index: &IncrementalBlockIndex,
        drain: &DirtyDrain,
        snapshot: &mut GraphSnapshot,
        total_profiles: u32,
        cluster_entropies: Option<&[f64]>,
    ) -> CleanOutcome {
        let n_keys = index.key_count();
        let (clean_clean, separator) = (snapshot.is_clean_clean(), snapshot.separator());
        let blocks_before = snapshot.total_blocks();
        snapshot.begin_patch(total_profiles, n_keys);
        self.present.resize(n_keys, false);
        self.cardinality.resize(n_keys, 0);
        if self.kept.len() < total_profiles as usize {
            self.kept.resize_with(total_profiles as usize, Vec::new);
        }

        // 1. Refresh cached cardinalities of the touched keys.
        for &k in &drain.keys {
            self.cardinality[k as usize] =
                index.with_postings(k, |p| comparison_cardinality(p, separator, clean_clean));
        }

        // 2. Purging: per-key length test. A threshold move re-evaluates the
        //    keys whose length lies in the crossed interval (via the index's
        //    lazy length buckets); otherwise only the dirty ones.
        let max_profiles = if self.config.purging {
            (total_profiles as f64 * self.config.purge_fraction) as usize
        } else {
            usize::MAX
        };
        let mut flipped: Vec<KeyId> = Vec::new();
        let mut present_of = |this: &mut Self, k: KeyId| {
            let e = index.key(k);
            let now = this.cardinality[k as usize] > 0 && e.postings_len() <= max_profiles;
            if now != this.present[k as usize] {
                this.present[k as usize] = now;
                flipped.push(k);
            }
        };
        match self.prev_max_profiles {
            Some(prev) if prev == max_profiles => {
                for &k in &drain.keys {
                    present_of(self, k);
                }
            }
            // The profile count only grows, so the threshold only rises:
            // exactly the keys with prev < |postings| ≤ max can resurface.
            // Their ids sit in the crossed length buckets (lazy entries are
            // deduplicated by the length re-check inside `present_of` being
            // idempotent). A falling threshold (config change) or the first
            // pass falls back to the full scan.
            Some(prev) if prev < max_profiles => {
                let hi = max_profiles.min(total_profiles as usize);
                for len in (prev + 1)..=hi {
                    for &k in index.keys_of_len(len) {
                        if index.key(k).postings_len() == len {
                            present_of(self, k);
                        }
                    }
                }
                for &k in &drain.keys {
                    present_of(self, k);
                }
            }
            _ => {
                for k in 0..n_keys as KeyId {
                    present_of(self, k);
                }
            }
        }
        self.prev_max_profiles = Some(max_profiles);
        // Every present-flip re-ranks its members' kept sets; the flips
        // that were not already drained add members the filtering stage
        // would otherwise miss.
        flipped.sort_unstable();
        flipped.dedup();
        let threshold_flipped: Vec<KeyId> = flipped
            .iter()
            .copied()
            .filter(|k| drain.keys.binary_search(k).is_err())
            .collect();

        // 3. The profiles whose kept set must be recomputed. A dirty key
        //    that is purged now and was purged before is skipped: it sits
        //    in no kept ranking (not present), it cannot enter one without
        //    flipping, and its cardinality only ranks keys while present —
        //    so its (possibly huge) raw posting list cannot move any
        //    member's kept set. This keeps stop-word-block mutations from
        //    costing O(|collection|) per commit at 10⁵–10⁶ profiles.
        let mut filter_dirty: Vec<u32> = Vec::new();
        filter_dirty.extend_from_slice(&drain.touched_profiles);
        filter_dirty.extend_from_slice(&drain.removed_members);
        for &k in drain.keys.iter() {
            if self.present[k as usize] || flipped.binary_search(&k).is_ok() {
                index.with_postings(k, |p| filter_dirty.extend(p.iter().map(|p| p.0)));
            }
        }
        for &k in &threshold_flipped {
            index.with_postings(k, |p| filter_dirty.extend(p.iter().map(|p| p.0)));
        }
        filter_dirty.sort_unstable();
        filter_dirty.dedup();

        // 4. Recompute kept sets; diff against the cache to edit the
        //    snapshot's slot memberships and collect the graph-dirty scope.
        let mut changed_keys: Vec<KeyId> = Vec::new();
        let mut removed_nodes: Vec<u32> = Vec::new();
        let mut lists_changed: Vec<u32> = Vec::new();
        let mut ranked: Vec<KeyId> = Vec::new();
        for &p in &filter_dirty {
            ranked.clear();
            ranked.extend(
                index
                    .profile_keys(p)
                    .iter()
                    .copied()
                    .filter(|&k| self.present[k as usize]),
            );
            if self.config.filtering {
                let keep = ((ranked.len() as f64) * self.config.filter_ratio).ceil() as usize;
                if keep < ranked.len() {
                    // Rank by (cardinality asc, canonical order asc) — the
                    // canonical (cluster, token) order *is* the block-id
                    // order of the purged collection.
                    ranked.sort_unstable_by(|&a, &b| {
                        self.cardinality[a as usize]
                            .cmp(&self.cardinality[b as usize])
                            .then_with(|| index.canon_key(a).cmp(&index.canon_key(b)))
                    });
                    ranked.truncate(keep);
                    ranked.sort_unstable();
                }
            }
            let kept_new = &ranked;
            let kept_old = &self.kept[p as usize];
            // Merge-diff the sorted key-id lists.
            let (mut i, mut j) = (0, 0);
            let mut changed = false;
            let mut adds: Vec<KeyId> = Vec::new();
            let mut removes: Vec<KeyId> = Vec::new();
            while i < kept_old.len() || j < kept_new.len() {
                match (kept_old.get(i), kept_new.get(j)) {
                    (Some(&o), Some(&n)) if o == n => {
                        i += 1;
                        j += 1;
                    }
                    (Some(&o), Some(&n)) if o < n => {
                        removes.push(o);
                        i += 1;
                    }
                    (Some(_), Some(&n)) => {
                        adds.push(n);
                        j += 1;
                    }
                    (Some(&o), None) => {
                        removes.push(o);
                        i += 1;
                    }
                    (None, Some(&n)) => {
                        adds.push(n);
                        j += 1;
                    }
                    (None, None) => unreachable!(),
                }
            }
            for k in removes {
                snapshot.remove_member(k, p);
                changed_keys.push(k);
                removed_nodes.push(p);
                changed = true;
            }
            for k in adds {
                snapshot.insert_member(k, p);
                changed_keys.push(k);
                changed = true;
            }
            if changed {
                lists_changed.push(p);
                self.kept[p as usize] = std::mem::take(&mut ranked);
            }
        }
        changed_keys.sort_unstable();
        changed_keys.dedup();

        // 5. Graph-dirty nodes: everyone in a cleaned block whose membership
        //    (and hence cardinality and co-occurrence) changed, plus the
        //    members that were just removed from one.
        let mut dirty_nodes = removed_nodes;
        for &k in &changed_keys {
            dirty_nodes.extend(snapshot.slot_members(k).iter().map(|p| p.0));
        }

        // 6. Restate the changed slots. Only keys whose cleaned membership
        //    moved can start or stop emitting a block: a key that leaves
        //    the purged collection drains to an empty membership through
        //    its members' kept sets, and one that enters it gains members
        //    the same way. A slot whose liveness flips changes |B_u| for
        //    every member that *stayed* in it — record them as
        //    list-changed.
        let t0 = Instant::now();
        for &k in &changed_keys {
            let entropy = cluster_entropies.map_or(1.0, |e| e[index.key(k).cluster.index()]);
            if snapshot.restate_slot(k, entropy) {
                let members = snapshot.slot_members(k).iter().map(|p| p.0);
                lists_changed.extend(members.clone());
                dirty_nodes.extend(members);
            }
        }
        lists_changed.sort_unstable();
        lists_changed.dedup();
        dirty_nodes.sort_unstable();
        dirty_nodes.dedup();

        // 7. Row splices: every profile whose cleaned block list moved gets
        //    its new row — the live subset of its kept keys, in the
        //    canonical (cluster, token) order batch block ids follow.
        let mut row: Vec<KeyId> = Vec::new();
        for &p in &lists_changed {
            row.clear();
            row.extend(
                self.kept[p as usize]
                    .iter()
                    .copied()
                    .filter(|&k| snapshot.slot_is_live(k)),
            );
            row.sort_unstable_by(|&a, &b| index.canon_key(a).cmp(&index.canon_key(b)));
            snapshot.splice_row(p, &row);
        }
        let snapshot_secs = t0.elapsed().as_secs_f64();

        CleanOutcome {
            total_blocks_changed: snapshot.total_blocks() != blocks_before,
            patched_slots: changed_keys.len(),
            patched_rows: lists_changed.len(),
            snapshot_secs,
            dirty_nodes,
            lists_changed,
        }
    }

    /// Materialises the cleaned collection `snapshot` holds after an
    /// [`IncrementalCleaner::apply`] over `index`, in canonical order,
    /// exactly like batch purge→filter on the materialised input (blocks
    /// without a comparison dropped the same way; a dirty collection's
    /// separator is its profile count, as in batch). Verification only —
    /// O(|keys| log |keys|), never on the commit path.
    pub fn materialize(index: &IncrementalBlockIndex, snapshot: &GraphSnapshot) -> BlockCollection {
        let clean_clean = snapshot.is_clean_clean();
        let total_profiles = snapshot.total_profiles();
        let separator = if clean_clean {
            snapshot.separator()
        } else {
            total_profiles
        };
        let blocks: Vec<Block> = index
            .ordered_keys()
            .into_iter()
            .filter(|&k| snapshot.slot_is_live(k))
            .map(|k| {
                Block::new(
                    index.label(k),
                    index.key(k).cluster,
                    snapshot.slot_members(k).to_vec(),
                    separator,
                )
            })
            .collect();
        BlockCollection::new(blocks, clean_clean, separator, total_profiles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_blocking::filtering::BlockFiltering;
    use blast_blocking::key::ClusterId;
    use blast_blocking::purging::BlockPurging;
    use blast_blocking::token_blocking::TokenBlocking;
    use blast_datamodel::collection::EntityCollection;
    use blast_datamodel::entity::SourceId;
    use blast_datamodel::input::ErInput;
    use blast_datamodel::tokenizer::Tokenizer;

    /// Batch counterpart of the incremental cleaner for a dirty input.
    fn batch_cleaned(input: &ErInput, config: &CleaningConfig) -> BlockCollection {
        let blocks = TokenBlocking::new().build(input);
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

    fn assert_same_collection(a: &BlockCollection, b: &BlockCollection) {
        assert_eq!(a.len(), b.len(), "block count");
        for (x, y) in a.blocks().iter().zip(b.blocks()) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.profiles, y.profiles, "block {}", x.label);
            assert_eq!(x.split, y.split);
            assert_eq!(x.cluster, y.cluster);
        }
        assert_eq!(a.separator(), b.separator());
        assert_eq!(a.total_profiles(), b.total_profiles());
    }

    /// Streams profiles through index+cleaner and checks the cleaned
    /// collection the snapshot holds equals batch purge→filter at every
    /// step, and that the live-block count tracks it.
    #[test]
    fn incremental_cleaning_tracks_batch() {
        let tokenizer = Tokenizer::new();
        let config = CleaningConfig::default();
        let mut index = IncrementalBlockIndex::new(false);
        let mut cleaner = IncrementalCleaner::new(config.clone());
        let mut snapshot = GraphSnapshot::empty(false, 0);

        let rows: Vec<(&str, &str)> = vec![
            ("p0", "john abram jr"),
            ("p1", "ellen smith abram"),
            ("p2", "jon abram jr car"),
            ("p3", "ellen smith ny abram"),
            ("p4", "car seller main abram"),
            ("p5", "main street abram jr"),
        ];

        let mut d = EntityCollection::new(SourceId(0));
        for (step, (id, text)) in rows.iter().enumerate() {
            d.push_pairs(id, [("text", *text)]);
            let pid = step as u32;
            let mut keys: Vec<(ClusterId, String)> = Vec::new();
            tokenizer.for_each_token(text, |t| keys.push((ClusterId::GLUE, t.to_string())));
            index.set_profile(pid, keys.iter().map(|(c, t)| (*c, t.as_str())));

            let drain = index.drain_dirty();
            let total = (step + 1) as u32;
            cleaner.apply(&index, &drain, &mut snapshot, total, None);
            let materialised = IncrementalCleaner::materialize(&index, &snapshot);
            let batch = batch_cleaned(&ErInput::dirty(d.clone()), &config);
            assert_same_collection(&materialised, &batch);
            assert_eq!(
                snapshot.total_blocks(),
                batch.len() as u64,
                "live-block count"
            );
        }
    }

    #[test]
    fn untouched_profiles_are_not_dirty() {
        let config = CleaningConfig::none();
        let mut index = IncrementalBlockIndex::new(false);
        let mut cleaner = IncrementalCleaner::new(config);
        let mut snapshot = GraphSnapshot::empty(false, 0);
        // Two disjoint communities.
        index.set_profile(0, [(ClusterId::GLUE, "a"), (ClusterId::GLUE, "b")]);
        index.set_profile(1, [(ClusterId::GLUE, "a"), (ClusterId::GLUE, "b")]);
        index.set_profile(2, [(ClusterId::GLUE, "x")]);
        index.set_profile(3, [(ClusterId::GLUE, "x")]);
        let drain = index.drain_dirty();
        cleaner.apply(&index, &drain, &mut snapshot, 4, None);
        // Touch only the x community: profile 2 leaves the x block.
        index.set_profile(2, [(ClusterId::GLUE, "y")]);
        let drain = index.drain_dirty();
        let outcome = cleaner.apply(&index, &drain, &mut snapshot, 4, None);
        assert!(
            !outcome.dirty_nodes.contains(&0) && !outcome.dirty_nodes.contains(&1),
            "disjoint community must stay clean, got {:?}",
            outcome.dirty_nodes
        );
        // Both x members are dirty: 2 left, 3 lost its only co-member.
        assert!(outcome.dirty_nodes.contains(&2));
        assert!(outcome.dirty_nodes.contains(&3));
        // And the patch only splices the affected rows.
        assert!(outcome.lists_changed.iter().all(|&p| p == 2 || p == 3));
        assert_eq!(outcome.patched_rows, outcome.lists_changed.len());
        assert_eq!(snapshot.node_blocks(0), 2, "a, b untouched");
        assert_eq!(snapshot.node_blocks(3), 0, "x died");
    }

    #[test]
    fn purge_threshold_move_revisits_crossed_lengths() {
        // With fraction 0.5, a 2-member block is purged at total=3
        // (max = 1) but kept at total=4 (max = 2).
        let config = CleaningConfig {
            purging: true,
            purge_fraction: 0.5,
            filtering: false,
            filter_ratio: 0.8,
        };
        let mut index = IncrementalBlockIndex::new(false);
        let mut cleaner = IncrementalCleaner::new(config);
        let mut snapshot = GraphSnapshot::empty(false, 0);
        index.set_profile(0, [(ClusterId::GLUE, "t")]);
        index.set_profile(1, [(ClusterId::GLUE, "t")]);
        index.set_profile(2, [(ClusterId::GLUE, "z")]);
        let drain = index.drain_dirty();
        cleaner.apply(&index, &drain, &mut snapshot, 3, None);
        assert_eq!(snapshot.total_blocks(), 0, "t purged at max=1");
        // A fourth, unrelated profile raises the threshold; the untouched
        // "t" block must resurface.
        index.set_profile(3, [(ClusterId::GLUE, "z")]);
        let drain = index.drain_dirty();
        let outcome = cleaner.apply(&index, &drain, &mut snapshot, 4, None);
        let materialised = IncrementalCleaner::materialize(&index, &snapshot);
        let labels: Vec<&str> = materialised.blocks().iter().map(|b| &*b.label).collect();
        assert_eq!(labels, vec!["t", "z"]);
        assert_eq!(snapshot.total_blocks(), 2);
        assert!(outcome.total_blocks_changed);
        assert!(outcome.dirty_nodes.contains(&0));
        assert!(outcome.dirty_nodes.contains(&1));
    }
}
