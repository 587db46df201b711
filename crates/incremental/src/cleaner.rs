//! Incremental block cleaning: purging + filtering re-applied only where a
//! micro-batch touched the index, emitting a [`SnapshotDelta`] instead of a
//! materialised collection.
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
//! The outcome is a [`SnapshotDelta`] — the patched block slots (stable
//! key ids) and profile rows the graph snapshot applies in place — plus the
//! *graph-dirty* node set: every profile whose cleaned co-occurrence
//! changed, which is what the downstream meta-blocking repair needs. The
//! cleaner's cached state stays field-for-field equivalent to batch
//! purge→filter on the materialised input ([`IncrementalCleaner::materialize`]
//! rebuilds that collection for verification paths; the commit hot path
//! never does).

use crate::index::{DirtyDrain, IncrementalBlockIndex, KeyId};
use blast_blocking::block::Block;
use blast_blocking::collection::BlockCollection;
use blast_datamodel::entity::ProfileId;
use blast_graph::context::{RowPatch, SlotPatch, SnapshotDelta};

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

/// What one cleaning pass changed, for the snapshot and graph-repair stages.
#[derive(Debug)]
pub struct CleanOutcome {
    /// The slot/row patches bringing the graph snapshot up to date with the
    /// cleaned state of this commit.
    pub delta: SnapshotDelta,
    /// Number of cleaned (emitted) blocks after the commit — the batch
    /// collection's |B|.
    pub blocks: u64,
    /// Profiles whose cleaned co-occurrence changed (members added to or
    /// removed from some cleaned block, or members of blocks whose
    /// cardinality changed). Sorted, deduplicated.
    pub dirty_nodes: Vec<u32>,
    /// Profiles whose cleaned block *list* changed (their `|B_u|` moved).
    /// Subset of `dirty_nodes`; sorted.
    pub lists_changed: Vec<u32>,
    /// Whether the cleaned block count |B| differs from the previous pass.
    pub total_blocks_changed: bool,
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
    /// Per key: cleaned membership (sorted profile ids).
    cleaned: Vec<Vec<u32>>,
    /// Per key: whether the previous pass emitted it as a block. A flip
    /// changes the block count |B_u| of every *surviving* member — nodes
    /// whose own kept set did not move — so flips feed `lists_changed`.
    emitted: Vec<bool>,
    /// Running emitted-block count (the cleaned |B|).
    live_blocks: u64,
    prev_max_profiles: Option<usize>,
    prev_block_count: Option<u64>,
}

impl IncrementalCleaner {
    /// A cleaner with the given configuration.
    pub fn new(config: CleaningConfig) -> Self {
        Self {
            config,
            present: Vec::new(),
            cardinality: Vec::new(),
            kept: Vec::new(),
            cleaned: Vec::new(),
            emitted: Vec::new(),
            live_blocks: 0,
            prev_max_profiles: None,
            prev_block_count: None,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CleaningConfig {
        &self.config
    }

    /// Re-applies cleaning after the index absorbed a micro-batch.
    /// `cluster_entropies` carries the fixed partitioning's aggregate
    /// entropies (indexed by cluster id) for the slot patches; `None` for
    /// schema-agnostic pipelines.
    pub fn apply(
        &mut self,
        index: &IncrementalBlockIndex,
        drain: &DirtyDrain,
        clean_clean: bool,
        separator: u32,
        total_profiles: u32,
        cluster_entropies: Option<&[f64]>,
    ) -> CleanOutcome {
        let n_keys = index.key_count();
        self.present.resize(n_keys, false);
        self.cardinality.resize(n_keys, 0);
        self.cleaned.resize_with(n_keys, Vec::new);
        self.emitted.resize(n_keys, false);
        if self.kept.len() < total_profiles as usize {
            self.kept.resize_with(total_profiles as usize, Vec::new);
        }

        // 1. Refresh cached cardinalities of the touched keys.
        for &k in &drain.keys {
            self.cardinality[k as usize] =
                index.with_postings(k, |p| raw_cardinality(p, clean_clean, separator));
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
        // Emission must be re-examined for every present-flip, drained or
        // not; the *filtering* stage additionally needs the flips that were
        // not already drained (whose members it would otherwise miss).
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

        // 4. Recompute kept sets; diff against the cache to patch the
        //    cleaned memberships and collect the graph-dirty scope.
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
                let members = &mut self.cleaned[k as usize];
                let pos = members.partition_point(|&m| m < p);
                debug_assert_eq!(members.get(pos), Some(&p));
                members.remove(pos);
                changed_keys.push(k);
                removed_nodes.push(p);
                changed = true;
            }
            for k in adds {
                let members = &mut self.cleaned[k as usize];
                let pos = members.partition_point(|&m| m < p);
                debug_assert_ne!(members.get(pos), Some(&p));
                members.insert(pos, p);
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
            dirty_nodes.extend_from_slice(&self.cleaned[k as usize]);
        }
        dirty_nodes.sort_unstable();
        dirty_nodes.dedup();

        // 6. Resolve emission and build the snapshot's slot patches. Only
        //    keys whose cleaned membership or purge status moved can flip
        //    or change as blocks — the former O(|keys|) materialisation
        //    loop is gone from the commit path. A key whose emitted status
        //    flips changes |B_u| for every member that *stayed* in it —
        //    record them as list-changed.
        let mut candidates: Vec<KeyId> = changed_keys;
        candidates.extend_from_slice(&flipped);
        candidates.sort_unstable();
        candidates.dedup();
        let mut slots: Vec<SlotPatch> = Vec::new();
        for &k in &candidates {
            let members = &self.cleaned[k as usize];
            let emitted_now =
                self.present[k as usize] && members_valid(members, clean_clean, separator);
            let was = self.emitted[k as usize];
            if emitted_now != was {
                self.emitted[k as usize] = emitted_now;
                self.live_blocks = if emitted_now {
                    self.live_blocks + 1
                } else {
                    self.live_blocks - 1
                };
                lists_changed.extend_from_slice(members);
                dirty_nodes.extend_from_slice(members);
            }
            if emitted_now {
                slots.push(SlotPatch {
                    slot: k,
                    members: members.iter().map(|&p| ProfileId(p)).collect(),
                    entropy: cluster_entropies.map_or(1.0, |e| e[index.key(k).cluster.index()]),
                });
            } else if was {
                slots.push(SlotPatch {
                    slot: k,
                    members: Vec::new(),
                    entropy: 1.0,
                });
            }
        }
        lists_changed.sort_unstable();
        lists_changed.dedup();
        dirty_nodes.sort_unstable();
        dirty_nodes.dedup();
        let total_blocks_changed = self.prev_block_count != Some(self.live_blocks);
        self.prev_block_count = Some(self.live_blocks);

        // 7. Row patches: every profile whose cleaned block list moved gets
        //    its new row — the emitted subset of its kept keys, in the
        //    canonical (cluster, token) order batch block ids follow.
        let rows: Vec<RowPatch> = lists_changed
            .iter()
            .map(|&p| {
                let mut row: Vec<KeyId> = self.kept[p as usize]
                    .iter()
                    .copied()
                    .filter(|&k| self.emitted[k as usize])
                    .collect();
                row.sort_unstable_by(|&a, &b| index.canon_key(a).cmp(&index.canon_key(b)));
                RowPatch {
                    profile: p,
                    slots: row,
                }
            })
            .collect();

        CleanOutcome {
            delta: SnapshotDelta {
                total_profiles,
                slots,
                rows,
            },
            blocks: self.live_blocks,
            dirty_nodes,
            lists_changed,
            total_blocks_changed,
        }
    }

    /// Materialises the cleaned collection in canonical order, exactly like
    /// batch purge→filter on the materialised input (invalid blocks dropped
    /// the same way). Verification/diagnostics only — O(|keys|), never on
    /// the commit path.
    pub fn materialize(
        &self,
        index: &IncrementalBlockIndex,
        clean_clean: bool,
        separator: u32,
        total_profiles: u32,
    ) -> BlockCollection {
        let mut blocks: Vec<Block> = Vec::new();
        for &k in index.ordered_keys() {
            if !self.emitted[k as usize] {
                continue;
            }
            let members = &self.cleaned[k as usize];
            blocks.push(Block::new(
                index.label(k),
                index.key(k).cluster,
                members.iter().map(|&p| ProfileId(p)).collect(),
                separator,
            ));
        }
        BlockCollection::new(blocks, clean_clean, separator, total_profiles)
    }
}

/// Whether a cleaned membership list emits a valid block (≥1 comparison).
fn members_valid(members: &[u32], clean_clean: bool, separator: u32) -> bool {
    if clean_clean {
        let split = members.partition_point(|&m| m < separator);
        split > 0 && split < members.len()
    } else {
        members.len() >= 2
    }
}

/// A block's comparison cardinality from its raw postings.
fn raw_cardinality(postings: &[ProfileId], clean_clean: bool, separator: u32) -> u64 {
    if clean_clean {
        let split = postings.partition_point(|p| p.0 < separator) as u64;
        split * (postings.len() as u64 - split)
    } else {
        let n = postings.len() as u64;
        n * n.saturating_sub(1) / 2
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
    /// collection equals batch purge→filter at every step, and that the
    /// emitted-block count tracks it.
    #[test]
    fn incremental_cleaning_tracks_batch() {
        let tokenizer = Tokenizer::new();
        let config = CleaningConfig::default();
        let mut index = IncrementalBlockIndex::new(false);
        let mut cleaner = IncrementalCleaner::new(config.clone());

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
            let outcome = cleaner.apply(&index, &drain, false, total, total, None);
            let materialised = cleaner.materialize(&index, false, total, total);
            let batch = batch_cleaned(&ErInput::dirty(d.clone()), &config);
            assert_same_collection(&materialised, &batch);
            assert_eq!(outcome.blocks, batch.len() as u64, "live-block count");
        }
    }

    #[test]
    fn untouched_profiles_are_not_dirty() {
        let config = CleaningConfig::none();
        let mut index = IncrementalBlockIndex::new(false);
        let mut cleaner = IncrementalCleaner::new(config);
        // Two disjoint communities.
        index.set_profile(0, [(ClusterId::GLUE, "a"), (ClusterId::GLUE, "b")]);
        index.set_profile(1, [(ClusterId::GLUE, "a"), (ClusterId::GLUE, "b")]);
        index.set_profile(2, [(ClusterId::GLUE, "x")]);
        index.set_profile(3, [(ClusterId::GLUE, "x")]);
        let drain = index.drain_dirty();
        cleaner.apply(&index, &drain, false, 4, 4, None);
        // Touch only the x community: profile 2 leaves the x block.
        index.set_profile(2, [(ClusterId::GLUE, "y")]);
        let drain = index.drain_dirty();
        let outcome = cleaner.apply(&index, &drain, false, 4, 4, None);
        assert!(
            !outcome.dirty_nodes.contains(&0) && !outcome.dirty_nodes.contains(&1),
            "disjoint community must stay clean, got {:?}",
            outcome.dirty_nodes
        );
        // Both x members are dirty: 2 left, 3 lost its only co-member.
        assert!(outcome.dirty_nodes.contains(&2));
        assert!(outcome.dirty_nodes.contains(&3));
        // And the delta only patches the affected slots/rows.
        assert!(outcome
            .delta
            .rows
            .iter()
            .all(|r| r.profile == 2 || r.profile == 3));
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
        index.set_profile(0, [(ClusterId::GLUE, "t")]);
        index.set_profile(1, [(ClusterId::GLUE, "t")]);
        index.set_profile(2, [(ClusterId::GLUE, "z")]);
        let drain = index.drain_dirty();
        let outcome = cleaner.apply(&index, &drain, false, 3, 3, None);
        assert_eq!(outcome.blocks, 0, "t purged at max=1");
        // A fourth, unrelated profile raises the threshold; the untouched
        // "t" block must resurface.
        index.set_profile(3, [(ClusterId::GLUE, "z")]);
        let drain = index.drain_dirty();
        let outcome = cleaner.apply(&index, &drain, false, 4, 4, None);
        let materialised = cleaner.materialize(&index, false, 4, 4);
        let labels: Vec<&str> = materialised.blocks().iter().map(|b| &*b.label).collect();
        assert_eq!(labels, vec!["t", "z"]);
        assert_eq!(outcome.blocks, 2);
        assert!(outcome.dirty_nodes.contains(&0));
        assert!(outcome.dirty_nodes.contains(&1));
    }
}
