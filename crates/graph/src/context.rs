//! The implicit blocking graph, as an **owned, versioned snapshot that is
//! patched in place**.
//!
//! [`GraphSnapshot`] holds everything a graph pass reads — the
//! profile→block rows, per-block membership, cardinality and entropy, the
//! live block count and (lazily) node degrees — in *stable block slots*:
//! a slot keeps its id for the lifetime of the snapshot even as blocks
//! around it appear and disappear. Batch pipelines build a snapshot once
//! from a cleaned [`BlockCollection`] ([`GraphSnapshot::build`], slot i =
//! block i). The incremental pipeline starts from [`GraphSnapshot::empty`]
//! and its cleaner edits it directly, once per commit: slot i is block key
//! i, and the snapshot is the **one owner** of the cleaned memberships.
//!
//! An incremental commit is one patch:
//! [`GraphSnapshot::begin_patch`] grows the profile and slot spaces;
//! [`GraphSnapshot::insert_member`] / [`GraphSnapshot::remove_member`] edit
//! slot memberships in place; [`GraphSnapshot::restate_slot`] re-derives a
//! changed slot's split, cardinality ([`comparison_cardinality`]), entropy
//! and liveness; [`GraphSnapshot::splice_row`] refills a profile row. A
//! slot keeps its membership even while it emits no block (a one-member
//! dirty block, a one-sided clean-clean one): it is **live** iff its
//! cardinality is positive, and only live slots appear in rows and in |B|.
//!
//! The two construction paths are field-for-field equivalent: a snapshot
//! patched through any mutation history exposes the same rows (same block
//! sequence per profile, in canonical `(cluster, token)` order), the same
//! cardinalities/entropies and the same aggregate statistics as
//! `GraphSnapshot::build` on the materialised collection — which is what
//! keeps incremental repair bit-identical to batch (pinned by
//! `tests/snapshot_maintenance.rs`).
//!
//! Every slot and row is always resident: a memory budget demotes the
//! incremental block index's posting lists only ([`crate::cold`]), so a
//! pass reads the snapshot through `&self` from any number of workers with
//! nothing to prefetch first.

use crate::traversal::NodeScratch;
use blast_blocking::block::comparison_cardinality;
use blast_blocking::collection::BlockCollection;
use blast_blocking::index::ProfileBlockIndex;
use blast_datamodel::entity::ProfileId;
use blast_datamodel::hash::FastMap;
use blast_datamodel::parallel::default_threads;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-edge accumulator gathered while scanning a node's blocks: everything
/// any weighting scheme needs about the pair.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EdgeAccum {
    /// Number of shared blocks |B_ij| (CBS and the contingency n₁₁).
    pub common_blocks: u32,
    /// Σ over shared blocks of 1/‖b‖ (ARCS).
    pub arcs: f64,
    /// Σ over shared blocks of the block's entropy factor (BLAST's h(B_uv)
    /// numerator; 1 per block when no entropies are attached).
    pub entropy_sum: f64,
}

/// The owned blocking-graph snapshot (see the module docs).
#[derive(Debug)]
pub struct GraphSnapshot {
    clean_clean: bool,
    separator: u32,
    total_profiles: u32,
    /// Per-slot cleaned membership (sorted global ids). An incremental
    /// snapshot keeps it for every key, block or not.
    members: Vec<Vec<ProfileId>>,
    /// Per-slot split point (first member of the second collection).
    splits: Vec<u32>,
    /// ‖b‖ per slot, as f64 for the ARCS reciprocal; positive iff the slot
    /// is live (emits a block).
    cardinalities: Vec<f64>,
    /// Optional per-slot entropy factor (aggregate entropy of the block
    /// key's attribute cluster — attached by `blast-core`).
    entropies: Option<Vec<f64>>,
    /// Number of live slots (|B|, the batch collection's block count).
    live_blocks: u64,
    /// Profile → live slots, one row per profile, in canonical block order.
    index: ProfileBlockIndex,
    /// Node degrees (distinct neighbours), computed by
    /// [`GraphSnapshot::ensure_degrees`]; needed by EJS. Invalidated by
    /// [`GraphSnapshot::begin_patch`] unless degree maintenance is on
    /// ([`GraphSnapshot::begin_degree_maintenance`]), in which case the
    /// maintainer patches them through
    /// [`GraphSnapshot::apply_degree_deltas`].
    degrees: Option<Vec<u32>>,
    /// Total number of edges, computed together with `degrees`.
    total_edges: Option<u64>,
    /// Whether degrees are delta-maintained across patches (the
    /// incremental pipeline's EJS path) instead of invalidated.
    maintain_degrees: bool,
    /// Pinned worker-thread count; `None` scales with the assignments.
    threads_override: Option<usize>,
    /// Bumped by every [`GraphSnapshot::begin_patch`].
    version: u64,
    /// Adjacency loads run against this snapshot (see
    /// [`GraphSnapshot::scratch_loads`]).
    scratch_loads: AtomicU64,
}

impl GraphSnapshot {
    /// Builds a snapshot of a cleaned block collection (slot i = block i;
    /// the batch construction path).
    pub fn build(blocks: &BlockCollection) -> Self {
        let clean = blocks.is_clean_clean();
        let index = ProfileBlockIndex::build(blocks);
        let mut members = Vec::with_capacity(blocks.len());
        let mut splits = Vec::with_capacity(blocks.len());
        let mut cardinalities = Vec::with_capacity(blocks.len());
        for b in blocks.blocks() {
            members.push(b.profiles.clone());
            splits.push(b.split);
            cardinalities.push(b.cardinality(clean) as f64);
        }
        Self {
            clean_clean: clean,
            separator: blocks.separator(),
            total_profiles: blocks.total_profiles(),
            members,
            splits,
            cardinalities,
            entropies: None,
            live_blocks: blocks.len() as u64,
            index,
            degrees: None,
            total_edges: None,
            maintain_degrees: false,
            threads_override: None,
            version: 0,
            scratch_loads: AtomicU64::new(0),
        }
    }

    /// An empty snapshot for an incremental pipeline: no blocks, no rows;
    /// state arrives through patches ([`GraphSnapshot::begin_patch`]).
    /// Clean-clean snapshots fix the dataset separator up front (ids
    /// `0..separator` belong to the first collection).
    pub fn empty(clean_clean: bool, separator: u32) -> Self {
        let total_profiles = if clean_clean { separator } else { 0 };
        let mut index = ProfileBlockIndex::new();
        index.ensure_profiles(total_profiles as usize);
        Self {
            clean_clean,
            separator: if clean_clean { separator } else { u32::MAX },
            total_profiles,
            members: Vec::new(),
            splits: Vec::new(),
            cardinalities: Vec::new(),
            entropies: None,
            live_blocks: 0,
            index,
            degrees: None,
            total_edges: None,
            maintain_degrees: false,
            threads_override: None,
            version: 0,
            scratch_loads: AtomicU64::new(0),
        }
    }

    /// Attaches a per-block entropy factor (one value per slot, aligned with
    /// the collection the snapshot was built from).
    pub fn with_block_entropies(mut self, entropies: Vec<f64>) -> Self {
        assert_eq!(
            entropies.len(),
            self.members.len(),
            "one entropy per block required"
        );
        self.entropies = Some(entropies);
        self
    }

    /// Enables per-block entropies on an (empty) incremental snapshot: every
    /// subsequent [`GraphSnapshot::restate_slot`] records its `entropy`
    /// instead of the factor defaulting to 1.
    pub fn with_entropies_enabled(mut self) -> Self {
        self.entropies = Some(vec![1.0; self.members.len()]);
        self
    }

    /// Overrides the number of worker threads (1 = sequential).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.set_threads(threads);
        self
    }

    /// In-place worker-thread override — the mutable counterpart of
    /// [`GraphSnapshot::with_threads`] for snapshots already owned by a
    /// pipeline (`blast stream --threads`). Survives every subsequent
    /// patch.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads_override = Some(threads.max(1));
    }

    /// Opens one commit's patch: grows the profile-id space to
    /// `total_profiles` (new profiles start with empty rows) and the slot
    /// space to `slots` (new slots start empty and dead), invalidates
    /// degrees unless they are maintained, and bumps the version. The
    /// commit's membership edits, restatements and row splices follow;
    /// their cost is proportional to what changed, never the collection.
    pub fn begin_patch(&mut self, total_profiles: u32, slots: usize) {
        self.total_profiles = self.total_profiles.max(total_profiles);
        self.index.ensure_profiles(self.total_profiles as usize);
        if self.members.len() < slots {
            self.members.resize_with(slots, Vec::new);
            self.splits.resize(slots, 0);
            self.cardinalities.resize(slots, 0.0);
            if let Some(e) = &mut self.entropies {
                e.resize(slots, 1.0);
            }
        }
        if self.maintain_degrees {
            // The maintainer patches degrees through `apply_degree_deltas`
            // before anything reads them; new profiles start isolated.
            if let Some(d) = &mut self.degrees {
                d.resize(self.total_profiles as usize, 0);
            }
        } else {
            self.degrees = None;
            self.total_edges = None;
        }
        self.version += 1;
    }

    /// Adds profile `p` to the membership of `slot` (kept sorted). The
    /// slot's statistics are stale until [`GraphSnapshot::restate_slot`].
    pub fn insert_member(&mut self, slot: u32, p: u32) {
        let members = &mut self.members[slot as usize];
        let pos = members.partition_point(|m| m.0 < p);
        debug_assert_ne!(members.get(pos), Some(&ProfileId(p)), "duplicate member");
        members.insert(pos, ProfileId(p));
    }

    /// Removes profile `p` from the membership of `slot` (an emptied
    /// membership releases its allocation). The slot's statistics are
    /// stale until [`GraphSnapshot::restate_slot`].
    pub fn remove_member(&mut self, slot: u32, p: u32) {
        let members = &mut self.members[slot as usize];
        let pos = members.partition_point(|m| m.0 < p);
        debug_assert_eq!(members.get(pos), Some(&ProfileId(p)), "missing member");
        members.remove(pos);
        if members.is_empty() {
            members.shrink_to_fit();
        }
    }

    /// Re-derives the split, cardinality and entropy factor (ignored unless
    /// the snapshot carries entropies) of `slot` from its membership, and
    /// moves |B| with its liveness. Returns whether the liveness flipped —
    /// every member's |B_u| moved with it.
    pub fn restate_slot(&mut self, slot: u32, entropy: f64) -> bool {
        let i = slot as usize;
        let members = &self.members[i];
        let was_live = self.cardinalities[i] > 0.0;
        let card = comparison_cardinality(members, self.separator, self.clean_clean);
        self.splits[i] = members.partition_point(|p| p.0 < self.separator) as u32;
        self.cardinalities[i] = card as f64;
        if let Some(e) = &mut self.entropies {
            e[i] = entropy;
        }
        let is_live = card > 0;
        match (was_live, is_live) {
            (false, true) => self.live_blocks += 1,
            (true, false) => self.live_blocks -= 1,
            _ => {}
        }
        was_live != is_live
    }

    /// Whether `slot` emits a block (its cardinality is positive).
    #[inline]
    pub fn slot_is_live(&self, slot: u32) -> bool {
        self.cardinalities[slot as usize] > 0.0
    }

    /// Replaces profile `p`'s row with the live slots `slots`, in the
    /// canonical block order batch block ids follow.
    pub fn splice_row(&mut self, p: u32, slots: &[u32]) {
        self.index.splice_row(p, slots);
    }

    /// Whether the snapshot covers a clean-clean input.
    #[inline]
    pub fn is_clean_clean(&self) -> bool {
        self.clean_clean
    }

    /// The global id where the second collection starts (clean-clean).
    #[inline]
    pub fn separator(&self) -> u32 {
        self.separator
    }

    /// The profile→block rows.
    #[inline]
    pub fn index(&self) -> &ProfileBlockIndex {
        &self.index
    }

    /// Number of worker threads used by graph passes: the pinned count, or
    /// one scaled with the block-assignment count — graph passes do
    /// quadratic-ish work per node, so assignments are a far better
    /// workload proxy than profiles.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads_override
            .unwrap_or_else(|| default_threads(self.index.total_assignments() as usize))
    }

    /// How many patches have been opened.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// How many node adjacencies have been accumulated from this
    /// snapshot's blocks ([`NodeScratch::load`]) by passes that have
    /// finished — every pass driver and [`GraphSnapshot::edge`] report
    /// here. An exact count of block traversals: the difference across a
    /// commit is what the repair re-read, whichever primitive did it.
    pub fn scratch_loads(&self) -> u64 {
        self.scratch_loads.load(Ordering::Relaxed)
    }

    /// Where a returning [`crate::traversal::ScratchLease`] adds its loads.
    pub(crate) fn scratch_load_sink(&self) -> &AtomicU64 {
        &self.scratch_loads
    }

    /// Estimated resident heap footprint in bytes: slot memberships, slot
    /// statistics, the profile→block index, and the optional per-node arrays
    /// (capacities, not lengths).
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.members
            .iter()
            .map(|m| m.capacity() * size_of::<ProfileId>())
            .sum::<usize>()
            + self.members.len() * size_of::<Vec<ProfileId>>()
            + self.splits.capacity() * size_of::<u32>()
            + self.cardinalities.capacity() * size_of::<f64>()
            + self
                .entropies
                .as_ref()
                .map_or(0, |e| e.capacity() * size_of::<f64>())
            + self
                .degrees
                .as_ref()
                .map_or(0, |d| d.capacity() * size_of::<u32>())
            + self.index.resident_bytes()
    }

    /// Total number of (live) blocks |B|.
    #[inline]
    pub fn total_blocks(&self) -> u64 {
        self.live_blocks
    }

    /// Total number of profiles (nodes, including isolated ones).
    #[inline]
    pub fn total_profiles(&self) -> u32 {
        self.total_profiles
    }

    /// |Bᵢ|: number of blocks containing node `p`.
    #[inline]
    pub fn node_blocks(&self, p: u32) -> u32 {
        self.index.block_count(p)
    }

    /// Node degree (requires [`GraphSnapshot::ensure_degrees`]).
    #[inline]
    pub fn degree(&self, p: u32) -> u32 {
        self.degrees.as_ref().expect("call ensure_degrees() first")[p as usize]
    }

    /// Total edge count (requires [`GraphSnapshot::ensure_degrees`]).
    #[inline]
    pub fn total_edges(&self) -> u64 {
        self.total_edges.expect("call ensure_degrees() first")
    }

    /// Whether degrees are available.
    #[inline]
    pub fn has_degrees(&self) -> bool {
        self.degrees.is_some()
    }

    /// The cleaned membership of one block slot (a dead slot may keep
    /// members that form no comparison).
    #[inline]
    pub fn slot_members(&self, slot: u32) -> &[ProfileId] {
        &self.members[slot as usize]
    }

    /// ‖b‖ of one block slot (0 for dead slots).
    #[inline]
    pub fn slot_cardinality(&self, slot: u32) -> f64 {
        self.cardinalities[slot as usize]
    }

    /// The co-occurring profiles `node` sees in `slot`: the opposite side
    /// for clean-clean snapshots, the whole membership (minus the node
    /// itself, filtered by the caller) for dirty ones.
    #[inline]
    pub fn slot_neighbours(&self, slot: u32, node: u32) -> &[ProfileId] {
        let members = &self.members[slot as usize];
        if self.clean_clean {
            let split = self.splits[slot as usize] as usize;
            if node < self.separator {
                &members[split..]
            } else {
                &members[..split]
            }
        } else {
            members
        }
    }

    /// The nodes that *own* edge enumeration: for clean-clean graphs every
    /// edge has exactly one endpoint in the first collection, so enumerating
    /// from `0..separator` visits each edge once; dirty graphs enumerate all
    /// nodes and keep `v > u`.
    pub fn edge_owner_range(&self) -> std::ops::Range<u32> {
        if self.clean_clean {
            0..self.separator
        } else {
            0..self.total_profiles
        }
    }

    /// ‖b‖ per slot as f64 (for the ARCS reciprocal).
    #[inline]
    pub(crate) fn cardinalities(&self) -> &[f64] {
        &self.cardinalities
    }

    /// The per-slot entropy factors, if attached.
    #[inline]
    pub(crate) fn entropies_opt(&self) -> Option<&[f64]> {
        self.entropies.as_deref()
    }

    /// Accumulates the adjacency of `node` into `map` (cleared first):
    /// neighbour id → [`EdgeAccum`].
    ///
    /// This is the **naive hashmap reference path**, kept for validation:
    /// the hot engine is [`crate::traversal::NodeScratch`], whose dense
    /// scratch array must stay bit-identical to this accumulation (the
    /// property tests in [`crate::traversal`] compare the two).
    pub fn accumulate_neighbors(&self, node: u32, map: &mut FastMap<u32, EdgeAccum>) {
        map.clear();
        for &slot in self.index.blocks_of(node) {
            let inv = 1.0 / self.cardinalities[slot as usize];
            let ent = self.entropies.as_ref().map_or(1.0, |e| e[slot as usize]);
            for &p in self.slot_neighbours(slot, node) {
                if p.0 == node {
                    continue;
                }
                let e = map.entry(p.0).or_default();
                e.common_blocks += 1;
                e.arcs += inv;
                e.entropy_sum += ent;
            }
        }
    }

    /// Computes node degrees and the total edge count (one full adjacency
    /// pass on the dense scratch engine, work-stealing parallelised). EJS
    /// runs this as its only extra pass — the same
    /// [`crate::traversal::NodeScratch`] machinery every other pass uses,
    /// not a separate hashmap re-scan.
    pub fn ensure_degrees(&mut self) {
        if self.degrees.is_some() {
            return;
        }
        let (degrees, total_edges) = crate::traversal::degrees_pass(self);
        self.total_edges = Some(total_edges);
        self.degrees = Some(degrees);
    }

    /// Switches the snapshot to **delta-maintained degrees**: computes them
    /// from scratch once (if absent) and stops [`GraphSnapshot::begin_patch`]
    /// from invalidating them. From then on the caller owns their
    /// correctness: every commit must push the edge births/deaths of its
    /// delta through [`GraphSnapshot::apply_degree_deltas`] *before*
    /// anything reads [`GraphSnapshot::degree`] — the incremental repair
    /// ladder does this from its cached edge adjacency, which is what lets
    /// EJS commits stay off the degraded-full tier.
    pub fn begin_degree_maintenance(&mut self) {
        self.ensure_degrees();
        self.maintain_degrees = true;
    }

    /// Whether degrees are delta-maintained across patches.
    #[inline]
    pub fn degrees_maintained(&self) -> bool {
        self.maintain_degrees && self.degrees.is_some()
    }

    /// Applies per-node degree deltas and the edge-count delta of one
    /// commit (only meaningful under
    /// [`GraphSnapshot::begin_degree_maintenance`]). Degrees are integers,
    /// so removal is exact — the delta-maintained values stay bit-equal to
    /// a from-scratch [`GraphSnapshot::ensure_degrees`] pass (pinned by
    /// `tests/degree_maintenance.rs`).
    pub fn apply_degree_deltas(
        &mut self,
        deltas: impl IntoIterator<Item = (u32, i32)>,
        edge_delta: i64,
    ) {
        let degrees = self
            .degrees
            .as_mut()
            .expect("begin_degree_maintenance() first");
        if degrees.len() < self.total_profiles as usize {
            degrees.resize(self.total_profiles as usize, 0);
        }
        for (node, delta) in deltas {
            let d = &mut degrees[node as usize];
            let next = *d as i64 + delta as i64;
            debug_assert!(next >= 0, "degree of node {node} went negative");
            *d = next as u32;
        }
        let edges = self.total_edges.expect("degrees and edge count co-exist");
        let next = edges as i64 + edge_delta;
        debug_assert!(next >= 0, "total edge count went negative");
        self.total_edges = Some(next as u64);
    }

    /// Diagnostics/test oracle: the accumulator of one edge, if it exists —
    /// a full adjacency load of `u` to read one entry, so nothing on a
    /// commit or publish path calls it (the incremental engine hands its
    /// decided weights out on `PairDelta::added_weights` instead). Runs on
    /// the dense scratch engine with a pooled scratch — repeated probes
    /// neither re-allocate a profile-sized array nor serialise concurrent
    /// callers for the length of a probe.
    pub fn edge(&self, u: u32, v: u32) -> Option<EdgeAccum> {
        let mut scratch = NodeScratch::lease(self);
        scratch.load(self, u);
        scratch.get(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_blocking::block::Block;
    use blast_blocking::key::ClusterId;
    use blast_blocking::token_blocking::TokenBlocking;
    use blast_datamodel::collection::EntityCollection;
    use blast_datamodel::entity::SourceId;
    use blast_datamodel::input::ErInput;

    fn ids(v: &[u32]) -> Vec<ProfileId> {
        v.iter().map(|&i| ProfileId(i)).collect()
    }

    /// The Figure 1a profiles (dirty input).
    fn figure1_blocks() -> BlockCollection {
        let mut d = EntityCollection::new(SourceId(0));
        d.push_pairs(
            "p1",
            [
                ("Name", "John Abram Jr"),
                ("profession", "car seller"),
                ("year", "1985"),
                ("Addr.", "Main street"),
            ],
        );
        d.push_pairs(
            "p2",
            [
                ("FirstName", "Ellen"),
                ("SecondName", "Smith"),
                ("year", "85"),
                ("occupation", "retail"),
                ("mail", "Abram st. 30 NY"),
            ],
        );
        d.push_pairs(
            "p3",
            [
                ("name1", "Jon Jr"),
                ("name2", "Abram"),
                ("birth year", "85"),
                ("job", "car retail"),
                ("Loc", "Main st."),
            ],
        );
        d.push_pairs(
            "p4",
            [
                ("full name", "Ellen Smith"),
                ("b. date", "May 10 1985"),
                ("work info", "retailer"),
                ("loc", "Abram street NY"),
            ],
        );
        TokenBlocking::new().build(&ErInput::dirty(d))
    }

    /// Table 1's example values: for (p1, p3) in the Figure 1b collection,
    /// n₁₁ = 4 shared blocks, |B₁| = 6, |B₃| = 7, |B| = 12.
    #[test]
    fn figure1_contingency_counts() {
        let blocks = figure1_blocks();
        let ctx = GraphSnapshot::build(&blocks);
        assert_eq!(ctx.total_blocks(), 12);
        let acc = ctx.edge(0, 2).expect("p1–p3 edge exists");
        assert_eq!(acc.common_blocks, 4); // car, main, abram, jr
        assert_eq!(ctx.node_blocks(0), 6); // 1985 car main abram street jr
        assert_eq!(ctx.node_blocks(2), 7); // car main abram jr 85 st retail
    }

    /// Figure 1c: the blocking graph over the Figure 1b blocks, with
    /// co-occurrence counts as weights.
    #[test]
    fn figure1_graph_weights() {
        let blocks = figure1_blocks();
        let ctx = GraphSnapshot::build(&blocks);
        assert_eq!(ctx.edge(0, 2).unwrap().common_blocks, 4); // p1-p3: car, main, abram, jr
        assert_eq!(ctx.edge(1, 3).unwrap().common_blocks, 4); // p2-p4: ellen, smith, ny, abram
        assert_eq!(ctx.edge(1, 2).unwrap().common_blocks, 4); // p2-p3: abram, 85, st, retail
        assert_eq!(ctx.edge(0, 3).unwrap().common_blocks, 3); // p1-p4: 1985, abram, street
        assert_eq!(ctx.edge(0, 1).unwrap().common_blocks, 1); // p1-p2: abram
        assert_eq!(ctx.edge(2, 3).unwrap().common_blocks, 1); // p3-p4: abram
    }

    #[test]
    fn degrees_and_edge_count() {
        let blocks = figure1_blocks();
        let mut ctx = GraphSnapshot::build(&blocks);
        ctx.ensure_degrees();
        // Figure 1c is a complete graph over 4 nodes: 6 edges, degree 3.
        assert_eq!(ctx.total_edges(), 6);
        for p in 0..4 {
            assert_eq!(ctx.degree(p), 3);
        }
    }

    #[test]
    fn clean_clean_adjacency_is_bipartite() {
        let b = vec![
            Block::new("k1", ClusterId::GLUE, ids(&[0, 1, 2, 3]), 2),
            Block::new("k2", ClusterId::GLUE, ids(&[0, 2]), 2),
        ];
        let blocks = BlockCollection::new(b, true, 2, 4);
        let ctx = GraphSnapshot::build(&blocks);
        let mut map = FastMap::default();
        ctx.accumulate_neighbors(0, &mut map);
        // Node 0 (E1) only sees nodes 2, 3 (E2) — never node 1.
        let mut neigh: Vec<u32> = map.keys().copied().collect();
        neigh.sort_unstable();
        assert_eq!(neigh, vec![2, 3]);
        assert_eq!(map[&2].common_blocks, 2);
        assert_eq!(map[&3].common_blocks, 1);
    }

    #[test]
    fn arcs_accumulates_reciprocal_cardinalities() {
        let b = vec![
            // ‖b‖ = 2·1 = 2 and ‖b‖ = 1·1 = 1.
            Block::new("k1", ClusterId::GLUE, ids(&[0, 1, 2]), 2),
            Block::new("k2", ClusterId::GLUE, ids(&[0, 2]), 2),
        ];
        let blocks = BlockCollection::new(b, true, 2, 3);
        let ctx = GraphSnapshot::build(&blocks);
        let acc = ctx.edge(0, 2).unwrap();
        assert!((acc.arcs - (0.5 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn entropies_flow_into_accumulator() {
        let b = vec![
            Block::new("k1", ClusterId::GLUE, ids(&[0, 1]), 1),
            Block::new("k2", ClusterId::GLUE, ids(&[0, 1]), 1),
        ];
        let blocks = BlockCollection::new(b, true, 1, 2);
        let ctx = GraphSnapshot::build(&blocks).with_block_entropies(vec![3.5, 2.0]);
        let acc = ctx.edge(0, 1).unwrap();
        assert_eq!(acc.common_blocks, 2);
        assert!((acc.entropy_sum - 5.5).abs() < 1e-12);
        // Without entropies the factor defaults to 1 per block.
        let ctx = GraphSnapshot::build(&blocks);
        assert!((ctx.edge(0, 1).unwrap().entropy_sum - 2.0).abs() < 1e-12);
    }

    /// Brings `slot` to exactly `members` through the in-place edits and
    /// restates it, returning whether its liveness flipped.
    fn set_members(snap: &mut GraphSnapshot, slot: u32, members: &[u32]) -> bool {
        let old: Vec<u32> = snap.slot_members(slot).iter().map(|p| p.0).collect();
        for &p in old.iter().filter(|p| !members.contains(p)) {
            snap.remove_member(slot, p);
        }
        for &p in members.iter().filter(|p| !old.contains(p)) {
            snap.insert_member(slot, p);
        }
        snap.restate_slot(slot, 1.0)
    }

    /// A snapshot patched in place equals a snapshot built from the
    /// corresponding collection (slot ids aside).
    #[test]
    fn apply_matches_build() {
        let mut snap = GraphSnapshot::empty(false, 0);
        snap.begin_patch(3, 2);
        assert!(set_members(&mut snap, 0, &[0, 1, 2]), "slot 0 comes alive");
        assert!(set_members(&mut snap, 1, &[0, 2]), "slot 1 comes alive");
        snap.splice_row(0, &[0, 1]);
        snap.splice_row(1, &[0]);
        snap.splice_row(2, &[0, 1]);
        let b = vec![
            Block::new("b0", ClusterId::GLUE, ids(&[0, 1, 2]), u32::MAX),
            Block::new("b1", ClusterId::GLUE, ids(&[0, 2]), u32::MAX),
        ];
        let batch = GraphSnapshot::build(&BlockCollection::new(b, false, 3, 3));
        assert_eq!(snap.total_blocks(), batch.total_blocks());
        assert_eq!(snap.total_profiles(), batch.total_profiles());
        assert_eq!(
            snap.index().total_assignments(),
            batch.index().total_assignments()
        );
        for p in 0..3 {
            assert_eq!(snap.node_blocks(p), batch.node_blocks(p));
            for v in 0..3 {
                assert_eq!(snap.edge(p, v), batch.edge(p, v), "edge ({p},{v})");
            }
        }
        assert_eq!(snap.version(), 1);

        // Slot 1 drops to one member: it keeps that member but dies, which
        // brings the graph back to one block.
        snap.begin_patch(3, 2);
        assert!(set_members(&mut snap, 1, &[2]), "slot 1 dies");
        assert_eq!(snap.slot_members(1), &ids(&[2])[..]);
        assert!(!snap.slot_is_live(1));
        assert_eq!(snap.slot_cardinality(1), 0.0);
        snap.splice_row(0, &[0]);
        snap.splice_row(2, &[0]);
        assert_eq!(snap.total_blocks(), 1);
        assert_eq!(snap.edge(0, 2).unwrap().common_blocks, 1);
        assert_eq!(snap.version(), 2);

        // Regaining a member revives it; a restatement that keeps the
        // liveness reports no flip.
        snap.begin_patch(3, 2);
        assert!(set_members(&mut snap, 1, &[0, 2]), "slot 1 comes back");
        assert!(!set_members(&mut snap, 0, &[0, 1, 2]), "slot 0 unchanged");
        snap.splice_row(0, &[0, 1]);
        snap.splice_row(2, &[0, 1]);
        assert_eq!(snap.total_blocks(), 2);
        for p in 0..3 {
            for v in 0..3 {
                assert_eq!(snap.edge(p, v), batch.edge(p, v), "edge ({p},{v})");
            }
        }
    }

    /// Maintained degrees survive a patch and track deltas exactly; without
    /// maintenance, a patch invalidates them as before.
    #[test]
    fn degree_maintenance_tracks_deltas() {
        let b = vec![Block::new("b0", ClusterId::GLUE, ids(&[0, 1, 2]), u32::MAX)];
        let blocks = BlockCollection::new(b, false, 3, 3);
        let mut snap = GraphSnapshot::build(&blocks);
        assert!(!snap.degrees_maintained());
        snap.begin_degree_maintenance();
        assert!(snap.degrees_maintained());
        assert_eq!((snap.degree(0), snap.total_edges()), (2, 3));

        // Grow the profile space and the block: node 3 joins b0.
        snap.begin_patch(4, 1);
        snap.insert_member(0, 3);
        assert!(!snap.restate_slot(0, 1.0), "b0 stays live");
        snap.splice_row(3, &[0]);
        // Degrees survived the patch (new node isolated until patched)...
        assert!(snap.degrees_maintained());
        assert_eq!(snap.degree(3), 0);
        // ...and the maintainer pushes the births: (0,3), (1,3), (2,3).
        snap.apply_degree_deltas([(0, 1), (1, 1), (2, 1), (3, 3)], 3);
        let rebuilt = {
            let b = vec![Block::new(
                "b0",
                ClusterId::GLUE,
                ids(&[0, 1, 2, 3]),
                u32::MAX,
            )];
            let mut s = GraphSnapshot::build(&BlockCollection::new(b, false, 4, 4));
            s.ensure_degrees();
            s
        };
        assert_eq!(snap.total_edges(), rebuilt.total_edges());
        for p in 0..4 {
            assert_eq!(snap.degree(p), rebuilt.degree(p), "degree of {p}");
        }

        // Without maintenance a patch drops the degrees.
        let mut plain = GraphSnapshot::build(&blocks);
        plain.ensure_degrees();
        plain.begin_patch(3, 1);
        assert!(!plain.has_degrees());
    }
}
