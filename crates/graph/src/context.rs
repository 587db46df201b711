//! The implicit blocking graph, as an **owned, versioned, delta-maintained
//! snapshot**.
//!
//! [`GraphSnapshot`] holds everything a graph pass reads — the
//! profile→block rows, per-block membership, cardinality and entropy, the
//! live block count and (lazily) node degrees — in *stable block slots*:
//! a slot keeps its id for the lifetime of the snapshot even as blocks
//! around it appear and disappear, so an incremental delta can patch the
//! dirty slots and rows in place ([`GraphSnapshot::apply`]) instead of
//! rebuilding the index per commit. Batch pipelines build a snapshot once
//! from a cleaned [`BlockCollection`] ([`GraphSnapshot::build`], slot i =
//! block i); the incremental pipeline starts from
//! [`GraphSnapshot::empty`] and applies one [`SnapshotDelta`] per commit.
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

/// One patched block slot of a [`SnapshotDelta`]: the slot's new cleaned
/// membership (sorted; empty = the slot no longer emits a block) and its
/// entropy factor (ignored unless the snapshot carries entropies).
#[derive(Debug, Clone)]
pub struct SlotPatch {
    /// The stable slot id.
    pub slot: u32,
    /// New sorted membership; empty tombstones the slot.
    pub members: Vec<ProfileId>,
    /// The block's entropy factor (its attribute cluster's aggregate
    /// entropy; 1.0 for schema-agnostic pipelines).
    pub entropy: f64,
}

/// One patched profile row of a [`SnapshotDelta`]: a profile's new block-slot
/// list, already in the canonical block order the batch index would use.
#[derive(Debug, Clone)]
pub struct RowPatch {
    /// The profile whose row changed.
    pub profile: u32,
    /// The live slots containing the profile, canonically ordered.
    pub slots: Vec<u32>,
}

/// What one commit changed about the graph: produced by the incremental
/// cleaner, consumed by [`GraphSnapshot::apply`].
#[derive(Debug, Clone, Default)]
pub struct SnapshotDelta {
    /// The profile-id space after the commit (monotonically grows).
    pub total_profiles: u32,
    /// Block slots whose cleaned membership (or liveness) changed.
    pub slots: Vec<SlotPatch>,
    /// Profiles whose block list changed.
    pub rows: Vec<RowPatch>,
}

impl SnapshotDelta {
    /// Whether the delta patches nothing (the profile-id space may still
    /// grow).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty() && self.rows.is_empty()
    }
}

/// Diagnostics of one [`GraphSnapshot::apply`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct ApplyStats {
    /// Block slots patched (membership or liveness changed).
    pub patched_slots: usize,
    /// Profile rows spliced.
    pub patched_rows: usize,
}

/// The owned blocking-graph snapshot (see the module docs).
#[derive(Debug)]
pub struct GraphSnapshot {
    clean_clean: bool,
    separator: u32,
    total_profiles: u32,
    /// Per-slot cleaned membership (sorted global ids; empty = dead slot).
    members: Vec<Vec<ProfileId>>,
    /// Per-slot split point (first member of the second collection).
    splits: Vec<u32>,
    /// ‖b‖ per slot, as f64 for the ARCS reciprocal.
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
    /// [`GraphSnapshot::apply`] unless degree maintenance is on
    /// ([`GraphSnapshot::begin_degree_maintenance`]), in which case the
    /// maintainer patches them through
    /// [`GraphSnapshot::apply_degree_deltas`].
    degrees: Option<Vec<u32>>,
    /// Total number of edges, computed together with `degrees`.
    total_edges: Option<u64>,
    /// Whether degrees are delta-maintained across [`GraphSnapshot::apply`]
    /// (the incremental pipeline's EJS path) instead of invalidated.
    maintain_degrees: bool,
    threads: usize,
    threads_override: Option<usize>,
    /// Bumped on every applied delta.
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
        // Graph passes do quadratic-ish work per node; the block-assignment
        // count is a far better workload proxy than the profile count.
        let threads = default_threads(index.total_assignments() as usize);
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
            threads,
            threads_override: None,
            version: 0,
            scratch_loads: AtomicU64::new(0),
        }
    }

    /// An empty snapshot for an incremental pipeline: no blocks, no rows;
    /// state arrives through [`GraphSnapshot::apply`]. Clean-clean snapshots
    /// fix the dataset separator up front (ids `0..separator` belong to the
    /// first collection).
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
            threads: 1,
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
    /// subsequent [`SlotPatch`]'s `entropy` field is recorded instead of
    /// defaulting to 1.
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
    /// [`GraphSnapshot::apply`].
    pub fn set_threads(&mut self, threads: usize) {
        self.threads_override = Some(threads.max(1));
        self.threads = threads.max(1);
    }

    /// Patches the snapshot in place from a commit's delta (consumed —
    /// slot memberships are moved in, not copied): dirty block slots get
    /// their new membership, cardinality and entropy; dirty profile rows are
    /// spliced; aggregate statistics (|B|, Σ|b|, the profile-id space) are
    /// adjusted incrementally. Degrees are invalidated (EJS recomputes
    /// them), the version is bumped, and the cost is proportional to the
    /// delta — the collection size never enters.
    pub fn apply(&mut self, delta: SnapshotDelta) -> ApplyStats {
        let stats = ApplyStats {
            patched_slots: delta.slots.len(),
            patched_rows: delta.rows.len(),
        };
        if delta.total_profiles > self.total_profiles {
            self.total_profiles = delta.total_profiles;
        }
        self.index.ensure_profiles(self.total_profiles as usize);
        for patch in delta.slots {
            let slot = patch.slot as usize;
            if self.members.len() <= slot {
                self.members.resize_with(slot + 1, Vec::new);
                self.splits.resize(slot + 1, 0);
                self.cardinalities.resize(slot + 1, 0.0);
                if let Some(e) = &mut self.entropies {
                    e.resize(slot + 1, 1.0);
                }
            }
            let was_live = !self.members[slot].is_empty();
            let split = patch.members.partition_point(|p| p.0 < self.separator) as u32;
            let card = if self.clean_clean {
                split as u64 * (patch.members.len() as u64 - split as u64)
            } else {
                let n = patch.members.len() as u64;
                n * n.saturating_sub(1) / 2
            };
            self.members[slot] = patch.members;
            self.splits[slot] = split;
            self.cardinalities[slot] = card as f64;
            if let Some(e) = &mut self.entropies {
                e[slot] = patch.entropy;
            }
            let is_live = !self.members[slot].is_empty();
            match (was_live, is_live) {
                (false, true) => self.live_blocks += 1,
                (true, false) => self.live_blocks -= 1,
                _ => {}
            }
        }
        for row in &delta.rows {
            self.index.splice_row(row.profile, &row.slots);
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
        self.threads = self
            .threads_override
            .unwrap_or_else(|| default_threads(self.index.total_assignments() as usize));
        self.version += 1;
        stats
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

    /// Number of worker threads used by graph passes.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// How many deltas have been applied.
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

    /// The cleaned membership of one block slot (empty for dead slots).
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
    /// from scratch once (if absent) and stops [`GraphSnapshot::apply`]
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

    /// Whether degrees are delta-maintained across applies.
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

    /// A snapshot patched through a delta equals a snapshot built from the
    /// corresponding collection (slot ids aside).
    #[test]
    fn apply_matches_build() {
        let mut snap = GraphSnapshot::empty(false, 0);
        snap.apply(SnapshotDelta {
            total_profiles: 3,
            slots: vec![
                SlotPatch {
                    slot: 0,
                    members: ids(&[0, 1, 2]),
                    entropy: 1.0,
                },
                SlotPatch {
                    slot: 1,
                    members: ids(&[0, 2]),
                    entropy: 1.0,
                },
            ],
            rows: vec![
                RowPatch {
                    profile: 0,
                    slots: vec![0, 1],
                },
                RowPatch {
                    profile: 1,
                    slots: vec![0],
                },
                RowPatch {
                    profile: 2,
                    slots: vec![0, 1],
                },
            ],
        });
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

        // Tombstoning a slot brings the graph back to one block.
        snap.apply(SnapshotDelta {
            total_profiles: 3,
            slots: vec![SlotPatch {
                slot: 1,
                members: Vec::new(),
                entropy: 1.0,
            }],
            rows: vec![
                RowPatch {
                    profile: 0,
                    slots: vec![0],
                },
                RowPatch {
                    profile: 2,
                    slots: vec![0],
                },
            ],
        });
        assert_eq!(snap.total_blocks(), 1);
        assert_eq!(snap.edge(0, 2).unwrap().common_blocks, 1);
        assert_eq!(snap.version(), 2);
    }

    /// Maintained degrees survive `apply` and track deltas exactly; without
    /// maintenance, `apply` invalidates them as before.
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
        snap.apply(SnapshotDelta {
            total_profiles: 4,
            slots: vec![SlotPatch {
                slot: 0,
                members: ids(&[0, 1, 2, 3]),
                entropy: 1.0,
            }],
            rows: vec![RowPatch {
                profile: 3,
                slots: vec![0],
            }],
        });
        // Degrees survived the apply (new node isolated until patched)...
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
    }
}
