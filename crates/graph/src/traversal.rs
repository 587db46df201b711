//! Dense scratch-array traversal engine for the implicit blocking graph.
//!
//! Node-centric meta-blocking spends essentially all of its time building
//! per-node adjacency: for every block containing the node, for every
//! co-occurring profile, bump that neighbour's [`EdgeAccum`]. The original
//! engine kept the accumulators in a `FastMap<u32, EdgeAccum>` — one hash +
//! probe per (node, neighbour, block) triple, plus a rehash whenever a hub
//! node outgrew the table.
//!
//! [`NodeScratch`] replaces the map with a *dense scratch array*: each
//! worker thread owns a `Vec<EdgeAccum>` sized to the profile count, a
//! one-bit-per-profile `seen` bitmap, and a `touched` list of the neighbour
//! ids hit while scanning the current node. A neighbour update is then
//! direct array writes (`accum[v] += …`, and — the first time `v` is seen
//! — a push onto `touched` and one bit set in `seen`).
//!
//! ## Row order
//!
//! A loaded row is emitted in ascending neighbour order, the order the
//! float folds and tie-breaking downstream rely on. Which of two ways
//! produces it is decided per row from the input alone: a row of `len`
//! neighbours costs `len · ⌈log₂ len⌉` to sort and `words = ⌈n/64⌉` word
//! reads to recover from the bitmap (n the snapshot's profile count). A row
//! with `len · ⌈log₂ len⌉ > words` — a hub — is rebuilt by scanning the
//! bitmap's words in order and clearing each; a smaller row is sorted, and
//! then its bits are cleared word by word. Both give the same list, and
//! neither changes the order blocks are accumulated in, so every
//! [`EdgeAccum`] is the same whichever way its row was ordered.
//!
//! ## The scratch-reset invariant
//!
//! Between nodes the engine **never clears the whole array** — that would
//! be O(|profiles|) per node and defeat the point. Instead it maintains the
//! invariant that *every slot not listed in `touched` holds
//! `EdgeAccum::default()`, and the `seen` bitmap is all-zero between
//! loads*: [`NodeScratch::load`] starts by resetting exactly the slots its
//! previous node touched, and clears every bit it set before it returns, so
//! each load pays O(degree) — or O(n/64) for a hub row, which its sort
//! would have cost more — regardless of the profile count. "Is this
//! neighbour new?" is answered by `common_blocks == 0`, which is safe
//! because every update increments `common_blocks` — a touched slot can
//! never look untouched.
//!
//! Accumulation visits blocks in ascending block-id order (the
//! profile→block index keeps each profile's block list sorted), the order the
//! hashmap engine used — so `arcs` and `entropy_sum` are **bit-identical**
//! to the reference path, not just approximately equal. The property tests
//! in this module pin that equivalence.
//!
//! ## Scheduling
//!
//! The pass drivers (`node_chunks`, `owner_chunks`) split the node range
//! into fine-grained chunks claimed off an atomic counter
//! ([`blast_datamodel::parallel::parallel_work_steal`]): Zipf-skewed
//! collections concentrate the heavy hub nodes, and the contiguous
//! one-chunk-per-thread split left most threads idle while one ground
//! through the hub-dense stretch. Chunk geometry depends only on the range
//! length — never the thread count — and chunk results are merged in chunk
//! order, so every pass is bit-exact across thread counts.

use crate::context::{EdgeAccum, GraphSnapshot};
use blast_datamodel::parallel::{chunk_len, parallel_work_steal};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A worker-local dense adjacency accumulator (see the module docs).
#[derive(Debug, Default)]
pub struct NodeScratch {
    /// One accumulator slot per profile; all-default except touched slots.
    accum: Vec<EdgeAccum>,
    /// One bit per profile (`⌈accum.len()/64⌉` words): set while a load
    /// collects its neighbours, all-zero between loads.
    seen: Vec<u64>,
    /// Neighbour ids of the currently loaded node, sorted ascending after
    /// [`NodeScratch::load`] returns.
    touched: Vec<u32>,
    /// [`NodeScratch::load`] calls since the scratch was leased.
    loads: u64,
}

impl NodeScratch {
    /// A scratch able to hold the adjacency of any node of `ctx`.
    pub fn new(ctx: &GraphSnapshot) -> Self {
        Self::with_capacity(ctx.total_profiles() as usize)
    }

    /// A scratch covering `n` profiles.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            accum: vec![EdgeAccum::default(); n],
            seen: vec![0; n.div_ceil(64)],
            touched: Vec::new(),
            loads: 0,
        }
    }

    /// Borrows a scratch covering every node of `ctx` from the process-wide
    /// pool — what every pass driver hands its workers. A pooled scratch is
    /// *grown*, never re-allocated, so the `total_profiles × 24 B`
    /// zero-fill is paid once per worker per process instead of once per
    /// worker per pass per commit (the commit path is sublinear; that term
    /// was not). The scratch-reset invariant makes reuse across nodes,
    /// passes and snapshots safe: every `load` resets exactly the slots the
    /// previous one touched. A scratch left over from a much larger
    /// snapshot is reallocated down (with a generous floor) so a one-off
    /// pass over a huge collection does not pin its profile-sized buffer
    /// for the rest of the process.
    ///
    /// When the lease drops, its load count is added to
    /// [`GraphSnapshot::scratch_loads`].
    pub fn lease(ctx: &GraphSnapshot) -> ScratchLease<'_> {
        const SHRINK_FLOOR: usize = 1 << 20;
        let n = ctx.total_profiles() as usize;
        // A poisoned pool is treated as empty, here and on return.
        let pooled = SCRATCH_POOL.lock().ok().and_then(|mut pool| pool.pop());
        let mut scratch = match pooled {
            // `accum` and `seen` grow and shrink together.
            Some(s) if !(s.accum.len() > SHRINK_FLOOR && s.accum.len() / 4 > n) => s,
            _ => NodeScratch::with_capacity(n),
        };
        scratch.ensure_capacity(n);
        scratch.loads = 0;
        ScratchLease {
            scratch,
            sink: ctx.scratch_load_sink(),
        }
    }

    /// Grows the scratch to cover at least `n` profiles (new slots default
    /// and new bits clear, preserving the reset invariant).
    fn ensure_capacity(&mut self, n: usize) {
        if self.accum.len() < n {
            self.accum.resize(n, EdgeAccum::default());
            self.seen.resize(n.div_ceil(64), 0);
        }
    }

    /// Loads the adjacency of `node`, resetting the previously loaded one.
    /// Afterwards [`NodeScratch::iter`] yields `(neighbour, accum)` in
    /// ascending neighbour order.
    pub fn load(&mut self, ctx: &GraphSnapshot, node: u32) {
        self.loads += 1;
        for &v in &self.touched {
            self.accum[v as usize] = EdgeAccum::default();
        }
        self.touched.clear();

        let cardinalities = ctx.cardinalities();
        let entropies = ctx.entropies_opt();
        for &slot in ctx.index().blocks_of(node) {
            let inv = 1.0 / cardinalities[slot as usize];
            let ent = entropies.map_or(1.0, |e| e[slot as usize]);
            for &p in ctx.slot_neighbours(slot, node) {
                if p.0 == node {
                    continue;
                }
                let e = &mut self.accum[p.0 as usize];
                if e.common_blocks == 0 {
                    self.touched.push(p.0);
                    self.seen[(p.0 >> 6) as usize] |= 1 << (p.0 & 63);
                }
                e.common_blocks += 1;
                e.arcs += inv;
                e.entropy_sum += ent;
            }
        }
        self.order_row((ctx.total_profiles() as usize).div_ceil(64));
    }

    /// Puts `touched` in ascending order and clears the bits the load set
    /// (see "Row order" in the module docs); every neighbour id lies in the
    /// first `words` words of `seen`.
    fn order_row(&mut self, words: usize) {
        let len = self.touched.len();
        if len * len.next_power_of_two().trailing_zeros() as usize > words {
            self.touched.clear();
            for (i, word) in self.seen.iter_mut().take(words).enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    self.touched.push(((i as u32) << 6) | bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
        } else {
            self.touched.sort_unstable();
            for &v in &self.touched {
                self.seen[(v >> 6) as usize] = 0;
            }
        }
    }

    /// Number of neighbours of the loaded node.
    #[inline]
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// Whether the loaded node is isolated.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// The accumulator of neighbour `v`, if the loaded node has that edge.
    /// Out-of-range ids are simply absent, like a hashmap miss.
    #[inline]
    pub fn get(&self, v: u32) -> Option<EdgeAccum> {
        let acc = *self.accum.get(v as usize)?;
        (acc.common_blocks > 0).then_some(acc)
    }

    /// The loaded adjacency in ascending neighbour order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (u32, EdgeAccum)> + '_ {
        self.touched
            .iter()
            .map(move |&v| (v, self.accum[v as usize]))
    }
}

/// Idle scratches between leases (see [`NodeScratch::lease`]). The lock
/// is held for one push or pop, never while a scratch is in use, so
/// concurrent passes and diagnostic probes do not serialise on it.
static SCRATCH_POOL: Mutex<Vec<NodeScratch>> = Mutex::new(Vec::new());

/// A pooled [`NodeScratch`] on loan to one worker; returned on drop.
#[derive(Debug)]
pub struct ScratchLease<'a> {
    scratch: NodeScratch,
    sink: &'a AtomicU64,
}

impl Deref for ScratchLease<'_> {
    type Target = NodeScratch;
    fn deref(&self) -> &NodeScratch {
        &self.scratch
    }
}

impl DerefMut for ScratchLease<'_> {
    fn deref_mut(&mut self) -> &mut NodeScratch {
        &mut self.scratch
    }
}

impl Drop for ScratchLease<'_> {
    fn drop(&mut self) {
        // A statistic that publishes no other data.
        self.sink.fetch_add(self.scratch.loads, Ordering::Relaxed);
        // A worker that panicked mid-load may have broken the reset
        // invariant: let its scratch go instead of pooling it.
        if !std::thread::panicking() {
            if let Ok(mut pool) = SCRATCH_POOL.lock() {
                pool.push(std::mem::take(&mut self.scratch));
            }
        }
    }
}

/// Runs `per_chunk(scratch, weighted_buf, chunk_range)` over `0..len` nodes
/// with work-stealing scheduling and a per-worker [`NodeScratch`], returning
/// per-chunk results in chunk order.
pub(crate) fn node_chunks<R, F>(ctx: &GraphSnapshot, len: usize, per_chunk: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut NodeScratch, &mut Vec<(u32, f64)>, std::ops::Range<usize>) -> R + Sync,
{
    parallel_work_steal(
        len,
        ctx.threads(),
        chunk_len(len),
        || (NodeScratch::lease(ctx), Vec::new()),
        |(scratch, weighted), range| per_chunk(scratch, weighted, range),
    )
}

/// Like [`node_chunks`] but over the edge-owner range (the nodes that
/// enumerate each edge exactly once); the chunk callback receives absolute
/// node ids.
pub(crate) fn owner_chunks<R, F>(ctx: &GraphSnapshot, per_chunk: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut NodeScratch, std::ops::Range<u32>) -> R + Sync,
{
    let owners = ctx.edge_owner_range();
    let len = (owners.end - owners.start) as usize;
    let base = owners.start;
    parallel_work_steal(
        len,
        ctx.threads(),
        chunk_len(len),
        || NodeScratch::lease(ctx),
        |scratch, range| {
            per_chunk(
                scratch,
                (base + range.start as u32)..(base + range.end as u32),
            )
        },
    )
}

/// One full adjacency pass computing node degrees and the total edge count.
pub(crate) fn degrees_pass(ctx: &GraphSnapshot) -> (Vec<u32>, u64) {
    let n = ctx.total_profiles() as usize;
    let chunks = node_chunks(ctx, n, |scratch, _, range| {
        let mut degrees = Vec::with_capacity(range.len());
        for node in range {
            scratch.load(ctx, node as u32);
            degrees.push(scratch.len() as u32);
        }
        degrees
    });
    let mut degrees = Vec::with_capacity(n);
    for c in chunks {
        degrees.extend(c);
    }
    let sum: u64 = degrees.iter().map(|&d| d as u64).sum();
    (degrees, sum / 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pruning::common::collect_weighted_edges;
    use crate::weights::WeightingScheme;
    use blast_blocking::block::Block;
    use blast_blocking::collection::BlockCollection;
    use blast_blocking::key::ClusterId;
    use blast_datamodel::entity::ProfileId;
    use blast_datamodel::hash::FastMap;
    use proptest::prelude::*;

    fn ids(v: &[u32]) -> Vec<ProfileId> {
        v.iter().map(|&i| ProfileId(i)).collect()
    }

    /// The naive hashmap reference adjacency, identical to the pre-engine
    /// implementation.
    fn reference_adjacency(ctx: &GraphSnapshot, node: u32) -> Vec<(u32, EdgeAccum)> {
        let mut map: FastMap<u32, EdgeAccum> = FastMap::default();
        ctx.accumulate_neighbors(node, &mut map);
        let mut adj: Vec<(u32, EdgeAccum)> = map.into_iter().collect();
        adj.sort_unstable_by_key(|(v, _)| *v);
        adj
    }

    fn assert_scratch_matches_reference(blocks: &BlockCollection, entropies: Option<Vec<f64>>) {
        let mut ctx = GraphSnapshot::build(blocks);
        if let Some(e) = entropies {
            ctx = ctx.with_block_entropies(e);
        }
        let mut scratch = NodeScratch::new(&ctx);
        for node in 0..ctx.total_profiles() {
            scratch.load(&ctx, node);
            let dense: Vec<(u32, EdgeAccum)> = scratch.iter().collect();
            let reference = reference_adjacency(&ctx, node);
            assert_eq!(
                dense.len(),
                reference.len(),
                "neighbour count of node {node}"
            );
            for (&(dv, da), &(rv, ra)) in dense.iter().zip(&reference) {
                assert_eq!(dv, rv, "neighbour set of node {node}");
                assert_eq!(da.common_blocks, ra.common_blocks, "edge ({node},{dv})");
                // Bit-exact, not approximate: same summation order.
                assert_eq!(
                    da.arcs.to_bits(),
                    ra.arcs.to_bits(),
                    "arcs of edge ({node},{dv})"
                );
                assert_eq!(
                    da.entropy_sum.to_bits(),
                    ra.entropy_sum.to_bits(),
                    "entropy_sum of edge ({node},{dv})"
                );
            }
        }
    }

    #[test]
    fn scratch_resets_between_nodes() {
        let b = vec![
            Block::new("b0", ClusterId::GLUE, ids(&[0, 1, 2]), u32::MAX),
            Block::new("b1", ClusterId::GLUE, ids(&[2, 3]), u32::MAX),
        ];
        let blocks = BlockCollection::new(b, false, 4, 4);
        let ctx = GraphSnapshot::build(&blocks);
        let mut scratch = NodeScratch::new(&ctx);
        scratch.load(&ctx, 0);
        assert_eq!(
            scratch.iter().map(|(v, _)| v).collect::<Vec<_>>(),
            vec![1, 2]
        );
        // Node 3 shares nothing with node 0; stale slots must be gone.
        scratch.load(&ctx, 3);
        assert_eq!(scratch.iter().map(|(v, _)| v).collect::<Vec<_>>(), vec![2]);
        assert_eq!(scratch.get(2).unwrap().common_blocks, 1);
        assert!(scratch.get(1).is_none(), "slot 1 was reset");
        // An empty reload leaves a clean scratch.
        scratch.load(&ctx, 3);
        assert_eq!(scratch.len(), 1);
    }

    /// A pooled scratch that served a small snapshot is grown — not
    /// replaced — for a larger one, bitmap included, and still yields
    /// exactly the adjacency a fresh scratch does, stale slots of its
    /// earlier life included, on rows of both orderings.
    #[test]
    fn leased_scratch_reused_after_growth_matches_fresh() {
        let small = BlockCollection::new(
            vec![Block::new("s", ClusterId::GLUE, ids(&[0, 1, 2]), u32::MAX)],
            false,
            3,
            3,
        );
        // 200 profiles: 4 bitmap words. Nodes 0, 2, 7, … have rows of 6–7
        // neighbours (read off the bitmap); node 11's row of 2 is sorted.
        let large = BlockCollection::new(
            vec![
                Block::new(
                    "l0",
                    ClusterId::GLUE,
                    ids(&[0, 2, 7, 9, 64, 130, 199]),
                    u32::MAX,
                ),
                Block::new("l1", ClusterId::GLUE, ids(&[2, 9, 11]), u32::MAX),
            ],
            false,
            200,
            200,
        );
        let small_ctx = GraphSnapshot::build(&small);
        let large_ctx = GraphSnapshot::build(&large);

        // Drive the reuse by hand (the pool is shared with every other
        // test thread, so a lease cannot be told to return *this* one).
        let mut reused = NodeScratch::new(&small_ctx);
        reused.load(&small_ctx, 1);
        assert_eq!(reused.len(), 2, "slots 0 and 2 are now stale");
        assert_eq!(reused.seen.len(), 1);
        reused.ensure_capacity(large_ctx.total_profiles() as usize);
        assert_eq!(reused.seen.len(), 4, "the bitmap grew with the slots");
        let mut fresh = NodeScratch::new(&large_ctx);
        for node in 0..large_ctx.total_profiles() {
            reused.load(&large_ctx, node);
            fresh.load(&large_ctx, node);
            let a: Vec<(u32, EdgeAccum)> = reused.iter().collect();
            let b: Vec<(u32, EdgeAccum)> = fresh.iter().collect();
            assert_eq!(a, b, "adjacency of node {node}");
            assert_eq!(a, reference_adjacency(&large_ctx, node), "node {node}");
            assert!(reused.seen.iter().all(|&w| w == 0), "bits left by {node}");
        }

        // And through the pool itself: whatever scratch a lease hands out,
        // in whatever state its last user left it, a pass over the larger
        // snapshot reads the same graph — and its loads are counted.
        drop(NodeScratch::lease(&small_ctx));
        let before = large_ctx.scratch_loads();
        let pooled = collect_weighted_edges(&large_ctx, &WeightingScheme::Arcs);
        assert_eq!(
            large_ctx.scratch_loads() - before,
            200,
            "one load per owner"
        );
        let mut direct = Vec::new();
        for u in 0..large_ctx.total_profiles() {
            fresh.load(&large_ctx, u);
            direct.extend(
                fresh
                    .iter()
                    .filter(|&(v, _)| v > u)
                    .map(|(v, acc)| (u, v, acc.arcs)),
            );
        }
        assert_eq!(pooled, direct);
    }

    #[test]
    fn get_handles_out_of_range_ids() {
        let b = vec![Block::new("b0", ClusterId::GLUE, ids(&[0, 1]), u32::MAX)];
        let blocks = BlockCollection::new(b, false, 2, 2);
        let ctx = GraphSnapshot::build(&blocks);
        let mut scratch = NodeScratch::new(&ctx);
        scratch.load(&ctx, 0);
        assert_eq!(scratch.get(1).unwrap().common_blocks, 1);
        // A non-existent id is a miss, not a panic (hashmap semantics).
        assert!(scratch.get(1_000_000).is_none());
        assert!(ctx.edge(0, 1_000_000).is_none());
    }

    #[test]
    fn collect_weighted_edges_is_sorted_and_unique() {
        let b = vec![
            Block::new("b0", ClusterId::GLUE, ids(&[0, 1, 2, 3]), u32::MAX),
            Block::new("b1", ClusterId::GLUE, ids(&[1, 3]), u32::MAX),
        ];
        let blocks = BlockCollection::new(b, false, 4, 4);
        let ctx = GraphSnapshot::build(&blocks);
        let edges = collect_weighted_edges(&ctx, &WeightingScheme::Cbs);
        let keys: Vec<(u32, u32)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(keys, sorted, "deterministic order, each edge once");
        assert_eq!(keys.len(), 6);
    }

    proptest! {
        /// Dense adjacency ≡ naive hashmap reference on random dirty
        /// collections: same neighbour sets, same `common_blocks`, bit-exact
        /// `arcs` and `entropy_sum`.
        #[test]
        fn prop_dense_equals_hashmap_dirty(
            memberships in proptest::collection::vec(
                proptest::collection::btree_set(0u32..24, 0..10), 1..24)
        ) {
            let blocks: Vec<Block> = memberships
                .iter()
                .enumerate()
                .map(|(i, set)| Block::new(
                    format!("b{i}"),
                    ClusterId::GLUE,
                    set.iter().map(|&p| ProfileId(p)).collect(),
                    u32::MAX,
                ))
                .collect();
            let n_entropies = blocks.len();
            let collection = BlockCollection::new(blocks, false, 24, 24);
            assert_scratch_matches_reference(&collection, None);
            // And with per-block entropies attached.
            let entropies: Vec<f64> = (0..n_entropies).map(|i| 0.5 + i as f64 * 0.25).collect();
            assert_scratch_matches_reference(&collection, Some(entropies));
        }

        /// Same equivalence on clean-clean (bipartite) collections, where
        /// the neighbour enumeration takes the inner1/inner2 path.
        #[test]
        fn prop_dense_equals_hashmap_clean_clean(
            memberships in proptest::collection::vec(
                proptest::collection::btree_set(0u32..20, 0..8), 1..20)
        ) {
            let separator = 10u32;
            let blocks: Vec<Block> = memberships
                .iter()
                .enumerate()
                .map(|(i, set)| Block::new(
                    format!("b{i}"),
                    ClusterId::GLUE,
                    set.iter().map(|&p| ProfileId(p)).collect(),
                    separator,
                ))
                .collect();
            let collection = BlockCollection::new(blocks, true, separator, 20);
            assert_scratch_matches_reference(&collection, None);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Both row orderings ≡ the hashmap reference, bit-exact, on an id
        /// space of 2 048 (32 bitmap words): a hub block of ≥ 100 members
        /// gives rows read off the bitmap, sparse blocks give sorted ones.
        /// One scratch alternates hub row → small row → hub row, so a bit
        /// or slot left over from either kind would show in the next.
        #[test]
        fn prop_hub_and_sparse_rows_equal_hashmap(
            hub in proptest::collection::btree_set(0u32..2048, 100..160),
            mut sparse in proptest::collection::vec(
                proptest::collection::btree_set(0u32..2048, 2..5), 0..40),
        ) {
            // At least one small row: a pair outside the hub.
            sparse.push((0..2048).filter(|p| !hub.contains(p)).take(2).collect());
            let mut blocks = vec![Block::new(
                "hub",
                ClusterId::GLUE,
                hub.iter().map(|&p| ProfileId(p)).collect(),
                u32::MAX,
            )];
            blocks.extend(sparse.iter().enumerate().map(|(i, set)| Block::new(
                format!("s{i}"),
                ClusterId::GLUE,
                set.iter().map(|&p| ProfileId(p)).collect(),
                u32::MAX,
            )));
            let entropies: Vec<f64> = (0..blocks.len()).map(|i| 0.5 + i as f64 * 0.25).collect();
            let collection = BlockCollection::new(blocks, false, 2048, 2048);
            let ctx = GraphSnapshot::build(&collection).with_block_entropies(entropies);
            let words = 2048usize.div_ceil(64);
            let bitmap_row = |len: usize| len * len.next_power_of_two().trailing_zeros() as usize > words;

            let hub_rows: Vec<u32> = hub.iter().copied().collect();
            let small_rows: Vec<u32> = sparse.iter().flatten().copied()
                .filter(|p| !hub.contains(p))
                .collect();
            let mut order = Vec::new();
            for (k, &s) in small_rows.iter().enumerate() {
                order.extend([hub_rows[k % hub_rows.len()], s]);
            }
            order.push(hub_rows[0]);

            let mut scratch = NodeScratch::new(&ctx);
            let (mut from_bitmap, mut sorted) = (0, 0);
            for node in order {
                scratch.load(&ctx, node);
                let dense: Vec<(u32, EdgeAccum)> = scratch.iter().collect();
                if bitmap_row(dense.len()) {
                    from_bitmap += 1;
                } else if !dense.is_empty() {
                    sorted += 1;
                }
                prop_assert!(scratch.seen.iter().all(|&w| w == 0), "bits left by {}", node);
                let reference = reference_adjacency(&ctx, node);
                prop_assert_eq!(dense.len(), reference.len(), "row length of {}", node);
                for (&(dv, da), &(rv, ra)) in dense.iter().zip(&reference) {
                    prop_assert_eq!(dv, rv, "neighbours of {}", node);
                    prop_assert_eq!(da.common_blocks, ra.common_blocks);
                    prop_assert_eq!(da.arcs.to_bits(), ra.arcs.to_bits());
                    prop_assert_eq!(da.entropy_sum.to_bits(), ra.entropy_sum.to_bits());
                }
            }
            prop_assert!(from_bitmap > 0 && sorted > 0, "{} bitmap rows, {} sorted", from_bitmap, sorted);
        }
    }
}
