//! Shared parallel passes over the implicit blocking graph.
//!
//! Everything here is deterministic: nodes are processed in id order,
//! adjacency lists are sorted by neighbour id before any floating-point
//! accumulation, and per-chunk results are merged in chunk order. All
//! passes run on the dense scratch-array engine of [`crate::traversal`]
//! with work-stealing scheduling; chunk geometry is independent of the
//! thread count, so results — including float folds — are bit-identical
//! across thread counts.

use crate::context::{EdgeAccum, GraphSnapshot};
use crate::traversal::{node_chunks, owner_chunks, NodeScratch, ScratchLease};
use crate::weights::EdgeWeigher;
use blast_datamodel::entity::ProfileId;
use blast_datamodel::parallel::{chunk_len, parallel_work_steal};
use std::sync::{Mutex, PoisonError};

/// A reusable node mask with O(1) clearing: membership is "stamp equals the
/// current epoch", so starting a fresh mask is an epoch bump instead of the
/// per-commit `vec![false; n]` allocation-and-refill the incremental repair
/// used to pay. [`EpochMask::begin`] grows the stamp array monotonically
/// (amortised — never per commit) and handles epoch wrap-around by one full
/// refill every 2³² commits.
#[derive(Debug, Default)]
pub struct EpochMask {
    stamps: Vec<u32>,
    epoch: u32,
    all: bool,
}

impl EpochMask {
    /// An empty mask (everything unmarked until the first [`EpochMask::begin`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a fresh mask over `n` nodes: everything unmarked, O(1) except
    /// for amortised growth and the 2³²-commit wrap refill.
    pub fn begin(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
        self.all = false;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
    }

    /// Marks `u`, returning whether it was newly marked.
    #[inline]
    pub fn mark(&mut self, u: u32) -> bool {
        let s = &mut self.stamps[u as usize];
        if *s == self.epoch {
            false
        } else {
            *s = self.epoch;
            true
        }
    }

    /// Marks every node (the degraded-full path) without touching stamps.
    pub fn mark_all(&mut self) {
        self.all = true;
    }

    /// Whether `u` is marked in the current epoch.
    #[inline]
    pub fn contains(&self, u: u32) -> bool {
        self.all
            || self
                .stamps
                .get(u as usize)
                .is_some_and(|&s| s == self.epoch)
    }
}

/// Maps a finite edge weight onto `u64` *rank bits*: `rank_bits(a) <
/// rank_bits(b) ⟺ a > b` (ascending rank = descending weight), with `-0.0`
/// normalised onto `+0.0` so bitwise rank ties coincide exactly with `f64`
/// equality of the batch deciders. Composed with an ascending `(u, v)`
/// tie-break this is the total retention order shared by CEP's top-K (rank
/// prefix of length K) and WEP's threshold (rank prefix up to the mean) —
/// the key order of the incremental decision stage's retention frontier.
#[inline]
pub fn weight_rank_bits(w: f64) -> u64 {
    debug_assert!(!w.is_nan(), "no NaN weights");
    let w = if w == 0.0 { 0.0 } else { w };
    let b = w.to_bits();
    // Standard total-order map (sign-magnitude → monotone unsigned)…
    let ascending = if b >> 63 == 1 { !b } else { b | (1 << 63) };
    // …inverted so heavier edges rank first.
    !ascending
}

/// Materialises every edge exactly once as `(u, v, weight)` in one
/// traversal, in deterministic order (ascending `u`, then ascending `v`).
///
/// This is the fused-pass primitive behind WEP and CEP: global statistics
/// (mean weight, top-K cutoff) and the retention filter both run over the
/// materialised vector, so the quadratic adjacency build is paid **once**
/// per pruning call instead of once per sub-pass.
pub fn collect_weighted_edges(
    ctx: &GraphSnapshot,
    weigher: &dyn EdgeWeigher,
) -> Vec<(u32, u32, f64)> {
    collect_edges(ctx, weigher, |u, v, w| Some((u, v, w)))
}

/// Runs `per_node(node, adjacency)` for every node (including isolated ones,
/// which get an empty adjacency), returning the results indexed by node id.
/// The adjacency is sorted by neighbour id and carries the computed weights.
pub fn node_pass<R, F>(ctx: &GraphSnapshot, weigher: &dyn EdgeWeigher, per_node: F) -> Vec<R>
where
    R: Send,
    F: Fn(u32, &[(u32, f64)]) -> R + Sync,
{
    let n = ctx.total_profiles() as usize;
    let chunks = node_chunks(ctx, n, |scratch, weighted, range| {
        let mut out = Vec::with_capacity(range.len());
        for node in range {
            let node = node as u32;
            scratch.load(ctx, node);
            weighted.clear();
            weighted.extend(
                scratch
                    .iter()
                    .map(|(v, acc)| (v, weigher.weight(ctx, node, v, &acc))),
            );
            out.push(per_node(node, weighted));
        }
        out
    });
    let mut out = Vec::with_capacity(n);
    for c in chunks {
        out.extend(c);
    }
    out
}

/// What one [`touching_pass`] produced: every listed node's **emitted
/// row**, in CSR form (offsets into one entry vector) per work-steal chunk
/// of the node list, plus the nodes' artefacts.
///
/// Node `d` emits the marked-incident edges it *owns*: each edge to a
/// larger neighbour, and each edge to a smaller neighbour that is not
/// marked (a marked smaller endpoint emits that edge itself). So every
/// edge with a marked endpoint is in exactly one row. A row ascends by
/// neighbour; each entry is the caller's value for the edge in canonical
/// orientation (smaller id first — the batch owner side on dirty and
/// clean-clean graphs alike).
#[derive(Debug)]
pub struct TouchingPass<'a, E, A> {
    nodes: &'a [u32],
    /// Nodes per chunk: `chunk_len(nodes.len())`, the geometry every
    /// per-row pass over the same node list shares.
    chunk: usize,
    chunks: Vec<RowChunk<E>>,
    /// `artefact(node, adjacency)` of every listed node, aligned with the
    /// node list; empty when no artefact function was given.
    pub artefacts: Vec<A>,
}

/// One work-steal chunk of a [`TouchingPass`]: `offsets[i]..offsets[i + 1]`
/// is the chunk's `i`-th node's row in `entries`.
#[derive(Debug)]
struct RowChunk<E> {
    offsets: Vec<usize>,
    entries: Vec<E>,
}

impl<E, A> TouchingPass<'_, E, A> {
    /// Every listed node with its emitted row, `(node, row)`, in list
    /// order; each row ascends by neighbour.
    pub fn rows(&self) -> impl Iterator<Item = (u32, &[E])> + '_ {
        self.chunks.iter().enumerate().flat_map(move |(c, chunk)| {
            let nodes = &self.nodes[c * self.chunk..];
            (0..chunk.offsets.len() - 1).map(move |i| {
                (
                    nodes[i],
                    &chunk.entries[chunk.offsets[i]..chunk.offsets[i + 1]],
                )
            })
        })
    }

    /// Number of emitted edges (every edge with a marked endpoint, once).
    pub fn emitted(&self) -> usize {
        self.chunks.iter().map(|c| c.entries.len()).sum()
    }

    /// Filters every row in place, on the pass's chunk geometry:
    /// `keep_row(node, row, acc)` moves the entries of the node's row it
    /// keeps to the row's front (in order) and returns their count, folding
    /// anything else it finds into its chunk's `acc`. Returns the per-chunk
    /// `acc`s in chunk order. Rows are compacted where the pass wrote them:
    /// the filter itself allocates nothing.
    pub fn retain_rows<R>(
        &mut self,
        threads: usize,
        keep_row: impl Fn(u32, &mut [E], &mut R) -> usize + Sync,
    ) -> Vec<R>
    where
        E: Copy + Send,
        R: Default + Send,
    {
        let (nodes, chunk) = (self.nodes, self.chunk);
        // Each chunk is claimed exactly once, so no lock is ever contended
        // or found poisoned: the mutex only hands its one worker the
        // chunk's rows.
        let cells: Vec<Mutex<&mut RowChunk<E>>> = self.chunks.iter_mut().map(Mutex::new).collect();
        parallel_work_steal(
            nodes.len(),
            threads,
            chunk,
            || (),
            |_, range| {
                let mut acc = R::default();
                let mut rows = cells[range.start / chunk]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                let RowChunk { offsets, entries } = &mut **rows;
                let mut write = 0;
                for (k, &d) in nodes[range.clone()].iter().enumerate() {
                    let (start, end) = (offsets[k], offsets[k + 1]);
                    let kept = keep_row(d, &mut entries[start..end], &mut acc);
                    entries.copy_within(start..start + kept, write);
                    offsets[k] = write;
                    write += kept;
                }
                offsets[range.len()] = write;
                entries.truncate(write);
                acc
            },
        )
    }
}

/// The repair pass of the incremental tiers that re-read blocks: **one**
/// adjacency load per listed node yields both the node's emitted row and
/// its own artefact.
///
/// `nodes` lists the marked nodes strictly ascending and `mask` is their
/// membership mask (`mask.contains(n) == nodes.contains(&n)`). Per node the
/// loaded adjacency is weighed from the node's side — `weigher.weight(ctx,
/// node, v, acc)`, the orientation [`node_pass`] uses — and handed to
/// `artefact`, so thresholds and top-k lists carry the bits a batch node
/// pass gives them. Each edge the node owns (see [`TouchingPass`]) goes
/// into its row through `edge(u, v, w, acc)` with `u < v` and `w =
/// weigher.weight(ctx, u, v, acc)`, the orientation of [`collect_edges`];
/// the two orientations are separate calls because their bits differ for
/// weighers that multiply per-endpoint factors (`(c·a)·b ≠ (c·b)·a` under
/// ECBS, EJS, χ²). Without an artefact function the node-side weights of
/// edges a marked smaller endpoint already emits are never computed.
///
/// Nothing is concatenated or sorted here: a consumer reads the rows where
/// they lie ([`TouchingPass::rows`]) or filters them in place on the same
/// chunk geometry ([`TouchingPass::retain_rows`]).
pub fn touching_pass<'a, E, A>(
    ctx: &GraphSnapshot,
    weigher: &dyn EdgeWeigher,
    nodes: &'a [u32],
    mask: &EpochMask,
    edge: impl Fn(u32, u32, f64, &EdgeAccum) -> E + Sync,
    artefact: Option<impl Fn(u32, &[(u32, f64)]) -> A + Sync>,
) -> TouchingPass<'a, E, A>
where
    E: Send,
    A: Send,
{
    assert!(
        nodes.windows(2).all(|w| w[0] < w[1]),
        "touching_pass: the node list must ascend"
    );
    let len = nodes.len();
    let chunk = chunk_len(len);
    let with_artefacts = artefact.is_some();
    let parts = parallel_work_steal(
        len,
        ctx.threads(),
        chunk,
        || (NodeScratch::lease(ctx), Vec::new()),
        |(scratch, weighted): &mut (ScratchLease, Vec<(u32, f64)>), range| {
            let mut offsets = Vec::with_capacity(range.len() + 1);
            offsets.push(0);
            let mut entries = Vec::new();
            let mut artefacts = Vec::with_capacity(if with_artefacts { range.len() } else { 0 });
            for &d in &nodes[range] {
                scratch.load(ctx, d);
                entries.reserve(scratch.len());
                weighted.clear();
                for (v, acc) in scratch.iter() {
                    if d < v {
                        let w = weigher.weight(ctx, d, v, &acc);
                        entries.push(edge(d, v, w, &acc));
                        if with_artefacts {
                            weighted.push((v, w));
                        }
                    } else {
                        if with_artefacts {
                            weighted.push((v, weigher.weight(ctx, d, v, &acc)));
                        }
                        // A marked smaller endpoint emits the edge itself.
                        if !mask.contains(v) {
                            entries.push(edge(v, d, weigher.weight(ctx, v, d, &acc), &acc));
                        }
                    }
                }
                offsets.push(entries.len());
                if let Some(artefact) = &artefact {
                    artefacts.push(artefact(d, weighted));
                }
            }
            (RowChunk { offsets, entries }, artefacts)
        },
    );
    let mut chunks = Vec::with_capacity(parts.len());
    let mut artefacts = Vec::with_capacity(if with_artefacts { len } else { 0 });
    for (rows, a) in parts {
        chunks.push(rows);
        artefacts.extend(a);
    }
    TouchingPass {
        nodes,
        chunk,
        chunks,
        artefacts,
    }
}

/// Enumerates every edge exactly once (u < v), calling `f(u, v, w)` and
/// collecting the `Some` results. Output order is deterministic: ascending
/// `u`, then ascending `v`.
pub fn collect_edges<T, F>(ctx: &GraphSnapshot, weigher: &dyn EdgeWeigher, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u32, u32, f64) -> Option<T> + Sync,
{
    let clean = ctx.is_clean_clean();
    let chunks = owner_chunks(ctx, |scratch, range| {
        let mut out = Vec::new();
        for u in range {
            scratch.load(ctx, u);
            for (v, acc) in scratch.iter() {
                if !clean && v <= u {
                    continue; // dirty graphs see each edge from both ends
                }
                let w = weigher.weight(ctx, u, v, &acc);
                if let Some(t) = f(u, v, w) {
                    out.push(t);
                }
            }
        }
        out
    });
    let mut out = Vec::new();
    for c in chunks {
        out.extend(c);
    }
    out
}

/// Like [`collect_edges`] but hands the closure the raw [`crate::context::EdgeAccum`] so
/// callers can derive several statistics per edge without re-scanning the
/// adjacency (used by supervised meta-blocking's feature extraction).
pub fn collect_edge_accums<T, F>(ctx: &GraphSnapshot, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u32, u32, &crate::context::EdgeAccum) -> Option<T> + Sync,
{
    let clean = ctx.is_clean_clean();
    let chunks = owner_chunks(ctx, |scratch, range| {
        let mut out = Vec::new();
        for u in range {
            scratch.load(ctx, u);
            for (v, acc) in scratch.iter() {
                if !clean && v <= u {
                    continue;
                }
                if let Some(t) = f(u, v, &acc) {
                    out.push(t);
                }
            }
        }
        out
    });
    let mut out = Vec::new();
    for c in chunks {
        out.extend(c);
    }
    out
}

/// Converts an edge `(u, v)` to the `ProfileId` pair used in results.
#[inline]
pub fn pair(u: u32, v: u32) -> (ProfileId, ProfileId) {
    (ProfileId(u), ProfileId(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::WeightingScheme;
    use blast_blocking::block::Block;
    use blast_blocking::collection::BlockCollection;
    use blast_blocking::key::ClusterId;

    fn ids(v: &[u32]) -> Vec<ProfileId> {
        v.iter().map(|&i| ProfileId(i)).collect()
    }

    /// Materialises exactly the weighted edges with at least one endpoint in the
    /// marked set (the dirty-neighbourhood counterpart of
    /// [`collect_weighted_edges`]): each such edge appears once, in canonical
    /// owner orientation, sorted ascending by `(u, v)`, with the weight computed
    /// from the same accumulation path as the full pass (bit-identical).
    ///
    /// A convenience wrapper over [`touching_pass`]; `nodes` and `mask` as
    /// there.
    fn collect_edges_touching(
        ctx: &GraphSnapshot,
        weigher: &dyn EdgeWeigher,
        nodes: &[u32],
        mask: &EpochMask,
    ) -> Vec<(u32, u32, f64)> {
        let pass = touching_pass(
            ctx,
            weigher,
            nodes,
            mask,
            |u, v, w, _| (u, v, w),
            None::<fn(u32, &[(u32, f64)])>,
        );
        canonical(&pass, |e| (e.0, e.1))
    }

    /// A pass's rows read out as one list, sorted by `pair_of`.
    fn canonical<E: Copy, A>(
        pass: &TouchingPass<E, A>,
        pair_of: impl Fn(&E) -> (u32, u32),
    ) -> Vec<E> {
        let mut out: Vec<E> = pass
            .rows()
            .flat_map(|(_, row)| row.iter().copied())
            .collect();
        out.sort_unstable_by_key(pair_of);
        out
    }

    /// The two-pass, sort-everything repair primitives [`touching_pass`]
    /// replaced, kept as the reference it must equal bit for bit.
    mod reference {
        use super::super::*;

        /// Runs `per_node(node, adjacency)` for exactly the listed nodes (any
        /// order), node-orientation weights, results aligned with `nodes`.
        pub fn node_pass_subset<R, F>(
            ctx: &GraphSnapshot,
            weigher: &dyn EdgeWeigher,
            nodes: &[u32],
            per_node: F,
        ) -> Vec<R>
        where
            R: Send,
            F: Fn(u32, &[(u32, f64)]) -> R + Sync,
        {
            let len = nodes.len();
            let chunks = parallel_work_steal(
                len,
                ctx.threads(),
                chunk_len(len),
                || (NodeScratch::new(ctx), Vec::new()),
                |(scratch, weighted): &mut (NodeScratch, Vec<(u32, f64)>), range| {
                    let mut out = Vec::with_capacity(range.len());
                    for i in range {
                        let node = nodes[i];
                        scratch.load(ctx, node);
                        weighted.clear();
                        weighted.extend(
                            scratch
                                .iter()
                                .map(|(v, acc)| (v, weigher.weight(ctx, node, v, &acc))),
                        );
                        out.push(per_node(node, weighted));
                    }
                    out
                },
            );
            chunks.into_iter().flatten().collect()
        }

        /// Each marked-incident edge once, canonical owner orientation,
        /// everything pushed in emission order and then sorted.
        pub fn collect_accums_touching(
            ctx: &GraphSnapshot,
            nodes: &[u32],
            mask: &EpochMask,
        ) -> Vec<(u32, u32, EdgeAccum)> {
            let clean = ctx.is_clean_clean();
            let sep = ctx.separator();
            let len = nodes.len();
            let chunks = parallel_work_steal(
                len,
                ctx.threads(),
                chunk_len(len),
                || NodeScratch::new(ctx),
                |scratch: &mut NodeScratch, range| {
                    let mut out = Vec::new();
                    for i in range {
                        let d = nodes[i];
                        scratch.load(ctx, d);
                        for (v, acc) in scratch.iter() {
                            // Canonical owner orientation: the E1-side endpoint for
                            // clean-clean graphs, the smaller id for dirty ones.
                            let (owner, other) = if clean {
                                if d < sep {
                                    (d, v)
                                } else {
                                    (v, d)
                                }
                            } else if d < v {
                                (d, v)
                            } else {
                                (v, d)
                            };
                            // Emit from the owner endpoint when it is marked;
                            // otherwise from the marked non-owner (exactly once).
                            if owner != d && mask.contains(owner) {
                                continue;
                            }
                            out.push((owner, other, acc));
                        }
                    }
                    out
                },
            );
            let mut out: Vec<(u32, u32, EdgeAccum)> = chunks.into_iter().flatten().collect();
            out.sort_unstable_by_key(|&(u, v, _)| (u, v));
            out
        }
    }
    use reference::node_pass_subset;

    fn dirty_triangle() -> BlockCollection {
        let blocks = vec![
            Block::new("b0", ClusterId::GLUE, ids(&[0, 1, 2]), u32::MAX),
            Block::new("b1", ClusterId::GLUE, ids(&[0, 1]), u32::MAX),
        ];
        BlockCollection::new(blocks, false, 3, 3)
    }

    #[test]
    fn collect_edges_visits_each_edge_once() {
        let blocks = dirty_triangle();
        let ctx = GraphSnapshot::build(&blocks);
        let edges = collect_edges(&ctx, &WeightingScheme::Cbs, |u, v, w| Some((u, v, w)));
        assert_eq!(
            edges,
            vec![(0, 1, 2.0), (0, 2, 1.0), (1, 2, 1.0)],
            "each undirected edge exactly once, sorted"
        );
    }

    #[test]
    fn node_pass_covers_isolated_nodes() {
        let blocks = BlockCollection::new(
            vec![Block::new("b", ClusterId::GLUE, ids(&[0, 2]), u32::MAX)],
            false,
            4,
            4,
        );
        let ctx = GraphSnapshot::build(&blocks);
        let sizes = node_pass(&ctx, &WeightingScheme::Cbs, |_, adj| adj.len());
        assert_eq!(sizes, vec![1, 0, 1, 0]);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let blocks = dirty_triangle();
        let ctx1 = GraphSnapshot::build(&blocks).with_threads(1);
        let ctx4 = GraphSnapshot::build(&blocks).with_threads(4);
        let e1 = collect_edges(&ctx1, &WeightingScheme::Arcs, |u, v, w| {
            Some((u, v, w.to_bits()))
        });
        let e4 = collect_edges(&ctx4, &WeightingScheme::Arcs, |u, v, w| {
            Some((u, v, w.to_bits()))
        });
        assert_eq!(e1, e4);
    }

    #[test]
    fn subset_pass_matches_full_pass_slots() {
        let blocks = dirty_triangle();
        let ctx = GraphSnapshot::build(&blocks);
        let full = node_pass(&ctx, &WeightingScheme::Arcs, |n, adj| {
            (
                n,
                adj.iter()
                    .map(|&(v, w)| (v, w.to_bits()))
                    .collect::<Vec<_>>(),
            )
        });
        let subset = node_pass_subset(&ctx, &WeightingScheme::Arcs, &[2, 0], |n, adj| {
            (
                n,
                adj.iter()
                    .map(|&(v, w)| (v, w.to_bits()))
                    .collect::<Vec<_>>(),
            )
        });
        assert_eq!(subset[0], full[2]);
        assert_eq!(subset[1], full[0]);
    }

    #[test]
    fn touching_with_full_mask_is_collect() {
        let blocks = dirty_triangle();
        let ctx = GraphSnapshot::build(&blocks);
        let all: Vec<u32> = (0..3).collect();
        let mut mask = EpochMask::new();
        mask.begin(3);
        mask.mark_all();
        let touching = collect_edges_touching(&ctx, &WeightingScheme::Arcs, &all, &mask);
        let full = collect_weighted_edges(&ctx, &WeightingScheme::Arcs);
        assert_eq!(touching.len(), full.len());
        for (a, b) in touching.iter().zip(&full) {
            assert_eq!((a.0, a.1), (b.0, b.1));
            assert_eq!(a.2.to_bits(), b.2.to_bits());
        }
    }

    #[test]
    fn touching_with_partial_mask_is_incident_subset() {
        let blocks = dirty_triangle();
        let ctx = GraphSnapshot::build(&blocks);
        let mut mask = EpochMask::new();
        mask.begin(3);
        mask.mark(2);
        let touching = collect_edges_touching(&ctx, &WeightingScheme::Cbs, &[2], &mask);
        let expect: Vec<(u32, u32)> = collect_weighted_edges(&ctx, &WeightingScheme::Cbs)
            .into_iter()
            .filter(|&(u, v, _)| mask.contains(u) || mask.contains(v))
            .map(|(u, v, _)| (u, v))
            .collect();
        let got: Vec<(u32, u32)> = touching.iter().map(|&(u, v, _)| (u, v)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn epoch_mask_clears_in_constant_time() {
        let mut mask = EpochMask::new();
        mask.begin(4);
        assert!(mask.mark(2));
        assert!(!mask.mark(2), "already marked this epoch");
        assert!(mask.contains(2) && !mask.contains(1));
        mask.begin(4);
        assert!(!mask.contains(2), "epoch bump unmarks everything");
        mask.mark_all();
        assert!(mask.contains(0) && mask.contains(3));
        mask.begin(6);
        assert!(!mask.contains(0), "mark_all does not leak across epochs");
        assert!(mask.mark(5), "mask grows with the node count");
    }

    #[test]
    fn rank_bits_order_matches_descending_weight() {
        let weights = [-1.5, -0.0, 0.0, 1e-300, 1.0, 1.0000000000000002, 3e7];
        for pair in weights.windows(2) {
            if pair[0] == pair[1] {
                assert_eq!(weight_rank_bits(pair[0]), weight_rank_bits(pair[1]));
            } else {
                assert!(
                    weight_rank_bits(pair[0]) > weight_rank_bits(pair[1]),
                    "lighter edge must rank later: {pair:?}"
                );
            }
        }
        assert_eq!(
            weight_rank_bits(-0.0),
            weight_rank_bits(0.0),
            "batch deciders compare f64s, where -0.0 == 0.0"
        );
    }

    /// Bits of a weighted adjacency, for exact comparison.
    fn adjacency_bits(node: u32, adj: &[(u32, f64)]) -> (u32, Vec<(u32, u64)>) {
        (node, adj.iter().map(|&(v, w)| (v, w.to_bits())).collect())
    }

    /// `touching_pass` ≡ the reference pair (sort-based accumulate, weigh in
    /// owner orientation, second traversal for the node adjacencies) on one
    /// collection and marked set, bit for bit.
    fn assert_pass_matches_reference(blocks: &BlockCollection, nodes: &[u32], full: bool) {
        let n = blocks.total_profiles() as usize;
        let mut mask = EpochMask::new();
        mask.begin(n);
        if full {
            mask.mark_all();
        } else {
            for &u in nodes {
                mask.mark(u);
            }
        }
        for threads in [1usize, 4] {
            let ctx = GraphSnapshot::build(blocks).with_threads(threads);
            for scheme in [
                WeightingScheme::Cbs,
                WeightingScheme::Arcs,
                WeightingScheme::Js,
                WeightingScheme::Ecbs,
            ] {
                let label = format!("{} threads={threads}", scheme.name());
                let accs = reference::collect_accums_touching(&ctx, nodes, &mask);
                let expect_edges: Vec<(u32, u32, u64, EdgeAccum)> = accs
                    .iter()
                    .map(|&(u, v, acc)| (u, v, scheme.weight(&ctx, u, v, &acc).to_bits(), acc))
                    .collect();
                let expect_adj = node_pass_subset(&ctx, &scheme, nodes, adjacency_bits);

                let pass = || {
                    touching_pass(
                        &ctx,
                        &scheme,
                        nodes,
                        &mask,
                        |u, v, w, acc| (u, v, w.to_bits(), *acc),
                        Some(adjacency_bits),
                    )
                };
                // Each row holds exactly the edges its node owns, ascending.
                let mut rows = pass();
                let emitted = rows.emitted();
                let owned = rows.retain_rows(threads, |d, row, owned: &mut usize| {
                    let neighbours: Vec<u32> = row
                        .iter()
                        .map(|&(u, v, ..)| {
                            assert!(u < v && (u == d || v == d), "{label}: canonical");
                            assert!(u == d || !mask.contains(u), "{label}: owned by {d}");
                            if u == d {
                                v
                            } else {
                                u
                            }
                        })
                        .collect();
                    assert!(neighbours.windows(2).all(|w| w[0] < w[1]), "{label}");
                    *owned += row.len();
                    row.len()
                });
                assert_eq!(
                    owned.iter().sum::<usize>(),
                    emitted,
                    "{label}: rows partition the pass"
                );
                let listed: Vec<u32> = rows.rows().map(|(d, _)| d).collect();
                assert_eq!(listed, nodes, "{label}: one row per listed node, in order");
                assert_eq!(
                    canonical(&rows, |e| (e.0, e.1)),
                    expect_edges,
                    "{label}: edges"
                );
                assert_eq!(rows.artefacts, expect_adj, "{label}: node adjacencies");
                // Rows filtered in place read out as the filtered list.
                let odd = |e: &(u32, u32, u64, EdgeAccum)| (e.0 + e.1) % 2 == 1;
                let mut rows = pass();
                rows.retain_rows(threads, |_, row, _: &mut ()| {
                    let mut kept = 0;
                    for j in 0..row.len() {
                        if odd(&row[j]) {
                            row[kept] = row[j];
                            kept += 1;
                        }
                    }
                    kept
                });
                let expect_odd: Vec<_> = expect_edges.iter().copied().filter(odd).collect();
                assert_eq!(rows.emitted(), expect_odd.len(), "{label}: filtered");
                assert_eq!(
                    canonical(&rows, |e| (e.0, e.1)),
                    expect_odd,
                    "{label}: filtered"
                );
                let weighted = collect_edges_touching(&ctx, &scheme, nodes, &mask);
                assert_eq!(weighted.len(), expect_edges.len());
                for (got, want) in weighted.iter().zip(&expect_edges) {
                    assert_eq!((got.0, got.1, got.2.to_bits()), (want.0, want.1, want.2));
                }
            }
        }
    }

    /// A marked subset from selector bits (ascending), or every node.
    fn marked_nodes(n: u32, picks: &[u8], full: bool) -> Vec<u32> {
        (0..n)
            .filter(|&u| full || picks[u as usize % picks.len()] == 1)
            .collect()
    }

    mod pass_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn prop_touching_pass_equals_two_pass_reference_dirty(
                memberships in proptest::collection::vec(
                    proptest::collection::btree_set(0u32..24, 0..10), 1..24),
                picks in proptest::collection::vec(0u8..2, 1..24),
                full in 0u8..3,
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
                let collection = BlockCollection::new(blocks, false, 24, 24);
                let full = full == 0;
                assert_pass_matches_reference(&collection, &marked_nodes(24, &picks, full), full);
            }

            #[test]
            fn prop_touching_pass_equals_two_pass_reference_clean_clean(
                memberships in proptest::collection::vec(
                    proptest::collection::btree_set(0u32..20, 0..8), 1..20),
                picks in proptest::collection::vec(0u8..2, 1..20),
                full in 0u8..3,
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
                let full = full == 0;
                assert_pass_matches_reference(&collection, &marked_nodes(20, &picks, full), full);
            }
        }
    }

    #[test]
    fn weighted_edges_match_collect() {
        let blocks = dirty_triangle();
        let ctx = GraphSnapshot::build(&blocks);
        let direct = collect_weighted_edges(&ctx, &WeightingScheme::Cbs);
        let via_collect = collect_edges(&ctx, &WeightingScheme::Cbs, |u, v, w| Some((u, v, w)));
        assert_eq!(direct, via_collect);
    }
}
