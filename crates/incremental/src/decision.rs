//! The decision stage's state: the retention order of the edge-centric
//! rules and the live-edge adjacency every commit decides off.
//!
//! Meta-blocking's pruning decisions are simple functionals over edge
//! weights (a global mean for WEP, a global top-K for CEP, per-node top-k
//! lists for CNP). The edge-centric ones are **prefixes** of one total
//! order, the [`EdgeKey`] order, captured as a [`Frontier`]: WEP's falls out
//! of [`blast_graph::pruning::Wep::mean_from_sum`] over Σw restated exactly
//! from the live weights, CEP's is the rank-K key found by selection over
//! the live keys. A commit decides every edge it can see flip explicitly —
//! old key against the old frontier, new key against the new one — so no
//! ordered structure is kept between commits.
//!
//! [`EdgeAdjacency`] holds per-node rows of `(neighbour, weight,
//! accumulator)` for every live edge, and WNP/BLAST's retention as one bit
//! of each entry. A commit splices each dirty node's row
//! ([`EdgeAdjacency::splice`]), reading each owned edge's old weight and
//! retention bit as it merges the new row in and writing the mirrors into
//! the neighbours' rows, so no list of old or fresh edges is gathered; the
//! reweigh tier re-derives the clean weights from it, each row in place
//! ([`EdgeAdjacency::reweigh_clean`]).
//!
//! Everything here is deterministic: every traversal runs in row order, a
//! function of the live edge *set*, independent of insertion history.

use blast_datamodel::parallel::{chunk_len, parallel_work_steal};
use blast_graph::context::{EdgeAccum, GraphSnapshot};
use blast_graph::pruning::common::{weight_rank_bits, EpochMask};
use blast_graph::weights::EdgeWeigher;
use std::sync::{Mutex, PoisonError};

/// The total retention order of the decision stage: ascending `rank` is
/// descending weight (see [`weight_rank_bits`]), ties broken by ascending
/// `(u, v)` — bit-for-bit the order batch CEP keeps its top-K in and batch
/// WEP resolves `w ≥ Θ` in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EdgeKey {
    /// Monotone-inverted weight bits (primary, ascending = heavier first).
    pub rank: u64,
    /// Canonical owner endpoint (smaller id).
    pub u: u32,
    /// The other endpoint.
    pub v: u32,
}

impl EdgeKey {
    /// The key of edge `(u, v)` at weight `w`.
    #[inline]
    pub fn new(u: u32, v: u32, w: f64) -> Self {
        EdgeKey {
            rank: weight_rank_bits(w),
            u,
            v,
        }
    }

    /// The largest key still retained by a mean threshold θ: every edge
    /// with `w ≥ θ` (any `(u, v)`) keys at or before this bound.
    #[inline]
    pub fn mean_bound(theta: f64) -> Self {
        EdgeKey {
            rank: weight_rank_bits(theta),
            u: u32::MAX,
            v: u32::MAX,
        }
    }
}

/// The inclusive retention prefix of the key order: an edge is retained
/// iff its key is ≤ the frontier. `None` retains nothing (empty graph,
/// K = 0, or an uninitialised pass).
pub type Frontier = Option<EdgeKey>;

/// Whether a key is retained under a frontier.
#[inline]
pub fn retained_under(frontier: Frontier, key: EdgeKey) -> bool {
    frontier.is_some_and(|f| key <= f)
}

/// One entry of a node's emitted row as [`EdgeAdjacency::splice`] takes it:
/// the canonical pair `(u, v)`, `u < v`, the edge's weight, and the
/// accumulator the cache keeps for it.
pub type RowEdge = (u32, u32, f64, EdgeAccum);

/// The top bit of [`CachedEdge::common_blocks`]: whether WNP/BLAST retain
/// the pair. Both mirrors of an edge carry the same bit.
const RETAINED: u32 = 1 << 31;

/// One cached edge entry of an [`EdgeAdjacency`] row — 16 packed bytes:
/// the neighbour, the last decided weight, and the accumulator's
/// shared-block count, whose top bit holds the pair's WNP/BLAST retention
/// ([`RETAINED`]; masked off wherever the count is read, and a count never
/// reaches 2³¹). The rest of the accumulator is *not* stored per entry: a
/// snapshot with no entropies attached accumulates exactly 1.0 per shared
/// block (see [`EdgeAccum::entropy_sum`]), so `entropy_sum` is bit-exactly
/// `common_blocks as f64` (integer sums of 1.0 are exact far beyond any
/// feasible block count), and the ARCS sum is kept only under a weigher
/// that reads block sizes
/// ([`blast_graph::weights::WeightDeps::block_sizes`]) — every other cache
/// stores 0.0 for it. Such a cache's repair re-accumulates only the nodes
/// whose cleaned block list moved, so the sum of a pair that stayed in a
/// resized block would go stale — and a 0.0 that no weigher reads cannot.
/// Both are re-derived on read until an entry's pair differs bitwise from
/// the derived `(common_blocks as f64, 0.0)`: then the adjacency is
/// promoted to carry index-aligned `(entropy_sum, arcs)` side rows
/// ([`EdgeAdjacency::promote_side`]) — losslessly, because every entry
/// stored before it held the derived pair.
#[derive(Debug, Clone, Copy)]
struct CachedEdge {
    /// The last weight pushed through the decision stage.
    w: f64,
    /// The neighbour on this row.
    v: u32,
    /// Number of shared blocks |B_ij|, with the [`RETAINED`] bit on top.
    common_blocks: u32,
}

impl CachedEdge {
    /// The entry of an edge to `v` at weight `w`, with `acc`'s block count
    /// and the retention bit `retained`.
    #[inline]
    fn new(v: u32, w: f64, acc: &EdgeAccum, retained: bool) -> Self {
        debug_assert!(acc.common_blocks < RETAINED, "block count overflows");
        let mut entry = CachedEdge {
            w,
            v,
            common_blocks: acc.common_blocks,
        };
        entry.set_retained(retained);
        entry
    }

    /// |B_ij|, the retention bit masked off.
    #[inline]
    fn blocks(&self) -> u32 {
        self.common_blocks & !RETAINED
    }

    /// Whether WNP/BLAST retain the pair.
    #[inline]
    fn retained(&self) -> bool {
        self.common_blocks & RETAINED != 0
    }

    /// Sets or clears the retention bit.
    #[inline]
    fn set_retained(&mut self, on: bool) {
        self.common_blocks = self.blocks() | if on { RETAINED } else { 0 };
    }
}

/// One side-row entry: an accumulator's `(entropy_sum, arcs)`.
type Side = (f64, f64);

/// Per-node rows of `(neighbour, weight, accumulator)` covering every live
/// edge (each edge stored at both endpoints, rows ascending by neighbour
/// id). A commit patches it one dirty row at a time
/// ([`EdgeAdjacency::splice`]), reading each edge's old weight off the row
/// as it goes; through the cached accumulators it is also the reweigh
/// tier's input: when a global scalar (|B|, degrees, |E_G|) drifts, every
/// clean edge's weight is re-derived from its cached local factors and the
/// patched snapshot ([`EdgeAdjacency::reweigh_clean`]) instead of
/// re-accumulated from the blocks. WNP/BLAST keep their retained set in it
/// too, one bit per entry. Entries are stored packed (`CachedEdge`, 16
/// bytes) with the entropy and ARCS sums elided until a pipeline actually
/// attaches entropies or weighs by ARCS.
#[derive(Debug, Default)]
pub struct EdgeAdjacency {
    rows: Vec<Vec<CachedEdge>>,
    /// Index-aligned `(entropy_sum, arcs)` pairs, one row per node
    /// mirroring `rows`, present only once an inserted accumulator's pair
    /// differs bitwise from the derived one (see `CachedEdge`).
    side: Option<Vec<Vec<Side>>>,
}

/// One step of [`walk_row`].
enum RowStep<'a> {
    /// The old row's entry at this index is to a marked smaller neighbour:
    /// that neighbour owns the edge, so the entry is its splice's to write.
    Kept(usize),
    /// The old row's entry at this index is an owned edge that no longer
    /// exists.
    Died(usize),
    /// An owned edge that exists now: its old entry's index (`None` for a
    /// birth) and its emitted entry.
    Emitted(Option<usize>, &'a RowEdge),
}

/// Walks node `d`'s old row against its emitted row `new` (both ascending
/// by neighbour) under the ownership rule of
/// [`blast_graph::pruning::common::TouchingPass`]: `d` owns its edges to a
/// larger neighbour or to an unmarked smaller one, and `new` holds exactly
/// the owned edges that now exist. Each old entry and each emitted one is
/// stepped once, in neighbour order.
fn walk_row<'a>(
    d: u32,
    mask: &EpochMask,
    old: &[CachedEdge],
    new: &'a [RowEdge],
    mut step: impl FnMut(RowStep<'a>),
) {
    let old_step = |i: usize| {
        let v = old[i].v;
        if v < d && mask.contains(v) {
            RowStep::Kept(i)
        } else {
            RowStep::Died(i)
        }
    };
    let mut i = 0;
    for e in new {
        let v = if e.0 == d { e.1 } else { e.0 };
        while i < old.len() && old[i].v < v {
            step(old_step(i));
            i += 1;
        }
        // An emitted neighbour is owned, so an old entry to it is too.
        let prev = if i < old.len() && old[i].v == v {
            i += 1;
            Some(i - 1)
        } else {
            None
        };
        step(RowStep::Emitted(prev, e));
    }
    for i in i..old.len() {
        step(old_step(i));
    }
}

impl EdgeAdjacency {
    /// An empty adjacency.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the row table to cover `n` nodes.
    pub fn ensure_nodes(&mut self, n: usize) {
        if self.rows.len() < n {
            self.rows.resize_with(n, Vec::new);
        }
        if let Some(side) = &mut self.side {
            if side.len() < n {
                side.resize_with(n, Vec::new);
            }
        }
    }

    /// The `(entropy_sum, arcs)` a no-entropy snapshot under a weigher that
    /// reads no block size would have accumulated for this entry — 1.0 per
    /// shared block, summed exactly, and no ARCS sum.
    #[inline]
    fn derived(e: &CachedEdge) -> Side {
        (e.blocks() as f64, 0.0)
    }

    /// Materialises the side rows from the packed entries. Every entry
    /// cached so far held the derived pair (otherwise this promotion would
    /// already have run), so the materialised values are bit-identical to
    /// the ones the entries were inserted with.
    fn promote_side(&mut self) {
        debug_assert!(self.side.is_none());
        self.side = Some(
            self.rows
                .iter()
                .map(|row| row.iter().map(Self::derived).collect())
                .collect(),
        );
    }

    /// Node `u`'s row and side row (empty past the row table).
    fn row(&self, u: u32) -> (&[CachedEdge], Option<&[Side]>) {
        let ui = u as usize;
        match self.rows.get(ui) {
            Some(row) => (row, self.side.as_ref().map(|side| side[ui].as_slice())),
            None => (&[], None),
        }
    }

    /// The side pair of entry `e`, the `i`-th of its row, whose side row
    /// is `side`.
    #[inline]
    fn side_of(e: &CachedEdge, side: Option<&[Side]>, i: usize) -> Side {
        side.map_or_else(|| Self::derived(e), |side| side[i])
    }

    /// Reconstructs the full accumulator of entry `e`, the `i`-th of its
    /// row, whose side row is `side` — bit-identical to the one it was
    /// cached with.
    #[inline]
    fn accum(e: &CachedEdge, side: Option<&[Side]>, i: usize) -> EdgeAccum {
        let (entropy_sum, arcs) = Self::side_of(e, side, i);
        EdgeAccum {
            common_blocks: e.blocks(),
            arcs,
            entropy_sum,
        }
    }

    /// Number of live edges in the cache (each mirrored entry pair counts
    /// once) — the `--stats` footprint counter. O(rows).
    pub fn live_edges(&self) -> usize {
        self.cached_accumulators() / 2
    }

    /// Number of cached accumulator entries (two mirrors per live edge).
    pub fn cached_accumulators(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Estimated resident heap footprint in bytes: packed entry capacity,
    /// side rows when promoted, and the row headers themselves.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let entries: usize = self
            .rows
            .iter()
            .map(|row| row.capacity() * size_of::<CachedEdge>())
            .sum();
        let side: usize = self.side.as_ref().map_or(0, |side| {
            side.iter()
                .map(|row| row.capacity() * size_of::<Side>())
                .sum()
        });
        let headers = (self.rows.capacity() + self.side.as_ref().map_or(0, Vec::capacity))
            * size_of::<Vec<Side>>();
        entries + side + headers
    }

    /// Visits every live edge once, canonical `(u, v, weight)`, ascending
    /// `(u, v)`. O(|E|): what the edge-centric rules decide the clean
    /// edges over and read the retained prefix off.
    pub fn for_each_edge(&self, mut f: impl FnMut(u32, u32, f64)) {
        for (u, row) in (0u32..).zip(&self.rows) {
            for e in row {
                if e.v > u {
                    f(u, e.v, e.w);
                }
            }
        }
    }

    /// Visits every edge whose retention bit is set once, canonical
    /// `(u, v)`, ascending: the WNP/BLAST retained set.
    pub fn for_each_retained(&self, mut f: impl FnMut(u32, u32)) {
        for (u, row) in (0u32..).zip(&self.rows) {
            for e in row {
                if e.v > u && e.retained() {
                    f(u, e.v);
                }
            }
        }
    }

    /// Node `u`'s row as `(neighbour, weight, retained)`, ascending
    /// neighbours. Both mirrors of an edge cache its canonical weight (the
    /// one a decision reads) and its retention bit, so this is the node's
    /// emitted row, with each pair's standing, wherever the cache holds the
    /// current weights.
    pub fn decisions(&self, u: u32) -> impl Iterator<Item = (u32, f64, bool)> + '_ {
        self.row(u).0.iter().map(|e| (e.v, e.w, e.retained()))
    }

    /// The cached canonical weight of the live edge `(a, b)`.
    pub fn weight(&self, a: u32, b: u32) -> Option<f64> {
        let row = self.row(a).0;
        row.binary_search_by_key(&b, |e| e.v).ok().map(|i| row[i].w)
    }

    /// Sets or clears the retention bit of the live edge `(a, b)` on both
    /// mirrors.
    pub fn set_retained(&mut self, a: u32, b: u32, on: bool) {
        for (x, y) in [(a, b), (b, a)] {
            let row = &mut self.rows[x as usize];
            let found = row.binary_search_by_key(&y, |e| e.v);
            debug_assert!(found.is_ok(), "a flipped pair is a live edge: ({x}, {y})");
            if let Ok(i) = found {
                row[i].set_retained(on);
            }
        }
    }

    /// What [`EdgeAdjacency::splice`] would report for node `d`'s emitted
    /// row `new`, without patching anything: `f(u, v, old, new)` for each
    /// edge `d` owns, old and new weight, `None` for a birth's old side or
    /// a death's new one. Every edge with a marked endpoint is reported
    /// once over the marked nodes' rows, whatever their order, as long as
    /// no row has been spliced yet: what a degree-reading weigher diffs
    /// edge existence with before the rows are weighed.
    pub fn diff_row(
        &self,
        d: u32,
        mask: &EpochMask,
        new: &[RowEdge],
        mut f: impl FnMut(u32, u32, Option<f64>, Option<f64>),
    ) {
        let old = self.row(d).0;
        walk_row(d, mask, old, new, |step| match step {
            RowStep::Kept(_) => {}
            RowStep::Died(i) => f(d.min(old[i].v), d.max(old[i].v), Some(old[i].w), None),
            RowStep::Emitted(prev, e) => f(e.0, e.1, prev.map(|i| old[i].w), Some(e.2)),
        });
    }

    /// Splices the rows of the marked nodes: `rows` yields each marked
    /// node `d` with its emitted row (the edges it owns that now exist,
    /// ascending by neighbour — a
    /// [`blast_graph::pruning::common::TouchingPass`] row under `mask`),
    /// with `d` ascending. Node by node, the splice
    ///
    /// * rebuilds `d`'s row by merging its emitted entries with its entries
    ///   to marked smaller neighbours — those neighbours own the edges and
    ///   were spliced first, so those entries are already current;
    /// * reads the old entries of the edges `d` owns during that merge and
    ///   reports each owned edge as `f(u, v, old, new, retained)`,
    ///   canonical `u < v`, the old and new weight, `None` for a birth's
    ///   old side or a death's new one, and the old entry's retention bit
    ///   (`false` for a birth), which a surviving edge keeps;
    /// * writes each owned edge's mirror, retention bit included, into the
    ///   neighbour's row: one binary search there (a push past the row's
    ///   last entry), then the entry is overwritten in place, or inserted
    ///   or removed for a birth or a death.
    ///
    /// An accumulator is stored whenever an entry is, even where the weight
    /// bits tie: a later reweigh must read current local factors.
    pub fn splice<'r>(
        &mut self,
        mask: &EpochMask,
        rows: impl IntoIterator<Item = (u32, &'r [RowEdge])>,
        mut f: impl FnMut(u32, u32, Option<f64>, Option<f64>, bool),
    ) {
        let mut new_row: Vec<CachedEdge> = Vec::new();
        let mut new_side: Vec<Side> = Vec::new();
        for (d, emitted) in rows {
            let di = d as usize;
            // The old row leaves the table while the mirrors are written:
            // no mirror lands on the row being spliced.
            let mut old = std::mem::take(&mut self.rows[di]);
            let mut old_side = self.side.as_mut().map(|side| std::mem::take(&mut side[di]));
            new_row.clear();
            new_side.clear();
            walk_row(d, mask, &old, emitted, |step| match step {
                RowStep::Kept(i) => {
                    new_row.push(old[i]);
                    new_side.push(Self::side_of(&old[i], old_side.as_deref(), i));
                }
                RowStep::Emitted(prev, &(a, b, w, acc)) => {
                    let v = if a == d { b } else { a };
                    let retained = prev.is_some_and(|i| old[i].retained());
                    f(a, b, prev.map(|i| old[i].w), Some(w), retained);
                    let entry = CachedEdge::new(v, w, &acc, retained);
                    let side = (acc.entropy_sum, acc.arcs);
                    new_row.push(entry);
                    new_side.push(side);
                    self.write_mirror(v, CachedEdge { v: d, ..entry }, side);
                }
                RowStep::Died(i) => {
                    let v = old[i].v;
                    f(d.min(v), d.max(v), Some(old[i].w), None, old[i].retained());
                    self.remove_mirror(v, d);
                }
            });
            old.clear();
            fit(&mut old, new_row.len());
            old.extend_from_slice(&new_row);
            self.rows[di] = old;
            // A mirror write may have promoted the side rows mid-splice;
            // `new_side` holds every entry's pair either way.
            if let Some(side) = &mut self.side {
                let mut row = old_side.take().unwrap_or_default();
                row.clear();
                fit(&mut row, new_side.len());
                row.extend_from_slice(&new_side);
                side[di] = row;
            }
        }
    }

    /// Writes the mirror `entry` (its neighbour `entry.v` is the node being
    /// spliced) into row `x`: in place if the edge is cached, inserted
    /// otherwise. The entry carries the retention bit the owner's old entry
    /// held, which is the bit the mirror holds.
    fn write_mirror(&mut self, x: u32, entry: CachedEdge, side: Side) {
        let bits = |(entropy_sum, arcs): Side| (entropy_sum.to_bits(), arcs.to_bits());
        if self.side.is_none() && bits(side) != bits(Self::derived(&entry)) {
            self.promote_side();
        }
        let row = &mut self.rows[x as usize];
        let side_row = self.side.as_mut().map(|s| &mut s[x as usize]);
        // Past the row's last entry — every mirror of a full-tier splice
        // into a row that holds nothing beyond the spliced node — is a
        // push.
        let at = match row.last() {
            Some(last) if last.v >= entry.v => row.binary_search_by_key(&entry.v, |e| e.v),
            _ => Err(row.len()),
        };
        match at {
            Ok(i) => {
                debug_assert_eq!(row[i].retained(), entry.retained(), "mirrors agree");
                row[i] = entry;
                if let Some(side_row) = side_row {
                    side_row[i] = side;
                }
            }
            Err(i) => {
                fit(row, row.len() + 1);
                row.insert(i, entry);
                if let Some(side_row) = side_row {
                    fit(side_row, side_row.len() + 1);
                    side_row.insert(i, side);
                }
            }
        }
    }

    /// Removes the entry for neighbour `y` from row `x`.
    fn remove_mirror(&mut self, x: u32, y: u32) {
        let row = &mut self.rows[x as usize];
        let found = row.binary_search_by_key(&y, |e| e.v);
        debug_assert!(found.is_ok(), "rows must mirror: ({x}, {y})");
        if let Ok(i) = found {
            row.remove(i);
            let len = row.len();
            fit(row, len);
            if let Some(side) = &mut self.side {
                let side = &mut side[x as usize];
                side.remove(i);
                fit(side, len);
            }
        }
    }

    /// Streams node `u`'s cached adjacency in **row orientation** —
    /// `f(v, weigher.weight(ctx, u, v, acc))`, ascending neighbours. Batch
    /// node passes weigh each edge from the row owner's side, and weights
    /// are *not* bitwise orientation-symmetric (float rounding of the EJS
    /// /χ² factor products), so the reweigh tier re-derives per-node
    /// artefacts the same way. The cached accumulator itself *is*
    /// orientation-symmetric (same shared blocks, ascending slot order
    /// from either endpoint), which is what makes this bit-identical to a
    /// scratch pass.
    pub fn for_each_node_weight(
        &self,
        u: u32,
        ctx: &GraphSnapshot,
        weigher: &dyn EdgeWeigher,
        mut f: impl FnMut(u32, f64),
    ) {
        let (row, side) = self.row(u);
        for (i, entry) in row.iter().enumerate() {
            f(
                entry.v,
                weigher.weight(ctx, u, entry.v, &Self::accum(entry, side, i)),
            );
        }
    }

    /// The **reweigh tier's** sweep: re-derives the weight of every edge
    /// with *no* marked endpoint from its cached accumulator and the
    /// current snapshot statistics (the marked edges' fresh weights arrive
    /// through [`EdgeAdjacency::splice`] instead). No block is traversed;
    /// bit-identity to a batch re-weighting follows from the
    /// factored-weight contract.
    ///
    /// Each node rewrites its own row in place: every entry to an unmarked
    /// neighbour gets the edge's canonical-orientation weight
    /// `weight(ctx, min, max, acc)`. Both mirrors of an edge compute it from
    /// the same accumulator bits, so they get the same bits, and no row is
    /// ever written by another node's pass. Rows are handed out in chunks
    /// of [`chunk_len`] on the work-stealing scheduler, each chunk claimed
    /// once. A weigher with a per-endpoint [`EdgeWeigher::factoring`]
    /// (ECBS, EJS) has each node's factor computed once, and a weight costs
    /// `(local · f_min) · f_max`, bit-equal to `weight()`; any other weigher
    /// (χ², custom ones) calls `weight()` per entry.
    ///
    /// With `keep_old`, the returned [`Sweep`] carries the pre-sweep weight
    /// of every restated edge, per row chunk, for
    /// [`EdgeAdjacency::for_each_swept`].
    pub fn reweigh_clean(
        &mut self,
        ctx: &GraphSnapshot,
        weigher: &dyn EdgeWeigher,
        mask: &EpochMask,
        threads: usize,
        keep_old: bool,
    ) -> Sweep {
        let n = self.rows.len();
        let chunk = chunk_len(n);
        let factoring = weigher.factoring();
        // Each node's factor, once per commit (an isolated node's is never
        // read).
        let factors: Vec<f64> = match factoring {
            Some(f) => {
                let rows = &self.rows;
                parallel_work_steal(
                    n,
                    threads,
                    chunk,
                    || (),
                    |_, range| {
                        range
                            .map(|u| {
                                if rows[u].is_empty() {
                                    0.0
                                } else {
                                    f.factor(ctx, u as u32)
                                }
                            })
                            .collect::<Vec<f64>>()
                    },
                )
                .concat()
            }
            None => Vec::new(),
        };
        let Self { rows, side } = self;
        let side = side.as_deref();
        // Each chunk is claimed exactly once, so no lock is ever contended
        // or found poisoned: the mutex only hands its one worker the
        // chunk's rows.
        let cells: Vec<Mutex<&mut [Vec<CachedEdge>]>> =
            rows.chunks_mut(chunk).map(Mutex::new).collect();
        let parts = parallel_work_steal(
            n,
            threads,
            chunk,
            || (),
            |_, range| {
                let Some(cell) = cells.get(range.start / chunk) else {
                    return SweepPart::default(); // no rows at all
                };
                let mut rows = cell.lock().unwrap_or_else(PoisonError::into_inner);
                let rows = (range.start as u32..).zip(rows.iter_mut());
                match factoring {
                    Some(f) => sweep_rows(rows, side, mask, keep_old, |a, b, acc| {
                        f.local(ctx, a, b, acc) * factors[a as usize] * factors[b as usize]
                    }),
                    None => sweep_rows(rows, side, mask, keep_old, |a, b, acc| {
                        weigher.weight(ctx, a, b, acc)
                    }),
                }
            },
        );
        let mut sweep = Sweep {
            chunk,
            ..Sweep::default()
        };
        for part in parts {
            sweep.swept += part.swept;
            sweep.rekeyed += part.rekeyed;
            if keep_old {
                sweep.old.push(part.old);
            }
        }
        sweep
    }

    /// Visits every edge a [`EdgeAdjacency::reweigh_clean`] run with
    /// `keep_old` restated, as canonical `(u, v, old w, new w)` ascending —
    /// the old weight read off the sweep's per-chunk output, the new one
    /// off the rows. `mask` must mark what it marked then, and no entry
    /// between two unmarked nodes may have moved since (a splice under the
    /// same mask moves none).
    pub fn for_each_swept(
        &self,
        sweep: &Sweep,
        mask: &EpochMask,
        mut f: impl FnMut(u32, u32, f64, f64),
    ) {
        for (c, old) in sweep.old.iter().enumerate() {
            let start = c * sweep.chunk;
            let end = (start + sweep.chunk).min(self.rows.len());
            let swept = (start as u32..end as u32)
                .filter(|&u| !mask.contains(u))
                .flat_map(|u| {
                    self.rows[u as usize]
                        .iter()
                        .filter(move |e| u < e.v && !mask.contains(e.v))
                        .map(move |e| (u, e.v, e.w))
                });
            for ((u, v, nw), &ow) in swept.zip(old) {
                f(u, v, ow, nw);
            }
        }
    }
}

/// Sizes `row` for `len` entries: a row that must grow gets a quarter of
/// its new length as slack, not the doubling `Vec` would give it, and a row
/// left with more than half its length spare is cut back to a quarter. The
/// rows are the cache's bulk, and most grow or shrink a few entries at a
/// time.
fn fit<T>(row: &mut Vec<T>, len: usize) {
    if row.capacity() < len {
        row.reserve_exact(len + len / 4 - row.len());
    } else if row.capacity() > len + len / 2 + 4 {
        row.shrink_to(len + len / 4);
    }
}

/// What one [`EdgeAdjacency::reweigh_clean`] did.
#[derive(Debug, Default)]
pub struct Sweep {
    /// Edges restated (each once, not once per mirror).
    pub swept: usize,
    /// Restated edges whose weight bits moved.
    pub rekeyed: usize,
    /// Rows per chunk of the sweep.
    chunk: usize,
    /// Per row chunk, with `keep_old`: the pre-sweep weight of every
    /// restated edge a row of the chunk owns (`u < v`), in row order.
    old: Vec<Vec<f64>>,
}

/// One row chunk's share of a [`Sweep`].
#[derive(Debug, Default)]
struct SweepPart {
    swept: usize,
    rekeyed: usize,
    old: Vec<f64>,
}

/// Restates the unmarked entries of one chunk's rows in place —
/// `rows` yields `(u, row u)` — each to `weigh(min, max, acc)`, the
/// canonical orientation; an owned entry (`u < v`) counts the edge once.
fn sweep_rows<'a>(
    rows: impl Iterator<Item = (u32, &'a mut Vec<CachedEdge>)>,
    side: Option<&[Vec<Side>]>,
    mask: &EpochMask,
    keep_old: bool,
    weigh: impl Fn(u32, u32, &EdgeAccum) -> f64,
) -> SweepPart {
    let mut part = SweepPart::default();
    for (u, row) in rows {
        if mask.contains(u) {
            continue;
        }
        for (i, e) in row.iter_mut().enumerate() {
            if mask.contains(e.v) {
                continue;
            }
            let acc = EdgeAdjacency::accum(e, side.map(|side| side[u as usize].as_slice()), i);
            let w = if u < e.v {
                let w = weigh(u, e.v, &acc);
                part.swept += 1;
                part.rekeyed += usize::from(w.to_bits() != e.w.to_bits());
                if keep_old {
                    part.old.push(e.w);
                }
                w
            } else {
                weigh(e.v, u, &acc)
            };
            e.w = w;
        }
    }
    part
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    impl EdgeAdjacency {
        /// Every row entry, mirrors included, as `(row, neighbour, weight,
        /// accumulator)` in row order.
        pub(crate) fn entries(&self) -> Vec<(u32, u32, f64, EdgeAccum)> {
            let mut out = Vec::new();
            for (u, row) in (0u32..).zip(&self.rows) {
                for (i, e) in row.iter().enumerate() {
                    out.push((u, e.v, e.w, self.acc_at(u as usize, i)));
                }
            }
            out
        }

        /// The accumulator of entry `i` on row `u`.
        fn acc_at(&self, u: usize, i: usize) -> EdgeAccum {
            let (row, side) = self.row(u as u32);
            Self::accum(&row[i], side, i)
        }
    }

    fn mask_of(n: usize, marked: &[u32]) -> EpochMask {
        let mut m = EpochMask::new();
        m.begin(n);
        for &u in marked {
            m.mark(u);
        }
        m
    }

    /// Every live edge once, canonical and ascending.
    fn all_edges(adj: &EdgeAdjacency) -> Vec<(u32, u32, f64)> {
        let mut out = Vec::new();
        adj.for_each_edge(|u, v, w| out.push((u, v, w)));
        out
    }

    /// `(u, v, w)` edges with an empty accumulator.
    fn edges(list: &[(u32, u32, f64)]) -> Vec<RowEdge> {
        list.iter()
            .map(|&(u, v, w)| (u, v, w, EdgeAccum::default()))
            .collect()
    }

    /// The emitted rows of `nodes` (ascending) under `mask`, cut out of
    /// the canonical `edges` by the splice's ownership rule: a node owns
    /// its edges to larger neighbours and to unmarked smaller ones.
    pub(crate) fn rows_of(
        nodes: &[u32],
        mask: &EpochMask,
        edges: &[RowEdge],
    ) -> Vec<(u32, Vec<RowEdge>)> {
        nodes
            .iter()
            .map(|&d| {
                let mut row: Vec<RowEdge> = edges
                    .iter()
                    .filter(|e| e.0 == d || (e.1 == d && !mask.contains(e.0)))
                    .copied()
                    .collect();
                row.sort_by_key(|e| if e.0 == d { e.1 } else { e.0 });
                (d, row)
            })
            .collect()
    }

    /// Splices `rows` under `mask`, returning the reported events.
    fn splice(
        adj: &mut EdgeAdjacency,
        mask: &EpochMask,
        rows: &[(u32, Vec<RowEdge>)],
    ) -> Vec<(u32, u32, Option<f64>, Option<f64>)> {
        splice_bits(adj, mask, rows)
            .into_iter()
            .map(|(u, v, ow, nw, _)| (u, v, ow, nw))
            .collect()
    }

    /// One splice event: `(u, v, old w, new w, old retention bit)`.
    type Event = (u32, u32, Option<f64>, Option<f64>, bool);

    /// [`splice`] with each event's old retention bit.
    fn splice_bits(
        adj: &mut EdgeAdjacency,
        mask: &EpochMask,
        rows: &[(u32, Vec<RowEdge>)],
    ) -> Vec<Event> {
        let mut events = Vec::new();
        adj.splice(
            mask,
            rows.iter().map(|(d, row)| (*d, row.as_slice())),
            |u, v, ow, nw, kept| events.push((u, v, ow, nw, kept)),
        );
        events
    }

    /// An adjacency over `n` nodes holding `edges`, spliced in as the full
    /// tier does: every node marked, every row spliced.
    pub(crate) fn loaded(n: usize, edges: &[RowEdge]) -> EdgeAdjacency {
        let mut adj = EdgeAdjacency::new();
        adj.ensure_nodes(n);
        let all: Vec<u32> = (0..n as u32).collect();
        let mut full = mask_of(n, &[]);
        full.mark_all();
        let events = splice(&mut adj, &full, &rows_of(&all, &full, edges));
        assert!(events.iter().all(|e| e.2.is_none()), "births only");
        assert_eq!(events.len(), edges.len());
        adj
    }

    /// A splice of two dirty rows, 1 and 2: on row 1 a clean smaller
    /// neighbour's edge `(0, 1)` and the dirty–dirty edge `(1, 2)` reweigh
    /// (row 1 owns both); on row 2 the dirty–dirty entry stands as row 1
    /// wrote it, `(2, 3)` vanishes and `(2, 4)` appears. The clean rows 0,
    /// 3 and 4 take the mirrors, and the clean–clean `(0, 3)` is untouched.
    #[test]
    fn adjacency_patches_dirty_region() {
        let mut adj = loaded(
            5,
            &edges(&[(0, 1, 1.0), (0, 3, 2.0), (1, 2, 3.0), (2, 3, 4.0)]),
        );
        let mask = mask_of(5, &[1, 2]);
        let now = edges(&[(0, 1, 10.0), (0, 3, 2.0), (1, 2, 30.0), (2, 4, 50.0)]);
        let rows = rows_of(&[1, 2], &mask, &now);
        assert_eq!(
            rows.iter()
                .map(|(d, row)| (*d, row.iter().map(|e| (e.0, e.1)).collect()))
                .collect::<Vec<(u32, Vec<(u32, u32)>)>>(),
            vec![(1, vec![(0, 1), (1, 2)]), (2, vec![(2, 4)])],
            "the dirty–dirty edge is emitted by its smaller endpoint"
        );
        let want = vec![
            (0, 1, Some(1.0), Some(10.0)),
            (1, 2, Some(3.0), Some(30.0)),
            (2, 3, Some(4.0), None),
            (2, 4, None, Some(50.0)),
        ];
        // The read-only diff reports the same events, rows untouched.
        let mut diffed = Vec::new();
        for (d, row) in &rows {
            adj.diff_row(*d, &mask, row, |u, v, ow, nw| diffed.push((u, v, ow, nw)));
        }
        assert_eq!(diffed, want);
        assert_eq!(
            all_edges(&adj),
            vec![(0, 1, 1.0), (0, 3, 2.0), (1, 2, 3.0), (2, 3, 4.0)]
        );

        assert_eq!(splice(&mut adj, &mask, &rows), want);
        assert_eq!(
            all_edges(&adj),
            vec![(0, 1, 10.0), (0, 3, 2.0), (1, 2, 30.0), (2, 4, 50.0)]
        );
        let entries: Vec<(u32, u32, f64)> = adj.entries().iter().map(|e| (e.0, e.1, e.2)).collect();
        assert_eq!(
            entries,
            vec![
                (0, 1, 10.0),
                (0, 3, 2.0),
                (1, 0, 10.0),
                (1, 2, 30.0),
                (2, 1, 30.0),
                (2, 4, 50.0),
                (3, 0, 2.0),
                (4, 2, 50.0),
            ],
            "every mirror written, the dead one removed"
        );
        assert_eq!(adj.live_edges(), 4);

        // Splicing the same rows again reweighs in place and reports no
        // birth or death.
        let again = splice(&mut adj, &mask, &rows);
        assert!(again.iter().all(|e| e.2.is_some() && e.3.is_some()));
        assert_eq!(adj.entries().len(), entries.len());
    }

    /// A snapshot over `profiles` nodes whose |B| is `blocks` — the one
    /// global the test weighers read.
    fn snap(blocks: usize, profiles: u32) -> GraphSnapshot {
        snap_of((0..blocks).map(|_| vec![0, 1]).collect(), profiles)
    }

    /// A dirty snapshot over `profiles` nodes with the given blocks.
    fn snap_of(blocks: Vec<Vec<u32>>, profiles: u32) -> GraphSnapshot {
        use blast_blocking::block::Block;
        use blast_blocking::collection::BlockCollection;
        use blast_blocking::key::ClusterId;
        use blast_datamodel::entity::ProfileId;

        let b = blocks
            .into_iter()
            .enumerate()
            .map(|(i, members)| {
                Block::new(
                    format!("b{i}"),
                    ClusterId::GLUE,
                    members.into_iter().map(ProfileId).collect(),
                    u32::MAX,
                )
            })
            .collect();
        GraphSnapshot::build(&BlockCollection::new(b, false, profiles, profiles))
    }

    /// Every row entry, mirrors included, as `(row, neighbour, weight
    /// bits)`.
    fn all_entries(adj: &EdgeAdjacency) -> Vec<(u32, u32, u64)> {
        let mut out = Vec::new();
        for u in 0..adj.rows.len() as u32 {
            out.extend(adj.decisions(u).map(|(v, w, _)| (u, v, w.to_bits())));
        }
        out
    }

    /// The edges a sweep restated, `(u, v, old w, new w)`.
    fn swept_of(adj: &EdgeAdjacency, sweep: &Sweep, mask: &EpochMask) -> Vec<(u32, u32, f64, f64)> {
        let mut out = Vec::new();
        adj.for_each_swept(sweep, mask, |u, v, ow, nw| out.push((u, v, ow, nw)));
        out
    }

    /// The reweigh sweep re-derives clean weights from cached accumulators
    /// and the *current* snapshot globals, skipping masked edges.
    #[test]
    fn reweigh_clean_rederives_from_cache() {
        // Weight = |B| · common_blocks: a pure (global × local) factoring.
        struct TimesTotalBlocks;
        impl EdgeWeigher for TimesTotalBlocks {
            fn weight(&self, ctx: &GraphSnapshot, _: u32, _: u32, acc: &EdgeAccum) -> f64 {
                ctx.total_blocks() as f64 * acc.common_blocks as f64
            }
        }

        let acc = EdgeAccum {
            common_blocks: 3,
            ..EdgeAccum::default()
        };
        let mut adj = loaded(4, &[(0, 1, 3.0, acc), (2, 3, 3.0, acc)]);
        // |B| drifts 1 → 2: the clean edge re-derives to 6; the masked
        // edge (2,3) is left for the splice.
        let mask = mask_of(4, &[2]);
        let sweep = adj.reweigh_clean(&snap(2, 4), &TimesTotalBlocks, &mask, 1, true);
        assert_eq!((sweep.swept, sweep.rekeyed), (1, 1));
        assert_eq!(swept_of(&adj, &sweep, &mask), vec![(0, 1, 3.0, 6.0)]);
        assert_eq!(
            all_edges(&adj),
            vec![(0, 1, 6.0), (2, 3, 3.0)],
            "cache weight updated in place; masked edge untouched"
        );
        assert_eq!(adj.weight(1, 0), Some(6.0), "the mirror too");
        // Node-orientation artefact read: same weigher, row side first.
        let mut seen = Vec::new();
        adj.for_each_node_weight(1, &snap(2, 4), &TimesTotalBlocks, |v, w| seen.push((v, w)));
        assert_eq!(seen, vec![(0, 6.0)]);
    }

    /// The in-place sweep is bit-identical to the serial reference — same
    /// swept sequence (order included), same rows, mirrors included — at
    /// every thread count, over a row range that is not a multiple of the
    /// chunk: for a weigher that only has `weight()` and for the factored
    /// ECBS and EJS, whose per-node factors the sweep computes once (node
    /// 0 is in every block: its ECBS factor is ln 1 = 0).
    #[test]
    fn reweigh_clean_matches_serial_reference_bitwise() {
        struct TimesTotalBlocks;
        impl EdgeWeigher for TimesTotalBlocks {
            fn weight(&self, ctx: &GraphSnapshot, u: u32, v: u32, acc: &EdgeAccum) -> f64 {
                ctx.total_blocks() as f64 * acc.common_blocks as f64 / (1.0 + (u + v) as f64)
            }
        }
        use blast_graph::weights::WeightingScheme;

        // A deterministic pseudo-random graph over 101 nodes: four chunks
        // of the sweep's geometry, the last one short.
        let n = 101u32;
        assert!((n as usize).div_ceil(chunk_len(n as usize)) >= 3);
        assert_ne!(n as usize % chunk_len(n as usize), 0);
        let mut edges = Vec::new();
        let mut x = 0x9e37u64;
        for u in 0..n {
            for step in 1..6u32 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = u + 1 + (x >> 33) as u32 % (step * 7 + 1);
                if v < n {
                    let acc = EdgeAccum {
                        common_blocks: 1 + (x % 5) as u32,
                        ..EdgeAccum::default()
                    };
                    edges.push((u, v, 1.0, acc));
                }
            }
        }
        edges.sort_unstable_by_key(|e| (e.0, e.1));
        edges.dedup_by_key(|e| (e.0, e.1));
        let mask = mask_of(n as usize, &[7, 20, 33, 64, 100]);
        // Twelve blocks of varied sizes: every node is in at least one,
        // node 0 in all of them.
        let mut ctx = snap_of(
            (0..12u32)
                .map(|i| {
                    (0..128)
                        .filter(|u| u % (i + 2) == 0 || u % 13 == i)
                        .collect()
                })
                .collect(),
            128,
        );
        ctx.ensure_degrees();

        let weighers: [&dyn EdgeWeigher; 3] = [
            &TimesTotalBlocks,
            &WeightingScheme::Ecbs,
            &WeightingScheme::Ejs,
        ];
        for weigher in weighers {
            let label = weigher.name();
            assert_eq!(
                weigher.factoring().is_some(),
                label != "custom",
                "{label}: both sweep kinds run"
            );
            let mut serial = loaded(n as usize, &edges);
            let expected = reference::reweigh_clean(&mut serial, &ctx, weigher, &mask);
            let expected_rows = all_entries(&serial);
            let moved = expected
                .iter()
                .filter(|&&(_, _, ow, nw)| ow.to_bits() != nw.to_bits())
                .count();
            assert!(moved > 0, "{label}: the sweep moves weights");

            for threads in [1usize, 2, 8] {
                let mut adj = loaded(n as usize, &edges);
                let sweep = adj.reweigh_clean(&ctx, weigher, &mask, threads, true);
                let swept = swept_of(&adj, &sweep, &mask);
                let bits = |l: &[(u32, u32, f64, f64)]| -> Vec<(u32, u32, u64, u64)> {
                    l.iter()
                        .map(|&(u, v, ow, nw)| (u, v, ow.to_bits(), nw.to_bits()))
                        .collect()
                };
                assert_eq!(bits(&swept), bits(&expected), "{label} threads={threads}");
                assert_eq!(
                    (sweep.swept, sweep.rekeyed),
                    (expected.len(), moved),
                    "{label} threads={threads}"
                );
                assert_eq!(
                    all_entries(&adj),
                    expected_rows,
                    "{label} threads={threads}: rows, mirrors included"
                );
            }
        }
    }

    /// The serial scan the parallel sweep must reproduce bit-for-bit.
    mod reference {
        use super::super::*;

        /// The reweigh sweep as one pass in row order: each clean edge
        /// weighed once, in canonical orientation, and each moved weight
        /// patched into both mirrors as it is met.
        pub fn reweigh_clean(
            adj: &mut EdgeAdjacency,
            ctx: &GraphSnapshot,
            weigher: &dyn EdgeWeigher,
            mask: &EpochMask,
        ) -> Vec<(u32, u32, f64, f64)> {
            let mut swept: Vec<(u32, u32, f64, f64)> = Vec::new();
            for u in 0..adj.rows.len() as u32 {
                let u_marked = mask.contains(u);
                for i in 0..adj.rows[u as usize].len() {
                    let e = adj.rows[u as usize][i];
                    if e.v <= u || u_marked || mask.contains(e.v) {
                        continue;
                    }
                    let acc = adj.acc_at(u as usize, i);
                    let nw = weigher.weight(ctx, u, e.v, &acc);
                    swept.push((u, e.v, e.w, nw));
                    if nw.to_bits() != e.w.to_bits() {
                        adj.rows[u as usize][i].w = nw;
                        let row = &mut adj.rows[e.v as usize];
                        let j = row
                            .binary_search_by_key(&u, |m| m.v)
                            .expect("rows must mirror");
                        row[j].w = nw;
                    }
                }
            }
            swept
        }
    }

    /// The packed layout is 16 bytes and the side rows appear only when a
    /// spliced accumulator actually carries a non-derived entropy tally or
    /// ARCS sum — and the promotion is lossless: accumulators cached
    /// before the promotion read back bit-identical afterwards, including
    /// those of the row whose splice is under way when a mirror write
    /// promotes.
    #[test]
    fn packed_entries_promote_entropy_losslessly() {
        assert_eq!(std::mem::size_of::<CachedEdge>(), 16);
        // Derived pair: entropy_sum ≡ common_blocks as f64, no ARCS sum →
        // no side rows.
        let plain = EdgeAccum {
            common_blocks: 3,
            arcs: 0.0,
            entropy_sum: 3.0,
        };
        let other = EdgeAccum {
            common_blocks: 1,
            arcs: 0.0,
            entropy_sum: 1.0,
        };
        let mut adj = loaded(4, &[(0, 1, 1.5, plain)]);
        assert!(adj.side.is_none(), "derived pairs stay packed");
        assert_eq!(adj.acc_at(0, 0), plain, "reconstructed bit-identical");
        assert_eq!(adj.live_edges(), 1);
        assert_eq!(adj.cached_accumulators(), 2);
        assert!(adj.resident_bytes() > 0);

        // Rows 0 and 2 spliced: row 0 adds the derived `(0, 2)`; then row
        // 2 keeps that entry and adds the entropic `(2, 3)`, whose mirror
        // write promotes while row 2 is out of the table.
        let entropic = EdgeAccum {
            common_blocks: 2,
            arcs: 0.0,
            entropy_sum: 1.375,
        };
        let mask = mask_of(4, &[0, 2]);
        let now = [
            (0, 1, 1.5, plain),
            (0, 2, 2.5, other),
            (2, 3, 2.0, entropic),
        ];
        splice(&mut adj, &mask, &rows_of(&[0, 2], &mask, &now));
        assert!(adj.side.is_some(), "non-derived tally promotes");
        let accs = |adj: &EdgeAdjacency| -> Vec<(u32, u32, EdgeAccum)> {
            adj.entries().iter().map(|e| (e.0, e.1, e.3)).collect()
        };
        assert_eq!(
            accs(&adj),
            vec![
                (0, 1, plain),
                (0, 2, other),
                (1, 0, plain),
                (2, 0, other),
                (2, 3, entropic),
                (3, 2, entropic),
            ]
        );

        // Row 3 reweighs `(2, 3)` in place with a fresh accumulator (row 3
        // owns it: 2 is unmarked) and row 1 loses `(0, 1)`.
        let moved = EdgeAccum {
            common_blocks: 4,
            arcs: 1.25,
            entropy_sum: 2.5,
        };
        let mask = mask_of(4, &[1, 3]);
        let now = [(0, 2, 2.5, other), (2, 3, 9.0, moved)];
        let events = splice(&mut adj, &mask, &rows_of(&[1, 3], &mask, &now));
        assert_eq!(
            events,
            vec![(0, 1, Some(1.5), None), (2, 3, Some(2.0), Some(9.0))]
        );
        assert_eq!(
            accs(&adj),
            vec![(0, 2, other), (2, 0, other), (2, 3, moved), (3, 2, moved)]
        );
        assert_eq!(adj.live_edges(), 2);

        // An ARCS sum alone promotes too.
        let arcs = EdgeAccum {
            common_blocks: 2,
            arcs: 0.75,
            entropy_sum: 2.0,
        };
        let adj = loaded(3, &[(0, 1, 1.0, plain), (1, 2, 1.0, arcs)]);
        assert!(adj.side.is_some(), "a non-zero ARCS sum promotes");
        assert_eq!(
            accs(&adj),
            vec![(0, 1, plain), (1, 0, plain), (1, 2, arcs), (2, 1, arcs)]
        );
    }

    /// The retention bit lives beside the block count without touching it,
    /// on both mirrors: a splice carries it over on every surviving edge,
    /// whether the row's own splice or a neighbour's mirror write rewrites
    /// the entry, reports it on a death, and starts a birth without it.
    #[test]
    fn retention_bits_survive_splices() {
        let acc = |blocks| EdgeAccum {
            common_blocks: blocks,
            arcs: 0.0,
            entropy_sum: blocks as f64,
        };
        let mut adj = loaded(
            5,
            &[
                (0, 1, 1.0, acc(1)),
                (1, 2, 2.0, acc(2)),
                (2, 3, 3.0, acc(3)),
            ],
        );
        for (a, b) in [(0, 1), (1, 2), (3, 2)] {
            adj.set_retained(a, b, true);
        }
        let retained = |adj: &EdgeAdjacency| {
            let mut out = Vec::new();
            adj.for_each_retained(|u, v| out.push((u, v)));
            out
        };
        assert_eq!(retained(&adj), vec![(0, 1), (1, 2), (2, 3)]);
        let bits = |adj: &EdgeAdjacency| -> Vec<(u32, u32, bool)> {
            (0..5)
                .flat_map(|u| adj.decisions(u).map(move |(v, _, r)| (u, v, r)))
                .collect()
        };

        // Rows 1 and 2 marked: row 1 reweighs `(0, 1)` (a mirror write into
        // clean row 0) and `(1, 2)`; row 2 keeps `(1, 2)` as row 1 wrote
        // it, loses the retained `(2, 3)` and gains `(2, 4)`.
        let mask = mask_of(5, &[1, 2]);
        let now = [
            (0, 1, 5.0, acc(4)),
            (1, 2, 6.0, acc(5)),
            (2, 4, 7.0, acc(1)),
        ];
        let events = splice_bits(&mut adj, &mask, &rows_of(&[1, 2], &mask, &now));
        assert_eq!(
            events,
            vec![
                (0, 1, Some(1.0), Some(5.0), true),
                (1, 2, Some(2.0), Some(6.0), true),
                (2, 3, Some(3.0), None, true),
                (2, 4, None, Some(7.0), false),
            ]
        );
        assert_eq!(
            bits(&adj),
            vec![
                (0, 1, true),
                (1, 0, true),
                (1, 2, true),
                (2, 1, true),
                (2, 4, false),
                (4, 2, false),
            ]
        );
        assert_eq!(retained(&adj), vec![(0, 1), (1, 2)]);
        let blocks: Vec<u32> = adj.entries().iter().map(|e| e.3.common_blocks).collect();
        assert_eq!(blocks, vec![4, 4, 5, 5, 1, 1], "the bit never leaks");

        // A clean row's splice rewrites the mirror in a marked-free commit:
        // row 0 owns `(0, 1)` now that 1 is unmarked.
        adj.set_retained(1, 2, false);
        let mask = mask_of(5, &[0]);
        splice(
            &mut adj,
            &mask,
            &rows_of(&[0], &mask, &[(0, 1, 8.0, acc(4))]),
        );
        assert_eq!(retained(&adj), vec![(0, 1)], "both mirrors keep the bit");
        assert_eq!(adj.weight(1, 0), Some(8.0));
    }
}
