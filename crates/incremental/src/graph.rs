//! Dirty-neighbourhood meta-blocking repair, organised as a **three-tier
//! repair ladder**.
//!
//! After a micro-batch, most of the blocking graph is untouched: an edge's
//! accumulator changes only through a block that contains *both* endpoints,
//! and such blocks make both endpoints graph-dirty. The repair therefore
//! re-accumulates edge weights **only** for the dirty nodes on the dense
//! scratch engine — in a single traversal of their blocks — recomputes
//! per-node pruning artefacts (thresholds, top-k lists) only where an edge
//! they fold over moved, and takes the pruning *decisions* incrementally
//! too. A commit lands on one of three tiers ([`RepairTier`]), chosen by
//! what actually moved:
//!
//! 1. **Dirty** — no global statistic any weight reads moved: the
//!    dirty-neighbourhood pass. Block reads, the cache patch and the
//!    node-centric decisions follow the changed rows; WEP/CEP still restate
//!    their frontier from every cached row (O(|E|), see below).
//! 2. **Reweigh** — a *global scalar* drifted (|B| for χ²/ECBS; degrees /
//!    |E_G| for EJS — any edge birth or death; the per-node top-k budget
//!    for CNP) but nothing structural
//!    happened outside the dirty neighbourhood. Every weight is a pure function of its cached
//!    per-edge accumulator plus O(1) snapshot statistics (the
//!    factored-weight contract of [`EdgeWeigher`]), so the clean edges are
//!    **re-derived from the cache** ([`EdgeAdjacency::reweigh_clean`]) —
//!    no block traversal, no quadratic re-accumulation: an O(|E|) sweep in
//!    which each node rewrites its own row in place, with per-node factors
//!    computed once where the weigher factors per endpoint (ECBS, EJS) —
//!    and the decision stage decides every swept edge explicitly. EJS never
//!    forces a full pass: node degrees are a delta-maintained field of
//!    [`GraphSnapshot`], patched from the births and deaths of the dirty
//!    rows ([`EdgeAdjacency::diff_row`]; exact integer removal) before any
//!    of their weights is computed. Neither does
//!    CNP: a budget move re-derives every top-k list from the cached
//!    adjacency rows and judges the changed pairs through the ordinary
//!    list-diff machinery — no block traversal.
//! 3. **Full** — genuinely structural invalidation only: the first pass
//!    (nothing cached yet) or an explicit
//!    [`IncrementalMetaBlocker::force_full_next`].
//!    Runs the **identical flip-emitting code path** with every node
//!    marked: every row is spliced.
//!
//! ## The accumulate stage: one traversal, row by row
//!
//! Tiers 1 and 3 re-read blocks, and they read each dirty node's blocks
//! **once** ([`touching_pass`]). The dirty nodes are visited ascending; one
//! adjacency load per node yields
//!
//! * the node's **artefact** — WNP's mean, BLAST's max/c, CNP's top-k —
//!   folded over the weights *as seen from the node*
//!   (`weight(ctx, node, v, acc)`), exactly as the batch node passes fold
//!   them; and
//! * the node's **emitted row**: the dirty-incident edges it owns — to a
//!   larger neighbour, or to an unmarked smaller one — ascending by
//!   neighbour, each weighed in canonical `(smaller, larger)` orientation
//!   as the batch edge pass weighs it. Every dirty-incident edge is in
//!   exactly one row; the rows stay per work-steal chunk, in CSR form.
//!
//! The two orientations are separate `weight()` calls and neither may stand
//! in for the other: a weigher that multiplies per-endpoint factors (ECBS,
//! EJS, χ²) gives `(c·a)·b` from one side and `(c·b)·a` from the other,
//! which differ in the last bit for about a fifth of ECBS edges — and
//! bit-identity with batch is the invariant. Every variant keeps an edge
//! cache, so the rows carry the accumulator too, and the cache takes each
//! row as a **row splice** ([`EdgeAdjacency::splice`]), dirty nodes
//! ascending: the node's cache row is rebuilt by merging its emitted
//! entries with its entries to marked smaller neighbours (whose splices ran
//! first and wrote them), the old entries of the edges it owns are read
//! during that merge, and each owned edge's mirror is written into the
//! neighbour's row. The splice reports every owned edge's old and new
//! weight, `None` for a birth or a death, and its old retention bit. No
//! list of all dirty-incident edges, old or fresh, is ever built or
//! sorted. Where no row is read before its splice — every variant but
//! WEP/CEP (whose frontier) and a degree-reading weigher (whose edge diff)
//! — the dirty set is accumulated and spliced a slice at a time, so a
//! structural pass never holds every edge's emitted entry beside the cache
//! it builds.
//!
//! Three cases take their artefacts from the **cache rows** instead
//! ([`EdgeAdjacency::for_each_node_weight`], once the rows are patched): a
//! degree-reading weigher (EJS), whose edge-existence diff must patch the
//! snapshot's degrees *between* accumulating and weighing — it takes
//! accumulators from the pass and weighs afterwards; the reweigh tier,
//! whose recompute set is every node, not just the traversed ones; and
//! edge-delta repair (below), whose recompute set reaches past the
//! traversed nodes to every node an accumulated edge reaches
//! ([`RepairStats::artefact_nodes`]). Every way a tier-1 commit performs
//! exactly `dirty_nodes` adjacency loads ([`RepairStats::scratch_loads`],
//! counted by the snapshot itself).
//!
//! ## The decision stage
//!
//! It runs on the structures of [`crate::decision`]:
//!
//! * **WEP / CEP** — the state between commits is the retention
//!   [`Frontier`] alone. Each commit restates the new frontier just before
//!   the cache patch, from the clean edges' rows and the pass's emitted
//!   rows: the mean via [`Wep::mean_from_sum`] over Σw accumulated exactly,
//!   or the rank-K key by `select_nth_unstable` over the live keys — both
//!   aggregates of the weight multiset, O(|E|). Every edge that can flip
//!   is then decided explicitly, old key against the old frontier and new
//!   key against the new one: the dirty-incident edges as the splice
//!   reports them, and the clean edges from the rows — with their old
//!   weights from the reweigh sweep's per-chunk output
//!   ([`EdgeAdjacency::for_each_swept`]), or, on the dirty tier, where a
//!   clean weight never moves and only a frontier move can flip one, as
//!   they stand. A `retained()` read filters the rows by the frontier.
//! * **WNP / BLAST** — per-node thresholds, overwritten for the recompute
//!   set from the artefacts above. The survivors are one bit of each cache
//!   entry, set on both mirrors, and the decision is row-local: a
//!   work-steal pass walks each recomputed node's patched cache row under
//!   the splice's ownership rule, deciding every pair at its canonical
//!   weight against the two thresholds and its bit (`join_row`). A
//!   retained pair that dies is retracted where the splice reports its
//!   death. Clean survivors are never visited, no list of all decided
//!   pairs is built, and only the flips are sorted and written back to the
//!   bits. A `retained()` read filters the rows by the bit.
//! * **CNP** — per-node top-k lists, replaced for the recompute set from
//!   the artefacts above. A pair's retention can move only where one of
//!   those nodes' lists changed, so the changed pairs are the list
//!   *diffs*, each judged once: its listing count under the old lists
//!   (the recompute set's, kept for the commit, and every clean node's,
//!   which did not move) against its count under the new ones. The
//!   candidate set itself is [`Cnp::retained_from_lists`] over the lists,
//!   on read.
//!
//! The [`PairDelta`] is emitted directly from the flips — there is no
//! full-set diff — and the flat [`RetainedPairs`] view is materialised
//! lazily on read, never on the commit path. The result remains
//! bit-identical to a from-scratch batch run on the final collection:
//!
//! * weights of edges between two clean nodes are unchanged bitwise on the
//!   dirty tier (same accumulator, same per-node statistics, same
//!   summation order), and re-derived through the *same* `weight()` method
//!   from bit-identical inputs on the reweigh tier;
//! * recomputed weights use the exact accumulation path of the batch pass;
//! * WEP's Θ is a function of the edge-weight *multiset* only (the exact
//!   accumulator of [`blast_graph::exact_sum::ExactSum`], shared with the
//!   batch pass), so the delta-maintained sum reproduces it bitwise;
//! * EJS degrees and |E_G| are integers maintained by exact ±1 deltas, so
//!   they equal a from-scratch [`GraphSnapshot::ensure_degrees`] pass
//!   bit-for-bit (pinned by `tests/degree_maintenance.rs`).
//!
//! ## Dirtiness: what is re-accumulated, and what is re-derived
//!
//! Dirtiness propagation is scheme-aware via [`EdgeWeigher::global_deps`].
//! An accumulator's `common_blocks` and `entropy_sum` move only where one
//! endpoint's cleaned block list moved (the cleaner's `lists_changed`: a
//! block gained or lost, a liveness flip included): two members that both
//! stay in a resized block keep them. Only ARCS's Σ 1/‖b‖
//! ([`blast_graph::weights::WeightDeps::block_sizes`]) moves for every
//! pair of a resized block's members. So every variant repairs
//! **edge-deltas** off its edge cache unless its weigher reads block
//! sizes:
//!
//! * the **accumulate-dirty** set is `lists_changed`. Only these rows are
//!   read from blocks ([`touching_pass`]), patched into the cache, and
//!   diffed for EJS's degree events;
//! * the **artefact-dirty** set is the rest of the cleaner's scope (the
//!   members of the changed blocks, whose edges to the list-changed nodes
//!   moved) plus, under a weigher reading per-node block counts (JS, χ²,
//!   ECBS, EJS), the co-members of every list-changed node — all of whose
//!   edge weights moved even where the accumulators did not. On the dirty
//!   tier their thresholds and top-k lists are re-derived from the patched
//!   cache rows (`cached_artefacts`), and the epoch mask grows to the
//!   whole recompute set before the row-local decision runs.
//!
//! A weigher that reads block sizes (ARCS, and every custom weigher by
//! default) keeps the wide dirty set: the cleaner's whole scope, all
//! re-accumulated, plus — for a weigher that also reads per-node block
//! counts — the co-members of the list-changed nodes, whose artefacts the
//! pass then recomputes from their full rows. Where no artefact can go
//! stale the expansion is skipped: WEP/CEP keep none, and a commit known to
//! reweigh before accumulating re-derives them all from the cache.

use crate::decision::{retained_under, EdgeAdjacency, EdgeKey, Frontier, RowEdge, Sweep};
use blast_core::pruning::BlastPruning;
use blast_datamodel::entity::ProfileId;
use blast_datamodel::parallel::{chunk_len, parallel_work_steal};
use blast_graph::context::{EdgeAccum, GraphSnapshot};
use blast_graph::exact_sum::ExactSum;
use blast_graph::meta::PruningAlgorithm;
use blast_graph::pruning::common::{touching_pass, EpochMask, TouchingPass};
use blast_graph::pruning::{cnp, Cep, Cnp, NodeCentricMode, Wep, Wnp};
use blast_graph::retained::RetainedPairs;
use blast_graph::weights::EdgeWeigher;
pub use blast_obs::{RepairStats, RepairTier};
use std::cell::OnceCell;
use std::time::Instant;

/// The pruning variant an incremental pipeline maintains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IncrementalPruning {
    /// One of the six traditional variants (wep, cep, wnp₁/₂, cnp₁/₂).
    Traditional(PruningAlgorithm),
    /// BLAST's pruning (θᵢ = Mᵢ/c, θᵢⱼ = (θᵢ+θⱼ)/d).
    Blast {
        /// Local threshold divisor.
        c: f64,
        /// Pair threshold divisor.
        d: f64,
    },
}

impl IncrementalPruning {
    /// BLAST pruning with the paper's constants (c = d = 2).
    pub fn blast() -> Self {
        IncrementalPruning::Blast { c: 2.0, d: 2.0 }
    }

    /// A short label for reports.
    pub fn label(&self) -> String {
        match self {
            IncrementalPruning::Traditional(a) => a.label().to_string(),
            IncrementalPruning::Blast { .. } => "blast".to_string(),
        }
    }

    /// The batch counterpart this variant must stay bit-identical to.
    pub fn batch_prune(&self, ctx: &GraphSnapshot, weigher: &dyn EdgeWeigher) -> RetainedPairs {
        match self {
            IncrementalPruning::Traditional(a) => a.prune(ctx, weigher),
            IncrementalPruning::Blast { c, d } => {
                BlastPruning::with_constants(*c, *d).prune(ctx, weigher)
            }
        }
    }
}

/// The candidate-pair delta one micro-batch produced.
#[derive(Debug, Clone, Default)]
pub struct PairDelta {
    /// Comparisons entering the candidate set (sorted, smaller id first).
    pub added: Vec<(ProfileId, ProfileId)>,
    /// The weight of each added comparison, parallel to `added`: the very
    /// `f64` the decision stage compared when it retained the pair
    /// (canonical smaller → larger orientation), not a later re-derivation.
    /// Read the two together through [`PairDelta::added_weighted`].
    pub added_weights: Vec<f64>,
    /// Comparisons leaving the candidate set (sorted, smaller id first).
    pub retracted: Vec<(ProfileId, ProfileId)>,
}

impl PairDelta {
    /// The delta of one repair pass, from its flips as the decision stage
    /// emitted them (each sorted by `(u, v)`).
    fn from_flips(added: Vec<(u32, u32, f64)>, retracted: Vec<(u32, u32)>) -> Self {
        let pair = |a: u32, b: u32| (ProfileId(a), ProfileId(b));
        let (added, added_weights): (Vec<_>, Vec<_>) =
            added.into_iter().map(|(a, b, w)| (pair(a, b), w)).unzip();
        assert_eq!(added.len(), added_weights.len());
        PairDelta {
            added,
            added_weights,
            retracted: retracted.into_iter().map(|(a, b)| pair(a, b)).collect(),
        }
    }

    /// Whether the candidate set did not move.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.retracted.is_empty()
    }

    /// The added comparisons with their weights, `((a, b), w)` — the one
    /// way to read the two parallel vectors, so they cannot be mis-zipped.
    pub fn added_weighted(&self) -> impl Iterator<Item = ((ProfileId, ProfileId), f64)> + '_ {
        debug_assert_eq!(self.added.len(), self.added_weights.len());
        self.added
            .iter()
            .copied()
            .zip(self.added_weights.iter().copied())
    }
}

/// What [`IncrementalMetaBlocker::refresh`] hands its decision pass: the
/// commit's graph context, what the cache patch decided, the reweigh sweep
/// and the recompute set's artefacts.
struct RepairCtx<'a> {
    ctx: &'a GraphSnapshot,
    /// The node set whose artefacts are recomputed (on tier 1 the dirty
    /// set, or under edge-delta repair every node an accumulated edge
    /// reaches; every node on tiers 2–3), ascending — empty for WEP/CEP,
    /// which keep none.
    recompute: &'a [u32],
    /// WEP/CEP: the frontier before this commit (the state holds the new
    /// one).
    old_frontier: Frontier,
    /// WEP/CEP: the dirty-incident edges' flips, decided as the splice
    /// reported them; WNP/BLAST: the retained pairs that died in the
    /// splice (unsorted).
    flips: Flips,
    /// The reweigh tier's sweep of the clean edges, with their old weights
    /// for WEP/CEP.
    sweep: Option<Sweep>,
    /// The recompute set's artefacts, aligned with it; empty for WEP/CEP.
    artefacts: Vec<Artefact>,
}

/// A decision pass's flips: added pairs with the weight their decision
/// read, and retracted pairs.
type Flips = (Vec<(u32, u32, f64)>, Vec<(u32, u32)>);

/// The accumulate pass: each dirty node's emitted row as
/// [`EdgeAdjacency::splice`] takes it.
type CachePass<'a> = TouchingPass<'a, RowEdge, Artefact>;

/// Dirty nodes accumulated and spliced per slice where no row is read
/// before the splice: what bounds the emitted rows a structural pass holds
/// beside the cache it builds. Unit tests take tiny slices, so that their
/// histories splice across slice boundaries.
const SPLICE_SLICE: usize = if cfg!(test) { 3 } else { 1024 };

/// The weigher of a pass that must not weigh yet (EJS's, before its
/// degrees are patched): every weight reads 0.0 until the rows are weighed.
struct Unweighed;

impl EdgeWeigher for Unweighed {
    fn weight(&self, _: &GraphSnapshot, _: u32, _: u32, _: &EdgeAccum) -> f64 {
        0.0
    }
}

/// What the cleaning stage reports into the repair.
#[derive(Debug, Default)]
pub struct DirtyScope {
    /// Graph-dirty nodes (cleaned co-occurrence changed). Sorted.
    pub nodes: Vec<u32>,
    /// Nodes whose cleaned block list changed — any block gained or lost,
    /// a liveness flip included, not only |B_u|. Sorted. Under edge-delta
    /// repair these are the only nodes re-accumulated from the blocks.
    pub lists_changed: Vec<u32>,
    /// Whether the cleaned |B| moved.
    pub total_blocks_changed: bool,
}

/// Which per-node artefact a node-centric variant keeps.
#[derive(Debug, Clone, Copy)]
enum ArtefactRule {
    /// WNP: the mean adjacent weight.
    Mean,
    /// BLAST: the maximum adjacent weight over `c` — what
    /// `BlastPruning::prune`'s one traversal folds: each edge owner's own
    /// row in ascending order, and the second collection's maxima (on
    /// clean-clean graphs) from the owners' rows in any order. A maximum
    /// is order-free, so both equal this fold over the node's own row, up
    /// to the sign of a zero maximum.
    MaxOver(f64),
    /// CNP: the k heaviest neighbours.
    TopK(usize),
}

/// One node's artefact under an [`ArtefactRule`].
#[derive(Debug)]
enum Artefact {
    /// WNP/BLAST threshold (+∞ for an isolated node: it accepts nothing).
    Threshold(f64),
    /// CNP top-k list.
    List(Vec<u32>),
}

impl ArtefactRule {
    /// The artefact of a node from its **node-orientation** weighted
    /// adjacency (ascending neighbours) — the same fold, in the same
    /// order, as the batch node passes (`Wnp::thresholds`,
    /// `Cnp::top_k_lists`); for BLAST, the same maximum as the one-pass
    /// traversal behind `BlastPruning::thresholds` (see
    /// [`ArtefactRule::MaxOver`]).
    fn of(self, adj: &[(u32, f64)]) -> Artefact {
        match self {
            ArtefactRule::Mean => Artefact::Threshold(if adj.is_empty() {
                f64::INFINITY
            } else {
                adj.iter().map(|(_, w)| *w).sum::<f64>() / adj.len() as f64
            }),
            ArtefactRule::MaxOver(c) => {
                let max = adj
                    .iter()
                    .map(|(_, w)| *w)
                    .fold(f64::NEG_INFINITY, f64::max);
                Artefact::Threshold(if max.is_finite() {
                    max / c
                } else {
                    f64::INFINITY
                })
            }
            ArtefactRule::TopK(k) => Artefact::List(cnp::top_k_neighbours(adj, k)),
        }
    }
}

/// Variant-specific decision-stage state (see module docs).
#[derive(Debug)]
enum DecisionState {
    /// WEP/CEP: the retention frontier of the last commit.
    Edge { frontier: Frontier },
    /// WNP/BLAST: nothing beyond the per-node thresholds and the edge
    /// cache's retention bits.
    Node,
    /// CNP: nothing beyond the per-node top-k lists.
    Lists,
}

/// The incremental meta-blocker: cached per-node artefacts + delta-run
/// decision state.
#[derive(Debug)]
pub struct IncrementalMetaBlocker {
    pruning: IncrementalPruning,
    /// Per-node thresholds (WNP: mean, BLAST: max/c). Empty otherwise.
    thresholds: Vec<f64>,
    /// Per-node top-k lists (CNP). Empty otherwise.
    lists: Vec<Vec<u32>>,
    decision: DecisionState,
    /// The live-edge adjacency with cached accumulators, every variant's:
    /// what the repair patches edge-deltas into and re-derives artefacts
    /// from, the reweigh tier's input, the degree maintainer's edge diff,
    /// WEP/CEP's frontier and old-side flips, and WNP/BLAST's retained set
    /// (one bit per entry).
    adj: EdgeAdjacency,
    /// |retained|, maintained from the flips (no full-set scan).
    retained_len: usize,
    /// The flat sorted view, materialised lazily on read.
    cache: OnceCell<RetainedPairs>,
    /// Reusable epoch-stamped dirty mask (no per-commit `vec![false; n]`).
    mask: EpochMask,
    /// CNP's default k of the previous pass (a move promotes the commit
    /// to the reweigh tier: every top-k list re-derives from the cache).
    prev_cnp_budget: Option<usize>,
    /// One-shot forced degradation (testing/operational escape hatch).
    force_full: bool,
    initialised: bool,
}

impl IncrementalMetaBlocker {
    /// A blocker maintaining the given pruning variant.
    pub fn new(pruning: IncrementalPruning) -> Self {
        let decision = match pruning {
            IncrementalPruning::Traditional(PruningAlgorithm::Wep)
            | IncrementalPruning::Traditional(PruningAlgorithm::Cep) => {
                DecisionState::Edge { frontier: None }
            }
            IncrementalPruning::Traditional(PruningAlgorithm::Cnp1)
            | IncrementalPruning::Traditional(PruningAlgorithm::Cnp2) => DecisionState::Lists,
            _ => DecisionState::Node,
        };
        Self {
            pruning,
            thresholds: Vec::new(),
            lists: Vec::new(),
            decision,
            adj: EdgeAdjacency::new(),
            retained_len: 0,
            cache: OnceCell::new(),
            mask: EpochMask::new(),
            prev_cnp_budget: None,
            force_full: false,
            initialised: false,
        }
    }

    /// The pruning variant.
    pub fn pruning(&self) -> IncrementalPruning {
        self.pruning
    }

    /// Number of retained comparisons — O(1), maintained from the flips.
    pub fn retained_len(&self) -> usize {
        self.retained_len
    }

    /// Forces the next [`IncrementalMetaBlocker::refresh`] onto the
    /// degraded-full tier regardless of what moved — the escape hatch that
    /// keeps the rarely-exercised tier-3 path testable (and recoverable in
    /// production, should cached state ever be suspected).
    pub fn force_full_next(&mut self) {
        self.force_full = true;
    }

    /// The current candidate set as a flat sorted list, materialised
    /// lazily from the decision state (cached until the next commit).
    pub fn retained(&self) -> &RetainedPairs {
        self.cache.get_or_init(|| match &self.decision {
            // The prefix is read off the adjacency rows, which visit the
            // edges in the flat view's own `(u, v)` order.
            DecisionState::Edge { frontier } => {
                let mut pairs = Vec::with_capacity(self.retained_len);
                self.adj.for_each_edge(|u, v, w| {
                    if retained_under(*frontier, EdgeKey::new(u, v, w)) {
                        pairs.push((ProfileId(u), ProfileId(v)));
                    }
                });
                RetainedPairs::from_sorted(pairs)
            }
            DecisionState::Node => {
                let mut pairs = Vec::with_capacity(self.retained_len);
                self.adj
                    .for_each_retained(|u, v| pairs.push((ProfileId(u), ProfileId(v))));
                RetainedPairs::from_sorted(pairs)
            }
            DecisionState::Lists => Cnp {
                mode: self.node_centric_mode(),
                k: None,
            }
            .retained_from_lists(&self.lists),
        })
    }

    /// Number of live edges in the adjacency cache.
    pub fn live_edges(&self) -> usize {
        self.adj.live_edges()
    }

    /// Number of packed accumulator entries cached in the adjacency
    /// (2 per undirected live edge).
    pub fn cached_accumulators(&self) -> usize {
        self.adj.cached_accumulators()
    }

    /// Estimated resident heap footprint of the blocker in bytes: the
    /// edge-accumulator adjacency (WNP/BLAST's retained set included), the
    /// per-node artefacts and the lazily cached flat retained view.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.adj.resident_bytes()
            + self.thresholds.capacity() * size_of::<f64>()
            + self
                .lists
                .iter()
                .map(|l| l.capacity() * size_of::<u32>())
                .sum::<usize>()
            + self.lists.len() * size_of::<Vec<u32>>()
            + self
                .cache
                .get()
                .map_or(0, |c| c.pairs().len() * size_of::<(u32, u32)>())
    }

    fn node_centric_mode(&self) -> NodeCentricMode {
        match self.pruning {
            IncrementalPruning::Traditional(PruningAlgorithm::Wnp1)
            | IncrementalPruning::Traditional(PruningAlgorithm::Cnp1) => NodeCentricMode::Redefined,
            _ => NodeCentricMode::Reciprocal,
        }
    }

    /// The per-node artefact this variant keeps (none for WEP/CEP; CNP's
    /// k is `cnp_budget`, which [`IncrementalMetaBlocker::refresh`]
    /// computes for CNP alone).
    fn artefact_rule(&self, cnp_budget: Option<usize>) -> Option<ArtefactRule> {
        match self.pruning {
            IncrementalPruning::Traditional(PruningAlgorithm::Wep | PruningAlgorithm::Cep) => None,
            IncrementalPruning::Traditional(PruningAlgorithm::Wnp1 | PruningAlgorithm::Wnp2) => {
                Some(ArtefactRule::Mean)
            }
            IncrementalPruning::Blast { c, .. } => Some(ArtefactRule::MaxOver(c)),
            IncrementalPruning::Traditional(PruningAlgorithm::Cnp1 | PruningAlgorithm::Cnp2) => {
                cnp_budget.map(ArtefactRule::TopK)
            }
        }
    }

    /// Repairs the candidate set after a micro-batch. `ctx` is the graph
    /// context over the *cleaned* snapshot (mutable: the repair patches
    /// the delta-maintained degrees before weighting); `scope` is the
    /// cleaning stage's dirty report.
    pub fn refresh(
        &mut self,
        ctx: &mut GraphSnapshot,
        weigher: &dyn EdgeWeigher,
        scope: &DirtyScope,
    ) -> (PairDelta, RepairStats) {
        self.cache.take();
        let n = ctx.total_profiles() as usize;
        let deps = weigher.global_deps();
        let needs_degrees = weigher.requires_degrees();
        let edge_variant = matches!(self.decision, DecisionState::Edge { .. });
        // Edge-delta repair: with accumulators that read no block size,
        // only the rows whose cleaned block list moved are re-accumulated
        // (see the module docs).
        let narrow = !deps.block_sizes;

        let cnp_budget = match self.pruning {
            IncrementalPruning::Traditional(PruningAlgorithm::Cnp1)
            | IncrementalPruning::Traditional(PruningAlgorithm::Cnp2) => {
                Some(Cnp::redefined().budget(ctx))
            }
            _ => None,
        };
        // Tier 3 is reserved for *structural* invalidation: nothing cached
        // can be trusted (first pass, forced degradation).
        let structural = !self.initialised || std::mem::take(&mut self.force_full);
        // A CNP budget move re-shapes every top-k list — but each list is
        // re-derived from the cached adjacency rows without touching a
        // block, so it promotes to the reweigh tier, not to a degraded
        // full pass.
        let budget_moved = !structural && cnp_budget != self.prev_cnp_budget;
        self.prev_cnp_budget = cnp_budget;
        self.initialised = true;
        // Drift that is known before any edge is accumulated (a degree
        // move shows only in the edge diff below).
        let drifted_early = (deps.total_blocks && scope.total_blocks_changed) || budget_moved;

        // The dirty set — the nodes whose rows are re-accumulated from the
        // blocks — under the reusable epoch mask, collected from the
        // cleaning scope, never by scanning all n nodes, except on the
        // degraded-full path where dirty *is* all.
        //
        // Edge-delta repair takes the nodes whose cleaned block list moved:
        // no other accumulator moved. A weigher reading block sizes takes
        // the cleaner's whole scope, plus — for a weigher reading per-node
        // block counts — the co-members of the list-changed nodes: a |B_u|
        // move re-weighs every edge at `u`, and a *clean* neighbour's
        // threshold or top-k list folds over that moved weight. WEP/CEP
        // keep no such artefact, and a commit already known to reweigh
        // re-derives every node's artefact from the cache: both skip the
        // expansion (the neighbours' other edges read only their own
        // endpoints' |B|).
        self.mask.begin(n);
        let dirty: Vec<u32> = if structural {
            self.mask.mark_all();
            (0..n as u32).collect()
        } else {
            let accumulate = if narrow {
                &scope.lists_changed
            } else {
                &scope.nodes
            };
            let mut d = Vec::with_capacity(accumulate.len());
            for &u in accumulate {
                if self.mask.mark(u) {
                    d.push(u);
                }
            }
            if !narrow && deps.node_blocks && !edge_variant && !drifted_early {
                self.mark_co_members(ctx, &scope.lists_changed, &mut d);
                d.sort_unstable();
            }
            d
        };
        self.adj.ensure_nodes(n);

        // ---- accumulate stage: ONE traversal of the dirty neighbourhood
        // yields each dirty node's emitted row and its own artefact ----
        let loads_before = ctx.scratch_loads();
        // The per-node artefacts come out of the pass itself, from the
        // node-orientation weights — unless degrees must be patched
        // between accumulating and weighing (EJS), the commit is already
        // known to reweigh (every node's artefact is re-derived then, not
        // just the dirty ones'), or the repair is edge-delta (its
        // recompute set reaches past the dirty nodes): all three read
        // them back from the patched cache rows instead.
        let rule = self.artefact_rule(cnp_budget);
        let in_pass =
            rule.filter(|_| !needs_degrees && (structural || (!drifted_early && !narrow)));
        let artefact = in_pass.map(|rule| move |_: u32, adj: &[(u32, f64)]| rule.of(adj));
        // A degree-reading weigher (EJS) accumulates unweighed: its
        // edge-existence diff patches the snapshot's delta-maintained
        // degrees *before* any weight is computed, so EJS never needs a
        // full degree pass again.
        let pass_weigher: &dyn EdgeWeigher = if needs_degrees { &Unweighed } else { weigher };
        let accumulate = |ctx: &GraphSnapshot, nodes, mask| {
            touching_pass(
                ctx,
                pass_weigher,
                nodes,
                mask,
                |u, v, w, acc| {
                    let arcs = if deps.block_sizes { acc.arcs } else { 0.0 };
                    (u, v, w, EdgeAccum { arcs, ..*acc })
                },
                artefact,
            )
        };
        // WEP/CEP's frontier and a degree-reading weigher's edge diff read
        // every dirty row before the first splice, so they accumulate the
        // dirty set in one pass. Every other variant accumulates and
        // splices it a slice at a time (below), so that a structural pass
        // never holds every edge's emitted entry beside the cache it
        // builds.
        let mut whole =
            (edge_variant || needs_degrees).then(|| accumulate(ctx, &dirty, &self.mask));
        let mut degree_secs = 0.0;
        let mut degrees_moved = false;
        if let (true, Some(pass)) = (needs_degrees, &mut whole) {
            let t_degrees = Instant::now();
            if ctx.degrees_maintained() {
                degrees_moved = patch_degrees(ctx, &self.adj, pass, &self.mask);
            } else {
                debug_assert!(
                    structural,
                    "degree maintenance starts on the structural pass"
                );
                ctx.begin_degree_maintenance();
            }
            degree_secs = t_degrees.elapsed().as_secs_f64();
            // EJS reads no block size, so the kept accumulator weighs as
            // the accumulated one does.
            let ctx = &*ctx;
            pass.retain_rows(ctx.threads(), |_, row, _: &mut ()| {
                for e in row.iter_mut() {
                    e.2 = weigher.weight(ctx, e.0, e.1, &e.3);
                }
                row.len()
            });
        }
        let ctx = &*ctx;

        // ---- tier selection ----
        // Any degree event promotes a degree-reading weigher: a dirty
        // node's degree change moves the weight of *every* edge it has,
        // including edges into clean nodes, and those clean nodes'
        // node-centric artefacts (thresholds, top-k lists) average over
        // that weight — so the artefacts of nodes outside the dirty set go
        // stale even when |E_G| itself is unchanged (balanced birth +
        // death in one commit).
        let tier = if structural {
            RepairTier::Full
        } else if drifted_early || degrees_moved {
            RepairTier::Reweigh
        } else {
            RepairTier::Dirty
        };

        let mut stats = RepairStats {
            dirty_nodes: dirty.len(),
            tier,
            reweigh_secs: degree_secs,
            ..RepairStats::default()
        };

        // ---- reweigh tier: re-derive every clean edge in place from its
        // cached accumulator (no block traversal). The splices below write
        // only entries with a marked endpoint, which the sweep skips, so
        // the two commute. ----
        let mut sweep = None;
        if tier == RepairTier::Reweigh {
            let t_sweep = Instant::now();
            let swept =
                self.adj
                    .reweigh_clean(ctx, weigher, &self.mask, ctx.threads(), edge_variant);
            stats.edges_swept = swept.swept;
            stats.edges_rekeyed = swept.rekeyed;
            stats.reweigh_secs += t_sweep.elapsed().as_secs_f64();
            sweep = Some(swept);
        }

        // ---- the cache patch: each dirty row spliced, ascending; WEP/CEP
        // decide every dirty-incident edge as the splice reports it, and
        // WNP/BLAST retract every retained pair that dies ----
        let mut flips = Flips::default();
        let mut old_frontier = None;
        let mut artefacts = in_pass.map(|_| Vec::with_capacity(dirty.len()));
        let (adj, mask) = (&mut self.adj, &self.mask);
        let mut splice = |pass: &mut CachePass, flips: &mut Flips| {
            if let Some(artefacts) = &mut artefacts {
                artefacts.append(&mut pass.artefacts);
            }
            stats.edges_reweighed += pass.emitted();
            match (&mut self.decision, self.pruning) {
                (DecisionState::Edge { frontier }, IncrementalPruning::Traditional(algorithm)) => {
                    let t0 = Instant::now();
                    let (old, new) = (*frontier, edge_frontier(algorithm, adj, mask, pass, ctx));
                    (old_frontier, *frontier) = (old, new);
                    stats.decision_secs = t0.elapsed().as_secs_f64();
                    adj.splice(mask, pass.rows(), |u, v, ow, nw, _| {
                        decide_edge((old, new), u, v, (ow, nw), flips);
                    });
                }
                (DecisionState::Node, _) => {
                    adj.splice(mask, pass.rows(), |u, v, _, nw, retained| {
                        if retained && nw.is_none() {
                            flips.1.push((u, v));
                        }
                    })
                }
                _ => adj.splice(mask, pass.rows(), |_, _, _, _, _| {}),
            }
        };
        match &mut whole {
            Some(pass) => splice(pass, &mut flips),
            None => {
                for slice in dirty.chunks(SPLICE_SLICE) {
                    splice(&mut accumulate(ctx, slice, mask), &mut flips);
                }
            }
        }
        // A whole-set pass's rows are the commit's memory peak (every
        // edge, on the structural tier): release them before the flips are
        // laid out.
        drop(whole);
        stats.scratch_loads = (ctx.scratch_loads() - loads_before) as usize;

        // ---- the recompute set: every node on the reweigh tier; on the
        // dirty tier an edge-delta repair reaches every node an accumulated
        // edge reaches ----
        let grown: Vec<u32>;
        let recompute: &[u32] = match tier {
            // WEP/CEP keep no per-node artefact and decide the swept
            // edges off the sweep, under the mask it ran with; the
            // node-centric variants decide every live edge off the
            // patched rows.
            RepairTier::Reweigh if edge_variant => &[],
            RepairTier::Reweigh => {
                self.mask.mark_all();
                grown = (0..n as u32).collect();
                &grown
            }
            RepairTier::Dirty if narrow && rule.is_some() => {
                let mut recompute = dirty.clone();
                for &u in &scope.nodes {
                    if self.mask.mark(u) {
                        recompute.push(u);
                    }
                }
                if deps.node_blocks {
                    self.mark_co_members(ctx, &dirty, &mut recompute);
                }
                recompute.sort_unstable();
                grown = recompute;
                &grown
            }
            _ => &dirty,
        };
        if rule.is_some() {
            stats.artefact_nodes = recompute.len() - stats.dirty_nodes;
        }
        // Artefacts the accumulate pass did not produce come from the
        // cache rows, now that they are current.
        let artefacts = match (artefacts, rule) {
            (Some(artefacts), _) => artefacts,
            (None, Some(rule)) => cached_artefacts(&self.adj, ctx, weigher, recompute, rule),
            (None, None) => Vec::new(),
        };

        let (added, retracted) = self.repair(
            RepairCtx {
                ctx,
                recompute,
                old_frontier,
                flips,
                sweep,
                artefacts,
            },
            &mut stats,
        );
        stats.retention_flips = added.len() + retracted.len();
        self.retained_len += added.len();
        self.retained_len -= retracted.len();
        (PairDelta::from_flips(added, retracted), stats)
    }

    /// Marks every co-member of `nodes` — every node sharing a cleaned
    /// block with one — and appends the newly marked ones to `out`.
    fn mark_co_members(&mut self, ctx: &GraphSnapshot, nodes: &[u32], out: &mut Vec<u32>) {
        for &u in nodes {
            for &slot in ctx.index().blocks_of(u) {
                for p in ctx.slot_members(slot) {
                    if self.mask.mark(p.0) {
                        out.push(p.0);
                    }
                }
            }
        }
    }

    /// The per-variant decision pass over one commit's [`RepairCtx`].
    /// Returns the (sorted) added/retracted flips, each added pair with the
    /// weight its decision read; updates `stats` with the decision-stage
    /// counters and wall-clock.
    fn repair(&mut self, cx: RepairCtx<'_>, stats: &mut RepairStats) -> Flips {
        let RepairCtx {
            ctx,
            recompute,
            old_frontier,
            flips,
            sweep,
            artefacts,
        } = cx;
        let n = ctx.total_profiles() as usize;
        let mask = &self.mask;
        let tier = stats.tier;
        let mut flips = flips;

        match self.pruning {
            IncrementalPruning::Traditional(PruningAlgorithm::Wep | PruningAlgorithm::Cep) => {
                let DecisionState::Edge { frontier } = &self.decision else {
                    unreachable!("edge-centric pruning carries edge state")
                };
                let adj = &self.adj;
                let new_frontier = *frontier;

                // The dirty-incident edges were decided during the splice;
                // the clean ones are decided the same way: old key against
                // the old frontier, new key against the new one.
                let t0 = Instant::now();
                let mut decide_clean = |u: u32, v: u32, ow: f64, nw: f64| {
                    let eras = (old_frontier, new_frontier);
                    if decide_edge(eras, u, v, (Some(ow), Some(nw)), &mut flips)
                        && ow.to_bits() == nw.to_bits()
                    {
                        stats.threshold_crossers += 1;
                    }
                };
                match (tier, &sweep) {
                    // A clean edge kept its weight, so only a frontier
                    // move can flip it.
                    (RepairTier::Dirty, _) if old_frontier != new_frontier => {
                        adj.for_each_edge(|u, v, w| {
                            if !mask.contains(u) && !mask.contains(v) {
                                decide_clean(u, v, w, w);
                            }
                        });
                    }
                    // The reweigh tier swept every clean edge.
                    (_, Some(sweep)) => adj.for_each_swept(sweep, mask, &mut decide_clean),
                    // Tier 3 marks every node: no edge is clean.
                    _ => {}
                }
                let (added, retracted) = &mut flips;
                added.sort_unstable_by_key(edge_pair);
                retracted.sort_unstable();
                stats.decision_secs += t0.elapsed().as_secs_f64();
                debug_assert_eq!(
                    {
                        let mut prefix = 0;
                        adj.for_each_edge(|u, v, w| {
                            prefix +=
                                usize::from(retained_under(new_frontier, EdgeKey::new(u, v, w)));
                        });
                        prefix
                    },
                    self.retained_len + added.len() - retracted.len(),
                    "frontier prefix must equal the flip-maintained count"
                );
            }
            IncrementalPruning::Traditional(PruningAlgorithm::Wnp1)
            | IncrementalPruning::Traditional(PruningAlgorithm::Wnp2)
            | IncrementalPruning::Blast { .. } => {
                let mode = self.node_centric_mode();
                self.thresholds.resize(n, f64::INFINITY);
                for (&u, artefact) in recompute.iter().zip(artefacts) {
                    let Artefact::Threshold(theta) = artefact else {
                        unreachable!("threshold pruning keeps thresholds")
                    };
                    self.thresholds[u as usize] = theta;
                }

                let t0 = Instant::now();
                let keep = threshold_keep(self.pruning, mode, &self.thresholds);
                let (added, mut retracted) =
                    cache_row_flips(&self.adj, recompute, mask, ctx.threads(), &keep);
                for &(a, b) in &retracted {
                    self.adj.set_retained(a, b, false);
                }
                for &(a, b, _) in &added {
                    self.adj.set_retained(a, b, true);
                }
                // The retained pairs that died in the splice leave too.
                retracted.append(&mut flips.1);
                retracted.sort_unstable();
                flips = (added, retracted);
                stats.decision_secs = t0.elapsed().as_secs_f64();
            }
            IncrementalPruning::Traditional(PruningAlgorithm::Cnp1)
            | IncrementalPruning::Traditional(PruningAlgorithm::Cnp2) => {
                let need = self.node_centric_mode().required_listings();
                self.lists.resize_with(n, Vec::new);

                let t0 = Instant::now();
                // The recompute set's old lists, kept for the commit.
                let old_lists: Vec<Vec<u32>> = recompute
                    .iter()
                    .zip(artefacts)
                    .map(|(&u, artefact)| {
                        let Artefact::List(new_list) = artefact else {
                            unreachable!("cnp keeps top-k lists")
                        };
                        std::mem::replace(&mut self.lists[u as usize], new_list)
                    })
                    .collect();
                // An added pair's weight is the one its decision read:
                // the patched cache row's canonical weight.
                let adj = &self.adj;
                list_flips(
                    recompute,
                    &old_lists,
                    &self.lists,
                    need,
                    |a, b| {
                        adj.weight(a, b)
                            .expect("a newly listed pair is a live cached edge")
                    },
                    &mut flips.0,
                    &mut flips.1,
                );
                stats.decision_secs = t0.elapsed().as_secs_f64();
            }
        }
        flips
    }
}

/// The `(u, v)` join key of a weighted edge.
#[inline]
fn edge_pair(e: &(u32, u32, f64)) -> (u32, u32) {
    (e.0, e.1)
}

/// Diffs edge existence over the dirty rows before they are spliced
/// ([`EdgeAdjacency::diff_row`] against the pass's emitted rows) and
/// patches the snapshot's delta-maintained degrees: every edge death
/// decrements both endpoints, every birth increments them, and |E_G|
/// follows. Returns whether *any* degree event occurred — the EJS drift
/// signal. (The degree-changed nodes themselves are always dirty, but their
/// edges reach clean nodes whose node-centric artefacts average over the
/// moved weights, so even an |E_G|-preserving birth + death must promote
/// the commit to the reweigh tier.)
fn patch_degrees(
    ctx: &mut GraphSnapshot,
    adj: &EdgeAdjacency,
    pass: &CachePass<'_>,
    mask: &EpochMask,
) -> bool {
    let mut events: Vec<(u32, i32)> = Vec::new();
    let mut edge_delta: i64 = 0;
    for (d, row) in pass.rows() {
        adj.diff_row(d, mask, row, |u, v, ow, nw| {
            let delta = match (ow, nw) {
                (None, Some(_)) => 1,
                (Some(_), None) => -1,
                _ => return,
            };
            events.push((u, delta));
            events.push((v, delta));
            edge_delta += i64::from(delta);
        });
    }
    if events.is_empty() {
        return false;
    }
    // Fold the ±1 events per node before applying.
    events.sort_unstable_by_key(|&(u, _)| u);
    let mut folded: Vec<(u32, i32)> = Vec::with_capacity(events.len());
    for (u, d) in events {
        match folded.last_mut() {
            Some((lu, ld)) if *lu == u => *ld += d,
            _ => folded.push((u, d)),
        }
    }
    ctx.apply_degree_deltas(folded.into_iter().filter(|&(_, d)| d != 0), edge_delta);
    true
}

/// The retention frontier of the commit's live edge set, restated before
/// the splice in O(|E|): the edges between two unmarked nodes off the cache
/// rows (the reweigh tier's sweep has restated them), every other edge off
/// the pass's emitted rows. WEP's mean comes from the exactly accumulated
/// Σw, CEP's rank-K key by selection over the live keys. Both are
/// aggregates of the weight multiset, so they equal the batch pass's bit
/// for bit.
fn edge_frontier(
    algorithm: PruningAlgorithm,
    adj: &EdgeAdjacency,
    mask: &EpochMask,
    pass: &CachePass<'_>,
    ctx: &GraphSnapshot,
) -> Frontier {
    /// Every live edge once: the clean ones off the rows, the others off
    /// the pass.
    fn for_each_live(
        adj: &EdgeAdjacency,
        mask: &EpochMask,
        pass: &CachePass<'_>,
        mut f: impl FnMut(u32, u32, f64),
    ) {
        adj.for_each_edge(|u, v, w| {
            if !mask.contains(u) && !mask.contains(v) {
                f(u, v, w);
            }
        });
        for &(u, v, w, _) in pass.rows().flat_map(|(_, row)| row) {
            f(u, v, w);
        }
    }
    if algorithm == PruningAlgorithm::Wep {
        let (mut sum, mut len) = (ExactSum::new(), 0);
        for_each_live(adj, mask, pass, |_, _, w| {
            sum.add(w);
            len += 1;
        });
        return Wep::mean_from_sum(&sum, len).map(EdgeKey::mean_bound);
    }
    let mut keys = Vec::new();
    for_each_live(adj, mask, pass, |u, v, w| keys.push(EdgeKey::new(u, v, w)));
    match (Cep::new().budget(ctx) as usize).min(keys.len()) {
        0 => None,
        k => Some(*keys.select_nth_unstable(k - 1).1),
    }
}

/// WEP/CEP's decision for one edge that may have flipped: its old key
/// against the old frontier, its new key against the new one, `frontiers`
/// and `weights` each `(old, new)`, a `None` weight for an edge absent in
/// that era. Pushes the flip, the added pair at its new weight, and
/// returns whether there was one.
fn decide_edge(
    (old_frontier, new_frontier): (Frontier, Frontier),
    u: u32,
    v: u32,
    (ow, nw): (Option<f64>, Option<f64>),
    (added, retracted): &mut Flips,
) -> bool {
    let was = ow.is_some_and(|w| retained_under(old_frontier, EdgeKey::new(u, v, w)));
    match nw.filter(|&w| retained_under(new_frontier, EdgeKey::new(u, v, w))) {
        Some(w) if !was => added.push((u, v, w)),
        None if was => retracted.push((u, v)),
        _ => return false,
    }
    true
}

/// The recompute set's artefacts re-derived from the cached accumulators
/// ([`EdgeAdjacency::for_each_node_weight`]) instead of from the blocks:
/// the accumulator is orientation-symmetric bitwise, and the weight is
/// re-computed from the row owner's side — the batch node-pass orientation
/// — so the artefacts are bit-identical to a scratch pass without touching
/// a single block. The reweigh tier runs on this (its recompute set is
/// every node), so do the degree-reading weighers on every tier (their
/// rows are patched, degrees current, by the time this runs), and so does
/// edge-delta repair on the dirty tier (its recompute set reaches past the
/// re-accumulated nodes).
fn cached_artefacts(
    adj: &EdgeAdjacency,
    ctx: &GraphSnapshot,
    weigher: &dyn EdgeWeigher,
    recompute: &[u32],
    rule: ArtefactRule,
) -> Vec<Artefact> {
    // Same work-stealing shape as the scratch pass, results merged in
    // chunk order.
    let len = recompute.len();
    let chunks = parallel_work_steal(
        len,
        ctx.threads(),
        chunk_len(len),
        Vec::new,
        |buf: &mut Vec<(u32, f64)>, range| {
            let mut out = Vec::with_capacity(range.len());
            for &u in &recompute[range] {
                buf.clear();
                adj.for_each_node_weight(u, ctx, weigher, |v, w| buf.push((v, w)));
                out.push(rule.of(buf));
            }
            out
        },
    );
    let mut out = Vec::with_capacity(len);
    for c in chunks {
        out.extend(c);
    }
    out
}

/// Whether WNP/BLAST retain the canonical edge `(u, v)` at weight `w`
/// against the per-node thresholds: WNP's one or both endpoint tests,
/// BLAST's `w ≥ (θᵤ + θᵥ)/d` over a positive weight.
fn threshold_keep(
    pruning: IncrementalPruning,
    mode: NodeCentricMode,
    thresholds: &[f64],
) -> impl Fn(u32, u32, f64) -> bool + Sync + '_ {
    let wnp = Wnp { mode };
    move |u, v, w| match pruning {
        IncrementalPruning::Blast { d, .. } => {
            let theta = (thresholds[u as usize] + thresholds[v as usize]) / d;
            w > 0.0 && w >= theta
        }
        IncrementalPruning::Traditional(_) => wnp.decide(thresholds, u, v, w),
    }
}

/// The WNP/BLAST decision for one recomputed node `d`, row-local: walks its
/// cache row — `(neighbour, canonical weight, retention bit)`, ascending —
/// over the pairs the node owns (a larger neighbour, or an unmarked smaller
/// one). So every live pair with a recomputed endpoint is judged exactly
/// once, and clean survivors are never visited. `keep(u, v, w)` decides the
/// canonical pair against the thresholds; each pair that enters is pushed
/// onto `added` with its weight, each that leaves onto `retracted`. Flips
/// come in row order: ascending `(u, v)` except where `d` is the larger
/// endpoint. A retained pair that died is not in the row: the splice
/// reported it.
fn join_row(
    d: u32,
    adj: &EdgeAdjacency,
    mask: &EpochMask,
    keep: &impl Fn(u32, u32, f64) -> bool,
    (added, retracted): &mut Flips,
) {
    for (v, w, was) in adj.decisions(d) {
        if v < d && mask.contains(v) {
            continue; // the smaller recomputed endpoint judges the pair
        }
        let (a, b) = if d < v { (d, v) } else { (v, d) };
        match (was, keep(a, b, w)) {
            (false, true) => added.push((a, b, w)),
            (true, false) => retracted.push((a, b)),
            _ => {}
        }
    }
}

/// The WNP/BLAST decision pass over the patched edge cache's rows, on every
/// tier (the reweigh tier's all-node recompute set included): [`join_row`]
/// per recomputed node on the work-steal chunk geometry. Only the flips
/// are collected, and sorted.
fn cache_row_flips(
    adj: &EdgeAdjacency,
    nodes: &[u32],
    mask: &EpochMask,
    threads: usize,
    keep: &(impl Fn(u32, u32, f64) -> bool + Sync),
) -> Flips {
    let len = nodes.len();
    let parts = parallel_work_steal(
        len,
        threads,
        chunk_len(len),
        || (),
        |_, range| {
            let mut flips = Flips::default();
            for &d in &nodes[range] {
                join_row(d, adj, mask, keep, &mut flips);
            }
            flips
        },
    );
    let (added, retracted): (Vec<_>, Vec<_>) = parts.into_iter().unzip();
    let (mut added, mut retracted) = (added.concat(), retracted.concat());
    // A pair read from its larger endpoint lands among the other rows'
    // pairs out of order; with every node marked there is none.
    added.sort_unstable_by_key(edge_pair);
    retracted.sort_unstable();
    (added, retracted)
}

/// CNP flip emission. A pair's listing count (how many of its endpoints
/// list the other) moves only where a recomputed node's list changed, so
/// the changed pairs are the diffs of the recomputed nodes' old and new
/// lists. Each is judged once, its count under the old lists against its
/// count under the new ones, so a pair changed from both endpoints in one
/// commit cannot emit both an add and a retract. `old_lists` is parallel
/// to `recompute` (ascending); every other node's list is the same in both
/// eras. Flips are pushed sorted, each added pair with `weight(a, b)`, the
/// weight its decision read.
fn list_flips(
    recompute: &[u32],
    old_lists: &[Vec<u32>],
    lists: &[Vec<u32>],
    need: u8,
    weight: impl Fn(u32, u32) -> f64,
    added: &mut Vec<(u32, u32, f64)>,
    retracted: &mut Vec<(u32, u32)>,
) {
    let old_list = |x: u32| match recompute.binary_search(&x) {
        Ok(i) => &old_lists[i],
        Err(_) => &lists[x as usize],
    };
    let mut changed: Vec<(u32, u32)> = Vec::new();
    let (mut old_sorted, mut new_sorted): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
    for (&u, old) in recompute.iter().zip(old_lists) {
        old_sorted.clone_from(old);
        old_sorted.sort_unstable();
        new_sorted.clone_from(&lists[u as usize]);
        new_sorted.sort_unstable();
        diff_sorted_ids(&old_sorted, &new_sorted, |v| {
            changed.push((u.min(v), u.max(v)))
        });
    }
    changed.sort_unstable();
    changed.dedup();
    for (a, b) in changed {
        let was = u8::from(old_list(a).contains(&b)) + u8::from(old_list(b).contains(&a));
        let now =
            u8::from(lists[a as usize].contains(&b)) + u8::from(lists[b as usize].contains(&a));
        if (was >= need) != (now >= need) {
            if now >= need {
                added.push((a, b, weight(a, b)));
            } else {
                retracted.push((a, b));
            }
        }
    }
}

/// Diffs two sorted id lists, calling `f(id)` for every id on one side
/// only: departures and arrivals alike.
fn diff_sorted_ids(old: &[u32], new: &[u32], mut f: impl FnMut(u32)) {
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < new.len() {
        match old[i].cmp(&new[j]) {
            std::cmp::Ordering::Equal => (i, j) = (i + 1, j + 1),
            std::cmp::Ordering::Less => {
                f(old[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                f(new[j]);
                j += 1;
            }
        }
    }
    old[i..].iter().chain(&new[j..]).for_each(|&v| f(v));
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::decision::tests::{loaded, rows_of};

    /// `(u, v, w)` edges with an empty accumulator.
    fn row_edges(list: &[(u32, u32, f64)]) -> Vec<RowEdge> {
        list.iter()
            .map(|&(u, v, w)| (u, v, w, EdgeAccum::default()))
            .collect()
    }

    /// WEP/CEP's inline decision on a splice: a cache over 8 nodes holding
    /// `old` splices the rows of `dirty` cut out of `new` (which must hold
    /// every edge between two clean nodes of `old` unchanged), deciding
    /// each reported edge between the `frontiers` as `refresh` does.
    /// Returns the flips, sorted, and the rows' edges after the splice.
    fn splice_flips(
        old: &[(u32, u32, f64)],
        new: &[(u32, u32, f64)],
        dirty: &[u32],
        frontiers: (Frontier, Frontier),
    ) -> (Flips, Vec<(u32, u32, f64)>) {
        let mut adj = loaded(8, &row_edges(old));
        let mask = mask_of(8, dirty);
        let rows = rows_of(dirty, &mask, &row_edges(new));
        let mut flips = Flips::default();
        adj.splice(
            &mask,
            rows.iter().map(|(d, row)| (*d, row.as_slice())),
            |u, v, ow, nw, _| {
                decide_edge(frontiers, u, v, (ow, nw), &mut flips);
            },
        );
        flips.0.sort_unstable_by_key(edge_pair);
        flips.1.sort_unstable();
        let mut edges = Vec::new();
        adj.for_each_edge(|u, v, w| edges.push((u, v, w)));
        (flips, edges)
    }

    #[test]
    fn edge_flips_cover_all_transitions() {
        // Frontier = everything with w ≥ 2 retained, in both eras.
        let f = Some(EdgeKey::mean_bound(2.0));
        let old = [
            (0, 1, 3.0),
            (0, 2, 1.0),
            (1, 2, 5.0),
            (2, 3, 2.0),
            (3, 4, 7.0),
        ];
        // (0,1) drops below; (0,2) rises above; (1,2) vanishes; (2,4) appears
        // retained; (2,3) keeps its weight; the clean (3,4) is not reported.
        let new = [
            (0, 1, 1.0),
            (0, 2, 4.0),
            (2, 3, 2.0),
            (2, 4, 9.0),
            (3, 4, 7.0),
        ];
        let ((added, retracted), edges) = splice_flips(&old, &new, &[0, 1, 2], (f, f));
        assert_eq!(added, vec![(0, 2, 4.0), (2, 4, 9.0)], "at the fresh weight");
        assert_eq!(retracted, vec![(0, 1), (1, 2)]);
        assert_eq!(edges, new, "the rows hold the new edges");
    }

    #[test]
    fn edge_flips_track_frontier_movement() {
        // Same edge, same weight — retention flips because Θ moved; the
        // edge below both frontiers stays out, the one above both in.
        let old = [(0, 1, 3.0), (0, 2, 1.0), (1, 2, 5.0)];
        let eras = (
            Some(EdgeKey::mean_bound(2.0)),
            Some(EdgeKey::mean_bound(4.0)),
        );
        let ((added, retracted), _) = splice_flips(&old, &old, &[0], eras);
        assert!(added.is_empty());
        assert_eq!(retracted, vec![(0, 1)]);
        // And back: the frontier falls, the edge re-enters at its weight.
        let ((added, retracted), _) = splice_flips(&old, &old, &[1], (eras.1, eras.0));
        assert_eq!(added, vec![(0, 1, 3.0)]);
        assert!(retracted.is_empty());
    }

    /// The row-local decision at 1 and 4 threads (which must agree) over
    /// an edge cache holding the canonical `edges`, with the pairs of
    /// `retained` carrying the retention bit, deciding the rows of `nodes`
    /// under `mask`. Returns the flips and the retained set once they are
    /// applied to the bits.
    fn flips_of(
        edges: &[(u32, u32, f64)],
        retained: &[(u32, u32)],
        nodes: &[u32],
        mask: &EpochMask,
        keep: impl Fn(u32, u32, f64) -> bool + Sync,
    ) -> (Flips, Vec<(u32, u32)>) {
        let mut adj = loaded(16, &row_edges(edges));
        for &(a, b) in retained {
            adj.set_retained(a, b, true);
        }
        let flips = cache_row_flips(&adj, nodes, mask, 1, &keep);
        assert_eq!(
            cache_row_flips(&adj, nodes, mask, 4, &keep),
            flips,
            "thread count must not matter"
        );
        for &(a, b) in &flips.1 {
            adj.set_retained(a, b, false);
        }
        for &(a, b, _) in &flips.0 {
            adj.set_retained(a, b, true);
        }
        let mut now = Vec::new();
        adj.for_each_retained(|a, b| now.push((a, b)));
        (flips, now)
    }

    fn mask_of(n: usize, marked: &[u32]) -> EpochMask {
        let mut mask = EpochMask::new();
        mask.begin(n);
        for &u in marked {
            mask.mark(u);
        }
        mask
    }

    #[test]
    fn row_flips_diff_only_dirty_rows() {
        // Node 2's row: (1,2) now fails its test, (2,3) and (2,4) pass;
        // the clean–clean (0,1) is retained at a weight that would fail.
        let edges = [(0, 1, 0.1), (1, 2, 0.5), (2, 3, 1.5), (2, 4, 2.5)];
        let ((added, retracted), now) = flips_of(
            &edges,
            &[(0, 1), (1, 2), (2, 3)],
            &[2],
            &mask_of(5, &[2]),
            |_, _, w| w >= 1.0,
        );
        assert_eq!(added, vec![(2, 4, 2.5)], "with the decided weight");
        assert_eq!(retracted, vec![(1, 2)]);
        assert_eq!(
            now,
            vec![(0, 1), (2, 3), (2, 4)],
            "clean survivor untouched"
        );
    }

    /// Every shape a row walk takes: a pair with both endpoints dirty
    /// (owned by the smaller), a clean endpoint below the dirty one (owned
    /// by the dirty larger endpoint: its flips arrive out of order) and
    /// above it, a decided edge that fails its test, and a dirty row whose
    /// survivors all leave.
    #[test]
    fn row_flips_join_owned_rows() {
        // Dirty: 4, 5, 6. Clean below: 1, 2, 3; clean above: 7.
        let edges = [
            (0, 1, 0.1),
            (1, 4, 0.5),
            (2, 5, 1.0),
            (3, 4, 2.0),
            (3, 5, 0.5),
            (4, 5, 3.0),
            (4, 6, 0.5),
            (5, 7, 4.0),
            (6, 7, 0.5),
        ];
        let retained = [(0, 1), (1, 4), (2, 5), (3, 5), (4, 5), (5, 7), (4, 6)];
        // (2,5), (4,5) and (5,7) survive, (3,4) enters from below, (6,7)
        // is decided and stays out; (1,4), (3,5) and (4,6) leave — the last
        // from 4's row, which empties row 6 of survivors.
        let ((added, retracted), now) = flips_of(
            &edges,
            &retained,
            &[4, 5, 6],
            &mask_of(8, &[4, 5, 6]),
            |_, _, w| w >= 1.0,
        );
        assert_eq!(added, vec![(3, 4, 2.0)]);
        assert_eq!(retracted, vec![(1, 4), (3, 5), (4, 6)], "sorted, each once");
        assert_eq!(now, vec![(0, 1), (2, 5), (3, 4), (4, 5), (5, 7)]);

        // A second pass over the decided rows emits nothing.
        let ((added, retracted), again) =
            flips_of(&edges, &now, &[4, 6], &mask_of(8, &[4, 6]), |_, _, w| {
                w >= 1.0
            });
        assert!(added.is_empty() && retracted.is_empty());
        assert_eq!(again, now);
    }

    /// Both endpoints of a pair recomputed in one commit: each changed
    /// pair is judged once, old lists against new. cnp1: `0` drops `1`
    /// while `1` takes up `0` (count 1 → 1, no flip); `(0, 2)` enters and
    /// `(1, 2)` leaves.
    #[test]
    fn list_flips_judge_a_pair_once_for_cnp1() {
        let decide = [(0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0)];
        let weight = |a, b| {
            let i = decide
                .binary_search_by_key(&(a, b), edge_pair)
                .expect("a decided edge");
            decide[i].2
        };
        let (mut added, mut retracted) = (Vec::new(), Vec::new());
        list_flips(
            &[0, 1],
            &[vec![1], vec![2]],
            &[vec![2], vec![0], vec![], vec![]],
            1,
            weight,
            &mut added,
            &mut retracted,
        );
        assert_eq!(added, vec![(0, 2, 2.0)], "with the decided weight");
        assert_eq!(retracted, vec![(1, 2)]);
    }

    /// cnp2: the mutual pair `(0, 1)` loses `0`'s listing (2 → 1) and the
    /// mutual pair `(2, 3)` loses both (2 → 0, changed from both
    /// endpoints): each retracts exactly once. The pairs that gain one
    /// listing (0 → 1) stay out.
    #[test]
    fn list_flips_retract_a_pair_once_for_cnp2() {
        let (mut added, mut retracted) = (Vec::new(), Vec::new());
        list_flips(
            &[0, 1, 2, 3],
            &[vec![1], vec![0], vec![3], vec![2]],
            &[vec![4], vec![0], vec![4], vec![4], vec![]],
            2,
            |a, b| panic!("({a}, {b}) cannot enter"),
            &mut added,
            &mut retracted,
        );
        assert!(added.is_empty());
        assert_eq!(retracted, vec![(0, 1), (2, 3)]);
    }

    #[test]
    fn sorted_id_diff_reports_both_directions() {
        let mut events = Vec::new();
        diff_sorted_ids(&[1, 3, 5], &[2, 3, 6], |v| events.push(v));
        assert_eq!(events, vec![1, 2, 5, 6]);
    }

    /// The global-sort decision the row-local pass replaced, kept as the
    /// reference it must equal bit for bit.
    mod reference {
        use super::super::Flips;
        use std::collections::BTreeSet;

        /// Diffs the retained pairs incident to the recomputed nodes (those
        /// of `before`, the retained set as it stood, with a marked
        /// endpoint) against the freshly decided pairs (one global
        /// canonical list, each with the weight the decision tested), and
        /// returns the flips, sorted.
        pub fn node_flips(
            before: &BTreeSet<(u32, u32)>,
            marked: impl Fn(u32) -> bool,
            fresh: impl Iterator<Item = (u32, u32, f64)>,
        ) -> Flips {
            let (mut added, mut retracted) = (Vec::new(), Vec::new());
            let mut old = before
                .iter()
                .copied()
                .filter(|&(a, b)| marked(a) || marked(b))
                .peekable();
            for (u, v, w) in fresh {
                while let Some(p) = old.next_if(|&p| p < (u, v)) {
                    retracted.push(p);
                }
                if old.next_if_eq(&(u, v)).is_none() {
                    added.push((u, v, w));
                }
            }
            retracted.extend(old);
            (added, retracted)
        }
    }

    /// Histories of cleaned blocks driven through one patched snapshot
    /// exactly as the cleaner drives it (membership edits, slot
    /// restatements with their liveness flips, row splices), beside a
    /// snapshot built from scratch over the same blocks for the batch
    /// oracle. Slot `k` holds block `k`; `n` profiles, a clean-clean store
    /// splitting them in half.
    mod harness {
        use super::*;
        use blast_blocking::block::Block;
        use blast_blocking::collection::BlockCollection;
        use blast_blocking::key::ClusterId;
        use std::collections::BTreeSet;

        /// Slot `k`'s (fixed) block entropy.
        pub fn entropy(k: usize) -> f64 {
            0.5 + 0.25 * (k % 5) as f64
        }

        /// An empty snapshot to patch histories into.
        pub fn empty(n: u32, clean: bool, threads: usize) -> GraphSnapshot {
            GraphSnapshot::empty(clean, n / 2)
                .with_entropies_enabled()
                .with_threads(threads)
        }

        /// A snapshot built from scratch over the live blocks of `blocks`
        /// (slot order kept), with degrees and entropies.
        pub fn fresh_snapshot(blocks: &[BTreeSet<u32>], n: u32, clean: bool) -> GraphSnapshot {
            let separator = if clean { n / 2 } else { u32::MAX };
            let (mut live, mut entropies) = (Vec::new(), Vec::new());
            for (k, set) in blocks.iter().enumerate() {
                let block = Block::new(
                    format!("b{k}"),
                    ClusterId::GLUE,
                    set.iter().map(|&p| ProfileId(p)).collect(),
                    separator,
                );
                if block.cardinality(clean) > 0 {
                    live.push(block);
                    entropies.push(entropy(k));
                }
            }
            let collection = BlockCollection::new(live, clean, separator.min(n), n);
            let mut ctx = GraphSnapshot::build(&collection).with_block_entropies(entropies);
            ctx.ensure_degrees();
            ctx
        }

        /// Moves `snapshot` from `old` to `new` the way
        /// `IncrementalCleaner::apply` does, returning the scope it reports:
        /// the members of every edited slot plus the removed ones, the
        /// nodes whose membership moved plus the members of every slot
        /// whose liveness flipped, and whether |B| moved.
        pub fn patch(
            snapshot: &mut GraphSnapshot,
            n: u32,
            old: &[BTreeSet<u32>],
            new: &[BTreeSet<u32>],
        ) -> DirtyScope {
            let blocks_before = snapshot.total_blocks();
            snapshot.begin_patch(n, new.len());
            let empty = BTreeSet::new();
            let (mut nodes, mut lists) = (BTreeSet::new(), BTreeSet::new());
            let mut changed = Vec::new();
            for (k, now) in new.iter().enumerate() {
                let was = old.get(k).unwrap_or(&empty);
                for &p in was.difference(now) {
                    snapshot.remove_member(k as u32, p);
                    nodes.insert(p);
                    lists.insert(p);
                }
                for &p in now.difference(was) {
                    snapshot.insert_member(k as u32, p);
                    lists.insert(p);
                }
                if was != now {
                    changed.push(k);
                    nodes.extend(now);
                }
            }
            for k in changed {
                if snapshot.restate_slot(k as u32, entropy(k)) {
                    lists.extend(&new[k]);
                    nodes.extend(&new[k]);
                }
            }
            for &p in &lists {
                let row: Vec<u32> = (0..new.len() as u32)
                    .filter(|&k| snapshot.slot_is_live(k) && new[k as usize].contains(&p))
                    .collect();
                snapshot.splice_row(p, &row);
            }
            DirtyScope {
                nodes: nodes.into_iter().collect(),
                lists_changed: lists.into_iter().collect(),
                total_blocks_changed: snapshot.total_blocks() != blocks_before,
            }
        }

        pub fn sets(blocks: &[&[u32]]) -> Vec<BTreeSet<u32>> {
            blocks.iter().map(|b| b.iter().copied().collect()).collect()
        }
    }

    /// The row-local WNP/BLAST decision against [`reference::node_flips`]
    /// through whole commit histories of [`IncrementalMetaBlocker`].
    mod row_local_properties {
        use super::harness::{empty, fresh_snapshot, patch, sets};
        use super::*;
        use blast_core::weighting::ChiSquaredWeigher;
        use blast_graph::pruning::common::collect_weighted_edges;
        use blast_graph::weights::WeightingScheme;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        /// Profiles of a dirty store; a clean-clean store splits them in
        /// half, the first half being the first source.
        const N: u32 = 20;

        /// Runs `history` through one blocker on one patched snapshot (the
        /// last commit forced onto the full tier). After every commit the
        /// delta must equal the reference decision — the same thresholds,
        /// every recomputed pair decided off one global canonical list at
        /// its batch weight, diffed against the retained set as it stood —
        /// bit for bit, the retention bits must hold the reference's set,
        /// and that set must be batch's. Returns the tiers the commits
        /// landed on.
        fn check_history(
            history: &[Vec<BTreeSet<u32>>],
            clean: bool,
            pruning: IncrementalPruning,
            weigher: &dyn EdgeWeigher,
            threads: usize,
        ) -> Vec<RepairTier> {
            let label = format!(
                "{}/{} clean={clean} threads={threads}",
                weigher.name(),
                pruning.label()
            );
            let mut blocker = IncrementalMetaBlocker::new(pruning);
            let mut snapshot = empty(N, clean, threads);
            let mut tiers = Vec::new();
            let mut prev: &[BTreeSet<u32>] = &[];
            for (step, members) in history.iter().enumerate() {
                let scope = patch(&mut snapshot, N, prev, members);
                prev = members;
                if step + 1 == history.len() {
                    blocker.force_full_next();
                }
                let pairs = |blocker: &IncrementalMetaBlocker| -> BTreeSet<(u32, u32)> {
                    blocker.retained().iter().map(|(a, b)| (a.0, b.0)).collect()
                };
                let before = pairs(&blocker);
                let (delta, stats) = blocker.refresh(&mut snapshot, weigher, &scope);
                tiers.push(stats.tier);

                let fresh = fresh_snapshot(members, N, clean);
                let mask = &blocker.mask;
                let keep =
                    threshold_keep(pruning, blocker.node_centric_mode(), &blocker.thresholds);
                let decided = collect_weighted_edges(&fresh, weigher)
                    .into_iter()
                    .filter(|&(u, v, w)| (mask.contains(u) || mask.contains(v)) && keep(u, v, w));
                let (added, retracted) =
                    reference::node_flips(&before, |u| mask.contains(u), decided);
                let got_added: Vec<(u32, u32, u64)> = delta
                    .added_weighted()
                    .map(|((a, b), w)| (a.0, b.0, w.to_bits()))
                    .collect();
                let want_added: Vec<(u32, u32, u64)> =
                    added.iter().map(|&(a, b, w)| (a, b, w.to_bits())).collect();
                assert_eq!(got_added, want_added, "{label} step {step}: added");
                let got_retracted: Vec<(u32, u32)> =
                    delta.retracted.iter().map(|&(a, b)| (a.0, b.0)).collect();
                assert_eq!(got_retracted, retracted, "{label} step {step}: retracted");
                let mut expect = before;
                for p in &retracted {
                    expect.remove(p);
                }
                expect.extend(added.iter().map(|&(a, b, _)| (a, b)));
                assert_eq!(
                    pairs(&blocker),
                    expect,
                    "{label} step {step}: retention bits"
                );
                assert_eq!(
                    blocker.retained().pairs(),
                    pruning.batch_prune(&fresh, weigher).pairs(),
                    "{label} step {step}: batch"
                );
            }
            tiers
        }

        /// Every WNP/BLAST variant under edge-delta repair (CBS, JS, ECBS,
        /// χ², and EJS with its degree events) and under the wide dirty set
        /// of a weigher reading block sizes (ARCS), at 1 and 4 threads.
        fn check_grid(history: &[Vec<BTreeSet<u32>>], clean: bool) -> Vec<RepairTier> {
            let chi = ChiSquaredWeigher::without_entropy();
            let weighers: [&dyn EdgeWeigher; 6] = [
                &WeightingScheme::Cbs,
                &WeightingScheme::Js,
                &WeightingScheme::Arcs,
                &WeightingScheme::Ecbs,
                &chi,
                &WeightingScheme::Ejs,
            ];
            let mut tiers = Vec::new();
            for pruning in [
                IncrementalPruning::Traditional(PruningAlgorithm::Wnp1),
                IncrementalPruning::Traditional(PruningAlgorithm::Wnp2),
                IncrementalPruning::blast(),
            ] {
                for weigher in weighers {
                    for threads in [1, 4] {
                        tiers.extend(check_history(history, clean, pruning, weigher, threads));
                    }
                }
            }
            tiers
        }

        /// A history: the base blocks; the same blocks with the listed
        /// memberships toggled (|B| can stay put: the dirty tier for every
        /// weigher); one more block (|B| moves: the reweigh tier under
        /// ECBS and χ²); and another toggle, forced onto the full tier.
        fn history(
            base: Vec<BTreeSet<u32>>,
            toggles: &[(usize, u32)],
            extra: BTreeSet<u32>,
        ) -> Vec<Vec<BTreeSet<u32>>> {
            let toggled = |mut blocks: Vec<BTreeSet<u32>>, picks: &[(usize, u32)]| {
                for &(i, p) in picks {
                    let set = &mut blocks[i % base.len()];
                    if !set.remove(&p) {
                        set.insert(p);
                    }
                }
                blocks
            };
            let half = toggles.len() / 2;
            let edited = toggled(base.clone(), &toggles[..half]);
            let mut grown = edited.clone();
            grown.push(extra);
            let last = toggled(grown.clone(), &toggles[half..]);
            vec![base, edited, grown, last]
        }

        /// One fixed history reaches every tier on both stores.
        #[test]
        fn row_local_flips_cover_every_tier() {
            let base = sets(&[
                &[0, 1, 2, 12],
                &[1, 2, 13, 14],
                &[3, 4, 12, 15],
                &[0, 4, 5, 16, 17],
            ]);
            let blocks = history(
                base,
                &[(0, 13), (1, 3), (2, 16), (3, 1)],
                [2, 5, 14, 18].into(),
            );
            for clean in [false, true] {
                let tiers = check_grid(&blocks, clean);
                for tier in [RepairTier::Full, RepairTier::Dirty, RepairTier::Reweigh] {
                    assert!(tiers.contains(&tier), "clean={clean}: no {tier:?} commit");
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn prop_row_local_flips_equal_global_sort_reference(
                base in proptest::collection::vec(
                    proptest::collection::btree_set(0u32..N, 0..8), 1..12),
                toggles in proptest::collection::vec((0usize..12, 0u32..N), 0..8),
                extra in proptest::collection::btree_set(0u32..N, 2..6),
                clean in 0u8..2,
            ) {
                check_grid(&history(base, &toggles, extra), clean == 1);
            }
        }
    }

    /// Edge-delta repair keeps the edge cache equal to a from-scratch pass:
    /// histories driven through one patched snapshot exactly as the
    /// cleaner drives it (membership edits, slot restatements with their
    /// liveness flips, row splices), checked after every commit against a
    /// fresh [`touching_pass`] over every node of a snapshot built from
    /// scratch.
    mod cache_properties {
        use super::harness::{empty, fresh_snapshot, patch, sets};
        use super::*;
        use blast_core::weighting::ChiSquaredWeigher;
        use blast_graph::weights::WeightingScheme;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        /// Profiles; a clean-clean store splits them in half.
        pub const N: u32 = 24;

        /// Runs `history` through one blocker on one patched snapshot.
        /// After every commit each cached entry, both mirrors, must equal
        /// the fresh pass's: the weight bits, `common_blocks` and the
        /// `entropy_sum` bits, and the ARCS sum under ARCS (0.0 under
        /// every other weigher); and the retained set must equal batch's.
        /// Returns the tiers the commits landed on.
        fn check_cache(
            history: &[Vec<BTreeSet<u32>>],
            clean: bool,
            pruning: IncrementalPruning,
            weigher: &dyn EdgeWeigher,
            threads: usize,
        ) -> Vec<RepairTier> {
            let label = format!(
                "{}/{} clean={clean} threads={threads}",
                weigher.name(),
                pruning.label()
            );
            let arcs = weigher.global_deps().block_sizes;
            let mut snapshot = empty(N, clean, threads);
            let mut blocker = IncrementalMetaBlocker::new(pruning);
            let mut prev: &[BTreeSet<u32>] = &[];
            let mut tiers = Vec::new();
            for (step, blocks) in history.iter().enumerate() {
                let scope = patch(&mut snapshot, N, prev, blocks);
                let (_, stats) = blocker.refresh(&mut snapshot, weigher, &scope);
                tiers.push(stats.tier);
                prev = blocks;

                let fresh = fresh_snapshot(blocks, N, clean);
                let label = format!("{label} step {step} ({:?})", stats.tier);
                assert_eq!(
                    blocker.retained().pairs(),
                    pruning.batch_prune(&fresh, weigher).pairs(),
                    "{label}: batch"
                );
                let adj = &blocker.adj;
                let all: Vec<u32> = (0..N).collect();
                let mut every = EpochMask::new();
                every.begin(N as usize);
                every.mark_all();
                let pass = touching_pass(
                    &fresh,
                    weigher,
                    &all,
                    &every,
                    |u, v, w, acc| (u, v, w, *acc),
                    None::<fn(u32, &[(u32, f64)])>,
                );
                let mut want: Vec<(u32, u32, f64, EdgeAccum)> = pass
                    .rows()
                    .flat_map(|(_, row)| row)
                    .flat_map(|&(u, v, w, acc)| [(u, v, w, acc), (v, u, w, acc)])
                    .collect();
                want.sort_unstable_by_key(|e| (e.0, e.1));
                let got = adj.entries();
                let key = |&(u, v, w, acc): &(u32, u32, f64, EdgeAccum)| {
                    (
                        u,
                        v,
                        w.to_bits(),
                        acc.common_blocks,
                        acc.entropy_sum.to_bits(),
                    )
                };
                assert_eq!(
                    got.iter().map(key).collect::<Vec<_>>(),
                    want.iter().map(key).collect::<Vec<_>>(),
                    "{label}: cached entries"
                );
                for (g, w) in got.iter().zip(&want) {
                    let expect = if arcs { w.3.arcs } else { 0.0 };
                    assert_eq!(
                        g.3.arcs.to_bits(),
                        expect.to_bits(),
                        "{label}: ({}, {}) arcs",
                        g.0,
                        g.1
                    );
                }
            }
            tiers
        }

        /// The history: the base blocks with one large block `large`; it
        /// grows by `grow` and then loses `shrink`; slot `flip` dies (one
        /// member left) and comes back alive with one member on each side;
        /// and `deleted` leaves every block.
        pub fn history(
            mut base: Vec<BTreeSet<u32>>,
            large: BTreeSet<u32>,
            grow: &BTreeSet<u32>,
            shrink: &BTreeSet<u32>,
            flip: usize,
            deleted: u32,
        ) -> Vec<Vec<BTreeSet<u32>>> {
            base.push(large);
            let l = base.len() - 1;
            let mut steps = vec![base.clone()];
            let mut next = |edit: &mut dyn FnMut(&mut Vec<BTreeSet<u32>>)| {
                let mut blocks = steps.last().expect("a base").clone();
                edit(&mut blocks);
                steps.push(blocks);
            };
            next(&mut |b| b[l].extend(grow));
            next(&mut |b| b[l].retain(|p| !shrink.contains(p)));
            let f = flip % l;
            next(&mut |b| {
                let keep = b[f].first().copied().unwrap_or(0);
                b[f] = [keep].into();
            });
            next(&mut |b| b[f] = [flip as u32 % (N / 2), N / 2 + flip as u32 % (N / 2)].into());
            next(&mut |b| {
                for set in b.iter_mut() {
                    set.remove(&deleted);
                }
            });
            steps
        }

        /// Every variant × weigher × store × thread count the property
        /// covers; returns the tiers the commits landed on.
        fn check_all(history: &[Vec<BTreeSet<u32>>]) -> Vec<RepairTier> {
            let chi = ChiSquaredWeigher::new();
            let weighers: [&dyn EdgeWeigher; 6] = [
                &WeightingScheme::Cbs,
                &WeightingScheme::Js,
                &WeightingScheme::Ecbs,
                &chi,
                &WeightingScheme::Ejs,
                &WeightingScheme::Arcs,
            ];
            let mut tiers = Vec::new();
            for pruning in [
                IncrementalPruning::Traditional(PruningAlgorithm::Wep),
                IncrementalPruning::Traditional(PruningAlgorithm::Cnp1),
                IncrementalPruning::Traditional(PruningAlgorithm::Wnp1),
                IncrementalPruning::blast(),
            ] {
                for weigher in weighers {
                    for clean in [false, true] {
                        for threads in [1, 4] {
                            tiers.extend(check_cache(history, clean, pruning, weigher, threads));
                        }
                    }
                }
            }
            tiers
        }

        /// One fixed history reaches the dirty and the reweigh tier.
        #[test]
        fn cache_equals_fresh_pass_on_a_scripted_history() {
            let base = sets(&[&[0, 1, 12, 13], &[2, 3, 14], &[4, 15, 16], &[1, 5, 17]]);
            let large = (0..8).chain(12..20).collect();
            let steps = history(
                base,
                large,
                &[9, 10, 21, 22].into(),
                &[3, 4, 14].into(),
                1,
                13,
            );
            let tiers = check_all(&steps);
            for tier in [RepairTier::Full, RepairTier::Dirty, RepairTier::Reweigh] {
                assert!(tiers.contains(&tier), "no {tier:?} commit");
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            #[test]
            fn prop_edge_delta_cache_equals_fresh_pass(
                base in proptest::collection::vec(
                    proptest::collection::btree_set(0u32..N, 0..6), 1..8),
                large in proptest::collection::btree_set(0u32..N, 8..16),
                grow in proptest::collection::btree_set(0u32..N, 1..6),
                shrink in proptest::collection::btree_set(0u32..N, 1..6),
                flip in 0usize..N as usize,
                deleted in 0u32..N,
            ) {
                check_all(&history(base, large, &grow, &shrink, flip, deleted));
            }
        }
    }

    /// The decisions of every variant (WEP, CEP, WNP1, WNP2, BLAST, CNP1,
    /// CNP2), flip by flip, through histories driven into one patched
    /// snapshot: after each commit the delta must be the set difference
    /// between consecutive batch results, and each added pair must carry
    /// the weight batch's edge pass gives it, bit for bit.
    mod edge_flip_properties {
        use super::cache_properties::{history, N};
        use super::harness::{empty, fresh_snapshot, patch, sets};
        use super::*;
        use blast_core::weighting::ChiSquaredWeigher;
        use blast_graph::pruning::common::collect_weighted_edges;
        use blast_graph::weights::WeightingScheme;
        use proptest::prelude::*;
        use std::collections::{BTreeMap, BTreeSet};

        /// Runs `history` through one blocker, the last commit forced onto
        /// the full tier, and checks every delta against batch. Returns
        /// the tiers the commits landed on.
        fn check_flips(
            history: &[Vec<BTreeSet<u32>>],
            clean: bool,
            pruning: IncrementalPruning,
            weigher: &dyn EdgeWeigher,
            threads: usize,
        ) -> Vec<RepairTier> {
            let label = format!(
                "{}/{} clean={clean} threads={threads}",
                weigher.name(),
                pruning.label()
            );
            let mut snapshot = empty(N, clean, threads);
            let mut blocker = IncrementalMetaBlocker::new(pruning);
            let mut prev: &[BTreeSet<u32>] = &[];
            let mut retained: BTreeSet<(u32, u32)> = BTreeSet::new();
            let mut tiers = Vec::new();
            for (step, blocks) in history.iter().enumerate() {
                let scope = patch(&mut snapshot, N, prev, blocks);
                prev = blocks;
                if step + 1 == history.len() {
                    blocker.force_full_next();
                }
                let (delta, stats) = blocker.refresh(&mut snapshot, weigher, &scope);
                tiers.push(stats.tier);
                let label = format!("{label} step {step} ({:?})", stats.tier);

                let fresh = fresh_snapshot(blocks, N, clean);
                let batch: BTreeSet<(u32, u32)> = pruning
                    .batch_prune(&fresh, weigher)
                    .pairs()
                    .iter()
                    .map(|&(a, b)| (a.0, b.0))
                    .collect();
                let weights: BTreeMap<(u32, u32), u64> = collect_weighted_edges(&fresh, weigher)
                    .into_iter()
                    .map(|(u, v, w)| ((u, v), w.to_bits()))
                    .collect();
                let want_added: Vec<(u32, u32, u64)> = batch
                    .difference(&retained)
                    .map(|&(a, b)| (a, b, weights[&(a, b)]))
                    .collect();
                let want_retracted: Vec<(u32, u32)> =
                    retained.difference(&batch).copied().collect();
                let got_added: Vec<(u32, u32, u64)> = delta
                    .added_weighted()
                    .map(|((a, b), w)| (a.0, b.0, w.to_bits()))
                    .collect();
                let got_retracted: Vec<(u32, u32)> =
                    delta.retracted.iter().map(|&(a, b)| (a.0, b.0)).collect();
                assert_eq!(got_added, want_added, "{label}: added");
                assert_eq!(got_retracted, want_retracted, "{label}: retracted");
                assert_eq!(blocker.retained_len(), batch.len(), "{label}: count");
                retained = batch;
            }
            tiers
        }

        /// Every variant × weigher × store × thread count; returns the
        /// tiers the commits landed on.
        fn check_all(history: &[Vec<BTreeSet<u32>>]) -> Vec<RepairTier> {
            let chi = ChiSquaredWeigher::new();
            let weighers: [&dyn EdgeWeigher; 4] = [
                &WeightingScheme::Cbs,
                &WeightingScheme::Ecbs,
                &WeightingScheme::Ejs,
                &chi,
            ];
            let mut tiers = Vec::new();
            let traditional = [
                PruningAlgorithm::Wep,
                PruningAlgorithm::Cep,
                PruningAlgorithm::Wnp1,
                PruningAlgorithm::Wnp2,
                PruningAlgorithm::Cnp1,
                PruningAlgorithm::Cnp2,
            ]
            .map(IncrementalPruning::Traditional);
            for pruning in traditional.into_iter().chain([IncrementalPruning::blast()]) {
                for weigher in weighers {
                    for clean in [false, true] {
                        for threads in [1, 4] {
                            tiers.extend(check_flips(history, clean, pruning, weigher, threads));
                        }
                    }
                }
            }
            tiers
        }

        /// One fixed history reaches every tier.
        #[test]
        fn cached_variant_flips_equal_batch_differences_on_a_scripted_history() {
            let base = sets(&[&[0, 1, 12, 13], &[2, 3, 14], &[4, 15, 16], &[1, 5, 17]]);
            let large = (0..8).chain(12..20).collect();
            let steps = history(
                base,
                large,
                &[9, 10, 21, 22].into(),
                &[3, 4, 14].into(),
                1,
                13,
            );
            let tiers = check_all(&steps);
            for tier in [RepairTier::Full, RepairTier::Dirty, RepairTier::Reweigh] {
                assert!(tiers.contains(&tier), "no {tier:?} commit");
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            #[test]
            fn prop_cached_variant_flips_equal_batch_differences(
                base in proptest::collection::vec(
                    proptest::collection::btree_set(0u32..N, 0..6), 1..8),
                large in proptest::collection::btree_set(0u32..N, 8..16),
                grow in proptest::collection::btree_set(0u32..N, 1..6),
                shrink in proptest::collection::btree_set(0u32..N, 1..6),
                flip in 0usize..N as usize,
                deleted in 0u32..N,
            ) {
                check_all(&history(base, large, &grow, &shrink, flip, deleted));
            }
        }
    }
}
