//! BLAST's graph pruning (§3.3.2).
//!
//! WNP thresholds that depend on the number of adjacent edges (like the mean
//! weight) are sensitive to low-weight neighbours: adding unrelated profiles
//! changes whether an edge survives (Fig. 6). BLAST instead anchors each
//! node's threshold to its *local maximum* weight — θᵢ = Mᵢ/c — and resolves
//! the two-threshold ambiguity of Fig. 7 with a single per-edge threshold
//! θᵢⱼ = (θᵢ + θⱼ)/d. The paper uses c = d = 2.
//!
//! ## One traversal
//!
//! [`BlastPruning::prune`] runs **one** parallel pass over the edge owners
//! ([`GraphSnapshot::edge_owner_range`]: the first collection on
//! clean-clean graphs, every node on dirty ones). Each owner u loads its
//! adjacency once and, per neighbour v, weighs w = `weight(u, v, acc)` —
//! folded into u's own maximum in ascending-v order, exactly the fold a
//! node pass over u's row makes — and w′ = `weight(v, u, acc)`, the weight
//! v's own row would fold. On clean-clean graphs v is never an owner, so
//! w′ goes into v's maximum in a shared `AtomicU64` (f64 bits, a
//! compare-exchange on `f64::max`); a maximum does not depend on the order
//! it is folded in, so neither do the thresholds. On dirty graphs every
//! node owns its own row, so its maximum is complete from that row alone.
//! This relies on accumulators being bit-symmetric: u's and v's loads add
//! the same shared blocks in the same canonical order, so the `acc` u sees
//! is the one v would see. The only freedom left is the sign of a zero
//! maximum, which no decision reads (an edge needs w > 0).
//!
//! Loads per prune are n₁ on clean-clean graphs (was n + n₁) and n on dirty
//! ones (was 2n); weighings per edge are 2 on clean-clean graphs (was 3)
//! and stay 3 on dirty ones.
//!
//! ## The exact pre-filter
//!
//! Once u's row is weighed, θᵤ is final, but θᵥ may still grow (other
//! owners of v are pending). The row keeps only the edges with w > 0 and
//! w ≥ (θᵤ + mᵥ/c)/d, where mᵥ is the largest weight of v known when the
//! edge was weighed: w′ on dirty graphs, and on clean-clean graphs v's
//! shared maximum right after w′ was folded into it, so w′ ≤ mᵥ ≤ Mᵥ.
//! That filter never drops an edge the final rule keeps: Mᵥ ≥ mᵥ, and
//! division by c > 0, addition and division by d > 0 are monotone under
//! IEEE rounding, so (θᵤ + mᵥ/c)/d ≤ (θᵤ + θᵥ)/d. Which edges pass the
//! filter may depend on the schedule; the result cannot, because a second
//! step applies the exact rule with the final thresholds to the candidates
//! left. The row is filtered in a per-worker buffer before anything
//! reaches the chunk's candidate list, so the candidates never hold more
//! than the edges that survive the filter.
//!
//! WNP and CNP cannot follow: WNP's mean is a sum, and a float sum folded
//! in another order is not bit-equal; CNP's top-k list is not one word a
//! compare-exchange can fold. They stay two-pass
//! ([`blast_graph::pruning::common::node_pass`] then
//! [`blast_graph::pruning::common::collect_edges`]).
//!
//! ## Static dispatch
//!
//! The traversal weighs every edge twice, and on the paper's pipeline that
//! weighing is the largest single share of the prune. [`BlastPruning::prune`] and
//! [`BlastPruning::thresholds`] are therefore generic over the weigher
//! (`W: EdgeWeigher + ?Sized`): a caller holding a concrete weigher (the
//! pipeline's `ChiSquaredWeigher`) gets a copy of the row loop specialised
//! to it, in which the weight is an inlined expression rather than an
//! out-of-line `dyn` call — and then w and w′, which read the same four
//! contingency cells in another summation order, share their quotients. A
//! caller holding `&dyn EdgeWeigher` instantiates `W = dyn EdgeWeigher`
//! and runs the same body as before. Inlining across crates only happens
//! where the callee allows it, so a weigher meant for this hot path marks
//! its `weight` (and what it calls) `#[inline]`; without that, the
//! specialised copy still calls the weight out of line.

use blast_datamodel::parallel::{chunk_len, parallel_work_steal};
use blast_graph::context::GraphSnapshot;
use blast_graph::pruning::common::pair;
use blast_graph::retained::RetainedPairs;
use blast_graph::traversal::{NodeScratch, ScratchLease};
use blast_graph::weights::EdgeWeigher;
use std::sync::atomic::{AtomicU64, Ordering};

/// BLAST's weight-based, node-centric, degree-independent pruning.
#[derive(Debug, Clone, Copy)]
pub struct BlastPruning {
    /// Local threshold divisor: θᵢ = Mᵢ/c. Higher c → higher PC, lower PQ.
    pub c: f64,
    /// Pair threshold divisor: θᵢⱼ = (θᵢ + θⱼ)/d. d = 2 → mean of the two.
    pub d: f64,
}

impl Default for BlastPruning {
    fn default() -> Self {
        Self { c: 2.0, d: 2.0 }
    }
}

impl BlastPruning {
    /// The paper's configuration (c = 2, d = 2).
    pub fn new() -> Self {
        Self::default()
    }

    /// Custom constants (both must be positive).
    pub fn with_constants(c: f64, d: f64) -> Self {
        assert!(c > 0.0 && d > 0.0, "c and d must be positive");
        Self { c, d }
    }

    /// The per-node thresholds θᵢ = Mᵢ/c (+∞ for isolated nodes), from the
    /// same one-pass traversal [`BlastPruning::prune`] runs.
    ///
    /// # Panics
    ///
    /// If the weigher reads node degrees and `ctx` has none (see
    /// [`BlastPruning::prune`]).
    pub fn thresholds<W: EdgeWeigher + ?Sized>(
        &self,
        ctx: &GraphSnapshot,
        weigher: &W,
    ) -> Vec<f64> {
        self.pass(ctx, weigher).thresholds
    }

    /// Prunes the graph: edge (u,v) survives iff w > 0 and
    /// w ≥ (θᵤ + θᵥ)/d.
    ///
    /// # Panics
    ///
    /// If the weigher reads node degrees (EJS, or an entropy wrapper over
    /// it) and [`GraphSnapshot::ensure_degrees`] has not run on `ctx`.
    pub fn prune<W: EdgeWeigher + ?Sized>(
        &self,
        ctx: &GraphSnapshot,
        weigher: &W,
    ) -> RetainedPairs {
        let Pass {
            thresholds,
            candidates,
        } = self.pass(ctx, weigher);
        let d = self.d;
        let pairs = candidates
            .iter()
            .flatten()
            .filter(|&&(u, v, w)| keeps(w, thresholds[u as usize], thresholds[v as usize], d))
            .map(|&(u, v, _)| pair(u, v))
            .collect();
        // Chunks ascend by owner and rows by neighbour, and every owner is
        // the smaller endpoint: the pairs come out canonical and sorted.
        RetainedPairs::from_sorted(pairs)
    }

    /// The one traversal (see the module docs).
    fn pass<W: EdgeWeigher + ?Sized>(&self, ctx: &GraphSnapshot, weigher: &W) -> Pass {
        assert!(
            !weigher.requires_degrees() || ctx.has_degrees(),
            "BlastPruning: the {} weigher reads node degrees; \
             call GraphSnapshot::ensure_degrees() before pruning",
            weigher.name()
        );
        let (c, d) = (self.c, self.d);
        let clean = ctx.is_clean_clean();
        // The owners are the id prefix `0..owners`; on clean-clean graphs
        // the rest (the second collection) get their maxima from the
        // owners' rows.
        let owners = ctx.edge_owner_range().end;
        let far: Vec<AtomicU64> = (owners..ctx.total_profiles())
            .map(|_| AtomicU64::new(f64::NEG_INFINITY.to_bits()))
            .collect();
        let len = owners as usize;
        let chunks = parallel_work_steal(
            len,
            ctx.threads(),
            chunk_len(len),
            || (NodeScratch::lease(ctx), Vec::new()),
            |(scratch, row): &mut (ScratchLease, Vec<(u32, f64, f64)>), range| {
                let mut thresholds = Vec::with_capacity(range.len());
                let mut candidates = Vec::new();
                for u in range {
                    let u = u as u32;
                    scratch.load(ctx, u);
                    row.clear();
                    let mut max = f64::NEG_INFINITY;
                    for (v, acc) in scratch.iter() {
                        let w = weigher.weight(ctx, u, v, &acc);
                        max = max.max(w);
                        // Dirty graphs: the edge is decided from its
                        // smaller endpoint.
                        if clean || v > u {
                            let w_far = weigher.weight(ctx, v, u, &acc);
                            // The largest weight of v seen so far: ≥ w′,
                            // ≤ Mᵥ.
                            let m_far = if clean {
                                fold_max(&far[(v - owners) as usize], w_far)
                            } else {
                                w_far
                            };
                            row.push((v, w, m_far));
                        }
                    }
                    let theta = threshold(max, c);
                    candidates.extend(
                        row.iter()
                            .filter(|&&(_, w, m_far)| may_keep(w, theta, m_far / c, d))
                            .map(|&(v, w, _)| (u, v, w)),
                    );
                    thresholds.push(theta);
                }
                (thresholds, candidates)
            },
        );
        let mut thresholds = Vec::with_capacity(ctx.total_profiles() as usize);
        let mut candidates = Vec::with_capacity(chunks.len());
        for (t, edges) in chunks {
            thresholds.extend(t);
            candidates.push(edges);
        }
        thresholds.extend(
            far.iter()
                .map(|m| threshold(f64::from_bits(m.load(Ordering::Relaxed)), c)),
        );
        Pass {
            thresholds,
            candidates,
        }
    }
}

/// What one traversal produced.
struct Pass {
    /// θ of every node, indexed by id.
    thresholds: Vec<f64>,
    /// Per chunk, the edges `(u, v, w)` that passed the pre-filter,
    /// ascending by `(u, v)`.
    candidates: Vec<Vec<(u32, u32, f64)>>,
}

/// θ = M/c, or +∞ for a node without a finite maximum (an isolated node
/// accepts nothing).
#[inline]
fn threshold(max: f64, c: f64) -> f64 {
    if max.is_finite() {
        max / c
    } else {
        f64::INFINITY
    }
}

/// BLAST's rule: w > 0 and w ≥ (θᵤ + θᵥ)/d.
#[inline]
fn keeps(w: f64, theta_u: f64, theta_v: f64, d: f64) -> bool {
    w > 0.0 && w >= (theta_u + theta_v) / d
}

/// The pre-filter: [`keeps`] with a lower bound of θᵥ. A NaN bound lets
/// the edge through, so the filter can only keep more than the rule.
#[inline]
fn may_keep(w: f64, theta_u: f64, theta_v_floor: f64, d: f64) -> bool {
    let bound = (theta_u + theta_v_floor) / d;
    w > 0.0 && (bound.is_nan() || w >= bound)
}

/// Folds `w` into a maximum held as f64 bits and returns the maximum after
/// the fold. Like `f64::max`, a NaN never replaces the current value.
#[inline]
fn fold_max(slot: &AtomicU64, w: f64) -> f64 {
    let mut current = slot.load(Ordering::Relaxed);
    while w > f64::from_bits(current) {
        match slot.compare_exchange_weak(current, w.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => return w,
            Err(seen) => current = seen,
        }
    }
    f64::from_bits(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weighting::{ChiSquaredWeigher, WsEntropyWeigher};
    use blast_blocking::block::Block;
    use blast_blocking::collection::BlockCollection;
    use blast_blocking::key::ClusterId;
    use blast_blocking::token_blocking::TokenBlocking;
    use blast_datamodel::collection::EntityCollection;
    use blast_datamodel::entity::{ProfileId, SourceId};
    use blast_datamodel::input::ErInput;
    use blast_graph::weights::WeightingScheme;

    /// The two-pass body the one-pass traversal replaced — a node pass for
    /// the thresholds, then an edge pass for the decisions — kept as the
    /// reference it must equal.
    mod reference {
        use super::super::*;
        use blast_graph::pruning::common::{collect_edges, node_pass};

        pub fn thresholds(
            p: &BlastPruning,
            ctx: &GraphSnapshot,
            weigher: &dyn EdgeWeigher,
        ) -> Vec<f64> {
            let c = p.c;
            node_pass(ctx, weigher, move |_, adj| {
                let max = adj
                    .iter()
                    .map(|(_, w)| *w)
                    .fold(f64::NEG_INFINITY, f64::max);
                if max.is_finite() {
                    max / c
                } else {
                    f64::INFINITY
                }
            })
        }

        pub fn prune(
            p: &BlastPruning,
            ctx: &GraphSnapshot,
            weigher: &dyn EdgeWeigher,
        ) -> RetainedPairs {
            let thresholds = thresholds(p, ctx, weigher);
            let d = p.d;
            let pairs = collect_edges(ctx, weigher, |u, v, w| {
                let theta = (thresholds[u as usize] + thresholds[v as usize]) / d;
                (w > 0.0 && w >= theta).then(|| pair(u, v))
            });
            RetainedPairs::new(pairs)
        }
    }

    fn ids(v: &[u32]) -> Vec<ProfileId> {
        v.iter().map(|&i| ProfileId(i)).collect()
    }

    /// A star around node 0: weight 4 to node 1, weight 1 to nodes 2..n.
    fn star(extra: u32) -> BlockCollection {
        let mut blocks = Vec::new();
        for i in 0..4 {
            blocks.push(Block::new(
                format!("m{i}"),
                ClusterId::GLUE,
                ids(&[0, 1]),
                u32::MAX,
            ));
        }
        for e in 0..extra {
            blocks.push(Block::new(
                format!("x{e}"),
                ClusterId::GLUE,
                ids(&[0, 2 + e]),
                u32::MAX,
            ));
        }
        let n = 2 + extra;
        BlockCollection::new(blocks, false, n, n)
    }

    #[test]
    fn thresholds_are_local_max_over_c() {
        let blocks = star(2);
        let ctx = GraphSnapshot::build(&blocks);
        let t = BlastPruning::new().thresholds(&ctx, &WeightingScheme::Cbs);
        // node 0: max weight 4 → θ = 2; node 1: max 4 → 2; nodes 2,3: max 1.
        assert!((t[0] - 2.0).abs() < 1e-12);
        assert!((t[1] - 2.0).abs() < 1e-12);
        assert!((t[2] - 0.5).abs() < 1e-12);
    }

    /// The Fig. 6 robustness property: BLAST's threshold for node 0 does not
    /// move when unrelated low-weight neighbours appear.
    #[test]
    fn threshold_independent_of_degree() {
        let few = star(1);
        let many = star(40);
        let ctx_few = GraphSnapshot::build(&few);
        let ctx_many = GraphSnapshot::build(&many);
        let t_few = BlastPruning::new().thresholds(&ctx_few, &WeightingScheme::Cbs);
        let t_many = BlastPruning::new().thresholds(&ctx_many, &WeightingScheme::Cbs);
        assert_eq!(t_few[0], t_many[0], "θ₀ = M/c is degree-independent");
    }

    #[test]
    fn prunes_low_weight_edges() {
        let blocks = star(3);
        let ctx = GraphSnapshot::build(&blocks);
        let retained = BlastPruning::new().prune(&ctx, &WeightingScheme::Cbs);
        // Edge (0,1): w=4 ≥ (2+2)/2 → kept. Edges (0,k): w=1 < (2+0.5)/2 →
        // pruned.
        assert_eq!(retained.len(), 1);
        assert!(retained.contains(ProfileId(0), ProfileId(1)));
    }

    #[test]
    fn higher_c_retains_more() {
        let blocks = star(3);
        let ctx = GraphSnapshot::build(&blocks);
        let strict = BlastPruning::with_constants(1.0, 2.0).prune(&ctx, &WeightingScheme::Cbs);
        let loose = BlastPruning::with_constants(8.0, 2.0).prune(&ctx, &WeightingScheme::Cbs);
        assert!(loose.len() >= strict.len());
        // "a higher value for c can achieve higher PC, but at the expense
        // of PQ": with c=8 the weak edges also survive.
        assert_eq!(loose.len(), 4);
    }

    #[test]
    fn zero_weight_edges_never_survive() {
        // Two nodes co-occurring exactly as independence predicts → χ² = 0.
        let blocks = star(1);
        let ctx = GraphSnapshot::build(&blocks);
        struct ZeroWeigher;
        impl EdgeWeigher for ZeroWeigher {
            fn weight(
                &self,
                _: &GraphSnapshot,
                _: u32,
                _: u32,
                _: &blast_graph::context::EdgeAccum,
            ) -> f64 {
                0.0
            }
        }
        let retained = BlastPruning::new().prune(&ctx, &ZeroWeigher);
        assert!(retained.is_empty());
    }

    /// End-to-end on the Figure 1 example with the χ² weigher: the matching
    /// edges (p1,p3) and (p2,p4) must survive, the superfluous ones must go.
    #[test]
    fn figure1_blast_pruning_keeps_matches() {
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
        let blocks = TokenBlocking::new().build(&ErInput::dirty(d));
        let ctx = GraphSnapshot::build(&blocks);
        let retained = BlastPruning::new().prune(&ctx, &ChiSquaredWeigher::without_entropy());
        assert!(retained.contains(ProfileId(0), ProfileId(2)), "p1–p3 kept");
        assert!(retained.contains(ProfileId(1), ProfileId(3)), "p2–p4 kept");
        assert!(
            !retained.contains(ProfileId(0), ProfileId(1)),
            "p1–p2 pruned"
        );
        assert!(
            !retained.contains(ProfileId(2), ProfileId(3)),
            "p3–p4 pruned"
        );
    }

    /// A degree-reading weigher on a snapshot without degrees is refused on
    /// entry, with a message that names the fix — also where a worker
    /// panic would only surface as "parallel worker panicked".
    fn prune_ejs_without_degrees(threads: usize) {
        let ctx = GraphSnapshot::build(&star(100)).with_threads(threads);
        BlastPruning::new().prune(&ctx, &WeightingScheme::Ejs);
    }

    #[test]
    #[should_panic(expected = "ensure_degrees")]
    fn degree_weigher_without_degrees_panics_on_entry_1_thread() {
        prune_ejs_without_degrees(1);
    }

    #[test]
    #[should_panic(expected = "ensure_degrees")]
    fn degree_weigher_without_degrees_panics_on_entry_4_threads() {
        prune_ejs_without_degrees(4);
    }

    #[test]
    #[should_panic(expected = "ensure_degrees")]
    fn thresholds_check_degrees_on_entry() {
        let ctx = GraphSnapshot::build(&star(100)).with_threads(4);
        let weigher = WsEntropyWeigher::new(WeightingScheme::Ejs);
        BlastPruning::new().thresholds(&ctx, &weigher);
    }

    /// The one-pass prune and thresholds ≡ the two-pass reference on one
    /// collection, for every weigher, constant pair and thread count, both
    /// through `&dyn EdgeWeigher` and through the concrete weigher types the
    /// pipelines instantiate. Thresholds are bit-equal except for the sign
    /// of a zero maximum, and a prune loads each edge owner's adjacency
    /// once (the separator on clean-clean graphs, n on dirty ones).
    fn assert_one_pass_matches_reference(blocks: &BlockCollection) {
        let entropies: Vec<f64> = (0..blocks.len()).map(|i| (i % 4) as f64 * 0.75).collect();
        let weighers: [&dyn EdgeWeigher; 7] = [
            &WeightingScheme::Cbs,
            &WeightingScheme::Arcs,
            &WeightingScheme::Js,
            &WeightingScheme::Ecbs,
            &WeightingScheme::Ejs,
            &ChiSquaredWeigher::without_entropy(),
            &ChiSquaredWeigher::new(),
        ];
        let chi_h = ChiSquaredWeigher::new();
        let chi = ChiSquaredWeigher::without_entropy();
        let cbs = WeightingScheme::Cbs;
        let ws_ejs = WsEntropyWeigher::new(WeightingScheme::Ejs);
        let owners = if blocks.is_clean_clean() {
            blocks.separator()
        } else {
            blocks.total_profiles()
        };
        for with_entropies in [false, true] {
            for threads in [1usize, 4] {
                let mut ctx = GraphSnapshot::build(blocks).with_threads(threads);
                if with_entropies {
                    ctx = ctx.with_block_entropies(entropies.clone());
                }
                ctx.ensure_degrees();
                let setting = format!("threads={threads} entropies={with_entropies}");
                for weigher in weighers {
                    assert_matches_reference(&ctx, weigher, weigher, owners, &setting);
                }
                assert_matches_reference(&ctx, &chi_h, &chi_h, owners, &setting);
                assert_matches_reference(&ctx, &chi, &chi, owners, &setting);
                assert_matches_reference(&ctx, &cbs, &cbs, owners, &setting);
                assert_matches_reference(&ctx, &ws_ejs, &ws_ejs, owners, &setting);
            }
        }
    }

    /// [`assert_one_pass_matches_reference`] for one weigher: the prune runs
    /// instantiated at `W`, the reference through `as_dyn` (the same
    /// weigher).
    fn assert_matches_reference<W: EdgeWeigher + ?Sized>(
        ctx: &GraphSnapshot,
        weigher: &W,
        as_dyn: &dyn EdgeWeigher,
        owners: u32,
        setting: &str,
    ) {
        for (c, d) in [(2.0, 2.0), (1.0, 2.0), (8.0, 0.5)] {
            let p = BlastPruning::with_constants(c, d);
            let label = format!(
                "{} as {} c={c} d={d} {setting}",
                weigher.name(),
                std::any::type_name::<W>()
            );
            let expect = reference::prune(&p, ctx, as_dyn);
            let before = ctx.scratch_loads();
            let got = p.prune(ctx, weigher);
            assert_eq!(
                ctx.scratch_loads() - before,
                owners as u64,
                "{label}: loads"
            );
            assert_eq!(got, expect, "{label}: retained pairs");

            let expect = reference::thresholds(&p, ctx, as_dyn);
            let got = p.thresholds(ctx, weigher);
            assert_eq!(got.len(), expect.len(), "{label}: threshold count");
            for (node, (g, e)) in got.iter().zip(&expect).enumerate() {
                if *e == 0.0 {
                    assert_eq!(*g, 0.0, "{label}: θ of node {node}");
                } else {
                    assert_eq!(g.to_bits(), e.to_bits(), "{label}: θ of node {node}");
                }
            }
        }
    }

    mod one_pass_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn prop_one_pass_equals_two_pass_reference_dirty(
                memberships in proptest::collection::vec(
                    proptest::collection::btree_set(0u32..24, 0..10), 1..24),
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
                assert_one_pass_matches_reference(&BlockCollection::new(blocks, false, 24, 24));
            }

            #[test]
            fn prop_one_pass_equals_two_pass_reference_clean_clean(
                memberships in proptest::collection::vec(
                    proptest::collection::btree_set(0u32..20, 0..8), 1..20),
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
                assert_one_pass_matches_reference(
                    &BlockCollection::new(blocks, true, separator, 20),
                );
            }
        }
    }
}
