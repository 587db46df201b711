//! Traditional edge-weighting schemes (§4.1.1, from \[20\]).
//!
//! | scheme | weight of edge (u,v) |
//! |--------|----------------------|
//! | CBS    | `|B_uv|` — number of shared blocks |
//! | ECBS   | `|B_uv| · ln(|B|/|B_u|) · ln(|B|/|B_v|)` |
//! | JS     | `|B_uv| / (|B_u| + |B_v| − |B_uv|)` |
//! | EJS    | `JS · ln(|E_G|/deg(u)) · ln(|E_G|/deg(v))` |
//! | ARCS   | `Σ_{b ∈ B_uv} 1/‖b‖` |
//!
//! `|B_x|` is the number of blocks containing x, `|B|` the total block
//! count, `|E_G|` the number of graph edges and `deg(x)` the node degree.

use crate::context::{EdgeAccum, GraphSnapshot};

/// The *global* graph statistics a weighting formula reads besides the
/// per-edge accumulator. Incremental repair uses this to decide how far a
/// mutation's dirtiness propagates: a scheme reading only the accumulator
/// (CBS) is repaired from the mutated blocks alone, one reading per-node
/// block counts (JS) additionally dirties the neighbourhoods of nodes whose
/// block list changed, and one reading the total block count (ECBS, χ²)
/// promotes any commit that moved |B| to the repair ladder's *reweigh*
/// tier: every live edge's weight is re-derived from its cached
/// accumulator and the new |B| (see the factored-weight contract on
/// [`EdgeWeigher`]), without re-traversing a single block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightDeps {
    /// Reads |B_u| / |B_v| (the per-node block counts).
    pub node_blocks: bool,
    /// Reads |B| (the total block count).
    pub total_blocks: bool,
    /// Reads the block sizes ‖b‖ through the accumulator (ARCS's
    /// Σ 1/‖b‖). A block whose membership moved then moves the accumulator
    /// of every pair of its members, not only of the members whose block
    /// list moved — so the incremental repair re-accumulates every member
    /// of a changed block. Without it, only the accumulators of nodes whose
    /// cleaned block list moved change (`common_blocks` and `entropy_sum`
    /// read no block size), and an edge cache keeps no ARCS sum.
    pub block_sizes: bool,
}

impl WeightDeps {
    /// Accumulator-only weighting that reads no block size (CBS).
    pub const NONE: WeightDeps = WeightDeps {
        node_blocks: false,
        total_blocks: false,
        block_sizes: false,
    };
    /// Reads the per-node block counts but not |B| (JS).
    pub const NODE_BLOCKS: WeightDeps = WeightDeps {
        node_blocks: true,
        ..WeightDeps::NONE
    };
    /// Reads the per-node block counts and |B|, but no block size (ECBS,
    /// EJS, χ²).
    pub const BLOCK_COUNTS: WeightDeps = WeightDeps {
        node_blocks: true,
        total_blocks: true,
        block_sizes: false,
    };
    /// Reads the block sizes and no global (ARCS).
    pub const BLOCK_SIZES: WeightDeps = WeightDeps {
        block_sizes: true,
        ..WeightDeps::NONE
    };
    /// Reads everything — the conservative default for custom weighers.
    pub const ALL: WeightDeps = WeightDeps {
        node_blocks: true,
        total_blocks: true,
        block_sizes: true,
    };
}

/// A weight that factors per endpoint: for a canonical edge `u < v`, the
/// weigher's `weight(ctx, u, v, acc)` is bit for bit
/// `(local(ctx, u, v, acc) * factor(ctx, u)) * factor(ctx, v)` — the same
/// IEEE operations in the same order. A sweep that restates many weights at
/// once (the incremental reweigh tier) computes each node's factor once and
/// pays two multiplications per edge.
pub trait FactoredWeight: Sync {
    /// The edge-local part of the weight.
    fn local(&self, ctx: &GraphSnapshot, u: u32, v: u32, acc: &EdgeAccum) -> f64;

    /// Node `u`'s factor.
    fn factor(&self, ctx: &GraphSnapshot, u: u32) -> f64;
}

/// Computes the weight of one edge from its accumulator and the graph
/// context. Implemented by the five traditional schemes here and by
/// `blast-core`'s two weighers: `ChiSquaredWeigher` (BLAST's χ²·h, or plain
/// χ²) and `WsEntropyWeigher` (a traditional scheme scaled by h).
///
/// A pass generic over `W: EdgeWeigher + ?Sized` (BLAST's prune) inlines a
/// concrete weigher's `weight` into its row loop when the implementation
/// is marked `#[inline]`, as every weigher in this workspace is; through
/// `&dyn EdgeWeigher` each weight is one out-of-line call.
///
/// ## The factored-weight contract
///
/// A weight must be a **pure function of the per-edge accumulator plus
/// O(1) snapshot statistics** — the globals (|B|, |E_G|) and the per-node
/// values (|B_u|, deg(u)) read through `ctx`. This factoring into
/// *(local components, global scalars)* is what the incremental repair
/// ladder's reweigh tier relies on: when only a global scalar drifts, every
/// clean edge's weight is re-derived from its **cached** accumulator and
/// the patched snapshot through this very method — no block is traversed,
/// and the result is bit-identical to a batch pass because the inputs are.
/// Implementations must not read anything commit-order-dependent.
pub trait EdgeWeigher: Sync {
    /// The weight of edge (u, v).
    fn weight(&self, ctx: &GraphSnapshot, u: u32, v: u32, acc: &EdgeAccum) -> f64;

    /// Whether [`GraphSnapshot::ensure_degrees`] must run before weighting.
    fn requires_degrees(&self) -> bool {
        false
    }

    /// The global statistics this weigher's formula reads (drives the
    /// dirtiness propagation of incremental repair). The default is the
    /// conservative [`WeightDeps::ALL`], which is always sound: unknown
    /// weighers fall back to full re-weighting when global statistics move.
    fn global_deps(&self) -> WeightDeps {
        WeightDeps::ALL
    }

    /// The per-endpoint factoring of this weigher's weight, if it has one
    /// ([`FactoredWeight`]). The default is none: callers fall back to
    /// [`EdgeWeigher::weight`].
    fn factoring(&self) -> Option<&dyn FactoredWeight> {
        None
    }

    /// Short name for reports.
    fn name(&self) -> &'static str {
        "custom"
    }
}

/// The five traditional weighting schemes of graph-based meta-blocking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WeightingScheme {
    /// Aggregate Reciprocal Comparisons: Σ 1/‖b‖ over shared blocks.
    Arcs,
    /// Common Blocks: |B_uv|.
    Cbs,
    /// Enhanced Common Blocks: CBS damped by block-list sizes.
    Ecbs,
    /// Jaccard of the two block lists.
    Js,
    /// Enhanced Jaccard: JS damped by node degrees.
    Ejs,
}

impl WeightingScheme {
    /// All five schemes, in the order the paper reports them.
    pub const ALL: [WeightingScheme; 5] = [
        WeightingScheme::Arcs,
        WeightingScheme::Js,
        WeightingScheme::Ejs,
        WeightingScheme::Cbs,
        WeightingScheme::Ecbs,
    ];

    /// Jaccard similarity of the block lists of `u` and `v`.
    #[inline]
    fn js(ctx: &GraphSnapshot, u: u32, v: u32, acc: &EdgeAccum) -> f64 {
        let bu = ctx.node_blocks(u) as f64;
        let bv = ctx.node_blocks(v) as f64;
        let common = acc.common_blocks as f64;
        let denom = bu + bv - common;
        if denom <= 0.0 {
            0.0
        } else {
            common / denom
        }
    }
}

impl EdgeWeigher for WeightingScheme {
    #[inline]
    fn weight(&self, ctx: &GraphSnapshot, u: u32, v: u32, acc: &EdgeAccum) -> f64 {
        match self {
            WeightingScheme::Arcs => acc.arcs,
            WeightingScheme::Cbs => acc.common_blocks as f64,
            WeightingScheme::Ecbs => {
                self.local(ctx, u, v, acc) * self.factor(ctx, u) * self.factor(ctx, v)
            }
            WeightingScheme::Js => Self::js(ctx, u, v, acc),
            WeightingScheme::Ejs => {
                if ctx.degree(u) == 0 || ctx.degree(v) == 0 {
                    return 0.0;
                }
                self.local(ctx, u, v, acc) * self.factor(ctx, u) * self.factor(ctx, v)
            }
        }
    }

    fn requires_degrees(&self) -> bool {
        matches!(self, WeightingScheme::Ejs)
    }

    fn global_deps(&self) -> WeightDeps {
        match self {
            WeightingScheme::Cbs => WeightDeps::NONE,
            WeightingScheme::Arcs => WeightDeps::BLOCK_SIZES,
            WeightingScheme::Js => WeightDeps::NODE_BLOCKS,
            // EJS additionally requires degrees; those are delta-maintained
            // by the incremental pipeline, so a degree/|E_G| move promotes a
            // commit to the reweigh tier instead of a degraded-full pass.
            WeightingScheme::Ecbs | WeightingScheme::Ejs => WeightDeps::BLOCK_COUNTS,
        }
    }

    fn factoring(&self) -> Option<&dyn FactoredWeight> {
        matches!(self, WeightingScheme::Ecbs | WeightingScheme::Ejs).then_some(self as _)
    }

    fn name(&self) -> &'static str {
        match self {
            WeightingScheme::Arcs => "ARCS",
            WeightingScheme::Cbs => "CBS",
            WeightingScheme::Ecbs => "ECBS",
            WeightingScheme::Js => "JS",
            WeightingScheme::Ejs => "EJS",
        }
    }
}

/// ECBS: `|B_uv| · ln(|B|/|B_u|) · ln(|B|/|B_v|)`. EJS: `JS ·
/// ln(|E_G|/deg(u)) · ln(|E_G|/deg(v))`, where a zero-degree endpoint
/// makes the weight 0: its factor is 0, and every factor of an endpoint
/// with an edge is finite and non-negative (deg ≤ |E_G|), so the product
/// is +0.0 as the guard in [`EdgeWeigher::weight`] returns. The other
/// schemes factor trivially (their weight times 1, times 1).
impl FactoredWeight for WeightingScheme {
    #[inline]
    fn local(&self, ctx: &GraphSnapshot, u: u32, v: u32, acc: &EdgeAccum) -> f64 {
        match self {
            WeightingScheme::Ecbs => acc.common_blocks as f64,
            WeightingScheme::Ejs => Self::js(ctx, u, v, acc),
            _ => self.weight(ctx, u, v, acc),
        }
    }

    #[inline]
    fn factor(&self, ctx: &GraphSnapshot, u: u32) -> f64 {
        match self {
            WeightingScheme::Ecbs => (ctx.total_blocks() as f64 / ctx.node_blocks(u) as f64).ln(),
            WeightingScheme::Ejs => match ctx.degree(u) {
                0 => 0.0,
                d => (ctx.total_edges() as f64 / d as f64).ln(),
            },
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_blocking::block::Block;
    use blast_blocking::collection::BlockCollection;
    use blast_blocking::key::ClusterId;
    use blast_datamodel::entity::ProfileId;

    fn ids(v: &[u32]) -> Vec<ProfileId> {
        v.iter().map(|&i| ProfileId(i)).collect()
    }

    /// A small clean-clean collection with hand-computable statistics:
    /// E1 = {0,1}, E2 = {2,3}.
    /// b0 = {0,1 | 2,3}  (‖b0‖ = 4)
    /// b1 = {0 | 2}      (‖b1‖ = 1)
    /// b2 = {1 | 2}      (‖b2‖ = 1)
    /// b3 = {0 | 2}      (‖b3‖ = 1)
    fn sample() -> BlockCollection {
        let blocks = vec![
            Block::new("b0", ClusterId::GLUE, ids(&[0, 1, 2, 3]), 2),
            Block::new("b1", ClusterId::GLUE, ids(&[0, 2]), 2),
            Block::new("b2", ClusterId::GLUE, ids(&[1, 2]), 2),
            Block::new("b3", ClusterId::GLUE, ids(&[0, 2]), 2),
        ];
        BlockCollection::new(blocks, true, 2, 4)
    }

    #[test]
    fn cbs_counts_common_blocks() {
        let blocks = sample();
        let ctx = GraphSnapshot::build(&blocks);
        let acc = ctx.edge(0, 2).unwrap();
        assert_eq!(WeightingScheme::Cbs.weight(&ctx, 0, 2, &acc), 3.0);
        let acc = ctx.edge(0, 3).unwrap();
        assert_eq!(WeightingScheme::Cbs.weight(&ctx, 0, 3, &acc), 1.0);
    }

    #[test]
    fn js_matches_hand_computation() {
        let blocks = sample();
        let ctx = GraphSnapshot::build(&blocks);
        // |B_0| = 3 (b0,b1,b3), |B_2| = 4 (b0..b3), common = 3
        // JS = 3 / (3 + 4 − 3) = 0.75
        let acc = ctx.edge(0, 2).unwrap();
        assert!((WeightingScheme::Js.weight(&ctx, 0, 2, &acc) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn ecbs_matches_hand_computation() {
        let blocks = sample();
        let ctx = GraphSnapshot::build(&blocks);
        // |B| = 4; w = 3 · ln(4/3) · ln(4/4) = 0 (node 2 is in every block).
        let acc = ctx.edge(0, 2).unwrap();
        let w = WeightingScheme::Ecbs.weight(&ctx, 0, 2, &acc);
        assert!(w.abs() < 1e-12);
        // Edge (0,3): |B_0| = 3, |B_3| = 1, common = 1:
        // w = 1 · ln(4/3) · ln(4) ≈ 0.2877 · 1.3863
        let acc = ctx.edge(0, 3).unwrap();
        let w = WeightingScheme::Ecbs.weight(&ctx, 0, 3, &acc);
        assert!((w - (4.0f64 / 3.0).ln() * 4.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn arcs_matches_hand_computation() {
        let blocks = sample();
        let ctx = GraphSnapshot::build(&blocks);
        // Edge (0,2) shares b0 (‖·‖=4), b1 (1), b3 (1): 1/4 + 1 + 1 = 2.25
        let acc = ctx.edge(0, 2).unwrap();
        assert!((WeightingScheme::Arcs.weight(&ctx, 0, 2, &acc) - 2.25).abs() < 1e-12);
    }

    #[test]
    fn ejs_matches_hand_computation() {
        let blocks = sample();
        let mut ctx = GraphSnapshot::build(&blocks);
        ctx.ensure_degrees();
        // Graph: edges (0,2),(0,3),(1,2),(1,3) → 4 edges.
        // deg(0) = 2, deg(2) = 2; JS(0,2) = 0.75.
        // EJS = 0.75 · ln(4/2) · ln(4/2)
        assert_eq!(ctx.total_edges(), 4);
        let acc = ctx.edge(0, 2).unwrap();
        let w = WeightingScheme::Ejs.weight(&ctx, 0, 2, &acc);
        let expect = 0.75 * 2.0f64.ln() * 2.0f64.ln();
        assert!((w - expect).abs() < 1e-12, "{w} vs {expect}");
    }

    #[test]
    fn requires_degrees_only_for_ejs() {
        for s in WeightingScheme::ALL {
            assert_eq!(
                s.requires_degrees(),
                s == WeightingScheme::Ejs,
                "{}",
                s.name()
            );
        }
    }

    /// The per-endpoint factoring is `weight()` bit for bit, for every
    /// pair (both orientations) and accumulator, over the edge cases:
    /// profile 0 is in every block (|B_0| = |B|, its ECBS factor is 0),
    /// profile 5 is in none (zero degree: EJS's guard), and large shared-
    /// block counts on a large |B|.
    #[test]
    fn factored_weight_equals_weight_bitwise() {
        let collection = |blocks: u32| {
            let b = (0..blocks)
                .map(|i| {
                    let other = 1 + i % 4; // profiles 1..=4
                    Block::new(format!("b{i}"), ClusterId::GLUE, ids(&[0, other]), u32::MAX)
                })
                .collect();
            BlockCollection::new(b, false, 6, 6)
        };
        let accs = [1u32, 2, 3, 1 << 20, u32::MAX].map(|common_blocks| EdgeAccum {
            common_blocks,
            arcs: 0.5,
            entropy_sum: common_blocks as f64,
        });
        for blocks in [4, 9, 50_000] {
            let mut ctx = GraphSnapshot::build(&collection(blocks));
            ctx.ensure_degrees();
            assert_eq!(ctx.node_blocks(0) as u64, ctx.total_blocks());
            assert_eq!(ctx.degree(5), 0);
            for scheme in [WeightingScheme::Ecbs, WeightingScheme::Ejs] {
                let f = scheme.factoring().expect("ECBS and EJS factor");
                for u in 0..6 {
                    for v in 0..6 {
                        for acc in &accs {
                            let (a, b) = (u.min(v), u.max(v));
                            let factored =
                                f.local(&ctx, a, b, acc) * f.factor(&ctx, a) * f.factor(&ctx, b);
                            assert_eq!(
                                factored.to_bits(),
                                scheme.weight(&ctx, a, b, acc).to_bits(),
                                "{} |B|={blocks} ({a}, {b}) common={}",
                                scheme.name(),
                                acc.common_blocks
                            );
                        }
                    }
                }
            }
        }
        for s in [
            WeightingScheme::Arcs,
            WeightingScheme::Cbs,
            WeightingScheme::Js,
        ] {
            assert!(s.factoring().is_none(), "{} calls weight()", s.name());
        }
    }

    #[test]
    fn global_deps_match_formulas() {
        assert_eq!(WeightingScheme::Cbs.global_deps(), WeightDeps::NONE);
        assert_eq!(WeightingScheme::Arcs.global_deps(), WeightDeps::BLOCK_SIZES);
        assert_eq!(WeightingScheme::Js.global_deps(), WeightDeps::NODE_BLOCKS);
        assert_eq!(
            WeightingScheme::Ecbs.global_deps(),
            WeightDeps::BLOCK_COUNTS
        );
        assert_eq!(WeightingScheme::Ejs.global_deps(), WeightDeps::BLOCK_COUNTS);
        // Only ARCS (and every custom weigher) reads the block sizes.
        for s in WeightingScheme::ALL {
            assert_eq!(s.global_deps().block_sizes, s == WeightingScheme::Arcs);
        }
        // Custom weighers default to the conservative ALL.
        struct Custom;
        impl EdgeWeigher for Custom {
            fn weight(&self, _: &GraphSnapshot, _: u32, _: u32, _: &EdgeAccum) -> f64 {
                1.0
            }
        }
        assert_eq!(Custom.global_deps(), WeightDeps::ALL);
    }

    #[test]
    fn names_are_stable() {
        let names: Vec<_> = WeightingScheme::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["ARCS", "JS", "EJS", "CBS", "ECBS"]);
    }
}
