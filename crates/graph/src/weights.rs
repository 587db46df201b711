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
/// (CBS, ARCS) is repaired from the mutated blocks alone, one reading
/// per-node block counts (JS) additionally dirties the neighbourhoods of
/// nodes whose block list changed, and one reading the total block count
/// (ECBS, χ²) promotes any commit that moved |B| to the repair ladder's
/// *reweigh* tier: every live edge's weight is re-derived from its cached
/// accumulator and the new |B| (see the factored-weight contract on
/// [`EdgeWeigher`]), without re-traversing a single block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightDeps {
    /// Reads |B_u| / |B_v| (the per-node block counts).
    pub node_blocks: bool,
    /// Reads |B| (the total block count).
    pub total_blocks: bool,
}

impl WeightDeps {
    /// Accumulator-only weighting (CBS, ARCS).
    pub const NONE: WeightDeps = WeightDeps {
        node_blocks: false,
        total_blocks: false,
    };
    /// Reads the per-node block counts but not |B| (JS).
    pub const NODE_BLOCKS: WeightDeps = WeightDeps {
        node_blocks: true,
        total_blocks: false,
    };
    /// Reads everything — the conservative default for custom weighers.
    pub const ALL: WeightDeps = WeightDeps {
        node_blocks: true,
        total_blocks: true,
    };
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
                let total = ctx.total_blocks() as f64;
                let bu = ctx.node_blocks(u) as f64;
                let bv = ctx.node_blocks(v) as f64;
                acc.common_blocks as f64 * (total / bu).ln() * (total / bv).ln()
            }
            WeightingScheme::Js => Self::js(ctx, u, v, acc),
            WeightingScheme::Ejs => {
                let edges = ctx.total_edges() as f64;
                let du = ctx.degree(u) as f64;
                let dv = ctx.degree(v) as f64;
                if du <= 0.0 || dv <= 0.0 {
                    return 0.0;
                }
                Self::js(ctx, u, v, acc) * (edges / du).ln() * (edges / dv).ln()
            }
        }
    }

    fn requires_degrees(&self) -> bool {
        matches!(self, WeightingScheme::Ejs)
    }

    fn global_deps(&self) -> WeightDeps {
        match self {
            WeightingScheme::Arcs | WeightingScheme::Cbs => WeightDeps::NONE,
            WeightingScheme::Js => WeightDeps::NODE_BLOCKS,
            // EJS additionally requires degrees; those are delta-maintained
            // by the incremental pipeline, so a degree/|E_G| move promotes a
            // commit to the reweigh tier instead of a degraded-full pass.
            WeightingScheme::Ecbs | WeightingScheme::Ejs => WeightDeps::ALL,
        }
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

    #[test]
    fn global_deps_match_formulas() {
        assert_eq!(WeightingScheme::Cbs.global_deps(), WeightDeps::NONE);
        assert_eq!(WeightingScheme::Arcs.global_deps(), WeightDeps::NONE);
        assert_eq!(WeightingScheme::Js.global_deps(), WeightDeps::NODE_BLOCKS);
        assert_eq!(WeightingScheme::Ecbs.global_deps(), WeightDeps::ALL);
        assert_eq!(WeightingScheme::Ejs.global_deps(), WeightDeps::ALL);
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
