//! Weight Node Pruning: per-node mean-weight thresholds (§2.2, \[20\]).
//!
//! Each node computes θᵢ = mean weight of its adjacent edges. An edge is
//! related to two thresholds (Fig. 7); *redefined* WNP (wnp₁) keeps it when
//! it passes at least one, *reciprocal* WNP (wnp₂) when it passes both. The
//! dependence of the mean on the number of low-weight edges is exactly the
//! pathology BLAST's pruning fixes (Fig. 6) — a test below pins it.

use crate::context::GraphSnapshot;
use crate::pruning::common::{collect_edges, node_pass, pair};
use crate::pruning::NodeCentricMode;
use crate::retained::RetainedPairs;
use crate::weights::EdgeWeigher;

/// Weight Node Pruning with mean-of-adjacent-edges thresholds.
#[derive(Debug, Clone, Copy)]
pub struct Wnp {
    /// How the two-threshold ambiguity is resolved.
    pub mode: NodeCentricMode,
}

impl Wnp {
    /// wnp₁: retain edges passing at least one endpoint's threshold.
    pub fn redefined() -> Self {
        Self {
            mode: NodeCentricMode::Redefined,
        }
    }

    /// wnp₂: retain edges passing both endpoints' thresholds.
    pub fn reciprocal() -> Self {
        Self {
            mode: NodeCentricMode::Reciprocal,
        }
    }

    /// The per-node thresholds (mean adjacent weight; +∞ for isolated nodes
    /// so they can never accept an edge).
    pub fn thresholds(&self, ctx: &GraphSnapshot, weigher: &dyn EdgeWeigher) -> Vec<f64> {
        node_pass(ctx, weigher, |_, adj| {
            if adj.is_empty() {
                f64::INFINITY
            } else {
                adj.iter().map(|(_, w)| *w).sum::<f64>() / adj.len() as f64
            }
        })
    }

    /// Prunes the graph.
    pub fn prune(&self, ctx: &GraphSnapshot, weigher: &dyn EdgeWeigher) -> RetainedPairs {
        let thresholds = self.thresholds(ctx, weigher);
        let pairs = collect_edges(ctx, weigher, |u, v, w| {
            self.decide(&thresholds, u, v, w).then(|| pair(u, v))
        });
        RetainedPairs::new(pairs)
    }

    /// Whether edge `(u, v, w)` survives against the per-node thresholds —
    /// the flip-emitting decision primitive shared by [`Wnp::prune`] and
    /// incremental repair.
    #[inline]
    pub fn decide(&self, thresholds: &[f64], u: u32, v: u32, w: f64) -> bool {
        let pass_u = w >= thresholds[u as usize];
        let pass_v = w >= thresholds[v as usize];
        match self.mode {
            NodeCentricMode::Redefined => pass_u || pass_v,
            NodeCentricMode::Reciprocal => pass_u && pass_v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::WeightingScheme;
    use blast_blocking::block::Block;
    use blast_blocking::collection::BlockCollection;
    use blast_blocking::key::ClusterId;
    use blast_datamodel::entity::ProfileId;

    fn ids(v: &[u32]) -> Vec<ProfileId> {
        v.iter().map(|&i| ProfileId(i)).collect()
    }

    /// A star around node 0 with CBS weights 4 (to 1) and 1 (to 2, 3):
    /// θ₀ = 2, θ₁ = 4, θ₂ = θ₃ = 1.
    fn star() -> BlockCollection {
        let mut blocks = vec![Block::new(
            "s",
            ClusterId::GLUE,
            ids(&[0, 1, 2, 3]),
            u32::MAX,
        )];
        for i in 0..3 {
            blocks.push(Block::new(
                format!("h{i}"),
                ClusterId::GLUE,
                ids(&[0, 1]),
                u32::MAX,
            ));
        }
        BlockCollection::new(blocks, false, 4, 4)
    }

    #[test]
    fn thresholds_are_node_means() {
        let blocks = star();
        let ctx = GraphSnapshot::build(&blocks);
        let t = Wnp::redefined().thresholds(&ctx, &WeightingScheme::Cbs);
        // node 0: edges 4,1,1 → 2; node 1: 4,1,1 → 2; node 2: 1,1,1 → 1.
        assert!((t[0] - 2.0).abs() < 1e-12);
        assert!((t[1] - 2.0).abs() < 1e-12);
        assert!((t[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reciprocal_stricter_than_redefined() {
        let blocks = star();
        let ctx = GraphSnapshot::build(&blocks);
        let r1 = Wnp::redefined().prune(&ctx, &WeightingScheme::Cbs);
        let r2 = Wnp::reciprocal().prune(&ctx, &WeightingScheme::Cbs);
        assert!(r2.len() <= r1.len());
        for (a, b) in r2.iter() {
            assert!(r1.contains(a, b), "reciprocal ⊆ redefined");
        }
        // (0,1) has weight 4 ≥ both thresholds → always retained.
        assert!(r2.contains(ProfileId(0), ProfileId(1)));
    }

    /// The Figure 6 pathology: adding low-weight neighbours to p1 lowers its
    /// mean threshold, reviving the spurious p1–p4 edge even though nothing
    /// about p1/p4 changed.
    #[test]
    fn figure6_mean_threshold_depends_on_degree() {
        // Weights around node 0: 4 (to 1), 2 (to 2), 1 (to 3).
        fn base_blocks(extra: usize) -> BlockCollection {
            let mut blocks = vec![
                Block::new("w4a", ClusterId::GLUE, ids(&[0, 1]), u32::MAX),
                Block::new("w4b", ClusterId::GLUE, ids(&[0, 1]), u32::MAX),
                Block::new("w4c", ClusterId::GLUE, ids(&[0, 1]), u32::MAX),
                Block::new("w4d", ClusterId::GLUE, ids(&[0, 1]), u32::MAX),
                Block::new("w2a", ClusterId::GLUE, ids(&[0, 2]), u32::MAX),
                Block::new("w2b", ClusterId::GLUE, ids(&[0, 2]), u32::MAX),
                Block::new("w1", ClusterId::GLUE, ids(&[0, 3]), u32::MAX),
            ];
            // `extra` additional weight-1 neighbours (the p5, p6 of Fig. 6a).
            for i in 0..extra {
                blocks.push(Block::new(
                    format!("x{i}"),
                    ClusterId::GLUE,
                    ids(&[0, 4 + i as u32]),
                    u32::MAX,
                ));
            }
            let n = 4 + extra as u32;
            BlockCollection::new(blocks, false, n, n)
        }

        // Without extras: θ₀ = (4+2+1)/3 = 2.33 → edge (0,2) pruned at node 0.
        let b = base_blocks(0);
        let ctx = GraphSnapshot::build(&b);
        let t = Wnp::redefined().thresholds(&ctx, &WeightingScheme::Cbs);
        assert!(t[0] > 2.0);

        // With two extras: θ₀ = (4+2+1+1+1)/5 = 1.8 → edge (0,2) now passes.
        let b = base_blocks(2);
        let ctx = GraphSnapshot::build(&b);
        let t = Wnp::redefined().thresholds(&ctx, &WeightingScheme::Cbs);
        assert!(
            t[0] < 2.0,
            "threshold dropped because of unrelated profiles"
        );
    }

    /// Why the thresholds come from node-side weights ([`Wnp::thresholds`]
    /// weighs every edge from the node's own side) and never from one
    /// canonical weight per edge: on one fixed pseudo-random collection
    /// CBS, ARCS and JS give `weight(u, v)` and `weight(v, u)` the same
    /// bits, while ECBS — `(c·ln(|B|/|B_u|))·ln(|B|/|B_v|)` from `u`'s side,
    /// the factors swapped from `v`'s — does not for some edges (though
    /// never by more than rounding).
    #[test]
    fn node_side_and_canonical_weights_differ_only_for_asymmetric_weighers() {
        use crate::pruning::common::collect_edge_accums;
        // Dense enough that most pairs share three or more blocks: with a
        // shared-block count of 1 or 2 (a power of two) the ECBS product
        // rounds the same from either side.
        let n = 14u32;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let blocks: Vec<Block> = (0..60)
            .map(|i| {
                let mut members = std::collections::BTreeSet::new();
                for _ in 0..2 + i % 5 {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    members.insert((x >> 33) as u32 % n);
                }
                let members: Vec<u32> = members.into_iter().collect();
                Block::new(format!("b{i}"), ClusterId::GLUE, ids(&members), u32::MAX)
            })
            .collect();
        let ctx = GraphSnapshot::build(&BlockCollection::new(blocks, false, n, n));
        let accums = collect_edge_accums(&ctx, |u, v, acc| Some((u, v, *acc)));
        let differing = |scheme: WeightingScheme| {
            let sides = accums.iter().map(|(u, v, acc)| {
                (
                    scheme.weight(&ctx, *u, *v, acc),
                    scheme.weight(&ctx, *v, *u, acc),
                )
            });
            sides
                .filter(|(a, b)| {
                    assert!(
                        a == b || (a - b).abs() <= 1e-12 * a.abs(),
                        "{}: {a} vs {b} is more than rounding",
                        scheme.name()
                    );
                    a.to_bits() != b.to_bits()
                })
                .count()
        };
        assert_eq!(differing(WeightingScheme::Cbs), 0);
        assert_eq!(differing(WeightingScheme::Arcs), 0);
        assert_eq!(differing(WeightingScheme::Js), 0);
        assert!(
            differing(WeightingScheme::Ecbs) > 0,
            "ECBS weights should show the orientation gap on this collection"
        );
    }

    #[test]
    fn empty_graph() {
        let blocks = BlockCollection::new(vec![], false, 2, 2);
        let ctx = GraphSnapshot::build(&blocks);
        assert!(Wnp::redefined()
            .prune(&ctx, &WeightingScheme::Cbs)
            .is_empty());
    }
}
