//! Weight Edge Pruning: discard every edge below a single global threshold
//! Θ, the mean edge weight (§2.2, \[20\]).
//!
//! Fused pass: the weighted edge list is materialised **once** (a single
//! adjacency traversal via [`collect_weighted_edges`]); the global mean and
//! the retention filter both run over that in-memory list — one quadratic
//! traversal, not two. The mean's numerator is accumulated **exactly**
//! ([`ExactSum`]), so Θ depends only on the edge *multiset* — bit-identical
//! for every thread count, every traversal order, and (the point) for a
//! running sum maintained by the incremental decision stage via
//! add/remove deltas instead of a per-commit re-scan.

use crate::context::GraphSnapshot;
use crate::exact_sum::ExactSum;
use crate::pruning::common::{collect_weighted_edges, pair};
use crate::retained::RetainedPairs;
use crate::weights::EdgeWeigher;

/// Weight Edge Pruning with the mean-weight global threshold.
#[derive(Debug, Clone, Copy, Default)]
pub struct Wep;

impl Wep {
    /// Θ from an exactly accumulated weight total and the live edge count
    /// (`None` when the graph has no edges) — the **single source of the
    /// threshold** for the batch passes here and for the incremental
    /// decision stage's delta-maintained running sum: both feed the same
    /// exact accumulator, so they agree bitwise by construction.
    pub fn mean_from_sum(sum: &ExactSum, edges: usize) -> Option<f64> {
        if edges == 0 {
            return None;
        }
        Some(sum.round() / edges as f64)
    }

    /// The mean weight of a materialised edge list (`None` when empty).
    fn mean_weight(edges: &[(u32, u32, f64)]) -> Option<f64> {
        let sum = ExactSum::of(edges.iter().map(|&(_, _, w)| w));
        Self::mean_from_sum(&sum, edges.len())
    }

    /// Whether an edge of weight `w` survives against threshold Θ — the
    /// flip-emitting decision primitive shared with incremental repair.
    #[inline]
    pub fn retains(w: f64, theta: f64) -> bool {
        w >= theta
    }

    /// Prunes the graph, retaining edges with weight ≥ Θ (mean weight).
    pub fn prune(&self, ctx: &GraphSnapshot, weigher: &dyn EdgeWeigher) -> RetainedPairs {
        Self::prune_edges(&collect_weighted_edges(ctx, weigher))
    }

    /// The retention stage alone, over an already-materialised weighted edge
    /// list in canonical `(u, v)` ascending order — what [`Wep::prune`] is
    /// built on. The mean's numerator is accumulated exactly, so Θ is
    /// bit-identical to the incremental path's running sum.
    pub fn prune_edges(edges: &[(u32, u32, f64)]) -> RetainedPairs {
        let Some(theta) = Self::mean_weight(edges) else {
            return RetainedPairs::default();
        };
        let pairs = edges
            .iter()
            .filter(|&&(_, _, w)| Self::retains(w, theta))
            .map(|&(u, v, _)| pair(u, v))
            .collect();
        RetainedPairs::new(pairs)
    }

    /// The global threshold this scheme would use (diagnostics).
    pub fn threshold(&self, ctx: &GraphSnapshot, weigher: &dyn EdgeWeigher) -> Option<f64> {
        Self::mean_weight(&collect_weighted_edges(ctx, weigher))
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

    /// CBS weights: (0,1) = 3, (0,2) = 1, (1,2) = 1 → Θ = 5/3.
    fn blocks() -> BlockCollection {
        let b = vec![
            Block::new("b0", ClusterId::GLUE, ids(&[0, 1, 2]), u32::MAX),
            Block::new("b1", ClusterId::GLUE, ids(&[0, 1]), u32::MAX),
            Block::new("b2", ClusterId::GLUE, ids(&[0, 1]), u32::MAX),
        ];
        BlockCollection::new(b, false, 3, 3)
    }

    #[test]
    fn retains_edges_at_or_above_mean() {
        let blocks = blocks();
        let ctx = GraphSnapshot::build(&blocks);
        let retained = Wep.prune(&ctx, &WeightingScheme::Cbs);
        assert_eq!(retained.len(), 1);
        assert!(retained.contains(ProfileId(0), ProfileId(1)));
    }

    #[test]
    fn threshold_is_mean() {
        let blocks = blocks();
        let ctx = GraphSnapshot::build(&blocks);
        let theta = Wep.threshold(&ctx, &WeightingScheme::Cbs).unwrap();
        assert!((theta - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_yields_nothing() {
        let blocks = BlockCollection::new(vec![], false, 3, 3);
        let ctx = GraphSnapshot::build(&blocks);
        assert!(Wep.prune(&ctx, &WeightingScheme::Cbs).is_empty());
        assert!(Wep.threshold(&ctx, &WeightingScheme::Cbs).is_none());
    }

    #[test]
    fn uniform_weights_retain_everything() {
        let b = vec![Block::new("b0", ClusterId::GLUE, ids(&[0, 1, 2]), u32::MAX)];
        let blocks = BlockCollection::new(b, false, 3, 3);
        let ctx = GraphSnapshot::build(&blocks);
        let retained = Wep.prune(&ctx, &WeightingScheme::Cbs);
        assert_eq!(retained.len(), 3); // all weights equal the mean
    }
}
