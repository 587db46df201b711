//! Cardinality Edge Pruning: sort all edges by weight and keep the top K
//! (§2.2, \[20\]). K defaults to half the total block assignments
//! (K = ⌊Σ_b |b| / 2⌋), the convention of the reference implementation.
//!
//! Fused pass: the weighted edge list is materialised **once**; the top-K
//! cutoff (`select_nth_unstable`), the strictly-above filter and the
//! deterministic tie-break all run over that in-memory list. The old engine
//! re-ran the full quadratic traversal up to four times (weights, all
//! pairs, above-cutoff, at-cutoff).

use crate::context::GraphSnapshot;
use crate::pruning::common::{collect_weighted_edges, pair};
use crate::retained::RetainedPairs;
use crate::weights::EdgeWeigher;
use blast_datamodel::entity::ProfileId;

/// Cardinality Edge Pruning (global top-K).
#[derive(Debug, Clone, Copy, Default)]
pub struct Cep {
    /// Optional explicit K; when `None`, K = ⌊Σ_b |b| / 2⌋.
    pub k: Option<u64>,
}

impl Cep {
    /// CEP with the default K.
    pub fn new() -> Self {
        Self::default()
    }

    /// CEP with an explicit budget.
    pub fn with_k(k: u64) -> Self {
        Self { k: Some(k) }
    }

    /// The comparison budget for this graph.
    pub fn budget(&self, ctx: &GraphSnapshot) -> u64 {
        self.k
            .unwrap_or_else(|| ctx.index().total_assignments() / 2)
    }

    /// Prunes the graph, keeping the K heaviest edges (ties broken by
    /// ascending (u, v) so results are deterministic). Single traversal:
    /// everything after the edge materialisation is in-memory.
    pub fn prune(&self, ctx: &GraphSnapshot, weigher: &dyn EdgeWeigher) -> RetainedPairs {
        Self::prune_edges(self.budget(ctx), &collect_weighted_edges(ctx, weigher))
    }

    /// The selection stage alone, over an already-materialised weighted edge
    /// list in canonical `(u, v)` ascending order with the comparison budget
    /// `k` (see [`Cep::budget`]) — what [`Cep::prune`] is built on, and the
    /// reference `tests/decision_index.rs` holds the incremental index to.
    pub fn prune_edges(k: u64, edges: &[(u32, u32, f64)]) -> RetainedPairs {
        let k = k as usize;
        if k == 0 {
            return RetainedPairs::default();
        }
        if edges.len() <= k {
            let pairs = edges.iter().map(|&(u, v, _)| pair(u, v)).collect();
            return RetainedPairs::new(pairs);
        }
        // K-th largest as cutoff.
        let mut weights: Vec<f64> = edges.iter().map(|&(_, _, w)| w).collect();
        let idx = k - 1;
        let (_, cutoff, _) =
            weights.select_nth_unstable_by(idx, |a, b| b.partial_cmp(a).expect("no NaN weights"));
        let cutoff = *cutoff;
        let strictly_above = weights.iter().filter(|&&w| w > cutoff).count();
        let mut ties_wanted = k - strictly_above;

        // Retain everything above the cutoff, plus the first `ties_wanted`
        // edges at the cutoff in (u, v) order (the edge list is already
        // sorted ascending by (u, v)).
        let mut pairs: Vec<(ProfileId, ProfileId)> = Vec::with_capacity(k);
        for &(u, v, w) in edges {
            if w > cutoff {
                pairs.push(pair(u, v));
            } else if w == cutoff && ties_wanted > 0 {
                pairs.push(pair(u, v));
                ties_wanted -= 1;
            }
        }
        RetainedPairs::new(pairs)
    }
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

    /// CBS weights: (0,1)=3, (0,2)=1, (1,2)=1, (0,3)=1.
    fn blocks() -> BlockCollection {
        let b = vec![
            Block::new("b0", ClusterId::GLUE, ids(&[0, 1, 2]), u32::MAX),
            Block::new("b1", ClusterId::GLUE, ids(&[0, 1]), u32::MAX),
            Block::new("b2", ClusterId::GLUE, ids(&[0, 1, 3]), u32::MAX),
        ];
        BlockCollection::new(b, false, 4, 4)
    }

    #[test]
    fn explicit_k_keeps_heaviest() {
        let blocks = blocks();
        let ctx = GraphSnapshot::build(&blocks);
        let retained = Cep::with_k(1).prune(&ctx, &WeightingScheme::Cbs);
        assert_eq!(retained.len(), 1);
        assert!(retained.contains(ProfileId(0), ProfileId(1)));
    }

    #[test]
    fn ties_broken_deterministically() {
        let blocks = blocks();
        let ctx = GraphSnapshot::build(&blocks);
        // k=2: edge (0,1) then the first weight-1 edge in (u,v) order: (0,2).
        let retained = Cep::with_k(2).prune(&ctx, &WeightingScheme::Cbs);
        assert_eq!(retained.len(), 2);
        assert!(retained.contains(ProfileId(0), ProfileId(1)));
        assert!(retained.contains(ProfileId(0), ProfileId(2)));
    }

    #[test]
    fn default_budget_is_half_assignments() {
        let blocks = blocks();
        let ctx = GraphSnapshot::build(&blocks);
        // assignments = 3 + 2 + 3 = 8 → K = 4 ≥ edge count → all retained.
        let cep = Cep::new();
        assert_eq!(cep.budget(&ctx), 4);
        let retained = cep.prune(&ctx, &WeightingScheme::Cbs);
        assert_eq!(retained.len(), 4);
    }

    #[test]
    fn k_zero_retains_nothing() {
        let blocks = blocks();
        let ctx = GraphSnapshot::build(&blocks);
        assert!(Cep::with_k(0).prune(&ctx, &WeightingScheme::Cbs).is_empty());
    }

    #[test]
    fn k_larger_than_edges_retains_all() {
        let blocks = blocks();
        let ctx = GraphSnapshot::build(&blocks);
        let retained = Cep::with_k(100).prune(&ctx, &WeightingScheme::Cbs);
        // Graph edges: (0,1),(0,2),(1,2),(0,3),(1,3).
        assert_eq!(retained.len(), 5);
    }
}
