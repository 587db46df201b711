//! Cardinality Node Pruning: per-node top-k retention (§2.2, \[20\]).
//!
//! k defaults to the average number of block assignments per profile,
//! k = max(1, ⌊Σ_b |b| / |E|⌋) — the convention of the reference
//! implementation. cnp₁ (redefined) keeps an edge in the top-k of either
//! endpoint; cnp₂ (reciprocal) requires both.

use crate::context::GraphSnapshot;
use crate::pruning::common::node_pass;
use crate::pruning::NodeCentricMode;
use crate::retained::RetainedPairs;
use crate::weights::EdgeWeigher;
use blast_datamodel::entity::ProfileId;
use std::collections::BinaryHeap;

/// A heap entry ordered so that the heap's *maximum* is the candidate to
/// evict first: lower weight is "greater", ties broken by *higher*
/// neighbour id (the retained ranking is weight desc, id asc).
struct Evictee(u32, f64);

impl PartialEq for Evictee {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Evictee {}
impl PartialOrd for Evictee {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Evictee {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .1
            .partial_cmp(&self.1)
            .expect("no NaN weights")
            .then(self.0.cmp(&other.0))
    }
}

/// The top-k neighbours of one adjacency under the (weight desc, id asc)
/// ranking, via a bounded binary heap: O(d log k) instead of the O(d log d)
/// full sort, which matters on hub nodes whose degree dwarfs k. Exactly the
/// first k entries of the fully sorted ranking, boundary ties included.
pub fn top_k_neighbours(adj: &[(u32, f64)], k: usize) -> Vec<u32> {
    if k == 0 || adj.is_empty() {
        return Vec::new();
    }
    let mut heap: BinaryHeap<Evictee> = BinaryHeap::with_capacity(k + 1);
    for &(v, w) in adj {
        heap.push(Evictee(v, w));
        if heap.len() > k {
            heap.pop();
        }
    }
    // Ascending `Evictee` order is best-first: weight desc, id asc.
    heap.into_sorted_vec().into_iter().map(|e| e.0).collect()
}

/// Cardinality Node Pruning (per-node top-k).
#[derive(Debug, Clone, Copy)]
pub struct Cnp {
    /// How the two-list ambiguity is resolved.
    pub mode: NodeCentricMode,
    /// Optional explicit k; when `None`, k = max(1, ⌊Σ|b| / |E|⌋).
    pub k: Option<usize>,
}

impl Cnp {
    /// cnp₁ with the default k.
    pub fn redefined() -> Self {
        Self {
            mode: NodeCentricMode::Redefined,
            k: None,
        }
    }

    /// cnp₂ with the default k.
    pub fn reciprocal() -> Self {
        Self {
            mode: NodeCentricMode::Reciprocal,
            k: None,
        }
    }

    /// Overrides k.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = Some(k);
        self
    }

    /// The per-node retention budget for this graph.
    pub fn budget(&self, ctx: &GraphSnapshot) -> usize {
        self.k.unwrap_or_else(|| {
            let profiles = ctx.total_profiles().max(1) as u64;
            ((ctx.index().total_assignments() / profiles) as usize).max(1)
        })
    }

    /// The top-k neighbour list of every node (weight desc, id asc).
    fn top_k_lists(
        &self,
        ctx: &GraphSnapshot,
        weigher: &dyn EdgeWeigher,
        k: usize,
    ) -> Vec<Vec<u32>> {
        node_pass(ctx, weigher, |_, adj| top_k_neighbours(adj, k))
    }

    /// Combines per-node top-k lists into the retained comparisons under
    /// this variant's mode. Shared by [`Cnp::prune`] and incremental
    /// repair.
    pub fn retained_from_lists(&self, lists: &[Vec<u32>]) -> RetainedPairs {
        let mut pairs: Vec<(ProfileId, ProfileId)> = Vec::new();
        match self.mode {
            NodeCentricMode::Redefined => {
                // Union of directed retentions.
                for (u, list) in lists.iter().enumerate() {
                    for &v in list {
                        pairs.push((ProfileId(u as u32), ProfileId(v)));
                    }
                }
            }
            NodeCentricMode::Reciprocal => {
                // Edge kept iff each endpoint lists the other.
                for (u, list) in lists.iter().enumerate() {
                    let u = u as u32;
                    for &v in list {
                        if v > u && lists[v as usize].contains(&u) {
                            pairs.push((ProfileId(u), ProfileId(v)));
                        }
                    }
                }
            }
        }
        RetainedPairs::new(pairs)
    }

    /// Prunes the graph.
    pub fn prune(&self, ctx: &GraphSnapshot, weigher: &dyn EdgeWeigher) -> RetainedPairs {
        let k = self.budget(ctx);
        let lists = self.top_k_lists(ctx, weigher, k);
        self.retained_from_lists(&lists)
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

    /// CBS weights: (0,1)=3, (0,2)=2, (0,3)=1, (1,2)=1 … built from stacked
    /// pair blocks plus one big block.
    fn blocks() -> BlockCollection {
        let b = vec![
            Block::new("all", ClusterId::GLUE, ids(&[0, 1, 2, 3]), u32::MAX),
            Block::new("p01a", ClusterId::GLUE, ids(&[0, 1]), u32::MAX),
            Block::new("p01b", ClusterId::GLUE, ids(&[0, 1]), u32::MAX),
            Block::new("p02", ClusterId::GLUE, ids(&[0, 2]), u32::MAX),
        ];
        BlockCollection::new(b, false, 4, 4)
    }

    #[test]
    fn redefined_k1_keeps_best_edge_per_node() {
        let b = blocks();
        let ctx = GraphSnapshot::build(&b);
        let retained = Cnp::redefined()
            .with_k(1)
            .prune(&ctx, &WeightingScheme::Cbs);
        // node 0 → 1 (w=3); node 1 → 0; node 2 → 0 (w=2); node 3 → 0 (w=1,
        // ties with 1,2 at w=1 broken by id → 0). Union: (0,1),(0,2),(0,3).
        assert_eq!(retained.len(), 3);
        assert!(retained.contains(ProfileId(0), ProfileId(1)));
        assert!(retained.contains(ProfileId(0), ProfileId(2)));
        assert!(retained.contains(ProfileId(0), ProfileId(3)));
    }

    #[test]
    fn reciprocal_k1_requires_mutual_top() {
        let b = blocks();
        let ctx = GraphSnapshot::build(&b);
        let retained = Cnp::reciprocal()
            .with_k(1)
            .prune(&ctx, &WeightingScheme::Cbs);
        // Only (0,1) is mutual: 0's best is 1 and 1's best is 0.
        assert_eq!(retained.len(), 1);
        assert!(retained.contains(ProfileId(0), ProfileId(1)));
    }

    #[test]
    fn reciprocal_subset_of_redefined() {
        let b = blocks();
        let ctx = GraphSnapshot::build(&b);
        for k in 1..4 {
            let r1 = Cnp::redefined()
                .with_k(k)
                .prune(&ctx, &WeightingScheme::Cbs);
            let r2 = Cnp::reciprocal()
                .with_k(k)
                .prune(&ctx, &WeightingScheme::Cbs);
            assert!(r2.len() <= r1.len());
            for (a, bb) in r2.iter() {
                assert!(r1.contains(a, bb));
            }
        }
    }

    #[test]
    fn default_budget_is_mean_assignments() {
        let b = blocks();
        let ctx = GraphSnapshot::build(&b);
        // assignments = 4 + 2 + 2 + 2 = 10, profiles = 4 → k = 2.
        assert_eq!(Cnp::redefined().budget(&ctx), 2);
    }

    /// The reference ranking the bounded heap must reproduce exactly.
    fn reference_top_k(adj: &[(u32, f64)], k: usize) -> Vec<u32> {
        let mut ranked: Vec<(u32, f64)> = adj.to_vec();
        ranked.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("no NaN weights")
                .then(a.0.cmp(&b.0))
        });
        ranked.truncate(k);
        ranked.into_iter().map(|(v, _)| v).collect()
    }

    /// Tie-break stability: with many equal weights at the k-boundary, the
    /// bounded heap must keep exactly the lowest-id tied neighbours, in the
    /// same order as the full sort-and-truncate it replaced.
    #[test]
    fn bounded_heap_tie_breaks_match_full_sort() {
        // 8 neighbours, weights 2,1,1,1,1,1,1,3 — the k=3 boundary cuts
        // through a six-way tie at weight 1.
        let adj: Vec<(u32, f64)> = vec![
            (10, 2.0),
            (4, 1.0),
            (9, 1.0),
            (2, 1.0),
            (7, 1.0),
            (3, 1.0),
            (8, 1.0),
            (5, 3.0),
        ];
        for k in 0..=adj.len() + 1 {
            assert_eq!(
                top_k_neighbours(&adj, k),
                reference_top_k(&adj, k),
                "k = {k}"
            );
        }
        // k=3 keeps the two heavy edges plus the lowest-id weight-1 tie.
        assert_eq!(top_k_neighbours(&adj, 3), vec![5, 10, 2]);
    }

    mod heap_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Bounded heap ≡ full sort-and-truncate on random adjacencies;
            /// small integer weights force plenty of ties.
            #[test]
            fn prop_bounded_heap_matches_sort(
                raw in proptest::collection::vec((0u32..64, 0u32..5), 0..40)
            ) {
                // Dedup neighbour ids (an adjacency lists each once).
                let mut seen = std::collections::BTreeSet::new();
                let adj: Vec<(u32, f64)> = raw
                    .into_iter()
                    .filter(|(v, _)| seen.insert(*v))
                    .map(|(v, w)| (v, w as f64))
                    .collect();
                for k in [0usize, 1, 2, 3, 5, 100] {
                    prop_assert_eq!(top_k_neighbours(&adj, k), reference_top_k(&adj, k));
                }
            }
        }
    }

    #[test]
    fn large_k_keeps_whole_graph() {
        let b = blocks();
        let ctx = GraphSnapshot::build(&b);
        let retained = Cnp::redefined()
            .with_k(10)
            .prune(&ctx, &WeightingScheme::Cbs);
        // Graph has edges (0,1),(0,2),(0,3),(1,2),(1,3),(2,3) from "all"
        // plus the pair blocks → complete graph on 4 nodes.
        assert_eq!(retained.len(), 6);
    }
}
