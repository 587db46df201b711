//! BLAST's graph pruning (§3.3.2).
//!
//! WNP thresholds that depend on the number of adjacent edges (like the mean
//! weight) are sensitive to low-weight neighbours: adding unrelated profiles
//! changes whether an edge survives (Fig. 6). BLAST instead anchors each
//! node's threshold to its *local maximum* weight — θᵢ = Mᵢ/c — and resolves
//! the two-threshold ambiguity of Fig. 7 with a single per-edge threshold
//! θᵢⱼ = (θᵢ + θⱼ)/d. The paper uses c = d = 2.

use blast_graph::context::GraphSnapshot;
use blast_graph::pruning::common::{collect_edges, node_pass, pair};
use blast_graph::retained::RetainedPairs;
use blast_graph::weights::EdgeWeigher;

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

    /// The per-node thresholds θᵢ = Mᵢ/c (+∞ for isolated nodes).
    pub fn thresholds(&self, ctx: &GraphSnapshot, weigher: &dyn EdgeWeigher) -> Vec<f64> {
        let c = self.c;
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

    /// Prunes the graph: edge (u,v) survives iff w > 0 and
    /// w ≥ (θᵤ + θᵥ)/d.
    pub fn prune(&self, ctx: &GraphSnapshot, weigher: &dyn EdgeWeigher) -> RetainedPairs {
        let thresholds = self.thresholds(ctx, weigher);
        let d = self.d;
        let pairs = collect_edges(ctx, weigher, |u, v, w| {
            let theta = (thresholds[u as usize] + thresholds[v as usize]) / d;
            (w > 0.0 && w >= theta).then(|| pair(u, v))
        });
        RetainedPairs::new(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weighting::ChiSquaredWeigher;
    use blast_blocking::block::Block;
    use blast_blocking::collection::BlockCollection;
    use blast_blocking::key::ClusterId;
    use blast_blocking::token_blocking::TokenBlocking;
    use blast_datamodel::collection::EntityCollection;
    use blast_datamodel::entity::{ProfileId, SourceId};
    use blast_datamodel::input::ErInput;
    use blast_graph::weights::WeightingScheme;

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
}
