//! High-level driver for traditional (unsupervised, schema-agnostic)
//! meta-blocking: pick a weighting scheme and a pruning algorithm, get the
//! restructured comparisons.

use crate::context::GraphSnapshot;
use crate::pruning::{Cep, Cnp, Wep, Wnp};
use crate::retained::RetainedPairs;
use crate::weights::{EdgeWeigher, WeightingScheme};
use blast_blocking::collection::BlockCollection;

/// The pruning algorithms of §2.2, with the paper's labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PruningAlgorithm {
    /// Weight Edge Pruning (global mean threshold).
    Wep,
    /// Cardinality Edge Pruning (global top-K).
    Cep,
    /// Redefined WNP — the paper's wnp₁.
    Wnp1,
    /// Reciprocal WNP — the paper's wnp₂.
    Wnp2,
    /// Redefined CNP — the paper's cnp₁.
    Cnp1,
    /// Reciprocal CNP — the paper's cnp₂.
    Cnp2,
}

impl PruningAlgorithm {
    /// All six algorithms.
    pub const ALL: [PruningAlgorithm; 6] = [
        PruningAlgorithm::Wep,
        PruningAlgorithm::Cep,
        PruningAlgorithm::Wnp1,
        PruningAlgorithm::Wnp2,
        PruningAlgorithm::Cnp1,
        PruningAlgorithm::Cnp2,
    ];

    /// The paper's label for this algorithm.
    pub fn label(&self) -> &'static str {
        match self {
            PruningAlgorithm::Wep => "wep",
            PruningAlgorithm::Cep => "cep",
            PruningAlgorithm::Wnp1 => "wnp1",
            PruningAlgorithm::Wnp2 => "wnp2",
            PruningAlgorithm::Cnp1 => "cnp1",
            PruningAlgorithm::Cnp2 => "cnp2",
        }
    }

    /// Runs this pruning on an already-built graph context.
    pub fn prune(&self, ctx: &GraphSnapshot, weigher: &dyn EdgeWeigher) -> RetainedPairs {
        match self {
            PruningAlgorithm::Wep => Wep.prune(ctx, weigher),
            PruningAlgorithm::Cep => Cep::new().prune(ctx, weigher),
            PruningAlgorithm::Wnp1 => Wnp::redefined().prune(ctx, weigher),
            PruningAlgorithm::Wnp2 => Wnp::reciprocal().prune(ctx, weigher),
            PruningAlgorithm::Cnp1 => Cnp::redefined().prune(ctx, weigher),
            PruningAlgorithm::Cnp2 => Cnp::reciprocal().prune(ctx, weigher),
        }
    }
}

/// Traditional graph-based meta-blocking: weighting scheme × pruning
/// algorithm.
#[derive(Debug, Clone, Copy)]
pub struct MetaBlocker {
    /// Edge-weighting scheme.
    pub scheme: WeightingScheme,
    /// Pruning algorithm.
    pub algorithm: PruningAlgorithm,
}

impl MetaBlocker {
    /// Creates a meta-blocker.
    pub fn new(scheme: WeightingScheme, algorithm: PruningAlgorithm) -> Self {
        Self { scheme, algorithm }
    }

    /// Restructures `blocks`, returning the retained comparisons.
    pub fn run(&self, blocks: &BlockCollection) -> RetainedPairs {
        let mut ctx = GraphSnapshot::build(blocks);
        if self.scheme.requires_degrees() {
            ctx.ensure_degrees();
        }
        self.algorithm.prune(&ctx, &self.scheme)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_blocking::block::Block;
    use blast_blocking::key::ClusterId;
    use blast_datamodel::entity::ProfileId;

    fn ids(v: &[u32]) -> Vec<ProfileId> {
        v.iter().map(|&i| ProfileId(i)).collect()
    }

    fn blocks() -> BlockCollection {
        let b = vec![
            Block::new("all", ClusterId::GLUE, ids(&[0, 1, 2, 3]), 2),
            Block::new("p02a", ClusterId::GLUE, ids(&[0, 2]), 2),
            Block::new("p02b", ClusterId::GLUE, ids(&[0, 2]), 2),
            Block::new("p13", ClusterId::GLUE, ids(&[1, 3]), 2),
        ];
        BlockCollection::new(b, true, 2, 4)
    }

    #[test]
    fn every_combination_runs() {
        let blocks = blocks();
        for scheme in WeightingScheme::ALL {
            for algorithm in PruningAlgorithm::ALL {
                let retained = MetaBlocker::new(scheme, algorithm).run(&blocks);
                // Something always survives, and one of the two heavy
                // matching edges is always among the survivors.
                assert!(
                    retained.contains(ProfileId(0), ProfileId(2))
                        || retained.contains(ProfileId(1), ProfileId(3)),
                    "{} + {} lost both heavy edges",
                    scheme.name(),
                    algorithm.label()
                );
                // And none invents pairs outside the graph.
                for (a, b) in retained.iter() {
                    assert!(a.0 < 2 && b.0 >= 2, "clean-clean pairs cross the separator");
                }
            }
        }
    }

    #[test]
    fn cbs_wnp_keeps_heavy_matching_edges() {
        let blocks = blocks();
        for algorithm in [PruningAlgorithm::Wnp1, PruningAlgorithm::Wnp2] {
            let retained = MetaBlocker::new(WeightingScheme::Cbs, algorithm).run(&blocks);
            assert!(retained.contains(ProfileId(0), ProfileId(2)));
            assert!(retained.contains(ProfileId(1), ProfileId(3)));
        }
    }

    #[test]
    fn pruning_reduces_comparisons() {
        let blocks = blocks();
        let full_edges = 4; // (0,2),(0,3),(1,2),(1,3)
        let retained = MetaBlocker::new(WeightingScheme::Cbs, PruningAlgorithm::Wnp2).run(&blocks);
        assert!(retained.len() < full_edges);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(PruningAlgorithm::Wnp1.label(), "wnp1");
        assert_eq!(PruningAlgorithm::Cnp2.label(), "cnp2");
    }
}
