//! Block collections: the output of a blocking technique (§2).

use crate::block::Block;
use blast_datamodel::entity::ProfileId;

/// A set of blocks over a global profile-id space, with the bookkeeping
/// needed to count comparisons consistently (clean-clean vs dirty).
#[derive(Debug, Clone)]
pub struct BlockCollection {
    blocks: Vec<Block>,
    clean_clean: bool,
    separator: u32,
    total_profiles: u32,
}

impl BlockCollection {
    /// Creates a collection; `separator` and `clean_clean` must describe the
    /// [`blast_datamodel::input::ErInput`] the blocks were built from.
    pub fn new(blocks: Vec<Block>, clean_clean: bool, separator: u32, total_profiles: u32) -> Self {
        Self {
            blocks,
            clean_clean,
            separator,
            total_profiles,
        }
    }

    /// The blocks.
    #[inline]
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Number of blocks (|B|).
    #[inline]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether there are no blocks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Whether this collection was built from a clean-clean input.
    #[inline]
    pub fn is_clean_clean(&self) -> bool {
        self.clean_clean
    }

    /// The global id where the second collection starts.
    #[inline]
    pub fn separator(&self) -> u32 {
        self.separator
    }

    /// Total number of profiles in the underlying input.
    #[inline]
    pub fn total_profiles(&self) -> u32 {
        self.total_profiles
    }

    /// Aggregate cardinality ‖B‖ = Σ ‖bᵢ‖ (§2).
    pub fn aggregate_cardinality(&self) -> u64 {
        self.blocks
            .iter()
            .map(|b| b.cardinality(self.clean_clean))
            .sum()
    }

    /// Comparison cardinality of one block under this collection's setting.
    #[inline]
    pub fn block_cardinality(&self, block: &Block) -> u64 {
        block.cardinality(self.clean_clean)
    }

    /// Replaces the blocks (used by purging/filtering which rebuild them).
    pub fn with_blocks(&self, blocks: Vec<Block>) -> Self {
        Self {
            blocks,
            clean_clean: self.clean_clean,
            separator: self.separator,
            total_profiles: self.total_profiles,
        }
    }

    /// Calls `f` on every comparison of every block (pairs may repeat across
    /// blocks — those are the paper's *redundant* comparisons). Intended for
    /// tests and small collections; evaluation uses the profile→block index
    /// instead.
    pub fn for_each_comparison(&self, mut f: impl FnMut(ProfileId, ProfileId)) {
        for b in &self.blocks {
            b.for_each_comparison(self.clean_clean, &mut f);
        }
    }

    /// Finds a block by label (diagnostics/tests; blocks are not indexed by
    /// label).
    pub fn block_by_label(&self, label: &str) -> Option<&Block> {
        self.blocks.iter().find(|b| &*b.label == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::ClusterId;

    fn ids(v: &[u32]) -> Vec<ProfileId> {
        v.iter().map(|&i| ProfileId(i)).collect()
    }

    fn sample() -> BlockCollection {
        let blocks = vec![
            Block::new("abram", ClusterId::GLUE, ids(&[0, 1, 2, 3]), 2),
            Block::new("ellen", ClusterId::GLUE, ids(&[1, 3]), 2),
        ];
        BlockCollection::new(blocks, true, 2, 4)
    }

    #[test]
    fn aggregate_cardinality_sums_blocks() {
        let c = sample();
        // abram: 2×2 = 4; ellen: 1×1 = 1.
        assert_eq!(c.aggregate_cardinality(), 5);
    }

    #[test]
    fn comparison_enumeration_counts_redundant() {
        let c = sample();
        let mut n = 0;
        c.for_each_comparison(|_, _| n += 1);
        assert_eq!(n, 5);
    }

    #[test]
    fn block_by_label_finds() {
        let c = sample();
        assert!(c.block_by_label("ellen").is_some());
        assert!(c.block_by_label("missing").is_none());
    }

    #[test]
    fn dirty_collection_counts_pairs() {
        let blocks = vec![Block::new("x", ClusterId::GLUE, ids(&[0, 1, 2]), u32::MAX)];
        let c = BlockCollection::new(blocks, false, 3, 3);
        assert_eq!(c.aggregate_cardinality(), 3);
    }
}
