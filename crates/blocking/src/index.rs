//! Mutable profile → block index: one block-id row per profile.
//!
//! Several components need "which blocks contain profile p": Block
//! Filtering, blocking-graph construction (node-centric edge enumeration),
//! and PC evaluation (a ground-truth pair is detected iff the block lists of
//! its profiles intersect). Each profile owns its row, so
//! [`ProfileBlockIndex::splice_row`] replaces one profile's block list in
//! place and the incremental graph snapshot patches exactly the dirty rows
//! instead of rebuilding the whole index per commit.
//!
//! Row ids are whatever the caller stores — batch construction stores block
//! positions (ascending, so each row is numerically sorted), the
//! incremental snapshot stores stable block *slots* in canonical
//! `(cluster, token)` order. [`ProfileBlockIndex::common_blocks`] /
//! [`ProfileBlockIndex::co_occur`] require rows in **ascending numeric id
//! order** (their merge walks both rows by `<`), so they are only
//! meaningful on batch-built indexes — an incremental snapshot's
//! canonical-order rows are *not* numerically sorted once interning order
//! diverges from token order.

use crate::collection::BlockCollection;

/// Index from global profile id to the ids of the blocks containing it,
/// mutable at row granularity.
#[derive(Debug, Clone, Default)]
pub struct ProfileBlockIndex {
    rows: Vec<Vec<u32>>,
    /// Σ row lengths (live assignments).
    assignments: u64,
}

impl ProfileBlockIndex {
    /// An empty index with no profiles (rows are added by
    /// [`ProfileBlockIndex::ensure_profiles`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the index for `blocks`: counts each profile's memberships,
    /// reserves its row exactly, then pushes block ids in increasing order,
    /// so every row comes out sorted.
    pub fn build(blocks: &BlockCollection) -> Self {
        let mut counts = vec![0usize; blocks.total_profiles() as usize];
        for b in blocks.blocks() {
            for p in &b.profiles {
                counts[p.index()] += 1;
            }
        }
        let mut rows: Vec<Vec<u32>> = counts.iter().map(|&n| Vec::with_capacity(n)).collect();
        for (bid, b) in blocks.blocks().iter().enumerate() {
            for p in &b.profiles {
                rows[p.index()].push(bid as u32);
            }
        }
        Self {
            rows,
            assignments: counts.iter().sum::<usize>() as u64,
        }
    }

    /// The block ids of profile `p`'s row, in the index's row order.
    #[inline]
    pub fn blocks_of(&self, p: u32) -> &[u32] {
        &self.rows[p as usize]
    }

    /// Number of blocks containing `p` (the |Bᵢ| of §3.3.1's contingency
    /// table).
    #[inline]
    pub fn block_count(&self, p: u32) -> u32 {
        self.rows[p as usize].len() as u32
    }

    /// Number of profiles covered by the index.
    #[inline]
    pub fn profile_count(&self) -> usize {
        self.rows.len()
    }

    /// Total number of block assignments (Σ_b |b|; the quantity the CNP/CEP
    /// cardinality thresholds are derived from).
    #[inline]
    pub fn total_assignments(&self) -> u64 {
        self.assignments
    }

    /// Estimated resident heap footprint in bytes: the row headers and
    /// each row's capacity. O(profiles).
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.rows.capacity() * size_of::<Vec<u32>>()
            + self
                .rows
                .iter()
                .map(|r| r.capacity() * size_of::<u32>())
                .sum::<usize>()
    }

    /// Grows the index to cover at least `n` profiles (new rows empty).
    pub fn ensure_profiles(&mut self, n: usize) {
        if self.rows.len() < n {
            self.rows.resize_with(n, Vec::new);
        }
    }

    /// Replaces profile `p`'s row with `ids` (already in the caller's row
    /// order), growing the index to cover `p`. An empty `ids` deletes the
    /// row and releases its allocation.
    pub fn splice_row(&mut self, p: u32, ids: &[u32]) {
        self.ensure_profiles(p as usize + 1);
        let row = &mut self.rows[p as usize];
        self.assignments = self.assignments - row.len() as u64 + ids.len() as u64;
        row.clear();
        row.extend_from_slice(ids);
        if ids.is_empty() {
            row.shrink_to_fit();
        }
    }

    /// Size of the intersection of the block lists of `a` and `b`
    /// (the contingency-table n₁₁ = |Bᵢ ∩ Bⱼ|). Requires both rows to be in
    /// ascending numeric id order — batch-built indexes always are; spliced
    /// canonical-order rows generally are **not** (see the module docs).
    pub fn common_blocks(&self, a: u32, b: u32) -> u32 {
        let (mut x, mut y) = (self.blocks_of(a), self.blocks_of(b));
        if x.len() > y.len() {
            std::mem::swap(&mut x, &mut y);
        }
        let mut n = 0;
        let mut j = 0;
        for &bx in x {
            while j < y.len() && y[j] < bx {
                j += 1;
            }
            if j == y.len() {
                break;
            }
            if y[j] == bx {
                n += 1;
                j += 1;
            }
        }
        n
    }

    /// Whether profiles `a` and `b` co-occur in at least one block (i.e. the
    /// pair is *detected* by the block collection).
    pub fn co_occur(&self, a: u32, b: u32) -> bool {
        self.common_blocks(a, b) > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use crate::key::ClusterId;
    use blast_datamodel::entity::ProfileId;
    use proptest::prelude::*;

    fn ids(v: &[u32]) -> Vec<ProfileId> {
        v.iter().map(|&i| ProfileId(i)).collect()
    }

    fn sample() -> BlockCollection {
        let blocks = vec![
            Block::new("b0", ClusterId::GLUE, ids(&[0, 1, 3]), u32::MAX),
            Block::new("b1", ClusterId::GLUE, ids(&[1, 2]), u32::MAX),
            Block::new("b2", ClusterId::GLUE, ids(&[0, 1, 2, 3]), u32::MAX),
        ];
        BlockCollection::new(blocks, false, 4, 4)
    }

    #[test]
    fn blocks_of_lists_memberships_sorted() {
        let idx = ProfileBlockIndex::build(&sample());
        assert_eq!(idx.blocks_of(0), &[0, 2]);
        assert_eq!(idx.blocks_of(1), &[0, 1, 2]);
        assert_eq!(idx.blocks_of(2), &[1, 2]);
        assert_eq!(idx.blocks_of(3), &[0, 2]);
        assert_eq!(idx.block_count(1), 3);
        assert_eq!(idx.total_assignments(), 9);
    }

    #[test]
    fn common_blocks_intersects() {
        let idx = ProfileBlockIndex::build(&sample());
        assert_eq!(idx.common_blocks(0, 1), 2);
        assert_eq!(idx.common_blocks(0, 2), 1);
        assert!(idx.co_occur(2, 3));
        assert_eq!(idx.common_blocks(0, 3), 2);
    }

    #[test]
    fn profile_without_blocks() {
        let blocks = vec![Block::new("b0", ClusterId::GLUE, ids(&[0, 2]), u32::MAX)];
        let c = BlockCollection::new(blocks, false, 3, 3);
        let idx = ProfileBlockIndex::build(&c);
        assert_eq!(idx.blocks_of(1), &[] as &[u32]);
        assert!(!idx.co_occur(0, 1));
        assert!(idx.co_occur(0, 2));
    }

    #[test]
    fn splice_grows_shrinks_and_deletes_rows() {
        let mut idx = ProfileBlockIndex::new();
        idx.splice_row(0, &[2, 5, 7]);
        idx.splice_row(1, &[5]);
        assert_eq!(idx.blocks_of(0), &[2, 5, 7]);
        assert_eq!(idx.blocks_of(1), &[5]);
        assert_eq!(idx.total_assignments(), 4);
        // Shrink.
        idx.splice_row(0, &[2, 7]);
        assert_eq!(idx.blocks_of(0), &[2, 7]);
        assert_eq!(idx.total_assignments(), 3);
        // Growth.
        idx.splice_row(1, &[1, 2, 3, 4, 5, 6]);
        assert_eq!(idx.blocks_of(1), &[1, 2, 3, 4, 5, 6]);
        assert_eq!(idx.blocks_of(0), &[2, 7], "other rows untouched");
        // Deletion.
        idx.splice_row(1, &[]);
        assert_eq!(idx.blocks_of(1), &[] as &[u32]);
        assert_eq!(idx.block_count(1), 0);
        idx.splice_row(2, &[9, 10, 11]);
        assert_eq!(idx.blocks_of(2), &[9, 10, 11]);
    }

    proptest! {
        /// common_blocks must agree with a naive set intersection.
        #[test]
        fn prop_common_blocks_matches_naive(
            memberships in proptest::collection::vec(
                proptest::collection::btree_set(0u32..12, 0..8), 1..12)
        ) {
            // memberships[b] = set of profiles in block b
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
            let c = BlockCollection::new(blocks, false, 12, 12);
            let idx = ProfileBlockIndex::build(&c);
            for a in 0u32..12 {
                for b in 0u32..12 {
                    let naive = memberships
                        .iter()
                        .filter(|m| m.contains(&a) && m.contains(&b))
                        .count() as u32;
                    prop_assert_eq!(idx.common_blocks(a, b), naive);
                }
            }
        }

        /// A `build` over random blocks followed by arbitrary splices —
        /// rows rewritten, rows emptied, rows added past `profile_count` —
        /// always reads back the latest content, and the counts stay exact.
        #[test]
        fn prop_splice_reads_back(
            memberships in proptest::collection::vec(
                proptest::collection::btree_set(0u32..6, 0..5), 0..8),
            writes in proptest::collection::vec(
                (0u32..10, proptest::collection::vec(0u32..50, 0..12)), 1..40)
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
            let mut idx = ProfileBlockIndex::build(&BlockCollection::new(blocks, false, 6, 6));
            let mut mirror: Vec<Vec<u32>> = (0..6u32)
                .map(|p| {
                    (0..memberships.len() as u32)
                        .filter(|&b| memberships[b as usize].contains(&p))
                        .collect()
                })
                .collect();
            for (p, ids) in &writes {
                // Short draws empty the row, so deletions are routine.
                let ids: &[u32] = if ids.len() < 3 { &[] } else { ids };
                idx.splice_row(*p, ids);
                let p = *p as usize;
                if mirror.len() <= p {
                    mirror.resize_with(p + 1, Vec::new);
                }
                mirror[p] = ids.to_vec();
                prop_assert_eq!(idx.profile_count(), mirror.len());
            }
            let expect_total: u64 = mirror.iter().map(|r| r.len() as u64).sum();
            prop_assert_eq!(idx.total_assignments(), expect_total);
            for (p, row) in mirror.iter().enumerate() {
                prop_assert_eq!(idx.blocks_of(p as u32), row.as_slice());
                prop_assert_eq!(idx.block_count(p as u32), row.len() as u32);
            }
        }
    }
}
