//! Mutable CSR profile → block index.
//!
//! Several components need "which blocks contain profile p": Block
//! Filtering, blocking-graph construction (node-centric edge enumeration),
//! and PC evaluation (a ground-truth pair is detected iff the block lists of
//! its profiles intersect). The index is a compressed-sparse-row layout —
//! one row descriptor per profile into a shared id arena — that supports
//! **row-level splicing**: [`ProfileBlockIndex::splice_row`] replaces one
//! profile's block list in place, relocating the row through a tombstoned
//! free-list when it outgrows its extent, so the incremental graph snapshot
//! can patch exactly the dirty rows instead of rebuilding the whole index
//! per commit.
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

/// One row's extent in the arena: `data[start .. start + len]` holds the
/// row, `cap` slots are reserved (the slack is tombstoned capacity).
#[derive(Debug, Clone, Copy, Default)]
struct RowRef {
    start: u32,
    len: u32,
    cap: u32,
}

/// CSR index from global profile id to the ids of the blocks containing it,
/// mutable at row granularity.
#[derive(Debug, Clone)]
pub struct ProfileBlockIndex {
    rows: Vec<RowRef>,
    data: Vec<u32>,
    /// Tombstoned extents of relocated/deleted rows: `(start, cap)`.
    free: Vec<(u32, u32)>,
    /// Σ row lengths (live assignments).
    assignments: u64,
}

impl ProfileBlockIndex {
    /// An empty index with no profiles (rows are added by
    /// [`ProfileBlockIndex::ensure_profiles`]).
    pub fn new() -> Self {
        Self {
            rows: Vec::new(),
            data: Vec::new(),
            free: Vec::new(),
            assignments: 0,
        }
    }

    /// Builds the index for `blocks` (packed, no free extents).
    pub fn build(blocks: &BlockCollection) -> Self {
        let n = blocks.total_profiles() as usize;
        let mut counts = vec![0u32; n + 1];
        for b in blocks.blocks() {
            for p in &b.profiles {
                counts[p.index() + 1] += 1;
            }
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let offsets = counts;
        let mut cursor = offsets.clone();
        let total = *offsets.last().unwrap_or(&0);
        let mut data = vec![0u32; total as usize];
        for (bid, b) in blocks.blocks().iter().enumerate() {
            for p in &b.profiles {
                let slot = cursor[p.index()];
                data[slot as usize] = bid as u32;
                cursor[p.index()] += 1;
            }
        }
        // Block ids are appended in increasing bid order, so each profile's
        // row is already sorted.
        let rows = (0..n)
            .map(|p| {
                let start = offsets[p];
                let len = offsets[p + 1] - start;
                RowRef {
                    start,
                    len,
                    cap: len,
                }
            })
            .collect();
        Self {
            rows,
            data,
            free: Vec::new(),
            assignments: total as u64,
        }
    }

    /// The block ids of profile `p`'s row, in the index's row order.
    #[inline]
    pub fn blocks_of(&self, p: u32) -> &[u32] {
        let r = self.rows[p as usize];
        &self.data[r.start as usize..(r.start + r.len) as usize]
    }

    /// Number of blocks containing `p` (the |Bᵢ| of §3.3.1's contingency
    /// table).
    #[inline]
    pub fn block_count(&self, p: u32) -> u32 {
        self.rows[p as usize].len
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

    /// Estimated resident heap footprint in bytes (row refs, the packed
    /// data arena including tombstoned extents, and the free-list).
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.rows.capacity() * size_of::<RowRef>()
            + self.data.capacity() * size_of::<u32>()
            + self.free.capacity() * size_of::<(u32, u32)>()
    }

    /// Capacity currently tombstoned in the free-list plus row slack
    /// (diagnostics for the compaction heuristic).
    pub fn dead_capacity(&self) -> u64 {
        self.data.len() as u64 - self.assignments
    }

    /// Grows the index to cover at least `n` profiles (new rows empty).
    pub fn ensure_profiles(&mut self, n: usize) {
        if self.rows.len() < n {
            self.rows.resize(n, RowRef::default());
        }
    }

    /// Replaces profile `p`'s row with `ids` (already in the caller's row
    /// order). Reuses the row's extent when it fits; otherwise tombstones it
    /// onto the free-list and relocates the row (best-fit over the free
    /// extents, else the arena tail). An empty `ids` deletes the row,
    /// freeing its extent.
    pub fn splice_row(&mut self, p: u32, ids: &[u32]) {
        self.ensure_profiles(p as usize + 1);
        let row = self.rows[p as usize];
        self.assignments = self.assignments - row.len as u64 + ids.len() as u64;
        if ids.is_empty() {
            if row.cap > 0 {
                self.free.push((row.start, row.cap));
            }
            self.rows[p as usize] = RowRef::default();
            return;
        }
        if ids.len() as u32 <= row.cap {
            let start = row.start as usize;
            self.data[start..start + ids.len()].copy_from_slice(ids);
            self.rows[p as usize].len = ids.len() as u32;
            return;
        }
        // Relocate: free the old extent, then best-fit from the free-list.
        if row.cap > 0 {
            self.free.push((row.start, row.cap));
        }
        let need = ids.len() as u32;
        let best = self
            .free
            .iter()
            .enumerate()
            .filter(|(_, &(_, cap))| cap >= need)
            .min_by_key(|(_, &(_, cap))| cap)
            .map(|(i, _)| i);
        let (start, cap) = match best {
            Some(i) => self.free.swap_remove(i),
            None => {
                // Append with headroom so rows growing by one token do not
                // relocate (and tombstone) on every micro-batch.
                let cap = need.next_power_of_two();
                let start = self.data.len() as u32;
                self.data.resize(self.data.len() + cap as usize, 0);
                (start, cap)
            }
        };
        self.data[start as usize..start as usize + ids.len()].copy_from_slice(ids);
        self.rows[p as usize] = RowRef {
            start,
            len: need,
            cap,
        };
        self.maybe_compact();
    }

    /// Repacks the arena when tombstoned capacity dominates, bounding memory
    /// at ~2× the live assignments.
    fn maybe_compact(&mut self) {
        if (self.data.len() as u64) <= self.assignments * 2 + 1024 {
            return;
        }
        let mut data = Vec::with_capacity(self.assignments as usize);
        for row in &mut self.rows {
            let start = data.len() as u32;
            data.extend_from_slice(&self.data[row.start as usize..(row.start + row.len) as usize]);
            *row = RowRef {
                start,
                len: row.len,
                cap: row.len,
            };
        }
        self.data = data;
        self.free.clear();
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

impl Default for ProfileBlockIndex {
    fn default() -> Self {
        Self::new()
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
        // In-place shrink.
        idx.splice_row(0, &[2, 7]);
        assert_eq!(idx.blocks_of(0), &[2, 7]);
        assert_eq!(idx.total_assignments(), 3);
        // Growth beyond the extent relocates and tombstones.
        idx.splice_row(1, &[1, 2, 3, 4, 5, 6]);
        assert_eq!(idx.blocks_of(1), &[1, 2, 3, 4, 5, 6]);
        assert_eq!(idx.blocks_of(0), &[2, 7], "other rows untouched");
        // Deletion frees the extent for reuse.
        idx.splice_row(1, &[]);
        assert_eq!(idx.blocks_of(1), &[] as &[u32]);
        assert_eq!(idx.block_count(1), 0);
        let dead_before = idx.dead_capacity();
        idx.splice_row(2, &[9, 10, 11]);
        assert!(
            idx.dead_capacity() < dead_before + 3,
            "freed extent reused for the new row"
        );
        assert_eq!(idx.blocks_of(2), &[9, 10, 11]);
    }

    #[test]
    fn compaction_bounds_dead_capacity() {
        let mut idx = ProfileBlockIndex::new();
        // Repeatedly rewrite a handful of rows with growing lists to force
        // relocations, then shrink them, leaving holes.
        for round in 1u32..40 {
            for p in 0..4u32 {
                let ids: Vec<u32> = (0..round + p).collect();
                idx.splice_row(p, &ids);
            }
        }
        for p in 0..4u32 {
            idx.splice_row(p, &[1, 2]);
        }
        idx.splice_row(9, &(0..2048).collect::<Vec<u32>>());
        assert!(
            idx.dead_capacity() <= idx.total_assignments() * 2 + 1024,
            "dead {} vs assignments {}",
            idx.dead_capacity(),
            idx.total_assignments()
        );
        for p in 0..4u32 {
            assert_eq!(idx.blocks_of(p), &[1, 2], "row {p} survives compaction");
        }
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

        /// A row spliced through arbitrary rewrite sequences always reads
        /// back the latest content, and the assignment count stays exact.
        #[test]
        fn prop_splice_reads_back(
            writes in proptest::collection::vec(
                (0u32..6, proptest::collection::vec(0u32..50, 0..12)), 1..40)
        ) {
            let mut idx = ProfileBlockIndex::new();
            let mut mirror: std::collections::BTreeMap<u32, Vec<u32>> = Default::default();
            for (p, ids) in &writes {
                idx.splice_row(*p, ids);
                mirror.insert(*p, ids.clone());
            }
            let expect_total: u64 = mirror.values().map(|v| v.len() as u64).sum();
            prop_assert_eq!(idx.total_assignments(), expect_total);
            for (p, ids) in &mirror {
                prop_assert_eq!(idx.blocks_of(*p), ids.as_slice());
            }
        }
    }
}
