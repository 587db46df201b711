//! The output of meta-blocking: the retained comparisons.
//!
//! After pruning, "each pair of nodes connected by an edge forms a new
//! block" (§2.2) — so the restructured collection is exactly the set of
//! retained pairs, with ‖B'‖ = number of pairs and no redundant comparisons
//! by construction.

use blast_datamodel::entity::ProfileId;

/// The comparisons surviving a pruning scheme (each pair appears once,
/// smaller id first, sorted).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RetainedPairs {
    pairs: Vec<(ProfileId, ProfileId)>,
}

impl RetainedPairs {
    /// Wraps a pair list, normalising (swap to smaller-first), sorting and
    /// deduplicating.
    pub fn new(mut pairs: Vec<(ProfileId, ProfileId)>) -> Self {
        for p in &mut pairs {
            if p.0 > p.1 {
                std::mem::swap(&mut p.0, &mut p.1);
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        Self { pairs }
    }

    /// Wraps a pair list that is **already normalised** (each pair smaller
    /// id first, sorted ascending, unique) without re-sorting — the hot
    /// path for incremental repair, which merges two sorted retained sets
    /// per micro-batch. The invariant is debug-asserted.
    pub fn from_sorted(pairs: Vec<(ProfileId, ProfileId)>) -> Self {
        debug_assert!(
            pairs.windows(2).all(|w| w[0] < w[1]),
            "pairs must be sorted and unique"
        );
        debug_assert!(
            pairs.iter().all(|p| p.0 < p.1),
            "pairs must be smaller id first"
        );
        Self { pairs }
    }

    /// The retained pairs (sorted, unique, smaller id first).
    #[inline]
    pub fn pairs(&self) -> &[(ProfileId, ProfileId)] {
        &self.pairs
    }

    /// Number of retained comparisons (the ‖B‖ column of Tables 4, 5, 7).
    #[inline]
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether nothing survived.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Whether a specific pair survived.
    pub fn contains(&self, a: ProfileId, b: ProfileId) -> bool {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.pairs.binary_search(&key).is_ok()
    }

    /// Iterates over the retained pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProfileId, ProfileId)> + '_ {
        self.pairs.iter().copied()
    }
}

impl FromIterator<(ProfileId, ProfileId)> for RetainedPairs {
    fn from_iter<T: IntoIterator<Item = (ProfileId, ProfileId)>>(iter: T) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

/// The retained set in per-node adjacency form — the incremental hot-path
/// representation. Where [`RetainedPairs`] is one flat sorted vector (ideal
/// for batch output, but any change means rewriting the whole vector), the
/// index stores each surviving pair in *both* endpoints' sorted neighbour
/// rows, so a commit can
///
/// * enumerate exactly the survivors incident to the dirty nodes (the old
///   side of the flip diff) without scanning clean survivors, and
/// * apply a retention flip in O(log d + d) row surgery instead of an
///   O(‖B′‖) merge of the full candidate set.
///
/// [`RetainedIndex::to_pairs`] materialises the flat form on demand (the
/// read path is lazy; nothing on the commit path pays it).
#[derive(Debug, Clone, Default)]
pub struct RetainedIndex {
    rows: Vec<Vec<u32>>,
    len: usize,
}

impl RetainedIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Estimated resident heap footprint in bytes (row capacities).
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.rows
            .iter()
            .map(|r| r.capacity() * size_of::<u32>())
            .sum::<usize>()
            + self.rows.len() * size_of::<Vec<u32>>()
    }

    /// Grows the row table to cover `n` nodes (never shrinks).
    pub fn ensure_nodes(&mut self, n: usize) {
        if self.rows.len() < n {
            self.rows.resize_with(n, Vec::new);
        }
    }

    /// Drops every pair (rows stay allocated).
    pub fn clear(&mut self) {
        for row in &mut self.rows {
            row.clear();
        }
        self.len = 0;
    }

    /// Number of retained pairs.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing survived.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the pair `(a, b)` is currently retained.
    pub fn contains(&self, a: u32, b: u32) -> bool {
        self.rows
            .get(a as usize)
            .is_some_and(|row| row.binary_search(&b).is_ok())
    }

    /// The retained partners of `u`, ascending.
    pub fn neighbours(&self, u: u32) -> &[u32] {
        self.rows.get(u as usize).map_or(&[], |r| r)
    }

    /// Inserts a pair, returning whether it was new.
    pub fn insert(&mut self, a: u32, b: u32) -> bool {
        debug_assert_ne!(a, b);
        let max = a.max(b) as usize;
        if self.rows.len() <= max {
            self.rows.resize_with(max + 1, Vec::new);
        }
        match self.rows[a as usize].binary_search(&b) {
            Ok(_) => false,
            Err(i) => {
                self.rows[a as usize].insert(i, b);
                let j = self.rows[b as usize]
                    .binary_search(&a)
                    .expect_err("rows must mirror");
                self.rows[b as usize].insert(j, a);
                self.len += 1;
                true
            }
        }
    }

    /// Removes a pair, returning whether it was present.
    pub fn remove(&mut self, a: u32, b: u32) -> bool {
        let Some(row) = self.rows.get_mut(a as usize) else {
            return false;
        };
        match row.binary_search(&b) {
            Err(_) => false,
            Ok(i) => {
                row.remove(i);
                let j = self.rows[b as usize]
                    .binary_search(&a)
                    .expect("rows must mirror");
                self.rows[b as usize].remove(j);
                self.len -= 1;
                true
            }
        }
    }

    /// Materialises the flat sorted form (each pair once, smaller id
    /// first). O(‖B′‖) — the lazy read path, not the commit path.
    pub fn to_pairs(&self) -> RetainedPairs {
        let mut pairs = Vec::with_capacity(self.len);
        for (u, row) in self.rows.iter().enumerate() {
            let u = u as u32;
            for &v in row {
                if v > u {
                    pairs.push((ProfileId(u), ProfileId(v)));
                }
            }
        }
        RetainedPairs::from_sorted(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(a: u32, b: u32) -> (ProfileId, ProfileId) {
        (ProfileId(a), ProfileId(b))
    }

    #[test]
    fn from_sorted_trusts_normalised_input() {
        let pairs = vec![p(0, 1), p(1, 3), p(2, 5)];
        let r = RetainedPairs::from_sorted(pairs.clone());
        assert_eq!(r.pairs(), &pairs[..]);
        assert_eq!(r, RetainedPairs::new(pairs));
    }

    #[test]
    fn normalises_sorts_dedupes() {
        let r = RetainedPairs::new(vec![p(5, 2), p(2, 5), p(1, 3)]);
        assert_eq!(r.pairs(), &[p(1, 3), p(2, 5)]);
        assert_eq!(r.len(), 2);
        assert!(r.contains(ProfileId(5), ProfileId(2)));
        assert!(!r.contains(ProfileId(1), ProfileId(2)));
    }

    #[test]
    fn retained_index_mirrors_and_materialises() {
        let mut idx = RetainedIndex::new();
        assert!(idx.insert(3, 1));
        assert!(idx.insert(1, 2));
        assert!(!idx.insert(1, 3), "insert is idempotent both ways");
        assert_eq!(idx.len(), 2);
        assert!(idx.contains(2, 1) && idx.contains(1, 3));
        assert_eq!(idx.neighbours(1), &[2, 3]);
        assert_eq!(idx.to_pairs().pairs(), &[p(1, 2), p(1, 3)]);
        assert!(idx.remove(2, 1));
        assert!(!idx.remove(1, 2), "already gone");
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.to_pairs().pairs(), &[p(1, 3)]);
        idx.clear();
        assert!(idx.is_empty());
        assert!(idx.to_pairs().is_empty());
    }

    #[test]
    fn meta_blocking_prevents_redundancy() {
        // Even if a pair is produced twice by a pruning pass, the output
        // contains it once — "two profiles can appear together in the final
        // block collection at most once" (§2.2).
        let r: RetainedPairs = vec![p(0, 2), p(2, 0), p(0, 2)].into_iter().collect();
        assert_eq!(r.len(), 1);
    }
}
