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
    /// id first, sorted ascending, unique) without re-sorting — the read
    /// path of incremental repair, which walks its retained set off rows
    /// already in this order. The invariant is debug-asserted.
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
    fn meta_blocking_prevents_redundancy() {
        // Even if a pair is produced twice by a pruning pass, the output
        // contains it once — "two profiles can appear together in the final
        // block collection at most once" (§2.2).
        let r: RetainedPairs = vec![p(0, 2), p(2, 0), p(0, 2)].into_iter().collect();
        assert_eq!(r.len(), 1);
    }
}
