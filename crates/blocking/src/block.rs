//! A single block: the set of profiles sharing one blocking key.

use crate::key::ClusterId;
use blast_datamodel::entity::ProfileId;

/// A block produced by a (meta-)blocking technique.
///
/// Profiles are stored as sorted global ids. For clean-clean inputs the
/// profiles of the first collection precede the separator, so `split` marks
/// where the second collection starts inside `profiles`; for dirty inputs
/// `split == profiles.len()` by convention and the block is *unilateral*.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Human-readable key (the token), for diagnostics and tests.
    pub label: Box<str>,
    /// The attribute cluster the key was derived from (glue cluster when
    /// blocking is schema-agnostic).
    pub cluster: ClusterId,
    /// Sorted global profile ids.
    pub profiles: Vec<ProfileId>,
    /// Index of the first profile belonging to the second collection.
    pub split: u32,
}

impl Block {
    /// Builds a block from sorted profile ids, computing the split at
    /// `separator` (pass `u32::MAX` effectively for dirty inputs so that
    /// `split == len`).
    pub fn new(
        label: impl Into<Box<str>>,
        cluster: ClusterId,
        profiles: Vec<ProfileId>,
        separator: u32,
    ) -> Self {
        debug_assert!(
            profiles.windows(2).all(|w| w[0] < w[1]),
            "profiles must be sorted+unique"
        );
        let split = profiles.partition_point(|p| p.0 < separator) as u32;
        Self {
            label: label.into(),
            cluster,
            profiles,
            split,
        }
    }

    /// Number of profiles in the block (|b|).
    #[inline]
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the block is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Profiles of the first collection (clean-clean) or all profiles
    /// (dirty).
    #[inline]
    pub fn inner1(&self) -> &[ProfileId] {
        &self.profiles[..self.split as usize]
    }

    /// Profiles of the second collection (empty for dirty blocks).
    #[inline]
    pub fn inner2(&self) -> &[ProfileId] {
        &self.profiles[self.split as usize..]
    }

    /// Number of comparisons the block implies (‖b‖, §2; see
    /// [`comparison_cardinality`]).
    pub fn cardinality(&self, clean_clean: bool) -> u64 {
        // The first id of the second collection splits the sorted ids
        // exactly where the collection's separator did.
        let separator = self.inner2().first().map_or(u32::MAX, |p| p.0);
        comparison_cardinality(&self.profiles, separator, clean_clean)
    }

    /// Whether the block implies at least one comparison.
    pub fn is_valid(&self, clean_clean: bool) -> bool {
        self.cardinality(clean_clean) > 0
    }

    /// Calls `f` on every comparison (pair of profiles, smaller id first)
    /// the block implies.
    pub fn for_each_comparison(&self, clean_clean: bool, mut f: impl FnMut(ProfileId, ProfileId)) {
        if clean_clean {
            for &a in self.inner1() {
                for &b in self.inner2() {
                    f(a, b);
                }
            }
        } else {
            for (i, &a) in self.profiles.iter().enumerate() {
                for &b in &self.profiles[i + 1..] {
                    f(a, b);
                }
            }
        }
    }
}

/// The number of comparisons ‖b‖ a block with the sorted member ids `ids`
/// implies (§2): `|b1|·|b2|` for a bilateral (clean-clean) block, whose
/// second collection starts at global id `separator`, and `C(|b|,2)` for a
/// unilateral one. A block is valid iff this is positive. Batch blocks, the
/// incremental cleaner's raw postings and the graph snapshot's slots all
/// count through this one definition, which keeps their figures bit-equal.
pub fn comparison_cardinality(ids: &[ProfileId], separator: u32, clean_clean: bool) -> u64 {
    if clean_clean {
        let split = ids.partition_point(|p| p.0 < separator) as u64;
        split * (ids.len() as u64 - split)
    } else {
        let n = ids.len() as u64;
        n * n.saturating_sub(1) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<ProfileId> {
        v.iter().map(|&i| ProfileId(i)).collect()
    }

    #[test]
    fn bilateral_cardinality_and_split() {
        // separator 3: {0,2} from E1, {3,5,7} from E2
        let b = Block::new("abram", ClusterId::GLUE, ids(&[0, 2, 3, 5, 7]), 3);
        assert_eq!(b.split, 2);
        assert_eq!(b.inner1(), &ids(&[0, 2])[..]);
        assert_eq!(b.inner2(), &ids(&[3, 5, 7])[..]);
        assert_eq!(b.cardinality(true), 6);
        assert!(b.is_valid(true));
    }

    #[test]
    fn unilateral_cardinality() {
        let b = Block::new("abram", ClusterId::GLUE, ids(&[0, 1, 2, 3]), u32::MAX);
        assert_eq!(b.cardinality(false), 6); // C(4,2)
        assert!(b.is_valid(false));
    }

    #[test]
    fn one_sided_bilateral_block_is_invalid() {
        let b = Block::new("john", ClusterId::GLUE, ids(&[0, 1]), 5);
        assert_eq!(b.cardinality(true), 0);
        assert!(!b.is_valid(true));
        // ...but valid as a dirty block.
        assert!(b.is_valid(false));
    }

    #[test]
    fn comparison_enumeration_matches_cardinality() {
        let b = Block::new("k", ClusterId::GLUE, ids(&[0, 2, 3, 5, 7]), 3);
        let mut n = 0u64;
        b.for_each_comparison(true, |a, x| {
            assert!(a.0 < 3 && x.0 >= 3);
            n += 1;
        });
        assert_eq!(n, b.cardinality(true));

        let d = Block::new("k", ClusterId::GLUE, ids(&[1, 4, 9]), u32::MAX);
        let mut pairs = Vec::new();
        d.for_each_comparison(false, |a, x| pairs.push((a.0, x.0)));
        assert_eq!(pairs, vec![(1, 4), (1, 9), (4, 9)]);
    }

    /// The free function and the block method agree whatever the split,
    /// including one-sided and empty sides.
    #[test]
    fn comparison_cardinality_matches_the_block() {
        for (members, separator) in [
            (&[0, 2, 3, 5, 7][..], 3),
            (&[0, 1][..], 5),
            (&[6, 7][..], 5),
            (&[][..], 5),
            (&[1, 4, 9][..], u32::MAX),
        ] {
            let b = Block::new("k", ClusterId::GLUE, ids(members), separator);
            for clean in [true, false] {
                assert_eq!(
                    comparison_cardinality(&ids(members), separator, clean),
                    b.cardinality(clean),
                    "{members:?} at {separator}, clean-clean {clean}"
                );
            }
        }
    }

    #[test]
    fn singleton_block_has_no_comparisons() {
        let b = Block::new("rare", ClusterId::GLUE, ids(&[4]), 2);
        assert_eq!(b.cardinality(true), 0);
        assert_eq!(b.cardinality(false), 0);
    }
}
