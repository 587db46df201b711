//! MinHash signatures over interned token sets.
//!
//! With the binary attribute-representation model of §2.1 (an attribute is
//! the set of tokens appearing in its values), the probability that two
//! columns share a minhash value equals their Jaccard similarity [4, 11].
//! We implement the standard "one universal hash per permutation" variant:
//! `hᵢ(x) = (aᵢ·x + bᵢ) mod p`, `p = 2⁶¹ − 1`, taking the minimum over the
//! set's token ids.
//!
//! The reduction mod `p` folds the product at bit 61 (`2⁶¹ ≡ 1 mod p`)
//! instead of dividing, which is exact. Besides the per-set
//! [`MinHasher::signature`], the family hashes a whole dense token
//! universe under a range of functions at once: the band-major LSH build
//! (`BandingIndex::from_token_sets`) hashes each distinct token once per
//! band rather than once per set holding it.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::ops::Range;

/// Mersenne prime 2⁶¹−1: large enough for 32-bit token-id universes and
/// cheap to reduce by.
const PRIME: u64 = (1u64 << 61) - 1;

/// `(a·x + b) mod p` for `a, b < p` and a 32-bit `x`.
///
/// The sum is below `2⁹³ + 2⁶¹`; folding its bits above 61 onto the low
/// 61 (`2⁶¹ ≡ 1 mod p`) leaves a value below `2⁶¹ + 2³³ < 2p`, so one
/// conditional subtraction finishes the reduction — no 128-bit division.
#[inline]
fn universal_hash(a: u64, b: u64, x: u32) -> u64 {
    let v = a as u128 * x as u128 + b as u128;
    let folded = (v as u64 & PRIME) + (v >> 61) as u64;
    if folded >= PRIME {
        folded - PRIME
    } else {
        folded
    }
}

/// A MinHash signature: one minimum per hash function.
pub type Signature = Vec<u64>;

/// A family of `n` universal hash functions producing MinHash signatures.
///
/// ```
/// use blast_lsh::minhash::MinHasher;
/// let mh = MinHasher::new(128, 42);
/// let a = mh.signature(vec![1u32, 2, 3, 4]);
/// let b = mh.signature(vec![1u32, 2, 3, 9]);
/// let est = MinHasher::estimate_jaccard(&a, &b);
/// assert!((est - 0.6).abs() < 0.25); // true Jaccard = 3/5
/// ```
#[derive(Debug, Clone)]
pub struct MinHasher {
    coeffs: Vec<(u64, u64)>,
}

impl MinHasher {
    /// Creates `n` hash functions with deterministic seeding.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n > 0, "at least one hash function required");
        let mut rng = StdRng::seed_from_u64(seed);
        let coeffs = (0..n)
            .map(|_| {
                // a must be non-zero mod p.
                let a = rng.random_range(1..PRIME);
                let b = rng.random_range(0..PRIME);
                (a, b)
            })
            .collect();
        Self { coeffs }
    }

    /// Number of hash functions (signature length).
    #[inline]
    pub fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// Whether the family is empty (never true by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Computes the signature of a token set given as an iterator of ids.
    /// An empty set yields the all-`u64::MAX` signature (never collides in
    /// banding with non-empty sets only by chance ≈ 0).
    pub fn signature(&self, tokens: impl IntoIterator<Item = u32> + Clone) -> Signature {
        let mut sig = vec![u64::MAX; self.coeffs.len()];
        for tok in tokens {
            for (slot, &(a, b)) in sig.iter_mut().zip(&self.coeffs) {
                let h = universal_hash(a, b, tok);
                if h < *slot {
                    *slot = h;
                }
            }
        }
        sig
    }

    /// Hashes every token id in `0..universe` under the hash functions
    /// `functions` into `table`, token-major: token `t`'s row is
    /// `table[t·k..(t+1)·k]` with `k = functions.len()`, and component `j`
    /// of a row equals component `functions.start + j` of
    /// [`Self::signature`] on that one token. `table` is cleared first, so
    /// a caller can reuse its allocation.
    ///
    /// # Panics
    /// Panics if `functions` reaches past [`Self::len`].
    pub(crate) fn hash_rows(&self, functions: Range<usize>, universe: u32, table: &mut Vec<u64>) {
        let coeffs = &self.coeffs[functions];
        table.clear();
        table.reserve(universe as usize * coeffs.len());
        for tok in 0..universe {
            table.extend(coeffs.iter().map(|&(a, b)| universal_hash(a, b, tok)));
        }
    }

    /// Estimates the Jaccard similarity of two sets from their signatures
    /// (fraction of agreeing components).
    pub fn estimate_jaccard(a: &Signature, b: &Signature) -> f64 {
        assert_eq!(a.len(), b.len(), "signatures must have equal length");
        if a.is_empty() {
            return 0.0;
        }
        let agree = a.iter().zip(b).filter(|(x, y)| x == y).count();
        agree as f64 / a.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn true_jaccard(a: &BTreeSet<u32>, b: &BTreeSet<u32>) -> f64 {
        let inter = a.intersection(b).count() as f64;
        let union = a.union(b).count() as f64;
        if union == 0.0 {
            0.0
        } else {
            inter / union
        }
    }

    #[test]
    fn identical_sets_have_identical_signatures() {
        let mh = MinHasher::new(64, 42);
        let s1 = mh.signature(vec![1u32, 5, 9, 200]);
        let s2 = mh.signature(vec![200u32, 9, 5, 1]); // order irrelevant
        assert_eq!(s1, s2);
        assert_eq!(MinHasher::estimate_jaccard(&s1, &s2), 1.0);
    }

    #[test]
    fn disjoint_sets_rarely_collide() {
        let mh = MinHasher::new(128, 7);
        let s1 = mh.signature(0u32..50);
        let s2 = mh.signature(1000u32..1050);
        assert!(MinHasher::estimate_jaccard(&s1, &s2) < 0.1);
    }

    #[test]
    fn estimate_tracks_true_jaccard() {
        // Two sets with Jaccard exactly 1/3: |∩|=25, |∪|=75.
        let a: BTreeSet<u32> = (0..50).collect();
        let b: BTreeSet<u32> = (25..75).collect();
        let expected = true_jaccard(&a, &b);
        assert!((expected - 1.0 / 3.0).abs() < 1e-12);

        let mh = MinHasher::new(512, 123);
        let sa = mh.signature(a.iter().copied().collect::<Vec<_>>());
        let sb = mh.signature(b.iter().copied().collect::<Vec<_>>());
        let est = MinHasher::estimate_jaccard(&sa, &sb);
        // 512 hashes → s.e. ≈ sqrt(J(1−J)/512) ≈ 0.021; allow 4σ.
        assert!(
            (est - expected).abs() < 0.085,
            "estimate {est} too far from {expected}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = MinHasher::new(16, 99).signature(vec![3u32, 1, 4]);
        let b = MinHasher::new(16, 99).signature(vec![3u32, 1, 4]);
        assert_eq!(a, b);
        let c = MinHasher::new(16, 100).signature(vec![3u32, 1, 4]);
        assert_ne!(a, c, "different seed should give a different family");
    }

    #[test]
    fn empty_set_signature() {
        let mh = MinHasher::new(8, 1);
        let s = mh.signature(Vec::<u32>::new());
        assert!(s.iter().all(|&v| v == u64::MAX));
    }

    /// The family at the LSH default (150 functions, seed 0xb1a57) on the
    /// ids 0..1000: the checksum was recorded with the `u128 %` reduction,
    /// so the folded one must keep every component.
    #[test]
    fn signature_checksum_is_pinned() {
        let sig = MinHasher::new(150, 0x000b_1a57).signature(0..1000);
        let sum = sig
            .iter()
            .fold(0u64, |acc, &h| (acc ^ h).wrapping_mul(0x0100_0000_01b3));
        assert_eq!(sum, 0x0840_e5c0_7348_2ef2);
        assert_eq!(sig[0], 0x0023_5ac2_acbc_bd92);
        assert_eq!(sig[149], 0x0002_9472_4429_e5de);
    }

    #[test]
    fn hash_rows_match_single_token_signatures() {
        let mh = MinHasher::new(12, 5);
        let mut table = vec![7; 3]; // stale content is cleared
        mh.hash_rows(4..9, 40, &mut table);
        assert_eq!(table.len(), 40 * 5);
        for tok in 0..40u32 {
            let sig = mh.signature([tok]);
            let row = &table[tok as usize * 5..][..5];
            assert_eq!(row, &sig[4..9], "token {tok}");
        }
    }

    #[test]
    fn folded_hash_at_the_edges() {
        let reference =
            |a: u64, b: u64, x: u32| ((a as u128 * x as u128 + b as u128) % PRIME as u128) as u64;
        for a in [1, 2, PRIME - 2, PRIME - 1] {
            for b in [0, 1, PRIME - 2, PRIME - 1] {
                for x in [0, 1, 2, u32::MAX - 1, u32::MAX] {
                    assert_eq!(universal_hash(a, b, x), reference(a, b, x), "{a} {b} {x}");
                }
            }
        }
    }

    proptest! {
        /// The folded reduction is exactly `(a·x + b) mod p` over the whole
        /// coefficient range the family draws from, the largest `a` and `x`
        /// included.
        #[test]
        fn prop_folded_hash_equals_u128_remainder(
            a in 1u64..PRIME,
            b in 0u64..PRIME,
            x in 0u32..=u32::MAX,
        ) {
            let reference = |a: u64, x: u32| {
                ((a as u128 * x as u128 + b as u128) % PRIME as u128) as u64
            };
            prop_assert_eq!(universal_hash(a, b, x), reference(a, x));
            prop_assert_eq!(universal_hash(PRIME - 1, b, x), reference(PRIME - 1, x));
            prop_assert_eq!(universal_hash(a, b, u32::MAX), reference(a, u32::MAX));
        }

        /// MinHash estimate must be within a loose statistical bound of the
        /// true Jaccard for random sets.
        #[test]
        fn prop_estimate_close_to_jaccard(
            a in proptest::collection::btree_set(0u32..300, 1..80),
            b in proptest::collection::btree_set(0u32..300, 1..80),
        ) {
            let mh = MinHasher::new(256, 2024);
            let sa = mh.signature(a.iter().copied().collect::<Vec<_>>());
            let sb = mh.signature(b.iter().copied().collect::<Vec<_>>());
            let est = MinHasher::estimate_jaccard(&sa, &sb);
            let truth = true_jaccard(&a, &b);
            // 256 hashes → s.e. ≤ 0.032; 5σ bound keeps flakiness ≈ 0.
            prop_assert!((est - truth).abs() < 0.16, "est={est} truth={truth}");
        }
    }
}
