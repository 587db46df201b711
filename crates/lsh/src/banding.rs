//! The banding technique \[11\]: signatures are split into `b` bands of `r`
//! rows; two columns are *candidates* iff they are identical in at least one
//! band.
//!
//! Columns enter one signature at a time ([`BandingIndex::insert`]) or all
//! at once, band by band ([`BandingIndex::from_token_sets`]): each band
//! hashes every distinct token once into a table of `r` minhashes per
//! token, folds each column's `r` minima from that table and keys them the
//! way `insert` keys a signature's band. The bands are independent, so
//! they run in parallel. A band is a list of `(key, column)` entries, not
//! a map of buckets: most columns collide with nobody, and a list costs no
//! allocation per column. The candidate pairs group each band's entries by
//! key, so they are the same at any thread count and equal those of the
//! index built by inserting every column's full signature.

use crate::minhash::{MinHasher, Signature};
use blast_datamodel::hash::{FastSet, FxHasher};
use blast_datamodel::parallel::{default_threads, parallel_work_steal};
use std::hash::{Hash, Hasher};

/// The bucket key of one band of a signature.
fn band_key(band: &[u64]) -> u64 {
    let mut h = FxHasher::default();
    band.hash(&mut h);
    h.finish()
}

/// An LSH banding index over MinHash signatures.
///
/// Columns (attributes) are added with dense ids; [`BandingIndex::candidate_pairs`]
/// returns every pair of columns colliding in some band, each pair reported
/// once.
#[derive(Debug, Clone)]
pub struct BandingIndex {
    bands: usize,
    rows: usize,
    /// Per band, the `(band key, column id)` of every indexed column.
    entries: Vec<Vec<(u64, u32)>>,
}

impl BandingIndex {
    /// Creates an index with `bands` bands of `rows` rows each. Signatures
    /// inserted later must have length ≥ `bands·rows` (extra components are
    /// ignored).
    pub fn new(bands: usize, rows: usize) -> Self {
        assert!(bands > 0 && rows > 0, "bands and rows must be positive");
        Self {
            bands,
            rows,
            entries: vec![Vec::new(); bands],
        }
    }

    /// Number of bands.
    #[inline]
    pub fn bands(&self) -> usize {
        self.bands
    }

    /// Rows per band.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Inserts the signature of column `id`.
    ///
    /// # Panics
    /// Panics if the signature is shorter than `bands·rows`.
    pub fn insert(&mut self, id: u32, signature: &Signature) {
        assert!(
            signature.len() >= self.bands * self.rows,
            "signature length {} < bands*rows {}",
            signature.len(),
            self.bands * self.rows
        );
        for (band, entries) in self.entries.iter_mut().enumerate() {
            let slice = &signature[band * self.rows..(band + 1) * self.rows];
            entries.push((band_key(slice), id));
        }
    }

    /// The index of the token sets `sets` (column `i` is `sets[i]`) under
    /// the first `bands·rows` functions of `hasher`, built band-major: the
    /// same entries as [`Self::insert`] of every non-empty column's
    /// [`MinHasher::signature`]. Empty sets are skipped (their all-`MAX`
    /// signatures would all collide).
    ///
    /// Each band hashes every id in `0..=max id` once, so the sets should
    /// hold dense ids (interned symbols); the per-band table is
    /// `(max id + 1)·rows` words per worker thread.
    ///
    /// # Panics
    /// Panics if `hasher` has fewer than `bands·rows` functions.
    pub fn from_token_sets(hasher: &MinHasher, bands: usize, rows: usize, sets: &[&[u32]]) -> Self {
        assert!(bands > 0 && rows > 0, "bands and rows must be positive");
        assert!(
            hasher.len() >= bands * rows,
            "signature length {} < bands*rows {}",
            hasher.len(),
            bands * rows
        );
        let universe = sets
            .iter()
            .filter_map(|set| set.iter().max())
            .max()
            .map_or(0, |&max| {
                max.checked_add(1)
                    .expect("token id u32::MAX leaves no dense table")
            });
        let tokens: usize = sets.iter().map(|set| set.len()).sum();
        let entries = parallel_work_steal(
            bands,
            default_threads(tokens),
            1,
            Vec::new,
            // Chunks of one band: `range` is `band..band + 1`.
            |table: &mut Vec<u64>, range| {
                let band = range.start;
                hasher.hash_rows(band * rows..(band + 1) * rows, universe, table);
                let mut minima = vec![u64::MAX; rows];
                let mut keyed = Vec::with_capacity(sets.len());
                for (id, set) in sets.iter().enumerate() {
                    if set.is_empty() {
                        continue;
                    }
                    minima.fill(u64::MAX);
                    for &tok in *set {
                        let row = &table[tok as usize * rows..][..rows];
                        for (min, &h) in minima.iter_mut().zip(row) {
                            *min = (*min).min(h);
                        }
                    }
                    keyed.push((band_key(&minima), id as u32));
                }
                // Sorted by the worker, so the sort in `pairs_where` meets
                // sorted input and groups the band in one linear pass.
                keyed.sort_unstable();
                keyed
            },
        );
        Self {
            bands,
            rows,
            entries,
        }
    }

    /// Every pair of columns colliding in at least one band, each reported
    /// once with the smaller id first, in deterministic (sorted) order.
    pub fn candidate_pairs(&self) -> Vec<(u32, u32)> {
        self.pairs_where(|_, _| true)
    }

    /// Candidate pairs restricted to one column from each side of
    /// `separator` (clean-clean attribute-match induction compares only
    /// cross-collection attribute pairs). Pairs are `(left, right)` with
    /// `left < separator ≤ right`.
    pub fn candidate_pairs_bipartite(&self, separator: u32) -> Vec<(u32, u32)> {
        self.pairs_where(|a, b| a < separator && b >= separator)
    }

    /// The colliding pairs `(a, b)`, `a < b`, that `keep` accepts: sorted,
    /// each once. Rejected pairs never enter the dedup set.
    fn pairs_where(&self, keep: impl Fn(u32, u32) -> bool) -> Vec<(u32, u32)> {
        let mut seen: FastSet<(u32, u32)> = FastSet::default();
        let mut band = Vec::new();
        for entries in &self.entries {
            // Sorting groups equal keys, each group in ascending column id.
            band.clone_from(entries);
            band.sort_unstable();
            for bucket in band.chunk_by(|x, y| x.0 == y.0) {
                for (i, &(_, a)) in bucket.iter().enumerate() {
                    for &(_, b) in &bucket[i + 1..] {
                        if keep(a, b) {
                            seen.insert((a, b));
                        }
                    }
                }
            }
        }
        let mut pairs: Vec<_> = seen.into_iter().collect();
        pairs.sort_unstable();
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minhash::MinHasher;

    #[test]
    fn identical_signatures_always_collide() {
        let mh = MinHasher::new(20, 5);
        let sig = mh.signature(vec![1u32, 2, 3, 4, 5]);
        let mut idx = BandingIndex::new(4, 5);
        idx.insert(0, &sig);
        idx.insert(1, &sig);
        assert_eq!(idx.candidate_pairs(), vec![(0, 1)]);
    }

    #[test]
    fn disjoint_sets_do_not_collide() {
        let mh = MinHasher::new(150, 5);
        let mut idx = BandingIndex::new(30, 5);
        idx.insert(0, &mh.signature(0u32..40));
        idx.insert(1, &mh.signature(10_000u32..10_040));
        assert!(idx.candidate_pairs().is_empty());
    }

    #[test]
    fn similar_sets_collide_with_r5_b30() {
        // Jaccard ≈ 0.82 ≫ threshold ≈ 0.5 for (r=5, b=30): collision
        // probability ≈ 1 − (1 − 0.82⁵)³⁰ ≈ 0.9999998.
        let mh = MinHasher::new(150, 99);
        let a: Vec<u32> = (0..100).collect();
        let b: Vec<u32> = (10..100).collect(); // |∩|=90, |∪|=100
        let mut idx = BandingIndex::new(30, 5);
        idx.insert(0, &mh.signature(a));
        idx.insert(1, &mh.signature(b));
        assert_eq!(idx.candidate_pairs(), vec![(0, 1)]);
    }

    #[test]
    fn bipartite_filter_keeps_cross_pairs_only() {
        let mh = MinHasher::new(20, 5);
        let sig = mh.signature(vec![1u32, 2, 3]);
        let mut idx = BandingIndex::new(4, 5);
        // Columns 0,1 on the left of separator 2; column 2 on the right.
        idx.insert(0, &sig);
        idx.insert(1, &sig);
        idx.insert(2, &sig);
        let all = idx.candidate_pairs();
        assert_eq!(all.len(), 3);
        let cross = idx.candidate_pairs_bipartite(2);
        assert_eq!(cross, vec![(0, 2), (1, 2)]);
    }

    /// The band-major build equals inserting every non-empty column's full
    /// signature, entry for entry.
    #[test]
    fn token_sets_build_equals_signature_inserts() {
        let sets: Vec<Vec<u32>> = (0..60u32)
            .map(|c| match c % 4 {
                0 => Vec::new(),
                1 => (0..40).collect(),
                2 => (c..c + 30).collect(),
                _ => (0..40).filter(|t| t % (c % 7 + 2) == 0).collect(),
            })
            .collect();
        let views: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
        for (rows, bands) in [(5, 30), (3, 7), (1, 1)] {
            let mh = MinHasher::new(rows * bands + 2, 11);
            let mut reference = BandingIndex::new(bands, rows);
            for (id, set) in sets.iter().enumerate() {
                if !set.is_empty() {
                    reference.insert(id as u32, &mh.signature(set.iter().copied()));
                }
            }
            let built = BandingIndex::from_token_sets(&mh, bands, rows, &views);
            for (band, (entries, inserted)) in
                built.entries.iter().zip(&reference.entries).enumerate()
            {
                let mut inserted = inserted.clone();
                inserted.sort_unstable();
                assert_eq!(
                    entries, &inserted,
                    "(r, b) = ({rows}, {bands}), band {band}"
                );
            }
            assert_eq!(built.candidate_pairs(), reference.candidate_pairs());
            assert_eq!(
                built.candidate_pairs_bipartite(30),
                reference.candidate_pairs_bipartite(30)
            );
        }
    }

    #[test]
    fn pair_reported_once_despite_multiple_band_collisions() {
        let mh = MinHasher::new(150, 3);
        let sig = mh.signature(vec![7u32, 8, 9]);
        let mut idx = BandingIndex::new(30, 5);
        idx.insert(5, &sig);
        idx.insert(3, &sig);
        // Identical in all 30 bands, but one pair reported, normalised.
        assert_eq!(idx.candidate_pairs(), vec![(3, 5)]);
    }
}
