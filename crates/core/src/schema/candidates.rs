//! Candidate attribute-pair generation: all pairs, or the LSH-based
//! pre-processing step of §3.1.2.
//!
//! Attribute-match induction needs the similarity of attribute-profile
//! pairs. Comparing all of them is O(N₁·N₂); with thousands of attributes
//! (the paper's dbp has 30k × 50k) this is infeasible, so MinHash + banding
//! restricts the comparisons to pairs likely above a Jaccard threshold.
//!
//! The LSH index is built band-major
//! ([`BandingIndex::from_token_sets`]): the columns' token ids are the
//! dense symbols of one interner, so each band hashes every distinct token
//! once (not once per column holding it) and folds every column's minima
//! from that table; bands run in parallel. The candidates equal those of
//! per-column signatures inserted one by one, at any thread count.

use crate::schema::attribute_profile::AttributeProfiles;
use blast_lsh::banding::BandingIndex;
use blast_lsh::minhash::MinHasher;
use blast_lsh::scurve::params_for_threshold;

/// Where attribute-match induction gets its candidate pairs from.
#[derive(Debug, Clone)]
pub enum CandidateSource {
    /// Compare every cross-source pair (every pair for dirty inputs):
    /// exact but quadratic.
    AllPairs,
    /// MinHash + banding: only colliding pairs are compared.
    Lsh {
        /// Rows per band.
        rows: usize,
        /// Number of bands (signature length = rows·bands).
        bands: usize,
        /// Seed for the MinHash family.
        seed: u64,
    },
}

impl CandidateSource {
    /// The paper's example configuration: r = 5, b = 30 (threshold ≈ 0.5).
    pub fn lsh_default() -> Self {
        CandidateSource::Lsh {
            rows: 5,
            bands: 30,
            seed: 0x000b_1a57,
        }
    }

    /// Picks (rows, bands) within a signature budget of `n_hashes` so the
    /// estimated LSH threshold lands closest to `threshold` (the Fig. 10 /
    /// Table 6 sweeps).
    pub fn lsh_with_threshold(n_hashes: usize, threshold: f64, seed: u64) -> Self {
        let (rows, bands) = params_for_threshold(n_hashes, threshold);
        CandidateSource::Lsh { rows, bands, seed }
    }

    /// The estimated Jaccard threshold of this source (`None` for
    /// [`CandidateSource::AllPairs`], which imposes none).
    pub fn threshold(&self) -> Option<f64> {
        match self {
            CandidateSource::AllPairs => None,
            CandidateSource::Lsh { rows, bands, .. } => {
                Some(blast_lsh::scurve::estimate_threshold(*rows, *bands))
            }
        }
    }

    /// Generates the candidate column pairs for `profiles`, cross-source
    /// when the profiles are bipartite, all distinct pairs otherwise.
    /// Pairs are `(smaller, larger)` in deterministic order.
    pub fn pairs(&self, profiles: &AttributeProfiles) -> Vec<(u32, u32)> {
        let n = profiles.len();
        let sep = profiles.separator();
        match self {
            CandidateSource::AllPairs => {
                if profiles.is_bipartite() {
                    let mut out = Vec::with_capacity(sep * (n - sep));
                    for i in 0..sep as u32 {
                        for j in sep as u32..n as u32 {
                            out.push((i, j));
                        }
                    }
                    out
                } else {
                    let mut out = Vec::with_capacity(n * n.saturating_sub(1) / 2);
                    for i in 0..n as u32 {
                        for j in i + 1..n as u32 {
                            out.push((i, j));
                        }
                    }
                    out
                }
            }
            CandidateSource::Lsh { rows, bands, seed } => {
                let hasher = MinHasher::new(rows * bands, *seed);
                let sets: Vec<&[u32]> = profiles.columns().iter().map(|c| &c.tokens[..]).collect();
                let index = BandingIndex::from_token_sets(&hasher, *bands, *rows, &sets);
                if profiles.is_bipartite() {
                    index.candidate_pairs_bipartite(sep as u32)
                } else {
                    index.candidate_pairs()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_datamodel::collection::EntityCollection;
    use blast_datamodel::entity::SourceId;
    use blast_datamodel::input::ErInput;
    use blast_datamodel::tokenizer::Tokenizer;

    fn bipartite_profiles() -> AttributeProfiles {
        let mut d1 = EntityCollection::new(SourceId(0));
        d1.push_pairs(
            "a",
            [("name", "alpha beta gamma delta"), ("year", "1999 2000")],
        );
        let mut d2 = EntityCollection::new(SourceId(1));
        d2.push_pairs(
            "b",
            [("label", "alpha beta gamma delta"), ("price", "42 43")],
        );
        AttributeProfiles::build(&ErInput::clean_clean(d1, d2), &Tokenizer::new())
    }

    #[test]
    fn all_pairs_bipartite_is_cross_product() {
        let profiles = bipartite_profiles();
        let pairs = CandidateSource::AllPairs.pairs(&profiles);
        // 2 × 2 attributes.
        assert_eq!(pairs.len(), 4);
        for (i, j) in pairs {
            assert!((i as usize) < profiles.separator());
            assert!((j as usize) >= profiles.separator());
        }
    }

    #[test]
    fn all_pairs_dirty_is_triangular() {
        let mut d = EntityCollection::new(SourceId(0));
        d.push_pairs("p", [("a", "x"), ("b", "y"), ("c", "z")]);
        let profiles = AttributeProfiles::build(&ErInput::dirty(d), &Tokenizer::new());
        let pairs = CandidateSource::AllPairs.pairs(&profiles);
        assert_eq!(pairs.len(), 3); // C(3,2)
    }

    #[test]
    fn lsh_finds_identical_attributes() {
        let profiles = bipartite_profiles();
        let pairs = CandidateSource::lsh_default().pairs(&profiles);
        // name↔label share all 4 tokens (J = 1) → must collide;
        // year↔price are disjoint → extremely unlikely to collide.
        let name = profiles.column_of(SourceId(0), blast_datamodel::interner::Symbol(0));
        assert!(name.is_some());
        assert!(
            pairs.iter().any(|&(i, j)| {
                profiles.columns()[i as usize].tokens == profiles.columns()[j as usize].tokens
            }),
            "the identical pair must be a candidate: {pairs:?}"
        );
        assert!(
            pairs.len() <= 2,
            "dissimilar pairs should be filtered: {pairs:?}"
        );
    }

    #[test]
    fn lsh_subset_of_all_pairs() {
        let profiles = bipartite_profiles();
        let all = CandidateSource::AllPairs.pairs(&profiles);
        for p in CandidateSource::lsh_default().pairs(&profiles) {
            assert!(all.contains(&p));
        }
    }

    #[test]
    fn threshold_reporting() {
        assert!(CandidateSource::AllPairs.threshold().is_none());
        let t = CandidateSource::lsh_default().threshold().unwrap();
        assert!((t - 0.506).abs() < 0.01);
        let src = CandidateSource::lsh_with_threshold(150, 0.32, 1);
        let t = src.threshold().unwrap();
        assert!((t - 0.32).abs() < 0.1, "requested .32, got {t}");
    }
}
