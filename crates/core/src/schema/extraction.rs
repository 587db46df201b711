//! Phase 1 of BLAST (Fig. 4): loose schema information extraction.
//!
//! Orchestrates: attribute profiles → candidate pairs (all or LSH) →
//! attribute-match induction (LMI or AC) → partitioning + aggregate
//! entropies. The profiles come from a [`TokenizedInput`]; the pipeline
//! builds that view once and hands the same one to Token Blocking.

use crate::schema::ac::AttributeClustering;
use crate::schema::attribute_profile::AttributeProfiles;
use crate::schema::candidates::CandidateSource;
use crate::schema::lmi::Lmi;
use crate::schema::partitioning::AttributePartitioning;
use blast_datamodel::input::ErInput;
use blast_datamodel::tokenized::TokenizedInput;
use blast_datamodel::tokenizer::Tokenizer;

/// Which attribute-match induction algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InductionAlgorithm {
    /// Loose attribute-Match Induction (Algorithm 1) — BLAST's default.
    Lmi,
    /// Attribute Clustering \[18\] — the baseline of §4.3.
    AttributeClustering,
}

/// Configuration of the extraction phase.
#[derive(Debug, Clone)]
pub struct LooseSchemaConfig {
    /// Induction algorithm (default LMI).
    pub algorithm: InductionAlgorithm,
    /// LMI's α (default 0.9). Ignored by AC.
    pub alpha: f64,
    /// Candidate-pair source (default all pairs; switch to LSH for
    /// many-attribute sources).
    pub candidates: CandidateSource,
    /// Whether unclustered attributes go to the glue cluster (default) or
    /// are excluded from blocking (§4.4's experiment).
    pub glue: bool,
    /// The value-transformation function τ (applied by
    /// [`LooseSchemaExtractor::extract`]; a [`TokenizedInput`] carries its
    /// own).
    pub tokenizer: Tokenizer,
}

impl Default for LooseSchemaConfig {
    fn default() -> Self {
        Self {
            algorithm: InductionAlgorithm::Lmi,
            alpha: 0.9,
            candidates: CandidateSource::AllPairs,
            glue: true,
            tokenizer: Tokenizer::new(),
        }
    }
}

/// The extracted loose schema information plus diagnostics.
#[derive(Debug, Clone)]
pub struct LooseSchemaInfo {
    /// The attributes partitioning with aggregate entropies.
    pub partitioning: AttributePartitioning,
    /// Number of attribute columns considered (|A_E1| + |A_E2|).
    pub columns: usize,
    /// Candidate pairs actually compared (|A_E1|·|A_E2| without LSH).
    pub candidate_pairs: usize,
    /// Induced (non-glue) clusters.
    pub clusters: usize,
}

/// Runs phase 1.
#[derive(Debug, Clone, Default)]
pub struct LooseSchemaExtractor {
    config: LooseSchemaConfig,
}

impl LooseSchemaExtractor {
    /// Extractor with the given configuration.
    pub fn new(config: LooseSchemaConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LooseSchemaConfig {
        &self.config
    }

    /// Extracts the loose schema information from an ER input.
    pub fn extract(&self, input: &ErInput) -> LooseSchemaInfo {
        self.extract_tokenized(&TokenizedInput::build(input, &self.config.tokenizer))
    }

    /// Extraction from an already tokenized input (the configured
    /// tokenizer is not consulted).
    pub fn extract_tokenized(&self, tokens: &TokenizedInput) -> LooseSchemaInfo {
        self.extract_from_profiles(&AttributeProfiles::from_tokens(tokens))
    }

    /// Extraction starting from prebuilt attribute profiles (lets callers
    /// reuse the profiles across configurations, e.g. the Fig. 10 sweep).
    pub fn extract_from_profiles(&self, profiles: &AttributeProfiles) -> LooseSchemaInfo {
        let candidates = self.config.candidates.pairs(profiles);
        let clusters = match self.config.algorithm {
            InductionAlgorithm::Lmi => {
                Lmi::with_alpha(self.config.alpha).cluster(profiles, &candidates)
            }
            InductionAlgorithm::AttributeClustering => {
                AttributeClustering::new().cluster(profiles, &candidates)
            }
        };
        let partitioning =
            AttributePartitioning::from_clusters(profiles, &clusters, self.config.glue);
        LooseSchemaInfo {
            partitioning,
            columns: profiles.len(),
            candidate_pairs: candidates.len(),
            clusters: clusters.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_datamodel::collection::EntityCollection;
    use blast_datamodel::entity::SourceId;

    fn bibliographic() -> ErInput {
        let mut d1 = EntityCollection::new(SourceId(0));
        let mut d2 = EntityCollection::new(SourceId(1));
        for i in 0..30 {
            d1.push_pairs(
                &format!("a{i}"),
                [
                    (
                        "title",
                        &*format!("entity resolution study number {i} alpha beta"),
                    ),
                    ("venue", &*format!("conf{}", i % 3)),
                    ("year", &*format!("{}", 1990 + i % 10)),
                ],
            );
            d2.push_pairs(
                &format!("b{i}"),
                [
                    (
                        "paper",
                        &*format!("entity resolution study number {i} alpha beta"),
                    ),
                    ("booktitle", &*format!("conf{}", i % 3)),
                    ("date", &*format!("{}", 1990 + i % 10)),
                ],
            );
        }
        ErInput::clean_clean(d1, d2)
    }

    #[test]
    fn lmi_extraction_finds_the_three_correspondences() {
        let info =
            LooseSchemaExtractor::new(LooseSchemaConfig::default()).extract(&bibliographic());
        assert_eq!(info.columns, 6);
        assert_eq!(info.candidate_pairs, 9);
        assert_eq!(info.clusters, 3, "title↔paper, venue↔booktitle, year↔date");
        assert_eq!(info.partitioning.cluster_count(), 4);
    }

    #[test]
    fn lsh_extraction_matches_all_pairs_on_similar_attributes() {
        let input = bibliographic();
        let exact = LooseSchemaExtractor::new(LooseSchemaConfig::default()).extract(&input);
        let lsh = LooseSchemaExtractor::new(LooseSchemaConfig {
            candidates: CandidateSource::lsh_default(),
            ..Default::default()
        })
        .extract(&input);
        // Identical attributes (J = 1 ≫ 0.5 threshold) are always candidates,
        // so the induced clusters coincide.
        assert_eq!(lsh.clusters, exact.clusters);
        assert!(lsh.candidate_pairs <= exact.candidate_pairs);
    }

    #[test]
    fn ac_variant_runs() {
        let info = LooseSchemaExtractor::new(LooseSchemaConfig {
            algorithm: InductionAlgorithm::AttributeClustering,
            ..Default::default()
        })
        .extract(&bibliographic());
        assert_eq!(info.clusters, 3);
    }

    #[test]
    fn dirty_extraction_clusters_within_single_source() {
        // A dirty collection whose "name"/"label" attributes share values.
        let mut d = EntityCollection::new(SourceId(0));
        for i in 0..20 {
            d.push_pairs(
                &format!("p{i}"),
                [
                    ("name", &*format!("person {i} common tokens here")),
                    ("age", &*format!("{}", 20 + i)),
                ],
            );
            d.push_pairs(
                &format!("q{i}"),
                [
                    ("label", &*format!("person {i} common tokens here")),
                    ("years", &*format!("{}", 20 + i)),
                ],
            );
        }
        let info =
            LooseSchemaExtractor::new(LooseSchemaConfig::default()).extract(&ErInput::dirty(d));
        assert!(
            info.clusters >= 1,
            "name↔label must cluster in dirty mode too"
        );
    }
}
