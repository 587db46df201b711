//! The end-to-end BLAST pipeline (Fig. 4): loose schema extraction →
//! loosely schema-aware blocking → block cleaning → loosely schema-aware
//! meta-blocking. Works unchanged for clean-clean and dirty ER (§4.5).
//!
//! Phases 1 and 2 read one [`TokenizedInput`]: it is built once (inside the
//! "schema extraction" phase) and dropped before phase 3.

pub use crate::config::BlastConfig;

use crate::pruning::BlastPruning;
use crate::schema::extraction::{LooseSchemaExtractor, LooseSchemaInfo};
use crate::weighting::ChiSquaredWeigher;
use blast_blocking::collection::BlockCollection;
use blast_blocking::filtering::BlockFiltering;
use blast_blocking::purging::BlockPurging;
use blast_blocking::token_blocking::TokenBlocking;
use blast_datamodel::input::ErInput;
use blast_datamodel::tokenized::TokenizedInput;
use blast_graph::context::GraphSnapshot;
use blast_graph::retained::RetainedPairs;
use blast_metrics::timing::Stopwatch;

/// Everything the pipeline produces: the restructured comparisons plus the
/// intermediate artifacts needed by the evaluation and by downstream
/// matching.
#[derive(Debug)]
pub struct BlastOutcome {
    /// The retained comparisons (the final block collection: one block per
    /// pair).
    pub pairs: RetainedPairs,
    /// The loose schema information extracted in phase 1.
    pub schema: LooseSchemaInfo,
    /// The block collection fed into meta-blocking (after purging and
    /// filtering).
    pub blocks: BlockCollection,
    /// Per-phase wall-clock timings (the tₒ columns).
    pub timings: Stopwatch,
}

/// The BLAST pipeline.
#[derive(Debug, Clone, Default)]
pub struct BlastPipeline {
    config: BlastConfig,
}

impl BlastPipeline {
    /// Pipeline with the given configuration.
    pub fn new(config: BlastConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BlastConfig {
        &self.config
    }

    /// Runs the three phases on an ER input.
    pub fn run(&self, input: &ErInput) -> BlastOutcome {
        let mut timings = Stopwatch::new();

        // Phase 1: loose schema information extraction.
        let (tokens, schema) = timings.time("schema extraction", || self.extract(input));

        // Phase 2: loosely schema-aware blocking (+ cleaning).
        let blocks = timings.time("token blocking", || {
            TokenBlocking::build_tokenized(&tokens, &schema.partitioning)
        });
        drop(tokens);
        let blocks = self.clean_blocks(blocks, &mut timings);

        // Phase 3: loosely schema-aware meta-blocking.
        let pairs = timings.time("meta-blocking", || {
            let entropies = schema.partitioning.block_entropies(&blocks);
            let ctx = GraphSnapshot::build(&blocks).with_block_entropies(entropies);
            let weigher = if self.config.use_entropy {
                ChiSquaredWeigher::new()
            } else {
                ChiSquaredWeigher::without_entropy()
            };
            BlastPruning::with_constants(self.config.c, self.config.d).prune(&ctx, &weigher)
        });

        BlastOutcome {
            pairs,
            schema,
            blocks,
            timings,
        }
    }

    /// Phase 2 alone: the loosely schema-aware blocks after cleaning
    /// (used when composing BLAST's blocking with other meta-blocking
    /// algorithms, e.g. the cnp χ²ₕ rows of Tables 4–5).
    pub fn build_blocks(&self, input: &ErInput) -> (BlockCollection, LooseSchemaInfo) {
        let (tokens, schema) = self.extract(input);
        let blocks = TokenBlocking::build_tokenized(&tokens, &schema.partitioning);
        drop(tokens);
        let mut timings = Stopwatch::new();
        let blocks = self.clean_blocks(blocks, &mut timings);
        (blocks, schema)
    }

    /// Phase 1 on the tokenized view of `input`, which phase 2 reads too.
    fn extract(&self, input: &ErInput) -> (TokenizedInput, LooseSchemaInfo) {
        let tokens = TokenizedInput::build(input, &self.config.schema.tokenizer);
        let schema =
            LooseSchemaExtractor::new(self.config.schema.clone()).extract_tokenized(&tokens);
        (tokens, schema)
    }

    fn clean_blocks(&self, blocks: BlockCollection, timings: &mut Stopwatch) -> BlockCollection {
        let blocks = if self.config.purging {
            timings.time("block purging", || {
                BlockPurging::new()
                    .max_profile_fraction(self.config.purge_fraction)
                    .purge(&blocks)
            })
        } else {
            blocks
        };
        if self.config.filtering {
            timings.time("block filtering", || {
                BlockFiltering::with_ratio(self.config.filter_ratio).filter(&blocks)
            })
        } else {
            blocks
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_datamodel::collection::EntityCollection;
    use blast_datamodel::entity::{ProfileId, SourceId};
    use blast_datamodel::ground_truth::GroundTruth;
    use blast_metrics::quality::evaluate_pairs;

    /// A small clean-clean scenario with different schemas and enough
    /// profiles for the statistics to be meaningful.
    fn scenario() -> (ErInput, GroundTruth) {
        let names = [
            "john abram",
            "ellen smith",
            "mary jones",
            "bob dylan",
            "susan boyle",
            "carl sagan",
            "ada lovelace",
            "alan turing",
            "grace hopper",
            "tim lee",
            "rosa parks",
            "amelia earhart",
            "nikola tesla",
            "marie curie",
            "isaac newton",
            "charles darwin",
            "jane austen",
            "mark twain",
            "emily bronte",
            "oscar wilde",
        ];
        let cities = ["rome", "paris", "london", "berlin", "madrid"];
        let mut d1 = EntityCollection::new(SourceId(0));
        let mut d2 = EntityCollection::new(SourceId(1));
        let mut gt = GroundTruth::new();
        for (i, name) in names.iter().enumerate() {
            let year = format!("{}", 1950 + (i % 6));
            let city = cities[i % cities.len()];
            d1.push_pairs(
                &format!("a{i}"),
                [("name", *name), ("birth year", &*year), ("city", city)],
            );
            // Source 2 renames attributes and tweaks values slightly.
            let full = format!("{name} {}", i); // extra distinctive token
            d2.push_pairs(
                &format!("b{i}"),
                [("full name", &*full), ("year", &*year), ("location", city)],
            );
            gt.insert(ProfileId(i as u32), ProfileId((names.len() + i) as u32));
        }
        (ErInput::clean_clean(d1, d2), gt)
    }

    #[test]
    fn pipeline_detects_matches_with_high_precision() {
        let (input, gt) = scenario();
        let outcome = BlastPipeline::new(BlastConfig::default()).run(&input);
        let q = evaluate_pairs(outcome.pairs.pairs(), &gt);
        assert!(q.pc >= 0.9, "PC should stay high, got {}", q.pc);
        assert!(
            q.pq >= 0.5,
            "most retained comparisons should be matches, got {}",
            q.pq
        );
        // LMI must find the three attribute correspondences.
        assert_eq!(outcome.schema.clusters, 3);
    }

    #[test]
    fn pipeline_records_phase_timings() {
        let (input, _) = scenario();
        let outcome = BlastPipeline::new(BlastConfig::default()).run(&input);
        for phase in ["schema extraction", "token blocking", "meta-blocking"] {
            assert!(outcome.timings.phase(phase).is_some(), "missing {phase}");
        }
    }

    #[test]
    fn pairs_respect_clean_clean_separator() {
        let (input, _) = scenario();
        let sep = input.separator();
        let outcome = BlastPipeline::new(BlastConfig::default()).run(&input);
        for (a, b) in outcome.pairs.iter() {
            assert!(a.0 < sep && b.0 >= sep);
        }
    }

    #[test]
    fn dirty_pipeline_runs() {
        // Fold both sources into one dirty collection.
        let (input, gt) = scenario();
        let ErInput::CleanClean { d1, d2 } = input else {
            unreachable!()
        };
        let mut d = EntityCollection::new(SourceId(0));
        for p in d1.profiles() {
            let pairs: Vec<(&str, &str)> = p
                .values
                .iter()
                .map(|(a, v)| (d1.attribute_name(*a), &**v))
                .collect();
            d.push_pairs(&p.external_id, pairs);
        }
        for p in d2.profiles() {
            let pairs: Vec<(&str, &str)> = p
                .values
                .iter()
                .map(|(a, v)| (d2.attribute_name(*a), &**v))
                .collect();
            d.push_pairs(&p.external_id, pairs);
        }
        let outcome = BlastPipeline::new(BlastConfig::default()).run(&ErInput::dirty(d));
        let q = evaluate_pairs(outcome.pairs.pairs(), &gt);
        assert!(q.pc >= 0.8, "dirty PC too low: {}", q.pc);
    }

    #[test]
    fn disabling_cleaning_keeps_more_blocks() {
        let (input, _) = scenario();
        let with = BlastPipeline::new(BlastConfig::default())
            .build_blocks(&input)
            .0;
        let without = BlastPipeline::new(BlastConfig::default().without_block_cleaning())
            .build_blocks(&input)
            .0;
        assert!(without.aggregate_cardinality() >= with.aggregate_cardinality());
    }
}
