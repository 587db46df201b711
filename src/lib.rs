//! # BLAST — Blocking with Loosely-Aware Schema Techniques
//!
//! A from-scratch Rust reproduction of *"BLAST: a Loosely Schema-aware
//! Meta-blocking Approach for Entity Resolution"* (Simonini, Bergamaschi,
//! Jagadish — PVLDB 9(12), 2016), together with every substrate and baseline
//! its evaluation depends on.
//!
//! This crate is the facade: it re-exports the workspace crates under a
//! single namespace so applications (and the `examples/`) can depend on one
//! crate. See `README.md` for the system inventory and `benchmark/README.md`
//! for the measured workloads; `blast paper` (the CLI) regenerates the
//! paper's tables and figures.
//!
//! ## Quick start
//!
//! ```rust
//! use blast::datamodel::{EntityCollection, ErInput, ProfileId, SourceId};
//! use blast::pipeline::{BlastConfig, BlastPipeline};
//!
//! let mut dblp = EntityCollection::new(SourceId(0));
//! dblp.push_pairs("d1", [("title", "blocking for entity resolution"), ("year", "2016")]);
//! dblp.push_pairs("d2", [("title", "schema matching with entropy"), ("year", "2014")]);
//! dblp.push_pairs("d3", [("title", "minhash sketches in practice"), ("year", "2016")]);
//!
//! let mut acm = EntityCollection::new(SourceId(1));
//! acm.push_pairs("a1", [("paper", "Blocking for Entity Resolution"), ("date", "2016")]);
//! acm.push_pairs("a2", [("paper", "Schema Matching with Entropy"), ("date", "2014")]);
//! acm.push_pairs("a3", [("paper", "MinHash Sketches in Practice"), ("date", "2016")]);
//!
//! let input = ErInput::clean_clean(dblp, acm);
//! let outcome = BlastPipeline::new(BlastConfig::default()).run(&input);
//! // The three true matches survive; the superfluous pairs are pruned.
//! assert!(outcome.pairs.contains(ProfileId(0), ProfileId(3)));
//! assert!(outcome.pairs.contains(ProfileId(1), ProfileId(4)));
//! assert!(outcome.pairs.contains(ProfileId(2), ProfileId(5)));
//! ```

/// Entity model, tokenization, interning, ground truth (substrate).
pub mod datamodel {
    pub use blast_datamodel::*;
    pub use blast_datamodel::{
        collection::EntityCollection,
        entity::{AttributeId, EntityProfile, ProfileId, SourceId},
        ground_truth::GroundTruth,
        input::ErInput,
        tokenizer::Tokenizer,
    };
}

/// Token/Standard blocking, Block Purging, Block Filtering (substrate).
pub mod blocking {
    pub use blast_blocking::*;
}

/// MinHash + LSH banding (substrate for scalable attribute-match induction).
pub mod lsh {
    pub use blast_lsh::*;
}

/// Blocking graph, traditional weighting schemes, baseline pruning
/// algorithms (meta-blocking substrate).
pub mod graph {
    pub use blast_graph::*;
}

/// The BLAST contribution: loose schema extraction, χ²·entropy weighting,
/// BLAST pruning and the end-to-end pipeline.
pub mod core {
    pub use blast_core::*;
}

/// Supervised meta-blocking baseline (edge features + linear SVM).
pub mod ml {
    pub use blast_ml::*;
}

/// Synthetic benchmark generators mirroring the paper's datasets.
pub mod datagen {
    pub use blast_datagen::*;
}

/// PC / PQ / F1 evaluation.
pub mod metrics {
    pub use blast_metrics::*;
}

/// CSV import/export of collections, ground truth and pair files.
pub mod io {
    pub use blast_io::*;
}

/// Observability: the per-pipeline metric registry, the commit statistics
/// table, Prometheus text export and the JSONL trace journal.
pub mod obs {
    pub use blast_obs::*;
}

/// Incremental meta-blocking: mutable block index + dirty-neighbourhood
/// repair, batch-equivalent (streamed inserts/updates/deletes with
/// candidate-pair deltas).
pub mod incremental {
    pub use blast_incremental::*;
}

/// A simple downstream matcher (profile Jaccard + transitive closure) for
/// end-to-end entity resolution.
pub mod matcher {
    pub use blast_matcher::*;
}

/// Convenience re-export of the pipeline entry points.
pub mod pipeline {
    pub use blast_core::config::BlastConfig;
    pub use blast_core::pipeline::{BlastOutcome, BlastPipeline};
}

/// One-stop imports for applications:
/// `use blast::prelude::*;`
pub mod prelude {
    pub use blast_blocking::{BlockFiltering, BlockPurging, TokenBlocking};
    pub use blast_core::config::BlastConfig;
    pub use blast_core::pipeline::{BlastOutcome, BlastPipeline};
    pub use blast_core::schema::extraction::{
        InductionAlgorithm, LooseSchemaConfig, LooseSchemaExtractor,
    };
    pub use blast_datamodel::{
        collection::EntityCollection,
        entity::{EntityProfile, ProfileId, SourceId},
        ground_truth::GroundTruth,
        input::ErInput,
        tokenizer::Tokenizer,
    };
    pub use blast_graph::{MetaBlocker, PruningAlgorithm, WeightingScheme};
    pub use blast_matcher::{resolve_entities, JaccardMatcher};
    pub use blast_metrics::{evaluate_blocks, evaluate_pairs};
}
