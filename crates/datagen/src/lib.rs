//! Synthetic entity-resolution benchmarks mirroring the BLAST evaluation
//! datasets (Table 2 and §4.5).
//!
//! The original benchmarks (DBLP–ACM, DBLP–Scholar, Abt–Buy, IMDB–DBpedia,
//! DBpedia 2007/2009, census, cora, cddb) are distributed as archives we do
//! not ship; these generators produce collections with the same *structure*:
//! matching profiles that share distinctive tokens through noisy,
//! differently-schema'd views of a canonical entity, and non-matching
//! profiles that collide on frequent (Zipf-headed) tokens. That is exactly
//! the regime redundancy-based blocking and meta-blocking operate in, so the
//! relative behaviour of the compared techniques is preserved
//! (`benchmark/README.md` says which presets the repo benchmark runs, and
//! at what size).
//!
//! * [`vocab`] / [`zipf`] — deterministic vocabularies and Zipf sampling.
//! * [`noise`] — the per-source corruption model (token drops/swaps, typos,
//!   abbreviations, numeric reformatting, missing values).
//! * [`domain`] — canonical entity generators per domain (bibliographic,
//!   product, movie, encyclopedia, person, reference, music).
//! * [`schema_map`] — per-source schema views: renames, splits, merges,
//!   attribute-name pools (heterogeneous dbp-style schemas), indexed
//!   attributes (cddb's track01…).
//! * [`clean_clean`] / [`dirty`] — the two ER settings, with ground truth.
//! * [`presets`] — one preset per paper dataset, sizes from Table 2
//!   (dbp scaled down; see [`presets`]).
//! * [`stats`] — the Table 2 characteristics of a generated dataset.

pub mod clean_clean;
pub mod dirty;
pub mod domain;
pub mod noise;
pub mod presets;
pub mod schema_map;
pub mod stats;
pub mod vocab;
pub mod zipf;

pub use clean_clean::{generate_clean_clean, CleanCleanSpec};
pub use dirty::{generate_dirty, DirtySpec};
pub use domain::Domain;
pub use noise::NoiseModel;
pub use presets::{clean_clean_preset, dirty_preset, CleanCleanPreset, DirtyPreset};
pub use schema_map::{FieldMapping, SourceSpec};
pub use stats::DatasetStats;
