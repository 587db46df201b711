//! Core data model substrate for the BLAST entity-resolution workspace.
//!
//! This crate provides the building blocks every other crate relies on:
//!
//! * [`hash`] — a fast, deterministic Fx-style hasher plus `FastMap`/`FastSet`
//!   aliases used throughout the hot paths (token maps, block indexes,
//!   neighbour accumulators).
//! * [`interner`] — compact string interning so tokens and attribute names
//!   are handled as dense `u32` ids.
//! * [`entity`] / [`collection`] — entity profiles (sets of name–value
//!   pairs) and entity collections, the paper's §2 model.
//! * [`input`] — the two ER settings of the paper: *clean-clean* (two
//!   duplicate-free collections) and *dirty* (one collection with
//!   duplicates), with a single global profile-id space.
//! * [`tokenizer`] — the value-transformation functions of §2.1
//!   (tokenization, lowercasing, optional stop-words, q-grams).
//! * [`tokenized`] — an input after τ: one shared interner plus each
//!   profile's `(attribute, token)` run, built once and read by both
//!   loose schema extraction and Token Blocking.
//! * [`ground_truth`] — the set of known duplicate pairs used for
//!   PC/PQ evaluation and for training supervised meta-blocking.
//! * [`parallel`] — tiny std-scoped-thread helpers (contiguous chunks and
//!   a work-stealing scheduler) to parallelise embarrassingly parallel
//!   loops (attribute-pair similarity, node-centric weighting).

pub mod collection;
pub mod entity;
pub mod ground_truth;
pub mod hash;
pub mod input;
pub mod interner;
pub mod parallel;
pub mod tokenized;
pub mod tokenizer;

pub use collection::EntityCollection;
pub use entity::{AttributeId, EntityProfile, ProfileId, SourceId};
pub use ground_truth::GroundTruth;
pub use hash::{FastMap, FastSet, FxBuildHasher, FxHasher};
pub use input::ErInput;
pub use interner::{Interner, Symbol};
pub use tokenized::TokenizedInput;
pub use tokenizer::Tokenizer;
