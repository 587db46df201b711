//! Blocking substrate: redundancy-based block building and the two
//! block-cleaning steps the BLAST workflow applies before meta-blocking.
//!
//! * [`token_blocking`] — schema-agnostic Token Blocking (§3.2), optionally
//!   disambiguating keys with an attribute partitioning (the
//!   "Abram_c1"/"Abram_c2" effect of Fig. 2).
//! * [`standard_blocking`] — schema-based Standard Blocking baseline
//!   (§4.1, "Blast vs. Schema-based Blocking").
//! * [`purging`] — Block Purging: drop blocks whose key is so frequent the
//!   block covers most of the collection (stop-word blocks).
//! * [`filtering`] — Block Filtering: remove each profile from its least
//!   important (largest) blocks.
//! * [`block`] / [`collection`] — bilateral (clean-clean) and unilateral
//!   (dirty) blocks with aggregate-cardinality accounting (‖B‖, §2).
//! * [`index`] — profile → block index shared by filtering and the
//!   blocking graph.

pub mod block;
pub mod collection;
pub mod filtering;
pub mod index;
pub mod key;
pub mod purging;
pub mod standard_blocking;
pub mod stats;
pub mod token_blocking;

pub use block::Block;
pub use collection::BlockCollection;
pub use filtering::BlockFiltering;
pub use index::ProfileBlockIndex;
pub use key::{ClusterId, KeyDisambiguator, SingleCluster};
pub use purging::{BlockPurging, CardinalityPurging};
pub use standard_blocking::{SchemaAlignment, StandardBlocking};
pub use stats::BlockStats;
pub use token_blocking::TokenBlocking;
