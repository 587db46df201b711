//! File I/O for the BLAST workspace: a dependency-free CSV layer plus
//! loaders/writers for the domain types.
//!
//! The paper's benchmarks ship as record files with one column per
//! attribute; this crate lets a user run BLAST on their own data:
//!
//! * [`csv`] — a minimal RFC-4180 reader/writer (quoted fields, embedded
//!   separators/newlines, escaped quotes). The reader is a one-pass cursor,
//!   [`csv::Records`], that lends each record's fields as `&str` slices of
//!   the input until the next record is asked for.
//! * [`collection`] — read an [`blast_datamodel::EntityCollection`] from a
//!   headered CSV (one row per profile, one column per attribute, an id
//!   column), and write one back. Rows go from the cursor straight into
//!   profiles: memory is O(file + name–value pairs), not O(rows × columns).
//! * [`ground_truth`] — read/write match pairs as two-column CSVs of
//!   external ids.
//!
//! Malformed input is an `io::Error` of kind `InvalidData` naming the
//! physical line, never a panic.
//! * [`pairs`] — write retained comparisons with external ids resolved.
//! * [`spill`] — temp-file spill backend for the graph crate's cold tier.

pub mod collection;
pub mod csv;
pub mod ground_truth;
pub mod pairs;
pub mod spill;

pub use collection::{read_collection, write_collection, CollectionReadOptions};
pub use ground_truth::{read_ground_truth, write_ground_truth};
pub use pairs::write_pairs;
pub use spill::TempSpillFile;
