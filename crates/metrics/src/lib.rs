//! Blocking-quality metrics (§2): Pair Completeness, Pair Quality and F1.
//!
//! PC and PQ are *surrogates* of recall and precision for block collections:
//! PC(B) = |D_B|/|D_E| (fraction of known duplicates co-occurring in ≥1
//! block), PQ(B) = |D_B|/‖B‖ (useful fraction of the comparisons). Both are
//! computed without enumerating comparisons: PC intersects the block lists
//! of each ground-truth pair (profile→block index), ‖B‖ is arithmetic.

pub mod memory;
pub mod quality;
pub mod report;
pub mod timing;

pub use memory::{current_rss_bytes, peak_rss_bytes};
pub use quality::{evaluate_blocks, evaluate_pairs, BlockQuality};
pub use report::{fmt_card, fmt_pct};
pub use timing::Stopwatch;
