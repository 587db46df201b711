//! Edge-pruning algorithms (§2.2): the four traditional schemes of \[20\].
//!
//! * [`wep`] — Weight Edge Pruning: one global weight threshold.
//! * [`cep`] — Cardinality Edge Pruning: keep the global top-K edges.
//! * [`wnp`] — Weight Node Pruning: per-node weight thresholds, in the
//!   *redefined* (either endpoint) and *reciprocal* (both endpoints)
//!   variants the paper calls wnp₁ and wnp₂.
//! * [`cnp`] — Cardinality Node Pruning: per-node top-k, again redefined
//!   (cnp₁) and reciprocal (cnp₂).
//!
//! [`common`] hosts the parallel passes everything is built from — a
//! per-node adjacency pass, a deterministic edge enumeration, and the fused
//! single-traversal edge materialisation WEP/CEP run on — all executing on
//! the dense scratch-array engine of [`crate::traversal`]. BLAST's own
//! pruning (in `blast-core`) reuses them.

pub mod cep;
pub mod cnp;
pub mod common;
pub mod wep;
pub mod wnp;

pub use cep::Cep;
pub use cnp::Cnp;
pub use wep::Wep;
pub use wnp::Wnp;

/// Whether a node-centric scheme resolves the two-threshold ambiguity of
/// Fig. 7 by requiring one (redefined) or both (reciprocal) endpoints to
/// accept the edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeCentricMode {
    /// Retain the edge if it passes *at least one* endpoint (wnp₁ / cnp₁).
    Redefined,
    /// Retain the edge only if it passes *both* endpoints (wnp₂ / cnp₂).
    Reciprocal,
}

impl NodeCentricMode {
    /// How many of the two per-endpoint acceptances an edge needs: the
    /// retention threshold of incremental CNP's listing counts (pair
    /// retained ⟺ listings ≥ this).
    #[inline]
    pub fn required_listings(&self) -> u8 {
        match self {
            NodeCentricMode::Redefined => 1,
            NodeCentricMode::Reciprocal => 2,
        }
    }
}
