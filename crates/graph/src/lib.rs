//! Blocking-graph substrate and baseline (traditional) meta-blocking.
//!
//! A block collection induces a *blocking graph* G_B (§2.2): profiles are
//! nodes, an edge connects two profiles co-occurring in ≥1 block, and edge
//! weights capture match likelihood. The graph is never materialised — it is
//! enumerated node-centrically from the profile→block rows, which is
//! how the reference implementations scale.
//!
//! ## The snapshot design
//!
//! The central abstraction is the **owned, versioned**
//! [`context::GraphSnapshot`]: it owns the profile rows, per-block membership,
//! cardinalities, entropies, the live block count and (lazily) node
//! degrees, keyed by *stable block slots* so state survives across
//! commits. Two construction paths share it:
//!
//! * **Batch** — [`context::GraphSnapshot::build`] materialises everything
//!   once from a cleaned `BlockCollection` (slot i = block i) and the
//!   pruning passes run over it; nothing is ever rebuilt.
//! * **Incremental** — the pipeline starts from
//!   [`context::GraphSnapshot::empty`] and the incremental cleaner **edits
//!   it in place** per commit: it inserts and removes slot members, asks the
//!   snapshot to restate the changed slots
//!   ([`context::GraphSnapshot::restate_slot`]: split, cardinality, entropy,
//!   liveness, |B|) and refills the dirty profile rows
//!   (`blast_blocking::ProfileBlockIndex::splice_row`, one `Vec` per
//!   profile) — cost proportional to the dirty neighbourhood, never the
//!   collection. The snapshot is the one owner of the cleaned memberships
//!   (the cleaner keeps only its purge/filter decision caches), and the
//!   patched snapshot is field-for-field identical to a fresh `build` on
//!   the materialised collection (pinned by `tests/snapshot_maintenance.rs`),
//!   which is what keeps incremental repair bit-identical to batch.
//!
//! ## The factored-weight representation
//!
//! Every edge weight is **factored** into *(local components, global
//! scalars)*: the per-edge [`context::EdgeAccum`] — shared-block count,
//! ARCS reciprocal sum, entropy tally, gathered once per accumulation —
//! plus the O(1) statistics the snapshot serves (|B|, |B_u|, degrees,
//! |E_G|). [`weights::EdgeWeigher::weight`] must be a pure function of the
//! two (the contract is spelled out on the trait), which is what the
//! incremental repair ladder's *reweigh tier* exploits: when only a global
//! scalar drifts — |B| for a [`weights::WeightDeps`] `total_blocks` scheme
//! (ECBS, χ²), |E_G| for EJS — every clean edge's weight is re-derived
//! from its **cached** accumulator and the patched snapshot, with no block
//! traversal and no re-accumulation, bit-identical to a batch pass because
//! the inputs are. Node degrees themselves are **delta-maintainable**
//! ([`context::GraphSnapshot::begin_degree_maintenance`] /
//! [`context::GraphSnapshot::apply_degree_deltas`]): integers patched by
//! exact ±1 deltas from edge births/deaths, so EJS no longer needs a
//! per-commit full degree pass. A **full graph re-pass** (not an index
//! rebuild — the snapshot is still patched, only the weighting/pruning
//! pass widens to every node) remains only for genuinely structural
//! invalidation: the first pass, or a shift of CNP's derived budget k. It
//! runs the identical code path over the identical snapshot, preserving
//! bit-equivalence.
//!
//! ## Modules
//!
//! * [`context`] — [`context::GraphSnapshot`]: the owned graph state and
//!   its in-place patch methods.
//! * [`traversal`] — the dense scratch-array engine every pass runs on:
//!   per-worker [`traversal::NodeScratch`] adjacency accumulation with
//!   work-stealing scheduling, bit-exact across thread counts; workers and
//!   diagnostics lease their scratches from one pool
//!   ([`traversal::NodeScratch::lease`]), grown and never re-allocated.
//! * [`weights`] — the five traditional weighting schemes of \[20\]
//!   (ARCS, CBS, ECBS, JS, EJS) behind the [`weights::EdgeWeigher`] trait,
//!   which `blast-core` also implements for its χ²·entropy weighting, plus
//!   [`weights::WeightDeps`] — the global-statistic dependencies that drive
//!   the incremental fallback decision — and [`weights::FactoredWeight`],
//!   the per-endpoint split of ECBS and EJS that the incremental reweigh
//!   sweep restates weights through.
//! * [`pruning`] — WEP, CEP, redefined/reciprocal WNP and CNP.
//! * [`meta`] — [`meta::MetaBlocker`]: scheme × pruning in one call.
//! * [`retained`] — the retained comparisons (the restructured block
//!   collection: one block per surviving pair).
//! * [`cold`] — [`cold::ColdRows`]: the two-tier residency mechanism the
//!   block index of `blast-incremental` demotes its posting lists through
//!   under a memory budget.

pub mod cold;
pub mod context;
pub mod exact_sum;
pub mod meta;
pub mod pruning;
pub mod retained;
pub mod traversal;
pub mod weights;

pub use cold::{ColdError, ColdRows, ColdStats, ColdStore, FrameRef, SpillBackend};
pub use context::{EdgeAccum, GraphSnapshot};
pub use exact_sum::ExactSum;
pub use meta::{MetaBlocker, PruningAlgorithm};
pub use pruning::common::EpochMask;
pub use retained::RetainedPairs;
pub use traversal::NodeScratch;
pub use weights::{EdgeWeigher, WeightingScheme};
