//! Incremental meta-blocking for entity resolution.
//!
//! The batch BLAST pipeline freezes its input: any new, corrected or
//! withdrawn profile forces a full re-run of blocking, weighting and
//! pruning. This subsystem makes the whole chain *mutable*:
//!
//! * [`store::MutableProfileStore`] — an evolving ER input with a stable
//!   global id space (deletion = tombstone);
//! * [`index::IncrementalBlockIndex`] — the inverted `(cluster, token)`
//!   block index under `insert`/`update`/`delete`, tracking exactly which
//!   posting lists a micro-batch touched;
//! * [`cleaner::IncrementalCleaner`] — Block Purging + Block Filtering
//!   re-applied only to the dirty blocks and profiles, editing the cleaned
//!   memberships where they live, in the graph snapshot's block slots;
//! * [`graph::IncrementalMetaBlocker`] — re-weighting and pruning (all six
//!   traditional variants plus BLAST's own) repaired over the dirty
//!   neighbourhoods on the dense scratch-array engine, emitting
//!   candidate-pair deltas;
//! * [`decision`] — the decision stage's state: the retention order and
//!   frontier of WEP/CEP, and the live-edge adjacency (with cached
//!   accumulators) every commit decides off;
//! * [`pipeline::IncrementalPipeline`] — the end-to-end streaming pipeline.
//!
//! ## Per-stage commit complexity
//!
//! With D = dirty nodes (the nodes whose cleaned block list moved; the
//! cleaner's whole scope under a weigher reading block sizes), E_D = their
//! incident edges, R = the nodes whose artefacts
//! those edges reach, F = retention flips and ‖B′‖ = retained comparisons,
//! a non-degraded commit costs:
//!
//! | stage | work | cost |
//! |-------|------|------|
//! | index | token re-keying + posting diffs | O(batch tokens) |
//! | cleaning | purging/filtering on dirty blocks | O(dirty blocks) |
//! | snapshot | slot restatements + profile row splices | O(changed slots + rows) |
//! | repair | re-accumulate and patch E_D, re-derive R's thresholds / top-k lists | O(E_D log + edges of R) |
//! | reweigh (tier 2) | restate every clean weight in place | O(\|E\|) |
//! | decision | WNP/BLAST/CNP: flip emission + retention-bit writes | O((E_D + F) log \|E\|) |
//! | decision | WEP/CEP: frontier restatement + clean-edge decisions | O(\|E\|) |
//!
//! Apart from the reweigh sweep and WEP/CEP's decision — their frontier is
//! an aggregate of every edge weight, restated from the adjacency rows each
//! commit — no per-commit stage iterates all edges, all nodes, or all
//! retained pairs;
//! the flat [`blast_graph::retained::RetainedPairs`] view is
//! materialised lazily on read and the [`graph::PairDelta`] is emitted
//! from the flips directly. Degraded-full passes (see below) run the same
//! flip-emitting code with every node dirty.
//!
//! **The contract:** after any sequence of mutations, the incremental
//! candidate set is **bit-identical** to a from-scratch batch run on the
//! final collection. Soundness comes from scheme-aware dirtiness
//! propagation ([`blast_graph::weights::WeightDeps`]) and the three-tier
//! **repair ladder** ([`graph::RepairTier`]): a commit that moved no
//! global statistic repairs the dirty neighbourhood alone (tier 1); a
//! commit that only drifted a global *scalar* (|B| for χ²/ECBS; degrees /
//! |E_G| for EJS — delta-maintained [`blast_graph::GraphSnapshot`]
//! fields now; the per-node top-k budget for CNP) re-derives every clean
//! edge's weight from its cached
//! accumulator (tier 2, no block traversal); only genuinely structural
//! invalidation (first pass, forced degradation) runs
//! the full recompute over the identical flip-emitting code path (tier 3)
//! — never a different answer. WEP's global mean — a function of *every*
//! edge weight — matches batch bitwise because both paths compute it
//! through the exact, order-independent
//! [`blast_graph::exact_sum::ExactSum`] accumulator.
//!
//! ## Parallel execution
//!
//! The commit path has one parallel axis, worker threads
//! ([`IncrementalPipeline::with_threads`]): the accumulate pass, fresh-edge
//! weighing, the cached-artefact recompute and the reweigh sweep split
//! their range on [`blast_datamodel::parallel::parallel_work_steal`].
//! Every commit outcome is bit-identical at any thread count
//! (`tests/thread_equivalence.rs`) because per-edge weights are pure
//! functions of the cached accumulator and O(1) snapshot statistics (the
//! factored-weight contract), chunk geometry depends on the range length
//! alone and chunk results concatenate in chunk order, and the global
//! aggregates are order-free by construction: CEP's rank-K key is an
//! order statistic of the key set, and WEP's Σw accumulates in an integer
//! superaccumulator.

pub mod cleaner;
pub mod decision;
pub mod graph;
pub mod index;
pub mod pipeline;
pub mod store;

pub use cleaner::{CleaningConfig, IncrementalCleaner};
pub use decision::{EdgeAdjacency, EdgeKey, Frontier};
pub use graph::{IncrementalMetaBlocker, IncrementalPruning, PairDelta, RepairStats, RepairTier};
pub use index::IncrementalBlockIndex;
pub use pipeline::{
    CommitOutcome, CommitTimings, IncrementalPipeline, MemoryFootprint, ResidencyPolicy,
};
pub use store::{MutableProfileStore, StoreMode};
