//! The dotted metric-name convention, and the names that are not a
//! per-commit statistic.
//!
//! Names are lowercase dotted paths (`subsystem.metric` or
//! `subsystem.group.metric`), segments matching `[a-z0-9_]+`. The
//! Prometheus encoder maps dots to underscores and prefixes `blast_`
//! (`commit.phase.decision_secs` → `blast_commit_phase_decision_secs`).
//!
//! Every metric lives on the one registry its pipeline's
//! [`crate::CommitMetrics`] owns. The per-commit counters and gauges
//! (`repair.*`, `decision.*`, `snapshot.*`, `cleaner.*`, `pipeline.*`,
//! `cold.*`, `commit.pairs_*`, `interner.symbols`) are named
//! where they are declared — the [`crate::commit::COMMIT_STATS`] table —
//! and nowhere else; this module holds the commit envelope (count, wall
//! clock, phases, tiers) and the `serve.*` family.

/// Commits absorbed (counter).
pub const COMMIT_COUNT: &str = "commit.count";
/// Whole-commit wall clock (nanosecond histogram, exported in seconds).
pub const COMMIT_TOTAL_SECS: &str = "commit.total_secs";
/// Blocking-index maintenance phase (nanosecond histogram).
pub const COMMIT_PHASE_INDEX_SECS: &str = "commit.phase.index_secs";
/// Dirty-block purging + filtering phase (nanosecond histogram).
pub const COMMIT_PHASE_CLEANING_SECS: &str = "commit.phase.cleaning_secs";
/// Snapshot row/slot patch phase (nanosecond histogram).
pub const COMMIT_PHASE_SNAPSHOT_SECS: &str = "commit.phase.snapshot_secs";
/// Dirty-neighbourhood artefact repair phase (nanosecond histogram).
pub const COMMIT_PHASE_REPAIR_SECS: &str = "commit.phase.repair_secs";
/// Repair-ladder reweigh machinery phase (nanosecond histogram).
pub const COMMIT_PHASE_REWEIGH_SECS: &str = "commit.phase.reweigh_secs";
/// Decision-stage phase (nanosecond histogram).
pub const COMMIT_PHASE_DECISION_SECS: &str = "commit.phase.decision_secs";

/// Commits repaired on the dirty-neighbourhood tier (counter).
pub const REPAIR_TIER_DIRTY: &str = "repair.tier.dirty";
/// Commits repaired on the cache-reweigh tier (counter).
pub const REPAIR_TIER_REWEIGH: &str = "repair.tier.reweigh";
/// Commits degraded to the full tier (counter).
pub const REPAIR_TIER_FULL: &str = "repair.tier.full";
/// Queries answered by the serving layer (counter).
pub const SERVE_QUERIES: &str = "serve.queries";
/// Snapshot versions published to the serving epoch (counter).
pub const SERVE_SNAPSHOT_SWAPS: &str = "serve.snapshot_swaps";
/// Serve-side read latency (nanosecond histogram, exported in seconds).
pub const SERVE_READ_LATENCY: &str = "serve.read_latency_secs";
/// Retired snapshot versions a reader still holds after the latest
/// publish (gauge).
pub const SERVE_STALE_EPOCHS: &str = "serve.stale_epochs";
/// Wall clock of one publish — update build, snapshot apply, epoch swap
/// and reclaim; `commit_and_publish` minus the engine's commit (nanosecond
/// histogram, exported in seconds). One observation per snapshot swap.
pub const SERVE_PUBLISH_SECS: &str = "serve.publish_secs";
/// Snapshot rows re-allocated by publishes because a published version
/// still shared them (counter) — at most one per node a commit touches.
pub const SERVE_ROWS_COPIED: &str = "serve.rows_copied";
/// Snapshot chunks whose row-pointer vector a publish cloned (counter) —
/// at most one per chunk holding a touched node.
pub const SERVE_CHUNKS_COPIED: &str = "serve.chunks_copied";
