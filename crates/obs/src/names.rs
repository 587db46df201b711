//! The dotted metric-name convention, in one place.
//!
//! Names are lowercase dotted paths (`subsystem.metric` or
//! `subsystem.group.metric`), segments matching `[a-z0-9_]+`. The
//! Prometheus encoder maps dots to underscores and prefixes `blast_`
//! (`commit.phase.decision_secs` → `blast_commit_phase_decision_secs`).
//!
//! Two registries exist: the **per-pipeline** registry every
//! [`crate::CommitMetrics`] owns (commit/repair/decision/cleaner/pipeline
//! families plus the per-commit `treap.deferred_commits` /
//! `treap.materialisations` — isolated per stream, exact in tests), and the
//! **process-wide** [`crate::global`] registry that crate-internal
//! instruments record into through `Lazy*` handles (scheduler/csr/treap
//! families — structures too deep to plumb a handle into).

/// Commits absorbed (counter).
pub const COMMIT_COUNT: &str = "commit.count";
/// Whole-commit wall clock (nanosecond histogram, exported in seconds).
pub const COMMIT_TOTAL_SECS: &str = "commit.total_secs";
/// Blocking-index maintenance phase (nanosecond histogram).
pub const COMMIT_PHASE_INDEX_SECS: &str = "commit.phase.index_secs";
/// Dirty-block purging + filtering phase (nanosecond histogram).
pub const COMMIT_PHASE_CLEANING_SECS: &str = "commit.phase.cleaning_secs";
/// Snapshot CSR/slot patch phase (nanosecond histogram).
pub const COMMIT_PHASE_SNAPSHOT_SECS: &str = "commit.phase.snapshot_secs";
/// Dirty-neighbourhood artefact repair phase (nanosecond histogram).
pub const COMMIT_PHASE_REPAIR_SECS: &str = "commit.phase.repair_secs";
/// Repair-ladder reweigh machinery phase (nanosecond histogram).
pub const COMMIT_PHASE_REWEIGH_SECS: &str = "commit.phase.reweigh_secs";
/// Decision-stage phase (nanosecond histogram).
pub const COMMIT_PHASE_DECISION_SECS: &str = "commit.phase.decision_secs";
/// Candidate pairs added across commits (counter).
pub const COMMIT_PAIRS_ADDED: &str = "commit.pairs_added";
/// Candidate pairs retracted across commits (counter).
pub const COMMIT_PAIRS_RETRACTED: &str = "commit.pairs_retracted";

/// Commits repaired on the dirty-neighbourhood tier (counter).
pub const REPAIR_TIER_DIRTY: &str = "repair.tier.dirty";
/// Commits repaired on the cache-reweigh tier (counter).
pub const REPAIR_TIER_REWEIGH: &str = "repair.tier.reweigh";
/// Commits degraded to the full tier (counter).
pub const REPAIR_TIER_FULL: &str = "repair.tier.full";
/// Nodes whose neighbourhood was recomputed (counter).
pub const REPAIR_DIRTY_NODES: &str = "repair.dirty_nodes";
/// Edges re-accumulated from the blocks (counter).
pub const REPAIR_EDGES_REWEIGHED: &str = "repair.edges_reweighed";
/// Node adjacencies re-accumulated from the blocks (counter) — one per
/// dirty node on the dirty tier; a second traversal would double it.
pub const REPAIR_SCRATCH_LOADS: &str = "repair.scratch_loads";
/// Clean edges re-derived from cached accumulators (counter).
pub const REPAIR_EDGES_SWEPT: &str = "repair.edges_swept";
/// Swept edges whose weight bits moved (counter) — changed weights, not
/// index operations: WEP/CEP re-key nothing on the reweigh tier.
pub const REPAIR_EDGES_REKEYED: &str = "repair.edges_rekeyed";

/// Retention flips emitted by the decision stage (counter).
pub const DECISION_RETENTION_FLIPS: &str = "decision.retention_flips";
/// Clean-edge frontier crossers (counter).
pub const DECISION_THRESHOLD_CROSSERS: &str = "decision.threshold_crossers";

/// Snapshot CSR rows patched (counter).
pub const SNAPSHOT_PATCHED_ROWS: &str = "snapshot.patched_rows";
/// Snapshot block slots patched (counter).
pub const SNAPSHOT_PATCHED_SLOTS: &str = "snapshot.patched_slots";

/// Dirty posting keys drained per commit (counter).
pub const CLEANER_DIRTY_KEYS: &str = "cleaner.dirty_keys";
/// Profiles removed from at least one dirty key (counter).
pub const CLEANER_REMOVED_MEMBERS: &str = "cleaner.removed_members";
/// Profiles whose key list changed (counter).
pub const CLEANER_TOUCHED_PROFILES: &str = "cleaner.touched_profiles";

/// Current candidate-set size (gauge).
pub const PIPELINE_RETAINED: &str = "pipeline.retained";
/// Current cleaned-block count (gauge).
pub const PIPELINE_BLOCKS: &str = "pipeline.blocks";
/// Live edges in the decision state (gauge).
pub const PIPELINE_LIVE_EDGES: &str = "pipeline.live_edges";
/// Packed accumulator entries cached in the edge adjacency (gauge).
pub const PIPELINE_CACHED_ACCUMULATORS: &str = "pipeline.cached_accumulators";
/// Distinct token symbols interned by the block index (gauge).
pub const INTERNER_SYMBOLS: &str = "interner.symbols";

/// Bulk `OrderedWeightIndex` treap builds (counter, process-wide): the
/// degraded-full tier plus every materialisation of a deferred index. No
/// reweigh commit builds one, so a healthy stream shows this near zero.
pub const TREAP_BULK_REBUILDS: &str = "treap.bulk_rebuilds";
/// WEP/CEP commits that decided every edge explicitly and left the ordered
/// weight index deferred — tree dropped, Σw and count kept (counter).
pub const TREAP_DEFERRED_COMMITS: &str = "treap.deferred_commits";
/// Commits that found the ordered weight index deferred and built it from
/// the adjacency rows (counter) — at most one per reweigh→dirty
/// transition, never on a reweigh commit.
pub const TREAP_MATERIALISATIONS: &str = "treap.materialisations";

/// Mutable-CSR row splices (counter, process-wide).
pub const CSR_SPLICES: &str = "csr.splices";
/// Mutable-CSR arena compactions (counter, process-wide).
pub const CSR_COMPACTIONS: &str = "csr.compactions";

/// `parallel_work_steal` invocations (counter, process-wide).
pub const SCHEDULER_INVOCATIONS: &str = "scheduler.invocations";
/// Chunks processed by the work-stealing scheduler (counter, process-wide).
pub const SCHEDULER_CHUNKS: &str = "scheduler.chunks";
/// Chunks claimed per worker activation (histogram, process-wide) — the
/// steal balance: a flat distribution means the dynamic claiming kept
/// every worker busy. Aggregated over every pool size; the `.tN` variants
/// below split the same observations by worker-pool size so multi-core
/// runs are distinguishable on the Prometheus page.
pub const SCHEDULER_CHUNKS_PER_WORKER: &str = "scheduler.chunks_per_worker";
/// Chunks per worker on single-worker activations (histogram).
pub const SCHEDULER_CHUNKS_PER_WORKER_T1: &str = "scheduler.chunks_per_worker.t1";
/// Chunks per worker on 2-worker pools (histogram).
pub const SCHEDULER_CHUNKS_PER_WORKER_T2: &str = "scheduler.chunks_per_worker.t2";
/// Chunks per worker on 4-worker pools (histogram).
pub const SCHEDULER_CHUNKS_PER_WORKER_T4: &str = "scheduler.chunks_per_worker.t4";
/// Chunks per worker on 8-worker pools (histogram).
pub const SCHEDULER_CHUNKS_PER_WORKER_T8: &str = "scheduler.chunks_per_worker.t8";
/// Chunks per worker on any other pool size (histogram).
pub const SCHEDULER_CHUNKS_PER_WORKER_OTHER: &str = "scheduler.chunks_per_worker.other";

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

/// Rows demoted to the cold tier by the residency enforcer (counter).
pub const COLD_EVICTIONS: &str = "cold.evictions";
/// Cold rows read back — transiently decoded or promoted hot (counter).
pub const COLD_REHYDRATIONS: &str = "cold.rehydrations";
/// Live cold-frame bytes resident in memory; spilled bytes excluded
/// (gauge).
pub const COLD_RESIDENT_BYTES: &str = "cold.resident_bytes";
