//! `blast-obs`: the observability core — metrics, the commit path's
//! statistics, and the export surfaces the rest of the workspace reads.
//!
//! * [`metric`] — [`Counter`]s and [`Gauge`]s (one atomic each) and
//!   **log-bucketed** [`Histogram`]s (one bucket array); a record is one or
//!   two relaxed atomic adds, no locks.
//! * [`registry`] — metric registration under the **dotted-name
//!   convention** (`commit.phase.decision_secs`, `repair.tier.dirty`,
//!   `interner.symbols`, …) and on-demand reads into immutable
//!   [`MetricsSnapshot`]s whose [`MetricsSnapshot::encode_text`] emits
//!   Prometheus text exposition — the `/metrics` page of `blast serve` and
//!   the file `blast stream --metrics` writes. One registry per pipeline;
//!   there is no process-wide one.
//! * [`commit`] — a commit's statistics, each declared once: the phase
//!   table behind [`CommitPhases`] and the [`COMMIT_STATS`] table behind
//!   [`RepairStats`]. The incremental pipeline fills and records them
//!   ([`CommitMetrics`]); `blast stream --stats`, the trace journal, the
//!   repo benchmark and [`CommitTotals`] read them back through the same
//!   rows.
//! * [`trace`] — the dependency-free JSON machinery behind the per-commit
//!   **JSONL trace journal** (`blast stream --trace out.jsonl`).
//!
//! Recording is unconditional: there is no process-wide off switch, so
//! `--stats`, `/metrics` and the repo benchmark's registry gates always
//! see every commit.
//!
//! The crate is deliberately **zero-dependency**: nothing below `std`.

pub mod commit;
pub mod metric;
pub mod names;
pub mod registry;
pub mod trace;

pub use commit::{
    CommitMetrics, CommitPhases, CommitStat, CommitTotals, RepairStats, RepairTier, StatKind,
    COMMIT_STATS,
};
pub use metric::{Counter, Gauge, Histogram};
pub use registry::{HistogramSample, MetricSample, MetricsSnapshot, Registry, SampleValue};
