//! `blast-obs`: the observability core — lock-free metrics, structured
//! tracing, and the export surfaces the rest of the workspace records into.
//!
//! Six generations of hand-rolled counters (`RepairStats`, commit phase
//! timings, memory-footprint gauges, per-bench aggregation) grew up
//! threaded by hand through the pipeline; none survived concurrent
//! writers and none exported anywhere. This crate replaces the plumbing
//! with one registry:
//!
//! * [`metric`] — per-thread **sharded, lock-free** [`Counter`]s,
//!   [`Gauge`]s and **log-bucketed** [`Histogram`]s (record cost is a
//!   couple of relaxed atomic adds; no locks anywhere on the hot path),
//!   plus the RAII [`SpanTimer`] and the `Lazy*` handles crates use to
//!   instrument themselves against the process-wide registry.
//! * [`registry`] — metric registration under the **dotted-name
//!   convention** (`commit.phase.decision_secs`, `repair.tier`,
//!   `treap.bulk_rebuilds`, `csr.splices`, `interner.symbols`, …) and
//!   on-demand aggregation into immutable [`MetricsSnapshot`]s whose
//!   [`MetricsSnapshot::encode_text`] emits Prometheus text exposition —
//!   the payload a future `blast serve` mounts as `/metrics`.
//! * [`commit`] — the typed views over the registry that the incremental
//!   pipeline records into ([`CommitMetrics`]) and that reports read back
//!   out ([`CommitPhases`], [`CommitTotals`]): `blast stream --stats` and
//!   the trace journal both print/serialize through these, so the
//!   phase-timing schema lives in exactly one place.
//! * [`trace`] — the dependency-free JSON machinery behind the per-commit
//!   **JSONL trace journal** (`blast stream --trace out.jsonl`).
//!
//! Recording is unconditional: there is no process-wide off switch, so
//! `--stats`, `/metrics` and the repo benchmark's registry gates always
//! see every commit.
//!
//! The crate is deliberately **zero-dependency**: nothing below `std`, so
//! every other crate in the workspace can depend on it without cycles.

pub mod commit;
pub mod metric;
pub mod names;
pub mod registry;
pub mod trace;

pub use commit::{CommitMetrics, CommitPhases, CommitRecord, CommitTotals};
pub use metric::{Counter, Gauge, Histogram, LazyCounter, LazyGauge, LazyHistogram, SpanTimer};
pub use registry::{global, HistogramSample, MetricSample, MetricsSnapshot, Registry, SampleValue};
