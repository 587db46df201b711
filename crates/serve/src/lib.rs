//! `blast-serve`: the online candidate-serving layer — one immutable
//! snapshot published per commit, read concurrently under live ingest.
//!
//! The incremental engine ([`blast_incremental::IncrementalPipeline`])
//! turns streamed mutations into candidate-pair deltas; this crate makes
//! the result *queryable while it changes*. The design is a strict
//! reader/writer split:
//!
//! * **Writer** — [`ServePipeline`] wraps the engine; each commit replays
//!   the engine's `PairDelta` — pairs *and* the weights the decision stage
//!   compared, nothing re-derived — into a [`SnapshotBuilder`] and
//!   publishes the resulting immutable [`ServeSnapshot`] (tagged with the
//!   commit seq) into an [`Epoch`].
//! * **Readers** — any number of threads [`Epoch::load`] the current
//!   snapshot and answer queries from the `Arc` they got. The epoch is an
//!   `RwLock<Arc<ServeSnapshot>>`: a request costs one shared-lock `Arc`
//!   clone, a publish one exclusive-lock pointer swap, so a reader waits
//!   for the writer (and the writer for readers) for the length of a
//!   pointer copy and never for a query or a commit.
//!
//! Consistency: every query observes exactly one published version, and
//! the version at seq N holds exactly the batch-equivalent candidate set
//! at commit N (the read-your-writes gate `tests/serve_snapshot.rs`
//! enforces). Memory: snapshots are copy-on-write per node row — shared
//! rows grouped [`snapshot::CHUNK_NODES`] to a shared chunk — so a publish
//! costs one pointer-vector clone, [`snapshot::CHUNK_NODES`] refcount bumps
//! per touched chunk and one exactly sized row per touched node
//! (`serve.rows_copied` / `serve.chunks_copied` count them,
//! `serve.publish_secs` times it). A retired version lives exactly as long
//! as some reader still holds its `Arc` — the last holder frees it — and
//! the `serve.stale_epochs` gauge is how many were still held after the
//! latest publish.
//!
//! [`http`] mounts the whole thing behind a zero-dependency HTTP/1.1
//! server (`/candidates`, `/topk`, `/stats`, `/metrics`); `blast serve`
//! drives a live ingest against it.

pub mod epoch;
pub mod http;
pub mod metrics;
pub mod pipeline;
pub mod snapshot;

pub use epoch::Epoch;
pub use http::{ServeState, Server};
pub use metrics::{ServeMetrics, ServeTotals};
pub use pipeline::ServePipeline;
pub use snapshot::{Candidate, CommitUpdate, CopyStats, ServeSnapshot, SnapshotBuilder};
