//! `blast-serve`: the online candidate-serving layer — epoch-published
//! snapshots and lock-free concurrent reads under live ingest.
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
//! * **Readers** — any number of threads register an epoch [`Reader`] and
//!   answer queries by pinning the current snapshot: wait-free on the read
//!   path (two atomic stores around a pointer load), no `Mutex`/`RwLock`
//!   anywhere a query runs. No reader ever blocks a commit; no commit
//!   ever blocks a reader.
//!
//! Consistency: every query observes exactly one published version, and
//! the version at seq N holds exactly the batch-equivalent candidate set
//! at commit N (the read-your-writes gate `exp_serve` enforces). Memory:
//! snapshots are copy-on-write per node row — shared rows grouped
//! [`snapshot::CHUNK_NODES`] to a shared chunk — so a publish costs one
//! pointer-vector clone, [`snapshot::CHUNK_NODES`] refcount bumps per
//! touched chunk and one exactly sized row per touched node
//! (`serve.rows_copied` / `serve.chunks_copied` count them,
//! `serve.publish_secs` times it), and epoch reclamation ([`epoch`]) frees
//! retired versions as soon as no pinned reader can still see them — the
//! `serve.stale_epochs` gauge is the backlog.
//!
//! [`http`] mounts the whole thing behind a zero-dependency HTTP/1.1
//! server (`/candidates`, `/topk`, `/stats`, `/metrics`); `blast serve`
//! drives a live ingest against it.

pub mod epoch;
pub mod http;
pub mod metrics;
pub mod pipeline;
pub mod snapshot;

pub use epoch::{Epoch, Guard, Reader, MAX_READERS};
pub use http::{ServeState, Server};
pub use metrics::{ServeMetrics, ServeTotals};
pub use pipeline::ServePipeline;
pub use snapshot::{Candidate, CommitUpdate, CopyStats, ServeSnapshot, SnapshotBuilder};
