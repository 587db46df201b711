//! Typed views over the registry for the commit path.
//!
//! Before this crate, the per-phase wall-clock split (`CommitTimings`) and
//! the repair diagnostics (`RepairStats`) were hand-aggregated in three
//! places: the pipeline, `blast stream --stats`, and a bench binary's
//! JSON writer. The registry is now the one aggregation point:
//!
//! * [`CommitMetrics`] — the write side. The incremental pipeline owns one
//!   per stream (its own [`Registry`], so concurrent pipelines and tests
//!   never bleed into each other) and records one [`CommitRecord`] per
//!   commit.
//! * [`CommitPhases`] — the per-commit phase split. The incremental
//!   crate's `CommitTimings` is a re-export of this type, so the trace
//!   journal's phase object ([`CommitPhases::to_json`]) and the `--stats`
//!   phase line ([`CommitPhases::human_micros`]) are formatted by exactly
//!   one implementation.
//! * [`CommitTotals`] — the read side: everything the commit path recorded,
//!   reconstructed from a [`MetricsSnapshot`] (or a
//!   [`MetricsSnapshot::delta_since`] window of one).

use crate::metric::{Counter, Gauge, Histogram};
use crate::names;
use crate::registry::{MetricsSnapshot, Registry};
use std::fmt::Write as _;
use std::sync::Arc;

/// Wall-clock split of one commit across the pipeline stages. Re-exported
/// by the incremental crate as `CommitTimings`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommitPhases {
    /// Blocking-index maintenance: token re-keying + posting diffs of the
    /// micro-batch's mutations plus the dirty-state drain.
    pub index_secs: f64,
    /// Incremental purging + filtering over the dirty blocks.
    pub cleaning_secs: f64,
    /// Patching the owned graph snapshot (CSR row splices + slot stats).
    pub snapshot_secs: f64,
    /// Dirty-neighbourhood artefact repair.
    pub repair_secs: f64,
    /// The repair ladder's reweigh machinery (degree-delta maintenance
    /// plus the tier-2 clean-edge cache sweep).
    pub reweigh_secs: f64,
    /// The decision stage: frontier maintenance, flip emission,
    /// retained-set surgery.
    pub decision_secs: f64,
}

impl CommitPhases {
    /// Total commit wall-clock.
    pub fn total_secs(&self) -> f64 {
        self.index_secs
            + self.cleaning_secs
            + self.snapshot_secs
            + self.repair_secs
            + self.reweigh_secs
            + self.decision_secs
    }

    /// Element-wise accumulation (for aggregating over a run).
    pub fn accumulate(&mut self, other: &CommitPhases) {
        self.index_secs += other.index_secs;
        self.cleaning_secs += other.cleaning_secs;
        self.snapshot_secs += other.snapshot_secs;
        self.repair_secs += other.repair_secs;
        self.reweigh_secs += other.reweigh_secs;
        self.decision_secs += other.decision_secs;
    }

    /// Element-wise mean over `commits` (identity for `commits == 0`).
    pub fn mean(&self, commits: usize) -> CommitPhases {
        let n = commits.max(1) as f64;
        CommitPhases {
            index_secs: self.index_secs / n,
            cleaning_secs: self.cleaning_secs / n,
            snapshot_secs: self.snapshot_secs / n,
            repair_secs: self.repair_secs / n,
            reweigh_secs: self.reweigh_secs / n,
            decision_secs: self.decision_secs / n,
        }
    }

    /// Reads the six phase totals out of a snapshot (sums of the
    /// `commit.phase.*` nanosecond histograms, in seconds). Apply to a
    /// [`MetricsSnapshot::delta_since`] window to scope to one run.
    pub fn from_snapshot(s: &MetricsSnapshot) -> CommitPhases {
        let sum = |name: &str| s.histogram(name).map_or(0.0, |h| h.sum());
        CommitPhases {
            index_secs: sum(names::COMMIT_PHASE_INDEX_SECS),
            cleaning_secs: sum(names::COMMIT_PHASE_CLEANING_SECS),
            snapshot_secs: sum(names::COMMIT_PHASE_SNAPSHOT_SECS),
            repair_secs: sum(names::COMMIT_PHASE_REPAIR_SECS),
            reweigh_secs: sum(names::COMMIT_PHASE_REWEIGH_SECS),
            decision_secs: sum(names::COMMIT_PHASE_DECISION_SECS),
        }
    }

    /// The phase object of a trace-journal event — the one serialization
    /// of the phase schema.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"index_maintenance_secs\": {:.6}, \"cleaning_secs\": {:.6}, \"snapshot_patch_secs\": {:.6}, \"graph_repair_secs\": {:.6}, \"reweigh_secs\": {:.6}, \"decision_secs\": {:.6}}}",
            self.index_secs,
            self.cleaning_secs,
            self.snapshot_secs,
            self.repair_secs,
            self.reweigh_secs,
            self.decision_secs,
        )
    }

    /// The human phase line of `blast stream --stats`, in microseconds.
    pub fn human_micros(&self) -> String {
        format!(
            "{:.1}us index / {:.1}us clean / {:.1}us snapshot / {:.1}us repair / {:.1}us reweigh / {:.1}us decision",
            self.index_secs * 1e6,
            self.cleaning_secs * 1e6,
            self.snapshot_secs * 1e6,
            self.repair_secs * 1e6,
            self.reweigh_secs * 1e6,
            self.decision_secs * 1e6,
        )
    }
}

/// One commit's worth of observations, handed to
/// [`CommitMetrics::record`]. Plain integers — the pipeline maps its
/// `RepairStats`/delta/footprint counters into this and the registry does
/// the aggregation.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommitRecord<'a> {
    /// The per-phase wall-clock split.
    pub phases: Option<&'a CommitPhases>,
    /// Repair-ladder rung (0 = dirty, 1 = reweigh, 2 = full).
    pub tier: usize,
    /// Nodes whose neighbourhood was recomputed.
    pub dirty_nodes: u64,
    /// Snapshot CSR rows patched.
    pub patched_rows: u64,
    /// Snapshot block slots patched.
    pub patched_slots: u64,
    /// Edges re-accumulated from the blocks.
    pub edges_reweighed: u64,
    /// Node adjacencies re-accumulated from the blocks.
    pub scratch_loads: u64,
    /// Clean edges re-derived from cached accumulators.
    pub edges_swept: u64,
    /// Swept edges whose weight bits moved.
    pub edges_rekeyed: u64,
    /// Retention flips (|added| + |retracted|).
    pub retention_flips: u64,
    /// Clean-edge frontier crossers.
    pub threshold_crossers: u64,
    /// 1 when this commit left the ordered weight index deferred.
    pub index_deferred: u64,
    /// 1 when this commit materialised a deferred ordered weight index.
    pub index_materialised: u64,
    /// Candidate pairs added this commit.
    pub pairs_added: u64,
    /// Candidate pairs retracted this commit.
    pub pairs_retracted: u64,
    /// Dirty posting keys the cleaner drained.
    pub cleaner_dirty_keys: u64,
    /// Profiles removed from at least one dirty key.
    pub cleaner_removed_members: u64,
    /// Profiles whose key list changed.
    pub cleaner_touched_profiles: u64,
    /// Candidate-set size after the commit (gauge).
    pub retained: i64,
    /// Cleaned-block count after the commit (gauge).
    pub blocks: i64,
    /// Live edges after the commit (gauge).
    pub live_edges: i64,
    /// Cached accumulator entries after the commit (gauge).
    pub cached_accumulators: i64,
    /// Interned token symbols after the commit (gauge).
    pub interned_symbols: i64,
    /// Rows demoted to the cold tier this commit.
    pub cold_evictions: u64,
    /// Cold rows read back this commit (transient decodes + promotions).
    pub cold_rehydrations: u64,
    /// Cold-frame bytes resident in memory after the commit (gauge;
    /// spilled bytes excluded).
    pub cold_resident_bytes: i64,
}

/// The commit path's pre-registered write handles over one [`Registry`].
///
/// Construction registers every `commit.*` / `repair.*` / `decision.*` /
/// `snapshot.*` / `cleaner.*` / `pipeline.*` metric; recording one commit
/// is ~20 relaxed atomic adds, no locks.
#[derive(Debug)]
pub struct CommitMetrics {
    registry: Arc<Registry>,
    commits: Arc<Counter>,
    total_secs: Arc<Histogram>,
    phase_hists: [Arc<Histogram>; 6],
    tiers: [Arc<Counter>; 3],
    counters: [Arc<Counter>; 18],
    gauges: [Arc<Gauge>; 6],
}

/// Index order of `CommitMetrics::counters` (kept private; the names are
/// the contract).
const COUNTER_NAMES: [&str; 18] = [
    names::REPAIR_DIRTY_NODES,
    names::SNAPSHOT_PATCHED_ROWS,
    names::SNAPSHOT_PATCHED_SLOTS,
    names::REPAIR_EDGES_REWEIGHED,
    names::REPAIR_SCRATCH_LOADS,
    names::REPAIR_EDGES_SWEPT,
    names::REPAIR_EDGES_REKEYED,
    names::DECISION_RETENTION_FLIPS,
    names::DECISION_THRESHOLD_CROSSERS,
    names::TREAP_DEFERRED_COMMITS,
    names::TREAP_MATERIALISATIONS,
    names::COMMIT_PAIRS_ADDED,
    names::COMMIT_PAIRS_RETRACTED,
    names::CLEANER_DIRTY_KEYS,
    names::CLEANER_REMOVED_MEMBERS,
    names::CLEANER_TOUCHED_PROFILES,
    names::COLD_EVICTIONS,
    names::COLD_REHYDRATIONS,
];

const GAUGE_NAMES: [&str; 6] = [
    names::PIPELINE_RETAINED,
    names::PIPELINE_BLOCKS,
    names::PIPELINE_LIVE_EDGES,
    names::PIPELINE_CACHED_ACCUMULATORS,
    names::INTERNER_SYMBOLS,
    names::COLD_RESIDENT_BYTES,
];

impl CommitMetrics {
    /// Registers the commit-path metrics on a fresh registry.
    pub fn new() -> Self {
        Self::on(Arc::new(Registry::new()))
    }

    /// Registers the commit-path metrics on `registry`.
    pub fn on(registry: Arc<Registry>) -> Self {
        let h = |name| registry.histogram_with_unit(name, 1e-9);
        let phase_hists = [
            h(names::COMMIT_PHASE_INDEX_SECS),
            h(names::COMMIT_PHASE_CLEANING_SECS),
            h(names::COMMIT_PHASE_SNAPSHOT_SECS),
            h(names::COMMIT_PHASE_REPAIR_SECS),
            h(names::COMMIT_PHASE_REWEIGH_SECS),
            h(names::COMMIT_PHASE_DECISION_SECS),
        ];
        let tiers = [
            registry.counter(names::REPAIR_TIER_DIRTY),
            registry.counter(names::REPAIR_TIER_REWEIGH),
            registry.counter(names::REPAIR_TIER_FULL),
        ];
        let counters = COUNTER_NAMES.map(|n| registry.counter(n));
        let gauges = GAUGE_NAMES.map(|n| registry.gauge(n));
        Self {
            commits: registry.counter(names::COMMIT_COUNT),
            total_secs: registry.histogram_with_unit(names::COMMIT_TOTAL_SECS, 1e-9),
            phase_hists,
            tiers,
            counters,
            gauges,
            registry,
        }
    }

    /// The backing registry (snapshot it to read the totals back).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Convenience: a snapshot of the backing registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Records one commit. When `phases` is present, `commit.total_secs`
    /// is recorded as their sum.
    pub fn record(&self, r: &CommitRecord<'_>) {
        self.commits.inc();
        if let Some(p) = r.phases {
            self.total_secs.record_secs(p.total_secs());
            let secs = [
                p.index_secs,
                p.cleaning_secs,
                p.snapshot_secs,
                p.repair_secs,
                p.reweigh_secs,
                p.decision_secs,
            ];
            for (hist, s) in self.phase_hists.iter().zip(secs) {
                hist.record_secs(s);
            }
        }
        self.tiers[r.tier.min(2)].inc();
        let values = [
            r.dirty_nodes,
            r.patched_rows,
            r.patched_slots,
            r.edges_reweighed,
            r.scratch_loads,
            r.edges_swept,
            r.edges_rekeyed,
            r.retention_flips,
            r.threshold_crossers,
            r.index_deferred,
            r.index_materialised,
            r.pairs_added,
            r.pairs_retracted,
            r.cleaner_dirty_keys,
            r.cleaner_removed_members,
            r.cleaner_touched_profiles,
            r.cold_evictions,
            r.cold_rehydrations,
        ];
        for (c, v) in self.counters.iter().zip(values) {
            if v > 0 {
                c.add(v);
            }
        }
        let levels = [
            r.retained,
            r.blocks,
            r.live_edges,
            r.cached_accumulators,
            r.interned_symbols,
            r.cold_resident_bytes,
        ];
        for (g, v) in self.gauges.iter().zip(levels) {
            g.set(v);
        }
    }
}

impl Default for CommitMetrics {
    fn default() -> Self {
        Self::new()
    }
}

/// Everything the commit path recorded, read back out of a snapshot — the
/// typed aggregate view `blast stream --stats` prints (apply to a
/// [`MetricsSnapshot::delta_since`] window to scope to one run).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommitTotals {
    /// Commits in the window.
    pub commits: u64,
    /// Summed per-phase wall clock.
    pub phases: CommitPhases,
    /// Commits per repair-ladder rung (dirty / reweigh / full).
    pub tier_commits: [u64; 3],
    /// Dirty nodes repaired.
    pub dirty_nodes: u64,
    /// Snapshot CSR rows patched.
    pub patched_rows: u64,
    /// Snapshot block slots patched.
    pub patched_slots: u64,
    /// Edges re-accumulated from the blocks.
    pub edges_reweighed: u64,
    /// Node adjacencies re-accumulated from the blocks.
    pub scratch_loads: u64,
    /// Clean edges swept by the reweigh tier.
    pub edges_swept: u64,
    /// Swept edges whose weight bits moved.
    pub edges_rekeyed: u64,
    /// Retention flips emitted.
    pub retention_flips: u64,
    /// Clean-edge frontier crossers.
    pub threshold_crossers: u64,
    /// Commits that left the ordered weight index deferred.
    pub treap_deferred_commits: u64,
    /// Commits that materialised a deferred ordered weight index.
    pub treap_materialisations: u64,
    /// Candidate pairs added.
    pub pairs_added: u64,
    /// Candidate pairs retracted.
    pub pairs_retracted: u64,
    /// Dirty posting keys drained by the cleaner.
    pub cleaner_dirty_keys: u64,
    /// Rows demoted to the cold tier.
    pub cold_evictions: u64,
    /// Cold rows read back (transient decodes + promotions).
    pub cold_rehydrations: u64,
}

impl CommitTotals {
    /// Reconstructs the totals from a snapshot.
    pub fn from_snapshot(s: &MetricsSnapshot) -> CommitTotals {
        CommitTotals {
            commits: s.counter(names::COMMIT_COUNT),
            phases: CommitPhases::from_snapshot(s),
            tier_commits: [
                s.counter(names::REPAIR_TIER_DIRTY),
                s.counter(names::REPAIR_TIER_REWEIGH),
                s.counter(names::REPAIR_TIER_FULL),
            ],
            dirty_nodes: s.counter(names::REPAIR_DIRTY_NODES),
            patched_rows: s.counter(names::SNAPSHOT_PATCHED_ROWS),
            patched_slots: s.counter(names::SNAPSHOT_PATCHED_SLOTS),
            edges_reweighed: s.counter(names::REPAIR_EDGES_REWEIGHED),
            scratch_loads: s.counter(names::REPAIR_SCRATCH_LOADS),
            edges_swept: s.counter(names::REPAIR_EDGES_SWEPT),
            edges_rekeyed: s.counter(names::REPAIR_EDGES_REKEYED),
            retention_flips: s.counter(names::DECISION_RETENTION_FLIPS),
            threshold_crossers: s.counter(names::DECISION_THRESHOLD_CROSSERS),
            treap_deferred_commits: s.counter(names::TREAP_DEFERRED_COMMITS),
            treap_materialisations: s.counter(names::TREAP_MATERIALISATIONS),
            pairs_added: s.counter(names::COMMIT_PAIRS_ADDED),
            pairs_retracted: s.counter(names::COMMIT_PAIRS_RETRACTED),
            cleaner_dirty_keys: s.counter(names::CLEANER_DIRTY_KEYS),
            cold_evictions: s.counter(names::COLD_EVICTIONS),
            cold_rehydrations: s.counter(names::COLD_REHYDRATIONS),
        }
    }

    /// The repair-totals summary line of `blast stream --stats`.
    pub fn repair_summary(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "repair totals: {} dirty nodes, {} patched CSR rows, {} retention flips \
             ({} threshold crossers), tiers = {}/{}/{} dirty/reweigh/full of {}, \
             ordered index deferred on {} commits, materialised on {}",
            self.dirty_nodes,
            self.patched_rows,
            self.retention_flips,
            self.threshold_crossers,
            self.tier_commits[0],
            self.tier_commits[1],
            self.tier_commits[2],
            self.commits,
            self.treap_deferred_commits,
            self.treap_materialisations,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_then_read_back_roundtrips() {
        let m = CommitMetrics::new();
        let phases = CommitPhases {
            index_secs: 1e-3,
            cleaning_secs: 2e-3,
            snapshot_secs: 3e-3,
            repair_secs: 4e-3,
            reweigh_secs: 5e-3,
            decision_secs: 6e-3,
        };
        m.record(&CommitRecord {
            phases: Some(&phases),
            tier: 1,
            dirty_nodes: 4,
            scratch_loads: 4,
            patched_rows: 7,
            retention_flips: 2,
            pairs_added: 2,
            retained: 11,
            live_edges: 30,
            index_deferred: 1,
            cold_evictions: 5,
            cold_rehydrations: 3,
            cold_resident_bytes: 4096,
            ..CommitRecord::default()
        });
        m.record(&CommitRecord {
            phases: Some(&phases),
            tier: 0,
            dirty_nodes: 1,
            scratch_loads: 1,
            index_materialised: 1,
            retained: 12,
            live_edges: 31,
            ..CommitRecord::default()
        });
        let snap = m.snapshot();
        let t = CommitTotals::from_snapshot(&snap);
        assert_eq!(t.commits, 2);
        assert_eq!(t.tier_commits, [1, 1, 0]);
        assert_eq!(t.dirty_nodes, 5);
        assert_eq!(t.scratch_loads, 5);
        assert_eq!(t.patched_rows, 7);
        assert_eq!(t.retention_flips, 2);
        assert_eq!(t.pairs_added, 2);
        assert!((t.phases.index_secs - 2e-3).abs() < 1e-9);
        assert!((t.phases.decision_secs - 12e-3).abs() < 1e-9);
        assert_eq!(t.cold_evictions, 5);
        assert_eq!(t.cold_rehydrations, 3);
        assert_eq!(
            snap.gauge(names::COLD_RESIDENT_BYTES),
            Some(0),
            "last set wins"
        );
        assert_eq!(snap.gauge(names::PIPELINE_RETAINED), Some(12));
        assert_eq!(snap.gauge(names::PIPELINE_LIVE_EDGES), Some(31));
        assert_eq!(t.treap_deferred_commits, 1);
        assert_eq!(t.treap_materialisations, 1);
        assert!(t.repair_summary().contains("tiers = 1/1/0"));
        assert!(t
            .repair_summary()
            .contains("deferred on 1 commits, materialised on 1"));
    }

    #[test]
    fn bench_json_schema_is_stable() {
        let p = CommitPhases {
            index_secs: 0.5,
            ..CommitPhases::default()
        };
        let json = p.to_json();
        for key in [
            "index_maintenance_secs",
            "cleaning_secs",
            "snapshot_patch_secs",
            "graph_repair_secs",
            "reweigh_secs",
            "decision_secs",
        ] {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key}");
        }
        assert!(crate::trace::is_valid_json(&json), "{json}");
    }

    #[test]
    fn phases_mean_and_accumulate() {
        let mut a = CommitPhases {
            index_secs: 1.0,
            decision_secs: 3.0,
            ..CommitPhases::default()
        };
        a.accumulate(&CommitPhases {
            index_secs: 1.0,
            decision_secs: 1.0,
            ..CommitPhases::default()
        });
        assert_eq!(a.total_secs(), 6.0);
        let m = a.mean(2);
        assert_eq!(m.index_secs, 1.0);
        assert_eq!(m.decision_secs, 2.0);
    }
}
