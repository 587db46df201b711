//! The commit path's statistics, each declared once.
//!
//! Two tables carry everything a commit reports:
//!
//! * the **phase table** behind [`CommitPhases`] — the wall-clock split of
//!   one commit (re-exported by the incremental crate as `CommitTimings`).
//!   One row names the field, its `commit.phase.*` histogram, its journal
//!   key and its `--stats` label;
//! * [`COMMIT_STATS`] behind [`RepairStats`] — the per-commit counters
//!   and levels. One row names the field (which is also the journal
//!   key and, spaces for underscores, the `--stats` label), the
//!   [`CommitTotals`] field it sums into, how it aggregates ([`StatKind`])
//!   and its registry name.
//!
//! `IncrementalMetaBlocker::refresh` and `IncrementalPipeline::commit` fill
//! a [`RepairStats`] directly; [`CommitMetrics`] (the write side, one
//! [`Registry`] per pipeline so concurrent pipelines and tests never bleed
//! into each other) registers and records by walking the tables;
//! [`CommitTotals::from_snapshot`] (the read side), the trace journal
//! ([`RepairStats::journal`]) and the `--stats` line
//! ([`RepairStats::human`]) walk the same rows. A new statistic is one row
//! plus the line that measures it.

use crate::metric::{Counter, Gauge, Histogram};
use crate::names;
use crate::registry::{MetricsSnapshot, Registry};
use crate::trace::JsonObject;
use std::sync::Arc;

/// One row of the phase table.
struct Phase {
    /// The `commit.phase.*` nanosecond histogram.
    name: &'static str,
    /// Key in the journal's `phases` object.
    json_key: &'static str,
    /// Label on the `--stats` phase line.
    label: &'static str,
    get: fn(&CommitPhases) -> f64,
    slot: fn(&mut CommitPhases) -> &mut f64,
}

macro_rules! commit_phases {
    ($( $(#[$doc:meta])* $field:ident => $json_key:literal, $label:literal, $name:expr; )*) => {
        /// Wall-clock split of one commit across the pipeline stages.
        /// Re-exported by the incremental crate as `CommitTimings`.
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        pub struct CommitPhases {
            $( $(#[$doc])* pub $field: f64, )*
        }

        const PHASES: &[Phase] = &[ $( Phase {
            name: $name,
            json_key: $json_key,
            label: $label,
            get: |p| p.$field,
            slot: |p| &mut p.$field,
        } ),* ];
    };
}

commit_phases! {
    /// Blocking-index maintenance: token re-keying + posting diffs of the
    /// micro-batch's mutations plus the dirty-state drain.
    index_secs => "index_maintenance_secs", "index", names::COMMIT_PHASE_INDEX_SECS;
    /// Incremental purging + filtering over the dirty blocks.
    cleaning_secs => "cleaning_secs", "clean", names::COMMIT_PHASE_CLEANING_SECS;
    /// Patching the owned graph snapshot (profile row splices + slot stats).
    snapshot_secs => "snapshot_patch_secs", "snapshot", names::COMMIT_PHASE_SNAPSHOT_SECS;
    /// Dirty-neighbourhood artefact repair.
    repair_secs => "graph_repair_secs", "repair", names::COMMIT_PHASE_REPAIR_SECS;
    /// The repair ladder's reweigh machinery (degree-delta maintenance
    /// plus the tier-2 clean-edge cache sweep).
    reweigh_secs => "reweigh_secs", "reweigh", names::COMMIT_PHASE_REWEIGH_SECS;
    /// The decision stage: frontier maintenance, flip emission,
    /// retained-set surgery.
    decision_secs => "decision_secs", "decision", names::COMMIT_PHASE_DECISION_SECS;
}

impl CommitPhases {
    /// Builds a split phase by phase.
    fn from_fn(mut secs: impl FnMut(&Phase) -> f64) -> CommitPhases {
        let mut out = CommitPhases::default();
        for phase in PHASES {
            *(phase.slot)(&mut out) = secs(phase);
        }
        out
    }

    /// Total commit wall-clock.
    pub fn total_secs(&self) -> f64 {
        PHASES.iter().map(|p| (p.get)(self)).sum()
    }

    /// Element-wise accumulation (for aggregating over a run).
    pub fn accumulate(&mut self, other: &CommitPhases) {
        *self = CommitPhases::from_fn(|p| (p.get)(self) + (p.get)(other));
    }

    /// Element-wise mean over `commits` (identity for `commits == 0`).
    pub fn mean(&self, commits: usize) -> CommitPhases {
        let n = commits.max(1) as f64;
        CommitPhases::from_fn(|p| (p.get)(self) / n)
    }

    /// Reads the phase totals out of a snapshot (sums of the
    /// `commit.phase.*` nanosecond histograms, in seconds).
    pub fn from_snapshot(s: &MetricsSnapshot) -> CommitPhases {
        CommitPhases::from_fn(|p| s.histogram(p.name).map_or(0.0, |h| h.sum()))
    }

    /// The phase object of a trace-journal event — the one serialization
    /// of the phase schema.
    pub fn to_json(&self) -> String {
        PHASES
            .iter()
            .fold(JsonObject::new(), |obj, p| {
                obj.field_f64(p.json_key, (p.get)(self))
            })
            .finish()
    }

    /// The human phase line of `blast stream --stats`, in microseconds.
    pub fn human_micros(&self) -> String {
        let parts: Vec<String> = PHASES
            .iter()
            .map(|p| format!("{:.1}us {}", (p.get)(self) * 1e6, p.label))
            .collect();
        parts.join(" / ")
    }
}

/// Which rung of the repair ladder a commit landed on (see the incremental
/// crate's `graph` module docs): what promotes a commit from tier 1 to 2 is
/// a *global-scalar* drift (|B|; degrees/|E_G|; the CNP budget); from 2 to
/// 3 a *structural* invalidation (first pass, forced degradation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum RepairTier {
    /// Tier 1 — dirty-neighbourhood repair only.
    #[default]
    Dirty,
    /// Tier 2 — dirty neighbourhood plus a cache-driven reweigh of every
    /// clean edge (no block traversal).
    Reweigh,
    /// Tier 3 — the degraded-full pass: every node marked, everything
    /// re-accumulated from the blocks.
    Full,
}

impl RepairTier {
    /// Stable label for reports (`blast stream --stats`, the trace journal).
    pub fn label(&self) -> &'static str {
        match self {
            RepairTier::Dirty => "dirty",
            RepairTier::Reweigh => "reweigh",
            RepairTier::Full => "full",
        }
    }

    /// Zero-based rung index (dirty = 0, reweigh = 1, full = 2) — the
    /// per-tier counter slot used by the registry, the CLI and the
    /// benchmark.
    pub fn index(&self) -> usize {
        *self as usize
    }
}

/// How a per-commit statistic aggregates in the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatKind {
    /// A per-commit count, added to a counter.
    Counter,
    /// A level after the commit, set on a gauge.
    Gauge,
}

impl StatKind {
    /// Reads `name` back out of a snapshot: a counter's total, or a gauge's
    /// last level (0 when the registry never saw it).
    fn read(self, s: &MetricsSnapshot, name: &str) -> u64 {
        match self {
            StatKind::Gauge => s.gauge(name).unwrap_or(0).max(0) as u64,
            StatKind::Counter => s.counter(name),
        }
    }
}

/// One row of [`COMMIT_STATS`].
#[derive(Debug)]
pub struct CommitStat {
    /// The [`RepairStats`] field, which is also the journal key.
    pub field: &'static str,
    /// The registry (and, `blast_`-prefixed with underscores, Prometheus)
    /// name.
    pub name: &'static str,
    /// How the per-commit value aggregates.
    pub kind: StatKind,
    /// This commit's value.
    pub get: fn(&RepairStats) -> u64,
    /// The aggregate read back by [`CommitTotals::from_snapshot`].
    pub total: fn(&CommitTotals) -> u64,
}

macro_rules! commit_stats {
    ($( $(#[$doc:meta])* $field:ident: $ty:ty => $total:ident, $kind:ident, $name:literal; )*) => {
        /// Everything one commit reports besides its wall clock: filled by
        /// `IncrementalMetaBlocker::refresh` (the repair and decision
        /// fields) and `IncrementalPipeline::commit` (the rest), handed
        /// back on `CommitOutcome::stats` and recorded into the registry.
        /// Every field from `dirty_nodes` down is a row of [`COMMIT_STATS`].
        #[derive(Debug, Clone, Copy, Default)]
        pub struct RepairStats {
            /// The repair-ladder tier this commit landed on.
            pub tier: RepairTier,
            /// Wall-clock of the reweigh-machinery phase: degree-delta
            /// maintenance (any tier, degree-reading weighers only) plus
            /// the clean-edge cache sweep (reweigh tier only) — the
            /// `reweigh` phase column. Effectively zero for weighers with
            /// no global scalars.
            pub reweigh_secs: f64,
            /// Wall-clock of the decision stage alone (frontier
            /// maintenance, flip emission, retained-set surgery) — the
            /// `decision` phase column.
            pub decision_secs: f64,
            $( $(#[$doc])* pub $field: $ty, )*
        }

        /// Everything the commit path recorded, read back out of a
        /// snapshot: counts summed over the commits, levels as
        /// the last commit left them.
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        pub struct CommitTotals {
            /// Commits recorded.
            pub commits: u64,
            /// Summed per-phase wall clock.
            pub phases: CommitPhases,
            /// Commits per repair-ladder rung (dirty / reweigh / full).
            pub tier_commits: [u64; 3],
            $( $(#[$doc])* pub $total: u64, )*
        }

        /// The per-commit statistics table: one row per [`RepairStats`]
        /// field that reaches the registry, the journal and `--stats`.
        pub const COMMIT_STATS: &[CommitStat] = &[ $( CommitStat {
            field: stringify!($field),
            name: $name,
            kind: StatKind::$kind,
            get: |s| s.$field as u64,
            total: |t| t.$total,
        } ),* ];

        impl CommitTotals {
            /// Reconstructs the totals from a snapshot.
            pub fn from_snapshot(s: &MetricsSnapshot) -> CommitTotals {
                CommitTotals {
                    commits: s.counter(names::COMMIT_COUNT),
                    phases: CommitPhases::from_snapshot(s),
                    tier_commits: TIER_NAMES.map(|name| s.counter(name)),
                    $( $total: StatKind::$kind.read(s, $name), )*
                }
            }
        }
    };
}

commit_stats! {
    /// Nodes whose rows were re-accumulated from the blocks (under an edge
    /// cache whose weigher reads no block size, the nodes whose cleaned
    /// block list moved; otherwise every node whose co-occurrence moved).
    dirty_nodes: usize => dirty_nodes, Counter, "repair.dirty_nodes";
    /// Nodes whose per-node artefact (threshold, top-k list) was
    /// re-derived from the edge cache's rows without a block load: the
    /// neighbours of the dirty nodes under edge-delta repair, every other
    /// node on the reweigh tier. Zero for WEP/CEP, which keep none.
    artefact_nodes: usize => artefact_nodes, Counter, "repair.artefact_nodes";
    /// Node adjacencies re-accumulated from the blocks (the snapshot's own
    /// `scratch_loads` across the repair) — exactly `dirty_nodes` on tier
    /// 1: one traversal of the dirty neighbourhood yields both its edges
    /// and its per-node artefacts; a second traversal would double it.
    scratch_loads: usize => scratch_loads, Counter, "repair.scratch_loads";
    /// Edge weights re-accumulated from the blocks (the dirty-incident
    /// edges the accumulate stage re-materialised).
    edges_reweighed: usize => edges_reweighed, Counter, "repair.edges_reweighed";
    /// Clean edges whose weight was re-derived from the cached
    /// accumulators by the reweigh tier (zero on tiers 1 and 3).
    edges_swept: usize => edges_swept, Counter, "repair.edges_swept";
    /// Swept clean edges whose weight bits actually moved, so that their
    /// retention key changed.
    edges_rekeyed: usize => edges_rekeyed, Counter, "repair.edges_rekeyed";
    /// Profile rows the snapshot patched.
    patched_rows: usize => patched_rows, Counter, "snapshot.patched_rows";
    /// Block slots the snapshot patched.
    patched_slots: usize => patched_slots, Counter, "snapshot.patched_slots";
    /// Candidate pairs whose retention flipped (|added| + |retracted|).
    retention_flips: usize => retention_flips, Counter, "decision.retention_flips";
    /// WEP/CEP: clean edges whose weight bits did not move but whose
    /// retention flipped because the global threshold/cutoff frontier
    /// moved (WEP mean drift, CEP budget or rank shift). Each is found by
    /// deciding the clean edge explicitly against both frontiers.
    threshold_crossers: usize => threshold_crossers, Counter, "decision.threshold_crossers";
    /// Candidate pairs added.
    added: usize => pairs_added, Counter, "commit.pairs_added";
    /// Candidate pairs retracted.
    retracted: usize => pairs_retracted, Counter, "commit.pairs_retracted";
    /// Dirty posting keys the cleaner drained.
    cleaner_dirty_keys: usize => cleaner_dirty_keys, Counter, "cleaner.dirty_keys";
    /// Profiles removed from at least one dirty key.
    cleaner_removed_members: usize => cleaner_removed_members, Counter, "cleaner.removed_members";
    /// Profiles whose key list changed.
    cleaner_touched_profiles: usize => cleaner_touched_profiles, Counter, "cleaner.touched_profiles";
    /// Rows demoted to the cold tier by the residency enforcer.
    cold_evictions: usize => cold_evictions, Counter, "cold.evictions";
    /// Cold rows read back — transiently decoded or promoted hot.
    cold_rehydrations: usize => cold_rehydrations, Counter, "cold.rehydrations";
    /// Candidate-set size after the commit.
    retained: usize => retained, Gauge, "pipeline.retained";
    /// Cleaned-block count after the commit.
    blocks: usize => blocks, Gauge, "pipeline.blocks";
    /// Live edges in the decision state after the commit.
    live_edges: usize => live_edges, Gauge, "pipeline.live_edges";
    /// Packed accumulator entries cached in the edge adjacency.
    cached_accumulators: usize => cached_accumulators, Gauge, "pipeline.cached_accumulators";
    /// Distinct token symbols interned by the block index.
    interned_tokens: usize => interned_tokens, Gauge, "interner.symbols";
    /// Live cold-frame bytes resident in memory; spilled bytes excluded.
    cold_resident_bytes: usize => cold_resident_bytes, Gauge, "cold.resident_bytes";
}

impl RepairStats {
    /// Whether the pass degraded to the full tier.
    pub fn is_full(&self) -> bool {
        self.tier == RepairTier::Full
    }

    /// Appends every row of [`COMMIT_STATS`] to a trace-journal event,
    /// keyed by field name.
    pub fn journal(&self, event: JsonObject) -> JsonObject {
        COMMIT_STATS.iter().fold(event, |event, stat| {
            event.field_u64(stat.field, (stat.get)(self))
        })
    }

    /// Every row of [`COMMIT_STATS`] as `label = value`, the label being
    /// the field name with spaces — the per-commit line of
    /// `blast stream --stats`.
    pub fn human(&self) -> String {
        let parts: Vec<String> = COMMIT_STATS
            .iter()
            .map(|stat| format!("{} = {}", stat.field.replace('_', " "), (stat.get)(self)))
            .collect();
        parts.join(", ")
    }
}

/// Registry names of the per-tier commit counters, [`RepairTier::index`]
/// order.
const TIER_NAMES: [&str; 3] = [
    names::REPAIR_TIER_DIRTY,
    names::REPAIR_TIER_REWEIGH,
    names::REPAIR_TIER_FULL,
];

/// The registry handle behind one row of [`COMMIT_STATS`].
#[derive(Debug)]
enum StatHandle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
}

/// The commit path's pre-registered write handles over one [`Registry`].
///
/// Construction registers `commit.count`, `commit.total_secs`, the phase
/// histograms, the tier counters and every row of [`COMMIT_STATS`];
/// recording one commit is one relaxed atomic operation per metric, no
/// locks.
#[derive(Debug)]
pub struct CommitMetrics {
    registry: Arc<Registry>,
    commits: Arc<Counter>,
    total_secs: Arc<Histogram>,
    /// One per row of the phase table.
    phases: Vec<Arc<Histogram>>,
    tiers: [Arc<Counter>; 3],
    /// One per row of [`COMMIT_STATS`].
    stats: Vec<StatHandle>,
}

impl CommitMetrics {
    /// Registers the commit-path metrics on a fresh registry.
    pub fn new() -> Self {
        Self::on(Arc::new(Registry::new()))
    }

    /// Registers the commit-path metrics on `registry`.
    pub fn on(registry: Arc<Registry>) -> Self {
        Self {
            commits: registry.counter(names::COMMIT_COUNT),
            total_secs: registry.histogram_with_unit(names::COMMIT_TOTAL_SECS, 1e-9),
            phases: PHASES
                .iter()
                .map(|p| registry.histogram_with_unit(p.name, 1e-9))
                .collect(),
            tiers: TIER_NAMES.map(|name| registry.counter(name)),
            stats: COMMIT_STATS
                .iter()
                .map(|stat| match stat.kind {
                    StatKind::Gauge => StatHandle::Gauge(registry.gauge(stat.name)),
                    StatKind::Counter => StatHandle::Counter(registry.counter(stat.name)),
                })
                .collect(),
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

    /// Records one commit; `commit.total_secs` is the sum of `phases`.
    pub fn record(&self, stats: &RepairStats, phases: &CommitPhases) {
        self.commits.inc();
        self.total_secs.record_secs(phases.total_secs());
        for (hist, phase) in self.phases.iter().zip(PHASES) {
            hist.record_secs((phase.get)(phases));
        }
        self.tiers[stats.tier.index()].inc();
        for (handle, stat) in self.stats.iter().zip(COMMIT_STATS) {
            let v = (stat.get)(stats);
            match handle {
                StatHandle::Counter(c) => c.add(v),
                StatHandle::Gauge(g) => g.set(v as i64),
            }
        }
    }
}

impl Default for CommitMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl CommitTotals {
    /// The repair-totals summary line of `blast stream --stats`.
    pub fn repair_summary(&self) -> String {
        format!(
            "repair totals: {} dirty nodes, {} patched CSR rows, {} retention flips \
             ({} threshold crossers), tiers = {}/{}/{} dirty/reweigh/full of {}",
            self.dirty_nodes,
            self.patched_rows,
            self.retention_flips,
            self.threshold_crossers,
            self.tier_commits[0],
            self.tier_commits[1],
            self.tier_commits[2],
            self.commits,
        )
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
        m.record(
            &RepairStats {
                tier: RepairTier::Reweigh,
                dirty_nodes: 4,
                scratch_loads: 4,
                patched_rows: 7,
                retention_flips: 2,
                added: 2,
                retained: 11,
                live_edges: 30,
                cold_evictions: 5,
                cold_rehydrations: 3,
                cold_resident_bytes: 4096,
                ..RepairStats::default()
            },
            &phases,
        );
        m.record(
            &RepairStats {
                tier: RepairTier::Dirty,
                dirty_nodes: 1,
                scratch_loads: 1,
                retained: 12,
                live_edges: 31,
                ..RepairStats::default()
            },
            &phases,
        );
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
        assert_eq!(snap.gauge("cold.resident_bytes"), Some(0), "last set wins");
        assert_eq!(snap.gauge("pipeline.retained"), Some(12));
        assert_eq!(snap.gauge("pipeline.live_edges"), Some(31));
        assert_eq!(
            (t.retained, t.live_edges, t.cold_resident_bytes),
            (12, 31, 0)
        );
        assert!(t.repair_summary().contains("tiers = 1/1/0"));
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
