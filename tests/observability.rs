//! End-to-end observability: the `--trace` JSONL journal, the `--metrics`
//! Prometheus page, the registry-vs-outcome accounting contract, and the
//! commit table behind all three (complete, and renaming nothing).

use blast::datagen::{dirty_preset, generate_dirty, DirtyPreset};
use blast::datamodel::{ErInput, SourceId};
use blast::graph::{PruningAlgorithm, WeightingScheme};
use blast::incremental::{CleaningConfig, IncrementalPipeline, IncrementalPruning};
use blast::obs::trace::is_valid_json;
use blast::obs::{CommitTotals, StatKind, COMMIT_STATS};
use std::fs;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blast-obs-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|x| x.to_string()).collect();
    blast_cli::run(&args).unwrap_or_else(|e| panic!("cli failed: {e}"))
}

/// Dirty census rows in the `(external_id, [(attr, value)])` shape the
/// incremental pipeline ingests.
fn census_rows(scale: f64) -> Vec<(String, Vec<(String, String)>)> {
    let spec = dirty_preset(DirtyPreset::Census).scaled(scale);
    let (input, _) = generate_dirty(&spec);
    let ErInput::Dirty(d) = &input else {
        unreachable!()
    };
    d.profiles()
        .iter()
        .map(|p| {
            (
                p.external_id.to_string(),
                p.values
                    .iter()
                    .map(|(a, v)| (d.attribute_name(*a).to_string(), v.to_string()))
                    .collect(),
            )
        })
        .collect()
}

#[test]
fn stream_trace_emits_one_valid_event_per_commit() {
    let dir = temp_dir("trace");
    let d = dir.to_str().unwrap();
    run(&[
        "generate",
        "--preset",
        "census",
        "--scale",
        "0.1",
        "--out-dir",
        d,
    ]);
    let trace_path = dir.join("trace.jsonl");
    let prom_path = dir.join("metrics.prom");
    let report = run(&[
        "stream",
        "--input",
        &format!("{d}/data.csv"),
        "--id-column",
        "_id",
        "--batch-size",
        "16",
        "--trace",
        trace_path.to_str().unwrap(),
        "--metrics",
        prom_path.to_str().unwrap(),
    ]);
    let commits = report.lines().filter(|l| l.starts_with("batch ")).count();
    assert!(commits > 1, "expected several commits:\n{report}");

    // One schema-valid JSONL event per commit, in sequence order.
    let journal = fs::read_to_string(&trace_path).unwrap();
    let events: Vec<&str> = journal.lines().collect();
    assert_eq!(events.len(), commits, "one event per commit");
    for (i, line) in events.iter().enumerate() {
        assert!(is_valid_json(line), "event {i} is not valid JSON: {line}");
        assert!(
            line.contains(&format!("\"seq\": {}", i + 1)),
            "seq order: {line}"
        );
        // Every key the journal carried before the commit table existed,
        // and the ones the table added since: the table may add keys, never
        // rename one, and drops one only with the state it described.
        for key in "seq batch_profiles tier added retracted retained blocks dirty_nodes \
                    artefact_nodes scratch_loads patched_rows retention_flips threshold_crossers \
                    total_secs phases \
                    live_edges cached_accumulators interned_tokens resident_bytes \
                    cold_evictions cold_rehydrations cold_resident_bytes spilled_bytes"
            .split(' ')
        {
            assert!(
                line.contains(&format!("\"{key}\": ")),
                "event {i} missing {key}: {line}"
            );
        }
        assert!(
            ["dirty", "reweigh", "full"]
                .iter()
                .any(|t| line.contains(&format!("\"tier\": \"{t}\""))),
            "event {i} names an unknown repair tier: {line}"
        );
        // The nested phase object is flat (`{"k": secs, …}`): exactly the
        // six phases, no more.
        let phases = line.split_once("\"phases\": {").expect("phases object").1;
        let phases = phases.split_once('}').expect("phases object ends").0;
        let phase_keys: Vec<&str> = phases
            .split(", ")
            .map(|kv| kv.split_once(':').expect("key: value").0)
            .collect();
        assert_eq!(
            phase_keys,
            [
                "\"index_maintenance_secs\"",
                "\"cleaning_secs\"",
                "\"snapshot_patch_secs\"",
                "\"graph_repair_secs\"",
                "\"reweigh_secs\"",
                "\"decision_secs\"",
            ],
            "event {i}: {line}"
        );
    }

    // The Prometheus page carries the commit series and parses line-wise.
    let prom = fs::read_to_string(&prom_path).unwrap();
    assert!(prom.contains("# TYPE blast_commit_count counter"), "{prom}");
    assert!(
        prom.contains("# TYPE blast_commit_total_secs histogram"),
        "{prom}"
    );
    let count_line = prom
        .lines()
        .find(|l| l.starts_with("blast_commit_count "))
        .expect("commit count sample");
    assert_eq!(count_line, format!("blast_commit_count {commits}"));
    for line in prom.lines().filter(|l| !l.starts_with('#')) {
        let (_, value) = line.rsplit_once(' ').expect("sample line");
        assert!(value.parse::<f64>().is_ok(), "unparseable value: {line}");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn registry_totals_match_hand_accumulated_outcomes() {
    let rows = census_rows(0.05);
    let mut pipeline = IncrementalPipeline::dirty(
        WeightingScheme::Cbs,
        IncrementalPruning::Traditional(PruningAlgorithm::Wnp1),
        CleaningConfig::default(),
    );

    let mut commits = 0u64;
    let mut dirty_nodes = 0u64;
    let mut patched_rows = 0u64;
    let mut retention_flips = 0u64;
    let mut threshold_crossers = 0u64;
    let mut pairs_added = 0u64;
    let mut pairs_retracted = 0u64;
    let mut tier_commits = [0u64; 3];
    for chunk in rows.chunks(24) {
        for (id, pairs) in chunk {
            pipeline.insert(
                SourceId(0),
                id,
                pairs.iter().map(|(a, v)| (a.as_str(), v.as_str())),
            );
        }
        let out = pipeline.commit();
        commits += 1;
        dirty_nodes += out.stats.dirty_nodes as u64;
        patched_rows += out.stats.patched_rows as u64;
        retention_flips += out.stats.retention_flips as u64;
        threshold_crossers += out.stats.threshold_crossers as u64;
        pairs_added += out.delta.added.len() as u64;
        pairs_retracted += out.delta.retracted.len() as u64;
        tier_commits[out.stats.tier.index().min(2)] += 1;
    }

    let totals = CommitTotals::from_snapshot(&pipeline.metrics().snapshot());
    assert_eq!(totals.commits, commits);
    assert_eq!(totals.dirty_nodes, dirty_nodes);
    assert_eq!(totals.patched_rows, patched_rows);
    assert_eq!(totals.retention_flips, retention_flips);
    assert_eq!(totals.threshold_crossers, threshold_crossers);
    assert_eq!(totals.pairs_added, pairs_added);
    assert_eq!(totals.pairs_retracted, pairs_retracted);
    assert_eq!(totals.tier_commits, tier_commits);
    assert_eq!(totals.tier_commits.iter().sum::<u64>(), commits);
    // The phase histograms saw every commit and accrued real time.
    let snap = pipeline.metrics().snapshot();
    let decision = snap.histogram("commit.phase.decision_secs").unwrap();
    assert_eq!(decision.count, commits);
    assert!(totals.phases.total_secs() > 0.0);
}

/// Streams census rows through a pipeline under a zero memory budget —
/// inserts in micro-batches, then single deletes — and hands every
/// commit's outcome to `each`. Under ECBS the stream reweighs; under JS it
/// stays on the dirty tier, where a drifting mean flips WEP's clean edges.
/// WNP re-derives per-node thresholds from the edge cache. Either way rows
/// are evicted and rehydrated every commit.
fn stream_census(
    scheme: WeightingScheme,
    pruning: PruningAlgorithm,
    mut each: impl FnMut(&blast::incremental::CommitOutcome),
) -> IncrementalPipeline {
    let rows = census_rows(0.25);
    let mut pipeline = IncrementalPipeline::dirty(
        scheme,
        IncrementalPruning::Traditional(pruning),
        CleaningConfig::default(),
    )
    .with_residency(blast::incremental::ResidencyPolicy {
        budget_bytes: 0,
        idle_commits: 0,
        spill: false,
    });
    let mut ids = Vec::new();
    for chunk in rows.chunks(24) {
        for (id, pairs) in chunk {
            ids.push(pipeline.insert(
                SourceId(0),
                id,
                pairs.iter().map(|(a, v)| (a.as_str(), v.as_str())),
            ));
        }
        each(&pipeline.commit());
    }
    for &id in ids.iter().step_by(7).take(16) {
        pipeline.delete(id);
        each(&pipeline.commit());
    }
    pipeline
}

/// The value of `"key": <unsigned>` in a flat journal event.
fn journal_value(event: &str, key: &str) -> Option<u64> {
    let rest = event.split_once(&format!("\"{key}\": "))?.1;
    rest.split([',', '}']).next()?.parse().ok()
}

#[test]
fn every_declared_statistic_reaches_the_page_the_journal_and_the_totals() {
    let mut moved = vec![false; COMMIT_STATS.len()];
    for (scheme, pruning) in [
        (WeightingScheme::Ecbs, PruningAlgorithm::Wep),
        (WeightingScheme::Js, PruningAlgorithm::Wep),
        (WeightingScheme::Ecbs, PruningAlgorithm::Wnp1),
    ] {
        let mut sums = vec![0u64; COMMIT_STATS.len()];
        let mut last = vec![0u64; COMMIT_STATS.len()];
        let mut journal_sums = vec![0u64; COMMIT_STATS.len()];
        let pipeline = stream_census(scheme, pruning, |out| {
            let event = out.stats.journal(Default::default()).finish();
            assert!(is_valid_json(&event), "{event}");
            for (i, stat) in COMMIT_STATS.iter().enumerate() {
                last[i] = (stat.get)(&out.stats);
                sums[i] += last[i];
                journal_sums[i] += journal_value(&event, stat.field)
                    .unwrap_or_else(|| panic!("journal event lacks {}: {event}", stat.field));
            }
        });
        assert_eq!(
            journal_sums, sums,
            "the journal carries each commit's value"
        );

        let snapshot = pipeline.metrics().snapshot();
        let page = snapshot.encode_text();
        let totals = CommitTotals::from_snapshot(&snapshot);
        for (i, stat) in COMMIT_STATS.iter().enumerate() {
            let series = format!("blast_{}", stat.name.replace('.', "_"));
            let (kind, expected) = match stat.kind {
                StatKind::Gauge => ("gauge", last[i]),
                StatKind::Counter => ("counter", sums[i]),
            };
            assert!(
                page.contains(&format!("# TYPE {series} {kind}\n{series} ")),
                "{series} is not a {kind} series:\n{page}"
            );
            assert_eq!(
                (stat.total)(&totals),
                expected,
                "{} round-trips",
                stat.field
            );
            moved[i] |= sums[i] > 0;
        }
    }
    // The three streams exercise the table rather than just walk it: every
    // row was non-zero on some commit.
    let idle: Vec<&str> = COMMIT_STATS
        .iter()
        .zip(&moved)
        .filter(|(_, moved)| !**moved)
        .map(|(stat, _)| stat.field)
        .collect();
    assert_eq!(idle, [""; 0], "rows that never moved");
}

/// The registry's series as they stood before the commit table existed,
/// and the ones the table added since, spelled out: the table may add to
/// these, never rename one, and drops one only with the state it described. (The journal's keys are pinned
/// the same way by the trace test above.)
#[test]
fn series_names_are_the_ones_published_before_the_table() {
    const SERIES: &str = "cleaner.dirty_keys cleaner.removed_members cleaner.touched_profiles \
        cold.evictions cold.rehydrations cold.resident_bytes commit.count commit.pairs_added \
        commit.pairs_retracted commit.phase.cleaning_secs commit.phase.decision_secs \
        commit.phase.index_secs commit.phase.repair_secs commit.phase.reweigh_secs \
        commit.phase.snapshot_secs commit.total_secs decision.retention_flips \
        decision.threshold_crossers interner.symbols pipeline.blocks \
        pipeline.cached_accumulators pipeline.live_edges pipeline.retained repair.artefact_nodes \
        repair.dirty_nodes \
        repair.edges_rekeyed repair.edges_reweighed repair.edges_swept repair.scratch_loads \
        repair.tier.dirty repair.tier.full repair.tier.reweigh serve.chunks_copied \
        serve.publish_secs serve.queries serve.read_latency_secs serve.rows_copied \
        serve.snapshot_swaps serve.stale_epochs snapshot.patched_rows snapshot.patched_slots";
    // A serving pipeline's registry is the widest one: commit + serve.
    let commit = blast::obs::CommitMetrics::new();
    let _serve = blast_serve::ServeMetrics::on(std::sync::Arc::clone(commit.registry()));
    let snapshot = commit.snapshot();
    let registered: Vec<&str> = snapshot.samples().iter().map(|s| s.name.as_str()).collect();
    assert_eq!(registered, SERIES.split_whitespace().collect::<Vec<_>>());
}
