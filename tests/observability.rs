//! End-to-end observability: the `--trace` JSONL journal, the `--metrics`
//! Prometheus page, the registry-vs-outcome accounting contract, and the
//! process-wide deep instruments.

use blast::datagen::{dirty_preset, generate_dirty, DirtyPreset};
use blast::datamodel::{ErInput, SourceId};
use blast::graph::{PruningAlgorithm, WeightingScheme};
use blast::incremental::{CleaningConfig, IncrementalPipeline, IncrementalPruning};
use blast::obs::trace::is_valid_json;
use blast::obs::CommitTotals;
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
        for key in "seq batch_profiles tier added retracted retained blocks dirty_nodes \
                    patched_rows retention_flips threshold_crossers total_secs phases \
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

#[test]
fn deep_instruments_record_into_the_global_registry() {
    // Counters on the process-wide registry are shared across the whole
    // test binary, so the contract is monotone growth, never equality.
    let before = blast::obs::global().snapshot();

    // The work-stealing scheduler instruments itself.
    let sums = blast::datamodel::parallel::parallel_work_steal(
        10_000,
        4,
        256,
        || 0u64,
        |acc, range| {
            *acc += range.len() as u64;
            range.len() as u64
        },
    );
    assert_eq!(sums.iter().sum::<u64>(), 10_000);

    // A streamed pipeline reaches the CSR splice/compaction and treap
    // rebuild instruments.
    let rows = census_rows(0.05);
    let mut pipeline = IncrementalPipeline::dirty(
        WeightingScheme::Cbs,
        IncrementalPruning::Traditional(PruningAlgorithm::Wnp1),
        CleaningConfig::default(),
    );
    let mut patched = 0usize;
    for chunk in rows.chunks(24) {
        for (id, pairs) in chunk {
            pipeline.insert(
                SourceId(0),
                id,
                pairs.iter().map(|(a, v)| (a.as_str(), v.as_str())),
            );
        }
        patched += pipeline.commit().stats.patched_rows;
    }

    let after = blast::obs::global().snapshot();
    assert!(after.counter("scheduler.invocations") > before.counter("scheduler.invocations"));
    assert!(after.counter("scheduler.chunks") > before.counter("scheduler.chunks"));
    if patched > 0 {
        assert!(after.counter("csr.splices") >= before.counter("csr.splices") + patched as u64);
    }
    for name in ["treap.bulk_rebuilds", "csr.splices", "csr.compactions"] {
        assert!(
            after.counter(name) >= before.counter(name),
            "{name} must be monotone"
        );
    }
}
