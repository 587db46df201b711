//! End-to-end CLI workflow: generate a benchmark to CSV, run `blast block`
//! on the files, evaluate the produced pairs — the full adoption path a
//! downstream user takes, driven through the library entry points.

use std::fs;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blast-cli-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[String]) -> String {
    blast_cli::run(args).unwrap_or_else(|e| panic!("cli failed: {e}"))
}

fn s(v: &[&str]) -> Vec<String> {
    v.iter().map(|x| x.to_string()).collect()
}

#[test]
fn generate_block_evaluate_roundtrip() {
    let dir = temp_dir("roundtrip");
    let d = dir.to_str().unwrap();

    // 1. Generate a small ar1-style benchmark.
    let report = run(&s(&[
        "generate",
        "--preset",
        "ar1",
        "--scale",
        "0.05",
        "--out-dir",
        d,
    ]));
    assert!(report.contains("wrote ar1"), "{report}");
    assert!(dir.join("d1.csv").exists());
    assert!(dir.join("gt.csv").exists());

    // 2. Run BLAST on the CSVs.
    let pairs_path = dir.join("pairs.csv");
    let report = run(&s(&[
        "block",
        "--d1",
        &format!("{d}/d1.csv"),
        "--d2",
        &format!("{d}/d2.csv"),
        "--id-column",
        "_id",
        "--gt",
        &format!("{d}/gt.csv"),
        "--out",
        pairs_path.to_str().unwrap(),
    ]));
    assert!(report.contains("PC ="), "{report}");
    assert!(report.contains("pairs written"), "{report}");

    // The inline evaluation should show strong quality on ar1.
    let pc: f64 = report
        .lines()
        .find(|l| l.starts_with("PC ="))
        .and_then(|l| l.split('%').next())
        .and_then(|l| l.trim_start_matches("PC =").trim().parse().ok())
        .expect("parse PC");
    assert!(pc > 90.0, "PC {pc} too low:\n{report}");

    // 3. Evaluate the written pairs file independently.
    let report = run(&s(&[
        "evaluate",
        "--d1",
        &format!("{d}/d1.csv"),
        "--d2",
        &format!("{d}/d2.csv"),
        "--id-column",
        "_id",
        "--pairs",
        pairs_path.to_str().unwrap(),
        "--gt",
        &format!("{d}/gt.csv"),
    ]));
    assert!(report.contains("F1 ="), "{report}");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn schema_command_prints_clusters() {
    let dir = temp_dir("schema");
    let d = dir.to_str().unwrap();
    run(&s(&[
        "generate",
        "--preset",
        "ar1",
        "--scale",
        "0.05",
        "--out-dir",
        d,
    ]));
    let report = run(&s(&[
        "schema",
        "--d1",
        &format!("{d}/d1.csv"),
        "--d2",
        &format!("{d}/d2.csv"),
        "--id-column",
        "_id",
    ]));
    assert!(report.contains("cluster #1"), "{report}");
    assert!(report.contains("s0.title"), "{report}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn dedup_command_runs_dirty_er() {
    let dir = temp_dir("dedup");
    let d = dir.to_str().unwrap();
    run(&s(&[
        "generate",
        "--preset",
        "census",
        "--scale",
        "0.2",
        "--out-dir",
        d,
    ]));
    let report = run(&s(&[
        "dedup",
        "--input",
        &format!("{d}/data.csv"),
        "--id-column",
        "_id",
        "--gt",
        &format!("{d}/gt.csv"),
    ]));
    assert!(report.contains("retained comparisons"), "{report}");
    assert!(report.contains("PC ="), "{report}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stream_command_replays_micro_batches() {
    let dir = temp_dir("stream");
    let d = dir.to_str().unwrap();
    run(&s(&[
        "generate",
        "--preset",
        "census",
        "--scale",
        "0.15",
        "--out-dir",
        d,
    ]));
    // Replay the dataset in small micro-batches; --verify pins the
    // batch-equivalence contract end to end, --gt reports quality.
    let report = run(&s(&[
        "stream",
        "--input",
        &format!("{d}/data.csv"),
        "--id-column",
        "_id",
        "--batch-size",
        "7",
        "--pruning",
        "wnp1",
        "--scheme",
        "cbs",
        "--gt",
        &format!("{d}/gt.csv"),
        "--verify",
        "--stats",
    ]));
    assert!(report.contains("batch    1:"), "{report}");
    assert!(report.contains("verify: incremental == batch"), "{report}");
    assert!(report.contains("PC ="), "{report}");
    // --stats surfaces per-commit RepairStats (including the repair-ladder
    // tier) and the run totals.
    assert!(report.contains("patched CSR rows"), "{report}");
    assert!(report.contains("tier = "), "{report}");
    assert!(report.contains("dirty/reweigh/full"), "{report}");
    // ... and the resident-footprint counters of the memory diet.
    assert!(report.contains("interned tokens"), "{report}");
    assert!(report.contains("B/profile"), "{report}");
    let _ = fs::remove_dir_all(&dir);
}

/// `--memory-budget 0 --spill`: every posting list goes cold and onto disk
/// after every commit, and the replay still verifies against batch.
#[test]
fn stream_under_a_spilled_zero_budget_verifies_and_reports_the_cold_tier() {
    let dir = temp_dir("stream-budget");
    let d = dir.to_str().unwrap();
    run(&s(&[
        "generate",
        "--preset",
        "census",
        "--scale",
        "0.05",
        "--out-dir",
        d,
    ]));
    let report = run(&s(&[
        "stream",
        "--input",
        &format!("{d}/data.csv"),
        "--id-column",
        "_id",
        "--batch-size",
        "16",
        "--pruning",
        "wep",
        "--scheme",
        "ecbs",
        "--memory-budget",
        "0",
        "--spill",
        "--verify",
        "--stats",
    ]));
    assert!(report.contains("verify: incremental == batch"), "{report}");
    let cold = report
        .lines()
        .find_map(|l| l.strip_prefix("cold tier: "))
        .unwrap_or_else(|| panic!("no cold tier line:\n{report}"));
    let count = |unit: &str| -> u64 {
        let before = cold.split(&format!(" {unit}")).next().unwrap();
        before.rsplit(' ').next().unwrap().parse().unwrap()
    };
    assert!(count("evictions") > 0, "{cold}");
    assert!(count("rehydrations") > 0, "{cold}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stream_rejects_spill_without_a_budget() {
    let dir = temp_dir("stream-spill");
    let d = dir.to_str().unwrap();
    run(&s(&[
        "generate",
        "--preset",
        "census",
        "--scale",
        "0.05",
        "--out-dir",
        d,
    ]));
    let err = blast_cli::run(&s(&[
        "stream",
        "--input",
        &format!("{d}/data.csv"),
        "--spill",
    ]))
    .unwrap_err();
    assert!(err.contains("--spill requires --memory-budget"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stream_rejects_unknown_pruning() {
    let dir = temp_dir("stream-bad");
    let d = dir.to_str().unwrap();
    run(&s(&[
        "generate",
        "--preset",
        "census",
        "--scale",
        "0.05",
        "--out-dir",
        d,
    ]));
    let err = blast_cli::run(&s(&[
        "stream",
        "--input",
        &format!("{d}/data.csv"),
        "--pruning",
        "nope",
    ]))
    .unwrap_err();
    assert!(err.contains("--pruning"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bad_preset_is_reported() {
    let dir = temp_dir("bad");
    let err = blast_cli::run(&s(&[
        "generate",
        "--preset",
        "nope",
        "--out-dir",
        dir.to_str().unwrap(),
    ]))
    .unwrap_err();
    assert!(err.contains("unknown preset"));
    let _ = fs::remove_dir_all(&dir);
}
