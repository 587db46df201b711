//! The `blast` command-line tool: run the BLAST pipeline on CSV data,
//! inspect the loose schema information, evaluate pair files, generate
//! the synthetic benchmarks, serve the candidate graph over HTTP, and
//! reproduce the paper's evaluation tables.
//!
//! ```text
//! blast block    --d1 a.csv --d2 b.csv --out pairs.csv [--gt gt.csv] [options]
//! blast dedup    --input data.csv --out pairs.csv [--gt gt.csv] [options]
//! blast stream   --input data.csv --batch-size 64 [--pruning wnp1] [--verify] [--stats]
//!                [--threads 4] [--trace out.jsonl] [--metrics out.prom]
//! blast serve    --preset census --scale 0.05 [--port 0] [--threads 4] [--linger 5]
//! blast schema   --d1 a.csv --d2 b.csv
//! blast evaluate --d1 a.csv --d2 b.csv --pairs pairs.csv --gt gt.csv
//! blast generate --preset ar1 --scale 0.1 --out-dir data/
//! blast paper    [--scale 0.25]
//! ```
//!
//! The library half exposes the commands as functions returning their
//! textual report, so integration tests drive them without spawning
//! processes.
//!
//! Each sub-command declares its option vocabulary in the `COMMANDS` table;
//! unknown or misused options fail with that sub-command's usage block
//! rather than the global one.

pub mod args;
pub mod commands;
pub mod paper;

use args::Args;

/// One sub-command: its option vocabulary (for validation) and its usage
/// block (printed on any argument error scoped to this command).
struct Command {
    name: &'static str,
    /// `--key value` options this command accepts.
    options: &'static [&'static str],
    /// Bare `--flag`s this command accepts.
    flags: &'static [&'static str],
    usage: &'static str,
    run: fn(&Args) -> Result<String, String>,
}

const BLOCK_USAGE: &str = "\
  blast block    --d1 A.csv --d2 B.csv [--out pairs.csv] [--gt gt.csv]
                 [--id-column NAME] [--c 2.0] [--d 2.0] [--no-entropy]
                 [--algorithm lmi|ac] [--lsh-threshold 0.5] [--no-glue]";

const DEDUP_USAGE: &str = "\
  blast dedup    --input DATA.csv [--out pairs.csv] [--gt gt.csv] [options]";

const STREAM_USAGE: &str = "\
  blast stream   --input DATA.csv [--batch-size 64] [--gt gt.csv]
                 [--pruning blast|wep|cep|wnp1|wnp2|cnp1|cnp2]
                 [--scheme arcs|cbs|ecbs|js|ejs] [--no-cleaning]
                 [--verify]  (check the final candidate set against a
                 from-scratch batch run — the equivalence contract)
                 [--threads N]  (worker threads for the parallel phases;
                 defaults to auto-scaling, or the BLAST_THREADS env var)
                 [--stats]  (per-commit RepairStats: the tier, every
                 declared counter and level, phase timings)
                 [--trace OUT.jsonl]  (structured trace journal: one JSON
                 event per commit — tier, phase secs, every declared
                 counter and level, footprint)
                 [--metrics OUT.prom]  (Prometheus text exposition of the
                 pipeline's metrics registry after the run)
                 [--memory-budget BYTES]  (cold-tier residency: block-index
                 posting lists idle for 2 commits demote to delta-encoded
                 cold frames until the hot posting lists fit the budget;
                 the graph snapshot and edge cache stay hot; k/m/g
                 suffixes; the output is bit-identical at any budget)
                 [--spill]  (hold cold frames in an unlinked temp file
                 instead of an in-memory arena; needs --memory-budget)";

const SERVE_USAGE: &str = "\
  blast serve    [--preset census] [--scale 0.05] [--batch-size 64]
                 [--addr 127.0.0.1] [--port 0]  (0 = ephemeral; the bound
                 address is printed as 'serving on http://...' on stdout)
                 [--threads N]  (HTTP worker-pool size, at most 64, and
                 pipeline worker threads; defaults to auto-scaling, or the
                 BLAST_THREADS env var)
                 [--pruning ...] [--scheme ...] [--no-cleaning]
                 [--linger SECS]  (keep serving after the ingest drains)
                 [--memory-budget BYTES] [--spill]  (cold-tier residency
                 of the writer's block-index posting lists; readers never
                 see a cold list — a published view carries its own
                 weights and reads nothing from the engine; see blast
                 stream)
                 [--verify]  (gate on published == incremental == batch)
                 Streams the preset through the incremental pipeline on
                 the writer thread while serving /candidates, /topk,
                 /stats and /metrics from the snapshot each commit
                 publishes (one shared-lock Arc clone per request).";

const SCHEMA_USAGE: &str = "\
  blast schema   --d1 A.csv --d2 B.csv [--algorithm lmi|ac] [--lsh-threshold T]";

const EVALUATE_USAGE: &str = "\
  blast evaluate --d1 A.csv --d2 B.csv --pairs pairs.csv --gt gt.csv";

const GENERATE_USAGE: &str = "\
  blast generate --preset ar1|ar2|prd|mov|dbp|census|cora|cddb|
                          census100k|census1m
                 [--scale 1.0] --out-dir DIR";

const PAPER_USAGE: &str = "\
  blast paper    [--scale 0.25]  (the paper's evaluation on the synthetic
                 presets scaled by SCALE: Tables 2-7, Figures 5 and 8-10,
                 the ablations and the matcher counts of section 4.2.2;
                 no wall-clock column, so the report depends on SCALE only)";

/// The sub-command table (dispatch, validation, usage).
const COMMANDS: &[Command] = &[
    Command {
        name: "block",
        options: &[
            "d1",
            "d2",
            "out",
            "gt",
            "id-column",
            "c",
            "d",
            "algorithm",
            "lsh-threshold",
            "alpha",
        ],
        flags: &["no-entropy", "no-glue"],
        usage: BLOCK_USAGE,
        run: commands::block,
    },
    Command {
        name: "dedup",
        options: &[
            "input",
            "out",
            "gt",
            "id-column",
            "c",
            "d",
            "algorithm",
            "lsh-threshold",
            "alpha",
        ],
        flags: &["no-entropy", "no-glue"],
        usage: DEDUP_USAGE,
        run: commands::dedup,
    },
    Command {
        name: "stream",
        options: &[
            "input",
            "batch-size",
            "gt",
            "id-column",
            "pruning",
            "scheme",
            "threads",
            "trace",
            "metrics",
            "memory-budget",
        ],
        flags: &["verify", "stats", "no-cleaning", "spill"],
        usage: STREAM_USAGE,
        run: commands::stream,
    },
    Command {
        name: "serve",
        options: &[
            "preset",
            "scale",
            "batch-size",
            "addr",
            "port",
            "linger",
            "threads",
            "pruning",
            "scheme",
            "memory-budget",
        ],
        flags: &["verify", "no-cleaning", "spill"],
        usage: SERVE_USAGE,
        run: commands::serve,
    },
    Command {
        name: "schema",
        options: &[
            "d1",
            "d2",
            "id-column",
            "algorithm",
            "lsh-threshold",
            "alpha",
        ],
        flags: &["no-glue"],
        usage: SCHEMA_USAGE,
        run: commands::schema,
    },
    Command {
        name: "evaluate",
        options: &["d1", "d2", "pairs", "gt", "id-column"],
        flags: &[],
        usage: EVALUATE_USAGE,
        run: commands::evaluate,
    },
    Command {
        name: "generate",
        options: &["preset", "scale", "out-dir"],
        flags: &[],
        usage: GENERATE_USAGE,
        run: commands::generate,
    },
    Command {
        name: "paper",
        options: &["scale"],
        flags: &[],
        usage: PAPER_USAGE,
        run: paper::paper,
    },
];

/// Entry point shared by `main` and the tests: parses `argv` (without the
/// program name) and runs the sub-command, returning the report to print.
/// Argument errors carry the offending sub-command's usage block.
pub fn run(argv: &[String]) -> Result<String, String> {
    let (name, rest) = argv
        .split_first()
        .ok_or_else(|| format!("no command given\n\n{}", usage()))?;
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        return Ok(usage());
    }
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name.as_str())
        .ok_or_else(|| format!("unknown command {name:?}\n\n{}", usage()))?;
    let with_usage = |e: String| format!("{e}\n\nUSAGE:\n{}", command.usage);
    let args = Args::parse(rest).map_err(with_usage)?;
    args.validate(command.options, command.flags)
        .map_err(with_usage)?;
    (command.run)(&args)
}

/// The global usage text (assembled from the per-command blocks).
pub fn usage() -> String {
    let mut out = String::from(
        "blast — loosely schema-aware (meta-)blocking for entity resolution\n\nUSAGE:\n",
    );
    for (i, c) in COMMANDS.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(c.usage);
    }
    out.push_str(
        "\n\nInput CSVs are headered: one row per profile, one column per attribute,
the first column (or --id-column) is the record id. Ground truth is a
two-column headerless CSV of record ids.",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn no_command_is_an_error_with_usage() {
        let err = run(&[]).unwrap_err();
        assert!(err.contains("USAGE"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        let err = run(&s(&["frobnicate"])).unwrap_err();
        assert!(err.contains("unknown command"));
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&s(&["help"])).unwrap();
        assert!(out.contains("blast block"));
        assert!(out.contains("blast serve"));
        assert!(out.contains("blast paper"));
        assert!(out.contains("BLAST_THREADS"));
    }

    #[test]
    fn unknown_flag_prints_the_subcommand_usage() {
        let err = run(&s(&["stream", "--warmup"])).unwrap_err();
        assert!(err.contains("unknown flag --warmup"), "{err}");
        assert!(err.contains("blast stream"), "scoped usage: {err}");
        assert!(
            !err.contains("blast block"),
            "global usage not dumped: {err}"
        );
    }

    #[test]
    fn value_option_without_a_value_is_hinted() {
        let err = run(&s(&["stream", "--input"])).unwrap_err();
        assert!(err.contains("--input expects a value"), "{err}");
        assert!(err.contains("blast stream"), "{err}");
    }

    #[test]
    fn usage_documents_the_threads_override() {
        for block in [STREAM_USAGE, SERVE_USAGE] {
            assert!(block.contains("BLAST_THREADS"), "{block}");
            assert!(block.contains("--verify"), "{block}");
            assert!(block.contains("--memory-budget"), "{block}");
            assert!(block.contains("--spill"), "{block}");
        }
    }

    #[test]
    fn paper_takes_only_a_positive_scale() {
        for bad in ["0", "-1", "nan", "inf"] {
            let err = run(&s(&["paper", "--scale", bad])).unwrap_err();
            assert!(err.contains("--scale must be a positive number"), "{err}");
        }
        let err = run(&s(&["paper", "--preset", "ar1"])).unwrap_err();
        assert!(err.contains("unknown option --preset"), "{err}");
        assert!(err.contains("blast paper"), "scoped usage: {err}");
    }

    #[test]
    fn generate_usage_lists_every_accepted_preset() {
        use blast_datagen::{CleanCleanPreset, DirtyPreset};
        let clean = CleanCleanPreset::ALL.iter().map(|p| p.label());
        let dirty = DirtyPreset::ALL
            .iter()
            .chain(DirtyPreset::SCALED.iter())
            .map(|p| p.label());
        // Whole alternatives of the `a|b|…` list, so `census` does not pass
        // on the strength of `census100k`.
        let listed: Vec<&str> = GENERATE_USAGE
            .split(|c: char| c == '|' || c.is_whitespace())
            .collect();
        for label in clean.chain(dirty) {
            assert!(
                listed.contains(&label),
                "{label} missing:\n{GENERATE_USAGE}"
            );
        }
    }
}
