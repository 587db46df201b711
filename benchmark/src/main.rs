//! The repo benchmark: one workload per process.
//!
//! ```text
//! blast-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 [--smoke] [--out <dir>] [--threads <n>]
//! ```
//!
//! Inputs are made from `--seed` (but for each run's first, the reference
//! input every seed shares); the workload repeats its fixed unit of work
//! until `--seconds` of measured time have passed; every output is checked.
//! The last line of stdout is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1` (which
//! also writes `<out>/trace_<workload>.jsonl`). A failed correctness gate
//! exits non-zero and prints no metrics. See README.md.

mod batch;
mod serve;
mod stream;
mod support;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use support::percentile;
use trace::Tracer;

pub const WORKLOADS: [&str; 5] = [
    "batch_dbp",
    "stream_insert",
    "stream_churn",
    "stream_budget",
    "serve_mixed",
];

/// `/BENCHMARK.json`, the one place that lists the per-layer metrics: a
/// traced run prints exactly the names it declares, with the units it gives.
const SPEC: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in `BENCHMARK.json`'s `per_layer` array, in
/// its order. The objects there are flat and their strings are names and
/// units (letters, digits, `_ . - / %`), so no escapes need handling.
fn declared_per_layer() -> Vec<(&'static str, &'static str)> {
    fn string_after<'a>(object: &'a str, key: &str) -> &'a str {
        let rest = object
            .split_once(key)
            .unwrap_or_else(|| panic!("BENCHMARK.json: a per_layer metric has no {key}"))
            .1;
        rest.split('"').nth(1).expect("a string value")
    }
    let list = SPEC
        .split_once("\"per_layer\"")
        .and_then(|(_, rest)| rest.split_once('['))
        .and_then(|(_, rest)| rest.split_once(']'))
        .expect("BENCHMARK.json has a per_layer array")
        .0;
    list.split('}')
        .filter(|object| object.contains('{'))
        .map(|object| {
            (
                string_after(object, "\"name\""),
                string_after(object, "\"unit\""),
            )
        })
        .collect()
}

/// Inputs every full-size run has, however slow the host: a run's checksum
/// is chained over its first `MIN_ROUNDS` inputs, so it is exact for a seed.
pub const MIN_ROUNDS: usize = 3;

/// What the reference input is generated from, whatever `--seed` says.
const REFERENCE_SEED: u64 = 0xB1A5_7000;

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out_dir: PathBuf,
    pub threads: Option<usize>,
}

impl Options {
    /// This process's own directory for generated inputs and spill files.
    pub fn scratch_dir(&self) -> PathBuf {
        self.out_dir.join(format!("tmp-{}", std::process::id()))
    }

    /// What input `n` of this run (a round's, or one batch dataset) is
    /// generated from. Input 0 is the **reference input**, the same for every
    /// `--seed`: the quality figures are its, so they are one exact number
    /// per build and not a draw that varies ± 5 % with the seed. Every other
    /// input has its own sub-seed of `--seed`, so the timings are not tuned
    /// to one input.
    pub fn input_seed(&self, n: usize) -> u64 {
        match n {
            0 => REFERENCE_SEED,
            _ => support::mix_seed(self.seed, n as u64),
        }
    }

    /// Whether to start another round (or batch run) after `done` of them
    /// measured `measured_s` seconds: until `--seconds` are full, and never
    /// fewer than [`MIN_ROUNDS`]. The smoke size does two whatever
    /// `--seconds` says: its rounds are all set-up.
    pub fn more_rounds(&self, done: usize, measured_s: f64) -> bool {
        if self.smoke {
            done < 2
        } else {
            done < MIN_ROUNDS || measured_s < self.seconds
        }
    }
}

/// What one input of a run (a round's, or one batch dataset) measured.
#[derive(Default)]
pub struct InputSamples {
    pub setup_s: f64,
    /// One latency per operation (a batch run, or a micro-batch + commit).
    pub op_ms: Vec<f64>,
    /// Profiles (batch) or mutations (streaming) taken in during `window_s`.
    pub items: u64,
    /// Seconds the ingest of `items` took.
    pub window_s: f64,
}

/// What a workload hands back: the samples of each input for the end-to-end
/// metrics and the per-layer values it measured.
///
/// Every operation timing is taken per input and the run reports the
/// **best over its inputs**. The host has slow spells, seconds to minutes
/// long, that only ever add time (one and the same round, repeated, read
/// 12.1–16.3 ms `op_p50_ms` within five minutes), so the quietest round is
/// the closest to what the program costs.
#[derive(Default)]
pub struct Report {
    /// Operations attempted. One that fails is a failed gate: the workload
    /// returns an error and the process prints no result.
    pub attempted: u64,
    pub inputs: Vec<InputSamples>,
    pub pair_completeness: f64,
    pub pair_quality: f64,
    pub checksum: u64,
    layers: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// Quality and checksum of a run from its inputs' `(pair completeness,
    /// pair quality, checksum)`: the reference input's quality, and the
    /// checksums of the first [`MIN_ROUNDS`] inputs chained.
    pub fn set_result(&mut self, per_input: impl Iterator<Item = (f64, f64, u64)>) {
        let fixed: Vec<_> = per_input.take(MIN_ROUNDS).collect();
        (self.pair_completeness, self.pair_quality, _) = fixed[0];
        self.checksum = fixed.iter().fold(0, |h, r| support::fold_checksum(h, r.2));
    }

    /// Seconds of measured ingest so far.
    pub fn measured_s(&self) -> f64 {
        self.inputs.iter().map(|i| i.window_s).sum()
    }

    fn best(&self, f: impl Fn(&InputSamples) -> f64, pick: fn(f64, f64) -> f64) -> f64 {
        self.inputs
            .iter()
            .filter(|i| !i.op_ms.is_empty())
            .map(f)
            .reduce(pick)
            .expect("a run measures at least one input")
    }

    /// The median over the run's set-ups, as the driver's contract asks.
    pub fn setup_s(&self) -> f64 {
        support::median(&self.inputs.iter().map(|i| i.setup_s).collect::<Vec<_>>())
    }

    pub fn op_p50_ms(&self) -> f64 {
        self.best(|i| percentile(&i.op_ms, 0.5), f64::min)
    }

    pub fn op_p95_ms(&self) -> f64 {
        self.best(|i| percentile(&i.op_ms, 0.95), f64::min)
    }

    pub fn profiles_per_s(&self) -> f64 {
        self.best(|i| i.items as f64 / i.window_s, f64::max)
    }
}

/// Any `--seed` names a run: a whole number is itself (a negative one
/// wraps), anything else (a number beyond 64 bits, a label) is hashed, so no
/// seed a caller picks can fail the run before it starts.
fn parse_seed(value: &str) -> u64 {
    value
        .parse::<u64>()
        .or_else(|_| value.parse::<i64>().map(|n| n as u64))
        .unwrap_or_else(|_| {
            value
                .bytes()
                .fold(0xcbf2_9ce4_8422_2325, |h, b| support::fold_checksum(h, u64::from(b)))
        })
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
        threads: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = parse_seed(&value),
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad("a number"))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => opts.out_dir = PathBuf::from(value),
            "--threads" => opts.threads = Some(value.parse().map_err(|_| bad("a whole number"))?),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            opts.workload
        ));
    }
    if !(0.0..=600.0).contains(&opts.seconds) {
        return Err(format!(
            "--seconds must be in 0..=600, got {}",
            opts.seconds
        ));
    }
    Ok(opts)
}

/// `major * 10000 + minor * 100 + patch` of the compiler that built this.
fn rustc_number() -> f64 {
    let version = env!("BENCH_RUSTC_VERSION");
    let mut parts = version
        .split_whitespace()
        .nth(1)
        .unwrap_or("")
        .split(|c: char| !c.is_ascii_digit())
        .map(|p| p.parse::<f64>().unwrap_or(0.0));
    let mut next = || parts.next().unwrap_or(0.0);
    next() * 10_000.0 + next() * 100.0 + next()
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    assert!(value.is_finite(), "{name} is not a finite number");
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn run() -> Result<(), String> {
    let opts = parse_args()?;

    // Worker threads: the product's default, which sizes each parallel step
    // by its input (a 16-insert commit runs on one thread). `BLAST_THREADS`
    // overrides that sizing unconditionally, so it is set only where a
    // workload needs it — `serve_mixed` pins 1, because with 2 the writer,
    // the server and the client oversubscribe a 2-core host and the read
    // tail measures the scheduler; the single-thread probe passes
    // `--threads 1` — and on a host with more than two cores, capped at 2 so
    // it runs what the 2-core reference host runs. The product reads the
    // variable once, so this happens before anything runs.
    let nproc = support::nproc();
    let pinned = opts
        .threads
        .or((opts.workload == "serve_mixed").then_some(1))
        .or((nproc > 2).then_some(2));
    match pinned {
        Some(n) => std::env::set_var("BLAST_THREADS", n.to_string()),
        None => std::env::remove_var("BLAST_THREADS"),
    }
    let threads = pinned.unwrap_or(nproc);
    // Spill files go to the OS temp directory; keep that inside the checkout.
    let scratch = opts.scratch_dir();
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    std::env::set_var("TMPDIR", &scratch);

    let mut tracer = Tracer::new(opts.trace);
    let result = match opts.workload.as_str() {
        "batch_dbp" => batch::run(&opts, &mut tracer),
        "serve_mixed" => serve::run(&opts, &mut tracer),
        _ => stream::run(&opts, &mut tracer),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let mut report = result?;
    let (setup_s, op_p50_ms, op_p95_ms, profiles_per_s) = (
        report.setup_s(),
        report.op_p50_ms(),
        report.op_p95_ms(),
        report.profiles_per_s(),
    );
    println!("info workload {}", opts.workload);
    println!("info seed {}", opts.seed);
    println!("info blast_threads {threads}");
    println!("info nproc {nproc}");
    println!("info rustc {}", env!("BENCH_RUSTC_VERSION"));
    println!("info checksum {:016x}", report.checksum);
    println!("info inputs {}", report.inputs.len());
    println!(
        "info op_samples {}",
        report.inputs.iter().map(|i| i.op_ms.len()).sum::<usize>()
    );
    // The smoke size leaves the last batch dataset without a timed run.
    for (k, i) in report.inputs.iter().enumerate() {
        if i.op_ms.is_empty() {
            println!("info input {k} setup_s {:.4} ops 0", i.setup_s);
            continue;
        }
        println!(
            "info input {k} setup_s {:.4} ops {} op_p50_ms {:.4} op_p95_ms {:.4} profiles_per_s {:.2}",
            i.setup_s,
            i.op_ms.len(),
            percentile(&i.op_ms, 0.5),
            percentile(&i.op_ms, 0.95),
            i.items as f64 / i.window_s
        );
    }

    // The read side is not traced-only: the client times every request
    // anyway, so every run says what it saw (suite.py keeps it, aa.sh shows
    // how far it moves between runs).
    for (name, value) in &report.layers {
        if name.starts_with("serve.read_") {
            println!("info {name} {value}");
        }
    }

    let metrics: Vec<String> = if opts.trace {
        report.layer("host.nproc", nproc as f64);
        report.layer("host.blast_threads", threads as f64);
        report.layer("host.rustc", rustc_number());
        report.layer("trace.setup_s", setup_s);
        report.layer("trace.op_p50_ms", op_p50_ms);
        report.layer("trace.op_p95_ms", op_p95_ms);
        report.layer("trace.profiles_per_s", profiles_per_s);
        let summary = tracer.summary();
        report.layer(
            "trace.spans",
            summary.values().map(|s| s.count).sum::<u64>() as f64,
        );
        for (name, s) in &summary {
            println!(
                "info span {name} count {} total_ms {:.3} self_ms {:.3}",
                s.count,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6
            );
        }
        let path = opts.out_dir.join(format!("trace_{}.jsonl", opts.workload));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        let declared = declared_per_layer();
        if let Some(name) = report
            .layers
            .keys()
            .find(|name| !declared.iter().any(|(n, _)| n == *name))
        {
            return Err(format!(
                "{name} is not a per-layer metric of BENCHMARK.json"
            ));
        }
        // All of them: a layer the workload bypasses reads 0, which is the
        // prediction for it.
        declared
            .iter()
            .map(|(name, unit)| metric(name, report.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        vec![
            metric("setup_s", setup_s, "s"),
            metric("op_p50_ms", op_p50_ms, "ms"),
            metric("op_p95_ms", op_p95_ms, "ms"),
            metric("profiles_per_s", profiles_per_s, "1/s"),
            metric("pair_completeness", report.pair_completeness, "ratio"),
            metric("pair_quality", report.pair_quality, "ratio"),
            metric("peak_rss_mb", support::peak_rss_mb(), "MB"),
        ]
    };
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
        report.attempted,
        metrics.join(", ")
    );
    Ok(())
}

fn main() {
    if let Err(message) = run() {
        eprintln!("blast-benchmark: {message}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn per_layer_list_is_read_from_the_spec() {
        let declared = super::declared_per_layer();
        assert_eq!(declared.first(), Some(&("io.parse_s", "s")));
        assert!(declared.contains(&("serve.read_p99_us", "us")));
        let section = super::SPEC.split_once("\"per_layer\"").unwrap().1;
        assert_eq!(declared.len(), section.matches("\"name\"").count());
    }
}
