//! The sub-command implementations.

use crate::args::Args;
use blast_core::config::BlastConfig;
use blast_core::pipeline::BlastPipeline;
use blast_core::schema::candidates::CandidateSource;
use blast_core::schema::extraction::{InductionAlgorithm, LooseSchemaConfig, LooseSchemaExtractor};
use blast_datagen::{
    clean_clean_preset, dirty_preset, generate_clean_clean, generate_dirty, CleanCleanPreset,
    DirtyPreset,
};
use blast_datamodel::collection::EntityCollection;
use blast_datamodel::entity::SourceId;
use blast_datamodel::input::ErInput;
use blast_io::collection::{read_collection, write_collection, CollectionReadOptions};
use blast_io::ground_truth::{read_ground_truth, write_ground_truth};
use blast_io::pairs::write_pairs;
use blast_metrics::quality::evaluate_pairs;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write as _};
use std::path::Path;

fn open(path: &str) -> Result<BufReader<File>, String> {
    File::open(path)
        .map(BufReader::new)
        .map_err(|e| format!("cannot open {path}: {e}"))
}

fn create(path: &str) -> Result<BufWriter<File>, String> {
    File::create(path)
        .map(BufWriter::new)
        .map_err(|e| format!("cannot create {path}: {e}"))
}

fn read_options(args: &Args) -> CollectionReadOptions {
    CollectionReadOptions {
        id_column: args.get("id-column").map(str::to_string),
    }
}

fn load_clean_clean(args: &Args) -> Result<ErInput, String> {
    let options = read_options(args);
    let d1 = read_collection(&mut open(args.required("d1")?)?, SourceId(0), &options)
        .map_err(|e| format!("reading --d1: {e}"))?;
    let d2 = read_collection(&mut open(args.required("d2")?)?, SourceId(1), &options)
        .map_err(|e| format!("reading --d2: {e}"))?;
    Ok(ErInput::clean_clean(d1, d2))
}

fn schema_config(args: &Args) -> Result<LooseSchemaConfig, String> {
    let algorithm = match args.get("algorithm") {
        None | Some("lmi") => InductionAlgorithm::Lmi,
        Some("ac") => InductionAlgorithm::AttributeClustering,
        Some(other) => return Err(format!("--algorithm must be lmi or ac, got {other:?}")),
    };
    let candidates = match args.get_f64("lsh-threshold")? {
        None => CandidateSource::AllPairs,
        Some(t) => {
            if !(0.0..=1.0).contains(&t) {
                return Err(format!("--lsh-threshold must be in [0,1], got {t}"));
            }
            CandidateSource::lsh_with_threshold(150, t, 0xB1A57)
        }
    };
    Ok(LooseSchemaConfig {
        algorithm,
        candidates,
        glue: !args.flag("no-glue"),
        alpha: args.get_f64("alpha")?.unwrap_or(0.9),
        ..Default::default()
    })
}

fn blast_config(args: &Args) -> Result<BlastConfig, String> {
    let mut config = BlastConfig {
        schema: schema_config(args)?,
        ..BlastConfig::default()
    };
    if let Some(c) = args.get_f64("c")? {
        config.c = c;
    }
    if let Some(d) = args.get_f64("d")? {
        config.d = d;
    }
    if args.flag("no-entropy") {
        config.use_entropy = false;
    }
    Ok(config)
}

fn run_pipeline(args: &Args, input: ErInput) -> Result<String, String> {
    let config = blast_config(args)?;
    let outcome = BlastPipeline::new(config).run(&input);

    let mut report = String::new();
    let _ = writeln!(
        report,
        "profiles: {}  blocks (after cleaning): {}  retained comparisons: {}",
        input.total_profiles(),
        outcome.blocks.len(),
        outcome.pairs.len()
    );
    let _ = writeln!(
        report,
        "schema: {} clusters over {} attributes",
        outcome.schema.clusters, outcome.schema.columns
    );
    for (phase, duration) in outcome.timings.phases() {
        let _ = writeln!(report, "  {phase}: {duration:.2?}");
    }

    if let Some(gt_path) = args.get("gt") {
        let gt = read_ground_truth(&mut open(gt_path)?, &input)
            .map_err(|e| format!("reading --gt: {e}"))?;
        let q = evaluate_pairs(outcome.pairs.pairs(), &gt);
        let _ = writeln!(
            report,
            "PC = {:.2}%  PQ = {:.2}%  F1 = {:.4}  (|D_E| = {})",
            q.pc * 100.0,
            q.pq * 100.0,
            q.f1,
            gt.len()
        );
    }

    if let Some(out_path) = args.get("out") {
        let mut out = create(out_path)?;
        write_pairs(&mut out, &outcome.pairs, &input).map_err(|e| format!("writing --out: {e}"))?;
        out.flush().map_err(|e| e.to_string())?;
        let _ = writeln!(report, "pairs written to {out_path}");
    }
    Ok(report)
}

/// `blast block`: clean-clean ER over two CSVs.
pub fn block(args: &Args) -> Result<String, String> {
    let input = load_clean_clean(args)?;
    run_pipeline(args, input)
}

/// `blast dedup`: dirty ER over one CSV.
pub fn dedup(args: &Args) -> Result<String, String> {
    let options = read_options(args);
    let d = read_collection(&mut open(args.required("input")?)?, SourceId(0), &options)
        .map_err(|e| format!("reading --input: {e}"))?;
    run_pipeline(args, ErInput::dirty(d))
}

/// `blast schema`: print the loose schema information of two sources.
pub fn schema(args: &Args) -> Result<String, String> {
    let input = load_clean_clean(args)?;
    let config = schema_config(args)?;
    let info = LooseSchemaExtractor::new(config).extract(&input);

    let mut report = String::new();
    let _ = writeln!(
        report,
        "{} attributes, {} candidate pairs compared, {} clusters (+ glue)",
        info.columns, info.candidate_pairs, info.clusters
    );
    // Group attribute names per cluster for display.
    let ErInput::CleanClean { d1, d2 } = &input else {
        unreachable!("schema loads clean-clean input")
    };
    let collections: [&EntityCollection; 2] = [d1, d2];
    let mut members: Vec<Vec<String>> = vec![Vec::new(); info.partitioning.cluster_count()];
    for (si, coll) in collections.iter().enumerate() {
        for attr in coll.attribute_ids() {
            use blast_blocking::key::KeyDisambiguator;
            if let Some(c) = info.partitioning.cluster_of(SourceId(si as u8), attr) {
                members[c.index()].push(format!("s{si}.{}", coll.attribute_name(attr)));
            }
        }
    }
    for (cid, (names, entropy)) in members
        .iter()
        .zip(info.partitioning.entropies())
        .enumerate()
    {
        let label = if cid == 0 { "glue   " } else { "cluster" };
        let _ = writeln!(
            report,
            "{label} #{cid} (H̄ = {entropy:.2}): {}",
            if names.is_empty() {
                "-".to_string()
            } else {
                names.join(", ")
            }
        );
    }
    Ok(report)
}

/// `blast evaluate`: PC/PQ/F1 of a pairs file against a ground truth.
pub fn evaluate(args: &Args) -> Result<String, String> {
    let input = load_clean_clean(args)?;
    let gt = read_ground_truth(&mut open(args.required("gt")?)?, &input)
        .map_err(|e| format!("reading --gt: {e}"))?;
    // A pairs file is structurally a ground-truth file: reuse the reader.
    let predicted = read_ground_truth(&mut open(args.required("pairs")?)?, &input)
        .map_err(|e| format!("reading --pairs: {e}"))?;
    let pairs: Vec<_> = predicted.iter().collect();
    let q = evaluate_pairs(&pairs, &gt);
    Ok(format!(
        "comparisons = {}  detected = {}  PC = {:.2}%  PQ = {:.2}%  F1 = {:.4}\n",
        pairs.len(),
        q.detected,
        q.pc * 100.0,
        q.pq * 100.0,
        q.f1
    ))
}

/// One `--trace` journal line: the commit's envelope (sequence, tier,
/// wall clock with the nested `phases` object of
/// [`blast_obs::CommitPhases::to_json`], byte footprint) around every
/// statistic the commit declared ([`blast_obs::RepairStats::journal`]).
fn trace_event(
    seq: usize,
    batch_profiles: usize,
    pipeline: &blast_incremental::IncrementalPipeline,
    out: &blast_incremental::CommitOutcome,
) -> String {
    use blast_obs::trace::JsonObject;
    let fp = pipeline.footprint();
    let event = JsonObject::new()
        .field_u64("seq", seq as u64)
        .field_u64("batch_profiles", batch_profiles as u64)
        .field_str("tier", out.stats.tier.label())
        .field_f64("total_secs", out.timings.total_secs())
        .field_raw("phases", &out.timings.to_json());
    out.stats
        .journal(event)
        .field_u64("resident_bytes", fp.total_bytes() as u64)
        .field_u64("spilled_bytes", fp.spilled_bytes as u64)
        .finish()
}

/// Builds the incremental pipeline `blast stream`/`blast serve` share from
/// the common options: `--pruning`, `--scheme`, `--no-cleaning`,
/// `--threads`, `--memory-budget`, `--spill`.
fn incremental_pipeline(args: &Args) -> Result<blast_incremental::IncrementalPipeline, String> {
    use blast_graph::meta::PruningAlgorithm;
    use blast_graph::weights::{EdgeWeigher as _, WeightingScheme};
    use blast_incremental::{CleaningConfig, IncrementalPipeline, IncrementalPruning};

    let pruning = match args.get("pruning") {
        None | Some("blast") => IncrementalPruning::blast(),
        Some(label) => PruningAlgorithm::ALL
            .iter()
            .find(|a| a.label() == label)
            .map(|&a| IncrementalPruning::Traditional(a))
            .ok_or_else(|| {
                format!("--pruning must be blast|wep|cep|wnp1|wnp2|cnp1|cnp2, got {label:?}")
            })?,
    };
    let scheme = match args.get("scheme") {
        None => None, // χ² for blast pruning, CBS otherwise
        Some(name) => Some(
            WeightingScheme::ALL
                .iter()
                .find(|s| s.name().eq_ignore_ascii_case(name))
                .copied()
                .ok_or_else(|| format!("--scheme must be arcs|cbs|ecbs|js|ejs, got {name:?}"))?,
        ),
    };
    let cleaning = if args.flag("no-cleaning") {
        CleaningConfig::none()
    } else {
        CleaningConfig::default()
    };

    let mut pipeline = match (scheme, pruning) {
        (Some(s), p) => IncrementalPipeline::dirty(s, p, cleaning),
        (None, p @ IncrementalPruning::Blast { .. }) => IncrementalPipeline::dirty(
            blast_core::weighting::ChiSquaredWeigher::without_entropy(),
            p,
            cleaning,
        ),
        (None, p) => IncrementalPipeline::dirty(WeightingScheme::Cbs, p, cleaning),
    };
    if let Some(t) = args.get_usize("threads")? {
        pipeline = pipeline.with_threads(t);
    }
    match args.get_bytes("memory-budget")? {
        Some(budget) => {
            let mut policy = blast_incremental::ResidencyPolicy::budget(budget);
            policy.spill = args.flag("spill");
            pipeline = pipeline.with_residency(policy);
        }
        None if args.flag("spill") => {
            return Err("--spill requires --memory-budget".to_string());
        }
        None => {}
    }
    Ok(pipeline)
}

/// Generates the dirty preset `blast serve` streams in memory, returning
/// `(preset label, scale, collection)`.
fn dirty_preset_collection(args: &Args) -> Result<(String, f64, EntityCollection), String> {
    let preset = args.get("preset").unwrap_or("census").to_string();
    let scale = args.get_f64("scale")?.unwrap_or(0.05);
    let p = DirtyPreset::ALL
        .iter()
        .chain(DirtyPreset::SCALED.iter())
        .find(|p| p.label() == preset)
        .ok_or_else(|| {
            format!("--preset must be a dirty preset (census|cora|cddb|census100k|census1m), got {preset:?}")
        })?;
    let spec = dirty_preset(*p).scaled(scale);
    let (input, _gt) = generate_dirty(&spec);
    let ErInput::Dirty(d) = input else {
        unreachable!("dirty presets generate dirty input")
    };
    Ok((preset, scale, d))
}

/// `blast stream`: replay a dirty CSV as micro-batches through the
/// incremental pipeline, reporting the candidate-pair delta per batch.
pub fn stream(args: &Args) -> Result<String, String> {
    use blast_obs::CommitTotals;

    let options = read_options(args);
    let d = read_collection(&mut open(args.required("input")?)?, SourceId(0), &options)
        .map_err(|e| format!("reading --input: {e}"))?;
    let batch_size = args.get_usize("batch-size")?.unwrap_or(64);
    let mut pipeline = incremental_pipeline(args)?;

    let show_stats = args.flag("stats");
    // Opt-in structured trace journal: one JSON object per commit. Trace
    // events include the memory footprint, whose byte estimates walk the
    // structures (O(n)) — acceptable on the opt-in path only.
    let mut trace = match args.get("trace") {
        Some(path) => Some(create(path)?),
        None => None,
    };
    let mut report = String::new();
    let _ = writeln!(
        report,
        "streaming {} profiles in micro-batches of {batch_size} ({:?})",
        d.len(),
        pipeline
    );
    let mut batch_no = 0usize;
    for chunk in d.profiles().chunks(batch_size) {
        for profile in chunk {
            let pairs: Vec<(&str, &str)> = profile
                .values
                .iter()
                .map(|(a, v)| (d.attribute_name(*a), &**v))
                .collect();
            pipeline.insert(SourceId(0), &profile.external_id, pairs);
        }
        let out = pipeline.commit();
        batch_no += 1;
        let _ = writeln!(
            report,
            "batch {batch_no:>4}: +{:<6} -{:<6} candidates = {:<8} blocks = {:<7} dirty nodes = {:<6} tier = {}",
            out.delta.added.len(),
            out.delta.retracted.len(),
            out.retained_len,
            out.blocks,
            out.stats.dirty_nodes,
            out.stats.tier.label(),
        );
        if show_stats {
            let _ = writeln!(
                report,
                "    repair: tier = {}, {}, phases = {}",
                out.stats.tier.label(),
                out.stats.human(),
                out.timings.human_micros(),
            );
        }
        if let Some(w) = trace.as_mut() {
            let line = trace_event(batch_no, chunk.len(), &pipeline, &out);
            writeln!(w, "{line}").map_err(|e| format!("writing --trace: {e}"))?;
        }
    }
    // Aggregate reporting reads the pipeline's metrics registry back
    // instead of re-accumulating per-commit outcomes by hand.
    let totals = CommitTotals::from_snapshot(&pipeline.metrics().snapshot());
    let _ = writeln!(
        report,
        "total: {} added, {} retracted, {} final candidates",
        totals.pairs_added,
        totals.pairs_retracted,
        pipeline.retained().len()
    );
    if show_stats {
        let _ = writeln!(
            report,
            "{}, snapshot version = {}",
            totals.repair_summary(),
            pipeline.snapshot().version(),
        );
        let fp = pipeline.footprint();
        let _ = writeln!(
            report,
            "footprint: {} live edges, {} cached accumulators, {} interned tokens, \
             ~{:.1} KiB resident ({:.1} B/profile)",
            fp.live_edges,
            fp.cached_accumulators,
            fp.interned_tokens,
            fp.total_bytes() as f64 / 1024.0,
            fp.total_bytes() as f64 / d.len().max(1) as f64,
        );
        if pipeline.residency().is_some() {
            let cold = pipeline.cold_stats();
            let _ = writeln!(
                report,
                "cold tier: {} evictions, {} rehydrations, {:.1} KiB cold resident, {:.1} KiB spilled",
                cold.evictions,
                cold.rehydrations,
                cold.cold_bytes as f64 / 1024.0,
                cold.spilled_bytes as f64 / 1024.0,
            );
        }
    }
    if let Some(mut w) = trace.take() {
        w.flush().map_err(|e| e.to_string())?;
        let _ = writeln!(report, "trace journal: {batch_no} events");
    }
    if let Some(path) = args.get("metrics") {
        let mut w = create(path)?;
        w.write_all(pipeline.metrics().snapshot().encode_text().as_bytes())
            .and_then(|()| w.flush())
            .map_err(|e| format!("writing --metrics: {e}"))?;
        let _ = writeln!(report, "metrics exposition written to {path}");
    }

    if args.flag("verify") {
        let batch = pipeline.batch_retained();
        if batch.pairs() == pipeline.retained().pairs() {
            let _ = writeln!(
                report,
                "verify: incremental == batch ({} pairs)",
                batch.len()
            );
        } else {
            return Err(format!(
                "verify FAILED: incremental {} pairs vs batch {} pairs",
                pipeline.retained().len(),
                batch.len()
            ));
        }
    }

    if let Some(gt_path) = args.get("gt") {
        let input = pipeline.materialize();
        let gt = read_ground_truth(&mut open(gt_path)?, &input)
            .map_err(|e| format!("reading --gt: {e}"))?;
        let q = evaluate_pairs(pipeline.retained().pairs(), &gt);
        let _ = writeln!(
            report,
            "PC = {:.2}%  PQ = {:.2}%  F1 = {:.4}  (|D_E| = {})",
            q.pc * 100.0,
            q.pq * 100.0,
            q.f1,
            gt.len()
        );
    }

    Ok(report)
}

/// `blast generate`: write a synthetic benchmark to CSV files.
pub fn generate(args: &Args) -> Result<String, String> {
    let preset = args.required("preset")?;
    let scale = args.get_f64("scale")?.unwrap_or(1.0);
    let out_dir = args.required("out-dir")?;
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {out_dir}: {e}"))?;
    let dir = Path::new(out_dir);

    let write_to = |name: &str, f: &dyn Fn(&mut BufWriter<File>) -> std::io::Result<()>| {
        let path = dir.join(name);
        let mut out = BufWriter::new(
            File::create(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))?,
        );
        f(&mut out).map_err(|e| format!("writing {}: {e}", path.display()))?;
        out.flush().map_err(|e| e.to_string())
    };

    let clean = CleanCleanPreset::ALL.iter().find(|p| p.label() == preset);
    let dirty = DirtyPreset::ALL
        .iter()
        .chain(DirtyPreset::SCALED.iter())
        .find(|p| p.label() == preset);
    match (clean, dirty) {
        (Some(&p), _) => {
            let spec = clean_clean_preset(p).scaled(scale);
            let (input, gt) = generate_clean_clean(&spec);
            let ErInput::CleanClean { d1, d2 } = &input else {
                unreachable!()
            };
            write_to("d1.csv", &|out| write_collection(out, d1))?;
            write_to("d2.csv", &|out| write_collection(out, d2))?;
            write_to("gt.csv", &|out| write_ground_truth(out, &gt, &input))?;
            Ok(format!(
                "wrote {preset} (scale {scale}) to {out_dir}: |E1| = {}, |E2| = {}, |D_E| = {}\n",
                d1.len(),
                d2.len(),
                gt.len()
            ))
        }
        (_, Some(&p)) => {
            let spec = dirty_preset(p).scaled(scale);
            let (input, gt) = generate_dirty(&spec);
            let ErInput::Dirty(d) = &input else {
                unreachable!()
            };
            write_to("data.csv", &|out| write_collection(out, d))?;
            write_to("gt.csv", &|out| write_ground_truth(out, &gt, &input))?;
            Ok(format!(
                "wrote {preset} (scale {scale}) to {out_dir}: |E| = {}, |D_E| = {}\n",
                d.len(),
                gt.len()
            ))
        }
        _ => Err(format!(
            "unknown preset {preset:?} (expected ar1|ar2|prd|mov|dbp|census|cora|cddb|census100k|census1m)"
        )),
    }
}

/// `blast serve`: generate a dirty preset in memory, stream it through
/// the serving pipeline on this (writer) thread while a pool of HTTP
/// worker threads answers `/candidates`, `/topk`, `/stats` and `/metrics`
/// from the snapshot each commit publishes — a request holds the shared
/// lock around it for one `Arc` clone, then reads its own version.
///
/// The bound address is printed to stdout (`serving on http://…`) as soon
/// as the listener is up, so scripts can scrape it while the command
/// runs; the returned report summarises the run after shutdown.
pub fn serve(args: &Args) -> Result<String, String> {
    use blast_datamodel::parallel::default_threads;
    use blast_serve::{ServePipeline, ServeState, ServeTotals, Server};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let (preset, scale, d) = dirty_preset_collection(args)?;
    let batch_size = args.get_usize("batch-size")?.unwrap_or(64);
    let linger_secs = args.get_usize("linger")?.unwrap_or(0);
    let addr = args.get("addr").unwrap_or("127.0.0.1");
    let port: u16 = match args.get("port") {
        None => 0,
        Some(p) => p
            .parse()
            .map_err(|_| format!("--port expects a port number, got {p:?}"))?,
    };
    // Worker-pool sizing follows the same ladder as the pipeline's worker
    // threads: --threads wins, else default_threads (which honours the
    // BLAST_THREADS env var). Both come from outside: cap what they spawn.
    const MAX_HTTP_WORKERS: usize = 64;
    let readers = args
        .get_usize("threads")?
        .unwrap_or_else(|| default_threads(d.len()))
        .min(MAX_HTTP_WORKERS);

    let mut pipeline = ServePipeline::new(incremental_pipeline(args)?);
    let state = ServeState {
        epoch: Arc::clone(pipeline.epoch()),
        metrics: pipeline.metrics().clone(),
        ingest_done: Arc::new(AtomicBool::new(false)),
    };
    let ingest_done = Arc::clone(&state.ingest_done);
    let server = Server::start(state, &format!("{addr}:{port}"), readers)
        .map_err(|e| format!("cannot bind {addr}:{port}: {e}"))?;
    // Scripts scrape this line while the server is live — print and flush
    // immediately rather than waiting for the final report.
    println!("serving on http://{}", server.addr());
    let _ = std::io::stdout().flush();

    let mut report = String::new();
    let _ = writeln!(
        report,
        "serve: {preset} × {scale} — {} profiles in micro-batches of {batch_size}, {readers} readers",
        d.len(),
    );
    let t0 = Instant::now();
    let mut commits = 0usize;
    for chunk in d.profiles().chunks(batch_size) {
        for profile in chunk {
            let pairs: Vec<(&str, &str)> = profile
                .values
                .iter()
                .map(|(a, v)| (d.attribute_name(*a), &**v))
                .collect();
            pipeline.insert(SourceId(0), &profile.external_id, pairs);
        }
        pipeline.commit_and_publish();
        commits += 1;
    }
    let ingest_secs = t0.elapsed().as_secs_f64();
    ingest_done.store(true, Ordering::SeqCst);

    if linger_secs > 0 {
        std::thread::sleep(Duration::from_secs(linger_secs as u64));
    }

    let _ = writeln!(
        report,
        "ingest: {commits} commits in {ingest_secs:.3}s — {:.1} commits/s, {:.0} profiles/s, {} final candidates at seq {}",
        commits as f64 / ingest_secs.max(1e-9),
        d.len() as f64 / ingest_secs.max(1e-9),
        pipeline.inner().retained().len(),
        pipeline.seq(),
    );
    let totals = ServeTotals::from_snapshot(&pipeline.metrics().snapshot());
    let _ = writeln!(
        report,
        "served: {} queries, {} snapshot swaps, stale epochs = {}, read p50 = {:.1}us, p99 = {:.1}us",
        totals.queries,
        totals.snapshot_swaps,
        totals.stale_epochs,
        totals.read_p50_secs * 1e6,
        totals.read_p99_secs * 1e6,
    );
    let _ = writeln!(
        report,
        "published: publish p50 = {:.3}ms, p99 = {:.3}ms, {} rows copied, {} chunks copied",
        totals.publish_p50_secs * 1e3,
        totals.publish_p99_secs * 1e3,
        totals.rows_copied,
        totals.chunks_copied,
    );

    let verified = args.flag("verify");
    if verified && !pipeline.verify_equivalence() {
        server.shutdown();
        return Err(format!(
            "verify FAILED: published snapshot at seq {} diverges from the batch candidate set",
            pipeline.seq()
        ));
    }
    server.shutdown();
    if verified {
        let _ = writeln!(
            report,
            "verify: serve == incremental == batch ({} pairs at seq {})",
            pipeline.inner().retained().len(),
            pipeline.seq()
        );
    }
    Ok(report)
}
