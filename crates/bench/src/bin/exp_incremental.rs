//! Incremental repair vs full recompute across micro-batch sizes.
//!
//! Seeds the incremental pipeline with half of a Zipf-skewed dirty
//! collection, then streams the rest in micro-batches of varying size. For
//! every configuration it measures
//!
//! * **incremental**: `insert` + `commit` (the repair ladder — dirty
//!   neighbourhood, cache reweigh, or degraded full) per micro-batch, and
//! * **full recompute**: what a batch deployment must do at the same
//!   commit points — re-run Token Blocking, purging, filtering and pruning
//!   on the whole collection.
//!
//! Both paths produce bit-identical candidate sets (asserted at the end of
//! every run — the subsystem's contract). The global-statistic schemes
//! (EJS, ECBS, χ²) additionally record **per-tier commit counts**: with
//! delta-maintained degrees and the cache-driven reweigh tier they must
//! never land on the degraded-full tier over the streamed window (CI
//! asserts `commits_full == 0` for them off the JSON), and so must CNP,
//! whose per-node budget drifts with the collection. Writes
//! `BENCH_incremental.json` and prints a human summary. `BLAST_SCALE`
//! scales the collection like the other `exp_*` runners.
//!
//! A second, memory-diet phase bulk-streams the scaled census presets
//! (`BLAST_MEMORY_PRESETS`, default `census,census100k`; `census1m` is the
//! 10⁶-profile run) with commits at the quarter points and writes
//! `BENCH_memory.json`: kernel peak/current RSS plus the pipeline's
//! structure-level footprint (bytes per profile, bytes per edge, interned
//! tokens, cached accumulators).

use blast_core::weighting::ChiSquaredWeigher;
use blast_datagen::{dirty_preset, generate_dirty, DirtyPreset};
use blast_datamodel::collection::EntityCollection;
use blast_datamodel::entity::SourceId;
use blast_datamodel::input::ErInput;
use blast_graph::context::{EdgeAccum, GraphSnapshot};
use blast_graph::meta::PruningAlgorithm;
use blast_graph::weights::{EdgeWeigher, WeightDeps, WeightingScheme};
use blast_incremental::{CleaningConfig, CommitTimings, IncrementalPipeline, IncrementalPruning};
use blast_obs::CommitTotals;
use std::fmt::Write as _;
use std::time::Instant;

/// The streamed tail is capped so size-1 micro-batches stay tractable.
const MAX_STREAMED: usize = 192;

/// The weighers the bench sweeps: the traditional schemes plus BLAST's χ²
/// (the incremental pipeline is generic over `EdgeWeigher`; the bench
/// needs one `Copy` type covering both).
#[derive(Debug, Clone, Copy)]
enum BenchWeigher {
    Scheme(WeightingScheme),
    Chi2,
}

impl EdgeWeigher for BenchWeigher {
    fn weight(&self, ctx: &GraphSnapshot, u: u32, v: u32, acc: &EdgeAccum) -> f64 {
        match self {
            BenchWeigher::Scheme(s) => s.weight(ctx, u, v, acc),
            BenchWeigher::Chi2 => ChiSquaredWeigher::without_entropy().weight(ctx, u, v, acc),
        }
    }

    fn requires_degrees(&self) -> bool {
        matches!(self, BenchWeigher::Scheme(s) if s.requires_degrees())
    }

    fn global_deps(&self) -> WeightDeps {
        match self {
            BenchWeigher::Scheme(s) => s.global_deps(),
            BenchWeigher::Chi2 => WeightDeps::ALL,
        }
    }

    fn name(&self) -> &'static str {
        match self {
            BenchWeigher::Scheme(s) => s.name(),
            BenchWeigher::Chi2 => "chi2",
        }
    }
}

struct RunResult {
    scheme: &'static str,
    pruning: String,
    batch_size: usize,
    commits: usize,
    incremental_secs: f64,
    full_secs: f64,
    speedup: f64,
    final_candidates: usize,
    /// Per-phase split of the incremental path (index maintenance /
    /// cleaning / snapshot patch / graph repair / reweigh / decision),
    /// summed over all commits.
    phases: CommitTimings,
    /// Mean per-commit phase split over the first and second half of the
    /// streamed window — flat halves make the removed linear terms (the
    /// per-commit CSR rebuild, the full-edge-list decision re-merge, and
    /// now EJS's per-commit degree pass) visibly gone: per-commit cost
    /// tracks the dirty neighbourhood (plus, for drifting global schemes,
    /// the cache reweigh), not a from-scratch re-accumulation.
    phases_first_half: CommitTimings,
    phases_second_half: CommitTimings,
    /// Total CSR rows patched across the run (snapshot delta volume).
    patched_rows: usize,
    /// Total retention flips / frontier crossers across the run.
    retention_flips: usize,
    threshold_crossers: usize,
    /// Repair-ladder tier counts over the streamed commits
    /// (dirty / reweigh / full). CI asserts `full == 0` for the
    /// global-statistic schemes.
    tier_commits: [usize; 3],
    /// Clean edges swept / re-keyed by the reweigh tier across the run.
    edges_swept: usize,
    edges_rekeyed: usize,
    /// Commits that built the ordered weight index from a deferred state
    /// (WEP/CEP). CI asserts `<= commits_dirty + 1`: a reweigh commit
    /// never builds one.
    treap_materialisations: usize,
    /// The batch-equivalence contract: incremental candidate set ==
    /// from-scratch batch run on the final collection (asserted by CI off
    /// the JSON as well as by this process).
    equivalent: bool,
}

fn run_config(
    rows: &[(String, Vec<(String, String)>)],
    weigher: BenchWeigher,
    pruning: IncrementalPruning,
    batch_size: usize,
) -> RunResult {
    let seed_len = rows.len() / 2;
    let streamed = (rows.len() - seed_len).min(MAX_STREAMED);

    let mut pipeline = IncrementalPipeline::dirty(weigher, pruning, CleaningConfig::default());
    for (id, pairs) in &rows[..seed_len] {
        pipeline.insert(
            SourceId(0),
            id,
            pairs.iter().map(|(a, v)| (a.as_str(), v.as_str())),
        );
    }
    pipeline.commit();

    // Incremental path: insert + repair per micro-batch. Aggregation reads
    // the pipeline's metrics registry back (snapshot deltas scoped to the
    // streamed window and to each half of it) instead of re-accumulating
    // per-commit outcomes by hand — the same path `blast stream --stats`
    // reports from.
    let base = pipeline.metrics().snapshot();
    let mut commits = 0usize;
    let mut half_snap: Option<blast_obs::MetricsSnapshot> = None;
    let total_batches = rows[seed_len..seed_len + streamed]
        .chunks(batch_size)
        .count();
    let t0 = Instant::now();
    for chunk in rows[seed_len..seed_len + streamed].chunks(batch_size) {
        if commits * 2 >= total_batches && half_snap.is_none() {
            half_snap = Some(pipeline.metrics().snapshot());
        }
        for (id, pairs) in chunk {
            pipeline.insert(
                SourceId(0),
                id,
                pairs.iter().map(|(a, v)| (a.as_str(), v.as_str())),
            );
        }
        pipeline.commit();
        commits += 1;
    }
    let incremental_secs = t0.elapsed().as_secs_f64();
    let end = pipeline.metrics().snapshot();
    let half_snap = half_snap.unwrap_or_else(|| end.clone());
    let totals = CommitTotals::from_snapshot(&end.delta_since(&base));
    let first = CommitTotals::from_snapshot(&half_snap.delta_since(&base));
    let second = CommitTotals::from_snapshot(&end.delta_since(&half_snap));
    let phases_first_half = first.phases.mean(first.commits as usize);
    let phases_second_half = second.phases.mean(second.commits as usize);

    // Full-recompute path: the same commit schedule, each commit a batch
    // re-run over the whole collection so far.
    let full_prune = |input: &ErInput, pipeline: &IncrementalPipeline| {
        let blocks = pipeline.batch_blocks(input);
        let mut ctx = GraphSnapshot::build(&blocks);
        if weigher.requires_degrees() {
            ctx.ensure_degrees();
        }
        pruning.batch_prune(&ctx, &weigher).len()
    };
    let mut store = IncrementalPipeline::dirty(weigher, pruning, CleaningConfig::default());
    for (id, pairs) in &rows[..seed_len] {
        store.insert(
            SourceId(0),
            id,
            pairs.iter().map(|(a, v)| (a.as_str(), v.as_str())),
        );
    }
    let t0 = Instant::now();
    for chunk in rows[seed_len..seed_len + streamed].chunks(batch_size) {
        for (id, pairs) in chunk {
            store.insert(
                SourceId(0),
                id,
                pairs.iter().map(|(a, v)| (a.as_str(), v.as_str())),
            );
        }
        let input = store.materialize();
        std::hint::black_box(full_prune(&input, &store));
    }
    let full_secs = t0.elapsed().as_secs_f64();

    // Contract check: the incremental candidate set equals a batch run on
    // the final collection. Recorded as a flag (CI asserts it off the
    // JSON) and asserted after the JSON is written so a violation still
    // leaves the evidence on disk.
    let equivalent = pipeline.retained().pairs() == pipeline.batch_retained().pairs();

    debug_assert_eq!(
        totals.commits as usize, commits,
        "registry window covers the stream"
    );
    RunResult {
        scheme: weigher.name(),
        pruning: pruning.label(),
        batch_size,
        commits,
        incremental_secs,
        full_secs,
        speedup: full_secs / incremental_secs.max(1e-12),
        final_candidates: pipeline.retained().len(),
        phases: totals.phases,
        phases_first_half,
        phases_second_half,
        patched_rows: totals.patched_rows as usize,
        retention_flips: totals.retention_flips as usize,
        threshold_crossers: totals.threshold_crossers as usize,
        tier_commits: totals.tier_commits.map(|c| c as usize),
        edges_swept: totals.edges_swept as usize,
        edges_rekeyed: totals.edges_rekeyed as usize,
        treap_materialisations: totals.treap_materialisations as usize,
        equivalent,
    }
}

/// One multi-core run: the commit path at a pinned thread count.
struct MulticoreRun {
    threads: usize,
    commits: usize,
    secs: f64,
    /// Wall-clock speedup vs the single-thread run of the same sweep
    /// (recorded as measured; CI gates on the equivalence flags, not on
    /// magnitudes, so oversubscribed runners stay green).
    speedup: f64,
    /// Tier split (dirty / reweigh / full) — the sweep is configured to be
    /// reweigh-heavy so the parallel reweigh sweep actually runs.
    tier_commits: [usize; 3],
    /// Ordered-index builds from a deferred state across the run.
    treap_materialisations: usize,
    final_candidates: usize,
    /// The tentpole contract: retained set bit-identical to the
    /// single-thread run AND to a from-scratch batch run.
    equivalent: bool,
}

/// Multi-core phase: stream one reweigh-heavy configuration (EJS / WEP —
/// every commit that drifts a degree re-derives all clean edges, the
/// reweigh sweep's hot path) at 1/2/4/8 worker threads, asserting
/// bit-identical outcomes against the single-thread run and the batch
/// pipeline.
fn multicore_phase(rows: &[(String, Vec<(String, String)>)]) -> Vec<MulticoreRun> {
    let weigher = BenchWeigher::Scheme(WeightingScheme::Ejs);
    let pruning = IncrementalPruning::Traditional(PruningAlgorithm::Wep);
    let batch_size = 8usize;
    let seed_len = rows.len() / 2;
    let streamed = (rows.len() - seed_len).min(MAX_STREAMED);

    let mut runs: Vec<MulticoreRun> = Vec::new();
    let mut reference: Option<blast_graph::retained::RetainedPairs> = None;
    for threads in [1usize, 2, 4, 8] {
        let mut pipeline = IncrementalPipeline::dirty(weigher, pruning, CleaningConfig::default())
            .with_threads(threads);
        for (id, pairs) in &rows[..seed_len] {
            pipeline.insert(
                SourceId(0),
                id,
                pairs.iter().map(|(a, v)| (a.as_str(), v.as_str())),
            );
        }
        pipeline.commit();
        let base = pipeline.metrics().snapshot();
        let mut commits = 0usize;
        let t0 = Instant::now();
        for chunk in rows[seed_len..seed_len + streamed].chunks(batch_size) {
            for (id, pairs) in chunk {
                pipeline.insert(
                    SourceId(0),
                    id,
                    pairs.iter().map(|(a, v)| (a.as_str(), v.as_str())),
                );
            }
            pipeline.commit();
            commits += 1;
        }
        let secs = t0.elapsed().as_secs_f64();
        let totals = CommitTotals::from_snapshot(&pipeline.metrics().snapshot().delta_since(&base));
        let retained = pipeline.retained().clone();
        let equivalent = reference
            .as_ref()
            .is_none_or(|r| r.pairs() == retained.pairs())
            && retained.pairs() == pipeline.batch_retained().pairs();
        let baseline = runs.first().map_or(secs, |r| r.secs);
        runs.push(MulticoreRun {
            threads,
            commits,
            secs,
            speedup: baseline / secs.max(1e-12),
            tier_commits: totals.tier_commits.map(|c| c as usize),
            treap_materialisations: totals.treap_materialisations as usize,
            final_candidates: retained.len(),
            equivalent,
        });
        reference.get_or_insert(retained);
    }
    runs
}

/// One memory-diet run: bulk-stream a preset with commits at the quarter
/// points, recording the pipeline's structure footprint and the kernel's
/// RSS accounting (see `BENCH_memory.json`).
struct MemoryRun {
    preset: &'static str,
    scheme: &'static str,
    pruning: String,
    profiles: usize,
    commits: usize,
    elapsed_secs: f64,
    /// Kernel VmHWM / VmRSS (None off Linux).
    peak_rss_bytes: Option<u64>,
    current_rss_bytes: Option<u64>,
    fp: blast_incremental::MemoryFootprint,
    retained: usize,
    bytes_per_profile: f64,
    bytes_per_edge: f64,
    /// Checked against a from-scratch batch run when the collection is
    /// small enough that the second full copy cannot distort the RSS
    /// figures (None = skipped at scale; the contract is pinned by the
    /// main phase and the test suites).
    equivalent: Option<bool>,
    /// (profiles inserted, estimated structure bytes, current RSS) at each
    /// commit point.
    trajectory: Vec<(usize, usize, Option<u64>)>,
    /// Commits that landed on the degraded-full tier. The very first
    /// commit initialises the blocker (structural) — beyond that, a
    /// budgeted run must never degrade.
    commits_full: usize,
    /// Whether the kernel's peak-RSS high-water mark was reset before this
    /// run; peak comparisons across runs are only meaningful when both
    /// flags are true.
    rss_reset: bool,
    /// Cold-tier figures of a budgeted run (`None` = unbudgeted).
    cold: Option<ColdRun>,
}

/// Cold-tier accounting of one budgeted memory run.
struct ColdRun {
    budget_bytes: usize,
    spill: bool,
    evictions: u64,
    rehydrations: u64,
    /// Hot bytes of the three evictable structures, per profile.
    hot_bytes_per_profile: f64,
    /// Cold frame payload (in-memory arena + spill file), per profile.
    cold_bytes_per_profile: f64,
    spilled_bytes: usize,
}

/// Memory presets come from `BLAST_MEMORY_PRESETS` (comma-separated
/// labels; `census1m` is the full 10⁶-profile run — minutes, so the
/// default sticks to census + census100k).
fn memory_presets() -> Vec<DirtyPreset> {
    let labels =
        std::env::var("BLAST_MEMORY_PRESETS").unwrap_or_else(|_| "census,census100k".into());
    labels
        .split(',')
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .filter_map(|l| {
            let found = DirtyPreset::ALL
                .iter()
                .chain(DirtyPreset::SCALED.iter())
                .copied()
                .find(|p| p.label() == l);
            if found.is_none() {
                eprintln!("warning: unknown memory preset {l:?} (skipped)");
            }
            found
        })
        .collect()
}

fn run_memory(
    d: &EntityCollection,
    preset: &'static str,
    weigher: BenchWeigher,
    pruning: IncrementalPruning,
    residency: Option<blast_incremental::ResidencyPolicy>,
) -> MemoryRun {
    // Bound block sizes at ~64 members regardless of the profile count, so
    // the footprint scales with the structures rather than with one
    // stop-word block, and per-commit work stays bounded.
    let cleaning = CleaningConfig {
        purging: true,
        purge_fraction: 64.0 / d.len() as f64,
        filtering: true,
        filter_ratio: 0.8,
    };
    // Reset the high-water mark so each run's peak covers this run only;
    // recorded so the JSON consumer knows whether peaks are comparable.
    let rss_reset = blast_metrics::reset_peak_rss();
    let mut pipeline = IncrementalPipeline::dirty(weigher, pruning, cleaning);
    if let Some(policy) = residency {
        pipeline = pipeline.with_residency(policy);
    }
    let quarter = (d.len() / 4).max(1);
    let mut commits = 0usize;
    let mut trajectory: Vec<(usize, usize, Option<u64>)> = Vec::new();
    let t0 = Instant::now();
    for (i, p) in d.profiles().iter().enumerate() {
        pipeline.insert(
            SourceId(0),
            &p.external_id,
            p.values.iter().map(|(a, v)| (d.attribute_name(*a), &**v)),
        );
        if (i + 1) % quarter == 0 || i + 1 == d.len() {
            pipeline.commit();
            commits += 1;
            trajectory.push((
                i + 1,
                pipeline.footprint().total_bytes(),
                blast_metrics::current_rss_bytes(),
            ));
        }
    }
    let elapsed_secs = t0.elapsed().as_secs_f64();
    let fp = pipeline.footprint();
    let peak_rss_bytes = blast_metrics::peak_rss_bytes();
    let current_rss_bytes = blast_metrics::current_rss_bytes();
    let retained = pipeline.retained().len();
    // The batch counterpart materialises a second full collection — only
    // run it where that cannot dominate the memory story.
    let equivalent = (d.len() <= 150_000)
        .then(|| pipeline.retained().pairs() == pipeline.batch_retained().pairs());
    let totals = CommitTotals::from_snapshot(&pipeline.metrics().snapshot());
    let cold = residency.map(|policy| {
        let stats = pipeline.cold_stats();
        let hot_bytes = fp.index_bytes + fp.snapshot_bytes + fp.blocker_bytes;
        ColdRun {
            budget_bytes: policy.budget_bytes,
            spill: policy.spill,
            evictions: stats.evictions,
            rehydrations: stats.rehydrations,
            hot_bytes_per_profile: hot_bytes as f64 / d.len().max(1) as f64,
            cold_bytes_per_profile: (stats.cold_bytes + stats.spilled_bytes) as f64
                / d.len().max(1) as f64,
            spilled_bytes: stats.spilled_bytes,
        }
    });
    MemoryRun {
        preset,
        scheme: weigher.name(),
        pruning: pruning.label(),
        profiles: d.len(),
        commits,
        elapsed_secs,
        peak_rss_bytes,
        current_rss_bytes,
        fp,
        retained,
        bytes_per_profile: fp.total_bytes() as f64 / d.len().max(1) as f64,
        bytes_per_edge: fp.blocker_bytes as f64 / fp.live_edges.max(retained).max(1) as f64,
        equivalent,
        trajectory,
        commits_full: totals.tier_commits[2] as usize,
        rss_reset,
        cold,
    }
}

fn memory_phase() -> Vec<MemoryRun> {
    let mut runs = Vec::new();
    for preset in memory_presets() {
        let spec = dirty_preset(preset);
        let (input, _) = generate_dirty(&spec);
        let ErInput::Dirty(d) = &input else {
            unreachable!()
        };
        // CBS/WNP1 everywhere (the node-centric diet path); CBS/WEP where
        // the edge-cached treap + adjacency fit a smoke run.
        let mut configs = vec![(
            BenchWeigher::Scheme(WeightingScheme::Cbs),
            IncrementalPruning::Traditional(PruningAlgorithm::Wnp1),
        )];
        if d.len() <= 200_000 {
            configs.push((
                BenchWeigher::Scheme(WeightingScheme::Cbs),
                IncrementalPruning::Traditional(PruningAlgorithm::Wep),
            ));
        }
        let print_run = |r: &MemoryRun| {
            println!(
                "{:<10} {:<6} {:<6} {:>9} {:>9.2}s  est {:>7.1} B/profile  peak rss {}{}",
                r.preset,
                r.scheme,
                r.pruning,
                r.profiles,
                r.elapsed_secs,
                r.bytes_per_profile,
                r.peak_rss_bytes.map_or("n/a".to_string(), |b| format!(
                    "{:.1} MiB",
                    b as f64 / (1 << 20) as f64
                )),
                r.cold.as_ref().map_or(String::new(), |c| format!(
                    "  [budget {:.1} MiB: {} evictions, {} rehydrations]",
                    c.budget_bytes as f64 / (1 << 20) as f64,
                    c.evictions,
                    c.rehydrations
                )),
            );
        };
        for (weigher, pruning) in configs {
            let r = run_memory(d, preset.label(), weigher, pruning, None);
            print_run(&r);
            runs.push(r);
        }
        // Budgeted rerun of the WNP1 config: cap the evictable structures
        // (index + snapshot + blocker) at a quarter of what the unbudgeted
        // run used, spill the cold frames to disk, and demand the same
        // answer. This is the bounded-memory configuration CI gates on.
        let baseline = runs
            .iter()
            .rev()
            .find(|r| r.preset == preset.label() && r.pruning == "wnp1" && r.cold.is_none())
            .expect("unbudgeted wnp1 run precedes the budgeted rerun");
        let budget =
            (baseline.fp.index_bytes + baseline.fp.snapshot_bytes + baseline.fp.blocker_bytes) / 4;
        let policy = blast_incremental::ResidencyPolicy {
            budget_bytes: budget,
            idle_commits: 1,
            spill: true,
        };
        let r = run_memory(
            d,
            preset.label(),
            BenchWeigher::Scheme(WeightingScheme::Cbs),
            IncrementalPruning::Traditional(PruningAlgorithm::Wnp1),
            Some(policy),
        );
        print_run(&r);
        runs.push(r);
    }
    runs
}

fn opt_u64(v: Option<u64>) -> String {
    v.map_or("null".to_string(), |b| b.to_string())
}

fn memory_json(runs: &[MemoryRun]) -> String {
    let mut json = String::new();
    json.push_str("{\n  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let comma = if i + 1 == runs.len() { "" } else { "," };
        let trajectory: Vec<String> = r
            .trajectory
            .iter()
            .map(|&(profiles, est, rss)| {
                format!(
                    "{{\"profiles\": {profiles}, \"estimated_bytes\": {est}, \"current_rss_bytes\": {}}}",
                    opt_u64(rss)
                )
            })
            .collect();
        let cold_tier = r.cold.as_ref().map_or("null".to_string(), |c| {
            format!(
                "{{\"budget_bytes\": {}, \"spill\": {}, \"evictions\": {}, \"rehydrations\": {}, \"hot_bytes_per_profile\": {:.2}, \"cold_bytes_per_profile\": {:.2}, \"spilled_bytes\": {}}}",
                c.budget_bytes,
                c.spill,
                c.evictions,
                c.rehydrations,
                c.hot_bytes_per_profile,
                c.cold_bytes_per_profile,
                c.spilled_bytes,
            )
        });
        let _ = writeln!(
            json,
            "    {{\"preset\": \"{}\", \"scheme\": \"{}\", \"pruning\": \"{}\", \"profiles\": {}, \"commits\": {}, \"commits_full\": {}, \"elapsed_secs\": {:.3}, \"peak_rss_bytes\": {}, \"current_rss_bytes\": {}, \"rss_reset\": {}, \"live_edges\": {}, \"cached_accumulators\": {}, \"interned_tokens\": {}, \"store_bytes\": {}, \"index_bytes\": {}, \"snapshot_bytes\": {}, \"blocker_bytes\": {}, \"cold_bytes\": {}, \"spilled_bytes\": {}, \"estimated_bytes\": {}, \"bytes_per_profile\": {:.2}, \"bytes_per_edge\": {:.2}, \"retained\": {}, \"equivalent\": {}, \"cold_tier\": {}, \"trajectory\": [{}]}}{comma}",
            r.preset,
            r.scheme,
            r.pruning,
            r.profiles,
            r.commits,
            r.commits_full,
            r.elapsed_secs,
            opt_u64(r.peak_rss_bytes),
            opt_u64(r.current_rss_bytes),
            r.rss_reset,
            r.fp.live_edges,
            r.fp.cached_accumulators,
            r.fp.interned_tokens,
            r.fp.store_bytes,
            r.fp.index_bytes,
            r.fp.snapshot_bytes,
            r.fp.blocker_bytes,
            r.fp.cold_bytes,
            r.fp.spilled_bytes,
            r.fp.total_bytes(),
            r.bytes_per_profile,
            r.bytes_per_edge,
            r.retained,
            r.equivalent.map_or("null".to_string(), |e| e.to_string()),
            cold_tier,
            trajectory.join(", "),
        );
    }
    json.push_str("  ]\n}\n");
    json
}

// The phase JSON schema lives in one place now: `CommitTimings` is
// `blast_obs::CommitPhases`, and `bench_json()` carries the exact
// `BENCH_incremental.json` keys.

fn main() {
    let scale = blast_bench::scale();
    let spec = dirty_preset(DirtyPreset::Census).scaled(scale * 2.0);
    let (input, _) = generate_dirty(&spec);
    let ErInput::Dirty(d) = &input else {
        unreachable!()
    };
    // Freeze the rows as (external id, [(attr, value)]) so every
    // configuration replays the identical stream.
    let rows: Vec<(String, Vec<(String, String)>)> = d
        .profiles()
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
        .collect();

    println!(
        "## Incremental repair vs full recompute (census preset, scale {scale}, {} profiles, {} streamed)",
        rows.len(),
        (rows.len() - rows.len() / 2).min(MAX_STREAMED),
    );
    println!(
        "{:<6} {:<6} {:>6} {:>8} {:>12} {:>12} {:>9} {:>14}",
        "scheme", "prune", "batch", "commits", "incr(s)", "full(s)", "speedup", "tiers d/r/f"
    );

    // The classic configs plus one per global-statistic scheme: EJS
    // (degrees), ECBS (|B|) and χ² (|B| + per-node counts) must stay off
    // the degraded-full tier for the whole stream — and CNP, whose top-k
    // budget drifts with the collection, must repair budget moves as
    // bounded containment adjustments (reweigh tier), never tier 3.
    let configs: [(BenchWeigher, IncrementalPruning); 7] = [
        (
            BenchWeigher::Scheme(WeightingScheme::Cbs),
            IncrementalPruning::Traditional(PruningAlgorithm::Cnp1),
        ),
        (
            BenchWeigher::Scheme(WeightingScheme::Cbs),
            IncrementalPruning::Traditional(PruningAlgorithm::Wnp1),
        ),
        (
            BenchWeigher::Scheme(WeightingScheme::Cbs),
            IncrementalPruning::Traditional(PruningAlgorithm::Wep),
        ),
        (
            BenchWeigher::Scheme(WeightingScheme::Js),
            IncrementalPruning::Traditional(PruningAlgorithm::Wnp2),
        ),
        (
            BenchWeigher::Scheme(WeightingScheme::Ejs),
            IncrementalPruning::Traditional(PruningAlgorithm::Wnp1),
        ),
        (
            BenchWeigher::Scheme(WeightingScheme::Ecbs),
            IncrementalPruning::Traditional(PruningAlgorithm::Wep),
        ),
        (BenchWeigher::Chi2, IncrementalPruning::blast()),
    ];
    let batch_sizes = [1usize, 8, 64];

    let mut results: Vec<RunResult> = Vec::new();
    for &(weigher, pruning) in &configs {
        for &batch_size in &batch_sizes {
            let r = run_config(&rows, weigher, pruning, batch_size);
            println!(
                "{:<6} {:<6} {:>6} {:>8} {:>12.4} {:>12.4} {:>8.2}x {:>6}/{}/{}",
                r.scheme,
                r.pruning,
                r.batch_size,
                r.commits,
                r.incremental_secs,
                r.full_secs,
                r.speedup,
                r.tier_commits[0],
                r.tier_commits[1],
                r.tier_commits[2],
            );
            results.push(r);
        }
    }

    // The removed linear terms, made visible: at micro-batch 1 the mean
    // per-commit maintenance cost (index + cleaning + snapshot patch) AND
    // the repair/decision cost of the second half of the stream should
    // track the first half's, even though the collection has grown — the
    // per-commit CSR rebuild (PR 3), the full edge-list/top-k-union
    // decision re-merge (PR 4) and the EJS per-commit degree pass (PR 5)
    // are gone.
    println!();
    println!("per-commit cost at batch size 1 (first half vs second half of the stream):");
    for r in results.iter().filter(|r| r.batch_size == 1) {
        let m = |t: &CommitTimings| t.index_secs + t.cleaning_secs + t.snapshot_secs;
        println!(
            "  {:<6} {:<6} maintenance {:>8.1}us → {:>8.1}us   reweigh {:>8.1}us → {:>8.1}us   decision {:>8.1}us → {:>8.1}us",
            r.scheme,
            r.pruning,
            m(&r.phases_first_half) * 1e6,
            m(&r.phases_second_half) * 1e6,
            r.phases_first_half.reweigh_secs * 1e6,
            r.phases_second_half.reweigh_secs * 1e6,
            r.phases_first_half.decision_secs * 1e6,
            r.phases_second_half.decision_secs * 1e6,
        );
    }

    // Multi-core phase: the commit path at 1/2/4/8 worker threads.
    println!();
    println!("## Multi-core commit path (EJS / wep)");
    println!(
        "{:<8} {:>8} {:>10} {:>9} {:>12} {:>11}",
        "threads", "commits", "secs", "speedup", "tiers d/r/f", "equivalent"
    );
    let multicore = multicore_phase(&rows);
    for r in &multicore {
        println!(
            "{:<8} {:>8} {:>10.4} {:>8.2}x {:>8}/{}/{} {:>11}",
            r.threads,
            r.commits,
            r.secs,
            r.speedup,
            r.tier_commits[0],
            r.tier_commits[1],
            r.tier_commits[2],
            r.equivalent,
        );
    }

    // BENCH_incremental.json — hand-rolled (the workspace has no serde).
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"preset\": \"census\",");
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"profiles\": {},", rows.len());
    let _ = writeln!(json, "  \"seeded\": {},", rows.len() / 2);
    let _ = writeln!(
        json,
        "  \"streamed\": {},",
        (rows.len() - rows.len() / 2).min(MAX_STREAMED)
    );
    let _ = writeln!(json, "  \"runs\": [");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"scheme\": \"{}\", \"pruning\": \"{}\", \"batch_size\": {}, \"commits\": {}, \"incremental_secs\": {:.6}, \"full_recompute_secs\": {:.6}, \"speedup\": {:.3}, \"final_candidates\": {}, \"patched_csr_rows\": {}, \"retention_flips\": {}, \"threshold_crossers\": {}, \"commits_dirty\": {}, \"commits_reweigh\": {}, \"commits_full\": {}, \"edges_swept\": {}, \"edges_rekeyed\": {}, \"treap_materialisations\": {}, \"equivalent\": {}, \"phases\": {}, \"per_commit_first_half\": {}, \"per_commit_second_half\": {}}}{comma}",
            r.scheme,
            r.pruning,
            r.batch_size,
            r.commits,
            r.incremental_secs,
            r.full_secs,
            r.speedup,
            r.final_candidates,
            r.patched_rows,
            r.retention_flips,
            r.threshold_crossers,
            r.tier_commits[0],
            r.tier_commits[1],
            r.tier_commits[2],
            r.edges_swept,
            r.edges_rekeyed,
            r.treap_materialisations,
            r.equivalent,
            r.phases.bench_json(),
            r.phases_first_half.bench_json(),
            r.phases_second_half.bench_json(),
        );
    }
    json.push_str("  ],\n");
    // The multi-core section: per-thread-count runs. Each line
    // carries the same `"scheme"`/`"equivalent"`/`"commits_full"` keys the
    // run lines do, so CI's count-matching greps cover these runs too.
    let _ = writeln!(json, "  \"multicore\": [");
    for (i, r) in multicore.iter().enumerate() {
        let comma = if i + 1 == multicore.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"scheme\": \"EJS\", \"pruning\": \"wep\", \"threads\": {}, \"commits\": {}, \"secs\": {:.6}, \"speedup\": {:.3}, \"commits_dirty\": {}, \"commits_reweigh\": {}, \"commits_full\": {}, \"treap_materialisations\": {}, \"final_candidates\": {}, \"equivalent\": {}}}{comma}",
            r.threads,
            r.commits,
            r.secs,
            r.speedup,
            r.tier_commits[0],
            r.tier_commits[1],
            r.tier_commits[2],
            r.treap_materialisations,
            r.final_candidates,
            r.equivalent,
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_incremental.json", &json).expect("write BENCH_incremental.json");
    println!();
    println!("wrote BENCH_incremental.json");
    for r in &multicore {
        assert!(
            r.equivalent,
            "multi-core run at {} threads diverged from the single-thread run or batch",
            r.threads
        );
    }
    for r in &results {
        assert!(
            r.equivalent,
            "batch-equivalence violated for {} / {} at batch size {}",
            r.scheme, r.pruning, r.batch_size
        );
        // The repair-ladder acceptance: global-statistic schemes never
        // degrade to the full tier over the streamed window, and neither
        // do CNP budget moves (bounded containment adjustments instead).
        if matches!(r.scheme, "EJS" | "ECBS" | "chi2") || r.pruning.starts_with("cnp") {
            assert_eq!(
                r.tier_commits[2], 0,
                "{} / {} at batch size {} degraded to the full tier",
                r.scheme, r.pruning, r.batch_size
            );
        }
    }

    // Memory-diet phase: bulk-stream the scaled census presets, recording
    // structure footprints and kernel RSS (BENCH_memory.json).
    println!();
    let preset_env = std::env::var("BLAST_MEMORY_PRESETS")
        .unwrap_or_else(|_| "census,census100k (default)".into());
    println!("## Memory diet (BLAST_MEMORY_PRESETS: {preset_env})");
    let memory_runs = memory_phase();
    std::fs::write("BENCH_memory.json", memory_json(&memory_runs))
        .expect("write BENCH_memory.json");
    println!("wrote BENCH_memory.json");
    for r in &memory_runs {
        assert_ne!(
            r.equivalent,
            Some(false),
            "{} / {} memory run diverged from batch",
            r.scheme,
            r.preset
        );
        if let Some(c) = &r.cold {
            assert!(
                c.evictions > 0 && c.rehydrations > 0,
                "{} budgeted run ({} bytes) never exercised the cold tier",
                r.preset,
                c.budget_bytes
            );
            assert!(
                r.commits_full <= 1,
                "{} budgeted run degraded to the full tier {} times — eviction must never \
                 force a structural repair beyond the initialising commit",
                r.preset,
                r.commits_full
            );
        }
    }
}
