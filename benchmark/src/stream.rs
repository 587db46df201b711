//! `stream_insert`, `stream_churn`, `stream_budget`: micro-batches through
//! `IncrementalPipeline`.
//!
//! A run is a number of rounds of one shape, each on its own generated input
//! (`Options::input_seed`: round 0's is the reference input, the others come
//! from `--seed`). A round sets up from scratch (generate the census rows,
//! bulk-insert the seed rows, first commit), then times a fixed number of
//! micro-batches — one operation is the batch's `insert`/`update`/`delete`
//! calls plus `commit()` — and ends with the correctness gate: the retained
//! set equals a from-scratch batch recompute of the final collection, bit
//! for bit.

use crate::support::{count_tokens, cpu_seconds, median, mix_seed, pair_checksum, Rng};
use crate::trace::Tracer;
use crate::{InputSamples, Options, Report};
use blast_datagen::{dirty_preset, generate_dirty, DirtyPreset};
use blast_datamodel::collection::EntityCollection;
use blast_datamodel::entity::{ProfileId, SourceId};
use blast_datamodel::ground_truth::GroundTruth;
use blast_datamodel::input::ErInput;
use blast_datamodel::tokenizer::Tokenizer;
use blast_graph::meta::PruningAlgorithm;
use blast_graph::weights::WeightingScheme;
use blast_graph::ColdStats;
use blast_incremental::{
    CleaningConfig, CommitOutcome, IncrementalPipeline, IncrementalPruning, MemoryFootprint,
    ResidencyPolicy,
};
use blast_metrics::quality::evaluate_pairs;
use blast_obs::CommitTotals;
use std::time::Instant;

/// What a micro-batch is made of.
#[derive(Clone, Copy, PartialEq)]
pub enum Mix {
    /// Inserts only.
    Insert,
    /// 50 % insert, 30 % update (to a fresh row's values), 20 % delete.
    Churn,
}

/// One streaming workload's fixed shape. Sizes are constants, not flags.
#[derive(Clone, Copy)]
pub struct Shape {
    /// Rows bulk-inserted and committed once during set-up.
    pub seed_rows: usize,
    /// Timed micro-batches per round.
    pub batches: usize,
    /// Mutations per micro-batch.
    pub batch_size: usize,
    pub mix: Mix,
    pub scheme: WeightingScheme,
    pub pruning: PruningAlgorithm,
    /// Run under a quarter of the seeded footprint, spilled to disk.
    pub budget: bool,
    /// Label mixed into the seed: workloads that must see the same input
    /// share it.
    pub input_label: u64,
    /// Vocabulary pool multiplier of the generator (100 = `census100k`).
    pub vocab_scale: f64,
}

const INSERT: Shape = Shape {
    seed_rows: 6_000,
    batches: 200,
    batch_size: 16,
    mix: Mix::Insert,
    scheme: WeightingScheme::Cbs,
    pruning: PruningAlgorithm::Wnp1,
    budget: false,
    input_label: 0x57_01,
    vocab_scale: 100.0,
};

const CHURN: Shape = Shape {
    seed_rows: 2_500,
    batches: 200,
    batch_size: 16,
    mix: Mix::Churn,
    scheme: WeightingScheme::Ecbs,
    pruning: PruningAlgorithm::Wep,
    budget: false,
    input_label: 0x57_02,
    vocab_scale: 100.0,
};

/// `stream_insert`'s exact input and configuration, budgeted.
const BUDGET: Shape = Shape {
    budget: true,
    ..INSERT
};

pub fn shape_of(workload: &str) -> Shape {
    match workload {
        "stream_insert" => INSERT,
        "stream_churn" => CHURN,
        "stream_budget" => BUDGET,
        other => unreachable!("not a streaming workload: {other}"),
    }
}

impl Shape {
    /// The smoke size: every code path, a tenth of the rows, and the
    /// paper-scale vocabulary (building the 100× one takes most of a second).
    pub fn smoke(self) -> Shape {
        Shape {
            seed_rows: self.seed_rows / 10,
            batches: self.batches / 10,
            vocab_scale: 1.0,
            ..self
        }
    }

    /// Rows the generator must supply: every insert and update draws a
    /// fresh one.
    pub fn rows_needed(&self) -> usize {
        self.seed_rows + self.batches * self.batch_size
    }
}

/// The rows a shape streams: census-shaped person records with ground
/// truth, made from `seed`.
pub fn generate(shape: &Shape, seed: u64) -> (EntityCollection, GroundTruth) {
    let rows = shape.rows_needed();
    let mut spec = dirty_preset(DirtyPreset::Census100k);
    spec.profiles = rows;
    spec.entities = rows * 7 / 10;
    spec.vocab_scale = shape.vocab_scale;
    spec.seed = mix_seed(seed, shape.input_label);
    let (input, gt) = generate_dirty(&spec);
    let ErInput::Dirty(d) = input else {
        unreachable!("dirty presets generate one collection")
    };
    (d, gt)
}

pub fn pipeline(shape: &Shape) -> IncrementalPipeline {
    IncrementalPipeline::dirty(
        shape.scheme,
        IncrementalPruning::Traditional(shape.pruning),
        CleaningConfig::default(),
    )
}

/// Name–value pairs of row `row`, as `insert`/`update` take them.
pub fn row_pairs(d: &EntityCollection, row: usize) -> Vec<(&str, &str)> {
    d.profiles()[row]
        .values
        .iter()
        .map(|(a, v)| (d.attribute_name(*a), &**v))
        .collect()
}

/// Which generated row each pipeline id currently holds, so the ground
/// truth (over rows) can be read over ids.
#[derive(Default)]
pub struct Population {
    /// `row_of[id]`; `u32::MAX` once deleted.
    row_of: Vec<u32>,
    live: Vec<ProfileId>,
}

impl Population {
    pub fn inserted(&mut self, id: ProfileId, row: usize) {
        let slot = id.0 as usize;
        if self.row_of.len() <= slot {
            self.row_of.resize(slot + 1, u32::MAX);
        }
        self.row_of[slot] = row as u32;
        self.live.push(id);
    }

    fn updated(&mut self, id: ProfileId, row: usize) {
        self.row_of[id.0 as usize] = row as u32;
    }

    fn pick(&self, rng: &mut Rng) -> usize {
        rng.below(self.live.len())
    }

    fn deleted(&mut self, at: usize) -> ProfileId {
        let id = self.live.swap_remove(at);
        self.row_of[id.0 as usize] = u32::MAX;
        id
    }

    pub fn live(&self) -> usize {
        self.live.len()
    }

    /// The ground truth restricted to live profiles, over pipeline ids.
    pub fn ground_truth(&self, rows: usize, gt: &GroundTruth) -> GroundTruth {
        let mut id_of = vec![u32::MAX; rows];
        for (id, &row) in self.row_of.iter().enumerate() {
            if row != u32::MAX {
                id_of[row as usize] = id as u32;
            }
        }
        let mut out = GroundTruth::new();
        for (a, b) in gt.iter() {
            let (ia, ib) = (id_of[a.0 as usize], id_of[b.0 as usize]);
            if ia != u32::MAX && ib != u32::MAX {
                out.insert(ProfileId(ia), ProfileId(ib));
            }
        }
        out
    }
}

/// Sums over the timed commits of a round, from what `commit()` returns.
#[derive(Default)]
pub struct CommitSums {
    pub index_s: f64,
    pub cleaning_s: f64,
    pub snapshot_s: f64,
    pub repair_s: f64,
    pub reweigh_s: f64,
    pub decision_s: f64,
    /// Commit wall minus the five phases after indexing: the index drain
    /// and, under a budget, the residency sweep.
    pub outside_phases_s: f64,
    pub tiers: [u64; 3],
    pub dirty_nodes: u64,
    pub patched_rows: u64,
    pub edges_reweighed: u64,
    pub edges_swept: u64,
    pub edges_rekeyed: u64,
    pub retention_flips: u64,
}

impl CommitSums {
    /// Adds one commit and returns the seconds it spent outside its phases.
    pub fn add(&mut self, out: &CommitOutcome, commit_wall_s: f64) -> f64 {
        let t = &out.timings;
        self.index_s += t.index_secs;
        self.cleaning_s += t.cleaning_secs;
        self.snapshot_s += t.snapshot_secs;
        self.repair_s += t.repair_secs;
        self.reweigh_s += t.reweigh_secs;
        self.decision_s += t.decision_secs;
        let outside = (commit_wall_s - (t.total_secs() - t.index_secs)).max(0.0);
        self.outside_phases_s += outside;
        self.tiers[out.stats.tier.index()] += 1;
        self.dirty_nodes += out.stats.dirty_nodes as u64;
        self.patched_rows += out.stats.patched_rows as u64;
        self.edges_reweighed += out.stats.edges_reweighed as u64;
        self.edges_swept += out.stats.edges_swept as u64;
        self.edges_rekeyed += out.stats.edges_rekeyed as u64;
        self.retention_flips += out.stats.retention_flips as u64;
        outside
    }
}

/// The per-layer values that come from the commits themselves, for every
/// workload that commits: times are medians over the rounds, counts are
/// round 0's (which every run of a seed repeats exactly).
pub fn report_commit_layers(report: &mut Report, rounds: &[&CommitSums]) {
    let med = |f: fn(&CommitSums) -> f64| median(&rounds.iter().map(|s| f(s)).collect::<Vec<_>>());
    let first = rounds[0];
    report.layer("incremental.index_s", med(|s| s.index_s));
    report.layer("incremental.cleaning_s", med(|s| s.cleaning_s));
    report.layer("graph.snapshot_patch_s", med(|s| s.snapshot_s));
    report.layer("incremental.repair_s", med(|s| s.repair_s));
    report.layer("incremental.reweigh_s", med(|s| s.reweigh_s));
    report.layer("incremental.decision_s", med(|s| s.decision_s));
    report.layer("graph.patched_rows", first.patched_rows as f64);
    report.layer("incremental.commits_tier1", first.tiers[0] as f64);
    report.layer("incremental.commits_tier2", first.tiers[1] as f64);
    report.layer("incremental.commits_tier3", first.tiers[2] as f64);
    report.layer("incremental.dirty_nodes", first.dirty_nodes as f64);
    report.layer("incremental.edges_reweighed", first.edges_reweighed as f64);
    report.layer("incremental.edges_swept", first.edges_swept as f64);
    report.layer("incremental.edges_rekeyed", first.edges_rekeyed as f64);
    report.layer("incremental.retention_flips", first.retention_flips as f64);
    report.layer(
        "incremental.flips_per_reweighed_edge",
        first.retention_flips as f64 / (first.edges_reweighed + first.edges_swept).max(1) as f64,
    );
}

/// The commit's returned phase durations as child spans of its span.
pub fn synthesize_commit_phases(tracer: &mut Tracer, commit_span: u32, out: &CommitOutcome) {
    let t = &out.timings;
    tracer.synthesize_tail(
        commit_span,
        &[
            ("incremental.cleaning", t.cleaning_secs),
            ("graph.snapshot_patch", t.snapshot_secs),
            ("incremental.repair", t.repair_secs),
            ("incremental.reweigh", t.reweigh_secs),
            ("incremental.decision", t.decision_secs),
        ],
    );
}

/// What one round measured.
pub struct Round {
    pub setup_s: f64,
    pub generate_s: f64,
    pub seed_commit_s: f64,
    pub op_ms: Vec<f64>,
    pub mutations: u64,
    pub insert_s: f64,
    pub inserts: u64,
    pub sums: CommitSums,
    pub recompute_s: f64,
    pub checksum: u64,
    pub pair_completeness: f64,
    pub pair_quality: f64,
    pub live_profiles: usize,
    pub footprint: MemoryFootprint,
    pub cold: ColdStats,
    pub registry_commits: u64,
    pub scrape_us: f64,
    pub page_bytes: usize,
    pub cpu_s: f64,
    pub tokenize_s: f64,
    pub tokens: u64,
}

/// One round: set up, time the micro-batches, check the result.
pub fn run_round(
    shape: &Shape,
    seed: u64,
    round: u64,
    tracer: &mut Tracer,
) -> Result<Round, String> {
    // Request ids: the commit's sequence number within the round (the seed
    // commit is 0), offset per round so they stay unique in the trace.
    let rid = |seq: usize| round * 1_000_000 + seq as u64;
    let rows = shape.rows_needed();

    let setup = Instant::now();
    let ((d, gt), generate_s) = tracer.time("datagen.generate", rid(0), || generate(shape, seed));
    let mut p = pipeline(shape);
    let mut population = Population::default();
    let seed_span = tracer.begin("stream.seed", rid(0));
    for row in 0..shape.seed_rows {
        let id = p.insert(
            SourceId(0),
            &d.profiles()[row].external_id,
            row_pairs(&d, row),
        );
        population.inserted(id, row);
    }
    let (_, seed_commit_s) = tracer.time("incremental.commit", rid(0), || p.commit());
    tracer.end(seed_span);
    if shape.budget {
        let budget_bytes = p.footprint().total_bytes() / 4;
        p.set_residency(Some(ResidencyPolicy {
            budget_bytes,
            idle_commits: 2,
            spill: true,
        }));
    }
    let setup_s = setup.elapsed().as_secs_f64();

    let mut rng = Rng::new(mix_seed(seed, shape.input_label ^ 0xC0FFEE));
    let mut next_row = shape.seed_rows;
    let mut op_ms = Vec::with_capacity(shape.batches);
    let mut sums = CommitSums::default();
    let (mut insert_s, mut inserts) = (0.0f64, 0u64);
    let cpu0 = cpu_seconds();
    for batch in 1..=shape.batches {
        let t0 = Instant::now();
        let op_span = tracer.begin("stream.micro_batch", rid(batch));
        for _ in 0..shape.batch_size {
            let draw = if shape.mix == Mix::Churn {
                rng.unit()
            } else {
                0.0
            };
            if draw < 0.5 || population.live() == 0 {
                let row = next_row;
                next_row += 1;
                let (id, secs) = tracer.time("incremental.insert", rid(batch), || {
                    p.insert(
                        SourceId(0),
                        &d.profiles()[row].external_id,
                        row_pairs(&d, row),
                    )
                });
                insert_s += secs;
                inserts += 1;
                population.inserted(id, row);
            } else if draw < 0.8 {
                let row = next_row;
                next_row += 1;
                let id = population.live[population.pick(&mut rng)];
                tracer.time("incremental.update", rid(batch), || {
                    p.update(id, row_pairs(&d, row))
                });
                population.updated(id, row);
            } else {
                let at = population.pick(&mut rng);
                let id = population.deleted(at);
                tracer.time("incremental.delete", rid(batch), || p.delete(id));
            }
        }
        let commit_span = tracer.begin("incremental.commit", rid(batch));
        let c0 = Instant::now();
        let out = p.commit();
        let commit_wall_s = c0.elapsed().as_secs_f64();
        tracer.end(commit_span);
        tracer.end(op_span);
        op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        sums.add(&out, commit_wall_s);
        synthesize_commit_phases(tracer, commit_span, &out);
    }
    let cpu_s = cpu_seconds() - cpu0;

    // The gate: incremental == batch on the final collection, bit for bit.
    let (batch, recompute_s) =
        tracer.time("incremental.batch_retained", rid(shape.batches + 1), || {
            p.batch_retained()
        });
    if batch.pairs() != p.retained().pairs() {
        return Err(format!(
            "gate: retained() has {} pairs, batch_retained() {} and they differ",
            p.retained().len(),
            batch.len()
        ));
    }
    let commits_issued = shape.batches as u64 + 1;
    let t0 = Instant::now();
    let metrics = p.metrics().snapshot();
    let page = metrics.encode_text();
    let scrape_us = t0.elapsed().as_secs_f64() * 1e6;
    let registry_commits = CommitTotals::from_snapshot(&metrics).commits;
    if registry_commits != commits_issued {
        return Err(format!(
            "gate: the metrics registry counts {registry_commits} commits, {commits_issued} were issued"
        ));
    }
    let cold = p.cold_stats();
    if shape.budget && (cold.evictions == 0 || cold.rehydrations == 0) {
        return Err(format!(
            "gate: the budget moved nothing ({} evictions, {} rehydrations)",
            cold.evictions, cold.rehydrations
        ));
    }
    let quality = evaluate_pairs(p.retained().pairs(), &population.ground_truth(rows, &gt));

    // The tokenizer on its own, over the rows this round streamed in.
    let (mut tokenize_s, mut tokens) = (0.0, 0u64);
    if tracer.enabled() {
        let streamed = &d.profiles()[shape.seed_rows..next_row];
        (tokens, tokenize_s) = tracer.time("datamodel.tokenize", rid(shape.batches + 1), || {
            let values = streamed
                .iter()
                .flat_map(|p| p.values.iter().map(|(_, v)| &**v));
            count_tokens(&Tokenizer::new(), values)
        });
    }

    Ok(Round {
        setup_s,
        generate_s,
        seed_commit_s,
        op_ms,
        mutations: (shape.batches * shape.batch_size) as u64,
        insert_s,
        inserts,
        sums,
        recompute_s,
        checksum: pair_checksum(p.retained().pairs()),
        pair_completeness: quality.pc,
        pair_quality: quality.pq,
        live_profiles: population.live(),
        footprint: p.footprint(),
        cold,
        registry_commits,
        scrape_us,
        page_bytes: page.len(),
        cpu_s,
        tokenize_s,
        tokens,
    })
}

pub fn run(opts: &Options, tracer: &mut Tracer) -> Result<Report, String> {
    let mut shape = shape_of(&opts.workload);
    if opts.smoke {
        shape = shape.smoke();
    }
    let mut report = Report::default();
    let mut rounds: Vec<Round> = Vec::new();
    while opts.more_rounds(rounds.len(), report.measured_s()) {
        let n = rounds.len();
        let mut round = run_round(&shape, opts.input_seed(n), n as u64, tracer)?;
        let op_ms = std::mem::take(&mut round.op_ms);
        report.inputs.push(InputSamples {
            setup_s: round.setup_s,
            window_s: op_ms.iter().sum::<f64>() / 1e3,
            op_ms,
            items: round.mutations,
        });
        report.attempted += shape.batches as u64 + 1;
        rounds.push(round);
    }
    report.set_result(
        rounds
            .iter()
            .map(|r| (r.pair_completeness, r.pair_quality, r.checksum)),
    );
    // Counts below are round 0's (the reference input's), which every run
    // repeats exactly.
    let first = &rounds[0];

    // Per-layer times are medians over the rounds.
    let med = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let commit_p50_s = report.op_p50_ms() / 1e3;
    let recompute_s = med(&|r| r.recompute_s);
    report.layer("datagen.generate_s", med(&|r| r.generate_s));
    report.layer("datamodel.tokenize_s", med(&|r| r.tokenize_s));
    report.layer("datamodel.tokens", first.tokens as f64);
    report.layer(
        "datamodel.interned_tokens",
        first.footprint.interned_tokens as f64,
    );
    report.layer(
        "incremental.insert_us_per_profile",
        med(&|r| r.insert_s * 1e6 / r.inserts.max(1) as f64),
    );
    report_commit_layers(
        &mut report,
        &rounds.iter().map(|r| &r.sums).collect::<Vec<_>>(),
    );
    report.layer("incremental.seed_commit_s", med(&|r| r.seed_commit_s));
    report.layer("incremental.recompute_s", recompute_s);
    report.layer(
        "incremental.commit_vs_recompute",
        commit_p50_s / recompute_s,
    );
    report.layer(
        "incremental.hot_bytes_per_profile",
        first.footprint.total_bytes() as f64 / first.live_profiles as f64,
    );
    report.layer("cold.evictions", first.cold.evictions as f64);
    report.layer("cold.rehydrations", first.cold.rehydrations as f64);
    report.layer(
        "cold.rehydrations_per_eviction",
        first.cold.rehydrations as f64 / first.cold.evictions.max(1) as f64,
    );
    report.layer("cold.spilled_bytes", first.footprint.spilled_bytes as f64);
    report.layer("cold.residency_s", med(&|r| r.sums.outside_phases_s));
    report.layer("obs.metrics_scrape_us", med(&|r| r.scrape_us));
    report.layer("obs.metrics_page_bytes", first.page_bytes as f64);
    report.layer("obs.registry_commits", first.registry_commits as f64);
    report.layer("host.cpu_s", rounds.iter().map(|r| r.cpu_s).sum());
    Ok(report)
}
