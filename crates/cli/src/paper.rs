//! `blast paper`: the paper's evaluation (§4) on the synthetic presets —
//! Tables 2–7, Figures 5 and 8–10, the ablations behind the defaults and
//! the §4.2.2 matcher comparison counts.
//!
//! Each preset is generated and prepared once per run (ground truth, the
//! tokenized input, the T and L block collections, the schema information
//! and the χ²·h graph over the L blocks); every section is derived from
//! those. A preset is tokenized once: its T blocks, every schema
//! configuration, every L-block variant and dbp's attribute profiles read
//! the same [`TokenizedInput`]. The report prints no wall-clock column, so
//! it is a function of the scale alone: `tests/paper_tables.rs` pins it
//! byte for byte.

use crate::args::Args;
use blast_blocking::collection::BlockCollection;
use blast_blocking::filtering::BlockFiltering;
use blast_blocking::key::SingleCluster;
use blast_blocking::purging::{BlockPurging, CardinalityPurging};
use blast_blocking::token_blocking::TokenBlocking;
use blast_core::pruning::BlastPruning;
use blast_core::schema::attribute_profile::AttributeProfiles;
use blast_core::schema::candidates::CandidateSource;
use blast_core::schema::extraction::{
    InductionAlgorithm, LooseSchemaConfig, LooseSchemaExtractor, LooseSchemaInfo,
};
use blast_core::weighting::{ChiSquaredWeigher, WsEntropyWeigher};
use blast_datagen::stats::DatasetStats;
use blast_datagen::{
    clean_clean_preset, dirty_preset, generate_clean_clean, generate_dirty, CleanCleanPreset,
    DirtyPreset,
};
use blast_datamodel::ground_truth::GroundTruth;
use blast_datamodel::input::ErInput;
use blast_datamodel::tokenized::TokenizedInput;
use blast_datamodel::tokenizer::Tokenizer;
use blast_graph::meta::PruningAlgorithm;
use blast_graph::retained::RetainedPairs;
use blast_graph::weights::WeightingScheme;
use blast_graph::GraphSnapshot;
use blast_lsh::scurve::{params_for_threshold, SCurve};
use blast_matcher::evaluation::evaluate_matches;
use blast_matcher::matcher::JaccardMatcher;
use blast_metrics::quality::{evaluate_blocks, evaluate_pairs};
use blast_metrics::report::fmt_card;
use blast_ml::SupervisedMetaBlocking;
use std::fmt::{self, Write as _};

/// The traditional prunings of Tables 4, 5 and 7.
const NODE_CENTRIC: [PruningAlgorithm; 4] = [
    PruningAlgorithm::Wnp1,
    PruningAlgorithm::Wnp2,
    PruningAlgorithm::Cnp1,
    PruningAlgorithm::Cnp2,
];

/// `blast paper`: the whole report at `--scale` (default 0.25).
pub fn paper(args: &Args) -> Result<String, String> {
    let scale = args.get_f64("scale")?.unwrap_or(0.25);
    if !(scale.is_finite() && scale > 0.0) {
        return Err(format!("--scale must be a positive number, got {scale}"));
    }
    Ok(report(scale))
}

/// The report: every section at `scale`, in the paper's order.
pub fn report(scale: f64) -> String {
    use CleanCleanPreset::{Ar1, Ar2, DbpScaled, Mov, Prd};
    // Table 4 compares ar1, ar2, prd and mov; dbp, the many-attribute
    // preset, gets Table 5 with the LSH variants. Tables 2–3 and Figures
    // 8–9 read all five, dbp last.
    let four = [Ar1, Ar2, Prd, Mov].map(|p| Prepared::clean_clean(p, scale));
    let four_rows = four.each_ref().map(Compared::new);
    let dbp = Prepared::clean_clean(DbpScaled, scale);
    let dbp_rows = Compared::new(&dbp);
    let clean: Vec<(&Prepared, &Compared)> = four
        .iter()
        .zip(&four_rows)
        .chain([(&dbp, &dbp_rows)])
        .collect();
    let dirty = DirtyPreset::ALL.map(|p| {
        let (input, gt) = generate_dirty(&dirty_preset(p).scaled(scale));
        Prepared::new(p.label(), input, gt)
    });
    let dbp_profiles = AttributeProfiles::from_tokens(&dbp.tokens);
    // The ablations (ar1) and the ER-time rows run at half scale.
    let half = [Ar1, Prd, Mov].map(|p| Prepared::clean_clean(p, scale * 0.5));

    let sections = [
        table2(scale, &clean, &dirty),
        table3(scale, &clean),
        table4(scale, &four, &four_rows),
        table5(scale, &dbp, &dbp_rows),
        table6(scale, &dbp, &dbp_profiles),
        table7(scale, &dirty),
        fig5(),
        fig8(scale, &clean),
        fig9(scale, &clean),
        fig10(scale, &dbp, &dbp_profiles),
        ablations(scale * 0.5, &half[0]),
        er_time(scale, &half),
    ];
    let mut out = format!("# BLAST paper tables (scale {scale})\n\n");
    for section in sections {
        let _ = writeln!(out, "{section}");
    }
    out
}

/// One preset, generated and blocked once: the inputs every section reads.
struct Prepared {
    label: &'static str,
    input: ErInput,
    gt: GroundTruth,
    /// The input after the default τ, shared by every blocking below.
    tokens: TokenizedInput,
    /// Plain Token Blocking, before purging + filtering ("T" baseline).
    raw_t: BlockCollection,
    /// Plain Token Blocking after purging + filtering.
    blocks_t: BlockCollection,
    /// BLAST's loosely schema-aware blocking (LMI, default configuration).
    l: Loose,
}

impl Prepared {
    fn clean_clean(preset: CleanCleanPreset, scale: f64) -> Self {
        let (input, gt) = generate_clean_clean(&clean_clean_preset(preset).scaled(scale));
        Self::new(preset.label(), input, gt)
    }

    fn new(label: &'static str, input: ErInput, gt: GroundTruth) -> Self {
        let tokens = TokenizedInput::build(&input, &Tokenizer::new());
        let raw_t = TokenBlocking::build_tokenized(&tokens, &SingleCluster);
        let blocks_t = clean(&raw_t);
        let l = Loose::new(&tokens, LooseSchemaConfig::default());
        Self {
            label,
            input,
            gt,
            tokens,
            raw_t,
            blocks_t,
            l,
        }
    }
}

/// BLAST's phases 1–2 under one schema configuration, and the χ²·h graph
/// over the cleaned blocks (degrees included, so every scheme can run on
/// it).
struct Loose {
    schema: LooseSchemaInfo,
    /// The loosely schema-aware blocks before purging + filtering.
    raw: BlockCollection,
    /// After purging + filtering: the blocks meta-blocking runs on.
    blocks: BlockCollection,
    graph: GraphSnapshot,
}

impl Loose {
    /// `config.tokenizer` is not consulted: `tokens` already fixes τ.
    fn new(tokens: &TokenizedInput, config: LooseSchemaConfig) -> Self {
        let schema = LooseSchemaExtractor::new(config).extract_tokenized(tokens);
        let raw = TokenBlocking::build_tokenized(tokens, &schema.partitioning);
        let blocks = clean(&raw);
        let entropies = schema.partitioning.block_entropies(&blocks);
        let mut graph = GraphSnapshot::build(&blocks).with_block_entropies(entropies);
        graph.ensure_degrees();
        Self {
            schema,
            raw,
            blocks,
            graph,
        }
    }

    /// BLAST's meta-blocking (phase 3) with pruning constants `c` and `d`.
    fn blast_with(&self, c: f64, d: f64) -> RetainedPairs {
        BlastPruning::with_constants(c, d).prune(&self.graph, &ChiSquaredWeigher::new())
    }

    /// The full BLAST output at the paper's constants.
    fn blast(&self) -> RetainedPairs {
        self.blast_with(2.0, 2.0)
    }
}

/// Block Purging + Block Filtering at the paper's settings (§4.1).
fn clean(blocks: &BlockCollection) -> BlockCollection {
    BlockFiltering::new().filter(&BlockPurging::new().purge(blocks))
}

/// One method row of Tables 4, 5 and 7.
struct Row {
    label: String,
    pc: f64,
    pq: f64,
    f1: f64,
    /// ‖B‖ of the restructured collection (retained comparisons).
    comparisons: u64,
}

impl Row {
    fn new(label: impl Into<String>, retained: &RetainedPairs, gt: &GroundTruth) -> Self {
        let q = evaluate_pairs(retained.pairs(), gt);
        Self {
            label: label.into(),
            pc: q.pc,
            pq: q.pq,
            f1: q.f1,
            comparisons: retained.len() as u64,
        }
    }

    fn header() -> String {
        format!(
            "{:<14} {:>7} {:>9} {:>7} {:>10}",
            "method", "PC(%)", "PQ(%)", "F1", "|B|"
        )
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} {:>7.2} {:>9.4} {:>7.3} {:>10}",
            self.label,
            self.pc * 100.0,
            self.pq * 100.0,
            self.f1,
            fmt_card(self.comparisons),
        )
    }
}

/// The scheme × pruning sweep over one graph: every cell runs
/// [`PruningAlgorithm::prune`] — the path `MetaBlocker::run` and the
/// equivalence suites gate — and each row averages its algorithm's cells
/// over the five weighting schemes. Rows are ordered like `algorithms`.
fn sweep(
    graph: &GraphSnapshot,
    algorithms: &[PruningAlgorithm],
    gt: &GroundTruth,
    label: impl Fn(PruningAlgorithm) -> String,
) -> Vec<Row> {
    let schemes = WeightingScheme::ALL.len();
    let mut rows: Vec<Row> = algorithms
        .iter()
        .map(|&a| Row {
            label: label(a),
            pc: 0.0,
            pq: 0.0,
            f1: 0.0,
            comparisons: 0,
        })
        .collect();
    for scheme in WeightingScheme::ALL {
        for (row, algorithm) in rows.iter_mut().zip(algorithms) {
            let retained = algorithm.prune(graph, &scheme);
            let q = evaluate_pairs(retained.pairs(), gt);
            row.pc += q.pc / schemes as f64;
            row.pq += q.pq / schemes as f64;
            row.f1 += q.f1 / schemes as f64;
            row.comparisons += retained.len() as u64;
        }
    }
    for row in &mut rows {
        row.comparisons /= schemes as u64;
    }
    rows
}

/// The Table 4/5 method rows of one clean-clean preset.
struct Compared {
    /// wnp1, wnp2, cnp1, cnp2 on the T blocks.
    t: Vec<Row>,
    /// The same on the L blocks.
    l: Vec<Row>,
    /// cnp1, cnp2 with BLAST's χ²·h weights on the L blocks.
    chi2h: Vec<Row>,
    /// Supervised meta-blocking \[19\] on the T blocks.
    sup: Row,
    blast: Row,
}

impl Compared {
    fn new(p: &Prepared) -> Self {
        let mut graph_t = GraphSnapshot::build(&p.blocks_t);
        graph_t.ensure_degrees();
        let (sup, _train) = SupervisedMetaBlocking::new().run(&p.blocks_t, &p.gt);
        Self {
            t: sweep(&graph_t, &NODE_CENTRIC, &p.gt, |a| {
                format!("{} T", a.label())
            }),
            l: sweep(&p.l.graph, &NODE_CENTRIC, &p.gt, |a| {
                format!("{} L", a.label())
            }),
            chi2h: [PruningAlgorithm::Cnp1, PruningAlgorithm::Cnp2]
                .iter()
                .map(|a| {
                    let retained = a.prune(&p.l.graph, &ChiSquaredWeigher::new());
                    Row::new(format!("{} Lchi2h", a.label()), &retained, &p.gt)
                })
                .collect(),
            sup: Row::new("sup. MB", &sup, &p.gt),
            blast: Row::new("Blast", &p.l.blast(), &p.gt),
        }
    }

    /// The rows in print order: the WNP pairs, the CNP triples (T, L,
    /// χ²·h), supervised meta-blocking, BLAST.
    fn rows(&self) -> Vec<&Row> {
        let mut rows = vec![&self.t[0], &self.l[0], &self.t[1], &self.l[1]];
        for i in 0..2 {
            rows.extend([&self.t[2 + i], &self.l[2 + i], &self.chi2h[i]]);
        }
        rows.extend([&self.sup, &self.blast]);
        rows
    }
}

/// Table 2: dataset characteristics.
fn table2(scale: f64, clean: &[(&Prepared, &Compared)], dirty: &[Prepared]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## Table 2 — dataset characteristics (scale {scale})");
    let _ = writeln!(
        out,
        "{:>5} | {:^21} | {:^13} | {:^21} | {:>8}",
        "", "|E1| - |E2|", "|A1| - |A2|", "nvp", "|D_E|"
    );
    for p in clean.iter().map(|&(p, _)| p).chain(dirty) {
        let stats = DatasetStats::of(&p.input, &p.gt);
        let _ = writeln!(out, "{}", stats.table2_row(p.label));
    }
    out
}

/// Table 3: Token Blocking alone ("T") vs with LMI ("L"), before and after
/// Block Purging + Block Filtering.
fn table3(scale: f64, clean: &[(&Prepared, &Compared)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## Table 3 — block collections (scale {scale})");
    let _ = writeln!(
        out,
        "{:>5} {:>2} | {:>7} {:>10} {:>10} | {:>7} {:>10} {:>10}",
        "", "", "PC(%)", "PQ(%)", "|Bo|", "PC(%)", "PQ(%)", "|Bf|"
    );
    let _ = writeln!(
        out,
        "{:>8} | {:^29} | {:^29}",
        "", "baseline", "after purging+filtering"
    );
    for &(p, _) in clean {
        for (tag, raw, cleaned) in [("T", &p.raw_t, &p.blocks_t), ("L", &p.l.raw, &p.l.blocks)] {
            let q0 = evaluate_blocks(raw, &p.gt);
            let q1 = evaluate_blocks(cleaned, &p.gt);
            let _ = writeln!(
                out,
                "{:>5} {:>2} | {:>7.1} {:>10.2e} {:>10} | {:>7.1} {:>10.2e} {:>10}",
                p.label,
                tag,
                q0.pc * 100.0,
                q0.pq * 100.0,
                fmt_card(q0.comparisons),
                q1.pc * 100.0,
                q1.pq * 100.0,
                fmt_card(q1.comparisons),
            );
        }
    }
    out
}

/// Table 4: the full comparison on ar1, ar2, prd, mov.
fn table4(scale: f64, presets: &[Prepared], compared: &[Compared]) -> String {
    let mut out = String::new();
    for (p, c) in presets.iter().zip(compared) {
        let _ = writeln!(
            out,
            "## Table 4 ({}) — scale {scale}, |D_E| = {}",
            p.label,
            p.gt.len()
        );
        let _ = writeln!(out, "{}", Row::header());
        for row in c.rows() {
            let _ = writeln!(out, "{row}");
        }
        let _ = writeln!(out);
    }
    out
}

/// Table 5: the dbp comparison, plus the variants whose LMI takes its
/// candidate pairs from LSH (starred).
fn table5(scale: f64, dbp: &Prepared, compared: &Compared) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Table 5 (dbp, scaled) — scale {scale}, |D_E| = {}",
        dbp.gt.len()
    );
    let _ = writeln!(out, "{}", Row::header());
    for row in compared.rows() {
        let _ = writeln!(out, "{row}");
    }
    let star = Loose::new(
        &dbp.tokens,
        LooseSchemaConfig {
            candidates: CandidateSource::lsh_default(),
            ..Default::default()
        },
    );
    for row in sweep(&star.graph, &NODE_CENTRIC, &dbp.gt, |a| {
        format!("{} L*", a.label())
    }) {
        let _ = writeln!(out, "{row}");
    }
    let _ = writeln!(out, "{}", Row::new("Blast*", &star.blast(), &dbp.gt));
    out
}

/// Table 6: LMI's candidate pairs and clusters vs LSH threshold (dbp).
fn table6(scale: f64, dbp: &Prepared, profiles: &AttributeProfiles) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Table 6 — LMI candidate pairs vs LSH threshold (dbp, scale {scale}, {} attributes)",
        profiles.len()
    );
    let _ = writeln!(
        out,
        "{:>10} {:>12} {:>10}",
        "threshold", "candidates", "clusters"
    );
    // "—" column: exact all-pairs LMI, the schema every L row uses.
    let exact = &dbp.l.schema;
    let _ = writeln!(
        out,
        "{:>10} {:>12} {:>10}",
        "-", exact.candidate_pairs, exact.clusters
    );
    for threshold in [0.10, 0.22, 0.32, 0.41, 0.55, 0.64] {
        let info = LooseSchemaExtractor::new(LooseSchemaConfig {
            candidates: CandidateSource::lsh_with_threshold(150, threshold, 0xb1a57),
            ..Default::default()
        })
        .extract_from_profiles(profiles);
        let _ = writeln!(
            out,
            "{:>10.2} {:>12} {:>10}",
            threshold, info.candidate_pairs, info.clusters
        );
    }
    out
}

/// Table 7: dirty ER (census, cora, cddb) — BLAST vs traditional WNP/CNP,
/// all in combination with LMI (the paper's footnote 13).
fn table7(scale: f64, dirty: &[Prepared]) -> String {
    let mut out = String::new();
    for p in dirty {
        let _ = writeln!(
            out,
            "## Table 7 ({}) — scale {scale}: {} profiles, {} matches, {} attrs, {} LMI clusters",
            p.label,
            p.input.total_profiles(),
            p.gt.len(),
            match &p.input {
                ErInput::Dirty(d) => d.attribute_count(),
                _ => 0,
            },
            p.l.schema.clusters,
        );
        let _ = writeln!(out, "{}", Row::header());
        let _ = writeln!(out, "{}", Row::new("Blast", &p.l.blast(), &p.gt));
        for row in sweep(&p.l.graph, &NODE_CENTRIC, &p.gt, |a| a.label().to_string()) {
            let _ = writeln!(out, "{row}");
        }
        let _ = writeln!(out);
    }
    out
}

/// Figure 5: the LSH S-curve for r = 5, b = 30.
fn fig5() -> String {
    let mut out = String::new();
    let curve = SCurve::sample(5, 30, 20);
    let _ = writeln!(
        out,
        "## Figure 5 — LSH S-curve (r = 5, b = 30), threshold ≈ {:.3}",
        curve.threshold()
    );
    for (s, p) in &curve.points {
        let bar = "#".repeat((p * 50.0).round() as usize);
        let _ = writeln!(out, "  s={s:>5.2}  P={p:>7.4}  {bar}");
    }
    out
}

/// Figure 8: component ablation — classical WNP vs chi (χ² only) vs wsh
/// (traditional schemes × entropy) vs bch (full BLAST), on the L blocks.
fn fig8(scale: f64, clean: &[(&Prepared, &Compared)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Figure 8 — BLAST component ablation (scale {scale})"
    );
    let _ = writeln!(
        out,
        "{:>5} {:>6} | {:>8} {:>8} {:>8} {:>8}",
        "", "", "wnp", "chi", "wsh", "bch"
    );
    for &(p, c) in clean {
        let graph = &p.l.graph;
        // wnp: average of the wnp1 and wnp2 rows (each over the 5 schemes).
        let (wnp1, wnp2) = (&c.l[0], &c.l[1]);
        let wnp_pc = wnp1.pc / 2.0 + wnp2.pc / 2.0;
        let wnp_pq = wnp1.pq / 2.0 + wnp2.pq / 2.0;
        // chi: BLAST pruning, χ² without the entropy factor.
        let retained = BlastPruning::new().prune(graph, &ChiSquaredWeigher::without_entropy());
        let chi = evaluate_pairs(retained.pairs(), &p.gt);
        // wsh: BLAST pruning, traditional schemes × entropy (averaged).
        let mut wsh_pc = 0.0;
        let mut wsh_pq = 0.0;
        for scheme in WeightingScheme::ALL {
            let retained = BlastPruning::new().prune(graph, &WsEntropyWeigher::new(scheme));
            let q = evaluate_pairs(retained.pairs(), &p.gt);
            wsh_pc += q.pc / 5.0;
            wsh_pq += q.pq / 5.0;
        }
        // bch: full BLAST weighting.
        let bch = &c.blast;
        let _ = writeln!(
            out,
            "{:>5} {:>6} | {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            p.label,
            "PC(%)",
            wnp_pc * 100.0,
            chi.pc * 100.0,
            wsh_pc * 100.0,
            bch.pc * 100.0
        );
        let _ = writeln!(
            out,
            "{:>5} {:>6} | {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            "",
            "PQ(%)",
            wnp_pq * 100.0,
            chi.pq * 100.0,
            wsh_pq * 100.0,
            bch.pq * 100.0
        );
    }
    out
}

/// Figure 9: LMI vs AC — PC of BLAST with each induction algorithm, and
/// ΔPQ(AC → LMI).
fn fig9(scale: f64, clean: &[(&Prepared, &Compared)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## Figure 9 — LMI vs AC (scale {scale})");
    let _ = writeln!(
        out,
        "{:>5} | {:>9} {:>9} | {:>9} {:>9} | {:>8}",
        "", "PC lmi(%)", "PC ac(%)", "PQ lmi(%)", "PQ ac(%)", "dPQ(%)"
    );
    for &(p, c) in clean {
        let lmi = &c.blast;
        let ac_blocks = Loose::new(
            &p.tokens,
            LooseSchemaConfig {
                algorithm: InductionAlgorithm::AttributeClustering,
                ..Default::default()
            },
        );
        let ac = evaluate_pairs(ac_blocks.blast().pairs(), &p.gt);
        let dpq = if ac.pq > 0.0 {
            (lmi.pq - ac.pq) / ac.pq * 100.0
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:>5} | {:>9.2} {:>9.2} | {:>9.3} {:>9.3} | {:>+8.2}",
            p.label,
            lmi.pc * 100.0,
            ac.pc * 100.0,
            lmi.pq * 100.0,
            ac.pq * 100.0,
            dpq
        );
    }
    out
}

/// Figure 10: PC of LSH-LMI Token Blocking (glue cluster disabled) vs LSH
/// threshold (dbp).
fn fig10(scale: f64, dbp: &Prepared, profiles: &AttributeProfiles) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Figure 10 — PC vs LSH threshold, glue cluster disabled (dbp, scale {scale})"
    );
    let _ = writeln!(
        out,
        "{:>10} {:>8} {:>10} {:>10}",
        "threshold", "(r,b)", "clusters", "PC(%)"
    );
    for threshold in [0.10, 0.22, 0.32, 0.41, 0.55, 0.64, 0.80] {
        let (rows, bands) = params_for_threshold(150, threshold);
        let info = LooseSchemaExtractor::new(LooseSchemaConfig {
            candidates: CandidateSource::Lsh {
                rows,
                bands,
                seed: 0xf16,
            },
            glue: false,
            ..Default::default()
        })
        .extract_from_profiles(profiles);
        let blocks = TokenBlocking::build_tokenized(&dbp.tokens, &info.partitioning);
        let q = evaluate_blocks(&blocks, &dbp.gt);
        let _ = writeln!(
            out,
            "{:>10.2} {:>8} {:>10} {:>10.2}",
            threshold,
            format!("({rows},{bands})"),
            info.clusters,
            q.pc * 100.0,
        );
    }
    out
}

/// Ablations for the design choices the defaults rest on: the pruning
/// constants c and d (§3.3.2), the glue cluster (§4.4), and the two Block
/// Purging policies. Not a paper table — supporting evidence for the
/// defaults.
fn ablations(scale: f64, ar1: &Prepared) -> String {
    let mut out = String::new();
    let gt = &ar1.gt;
    let _ = writeln!(
        out,
        "## Ablations (ar1 at scale {scale}, |D_E| = {})",
        gt.len()
    );

    let _ = writeln!(out, "\n### Pruning constants (θᵢ = Mᵢ/c, θᵢⱼ = (θᵢ+θⱼ)/d)");
    let _ = writeln!(
        out,
        "{:>5} {:>5} {:>8} {:>8} {:>8} {:>9}",
        "c", "d", "PC(%)", "PQ(%)", "F1", "|B|"
    );
    for c in [1.0, 1.5, 2.0, 3.0, 5.0] {
        for d in [1.0, 2.0, 4.0] {
            let pairs = ar1.l.blast_with(c, d);
            let q = evaluate_pairs(pairs.pairs(), gt);
            let _ = writeln!(
                out,
                "{c:>5.1} {d:>5.1} {:>8.2} {:>8.2} {:>8.3} {:>9}",
                q.pc * 100.0,
                q.pq * 100.0,
                q.f1,
                pairs.len()
            );
        }
    }

    let _ = writeln!(out, "\n### Glue cluster");
    let no_glue = Loose::new(
        &ar1.tokens,
        LooseSchemaConfig {
            glue: false,
            ..Default::default()
        },
    );
    for (glue, loose) in [(true, &ar1.l), (false, &no_glue)] {
        let q = evaluate_pairs(loose.blast().pairs(), gt);
        let _ = writeln!(
            out,
            "glue = {glue:<5}  PC = {:>6.2}%  PQ = {:>6.2}%  F1 = {:.3}",
            q.pc * 100.0,
            q.pq * 100.0,
            q.f1
        );
    }

    let _ = writeln!(
        out,
        "\n### Block Purging policy (on the LMI blocks, before filtering)"
    );
    let _ = writeln!(
        out,
        "{:<26} {:>8} {:>10} {:>10}",
        "policy", "PC(%)", "PQ(%)", "|B|"
    );
    let raw = &ar1.l.raw;
    let filter = |blocks: &BlockCollection| BlockFiltering::new().filter(blocks);
    for (name, filtered) in [
        ("none", filter(raw)),
        (
            "half-collection (paper)",
            filter(&BlockPurging::new().purge(raw)),
        ),
        (
            "cardinality-adaptive [18]",
            filter(&CardinalityPurging::new().purge(raw)),
        ),
    ] {
        let q = evaluate_blocks(&filtered, gt);
        let _ = writeln!(
            out,
            "{name:<26} {:>8.2} {:>10.4} {:>10}",
            q.pc * 100.0,
            q.pq * 100.0,
            fmt_card(q.comparisons)
        );
    }
    out
}

/// §4.2.2's argument: executing the comparisons of the cleaned block
/// collection vs only BLAST's retained ones with the paper's simple
/// profile-Jaccard matcher. The paper reports ~2 h vs ~50 h on dbp; here
/// the comparison counts carry the ratio, and F1 shows what pruning costs.
fn er_time(scale: f64, half: &[Prepared]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## ER time saved by meta-blocking (§4.2.2), scale {scale}"
    );
    let _ = writeln!(
        out,
        "{:<6} {:>12} {:>10} | {:>12} {:>10}",
        "", "cmp(blocks)", "F1", "cmp(Blast)", "F1"
    );
    let matcher = JaccardMatcher::new(0.35);
    for p in half {
        let full = matcher.match_blocks(&p.input, &p.l.blocks);
        let pruned = matcher.match_pairs(&p.input, &p.l.blast());
        let _ = writeln!(
            out,
            "{:<6} {:>12} {:>10.3} | {:>12} {:>10.3}",
            p.label,
            full.comparisons,
            evaluate_matches(&full.matches, &p.gt).f1,
            pruned.comparisons,
            evaluate_matches(&pruned.matches, &p.gt).f1,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_graph::meta::MetaBlocker;

    /// The one-graph sweep must reproduce `MetaBlocker::run` in every
    /// cell, averaged the same way (quality and retained counts).
    #[test]
    fn sweep_matches_individual_runs() {
        let prepared = Prepared::clean_clean(CleanCleanPreset::Ar1, 0.03);
        let algorithms = [
            PruningAlgorithm::Wep,
            PruningAlgorithm::Cep,
            PruningAlgorithm::Wnp1,
            PruningAlgorithm::Wnp2,
            PruningAlgorithm::Cnp1,
            PruningAlgorithm::Cnp2,
        ];
        let mut graph = GraphSnapshot::build(&prepared.blocks_t);
        graph.ensure_degrees();
        let swept = sweep(&graph, &algorithms, &prepared.gt, |a| a.label().to_string());
        for (row, &algorithm) in swept.iter().zip(&algorithms) {
            let mut pc = 0.0;
            let mut comparisons = 0u64;
            for scheme in WeightingScheme::ALL {
                let retained = MetaBlocker::new(scheme, algorithm).run(&prepared.blocks_t);
                pc += evaluate_pairs(retained.pairs(), &prepared.gt).pc
                    / WeightingScheme::ALL.len() as f64;
                comparisons += retained.len() as u64;
            }
            assert!(
                (row.pc - pc).abs() < 1e-12,
                "{}: PC {} vs {}",
                algorithm.label(),
                row.pc,
                pc
            );
            assert_eq!(
                row.comparisons,
                comparisons / WeightingScheme::ALL.len() as u64,
                "{}",
                algorithm.label()
            );
        }
    }
}
