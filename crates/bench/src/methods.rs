//! The compared methods, packaged for the experiment tables.

use blast_blocking::collection::BlockCollection;
use blast_core::config::BlastConfig;
use blast_core::pipeline::BlastPipeline;
use blast_core::schema::extraction::{LooseSchemaConfig, LooseSchemaInfo};
use blast_core::weighting::ChiSquaredWeigher;
use blast_datamodel::ground_truth::GroundTruth;
use blast_datamodel::input::ErInput;
use blast_graph::meta::PruningAlgorithm;
use blast_graph::weights::WeightingScheme;
use blast_graph::GraphSnapshot;
use blast_metrics::quality::{evaluate_pairs, BlockQuality};
use blast_ml::SupervisedMetaBlocking;
use std::time::Instant;

/// One table row: a method's quality, time and output size.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Row label (paper style: "wnp1 T", "Blast", …).
    pub label: String,
    /// PC/PQ/F1 against the ground truth.
    pub quality: BlockQuality,
    /// Overhead time tₒ in seconds.
    pub seconds: f64,
    /// ‖B‖ of the restructured collection (retained comparisons).
    pub comparisons: u64,
}

impl MethodResult {
    /// Formats the row in the Table 4/5 layout.
    pub fn row(&self) -> String {
        format!(
            "{:<14} {:>7.2} {:>9.4} {:>7.3} {:>8.2} {:>10}",
            self.label,
            self.quality.pc * 100.0,
            self.quality.pq * 100.0,
            self.quality.f1,
            self.seconds,
            blast_metrics::report::fmt_card(self.comparisons),
        )
    }

    /// The Table 4/5 header matching [`MethodResult::row`].
    pub fn header() -> String {
        format!(
            "{:<14} {:>7} {:>9} {:>7} {:>8} {:>10}",
            "method", "PC(%)", "PQ(%)", "F1", "to(s)", "|B|"
        )
    }
}

/// Prepared inputs for one dataset: the T (Token Blocking) and L (LMI)
/// block collections after purging+filtering, plus the schema info.
pub struct PreparedDataset {
    /// The ER input.
    pub input: ErInput,
    /// Ground truth.
    pub gt: GroundTruth,
    /// Blocks from plain Token Blocking (+cleaning).
    pub blocks_t: BlockCollection,
    /// Blocks from loosely schema-aware blocking (+cleaning).
    pub blocks_l: BlockCollection,
    /// The loose schema info behind `blocks_l`.
    pub schema: LooseSchemaInfo,
    /// Time spent building the L blocks (includes LMI; the L rows' tₒ
    /// baseline).
    pub l_seconds: f64,
}

/// Builds the T and L block collections the §4.1 workflow compares.
pub fn prepare(
    input: ErInput,
    gt: GroundTruth,
    schema_config: LooseSchemaConfig,
) -> PreparedDataset {
    use blast_blocking::filtering::BlockFiltering;
    use blast_blocking::purging::BlockPurging;
    use blast_blocking::token_blocking::TokenBlocking;

    let clean =
        |blocks: BlockCollection| BlockFiltering::new().filter(&BlockPurging::new().purge(&blocks));

    let blocks_t = clean(TokenBlocking::new().build(&input));

    let t0 = Instant::now();
    let pipeline = BlastPipeline::new(BlastConfig {
        schema: schema_config,
        ..BlastConfig::default()
    });
    let (blocks_l, schema) = pipeline.build_blocks(&input);
    let l_seconds = t0.elapsed().as_secs_f64();

    PreparedDataset {
        input,
        gt,
        blocks_t,
        blocks_l,
        schema,
        l_seconds,
    }
}

/// Traditional meta-blocking averaged over the five weighting schemes —
/// the "wnp1/wnp2/cnp1/cnp2 × T/L" rows. One-algorithm convenience over
/// [`run_traditional_sweep`].
pub fn run_traditional_avg(
    label: &str,
    blocks: &BlockCollection,
    algorithm: PruningAlgorithm,
    gt: &GroundTruth,
    extra_seconds: f64,
) -> MethodResult {
    run_traditional_sweep(blocks, &[algorithm], gt, extra_seconds, |_| {
        label.to_string()
    })
    .pop()
    .expect("one algorithm, one row")
}

/// The scheme × pruning sweep over one graph snapshot: the snapshot is
/// built and its degrees computed once (EJS is among the schemes) instead
/// of once per cell, and every cell runs [`PruningAlgorithm::prune`] — the
/// path `MetaBlocker::run` and the equivalence suites gate. Returned rows
/// are ordered like `algorithms`; per-row seconds charge each algorithm its
/// own prunings plus an even share of the shared setup.
pub fn run_traditional_sweep(
    blocks: &BlockCollection,
    algorithms: &[PruningAlgorithm],
    gt: &GroundTruth,
    extra_seconds: f64,
    label: impl Fn(PruningAlgorithm) -> String,
) -> Vec<MethodResult> {
    let n_schemes = WeightingScheme::ALL.len() as f64;
    let share = algorithms.len() as f64;

    let t0 = Instant::now();
    let mut ctx = GraphSnapshot::build(blocks);
    // Degrees once for the whole sweep (EJS is among the schemes).
    ctx.ensure_degrees();
    let shared_setup = t0.elapsed().as_secs_f64() / share;

    struct Acc {
        pc: f64,
        pq: f64,
        f1: f64,
        comparisons: u64,
        seconds: f64,
    }
    let mut accs: Vec<Acc> = algorithms
        .iter()
        .map(|_| Acc {
            pc: 0.0,
            pq: 0.0,
            f1: 0.0,
            comparisons: 0,
            seconds: shared_setup,
        })
        .collect();

    for scheme in WeightingScheme::ALL {
        for (acc, &algorithm) in accs.iter_mut().zip(algorithms) {
            let t1 = Instant::now();
            let retained = algorithm.prune(&ctx, &scheme);
            acc.seconds += t1.elapsed().as_secs_f64();
            let q = evaluate_pairs(retained.pairs(), gt);
            acc.pc += q.pc / n_schemes;
            acc.pq += q.pq / n_schemes;
            acc.f1 += q.f1 / n_schemes;
            acc.comparisons += retained.len() as u64;
        }
    }

    accs.iter()
        .zip(algorithms)
        .map(|(acc, &algorithm)| MethodResult {
            label: label(algorithm),
            quality: BlockQuality {
                pc: acc.pc,
                pq: acc.pq,
                f1: acc.f1,
                detected: 0,
                total_duplicates: gt.len() as u64,
                comparisons: acc.comparisons / WeightingScheme::ALL.len() as u64,
            },
            seconds: acc.seconds / n_schemes + extra_seconds,
            comparisons: acc.comparisons / WeightingScheme::ALL.len() as u64,
        })
        .collect()
}

/// Traditional CNP with BLAST's χ²·h weighting — the "Blast Lχ²ₕ" rows.
pub fn run_blast_weighted_cnp(
    label: &str,
    prepared: &PreparedDataset,
    algorithm: PruningAlgorithm,
) -> MethodResult {
    let t0 = Instant::now();
    let entropies = prepared
        .schema
        .partitioning
        .block_entropies(&prepared.blocks_l);
    let ctx = GraphSnapshot::build(&prepared.blocks_l).with_block_entropies(entropies);
    let retained = algorithm.prune(&ctx, &ChiSquaredWeigher::new());
    let seconds = t0.elapsed().as_secs_f64() + prepared.l_seconds;
    let quality = evaluate_pairs(retained.pairs(), &prepared.gt);
    MethodResult {
        label: label.to_string(),
        quality,
        seconds,
        comparisons: retained.len() as u64,
    }
}

/// Supervised meta-blocking \[19\] on the T blocks.
pub fn run_supervised(prepared: &PreparedDataset) -> MethodResult {
    let t0 = Instant::now();
    let (retained, _train) = SupervisedMetaBlocking::new().run(&prepared.blocks_t, &prepared.gt);
    let seconds = t0.elapsed().as_secs_f64();
    let quality = evaluate_pairs(retained.pairs(), &prepared.gt);
    MethodResult {
        label: "sup. MB".to_string(),
        quality,
        seconds,
        comparisons: retained.len() as u64,
    }
}

/// The full BLAST pipeline.
pub fn run_blast(
    prepared: &PreparedDataset,
    schema_config: LooseSchemaConfig,
    label: &str,
) -> MethodResult {
    let t0 = Instant::now();
    let outcome = BlastPipeline::new(BlastConfig {
        schema: schema_config,
        ..BlastConfig::default()
    })
    .run(&prepared.input);
    let seconds = t0.elapsed().as_secs_f64();
    let quality = evaluate_pairs(outcome.pairs.pairs(), &prepared.gt);
    MethodResult {
        label: label.to_string(),
        quality,
        seconds,
        comparisons: outcome.pairs.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_datagen::{clean_clean_preset, generate_clean_clean, CleanCleanPreset};
    use blast_graph::meta::MetaBlocker;

    #[test]
    fn prepare_and_run_all_method_families() {
        let spec = clean_clean_preset(CleanCleanPreset::Ar1).scaled(0.03);
        let (input, gt) = generate_clean_clean(&spec);
        let prepared = prepare(input, gt, LooseSchemaConfig::default());

        let r1 = run_traditional_avg(
            "wnp1 T",
            &prepared.blocks_t,
            PruningAlgorithm::Wnp1,
            &prepared.gt,
            0.0,
        );
        assert!(r1.quality.pc > 0.5);
        let r2 = run_blast_weighted_cnp("cnp1 chi2h", &prepared, PruningAlgorithm::Cnp1);
        assert!(r2.quality.pc > 0.5);
        let r3 = run_supervised(&prepared);
        assert!(r3.comparisons > 0);
        let r4 = run_blast(&prepared, LooseSchemaConfig::default(), "Blast");
        assert!(r4.quality.f1 >= r1.quality.f1 * 0.5);
        // Rows render.
        assert!(MethodResult::header().contains("PC"));
        assert!(r4.row().contains("Blast"));
    }

    /// The shared-edge-list sweep must reproduce the per-call path exactly
    /// (quality and retained counts; only the timing amortisation differs).
    #[test]
    fn sweep_matches_individual_runs() {
        let spec = clean_clean_preset(CleanCleanPreset::Ar1).scaled(0.03);
        let (input, gt) = generate_clean_clean(&spec);
        let prepared = prepare(input, gt, LooseSchemaConfig::default());
        let algorithms = [
            PruningAlgorithm::Wep,
            PruningAlgorithm::Cep,
            PruningAlgorithm::Wnp1,
            PruningAlgorithm::Wnp2,
            PruningAlgorithm::Cnp1,
            PruningAlgorithm::Cnp2,
        ];
        let swept =
            run_traditional_sweep(&prepared.blocks_t, &algorithms, &prepared.gt, 0.0, |a| {
                a.label().to_string()
            });
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
                (row.quality.pc - pc).abs() < 1e-12,
                "{}: PC {} vs {}",
                algorithm.label(),
                row.quality.pc,
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
