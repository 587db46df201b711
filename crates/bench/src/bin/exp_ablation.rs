//! Ablation sweeps for the design choices the defaults rest on:
//! the pruning constants c and d (§3.3.2), the glue cluster (§4.4), and the
//! two Block Purging policies. Not a paper table — supporting evidence for
//! the defaults.

use blast_blocking::filtering::BlockFiltering;
use blast_blocking::purging::{BlockPurging, CardinalityPurging};
use blast_blocking::token_blocking::TokenBlocking;
use blast_core::config::BlastConfig;
use blast_core::pipeline::BlastPipeline;
use blast_core::schema::extraction::{LooseSchemaConfig, LooseSchemaExtractor};
use blast_datagen::{clean_clean_preset, generate_clean_clean, CleanCleanPreset};
use blast_metrics::quality::{evaluate_blocks, evaluate_pairs};

fn main() {
    let scale = blast_bench::scale();
    let spec = clean_clean_preset(CleanCleanPreset::Ar1).scaled(scale * 0.5);
    let (input, gt) = generate_clean_clean(&spec);
    println!(
        "## Ablations (ar1 at scale {}, |D_E| = {})",
        scale * 0.5,
        gt.len()
    );

    // --- c / d sweep -----------------------------------------------------
    println!("\n### Pruning constants (θᵢ = Mᵢ/c, θᵢⱼ = (θᵢ+θⱼ)/d)");
    println!(
        "{:>5} {:>5} {:>8} {:>8} {:>8} {:>9}",
        "c", "d", "PC(%)", "PQ(%)", "F1", "|B|"
    );
    for c in [1.0, 1.5, 2.0, 3.0, 5.0] {
        for d in [1.0, 2.0, 4.0] {
            let outcome =
                BlastPipeline::new(BlastConfig::default().with_pruning_constants(c, d)).run(&input);
            let q = evaluate_pairs(outcome.pairs.pairs(), &gt);
            println!(
                "{c:>5.1} {d:>5.1} {:>8.2} {:>8.2} {:>8.3} {:>9}",
                q.pc * 100.0,
                q.pq * 100.0,
                q.f1,
                outcome.pairs.len()
            );
        }
    }

    // --- glue cluster ----------------------------------------------------
    println!("\n### Glue cluster");
    for glue in [true, false] {
        let outcome = BlastPipeline::new(BlastConfig {
            schema: LooseSchemaConfig {
                glue,
                ..Default::default()
            },
            ..BlastConfig::default()
        })
        .run(&input);
        let q = evaluate_pairs(outcome.pairs.pairs(), &gt);
        println!(
            "glue = {glue:<5}  PC = {:>6.2}%  PQ = {:>6.2}%  F1 = {:.3}",
            q.pc * 100.0,
            q.pq * 100.0,
            q.f1
        );
    }

    // --- purging policies --------------------------------------------------
    println!("\n### Block Purging policy (on the LMI blocks, before filtering)");
    let info = LooseSchemaExtractor::new(LooseSchemaConfig::default()).extract(&input);
    let blocks = TokenBlocking::new().build_with(&input, &info.partitioning);
    type Policy<'a> = (
        &'a str,
        Box<dyn Fn() -> blast_blocking::BlockCollection + 'a>,
    );
    let policies: [Policy<'_>; 3] = [
        (
            "none",
            Box::new(|| blocks.with_blocks(blocks.blocks().to_vec())),
        ),
        (
            "half-collection (paper)",
            Box::new(|| BlockPurging::new().purge(&blocks)),
        ),
        (
            "cardinality-adaptive [18]",
            Box::new(|| CardinalityPurging::new().purge(&blocks)),
        ),
    ];
    println!(
        "{:<26} {:>8} {:>10} {:>10}",
        "policy", "PC(%)", "PQ(%)", "|B|"
    );
    for (name, purge) in policies {
        let purged = BlockFiltering::new().filter(&purge());
        let q = evaluate_blocks(&purged, &gt);
        println!(
            "{name:<26} {:>8.2} {:>10.4} {:>10}",
            q.pc * 100.0,
            q.pq * 100.0,
            blast_metrics::report::fmt_card(q.comparisons)
        );
    }
}
