//! End-to-end quality assertions: the §4 claims, at test scale.

use blast::core::pipeline::{BlastConfig, BlastPipeline};
use blast::datagen::{clean_clean_preset, generate_clean_clean, CleanCleanPreset};
use blast::graph::{MetaBlocker, PruningAlgorithm, WeightingScheme};
use blast::metrics::evaluate_pairs;

/// Table 4's headline: BLAST beats traditional WNP on PQ/F1 with ΔPC no
/// worse than −6 %.
#[test]
fn blast_beats_traditional_wnp_on_f1() {
    let spec = clean_clean_preset(CleanCleanPreset::Ar1).scaled(0.1);
    let (input, gt) = generate_clean_clean(&spec);

    let pipeline = BlastPipeline::new(BlastConfig::default());
    let outcome = pipeline.run(&input);
    let blast_q = evaluate_pairs(outcome.pairs.pairs(), &gt);

    let (blocks, _) = pipeline.build_blocks(&input);
    for algorithm in [PruningAlgorithm::Wnp1, PruningAlgorithm::Wnp2] {
        let mut avg_pc = 0.0;
        let mut avg_f1 = 0.0;
        for scheme in WeightingScheme::ALL {
            let retained = MetaBlocker::new(scheme, algorithm).run(&blocks);
            let q = evaluate_pairs(retained.pairs(), &gt);
            avg_pc += q.pc / 5.0;
            avg_f1 += q.f1 / 5.0;
        }
        assert!(
            blast_q.f1 > avg_f1,
            "{}: BLAST F1 {} must beat avg F1 {}",
            algorithm.label(),
            blast_q.f1,
            avg_f1
        );
        assert!(
            blast_q.pc >= avg_pc - 0.06,
            "{}: ΔPC must stay within −6 % (blast {}, wnp {})",
            algorithm.label(),
            blast_q.pc,
            avg_pc
        );
    }
}

/// §4.2: BLAST's PQ gain over traditional weight-based meta-blocking is
/// large (up to two orders of magnitude in the paper; ≥2× at toy scale).
#[test]
fn blast_pq_gain_is_substantial() {
    let spec = clean_clean_preset(CleanCleanPreset::Ar1).scaled(0.1);
    let (input, gt) = generate_clean_clean(&spec);
    let pipeline = BlastPipeline::new(BlastConfig::default());
    let outcome = pipeline.run(&input);
    let blast_q = evaluate_pairs(outcome.pairs.pairs(), &gt);
    let (blocks, _) = pipeline.build_blocks(&input);
    let wnp1 = MetaBlocker::new(WeightingScheme::Cbs, PruningAlgorithm::Wnp1).run(&blocks);
    let wnp1_q = evaluate_pairs(wnp1.pairs(), &gt);
    assert!(
        blast_q.pq > 2.0 * wnp1_q.pq,
        "BLAST PQ {} vs wnp1 PQ {}",
        blast_q.pq,
        wnp1_q.pq
    );
}

/// The χ²ₕ weighting composed with traditional CNP (the "Blast Lχ²ₕ" rows):
/// recall stays higher than plain reciprocal CNP.
#[test]
fn chi_squared_weighting_lifts_cnp_recall() {
    use blast::core::weighting::ChiSquaredWeigher;
    use blast::graph::GraphSnapshot;

    let spec = clean_clean_preset(CleanCleanPreset::Prd).scaled(0.3);
    let (input, gt) = generate_clean_clean(&spec);
    let pipeline = BlastPipeline::new(BlastConfig::default());
    let (blocks, schema) = pipeline.build_blocks(&input);

    // Plain cnp2, averaged over the traditional schemes.
    let mut plain_pc = 0.0;
    for scheme in WeightingScheme::ALL {
        let retained = MetaBlocker::new(scheme, PruningAlgorithm::Cnp2).run(&blocks);
        plain_pc += evaluate_pairs(retained.pairs(), &gt).pc / 5.0;
    }

    // cnp2 with BLAST's χ²·h weighting.
    let entropies = schema.partitioning.block_entropies(&blocks);
    let ctx = GraphSnapshot::build(&blocks).with_block_entropies(entropies);
    let retained = PruningAlgorithm::Cnp2.prune(&ctx, &ChiSquaredWeigher::new());
    let chi_pc = evaluate_pairs(retained.pairs(), &gt).pc;

    assert!(
        chi_pc >= plain_pc - 0.02,
        "χ²ₕ CNP recall {chi_pc} should not trail plain CNP {plain_pc}"
    );
}

/// Supervised meta-blocking runs end to end and BLAST is competitive with
/// it (the paper: BLAST beats supervised MB on most datasets).
#[test]
fn blast_competitive_with_supervised() {
    use blast::ml::SupervisedMetaBlocking;

    let spec = clean_clean_preset(CleanCleanPreset::Ar1).scaled(0.1);
    let (input, gt) = generate_clean_clean(&spec);
    let pipeline = BlastPipeline::new(BlastConfig::default());
    let (blocks, _) = pipeline.build_blocks(&input);

    let (sup_pairs, _train) = SupervisedMetaBlocking::new().run(&blocks, &gt);
    let sup_q = evaluate_pairs(sup_pairs.pairs(), &gt);

    let outcome = pipeline.run(&input);
    let blast_q = evaluate_pairs(outcome.pairs.pairs(), &gt);

    assert!(
        sup_q.pc > 0.5,
        "supervised should find most matches, PC {}",
        sup_q.pc
    );
    assert!(
        blast_q.f1 >= sup_q.f1 * 0.8,
        "BLAST F1 {} should be within 20 % of supervised F1 {}",
        blast_q.f1,
        sup_q.f1
    );
}

/// Meta-blocking output is a valid restructuring: pairs are unique, cross
/// the separator, and every retained pair already co-occurred in a block.
#[test]
fn retained_pairs_are_a_valid_restructuring() {
    use blast::blocking::ProfileBlockIndex;

    let spec = clean_clean_preset(CleanCleanPreset::Ar1).scaled(0.05);
    let (input, _) = generate_clean_clean(&spec);
    let pipeline = BlastPipeline::new(BlastConfig::default());
    let outcome = pipeline.run(&input);
    let index = ProfileBlockIndex::build(&outcome.blocks);
    let sep = input.separator();
    for (a, b) in outcome.pairs.iter() {
        assert!(a.0 < sep && b.0 >= sep, "pair crosses the separator");
        assert!(
            index.co_occur(a.0, b.0),
            "retained pair must come from a block"
        );
    }
}
