//! Criterion: pruning-algorithm ablation — WEP/CEP/WNP/CNP vs BLAST's
//! local-max pruning, plus a sweep of BLAST's threshold divisor c. One of
//! the criterion benches of `crates/bench` (`README.md`, "Workspace
//! layout"); the repo's performance benchmark is `benchmark/README.md`.

use blast_blocking::filtering::BlockFiltering;
use blast_blocking::purging::BlockPurging;
use blast_blocking::token_blocking::TokenBlocking;
use blast_core::pruning::BlastPruning;
use blast_core::weighting::ChiSquaredWeigher;
use blast_datagen::{clean_clean_preset, generate_clean_clean, CleanCleanPreset};
use blast_graph::meta::PruningAlgorithm;
use blast_graph::weights::WeightingScheme;
use blast_graph::GraphSnapshot;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_pruning(c: &mut Criterion) {
    let spec = clean_clean_preset(CleanCleanPreset::Ar1).scaled(0.25);
    let (input, _) = generate_clean_clean(&spec);
    let blocks = {
        let b = TokenBlocking::new().build(&input);
        BlockFiltering::new().filter(&BlockPurging::new().purge(&b))
    };
    let mut ctx = GraphSnapshot::build(&blocks);
    ctx.ensure_degrees();

    let mut g = c.benchmark_group("pruning");
    g.sample_size(10);
    for algorithm in PruningAlgorithm::ALL {
        g.bench_function(algorithm.label(), |b| {
            b.iter(|| algorithm.prune(&ctx, &WeightingScheme::Cbs).len())
        });
    }
    g.bench_function("blast_c2_d2", |b| {
        b.iter(|| {
            BlastPruning::new()
                .prune(&ctx, &ChiSquaredWeigher::without_entropy())
                .len()
        })
    });
    for c_const in [1.0, 4.0] {
        g.bench_function(format!("blast_c{c_const}"), |b| {
            b.iter(|| {
                BlastPruning::with_constants(c_const, 2.0)
                    .prune(&ctx, &ChiSquaredWeigher::without_entropy())
                    .len()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_pruning);
criterion_main!(benches);
