//! Equivalence and determinism guarantees of the dense scratch-array graph
//! engine, checked at the pipeline level on realistic datagen collections.
//!
//! * Every pruning algorithm × weighting scheme must retain exactly the
//!   pairs a naive hashmap-reference meta-blocker retains (the pre-engine
//!   semantics): bit-exact weights, same tie-breaking.
//! * Every pruning algorithm must produce identical output at 1, 2 and 8
//!   threads — the work-stealing chunk geometry is thread-independent, so
//!   even floating-point folds cannot drift.

use blast::blocking::{BlockFiltering, BlockPurging, TokenBlocking};
use blast::core::pruning::BlastPruning;
use blast::core::weighting::ChiSquaredWeigher;
use blast::datagen::{clean_clean_preset, dirty_preset, CleanCleanPreset, DirtyPreset};
use blast::datamodel::hash::FastMap;
use blast::datamodel::ProfileId;
use blast::graph::context::EdgeAccum;
use blast::graph::{EdgeWeigher, GraphSnapshot, PruningAlgorithm, WeightingScheme};
use blast_blocking::collection::BlockCollection;

/// Token blocking + cleaning on a small Zipf-skewed dirty collection.
fn dirty_blocks() -> BlockCollection {
    let spec = dirty_preset(DirtyPreset::Cora).scaled(0.05);
    let (input, _) = blast::datagen::generate_dirty(&spec);
    let b = TokenBlocking::new().build(&input);
    BlockFiltering::new().filter(&BlockPurging::new().purge(&b))
}

/// The same for a clean-clean collection.
fn clean_blocks() -> BlockCollection {
    let spec = clean_clean_preset(CleanCleanPreset::Ar1).scaled(0.05);
    let (input, _) = blast::datagen::generate_clean_clean(&spec);
    let b = TokenBlocking::new().build(&input);
    BlockFiltering::new().filter(&BlockPurging::new().purge(&b))
}

/// The naive reference adjacency of one node, sorted by neighbour id —
/// exactly what the pre-engine hashmap accumulation produced.
fn naive_adjacency(ctx: &GraphSnapshot, node: u32) -> Vec<(u32, EdgeAccum)> {
    let mut map: FastMap<u32, EdgeAccum> = FastMap::default();
    ctx.accumulate_neighbors(node, &mut map);
    let mut adj: Vec<(u32, EdgeAccum)> = map.into_iter().collect();
    adj.sort_unstable_by_key(|(v, _)| *v);
    adj
}

/// Naive sequential edge enumeration (ascending u then v), weighted.
fn naive_edges(ctx: &GraphSnapshot, weigher: &dyn EdgeWeigher) -> Vec<(u32, u32, f64)> {
    let clean = ctx.is_clean_clean();
    let mut out = Vec::new();
    for u in ctx.edge_owner_range() {
        for (v, acc) in naive_adjacency(ctx, u) {
            if !clean && v <= u {
                continue;
            }
            out.push((u, v, weigher.weight(ctx, u, v, &acc)));
        }
    }
    out
}

/// A naive, sequential re-implementation of all six pruning algorithms on
/// the hashmap reference path, mirroring the reference semantics
/// (thresholds, budgets, tie-breaking).
fn naive_prune(
    ctx: &GraphSnapshot,
    weigher: &dyn EdgeWeigher,
    algorithm: PruningAlgorithm,
) -> Vec<(ProfileId, ProfileId)> {
    let edges = naive_edges(ctx, weigher);
    let mut pairs: Vec<(ProfileId, ProfileId)> = match algorithm {
        PruningAlgorithm::Wep => {
            if edges.is_empty() {
                return Vec::new();
            }
            let theta = edges.iter().map(|&(_, _, w)| w).sum::<f64>() / edges.len() as f64;
            edges
                .iter()
                .filter(|&&(_, _, w)| w >= theta)
                .map(|&(u, v, _)| (ProfileId(u), ProfileId(v)))
                .collect()
        }
        PruningAlgorithm::Cep => {
            let k = (ctx.index().total_assignments() / 2) as usize;
            if k == 0 || edges.is_empty() {
                return Vec::new();
            }
            let mut ranked: Vec<(f64, u32, u32)> =
                edges.iter().map(|&(u, v, w)| (w, u, v)).collect();
            // Weight descending, then ascending (u, v): the deterministic
            // top-K order.
            ranked.sort_by(|a, b| {
                b.0.partial_cmp(&a.0)
                    .unwrap()
                    .then_with(|| (a.1, a.2).cmp(&(b.1, b.2)))
            });
            ranked.truncate(k);
            ranked
                .into_iter()
                .map(|(_, u, v)| (ProfileId(u), ProfileId(v)))
                .collect()
        }
        PruningAlgorithm::Wnp1 | PruningAlgorithm::Wnp2 => {
            let n = ctx.total_profiles();
            let mut thresholds = vec![f64::INFINITY; n as usize];
            for node in 0..n {
                let adj = naive_adjacency(ctx, node);
                if !adj.is_empty() {
                    let sum: f64 = adj
                        .iter()
                        .map(|&(v, acc)| weigher.weight(ctx, node, v, &acc))
                        .sum();
                    thresholds[node as usize] = sum / adj.len() as f64;
                }
            }
            edges
                .iter()
                .filter(|&&(u, v, w)| {
                    let pu = w >= thresholds[u as usize];
                    let pv = w >= thresholds[v as usize];
                    if algorithm == PruningAlgorithm::Wnp1 {
                        pu || pv
                    } else {
                        pu && pv
                    }
                })
                .map(|&(u, v, _)| (ProfileId(u), ProfileId(v)))
                .collect()
        }
        PruningAlgorithm::Cnp1 | PruningAlgorithm::Cnp2 => {
            let n = ctx.total_profiles();
            let profiles = n.max(1) as u64;
            let k = ((ctx.index().total_assignments() / profiles) as usize).max(1);
            let mut lists: Vec<Vec<u32>> = Vec::with_capacity(n as usize);
            for node in 0..n {
                let mut ranked: Vec<(u32, f64)> = naive_adjacency(ctx, node)
                    .into_iter()
                    .map(|(v, acc)| (v, weigher.weight(ctx, node, v, &acc)))
                    .collect();
                ranked.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
                ranked.truncate(k);
                lists.push(ranked.into_iter().map(|(v, _)| v).collect());
            }
            let mut pairs = Vec::new();
            match algorithm {
                PruningAlgorithm::Cnp1 => {
                    for (u, list) in lists.iter().enumerate() {
                        for &v in list {
                            pairs.push((ProfileId(u as u32), ProfileId(v)));
                        }
                    }
                }
                _ => {
                    for (u, list) in lists.iter().enumerate() {
                        let u = u as u32;
                        for &v in list {
                            if v > u && lists[v as usize].contains(&u) {
                                pairs.push((ProfileId(u), ProfileId(v)));
                            }
                        }
                    }
                }
            }
            pairs
        }
    };
    normalize(&mut pairs);
    pairs
}

/// Canonical pair-set form: each pair (min, max), sorted, deduplicated.
fn normalize(pairs: &mut Vec<(ProfileId, ProfileId)>) {
    for p in pairs.iter_mut() {
        if p.1 .0 < p.0 .0 {
            *p = (p.1, p.0);
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
}

fn engine_prune(
    ctx: &GraphSnapshot,
    weigher: &dyn EdgeWeigher,
    algorithm: PruningAlgorithm,
) -> Vec<(ProfileId, ProfileId)> {
    let mut pairs: Vec<(ProfileId, ProfileId)> = algorithm.prune(ctx, weigher).iter().collect();
    normalize(&mut pairs);
    pairs
}

fn assert_engine_matches_naive(blocks: &BlockCollection) {
    for scheme in WeightingScheme::ALL {
        let mut ctx = GraphSnapshot::build(blocks);
        if scheme.requires_degrees() {
            ctx.ensure_degrees();
        }
        for algorithm in PruningAlgorithm::ALL {
            let fast = engine_prune(&ctx, &scheme, algorithm);
            let naive = naive_prune(&ctx, &scheme, algorithm);
            assert_eq!(
                fast,
                naive,
                "{} × {} diverged from the hashmap reference",
                scheme.name(),
                algorithm.label()
            );
        }
    }
}

#[test]
fn engine_matches_hashmap_reference_on_dirty_collection() {
    assert_engine_matches_naive(&dirty_blocks());
}

#[test]
fn engine_matches_hashmap_reference_on_clean_clean_collection() {
    assert_engine_matches_naive(&clean_blocks());
}

#[test]
fn degrees_match_naive_reference() {
    for blocks in [dirty_blocks(), clean_blocks()] {
        let mut ctx = GraphSnapshot::build(&blocks);
        ctx.ensure_degrees();
        let mut total = 0u64;
        for node in 0..ctx.total_profiles() {
            let naive = naive_adjacency(&ctx, node).len() as u32;
            assert_eq!(ctx.degree(node), naive, "degree of node {node}");
            total += naive as u64;
        }
        assert_eq!(ctx.total_edges(), total / 2);
    }
}

/// Pipeline-level determinism: blocking → cleaning → graph → every pruning
/// algorithm, at 1, 2 and 8 threads, must be identical (not just
/// set-equal — the retained vectors are compared directly).
#[test]
fn pruning_deterministic_across_thread_counts() {
    for blocks in [dirty_blocks(), clean_blocks()] {
        for scheme in [
            WeightingScheme::Cbs,
            WeightingScheme::Arcs,
            WeightingScheme::Ejs,
        ] {
            for algorithm in PruningAlgorithm::ALL {
                let results: Vec<Vec<(ProfileId, ProfileId)>> = [1usize, 2, 8]
                    .iter()
                    .map(|&t| {
                        let mut ctx = GraphSnapshot::build(&blocks).with_threads(t);
                        if scheme.requires_degrees() {
                            ctx.ensure_degrees();
                        }
                        algorithm.prune(&ctx, &scheme).iter().collect()
                    })
                    .collect();
                assert_eq!(
                    results[0],
                    results[1],
                    "{} × {}: 1 vs 2 threads",
                    scheme.name(),
                    algorithm.label()
                );
                assert_eq!(
                    results[0],
                    results[2],
                    "{} × {}: 1 vs 8 threads",
                    scheme.name(),
                    algorithm.label()
                );
            }
        }
    }
}

/// BLAST's own pruning (χ² weighting) through the same engine is also
/// thread-count invariant — on clean-clean graphs too, where the second
/// collection's maxima are folded from many owners' rows at once, and with
/// entropies attached (χ²·h).
#[test]
fn blast_pruning_deterministic_across_thread_counts() {
    let blocks = dirty_blocks();
    let weigher = ChiSquaredWeigher::without_entropy();
    let results: Vec<Vec<(ProfileId, ProfileId)>> = [1usize, 2, 8]
        .iter()
        .map(|&t| {
            let ctx = GraphSnapshot::build(&blocks).with_threads(t);
            BlastPruning::new().prune(&ctx, &weigher).iter().collect()
        })
        .collect();
    assert_eq!(results[0], results[1]);
    assert_eq!(results[0], results[2]);

    for (label, blocks) in [("dirty", dirty_blocks()), ("clean-clean", clean_blocks())] {
        // Synthetic per-block entropies, zero included.
        let entropies: Vec<f64> = (0..blocks.len()).map(|i| (i % 5) as f64 * 0.5).collect();
        for (name, weigher) in [
            ("chi2", ChiSquaredWeigher::without_entropy()),
            ("chi2·h", ChiSquaredWeigher::new()),
        ] {
            let results: Vec<_> = [1usize, 2, 8]
                .iter()
                .map(|&t| {
                    let mut ctx = GraphSnapshot::build(&blocks).with_threads(t);
                    if weigher.use_entropy {
                        ctx = ctx.with_block_entropies(entropies.clone());
                    }
                    let pruning = BlastPruning::new();
                    // A zero maximum may carry either sign; only its value is pinned.
                    let thresholds: Vec<u64> = pruning
                        .thresholds(&ctx, &weigher)
                        .iter()
                        .map(|&t| if t == 0.0 { 0 } else { t.to_bits() })
                        .collect();
                    (pruning.prune(&ctx, &weigher), thresholds)
                })
                .collect();
            assert!(
                !results[0].0.is_empty(),
                "{label} {name}: something survives"
            );
            assert_eq!(results[0], results[1], "{label} {name}: 1 vs 2 threads");
            assert_eq!(results[0], results[2], "{label} {name}: 1 vs 8 threads");
        }
    }
}
