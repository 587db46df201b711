//! The commit path's thread-count bit-identity contract.
//!
//! The commit path has one parallel axis — worker threads — and the
//! contract on it is absolute: **every commit outcome — candidate set,
//! delta stream, repair tier — is bit-identical at any thread count.**
//!
//! Every stream here runs once on a single thread and again at other
//! thread counts; the retained pairs, the deltas and the tier are compared
//! at *every* commit, and the retained pairs against a from-scratch batch
//! run. The property tests' streams are a dozen profiles — one chunk per
//! pass, the scheduler's serial arm whatever the count — so a scripted
//! stream over more than a hundred profiles makes every parallel pass span
//! several chunks.

use blast_datamodel::entity::{ProfileId, SourceId};
use blast_datamodel::parallel::chunk_len;
use blast_graph::meta::PruningAlgorithm;
use blast_graph::weights::WeightingScheme;
use blast_incremental::{
    CleaningConfig, IncrementalPipeline, IncrementalPruning, PairDelta, ResidencyPolicy,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One mutation: kind (insert/update/delete by `kind % 3`), a target
/// selector for update/delete, and the token numbers of the new value.
type Op = (u8, u8, Vec<u8>);

fn value_of(tokens: &[u8]) -> String {
    let words: Vec<String> = tokens.iter().map(|t| format!("t{t}")).collect();
    words.join(" ")
}

fn op_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u8..6, 0u8..16, proptest::collection::vec(0u8..10, 1..5)),
        4..14,
    )
}

/// The per-commit observations a run produces — everything that must be
/// bit-identical across thread counts.
#[derive(Debug, PartialEq)]
struct CommitTrace {
    retained: Vec<(ProfileId, ProfileId)>,
    added: Vec<(ProfileId, ProfileId)>,
    retracted: Vec<(ProfileId, ProfileId)>,
    tier: &'static str,
}

/// The pipeline configuration of one run; `budget` puts it under the
/// evict-everything residency policy.
#[derive(Debug, Clone)]
struct Config {
    scheme: WeightingScheme,
    pruning: IncrementalPruning,
    cleaning: CleaningConfig,
    budget: bool,
}

/// The documented [`PairDelta`] order: `added` and `retracted` each
/// strictly ascending, smaller id first, and disjoint.
fn assert_delta_order(delta: &PairDelta, label: &str) {
    for (side, pairs) in [("added", &delta.added), ("retracted", &delta.retracted)] {
        assert!(
            pairs.iter().all(|p| p.0 < p.1),
            "{label}: {side} pair not smaller id first: {pairs:?}"
        );
        assert!(
            pairs.windows(2).all(|w| w[0] < w[1]),
            "{label}: {side} not strictly ascending: {pairs:?}"
        );
    }
    let retracted: BTreeSet<_> = delta.retracted.iter().collect();
    assert!(
        delta.added.iter().all(|p| !retracted.contains(p)),
        "{label}: a pair both added and retracted"
    );
}

/// Streams `batches` through a pipeline pinned to `threads` workers, one
/// commit per batch, and returns the trace; the single-thread run also
/// checks `retained()` against the batch run after every commit.
fn run_traced(batches: &[&[Op]], config: &Config, threads: usize) -> Vec<CommitTrace> {
    let mut p = IncrementalPipeline::dirty(config.scheme, config.pruning, config.cleaning.clone())
        .with_threads(threads);
    if config.budget {
        p = p.with_residency(ResidencyPolicy {
            budget_bytes: 0,
            idle_commits: 0,
            spill: false,
        });
    }
    let mut ids: Vec<ProfileId> = Vec::new();
    let mut trace = Vec::new();
    for batch in batches {
        for (kind, target, tokens) in *batch {
            let value = value_of(tokens);
            let live: Vec<ProfileId> = ids
                .iter()
                .copied()
                .filter(|&id| p.store().is_live(id))
                .collect();
            match kind % 3 {
                1 if !live.is_empty() => {
                    let id = live[*target as usize % live.len()];
                    p.update(id, [("text", value.as_str())]);
                }
                2 if !live.is_empty() => {
                    let id = live[*target as usize % live.len()];
                    p.delete(id);
                }
                _ => {
                    let id = p.insert(
                        SourceId(0),
                        &format!("p{}", ids.len()),
                        [("text", value.as_str())],
                    );
                    ids.push(id);
                }
            }
        }
        let out = p.commit();
        assert_delta_order(
            &out.delta,
            &format!("{config:?} threads={threads}: commit {}", trace.len()),
        );
        // The other thread counts are compared against this run's trace.
        if threads == 1 {
            assert_eq!(
                p.retained().pairs(),
                p.batch_retained().pairs(),
                "{config:?}: commit {} diverged from batch",
                trace.len()
            );
        }
        trace.push(CommitTrace {
            retained: p.retained().pairs().to_vec(),
            added: out.delta.added,
            retracted: out.delta.retracted,
            tier: out.stats.tier.label(),
        });
    }
    trace
}

/// The thread counts compared against the single-thread reference.
const THREADS: [usize; 3] = [2, 3, 8];

/// Runs the single-thread reference and each of `threads` over the same
/// stream, asserting every commit's trace is identical, and returns the
/// reference trace.
fn check_threads(batches: &[&[Op]], config: &Config, threads: &[usize]) -> Vec<CommitTrace> {
    let reference = run_traced(batches, config, 1);
    for &threads in threads {
        assert_eq!(
            run_traced(batches, config, threads),
            reference,
            "{config:?}: threads={threads} diverged from single-thread"
        );
    }
    reference
}

fn all_prunings() -> Vec<IncrementalPruning> {
    let mut prunings: Vec<IncrementalPruning> = PruningAlgorithm::ALL
        .iter()
        .map(|&a| IncrementalPruning::Traditional(a))
        .collect();
    prunings.push(IncrementalPruning::blast());
    prunings
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every thread count on the edge-decision variants (WEP's exact-sum
    /// threshold and CEP's rank-K cutoff are where ordering bugs would
    /// surface), CBS weighting.
    #[test]
    fn prop_full_grid_edge_variants(ops in op_strategy(), commit_every in 1usize..4) {
        let batches: Vec<&[Op]> = ops.chunks(commit_every).collect();
        for algorithm in [PruningAlgorithm::Wep, PruningAlgorithm::Cep] {
            let config = Config {
                scheme: WeightingScheme::Cbs,
                pruning: IncrementalPruning::Traditional(algorithm),
                cleaning: CleaningConfig::default(),
                budget: false,
            };
            check_threads(&batches, &config, &THREADS);
        }
    }

    /// Every pruning variant (all six traditional + BLAST's own) and every
    /// weighting scheme, cleaning on and off, with the thread count cycled
    /// through 2/3/8 to bound runtime — over the whole sweep each count is
    /// exercised against many configurations.
    #[test]
    fn prop_all_configs_threaded(ops in op_strategy(), commit_every in 1usize..4) {
        let batches: Vec<&[Op]> = ops.chunks(commit_every).collect();
        let mut cell = 0usize;
        for cleaning in [CleaningConfig::none(), CleaningConfig::default()] {
            for pruning in all_prunings() {
                for scheme in WeightingScheme::ALL {
                    let config = Config { scheme, pruning, cleaning: cleaning.clone(), budget: false };
                    check_threads(&batches, &config, &[THREADS[cell % THREADS.len()]]);
                    cell += 1;
                }
            }
        }
    }
}

/// Profiles in the wide stream's first commit, and commits after it.
const WIDE_SEED: usize = 112;
const WIDE_COMMITS: usize = 8;

/// A scripted insert/update/delete stream wide enough that every parallel
/// pass of the commit path spans at least three chunks. The first batch
/// inserts [`WIDE_SEED`] profiles of three or four tokens out of 48 (the
/// accumulate pass over every node); each later batch inserts three — two
/// of them sharing a token no profile has seen, so |B| and the degrees move
/// and most commits reweigh (sweep and cached artefacts over every row) —
/// then updates two profiles and deletes one.
fn wide_stream() -> Vec<Vec<Op>> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut below = move |m: u64| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((x >> 33) % m) as u8
    };
    let mut op = move |kind: u8, fresh: Option<u8>| {
        let mut tokens: Vec<u8> = (0..3 + below(2)).map(|_| below(48)).collect();
        tokens.extend(fresh);
        (kind, below(200), tokens)
    };
    let mut batches = vec![(0..WIDE_SEED).map(|_| op(0, None)).collect::<Vec<_>>()];
    for commit in 0..WIDE_COMMITS as u8 {
        let fresh = Some(100 + commit);
        batches.push(vec![
            op(0, fresh),
            op(0, fresh),
            op(0, None),
            op(1, None),
            op(1, None),
            op(2, None),
        ]);
    }
    batches
}

/// The thread axis is real on the wide stream: all 7 prunings under the
/// two global-statistic schemes (ECBS reads |B|, EJS the degrees — tier 2
/// runs), with and without a residency budget, at threads 1/2/3/8.
#[test]
fn wide_stream_is_identical_across_threads() {
    assert!(WIDE_SEED.div_ceil(chunk_len(WIDE_SEED)) >= 3);
    let stream = wide_stream();
    let batches: Vec<&[Op]> = stream.iter().map(Vec::as_slice).collect();
    for scheme in [WeightingScheme::Ecbs, WeightingScheme::Ejs] {
        for pruning in all_prunings() {
            for budget in [false, true] {
                let config = Config {
                    scheme,
                    pruning,
                    cleaning: CleaningConfig::default(),
                    budget,
                };
                let trace = check_threads(&batches, &config, &THREADS);
                assert_eq!(trace[0].tier, "full", "{config:?}");
                let reweighs = trace.iter().filter(|c| c.tier == "reweigh").count();
                assert!(reweighs * 2 >= WIDE_COMMITS, "{config:?}: {reweighs}");
            }
        }
    }
}

/// Turning the thread knob *between commits* never changes an outcome.
#[test]
fn knobs_can_turn_mid_stream() {
    let stream = |knobs: &[usize]| {
        let mut p = IncrementalPipeline::dirty(
            WeightingScheme::Ejs,
            IncrementalPruning::Traditional(PruningAlgorithm::Wnp1),
            CleaningConfig::default(),
        );
        for (i, &threads) in knobs.iter().enumerate() {
            p.set_threads(threads);
            for j in 0..4u32 {
                let u = 4 * i as u32 + j;
                let text = format!("t{}", (u * 3 + j) % 10);
                p.insert(SourceId(0), &format!("p{u}"), [("text", text.as_str())]);
            }
            p.commit();
        }
        p.retained().pairs().to_vec()
    };
    let steady = stream(&[1; 6]);
    let wandering = stream(&[1, 2, 8, 1, 4, 2]);
    assert_eq!(
        steady, wandering,
        "mid-stream knob turns changed the outcome"
    );
}
