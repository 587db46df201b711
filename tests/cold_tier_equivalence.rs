//! The cold-tier residency contract: a budgeted pipeline is **bit-identical**
//! to the never-evicted pipeline at every commit — same retained pairs, same
//! delta stream, same repair tier — at *any* budget and eviction cadence,
//! from evict-everything-every-commit down to evict-nothing, in-memory or
//! spilled to disk.
//!
//! The harness runs two pipelines in lockstep over the same mutation
//! sequence: one under a [`ResidencyPolicy`], one unbudgeted (the reference,
//! whose own batch parity is pinned by `tests/incremental_equivalence.rs`).
//! Property tests drive random mutation streams; scripted tests sweep the
//! full pruning × scheme grid and pinned thread counts.

use blast_core::weighting::ChiSquaredWeigher;
use blast_datamodel::entity::{ProfileId, SourceId};
use blast_graph::meta::PruningAlgorithm;
use blast_graph::weights::{EdgeWeigher, WeightingScheme};
use blast_incremental::{
    CleaningConfig, IncrementalPipeline, IncrementalPruning, RepairTier, ResidencyPolicy,
};
use proptest::prelude::*;

const VOCAB: [&str; 10] = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa",
];

/// One generated mutation: kind (insert/update/delete), a target selector
/// for update/delete, and the token indices of the new value.
type Op = (u8, u8, Vec<u8>);

fn value_of(tokens: &[u8]) -> String {
    tokens
        .iter()
        .map(|&t| VOCAB[t as usize % VOCAB.len()])
        .collect::<Vec<_>>()
        .join(" ")
}

fn all_prunings() -> Vec<IncrementalPruning> {
    let mut v: Vec<IncrementalPruning> = PruningAlgorithm::ALL
        .iter()
        .map(|&a| IncrementalPruning::Traditional(a))
        .collect();
    v.push(IncrementalPruning::blast());
    v
}

/// The budget/cadence extremes the sweep covers. Budget 0 + idle 0 demotes
/// every evictable row after every commit (so every later read crosses the
/// cold tier); `usize::MAX` never demotes anything (the policy machinery
/// runs but the cold tier stays empty); the small budget lands in between,
/// with rows oscillating across the boundary.
fn policies() -> Vec<ResidencyPolicy> {
    vec![
        ResidencyPolicy {
            budget_bytes: 0,
            idle_commits: 0,
            spill: false,
        },
        ResidencyPolicy {
            budget_bytes: 0,
            idle_commits: 0,
            spill: true,
        },
        ResidencyPolicy {
            budget_bytes: 2048,
            idle_commits: 1,
            spill: false,
        },
        ResidencyPolicy {
            budget_bytes: usize::MAX,
            idle_commits: 8,
            spill: false,
        },
    ]
}

/// Applies `ops` to a budgeted pipeline and an unbudgeted reference in
/// lockstep, committing every `commit_every` mutations, and asserts at
/// every commit that the retained set, the delta stream and the repair
/// tier are identical. `threads` pins both pipelines' worker count
/// (`None` auto-scales). Returns the budgeted pipeline's final cold stats
/// so callers can assert the cold tier was actually exercised.
#[allow(clippy::too_many_arguments)]
fn check_budget_equivalence(
    ops: &[Op],
    commit_every: usize,
    weigher: impl EdgeWeigher + Send + Clone + 'static,
    pruning: IncrementalPruning,
    cleaning: CleaningConfig,
    policy: ResidencyPolicy,
    threads: Option<usize>,
    label: &str,
) -> blast_graph::ColdStats {
    let mut budgeted = IncrementalPipeline::dirty(weigher.clone(), pruning, cleaning.clone())
        .with_residency(policy);
    let mut reference = IncrementalPipeline::dirty(weigher, pruning, cleaning);
    if let Some(t) = threads {
        budgeted.set_threads(t);
        reference.set_threads(t);
    }
    let mut ids: Vec<ProfileId> = Vec::new();
    let mut since = 0usize;

    let commit_and_check =
        |budgeted: &mut IncrementalPipeline, reference: &mut IncrementalPipeline, step: usize| {
            let ob = budgeted.commit();
            let or = reference.commit();
            assert_eq!(
                ob.delta.added, or.delta.added,
                "{label}: added pairs diverged at step {step}"
            );
            assert_eq!(
                ob.delta.retracted, or.delta.retracted,
                "{label}: retracted pairs diverged at step {step}"
            );
            assert_eq!(
                ob.stats.tier, or.stats.tier,
                "{label}: repair tier diverged at step {step} — eviction must never \
                 change which ladder rung a commit lands on"
            );
            assert_eq!(
                budgeted.retained().pairs(),
                reference.retained().pairs(),
                "{label}: retained set diverged at step {step}"
            );
        };

    for (step, (kind, target, tokens)) in ops.iter().enumerate() {
        let value = value_of(tokens);
        let live: Vec<ProfileId> = ids
            .iter()
            .copied()
            .filter(|&id| budgeted.store().is_live(id))
            .collect();
        match kind % 3 {
            1 if !live.is_empty() => {
                let id = live[*target as usize % live.len()];
                budgeted.update(id, [("text", value.as_str())]);
                reference.update(id, [("text", value.as_str())]);
            }
            2 if !live.is_empty() => {
                let id = live[*target as usize % live.len()];
                budgeted.delete(id);
                reference.delete(id);
            }
            _ => {
                let ext = format!("p{}", ids.len());
                let id = budgeted.insert(SourceId(0), &ext, [("text", value.as_str())]);
                let rid = reference.insert(SourceId(0), &ext, [("text", value.as_str())]);
                assert_eq!(id, rid, "{label}: id assignment diverged");
                ids.push(id);
            }
        }
        since += 1;
        if since >= commit_every {
            since = 0;
            commit_and_check(&mut budgeted, &mut reference, step);
        }
    }
    if budgeted.has_pending() {
        commit_and_check(&mut budgeted, &mut reference, ops.len());
    }
    // Belt and braces: the budgeted pipeline also matches its own
    // from-scratch batch run (the reference's parity is pinned elsewhere).
    assert_eq!(
        budgeted.retained().pairs(),
        budgeted.batch_retained().pairs(),
        "{label}: budgeted pipeline diverged from batch"
    );
    budgeted.cold_stats()
}

/// A scripted sequence exercising insert, co-occurrence growth, update and
/// delete (the same shape the batch-equivalence grid uses).
fn scripted_ops() -> Vec<Op> {
    vec![
        (0, 0, vec![0, 1, 2]),    // insert p0: alpha beta gamma
        (0, 0, vec![0, 1, 3]),    // insert p1: alpha beta delta
        (0, 0, vec![2, 3, 4]),    // insert p2: gamma delta epsilon
        (0, 0, vec![0, 1, 2, 3]), // insert p3: alpha beta gamma delta
        (1, 1, vec![5, 6]),       // update p1: zeta eta (leaves the community)
        (0, 0, vec![5, 6, 7]),    // insert p4: zeta eta theta
        (2, 0, vec![0]),          // delete p0
        (0, 0, vec![0, 2, 8]),    // insert p5: alpha gamma iota
        (1, 2, vec![0, 1]),       // update some live profile
        (2, 1, vec![0]),          // delete another
        (0, 0, vec![1, 2, 9]),    // insert p6: beta gamma kappa
    ]
}

fn op_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u8..6, 0u8..16, proptest::collection::vec(0u8..10, 1..5)),
        3..12,
    )
}

/// The acceptance grid under the adversarial evict-everything policy: all
/// 6 traditional prunings + BLAST's own, all 5 traditional schemes + χ²,
/// cleaning on and off.
#[test]
fn scripted_grid_under_evict_everything() {
    let ops = scripted_ops();
    let policy = ResidencyPolicy {
        budget_bytes: 0,
        idle_commits: 0,
        spill: false,
    };
    for cleaning in [CleaningConfig::none(), CleaningConfig::default()] {
        for pruning in all_prunings() {
            for scheme in WeightingScheme::ALL {
                let stats = check_budget_equivalence(
                    &ops,
                    1,
                    scheme,
                    pruning,
                    cleaning.clone(),
                    policy,
                    None,
                    &format!("grid {}/{}", scheme.name(), pruning.label()),
                );
                assert!(
                    stats.evictions > 0,
                    "{}/{}: the evict-everything policy never evicted",
                    scheme.name(),
                    pruning.label()
                );
            }
            let stats = check_budget_equivalence(
                &ops,
                1,
                ChiSquaredWeigher::without_entropy(),
                pruning,
                cleaning.clone(),
                policy,
                None,
                &format!("grid chi2/{}", pruning.label()),
            );
            assert!(stats.evictions > 0);
        }
    }
}

/// The full budget/cadence/spill sweep on one weight- and one node-centric
/// pruning, at commit cadences 1 and 4.
#[test]
fn scripted_budget_sweep() {
    let ops = scripted_ops();
    for policy in policies() {
        for commit_every in [1usize, 4] {
            for pruning in [
                IncrementalPruning::Traditional(PruningAlgorithm::Wep),
                IncrementalPruning::Traditional(PruningAlgorithm::Wnp1),
            ] {
                let stats = check_budget_equivalence(
                    &ops,
                    commit_every,
                    WeightingScheme::Cbs,
                    pruning,
                    CleaningConfig::default(),
                    policy,
                    None,
                    &format!(
                        "sweep {} budget={} idle={} spill={} every={commit_every}",
                        pruning.label(),
                        policy.budget_bytes,
                        policy.idle_commits,
                        policy.spill
                    ),
                );
                if policy.budget_bytes == 0 {
                    assert!(stats.evictions > 0, "zero budget must evict");
                    assert!(stats.rehydrations > 0, "later commits must rehydrate");
                    if policy.spill {
                        assert!(
                            stats.cold_bytes == 0,
                            "spilled frames must not stay in memory"
                        );
                    }
                }
                if policy.budget_bytes == usize::MAX {
                    assert_eq!(
                        stats.evictions, 0,
                        "an unbounded budget with long idle must evict nothing"
                    );
                }
            }
        }
    }
}

/// Pinned thread counts under a budget: identical outcomes at 1 and 4
/// worker threads, budgeted and unbudgeted alike.
#[test]
fn threaded_commits_match_under_budget() {
    let ops = scripted_ops();
    let policy = ResidencyPolicy {
        budget_bytes: 0,
        idle_commits: 0,
        spill: false,
    };
    for threads in [1usize, 4] {
        for scheme in [WeightingScheme::Ejs, WeightingScheme::Cbs] {
            check_budget_equivalence(
                &ops,
                1,
                scheme,
                IncrementalPruning::Traditional(PruningAlgorithm::Wep),
                CleaningConfig::default(),
                policy,
                Some(threads),
                &format!("{} threads={threads}", scheme.name()),
            );
        }
    }
}

/// WEP/CEP across reweigh↔dirty transitions under a zero budget. With
/// every posting list evicted after every commit, each commit must land on
/// the tier the unbudgeted pipeline's lands on, and `retained()` must
/// match the batch run at every commit. Reweigh steps insert a fresh
/// two-member block (|B| and the degrees move); the dirty step toggles
/// `x3` in and out of block `u2`, whose members it already neighbours
/// through `u1` (no global moves).
#[test]
fn wep_cep_alternating_tiers_keep_batch_parity_under_zero_budget() {
    let seed = [
        ("r0", "alpha beta gamma"),
        ("r1", "alpha beta delta"),
        ("r2", "gamma delta epsilon"),
        ("r3", "alpha gamma epsilon"),
        ("x1", "u1 u2 alpha"),
        ("x2", "u1 u2"),
        ("x4", "u1 u3 beta"),
        ("x3", "u1 u3"),
    ];
    for spill in [false, true] {
        let policy = ResidencyPolicy {
            budget_bytes: 0,
            idle_commits: 0,
            spill,
        };
        for algorithm in [PruningAlgorithm::Wep, PruningAlgorithm::Cep] {
            for scheme in [WeightingScheme::Ecbs, WeightingScheme::Ejs] {
                let label = format!("{}/{} spill={spill}", scheme.name(), algorithm.label());
                let pruning = IncrementalPruning::Traditional(algorithm);
                let budgeted = IncrementalPipeline::dirty(scheme, pruning, CleaningConfig::none())
                    .with_residency(policy);
                let reference = IncrementalPipeline::dirty(scheme, pruning, CleaningConfig::none());
                let mut both = [budgeted, reference];
                let mut x3 = ProfileId(0);
                for p in &mut both {
                    for (id, text) in seed {
                        x3 = p.insert(SourceId(0), id, [("text", text)]);
                    }
                    p.commit();
                }
                // Reweigh, reweigh, dirty — twice: every transition
                // between the two tiers, all over cold posting lists.
                for k in 0..6usize {
                    let mut tiers = [RepairTier::Full; 2];
                    for (p, tier) in both.iter_mut().zip(&mut tiers) {
                        if k % 3 == 2 {
                            p.update(x3, [("text", if k == 2 { "u1 u2 u3" } else { "u1 u3" })]);
                        } else {
                            for side in ["a", "b"] {
                                p.insert(
                                    SourceId(0),
                                    &format!("{side}{k}"),
                                    [("text", &*format!("u1 n{k}"))],
                                );
                            }
                        }
                        let out = p.commit();
                        *tier = out.stats.tier;
                    }
                    let [budgeted, reference] = &both;
                    let expected = if k % 3 == 2 {
                        RepairTier::Dirty
                    } else {
                        RepairTier::Reweigh
                    };
                    assert_eq!(tiers, [expected; 2], "{label}: commit {k}");
                    assert_eq!(
                        budgeted.retained().pairs(),
                        budgeted.batch_retained().pairs(),
                        "{label}: budgeted retained() diverged from batch at commit {k}"
                    );
                    assert_eq!(
                        budgeted.retained().pairs(),
                        reference.retained().pairs(),
                        "{label}: commit {k}"
                    );
                }
                let cold = both[0].cold_stats();
                assert!(cold.evictions > 0 && cold.rehydrations > 0, "{label}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random mutation streams under the evict-everything and the partial
    /// budget, against weight-, cardinality- and node-centric prunings.
    #[test]
    fn prop_budgeted_matches_unbudgeted(ops in op_strategy(), commit_every in 1usize..4) {
        for policy in [
            ResidencyPolicy { budget_bytes: 0, idle_commits: 0, spill: false },
            ResidencyPolicy { budget_bytes: 2048, idle_commits: 1, spill: false },
        ] {
            for algorithm in [
                PruningAlgorithm::Wep,
                PruningAlgorithm::Cep,
                PruningAlgorithm::Wnp1,
                PruningAlgorithm::Cnp1,
            ] {
                check_budget_equivalence(
                    &ops,
                    commit_every,
                    WeightingScheme::Cbs,
                    IncrementalPruning::Traditional(algorithm),
                    CleaningConfig::default(),
                    policy,
                    None,
                    &format!("prop cbs/{} budget={}", algorithm.label(), policy.budget_bytes),
                );
            }
        }
    }

    /// Random streams under a spilled zero budget: every cold frame makes a
    /// disk round-trip, and the global-statistic schemes (whose reweigh
    /// sweeps touch *every* row) still match the reference bit for bit.
    #[test]
    fn prop_spilled_global_schemes_match(ops in op_strategy(), commit_every in 1usize..3) {
        let policy = ResidencyPolicy { budget_bytes: 0, idle_commits: 0, spill: true };
        for scheme in [WeightingScheme::Ejs, WeightingScheme::Ecbs] {
            check_budget_equivalence(
                &ops,
                commit_every,
                scheme,
                IncrementalPruning::Traditional(PruningAlgorithm::Wnp2),
                CleaningConfig::default(),
                policy,
                None,
                &format!("prop spilled {}", scheme.name()),
            );
        }
    }
}
