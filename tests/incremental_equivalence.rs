//! The batch-equivalence contract of the incremental subsystem.
//!
//! After **any** sequence of `insert` / `update` / `delete` mutations, the
//! incremental candidate set must be bit-identical to a from-scratch batch
//! run (Token Blocking → purging → filtering → weighting → pruning) on the
//! materialised final collection — for every pruning variant and weighting
//! scheme. Property tests drive randomly generated mutation sequences with
//! varying micro-batch sizes; a scripted test sweeps the full
//! 6 prunings × 5 schemes grid plus BLAST's own pruning with χ².
//!
//! The delta stream is checked for internal consistency too: replaying
//! `added` / `retracted` over the previous candidate set must reproduce the
//! next one exactly.

use blast_core::weighting::ChiSquaredWeigher;
use blast_datamodel::entity::{ProfileId, SourceId};
use blast_graph::meta::PruningAlgorithm;
use blast_graph::weights::{EdgeWeigher, WeightingScheme};
use blast_incremental::{
    CleaningConfig, IncrementalPipeline, IncrementalPruning, PairDelta, RepairTier,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

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

/// All pruning variants the subsystem maintains.
fn all_prunings() -> Vec<IncrementalPruning> {
    let mut v: Vec<IncrementalPruning> = PruningAlgorithm::ALL
        .iter()
        .map(|&a| IncrementalPruning::Traditional(a))
        .collect();
    v.push(IncrementalPruning::blast());
    v
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

/// Applies `ops` to a dirty-ER pipeline, committing every `commit_every`
/// mutations, and asserts the contract at every commit.
fn check_dirty_sequence(
    ops: &[Op],
    commit_every: usize,
    weigher: impl EdgeWeigher + Send + Clone + 'static,
    pruning: IncrementalPruning,
    cleaning: CleaningConfig,
    label: &str,
) {
    let mut p = IncrementalPipeline::dirty(weigher, pruning, cleaning);
    let mut ids: Vec<ProfileId> = Vec::new();
    let mut since = 0usize;
    let mut mirror: BTreeSet<(ProfileId, ProfileId)> = BTreeSet::new();

    let commit_and_check = |p: &mut IncrementalPipeline,
                            mirror: &mut BTreeSet<(ProfileId, ProfileId)>,
                            step: usize| {
        let out = p.commit();
        // Contract: bit-identical to the from-scratch batch run.
        assert_eq!(
            p.retained().pairs(),
            p.batch_retained().pairs(),
            "{label}: batch mismatch after step {step}"
        );
        assert_delta_order(&out.delta, &format!("{label} step {step}"));
        // Delta consistency: old ∪ added ∖ retracted = new.
        for r in &out.delta.retracted {
            assert!(mirror.remove(r), "{label}: retracted unknown pair {r:?}");
        }
        for a in &out.delta.added {
            assert!(mirror.insert(*a), "{label}: added duplicate pair {a:?}");
        }
        let replayed: Vec<_> = mirror.iter().copied().collect();
        assert_eq!(
            replayed,
            p.retained().pairs().to_vec(),
            "{label}: delta replay diverged at step {step}"
        );
    };

    for (step, (kind, target, tokens)) in ops.iter().enumerate() {
        let value = value_of(tokens);
        let live: Vec<ProfileId> = ids
            .iter()
            .copied()
            .filter(|&id| p.store().is_live(id))
            .collect();
        match kind % 3 {
            0 => {
                let id = p.insert(
                    SourceId(0),
                    &format!("p{}", ids.len()),
                    [("text", value.as_str())],
                );
                ids.push(id);
            }
            1 if !live.is_empty() => {
                let id = live[*target as usize % live.len()];
                p.update(id, [("text", value.as_str())]);
            }
            2 if !live.is_empty() => {
                let id = live[*target as usize % live.len()];
                p.delete(id);
            }
            _ => {
                // No live target yet: degrade to an insert so the sequence
                // keeps exercising something.
                let id = p.insert(
                    SourceId(0),
                    &format!("p{}", ids.len()),
                    [("text", value.as_str())],
                );
                ids.push(id);
            }
        }
        since += 1;
        if since >= commit_every {
            since = 0;
            commit_and_check(&mut p, &mut mirror, step);
        }
    }
    if p.has_pending() {
        commit_and_check(&mut p, &mut mirror, ops.len());
    }
}

fn op_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u8..6, 0u8..16, proptest::collection::vec(0u8..10, 1..5)),
        3..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// All six traditional prunings + BLAST's own, CBS weighting, default
    /// cleaning, varying micro-batch sizes.
    #[test]
    fn prop_all_prunings_match_batch(ops in op_strategy(), commit_every in 1usize..4) {
        for pruning in all_prunings() {
            check_dirty_sequence(
                &ops,
                commit_every,
                WeightingScheme::Cbs,
                pruning,
                CleaningConfig::default(),
                &format!("cbs/{}", pruning.label()),
            );
        }
    }

    /// Every weighting scheme (including degree-dependent EJS and the
    /// |B|-dependent ECBS) across a weight-, cardinality- and node-centric
    /// pruning — both with cleaning disabled (raw blocking) and with the
    /// default purging + filtering. The filtering case is the regression
    /// guard for |B_u| moving through a post-filter block-validity flip
    /// while the node's own kept set stays put.
    #[test]
    fn prop_all_schemes_match_batch(ops in op_strategy(), commit_every in 1usize..4) {
        for cleaning in [CleaningConfig::none(), CleaningConfig::default()] {
            for scheme in WeightingScheme::ALL {
                for algorithm in [
                    PruningAlgorithm::Wep,
                    PruningAlgorithm::Cep,
                    PruningAlgorithm::Wnp2,
                    PruningAlgorithm::Cnp1,
                ] {
                    check_dirty_sequence(
                        &ops,
                        commit_every,
                        scheme,
                        IncrementalPruning::Traditional(algorithm),
                        cleaning.clone(),
                        &format!("{}/{} cleaning={}", scheme.name(), algorithm.label(), cleaning.filtering),
                    );
                }
            }
        }
    }

    /// BLAST's χ² weigher (with its |B|-sensitive contingency table) under
    /// BLAST pruning and a traditional node-centric one.
    #[test]
    fn prop_chi_squared_matches_batch(ops in op_strategy(), commit_every in 1usize..3) {
        for pruning in [
            IncrementalPruning::blast(),
            IncrementalPruning::Traditional(PruningAlgorithm::Cnp2),
        ] {
            check_dirty_sequence(
                &ops,
                commit_every,
                ChiSquaredWeigher::without_entropy(),
                pruning,
                CleaningConfig::default(),
                &format!("chi2/{}", pruning.label()),
            );
        }
    }

    /// Clean-clean streams: inserts land on either side of the fixed
    /// separator, updates/deletes pick any live profile.
    #[test]
    fn prop_clean_clean_matches_batch(ops in op_strategy(), commit_every in 1usize..4) {
        const CAPACITY: u32 = 8;
        for algorithm in [PruningAlgorithm::Wnp1, PruningAlgorithm::Cep] {
            let mut p = IncrementalPipeline::clean_clean(
                CAPACITY,
                WeightingScheme::Js,
                IncrementalPruning::Traditional(algorithm),
                CleaningConfig::default(),
            );
            let mut ids: Vec<ProfileId> = Vec::new();
            let mut inserted0 = 0u32;
            let mut since = 0usize;
            for (step, (kind, target, tokens)) in ops.iter().enumerate() {
                let value = value_of(tokens);
                let live: Vec<ProfileId> = ids
                    .iter()
                    .copied()
                    .filter(|&id| p.store().is_live(id))
                    .collect();
                match kind % 4 {
                    0 | 3 => {
                        // Alternate sides; overflow of E1 falls back to E2.
                        let source = if kind % 4 == 0 && inserted0 < CAPACITY {
                            inserted0 += 1;
                            SourceId(0)
                        } else {
                            SourceId(1)
                        };
                        let id = p.insert(
                            source,
                            &format!("s{}p{}", source.0, ids.len()),
                            [("text", value.as_str())],
                        );
                        ids.push(id);
                    }
                    1 if !live.is_empty() => {
                        let id = live[*target as usize % live.len()];
                        p.update(id, [("text", value.as_str())]);
                    }
                    2 if !live.is_empty() => {
                        let id = live[*target as usize % live.len()];
                        p.delete(id);
                    }
                    _ => {}
                }
                since += 1;
                if since >= commit_every {
                    since = 0;
                    p.commit();
                    prop_assert_eq!(
                        p.retained().pairs(),
                        p.batch_retained().pairs(),
                        "{} step {}",
                        algorithm.label(),
                        step
                    );
                }
            }
            if p.has_pending() {
                p.commit();
                prop_assert_eq!(p.retained().pairs(), p.batch_retained().pairs());
            }
        }
    }
}

/// The full 6 × 5 grid (plus χ² × BLAST pruning) on one scripted sequence
/// that exercises insert, co-occurrence growth, update and delete — the
/// acceptance grid, deterministic and exhaustive.
#[test]
fn scripted_sequence_full_grid() {
    let ops: Vec<Op> = vec![
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
    ];
    for commit_every in [1usize, 4] {
        for scheme in WeightingScheme::ALL {
            for algorithm in PruningAlgorithm::ALL {
                check_dirty_sequence(
                    &ops,
                    commit_every,
                    scheme,
                    IncrementalPruning::Traditional(algorithm),
                    CleaningConfig::default(),
                    &format!("grid {}/{}", scheme.name(), algorithm.label()),
                );
            }
        }
        check_dirty_sequence(
            &ops,
            commit_every,
            ChiSquaredWeigher::without_entropy(),
            IncrementalPruning::blast(),
            CleaningConfig::default(),
            "grid chi2/blast",
        );
    }
}

/// Drives a **drift-heavy** insert history — bursts whose hub token and
/// chained pair tokens move |B| and Σ|b| monotonically for many commits —
/// asserting batch parity at every commit and returning the repair-ladder
/// tier counts over the post-initialisation commits
/// `(dirty, reweigh, full)`.
fn drift_tier_counts(
    weigher: impl EdgeWeigher + Send + Clone + 'static,
    pruning: IncrementalPruning,
    burst: usize,
    label: &str,
) -> (usize, usize, usize) {
    let mut p = IncrementalPipeline::dirty(weigher, pruning, CleaningConfig::default());
    let mut tiers = (0usize, 0usize, 0usize);
    let mut commits = 0usize;
    let mut i = 0usize;
    while i < 24 {
        for _ in 0..burst.max(1) {
            // p_i shares a hub token with everyone and chains c_{i-1}–c_i
            // with its predecessor: every burst emits new blocks, so |B|
            // and Σ|b| grow monotonically while the dirty neighbourhood
            // stays local.
            let text = format!("alpha c{} c{}", i.saturating_sub(1), i);
            p.insert(SourceId(0), &format!("p{i}"), [("text", text.as_str())]);
            i += 1;
        }
        let out = p.commit();
        commits += 1;
        if commits > 1 {
            match out.stats.tier {
                RepairTier::Dirty => tiers.0 += 1,
                RepairTier::Reweigh => tiers.1 += 1,
                RepairTier::Full => tiers.2 += 1,
            }
        }
        assert_eq!(
            p.retained().pairs(),
            p.batch_retained().pairs(),
            "{label}: drift parity at commit {commits}"
        );
    }
    tiers
}

/// The scheme-equivalence stress suite over drifting histories: all 5
/// traditional schemes plus χ², across all 6 traditional prunings plus
/// BLAST's own — batch parity at every commit, and the repair-ladder
/// guarantee that **no** scheme/pruning pair degrades to the full tier
/// under drift. CNP's per-node budget k is a drifting global like any
/// other: a k move promotes the commit to the reweigh tier (top-k lists
/// re-derived from the cached adjacency), never to a degraded full pass.
#[test]
fn drifting_statistics_stay_off_the_full_tier() {
    let prunings = {
        let mut v: Vec<IncrementalPruning> = PruningAlgorithm::ALL
            .iter()
            .map(|&a| IncrementalPruning::Traditional(a))
            .collect();
        v.push(IncrementalPruning::blast());
        v
    };
    for &burst in &[1usize, 3] {
        for pruning in &prunings {
            let cnp = matches!(
                pruning,
                IncrementalPruning::Traditional(PruningAlgorithm::Cnp1)
                    | IncrementalPruning::Traditional(PruningAlgorithm::Cnp2)
            );
            // Local schemes must never leave the dirty tier — except under
            // CNP, whose budget moves are exactly the reweigh-tier drift.
            for scheme in [
                WeightingScheme::Cbs,
                WeightingScheme::Arcs,
                WeightingScheme::Js,
            ] {
                let label = format!("{}/{} burst={burst}", scheme.name(), pruning.label());
                let (_, reweigh, full) = drift_tier_counts(scheme, *pruning, burst, &label);
                if !cnp {
                    assert_eq!(reweigh, 0, "{label}: local scheme on the reweigh tier");
                }
                assert_eq!(full, 0, "{label}: local scheme degraded");
            }
            // Global-statistic schemes: tier 2 engages, tier 3 never.
            for scheme in [WeightingScheme::Ejs, WeightingScheme::Ecbs] {
                let label = format!("{}/{} burst={burst}", scheme.name(), pruning.label());
                let (_, reweigh, full) = drift_tier_counts(scheme, *pruning, burst, &label);
                assert!(reweigh > 0, "{label}: drift never hit the reweigh tier");
                assert_eq!(full, 0, "{label}: global scheme degraded under drift");
            }
            let label = format!("chi2/{} burst={burst}", pruning.label());
            let (_, reweigh, full) = drift_tier_counts(
                ChiSquaredWeigher::without_entropy(),
                *pruning,
                burst,
                &label,
            );
            assert!(reweigh > 0, "{label}: drift never hit the reweigh tier");
            assert_eq!(full, 0, "{label}: χ² degraded under drift");
        }
    }
}

/// The CNP budget-move pin: progressively token-richer profiles drift the
/// average assignment count — CNP's default per-node budget k — across
/// integer boundaries repeatedly. Every budget move must land on the
/// reweigh tier (`commits_full == 0` after initialisation, top-k lists
/// re-derived from the cached adjacency, the changed pairs judged off the
/// old and new lists) and stay bit-identical to batch at every commit. Under CBS
/// (no other global statistic) the reweigh count *is* the budget-move
/// count, so `reweigh ≥ 2` proves the budget actually moved.
#[test]
fn cnp_budget_moves_stay_off_the_full_tier() {
    for algorithm in [PruningAlgorithm::Cnp1, PruningAlgorithm::Cnp2] {
        for scheme in [WeightingScheme::Cbs, WeightingScheme::Ecbs] {
            let label = format!("{}/{} budget drift", scheme.name(), algorithm.label());
            let mut p = IncrementalPipeline::dirty(
                scheme,
                IncrementalPruning::Traditional(algorithm),
                CleaningConfig::default(),
            );
            let (mut reweigh, mut full) = (0usize, 0usize);
            for i in 0..40usize {
                let text = (0..=(2 + i))
                    .map(|t| format!("h{t}"))
                    .collect::<Vec<_>>()
                    .join(" ");
                p.insert(SourceId(0), &format!("p{i}"), [("text", text.as_str())]);
                let out = p.commit();
                if i > 0 {
                    match out.stats.tier {
                        RepairTier::Reweigh => reweigh += 1,
                        RepairTier::Full => full += 1,
                        RepairTier::Dirty => {}
                    }
                }
                assert_eq!(
                    p.retained().pairs(),
                    p.batch_retained().pairs(),
                    "{label}: batch parity at commit {i}"
                );
            }
            assert_eq!(full, 0, "{label}: a budget move degraded to the full tier");
            if matches!(scheme, WeightingScheme::Cbs) {
                assert!(
                    reweigh >= 2,
                    "{label}: the budget never moved — the history no longer drifts k \
                     (reweigh commits: {reweigh})"
                );
            }
        }
    }
}

/// CNP when both endpoints of a pair are recomputed in one commit and
/// their listings of each other move. In `swap`, `a` drops `b` while `b`
/// takes up `a`: the pair's listing count goes 1 → 1, so cnp1 keeps it and
/// must emit no flip for it. In `drop`, the mutual pair `a`–`b` loses
/// `a`'s listing: 2 → 1, so cnp2 must retract it exactly once. Padding
/// profiles with no shared token hold the budget at k = 1.
#[test]
fn cnp_pair_recomputed_from_both_endpoints_flips_at_most_once() {
    // Rows a, b, c, d before the commit, then the commit's rows for a, b.
    let swap = (
        ["t1", "t1 s1 s2", "s1 s2", "r1 r2 r3 r4"],
        ["t1 t2 t3 r1 r2 r3 r4", "t1 t2 t3 s1 s2"],
    );
    let drop = (
        ["t1 t2", "t1 t2", "c0", "r1 r2 r3 r4"],
        ["t1 t2 t3 r1 r2 r3 r4", "t1 t2 t3"],
    );
    type Pairs = &'static [(u32, u32)];
    // (scenario, variant, retained before, retained after, added, retracted)
    let cases: [(_, _, Pairs, Pairs, Pairs, Pairs); 4] = [
        (
            swap,
            PruningAlgorithm::Cnp1,
            &[(0, 1), (1, 2)],
            &[(0, 1), (0, 3), (1, 2)],
            &[(0, 3)],
            &[],
        ),
        (
            swap,
            PruningAlgorithm::Cnp2,
            &[(1, 2)],
            &[(0, 3)],
            &[(0, 3)],
            &[(1, 2)],
        ),
        (
            drop,
            PruningAlgorithm::Cnp1,
            &[(0, 1)],
            &[(0, 1), (0, 3)],
            &[(0, 3)],
            &[],
        ),
        (
            drop,
            PruningAlgorithm::Cnp2,
            &[(0, 1)],
            &[(0, 3)],
            &[(0, 3)],
            &[(0, 1)],
        ),
    ];
    let ids = |pairs: Pairs| -> Vec<(ProfileId, ProfileId)> {
        pairs
            .iter()
            .map(|&(a, b)| (ProfileId(a), ProfileId(b)))
            .collect()
    };
    for (k, ((before, after), algorithm, kept, now, added, retracted)) in
        cases.into_iter().enumerate()
    {
        let label = format!("case {k}: {}", algorithm.label());
        let mut p = IncrementalPipeline::dirty(
            WeightingScheme::Cbs,
            IncrementalPruning::Traditional(algorithm),
            CleaningConfig::none(),
        );
        let rows: Vec<ProfileId> = (0..)
            .zip(before)
            .map(|(i, text)| p.insert(SourceId(0), &format!("r{i}"), [("text", text)]))
            .collect();
        for i in 0..12 {
            p.insert(
                SourceId(0),
                &format!("pad{i}"),
                [("text", &*format!("pad{i}"))],
            );
        }
        p.commit();
        assert_eq!(
            p.retained().pairs(),
            ids(kept).as_slice(),
            "{label}: before"
        );
        assert_eq!(p.retained().pairs(), p.batch_retained().pairs(), "{label}");

        p.update(rows[0], [("text", after[0])]);
        p.update(rows[1], [("text", after[1])]);
        let out = p.commit();
        assert_eq!(out.stats.tier, RepairTier::Dirty, "{label}");
        assert_eq!(p.retained().pairs(), ids(now).as_slice(), "{label}: after");
        assert_eq!(p.retained().pairs(), p.batch_retained().pairs(), "{label}");
        assert_eq!(out.delta.added, ids(added), "{label}: added");
        assert_eq!(out.delta.retracted, ids(retracted), "{label}: retracted");
    }
}

/// Regression: an EJS commit whose edge **births and deaths balance**
/// (|E_G| unchanged) still changes the degrees of dirty nodes — and those
/// nodes' edges reach *clean* neighbours whose node-centric thresholds /
/// top-k lists average over the moved weights. Such a commit must promote
/// to the reweigh tier (an early ladder draft promoted only on |E_G|
/// movement and broke parity here, caught by review fuzzing).
#[test]
fn balanced_degree_churn_promotes_ejs_to_reweigh() {
    for pruning in [
        IncrementalPruning::Traditional(PruningAlgorithm::Wnp1),
        IncrementalPruning::Traditional(PruningAlgorithm::Wnp2),
        IncrementalPruning::Traditional(PruningAlgorithm::Cnp1),
        IncrementalPruning::blast(),
    ] {
        let mut p =
            IncrementalPipeline::dirty(WeightingScheme::Ejs, pruning, CleaningConfig::none());
        // Topology: blocks p = {b, u, a, c}, m = {b, u}, r = {a, v},
        // s = {v, w}, x = {t0, t1} — |B| = 5, |E_G| = 9.
        let rows = [
            ("b", "p m z1"),
            ("u", "p m q"),
            ("a", "p r"),
            ("c", "p z4"),
            ("v", "r s"),
            ("w", "s z2"),
            ("t0", "x y1"),
            ("t1", "x y2"),
        ];
        let mut ids = Vec::new();
        for (id, text) in rows {
            ids.push(p.insert(SourceId(0), id, [("text", text)]));
        }
        p.commit();
        let edges_before = p.snapshot().total_edges();
        let blocks_before = p.snapshot().total_blocks();
        assert_eq!(
            p.retained().pairs(),
            p.batch_retained().pairs(),
            "{}: seed parity",
            pruning.label()
        );

        // u leaves block p (which stays valid as {b, a, c}) and joins the
        // existing block x: edges (u,a), (u,c) die, edges (u,t0), (u,t1)
        // are born — |B| and |E_G| both unchanged, but deg(a) and deg(c)
        // dropped while their own block lists stayed put. Node v (sharing
        // only the untouched block r with a) stays outside the dirty set,
        // yet weight(v,a) moved through deg(a): tier 1 would leave θ_v
        // stale.
        p.update(ids[1], [("text", "m q x")]);
        let out = p.commit();
        assert_eq!(
            p.snapshot().total_edges(),
            edges_before,
            "{}: births and deaths balance",
            pruning.label()
        );
        assert_eq!(
            p.snapshot().total_blocks(),
            blocks_before,
            "{}: |B| untouched",
            pruning.label()
        );
        assert_eq!(
            out.stats.tier,
            RepairTier::Reweigh,
            "{}: balanced degree churn must reweigh",
            pruning.label()
        );
        assert_eq!(
            p.retained().pairs(),
            p.batch_retained().pairs(),
            "{}: parity after balanced churn",
            pruning.label()
        );
    }
}

/// One traversal per dirty node: on a tier-1 commit the repair loads
/// exactly `dirty_nodes` adjacencies from the blocks — edges *and* per-node
/// artefacts come out of the same load — for every pruning variant and
/// every kind of weigher (local, |B|-reading, degree-reading). The count
/// is read off the snapshot itself, so a second traversal of the dirty
/// neighbourhood cannot come back unnoticed whatever primitive runs it;
/// the registry carries the same figure.
#[test]
fn tier1_commit_loads_each_dirty_node_once() {
    use blast_obs::CommitTotals;
    let rows = [
        "alpha beta gamma",
        "alpha beta delta",
        "gamma delta epsilon",
        "alpha gamma zeta",
        "beta epsilon eta",
        "alpha delta eta",
        "gamma zeta theta",
        "alpha beta gamma delta",
        "epsilon zeta eta theta",
        "alpha epsilon",
    ];
    for scheme in [
        WeightingScheme::Cbs,
        WeightingScheme::Js,
        WeightingScheme::Ecbs,
        WeightingScheme::Ejs,
    ] {
        for pruning in all_prunings() {
            let label = format!("{}/{}", scheme.name(), pruning.label());
            // No cleaning: repeated tokens re-use blocks, so |B| and the
            // CNP budget hold still often enough for tier-1 commits under
            // every scheme.
            let mut p = IncrementalPipeline::dirty(scheme, pruning, CleaningConfig::none());
            let (mut tier1, mut loads) = (0usize, 0u64);
            let mut check = |out: blast_incremental::CommitOutcome, step: &str| {
                loads += out.stats.scratch_loads as u64;
                if out.stats.tier == RepairTier::Dirty {
                    tier1 += 1;
                    assert!(out.stats.dirty_nodes > 0, "{label}: {step} dirties nodes");
                    assert_eq!(
                        out.stats.scratch_loads, out.stats.dirty_nodes,
                        "{label}: {step} traversed the dirty neighbourhood more (or less) \
                         than once"
                    );
                }
            };
            for round in 0..3 {
                for (i, row) in rows.iter().enumerate() {
                    p.insert(SourceId(0), &format!("r{round}p{i}"), [("text", *row)]);
                    check(p.commit(), &format!("round {round} row {i}"));
                }
            }
            // A mutation that moves accumulators but no global: x3 joins
            // the existing block u2 = {x1, x2}, both already its neighbours
            // through u1 — no block or edge is born, so even EJS stays on
            // tier 1. (x0 keeps CNP's budget, ⌊assignments / profiles⌋,
            // clear of an integer boundary the update would cross.)
            p.insert(SourceId(0), "x0", [("text", "alpha beta")]);
            p.insert(SourceId(0), "x1", [("text", "u1 u2")]);
            p.insert(SourceId(0), "x2", [("text", "u1 u2")]);
            let x3 = p.insert(SourceId(0), "x3", [("text", "u1 u3")]);
            check(p.commit(), "the x seed");
            p.update(x3, [("text", "u1 u2 u3")]);
            check(p.commit(), "the x3 update");
            assert!(tier1 > 0, "{label}: the history never reached tier 1");
            assert_eq!(
                CommitTotals::from_snapshot(&p.metrics().snapshot()).scratch_loads,
                loads,
                "{label}: registry total"
            );
            assert_eq!(p.retained().pairs(), p.batch_retained().pairs(), "{label}");
        }
    }
}

/// The tier a step of [`alternating_tier_stream`] is built to land on
/// under a weigher that reads |B| (ECBS) or the degrees (EJS).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    /// A new two-member block and new edges: |B| and the degrees move,
    /// and the member that already existed has co-members in untouched
    /// blocks.
    Reweigh,
    /// A profile joins or leaves a block whose members are all its
    /// neighbours already: accumulators and its |B_u| move, no global does.
    Dirty,
}

/// Streams commits that alternate between the reweigh and the dirty tier
/// in every order — reweigh→reweigh, reweigh→dirty, dirty→reweigh and
/// dirty→dirty — calling `check`
/// after each with the step and the one before it (`None` after the
/// initialising full pass). Cleaning is off so the tiers are scripted, not
/// incidental. A dirty step toggles `x3` in and out of block `u2`, whose
/// members share block `u1` with it, so the toggle never creates an edge —
/// and under a |B_u|-reading weigher its co-member closure is the whole
/// `u1` block, which every reweigh step grows by one. A reweigh step pairs
/// that new profile with `r7` in a fresh block `n<k>`: `r7`'s co-members
/// (the epsilon/zeta/eta/theta blocks) are outside the cleaner's scope.
fn alternating_tier_stream(
    p: &mut IncrementalPipeline,
    mut check: impl FnMut(
        &mut IncrementalPipeline,
        blast_incremental::CommitOutcome,
        Step,
        Option<Step>,
    ),
) {
    let rows = [
        "alpha beta gamma",
        "alpha beta delta",
        "gamma delta epsilon",
        "alpha gamma zeta",
        "beta epsilon eta",
        "alpha delta eta",
        "gamma zeta theta",
        "epsilon zeta eta theta",
    ];
    let mut r7 = None;
    for (i, row) in rows.iter().enumerate() {
        r7 = Some(p.insert(SourceId(0), &format!("r{i}"), [("text", *row)]));
    }
    let r7 = r7.expect("rows is not empty");
    let mut r7_text = rows[rows.len() - 1].to_string();
    p.insert(SourceId(0), "x1", [("text", "u1 u2 alpha")]);
    p.insert(SourceId(0), "x2", [("text", "u1 u2")]);
    let x3 = p.insert(SourceId(0), "x3", [("text", "u1 u3")]);
    p.insert(SourceId(0), "x4", [("text", "u1 u3 beta")]);
    // Every reweigh step adds one profile and three assignments; this
    // one-assignment profile keeps CNP's budget ⌊assignments / profiles⌋
    // off the integer boundary a toggle's ±1 would otherwise cross.
    p.insert(SourceId(0), "pad", [("text", "alpha")]);
    p.commit();
    assert_eq!(p.retained().pairs(), p.batch_retained().pairs(), "seed");

    use Step::{Dirty, Reweigh};
    let mut in_u2 = false;
    let mut previous = None;
    for (k, step) in [
        Reweigh, Reweigh, Dirty, Dirty, Reweigh, Dirty, Reweigh, Reweigh, Dirty,
    ]
    .into_iter()
    .enumerate()
    {
        match step {
            Reweigh => {
                p.insert(
                    SourceId(0),
                    &format!("a{k}"),
                    [("text", &*format!("u1 n{k}"))],
                );
                r7_text.push_str(&format!(" n{k}"));
                p.update(r7, [("text", r7_text.as_str())]);
            }
            Dirty => {
                in_u2 = !in_u2;
                p.update(x3, [("text", if in_u2 { "u1 u2 u3" } else { "u1 u3" })]);
            }
        }
        let out = p.commit();
        check(p, out, step, previous);
        previous = Some(step);
    }
}

/// WEP **and CEP** across reweigh↔dirty transitions in every order. A
/// reweigh commit decides its swept clean edges explicitly; a dirty commit
/// decides the clean edges off the adjacency rows when the frontier moved;
/// both restate the frontier from the rows (WEP's mean from Σw, CEP's
/// rank-K key by selection). `retained()` is read after every commit and
/// must equal the batch run, at 1 and 2 threads. JS (|B_u| only: never
/// reweighs) rides along as the edge-centric dirty-tier case of the
/// co-member skip.
#[test]
fn alternating_tiers_keep_wep_cep_at_batch_parity() {
    for threads in [1usize, 2] {
        for algorithm in [PruningAlgorithm::Wep, PruningAlgorithm::Cep] {
            for scheme in [
                WeightingScheme::Ecbs,
                WeightingScheme::Ejs,
                WeightingScheme::Js,
            ] {
                let label = format!("{}/{} threads={threads}", scheme.name(), algorithm.label());
                let drifts = !matches!(scheme, WeightingScheme::Js);
                let mut p = IncrementalPipeline::dirty(
                    scheme,
                    IncrementalPruning::Traditional(algorithm),
                    CleaningConfig::none(),
                )
                .with_threads(threads);
                alternating_tier_stream(&mut p, |p, out, step, previous| {
                    let label = format!("{label}: {step:?} after {previous:?}");
                    assert_eq!(
                        p.retained().pairs(),
                        p.batch_retained().pairs(),
                        "{label}: retained() diverged from batch"
                    );
                    assert_eq!(p.retained().len(), out.retained_len, "{label}");
                    let tier = if drifts && step == Step::Reweigh {
                        RepairTier::Reweigh
                    } else {
                        RepairTier::Dirty
                    };
                    assert_eq!(out.stats.tier, tier, "{label}");
                });
                let totals = blast_obs::CommitTotals::from_snapshot(&p.metrics().snapshot());
                assert_eq!(
                    totals.tier_commits,
                    if drifts { [4, 5, 1] } else { [9, 0, 1] },
                    "{label}"
                );
            }
        }
    }
}

/// Where the co-member expansion of a |B_u|-reading weigher must stay and
/// where it must go, on [`alternating_tier_stream`].
///
/// * Every configuration here keeps an edge cache, and a commit
///   re-accumulates from the blocks only the nodes whose cleaned block
///   list moved: `x3` on a toggle, the new profile and `r7` on a reweigh
///   step. No other accumulator moved.
/// * A node-centric variant on a commit that drifts no global (CNP × JS
///   and WNP × JS on every step, WNP × ECBS on the toggles) still
///   re-derives the artefact of every co-member of those nodes — from the
///   cache rows, without a block load (`artefact_nodes`): every co-member
///   folds the moved weight into its threshold or top-k list. A toggle
///   reaches the whole `u1` block.
/// * WEP keeps no per-node artefact: it re-derives none.
/// * A commit already known to reweigh re-derives every artefact from the
///   cache, and the ECBS/WEP stream as a whole re-accumulates fewer nodes
///   than the wide dirty set did, for the identical flips.
#[test]
fn co_member_expansion_stays_for_artefacts_and_goes_elsewhere() {
    /// Per-step `(step, tier, dirty_nodes, artefact_nodes)` and the
    /// stream's total flips.
    type PerStep = Vec<(Step, RepairTier, usize, usize)>;
    fn run(scheme: WeightingScheme, algorithm: PruningAlgorithm) -> (PerStep, usize) {
        let mut p = IncrementalPipeline::dirty(
            scheme,
            IncrementalPruning::Traditional(algorithm),
            CleaningConfig::none(),
        );
        let (mut per_step, mut flips) = (Vec::new(), 0usize);
        alternating_tier_stream(&mut p, |p, out, step, _| {
            assert_eq!(p.retained().pairs(), p.batch_retained().pairs());
            let s = out.stats;
            per_step.push((step, s.tier, s.dirty_nodes, s.artefact_nodes));
            flips += s.retention_flips;
        });
        (per_step, flips)
    }
    fn dirty_nodes_of(per_step: &PerStep, wanted: Step) -> Vec<usize> {
        per_step
            .iter()
            .filter(|(step, ..)| *step == wanted)
            .map(|&(_, _, n, _)| n)
            .collect()
    }
    /// Nodes whose artefact the step recomputed: loaded plus re-derived.
    fn recomputed_of(per_step: &PerStep, wanted: Step) -> Vec<usize> {
        per_step
            .iter()
            .filter(|(step, ..)| *step == wanted)
            .map(|&(_, _, n, a)| n + a)
            .collect()
    }
    let all_on = |per_step: &PerStep, wanted: Step, tier: RepairTier| {
        per_step
            .iter()
            .all(|&(step, t, ..)| step != wanted || t == tier)
    };

    let (js_wep, _) = run(WeightingScheme::Js, PruningAlgorithm::Wep);
    let (ecbs_wnp, _) = run(WeightingScheme::Ecbs, PruningAlgorithm::Wnp1);
    let (ecbs_wep, ecbs_wep_flips) = run(WeightingScheme::Ecbs, PruningAlgorithm::Wep);
    assert!(all_on(&js_wep, Step::Reweigh, RepairTier::Dirty));
    assert!(all_on(&ecbs_wnp, Step::Reweigh, RepairTier::Reweigh));
    assert!(all_on(&ecbs_wnp, Step::Dirty, RepairTier::Dirty));

    // The u1 block when each toggle runs: x1..x4 plus one profile per
    // earlier reweigh step (2, 2, 3 and 5 of them).
    let u1_block = vec![6, 6, 7, 9];
    // r7's co-members on each reweigh step: the grown u1 block, r7's own
    // blocks and the fresh n<k> blocks.
    let r7_reach = vec![11, 12, 13, 14, 15];
    // The nodes whose block list moved: x3 on a toggle; the new profile
    // and r7 on a reweigh step.
    let (toggled, paired) = (vec![1; 4], vec![2; 5]);
    let (js_wnp, _) = run(WeightingScheme::Js, PruningAlgorithm::Wnp1);
    let (js_cnp, _) = run(WeightingScheme::Js, PruningAlgorithm::Cnp1);
    for (per_step, label) in [(&js_wnp, "js/wnp1"), (&js_cnp, "js/cnp1")] {
        assert!(
            per_step
                .iter()
                .all(|&(_, tier, ..)| tier == RepairTier::Dirty),
            "{label}: nothing drifts"
        );
        assert_eq!(
            recomputed_of(per_step, Step::Dirty),
            u1_block,
            "{label}: toggles"
        );
        assert_eq!(
            recomputed_of(per_step, Step::Reweigh),
            r7_reach,
            "{label}: r7's co-members ride along on a non-drifting commit"
        );
    }
    assert_eq!(dirty_nodes_of(&js_wnp, Step::Dirty), toggled, "js/wnp1");
    assert_eq!(dirty_nodes_of(&js_wnp, Step::Reweigh), paired, "js/wnp1");
    assert_eq!(dirty_nodes_of(&js_cnp, Step::Dirty), toggled, "js/cnp1");
    assert_eq!(dirty_nodes_of(&js_cnp, Step::Reweigh), paired, "js/cnp1");
    assert_eq!(dirty_nodes_of(&ecbs_wnp, Step::Dirty), toggled, "ecbs/wnp1");
    assert_eq!(
        recomputed_of(&ecbs_wnp, Step::Dirty),
        u1_block,
        "ecbs/wnp1: the toggles' artefacts still reach u1"
    );
    for (per_step, label) in [(&js_wep, "js/wep"), (&ecbs_wep, "ecbs/wep")] {
        assert_eq!(dirty_nodes_of(per_step, Step::Dirty), toggled, "{label}");
        assert_eq!(dirty_nodes_of(per_step, Step::Reweigh), paired, "{label}");
        assert!(
            per_step.iter().all(|&(.., a)| a == 0),
            "{label}: no artefact to re-derive"
        );
    }
    assert_eq!(
        dirty_nodes_of(&ecbs_wnp, Step::Reweigh),
        paired,
        "ecbs/wnp1"
    );

    // The wide dirty set (every member of a changed block, as at 98e9862)
    // re-accumulated 52 nodes over the ECBS/WEP stream for 36 retention
    // flips (93 before co-member skipping).
    let total: usize = ecbs_wep.iter().map(|&(_, _, n, _)| n).sum();
    assert_eq!(
        total, 14,
        "ecbs/wep: fewer dirty nodes than the wide set's 52"
    );
    assert_eq!(ecbs_wep_flips, 36, "ecbs/wep: the same decisions");
}

/// The degraded-full tier itself, exercised on demand: now that EJS/χ²
/// drift no longer reaches it, [`IncrementalPipeline::force_full_repair`]
/// pins the flip-emitting fallback against batch so it cannot rot —
/// with pending mutations (flips must replay consistently) and without
/// (a forced re-pass over unchanged state must emit nothing).
#[test]
fn forced_degradation_pins_full_tier_against_batch() {
    type MakePipeline = Box<dyn Fn() -> IncrementalPipeline>;
    let configs: Vec<(MakePipeline, &str)> = vec![
        (
            Box::new(|| {
                IncrementalPipeline::dirty(
                    WeightingScheme::Cbs,
                    IncrementalPruning::Traditional(PruningAlgorithm::Wnp1),
                    CleaningConfig::default(),
                )
            }),
            "cbs/wnp1",
        ),
        (
            Box::new(|| {
                IncrementalPipeline::dirty(
                    WeightingScheme::Ejs,
                    IncrementalPruning::Traditional(PruningAlgorithm::Wep),
                    CleaningConfig::default(),
                )
            }),
            "ejs/wep",
        ),
        (
            Box::new(|| {
                IncrementalPipeline::dirty(
                    WeightingScheme::Ecbs,
                    IncrementalPruning::Traditional(PruningAlgorithm::Cnp1),
                    CleaningConfig::default(),
                )
            }),
            "ecbs/cnp1",
        ),
        (
            Box::new(|| {
                IncrementalPipeline::dirty(
                    ChiSquaredWeigher::without_entropy(),
                    IncrementalPruning::blast(),
                    CleaningConfig::default(),
                )
            }),
            "chi2/blast",
        ),
    ];
    for (make, label) in configs {
        let mut p = make();
        let mut mirror: BTreeSet<(ProfileId, ProfileId)> = BTreeSet::new();
        let replay = |out: &blast_incremental::CommitOutcome,
                      mirror: &mut BTreeSet<(ProfileId, ProfileId)>| {
            for r in &out.delta.retracted {
                assert!(mirror.remove(r), "{label}: retracted unknown pair");
            }
            for a in &out.delta.added {
                assert!(mirror.insert(*a), "{label}: added duplicate pair");
            }
        };
        for (i, text) in [
            "alpha beta gamma",
            "alpha beta delta",
            "gamma delta epsilon",
            "alpha gamma zeta",
        ]
        .iter()
        .enumerate()
        {
            p.insert(SourceId(0), &format!("p{i}"), [("text", *text)]);
            let out = p.commit();
            replay(&out, &mut mirror);
        }

        // Forced degradation *with* pending work: every node is marked,
        // the whole graph re-accumulated, and the emitted flips must still
        // replay the previous candidate set into the batch one.
        p.insert(SourceId(0), "p4", [("text", "beta epsilon eta")]);
        p.force_full_repair();
        let out = p.commit();
        assert_eq!(out.stats.tier, RepairTier::Full, "{label}: tier forced");
        assert_eq!(
            out.stats.dirty_nodes,
            p.snapshot().total_profiles() as usize,
            "{label}: every node marked on the full tier"
        );
        replay(&out, &mut mirror);
        let replayed: Vec<_> = mirror.iter().copied().collect();
        assert_eq!(
            replayed,
            p.retained().pairs().to_vec(),
            "{label}: forced-full flips diverged from the candidate set"
        );
        assert_eq!(
            p.retained().pairs(),
            p.batch_retained().pairs(),
            "{label}: forced-full parity"
        );

        // Forced degradation *without* pending work: the identical
        // flip-emitting path over unchanged state must emit nothing.
        p.force_full_repair();
        let out = p.commit();
        assert_eq!(out.stats.tier, RepairTier::Full, "{label}: tier forced");
        assert!(
            out.delta.is_empty(),
            "{label}: idempotent full pass emitted flips"
        );
        assert_eq!(p.retained().pairs(), p.batch_retained().pairs());
    }
}

/// A fixed loose-schema partitioning (as extracted from a seed batch)
/// drives loosely schema-aware blocking and entropy weighting through the
/// incremental path; the contract holds against the batch run with the
/// same partitioning.
#[test]
fn fixed_partitioning_stream_matches_batch() {
    use blast_core::schema::extraction::{LooseSchemaConfig, LooseSchemaExtractor};
    use blast_datamodel::collection::EntityCollection;
    use blast_datamodel::input::ErInput;

    // Seed data with two attribute "columns" that share vocabulary so LMI
    // induces a cluster.
    let mut seed = EntityCollection::new(SourceId(0));
    for i in 0..12 {
        seed.push_pairs(
            &format!("s{i}"),
            [
                ("name", &*format!("person number {i} alpha beta")),
                ("label", &*format!("person number {i} alpha beta")),
                ("year", &*format!("{}", 1990 + i % 4)),
            ],
        );
    }
    let seed_input = ErInput::dirty(seed);
    let schema = LooseSchemaExtractor::new(LooseSchemaConfig::default()).extract(&seed_input);

    let mut p = IncrementalPipeline::dirty(
        ChiSquaredWeigher::new(),
        IncrementalPruning::blast(),
        CleaningConfig::default(),
    )
    .with_partitioning(schema.partitioning.clone());
    // Align the store's attribute ids with the seed collection the
    // partitioning was extracted from.
    let seed_collection = seed_input.collection(SourceId(0));
    p.adopt_attributes(
        SourceId(0),
        seed_collection
            .attribute_ids()
            .map(|a| seed_collection.attribute_name(a)),
    );

    let rows = [
        vec![("name", "john abram person"), ("year", "1990")],
        vec![("label", "john abram person"), ("year", "1990")],
        vec![("name", "ellen smith alpha"), ("year", "1991")],
        vec![("label", "ellen smith alpha"), ("year", "1991")],
        vec![("name", "mary jones beta"), ("year", "1992")],
    ];
    let mut ids = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        ids.push(p.insert(SourceId(0), &format!("p{i}"), row.iter().copied()));
        p.commit();
        assert_eq!(
            p.retained().pairs(),
            p.batch_retained().pairs(),
            "partitioned step {i}"
        );
    }
    p.update(ids[0], [("name", "jon abram person"), ("year", "1990")]);
    p.delete(ids[2]);
    p.commit();
    assert_eq!(p.retained().pairs(), p.batch_retained().pairs());
}
