//! Snapshot maintenance contract: a [`GraphSnapshot`] patched through
//! an arbitrary insert/update/delete history must be **field-for-field**
//! identical to `GraphSnapshot::build` + fresh statistics on the
//! materialised, batch-cleaned collection — same per-profile block
//! sequence (membership, split, cardinality, entropy — bit-exact), same
//! aggregate statistics (|B|, Σ|b|, profile space), same edge accumulators
//! and same degrees.
//!
//! This is the layer *below* `tests/incremental_equivalence.rs`: that suite
//! pins the retained candidate set, this one pins the graph substrate every
//! pruning reads, so a divergence is caught at the field that moved rather
//! than as a downstream pair diff.

use blast::blocking::collection::BlockCollection;
use blast::graph::GraphSnapshot;
use blast_datamodel::entity::{ProfileId, SourceId};
use blast_graph::meta::PruningAlgorithm;
use blast_graph::weights::WeightingScheme;
use blast_incremental::{CleaningConfig, IncrementalPipeline, IncrementalPruning};
use proptest::prelude::*;

const VOCAB: [&str; 10] = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa",
];

type Op = (u8, u8, Vec<u8>);

fn value_of(tokens: &[u8]) -> String {
    tokens
        .iter()
        .map(|&t| VOCAB[t as usize % VOCAB.len()])
        .collect::<Vec<_>>()
        .join(" ")
}

/// Asserts the maintained snapshot equals a freshly built one on the
/// batch-cleaned collection: every statistic a graph pass can read.
fn assert_snapshot_matches_batch(snap: &GraphSnapshot, blocks: &BlockCollection, label: &str) {
    let batch = GraphSnapshot::build(blocks);
    assert_eq!(
        snap.total_profiles(),
        batch.total_profiles(),
        "{label}: |E|"
    );
    assert_eq!(snap.total_blocks(), batch.total_blocks(), "{label}: |B|");
    assert_eq!(
        snap.index().total_assignments(),
        batch.index().total_assignments(),
        "{label}: assignments"
    );
    assert_eq!(snap.is_clean_clean(), batch.is_clean_clean(), "{label}");
    assert_eq!(snap.edge_owner_range(), batch.edge_owner_range(), "{label}");
    for p in 0..snap.total_profiles() {
        assert_eq!(
            snap.node_blocks(p),
            batch.node_blocks(p),
            "{label}: |B_{p}|"
        );
        // The block sequence of the row: membership, cardinality and
        // entropy must match position by position (slot ids differ — the
        // incremental snapshot keys by stable slot, batch by position —
        // but the *logical* blocks and their order must be identical,
        // which is what makes float accumulation bit-exact).
        let a = snap.index().blocks_of(p);
        let b = batch.index().blocks_of(p);
        assert_eq!(a.len(), b.len(), "{label}: row length of {p}");
        for (&sa, &sb) in a.iter().zip(b) {
            assert_eq!(
                snap.slot_members(sa),
                batch.slot_members(sb),
                "{label}: members of a block of {p}"
            );
            assert_eq!(
                snap.slot_cardinality(sa).to_bits(),
                batch.slot_cardinality(sb).to_bits(),
                "{label}: cardinality of a block of {p}"
            );
        }
        // Edge accumulators are derived from the rows — compare them too
        // (bit-exact): they are what the weighting schemes actually read.
        for v in 0..snap.total_profiles() {
            let (ea, eb) = (snap.edge(p, v), batch.edge(p, v));
            match (ea, eb) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_eq!(x.common_blocks, y.common_blocks, "{label}: ({p},{v})");
                    assert_eq!(x.arcs.to_bits(), y.arcs.to_bits(), "{label}: ({p},{v})");
                    assert_eq!(
                        x.entropy_sum.to_bits(),
                        y.entropy_sum.to_bits(),
                        "{label}: ({p},{v})"
                    );
                }
                _ => panic!("{label}: edge ({p},{v}) exists in only one snapshot"),
            }
        }
    }
}

fn run_dirty(ops: &[Op], commit_every: usize, cleaning: CleaningConfig, label: &str) {
    let mut p = IncrementalPipeline::dirty(
        WeightingScheme::Cbs,
        IncrementalPruning::Traditional(PruningAlgorithm::Wnp1),
        cleaning,
    );
    let mut ids: Vec<ProfileId> = Vec::new();
    let mut since = 0usize;
    for (step, (kind, target, tokens)) in ops.iter().enumerate() {
        let live: Vec<ProfileId> = ids
            .iter()
            .copied()
            .filter(|&id| p.store().is_live(id))
            .collect();
        let value = value_of(tokens);
        match kind % 4 {
            0 | 3 => {
                let id = p.insert(SourceId(0), &format!("p{}", ids.len()), [("text", &*value)]);
                ids.push(id);
            }
            1 if !live.is_empty() => {
                p.update(live[*target as usize % live.len()], [("text", &*value)]);
            }
            2 if !live.is_empty() => {
                p.delete(live[*target as usize % live.len()]);
            }
            _ => {}
        }
        since += 1;
        if since >= commit_every {
            since = 0;
            p.commit();
            let blocks = p.batch_blocks(&p.materialize());
            assert_snapshot_matches_batch(p.snapshot(), &blocks, &format!("{label} step {step}"));
        }
    }
    if p.has_pending() {
        p.commit();
    }
    let blocks = p.batch_blocks(&p.materialize());
    assert_snapshot_matches_batch(p.snapshot(), &blocks, &format!("{label} final"));
}

fn run_clean_clean(ops: &[Op], commit_every: usize, cleaning: CleaningConfig, label: &str) {
    const CAPACITY: u32 = 12;
    let mut p = IncrementalPipeline::clean_clean(
        CAPACITY,
        WeightingScheme::Js,
        IncrementalPruning::Traditional(PruningAlgorithm::Wnp2),
        cleaning,
    );
    let mut ids: Vec<ProfileId> = Vec::new();
    let mut inserted0 = 0u32;
    let mut since = 0usize;
    for (step, (kind, target, tokens)) in ops.iter().enumerate() {
        let live: Vec<ProfileId> = ids
            .iter()
            .copied()
            .filter(|&id| p.store().is_live(id))
            .collect();
        let value = value_of(tokens);
        match kind % 4 {
            0 | 3 => {
                let source = if kind % 4 == 0 && inserted0 < CAPACITY {
                    inserted0 += 1;
                    SourceId(0)
                } else {
                    SourceId(1)
                };
                let id = p.insert(
                    source,
                    &format!("s{}p{}", source.0, ids.len()),
                    [("text", &*value)],
                );
                ids.push(id);
            }
            1 if !live.is_empty() => {
                p.update(live[*target as usize % live.len()], [("text", &*value)]);
            }
            2 if !live.is_empty() => {
                p.delete(live[*target as usize % live.len()]);
            }
            _ => {}
        }
        since += 1;
        if since >= commit_every {
            since = 0;
            p.commit();
            let blocks = p.batch_blocks(&p.materialize());
            assert_snapshot_matches_batch(p.snapshot(), &blocks, &format!("{label} step {step}"));
        }
    }
    if p.has_pending() {
        p.commit();
    }
    let blocks = p.batch_blocks(&p.materialize());
    assert_snapshot_matches_batch(p.snapshot(), &blocks, &format!("{label} final"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Dirty ER, cleaning on: patched snapshot ≡ built snapshot at every
    /// commit of a random mutation sequence.
    #[test]
    fn prop_dirty_snapshot_matches_build(
        ops in proptest::collection::vec(
            (0u8..4, 0u8..16, proptest::collection::vec(0u8..10, 1..5)), 1..28),
        commit_every in 1usize..4,
    ) {
        run_dirty(&ops, commit_every, CleaningConfig::default(), "dirty/clean-on");
    }

    /// Dirty ER, cleaning off (raw token blocking feeding the graph).
    #[test]
    fn prop_dirty_snapshot_matches_build_no_cleaning(
        ops in proptest::collection::vec(
            (0u8..4, 0u8..16, proptest::collection::vec(0u8..10, 1..5)), 1..24),
        commit_every in 1usize..4,
    ) {
        run_dirty(&ops, commit_every, CleaningConfig::none(), "dirty/clean-off");
    }

    /// Clean-clean ER, cleaning on and off.
    #[test]
    fn prop_clean_clean_snapshot_matches_build(
        ops in proptest::collection::vec(
            (0u8..4, 0u8..16, proptest::collection::vec(0u8..10, 1..5)), 1..24),
        commit_every in 1usize..4,
    ) {
        run_clean_clean(&ops, commit_every, CleaningConfig::default(), "cc/clean-on");
        run_clean_clean(&ops, commit_every, CleaningConfig::none(), "cc/clean-off");
    }
}

/// Degrees of the maintained snapshot match a fresh build (EJS path): the
/// pipeline re-derives them after every apply.
#[test]
fn ejs_degrees_follow_the_patched_snapshot() {
    let mut p = IncrementalPipeline::dirty(
        WeightingScheme::Ejs,
        IncrementalPruning::Traditional(PruningAlgorithm::Wnp1),
        CleaningConfig::default(),
    );
    let rows = [
        "alpha beta gamma",
        "alpha beta delta",
        "gamma delta epsilon",
        "alpha epsilon zeta",
    ];
    for (i, row) in rows.iter().enumerate() {
        p.insert(SourceId(0), &format!("p{i}"), [("text", *row)]);
        p.commit();
        let blocks = p.batch_blocks(&p.materialize());
        let mut batch = GraphSnapshot::build(&blocks);
        batch.ensure_degrees();
        let snap = p.snapshot();
        assert!(snap.has_degrees(), "EJS pipelines keep degrees fresh");
        assert_eq!(snap.total_edges(), batch.total_edges(), "step {i}");
        for n in 0..snap.total_profiles() {
            assert_eq!(snap.degree(n), batch.degree(n), "step {i}, node {n}");
        }
    }
}

/// Scripted dirty history (VOCAB indices): filtering drops a cleaned
/// block to one member, so its slot keeps that member while it emits no
/// block; the block stays dead across an unrelated commit, regains a
/// member, loses one to a delete and comes back again. Profile 3 carries
/// five blocks of cardinality 1 and a filter ratio of 0.8 keeps four: it
/// drops "kappa", the last in canonical order (or the largest once
/// "kappa" grows).
const DIRTY_DEATH_AND_REVIVAL: [(u8, u8, &[u8]); 9] = [
    (0, 0, &[6]),             // p0 "eta": filler, so |b| = 2 survives purging
    (0, 0, &[9]),             // p1 "kappa"
    (0, 0, &[0, 1, 2, 3]),    // p2 "alpha beta gamma delta"
    (0, 0, &[0, 1, 9]),       // p3: kappa = {1, 3} is a block
    (1, 3, &[0, 1, 2, 3, 9]), // p3 filters kappa out: kappa = {1}, dead
    (0, 0, &[6, 5]),          // p4 "eta zeta": kappa stays dead
    (0, 0, &[9]),             // p5 "kappa": kappa = {1, 5}, live again
    (2, 1, &[0]),             // delete p1: kappa = {5}, dead
    (1, 2, &[9]),             // p3 "kappa": kappa = {3, 5}, live again
];

/// Scripted clean-clean history (ids 0..12 are the first collection): a
/// bilateral block becomes one-sided when filtering takes its only
/// second-collection member out (its slot keeps the first-collection
/// member), stays one-sided across a commit, turns bilateral again when a
/// new second-collection profile joins, and repeats the cycle through a
/// delete.
const CLEAN_CLEAN_ONE_SIDED_AND_BACK: [(u8, u8, &[u8]); 8] = [
    (0, 0, &[9]),             // a0 = 0 "kappa"
    (0, 0, &[0, 1, 2, 3]),    // a1 = 1 "alpha beta gamma delta"
    (3, 0, &[0, 1, 9]),       // b0 = 12: kappa = {0 | 12}, bilateral
    (1, 2, &[0, 1, 2, 3, 9]), // b0 filters kappa out: kappa = {0 |}, one-sided
    (3, 0, &[6]),             // b1 = 13 "eta": kappa stays one-sided
    (3, 0, &[9]),             // b2 = 14 "kappa": kappa = {0 | 14}, bilateral
    (2, 0, &[0]),             // delete a0: the raw block is one-sided too
    (0, 0, &[9]),             // a2 = 2 "kappa": kappa = {2 | 14}, bilateral
];

fn scripted(history: &[(u8, u8, &[u8])]) -> Vec<Op> {
    history
        .iter()
        .map(|&(kind, target, tokens)| (kind, target, tokens.to_vec()))
        .collect()
}

/// Blocks that die and come back keep the patched snapshot equal to a
/// fresh build after every commit, with cleaning on and off and with
/// multi-mutation commits.
#[test]
fn dirty_block_death_and_revival_matches_build() {
    let ops = scripted(&DIRTY_DEATH_AND_REVIVAL);
    for commit_every in 1..=2 {
        run_dirty(
            &ops,
            commit_every,
            CleaningConfig::default(),
            "dirty/revival",
        );
        run_dirty(
            &ops,
            commit_every,
            CleaningConfig::none(),
            "dirty/revival/raw",
        );
    }
}

/// A clean-clean block that turns one-sided and bilateral again keeps the
/// patched snapshot equal to a fresh build after every commit.
#[test]
fn clean_clean_one_sided_block_and_back_matches_build() {
    let ops = scripted(&CLEAN_CLEAN_ONE_SIDED_AND_BACK);
    for commit_every in 1..=2 {
        run_clean_clean(
            &ops,
            commit_every,
            CleaningConfig::default(),
            "cc/one-sided",
        );
        run_clean_clean(
            &ops,
            commit_every,
            CleaningConfig::none(),
            "cc/one-sided/raw",
        );
    }
}
