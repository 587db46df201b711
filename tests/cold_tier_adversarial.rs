//! Adversarial cold-tier scenarios: the access patterns most likely to
//! expose a residency bug. Each scenario runs a budgeted pipeline in
//! lockstep with an unbudgeted reference (plus batch parity), so any
//! divergence — a stale cold frame, a missed rehydration, an eviction that
//! leaks into weights — fails loudly at the exact commit it happens.

use blast_blocking::key::ClusterId;
use blast_datamodel::entity::{ProfileId, SourceId};
use blast_graph::meta::PruningAlgorithm;
use blast_graph::weights::WeightingScheme;
use blast_incremental::index::IncrementalBlockIndex;
use blast_incremental::{
    CleaningConfig, IncrementalPipeline, IncrementalPruning, RepairTier, ResidencyPolicy,
};
use blast_io::TempSpillFile;

fn budgeted_pair(
    scheme: WeightingScheme,
    pruning: IncrementalPruning,
    policy: ResidencyPolicy,
) -> (IncrementalPipeline, IncrementalPipeline) {
    let budgeted = IncrementalPipeline::dirty(scheme, pruning, CleaningConfig::default())
        .with_residency(policy);
    let reference = IncrementalPipeline::dirty(scheme, pruning, CleaningConfig::default());
    (budgeted, reference)
}

fn assert_lockstep(
    budgeted: &mut IncrementalPipeline,
    reference: &mut IncrementalPipeline,
    step: usize,
    label: &str,
) -> RepairTier {
    let ob = budgeted.commit();
    let or = reference.commit();
    assert_eq!(
        ob.delta.added, or.delta.added,
        "{label}: added diverged at commit {step}"
    );
    assert_eq!(
        ob.delta.retracted, or.delta.retracted,
        "{label}: retracted diverged at commit {step}"
    );
    assert_eq!(
        ob.stats.tier, or.stats.tier,
        "{label}: tier diverged at commit {step}"
    );
    assert_eq!(
        budgeted.retained().pairs(),
        reference.retained().pairs(),
        "{label}: retained diverged at commit {step}"
    );
    ob.stats.tier
}

/// Two disjoint token communities, each touched only on alternating
/// commits. With `idle_commits: 0` the off-phase community is demoted
/// after *every* commit and rehydrated the moment its turn comes back —
/// the worst-case thrash pattern for touch-epoch bookkeeping.
#[test]
fn oscillating_hot_cold_communities() {
    let policy = ResidencyPolicy {
        budget_bytes: 0,
        idle_commits: 0,
        spill: false,
    };
    let (mut budgeted, mut reference) = budgeted_pair(
        WeightingScheme::Cbs,
        IncrementalPruning::Traditional(PruningAlgorithm::Wnp1),
        policy,
    );
    let mut a_ids: Vec<ProfileId> = Vec::new();
    let mut b_ids: Vec<ProfileId> = Vec::new();
    // Seed both communities.
    for i in 0..4 {
        let a = format!("alpha beta gamma a{i}");
        let b = format!("zeta eta theta b{i}");
        a_ids.push(budgeted.insert(SourceId(0), &format!("a{i}"), [("text", a.as_str())]));
        reference.insert(SourceId(0), &format!("a{i}"), [("text", a.as_str())]);
        b_ids.push(budgeted.insert(SourceId(0), &format!("b{i}"), [("text", b.as_str())]));
        reference.insert(SourceId(0), &format!("b{i}"), [("text", b.as_str())]);
    }
    assert_lockstep(&mut budgeted, &mut reference, 0, "oscillate seed");
    // Ten rounds of strictly one-sided updates.
    for round in 1..=10usize {
        let (ids, stem) = if round % 2 == 1 {
            (&a_ids, "alpha beta gamma")
        } else {
            (&b_ids, "zeta eta theta")
        };
        let id = ids[round % ids.len()];
        let text = format!("{stem} r{round}");
        budgeted.update(id, [("text", text.as_str())]);
        reference.update(id, [("text", text.as_str())]);
        assert_lockstep(&mut budgeted, &mut reference, round, "oscillate");
    }
    let stats = budgeted.cold_stats();
    assert!(
        stats.rehydrations >= 10,
        "each one-sided round must cross the cold boundary (got {} rehydrations)",
        stats.rehydrations
    );
    assert_eq!(
        budgeted.retained().pairs(),
        budgeted.batch_retained().pairs(),
        "oscillate: batch parity"
    );
}

/// Global-statistic drift forces tier-2 reweigh commits while every
/// posting list is demoted after every commit: each insert promotes the
/// cold lists it joins before the cleaner reads them, and the tier ladder
/// itself must not shift under eviction.
#[test]
fn eviction_mid_tier2_reweigh() {
    let policy = ResidencyPolicy {
        budget_bytes: 0,
        idle_commits: 0,
        spill: false,
    };
    let (mut budgeted, mut reference) = budgeted_pair(
        WeightingScheme::Ecbs,
        IncrementalPruning::Traditional(PruningAlgorithm::Wnp1),
        policy,
    );
    let mut reweighs = 0usize;
    for i in 0..24usize {
        // A growing chain: every insert shifts the global block-count
        // statistics all ECBS weights depend on.
        let text = format!("alpha c{} c{}", i.saturating_sub(1), i);
        budgeted.insert(SourceId(0), &format!("p{i}"), [("text", text.as_str())]);
        reference.insert(SourceId(0), &format!("p{i}"), [("text", text.as_str())]);
        let tier = assert_lockstep(&mut budgeted, &mut reference, i, "reweigh");
        if i > 0 && tier == RepairTier::Reweigh {
            reweighs += 1;
        }
    }
    assert!(
        reweighs > 0,
        "the drift chain must trigger at least one tier-2 reweigh for this \
         scenario to exercise eviction-under-reweigh at all"
    );
    assert!(budgeted.cold_stats().rehydrations > 0);
}

/// CNP's per-node cardinality budget shifts as profiles grow richer; a
/// budget move re-derives every top-k list on a commit whose inserts
/// promote the shared prefix's posting lists, demoted by the commit
/// before.
#[test]
fn cnp_budget_move_touches_cold_rows() {
    let policy = ResidencyPolicy {
        budget_bytes: 0,
        idle_commits: 0,
        spill: false,
    };
    for pruning in [
        IncrementalPruning::Traditional(PruningAlgorithm::Cnp1),
        IncrementalPruning::Traditional(PruningAlgorithm::Cnp2),
    ] {
        let (mut budgeted, mut reference) = budgeted_pair(WeightingScheme::Cbs, pruning, policy);
        for i in 0..16usize {
            // Progressively token-richer profiles: the shared prefix keeps
            // old nodes in play while the k = f(avg degree) budget drifts.
            let text = (0..=(2 + i))
                .map(|t| format!("h{t}"))
                .collect::<Vec<_>>()
                .join(" ");
            budgeted.insert(SourceId(0), &format!("p{i}"), [("text", text.as_str())]);
            reference.insert(SourceId(0), &format!("p{i}"), [("text", text.as_str())]);
            assert_lockstep(&mut budgeted, &mut reference, i, "cnp budget move");
        }
        assert!(budgeted.cold_stats().rehydrations > 0);
    }
}

/// `edge_weight` re-derives a weight from the snapshot's blocks under
/// `&self`, with no prefetch call before it: a budget demotes posting
/// lists only, so every slot the read reaches is resident. Checked bit for
/// bit against the unbudgeted twin for every retained pair after every
/// commit, with the frames in memory and spilled.
#[test]
fn edge_weight_of_every_retained_pair_needs_no_prefetch() {
    for spill in [false, true] {
        let policy = ResidencyPolicy {
            budget_bytes: 0,
            idle_commits: 0,
            spill,
        };
        let (mut budgeted, mut reference) = budgeted_pair(
            WeightingScheme::Cbs,
            IncrementalPruning::Traditional(PruningAlgorithm::Wnp1),
            policy,
        );
        let mut ids: Vec<ProfileId> = Vec::new();
        let mut checked = 0usize;
        for step in 0..12usize {
            let text = format!("alpha beta t{} t{}", step % 4, step % 3);
            match step {
                8 => {
                    budgeted.delete(ids[1]);
                    reference.delete(ids[1]);
                }
                9 | 10 => {
                    let id = ids[step - 7];
                    budgeted.update(id, [("text", text.as_str())]);
                    reference.update(id, [("text", text.as_str())]);
                }
                _ => {
                    let ext = format!("p{step}");
                    ids.push(budgeted.insert(SourceId(0), &ext, [("text", text.as_str())]));
                    reference.insert(SourceId(0), &ext, [("text", text.as_str())]);
                }
            }
            assert_lockstep(&mut budgeted, &mut reference, step, "edge_weight");
            for (u, v) in budgeted.retained().iter() {
                let w = budgeted.edge_weight(u.0, v.0);
                let r = reference.edge_weight(u.0, v.0);
                assert!(w.is_some(), "retained pair ({u:?}, {v:?}) has no edge");
                assert_eq!(
                    w.map(f64::to_bits),
                    r.map(f64::to_bits),
                    "spill={spill}: weight of ({u:?}, {v:?}) diverged at commit {step}"
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "no retained pair was read");
        let cold = budgeted.cold_stats();
        assert!(cold.evictions > 0 && cold.rehydrations > 0);
    }
}

/// Deleting a profile whose posting lists were evicted *and spilled to
/// disk*: the tombstone diff must rehydrate the spilled postings, splice
/// the profile out, and retract its pairs — identically to the reference.
#[test]
fn tombstoned_profiles_in_spilled_postings() {
    let policy = ResidencyPolicy {
        budget_bytes: 0,
        idle_commits: 0,
        spill: true,
    };
    let (mut budgeted, mut reference) = budgeted_pair(
        WeightingScheme::Cbs,
        IncrementalPruning::Traditional(PruningAlgorithm::Wep),
        policy,
    );
    let mut ids = Vec::new();
    for i in 0..8usize {
        let text = format!("alpha beta shared t{}", i % 3);
        ids.push(budgeted.insert(SourceId(0), &format!("p{i}"), [("text", text.as_str())]));
        reference.insert(SourceId(0), &format!("p{i}"), [("text", text.as_str())]);
    }
    assert_lockstep(&mut budgeted, &mut reference, 0, "tombstone seed");
    // Everything is now cold and on disk. Delete into the spilled postings.
    for (step, &id) in ids.iter().take(5).enumerate() {
        budgeted.delete(id);
        reference.delete(id);
        assert_lockstep(&mut budgeted, &mut reference, step + 1, "tombstone");
    }
    let stats = budgeted.cold_stats();
    assert!(stats.rehydrations > 0, "deletes must read spilled postings");
    assert_eq!(stats.cold_bytes, 0, "spilled frames stay out of memory");
    assert_eq!(
        budgeted.retained().pairs(),
        budgeted.batch_retained().pairs(),
        "tombstone: batch parity"
    );
}

/// A spill file truncated behind the store's back must surface the typed
/// `cold tier:` panic on the next read — never silent divergence. (The
/// `ColdError` variants themselves are pinned by `blast_io::spill` unit
/// tests; this drives the owner-level read path.)
#[test]
fn truncated_spill_panics_with_cold_tier_context() {
    let backend = TempSpillFile::create().expect("spill file");
    let path = backend.path().to_path_buf();
    let mut index = IncrementalBlockIndex::new(false);
    index.enable_residency(Some(Box::new(backend)));
    for pid in 0..64u32 {
        index.set_profile(
            pid,
            vec![
                (ClusterId::GLUE, "alpha"),
                (ClusterId::GLUE, "beta"),
                (ClusterId::GLUE, "gamma"),
            ],
        );
    }
    index.enforce_residency(0, 0);
    assert!(index.cold_stats().evictions > 0);
    // Chop the backing file mid-frame.
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .expect("reopen spill file")
        .set_len(2)
        .expect("truncate");
    let keys: Vec<u32> = index.ordered_keys().to_vec();
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for k in keys {
            index.with_postings(k, |p| p.len());
        }
    }))
    .expect_err("reading a truncated spill frame must panic, not diverge");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("cold tier:"),
        "panic must carry the cold-tier context, got: {msg}"
    );
}
