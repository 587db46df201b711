//! Concurrency contract of the serving layer.
//!
//! Eight reader threads hammer [`blast_serve::Epoch::load`] while the
//! writer thread streams a randomly generated mutation sequence through a
//! [`ServePipeline`], committing and publishing every few mutations. The
//! properties:
//!
//! - **Internal consistency** — every observed snapshot is well-formed in
//!   itself: candidate lists are exactly mirrored (same weight on both
//!   endpoints), every candidate endpoint is live, `pairs()` matches the
//!   enumerated pair count, and `top_k` agrees with the full lists.
//! - **Version exactness** — a snapshot tagged seq N carries *exactly* the
//!   candidate set the writer published at commit N (no torn or blended
//!   views), checked against the writer's per-seq reference log.
//! - **Monotonic versions** — consecutive loads on one reader never observe
//!   a seq going backwards.
//! - **Held versions** — a reader that keeps a version across later commits
//!   keeps exactly what was published, and `serve.stale_epochs` counts it
//!   until it lets go.
//! - **Batch equivalence** — after the stream drains, the final published
//!   view still equals the engine's retained set and its from-scratch
//!   batch counterpart ([`ServePipeline::verify_equivalence`]).

use blast_datamodel::entity::{ProfileId, SourceId};
use blast_graph::meta::PruningAlgorithm;
use blast_graph::weights::WeightingScheme;
use blast_incremental::{CleaningConfig, IncrementalPipeline, IncrementalPruning, ResidencyPolicy};
use blast_obs::names;
use blast_serve::snapshot::CHUNK_NODES;
use blast_serve::{ServePipeline, ServeSnapshot};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

const READERS: usize = 8;

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

fn op_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u8..6, 0u8..16, proptest::collection::vec(0u8..10, 1..5)),
        6..20,
    )
}

/// A snapshot must be consistent *in itself*, whenever it was loaded.
fn assert_internally_consistent(snap: &ServeSnapshot) {
    let pairs = snap.all_pairs();
    assert_eq!(
        pairs.len() as u64,
        snap.pairs(),
        "seq {}: pair count diverges from the enumeration",
        snap.seq()
    );
    for &(u, v) in &pairs {
        assert!(u < v, "seq {}: unnormalised pair ({u},{v})", snap.seq());
        assert!(
            snap.is_live(u) && snap.is_live(v),
            "seq {}: candidate pair ({u},{v}) touches a tombstone",
            snap.seq()
        );
        let forward = snap
            .candidates(u)
            .and_then(|c| c.iter().find(|c| c.id == v).map(|c| c.weight));
        let backward = snap
            .candidates(v)
            .and_then(|c| c.iter().find(|c| c.id == u).map(|c| c.weight));
        assert!(
            forward.is_some() && forward == backward,
            "seq {}: pair ({u},{v}) not mirrored ({forward:?} vs {backward:?})",
            snap.seq()
        );
    }
    // top_k is a prefix of the weight-sorted candidate list.
    for id in 0..snap.nodes() {
        let Some(cands) = snap.candidates(id) else {
            continue;
        };
        let top = snap.top_k(id, 3);
        assert!(top.len() <= 3 && top.len() <= cands.len());
        for w in top.windows(2) {
            assert!(
                w[0].weight >= w[1].weight,
                "seq {}: top_k out of order at node {id}",
                snap.seq()
            );
        }
    }
}

/// Streams `ops` through a serve pipeline while `READERS` threads load and
/// check every version they observe, and one more reader camps on the
/// first published version until the stream has drained (39 commits in
/// the scripted streams). With a `residency` policy the writer
/// runs under a memory budget — readers must still never observe a torn,
/// stale or panicking view (a published view is self-contained: its
/// weights came off the commit's delta, so nothing a reader touches can be
/// cold).
fn hammer(ops: &[Op], commit_every: usize, residency: Option<ResidencyPolicy>) {
    let mut engine = IncrementalPipeline::dirty(
        WeightingScheme::Cbs,
        IncrementalPruning::Traditional(PruningAlgorithm::Wnp1),
        CleaningConfig::none(),
    );
    if let Some(policy) = residency {
        engine = engine.with_residency(policy);
    }
    let mut p = ServePipeline::new(engine);
    let done = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let epoch = Arc::clone(p.epoch());
            let done = Arc::clone(&done);
            thread::spawn(move || {
                // Observation log: (seq, pairs) for every *new* version
                // this reader saw — verified against the writer's
                // references after the join.
                let mut log: Vec<(u64, Vec<(u32, u32)>)> = Vec::new();
                let mut last_seq = 0u64;
                loop {
                    // Read the stop flag before loading so the final
                    // published version cannot slip past the last load.
                    let finished = done.load(Ordering::Acquire);
                    {
                        let view = epoch.load();
                        assert!(
                            view.seq() >= last_seq,
                            "reader went back in time: {} after {last_seq}",
                            view.seq()
                        );
                        if view.seq() > last_seq {
                            last_seq = view.seq();
                            assert_internally_consistent(&view);
                            log.push((view.seq(), view.all_pairs()));
                        }
                    }
                    if finished {
                        return log;
                    }
                    thread::yield_now();
                }
            })
        })
        .collect();

    // The writer thread: apply the mutation stream, publishing every
    // `commit_every` ops, and record the reference pair set per seq.
    let mut references: Vec<Vec<(u32, u32)>> = vec![Vec::new()]; // seq 0
    let mut ids: Vec<ProfileId> = Vec::new();
    let mut since = 0usize;
    let stale = |p: &ServePipeline| p.metrics().snapshot().gauge(names::SERVE_STALE_EPOCHS);
    // The camped version and its rendering at the time it was published.
    let mut camped: Option<(Arc<ServeSnapshot>, String)> = None;
    for (i, (kind, target, tokens)) in ops.iter().enumerate() {
        let value = value_of(tokens);
        let live: Vec<ProfileId> = ids
            .iter()
            .copied()
            .filter(|&id| p.inner().store().is_live(id))
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
        since += 1;
        if since >= commit_every || i + 1 == ops.len() {
            since = 0;
            p.commit_and_publish();
            references.push(p.latest().all_pairs());
            assert_eq!(references.len() as u64 - 1, p.seq());
            match &camped {
                None => camped = Some((p.epoch().load(), format!("{:?}", p.latest()))),
                Some(_) => assert!(
                    stale(&p) >= Some(1),
                    "seq {}: the camped version is not counted",
                    p.seq()
                ),
            }
        }
    }
    // The read-your-writes gate: published == retained == batch.
    assert!(
        p.verify_equivalence(),
        "final published snapshot diverges from the engine/batch run"
    );
    if let Some(policy) = residency {
        let stats = p.inner().cold_stats();
        if policy.budget_bytes == 0 {
            assert!(stats.evictions > 0, "zero budget must demote rows");
            assert!(
                stats.rehydrations > 0,
                "later commits must read back demoted rows"
            );
        }
    }
    done.store(true, Ordering::Release);

    for handle in readers {
        let log = handle.join().expect("reader thread panicked");
        for (seq, pairs) in log {
            assert_eq!(
                pairs, references[seq as usize],
                "a reader observed a candidate set that was never published at seq {seq}"
            );
        }
    }

    // Every other reader is gone: the camper's view is still byte for byte
    // what its seq published, and one publish after it lets go nothing
    // retired is left alive.
    let (view, published) = camped.expect("the stream commits at least once");
    assert_eq!(
        format!("{view:?}"),
        published,
        "a held version changed under its reader"
    );
    drop(view);
    p.commit_and_publish();
    assert_eq!(stale(&p), Some(0), "released versions leave the count");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The full concurrent contract under random mutation streams and
    /// micro-batch sizes.
    #[test]
    fn prop_concurrent_reads_observe_published_versions_only(
        ops in op_strategy(),
        commit_every in 1usize..4,
    ) {
        hammer(&ops, commit_every, None);
    }

    /// The same contract with the writer under the tightest possible
    /// memory budget (evict everything after every commit, spilled to
    /// disk): loaded views stay complete and bit-identical while the
    /// engine's working set lives in the cold tier.
    #[test]
    fn prop_concurrent_reads_survive_a_tight_budget(
        ops in op_strategy(),
        commit_every in 1usize..4,
    ) {
        hammer(
            &ops,
            commit_every,
            Some(ResidencyPolicy { budget_bytes: 0, idle_commits: 0, spill: true }),
        );
    }
}

/// A deterministic long-stream variant (no generator) so the hammer runs
/// even if the property harness is filtered out, with enough commits that
/// readers free many retired snapshots.
#[test]
fn scripted_stream_hammers_reclamation() {
    let ops: Vec<Op> = (0..40u8)
        .map(|i| (i % 3, i / 3, vec![i % 10, (i / 2) % 10]))
        .collect();
    hammer(&ops, 1, None);
}

/// Deterministic tight-budget variant of the hammer: every commit demotes
/// the full working set and the next one reads back what it repairs.
#[test]
fn scripted_stream_hammers_under_zero_budget() {
    let ops: Vec<Op> = (0..40u8)
        .map(|i| (i % 3, i / 3, vec![i % 10, (i / 2) % 10]))
        .collect();
    hammer(
        &ops,
        1,
        Some(ResidencyPolicy {
            budget_bytes: 0,
            idle_commits: 0,
            spill: false,
        }),
    );
}

/// The publish path reads nothing from the engine — weights ride the
/// commit's delta — so under a zero budget a serving pipeline reads back
/// exactly the cold rows the bare engine does on the same stream.
#[test]
fn zero_budget_publish_rehydrates_nothing() {
    let engine = || {
        IncrementalPipeline::dirty(
            WeightingScheme::Cbs,
            IncrementalPruning::Traditional(PruningAlgorithm::Wnp1),
            CleaningConfig::none(),
        )
        .with_residency(ResidencyPolicy {
            budget_bytes: 0,
            idle_commits: 0,
            spill: false,
        })
    };
    let (mut serve, mut bare) = (ServePipeline::new(engine()), engine());
    let mut published = 0usize;
    for i in 0..60u8 {
        // Three inserts, then an update and a delete of older profiles.
        let value = value_of(&[i % 10, (i / 2) % 10, (i / 7) % 10]);
        let victim = ProfileId(u32::from(i / 5) + u32::from(i % 5 == 4));
        match i % 5 {
            3 if bare.store().is_live(victim) => {
                serve.update(victim, [("text", value.as_str())]);
                bare.update(victim, [("text", value.as_str())]);
            }
            4 if bare.store().is_live(victim) => {
                serve.delete(victim);
                bare.delete(victim);
            }
            _ => {
                serve.insert(SourceId(0), &format!("p{i}"), [("text", value.as_str())]);
                bare.insert(SourceId(0), &format!("p{i}"), [("text", value.as_str())]);
            }
        }
        published += serve.commit_and_publish().delta.added.len();
        bare.commit();
        assert_eq!(
            serve.inner().cold_stats().rehydrations,
            bare.cold_stats().rehydrations,
            "commit {i}: publishing read cold rows back"
        );
    }
    assert!(published > 0, "the stream published weighted pairs");
    assert!(bare.cold_stats().rehydrations > 0, "the budget bites");
    assert!(serve.verify_equivalence());
}

/// Publish work is O(delta), on an exact counter: with the view spread over
/// at least four chunks, a commit copies no more rows than it touches —
/// one per mutated profile plus the two endpoints of every flipped pair —
/// and clones no more chunks than hold those rows.
#[test]
fn publish_copies_at_most_the_delta() {
    let mut p = ServePipeline::new(IncrementalPipeline::dirty(
        WeightingScheme::Cbs,
        IncrementalPruning::Traditional(PruningAlgorithm::Wnp1),
        CleaningConfig::none(),
    ));
    // Three tokens per profile out of a wide vocabulary: small blocks, so
    // a commit's neighbourhood is a sliver of the corpus.
    let value = |i: u32| {
        // Purely alphabetic words, so the tokenizer keeps each whole.
        let word = |k: u32| -> String {
            let n = ((i * 3 + k).wrapping_mul(0x9E37_79B1) >> 8) % 2500;
            [n / 676, n / 26 % 26, n % 26]
                .iter()
                .map(|&d| char::from(b'a' + d as u8))
                .collect()
        };
        format!("{} {} {}", word(0), word(1), word(2))
    };
    let copied = |p: &ServePipeline| {
        let snap = p.metrics().snapshot();
        (
            snap.counter(names::SERVE_ROWS_COPIED),
            snap.counter(names::SERVE_CHUNKS_COPIED),
        )
    };
    let nodes = 4 * CHUNK_NODES as u32 + 96;
    let (mut next, mut gated) = (0u32, 0usize);
    while next < nodes {
        let mut mutated = 0u64;
        for _ in 0..32 {
            p.insert(
                SourceId(0),
                &format!("p{next}"),
                [("text", value(next).as_str())],
            );
            next += 1;
            mutated += 1;
        }
        if next > 3 * CHUNK_NODES as u32 {
            // Churn in the old chunks too, not just appends to the last.
            p.update(ProfileId(next % 700), [("text", value(next + 7).as_str())]);
            p.delete(ProfileId(700 + next % 300));
            mutated += 2;
        }
        let before = copied(&p);
        let out = p.commit_and_publish();
        let after = copied(&p);
        let (rows, chunks) = (after.0 - before.0, after.1 - before.1);
        let flips = (out.delta.added.len() + out.delta.retracted.len()) as u64;
        let view_chunks = (p.latest().nodes() as usize).div_ceil(CHUNK_NODES) as u64;
        if view_chunks >= 4 {
            gated += 1;
            assert!(
                rows <= mutated + 2 * flips,
                "{rows} rows copied for {mutated} mutations + {flips} flips"
            );
            assert!(chunks <= view_chunks, "{chunks} of {view_chunks} chunks");
            assert!(
                rows < u64::from(p.latest().nodes()) / 4,
                "{rows} rows copied of {}: not a sliver",
                p.latest().nodes()
            );
            assert!(
                rows > 0 && chunks > 0,
                "a commit with flips copies something"
            );
        }
    }
    assert!(gated >= 10, "only {gated} commits ran with ≥ 4 chunks");
    assert!(p.verify_equivalence());
}
