//! Published weights are the decision stage's own, to the bit.
//!
//! `PairDelta::added_weights` carries, for every pair entering the candidate
//! set, the `f64` the pruning decision compared; the serving layer publishes
//! exactly that. This battery drives one deterministic insert/update/delete
//! stream through a [`ServePipeline`] for all 7 prunings × 5 weighting
//! schemes × cleaning on/off × {unbudgeted, zero budget in memory, zero
//! budget spilled} and checks, after **every** commit:
//!
//! - each delta weight equals, bitwise, the oracle's re-derivation from the
//!   blocks (`IncrementalPipeline::edge_weight`, on a twin engine fed the
//!   same stream — the publish path itself must not touch the engine, so
//!   the oracle runs beside it, not inside it);
//! - the published rows of both endpoints carry that weight;
//! - the published set is the engine's and the batch run's
//!   ([`ServePipeline::verify_equivalence`]);
//! - `GraphSnapshot::scratch_loads` advanced across `commit_and_publish` by
//!   exactly the repair's own loads — publishing re-reads no block.
//!
//! The weight is attached where each flip is emitted, and the sites differ:
//! the dirty-edge merge walk, the node-centric row joins, CNP's containment
//! crossings, the reweigh tier's swept edges and — in none of the commit's
//! edge lists — the *clean* edges a moving WEP/CEP frontier crosses. The
//! stream is checked to reach every one of them.

use blast_datamodel::entity::{ProfileId, SourceId};
use blast_graph::meta::PruningAlgorithm;
use blast_graph::weights::{EdgeWeigher, WeightingScheme};
use blast_incremental::{
    CleaningConfig, CommitOutcome, IncrementalPipeline, IncrementalPruning, RepairTier,
    ResidencyPolicy,
};
use blast_serve::ServePipeline;
use std::collections::BTreeSet;

const VOCAB: [&str; 12] = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa",
    "lambda", "mu",
];

/// How many commits of the grid emitted an addition at each push site —
/// every one must be reached for the per-commit checks to cover the path.
#[derive(Debug, Default)]
struct Coverage {
    commits: usize,
    added_pairs: usize,
    /// Tier-3 commits (the seed) that added pairs.
    full: usize,
    /// Tier-1 WEP / CEP commits where a *clean* edge entered because the
    /// frontier moved (see [`Twin::commit`] for how a clean addition is
    /// recognised).
    clean_crossers: [usize; 2],
    /// Reweigh-tier WEP/CEP commits where a clean edge entered: a swept
    /// edge, decided at its re-derived weight.
    swept: usize,
    /// Reweigh-tier commits that added pairs under ECBS / EJS, per family
    /// (edge-centric, threshold, CNP).
    reweigh: [[usize; 3]; 2],
    /// Dirty-tier commits that added pairs, per family.
    dirty: [usize; 3],
}

fn family(pruning: IncrementalPruning) -> usize {
    use PruningAlgorithm::*;
    match pruning {
        IncrementalPruning::Traditional(Wep | Cep) => 0,
        IncrementalPruning::Traditional(Cnp1 | Cnp2) => 2,
        _ => 1,
    }
}

impl Coverage {
    fn note(
        &mut self,
        scheme: WeightingScheme,
        pruning: IncrementalPruning,
        (out, clean_adds): &(CommitOutcome, usize),
    ) {
        self.commits += 1;
        self.added_pairs += out.delta.added.len();
        if out.delta.added.is_empty() {
            return;
        }
        match out.stats.tier {
            RepairTier::Full => self.full += 1,
            RepairTier::Dirty => {
                self.dirty[family(pruning)] += 1;
                let edge = match pruning {
                    IncrementalPruning::Traditional(PruningAlgorithm::Wep) => Some(0),
                    IncrementalPruning::Traditional(PruningAlgorithm::Cep) => Some(1),
                    _ => None,
                };
                if let (Some(i), true) = (edge, *clean_adds > 0) {
                    assert!(out.stats.threshold_crossers >= *clean_adds);
                    self.clean_crossers[i] += 1;
                }
            }
            RepairTier::Reweigh => {
                self.swept += usize::from(family(pruning) == 0 && *clean_adds > 0);
                let scheme = match scheme {
                    WeightingScheme::Ecbs => Some(0),
                    WeightingScheme::Ejs => Some(1),
                    _ => None,
                };
                if let Some(s) = scheme {
                    self.reweigh[s][family(pruning)] += 1;
                }
            }
        }
    }
}

/// A fixed pseudo-random stream (splitmix64): the same mutations for every
/// variant, so a variant's coverage is a property of the variant.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn value(&mut self) -> Vec<&'static str> {
        let tokens = 1 + self.below(4);
        (0..tokens)
            .map(|_| VOCAB[self.below(VOCAB.len())])
            .collect()
    }
}

/// The serving pipeline under test and the oracle engine beside it, fed the
/// same mutations.
struct Twin {
    serve: ServePipeline,
    oracle: IncrementalPipeline,
    ids: Vec<ProfileId>,
    /// Each profile's current tokens, by id (empty once deleted).
    tokens: Vec<Vec<&'static str>>,
    /// Every token a mutation of the pending batch put into or took out of
    /// a profile: the blocks whose membership the next commit changes.
    touched: BTreeSet<&'static str>,
}

impl Twin {
    fn insert(&mut self, tokens: Vec<&'static str>) {
        let (ext, value) = (format!("p{}", self.ids.len()), tokens.join(" "));
        let id = self.serve.insert(SourceId(0), &ext, [("text", &*value)]);
        let twin = self.oracle.insert(SourceId(0), &ext, [("text", &*value)]);
        assert_eq!(id, twin);
        self.ids.push(id);
        self.touched.extend(&tokens);
        self.tokens.push(tokens);
    }

    fn update(&mut self, id: ProfileId, tokens: Vec<&'static str>) {
        let value = tokens.join(" ");
        self.serve.update(id, [("text", &*value)]);
        self.oracle.update(id, [("text", &*value)]);
        self.touched.extend(&tokens);
        let old = std::mem::replace(&mut self.tokens[id.0 as usize], tokens);
        self.touched.extend(old);
    }

    fn delete(&mut self, id: ProfileId) {
        self.serve.delete(id);
        self.oracle.delete(id);
        self.touched
            .extend(std::mem::take(&mut self.tokens[id.0 as usize]));
    }

    fn live(&self) -> Vec<ProfileId> {
        let store = self.serve.inner().store();
        (self.ids.iter().copied())
            .filter(|&id| store.is_live(id))
            .collect()
    }

    /// Commits both sides and runs every per-commit check. Also counts the
    /// *clean* additions: pairs neither of whose endpoints holds a token
    /// the batch touched. Such a profile sits in no block whose membership
    /// changed, so (without block cleaning, which can invalidate blocks at
    /// a distance) it is not graph-dirty, and its edge reached the delta
    /// without being re-accumulated — through a frontier move or the
    /// reweigh sweep.
    fn commit(&mut self, label: &str) -> (CommitOutcome, usize) {
        let loads_before = self.serve.inner().snapshot().scratch_loads();
        let out = self.serve.commit_and_publish();
        let loads = self.serve.inner().snapshot().scratch_loads() - loads_before;
        assert_eq!(
            loads, out.stats.scratch_loads as u64,
            "{label}: publishing re-read blocks"
        );

        let twin = self.oracle.commit();
        assert_eq!(twin.delta.added, out.delta.added, "{label}: twin diverged");
        assert_eq!(out.delta.added.len(), out.delta.added_weights.len());
        let latest = self.serve.latest();
        for ((a, b), w) in out.delta.added_weighted() {
            assert!(a < b, "{label}: unnormalised pair");
            let oracle = (self.oracle.edge_weight(a.0, b.0))
                .unwrap_or_else(|| panic!("{label}: added pair ({a:?}, {b:?}) has no edge"));
            assert_eq!(
                w.to_bits(),
                oracle.to_bits(),
                "{label}: delta weight {w} of ({a:?}, {b:?}) is not the oracle's {oracle}"
            );
            for (row, partner) in [(a.0, b.0), (b.0, a.0)] {
                let published = latest.candidates(row).and_then(|row| {
                    let at = row.binary_search_by_key(&partner, |c| c.id).ok()?;
                    Some(row[at].weight)
                });
                assert_eq!(
                    published.map(f64::to_bits),
                    Some(w.to_bits()),
                    "{label}: row {row} does not publish ({row}, {partner}) at {w}"
                );
            }
        }
        assert!(
            self.serve.verify_equivalence(),
            "{label}: published ≠ batch"
        );
        let touched = std::mem::take(&mut self.touched);
        let clean =
            |id: ProfileId| !(self.tokens[id.0 as usize].iter()).any(|t| touched.contains(t));
        let clean_adds = (out.delta.added.iter())
            .filter(|&&(a, b)| clean(a) && clean(b))
            .count();
        (out, clean_adds)
    }
}

/// Streams the fixed mutation sequence through one variant.
fn drive(
    scheme: WeightingScheme,
    pruning: IncrementalPruning,
    cleaning: CleaningConfig,
    residency: Option<ResidencyPolicy>,
    coverage: &mut Coverage,
) {
    let engine = || {
        let p = IncrementalPipeline::dirty(scheme, pruning, cleaning.clone());
        match residency {
            Some(policy) => p.with_residency(policy),
            None => p,
        }
    };
    let label = format!(
        "{}/{} filtering={} budget={:?}",
        scheme.name(),
        pruning.label(),
        cleaning.filtering,
        residency.map(|r| r.spill)
    );
    let mut twin = Twin {
        serve: ServePipeline::new(engine()),
        oracle: engine(),
        ids: Vec::new(),
        tokens: Vec::new(),
        touched: BTreeSet::new(),
    };
    let mut stream = Stream(0x5EED);

    // The seed commit: tier 3, every pair is an addition.
    for _ in 0..8 {
        twin.insert(stream.value());
    }
    let seed = twin.commit(&format!("{label} seed"));
    assert_eq!(seed.0.stats.tier, RepairTier::Full);
    coverage.note(scheme, pruning, &seed);

    for step in 0..40 {
        for _ in 0..1 + stream.below(3) {
            let value = stream.value();
            let live = twin.live();
            match stream.below(5) {
                3 if !live.is_empty() => twin.update(live[stream.below(live.len())], value),
                4 if live.len() > 4 => twin.delete(live[stream.below(live.len())]),
                _ => twin.insert(value),
            }
        }
        let mut out = twin.commit(&format!("{label} step {step}"));
        if cleaning.purging || cleaning.filtering {
            out.1 = 0; // cleaning moves blocks the token test cannot see
        }
        coverage.note(scheme, pruning, &out);
    }
}

#[test]
fn delta_weights_are_the_decisions_for_every_variant() {
    let mut prunings: Vec<IncrementalPruning> = PruningAlgorithm::ALL
        .iter()
        .map(|&a| IncrementalPruning::Traditional(a))
        .collect();
    prunings.push(IncrementalPruning::blast());
    let zero_budget = |spill| ResidencyPolicy {
        budget_bytes: 0,
        idle_commits: 0,
        spill,
    };

    let mut coverage = Coverage::default();
    for scheme in WeightingScheme::ALL {
        for &pruning in &prunings {
            for cleaning in [CleaningConfig::none(), CleaningConfig::default()] {
                for residency in [None, Some(zero_budget(false)), Some(zero_budget(true))] {
                    drive(scheme, pruning, cleaning.clone(), residency, &mut coverage);
                }
            }
        }
    }

    // Every push site was reached (so every one was checked to the bit).
    let c = &coverage;
    assert_eq!(c.commits, 5 * 7 * 2 * 3 * 41);
    assert!(c.added_pairs > 10_000, "{c:?}");
    assert!(c.full >= 5 * 7 * 2 * 3, "every seed commit adds: {c:?}");
    assert!(
        c.clean_crossers[0] > 0,
        "WEP clean frontier crossers: {c:?}"
    );
    assert!(
        c.clean_crossers[1] > 0,
        "CEP clean frontier crossers: {c:?}"
    );
    assert!(c.swept > 0, "reweigh-tier swept additions: {c:?}");
    for (scheme, families) in ["ECBS", "EJS"].iter().zip(&c.reweigh) {
        for (family, &n) in ["edge-centric", "threshold", "cnp"].iter().zip(families) {
            assert!(
                n > 0,
                "no {scheme} reweigh commit added a {family} pair: {c:?}"
            );
        }
    }
    for (family, &n) in ["edge-centric", "threshold", "cnp"].iter().zip(&c.dirty) {
        assert!(n > 0, "no dirty-tier commit added a {family} pair: {c:?}");
    }
}
