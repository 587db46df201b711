//! Memory-footprint regression tests at the census preset.
//!
//! The million-profile memory diet (compact u32 ids, interned postings,
//! packed edge accumulators) pins the per-profile resident footprint of a
//! streamed census run. The estimates come from
//! `IncrementalPipeline::footprint()` — capacity-based byte counts per
//! structure — so they are deterministic and immune to allocator noise,
//! unlike RSS. A regression that reintroduces owned strings in postings or
//! fattens the per-edge cache shows up here as a bytes-per-profile blowout.

use blast_datagen::{dirty_preset, generate_dirty, DirtyPreset};
use blast_datamodel::entity::SourceId;
use blast_graph::meta::PruningAlgorithm;
use blast_graph::weights::WeightingScheme;
use blast_incremental::{CleaningConfig, IncrementalPipeline, IncrementalPruning, ResidencyPolicy};

/// Streams the full census preset (1000 profiles) and returns the pipeline
/// after the final commit.
fn stream_census(pruning: IncrementalPruning) -> (IncrementalPipeline, usize) {
    stream_census_with(pruning, None)
}

fn stream_census_with(
    pruning: IncrementalPruning,
    residency: Option<ResidencyPolicy>,
) -> (IncrementalPipeline, usize) {
    let (input, _) = generate_dirty(&dirty_preset(DirtyPreset::Census));
    let d = input.collection(SourceId(0));
    // Bound block sizes at ~64 members so the footprint tracks the
    // structures, not a few stop-word blocks.
    let cleaning = CleaningConfig {
        purging: true,
        purge_fraction: 64.0 / d.len() as f64,
        filtering: true,
        filter_ratio: 0.8,
    };
    let mut p = IncrementalPipeline::dirty(WeightingScheme::Cbs, pruning, cleaning);
    if let Some(policy) = residency {
        p = p.with_residency(policy);
    }
    let quarter = (d.len() / 4).max(1);
    for (i, profile) in d.profiles().iter().enumerate() {
        p.insert(
            SourceId(0),
            &profile.external_id,
            profile
                .values
                .iter()
                .map(|(a, v)| (d.attribute_name(*a), &**v)),
        );
        if (i + 1) % quarter == 0 || i + 1 == d.len() {
            p.commit();
        }
    }
    let n = d.len();
    (p, n)
}

/// Node-centric census run stays under the bytes-per-profile ceiling.
///
/// Measured ~1.33 KiB/profile with the edge cache every variant keeps
/// (~6k live edges at 16 packed bytes, mirrored at both endpoints, the
/// retained set one bit of each); the ceiling leaves ~20% headroom for
/// incidental capacity growth while still catching a return of
/// per-posting owned strings (estimated +0.5 KiB/profile).
#[test]
fn census_bytes_per_profile_stays_under_ceiling_node_centric() {
    let (p, n) = stream_census(IncrementalPruning::Traditional(PruningAlgorithm::Wnp1));
    let fp = p.footprint();
    let per_profile = fp.total_bytes() as f64 / n as f64;
    assert!(
        per_profile < 1600.0,
        "census WNP1 footprint regressed: {per_profile:.1} B/profile (ceiling 1600)"
    );
    assert!(fp.interned_tokens > 0, "tokens must be interned");
    assert!(fp.live_edges > 0, "WNP1 must keep a live edge set");
    // Two 16-byte entries per live edge, their row slack and the per-node
    // thresholds: ~43 B/edge.
    let per_edge = fp.blocker_bytes as f64 / fp.live_edges as f64;
    assert!(
        per_edge < 96.0,
        "per-edge cache regressed: {per_edge:.1} B/edge (ceiling 96)"
    );
}

/// Edge-centric census run (live edge cache: ~6k live edges at 16 packed
/// bytes each, mirrored at both endpoints) has its own ceiling.
#[test]
fn census_bytes_per_profile_stays_under_ceiling_edge_centric() {
    let (p, n) = stream_census(IncrementalPruning::Traditional(PruningAlgorithm::Wep));
    let fp = p.footprint();
    let per_profile = fp.total_bytes() as f64 / n as f64;
    assert!(
        per_profile < 2600.0,
        "census WEP footprint regressed: {per_profile:.1} B/profile (ceiling 2600)"
    );
    assert!(fp.live_edges > 0, "WEP must keep a live edge set");
    // Packed accumulator layout: the blocker's bytes per live edge stay
    // bounded (two 16-byte cache entries and their row slack: ~42 B).
    let per_edge = fp.blocker_bytes as f64 / fp.live_edges as f64;
    assert!(
        per_edge < 96.0,
        "per-edge cache regressed: {per_edge:.1} B/edge (ceiling 96)"
    );
}

/// The footprint estimate moves with the data: an empty pipeline's
/// structures are a small fraction of the loaded one.
#[test]
fn footprint_grows_from_empty_to_loaded() {
    let empty = IncrementalPipeline::dirty(
        WeightingScheme::Cbs,
        IncrementalPruning::Traditional(PruningAlgorithm::Wnp1),
        CleaningConfig::default(),
    )
    .footprint();
    let (p, _) = stream_census(IncrementalPruning::Traditional(PruningAlgorithm::Wnp1));
    let loaded = p.footprint();
    assert!(loaded.total_bytes() > 10 * empty.total_bytes().max(1));
    assert!(loaded.store_bytes > 0);
    assert!(loaded.index_bytes > 0);
    assert!(loaded.snapshot_bytes > 0);
    assert!(loaded.blocker_bytes > 0);
    // An unbudgeted pipeline has no cold tier at all.
    assert_eq!(loaded.cold_bytes, 0);
    assert_eq!(loaded.spilled_bytes, 0);
}

/// The hot/cold split of the footprint: a budgeted census run demotes most
/// evictable bytes out of the hot structures into the cold arena, the two
/// tiers are counted exactly once, and the budgeted hot footprint lands
/// well under the unbudgeted one.
#[test]
fn budgeted_footprint_splits_hot_and_cold_without_double_counting() {
    let pruning = IncrementalPruning::Traditional(PruningAlgorithm::Wnp1);
    let (unbudgeted, n) = stream_census(pruning);
    let base = unbudgeted.footprint();
    let policy = ResidencyPolicy {
        budget_bytes: 0,
        idle_commits: 0,
        spill: false,
    };
    let (budgeted, _) = stream_census_with(pruning, Some(policy));
    let fp = budgeted.footprint();

    // The cold tier exists and holds real bytes…
    assert!(
        fp.cold_bytes > 0,
        "zero budget must leave frames in the cold arena"
    );
    assert_eq!(fp.spilled_bytes, 0, "spill is off for this run");
    // …and the demoted postings really left the hot index.
    assert!(
        fp.index_bytes < base.index_bytes,
        "eviction freed no posting bytes: {} B vs unbudgeted {} B",
        fp.index_bytes,
        base.index_bytes
    );
    // No double counting: hot + cold stays within the unbudgeted total
    // plus a modest delta-encoding/arena-bookkeeping allowance.
    assert!(
        fp.total_bytes() <= base.total_bytes() + base.total_bytes() / 4,
        "hot+cold exceeds the unbudgeted footprint: {} vs {}",
        fp.total_bytes(),
        base.total_bytes()
    );
    // The headline ceiling holds with the cold tier counted in.
    let per_profile = fp.total_bytes() as f64 / n as f64;
    assert!(
        per_profile < 1600.0,
        "budgeted census footprint regressed: {per_profile:.1} B/profile"
    );
    // And the run was not a no-op residency-wise.
    let stats = budgeted.cold_stats();
    assert!(stats.evictions > 0 && stats.rehydrations > 0);
}

/// With spill enabled the cold bytes leave the process entirely: the
/// in-memory cold arena stays empty and the spilled ledger carries the
/// frames instead — total_bytes() (a *resident* estimate) excludes them.
#[test]
fn spilled_footprint_moves_cold_bytes_out_of_memory() {
    let pruning = IncrementalPruning::Traditional(PruningAlgorithm::Wnp1);
    let policy = ResidencyPolicy {
        budget_bytes: 0,
        idle_commits: 0,
        spill: true,
    };
    let (p, _) = stream_census_with(pruning, Some(policy));
    let fp = p.footprint();
    assert_eq!(
        fp.cold_bytes, 0,
        "spilled frames must not be memory-resident"
    );
    assert!(
        fp.spilled_bytes > 0,
        "the spill ledger must carry the frames"
    );
}
