//! Property tests for the delta-aware decision structures: the ordered
//! weight index ([`OrderedWeightIndex`]) against a naive re-sort
//! reference, over random insert / remove / re-weight sequences.
//!
//! The index's contracts (the decision stage leans on all of them):
//!
//! * the key order is `(weight rank bits, u, v)` — descending weight with
//!   f64-*bit* granularity, `-0.0` folded onto `+0.0`, ascending `(u, v)`
//!   among bit-exact ties — identical to batch CEP's sort order;
//! * `select(K-1)` is batch CEP's cutoff **including the tie-break at the
//!   rank-K boundary** (duplicate weights cut mid-tie by `(u, v)`);
//! * the running Σw is exact, so WEP's mean is bit-identical to the batch
//!   accumulator whatever mutation history produced the live edge set;
//! * `for_each_between(old, new)` enumerates exactly the edges whose
//!   mean-threshold retention flips when Θ moves;
//! * `select` walks from its previous answer, so any interleaving of
//!   inserts, removes, deferral and rebuilds between two selects must
//!   leave the walk landing on the re-sort reference's key;
//! * the map is a lazily materialised view: a deferred index keeps Σw and
//!   `len` exact under any further mutation, and materialising it yields
//!   the very content key-by-key maintenance would have produced.

use blast_graph::exact_sum::ExactSum;
use blast_graph::pruning::common::weight_rank_bits;
use blast_graph::pruning::{Cep, Wep};
use blast_incremental::{EdgeKey, OrderedWeightIndex};
use proptest::prelude::*;

/// One scripted mutation over a bounded pair universe: `kind % 3` selects
/// insert / remove / re-weight, `(a, b)` the pair, `w` the weight in
/// quarter steps (plenty of duplicates).
type Op = (u8, u8, u8, u8);

/// Applies ops to the index and a naive mirror, returning the mirror as
/// the live edge list (canonical pairs, unsorted).
fn drive(ops: &[Op], idx: &mut OrderedWeightIndex) -> Vec<(u32, u32, f64)> {
    let mut live: Vec<(u32, u32, f64)> = Vec::new();
    for &(kind, a, b, w) in ops {
        let (a, b) = (a as u32 % 12, b as u32 % 12);
        if a == b {
            continue;
        }
        let (a, b) = (a.min(b), a.max(b));
        let w = w as f64 / 4.0;
        let pos = live.iter().position(|&(x, y, _)| (x, y) == (a, b));
        match (kind % 3, pos) {
            (0, None) => {
                idx.insert(a, b, w);
                live.push((a, b, w));
            }
            (1, Some(i)) => {
                let (_, _, old) = live.swap_remove(i);
                idx.remove(a, b, old);
            }
            (2, Some(i)) => {
                let old = live[i].2;
                idx.remove(a, b, old);
                idx.insert(a, b, w);
                live[i].2 = w;
            }
            _ => {}
        }
    }
    live
}

/// Signed quarter-step weights with an explicit `-0.0` (w = 1), so
/// duplicate-weight and signed-zero ties are routine, not rare.
fn signed_quarter(w: u8) -> f64 {
    if w == 1 {
        -0.0
    } else {
        (w as f64 - 8.0) / 4.0
    }
}

/// [`drive`] with [`signed_quarter`] weights, mutating `live` in place —
/// the driver of the bulk-vs-incremental construction property.
fn apply_signed(ops: &[Op], idx: &mut OrderedWeightIndex, live: &mut Vec<(u32, u32, f64)>) {
    for &(kind, a, b, w) in ops {
        let (a, b) = (a as u32 % 12, b as u32 % 12);
        if a == b {
            continue;
        }
        let (a, b) = (a.min(b), a.max(b));
        let w = signed_quarter(w);
        let pos = live.iter().position(|&(x, y, _)| (x, y) == (a, b));
        match (kind % 3, pos) {
            (0, None) => {
                idx.insert(a, b, w);
                live.push((a, b, w));
            }
            (1, Some(i)) => {
                let (_, _, old) = live.swap_remove(i);
                idx.remove(a, b, old);
            }
            (2, Some(i)) => {
                let old = live[i].2;
                idx.remove(a, b, old);
                idx.insert(a, b, w);
                live[i].2 = w;
            }
            _ => {}
        }
    }
}

fn drive_signed(ops: &[Op], idx: &mut OrderedWeightIndex) -> Vec<(u32, u32, f64)> {
    let mut live = Vec::new();
    apply_signed(ops, idx, &mut live);
    live
}

/// The in-order `(key, weight bits)` content — everything the index
/// makes observable.
fn content(idx: &OrderedWeightIndex) -> Vec<(EdgeKey, u64)> {
    let last = EdgeKey {
        rank: u64::MAX,
        u: u32::MAX,
        v: u32::MAX,
    };
    let mut v = Vec::new();
    idx.for_each_between(None, last, &mut |k, w| v.push((k, w.to_bits())));
    v
}

/// The naive reference ranking: weight descending (bit-exact through the
/// rank map), then ascending `(u, v)` — a full re-sort per query, the cost
/// the index exists to avoid.
fn reference_order(live: &[(u32, u32, f64)]) -> Vec<(u32, u32, f64)> {
    let mut sorted = live.to_vec();
    sorted.sort_by_key(|&(u, v, w)| (weight_rank_bits(w), u, v));
    sorted
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Order statistics and the running exact sum match the re-sort
    /// reference after any mutation history.
    #[test]
    fn prop_select_and_sum_match_resort_reference(
        ops in proptest::collection::vec(
            (0u8..3, 0u8..255, 0u8..255, 0u8..12), 0..60),
    ) {
        let mut idx = OrderedWeightIndex::new();
        let live = drive(&ops, &mut idx);
        let sorted = reference_order(&live);

        prop_assert_eq!(idx.len(), live.len());
        for (rank, &(u, v, w)) in sorted.iter().enumerate() {
            let key = idx.select(rank).expect("rank within len");
            prop_assert_eq!((key.u, key.v), (u, v), "rank {}", rank);
            prop_assert_eq!(key.rank, weight_rank_bits(w));
            prop_assert_eq!(idx.prefix_len(key), rank + 1);
        }
        prop_assert_eq!(idx.select(live.len()), None);

        // Σw bit-identical to a from-scratch exact accumulation of the
        // survivors — the WEP-mean contract.
        let fresh = ExactSum::of(live.iter().map(|&(_, _, w)| w));
        prop_assert_eq!(idx.sum().round().to_bits(), fresh.round().to_bits());
        prop_assert_eq!(
            Wep::mean_from_sum(idx.sum(), idx.len()).map(f64::to_bits),
            Wep::mean_from_sum(&fresh, live.len()).map(f64::to_bits),
        );
    }

    /// The rank-K prefix equals batch CEP bit-for-bit, for every K — the
    /// tie-break at the rank-K boundary included (quarter-step weights
    /// guarantee the boundary regularly cuts through duplicate weights).
    #[test]
    fn prop_rank_k_prefix_is_batch_cep(
        ops in proptest::collection::vec(
            (0u8..3, 0u8..255, 0u8..255, 0u8..8), 0..50),
    ) {
        let mut idx = OrderedWeightIndex::new();
        let live = drive(&ops, &mut idx);
        // Batch CEP consumes the canonical (u, v)-sorted edge list.
        let mut edges = live.clone();
        edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
        for k in 0..=live.len() + 1 {
            let frontier = if k == 0 {
                None
            } else {
                idx.select(k.min(idx.len()).wrapping_sub(1))
            };
            let incremental = idx.prefix_pairs(frontier);
            let batch = Cep::prune_edges(k as u64, &edges);
            prop_assert_eq!(
                incremental.pairs(),
                batch.pairs(),
                "rank-{} prefix diverged from batch CEP",
                k
            );
        }
    }

    /// The bulk from-sorted-array construction ([`OrderedWeightIndex::rebuild`])
    /// is **bit-identical** to insert-by-insert construction: same
    /// in-order content, same exact Σw —
    /// across random mutation histories with duplicate weights (quarter
    /// steps), negative weights and `-0.0` ties, and whatever the live
    /// list's arrival order. The two indexes also stay interchangeable
    /// under further mutation (the rebuild leaves no stale state behind).
    #[test]
    fn prop_bulk_rebuild_matches_incremental_construction(
        ops in proptest::collection::vec(
            (0u8..3, 0u8..255, 0u8..255, 0u8..16), 0..60),
        extra in proptest::collection::vec(
            (0u8..3, 0u8..255, 0u8..255, 0u8..16), 0..12),
    ) {
        let mut inc = OrderedWeightIndex::new();
        let live = drive_signed(&ops, &mut inc);
        let mut bulk = OrderedWeightIndex::new();
        // The live list arrives in mutation order, not key order — the
        // rebuild owns the sort.
        bulk.rebuild(live.iter().copied());

        prop_assert_eq!(bulk.len(), inc.len());
        prop_assert_eq!(content(&bulk), content(&inc), "in-order content");
        prop_assert_eq!(
            bulk.sum().round().to_bits(),
            inc.sum().round().to_bits(),
            "exact Σw"
        );

        // Further mutations on top of both constructions converge too.
        let mut live_inc = live.clone();
        apply_signed(&extra, &mut inc, &mut live_inc);
        let mut live_bulk = live;
        apply_signed(&extra, &mut bulk, &mut live_bulk);
        prop_assert_eq!(content(&bulk), content(&inc), "post-rebuild mutation");
        prop_assert_eq!(bulk.sum().round().to_bits(), inc.sum().round().to_bits());
    }

    /// Defer → arbitrary mutations → materialise is indistinguishable from
    /// key-by-key maintenance: while the map is gone the aggregates track
    /// every insert / remove / re-weight exactly (Σw bits, `len`, hence
    /// WEP's mean), and the materialised map has the same in-order content
    /// and answers every `select` / `prefix_len` query identically —
    /// duplicate weights, negative weights and `-0.0` ties included.
    /// `defer` itself restates the aggregates from the weights it is
    /// given, whatever the index held before.
    #[test]
    fn prop_deferred_index_materialises_to_keywise_maintained_tree(
        ops in proptest::collection::vec(
            (0u8..3, 0u8..255, 0u8..255, 0u8..16), 0..60),
        extra in proptest::collection::vec(
            (0u8..3, 0u8..255, 0u8..255, 0u8..16), 0..24),
    ) {
        let mut inc = OrderedWeightIndex::new();
        let mut live = drive_signed(&ops, &mut inc);

        // Stale content the deferral must not leak into the aggregates.
        let mut lazy = OrderedWeightIndex::new();
        lazy.insert(0, 1, 7.25);
        lazy.insert(2, 3, -0.0);
        lazy.defer(live.iter().map(|&(_, _, w)| w));
        prop_assert!(!lazy.is_built());
        prop_assert_eq!(lazy.resident_bytes(), 0, "a deferred index holds no map");
        prop_assert_eq!(lazy.len(), inc.len());
        prop_assert_eq!(lazy.sum().round().to_bits(), inc.sum().round().to_bits());

        // Aggregate-only maintenance while deferred.
        let mut live_lazy = live.clone();
        apply_signed(&extra, &mut inc, &mut live);
        apply_signed(&extra, &mut lazy, &mut live_lazy);
        prop_assert!(!lazy.is_built(), "mutation must not build the map");
        prop_assert_eq!(lazy.len(), inc.len());
        prop_assert_eq!(
            Wep::mean_from_sum(lazy.sum(), lazy.len()).map(f64::to_bits),
            Wep::mean_from_sum(inc.sum(), inc.len()).map(f64::to_bits),
            "WEP's frontier needs Σw and len only"
        );

        lazy.materialise(live_lazy.iter().copied());
        prop_assert!(lazy.is_built());
        prop_assert_eq!(content(&lazy), content(&inc), "in-order content");
        prop_assert_eq!(lazy.sum().round().to_bits(), inc.sum().round().to_bits());
        for rank in 0..=inc.len() {
            let key = inc.select(rank);
            prop_assert_eq!(lazy.select(rank), key, "rank {}", rank);
            if let Some(key) = key {
                prop_assert_eq!(lazy.prefix_len(key), rank + 1);
            }
        }
    }

    /// Mean-threshold crossing enumeration: when Θ moves from θ_old to
    /// θ_new, `for_each_between` yields exactly the edges whose `w ≥ Θ`
    /// retention flips — no clean survivor, no non-crosser.
    #[test]
    fn prop_band_enumerates_exact_mean_crossers(
        ops in proptest::collection::vec(
            (0u8..3, 0u8..255, 0u8..255, 0u8..12), 1..50),
        theta_old in 0u8..14,
        theta_new in 0u8..14,
    ) {
        let mut idx = OrderedWeightIndex::new();
        let live = drive(&ops, &mut idx);
        let (theta_old, theta_new) = (theta_old as f64 / 4.0, theta_new as f64 / 4.0);
        let f_old = Some(EdgeKey::mean_bound(theta_old));
        let f_new = Some(EdgeKey::mean_bound(theta_new));

        let mut band: Vec<(u32, u32)> = Vec::new();
        if f_old != f_new {
            let lo = f_old.min(f_new);
            if let Some(hi) = f_old.max(f_new) {
                idx.for_each_between(lo, hi, &mut |key, w| {
                    let was = Wep::retains(w, theta_old);
                    let now = Wep::retains(w, theta_new);
                    if was != now {
                        band.push((key.u, key.v));
                    }
                });
            }
        }
        band.sort_unstable();

        let mut naive: Vec<(u32, u32)> = live
            .iter()
            .filter(|&&(_, _, w)| Wep::retains(w, theta_old) != Wep::retains(w, theta_new))
            .map(|&(u, v, _)| (u, v))
            .collect();
        naive.sort_unstable();
        prop_assert_eq!(band, naive);
    }

    /// The select cursor under churn: inserts, removes, re-weights, the
    /// removal of the very key the last `select` returned, defer →
    /// materialise, `clear` and `rebuild`, each followed by a `select` at
    /// a rank that drifts by -3..=+3 and now and then jumps to 0 or past
    /// the end. Every answer equals the re-sort reference's key at that
    /// rank, and `None` past the end.
    #[test]
    fn prop_select_cursor_matches_resort_reference(
        ops in proptest::collection::vec(
            (0u8..9, 0u8..255, 0u8..255, 0u8..16), 0..120),
    ) {
        let mut idx = OrderedWeightIndex::new();
        let mut live: Vec<(u32, u32, f64)> = Vec::new();
        let (mut rank, mut last) = (0usize, None);
        for &(kind, a, b, w) in &ops {
            match kind {
                // Insert-heavy, so the live set grows past a few edges.
                0..=3 => apply_signed(&[(0, a, b, w)], &mut idx, &mut live),
                4 | 5 => apply_signed(&[(kind - 3, a, b, w)], &mut idx, &mut live),
                6 => {
                    let hit = live
                        .iter()
                        .position(|&(u, v, x)| Some(EdgeKey::new(u, v, x)) == last);
                    if let Some(i) = hit {
                        let (u, v, x) = live.swap_remove(i);
                        idx.remove(u, v, x);
                    }
                }
                7 => {
                    idx.defer(live.iter().map(|&(_, _, x)| x));
                    idx.materialise(live.iter().copied());
                }
                _ if w % 4 == 0 => {
                    idx.clear();
                    live.clear();
                }
                _ => idx.rebuild(live.iter().copied()),
            }
            rank = match b % 8 {
                0 => 0,
                1 => live.len() + (a % 3) as usize,
                _ => (rank + (a % 7) as usize).saturating_sub(3),
            };
            let expect = reference_order(&live)
                .get(rank)
                .map(|&(u, v, x)| EdgeKey::new(u, v, x));
            last = idx.select(rank);
            prop_assert_eq!(last, expect, "rank {} of {}", rank, live.len());
        }
    }
}

/// The bulk construction's tie handling pinned deterministically:
/// duplicate weights and `-0.0`/`+0.0` ties produce the exact content the
/// insert path produces, and the rebuilt index answers order-statistic
/// queries identically.
#[test]
fn bulk_rebuild_pins_duplicate_and_signed_zero_ties() {
    let edges = [
        (5, 6, 0.0),
        (0, 1, -0.0),
        (2, 3, 0.0),
        (7, 8, -1.0),
        (4, 9, 1.0),
        (1, 2, 1.0),
        (3, 7, -0.0),
    ];
    let mut inc = OrderedWeightIndex::new();
    for &(u, v, w) in &edges {
        inc.insert(u, v, w);
    }
    let mut bulk = OrderedWeightIndex::new();
    bulk.rebuild(edges.iter().copied());
    assert_eq!(content(&bulk), content(&inc), "tie-ridden contents agree");
    for rank in 0..=edges.len() {
        assert_eq!(bulk.select(rank), inc.select(rank), "rank {rank}");
    }
    assert_eq!(bulk.sum().round().to_bits(), inc.sum().round().to_bits());
    let mut empty = OrderedWeightIndex::new();
    empty.rebuild(std::iter::empty());
    assert_eq!(empty.len(), 0);
    assert_eq!(empty.select(0), None);
}

/// f64-bit ordering corner cases pinned deterministically: duplicate
/// weights cut by `(u, v)`, `-0.0` ties with `+0.0`, subnormals and
/// negative weights ordered correctly.
#[test]
fn bit_order_corner_cases() {
    let mut idx = OrderedWeightIndex::new();
    idx.insert(5, 6, 0.0);
    idx.insert(0, 1, -0.0);
    idx.insert(2, 3, f64::from_bits(1)); // smallest subnormal
    idx.insert(7, 8, -1.0);
    idx.insert(4, 9, 1.0);

    let order: Vec<(u32, u32)> = (0..idx.len())
        .map(|r| idx.select(r).map(|k| (k.u, k.v)).unwrap())
        .collect();
    // 1.0 first, then the subnormal, then the two zeros tied (−0.0
    // normalised, so (0,1) precedes (5,6) by pair order), then −1.0.
    assert_eq!(order, vec![(4, 9), (2, 3), (0, 1), (5, 6), (7, 8)]);

    // A frontier at the K=3 boundary cuts through the zero tie exactly
    // like batch CEP's (u, v) tie-break.
    let frontier = idx.select(2);
    assert_eq!(frontier.map(|k| (k.u, k.v)), Some((0, 1)));
    let retained = idx.prefix_pairs(frontier);
    assert_eq!(retained.len(), 3);
    assert!(!retained.contains(
        blast_datamodel::entity::ProfileId(5),
        blast_datamodel::entity::ProfileId(6)
    ));
}

/// The select cursor's corner cases pinned deterministically: a walk
/// back past a removed answer, a walk forward over inserts made below the
/// cursor, rank 0, rank ≥ len, and a cursor reset by `clear` and by
/// defer → materialise.
#[test]
fn select_cursor_corner_cases() {
    let mut idx = OrderedWeightIndex::new();
    for (u, v, w) in [(0, 1, 5.0), (0, 2, 4.0), (1, 2, 3.0), (1, 3, 2.0)] {
        idx.insert(u, v, w);
    }
    let pair = |k: Option<EdgeKey>| k.map(|k| (k.u, k.v));
    assert_eq!(pair(idx.select(2)), Some((1, 2)));
    // The answer itself goes: the next key slides into its rank.
    idx.remove(1, 2, 3.0);
    assert_eq!(pair(idx.select(2)), Some((1, 3)));
    assert_eq!(pair(idx.select(1)), Some((0, 2)));
    // Two keys land before the cursor: its rank shifts by two.
    idx.insert(2, 3, 9.0);
    idx.insert(3, 4, 8.0);
    assert_eq!(pair(idx.select(3)), Some((0, 2)));
    assert_eq!(pair(idx.select(0)), Some((2, 3)));
    assert_eq!(pair(idx.select(4)), Some((1, 3)));
    assert_eq!(idx.select(5), None);
    assert_eq!(
        pair(idx.select(4)),
        Some((1, 3)),
        "a None leaves the cursor"
    );

    idx.defer([9.0, 8.0, 5.0, 4.0, 2.0]);
    idx.materialise([
        (1, 3, 2.0),
        (0, 2, 4.0),
        (3, 4, 8.0),
        (0, 1, 5.0),
        (2, 3, 9.0),
    ]);
    assert_eq!(pair(idx.select(1)), Some((3, 4)));
    idx.clear();
    assert_eq!(idx.select(0), None);
    idx.insert(5, 6, 1.0);
    assert_eq!(pair(idx.select(0)), Some((5, 6)));
}

/// A deferred index has no order to read: the order queries refuse rather
/// than answer from an empty map (a silent 0 from `prefix_len`, or an
/// empty band, would drop retention flips).
#[test]
#[should_panic(expected = "order query on a deferred index")]
fn order_query_on_a_deferred_index_panics() {
    let mut idx = OrderedWeightIndex::new();
    idx.insert(0, 1, 1.0);
    idx.defer([1.0]);
    assert_eq!((idx.len(), idx.sum().round()), (1, 1.0), "aggregates stay");
    idx.prefix_len(EdgeKey::mean_bound(0.5));
}
