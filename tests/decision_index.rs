//! Property tests for the edge-centric decision rules: the retention
//! frontier the incremental decision stage restates each commit, against
//! the batch passes, over random insert / remove / re-weight histories.
//!
//! The contracts the decision stage leans on:
//!
//! * the [`EdgeKey`] order is `(weight rank bits, u, v)` — descending
//!   weight with f64-*bit* granularity, `-0.0` folded onto `+0.0`,
//!   ascending `(u, v)` among bit-exact ties — identical to batch CEP's
//!   sort order;
//! * the rank-K key, selected from the live keys, is batch CEP's cutoff
//!   **including the tie-break at the rank-K boundary** (duplicate weights
//!   cut mid-tie by `(u, v)`);
//! * Σw restated exactly from the live weights, in whatever order they are
//!   read, gives WEP's mean bit for bit as the batch pass computes it.

use blast_datamodel::entity::ProfileId;
use blast_graph::exact_sum::ExactSum;
use blast_graph::pruning::{Cep, Wep};
use blast_graph::retained::RetainedPairs;
use blast_incremental::decision::retained_under;
use blast_incremental::{EdgeKey, Frontier};
use proptest::prelude::*;

/// One scripted mutation over a bounded pair universe: `kind % 3` selects
/// insert / remove / re-weight, `(a, b)` the pair, `w` the weight.
type Op = (u8, u8, u8, u8);

/// Signed quarter-step weights with an explicit `-0.0` (w = 1), so
/// duplicate-weight and signed-zero ties are routine, not rare.
fn signed_quarter(w: u8) -> f64 {
    if w == 1 {
        -0.0
    } else {
        (w as f64 - 8.0) / 4.0
    }
}

/// Applies ops to a naive mirror of the live edge set, returning it as the
/// live edge list (canonical pairs, in mutation order — not sorted).
fn drive(ops: &[Op]) -> Vec<(u32, u32, f64)> {
    let mut live: Vec<(u32, u32, f64)> = Vec::new();
    for &(kind, a, b, w) in ops {
        let (a, b) = (a as u32 % 12, b as u32 % 12);
        if a == b {
            continue;
        }
        let (a, b) = (a.min(b), a.max(b));
        let w = signed_quarter(w);
        let pos = live.iter().position(|&(x, y, _)| (x, y) == (a, b));
        match (kind % 3, pos) {
            (0, None) => live.push((a, b, w)),
            (1, Some(i)) => {
                live.swap_remove(i);
            }
            (2, Some(i)) => live[i].2 = w,
            _ => {}
        }
    }
    live
}

/// The canonical `(u, v)`-sorted edge list the batch passes consume.
fn canonical(live: &[(u32, u32, f64)]) -> Vec<(u32, u32, f64)> {
    let mut edges = live.to_vec();
    edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
    edges
}

/// CEP's frontier as the decision stage selects it: the rank-`k` key
/// (1-based) of the live keys, `None` for K = 0.
fn rank_k_frontier(live: &[(u32, u32, f64)], k: usize) -> Frontier {
    let mut keys: Vec<EdgeKey> = live
        .iter()
        .map(|&(u, v, w)| EdgeKey::new(u, v, w))
        .collect();
    match k.min(keys.len()) {
        0 => None,
        k => Some(*keys.select_nth_unstable(k - 1).1),
    }
}

/// The edges a frontier retains, as the flat sorted view.
fn prefix(live: &[(u32, u32, f64)], frontier: Frontier) -> RetainedPairs {
    let pairs = canonical(live)
        .into_iter()
        .filter(|&(u, v, w)| retained_under(frontier, EdgeKey::new(u, v, w)))
        .map(|(u, v, _)| (ProfileId(u), ProfileId(v)))
        .collect();
    RetainedPairs::from_sorted(pairs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// WEP's mean over Σw restated from the live weights — read in
    /// mutation order, not the batch pass's `(u, v)` order — retains
    /// exactly what batch WEP retains, after any mutation history.
    #[test]
    fn prop_restated_mean_is_batch_wep(
        ops in proptest::collection::vec(
            (0u8..3, 0u8..255, 0u8..255, 0u8..16), 0..60),
    ) {
        let live = drive(&ops);
        let edges = canonical(&live);
        let restated = ExactSum::of(live.iter().map(|&(_, _, w)| w));
        let sorted = ExactSum::of(edges.iter().map(|&(_, _, w)| w));
        prop_assert_eq!(restated.round().to_bits(), sorted.round().to_bits());

        let frontier = Wep::mean_from_sum(&restated, live.len()).map(EdgeKey::mean_bound);
        prop_assert_eq!(
            prefix(&live, frontier).pairs(),
            Wep::prune_edges(&edges).pairs(),
            "restated-mean prefix diverged from batch WEP"
        );
    }

    /// The rank-K prefix equals batch CEP bit-for-bit, for every K — the
    /// tie-break at the rank-K boundary included (quarter-step weights and
    /// signed zeros make the boundary cut through duplicate weights
    /// regularly).
    #[test]
    fn prop_rank_k_prefix_is_batch_cep(
        ops in proptest::collection::vec(
            (0u8..3, 0u8..255, 0u8..255, 0u8..16), 0..50),
    ) {
        let live = drive(&ops);
        let edges = canonical(&live);
        for k in 0..=live.len() + 1 {
            prop_assert_eq!(
                prefix(&live, rank_k_frontier(&live, k)).pairs(),
                Cep::prune_edges(k as u64, &edges).pairs(),
                "rank-{} prefix diverged from batch CEP",
                k
            );
        }
    }
}

/// f64-bit ordering corner cases pinned deterministically: duplicate
/// weights cut by `(u, v)`, `-0.0` ties with `+0.0`, subnormals and
/// negative weights ordered correctly.
#[test]
fn bit_order_corner_cases() {
    let live = [
        (5, 6, 0.0),
        (0, 1, -0.0),
        (2, 3, f64::from_bits(1)), // smallest subnormal
        (7, 8, -1.0),
        (4, 9, 1.0),
    ];
    let mut keys: Vec<EdgeKey> = live
        .iter()
        .map(|&(u, v, w)| EdgeKey::new(u, v, w))
        .collect();
    keys.sort_unstable();
    let order: Vec<(u32, u32)> = keys.iter().map(|k| (k.u, k.v)).collect();
    // 1.0 first, then the subnormal, then the two zeros tied (−0.0
    // normalised, so (0,1) precedes (5,6) by pair order), then −1.0.
    assert_eq!(order, vec![(4, 9), (2, 3), (0, 1), (5, 6), (7, 8)]);

    // A frontier at the K=3 boundary cuts through the zero tie exactly
    // like batch CEP's (u, v) tie-break.
    let frontier = rank_k_frontier(&live, 3);
    assert_eq!(frontier.map(|k| (k.u, k.v)), Some((0, 1)));
    let retained = prefix(&live, frontier);
    assert_eq!(retained.len(), 3);
    assert!(!retained.contains(ProfileId(5), ProfileId(6)));
    assert_eq!(
        retained.pairs(),
        Cep::prune_edges(3, &canonical(&live)).pairs()
    );
}
