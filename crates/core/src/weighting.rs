//! BLAST's blocking-graph weighting (§3.3.1).
//!
//! For an edge (u, v), the 2×2 contingency table of Table 1 describes how u
//! and v co-occur in the block collection:
//!
//! |            | v present    | v absent            | total        |
//! |------------|--------------|---------------------|--------------|
//! | u present  | n₁₁ = |B_uv| | n₁₂ = |B_u| − n₁₁   | n₁₊ = |B_u|  |
//! | u absent   | n₂₁ = |B_v| − n₁₁ | n₂₂          | n₂₊          |
//! | total      | n₊₁ = |B_v|  | n₊₂                 | n₊₊ = |B|    |
//!
//! Pearson's χ² = Σ (nᵢⱼ − μᵢⱼ)²/μᵢⱼ with μᵢⱼ = nᵢ₊·n₊ⱼ/n₊₊ measures how
//! far the observed co-occurrence is from independence; BLAST multiplies it
//! by h(B_uv), the mean aggregate entropy of the shared blocking keys, so
//! co-occurrences in informative blocks weigh more.

use blast_graph::context::{EdgeAccum, GraphSnapshot};
use blast_graph::weights::{EdgeWeigher, WeightDeps, WeightingScheme};

/// Computes Pearson's χ² for the contingency table with n₁₁ = `common`,
/// marginals `bu` = |B_u|, `bv` = |B_v| and total `n` = |B|. Cells with zero
/// expected count contribute nothing.
#[inline]
pub fn chi_squared(common: f64, bu: f64, bv: f64, n: f64) -> f64 {
    if n <= 0.0 {
        return 0.0;
    }
    let observed = [
        common,               // n11
        bu - common,          // n12
        bv - common,          // n21
        n - bu - bv + common, // n22
    ];
    let rows = [bu, n - bu];
    let cols = [bv, n - bv];
    let mut chi = 0.0;
    for i in 0..2 {
        for j in 0..2 {
            let expected = rows[i] * cols[j] / n;
            if expected > 0.0 {
                let d = observed[i * 2 + j] - expected;
                chi += d * d / expected;
            }
        }
    }
    chi
}

/// BLAST's edge weigher: w_uv = χ²_uv · h(B_uv).
///
/// The entropy factor requires the graph context to carry per-block
/// entropies ([`GraphSnapshot::with_block_entropies`]); without them every
/// block's factor is 1 and the weigher reduces to plain χ² (the "chi"
/// ablation of Fig. 8).
#[derive(Debug, Clone, Copy)]
pub struct ChiSquaredWeigher {
    /// Multiply by the mean entropy of the shared blocks (h(B_uv)).
    pub use_entropy: bool,
}

impl Default for ChiSquaredWeigher {
    fn default() -> Self {
        Self { use_entropy: true }
    }
}

impl ChiSquaredWeigher {
    /// The full BLAST weighting (χ² × entropy).
    pub fn new() -> Self {
        Self::default()
    }

    /// χ² only — the Fig. 8 "chi" configuration.
    pub fn without_entropy() -> Self {
        Self { use_entropy: false }
    }
}

impl EdgeWeigher for ChiSquaredWeigher {
    #[inline]
    fn weight(&self, ctx: &GraphSnapshot, u: u32, v: u32, acc: &EdgeAccum) -> f64 {
        let common = acc.common_blocks as f64;
        let bu = ctx.node_blocks(u) as f64;
        let bv = ctx.node_blocks(v) as f64;
        let n = ctx.total_blocks() as f64;
        // χ² is two-sided: pairs co-occurring *less* than independence
        // predicts also diverge. The paper uses the statistic "to highlight
        // profile pairs that are highly associated", so negative association
        // (observed ≤ expected co-occurrence) gets weight 0. With realistic
        // block counts μ₁₁ ≪ 1 and this never triggers; it matters on toy
        // collections like Fig. 1 where expected co-occurrence is large.
        if n > 0.0 && common <= bu * bv / n {
            return 0.0;
        }
        let chi = chi_squared(common, bu, bv, n);
        if self.use_entropy {
            let h = acc.entropy_sum / acc.common_blocks as f64;
            chi * h
        } else {
            chi
        }
    }

    fn global_deps(&self) -> WeightDeps {
        // The contingency table reads |B_u|, |B_v| and |B|; the entropy
        // tally reads no block size.
        WeightDeps::BLOCK_COUNTS
    }

    fn name(&self) -> &'static str {
        if self.use_entropy {
            "chi2·h"
        } else {
            "chi2"
        }
    }
}

/// A traditional weighting scheme scaled by the aggregate entropy — the
/// Fig. 8 "wsh" configuration (WS adapted to exploit entropies).
#[derive(Debug, Clone, Copy)]
pub struct WsEntropyWeigher {
    /// The underlying traditional scheme.
    pub scheme: WeightingScheme,
}

impl WsEntropyWeigher {
    /// Wraps a traditional scheme.
    pub fn new(scheme: WeightingScheme) -> Self {
        Self { scheme }
    }
}

impl EdgeWeigher for WsEntropyWeigher {
    #[inline]
    fn weight(&self, ctx: &GraphSnapshot, u: u32, v: u32, acc: &EdgeAccum) -> f64 {
        let base = self.scheme.weight(ctx, u, v, acc);
        let h = acc.entropy_sum / acc.common_blocks as f64;
        base * h
    }

    fn requires_degrees(&self) -> bool {
        self.scheme.requires_degrees()
    }

    fn global_deps(&self) -> WeightDeps {
        // The entropy factor reads only the accumulator; the globals are the
        // wrapped scheme's.
        self.scheme.global_deps()
    }

    fn name(&self) -> &'static str {
        "ws·h"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_blocking::block::Block;
    use blast_blocking::collection::BlockCollection;
    use blast_blocking::key::ClusterId;
    use blast_blocking::token_blocking::TokenBlocking;
    use blast_datamodel::collection::EntityCollection;
    use blast_datamodel::entity::{ProfileId, SourceId};
    use blast_datamodel::input::ErInput;

    /// Table 1's worked example: n₁₁=4, n₁₂=2, n₂₁=3, n₂₂=3, totals 6/6,
    /// 7/5, 12 — from the Figure 1b blocks for (p1, p3).
    #[test]
    fn table1_chi_squared_value() {
        // Hand-computed χ²:
        // μ11 = 6·7/12 = 3.5, μ12 = 6·5/12 = 2.5,
        // μ21 = 6·7/12 = 3.5, μ22 = 6·5/12 = 2.5.
        // χ² = .25/3.5 + .25/2.5 + .25/3.5 + .25/2.5 = 0.342857…
        let chi = chi_squared(4.0, 6.0, 7.0, 12.0);
        let expected = 2.0 * (0.25 / 3.5) + 2.0 * (0.25 / 2.5);
        assert!((chi - expected).abs() < 1e-12, "{chi} vs {expected}");
    }

    /// The same value must come out of the real Figure 1 pipeline.
    #[test]
    fn figure1_chi_squared_through_graph() {
        let mut d = EntityCollection::new(SourceId(0));
        d.push_pairs(
            "p1",
            [
                ("Name", "John Abram Jr"),
                ("profession", "car seller"),
                ("year", "1985"),
                ("Addr.", "Main street"),
            ],
        );
        d.push_pairs(
            "p2",
            [
                ("FirstName", "Ellen"),
                ("SecondName", "Smith"),
                ("year", "85"),
                ("occupation", "retail"),
                ("mail", "Abram st. 30 NY"),
            ],
        );
        d.push_pairs(
            "p3",
            [
                ("name1", "Jon Jr"),
                ("name2", "Abram"),
                ("birth year", "85"),
                ("job", "car retail"),
                ("Loc", "Main st."),
            ],
        );
        d.push_pairs(
            "p4",
            [
                ("full name", "Ellen Smith"),
                ("b. date", "May 10 1985"),
                ("work info", "retailer"),
                ("loc", "Abram street NY"),
            ],
        );
        let blocks = TokenBlocking::new().build(&ErInput::dirty(d));
        let ctx = GraphSnapshot::build(&blocks);
        let acc = ctx.edge(0, 2).unwrap();
        let w = ChiSquaredWeigher::without_entropy().weight(&ctx, 0, 2, &acc);
        assert!((w - chi_squared(4.0, 6.0, 7.0, 12.0)).abs() < 1e-12);
    }

    #[test]
    fn independence_gives_zero_chi() {
        // u in half the blocks, v in half, co-occurring exactly as expected:
        // n11 = 25, bu = bv = 50, n = 100 → μ11 = 25 → χ² = 0.
        assert!(chi_squared(25.0, 50.0, 50.0, 100.0).abs() < 1e-12);
    }

    #[test]
    fn stronger_association_higher_chi() {
        let weak = chi_squared(3.0, 10.0, 10.0, 100.0);
        let strong = chi_squared(9.0, 10.0, 10.0, 100.0);
        assert!(strong > weak);
    }

    #[test]
    fn degenerate_tables_are_safe() {
        assert_eq!(chi_squared(0.0, 0.0, 0.0, 0.0), 0.0);
        // Node in every block: row 2 is empty → its cells are skipped.
        let chi = chi_squared(5.0, 10.0, 5.0, 10.0);
        assert!(chi.is_finite());
    }

    /// Figure 3's effect: the entropy factor amplifies edges whose shared
    /// blocks come from informative clusters.
    #[test]
    fn entropy_factor_scales_weights() {
        fn ids(v: &[u32]) -> Vec<ProfileId> {
            v.iter().map(|&i| ProfileId(i)).collect()
        }
        // E1 = {0,1}, E2 = {2,3}: two name blocks on (0,2), two year blocks
        // on (1,3) — symmetric topology, different clusters.
        let blocks = BlockCollection::new(
            vec![
                Block::new("john#c1", ClusterId(1), ids(&[0, 2]), 2),
                Block::new("1985#c0", ClusterId(0), ids(&[1, 3]), 2),
                Block::new("abram#c1", ClusterId(1), ids(&[0, 2]), 2),
                Block::new("85#c0", ClusterId(0), ids(&[1, 3]), 2),
            ],
            true,
            2,
            4,
        );
        // Per-block entropies from the cluster aggregates of Fig. 3a:
        // names = 3.5, other = 2.0.
        let ents = vec![3.5, 2.0, 3.5, 2.0];
        let ctx = GraphSnapshot::build(&blocks).with_block_entropies(ents);
        let full = ChiSquaredWeigher::new();
        let plain = ChiSquaredWeigher::without_entropy();
        let acc02 = ctx.edge(0, 2).unwrap();
        let acc13 = ctx.edge(1, 3).unwrap();
        // Same topology for both edges → equal χ² (= 4 here); entropy
        // separates them by exactly the cluster ratio.
        let chi02 = plain.weight(&ctx, 0, 2, &acc02);
        let chi13 = plain.weight(&ctx, 1, 3, &acc13);
        assert!((chi02 - 4.0).abs() < 1e-12, "χ² = {chi02}");
        assert!((chi02 - chi13).abs() < 1e-12);
        assert!(
            (full.weight(&ctx, 0, 2, &acc02) / full.weight(&ctx, 1, 3, &acc13) - 3.5 / 2.0).abs()
                < 1e-9
        );
    }

    /// Negative association must not masquerade as a strong signal.
    #[test]
    fn negative_association_weighs_zero() {
        fn ids(v: &[u32]) -> Vec<ProfileId> {
            v.iter().map(|&i| ProfileId(i)).collect()
        }
        // Nodes 0 and 1 share 1 of 4 blocks while sitting in 3 and 2:
        // expected co-occurrence 3·2/4 = 1.5 > 1 → anti-associated.
        let blocks = BlockCollection::new(
            vec![
                Block::new("a", ClusterId::GLUE, ids(&[0, 1]), 1),
                Block::new("b", ClusterId::GLUE, ids(&[0, 2]), 1),
                Block::new("c", ClusterId::GLUE, ids(&[0, 3]), 1),
                Block::new("d", ClusterId::GLUE, ids(&[1, 2]), 1),
            ],
            false,
            4,
            4,
        );
        let ctx = GraphSnapshot::build(&blocks);
        let acc = ctx.edge(0, 1).unwrap();
        assert_eq!(
            ChiSquaredWeigher::without_entropy().weight(&ctx, 0, 1, &acc),
            0.0
        );
        // The raw statistic itself is positive — the guard is the weigher's.
        assert!(chi_squared(1.0, 3.0, 3.0, 4.0) > 0.0);
    }

    #[test]
    fn ws_entropy_wrapper_scales_traditional_scheme() {
        fn ids(v: &[u32]) -> Vec<ProfileId> {
            v.iter().map(|&i| ProfileId(i)).collect()
        }
        let blocks = BlockCollection::new(
            vec![Block::new("k", ClusterId(1), ids(&[0, 1]), 1)],
            true,
            1,
            2,
        );
        let ctx = GraphSnapshot::build(&blocks).with_block_entropies(vec![2.5]);
        let acc = ctx.edge(0, 1).unwrap();
        let plain = WeightingScheme::Cbs.weight(&ctx, 0, 1, &acc);
        let scaled = WsEntropyWeigher::new(WeightingScheme::Cbs).weight(&ctx, 0, 1, &acc);
        assert!((scaled - plain * 2.5).abs() < 1e-12);
    }
}
