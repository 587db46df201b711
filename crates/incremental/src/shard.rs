//! Profile-space sharding of the commit path.
//!
//! The sharded engine partitions the profile space into S shards by
//! **round-robin node ownership**: profile `u` belongs to shard
//! `u mod S`, so a streamed collection spreads evenly however its ids
//! arrive (range partitioning would pile every freshly appended profile
//! onto the last shard). Each shard owns its slice of every per-node
//! structure — CSR rows, adjacency rows, retained-index rows, per-node
//! artefacts — and an edge is **owned by the shard of its canonical
//! (smaller) endpoint**. An edge whose endpoints live in different shards
//! is a *cross-shard* edge; it is computed by its owner shard like any
//! other, but it is accounted to the **merge frontier**, the deterministic
//! reduction step where per-shard result runs are merged back into the
//! single canonical order the decision stage consumes.
//!
//! Determinism contract (what makes sharding bit-identical "for free"):
//!
//! 1. per-edge weights are pure functions of the cached accumulator and
//!    O(1) snapshot statistics (the factored-weight contract), so *where*
//!    an edge is computed cannot change its bits;
//! 2. each shard emits its results sorted in the canonical `(u, v)` order
//!    (it scans its owned rows ascending), so the merge frontier's
//!    reduction — `merge_sorted_runs`, the merge the repair passes use
//!    for their ordered emission, here with one run per shard — reproduces
//!    exactly the sequence a single-shard scan would have produced;
//! 3. order-sensitive global state is order-free by construction: the
//!    ordered-weight treap's shape is canonical in its key set, and the
//!    exact-sum WEP threshold accumulates in an integer superaccumulator
//!    ([`blast_graph::exact_sum::ExactSum::merge`]), so per-shard partial
//!    sums reduce to the same bits in any merge order.
//!
//! Hence every commit outcome — pair deltas, tiers, Θ, retained sets — is
//! bit-identical to the single-shard pipeline at any shard/thread count,
//! which the property tests in `tests/sharded_equivalence.rs` pin.

/// The shard partitioning of a pipeline: how many shards, and which shard
/// owns which profile. `ShardPlan::single()` (S = 1) is the canonical
/// single-shard engine every other plan must reproduce bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    shards: usize,
}

impl ShardPlan {
    /// A plan over `shards` shards (at least one).
    pub fn new(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
        }
    }

    /// The single-shard (canonical) plan.
    pub fn single() -> Self {
        Self::new(1)
    }

    /// Number of shards.
    #[inline]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning profile `u` (round-robin).
    #[inline]
    pub fn shard_of(&self, u: u32) -> usize {
        u as usize % self.shards
    }

    /// Whether the edge `(u, v)` crosses shards — a merge-frontier pair.
    #[inline]
    pub fn is_frontier(&self, u: u32, v: u32) -> bool {
        self.shard_of(u) != self.shard_of(v)
    }

    /// The owned node lists of every shard over `0..n`: `lists[s]` holds
    /// shard `s`'s profiles ascending. The shard-major concatenation is the
    /// scan order of a shard-parallel per-node pass.
    pub fn owned_nodes(&self, n: usize) -> Vec<Vec<u32>> {
        let mut lists: Vec<Vec<u32>> = (0..self.shards)
            .map(|s| Vec::with_capacity(n / self.shards + usize::from(s < n % self.shards)))
            .collect();
        for u in 0..n as u32 {
            lists[self.shard_of(u)].push(u);
        }
        lists
    }
}

impl Default for ShardPlan {
    fn default() -> Self {
        Self::single()
    }
}

/// Per-commit accounting of one shard-partitioned pass: how much work each
/// owner shard carried and how many of its edges crossed the frontier.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Edges processed per owner shard.
    pub per_shard: Vec<usize>,
    /// Edges whose endpoints live in different shards.
    pub frontier_pairs: usize,
}

impl ShardStats {
    /// Zeroed accounting for a plan.
    pub fn new(plan: &ShardPlan) -> Self {
        Self {
            per_shard: vec![0; plan.shards()],
            frontier_pairs: 0,
        }
    }

    /// Accounts one edge to its owner shard (and to the frontier when it
    /// crosses shards).
    #[inline]
    pub fn record_edge(&mut self, plan: &ShardPlan, u: u32, v: u32) {
        self.per_shard[plan.shard_of(u)] += 1;
        if plan.is_frontier(u, v) {
            self.frontier_pairs += 1;
        }
    }

    /// Folds another pass's accounting into this one (same plan).
    pub fn merge(&mut self, other: &ShardStats) {
        if self.per_shard.len() < other.per_shard.len() {
            self.per_shard.resize(other.per_shard.len(), 0);
        }
        for (mine, theirs) in self.per_shard.iter_mut().zip(&other.per_shard) {
            *mine += theirs;
        }
        self.frontier_pairs += other.frontier_pairs;
    }

    /// Total edges accounted across all shards.
    pub fn total(&self) -> usize {
        self.per_shard.iter().sum()
    }

    /// Owner-shard load imbalance, permille of the mean shard load:
    /// 1000 = perfectly balanced, 2000 = the heaviest shard carried twice
    /// the mean. 1000 when nothing was processed (vacuously balanced).
    pub fn imbalance_permille(&self) -> u64 {
        let total = self.total();
        if total == 0 || self.per_shard.is_empty() {
            return 1000;
        }
        let max = *self.per_shard.iter().max().expect("non-empty") as f64;
        let mean = total as f64 / self.per_shard.len() as f64;
        (max / mean * 1000.0).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_graph::pruning::common::merge_sorted_runs;

    #[test]
    fn round_robin_ownership_spreads_consecutive_ids() {
        let plan = ShardPlan::new(4);
        assert_eq!(plan.shard_of(0), 0);
        assert_eq!(plan.shard_of(5), 1);
        assert!(plan.is_frontier(0, 1));
        assert!(!plan.is_frontier(0, 8));
        let owned = plan.owned_nodes(10);
        assert_eq!(owned[0], vec![0, 4, 8]);
        assert_eq!(owned[1], vec![1, 5, 9]);
        assert_eq!(owned[3], vec![3, 7]);
        assert_eq!(owned.iter().map(Vec::len).sum::<usize>(), 10);
    }

    #[test]
    fn single_shard_plan_has_no_frontier() {
        let plan = ShardPlan::single();
        let mut stats = ShardStats::new(&plan);
        stats.record_edge(&plan, 3, 11);
        stats.record_edge(&plan, 0, 1);
        assert_eq!(stats.frontier_pairs, 0);
        assert_eq!(stats.total(), 2);
        assert_eq!(stats.imbalance_permille(), 1000);
    }

    #[test]
    fn imbalance_reads_the_heaviest_shard() {
        let plan = ShardPlan::new(2);
        let mut stats = ShardStats::new(&plan);
        // Three edges owned by shard 0, one by shard 1 → max/mean = 1.5.
        for (u, v) in [(0, 2), (0, 4), (2, 4), (1, 3)] {
            stats.record_edge(&plan, u, v);
        }
        assert_eq!(stats.frontier_pairs, 0);
        assert_eq!(stats.imbalance_permille(), 1500);

        let mut other = ShardStats::new(&plan);
        other.record_edge(&plan, 1, 2); // cross-shard, owned by shard 1
        stats.merge(&other);
        assert_eq!(stats.frontier_pairs, 1);
        assert_eq!(stats.total(), 5);
    }

    #[test]
    fn merge_shard_runs_restores_canonical_order() {
        let plan = ShardPlan::new(3);
        let edges: Vec<(u32, u32)> = (0..30u32)
            .flat_map(|u| ((u + 1)..30).step_by(7).map(move |v| (u, v)))
            .collect();
        // Partition by owner shard, preserving the canonical order within
        // each run (exactly what a shard-local ascending scan produces).
        let mut runs: Vec<Vec<(u32, u32)>> = vec![Vec::new(); 3];
        for &(u, v) in &edges {
            runs[plan.shard_of(u)].push((u, v));
        }
        let merged = merge_sorted_runs(runs, |&(u, v)| (u, v));
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        assert_eq!(merged, sorted);
    }
}
