//! The immutable, versioned view the serving layer publishes per commit.
//!
//! A [`ServeSnapshot`] answers the read-side questions — candidates of a
//! profile, top-k neighbours by weight, liveness, corpus stats — without
//! touching the incremental engine's mutable structures. Readers hold it
//! through the `Arc` [`crate::epoch::Epoch::load`] hands out; everything
//! inside is plain immutable data, so a query takes no lock once it has
//! its view and allocates little.
//!
//! Publishing must cost what the commit changed, not what the corpus
//! holds. The snapshot is therefore **copy-on-write at row granularity**
//! under a two-level table: a node's row sits behind its own `Arc`, rows
//! are grouped [`CHUNK_NODES`] to a chunk, and chunks sit behind `Arc`s in
//! one pointer vector. Stamping a version clones the pointer vector
//! (8 bytes per chunk). The first touch of a chunk in a commit clones its
//! row pointers — [`CHUNK_NODES`] refcount bumps, no row data — and each
//! touched node gets **one** new row: the [`SnapshotBuilder`] groups the
//! commit's delta by row and merges old row ∪ adds ∖ retracts into an
//! exactly sized slice (capacity = length, so a long-lived view carries no
//! growth slack). Every untouched row and chunk is shared with all
//! previously published versions. A commit touching `d` rows across `c`
//! chunks therefore publishes in O(d + c·[`CHUNK_NODES`] + corpus/[`CHUNK_NODES`]),
//! and [`SnapshotBuilder::apply`] reports `d` and `c` as exact counts
//! ([`CopyStats`]).
//!
//! Consistency contract: the snapshot's candidate rows mirror
//! `IncrementalPipeline::retained()` **exactly as of the tagged commit
//! seq** — the builder replays the engine's own `PairDelta`, so a query at
//! seq N returns the batch-equivalent candidate set at commit N (the
//! CI-gated read-your-writes check). Edge *weights* are the decision
//! stage's own — the `f64` it compared when the pair entered the set
//! (`PairDelta::added_weights`), never a re-derivation; a later commit that
//! reweighs a surviving pair without flipping it does not refresh it, so
//! ordering inside `top_k` is best-effort between flips while the
//! candidate *set* is exact.

use std::sync::Arc;

/// Node rows per chunk of the two-level row table: what the first touch of
/// a chunk costs a commit in refcount bumps. Power of two so the row →
/// (chunk, offset) split is a shift + mask.
pub const CHUNK_NODES: usize = 512;

/// One retained comparison partner of a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The partner's global profile id.
    pub id: u32,
    /// The weight the decision stage compared when the pair entered the
    /// candidate set.
    pub weight: f64,
}

/// One node's serve-side row — the copy-on-write unit.
#[derive(Debug, Clone, Default)]
struct NodeRow {
    /// The profile's external id (`None` until first seen).
    external_id: Option<Arc<str>>,
    /// Whether the profile is live (not tombstoned).
    live: bool,
    /// Retained partners, ascending by id, exactly sized.
    candidates: Box<[Candidate]>,
}

/// Up to [`CHUNK_NODES`] shared rows: cloning a chunk bumps one refcount
/// per row and copies none.
#[derive(Debug, Clone, Default)]
struct Chunk {
    rows: Vec<Arc<NodeRow>>,
}

/// An immutable published view at one commit seq. Cloning it clones the
/// chunk pointer vector only; never mutated after publication.
#[derive(Debug, Clone, Default)]
pub struct ServeSnapshot {
    /// The commit sequence this view corresponds to (0 = empty pre-ingest
    /// snapshot; the N-th commit publishes seq N).
    seq: u64,
    chunks: Vec<Arc<Chunk>>,
    /// Total global id slots covered.
    nodes: u32,
    /// Live (non-tombstoned) profiles.
    live: u32,
    /// Retained comparisons (each pair counted once).
    pairs: u64,
    /// Cleaned blocks at this commit (stats surface only).
    blocks: u64,
}

impl ServeSnapshot {
    /// The commit seq this snapshot was published at.
    #[inline]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Total global id slots (live + tombstoned).
    #[inline]
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Live profiles.
    #[inline]
    pub fn live(&self) -> u32 {
        self.live
    }

    /// Retained comparisons (each pair once).
    #[inline]
    pub fn pairs(&self) -> u64 {
        self.pairs
    }

    /// Cleaned blocks at this commit.
    #[inline]
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    #[inline]
    fn row(&self, id: u32) -> Option<&NodeRow> {
        if id >= self.nodes {
            return None;
        }
        let i = id as usize;
        Some(&*self.chunks[i / CHUNK_NODES].rows[i % CHUNK_NODES])
    }

    /// Whether the profile id exists and is live.
    pub fn is_live(&self, id: u32) -> bool {
        self.row(id).is_some_and(|r| r.live)
    }

    /// The profile's external id, if the id is known.
    pub fn external_id(&self, id: u32) -> Option<&str> {
        self.row(id)?.external_id.as_deref()
    }

    /// The retained partners of `id`, ascending by partner id. `None` when
    /// the id is out of range; an empty slice when it simply has no
    /// candidates.
    pub fn candidates(&self, id: u32) -> Option<&[Candidate]> {
        self.row(id).map(|r| &*r.candidates)
    }

    /// The `k` heaviest partners of `id`, descending by weight (ties:
    /// ascending id, so the order is total and deterministic). Selects the
    /// `k` first, then sorts only those.
    pub fn top_k(&self, id: u32, k: usize) -> Vec<Candidate> {
        let Some(row) = self.row(id) else {
            return Vec::new();
        };
        let heavier_first =
            |a: &Candidate, b: &Candidate| b.weight.total_cmp(&a.weight).then(a.id.cmp(&b.id));
        let mut out = row.candidates.to_vec();
        if k < out.len() {
            out.select_nth_unstable_by(k, heavier_first);
            out.truncate(k);
        }
        out.sort_unstable_by(heavier_first);
        out
    }

    /// Whether the pair `(a, b)` is retained at this seq.
    pub fn contains(&self, a: u32, b: u32) -> bool {
        self.row(a)
            .is_some_and(|r| r.candidates.binary_search_by_key(&b, |c| c.id).is_ok())
    }

    /// Every retained pair, smaller id first, ascending — the equivalence
    /// oracle's view (O(pairs); read path only, never the publish path).
    pub fn all_pairs(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.pairs as usize);
        for (ci, chunk) in self.chunks.iter().enumerate() {
            for (ri, row) in chunk.rows.iter().enumerate() {
                let u = (ci * CHUNK_NODES + ri) as u32;
                for c in row.candidates.iter() {
                    if c.id > u {
                        out.push((u, c.id));
                    }
                }
            }
        }
        out
    }
}

/// One commit's worth of snapshot changes, in engine terms. The writer
/// translates `CommitOutcome` + store bookkeeping into this.
#[derive(Debug, Clone, Default)]
pub struct CommitUpdate {
    /// The seq to tag the published snapshot with.
    pub seq: u64,
    /// Profiles inserted or updated this commit: `(id, external_id)`.
    /// Marks the row live and (re)sets its external id.
    pub upserts: Vec<(u32, Arc<str>)>,
    /// Profiles tombstoned this commit.
    pub deletes: Vec<u32>,
    /// Pairs entering the candidate set, each once, with the weight the
    /// decision stage compared. Re-adding a present pair refreshes it.
    pub added: Vec<(u32, u32, f64)>,
    /// Pairs leaving the candidate set (an absent pair is ignored).
    pub retracted: Vec<(u32, u32)>,
    /// Cleaned-block count after the commit.
    pub blocks: u64,
}

/// What one [`SnapshotBuilder::apply`] copied — exact counts, a function
/// of the update and the view alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CopyStats {
    /// Rows re-allocated because a published version still shares the old
    /// one: at most one per node the update touches.
    pub rows: usize,
    /// Chunks whose row-pointer vector was cloned ([`CHUNK_NODES`]
    /// refcount bumps each): at most one per chunk holding a touched node.
    pub chunks: usize,
}

/// One endpoint's share of a pair flip, `(row, partner, weight)`: the
/// partner enters the row at a weight, or (`None`) leaves it.
type Edit = (u32, u32, Option<f64>);

/// The writer-side accumulator: owns the working chunk vector and stamps
/// out one immutable [`ServeSnapshot`] per commit, copying only the rows
/// the commit touched.
#[derive(Debug, Default)]
pub struct SnapshotBuilder {
    chunks: Vec<Arc<Chunk>>,
    nodes: u32,
    live: u32,
    /// Candidate entries over all rows — two per retained pair.
    entries: u64,
    copied: CopyStats,
}

impl SnapshotBuilder {
    /// An empty builder (publishes seq-0 views until the first commit).
    pub fn new() -> Self {
        Self::default()
    }

    /// A chunk, writable: one still shared with a published version has its
    /// row pointers cloned first — [`CHUNK_NODES`] refcount bumps, no row
    /// data.
    fn writable<'a>(chunk: &'a mut Arc<Chunk>, copied: &mut CopyStats) -> &'a mut Chunk {
        copied.chunks += usize::from(Arc::strong_count(chunk) > 1);
        Arc::make_mut(chunk)
    }

    /// Grows the row table to `nodes` empty rows.
    fn ensure_nodes(&mut self, nodes: u32) {
        for id in self.nodes..nodes {
            if (id as usize).is_multiple_of(CHUNK_NODES) {
                self.chunks.push(Arc::default());
            }
            let last = self.chunks.last_mut().expect("a chunk covers every id");
            Self::writable(last, &mut self.copied)
                .rows
                .push(Arc::default());
        }
        self.nodes = self.nodes.max(nodes);
    }

    /// Node `id`'s row pointer in its (writable) chunk, beside the copy
    /// counters.
    fn slot_mut(&mut self, id: u32) -> (&mut Arc<NodeRow>, &mut CopyStats) {
        let chunk = &mut self.chunks[id as usize / CHUNK_NODES];
        let chunk = Self::writable(chunk, &mut self.copied);
        (&mut chunk.rows[id as usize % CHUNK_NODES], &mut self.copied)
    }

    /// Node `id`'s row, writable: one still shared with a published
    /// version is copied first. A row whose candidates this commit already
    /// replaced is not shared, so a node pays for one copy per commit.
    fn row_mut(&mut self, id: u32) -> &mut NodeRow {
        let (row, copied) = self.slot_mut(id);
        copied.rows += usize::from(Arc::strong_count(row) > 1);
        Arc::make_mut(row)
    }

    /// Replaces node `id`'s candidates. A row a published version still
    /// shares is re-allocated around the new slice — the old candidates
    /// are never copied.
    fn set_candidates(&mut self, id: u32, candidates: Box<[Candidate]>) {
        let (row, copied) = self.slot_mut(id);
        match Arc::get_mut(row) {
            Some(row) => row.candidates = candidates,
            None => {
                copied.rows += 1;
                *row = Arc::new(NodeRow {
                    external_id: row.external_id.clone(),
                    live: row.live,
                    candidates,
                });
            }
        }
    }

    /// Applies one commit's changes and stamps the immutable view to
    /// publish, reporting what it copied. The pair flips are grouped by
    /// row and each touched row is built once — old row ∪ adds ∖ retracts,
    /// exactly sized — so the cost is O(touched rows + [`CHUNK_NODES`] per
    /// touched chunk + chunk count); every untouched row and chunk stays
    /// shared with every previously stamped snapshot. Retractions apply
    /// before additions: a pair in both lists ends up present.
    pub fn apply(&mut self, update: &CommitUpdate) -> (ServeSnapshot, CopyStats) {
        self.copied = CopyStats::default();
        let ids = (update.upserts.iter().map(|(id, _)| *id))
            .chain(update.deletes.iter().copied())
            .chain(update.added.iter().flat_map(|&(a, b, _)| [a, b]));
        if let Some(max) = ids.max() {
            self.ensure_nodes(max + 1);
        }

        let flips = (update.retracted.iter().map(|&(a, b)| (a, b, None)))
            .chain(update.added.iter().map(|&(a, b, w)| (a, b, Some(w))));
        let mut edits: Vec<Edit> = flips
            .flat_map(|(a, b, weight)| [(a, b, weight), (b, a, weight)])
            .collect();
        // In place; a pair both retracted and added sorts its addition last.
        edits.sort_unstable_by_key(|&(row, partner, weight)| (row, partner, weight.is_some()));
        // Rows are merged in one reused buffer and copied out into an exact
        // allocation: a `Vec` shrunk to fit would free a tail fragment
        // beside every long-lived row (measured: +2 % peak RSS).
        let mut merged: Vec<Candidate> = Vec::new();
        for group in edits.chunk_by(|a, b| a.0 == b.0) {
            let id = group[0].0;
            if id >= self.nodes {
                continue; // a retraction on a row that never existed
            }
            let old = &self.chunks[id as usize / CHUNK_NODES].rows[id as usize % CHUNK_NODES];
            let mut old = &old.candidates[..];
            merged.clear();
            // Per partner, the last edit stands (an addition, if any).
            for same in group.chunk_by(|a, b| a.1 == b.1) {
                let (_, partner, weight) = same[same.len() - 1];
                let (before, rest) = old.split_at(old.partition_point(|c| c.id < partner));
                merged.extend_from_slice(before);
                let was = rest.first().is_some_and(|c| c.id == partner);
                old = &rest[usize::from(was)..];
                self.entries -= u64::from(was);
                if let Some(weight) = weight {
                    merged.push(Candidate {
                        id: partner,
                        weight,
                    });
                    self.entries += 1;
                }
            }
            merged.extend_from_slice(old);
            self.set_candidates(id, merged.as_slice().into());
        }

        for (id, ext) in &update.upserts {
            let row = self.row_mut(*id);
            let was_live = std::mem::replace(&mut row.live, true);
            row.external_id = Some(Arc::clone(ext));
            self.live += u32::from(!was_live);
        }
        for id in &update.deletes {
            let was_live = std::mem::replace(&mut self.row_mut(*id).live, false);
            self.live -= u32::from(was_live);
        }
        let snapshot = ServeSnapshot {
            seq: update.seq,
            chunks: self.chunks.clone(),
            nodes: self.nodes,
            live: self.live,
            pairs: self.pairs(),
            blocks: update.blocks,
        };
        (snapshot, self.copied)
    }

    /// Retained pairs currently accumulated (diagnostics).
    pub fn pairs(&self) -> u64 {
        self.entries / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ext(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    /// `n` live profiles `p0..`, as an upsert list.
    fn profiles(n: u32) -> Vec<(u32, Arc<str>)> {
        (0..n).map(|i| (i, ext(&format!("p{i}")))).collect()
    }

    #[test]
    fn empty_snapshot_answers_cleanly() {
        let snap = ServeSnapshot::default();
        assert_eq!(snap.seq(), 0);
        assert_eq!(snap.candidates(0), None);
        assert!(snap.top_k(5, 3).is_empty());
        assert!(!snap.is_live(0));
        assert!(!snap.contains(0, 1));
        assert!(snap.all_pairs().is_empty());
    }

    #[test]
    fn apply_builds_mirrored_rows() {
        let mut b = SnapshotBuilder::new();
        let (snap, _) = b.apply(&CommitUpdate {
            seq: 1,
            upserts: vec![(0, ext("a")), (1, ext("b")), (2, ext("c"))],
            added: vec![(0, 1, 2.0), (0, 2, 5.0)],
            blocks: 3,
            ..CommitUpdate::default()
        });
        assert_eq!(snap.seq(), 1);
        assert_eq!(snap.nodes(), 3);
        assert_eq!(snap.live(), 3);
        assert_eq!(snap.pairs(), 2);
        assert_eq!(snap.blocks(), 3);
        assert_eq!(snap.external_id(1), Some("b"));
        let row: Vec<u32> = snap.candidates(0).unwrap().iter().map(|c| c.id).collect();
        assert_eq!(row, vec![1, 2]);
        assert!(snap.contains(1, 0) && snap.contains(2, 0));
        assert_eq!(snap.all_pairs(), vec![(0, 1), (0, 2)]);
        let top = snap.top_k(0, 1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].id, 2, "heaviest first");
    }

    #[test]
    fn published_snapshots_are_immutable_under_later_commits() {
        let mut b = SnapshotBuilder::new();
        let (v1, _) = b.apply(&CommitUpdate {
            seq: 1,
            upserts: profiles(4),
            added: vec![(0, 1, 1.0), (2, 3, 4.0)],
            ..CommitUpdate::default()
        });
        // Rows 0..4 share one chunk; the later commits rewrite 0, 1 and 3
        // and leave 2's partner list to change only through (2, 3).
        let (v2, _) = b.apply(&CommitUpdate {
            seq: 2,
            deletes: vec![1],
            retracted: vec![(0, 1)],
            ..CommitUpdate::default()
        });
        let (v3, _) = b.apply(&CommitUpdate {
            seq: 3,
            upserts: vec![(3, ext("renamed"))],
            added: vec![(0, 2, 7.0), (2, 3, 9.0)],
            ..CommitUpdate::default()
        });
        // v1 still sees the pair and the live profile; v2 does not.
        assert!(v1.contains(0, 1));
        assert!(v1.is_live(1));
        assert!(!v2.contains(0, 1));
        assert!(!v2.is_live(1));
        assert_eq!(v2.pairs(), 1);
        assert_eq!(v2.nodes(), 4, "tombstones keep their slot");
        // Row by row, every version keeps exactly what it was stamped with.
        let row = |v: &ServeSnapshot, id| -> Vec<(u32, f64)> {
            let row = v.candidates(id).unwrap();
            row.iter().map(|c| (c.id, c.weight)).collect()
        };
        assert_eq!(row(&v1, 2), vec![(3, 4.0)]);
        assert_eq!(row(&v2, 2), vec![(3, 4.0)]);
        assert_eq!(row(&v3, 2), vec![(0, 7.0), (3, 9.0)]);
        assert_eq!(row(&v1, 0), vec![(1, 1.0)]);
        assert_eq!(row(&v2, 0), vec![]);
        assert_eq!(row(&v3, 0), vec![(2, 7.0)]);
        assert_eq!(v1.external_id(3), Some("p3"));
        assert_eq!(v2.external_id(3), Some("p3"));
        assert_eq!(v3.external_id(3), Some("renamed"));
        assert_eq!((v1.pairs(), v2.pairs(), v3.pairs()), (2, 1, 2));
    }

    #[test]
    fn untouched_chunks_are_shared_not_copied() {
        let mut b = SnapshotBuilder::new();
        // Two chunks' worth of nodes, pairs only in chunk 0.
        let (v1, _) = b.apply(&CommitUpdate {
            seq: 1,
            upserts: profiles(CHUNK_NODES as u32 + 10),
            added: vec![(0, 1, 1.0)],
            ..CommitUpdate::default()
        });
        // A second commit touching only chunk 1 must share chunk 0.
        let (v2, copied) = b.apply(&CommitUpdate {
            seq: 2,
            added: vec![(CHUNK_NODES as u32, CHUNK_NODES as u32 + 1, 2.0)],
            ..CommitUpdate::default()
        });
        assert!(
            Arc::ptr_eq(&v1.chunks[0], &v2.chunks[0]),
            "clean chunk is shared"
        );
        assert!(
            !Arc::ptr_eq(&v1.chunks[1], &v2.chunks[1]),
            "dirty chunk is copied"
        );
        assert_eq!(copied, CopyStats { rows: 2, chunks: 1 });
    }

    #[test]
    fn untouched_rows_in_a_touched_chunk_are_shared() {
        let mut b = SnapshotBuilder::new();
        let (v1, copied) = b.apply(&CommitUpdate {
            seq: 1,
            upserts: profiles(6),
            added: vec![(0, 1, 1.0), (2, 3, 2.0)],
            ..CommitUpdate::default()
        });
        assert_eq!(copied, CopyStats::default(), "new rows are not copies");
        // Rows 2 and 4 change (a new pair; a rename + a tombstone on 5);
        // rows 0, 1 and 3 sit in the same chunk and must not be copied.
        let (v2, copied) = b.apply(&CommitUpdate {
            seq: 2,
            upserts: vec![(4, ext("renamed"))],
            deletes: vec![5],
            added: vec![(2, 4, 3.0)],
            ..CommitUpdate::default()
        });
        let rows = |v: &ServeSnapshot| v.chunks[0].rows.clone();
        let (r1, r2) = (rows(&v1), rows(&v2));
        for id in [0, 1, 3] {
            assert!(Arc::ptr_eq(&r1[id], &r2[id]), "row {id} is shared");
        }
        for id in [2, 4, 5] {
            assert!(!Arc::ptr_eq(&r1[id], &r2[id]), "row {id} is rebuilt");
        }
        // Row 4 is touched twice (candidates, then metadata) and copied once.
        assert_eq!(copied, CopyStats { rows: 3, chunks: 1 });
        assert_eq!(v2.external_id(4), Some("renamed"));
        assert!(v2.contains(4, 2) && !v1.contains(4, 2));
    }

    #[test]
    fn rows_are_exactly_sized() {
        // A boxed slice has capacity == len by construction (no growth
        // slack to pin); what a storm of adds and retracts must leave is
        // each row holding exactly its live partners, in order, and the
        // pair count agreeing with them.
        let mut b = SnapshotBuilder::new();
        let n = 40u32;
        b.apply(&CommitUpdate {
            seq: 1,
            upserts: profiles(n),
            ..CommitUpdate::default()
        });
        let mut expected: std::collections::BTreeSet<(u32, u32)> = Default::default();
        let mut snap = ServeSnapshot::default();
        for round in 0..30u32 {
            let mut update = CommitUpdate {
                seq: u64::from(round) + 2,
                ..CommitUpdate::default()
            };
            let mut flipped = std::collections::BTreeSet::new();
            for i in 0..n {
                let (a, b) = (i, (i * 7 + round * 3 + 1) % n);
                let pair = (a.min(b), a.max(b));
                if a == b || !flipped.insert(pair) {
                    continue;
                }
                if expected.remove(&pair) {
                    update.retracted.push(pair);
                } else {
                    expected.insert(pair);
                    update.added.push((pair.0, pair.1, f64::from(round)));
                }
            }
            snap = b.apply(&update).0;
        }
        assert_eq!(
            snap.all_pairs(),
            expected.iter().copied().collect::<Vec<_>>()
        );
        assert_eq!(snap.pairs(), expected.len() as u64);
        for chunk in &snap.chunks {
            for row in &chunk.rows {
                assert!(row.candidates.windows(2).all(|w| w[0].id < w[1].id));
            }
        }
    }

    #[test]
    fn add_is_idempotent_and_refreshes_weight() {
        let mut b = SnapshotBuilder::new();
        b.apply(&CommitUpdate {
            seq: 1,
            upserts: vec![(0, ext("a")), (1, ext("b"))],
            added: vec![(0, 1, 1.0)],
            ..CommitUpdate::default()
        });
        let (v2, _) = b.apply(&CommitUpdate {
            seq: 2,
            added: vec![(0, 1, 9.0)],
            ..CommitUpdate::default()
        });
        assert_eq!(v2.pairs(), 1, "re-add does not double count");
        assert_eq!(v2.candidates(0).unwrap()[0].weight, 9.0);
        let (v3, _) = b.apply(&CommitUpdate {
            seq: 3,
            retracted: vec![(0, 1), (0, 1)],
            ..CommitUpdate::default()
        });
        assert_eq!(v3.pairs(), 0, "double retract does not underflow");
        // Within one update retractions apply before additions.
        let (v4, _) = b.apply(&CommitUpdate {
            seq: 4,
            retracted: vec![(0, 1), (5, 6)],
            added: vec![(0, 1, 3.0)],
            ..CommitUpdate::default()
        });
        assert_eq!(v4.pairs(), 1);
        assert_eq!(v4.candidates(1).unwrap()[0].weight, 3.0);
        assert_eq!(v4.nodes(), 2, "retracting an unknown pair creates nothing");
    }

    #[test]
    fn top_k_order_is_total() {
        let mut b = SnapshotBuilder::new();
        let (snap, _) = b.apply(&CommitUpdate {
            seq: 1,
            upserts: profiles(5),
            added: vec![(0, 1, 3.0), (0, 2, 3.0), (0, 3, 7.0), (0, 4, 1.0)],
            ..CommitUpdate::default()
        });
        let ids: Vec<u32> = snap.top_k(0, 10).iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![3, 1, 2, 4], "weight desc, id asc on ties");
    }

    #[test]
    fn top_k_matches_full_sort() {
        // Many duplicate weights, so the id tie-break decides most ranks.
        let n = 60u32;
        let mut b = SnapshotBuilder::new();
        let (snap, _) = b.apply(&CommitUpdate {
            seq: 1,
            upserts: profiles(n),
            added: (1..n).map(|v| (0, v, f64::from(v * 37 % 5))).collect(),
            ..CommitUpdate::default()
        });
        let mut sorted = snap.candidates(0).unwrap().to_vec();
        sorted.sort_by(|a, b| b.weight.total_cmp(&a.weight).then_with(|| a.id.cmp(&b.id)));
        let len = sorted.len();
        for k in [0, 1, len - 1, len, len + 5] {
            assert_eq!(snap.top_k(0, k), sorted[..k.min(len)], "k = {k}");
        }
    }
}
