//! The incremental inverted block index.
//!
//! The batch [`TokenBlocking`](blast_blocking::token_blocking::TokenBlocking)
//! pass rebuilds every posting list from scratch; this index instead keeps
//! the `(cluster, token) → sorted posting list` map **mutable**: setting a
//! profile's key set diffs it against the previous one and touches only the
//! postings that actually change. Every touched key is recorded as *dirty*
//! so the downstream cleaning and graph-repair stages can restrict
//! themselves to the affected blocks.
//!
//! Keys live in a slab in creation order. Their canonical `(cluster, token)`
//! order — the exact block order batch Token Blocking emits — is compared
//! on demand ([`IncrementalBlockIndex::canon_key`]), so a snapshot of this
//! index is **identical**, block ids included, to a from-scratch blocking
//! run on the materialised input.
//!
//! Token strings are interned: each distinct token is allocated once in a
//! [`blast_datamodel::interner::Interner`] and keys carry its dense `u32`
//! [`Symbol`], shrinking the slab entries to a fixed size and turning the
//! former `token → keys` hash map into a symbol-indexed vector.

use blast_blocking::block::Block;
use blast_blocking::collection::BlockCollection;
use blast_blocking::key::ClusterId;
use blast_datamodel::entity::ProfileId;
use blast_datamodel::interner::{Interner, Symbol};
use blast_graph::cold::{decode_u32s, encode_u32s};
use blast_graph::{ColdRows, ColdStats, SpillBackend};

/// Stable handle of a `(cluster, token)` key in the slab.
pub type KeyId = u32;

/// Where a posting list currently lives: in its hot `Vec`, or demoted to
/// the index's [`ColdRows`] as delta-encoded ids with only its length left
/// behind.
#[derive(Debug, Clone)]
enum PostingsSlot {
    Hot(Vec<ProfileId>),
    Cold(u32),
}

impl PostingsSlot {
    /// The cold-tier row codec of a posting list: ascending ids,
    /// delta-varint encoded (the id conversions reuse the allocation).
    fn encode(members: Vec<ProfileId>, out: &mut Vec<u8>) {
        let ids: Vec<u32> = members.into_iter().map(|p| p.0).collect();
        encode_u32s(&ids, out);
    }

    fn decode(bytes: &[u8]) -> Vec<ProfileId> {
        let mut ids: Vec<u32> = Vec::new();
        decode_u32s(bytes, &mut 0, &mut ids);
        ids.into_iter().map(ProfileId).collect()
    }
}

/// One blocking key and its members.
///
/// The token is an interned [`Symbol`] — each distinct token string is
/// stored once in the index's interner no matter how many clusters carry
/// it, so the slab entry stays fixed-size and posting maintenance never
/// touches string storage. Posting lists are read through
/// [`IncrementalBlockIndex::with_postings`] (a budgeted index may hold
/// them in the cold tier) and their length through
/// [`KeyEntry::postings_len`].
#[derive(Debug, Clone)]
pub struct KeyEntry {
    /// The attribute cluster the key belongs to.
    pub cluster: ClusterId,
    /// Interned token (without the `#c` disambiguation suffix); resolve via
    /// [`IncrementalBlockIndex::token_str`] / [`IncrementalBlockIndex::canon_key`].
    pub token: Symbol,
    /// Sorted global profile ids currently carrying this key, hot or cold.
    slot: PostingsSlot,
}

impl KeyEntry {
    /// Number of profiles currently carrying this key (no decode — a cold
    /// slot keeps its length).
    #[inline]
    pub fn postings_len(&self) -> usize {
        match &self.slot {
            PostingsSlot::Hot(v) => v.len(),
            PostingsSlot::Cold(len) => *len as usize,
        }
    }

    /// Hot posting bytes an eviction round could demote.
    #[inline]
    fn hot_bytes(&self) -> usize {
        match &self.slot {
            PostingsSlot::Hot(v) => v.len() * std::mem::size_of::<ProfileId>(),
            PostingsSlot::Cold(_) => 0,
        }
    }
}

/// What changed since the last [`IncrementalBlockIndex::drain_dirty`].
#[derive(Debug, Default)]
pub struct DirtyDrain {
    /// Keys whose posting list changed (sorted, deduplicated).
    pub keys: Vec<KeyId>,
    /// Profiles removed from at least one dirty key (old members that the
    /// current postings no longer show).
    pub removed_members: Vec<u32>,
    /// Profiles whose own key list changed (sorted, deduplicated).
    pub touched_profiles: Vec<u32>,
}

impl DirtyDrain {
    /// Whether nothing changed.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty() && self.touched_profiles.is_empty()
    }
}

/// The mutable `(cluster, token) → postings` index with dirty tracking.
#[derive(Debug)]
pub struct IncrementalBlockIndex {
    keys: Vec<KeyEntry>,
    /// Token string ↔ symbol store (each distinct token allocated once).
    tokens: Interner,
    /// symbol → [(cluster, key id)] (usually one entry) — the dense
    /// replacement of the former `token → keys` hash map.
    token_keys: Vec<Vec<(ClusterId, KeyId)>>,
    /// Per-profile sorted key-id lists (the raw, pre-cleaning memberships).
    profile_keys: Vec<Vec<KeyId>>,
    /// Whether labels carry the `#c{n}` suffix (more than one cluster).
    multi_cluster: bool,
    /// Lazily-maintained length buckets: every posting mutation pushes the
    /// key onto the bucket of its *new* length (stale entries are filtered
    /// by the reader). Lets the cleaner re-evaluate purging after a
    /// threshold move by visiting only the lengths that crossed the
    /// boundary instead of scanning every key.
    by_len: Vec<Vec<KeyId>>,
    // -- dirty state since the last drain --
    dirty_flags: Vec<bool>,
    dirty_keys: Vec<KeyId>,
    removed_members: Vec<u32>,
    touched_profiles: Vec<u32>,
    /// Cold-tier state (one row per key, touched on every mutation) when
    /// the pipeline runs under a memory budget — the pipeline's one
    /// evictable structure.
    residency: Option<ColdRows>,
}

impl IncrementalBlockIndex {
    /// An empty index. `multi_cluster` must match the key disambiguator the
    /// pipeline uses (it controls the `#c{n}` label suffix, exactly like
    /// batch Token Blocking's `cluster_count() > 1`).
    pub fn new(multi_cluster: bool) -> Self {
        Self {
            keys: Vec::new(),
            tokens: Interner::new(),
            token_keys: Vec::new(),
            profile_keys: Vec::new(),
            multi_cluster,
            by_len: Vec::new(),
            dirty_flags: Vec::new(),
            dirty_keys: Vec::new(),
            removed_members: Vec::new(),
            touched_profiles: Vec::new(),
            residency: None,
        }
    }

    /// Number of keys ever created (dead keys with empty postings included).
    #[inline]
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// The slab entry of a key.
    #[inline]
    pub fn key(&self, id: KeyId) -> &KeyEntry {
        &self.keys[id as usize]
    }

    /// Runs `f` over the posting list of `id`. Hot lists are borrowed
    /// directly; cold ones are decoded transiently (counted as a
    /// rehydration, but **not** promoted — read-only passes like the batch
    /// snapshot must not drag the whole index hot again).
    pub fn with_postings<R>(&self, id: KeyId, f: impl FnOnce(&[ProfileId]) -> R) -> R {
        match &self.keys[id as usize].slot {
            PostingsSlot::Hot(v) => f(v),
            PostingsSlot::Cold(_) => {
                let bytes = self.residency.as_ref().and_then(|r| r.read(id as usize));
                f(&PostingsSlot::decode(
                    &bytes.expect("a cold posting list has a frame"),
                ))
            }
        }
    }

    /// The key ids in canonical `(cluster, token)` order (including keys
    /// whose postings are currently empty), sorted on demand —
    /// O(|keys| log |keys|), for verification paths only.
    pub fn ordered_keys(&self) -> Vec<KeyId> {
        let mut keys: Vec<KeyId> = (0..self.keys.len() as KeyId).collect();
        keys.sort_unstable_by(|&a, &b| self.canon_key(a).cmp(&self.canon_key(b)));
        keys
    }

    /// The raw (pre-cleaning) key list of a profile, sorted by key id.
    pub fn profile_keys(&self, pid: u32) -> &[KeyId] {
        self.profile_keys
            .get(pid as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The token string of a key (interner-resolved).
    #[inline]
    pub fn token_str(&self, id: KeyId) -> &str {
        self.tokens.resolve(self.keys[id as usize].token)
    }

    /// The canonical `(cluster, token)` identity of a key — the sort key of
    /// the batch block order. Tuples compare exactly like the former
    /// string-owning entries did.
    #[inline]
    pub fn canon_key(&self, id: KeyId) -> (ClusterId, &str) {
        let entry = &self.keys[id as usize];
        (entry.cluster, self.tokens.resolve(entry.token))
    }

    /// Number of distinct token strings interned by this index.
    #[inline]
    pub fn interned_tokens(&self) -> usize {
        self.tokens.len()
    }

    /// Estimated resident heap footprint of the index in bytes (capacities,
    /// not lengths; the hash-map overhead of the interner is approximated).
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let vec_of_vecs = |rows: &[Vec<KeyId>]| {
            rows.iter()
                .map(|r| r.capacity() * size_of::<KeyId>())
                .sum::<usize>()
                + std::mem::size_of_val(rows)
        };
        self.keys.capacity() * size_of::<KeyEntry>()
            + self
                .keys
                .iter()
                .map(|e| match &e.slot {
                    PostingsSlot::Hot(v) => v.capacity() * size_of::<ProfileId>(),
                    PostingsSlot::Cold(_) => 0,
                })
                .sum::<usize>()
            + self.residency.as_ref().map_or(0, ColdRows::resident_bytes)
            + self.tokens.resident_bytes()
            + self
                .token_keys
                .iter()
                .map(|r| r.capacity() * size_of::<(ClusterId, KeyId)>())
                .sum::<usize>()
            + self.token_keys.len() * size_of::<Vec<(ClusterId, KeyId)>>()
            + vec_of_vecs(&self.profile_keys)
            + vec_of_vecs(&self.by_len)
            + self.dirty_flags.capacity()
            + self.dirty_keys.capacity() * size_of::<KeyId>()
    }

    /// The display label of a key (batch Token Blocking's block label).
    pub fn label(&self, id: KeyId) -> String {
        let entry = &self.keys[id as usize];
        let token = self.tokens.resolve(entry.token);
        if self.multi_cluster {
            format!("{}#c{}", token, entry.cluster.0)
        } else {
            token.to_string()
        }
    }

    /// Replaces the key set of `pid` with `new_keys` (cluster, token pairs;
    /// duplicates allowed — they are deduplicated here, mirroring the
    /// per-profile dedup of batch Token Blocking). Updates postings and
    /// dirty state by diffing against the profile's previous key set.
    pub fn set_profile<'a>(
        &mut self,
        pid: u32,
        new_keys: impl IntoIterator<Item = (ClusterId, &'a str)>,
    ) {
        let ids: Vec<(ClusterId, Symbol)> = new_keys
            .into_iter()
            .map(|(cluster, token)| (cluster, self.tokens.intern(token)))
            .collect();
        self.set_profile_symbols(pid, ids);
    }

    /// Interns a token string, returning its dense symbol. Lets callers that
    /// tokenize on the fly feed [`IncrementalBlockIndex::set_profile_symbols`]
    /// without materialising any per-token `String`.
    #[inline]
    pub fn intern_token(&mut self, token: &str) -> Symbol {
        self.tokens.intern(token)
    }

    /// [`IncrementalBlockIndex::set_profile`] with pre-interned tokens — the
    /// allocation-free hot path of the streaming pipeline.
    pub fn set_profile_symbols(
        &mut self,
        pid: u32,
        new_keys: impl IntoIterator<Item = (ClusterId, Symbol)>,
    ) {
        if self.profile_keys.len() <= pid as usize {
            self.profile_keys.resize_with(pid as usize + 1, Vec::new);
        }
        let mut ids: Vec<KeyId> = new_keys
            .into_iter()
            .map(|(cluster, token)| self.intern_key(cluster, token))
            .collect();
        ids.sort_unstable();
        ids.dedup();

        let old = std::mem::take(&mut self.profile_keys[pid as usize]);
        let mut changed = false;
        // Merge-diff the sorted id lists.
        let (mut i, mut j) = (0, 0);
        while i < old.len() || j < ids.len() {
            match (old.get(i), ids.get(j)) {
                (Some(&o), Some(&n)) if o == n => {
                    i += 1;
                    j += 1;
                }
                (Some(&o), Some(&n)) if o < n => {
                    self.remove_member(o, pid);
                    changed = true;
                    i += 1;
                }
                (Some(_), Some(&n)) => {
                    self.add_member(n, pid);
                    changed = true;
                    j += 1;
                }
                (Some(&o), None) => {
                    self.remove_member(o, pid);
                    changed = true;
                    i += 1;
                }
                (None, Some(&n)) => {
                    self.add_member(n, pid);
                    changed = true;
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        if changed {
            self.touched_profiles.push(pid);
        }
        self.profile_keys[pid as usize] = ids;
    }

    /// Removes all keys of `pid` (profile deletion).
    pub fn clear_profile(&mut self, pid: u32) {
        self.set_profile(pid, std::iter::empty());
    }

    /// Takes the accumulated dirty state, resetting it.
    pub fn drain_dirty(&mut self) -> DirtyDrain {
        let mut keys = std::mem::take(&mut self.dirty_keys);
        for &k in &keys {
            self.dirty_flags[k as usize] = false;
        }
        keys.sort_unstable();
        let mut removed = std::mem::take(&mut self.removed_members);
        removed.sort_unstable();
        removed.dedup();
        let mut touched = std::mem::take(&mut self.touched_profiles);
        touched.sort_unstable();
        touched.dedup();
        DirtyDrain {
            keys,
            removed_members: removed,
            touched_profiles: touched,
        }
    }

    /// A from-scratch [`BlockCollection`] of the **raw** (uncleaned) index:
    /// bit-identical to batch Token Blocking on the materialised input —
    /// same blocks, same labels, same canonical order, invalid blocks
    /// dropped the same way.
    pub fn snapshot_raw(
        &self,
        clean_clean: bool,
        separator: u32,
        total_profiles: u32,
    ) -> BlockCollection {
        let blocks = self
            .ordered_keys()
            .into_iter()
            .filter_map(|kid| {
                let entry = &self.keys[kid as usize];
                if entry.postings_len() == 0 {
                    return None;
                }
                let block = self.with_postings(kid, |postings| {
                    Block::new(self.label(kid), entry.cluster, postings.to_vec(), separator)
                });
                block.is_valid(clean_clean).then_some(block)
            })
            .collect();
        BlockCollection::new(blocks, clean_clean, separator, total_profiles)
    }

    fn intern_key(&mut self, cluster: ClusterId, token: Symbol) -> KeyId {
        if self.token_keys.len() <= token.index() {
            self.token_keys.resize_with(token.index() + 1, Vec::new);
        }
        if let Some(&(_, id)) = self.token_keys[token.index()]
            .iter()
            .find(|&&(c, _)| c == cluster)
        {
            return id;
        }
        let id = self.keys.len() as KeyId;
        self.keys.push(KeyEntry {
            cluster,
            token,
            slot: PostingsSlot::Hot(Vec::new()),
        });
        self.token_keys[token.index()].push((cluster, id));
        self.dirty_flags.push(false);
        id
    }

    /// Promotes a cold posting list back to its hot `Vec` and stamps the
    /// key's touch epoch. Mutations always go through this, so postings
    /// being patched are guaranteed hot.
    fn ensure_hot(&mut self, key: KeyId) {
        let Some(r) = &mut self.residency else {
            return;
        };
        if let Some(bytes) = r.promote(key as usize) {
            self.keys[key as usize].slot = PostingsSlot::Hot(PostingsSlot::decode(&bytes));
        }
    }

    fn mark_dirty(&mut self, key: KeyId) {
        if !self.dirty_flags[key as usize] {
            self.dirty_flags[key as usize] = true;
            self.dirty_keys.push(key);
        }
    }

    fn add_member(&mut self, key: KeyId, pid: u32) {
        self.ensure_hot(key);
        let PostingsSlot::Hot(postings) = &mut self.keys[key as usize].slot else {
            unreachable!("ensure_hot promoted the slot")
        };
        let pos = postings.partition_point(|p| p.0 < pid);
        debug_assert!(
            postings.get(pos).map(|p| p.0) != Some(pid),
            "duplicate member"
        );
        postings.insert(pos, ProfileId(pid));
        let len = postings.len();
        self.push_len_bucket(key, len);
        self.mark_dirty(key);
    }

    fn remove_member(&mut self, key: KeyId, pid: u32) {
        self.ensure_hot(key);
        let PostingsSlot::Hot(postings) = &mut self.keys[key as usize].slot else {
            unreachable!("ensure_hot promoted the slot")
        };
        let pos = postings.partition_point(|p| p.0 < pid);
        debug_assert_eq!(postings.get(pos).map(|p| p.0), Some(pid), "missing member");
        postings.remove(pos);
        let len = postings.len();
        self.push_len_bucket(key, len);
        self.removed_members.push(pid);
        self.mark_dirty(key);
    }

    fn push_len_bucket(&mut self, key: KeyId, len: usize) {
        if self.by_len.len() <= len {
            self.by_len.resize_with(len + 1, Vec::new);
        }
        let bucket = &mut self.by_len[len];
        bucket.push(key);
        // Lazy entries accumulate one per mutation; compact when the bucket
        // doubles past a floor so memory stays proportional to the keys
        // *currently* at this length (amortised O(1) per push) instead of
        // growing with the whole mutation history.
        if bucket.len() >= 32 && bucket.len().is_power_of_two() {
            let keys = &self.keys;
            bucket.sort_unstable();
            bucket.dedup();
            bucket.retain(|&k| keys[k as usize].postings_len() == len);
        }
    }

    /// The keys that at some point held exactly `len` postings (lazy
    /// bucket: entries may be stale — callers must re-check
    /// `key(k).postings_len()` — and may repeat).
    pub fn keys_of_len(&self, len: usize) -> &[KeyId] {
        self.by_len.get(len).map(Vec::as_slice).unwrap_or(&[])
    }

    // -- cold-tier residency ------------------------------------------------

    /// Turns on cold-tier residency (idempotent). With a `spill` backend
    /// the demoted frames leave memory entirely; otherwise they live in a
    /// compact in-memory arena.
    pub fn enable_residency(&mut self, spill: Option<Box<dyn SpillBackend>>) {
        if self.residency.is_none() {
            self.residency = Some(ColdRows::new("posting list of key", spill));
        }
    }

    /// Whether a memory budget is active on this index.
    pub fn residency_enabled(&self) -> bool {
        self.residency.is_some()
    }

    /// Cold-tier telemetry (zeros when residency is off).
    pub fn cold_stats(&self) -> ColdStats {
        self.residency
            .as_ref()
            .map_or_else(ColdStats::default, ColdRows::stats)
    }

    /// One eviction round over the posting lists ([`ColdRows::sweep`]:
    /// idle for more than `idle_commits` rounds, then coldest-first until
    /// hot posting bytes fit `target_hot_bytes`).
    pub fn enforce_residency(&mut self, idle_commits: u32, target_hot_bytes: usize) {
        let Some(r) = &mut self.residency else {
            return;
        };
        r.sweep(
            idle_commits,
            target_hot_bytes,
            self.keys.len(),
            self.keys.as_mut_slice(),
            |keys, k| keys[k].hot_bytes(),
            |keys, k, out| {
                let cold = PostingsSlot::Cold(keys[k].postings_len() as u32);
                if let PostingsSlot::Hot(members) = std::mem::replace(&mut keys[k].slot, cold) {
                    PostingsSlot::encode(members, out);
                }
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn glue(tokens: &[&'static str]) -> Vec<(ClusterId, &'static str)> {
        tokens.iter().map(|&t| (ClusterId::GLUE, t)).collect()
    }

    #[test]
    fn set_profile_diffs_postings() {
        let mut idx = IncrementalBlockIndex::new(false);
        idx.set_profile(0, glue(&["abram", "john"]));
        idx.set_profile(1, glue(&["abram", "ellen"]));
        let d = idx.drain_dirty();
        assert_eq!(d.touched_profiles, vec![0, 1]);
        assert!(d.removed_members.is_empty());

        // Update profile 0: drops "john", keeps "abram", gains "jr".
        idx.set_profile(0, glue(&["abram", "jr"]));
        let d = idx.drain_dirty();
        assert_eq!(d.touched_profiles, vec![0]);
        assert_eq!(d.removed_members, vec![0]);
        // Dirty keys: john (lost 0) and jr (gained 0) — not abram.
        let labels: Vec<String> = d.keys.iter().map(|&k| idx.label(k)).collect();
        assert!(labels.contains(&"john".to_string()));
        assert!(labels.contains(&"jr".to_string()));
        assert!(!labels.contains(&"abram".to_string()));
    }

    #[test]
    fn unchanged_set_is_not_dirty() {
        let mut idx = IncrementalBlockIndex::new(false);
        idx.set_profile(0, glue(&["a", "b"]));
        idx.drain_dirty();
        idx.set_profile(0, glue(&["b", "a", "a"]));
        assert!(idx.drain_dirty().is_empty());
    }

    #[test]
    fn snapshot_drops_invalid_blocks_and_orders_canonically() {
        let mut idx = IncrementalBlockIndex::new(false);
        idx.set_profile(0, glue(&["zeta", "shared"]));
        idx.set_profile(1, glue(&["alpha", "shared"]));
        let blocks = idx.snapshot_raw(false, 2, 2);
        // Singletons are invalid for dirty ER; only "shared" survives.
        assert_eq!(blocks.len(), 1);
        assert_eq!(&*blocks.blocks()[0].label, "shared");
        // Make alpha/zeta valid and check the canonical order.
        idx.set_profile(0, glue(&["zeta", "alpha", "shared"]));
        idx.set_profile(1, glue(&["zeta", "alpha", "shared"]));
        let blocks = idx.snapshot_raw(false, 2, 2);
        let labels: Vec<&str> = blocks.blocks().iter().map(|b| &*b.label).collect();
        assert_eq!(labels, vec!["alpha", "shared", "zeta"]);
    }

    #[test]
    fn clear_profile_empties_its_keys() {
        let mut idx = IncrementalBlockIndex::new(false);
        idx.set_profile(0, glue(&["x", "y"]));
        idx.set_profile(1, glue(&["x"]));
        idx.drain_dirty();
        idx.clear_profile(0);
        let d = idx.drain_dirty();
        assert_eq!(d.removed_members, vec![0]);
        assert_eq!(idx.profile_keys(0), &[] as &[KeyId]);
        let blocks = idx.snapshot_raw(false, 2, 2);
        assert!(blocks.is_empty(), "x became a singleton, y empty");
    }

    #[test]
    fn tokens_are_interned_once_across_clusters_and_profiles() {
        let mut idx = IncrementalBlockIndex::new(true);
        idx.set_profile(0, vec![(ClusterId(1), "abram"), (ClusterId::GLUE, "abram")]);
        idx.set_profile(1, vec![(ClusterId(1), "abram"), (ClusterId::GLUE, "smith")]);
        // Two distinct token strings back three (cluster, token) keys.
        assert_eq!(idx.interned_tokens(), 2);
        assert_eq!(idx.key_count(), 3);
        assert_eq!(idx.token_str(0), "abram");
        assert_eq!(idx.canon_key(0), (ClusterId(1), "abram"));
        // The symbol route produces the same key ids as the string route.
        let sym = idx.intern_token("abram");
        assert_eq!(idx.interned_tokens(), 2, "intern is idempotent");
        idx.set_profile_symbols(2, vec![(ClusterId(1), sym)]);
        assert_eq!(idx.profile_keys(2), &[0]);
        assert!(idx.resident_bytes() > 0);
    }

    #[test]
    fn multi_cluster_labels_match_batch_convention() {
        let mut idx = IncrementalBlockIndex::new(true);
        idx.set_profile(0, vec![(ClusterId(1), "abram"), (ClusterId::GLUE, "abram")]);
        idx.set_profile(1, vec![(ClusterId(1), "abram"), (ClusterId::GLUE, "abram")]);
        let blocks = idx.snapshot_raw(false, 2, 2);
        let labels: Vec<&str> = blocks.blocks().iter().map(|b| &*b.label).collect();
        assert_eq!(labels, vec!["abram#c0", "abram#c1"]);
    }
}
