//! The cold tier: two-tier residency for the incremental block index's
//! posting lists.
//!
//! Bounded-memory streaming demotes rarely-touched posting lists out of
//! their hot `Vec` representation. The module has two layers:
//!
//! * **Frames** ([`ColdStore`]): length-prefixed, checksummed byte records
//!   appended to an in-memory arena or, behind a [`SpillBackend`], to a
//!   temp file owned by the `io` crate. A frame on storage is
//!   `[payload_len: u32 LE][fnv1a32: u32 LE][payload]`; reads validate both
//!   the length and the checksum, so [`ColdStore::get`] returns a truncated
//!   or corrupted frame as a typed [`ColdError`] instead of bytes that
//!   would silently diverge the candidate set.
//! * **Rows** ([`ColdRows`]): everything that decides *which* row is a
//!   frame and when — the store, the per-row frame handle, the touch
//!   epochs, the eviction sweep with its compaction, the promoting and the
//!   transient read, and the one `cold tier:` panic a lost frame raises.
//!   Its one owner is `blast-incremental`'s block index (one store, one
//!   spill file).
//!
//! The graph snapshot and the edge-accumulator cache stay hot. Parallel
//! repair workers read both under `&self`, so a cold row there would need
//! the writer to prefetch every row a pass can reach; posting lists are
//! read by the writer alone, which promotes or decodes them on the spot.
//!
//! The typed error stops at [`ColdRows`]: its reads turn a [`ColdError`]
//! into a `cold tier: <row label> <row> lost` panic, because the owner
//! reads rows inside an infallible `commit()` that has no error to return.
//! A lost frame therefore ends the process rather than the commit — still
//! never a silently different candidate set.
//!
//! The owner supplies its row codec (the encode half as the sweep's
//! `demote` callback, the decode half over the bytes a read returns), a
//! hot-bytes measure per row, and its row count. The codec here is
//! *lossless by construction* (delta varints for ascending id lists), so
//! demotion is purely a representation change: a rehydrated row is
//! bit-identical to the row that was evicted, which is what keeps the
//! budgeted pipeline on the repo's standing batch-equivalence contract at
//! any eviction cadence.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Storage behind a [`ColdStore`] when frames spill out of memory.
///
/// Implemented by `blast_io::spill::TempSpillFile`; kept as a trait here
/// so the graph crate stays free of file I/O.
pub trait SpillBackend: fmt::Debug + Send + Sync {
    /// Appends `bytes`, returning the offset they start at.
    fn append(&mut self, bytes: &[u8]) -> Result<u64, String>;
    /// Reads exactly `buf.len()` bytes starting at `off`; returns the
    /// number of bytes actually available (short on truncation).
    fn read_at(&self, off: u64, buf: &mut [u8]) -> Result<usize, String>;
    /// Discards all content (compaction rewrites live frames afterwards).
    fn truncate(&mut self) -> Result<(), String>;
    /// Total bytes currently stored.
    fn len(&self) -> u64;
    /// True when nothing is stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Handle to one frame inside a [`ColdStore`]. Packed to 12 bytes: one is
/// kept per cold row, inside the budget the rows were demoted to meet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, packed(4))]
pub struct FrameRef {
    off: u64,
    len: u32,
}

/// Why a cold frame could not be read back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColdError {
    /// The storage ends before the frame does.
    Truncated { off: u64, want: usize, have: usize },
    /// The stored header disagrees with the frame handle or the payload
    /// bytes fail their checksum.
    Checksum { off: u64, want: u32, got: u32 },
    /// The spill backend failed outright.
    Io { off: u64, detail: String },
}

impl fmt::Display for ColdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColdError::Truncated { off, want, have } => write!(
                f,
                "cold frame at offset {off} truncated: wanted {want} bytes, storage has {have}"
            ),
            ColdError::Checksum { off, want, got } => write!(
                f,
                "cold frame at offset {off} corrupted: checksum {got:#010x} != {want:#010x}"
            ),
            ColdError::Io { off, detail } => {
                write!(f, "cold frame at offset {off}: spill I/O failed: {detail}")
            }
        }
    }
}

impl std::error::Error for ColdError {}

/// Cold-tier telemetry of one store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColdStats {
    /// Rows demoted to the cold tier (cumulative).
    pub evictions: u64,
    /// Cold rows read back — transiently or promoted (cumulative).
    pub rehydrations: u64,
    /// Live cold frame bytes resident in memory (0 when spilled).
    pub cold_bytes: usize,
    /// Live cold frame bytes held in the spill backend.
    pub spilled_bytes: usize,
}

const FRAME_HEADER: usize = 8;
/// Compact once dead frames dominate live ones and amount to real memory.
const COMPACT_DEAD_FLOOR: usize = 64 * 1024;

/// FNV-1a over the payload — cheap, deterministic, and strong enough to
/// catch the bit flips and truncations the spill tests inject.
fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Append-only arena of checksummed frames with optional spill.
///
/// [`ColdRows`] keeps the [`FrameRef`]s; `free` only does bookkeeping (the
/// arena reclaims space on [`ColdStore::compact`], which rewrites the live
/// refs handed to it).
#[derive(Debug)]
pub struct ColdStore {
    arena: Vec<u8>,
    spill: Option<Box<dyn SpillBackend>>,
    live_bytes: usize,
    dead_bytes: usize,
    evictions: u64,
    // Reads happen under `&self` (transient decodes on shared paths), so
    // the rehydration counter is atomic.
    rehydrations: AtomicU64,
}

impl ColdStore {
    /// An in-memory store (frames live in the arena).
    pub fn in_memory() -> Self {
        ColdStore {
            arena: Vec::new(),
            spill: None,
            live_bytes: 0,
            dead_bytes: 0,
            evictions: 0,
            rehydrations: AtomicU64::new(0),
        }
    }

    /// A spilling store: frames are appended to `backend` instead of the
    /// in-memory arena.
    pub fn spilled(backend: Box<dyn SpillBackend>) -> Self {
        ColdStore {
            spill: Some(backend),
            ..ColdStore::in_memory()
        }
    }

    /// Appends one frame and returns its handle. Counts an eviction.
    pub fn put(&mut self, payload: &[u8]) -> FrameRef {
        let len = u32::try_from(payload.len()).expect("cold frame over 4 GiB");
        let checksum = fnv1a32(payload);
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&checksum.to_le_bytes());
        frame.extend_from_slice(payload);
        let off = match &mut self.spill {
            Some(backend) => backend
                .append(&frame)
                .unwrap_or_else(|e| panic!("cold tier: spill append failed: {e}")),
            None => {
                let off = self.arena.len() as u64;
                self.arena.extend_from_slice(&frame);
                off
            }
        };
        self.live_bytes += frame.len();
        self.evictions += 1;
        FrameRef { off, len }
    }

    /// Reads a frame's payload back, validating length and checksum.
    /// Counts a rehydration on success.
    pub fn get(&self, frame: FrameRef) -> Result<Vec<u8>, ColdError> {
        let total = FRAME_HEADER + frame.len as usize;
        let mut raw = vec![0u8; total];
        match &self.spill {
            Some(backend) => {
                let have =
                    backend
                        .read_at(frame.off, &mut raw)
                        .map_err(|detail| ColdError::Io {
                            off: frame.off,
                            detail,
                        })?;
                if have < total {
                    return Err(ColdError::Truncated {
                        off: frame.off,
                        want: total,
                        have,
                    });
                }
            }
            None => {
                let start = frame.off as usize;
                let have = self.arena.len().saturating_sub(start);
                if have < total {
                    return Err(ColdError::Truncated {
                        off: frame.off,
                        want: total,
                        have,
                    });
                }
                raw.copy_from_slice(&self.arena[start..start + total]);
            }
        }
        let stored_len = u32::from_le_bytes(raw[0..4].try_into().unwrap());
        let stored_sum = u32::from_le_bytes(raw[4..8].try_into().unwrap());
        let payload = raw.split_off(FRAME_HEADER);
        if stored_len != frame.len {
            // A foreign or shifted header: report as corruption, not a
            // panic — the stored length no longer matches the handle.
            return Err(ColdError::Checksum {
                off: frame.off,
                want: frame.len,
                got: stored_len,
            });
        }
        let sum = fnv1a32(&payload);
        if sum != stored_sum {
            return Err(ColdError::Checksum {
                off: frame.off,
                want: stored_sum,
                got: sum,
            });
        }
        self.rehydrations.fetch_add(1, Ordering::Relaxed);
        Ok(payload)
    }

    /// Marks a frame dead (space reclaimed by the next `compact`).
    pub fn free(&mut self, frame: FrameRef) {
        let total = FRAME_HEADER + frame.len as usize;
        self.live_bytes = self.live_bytes.saturating_sub(total);
        self.dead_bytes += total;
    }

    /// True when enough dead bytes accumulated that a compaction pays.
    pub fn wants_compaction(&self) -> bool {
        self.dead_bytes >= COMPACT_DEAD_FLOOR && self.dead_bytes >= self.live_bytes
    }

    /// Rewrites the live frames (handed over as mutable refs) into fresh
    /// storage, dropping the dead bytes. Refs are updated in place.
    pub fn compact(&mut self, refs: Vec<&mut FrameRef>) {
        let payloads: Vec<Vec<u8>> = refs
            .iter()
            .map(|r| {
                self.get(**r)
                    .unwrap_or_else(|e| panic!("cold tier: compaction read failed: {e}"))
            })
            .collect();
        // Compaction reads are internal moves, not rehydrations.
        self.rehydrations
            .fetch_sub(payloads.len() as u64, Ordering::Relaxed);
        let evictions = self.evictions;
        match &mut self.spill {
            Some(backend) => backend
                .truncate()
                .unwrap_or_else(|e| panic!("cold tier: spill truncate failed: {e}")),
            None => self.arena.clear(),
        }
        self.live_bytes = 0;
        self.dead_bytes = 0;
        for (r, payload) in refs.into_iter().zip(&payloads) {
            *r = self.put(payload);
        }
        // Re-appending is not an eviction either.
        self.evictions = evictions;
    }

    /// Cumulative evictions, rehydrations and live byte levels.
    pub fn stats(&self) -> ColdStats {
        let (cold, spilled) = if self.spill.is_some() {
            (0, self.live_bytes)
        } else {
            (self.live_bytes, 0)
        };
        ColdStats {
            evictions: self.evictions,
            rehydrations: self.rehydrations.load(Ordering::Relaxed),
            cold_bytes: cold,
            spilled_bytes: spilled,
        }
    }
}

/// The residency state of one structure's rows: which rows are demoted to
/// frames of its [`ColdStore`], when each row was last touched, and the
/// policy that moves rows between the tiers (see the module docs for what
/// the owner supplies).
///
/// A row is either *hot* (the owner holds it; nothing here but its touch
/// epoch) or *cold* (the owner holds an empty placeholder; the bytes its
/// codec produced live in a frame). Demotion happens only in
/// [`ColdRows::sweep`]; a cold row comes back through
/// [`ColdRows::promote`] or is read in place through [`ColdRows::read`].
#[derive(Debug)]
pub struct ColdRows {
    store: ColdStore,
    /// What a row is called in the `cold tier:` panic ("posting list of
    /// key").
    label: &'static str,
    /// `Some` = the row lives in the store. Covers the rows the last sweep
    /// saw; later ones are hot and count as touched this epoch.
    cold: Vec<Option<FrameRef>>,
    /// Epoch of each row's last touch (parallel to `cold`).
    touch: Vec<u32>,
    /// Bumped once per [`ColdRows::sweep`].
    epoch: u32,
}

impl ColdRows {
    /// Residency with every row hot. With a `spill` backend the demoted
    /// frames leave memory entirely; otherwise they live in a compact
    /// in-memory arena. `label` names a row in the panic a lost frame
    /// raises.
    pub fn new(label: &'static str, spill: Option<Box<dyn SpillBackend>>) -> Self {
        ColdRows {
            store: match spill {
                Some(backend) => ColdStore::spilled(backend),
                None => ColdStore::in_memory(),
            },
            label,
            cold: Vec::new(),
            touch: Vec::new(),
            epoch: 0,
        }
    }

    /// Stamps `row` as touched this epoch.
    #[inline]
    fn touch(&mut self, row: usize) {
        if let Some(t) = self.touch.get_mut(row) {
            *t = self.epoch;
        }
    }

    /// The payload of `row`'s frame. A frame the store cannot give back
    /// whole is unrecoverable state, not an answer to diverge on.
    fn payload(&self, row: usize, frame: FrameRef) -> Vec<u8> {
        self.store
            .get(frame)
            .unwrap_or_else(|e| panic!("cold tier: {} {row} lost: {e}", self.label))
    }

    /// The transient read: the demoted bytes of a cold row (counted as a
    /// rehydration), which stays cold — shared `&self` passes must not
    /// drag a structure hot again. `None` for a hot row.
    pub fn read(&self, row: usize) -> Option<Vec<u8>> {
        let frame = self.cold.get(row).copied().flatten()?;
        Some(self.payload(row, frame))
    }

    /// The promoting read: stamps `row` touched and, when it was cold,
    /// hands its bytes back and frees the frame — the row is hot again and
    /// the owner decodes it into place. `None` when it was hot already.
    pub fn promote(&mut self, row: usize) -> Option<Vec<u8>> {
        self.touch(row);
        let frame = self.cold.get_mut(row)?.take()?;
        let bytes = self.payload(row, frame);
        self.store.free(frame);
        Some(bytes)
    }

    /// One eviction round over the owner's `len` rows. Every row with
    /// `hot_bytes(rows, row) > 0` is a candidate (the measure must be 0
    /// for an empty row and for a cold row's placeholder), ordered by
    /// `(touch epoch, row)` — so the round is deterministic; candidates
    /// idle for more than `idle` rounds are demoted, then demotion
    /// continues coldest-first until the remaining hot bytes fit
    /// `target_hot_bytes`. `idle == 0` with a zero target demotes
    /// everything. `demote(rows, row, out)` takes the row out of its hot
    /// form and appends its encoding to `out`.
    /// Compacts the store when dead frames dominate.
    pub fn sweep<T: ?Sized>(
        &mut self,
        idle: u32,
        target_hot_bytes: usize,
        len: usize,
        rows: &mut T,
        hot_bytes: impl Fn(&T, usize) -> usize,
        mut demote: impl FnMut(&mut T, usize, &mut Vec<u8>),
    ) {
        if self.cold.len() < len {
            // Once per round and by exactly the rows added since: a
            // budgeted structure's own bookkeeping carries no growth slack.
            self.cold.reserve_exact(len - self.cold.len());
            self.cold.resize(len, None);
            self.touch.reserve_exact(len - self.touch.len());
            self.touch.resize(len, self.epoch);
        }
        self.epoch += 1;
        let mut hot = 0usize;
        let mut candidates: Vec<(u32, u32)> = Vec::new();
        for (row, &touch) in self.touch.iter().enumerate() {
            let bytes = hot_bytes(rows, row);
            if bytes > 0 {
                debug_assert!(self.cold[row].is_none(), "a cold row holds no hot bytes");
                hot += bytes;
                candidates.push((touch, row as u32));
            }
        }
        candidates.sort_unstable();
        let mut payload = Vec::new();
        for (touch, row) in candidates {
            let stale = u64::from(touch) + u64::from(idle) < u64::from(self.epoch);
            if !stale && hot <= target_hot_bytes {
                break;
            }
            let row = row as usize;
            hot -= hot_bytes(rows, row);
            payload.clear();
            demote(rows, row, &mut payload);
            self.cold[row] = Some(self.store.put(&payload));
        }
        if self.store.wants_compaction() {
            self.store.compact(self.cold.iter_mut().flatten().collect());
        }
    }

    /// Cumulative evictions, rehydrations and live frame byte levels.
    pub fn stats(&self) -> ColdStats {
        self.store.stats()
    }

    /// Heap bytes of the row table itself (frames are in [`ColdStats`]).
    pub fn resident_bytes(&self) -> usize {
        self.cold.capacity() * std::mem::size_of::<Option<FrameRef>>()
            + self.touch.capacity() * std::mem::size_of::<u32>()
    }
}

// ---------------------------------------------------------------------------
// Codecs: lossless, deterministic, and compact for the shapes we evict.
// ---------------------------------------------------------------------------

/// Appends a LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint, advancing `pos`.
fn get_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = bytes[*pos];
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return v;
        }
        shift += 7;
        assert!(shift < 64, "cold codec: varint overran 64 bits");
    }
}

const U32S_DELTA: u8 = 1;
const U32S_RAW: u8 = 0;

/// Encodes a `u32` list: delta varints when strictly ascending (posting
/// lists), raw varints otherwise. Lossless either way.
pub fn encode_u32s(values: &[u32], out: &mut Vec<u8>) {
    let ascending = values.windows(2).all(|w| w[0] < w[1]);
    out.push(if ascending { U32S_DELTA } else { U32S_RAW });
    put_varint(out, values.len() as u64);
    if ascending {
        let mut prev = 0u32;
        for (i, &v) in values.iter().enumerate() {
            let delta = if i == 0 { v } else { v - prev };
            put_varint(out, u64::from(delta));
            prev = v;
        }
    } else {
        for &v in values {
            put_varint(out, u64::from(v));
        }
    }
}

/// Decodes [`encode_u32s`] output, advancing `pos`.
pub fn decode_u32s(bytes: &[u8], pos: &mut usize, out: &mut Vec<u32>) {
    let tag = bytes[*pos];
    *pos += 1;
    let count = get_varint(bytes, pos) as usize;
    out.reserve(count);
    let mut prev = 0u32;
    for i in 0..count {
        let raw = get_varint(bytes, pos) as u32;
        let v = if tag == U32S_DELTA && i > 0 {
            prev + raw
        } else {
            raw
        };
        out.push(v);
        prev = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_in_memory() {
        let mut store = ColdStore::in_memory();
        let a = store.put(b"alpha");
        let b = store.put(&[0u8; 300]);
        assert_eq!(store.get(a).unwrap(), b"alpha");
        assert_eq!(store.get(b).unwrap(), vec![0u8; 300]);
        let s = store.stats();
        assert_eq!(s.evictions, 2);
        assert_eq!(s.rehydrations, 2);
        assert_eq!(s.cold_bytes, 5 + 300 + 2 * FRAME_HEADER);
        assert_eq!(s.spilled_bytes, 0);
    }

    #[test]
    fn truncated_arena_reads_are_typed_errors() {
        let mut store = ColdStore::in_memory();
        let frame = store.put(b"some payload");
        store.arena.truncate(6);
        match store.get(frame) {
            Err(ColdError::Truncated { want, have, .. }) => {
                assert!(have < want);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_payload_fails_its_checksum() {
        let mut store = ColdStore::in_memory();
        let frame = store.put(b"some payload");
        let last = store.arena.len() - 1;
        store.arena[last] ^= 0xff;
        assert!(matches!(store.get(frame), Err(ColdError::Checksum { .. })));
        // Failed reads are not rehydrations.
        assert_eq!(store.stats().rehydrations, 0);
    }

    #[test]
    fn compaction_reclaims_dead_bytes_and_preserves_refs() {
        let mut store = ColdStore::in_memory();
        let mut live: Vec<FrameRef> = Vec::new();
        for i in 0..64u32 {
            let payload = vec![i as u8; 2048];
            let frame = store.put(&payload);
            if i % 2 == 0 {
                live.push(frame);
            } else {
                store.free(frame);
            }
        }
        assert!(store.wants_compaction());
        let before = store.stats();
        store.compact(live.iter_mut().collect());
        let after = store.stats();
        assert_eq!(
            after.evictions, before.evictions,
            "compaction is not eviction"
        );
        assert_eq!(after.rehydrations, before.rehydrations);
        assert!(after.cold_bytes < before.cold_bytes + before.spilled_bytes + 32 * 2048);
        assert_eq!(store.dead_bytes, 0);
        for (i, frame) in live.iter().enumerate() {
            assert_eq!(store.get(*frame).unwrap(), vec![(i * 2) as u8; 2048]);
        }
    }

    /// A spill backend the test can reach behind the store's back.
    #[derive(Debug, Clone, Default)]
    struct SharedBytes(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl SpillBackend for SharedBytes {
        fn append(&mut self, bytes: &[u8]) -> Result<u64, String> {
            let mut file = self.0.lock().unwrap();
            let off = file.len() as u64;
            file.extend_from_slice(bytes);
            Ok(off)
        }
        fn read_at(&self, off: u64, buf: &mut [u8]) -> Result<usize, String> {
            let file = self.0.lock().unwrap();
            let tail = file.get(off as usize..).unwrap_or(&[]);
            let have = tail.len().min(buf.len());
            buf[..have].copy_from_slice(&tail[..have]);
            Ok(have)
        }
        fn truncate(&mut self) -> Result<(), String> {
            self.0.lock().unwrap().clear();
            Ok(())
        }
        fn len(&self) -> u64 {
            self.0.lock().unwrap().len() as u64
        }
    }

    /// A toy owner of a [`ColdRows`]: rows of `u32`s, four hot bytes per
    /// entry, [`encode_u32s`] as the codec. `demoted` logs the order rows
    /// were taken in.
    struct Owner {
        rows: ColdRows,
        data: Vec<Vec<u32>>,
        demoted: Vec<usize>,
        spill: Option<SharedBytes>,
    }

    impl Owner {
        fn new(spilled: bool, data: Vec<Vec<u32>>) -> Self {
            let spill = spilled.then(SharedBytes::default);
            let backend = spill.clone().map(|s| Box::new(s) as Box<dyn SpillBackend>);
            Owner {
                rows: ColdRows::new("test row", backend),
                data,
                demoted: Vec::new(),
                spill,
            }
        }

        /// Five 10-entry rows last touched at epochs `[0, 1, 0, 1, 2]`,
        /// standing at epoch 2 with nothing demoted.
        fn staggered(spilled: bool) -> Self {
            let mut o = Owner::new(spilled, (0..5).map(|r| vec![r; 10]).collect());
            o.sweep(u32::MAX, usize::MAX);
            o.rows.touch(1);
            o.rows.touch(3);
            o.sweep(u32::MAX, usize::MAX);
            o.rows.touch(4);
            assert!(o.demoted.is_empty());
            o
        }

        fn sweep(&mut self, idle: u32, target_hot_bytes: usize) {
            let len = self.data.len();
            self.rows.sweep(
                idle,
                target_hot_bytes,
                len,
                &mut (&mut self.data, &mut self.demoted),
                |(data, _), row| data[row].len() * 4,
                |(data, demoted), row, out| {
                    let values = std::mem::take(&mut data[row]);
                    encode_u32s(&values, out);
                    demoted.push(row);
                },
            );
        }

        fn is_cold(&self, row: usize) -> bool {
            self.rows.cold.get(row).is_some_and(Option::is_some)
        }

        fn decode(bytes: &[u8]) -> Vec<u32> {
            let mut values = Vec::new();
            decode_u32s(bytes, &mut 0, &mut values);
            values
        }

        fn promote(&mut self, row: usize) {
            if let Some(bytes) = self.rows.promote(row) {
                self.data[row] = Self::decode(&bytes);
            }
        }

        /// Frame bytes `values` occupy once demoted.
        fn frame_bytes(values: &[u32]) -> usize {
            let mut payload = Vec::new();
            encode_u32s(values, &mut payload);
            FRAME_HEADER + payload.len()
        }

        fn live_bytes(&self) -> usize {
            let stats = self.rows.stats();
            assert_eq!(
                stats.cold_bytes.min(stats.spilled_bytes),
                0,
                "frames live in one tier"
            );
            stats.cold_bytes + stats.spilled_bytes
        }
    }

    #[test]
    fn row_table_entries_stay_sixteen_bytes() {
        // What a budgeted structure pays per row for being evictable —
        // `tests/memory_footprint.rs` holds the index to it.
        assert_eq!(std::mem::size_of::<Option<FrameRef>>(), 16);
    }

    #[test]
    fn sweep_demotes_coldest_first_and_stops_once_hot_bytes_fit() {
        for spilled in [false, true] {
            let mut o = Owner::staggered(spilled);
            // 200 hot bytes, nothing stale: (touch, row) order is 0, 2, 1,
            // 3, 4 and the third demotion brings the rest under 100.
            o.sweep(u32::MAX, 100);
            assert_eq!(o.demoted, vec![0, 2, 1]);
            for row in 0..5 {
                assert_eq!(o.is_cold(row), row < 3);
                assert_eq!(o.data[row].is_empty(), row < 3, "placeholder left behind");
            }
            assert_eq!(o.rows.stats().evictions, 3);
        }
    }

    #[test]
    fn sweep_demotes_every_stale_row_even_under_target() {
        for spilled in [false, true] {
            let mut o = Owner::staggered(spilled);
            // Epoch 3: touch + 1 < 3 makes the rows touched at 0 and 1
            // stale; row 4 (touched at 2) stays although nothing is over
            // target.
            o.sweep(1, usize::MAX);
            assert_eq!(o.demoted, vec![0, 2, 1, 3]);
            assert!(!o.is_cold(4));
        }
    }

    #[test]
    fn zero_idle_zero_target_demotes_everything() {
        for spilled in [false, true] {
            let mut o = Owner::staggered(spilled);
            o.data.push(Vec::new()); // an empty row is never a candidate
            o.data.push(vec![7; 3]); // a row the table has not seen yet
            o.sweep(0, 0);
            assert_eq!(o.demoted, vec![0, 2, 1, 3, 4, 6]);
            assert!(!o.is_cold(5));
            assert!(o.is_cold(6));
            // Nothing hot is left, so the next round has nothing to do.
            o.sweep(0, 0);
            assert_eq!(o.rows.stats().evictions, 6);
        }
    }

    #[test]
    fn transient_read_leaves_the_row_cold_and_promotion_frees_it() {
        for spilled in [false, true] {
            let mut o = Owner::staggered(spilled);
            o.sweep(0, 0);
            let all_cold = o.live_bytes();
            assert_eq!(all_cold, (0..5).map(|r| Owner::frame_bytes(&[r; 10])).sum());

            let bytes = o.rows.read(2).expect("row 2 is cold");
            assert_eq!(Owner::decode(&bytes), vec![2; 10]);
            assert!(o.is_cold(2), "a transient read promotes nothing");
            assert_eq!(o.rows.stats().rehydrations, 1);
            assert_eq!(o.live_bytes(), all_cold);

            o.promote(2);
            assert_eq!(o.data[2], vec![2; 10]);
            assert!(!o.is_cold(2));
            assert_eq!(o.rows.read(2), None);
            assert_eq!(o.rows.stats().rehydrations, 2);
            assert_eq!(o.live_bytes(), all_cold - Owner::frame_bytes(&[2; 10]));
            // Promoting a hot row reads nothing.
            assert_eq!(o.rows.promote(2), None);
            assert_eq!(o.rows.stats().rehydrations, 2);

            // The promotion stamped row 2 at epoch 3; row 0, promoted one
            // round later, is the warmer of the two, so a round that needs
            // one demotion takes row 2.
            o.sweep(u32::MAX, usize::MAX);
            o.promote(0);
            o.demoted.clear();
            o.sweep(u32::MAX, 40);
            assert_eq!(o.demoted, vec![2]);
        }
    }

    #[test]
    fn compaction_keeps_cold_rows_readable_and_the_counters_exact() {
        for spilled in [false, true] {
            // 64 unsorted 512-entry rows: about 1 KiB a frame, so a few
            // rounds of demote-all / promote-half cross COMPACT_DEAD_FLOOR.
            let row = |r: u32| -> Vec<u32> { (0..512).map(|i| (i * 7919 + r) % 1000).collect() };
            let mut o = Owner::new(spilled, (0..64).map(row).collect());
            let (mut evictions, mut rehydrations, mut compactions) = (0u64, 0u64, 0);
            for _ in 0..8 {
                let dead_before = o.rows.store.dead_bytes;
                evictions += o.data.iter().filter(|d| !d.is_empty()).count() as u64;
                o.sweep(0, 0);
                if o.rows.store.dead_bytes < dead_before {
                    compactions += 1;
                    assert_eq!(o.rows.store.dead_bytes, 0);
                }
                for r in (0..64).step_by(2) {
                    o.promote(r);
                    rehydrations += 1;
                }
            }
            assert!(compactions > 0, "the rounds never crossed the floor");
            for r in (1..64).step_by(2) {
                let bytes = o.rows.read(r).expect("odd rows stayed cold");
                assert_eq!(Owner::decode(&bytes), row(r as u32));
                rehydrations += 1;
            }
            let stats = o.rows.stats();
            assert_eq!(stats.evictions, evictions);
            assert_eq!(stats.rehydrations, rehydrations);
            let live: usize = (1..64)
                .step_by(2)
                .map(|r| Owner::frame_bytes(&row(r)))
                .sum();
            assert_eq!(o.live_bytes(), live);
            assert_eq!(stats.spilled_bytes > 0, spilled);
        }
    }

    #[test]
    #[should_panic(expected = "cold tier: test row 3 lost")]
    fn truncated_arena_panics_with_the_owners_row_label() {
        let mut o = Owner::staggered(false);
        o.sweep(0, 0);
        o.rows.store.arena.truncate(2);
        o.rows.read(3);
    }

    #[test]
    #[should_panic(expected = "cold tier: test row 3 lost")]
    fn truncated_spill_panics_with_the_owners_row_label() {
        let mut o = Owner::staggered(true);
        o.sweep(0, 0);
        o.spill.as_ref().unwrap().0.lock().unwrap().truncate(2);
        o.promote(3);
    }

    #[test]
    fn u32_codec_round_trips_ascending_and_unsorted() {
        for values in [
            vec![],
            vec![7],
            vec![0, 1, 2, 1000, 1_000_000],
            vec![5, 3, 3, 9, 0],
            (0..500u32).map(|i| i * 3 + 1).collect::<Vec<_>>(),
        ] {
            let mut buf = Vec::new();
            encode_u32s(&values, &mut buf);
            let mut pos = 0;
            let mut back = Vec::new();
            decode_u32s(&buf, &mut pos, &mut back);
            assert_eq!(back, values);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn ascending_lists_delta_compress() {
        let values: Vec<u32> = (1_000_000..1_002_000).collect();
        let mut buf = Vec::new();
        encode_u32s(&values, &mut buf);
        // 2000 deltas of 1 → ~1 byte each, vs 8000 raw bytes.
        assert!(buf.len() < values.len() * 2, "{} bytes", buf.len());
    }
}
