//! The cold tier: an append-only frame arena for demoted structure rows.
//!
//! Bounded-memory streaming demotes rarely-touched rows — posting lists,
//! snapshot block memberships, packed edge-accumulator rows — out of their
//! hot `Vec` representation into compact **frames**: length-prefixed,
//! checksummed byte records appended to an in-memory arena or, behind a
//! [`SpillBackend`], to a temp file owned by the `io` crate. The codecs
//! here are *lossless by construction* (delta varints for ascending id
//! lists, raw `f64::to_bits` for weights), so demotion is purely a
//! representation change: a rehydrated row is bit-identical to the row
//! that was evicted, which is what keeps the budgeted pipeline on the
//! repo's standing batch-equivalence contract at any eviction cadence.
//!
//! A frame on storage is `[payload_len: u32 LE][fnv1a32: u32 LE][payload]`.
//! Reads validate both the length and the checksum, so a truncated or
//! corrupted spill file surfaces as a typed [`ColdError`] instead of
//! silently diverging the candidate set.

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

/// Handle to one frame inside a [`ColdStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRef {
    off: u64,
    len: u32,
}

impl FrameRef {
    /// Payload length in bytes.
    pub fn payload_len(&self) -> u32 {
        self.len
    }
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

/// Aggregated cold-tier telemetry of one store (or a sum over stores).
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

impl ColdStats {
    /// Element-wise accumulation.
    pub fn merge(&mut self, other: &ColdStats) {
        self.evictions += other.evictions;
        self.rehydrations += other.rehydrations;
        self.cold_bytes += other.cold_bytes;
        self.spilled_bytes += other.spilled_bytes;
    }
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
/// Owners keep [`FrameRef`]s in their row slots; `free` only does
/// bookkeeping (the arena reclaims space on [`ColdStore::compact`], which
/// the owner drives by handing over its live refs for rewriting).
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

    /// Rewrites the live frames (handed over as mutable refs by the
    /// owner) into fresh storage, dropping the dead bytes. Refs are
    /// updated in place.
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

    /// Drops every frame, live or dead (telemetry counters persist).
    pub fn clear(&mut self) {
        if let Some(backend) = &mut self.spill {
            backend
                .truncate()
                .unwrap_or_else(|e| panic!("cold tier: spill truncate failed: {e}"));
        }
        self.arena.clear();
        self.arena.shrink_to_fit();
        self.live_bytes = 0;
        self.dead_bytes = 0;
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

// ---------------------------------------------------------------------------
// Codecs: lossless, deterministic, and compact for the shapes we evict.
// ---------------------------------------------------------------------------

/// Appends a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
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
pub fn get_varint(bytes: &[u8], pos: &mut usize) -> u64 {
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
/// lists, block memberships), raw varints otherwise. Lossless either way.
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

/// Appends an `f64` as its raw bits — bit-identical round trips.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Reads an `f64` written by [`put_f64`], advancing `pos`.
pub fn get_f64(bytes: &[u8], pos: &mut usize) -> f64 {
    let raw: [u8; 8] = bytes[*pos..*pos + 8].try_into().unwrap();
    *pos += 8;
    f64::from_bits(u64::from_le_bytes(raw))
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

    #[test]
    fn f64_codec_is_bit_exact() {
        for v in [0.0, -0.0, 1.5, f64::MIN_POSITIVE, 1.0 / 3.0, f64::INFINITY] {
            let mut buf = Vec::new();
            put_f64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_f64(&buf, &mut pos).to_bits(), v.to_bits());
        }
    }
}
