//! Restart path: snapshot + journal tail → verified account state.
//!
//! [`recover`] never serves a silently-wrong state. Its contract:
//!
//! 1. **Pick a base.** Load the newest CRC-valid snapshot, falling back
//!    past torn, corrupt, or partially-written files (each skip is
//!    reported as a [`Truncation`]). No valid snapshot → start from
//!    zero balances with zero watermarks.
//! 2. **Replay the tail.** Stream every journal segment in id order
//!    through one fixed read buffer, and apply each record whose `seq`
//!    is at or above its shard's snapshot watermark straight into the
//!    books as its frame passes (deltas on distinct sequence numbers
//!    commute, so order within a shard is irrelevant; duplicates cannot
//!    exist because the sequence is stamped once per record). The first
//!    torn or corrupt frame ends the usable journal: later frames —
//!    even valid ones — are dropped and reported, because the gap makes
//!    their prefix unknowable. A CRC-valid frame that cannot be applied
//!    (unknown shard, a record outside its shard, a sequence past
//!    `u64`) is corrupt too, and nothing of it is applied.
//! 3. **Verify conservation.** For every shard the recovered books must
//!    balance exactly: `granted − burned == Σ balances`, and the same
//!    globally. A mismatch is [`RecoveryError::Conservation`] — the
//!    caller must refuse to serve.
//!
//! The recovered state is exactly the fold of the surviving record
//! prefix — the acceptance oracle the crash tests check against.
//!
//! **Memory.** No segment is held whole and no record is materialised:
//! recovery needs the balances and books plus one 1 MiB read buffer
//! (grown only for a larger frame that the file really holds), whatever
//! the journal's length. No bytes on disk can make it panic or allocate
//! past the file's own size.

use std::fmt;
use std::fs::File;
use std::io::{self, Read};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

use super::journal::{self, FrameError, FrameRecords, DELTA_REC_BYTES, RANGE_REC_BYTES};
use super::{read_manifest, snapshot, Manifest};

/// One event where recovery discarded data it could not trust.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Truncation {
    /// The file involved.
    pub file: PathBuf,
    /// What was wrong.
    pub reason: TruncationReason,
}

/// Why a file (or its tail) was discarded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TruncationReason {
    /// A journal segment ended inside a frame; `kept` bytes survive.
    TornTail {
        /// Usable prefix length in bytes.
        kept: u64,
    },
    /// A journal frame failed its CRC, had a bad magic, or was
    /// CRC-valid but could not be applied (unknown shard, a record
    /// outside its shard, a sequence overflow); the rest of the journal
    /// is dropped.
    CorruptFrame {
        /// Usable prefix length in bytes: the offending frame's offset.
        kept: u64,
    },
    /// A later journal segment was ignored because an earlier one was
    /// cut short.
    UnreachableSegment,
    /// A snapshot file failed to load and was skipped.
    BadSnapshot {
        /// The loader's diagnosis.
        error: String,
    },
    /// A leftover `.tmp` file from an interrupted atomic write.
    AbandonedTmp,
}

impl fmt::Display for Truncation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = self.file.file_name().unwrap_or_default().to_string_lossy();
        match &self.reason {
            TruncationReason::TornTail { kept } => {
                write!(f, "{name}: torn tail, kept {kept} bytes")
            }
            TruncationReason::CorruptFrame { kept } => {
                write!(f, "{name}: corrupt frame, kept {kept} bytes")
            }
            TruncationReason::UnreachableSegment => {
                write!(f, "{name}: unreachable past an earlier truncation")
            }
            TruncationReason::BadSnapshot { error } => write!(f, "{name}: {error}"),
            TruncationReason::AbandonedTmp => write!(f, "{name}: abandoned tmp file"),
        }
    }
}

/// A fully-verified recovered state, ready for
/// [`Persistence::resume`](super::Persistence::resume) and
/// [`LiveRuntime`](crate::runtime::LiveRuntime) reconstruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredState {
    /// Client count (from the manifest).
    pub clients: usize,
    /// Shard count (from the manifest).
    pub shards: usize,
    /// All balances, in client order.
    pub balances: Vec<i64>,
    /// Per-shard cumulative granted tokens.
    pub granted: Vec<u64>,
    /// Per-shard cumulative burned tokens.
    pub burned: Vec<u64>,
    /// Per-shard next sequence number (for resuming the journal).
    pub next_seq: Vec<u64>,
    /// Snapshot the state was based on (`None` = journal-only).
    pub snapshot_id: Option<u64>,
    /// Journal records replayed on top of the snapshot.
    pub replayed: u64,
    /// Accounts left with a negative balance. Live admission never
    /// spends below zero, but a truncation can: the journal interleaves
    /// workers' spend frames with the granter's range frames, so the
    /// surviving prefix may keep a spend whose grant was dropped.
    pub negative_balances: u64,
    /// Data recovery had to discard (torn tails, corrupt frames, bad
    /// snapshots). Empty after a clean shutdown.
    pub truncations: Vec<Truncation>,
}

impl RecoveredState {
    /// Sum of all recovered balances.
    pub fn balances_sum(&self) -> i64 {
        self.balances.iter().sum()
    }

    /// Total granted across shards.
    pub fn granted_total(&self) -> u64 {
        self.granted.iter().sum()
    }

    /// Total burned across shards.
    pub fn burned_total(&self) -> u64 {
        self.burned.iter().sum()
    }
}

/// Why recovery refused to produce a state.
#[derive(Debug)]
pub enum RecoveryError {
    /// The recovered books do not balance: serving them would violate
    /// token conservation.
    Conservation {
        /// Human-readable diagnosis (which shard, expected vs got).
        detail: String,
    },
    /// The directory is not a recoverable domain (missing/corrupt
    /// manifest) or another I/O failure.
    Io(io::Error),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Conservation { detail } => {
                write!(f, "conservation mismatch: {detail}")
            }
            RecoveryError::Io(e) => write!(f, "recovery i/o: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<io::Error> for RecoveryError {
    fn from(e: io::Error) -> Self {
        RecoveryError::Io(e)
    }
}

/// Bytes of the buffer a journal segment is streamed through. A frame
/// larger than this (none is, in practice: a producer batch is a few
/// KiB) grows the buffer to fit it, once the file is known to hold it.
const READ_BUF_BYTES: usize = 1 << 20;

/// Recovers the durability domain in `dir`.
///
/// # Errors
///
/// [`RecoveryError::Conservation`] if the recovered books do not
/// balance (the caller must not serve); [`RecoveryError::Io`] if the
/// manifest is missing/corrupt or the filesystem fails. Torn tails and
/// corrupt files are *not* errors — they are truncations, reported in
/// [`RecoveredState::truncations`].
pub fn recover(dir: &Path) -> Result<RecoveredState, RecoveryError> {
    recover_with_buffer(dir, READ_BUF_BYTES)
}

/// [`recover`], streaming segments through a `buf_bytes` read buffer.
/// Tests shrink the buffer to put frames across refills.
pub(crate) fn recover_with_buffer(
    dir: &Path,
    buf_bytes: usize,
) -> Result<RecoveredState, RecoveryError> {
    let manifest = read_manifest(dir)?;
    let mut truncations = Vec::new();

    // Leftover tmp files are evidence of an interrupted atomic write;
    // report (and ignore) them.
    for entry in std::fs::read_dir(dir).map_err(RecoveryError::Io)? {
        let entry = entry.map_err(RecoveryError::Io)?;
        if entry.file_name().to_string_lossy().ends_with(".tmp") {
            truncations.push(Truncation {
                file: entry.path(),
                reason: TruncationReason::AbandonedTmp,
            });
        }
    }

    let (snapshot_id, balances, granted, burned, watermarks) =
        pick_base(dir, &manifest, &mut truncations)?;
    let mut replay = Replay {
        geometry: ShardGeometry::new(manifest.clients, manifest.shards),
        next_seq: watermarks.clone(),
        watermarks,
        balances,
        granted,
        burned,
        replayed: 0,
    };

    // Replay every surviving record with seq >= its shard's watermark.
    let mut buf = vec![0u8; buf_bytes.max(journal::FRAME_HEADER_BYTES)];
    let mut dead = false;
    for (_, path) in journal::list_segments(dir)? {
        if dead {
            truncations.push(Truncation {
                file: path,
                reason: TruncationReason::UnreachableSegment,
            });
            continue;
        }
        if let Some(reason) = replay.segment(&path, &mut buf)? {
            truncations.push(Truncation { file: path, reason });
            dead = true;
        }
    }
    let Replay {
        geometry,
        balances,
        granted,
        burned,
        next_seq,
        replayed,
        ..
    } = replay;

    // Conservation: per shard and globally, granted − burned must equal
    // the sum of balances. This must hold by construction of the fold —
    // if it doesn't, the files lied (bit rot, poisoned books) and the
    // state must not be served. Sums are taken in i128 so no on-disk
    // value can overflow them.
    let mut negative_balances = 0u64;
    for s in 0..manifest.shards {
        let mut sum = 0i128;
        for &b in &balances[geometry.shard_range(s)] {
            sum += i128::from(b);
            negative_balances += u64::from(b < 0);
        }
        let books = i128::from(granted[s]) - i128::from(burned[s]);
        if books != sum {
            return Err(RecoveryError::Conservation {
                detail: format!(
                    "shard {s}: granted {} − burned {} = {books} but balances sum to {sum}",
                    granted[s], burned[s]
                ),
            });
        }
    }

    Ok(RecoveredState {
        clients: manifest.clients,
        shards: manifest.shards,
        balances,
        granted,
        burned,
        next_seq,
        snapshot_id,
        replayed,
        negative_balances,
        truncations,
    })
}

/// The journal fold: snapshot base plus every replayed record, applied
/// frame by frame as segments stream past.
struct Replay {
    geometry: ShardGeometry,
    watermarks: Vec<u64>,
    balances: Vec<i64>,
    granted: Vec<u64>,
    burned: Vec<u64>,
    next_seq: Vec<u64>,
    replayed: u64,
}

impl Replay {
    /// Streams the segment at `path` through `buf` into the books.
    /// Returns the truncation that ends the usable journal inside this
    /// segment, if there is one. `buf` only grows to fit a frame the
    /// file actually holds: a header claiming more bytes than remain is
    /// a torn tail.
    fn segment(&mut self, path: &Path, buf: &mut Vec<u8>) -> io::Result<Option<TruncationReason>> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        // `buf[start..end]` holds the unwalked bytes; `buf[0]` sits at
        // file offset `offset`.
        let (mut start, mut end, mut offset) = (0usize, 0usize, 0u64);
        let mut eof = false;
        loop {
            buf.copy_within(start..end, 0);
            offset += start as u64;
            end -= start;
            while !eof && end < buf.len() {
                match file.read(&mut buf[end..]) {
                    Ok(0) => eof = true,
                    Ok(n) => end += n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            let mut rejected = false;
            let (walked, err) = journal::walk_frames(&buf[..end], |shard, recs| {
                if self.apply(shard, recs) {
                    ControlFlow::Continue(())
                } else {
                    rejected = true;
                    ControlFlow::Break(())
                }
            });
            start = walked;
            let kept = offset + walked as u64;
            if rejected {
                return Ok(Some(TruncationReason::CorruptFrame { kept }));
            }
            match err {
                None if eof => return Ok(None),
                Some(FrameError::Torn) if eof => {
                    return Ok(Some(TruncationReason::TornTail { kept }))
                }
                Some(FrameError::BadMagic | FrameError::BadCrc) => {
                    return Ok(Some(TruncationReason::CorruptFrame { kept }))
                }
                None | Some(FrameError::Torn) => {}
            }
            // More of the file to read. If the frame at `start` runs past
            // the buffer, grow the buffer for it, but only if the file
            // really holds that many bytes.
            if end - start >= journal::FRAME_HEADER_BYTES {
                let need = journal::frame_len(&buf[start..end]).unwrap_or(0);
                if need > file_len.saturating_sub(kept) {
                    return Ok(Some(TruncationReason::TornTail { kept }));
                }
                if need > buf.len() as u64 {
                    buf.resize(need as usize, 0);
                }
            }
        }
    }

    /// Applies one CRC-valid frame to the books. Returns `false`, with
    /// the books untouched, if the frame cannot be applied: its shard is
    /// unknown, a record lies outside the shard, or a sequence number
    /// overflows. The checks run over the whole frame before any record
    /// is applied.
    fn apply(&mut self, shard: u32, recs: FrameRecords<'_>) -> bool {
        let s = shard as usize;
        if s >= self.granted.len() {
            return false;
        }
        let shard_range = self.geometry.shard_range(s);
        let watermark = self.watermarks[s];
        let mut next = self.next_seq[s];
        match recs {
            FrameRecords::Deltas { base_seq, packed } => {
                let valid = packed.chunks_exact(DELTA_REC_BYTES).all(|rec| {
                    let (off, _, client) = journal::delta_fields(rec);
                    shard_range.contains(&(client as usize))
                        && base_seq.checked_add(u64::from(off) + 1).is_some()
                });
                if !valid {
                    return false;
                }
                let (mut granted, mut burned) = (0u64, 0u64);
                for rec in packed.chunks_exact(DELTA_REC_BYTES) {
                    let (off, delta, client) = journal::delta_fields(rec);
                    let seq = base_seq + u64::from(off);
                    if seq < watermark {
                        continue; // already inside the snapshot
                    }
                    let b = &mut self.balances[client as usize];
                    *b = b.wrapping_add(i64::from(delta));
                    if delta >= 0 {
                        granted += delta as u64;
                    } else {
                        burned += u64::from(delta.unsigned_abs());
                    }
                    next = next.max(seq + 1);
                    self.replayed += 1;
                }
                self.granted[s] = self.granted[s].wrapping_add(granted);
                self.burned[s] = self.burned[s].wrapping_add(burned);
            }
            FrameRecords::Ranges(packed) => {
                let valid = packed.chunks_exact(RANGE_REC_BYTES).all(|rec| {
                    let (seq, lo, len) = journal::range_fields(rec);
                    let lo = lo as usize;
                    lo >= shard_range.start
                        && lo
                            .checked_add(len as usize)
                            .is_some_and(|hi| hi <= shard_range.end)
                        && seq.checked_add(1).is_some()
                });
                if !valid {
                    return false;
                }
                for rec in packed.chunks_exact(RANGE_REC_BYTES) {
                    let (seq, lo, len) = journal::range_fields(rec);
                    if seq < watermark {
                        continue;
                    }
                    let lo = lo as usize;
                    for b in &mut self.balances[lo..lo + len as usize] {
                        *b = b.wrapping_add(1);
                    }
                    self.granted[s] = self.granted[s].wrapping_add(u64::from(len));
                    next = next.max(seq + 1);
                    self.replayed += 1;
                }
            }
        }
        self.next_seq[s] = next;
        true
    }
}

type Base = (Option<u64>, Vec<i64>, Vec<u64>, Vec<u64>, Vec<u64>);

/// Loads the newest valid snapshot (recording a truncation per skipped
/// file) or falls back to the zero state.
fn pick_base(
    dir: &Path,
    manifest: &Manifest,
    truncations: &mut Vec<Truncation>,
) -> Result<Base, RecoveryError> {
    let mut files = snapshot::list_snapshot_files(dir)?;
    while let Some((_, path)) = files.pop() {
        match snapshot::load(&path) {
            Ok(snap) => {
                if snap.clients as usize != manifest.clients || snap.shards.len() != manifest.shards
                {
                    truncations.push(Truncation {
                        file: path,
                        reason: TruncationReason::BadSnapshot {
                            error: "geometry disagrees with manifest".into(),
                        },
                    });
                    continue;
                }
                let mut balances = Vec::with_capacity(manifest.clients);
                let mut granted = Vec::with_capacity(manifest.shards);
                let mut burned = Vec::with_capacity(manifest.shards);
                let mut watermarks = Vec::with_capacity(manifest.shards);
                for sh in &snap.shards {
                    balances.extend_from_slice(&sh.balances);
                    granted.push(sh.granted);
                    burned.push(sh.burned);
                    watermarks.push(sh.watermark);
                }
                return Ok((Some(snap.id), balances, granted, burned, watermarks));
            }
            Err(e) => {
                truncations.push(Truncation {
                    file: path,
                    reason: TruncationReason::BadSnapshot {
                        error: e.to_string(),
                    },
                });
            }
        }
    }
    Ok((
        None,
        vec![0; manifest.clients],
        vec![0; manifest.shards],
        vec![0; manifest.shards],
        vec![0; manifest.shards],
    ))
}

/// The client→shard partition rule of
/// [`ShardedAccounts`](crate::accounts::ShardedAccounts), reproduced
/// from `(clients, shards)` alone so recovery needs no live map.
struct ShardGeometry {
    block: usize,
    n: usize,
}

impl ShardGeometry {
    fn new(n: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, n.max(1));
        ShardGeometry {
            block: n.div_ceil(shards).max(1),
            n,
        }
    }

    /// Clients of shard `s`; empty for a shard past the last client.
    fn shard_range(&self, s: usize) -> std::ops::Range<usize> {
        let lo = s.saturating_mul(self.block).min(self.n);
        let hi = s.saturating_add(1).saturating_mul(self.block).min(self.n);
        lo..hi
    }
}

#[cfg(test)]
mod tests {
    use super::super::journal::{
        encode_frame, encode_range_frame, segment_path, DeltaRec, FramePayload, RangeRec,
        FRAME_MAGIC,
    };
    use super::super::{crc32, write_manifest, Manifest};
    use super::*;
    use crate::accounts::ShardedAccounts;

    /// A fresh domain of `clients` accounts in `shards` shards whose
    /// journal is `segments` (raw bytes, segment ids from 0).
    fn domain(tag: &str, clients: usize, shards: usize, segments: &[Vec<u8>]) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ta-rec-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        write_manifest(&dir, &Manifest { clients, shards }).unwrap();
        for (id, bytes) in segments.iter().enumerate() {
            std::fs::write(segment_path(&dir, id as u64), bytes).unwrap();
        }
        dir
    }

    /// The snapshot-free fold built on `scan_segment` that the streaming
    /// replay must equal, for journals whose CRC-valid frames all apply.
    fn scan_fold(dir: &Path) -> RecoveredState {
        let m = read_manifest(dir).unwrap();
        let mut st = RecoveredState {
            clients: m.clients,
            shards: m.shards,
            balances: vec![0; m.clients],
            granted: vec![0; m.shards],
            burned: vec![0; m.shards],
            next_seq: vec![0; m.shards],
            snapshot_id: None,
            replayed: 0,
            negative_balances: 0,
            truncations: Vec::new(),
        };
        let mut dead = false;
        for (_, path) in journal::list_segments(dir).unwrap() {
            if dead {
                st.truncations.push(Truncation {
                    file: path,
                    reason: TruncationReason::UnreachableSegment,
                });
                continue;
            }
            let scan = journal::scan_segment(&std::fs::read(&path).unwrap());
            for frame in &scan.frames {
                let s = frame.shard as usize;
                match &frame.payload {
                    FramePayload::Deltas(recs) => {
                        for r in recs {
                            st.balances[r.client as usize] += i64::from(r.delta);
                            if r.delta >= 0 {
                                st.granted[s] += r.delta as u64;
                            } else {
                                st.burned[s] += u64::from(r.delta.unsigned_abs());
                            }
                            st.next_seq[s] = st.next_seq[s].max(r.seq + 1);
                            st.replayed += 1;
                        }
                    }
                    FramePayload::Ranges(recs) => {
                        for r in recs {
                            let lo = r.lo as usize;
                            for b in &mut st.balances[lo..lo + r.len as usize] {
                                *b += 1;
                            }
                            st.granted[s] += u64::from(r.len);
                            st.next_seq[s] = st.next_seq[s].max(r.seq + 1);
                            st.replayed += 1;
                        }
                    }
                }
            }
            if let Some(err) = scan.error {
                let kept = scan.valid_len as u64;
                st.truncations.push(Truncation {
                    file: path,
                    reason: match err {
                        FrameError::Torn => TruncationReason::TornTail { kept },
                        _ => TruncationReason::CorruptFrame { kept },
                    },
                });
                dead = true;
            }
        }
        st.negative_balances = st.balances.iter().filter(|&&b| b < 0).count() as u64;
        st
    }

    /// `frames` frames over 40 clients in 4 shards of 10: grants as
    /// range frames, then spends and multi-token deltas as delta frames
    /// of 1–19 records, with per-shard sequences continuing from `seq`.
    fn journal_bytes(frames: usize, seq: &mut [u64; 4]) -> Vec<u8> {
        let mut out = Vec::new();
        for k in 0..frames {
            let s = k % 4;
            let lo = (s * 10) as u32;
            if k % 3 == 0 {
                let recs: Vec<RangeRec> = (0..1 + k % 3)
                    .map(|i| {
                        seq[s] += 1;
                        RangeRec {
                            seq: seq[s] - 1,
                            lo: lo + i as u32,
                            len: 10 - i as u32,
                        }
                    })
                    .collect();
                encode_range_frame(s as u32, &recs, &mut out);
            } else {
                let recs: Vec<DeltaRec> = (0..1 + (k * 7) % 19)
                    .map(|i| {
                        seq[s] += 1;
                        DeltaRec {
                            seq: seq[s] - 1,
                            client: lo + ((k + i) % 10) as u32,
                            delta: if i % 4 == 0 { 3 } else { -1 },
                        }
                    })
                    .collect();
                encode_frame(s as u32, &recs, &mut out);
            }
        }
        out
    }

    /// One delta frame built by hand (any base, offsets, and clients),
    /// with a valid CRC.
    fn raw_delta_frame(shard: u32, base: u64, recs: &[(u16, i16, u32)]) -> Vec<u8> {
        let mut f = Vec::new();
        f.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        f.extend_from_slice(&shard.to_le_bytes());
        f.extend_from_slice(&(recs.len() as u32).to_le_bytes());
        f.extend_from_slice(&base.to_le_bytes());
        for &(off, delta, client) in recs {
            f.extend_from_slice(&off.to_le_bytes());
            f.extend_from_slice(&delta.to_le_bytes());
            f.extend_from_slice(&client.to_le_bytes());
        }
        let crc = crc32(&f[4..]);
        f.extend_from_slice(&crc.to_le_bytes());
        f
    }

    /// Recovers `dir` and returns the state plus its one truncation.
    fn recover_truncated(dir: &Path) -> (RecoveredState, TruncationReason) {
        let state = recover(dir).unwrap();
        assert_eq!(state.truncations.len(), 1, "{:?}", state.truncations);
        let reason = state.truncations[0].reason.clone();
        (state, reason)
    }

    #[test]
    fn streaming_fold_equals_scan_fold_across_refills() {
        let mut seq = [0u64; 4];
        let segs = vec![journal_bytes(31, &mut seq), journal_bytes(17, &mut seq)];
        let dir = domain("refill", 40, 4, &segs);
        let want = scan_fold(&dir);
        assert!(want.truncations.is_empty() && want.replayed > 100);
        for buf in [1, 12, 13, 24, 31, 64, 100, 257, 4096, READ_BUF_BYTES] {
            assert_eq!(
                recover_with_buffer(&dir, buf).unwrap(),
                want,
                "buffer {buf}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streaming_fold_grows_for_a_frame_larger_than_the_buffer() {
        let mut seg = Vec::new();
        encode_range_frame(
            0,
            &[RangeRec {
                seq: 0,
                lo: 0,
                len: 5,
            }],
            &mut seg,
        );
        let big: Vec<DeltaRec> = (1..=600)
            .map(|i| DeltaRec {
                seq: i,
                client: (i % 10) as u32,
                delta: if i % 2 == 0 { 2 } else { -1 },
            })
            .collect();
        encode_frame(0, &big, &mut seg);
        encode_frame(
            1,
            &[DeltaRec {
                seq: 0,
                client: 12,
                delta: 4,
            }],
            &mut seg,
        );
        let dir = domain("bigframe", 20, 2, &[seg]);
        let want = scan_fold(&dir);
        assert_eq!(want.replayed, 602);
        for buf in [16, 64, 1000] {
            assert_eq!(
                recover_with_buffer(&dir, buf).unwrap(),
                want,
                "buffer {buf}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streaming_fold_equals_scan_fold_at_every_torn_cut() {
        let mut seq = [0u64; 4];
        let full = journal_bytes(6, &mut seq);
        let next = journal_bytes(3, &mut seq);
        let dir = domain("torn", 40, 4, &[Vec::new(), next]);
        let seg0 = segment_path(&dir, 0);
        for cut in 0..=full.len() {
            std::fs::write(&seg0, &full[..cut]).unwrap();
            let want = scan_fold(&dir);
            for buf in [16, 40, READ_BUF_BYTES] {
                assert_eq!(
                    recover_with_buffer(&dir, buf).unwrap(),
                    want,
                    "cut {cut}, buffer {buf}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_shard_delta_is_a_corrupt_frame_at_its_offset() {
        // Clients 0..10 are shard 0, 10..20 shard 1.
        let mut seg = Vec::new();
        encode_frame(
            0,
            &[DeltaRec {
                seq: 0,
                client: 3,
                delta: 2,
            }],
            &mut seg,
        );
        let offending = seg.len() as u64;
        seg.extend(raw_delta_frame(0, 1, &[(0, 1, 4), (1, -1, 15)]));
        encode_frame(
            0,
            &[DeltaRec {
                seq: 3,
                client: 5,
                delta: 1,
            }],
            &mut seg,
        );
        let dir = domain("oos-delta", 20, 2, &[seg]);
        let (state, reason) = recover_truncated(&dir);
        assert_eq!(reason, TruncationReason::CorruptFrame { kept: offending });
        // Nothing of the offending frame was applied, nothing after it.
        assert_eq!(state.balances[3], 2);
        assert_eq!(state.balances[4], 0);
        assert_eq!(state.balances[5], 0);
        assert_eq!(
            (state.replayed, state.granted[0], state.next_seq[0]),
            (1, 2, 1)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn range_leaving_its_shard_is_a_corrupt_frame() {
        for (lo, len) in [(8u32, 5u32), (25, 1), (u32::MAX, u32::MAX)] {
            let mut seg = Vec::new();
            encode_range_frame(
                0,
                &[RangeRec {
                    seq: 0,
                    lo: 0,
                    len: 10,
                }],
                &mut seg,
            );
            let offending = seg.len() as u64;
            encode_range_frame(0, &[RangeRec { seq: 1, lo, len }], &mut seg);
            let dir = domain("oos-range", 20, 2, &[seg]);
            let (state, reason) = recover_truncated(&dir);
            assert_eq!(reason, TruncationReason::CorruptFrame { kept: offending });
            assert_eq!(state.granted, vec![10, 0], "[{lo}, +{len})");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn sequence_overflow_is_a_corrupt_frame() {
        let max = u64::MAX;
        let frames = [
            raw_delta_frame(0, max, &[(5, 1, 0)]), // base + off overflows
            raw_delta_frame(0, max, &[(0, 1, 0)]), // seq + 1 overflows
        ];
        let mut range = Vec::new();
        encode_range_frame(
            0,
            &[RangeRec {
                seq: max,
                lo: 0,
                len: 1,
            }],
            &mut range,
        );
        for bad in frames.iter().chain([&range]) {
            let dir = domain("seq-overflow", 4, 1, std::slice::from_ref(bad));
            let (state, reason) = recover_truncated(&dir);
            assert_eq!(reason, TruncationReason::CorruptFrame { kept: 0 });
            assert_eq!((state.replayed, state.next_seq[0]), (0, 0));
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn unknown_shard_is_a_corrupt_frame_at_its_offset() {
        let mut seg = Vec::new();
        encode_frame(
            1,
            &[DeltaRec {
                seq: 0,
                client: 12,
                delta: 1,
            }],
            &mut seg,
        );
        let offending = seg.len() as u64;
        encode_frame(
            2,
            &[DeltaRec {
                seq: 0,
                client: 0,
                delta: 1,
            }],
            &mut seg,
        );
        encode_frame(
            0,
            &[DeltaRec {
                seq: 0,
                client: 0,
                delta: 1,
            }],
            &mut seg,
        );
        let dir = domain("bad-shard", 20, 2, &[seg]);
        let (state, reason) = recover_truncated(&dir);
        assert_eq!(reason, TruncationReason::CorruptFrame { kept: offending });
        assert_eq!(state.replayed, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn huge_count_header_is_a_torn_tail_without_allocation() {
        let mut lead = Vec::new();
        encode_frame(
            0,
            &[DeltaRec {
                seq: 0,
                client: 1,
                delta: 1,
            }],
            &mut lead,
        );
        for prefix in [Vec::new(), lead] {
            let mut seg = prefix.clone();
            seg.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
            seg.extend_from_slice(&0u32.to_le_bytes());
            seg.extend_from_slice(&u32::MAX.to_le_bytes());
            seg.resize(prefix.len() + 100, 0);
            let dir = domain("huge-count", 4, 1, &[seg]);
            let kept = prefix.len() as u64;
            let (state, reason) = recover_truncated(&dir);
            assert_eq!(reason, TruncationReason::TornTail { kept });
            assert_eq!(state.replayed, u64::from(kept > 0));
            // Through a buffer smaller than the file, too: the claimed
            // frame is not in the file, so the buffer never grows.
            let state = recover_with_buffer(&dir, 64).unwrap();
            assert_eq!(
                state.truncations[0].reason,
                TruncationReason::TornTail { kept }
            );
            let mut replay = Replay {
                geometry: ShardGeometry::new(4, 1),
                watermarks: vec![0],
                balances: vec![0; 4],
                granted: vec![0],
                burned: vec![0],
                next_seq: vec![0],
                replayed: 0,
            };
            let mut buf = vec![0u8; 64];
            let reason = replay.segment(&segment_path(&dir, 0), &mut buf).unwrap();
            assert_eq!(reason, Some(TruncationReason::TornTail { kept }));
            assert_eq!((buf.len(), buf.capacity()), (64, 64));
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn hidden_grant_leaves_a_negative_balance() {
        // The spend reached the disk; the range frame carrying the grant
        // it spent sits behind a corrupt frame and is dropped.
        let mut seg = Vec::new();
        encode_frame(
            0,
            &[DeltaRec {
                seq: 1,
                client: 2,
                delta: -1,
            }],
            &mut seg,
        );
        let mut corrupt = Vec::new();
        encode_frame(
            0,
            &[DeltaRec {
                seq: 2,
                client: 3,
                delta: -1,
            }],
            &mut corrupt,
        );
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        seg.extend(corrupt);
        encode_range_frame(
            0,
            &[RangeRec {
                seq: 0,
                lo: 0,
                len: 4,
            }],
            &mut seg,
        );
        let dir = domain("hidden-grant", 4, 1, &[seg]);
        let (state, reason) = recover_truncated(&dir);
        assert!(matches!(reason, TruncationReason::CorruptFrame { .. }));
        assert_eq!(state.balances, vec![0, 0, -1, 0]);
        assert_eq!(state.negative_balances, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn geometry_matches_sharded_accounts() {
        for (n, shards) in [
            (10usize, 4usize),
            (10, 1),
            (1, 8),
            (7, 7),
            (64, 3),
            (100, 16),
        ] {
            let a = ShardedAccounts::new(n, shards);
            let g = ShardGeometry::new(n, shards);
            for s in 0..a.shard_count() {
                // Trailing over-partitioned shards are empty in both
                // views but anchor at different (irrelevant) offsets.
                let (got, want) = (g.shard_range(s), a.shard_range(s));
                if want.is_empty() {
                    assert!(got.is_empty(), "({n},{shards}) shard {s}");
                } else {
                    assert_eq!(got, want, "({n},{shards}) shard {s}");
                }
            }
            for c in 0..n {
                assert!(g.shard_range(a.shard_of(c)).contains(&c));
            }
            assert!(g.shard_range(a.shard_count()).is_empty());
        }
    }

    #[test]
    fn empty_domain_recovers_to_zero() {
        let dir = std::env::temp_dir().join(format!("ta-rec-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        write_manifest(
            &dir,
            &Manifest {
                clients: 5,
                shards: 2,
            },
        )
        .unwrap();
        let state = recover(&dir).unwrap();
        assert_eq!(state.balances, vec![0; 5]);
        assert_eq!(state.replayed, 0);
        assert_eq!(state.snapshot_id, None);
        assert!(state.truncations.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_io_error() {
        let dir = std::env::temp_dir().join(format!("ta-rec-noman-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(recover(&dir), Err(RecoveryError::Io(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
