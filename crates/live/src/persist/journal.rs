//! Append-only CRC-framed grant/spend journal.
//!
//! ## On-disk format
//!
//! A journal is a directory of segment files `journal-<id:08x>.taj`
//! (rotated at snapshot boundaries). A segment is a sequence of frames
//! of two kinds, all little-endian:
//!
//! ```text
//! delta frame ("TAJF") — reactive burns, 8 B records:
//! +--------+--------+--------+----------+==================+--------+
//! | magic  | shard  | count  | base_seq | count × record   |  crc32 |
//! |  u32   |  u32   |  u32   |   u64    |                  |  u32   |
//! +--------+--------+--------+----------+==================+--------+
//!                             | seq_off u16 | delta i16 | client u32 |
//!
//! range frame ("TAJR") — run-length granter sweeps, 16 B records:
//! +--------+--------+--------+=================+--------+
//! | magic  | shard  | count  | count × record  |  crc32 |
//! |  u32   |  u32   |  u32   |                 |  u32   |
//! +--------+--------+--------+=================+--------+
//!                            | seq u64 | lo u32 | len u32 |
//! ```
//!
//! A delta record's sequence is `base_seq + seq_off`; a range record
//! means `+1` token to every client in `[lo, lo + len)` under one
//! sequence number. The CRC covers `shard..payload` (everything
//! between the magic and the CRC itself). A torn write — a frame cut
//! off mid-record or a frame whose CRC fails — marks the end of the
//! usable journal: readers keep everything before it and drop
//! everything after.
//!
//! ## Write path
//!
//! Producers buffer [`DeltaRec`]s locally per shard (no lock, no
//! syscall) and hand full buffers to a dedicated writer thread over a
//! channel. The writer encodes frames into a pending byte buffer and
//! commits (one `write` + optional `fsync`) once per group-commit
//! interval. Records in producer buffers or in an uncommitted batch at
//! kill time are lost; recovery restores the exact surviving prefix.
//!
//! ## Read path
//!
//! [`walk_frames`] is the one frame parser. It walks a byte window
//! frame by frame, checks each CRC, and lends each frame's shard and
//! packed record bytes ([`FrameRecords`]) to a callback without copying
//! or allocating. It returns how many bytes it walked and why it
//! stopped: a [`FrameError::Torn`] at the end of a window only means
//! "refill from here", so recovery streams a segment through a fixed
//! buffer and folds records as they pass. [`scan_segment`] collects the
//! same walk into owned [`ParsedFrame`]s for tools and tests.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::faults::FaultPlan;
use super::{crc32, EpochCell, PersistConfig, PersistShared};
use crate::health::{Component, HealthState, OnJournalFail};
use crate::telem::{c, g, h as th};

/// One journalled balance change: `delta` tokens (positive = grant,
/// negative = reactive spend) applied to `client`, stamped with the
/// owning shard's monotonic sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaRec {
    /// Per-shard monotonic sequence (dense from 0 in a fresh domain).
    pub seq: u64,
    /// Client account id.
    pub client: u32,
    /// Signed token delta.
    pub delta: i32,
}

/// One journalled *range grant*: `+1` token to every client in
/// `[lo, lo + len)`, as one record. The granter's round sweep banks a
/// token into almost every account of a shard each round; run-length
/// encoding that dense stream keeps the journal ~3 orders of magnitude
/// smaller than per-client `+1` deltas (and the writer thread idle
/// instead of saturating a core).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeRec {
    /// Per-shard monotonic sequence (one per range record).
    pub seq: u64,
    /// First client of the granted run.
    pub lo: u32,
    /// Number of consecutive clients granted `+1`.
    pub len: u32,
}

/// Delta-frame magic: "TAJF".
pub const FRAME_MAGIC: u32 = 0x5441_4A46;
/// Range-frame magic: "TAJR".
pub const RANGE_MAGIC: u32 = 0x5441_4A52;
/// Bytes per compact delta record (`seq_off u16 | delta i16 | client
/// u32`; the full `u64` base sequence lives once in the frame header).
pub const DELTA_REC_BYTES: usize = 8;
/// Bytes per range record (`seq u64 | lo u32 | len u32`).
pub const RANGE_REC_BYTES: usize = 16;
/// Delta-frame overhead (magic + shard + count + base_seq + crc).
pub const DELTA_FRAME_OVERHEAD: usize = 24;
/// Range-frame overhead (magic + shard + count + crc).
pub const RANGE_FRAME_OVERHEAD: usize = 16;

/// Appends encoded delta frames for `shard` to `out`, returning how
/// many frames were written (≥ 1). Records are packed to 8 bytes: the
/// header carries the first record's sequence in full, each record only
/// its `u16` offset from it. The producer flushes its buffer before
/// that window or an `i16` delta would overflow, so one batch is one
/// frame in practice — but no input may kill the writer from the encode
/// path, so a record past the offset window forces a frame split and a
/// delta wider than `i16` is split across wire records under the same
/// sequence (the recovery fold sums them back). Reactive burns dominate
/// journal volume at full load; halving their wire size halves the
/// writer's `write(2)` traffic, which profiling shows is where journal
/// overhead actually lives.
pub fn encode_frame(shard: u32, recs: &[DeltaRec], out: &mut Vec<u8>) -> usize {
    let mut frames = 0usize;
    let mut i = 0usize;
    loop {
        let base = recs.get(i).map_or(0, |r| r.seq);
        let start = out.len();
        out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        out.extend_from_slice(&shard.to_le_bytes());
        let count_pos = out.len();
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&base.to_le_bytes());
        let mut count = 0u32;
        while let Some(r) = recs.get(i) {
            let off = match r.seq.checked_sub(base).and_then(|d| u16::try_from(d).ok()) {
                Some(off) => off,
                None => break, // outside this frame's window: split
            };
            let mut rem = r.delta;
            loop {
                let chunk = rem.clamp(i32::from(i16::MIN), i32::from(i16::MAX));
                out.extend_from_slice(&off.to_le_bytes());
                out.extend_from_slice(&(chunk as i16).to_le_bytes());
                out.extend_from_slice(&r.client.to_le_bytes());
                count += 1;
                rem -= chunk;
                if rem == 0 {
                    break;
                }
            }
            i += 1;
        }
        out[count_pos..count_pos + 4].copy_from_slice(&count.to_le_bytes());
        let crc = crc32(&out[start + 4..]);
        out.extend_from_slice(&crc.to_le_bytes());
        frames += 1;
        if i >= recs.len() {
            return frames;
        }
    }
}

/// Appends one encoded range frame for `shard` to `out`. Range records
/// keep the full 16-byte layout: there are ~3 orders of magnitude fewer
/// of them than delta records, so compacting them buys nothing.
pub fn encode_range_frame(shard: u32, recs: &[RangeRec], out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&RANGE_MAGIC.to_le_bytes());
    out.extend_from_slice(&shard.to_le_bytes());
    out.extend_from_slice(&(recs.len() as u32).to_le_bytes());
    for r in recs {
        out.extend_from_slice(&r.seq.to_le_bytes());
        out.extend_from_slice(&r.lo.to_le_bytes());
        out.extend_from_slice(&r.len.to_le_bytes());
    }
    let crc = crc32(&out[start + 4..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// The records of one CRC-valid frame, borrowed from the walked bytes
/// (see [`walk_frames`]). Decode them with [`delta_fields`] /
/// [`range_fields`] over `chunks_exact` of the record width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameRecords<'a> {
    /// A "TAJF" frame: packed [`DELTA_REC_BYTES`]-byte records, each
    /// sequenced relative to `base_seq`.
    Deltas {
        /// The frame header's full sequence number.
        base_seq: u64,
        /// `count × DELTA_REC_BYTES` record bytes.
        packed: &'a [u8],
    },
    /// A "TAJR" frame: packed [`RANGE_REC_BYTES`]-byte records.
    Ranges(&'a [u8]),
}

impl FrameRecords<'_> {
    /// Decodes the records into owned form. A delta sequence that would
    /// overflow `u64` wraps here; the writer never produces one, and
    /// recovery rejects such a frame as corrupt.
    fn to_payload(self) -> FramePayload {
        match self {
            FrameRecords::Deltas { base_seq, packed } => FramePayload::Deltas(
                packed
                    .chunks_exact(DELTA_REC_BYTES)
                    .map(|rec| {
                        let (off, delta, client) = delta_fields(rec);
                        DeltaRec {
                            seq: base_seq.wrapping_add(u64::from(off)),
                            client,
                            delta: i32::from(delta),
                        }
                    })
                    .collect(),
            ),
            FrameRecords::Ranges(packed) => FramePayload::Ranges(
                packed
                    .chunks_exact(RANGE_REC_BYTES)
                    .map(|rec| {
                        let (seq, lo, len) = range_fields(rec);
                        RangeRec { seq, lo, len }
                    })
                    .collect(),
            ),
        }
    }
}

/// `(seq_off, delta, client)` of one packed delta record.
#[inline]
pub fn delta_fields(rec: &[u8]) -> (u16, i16, u32) {
    (
        u16::from_le_bytes([rec[0], rec[1]]),
        i16::from_le_bytes([rec[2], rec[3]]),
        u32::from_le_bytes([rec[4], rec[5], rec[6], rec[7]]),
    )
}

/// `(seq, lo, len)` of one packed range record.
#[inline]
pub fn range_fields(rec: &[u8]) -> (u64, u32, u32) {
    (
        u64::from_le_bytes(rec[0..8].try_into().unwrap()),
        u32::from_le_bytes(rec[8..12].try_into().unwrap()),
        u32::from_le_bytes(rec[12..16].try_into().unwrap()),
    )
}

/// The records a frame carries, by frame kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FramePayload {
    /// Per-client signed deltas ("TAJF").
    Deltas(Vec<DeltaRec>),
    /// Run-length `+1` grants ("TAJR").
    Ranges(Vec<RangeRec>),
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedFrame {
    /// Shard every record in this frame belongs to.
    pub shard: u32,
    /// The decoded records.
    pub payload: FramePayload,
}

/// Why a segment scan stopped before the end of the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The file ends inside a frame (torn tail).
    Torn,
    /// A frame starts with the wrong magic.
    BadMagic,
    /// A frame's CRC does not match its contents.
    BadCrc,
}

/// Bytes of the header every frame kind starts with (magic, shard,
/// count) — enough to know the frame's full length.
pub(crate) const FRAME_HEADER_BYTES: usize = 12;

/// Total length of the frame whose header starts `bytes` (which must
/// hold at least [`FRAME_HEADER_BYTES`]), or `None` for a bad magic.
/// Computed in `u64` so a hostile `count` cannot overflow.
pub(crate) fn frame_len(bytes: &[u8]) -> Option<u64> {
    let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    let count = u64::from(u32::from_le_bytes(bytes[8..12].try_into().unwrap()));
    match magic {
        FRAME_MAGIC => Some(DELTA_FRAME_OVERHEAD as u64 + count * DELTA_REC_BYTES as u64),
        RANGE_MAGIC => Some(RANGE_FRAME_OVERHEAD as u64 + count * RANGE_REC_BYTES as u64),
        _ => None,
    }
}

/// The one frame parser. Walks the frames of `bytes` in order, checks
/// each frame's CRC, and hands its shard and borrowed records to
/// `visit`. Returns the byte length of the frames walked and why the
/// walk stopped short of the end, if it did:
///
/// - `(bytes.len(), None)`: `bytes` ended exactly on a frame boundary.
/// - `(n, Some(Torn))`: `bytes` ends inside the frame at `n`. Its header
///   may claim any length; nothing is allocated for it.
/// - `(n, Some(BadMagic | BadCrc))`: the frame at `n` is corrupt.
/// - `(n, None)` with `n < bytes.len()`: `visit` broke on the frame at
///   `n`, which therefore does not count as walked.
///
/// Nothing is copied or allocated, so a reader can walk a window of a
/// file and, on `Torn`, refill the window from offset `n`.
pub fn walk_frames(
    bytes: &[u8],
    mut visit: impl FnMut(u32, FrameRecords<'_>) -> ControlFlow<()>,
) -> (usize, Option<FrameError>) {
    let mut pos = 0usize;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        if rest.len() < FRAME_HEADER_BYTES {
            return (pos, Some(FrameError::Torn));
        }
        let Some(len) = frame_len(rest) else {
            return (pos, Some(FrameError::BadMagic));
        };
        if (rest.len() as u64) < len {
            return (pos, Some(FrameError::Torn));
        }
        let frame = &rest[..len as usize];
        let (body, crc) = frame.split_at(frame.len() - 4);
        if u32::from_le_bytes(crc.try_into().unwrap()) != crc32(&body[4..]) {
            return (pos, Some(FrameError::BadCrc));
        }
        let shard = u32::from_le_bytes(body[4..8].try_into().unwrap());
        let magic = u32::from_le_bytes(body[0..4].try_into().unwrap());
        let recs = if magic == FRAME_MAGIC {
            FrameRecords::Deltas {
                base_seq: u64::from_le_bytes(body[12..20].try_into().unwrap()),
                packed: &body[20..],
            }
        } else {
            FrameRecords::Ranges(&body[FRAME_HEADER_BYTES..])
        };
        if visit(shard, recs).is_break() {
            return (pos, None);
        }
        pos += frame.len();
    }
    (pos, None)
}

/// Result of scanning one segment: the complete valid frames, the byte
/// length they occupy, and the reason the scan stopped early (if it
/// did — `None` means the file ended exactly on a frame boundary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentScan {
    /// Valid frames, in file order.
    pub frames: Vec<ParsedFrame>,
    /// Bytes of `frames` (the usable prefix length).
    pub valid_len: usize,
    /// Set if bytes remain past the usable prefix.
    pub error: Option<FrameError>,
}

/// Scans raw segment bytes into frames, stopping at the first torn or
/// corrupt frame: [`walk_frames`], collected. Recovery folds frames as
/// it walks them instead; this owned form is for tools and tests.
pub fn scan_segment(bytes: &[u8]) -> SegmentScan {
    let mut frames = Vec::new();
    let (valid_len, error) = walk_frames(bytes, |shard, recs| {
        frames.push(ParsedFrame {
            shard,
            payload: recs.to_payload(),
        });
        ControlFlow::Continue(())
    });
    SegmentScan {
        frames,
        valid_len,
        error,
    }
}

/// Path of journal segment `id` inside `dir`.
pub fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("journal-{id:08x}.taj"))
}

/// Lists journal segments in `dir`, sorted by id.
pub fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(hex) = name
            .strip_prefix("journal-")
            .and_then(|rest| rest.strip_suffix(".taj"))
        {
            if let Ok(id) = u64::from_str_radix(hex, 16) {
                out.push((id, entry.path()));
            }
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Lifetime statistics of one journal writer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records written to the OS.
    pub records: u64,
    /// Frames written.
    pub frames: u64,
    /// Bytes written.
    pub bytes: u64,
    /// fsync calls issued.
    pub syncs: u64,
    /// Segment files written to (≥ 1 once anything was journalled).
    pub segments: u64,
}

/// Messages from producers / the snapshotter to the writer thread.
#[derive(Debug)]
pub(crate) enum WriterMsg {
    /// A producer's shard buffer of per-client deltas. `sent_ns` is the
    /// enqueue timestamp ([`ta_telemetry::mono_ns`]); the writer turns it
    /// into the enqueue→commit wait histogram at group-commit time.
    Batch {
        shard: u32,
        recs: Vec<DeltaRec>,
        sent_ns: u64,
    },
    /// A producer's shard buffer of run-length grants (same `sent_ns`
    /// contract as [`WriterMsg::Batch`]).
    BatchRange {
        shard: u32,
        recs: Vec<RangeRec>,
        sent_ns: u64,
    },
    /// Commit, close the current segment, open the next one, and delete
    /// segments with id below `delete_below`.
    Rotate {
        delete_below: u64,
        ack: Sender<io::Result<()>>,
    },
    /// Commit + fsync everything received so far, then ack.
    Sync(Sender<io::Result<()>>),
    /// Final commit + fsync, then exit with stats.
    Shutdown,
    /// Drop all pending bytes and exit immediately (simulated kill).
    Crash,
}

/// Spawns the journal writer on segment `first_segment`, mirroring the
/// currently-open segment id into `active_segment`.
pub(crate) fn spawn_writer(
    cfg: PersistConfig,
    rx: Receiver<WriterMsg>,
    first_segment: u64,
    active_segment: Arc<AtomicU64>,
    shared: Arc<PersistShared>,
) -> io::Result<JoinHandle<io::Result<JournalStats>>> {
    let file = open_segment(&cfg.dir, first_segment)?;
    std::thread::Builder::new()
        .name("ta-journal".into())
        .spawn(move || writer_loop(cfg, rx, file, first_segment, active_segment, shared))
}

fn open_segment(dir: &Path, id: u64) -> io::Result<File> {
    OpenOptions::new()
        .create(true)
        .append(true)
        .open(segment_path(dir, id))
}

/// How many times a retryable IO error is retried before the writer
/// escalates to its failure policy.
const MAX_IO_RETRIES: u32 = 10;
/// How many consecutive failed attempts an injected `enospc_after`
/// outage lasts before space "returns" for good (write attempts and
/// restart probes both count), keeping chaos runs deterministic in
/// attempts rather than wall time.
const ENOSPC_OUTAGE_ATTEMPTS: u32 = 6;
/// How long the injected `writer_hang` fault stalls the writer — past
/// the supervisor's heartbeat deadline, so the hang is visible as a
/// Degraded→Healthy cycle.
const WRITER_HANG: Duration = Duration::from_millis(800);
/// Restart-probe backoff bounds while the writer is draining.
const PROBE_INITIAL: Duration = Duration::from_millis(50);
const PROBE_MAX: Duration = Duration::from_millis(500);

/// Deterministic transient-fault injection in front of the writer's
/// `write(2)` calls (see [`FaultPlan`]'s transient modes). `injected`
/// counts every perturbation; the writer publishes it as the
/// `faults_injected` counter so CI can assert injection/health-counter
/// agreement.
#[derive(Debug)]
struct IoShim {
    io_errors_left: u32,
    enospc_at: u64,
    enospc_tripped: bool,
    enospc_fails_left: u32,
    slow_ms: u64,
    hang_pending: bool,
    bytes: u64,
    injected: u64,
}

impl IoShim {
    fn new(faults: &FaultPlan) -> Self {
        IoShim {
            io_errors_left: faults.io_error_n,
            enospc_at: if faults.enospc_after == 0 {
                u64::MAX
            } else {
                faults.enospc_after
            },
            enospc_tripped: false,
            enospc_fails_left: ENOSPC_OUTAGE_ATTEMPTS,
            slow_ms: faults.slow_io_ms,
            hang_pending: faults.writer_hang,
            bytes: 0,
            injected: 0,
        }
    }

    /// Consults the shim before a write of `len` bytes (0 = a restart
    /// probe). `Err` means the fault fired instead of the write.
    fn check(&mut self, len: usize) -> io::Result<()> {
        if self.hang_pending {
            self.hang_pending = false;
            self.injected += 1;
            std::thread::sleep(WRITER_HANG);
        }
        if self.slow_ms > 0 && len > 0 {
            self.injected += 1;
            std::thread::sleep(Duration::from_millis(self.slow_ms));
        }
        if self.io_errors_left > 0 {
            self.io_errors_left -= 1;
            self.injected += 1;
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected transient io error",
            ));
        }
        if self.enospc_at != u64::MAX
            && (self.enospc_tripped || self.bytes + len as u64 > self.enospc_at)
        {
            self.enospc_tripped = true;
            if self.enospc_fails_left > 0 {
                self.enospc_fails_left -= 1;
                self.injected += 1;
                return Err(io::Error::other("injected disk full (ENOSPC)"));
            }
            // The outage is over: space returns for good.
            self.enospc_at = u64::MAX;
            self.enospc_tripped = false;
        }
        self.bytes += len as u64;
        Ok(())
    }
}

/// True for error kinds worth retrying with backoff (transient by
/// nature); everything else escalates straight to the failure policy.
fn retryable(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Bounded exponential backoff with multiplicative jitter: 1 ms
/// doubling to a 100 ms cap, plus up to 25% from a cheap LCG so
/// concurrent retriers don't thunder in phase.
fn backoff_delay(attempt: u32, seed: &mut u64) -> Duration {
    let base_us = (1u64 << attempt.saturating_sub(1).min(20)).min(100) * 1000;
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let jitter_us = (*seed >> 33) % (base_us / 4 + 1);
    Duration::from_micros(base_us + jitter_us)
}

struct Writer {
    cfg: PersistConfig,
    file: File,
    segment: u64,
    pending: Vec<u8>,
    /// Enqueue timestamps of batches encoded into `pending` but not yet
    /// committed; drained into the enqueue→commit histogram at commit.
    pending_sent: Vec<u64>,
    /// Logical records encoded into `pending` but not yet committed
    /// (what gets counted as dropped if the writer fails here).
    pending_records: u64,
    stats: JournalStats,
    committed_frames: u64,
    shared: Arc<PersistShared>,
    shim: IoShim,
    /// Degraded drain mode: durability suspended, batches dropped and
    /// counted, periodic probes for disk recovery.
    draining: bool,
    probe_at: Option<Instant>,
    probe_backoff: Duration,
    jitter_seed: u64,
}

impl Writer {
    /// Writes and (configurably) fsyncs the pending buffer.
    fn commit(&mut self) -> io::Result<()> {
        if !self.pending.is_empty() {
            self.shim_check(self.pending.len())?;
            match self.shared.telem.get() {
                Some(h) => {
                    let t0 = Instant::now();
                    self.file.write_all(&self.pending)?;
                    h.add(c::JOURNAL_FLUSH_NS, t0.elapsed().as_nanos() as u64);
                    h.incr(c::JOURNAL_FLUSHES);
                }
                None => self.file.write_all(&self.pending)?,
            }
            self.stats.bytes += self.pending.len() as u64;
            self.pending.clear();
            self.pending_records = 0;
        }
        if self.cfg.fsync && !self.cfg.faults.drop_fsync {
            self.fsync()?;
        }
        // The group-commit wait per batch: enqueue to durable write. The
        // list drains even without telemetry so it cannot grow unbounded.
        if let Some(h) = self.shared.telem.get() {
            let now = ta_telemetry::mono_ns();
            for sent in &self.pending_sent {
                h.hist_record(th::JOURNAL_COMMIT_NS, now.saturating_sub(*sent));
            }
        }
        self.pending_sent.clear();
        Ok(())
    }

    /// One timed, counted `sync_data` (durability points only).
    fn fsync(&mut self) -> io::Result<()> {
        match self.shared.telem.get() {
            Some(h) => {
                let t0 = Instant::now();
                self.file.sync_data()?;
                let elapsed = t0.elapsed().as_nanos() as u64;
                h.add(c::JOURNAL_FSYNC_NS, elapsed);
                h.incr(c::JOURNAL_FSYNCS);
                h.hist_record(th::FSYNC_NS, elapsed);
            }
            None => self.file.sync_data()?,
        }
        self.stats.syncs += 1;
        Ok(())
    }

    /// Runs the fault shim in front of a write of `len` bytes,
    /// publishing any perturbations it injected.
    fn shim_check(&mut self, len: usize) -> io::Result<()> {
        let before = self.shim.injected;
        let res = self.shim.check(len);
        let delta = self.shim.injected - before;
        if delta > 0 {
            if let Some(h) = self.shared.telem.get() {
                h.add(c::FAULTS_INJECTED, delta);
            }
        }
        res
    }

    /// Commits with the self-healing envelope: retryable IO errors are
    /// retried with bounded exponential backoff + jitter; persistent
    /// failure escalates to the health board's journal policy and flips
    /// the writer into drain mode instead of killing the thread. With
    /// no board attached (tests, bench harnesses) the first error
    /// propagates exactly as it always did.
    fn commit_guarded(&mut self) -> io::Result<()> {
        if self.draining {
            self.drop_pending();
            return Ok(());
        }
        let mut attempt = 0u32;
        loop {
            let err = match self.commit() {
                Ok(()) => {
                    if attempt > 0 {
                        // Recovered within the retry budget: clear the
                        // Degraded mark the retry loop set.
                        if let Some(board) = self.shared.health.get() {
                            if board.state(Component::JournalWriter) == HealthState::Degraded {
                                board.set_state(Component::JournalWriter, HealthState::Healthy);
                            }
                        }
                    }
                    return Ok(());
                }
                Err(e) => e,
            };
            if let Some(h) = self.shared.telem.get() {
                h.incr(c::JOURNAL_IO_ERRORS);
            }
            let Some(board) = self.shared.health.get() else {
                return Err(err);
            };
            board.beat(Component::JournalWriter);
            if retryable(err.kind()) && attempt < MAX_IO_RETRIES {
                attempt += 1;
                if let Some(h) = self.shared.telem.get() {
                    h.incr(c::JOURNAL_IO_RETRIES);
                }
                if board.state(Component::JournalWriter) == HealthState::Healthy {
                    board.set_state(Component::JournalWriter, HealthState::Degraded);
                }
                std::thread::sleep(backoff_delay(attempt, &mut self.jitter_seed));
                continue;
            }
            self.enter_drain();
            return Ok(());
        }
    }

    /// Escalation: enact the journal failure policy and switch to drain
    /// mode (drop-and-count batches, probe for disk recovery).
    fn enter_drain(&mut self) {
        if let Some(board) = self.shared.health.get() {
            board.journal_failed();
        }
        self.drop_pending();
        self.draining = true;
        self.probe_backoff = PROBE_INITIAL;
        self.probe_at = Some(Instant::now() + self.probe_backoff);
    }

    /// Drops the uncommitted pending buffer, counting its records.
    fn drop_pending(&mut self) {
        if self.pending_records > 0 {
            if let Some(h) = self.shared.telem.get() {
                h.add(c::JOURNAL_DROPPED_RECORDS, self.pending_records);
            }
        }
        self.pending.clear();
        self.pending_sent.clear();
        self.pending_records = 0;
    }

    /// Drain-mode handling of one incoming batch: consume it, count its
    /// records as dropped, and keep the queue-depth gauge balanced.
    fn drop_batch(&mut self, records: u64) {
        if let Some(h) = self.shared.telem.get() {
            h.add(c::JOURNAL_DROPPED_RECORDS, records);
            h.gauge_add(g::JOURNAL_QUEUE_DEPTH, -1);
        }
    }

    /// While draining under the degrade policy: probe the disk with
    /// capped backoff; on success restart onto a fresh segment and
    /// resume durability.
    fn maybe_probe(&mut self, active_segment: &AtomicU64) {
        if !self.draining {
            return;
        }
        let due = self.probe_at.is_some_and(|at| Instant::now() >= at);
        if !due {
            return;
        }
        let Some(board) = self.shared.health.get().cloned() else {
            self.probe_at = None;
            return;
        };
        if board.policy() != OnJournalFail::Degrade {
            // halt/exit: the run is winding down; no restart.
            self.probe_at = None;
            return;
        }
        board.beat(Component::JournalWriter);
        let probe = self.shim_check(0).and_then(|()| {
            let file = open_segment(&self.cfg.dir, self.segment + 1)?;
            super::sync_dir(&self.cfg.dir)?;
            Ok(file)
        });
        match probe {
            Ok(file) => {
                self.segment += 1;
                self.file = file;
                self.stats.segments += 1;
                active_segment.store(self.segment, Ordering::SeqCst);
                self.draining = false;
                self.probe_at = None;
                board.journal_recovered();
                if let Some(h) = self.shared.telem.get() {
                    h.incr(c::JOURNAL_WRITER_RESTARTS);
                }
            }
            Err(_) => {
                self.probe_backoff = (self.probe_backoff * 2).min(PROBE_MAX);
                self.probe_at = Some(Instant::now() + self.probe_backoff);
            }
        }
    }

    /// Frame-level accounting after encoding one batch (`frames` frames
    /// — more than one when the encoder had to split) into `pending`.
    fn note_frame(&mut self, range: bool, encoded: usize, frames: u64) {
        if let Some(h) = self.shared.telem.get() {
            if range {
                h.add(c::JOURNAL_FRAMES_RANGE, frames);
                h.add(c::JOURNAL_BYTES_RANGE, encoded as u64);
            } else {
                h.add(c::JOURNAL_FRAMES_DELTA, frames);
                h.add(c::JOURNAL_BYTES_DELTA, encoded as u64);
            }
            h.gauge_add(g::JOURNAL_QUEUE_DEPTH, -1);
        }
    }

    /// The `kill_writer_mid_frame` fault: after at least two committed
    /// frames, write the pending bytes plus *half* of the next frame,
    /// make the torn tail durable, and die.
    fn die_mid_frame(&mut self, frame: &[u8]) -> io::Result<JournalStats> {
        self.file.write_all(&self.pending)?;
        self.file.write_all(&frame[..frame.len() / 2])?;
        self.file.sync_data()?;
        self.pending.clear();
        Ok(self.stats)
    }

    fn rotate(&mut self, delete_below: u64) -> io::Result<()> {
        self.commit_guarded()?;
        if self.draining {
            return Err(io::Error::other("journal degraded: durability suspended"));
        }
        self.segment += 1;
        self.file = open_segment(&self.cfg.dir, self.segment)?;
        for (id, path) in list_segments(&self.cfg.dir)? {
            if id < delete_below {
                fs::remove_file(path)?;
            }
        }
        super::sync_dir(&self.cfg.dir)
    }
}

fn writer_loop(
    cfg: PersistConfig,
    rx: Receiver<WriterMsg>,
    file: File,
    first_segment: u64,
    active_segment: Arc<AtomicU64>,
    shared: Arc<PersistShared>,
) -> io::Result<JournalStats> {
    let group = cfg.group_commit.max(Duration::from_micros(100));
    let shim = IoShim::new(&cfg.faults);
    let jitter_seed = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0x9E37_79B9, |d| d.subsec_nanos() as u64)
        | 1;
    let mut w = Writer {
        cfg,
        file,
        segment: first_segment,
        pending: Vec::with_capacity(64 * 1024),
        pending_sent: Vec::new(),
        pending_records: 0,
        stats: JournalStats {
            segments: 1,
            ..JournalStats::default()
        },
        committed_frames: 0,
        shared,
        shim,
        draining: false,
        probe_at: None,
        probe_backoff: PROBE_INITIAL,
        jitter_seed,
    };
    let mut deadline = Instant::now() + group;
    loop {
        if let Some(board) = w.shared.health.get() {
            board.beat(Component::JournalWriter);
        }
        let timeout = deadline.saturating_duration_since(Instant::now());
        // Block for the first message, then drain greedily with
        // try_recv: a burst of producer flushes costs one wakeup, not
        // one park/unpark round trip per send. Draining batches does
        // NOT commit — bytes accumulate in `pending` until the group
        // deadline (or an explicit Sync/Rotate/Shutdown).
        let mut msg = match rx.recv_timeout(timeout.min(group)) {
            Ok(m) => m,
            Err(RecvTimeoutError::Timeout) => {
                w.commit_guarded()?;
                w.maybe_probe(&active_segment);
                deadline = Instant::now() + group;
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => {
                w.commit_guarded()?;
                return Ok(w.stats);
            }
        };
        loop {
            match msg {
                WriterMsg::Batch {
                    shard,
                    recs,
                    sent_ns,
                } => {
                    if w.draining {
                        w.drop_batch(recs.len() as u64);
                    } else {
                        if w.cfg.faults.kill_writer_mid_frame && w.committed_frames >= 2 {
                            let mut frame = Vec::new();
                            encode_frame(shard, &recs, &mut frame);
                            return w.die_mid_frame(&frame);
                        }
                        let before = w.pending.len();
                        let frames = encode_frame(shard, &recs, &mut w.pending) as u64;
                        w.note_frame(false, w.pending.len() - before, frames);
                        w.pending_sent.push(sent_ns);
                        w.pending_records += recs.len() as u64;
                        w.stats.frames += frames;
                        w.stats.records += recs.len() as u64;
                        w.committed_frames += frames;
                    }
                }
                WriterMsg::BatchRange {
                    shard,
                    recs,
                    sent_ns,
                } => {
                    if w.draining {
                        w.drop_batch(recs.len() as u64);
                    } else {
                        if w.cfg.faults.kill_writer_mid_frame && w.committed_frames >= 2 {
                            let mut frame = Vec::new();
                            encode_range_frame(shard, &recs, &mut frame);
                            return w.die_mid_frame(&frame);
                        }
                        let before = w.pending.len();
                        encode_range_frame(shard, &recs, &mut w.pending);
                        w.note_frame(true, w.pending.len() - before, 1);
                        w.pending_sent.push(sent_ns);
                        w.pending_records += recs.len() as u64;
                        w.stats.frames += 1;
                        w.stats.records += recs.len() as u64;
                        w.committed_frames += 1;
                    }
                }
                WriterMsg::Rotate { delete_below, ack } => {
                    if w.draining {
                        let _ =
                            ack.send(Err(io::Error::other("journal degraded: rotation refused")));
                    } else {
                        let res = w.rotate(delete_below);
                        let ok = res.is_ok();
                        match (ok, w.shared.health.get()) {
                            (true, _) => {
                                let _ = ack.send(res);
                                w.stats.segments += 1;
                                active_segment.store(w.segment, Ordering::SeqCst);
                                deadline = Instant::now() + group;
                            }
                            (false, Some(_)) => {
                                // Supervised: survive the failed rotation
                                // in drain mode (commit_guarded may have
                                // already escalated; this is idempotent).
                                w.enter_drain();
                                let _ = ack.send(res);
                            }
                            (false, None) => {
                                let _ = ack.send(res);
                                return Ok(w.stats);
                            }
                        }
                    }
                }
                WriterMsg::Sync(ack) => {
                    if w.draining {
                        let _ = ack.send(Err(io::Error::other("journal degraded: sync refused")));
                    } else {
                        let mut res = w.commit_guarded();
                        if res.is_ok() && w.draining {
                            res = Err(io::Error::other("journal degraded: sync refused"));
                        }
                        if res.is_ok() && !w.cfg.fsync && !w.cfg.faults.drop_fsync {
                            // `sync` promises durability even when periodic
                            // fsync is off.
                            res = w.fsync();
                        }
                        let _ = ack.send(res);
                        deadline = Instant::now() + group;
                    }
                }
                WriterMsg::Shutdown => {
                    w.commit_guarded()?;
                    if !w.draining && !w.cfg.fsync && !w.cfg.faults.drop_fsync {
                        if let Err(e) = w.fsync() {
                            if w.shared.health.get().is_none() {
                                return Err(e);
                            }
                            w.enter_drain();
                        }
                    }
                    return Ok(w.stats);
                }
                WriterMsg::Crash => {
                    // Pending bytes die with us: no write, no fsync.
                    return Ok(w.stats);
                }
            }
            // A saturated channel must not starve the group-commit
            // deadline: commit mid-drain once it passes. Beat here too —
            // a saturated channel must not starve the heartbeat either.
            if Instant::now() >= deadline {
                if let Some(board) = w.shared.health.get() {
                    board.beat(Component::JournalWriter);
                }
                w.commit_guarded()?;
                deadline = Instant::now() + group;
            }
            match rx.try_recv() {
                Ok(m) => msg = m,
                Err(_) => break,
            }
        }
        w.maybe_probe(&active_segment);
    }
}

/// One producer's handle to the journal: per-shard bounded buffers, an
/// epoch cell for snapshot fencing, and a channel to the writer.
///
/// The owning thread brackets every balance-changing operation with
/// [`enter`](Self::enter) / [`exit`](Self::exit) and publishes each
/// delta with [`record`](Self::record) *between* applying it to the
/// account and exiting. Handles flush on drop.
#[derive(Debug)]
pub struct JournalHandle {
    shared: Arc<PersistShared>,
    tx: Sender<WriterMsg>,
    cell: Arc<EpochCell>,
    bufs: Vec<Vec<DeltaRec>>,
    range_bufs: Vec<Vec<RangeRec>>,
    cap: usize,
    records: u64,
    depth: u32,
}

impl JournalHandle {
    pub(crate) fn new(shared: Arc<PersistShared>, tx: Sender<WriterMsg>) -> Self {
        let cell = Arc::new(EpochCell::default());
        shared
            .epochs
            .lock()
            .expect("epoch registry")
            .push(Arc::clone(&cell));
        let shards = shared.shards.len();
        let cap = shared.buffer_cap;
        JournalHandle {
            shared,
            tx,
            cell,
            bufs: (0..shards).map(|_| Vec::with_capacity(cap)).collect(),
            range_bufs: (0..shards).map(|_| Vec::new()).collect(),
            cap,
            records: 0,
            depth: 0,
        }
    }

    /// Enters a journalled operation on `shard`: spins while the shard
    /// is fenced by the snapshotter (microseconds — the time to copy
    /// one shard's balances), otherwise one uncontended atomic RMW.
    ///
    /// Nestable: inside an outer [`enter_bulk`](Self::enter_bulk) (or
    /// an outer `enter` of the *same* shard) the call is a plain
    /// counter increment — the bulk entry already verified no snapshot
    /// was in flight anywhere, and the producer has been visibly busy
    /// since, so no fence can have completed its quiesce against us.
    /// Nesting under a plain `enter` of a *different* shard is not
    /// allowed: that outer entry only checked its own shard's fence.
    #[inline]
    pub fn enter(&mut self, shard: usize) {
        if self.depth > 0 {
            self.depth += 1;
            return;
        }
        let fence = &self.shared.shards[shard].fenced;
        loop {
            self.cell.set_busy();
            if !fence.load(Ordering::SeqCst) {
                self.depth = 1;
                return;
            }
            // The snapshotter is copying this shard: step aside so it
            // can observe us idle, and wait the fence out.
            self.cell.set_idle();
            while fence.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        }
    }

    /// Enters a *bulk* epoch: the producer stays busy across a run of
    /// operations that may touch any shard, amortizing the two
    /// sequentially-consistent fence operations over the whole run.
    /// Checks the domain-wide pending-snapshot counter (instead of one
    /// shard's fence), so a bulk producer never starts a run while any
    /// snapshot is waiting. Callers must [`exit`](Self::exit) before
    /// blocking or sleeping and keep runs short (the snapshotter waits
    /// out the whole run).
    #[inline]
    pub fn enter_bulk(&mut self) {
        if self.depth > 0 {
            self.depth += 1;
            return;
        }
        let pending = &self.shared.snap_pending;
        loop {
            self.cell.set_busy();
            if pending.load(Ordering::SeqCst) == 0 {
                self.depth = 1;
                return;
            }
            self.cell.set_idle();
            while pending.load(Ordering::Relaxed) != 0 {
                std::hint::spin_loop();
            }
        }
    }

    /// Queue accounting for one batch handed to the writer (per ~cap
    /// records, not per record — the telemetry check is one cold load).
    #[inline]
    fn note_batch(&self) {
        if let Some(h) = self.shared.telem.get() {
            h.incr(c::JOURNAL_BATCHES);
            h.gauge_add(g::JOURNAL_QUEUE_DEPTH, 1);
        }
    }

    /// Leaves the current operation; the outermost exit publishes all
    /// its effects to the snapshotter.
    #[inline]
    pub fn exit(&mut self) {
        debug_assert!(self.depth > 0, "exit without matching enter");
        self.depth -= 1;
        if self.depth == 0 {
            self.cell.set_idle();
        }
    }

    /// Publishes one applied delta. Must be called between
    /// [`enter`](Self::enter)`(shard)` and [`exit`](Self::exit), after
    /// the balance change it describes. Deltas wider than an `i16` are
    /// split across records (token burns are bounded by small strategy
    /// balances, so this never fires in practice — but the compact wire
    /// format must not be able to lie).
    #[inline]
    pub fn record(&mut self, shard: usize, client: u32, delta: i32) {
        let mut rem = delta;
        loop {
            let chunk = rem.clamp(i32::from(i16::MIN), i32::from(i16::MAX));
            self.record_chunk(shard, client, chunk);
            rem -= chunk;
            if rem == 0 {
                return;
            }
        }
    }

    #[inline]
    fn record_chunk(&mut self, shard: usize, client: u32, delta: i32) {
        let st = &self.shared.shards[shard];
        let seq = st.seq.fetch_add(1, Ordering::Relaxed);
        if delta >= 0 {
            st.granted.fetch_add(delta as u64, Ordering::Relaxed);
        } else {
            st.burned
                .fetch_add(delta.unsigned_abs() as u64, Ordering::Relaxed);
        }
        let buf = &mut self.bufs[shard];
        // Flush early if this record cannot share the buffered frame's
        // base sequence (the wire offset is a u16; other producers on
        // the shard may have consumed the window in between).
        if buf
            .first()
            .is_some_and(|f| seq - f.seq > u64::from(u16::MAX))
        {
            let recs = std::mem::replace(buf, Vec::with_capacity(self.cap));
            let _ = self.tx.send(WriterMsg::Batch {
                shard: shard as u32,
                recs,
                sent_ns: ta_telemetry::mono_ns(),
            });
            self.note_batch();
        }
        let buf = &mut self.bufs[shard];
        buf.push(DeltaRec { seq, client, delta });
        self.records += 1;
        if buf.len() >= self.cap {
            let recs = std::mem::replace(buf, Vec::with_capacity(self.cap));
            let _ = self.tx.send(WriterMsg::Batch {
                shard: shard as u32,
                recs,
                sent_ns: ta_telemetry::mono_ns(),
            });
            self.note_batch();
        }
    }

    /// Publishes one applied run-length grant: `+1` to every client in
    /// `[lo, lo + len)`. Same fencing contract as
    /// [`record`](Self::record); one sequence number per range.
    #[inline]
    pub fn record_range(&mut self, shard: usize, lo: u32, len: u32) {
        if len == 0 {
            return;
        }
        let st = &self.shared.shards[shard];
        let seq = st.seq.fetch_add(1, Ordering::Relaxed);
        st.granted.fetch_add(u64::from(len), Ordering::Relaxed);
        let buf = &mut self.range_bufs[shard];
        buf.push(RangeRec { seq, lo, len });
        self.records += 1;
        if buf.len() >= self.cap {
            let recs = std::mem::replace(buf, Vec::with_capacity(self.cap));
            let _ = self.tx.send(WriterMsg::BatchRange {
                shard: shard as u32,
                recs,
                sent_ns: ta_telemetry::mono_ns(),
            });
            self.note_batch();
        }
    }

    /// Hands every non-empty buffer to the writer.
    pub fn flush(&mut self) {
        let mut sent = 0u64;
        for (shard, buf) in self.bufs.iter_mut().enumerate() {
            if !buf.is_empty() {
                let recs = std::mem::replace(buf, Vec::with_capacity(self.cap));
                let _ = self.tx.send(WriterMsg::Batch {
                    shard: shard as u32,
                    recs,
                    sent_ns: ta_telemetry::mono_ns(),
                });
                sent += 1;
            }
        }
        for (shard, buf) in self.range_bufs.iter_mut().enumerate() {
            if !buf.is_empty() {
                let recs = std::mem::take(buf);
                let _ = self.tx.send(WriterMsg::BatchRange {
                    shard: shard as u32,
                    recs,
                    sent_ns: ta_telemetry::mono_ns(),
                });
                sent += 1;
            }
        }
        if sent > 0 {
            if let Some(h) = self.shared.telem.get() {
                h.add(c::JOURNAL_BATCHES, sent);
                h.gauge_add(g::JOURNAL_QUEUE_DEPTH, sent as i64);
            }
        }
    }

    /// Records published through this handle.
    pub fn records_published(&self) -> u64 {
        self.records
    }
}

impl Drop for JournalHandle {
    fn drop(&mut self) {
        self.flush();
        let mut cells = self.shared.epochs.lock().expect("epoch registry");
        cells.retain(|c| !Arc::ptr_eq(c, &self.cell));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recs(n: u64) -> Vec<DeltaRec> {
        (0..n)
            .map(|i| DeltaRec {
                seq: i,
                client: (i % 7) as u32,
                delta: if i % 3 == 0 {
                    -(i as i32 % 5)
                } else {
                    i as i32 % 11
                },
            })
            .collect()
    }

    #[test]
    fn frames_roundtrip() {
        let mut bytes = Vec::new();
        encode_frame(3, &recs(10), &mut bytes);
        encode_frame(0, &recs(1), &mut bytes);
        encode_frame(7, &[], &mut bytes);
        let ranges = vec![
            RangeRec {
                seq: 41,
                lo: 128,
                len: 1000,
            },
            RangeRec {
                seq: 42,
                lo: 1200,
                len: 1,
            },
        ];
        encode_range_frame(5, &ranges, &mut bytes);
        let scan = scan_segment(&bytes);
        assert_eq!(scan.error, None);
        assert_eq!(scan.valid_len, bytes.len());
        assert_eq!(scan.frames.len(), 4);
        assert_eq!(scan.frames[0].shard, 3);
        assert_eq!(scan.frames[0].payload, FramePayload::Deltas(recs(10)));
        assert_eq!(scan.frames[1].payload, FramePayload::Deltas(recs(1)));
        assert_eq!(scan.frames[2].payload, FramePayload::Deltas(Vec::new()));
        assert_eq!(scan.frames[3].shard, 5);
        assert_eq!(scan.frames[3].payload, FramePayload::Ranges(ranges));
    }

    #[test]
    fn encode_splits_frames_instead_of_panicking() {
        // A sequence window wider than u16 forces a frame split.
        let wide = vec![
            DeltaRec {
                seq: 100,
                client: 1,
                delta: 5,
            },
            DeltaRec {
                seq: 100 + u64::from(u16::MAX),
                client: 2,
                delta: -3,
            },
            DeltaRec {
                seq: 100 + u64::from(u16::MAX) + 1,
                client: 3,
                delta: 7,
            },
        ];
        let mut bytes = Vec::new();
        assert_eq!(encode_frame(4, &wide, &mut bytes), 2);
        let scan = scan_segment(&bytes);
        assert_eq!(scan.error, None);
        assert_eq!(scan.frames.len(), 2);
        let all: Vec<DeltaRec> = scan
            .frames
            .iter()
            .flat_map(|f| match &f.payload {
                FramePayload::Deltas(r) => r.clone(),
                FramePayload::Ranges(_) => unreachable!(),
            })
            .collect();
        assert_eq!(all, wide);

        // A delta wider than i16 splits across wire records under the
        // same sequence; the fold recovers the exact total.
        let fat = vec![DeltaRec {
            seq: 9,
            client: 5,
            delta: 100_000,
        }];
        let mut bytes = Vec::new();
        assert_eq!(encode_frame(0, &fat, &mut bytes), 1);
        let scan = scan_segment(&bytes);
        assert_eq!(scan.error, None);
        match &scan.frames[0].payload {
            FramePayload::Deltas(r) => {
                assert!(r.len() > 1);
                assert!(r.iter().all(|x| x.seq == 9 && x.client == 5));
                assert_eq!(r.iter().map(|x| i64::from(x.delta)).sum::<i64>(), 100_000);
            }
            FramePayload::Ranges(_) => unreachable!(),
        }
        let neg = vec![DeltaRec {
            seq: 0,
            client: 1,
            delta: -40_000,
        }];
        let mut bytes = Vec::new();
        encode_frame(0, &neg, &mut bytes);
        match &scan_segment(&bytes).frames[0].payload {
            FramePayload::Deltas(r) => {
                assert_eq!(r.iter().map(|x| i64::from(x.delta)).sum::<i64>(), -40_000);
            }
            FramePayload::Ranges(_) => unreachable!(),
        }
    }

    #[test]
    fn io_shim_faults_are_deterministic_in_attempts() {
        let plan = FaultPlan::parse("io_error_n:2,enospc_after:100").unwrap();
        let mut shim = IoShim::new(&plan);
        // First two writes fail with a retryable kind.
        assert_eq!(
            shim.check(10).unwrap_err().kind(),
            io::ErrorKind::Interrupted
        );
        assert_eq!(
            shim.check(10).unwrap_err().kind(),
            io::ErrorKind::Interrupted
        );
        // Then writes pass until the byte budget is exceeded…
        assert!(shim.check(60).is_ok());
        assert!(shim.check(40).is_ok());
        // …the first write past the budget trips the outage, after which
        // every attempt (even zero-length probes) fails until exactly
        // ENOSPC_OUTAGE_ATTEMPTS attempts have burned; then space returns.
        assert!(shim.check(10).is_err());
        for _ in 1..ENOSPC_OUTAGE_ATTEMPTS {
            assert!(shim.check(0).is_err());
        }
        assert!(shim.check(1_000_000).is_ok());
        assert_eq!(shim.injected, 2 + u64::from(ENOSPC_OUTAGE_ATTEMPTS));
    }

    #[test]
    fn backoff_is_bounded_and_grows() {
        let mut seed = 12345u64;
        let d1 = backoff_delay(1, &mut seed);
        assert!(d1 >= Duration::from_millis(1) && d1 < Duration::from_millis(2));
        for attempt in 1..=40 {
            let d = backoff_delay(attempt, &mut seed);
            assert!(d <= Duration::from_millis(125), "attempt {attempt}: {d:?}");
        }
    }

    #[test]
    fn torn_tail_keeps_prefix() {
        let mut bytes = Vec::new();
        encode_frame(1, &recs(4), &mut bytes);
        let prefix_len = bytes.len();
        encode_frame(2, &recs(6), &mut bytes);
        for cut in prefix_len + 1..bytes.len() {
            let scan = scan_segment(&bytes[..cut]);
            assert_eq!(scan.frames.len(), 1, "cut at {cut}");
            assert_eq!(scan.valid_len, prefix_len);
            assert_eq!(scan.error, Some(FrameError::Torn));
        }
    }

    #[test]
    fn corrupt_byte_stops_scan() {
        let mut bytes = Vec::new();
        encode_frame(1, &recs(4), &mut bytes);
        let prefix_len = bytes.len();
        encode_frame(2, &recs(6), &mut bytes);
        // Corrupt a payload byte of the second frame.
        bytes[prefix_len + 20] ^= 0xFF;
        let scan = scan_segment(&bytes);
        assert_eq!(scan.frames.len(), 1);
        assert_eq!(scan.error, Some(FrameError::BadCrc));
        // Corrupt the second frame's magic instead.
        let mut bytes2 = Vec::new();
        encode_frame(1, &recs(4), &mut bytes2);
        encode_frame(2, &recs(6), &mut bytes2);
        bytes2[prefix_len] ^= 0xFF;
        assert_eq!(scan_segment(&bytes2).error, Some(FrameError::BadMagic));
    }

    #[test]
    fn walker_break_leaves_the_frame_unwalked() {
        let mut bytes = Vec::new();
        encode_frame(1, &recs(4), &mut bytes);
        let second = bytes.len();
        encode_frame(2, &recs(6), &mut bytes);
        let mut shards = Vec::new();
        let walked = walk_frames(&bytes, |shard, _| {
            shards.push(shard);
            if shard == 2 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(walked, (second, None));
        assert_eq!(shards, vec![1, 2]);
    }

    #[test]
    fn segment_listing_sorts_by_id() {
        let dir = std::env::temp_dir().join(format!("ta-journal-list-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for id in [2u64, 0, 1, 0x1f] {
            std::fs::write(segment_path(&dir, id), b"").unwrap();
        }
        std::fs::write(dir.join("unrelated.txt"), b"x").unwrap();
        let ids: Vec<u64> = list_segments(&dir)
            .unwrap()
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 0x1f]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
