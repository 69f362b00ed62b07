//! Durability for the live runtime: journal, snapshots, recovery, faults.
//!
//! A process holding millions of in-RAM [`AtomicTokenAccount`] balances
//! must be able to die and restart without violating the
//! token-conservation invariant CI gates on. This module tree is that
//! durability story:
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`journal`] | append-only CRC-framed grant/spend journal: per-producer bounded buffers, a dedicated group-commit writer thread |
//! | [`snapshot`] | copy-on-write snapshots of the account shards under per-shard epoch fences, atomic-rename files, segment retirement |
//! | [`recovery`] | restart path: latest valid snapshot + per-shard journal-tail replay + exact conservation verification |
//! | [`faults`] | fault-injection plan (`TA_FAULT`): torn tails, CRC corruption, dropped fsyncs, writer/snapshot crashes, poisoned books |
//!
//! **Shape of the guarantee.** Every balance-changing decision publishes
//! one signed delta record `(client, delta, seq)` tagged with a
//! per-shard monotonic sequence number. The admit hot path never takes a
//! lock or a syscall: records go into producer-local bounded buffers
//! that are handed to the writer thread over a channel, and the
//! sequence stamp is one `fetch_add`. A snapshot walks shards one at a
//! time: it fences exactly one shard (admits and sweeps on all other
//! shards keep running; producers touching the fenced shard spin for
//! the microseconds the balance copy takes), waits for in-flight
//! operations to drain via per-producer epoch cells, and reads the
//! shard's balances plus its sequence watermark `W` — the copy then
//! contains *exactly* the deltas with `seq < W`. Recovery loads the
//! newest CRC-valid snapshot (falling back past torn or corrupt files),
//! replays every surviving journal record with `seq >= W` for its
//! shard, and refuses to serve unless `granted − burned == Σ balances`
//! holds per shard and globally.
//!
//! After a kill, records still sitting in producer-local buffers or in
//! the writer's un-synced batch are lost; the recovered state is the
//! exact fold of the records that survived on disk — a legal state of
//! the system, never a silently-wrong one.
//!
//! [`AtomicTokenAccount`]: token_account::atomic::AtomicTokenAccount

pub mod faults;
pub mod journal;
pub mod recovery;
pub mod snapshot;

pub use faults::FaultPlan;
pub use journal::{DeltaRec, JournalHandle, JournalStats};
pub use recovery::{recover, RecoveredState, RecoveryError, Truncation, TruncationReason};
pub use snapshot::SnapshotInfo;

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use journal::WriterMsg;
use ta_telemetry::Handle as TelemetryHandle;

/// Configuration of one durability domain (one journal directory).
#[derive(Debug, Clone, PartialEq)]
pub struct PersistConfig {
    /// Directory holding the manifest, journal segments, and snapshots.
    pub dir: PathBuf,
    /// Group-commit interval: the writer batches frames and issues one
    /// write + fsync per interval (and on shutdown/rotation).
    pub group_commit: Duration,
    /// Whether the writer fsyncs at commit points. Disabling trades
    /// durability of the tail for speed; recovery semantics are
    /// unchanged (the surviving prefix is still recovered exactly).
    pub fsync: bool,
    /// Producer-local records buffered per shard before the buffer is
    /// handed to the writer (bounds hot-path memory and loss window).
    pub buffer_cap: usize,
    /// Injected faults (none in production).
    pub faults: FaultPlan,
}

impl PersistConfig {
    /// Defaults: 20 ms group commit, fsync on, 4096-record buffers.
    pub fn new<P: Into<PathBuf>>(dir: P) -> Self {
        PersistConfig {
            dir: dir.into(),
            group_commit: Duration::from_millis(20),
            fsync: true,
            buffer_cap: 4096,
            faults: FaultPlan::default(),
        }
    }
}

/// Slicing-by-8 tables for [`crc32`]: `CRC_TABLES[0]` is the classic
/// bytewise table; `CRC_TABLES[k][b]` is the CRC state after byte `b`
/// followed by `k` zero bytes, so eight table lookups fold eight input
/// bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — frames,
/// snapshots, and the manifest all carry one. Slicing-by-8: eight bytes
/// per step through [`CRC_TABLES`], the tail bytewise.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Per-shard persistence state, one cache line each: the monotonic
/// record sequence, the cumulative grant/burn books, and the snapshot
/// fence flag.
#[repr(align(64))]
#[derive(Debug)]
pub(crate) struct ShardState {
    /// Next record sequence number (stamped via `fetch_add`).
    pub(crate) seq: AtomicU64,
    /// Cumulative tokens granted to this shard's accounts (sum of
    /// positive deltas), maintained by producers inside the fence.
    pub(crate) granted: AtomicU64,
    /// Cumulative tokens burned (sum of |negative deltas|).
    pub(crate) burned: AtomicU64,
    /// Raised by the snapshotter while this shard's balances are copied.
    pub(crate) fenced: AtomicBool,
}

impl ShardState {
    fn new(seq: u64, granted: u64, burned: u64) -> Self {
        ShardState {
            seq: AtomicU64::new(seq),
            granted: AtomicU64::new(granted),
            burned: AtomicU64::new(burned),
            fenced: AtomicBool::new(false),
        }
    }
}

/// One producer's epoch cell: odd while the producer is inside a
/// fenced operation (decision + record publication), even otherwise.
/// The snapshotter waits for every cell to read even after raising a
/// shard fence; the cell lives on its own cache line and is written
/// only by its owner, so the hot path pays an uncontended RMW.
#[repr(align(64))]
#[derive(Debug, Default)]
pub(crate) struct EpochCell {
    epoch: AtomicU64,
}

impl EpochCell {
    /// Enters an operation (full fence: the subsequent shard-fence load
    /// cannot be reordered before the epoch becomes visible).
    #[inline]
    pub(crate) fn set_busy(&self) {
        self.epoch.swap(1, Ordering::SeqCst);
    }

    /// Leaves the operation, publishing all its effects.
    #[inline]
    pub(crate) fn set_idle(&self) {
        self.epoch.store(0, Ordering::Release);
    }

    fn is_idle(&self) -> bool {
        self.epoch.load(Ordering::Acquire) == 0
    }
}

/// State shared between producers (journal handles), the snapshotter,
/// and the runtime: per-shard fences plus the producer registry.
#[derive(Debug)]
pub struct PersistShared {
    pub(crate) shards: Box<[ShardState]>,
    pub(crate) epochs: Mutex<Vec<Arc<EpochCell>>>,
    pub(crate) buffer_cap: usize,
    /// Number of shard fences currently raised. Bulk producers (which
    /// hold their epoch across a run of operations touching arbitrary
    /// shards) check this single counter instead of every per-shard
    /// fence when re-entering.
    pub(crate) snap_pending: AtomicUsize,
    /// Telemetry handle for the persistence lane, set at most once per
    /// domain (see [`Persistence::attach_telemetry`]). Producers, the
    /// writer, and the snapshotter all publish through it; its cells
    /// tolerate the multi-writer `fetch_add`s because every touch is on
    /// a cold path (per batch / commit / freeze, never per record).
    pub(crate) telem: OnceLock<TelemetryHandle>,
    /// Health board for the supervised runtime, set at most once per
    /// domain (see [`Persistence::attach_health`]). With a board
    /// attached, the journal writer heartbeats, retries transient IO
    /// errors, and enacts the journal failure policy instead of dying;
    /// without one it propagates the first error exactly as before.
    pub(crate) health: OnceLock<Arc<crate::health::HealthBoard>>,
}

impl PersistShared {
    /// Number of shards in this domain.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Waits until every registered producer has left its current
    /// operation. Callers must have raised the relevant fence first so
    /// no new operation can enter the frozen shard.
    fn quiesce(&self) {
        let cells: Vec<Arc<EpochCell>> = self.epochs.lock().expect("epoch registry").clone();
        for cell in cells {
            while !cell.is_idle() {
                std::hint::spin_loop();
            }
        }
    }
}

const MANIFEST_MAGIC: u32 = 0x5441_4D46; // "TAMF"
const MANIFEST_VERSION: u32 = 1;

/// The manifest file name inside a journal directory.
pub const MANIFEST_FILE: &str = "manifest.tam";

/// Fixed geometry of a durability domain, written once at
/// [`Persistence::open`] and required by recovery (the journal frames
/// carry shard ids, not totals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    /// Number of client accounts.
    pub clients: usize,
    /// Number of account shards.
    pub shards: usize,
}

/// Writes `bytes` to `path` atomically: tmp file, fsync, rename, then
/// directory fsync — the `atomic_write_json` idiom of SNIPPETS.md
/// Snippet 1, binary flavour.
pub(crate) fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_dir(path.parent().unwrap_or(Path::new(".")))
}

pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Fsyncs a directory so renames/creates within it are durable
/// (no-op off Unix).
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

/// Writes the domain manifest.
pub(crate) fn write_manifest(dir: &Path, m: &Manifest) -> io::Result<()> {
    let mut bytes = Vec::with_capacity(20);
    bytes.extend_from_slice(&MANIFEST_MAGIC.to_le_bytes());
    bytes.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
    bytes.extend_from_slice(&(m.clients as u64).to_le_bytes());
    bytes.extend_from_slice(&(m.shards as u32).to_le_bytes());
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    atomic_write(&dir.join(MANIFEST_FILE), &bytes)
}

/// Reads and validates the domain manifest.
pub fn read_manifest(dir: &Path) -> io::Result<Manifest> {
    let mut bytes = Vec::new();
    File::open(dir.join(MANIFEST_FILE))?.read_to_end(&mut bytes)?;
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("manifest: {what}"));
    if bytes.len() != 24 {
        return Err(bad("wrong length"));
    }
    let crc = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
    if crc != crc32(&bytes[..20]) {
        return Err(bad("bad crc"));
    }
    if u32::from_le_bytes(bytes[0..4].try_into().unwrap()) != MANIFEST_MAGIC {
        return Err(bad("bad magic"));
    }
    if u32::from_le_bytes(bytes[4..8].try_into().unwrap()) != MANIFEST_VERSION {
        return Err(bad("unsupported version"));
    }
    Ok(Manifest {
        clients: u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize,
        shards: u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize,
    })
}

/// Metadata of one snapshot retained on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SnapMeta {
    pub(crate) id: u64,
    /// Journal segment that was active when this snapshot started; every
    /// record the snapshot does *not* cover lives in this segment or a
    /// later one.
    pub(crate) first_segment: u64,
}

/// One open durability domain: the writer thread, the shared fences,
/// and the snapshot machinery. Build with [`Persistence::open`] (fresh
/// directory) or [`Persistence::resume`] (after [`recover`]); producers
/// get a [`JournalHandle`] each via [`Persistence::handle`].
#[derive(Debug)]
pub struct Persistence {
    shared: Arc<PersistShared>,
    tx: Sender<WriterMsg>,
    writer: Option<JoinHandle<io::Result<JournalStats>>>,
    cfg: PersistConfig,
    manifest: Manifest,
    active_segment: Arc<AtomicU64>,
    next_snapshot_id: AtomicU64,
    snapshots: Mutex<Vec<SnapMeta>>,
    /// Set once a `crash_mid_snapshot` fault fired; later snapshots are
    /// refused so the partial tmp file stays the newest snapshot state.
    snapshot_poisoned: AtomicBool,
}

impl Persistence {
    /// Opens a *fresh* durability domain: creates the directory, writes
    /// the manifest, and starts the writer on segment 0.
    ///
    /// # Errors
    ///
    /// Fails if the directory already contains a manifest (an existing
    /// domain must go through [`recover`] + [`Persistence::resume`], so
    /// sequence watermarks cannot collide), or on any I/O error.
    pub fn open(cfg: &PersistConfig, clients: usize, shards: usize) -> io::Result<Self> {
        std::fs::create_dir_all(&cfg.dir)?;
        if cfg.dir.join(MANIFEST_FILE).exists() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "journal directory already holds a domain: recover + resume instead",
            ));
        }
        let manifest = Manifest { clients, shards };
        write_manifest(&cfg.dir, &manifest)?;
        let states = (0..shards.max(1))
            .map(|_| ShardState::new(0, 0, 0))
            .collect();
        Self::build(cfg, manifest, states, 0, 0, Vec::new())
    }

    /// Re-opens a domain from a recovered state: fences resume at the
    /// recovered per-shard sequence/books, the writer starts a fresh
    /// segment after the highest existing one, and snapshot ids continue
    /// past the newest file on disk.
    ///
    /// # Errors
    ///
    /// Fails if the manifest is missing or disagrees with the recovered
    /// geometry, or on any I/O error.
    pub fn resume(cfg: &PersistConfig, state: &RecoveredState) -> io::Result<Self> {
        let manifest = read_manifest(&cfg.dir)?;
        if manifest.clients != state.clients || manifest.shards != state.shards {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "recovered state does not match the on-disk manifest",
            ));
        }
        let states = (0..state.shards.max(1))
            .map(|s| ShardState::new(state.next_seq[s], state.granted[s], state.burned[s]))
            .collect();
        let next_segment = journal::list_segments(&cfg.dir)?
            .last()
            .map(|&(id, _)| id + 1)
            .unwrap_or(0);
        let snaps = snapshot::list_metas(&cfg.dir);
        let next_snapshot = snaps.last().map(|m| m.id + 1).unwrap_or(0);
        Self::build(cfg, manifest, states, next_segment, next_snapshot, snaps)
    }

    fn build(
        cfg: &PersistConfig,
        manifest: Manifest,
        states: Box<[ShardState]>,
        first_segment: u64,
        next_snapshot: u64,
        snaps: Vec<SnapMeta>,
    ) -> io::Result<Self> {
        let shared = Arc::new(PersistShared {
            shards: states,
            epochs: Mutex::new(Vec::new()),
            buffer_cap: cfg.buffer_cap.max(1),
            snap_pending: AtomicUsize::new(0),
            telem: OnceLock::new(),
            health: OnceLock::new(),
        });
        let (tx, rx) = channel();
        let active_segment = Arc::new(AtomicU64::new(first_segment));
        let writer = journal::spawn_writer(
            cfg.clone(),
            rx,
            first_segment,
            Arc::clone(&active_segment),
            Arc::clone(&shared),
        )?;
        Ok(Persistence {
            shared,
            tx,
            writer: Some(writer),
            cfg: cfg.clone(),
            manifest,
            active_segment,
            next_snapshot_id: AtomicU64::new(next_snapshot),
            snapshots: Mutex::new(snaps),
            snapshot_poisoned: AtomicBool::new(false),
        })
    }

    /// The domain geometry.
    pub fn manifest(&self) -> Manifest {
        self.manifest
    }

    /// The shared fence state (attachable to runtimes and handles).
    pub fn shared(&self) -> &Arc<PersistShared> {
        &self.shared
    }

    /// Creates a journal handle for one producer thread (a loadgen
    /// worker, the granter, or a test driver).
    pub fn handle(&self) -> JournalHandle {
        JournalHandle::new(Arc::clone(&self.shared), self.tx.clone())
    }

    /// Attaches a telemetry lane handle to this domain: the journal
    /// writer starts reporting frame/flush/fsync counters, producers
    /// report batch hand-offs and queue depth, and snapshots report
    /// freeze durations — all against [`crate::telem`]'s catalog.
    /// Subsequent calls are ignored (the first handle wins).
    pub fn attach_telemetry(&self, handle: TelemetryHandle) {
        let _ = self.shared.telem.set(handle);
    }

    /// Attaches a health board to this domain, arming the journal
    /// writer's self-healing path: heartbeats, retry/backoff on
    /// transient IO errors, and the configured `--on-journal-fail`
    /// policy on persistent failure (instead of thread death).
    /// Subsequent calls are ignored (the first board wins).
    pub fn attach_health(&self, board: Arc<crate::health::HealthBoard>) {
        let _ = self.shared.health.set(board);
    }

    /// Takes one copy-on-write snapshot of `accounts` (which must be the
    /// account map the journal records describe): shards are frozen one
    /// at a time, the file is written via atomic rename, old snapshots
    /// beyond the newest two are deleted, and journal segments covered
    /// by *both* retained snapshots are retired.
    ///
    /// # Errors
    ///
    /// Any I/O error; also an injected `crash_mid_snapshot` fault, which
    /// leaves a partial tmp file behind (recovery must fall back).
    ///
    /// # Panics
    ///
    /// Panics if `accounts` disagrees with the domain geometry.
    pub fn snapshot(
        &self,
        accounts: &crate::accounts::ShardedAccounts,
    ) -> io::Result<SnapshotInfo> {
        snapshot::take(self, accounts)
    }

    /// Asks the writer to flush and fsync everything received so far,
    /// blocking until done (tests and orderly checkpoints).
    ///
    /// # Errors
    ///
    /// Fails if the writer is gone (crashed or killed by a fault).
    pub fn sync(&self) -> io::Result<()> {
        let (ack, done) = channel();
        self.tx
            .send(WriterMsg::Sync(ack))
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "journal writer is gone"))?;
        done.recv()
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "journal writer died"))?
    }

    /// Shuts the domain down cleanly: final write + fsync, then joins
    /// the writer and returns its lifetime stats.
    ///
    /// # Errors
    ///
    /// Propagates writer I/O errors (a writer killed by an injected
    /// fault reports its stats anyway).
    pub fn shutdown(mut self) -> io::Result<JournalStats> {
        let _ = self.tx.send(WriterMsg::Shutdown);
        match self.writer.take() {
            Some(w) => w.join().expect("journal writer panicked"),
            None => Ok(JournalStats::default()),
        }
    }

    /// Simulates a crash: the writer discards everything not yet written
    /// to the OS and exits immediately — no final write, no fsync. What
    /// recovery finds afterwards is exactly what a kill would have left.
    pub fn simulate_crash(mut self) {
        let _ = self.tx.send(WriterMsg::Crash);
        if let Some(w) = self.writer.take() {
            let _ = w.join();
        }
    }

    pub(crate) fn cfg(&self) -> &PersistConfig {
        &self.cfg
    }

    pub(crate) fn active_segment(&self) -> &Arc<AtomicU64> {
        &self.active_segment
    }

    pub(crate) fn next_snapshot_id(&self) -> &AtomicU64 {
        &self.next_snapshot_id
    }

    pub(crate) fn snapshots(&self) -> &Mutex<Vec<SnapMeta>> {
        &self.snapshots
    }

    pub(crate) fn snapshot_poisoned(&self) -> &AtomicBool {
        &self.snapshot_poisoned
    }

    pub(crate) fn writer_tx(&self) -> &Sender<WriterMsg> {
        &self.tx
    }

    /// Freezes shard `s`: raises the fence, waits for every in-flight
    /// producer operation to drain, and returns the consistent
    /// `(watermark, granted, burned)` triple. The caller must copy the
    /// balances *before* calling [`Self::unfreeze_shard`].
    pub(crate) fn freeze_shard(&self, s: usize) -> (u64, u64, u64) {
        let st = &self.shared.shards[s];
        self.shared.snap_pending.fetch_add(1, Ordering::SeqCst);
        st.fenced.store(true, Ordering::SeqCst);
        self.shared.quiesce();
        (
            st.seq.load(Ordering::Relaxed),
            st.granted.load(Ordering::Relaxed),
            st.burned.load(Ordering::Relaxed),
        )
    }

    /// Lifts the fence of shard `s`.
    pub(crate) fn unfreeze_shard(&self, s: usize) {
        self.shared.shards[s].fenced.store(false, Ordering::SeqCst);
        self.shared.snap_pending.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Drop for Persistence {
    fn drop(&mut self) {
        // Best-effort clean shutdown if the caller forgot.
        let _ = self.tx.send(WriterMsg::Shutdown);
        if let Some(w) = self.writer.take() {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// Bytewise reference CRC, straight from the polynomial.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]
        #[test]
        fn crc32_slicing_matches_bytewise(
            buf in proptest::collection::vec(any::<u8>(), 72),
            start in 0usize..8,
            len in 0usize..=64,
        ) {
            let bytes = &buf[start..start + len];
            prop_assert_eq!(crc32(bytes), crc32_bytewise(bytes));
        }
    }

    #[test]
    fn manifest_roundtrips_and_detects_corruption() {
        let dir = std::env::temp_dir().join(format!("ta-persist-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let m = Manifest {
            clients: 12_345,
            shards: 16,
        };
        write_manifest(&dir, &m).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), m);
        // Flip one byte: the CRC must catch it.
        let path = dir.join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[9] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_manifest(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_refuses_an_existing_domain() {
        let dir = std::env::temp_dir().join(format!("ta-persist-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = PersistConfig::new(&dir);
        let p = Persistence::open(&cfg, 100, 4).unwrap();
        p.shutdown().unwrap();
        assert_eq!(
            Persistence::open(&cfg, 100, 4).unwrap_err().kind(),
            io::ErrorKind::AlreadyExists
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
