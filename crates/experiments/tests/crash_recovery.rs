//! Kill-mid-burst crash recovery: SIGKILL the `live` binary while it is
//! journaling under full load, then prove the recovered state equals an
//! **independent reference fold** of what survived on disk.
//!
//! The reference fold is deliberately test-local: it re-derives the
//! balances and per-shard books from the newest CRC-valid snapshot plus
//! every decodable journal frame using only the parsing primitives
//! (`snapshot::load`, `scan_segment`) — none of `recovery.rs`'s replay
//! logic — so a bug in recovery cannot hide by agreeing with itself.
//!
//! Matrix: workers {1, 4} × shards {1, 4, 16}, per the durability
//! acceptance criteria.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use ta_live::persist::journal::{
    encode_frame, encode_range_frame, list_segments, scan_segment, segment_path, DeltaRec,
    FramePayload, RangeRec,
};
use ta_live::persist::snapshot::{list_snapshot_files, load as load_snapshot, SnapshotData};
use ta_live::persist::{read_manifest, recover, PersistConfig, Persistence};

/// An independently folded image of the on-disk state.
struct Reference {
    balances: Vec<i64>,
    granted: Vec<u64>,
    burned: Vec<u64>,
}

/// Mirrors the contiguous-block shard layout from geometry alone.
fn shard_of(client: usize, clients: usize, shards: usize) -> usize {
    let block = clients.div_ceil(shards).max(1);
    (client / block).min(shards - 1)
}

/// Folds snapshot + surviving journal prefix into a [`Reference`],
/// without touching `recovery.rs`'s replay path.
fn reference_fold(dir: &Path) -> Reference {
    let m = read_manifest(dir).expect("manifest must survive the kill");

    // Newest CRC-valid snapshot, if any.
    let snap: Option<SnapshotData> = list_snapshot_files(dir)
        .unwrap()
        .into_iter()
        .rev()
        .find_map(|(_, p)| load_snapshot(&p).ok());

    let mut balances = vec![0i64; m.clients];
    let mut granted = vec![0u64; m.shards];
    let mut burned = vec![0u64; m.shards];
    let mut watermark = vec![0u64; m.shards];
    if let Some(s) = &snap {
        let mut client = 0usize;
        for (i, sh) in s.shards.iter().enumerate() {
            granted[i] = sh.granted;
            burned[i] = sh.burned;
            watermark[i] = sh.watermark;
            for &b in &sh.balances {
                balances[client] = b;
                client += 1;
            }
        }
        assert_eq!(client, m.clients, "snapshot covers every client");
    }

    // Replay every decodable frame up to the first damage; deltas
    // commute, so per-shard sums are order-independent.
    for (_, path) in list_segments(dir).unwrap() {
        let scan = scan_segment(&std::fs::read(&path).unwrap());
        for frame in &scan.frames {
            let s = frame.shard as usize;
            match &frame.payload {
                FramePayload::Deltas(recs) => {
                    for r in recs {
                        if r.seq < watermark[s] {
                            continue; // already inside the snapshot
                        }
                        assert_eq!(
                            shard_of(r.client as usize, m.clients, m.shards),
                            s,
                            "journal record landed in the wrong shard"
                        );
                        balances[r.client as usize] += i64::from(r.delta);
                        if r.delta >= 0 {
                            granted[s] += r.delta as u64;
                        } else {
                            burned[s] += (-i64::from(r.delta)) as u64;
                        }
                    }
                }
                FramePayload::Ranges(recs) => {
                    for r in recs {
                        if r.seq < watermark[s] {
                            continue;
                        }
                        let (lo, hi) = (r.lo as usize, r.lo as usize + r.len as usize);
                        assert!(
                            shard_of(lo, m.clients, m.shards) == s
                                && shard_of(hi - 1, m.clients, m.shards) == s,
                            "range grant crosses a shard boundary"
                        );
                        for b in &mut balances[lo..hi] {
                            *b += 1;
                        }
                        granted[s] += u64::from(r.len);
                    }
                }
            }
        }
        if scan.error.is_some() {
            break; // everything after the damage is unreachable
        }
    }
    Reference {
        balances,
        granted,
        burned,
    }
}

/// Launches the binary under load, waits for the journal (and at least
/// one snapshot, when requested) to materialize, and SIGKILLs it.
fn kill_mid_burst(dir: &Path, workers: usize, shards: usize, snapshots: bool) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_live"));
    cmd.args([
        "--clients",
        "3000",
        "--workers",
        &workers.to_string(),
        "--shards",
        &shards.to_string(),
        "--round-ms",
        "20",
        "--duration-secs",
        "30",
        "--commit-ms",
        "1",
        "--journal-dir",
    ])
    .arg(dir)
    .stdout(Stdio::null())
    .stderr(Stdio::null());
    if snapshots {
        cmd.args(["--snapshot-every", "0.08"]);
    }
    let mut child = cmd.spawn().expect("spawn live binary");

    // Poll the directory until there is real work to destroy: tens of
    // kilobytes of journal, plus a completed snapshot when asked for.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let journal_bytes: u64 = list_segments(dir)
            .map(|v| {
                v.iter()
                    .filter_map(|(_, p)| p.metadata().ok())
                    .map(|md| md.len())
                    .sum()
            })
            .unwrap_or(0);
        let snapped = !snapshots
            || list_snapshot_files(dir)
                .map(|v| !v.is_empty())
                .unwrap_or(false);
        if journal_bytes > 30_000 && snapped {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "journal never grew: bytes={journal_bytes}, snapshot={snapped}"
        );
        if let Ok(Some(status)) = child.try_wait() {
            panic!("live binary exited early: {status}");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");
}

fn check_crash_recovery(workers: usize, shards: usize, snapshots: bool) {
    let dir = std::env::temp_dir().join(format!(
        "ta-crash-{}-w{workers}-s{shards}-{snapshots}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    kill_mid_burst(&dir, workers, shards, snapshots);

    let state = recover(&dir).expect("recovery after SIGKILL must succeed");
    assert_eq!(state.clients, 3000);
    assert_eq!(state.shards, shards);

    let reference = reference_fold(&dir);
    assert_eq!(
        state.balances, reference.balances,
        "recovered balances != independent fold of the surviving prefix"
    );
    assert_eq!(state.granted, reference.granted, "granted books diverge");
    assert_eq!(state.burned, reference.burned, "burned books diverge");

    // Exact conservation, shard by shard, straight from the fold.
    for s in 0..shards {
        let lo = s * 3000usize.div_ceil(shards).max(1);
        let hi = ((s + 1) * 3000usize.div_ceil(shards).max(1)).min(3000);
        let sum: i64 = reference.balances[lo.min(3000)..hi].iter().sum();
        assert_eq!(
            reference.granted[s] as i64 - reference.burned[s] as i64,
            sum,
            "shard {s} books do not conserve"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Pulls one `key=value` integer out of an `event=` line.
fn event_field(stdout: &str, event: &str, key: &str) -> u64 {
    let line = stdout
        .lines()
        .find(|l| l.starts_with(&format!("event={event}")))
        .unwrap_or_else(|| panic!("no event={event} line in:\n{stdout}"));
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {key}= field in: {line}"))
}

/// The degraded-mode leg of the matrix: the binary runs **to
/// completion** through an injected disk-full outage under
/// `--on-journal-fail degrade`. It must keep admitting (exit 0 with the
/// conservation gate green), restart the writer once space returns, and
/// leave a directory whose fold still reconciles exactly — the books
/// survive a mid-run hole in the journal.
#[test]
fn degraded_run_survives_disk_full_and_reconciles() {
    let dir = std::env::temp_dir().join(format!("ta-crash-degrade-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let out = Command::new(env!("CARGO_BIN_EXE_live"))
        .args([
            "--clients",
            "3000",
            "--workers",
            "4",
            "--shards",
            "4",
            "--round-ms",
            "20",
            "--duration-secs",
            "4",
            "--commit-ms",
            "1",
            "--stats-every",
            "200",
            "--fault",
            "enospc_after:30000",
            "--on-journal-fail",
            "degrade",
            "--journal-dir",
        ])
        .arg(&dir)
        .stderr(Stdio::inherit())
        .output()
        .expect("run live binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "degrade policy must keep the run green, got {}:\n{stdout}",
        out.status
    );

    // The health ledger closes the self-healing books: durability was
    // suspended (records dropped) and the writer came back.
    assert!(event_field(&stdout, "health", "dropped_records") > 0);
    assert!(
        event_field(&stdout, "health", "writer_restarts") >= 1,
        "the writer never restarted:\n{stdout}"
    );
    assert!(
        stdout
            .lines()
            .any(|l| l.starts_with("event=health") && l.contains("durability=ok")),
        "durability must be back by shutdown:\n{stdout}"
    );

    // Recovery agrees with the independent fold, and the fold conserves
    // shard by shard despite the dropped slice.
    let state = recover(&dir).expect("recovery after a degraded run must succeed");
    let reference = reference_fold(&dir);
    assert_eq!(state.balances, reference.balances, "balances diverge");
    assert_eq!(state.granted, reference.granted, "granted books diverge");
    assert_eq!(state.burned, reference.burned, "burned books diverge");
    for s in 0..4usize {
        let block = 3000usize.div_ceil(4).max(1);
        let (lo, hi) = (s * block, ((s + 1) * block).min(3000));
        let sum: i64 = reference.balances[lo..hi].iter().sum();
        assert_eq!(
            reference.granted[s] as i64 - reference.burned[s] as i64,
            sum,
            "shard {s} books do not conserve"
        );
    }

    // And the recover-only mode of the binary agrees too (exit 0).
    let rec = Command::new(env!("CARGO_BIN_EXE_live"))
        .args(["--recover", "--journal-dir"])
        .arg(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .status()
        .expect("run live --recover");
    assert!(rec.success(), "live --recover rejected the directory");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A damaged journal can hide a grant while keeping the spend it
/// funded: the surviving prefix then holds a negative balance, and both
/// `event=recovered` and `event=resumed` must say how many.
#[test]
fn hidden_grant_reports_a_negative_balance() {
    let dir = std::env::temp_dir().join(format!("ta-crash-negative-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Persistence::open(&PersistConfig::new(&dir), 4, 1)
        .unwrap()
        .shutdown()
        .unwrap();
    // Spend (seq 1), a frame with a broken CRC, then the grant (seq 0)
    // the spend drew on: recovery keeps only the spend.
    let mut seg = Vec::new();
    let spend = |seq, out: &mut Vec<u8>| {
        encode_frame(
            0,
            &[DeltaRec {
                seq,
                client: 2,
                delta: -1,
            }],
            out,
        )
    };
    spend(1, &mut seg);
    let mut corrupt = Vec::new();
    spend(2, &mut corrupt);
    corrupt[12] ^= 0x01;
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
    std::fs::write(segment_path(&dir, 0), &seg).unwrap();

    let live = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_live"))
            .args(args)
            .arg("--journal-dir")
            .arg(&dir)
            .stderr(Stdio::null())
            .output()
            .expect("run live binary")
    };
    let rec = live(&["--recover"]);
    assert_eq!(rec.status.code(), Some(4), "a truncated journal exits 4");
    let stdout = String::from_utf8_lossy(&rec.stdout);
    assert_eq!(event_field(&stdout, "recovered", "negative_balances"), 1);

    let run = live(&["--clients", "4", "--duration-secs", "0.2"]);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert_eq!(event_field(&stdout, "resumed", "negative_balances"), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_mid_burst_1_worker_1_shard() {
    check_crash_recovery(1, 1, false);
}

#[test]
fn kill_mid_burst_1_worker_4_shards() {
    check_crash_recovery(1, 4, true);
}

#[test]
fn kill_mid_burst_1_worker_16_shards() {
    check_crash_recovery(1, 16, false);
}

#[test]
fn kill_mid_burst_4_workers_1_shard() {
    check_crash_recovery(4, 1, true);
}

#[test]
fn kill_mid_burst_4_workers_4_shards() {
    check_crash_recovery(4, 4, false);
}

#[test]
fn kill_mid_burst_4_workers_16_shards() {
    check_crash_recovery(4, 16, true);
}
