//! The live-runtime probes: the timed restart of a durable domain and the
//! per-layer measurements of `ta-live` and `token-account`.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ta_live::loadgen::{
    run_loadgen, run_loadgen_durable_observed, run_loadgen_observed, ArrivalMode, LoadGenConfig,
    LoadGenReport,
};
use ta_live::obs::{ObsServer, StatsPump, TraceBus};
use ta_live::persist::journal::{list_segments, scan_segment};
use ta_live::persist::snapshot::{list_snapshot_files, load};
use ta_live::persist::{recover, PersistConfig, Persistence};
use ta_live::LiveTelemetry;
use ta_sim::rng::Xoshiro256pp;
use token_account::prelude::*;

use crate::span::Tracer;
use crate::{median, Args, Json};

/// Clients of the live workload (100k × 8 B accounts fit in L2).
const CLIENTS: usize = 100_000;
/// Account shards of the live workload (the binary's default).
const SHARDS: usize = 64;

/// Recovers, verifies and resumes the domain under `--dir`, as the `live`
/// binary does before admission opens, then shuts the journal down.
pub fn restart(args: &Args) -> Result<Json, String> {
    let dir = PathBuf::from(args.required("--dir")?);
    let t0 = Instant::now();
    let state = recover(&dir).map_err(|e| format!("recovering {}: {e}", dir.display()))?;
    let recover_s = t0.elapsed().as_secs_f64();
    let persistence = Persistence::resume(&PersistConfig::new(&dir), &state)
        .map_err(|e| format!("resuming {}: {e}", dir.display()))?;
    let setup_s = t0.elapsed().as_secs_f64();
    persistence
        .shutdown()
        .map_err(|e| format!("closing the resumed journal: {e}"))?;
    let mut out = Json::default();
    out.num("setup_s", setup_s)
        .num("recover_s", recover_s)
        .int("clients", state.clients as u64)
        .raw("balances_sum", state.balances_sum().to_string())
        .int("granted", state.granted_total())
        .int("burned", state.burned_total())
        .int("replayed", state.replayed)
        .int("truncations", state.truncations.len() as u64);
    Ok(out)
}

fn loadgen_cfg(seed: u64, duration: Duration) -> LoadGenConfig {
    LoadGenConfig {
        clients: CLIENTS,
        workers: 1,
        account_shards: SHARDS,
        duration,
        mode: ArrivalMode::Closed,
        useful_probability: 0.8,
        burst: None,
        round_period: Some(Duration::from_millis(100)),
        seed,
    }
}

/// ns per admission decision of one closed-loop run.
fn ns_per_decision(r: &LoadGenReport) -> Result<f64, String> {
    if !r.conserves() {
        return Err("ladder run: books do not conserve".into());
    }
    Ok(r.wall.as_nanos() as f64 / r.counters.requests.max(1) as f64)
}

/// Connects to the obs server, sends one streaming verb and counts the
/// lines until the server closes the stream.
fn drain(addr: std::net::SocketAddr, verb: &'static str) -> u64 {
    let Ok(mut conn) = std::net::TcpStream::connect(addr) else {
        return 0;
    };
    if conn.write_all(verb.as_bytes()).is_err() {
        return 0;
    }
    BufReader::new(conn).lines().map_while(Result::ok).count() as u64
}

/// The live ladder: the same one-worker closed loop over 100k clients with
/// one more layer switched on per rung; returns ns per decision for bare,
/// counters, traced (1-in-64), journaled (fsync) and scraped (stats pump,
/// trace bus, obs server with a WATCH and a TRACE subscriber).
fn ladder(seed: u64, rung: Duration, work: &Path, tracer: &mut Tracer) -> Result<[f64; 5], String> {
    let strategy = RandomizedTokenAccount::new(5, 10).expect("valid strategy");
    let cfg = loadgen_cfg(seed, rung);
    let cap = LiveTelemetry::DEFAULT_RING_CAPACITY;

    let bare = tracer.span("ladder.bare", || {
        ns_per_decision(&run_loadgen(strategy, &cfg))
    })?;
    let counters = tracer.span("ladder.counters", || {
        let telem = LiveTelemetry::new(1, 0, cap);
        ns_per_decision(&run_loadgen_observed(strategy, &cfg, &telem))
    })?;
    let traced = tracer.span("ladder.traced", || {
        let telem = LiveTelemetry::new(1, 64, cap);
        ns_per_decision(&run_loadgen_observed(strategy, &cfg, &telem))
    })?;
    let open = |name: &str| {
        let dir = work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        Persistence::open(&PersistConfig::new(&dir), CLIENTS, SHARDS)
            .map_err(|e| format!("opening {}: {e}", dir.display()))
    };
    tracer.enter("ladder.journaled");
    let journaled = {
        let telem = LiveTelemetry::new(1, 64, cap);
        let p = open("ladder-journaled")?;
        let (r, _) = run_loadgen_durable_observed(strategy, &cfg, &p, None, None, &telem);
        p.shutdown().map_err(|e| format!("journal shutdown: {e}"))?;
        ns_per_decision(&r)?
    };
    tracer.exit();
    tracer.enter("ladder.scraped");
    let scraped = {
        let telem = LiveTelemetry::new(1, 64, cap);
        let p = open("ladder-scraped")?;
        let pump = StatsPump::start(Arc::clone(&telem), Instant::now(), None);
        let bus = TraceBus::start(&telem, None);
        let server = ObsServer::spawn("127.0.0.1:0", &telem, Arc::clone(&pump), Arc::clone(&bus))
            .map_err(|e| format!("binding the obs server: {e}"))?;
        let addr = server.addr();
        let watch = std::thread::spawn(move || drain(addr, "WATCH 200\n"));
        let trace = std::thread::spawn(move || drain(addr, "TRACE 64\n"));
        let (r, _) = run_loadgen_durable_observed(strategy, &cfg, &p, None, None, &telem);
        pump.finalize();
        bus.finish(&telem.snapshot())
            .map_err(|e| format!("trace bus: {e}"))?;
        server.shutdown();
        let lines =
            watch.join().expect("watch subscriber") + trace.join().expect("trace subscriber");
        if lines == 0 {
            return Err("ladder: the obs subscribers received nothing".into());
        }
        p.shutdown().map_err(|e| format!("journal shutdown: {e}"))?;
        ns_per_decision(&r)?
    };
    tracer.exit();
    Ok([bare, counters, traced, journaled, scraped])
}

/// Kernel probe: one `LiveStrategy` decision on an `AtomicTokenAccount`
/// (alternating round ticks and useful-message reactions) over 100k
/// accounts, in ns.
fn live_decide_ns(seed: u64, steps: u64) -> f64 {
    let live = LiveStrategy::new(RandomizedTokenAccount::new(5, 10).expect("valid strategy"));
    let accounts: Vec<AtomicTokenAccount> =
        (0..CLIENTS).map(|_| AtomicTokenAccount::new(0)).collect();
    let mut rng = Xoshiro256pp::stream(seed, 0x6c64);
    let mut idx = (seed as usize) % CLIENTS;
    let t0 = Instant::now();
    for i in 0..steps {
        let a = &accounts[idx];
        let d = if i & 1 == 0 {
            live.decide_round(a, &mut rng)
        } else {
            live.decide_message(a, Usefulness::Useful, &mut rng)
        };
        std::hint::black_box(d);
        idx = (idx + 7_919) % CLIENTS;
    }
    t0.elapsed().as_nanos() as f64 / steps as f64
}

/// Seconds to scan every journal segment of `dir` (`scan_segment`).
fn scan_dir(dir: &Path) -> Result<f64, String> {
    let mut secs = 0.0;
    for (_, path) in list_segments(dir).map_err(|e| format!("listing {}: {e}", dir.display()))? {
        let bytes = std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let t0 = Instant::now();
        let scan = scan_segment(&bytes);
        secs += t0.elapsed().as_secs_f64();
        std::hint::black_box(scan);
    }
    Ok(secs)
}

/// Seconds to load the newest snapshot of `dir` (0 when it has none).
fn snapshot_load_s(dir: &Path) -> Result<f64, String> {
    let snaps = list_snapshot_files(dir).map_err(|e| format!("listing {}: {e}", dir.display()))?;
    let Some((_, path)) = snaps.last() else {
        return Ok(0.0);
    };
    let t0 = Instant::now();
    let data = load(path).map_err(|e| format!("loading {}: {e}", path.display()))?;
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(data);
    Ok(secs)
}

/// Median ns of `f` over `reps` calls.
fn time_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Per-layer probes of the live runtime, run after the serving phase.
pub fn layers(args: &Args) -> Result<Json, String> {
    let seed: u64 = args.parsed("--seed")?;
    let work = PathBuf::from(args.required("--work")?);
    let prior = PathBuf::from(args.required("--prior")?);
    let fin = PathBuf::from(args.required("--final")?);
    let spans = PathBuf::from(args.required("--trace-file")?);
    let smoke = args.has("--smoke");
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let mut tracer = Tracer::new(true);

    let rung = Duration::from_millis(if smoke { 100 } else { 600 });
    let ladder = ladder(seed, rung, &work, &mut tracer)?;
    let steps = if smoke { 200_000 } else { 8_000_000 };
    let decide = tracer.span("core.live_decide", || live_decide_ns(seed, steps));
    let scan_s = tracer.span("recovery.scan", || scan_dir(&prior))?;
    let snap_s = tracer.span("recovery.snapshot_load", || snapshot_load_s(&fin))?;

    tracer.enter("telem.snapshot");
    let telem = LiveTelemetry::new(1, 64, LiveTelemetry::DEFAULT_RING_CAPACITY);
    let snapshot_ns = time_ns(1_001, || {
        std::hint::black_box(telem.snapshot());
    });
    tracer.exit();
    tracer.enter("obs.render");
    let pump = StatsPump::start(Arc::clone(&telem), Instant::now(), None);
    let render_ns = time_ns(1_001, || {
        std::hint::black_box(pump.render_now());
    });
    pump.finalize();
    tracer.exit();
    for name in ["ladder-journaled", "ladder-scraped"] {
        let _ = std::fs::remove_dir_all(work.join(name));
    }
    tracer
        .write(&spans)
        .map_err(|e| format!("writing spans to {}: {e}", spans.display()))?;

    let mut out = Json::default();
    out.num("ladder.bare_ns", ladder[0])
        .num("ladder.counters_ns", ladder[1])
        .num("ladder.traced_ns", ladder[2])
        .num("ladder.journaled_ns", ladder[3])
        .num("ladder.scraped_ns", ladder[4])
        .num("core.live_decide_ns", decide)
        .num("recovery.scan_s", scan_s)
        .num("recovery.snapshot_load_s", snap_s)
        .num("telem.snapshot_ns", snapshot_ns)
        .num("obs.render_ns", render_ns);
    Ok(out)
}
