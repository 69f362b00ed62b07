//! The simulation workload `fig3-churn`, and the shard probe of its
//! traced run.
//!
//! It runs through the public functions of `ta-experiments`
//! (`prepare_topology`, `run_grid_prepared`) exactly as the figure
//! binaries do. The timed phase repeats the whole workload until
//! `--seconds` have passed and reports medians over those repetitions.
//! Set-up (`prepare_topology`) is repeated between the panels of each
//! repetition, outside the panels' clocks, so its median samples the host
//! over the whole run as `wall_s` does. Every
//! repetition's outputs are checked (see [`check_panel`]).
//!
//! The figure's replicas never reach the runner's intra-run sharded
//! pipeline (jobs >= workers). A traced run therefore also runs
//! [`shard_probe`], single replicas the runner does shard, for the
//! `shard.*` layer metrics. Their wall time is not an end-to-end metric:
//! it followed the host's CPU steal too closely to be steady (README).

use std::path::PathBuf;
use std::time::Instant;

use ta_churn::synthetic::SmartphoneTraceModel;
use ta_experiments::figures::{comparison_table, fig3, plot_series, speedup, Family};
use ta_experiments::runner::{prepare_topology, run_grid_prepared, PreparedTopology};
use ta_experiments::spec::{AppKind, ExperimentSpec};
use ta_experiments::ExperimentResult;
use ta_sim::config::TickPhase;
use ta_sim::rng::{SplitMix64, Xoshiro256pp};
use ta_telemetry::ProfileData;
use token_account::prelude::*;

use crate::span::Tracer;
use crate::{cpu_seconds, median, peak_rss_mb, Args, Json};

/// Before each panel, set-up is repeated until it has taken this share
/// of the timed phase so far; the run ends with at least
/// [`MIN_SETUP_REPS`] set-ups. `setup_s` is their median.
const SETUP_SHARE: f64 = 0.05;
const MIN_SETUP_REPS: usize = 11;

/// One figure panel (or, for the shard probe, one application): the
/// specs that share a prepared topology.
#[derive(Debug)]
struct Panel {
    app: AppKind,
    name: String,
    specs: Vec<ExperimentSpec>,
    prepared: Option<PreparedTopology>,
}

/// Figure 3 at N=5000, 300 rounds, one run per curve.
fn fig3_panels(seed: u64, smoke: bool) -> Vec<Panel> {
    let n = if smoke { 600 } else { 5_000 };
    let mut out = Vec::new();
    for app in fig3::APPS {
        for family in Family::ALL {
            let base = ExperimentSpec::paper_defaults(app, StrategySpec::Proactive, n)
                .with_rounds(300)
                .with_runs(1)
                .with_seed(seed)
                .with_smartphone_churn();
            let mut strategies = vec![StrategySpec::Proactive];
            strategies.extend(family.representative());
            let specs = strategies
                .into_iter()
                .map(|strategy| ExperimentSpec {
                    strategy,
                    ..base.clone()
                })
                .collect();
            out.push(Panel {
                app,
                name: format!("{}_{}", app.name(), family.name()),
                specs,
                prepared: None,
            });
        }
    }
    out
}

/// The shard probe's experiments: one replica each, failure-free,
/// synchronized rounds (dense event waves), N=20k over a 20-out overlay.
fn probe_panels(seed: u64, smoke: bool) -> Vec<Panel> {
    let (n, rounds) = if smoke { (1_000, 20) } else { (20_000, 60) };
    [AppKind::GossipLearning, AppKind::PushGossip]
        .into_iter()
        .map(|app| {
            let base = ExperimentSpec::paper_defaults(app, StrategySpec::Proactive, n)
                .with_rounds(rounds)
                .with_runs(1)
                .with_seed(seed)
                .with_tick_phase(TickPhase::Synchronized);
            let specs = [
                StrategySpec::Proactive,
                StrategySpec::Randomized { a: 5, c: 10 },
            ]
            .into_iter()
            .map(|strategy| ExperimentSpec {
                strategy,
                ..base.clone()
            })
            .collect();
            Panel {
                app,
                name: app.name().to_string(),
                specs,
                prepared: None,
            }
        })
        .collect()
}

/// Prepares every panel's topology once; returns the elapsed seconds and
/// the topologies in panel order.
fn setup(panels: &[Panel], tracer: &mut Tracer) -> Result<(f64, Vec<PreparedTopology>), String> {
    tracer.enter("setup");
    let t0 = Instant::now();
    let mut prepared = Vec::with_capacity(panels.len());
    for p in panels {
        tracer.enter("overlay.prepare_topology");
        prepared.push(prepare_topology(&p.specs[0]).map_err(|e| e.to_string())?);
        tracer.exit();
    }
    let secs = t0.elapsed().as_secs_f64();
    tracer.exit();
    Ok((secs, prepared))
}

/// One timed repetition of the workload. Its times are sums over the
/// panels and leave out the set-ups made between them.
#[derive(Debug)]
struct Rep {
    wall_s: f64,
    cpu_s: f64,
    grid_s: f64,
    /// Per panel: `(label, result)` in strategy order, proactive first.
    results: Vec<Vec<(String, ExperimentResult)>>,
}

fn run_rep(
    panels: &[Panel],
    out_dir: &std::path::Path,
    tracer: &mut Tracer,
    mut before_panel: impl FnMut(&mut Tracer) -> Result<(), String>,
) -> Result<Rep, String> {
    tracer.enter("rep");
    let (mut wall_s, mut cpu_s, mut grid_s) = (0.0, 0.0, 0.0);
    let mut all = Vec::with_capacity(panels.len());
    for p in panels {
        before_panel(tracer)?;
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let prepared = p.prepared.as_ref().expect("set up before timing");
        tracer.enter("runner.run_grid_prepared");
        let g0 = Instant::now();
        // The figure schedules a panel as one flattened grid.
        let results = run_grid_prepared(&p.specs, prepared).map_err(|e| e.to_string())?;
        grid_s += g0.elapsed().as_secs_f64();
        tracer.exit();
        let entries: Vec<(String, ExperimentResult)> = p
            .specs
            .iter()
            .map(|s| s.strategy.label())
            .zip(results)
            .collect();
        // The figure's outputs: comparison table and `.dat` panel.
        tracer.enter("metrics.outputs");
        let table = comparison_table(p.app, &entries).render();
        std::hint::black_box(table);
        let labels: Vec<&str> = entries.iter().map(|(l, _)| l.as_str()).collect();
        let series: Vec<_> = entries.iter().map(|(_, r)| plot_series(p.app, r)).collect();
        let path = out_dir.join(format!("fig3_{}.dat", p.name));
        ta_metrics::output::write_dat(&path, &p.name, &labels, &series)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        tracer.exit();
        wall_s += t0.elapsed().as_secs_f64();
        cpu_s += cpu_seconds() - cpu0;
        all.push(entries);
    }
    let rep = Rep {
        wall_s,
        cpu_s,
        grid_s,
        results: all,
    };
    tracer.exit();
    Ok(rep)
}

/// The checks every repetition must pass; returns one line per failure.
///
/// * Figure 3's claim: every token-account curve beats proactive (steady
///   metric, the figure's speedup > 1) with no more messages per run.
/// * Per replica: every fired tick is a proactive send, a skipped send or
///   a banked token; the engine sent exactly what the protocol counts as
///   sent; delivered + lost + dropped never exceeds sent.
fn check_panel(app: AppKind, panel: &str, entries: &[(String, ExperimentResult)]) -> Vec<String> {
    let mut errs = Vec::new();
    let base = &entries[0].1;
    for (label, r) in &entries[1..] {
        let s = speedup(app, r, base);
        if s.is_nan() || s <= 1.0 {
            errs.push(format!(
                "{panel}/{label}: speedup {s} vs proactive is not > 1"
            ));
        }
        if r.stats.mean_messages_sent > base.stats.mean_messages_sent {
            errs.push(format!(
                "{panel}/{label}: {} messages per run > proactive's {}",
                r.stats.mean_messages_sent, base.stats.mean_messages_sent
            ));
        }
    }
    for (label, r) in entries {
        for (i, run) in r.runs.iter().enumerate() {
            let (p, s) = (&run.protocol, &run.sim);
            if s.ticks_fired != p.proactive_sent + p.proactive_skipped + p.tokens_banked {
                errs.push(format!(
                    "{panel}/{label}#{i}: ticks {} != proactive {} + skipped {} + banked {}",
                    s.ticks_fired, p.proactive_sent, p.proactive_skipped, p.tokens_banked
                ));
            }
            if s.messages_sent != p.total_sent() {
                errs.push(format!(
                    "{panel}/{label}#{i}: engine sent {} != protocol sent {}",
                    s.messages_sent,
                    p.total_sent()
                ));
            }
            let settled = s.messages_delivered + s.messages_lost_offline + s.messages_dropped_fault;
            if settled > s.messages_sent {
                errs.push(format!(
                    "{panel}/{label}#{i}: delivered+lost+dropped {settled} > sent {}",
                    s.messages_sent
                ));
            }
        }
    }
    errs
}

/// Runs one experiment alone: one job on the pool.
fn run_one(spec: &ExperimentSpec, prepared: &PreparedTopology) -> Result<ExperimentResult, String> {
    Ok(run_grid_prepared(std::slice::from_ref(spec), prepared)
        .map_err(|e| e.to_string())?
        .pop()
        .expect("one spec, one result"))
}

/// Recomputes every replica of `p` with the serial engine (`TA_SHARDS=1`)
/// and compares it bit for bit with `entries`.
fn check_serial(p: &Panel, entries: &[(String, ExperimentResult)]) -> Result<Vec<String>, String> {
    let prepared = p.prepared.as_ref().expect("set up before checking");
    std::env::set_var("TA_SHARDS", "1");
    let mut errs = Vec::new();
    for (spec, (label, got)) in p.specs.iter().zip(entries) {
        let serial = run_one(spec, prepared)?;
        for (i, (a, b)) in got.runs.iter().zip(&serial.runs).enumerate() {
            let same = a.metric == b.metric
                && a.tokens == b.tokens
                && a.protocol == b.protocol
                && a.sim == b.sim
                && a.sends_per_slot == b.sends_per_slot;
            if !same {
                errs.push(format!(
                    "{}/{label}#{i}: differs from the serial engine",
                    p.name
                ));
            }
        }
    }
    std::env::remove_var("TA_SHARDS");
    Ok(errs)
}

/// What the shard probe measured.
struct Probe {
    profile: ProfileData,
    replicas: u64,
    errors: Vec<String>,
}

/// Shard probe: runs each of [`probe_panels`]' experiments alone, so
/// jobs < workers and the runner's default splits each replica onto the
/// intra-run sharded pipeline. Checks each result as the figure's are
/// checked, and against a serial-engine recomputation.
fn shard_probe(
    seed: u64,
    smoke: bool,
    tamper_serial: bool,
    tracer: &mut Tracer,
) -> Result<Probe, String> {
    tracer.enter("shard_probe");
    let mut probe = Probe {
        profile: ProfileData::default(),
        replicas: 0,
        errors: Vec::new(),
    };
    for mut p in probe_panels(seed, smoke) {
        let prepared = tracer.span("overlay.prepare_topology", || prepare_topology(&p.specs[0]));
        let prepared = p.prepared.insert(prepared.map_err(|e| e.to_string())?);
        let mut entries = Vec::with_capacity(p.specs.len());
        for spec in &p.specs {
            tracer.enter("runner.run_grid_prepared");
            entries.push((spec.strategy.label(), run_one(spec, prepared)?));
            tracer.exit();
        }
        if tamper_serial {
            entries[1].1.runs[0].sim.events_processed += 1;
        }
        probe.errors.extend(check_panel(p.app, &p.name, &entries));
        tracer.enter("check.serial");
        probe.errors.extend(check_serial(&p, &entries)?);
        tracer.exit();
        for run in entries.iter().flat_map(|(_, r)| &r.runs) {
            probe.profile.merge(&run.profile);
            probe.replicas += 1;
        }
    }
    tracer.exit();
    Ok(probe)
}

/// Deliberately corrupts one replica's books (self-test of the checks).
fn tamper(rep: &mut Rep, what: &str) {
    let run = &mut rep.results[0][1].1.runs[0];
    match what {
        "ticks" => run.protocol.tokens_banked += 1,
        "sent" => run.sim.messages_sent += 1,
        "settled" => run.sim.messages_delivered = run.sim.messages_sent + 1,
        // Make a token-account curve send more than proactive.
        "messages" => rep.results[0][1].1.stats.mean_messages_sent += 1e12,
        _ => {}
    }
}

/// Kernel probe: one `TokenNode` step (round tick or message reaction)
/// over 100k accounts, in ns.
fn node_step_ns(seed: u64, smoke: bool) -> f64 {
    let strategy = RandomizedTokenAccount::new(5, 10).expect("valid strategy");
    let n = 100_000usize;
    let steps: u64 = if smoke { 200_000 } else { 8_000_000 };
    let mut nodes = vec![TokenNode::new(0); n];
    let mut rng = Xoshiro256pp::stream(seed, 0x6e6f);
    let mut idx = (seed as usize) % n;
    let mut sends = 0u64;
    let t0 = Instant::now();
    for i in 0..steps {
        let node = &mut nodes[idx];
        if i & 1 == 0 {
            std::hint::black_box(node.on_round(&strategy, &mut rng));
        } else {
            sends += node.on_message(&strategy, Usefulness::Useful, &mut rng);
        }
        idx = (idx + 7_919) % n;
    }
    let ns = t0.elapsed().as_nanos() as f64 / steps as f64;
    std::hint::black_box(sends);
    ns
}

/// Churn probe: generates each churn replica's availability schedule the
/// way the runner derives it; returns (seconds, transitions).
fn churn_probe(panels: &[Panel], tracer: &mut Tracer) -> (f64, u64) {
    let mut secs = 0.0;
    let mut transitions = 0u64;
    tracer.enter("churn.schedules");
    for p in panels {
        for spec in &p.specs {
            if spec.churn != ta_experiments::ChurnKind::SmartphoneTrace {
                continue;
            }
            for run in 0..spec.runs {
                let seed = SplitMix64::new(spec.seed.wrapping_add(0x9e37 * run as u64)).next_u64();
                let t0 = Instant::now();
                let sched =
                    SmartphoneTraceModel::default().generate(spec.n, spec.duration, seed ^ 0xc4a9);
                secs += t0.elapsed().as_secs_f64();
                transitions += sched
                    .segments()
                    .iter()
                    .map(|s| s.transitions.len() as u64)
                    .sum::<u64>();
            }
        }
    }
    tracer.exit();
    (secs, transitions)
}

pub fn main(args: &Args) -> Result<Json, String> {
    match args.required("--workload")? {
        "fig3-churn" => {}
        other => return Err(format!("unknown sim workload `{other}`")),
    }
    let seed: u64 = args.parsed("--seed")?;
    let seconds: f64 = args.parsed("--seconds")?;
    let work = PathBuf::from(args.required("--work")?);
    let trace_file = args.value("--trace-file").map(PathBuf::from);
    let smoke = args.has("--smoke");
    let tamper_with = args.value("--tamper").map(str::to_string);
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;

    let mut tracer = Tracer::new(trace_file.is_some());
    let mut panels = fig3_panels(seed, smoke);

    // The first set-up is the one the repetitions run on; later ones are
    // timed and dropped.
    let (secs, prepared) = setup(&panels, &mut tracer)?;
    let mut setups = vec![secs];
    for (p, x) in panels.iter_mut().zip(prepared) {
        p.prepared = Some(x);
    }
    let edges: u64 = panels
        .iter()
        .map(|p| {
            p.prepared
                .as_ref()
                .map_or(0, |x| x.topo.edge_count() as u64)
        })
        .sum();

    // Timed phase: whole repetitions until `seconds` have passed.
    let mut reps = Vec::new();
    let mut errors = Vec::new();
    let t_start = Instant::now();
    while reps.is_empty() || t_start.elapsed().as_secs_f64() < seconds {
        let more_setups = |tracer: &mut Tracer| {
            while setups.iter().sum::<f64>() < SETUP_SHARE * t_start.elapsed().as_secs_f64() {
                setups.push(setup(&panels, tracer)?.0);
            }
            Ok(())
        };
        let mut rep = run_rep(&panels, &work, &mut tracer, more_setups)?;
        if reps.is_empty() {
            if let Some(what) = &tamper_with {
                tamper(&mut rep, what);
            }
        }
        tracer.enter("check");
        for (p, entries) in panels.iter().zip(&rep.results) {
            for e in check_panel(p.app, &p.name, entries) {
                if !errors.contains(&e) {
                    errors.push(e);
                }
            }
        }
        tracer.exit();
        // Only the first repetition's results are kept (layer counts), so
        // peak RSS does not grow with the repetitions.
        if !reps.is_empty() {
            rep.results.clear();
        }
        reps.push(rep);
    }
    while setups.len() < MIN_SETUP_REPS {
        setups.push(setup(&panels, &mut tracer)?.0);
    }
    // Before the shard probe, which is not part of the workload.
    let peak_rss_mb = peak_rss_mb();

    let replicas: u64 = panels
        .iter()
        .map(|p| p.specs.iter().map(|s| s.runs as u64).sum::<u64>())
        .sum();
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let cpus: Vec<f64> = reps.iter().map(|r| r.cpu_s).collect();
    let grids: Vec<f64> = reps.iter().map(|r| r.grid_s).collect();
    let runs = || reps[0].results.iter().flatten().flat_map(|(_, r)| &r.runs);
    let events: u64 = runs().map(|r| r.sim.events_processed).sum();
    let eps: Vec<f64> = walls.iter().map(|w| events as f64 / w).collect();
    // Algorithm-4 decisions: one per round tick, one per delivered message.
    let decisions: u64 = runs()
        .map(|r| r.sim.ticks_fired + r.sim.messages_delivered)
        .sum();
    let dps: Vec<f64> = walls.iter().map(|w| decisions as f64 / w).collect();
    let wall_s = median(&walls);
    let cpu_s = median(&cpus);

    let mut e2e = Json::default();
    e2e.num("wall_s", wall_s)
        .num("events_per_s", median(&eps))
        .num("decisions_per_s", median(&dps))
        .num("setup_s", median(&setups))
        .num("cpu_s", cpu_s)
        .num("peak_rss_mb", peak_rss_mb);

    let mut layer = Json::default();
    let mut attempted = replicas * reps.len() as u64;
    if trace_file.is_some() {
        let tamper_serial = tamper_with.as_deref() == Some("serial");
        let probe = shard_probe(seed, smoke, tamper_serial, &mut tracer)?;
        errors.extend(probe.errors);
        attempted += probe.replicas;
        let mut sim = ta_sim::engine::SimStats::default();
        let mut proto = ta_apps::protocol::ProtocolStats::default();
        let mut prof = ProfileData::default();
        for r in runs() {
            sim.merge(&r.sim);
            proto.merge(&r.protocol);
            prof.merge(&r.profile);
        }
        let (schedule_s, transitions) = churn_probe(&panels, &mut tracer);
        let step_ns = tracer.span("core.node_step", || node_step_ns(seed, smoke));
        layer
            .int("runner.replicas", replicas)
            .num("runner.cores_busy", cpu_s / wall_s)
            .num("runner.grid_s", median(&grids))
            .num("overlay.prepare_s", median(&setups))
            .int("overlay.edges", edges)
            .num("churn.schedule_s", schedule_s)
            .int("churn.transitions", transitions)
            .int("sim.events", sim.events_processed)
            .int("sim.messages_sent", sim.messages_sent)
            .int("sim.messages_delivered", sim.messages_delivered)
            .int("sim.messages_lost_offline", sim.messages_lost_offline)
            .int("sim.ticks_fired", sim.ticks_fired)
            .int("sim.ticks_stale", sim.ticks_stale)
            .int("sim.batches", prof.batches)
            .num("sim.batch_events_mean", prof.mean_batch())
            .int("shard.windows", probe.profile.windows)
            .num("shard.window_s", probe.profile.window_ns as f64 / 1e9)
            .int("shard.claims", probe.profile.claims)
            .int("shard.steals", probe.profile.steals)
            .int("shard.skipped_windows", probe.profile.skipped_windows)
            .int("shard.mailbox_messages", probe.profile.mailbox_messages)
            .int("shard.mailbox_depth_max", probe.profile.mailbox_depth_max)
            .int("protocol.proactive_sent", proto.proactive_sent)
            .int("protocol.reactive_sent", proto.reactive_sent)
            .int("protocol.tokens_banked", proto.tokens_banked)
            .int("protocol.proactive_skipped", proto.proactive_skipped)
            .int("protocol.pull_requests", proto.pull_requests)
            .int("protocol.pull_replies", proto.pull_replies)
            .num("core.node_step_ns", step_ns);
    }
    if let Some(path) = &trace_file {
        tracer
            .write(path)
            .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
    }

    let mut out = Json::default();
    out.int("attempted", attempted)
        .int("reps", reps.len() as u64)
        .strings("errors", &errors)
        .raw("e2e", e2e.render())
        .raw("layer", layer.render());
    Ok(out)
}
