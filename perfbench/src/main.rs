//! `perfbench` — the in-process half of the repository benchmark.
//!
//! `run.py` drives it; each subcommand prints one JSON object as its last
//! line of standard output:
//!
//! ```text
//! perfbench sim --workload fig3-churn --seed S --seconds T
//!               --work DIR [--trace-file PATH] [--smoke] [--tamper WHAT]
//! perfbench restart --dir DOMAIN
//! perfbench live-layers --seed S --work DIR --prior DOMAIN --final DOMAIN
//!                       --trace-file PATH [--smoke]
//! ```
//!
//! `sim` runs the simulation workload through the public functions of
//! `ta-experiments` and checks its outputs; `restart` recovers, verifies
//! and resumes a durable `ta-live` domain (the restart the `live` binary
//! performs before admission opens); `live-layers` times the per-layer
//! probes of the live runtime.

mod live;
mod sim;
mod span;

use std::fmt::Write as _;
use std::process::ExitCode;

/// An ordered JSON object of numbers, strings and raw JSON.
#[derive(Debug, Default)]
pub struct Json(Vec<(String, String)>);

impl Json {
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        let v = if v.is_finite() { v } else { 0.0 };
        self.0.push((key.into(), format!("{v:?}")));
        self
    }
    pub fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.0.push((key.into(), v.to_string()));
        self
    }
    pub fn raw(&mut self, key: &str, json: String) -> &mut Self {
        self.0.push((key.into(), json));
        self
    }
    pub fn strings(&mut self, key: &str, items: &[String]) -> &mut Self {
        let quoted: Vec<String> = items.iter().map(|s| quote(s)).collect();
        self.raw(key, format!("[{}]", quoted.join(",")))
    }
    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", quote(k));
        }
        out.push('}');
        out
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// User + system CPU seconds of this process so far (`/proc/self/stat`,
/// clock ticks of 1/100 s).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 / 100.0
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `--flag value` pairs and bare `--switch`es.
#[derive(Debug)]
pub struct Args(Vec<String>);

impl Args {
    pub fn value(&self, flag: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == flag)?;
        self.0.get(i + 1).map(String::as_str)
    }
    pub fn required(&self, flag: &str) -> Result<&str, String> {
        self.value(flag).ok_or_else(|| format!("missing {flag}"))
    }
    pub fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<T, String> {
        let v = self.required(flag)?;
        v.parse().map_err(|_| format!("bad {flag} `{v}`"))
    }
    pub fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().unwrap_or_default();
    let args = Args(argv.collect());
    let out = match cmd.as_str() {
        "sim" => sim::main(&args),
        "restart" => live::restart(&args),
        "live-layers" => live::layers(&args),
        _ => Err(format!(
            "unknown subcommand `{cmd}` (sim | restart | live-layers)"
        )),
    };
    match out {
        Ok(json) => {
            println!("{}", json.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
