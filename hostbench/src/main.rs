//! Host-time benchmark of the SPP-1000 simulator.
//!
//! ```text
//! hostbench --workload <nbody-hits|fem-misses|serve-sweep> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Without `--trace 1` the named workload runs untraced and the last
//! line of standard output is one JSON object with the end-to-end
//! metrics. With `--trace 1` the per-layer metrics of all three
//! workloads are collected in turn (a third of `--seconds` each),
//! because the per-layer set spans every layer. Every run checks its
//! outputs; a failed check makes `correct` false and the exit code 1.
//! See README.md for what each metric means.

mod serve;
mod sim;

use std::time::Duration;

/// The three workloads, in the order the traced mode visits them.
const WORKLOADS: [&str; 3] = ["nbody-hits", "fem-misses", "serve-sweep"];

/// Default workload seed (README names it and a held-out seed).
const DEFAULT_SEED: u64 = 1;

/// Set-ups per run: at least `MIN_SETUPS`, then more while their total
/// stays under `SETUP_BUDGET`, at most `MAX_SETUPS`. `setup_s` is
/// their median, which steadies the short set-ups.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// One printed metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// What a run reports: checks, operation counts and metrics.
#[derive(Default)]
pub struct Report {
    failures: Vec<String>,
    /// Operations attempted (timed steps, jobs).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    /// Record a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.failures.push(format!("metric {name} is not finite"));
        }
        self.metrics.push(Metric { name, value, unit });
    }

    /// Record a correctness check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("CHECK FAILED: {msg}");
            self.failures.push(msg);
        }
    }

    fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Linear-interpolation quantile (`q` in [0, 1]) of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Mean of samples.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The process's peak resident set (VmHWM) in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's only source of input randomness, so a
/// seed fully determines the generated inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Set up repeatedly (see `MIN_SETUPS`), keeping only the last
/// instance: `teardown` ends each earlier one before the next starts.
/// Returns the kept instance and every set-up's host seconds.
pub fn set_up_repeatedly<T>(
    mut set_up: impl FnMut(usize) -> T,
    mut teardown: impl FnMut(T),
) -> (T, Vec<f64>) {
    let mut secs = Vec::new();
    let mut kept: Option<T> = None;
    while secs.len() < MIN_SETUPS
        || (secs.len() < MAX_SETUPS && secs.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64())
    {
        if let Some(old) = kept.take() {
            teardown(old);
        }
        let t = std::time::Instant::now();
        kept = Some(set_up(secs.len()));
        secs.push(t.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), secs)
}

/// Report the three job-shaped end-to-end metrics from per-operation
/// latencies (seconds) over a timed window.
pub fn job_metrics(rep: &mut Report, latencies: &[f64], window: Duration) {
    rep.metric(
        "jobs_per_s",
        latencies.len() as f64 / window.as_secs_f64(),
        "1/s",
    );
    rep.metric("job_ms_p50", median(latencies) * 1e3, "ms");
    rep.metric("job_ms_p95", quantile(latencies, 0.95) * 1e3, "ms");
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: hostbench --workload <nbody-hits|fem-misses|serve-sweep> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 25,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let seconds = Duration::from_secs(args.seconds);
    let mut rep = Report::default();
    if args.trace {
        let share = seconds / WORKLOADS.len() as u32;
        sim::trace::<sim::NbodyHits>(args.seed, share, &mut rep);
        sim::trace::<sim::FemMisses>(args.seed, share, &mut rep);
        serve::run(args.seed, share, true, &mut rep);
    } else {
        match args.workload.as_str() {
            "nbody-hits" => sim::run::<sim::NbodyHits>(args.seed, seconds, &mut rep),
            "fem-misses" => sim::run::<sim::FemMisses>(args.seed, seconds, &mut rep),
            _ => serve::run(args.seed, seconds, false, &mut rep),
        }
        rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }
    for m in &rep.metrics {
        eprintln!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", rep.json());
    if !rep.correct() {
        std::process::exit(1);
    }
}
