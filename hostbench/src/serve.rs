//! `serve-sweep`: a seeded, closed-loop parameter sweep submitted over
//! TCP to an in-process `spp_serve::Server` (one worker, one client,
//! one connection at a time, no deadlines or preemption).
//!
//! A round is the five apps at each of five (threads, hypernodes,
//! size) rungs, in seeded order, with a resubmission of a seeded
//! earlier cell after every sixth — which the results cache answers.
//! Every fresh cell carries a unique scenario name, so it is a cache
//! miss and runs. Runs measure whole rounds, so every run has the same
//! mix.

use crate::{job_metrics, median, set_up_repeatedly, Report, Rng};
use spp_core::CancelToken;
use spp_scenario::{run_workload, Registry, ScenarioKind, ScenarioSpec};
use spp_serve::json::esc;
use spp_serve::{parse, request, Journal, Json, Priority, Record, ServeConfig, Server};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The five applications, each with one problem size per rung.
const APPS: [(&str, [&str; RUNGS]); 5] = [
    (
        "pic",
        [
            "mesh = [4, 8, 8]",
            "mesh = [8, 8, 8]",
            "mesh = [8, 8, 8]",
            "mesh = [8, 8, 16]",
            "mesh = [8, 8, 16]",
        ],
    ),
    (
        "nbody",
        [
            "bodies = 256",
            "bodies = 256",
            "bodies = 384",
            "bodies = 384",
            "bodies = 512",
        ],
    ),
    (
        "fem",
        [
            "nx = 48\nny = 48",
            "nx = 48\nny = 48",
            "nx = 64\nny = 64",
            "nx = 64\nny = 64",
            "nx = 80\nny = 80",
        ],
    ),
    ("ppm", [""; RUNGS]),
    ("pic-pvm", ["mesh = [8, 8, 8]"; RUNGS]),
];

/// Rungs of the sweep: rung `r` runs `2^r` threads on `2^(r+1)`
/// hypernodes (1 thread on 2 hypernodes up to 16 on 32) at the app's
/// `r`-th size, so job costs spread from ~10 ms to ~0.2 s with no
/// wide gap near the median. Cells are large enough that the
/// simulation, not the hand-offs between threads, dominates a job: a
/// job of a few ms is mostly wake-ups, whose cost swings with host
/// load far more than compute does.
const RUNGS: usize = 5;

/// Coherence protocols.
const PROTOCOLS: [&str; 3] = ["dash-sci", "mesi", "dragon"];

/// One cache-hit resubmission follows every this many fresh cells:
/// 4 per round of 25, so a round is 29 jobs. With an odd round the
/// median and p95 fall inside one cell's latencies rather than on the
/// boundary between two.
const REPEAT_EVERY: usize = 6;

/// Fresh cells per round.
const FRESH_PER_ROUND: usize = APPS.len() * RUNGS;

/// Cache-hit resubmissions per round.
const REPEATS_PER_ROUND: usize = FRESH_PER_ROUND / REPEAT_EVERY;

/// Poll interval bounds while a job runs (the service has no blocking
/// wait). Each poll is a connection and a server thread that wake an
/// otherwise idle CPU; on a 2-vCPU VM, polling every 1–2 ms instead
/// made the hypervisor steal two to three times more CPU time from the
/// run and the run's figures swing with it.
const POLL_MIN: Duration = Duration::from_micros(100);
const POLL_MAX: Duration = Duration::from_millis(10);

/// One sweep cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Cell {
    app: usize,
    rung: usize,
    protocol: usize,
}

impl Cell {
    fn spec(self, name: &str) -> String {
        let (app, sizes) = APPS[self.app];
        let (threads, hypernodes) = (1 << self.rung, 2 << self.rung);
        format!(
            "schema = 1\n[scenario]\nname = \"{name}\"\nkind = \"workload\"\nsteps = 1\n\
             timeout_secs = 60.0\n[workload]\napp = \"{app}\"\n{}\n\
             [topology]\nhypernodes = {hypernodes}\n[protocol]\nname = \"{}\"\n\
             [placement]\nthreads = {threads}\npolicy = \"uniform\"\n",
            sizes[self.rung], PROTOCOLS[self.protocol]
        )
    }
}

/// Round `index`'s fresh cells in seeded order: every app at every
/// rung once, the protocols rotating from round to round so that every
/// run, whatever its seed, has the same mix.
fn round(rng: &mut Rng, index: usize) -> Vec<Cell> {
    let mut cells = Vec::new();
    for app in 0..APPS.len() {
        for rung in 0..RUNGS {
            let protocol = (app + rung + index) % PROTOCOLS.len();
            cells.push(Cell {
                app,
                rung,
                protocol,
            });
        }
    }
    rng.shuffle(&mut cells);
    cells
}

/// A completed job.
struct Job {
    id: String,
    cell: Cell,
    spec: String,
    cached: bool,
    digest: String,
    result: String,
    submit_s: f64,
    latency_s: f64,
}

struct Client {
    addr: String,
    /// Jitters poll sleeps, so measured latencies do not snap to a
    /// fixed poll grid.
    jitter: Rng,
}

impl Client {
    fn call(&self, line: &str) -> Result<Json, String> {
        let reply = request(&self.addr, line).map_err(|e| format!("rpc failed: {e}"))?;
        parse(&reply).map_err(|e| format!("unparseable reply {reply:?}: {e}"))
    }

    /// Submit `spec` and wait for its result line.
    fn job(&mut self, cell: Cell, spec: String) -> Result<Job, String> {
        let t = Instant::now();
        let reply = self.call(&format!(
            "{{\"cmd\": \"submit\", \"priority\": \"normal\", \"deadline_ms\": 0, \"spec\": \"{}\"}}",
            esc(&spec)
        ))?;
        let submit_s = t.elapsed().as_secs_f64();
        if reply.bool_field("ok") != Some(true) {
            return Err(format!("submit refused: {reply:?}"));
        }
        let id = reply.str_field("job").ok_or("submit reply without a job")?;
        let request = format!("{{\"cmd\": \"result\", \"job\": \"{id}\"}}");
        let mut wait = POLL_MIN;
        let result = loop {
            let r = self.call(&request)?;
            if let Some(line) = r.str_field("result") {
                break line.to_string();
            }
            match r.str_field("state") {
                Some("pending" | "running") => {}
                other => return Err(format!("job {id} ended {other:?}: {r:?}")),
            }
            let jitter = 0.5 + self.jitter.below(1024) as f64 / 1024.0;
            std::thread::sleep(wait.mul_f64(jitter));
            wait = (wait * 2).min(POLL_MAX);
        };
        Ok(Job {
            id: id.to_string(),
            cell,
            spec,
            cached: reply.bool_field("cached") == Some(true),
            digest: reply.str_field("digest").unwrap_or_default().to_string(),
            result,
            submit_s,
            latency_s: t.elapsed().as_secs_f64(),
        })
    }
}

/// A running service on its own fresh state directory.
struct Service {
    server: Server,
    dir: PathBuf,
    client: Client,
}

impl Service {
    fn start(dir: PathBuf, seed: u64) -> Service {
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ServeConfig::new(&dir);
        cfg.workers = 1;
        let server = Server::start(cfg, Registry::new()).expect("spp-serve starts");
        let client = Client {
            addr: server.addr().to_string(),
            jitter: Rng::new(seed, 3),
        };
        Service {
            server,
            dir,
            client,
        }
    }

    fn stop(self) {
        self.server.stop();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn state_root() -> PathBuf {
    Path::new(".hostbench").join(format!("serve-{}", std::process::id()))
}

/// Run the sweep for `seconds` of whole rounds. Untraced, report the
/// end-to-end metrics; traced, the `spp-scenario` and `spp-serve`
/// per-layer metrics.
pub fn run(seed: u64, seconds: Duration, traced: bool, rep: &mut Report) {
    let root = state_root();
    let warmup = Cell {
        app: 2,
        rung: 1,
        protocol: 0,
    };
    let mut warm_errors = Vec::new();
    let (mut service, setup_s) = set_up_repeatedly(
        |i| {
            let mut service = Service::start(root.join(format!("setup-{i}")), seed);
            if let Err(e) = service.client.job(warmup, warmup.spec("warm-up")) {
                warm_errors.push(e);
            }
            service
        },
        Service::stop,
    );
    rep.check(warm_errors.is_empty(), || {
        format!("serve-sweep: warm-up job failed: {}", warm_errors[0])
    });
    let client = &mut service.client;

    let mut rng = Rng::new(seed, 2);
    let mut jobs: Vec<Job> = Vec::new();
    let mut fresh: Vec<(Cell, String)> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    let mut rpc_s = Vec::new();
    let mut rounds = 0;
    let start = Instant::now();
    while rounds == 0 || start.elapsed() < seconds {
        for (i, cell) in round(&mut rng, rounds).into_iter().enumerate() {
            let spec = cell.spec(&format!("sweep-{seed:x}-{}", fresh.len()));
            fresh.push((cell, spec.clone()));
            let mut submissions = vec![(cell, spec)];
            if (i + 1) % REPEAT_EVERY == 0 {
                submissions.push(fresh[rng.below(fresh.len())].clone());
            }
            for (cell, spec) in submissions {
                match client.job(cell, spec) {
                    Ok(job) => {
                        if traced {
                            let t = Instant::now();
                            let status = client
                                .call(&format!("{{\"cmd\": \"status\", \"job\": \"{}\"}}", job.id));
                            rpc_s.push(t.elapsed().as_secs_f64());
                            rep.check(status.is_ok(), || {
                                format!("serve-sweep: status rpc failed: {status:?}")
                            });
                        }
                        jobs.push(job);
                    }
                    Err(e) => errors.push(e),
                }
            }
        }
        rounds += 1;
    }
    let window = start.elapsed();
    rep.attempted += (jobs.len() + errors.len()) as u64;
    rep.failed += errors.len() as u64;
    rep.check(errors.is_empty(), || {
        format!(
            "serve-sweep: {} job(s) failed, first: {}",
            errors.len(),
            errors[0]
        )
    });
    let cache_hits = client
        .call("{\"cmd\": \"health\"}")
        .ok()
        .and_then(|h| h.int_field("cache_hits"))
        .unwrap_or(-1);

    // Every result against a direct run of the same cell outside the
    // service; resubmissions byte-identical to the first result.
    let mut direct: BTreeMap<Cell, Direct> = BTreeMap::new();
    let mut first_result: BTreeMap<&str, &str> = BTreeMap::new();
    let mut accesses = 0i64;
    let mut overhead_ms = Vec::new();
    for job in &jobs {
        let Direct { want, secs } = direct
            .entry(job.cell)
            .or_insert_with(|| Direct::run(&job.spec));
        let got = parse(&job.result).map_err(|e| e.to_string());
        let spec_digest = ScenarioSpec::from_toml_str(&job.spec)
            .map(|s| format!("{:016x}", s.digest()))
            .unwrap_or_default();
        let ok = match (&got, &*want) {
            (Ok(got), Ok(want)) => {
                got.str_field("status") == Some("pass")
                    && got.str_field("digest") == Some(spec_digest.as_str())
                    && job.digest == spec_digest
                    && want
                        .iter()
                        .all(|(k, v)| got.int_field(k) == Some(*v as i64))
            }
            _ => false,
        };
        rep.check(ok, || {
            format!(
                "serve-sweep: job result {} differs from a direct run {:?}",
                job.result, want
            )
        });
        match first_result.get(job.digest.as_str()) {
            Some(first) => rep.check(*first == job.result, || {
                format!(
                    "serve-sweep: cache hit for {} is not byte-identical",
                    job.digest
                )
            }),
            None => {
                rep.check(!job.cached, || {
                    format!("serve-sweep: cache hit for unseen digest {}", job.digest)
                });
                first_result.insert(&job.digest, &job.result);
            }
        }
        if !job.cached {
            if let Ok(got) = &got {
                accesses +=
                    got.int_field("reads").unwrap_or(0) + got.int_field("writes").unwrap_or(0);
            }
            overhead_ms.push((job.latency_s - *secs) * 1e3);
        }
    }
    let repeats = jobs.iter().filter(|j| j.cached).count();
    rep.check(repeats == rounds * REPEATS_PER_ROUND, || {
        format!(
            "serve-sweep: {repeats} cache hits in {rounds} rounds, want {REPEATS_PER_ROUND} a round"
        )
    });

    let latencies: Vec<f64> = jobs.iter().map(|j| j.latency_s).collect();
    if traced {
        let layer = |rep: &mut Report, name: &str, v: f64, unit: &'static str| {
            rep.metric(format!("spp-serve.{name}"), v, unit)
        };
        rep.metric("spp-scenario.parse_us", parse_us(), "us");
        let run_ms: Vec<f64> = direct.values().map(|d| d.secs * 1e3).collect();
        rep.metric("spp-scenario.run_ms", median(&run_ms), "ms");
        let fresh_submit: Vec<f64> = jobs
            .iter()
            .filter(|j| !j.cached)
            .map(|j| j.submit_s * 1e3)
            .collect();
        layer(rep, "submit_ms", median(&fresh_submit), "ms");
        layer(rep, "rpc_ms", median(&rpc_s) * 1e3, "ms");
        let hit_ms: Vec<f64> = jobs
            .iter()
            .filter(|j| j.cached)
            .map(|j| j.latency_s * 1e3)
            .collect();
        layer(rep, "cache_hit_ms", median(&hit_ms), "ms");
        layer(
            rep,
            "journal_append_ms",
            journal_append_ms(&root.join("journal-probe")),
            "ms",
        );
        layer(rep, "overhead_ms", median(&overhead_ms), "ms");
        layer(rep, "cache_hits", cache_hits as f64, "count");
        layer(rep, "jobs", jobs.len() as f64, "count");
    } else {
        rep.metric(
            "sim_maccess_per_s",
            accesses as f64 / window.as_secs_f64() / 1e6,
            "Maccess/s",
        );
        rep.metric("setup_s", median(&setup_s), "s");
        job_metrics(rep, &latencies, window);
    }
    service.stop();
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(".hostbench");
}

/// A direct `run_workload` of one cell outside the service: the
/// counters its result line must carry, and its host seconds.
struct Direct {
    want: Result<Vec<(&'static str, u64)>, String>,
    secs: f64,
}

impl Direct {
    fn run(spec: &str) -> Direct {
        let parsed = ScenarioSpec::from_toml_str(spec).map_err(|e| e.to_string());
        let t = Instant::now();
        let out = parsed.and_then(|s| match &s.kind {
            ScenarioKind::Workload(w) => run_workload(w, &CancelToken::new(), None),
            other => Err(format!("not a workload cell: {other:?}")),
        });
        let secs = t.elapsed().as_secs_f64();
        let want = out.map(|o| {
            vec![
                ("cycles", o.cycles),
                ("reads", o.stats.reads),
                ("writes", o.stats.writes),
                ("hits", o.stats.hits),
                ("sci_fetches", o.stats.sci_fetches),
                ("ring_stalls", o.stats.ring_stalls),
                ("uncached_ops", o.stats.uncached_ops),
            ]
        });
        Direct { want, secs }
    }
}

/// Median host µs to parse a sweep spec, serialize its canonical form
/// and digest it, over every cell of the catalogue.
fn parse_us() -> f64 {
    let mut samples = Vec::new();
    for app in 0..APPS.len() {
        for protocol in 0..PROTOCOLS.len() {
            for rung in 0..RUNGS {
                let text = Cell {
                    app,
                    rung,
                    protocol,
                }
                .spec("parse-probe");
                for _ in 0..8 {
                    let t = Instant::now();
                    let spec = ScenarioSpec::from_toml_str(&text).expect("sweep specs parse");
                    std::hint::black_box((spec.to_toml_string(), spec.digest()));
                    samples.push(t.elapsed().as_secs_f64() * 1e6);
                }
            }
        }
    }
    median(&samples)
}

/// Median host ms of one fsync'd `Journal::append` of a submit record
/// on the state directory's filesystem.
fn journal_append_ms(dir: &Path) -> f64 {
    let _ = std::fs::remove_dir_all(dir);
    let (mut journal, _) = Journal::open(dir).expect("journal opens");
    let spec = Cell {
        app: 0,
        rung: 0,
        protocol: 0,
    }
    .spec("journal-probe");
    let mut samples = Vec::new();
    for i in 0..32 {
        let rec = Record::Submit {
            job: format!("j{i}"),
            digest: "0123456789abcdef".to_string(),
            priority: Priority::Normal,
            deadline_ms: 0,
            spec: spec.clone(),
        };
        let t = Instant::now();
        journal.append(&rec).expect("journal append");
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    drop(journal);
    let _ = std::fs::remove_dir_all(dir);
    median(&samples)
}
