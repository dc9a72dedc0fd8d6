//! The two simulation workloads: `nbody-hits` (Barnes-Hut tree code on
//! one simulated CPU, almost every access a cache hit) and
//! `fem-misses` (FEM scatter-add on 16 CPUs across both hypernodes,
//! coherence misses throughout).
//!
//! The untraced run times whole steps through the applications'
//! public `step` functions. The traced run steps three copies in
//! lockstep — plain, recorded through `TracePort`, and the recorded
//! step replayed with `Trace::replay` into a machine restored from a
//! snapshot taken just before the step — which splits each step's
//! host time into the `spp-core` share (the replay) and the rest.

use crate::{job_metrics, mean, median, set_up_repeatedly, Report, Rng};
use nbody::problem::sort_by_morton;
use nbody::{plummer, NbodyProblem, SharedNbody};
use spp_core::{Cycles, Machine, MachineConfig, MemPort, MemStats, TracePort};
use spp_runtime::{Placement, Profile, Runtime, Team};
use std::time::{Duration, Instant};

/// Hypernodes of every simulated machine (the paper's testbed).
const HYPERNODES: usize = 2;

/// Simulated clock rate: cycles per microsecond (100 MHz PA-7100).
const CYCLES_PER_US: f64 = 100.0;

/// Relative tolerance of the host-integrator checks. The simulated
/// codes sum in a different order than the host integrators (FEM's
/// colored scatter-add), so they agree to rounding, not bit for bit.
const HOST_TOLERANCE: f64 = 1e-9;

/// One simulation workload, driven only through its crate's public API.
pub trait SimApp: Sized {
    /// Workload name (also the infix of its per-layer metric names).
    const WORKLOAD: &'static str;
    /// The application crate (prefix of its per-layer metrics).
    const CRATE: &'static str;
    /// Profile regions of a timed step.
    const PHASES: &'static [&'static str];
    /// What the host check compares.
    const HOST_QUANTITY: &'static str;

    /// The simulated team.
    fn team(cfg: &MachineConfig) -> Team;
    /// Build the problem in simulated memory; `reduced` selects the
    /// small instance of the batching check.
    fn build<P: MemPort>(rt: &mut Runtime<P>, team: &Team, seed: u64, reduced: bool) -> Self;
    /// One step: simulated cycles and the app's work count (flops for
    /// N-body, point updates for FEM).
    fn step<P: MemPort>(
        &mut self,
        rt: &mut Runtime<P>,
        team: &Team,
        prof: Option<&mut Profile>,
    ) -> (Cycles, u64);
    /// (simulated, host) value of the checked quantity after the same
    /// `steps` steps of the unpriced host integrator.
    fn host_check(&self, steps: usize) -> (f64, f64);
    /// Simulated reference rate of a step: (metric suffix, value, unit).
    fn sim_rate(cycles: Cycles, work: u64) -> (&'static str, f64, &'static str);
}

/// Bodies in the `nbody-hits` problem.
const NBODY_BODIES: usize = 512;
/// Bodies in the reduced instance.
const NBODY_REDUCED: usize = 128;

/// `nbody-hits`: one CPU, a seeded Plummer sphere.
pub struct NbodyHits {
    app: SharedNbody,
}

fn nbody_problem(seed: u64, reduced: bool) -> NbodyProblem {
    let mut p = NbodyProblem::with_n(if reduced { NBODY_REDUCED } else { NBODY_BODIES });
    p.seed = Rng::new(seed, 1).next_u64();
    p
}

impl SimApp for NbodyHits {
    const WORKLOAD: &'static str = "nbody-hits";
    const CRATE: &'static str = "nbody";
    const PHASES: &'static [&'static str] =
        &["morton", "sort", "topology", "summarize", "forces", "push"];
    const HOST_QUANTITY: &'static str = "kinetic energy";

    fn team(cfg: &MachineConfig) -> Team {
        Team::place(cfg, 1, &Placement::HighLocality)
    }

    fn build<P: MemPort>(rt: &mut Runtime<P>, team: &Team, seed: u64, reduced: bool) -> Self {
        NbodyHits {
            app: SharedNbody::new(rt, nbody_problem(seed, reduced), team),
        }
    }

    fn step<P: MemPort>(
        &mut self,
        rt: &mut Runtime<P>,
        team: &Team,
        prof: Option<&mut Profile>,
    ) -> (Cycles, u64) {
        let (cycles, flops, _) = self.app.step_profiled(rt, team, prof);
        (cycles, flops)
    }

    fn host_check(&self, steps: usize) -> (f64, f64) {
        let p = &self.app.problem;
        let mut b = sort_by_morton(&plummer(p));
        for _ in 0..steps {
            nbody::host::step(p, &mut b);
        }
        (self.app.bodies().kinetic_energy(), b.kinetic_energy())
    }

    fn sim_rate(cycles: Cycles, flops: u64) -> (&'static str, f64, &'static str) {
        (
            "sim_mflops",
            flops as f64 / cycles as f64 * CYCLES_PER_US,
            "Mflop/s",
        )
    }
}

/// FEM mesh edge (quads per side) of `fem-misses`.
const FEM_EDGE: usize = 256;
/// Mesh edge of the reduced instance.
const FEM_REDUCED: usize = 32;
/// CFL number of every FEM step.
const FEM_CFL: f64 = 0.3;

/// `fem-misses`: scatter-add coding, 16 CPUs across both hypernodes.
pub struct FemMisses {
    app: fem::SharedFem,
}

impl SimApp for FemMisses {
    const WORKLOAD: &'static str = "fem-misses";
    const CRATE: &'static str = "fem";
    const PHASES: &'static [&'static str] = &["element", "point", "reduce"];
    const HOST_QUANTITY: &'static str = "total energy";

    fn team(cfg: &MachineConfig) -> Team {
        Team::place(cfg, 16, &Placement::Uniform)
    }

    fn build<P: MemPort>(rt: &mut Runtime<P>, team: &Team, _seed: u64, reduced: bool) -> Self {
        let edge = if reduced { FEM_REDUCED } else { FEM_EDGE };
        FemMisses {
            app: fem::SharedFem::new(
                rt,
                fem::structured(edge, edge),
                fem::Coding::ScatterAdd,
                team,
            ),
        }
    }

    fn step<P: MemPort>(
        &mut self,
        rt: &mut Runtime<P>,
        team: &Team,
        prof: Option<&mut Profile>,
    ) -> (Cycles, u64) {
        self.app.step_profiled(rt, team, FEM_CFL, prof)
    }

    fn host_check(&self, steps: usize) -> (f64, f64) {
        let mesh = &self.app.mesh;
        let mut s = fem::host::State::pulse(mesh);
        for _ in 0..steps {
            let dt = fem::host::timestep(&s, FEM_CFL);
            fem::host::step(mesh, &mut s, dt);
        }
        (self.app.state().total_energy(mesh), s.total_energy(mesh))
    }

    fn sim_rate(cycles: Cycles, updates: u64) -> (&'static str, f64, &'static str) {
        (
            "point_updates_per_us",
            updates as f64 / (cycles as f64 / CYCLES_PER_US),
            "updates/us",
        )
    }
}

/// A built instance: runtime, team and app, after one warm-up step.
struct Instance<A, P: MemPort> {
    rt: Runtime<P>,
    team: Team,
    app: A,
}

fn set_up<A: SimApp, P: MemPort>(port: P, seed: u64) -> Instance<A, P> {
    let mut rt = Runtime::new(port);
    let team = A::team(rt.machine.config());
    let mut app = A::build(&mut rt, &team, seed, false);
    app.step(&mut rt, &team, None);
    Instance { rt, team, app }
}

fn check_host<A: SimApp>(rep: &mut Report, app: &A, steps: usize) {
    let (sim, host) = app.host_check(steps);
    let rel = ((sim - host) / host).abs();
    rep.check(rel <= HOST_TOLERANCE, || {
        format!(
            "{}: simulated {} {sim} vs host integrator {host} (relative {rel:e} > {:e})",
            A::WORKLOAD,
            A::HOST_QUANTITY,
            HOST_TOLERANCE
        )
    });
}

/// The reduced instance stepped with and without the batched port
/// fast path must agree bit for bit in cycles and `MemStats`.
fn check_batching<A: SimApp>(rep: &mut Report, seed: u64) {
    const STEPS: usize = 2;
    let run = |batching: bool| {
        let mut rt = Runtime::new(Machine::spp1000(HYPERNODES)).with_batching(batching);
        let team = A::team(rt.machine.config());
        let mut app = A::build(&mut rt, &team, seed, true);
        let cycles: Cycles = (0..STEPS).map(|_| app.step(&mut rt, &team, None).0).sum();
        (cycles, rt.machine.stats, rt.machine.clock(), app)
    };
    let (c1, s1, k1, app) = run(true);
    let (c0, s0, k0, _) = run(false);
    rep.check(c1 == c0 && s1 == s0 && k1 == k0, || {
        format!(
            "{}: batched and scalar runs of the reduced instance differ \
             (cycles {c1} vs {c0}, clock {k1} vs {k0}, stats equal: {})",
            A::WORKLOAD,
            s1 == s0
        )
    });
    check_host(rep, &app, STEPS);
}

/// Untraced run: repeated set-ups, then whole steps for `seconds`.
pub fn run<A: SimApp>(seed: u64, seconds: Duration, rep: &mut Report) {
    let (instance, setup_s) = set_up_repeatedly(
        |_| set_up::<A, Machine>(Machine::spp1000(HYPERNODES), seed),
        drop,
    );
    let Instance {
        mut rt,
        team,
        mut app,
    } = instance;

    let mut step_s = Vec::new();
    let mut rates = Vec::new();
    let mut partition_ok = true;
    let start = Instant::now();
    while step_s.is_empty() || start.elapsed() < seconds {
        let before = rt.machine.stats;
        let t = Instant::now();
        app.step(&mut rt, &team, None);
        let secs = t.elapsed().as_secs_f64();
        let d = rt.machine.stats.since(&before);
        step_s.push(secs);
        rates.push(d.accesses() as f64 / secs / 1e6);
        partition_ok &= d.miss_partition_check();
    }
    let window = start.elapsed();
    rep.attempted += step_s.len() as u64;

    rep.check(partition_ok, || {
        format!("{}: a step's MemStats miss partition broke", A::WORKLOAD)
    });
    check_host(rep, &app, step_s.len() + 1);
    check_batching::<A>(rep, seed);

    rep.metric("sim_maccess_per_s", median(&rates), "Maccess/s");
    rep.metric("setup_s", median(&setup_s), "s");
    job_metrics(rep, &step_s, window);
}

/// One traced step's measurements.
struct TracedStep {
    plain_s: f64,
    traced_s: f64,
    replay_s: f64,
    capture_s: f64,
    restore_s: f64,
    snapshot_bytes: usize,
    records: u64,
    stats: MemStats,
    cycles: Cycles,
    work: u64,
    footprint: usize,
    profile: Profile,
}

/// Unwrap the recording port, leaving a fresh recorder around the
/// same machine in the runtime.
fn take_trace(rt: &mut Runtime<TracePort>) -> (Cycles, spp_core::Trace) {
    let port = std::mem::replace(&mut rt.machine, TracePort::new(Machine::spp1000(1)));
    let recorded = port.total_cycles();
    let (machine, trace) = port.into_parts();
    rt.machine = TracePort::new(machine);
    (recorded, trace)
}

/// Traced run: per-layer metrics of `A` over `seconds` of whole
/// traced steps. Every step is recorded and replayed on its own, so
/// at most one step's trace is held at a time.
pub fn trace<A: SimApp>(seed: u64, seconds: Duration, rep: &mut Report) {
    let w = A::WORKLOAD;
    let mut plain = set_up::<A, Machine>(Machine::spp1000(HYPERNODES), seed);
    let mut traced = set_up::<A, TracePort>(TracePort::new(Machine::spp1000(HYPERNODES)), seed);
    take_trace(&mut traced.rt);
    let cfg = plain.rt.machine.config().clone();

    let mut steps: Vec<TracedStep> = Vec::new();
    let start = Instant::now();
    while steps.is_empty() || start.elapsed() < seconds {
        let mut profile = Profile::new();
        let before = plain.rt.machine.stats;
        let t = Instant::now();
        let (cycles, work) = plain
            .app
            .step(&mut plain.rt, &plain.team, Some(&mut profile));
        let plain_s = t.elapsed().as_secs_f64();
        let stats = plain.rt.machine.stats.since(&before);

        // The replay target is a copy of the recorder taken just before
        // the step; a snapshot round trip of the same state is timed
        // and checked beside it.
        let mut replay = traced.rt.machine.inner().clone();
        let t = Instant::now();
        let snapshot = replay.snapshot();
        let capture_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let restored = snapshot
            .restore(cfg.clone(), None)
            .expect("a snapshot of a live machine restores");
        let restore_s = t.elapsed().as_secs_f64();
        let n = steps.len();
        rep.check(
            restored.coherence_digest() == replay.coherence_digest()
                && restored.clock() == replay.clock(),
            || format!("{w}: snapshot round trip before step {n} changed the machine"),
        );
        drop(restored);

        let before = *traced.rt.machine.stats();
        let t = Instant::now();
        let (traced_cycles, _) = traced.app.step(&mut traced.rt, &traced.team, None);
        let traced_s = t.elapsed().as_secs_f64();
        let traced_stats = traced.rt.machine.stats().since(&before);
        let (recorded, trace) = take_trace(&mut traced.rt);

        let before = replay.stats;
        let t = Instant::now();
        let replayed = trace.replay(&mut replay);
        let replay_s = t.elapsed().as_secs_f64();
        let replay_stats = replay.stats.since(&before);

        let recorder = traced.rt.machine.inner();
        rep.check(traced_cycles == cycles && traced_stats == stats, || {
            format!("{w}: traced step {n} differs from the untraced step")
        });
        rep.check(
            replayed == recorded
                && replay_stats == stats
                && replay.clock() == recorder.clock()
                && replay.coherence_digest() == recorder.coherence_digest(),
            || {
                format!(
                    "{w}: replay of step {n} differs from the recording \
                     (port cycles {replayed} vs {recorded}, stats equal: {})",
                    replay_stats == stats
                )
            },
        );
        rep.check(stats.miss_partition_check(), || {
            format!("{w}: step {n}'s MemStats miss partition broke")
        });
        steps.push(TracedStep {
            plain_s,
            traced_s,
            replay_s,
            capture_s,
            restore_s,
            snapshot_bytes: snapshot.as_bytes().len(),
            records: trace.records(),
            stats,
            cycles,
            work,
            footprint: plain.rt.machine.coherence_footprint(),
            profile,
        });
    }
    rep.attempted += steps.len() as u64;

    let per = |f: fn(&TracedStep) -> f64| steps.iter().map(f).collect::<Vec<f64>>();
    let accesses: u64 = steps.iter().map(|s| s.stats.accesses()).sum();
    let records: u64 = steps.iter().map(|s| s.records).sum();
    let replay_total: f64 = steps.iter().map(|s| s.replay_s).sum();
    let core = format!("spp-core.{w}");
    rep.metric(format!("{core}.replay_s"), mean(&per(|s| s.replay_s)), "s");
    rep.metric(
        format!("{core}.replay_ns_per_access"),
        replay_total / accesses as f64 * 1e9,
        "ns",
    );
    rep.metric(
        format!("{core}.accesses_per_port_call"),
        accesses as f64 / records as f64,
        "accesses/call",
    );
    rep.metric(
        format!("{core}.trace_overhead_s"),
        mean(&per(|s| s.traced_s - s.plain_s)),
        "s",
    );

    // Exact simulated counts of the first timed step: a change meant
    // only to speed up the host must leave them identical.
    let first = &steps[0];
    let s = &first.stats;
    rep.metric(format!("{core}.sim_cycles"), first.cycles as f64, "cycles");
    for (name, v) in [
        ("hits", s.hits),
        ("local_misses", s.local_misses),
        ("gcb_hits", s.gcb_hits),
        ("sci_fetches", s.sci_fetches),
        ("remote_dirty_fetches", s.remote_dirty_fetches),
        ("upgrades", s.upgrades),
        ("invalidations", s.invalidations),
        ("sci_invalidations", s.sci_invalidations),
        ("evictions", s.evictions),
        ("writebacks", s.writebacks),
    ] {
        rep.metric(format!("{core}.{name}"), v as f64, "count");
    }
    rep.metric(
        format!("{core}.coherence_footprint"),
        first.footprint as f64,
        "lines",
    );
    rep.metric(
        format!("{core}.snapshot_bytes"),
        first.snapshot_bytes as f64,
        "bytes",
    );
    rep.metric(
        format!("{core}.snapshot_capture_ms"),
        median(&per(|s| s.capture_s)) * 1e3,
        "ms",
    );
    rep.metric(
        format!("{core}.snapshot_restore_ms"),
        median(&per(|s| s.restore_s)) * 1e3,
        "ms",
    );

    // spp-runtime: every barrier episode issues one uncached
    // semaphore operation per participant, and these apps issue no
    // other uncached operations.
    let runtime = format!("spp-runtime.{w}");
    let regions = first.profile.regions();
    let fork_joins: u64 = regions.iter().map(|r| r.calls).sum();
    let threads = plain.team.len() as f64;
    rep.metric(format!("{runtime}.fork_joins"), fork_joins as f64, "count");
    rep.metric(
        format!("{runtime}.barriers"),
        s.uncached_ops as f64 / threads,
        "count",
    );
    let busy_total: u64 = regions.iter().map(|r| r.busy_total).sum();
    let busy_max: u64 = regions.iter().map(|r| r.busy_max).sum();
    rep.metric(
        format!("{runtime}.balance"),
        busy_total as f64 / threads / busy_max as f64,
        "ratio",
    );

    let app = A::CRATE;
    rep.metric(
        format!("{app}.self_s"),
        mean(&per(|s| s.plain_s - s.replay_s)),
        "s",
    );
    let (rate, value, unit) = A::sim_rate(first.cycles, first.work);
    rep.metric(format!("{app}.{rate}"), value, unit);
    for phase in A::PHASES {
        let cycles = regions
            .iter()
            .find(|r| r.name == *phase)
            .map_or(0, |r| r.elapsed);
        rep.check(cycles > 0, || {
            format!("{w}: no {phase} region in the step profile")
        });
        rep.metric(
            format!("{app}.phase.{phase}.cycles"),
            cycles as f64,
            "cycles",
        );
    }
}
