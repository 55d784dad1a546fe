//! The workloads, the per-rank step loop and the result line.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

use psdns_comm::Universe;
use psdns_core::{
    normalize_energy, random_solenoidal, try_flow_stats, A2aMode, GpuSlabFft, IntegrityConfig,
    IntegrityEvent, LocalShape, NavierStokes, NsConfig, SlabFftCpu, TimeScheme, Transform3d,
};
use psdns_device::{Device, DeviceConfig};
use psdns_fft::{Complex64, Direction, ReferencePlan};
use psdns_trace::SpanKind;

use crate::attrib::{self, Attribution};
use crate::compare::{self, median, Run, END_TO_END, PER_LAYER};
use crate::json::Json;
use crate::timed::Timed;

const RANKS: usize = 2;
const NU: f64 = 0.01;
const DT: f64 = 1e-3;
const K0: f64 = 4.0;
const ENERGY: f64 = 0.5;
/// Setups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Steps of the traced run's untraced phase whose allocations are counted.
const ALLOC_STEPS: usize = 5;
/// Blocks of the run whose 90th percentiles make `step_p90_s`.
const TAIL_BLOCKS: usize = 5;
/// Timed steps every run makes, however short `--seconds` is.
/// `energy_budget_rel_err` is reported after this many timed steps, so it
/// depends on the seed only, not on how fast the host ran.
const BUDGET_STEPS: usize = 20;
/// Timed steps after which `gpu_pencil_rk2_n64`'s energy must equal the
/// host slab path's.
const MATCH_STEPS: usize = 4;

/// `flow_stats(..).max_divergence` limit (round-off puts it near 3e-16).
const DIV_TOL: f64 = 1e-10;
/// Energy-budget limit over a whole run (5e-8 after 40 RK2 steps).
const BUDGET_TOL: f64 = 1e-5;
/// Relative energy difference allowed between the device pipeline and the
/// host slab path on the same trajectory.
const MATCH_TOL: f64 = 1e-12;
/// Share of the traced step wall by which host spans may stick out of
/// their parents before the exclusive rows are declared inconsistent.
const NESTING_TOL: f64 = 1e-3;

#[derive(Clone, Copy, PartialEq)]
enum Backend {
    Slab,
    GpuPencil,
}

pub struct Workload {
    pub name: &'static str,
    n: usize,
    backend: Backend,
    scheme: TimeScheme,
    armed: bool,
}

/// All f64, two ranks, `random_solenoidal(k0 = 4)` at E = 0.5, ν = 0.01,
/// Δt = 1e-3, unforced, dealiased.
pub const WORKLOADS: [Workload; 3] = [
    // The reference step: host slab transforms, no device, no integrity.
    Workload {
        name: "slab_rk2_n64",
        n: 64,
        backend: Backend::Slab,
        scheme: TimeScheme::Rk2,
        armed: false,
    },
    // Same trajectory through the simulated-device pipeline (np = 4, one
    // ialltoall per pencil): the only workload through the device layer.
    Workload {
        name: "gpu_pencil_rk2_n64",
        n: 64,
        backend: Backend::GpuPencil,
        scheme: TimeScheme::Rk2,
        armed: false,
    },
    // Radix-3 codelets (48 = 2⁴·3), RK4, every integrity monitor and ABFT
    // checksums on: the only workload through the integrity layer.
    Workload {
        name: "slab_rk4_armed_n48",
        n: 48,
        backend: Backend::Slab,
        scheme: TimeScheme::Rk4,
        armed: true,
    },
];

pub fn names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A transform backend the benchmark can build a solver on.
pub trait Backend3d: Transform3d<f64> {
    /// Device-layer counters summed over this rank's devices:
    /// `[h2d bytes, d2h bytes, copy calls, kernel launches]`.
    fn device_counts(&self) -> [u64; 4] {
        [0; 4]
    }
}

impl Backend3d for SlabFftCpu<f64> {}

impl Backend3d for GpuSlabFft<f64> {
    fn device_counts(&self) -> [u64; 4] {
        let mut c = [0u64; 4];
        for d in self.devices() {
            let (h2d, d2h, copies, kernels) = d.stats().snapshot();
            for (acc, v) in c.iter_mut().zip([h2d, d2h, copies, kernels]) {
                *acc += v as u64;
            }
        }
        c
    }
}

type Solver<B> = NavierStokes<f64, Timed<B>>;

/// Work done on every rank once the solver is built and has taken its cold
/// step.
trait Job: Sync {
    type Out: Send + Default;
    fn run<B: Backend3d>(&self, ns: &mut Solver<B>) -> Self::Out;
}

/// Spawn the ranks, build the solver (attaching `tracer` when given), take
/// the cold step, then run `job`. Returns per rank the set-up time since
/// `started` and the job's output; a failed cold step is reported as
/// `None` in place of the set-up time.
fn spawn<J: Job>(
    w: &Workload,
    seed: u64,
    tracer: Option<&psdns_trace::Tracer>,
    started: Instant,
    job: &J,
) -> Vec<(Option<f64>, J::Out)> {
    Universe::run(RANKS, |mut comm| {
        let shape = LocalShape::new(w.n, RANKS, comm.rank());
        comm.set_abft_checksums(w.armed);
        match w.backend {
            Backend::Slab => {
                if let Some(t) = tracer {
                    comm.set_tracer(t);
                }
                let fft = SlabFftCpu::new(shape, comm);
                warm_then(build(w, fft, seed), started, job)
            }
            Backend::GpuPencil => {
                let dev = Device::new(DeviceConfig::tiny(256 << 20));
                // The device's own nvtx-style timeline grows without bound;
                // it is tracing, so it is off here. The tracer bridge
                // carries the same spans in the traced run.
                dev.timeline().set_enabled(false);
                let mut b = GpuSlabFft::<f64>::builder(shape)
                    .comm(comm)
                    .device(dev)
                    .np(4)
                    .a2a_mode(A2aMode::PerPencil)
                    .nv(6);
                if let Some(t) = tracer {
                    b = b.tracer(t);
                }
                let fft = b.build().expect("N = 64, np = 4 fits a 256 MiB device");
                warm_then(build(w, fft, seed), started, job)
            }
        }
    })
}

fn build<B: Backend3d>(w: &Workload, backend: B, seed: u64) -> Solver<B> {
    let mut u = random_solenoidal::<f64>(backend.shape(), K0, seed);
    normalize_energy(&mut u, ENERGY, backend.comm());
    let cfg = NsConfig {
        nu: NU,
        dt: DT,
        scheme: w.scheme,
        forcing: None,
        dealias: true,
        phase_shift: false,
    };
    let mut ns = NavierStokes::new(Timed::new(backend), cfg, u);
    if w.armed {
        ns.set_integrity(IntegrityConfig::armed());
    }
    ns
}

fn warm_then<B: Backend3d, J: Job>(
    mut ns: Solver<B>,
    started: Instant,
    job: &J,
) -> (Option<f64>, J::Out) {
    let cold = ns.step_verified().is_ok();
    ns.backend.comm().barrier();
    let setup = started.elapsed().as_secs_f64();
    if !cold {
        return (None, J::Out::default());
    }
    (Some(setup), job.run(&mut ns))
}

/// Set-up only: the solver is dropped after its cold step.
struct SetupOnly;

impl Job for SetupOnly {
    type Out = ();
    fn run<B: Backend3d>(&self, _: &mut Solver<B>) {}
}

/// Energy after each of a fixed number of steps.
struct Trajectory(usize);

impl Job for Trajectory {
    type Out = Vec<f64>;
    fn run<B: Backend3d>(&self, ns: &mut Solver<B>) -> Vec<f64> {
        (0..self.0)
            .map(|_| {
                let ok = ns.step_verified().is_ok();
                match try_flow_stats(&ns.u, NU, ns.backend.comm()) {
                    Ok(st) if ok => st.energy,
                    _ => f64::NAN,
                }
            })
            .collect()
    }
}

/// The energy budget `|E(t) − E(0) + ∫ε dt| / E(0)`, trapezoid rule over
/// the per-step `flow_stats`, plus the other per-step physics checks.
struct Physics {
    e0: f64,
    eps: f64,
    integral: f64,
    steps: usize,
    budget_at: Option<f64>,
}

impl Physics {
    fn start<B: Backend3d>(ns: &Solver<B>) -> Result<Self, String> {
        let st = try_flow_stats(&ns.u, NU, ns.backend.comm()).map_err(|e| format!("{e:?}"))?;
        Ok(Self {
            e0: st.energy,
            eps: st.dissipation,
            integral: 0.0,
            steps: 0,
            budget_at: None,
        })
    }

    /// Check the state after one more step; returns its energy.
    fn check<B: Backend3d>(&mut self, ns: &Solver<B>) -> Result<f64, String> {
        let st = try_flow_stats(&ns.u, NU, ns.backend.comm())
            .map_err(|e| format!("non-finite state: {e:?}"))?;
        self.integral += 0.5 * (self.eps + st.dissipation) * DT;
        self.eps = st.dissipation;
        self.steps += 1;
        let budget = (st.energy - self.e0 + self.integral).abs() / self.e0;
        if self.steps == BUDGET_STEPS {
            self.budget_at = Some(budget);
        }
        if st.max_divergence.is_nan() || st.max_divergence >= DIV_TOL {
            return Err(format!("divergence {:e} ≥ {DIV_TOL:e}", st.max_divergence));
        }
        if budget.is_nan() || budget >= BUDGET_TOL {
            return Err(format!("energy budget error {budget:e} ≥ {BUDGET_TOL:e}"));
        }
        Ok(st.energy)
    }
}

/// The timed step loop.
struct StepLoop {
    seconds: f64,
    /// Leading steps whose allocations are counted, between barriers; they
    /// are not timing samples.
    count_allocs: usize,
}

#[derive(Default)]
struct LoopOut {
    /// Wall time of each timed step on this rank, s. With a tracer
    /// attached, only the steps that ran with tracing enabled.
    walls: Vec<f64>,
    /// With a tracer attached: the interleaved steps that ran with tracing
    /// disabled.
    plain_walls: Vec<f64>,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    budget_at: Option<f64>,
    /// Energy after each timed step.
    energies: Vec<f64>,
    /// Rank 0: process-wide allocations and bytes per step.
    allocs: Vec<(u64, u64)>,
    /// Rank 0, traced: one attribution per step and rank.
    attributions: Vec<Attribution>,
    /// Rank 0, traced: job-wide a2a calls and network bytes.
    a2a_calls: u64,
    net_bytes: u64,
    hidden_ns: u64,
    network_ns: u64,
    /// This rank's device counters over the loop.
    device: [u64; 4],
    transform_calls: u64,
    retries: u64,
}

impl Job for StepLoop {
    type Out = LoopOut;

    fn run<B: Backend3d>(&self, ns: &mut Solver<B>) -> LoopOut {
        let mut out = LoopOut::default();
        let rank = ns.backend.comm().rank();
        let verified = ns.integrity().enabled();
        let tracer = ns.backend.tracer().cloned();
        let mut physics = match Physics::start(ns) {
            Ok(p) => p,
            Err(e) => {
                out.errors.push(e);
                return out;
            }
        };
        let calls0 = ns.backend.calls;
        let device0 = ns.backend.inner.device_counts();
        let events0 = ns.integrity_events.len();
        let started = Instant::now();
        loop {
            let done = rank == 0
                && out.attempted >= BUDGET_STEPS
                && started.elapsed().as_secs_f64() >= self.seconds;
            if ns.backend.comm().allreduce(done, |a, b| a || b) {
                break;
            }
            let counting = out.attempted < self.count_allocs;
            if counting {
                ns.backend.comm().barrier();
                crate::alloc::set_counting(true);
            }
            let alloc0 = crate::alloc::totals();
            // With a tracer attached, every other step runs with tracing
            // disabled, so the tracing overhead is measured under the same
            // host load as the traced steps.
            let traced = tracer.is_some() && out.attempted % 2 == 0;
            if let Some(t) = &tracer {
                if rank == 0 {
                    // Counters run even while disabled: start every step
                    // from zero so a traced step's counters cover it alone.
                    t.clear();
                    t.set_enabled(traced);
                }
            }
            if counting || tracer.is_some() {
                ns.backend.comm().barrier();
            }
            let root0 = tracer.as_ref().map(|t| t.now_ns());
            let t0 = Instant::now();
            let stepped = ns.step_verified();
            let wall = t0.elapsed().as_secs_f64();
            if let (Some(t), Some(root0)) = (&tracer, root0) {
                t.record(
                    SpanKind::Other,
                    attrib::ROOT_TRACK,
                    "step",
                    root0,
                    t.now_ns(),
                );
            }
            if counting {
                ns.backend.comm().barrier();
                crate::alloc::set_counting(false);
                if rank == 0 {
                    let (count, bytes) = crate::alloc::totals();
                    out.allocs.push((count - alloc0.0, bytes - alloc0.1));
                }
            }
            if let (Some(t), true) = (&tracer, traced) {
                ns.backend.comm().barrier();
                if rank == 0 {
                    let spans = t.spans();
                    for r in 0..RANKS {
                        match attrib::attribute(&spans, r, verified) {
                            Some(a) => out.attributions.push(a),
                            None => out.errors.push(format!("rank {r}: no root span")),
                        }
                    }
                    let c = t.total_counters();
                    out.a2a_calls += c.a2a_calls;
                    out.net_bytes += c.bytes_network;
                    for r in t.overlap_report().per_rank {
                        out.hidden_ns += r.hidden_ns;
                        out.network_ns += r.network_ns;
                    }
                }
            }
            if tracer.is_some() && !traced {
                out.plain_walls.push(wall);
            } else if !counting {
                out.walls.push(wall);
            }
            out.attempted += 1;
            let checked = match stepped {
                Ok(()) => physics.check(ns),
                Err(e) => Err(format!("step_verified: {e:?}")),
            };
            match checked {
                Ok(e) => out.energies.push(e),
                Err(e) => {
                    out.failed += 1;
                    out.energies.push(f64::NAN);
                    let fatal = e.starts_with("non-finite");
                    if out.errors.len() < 4 {
                        out.errors.push(format!("step {}: {e}", out.attempted));
                    }
                    if fatal {
                        break;
                    }
                }
            }
        }
        out.budget_at = physics.budget_at;
        let device1 = ns.backend.inner.device_counts();
        for (d, (a, b)) in out.device.iter_mut().zip(device1.iter().zip(device0)) {
            *d = a - b;
        }
        out.transform_calls = ns.backend.calls - calls0;
        out.retries = ns.integrity_events[events0..]
            .iter()
            .filter(|e| matches!(e, IntegrityEvent::Retry { .. }))
            .count() as u64;
        out
    }
}

/// A fixed in-process FFT workload on the frozen `ReferencePlan`: its time
/// shows how fast the host ran during this run. Reported, never gated.
fn yardstick() -> f64 {
    let n = 256;
    let plan = ReferencePlan::<f64>::new(n);
    let src: Vec<Complex64> = (0..64 * n)
        .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
        .collect();
    let mut buf = src.clone();
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..4 {
                buf.copy_from_slice(&src);
                for line in buf.chunks_mut(n) {
                    plan.execute(line, Direction::Forward);
                }
                std::hint::black_box(&buf);
            }
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Nearest-rank percentile of `v` (`q` in (0, 1]).
fn percentile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The tail: the median over `TAIL_BLOCKS` consecutive blocks of the run
/// of each block's 90th percentile, so that one burst of load from outside
/// the process decides at most one block.
fn blocked_p90(walls: &[f64]) -> f64 {
    let len = walls.len().div_ceil(TAIL_BLOCKS).max(1);
    let tails: Vec<f64> = walls.chunks(len).map(|b| percentile(b, 0.9)).collect();
    median(&tails)
}

/// The outcome of one run: the result line plus a human-readable table.
pub struct Outcome {
    pub correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
    table: Vec<String>,
    errors: Vec<String>,
}

impl Outcome {
    fn new() -> Self {
        Self {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            table: Vec::new(),
            errors: Vec::new(),
        }
    }

    fn fail(&mut self, e: String) {
        self.correct = false;
        self.errors.push(e);
    }

    /// Take over a loop's failures. The physics verdicts are global, so
    /// rank 0's loop speaks for every rank.
    fn absorb(&mut self, out: &LoopOut) {
        self.attempted += out.attempted;
        self.failed += out.failed;
        if out.failed > 0 || !out.errors.is_empty() {
            self.correct = false;
        }
        self.errors.extend(out.errors.iter().cloned());
    }

    fn metric(&mut self, name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| u);
        self.metrics.push((name, value, unit));
    }

    pub fn print(&self) {
        for line in &self.table {
            println!("{line}");
        }
        for e in &self.errors {
            println!("CHECK FAILED: {e}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A JSON number with every digit Rust keeps; non-finite values are not
/// JSON, and never come from a correct run.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    if trace {
        run_traced(w, seed, seconds)
    } else {
        run_untraced(w, seed, seconds)
    }
}

fn run_untraced(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut o = Outcome::new();
    let yard = yardstick();
    let job = StepLoop {
        seconds,
        count_allocs: 0,
    };
    let ranks = spawn(w, seed, None, Instant::now(), &job);
    // Read the peak before the extra set-ups: solvers built and dropped
    // earlier in the process leave glibc's per-thread arenas in a state
    // that makes the peak swing by a third from run to run.
    let peak = peak_rss_mib();
    let mut setups = vec![ranks[0].0];
    for _ in 1..SETUP_REPS {
        setups.push(spawn(w, seed, None, Instant::now(), &SetupOnly)[0].0);
    }
    // Both ranks step in lockstep through their all-to-alls; rank 0's
    // clock times the job.
    let out = &ranks[0].1;
    o.absorb(out);
    let setups: Vec<f64> = match setups.into_iter().collect::<Option<_>>() {
        Some(s) => s,
        None => {
            o.fail("cold step failed".into());
            return o;
        }
    };
    if out.walls.is_empty() {
        o.fail("no timed steps".into());
        return o;
    }
    if w.backend == Backend::GpuPencil {
        check_matches_slab(&mut o, seed, &out.energies);
    }
    let n3 = (w.n * w.n * w.n) as f64;
    let total: f64 = out.walls.iter().sum();
    o.metric("step_p50_s", median(&out.walls));
    o.metric("step_p90_s", blocked_p90(&out.walls));
    o.metric("grid_points_per_s", n3 * out.walls.len() as f64 / total);
    o.metric("setup_s", median(&setups));
    match peak {
        Some(p) => o.metric("peak_rss_mib", p),
        None => o.fail("VmHWM unavailable".into()),
    }
    match out.budget_at {
        Some(b) => o.metric("energy_budget_rel_err", b),
        None => o.fail(format!("fewer than {BUDGET_STEPS} checked steps")),
    }
    let failed_frac = out.failed as f64 / out.attempted as f64;
    o.table.push(format!(
        "# {} seed {seed}: {} timed steps ({} ranks), setups {:?}",
        w.name,
        out.walls.len(),
        RANKS,
        setups
    ));
    for (name, value, unit) in &o.metrics {
        o.table.push(format!("{name:<24} {value:>14.6e} {unit}"));
    }
    o.table.push(format!(
        "{:<24} {failed_frac:>14.6e} ratio",
        "failed_step_frac"
    ));
    o.table.push(format!(
        "{:<24} {yard:>14.6e} s (not gated)",
        "host.yardstick_s"
    ));
    o
}

/// `gpu_pencil_rk2_n64` follows `slab_rk2_n64`'s trajectory: compare the
/// energies after the cold step plus `MATCH_STEPS` timed steps.
fn check_matches_slab(o: &mut Outcome, seed: u64, energies: &[f64]) {
    let slab = find("slab_rk2_n64").expect("reference workload");
    let reference = spawn(slab, seed, None, Instant::now(), &Trajectory(MATCH_STEPS));
    let want = reference[0].1.last().copied().unwrap_or(f64::NAN);
    let got = energies.get(MATCH_STEPS - 1).copied().unwrap_or(f64::NAN);
    let rel = ((got - want) / want).abs();
    if rel.is_nan() || rel > MATCH_TOL {
        o.fail(format!(
            "device energy {got} differs from slab energy {want} by {rel:e} after {MATCH_STEPS} steps"
        ));
    }
}

fn run_traced(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut o = Outcome::new();
    let yard = yardstick();

    // Phase A: a short untraced run whose first steps count allocations;
    // the tracer's own allocations would otherwise count too.
    let plain = spawn(
        w,
        seed,
        None,
        Instant::now(),
        &StepLoop {
            seconds: 0.0,
            count_allocs: ALLOC_STEPS,
        },
    );

    // Phase B: traced steps, interleaved with untraced ones.
    let tracer = psdns_trace::Tracer::new();
    let traced = spawn(
        w,
        seed,
        Some(&tracer),
        Instant::now(),
        &StepLoop {
            seconds: seconds * 0.8,
            count_allocs: 0,
        },
    );
    if plain
        .iter()
        .chain(&traced)
        .any(|(setup, _)| setup.is_none())
    {
        o.fail("cold step failed".into());
    }
    let (a, b) = (&plain[0].1, &traced[0].1);
    o.absorb(a);
    o.absorb(b);
    if b.plain_walls.is_empty() || b.attributions.is_empty() {
        o.fail("no traced steps".into());
        return o;
    }

    // Times: mean per step and rank, so the rows keep summing to the wall.
    let samples = b.attributions.len() as f64;
    let mut excl: BTreeMap<&str, i64> = BTreeMap::new();
    let mut busy: BTreeMap<&str, u64> = BTreeMap::new();
    let mut incl: BTreeMap<String, u64> = BTreeMap::new();
    let (mut wall, mut nesting) = (0u64, 0u64);
    for at in &b.attributions {
        wall += at.wall_ns;
        nesting += at.nesting_ns;
        for (k, v) in &at.exclusive {
            *excl.entry(k).or_default() += v;
        }
        for (k, v) in &at.busy {
            *busy.entry(k).or_default() += v;
        }
        for (k, v) in &at.inclusive {
            *incl.entry(k.clone()).or_default() += v;
        }
    }
    let per = |ns: f64| ns / samples / 1e9;
    let ex = |k: &str| per(excl.get(k).copied().unwrap_or(0) as f64);
    let bz = |k: &str| per(busy.get(k).copied().unwrap_or(0) as f64);
    let inc = |k: &str| per(incl.get(k).copied().unwrap_or(0) as f64);

    let sum: i64 = excl.values().sum();
    if sum != wall as i64 {
        o.fail(format!(
            "exclusive rows sum to {sum} ns, step wall is {wall} ns"
        ));
    }
    if nesting as f64 > NESTING_TOL * wall as f64 {
        o.fail(format!(
            "host spans overlap without nesting for {nesting} ns of {wall} ns"
        ));
    }
    if let Some((k, v)) = excl.iter().find(|(_, v)| **v < 0) {
        o.fail(format!("row {k} is negative: {v} ns"));
    }

    // Counts: per step and rank.
    // Loop-wide counters cover the traced and the untraced steps; the
    // tracer's counters cover the traced steps only.
    let steps_ranks = (b.attempted * RANKS) as f64;
    let traced_ranks = (b.walls.len() * RANKS) as f64;
    let device: [u64; 4] = traced.iter().fold([0; 4], |mut acc, (_, out)| {
        for (a, d) in acc.iter_mut().zip(out.device) {
            *a += d;
        }
        acc
    });
    let sum_ranks = |f: fn(&LoopOut) -> u64| traced.iter().map(|(_, o)| f(o)).sum::<u64>() as f64;
    let dev = |i: usize| device[i] as f64 / steps_ranks;
    let allocs = a.allocs.len().max(1) as f64;

    o.metric("core.transform.f2p_s", inc("f2p"));
    o.metric("core.transform.p2f_s", inc("p2f"));
    o.metric("core.transform.self_s", ex("core.transform.self_s"));
    o.metric(
        "core.transform.calls",
        sum_ranks(|o| o.transform_calls) / steps_ranks,
    );
    o.metric("core.ns.cross_s", ex("core.ns.cross_s"));
    o.metric("core.ns.nonlinear_self_s", ex("core.ns.nonlinear_self_s"));
    o.metric("core.ns.projection_s", ex("core.ns.projection_s"));
    o.metric("core.ns.step_self_s", ex("core.ns.step_self_s"));
    o.metric("core.integrity.check_s", ex(attrib::CHECK));
    o.metric(
        "core.integrity.retries",
        sum_ranks(|o| o.retries) / steps_ranks,
    );
    o.metric("fft.busy_s", ex("fft.host_s") + bz("fft.device_s"));
    o.metric(
        "domain.pack_s",
        ex("domain.pack.host_s") + bz("domain.pack.device_s"),
    );
    o.metric("comm.a2a_post_s", ex("comm.a2a_post_s"));
    o.metric("comm.a2a_wait_s", ex("comm.a2a_wait_s"));
    o.metric("comm.a2a_calls", b.a2a_calls as f64 / traced_ranks);
    o.metric("comm.net_bytes", b.net_bytes as f64 / traced_ranks);
    o.metric(
        "comm.hidden_frac",
        if b.network_ns == 0 {
            0.0
        } else {
            b.hidden_ns as f64 / b.network_ns as f64
        },
    );
    o.metric("device.h2d_s", bz("device.h2d_s"));
    o.metric("device.d2h_s", bz("device.d2h_s"));
    o.metric("device.h2d_bytes", dev(0));
    o.metric("device.d2h_bytes", dev(1));
    o.metric("device.copy_calls", dev(2));
    o.metric("device.kernel_launches", dev(3));
    o.metric(
        "alloc.count",
        a.allocs.iter().map(|x| x.0).sum::<u64>() as f64 / allocs,
    );
    o.metric(
        "alloc.bytes",
        a.allocs.iter().map(|x| x.1).sum::<u64>() as f64 / allocs,
    );
    o.metric("trace.step_wall_s", per(wall as f64));
    o.metric("trace.unattributed_s", ex(attrib::UNATTRIBUTED));
    o.metric(
        "trace.overhead_frac",
        median(&b.walls) / median(&b.plain_walls),
    );
    o.metric("host.yardstick_s", yard);

    // The exclusive table: host rows that sum to the step wall, then the
    // concurrent device-stream busy time.
    let wall_s = per(wall as f64);
    o.table.push(format!(
        "# {} seed {seed}: {} traced steps x {RANKS} ranks, {} untraced between them",
        w.name,
        b.walls.len(),
        b.plain_walls.len()
    ));
    o.table.push(format!(
        "{:<28} {:>12} {:>7}",
        "exclusive row", "s/step", "%wall"
    ));
    for (k, v) in &excl {
        let s = per(*v as f64);
        o.table
            .push(format!("{k:<28} {s:>12.6} {:>6.2}%", 100.0 * s / wall_s));
    }
    o.table.push(format!(
        "{:<28} {:>12.6} {:>6.2}%  (nesting overlap {nesting} ns)",
        "= step wall",
        per(sum as f64),
        100.0 * per(sum as f64) / wall_s
    ));
    for (k, v) in &busy {
        o.table
            .push(format!("{k:<28} {:>12.6}  concurrent busy", per(*v as f64)));
    }
    for (name, value, unit) in &o.metrics {
        o.table.push(format!("{name:<28} {value:>14.6e} {unit}"));
    }
    o
}

/// Run every workload untraced and traced, each in a child process, and
/// print their tables. The last line is the combined result, with each
/// metric named `<workload>/<metric>`.
pub fn run_all(seed: u64, seconds: f64) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("stepbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for w in &WORKLOADS {
        for trace in ["0", "1"] {
            let output = Command::new(&exe)
                .args(["--workload", w.name, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", trace])
                .output();
            let stdout = match &output {
                Ok(o) => String::from_utf8_lossy(&o.stdout).into_owned(),
                Err(e) => format!("spawn failed: {e}"),
            };
            let mut lines: Vec<&str> = stdout.lines().collect();
            let last = lines.pop().unwrap_or("");
            for l in lines {
                println!("{l}");
            }
            let ok = output.as_ref().is_ok_and(|o| o.status.success());
            match Json::parse(last) {
                Ok(j) if ok => {
                    attempted += j.get("attempted").and_then(Json::num).unwrap_or(0.0) as u64;
                    failed += j.get("failed").and_then(Json::num).unwrap_or(0.0) as u64;
                    if let Some(Json::Obj(m)) = j.get("metrics") {
                        for (k, v) in m {
                            let value = v.get("value").and_then(Json::num).unwrap_or(f64::NAN);
                            let unit = v.get("unit").and_then(Json::str).unwrap_or("");
                            metrics.push(format!(
                                "\"{}/{k}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                                w.name,
                                num(value)
                            ));
                        }
                    }
                }
                _ => {
                    correct = false;
                    println!("# {} --trace {trace} failed: {last}", w.name);
                }
            }
            println!();
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Read a file of result lines into metric maps.
fn read_runs(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let j = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let Some(Json::Obj(m)) = j.get("metrics") else {
            return Err(format!("{path}:{}: no metrics", i + 1));
        };
        runs.push(
            m.iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.num()?)))
                .collect(),
        );
    }
    Ok(runs)
}

/// `--compare BASE NEW`: exit 1 when a metric of NEW regressed past its
/// bound against BASE.
pub fn compare_files(base: &str, new: &str) -> ExitCode {
    let (base, new) = match (read_runs(base), read_runs(new)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("stepbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(r) = compare::yardstick_ratio(&base, &new) {
        println!("host.yardstick_s new/base = {r:.3} (host speed context, not gated)");
    }
    let found = compare::regressions(&base, &new);
    for r in &found {
        println!(
            "REGRESSION {}: {:.6e} -> {:.6e}, worse by {:.1}% > bound {:.1}%",
            r.metric,
            r.base,
            r.new,
            100.0 * r.worse_by,
            100.0 * r.bound
        );
    }
    println!(
        "{} base runs, {} new runs, {} regressions",
        base.len(),
        new.len(),
        found.len()
    );
    if found.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run a few steps of `w`'s physics at small N on `backend`, wrapped or
    /// not, and return the final state's bits.
    fn final_bits<B: Transform3d<f64>>(backend: B, wrap: bool) -> Vec<u64> {
        let shape = backend.shape();
        let mut u = random_solenoidal::<f64>(shape, K0, 7);
        normalize_energy(&mut u, ENERGY, backend.comm());
        let cfg = NsConfig {
            nu: NU,
            dt: DT,
            scheme: TimeScheme::Rk2,
            forcing: None,
            dealias: true,
            phase_shift: false,
        };
        let state = if wrap {
            let mut ns = NavierStokes::new(Timed::new(backend), cfg, u);
            for _ in 0..3 {
                ns.step();
            }
            assert_eq!(ns.backend.calls, 12);
            ns.u
        } else {
            let mut ns = NavierStokes::new(backend, cfg, u);
            for _ in 0..3 {
                ns.step();
            }
            ns.u
        };
        state
            .iter()
            .flat_map(|f| f.data.iter().flat_map(|c| [c.re.to_bits(), c.im.to_bits()]))
            .collect()
    }

    #[test]
    fn wrapping_is_bit_identical() {
        let n = 16;
        let slab = |wrap: bool| {
            Universe::run(RANKS, move |comm| {
                let shape = LocalShape::new(n, RANKS, comm.rank());
                final_bits(SlabFftCpu::new(shape, comm), wrap)
            })
        };
        assert_eq!(slab(true), slab(false));
        let gpu = |wrap: bool| {
            Universe::run(RANKS, move |comm| {
                let shape = LocalShape::new(n, RANKS, comm.rank());
                let fft = GpuSlabFft::<f64>::builder(shape)
                    .comm(comm)
                    .device(Device::new(DeviceConfig::tiny(64 << 20)))
                    .np(4)
                    .a2a_mode(A2aMode::PerPencil)
                    .build()
                    .expect("small pipeline fits");
                final_bits(fft, wrap)
            })
        };
        assert_eq!(gpu(true), gpu(false));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&[3.0], 0.9), 3.0);
    }

    #[test]
    fn one_slow_block_does_not_move_the_tail() {
        let steady: Vec<f64> = (0..100).map(|i| 1.0 + (i % 10) as f64 * 0.01).collect();
        let mut burst = steady.clone();
        for w in &mut burst[40..60] {
            *w *= 3.0;
        }
        let tail = 1.0 + 8.0 * 0.01;
        assert_eq!(blocked_p90(&steady), tail);
        assert_eq!(blocked_p90(&burst), tail);
        assert!(percentile(&burst, 0.9) > 2.0);
    }
}
