//! Perf baseline runner: times the live compute kernels side by side with
//! the frozen pre-Stockham [`ReferencePlan`] and writes the machine-readable
//! baselines `BENCH_fft.json` and `BENCH_pipeline.json` (JSON Lines, same
//! schema as the criterion shim's `CRITERION_JSON` output).
//!
//! Usage:
//!
//! ```text
//! baseline [--smoke] [--check] [--out-dir DIR] [--factor F]
//! ```
//!
//! * `--smoke`   — one timed iteration per benchmark (CI-friendly).
//! * `--check`   — do not overwrite the committed baselines; instead compare
//!   the fresh run against them and exit non-zero if any benchmark's
//!   `ns_per_iter` regressed by more than `--factor` (default 2.0). Used by
//!   the `bench-smoke` stage of `ci.sh`.
//! * `--out-dir` — where the baselines live (default: current directory,
//!   i.e. the workspace root under `cargo run`).

use std::path::PathBuf;
use std::time::Instant;

use psdns_bench::{parse_bench_file, regressions, render_bench_file, BenchRecord};
use psdns_comm::{Universe, WatchdogPolicy};
use psdns_core::{
    taylor_green, A2aMode, GpuSlabFft, IntegrityConfig, LocalShape, NavierStokes, NsConfig,
    PencilFftCpu, PhysicalField, SlabFftCpu, TimeScheme, Transform3d,
};
use psdns_device::{Device, DeviceConfig};
use psdns_fft::simd::{set_codelet_mode, CodeletMode};
use psdns_fft::{
    fft_3d, Complex64, Dims3, Direction, FftPlan, ManyPlan, ManyRealPlan, RealFftPlan,
    ReferencePlan,
};

struct Opts {
    smoke: bool,
    check: bool,
    out_dir: PathBuf,
    factor: f64,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        smoke: false,
        check: false,
        out_dir: PathBuf::from("."),
        factor: 2.0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => opts.smoke = true,
            "--check" => opts.check = true,
            "--out-dir" => {
                opts.out_dir = PathBuf::from(args.next().expect("--out-dir needs a value"))
            }
            "--factor" => {
                opts.factor = args
                    .next()
                    .expect("--factor needs a value")
                    .parse()
                    .expect("--factor must be a number")
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    opts
}

/// Mean wall-clock nanoseconds per call of `f` over `iters` calls, after one
/// warmup call (which also populates plan-owned scratch pools so steady-state
/// behaviour is what gets timed).
fn time_ns<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn record(group: &str, bench: &str, ns: f64, elems: usize) -> BenchRecord {
    let r = BenchRecord {
        group: group.to_string(),
        bench: bench.to_string(),
        ns_per_iter: ns,
        elems_per_sec: (ns > 0.0).then(|| elems as f64 / (ns * 1e-9)),
    };
    println!(
        "{:<44} {:>14.0} ns/iter  {:>10.3} Melem/s",
        r.key(),
        ns,
        elems as f64 / (ns * 1e-9) / 1e6
    );
    r
}

/// The pre-PR serial 3-D transform: the exact axis order of `fft_3d` but
/// every 1-D line through the frozen recursive kernel and its per-line
/// gather/scatter batch loop.
fn ref_fft3d(plan: &ReferencePlan<f64>, data: &mut [Complex64], n: usize, dir: Direction) {
    for z in 0..n {
        let base = z * n * n;
        plan.execute_many(&mut data[base..base + n * n], n, 1, n, dir);
    }
    for y in 0..n {
        let base = y * n;
        let end = base + (n - 1) * n * n + n;
        plan.execute_many(&mut data[base..end], n * n, 1, n, dir);
    }
    plan.execute_many(data, 1, n, n * n, dir);
}

fn test_signal(len: usize) -> Vec<Complex64> {
    (0..len)
        .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()))
        .collect()
}

fn bench_fft(smoke: bool) -> Vec<BenchRecord> {
    let mut recs = Vec::new();

    // 1-D complex transforms: live Stockham kernel vs frozen recursive DIT.
    for n in [256usize, 768] {
        let iters = if smoke { 20 } else { 5000 };
        let plan = FftPlan::<f64>::new(n);
        let reference = ReferencePlan::<f64>::new(n);
        let mut data = test_signal(n);
        let mut scratch = vec![Complex64::zero(); plan.scratch_len().max(n)];
        let ns = time_ns(iters, || {
            plan.execute_with_scratch(&mut data, &mut scratch, Direction::Forward)
        });
        recs.push(record("fft_c2c_1d", &format!("stockham/{n}"), ns, n));
        let ns = time_ns(iters, || {
            reference.execute_with_scratch(&mut data, &mut scratch, Direction::Forward)
        });
        recs.push(record("fft_c2c_1d", &format!("reference/{n}"), ns, n));
    }

    // 1-D r2c: the half-length packed real transform vs the full c2c at the
    // same length (the x-direction transform of the velocity fields).
    for n in [256usize, 768] {
        let iters = if smoke { 20 } else { 5000 };
        let plan = RealFftPlan::<f64>::new(n);
        let reals: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut spec = vec![Complex64::zero(); n / 2 + 1];
        let mut scratch = vec![Complex64::zero(); plan.scratch_len()];
        let ns = time_ns(iters, || {
            plan.forward_with_scratch(&reals, &mut spec, &mut scratch)
        });
        recs.push(record("fft_r2c_1d", &format!("packed/{n}"), ns, n));
    }

    // SIMD lane A/B: the same 1-D c2c with the vectorized codelets against
    // the forced 1-lane instantiation (what `PSDNS_SIMD=off` gives).
    {
        let n = 256usize;
        let iters = if smoke { 20 } else { 5000 };
        let plan = FftPlan::<f64>::new(n);
        let mut data = test_signal(n);
        let mut scratch = vec![Complex64::zero(); plan.scratch_len().max(n)];
        for (mode, label) in [(CodeletMode::Auto, "auto"), (CodeletMode::Scalar, "scalar")] {
            set_codelet_mode(mode);
            let ns = time_ns(iters, || {
                plan.execute_with_scratch(&mut data, &mut scratch, Direction::Forward)
            });
            recs.push(record("fft_simd", &format!("{label}/{n}"), ns, n));
        }
        set_codelet_mode(CodeletMode::Auto);
    }

    // Serial 3-D c2c — the acceptance benchmark: 256^3 single-rank, new
    // kernel vs pre-PR kernel.
    for n in [128usize, 256] {
        let iters = if smoke { 1 } else { 3 };
        let dims = Dims3::cube(n);
        let reference = ReferencePlan::<f64>::new(n);
        let mut data = test_signal(dims.len());
        let ns = time_ns(iters, || fft_3d(&mut data, dims, Direction::Forward));
        recs.push(record(
            "fft3d_c2c",
            &format!("stockham/{n}"),
            ns,
            dims.len(),
        ));
        let ns = time_ns(iters, || {
            ref_fft3d(&reference, &mut data, n, Direction::Forward)
        });
        recs.push(record(
            "fft3d_c2c",
            &format!("reference/{n}"),
            ns,
            dims.len(),
        ));
    }

    // Strided batch (pencil y-transform layout): cache-blocked tiles vs the
    // old one-line-at-a-time gather/scatter.
    {
        let (n, width) = (256usize, 64usize);
        let iters = if smoke { 5 } else { 500 };
        let plan = ManyPlan::<f64>::new(n, width, 1, width);
        let reference = ReferencePlan::<f64>::new(n);
        let mut data = test_signal(n * width);
        let mut scratch = vec![Complex64::zero(); plan.scratch_len()];
        let ns = time_ns(iters, || {
            plan.execute_with_scratch(&mut data, &mut scratch, Direction::Forward)
        });
        recs.push(record(
            "fft_strided_many",
            &format!("tiled/{n}x{width}"),
            ns,
            n * width,
        ));
        let ns = time_ns(iters, || {
            reference.execute_many(&mut data, width, 1, width, Direction::Forward)
        });
        recs.push(record(
            "fft_strided_many",
            &format!("reference/{n}x{width}"),
            ns,
            n * width,
        ));
    }

    // Batched r2c over dense pencil lines — the layout every distributed
    // x-transform now uses. Same geometry as the strided c2c batch above so
    // the half-length work saving shows up directly in the elems/s ratio.
    {
        let (n, count) = (256usize, 64usize);
        let iters = if smoke { 5 } else { 500 };
        let plan = ManyRealPlan::<f64>::contiguous(n, count);
        let reals: Vec<f64> = (0..n * count).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut spec = vec![Complex64::zero(); plan.required_spec_len()];
        let mut scratch = vec![Complex64::zero(); plan.scratch_len()];
        let ns = time_ns(iters, || {
            plan.forward_with_scratch(&reals, &mut spec, &mut scratch)
        });
        recs.push(record(
            "fft_r2c_many",
            &format!("packed/{n}x{count}"),
            ns,
            n * count,
        ));
    }

    // Contiguous batch on the persistent worker pool.
    {
        let (n, count) = (512usize, 256usize);
        let iters = if smoke { 3 } else { 100 };
        let plan = ManyPlan::<f64>::contiguous(n, count);
        let mut data = test_signal(n * count);
        for threads in [1usize, 4, 8] {
            let ns = time_ns(iters, || {
                plan.execute_parallel(&mut data, Direction::Forward, threads)
            });
            recs.push(record(
                "fft_parallel",
                &format!("threads/{threads}"),
                ns,
                n * count,
            ));
        }
    }

    // Bluestein fallback (prime length) — no reference counterpart; tracked
    // so the chirp path cannot silently regress.
    {
        let n = 509usize;
        let iters = if smoke { 10 } else { 1000 };
        let plan = FftPlan::<f64>::new(n);
        let mut data = test_signal(n);
        let mut scratch = vec![Complex64::zero(); plan.scratch_len()];
        let ns = time_ns(iters, || {
            plan.execute_with_scratch(&mut data, &mut scratch, Direction::Forward)
        });
        recs.push(record("fft_bluestein", &format!("stockham/{n}"), ns, n));
    }

    recs
}

fn bench_pipeline(smoke: bool) -> Vec<BenchRecord> {
    // Laptop-scale distributed round trips (physical -> Fourier -> physical),
    // mirroring `benches/pipeline_bench.rs`.
    const N: usize = 32;
    const P: usize = 2;
    const NV: usize = 2;
    let iters = if smoke { 1 } else { 5 };
    let elems = N * N * N * NV;
    let mut recs = Vec::new();

    let make_phys = |shape: LocalShape, v: usize| -> PhysicalField<f64> {
        let data = (0..shape.phys_len())
            .map(|i| ((i + v * 37) as f64 * 0.013).sin())
            .collect();
        PhysicalField::from_data(shape, data)
    };

    let ns = time_ns(iters, || {
        Universe::run(P, |comm| {
            let shape = LocalShape::new(N, P, comm.rank());
            let mut fft = SlabFftCpu::<f64>::new(shape, comm);
            let phys: Vec<_> = (0..NV).map(|v| make_phys(shape, v)).collect();
            let spec = fft.physical_to_fourier(&phys);
            fft.fourier_to_physical(&spec).len()
        });
    });
    recs.push(record("pipeline_roundtrip", "cpu_slab", ns, elems));

    let ns = time_ns(iters, || {
        Universe::run(P, |comm| {
            let shape = LocalShape::new(N, P, comm.rank());
            let dev = Device::new(DeviceConfig::tiny(256 << 20));
            let mut fft = GpuSlabFft::<f64>::builder(shape)
                .comm(comm)
                .devices(vec![dev])
                .np(2)
                .nv(NV)
                .a2a_mode(A2aMode::PerSlab)
                .build()
                .expect("valid pipeline configuration");
            let phys: Vec<_> = (0..NV).map(|v| make_phys(shape, v)).collect();
            let spec = fft.physical_to_fourier(&phys);
            fft.fourier_to_physical(&spec).len()
        });
    });
    recs.push(record(
        "pipeline_roundtrip",
        "gpu_async_per_slab",
        ns,
        elems,
    ));

    // Same pipeline with the device-health machinery armed (fence watchdog +
    // coordinated CPU fallback) on a healthy device: the cost of hot-swap
    // *readiness* — deadline-bounded fences, latency observation, the
    // end-of-call vote — in the steady state where nothing ever fails.
    let ns = time_ns(iters, || {
        Universe::run(P, |comm| {
            let shape = LocalShape::new(N, P, comm.rank());
            let dev = Device::new(DeviceConfig::tiny(256 << 20));
            let mut fft = GpuSlabFft::<f64>::builder(shape)
                .comm(comm)
                .devices(vec![dev])
                .np(2)
                .nv(NV)
                .a2a_mode(A2aMode::PerSlab)
                .cpu_fallback(true)
                .watchdog(WatchdogPolicy::default())
                .build()
                .expect("valid pipeline configuration");
            let phys: Vec<_> = (0..NV).map(|v| make_phys(shape, v)).collect();
            let spec = fft.physical_to_fourier(&phys);
            fft.fourier_to_physical(&spec).len()
        });
    });
    recs.push(record("pipeline_roundtrip", "hotswap_armed", ns, elems));

    let (pr, pc) = (2usize, 2usize);
    let ns = time_ns(iters, || {
        Universe::run(pr * pc, |comm| {
            let mut fft = PencilFftCpu::<f64>::new(N, pr, pc, comm);
            let phys: Vec<Vec<f64>> = (0..NV)
                .map(|v| {
                    (0..fft.phys_len())
                        .map(|i| ((i + v * 37) as f64 * 0.013).sin())
                        .collect()
                })
                .collect();
            let spec = fft.physical_to_fourier(&phys);
            fft.fourier_to_physical(&spec).len()
        });
    });
    recs.push(record("pipeline_roundtrip", "pencil_cpu_2x2", ns, elems));

    // Full solver steps with and without the numerical-integrity monitors
    // armed: the steady-state price of SDC *readiness* (invariant sums fused
    // into loops the nonlinear term already runs, the per-step verdict
    // allreduce, the NaN scan in the transpose staging) when nothing ever
    // corrupts. The armed/baseline ratio is gated by
    // `check_pipeline_invariants`; the absolute numbers by the committed
    // baseline like every other benchmark.
    let solver_steps = 2usize;
    let solver_elems = N * N * N * 3 * solver_steps;
    let solver_ns = |armed: bool| {
        time_ns(iters, || {
            Universe::run(P, move |comm| {
                let shape = LocalShape::new(N, P, comm.rank());
                let mut ns = NavierStokes::new(
                    SlabFftCpu::<f64>::new(shape, comm),
                    NsConfig {
                        nu: 0.02,
                        dt: 1e-3,
                        scheme: TimeScheme::Rk2,
                        forcing: None,
                        dealias: true,
                        phase_shift: false,
                    },
                    taylor_green::<f64>(shape),
                );
                if armed {
                    ns.set_integrity(IntegrityConfig::armed());
                }
                for _ in 0..solver_steps {
                    ns.step_verified().expect("fault-free run");
                }
            });
        })
    };
    let ns = solver_ns(false);
    recs.push(record("solver_step", "baseline", ns, solver_elems));
    let ns = solver_ns(true);
    recs.push(record("solver_step", "integrity_armed", ns, solver_elems));

    recs
}

type Suite = fn(bool) -> Vec<BenchRecord>;

fn main() {
    let opts = parse_args();
    let suites: [(&str, Suite); 2] = [
        ("BENCH_fft.json", bench_fft),
        ("BENCH_pipeline.json", bench_pipeline),
    ];

    let mut failures = Vec::new();
    for (file, run) in suites {
        println!("== {file} ==");
        let fresh = run(opts.smoke);
        let path = opts.out_dir.join(file);
        if opts.check {
            let committed = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("--check needs committed {}: {e}", path.display()));
            let baseline = parse_bench_file(&committed);
            failures.extend(regressions(&baseline, &fresh, opts.factor));
            if file == "BENCH_fft.json" {
                failures.extend(check_invariants(&fresh));
            }
            if file == "BENCH_pipeline.json" {
                failures.extend(check_pipeline_invariants(&fresh));
            }
        } else {
            std::fs::write(&path, render_bench_file(&fresh))
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            println!("wrote {}", path.display());
        }
    }

    // Report the headline old->new ratio for the acceptance benchmark.
    if !opts.check {
        report_speedup(&opts);
    }

    if !failures.is_empty() {
        eprintln!("bench-smoke: {} regression(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}

/// Perf invariants beyond the per-benchmark regression factor, enforced on
/// the *fresh* numbers by the `bench-smoke` CI stage:
///
/// * the batched r2c path must beat the strided c2c batch of the same
///   geometry by at least 1.5x in per-element throughput (the half-length
///   packing does ~half the butterfly work) — always;
/// * 4-thread dispatch must reach at least 2x the single-thread rate —
///   only on machines that actually have >= 4 cores to scale across.
fn check_invariants(fresh: &[BenchRecord]) -> Vec<String> {
    let mut fails = Vec::new();
    let find = |group: &str, bench: &str| {
        fresh
            .iter()
            .find(|r| r.group == group && r.bench == bench)
            .and_then(|r| r.elems_per_sec)
    };

    match (
        find("fft_r2c_many", "packed/256x64"),
        find("fft_strided_many", "tiled/256x64"),
    ) {
        (Some(r2c), Some(c2c)) => {
            if r2c < 1.5 * c2c {
                fails.push(format!(
                    "fft_r2c_many packed/256x64 ({:.1} Melem/s) below 1.5x \
                     fft_strided_many tiled/256x64 ({:.1} Melem/s)",
                    r2c / 1e6,
                    c2c / 1e6
                ));
            }
        }
        _ => fails.push("r2c-vs-c2c gate: benchmarks missing from fresh run".to_string()),
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores >= 4 {
        match (
            find("fft_parallel", "threads/1"),
            find("fft_parallel", "threads/4"),
        ) {
            (Some(t1), Some(t4)) => {
                if t4 < 2.0 * t1 {
                    fails.push(format!(
                        "fft_parallel threads/4 ({:.1} Melem/s) below 2x \
                         threads/1 ({:.1} Melem/s) on a {cores}-core machine",
                        t4 / 1e6,
                        t1 / 1e6
                    ));
                }
            }
            _ => fails.push("parallel-efficiency gate: benchmarks missing from fresh run".into()),
        }
    } else {
        println!(
            "bench-smoke: SKIP parallel-efficiency gate — only {cores} core(s) \
             available, cannot measure 4-thread scaling on this machine"
        );
    }
    fails
}

/// Pipeline-suite invariant, enforced on the *fresh* numbers like the FFT
/// gates above: arming the numerical-integrity monitors on a fault-free
/// solve must cost well under 2x — the monitors add energy/orthogonality
/// accumulation passes, one verdict allreduce and a pre-step state clone
/// per step (~20% at this laptop-scale problem, amortizing toward noise as
/// N grows since the transposes dominate). Mirrors the `hotswap_armed`
/// readiness benchmark: the price of being *ready* to heal is bounded.
fn check_pipeline_invariants(fresh: &[BenchRecord]) -> Vec<String> {
    let find = |bench: &str| {
        fresh
            .iter()
            .find(|r| r.group == "solver_step" && r.bench == bench)
            .map(|r| r.ns_per_iter)
    };
    match (find("baseline"), find("integrity_armed")) {
        (Some(base), Some(armed)) if armed > 2.0 * base => vec![format!(
            "solver_step integrity_armed ({armed:.0} ns/iter) above 2x \
             baseline ({base:.0} ns/iter): integrity monitors too expensive"
        )],
        (Some(_), Some(_)) => Vec::new(),
        _ => vec!["integrity-overhead gate: benchmarks missing from fresh run".to_string()],
    }
}

fn report_speedup(opts: &Opts) {
    let path = opts.out_dir.join("BENCH_fft.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        return;
    };
    let recs = parse_bench_file(&text);
    let find = |bench: &str| {
        recs.iter()
            .find(|r| r.group == "fft3d_c2c" && r.bench == bench)
            .map(|r| r.ns_per_iter)
    };
    if let (Some(new), Some(old)) = (find("stockham/256"), find("reference/256")) {
        println!(
            "fft3d_c2c/256: reference {old:.0} ns -> stockham {new:.0} ns ({:.2}x speedup)",
            old / new
        );
    }
}
