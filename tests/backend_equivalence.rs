//! Integration: every transform backend — CPU slab, the whole-slab GPU
//! algorithm (Fig. 2, the pipeline at `np = 1`), asynchronous batched GPU
//! (Fig. 4) in both all-to-all modes, single- and multi-device, and the 2-D
//! pencil CPU baseline — must compute the *same* distributed 3-D FFT.

use psdns::comm::Universe;
use psdns::core::{
    A2aMode, GpuSlabFft, LocalShape, PencilFftCpu, PhysicalField, SlabFftCpu, Transform3d,
};
use psdns::device::{Device, DeviceConfig};
use psdns::fft::Complex64;

const N: usize = 24;

fn global_phys(x: usize, y: usize, z: usize, v: usize) -> f64 {
    ((x as f64 * 0.61 + y as f64 * 1.27 + z as f64 * 0.35 + v as f64).sin()) * 0.8 + 0.1
}

/// Gather per-rank slab spectra into a single global array indexed
/// (x, y, z) for comparison across decompositions.
fn gather_slab(
    results: &[(usize, Vec<Vec<Complex64>>)],
    p: usize,
    nv: usize,
) -> Vec<Vec<Complex64>> {
    let nxh = N / 2 + 1;
    let mz = N / p;
    let mut global = vec![vec![Complex64::zero(); nxh * N * N]; nv];
    for (rank, fields) in results {
        for (v, data) in fields.iter().enumerate() {
            for zl in 0..mz {
                let z = rank * mz + zl;
                for y in 0..N {
                    for x in 0..nxh {
                        global[v][x + nxh * (y + N * z)] = data[x + nxh * (y + N * zl)];
                    }
                }
            }
        }
    }
    global
}

fn run_slab_backend<F>(p: usize, nv: usize, make: F) -> Vec<Vec<Complex64>>
where
    F: Fn(LocalShape, psdns::comm::Communicator) -> Box<dyn Transform3d<f64>> + Send + Sync,
{
    let results = Universe::run(p, |comm| {
        let shape = LocalShape::new(N, p, comm.rank());
        let rank = comm.rank();
        let mut backend = make(shape, comm);
        let phys: Vec<PhysicalField<f64>> = (0..nv)
            .map(|v| {
                let mut f = PhysicalField::zeros(shape);
                for z in 0..N {
                    for yl in 0..shape.my {
                        for x in 0..N {
                            *f.at_mut(x, yl, z) = global_phys(x, shape.y_global(yl), z, v);
                        }
                    }
                }
                f
            })
            .collect();
        let spec = backend.physical_to_fourier(&phys);
        (rank, spec.into_iter().map(|s| s.data).collect::<Vec<_>>())
    });
    gather_slab(&results, p, nv)
}

#[test]
fn all_backends_agree_on_the_spectrum() {
    let p = 2;
    let nv = 2;
    let reference = run_slab_backend(p, nv, |shape, comm| {
        Box::new(SlabFftCpu::<f64>::new(shape, comm))
    });

    let candidates: Vec<(&str, Vec<Vec<Complex64>>)> = vec![
        (
            "gpu_whole_slab",
            run_slab_backend(p, nv, |shape, comm| {
                let dev = Device::new(DeviceConfig::tiny(64 << 20));
                Box::new(
                    GpuSlabFft::<f64>::builder(shape)
                        .comm(comm)
                        .devices(vec![dev])
                        .np(1)
                        .a2a_mode(A2aMode::PerSlab)
                        .build()
                        .expect("valid pipeline configuration"),
                )
            }),
        ),
        (
            "gpu_async_per_slab",
            run_slab_backend(p, nv, |shape, comm| {
                let dev = Device::new(DeviceConfig::tiny(64 << 20));
                Box::new(
                    GpuSlabFft::<f64>::builder(shape)
                        .comm(comm)
                        .devices(vec![dev])
                        .np(3)
                        .a2a_mode(A2aMode::PerSlab)
                        .build()
                        .expect("valid pipeline configuration"),
                )
            }),
        ),
        (
            "gpu_async_per_pencil",
            run_slab_backend(p, nv, |shape, comm| {
                let dev = Device::new(DeviceConfig::tiny(64 << 20));
                Box::new(
                    GpuSlabFft::<f64>::builder(shape)
                        .comm(comm)
                        .devices(vec![dev])
                        .np(4)
                        .a2a_mode(A2aMode::PerPencil)
                        .build()
                        .expect("valid pipeline configuration"),
                )
            }),
        ),
        (
            "gpu_async_multi_device",
            run_slab_backend(p, nv, |shape, comm| {
                let devs = (0..3)
                    .map(|_| Device::new(DeviceConfig::tiny(64 << 20)))
                    .collect();
                Box::new(
                    GpuSlabFft::<f64>::builder(shape)
                        .comm(comm)
                        .devices(devs)
                        .np(2)
                        .a2a_mode(A2aMode::PerSlab)
                        .build()
                        .expect("valid pipeline configuration"),
                )
            }),
        ),
    ];

    for (name, spec) in candidates {
        for v in 0..nv {
            for (i, (a, b)) in spec[v].iter().zip(&reference[v]).enumerate() {
                assert!(
                    (*a - *b).abs() < 1e-9,
                    "{name} var {v} idx {i}: {a:?} vs {b:?}"
                );
            }
        }
    }
}

/// Pin the spectra across the kernel swap: the distributed transforms (now
/// running the iterative Stockham kernels) must reproduce the spectrum of
/// the frozen pre-PR recursive kernel, computed serially in a single address
/// space with `ReferencePlan`.
#[test]
fn spectrum_pinned_to_frozen_reference_kernel() {
    use psdns::fft::{Direction, ReferencePlan};

    let p = 2;
    let nv = 2;
    let nxh = N / 2 + 1;
    let live = run_slab_backend(p, nv, |shape, comm| {
        Box::new(SlabFftCpu::<f64>::new(shape, comm))
    });

    let plan = ReferencePlan::<f64>::new(N);
    for (v, live_spec) in live.iter().enumerate().take(nv) {
        // Full complex forward 3-D DFT with the frozen kernel, x fastest.
        let mut data: Vec<Complex64> = (0..N * N * N)
            .map(|i| {
                let (x, y, z) = (i % N, (i / N) % N, i / (N * N));
                Complex64::new(global_phys(x, y, z, v), 0.0)
            })
            .collect();
        plan.execute_many(&mut data, 1, N, N * N, Direction::Forward);
        for z in 0..N {
            let base = z * N * N;
            plan.execute_many(&mut data[base..base + N * N], N, 1, N, Direction::Forward);
        }
        for y in 0..N {
            let base = y * N;
            let end = base + (N - 1) * N * N + N;
            plan.execute_many(&mut data[base..end], N * N, 1, N, Direction::Forward);
        }
        for z in 0..N {
            for y in 0..N {
                for x in 0..nxh {
                    let got = live_spec[x + nxh * (y + N * z)];
                    let want = data[x + N * (y + N * z)];
                    assert!(
                        (got - want).abs() < 1e-9,
                        "var {v} mode ({x},{y},{z}): live {got:?} vs frozen {want:?}"
                    );
                }
            }
        }
    }
}

/// The `DeviceBackend` pin: the *same* certified pipeline schedule run on
/// the simulated accelerator and on the eager host-CPU executor must give
/// **byte-identical** spectra — not merely close. Both backends execute the
/// identical kernel closures in the identical order (the schedule is fixed
/// at enqueue time above the trait), so every floating-point operation
/// happens in the same sequence and the results match to the last bit.
#[test]
fn simulated_and_host_backends_agree_bitwise() {
    use psdns::device::BackendKind;

    let p = 2;
    let nv = 2;
    let run = |kind: BackendKind| {
        run_slab_backend(p, nv, move |shape, comm| {
            let dev = Device::with_kind(kind, DeviceConfig::tiny(64 << 20));
            Box::new(
                GpuSlabFft::<f64>::builder(shape)
                    .comm(comm)
                    .devices(vec![dev])
                    .np(3)
                    .a2a_mode(A2aMode::PerPencil)
                    .host_threads(3)
                    .build()
                    .expect("valid pipeline configuration"),
            )
        })
    };
    let sim = run(BackendKind::Simulated);
    let host = run(BackendKind::Host);
    for v in 0..nv {
        for (i, (a, b)) in sim[v].iter().zip(&host[v]).enumerate() {
            assert_eq!(
                (a.re.to_bits(), a.im.to_bits()),
                (b.re.to_bits(), b.im.to_bits()),
                "var {v} idx {i}: simulated {a:?} != host {b:?}"
            );
        }
    }
}

/// `analyze_schedule` certification is backend-independent: the shadow
/// replay inherits the pipeline's backend kind, and the recorded schedule
/// must be hazard-free on the simulated *and* the host executor.
#[test]
fn analyze_schedule_passes_on_every_backend() {
    use psdns::device::BackendKind;

    for kind in [BackendKind::Simulated, BackendKind::Host] {
        let reports = Universe::run(1, move |comm| {
            let shape = LocalShape::new(16, 1, 0);
            let dev = Device::with_kind(kind, DeviceConfig::tiny(64 << 20));
            let fft = GpuSlabFft::<f64>::builder(shape)
                .comm(comm)
                .devices(vec![dev])
                .np(2)
                .nv(2)
                .a2a_mode(A2aMode::PerPencil)
                .build()
                .expect("valid pipeline configuration");
            let report = fft
                .analyze_schedule()
                .unwrap_or_else(|e| panic!("{kind:?} backend schedule not certified: {e}"));
            (report.ops, report.cross_stream_edges)
        });
        let (ops, edges) = reports[0];
        assert!(
            ops > 0 && edges > 0,
            "{kind:?} certification saw no schedule"
        );
    }
}

#[test]
fn pencil_decomposition_agrees_with_slab() {
    // The 2-D baseline distributes differently; compare via a gathered
    // global spectrum (kx, y, z) with y distributed over pc, x over pr.
    let nv = 1;
    let reference = run_slab_backend(2, nv, |shape, comm| {
        Box::new(SlabFftCpu::<f64>::new(shape, comm))
    });

    let (pr, pc) = (2usize, 2usize);
    let nxh = N / 2 + 1;
    let results = Universe::run(pr * pc, move |comm| {
        let mut fft = PencilFftCpu::<f64>::new(N, pr, pc, comm);
        let (row, col) = fft.coords;
        let (my, mz) = (fft.decomp.my(), fft.decomp.mz());
        let mut phys = vec![0.0f64; fft.phys_len()];
        for zl in 0..mz {
            for yl in 0..my {
                for x in 0..N {
                    phys[fft.phys_idx(x, yl, zl)] = global_phys(x, row * my + yl, col * mz + zl, 0);
                }
            }
        }
        let spec = fft.physical_to_fourier(std::slice::from_ref(&phys));
        (
            row,
            col,
            fft.xw(),
            fft.yw(),
            spec.into_iter().next().unwrap(),
        )
    });

    for (row, col, xw, yw, spec) in results {
        let xr_start = psdns::domain::split_even(nxh, pr, row).start;
        for z in 0..N {
            for yl in 0..yw {
                let y = col * yw + yl;
                for xi in 0..xw {
                    let x = xr_start + xi;
                    let got = spec[xi + xw * (yl + yw * z)];
                    let want = reference[0][x + nxh * (y + N * z)];
                    assert!(
                        (got - want).abs() < 1e-9,
                        "pencil ({row},{col}) mode ({x},{y},{z}): {got:?} vs {want:?}"
                    );
                }
            }
        }
    }
}
