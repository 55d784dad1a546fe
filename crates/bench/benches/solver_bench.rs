//! Full Navier–Stokes step timing at laptop scale, across backends and
//! Runge–Kutta schemes (paper §2: RK4 ≈ 2× RK2 per step).
use criterion::{criterion_group, criterion_main, Criterion};
use psdns_comm::Universe;
use psdns_core::{
    taylor_green, A2aMode, GpuSlabFft, LocalShape, NavierStokes, NsConfig, SlabFftCpu, TimeScheme,
};
use psdns_device::{Device, DeviceConfig};

const N: usize = 24;
const P: usize = 2;

fn bench_steps(c: &mut Criterion) {
    let mut g = c.benchmark_group("ns_step");
    g.sample_size(10);

    for (label, scheme) in [("rk2_cpu", TimeScheme::Rk2), ("rk4_cpu", TimeScheme::Rk4)] {
        g.bench_function(label, |b| {
            b.iter(|| {
                Universe::run(P, |comm| {
                    let shape = LocalShape::new(N, P, comm.rank());
                    let backend = SlabFftCpu::<f64>::new(shape, comm);
                    let mut ns = NavierStokes::new(
                        backend,
                        NsConfig {
                            nu: 0.02,
                            dt: 1e-3,
                            scheme,
                            forcing: None,
                            dealias: true,
                            phase_shift: false,
                        },
                        taylor_green(shape),
                    );
                    ns.step();
                    ns.step_count
                })
            });
        });
    }

    g.bench_function("rk2_gpu_async", |b| {
        b.iter(|| {
            Universe::run(P, |comm| {
                let shape = LocalShape::new(N, P, comm.rank());
                let dev = Device::new(DeviceConfig::tiny(256 << 20));
                let backend = GpuSlabFft::<f64>::builder(shape)
                    .comm(comm)
                    .devices(vec![dev])
                    .np(2)
                    .a2a_mode(A2aMode::PerSlab)
                    .build()
                    .expect("valid pipeline configuration");
                let mut ns = NavierStokes::new(
                    backend,
                    NsConfig {
                        nu: 0.02,
                        dt: 1e-3,
                        scheme: TimeScheme::Rk2,
                        forcing: None,
                        dealias: true,
                        phase_shift: false,
                    },
                    taylor_green(shape),
                );
                ns.step();
                ns.step_count
            })
        });
    });
    g.finish();
}

criterion_group!(benches, bench_steps);
criterion_main!(benches);
