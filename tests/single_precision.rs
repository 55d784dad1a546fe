//! Integration: single-precision (f32) execution — the paper's production
//! precision (§3.5's memory estimates assume 4-byte words). The whole stack
//! is generic over the scalar; f32 runs must work end-to-end and track the
//! f64 reference within single-precision tolerance.

use psdns::comm::Universe;
use psdns::core::stats::flow_stats;
use psdns::core::{
    taylor_green, A2aMode, GpuSlabFft, LocalShape, NavierStokes, NsConfig, SlabFftCpu, TimeScheme,
    Transform3d,
};
use psdns::device::{Device, DeviceConfig};

fn cfg(nu: f64, dt: f64) -> NsConfig {
    NsConfig {
        nu,
        dt,
        scheme: TimeScheme::Rk2,
        forcing: None,
        dealias: true,
        phase_shift: false,
    }
}

#[test]
fn f32_solver_tracks_f64_reference() {
    let n = 16;
    let steps = 10;
    let out = Universe::run(2, move |comm| {
        let shape = LocalShape::new(n, 2, comm.rank());
        let mut ns64 = NavierStokes::new(
            SlabFftCpu::<f64>::new(shape, comm.clone()),
            cfg(0.02, 2e-3),
            taylor_green::<f64>(shape),
        );
        let mut ns32 = NavierStokes::new(
            SlabFftCpu::<f32>::new(shape, comm),
            cfg(0.02, 2e-3),
            taylor_green::<f32>(shape),
        );
        for _ in 0..steps {
            ns64.step();
            ns32.step();
        }
        let e64 = flow_stats(&ns64.u, 0.02, ns64.backend.comm()).energy;
        let e32 = flow_stats(&ns32.u, 0.02, ns32.backend.comm()).energy;
        let div32 = flow_stats(&ns32.u, 0.02, ns32.backend.comm()).max_divergence;
        (e64, e32, div32)
    });
    for (e64, e32, div32) in out {
        let rel = ((e64 - e32) / e64).abs();
        assert!(rel < 1e-4, "f32 energy drift {rel} ({e32} vs {e64})");
        assert!(div32 < 1e-5, "f32 divergence {div32}");
    }
}

#[test]
fn f32_out_of_core_pipeline_is_exact_vs_f32_host() {
    // The device path must introduce no error beyond f32 arithmetic
    // reordering (same plans, same order → bitwise-close).
    let n = 24;
    let out = Universe::run(2, move |comm| {
        let shape = LocalShape::new(n, 2, comm.rank());
        let dev = Device::new(DeviceConfig::tiny(16 << 20));
        let mut gpu = GpuSlabFft::<f32>::builder(shape)
            .comm(comm.clone())
            .devices(vec![dev])
            .np(3)
            .a2a_mode(A2aMode::PerPencil)
            .build()
            .expect("valid pipeline configuration");
        let mut cpu = SlabFftCpu::<f32>::new(shape, comm);
        let phys: Vec<psdns::core::PhysicalField<f32>> = (0..3)
            .map(|v| {
                let data = (0..shape.phys_len())
                    .map(|i| ((i * (v + 2)) as f32 * 0.011).sin())
                    .collect();
                psdns::core::PhysicalField::from_data(shape, data)
            })
            .collect();
        let a = gpu.try_physical_to_fourier(&phys).unwrap();
        let b = cpu.physical_to_fourier(&phys);
        let mut err = 0.0f32;
        for (x, y) in a.iter().zip(&b) {
            for (u, v) in x.data.iter().zip(&y.data) {
                err = err.max((*u - *v).abs());
            }
        }
        err
    });
    for e in out {
        assert_eq!(e, 0.0, "device path must be bit-identical to host in f32");
    }
}

#[test]
fn f32_memory_footprint_is_half_of_f64() {
    // The reason the paper runs single precision: memory. Verify the device
    // accounting reflects it.
    let shape = LocalShape::new(32, 2, 0);
    let b32 = GpuSlabFft::<f32>::required_bytes_per_device(shape, 3, 3, 1);
    let b64 = GpuSlabFft::<f64>::required_bytes_per_device(shape, 3, 3, 1);
    assert_eq!(b64, 2 * b32);
}
