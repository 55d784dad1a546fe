//! Integration: the Navier–Stokes solver produces the same physics on the
//! CPU and the out-of-core asynchronous GPU backend, and that physics is
//! correct (analytic decay, conservation, stationarity under forcing).

use psdns::comm::Universe;
use psdns::core::stats::flow_stats;
use psdns::core::{
    energy_spectrum, normalize_energy, random_solenoidal, taylor_green, A2aMode, Forcing,
    GpuSlabFft, LocalShape, NavierStokes, NsConfig, SlabFftCpu, TimeScheme,
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
fn cpu_and_async_gpu_solvers_track_each_other() {
    let n = 16;
    let p = 2;
    let steps = 5;
    let out = Universe::run(p, move |comm| {
        let shape = LocalShape::new(n, p, comm.rank());

        let mut cpu = NavierStokes::new(
            SlabFftCpu::<f64>::new(shape, comm.clone()),
            cfg(0.02, 2e-3),
            taylor_green(shape),
        );
        let dev = Device::new(DeviceConfig::tiny(64 << 20));
        let mut gpu = NavierStokes::new(
            GpuSlabFft::<f64>::builder(shape)
                .comm(comm)
                .devices(vec![dev])
                .np(3)
                .a2a_mode(A2aMode::PerPencil)
                .build()
                .expect("valid pipeline configuration"),
            cfg(0.02, 2e-3),
            taylor_green(shape),
        );
        for _ in 0..steps {
            cpu.step();
            gpu.step();
        }
        let mut err = 0.0f64;
        for (a, b) in cpu.u.iter().zip(&gpu.u) {
            for (x, y) in a.data.iter().zip(&b.data) {
                err = err.max((*x - *y).abs());
            }
        }
        let e = flow_stats(&cpu.u, 0.02, cpu.backend.comm()).energy;
        (err, e)
    });
    for (err, e) in out {
        assert!(e > 1e-8, "flow must not be trivial");
        assert!(err < 1e-8, "backend divergence {err}");
    }
}

#[test]
fn taylor_green_short_time_decay_rate_is_analytic() {
    // For small t the TG vortex dissipates as dE/dt = −2νΩ with Ω = 3E
    // (all energy at |k|² = 3), so E(t) ≈ E₀·exp(−6νt) until nonlinear
    // transfer builds up (which scales with t²).
    let n = 24;
    let nu = 0.1;
    let dt = 1e-3;
    let steps = 20;
    let out = Universe::run(2, move |comm| {
        let shape = LocalShape::new(n, 2, comm.rank());
        let mut ns = NavierStokes::new(
            SlabFftCpu::<f64>::new(shape, comm),
            cfg(nu, dt),
            taylor_green(shape),
        );
        let e0 = flow_stats(&ns.u, nu, ns.backend.comm()).energy;
        for _ in 0..steps {
            ns.step();
        }
        let e1 = flow_stats(&ns.u, nu, ns.backend.comm()).energy;
        (e0, e1)
    });
    for (e0, e1) in out {
        let t = dt * steps as f64;
        let analytic = e0 * (-6.0 * nu * t).exp();
        let rel = ((e1 - analytic) / analytic).abs();
        assert!(rel < 5e-3, "decay {e1} vs analytic {analytic} (rel {rel})");
    }
}

#[test]
fn forcing_maintains_stationary_energy() {
    let n = 16;
    let out = Universe::run(2, move |comm| {
        let shape = LocalShape::new(n, 2, comm.rank());
        let mut u = random_solenoidal(shape, 3.0, 99);
        normalize_energy(&mut u, 0.4, &comm);
        let mut ns = NavierStokes::new(
            SlabFftCpu::<f64>::new(shape, comm),
            NsConfig {
                nu: 0.02,
                dt: 2e-3,
                scheme: TimeScheme::Rk2,
                forcing: Some(Forcing::new(2.5)),
                dealias: true,
                phase_shift: false,
            },
            u,
        );
        let mut energies = Vec::new();
        for _ in 0..30 {
            ns.step();
            energies.push(flow_stats(&ns.u, 0.02, ns.backend.comm()).energy);
        }
        energies
    });
    for energies in out {
        let first = energies[0];
        let last = *energies.last().unwrap();
        // Forced turbulence: energy must not decay away or blow up.
        assert!(last > 0.3 * first, "energy collapsed: {first} → {last}");
        assert!(last < 3.0 * first, "energy exploded: {first} → {last}");
    }
}

#[test]
fn spectrum_cascade_fills_high_wavenumbers() {
    // Starting from a large-scale field, nonlinear transfer must populate
    // shells beyond the initial k0 band within a few steps.
    let n = 24;
    let out = Universe::run(2, move |comm| {
        let shape = LocalShape::new(n, 2, comm.rank());
        let mut u = random_solenoidal(shape, 2.0, 7);
        normalize_energy(&mut u, 0.5, &comm);
        let mut ns = NavierStokes::new(SlabFftCpu::<f64>::new(shape, comm), cfg(5e-3, 2e-3), u);
        let before = energy_spectrum(&ns.u, ns.backend.comm());
        for _ in 0..10 {
            ns.step();
        }
        let after = energy_spectrum(&ns.u, ns.backend.comm());
        (before, after)
    });
    for (before, after) in out {
        let tail = |s: &[f64]| s.iter().skip(7).sum::<f64>();
        assert!(
            tail(&after) > 10.0 * tail(&before).max(1e-300),
            "no cascade: tail {} → {}",
            tail(&before),
            tail(&after)
        );
    }
}

#[test]
fn rk2_converges_to_rk4_reference_at_second_order() {
    let n = 16;
    let out = Universe::run(1, move |comm| {
        let shape = LocalShape::new(n, 1, 0);
        let run = |dt: f64, scheme: TimeScheme, comm: &psdns::comm::Communicator| {
            let mut ns = NavierStokes::new(
                SlabFftCpu::<f64>::new(shape, comm.clone()),
                NsConfig {
                    nu: 0.05,
                    dt,
                    scheme,
                    forcing: None,
                    dealias: true,
                    phase_shift: false,
                },
                taylor_green(shape),
            );
            let steps = (0.1 / dt).round() as usize;
            for _ in 0..steps {
                ns.step();
            }
            flow_stats(&ns.u, 0.05, ns.backend.comm()).energy
        };
        let reference = run(5e-4, TimeScheme::Rk4, &comm);
        let coarse = (run(2e-2, TimeScheme::Rk2, &comm) - reference).abs();
        let fine = (run(1e-2, TimeScheme::Rk2, &comm) - reference).abs();
        (coarse, fine)
    });
    let (coarse, fine) = out[0];
    let order = (coarse / fine).log2();
    assert!(
        order > 1.5 && order < 2.8,
        "RK2 convergence order {order:.2} (errors {coarse:.2e}, {fine:.2e})"
    );
}
