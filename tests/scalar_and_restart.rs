//! Integration: the extension features — passive-scalar transport and
//! checkpoint/restart — compose with the solver across backends and rank
//! counts.

use psdns::comm::Universe;
use psdns::core::stats::flow_stats;
use psdns::core::{
    reslice, scalar_single_mode, taylor_green, A2aMode, Checkpoint, GpuSlabFft, LocalShape,
    NavierStokes, NsConfig, PassiveScalar, SlabFftCpu, SpectralField, TimeScheme,
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
fn scalar_mixing_identical_on_cpu_and_gpu_backends() {
    let n = 16;
    let out = Universe::run(2, move |comm| {
        let shape = LocalShape::new(n, 2, comm.rank());
        let run_cpu = {
            let mut ns = NavierStokes::new(
                SlabFftCpu::<f64>::new(shape, comm.clone()),
                cfg(0.01, 2e-3),
                taylor_green(shape),
            );
            let mut sc = PassiveScalar::new(0.02, scalar_single_mode(shape, 1));
            for _ in 0..4 {
                sc.step(&mut ns);
                ns.step();
            }
            sc.theta
        };
        let run_gpu = {
            let dev = Device::new(DeviceConfig::tiny(64 << 20));
            let mut ns = NavierStokes::new(
                GpuSlabFft::<f64>::builder(shape)
                    .comm(comm)
                    .devices(vec![dev])
                    .np(2)
                    .a2a_mode(A2aMode::Grouped(2))
                    .build()
                    .expect("valid pipeline configuration"),
                cfg(0.01, 2e-3),
                taylor_green(shape),
            );
            let mut sc = PassiveScalar::new(0.02, scalar_single_mode(shape, 1));
            for _ in 0..4 {
                sc.step(&mut ns);
                ns.step();
            }
            sc.theta
        };
        let mut err = 0.0f64;
        for (a, b) in run_cpu.data.iter().zip(&run_gpu.data) {
            err = err.max((*a - *b).abs());
        }
        err
    });
    for e in out {
        assert!(e < 1e-9, "scalar backend divergence {e}");
    }
}

#[test]
fn restart_mid_run_is_bit_exact_across_rank_counts() {
    let n = 16;
    let leg1 = 4;
    let leg2 = 4;

    // Continuous reference on 2 ranks.
    let reference = Universe::run(2, move |comm| {
        let shape = LocalShape::new(n, 2, comm.rank());
        let mut ns = NavierStokes::new(
            SlabFftCpu::<f64>::new(shape, comm),
            cfg(0.02, 1e-3),
            taylor_green(shape),
        );
        for _ in 0..leg1 + leg2 {
            ns.step();
        }
        (
            ns.u[0].data.clone(),
            flow_stats(&ns.u, 0.02, ns.backend.comm()).energy,
        )
    });

    // Leg 1 on 4 ranks, checkpoint, re-slice to 2, finish there.
    let parts: Vec<Checkpoint> = Universe::run(4, move |comm| {
        let shape = LocalShape::new(n, 4, comm.rank());
        let mut ns = NavierStokes::new(
            SlabFftCpu::<f64>::new(shape, comm),
            cfg(0.02, 1e-3),
            taylor_green(shape),
        );
        for _ in 0..leg1 {
            ns.step();
        }
        let bytes =
            Checkpoint::capture(&[&ns.u[0], &ns.u[1], &ns.u[2]], ns.time, ns.step_count).encode();
        Checkpoint::decode(&bytes).unwrap()
    });
    let resliced = reslice(&parts, 2);

    let resumed = Universe::run(2, move |comm| {
        let shape = LocalShape::new(n, 2, comm.rank());
        let fields: Vec<SpectralField<f64>> = resliced[comm.rank()].restore(shape).unwrap();
        let mut ns = NavierStokes::new(
            SlabFftCpu::<f64>::new(shape, comm),
            cfg(0.02, 1e-3),
            [fields[0].clone(), fields[1].clone(), fields[2].clone()],
        );
        for _ in 0..leg2 {
            ns.step();
        }
        (
            ns.u[0].data.clone(),
            flow_stats(&ns.u, 0.02, ns.backend.comm()).energy,
        )
    });

    for ((ud, ue), (rd, re)) in reference.iter().zip(&resumed) {
        assert!((ue - re).abs() < 1e-14, "energy differs: {ue} vs {re}");
        for (a, b) in ud.iter().zip(rd) {
            assert!((*a - *b).abs() < 1e-12, "field differs after restart");
        }
    }
}

#[test]
fn scalar_variance_decays_under_mixing_with_diffusion() {
    // Advection + diffusion: variance strictly decreases (mixing enhances
    // scalar gradients, diffusion destroys variance).
    let out = Universe::run(2, |comm| {
        let shape = LocalShape::new(16, 2, comm.rank());
        let mut ns = NavierStokes::new(
            SlabFftCpu::<f64>::new(shape, comm),
            cfg(0.005, 5e-3),
            taylor_green(shape),
        );
        let mut sc = PassiveScalar::new(0.5, scalar_single_mode(shape, 1));
        let mut vars = vec![sc.variance(ns.backend.comm())];
        for _ in 0..30 {
            sc.step(&mut ns);
            ns.step();
            vars.push(sc.variance(ns.backend.comm()));
        }
        vars
    });
    for vars in out {
        for w in vars.windows(2) {
            assert!(w[1] < w[0] * (1.0 + 1e-12), "variance must not grow: {w:?}");
        }
        assert!(
            vars.last().unwrap() < &(vars[0] * 0.9),
            "no mixing happened"
        );
    }
}
