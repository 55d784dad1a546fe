//! The paper's core mechanism at laptop scale: a distributed 3-D FFT whose
//! per-rank slab does **not** fit in device memory, executed by the batched
//! asynchronous pipeline (Fig. 4) — pencils streamed through a transfer
//! stream and a compute stream with events, all-to-all per pencil or per
//! slab, on deliberately tiny simulated V100s.
//!
//! ```text
//! cargo run --release --example out_of_core_fft
//! ```

use psdns::comm::Universe;
use psdns::core::{A2aMode, GpuSlabFft, LocalShape, PhysicalField, SlabFftCpu, Transform3d};
use psdns::device::{Device, DeviceConfig, SpanKind};

fn main() {
    let n = 48;
    let ranks = 2;
    let nv = 3;

    // A slab of nv complex f32 fields at N = 48 over 2 ranks is
    // nv · (N/2+1) · N · N/2 · 8 B ≈ 6.9 MB; give each "GPU" only 4 MB so a
    // whole slab cannot fit and pencil batching becomes mandatory —
    // exactly the paper's situation at 18432³ on a 16 GB V100 (§3.5).
    let hbm = 4 << 20;

    println!("out-of-core distributed FFT: N = {n}, {ranks} ranks, {nv} variables");
    println!(
        "device memory per GPU: {} MB (slab does not fit)\n",
        hbm >> 20
    );

    let reports = Universe::run(ranks, move |comm| {
        let shape = LocalShape::new(n, ranks, comm.rank());

        // Pick the smallest pencil count that fits — Table 1's logic, live.
        let np =
            GpuSlabFft::<f32>::auto_np(shape, 2 * nv, 1, hbm).expect("some pencil count must fit");

        let device = Device::new(DeviceConfig::tiny(hbm));
        device.timeline().set_enabled(true);
        let mut gpu = GpuSlabFft::<f32>::builder(shape)
            .comm(comm.clone())
            .devices(vec![device.clone()])
            .np(np)
            .a2a_mode(A2aMode::PerPencil)
            .build()
            .expect("valid pipeline configuration");
        let mut cpu = SlabFftCpu::<f32>::new(shape, comm);

        // Random-ish physical input, transform out-of-core, verify vs CPU.
        let phys: Vec<PhysicalField<f32>> = (0..nv)
            .map(|v| {
                let data = (0..shape.phys_len())
                    .map(|i| ((i * (v + 2) + shape.rank) as f32 * 0.0123).sin())
                    .collect();
                PhysicalField::from_data(shape, data)
            })
            .collect();

        let spec_gpu = gpu.try_physical_to_fourier(&phys).expect("np fits");
        let spec_cpu = cpu.physical_to_fourier(&phys);
        let mut max_err = 0.0f32;
        for (a, b) in spec_gpu.iter().zip(&spec_cpu) {
            for (x, y) in a.data.iter().zip(&b.data) {
                max_err = max_err.max((*x - *y).abs());
            }
        }

        let (h2d, d2h, copies, kernels) = device.stats().snapshot();
        let busy = device.timeline().busy_by_kind();
        let kernel_us: f64 = busy
            .iter()
            .filter(|(k, _)| *k == SpanKind::Kernel)
            .map(|(_, t)| *t)
            .sum();
        let copy_us: f64 = busy
            .iter()
            .filter(|(k, _)| matches!(k, SpanKind::CopyH2D | SpanKind::CopyD2H))
            .map(|(_, t)| *t)
            .sum();
        (np, max_err, h2d, d2h, copies, kernels, kernel_us, copy_us)
    });

    for (rank, (np, err, h2d, d2h, copies, kernels, k_us, c_us)) in reports.iter().enumerate() {
        println!("rank {rank}:");
        println!("  pencils per slab (auto-sized):   {np}");
        println!("  max |GPU - CPU| spectral error:  {err:.3e}");
        println!("  H2D bytes: {h2d}   D2H bytes: {d2h}");
        println!("  copy-engine calls: {copies}   kernel launches: {kernels}");
        println!(
            "  device busy: {:.1} ms kernels, {:.1} ms copies",
            k_us / 1e3,
            c_us / 1e3
        );
    }
    println!("\nThe transform ran with slabs that never fit on the device —");
    println!("the asynchronous pencil batching of paper §3.4, verified bit-close");
    println!("against the host implementation.");
}
