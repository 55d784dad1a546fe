//! Real-execution pipeline comparison at laptop scale — the miniature
//! counterpart of paper Table 3: the whole-slab GPU transform (Fig. 2, the
//! pipeline at `np = 1`) vs the batched asynchronous pipeline (Fig. 4) in
//! PerSlab (config C) and PerPencil (config B) modes, plus the CPU slab
//! transform.
use criterion::{criterion_group, criterion_main, Criterion};
use psdns_comm::Universe;
use psdns_core::{A2aMode, GpuSlabFft, LocalShape, PhysicalField, SlabFftCpu, Transform3d};
use psdns_device::{Device, DeviceConfig};

const N: usize = 32;
const P: usize = 2;
const NV: usize = 3;

fn make_phys(shape: LocalShape, v: usize) -> PhysicalField<f32> {
    let data = (0..shape.phys_len())
        .map(|i| ((i + v * 37) as f32 * 0.013).sin())
        .collect();
    PhysicalField::from_data(shape, data)
}

fn bench_pipelines(c: &mut Criterion) {
    let mut g = c.benchmark_group("slab_transform_roundtrip");
    g.sample_size(10);

    g.bench_function("cpu_slab", |b| {
        b.iter(|| {
            Universe::run(P, |comm| {
                let shape = LocalShape::new(N, P, comm.rank());
                let mut fft = SlabFftCpu::<f32>::new(shape, comm);
                let phys: Vec<_> = (0..NV).map(|v| make_phys(shape, v)).collect();
                let spec = fft.physical_to_fourier(&phys);
                fft.fourier_to_physical(&spec).len()
            })
        });
    });

    for (label, np, mode) in [
        ("gpu_sync_whole_slab", 1, A2aMode::PerSlab),
        ("gpu_async_per_slab_np3", 3, A2aMode::PerSlab),
        ("gpu_async_per_pencil_np3", 3, A2aMode::PerPencil),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                Universe::run(P, |comm| {
                    let shape = LocalShape::new(N, P, comm.rank());
                    let dev = Device::new(DeviceConfig::tiny(256 << 20));
                    let mut fft = GpuSlabFft::<f32>::builder(shape)
                        .comm(comm)
                        .devices(vec![dev])
                        .np(np)
                        .a2a_mode(mode)
                        .build()
                        .expect("valid pipeline configuration");
                    let phys: Vec<_> = (0..NV).map(|v| make_phys(shape, v)).collect();
                    let spec = fft.physical_to_fourier(&phys);
                    fft.fourier_to_physical(&spec).len()
                })
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_pipelines);
criterion_main!(benches);
