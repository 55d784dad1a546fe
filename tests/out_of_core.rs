//! Integration: the out-of-core mechanism under memory pressure — the
//! constraint that motivates the whole paper. Devices too small for a slab
//! must still compute exact transforms via pencil batching; devices too
//! small even for the chosen pencil count must fail with a typed error.

use psdns::comm::Universe;
use psdns::core::{
    A2aMode, GpuSlabFft, LocalShape, PhysicalField, PipelineError, SlabFftCpu, Transform3d,
};
use psdns::device::{Device, DeviceConfig};

const N: usize = 32;

fn phys_fields(shape: LocalShape, nv: usize) -> Vec<PhysicalField<f32>> {
    (0..nv)
        .map(|v| {
            let data = (0..shape.phys_len())
                .map(|i| ((i * (v + 3) + 7 * shape.rank) as f32 * 0.00917).sin())
                .collect();
            PhysicalField::from_data(shape, data)
        })
        .collect()
}

#[test]
fn sync_algorithm_fails_where_async_succeeds() {
    // The paper's Fig. 2 → Fig. 4 motivation in one test: same device, same
    // problem; the whole-slab algorithm (np = 1) does not fit, the batched
    // one at the builder's suggested pencil count does.
    let hbm = 600 << 10; // np = 1 needs ~1.2 MB of slot buffers at N = 32
    let out = Universe::run(2, move |comm| {
        let shape = LocalShape::new(N, 2, comm.rank());
        let phys = phys_fields(shape, 3);
        let build = |np: usize| {
            GpuSlabFft::<f32>::builder(shape)
                .comm(comm.clone())
                .devices(vec![Device::new(DeviceConfig::tiny(hbm))])
                .np(np)
                .nv(3)
                .a2a_mode(A2aMode::PerSlab)
                .build()
        };
        let suggested = match build(1) {
            Err(PipelineError::InsufficientDeviceMemory { suggested_np, .. }) => suggested_np,
            _ => None,
        };
        let Some(np) = suggested else {
            return (None, f32::NAN);
        };
        let spec = build(np)
            .expect("suggested np fits")
            .try_physical_to_fourier(&phys)
            .expect("batched fits");

        // Verify against the host path.
        let mut cpu = SlabFftCpu::<f32>::new(shape, comm.clone());
        let reference = cpu.physical_to_fourier(&phys);
        let mut err = 0.0f32;
        for (a, b) in spec.iter().zip(&reference) {
            for (x, y) in a.data.iter().zip(&b.data) {
                err = err.max((*x - *y).abs());
            }
        }
        (Some(np), err)
    });
    for (np, err) in out {
        let np = np.expect("np = 1 build must fail with a suggested pencil count");
        assert!(np > 1, "batching must actually be needed (np = {np})");
        assert!(err < 1e-3, "batched transform wrong: {err}");
    }
}

#[test]
fn auto_np_is_minimal_and_sufficient() {
    let shape = LocalShape::new(N, 2, 0);
    for budget_np in [2usize, 3, 5] {
        let bytes = GpuSlabFft::<f32>::required_bytes_per_device(shape, 3, budget_np, 1);
        let np = GpuSlabFft::<f32>::auto_np(shape, 3, 1, bytes).expect("fits by construction");
        assert!(
            np <= budget_np,
            "auto np {np} must fit budget sized for {budget_np}"
        );
        assert!(
            GpuSlabFft::<f32>::required_bytes_per_device(shape, 3, np, 1) <= bytes,
            "chosen np must fit"
        );
        if np > 1 {
            assert!(
                GpuSlabFft::<f32>::required_bytes_per_device(shape, 3, np - 1, 1) > bytes,
                "np − 1 should not fit (minimality)"
            );
        }
    }
}

#[test]
fn device_memory_is_released_between_calls() {
    // Repeated transforms must not leak device memory (buffers are per call).
    let out = Universe::run(1, |comm| {
        let shape = LocalShape::new(16, 1, 0);
        let dev = Device::new(DeviceConfig::tiny(32 << 20));
        let mut fft = GpuSlabFft::<f32>::builder(shape)
            .comm(comm)
            .devices(vec![dev.clone()])
            .np(2)
            .a2a_mode(A2aMode::PerSlab)
            .build()
            .expect("valid pipeline configuration");
        let phys = phys_fields(shape, 2);
        for _ in 0..5 {
            let _ = fft.try_physical_to_fourier(&phys).expect("fits");
        }
        dev.allocated_bytes()
    });
    assert_eq!(out[0], 0, "device memory leaked");
}

#[test]
fn pencil_count_one_requires_full_slab_fit() {
    // With np = 1 the pipeline is the whole-slab algorithm of Fig. 2, so
    // batching must cut its device-memory appetite.
    let shape = LocalShape::new(N, 2, 0);
    let np1 = GpuSlabFft::<f32>::required_bytes_per_device(shape, 3, 1, 1);
    let np4 = GpuSlabFft::<f32>::required_bytes_per_device(shape, 3, 4, 1);
    assert!(
        np1 > 2 * np4,
        "batching must cut device memory substantially"
    );
}

#[test]
fn multi_device_reduces_per_device_memory() {
    let shape = LocalShape::new(N, 2, 0);
    let one = GpuSlabFft::<f32>::required_bytes_per_device(shape, 3, 2, 1);
    let three = GpuSlabFft::<f32>::required_bytes_per_device(shape, 3, 2, 3);
    assert!(
        three < one,
        "Fig. 5 vertical split must shrink per-device buffers ({three} !< {one})"
    );
}
