//! Integration: the nvtx-style device timeline recorded during a *real*
//! pipeline execution has the structure paper Fig. 10 displays — distinct
//! transfer/compute streams, H2D before compute before D2H per pencil, and
//! genuine overlap between the streams.

use psdns::comm::Universe;
use psdns::core::{A2aMode, GpuSlabFft, LocalShape, PhysicalField};
use psdns::device::{Device, DeviceConfig, SpanKind};

#[test]
fn real_pipeline_trace_has_fig4_structure() {
    // Large enough that the batched x/z kernels take measurable time —
    // at n=32 the compute spans are too short to reliably overlap copies.
    let n = 64;
    let np = 4;
    let spans = Universe::run(1, move |comm| {
        let shape = LocalShape::new(n, 1, 0);
        let device = Device::new(DeviceConfig::tiny(64 << 20));
        let mut fft = GpuSlabFft::<f32>::builder(shape)
            .comm(comm)
            .devices(vec![device.clone()])
            .np(np)
            .a2a_mode(A2aMode::PerPencil)
            .build()
            .expect("valid pipeline configuration");
        let phys: Vec<PhysicalField<f32>> = (0..2)
            .map(|v| {
                let data = (0..shape.phys_len())
                    .map(|i| ((i + v) as f32 * 0.013).sin())
                    .collect();
                PhysicalField::from_data(shape, data)
            })
            .collect();
        device.timeline().clear();
        device.timeline().set_enabled(true);
        let _ = fft.try_physical_to_fourier(&phys).expect("fits");
        device.timeline().snapshot()
    })
    .remove(0);

    // Streams are distinct and named.
    let xfer: Vec<_> = spans
        .iter()
        .filter(|s| s.stream_name.starts_with("xfer"))
        .collect();
    let comp: Vec<_> = spans
        .iter()
        .filter(|s| s.stream_name.starts_with("comp"))
        .collect();
    assert!(!xfer.is_empty() && !comp.is_empty());

    // Copies only on the transfer stream; FFT kernels only on compute.
    assert!(xfer
        .iter()
        .all(|s| !matches!(s.kind, SpanKind::Kernel) || s.name.contains("zero-copy")));
    assert!(comp
        .iter()
        .filter(|s| s.kind == SpanKind::Kernel)
        .all(|s| s.name.contains("fft")));

    // Per-pencil ordering: on each stream, spans are time-ordered (FIFO).
    for stream in [&xfer, &comp] {
        for w in stream.windows(2) {
            assert!(
                w[1].start_us >= w[0].start_us - 1e-6,
                "stream spans out of order"
            );
        }
    }

    // Genuine overlap: some compute span intersects some transfer span.
    let overlap = comp.iter().any(|c| {
        xfer.iter()
            .any(|x| c.start_us < x.end_us && x.start_us < c.end_us)
    });
    assert!(
        overlap,
        "no transfer/compute overlap observed in a real trace"
    );

    // Byte accounting is nonzero both ways.
    let h2d: f64 = spans
        .iter()
        .filter(|s| s.kind == SpanKind::CopyH2D)
        .map(|s| s.duration_us())
        .sum();
    let d2h: f64 = spans
        .iter()
        .filter(|s| s.kind == SpanKind::CopyD2H)
        .map(|s| s.duration_us())
        .sum();
    assert!(h2d > 0.0 && d2h > 0.0);
}
