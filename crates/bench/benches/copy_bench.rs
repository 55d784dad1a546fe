//! Strided copy engines on the simulated device — the real-code counterpart
//! of paper Fig. 7: many small `memcpy_async` ops vs one `memcpy2d` vs one
//! zero-copy kernel, moving the same strided pencil.
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use psdns_device::{Copy2d, Device, DeviceConfig, PinnedBuffer};

fn bench_strided_h2d(c: &mut Criterion) {
    let mut g = c.benchmark_group("strided_h2d");
    g.sample_size(10);
    // Pencil gather: `rows` chunks of `width` elements at pitch `pitch`.
    for &(width, rows) in &[(64usize, 4096usize), (1024, 256)] {
        let pitch = width * 4;
        let total = width * rows;
        let dev = Device::new(DeviceConfig::tiny(64 << 20));
        let host = PinnedBuffer::from_vec(vec![1.0f32; pitch * rows]);
        let dbuf = dev.alloc::<f32>(total).unwrap();
        g.throughput(Throughput::Bytes((total * 4) as u64));

        let stream = dev.create_stream("many");
        g.bench_with_input(
            BenchmarkId::new("many_memcpy_async", width),
            &width,
            |b, _| {
                b.iter(|| {
                    for r in 0..rows {
                        stream.memcpy_h2d_async(&host, r * pitch, &dbuf, r * width, width);
                    }
                    stream.synchronize().unwrap();
                });
            },
        );
        let stream = dev.create_stream("2d");
        g.bench_with_input(BenchmarkId::new("memcpy2d_async", width), &width, |b, _| {
            b.iter(|| {
                stream.memcpy2d_h2d_async(
                    &host,
                    &dbuf,
                    Copy2d {
                        width,
                        height: rows,
                        src_offset: 0,
                        src_pitch: pitch,
                        dst_offset: 0,
                        dst_pitch: width,
                    },
                );
                stream.synchronize().unwrap();
            });
        });
        let stream = dev.create_stream("zc");
        let chunks: Vec<(usize, usize, usize)> =
            (0..rows).map(|r| (r * pitch, r * width, width)).collect();
        g.bench_with_input(BenchmarkId::new("zero_copy", width), &width, |b, _| {
            b.iter(|| {
                stream.zero_copy_h2d_async(&host, &dbuf, chunks.clone());
                stream.synchronize().unwrap();
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_strided_h2d);
criterion_main!(benches);
