//! The *real-execution* counterpart of Fig. 7: move a fixed-size strided
//! pencil between pinned host memory and the simulated device with the
//! three strategies of §4.2, measuring actual wall time of the device
//! runtime (stream-op overhead plays the role of the CUDA API overhead).
//!
//! The absolute times are those of a thread-backed simulator, but the
//! *ordering and trend* — per-op overhead punishing small chunks, the
//! single-call strategies staying flat — is the figure's content.

use std::time::Instant;

use psdns_bench::Table;
use psdns_device::{Copy2d, Device, DeviceConfig, PinnedBuffer};

fn main() {
    // Total ~8 MB moved per trial (scaled-down 216 MB), chunk size swept.
    let total: usize = 8 << 20; // bytes of f32
    let elems = total / 4;
    let reps = 3;

    let dev = Device::new(DeviceConfig::tiny(64 << 20));
    let host = PinnedBuffer::from_vec(vec![1.0f32; 2 * elems]);
    let dbuf = dev.alloc::<f32>(elems).unwrap();
    let stream = dev.create_stream("fig7");

    let mut t = Table::new(&[
        "chunk KB",
        "chunks",
        "many memcpy ms",
        "memcpy2D ms",
        "zero-copy ms",
    ]);
    for chunk_elems in [256usize, 1024, 4096, 16384, 65536, 262144] {
        let rows = elems / chunk_elems;
        let pitch = 2 * chunk_elems; // strided source

        // (a) many small memcpy_async calls — one stream op per chunk.
        let t0 = Instant::now();
        for _ in 0..reps {
            for r in 0..rows {
                stream.memcpy_h2d_async(&host, r * pitch, &dbuf, r * chunk_elems, chunk_elems);
            }
            stream.synchronize().unwrap();
        }
        let many = t0.elapsed().as_secs_f64() / reps as f64;

        // (b) one memcpy2d.
        let t0 = Instant::now();
        for _ in 0..reps {
            stream.memcpy2d_h2d_async(
                &host,
                &dbuf,
                Copy2d {
                    width: chunk_elems,
                    height: rows,
                    src_offset: 0,
                    src_pitch: pitch,
                    dst_offset: 0,
                    dst_pitch: chunk_elems,
                },
            );
            stream.synchronize().unwrap();
        }
        let two_d = t0.elapsed().as_secs_f64() / reps as f64;

        // (c) one zero-copy gather kernel.
        let chunks: Vec<(usize, usize, usize)> = (0..rows)
            .map(|r| (r * pitch, r * chunk_elems, chunk_elems))
            .collect();
        let t0 = Instant::now();
        for _ in 0..reps {
            stream.zero_copy_h2d_async(&host, &dbuf, chunks.clone());
            stream.synchronize().unwrap();
        }
        let zc = t0.elapsed().as_secs_f64() / reps as f64;

        t.row(vec![
            format!("{:.1}", chunk_elems as f64 * 4.0 / 1024.0),
            rows.to_string(),
            format!("{:.3}", many * 1e3),
            format!("{:.3}", two_d * 1e3),
            format!("{:.3}", zc * 1e3),
        ]);
    }
    println!(
        "Fig. 7, real execution — {} MB strided H2D per trial\n",
        total >> 20
    );
    println!("{}", t.render());
    println!("shape check (matches the paper and the model): per-op overhead");
    println!("dominates the many-memcpy strategy at small chunks; the one-call");
    println!("strategies are flat; all converge as chunks grow.");
}
