//! Copy engines and zero-copy kernels.
//!
//! Three ways to move strided data between pinned host memory and the
//! device, matching paper §4.2 / Fig. 7:
//!
//! 1. many small [`memcpy_h2d_async`](Stream::memcpy_h2d_async) calls — one
//!    stream op per contiguous chunk (API-call overhead dominates for small
//!    chunks);
//! 2. one [`memcpy2d_h2d_async`](Stream::memcpy2d_h2d_async) — a single op
//!    handling a simple (pitch, width, height) stride on the copy engine,
//!    the analogue of `cudaMemcpy2DAsync`;
//! 3. a zero-copy kernel
//!    ([`zero_copy_h2d_async`](Stream::zero_copy_h2d_async) /
//!    [`zero_copy_d2h_async`](Stream::zero_copy_d2h_async)) — a single
//!    kernel that dereferences pinned host memory directly and can follow
//!    *arbitrary* chunk patterns (used for unpacking after the transpose).

use std::sync::atomic::Ordering;

use psdns_analyze::{Access, AccessMode, MemSpace};

use crate::buffer::{DeviceBuffer, PinnedBuffer};
use crate::stream::Stream;
use crate::timeline::SpanKind;

/// Parameters of a 2-D strided copy (all in elements): `height` rows of
/// `width` contiguous elements; row `r` starts at `src_offset + r·src_pitch`
/// in the source and `dst_offset + r·dst_pitch` in the destination.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Copy2d {
    pub width: usize,
    pub height: usize,
    pub src_offset: usize,
    pub src_pitch: usize,
    pub dst_offset: usize,
    pub dst_pitch: usize,
}

impl Copy2d {
    pub fn elements(&self) -> usize {
        self.width * self.height
    }

    fn last_src(&self) -> usize {
        self.src_offset + self.src_pitch * self.height.saturating_sub(1) + self.width
    }

    fn last_dst(&self) -> usize {
        self.dst_offset + self.dst_pitch * self.height.saturating_sub(1) + self.width
    }

    fn validate(&self, src_len: usize, dst_len: usize) {
        assert!(self.width > 0 && self.height > 0, "empty 2-D copy");
        assert!(
            self.height == 1 || (self.src_pitch >= self.width && self.dst_pitch >= self.width),
            "rows overlap: pitch < width"
        );
        assert!(
            self.last_src() <= src_len,
            "2-D copy reads past source: {} > {}",
            self.last_src(),
            src_len
        );
        assert!(
            self.last_dst() <= dst_len,
            "2-D copy writes past destination: {} > {}",
            self.last_dst(),
            dst_len
        );
    }
}

fn copy_rows<T: Copy>(p: &Copy2d, src: &[T], dst: &mut [T]) {
    // Shared cache-blocked 2-D copy kernel (same one ManyPlan uses for its
    // tile transposes). Both sides are row-contiguous here, so it runs the
    // memcpy-per-row fast path.
    psdns_fft::tile::copy_grid(
        src,
        p.src_offset,
        p.src_pitch,
        1,
        dst,
        p.dst_offset,
        p.dst_pitch,
        1,
        p.height,
        p.width,
    );
}

impl Stream {
    /// Asynchronous contiguous host→device copy (`cudaMemcpyAsync`, H2D).
    pub fn memcpy_h2d_async<T: Copy + Send + Sync + Default + 'static>(
        &self,
        host: &PinnedBuffer<T>,
        host_offset: usize,
        dev: &DeviceBuffer<T>,
        dev_offset: usize,
        len: usize,
    ) {
        assert!(
            host_offset + len <= host.len(),
            "H2D reads past host buffer"
        );
        assert!(
            dev_offset + len <= dev.len(),
            "H2D writes past device buffer"
        );
        if !self.chaos_copy_gate() {
            return;
        }
        // A stream that outlived its device: async no-op (CUDA-style).
        let Some(device) = self.device() else {
            return;
        };
        let bytes = len * std::mem::size_of::<T>();
        let stats = device.stats();
        stats.bytes_h2d.fetch_add(bytes, Ordering::Relaxed);
        stats.copy_calls.fetch_add(1, Ordering::Relaxed);
        device.trace_add_bytes_h2d(bytes);
        self.record_exec(
            "memcpyAsync-h2d",
            vec![
                Access::read(host.id(), MemSpace::Host, host_offset, len),
                Access::write(dev.id(), MemSpace::Device, dev_offset, len),
            ],
        );
        let (h, d) = (host.clone(), dev.clone());
        self.enqueue(
            "memcpyAsync-h2d".to_string(),
            SpanKind::CopyH2D,
            Box::new(move || {
                let src = h.lock();
                let mut dst = d.lock_mut();
                dst[dev_offset..dev_offset + len]
                    .copy_from_slice(&src[host_offset..host_offset + len]);
            }),
        );
    }

    /// Asynchronous contiguous device→host copy (`cudaMemcpyAsync`, D2H).
    pub fn memcpy_d2h_async<T: Copy + Send + Sync + Default + 'static>(
        &self,
        dev: &DeviceBuffer<T>,
        dev_offset: usize,
        host: &PinnedBuffer<T>,
        host_offset: usize,
        len: usize,
    ) {
        assert!(
            dev_offset + len <= dev.len(),
            "D2H reads past device buffer"
        );
        assert!(
            host_offset + len <= host.len(),
            "D2H writes past host buffer"
        );
        if !self.chaos_copy_gate() {
            return;
        }
        let Some(device) = self.device() else {
            return;
        };
        let bytes = len * std::mem::size_of::<T>();
        let stats = device.stats();
        stats.bytes_d2h.fetch_add(bytes, Ordering::Relaxed);
        stats.copy_calls.fetch_add(1, Ordering::Relaxed);
        device.trace_add_bytes_d2h(bytes);
        self.record_exec(
            "memcpyAsync-d2h",
            vec![
                Access::read(dev.id(), MemSpace::Device, dev_offset, len),
                Access::write(host.id(), MemSpace::Host, host_offset, len),
            ],
        );
        let (h, d) = (host.clone(), dev.clone());
        self.enqueue(
            "memcpyAsync-d2h".to_string(),
            SpanKind::CopyD2H,
            Box::new(move || {
                let src = d.lock();
                let mut dst = h.lock_mut();
                dst[host_offset..host_offset + len]
                    .copy_from_slice(&src[dev_offset..dev_offset + len]);
            }),
        );
    }

    /// Strided host→device copy in one call (`cudaMemcpy2DAsync`, H2D):
    /// handled by the copy engine, occupying no SMs (paper §4.2).
    pub fn memcpy2d_h2d_async<T: Copy + Send + Sync + Default + 'static>(
        &self,
        host: &PinnedBuffer<T>,
        dev: &DeviceBuffer<T>,
        params: Copy2d,
    ) {
        params.validate(host.len(), dev.len());
        if !self.chaos_copy_gate() {
            return;
        }
        let Some(device) = self.device() else {
            return;
        };
        let bytes = params.elements() * std::mem::size_of::<T>();
        let stats = device.stats();
        stats.bytes_h2d.fetch_add(bytes, Ordering::Relaxed);
        stats.copy_calls.fetch_add(1, Ordering::Relaxed);
        device.trace_add_bytes_h2d(bytes);
        self.record_exec(
            "memcpy2DAsync-h2d",
            vec![
                Access::strided(
                    AccessMode::Read,
                    host.id(),
                    MemSpace::Host,
                    params.src_offset,
                    params.width,
                    params.height,
                    params.src_pitch,
                ),
                Access::strided(
                    AccessMode::Write,
                    dev.id(),
                    MemSpace::Device,
                    params.dst_offset,
                    params.width,
                    params.height,
                    params.dst_pitch,
                ),
            ],
        );
        let (h, d) = (host.clone(), dev.clone());
        self.enqueue(
            "memcpy2DAsync-h2d".to_string(),
            SpanKind::CopyH2D,
            Box::new(move || {
                let src = h.lock();
                let mut dst = d.lock_mut();
                copy_rows(&params, &src, &mut dst);
            }),
        );
    }

    /// Strided device→host copy in one call (`cudaMemcpy2DAsync`, D2H). The
    /// paper uses this for the combined "pack + D2H" of computed pencils
    /// ("both the packing and the D2H are performed in a single operation",
    /// §3.4).
    pub fn memcpy2d_d2h_async<T: Copy + Send + Sync + Default + 'static>(
        &self,
        dev: &DeviceBuffer<T>,
        host: &PinnedBuffer<T>,
        params: Copy2d,
    ) {
        params.validate(dev.len(), host.len());
        if !self.chaos_copy_gate() {
            return;
        }
        let Some(device) = self.device() else {
            return;
        };
        let bytes = params.elements() * std::mem::size_of::<T>();
        let stats = device.stats();
        stats.bytes_d2h.fetch_add(bytes, Ordering::Relaxed);
        stats.copy_calls.fetch_add(1, Ordering::Relaxed);
        device.trace_add_bytes_d2h(bytes);
        self.record_exec(
            "memcpy2DAsync-d2h",
            vec![
                Access::strided(
                    AccessMode::Read,
                    dev.id(),
                    MemSpace::Device,
                    params.src_offset,
                    params.width,
                    params.height,
                    params.src_pitch,
                ),
                Access::strided(
                    AccessMode::Write,
                    host.id(),
                    MemSpace::Host,
                    params.dst_offset,
                    params.width,
                    params.height,
                    params.dst_pitch,
                ),
            ],
        );
        let (h, d) = (host.clone(), dev.clone());
        self.enqueue(
            "memcpy2DAsync-d2h".to_string(),
            SpanKind::CopyD2H,
            Box::new(move || {
                let src = d.lock();
                let mut dst = h.lock_mut();
                copy_rows(&params, &src, &mut dst);
            }),
        );
    }

    /// Zero-copy gather kernel: the device reads pinned host memory directly
    /// through an arbitrary list of `(host_offset, dev_offset, len)` chunks.
    /// One kernel launch regardless of chunk count — but it occupies SMs
    /// (paper §4.2, Fig. 8).
    pub fn zero_copy_h2d_async<T: Copy + Send + Sync + Default + 'static>(
        &self,
        host: &PinnedBuffer<T>,
        dev: &DeviceBuffer<T>,
        chunks: Vec<(usize, usize, usize)>,
    ) {
        let total: usize = chunks.iter().map(|&(_, _, l)| l).sum();
        for &(h_off, d_off, len) in &chunks {
            assert!(h_off + len <= host.len(), "zero-copy chunk reads past host");
            assert!(
                d_off + len <= dev.len(),
                "zero-copy chunk writes past device"
            );
        }
        if !self.chaos_copy_gate() {
            return;
        }
        let Some(device) = self.device() else {
            return;
        };
        let stats = device.stats();
        stats
            .bytes_h2d
            .fetch_add(total * std::mem::size_of::<T>(), Ordering::Relaxed);
        stats.kernel_launches.fetch_add(1, Ordering::Relaxed);
        device.trace_add_bytes_h2d(total * std::mem::size_of::<T>());
        device.trace_incr_kernel();
        if self.has_recorder() {
            let mut accesses = Vec::with_capacity(chunks.len() * 2);
            for &(h_off, d_off, len) in &chunks {
                accesses.push(Access::read(host.id(), MemSpace::Host, h_off, len));
                accesses.push(Access::write(dev.id(), MemSpace::Device, d_off, len));
            }
            self.record_exec("zero-copy-gather", accesses);
        }
        let (h, d) = (host.clone(), dev.clone());
        self.enqueue(
            "zero-copy-gather".to_string(),
            SpanKind::Kernel,
            Box::new(move || {
                let src = h.lock();
                let mut dst = d.lock_mut();
                for (h_off, d_off, len) in chunks {
                    dst[d_off..d_off + len].copy_from_slice(&src[h_off..h_off + len]);
                }
            }),
        );
    }

    /// Zero-copy scatter kernel: the device writes pinned host memory
    /// directly through an arbitrary chunk list. The paper uses this shape
    /// for unpacking non-contiguous data after communication (§4.2).
    pub fn zero_copy_d2h_async<T: Copy + Send + Sync + Default + 'static>(
        &self,
        dev: &DeviceBuffer<T>,
        host: &PinnedBuffer<T>,
        chunks: Vec<(usize, usize, usize)>,
    ) {
        let total: usize = chunks.iter().map(|&(_, _, l)| l).sum();
        for &(d_off, h_off, len) in &chunks {
            assert!(
                d_off + len <= dev.len(),
                "zero-copy chunk reads past device"
            );
            assert!(
                h_off + len <= host.len(),
                "zero-copy chunk writes past host"
            );
        }
        if !self.chaos_copy_gate() {
            return;
        }
        let Some(device) = self.device() else {
            return;
        };
        let stats = device.stats();
        stats
            .bytes_d2h
            .fetch_add(total * std::mem::size_of::<T>(), Ordering::Relaxed);
        stats.kernel_launches.fetch_add(1, Ordering::Relaxed);
        device.trace_add_bytes_d2h(total * std::mem::size_of::<T>());
        device.trace_incr_kernel();
        if self.has_recorder() {
            let mut accesses = Vec::with_capacity(chunks.len() * 2);
            for &(d_off, h_off, len) in &chunks {
                accesses.push(Access::read(dev.id(), MemSpace::Device, d_off, len));
                accesses.push(Access::write(host.id(), MemSpace::Host, h_off, len));
            }
            self.record_exec("zero-copy-scatter", accesses);
        }
        let (h, d) = (host.clone(), dev.clone());
        self.enqueue(
            "zero-copy-scatter".to_string(),
            SpanKind::Kernel,
            Box::new(move || {
                let src = d.lock();
                let mut dst = h.lock_mut();
                for (d_off, h_off, len) in chunks {
                    dst[h_off..h_off + len].copy_from_slice(&src[d_off..d_off + len]);
                }
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Device, DeviceConfig};

    fn setup(n: usize) -> (Device, Stream, PinnedBuffer<u32>, DeviceBuffer<u32>) {
        let dev = Device::new(DeviceConfig::tiny(1 << 20));
        let s = dev.create_stream("copy");
        let host = PinnedBuffer::from_vec((0..n as u32).collect());
        let dbuf = dev.alloc::<u32>(n).unwrap();
        (dev, s, host, dbuf)
    }

    #[test]
    fn contiguous_copies_roundtrip() {
        let (_dev, s, host, dbuf) = setup(256);
        let back = PinnedBuffer::new(256);
        s.memcpy_h2d_async(&host, 0, &dbuf, 0, 256);
        s.memcpy_d2h_async(&dbuf, 0, &back, 0, 256);
        s.synchronize().unwrap();
        assert_eq!(back.snapshot(), host.snapshot());
    }

    #[test]
    fn partial_offsets() {
        let (_dev, s, host, dbuf) = setup(100);
        s.memcpy_h2d_async(&host, 10, &dbuf, 50, 20);
        s.synchronize().unwrap();
        let d = dbuf.snapshot();
        assert!(d[..50].iter().all(|&v| v == 0));
        for i in 0..20 {
            assert_eq!(d[50 + i], (10 + i) as u32);
        }
    }

    #[test]
    fn memcpy2d_strided_gather_matches_loop_of_small_copies() {
        // Gather a "pencil": 8 rows of width 4 from a host array of pitch 16
        // into a dense device array of pitch 4 — the Fig. 6 pattern.
        let n = 16 * 8;
        let (dev, s, host, dbuf) = setup(n);
        let dense = dev.alloc::<u32>(32).unwrap();
        let p = Copy2d {
            width: 4,
            height: 8,
            src_offset: 3,
            src_pitch: 16,
            dst_offset: 0,
            dst_pitch: 4,
        };
        s.memcpy2d_h2d_async(&host, &dense, p);

        // Reference: many small contiguous copies.
        for r in 0..8 {
            s.memcpy_h2d_async(&host, 3 + r * 16, &dbuf, r * 4, 4);
        }
        s.synchronize().unwrap();
        assert_eq!(dense.snapshot()[..32], dbuf.snapshot()[..32]);
    }

    #[test]
    fn memcpy2d_d2h_packs_strided_device_data() {
        let (dev, s, host, dbuf) = setup(64);
        let _ = dev;
        s.memcpy_h2d_async(&host, 0, &dbuf, 0, 64);
        let packed = PinnedBuffer::new(16);
        // Pack columns: 4 rows of 4 from pitch-16 device layout.
        let p = Copy2d {
            width: 4,
            height: 4,
            src_offset: 8,
            src_pitch: 16,
            dst_offset: 0,
            dst_pitch: 4,
        };
        s.memcpy2d_d2h_async(&dbuf, &packed, p);
        s.synchronize().unwrap();
        let got = packed.snapshot();
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(got[r * 4 + c], (8 + r * 16 + c) as u32);
            }
        }
    }

    #[test]
    fn zero_copy_gather_and_scatter() {
        let (_dev, s, host, dbuf) = setup(128);
        let chunks: Vec<(usize, usize, usize)> = (0..8).map(|i| (i * 16, i * 4, 4)).collect();
        s.zero_copy_h2d_async(&host, &dbuf, chunks.clone());
        s.synchronize().unwrap();
        let d = dbuf.snapshot();
        for i in 0..8 {
            for j in 0..4 {
                assert_eq!(d[i * 4 + j], (i * 16 + j) as u32);
            }
        }
        // Scatter back to a fresh host buffer at shifted offsets.
        let out = PinnedBuffer::new(128);
        let back: Vec<(usize, usize, usize)> = (0..8).map(|i| (i * 4, i * 16 + 1, 4)).collect();
        s.zero_copy_d2h_async(&dbuf, &out, back);
        s.synchronize().unwrap();
        let o = out.snapshot();
        for i in 0..8 {
            for j in 0..4 {
                assert_eq!(o[i * 16 + 1 + j], (i * 16 + j) as u32);
            }
        }
    }

    #[test]
    fn byte_accounting() {
        let (dev, s, host, dbuf) = setup(64);
        s.memcpy_h2d_async(&host, 0, &dbuf, 0, 64); // 256 B
        s.memcpy_d2h_async(&dbuf, 0, &host, 0, 32); // 128 B
        s.synchronize().unwrap();
        let (h2d, d2h, calls, _) = dev.stats().snapshot();
        assert_eq!(h2d, 256);
        assert_eq!(d2h, 128);
        assert_eq!(calls, 2);
    }

    #[test]
    #[should_panic(expected = "past device")]
    fn out_of_bounds_copy_panics() {
        let (_dev, s, host, dbuf) = setup(16);
        s.memcpy_h2d_async(&host, 0, &dbuf, 10, 10);
    }

    #[test]
    #[should_panic(expected = "rows overlap")]
    fn overlapping_pitch_rejected() {
        let (_dev, s, host, dbuf) = setup(64);
        let p = Copy2d {
            width: 8,
            height: 2,
            src_offset: 0,
            src_pitch: 4, // < width
            dst_offset: 0,
            dst_pitch: 8,
        };
        s.memcpy2d_h2d_async(&host, &dbuf, p);
    }
}

impl Stream {
    /// Asynchronously fill a device region with a value (`cudaMemsetAsync`
    /// generalized to typed fills).
    pub fn memset_async<T: Copy + Send + Sync + Default + 'static>(
        &self,
        dev: &DeviceBuffer<T>,
        offset: usize,
        len: usize,
        value: T,
    ) {
        assert!(offset + len <= dev.len(), "memset past device buffer");
        self.record_exec(
            "memsetAsync",
            vec![Access::write(dev.id(), MemSpace::Device, offset, len)],
        );
        let d = dev.clone();
        self.enqueue(
            "memsetAsync".to_string(),
            SpanKind::Kernel,
            Box::new(move || {
                let mut dst = d.lock_mut();
                for v in dst[offset..offset + len].iter_mut() {
                    *v = value;
                }
            }),
        );
    }

    /// Asynchronous device-to-device copy (`cudaMemcpyAsync`, D2D). Source
    /// and destination may be the same buffer only for disjoint ranges.
    pub fn memcpy_d2d_async<T: Copy + Send + Sync + Default + 'static>(
        &self,
        src: &DeviceBuffer<T>,
        src_offset: usize,
        dst: &DeviceBuffer<T>,
        dst_offset: usize,
        len: usize,
    ) {
        assert!(src_offset + len <= src.len(), "D2D reads past source");
        assert!(dst_offset + len <= dst.len(), "D2D writes past destination");
        if let Some(dev) = self.device() {
            dev.stats().copy_calls.fetch_add(1, Ordering::Relaxed);
        }
        self.record_exec(
            "memcpyAsync-d2d",
            vec![
                Access::read(src.id(), MemSpace::Device, src_offset, len),
                Access::write(dst.id(), MemSpace::Device, dst_offset, len),
            ],
        );
        let (s, d) = (src.clone(), dst.clone());
        self.enqueue(
            "memcpyAsync-d2d".to_string(),
            SpanKind::Kernel,
            Box::new(move || {
                // Same-buffer copies use a temporary to avoid lock recursion.
                let tmp: Vec<T> = {
                    let a = s.lock();
                    a[src_offset..src_offset + len].to_vec()
                };
                let mut b = d.lock_mut();
                b[dst_offset..dst_offset + len].copy_from_slice(&tmp);
            }),
        );
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;
    use crate::device::{Device, DeviceConfig};

    #[test]
    fn memset_fills_region() {
        let dev = Device::new(DeviceConfig::tiny(1 << 16));
        let buf = dev.alloc::<f32>(64).unwrap();
        let s = dev.create_stream("m");
        s.memset_async(&buf, 8, 16, 2.5);
        s.synchronize().unwrap();
        let d = buf.snapshot();
        assert!(d[..8].iter().all(|&v| v == 0.0));
        assert!(d[8..24].iter().all(|&v| v == 2.5));
        assert!(d[24..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn d2d_copies_between_and_within_buffers() {
        let dev = Device::new(DeviceConfig::tiny(1 << 16));
        let a = dev.alloc::<u32>(32).unwrap();
        let b = dev.alloc::<u32>(32).unwrap();
        let host = PinnedBuffer::from_vec((0..32u32).collect());
        let s = dev.create_stream("d");
        s.memcpy_h2d_async(&host, 0, &a, 0, 32);
        s.memcpy_d2d_async(&a, 4, &b, 10, 8);
        // Same-buffer disjoint copy.
        s.memcpy_d2d_async(&a, 0, &a, 20, 8);
        s.synchronize().unwrap();
        let bv = b.snapshot();
        for i in 0..8 {
            assert_eq!(bv[10 + i], (4 + i) as u32);
        }
        let av = a.snapshot();
        for i in 0..8 {
            assert_eq!(av[20 + i], i as u32);
        }
    }
}
