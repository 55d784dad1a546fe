//! # psdns-device
//!
//! A simulated CUDA-like accelerator runtime. This crate replaces the CUDA
//! Fortran + cuFFT layer of the SC '19 paper with a faithful *behavioral*
//! model that really executes:
//!
//! * [`Device`] — one accelerator with a hard device-memory capacity (16 GB
//!   on a V100); allocations beyond capacity fail with a typed error, which
//!   is exactly the constraint that forces the paper's out-of-core pencil
//!   batching (§3.4, §3.5);
//! * [`DeviceBuffer`] / [`PinnedBuffer`] — device memory and page-locked
//!   host memory (pinned memory is required for async copies, §3.5);
//! * [`Stream`] — a FIFO work queue executed by a dedicated worker thread.
//!   The paper uses exactly two streams: one for compute, one for transfers
//!   ("a distinct data transfer stream ensures that bandwidth is devoted to
//!   one direction of traffic at a time", §3.4);
//! * [`Event`] — cross-stream synchronization with CUDA record/wait
//!   semantics;
//! * copy engines — `memcpy_h2d_async`, `memcpy_d2h_async`, and the strided
//!   [`memcpy2d`](Stream::memcpy2d_h2d_async) analogue of
//!   `cudaMemcpy2DAsync` (§4.2, Fig. 7), plus zero-copy gather/scatter
//!   kernels that read/write pinned host memory "directly from the device"
//!   (§4.2, Fig. 8);
//! * [`Timeline`] — nvtx-style span tracing so real executions can be
//!   inspected the way the paper inspects NVIDIA Visual Profiler timelines
//!   (Fig. 10).
//!
//! Everything executes for real: kernels are closures (the solver submits
//! genuine FFTs through them) and copies move real bytes between host and
//! "device" vectors. Only the silicon is emulated by threads.
//!
//! Since the `DeviceBackend` redesign, [`Device`] is a thin handle over an
//! `Arc<dyn DeviceBackend>` executor, and the simulated accelerator is just
//! the default backend ([`SimBackend`]). The stream/event *schedule* — the
//! paper's actual contribution — is recorded and certified in the shared
//! layer above the trait, so the same schedule runs on:
//!
//! * [`SimBackend`] (default) — worker threads, DES timeline;
//! * [`HostBackend`] — eager host-CPU execution of the same kernels, used
//!   by the solver's degraded mode.

mod backend;
mod buffer;
mod copy;
mod device;
mod error;
mod event;
mod health;
mod host;
mod sim;
mod stream;
mod timeline;

pub use backend::{
    run_op, BackendCommon, BackendKind, DeviceBackend, ExecQueue, FenceWait, QueueOp,
};
pub use buffer::{DeviceBuffer, PinnedBuffer};
pub use copy::Copy2d;
pub use device::{Device, DeviceConfig, DeviceConfigBuilder, DeviceStats, WeakDevice};
pub use error::DeviceError;
pub use event::Event;
pub use health::{HealthCause, HealthEvent, HealthMonitor, HealthState, DEVICE_WIDE};
pub use host::HostBackend;
pub use sim::SimBackend;
pub use stream::Stream;
pub use timeline::{Span, SpanKind, Timeline};

// Schedule-recording vocabulary, re-exported so callers declaring kernel
// accesses for `Stream::launch_traced` need no direct `psdns-analyze`
// dependency.
pub use psdns_analyze::{normalized, Access, AccessMode, MemSpace, OrderingLog};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_offload_roundtrip() {
        // The canonical flow: pin host data, H2D, kernel, D2H, synchronize.
        let dev = Device::new(DeviceConfig::default());
        let host_in = PinnedBuffer::from_vec((0..1024i64).collect());
        let host_out = PinnedBuffer::from_vec(vec![0i64; 1024]);
        let dbuf = dev.alloc::<i64>(1024).unwrap();

        let stream = dev.create_stream("s0");
        stream.memcpy_h2d_async(&host_in, 0, &dbuf, 0, 1024);
        let dk = dbuf.clone();
        stream.launch("double", move || {
            let mut d = dk.lock_mut();
            for v in d.iter_mut() {
                *v *= 2;
            }
        });
        stream.memcpy_d2h_async(&dbuf, 0, &host_out, 0, 1024);
        stream.synchronize().unwrap();

        let out = host_out.snapshot();
        assert_eq!(out[0], 0);
        assert_eq!(out[511], 1022);
        assert_eq!(out[1023], 2046);
    }
}
