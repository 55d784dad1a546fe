//! The [`Device`]: a thin, cheap-to-clone handle over an
//! `Arc<dyn DeviceBackend>` executor, plus the per-device observability that
//! is identical across backends (stats, timeline, tracer bridge, chaos
//! gates, sticky error slot). Defaults model one NVIDIA V100 of Summit
//! running on the simulated backend.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

use crate::backend::{BackendKind, DeviceBackend};
use crate::buffer::DeviceBuffer;
use crate::error::DeviceError;
use crate::sim::SimBackend;
use crate::stream::Stream;
use crate::timeline::Timeline;

/// Static description of one accelerator.
#[derive(Clone, Debug)]
pub struct DeviceConfig {
    pub name: String,
    /// Device memory capacity in bytes (V100: 16 GB).
    pub memory_bytes: usize,
    /// Number of streaming multiprocessors (V100: 80). Only used for
    /// reporting and by the zero-copy throughput model in `psdns-model`.
    pub sm_count: usize,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self {
            name: "V100-SXM2-16GB (simulated)".to_string(),
            memory_bytes: 16 * (1 << 30),
            sm_count: 80,
        }
    }
}

impl DeviceConfig {
    /// A small-memory device used in tests and examples to force the
    /// out-of-core batched path at laptop problem sizes.
    pub fn tiny(memory_bytes: usize) -> Self {
        Self {
            name: format!("tiny-device-{memory_bytes}B"),
            memory_bytes,
            sm_count: 80,
        }
    }

    /// Validating builder, the device-layer counterpart of
    /// `GpuFftBuilder`: field-by-field construction with range checks at
    /// [`build`](DeviceConfigBuilder::build) instead of struct literals.
    pub fn builder() -> DeviceConfigBuilder {
        DeviceConfigBuilder {
            config: DeviceConfig::default(),
        }
    }
}

/// Builder for [`DeviceConfig`]; defaults to the V100 profile.
#[derive(Clone, Debug)]
pub struct DeviceConfigBuilder {
    config: DeviceConfig,
}

impl DeviceConfigBuilder {
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.config.name = name.into();
        self
    }

    pub fn memory_bytes(mut self, bytes: usize) -> Self {
        self.config.memory_bytes = bytes;
        self
    }

    pub fn sm_count(mut self, sms: usize) -> Self {
        self.config.sm_count = sms;
        self
    }

    /// Validate and produce the config. Fails with
    /// [`DeviceError::InvalidConfig`] on an empty name, zero capacity, or an
    /// SM count outside `1..=4096` (far past any shipping part — a count
    /// beyond it is a units bug, not a bigger GPU).
    pub fn build(self) -> Result<DeviceConfig, DeviceError> {
        let c = self.config;
        if c.name.trim().is_empty() {
            return Err(DeviceError::InvalidConfig {
                field: "name",
                message: "device name must be non-empty".to_string(),
            });
        }
        if c.memory_bytes == 0 {
            return Err(DeviceError::InvalidConfig {
                field: "memory_bytes",
                message: "device memory capacity must be > 0".to_string(),
            });
        }
        if c.sm_count == 0 || c.sm_count > 4096 {
            return Err(DeviceError::InvalidConfig {
                field: "sm_count",
                message: format!("sm_count {} outside 1..=4096", c.sm_count),
            });
        }
        Ok(c)
    }
}

/// Cumulative transfer/kernel counters, the device-side analogue of the
/// paper's profiling data.
#[derive(Debug, Default)]
pub struct DeviceStats {
    pub bytes_h2d: AtomicUsize,
    pub bytes_d2h: AtomicUsize,
    pub copy_calls: AtomicUsize,
    pub kernel_launches: AtomicUsize,
}

impl DeviceStats {
    pub fn snapshot(&self) -> (usize, usize, usize, usize) {
        (
            self.bytes_h2d.load(Ordering::Relaxed),
            self.bytes_d2h.load(Ordering::Relaxed),
            self.copy_calls.load(Ordering::Relaxed),
            self.kernel_launches.load(Ordering::Relaxed),
        )
    }
}

pub(crate) struct DeviceInner {
    /// The executor. Capacity ledger and schedule recorder live here (on the
    /// backend) so they follow the trait object; everything below is shared
    /// observability identical across backends.
    pub backend: Arc<dyn DeviceBackend>,
    pub stats: DeviceStats,
    pub timeline: Timeline,
    pub epoch: Instant,
    pub next_stream_id: AtomicU64,
    /// Shared tracer bridge: when attached, backend executors mirror every
    /// executed span into it and the copy engine mirrors byte counters.
    pub tracer: psdns_sync::Mutex<Option<psdns_trace::Tracer>>,
    /// Fault-injection engine; `None` outside chaos runs.
    pub chaos: psdns_sync::Mutex<Option<psdns_chaos::ChaosEngine>>,
    /// Sticky asynchronous error, like a CUDA context error: set when a copy
    /// fails after retries, observed (and cleared) via [`Device::take_error`].
    pub error: psdns_sync::Mutex<Option<DeviceError>>,
    /// Optional cross-rank ordering recorder: fences log deadline-flagged
    /// local waits for [`psdns_analyze::analyze_global`].
    pub global_recorder: psdns_sync::Mutex<Option<psdns_analyze::RankRecorder>>,
}

impl Drop for DeviceInner {
    fn drop(&mut self) {
        // The last Device handle is gone; open the health release latch
        // first so any injected hung op unblocks and wedged workers can
        // drain, then shut the executor down so any surviving Stream sees
        // BackendShutDown instead of wedging or panicking. Pending ops drain
        // FIFO before the shutdown marker.
        self.backend.health().release();
        self.backend.shutdown();
    }
}

/// Downgraded device handle held by streams and queue workers: neither may
/// keep the device alive (that is the drop-order footgun this PR removes),
/// and both must tolerate it being gone.
#[derive(Clone)]
pub struct WeakDevice {
    pub(crate) inner: Weak<DeviceInner>,
}

impl WeakDevice {
    pub fn upgrade(&self) -> Option<Device> {
        self.inner.upgrade().map(|inner| Device { inner })
    }
}

/// Handle to one accelerator. Cheap to clone; all clones refer to the same
/// device (like a CUDA device ordinal after `cudaSetDevice`).
///
/// ```
/// use psdns_device::{Device, DeviceConfig, PinnedBuffer};
/// let dev = Device::new(DeviceConfig::tiny(1 << 20));
/// let host = PinnedBuffer::from_vec(vec![1.0f32; 256]);
/// let dbuf = dev.alloc::<f32>(256)?;
/// let s = dev.create_stream("doc");
/// s.memcpy_h2d_async(&host, 0, &dbuf, 0, 256);
/// let d = dbuf.clone();
/// s.launch("scale", move || {
///     for v in d.lock_mut().iter_mut() { *v *= 3.0; }
/// });
/// s.memcpy_d2h_async(&dbuf, 0, &host, 0, 256);
/// s.synchronize()?;
/// assert_eq!(host.snapshot()[0], 3.0);
/// # Ok::<(), psdns_device::DeviceError>(())
/// ```
#[derive(Clone)]
pub struct Device {
    pub(crate) inner: Arc<DeviceInner>,
}

impl Device {
    /// A device on the default executor: the simulated accelerator.
    pub fn new(config: DeviceConfig) -> Self {
        Self::with_backend(Arc::new(SimBackend::new(config)))
    }

    /// A device on the eager host-CPU executor: same schedule, runs on the
    /// submitting thread.
    pub fn host(config: DeviceConfig) -> Self {
        Self::with_backend(Arc::new(crate::host::HostBackend::new(config)))
    }

    /// A device on the named executor.
    pub fn with_kind(kind: BackendKind, config: DeviceConfig) -> Self {
        match kind {
            BackendKind::Simulated => Self::new(config),
            BackendKind::Host => Self::host(config),
        }
    }

    /// A device over an arbitrary executor — the extension point for
    /// out-of-tree backends.
    pub fn with_backend(backend: Arc<dyn DeviceBackend>) -> Self {
        Self {
            inner: Arc::new(DeviceInner {
                backend,
                stats: DeviceStats::default(),
                timeline: {
                    // Off until a reader opts in: the span log grows
                    // without bound over a long run.
                    let t = Timeline::new();
                    t.set_enabled(false);
                    t
                },
                epoch: Instant::now(),
                next_stream_id: AtomicU64::new(0),
                tracer: psdns_sync::Mutex::new(None),
                chaos: psdns_sync::Mutex::new(None),
                error: psdns_sync::Mutex::new(None),
                global_recorder: psdns_sync::Mutex::new(None),
            }),
        }
    }

    /// Attach this rank's [`psdns_analyze::RankRecorder`]: every subsequent
    /// fence on this device's streams logs a deadline-flagged local wait
    /// (and, on completion, its `done-local` retirement) into the global
    /// cross-rank ordering log. An un-watchdogged fence records an
    /// *unbounded* wait — exactly what `analyze_global`'s `UnboundedWait`
    /// lint exists to flag.
    pub fn attach_global_recorder(&self, rec: &psdns_analyze::RankRecorder) {
        *self.inner.global_recorder.lock() = Some(rec.clone());
    }

    /// The attached cross-rank recorder, if any.
    pub fn global_recorder(&self) -> Option<psdns_analyze::RankRecorder> {
        self.inner.global_recorder.lock().clone()
    }

    /// The executor behind this handle.
    pub fn backend(&self) -> &Arc<dyn DeviceBackend> {
        &self.inner.backend
    }

    /// The backend's health state machine (`Healthy → Suspect → Lost`);
    /// shared by every clone and stream of this device.
    pub fn health(&self) -> &crate::health::HealthMonitor {
        self.inner.backend.health()
    }

    /// Arm fence/queue watchdogs: every subsequent `Stream::synchronize`
    /// on this device is bounded by the adaptive rolling-p99 deadline
    /// (`max(floor, factor × p99)`) and a miss drives the health protocol
    /// instead of blocking forever. Pass the same
    /// [`psdns_chaos::WatchdogPolicy`] used for the comm layer's a2a
    /// watchdog to keep one watchdog-floor configuration stack-wide.
    pub fn enable_fence_watchdog(&self, policy: psdns_chaos::WatchdogPolicy) {
        self.inner
            .backend
            .health()
            .set_watchdog(psdns_chaos::AdaptiveWatchdog::with_policy(policy));
    }

    /// Cheap canary: submit one trivial op on a *fresh* queue and fence it
    /// (bounded by `deadline` when given). `true` means the device still
    /// responds — a wedged stream on a responsive device is congestion, not
    /// loss. Bypasses the stream-layer chaos gates so probing draws no new
    /// faults and perturbs no fault schedule.
    pub fn probe(&self, deadline: Option<std::time::Duration>) -> bool {
        use std::sync::atomic::AtomicBool;
        if self.inner.backend.health().lost_injected() {
            return false;
        }
        let id = self.inner.next_stream_id.fetch_add(1, Ordering::Relaxed);
        let q = self
            .inner
            .backend
            .create_queue(self.downgrade(), id, "canary");
        let ran = Arc::new(AtomicBool::new(false));
        let ran2 = Arc::clone(&ran);
        let submitted = q.submit(crate::backend::QueueOp {
            name: "canary".to_string(),
            kind: crate::timeline::SpanKind::Marker,
            exec: Box::new(move || ran2.store(true, Ordering::SeqCst)),
        });
        if submitted.is_err() {
            return false;
        }
        let done = match deadline {
            Some(d) => matches!(q.fence_deadline(d), Ok(crate::backend::FenceWait::Complete)),
            None => q.fence().is_ok(),
        };
        done && ran.load(Ordering::SeqCst)
    }

    /// Which executor this device runs on.
    pub fn backend_kind(&self) -> BackendKind {
        self.inner.backend.kind()
    }

    /// Weak handle for streams and queue workers (see [`WeakDevice`]).
    pub fn downgrade(&self) -> WeakDevice {
        WeakDevice {
            inner: Arc::downgrade(&self.inner),
        }
    }

    /// Attach a schedule recorder: every subsequently enqueued stream op,
    /// `record`/`wait_event` edge and copy access range on this device is
    /// mirrored into `log` (see `psdns-analyze`). Recording captures the
    /// *schedule* — host enqueue order plus declared access ranges — not
    /// execution timing, so a single recorded dry-run can be replayed and
    /// mutated offline. The recorder lives on the backend trait object, so
    /// it is identical for every executor.
    pub fn attach_recorder(&self, log: &psdns_analyze::OrderingLog) {
        self.inner.backend.attach_recorder(log);
    }

    /// The attached schedule recorder, if any.
    pub fn recorder(&self) -> Option<psdns_analyze::OrderingLog> {
        self.inner.backend.recorder()
    }

    /// Thread a fault-injection engine through this device: allocations may
    /// fail with injected OOM, copies may fail transiently (retried per the
    /// engine's policy), and streams may stall. A device without an engine
    /// behaves exactly like the pre-chaos runtime. The gates live in the
    /// shared stream layer, so fault sites and schedules are identical on
    /// every backend.
    pub fn attach_chaos(&self, engine: &psdns_chaos::ChaosEngine) {
        *self.inner.chaos.lock() = Some(engine.clone());
    }

    pub(crate) fn chaos(&self) -> Option<psdns_chaos::ChaosEngine> {
        self.inner.chaos.lock().clone()
    }

    /// Rank this device's work is attributed to (via the attached tracer);
    /// 0 when untraced. Used to label injected faults.
    pub(crate) fn trace_rank(&self) -> usize {
        self.inner
            .tracer
            .lock()
            .as_ref()
            .map(|t| t.rank())
            .unwrap_or(0)
    }

    pub(crate) fn set_error(&self, e: DeviceError) {
        let mut slot = self.inner.error.lock();
        if slot.is_none() {
            *slot = Some(e);
        }
    }

    /// Take the sticky asynchronous error, if any — the analogue of
    /// `cudaGetLastError`: returns the first error recorded since the last
    /// call and clears it.
    pub fn take_error(&self) -> Option<DeviceError> {
        self.inner.error.lock().take()
    }

    /// Bridge this device into a shared [`psdns_trace::Tracer`]: every span
    /// the local [`Timeline`] records is also recorded on the tracer (track =
    /// stream name, rank = the handle's rank), and transfer byte counters are
    /// mirrored. Attach a `tracer.for_rank(r)` handle so spans land on the
    /// owning rank.
    pub fn attach_tracer(&self, tracer: &psdns_trace::Tracer) {
        *self.inner.tracer.lock() = Some(tracer.clone());
    }

    /// The attached tracer handle, if any.
    pub fn tracer(&self) -> Option<psdns_trace::Tracer> {
        self.inner.tracer.lock().clone()
    }

    pub(crate) fn trace_add_bytes_h2d(&self, bytes: usize) {
        if let Some(t) = self.tracer() {
            t.add_bytes_h2d(bytes);
        }
    }

    pub(crate) fn trace_add_bytes_d2h(&self, bytes: usize) {
        if let Some(t) = self.tracer() {
            t.add_bytes_d2h(bytes);
        }
    }

    pub(crate) fn trace_incr_kernel(&self) {
        if let Some(t) = self.tracer() {
            t.incr_kernel_launches();
        }
    }

    pub fn config(&self) -> &DeviceConfig {
        self.inner.backend.config()
    }

    pub fn stats(&self) -> &DeviceStats {
        &self.inner.stats
    }

    /// nvtx-style span trace of everything this device has executed while
    /// it was enabled. Disabled when the device is created; readers turn it
    /// on with [`Timeline::set_enabled`].
    pub fn timeline(&self) -> &Timeline {
        &self.inner.timeline
    }

    /// Bytes currently allocated on the device.
    pub fn allocated_bytes(&self) -> usize {
        self.inner.backend.allocated_bytes()
    }

    /// Bytes still available.
    pub fn free_bytes(&self) -> usize {
        self.inner.backend.capacity_bytes() - self.allocated_bytes()
    }

    /// Allocate `len` elements of device memory. Fails with
    /// [`DeviceError::OutOfMemory`] when capacity would be exceeded — the
    /// constraint that forces pencil batching at large N (paper §3.5).
    pub fn alloc<T: Copy + Send + Sync + Default + 'static>(
        &self,
        len: usize,
    ) -> Result<DeviceBuffer<T>, DeviceError> {
        let bytes = len * std::mem::size_of::<T>();
        // Injected memory pressure: fail an allocation that would fit, as a
        // fragmented/oversubscribed device would.
        if let Some(ch) = self.chaos() {
            let rank = self.trace_rank();
            if ch.check(
                rank,
                &format!("alloc:r{rank}"),
                psdns_chaos::FaultKind::AllocFault,
            ) {
                return Err(DeviceError::OutOfMemory {
                    requested_bytes: bytes,
                    free_bytes: self.free_bytes(),
                    capacity_bytes: self.inner.backend.capacity_bytes(),
                });
            }
        }
        let id = crate::buffer::next_buffer_id();
        self.inner.backend.alloc(id, bytes)?;
        Ok(DeviceBuffer::new(Arc::clone(&self.inner.backend), id, len))
    }

    /// Create a named stream: a FIFO queue on this device's backend.
    pub fn create_stream(&self, name: &str) -> Stream {
        let id = self.inner.next_stream_id.fetch_add(1, Ordering::Relaxed);
        let queue = self.inner.backend.create_queue(self.downgrade(), id, name);
        Stream::new(
            self.downgrade(),
            Arc::clone(&self.inner.backend),
            queue,
            id,
            name.to_string(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_accounting() -> Result<(), DeviceError> {
        let dev = Device::new(DeviceConfig::tiny(1024));
        assert_eq!(dev.free_bytes(), 1024);
        let a = dev.alloc::<u8>(512)?;
        assert_eq!(dev.free_bytes(), 512);
        let b = dev.alloc::<f32>(64)?; // 256 B
        assert_eq!(dev.free_bytes(), 256);
        let err = dev.alloc::<u8>(512).unwrap_err();
        match err {
            DeviceError::OutOfMemory {
                requested_bytes,
                free_bytes,
                capacity_bytes,
            } => {
                assert_eq!(requested_bytes, 512);
                assert_eq!(free_bytes, 256);
                assert_eq!(capacity_bytes, 1024);
            }
            other => panic!("wrong error {other:?}"),
        }
        drop(a);
        assert_eq!(dev.free_bytes(), 768);
        drop(b);
        assert_eq!(dev.free_bytes(), 1024);
        Ok(())
    }

    #[test]
    fn alias_clones_free_once() -> Result<(), DeviceError> {
        let dev = Device::new(DeviceConfig::tiny(1024));
        let a = dev.alloc::<u8>(1000)?;
        let alias = a.clone();
        drop(a);
        // Memory stays allocated while an alias lives.
        assert_eq!(dev.free_bytes(), 24);
        drop(alias);
        assert_eq!(dev.free_bytes(), 1024);
        Ok(())
    }

    #[test]
    fn v100_default_capacity() {
        let dev = Device::new(DeviceConfig::default());
        assert_eq!(dev.config().memory_bytes, 16 * (1 << 30));
        assert_eq!(dev.config().sm_count, 80);
        assert_eq!(dev.backend_kind(), BackendKind::Simulated);
    }

    #[test]
    fn buffers_keep_ledger_alive_past_device_drop() -> Result<(), DeviceError> {
        // A buffer outliving its Device must release capacity into the
        // backend's ledger without touching the (gone) device handle.
        let dev = Device::new(DeviceConfig::tiny(1024));
        let buf = dev.alloc::<u8>(512)?;
        drop(dev);
        drop(buf); // must not panic
        Ok(())
    }

    #[test]
    fn config_builder_validates_ranges() -> Result<(), DeviceError> {
        let ok = DeviceConfig::builder()
            .name("test-gpu")
            .memory_bytes(1 << 20)
            .sm_count(40)
            .build()?;
        assert_eq!(ok.name, "test-gpu");
        assert_eq!(ok.memory_bytes, 1 << 20);
        assert_eq!(ok.sm_count, 40);

        // Defaults are the V100 profile.
        let dflt = DeviceConfig::builder().build()?;
        assert_eq!(dflt.memory_bytes, 16 * (1 << 30));

        let e = DeviceConfig::builder().name("  ").build().unwrap_err();
        assert!(matches!(
            e,
            DeviceError::InvalidConfig { field: "name", .. }
        ));
        let e = DeviceConfig::builder().memory_bytes(0).build().unwrap_err();
        assert!(matches!(
            e,
            DeviceError::InvalidConfig {
                field: "memory_bytes",
                ..
            }
        ));
        let e = DeviceConfig::builder().sm_count(0).build().unwrap_err();
        assert!(matches!(
            e,
            DeviceError::InvalidConfig {
                field: "sm_count",
                ..
            }
        ));
        let e = DeviceConfig::builder().sm_count(5000).build().unwrap_err();
        assert!(e.to_string().contains("sm_count"));
        Ok(())
    }

    #[test]
    fn host_device_runs_the_same_offload() -> Result<(), DeviceError> {
        let dev = Device::host(DeviceConfig::tiny(1 << 20));
        assert_eq!(dev.backend_kind(), BackendKind::Host);
        let buf = dev.alloc::<u32>(16)?;
        let s = dev.create_stream("h");
        let b = buf.clone();
        s.launch("fill", move || {
            for (i, v) in b.lock_mut().iter_mut().enumerate() {
                *v = i as u32;
            }
        });
        s.synchronize()?;
        assert_eq!(buf.snapshot()[15], 15);
        Ok(())
    }
}
