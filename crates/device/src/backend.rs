//! The [`DeviceBackend`] trait: one certified schedule, many executors.
//!
//! The paper's asynchronism wins come from a carefully ordered stream/event
//! schedule — not from any one accelerator — so the *schedule* is the
//! portable artifact. Everything schedule-shaped (host enqueue order, FIFO
//! streams, event tickets, ordering-log records, chaos fault gates, byte
//! accounting) lives in the shared [`Device`]/[`Stream`] layer above this
//! trait; a backend only supplies the *executor*: where and when the already
//! ordered closures actually run.
//!
//! Conformance contract (what `GpuSlabFft::analyze_schedule` certification
//! relies on — see DESIGN.md "Device backends"):
//!
//! 1. **FIFO per queue.** Ops submitted to one [`ExecQueue`] execute in
//!    submission order. Cross-queue ordering is the schedule's job (events),
//!    never the backend's.
//! 2. **`fence` is a completion barrier.** When [`ExecQueue::fence`] returns
//!    `Ok(())`, every previously submitted op has finished executing.
//! 3. **Run every closure exactly once** (or report [`DeviceError`] from
//!    `submit`). Ops are real work — FFT batches, copies, event tickets —
//!    dropping one corrupts the simulation, reordering one breaks the
//!    certified schedule.
//! 4. **Memory is a ledger.** `alloc`/`free` only account capacity; storage
//!    itself is host RAM in every current backend (the simulated device
//!    models HBM capacity, not address spaces).
//!
//! Because the ordering log is recorded at host *enqueue* time in the shared
//! layer, two backends driven by the same program produce structurally
//! identical logs — which is exactly why a schedule certified once (on the
//! cheap eager [`crate::HostBackend`], say) is valid for every conforming
//! executor.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::device::{DeviceConfig, WeakDevice};
use crate::error::DeviceError;
use crate::health::HealthMonitor;
use crate::timeline::{Span, SpanKind};

/// Which executor a [`crate::Device`] handle is backed by.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The discrete-event simulated accelerator: one worker thread per
    /// stream, real concurrency, real blocking events ([`crate::SimBackend`]).
    Simulated,
    /// Eager host-CPU execution on the submitting thread; kernels still fan
    /// out over the PR-5 `WorkerPool` ([`crate::HostBackend`]).
    Host,
}

impl BackendKind {
    /// Short stable label used in traces and error messages.
    pub fn label(&self) -> &'static str {
        match self {
            BackendKind::Simulated => "sim",
            BackendKind::Host => "host",
        }
    }
}

/// One unit of work bound for a backend queue: a named closure plus the
/// timeline kind it should be attributed as. Built by the shared
/// [`crate::Stream`] layer — backends never construct these.
pub struct QueueOp {
    pub name: String,
    pub kind: SpanKind,
    pub exec: Box<dyn FnOnce() + Send>,
}

/// Outcome of a deadline-bounded fence wait ([`ExecQueue::fence_deadline`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FenceWait {
    /// Everything previously submitted has executed.
    Complete,
    /// The deadline expired with work still outstanding. Not an error by
    /// itself — the health layer decides whether the queue is slow or hung.
    TimedOut,
}

/// A backend's execution queue for one stream: FIFO submission plus a
/// host-blocking completion fence. The shared [`crate::Stream`] wrapper owns
/// everything else (recording, chaos gates, stats, health accounting).
pub trait ExecQueue: Send + Sync {
    /// Submit one op. Must preserve FIFO order relative to prior submits on
    /// this queue. Returns [`DeviceError::BackendShutDown`] once the backend
    /// has shut down (the op is dropped).
    fn submit(&self, op: QueueOp) -> Result<(), DeviceError>;

    /// Block the calling (host) thread until everything previously submitted
    /// has executed (`cudaStreamSynchronize`).
    fn fence(&self) -> Result<(), DeviceError>;

    /// [`fence`](Self::fence) bounded by `deadline`. Backends whose fences
    /// cannot outlast submission (eager execution) or that cannot interrupt
    /// a wait keep this default, which ignores the deadline; the simulated
    /// backend implements a real timed wait on its worker channel.
    fn fence_deadline(&self, deadline: std::time::Duration) -> Result<FenceWait, DeviceError> {
        let _ = deadline;
        self.fence().map(|_| FenceWait::Complete)
    }
}

/// Capacity ledger + recorder slot shared by all backends, so every executor
/// enforces the same HBM budget (the constraint that forces the paper's
/// pencil batching, §3.5) and exposes the same schedule-recording hook.
pub struct BackendCommon {
    config: DeviceConfig,
    allocated: AtomicUsize,
    recorder: psdns_sync::Mutex<Option<psdns_analyze::OrderingLog>>,
    /// `Healthy → Suspect → Lost` verdict shared by every stream and device
    /// clone of this backend (see the `health` module docs).
    health: HealthMonitor,
}

impl BackendCommon {
    pub fn new(config: DeviceConfig) -> Self {
        Self {
            config,
            allocated: AtomicUsize::new(0),
            recorder: psdns_sync::Mutex::new(None),
            health: HealthMonitor::new(),
        }
    }

    /// The per-backend health state machine.
    pub fn health(&self) -> &HealthMonitor {
        &self.health
    }

    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    pub fn allocated_bytes(&self) -> usize {
        self.allocated.load(Ordering::Relaxed)
    }

    /// Reserve `bytes` against the capacity ledger. Optimistic `fetch_add`
    /// with rollback — allocations may race between host threads driving
    /// different streams.
    pub fn reserve(&self, bytes: usize) -> Result<(), DeviceError> {
        let prev = self.allocated.fetch_add(bytes, Ordering::SeqCst);
        if prev + bytes > self.config.memory_bytes {
            self.allocated.fetch_sub(bytes, Ordering::SeqCst);
            return Err(DeviceError::OutOfMemory {
                requested_bytes: bytes,
                free_bytes: self.config.memory_bytes - prev,
                capacity_bytes: self.config.memory_bytes,
            });
        }
        Ok(())
    }

    /// Return `bytes` to the ledger (buffer drop).
    pub fn release(&self, bytes: usize) {
        self.allocated.fetch_sub(bytes, Ordering::SeqCst);
    }
}

/// An executor for the certified stream/event schedule. See the module docs
/// for the conformance contract; the provided methods give every backend the
/// same capacity ledger and recorder slot via [`BackendCommon`].
pub trait DeviceBackend: Send + Sync {
    fn kind(&self) -> BackendKind;

    /// The shared ledger/recorder state (storage for the provided methods).
    fn common(&self) -> &BackendCommon;

    /// Create the execution queue for one stream. `device` is a weak handle:
    /// queue workers must not keep the device alive, and must tolerate it
    /// being gone (run the op, skip the timeline — see [`run_op`]).
    fn create_queue(
        &self,
        device: WeakDevice,
        stream_id: u64,
        stream_name: &str,
    ) -> Arc<dyn ExecQueue>;

    /// Irreversibly shut the backend down: subsequent `submit`/`fence` calls
    /// on its queues return [`DeviceError::BackendShutDown`]. Called from the
    /// device handle's final drop; must not block on queue workers (pending
    /// ops drain FIFO before the shutdown marker).
    fn shutdown(&self) {}

    /// Whether ops execute concurrently with the submitting thread (worker
    /// threads / real hardware) rather than eagerly on it. Decides how an
    /// injected [`psdns_chaos::FaultKind::DeviceHang`] manifests: concurrent
    /// backends get a genuinely wedged queue (an op blocked on the health
    /// release latch), eager ones a flag the next fence observes — blocking
    /// the submitting thread would wedge the watchdog itself.
    fn concurrent(&self) -> bool {
        false
    }

    // ---- provided: identical across backends --------------------------------

    /// The per-backend health state machine (shared storage on
    /// [`BackendCommon`]).
    fn health(&self) -> &HealthMonitor {
        self.common().health()
    }

    fn config(&self) -> &DeviceConfig {
        self.common().config()
    }

    fn allocated_bytes(&self) -> usize {
        self.common().allocated_bytes()
    }

    fn capacity_bytes(&self) -> usize {
        self.common().config().memory_bytes
    }

    /// Account a new allocation (`buffer` is the runtime-wide buffer id;
    /// current backends store data in host RAM and only track capacity).
    fn alloc(&self, _buffer: u64, bytes: usize) -> Result<(), DeviceError> {
        self.common().reserve(bytes)
    }

    /// Account an allocation's release.
    fn free(&self, _buffer: u64, bytes: usize) {
        self.common().release(bytes);
    }

    /// Attach a schedule recorder: every subsequently enqueued stream op,
    /// `record`/`wait_event` edge and copy access range is mirrored into
    /// `log`. Lives on the backend so certification survives `Device` handle
    /// churn and follows the trait object to any executor.
    fn attach_recorder(&self, log: &psdns_analyze::OrderingLog) {
        *self.common().recorder.lock() = Some(log.clone());
    }

    /// The attached schedule recorder, if any.
    fn recorder(&self) -> Option<psdns_analyze::OrderingLog> {
        self.common().recorder.lock().clone()
    }
}

/// Map a device-timeline span onto the shared tracer's typed kinds. Kernels
/// are split by name: pack/unpack and zero-copy gather/scatter launches move
/// data, everything else is FFT/pointwise compute.
fn bridge_kind(kind: SpanKind, name: &str) -> psdns_trace::SpanKind {
    match kind {
        SpanKind::CopyH2D => psdns_trace::SpanKind::H2d,
        SpanKind::CopyD2H => psdns_trace::SpanKind::D2h,
        SpanKind::Kernel => {
            if name.starts_with("pack")
                || name.starts_with("unpack")
                || name.starts_with("zero-copy")
            {
                psdns_trace::SpanKind::PackUnpack
            } else {
                psdns_trace::SpanKind::FftCompute
            }
        }
        SpanKind::Sync | SpanKind::Marker => psdns_trace::SpanKind::Other,
    }
}

/// Execute one op with the full observability harness every backend shares:
/// epoch-relative timing into the device [`crate::Timeline`], and mirroring
/// into the attached tracer. When the device handle is already gone the op
/// still runs (work must never be dropped) but is no longer observable.
///
/// Backends call this from wherever their execution happens — a dedicated
/// worker thread (simulated) or the submitting thread (host) — so timelines
/// stay comparable across executors.
pub fn run_op(device: &WeakDevice, stream_id: u64, stream_name: &str, op: QueueOp) {
    let QueueOp { name, kind, exec } = op;
    let Some(dev) = device.upgrade() else {
        exec();
        return;
    };
    let epoch: Instant = dev.inner.epoch;
    let tracer = dev.tracer();
    let t0 = epoch.elapsed().as_secs_f64() * 1e6;
    let trace_t0 = tracer.as_ref().map(|t| t.now_ns());
    exec();
    let t1 = epoch.elapsed().as_secs_f64() * 1e6;
    if let (Some(t), Some(start)) = (&tracer, trace_t0) {
        t.record(
            bridge_kind(kind, &name),
            stream_name,
            &name,
            start,
            t.now_ns(),
        );
    }
    dev.inner.timeline.push(Span {
        stream_id,
        stream_name: stream_name.to_string(),
        name,
        kind,
        start_us: t0,
        end_us: t1,
    });
}
