//! Streams: FIFO work queues over a backend [`ExecQueue`].
//!
//! The enqueue calls all return immediately ("copy operations in the
//! transfer stream are performed asynchronously, i.e., the CPU can move
//! forward to other tasks", paper §3.4); ordering *within* a stream is
//! strictly FIFO, ordering *across* streams only via [`Event`]s.
//!
//! Everything schedule-shaped happens here, host-side, at enqueue time —
//! ordering-log records, chaos fault gates, stats and tracer byte counters —
//! so it is byte-identical on every backend; the backend only decides where
//! the closures run. A stream holds its device only weakly: async ops on a
//! stream that outlived its device silently no-op (CUDA-style), and
//! [`synchronize`](Stream::synchronize) reports a typed
//! [`DeviceError::BackendShutDown`] instead of panicking.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::backend::{DeviceBackend, ExecQueue, FenceWait, QueueOp};
use crate::device::{Device, WeakDevice};
use crate::error::DeviceError;
use crate::event::Event;
use crate::health::{HealthCause, HealthState};
use crate::timeline::SpanKind;

/// Handle to one stream. Dropping the last handle to a simulated stream
/// drains its queue and joins the worker (like `cudaStreamDestroy` after a
/// synchronize).
pub struct Stream {
    device: WeakDevice,
    backend: Arc<dyn DeviceBackend>,
    queue: Arc<dyn ExecQueue>,
    id: u64,
    name: String,
    /// An injected [`psdns_chaos::FaultKind::DeviceHang`] wedged this
    /// stream: fences report timeouts until the health layer condemns the
    /// device.
    hang_armed: AtomicBool,
}

impl Stream {
    pub(crate) fn new(
        device: WeakDevice,
        backend: Arc<dyn DeviceBackend>,
        queue: Arc<dyn ExecQueue>,
        id: u64,
        name: String,
    ) -> Self {
        Self {
            device,
            backend,
            queue,
            id,
            name,
            hang_armed: AtomicBool::new(false),
        }
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// The owning device, if it is still alive.
    pub fn device(&self) -> Option<Device> {
        self.device.upgrade()
    }

    /// Mirror an executing op with its declared accesses into the attached
    /// schedule recorder, if any. Called by the copy engine right before
    /// enqueueing the transfer.
    pub(crate) fn record_exec(&self, name: &str, accesses: Vec<psdns_analyze::Access>) {
        if let Some(log) = self.backend.recorder() {
            log.record(&self.name, name, psdns_analyze::OpKind::Exec, accesses);
        }
    }

    pub(crate) fn has_recorder(&self) -> bool {
        self.backend.recorder().is_some()
    }

    pub(crate) fn enqueue(&self, name: String, kind: SpanKind, f: Box<dyn FnOnce() + Send>) {
        // Async semantics: a dead backend swallows the op; the next
        // synchronize surfaces BackendShutDown.
        let _ = self.queue.submit(QueueOp {
            name,
            kind,
            exec: f,
        });
    }

    /// Injected stream stall: wedge this stream's FIFO for a while by
    /// enqueueing a sleep. The host does not block (asynchronous semantics
    /// preserved); subsequent ops on this stream drain late.
    fn chaos_stall_gate(&self) {
        let Some(dev) = self.device() else {
            return;
        };
        let Some(ch) = dev.chaos() else {
            return;
        };
        let rank = dev.trace_rank();
        if ch.check(
            rank,
            &format!("stall:{}", self.name),
            psdns_chaos::FaultKind::StreamStall,
        ) {
            let d = ch.stream_stall_duration();
            self.enqueue(
                "chaos-stall".to_string(),
                SpanKind::Marker,
                Box::new(move || std::thread::sleep(d)),
            );
        }
    }

    /// Injected device-level faults, evaluated at enqueue time like every
    /// other gate so the fault schedule is backend-identical.
    ///
    /// * [`psdns_chaos::FaultKind::DeviceHang`] (site `hang:{stream}`) arms
    ///   [`Self::hang_armed`]; on a concurrent backend it also enqueues an op
    ///   blocking on the health release latch, so the queue is *genuinely*
    ///   wedged until condemnation drains it. Eager backends run ops on the
    ///   submitting thread, where a blocking op would wedge the watchdog
    ///   itself — there the armed flag alone drives the (identical)
    ///   detection sequence.
    /// * [`psdns_chaos::FaultKind::DeviceLost`] (site `lost:{stream}`) marks
    ///   the backend lost-injected: the next synchronize goes suspect, the
    ///   canary probe fails, and the device is condemned.
    fn chaos_health_gate(&self) {
        let Some(dev) = self.device() else {
            return;
        };
        let Some(ch) = dev.chaos() else {
            return;
        };
        let rank = dev.trace_rank();
        let health = self.backend.health();
        if ch.check(
            rank,
            &format!("hang:{}", self.name),
            psdns_chaos::FaultKind::DeviceHang,
        ) && !health.is_lost()
        {
            self.hang_armed.store(true, Ordering::SeqCst);
            if self.backend.concurrent() {
                let b = Arc::clone(&self.backend);
                self.enqueue(
                    "chaos-hang".to_string(),
                    SpanKind::Marker,
                    Box::new(move || b.health().block_until_released()),
                );
            }
        }
        if ch.check(
            rank,
            &format!("lost:{}", self.name),
            psdns_chaos::FaultKind::DeviceLost,
        ) {
            health.inject_lost();
        }
    }

    /// Transient copy-engine fault with bounded retry: returns `true` when
    /// the transfer may proceed. After exhausting the retry budget the
    /// transfer is abandoned and a sticky [`DeviceError::CopyFailed`] is
    /// recorded on the device (visible via [`Device::take_error`]) — the
    /// caller's next error check surfaces it as a typed failure.
    pub(crate) fn chaos_copy_gate(&self) -> bool {
        self.chaos_health_gate();
        let Some(dev) = self.device() else {
            return true;
        };
        let Some(ch) = dev.chaos() else {
            return true;
        };
        let rank = dev.trace_rank();
        let site = format!("copy:{}", self.name);
        let policy = ch.retry();
        let salt = psdns_chaos::site_salt(&site);
        for attempt in 0..=policy.max_retries {
            if !ch.check(rank, &site, psdns_chaos::FaultKind::CopyFault) {
                return true;
            }
            if attempt < policy.max_retries {
                std::thread::sleep(policy.backoff_for(attempt, salt));
            }
        }
        dev.set_error(DeviceError::CopyFailed {
            stream: self.name.clone(),
            attempts: policy.max_retries + 1,
        });
        false
    }

    /// Enqueue an arbitrary "kernel" — a closure executed by the backend in
    /// FIFO order. The solver submits FFT batches and pointwise physics
    /// kernels through this.
    ///
    /// A plain launch declares no buffer accesses, so the hazard analyzer
    /// cannot see what it touches; use [`launch_traced`](Self::launch_traced)
    /// on paths covered by schedule analysis.
    pub fn launch<F: FnOnce() + Send + 'static>(&self, name: &str, f: F) {
        self.launch_traced(name, Vec::new(), f);
    }

    /// [`launch`](Self::launch) with declared buffer accesses: when a
    /// schedule recorder is attached to the device, the kernel is logged as
    /// an executing op touching `accesses`, making it visible to the
    /// happens-before hazard analysis in `psdns-analyze`.
    pub fn launch_traced<F: FnOnce() + Send + 'static>(
        &self,
        name: &str,
        accesses: Vec<psdns_analyze::Access>,
        f: F,
    ) {
        self.chaos_stall_gate();
        self.chaos_health_gate();
        if let Some(dev) = self.device() {
            dev.stats().kernel_launches.fetch_add(1, Ordering::Relaxed);
            dev.trace_incr_kernel();
        }
        self.record_exec(name, accesses);
        self.enqueue(name.to_string(), SpanKind::Kernel, Box::new(f));
    }

    /// Record `event` at the current tail of this stream
    /// (`cudaEventRecord`).
    pub fn record(&self, event: &Event) {
        let ticket = event.new_ticket();
        if let Some(log) = self.backend.recorder() {
            log.record(
                &self.name,
                "event-record",
                psdns_analyze::OpKind::EventRecord {
                    event: event.id(),
                    ticket,
                },
                Vec::new(),
            );
        }
        let evt = event.clone();
        self.enqueue(
            "event-record".to_string(),
            SpanKind::Marker,
            Box::new(move || evt.complete(ticket)),
        );
    }

    /// Make this stream wait for the most recent record of `event` as of
    /// this call (`cudaStreamWaitEvent`). The *host* does not block.
    pub fn wait_event(&self, event: &Event) {
        let ticket = event.current_ticket();
        if let Some(log) = self.backend.recorder() {
            log.record(
                &self.name,
                "event-wait",
                psdns_analyze::OpKind::EventWait {
                    event: event.id(),
                    ticket,
                },
                Vec::new(),
            );
        }
        let evt = event.clone();
        self.enqueue(
            "event-wait".to_string(),
            SpanKind::Sync,
            Box::new(move || evt.wait_for(ticket)),
        );
    }

    /// Block the host until everything enqueued so far has executed
    /// (`cudaStreamSynchronize`). Fails with
    /// [`DeviceError::BackendShutDown`] when this stream outlived its
    /// device — the typed replacement for the old worker-channel panic.
    ///
    /// When a fence watchdog is armed on the device (see
    /// [`Device::enable_fence_watchdog`](crate::Device::enable_fence_watchdog))
    /// the fence is bounded by the adaptive deadline and a miss drives the
    /// `Healthy → Suspect → Lost` protocol: the device is probed by a canary
    /// op, retried under the shared [`psdns_chaos::RetryPolicy`], and — only
    /// if it stays wedged — condemned with a typed
    /// [`DeviceError::QueueHung`] / [`DeviceError::DeviceLost`] instead of
    /// blocking forever.
    pub fn synchronize(&self) -> Result<(), DeviceError> {
        if let Some(log) = self.backend.recorder() {
            log.record(
                psdns_analyze::HOST_TRACK,
                "stream-synchronize",
                psdns_analyze::OpKind::HostJoinStream {
                    stream: self.name.clone(),
                },
                Vec::new(),
            );
        }
        self.guarded_fence()
    }

    fn hang_armed(&self) -> bool {
        self.hang_armed.load(Ordering::SeqCst)
    }

    fn device_lost_error(&self) -> DeviceError {
        let device = self
            .device()
            .map(|d| d.config().name.clone())
            .unwrap_or_else(|| self.backend.config().name.clone());
        DeviceError::DeviceLost { device }
    }

    /// One bounded fence attempt. Armed fault flags short-circuit to a
    /// timeout verdict (identically on every backend — an eager backend has
    /// no queue that could really wedge), so the detection sequence, and
    /// with it the health event log, is backend-invariant.
    fn fence_once(&self, deadline: Option<Duration>) -> Result<FenceWait, DeviceError> {
        if self.backend.health().lost_injected() || self.hang_armed() {
            return Ok(FenceWait::TimedOut);
        }
        match deadline {
            Some(d) => self.queue.fence_deadline(d),
            None => self.queue.fence().map(|_| FenceWait::Complete),
        }
    }

    /// Canary probe: does the *device* still respond, independently of this
    /// (possibly wedged) queue? Runs one trivial op on a fresh queue,
    /// bypassing the stream-layer chaos gates so the probe draws no new
    /// faults.
    fn probe_device(&self, deadline: Option<Duration>) -> bool {
        if self.backend.health().lost_injected() {
            return false;
        }
        match self.device() {
            Some(dev) => dev.probe(deadline),
            // Device handle gone: nothing left to salvage.
            None => false,
        }
    }

    /// The health-aware fence (see [`synchronize`](Self::synchronize)).
    fn guarded_fence(&self) -> Result<(), DeviceError> {
        let health = self.backend.health();
        if health.is_lost() {
            return Err(self.device_lost_error());
        }
        let wd = health.watchdog();
        // Cross-rank ordering log: a fence is a local wait whose deadline
        // bit is "is a watchdog armed" — the unbounded form is what
        // `analyze_global` lints.
        let grec = self.device().and_then(|d| d.global_recorder());
        let fence_site = format!("fence:{}", self.name);
        if let Some(rec) = &grec {
            rec.wait_local(&fence_site, wd.is_some());
        }
        // Fast path: no watchdog and no armed fault — the historical
        // unbounded fence, byte-for-byte.
        if wd.is_none() && !health.lost_injected() && !self.hang_armed() {
            let out = self.queue.fence();
            if let (Some(rec), Ok(())) = (&grec, &out) {
                rec.done_local(&fence_site);
            }
            return out;
        }
        let deadline = wd.as_ref().map(|w| w.deadline());
        let policy = self
            .device()
            .and_then(|d| d.chaos())
            .map(|c| c.retry())
            .unwrap_or_default();
        let salt = psdns_chaos::site_salt(&format!("fence:{}", self.name));
        let t0 = Instant::now();
        let mut attempt = 0u32;
        loop {
            match self.fence_once(deadline)? {
                FenceWait::Complete => {
                    if health.state() == HealthState::Suspect {
                        health.mark_recovered(self.id);
                        self.trace_health("recovered");
                    }
                    if let Some(w) = &wd {
                        w.observe(t0.elapsed());
                    }
                    if let Some(rec) = &grec {
                        rec.done_local(&fence_site);
                    }
                    return Ok(());
                }
                FenceWait::TimedOut => {
                    let cause = if health.lost_injected() {
                        HealthCause::LostFault
                    } else {
                        HealthCause::FenceTimeout
                    };
                    if health.mark_suspect(self.id, cause) {
                        self.trace_health("suspect");
                    }
                    let ok = self.probe_device(deadline);
                    health.record_probe(ok);
                    if !ok {
                        health.condemn(self.id, HealthCause::ProbeFailed);
                        self.trace_health("condemned");
                        if let Some(rec) = &grec {
                            rec.note(&format!("{fence_site}: condemned (probe failed)"));
                        }
                        let err = self.device_lost_error();
                        if let Some(dev) = self.device() {
                            dev.set_error(err.clone());
                        }
                        return Err(err);
                    }
                    if attempt >= policy.max_retries {
                        // The device answers probes but this queue stayed
                        // wedged through the whole retry budget.
                        health.condemn(self.id, HealthCause::RetriesExhausted);
                        self.trace_health("condemned");
                        if let Some(rec) = &grec {
                            rec.note(&format!("{fence_site}: condemned (retries exhausted)"));
                        }
                        let err = DeviceError::QueueHung {
                            stream: self.name.clone(),
                            deadline: deadline.unwrap_or_default(),
                        };
                        if let Some(dev) = self.device() {
                            dev.set_error(err.clone());
                        }
                        return Err(err);
                    }
                    std::thread::sleep(policy.backoff_for(attempt, salt));
                    attempt += 1;
                }
            }
        }
    }

    /// Mirror the latest health transition into the attached tracer as a
    /// `Fault` span with logical timestamps (the event's sequence number),
    /// exactly like fired chaos faults — byte-identical across same-seed
    /// runs.
    fn trace_health(&self, what: &str) {
        let Some(dev) = self.device() else {
            return;
        };
        let Some(t) = dev.tracer() else {
            return;
        };
        let seq = self
            .backend
            .health()
            .events()
            .last()
            .map(|e| e.seq())
            .unwrap_or(0);
        let h = t.for_rank(dev.trace_rank());
        h.record(
            psdns_trace::SpanKind::Fault,
            &format!("health:{}", self.name),
            &format!("{what}#{seq}"),
            seq,
            seq + 1,
        );
    }
}

impl Drop for Stream {
    fn drop(&mut self) {
        // If a hang fault wedged this stream and nobody condemned the device
        // (e.g. the owner bailed before synchronizing), open the release
        // latch so the backend's worker can drain — otherwise joining it in
        // the queue's drop would deadlock. Teardown cancelling outstanding
        // work mirrors a driver destroying a wedged context.
        if self.hang_armed.load(Ordering::SeqCst) {
            self.backend.health().release();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;

    #[test]
    fn fifo_order_within_stream() -> Result<(), DeviceError> {
        let dev = Device::new(DeviceConfig::tiny(1 << 20));
        let s = dev.create_stream("fifo");
        let log = Arc::new(psdns_sync::Mutex::new(Vec::new()));
        for i in 0..50 {
            let l = Arc::clone(&log);
            s.launch("step", move || l.lock().push(i));
        }
        s.synchronize()?;
        assert_eq!(*log.lock(), (0..50).collect::<Vec<_>>());
        Ok(())
    }

    #[test]
    fn streams_run_concurrently() -> Result<(), DeviceError> {
        // Two streams each sleep 50 ms; if they serialized, elapsed would be
        // ~100 ms. Allow generous margins for CI noise.
        let dev = Device::new(DeviceConfig::tiny(1 << 20));
        let a = dev.create_stream("a");
        let b = dev.create_stream("b");
        let t0 = Instant::now();
        a.launch("sleep", || {
            std::thread::sleep(std::time::Duration::from_millis(50))
        });
        b.launch("sleep", || {
            std::thread::sleep(std::time::Duration::from_millis(50))
        });
        a.synchronize()?;
        b.synchronize()?;
        let elapsed = t0.elapsed();
        assert!(
            elapsed.as_millis() < 95,
            "streams appear serialized: {elapsed:?}"
        );
        Ok(())
    }

    #[test]
    fn host_does_not_block_on_enqueue() -> Result<(), DeviceError> {
        let dev = Device::new(DeviceConfig::tiny(1 << 20));
        let s = dev.create_stream("bg");
        let t0 = Instant::now();
        s.launch("slow", || {
            std::thread::sleep(std::time::Duration::from_millis(80))
        });
        assert!(t0.elapsed().as_millis() < 40, "launch blocked the host");
        s.synchronize()?;
        assert!(t0.elapsed().as_millis() >= 80);
        Ok(())
    }

    #[test]
    fn timeline_records_spans() -> Result<(), DeviceError> {
        let dev = Device::new(DeviceConfig::tiny(1 << 20));
        dev.timeline().set_enabled(true);
        let s = dev.create_stream("traced");
        s.launch("work", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        s.synchronize()?;
        let spans = dev.timeline().snapshot();
        let work: Vec<_> = spans.iter().filter(|sp| sp.name == "work").collect();
        assert_eq!(work.len(), 1);
        assert!(work[0].duration_us() >= 4000.0);
        assert_eq!(work[0].stream_name, "traced");
        Ok(())
    }

    #[test]
    fn kernel_launch_counter() -> Result<(), DeviceError> {
        let dev = Device::new(DeviceConfig::tiny(1 << 20));
        let s = dev.create_stream("count");
        let c = Arc::new(AtomicUsize::new(0));
        for _ in 0..7 {
            let c = Arc::clone(&c);
            s.launch("inc", move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        s.synchronize()?;
        assert_eq!(c.load(Ordering::Relaxed), 7);
        let (_, _, _, launches) = dev.stats().snapshot();
        assert_eq!(launches, 7);
        Ok(())
    }

    #[test]
    fn stream_outliving_device_reports_shutdown() -> Result<(), DeviceError> {
        // The drop-order footgun: previously this panicked in the worker
        // channel; now async ops no-op and synchronize is a typed error.
        let dev = Device::new(DeviceConfig::tiny(1 << 20));
        let s = dev.create_stream("orphan");
        s.launch("before-drop", || {});
        s.synchronize()?;
        drop(dev);
        s.launch("after-drop", || {}); // must not panic
        let evt = Event::new();
        s.record(&evt);
        s.wait_event(&evt);
        match s.synchronize() {
            Err(DeviceError::BackendShutDown { stream }) => assert_eq!(stream, "orphan"),
            other => panic!("expected BackendShutDown, got {other:?}"),
        }
        Ok(())
    }

    #[test]
    fn host_backend_stream_outliving_device_reports_shutdown() -> Result<(), DeviceError> {
        let dev = Device::host(DeviceConfig::tiny(1 << 20));
        let s = dev.create_stream("orphan-host");
        s.synchronize()?;
        drop(dev);
        s.launch("after-drop", || {});
        assert!(matches!(
            s.synchronize(),
            Err(DeviceError::BackendShutDown { .. })
        ));
        Ok(())
    }
}
