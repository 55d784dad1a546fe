//! [`HostBackend`]: eager host-CPU execution of the same certified schedule.
//!
//! Every submitted op runs immediately on the submitting thread, so the
//! "device" is just the host address space and enqueue order *is* execution
//! order. This replaces the ad-hoc `SlabFftCpu` fallback path that used to
//! live inside `gpu_pipeline.rs`: the degraded mode now executes the *same*
//! launched kernels, copies and event edges as the simulated accelerator —
//! only eagerly — so one code path is certified once and runs everywhere.
//!
//! Eager execution cannot deadlock on events: an `event-record` op completes
//! its ticket at submit time, and host program order guarantees every record
//! precedes the `event-wait` that captured its ticket, so waits always find
//! their ticket already complete. Kernels still exploit multicore through the
//! PR-5 `WorkerPool`: the solver's launched closures call
//! `execute_parallel(..., host_threads)` internally, which is
//! thread-count-independent bitwise — the keystone of the byte-identical
//! cross-backend equivalence pinned by `tests/backend_equivalence.rs`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::backend::{run_op, BackendCommon, BackendKind, DeviceBackend, ExecQueue, QueueOp};
use crate::device::{DeviceConfig, WeakDevice};
use crate::error::DeviceError;

struct HostQueue {
    device: WeakDevice,
    stream_id: u64,
    stream_name: String,
    dead: Arc<AtomicBool>,
}

impl HostQueue {
    fn shut_down_error(&self) -> DeviceError {
        DeviceError::BackendShutDown {
            stream: self.stream_name.clone(),
        }
    }
}

impl ExecQueue for HostQueue {
    fn submit(&self, op: QueueOp) -> Result<(), DeviceError> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(self.shut_down_error());
        }
        run_op(&self.device, self.stream_id, &self.stream_name, op);
        Ok(())
    }

    fn fence(&self) -> Result<(), DeviceError> {
        // Everything already ran at submit time; the fence only reports
        // backend liveness.
        if self.dead.load(Ordering::SeqCst) {
            return Err(self.shut_down_error());
        }
        Ok(())
    }
}

/// The eager host-CPU backend ([`BackendKind::Host`]).
pub struct HostBackend {
    common: BackendCommon,
    dead: Arc<AtomicBool>,
}

impl HostBackend {
    pub fn new(config: DeviceConfig) -> Self {
        Self {
            common: BackendCommon::new(config),
            dead: Arc::new(AtomicBool::new(false)),
        }
    }
}

impl DeviceBackend for HostBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Host
    }

    fn common(&self) -> &BackendCommon {
        &self.common
    }

    fn create_queue(
        &self,
        device: WeakDevice,
        stream_id: u64,
        stream_name: &str,
    ) -> Arc<dyn ExecQueue> {
        Arc::new(HostQueue {
            device,
            stream_id,
            stream_name: stream_name.to_string(),
            dead: Arc::clone(&self.dead),
        })
    }

    fn shutdown(&self) {
        self.dead.store(true, Ordering::SeqCst);
    }
}
