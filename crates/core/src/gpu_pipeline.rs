//! The batched **asynchronous** GPU algorithm — the paper's core
//! contribution (§3.4, Fig. 4).
//!
//! Each rank's slab is too large for device memory, so it is divided into
//! `np` pencils (Fig. 3/6) that are streamed through the device:
//!
//! * a dedicated **transfer stream** moves pencils H2D and packed results
//!   D2H ("a distinct data transfer stream ensures that bandwidth is devoted
//!   to one direction of traffic at a time");
//! * a **compute stream** runs the FFT kernels;
//! * **events** enforce H2D→compute→pack-D2H dependencies per pencil while
//!   different pencils overlap (operations launched left-to-right "to
//!   prioritize data copy out of the GPU so that the global transpose can be
//!   initiated as soon as possible");
//! * device buffers rotate through 3 slots (the paper's ×3 buffer budget for
//!   asynchronous execution, §3.5);
//! * the all-to-all granularity is configurable (paper §4.1: "each MPI rank
//!   can be made to communicate the entire slab all at once, one pencil at a
//!   time, or a selected number (say, Q) of pencils per call"):
//!   [`A2aMode::PerPencil`] (configs A/B), [`A2aMode::PerSlab`] (config C),
//!   or [`A2aMode::Grouped`]`(q)` in between. Internally these are all
//!   *pencil groups*: a group's exchange is posted as a nonblocking
//!   `ialltoall` the moment the D2H of its last pencil completes;
//! * with several devices per rank each pencil is split vertically across
//!   them (Fig. 5), all driven from one host thread — every enqueue is
//!   asynchronous, so no helper threads are needed.
//!
//! Pack = strided `memcpy2d` D2H in a single operation ("both the packing
//! and the D2H are performed in a single operation"); unpack after the
//! transpose = zero-copy gather kernels, the one place the paper keeps
//! zero-copy because of its complex stride patterns (§4.2).

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use psdns_analyze::{analyze_log, Access, AnalysisReport, OpKind, OrderingLog, HOST_TRACK};
use psdns_chaos::WatchdogPolicy;
use psdns_comm::{Communicator, Request, Universe};
use psdns_device::{
    BackendKind, Copy2d, Device, DeviceBuffer, DeviceConfig, DeviceError, Event, PinnedBuffer,
    Stream,
};
use psdns_domain::decomp::{GpuSplit, PencilSplit};
use psdns_fft::{Complex, Direction, ManyPlan, ManyRealPlan, Real};
use psdns_sync::Mutex;

use crate::error::{Error, PipelineError};
use crate::field::{LocalShape, PhysicalField, SpectralField, Transform3d};

/// Triple buffering, as budgeted in paper §3.5 (9 buffers × 3).
const SLOTS: usize = 3;

/// All-to-all granularity (paper §4.1, Table 2/3).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum A2aMode {
    /// One nonblocking all-to-all per pencil, overlapped with GPU work on
    /// later pencils (configs A and B).
    PerPencil,
    /// `q` pencils per all-to-all — the intermediate granularity the paper
    /// describes but does not benchmark; exposed for ablations.
    Grouped(usize),
    /// Wait for the whole slab, then one large all-to-all (config C —
    /// fastest at scale in the paper).
    PerSlab,
}

impl A2aMode {
    /// Pencils per exchange given `np` pencils per slab.
    pub fn group_size(self, np: usize) -> usize {
        match self {
            A2aMode::PerPencil => 1,
            A2aMode::Grouped(q) => q.clamp(1, np),
            A2aMode::PerSlab => np,
        }
    }
}

/// Pipeline configuration.
#[derive(Clone, Debug)]
pub struct GpuFftConfig {
    /// Pencils per slab (`np` in the paper). Must satisfy device memory;
    /// see [`GpuSlabFft::auto_np`].
    pub np: usize,
    pub a2a_mode: A2aMode,
}

impl Default for GpuFftConfig {
    fn default() -> Self {
        Self {
            np: 1,
            a2a_mode: A2aMode::PerSlab,
        }
    }
}

/// Builder for [`GpuSlabFft`] — the supported construction path.
///
/// Validates the pencil count against device memory *before* any device
/// work starts (paper §3.5: the ×3 slot-buffer budget must fit in HBM) and
/// optionally wires a [`psdns_trace::Tracer`] through every layer: the
/// communicator (all-to-all post/wait spans, network bytes), the devices
/// (stream span bridging, transfer bytes, kernel launches) and the solver
/// (step/nonlinear/projection phases via [`Transform3d::tracer`]).
///
/// ```
/// use psdns_comm::Universe;
/// use psdns_core::{A2aMode, GpuSlabFft, LocalShape};
/// use psdns_device::{Device, DeviceConfig};
/// let np = Universe::run(1, |comm| {
///     let shape = LocalShape::new(16, 1, 0);
///     let fft = GpuSlabFft::<f32>::builder(shape)
///         .comm(comm)
///         .devices(vec![Device::new(DeviceConfig::tiny(1 << 20))])
///         .nv(3) // size slot buffers for 3-variable transforms
///         .a2a_mode(A2aMode::PerPencil)
///         .build()
///         .unwrap(); // np chosen automatically (auto_np)
///     fft.config().np
/// });
/// assert!(np[0] >= 1);
/// ```
pub struct GpuFftBuilder<T: Real> {
    shape: LocalShape,
    comm: Option<Communicator>,
    devices: Vec<Device>,
    np: Option<usize>,
    a2a_mode: A2aMode,
    nv: usize,
    tracer: Option<psdns_trace::Tracer>,
    cpu_fallback: bool,
    watchdog: Option<WatchdogPolicy>,
    schedule_log: Option<OrderingLog>,
    host_threads: usize,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Real> GpuFftBuilder<T> {
    fn new(shape: LocalShape) -> Self {
        Self {
            shape,
            comm: None,
            devices: Vec::new(),
            np: None,
            a2a_mode: A2aMode::PerSlab,
            nv: 1,
            tracer: None,
            cpu_fallback: false,
            watchdog: None,
            schedule_log: None,
            host_threads: 1,
            _marker: std::marker::PhantomData,
        }
    }

    /// The communicator spanning the slab decomposition. Required.
    pub fn comm(mut self, comm: Communicator) -> Self {
        self.comm = Some(comm);
        self
    }

    /// The devices driven by this rank (Fig. 5: pencils split vertically
    /// across them). Required to be non-empty.
    pub fn devices(mut self, devices: Vec<Device>) -> Self {
        self.devices = devices;
        self
    }

    /// Add one device (may be called repeatedly).
    pub fn device(mut self, device: Device) -> Self {
        self.devices.push(device);
        self
    }

    /// Pencils per slab (`np` in the paper). When not set,
    /// [`GpuSlabFft::auto_np`] picks the smallest count whose slot buffers
    /// fit in free device memory for [`nv`](Self::nv) variables.
    pub fn np(mut self, np: usize) -> Self {
        self.np = Some(np);
        self
    }

    /// All-to-all granularity (paper §4.1). Default: [`A2aMode::PerSlab`].
    pub fn a2a_mode(mut self, mode: A2aMode) -> Self {
        self.a2a_mode = mode;
        self
    }

    /// Variables per transform call used to size (and validate) the slot
    /// buffers — the paper moves 3 velocity components per transpose.
    /// Default 1.
    pub fn nv(mut self, nv: usize) -> Self {
        assert!(nv >= 1);
        self.nv = nv;
        self
    }

    /// Attach a tracer: `build` wires a rank-tagged handle into the
    /// communicator and every device, so a2a, stream and solver activity all
    /// land in one timeline.
    pub fn tracer(mut self, tracer: &psdns_trace::Tracer) -> Self {
        self.tracer = Some(tracer.clone());
        self
    }

    /// Degrade gracefully when device memory runs out mid-run: when enabled,
    /// a failed slot-buffer allocation makes *all* ranks (coordinated by an
    /// allreduce) execute the transform through a host-backend twin of this
    /// pipeline — the same certified schedule on a
    /// [`psdns_device::HostBackend`] executor — instead of returning an
    /// error. Off by default — the fault-free pipeline then performs no
    /// extra collective.
    pub fn cpu_fallback(mut self, enable: bool) -> Self {
        self.cpu_fallback = enable;
        self
    }

    /// Worker threads for the host-side compute stages of the simulated
    /// kernels — the batched y/z transforms inside kernel closures fan out
    /// over the persistent worker pool in `psdns-sync` (the paper's
    /// within-socket OpenMP layer). Default 1 (serial).
    pub fn host_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1);
        self.host_threads = threads;
        self
    }

    /// Arm *all* the pipeline's watchdogs from one policy: every device
    /// fence and `Stream::synchronize` gets an adaptive deadline
    /// (`max(floor, factor × p99)` over the device's recent fence
    /// latencies), and the communicator's all-to-all waits get the same
    /// adaptive treatment over exchange latencies. With this armed, a hung
    /// queue or unresponsive device surfaces as a typed
    /// [`psdns_device::DeviceError::QueueHung`] /
    /// [`DeviceLost`](psdns_device::DeviceError::DeviceLost) within the
    /// deadline instead of blocking the step forever; combined with
    /// [`cpu_fallback`](Self::cpu_fallback) the call then hot-swaps to the
    /// host-backend twin mid-step.
    pub fn watchdog(mut self, policy: WatchdogPolicy) -> Self {
        self.watchdog = Some(policy);
        self
    }

    /// Record every stream operation, event edge and buffer access of this
    /// pipeline into `log` for happens-before analysis (see
    /// [`GpuSlabFft::analyze_schedule`], which wires this up on a shadow
    /// instance automatically). The recorder is attached to every device
    /// and the pipeline additionally logs its host-side staging accesses
    /// and event joins.
    pub fn schedule_log(mut self, log: &OrderingLog) -> Self {
        self.schedule_log = Some(log.clone());
        self
    }

    /// Validate and construct. Returns [`PipelineError`] on an invalid
    /// configuration; never panics.
    pub fn build(self) -> Result<GpuSlabFft<T>, PipelineError> {
        let mut comm = self.comm.ok_or(PipelineError::MissingComm)?;
        if self.devices.is_empty() {
            return Err(PipelineError::NoDevices);
        }
        let gpus = self.devices.len();
        let free = self
            .devices
            .iter()
            .map(|d| d.free_bytes())
            .min()
            .ok_or(PipelineError::NoDevices)?;
        let np = match self.np {
            Some(0) => return Err(PipelineError::InvalidNp { np: 0 }),
            Some(np) => {
                let required =
                    GpuSlabFft::<T>::required_bytes_per_device(self.shape, self.nv, np, gpus);
                if required > free {
                    return Err(PipelineError::InsufficientDeviceMemory {
                        np,
                        nv: self.nv,
                        required_bytes: required,
                        free_bytes: free,
                        suggested_np: GpuSlabFft::<T>::auto_np(self.shape, self.nv, gpus, free),
                    });
                }
                np
            }
            None => GpuSlabFft::<T>::auto_np(self.shape, self.nv, gpus, free).ok_or_else(|| {
                let np_max = self.shape.nxh.max(self.shape.my);
                PipelineError::InsufficientDeviceMemory {
                    np: np_max,
                    nv: self.nv,
                    required_bytes: GpuSlabFft::<T>::required_bytes_per_device(
                        self.shape, self.nv, np_max, gpus,
                    ),
                    free_bytes: free,
                    suggested_np: None,
                }
            })?,
        };
        if let Some(t) = &self.tracer {
            // Derive the per-rank view directly rather than re-reading it
            // back out of the communicator (set_tracer stores the same
            // `for_rank` projection).
            let rank_tracer = t.for_rank(comm.rank());
            comm.set_tracer(t);
            for d in &self.devices {
                d.attach_tracer(&rank_tracer);
            }
        }
        if let Some(p) = self.watchdog {
            // One policy arms both layers. The a2a floor gets 4× headroom
            // over the fence floor: a peer may spend up to its full fence
            // deadline (plus probe retries) detecting a hung device before
            // it posts its exchange, and the outer timeout must dominate
            // the inner one or healthy ranks would condemn a peer that is
            // busy condemning its own device.
            comm.set_adaptive_a2a_watchdog(4 * p.floor, p.factor);
            for d in &self.devices {
                d.enable_fence_watchdog(p);
            }
        }
        if let Some(log) = &self.schedule_log {
            for d in &self.devices {
                d.attach_recorder(log);
            }
        }
        let mut fft = GpuSlabFft::construct(
            self.shape,
            comm,
            self.devices,
            GpuFftConfig {
                np,
                a2a_mode: self.a2a_mode,
            },
        );
        fft.fallback_to_cpu = self.cpu_fallback;
        fft.nv_hint = self.nv;
        fft.recorder = self.schedule_log;
        fft.host_threads = self.host_threads;
        Ok(fft)
    }
}

/// The asynchronous out-of-core slab transform.
///
/// ```
/// use psdns_comm::Universe;
/// use psdns_core::{A2aMode, GpuFftConfig, GpuSlabFft, LocalShape, SpectralField};
/// use psdns_device::{Device, DeviceConfig};
/// let energy = Universe::run(1, |comm| {
///     let shape = LocalShape::new(8, 1, 0);
///     let dev = Device::new(DeviceConfig::tiny(1 << 20));
///     let mut fft = GpuSlabFft::<f64>::builder(shape)
///         .comm(comm)
///         .devices(vec![dev])
///         .np(2)
///         .a2a_mode(A2aMode::PerPencil)
///         .build()
///         .unwrap();
///     let spec = SpectralField::zeros(shape);
///     let phys = fft.try_fourier_to_physical(&[spec]).unwrap();
///     phys[0].data.iter().map(|v| v * v).sum::<f64>()
/// });
/// assert_eq!(energy[0], 0.0);
/// ```
pub struct GpuSlabFft<T: Real> {
    shape: LocalShape,
    comm: Communicator,
    devices: Vec<Device>,
    /// (transfer, compute) stream pair per device.
    streams: Vec<(Stream, Stream)>,
    config: GpuFftConfig,
    #[allow(clippy::type_complexity)]
    plan_cache: Mutex<HashMap<(usize, usize), Arc<ManyPlan<T>>>>,
    /// Batched r2c/c2r plans keyed by line count (`yw * n` varies per
    /// device and pencil group); layout params are fixed by the shape.
    #[allow(clippy::type_complexity)]
    real_plan_cache: Mutex<HashMap<usize, Arc<ManyRealPlan<T>>>>,
    /// Degrade to the host-backend path when slot-buffer allocation fails
    /// (see [`GpuFftBuilder::cpu_fallback`]).
    fallback_to_cpu: bool,
    /// Lazily built host-backend twin of this pipeline, used by the
    /// degraded path: same schedule, same collective sequence, but every
    /// kernel executes eagerly on the CPU against an effectively unbounded
    /// memory ledger. Cached so repeated fallbacks do not re-plan.
    host: Option<Box<GpuSlabFft<T>>>,
    /// Variables per transform call the builder sized the slot buffers for;
    /// [`Self::analyze_schedule`] replays the schedule at this width.
    nv_hint: usize,
    /// Schedule recorder wired by [`GpuFftBuilder::schedule_log`]; the
    /// pipeline logs host-side staging accesses and event joins here (the
    /// devices log stream ops themselves).
    recorder: Option<OrderingLog>,
    /// Worker threads for the host-side compute stages of the simulated
    /// kernels (1 = serial); see [`GpuFftBuilder::host_threads`].
    host_threads: usize,
    /// When armed, the unstaged call outputs are scanned for NaN/Inf and a
    /// hit fails the call with [`crate::IntegrityError::NonFinite`] — which
    /// the end-of-call vote ([`Self::finish_call`]) turns into a host-twin
    /// re-run, exactly like a device fault. The scan runs *after* the
    /// call's full collective sequence, so peers never block.
    scan_nonfinite: bool,
}

struct CallBuffers<T: Real> {
    /// Complex slot buffers, `[device][slot]`.
    cbuf: Vec<Vec<DeviceBuffer<Complex<T>>>>,
    /// Real slot buffers (physical-space pieces), `[device][slot]`.
    rbuf: Vec<Vec<DeviceBuffer<T>>>,
    /// Slot-free events, recorded after the slot's D2H completes.
    free: Vec<Vec<Event>>,
}

/// Per-call failure bookkeeping for the hot-swap path. A condemned queue or
/// lost device is recorded here and taken out of the rest of the call — its
/// results are garbage that the end-of-call vote discards — while the
/// rank keeps posting its full collective sequence, so peers never block on
/// an all-to-all this rank would otherwise skip and every rank reaches the
/// vote in lockstep.
struct CallGuard {
    /// Devices condemned during this call: their event joins and final
    /// fences are skipped (failing fast instead of re-probing a dead
    /// executor once per event).
    down: Vec<bool>,
    /// First device failure of the call, surfaced only after the
    /// collective sequence completes.
    err: Option<Error>,
}

impl CallGuard {
    fn new(gpus: usize) -> Self {
        Self {
            down: vec![false; gpus],
            err: None,
        }
    }

    fn device_down(&mut self, g: usize, e: Error) {
        self.down[g] = true;
        if self.err.is_none() {
            self.err = Some(e);
        }
    }
}

/// A pencil group: consecutive pencils whose union of split-axis ranges is
/// exchanged in one all-to-all.
struct Group {
    /// Pencil indices `[first, last)`.
    pencils: Range<usize>,
    /// Union of the pencils' split-axis ranges (contiguous by construction).
    axis: Range<usize>,
}

/// One direction's global transpose: the pencil groups, each group's pinned
/// send buffer and in-flight all-to-all, and the per-(pencil, device) D2H
/// events a group's post joins.
struct Exchange<T: Real> {
    groups: Vec<Group>,
    send: Vec<PinnedBuffer<Complex<T>>>,
    d2h_done: Vec<Vec<Event>>,
    requests: Vec<Option<Request<Complex<T>>>>,
}

/// Paper Fig. 4 op order over `np` pencils: the head ops (H2D + compute)
/// of pencil `step` are posted before the tail ops (pack + D2H) of pencil
/// `step − 1`, so the transfer stream never stalls behind a pack waiting on
/// compute ("a H2D copy for the next pencil is also posted at this time",
/// §3.4).
fn pipelined(np: usize, mut head: impl FnMut(usize), mut tail: impl FnMut(usize)) {
    for step in 0..=np {
        if step < np {
            head(step);
        }
        if step >= 1 {
            tail(step - 1);
        }
    }
}

/// A fresh `[pencil][device]` grid of events.
fn event_grid(np: usize, gpus: usize) -> Vec<Vec<Event>> {
    (0..np)
        .map(|_| (0..gpus).map(|_| Event::new()).collect())
        .collect()
}

/// `[read, write]` over one device-buffer range — the access signature of
/// an in-place FFT kernel.
fn rw_device(buffer: u64, len: usize) -> Vec<Access> {
    vec![
        Access::read(buffer, psdns_analyze::MemSpace::Device, 0, len),
        Access::write(buffer, psdns_analyze::MemSpace::Device, 0, len),
    ]
}

fn group_of(groups: &[Group], ip: usize) -> usize {
    // `make_groups` partitions 0..np into contiguous pencil ranges, so every
    // in-range pencil index is covered by construction.
    groups
        .iter()
        .position(|g| g.pencils.contains(&ip))
        .expect("pencil belongs to a group")
}

fn make_groups(split: &PencilSplit, np: usize, q: usize) -> Vec<Group> {
    (0..np)
        .step_by(q)
        .map(|first| {
            let last = (first + q).min(np);
            Group {
                pencils: first..last,
                axis: split.range(first).start..split.range(last - 1).end,
            }
        })
        .collect()
}

impl<T: Real> GpuSlabFft<T> {
    /// Start building an asynchronous pipeline for one rank's slab. This is
    /// the supported construction path: [`GpuFftBuilder::build`] validates
    /// the configuration (pencil count vs. device memory) and returns typed
    /// [`PipelineError`]s instead of panicking.
    pub fn builder(shape: LocalShape) -> GpuFftBuilder<T> {
        GpuFftBuilder::new(shape)
    }

    fn construct(
        shape: LocalShape,
        comm: Communicator,
        devices: Vec<Device>,
        config: GpuFftConfig,
    ) -> Self {
        let streams = devices
            .iter()
            .enumerate()
            .map(|(g, d)| {
                (
                    d.create_stream(&format!("xfer-r{}g{g}", shape.rank)),
                    d.create_stream(&format!("comp-r{}g{g}", shape.rank)),
                )
            })
            .collect();
        Self {
            shape,
            comm,
            devices,
            streams,
            config,
            plan_cache: Mutex::new(HashMap::new()),
            real_plan_cache: Mutex::new(HashMap::new()),
            fallback_to_cpu: false,
            host: None,
            nv_hint: 1,
            recorder: None,
            host_threads: 1,
            scan_nonfinite: false,
        }
    }

    /// Log a host-track operation (staging-buffer access by the driving
    /// thread) when a schedule recorder is attached.
    fn log_host_op(&self, name: &str, accesses: Vec<Access>) {
        if let Some(log) = &self.recorder {
            log.record(HOST_TRACK, name, OpKind::Exec, accesses);
        }
    }

    /// Log the host blocking on `e` (an `Event::synchronize`): everything
    /// recorded up to the event's latest ticket happens-before subsequent
    /// host-track operations.
    fn log_event_join(&self, e: &Event) {
        if let Some(log) = &self.recorder {
            log.record(
                HOST_TRACK,
                "event-sync",
                OpKind::HostJoinEvent {
                    event: e.id(),
                    ticket: e.current_ticket(),
                },
                Vec::new(),
            );
        }
    }

    /// Attach labels to this call's slot buffers so hazard reports name
    /// them (`cbuf[g0][s1]`) instead of bare buffer ids.
    fn label_call_buffers(&self, bufs: &CallBuffers<T>) {
        let Some(log) = &self.recorder else { return };
        for (g, (cs, rs)) in bufs.cbuf.iter().zip(&bufs.rbuf).enumerate() {
            for (slot, c) in cs.iter().enumerate() {
                log.label_buffer(c.id(), &format!("cbuf[g{g}][s{slot}]"));
            }
            for (slot, r) in rs.iter().enumerate() {
                log.label_buffer(r.id(), &format!("rbuf[g{g}][s{slot}]"));
            }
        }
    }

    /// Label a pinned staging buffer and log its creation as a host write
    /// (the host fills or zero-initializes it before any stream touches it).
    fn log_staging<U: Copy + Send + Sync + Default + 'static>(
        &self,
        buf: &PinnedBuffer<U>,
        label: &str,
    ) {
        if let Some(log) = &self.recorder {
            log.label_buffer(buf.id(), label);
            log.record(
                HOST_TRACK,
                &format!("stage `{label}`"),
                OpKind::Exec,
                vec![Access::write(
                    buf.id(),
                    psdns_analyze::MemSpace::Host,
                    0,
                    buf.len(),
                )],
            );
        }
    }

    /// Flatten a call's input fields (`len` elements in all) into one
    /// pinned staging buffer, logged under `label`.
    fn stage_input<'a, U: Copy + Send + Sync + Default + 'static>(
        &self,
        len: usize,
        fields: impl Iterator<Item = (LocalShape, &'a [U])>,
        label: &str,
    ) -> PinnedBuffer<U> {
        let mut flat = Vec::with_capacity(len);
        for (shape, data) in fields {
            assert_eq!(shape, self.shape);
            flat.extend_from_slice(data);
        }
        let buf = PinnedBuffer::from_vec(flat);
        self.log_staging(&buf, label);
        buf
    }

    /// Log the host's read of the pinned result buffer `label` and copy it
    /// out.
    fn unstage<U: Copy + Send + Sync + Default + 'static>(
        &self,
        buf: &PinnedBuffer<U>,
        label: &str,
    ) -> Vec<U> {
        self.log_host_op(
            &format!("unstage `{label}`"),
            vec![Access::read(
                buf.id(),
                psdns_analyze::MemSpace::Host,
                0,
                buf.len(),
            )],
        );
        buf.snapshot()
    }

    pub fn config(&self) -> &GpuFftConfig {
        &self.config
    }

    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Bytes of device memory needed per device for `nv` variables with
    /// `np` pencils across `gpus` devices (complex + real slot buffers,
    /// triple buffered).
    pub fn required_bytes_per_device(
        shape: LocalShape,
        nv: usize,
        np: usize,
        gpus: usize,
    ) -> usize {
        let (xw, yw) = Self::max_widths(shape, np, gpus);
        let c_elems = nv * (xw * shape.n * shape.mz).max(shape.nxh * yw * shape.n);
        let r_elems = nv * shape.n * yw * shape.n;
        SLOTS * (c_elems * std::mem::size_of::<Complex<T>>() + r_elems * std::mem::size_of::<T>())
    }

    /// Smallest `np` whose slot buffers fit in `free_bytes` per device —
    /// the runtime analogue of Table 1's pencil sizing.
    pub fn auto_np(shape: LocalShape, nv: usize, gpus: usize, free_bytes: usize) -> Option<usize> {
        (1..=shape.nxh.max(shape.my))
            .find(|&np| Self::required_bytes_per_device(shape, nv, np, gpus) <= free_bytes)
    }

    /// Replay this pipeline's planned schedule (same pencil count, variable
    /// count, A2A mode and device count) in a single-rank shadow universe
    /// with recording devices, and return the captured ordering log.
    ///
    /// The shadow run executes a full `fourier_to_physical` /
    /// `physical_to_fourier` round trip plus a device cross product over a
    /// small grid sized so every pencil of every device is exercised — the
    /// stream/event structure of the pencil loop is independent of the grid
    /// extent, so hazards in the planned DAG appear in the shadow log.
    pub fn capture_schedule(&self) -> Result<OrderingLog, Error> {
        let np = self.config.np;
        let mode = self.config.a2a_mode;
        let gpus = self.devices.len();
        let nv = self.nv_hint.max(1);
        let backend = self.devices[0].backend_kind();
        // Smallest even grid whose pencil splits keep all np pencils and
        // all devices busy: nxh = n/2 + 1 > np * gpus.
        let shadow_n = 8usize.max(2 * np * gpus).next_multiple_of(2);
        let mut results = Universe::run(1, move |comm| -> Result<OrderingLog, Error> {
            let shape = LocalShape::new(shadow_n, 1, 0);
            let required = Self::required_bytes_per_device(shape, nv, np, gpus);
            let devices: Vec<Device> = (0..gpus)
                .map(|_| Device::with_kind(backend, DeviceConfig::tiny(2 * required + (1 << 22))))
                .collect();
            let log = OrderingLog::new();
            let mut fft = GpuSlabFft::<T>::builder(shape)
                .comm(comm)
                .devices(devices)
                .np(np)
                .nv(nv)
                .a2a_mode(mode)
                .schedule_log(&log)
                .build()
                .map_err(Error::Pipeline)?;
            let specs = vec![SpectralField::<T>::zeros(shape); nv];
            let phys = fft.try_fourier_to_physical(&specs)?;
            let _ = fft.try_physical_to_fourier(&phys)?;
            let zeros = [
                PhysicalField::<T>::zeros(shape),
                PhysicalField::<T>::zeros(shape),
                PhysicalField::<T>::zeros(shape),
            ];
            let _ = fft.cross_product(&zeros, &zeros);
            Ok(log)
        });
        // Universe::run(1, ..) returns exactly one closure result.
        results.pop().expect("one shadow rank")
    }

    /// Statically certify the planned pipeline race-free before running it:
    /// capture the schedule ([`Self::capture_schedule`]) and replay it
    /// through the happens-before analyzer. Returns the clean
    /// [`AnalysisReport`] (op/edge counts, redundant waits) or the first
    /// [`Error::Hazard`] naming both conflicting operations.
    pub fn analyze_schedule(&self) -> Result<AnalysisReport, Error> {
        let log = self.capture_schedule()?;
        let report = analyze_log(&log);
        match report.hazards.first() {
            Some(h) => {
                // A certification failure is a fault of this rank's run:
                // count it on the attached tracer so the report sits next
                // to the span context of whatever else the rank did.
                if let Some(t) = self.comm.tracer() {
                    t.incr_faults();
                }
                Err(Error::Hazard(Box::new(h.clone())))
            }
            None => Ok(report),
        }
    }

    fn max_widths(shape: LocalShape, np: usize, gpus: usize) -> (usize, usize) {
        let xs = PencilSplit::new(shape.nxh, np);
        let ys = PencilSplit::new(shape.my, np);
        let mut xw = 0;
        let mut yw = 0;
        for ip in 0..np {
            let xr = xs.range(ip);
            let yr = ys.range(ip);
            for g in 0..gpus {
                xw = xw.max(GpuSplit::new(xr.len(), gpus).range(g).len());
                yw = yw.max(GpuSplit::new(yr.len(), gpus).range(g).len());
            }
        }
        (xw, yw)
    }

    fn plan_many(&self, stride: usize, count: usize) -> Arc<ManyPlan<T>> {
        let mut cache = self.plan_cache.lock();
        Arc::clone(
            cache
                .entry((stride, count))
                .or_insert_with(|| Arc::new(ManyPlan::new(self.shape.n, stride, 1, count))),
        )
    }

    /// Batched x-direction real plan over `count` dense lines (real dist
    /// `n`, spectral dist `nxh`). Counts vary with the per-device y-width,
    /// so plans are cached per count like [`Self::plan_many`].
    fn plan_real(&self, count: usize) -> Arc<ManyRealPlan<T>> {
        let s = self.shape;
        let mut cache = self.real_plan_cache.lock();
        Arc::clone(
            cache
                .entry(count)
                .or_insert_with(|| Arc::new(ManyRealPlan::new(s.n, count, 1, s.n, 1, s.nxh))),
        )
    }

    fn alloc_call_buffers(&self, nv: usize) -> Result<CallBuffers<T>, DeviceError> {
        let gpus = self.devices.len();
        let (xw, yw) = Self::max_widths(self.shape, self.config.np, gpus);
        let s = self.shape;
        let c_elems = nv * (xw * s.n * s.mz).max(s.nxh * yw * s.n);
        let r_elems = nv * s.n * yw * s.n;
        let mut cbuf = Vec::with_capacity(gpus);
        let mut rbuf = Vec::with_capacity(gpus);
        let mut free = Vec::with_capacity(gpus);
        for dev in &self.devices {
            let mut cs = Vec::with_capacity(SLOTS);
            let mut rs = Vec::with_capacity(SLOTS);
            let mut es = Vec::with_capacity(SLOTS);
            for _ in 0..SLOTS {
                cs.push(dev.alloc::<Complex<T>>(c_elems)?);
                rs.push(dev.alloc::<T>(r_elems)?);
                es.push(Event::new());
            }
            cbuf.push(cs);
            rbuf.push(rs);
            free.push(es);
        }
        let bufs = CallBuffers { cbuf, rbuf, free };
        self.label_call_buffers(&bufs);
        Ok(bufs)
    }

    /// Allocate this call's slot buffers, coordinating graceful degradation
    /// when [`GpuFftBuilder::cpu_fallback`] is enabled: an allreduce tells
    /// every rank whether *any* rank failed to allocate, so either all ranks
    /// run the device pipeline or all take the host-backend path together —
    /// the collective sequence stays in lockstep either way. Returns `Ok(None)`
    /// when the call must degrade. Without fallback this is a plain
    /// allocation: no extra collective on the fault-free fast path.
    fn acquire_call_buffers(&self, nv: usize) -> Result<Option<CallBuffers<T>>, Error> {
        // A device condemned by an earlier call stays condemned: with
        // fallback enabled the rank votes to degrade (the steady-state
        // hot-swap — later calls go straight to the host twin without
        // touching the dead executor); without fallback the sticky typed
        // error surfaces immediately.
        let lost_err =
            self.devices
                .iter()
                .find(|d| d.health().is_lost())
                .map(|d| DeviceError::DeviceLost {
                    device: d.config().name.clone(),
                });
        if !self.fallback_to_cpu {
            if let Some(e) = lost_err {
                return Err(Error::Device(e));
            }
            return Ok(Some(self.alloc_call_buffers(nv)?));
        }
        let local = match lost_err {
            Some(e) => Err(e),
            None => self.alloc_call_buffers(nv),
        };
        let all_ok = self.comm.allreduce(local.is_ok(), |a, b| a && b);
        match (all_ok, local) {
            (true, Ok(bufs)) => Ok(Some(bufs)),
            (true, Err(_)) => unreachable!("allreduce(AND) true implies local success"),
            (false, local) => {
                // Free any partially allocated slots before degraded work, and
                // leave a marker span so the degradation is visible in the
                // merged timeline next to the injected fault that caused it.
                drop(local);
                if let Some(t) = self.comm.tracer() {
                    t.span(psdns_trace::SpanKind::Other, "pipeline", "degrade-to-cpu")
                        .finish();
                }
                Ok(None)
            }
        }
    }

    /// The cached host-backend twin used when a call degrades: the *same*
    /// certified pipeline (same `np`, A2A mode, stream/event schedule and
    /// therefore the same collective sequence — every rank degrades
    /// together, so lockstep is preserved) re-targeted at a
    /// [`psdns_device::HostBackend`] device whose memory ledger is large
    /// enough that its slot buffers always fit. The communicator clone
    /// shares the collective sequence counter, so device and degraded
    /// paths interleave collectives correctly.
    fn host_backend(&mut self) -> &mut GpuSlabFft<T> {
        // Snapshot the builder inputs up front so the lazy-init closure does
        // not contend with `self.host`'s mutable borrow.
        let (shape, comm) = (self.shape, self.comm.clone());
        let (np, nv, mode, threads) = (
            self.config.np,
            self.nv_hint,
            self.config.a2a_mode,
            self.host_threads,
        );
        let scan = self.scan_nonfinite;
        let twin = self.host.get_or_insert_with(|| {
            // Ledger-only capacity: the host executor borrows ordinary heap
            // memory, so give the degraded twin room for any slab size.
            let dev = Device::with_kind(BackendKind::Host, DeviceConfig::tiny(1 << 44));
            let fft = GpuSlabFft::<T>::builder(shape)
                .comm(comm)
                .devices(vec![dev])
                .np(np)
                .nv(nv)
                .a2a_mode(mode)
                .host_threads(threads)
                .build()
                .expect("host-backend fallback always fits its ledger");
            Box::new(fft)
        });
        twin.scan_nonfinite = scan;
        twin
    }

    /// Surface any sticky asynchronous device error (e.g. a copy-engine
    /// failure injected after its retry budget) recorded while this call's
    /// streams were draining. Drains *every* device so a stale sticky error
    /// cannot leak into the next call; returns the first one found.
    fn check_device_errors(&self) -> Result<(), Error> {
        let mut first = None;
        for dev in &self.devices {
            if let Some(e) = dev.take_error() {
                first.get_or_insert(Error::Device(e));
            }
        }
        match first {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// The pipeline this instance actually ran its last degraded call on:
    /// `Some` once any call has hot-swapped to the host-backend twin (OOM
    /// degrade, hung queue or lost device). Exposed so callers can
    /// re-certify the swapped executor — calling `analyze_schedule()` on the
    /// returned twin replays the same schedule on the host backend.
    pub fn degraded(&self) -> Option<&GpuSlabFft<T>> {
        self.host.as_deref()
    }

    /// End-of-call half of the hot-swap protocol. When fallback is enabled,
    /// every rank votes on whether its device work completed; any failure
    /// anywhere makes *all* ranks discard the device results and re-run the
    /// call on the host-backend twin from the immutable inputs — which is
    /// why a hot-swapped call's output is byte-identical to a fault-free
    /// host-pipeline run. The vote is unconditional (lockstep: the device
    /// body posts its full collective sequence even after a local failure,
    /// so every rank arrives here with the same collective count). Without
    /// fallback the typed error propagates as-is.
    fn finish_call<R>(
        &mut self,
        what: &str,
        device: Result<R, Error>,
        rerun: impl FnOnce(&mut GpuSlabFft<T>) -> Result<R, Error>,
    ) -> Result<R, Error> {
        if !self.fallback_to_cpu {
            return device;
        }
        let all_ok = self.comm.allreduce(device.is_ok(), |a, b| a && b);
        if all_ok {
            return device;
        }
        if let Some(t) = self.comm.tracer() {
            t.span(
                psdns_trace::SpanKind::Other,
                "pipeline",
                &format!("hot-swap[{what}]"),
            )
            .finish();
        }
        drop(device);
        rerun(self.host_backend())
    }

    /// Sub-range of `r` handled by device `g` (Fig. 5 vertical split).
    fn device_part(r: &Range<usize>, gpus: usize, g: usize) -> Range<usize> {
        let part = GpuSplit::new(r.len(), gpus).range(g);
        r.start + part.start..r.start + part.end
    }

    /// Offset of element `(v, zl, yl, x_local)` of peer `dest`'s block in a
    /// group exchange buffer whose lines are `line_w` wide along the split
    /// axis and `rows_y` deep in y.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn group_idx(
        &self,
        nv: usize,
        line_w: usize,
        rows_y: usize,
        dest: usize,
        v: usize,
        yl: usize,
        zl: usize,
        x_local: usize,
    ) -> usize {
        let mz = self.shape.mz;
        dest * nv * line_w * rows_y * mz + x_local + line_w * (yl + rows_y * (zl + mz * v))
    }

    /// Fallible Fourier → physical transform through the async pipeline.
    ///
    /// With [`GpuFftBuilder::cpu_fallback`] enabled this call survives
    /// device-memory exhaustion, hung queues and lost devices: the failing
    /// rank finishes its collective sequence with placeholder data, an
    /// end-of-call vote tells every rank a failure happened, and all ranks
    /// re-run the call on the host-backend twin ([`Self::finish_call`]).
    pub fn try_fourier_to_physical(
        &mut self,
        specs: &[SpectralField<T>],
    ) -> Result<Vec<PhysicalField<T>>, Error> {
        let device = self.device_fourier_to_physical(specs);
        self.finish_call("fourier_to_physical", device, |host| {
            host.try_fourier_to_physical(specs)
        })
    }

    /// The device-pipeline body of [`Self::try_fourier_to_physical`].
    fn device_fourier_to_physical(
        &mut self,
        specs: &[SpectralField<T>],
    ) -> Result<Vec<PhysicalField<T>>, Error> {
        let nv = specs.len();
        assert!(nv > 0);
        let _call = self.comm.tracer().map(|t| {
            t.span(
                psdns_trace::SpanKind::Other,
                "pipeline",
                &format!("fourier_to_physical[nv={nv}]"),
            )
        });
        let s = self.shape;
        let (np, gpus) = (self.config.np, self.devices.len());
        let zlen = s.spec_len();
        let plen = s.phys_len();
        let bufs = match self.acquire_call_buffers(nv)? {
            Some(bufs) => bufs,
            // Device memory exhausted (or a device already condemned)
            // somewhere: every rank degrades to the host-backend pipeline
            // for this call (graceful degradation).
            None => return self.host_backend().try_fourier_to_physical(specs),
        };
        let mut guard = CallGuard::new(gpus);

        // Host pinned staging for the whole slab (input) and result.
        let host_spec = self.stage_input(
            nv * zlen,
            specs.iter().map(|f| (f.shape, &f.data[..])),
            "host_spec",
        );
        let host_phys = PinnedBuffer::<T>::new(nv * plen);
        self.log_staging(&host_phys, "host_phys");

        // ---------------- Phase 1: y-inverse on x-split pencils ----------
        // (first dashed region of Fig. 4); groups along x.
        let xsplit = PencilSplit::new(s.nxh, np);
        let mut ex = self.exchange(&xsplit, |w| s.p * nv * w * s.my * s.mz);

        let compute_done = event_grid(np, gpus);
        pipelined(
            np,
            |ip| {
                let xr = xsplit.range(ip);
                let slot = ip % SLOTS;
                #[allow(clippy::needless_range_loop)]
                for g in 0..gpus {
                    let xg = Self::device_part(&xr, gpus, g);
                    if xg.is_empty() {
                        continue;
                    }
                    let xw = xg.len();
                    let (tstream, cstream) = &self.streams[g];
                    let cbuf = &bufs.cbuf[g][slot];
                    // Reuse the slot only after its previous D2H drained.
                    tstream.wait_event(&bufs.free[g][slot]);
                    // H2D: one memcpy2d per variable (Fig. 6 strided gather).
                    for v in 0..nv {
                        tstream.memcpy2d_h2d_async(
                            &host_spec,
                            cbuf,
                            Copy2d {
                                width: xw,
                                height: s.n * s.mz,
                                src_offset: v * zlen + xg.start,
                                src_pitch: s.nxh,
                                dst_offset: v * xw * s.n * s.mz,
                                dst_pitch: xw,
                            },
                        );
                    }
                    let h2d_done = Event::new();
                    tstream.record(&h2d_done);

                    // Strided y-inverse on the compute stream.
                    cstream.wait_event(&h2d_done);
                    let plan = self.plan_many(xw, xw);
                    let kbuf = cbuf.clone();
                    let (n, mz) = (s.n, s.mz);
                    let ht = self.host_threads;
                    cstream.launch_traced(
                        "fft-y-inverse",
                        rw_device(cbuf.id(), nv * xw * s.n * s.mz),
                        move || {
                            let mut d = kbuf.lock_mut();
                            for v in 0..nv {
                                for zl in 0..mz {
                                    let base = v * xw * n * mz + zl * xw * n;
                                    plan.execute_parallel(
                                        &mut d[base..base + xw * n],
                                        Direction::Inverse,
                                        ht,
                                    );
                                }
                            }
                        },
                    );
                    cstream.record(&compute_done[ip][g]);
                }
            },
            |ip| {
                let gi = group_of(&ex.groups, ip);
                let grp = &ex.groups[gi];
                let xr = xsplit.range(ip);
                let slot = ip % SLOTS;
                #[allow(clippy::needless_range_loop)]
                for g in 0..gpus {
                    let xg = Self::device_part(&xr, gpus, g);
                    if xg.is_empty() {
                        continue;
                    }
                    let xw = xg.len();
                    let (tstream, _) = &self.streams[g];
                    let cbuf = &bufs.cbuf[g][slot];
                    // Pack + D2H in single strided operations (one per
                    // destination rank, variable and local plane).
                    tstream.wait_event(&compute_done[ip][g]);
                    let gw = grp.axis.len();
                    for d in 0..s.p {
                        for v in 0..nv {
                            for zl in 0..s.mz {
                                let src_offset = v * xw * s.n * s.mz + xw * (d * s.my + s.n * zl);
                                let dst_offset = self.group_idx(
                                    nv,
                                    gw,
                                    s.my,
                                    d,
                                    v,
                                    0,
                                    zl,
                                    xg.start - grp.axis.start,
                                );
                                tstream.memcpy2d_d2h_async(
                                    cbuf,
                                    &ex.send[gi],
                                    Copy2d {
                                        width: xw,
                                        height: s.my,
                                        src_offset,
                                        src_pitch: xw,
                                        dst_offset,
                                        dst_pitch: gw,
                                    },
                                );
                            }
                        }
                    }
                    tstream.record(&ex.d2h_done[ip][g]);
                    tstream.record(&bufs.free[g][slot]);
                }
                // Paper: post the nonblocking all-to-all for an earlier
                // group once this pencil closes its group ("(ip−2)-th
                // pencil" rule of §3.4).
                if ip + 1 == grp.pencils.end && gi >= 2 {
                    self.post_group_a2a(gi - 2, &mut ex, &mut guard);
                }
            },
        );
        let recv_bufs = self.complete_exchange(&mut ex, &mut guard)?;

        // ------------- Phase 2: z-inverse + x c2r on y-split pieces -------
        // (second and third dashed regions of Fig. 4)
        let ysplit = PencilSplit::new(s.my, np);
        let compute2_done = event_grid(np, gpus);
        pipelined(
            np,
            |jp| {
                let yr = ysplit.range(jp);
                let slot = jp % SLOTS;
                #[allow(clippy::needless_range_loop)]
                for g in 0..gpus {
                    let yg = Self::device_part(&yr, gpus, g);
                    if yg.is_empty() {
                        continue;
                    }
                    let yw = yg.len();
                    let (tstream, cstream) = &self.streams[g];
                    let cbuf = &bufs.cbuf[g][slot];
                    let rbuf = &bufs.rbuf[g][slot];
                    tstream.wait_event(&bufs.free[g][slot]);

                    // H2D unpack with zero-copy gather kernels (complex
                    // stride pattern — §4.2 keeps zero-copy exactly
                    // here), one kernel per source group buffer.
                    let piece = s.nxh * yw * s.n; // complex elems per var
                    for (gi, grp) in ex.groups.iter().enumerate() {
                        let gw = grp.axis.len();
                        let mut chunks = Vec::new();
                        for v in 0..nv {
                            for src in 0..s.p {
                                for zl in 0..s.mz {
                                    for yl in yg.clone() {
                                        let h = self.group_idx(nv, gw, s.my, src, v, yl, zl, 0);
                                        let d = v * piece
                                            + grp.axis.start
                                            + s.nxh * ((yl - yg.start) + yw * (src * s.mz + zl));
                                        chunks.push((h, d, gw));
                                    }
                                }
                            }
                        }
                        tstream.zero_copy_h2d_async(&recv_bufs[gi], cbuf, chunks);
                    }
                    let h2d_done = Event::new();
                    tstream.record(&h2d_done);

                    // z-inverse then x c2r on the compute stream.
                    cstream.wait_event(&h2d_done);
                    let plan_z = self.plan_many(s.nxh * yw, s.nxh * yw);
                    let plan_x = self.plan_real(yw * s.n);
                    let (cb, rb) = (cbuf.clone(), rbuf.clone());
                    let rpiece = s.n * yw * s.n;
                    let ht = self.host_threads;
                    let mut accesses = rw_device(cbuf.id(), nv * piece);
                    accesses.push(Access::write(
                        rbuf.id(),
                        psdns_analyze::MemSpace::Device,
                        0,
                        nv * rpiece,
                    ));
                    cstream.launch_traced("fft-z-inverse+x-c2r", accesses, move || {
                        let mut c = cb.lock_mut();
                        let mut r = rb.lock_mut();
                        for v in 0..nv {
                            let base = v * piece;
                            plan_z.execute_parallel(
                                &mut c[base..base + piece],
                                Direction::Inverse,
                                ht,
                            );
                            plan_x.inverse_parallel(
                                &c[base..base + piece],
                                &mut r[v * rpiece..(v + 1) * rpiece],
                                ht,
                            );
                        }
                    });
                    cstream.record(&compute2_done[jp][g]);
                }
            },
            |jp| {
                let yr = ysplit.range(jp);
                let slot = jp % SLOTS;
                #[allow(clippy::needless_range_loop)]
                for g in 0..gpus {
                    let yg = Self::device_part(&yr, gpus, g);
                    if yg.is_empty() {
                        continue;
                    }
                    let yw = yg.len();
                    let (tstream, _) = &self.streams[g];
                    let rbuf = &bufs.rbuf[g][slot];
                    let rpiece = s.n * yw * s.n;
                    // D2H of the physical piece into the y-slab result.
                    tstream.wait_event(&compute2_done[jp][g]);
                    for v in 0..nv {
                        tstream.memcpy2d_d2h_async(
                            rbuf,
                            &host_phys,
                            Copy2d {
                                width: s.n * yw,
                                height: s.n, // one row per z plane
                                src_offset: v * rpiece,
                                src_pitch: s.n * yw,
                                dst_offset: v * plen + s.n * yg.start,
                                dst_pitch: s.n * s.my,
                            },
                        );
                    }
                    tstream.record(&bufs.free[g][slot]);
                }
            },
        );
        self.finish_device_call(
            guard,
            &host_phys,
            "host_phys",
            plen,
            |flat| flat.iter().filter(|v| !v.to_f64().is_finite()).count() as u64,
            |data| PhysicalField::from_data(s, data.to_vec()),
        )
    }

    /// Set up one direction's transpose over the pencils of `split`: group
    /// them by the A2A mode and stage each group's send buffer, sized by
    /// `send_len` from the group's split-axis width.
    fn exchange(&self, split: &PencilSplit, send_len: impl Fn(usize) -> usize) -> Exchange<T> {
        let np = self.config.np;
        let groups = make_groups(split, np, self.config.a2a_mode.group_size(np));
        let send: Vec<PinnedBuffer<Complex<T>>> = groups
            .iter()
            .map(|grp| PinnedBuffer::new(send_len(grp.axis.len())))
            .collect();
        for (gi, b) in send.iter().enumerate() {
            self.log_staging(b, &format!("send_buf[{gi}]"));
        }
        Exchange {
            requests: groups.iter().map(|_| None).collect(),
            d2h_done: event_grid(np, self.devices.len()),
            groups,
            send,
        }
    }

    /// Join the group's staging events and post its all-to-all.
    ///
    /// When a device carries a fence watchdog, each event join is
    /// deadline-bounded ([`Event::synchronize_deadline`]); a miss is
    /// classified through the owning streams' health machinery (suspect →
    /// canary probe → condemn), which yields the typed
    /// `QueueHung`/`DeviceLost` error into `guard` — and the all-to-all is
    /// **still posted** with the buffer as-is. Peers must never block on a
    /// collective this rank skips; the garbage payload is discarded by the
    /// end-of-call vote ([`Self::finish_call`]).
    fn post_group_a2a(&self, gi: usize, ex: &mut Exchange<T>, guard: &mut CallGuard) {
        if ex.requests[gi].is_some() {
            return;
        }
        for ip in ex.groups[gi].pencils.clone() {
            for (g, e) in ex.d2h_done[ip].iter().enumerate() {
                if guard.down[g] {
                    continue;
                }
                let limit = self.devices[g].health().watchdog().map(|w| w.deadline());
                let joined = match limit {
                    Some(l) => e.synchronize_deadline(l),
                    None => {
                        e.synchronize();
                        true
                    }
                };
                if !joined {
                    // Deadline missed: let the owning streams' guarded
                    // fences decide whether the device is merely slow
                    // (drain completes, the event is done) or wedged/lost
                    // (typed error; stop joining this device's events).
                    let (tstream, cstream) = &self.streams[g];
                    match cstream.synchronize().and_then(|()| tstream.synchronize()) {
                        Ok(()) => e.synchronize(),
                        Err(de) => {
                            guard.device_down(g, Error::Device(de));
                            continue;
                        }
                    }
                }
                self.log_event_join(e);
            }
        }
        let send_buf = &ex.send[gi];
        self.log_host_op(
            &format!("a2a-post[{gi}]"),
            vec![Access::read(
                send_buf.id(),
                psdns_analyze::MemSpace::Host,
                0,
                send_buf.len(),
            )],
        );
        let mut send = send_buf.snapshot();
        crate::integrity::inject_buf_flip(&self.comm, &format!("pipe{gi}"), &mut send);
        ex.requests[gi] = Some(self.comm.ialltoall(&send));
    }

    /// Post every group the pencil loop has not posted yet, then complete
    /// all of the direction's exchanges (the MPI_WAIT of Fig. 4) into
    /// pinned receive buffers. Deadline-aware when a watchdog is
    /// configured: a wedged peer turns into a typed
    /// [`psdns_comm::CommError::Timeout`] instead of an infinite hang.
    fn complete_exchange(
        &self,
        ex: &mut Exchange<T>,
        guard: &mut CallGuard,
    ) -> Result<Vec<PinnedBuffer<Complex<T>>>, Error> {
        for gi in 0..ex.groups.len() {
            self.post_group_a2a(gi, ex, guard);
        }
        let mut recv_bufs = Vec::with_capacity(ex.requests.len());
        for (gi, r) in ex.requests.drain(..).enumerate() {
            // Every slot was filled by the sweep-up post loop above.
            let buf =
                PinnedBuffer::from_vec(r.expect("posted").wait_watchdog().map_err(Error::Comm)?);
            self.log_staging(&buf, &format!("recv_buf[{gi}]"));
            recv_bufs.push(buf);
        }
        Ok(recv_bufs)
    }

    /// End of a device call: drain every live device's streams, surface the
    /// call's first device failure or sticky device error, then unstage the
    /// result `out` and split it into `len`-element fields. When the
    /// non-finite scan is armed, a NaN/Inf in the result fails the call
    /// with [`crate::IntegrityError::NonFinite`] — after the call's full
    /// collective sequence, so peers never block.
    fn finish_device_call<U: Copy + Send + Sync + Default + 'static, F>(
        &self,
        mut guard: CallGuard,
        out: &PinnedBuffer<U>,
        label: &str,
        len: usize,
        count_nonfinite: impl Fn(&[U]) -> u64,
        field: impl Fn(&[U]) -> F,
    ) -> Result<Vec<F>, Error> {
        for (g, (tstream, cstream)) in self.streams.iter().enumerate() {
            if guard.down[g] {
                continue;
            }
            if let Err(e) = cstream.synchronize().and_then(|()| tstream.synchronize()) {
                guard.device_down(g, Error::Device(e));
            }
        }
        if let Err(e) = self.check_device_errors() {
            guard.err.get_or_insert(e);
        }
        if let Some(e) = guard.err {
            return Err(e);
        }
        let flat = self.unstage(out, label);
        if self.scan_nonfinite {
            let count = count_nonfinite(&flat);
            if count > 0 {
                return Err(Error::Integrity(
                    crate::integrity::IntegrityError::NonFinite { count },
                ));
            }
        }
        Ok(flat.chunks(len).map(field).collect())
    }

    /// Fallible physical → Fourier transform (mirror of
    /// [`try_fourier_to_physical`](Self::try_fourier_to_physical); paper:
    /// "those from physical to Fourier space being very similar but reversed
    /// in order").
    pub fn try_physical_to_fourier(
        &mut self,
        phys: &[PhysicalField<T>],
    ) -> Result<Vec<SpectralField<T>>, Error> {
        let device = self.device_physical_to_fourier(phys);
        self.finish_call("physical_to_fourier", device, |host| {
            host.try_physical_to_fourier(phys)
        })
    }

    /// The device-pipeline body of [`Self::try_physical_to_fourier`].
    fn device_physical_to_fourier(
        &mut self,
        phys: &[PhysicalField<T>],
    ) -> Result<Vec<SpectralField<T>>, Error> {
        let nv = phys.len();
        assert!(nv > 0);
        let _call = self.comm.tracer().map(|t| {
            t.span(
                psdns_trace::SpanKind::Other,
                "pipeline",
                &format!("physical_to_fourier[nv={nv}]"),
            )
        });
        let s = self.shape;
        let (np, gpus) = (self.config.np, self.devices.len());
        let zlen = s.spec_len();
        let plen = s.phys_len();
        let bufs = match self.acquire_call_buffers(nv)? {
            Some(bufs) => bufs,
            None => return self.host_backend().try_physical_to_fourier(phys),
        };
        let mut guard = CallGuard::new(gpus);

        let host_phys = self.stage_input(
            nv * plen,
            phys.iter().map(|f| (f.shape, &f.data[..])),
            "host_phys",
        );
        let host_spec = PinnedBuffer::<Complex<T>>::new(nv * zlen);
        self.log_staging(&host_spec, "host_spec");

        // Phase A: x r2c + z-forward on y-split pieces; groups along y.
        let ysplit = PencilSplit::new(s.my, np);
        let xsplit = PencilSplit::new(s.nxh, np);
        let mut ex = self.exchange(&ysplit, |w| s.p * nv * s.nxh * w.max(1) * s.mz);

        let compute_done = event_grid(np, gpus);
        pipelined(
            np,
            |jp| {
                let yr = ysplit.range(jp);
                let slot = jp % SLOTS;
                #[allow(clippy::needless_range_loop)]
                for g in 0..gpus {
                    let yg = Self::device_part(&yr, gpus, g);
                    if yg.is_empty() {
                        continue;
                    }
                    let yw = yg.len();
                    let (tstream, cstream) = &self.streams[g];
                    let cbuf = &bufs.cbuf[g][slot];
                    let rbuf = &bufs.rbuf[g][slot];
                    tstream.wait_event(&bufs.free[g][slot]);
                    let rpiece = s.n * yw * s.n;
                    let piece = s.nxh * yw * s.n;
                    for v in 0..nv {
                        tstream.memcpy2d_h2d_async(
                            &host_phys,
                            rbuf,
                            Copy2d {
                                width: s.n * yw,
                                height: s.n,
                                src_offset: v * plen + s.n * yg.start,
                                src_pitch: s.n * s.my,
                                dst_offset: v * rpiece,
                                dst_pitch: s.n * yw,
                            },
                        );
                    }
                    let h2d_done = Event::new();
                    tstream.record(&h2d_done);

                    cstream.wait_event(&h2d_done);
                    let plan_z = self.plan_many(s.nxh * yw, s.nxh * yw);
                    let plan_x = self.plan_real(yw * s.n);
                    let (cb, rb) = (cbuf.clone(), rbuf.clone());
                    let ht = self.host_threads;
                    let mut accesses = rw_device(cbuf.id(), nv * piece);
                    accesses.push(Access::read(
                        rbuf.id(),
                        psdns_analyze::MemSpace::Device,
                        0,
                        nv * rpiece,
                    ));
                    cstream.launch_traced("fft-x-r2c+z-forward", accesses, move || {
                        let r = rb.lock();
                        let mut c = cb.lock_mut();
                        for v in 0..nv {
                            let base = v * piece;
                            plan_x.forward_parallel(
                                &r[v * rpiece..(v + 1) * rpiece],
                                &mut c[base..base + piece],
                                ht,
                            );
                            plan_z.execute_parallel(
                                &mut c[base..base + piece],
                                Direction::Forward,
                                ht,
                            );
                        }
                    });
                    cstream.record(&compute_done[jp][g]);
                }
            },
            |jp| {
                let gi = group_of(&ex.groups, jp);
                let grp = &ex.groups[gi];
                let yr = ysplit.range(jp);
                let slot = jp % SLOTS;
                #[allow(clippy::needless_range_loop)]
                for g in 0..gpus {
                    let yg = Self::device_part(&yr, gpus, g);
                    if yg.is_empty() {
                        continue;
                    }
                    let yw = yg.len();
                    let (tstream, _) = &self.streams[g];
                    let cbuf = &bufs.cbuf[g][slot];
                    let piece = s.nxh * yw * s.n;
                    // Pack + D2H: zero-copy scatter of nxh-wide lines into
                    // the group's send buffer.
                    tstream.wait_event(&compute_done[jp][g]);
                    let gw = grp.axis.len();
                    let mut chunks = Vec::new();
                    for d in 0..s.p {
                        for v in 0..nv {
                            for zl in 0..s.mz {
                                let z = d * s.mz + zl;
                                for yl in yg.clone() {
                                    let dev = v * piece + s.nxh * ((yl - yg.start) + yw * z);
                                    // Group buffer lines are nxh wide; rows
                                    // indexed by the group-local y.
                                    let hostoff = self.group_idx(
                                        nv,
                                        s.nxh,
                                        gw,
                                        d,
                                        v,
                                        yl - grp.axis.start,
                                        zl,
                                        0,
                                    );
                                    chunks.push((dev, hostoff, s.nxh));
                                }
                            }
                        }
                    }
                    tstream.zero_copy_d2h_async(cbuf, &ex.send[gi], chunks);
                    tstream.record(&ex.d2h_done[jp][g]);
                    tstream.record(&bufs.free[g][slot]);
                }
                if jp + 1 == grp.pencils.end && gi >= 2 {
                    self.post_group_a2a(gi - 2, &mut ex, &mut guard);
                }
            },
        );
        let recv_bufs = self.complete_exchange(&mut ex, &mut guard)?;

        // Phase B: y-forward on x-split pencils, D2H into the z-slab result.
        let compute_b_done = event_grid(np, gpus);
        pipelined(
            np,
            |ip| {
                let xr = xsplit.range(ip);
                let slot = ip % SLOTS;
                #[allow(clippy::needless_range_loop)]
                for g in 0..gpus {
                    let xg = Self::device_part(&xr, gpus, g);
                    if xg.is_empty() {
                        continue;
                    }
                    let xw = xg.len();
                    let (tstream, cstream) = &self.streams[g];
                    let cbuf = &bufs.cbuf[g][slot];
                    tstream.wait_event(&bufs.free[g][slot]);

                    // H2D gather from the group receive buffers.
                    for (gi, grp) in ex.groups.iter().enumerate() {
                        let gw = grp.axis.len();
                        if gw == 0 {
                            continue;
                        }
                        let mut chunks = Vec::new();
                        for v in 0..nv {
                            for src in 0..s.p {
                                for zl in 0..s.mz {
                                    for yl in grp.axis.clone() {
                                        let h = xg.start
                                            + self.group_idx(
                                                nv,
                                                s.nxh,
                                                gw,
                                                src,
                                                v,
                                                yl - grp.axis.start,
                                                zl,
                                                0,
                                            );
                                        let y = src * s.my + yl;
                                        let d = v * xw * s.n * s.mz + xw * (y + s.n * zl);
                                        chunks.push((h, d, xw));
                                    }
                                }
                            }
                        }
                        tstream.zero_copy_h2d_async(&recv_bufs[gi], cbuf, chunks);
                    }
                    let h2d_done = Event::new();
                    tstream.record(&h2d_done);

                    cstream.wait_event(&h2d_done);
                    let plan = self.plan_many(xw, xw);
                    let kbuf = cbuf.clone();
                    let (n, mz) = (s.n, s.mz);
                    let ht = self.host_threads;
                    cstream.launch_traced(
                        "fft-y-forward",
                        rw_device(cbuf.id(), nv * xw * s.n * s.mz),
                        move || {
                            let mut d = kbuf.lock_mut();
                            for v in 0..nv {
                                for zl in 0..mz {
                                    let base = v * xw * n * mz + zl * xw * n;
                                    plan.execute_parallel(
                                        &mut d[base..base + xw * n],
                                        Direction::Forward,
                                        ht,
                                    );
                                }
                            }
                        },
                    );
                    cstream.record(&compute_b_done[ip][g]);
                }
            },
            |ip| {
                let xr = xsplit.range(ip);
                let slot = ip % SLOTS;
                #[allow(clippy::needless_range_loop)]
                for g in 0..gpus {
                    let xg = Self::device_part(&xr, gpus, g);
                    if xg.is_empty() {
                        continue;
                    }
                    let xw = xg.len();
                    let (tstream, _) = &self.streams[g];
                    let cbuf = &bufs.cbuf[g][slot];
                    tstream.wait_event(&compute_b_done[ip][g]);
                    for v in 0..nv {
                        tstream.memcpy2d_d2h_async(
                            cbuf,
                            &host_spec,
                            Copy2d {
                                width: xw,
                                height: s.n * s.mz,
                                src_offset: v * xw * s.n * s.mz,
                                src_pitch: xw,
                                dst_offset: v * zlen + xg.start,
                                dst_pitch: s.nxh,
                            },
                        );
                    }
                    tstream.record(&bufs.free[g][slot]);
                }
            },
        );
        self.finish_device_call(
            guard,
            &host_spec,
            "host_spec",
            zlen,
            crate::integrity::count_nonfinite_buf,
            |data| SpectralField::from_data(s, data.to_vec()),
        )
    }
}

impl<T: Real> Transform3d<T> for GpuSlabFft<T> {
    fn shape(&self) -> LocalShape {
        self.shape
    }

    fn comm(&self) -> &Communicator {
        &self.comm
    }

    fn verify_schedule(&self) -> Result<(), Error> {
        self.analyze_schedule().map(|_| ())
    }

    fn set_scan_nonfinite(&mut self, on: bool) {
        self.scan_nonfinite = on;
        // The degraded twin re-runs this pipeline's calls; keep its scan in
        // the same state so a heal is checked the same way.
        if let Some(h) = self.host.as_deref_mut() {
            h.scan_nonfinite = on;
        }
    }

    fn fourier_to_physical(&mut self, specs: &[SpectralField<T>]) -> Vec<PhysicalField<T>> {
        match self.try_fourier_to_physical(specs) {
            Ok(v) => v,
            Err(e) => panic!(
                "GpuSlabFft fourier_to_physical failed: {e} \
                 (increase np, see GpuSlabFft::auto_np, or enable cpu_fallback)"
            ),
        }
    }

    fn physical_to_fourier(&mut self, phys: &[PhysicalField<T>]) -> Vec<SpectralField<T>> {
        match self.try_physical_to_fourier(phys) {
            Ok(v) => v,
            Err(e) => panic!(
                "GpuSlabFft physical_to_fourier failed: {e} \
                 (increase np, see GpuSlabFft::auto_np, or enable cpu_fallback)"
            ),
        }
    }

    /// Form the nonlinear products on the device, streamed in out-of-core
    /// chunks through the transfer/compute streams — the paper's "forming
    /// non-linear products in the DNS code" happens on the GPU (Fig. 4).
    fn cross_product(
        &mut self,
        up: &[PhysicalField<T>],
        wp: &[PhysicalField<T>],
    ) -> [PhysicalField<T>; 3] {
        let s = self.shape;
        assert_eq!(up.len(), 3);
        assert_eq!(wp.len(), 3);
        let plen = s.phys_len();
        let np = self.config.np.max(1);
        let chunk = plen.div_ceil(np);

        // Host staging.
        let host_in = self.stage_input(
            6 * plen,
            up.iter().chain(wp).map(|f| (f.shape, &f.data[..])),
            "host_xprod_in",
        );
        let host_out = PinnedBuffer::<T>::new(3 * plen);
        self.log_staging(&host_out, "host_xprod_out");

        // Rotating slot buffers on device 0 (pointwise work needs no
        // multi-device split to be correct; one device keeps it simple).
        let dev = &self.devices[0];
        let (tstream, cstream) = &self.streams[0];
        let bufs: Vec<(
            psdns_device::DeviceBuffer<T>,
            psdns_device::DeviceBuffer<T>,
            Event,
        )> = match (0..SLOTS)
            .map(|_| {
                Ok((
                    dev.alloc::<T>(6 * chunk)?,
                    dev.alloc::<T>(3 * chunk)?,
                    Event::new(),
                ))
            })
            .collect::<Result<Vec<_>, DeviceError>>()
        {
            Ok(b) => b,
            Err(_) => {
                // Not enough device memory even for chunked pointwise
                // work: fall back to the host default.
                return crate::field::host_cross_product(s, up, wp);
            }
        };
        if let Some(log) = &self.recorder {
            for (i, (ib, ob, _)) in bufs.iter().enumerate() {
                log.label_buffer(ib.id(), &format!("xprod_in[s{i}]"));
                log.label_buffer(ob.id(), &format!("xprod_out[s{i}]"));
            }
        }

        let compute_done: Vec<Event> = (0..np).map(|_| Event::new()).collect();
        pipelined(
            np,
            |ci| {
                let lo = ci * chunk;
                let hi = (lo + chunk).min(plen);
                let len = hi - lo;
                if len == 0 {
                    return;
                }
                let (ibuf, obuf, free) = &bufs[ci % SLOTS];
                tstream.wait_event(free);
                for v in 0..6 {
                    tstream.memcpy_h2d_async(&host_in, v * plen + lo, ibuf, v * chunk, len);
                }
                let h2d_done = Event::new();
                tstream.record(&h2d_done);
                cstream.wait_event(&h2d_done);
                let (ib, ob) = (ibuf.clone(), obuf.clone());
                let c = chunk;
                cstream.launch_traced(
                    "cross-product",
                    vec![
                        Access::read(ibuf.id(), psdns_analyze::MemSpace::Device, 0, 6 * chunk),
                        Access::write(obuf.id(), psdns_analyze::MemSpace::Device, 0, 3 * chunk),
                    ],
                    move || {
                        let a = ib.lock();
                        let mut o = ob.lock_mut();
                        for i in 0..len {
                            let (u0, u1, u2) = (a[i], a[c + i], a[2 * c + i]);
                            let (w0, w1, w2) = (a[3 * c + i], a[4 * c + i], a[5 * c + i]);
                            o[i] = u1 * w2 - u2 * w1;
                            o[c + i] = u2 * w0 - u0 * w2;
                            o[2 * c + i] = u0 * w1 - u1 * w0;
                        }
                    },
                );
                cstream.record(&compute_done[ci]);
            },
            |ci| {
                let lo = ci * chunk;
                let hi = (lo + chunk).min(plen);
                let len = hi - lo;
                if len == 0 {
                    return;
                }
                let (_, obuf, free) = &bufs[ci % SLOTS];
                tstream.wait_event(&compute_done[ci]);
                for v in 0..3 {
                    tstream.memcpy_d2h_async(obuf, v * chunk, &host_out, v * plen + lo, len);
                }
                tstream.record(free);
            },
        );
        // A copy-engine failure (injected or real) leaves host_out partially
        // stale — as does a backend shut down under our feet; recompute on
        // the host rather than return silent garbage.
        if tstream.synchronize().is_err() || cstream.synchronize().is_err() {
            return crate::field::host_cross_product(s, up, wp);
        }
        if dev.take_error().is_some() {
            return crate::field::host_cross_product(s, up, wp);
        }

        let flat = self.unstage(&host_out, "host_xprod_out");
        let mut nl = [
            PhysicalField::from_data(s, flat[..plen].to_vec()),
            PhysicalField::from_data(s, flat[plen..2 * plen].to_vec()),
            PhysicalField::from_data(s, flat[2 * plen..].to_vec()),
        ];
        crate::integrity::inject_kernel_corrupt(&self.comm, "cross", &mut nl);
        nl
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist_fft::SlabFftCpu;
    use psdns_comm::Universe;
    use psdns_device::DeviceConfig;

    fn run_equivalence(n: usize, p: usize, nv: usize, np: usize, mode: A2aMode, gpus: usize) {
        let errs = Universe::run(p, move |comm| {
            let shape = LocalShape::new(n, p, comm.rank());
            let devices: Vec<Device> = (0..gpus)
                .map(|_| Device::new(DeviceConfig::tiny(1 << 22)))
                .collect();
            let mut gpu = GpuSlabFft::<f64>::builder(shape)
                .comm(comm.clone())
                .devices(devices)
                .np(np)
                .nv(nv)
                .a2a_mode(mode)
                .build()
                .expect("valid test configuration");
            let mut cpu = SlabFftCpu::<f64>::new(shape, comm);

            let phys: Vec<PhysicalField<f64>> = (0..nv)
                .map(|v| {
                    let data = (0..shape.phys_len())
                        .map(|i| ((i * (2 * v + 3) + shape.rank * 17) as f64 * 0.0137).sin())
                        .collect();
                    PhysicalField::from_data(shape, data)
                })
                .collect();

            let specs_cpu = cpu.physical_to_fourier(&phys);
            let specs_gpu = gpu.try_physical_to_fourier(&phys).expect("fits");
            let back = gpu.try_fourier_to_physical(&specs_cpu).expect("fits");

            let mut err = 0.0f64;
            for (a, b) in specs_gpu.iter().zip(&specs_cpu) {
                for (x, y) in a.data.iter().zip(&b.data) {
                    err = err.max((*x - *y).abs());
                }
            }
            for (a, b) in back.iter().zip(&phys) {
                for (x, y) in a.data.iter().zip(&b.data) {
                    err = err.max((x - y).abs());
                }
            }
            err
        });
        for e in errs {
            assert!(
                e < 1e-9,
                "n={n} p={p} nv={nv} np={np} {mode:?} gpus={gpus}: err {e}"
            );
        }
    }

    #[test]
    fn per_slab_single_pencil_matches_cpu() {
        run_equivalence(8, 2, 1, 1, A2aMode::PerSlab, 1);
    }

    #[test]
    fn per_slab_multi_pencil_matches_cpu() {
        run_equivalence(8, 2, 2, 3, A2aMode::PerSlab, 1);
    }

    #[test]
    fn per_pencil_matches_cpu() {
        run_equivalence(8, 2, 2, 3, A2aMode::PerPencil, 1);
    }

    #[test]
    fn per_pencil_many_pencils_matches_cpu() {
        run_equivalence(12, 3, 3, 4, A2aMode::PerPencil, 1);
    }

    #[test]
    fn grouped_q2_matches_cpu() {
        // The paper's intermediate Q-pencil granularity (§4.1).
        run_equivalence(12, 2, 2, 4, A2aMode::Grouped(2), 1);
        run_equivalence(12, 2, 1, 5, A2aMode::Grouped(2), 1); // uneven groups
    }

    #[test]
    fn grouped_degenerate_cases_match_named_modes() {
        assert_eq!(A2aMode::Grouped(1).group_size(4), 1);
        assert_eq!(A2aMode::Grouped(9).group_size(4), 4);
        assert_eq!(A2aMode::PerPencil.group_size(4), 1);
        assert_eq!(A2aMode::PerSlab.group_size(4), 4);
        run_equivalence(8, 2, 1, 3, A2aMode::Grouped(3), 1);
    }

    #[test]
    fn multi_gpu_per_rank_matches_cpu() {
        // Fig. 5: 3 devices per rank, pencils split vertically.
        run_equivalence(12, 2, 2, 2, A2aMode::PerSlab, 3);
        run_equivalence(12, 2, 1, 2, A2aMode::PerPencil, 2);
    }

    #[test]
    fn host_threads_match_serial_kernels() {
        // The batched y/z transforms inside kernel closures fan out over the
        // persistent worker pool; results must be bitwise-independent of the
        // thread count.
        let (n, p, nv) = (12, 2, 2);
        let errs = Universe::run(p, move |comm| {
            let shape = LocalShape::new(n, p, comm.rank());
            let mk = |threads: usize, comm: psdns_comm::Communicator| {
                GpuSlabFft::<f64>::builder(shape)
                    .comm(comm)
                    .devices(vec![Device::new(DeviceConfig::tiny(1 << 22))])
                    .np(2)
                    .nv(nv)
                    .host_threads(threads)
                    .build()
                    .expect("valid test configuration")
            };
            let mut serial = mk(1, comm.clone());
            let mut threaded = mk(4, comm.clone());
            let phys: Vec<PhysicalField<f64>> = (0..nv)
                .map(|v| {
                    let data = (0..shape.phys_len())
                        .map(|i| ((i * (3 * v + 5) + shape.rank * 11) as f64 * 0.0193).cos())
                        .collect();
                    PhysicalField::from_data(shape, data)
                })
                .collect();
            let a = serial.try_physical_to_fourier(&phys).expect("fits");
            let b = threaded.try_physical_to_fourier(&phys).expect("fits");
            let pa = serial.try_fourier_to_physical(&a).expect("fits");
            let pb = threaded.try_fourier_to_physical(&a).expect("fits");
            let mut err = 0.0f64;
            for (x, y) in a.iter().zip(&b) {
                for (u, v) in x.data.iter().zip(&y.data) {
                    err = err.max((*u - *v).abs());
                }
            }
            for (x, y) in pa.iter().zip(&pb) {
                for (u, v) in x.data.iter().zip(&y.data) {
                    err = err.max((u - v).abs());
                }
            }
            err
        });
        for e in errs {
            assert!(e < 1e-12, "threaded kernels diverged: err {e}");
        }
    }

    #[test]
    fn uneven_pencil_split() {
        // nxh = 7 split into 3 pencils (3+2+2), my = 4 into 3 (2+1+1).
        run_equivalence(12, 3, 1, 3, A2aMode::PerSlab, 1);
    }

    #[test]
    fn auto_np_increases_for_small_devices() {
        let shape = LocalShape::new(32, 2, 0);
        let big = GpuSlabFft::<f32>::auto_np(shape, 3, 1, 1 << 30).unwrap();
        let small = GpuSlabFft::<f32>::auto_np(
            shape,
            3,
            1,
            GpuSlabFft::<f32>::required_bytes_per_device(shape, 3, 4, 1),
        )
        .unwrap();
        assert!(
            big <= small,
            "big-device np {big} vs small-device np {small}"
        );
        assert!(small >= 4 || big == small);
    }

    #[test]
    fn builder_rejects_np_too_small_for_hbm() {
        let out = Universe::run(1, |comm| {
            let shape = LocalShape::new(16, 1, 0);
            let device = Device::new(DeviceConfig::tiny(8192));
            GpuSlabFft::<f64>::builder(shape)
                .comm(comm)
                .devices(vec![device])
                .np(1)
                .build()
                .err()
        });
        match &out[0] {
            Some(PipelineError::InsufficientDeviceMemory {
                np: 1,
                required_bytes,
                free_bytes,
                ..
            }) => assert!(required_bytes > free_bytes),
            other => panic!("expected InsufficientDeviceMemory, got {other:?}"),
        }
    }

    #[test]
    fn oom_surfaces_at_runtime_when_nv_exceeds_hint() {
        // Slot buffers fit for nv = 1 (the builder's hint) but not for the
        // 3-variable call actually made: the failure is a typed runtime
        // error, not a panic.
        let out = Universe::run(1, |comm| {
            let shape = LocalShape::new(16, 1, 0);
            let req1 = GpuSlabFft::<f64>::required_bytes_per_device(shape, 1, 2, 1);
            let req3 = GpuSlabFft::<f64>::required_bytes_per_device(shape, 3, 2, 1);
            let device = Device::new(DeviceConfig::tiny((req1 + req3) / 2));
            let mut gpu = GpuSlabFft::<f64>::builder(shape)
                .comm(comm)
                .devices(vec![device])
                .np(2)
                .build()
                .expect("fits for nv = 1");
            let specs = vec![SpectralField::zeros(shape); 3];
            gpu.try_fourier_to_physical(&specs).err()
        });
        assert!(matches!(
            out[0],
            Some(Error::Device(DeviceError::OutOfMemory { .. }))
        ));
    }

    #[test]
    fn device_cross_product_matches_host() {
        let out = Universe::run(2, |comm| {
            let shape = LocalShape::new(12, 2, comm.rank());
            let dev = Device::new(DeviceConfig::tiny(1 << 22));
            let mut gpu = GpuSlabFft::<f64>::builder(shape)
                .comm(comm.clone())
                .devices(vec![dev])
                .np(3)
                .build()
                .expect("valid test configuration");
            let mut cpu = crate::dist_fft::SlabFftCpu::<f64>::new(shape, comm);
            let mk = |seed: usize| -> Vec<PhysicalField<f64>> {
                (0..3)
                    .map(|v| {
                        let data = (0..shape.phys_len())
                            .map(|i| ((i * (v + seed) + 1) as f64 * 0.017).sin())
                            .collect();
                        PhysicalField::from_data(shape, data)
                    })
                    .collect()
            };
            let (u, w) = (mk(2), mk(5));
            let a = gpu.cross_product(&u, &w);
            let b = cpu.cross_product(&u, &w);
            let mut err = 0.0f64;
            for (x, y) in a.iter().zip(&b) {
                for (p, q) in x.data.iter().zip(&y.data) {
                    err = err.max((p - q).abs());
                }
            }
            err
        });
        for e in out {
            assert_eq!(e, 0.0, "device cross product differs from host");
        }
    }

    #[test]
    fn device_cross_product_oom_falls_back_to_host() {
        // A device that can hold the FFT slot buffers is given, but we
        // exhaust it first so the cross-product allocation fails — the
        // fallback must still produce correct results.
        let out = Universe::run(1, |comm| {
            let shape = LocalShape::new(8, 1, 0);
            let dev = Device::new(DeviceConfig::tiny(1 << 16));
            let mut gpu = GpuSlabFft::<f64>::builder(shape)
                .comm(comm)
                .devices(vec![dev.clone()])
                .np(2)
                .build()
                .expect("valid test configuration");
            let _hog = dev.alloc::<u8>(dev.free_bytes() - 64).unwrap();
            let one = PhysicalField::from_data(shape, vec![1.0; shape.phys_len()]);
            let two = PhysicalField::from_data(shape, vec![2.0; shape.phys_len()]);
            let u = vec![one.clone(), two.clone(), one.clone()];
            let w = vec![two.clone(), one, two];
            let nl = gpu.cross_product(&u, &w);
            // (1,2,1)×(2,1,2) = (2·2−1·1, 1·2−1·2, 1·1−2·2) = (3, 0, −3)
            (nl[0].data[0], nl[1].data[0], nl[2].data[0])
        });
        assert_eq!(out[0], (3.0, 0.0, -3.0));
    }

    #[test]
    fn group_construction_covers_axis() {
        let split = PencilSplit::new(17, 5);
        for q in 1..=5 {
            let groups = make_groups(&split, 5, q);
            let mut covered = 0;
            for grp in &groups {
                assert_eq!(grp.axis.start, covered);
                covered = grp.axis.end;
                assert!(grp.pencils.len() <= q);
            }
            assert_eq!(covered, 17);
        }
    }
}
