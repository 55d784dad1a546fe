//! # psdns-core
//!
//! The paper's primary contribution, reimplemented in Rust: a slab-decomposed
//! pseudo-spectral solver for the incompressible Navier–Stokes equations in a
//! triply periodic cube, with
//!
//! * a distributed, transpose-based 3-D FFT on the 1-D slab decomposition
//!   ([`SlabFftCpu`], paper §3.1/3.3), real-to-complex in x and
//!   complex-to-complex in y and z;
//! * the 2-D pencil-decomposed CPU transform used as the paper's baseline
//!   ([`PencilFftCpu`], Table 3 "Sync CPU");
//! * the **batched asynchronous GPU pipeline** ([`GpuSlabFft`], §3.4,
//!   Fig. 4): slabs split into `np` device-sized pencils, streamed through a
//!   transfer stream and a compute stream with event-enforced dependencies,
//!   with the all-to-all posted per pencil (`MPI_IALLTOALL`, config A/B) or
//!   once per slab (config C). The synchronous whole-slab algorithm of
//!   Fig. 2 is its `np = 1`, [`A2aMode::PerSlab`] case;
//! * the RK2/RK4 Navier–Stokes integrator with exact viscous integrating
//!   factor, rotational-form nonlinear term, spectral projection, dealiasing
//!   and deterministic band forcing ([`NavierStokes`], §2).
//!
//! The slab transforms [`SlabFftCpu`] and [`GpuSlabFft`] implement
//! [`Transform3d`], so the solver runs identically on the CPU path and the
//! out-of-core device path — the integration tests demand matching physics.
//!
//! The asynchronous pipeline can be certified race-free *before* execution:
//! [`GpuSlabFft::analyze_schedule`] replays the planned stream/event DAG
//! through the `psdns-analyze` happens-before engine, and
//! [`run_checkpointed_checked`] gates a production run on that check.

#![deny(deprecated)]

pub mod checkpoint;
pub mod dist_fft;
pub mod error;
pub mod field;
pub mod forcing;
pub mod gpu_pipeline;
pub mod init;
pub mod integrity;
pub mod io;
pub mod ns;
pub mod ops;
pub mod pencil_fft;
pub mod recovery;
pub mod scalar;
pub mod spectrum;
pub mod stats;

pub use checkpoint::{refine, reslice, Checkpoint, CheckpointError};
pub use dist_fft::SlabFftCpu;
pub use error::{Error, PipelineError};
pub use field::{LocalShape, PhysicalField, SpectralField, Transform3d};
pub use forcing::Forcing;
pub use gpu_pipeline::{A2aMode, GpuFftBuilder, GpuFftConfig, GpuSlabFft};
pub use init::{normalize_energy, random_solenoidal, taylor_green};
pub use integrity::{IntegrityCheck, IntegrityConfig, IntegrityError, IntegrityEvent};
pub use io::{spectrum_csv, CsvError, LogEntry, RunLog};
pub use ns::{apply_phase_shift, project_and_dealias, NavierStokes, NsConfig, TimeScheme};
pub use ops::{curl, divergence, gradient, laplacian};
pub use pencil_fft::PencilFftCpu;
pub use recovery::{
    restore_or_init, run_checkpointed, run_checkpointed_checked, run_self_healing, save_solver,
    BuddyStore, CheckpointStore, HealedRun, RecoveryError, RecoveryEvent, SelfHealingConfig,
};
pub use scalar::{scalar_single_mode, PassiveScalar};
pub use spectrum::{energy_spectrum, transfer_spectrum, try_energy_spectrum};
pub use stats::{flow_stats, gradient_moments, try_flow_stats, FlowStats};

pub use psdns_analyze::{AnalysisReport, Hazard, HazardKind, OrderingLog};
