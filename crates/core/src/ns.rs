//! The Navier–Stokes pseudo-spectral integrator (paper §2).
//!
//! Time advance happens entirely in Fourier space: each Runge–Kutta substage
//! transforms the velocity (and vorticity) to physical space, forms the
//! nonlinear term there, transforms back, projects it perpendicular to **k**
//! (mass conservation) and dealiases. Viscosity is treated *exactly* via the
//! integrating factor `exp(−νk²Δt)`; RK2 and RK4 are provided (the paper
//! reports RK2 timings, with RK4 roughly doubling the cost per step).
//!
//! The nonlinear term uses the rotational form `u × ω` with
//! `ω̂ = i k × û` computed spectrally — 6 inverse + 3 forward 3-D transforms
//! per substage, the same transform count as the paper's scheme.

use psdns_fft::{Complex, Real};
use psdns_trace::SpanKind;

use crate::field::{SpectralField, Transform3d};
use crate::forcing::Forcing;
use crate::integrity::{
    self, IntegrityAccumulator, IntegrityConfig, IntegrityError, IntegrityEvent,
};

/// Explicit Runge–Kutta scheme (paper §2: RK2 or RK4).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TimeScheme {
    Rk2,
    Rk4,
}

/// Solver parameters.
#[derive(Clone, Debug)]
pub struct NsConfig {
    /// Kinematic viscosity ν.
    pub nu: f64,
    /// Time step Δt.
    pub dt: f64,
    pub scheme: TimeScheme,
    /// Optional low-wavenumber forcing for stationary turbulence.
    pub forcing: Option<Forcing>,
    /// Apply the spherical dealiasing truncation each substage.
    pub dealias: bool,
    /// Evaluate the nonlinear term on a half-cell-shifted grid (Rogallo's
    /// phase shifting, paper §2 \[17\]): removes the leading aliasing error
    /// of the products in combination with the `√2·N/3` truncation.
    pub phase_shift: bool,
}

impl Default for NsConfig {
    fn default() -> Self {
        Self {
            nu: 0.01,
            dt: 1e-2,
            scheme: TimeScheme::Rk2,
            forcing: None,
            dealias: true,
            phase_shift: false,
        }
    }
}

/// The distributed solver, generic over the transform backend (CPU slab or
/// the asynchronous batched GPU pipeline).
pub struct NavierStokes<T: Real, B: Transform3d<T>> {
    pub backend: B,
    pub cfg: NsConfig,
    /// Velocity in Fourier space (z-slab layout), 3 components.
    pub u: [SpectralField<T>; 3],
    pub step_count: usize,
    pub time: f64,
    /// Integrity monitors driving [`Self::step_verified`] (default:
    /// disarmed — the plain `step` path pays nothing).
    integrity: IntegrityConfig,
    /// All-integer log of violations, retries and heals, appended by
    /// [`Self::step_verified`]. Byte-identical across same-seed reruns.
    pub integrity_events: Vec<IntegrityEvent>,
    /// Per-step invariant sums filled by [`Self::nonlinear`] while armed.
    acc: IntegrityAccumulator,
}

impl<T: Real, B: Transform3d<T>> NavierStokes<T, B> {
    pub fn new(backend: B, cfg: NsConfig, u: [SpectralField<T>; 3]) -> Self {
        let shape = backend.shape();
        for f in &u {
            assert_eq!(f.shape, shape, "velocity fields must match backend shape");
        }
        let mut solver = Self {
            backend,
            cfg,
            u,
            step_count: 0,
            time: 0.0,
            integrity: IntegrityConfig::default(),
            integrity_events: Vec::new(),
            acc: IntegrityAccumulator::default(),
        };
        // Make the initial condition admissible: solenoidal and dealiased.
        solver.project_and_dealias_state();
        if let Some(f) = solver.cfg.forcing.clone() {
            let mut forcing = f;
            forcing.prime(&solver.u, solver.backend.comm());
            solver.cfg.forcing = Some(forcing);
        }
        solver
    }

    /// The full nonlinear operator `N(û) = P_k[ F{u × ω} ]`, dealiased.
    /// Public so diagnostics (energy-transfer spectra) can evaluate it.
    pub fn nonlinear(&mut self, u: &[SpectralField<T>; 3]) -> [SpectralField<T>; 3] {
        let tracer = self.backend.tracer().cloned();
        let _span = tracer
            .as_ref()
            .map(|t| t.span(SpanKind::NonlinearTerm, "solver.nl", "nonlinear"));
        // Spectral vorticity ω̂ = i k × û (local, z-slab).
        let w = crate::ops::curl(u);
        // One batched transform of all 6 fields → one all-to-all, like the
        // paper's 3-variable transposes but for the rotational form.
        let mut fields: Vec<SpectralField<T>> = u.iter().chain(w.iter()).cloned().collect();
        if self.cfg.phase_shift {
            for f in fields.iter_mut() {
                apply_phase_shift(f, true);
            }
        }
        // Parseval bookkeeping for [`Self::step_verified`]: the transforms
        // are exact, so the energy entering each direction must come out the
        // other side. Both directions share one accumulator pair.
        let parseval = self.integrity.parseval_tol.is_some();
        if parseval {
            self.acc.spec_energy += integrity::spectral_energy_local(&fields);
        }
        let phys = self.backend.fourier_to_physical(&fields);
        if parseval {
            self.acc.phys_energy += integrity::physical_energy_local(&phys);
        }
        let (up, wp) = phys.split_at(3);

        // Cross product u × ω pointwise in physical space — on the device
        // for accelerator backends (see Transform3d::cross_product).
        let nl = self.backend.cross_product(up, wp);
        if self.integrity.cross_tol.is_some() {
            // One pass yields the orthogonality residual and the Parseval
            // energy of the product.
            let (r, e) = integrity::cross_orthogonality_energy_local(up, wp, &nl);
            self.acc.ortho_max = self.acc.ortho_max.max(r);
            if parseval {
                self.acc.phys_energy += e;
            }
        } else if parseval {
            self.acc.phys_energy += integrity::physical_energy_local(&nl);
        }
        let mut spec = self.backend.physical_to_fourier(&nl);
        if parseval {
            // Before extraction/projection — those drop energy legitimately.
            self.acc.spec_energy += integrity::spectral_energy_local(&spec);
        }
        let mut out: [SpectralField<T>; 3] = [spec.remove(0), spec.remove(0), spec.remove(0)];
        if self.cfg.phase_shift {
            for f in out.iter_mut() {
                apply_phase_shift(f, false);
            }
        }
        let proj = tracer
            .as_ref()
            .map(|t| t.span(SpanKind::Projection, "solver.proj", "project+dealias"));
        project_and_dealias(&mut out, self.cfg.dealias);
        drop(proj);
        out
    }

    /// CFL-limited time step: `dt = cfl·Δx / max|u_i|`, reduced globally.
    /// Costs one 3-variable transform (one all-to-all), like any physical-
    /// space operation in this code.
    pub fn suggest_dt(&mut self, cfl: f64) -> f64 {
        let s = self.backend.shape();
        let phys = self.backend.fourier_to_physical(&self.u.clone());
        let mut umax = 0.0f64;
        for f in &phys {
            for &v in &f.data {
                umax = umax.max(v.to_f64().abs());
            }
        }
        let umax = self.backend.comm().allreduce(umax, f64::max);
        let dx = 2.0 * std::f64::consts::PI / s.n as f64;
        if umax > 0.0 {
            cfl * dx / umax
        } else {
            f64::INFINITY
        }
    }

    fn project_and_dealias_state(&mut self) {
        project_and_dealias(&mut self.u, self.cfg.dealias);
    }

    /// Integrating factor `exp(−νk²·h)` applied to a field triple.
    fn apply_if(&self, f: &mut [SpectralField<T>; 3], h: f64) {
        let s = self.backend.shape();
        let grid = s.grid();
        let nu = self.cfg.nu;
        for zl in 0..s.mz {
            let z = s.z_global(zl);
            for y in 0..s.n {
                for x in 0..s.nxh {
                    let k2 = grid.k_sqr(x, y, z);
                    let e = T::from_f64((-nu * k2 * h).exp());
                    let i = s.spec_idx(x, y, zl);
                    for c in f.iter_mut() {
                        c.data[i] = c.data[i].scale(e);
                    }
                }
            }
        }
    }

    /// Advance one time step.
    pub fn step(&mut self) {
        let _span = self.backend.tracer().map(|t| {
            t.span(
                SpanKind::Step,
                "solver",
                &format!("step[{}]", self.step_count),
            )
        });
        match self.cfg.scheme {
            TimeScheme::Rk2 => self.step_rk2(),
            TimeScheme::Rk4 => self.step_rk4(),
        }
        if let Some(mut f) = self.cfg.forcing.take() {
            f.apply(&mut self.u, self.backend.comm());
            self.cfg.forcing = Some(f);
        }
        self.step_count += 1;
        self.time += self.cfg.dt;
    }

    /// Arm (or disarm) the integrity monitors used by
    /// [`Self::step_verified`]. Also arms the backend's fused non-finite
    /// staging scan when the config asks for it.
    pub fn set_integrity(&mut self, cfg: IntegrityConfig) {
        self.backend.set_scan_nonfinite(cfg.scan_nonfinite);
        self.integrity = cfg;
    }

    /// The active integrity configuration.
    pub fn integrity(&self) -> &IntegrityConfig {
        &self.integrity
    }

    /// Advance one time step under the integrity monitors: detect a silent
    /// corruption of this step (NaN/Inf, Parseval imbalance, kernel
    /// orthogonality, divergence), localize it to the step, and recover by
    /// re-running the step from the in-memory pre-step state. A transient
    /// fault (an SEU does not repeat) re-executes cleanly and the healed
    /// trajectory is byte-identical to a fault-free run; a persistent fault
    /// exhausts [`IntegrityConfig::max_step_retries`] and surfaces as a
    /// typed [`IntegrityError::RetriesExhausted`] on *every* rank — the
    /// verdict comes from globally reduced sums, so the reduction is the
    /// agreement round and no rank can diverge from the others.
    ///
    /// With the monitors disarmed this is exactly [`Self::step`].
    pub fn step_verified(&mut self) -> Result<(), IntegrityError> {
        if !self.integrity.enabled() {
            self.step();
            return Ok(());
        }
        let snap = (self.u.clone(), self.time, self.cfg.forcing.clone());
        let from_step = self.step_count;
        let mut attempt: u32 = 0;
        loop {
            self.acc = IntegrityAccumulator::default();
            // Discard staging-scan counts from unverified activity (e.g.
            // diagnostics between steps) so they cannot taint this step.
            let _ = self.backend.take_nonfinite();
            self.step();
            match self.check_step() {
                Ok(()) => {
                    if attempt > 0 {
                        self.integrity_events.push(IntegrityEvent::Healed {
                            step: from_step,
                            attempts: attempt,
                        });
                    }
                    return Ok(());
                }
                Err(e) => {
                    self.integrity_events.push(IntegrityEvent::Violation {
                        step: from_step,
                        attempt,
                        check: e.check(),
                    });
                    if attempt >= self.integrity.max_step_retries {
                        // Leave the solver on the pre-step state (not the
                        // corrupted post-step one) so callers escalating to
                        // checkpoint rollback start from something sane.
                        let (u, time, forcing) = snap;
                        self.u = u;
                        self.time = time;
                        self.step_count = from_step;
                        self.cfg.forcing = forcing;
                        return Err(IntegrityError::RetriesExhausted {
                            step: from_step,
                            attempts: attempt + 1,
                            last: e.check(),
                        });
                    }
                    attempt += 1;
                    self.integrity_events.push(IntegrityEvent::Retry {
                        step: from_step,
                        attempt,
                    });
                    let (u, time, forcing) = snap.clone();
                    self.u = u;
                    self.time = time;
                    self.step_count = from_step;
                    self.cfg.forcing = forcing;
                }
            }
        }
    }

    /// Evaluate every armed monitor against the step that just ran. Two
    /// global reductions; all inputs to the verdict are globally agreed
    /// values, so every rank returns the same result.
    fn check_step(&mut self) -> Result<(), IntegrityError> {
        let cfg = self.integrity.clone();
        let mut nf_local = self.backend.take_nonfinite();
        if cfg.scan_nonfinite {
            nf_local += integrity::count_nonfinite_spec(&self.u);
        }
        let (div_num, div_den) = if cfg.divergence_tol.is_some() {
            integrity::divergence_sums_local(&self.u)
        } else {
            (0.0, 0.0)
        };
        let sums = self.backend.comm().allreduce_vec(
            &[
                self.acc.spec_energy,
                self.acc.phys_energy,
                div_num,
                div_den,
                nf_local as f64,
            ],
            |a, b| a + b,
        );
        let ortho = if cfg.cross_tol.is_some() {
            self.backend.comm().allreduce(self.acc.ortho_max, f64::max)
        } else {
            0.0
        };
        // Non-finite first: its count stays a finite integer even when the
        // state is NaN and every residual below is meaningless.
        if sums[4] > 0.0 {
            return Err(IntegrityError::NonFinite {
                count: sums[4] as u64,
            });
        }
        let fails = |resid: f64, tol: f64| !resid.is_finite() || resid > tol;
        if let Some(tol) = cfg.parseval_tol {
            let resid = (sums[0] - sums[1]).abs() / sums[0].abs().max(1e-30);
            if fails(resid, tol) {
                return Err(IntegrityError::Parseval {
                    residual_bits: resid.to_bits(),
                    tol_bits: tol.to_bits(),
                });
            }
        }
        if let Some(tol) = cfg.cross_tol {
            if fails(ortho, tol) {
                return Err(IntegrityError::CrossOrthogonality {
                    residual_bits: ortho.to_bits(),
                    tol_bits: tol.to_bits(),
                });
            }
        }
        if let Some(tol) = cfg.divergence_tol {
            let resid = if sums[3] > 0.0 {
                (sums[2] / sums[3]).sqrt()
            } else {
                0.0
            };
            if fails(resid, tol) {
                return Err(IntegrityError::Divergence {
                    residual_bits: resid.to_bits(),
                    tol_bits: tol.to_bits(),
                });
            }
        }
        Ok(())
    }

    /// Heun RK2 with exact viscous integrating factor:
    /// `v = E·(û + Δt·N(û))`, `û⁺ = E·û + Δt/2·(E·N(û) + N(v))`.
    fn step_rk2(&mut self) {
        let dt = self.cfg.dt;
        let u0 = self.u.clone();
        let n1 = self.nonlinear(&u0);
        // Predictor: full Euler step under the integrating factor.
        let mut v = u0.clone();
        axpy(&mut v, &n1, dt);
        self.apply_if(&mut v, dt);
        let n2 = self.nonlinear(&v);
        // Corrector: û⁺ = E·û + Δt/2·(E·N₁ + N₂).
        let mut unew = u0;
        self.apply_if(&mut unew, dt);
        let mut en1 = n1;
        self.apply_if(&mut en1, dt);
        axpy(&mut unew, &en1, dt / 2.0);
        axpy(&mut unew, &n2, dt / 2.0);
        self.u = unew;
    }

    /// Classical RK4 with integrating factor at half/full steps.
    fn step_rk4(&mut self) {
        let dt = self.cfg.dt;
        let u0 = self.u.clone();

        let k1 = self.nonlinear(&u0);

        let mut s2 = u0.clone();
        axpy(&mut s2, &k1, dt / 2.0);
        self.apply_if(&mut s2, dt / 2.0);
        let k2 = self.nonlinear(&s2);

        let mut s3 = u0.clone();
        self.apply_if(&mut s3, dt / 2.0);
        axpy(&mut s3, &k2, dt / 2.0);
        let k3 = self.nonlinear(&s3);

        let mut s4 = u0.clone();
        self.apply_if(&mut s4, dt / 2.0);
        let mut k3e = k3.clone();
        // k3 enters at the half step; bring both to the full step.
        axpy(&mut s4, &k3e, dt);
        self.apply_if(&mut s4, dt / 2.0);
        let k4 = self.nonlinear(&s4);

        // û⁺ = E·u0 + dt/6·(E·k1 + 2·Eh·k2 + 2·Eh·k3 + k4)
        let mut acc = u0.clone();
        self.apply_if(&mut acc, dt); // E·u0
        let mut k1e = k1;
        self.apply_if(&mut k1e, dt);
        axpy(&mut acc, &k1e, dt / 6.0);
        let mut k2e = k2;
        self.apply_if(&mut k2e, dt / 2.0);
        axpy(&mut acc, &k2e, dt / 3.0);
        self.apply_if(&mut k3e, dt / 2.0);
        axpy(&mut acc, &k3e, dt / 3.0);
        axpy(&mut acc, &k4, dt / 6.0);
        self.u = acc;
    }
}

/// Multiply a spectral field by `exp(±i·(kx+ky+kz)·Δx/2)` — evaluate on a
/// grid shifted by half a cell in each direction (Rogallo 1981). `forward`
/// applies the shift, `!forward` removes it.
pub fn apply_phase_shift<T: Real>(f: &mut SpectralField<T>, forward: bool) {
    let s = f.shape;
    let grid = s.grid();
    let half_dx = std::f64::consts::PI / s.n as f64; // Δx/2 with Δx = 2π/N
    for zl in 0..s.mz {
        let z = s.z_global(zl);
        for y in 0..s.n {
            for x in 0..s.nxh {
                let [kx, ky, kz] = grid.k_vec(x, y, z);
                let theta = (kx + ky + kz) * half_dx * if forward { 1.0 } else { -1.0 };
                let i = s.spec_idx(x, y, zl);
                f.data[i] *= Complex::from_f64(theta.cos(), theta.sin());
            }
        }
    }
}

/// `y ← y + a·x` over field triples.
fn axpy<T: Real>(y: &mut [SpectralField<T>; 3], x: &[SpectralField<T>; 3], a: f64) {
    let a = T::from_f64(a);
    for (yc, xc) in y.iter_mut().zip(x.iter()) {
        for (yv, xv) in yc.data.iter_mut().zip(xc.data.iter()) {
            *yv += xv.scale(a);
        }
    }
}

/// Project a spectral vector field perpendicular to **k** (incompressibility)
/// and optionally apply the dealiasing truncation. The k = 0 mode (mean
/// flow) is preserved by projection and zeroed by nonlinear-term callers via
/// its own k·N(0) = 0 structure.
pub fn project_and_dealias<T: Real>(f: &mut [SpectralField<T>; 3], dealias: bool) {
    let s = f[0].shape;
    let grid = s.grid();
    for zl in 0..s.mz {
        let z = s.z_global(zl);
        for y in 0..s.n {
            for x in 0..s.nxh {
                let i = s.spec_idx(x, y, zl);
                let [kx, ky, kz] = grid.k_vec(x, y, z);
                let k2 = kx * kx + ky * ky + kz * kz;
                if k2 > 0.0 {
                    let (a, b, c) = (f[0].data[i], f[1].data[i], f[2].data[i]);
                    let kdotf = a.scale(T::from_f64(kx))
                        + b.scale(T::from_f64(ky))
                        + c.scale(T::from_f64(kz));
                    let scale = kdotf.scale(T::from_f64(1.0 / k2));
                    f[0].data[i] = a - scale.scale(T::from_f64(kx));
                    f[1].data[i] = b - scale.scale(T::from_f64(ky));
                    f[2].data[i] = c - scale.scale(T::from_f64(kz));
                }
                if dealias && !grid.keep(x, y, z) {
                    f[0].data[i] = Complex::zero();
                    f[1].data[i] = Complex::zero();
                    f[2].data[i] = Complex::zero();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist_fft::SlabFftCpu;
    use crate::field::LocalShape;
    use crate::init::taylor_green;
    use crate::stats::flow_stats;
    use psdns_comm::Universe;

    fn tg_solver(
        n: usize,
        p: usize,
        comm: psdns_comm::Communicator,
        nu: f64,
        dt: f64,
        scheme: TimeScheme,
    ) -> NavierStokes<f64, SlabFftCpu<f64>> {
        let shape = LocalShape::new(n, p, comm.rank());
        let backend = SlabFftCpu::new(shape, comm);
        let u = taylor_green(shape);
        NavierStokes::new(
            backend,
            NsConfig {
                nu,
                dt,
                scheme,
                forcing: None,
                dealias: true,
                phase_shift: false,
            },
            u,
        )
    }

    /// With ν = 0 (Euler) the rotational form conserves kinetic energy; the
    /// time discretization error is O(dt²) per unit time for RK2.
    #[test]
    fn euler_conserves_energy() {
        let out = Universe::run(2, |comm| {
            let mut ns = tg_solver(16, 2, comm, 0.0, 2e-3, TimeScheme::Rk4);
            let e0 = flow_stats(&ns.u, 0.0, ns.backend.comm()).energy;
            for _ in 0..10 {
                ns.step();
            }
            let e1 = flow_stats(&ns.u, 0.0, ns.backend.comm()).energy;
            (e0, e1)
        });
        for (e0, e1) in out {
            assert!(e0 > 1e-6, "initial energy must be nonzero");
            assert!(
                ((e1 - e0) / e0).abs() < 1e-6,
                "energy drift {} vs {}",
                e1,
                e0
            );
        }
    }

    /// High-viscosity limit: the nonlinear term is negligible and each mode
    /// decays like exp(−νk²t); Taylor–Green has |k|² = 3.
    #[test]
    fn viscous_decay_matches_analytic() {
        let out = Universe::run(2, |comm| {
            let nu = 0.5;
            let dt = 1e-3;
            let steps = 100;
            let mut ns = tg_solver(16, 2, comm, nu, dt, TimeScheme::Rk2);
            // Kill the nonlinear term by scaling velocity tiny: linear decay
            // dominates and is exact under the integrating factor.
            for c in ns.u.iter_mut() {
                for v in c.data.iter_mut() {
                    *v = v.scale(1e-8);
                }
            }
            let e0 = flow_stats(&ns.u, nu, ns.backend.comm()).energy;
            for _ in 0..steps {
                ns.step();
            }
            let e1 = flow_stats(&ns.u, nu, ns.backend.comm()).energy;
            let t = dt * steps as f64;
            let expect = e0 * (-2.0 * nu * 3.0 * t).exp(); // k² = 3 for TG
            (e1, expect)
        });
        for (e1, expect) in out {
            assert!(
                ((e1 - expect) / expect).abs() < 1e-6,
                "decay {} vs analytic {}",
                e1,
                expect
            );
        }
    }

    /// The velocity field must remain solenoidal through time stepping.
    #[test]
    fn divergence_free_is_maintained() {
        let out = Universe::run(2, |comm| {
            let mut ns = tg_solver(12, 2, comm, 0.02, 5e-3, TimeScheme::Rk2);
            for _ in 0..5 {
                ns.step();
            }
            flow_stats(&ns.u, 0.02, ns.backend.comm()).max_divergence
        });
        for d in out {
            assert!(d < 1e-8, "divergence {d}");
        }
    }

    /// Phase-shifted evaluation must agree with plain truncation on a
    /// well-resolved flow (they differ only in aliasing error) and must not
    /// break conservation.
    #[test]
    fn phase_shift_agrees_on_resolved_flow() {
        let out = Universe::run(2, |comm| {
            let shape = LocalShape::new(16, 2, comm.rank());
            let mk = |shift: bool, comm: &psdns_comm::Communicator| {
                NavierStokes::new(
                    SlabFftCpu::<f64>::new(shape, comm.clone()),
                    NsConfig {
                        nu: 0.05,
                        dt: 2e-3,
                        scheme: TimeScheme::Rk2,
                        forcing: None,
                        dealias: true,
                        phase_shift: shift,
                    },
                    taylor_green(shape),
                )
            };
            let mut plain = mk(false, &comm);
            let mut shifted = mk(true, &comm);
            for _ in 0..10 {
                plain.step();
                shifted.step();
            }
            let ep = flow_stats(&plain.u, 0.05, plain.backend.comm()).energy;
            let es = flow_stats(&shifted.u, 0.05, shifted.backend.comm()).energy;
            let div = flow_stats(&shifted.u, 0.05, shifted.backend.comm()).max_divergence;
            (ep, es, div)
        });
        for (ep, es, div) in out {
            assert!(
                ((ep - es) / ep).abs() < 1e-4,
                "phase shift changed physics: {ep} vs {es}"
            );
            assert!(div < 1e-10, "phase shift broke solenoidality: {div}");
        }
    }

    /// The shift operator must be an exact involution (apply → remove).
    #[test]
    fn phase_shift_roundtrip_is_identity() {
        let shape = LocalShape::new(12, 1, 0);
        let u = taylor_green::<f64>(shape);
        let mut f = u[0].clone();
        apply_phase_shift(&mut f, true);
        apply_phase_shift(&mut f, false);
        for (a, b) in f.data.iter().zip(&u[0].data) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    /// suggest_dt scales like Δx/|u|: doubling the velocity halves dt.
    #[test]
    fn cfl_dt_scales_with_velocity() {
        let out = Universe::run(2, |comm| {
            let mut ns = tg_solver(16, 2, comm, 0.01, 1e-3, TimeScheme::Rk2);
            let dt1 = ns.suggest_dt(0.5);
            for c in ns.u.iter_mut() {
                for v in c.data.iter_mut() {
                    *v = v.scale(2.0);
                }
            }
            let dt2 = ns.suggest_dt(0.5);
            (dt1, dt2)
        });
        for (dt1, dt2) in out {
            assert!(dt1.is_finite() && dt1 > 0.0);
            assert!((dt1 / dt2 - 2.0).abs() < 1e-6, "{dt1} vs {dt2}");
        }
    }

    /// RK4 at the same dt must be closer to a fine-dt reference than RK2.
    #[test]
    fn rk4_more_accurate_than_rk2() {
        let energies = Universe::run(1, |comm| {
            let t_final = 0.2;
            let run = |scheme, dt: f64, comm: &psdns_comm::Communicator| {
                let mut ns = tg_solver(12, 1, comm.clone(), 0.05, dt, scheme);
                let steps = (t_final / dt).round() as usize;
                for _ in 0..steps {
                    ns.step();
                }
                flow_stats(&ns.u, 0.05, ns.backend.comm()).energy
            };
            let reference = run(TimeScheme::Rk4, 1e-3, &comm);
            let rk2 = run(TimeScheme::Rk2, 2e-2, &comm);
            let rk4 = run(TimeScheme::Rk4, 2e-2, &comm);
            (reference, rk2, rk4)
        });
        let (reference, rk2, rk4) = energies[0];
        let err2 = (rk2 - reference).abs();
        let err4 = (rk4 - reference).abs();
        assert!(
            err4 < err2,
            "RK4 error {err4} not smaller than RK2 error {err2}"
        );
    }
}
