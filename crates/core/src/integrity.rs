//! End-to-end numerical-integrity monitors and silent-corruption injection.
//!
//! Exascale pseudo-spectral runs are long enough that silent data corruption
//! (SDC) — a flipped DRAM bit, a compute SEU in a kernel — becomes a
//! first-class failure mode alongside crashed ranks and hung queues. The
//! transport layer already guards its payloads with ABFT checksums
//! ([`psdns_comm::AbftData`]); this module covers the gap those checksums
//! cannot see: corruption that happens *before* a payload is checksummed
//! (staging buffers, kernel outputs) or inside the solver state itself.
//!
//! The monitors are cheap mathematical invariants of the pseudo-spectral
//! method, each O(N³) per step against the transforms' O(N³ log N):
//!
//! * **Parseval balance** — the 3-D transforms are exact, so the
//!   conjugate-weighted spectral energy entering `fourier_to_physical` (and
//!   leaving `physical_to_fourier`) must equal the physical-space energy on
//!   the other side. An exponent-bit flip in a transpose staging buffer
//!   shifts one side by orders of magnitude.
//! * **Cross-product orthogonality** — the rotational nonlinear term
//!   `u × ω` is pointwise perpendicular to both `u` and `ω`; a corrupted
//!   kernel output value breaks that at its grid point.
//! * **Divergence residual** — the projected state is solenoidal;
//!   corruption of the stored spectral state shows up as `k·û ≠ 0`.
//! * **Non-finite scan** — NaN/Inf anywhere in the state or (when fused
//!   into a backend's pack stage) in a transpose staging buffer.
//!
//! All checks reduce to *globally agreed* numbers (one `allreduce_vec` plus
//! one max-`allreduce` per verified step), so every rank reaches the same
//! pass/fail verdict deterministically — the reduction *is* the vote, and
//! the escalation in [`crate::NavierStokes::step_verified`] (re-run the step
//! from the in-memory snapshot) and [`crate::run_self_healing`] (roll back
//! to the last buddy checkpoint) stays in collective lockstep.
//!
//! The same module hosts the seeded corruption *injectors* the chaos layer
//! drives: [`inject_buf_flip`] (staging buffers, device copies) and
//! [`inject_kernel_corrupt`] (kernel outputs). Both damage a top exponent
//! bit of a nonzero value — the magnitude-explosion class of SEU that the
//! monitors are guaranteed to see — and both draw their target from the
//! engine's decorrelated per-site stream, so a same-seed rerun corrupts the
//! same bit of the same element.

use psdns_chaos::FaultKind;
use psdns_comm::Communicator;
use psdns_fft::{Complex, Real};

use crate::field::{PhysicalField, SpectralField};

/// Which integrity checks run, and how tight. `Default` is fully disarmed
/// (the healthy path pays nothing); [`IntegrityConfig::armed`] turns on
/// every monitor at tolerances safe for `f64` pipelines.
#[derive(Clone, Debug)]
pub struct IntegrityConfig {
    /// Scan the post-step spectral state (and, on backends that fuse the
    /// scan into their pack stage, the transpose staging buffers) for
    /// NaN/Inf.
    pub scan_nonfinite: bool,
    /// Relative tolerance of the Parseval balance between the spectral and
    /// physical sides of each step's transforms. `None` disables.
    pub parseval_tol: Option<f64>,
    /// Tolerance of the normalized pointwise `(u×ω)·u` / `(u×ω)·ω`
    /// residual of the nonlinear-term kernel. `None` disables.
    pub cross_tol: Option<f64>,
    /// Tolerance of the energy-weighted divergence residual
    /// `√(Σ w|k·û|² / Σ w k²|û|²)` of the post-step state. `None` disables.
    pub divergence_tol: Option<f64>,
    /// Re-run a violating step from the in-memory snapshot at most this
    /// many times before surfacing [`IntegrityError::RetriesExhausted`].
    pub max_step_retries: u32,
}

impl Default for IntegrityConfig {
    fn default() -> Self {
        Self {
            scan_nonfinite: false,
            parseval_tol: None,
            cross_tol: None,
            divergence_tol: None,
            max_step_retries: 1,
        }
    }
}

impl IntegrityConfig {
    /// Every monitor armed at `f64`-safe tolerances. Round-off puts the
    /// Parseval and orthogonality residuals near 1e-15 and the divergence
    /// residual near 1e-12 for double precision; 1e-6 leaves six orders of
    /// headroom while still catching any exponent-class corruption. For
    /// `f32` pipelines use [`IntegrityConfig::armed_with_tol`] (≈ 1e-2).
    pub fn armed() -> Self {
        Self::armed_with_tol(1e-6)
    }

    /// Every monitor armed at one uniform relative tolerance.
    pub fn armed_with_tol(tol: f64) -> Self {
        Self {
            scan_nonfinite: true,
            parseval_tol: Some(tol),
            cross_tol: Some(tol),
            divergence_tol: Some(tol),
            max_step_retries: 1,
        }
    }

    /// True when any monitor is on.
    pub fn enabled(&self) -> bool {
        self.scan_nonfinite
            || self.parseval_tol.is_some()
            || self.cross_tol.is_some()
            || self.divergence_tol.is_some()
    }
}

/// Which invariant a violation tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityCheck {
    NonFinite,
    Parseval,
    CrossOrthogonality,
    Divergence,
}

/// Typed integrity violations. Residuals are carried as `f64` bit patterns
/// (all-integer), so errors compare exactly and a same-seed rerun's error
/// is byte-identical to the original's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntegrityError {
    /// NaN/Inf values found (global count across ranks).
    NonFinite { count: u64 },
    /// Spectral/physical energy balance violated across a transform.
    Parseval { residual_bits: u64, tol_bits: u64 },
    /// The nonlinear-term kernel's output is not perpendicular to `u`/`ω`.
    CrossOrthogonality { residual_bits: u64, tol_bits: u64 },
    /// The post-step state is not solenoidal.
    Divergence { residual_bits: u64, tol_bits: u64 },
    /// A violating step failed every re-run from the in-memory snapshot.
    RetriesExhausted {
        step: usize,
        attempts: u32,
        last: IntegrityCheck,
    },
}

impl IntegrityError {
    /// The invariant this error reports.
    pub fn check(&self) -> IntegrityCheck {
        match self {
            IntegrityError::NonFinite { .. } => IntegrityCheck::NonFinite,
            IntegrityError::Parseval { .. } => IntegrityCheck::Parseval,
            IntegrityError::CrossOrthogonality { .. } => IntegrityCheck::CrossOrthogonality,
            IntegrityError::Divergence { .. } => IntegrityCheck::Divergence,
            IntegrityError::RetriesExhausted { last, .. } => *last,
        }
    }
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let r = |bits: &u64| f64::from_bits(*bits);
        match self {
            IntegrityError::NonFinite { count } => {
                write!(f, "{count} non-finite value(s) in simulation data")
            }
            IntegrityError::Parseval {
                residual_bits,
                tol_bits,
            } => write!(
                f,
                "Parseval balance violated: relative residual {:.3e} > tol {:.3e}",
                r(residual_bits),
                r(tol_bits)
            ),
            IntegrityError::CrossOrthogonality {
                residual_bits,
                tol_bits,
            } => write!(
                f,
                "u x w orthogonality violated: residual {:.3e} > tol {:.3e}",
                r(residual_bits),
                r(tol_bits)
            ),
            IntegrityError::Divergence {
                residual_bits,
                tol_bits,
            } => write!(
                f,
                "divergence residual {:.3e} > tol {:.3e}",
                r(residual_bits),
                r(tol_bits)
            ),
            IntegrityError::RetriesExhausted {
                step,
                attempts,
                last,
            } => write!(
                f,
                "step {step} failed integrity ({last:?}) after {attempts} attempt(s)"
            ),
        }
    }
}

impl std::error::Error for IntegrityError {}

/// One entry of the integrity log — all-integer so a same-seed rerun
/// produces a byte-identical log (compare with `format!("{events:?}")`,
/// exactly like [`crate::RecoveryEvent`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntegrityEvent {
    /// A monitor tripped verifying the step advancing from `step`.
    Violation {
        step: usize,
        attempt: u32,
        check: IntegrityCheck,
    },
    /// The step was re-run from the in-memory snapshot.
    Retry { step: usize, attempt: u32 },
    /// A re-run passed every monitor.
    Healed { step: usize, attempts: u32 },
    /// The self-healing supervisor rolled the state back to the last buddy
    /// checkpoint after in-place retries were exhausted.
    Rollback { from_step: usize, to_step: usize },
}

/// Per-step accumulator the solver fills while the nonlinear term runs:
/// local energy sums for the Parseval pair and the local orthogonality
/// maximum. Drained (and globally reduced) once per verified step; the
/// non-finite count lives on the backend ([`crate::Transform3d::take_nonfinite`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IntegrityAccumulator {
    pub spec_energy: f64,
    pub phys_energy: f64,
    pub ortho_max: f64,
}

/// Conjugate-weighted spectral energy of a field set in mathematical units
/// (`Σ_f Σ_k w|û|² / N⁶`), local to this rank's slab.
pub fn spectral_energy_local<T: Real>(fields: &[SpectralField<T>]) -> f64 {
    if fields.is_empty() {
        return 0.0;
    }
    let n6 = ((fields[0].shape.n as f64).powi(3)).powi(2);
    fields.iter().map(|f| f.mode_energy_local()).sum::<f64>() / n6
}

/// Physical-space energy of a field set (`Σ_f Σ_x u² / N³`), local to this
/// rank's slab. Equals [`spectral_energy_local`] of the same data by
/// Parseval, once both are summed across ranks.
pub fn physical_energy_local<T: Real>(fields: &[PhysicalField<T>]) -> f64 {
    if fields.is_empty() {
        return 0.0;
    }
    let n3 = (fields[0].shape.n as f64).powi(3);
    fields
        .iter()
        .map(|f| f.data.iter().map(|v| v.to_f64() * v.to_f64()).sum::<f64>())
        .sum::<f64>()
        / n3
}

/// Largest normalized pointwise violation of `(u×ω) ⊥ u` and `(u×ω) ⊥ ω`
/// over this rank's slab: `max_i |nl·u| / (|nl||u| + tiny)` (and likewise
/// against ω). Exactly zero in exact arithmetic; ~machine-ε in floating
/// point; O(1) when a kernel output value was corrupted at a point where
/// the matching `u`/`ω` component is nonzero.
pub fn cross_orthogonality_local<T: Real>(
    up: &[PhysicalField<T>],
    wp: &[PhysicalField<T>],
    nl: &[PhysicalField<T>; 3],
) -> f64 {
    cross_orthogonality_energy_local(up, wp, nl).0
}

/// [`cross_orthogonality_local`] and [`physical_energy_local`]`(nl)` in one
/// pass over the cross product. The energy is bit-identical to the
/// separate call: each component's squares are summed in the same order.
///
/// Any non-finite value of `u`, `ω` or `u×ω` is a violation outright
/// (residual 1), which a NaN-dropping `f64::max` could otherwise hide.
pub fn cross_orthogonality_energy_local<T: Real>(
    up: &[PhysicalField<T>],
    wp: &[PhysicalField<T>],
    nl: &[PhysicalField<T>; 3],
) -> (f64, f64) {
    let len = nl[0].data.len();
    let (n, u, w) = (
        components(nl, len),
        components(up, len),
        components(wp, len),
    );
    let mut energy = [0.0f64; 3];
    // Largest squared ratios `(n̂·v̂)² / (|n̂|²|v̂|²)` against u and ω, kept
    // apart so the two running maxima do not serialize; the square root is
    // taken once at the end.
    let mut worst_u = 0.0f64;
    let mut worst_w = 0.0f64;
    let mut finite = true;
    for i in 0..len {
        let nv = [n[0][i].to_f64(), n[1][i].to_f64(), n[2][i].to_f64()];
        let uv = [u[0][i].to_f64(), u[1][i].to_f64(), u[2][i].to_f64()];
        let wv = [w[0][i].to_f64(), w[1][i].to_f64(), w[2][i].to_f64()];
        for (e, x) in energy.iter_mut().zip(nv) {
            *e += x * x;
        }
        finite &= nv
            .iter()
            .chain(&uv)
            .chain(&wv)
            .fold(true, |ok, x| ok & x.is_finite());
        let (nh, nn2) = max_abs_scaled(nv);
        let (uh, un2) = max_abs_scaled(uv);
        let (wh, wn2) = max_abs_scaled(wv);
        let du = nh[0] * uh[0] + nh[1] * uh[1] + nh[2] * uh[2];
        let dw = nh[0] * wh[0] + nh[1] * wh[1] + nh[2] * wh[2];
        // A scaled norm² is 0 for the zero vector and ≥ 1 otherwise, so the
        // floor only turns "no constraint here" into a zero ratio.
        let ru = du * du / (nn2 * un2).max(1.0);
        let rw = dw * dw / (nn2 * wn2).max(1.0);
        if ru > worst_u {
            worst_u = ru;
        }
        if rw > worst_w {
            worst_w = rw;
        }
    }
    let ortho = if finite {
        worst_u.max(worst_w).sqrt()
    } else {
        1.0
    };
    let n3 = (nl[0].shape.n as f64).powi(3);
    (ortho, (energy[0] + energy[1] + energy[2]) / n3)
}

/// The three component slices of a vector field, cut to `len` so the hot
/// loop indexes them without bounds checks.
fn components<T>(f: &[PhysicalField<T>], len: usize) -> [&[T]; 3] {
    [&f[0].data[..len], &f[1].data[..len], &f[2].data[..len]]
}

/// `v` times the reciprocal of its largest magnitude, with the squared norm
/// of the result (zero for the zero vector). Scaling before squaring keeps
/// a blasted ~1e307 value from overflowing the norm to Inf and hiding the
/// offending point behind a 0/Inf ratio; the floor at the smallest normal
/// keeps the reciprocal finite for subnormal vectors.
#[inline(always)]
fn max_abs_scaled(v: [f64; 3]) -> ([f64; 3], f64) {
    let m = v[0].abs().max(v[1].abs()).max(v[2].abs());
    let r = 1.0 / m.max(f64::MIN_POSITIVE);
    let h = [v[0] * r, v[1] * r, v[2] * r];
    (h, h[0] * h[0] + h[1] * h[1] + h[2] * h[2])
}

/// Count of non-finite values in a spectral field set (local).
pub fn count_nonfinite_spec<T: Real>(fields: &[SpectralField<T>]) -> u64 {
    fields
        .iter()
        .flat_map(|f| f.data.iter())
        .filter(|c| !c.re.to_f64().is_finite() || !c.im.to_f64().is_finite())
        .count() as u64
}

/// Count of non-finite values in a complex staging buffer (local). Backends
/// fuse this into their pack stage so corrupt data is flagged *before* it
/// fans out through the all-to-all.
pub fn count_nonfinite_buf<T: Real>(buf: &[Complex<T>]) -> u64 {
    buf.iter()
        .filter(|c| !c.re.to_f64().is_finite() || !c.im.to_f64().is_finite())
        .count() as u64
}

/// Local sums of the divergence residual: `(Σ w|k·û|², Σ w k²|û|²)` in
/// mathematical units. Globally: residual = `√(num/den)` — the same
/// energy-weighted measure as [`crate::stats::FlowStats::max_divergence`].
pub(crate) fn divergence_sums_local<T: Real>(u: &[SpectralField<T>; 3]) -> (f64, f64) {
    let s = u[0].shape;
    let grid = s.grid();
    let n6 = ((s.n as f64).powi(3)).powi(2);
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for zl in 0..s.mz {
        let z = s.z_global(zl);
        for y in 0..s.n {
            for x in 0..s.nxh {
                let [kx, ky, kz] = grid.k_vec(x, y, z);
                let k2 = kx * kx + ky * ky + kz * kz;
                if k2 == 0.0 {
                    continue;
                }
                let w = if x == 0 || (s.n.is_multiple_of(2) && x == s.nxh - 1) {
                    1.0
                } else {
                    2.0
                };
                let i = s.spec_idx(x, y, zl);
                let (a, b, c) = (u[0].data[i], u[1].data[i], u[2].data[i]);
                let e = a.norm_sqr().to_f64() + b.norm_sqr().to_f64() + c.norm_sqr().to_f64();
                let kdotu =
                    a.scale(T::from_f64(kx)) + b.scale(T::from_f64(ky)) + c.scale(T::from_f64(kz));
                num += w * kdotu.norm_sqr().to_f64() / n6;
                den += w * k2 * e / n6;
            }
        }
    }
    (num, den)
}

// ---------------------------------------------------------------------------
// Seeded corruption injectors (chaos layer)
// ---------------------------------------------------------------------------

/// Set the highest *clear* top-exponent bit of a float's representation —
/// a magnitude explosion of at least 2^64 for any sanely scaled value, the
/// worst-case SEU class. (The sign bit is deliberately excluded: the
/// remaining transform stages are energy-preserving, so a sign flip is
/// invisible to the Parseval monitor; an exponent flip never is.)
fn blast_exponent_u64(bits: u64, total_bits: u32) -> u64 {
    for off in 2..=6 {
        let b = total_bits - off;
        if bits & (1u64 << b) == 0 {
            return bits ^ (1u64 << b);
        }
    }
    bits ^ (1u64 << (total_bits - 2))
}

/// Corrupt one seeded nonzero element of a complex staging buffer with a
/// top-exponent-bit flip. `draw` picks the starting element; the first
/// nonzero half at or after it (cyclic) is damaged, so zero-padded buffers
/// still receive a *detectable* fault deterministically.
fn corrupt_complex_buf<T: Real>(buf: &mut [Complex<T>], draw: u64) {
    if buf.is_empty() {
        return;
    }
    let n = buf.len();
    let start = (draw % n as u64) as usize;
    for off in 0..n {
        let i = (start + off) % n;
        let (re, im) = (buf[i].re.to_bits_u64(), buf[i].im.to_bits_u64());
        if re != 0 {
            buf[i].re = T::from_bits_u64(blast_exponent_u64(re, T::BITS));
            return;
        }
        if im != 0 {
            buf[i].im = T::from_bits_u64(blast_exponent_u64(im, T::BITS));
            return;
        }
    }
}

/// Seeded [`psdns_chaos::FaultKind::BitFlip`] injection into a transpose
/// staging buffer (site `buf:{class}:r{rank}`). These flips happen *before*
/// the payload is checksummed, so the ABFT sidecar cannot see them — they
/// exist to exercise the physics monitors. No-op without a chaos engine or
/// when the campaign's `bit_flip_site` filter excludes the `buf:` class.
pub fn inject_buf_flip<T: Real>(comm: &Communicator, class: &str, buf: &mut [Complex<T>]) {
    let Some(ch) = comm.chaos() else {
        return;
    };
    let rank = comm.global_rank(comm.rank());
    let site = format!("buf:{class}:r{rank}");
    if let Some(k) = ch.check_seq(rank, &site, FaultKind::BitFlip) {
        let draw = ch.draw(&site, FaultKind::BitFlip, k);
        corrupt_complex_buf(buf, draw);
    }
}

/// Seeded [`psdns_chaos::FaultKind::ComputeCorrupt`] injection into a
/// kernel's output fields (site `kernel:{class}:r{rank}`): one wrong output
/// value, the compute-SEU model. The seeded draw picks the starting slot;
/// the first nonzero output value at or after it is blasted.
pub fn inject_kernel_corrupt<T: Real>(
    comm: &Communicator,
    class: &str,
    out: &mut [PhysicalField<T>; 3],
) {
    let Some(ch) = comm.chaos() else {
        return;
    };
    let rank = comm.global_rank(comm.rank());
    let site = format!("kernel:{class}:r{rank}");
    let Some(k) = ch.check_seq(rank, &site, FaultKind::ComputeCorrupt) else {
        return;
    };
    let draw = ch.draw(&site, FaultKind::ComputeCorrupt, k);
    let len = out[0].data.len();
    let total = 3 * len;
    if total == 0 {
        return;
    }
    let start = (draw % total as u64) as usize;
    for off in 0..total {
        let slot = (start + off) % total;
        let (c, i) = (slot / len, slot % len);
        let bits = out[c].data[i].to_bits_u64();
        if bits != 0 {
            out[c].data[i] = T::from_bits_u64(blast_exponent_u64(bits, T::BITS));
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist_fft::SlabFftCpu;
    use crate::field::{LocalShape, Transform3d};
    use proptest::prelude::*;
    use psdns_comm::Universe;

    #[test]
    fn blast_always_changes_magnitude_hugely() {
        for v in [1.0f64, -3.5e10, 1e-20, 0.125] {
            let out = f64::from_bits(blast_exponent_u64(v.to_bits(), 64));
            let ratio = (out / v).abs();
            assert!(
                !(1e-6..=1e6).contains(&ratio),
                "{v} -> {out} is not an exponent-class change"
            );
        }
    }

    #[test]
    fn corrupt_buf_skips_zeros_deterministically() {
        let mut buf = vec![Complex::<f64>::zero(); 8];
        buf[5] = Complex::new(0.0, 2.0);
        let before = buf.clone();
        corrupt_complex_buf(&mut buf, 1); // starts at 1, scans to 5
        assert_eq!(buf[..5], before[..5]);
        assert_ne!(buf[5], before[5]);
        let mut again = before.clone();
        corrupt_complex_buf(&mut again, 1);
        assert_eq!(again, buf, "same draw must corrupt the same bit");
    }

    #[test]
    fn orthogonality_flags_corrupted_cross_product() {
        let s = LocalShape::new(8, 1, 0);
        let u = crate::init::taylor_green::<f64>(s);
        let out = Universe::run(1, move |comm| {
            let mut fft = SlabFftCpu::<f64>::new(s, comm);
            let w = crate::ops::curl(&u);
            let all: Vec<SpectralField<f64>> = u.iter().chain(w.iter()).cloned().collect();
            let phys = fft.fourier_to_physical(&all);
            let (up, wp) = phys.split_at(3);
            let mut nl = fft.cross_product(up, wp);
            let clean = cross_orthogonality_local(up, wp, &nl);
            // Corrupt one value where u's matching component is nonzero.
            let i = up[0]
                .data
                .iter()
                .zip(&nl[0].data)
                .position(|(a, b)| a.abs() > 0.1 && b.abs() > 1e-6)
                .expect("detectable point exists");
            nl[0].data[i] = f64::from_bits(blast_exponent_u64(nl[0].data[i].to_bits(), 64));
            let dirty = cross_orthogonality_local(up, wp, &nl);
            (clean, dirty)
        });
        let (clean, dirty) = out[0];
        assert!(clean < 1e-12, "clean residual {clean}");
        assert!(dirty > 1e-3, "corruption invisible: {dirty}");
    }

    #[test]
    fn fused_orthogonality_pass_matches_separate_calls() {
        let s = LocalShape::new(8, 1, 0);
        let u = crate::init::random_solenoidal::<f64>(s, 3.0, 17);
        let out = Universe::run(1, move |comm| {
            let mut fft = SlabFftCpu::<f64>::new(s, comm);
            let w = crate::ops::curl(&u);
            let all: Vec<SpectralField<f64>> = u.iter().chain(w.iter()).cloned().collect();
            let phys = fft.fourier_to_physical(&all);
            let (up, wp) = phys.split_at(3);
            let mut nl = fft.cross_product(up, wp);
            let fused = cross_orthogonality_energy_local(up, wp, &nl);
            let energy = physical_energy_local(&nl);
            // A non-finite product value is a violation outright, and the
            // energy still sums every value.
            nl[1].data[5] = f64::INFINITY;
            let dirty = cross_orthogonality_energy_local(up, wp, &nl);
            (fused, energy, dirty, physical_energy_local(&nl))
        });
        let ((ortho, fused_e), energy, (dirty, dirty_e), inf_e) = out[0];
        assert_eq!(
            fused_e.to_bits(),
            energy.to_bits(),
            "energy must be bit-identical"
        );
        assert!(ortho < 1e-12, "clean residual {ortho}");
        assert_eq!(dirty, 1.0);
        assert_eq!(dirty_e.to_bits(), inf_e.to_bits());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The Parseval monitor never false-positives on a fault-free
        /// transform, across random band-limited fields, grid sizes and
        /// both precisions.
        #[test]
        fn parseval_never_false_positives_fault_free(
            seed in 0u64..1_000_000,
            gi in 0usize..3,
            f32_mode in 0u32..2,
        ) {
            let n = [8usize, 12, 16][gi];
            let shape = LocalShape::new(n, 1, 0);
            if f32_mode == 1 {
                let (rs, re) = Universe::run(1, move |comm| {
                    let mut fft = SlabFftCpu::<f32>::new(shape, comm);
                    let u = crate::init::random_solenoidal::<f32>(shape, 3.0, seed);
                    let es = spectral_energy_local(&u);
                    let phys = fft.fourier_to_physical(&u);
                    (es, physical_energy_local(&phys))
                })[0];
                let resid = (rs - re).abs() / rs.max(1e-30);
                prop_assert!(resid < 1e-2, "f32 residual {resid}");
            } else {
                let (rs, re) = Universe::run(1, move |comm| {
                    let mut fft = SlabFftCpu::<f64>::new(shape, comm);
                    let u = crate::init::random_solenoidal::<f64>(shape, 3.0, seed);
                    let es = spectral_energy_local(&u);
                    let phys = fft.fourier_to_physical(&u);
                    (es, physical_energy_local(&phys))
                })[0];
                let resid = (rs - re).abs() / rs.max(1e-30);
                prop_assert!(resid < 1e-6, "f64 residual {resid}");
            }
        }
    }
}
