//! Field containers and the transform-backend abstraction.

use psdns_domain::{Grid, Slab1d};
use psdns_fft::{Complex, Real};

/// Per-rank shape information for the slab decomposition.
///
/// Fourier space: z-slabs `(nxh, n, mz)` complex (x fastest).
/// Physical space: y-slabs `(n, my, n)` real (x fastest).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LocalShape {
    pub n: usize,
    pub p: usize,
    pub rank: usize,
    /// Half-spectrum extent in x: `n/2 + 1`.
    pub nxh: usize,
    pub my: usize,
    pub mz: usize,
}

impl LocalShape {
    pub fn new(n: usize, p: usize, rank: usize) -> Self {
        let slab = Slab1d::new(n, p);
        Self {
            n,
            p,
            rank,
            nxh: n / 2 + 1,
            my: slab.my(),
            mz: slab.mz(),
        }
    }

    pub fn slab(&self) -> Slab1d {
        Slab1d::new(self.n, self.p)
    }

    pub fn grid(&self) -> Grid {
        Grid::new(self.n)
    }

    /// Elements of one spectral (z-slab) field.
    pub fn spec_len(&self) -> usize {
        self.nxh * self.n * self.mz
    }

    /// Elements of one physical (y-slab) field.
    pub fn phys_len(&self) -> usize {
        self.n * self.my * self.n
    }

    /// Index into a spectral field: x in half spectrum, y global, zl local.
    #[inline]
    pub fn spec_idx(&self, x: usize, y: usize, zl: usize) -> usize {
        debug_assert!(x < self.nxh && y < self.n && zl < self.mz);
        x + self.nxh * (y + self.n * zl)
    }

    /// Index into a physical field: x global, yl local, z global.
    #[inline]
    pub fn phys_idx(&self, x: usize, yl: usize, z: usize) -> usize {
        debug_assert!(x < self.n && yl < self.my && z < self.n);
        x + self.n * (yl + self.my * z)
    }

    /// Global z of local plane `zl`.
    pub fn z_global(&self, zl: usize) -> usize {
        self.rank * self.mz + zl
    }

    /// Global y of local plane `yl`.
    pub fn y_global(&self, yl: usize) -> usize {
        self.rank * self.my + yl
    }
}

/// One spectral variable on this rank (z-slab layout).
#[derive(Clone, Debug, PartialEq)]
pub struct SpectralField<T> {
    pub shape: LocalShape,
    pub data: Vec<Complex<T>>,
}

impl<T: Real> SpectralField<T> {
    pub fn zeros(shape: LocalShape) -> Self {
        Self {
            shape,
            data: vec![Complex::zero(); shape.spec_len()],
        }
    }

    pub fn from_data(shape: LocalShape, data: Vec<Complex<T>>) -> Self {
        assert_eq!(data.len(), shape.spec_len());
        Self { shape, data }
    }

    #[inline]
    pub fn at(&self, x: usize, y: usize, zl: usize) -> Complex<T> {
        self.data[self.shape.spec_idx(x, y, zl)]
    }

    #[inline]
    pub fn at_mut(&mut self, x: usize, y: usize, zl: usize) -> &mut Complex<T> {
        let i = self.shape.spec_idx(x, y, zl);
        &mut self.data[i]
    }

    /// Sum of |û|² with conjugate-symmetry double counting of kx > 0 modes
    /// (local to this rank; reduce across ranks for the global value).
    pub fn mode_energy_local(&self) -> f64 {
        let s = self.shape;
        let mut acc = 0.0f64;
        for zl in 0..s.mz {
            for y in 0..s.n {
                for x in 0..s.nxh {
                    let w = if x == 0 || (s.n.is_multiple_of(2) && x == s.nxh - 1) {
                        1.0
                    } else {
                        2.0
                    };
                    acc += w * self.at(x, y, zl).norm_sqr().to_f64();
                }
            }
        }
        acc
    }
}

/// One physical-space variable on this rank (y-slab layout).
#[derive(Clone, Debug, PartialEq)]
pub struct PhysicalField<T> {
    pub shape: LocalShape,
    pub data: Vec<T>,
}

impl<T: Real> PhysicalField<T> {
    pub fn zeros(shape: LocalShape) -> Self {
        Self {
            shape,
            data: vec![T::ZERO; shape.phys_len()],
        }
    }

    pub fn from_data(shape: LocalShape, data: Vec<T>) -> Self {
        assert_eq!(data.len(), shape.phys_len());
        Self { shape, data }
    }

    #[inline]
    pub fn at(&self, x: usize, yl: usize, z: usize) -> T {
        self.data[self.shape.phys_idx(x, yl, z)]
    }

    #[inline]
    pub fn at_mut(&mut self, x: usize, yl: usize, z: usize) -> &mut T {
        let i = self.shape.phys_idx(x, yl, z);
        &mut self.data[i]
    }
}

/// A distributed 3-D transform backend. Implementations: [`crate::SlabFftCpu`]
/// (host) and [`crate::GpuSlabFft`] (Fig. 4 async; Fig. 2 is its `np = 1`
/// whole-slab case).
///
/// Conventions: `fourier_to_physical` applies inverse transforms carrying
/// the full `1/N³`; `physical_to_fourier` is unnormalized. The pair is an
/// exact round trip, and stored spectral coefficients are `N³ ×` the
/// mathematical Fourier-series coefficients (a pure convention that cancels
/// throughout the solver).
pub trait Transform3d<T: Real> {
    fn shape(&self) -> LocalShape;

    /// The communicator spanning the decomposition (used by solver-level
    /// reductions: energy, spectra, CFL).
    fn comm(&self) -> &psdns_comm::Communicator;

    /// The tracer recording this backend's activity, if one is attached.
    /// The default sources it from the communicator (see
    /// [`psdns_comm::Communicator::set_tracer`]), so every backend that
    /// traces its transposes also exposes solver-phase spans for free.
    fn tracer(&self) -> Option<&psdns_trace::Tracer> {
        self.comm().tracer()
    }

    /// Statically certify the backend's planned transform schedule before
    /// running it: asynchronous backends replay their stream/event DAG
    /// through the happens-before analyzer and fail with
    /// [`crate::Error::Hazard`] on an ordering defect (see
    /// [`crate::GpuSlabFft::analyze_schedule`]). Synchronous backends have
    /// no schedule to check; the default certifies trivially.
    fn verify_schedule(&self) -> Result<(), crate::error::Error> {
        Ok(())
    }

    /// Arm or disarm the backend's fused non-finite scan of its transpose
    /// staging buffers (see [`crate::IntegrityConfig::scan_nonfinite`]).
    /// Backends without a staging scan ignore this; the solver-level
    /// post-step state scan still runs.
    fn set_scan_nonfinite(&mut self, _on: bool) {}

    /// Drain the count of non-finite values the fused staging scan has seen
    /// since the last drain. Backends without a scan report zero.
    fn take_nonfinite(&mut self) -> u64 {
        0
    }

    /// Transform `nv` spectral fields to physical space together (the paper
    /// moves 3 variables per all-to-all; one call = one logical transpose).
    fn fourier_to_physical(&mut self, specs: &[SpectralField<T>]) -> Vec<PhysicalField<T>>;

    /// Transform `nv` physical fields to Fourier space together.
    fn physical_to_fourier(&mut self, phys: &[PhysicalField<T>]) -> Vec<SpectralField<T>>;

    /// Pointwise cross product `u × ω` in physical space — the nonlinear
    /// products of the pseudo-spectral method. The default runs on the
    /// host; accelerator backends override it to form the products on the
    /// device, as the paper's code does ("other computations such as
    /// forming non-linear products in the DNS code", Fig. 4 caption).
    fn cross_product(
        &mut self,
        up: &[PhysicalField<T>],
        wp: &[PhysicalField<T>],
    ) -> [PhysicalField<T>; 3] {
        let mut nl = host_cross_product(self.shape(), up, wp);
        crate::integrity::inject_kernel_corrupt(self.comm(), "cross", &mut nl);
        nl
    }
}

/// Pointwise `u × ω` on the host: the kernel of the default
/// [`Transform3d::cross_product`], and the device path's fallback when the
/// device cannot run it.
pub(crate) fn host_cross_product<T: Real>(
    s: LocalShape,
    up: &[PhysicalField<T>],
    wp: &[PhysicalField<T>],
) -> [PhysicalField<T>; 3] {
    assert_eq!(up.len(), 3);
    assert_eq!(wp.len(), 3);
    let mut nl = [
        PhysicalField::zeros(s),
        PhysicalField::zeros(s),
        PhysicalField::zeros(s),
    ];
    for i in 0..s.phys_len() {
        let (u0, u1, u2) = (up[0].data[i], up[1].data[i], up[2].data[i]);
        let (w0, w1, w2) = (wp[0].data[i], wp[1].data[i], wp[2].data[i]);
        nl[0].data[i] = u1 * w2 - u2 * w1;
        nl[1].data[i] = u2 * w0 - u0 * w2;
        nl[2].data[i] = u0 * w1 - u1 * w0;
    }
    nl
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_arithmetic() {
        let s = LocalShape::new(16, 4, 2);
        assert_eq!(s.nxh, 9);
        assert_eq!((s.my, s.mz), (4, 4));
        assert_eq!(s.spec_len(), 9 * 16 * 4);
        assert_eq!(s.phys_len(), 16 * 4 * 16);
        assert_eq!(s.z_global(1), 9);
        assert_eq!(s.y_global(3), 11);
        assert_eq!(s.spec_idx(1, 2, 3), 1 + 9 * (2 + 16 * 3));
        assert_eq!(s.phys_idx(1, 2, 3), 1 + 16 * (2 + 4 * 3));
    }

    #[test]
    fn mode_energy_double_counts_interior_kx() {
        let s = LocalShape::new(8, 1, 0);
        let mut f = SpectralField::<f64>::zeros(s);
        *f.at_mut(0, 0, 0) = psdns_fft::Complex64::new(1.0, 0.0); // weight 1
        *f.at_mut(2, 0, 0) = psdns_fft::Complex64::new(1.0, 0.0); // weight 2
        *f.at_mut(4, 0, 0) = psdns_fft::Complex64::new(1.0, 0.0); // Nyquist, weight 1
        assert_eq!(f.mode_energy_local(), 4.0);
    }
}
