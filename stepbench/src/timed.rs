//! A transparent [`Transform3d`] wrapper that records the backend's
//! transform and cross-product calls as spans on the benchmark's own tracks.
//!
//! Every trait method forwards to the wrapped backend, so a solver stepping
//! through `Timed<B>` computes exactly what it computes through `B` (the
//! `wrapping_is_bit_identical` test pins this on both backends). Without a
//! tracer the wrapper records nothing and adds one branch per call.

use psdns_comm::Communicator;
use psdns_core::{Error, LocalShape, PhysicalField, SpectralField, Transform3d};
use psdns_fft::Real;
use psdns_trace::{SpanKind, Tracer};

/// Track of the wrapper's `fourier_to_physical`/`physical_to_fourier` spans.
pub const TRANSFORM_TRACK: &str = "bench.transform";
/// Track of the wrapper's `cross_product` spans.
pub const CROSS_TRACK: &str = "bench.cross";

pub struct Timed<B> {
    pub inner: B,
    /// Transform calls (both directions) since construction.
    pub calls: u64,
}

impl<B> Timed<B> {
    pub fn new(inner: B) -> Self {
        Self { inner, calls: 0 }
    }
}

/// Run `f`, recording it as a span on `track` when a tracer is attached.
fn recorded<R>(tracer: Option<Tracer>, track: &str, name: &str, f: impl FnOnce() -> R) -> R {
    let Some(t) = tracer else { return f() };
    let start = t.now_ns();
    let out = f();
    t.record(SpanKind::Other, track, name, start, t.now_ns());
    out
}

impl<T: Real, B: Transform3d<T>> Transform3d<T> for Timed<B> {
    fn shape(&self) -> LocalShape {
        self.inner.shape()
    }

    fn comm(&self) -> &Communicator {
        self.inner.comm()
    }

    fn tracer(&self) -> Option<&Tracer> {
        self.inner.tracer()
    }

    fn verify_schedule(&self) -> Result<(), Error> {
        self.inner.verify_schedule()
    }

    fn set_scan_nonfinite(&mut self, on: bool) {
        self.inner.set_scan_nonfinite(on)
    }

    fn take_nonfinite(&mut self) -> u64 {
        self.inner.take_nonfinite()
    }

    fn fourier_to_physical(&mut self, specs: &[SpectralField<T>]) -> Vec<PhysicalField<T>> {
        self.calls += 1;
        let t = self.inner.tracer().cloned();
        recorded(t, TRANSFORM_TRACK, "f2p", || {
            self.inner.fourier_to_physical(specs)
        })
    }

    fn physical_to_fourier(&mut self, phys: &[PhysicalField<T>]) -> Vec<SpectralField<T>> {
        self.calls += 1;
        let t = self.inner.tracer().cloned();
        recorded(t, TRANSFORM_TRACK, "p2f", || {
            self.inner.physical_to_fourier(phys)
        })
    }

    fn cross_product(
        &mut self,
        up: &[PhysicalField<T>],
        wp: &[PhysicalField<T>],
    ) -> [PhysicalField<T>; 3] {
        let t = self.inner.tracer().cloned();
        recorded(t, CROSS_TRACK, "cross", || self.inner.cross_product(up, wp))
    }
}
