//! Exclusive per-layer attribution of one traced solver step.
//!
//! Spans on a rank's host thread nest: the benchmark's root span around the
//! `step`/`step_verified` call contains the solver's step span, which
//! contains the nonlinear-term spans, which contain the wrapper's transform
//! spans, which contain the FFT, pack and all-to-all spans. A span's *self*
//! time is its duration minus the durations of its direct children, so the
//! self times of one tree add up to the root exactly. Spans on device
//! streams run concurrently with the host thread; they are not children of
//! anything and are reported as busy time (the union of their intervals
//! inside the root), never subtracted from a host span.

use std::collections::BTreeMap;

use psdns_trace::{SpanKind, TraceSpan};

use crate::timed::{CROSS_TRACK, TRANSFORM_TRACK};

/// Track of the benchmark's root span around each solver step call.
pub const ROOT_TRACK: &str = "bench";

/// Tracks written from a rank's host thread: the benchmark's own, the
/// solver's phase spans, the host FFT path, the communicator and the device
/// pipeline's per-call spans. Every other track is a device stream.
const HOST_TRACKS: [&str; 9] = [
    ROOT_TRACK,
    TRANSFORM_TRACK,
    CROSS_TRACK,
    "solver",
    "solver.nl",
    "solver.proj",
    "cpu",
    "net",
    "pipeline",
];

pub const UNATTRIBUTED: &str = "trace.unattributed_s";
pub const CHECK: &str = "core.integrity.check_s";

/// The exclusive row a host span's self time belongs to. The root's own
/// self time is the integrity check when the step ran through
/// `step_verified` with monitors armed, and unattributed otherwise.
fn host_row(s: &TraceSpan, verified: bool) -> &'static str {
    match (s.track.as_str(), s.kind) {
        (ROOT_TRACK, _) if verified => CHECK,
        (ROOT_TRACK, _) => UNATTRIBUTED,
        (TRANSFORM_TRACK, _) | ("pipeline", _) => "core.transform.self_s",
        (CROSS_TRACK, _) => "core.ns.cross_s",
        (_, SpanKind::Step) => "core.ns.step_self_s",
        (_, SpanKind::NonlinearTerm) => "core.ns.nonlinear_self_s",
        (_, SpanKind::Projection) => "core.ns.projection_s",
        (_, SpanKind::FftCompute) => "fft.host_s",
        (_, SpanKind::PackUnpack) => "domain.pack.host_s",
        (_, SpanKind::A2aPost) => "comm.a2a_post_s",
        (_, SpanKind::A2aWait) => "comm.a2a_wait_s",
        _ => UNATTRIBUTED,
    }
}

/// The busy row of a device-stream span.
fn device_row(kind: SpanKind) -> &'static str {
    match kind {
        SpanKind::H2d => "device.h2d_s",
        SpanKind::D2h => "device.d2h_s",
        SpanKind::FftCompute => "fft.device_s",
        SpanKind::PackUnpack => "domain.pack.device_s",
        _ => "device.other_s",
    }
}

/// One rank's step, in nanoseconds.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Attribution {
    /// Root span duration: the step wall on this rank.
    pub wall_ns: u64,
    /// Exclusive host rows; they sum to `wall_ns` when `nesting_ns` is 0.
    pub exclusive: BTreeMap<&'static str, i64>,
    /// Inclusive durations of the wrapper's spans, by name (`f2p`, `p2f`).
    pub inclusive: BTreeMap<String, u64>,
    /// Concurrent device-stream busy time (interval union per row).
    pub busy: BTreeMap<&'static str, u64>,
    /// Nanoseconds by which host spans stick out of their parent: host
    /// spans that overlap without nesting mean a span was put on the wrong
    /// thread class, and the exclusive rows are then meaningless.
    pub nesting_ns: u64,
}

/// Attribute the spans of `rank` that fall inside its root span. Returns
/// `None` when the rank has no root span in `spans`.
pub fn attribute(spans: &[TraceSpan], rank: usize, verified: bool) -> Option<Attribution> {
    let root = spans
        .iter()
        .find(|s| s.rank == rank && s.track == ROOT_TRACK)?;
    let (lo, hi) = (root.start_ns, root.end_ns);
    let mut out = Attribution {
        wall_ns: root.duration_ns(),
        ..Default::default()
    };

    let mut host: Vec<&TraceSpan> = Vec::new();
    let mut device: BTreeMap<&'static str, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.rank == rank) {
        if HOST_TRACKS.contains(&s.track.as_str()) {
            if s.start_ns >= lo && s.end_ns <= hi {
                host.push(s);
            } else if s.start_ns < hi && s.end_ns > lo {
                out.nesting_ns += s.end_ns.min(hi) - s.start_ns.max(lo);
            }
        } else if s.start_ns < hi && s.end_ns > lo {
            device
                .entry(device_row(s.kind))
                .or_default()
                .push((s.start_ns.max(lo), s.end_ns.min(hi)));
        }
    }
    // Parents first: earlier start, then longer span; the root sorts first.
    host.sort_by_key(|s| {
        (
            s.start_ns,
            std::cmp::Reverse(s.end_ns),
            s.track != ROOT_TRACK,
        )
    });
    let mut children_ns = vec![0u64; host.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (i, s) in host.iter().enumerate() {
        while stack.last().is_some_and(|&p| host[p].end_ns <= s.start_ns) {
            stack.pop();
        }
        if let Some(&p) = stack.last() {
            out.nesting_ns += s.end_ns.saturating_sub(host[p].end_ns);
            children_ns[p] += s.duration_ns();
        }
        stack.push(i);
    }
    for (s, child) in host.iter().zip(children_ns) {
        *out.exclusive.entry(host_row(s, verified)).or_default() +=
            s.duration_ns() as i64 - child as i64;
        if s.track == TRANSFORM_TRACK {
            *out.inclusive.entry(s.name.clone()).or_default() += s.duration_ns();
        }
    }
    for (row, iv) in device {
        out.busy.insert(row, union_ns(iv));
    }
    Some(out)
}

/// Total length of the union of `[start, end)` intervals.
fn union_ns(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let (mut total, mut reach) = (0u64, 0u64);
    for (s, e) in iv {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(track: &str, kind: SpanKind, name: &str, start_ns: u64, end_ns: u64) -> TraceSpan {
        TraceSpan {
            rank: 0,
            track: track.into(),
            kind,
            name: name.into(),
            start_ns,
            end_ns,
        }
    }

    /// A synthetic step: root ⊃ step ⊃ nonlinear ⊃ {f2p ⊃ {fft, a2a}, proj},
    /// plus device-stream spans overlapping the host tree and each other.
    fn synthetic() -> Vec<TraceSpan> {
        vec![
            span(ROOT_TRACK, SpanKind::Other, "step", 0, 1000),
            span("solver", SpanKind::Step, "step[0]", 10, 990),
            span("solver.nl", SpanKind::NonlinearTerm, "nonlinear", 20, 800),
            span(TRANSFORM_TRACK, SpanKind::Other, "f2p", 30, 500),
            span("cpu", SpanKind::FftCompute, "fft", 40, 240),
            span("net", SpanKind::A2aPost, "post", 240, 300),
            span("net", SpanKind::A2aWait, "wait", 300, 450),
            span("solver.proj", SpanKind::Projection, "proj", 600, 700),
            // Device streams: concurrent with everything above.
            span("xfer-r0g0", SpanKind::H2d, "h2d", 100, 400),
            span("xfer-r0g0", SpanKind::H2d, "h2d", 350, 450),
            span("comp-r0g0", SpanKind::FftCompute, "k", 200, 900),
            // Outside the root: ignored.
            span("comp-r0g0", SpanKind::FftCompute, "k", 1500, 1600),
            span("stats", SpanKind::Fault, "x", 1200, 1300),
        ]
    }

    #[test]
    fn self_times_subtract_children_and_sum_to_the_root() {
        let a = attribute(&synthetic(), 0, false).unwrap();
        assert_eq!(a.wall_ns, 1000);
        assert_eq!(a.nesting_ns, 0);
        let e = &a.exclusive;
        assert_eq!(e[UNATTRIBUTED], 20); // root minus step
        assert_eq!(e["core.ns.step_self_s"], 980 - 780);
        assert_eq!(e["core.ns.nonlinear_self_s"], 780 - 470 - 100);
        assert_eq!(e["core.transform.self_s"], 470 - 200 - 60 - 150);
        assert_eq!(e["fft.host_s"], 200);
        assert_eq!(e["comm.a2a_post_s"], 60);
        assert_eq!(e["comm.a2a_wait_s"], 150);
        assert_eq!(e["core.ns.projection_s"], 100);
        assert_eq!(e.values().sum::<i64>(), 1000);
        assert_eq!(a.inclusive["f2p"], 470);
    }

    #[test]
    fn device_spans_are_concurrent_busy_time_not_children() {
        let a = attribute(&synthetic(), 0, false).unwrap();
        // Two overlapping H2D copies: union 100..450.
        assert_eq!(a.busy["device.h2d_s"], 350);
        // The kernel outside the root is not counted.
        assert_eq!(a.busy["fft.device_s"], 700);
        // Device time is not subtracted from the host spans it overlaps.
        assert_eq!(a.exclusive["fft.host_s"], 200);
    }

    #[test]
    fn verified_root_self_is_the_integrity_check() {
        let a = attribute(&synthetic(), 0, true).unwrap();
        assert_eq!(a.exclusive[CHECK], 20);
        assert!(!a.exclusive.contains_key(UNATTRIBUTED));
    }

    #[test]
    fn overlapping_host_spans_are_a_nesting_violation() {
        let mut spans = synthetic();
        // A host span that starts inside f2p and ends after it.
        spans.push(span("cpu", SpanKind::PackUnpack, "pack", 450, 550));
        let a = attribute(&spans, 0, false).unwrap();
        assert_eq!(a.nesting_ns, 50);
    }

    #[test]
    fn missing_root_is_none() {
        let spans = vec![span("solver", SpanKind::Step, "s", 0, 1)];
        assert!(attribute(&spans, 0, false).is_none());
        assert!(attribute(&synthetic(), 1, false).is_none());
    }
}
