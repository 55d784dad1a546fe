//! Device health & hot-swap groundwork: hung queues and lost devices must
//! surface as *typed* errors within the watchdog deadline — never a hang,
//! never a panic — and the all-integer health-event log must replay
//! byte-identically for the same chaos seed, on every backend.
//!
//! The state machine under test (see `health.rs`): a fence that misses its
//! adaptive deadline marks the backend `Suspect`; a cheap canary op on a
//! fresh queue probes the device before anything is condemned; a failed
//! probe condemns with `DeviceLost`, an exhausted retry budget on a
//! still-responsive device condemns with `QueueHung`.

use std::time::{Duration, Instant};

use psdns_chaos::{ChaosConfig, ChaosEngine, FaultPlan, WatchdogPolicy};
use psdns_device::{
    BackendKind, Device, DeviceConfig, DeviceError, HealthCause, HealthEvent, HealthState,
};

const KINDS: [BackendKind; 2] = [BackendKind::Simulated, BackendKind::Host];

fn device(kind: BackendKind) -> Device {
    Device::with_kind(kind, DeviceConfig::tiny(1 << 22))
}

fn chaos(seed: u64, mutate: impl FnOnce(&mut ChaosConfig)) -> ChaosEngine {
    let mut cfg = ChaosConfig {
        seed,
        ..ChaosConfig::default()
    };
    cfg.retry.max_retries = 2;
    cfg.retry.backoff = Duration::from_micros(50);
    mutate(&mut cfg);
    ChaosEngine::new(cfg)
}

fn fast_watchdog() -> WatchdogPolicy {
    WatchdogPolicy {
        floor: Duration::from_millis(20),
        factor: 8,
    }
}

/// Inject a hang at the first op, run one kernel, synchronize. Returns the
/// typed error and the health-event log.
fn run_hang(kind: BackendKind, seed: u64) -> (DeviceError, Vec<HealthEvent>, u64) {
    let engine = chaos(seed, |c| c.device_hang = FaultPlan::at(0));
    let dev = device(kind);
    dev.attach_chaos(&engine);
    dev.enable_fence_watchdog(fast_watchdog());
    let s = dev.create_stream("hang-victim");
    s.launch("nop", || {});
    let t0 = Instant::now();
    let err = s
        .synchronize()
        .expect_err("hung queue must yield a typed error");
    // Bounded detection: armed-fault fences short-circuit, so the whole
    // suspect → probe → condemn sequence is far under the test's patience.
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "detection must finish within the deadline budget"
    );
    assert!(dev.health().is_lost());
    assert!(
        dev.take_error().is_some(),
        "condemnation records a sticky device error"
    );
    (err, dev.health().events(), engine.schedule_digest())
}

#[test]
fn hung_queue_condemns_with_queue_hung() {
    for kind in KINDS {
        let (err, events, _) = run_hang(kind, 11);
        match &err {
            DeviceError::QueueHung { stream, .. } => assert_eq!(stream, "hang-victim"),
            other => panic!("{kind:?}: expected QueueHung, got {other}"),
        }
        // Suspect(fence timeout), then one probe per retry (all ok — the
        // device still answers), then condemned for retry exhaustion.
        assert!(matches!(
            events.first(),
            Some(HealthEvent::Suspect {
                cause: HealthCause::FenceTimeout,
                ..
            })
        ));
        assert!(matches!(
            events.last(),
            Some(HealthEvent::Condemned {
                cause: HealthCause::RetriesExhausted,
                ..
            })
        ));
        assert!(events
            .iter()
            .all(|e| !matches!(e, HealthEvent::Probe { ok: false, .. })));
    }
}

#[test]
fn lost_device_condemns_with_device_lost() {
    for kind in KINDS {
        let engine = chaos(7, |c| c.device_lost = FaultPlan::at(0));
        let dev = device(kind);
        dev.attach_chaos(&engine);
        dev.enable_fence_watchdog(fast_watchdog());
        let s = dev.create_stream("lost-victim");
        s.launch("nop", || {});
        let err = s
            .synchronize()
            .expect_err("lost device must yield a typed error");
        assert!(
            matches!(err, DeviceError::DeviceLost { .. }),
            "{kind:?}: expected DeviceLost, got {err}"
        );
        let events = dev.health().events();
        // Loss is detected at the first fence, the canary probe fails, and
        // the device is condemned — no retry loop for a dead device.
        assert!(matches!(
            events.first(),
            Some(HealthEvent::Suspect {
                cause: HealthCause::LostFault,
                ..
            })
        ));
        assert!(events
            .iter()
            .any(|e| matches!(e, HealthEvent::Probe { ok: false, .. })));
        assert!(matches!(
            events.last(),
            Some(HealthEvent::Condemned {
                cause: HealthCause::ProbeFailed,
                ..
            })
        ));
        // Sticky: every later synchronize fails fast with the same verdict.
        let s2 = dev.create_stream("post-mortem");
        s2.launch("nop", || {});
        let t0 = Instant::now();
        assert!(matches!(
            s2.synchronize(),
            Err(DeviceError::DeviceLost { .. })
        ));
        assert!(t0.elapsed() < Duration::from_secs(1), "fail-fast when lost");
    }
}

/// A queue that is merely *slow* (op outlasts the fence deadline) must not
/// be condemned: the probe passes, the retried fence eventually completes,
/// and the backend transitions Suspect → Healthy. Exercises the real
/// `fence_deadline` timeout path (no armed-fault short-circuit).
#[test]
fn transient_slow_op_recovers_without_condemnation() {
    // Simulated backend only: an eager backend finishes ops at submit time,
    // so its fences cannot observe an op in flight.
    let engine = chaos(3, |c| {
        c.retry.max_retries = 50; // patience ≫ the op's overshoot
    });
    let dev = device(BackendKind::Simulated);
    dev.attach_chaos(&engine);
    dev.enable_fence_watchdog(WatchdogPolicy {
        floor: Duration::from_millis(10),
        factor: 8,
    });
    let s = dev.create_stream("slowpoke");
    s.launch("slow", || std::thread::sleep(Duration::from_millis(45)));
    s.synchronize()
        .expect("a slow queue on a healthy device must recover");
    assert_eq!(dev.health().state(), HealthState::Healthy);
    let events = dev.health().events();
    assert!(matches!(
        events.first(),
        Some(HealthEvent::Suspect {
            cause: HealthCause::FenceTimeout,
            ..
        })
    ));
    assert!(
        events
            .iter()
            .any(|e| matches!(e, HealthEvent::Recovered { .. })),
        "suspect must resolve back to healthy: {events:?}"
    );
    assert!(
        dev.take_error().is_none(),
        "recovery leaves no sticky error"
    );
}

/// Same seed ⇒ byte-identical health-event log and chaos schedule digest,
/// and the logs agree across backends (the fault schedule is decided in the
/// shared stream layer, not by the executor).
#[test]
fn health_log_is_deterministic_and_backend_uniform() {
    let (e1, log1, d1) = run_hang(BackendKind::Simulated, 99);
    let (e2, log2, d2) = run_hang(BackendKind::Simulated, 99);
    assert_eq!(log1, log2, "same-seed replay must be byte-identical");
    assert_eq!(d1, d2, "same-seed chaos digests must match");
    assert_eq!(format!("{e1}"), format!("{e2}"));

    let (_, log_host, d_host) = run_hang(BackendKind::Host, 99);
    assert_eq!(
        log1, log_host,
        "health transitions must be identical across backends"
    );
    assert_eq!(d1, d_host);
}

/// Dropping a device with an armed (never-synchronized) hang must not
/// deadlock: condemnation never happened, so the release latch opens on
/// device drop and the wedged worker drains before the join.
#[test]
fn dropping_wedged_device_does_not_deadlock() {
    let engine = chaos(5, |c| c.device_hang = FaultPlan::at(0));
    let dev = device(BackendKind::Simulated);
    dev.attach_chaos(&engine);
    let s = dev.create_stream("abandoned");
    s.launch("nop", || {});
    drop(s);
    drop(dev); // joins the worker; must return
}

/// The canary probe is cheap and side-effect free on a healthy device.
#[test]
fn probe_succeeds_on_healthy_device() {
    for kind in KINDS {
        let dev = device(kind);
        assert!(dev.probe(Some(Duration::from_millis(500))));
        assert!(dev.probe(None));
        assert_eq!(dev.health().state(), HealthState::Healthy);
        assert!(dev.health().events().is_empty());
    }
}
