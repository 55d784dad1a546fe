//! Backend conformance harness: the schedule is decided in the shared
//! `Device`/`Stream` layer, so every [`DeviceBackend`] implementation must
//! observe the *same* program — same copies, same event edges, same
//! recorder log, same chaos decisions. These tests drive one scenario
//! through each backend and compare the outcomes, which is the executable
//! form of the trait's conformance contract (see `backend.rs`).
//!
//! [`DeviceBackend`]: psdns_device::DeviceBackend

use std::time::Duration;

use proptest::prelude::*;
use psdns_chaos::{ChaosConfig, ChaosEngine, FaultPlan};
use psdns_device::{
    normalized, Access, BackendKind, Copy2d, Device, DeviceConfig, DeviceError, Event, MemSpace,
    OrderingLog, PinnedBuffer,
};

const KINDS: [BackendKind; 2] = [BackendKind::Simulated, BackendKind::Host];

fn device(kind: BackendKind) -> Device {
    Device::with_kind(kind, DeviceConfig::tiny(1 << 22))
}

/// 1-D, strided 2-D and zero-copy transfers, one stream, then readback.
type Roundtrip = (Vec<u32>, Vec<u32>, Vec<u32>);

fn copy_roundtrip(kind: BackendKind) -> Result<Roundtrip, DeviceError> {
    let dev = device(kind);
    let s = dev.create_stream("conf-copy");

    let n = 64usize;
    let host_in = PinnedBuffer::from_vec((0..n as u32).map(|v| v * 3 + 1).collect());
    let out_1d = PinnedBuffer::<u32>::new(n);
    let out_2d = PinnedBuffer::<u32>::new(n);
    let out_zc = PinnedBuffer::<u32>::new(n);
    let dbuf = dev.alloc::<u32>(n)?;

    s.memcpy_h2d_async(&host_in, 0, &dbuf, 0, n);
    s.memcpy_d2h_async(&dbuf, 0, &out_1d, 0, n);

    let shape = Copy2d {
        width: 8,
        height: 6,
        src_offset: 2,
        src_pitch: 10,
        dst_offset: 1,
        dst_pitch: 9,
    };
    s.memcpy2d_h2d_async(&host_in, &dbuf, shape);
    s.memcpy2d_d2h_async(
        &dbuf,
        &out_2d,
        Copy2d {
            width: 8,
            height: 6,
            src_offset: 1,
            src_pitch: 9,
            dst_offset: 0,
            dst_pitch: 8,
        },
    );

    let gather: Vec<(usize, usize, usize)> = (0..4).map(|c| (c * 13, c * 8, 8)).collect();
    let scatter: Vec<(usize, usize, usize)> = (0..4).map(|c| (c * 8, c * 11, 8)).collect();
    s.zero_copy_h2d_async(&host_in, &dbuf, gather);
    s.zero_copy_d2h_async(&dbuf, &out_zc, scatter);
    s.synchronize()?;

    Ok((out_1d.snapshot(), out_2d.snapshot(), out_zc.snapshot()))
}

#[test]
fn copy_roundtrips_agree_across_backends() -> Result<(), DeviceError> {
    let sim = copy_roundtrip(KINDS[0])?;
    let host = copy_roundtrip(KINDS[1])?;
    assert_eq!(sim, host);
    // And the data is actually the input, not zeros.
    assert_eq!(sim.0[5], 16);
    Ok(())
}

/// Cross-stream ping-pong through events: a writes, b transforms after
/// waiting on a, a finalizes after waiting on b. The event edges force one
/// deterministic result no matter how the backend schedules the streams.
fn event_ping_pong(kind: BackendKind) -> Result<Vec<i64>, DeviceError> {
    let dev = device(kind);
    let a = dev.create_stream("conf-a");
    let b = dev.create_stream("conf-b");
    let n = 256usize;
    let host_out = PinnedBuffer::<i64>::new(n);
    let dbuf = dev.alloc::<i64>(n)?;

    let d1 = dbuf.clone();
    a.launch("produce", move || {
        let mut d = d1.lock_mut();
        for (i, v) in d.iter_mut().enumerate() {
            *v = i as i64;
        }
    });
    let e1 = Event::new();
    a.record(&e1);

    b.wait_event(&e1);
    let d2 = dbuf.clone();
    b.launch("transform", move || {
        let mut d = d2.lock_mut();
        for v in d.iter_mut() {
            *v = *v * 7 - 3;
        }
    });
    let e2 = Event::new();
    b.record(&e2);

    a.wait_event(&e2);
    let d3 = dbuf.clone();
    a.launch("finalize", move || {
        let mut d = d3.lock_mut();
        for v in d.iter_mut() {
            *v += 1;
        }
    });
    a.memcpy_d2h_async(&dbuf, 0, &host_out, 0, n);
    a.synchronize()?;
    b.synchronize()?;
    Ok(host_out.snapshot())
}

#[test]
fn event_ordering_agrees_across_backends() -> Result<(), DeviceError> {
    let sim = event_ping_pong(KINDS[0])?;
    let host = event_ping_pong(KINDS[1])?;
    assert_eq!(sim, host);
    assert_eq!(sim[10], 10 * 7 - 3 + 1);
    Ok(())
}

/// Ops enqueued out of program order across two streams — the consumer
/// stream is loaded up *before* the producer stream gets its work — still
/// resolve through the event edge on every backend.
fn out_of_order_launches(kind: BackendKind) -> Result<Vec<u32>, DeviceError> {
    let dev = device(kind);
    let prod = dev.create_stream("conf-prod");
    let cons = dev.create_stream("conf-cons");
    let n = 128usize;
    let host_out = PinnedBuffer::<u32>::new(n);
    let dbuf = dev.alloc::<u32>(n)?;

    // Producer fills slowly, records.
    let d1 = dbuf.clone();
    prod.launch("slow-fill", move || {
        std::thread::sleep(Duration::from_millis(2));
        let mut d = d1.lock_mut();
        for (i, v) in d.iter_mut().enumerate() {
            *v = 1000 + i as u32;
        }
    });
    let done = Event::new();
    prod.record(&done);

    // Consumer's whole chain is enqueued while the producer may still be
    // asleep; the wait edge keeps it correct.
    cons.wait_event(&done);
    let d2 = dbuf.clone();
    cons.launch("scale", move || {
        let mut d = d2.lock_mut();
        for v in d.iter_mut() {
            *v *= 2;
        }
    });
    cons.memcpy_d2h_async(&dbuf, 0, &host_out, 0, n);
    cons.synchronize()?;
    prod.synchronize()?;
    Ok(host_out.snapshot())
}

#[test]
fn out_of_order_stream_launches_agree_across_backends() -> Result<(), DeviceError> {
    let sim = out_of_order_launches(KINDS[0])?;
    let host = out_of_order_launches(KINDS[1])?;
    assert_eq!(sim, host);
    assert_eq!(sim[3], (1000 + 3) * 2);
    Ok(())
}

/// One traced offload scenario, recorded on each backend. The ordering
/// logs must describe the identical schedule: same tracks, op names, op
/// kinds, event edges and access ranges — only the globally allocated
/// buffer/event ids may differ, which `normalized` erases.
fn recorded_schedule(kind: BackendKind) -> Result<OrderingLog, DeviceError> {
    let dev = device(kind);
    let log = OrderingLog::new();
    dev.attach_recorder(&log);
    let xfer = dev.create_stream("conf-xfer");
    let comp = dev.create_stream("conf-comp");
    let n = 32usize;
    let host = PinnedBuffer::from_vec(vec![1.0f64; n]);
    let out = PinnedBuffer::<f64>::new(n);
    let dbuf = dev.alloc::<f64>(n)?;

    xfer.memcpy_h2d_async(&host, 0, &dbuf, 0, n);
    let up = Event::new();
    xfer.record(&up);
    comp.wait_event(&up);
    let d = dbuf.clone();
    comp.launch_traced(
        "square",
        vec![
            Access::read(dbuf.id(), MemSpace::Device, 0, n),
            Access::write(dbuf.id(), MemSpace::Device, 0, n),
        ],
        move || {
            let mut d = d.lock_mut();
            for v in d.iter_mut() {
                *v *= *v;
            }
        },
    );
    let done = Event::new();
    comp.record(&done);
    xfer.wait_event(&done);
    xfer.memcpy_d2h_async(&dbuf, 0, &out, 0, n);
    xfer.synchronize()?;
    comp.synchronize()?;
    Ok(log)
}

#[test]
fn recorder_logs_are_equal_across_backends() -> Result<(), DeviceError> {
    let sim = recorded_schedule(KINDS[0])?;
    let host = recorded_schedule(KINDS[1])?;
    assert!(!sim.snapshot().is_empty());
    assert_eq!(normalized(&sim.snapshot()), normalized(&host.snapshot()));
    Ok(())
}

/// Same-seeded chaos engines see the same per-site occurrence sequence on
/// every backend: the gates fire host-side at enqueue time, so the fault
/// schedule digest is backend-independent.
fn chaos_run(kind: BackendKind) -> Result<u64, DeviceError> {
    let mut cfg = ChaosConfig::new(0xC0FFEE);
    cfg.copy_fault = FaultPlan::with_prob(0.4);
    cfg.stream_stall = FaultPlan::with_prob(0.4);
    cfg.stream_stall_duration = Duration::from_micros(10);
    cfg.alloc_fault = FaultPlan::at(2);
    cfg.retry.max_retries = 1;
    cfg.retry.backoff = Duration::from_micros(10);
    let engine = ChaosEngine::new(cfg);

    let dev = device(kind);
    dev.attach_chaos(&engine);
    let s = dev.create_stream("conf-chaos");
    let host = PinnedBuffer::from_vec(vec![7u32; 16]);
    let out = PinnedBuffer::<u32>::new(16);
    let dbuf = dev.alloc::<u32>(16)?;
    let _ = dev.alloc::<u32>(16); // occurrence 1
    assert!(dev.alloc::<u32>(16).is_err(), "alloc fault fires at k=2");
    for _ in 0..8 {
        s.memcpy_h2d_async(&host, 0, &dbuf, 0, 16);
        s.memcpy_d2h_async(&dbuf, 0, &out, 0, 16);
        let dk = dbuf.clone();
        s.launch("noop", move || drop(dk.lock()));
    }
    let _ = s.synchronize();
    let _ = dev.take_error(); // a fired copy fault is part of the plan
    Ok(engine.schedule_digest())
}

#[test]
fn chaos_schedules_are_equal_across_backends() -> Result<(), DeviceError> {
    assert_eq!(chaos_run(KINDS[0])?, chaos_run(KINDS[1])?);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary strided `Copy2d` shapes move exactly the same bytes on
    /// every backend.
    #[test]
    fn random_copy2d_shapes_agree_between_backends(
        width in 1usize..17,
        height in 1usize..9,
        extra_src_pitch in 0usize..5,
        extra_dst_pitch in 0usize..5,
        src_offset in 0usize..8,
        dst_offset in 0usize..8,
    ) {
        let src_pitch = width + extra_src_pitch;
        let dst_pitch = width + extra_dst_pitch;
        let src_len = src_offset + src_pitch * (height - 1) + width;
        let dst_len = dst_offset + dst_pitch * (height - 1) + width;

        let mut results = Vec::new();
        for kind in KINDS {
            let dev = device(kind);
            let host = PinnedBuffer::from_vec((0..src_len as u32).map(|v| v ^ 0xA5).collect::<Vec<u32>>());
            let out = PinnedBuffer::<u32>::new(dst_len);
            let dbuf = dev.alloc::<u32>(dst_len).unwrap();
            let s = dev.create_stream("conf-2d");
            s.memcpy2d_h2d_async(&host, &dbuf, Copy2d {
                width, height, src_offset, src_pitch, dst_offset, dst_pitch,
            });
            s.memcpy_d2h_async(&dbuf, 0, &out, 0, dst_len);
            prop_assert!(s.synchronize().is_ok(), "synchronize must succeed");
            results.push(out.snapshot());
        }
        prop_assert_eq!(&results[0], &results[1]);
    }
}
