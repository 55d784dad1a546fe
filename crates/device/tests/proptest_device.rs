//! Property tests for the simulated accelerator: arbitrary strided copy
//! shapes and chunk patterns must move data exactly, and stream/event
//! ordering must hold under random op interleavings.

use proptest::prelude::*;
use psdns_device::{Copy2d, Device, DeviceConfig, Event, PinnedBuffer};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// memcpy2d == the equivalent loop of small copies, for arbitrary
    /// width/height/pitch/offset combinations.
    #[test]
    fn memcpy2d_matches_loop(
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

        let dev = Device::new(DeviceConfig::tiny(1 << 22));
        let host = PinnedBuffer::from_vec((0..src_len as u32).collect());
        let via_2d = dev.alloc::<u32>(dst_len).unwrap();
        let via_loop = dev.alloc::<u32>(dst_len).unwrap();
        let s = dev.create_stream("t");

        s.memcpy2d_h2d_async(&host, &via_2d, Copy2d {
            width, height, src_offset, src_pitch, dst_offset, dst_pitch,
        });
        for r in 0..height {
            s.memcpy_h2d_async(&host, src_offset + r * src_pitch, &via_loop, dst_offset + r * dst_pitch, width);
        }
        prop_assert!(s.synchronize().is_ok(), "synchronize must succeed");
        prop_assert_eq!(via_2d.snapshot(), via_loop.snapshot());
    }

    /// zero-copy gather + scatter through arbitrary non-overlapping chunk
    /// patterns is the identity on the gathered data.
    #[test]
    fn zero_copy_gather_scatter_roundtrip(
        nchunks in 1usize..12,
        chunk_len in 1usize..9,
        gap in 0usize..5,
        seed in 0u64..1000,
    ) {
        let stride = chunk_len + gap;
        let host_len = nchunks * stride + 4;
        let dev_len = nchunks * chunk_len;

        let dev = Device::new(DeviceConfig::tiny(1 << 22));
        let host_in = PinnedBuffer::from_vec(
            (0..host_len).map(|i| (i as u64).wrapping_mul(seed + 1)).collect::<Vec<u64>>(),
        );
        let host_out = PinnedBuffer::new(host_len);
        let dbuf = dev.alloc::<u64>(dev_len).unwrap();
        let s = dev.create_stream("zc");

        let gather: Vec<(usize, usize, usize)> =
            (0..nchunks).map(|c| (c * stride, c * chunk_len, chunk_len)).collect();
        let scatter: Vec<(usize, usize, usize)> =
            (0..nchunks).map(|c| (c * chunk_len, c * stride, chunk_len)).collect();
        s.zero_copy_h2d_async(&host_in, &dbuf, gather);
        s.zero_copy_d2h_async(&dbuf, &host_out, scatter);
        prop_assert!(s.synchronize().is_ok(), "synchronize must succeed");

        let a = host_in.snapshot();
        let b = host_out.snapshot();
        for c in 0..nchunks {
            for i in 0..chunk_len {
                prop_assert_eq!(a[c * stride + i], b[c * stride + i]);
            }
        }
    }

    /// Random interleavings of kernels on two streams with an event chain
    /// preserve the producer→consumer order.
    #[test]
    fn event_chain_orders_random_workloads(delays in prop::collection::vec(0u64..3, 1..6)) {
        let dev = Device::new(DeviceConfig::tiny(1 << 20));
        let a = dev.create_stream("a");
        let b = dev.create_stream("b");
        let log = std::sync::Arc::new(psdns_sync::Mutex::new(Vec::new()));
        for (i, &d) in delays.iter().enumerate() {
            let evt = Event::new();
            let l1 = std::sync::Arc::clone(&log);
            a.launch("produce", move || {
                if d > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(d));
                }
                l1.lock().push((i, 'p'));
            });
            a.record(&evt);
            b.wait_event(&evt);
            let l2 = std::sync::Arc::clone(&log);
            b.launch("consume", move || l2.lock().push((i, 'c')));
        }
        prop_assert!(a.synchronize().is_ok(), "synchronize must succeed");
        prop_assert!(b.synchronize().is_ok(), "synchronize must succeed");
        let log = log.lock();
        for i in 0..delays.len() {
            let p = log.iter().position(|&e| e == (i, 'p')).unwrap();
            let c = log.iter().position(|&e| e == (i, 'c')).unwrap();
            prop_assert!(p < c, "consumer {i} ran before its producer");
        }
    }

    /// Allocation accounting is exact under arbitrary alloc/free sequences.
    #[test]
    fn alloc_accounting_balances(sizes in prop::collection::vec(1usize..4096, 1..16)) {
        let capacity: usize = sizes.iter().sum::<usize>() * 8 + 64;
        let dev = Device::new(DeviceConfig::tiny(capacity));
        let mut live = Vec::new();
        let mut expect = 0usize;
        for (i, &sz) in sizes.iter().enumerate() {
            let buf = dev.alloc::<u64>(sz).unwrap();
            expect += sz * 8;
            live.push(buf);
            prop_assert_eq!(dev.allocated_bytes(), expect);
            if i % 3 == 2 {
                let b = live.remove(0);
                expect -= b.size_bytes();
                drop(b);
                prop_assert_eq!(dev.allocated_bytes(), expect);
            }
        }
        drop(live);
        prop_assert_eq!(dev.allocated_bytes(), 0);
    }
}
