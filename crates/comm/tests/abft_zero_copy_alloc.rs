//! The ABFT retransmission store must not copy payloads on the healthy
//! path: the in-flight packet and the sender's retained payload share one
//! buffer, and the verified receiver takes ownership of it. So an armed
//! all-to-all may allocate only what the unarmed one does, plus the
//! checksum sidecars and a few words of bookkeeping per message (the `Arc`
//! header and the boxes around it), far below one payload copy. Enforced
//! with a counting global allocator over warm exchanges.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use psdns_comm::Universe;
use psdns_fft::Complex64;

struct CountingAlloc {
    bytes: AtomicU64,
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.bytes
            .fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.bytes.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc {
    bytes: AtomicU64::new(0),
};

const RANKS: usize = 2;
/// Elements per destination: 8 checksum blocks of 1024.
const CHUNK: usize = 8 * 1024;
const EXCHANGES: usize = 8;
/// Allowance per message for the shared buffer's `Arc` header and the
/// boxes around it (`Box<dyn Any>` in the packet and in the store).
const BOOKKEEPING_PER_MSG: u64 = 64;

/// Bytes allocated by every rank together over `EXCHANGES` warm 2-rank
/// all-to-alls of `RANKS · CHUNK` complex values per rank.
fn exchange_bytes(armed: bool) -> u64 {
    let sync = Barrier::new(RANKS);
    let out = Universe::run(RANKS, |mut comm| {
        comm.set_abft_checksums(armed);
        let send: Vec<Complex64> = (0..RANKS * CHUNK)
            .map(|i| Complex64::new(i as f64, comm.rank() as f64))
            .collect();
        // Warm-up: grows the retransmission store's table once.
        for _ in 0..2 {
            assert_eq!(comm.alltoall(&send).len(), send.len());
        }
        sync.wait();
        let before = GLOBAL.bytes.load(Ordering::Relaxed);
        sync.wait();
        for _ in 0..EXCHANGES {
            let got = comm.alltoall(&send);
            assert_eq!(got[comm.rank() * CHUNK], send[comm.rank() * CHUNK]);
        }
        sync.wait();
        GLOBAL.bytes.load(Ordering::Relaxed) - before
    });
    out[0]
}

#[test]
fn armed_alltoall_allocates_no_payload_copy() {
    let unarmed = exchange_bytes(false);
    let armed = exchange_bytes(true);
    let messages = (EXCHANGES * RANKS * RANKS) as u64;
    let sidecars = messages * CHUNK.div_ceil(1024) as u64 * 8;
    let payload_copy = (CHUNK * std::mem::size_of::<Complex64>()) as u64;
    let bound = unarmed + sidecars + messages * BOOKKEEPING_PER_MSG;
    assert!(
        armed <= bound,
        "armed all-to-all allocated {armed} B, unarmed {unarmed} B + sidecars {sidecars} B \
         + bookkeeping (one payload copy is {payload_copy} B)"
    );
}
