//! The batched driver's send queue is reused: after the first burst has
//! grown it, a burst of the same size queues and submits without one
//! allocation. The caller's datagrams are built outside the count.
//!
//! The counting allocator (after `bench/src/alloc.rs`) counts per thread,
//! so tests running side by side do not see each other's allocations.

#![cfg(all(target_os = "linux", target_pointer_width = "64"))]

use evs_net::{BatchUdpDriver, SocketDriver, SEND_BATCH};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::{Ipv4Addr, UdpSocket};
use std::time::Duration;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn counted() {
    // `try_with`: a thread being torn down still allocates.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's own layout
// and pointer, unchanged; the counter never influences the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread, and its result.
fn allocs_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

const BURST: usize = 64;

#[test]
fn a_repeated_burst_reuses_the_send_queue() {
    const { assert!(BURST <= SEND_BATCH, "one sendmmsg per burst") };
    let bind = || UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind loopback");
    let mut tx = BatchUdpDriver::new(bind()).expect("batch driver");
    let rx = bind();
    let to = rx.local_addr().expect("rx addr");
    let mut burst = |round: u8| {
        let datagrams: Vec<Vec<u8>> = (0..BURST).map(|k| vec![round, k as u8]).collect();
        allocs_of(|| {
            for datagram in datagrams {
                tx.push(to, datagram);
            }
            tx.submit().expect("submit")
        })
    };
    let (first, sent) = burst(1);
    assert_eq!(sent, BURST);
    assert!(first > 0, "the first burst grows the queue");
    assert_eq!(burst(2), (0, BURST), "the second burst reuses it");
    assert_eq!(tx.pending(), 0);
    // Both bursts arrived, in push order.
    rx.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut buf = [0u8; 8];
    for round in 1..=2u8 {
        for k in 0..BURST {
            let n = rx.recv(&mut buf).expect("recv");
            assert_eq!(&buf[..n], &[round, k as u8]);
        }
    }
}
