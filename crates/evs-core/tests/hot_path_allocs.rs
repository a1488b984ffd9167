//! Allocation counts on the per-message path, pinned: decoding a data
//! batch costs one allocation per payload plus one for the batch, and the
//! in-memory log grows by doublings, not by one allocation per record.
//!
//! The counting allocator (after `bench/src/alloc.rs`) counts per thread,
//! so tests running side by side do not see each other's allocations.

use evs_core::{wire, EvsMsg, Payload};
use evs_membership::ConfigId;
use evs_order::{MessageId, OrderedMsg, RingMsg, Service};
use evs_sim::ProcessId;
use evs_store::{NullStorage, Storage};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

#[test]
fn decoding_a_batch_allocates_once_per_payload_plus_the_batch() {
    let config = ConfigId::regular(3, ProcessId::new(0));
    let batch = (1..=16)
        .map(|seq| OrderedMsg {
            config,
            seq,
            id: MessageId::new(ProcessId::new(1), seq),
            service: Service::Agreed,
            payload: Payload::from(vec![seq as u8; 64]),
        })
        .collect();
    let frame = wire::encode(&EvsMsg::Ring(RingMsg::Batch(batch)));
    let (allocs, decoded) = allocs_of(|| wire::decode(&frame));
    let Ok(EvsMsg::Ring(RingMsg::Batch(msgs))) = decoded else {
        panic!("the batch decodes back to a batch");
    };
    assert_eq!(msgs.len(), 16);
    assert!(msgs.iter().all(|m| m.payload.len() == 64));
    assert_eq!(allocs, 17, "one Vec for the batch, one buffer per payload");
}

const APPENDS: usize = 10_000;

/// Allocations made by `APPENDS` appends of one 33 B record.
fn append_allocs(log: &mut NullStorage) -> u64 {
    let record = [0xA5u8; 33];
    allocs_of(|| {
        for _ in 0..APPENDS {
            log.append(&record).unwrap();
        }
    })
    .0
}

#[test]
fn the_in_memory_log_grows_by_doubling() {
    let allocs = append_allocs(&mut NullStorage::new());
    let bound = 2.0 * (APPENDS as f64).log2();
    assert!(
        allocs as f64 <= bound,
        "{allocs} allocations for {APPENDS} appends (bound {bound:.1})"
    );
}

#[test]
fn a_snapshot_keeps_the_in_memory_log_buffers() {
    let mut log = NullStorage::new();
    append_allocs(&mut log);
    log.snapshot(b"state").unwrap();
    assert_eq!(append_allocs(&mut log), 0, "the refill reuses the capacity");
    assert_eq!(log.replay().unwrap().records.len(), APPENDS);
}
