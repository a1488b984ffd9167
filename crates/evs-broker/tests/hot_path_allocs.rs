//! Allocation counts on the broker tier's per-op path, pinned: a delivered
//! batch decodes into views with one allocation (the entry list), an
//! in-order ledger application allocates nothing, and routing a batch's
//! replies allocates the entry list and the reply list, nothing per op.
//!
//! The counting allocator (after `bench/src/alloc.rs`) counts per thread,
//! so tests running side by side do not see each other's allocations.

use evs_broker::proto::{self, BatchEntry};
use evs_broker::{Broker, BrokerParams, OpLedger};
use evs_core::Payload;
use evs_sim::ProcessId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn counted(bytes: usize) {
    // `try_with`: a thread being torn down still allocates.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's own layout
// and pointer, unchanged; the counters never influence the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and bytes allocated that `f` makes on this thread, and its
/// result.
fn allocs_of<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    let after = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    (after.0 - before.0, after.1 - before.1, out)
}

/// A batch as the broker benchmark cuts them: 710 ops of 64 B each, close
/// to the 60,000-byte default budget.
const OPS: u64 = 710;
const OP_BYTES: usize = 64;

fn batch_entries() -> Vec<BatchEntry> {
    (0..OPS)
        .map(|client| BatchEntry {
            client,
            seq: 1,
            op: Payload::from(vec![client as u8; OP_BYTES]),
        })
        .collect()
}

#[test]
fn decoding_a_batch_allocates_only_the_entry_list() {
    let frame = proto::encode_batch(4, &batch_entries());
    let (allocs, _, decoded) = allocs_of(|| proto::decode_batch(&frame));
    let (broker, entries) = decoded.expect("decodes");
    assert_eq!((broker, entries.len()), (4, OPS as usize));
    assert!(entries.iter().all(|e| e.op.len() == OP_BYTES));
    assert_eq!(allocs, 1, "the entry list, no copy of any op");
}

#[test]
fn a_hostile_entry_count_presizes_by_the_frame_not_the_count() {
    let mut frame = proto::BATCH_MAGIC.to_vec();
    frame.extend_from_slice(&0u32.to_be_bytes());
    frame.extend_from_slice(&u32::MAX.to_be_bytes());
    frame.extend_from_slice(&[0; 12]);
    let (allocs, bytes, decoded) = allocs_of(|| proto::decode_batch(&frame));
    assert_eq!(decoded, None);
    assert!(
        allocs <= 1 && bytes <= 256,
        "{allocs} allocations, {bytes} B"
    );
}

#[test]
fn in_order_ledger_application_allocates_nothing() {
    const CLIENTS: u64 = 1024;
    let mut ledger = OpLedger::new();
    // A client's first op costs its slot in the client table and nothing
    // else: the table grows by doublings, no reordering set is built.
    let (allocs, _, ()) = allocs_of(|| {
        for client in 0..CLIENTS {
            assert!(ledger.apply(client, 1));
        }
    });
    let doublings = (CLIENTS as f64).log2();
    assert!(
        allocs as f64 <= doublings,
        "{allocs} allocations to warm up"
    );
    let (allocs, _, ()) = allocs_of(|| {
        for seq in 2..=4 {
            for client in 0..CLIENTS {
                assert!(ledger.apply(client, seq));
            }
        }
    });
    assert_eq!(allocs, 0);
    assert!(ledger.contains(CLIENTS - 1, 4) && !ledger.contains(0, 5));
}

#[test]
fn routing_a_batch_of_replies_allocates_twice() {
    let mut broker = Broker::new(0, ProcessId::new(0), BrokerParams::default());
    for client in 0..OPS {
        broker.submit(0, client, Payload::from(vec![client as u8; OP_BYTES]));
    }
    let batches = broker.force_flush(0);
    assert_eq!(batches.len(), 1, "one batch");
    let (allocs, _, replies) = allocs_of(|| broker.on_delivered(1, &batches[0]));
    assert_eq!(replies.len(), OPS as usize);
    assert_eq!(broker.inflight(), 0);
    assert!(
        allocs <= 2,
        "{allocs} allocations: entry list and reply list only"
    );
}
