//! Allocation counts on the per-message path, pinned: decoding a data
//! frame costs one buffer for all its payloads (plus the message list of a
//! batch), that buffer retains no header of a lone message, and the
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
    /// Bytes requested by this thread's latest allocation.
    static LAST_SIZE: Cell<usize> = const { Cell::new(0) };
}

fn counted(size: usize) {
    // `try_with`: a thread being torn down still allocates.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LAST_SIZE.try_with(|s| s.set(size));
}

// SAFETY: every method forwards to `System` with the caller's own layout
// and pointer, unchanged; the counter never influences the returned memory.
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

/// Allocations `f` makes on this thread, and its result.
fn allocs_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

fn msg(seq: u64, len: usize) -> OrderedMsg<Payload> {
    OrderedMsg {
        config: ConfigId::regular(3, ProcessId::new(0)),
        seq,
        id: MessageId::new(ProcessId::new(1), seq),
        service: Service::Agreed,
        payload: Payload::from(vec![seq as u8; len]),
    }
}

/// Decodes `frame`: its allocation count, the size of its last allocation
/// — the payload buffer, on a data frame — and the decoded frame.
fn decode_counted(frame: &EvsMsg<Payload>) -> (u64, usize, EvsMsg<Payload>) {
    let bytes = wire::encode(frame);
    let (allocs, decoded) = allocs_of(|| wire::decode(&bytes));
    let last = LAST_SIZE.with(Cell::get);
    (allocs, last, decoded.expect("a valid frame decodes"))
}

/// What a buffer costs beyond its bytes: the shared count header the
/// buffer of an empty payload is made of.
fn buffer_overhead() -> usize {
    let (allocs, size, _) = decode_counted(&EvsMsg::Ring(RingMsg::Data(msg(1, 0))));
    assert_eq!(allocs, 1);
    size
}

#[test]
fn decoding_a_batch_allocates_the_list_and_one_buffer() {
    let batch = (1..=16).map(|seq| msg(seq, 64)).collect();
    let (allocs, _, decoded) = decode_counted(&EvsMsg::Ring(RingMsg::Batch(batch)));
    let EvsMsg::Ring(RingMsg::Batch(msgs)) = decoded else {
        panic!("the batch decodes back to a batch");
    };
    assert_eq!(msgs.len(), 16);
    assert!(msgs.iter().all(|m| m.payload.len() == 64));
    assert_eq!(allocs, 2, "the message list and one payload buffer");
}

#[test]
fn a_lone_message_keeps_exactly_its_payload() {
    let overhead = buffer_overhead();
    // 64 B: a multiple of the allocator's alignment, so the buffer's size
    // is its bytes plus the header, with no padding in between.
    let data = EvsMsg::Ring(RingMsg::Data(msg(2, 64)));
    let rebroadcast = EvsMsg::Rebroadcast {
        proposal: ConfigId::regular(4, ProcessId::new(2)),
        msg: msg(3, 64),
    };
    for frame in [data, rebroadcast] {
        let (allocs, size, _) = decode_counted(&frame);
        assert_eq!(allocs, 1, "{frame:?}");
        assert_eq!(size - overhead, 64, "{frame:?} retains a header");
    }
}

#[test]
fn a_batch_buffer_is_at_most_its_frame() {
    let overhead = buffer_overhead();
    for lens in [&[64usize; 16][..], &[0, 0, 7], &[1_000, 3], &[0]] {
        let batch: Vec<_> = (1..).zip(lens).map(|(seq, &len)| msg(seq, len)).collect();
        let frame = EvsMsg::Ring(RingMsg::Batch(batch));
        let (allocs, size, _) = decode_counted(&frame);
        assert_eq!(allocs, 2, "{lens:?}");
        let frame_len = wire::encode(&frame).len();
        assert!(
            size - overhead <= frame_len,
            "{lens:?}: a {} B buffer for a {frame_len} B frame",
            size - overhead
        );
    }
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
