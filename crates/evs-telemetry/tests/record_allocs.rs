//! The flight recorder's hot path, pinned: once each retention class's
//! ring is full and each recorded kind's counter is resolved,
//! `Telemetry::record` on an enabled handle allocates nothing — a push
//! evicts the oldest event of its class in place, and the counter bump is
//! one atomic add on a cached handle.
//!
//! The counting allocator (after `crates/evs-core/tests/hot_path_allocs.rs`)
//! counts per thread, so tests running side by side do not see each
//! other's allocations.

use evs_telemetry::{EventClass, Telemetry, TelemetryEvent, DEFAULT_FLIGHT_CAPACITY};
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

/// Allocations `f` makes on this thread.
fn allocs_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// The `i`-th event of a protocol-level stream: token traffic, an
/// origination and a recovery step — one kind of each retention class.
fn events(i: u64) -> [TelemetryEvent; 3] {
    [
        TelemetryEvent::TokenRotated {
            epoch: 1,
            rotations: i,
        },
        TelemetryEvent::MessageOriginated {
            sender: 0,
            counter: i,
            service: "agreed",
        },
        TelemetryEvent::RecoveryStepReached { step: 3, epoch: i },
    ]
}

#[test]
fn a_warm_record_allocates_nothing() {
    let classes: Vec<EventClass> = events(0).iter().map(TelemetryEvent::class).collect();
    assert_eq!(
        classes,
        [
            EventClass::HighRate,
            EventClass::MessageSpan,
            EventClass::ConfigSpan
        ]
    );
    let t = Telemetry::enabled(0);
    // Warm-up: every class ring fills to capacity (the two span rings grow
    // by doubling on the way) and every kind's counter is resolved.
    let warm = DEFAULT_FLIGHT_CAPACITY as u64;
    let warming = allocs_of(|| {
        for i in 0..warm {
            events(i).into_iter().for_each(|e| t.record(i, e));
        }
    });
    assert!(warming > 0, "the allocator counts: warm-up grows the rings");
    let allocs = allocs_of(|| {
        for i in warm..warm + 10_000 {
            events(i).into_iter().for_each(|e| t.record(i, e));
        }
    });
    assert_eq!(allocs, 0, "a warm record allocated");
    // The rings stayed at capacity and the counters saw every event.
    assert_eq!(t.flight_dump().len(), 3 * DEFAULT_FLIGHT_CAPACITY);
    assert_eq!(t.counter("token_rotations").get(), warm + 10_000);
}
