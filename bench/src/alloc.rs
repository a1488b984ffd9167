//! A counting `#[global_allocator]`: allocation calls, live bytes and peak
//! live bytes. Memory metrics come from here, not from RSS, because at a
//! fixed op count they repeat exactly while RSS follows the kernel's
//! page-reclaim mood.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The process allocator: `System` plus three statistics.
pub struct Counting;

// Statistics only — they publish no other data, so `Relaxed` suffices.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    // Load/store, not `fetch_max`: one thread allocates while measuring,
    // and a CAS loop on every allocation would be the dearest part.
    if live > PEAK.load(Relaxed) {
        PEAK.store(live, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's own layout
// and pointer, unchanged; the counters never influence the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Allocation calls so far (`alloc`, `alloc_zeroed`, `realloc`).
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Bytes currently allocated.
pub fn live() -> u64 {
    LIVE.load(Relaxed)
}

/// Highest [`live`] since the last [`reset_peak`].
pub fn peak() -> u64 {
    PEAK.load(Relaxed)
}

/// Restarts peak tracking from the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Keeps freed pages in the process: no heap trimming, and no `mmap` per
/// large block below glibc's 32 MiB ceiling. Epochs after the warm-up then
/// reuse pages that are already faulted in, instead of paying the kernel for
/// them again at a moment the measurement cannot choose.
pub fn keep_freed_pages() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: `mallopt` only stores two tunables inside glibc's malloc
        // state; it is called once, before any other thread exists.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
        }
    }
}
