//! A counting global allocator for allocation-accounting tests, the
//! `bench-solve` allocs-per-iteration metric and the objective's memory
//! guard.
//!
//! Wraps the system allocator and keeps three thread-local tallies: the
//! allocation events (`alloc` / `alloc_zeroed` / `realloc`), the bytes
//! live and their high-water mark. Install it with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: paradigm_solver::CountingAllocator = paradigm_solver::CountingAllocator;
//! ```
//!
//! and read deltas of [`allocation_count`] or [`live_bytes`] around the
//! region of interest, or [`reset_peak_bytes`] before it and
//! [`peak_bytes`] after. Counts are per thread: a delta is the measuring
//! thread's own allocations, whatever libtest's main thread or a sibling
//! test does meanwhile (a process-global counter made `alloc_free` fail
//! one run in twelve). A block freed on another thread than the one that
//! allocated it moves both threads' byte tallies, so a thread's
//! [`live_bytes`] can fall below zero; a measurement that keeps its
//! allocations on one thread reads exact figures.
//!
//! A `realloc` counts as one event that swaps the old size for the new
//! one: the moment a copying `realloc` holds both blocks is not seen.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initialisers, no destructors: no lazy initialisation that
    // could allocate from inside the allocator, nothing to run at thread
    // exit.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Count one allocation event that takes `grown` bytes more (or fewer,
/// when negative) on the calling thread. `try_with`: a thread past the
/// teardown of its locals still allocates.
fn count(grown: i64) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    add_bytes(grown);
}

/// Move the calling thread's live bytes by `delta`, raising the
/// high-water mark when they pass it.
fn add_bytes(delta: i64) {
    let Ok(live) = LIVE.try_with(|b| {
        b.set(b.get() + delta);
        b.get()
    }) else {
        return;
    };
    let _ = PEAK.try_with(|p| p.set(p.get().max(live)));
}

/// System allocator wrapper that counts allocation events and bytes
/// (frees are not events: the metric of interest is "how often does the
/// hot loop ask the allocator for memory", and every free pairs with a
/// counted alloc; they do give their bytes back).
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAllocator;

// SAFETY: defers entirely to `System`; the tallies have no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_bytes(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Number of allocation events the calling thread has made (0 unless
/// [`CountingAllocator`] is installed as the global allocator).
pub fn allocation_count() -> u64 {
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

/// Bytes the calling thread has allocated and not freed (0 unless
/// [`CountingAllocator`] is installed).
pub fn live_bytes() -> i64 {
    LIVE.try_with(Cell::get).unwrap_or(0)
}

/// The highest [`live_bytes`] of the calling thread since its last
/// [`reset_peak_bytes`] (or since it started).
pub fn peak_bytes() -> i64 {
    PEAK.try_with(Cell::get).unwrap_or(0)
}

/// Lower the calling thread's high-water mark to its current
/// [`live_bytes`], so that [`peak_bytes`] measures from here.
pub fn reset_peak_bytes() {
    let live = live_bytes();
    let _ = PEAK.try_with(|p| p.set(live));
}
