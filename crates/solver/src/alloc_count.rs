//! A counting global allocator for allocation-accounting tests and the
//! `bench-solve` allocs-per-iteration metric.
//!
//! Wraps the system allocator and bumps a thread-local counter on every
//! `alloc` / `alloc_zeroed` / `realloc`. Install it with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: paradigm_solver::CountingAllocator = paradigm_solver::CountingAllocator;
//! ```
//!
//! and read deltas of [`allocation_count`] around the region of
//! interest. Counts are per thread: a delta is the measuring thread's own
//! allocations, whatever libtest's main thread or a sibling test does
//! meanwhile (a process-global counter made `alloc_free` fail one run in
//! twelve).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initialiser, no destructor: no lazy initialisation that
    // could allocate from inside the allocator, nothing to run at thread
    // exit.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation event on the calling thread. `try_with`: a
/// thread past the teardown of its locals still allocates.
fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// System allocator wrapper that counts allocation events (frees are not
/// counted: the metric of interest is "how often does the hot loop ask
/// the allocator for memory", and every free pairs with a counted
/// alloc).
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAllocator;

// SAFETY: defers entirely to `System`; the counter bump has no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Number of allocation events the calling thread has made (0 unless
/// [`CountingAllocator`] is installed as the global allocator).
pub fn allocation_count() -> u64 {
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}
