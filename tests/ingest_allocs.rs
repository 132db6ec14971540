//! Allocation gate for the ingest front door: a full front-end run may
//! make at most one heap allocation per two frames.
//!
//! This test binary installs its own counting global allocator. The
//! count is kept per thread, so allocations the test harness makes on
//! other threads stay out of it, and the file holds one test because
//! the allocator serves the whole binary.

use ofpc_bench::ingest::mini_config;
use ofpc_ingest::IngestFrontEnd;
use ofpc_par::WorkerPool;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation calls (alloc, alloc_zeroed, realloc) on this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread that is tearing down may still allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System` upholds the `GlobalAlloc` contract; the
// bookkeeping touches only a `const` thread-local without a destructor,
// which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller guarantees `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller guarantees `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller guarantees `ptr` came
        // from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller guarantees `ptr`,
        // `layout` and `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn ingest_run_allocates_at_most_once_per_two_frames() {
    let front_end = IngestFrontEnd::new(mini_config());
    // A sequential pool runs every shard on this thread, where the
    // count is kept.
    let pool = WorkerPool::sequential();
    let before = ALLOCS.with(Cell::get);
    let report = front_end.run(&pool);
    let allocs = ALLOCS.with(Cell::get) - before;
    let frames = report.parsed + report.frames.rejected_total;
    assert!(frames > 0, "the run synthesized no frames");
    let per_frame = allocs as f64 / frames as f64;
    assert!(
        per_frame <= 0.5,
        "{allocs} allocations over {frames} frames: {per_frame:.2} per frame"
    );
}
