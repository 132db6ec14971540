//! Allocation gate for the sharded controller: a full E20 mini run may
//! make at most 30 heap allocations per controller decision.
//!
//! This test binary installs its own counting global allocator. The
//! count is kept per thread, so allocations the test harness makes on
//! other threads stay out of it, and the file holds one test because
//! the allocator serves the whole binary.

use ofpc_bench::shard::{run_e20, E20Spec};
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
fn e20_mini_allocates_at_most_thirty_times_per_decision() {
    // A sequential pool runs every shard on this thread, where the
    // count is kept. The count covers the whole run: the harness's
    // event stream and differential checkpoints as well as the
    // controller's decisions.
    let pool = WorkerPool::sequential();
    let before = ALLOCS.with(Cell::get);
    let (_, decision_ns) = run_e20(&E20Spec::mini(), &pool);
    let allocs = ALLOCS.with(Cell::get) - before;
    let decisions = decision_ns.len();
    assert!(decisions > 0, "the run made no decisions");
    let per_decision = allocs as f64 / decisions as f64;
    assert!(
        per_decision <= 30.0,
        "{allocs} allocations over {decisions} decisions: {per_decision:.2} per decision"
    );
}
