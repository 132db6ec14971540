//! A counting global allocator: allocation calls and live/peak heap
//! bytes, so a run reports memory and allocations per span without an
//! external profiler. The counters are statistics that publish no other
//! data, hence `Relaxed`. Only `LIVE` needs an atomic read-modify-write
//! to stay exact across threads; `ALLOCS` and `PEAK` are plain
//! load/store pairs, which keeps the cost per allocation to one locked
//! instruction. They are exact while one thread allocates, which is how
//! the timed iterations run; concurrent allocation may drop updates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    if live > PEAK.load(Relaxed) {
        PEAK.store(live, Relaxed);
    }
}

fn counted() {
    ALLOCS.store(ALLOCS.load(Relaxed) + 1, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System` upholds the `GlobalAlloc` contract; the
// bookkeeping only touches atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller guarantees `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            counted();
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller guarantees `layout`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            counted();
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller guarantees `ptr` came
        // from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller guarantees `ptr`,
        // `layout` and `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            counted();
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

/// Allocation calls (alloc, alloc_zeroed, realloc) so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Start a new peak window at the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Highest live heap size since the last [`reset_peak`], bytes.
pub fn peak() -> usize {
    PEAK.load(Relaxed)
}
