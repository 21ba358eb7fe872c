//! A counting global allocator: the process's live heap bytes and their
//! peak since the last [`mark`]. A round marks just before it sets the
//! system up, so the peak above the mark is what the system under test
//! holds (its prepared model, queues, threads' buffers and the requests
//! in flight), not the harness's dataset, pool and oracle.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting live bytes.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    // ORDERING: Relaxed — the counters order nothing; a reader only
    // needs each one's own total, and `mark`/`peak_above` run on a
    // thread that has joined or synchronised with the allocating ones.
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    // The load keeps the shared line read-only until a new peak, so
    // threads allocating at once do not contend on it.
    if live > PEAK.load(Ordering::Relaxed) {
        // ORDERING: Relaxed, as above.
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrink(bytes: usize) {
    // ORDERING: Relaxed, as in `grow`.
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are passed through; the counting
// touches only the two atomics.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: forwards to `System.alloc` under the caller's contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    // SAFETY: forwards to `System.alloc_zeroed` under the caller's
    // contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    // SAFETY: forwards to `System.dealloc` under the caller's contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (that is,
        // `System`) returned, with its layout.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    // SAFETY: forwards to `System.realloc` under the caller's contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`, plus the caller's `new_size` contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size > layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }
}

/// Restarts the peak at the live bytes now, and returns them.
pub fn mark() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    // ORDERING: Relaxed, as in `grow`.
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// The peak of live bytes since the [`mark`] that returned `base`,
/// above `base`.
pub fn peak_above(base: usize) -> usize {
    PEAK.load(Ordering::Relaxed).saturating_sub(base)
}
