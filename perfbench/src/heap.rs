//! Peak live heap of the process: a byte-counting wrapper around the
//! system allocator, installed as the benchmark's global allocator.
//!
//! The peak of live heap bytes is what the program asked for. The
//! kernel's resident high-water mark (`VmHWM`) adds whatever freed
//! memory the allocator's per-thread arenas happen to retain, which on
//! the multi-threaded service workload differs by about a tenth between
//! identical runs; it is printed for reference but not gated on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// [`System`] plus two statistics counters. Relaxed atomics suffice:
/// the counters publish no other data.
#[derive(Debug)]
pub struct PeakHeap {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl PeakHeap {
    pub const fn new() -> PeakHeap {
        PeakHeap {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    fn grow(&self, bytes: usize) {
        let now = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn shrink(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// The highest live heap so far, in MB.
    pub fn peak_mb(&self) -> f64 {
        self.peak.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which implements `GlobalAlloc` soundly; the counters only observe
// the sizes of blocks that were actually allocated or freed.
unsafe impl GlobalAlloc for PeakHeap {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract,
        // which is the one `System::alloc` requires.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            self.grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (that is,
        // `System`) returned for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        self.shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller passes a block `System` returned for
        // `layout` and a valid `new_size`, as `System::realloc` needs.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                self.grow(new_size - layout.size());
            } else {
                self.shrink(layout.size() - new_size);
            }
        }
        p
    }
}
