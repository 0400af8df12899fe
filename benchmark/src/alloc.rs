//! Counting global allocator.
//!
//! Wraps the system allocator and counts calls and bytes only while
//! [`COUNTING`] is set. The traced pass sets it around its timed
//! region; the timed trials never do, so they pay one relaxed load per
//! allocation and nothing else. Feeds `heap.allocs_per_kpkt` and
//! `heap.bytes_per_pkt`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn note(size: usize) {
        // Relaxed: the counters are statistics and publish no other data.
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls and bytes requested while counting was on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeapCount {
    pub allocs: u64,
    pub bytes: u64,
}

/// Run `f` with counting on and return what it allocated, on every
/// thread. Not re-entrant: one counted region at a time.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, HeapCount) {
    let before = HeapCount {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    };
    COUNTING.store(true, Ordering::Relaxed);
    let r = f();
    COUNTING.store(false, Ordering::Relaxed);
    let count = HeapCount {
        allocs: ALLOCS.load(Ordering::Relaxed) - before.allocs,
        bytes: BYTES.load(Ordering::Relaxed) - before.bytes,
    };
    (r, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_inside_a_counted_region() {
        // Other tests allocate concurrently, so the count is a lower
        // bound here; the single-threaded child process gets it exact.
        let (v, inside) = counted(|| std::hint::black_box(vec![0u8; 4096]));
        assert!(inside.allocs >= 1);
        assert!(inside.bytes >= 4096);
        drop(v);
    }
}
