//! A counting global allocator: the bytes the program has asked for and not yet
//! given back, and their high-water mark since the last [`reset_peak`].
//!
//! `peak_heap_mb` is measured here and not as `VmHWM` because resident memory follows
//! the allocator more than the program: every fresh rank thread takes a new malloc
//! arena that keeps what the thread frees, so the process's high-water mark creeps up
//! 15–40% over a run's repetitions and lands ±20% apart between two runs of one
//! binary on one seed. The bytes requested repeat to within what thread interleaving
//! moves their overlap.
//!
//! Every call forwards to [`System`] unchanged (`alloc_zeroed` and `realloc` too, so
//! lazily zeroed pages and in-place growth stay what they were); the cost is two
//! relaxed atomic operations per call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

pub struct CountingAllocator;

// Relaxed throughout: the counters are statistics and publish no other data.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    // The load keeps the common case (no new peak) off the peak's cache line.
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method hands its arguments to `System` untouched and returns what
// `System` returned, so `System`'s guarantees are this allocator's; the counters
// never influence a pointer or a size.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from this allocator, which is `System`, with `layout`,
        // and the caller guarantees `new_size` is valid for `layout`'s alignment.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new_ptr
    }
}

/// Forget the high-water mark: the peak restarts from the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The most bytes live at once since the last [`reset_peak`], in MB.
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_follows_the_largest_live_allocation() {
        reset_peak();
        let before = peak_mb();
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        // Other tests allocate concurrently, but nothing near 64 MB.
        let after = peak_mb();
        assert!(after - before >= 63.0, "{before} -> {after}");
        reset_peak();
        assert!(peak_mb() < after - 60.0);
    }
}
