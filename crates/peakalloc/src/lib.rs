//! `hlm-peakalloc` — a test binary's allocator that notes the largest
//! single request each thread makes, so a decoder sweep can catch a buffer
//! sized by a header field instead of by the bytes at hand.
//!
//! Each test binary that measures installs it once, with
//! `#[global_allocator] static ALLOC: PeakAlloc = PeakAlloc;`, and reads a
//! call's largest request with [`largest_request`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, noting the largest single request each thread
/// makes.
pub struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: a thread being torn down has no slot left.
    let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` only updates a
// const-initialised thread-local `Cell`, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Runs `f` and returns its result with the largest single allocation or
/// reallocation the calling thread asked for while it ran. Reads 0 unless
/// [`PeakAlloc`] is the binary's global allocator.
pub fn largest_request<R>(f: impl FnOnce() -> R) -> (R, usize) {
    PEAK.with(|p| p.set(0));
    let out = f();
    (out, PEAK.with(Cell::get))
}

#[cfg(test)]
mod tests {
    use super::{largest_request, PeakAlloc};

    #[global_allocator]
    static ALLOC: PeakAlloc = PeakAlloc;

    #[test]
    fn notes_the_largest_request_of_the_call_only() {
        drop(vec![0u8; 1 << 20]);
        let (v, peak) = largest_request(|| {
            let mut v = Vec::with_capacity(1000);
            v.extend_from_slice(&[0u8; 10]);
            v.reserve_exact(4000);
            v
        });
        assert_eq!(peak, 4010);
        drop(v);
        assert_eq!(largest_request(|| ()).1, 0);
    }
}
