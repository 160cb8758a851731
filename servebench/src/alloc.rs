//! A counting global allocator for exact allocation figures.
//!
//! Counting is per thread and off unless [`measure`] switches it on for
//! the calling thread, so timed phases pay one thread-local read per
//! allocation, and other threads never leak into a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct Counting;

/// What a measured closure allocated.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Allocs {
    /// Allocation calls (`alloc`, `alloc_zeroed` and `realloc`).
    pub calls: u64,
    pub allocated: u64,
    pub freed: u64,
}

thread_local! {
    // Const-initialised cells with no destructor: reading them never
    // allocates, so the allocator may use them.
    static ON: Cell<bool> = const { Cell::new(false) };
    static COUNTED: Cell<Allocs> = const { Cell::new(Allocs { calls: 0, allocated: 0, freed: 0 }) };
}

fn note(calls: u64, allocated: usize, freed: usize) {
    // `try_with` rather than `with`: the allocator must never panic, even
    // while a thread's locals are being torn down.
    if ON.try_with(Cell::get).unwrap_or(false) {
        let _ = COUNTED.try_with(|c| {
            let mut a = c.get();
            a.calls += calls;
            a.allocated += allocated as u64;
            a.freed += freed as u64;
            c.set(a);
        });
    }
}

// SAFETY: every method passes its arguments unchanged to `System`, so
// `System`'s guarantees are the caller's; the bookkeeping touches only
// thread-local cells and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size(), 0);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size(), 0);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, 0, layout.size());
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size, layout.size());
        // SAFETY: `ptr` came from `System` and the caller upholds
        // `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

impl Allocs {
    /// Bytes still held when the closure returned.
    pub fn live(&self) -> u64 {
        self.allocated.saturating_sub(self.freed)
    }
}

impl std::ops::AddAssign for Allocs {
    fn add_assign(&mut self, other: Allocs) {
        self.calls += other.calls;
        self.allocated += other.allocated;
        self.freed += other.freed;
    }
}

/// Runs `f` with counting on for this thread and returns its result and
/// what this thread allocated and freed meanwhile.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Allocs) {
    let before = COUNTED.with(Cell::get);
    ON.with(|on| on.set(true));
    let out = f();
    ON.with(|on| on.set(false));
    let after = COUNTED.with(Cell::get);
    let allocs = Allocs {
        calls: after.calls - before.calls,
        allocated: after.allocated - before.allocated,
        freed: after.freed - before.freed,
    };
    (out, allocs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_counts_only_inside_the_closure() {
        let (v, a) = measure(|| vec![0u8; 4096]);
        assert_eq!((a.calls, a.allocated, a.live()), (1, 4096, 4096));
        let (_, b) = measure(|| drop(v));
        assert_eq!((b.calls, b.freed), (0, 4096));
        let outside = vec![0u8; 1 << 20];
        let (_, c) = measure(|| ());
        assert_eq!(c, Allocs::default());
        // Another thread's allocations are not this thread's.
        let (_, d) = measure(|| std::thread::scope(|s| s.spawn(|| vec![0u8; 1 << 20]).join()));
        assert!(d.allocated < outside.len() as u64, "{d:?}");
    }
}
