//! Allocation ceiling of `ConversationAgent::fork_session`. A fork shares
//! the base agent's NLU, ontology, mapping, conversation space, dialogue
//! tree and KB tables, so opening a session on the 150-drug MDX agent
//! allocates only the fork's own small state, never a copy of the domain
//! (a deep copy of that agent is about 3 MB).
//!
//! A counting global allocator measures the fork. Counting is per thread
//! and on only around the measured call, and this binary holds this one
//! test, so nothing else is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use obcs_mdx::ConversationalMdx;

struct Counting;

thread_local! {
    // Const-initialised cells without destructors: the allocator may read
    // them without allocating.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes as u64));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`; the
// bookkeeping only touches thread-local cells and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System`, and the caller upholds
        // `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes a fork may allocate: its config, fresh context and log, and
/// empty KB caches.
const FORK_CEILING_BYTES: u64 = 4 * 1024;

/// Bytes this thread allocates while `f` runs.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATED.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATED.with(Cell::get) - before)
}

#[test]
fn fork_session_allocates_a_few_kib_not_a_domain_copy() {
    let mdx = ConversationalMdx::new(20200614);
    let (fork, bytes) = allocated_by(|| mdx.agent.fork_session());
    assert!(
        bytes <= FORK_CEILING_BYTES,
        "fork_session allocated {bytes} bytes (ceiling {FORK_CEILING_BYTES})"
    );
    // The counter sees allocations at all: a fork's first turn allocates.
    let mut fork = fork;
    let (_, turn_bytes) = allocated_by(|| fork.respond("show me the precautions for Aspirin"));
    assert!(turn_bytes > 0, "the counting allocator saw nothing");
}
