//! Allocation ceilings of a fulfilment turn. Every query a fulfilment
//! can issue is prepared once per agent KB, so a turn fills a parameter
//! vector and executes: it renders, parses and binds no SQL, and clones
//! no slot value or concept name to build its reply. Recognition
//! annotates the utterance once, and classification scores the masked
//! text built from those annotations without a `String` per feature.
//!
//! A counting global allocator measures one turn on a fresh fork of the
//! 150-drug MDX agent. Nothing is cached between turns, so that turn is
//! the served path whether or not the utterance was seen before.
//! Counting is per thread and on only around the measured call, and
//! this binary holds this one test, so nothing else is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use obcs_agent::ReplyKind;
use obcs_mdx::ConversationalMdx;

struct Counting;

thread_local! {
    // Const-initialised cells without destructors: the allocator may read
    // them without allocating.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes as u64));
        let _ = ALLOCATIONS.try_with(|a| a.set(a.get() + 1));
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

/// Bytes and allocations this thread makes while `f` runs.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (bytes, count) = (ALLOCATED.with(Cell::get), ALLOCATIONS.with(Cell::get));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATED.with(Cell::get) - bytes, ALLOCATIONS.with(Cell::get) - count)
}

/// A fulfilment through a static template, and one through an
/// optional-entity query (Severity narrows the adverse-effect lookup),
/// each with its byte and allocation ceilings. The turns measure 5,589 B
/// in 64 allocations and 3,569 B in 60. When classification annotated the
/// utterance again and built a `String` per feature they took 9,298 B in
/// 145 and 7,080 B in 139, unless a warm NLU memo served them (4,662 B
/// in 57 and 2,587 B in 51); rendering, parsing and binding SQL text per
/// turn took 16,130 B in 200 and 16,760 B in 270.
const TURNS: &[(&str, u64, u64)] = &[
    ("show me the precautions for Aspirin", 6 * 1024, 80),
    ("severe adverse effects of ibuprofen", 4 * 1024, 72),
];

#[test]
fn fulfilment_turns_stay_under_their_allocation_ceilings() {
    let mdx = ConversationalMdx::new(20200614);
    for &(utterance, max_bytes, max_count) in TURNS {
        let mut fork = mdx.agent.fork_session();
        let (reply, bytes, count) = allocated_by(|| fork.respond(utterance));
        assert_eq!(reply.kind, ReplyKind::Fulfilment, "{utterance}: {reply:?}");
        println!("{utterance:?}: {bytes} B in {count} allocations");
        assert!(bytes <= max_bytes, "{utterance:?} allocated {bytes} B (ceiling {max_bytes})");
        assert!(count <= max_count, "{utterance:?} made {count} allocations (ceiling {max_count})");
    }
}
