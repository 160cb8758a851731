//! Start-up memory of a durable server. `Server::start` over a
//! durability directory replaces the agent's KB with the recovered one,
//! so the agent releases its own KB before recovery starts and the two
//! never coexist: start-up costs the memory of one KB, not two.
//!
//! A counting global allocator tracks the bytes live on the calling
//! thread and their high-water mark. This binary holds this one test, so
//! nothing else is counted. Start-up runs on the calling thread; the
//! accept thread it spawns allocates only its own small state.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use obcs_kb::{DurableKb, Value};
use obcs_mdx::ConversationalMdx;
use obcs_serve::{DurabilityConfig, ServeConfig, Server};

struct Counting;

thread_local! {
    // Const-initialised cells without destructors: the allocator may read
    // them without allocating.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn note(delta: i64) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`; the
// bookkeeping only touches thread-local cells and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System`, and the caller upholds
        // `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its output, the bytes it left live on this
/// thread, and the high-water of live bytes above what was live at the
/// call.
fn measured<T>(f: impl FnOnce() -> T) -> (T, i64, i64) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    (out, LIVE.with(Cell::get) - base, PEAK.with(Cell::get) - base)
}

/// `risk` rows logged after the seed snapshot, which start-up replays.
const TAIL_INSERTS: i64 = 300;

#[test]
fn durable_start_up_holds_one_kb_at_its_peak() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("obcs_serve_start_memory_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let agent = ConversationalMdx::new(20200614).agent;
    let drugs = agent.kb().table("drug").expect("drug table").len() as i64;
    {
        let mut durable = DurableKb::create(&dir, agent.kb().clone()).expect("seed the directory");
        for i in 0..TAIL_INSERTS {
            let row = vec![
                Value::Int(1_000_000 + i),
                Value::Int(i % drugs),
                Value::text(format!("logged risk {i}")),
                Value::text(format!("post-snapshot summary {i}")),
                Value::text(if i % 2 == 0 { "low" } else { "high" }),
                Value::text("see monograph"),
            ];
            durable.insert("risk", row).expect("log a tail insert");
        }
        durable.sync().expect("fsync the tail");
    }

    // What the recovered KB holds, measured the same way.
    let ((recovered, report), kb_bytes, _) = measured(|| DurableKb::open(&dir).expect("recover"));
    assert_eq!(report.wal_records, TAIL_INSERTS as usize);
    drop(recovered);
    assert!(kb_bytes > 1 << 20, "the recovered KB holds {kb_bytes} bytes; the counter works");

    let config = ServeConfig { durability: Some(DurabilityConfig::at(&dir)), ..Default::default() };
    let (server, _, peak) = measured(|| Server::start(agent, config).expect("start"));
    let mut server = server;
    let report = server.recovery().expect("start-up recovered the directory").clone();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(report.wal_records, TAIL_INSERTS as usize);
    assert!(
        peak <= kb_bytes / 2,
        "Server::start peaked {peak} bytes above its starting point; the recovered KB holds \
         {kb_bytes}, so the agent's own KB and the recovered one coexisted"
    );
}
