//! Served memory under distinct traffic. With no shared cache, what a
//! server retains is its sessions' logs and dialogue contexts (DESIGN.md
//! §15.3). Each log is trimmed to `byte_ceiling`, so N distinct long
//! utterances over 16 sessions must raise live bytes by less than
//! 16 × `byte_ceiling`, plus a slack for the contexts and the table's
//! entries. A memo keyed on whole utterances fails this: it kept every
//! utterance twice in each of its two layers.
//!
//! A counting global allocator tracks the bytes live on the calling
//! thread, where `SessionTable::turn` runs the engine. This binary holds
//! this one test, so nothing else is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use obcs_agent::{AgentConfig, ConversationAgent};
use obcs_core::{bootstrap, BootstrapConfig, SmeFeedback};
use obcs_serve::{Admission, SessionConfig, SessionTable};
use obcs_telemetry::{NoopRecorder, Recorder};

struct Counting;

thread_local! {
    // A const-initialised cell without a destructor: the allocator may
    // read it without allocating.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn note(delta: i64) {
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`; the
// bookkeeping only touches a thread-local cell and never allocates.
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

const SESSIONS: usize = 16;
/// Distinct utterances sent, round-robin over the sessions.
const REQUESTS: usize = 512;
/// Length of each utterance. 512 of them, each kept four times by a
/// memo, come to 16 MiB: over ten times the bound below.
const UTTERANCE_BYTES: usize = 8 * 1024;
/// Room for what a session holds besides its log's text: its dialogue
/// context, its engine fork, its log's record headers and its table
/// entry. They measured about 1.3 KiB per session; 4 KiB leaves headroom.
const SLACK_PER_SESSION: i64 = 4 * 1024;

fn fig2_agent() -> ConversationAgent {
    let (onto, kb, mapping) = obcs_core::testutil::fig2_fixture();
    let space = bootstrap(&onto, &kb, &mapping, BootstrapConfig::default(), &SmeFeedback::new());
    ConversationAgent::new(onto, kb, mapping, space, AgentConfig::default())
}

/// Request `i`: a distinct prefix, then filler words up to the length.
fn utterance(i: usize) -> String {
    let mut text = format!("request number {i} asks");
    while text.len() < UTTERANCE_BYTES {
        text.push_str(" please tell me more about that");
    }
    text
}

#[test]
fn distinct_long_utterances_leave_only_the_session_logs() {
    let config = SessionConfig::default();
    let byte_ceiling = config.byte_ceiling as i64;
    let table = SessionTable::new(fig2_agent(), config);
    let recorder: Arc<dyn Recorder> = Arc::new(NoopRecorder);
    let sessions: Vec<String> = (0..SESSIONS).map(|s| format!("clinician-{s}")).collect();

    let before = LIVE.with(Cell::get);
    for i in 0..REQUESTS {
        let admitted = table.turn(&sessions[i % SESSIONS], &utterance(i), &recorder);
        assert!(matches!(admitted, Admission::Served(_)), "request {i} was shed");
    }
    let grown = LIVE.with(Cell::get) - before;

    assert_eq!(table.live(), SESSIONS as u64, "every session is still live");
    for session in &sessions {
        let records = table.log_len(session).expect("live session");
        assert!(records < REQUESTS / SESSIONS, "{session}'s log was trimmed to {records} records");
    }
    let bound = SESSIONS as i64 * (byte_ceiling + SLACK_PER_SESSION);
    assert!(
        grown < bound,
        "{REQUESTS} distinct {UTTERANCE_BYTES}-byte utterances over {SESSIONS} sessions left \
         {grown} bytes live; the sessions' logs and contexts are bounded by {bound}"
    );
}
