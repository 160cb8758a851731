//! Deterministic session-TTL eviction on the tick clock: every table
//! operation reads the clock once, so idleness is an exact function of
//! operation count.

use std::sync::Arc;

use obcs_agent::{AgentConfig, ConversationAgent};
use obcs_core::{bootstrap, BootstrapConfig, SmeFeedback};
use obcs_serve::{Admission, SessionConfig, SessionTable};
use obcs_telemetry::{NoopRecorder, Recorder};

fn fig2_agent() -> ConversationAgent {
    let (onto, kb, mapping) = obcs_core::testutil::fig2_fixture();
    let space = bootstrap(&onto, &kb, &mapping, BootstrapConfig::default(), &SmeFeedback::new());
    ConversationAgent::new(
        onto,
        kb,
        mapping,
        space,
        AgentConfig { name: "Micromedex".to_string(), intent_confidence_threshold: 0.3 },
    )
}

fn served_text(a: Admission) -> String {
    match a {
        Admission::Served(reply) => reply.text,
        Admission::Shed => panic!("unexpected shed"),
    }
}

#[test]
fn idle_sessions_are_evicted_after_ttl_ticks() {
    let rec: Arc<dyn Recorder> = Arc::new(NoopRecorder);
    // One shard so every operation sweeps the same map; ttl of 4 ticks.
    let config = SessionConfig { shards: 1, ttl: 4, ..SessionConfig::default() };
    let table = SessionTable::new(fig2_agent(), config);

    // Tick 0: s1 opens and starts an elicitation (context to lose).
    let first = served_text(table.turn("s1", "show me the precaution", &rec));
    assert!(first.contains("which drug"), "{first}");
    assert_eq!(table.opened(), 1);

    // Ticks 1..=4: four turns on other sessions age s1 to the TTL edge
    // without crossing it (idle == ttl is still live).
    for i in 1..=4u32 {
        served_text(table.turn(&format!("other{i}"), "what drug treats Fever?", &rec));
    }
    assert_eq!(table.evicted(), 0);

    // Tick 5: one more turn pushes s1 past the TTL; the sweep drops it
    // (the younger sessions are all within TTL still).
    served_text(table.turn("other5", "what drug treats Fever?", &rec));
    assert_eq!(table.evicted(), 1, "s1 (and nothing else) expired");

    // Tick 6: s1 re-contacts. The sweep now also catches other1
    // (idle 5 > 4), then s1 is re-admitted as a brand-new session.
    let reply = served_text(table.turn("s1", "Ibuprofen", &rec));
    assert_eq!(table.evicted(), 2, "other1 aged out on the next sweep");
    // s1 came back as a *fresh* session: the pending elicitation is
    // gone, so the bare drug name no longer completes the precaution
    // question.
    assert!(!reply.contains("precaution info"), "context must be lost after eviction: {reply}");
    assert_eq!(table.opened(), 7, "s1 was re-admitted as a new session");
}

#[test]
fn recent_sessions_survive_the_sweep() {
    let rec: Arc<dyn Recorder> = Arc::new(NoopRecorder);
    let config = SessionConfig { shards: 1, ttl: 10, ..SessionConfig::default() };
    let table = SessionTable::new(fig2_agent(), config);

    let first = served_text(table.turn("s1", "show me the precaution", &rec));
    assert!(first.contains("which drug"), "{first}");
    for i in 0..5u32 {
        served_text(table.turn(&format!("other{i}"), "what drug treats Fever?", &rec));
    }
    // Within TTL: the elicitation context is intact and the bare drug
    // name completes the original question.
    let reply = served_text(table.turn("s1", "Ibuprofen", &rec));
    assert!(reply.contains("precaution"), "{reply}");
    assert_eq!(table.evicted(), 0);
    assert_eq!(table.opened(), 6);
}

#[test]
fn memory_ceiling_trims_oldest_log_records() {
    let rec: Arc<dyn Recorder> = Arc::new(NoopRecorder);
    // A ceiling small enough that a few turns overflow it.
    let config = SessionConfig { shards: 1, byte_ceiling: 160, ..SessionConfig::default() };
    let table = SessionTable::new(fig2_agent(), config);

    for _ in 0..12 {
        served_text(table.turn("s1", "what drug treats Fever?", &rec));
    }
    // The session survived 12 turns but its log stayed bounded: a
    // full unbounded log would hold 12 records.
    let log_len = table.log_len("s1").expect("session live");
    assert!(log_len < 12, "log must be trimmed, got {log_len} records");
    assert!(log_len >= 1, "the newest record is always kept");
}
