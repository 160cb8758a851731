//! End-to-end socket tests: a real server on an ephemeral port, driven
//! by the blocking client, checked byte-for-byte against an in-process
//! engine replay of the same script.

use obcs_agent::{AgentConfig, ConversationAgent};
use obcs_core::{bootstrap, BootstrapConfig, SmeFeedback};
use obcs_serve::protocol::encode_line;
use obcs_serve::{kind_label, Client, ServeConfig, Server, SessionConfig, TurnReply};

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

/// The multi-turn script: elicitation, its answer, a repair turn
/// (gibberish → fallback), and a fresh lookup after the repair.
const SCRIPT: &[&str] =
    &["show me the precaution", "Ibuprofen", "apfjhd qwerty", "what drug treats Fever?"];

/// Render an in-process reply exactly as the server would put it on the
/// wire, so the comparison covers the full encoded line.
fn wire(session: &str, agent: &ConversationAgent, reply: &obcs_agent::AgentReply) -> TurnReply {
    TurnReply {
        session: session.to_string(),
        text: reply.text.clone(),
        kind: kind_label(reply.kind).to_string(),
        intent: reply.intent.and_then(|id| agent.space().intent(id)).map(|i| i.name.clone()),
        confidence: reply.confidence,
        found_results: reply.found_results,
        shed: false,
    }
}

#[test]
fn served_replies_are_byte_identical_to_in_process_replay() {
    // In-process replay: fork a session off the same base configuration
    // the server will fork from.
    let base = fig2_agent();
    let mut local = base.fork_session();
    let expected: Vec<String> = SCRIPT
        .iter()
        .map(|utt| {
            let reply = local.respond(utt);
            encode_line(&wire("e2e", &local, &reply))
        })
        .collect();

    // Served replay of the identical script under one session id.
    let mut server = Server::start(fig2_agent(), ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let served: Vec<String> =
        SCRIPT.iter().map(|utt| encode_line(&client.turn("e2e", utt).expect("turn"))).collect();

    assert_eq!(served, expected, "served replies must be byte-identical to in-process replay");
    // The script really exercised a dialogue: an elicitation answered
    // across turns and a repair (fallback) turn in the middle.
    assert!(served[0].contains("\"elicitation\""), "{}", served[0]);
    assert!(served[1].contains("\"fulfilment\""), "{}", served[1]);
    assert!(served[2].contains("\"fallback\""), "{}", served[2]);

    drop(client);
    server.shutdown();
}

#[test]
fn sessions_are_isolated_on_one_connection() {
    let mut server = Server::start(fig2_agent(), ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    // s1 starts an elicitation, s2 interleaves an unrelated lookup, and
    // s1's pending elicitation must still accept its answer.
    let r1 = client.turn("s1", "show me the precaution").expect("turn");
    assert_eq!(r1.kind, "elicitation");
    let r2 = client.turn("s2", "what drug treats Fever?").expect("turn");
    assert_eq!(r2.kind, "fulfilment");
    let r3 = client.turn("s1", "Ibuprofen").expect("turn");
    assert_eq!(r3.kind, "fulfilment", "{r3:?}");

    assert_eq!(server.stats().sessions_live, 2);
    assert!(client.end("s1").expect("end"));
    assert!(!client.end("s1").expect("end twice"), "second end finds nothing");
    assert_eq!(server.stats().sessions_live, 1);

    drop(client);
    server.shutdown();
}

#[test]
fn admission_control_sheds_new_sessions_at_capacity() {
    let config = ServeConfig {
        session: SessionConfig { capacity: 1, ..SessionConfig::default() },
        ..ServeConfig::default()
    };
    let mut server = Server::start(fig2_agent(), config).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    let r1 = client.turn("s1", "what drug treats Fever?").expect("turn");
    assert!(!r1.shed);

    // Table full: a second session is shed with a degraded apology, and
    // the established session keeps being served.
    let r2 = client.turn("s2", "what drug treats Fever?").expect("turn");
    assert!(r2.shed);
    assert_eq!(r2.kind, "degraded");
    assert!(r2.text.contains("capacity"), "{r2:?}");
    let r1b = client.turn("s1", "what drug treats Headache?").expect("turn");
    assert!(!r1b.shed);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.shed_turns, 1);
    assert_eq!(stats.sessions_live, 1);
    assert_eq!(stats.turns, 2);

    // Ending the session frees capacity for the next newcomer.
    assert!(client.end("s1").expect("end"));
    let r3 = client.turn("s2", "what drug treats Fever?").expect("turn");
    assert!(!r3.shed, "{r3:?}");

    drop(client);
    server.shutdown();
}

#[test]
fn malformed_and_oversized_lines_get_protocol_errors() {
    use std::io::{BufRead, BufReader, Write};

    let mut server = Server::start(fig2_agent(), ServeConfig::default()).expect("bind");
    let stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();

    writer.write_all(b"this is not json\n").expect("write");
    reader.read_line(&mut line).expect("read");
    assert!(line.contains("\"malformed\""), "{line}");

    // A line over MAX_LINE_BYTES is rejected without being parsed, and
    // the connection keeps serving afterwards.
    let huge = format!(
        "{{\"Turn\":{{\"session\":\"s\",\"utterance\":\"{}\"}}}}\n",
        "x".repeat(obcs_serve::MAX_LINE_BYTES)
    );
    writer.write_all(huge.as_bytes()).expect("write huge");
    line.clear();
    reader.read_line(&mut line).expect("read");
    assert!(line.contains("\"too_large\""), "{line}");

    writer.write_all(b"\"Stats\"\n").expect("write stats");
    line.clear();
    reader.read_line(&mut line).expect("read");
    assert!(line.contains("\"protocol_errors\":2"), "{line}");

    drop(writer);
    drop(reader);
    server.shutdown();
}

#[test]
fn per_connection_traces_merge_into_one_report() {
    let config = ServeConfig { trace: true, ..ServeConfig::default() };
    let mut server = Server::start(fig2_agent(), config).expect("bind");

    let turns_per_conn = 3usize;
    let conns = 2usize;
    for c in 0..conns {
        let mut client = Client::connect(server.addr()).expect("connect");
        for _ in 0..turns_per_conn {
            client.turn(&format!("conn{c}"), "what drug treats Fever?").expect("turn");
        }
    }

    // Joining every connection thread guarantees both reports landed.
    server.shutdown();
    let report = server.take_trace().expect("trace collected");
    let turn_spans =
        report.stages.get(obcs_telemetry::stage::SERVE_TURN).map(|h| h.count).unwrap_or_default();
    assert_eq!(turn_spans as usize, conns * turns_per_conn);
    // The engine's own turn spans nested under the serve spans.
    let engine_turns =
        report.stages.get(obcs_telemetry::stage::TURN).map(|h| h.count).unwrap_or_default();
    assert_eq!(engine_turns as usize, conns * turns_per_conn);
    assert!(server.take_trace().is_none(), "take_trace drains");
}

#[test]
fn deadline_budget_is_installed_on_session_forks() {
    // Server forks inherit the serving resilience policy (turn budget);
    // with no fault injector this must not change any reply.
    let config = ServeConfig { turn_budget: Some(64), ..ServeConfig::default() };
    let mut server = Server::start(fig2_agent(), config).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let reply = client.turn("s", "what drug treats Fever?").expect("turn");
    assert_eq!(reply.kind, "fulfilment");
    drop(client);
    server.shutdown();
}

/// Unique per-test durability directory under the system temp dir.
fn temp_durability_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("obcs_serve_durable_{}_{tag}_{n}", std::process::id()))
}

#[test]
fn durable_server_recovers_wal_mutations_and_serves_them() {
    use obcs_kb::{DurableKb, Value};
    use obcs_serve::DurabilityConfig;

    let dir = temp_durability_dir("recover");

    // First incarnation: a fresh durability directory is seeded from the
    // agent's KB, and startup reports no recovery.
    let durable_config =
        || ServeConfig { durability: Some(DurabilityConfig::at(&dir)), ..ServeConfig::default() };
    let mut server = Server::start(fig2_agent(), durable_config()).expect("bind");
    assert!(server.recovery().is_none(), "fresh directory, nothing recovered");
    let mut client = Client::connect(server.addr()).expect("connect");
    let before = client.turn("s", "show me the precaution").expect("turn");
    assert_eq!(before.kind, "elicitation");
    let before = client.turn("s", "Ibuprofen").expect("turn");
    assert!(!before.text.contains("durable"), "{before:?}");
    drop(client);
    server.shutdown();

    // Between incarnations a mutation lands in the WAL — and the handle
    // is dropped without a snapshot, a kill-style exit leaving the
    // record only in the log.
    {
        let (mut durable, _) = DurableKb::open(&dir).expect("open between runs");
        durable
            .insert(
                "precaution",
                vec![Value::Int(100), Value::Int(1), Value::text("a recovered durable warning")],
            )
            .expect("insert");
        durable.sync().expect("sync");
    }

    // Second incarnation: startup recovers snapshot + WAL tail and the
    // logged mutation shows up in served replies.
    let mut server = Server::start(fig2_agent(), durable_config()).expect("bind again");
    let report = server.recovery().expect("prior state recovered").clone();
    assert!(report.snapshot_loaded);
    assert_eq!(report.wal_records, 1, "the between-runs insert replayed from the WAL");
    let mut client = Client::connect(server.addr()).expect("connect");
    let after = client.turn("s", "show me the precaution").expect("turn");
    assert_eq!(after.kind, "elicitation");
    let after = client.turn("s", "Ibuprofen").expect("turn");
    assert!(
        after.text.contains("a recovered durable warning"),
        "the WAL-recovered row must be served: {after:?}"
    );
    drop(client);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn durable_shutdown_is_idempotent_and_leaves_a_recoverable_log() {
    use obcs_kb::DurableKb;
    use obcs_serve::DurabilityConfig;

    let dir = temp_durability_dir("double");
    let config =
        ServeConfig { durability: Some(DurabilityConfig::at(&dir)), ..ServeConfig::default() };
    let mut server = Server::start(fig2_agent(), config).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    client.turn("s", "what drug treats Fever?").expect("turn");
    drop(client);

    // Double shutdown: the second call joins nothing — no panic, no
    // deadlock, handle still usable.
    server.shutdown();
    server.shutdown();
    assert_eq!(server.stats().turns, 1, "handle stays usable after shutdown");

    // The directory still recovers cleanly after the server is gone.
    drop(server);
    let (recovered, report) = DurableKb::open(&dir).expect("recover after shutdown");
    assert_eq!(report.wal_truncated_bytes, 0, "graceful shutdown leaves no torn tail");
    assert!(recovered.kb().has_table("drug"));
    std::fs::remove_dir_all(&dir).ok();
}
