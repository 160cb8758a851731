//! The newline-delimited JSON wire protocol.
//!
//! Every message is one JSON object on one line, terminated by `\n`
//! (NDJSON). Requests are externally tagged by message name, mirroring
//! serde's enum encoding, so `{"Turn":{"session":"s1","utterance":"hi"}}`
//! is a turn request and `"Stats"` is a stats request. The full format,
//! with worked examples, lives in `docs/PROTOCOL.md`; the examples there
//! are round-tripped against these types by `tests/protocol_doc.rs` so
//! the spec cannot rot.

use serde::{Deserialize, Serialize};

/// The protocol revision spoken by this build. Servers echo it in
/// [`Response::Welcome`]; clients should refuse to proceed on a mismatch.
pub const PROTOCOL_VERSION: u32 = 1;

/// Hard ceiling on the byte length of a single request line (including
/// the terminating newline). Longer lines are rejected with an
/// [`Response::Error`] of code `"too_large"` without being parsed.
///
/// The longest `Turn` line the user simulator can produce (every intent,
/// every noise kind, pools of up to 15,000 drugs, a 10-byte session id)
/// is 134 bytes, and the longest utterance of the committed transcripts
/// is 37 bytes; the ceiling is 30 times the former (`docs/PROTOCOL.md`).
pub const MAX_LINE_BYTES: usize = 4 * 1024;

/// A client→server message: one JSON object per line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Optional handshake. The server answers with [`Response::Welcome`]
    /// carrying its name and protocol version.
    Hello {
        /// Free-form client identifier, echoed nowhere; used for logs.
        client: String,
    },
    /// One conversation turn. Unknown session ids open a new session
    /// (subject to admission control); known ids continue the dialogue
    /// with full context (elicitation, disambiguation, repair).
    Turn {
        /// Client-chosen session identifier.
        session: String,
        /// The user utterance for this turn.
        utterance: String,
    },
    /// Close a session and release its engine fork immediately rather
    /// than waiting for TTL eviction.
    End {
        /// The session to close.
        session: String,
    },
    /// Request a [`StatsSnapshot`] of server-lifetime counters.
    Stats,
}

/// The payload of a successful [`Response::Reply`]: the engine's answer
/// for one served turn.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TurnReply {
    /// The session the turn was served under (echoed from the request).
    pub session: String,
    /// The natural-language reply text.
    pub text: String,
    /// The reply kind label (`fulfilment`, `elicitation`, `proposal`,
    /// `disambiguation`, `fallback`, `management`, `closing`,
    /// `degraded`) — the same vocabulary the telemetry layer counts
    /// under `reply_kind`.
    pub kind: String,
    /// The accepted domain intent name, if the turn resolved one.
    pub intent: Option<String>,
    /// Classifier confidence for the detected intent, if any.
    pub confidence: Option<f64>,
    /// Whether fulfilment found any rows (true for non-fulfilment
    /// kinds).
    pub found_results: bool,
    /// True when admission control shed the turn before it reached the
    /// engine: the reply is a degraded apology and no session state was
    /// created or advanced.
    pub shed: bool,
}

/// Server-lifetime counters returned by [`Response::Stats`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Sessions currently live in the session table.
    pub sessions_live: u64,
    /// Sessions ever opened (admitted).
    pub sessions_opened: u64,
    /// Sessions evicted by TTL expiry.
    pub sessions_evicted: u64,
    /// Sessions closed by an explicit `End` request.
    pub sessions_ended: u64,
    /// Turns served through the engine (excludes shed turns).
    pub turns: u64,
    /// Turns shed by admission control.
    pub shed_turns: u64,
    /// Request lines rejected as malformed or oversized.
    pub protocol_errors: u64,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
}

/// A server→client message: one JSON object per line, answering the
/// request on the same position in the stream (the protocol is strictly
/// request/response per connection; there are no unsolicited messages).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Answer to [`Request::Hello`].
    Welcome {
        /// The serving agent's display name.
        server: String,
        /// The protocol revision; see [`PROTOCOL_VERSION`].
        protocol: u32,
    },
    /// Answer to [`Request::Turn`] — including shed turns, which carry
    /// `shed: true` and a `degraded` kind rather than an error.
    Reply(TurnReply),
    /// Answer to [`Request::End`].
    Ended {
        /// The session that was asked to close (echoed).
        session: String,
        /// False when the session was unknown (already evicted, ended,
        /// or never opened) — the request is still not an error.
        existed: bool,
    },
    /// Answer to [`Request::Stats`].
    Stats(StatsSnapshot),
    /// A request line the server could not act on. The connection stays
    /// open; the client may continue with the next request.
    Error {
        /// Stable machine-readable code: `"malformed"` (not valid JSON
        /// for any request) or `"too_large"` (line over
        /// [`MAX_LINE_BYTES`]).
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

/// Encode any serializable message as one NDJSON line (newline
/// included).
pub fn encode_line<T: Serialize>(msg: &T) -> String {
    let mut line = serde_json::to_string(msg).unwrap_or_else(|_| "null".to_string());
    line.push('\n');
    line
}

/// Decode one request line. The caller is expected to have already
/// enforced [`MAX_LINE_BYTES`].
pub fn decode_request(line: &str) -> Result<Request, String> {
    serde_json::from_str(line.trim()).map_err(|e| format!("{e:?}"))
}

/// Decode one response line (client side).
pub fn decode_response(line: &str) -> Result<Response, String> {
    serde_json::from_str(line.trim()).map_err(|e| format!("{e:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let reqs = vec![
            Request::Hello { client: "test".into() },
            Request::Turn { session: "s1".into(), utterance: "what treats Fever?".into() },
            Request::End { session: "s1".into() },
            Request::Stats,
        ];
        for req in reqs {
            let line = encode_line(&req);
            assert!(line.ends_with('\n'));
            let back = decode_request(&line).expect("round trip");
            assert_eq!(back, req);
        }
    }

    #[test]
    fn response_round_trip() {
        let resps = vec![
            Response::Welcome { server: "Micromedex".into(), protocol: PROTOCOL_VERSION },
            Response::Reply(TurnReply {
                session: "s1".into(),
                text: "Aspirin".into(),
                kind: "fulfilment".into(),
                intent: Some("lookup".into()),
                confidence: Some(0.9),
                found_results: true,
                shed: false,
            }),
            Response::Reply(TurnReply {
                session: "s2".into(),
                text: "busy".into(),
                kind: "degraded".into(),
                intent: None,
                confidence: None,
                found_results: false,
                shed: true,
            }),
            Response::Ended { session: "s1".into(), existed: true },
            Response::Stats(StatsSnapshot::default()),
            Response::Error { code: "malformed".into(), message: "bad json".into() },
        ];
        for resp in resps {
            let back = decode_response(&encode_line(&resp)).expect("round trip");
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn optional_fields_tolerate_absence() {
        // A hand-written reply without intent/confidence must parse:
        // clients built against older servers rely on this.
        let line = r#"{"Reply":{"session":"s","text":"t","kind":"fallback","intent":null,"confidence":null,"found_results":false,"shed":false}}"#;
        let resp = decode_response(line).expect("nulls parse");
        match resp {
            Response::Reply(r) => {
                assert_eq!(r.intent, None);
                assert_eq!(r.confidence, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_are_errors() {
        assert!(decode_request("not json").is_err());
        assert!(decode_request(r#"{"Unknown":{}}"#).is_err());
    }
}
