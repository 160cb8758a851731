//! # obcs-serve — the concurrent socket serving layer
//!
//! Turns the single-process conversation engine into a long-lived
//! service: a `std::net` TCP server (thread-per-connection; the
//! vendored-deps build has no async runtime) speaking a newline-delimited
//! JSON protocol ([`protocol`], spec in `docs/PROTOCOL.md`), over a
//! sharded [`SessionTable`] in which every live session owns an engine
//! fork (`fork_session`: fresh dialogue state, with the NLU, space, tree
//! and KB tables shared behind `Arc`s). The table enforces TTL
//! eviction, per-session memory ceilings, and admission control that
//! sheds new sessions with a `ReplyKind::Degraded` apology when the
//! table is full; per-turn deadline budgets ride the `obcs-faults`
//! resilience clock installed on every fork. Architecture notes live in
//! DESIGN.md §15; `repro serve` drives the Table 5 intent mix over real
//! sockets and gates p50/p99 turn latency in BENCH_perf.json.
//!
//! ## Client handshake
//!
//! ```
//! use obcs_serve::{Client, ServeConfig, Server, PROTOCOL_VERSION};
//! use obcs_agent::{AgentConfig, ConversationAgent};
//! use obcs_core::{bootstrap, BootstrapConfig, SmeFeedback};
//!
//! // Assemble an engine over the small Fig. 2 fixture world.
//! let (onto, kb, mapping) = obcs_core::testutil::fig2_fixture();
//! let space = bootstrap(&onto, &kb, &mapping, BootstrapConfig::default(), &SmeFeedback::new());
//! let agent = ConversationAgent::new(onto, kb, mapping, space, AgentConfig {
//!     name: "Micromedex".to_string(),
//!     intent_confidence_threshold: 0.3,
//! });
//!
//! // Serve it on an ephemeral port and shake hands over the socket.
//! let mut server = Server::start(agent, ServeConfig::default()).expect("bind");
//! let mut client = Client::connect(server.addr()).expect("connect");
//! let (name, protocol) = client.hello("doctest").expect("handshake");
//! assert_eq!(name, "Micromedex");
//! assert_eq!(protocol, PROTOCOL_VERSION);
//!
//! // Drive one turn, then shut down cleanly.
//! let reply = client.turn("s1", "what drug treats Fever?").expect("turn");
//! assert_eq!(reply.kind, "fulfilment");
//! assert!(reply.text.contains("Aspirin"));
//! drop(client);
//! server.shutdown();
//! ```

pub mod client;
pub mod protocol;
pub mod server;
pub mod session;

pub use client::{Client, ClientError};
pub use obcs_agent::kind_label;
pub use protocol::{Request, Response, StatsSnapshot, TurnReply, MAX_LINE_BYTES, PROTOCOL_VERSION};
pub use server::{DurabilityConfig, ServeConfig, Server};
pub use session::{Admission, SessionConfig, SessionTable};
