//! # obcs — Ontology-Based Conversation System for Knowledge Bases
//!
//! A from-scratch Rust reproduction of *"An Ontology-Based Conversation
//! System for Knowledge Bases"* (SIGMOD 2020): a pipeline that bootstraps
//! a full conversation space — intents, training examples, entities,
//! dialogue, and structured query templates — from a domain ontology and
//! the knowledge base it describes, then serves multi-turn conversations
//! over it.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`ontology`] — OWL-flavoured domain ontologies, graph analysis,
//!   centrality, validation.
//! * [`kb`] — the in-memory relational knowledge base with a SQL subset
//!   engine, statistics, and data-driven ontology generation.
//! * [`nlq`] — ontology-driven NL→SQL interpretation and query templates.
//! * [`classifier`] — text classification (Naive Bayes, logistic
//!   regression) and evaluation metrics.
//! * [`core`] — the paper's contribution: conversation-space
//!   bootstrapping.
//! * [`dialogue`] — the dialogue logic table, dialogue tree, persistent
//!   context, and conversation-management patterns.
//! * [`agent`] — the online conversation engine.
//! * [`mdx`] — the synthetic Micromedex-scale medical use case.
//! * [`sim`] — the user simulator and §7 evaluation harness.
//! * [`lint`] — static analysis over the bootstrapped conversation space.
//! * [`verify`] — whole-space verification: dialogue-flow model checking,
//!   static query bind-checking, cross-artifact consistency (OBCS1xx).
//! * [`telemetry`] — zero-dependency tracing and metrics for the turn
//!   pipeline (spans, counters, latency histograms).
//! * [`faults`] — fault injection, the resilience loop, and graceful
//!   degradation for the turn pipeline.
//! * [`serve`] — the concurrent socket serving layer: NDJSON protocol,
//!   sharded session table with TTL eviction and admission control,
//!   per-turn deadline budgets (`docs/PROTOCOL.md`, DESIGN.md §15).
//!
//! ## Quickstart
//!
//! ```
//! use obcs::prelude::*;
//!
//! // A small medical world: ontology + knowledge base + schema mapping.
//! let (onto, kb, mapping) = obcs::core::testutil::fig2_fixture();
//!
//! // Offline: bootstrap the conversation space from the ontology (§4).
//! let space = bootstrap(&onto, &kb, &mapping, BootstrapConfig::default(), &SmeFeedback::new());
//! assert!(space.inventory().intents_total > 5);
//!
//! // Online: assemble the agent and converse (§2, Fig. 1b).
//! let mut agent = ConversationAgent::new(onto, kb, mapping, space, AgentConfig::default());
//! let reply = agent.respond("what drug treats Fever?");
//! assert!(reply.text.contains("Aspirin"));
//! ```

pub use obcs_agent as agent;
pub use obcs_classifier as classifier;
pub use obcs_core as core;
pub use obcs_dialogue as dialogue;
pub use obcs_faults as faults;
pub use obcs_kb as kb;
pub use obcs_lint as lint;
pub use obcs_mdx as mdx;
pub use obcs_nlq as nlq;
pub use obcs_ontology as ontology;
pub use obcs_serve as serve;
pub use obcs_sim as sim;
pub use obcs_telemetry as telemetry;
pub use obcs_verify as verify;

/// The most common imports in one place.
pub mod prelude {
    pub use obcs_agent::{AgentConfig, AgentReply, ConversationAgent, Feedback, ReplyKind};
    pub use obcs_core::{bootstrap, BootstrapConfig, ConversationSpace, SmeFeedback};
    pub use obcs_kb::{KnowledgeBase, Value};
    pub use obcs_nlq::OntologyMapping;
    pub use obcs_ontology::{Ontology, OntologyBuilder};
}
