//! # obcs-agent
//!
//! The online conversation engine (paper §2 "online process", Fig. 1b):
//! given a bootstrapped conversation space, it serves multi-turn
//! conversations end to end —
//!
//! 1. **NLU** ([`nlu`]): the intent classifier (trained on the
//!    bootstrapped examples) detects the user's intent with a confidence
//!    score; dictionary-based entity recognition (concept names, instance
//!    values, synonyms) extracts entities, with partial-name
//!    disambiguation (§6.1).
//! 2. **Dialogue** (via `obcs-dialogue`): the dialogue tree decides
//!    whether to respond with a management pattern, elicit a missing slot,
//!    propose a dependent concept, or fulfill the request.
//! 3. **Fulfilment** ([`engine`]): the intent's structured query templates,
//!    prepared against the KB once per agent ([`prepared`]), run with the
//!    context entities as parameters, and the results are verbalised
//!    through the intent's response template ([`nlg`]).
//!
//! Every turn is recorded in an [`log::InteractionLog`] with optional
//! thumbs-up/down feedback — the raw material of the paper's §7
//! evaluation.
//!
//! ```
//! use obcs_agent::{AgentConfig, ConversationAgent, ReplyKind};
//! use obcs_core::{bootstrap, BootstrapConfig, SmeFeedback};
//!
//! let (onto, kb, mapping) = obcs_core::testutil::fig2_fixture();
//! let space = bootstrap(&onto, &kb, &mapping, BootstrapConfig::default(), &SmeFeedback::new());
//! let mut agent = ConversationAgent::new(onto, kb, mapping, space, AgentConfig::default());
//!
//! // Slot filling across two turns (paper Fig. 10).
//! let reply = agent.respond("show me the precaution");
//! assert_eq!(reply.kind, ReplyKind::Elicitation);
//! let reply = agent.respond("Aspirin");
//! assert_eq!(reply.kind, ReplyKind::Fulfilment);
//! ```
//!
//! Crate role: DESIGN.md §2; turn-level observability (the engine's
//! [`engine::ConversationAgent::set_recorder`] hook and the per-stage
//! spans it emits): §10.

pub mod engine;
pub mod log;
pub mod nlg;
pub mod nlu;
pub mod prepared;

pub use engine::{kind_label, AgentConfig, AgentReply, ConversationAgent, ReplyKind};
pub use log::{Feedback, InteractionLog, InteractionRecord};
pub use obcs_core::IntentId;
