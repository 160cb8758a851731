//! Persistent conversation context (paper §4.1 "Dialogue", §5.2 step 3).
//!
//! The context captures the current state of the interaction — the active
//! intent, the entities collected so far, and the recent agent utterances
//! — and persists it across turns. This is what lets a user build a query
//! over several utterances ("show me drugs that treat psoriasis" /
//! "pediatric") and modify it incrementally ("I mean adult", "how about
//! for Fluocinonide?").

use obcs_core::IntentId;
use obcs_ontology::ConceptId;
use serde::{Deserialize, Serialize};

/// An entity captured in the conversation: a concept plus the instance
/// value the user mentioned.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContextEntity {
    pub concept: ConceptId,
    pub value: String,
    /// Turn number the entity was (last) mentioned.
    pub turn: usize,
}

/// The persistent conversation context.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ConversationContext {
    /// Current turn counter (incremented by the engine per user utterance).
    pub turn: usize,
    /// The active domain intent, if any.
    pub intent: Option<IntentId>,
    /// Entities collected so far; at most one value per concept (the most
    /// recent mention wins — incremental modification).
    pub entities: Vec<ContextEntity>,
    /// The entity concept the agent is currently eliciting, if any.
    pub eliciting: Option<ConceptId>,
    /// An intent the agent proposed and awaits a yes/no on (entity-only
    /// flow, §6.1: "Would you like to see the precautions of …?").
    pub proposal: Option<IntentId>,
    /// Proposals already made (and rejected) for the current topic, so the
    /// agent proposes something different next time.
    pub rejected_proposals: Vec<IntentId>,
    /// The agent's last response (for repeat repair).
    pub last_agent_response: Option<String>,
    /// Terms used in the agent's last response (for definition repair).
    pub last_terms: Vec<String>,
}

impl ConversationContext {
    pub fn new() -> Self {
        ConversationContext::default()
    }

    /// Begins a new user turn.
    pub fn begin_turn(&mut self) {
        self.turn += 1;
    }

    /// Sets the active intent. Switching to a *different* intent clears the
    /// pending elicitation and any open proposal state (a "yes" after the
    /// switch must not fire an offer the user moved past) but keeps
    /// entities — the paper's context reuse: a dosage request after a
    /// treatment request inherits the condition and age group.
    pub fn set_intent(&mut self, intent: IntentId) {
        if self.intent != Some(intent) {
            self.eliciting = None;
            self.proposal = None;
            self.rejected_proposals.clear();
        }
        self.intent = Some(intent);
    }

    /// Adds or updates an entity; the most recent mention of a concept
    /// replaces the previous value (incremental modification, §6.3
    /// "I mean pediatric").
    pub fn put_entity(&mut self, concept: ConceptId, value: impl Into<String>) {
        let value = value.into();
        let turn = self.turn;
        match self.entities.iter_mut().find(|e| e.concept == concept) {
            Some(e) => {
                e.value = value;
                e.turn = turn;
            }
            None => self.entities.push(ContextEntity { concept, value, turn }),
        }
    }

    /// The current value of an entity concept.
    pub fn entity(&self, concept: ConceptId) -> Option<&str> {
        self.entities.iter().find(|e| e.concept == concept).map(|e| e.value.as_str())
    }

    /// Whether every concept in the slice has a value.
    pub fn has_all(&self, concepts: &[ConceptId]) -> bool {
        concepts.iter().all(|c| self.entity(*c).is_some())
    }

    /// The first concept in the slice lacking a value.
    pub fn first_missing(&self, concepts: &[ConceptId]) -> Option<ConceptId> {
        concepts.iter().copied().find(|c| self.entity(*c).is_none())
    }

    /// Records the agent's response for repeat/definition repair.
    pub fn record_response(&mut self, text: &str, terms: Vec<String>) {
        self.last_agent_response = Some(text.to_string());
        self.last_terms = terms;
    }

    /// Clears everything except the turn counter (conversation restart,
    /// "never mind" abort).
    pub fn reset_topic(&mut self) {
        self.intent = None;
        self.entities.clear();
        self.eliciting = None;
        self.proposal = None;
        self.rejected_proposals.clear();
        // Repair state goes too: after an abort, "repeat that" must not
        // replay the abandoned topic's answer.
        self.last_agent_response = None;
        self.last_terms.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DRUG: ConceptId = ConceptId(0);
    const AGE: ConceptId = ConceptId(1);
    const COND: ConceptId = ConceptId(2);

    #[test]
    fn entities_persist_and_update() {
        let mut ctx = ConversationContext::new();
        ctx.begin_turn();
        ctx.put_entity(COND, "psoriasis");
        ctx.begin_turn();
        ctx.put_entity(AGE, "adult");
        assert_eq!(ctx.entity(COND), Some("psoriasis"));
        assert_eq!(ctx.entity(AGE), Some("adult"));
        // Incremental modification: "I mean pediatric".
        ctx.begin_turn();
        ctx.put_entity(AGE, "pediatric");
        assert_eq!(ctx.entity(AGE), Some("pediatric"));
        assert_eq!(ctx.entities.len(), 2, "no duplicate entries");
    }

    #[test]
    fn slot_checks() {
        let mut ctx = ConversationContext::new();
        ctx.put_entity(DRUG, "aspirin");
        assert!(ctx.has_all(&[DRUG]));
        assert!(!ctx.has_all(&[DRUG, AGE]));
        assert_eq!(ctx.first_missing(&[DRUG, AGE, COND]), Some(AGE));
        assert_eq!(ctx.first_missing(&[DRUG]), None);
    }

    #[test]
    fn intent_switch_clears_elicitation_only() {
        let mut ctx = ConversationContext::new();
        ctx.put_entity(COND, "psoriasis");
        ctx.set_intent(IntentId(1));
        ctx.eliciting = Some(AGE);
        // Same intent: elicitation survives.
        ctx.set_intent(IntentId(1));
        assert_eq!(ctx.eliciting, Some(AGE));
        // New intent: elicitation cleared, entities kept (context reuse).
        ctx.set_intent(IntentId(2));
        assert!(ctx.eliciting.is_none());
        assert_eq!(ctx.entity(COND), Some("psoriasis"));
    }

    #[test]
    fn intent_switch_drops_proposal_state() {
        let mut ctx = ConversationContext::new();
        ctx.proposal = Some(IntentId(5));
        ctx.rejected_proposals.push(IntentId(6));
        // Same intent set twice: the proposal survives the first call.
        ctx.set_intent(IntentId(1));
        assert!(ctx.proposal.is_none(), "switch to a new intent drops the offer");
        assert!(ctx.rejected_proposals.is_empty());
        ctx.proposal = Some(IntentId(7));
        ctx.set_intent(IntentId(1));
        assert_eq!(ctx.proposal, Some(IntentId(7)), "re-setting the same intent keeps it");
    }

    #[test]
    fn reset_topic_clears_entities_keeps_turns() {
        let mut ctx = ConversationContext::new();
        ctx.begin_turn();
        ctx.begin_turn();
        ctx.put_entity(DRUG, "aspirin");
        ctx.set_intent(IntentId(3));
        ctx.record_response("Here are the precautions", vec!["precaution".into()]);
        ctx.reset_topic();
        assert_eq!(ctx.turn, 2);
        assert!(ctx.intent.is_none());
        assert!(ctx.entities.is_empty());
        assert!(ctx.last_agent_response.is_none(), "abort forgets the last response");
        assert!(ctx.last_terms.is_empty());
    }

    #[test]
    fn response_recording() {
        let mut ctx = ConversationContext::new();
        ctx.record_response("Here are drugs: Effective: X", vec!["effective".into()]);
        assert!(ctx.last_agent_response.as_deref().unwrap().contains("drugs"));
        assert_eq!(ctx.last_terms, vec!["effective"]);
    }
}
