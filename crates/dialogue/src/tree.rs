//! The dialogue tree (paper §5, Fig. 10): the decision structure that maps
//! (detected intent, entities, context) to the agent's next action.
//!
//! The tree is generated from the [`DialogueLogicTable`] (domain nodes with
//! slot filling) and augmented with the [`ManagementCatalog`] (generic
//! conversation-management nodes). Evaluation is deterministic: management
//! patterns are checked first, then the domain intent with slot filling,
//! then entity-only proposals, then fallback.

use obcs_core::{ConversationSpace, IntentId};
use obcs_ontology::{ConceptId, Ontology};
use serde::{Deserialize, Serialize};

use crate::context::ConversationContext;
use crate::logic_table::DialogueLogicTable;
use crate::management::{ManagementAction, ManagementCatalog, ManagementPattern};

/// What the dialogue tree tells the engine to do next.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AgentAction {
    /// Say a fixed response (management patterns, repairs).
    Say { text: String },
    /// Ask the user for a missing required entity (slot filling).
    Elicit { intent: IntentId, concept: ConceptId, prompt: String },
    /// All required entities are present: execute the intent's templates
    /// and respond with results.
    Fulfill { intent: IntentId },
    /// Entity-only input: propose a dependent-concept intent and await
    /// yes/no (paper §6.1, User 480 transcript).
    Propose { intent: IntentId, text: String },
    /// The conversation is over (closing pattern matched).
    Close { text: String },
    /// Nothing matched.
    Fallback { text: String },
}

/// Inputs for one turn, produced by the engine's NLU (classifier + entity
/// recognition).
#[derive(Debug, Clone, Default)]
pub struct TurnInput {
    pub utterance: String,
    /// The detected domain intent, if its confidence cleared the engine's
    /// threshold.
    pub intent: Option<IntentId>,
    /// Entities recognised in the utterance.
    pub entities: Vec<(ConceptId, String)>,
}

/// A glossary term for definition-request repair (B2.5.0).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GlossaryEntry {
    pub term: String,
    pub definition: String,
}

/// The dialogue tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DialogueTree {
    pub logic: DialogueLogicTable,
    pub catalog: ManagementCatalog,
    /// Agent self-identification used in openings/closings.
    pub agent_name: String,
    /// Short description of what the agent can answer.
    pub capabilities: String,
    /// An example utterance offered on help requests.
    pub help_example: String,
    pub glossary: Vec<GlossaryEntry>,
    /// For entity-only intents: the ordered intents to propose for a
    /// concept (derived from completion metadata).
    pub proposals: Vec<(ConceptId, Vec<IntentId>)>,
    /// Map from entity-only intent to its concept.
    entity_only: Vec<(IntentId, ConceptId)>,
}

impl DialogueTree {
    /// Builds the tree from a bootstrapped conversation space (§5.2 steps
    /// 1–3).
    pub fn from_space(space: &ConversationSpace, onto: &Ontology, agent_name: &str) -> Self {
        let logic = DialogueLogicTable::from_space(space, onto);
        // Proposals: for each key concept, the lookup intents that require
        // it, in intent order.
        let mut proposals: Vec<(ConceptId, Vec<IntentId>)> = Vec::new();
        for &key in &space.key_concepts {
            let intents: Vec<IntentId> = space
                .intents
                .iter()
                .filter(|i| i.is_query() && i.required_entities == [key])
                .map(|i| i.id)
                .collect();
            if !intents.is_empty() {
                proposals.push((key, intents));
            }
        }
        let entity_only = space
            .intents
            .iter()
            .filter_map(|i| match i.goal {
                obcs_core::intents::IntentGoal::EntityOnly(c) => Some((i.id, c)),
                _ => None,
            })
            .collect();
        // Glossary from concept descriptions.
        let glossary = onto
            .concepts()
            .iter()
            .filter_map(|c| {
                c.description.as_ref().map(|d| GlossaryEntry {
                    term: crate::management::normalize(&obcs_nlq::annotate::split_camel(&c.name)),
                    definition: d.clone(),
                })
            })
            .collect();
        let capabilities = {
            let topics: Vec<String> = space
                .intents
                .iter()
                .filter(|i| i.is_query())
                .take(4)
                .map(|i| i.name.to_lowercase())
                .collect();
            topics.join(", ")
        };
        let help_example = space
            .training
            .first()
            .map(|e| e.text.clone())
            .unwrap_or_else(|| "show me information about an entity".to_string());
        DialogueTree {
            logic,
            catalog: ManagementCatalog::standard(),
            agent_name: agent_name.to_string(),
            capabilities,
            help_example,
            glossary,
            proposals,
            entity_only,
        }
    }

    /// Adds a glossary term (normalised).
    pub fn add_glossary(&mut self, term: &str, definition: &str) {
        self.glossary.push(GlossaryEntry {
            term: crate::management::normalize(term),
            definition: definition.to_string(),
        });
    }

    fn definition_of(&self, term: &str) -> Option<&str> {
        let norm = crate::management::normalize(term);
        self.glossary.iter().find(|g| g.term == norm).map(|g| g.definition.as_str())
    }

    /// Evaluates one turn (Fig. 10). Mutates the context (entities, active
    /// intent, pending elicitation/proposal) and returns the action.
    pub fn evaluate(&self, ctx: &mut ConversationContext, input: &TurnInput) -> AgentAction {
        self.evaluate_detected(ctx, input, self.catalog.detect(&input.utterance))
    }

    /// [`evaluate`](Self::evaluate) for a caller that has already run
    /// `self.catalog.detect` on the utterance this turn: `management` is
    /// its result, so the catalog is not scanned twice.
    pub fn evaluate_detected(
        &self,
        ctx: &mut ConversationContext,
        input: &TurnInput,
        management: Option<&ManagementPattern>,
    ) -> AgentAction {
        ctx.begin_turn();

        // 1. Conversation-management nodes (step-3 augmentation).
        if let Some(pattern) = management {
            match pattern.action {
                ManagementAction::Greeting => {
                    return AgentAction::Say {
                        text: pattern.response.replace("{agent}", &self.agent_name),
                    };
                }
                ManagementAction::CapabilityCheck | ManagementAction::HelpRequest => {
                    return AgentAction::Say {
                        text: pattern
                            .response
                            .replace("{capabilities}", &self.capabilities)
                            .replace("{example}", &format!("\"{}\"", self.help_example)),
                    };
                }
                ManagementAction::Appreciation | ManagementAction::Acknowledgement => {
                    ctx.proposal = None;
                    return AgentAction::Say { text: pattern.response.clone() };
                }
                ManagementAction::RepeatRequest | ManagementAction::ParaphraseRequest => {
                    let text = match &ctx.last_agent_response {
                        Some(prev) => pattern.response.replace("{repeat}", prev),
                        None => "I haven't said anything yet.".to_string(),
                    };
                    return AgentAction::Say { text };
                }
                ManagementAction::DefinitionRequest => {
                    if let Some(term) = ManagementCatalog::captured_term(pattern, &input.utterance)
                    {
                        if let Some(def) = self.definition_of(&term) {
                            return AgentAction::Say {
                                text: pattern
                                    .response
                                    .replace("{term}", &capitalize(&term))
                                    .replace("{definition}", def),
                            };
                        }
                        // Unknown term: fall through to domain handling —
                        // "what is aspirin" is a domain query, not a repair.
                    } else if let Some(prev) = &ctx.last_agent_response {
                        return AgentAction::Say {
                            text: format!("Let me put it differently: {prev}"),
                        };
                    }
                }
                ManagementAction::Abort => {
                    ctx.reset_topic();
                    return AgentAction::Say { text: pattern.response.clone() };
                }
                ManagementAction::Closing => {
                    return AgentAction::Close {
                        text: pattern.response.replace("{agent}", &self.agent_name),
                    };
                }
                ManagementAction::Affirm => {
                    if let Some(proposal) = ctx.proposal.take() {
                        ctx.set_intent(proposal);
                        return self.slot_fill(ctx, proposal);
                    }
                    return AgentAction::Say { text: "Great. What would you like to know?".into() };
                }
                ManagementAction::Deny => {
                    if let Some(rejected) = ctx.proposal.take() {
                        ctx.rejected_proposals.push(rejected);
                        return AgentAction::Say { text: "OK. Please modify your search.".into() };
                    }
                    return AgentAction::Close {
                        text: format!("Thank you for using {}. Goodbye.", self.agent_name),
                    };
                }
                ManagementAction::Chitchat
                | ManagementAction::Praise
                | ManagementAction::Complaint => {
                    return AgentAction::Say {
                        text: pattern.response.replace("{agent}", &self.agent_name),
                    };
                }
            }
        }

        // 2. Merge recognised entities into the persistent context.
        for (concept, value) in &input.entities {
            ctx.put_entity(*concept, value.clone());
        }

        // 3. Domain intent handling with slot filling.
        if let Some(intent_id) = input.intent {
            if let Some((_, concept)) = self.entity_only.iter().find(|(id, _)| *id == intent_id) {
                return self.propose_for(ctx, *concept);
            }
            ctx.set_intent(intent_id);
            return self.slot_fill(ctx, intent_id);
        }

        // 4. No intent, but the user supplied entities.
        if !input.entities.is_empty() {
            // Answering a pending elicitation (Fig. 10b) or incrementally
            // modifying the previous query (§6.3 "I mean pediatric").
            if let Some(active) = ctx.intent {
                ctx.eliciting = None;
                return self.slot_fill(ctx, active);
            }
            // Entity-only without a prior topic: propose (User 480 flow).
            let concept = input.entities[0].0;
            return self.propose_for(ctx, concept);
        }

        // 5. Fallback.
        AgentAction::Fallback {
            text: "I'm sorry, I didn't understand that. You can ask for help to see what I can do."
                .to_string(),
        }
    }

    /// Slot filling for a domain intent (Fig. 10): elicit the first missing
    /// required entity, else fulfill.
    fn slot_fill(&self, ctx: &mut ConversationContext, intent: IntentId) -> AgentAction {
        let Some(row) = self.logic.row(intent) else {
            return AgentAction::Fallback {
                text: "I recognised your request but cannot handle it yet.".to_string(),
            };
        };
        let required: Vec<ConceptId> = row.required.iter().map(|r| r.concept).collect();
        match ctx.first_missing(&required) {
            Some(missing) => {
                ctx.eliciting = Some(missing);
                let prompt = row
                    .required
                    .iter()
                    .find(|r| r.concept == missing)
                    .map(|r| r.elicitation.clone())
                    .expect("missing concept is in required list");
                AgentAction::Elicit { intent, concept: missing, prompt }
            }
            None => {
                ctx.eliciting = None;
                AgentAction::Fulfill { intent }
            }
        }
    }

    /// Proposes the next dependent intent for a key concept the user named
    /// without an intent.
    fn propose_for(&self, ctx: &mut ConversationContext, concept: ConceptId) -> AgentAction {
        let Some((_, intents)) = self.proposals.iter().find(|(c, _)| *c == concept) else {
            return AgentAction::Fallback {
                text: "I recognised that entity but have no further information about it."
                    .to_string(),
            };
        };
        let next = intents.iter().find(|i| !ctx.rejected_proposals.contains(i)).copied();
        match next {
            Some(intent) => {
                ctx.proposal = Some(intent);
                let name = self
                    .logic
                    .row(intent)
                    .map(|r| {
                        // "Precautions of Drug" reads as "precautions" when
                        // proposed about a specific drug.
                        let n = r.intent_name.to_lowercase();
                        n.trim_end_matches(" of drug").trim_end_matches(" for drug").to_string()
                    })
                    .unwrap_or_default();
                let value = ctx.entity(concept).unwrap_or("it").to_string();
                AgentAction::Propose {
                    intent,
                    text: format!("Would you like to see the {name} of {value}?"),
                }
            }
            None => {
                ctx.rejected_proposals.clear();
                AgentAction::Say { text: "OK. Please modify your search.".to_string() }
            }
        }
    }
}

fn capitalize(s: &str) -> String {
    let mut c = s.chars();
    match c.next() {
        Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obcs_core::testutil::fig2_fixture;
    use obcs_core::{bootstrap, BootstrapConfig, SmeFeedback};

    fn tree() -> (Ontology, ConversationSpace, DialogueTree) {
        let (mut onto, kb, mapping) = fig2_fixture();
        let drug = onto.concept_id("Drug").unwrap();
        onto.set_description(drug, "a substance used to treat a condition").unwrap();
        let sme = SmeFeedback::new().entity_only(drug);
        let space = bootstrap(&onto, &kb, &mapping, BootstrapConfig::default(), &sme);
        let tree = DialogueTree::from_space(&space, &onto, "Micromedex");
        (onto, space, tree)
    }

    fn turn(
        intent: Option<IntentId>,
        utterance: &str,
        entities: &[(ConceptId, &str)],
    ) -> TurnInput {
        TurnInput {
            utterance: utterance.to_string(),
            intent,
            entities: entities.iter().map(|&(c, v)| (c, v.to_string())).collect(),
        }
    }

    #[test]
    fn greeting_identifies_agent() {
        let (_, _, tree) = tree();
        let mut ctx = ConversationContext::new();
        let action = tree.evaluate(&mut ctx, &turn(None, "hello", &[]));
        match action {
            AgentAction::Say { text } => assert!(text.contains("Micromedex")),
            other => panic!("expected Say, got {other:?}"),
        }
    }

    #[test]
    fn slot_filling_elicits_then_fulfills() {
        let (onto, space, tree) = tree();
        let drug = onto.concept_id("Drug").unwrap();
        let prec = space.intent_by_name("Precautions of Drug").unwrap();
        let mut ctx = ConversationContext::new();
        // "show me precautions" without a drug: elicit (Fig. 10a).
        let action = tree.evaluate(&mut ctx, &turn(Some(prec.id), "show me precautions", &[]));
        match action {
            AgentAction::Elicit { concept, prompt, .. } => {
                assert_eq!(concept, drug);
                assert_eq!(prompt, "For which drug?");
            }
            other => panic!("expected Elicit, got {other:?}"),
        }
        // The user answers with a bare entity (Fig. 10b).
        let action = tree.evaluate(&mut ctx, &turn(None, "aspirin", &[(drug, "Aspirin")]));
        assert_eq!(action, AgentAction::Fulfill { intent: prec.id });
    }

    #[test]
    fn complete_request_fulfills_immediately() {
        let (onto, space, tree) = tree();
        let drug = onto.concept_id("Drug").unwrap();
        let prec = space.intent_by_name("Precautions of Drug").unwrap();
        let mut ctx = ConversationContext::new();
        let action = tree.evaluate(
            &mut ctx,
            &turn(Some(prec.id), "precautions for aspirin", &[(drug, "Aspirin")]),
        );
        assert_eq!(action, AgentAction::Fulfill { intent: prec.id });
    }

    #[test]
    fn incremental_modification_refires_intent() {
        let (onto, space, tree) = tree();
        let drug = onto.concept_id("Drug").unwrap();
        let prec = space.intent_by_name("Precautions of Drug").unwrap();
        let mut ctx = ConversationContext::new();
        tree.evaluate(
            &mut ctx,
            &turn(Some(prec.id), "precautions for aspirin", &[(drug, "Aspirin")]),
        );
        // "how about for Ibuprofen?" — entity only, intent persists (§6.3).
        let action =
            tree.evaluate(&mut ctx, &turn(None, "how about for ibuprofen", &[(drug, "Ibuprofen")]));
        assert_eq!(action, AgentAction::Fulfill { intent: prec.id });
        assert_eq!(ctx.entity(drug), Some("Ibuprofen"));
    }

    #[test]
    fn definition_repair_uses_glossary() {
        let (_, _, mut tree) = tree();
        tree.add_glossary(
            "effective",
            "the capacity for beneficial change of a given intervention.",
        );
        let mut ctx = ConversationContext::new();
        let action = tree.evaluate(&mut ctx, &turn(None, "what do you mean by effective?", &[]));
        match action {
            AgentAction::Say { text } => {
                assert!(text.contains("Effective is the capacity"), "{text}");
            }
            other => panic!("expected Say, got {other:?}"),
        }
    }

    #[test]
    fn repeat_repair_replays_last_response() {
        let (_, _, tree) = tree();
        let mut ctx = ConversationContext::new();
        ctx.record_response("Here are the drugs: A, B", vec![]);
        let action = tree.evaluate(&mut ctx, &turn(None, "what did you say?", &[]));
        match action {
            AgentAction::Say { text } => assert!(text.contains("Here are the drugs")),
            other => panic!("expected Say, got {other:?}"),
        }
    }

    #[test]
    fn entity_only_proposal_flow_like_user_480() {
        let (onto, space, tree) = tree();
        let drug = onto.concept_id("Drug").unwrap();
        let general = space.intent_by_name("DRUG_GENERAL").unwrap();
        let mut ctx = ConversationContext::new();
        // "cogentin" — entity-only intent detected.
        let action =
            tree.evaluate(&mut ctx, &turn(Some(general.id), "aspirin", &[(drug, "Aspirin")]));
        let first_proposal = match action {
            AgentAction::Propose { intent, text } => {
                assert!(text.contains("Would you like to see"), "{text}");
                assert!(text.contains("Aspirin"), "{text}");
                intent
            }
            other => panic!("expected Propose, got {other:?}"),
        };
        // "no" → rejection prompt.
        let action = tree.evaluate(&mut ctx, &turn(None, "no", &[]));
        assert_eq!(action, AgentAction::Say { text: "OK. Please modify your search.".into() });
        // Mentioning the entity again proposes a *different* intent.
        let action = tree.evaluate(&mut ctx, &turn(None, "aspirin", &[(drug, "Aspirin")]));
        match action {
            AgentAction::Propose { intent, .. } => assert_ne!(intent, first_proposal),
            other => panic!("expected second Propose, got {other:?}"),
        }
        // "yes" → fulfilment of the proposed intent.
        let action = tree.evaluate(&mut ctx, &turn(None, "yes", &[]));
        match action {
            AgentAction::Fulfill { .. } => {}
            other => panic!("expected Fulfill, got {other:?}"),
        }
    }

    #[test]
    fn abort_resets_topic() {
        let (onto, space, tree) = tree();
        let drug = onto.concept_id("Drug").unwrap();
        let prec = space.intent_by_name("Precautions of Drug").unwrap();
        let mut ctx = ConversationContext::new();
        tree.evaluate(
            &mut ctx,
            &turn(Some(prec.id), "precautions for aspirin", &[(drug, "Aspirin")]),
        );
        tree.evaluate(&mut ctx, &turn(None, "never mind", &[]));
        assert!(ctx.intent.is_none());
        assert!(ctx.entities.is_empty());
    }

    #[test]
    fn closing_and_fallback() {
        let (_, _, tree) = tree();
        let mut ctx = ConversationContext::new();
        let action = tree.evaluate(&mut ctx, &turn(None, "goodbye", &[]));
        assert!(matches!(action, AgentAction::Close { .. }));
        let action = tree.evaluate(&mut ctx, &turn(None, "apfjhd", &[]));
        assert!(matches!(action, AgentAction::Fallback { .. }));
    }

    #[test]
    fn help_mentions_capabilities_and_example() {
        let (_, _, tree) = tree();
        let mut ctx = ConversationContext::new();
        let action = tree.evaluate(&mut ctx, &turn(None, "help", &[]));
        match action {
            AgentAction::Say { text } => {
                assert!(text.contains("You can ask me about"), "{text}");
            }
            other => panic!("expected Say, got {other:?}"),
        }
    }
}
