//! The conversation engine: ties NLU, the dialogue tree, prepared
//! template queries, KB execution, and NLG into a single `respond` loop —
//! the fully automated online process of the paper's Figure 1(b).
//!
//! Everything a session only reads — the trained NLU (classifier weights
//! and entity lexicon), the ontology, the mapping, the conversation
//! space, the dialogue tree, the KB's tables and the queries prepared
//! against them — is held behind an [`Arc`]:
//! [`ConversationAgent::fork_session`] stamps out an independent session
//! (own context, own log) that *shares* all of it, so a
//! fork costs a handful of reference-count increments whatever the size
//! of the domain. That is the mechanism the traffic replay uses to run
//! shards on separate threads and the server uses to open a session per
//! first contact. The rare mutators (`tree_mut`, `retrain_with`, the KB
//! writers) copy on write, so they never reach a live fork.

use std::sync::Arc;

use obcs_cache::CacheStats;
use obcs_core::{ConversationSpace, IntentId};
use obcs_dialogue::tree::TurnInput;
use obcs_dialogue::{AgentAction, ConversationContext, DialogueTree};
use obcs_faults::{
    run_resilient, FaultInjector, FaultStage, InjectedFault, NoFaults, ObcsError, Recovery,
    ResilienceConfig,
};
use obcs_kb::{KnowledgeBase, Value};
use obcs_nlq::OntologyMapping;
use obcs_ontology::{ConceptId, Ontology};
use obcs_telemetry::{metric, stage, Clock, NoopRecorder, Recorder, TickClock};
use serde::{Deserialize, Serialize};

use crate::log::{Feedback, InteractionLog, InteractionRecord};
use crate::nlg;
use crate::nlu::Nlu;
use crate::prepared::{PreparedQueries, PreparedQuery, MAX_FILTERING_OPTIONALS};

/// Engine configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AgentConfig {
    /// Agent display name used in openings/closings.
    pub name: String,
    /// Minimum classifier confidence for a domain intent to be accepted.
    pub intent_confidence_threshold: f64,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig { name: "Assistant".to_string(), intent_confidence_threshold: 0.35 }
    }
}

/// The kind of reply the agent produced (flattened dialogue action).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplyKind {
    Management,
    Elicitation,
    Fulfilment,
    Proposal,
    Disambiguation,
    Fallback,
    Closing,
    /// A system fault (KB, classifier, annotator, …) could not be
    /// recovered within the turn's retry/deadline policy; the reply is an
    /// apology/fallback rather than a panic or a silent empty answer
    /// (DESIGN.md §11).
    Degraded,
}

/// One agent reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgentReply {
    pub text: String,
    pub kind: ReplyKind,
    pub intent: Option<IntentId>,
    pub confidence: Option<f64>,
    /// Whether fulfilment found any rows (true for non-fulfilment kinds).
    pub found_results: bool,
}

/// Inert: the KB keeps no cache, so both layers read zero. Kept beside
/// [`ConversationAgent::cache_stats`] only because servebench reads it;
/// it goes with servebench's next benchmark change.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KbCacheStats {
    /// Always zero.
    pub plan: CacheStats,
    /// Always zero.
    pub result: CacheStats,
}

/// Inert: the NLU keeps no memo, so both layers read zero. Kept beside
/// [`ConversationAgent::cache_stats`] only because servebench reads it;
/// it goes with servebench's next benchmark change.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NluMemoStats {
    /// Always zero.
    pub classify: CacheStats,
    /// Always zero.
    pub recognize: CacheStats,
}

/// The online conversation agent.
pub struct ConversationAgent {
    onto: Arc<Ontology>,
    kb: KnowledgeBase,
    mapping: Arc<OntologyMapping>,
    space: Arc<ConversationSpace>,
    tree: Arc<DialogueTree>,
    nlu: Arc<Nlu>,
    /// Every query a fulfilment can issue, bound against `kb` once.
    prepared: Arc<PreparedQueries>,
    ctx: ConversationContext,
    pub log: InteractionLog,
    config: AgentConfig,
    /// Pending partial-name candidates awaiting user choice (§6.1).
    pending_disambiguation: Vec<(ConceptId, String)>,
    /// Consecutive turns the pending candidates went unmatched; after one
    /// repair re-prompt the engine gives up and processes the turn
    /// normally instead of looping forever.
    disambiguation_misses: u8,
    /// Telemetry sink for the turn pipeline (DESIGN.md §10). Defaults to
    /// the zero-cost [`NoopRecorder`].
    recorder: Arc<dyn Recorder>,
    /// Fault injector for chaos replays (DESIGN.md §11). Defaults to
    /// [`NoFaults`], so production turns pay one virtual dispatch per
    /// injection point and nothing else.
    faults: Arc<dyn FaultInjector>,
    /// Retry/backoff/deadline policy applied when a stage faults.
    resilience: ResilienceConfig,
    /// Per-session virtual clock driving retry backoff and the turn
    /// budget. A fresh tick clock per fork, read only by this session's
    /// turns, so all elapsed-tick measurements are a pure function of the
    /// turn's call structure — deterministic at any replay parallelism.
    chaos_clock: TickClock,
}

// Serving shares one base agent across connection threads and forks it
// without a lock; keep that possible.
const _: fn() = || {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<ConversationAgent>();
};

impl ConversationAgent {
    /// Assembles the agent from a bootstrapped conversation space.
    pub fn new(
        onto: Ontology,
        kb: KnowledgeBase,
        mapping: OntologyMapping,
        space: ConversationSpace,
        config: AgentConfig,
    ) -> Self {
        let tree = DialogueTree::from_space(&space, &onto, &config.name);
        let nlu = Arc::new(Nlu::from_space(&space, &onto, &kb, &mapping));
        let prepared = Arc::new(PreparedQueries::new(&space, &onto, &kb, &mapping));
        ConversationAgent {
            onto: Arc::new(onto),
            kb,
            mapping: Arc::new(mapping),
            space: Arc::new(space),
            tree: Arc::new(tree),
            nlu,
            prepared,
            ctx: ConversationContext::new(),
            log: InteractionLog::new(),
            config,
            pending_disambiguation: Vec::new(),
            disambiguation_misses: 0,
            recorder: Arc::new(NoopRecorder),
            faults: Arc::new(NoFaults),
            resilience: ResilienceConfig::default(),
            chaos_clock: TickClock::new(),
        }
    }

    /// Installs a fault injector; every subsequent turn consults it at
    /// each injection point (annotate, classify, kb_execute). Pass
    /// [`PlannedFaults`](obcs_faults::PlannedFaults) for chaos replays;
    /// the default is the inert [`NoFaults`].
    pub fn set_fault_injector(&mut self, faults: Arc<dyn FaultInjector>) {
        self.faults = faults;
    }

    /// Sets the retry/backoff/deadline policy for degraded turns.
    pub fn set_resilience(&mut self, config: ResilienceConfig) {
        self.resilience = config;
    }

    /// The active resilience policy.
    pub fn resilience(&self) -> ResilienceConfig {
        self.resilience
    }

    /// The agent's construction config (display name, confidence
    /// threshold) — read-only; serving layers use it to identify the
    /// engine on the wire.
    pub fn config(&self) -> &AgentConfig {
        &self.config
    }

    /// The agent's knowledge base — read-only; the durable serving layer
    /// snapshots it when a durability directory is first created.
    pub fn kb(&self) -> &KnowledgeBase {
        &self.kb
    }

    /// Replaces the agent's knowledge base, e.g. with one recovered from
    /// a snapshot + WAL (DESIGN.md §16), and prepares the fulfilment
    /// queries against it. The conversation space, NLU, and dialogue tree
    /// are untouched: they are derived from the schema and instance
    /// names, which recovery restores identically — a recovered KB with
    /// the same data yields byte-identical replies. Forks taken earlier
    /// keep the KB and the prepared queries they were forked with.
    pub fn set_kb(&mut self, kb: KnowledgeBase) {
        self.prepared = Arc::new(PreparedQueries::new(&self.space, &self.onto, &kb, &self.mapping));
        self.kb = kb;
    }

    /// The queries fulfilments issue, prepared against this agent's KB.
    pub fn prepared_queries(&self) -> &PreparedQueries {
        &self.prepared
    }

    /// Installs a telemetry recorder; every subsequent turn records spans
    /// and counters through it. Pass an `Arc<CollectingRecorder>` handle
    /// you keep, then drain it with `take_report` (DESIGN.md §10).
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.recorder = recorder;
    }

    /// The currently installed telemetry recorder handle.
    pub fn recorder(&self) -> Arc<dyn Recorder> {
        Arc::clone(&self.recorder)
    }

    /// The dialogue tree (read-only).
    pub fn tree(&self) -> &DialogueTree {
        &self.tree
    }

    /// Access to the dialogue tree for customisation (glossary, prompts).
    /// Forks taken earlier keep the tree they were forked with: the first
    /// call after a fork copies the tree.
    pub fn tree_mut(&mut self) -> &mut DialogueTree {
        Arc::make_mut(&mut self.tree)
    }

    /// Access to the NLU for synonym registration. Only available while
    /// this agent is the sole owner — customise the NLU *before* forking
    /// sessions off it.
    pub fn nlu_mut(&mut self) -> &mut Nlu {
        Arc::get_mut(&mut self.nlu)
            .expect("NLU is shared by forked sessions; customise before forking")
    }

    /// The shared trained NLU (cheap to clone the handle).
    pub fn shared_nlu(&self) -> Arc<Nlu> {
        Arc::clone(&self.nlu)
    }

    /// Inert: the pipeline keeps no cache to switch (DESIGN.md §12).
    /// Kept only because servebench still calls it; it goes with
    /// servebench's next benchmark change.
    pub fn set_caching(&mut self, _enabled: bool) {}

    /// Inert: all-zero counters, since the pipeline keeps no cache
    /// (DESIGN.md §12). Kept only because servebench still reads them; it
    /// goes with servebench's next benchmark change.
    pub fn cache_stats(&self) -> (KbCacheStats, NluMemoStats) {
        (KbCacheStats::default(), NluMemoStats::default())
    }

    /// Stamps out an independent conversation session. The fork shares
    /// this agent's trained NLU, ontology, mapping, conversation space,
    /// dialogue tree, KB tables and prepared queries (no retraining, no
    /// copy: the cost is a few reference-count increments at any KB
    /// size), while its context, pending disambiguation and log start
    /// fresh. Later mutations on either side copy on write and never
    /// reach the other.
    /// Forks are `Send` — the traffic replay runs one per shard thread.
    pub fn fork_session(&self) -> ConversationAgent {
        ConversationAgent {
            onto: Arc::clone(&self.onto),
            kb: self.kb.clone(),
            mapping: Arc::clone(&self.mapping),
            space: Arc::clone(&self.space),
            tree: Arc::clone(&self.tree),
            nlu: Arc::clone(&self.nlu),
            prepared: Arc::clone(&self.prepared),
            ctx: ConversationContext::new(),
            log: InteractionLog::new(),
            config: self.config.clone(),
            pending_disambiguation: Vec::new(),
            disambiguation_misses: 0,
            recorder: Arc::clone(&self.recorder),
            faults: Arc::clone(&self.faults),
            resilience: self.resilience,
            chaos_clock: TickClock::new(),
        }
    }

    /// The conversation space the agent serves.
    pub fn space(&self) -> &ConversationSpace {
        &self.space
    }

    /// The current conversation context (inspection/testing).
    pub fn context(&self) -> &ConversationContext {
        &self.ctx
    }

    /// Clears the conversation (new session); the log is kept.
    pub fn reset(&mut self) {
        self.ctx = ConversationContext::new();
        self.pending_disambiguation.clear();
        self.disambiguation_misses = 0;
    }

    /// Records user feedback on the last reply.
    pub fn feedback(&mut self, feedback: Feedback) {
        self.log.feedback_on_last(feedback);
    }

    /// Learning from usage logs — the paper's stated next step (§9:
    /// "learning from the system usage logs, and using that as a feedback
    /// to further improve the system"). SMEs review logged utterances
    /// (typically the thumbs-down ones), label them with the intended
    /// intent, and the labelled pairs are folded into the training set;
    /// the NLU is retrained in place. Unknown intent names are returned
    /// untouched.
    pub fn retrain_with(&mut self, labelled: &[(String, String)]) -> Vec<String> {
        use obcs_core::training::{ExampleSource, TrainingExample};
        let mut unknown = Vec::new();
        let mut added = false;
        for (utterance, intent_name) in labelled {
            match self.space.intent_by_name(intent_name).map(|i| i.id) {
                Some(intent) => {
                    // Copy on write: forks keep the space they were
                    // forked with.
                    Arc::make_mut(&mut self.space).training.push(TrainingExample {
                        text: utterance.clone(),
                        intent,
                        source: ExampleSource::SmeAugmented,
                    });
                    added = true;
                }
                None => unknown.push(intent_name.clone()),
            }
        }
        if added {
            // Rebuild the NLU over the augmented training set; dialogue
            // tree and templates are unaffected. Existing forks keep the
            // old NLU — retraining swaps the Arc, it never mutates through
            // it.
            self.nlu = Arc::new(Nlu::from_space(&self.space, &self.onto, &self.kb, &self.mapping));
        }
        unknown
    }

    /// The utterances of interactions the user flagged negative — the raw
    /// material the SME labels for [`ConversationAgent::retrain_with`].
    pub fn negative_utterances(&self) -> Vec<&str> {
        self.log
            .records
            .iter()
            .filter(|r| r.feedback == Some(Feedback::ThumbsDown))
            .map(|r| r.utterance.as_str())
            .collect()
    }

    /// Handles one user utterance and produces the agent's reply.
    pub fn respond(&mut self, utterance: &str) -> AgentReply {
        // Hold a local handle so span guards can borrow the recorder while
        // `&mut self` stays free for the pipeline below.
        let rec = Arc::clone(&self.recorder);
        let _turn = obcs_telemetry::span(&*rec, stage::TURN);
        // Anchor of this turn's deadline budget; all resilience decisions
        // measure elapsed ticks against it (DESIGN.md §11).
        let turn_start = self.chaos_clock.now();
        // Management patterns outrank entity heuristics: "hi" must greet,
        // not fuzzy-match a drug name. Detection reads only the utterance,
        // so it runs first and spares a handled turn the partial-name scan.
        let tree = Arc::clone(&self.tree);
        let management = tree.catalog.detect(utterance);
        let catalog_handles = management.is_some();
        // --- NLU ---
        let annotate_fault = self.faults.inject(FaultStage::Annotate, utterance);
        if let Some(f) = annotate_fault {
            rec.incr(metric::FAULTS, f.kind.label());
        }
        let annotated = run_resilient(
            FaultStage::Annotate,
            annotate_fault,
            &self.resilience,
            &self.chaos_clock,
            turn_start,
            &*rec,
            || Ok::<_, ObcsError>(self.nlu.recognize_traced(utterance, !catalog_handles, &*rec)),
        );
        let mut recognized = match annotated {
            Ok((r, recovery)) => {
                if let Recovery::Recovered(kind) = recovery {
                    rec.incr(metric::FAULT_RECOVERED, kind.label());
                }
                r
            }
            Err(err) => return self.degrade(utterance, &err, None, None),
        };
        // Resolve a pending partial-name disambiguation: the user's next
        // input picks one of the offered candidates.
        if !self.pending_disambiguation.is_empty() {
            // Full entity mentions that name a pending candidate.
            let mut matched: Vec<(ConceptId, String)> = recognized
                .instances
                .iter()
                .filter(|(c, v)| {
                    self.pending_disambiguation.iter().any(|(pc, pv)| pc == c && pv == v)
                })
                .cloned()
                .collect();
            // Otherwise a fragment reply ("the extra-strength one")
            // selects candidates by substring.
            if matched.is_empty() {
                let norm = utterance.trim().to_lowercase();
                if !norm.is_empty() {
                    matched = self
                        .pending_disambiguation
                        .iter()
                        .filter(|(_, v)| v.to_lowercase().contains(&norm))
                        .cloned()
                        .collect();
                }
            }
            if matched.len() == 1 {
                let (concept, value) = matched.swap_remove(0);
                self.pending_disambiguation.clear();
                self.disambiguation_misses = 0;
                if !recognized.instances.iter().any(|(c, _)| *c == concept) {
                    recognized.instances.push((concept, value));
                }
            } else if matched.len() > 1 {
                // Still ambiguous: narrow to the matched subset and
                // re-prompt instead of silently picking the first.
                let names: Vec<&str> = matched.iter().map(|(_, v)| v.as_str()).collect();
                let text = format!(
                    "That still matches several options: {}. Which one do you mean?",
                    names.join(", ")
                );
                self.pending_disambiguation = matched;
                self.disambiguation_misses = 0;
                return self.record(
                    utterance,
                    AgentReply {
                        text,
                        kind: ReplyKind::Disambiguation,
                        intent: None,
                        confidence: None,
                        found_results: true,
                    },
                );
            } else if !recognized.instances.is_empty() || catalog_handles {
                // A reply naming other entities or a management phrase is
                // a topic change — drop the pending question and move on.
                self.pending_disambiguation.clear();
                self.disambiguation_misses = 0;
            } else if self.disambiguation_misses == 0 {
                // Nothing matched: repair once, keeping the candidates on
                // the table for one more turn.
                self.disambiguation_misses = 1;
                let names: Vec<&str> =
                    self.pending_disambiguation.iter().map(|(_, v)| v.as_str()).collect();
                let text = format!(
                    "Sorry, I didn't catch which one you meant. The options are: {}. Which one?",
                    names.join(", ")
                );
                return self.record(
                    utterance,
                    AgentReply {
                        text,
                        kind: ReplyKind::Disambiguation,
                        intent: None,
                        confidence: None,
                        found_results: true,
                    },
                );
            } else {
                // Second miss: give up on the offer and process the turn
                // normally.
                self.pending_disambiguation.clear();
                self.disambiguation_misses = 0;
            }
        }

        // Partial-name disambiguation (§6.1): nothing fully matched but a
        // fragment matches known instances.
        if recognized.instances.is_empty() && !catalog_handles {
            if let Some((fragment, candidates)) = recognized.partial.clone() {
                if candidates.len() == 1 {
                    recognized.instances.push(candidates[0].clone());
                } else {
                    let names: Vec<&str> = candidates.iter().map(|(_, v)| v.as_str()).collect();
                    let text = format!(
                        "I found several matches for \"{fragment}\": {}. Which one do you mean?",
                        names.join(", ")
                    );
                    self.pending_disambiguation = candidates;
                    return self.record(
                        utterance,
                        AgentReply {
                            text,
                            kind: ReplyKind::Disambiguation,
                            intent: None,
                            confidence: None,
                            found_results: true,
                        },
                    );
                }
            }
        }

        let classify_fault = self.faults.inject(FaultStage::Classify, utterance);
        if let Some(f) = classify_fault {
            rec.incr(metric::FAULTS, f.kind.label());
        }
        let classify_outcome = run_resilient(
            FaultStage::Classify,
            classify_fault,
            &self.resilience,
            &self.chaos_clock,
            turn_start,
            &*rec,
            || Ok::<_, ObcsError>(self.nlu.classify_masked(&recognized.masked, &*rec)),
        );
        let classified = match classify_outcome {
            Ok((c, recovery)) => {
                if let Recovery::Recovered(kind) = recovery {
                    rec.incr(metric::FAULT_RECOVERED, kind.label());
                }
                c
            }
            Err(err) => return self.degrade(utterance, &err, None, None),
        };
        if let Some((id, conf)) = classified {
            if let Some(intent) = self.space.intent(id) {
                rec.observe_ratio(metric::CONFIDENCE, &intent.name, conf);
            }
        }
        // Incremental specifications (paper §6.3): an utterance that is
        // nothing but entity mentions plus filler ("Ibuprofen", "how about
        // for Fluocinonide?") carries no intent of its own — it operates on
        // the previous request (or triggers the entity-only proposal flow),
        // so the classifier's guess is suppressed.
        let entity_dominant = crate::nlu::is_entity_dominant(utterance, &recognized.instances);
        let mut accepted = classified
            .filter(|&(_, conf)| conf >= self.config.intent_confidence_threshold)
            .map(|(id, _)| id)
            .filter(|_| !entity_dominant);
        let confidence = classified.map(|(_, c)| c);
        if confidence.is_some_and(|c| c < self.config.intent_confidence_threshold) {
            rec.incr(metric::REPAIR, "low_confidence");
        }

        // Concept-guided resolution: when the classifier is unsure but the
        // utterance names a dependent concept ("moa of Albuterol",
        // "precautions"), the concept anchors the intent — the paper's
        // intent+entity model, where each lookup intent is grounded on one
        // dependent concept.
        if accepted.is_none() && !entity_dominant {
            accepted = self.resolve_by_concepts(&recognized);
        }

        // Classifier-detected conversation-management intents (phrasings
        // the rule catalog missed) answer with their canned response, but
        // only at high confidence — the rule catalog already covers the
        // common phrasings, and a borderline management guess must not
        // swallow a domain query.
        let strong_management = confidence.is_some_and(|c| c >= 0.5);
        if let (Some(id), false, true) = (accepted, catalog_handles, strong_management) {
            if let Some(intent) = self.space.intent(id) {
                if matches!(intent.goal, obcs_core::intents::IntentGoal::ConversationManagement) {
                    let text = intent.response_template.replace("{agent}", &self.config.name);
                    let reply = AgentReply {
                        text,
                        kind: ReplyKind::Management,
                        intent: Some(id),
                        confidence,
                        found_results: true,
                    };
                    self.ctx.begin_turn();
                    return self.record(utterance, reply);
                }
            }
        }

        // --- Dialogue ---
        let input = TurnInput {
            utterance: utterance.to_string(),
            intent: accepted,
            entities: recognized.instances,
        };
        let action = {
            let _eval = obcs_telemetry::span(&*rec, stage::DIALOGUE_EVAL);
            tree.evaluate_detected(&mut self.ctx, &input, management)
        };

        // --- Action execution ---
        let reply = match action {
            AgentAction::Say { text } => AgentReply {
                text,
                kind: ReplyKind::Management,
                intent: accepted,
                confidence,
                found_results: true,
            },
            AgentAction::Close { text } => AgentReply {
                text,
                kind: ReplyKind::Closing,
                intent: accepted,
                confidence,
                found_results: true,
            },
            AgentAction::Fallback { text } => AgentReply {
                text,
                kind: ReplyKind::Fallback,
                intent: None,
                confidence,
                found_results: false,
            },
            AgentAction::Elicit { intent, prompt, .. } => AgentReply {
                text: prompt,
                kind: ReplyKind::Elicitation,
                intent: Some(intent),
                confidence,
                found_results: true,
            },
            AgentAction::Propose { intent, text } => AgentReply {
                text,
                kind: ReplyKind::Proposal,
                intent: Some(intent),
                confidence,
                found_results: true,
            },
            AgentAction::Fulfill { intent } => {
                match self.fulfill(intent, confidence, utterance, turn_start) {
                    Ok(reply) => reply,
                    Err(err) => return self.degrade(utterance, &err, Some(intent), confidence),
                }
            }
        };
        self.record(utterance, reply)
    }

    /// Executes an intent's prepared queries with the context entities
    /// and builds the fulfilment response. System faults (injected or
    /// real) that survive the retry policy bubble up as [`ObcsError`]s;
    /// `respond` turns them into a degraded reply.
    fn fulfill(
        &mut self,
        intent_id: IntentId,
        confidence: Option<f64>,
        utterance: &str,
        turn_start: u64,
    ) -> Result<AgentReply, ObcsError> {
        let rec = Arc::clone(&self.recorder);
        // Borrowed through handles on the shared space and prepared set,
        // so `self` stays free for the mutable calls below without
        // copying the intent.
        let space = Arc::clone(&self.space);
        let prepared = Arc::clone(&self.prepared);
        let Some(intent) = space.intent(intent_id) else {
            // Historically a stringly "Internal error" fallback; now a
            // typed engine fault that degrades like any other.
            return Err(ObcsError::UnknownIntent(format!("{intent_id:?}")));
        };
        // One injection decision per fulfilment, keyed on the utterance:
        // every KB query this turn issues shares the same (deterministic)
        // fault, and fault/recovery accounting happens exactly once.
        let kb_fault = self.faults.inject(FaultStage::KbExecute, utterance);
        let mut kb_fault_accounted = false;
        // Optional entities (paper Tables 3-4): captured when present but
        // never elicited. When one is in the context, the queries with its
        // extra filter run instead of the static templates (e.g. "severe
        // adverse effects of aspirin" filters the AdverseEffect lookup by
        // Severity).
        let optional_present = intent
            .optional_entities
            .iter()
            .take(MAX_FILTERING_OPTIONALS)
            .enumerate()
            .filter(|(_, c)| self.ctx.entity(**c).is_some())
            .fold(0usize, |mask, (k, _)| mask | 1 << k);
        let mut sections: Vec<(&str, obcs_kb::ResultSet)> = Vec::new();
        if optional_present != 0 {
            for query in prepared.get(intent_id, optional_present) {
                let rs = self.run_prepared(
                    query,
                    stage::NLQ_INTERPRET,
                    kb_fault,
                    &mut kb_fault_accounted,
                    turn_start,
                    &*rec,
                )?;
                sections.extend(rs.map(|rs| (query.topic.as_str(), rs)));
            }
        }
        if sections.is_empty() {
            for query in prepared.get(intent_id, 0) {
                let rs = self.run_prepared(
                    query,
                    stage::TEMPLATE_INSTANTIATE,
                    kb_fault,
                    &mut kb_fault_accounted,
                    turn_start,
                    &*rec,
                )?;
                sections.extend(rs.map(|rs| (query.topic.as_str(), rs)));
            }
        }
        let found = sections.iter().any(|(_, r)| !r.rows.is_empty());
        let text = if sections.is_empty() {
            format!("I cannot answer {} requests against this knowledge base yet.", intent.name)
        } else {
            let mut entities = String::new();
            for value in intent.required_entities.iter().filter_map(|&c| self.ctx.entity(c)) {
                if !entities.is_empty() {
                    entities.push_str(", ");
                }
                entities.push_str(value);
            }
            if entities.is_empty() {
                entities.push_str("your request");
            }
            let rendered = {
                let _nlg = obcs_telemetry::span(&*rec, stage::NLG);
                nlg::render_merged(&sections)
            };
            nlg::fill_response(&intent.response_template, &entities, &rendered)
        };
        // Record terms for definition repair.
        self.ctx.record_response(&text, vec![intent.name.to_lowercase()]);
        Ok(AgentReply {
            text,
            kind: ReplyKind::Fulfilment,
            intent: Some(intent_id),
            confidence,
            found_results: found,
        })
    }

    /// Runs one prepared query with its parameters filled from the
    /// context, under a `fill` span, through the resilience policy.
    /// `Ok(None)` skips the query: a parameter whose concept has no value
    /// in the context (no span, no count), or a real (non-injected) KB
    /// error, a plan that failed to prepare included — those keep the
    /// historical template-skip semantics, counted under
    /// `pipeline_error`. `Err` is an unrecovered injected fault or an
    /// exhausted budget, which degrades the whole turn. The `accounted`
    /// flag makes fault/recovery counters fire once per fulfilment even
    /// when several queries run.
    fn run_prepared(
        &self,
        query: &PreparedQuery,
        fill: &'static str,
        fault: Option<InjectedFault>,
        accounted: &mut bool,
        turn_start: u64,
        rec: &dyn Recorder,
    ) -> Result<Option<obcs_kb::ResultSet>, ObcsError> {
        if !self.ctx.has_all(&query.params) {
            return Ok(None);
        }
        let params: Vec<Value> = {
            let _fill = obcs_telemetry::span(rec, fill);
            query.params.iter().filter_map(|&c| self.ctx.entity(c)).map(Value::text).collect()
        };
        let first = !*accounted;
        *accounted = true;
        if first {
            if let Some(f) = fault {
                rec.incr(metric::FAULTS, f.kind.label());
            }
        }
        let outcome = run_resilient(
            FaultStage::KbExecute,
            fault,
            &self.resilience,
            &self.chaos_clock,
            turn_start,
            rec,
            || match &query.plan {
                Ok(plan) => self.kb.execute_traced(plan, &params, rec).map_err(ObcsError::from),
                Err(e) => Err(ObcsError::Kb(e.clone())),
            },
        );
        match outcome {
            Ok((rs, recovery)) => {
                if first {
                    if let Recovery::Recovered(kind) = recovery {
                        rec.incr(metric::FAULT_RECOVERED, kind.label());
                    }
                }
                Ok(Some(rs))
            }
            Err(ObcsError::Kb(_)) => {
                rec.incr(metric::PIPELINE_ERRORS, "kb");
                Ok(None)
            }
            Err(err) => Err(err),
        }
    }

    /// Builds, counts, and records the degraded (apology) reply for an
    /// unrecovered system fault.
    fn degrade(
        &mut self,
        utterance: &str,
        err: &ObcsError,
        intent: Option<IntentId>,
        confidence: Option<f64>,
    ) -> AgentReply {
        let cause = err.cause_label();
        self.recorder.incr(metric::DEGRADED, cause);
        let reply = AgentReply {
            text: degraded_text(cause).to_string(),
            kind: ReplyKind::Degraded,
            intent,
            confidence,
            found_results: false,
        };
        self.record(utterance, reply)
    }

    fn record(&mut self, utterance: &str, reply: AgentReply) -> AgentReply {
        // Per-turn usage counters (DESIGN.md §10): every reply path in
        // `respond` funnels through here exactly once.
        self.recorder.incr(metric::TURNS, "");
        self.recorder.incr(metric::REPLY_KIND, kind_label(reply.kind));
        if let Some(name) =
            reply.intent.and_then(|id| self.space.intent(id)).map(|i| i.name.as_str())
        {
            self.recorder.incr(metric::INTENT, name);
        }
        // Repair turns: replies that ask the user to rephrase, pick, or
        // fill in — the paper's §7 "conversation repair" bucket.
        match reply.kind {
            ReplyKind::Fallback => self.recorder.incr(metric::REPAIR, "fallback"),
            ReplyKind::Disambiguation => self.recorder.incr(metric::REPAIR, "disambiguation"),
            ReplyKind::Elicitation => self.recorder.incr(metric::REPAIR, "elicitation"),
            ReplyKind::Degraded => self.recorder.incr(metric::REPAIR, "degraded"),
            _ => {}
        }
        self.log.push(InteractionRecord {
            turn: self.ctx.turn,
            utterance: utterance.to_string(),
            intent: reply.intent,
            confidence: reply.confidence,
            action: reply.kind,
            response: reply.text.clone(),
            feedback: None,
        });
        reply
    }
}

/// The stable lowercase label of a reply kind: the `kind` of a served
/// reply on the wire and the label of the `reply_kind` counter.
pub fn kind_label(kind: ReplyKind) -> &'static str {
    match kind {
        ReplyKind::Management => "management",
        ReplyKind::Elicitation => "elicitation",
        ReplyKind::Fulfilment => "fulfilment",
        ReplyKind::Proposal => "proposal",
        ReplyKind::Disambiguation => "disambiguation",
        ReplyKind::Fallback => "fallback",
        ReplyKind::Closing => "closing",
        ReplyKind::Degraded => "degraded",
    }
}

/// The user-visible apology for each degradation cause. Every unrecovered
/// system fault funnels through one of these — never a panic, never a
/// silent empty answer.
fn degraded_text(cause: &str) -> &'static str {
    match cause {
        "kb" => {
            "I'm sorry — I couldn't reach the knowledge base just now. \
             Please try your question again in a moment."
        }
        "classifier" => {
            "I'm sorry — I'm having trouble understanding requests right now. \
             Please try again in a moment."
        }
        "annotator" => "I'm sorry — I had trouble reading that. Could you rephrase your question?",
        _ => "I'm sorry — something went wrong on my side handling that request.",
    }
}

impl ConversationAgent {
    /// Finds the query intent grounded on a mentioned dependent concept.
    /// Among candidates (pattern focus or derived-from parent equals a
    /// mentioned concept), prefers the intent with the most required
    /// entities already available from the utterance and context, breaking
    /// ties toward fewer requirements.
    fn resolve_by_concepts(&self, recognized: &crate::nlu::RecognizedEntities) -> Option<IntentId> {
        if recognized.concepts.is_empty() {
            return None;
        }
        let available: Vec<ConceptId> = recognized
            .instances
            .iter()
            .map(|&(c, _)| c)
            .chain(self.ctx.entities.iter().map(|e| e.concept))
            .collect();
        let mut best: Option<(usize, usize, IntentId)> = None; // (satisfied, -required, id)
        for intent in self.space.intents.iter().filter(|i| i.is_query()) {
            let anchors = intent.patterns().iter().any(|p| {
                recognized.concepts.contains(&p.focus)
                    || p.derived_from.map(|d| recognized.concepts.contains(&d)).unwrap_or(false)
            });
            if !anchors {
                continue;
            }
            let satisfied =
                intent.required_entities.iter().filter(|c| available.contains(c)).count();
            let candidate = (satisfied, usize::MAX - intent.required_entities.len(), intent.id);
            if best.map(|b| candidate > (b.0, b.1, b.2)).unwrap_or(true) {
                best = Some(candidate);
            }
        }
        best.map(|(_, _, id)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obcs_core::testutil::fig2_fixture;
    use obcs_core::{bootstrap, BootstrapConfig, SmeFeedback};

    fn agent() -> ConversationAgent {
        let (onto, kb, mapping) = fig2_fixture();
        let drug = onto.concept_id("Drug").unwrap();
        let sme = SmeFeedback::new().entity_only(drug);
        let space = bootstrap(&onto, &kb, &mapping, BootstrapConfig::default(), &sme);
        ConversationAgent::new(
            onto,
            kb,
            mapping,
            space,
            AgentConfig { name: "Micromedex".into(), intent_confidence_threshold: 0.3 },
        )
    }

    #[test]
    fn end_to_end_lookup() {
        let mut a = agent();
        let reply = a.respond("show me the precaution for Aspirin");
        assert_eq!(reply.kind, ReplyKind::Fulfilment, "reply: {reply:?}");
        assert!(reply.found_results);
        assert!(reply.text.contains("precaution info 0"), "text: {}", reply.text);
    }

    #[test]
    fn slot_filling_conversation() {
        let mut a = agent();
        let r1 = a.respond("show me the precaution");
        assert_eq!(r1.kind, ReplyKind::Elicitation);
        assert_eq!(r1.text, "For which drug?");
        let r2 = a.respond("Ibuprofen");
        assert_eq!(r2.kind, ReplyKind::Fulfilment, "reply: {r2:?}");
        assert!(r2.text.contains("precaution info 1"), "text: {}", r2.text);
    }

    #[test]
    fn incremental_modification() {
        let mut a = agent();
        a.respond("show me the precaution for Aspirin");
        let r = a.respond("how about Ibuprofen?");
        assert_eq!(r.kind, ReplyKind::Fulfilment);
        assert!(r.text.contains("precaution info 1"), "text: {}", r.text);
    }

    #[test]
    fn greeting_and_closing_management() {
        let mut a = agent();
        let r = a.respond("hello");
        assert_eq!(r.kind, ReplyKind::Management);
        assert!(r.text.contains("Micromedex"));
        let r = a.respond("goodbye");
        assert_eq!(r.kind, ReplyKind::Closing);
    }

    #[test]
    fn gibberish_falls_back_and_is_logged() {
        let mut a = agent();
        let r = a.respond("apfjhd");
        assert_eq!(r.kind, ReplyKind::Fallback);
        assert_eq!(a.log.len(), 1);
        a.feedback(Feedback::ThumbsDown);
        assert_eq!(a.log.success_rate(), Some(0.0));
    }

    #[test]
    fn entity_only_proposal_accept_flow() {
        let mut a = agent();
        let r = a.respond("Tazarotene");
        assert_eq!(r.kind, ReplyKind::Proposal, "reply: {r:?}");
        assert!(r.text.contains("Tazarotene"));
        let r = a.respond("yes");
        assert_eq!(r.kind, ReplyKind::Fulfilment);
        assert!(r.text.contains("info 2"), "text: {}", r.text);
    }

    #[test]
    fn union_intent_merges_sections() {
        let mut a = agent();
        let r = a.respond("show me the risk for Aspirin");
        assert_eq!(r.kind, ReplyKind::Fulfilment, "reply: {r:?}");
        assert!(r.text.contains("risk info 0"), "text: {}", r.text);
    }

    #[test]
    fn relationship_query_through_bridge() {
        let mut a = agent();
        let r = a.respond("what drug treats Fever?");
        assert_eq!(r.kind, ReplyKind::Fulfilment, "reply: {r:?}");
        assert!(r.text.contains("Aspirin"), "text: {}", r.text);
        assert!(r.text.contains("Ibuprofen"), "text: {}", r.text);
        assert!(!r.text.contains("Tazarotene"), "text: {}", r.text);
    }

    #[test]
    fn empty_results_say_so() {
        let mut a = agent();
        // Psoriasis is treated only by Tazarotene; ask for a drug that
        // doesn't treat anything recorded for an unknown indication value.
        let r = a.respond("what drug treats Psoriasis?");
        assert_eq!(r.kind, ReplyKind::Fulfilment);
        assert!(r.text.contains("Tazarotene"));
    }

    #[test]
    fn reset_clears_context_keeps_log() {
        let mut a = agent();
        a.respond("show me the precaution for Aspirin");
        a.reset();
        assert!(a.context().entities.is_empty());
        assert_eq!(a.log.len(), 1);
        // After reset, the same elicitation starts over.
        let r = a.respond("show me the precaution");
        assert_eq!(r.kind, ReplyKind::Elicitation);
    }

    #[test]
    fn retrain_with_improves_a_confused_phrasing() {
        let mut a = agent();
        // An idiosyncratic phrasing the generated training never produces.
        let utterance = "gimme the lowdown on hazards of Aspirin";
        // SME labels it; after retraining the classifier must route it to
        // the Risks intent.
        let unknown = a.retrain_with(&[
            (utterance.to_string(), "Risks of Drug".to_string()),
            ("lowdown on hazards of Ibuprofen".to_string(), "Risks of Drug".to_string()),
            ("the lowdown on hazards please".to_string(), "Risks of Drug".to_string()),
            ("x".to_string(), "No Such Intent".to_string()),
        ]);
        assert_eq!(unknown, vec!["No Such Intent".to_string()]);
        let r = a.respond(utterance);
        let risks = a.space().intent_by_name("Risks of Drug").unwrap().id;
        assert_eq!(r.intent, Some(risks), "reply: {r:?}");
        assert_eq!(r.kind, ReplyKind::Fulfilment);
    }

    #[test]
    fn forked_sessions_share_nlu_and_answer_independently() {
        let mut a = agent();
        a.respond("show me the precaution for Aspirin");
        let mut forks: Vec<ConversationAgent> = (0..2).map(|_| a.fork_session()).collect();
        // Forks share the trained NLU (same allocation), the KB tables,
        // the conversation space and the dialogue tree…
        for f in &forks {
            assert!(Arc::ptr_eq(&a.shared_nlu(), &f.shared_nlu()));
            assert!(std::ptr::eq(a.kb().table("drug").unwrap(), f.kb().table("drug").unwrap()));
            assert!(std::ptr::eq(a.space(), f.space()));
            assert!(std::ptr::eq(a.tree(), f.tree()));
        }
        // …but start with a fresh context and log.
        assert!(forks[0].context().entities.is_empty());
        assert_eq!(forks[0].log.len(), 0);
        // A fork answers exactly like a reset original would.
        let expected = {
            let mut fresh = a.fork_session();
            fresh.respond("what drug treats Fever?")
        };
        for f in &mut forks {
            assert_eq!(f.respond("what drug treats Fever?"), expected);
        }
        // The parent's session state was untouched by the forks.
        assert!(!a.context().entities.is_empty());
    }

    #[test]
    fn mutating_the_base_after_forking_leaves_live_forks_unchanged() {
        const HAZARDS: &str = "gimme the lowdown on hazards of Aspirin";
        let mut base = agent();
        let mut live = base.fork_session();
        // The witness never shares anything with `base`.
        let mut witness = agent();
        assert_eq!(
            live.respond("show me the precaution"),
            witness.respond("show me the precaution")
        );

        base.retrain_with(&[
            (HAZARDS.to_string(), "Risks of Drug".to_string()),
            ("lowdown on hazards of Ibuprofen".to_string(), "Risks of Drug".to_string()),
        ]);
        let precautions = base.space().intent_by_name("Precautions of Drug").unwrap().id;
        let drug = base.tree().logic.row(precautions).unwrap().required[0].concept;
        base.tree_mut().logic.set_elicitation(precautions, drug, "Which medicine?");
        let mut kb = base.kb().clone();
        let row = vec![obcs_kb::Value::Int(3), obcs_kb::Value::Int(0), obcs_kb::Value::text("NEW")];
        kb.insert("precaution", row).unwrap();
        base.set_kb(kb);
        // The mutations are visible on the base…
        assert_eq!(base.respond("show me the precaution").text, "Which medicine?");
        assert!(base.respond("Aspirin").text.contains("NEW"));
        let risks = base.space().intent_by_name("Risks of Drug").unwrap().id;
        assert_eq!(base.respond(HAZARDS).intent, Some(risks));

        // …and nowhere in the fork taken before them.
        for utterance in ["Aspirin", "show me the precaution", "Ibuprofen", HAZARDS] {
            assert_eq!(live.respond(utterance), witness.respond(utterance), "{utterance:?}");
        }
    }

    #[test]
    fn negative_utterances_surface_for_sme_review() {
        let mut a = agent();
        a.respond("apfjhd");
        a.feedback(Feedback::ThumbsDown);
        a.respond("what drug treats Fever");
        assert_eq!(a.negative_utterances(), vec!["apfjhd"]);
    }

    #[test]
    fn traced_turn_records_spans_and_counters() {
        use obcs_telemetry::CollectingRecorder;
        let mut a = agent();
        let rec = Arc::new(CollectingRecorder::ticks());
        a.set_recorder(rec.clone());
        a.respond("show me the precaution for Aspirin");
        a.respond("apfjhd");
        let report = rec.take_report();
        // Each turn opened one root span with the pipeline stages inside.
        assert_eq!(report.stages["turn"].count, 2);
        for stage in ["annotate", "classify", "dialogue_eval", "kb_execute", "nlg"] {
            assert!(report.stages.contains_key(stage), "missing stage {stage}");
        }
        let roots: Vec<_> = report.spans.iter().filter(|s| s.parent.is_none()).collect();
        assert_eq!(roots.len(), 2);
        assert!(roots.iter().all(|s| s.stage == "turn"));
        // Usage counters: two turns, one fulfilment, one fallback repair.
        assert_eq!(report.counters[&("turns".into(), String::new())], 2);
        assert_eq!(report.counters[&("reply_kind".into(), "fulfilment".into())], 1);
        assert_eq!(report.counters[&("repair".into(), "fallback".into())], 1);
        assert_eq!(report.counters[&("kb_queries".into(), String::new())], 1);
        assert!(report.counters[&("kb_rows".into(), String::new())] >= 1);
        // Classifier confidence was observed for some intent.
        assert!(!report.ratios.is_empty());
        // The default recorder is inert: replacing it back loses nothing.
        a.set_recorder(Arc::new(obcs_telemetry::NoopRecorder));
        let r = a.respond("show me the precaution for Ibuprofen");
        assert_eq!(r.kind, ReplyKind::Fulfilment);
    }

    #[test]
    fn forked_sessions_inherit_the_recorder_handle() {
        use obcs_telemetry::CollectingRecorder;
        let mut a = agent();
        let rec = Arc::new(CollectingRecorder::ticks());
        a.set_recorder(rec.clone());
        let mut fork = a.fork_session();
        fork.respond("what drug treats Fever?");
        let report = rec.take_report();
        assert_eq!(report.counters[&("turns".into(), String::new())], 1);
    }

    #[test]
    fn ambiguous_disambiguation_reply_reprompts_with_subset() {
        let mut a = agent();
        let drug = a.onto.concept_id("Drug").unwrap();
        a.pending_disambiguation =
            vec![(drug, "Aspirin".into()), (drug, "Tazarotene".into()), (drug, "Ibuprofen".into())];
        // "a" is a substring of both Aspirin and Tazarotene: the old code
        // silently picked the first; now the engine narrows and re-prompts.
        let r = a.respond("a");
        assert_eq!(r.kind, ReplyKind::Disambiguation, "{r:?}");
        assert!(r.text.contains("Aspirin") && r.text.contains("Tazarotene"), "{}", r.text);
        assert!(!r.text.contains("Ibuprofen"), "narrowed out: {}", r.text);
        assert_eq!(a.pending_disambiguation.len(), 2);
        // A unique follow-up resolves the pick (entity-only → proposal).
        let r = a.respond("Aspirin");
        assert_eq!(r.kind, ReplyKind::Proposal, "{r:?}");
        assert!(r.text.contains("Aspirin"), "{}", r.text);
        assert!(a.pending_disambiguation.is_empty());
    }

    #[test]
    fn unmatched_disambiguation_reply_repairs_then_gives_up() {
        let mut a = agent();
        let drug = a.onto.concept_id("Drug").unwrap();
        a.pending_disambiguation = vec![(drug, "Aspirin".into()), (drug, "Tazarotene".into())];
        // First miss: repair reply, candidates stay on the table.
        let r = a.respond("qqqxyz");
        assert_eq!(r.kind, ReplyKind::Disambiguation, "{r:?}");
        assert!(r.text.contains("Aspirin") && r.text.contains("Tazarotene"), "{}", r.text);
        assert_eq!(a.pending_disambiguation.len(), 2, "candidates kept one more turn");
        // The kept candidates still work on the retry.
        let r = a.respond("Tazarotene");
        assert_eq!(r.kind, ReplyKind::Proposal, "{r:?}");
        assert!(r.text.contains("Tazarotene"), "{}", r.text);
    }

    #[test]
    fn second_unmatched_disambiguation_reply_falls_through() {
        let mut a = agent();
        let drug = a.onto.concept_id("Drug").unwrap();
        a.pending_disambiguation = vec![(drug, "Aspirin".into()), (drug, "Tazarotene".into())];
        let r = a.respond("qqqxyz");
        assert_eq!(r.kind, ReplyKind::Disambiguation);
        // Second miss: the engine gives up on the offer and processes the
        // utterance normally (gibberish → fallback).
        let r = a.respond("qqqxyz");
        assert_eq!(r.kind, ReplyKind::Fallback, "{r:?}");
        assert!(a.pending_disambiguation.is_empty());
    }

    #[test]
    fn topic_change_cancels_pending_disambiguation() {
        let mut a = agent();
        let drug = a.onto.concept_id("Drug").unwrap();
        a.pending_disambiguation = vec![(drug, "Aspirin".into()), (drug, "Tazarotene".into())];
        // Naming an entirely different entity abandons the offer.
        let r = a.respond("show me the precaution for Ibuprofen");
        assert_eq!(r.kind, ReplyKind::Fulfilment, "{r:?}");
        assert!(r.text.contains("precaution info 1"), "{}", r.text);
        assert!(a.pending_disambiguation.is_empty());
    }

    #[test]
    fn persistent_kb_fault_degrades_with_counters() {
        use obcs_faults::{FaultPlan, PlannedFaults};
        use obcs_telemetry::CollectingRecorder;
        let mut a = agent();
        let rec = Arc::new(CollectingRecorder::ticks());
        a.set_recorder(rec.clone());
        // Every KB query fails, persistently (no transient recovery).
        let plan = FaultPlan { kb_failure: 1.0, transient_share: 0.0, ..FaultPlan::quiet(7) };
        a.set_fault_injector(Arc::new(PlannedFaults::new(plan)));
        let r = a.respond("show me the precaution for Aspirin");
        assert_eq!(r.kind, ReplyKind::Degraded, "{r:?}");
        assert!(!r.text.is_empty() && r.text.contains("knowledge base"), "{}", r.text);
        assert!(!r.found_results);
        let report = rec.take_report();
        assert_eq!(report.counters[&("fault".into(), "kb_failure".into())], 1);
        assert_eq!(report.counters[&("degraded".into(), "kb".into())], 1);
        assert_eq!(report.counters[&("repair".into(), "degraded".into())], 1);
        assert!(report.counters[&("retry".into(), "kb_execute".into())] >= 1);
        assert_eq!(a.log.records.last().map(|r| r.action), Some(ReplyKind::Degraded));
    }

    #[test]
    fn transient_kb_fault_recovers_via_retry() {
        use obcs_faults::{FaultPlan, PlannedFaults};
        use obcs_telemetry::CollectingRecorder;
        let mut a = agent();
        let rec = Arc::new(CollectingRecorder::ticks());
        a.set_recorder(rec.clone());
        // Every KB query faults once, then the retry succeeds.
        let plan = FaultPlan {
            kb_failure: 1.0,
            transient_share: 1.0,
            transient_attempts: 1,
            ..FaultPlan::quiet(7)
        };
        a.set_fault_injector(Arc::new(PlannedFaults::new(plan)));
        let r = a.respond("show me the precaution for Aspirin");
        assert_eq!(r.kind, ReplyKind::Fulfilment, "recovered turn answers normally: {r:?}");
        assert!(r.text.contains("precaution info 0"), "{}", r.text);
        let report = rec.take_report();
        assert_eq!(report.counters[&("fault".into(), "kb_failure".into())], 1);
        assert_eq!(report.counters[&("fault_recovered".into(), "kb_failure".into())], 1);
        assert!(!report.counters.contains_key(&("degraded".into(), "kb".into())));
    }

    #[test]
    fn classifier_collapse_degrades_before_fulfilment() {
        use obcs_faults::{FaultPlan, PlannedFaults};
        use obcs_telemetry::CollectingRecorder;
        let mut a = agent();
        let rec = Arc::new(CollectingRecorder::ticks());
        a.set_recorder(rec.clone());
        let plan =
            FaultPlan { classifier_collapse: 1.0, transient_share: 0.0, ..FaultPlan::quiet(7) };
        a.set_fault_injector(Arc::new(PlannedFaults::new(plan)));
        let r = a.respond("show me the precaution for Aspirin");
        assert_eq!(r.kind, ReplyKind::Degraded, "{r:?}");
        assert!(r.text.contains("understanding"), "{}", r.text);
        let report = rec.take_report();
        assert_eq!(report.counters[&("fault".into(), "classifier_collapse".into())], 1);
        assert_eq!(report.counters[&("degraded".into(), "classifier".into())], 1);
        // The turn degraded before any KB work.
        assert!(!report.counters.contains_key(&("kb_queries".into(), String::new())));
    }

    #[test]
    fn exhausted_turn_budget_degrades_deterministically() {
        use obcs_faults::{FaultPlan, PlannedFaults};
        let build = || {
            let mut a = agent();
            let plan = FaultPlan { kb_timeout: 1.0, transient_share: 0.0, ..FaultPlan::quiet(7) };
            a.set_fault_injector(Arc::new(PlannedFaults::new(plan)));
            a.set_resilience(obcs_faults::ResilienceConfig::chaos());
            a
        };
        let r1 = build().respond("show me the precaution for Aspirin");
        let r2 = build().respond("show me the precaution for Aspirin");
        assert_eq!(r1.kind, ReplyKind::Degraded, "{r1:?}");
        assert_eq!(r1, r2, "degradation under a tick budget is deterministic");
    }

    #[test]
    fn forks_inherit_injector_and_resilience() {
        use obcs_faults::{FaultPlan, PlannedFaults};
        let mut a = agent();
        let plan = FaultPlan { kb_failure: 1.0, transient_share: 0.0, ..FaultPlan::quiet(7) };
        a.set_fault_injector(Arc::new(PlannedFaults::new(plan)));
        let mut fork = a.fork_session();
        let r = fork.respond("show me the precaution for Aspirin");
        assert_eq!(r.kind, ReplyKind::Degraded, "{r:?}");
    }

    #[test]
    fn abort_forgets_the_last_response() {
        // Regression: `reset_topic` left `last_agent_response` (and
        // `last_terms`) populated, so "never mind" followed by a repeat
        // request replayed the aborted topic's answer.
        let mut a = agent();
        let r = a.respond("show me the precaution for Aspirin");
        assert!(r.text.contains("precaution info 0"), "{}", r.text);
        let r = a.respond("never mind");
        assert_eq!(r.kind, ReplyKind::Management, "{r:?}");
        let r = a.respond("can you repeat that?");
        assert!(
            !r.text.contains("precaution info 0"),
            "aborted topic's answer must not replay: {}",
            r.text
        );
        assert!(r.text.contains("haven't said anything"), "{}", r.text);
    }

    #[test]
    fn intent_switch_drops_stale_proposal() {
        // Regression: `set_intent` kept `proposal`/`rejected_proposals`
        // across an intent switch, so a "yes" long after the user moved
        // on fired the abandoned proposal.
        let mut a = agent();
        let r = a.respond("Tazarotene");
        assert_eq!(r.kind, ReplyKind::Proposal, "{r:?}");
        // The user ignores the offer and asks something concrete.
        let r = a.respond("show me the precaution for Aspirin");
        assert_eq!(r.kind, ReplyKind::Fulfilment, "{r:?}");
        // "yes" now has nothing on the table — it must not fulfil the
        // abandoned Tazarotene proposal.
        let r = a.respond("yes");
        assert_ne!(r.kind, ReplyKind::Fulfilment, "stale proposal fired: {r:?}");
        assert_eq!(r.kind, ReplyKind::Management, "{r:?}");
    }

    #[test]
    fn cache_shims_are_inert() {
        let mut shimmed = agent();
        shimmed.set_caching(false);
        let mut plain = agent();
        for u in ["show me the precaution for Aspirin", "show me the precaution for Aspirin"] {
            assert_eq!(shimmed.respond(u), plain.respond(u), "{u:?}");
        }
        let (kb, memo) = shimmed.cache_stats();
        assert_eq!((kb, memo), (KbCacheStats::default(), NluMemoStats::default()));
    }

    #[test]
    fn log_usage_statistics() {
        let mut a = agent();
        a.respond("show me the precaution for Aspirin");
        a.respond("show me the precaution for Ibuprofen");
        a.respond("what drug treats Fever");
        let usage = a.log.usage_by_intent();
        assert_eq!(usage[0].1, 2);
    }
}
