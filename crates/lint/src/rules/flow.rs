//! Dialogue-flow model checking (`OBCS100`–`OBCS105`).
//!
//! The bootstrapped space induces a finite state machine: the dialogue
//! tree's `evaluate` is the transition function, the conversation context
//! is the state, and user turns are the input alphabet. This module
//! explores that machine exhaustively — driving the *real*
//! [`DialogueTree::evaluate`](obcs_dialogue::DialogueTree::evaluate), not
//! a re-implementation — over an abstraction of the context that keeps
//! only the behaviour-relevant components:
//!
//! * the active intent,
//! * which *tracked* concepts hold a value (tracked = every concept any
//!   intent requires, plus every concept with a proposal list; each
//!   concept is represented by one fixed instance value, so "filled"
//!   collapses to a set),
//! * the pending proposal and the set of rejected proposals.
//!
//! The input alphabet is finite and complete for the reachable behaviours
//! of a cooperating user: one detected-intent turn per trained intent
//! (with and without its required entities), one bare-entity turn per
//! providable tracked concept, and the management turns that drive
//! proposal edges (`yes` / `no`) and topic resets (`never mind`).
//! Elicitation re-prompts, repeat/definition repairs and chitchat do not
//! change the abstract state, so omitting them loses no reachability.
//!
//! From the explored graph the checks prove: every query intent reachable
//! *and fulfillable* (OBCS100); every elicitation loop satisfiable — no
//! re-prompt that can cycle forever because nothing can fill the slot
//! (OBCS101); every proposal has a working accept edge and a progressing
//! reject edge (OBCS102); no dead logic-table rows (OBCS103) or
//! unreachable proposal branches (OBCS104); and the exploration itself
//! stayed within bounds (OBCS105).

use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};

use obcs_core::intents::IntentGoal;
use obcs_core::IntentId;
use obcs_dialogue::tree::TurnInput;
use obcs_dialogue::{AgentAction, ConversationContext};
use obcs_ontology::ConceptId;

use crate::context::LintContext;
use crate::diag::{Diagnostic, Location, Severity};
use crate::lint::{Lint, LintConfig};

/// The result of exploring the dialogue state machine.
#[derive(Debug, Clone)]
pub struct FlowExploration {
    /// Distinct abstract states reached.
    pub states: usize,
    /// Transitions taken.
    pub edges: usize,
    /// Whether exploration hit the state cap before exhausting the space.
    pub truncated: bool,
    /// Intents with an observed `Fulfill` edge.
    pub fulfilled: BTreeSet<IntentId>,
    /// Intents whose slot filling was entered (`Elicit` or `Fulfill`).
    pub activated: BTreeSet<IntentId>,
    /// Intents observed in a `Propose` action.
    pub proposed: BTreeSet<IntentId>,
    /// `(intent, concept)` pairs where a reachable elicitation asks for a
    /// concept no input can ever fill — the re-prompt loops forever.
    pub elicit_livelocks: BTreeSet<(IntentId, ConceptId)>,
    /// Proposals whose accept edge is broken: `yes` fell back instead of
    /// fulfilling or eliciting.
    pub broken_accepts: BTreeSet<IntentId>,
    /// Proposals whose reject edge failed to progress: `no` left the same
    /// proposal pending.
    pub stuck_denials: BTreeSet<IntentId>,
    /// Concepts with at least one representative instance value, i.e.
    /// slots a user turn can actually fill.
    pub providable: BTreeMap<ConceptId, String>,
}

/// The abstract conversation state: the behaviour-relevant projection of
/// [`ConversationContext`]. Omitted components (`turn`, `eliciting`,
/// `last_agent_response`, `last_terms`) never gate a transition.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
struct AbsState {
    intent: Option<IntentId>,
    /// Sorted set of tracked concepts holding a value.
    filled: Vec<ConceptId>,
    proposal: Option<IntentId>,
    /// Sorted set of rejected proposals.
    rejected: Vec<IntentId>,
}

/// One symbolic user turn.
#[derive(Debug, Clone)]
enum SymInput {
    /// The NLU detected this intent; no entities in the utterance.
    Intent(IntentId),
    /// The NLU detected this intent plus values for its (providable)
    /// required entities — the one-shot complete request.
    IntentFull(IntentId, Vec<(ConceptId, String)>),
    /// A bare entity mention (elicitation answer / entity-only turn).
    Entity(ConceptId, String),
    /// "yes" — accepts a pending proposal.
    Affirm,
    /// "no" — rejects a pending proposal.
    Deny,
    /// "never mind" — aborts the topic.
    Abort,
}

/// A fixed utterance that matches no management pattern, so `evaluate`
/// falls through to domain handling.
const DOMAIN_UTTERANCE: &str = "tell me about the domain topic";

impl SymInput {
    fn to_turn(&self) -> TurnInput {
        match self {
            SymInput::Intent(i) => {
                TurnInput { utterance: DOMAIN_UTTERANCE.into(), intent: Some(*i), entities: vec![] }
            }
            SymInput::IntentFull(i, entities) => TurnInput {
                utterance: DOMAIN_UTTERANCE.into(),
                intent: Some(*i),
                entities: entities.clone(),
            },
            SymInput::Entity(c, v) => TurnInput {
                utterance: DOMAIN_UTTERANCE.into(),
                intent: None,
                entities: vec![(*c, v.clone())],
            },
            SymInput::Affirm => TurnInput { utterance: "yes".into(), ..Default::default() },
            SymInput::Deny => TurnInput { utterance: "no".into(), ..Default::default() },
            SymInput::Abort => TurnInput { utterance: "never mind".into(), ..Default::default() },
        }
    }
}

/// Explores the dialogue state machine breadth-first from the empty
/// context and records the facts the flow checks need.
pub(crate) fn explore(lint: &LintContext<'_>, cfg: &LintConfig) -> FlowExploration {
    let space = lint.space;

    // Tracked concepts: everything slot filling or proposals can turn on.
    let mut tracked: BTreeSet<ConceptId> = BTreeSet::new();
    for intent in &space.intents {
        tracked.extend(intent.required_entities.iter().copied());
    }
    for (concept, _) in &lint.tree.proposals {
        tracked.insert(*concept);
    }

    let mut providable: BTreeMap<ConceptId, String> = BTreeMap::new();
    for &c in &tracked {
        if let Some(v) = lint.representative_value(c) {
            providable.insert(c, v);
        }
    }

    // The input alphabet. Intents are detectable only when trained — the
    // classifier cannot emit an intent it has no examples of.
    let mut alphabet: Vec<SymInput> = Vec::new();
    for intent in &space.intents {
        if matches!(intent.goal, IntentGoal::ConversationManagement) {
            continue;
        }
        if !space.training.iter().any(|e| e.intent == intent.id) {
            continue;
        }
        alphabet.push(SymInput::Intent(intent.id));
        let full: Vec<(ConceptId, String)> = intent
            .required_entities
            .iter()
            .filter_map(|c| providable.get(c).map(|v| (*c, v.clone())))
            .collect();
        if !full.is_empty() {
            alphabet.push(SymInput::IntentFull(intent.id, full));
        }
    }
    for (&c, v) in &providable {
        alphabet.push(SymInput::Entity(c, v.clone()));
    }
    alphabet.push(SymInput::Affirm);
    alphabet.push(SymInput::Deny);
    alphabet.push(SymInput::Abort);

    let mut out = FlowExploration {
        states: 0,
        edges: 0,
        truncated: false,
        fulfilled: BTreeSet::new(),
        activated: BTreeSet::new(),
        proposed: BTreeSet::new(),
        elicit_livelocks: BTreeSet::new(),
        broken_accepts: BTreeSet::new(),
        stuck_denials: BTreeSet::new(),
        providable: providable.clone(),
    };

    let mut seen: HashSet<AbsState> = HashSet::new();
    let mut queue: VecDeque<AbsState> = VecDeque::new();
    let start = AbsState::default();
    seen.insert(start.clone());
    queue.push_back(start);

    while let Some(state) = queue.pop_front() {
        for input in &alphabet {
            let mut ctx = materialize(&state, &providable);
            let action = lint.tree.evaluate(&mut ctx, &input.to_turn());
            out.edges += 1;

            match &action {
                AgentAction::Fulfill { intent } => {
                    out.fulfilled.insert(*intent);
                    out.activated.insert(*intent);
                }
                AgentAction::Elicit { intent, concept, .. } => {
                    out.activated.insert(*intent);
                    if !providable.contains_key(concept) {
                        out.elicit_livelocks.insert((*intent, *concept));
                    }
                }
                AgentAction::Propose { intent, .. } => {
                    out.proposed.insert(*intent);
                }
                _ => {}
            }
            if let Some(p) = state.proposal {
                match input {
                    SymInput::Affirm => {
                        if matches!(action, AgentAction::Fallback { .. }) {
                            out.broken_accepts.insert(p);
                        }
                    }
                    SymInput::Deny if ctx.proposal == Some(p) => {
                        out.stuck_denials.insert(p);
                    }
                    _ => {}
                }
            }

            let next = abstract_state(&ctx, &tracked);
            if !seen.contains(&next) {
                if seen.len() >= cfg.max_states {
                    out.truncated = true;
                    continue;
                }
                seen.insert(next.clone());
                queue.push_back(next);
            }
        }
    }

    out.states = seen.len();
    out
}

/// Builds a concrete context realising an abstract state, using the fixed
/// representative value of each filled concept.
fn materialize(state: &AbsState, providable: &BTreeMap<ConceptId, String>) -> ConversationContext {
    let mut ctx = ConversationContext::new();
    ctx.turn = 1;
    ctx.intent = state.intent;
    for c in &state.filled {
        if let Some(v) = providable.get(c) {
            ctx.put_entity(*c, v.clone());
        }
    }
    ctx.proposal = state.proposal;
    ctx.rejected_proposals = state.rejected.clone();
    ctx
}

/// Projects a concrete context back to the abstract state.
fn abstract_state(ctx: &ConversationContext, tracked: &BTreeSet<ConceptId>) -> AbsState {
    let mut filled: Vec<ConceptId> =
        ctx.entities.iter().map(|e| e.concept).filter(|c| tracked.contains(c)).collect();
    filled.sort_unstable();
    filled.dedup();
    let mut rejected = ctx.rejected_proposals.clone();
    rejected.sort_unstable();
    rejected.dedup();
    AbsState { intent: ctx.intent, filled, proposal: ctx.proposal, rejected }
}

/// OBCS100: a query intent that is never fulfilled in any reachable run —
/// either undetectable and unproposed, or its slots can never all fill.
pub struct IntentReachability;

impl Lint for IntentReachability {
    fn name(&self) -> &'static str {
        "intent-reachability"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["OBCS100"]
    }

    fn description(&self) -> &'static str {
        "query intents that can never be fulfilled from the start state"
    }

    fn run(&self, ctx: &LintContext<'_>, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        let flow = ctx.flow(cfg);
        if flow.truncated {
            return; // "never fulfilled" is unsound on a partial exploration (OBCS105 reports it)
        }
        for intent in &ctx.space.intents {
            if !intent.is_query() {
                continue;
            }
            if !flow.fulfilled.contains(&intent.id) {
                out.push(
                    Diagnostic::new(
                        "OBCS100",
                        Severity::Error,
                        Location::new("dialogue-flow", format!("intent `{}`", intent.name)),
                        "no reachable conversation ever fulfills this intent",
                    )
                    .with_suggestion(
                        "add training examples, a proposal path, or instance values for its required entities",
                    ),
                );
            }
        }
    }
}

/// OBCS101: a reachable elicitation asks for a concept that no user input
/// can fill (no entity examples and no KB instances) — the re-prompt
/// cycles forever for a cooperating user.
pub struct ElicitationLiveness;

impl Lint for ElicitationLiveness {
    fn name(&self) -> &'static str {
        "elicitation-liveness"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["OBCS101"]
    }

    fn description(&self) -> &'static str {
        "elicitation loops no user answer can ever satisfy (livelock)"
    }

    fn run(&self, ctx: &LintContext<'_>, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        let flow = ctx.flow(cfg);
        for &(intent, concept) in &flow.elicit_livelocks {
            let name = ctx.intent_label(intent);
            out.push(
                Diagnostic::new(
                    "OBCS101",
                    Severity::Error,
                    Location::new("dialogue-flow", format!("intent `{name}`")),
                    format!(
                        "elicits `{}` but no entity example or KB instance can ever fill it; \
                         the re-prompt loops forever",
                        ctx.concept_label(concept)
                    ),
                )
                .with_suggestion("add instance values to the KB or examples to the entity"),
            );
        }
    }
}

/// OBCS102: a reachable proposal whose accept edge falls back (`yes`
/// cannot fire the offered intent) or whose reject edge does not progress.
pub struct ProposalEdges;

impl Lint for ProposalEdges {
    fn name(&self) -> &'static str {
        "proposal-edges"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["OBCS102"]
    }

    fn description(&self) -> &'static str {
        "proposals without a working accept and a progressing reject edge"
    }

    fn run(&self, ctx: &LintContext<'_>, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        let flow = ctx.flow(cfg);
        for &p in &flow.broken_accepts {
            out.push(
                Diagnostic::new(
                    "OBCS102",
                    Severity::Error,
                    Location::new("dialogue-flow", format!("proposal `{}`", ctx.intent_label(p))),
                    "accepting this proposal falls back instead of fulfilling or eliciting",
                )
                .with_suggestion("ensure the proposed intent has a logic-table row"),
            );
        }
        for &p in &flow.stuck_denials {
            out.push(
                Diagnostic::new(
                    "OBCS102",
                    Severity::Error,
                    Location::new("dialogue-flow", format!("proposal `{}`", ctx.intent_label(p))),
                    "rejecting this proposal leaves it pending; `no` loops on the same offer",
                )
                .with_suggestion("regenerate the dialogue tree from the current space"),
            );
        }
    }
}

/// OBCS103: a logic-table row for a query intent that no reachable turn
/// ever activates — dead configuration the designer maintains for nothing.
pub struct DeadLogicRows;

impl Lint for DeadLogicRows {
    fn name(&self) -> &'static str {
        "dead-logic-rows"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["OBCS103"]
    }

    fn description(&self) -> &'static str {
        "logic-table rows no reachable conversation activates"
    }

    fn run(&self, ctx: &LintContext<'_>, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        let flow = ctx.flow(cfg);
        if flow.truncated {
            return; // "never activated" is unsound on a partial exploration
        }
        for row in &ctx.logic.rows {
            let Some(intent) = ctx.space.intent(row.intent) else {
                continue; // OBCS120's territory.
            };
            // Management rows are handled by the catalog, entity-only rows
            // by proposals; only query rows are slot-filled.
            if !intent.is_query() {
                continue;
            }
            if !flow.activated.contains(&row.intent) && !flow.fulfilled.contains(&row.intent) {
                out.push(
                    Diagnostic::new(
                        "OBCS103",
                        Severity::Warning,
                        Location::new("logic-table", format!("intent `{}`", row.intent_name)),
                        "row is dead: no reachable turn enters its slot filling",
                    )
                    .with_suggestion(
                        "add training examples or a proposal path, or drop the intent",
                    ),
                );
            }
        }
    }
}

/// OBCS104: a proposal-list entry (tree node) that exploration never
/// reaches — e.g. its concept has no instance values, so the entity-only
/// branch never fires.
pub struct TreeNodeReachability;

impl Lint for TreeNodeReachability {
    fn name(&self) -> &'static str {
        "tree-node-reachability"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["OBCS104"]
    }

    fn description(&self) -> &'static str {
        "proposal branches of the dialogue tree no conversation reaches"
    }

    fn run(&self, ctx: &LintContext<'_>, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        let flow = ctx.flow(cfg);
        if flow.truncated {
            return; // "never proposed" is unsound on a partial exploration
        }
        for (concept, intents) in &ctx.tree.proposals {
            for &proposed in intents {
                if flow.proposed.contains(&proposed) {
                    continue;
                }
                let name = ctx.intent_label(proposed);
                out.push(
                    Diagnostic::new(
                        "OBCS104",
                        Severity::Warning,
                        Location::new(
                            "dialogue-tree",
                            format!(
                                "proposals for `{}`, intent `{name}`",
                                ctx.concept_label(*concept)
                            ),
                        ),
                        "proposal branch is unreachable in every explored conversation",
                    )
                    .with_suggestion(
                        "check the concept has instance values so entity-only turns can reach it",
                    ),
                );
            }
        }
    }
}

/// OBCS105: the exploration hit its state cap, so the flow checks above
/// are only sound up to the bound.
pub struct ExplorationBound;

impl Lint for ExplorationBound {
    fn name(&self) -> &'static str {
        "exploration-bound"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["OBCS105"]
    }

    fn description(&self) -> &'static str {
        "dialogue-flow exploration exceeded the state cap (incomplete proof)"
    }

    fn run(&self, ctx: &LintContext<'_>, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        let flow = ctx.flow(cfg);
        if flow.truncated {
            out.push(
                Diagnostic::new(
                    "OBCS105",
                    Severity::Warning,
                    Location::new("dialogue-flow", "state space"),
                    format!(
                        "exploration truncated at {} states ({} edges); reachability results \
                         are incomplete",
                        flow.states, flow.edges
                    ),
                )
                .with_suggestion("raise --max-states, or simplify the space"),
            );
        }
    }
}
