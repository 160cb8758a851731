//! The queries a fulfilment can issue, bound against the agent's KB once
//! (paper §4.4, Fig. 9: templates are parameterised queries; DESIGN.md
//! §14.2). A turn only fills each plan's parameters from the
//! conversation context and executes it: no SQL text is rendered,
//! parsed or bound per turn.

use std::collections::HashMap;

use obcs_core::templates::template_for_pattern;
use obcs_core::{ConversationSpace, IntentId};
use obcs_kb::{BoundPlan, KbError, KnowledgeBase};
use obcs_nlq::{OntologyMapping, QueryTemplate};
use obcs_ontology::{ConceptId, Ontology};

/// One query a fulfilment can issue.
#[derive(Debug)]
pub struct PreparedQuery {
    /// The topic labelling the query's result section.
    pub topic: String,
    /// The concepts whose context values fill the plan's parameters, in
    /// parameter order.
    pub params: Vec<ConceptId>,
    /// The bound plan, or the error preparing it, which counts as a
    /// `pipeline_error{kb}` on every turn that would run it.
    pub plan: Result<BoundPlan, KbError>,
}

impl PreparedQuery {
    fn new(topic: &str, template: &QueryTemplate, kb: &KnowledgeBase) -> Self {
        PreparedQuery {
            topic: topic.to_string(),
            params: template.required_concepts(),
            plan: template.prepare(kb),
        }
    }
}

/// Optional entities per intent that can filter a query. The prepared
/// set holds a query per pattern per subset of them (2^k - 1 subsets for
/// k optional entities), so a crafted space must not make it exponential;
/// optional entities past this many are captured but never filter.
pub const MAX_FILTERING_OPTIONALS: usize = 8;

/// The prepared queries of one agent KB, shared by every fork of the
/// agent through one `Arc`.
#[derive(Debug, Default)]
pub struct PreparedQueries {
    /// Keyed by intent and optional-entity mask (bit `k` for
    /// `optional_entities[k]`). Mask 0 holds the space's templates, in
    /// their order; any other mask holds each pattern's template with
    /// those optional entities added as filters, in pattern order (a
    /// pattern whose template cannot be generated has no entry).
    by_mask: HashMap<(IntentId, usize), Vec<PreparedQuery>>,
}

impl PreparedQueries {
    /// Prepares, per query intent, the space's templates and, for every
    /// non-empty subset of the intent's optional entities, each pattern's
    /// template with those concepts added — generated by the same
    /// [`template_for_pattern`] the bootstrap uses.
    pub fn new(
        space: &ConversationSpace,
        onto: &Ontology,
        kb: &KnowledgeBase,
        mapping: &OntologyMapping,
    ) -> Self {
        let mut by_mask = HashMap::new();
        for intent in space.intents.iter().filter(|i| i.is_query()) {
            let templates = space.templates_for(intent.id).iter();
            let templates = templates.map(|t| PreparedQuery::new(&t.topic, &t.template, kb));
            by_mask.insert((intent.id, 0), templates.collect());
            let filtering = intent.optional_entities.len().min(MAX_FILTERING_OPTIONALS);
            for mask in 1..1usize << filtering {
                let extra: Vec<ConceptId> = (intent.optional_entities.iter().enumerate())
                    .filter(|(k, _)| mask & 1 << k != 0)
                    .map(|(_, &c)| c)
                    .collect();
                let queries = intent.patterns().iter().filter_map(|p| {
                    let template = template_for_pattern(p, &extra, onto, kb, mapping).ok()?;
                    Some(PreparedQuery::new(&p.topic, &template, kb))
                });
                by_mask.insert((intent.id, mask), queries.collect());
            }
        }
        PreparedQueries { by_mask }
    }

    /// The intent's queries for optional-entity `mask` (bit `k` for
    /// `optional_entities[k]`, `k <` [`MAX_FILTERING_OPTIONALS`]): its
    /// templates for mask 0.
    pub fn get(&self, intent: IntentId, mask: usize) -> &[PreparedQuery] {
        self.by_mask.get(&(intent, mask)).map_or(&[], Vec::as_slice)
    }
}
