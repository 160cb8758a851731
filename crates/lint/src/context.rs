//! The lint context: one borrowed view of the entire artifact chain that
//! every lint runs against.
//!
//! The derived artifacts (dialogue logic table and tree) are rebuilt from
//! the space so lints see exactly what the online system would serve.

use std::cell::OnceCell;

use obcs_core::{ConversationSpace, IntentId};
use obcs_dialogue::{DialogueLogicTable, DialogueTree};
use obcs_kb::KnowledgeBase;
use obcs_nlq::OntologyMapping;
use obcs_ontology::{ConceptId, Ontology};

use crate::lint::LintConfig;
use crate::rules::flow::{explore, FlowExploration};

/// Everything the lints inspect.
pub struct LintContext<'a> {
    pub onto: &'a Ontology,
    pub kb: &'a KnowledgeBase,
    pub mapping: &'a OntologyMapping,
    pub space: &'a ConversationSpace,
    /// Derived from the space, as the dialogue layer would.
    pub logic: DialogueLogicTable,
    /// Derived from the space, as the serving engine would.
    pub tree: DialogueTree,
    /// The dialogue-flow exploration, computed on first use and shared
    /// by the flow rules so the state machine is explored once per run.
    flow: OnceCell<FlowExploration>,
}

impl<'a> LintContext<'a> {
    pub fn new(
        onto: &'a Ontology,
        kb: &'a KnowledgeBase,
        mapping: &'a OntologyMapping,
        space: &'a ConversationSpace,
    ) -> Self {
        let logic = DialogueLogicTable::from_space(space, onto);
        let tree = DialogueTree::from_space(space, onto, "agent");
        LintContext { onto, kb, mapping, space, logic, tree, flow: OnceCell::new() }
    }

    /// The dialogue-flow exploration, computed on first use with the
    /// given config (subsequent calls reuse the first result).
    pub fn flow(&self, cfg: &LintConfig) -> &FlowExploration {
        self.flow.get_or_init(|| explore(self, cfg))
    }

    /// A representative instance value for a concept, if the space or KB
    /// can supply one: the first entity example, else the first distinct
    /// text value of the concept's mapped label column. `None` means no
    /// user input could ever fill a slot of this concept — the fact behind
    /// both the elicitation-livelock flow rule (OBCS101) and the static
    /// slot-fillability bind rule (OBCS111).
    pub fn representative_value(&self, concept: ConceptId) -> Option<String> {
        if let Some(def) = self.space.entities.iter().find(|e| e.concept == concept) {
            if let Some(example) = def.examples.first() {
                return Some(example.clone());
            }
        }
        let table = self.mapping.table(concept)?;
        let label = self.mapping.label(concept)?;
        self.kb
            .distinct_values(table, label)
            .ok()?
            .iter()
            .find_map(|v| v.as_text().map(str::to_string))
    }

    /// A concept's name, tolerant of ids the ontology does not know (a
    /// stale space must produce a diagnostic, not a panic).
    pub fn concept_label(&self, id: ConceptId) -> String {
        match self.onto.concept(id) {
            Ok(c) => c.name.clone(),
            Err(_) => format!("<unknown concept #{}>", id.0),
        }
    }

    /// An intent's name, tolerant of ids the space does not define.
    pub fn intent_label(&self, id: IntentId) -> String {
        match self.space.intent(id) {
            Some(i) => i.name.clone(),
            None => format!("<unknown intent #{}>", id.0),
        }
    }

    /// Whether the ontology knows this concept id.
    pub fn concept_exists(&self, id: ConceptId) -> bool {
        self.onto.concept(id).is_ok()
    }

    /// Distinct instance values of a concept, through the mapping; `None`
    /// when the concept has no table or no label column.
    pub fn instance_count(&self, id: ConceptId) -> Option<usize> {
        let table = self.mapping.table(id)?;
        let label = self.mapping.label(id)?;
        self.kb.distinct_values(table, label).ok().map(|v| v.len())
    }
}
