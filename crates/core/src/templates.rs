//! Structured-query-template generation per intent (paper §4.4, Fig. 9).
//!
//! Each query pattern is interpreted through the NLQ service to produce a
//! parameterised SQL template. Patterns whose focus concept cannot be
//! mapped to a physical table (abstract members without backing tables)
//! are skipped — the intent keeps the templates of its mappable patterns.

use obcs_kb::KnowledgeBase;
use obcs_nlq::interpret::{build_query, Filter};
use obcs_nlq::{NlqError, OntologyMapping, QueryTemplate};
use obcs_ontology::{ConceptId, Ontology};
use serde::{Deserialize, Serialize};

use crate::intents::{Intent, IntentId};
use crate::patterns::QueryPattern;

/// One template with the topic of the pattern it was derived from (used
/// to label merged result sections for union/inheritance intents).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabeledTemplate {
    /// The pattern's topic, e.g. `Contra Indication`.
    pub topic: String,
    pub template: QueryTemplate,
}

/// The templates bound to one intent: one per mappable pattern.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntentTemplates {
    pub intent: IntentId,
    pub templates: Vec<LabeledTemplate>,
}

/// Generates a template for one pattern through the NLQ pipeline, with a
/// marker filter per required concept followed by one per `extra`
/// concept (an intent's optional entities, paper Tables 3-4).
pub fn template_for_pattern(
    pattern: &QueryPattern,
    extra: &[ConceptId],
    onto: &Ontology,
    kb: &KnowledgeBase,
    mapping: &OntologyMapping,
) -> Result<QueryTemplate, NlqError> {
    let filters: Vec<Filter> = pattern
        .required
        .iter()
        .chain(extra)
        .map(|&c| {
            let column = mapping
                .label(c)
                .ok_or_else(|| NlqError::UnmappedConcept(onto.concept_name(c).to_string()))?
                .to_string();
            Ok(Filter { concept: c, column, value: String::new() })
        })
        .collect::<Result<_, NlqError>>()?;
    let q = build_query(onto, mapping, pattern.focus, &filters)?;
    q.to_template(onto, kb, mapping)
}

/// Generates the templates of every query intent, skipping unmappable
/// patterns. Returns the per-intent templates plus a log of skipped
/// `(intent, pattern topic, reason)` entries for SME review.
pub fn generate_templates(
    intents: &[Intent],
    onto: &Ontology,
    kb: &KnowledgeBase,
    mapping: &OntologyMapping,
) -> (Vec<IntentTemplates>, Vec<(IntentId, String, String)>) {
    let mut out = Vec::new();
    let mut skipped = Vec::new();
    for intent in intents {
        let mut templates = Vec::new();
        for pattern in intent.patterns() {
            match template_for_pattern(pattern, &[], onto, kb, mapping) {
                Ok(t) => {
                    templates.push(LabeledTemplate { topic: pattern.topic.clone(), template: t })
                }
                Err(e) => skipped.push((intent.id, pattern.topic.clone(), e.to_string())),
            }
        }
        if !templates.is_empty() {
            out.push(IntentTemplates { intent: intent.id, templates });
        }
    }
    (out, skipped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concepts::{identify_dependent_concepts, identify_key_concepts, KeyConceptConfig};
    use crate::intents::build_intents;
    use crate::patterns::{
        direct_relationship_patterns, indirect_relationship_patterns, lookup_patterns, PatternKind,
    };
    use crate::testutil::fig2_fixture;
    use obcs_kb::stats::CategoricalPolicy;

    fn setup() -> (Ontology, KnowledgeBase, OntologyMapping, Vec<Intent>) {
        let (onto, kb, mapping) = fig2_fixture();
        let keys = identify_key_concepts(&onto, &mapping, KeyConceptConfig::default());
        let deps =
            identify_dependent_concepts(&onto, &kb, &mapping, &keys, CategoricalPolicy::default());
        let lookups = lookup_patterns(&onto, &deps);
        let mut rels = direct_relationship_patterns(&onto, &keys);
        rels.extend(indirect_relationship_patterns(&onto, &keys, 2));
        let mut next = 0;
        let intents = build_intents(&onto, lookups, rels, &mut next);
        (onto, kb, mapping, intents)
    }

    #[test]
    fn lookup_template_matches_figure9_shape() {
        let (onto, kb, mapping, intents) = setup();
        let prec_intent = intents.iter().find(|i| i.name == "Precautions of Drug").unwrap();
        let tpl =
            template_for_pattern(&prec_intent.patterns()[0], &[], &onto, &kb, &mapping).unwrap();
        assert!(tpl.sql().contains("SELECT DISTINCT oPrecaution.description"), "{}", tpl.sql());
        assert!(tpl.sql().contains("INNER JOIN drug oDrug"), "{}", tpl.sql());
        assert!(tpl.sql().contains("oDrug.name = '<@Drug>'"), "{}", tpl.sql());
    }

    #[test]
    fn templates_execute_prepared() {
        let (onto, kb, mapping, intents) = setup();
        let prec_intent = intents.iter().find(|i| i.name == "Precautions of Drug").unwrap();
        let tpl =
            template_for_pattern(&prec_intent.patterns()[0], &[], &onto, &kb, &mapping).unwrap();
        let rs = kb.execute(&tpl.prepare(&kb).unwrap(), &[obcs_kb::Value::text("Aspirin")]);
        assert_eq!(rs.unwrap().rows.len(), 1);
    }

    #[test]
    fn extra_concepts_add_marker_filters_after_the_required_ones() {
        let (onto, kb, mapping, intents) = setup();
        let indication = onto.concept_id("Indication").unwrap();
        let prec_intent = intents.iter().find(|i| i.name == "Precautions of Drug").unwrap();
        let pattern = &prec_intent.patterns()[0];
        let tpl = template_for_pattern(pattern, &[indication], &onto, &kb, &mapping).unwrap();
        let mut expected = pattern.required.clone();
        expected.push(indication);
        assert_eq!(tpl.required_concepts(), expected);
        assert!(tpl.sql().ends_with("= '<@Indication>'"), "{}", tpl.sql());
        assert_eq!(tpl.prepare(&kb).unwrap().param_count(), 2);
    }

    #[test]
    fn abstract_members_are_skipped_with_reasons() {
        let (onto, kb, mapping, intents) = setup();
        let (templates, skipped) = generate_templates(&intents, &onto, &kb, &mapping);
        // ContraIndication / BlackBoxWarning / DrugFood/LabInteraction have
        // no tables in the fixture → their augmented patterns are skipped,
        // but the parent templates survive.
        assert!(!skipped.is_empty());
        let risk = onto.concept_id("Risk").unwrap();
        let risk_intent =
            intents.iter().find(|i| i.patterns().first().map(|p| p.focus) == Some(risk)).unwrap();
        let risk_templates = templates
            .iter()
            .find(|t| t.intent == risk_intent.id)
            .expect("risk parent template survives");
        assert_eq!(risk_templates.templates.len(), 1);
    }

    #[test]
    fn indirect_template_has_two_parameters() {
        let (onto, kb, mapping, intents) = setup();
        let two_param = intents
            .iter()
            .flat_map(|i| i.patterns())
            .find(|p| p.kind == PatternKind::IndirectRelationship && p.required.len() == 2)
            .expect("two-filter indirect pattern exists");
        let tpl = template_for_pattern(two_param, &[], &onto, &kb, &mapping).unwrap();
        assert_eq!(tpl.required_concepts().len(), 2);
        assert!(tpl.sql().contains("'<@Drug>'"));
        assert!(tpl.sql().contains("'<@Indication>'"));
    }

    #[test]
    fn every_query_intent_gets_at_least_one_template() {
        let (onto, kb, mapping, intents) = setup();
        let (templates, _) = generate_templates(&intents, &onto, &kb, &mapping);
        for intent in intents.iter().filter(|i| i.is_query()) {
            assert!(
                templates.iter().any(|t| t.intent == intent.id),
                "intent `{}` has no template",
                intent.name
            );
        }
    }
}
