//! Assembly of Conversational MDX: ontology + synthetic KB + bootstrapped
//! conversation space + dialogue customisation + online agent.

use obcs_agent::{AgentConfig, ConversationAgent};
use obcs_core::templates::{template_for_pattern, LabeledTemplate};
use obcs_core::{bootstrap, BootstrapConfig, ConversationSpace};
use obcs_kb::KnowledgeBase;
use obcs_nlq::OntologyMapping;
use obcs_ontology::Ontology;

use crate::data::{build_mdx_kb, MdxDataConfig};
use crate::ontology::build_mdx_ontology;
use crate::sme::mdx_sme_feedback;
use crate::synonyms::drug_instance_synonyms;

/// The assembled Conversational MDX system.
pub struct ConversationalMdx {
    pub agent: ConversationAgent,
}

impl ConversationalMdx {
    /// Builds the full system with the default scale (150 drugs).
    pub fn new(seed: u64) -> Self {
        Self::with_config(MdxDataConfig { seed, ..MdxDataConfig::default() })
    }

    /// Builds with a custom data configuration (smaller scales for tests).
    pub fn with_config(config: MdxDataConfig) -> Self {
        let (onto, kb, mapping, space) = Self::bootstrap_space(config);
        let mut agent = ConversationAgent::new(
            onto,
            kb,
            mapping,
            space,
            AgentConfig { name: "Micromedex".into(), intent_confidence_threshold: 0.15 },
        );
        Self::customise(&mut agent);
        ConversationalMdx { agent }
    }

    /// Runs the offline pipeline and returns all artifacts (used by the
    /// repro harness, which needs the pieces separately).
    pub fn bootstrap_space(
        config: MdxDataConfig,
    ) -> (Ontology, KnowledgeBase, OntologyMapping, ConversationSpace) {
        let onto = build_mdx_ontology();
        let kb = build_mdx_kb(config);
        let mapping = OntologyMapping::infer(&onto, &kb);
        let sme = mdx_sme_feedback(&onto);
        let mut space = bootstrap(&onto, &kb, &mapping, BootstrapConfig::default(), &sme);
        Self::add_age_group_slots(&onto, &kb, &mapping, &mut space);
        Self::add_optional_entities(&onto, &mut space);
        (onto, kb, mapping, space)
    }

    /// SME slot customisation (§6.2, Table 4): treatment and dosage
    /// requests additionally require the Age Group entity, so the agent
    /// elicits "Adult or pediatric?" — realised by adding `AgeGroup` to the
    /// intents' required entities and regenerating their templates with the
    /// extra filter (the join routes through the Dosage records).
    fn add_age_group_slots(
        onto: &Ontology,
        kb: &KnowledgeBase,
        mapping: &OntologyMapping,
        space: &mut ConversationSpace,
    ) {
        let age_group = onto.concept_id("AgeGroup").expect("AgeGroup concept");
        for intent_name in ["Drugs That Treat Condition", "Drug Dosage for Condition"] {
            let Some(intent) = space.intents.iter_mut().find(|i| i.name == intent_name) else {
                continue;
            };
            if !intent.required_entities.contains(&age_group) {
                intent.required_entities.push(age_group);
            }
            let id = intent.id;
            // Extend the grounding patterns and regenerate templates.
            if let obcs_core::intents::IntentGoal::Query(patterns) = &mut intent.goal {
                for p in patterns.iter_mut() {
                    if !p.required.contains(&age_group) {
                        p.required.push(age_group);
                    }
                }
                let regenerated: Vec<LabeledTemplate> = patterns
                    .iter()
                    .filter_map(|p| {
                        template_for_pattern(p, &[], onto, kb, mapping)
                            .ok()
                            .map(|t| LabeledTemplate { topic: p.topic.clone(), template: t })
                    })
                    .collect();
                if let Some(slot) = space.templates.iter_mut().find(|t| t.intent == id) {
                    slot.templates = regenerated;
                }
            }
        }
    }

    /// Optional entities (Table 4): captured when present, never elicited.
    /// "severe adverse effects of aspirin" narrows the adverse-effect
    /// lookup by the Severity instance in the utterance.
    fn add_optional_entities(onto: &Ontology, space: &mut ConversationSpace) {
        let optional: &[(&str, &str)] = &[
            ("Adverse Effects of Drug", "Severity"),
            ("Drugs That Treat Condition", "Efficacy"),
            ("Precautions of Drug", "PatientPopulation"),
            ("IV Compatibility of Drug", "Solution"),
        ];
        for (intent_name, concept_name) in optional {
            let Ok(concept) = onto.concept_id(concept_name) else { continue };
            if let Some(intent) = space.intents.iter_mut().find(|i| &i.name == intent_name) {
                if !intent.optional_entities.contains(&concept) {
                    intent.optional_entities.push(concept);
                }
            }
        }
    }

    /// Online-side customisation: elicitation prompts, glossary, and
    /// instance synonyms.
    fn customise(agent: &mut ConversationAgent) {
        // Elicitation prompts of Table 4.
        let (age_group, condition) = {
            let space = agent.space();
            let find = |name: &str| {
                space.intent_by_name(name).map(|i| (i.id, i.required_entities.clone()))
            };
            (find("Drugs That Treat Condition"), find("Drug Dosage for Condition"))
        };
        let tree = agent.tree_mut();
        if let Some((id, required)) = age_group {
            // Last required entity is AgeGroup (appended by the SME slot
            // customisation).
            if let Some(&age) = required.last() {
                tree.logic.set_elicitation(id, age, "Adult or pediatric?");
            }
            if let Some(&first) = required.first() {
                tree.logic.set_elicitation(id, first, "For which condition?");
            }
        }
        if let Some((id, required)) = condition {
            if let Some(&age) = required.last() {
                tree.logic.set_elicitation(id, age, "Adult or pediatric?");
            }
        }
        // Glossary terms for definition-request repair (§6.3 line 8-9).
        tree.add_glossary(
            "effective",
            "the capacity for beneficial change (or therapeutic effect) of a given intervention.",
        );
        tree.add_glossary(
            "contraindication",
            "a condition or factor that makes a particular treatment inadvisable.",
        );
        tree.add_glossary(
            "black box warning",
            "the strongest warning the FDA requires, indicating a serious or life-threatening risk.",
        );
        tree.add_glossary(
            "iv compatibility",
            "whether two intravenous preparations can be administered together without degradation.",
        );
        // Brand and base-with-salt synonyms resolve to the canonical drug.
        let drug_concept = {
            // The agent's space no longer exposes the ontology directly;
            // DRUG_GENERAL's required entity is the Drug concept.
            agent.space().intent_by_name("DRUG_GENERAL").map(|i| i.required_entities[0])
        };
        if let Some(drug_concept) = drug_concept {
            for (canonical, synonym) in drug_instance_synonyms() {
                agent.nlu_mut().add_instance_synonym(drug_concept, &canonical, &synonym);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced-scale system shared by tests (bootstrap is the expensive
    /// part; build it once).
    fn mdx() -> ConversationalMdx {
        ConversationalMdx::with_config(MdxDataConfig { drugs: 80, seed: 7 })
    }

    #[test]
    fn space_matches_paper_inventory() {
        let (_, _, _, space) =
            ConversationalMdx::bootstrap_space(MdxDataConfig { drugs: 80, seed: 7 });
        let inv = space.inventory();
        assert_eq!(inv.lookup_intents, 14, "paper: 14 lookup intents; {inv:?}");
        assert_eq!(inv.relationship_intents, 8, "paper: 8 relationship intents; {inv:?}");
        assert_eq!(inv.management_intents, 13, "{inv:?}");
        assert_eq!(inv.entity_only_intents, 1, "DRUG_GENERAL; {inv:?}");
        assert_eq!(inv.intents_total, 36, "paper §7.1: 36 intents; {inv:?}");
        assert_eq!(inv.entities, 59, "one entity per concept; {inv:?}");
        assert!(inv.training_examples > 400, "{inv:?}");
    }

    #[test]
    fn table5_intent_names_exist() {
        let (_, _, _, space) =
            ConversationalMdx::bootstrap_space(MdxDataConfig { drugs: 80, seed: 7 });
        for name in [
            "Drug Dosage for Condition",
            "Administration of Drug",
            "IV Compatibility of Drug",
            "Drugs That Treat Condition",
            "Uses of Drug",
            "Adverse Effects of Drug",
            "Drug-Drug Interactions",
            "DRUG_GENERAL",
            "Dose Adjustments for Drug",
            "Regulatory Status for Drug",
            "Pharmacokinetics",
        ] {
            assert!(space.intent_by_name(name).is_some(), "missing intent `{name}`");
        }
    }

    #[test]
    fn treatment_request_requires_condition_and_age_group() {
        let (onto, _, _, space) =
            ConversationalMdx::bootstrap_space(MdxDataConfig { drugs: 80, seed: 7 });
        let treat = space.intent_by_name("Drugs That Treat Condition").unwrap();
        let condition = onto.concept_id("Condition").unwrap();
        let age = onto.concept_id("AgeGroup").unwrap();
        assert_eq!(treat.required_entities, vec![condition, age]);
        let tpl = &space.templates_for(treat.id)[0];
        assert!(tpl.template.sql().contains("'<@Condition>'"), "{}", tpl.template.sql());
        assert!(tpl.template.sql().contains("'<@AgeGroup>'"), "{}", tpl.template.sql());
    }

    #[test]
    fn transcript_flow_treatment_with_elicitation() {
        let mut m = mdx();
        // §6.3 lines 02-05.
        let r = m.agent.respond("show me drugs that treat psoriasis");
        assert_eq!(r.kind, obcs_agent::ReplyKind::Elicitation, "{r:?}");
        assert_eq!(r.text, "Adult or pediatric?");
        let r = m.agent.respond("adult");
        assert_eq!(r.kind, obcs_agent::ReplyKind::Fulfilment, "{r:?}");
        assert!(r.text.contains("Acitretin") || r.text.contains("Adalimumab"), "{}", r.text);
        // Incremental modification (line 06): "I mean pediatric".
        let r = m.agent.respond("I mean pediatric");
        assert_eq!(r.kind, obcs_agent::ReplyKind::Fulfilment, "{r:?}");
        assert!(r.text.contains("Tazarotene") || r.text.contains("Fluocinonide"), "{}", r.text);
    }

    #[test]
    fn transcript_flow_definition_and_dosage() {
        let mut m = mdx();
        m.agent.respond("show me drugs that treat psoriasis");
        m.agent.respond("pediatric");
        // Line 08: definition request.
        let r = m.agent.respond("what do you mean by effective?");
        assert!(r.text.contains("beneficial change"), "{}", r.text);
        // Line 12: dosage with context reuse (psoriasis + pediatric carried
        // over).
        let r = m.agent.respond("dosage for Tazarotene");
        assert_eq!(r.kind, obcs_agent::ReplyKind::Fulfilment, "{r:?}");
        assert!(r.text.contains("Tazorac"), "{}", r.text);
        // Line 14: incremental drug switch.
        let r = m.agent.respond("how about for Fluocinonide?");
        assert!(r.text.contains("0.1% cream"), "{}", r.text);
    }

    #[test]
    fn transcript_flow_user_480_keyword_search() {
        let mut m = mdx();
        // "cogentin" resolves through the brand synonym to Benztropine
        // Mesylate and triggers a proposal.
        let r = m.agent.respond("cogentin");
        assert_eq!(r.kind, obcs_agent::ReplyKind::Proposal, "{r:?}");
        assert!(r.text.contains("Benztropine Mesylate"), "{}", r.text);
        let r = m.agent.respond("no");
        assert!(r.text.contains("modify your search"), "{}", r.text);
        // "cogentin adverse effects" now carries intent + entity.
        let r = m.agent.respond("cogentin adverse effects");
        assert_eq!(r.kind, obcs_agent::ReplyKind::Fulfilment, "{r:?}");
    }

    #[test]
    fn partial_drug_name_disambiguation() {
        let mut m = mdx();
        let r = m.agent.respond("calcium");
        assert_eq!(r.kind, obcs_agent::ReplyKind::Disambiguation, "{r:?}");
        assert!(r.text.contains("Calcium Carbonate"), "{}", r.text);
        assert!(r.text.contains("Calcium Citrate"), "{}", r.text);
        let r = m.agent.respond("calcium carbonate");
        assert_eq!(r.kind, obcs_agent::ReplyKind::Proposal, "{r:?}");
    }

    #[test]
    fn optional_severity_narrows_adverse_effects() {
        let mut m = mdx();
        let baseline = m.agent.respond("adverse effects of Aspirin");
        assert_eq!(baseline.kind, obcs_agent::ReplyKind::Fulfilment);
        let baseline_lines = baseline.text.lines().count();
        m.agent.reset();
        // "severe" is a Severity instance: captured as an optional entity,
        // the lookup narrows to severe effects only (Table 4).
        let narrowed = m.agent.respond("severe adverse effects of Aspirin");
        assert_eq!(narrowed.kind, obcs_agent::ReplyKind::Fulfilment, "{narrowed:?}");
        assert!(
            narrowed.text.lines().count() <= baseline_lines,
            "severity filter must not widen the result:\n{}\nvs\n{}",
            narrowed.text,
            baseline.text
        );
    }

    #[test]
    fn side_effects_synonym_resolves() {
        let mut m = mdx();
        let r = m.agent.respond("what are the side effects of aspirin");
        assert_eq!(r.kind, obcs_agent::ReplyKind::Fulfilment, "{r:?}");
        assert!(r.found_results, "{r:?}");
    }
}
