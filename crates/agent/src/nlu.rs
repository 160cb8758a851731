//! Natural-language understanding: intent classification over the
//! bootstrapped training set plus dictionary-based entity recognition with
//! synonyms and partial-name disambiguation (paper §6.1).
//!
//! Recognition annotates an utterance once and builds from those
//! annotations both the entities and the masked text the classifier
//! reads ([`RecognizedEntities::masked`]), so a turn never annotates
//! twice. Nothing is cached between utterances (DESIGN.md §12).

use obcs_classifier::logreg::{LogReg, LogRegConfig};
use obcs_classifier::naive_bayes::{NaiveBayes, NaiveBayesConfig};
use obcs_classifier::{Classifier, Dataset};
use obcs_core::entities::EntityKind;
use obcs_core::{ConversationSpace, IntentId};
use obcs_kb::KnowledgeBase;
use obcs_nlq::annotate::{mask_annotated, Evidence, Lexicon};
use obcs_nlq::OntologyMapping;
use obcs_ontology::{ConceptId, Ontology};
use obcs_telemetry::{NoopRecorder, Recorder};
use serde::{Deserialize, Serialize};

/// The result of entity recognition on one utterance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecognizedEntities {
    /// Fully recognised instances `(concept, canonical value)`.
    pub instances: Vec<(ConceptId, String)>,
    /// Concepts mentioned by name (no instance).
    pub concepts: Vec<ConceptId>,
    /// Partial-name candidates when nothing fully matched: the user's
    /// fragment plus the matching instances (§6.1 Calcium → Calcium
    /// Carbonate, Calcium Citrate).
    pub partial: Option<(String, Vec<(ConceptId, String)>)>,
    /// The utterance as the intent classifier reads it: normalised, each
    /// recognised instance span masked by its concept placeholder
    /// ([`Lexicon::mask`]), built from the same annotations.
    pub masked: String,
}

/// Which intent-classifier family to train (see the `ablation-classifier`
/// harness for the accuracy/latency trade-off: logistic regression scores
/// noticeably higher on the bootstrapped data but trains slower — ~5× at
/// MDX scale since the CSR/class-blocked rewrite; `repro perf` tracks it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ClassifierKind {
    #[default]
    NaiveBayes,
    LogisticRegression,
}

/// NLU component: classifier + entity lexicon.
pub struct Nlu {
    classifier: Box<dyn Classifier + Send + Sync>,
    lexicon: Lexicon,
    /// Intent names in classifier-label order resolve through this map.
    intents_by_name: Vec<(String, IntentId)>,
    /// Entity-only intents per concept (DRUG_GENERAL).
    entity_only: Vec<(ConceptId, IntentId)>,
    /// Concept names needed for entity masking during classification.
    onto: Ontology,
}

impl Nlu {
    /// Builds the NLU from a conversation space: trains the classifier on
    /// the bootstrapped training examples and assembles the entity lexicon
    /// (concept names, instance values, synonyms).
    pub fn from_space(
        space: &ConversationSpace,
        onto: &Ontology,
        kb: &KnowledgeBase,
        mapping: &OntologyMapping,
    ) -> Self {
        Self::from_space_with(space, onto, kb, mapping, ClassifierKind::default())
    }

    /// Like [`Nlu::from_space`], with an explicit classifier family.
    pub fn from_space_with(
        space: &ConversationSpace,
        onto: &Ontology,
        kb: &KnowledgeBase,
        mapping: &OntologyMapping,
        kind: ClassifierKind,
    ) -> Self {
        let mut lexicon = Lexicon::build(onto, kb, mapping);
        // Concept-name synonyms from the space's entity definitions.
        for e in &space.entities {
            for syn in &e.synonyms {
                lexicon.add_phrase(syn, Evidence::Concept(e.concept));
            }
            // Grouping entities also answer to their members' names via the
            // members themselves (already in the lexicon as concepts).
            if let EntityKind::Grouping(_) = e.kind {
                // nothing extra: members are concepts in the ontology
            }
        }
        // Instance-value synonyms from the synonym dictionary: a synonym
        // whose canonical phrase is an instance value resolves to that
        // instance.
        for (canonical, synonyms) in space.synonyms.iter() {
            for e in &space.entities {
                if let Some(value) = e.examples.iter().find(|v| v.eq_ignore_ascii_case(canonical)) {
                    for syn in synonyms {
                        lexicon.add_phrase(
                            syn,
                            Evidence::Instance { concept: e.concept, value: value.clone() },
                        );
                    }
                }
            }
        }

        // Train on *masked* text: instance values become concept
        // placeholders, so the classifier learns intent-bearing words, not
        // incidental entity vocabularies (the paper's intent + entity
        // separation).
        let mut data = Dataset::new();
        for ex in &space.training {
            if let Some(intent) = space.intent(ex.intent) {
                data.push(lexicon.mask(&ex.text, onto), intent.name.clone());
            }
        }
        let classifier: Box<dyn Classifier + Send + Sync> = match kind {
            ClassifierKind::NaiveBayes => {
                Box::new(NaiveBayes::train(&data, NaiveBayesConfig::default()))
            }
            ClassifierKind::LogisticRegression => {
                Box::new(LogReg::train(&data, LogRegConfig::default()))
            }
        };

        let intents_by_name = space.intents.iter().map(|i| (i.name.clone(), i.id)).collect();
        let entity_only = space
            .intents
            .iter()
            .filter_map(|i| match i.goal {
                obcs_core::intents::IntentGoal::EntityOnly(c) => Some((c, i.id)),
                _ => None,
            })
            .collect();
        Nlu { classifier, lexicon, intents_by_name, entity_only, onto: onto.clone() }
    }

    /// Registers an extra instance synonym (e.g. brand names).
    pub fn add_instance_synonym(&mut self, concept: ConceptId, canonical: &str, synonym: &str) {
        self.lexicon
            .add_phrase(synonym, Evidence::Instance { concept, value: canonical.to_string() });
    }

    /// Classifies the intent of an utterance; returns `(intent,
    /// confidence)` of the winner even when weak — thresholding is the
    /// engine's call.
    pub fn classify(&self, utterance: &str) -> Option<(IntentId, f64)> {
        self.classify_masked(&self.lexicon.mask(utterance, &self.onto), &NoopRecorder)
    }

    /// Classifies text that recognition already masked
    /// ([`RecognizedEntities::masked`]), recording a
    /// [`classify`](obcs_telemetry::stage::CLASSIFY) span on `rec`.
    pub fn classify_masked(&self, masked: &str, rec: &dyn Recorder) -> Option<(IntentId, f64)> {
        let pred = self.classifier.predict_traced(masked, rec);
        self.intents_by_name
            .iter()
            .find(|(name, _)| *name == pred.label)
            .map(|&(_, id)| (id, pred.confidence))
    }

    /// Stateless intent detection as the deployed system would label a
    /// log record: entity-dominant utterances (bare entity mentions plus
    /// filler, §6.1) resolve to the concept's entity-only intent
    /// (DRUG_GENERAL); everything else goes through the classifier.
    pub fn detect_intent(&self, utterance: &str) -> Option<(IntentId, f64)> {
        let recognized = self.recognize(utterance);
        if is_entity_dominant(utterance, &recognized.instances) {
            if let Some(&(_, intent)) = self
                .entity_only
                .iter()
                .find(|(c, _)| recognized.instances.iter().any(|(ic, _)| ic == c))
            {
                return Some((intent, 1.0));
            }
        }
        self.classify_masked(&recognized.masked, &NoopRecorder)
    }

    /// Recognises entities in an utterance.
    pub fn recognize(&self, utterance: &str) -> RecognizedEntities {
        self.recognize_traced(utterance, &NoopRecorder)
    }

    /// Like [`Nlu::recognize`], recording an
    /// [`annotate`](obcs_telemetry::stage::ANNOTATE) span around the
    /// lexicon scan on `rec`.
    pub fn recognize_traced(&self, utterance: &str, rec: &dyn Recorder) -> RecognizedEntities {
        let annotations = self.lexicon.annotate_traced(utterance, rec);
        let mut out = RecognizedEntities {
            masked: mask_annotated(utterance, &annotations, &self.onto),
            ..RecognizedEntities::default()
        };
        for ann in annotations {
            match ann.evidence {
                Evidence::Instance { concept, value } => {
                    if !out.instances.iter().any(|(c, v)| *c == concept && *v == value) {
                        out.instances.push((concept, value));
                    }
                }
                Evidence::Concept(c) => {
                    if !out.concepts.contains(&c) {
                        out.concepts.push(c);
                    }
                }
            }
        }
        // Partial matching: only when no full instance matched, try the
        // longest unknown token run against instance values.
        if out.instances.is_empty() {
            let candidates = self.lexicon.partial_matches(utterance.trim());
            if !candidates.is_empty() && candidates.len() <= 8 {
                out.partial = Some((utterance.trim().to_string(), candidates));
            }
        }
        out
    }

    /// The entity lexicon (for tests and tooling).
    pub fn lexicon(&self) -> &Lexicon {
        &self.lexicon
    }
}

/// Whether an utterance consists only of recognised entity values plus
/// filler words — i.e. it names *what* but not *what about it* (the
/// incremental specifications of paper §6.3 and the keyword queries of
/// §6.1).
pub fn is_entity_dominant(utterance: &str, instances: &[(ConceptId, String)]) -> bool {
    if instances.is_empty() {
        return false;
    }
    const FILLER: &[&str] = &[
        "how", "about", "for", "what", "whats", "the", "a", "an", "i", "mean", "meant", "please",
        "and", "also", "of", "in", "on", "to", "it", "that", "this", "now", "instead", "try",
        "with", "same", "again", "ok", "okay",
    ];
    let mut remaining = obcs_nlq::annotate::normalize(utterance);
    for (_, value) in instances {
        let norm_value = obcs_nlq::annotate::normalize(value);
        remaining = remaining.replace(&norm_value, " ");
    }
    remaining.split_whitespace().all(|tok| FILLER.contains(&tok))
}

#[cfg(test)]
mod tests {
    use super::*;
    use obcs_core::testutil::fig2_fixture;
    use obcs_core::{bootstrap, BootstrapConfig, SmeFeedback};

    fn nlu() -> (Ontology, ConversationSpace, Nlu) {
        let (onto, kb, mapping) = fig2_fixture();
        let drug = onto.concept_id("Drug").unwrap();
        let sme = SmeFeedback::new()
            .synonym("Drug", &["medicine", "medication"])
            .synonym("Aspirin", &["asa"])
            .entity_only(drug);
        let space = bootstrap(&onto, &kb, &mapping, BootstrapConfig::default(), &sme);
        let nlu = Nlu::from_space(&space, &onto, &kb, &mapping);
        (onto, space, nlu)
    }

    #[test]
    fn classifies_lookup_intent() {
        let (_, space, nlu) = nlu();
        let (intent, conf) = nlu.classify("show me the precaution for Aspirin").unwrap();
        let expected = space.intent_by_name("Precautions of Drug").unwrap();
        assert_eq!(intent, expected.id);
        assert!(conf > 0.3, "confidence {conf}");
    }

    #[test]
    fn recognizes_instances_and_concepts() {
        let (onto, _, nlu) = nlu();
        let drug = onto.concept_id("Drug").unwrap();
        let prec = onto.concept_id("Precaution").unwrap();
        let rec = nlu.recognize("precaution for aspirin");
        assert_eq!(rec.instances, vec![(drug, "Aspirin".to_string())]);
        assert_eq!(rec.concepts, vec![prec]);
    }

    #[test]
    fn synonym_resolution_for_concepts_and_instances() {
        let (onto, _, nlu) = nlu();
        let drug = onto.concept_id("Drug").unwrap();
        let rec = nlu.recognize("which medicine");
        assert_eq!(rec.concepts, vec![drug]);
        // Instance synonym "asa" → Aspirin.
        let rec = nlu.recognize("dosage of asa");
        assert!(rec.instances.contains(&(drug, "Aspirin".to_string())));
    }

    #[test]
    fn partial_matching_surfaces_candidates() {
        let (onto, _, mut nlu) = nlu();
        let drug = onto.concept_id("Drug").unwrap();
        nlu.add_instance_synonym(drug, "Aspirin", "acetylsalicylic acid");
        let rec = nlu.recognize("tazaro");
        let (fragment, candidates) = rec.partial.expect("partial match for tazaro");
        assert_eq!(fragment, "tazaro");
        assert_eq!(candidates, vec![(drug, "Tazarotene".to_string())]);
    }

    #[test]
    fn no_partial_when_full_match_exists() {
        let (_, _, nlu) = nlu();
        let rec = nlu.recognize("aspirin");
        assert!(rec.partial.is_none());
        assert_eq!(rec.instances.len(), 1);
    }

    #[test]
    fn logistic_regression_backend_classifies_too() {
        let (onto, kb, mapping) = fig2_fixture();
        let space =
            bootstrap(&onto, &kb, &mapping, BootstrapConfig::default(), &SmeFeedback::new());
        let nlu =
            Nlu::from_space_with(&space, &onto, &kb, &mapping, ClassifierKind::LogisticRegression);
        let (intent, conf) = nlu.classify("show me the precaution for Aspirin").unwrap();
        let expected = space.intent_by_name("Precautions of Drug").unwrap();
        assert_eq!(intent, expected.id);
        assert!(conf > 0.2, "confidence {conf}");
    }

    #[test]
    fn a_synonym_added_after_a_recognition_is_seen_by_the_next() {
        let (onto, _, mut nlu) = nlu();
        let drug = onto.concept_id("Drug").unwrap();
        assert!(nlu.recognize("dosage of acetylsalicylic acid").instances.is_empty());
        nlu.add_instance_synonym(drug, "Aspirin", "acetylsalicylic acid");
        let rec = nlu.recognize("dosage of acetylsalicylic acid");
        assert!(
            rec.instances.contains(&(drug, "Aspirin".to_string())),
            "the recognition before the synonym must not serve"
        );
        assert_eq!(rec.masked, "dosage of entdrug");
    }

    #[test]
    fn classifying_recognised_text_equals_classifying_the_utterance() {
        let (_, _, nlu) = nlu();
        for utterance in ["show me the precaution for Aspirin", "which medicine", "apfjhd", ""] {
            let rec = nlu.recognize(utterance);
            assert_eq!(rec.masked, nlu.lexicon().mask(utterance, &nlu.onto), "{utterance:?}");
            assert_eq!(
                nlu.classify_masked(&rec.masked, &NoopRecorder),
                nlu.classify(utterance),
                "{utterance:?}"
            );
        }
    }

    #[test]
    fn gibberish_yields_nothing() {
        let (_, _, nlu) = nlu();
        let rec = nlu.recognize("apfjhd");
        assert!(rec.instances.is_empty());
        assert!(rec.concepts.is_empty());
        assert!(rec.partial.is_none());
    }
}
