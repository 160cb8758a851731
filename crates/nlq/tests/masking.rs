//! Tests for entity masking and lexicon number-variants — the features
//! the intent classifier's accuracy rests on.

use obcs_kb::schema::{ColumnType, TableSchema};
use obcs_kb::{KnowledgeBase, Value};
use obcs_nlq::annotate::{mask_annotated, Evidence, Lexicon};
use obcs_nlq::OntologyMapping;
use obcs_ontology::{Ontology, OntologyBuilder};
use proptest::prelude::*;

/// The quadratic mask `Lexicon::mask` used to be, kept as the oracle of
/// its one-pass walk: a `String` per token, and for each token a scan
/// of every annotation for an instance span starting there.
fn mask_oracle(lex: &Lexicon, utterance: &str, onto: &Ontology) -> String {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    for ch in utterance.chars() {
        if ch.is_alphanumeric() {
            cur.extend(ch.to_lowercase());
        } else if !cur.is_empty() {
            tokens.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        tokens.push(cur);
    }
    let annotations = lex.annotate(utterance);
    let mut out: Vec<String> = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        let instance_span = annotations
            .iter()
            .find(|a| a.start == i && matches!(a.evidence, Evidence::Instance { .. }));
        match instance_span {
            Some(a) => {
                if let Evidence::Instance { concept, .. } = &a.evidence {
                    out.push(format!("ent{}", onto.concept_name(*concept).to_lowercase()));
                }
                i = a.end;
            }
            None => {
                out.push(tokens[i].clone());
                i += 1;
            }
        }
    }
    out.join(" ")
}

/// The test world's lexicon plus phrases that carry several evidences:
/// one naming two instances, one a concept before an instance, and a
/// multi-word one an instance before a concept.
fn ambiguous_lexicon(onto: &Ontology, kb: &KnowledgeBase, mapping: &OntologyMapping) -> Lexicon {
    let mut lex = Lexicon::build(onto, kb, mapping);
    let drug = onto.concept_id("Drug").expect("Drug");
    let condition = onto.concept_id("Condition").expect("Condition");
    let precaution = onto.concept_id("Precaution").expect("Precaution");
    let instance = |concept, value: &str| Evidence::Instance { concept, value: value.into() };
    lex.add_phrase("cold", instance(condition, "Common Cold"));
    lex.add_phrase("cold", instance(drug, "Cold Relief"));
    lex.add_phrase("warning", Evidence::Concept(precaution));
    lex.add_phrase("warning", instance(condition, "Warning Signs"));
    lex.add_phrase("calcium carbonate tablet", instance(drug, "Calcium Carbonate"));
    lex.add_phrase("calcium carbonate tablet", Evidence::Concept(drug));
    lex
}

/// Words the mask oracle proptest draws utterances from: phrase tokens
/// (single- and multi-word, singular and plural), fillers, mixed case,
/// digits and non-ASCII letters.
const WORDS: &[&str] = &[
    "aspirin",
    "Aspirin",
    "calcium",
    "carbonate",
    "Carbonate",
    "tablet",
    "tablets",
    "fever",
    "FEVER",
    "cold",
    "colds",
    "warning",
    "warnings",
    "drug",
    "drugs",
    "precaution",
    "precautions",
    "condition",
    "for",
    "of",
    "the",
    "show",
    "me",
    "Ärzte",
    "naïve",
    "x1",
    "2024",
];

/// Separators between drawn words: spaces, punctuation, apostrophes.
const SEPARATORS: &[&str] = &[" ", "  ", ", ", "? ", "-", "'", " (", ") "];

fn world() -> (Ontology, KnowledgeBase, OntologyMapping) {
    let onto = OntologyBuilder::new("m")
        .data("Drug", &["name"])
        .data("Condition", &["name"])
        .data("Precaution", &["description"])
        .relation("treats", "Drug", "Condition")
        .relation("has", "Drug", "Precaution")
        .build()
        .expect("ontology");
    let mut kb = KnowledgeBase::new();
    kb.create_table(
        TableSchema::new("drug")
            .column("drug_id", ColumnType::Int)
            .column("name", ColumnType::Text)
            .primary_key("drug_id"),
    )
    .expect("schema");
    kb.create_table(
        TableSchema::new("condition")
            .column("condition_id", ColumnType::Int)
            .column("name", ColumnType::Text)
            .primary_key("condition_id"),
    )
    .expect("schema");
    for (i, n) in ["Aspirin", "Calcium Carbonate"].iter().enumerate() {
        kb.insert("drug", vec![Value::Int(i as i64), Value::text(*n)]).expect("drug row");
    }
    kb.insert("condition", vec![Value::Int(0), Value::text("Fever")]).expect("condition row");
    let mapping = OntologyMapping::infer(&onto, &kb);
    (onto, kb, mapping)
}

#[test]
fn mask_replaces_instances_with_concept_placeholders() {
    let (onto, kb, mapping) = world();
    let lex = Lexicon::build(&onto, &kb, &mapping);
    assert_eq!(
        lex.mask("dosage of Aspirin for Fever", &onto),
        "dosage of entdrug for entcondition"
    );
    // Multi-word instances collapse to a single placeholder.
    assert_eq!(
        lex.mask("precautions for calcium carbonate", &onto),
        // "precautions" is the plural variant of the Precaution concept —
        // concept mentions are kept as-is, instances masked.
        "precautions for entdrug"
    );
}

#[test]
fn mask_of_entityless_text_is_normalisation_only() {
    let (onto, kb, mapping) = world();
    let lex = Lexicon::build(&onto, &kb, &mapping);
    assert_eq!(lex.mask("Hello, THERE!", &onto), "hello there");
    assert_eq!(lex.mask("", &onto), "");
}

#[test]
fn plural_variants_match_in_both_directions() {
    let (onto, kb, mapping) = world();
    let lex = Lexicon::build(&onto, &kb, &mapping);
    let prec = onto.concept_id("Precaution").unwrap();
    // Singular concept name matches a plural mention and vice versa.
    assert!(lex
        .annotate("precautions for aspirin")
        .iter()
        .any(|a| a.evidence == Evidence::Concept(prec)));
    assert!(lex
        .annotate("precaution for aspirin")
        .iter()
        .any(|a| a.evidence == Evidence::Concept(prec)));
}

#[test]
fn synonym_phrases_also_mask() {
    let (onto, kb, mapping) = world();
    let mut lex = Lexicon::build(&onto, &kb, &mapping);
    let drug = onto.concept_id("Drug").unwrap();
    lex.add_phrase("asa", Evidence::Instance { concept: drug, value: "Aspirin".into() });
    assert_eq!(lex.mask("dosage of asa", &onto), "dosage of entdrug");
}

#[test]
fn mask_matches_the_oracle_on_fixed_probes() {
    let (onto, kb, mapping) = world();
    let lex = ambiguous_lexicon(&onto, &kb, &mapping);
    for probe in [
        "",
        "!!",
        "dosage of Aspirin for Fever",
        "precautions for calcium carbonate",
        "calcium carbonate tablet warnings for a cold",
        "cold cold warning, calcium calcium carbonate",
        "Aspirin's warning: FEVER!",
        "drug aspirin aspirin drug",
    ] {
        assert_eq!(lex.mask(probe, &onto), mask_oracle(&lex, probe, &onto), "{probe:?}");
    }
    // A phrase whose first evidence is a concept masks by its first
    // instance evidence; one that names two instances, by the first.
    assert_eq!(lex.mask("any warning", &onto), "any entcondition");
    assert_eq!(lex.mask("a cold", &onto), "a entcondition");
    assert_eq!(lex.mask("calcium carbonate tablet now", &onto), "entdrug now");
}

proptest! {
    /// The one-pass mask equals the quadratic oracle, over multi-word
    /// phrases and phrases that carry several evidences, and
    /// `mask_annotated` over the utterance's own annotations is `mask`.
    #[test]
    fn mask_equals_the_quadratic_oracle(
        words in proptest::collection::vec((0..WORDS.len(), 0..SEPARATORS.len()), 0..24),
        lead in 0..SEPARATORS.len(),
    ) {
        let (onto, kb, mapping) = world();
        let lex = ambiguous_lexicon(&onto, &kb, &mapping);
        let mut text = SEPARATORS[lead].to_string();
        for &(word, sep) in &words {
            text.push_str(WORDS[word]);
            text.push_str(SEPARATORS[sep]);
        }
        let masked = lex.mask(&text, &onto);
        prop_assert_eq!(&masked, &mask_oracle(&lex, &text, &onto), "{:?}", text);
        prop_assert_eq!(mask_annotated(&text, &lex.annotate(&text), &onto), masked);
    }

    /// Arbitrary text: the walk and the oracle agree.
    #[test]
    fn mask_equals_the_oracle_on_arbitrary_text(text in "\\PC{0,60}") {
        let (onto, kb, mapping) = world();
        let lex = ambiguous_lexicon(&onto, &kb, &mapping);
        prop_assert_eq!(lex.mask(&text, &onto), mask_oracle(&lex, &text, &onto));
    }

    /// Masking never panics and its output contains no original instance
    /// values.
    #[test]
    fn mask_never_panics_and_removes_known_instances(text in "\\PC{0,50}") {
        let (onto, kb, mapping) = world();
        let lex = Lexicon::build(&onto, &kb, &mapping);
        let masked = lex.mask(&text, &onto);
        prop_assert!(!masked.to_lowercase().contains("aspirin"));
    }

    /// Annotation spans never overlap and stay within the token range.
    #[test]
    fn annotations_are_well_formed(text in "[a-zA-Z ]{0,60}") {
        let (onto, kb, mapping) = world();
        let lex = Lexicon::build(&onto, &kb, &mapping);
        let anns = lex.annotate(&text);
        for w in anns.windows(2) {
            prop_assert!(w[0].end <= w[1].start || w[0].start == w[1].start,
                "overlap: {:?}", w);
        }
        for a in &anns {
            prop_assert!(a.start < a.end);
        }
    }
}
