//! Shared synthetic fixture for the lint tests: a minimal hand-built
//! artifact chain (ontology, KB, mapping, space) that passes every rule,
//! plus variants with specific defects baked in at construction time.

// Each integration-test binary compiles its own copy of this module and
// uses a different subset of it.
#![allow(dead_code)]

use obcs_core::concepts::{CompletionMetadata, DependentConcept, DependentSemantics};
use obcs_core::entities::{EntityDef, EntityKind, SynonymDict};
use obcs_core::intents::{Intent, IntentGoal, IntentId};
use obcs_core::patterns::{PatternKind, QueryPattern};
use obcs_core::templates::{IntentTemplates, LabeledTemplate};
use obcs_core::training::{ExampleSource, TrainingExample};
use obcs_core::ConversationSpace;
use obcs_kb::schema::{ColumnType, TableSchema};
use obcs_kb::{KnowledgeBase, Value};
use obcs_nlq::{OntologyMapping, QueryTemplate};
use obcs_ontology::{ConceptId, Ontology, OntologyBuilder};

pub struct Fixture {
    pub onto: Ontology,
    pub kb: KnowledgeBase,
    pub mapping: OntologyMapping,
    pub space: ConversationSpace,
}

impl Fixture {
    pub fn drug(&self) -> ConceptId {
        self.onto.concept_id("Drug").expect("fixture concept")
    }

    pub fn precaution(&self) -> ConceptId {
        self.onto.concept_id("Precaution").expect("fixture concept")
    }

    pub fn indication(&self) -> ConceptId {
        self.onto.concept_id("Indication").expect("fixture concept")
    }
}

const CLEAN_SQL: &str = "SELECT precaution.text FROM precaution \
                         JOIN drug ON precaution.drug_id = drug.id \
                         WHERE drug.name = '<@Drug>'";

/// Knobs for the fixture builder; `Default` produces the clean baseline.
pub struct Options {
    /// Training examples for the query intent (drop → OBCS100/OBCS103).
    pub train_query_intent: bool,
    /// Mark `Drug` as a key concept (controls the proposal branch).
    pub key_concept: bool,
    /// Give `Drug` entity examples and KB rows (drop both → the concept
    /// is unprovidable: OBCS101/OBCS111).
    pub drug_providable: bool,
    /// Include the entity-only `DRUG_GENERAL` intent and its training.
    pub entity_only_intent: bool,
    /// Whether the `indication` table declares its foreign key to `drug`
    /// (dropping it leaves the `treats` relationship unjoinable →
    /// OBCS043).
    pub indication_fk: bool,
    /// Table the `precaution.drug_id` FK references (a bogus name gives a
    /// broken declaration, OBCS051, and leaves the template join
    /// unbacked, OBCS122).
    pub fk_target: String,
    /// Template SQL (override to trip OBCS110/OBCS112/OBCS113/OBCS122).
    pub template_sql: &'static str,
    /// Template slot concepts, by ontology name.
    pub template_params: &'static [&'static str],
    /// Template topic (mismatch the pattern's → OBCS121).
    pub template_topic: &'static str,
    /// Drop the template without a skip entry (→ OBCS114).
    pub drop_template: bool,
    /// Add a training example for an intent the space does not define
    /// (→ OBCS120).
    pub dangling_training: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            train_query_intent: true,
            key_concept: true,
            drug_providable: true,
            entity_only_intent: true,
            indication_fk: true,
            fk_target: "drug".to_string(),
            template_sql: CLEAN_SQL,
            template_params: &["Drug"],
            template_topic: "Precautions",
            drop_template: false,
            dangling_training: false,
        }
    }
}

fn build_onto() -> Ontology {
    OntologyBuilder::new("fixture")
        .concept("Drug")
        .concept("Precaution")
        .concept("Indication")
        .data("Drug", &["name"])
        .data("Precaution", &["text"])
        .data("Indication", &["name"])
        .relation("hasPrecaution", "Drug", "Precaution")
        .relation_with_inverse("treats", "is treated by", "Drug", "Indication")
        .build()
        .expect("fixture ontology")
}

/// Builds the KB the options describe.
pub fn build_kb(opts: &Options) -> KnowledgeBase {
    let mut kb = KnowledgeBase::new();
    kb.create_table(
        TableSchema::new("drug")
            .column("id", ColumnType::Int)
            .column("name", ColumnType::Text)
            .primary_key("id"),
    )
    .expect("create drug");
    kb.create_table(
        TableSchema::new("precaution")
            .column("id", ColumnType::Int)
            .column("drug_id", ColumnType::Int)
            .column("text", ColumnType::Text)
            .primary_key("id")
            .foreign_key("drug_id", &opts.fk_target, "id"),
    )
    .expect("create precaution");
    let mut indication = TableSchema::new("indication")
        .column("id", ColumnType::Int)
        .column("drug_id", ColumnType::Int)
        .column("name", ColumnType::Text)
        .primary_key("id");
    if opts.indication_fk {
        indication = indication.foreign_key("drug_id", "drug", "id");
    }
    kb.create_table(indication).expect("create indication");

    if opts.drug_providable {
        kb.insert("drug", vec![Value::Int(7777), Value::text("aspirin")]).expect("insert drug");
        kb.insert("drug", vec![Value::Int(7778), Value::text("ibuprofen")]).expect("insert drug");
        if opts.fk_target == "drug" {
            kb.insert(
                "precaution",
                vec![Value::Int(1), Value::Int(7777), Value::text("avoid alcohol")],
            )
            .expect("insert precaution");
        }
        kb.insert("indication", vec![Value::Int(1), Value::Int(7777), Value::text("headache")])
            .expect("insert indication");
    }
    kb
}

fn build_space(onto: &Ontology, opts: &Options) -> ConversationSpace {
    let drug = onto.concept_id("Drug").expect("fixture concept");
    let precaution = onto.concept_id("Precaution").expect("fixture concept");
    let lookup = QueryPattern {
        kind: PatternKind::Lookup,
        focus: precaution,
        required: vec![drug],
        intermediates: vec![],
        relation_phrase: None,
        topic: "Precautions".to_string(),
        derived_from: None,
    };
    let query_intent = Intent {
        id: IntentId(0),
        name: "Precautions of Drug".to_string(),
        goal: IntentGoal::Query(vec![lookup]),
        required_entities: vec![drug],
        optional_entities: vec![],
        response_template: "Here are the {topic} for {entities}:\n{results}".to_string(),
    };
    let entity_only = Intent {
        id: IntentId(1),
        name: "DRUG_GENERAL".to_string(),
        goal: IntentGoal::EntityOnly(drug),
        required_entities: vec![],
        optional_entities: vec![],
        response_template: String::new(),
    };

    let mut training: Vec<(&str, u32)> = Vec::new();
    if opts.train_query_intent {
        training.extend([
            ("show me the precautions for aspirin", 0),
            ("what precautions does ibuprofen have", 0),
            ("precautions of aspirin", 0),
        ]);
    }
    if opts.entity_only_intent {
        training.extend([("aspirin", 1), ("tell me about ibuprofen", 1), ("aspirin please", 1)]);
    }
    if opts.dangling_training {
        training.push(("show me the forbidden topic", 9));
    }
    let training = training
        .into_iter()
        .map(|(text, intent)| TrainingExample {
            text: text.to_string(),
            intent: IntentId(intent),
            source: ExampleSource::Generated,
        })
        .collect();

    let mut intents = vec![query_intent];
    if opts.entity_only_intent {
        intents.push(entity_only);
    }

    let mut entities = Vec::new();
    if opts.drug_providable {
        entities.push(EntityDef {
            concept: drug,
            name: "Drug".to_string(),
            kind: EntityKind::Concept,
            examples: vec!["aspirin".to_string(), "ibuprofen".to_string()],
            synonyms: vec![],
        });
    }
    entities.push(EntityDef {
        concept: precaution,
        name: "Precaution".to_string(),
        kind: EntityKind::Concept,
        examples: vec!["avoid alcohol".to_string()],
        synonyms: vec![],
    });

    let dependents = vec![DependentConcept {
        concept: precaution,
        of_key: drug,
        semantics: DependentSemantics::Plain,
    }];
    let completion = CompletionMetadata::build(&dependents);

    let params: Vec<ConceptId> =
        opts.template_params.iter().map(|n| onto.concept_id(n).expect("param concept")).collect();
    let templates = if opts.drop_template {
        vec![]
    } else {
        vec![IntentTemplates {
            intent: IntentId(0),
            templates: vec![LabeledTemplate {
                topic: opts.template_topic.to_string(),
                template: QueryTemplate::new(opts.template_sql.to_string(), params, onto),
            }],
        }]
    };

    ConversationSpace {
        ontology_name: "fixture".to_string(),
        key_concepts: if opts.key_concept { vec![drug] } else { vec![] },
        dependents,
        intents,
        training,
        entities,
        synonyms: SynonymDict::new(),
        templates,
        completion,
        skipped_templates: vec![],
    }
}

pub fn fixture_with(opts: Options) -> Fixture {
    let onto = build_onto();
    let kb = build_kb(&opts);
    let mapping = OntologyMapping::infer(&onto, &kb);
    let space = build_space(&onto, &opts);
    Fixture { onto, kb, mapping, space }
}

/// The clean baseline fixture.
pub fn fixture() -> Fixture {
    fixture_with(Options::default())
}

/// Variant without the `indication.drug_id` foreign key: the `treats`
/// relationship has no join realisation (OBCS043).
pub fn fixture_unjoined_relation() -> Fixture {
    fixture_with(Options { indication_fk: false, ..Options::default() })
}

/// Variant whose `precaution.drug_id` foreign key references a table that
/// does not exist (OBCS051).
pub fn fixture_broken_fk_decl() -> Fixture {
    let mut f = fixture_with(Options { fk_target: "droog".to_string(), ..Options::default() });
    // The mapping must still bind `precaution` for the query intent, so
    // infer against a well-formed twin of the KB.
    f.mapping = OntologyMapping::infer(&f.onto, &build_kb(&Options::default()));
    f
}

/// Variant with an orphaned `precaution.drug_id` value (OBCS052). Insert
/// enforces referential integrity, so the orphan is produced by editing
/// the serialized KB: the referenced drug id `7777` is renumbered while
/// the referencing row keeps it.
pub fn fixture_orphan_row() -> Fixture {
    let mut f = fixture();
    let json = f.kb.to_json();
    // Tables serialize sorted by name (drug < indication < precaution),
    // so the first `7777` is the drug row's own id.
    let doctored = json.replacen("7777", "1111", 1);
    assert_ne!(doctored, json, "fixture drug id not found in KB JSON");
    f.kb = KnowledgeBase::from_json(&doctored).expect("doctored KB parses");
    f.mapping = OntologyMapping::infer(&f.onto, &f.kb);
    f
}
