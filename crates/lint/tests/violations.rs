//! Golden tests, one or more per code: a targeted synthetic violation must
//! be caught under its stable `OBCS0xx` or `OBCS1xx` code, and the
//! untouched (or repaired) fixture must pass it.

mod common;

use common::{
    fixture, fixture_broken_fk_decl, fixture_orphan_row, fixture_unjoined_relation, fixture_with,
    Fixture, Options,
};
use obcs_core::concepts::CompletionMetadata;
use obcs_core::entities::{EntityDef, EntityKind, SynonymDict};
use obcs_core::intents::IntentId;
use obcs_core::training::{ExampleSource, TrainingExample};
use obcs_core::ConversationSpace;
use obcs_kb::schema::{ColumnType, TableSchema};
use obcs_kb::KnowledgeBase;
use obcs_lint::{run_all, DiagnosticSet, LintConfig, LintContext, Severity};
use obcs_nlq::mapping::{JoinEdge, JoinPath};
use obcs_nlq::{OntologyMapping, QueryTemplate};
use obcs_ontology::{ConceptId, Ontology, OntologyBuilder};

fn lint(f: &Fixture) -> DiagnosticSet {
    let ctx = LintContext::new(&f.onto, &f.kb, &f.mapping, &f.space);
    run_all(&ctx, &LintConfig::default())
}

fn empty_space(name: &str) -> ConversationSpace {
    ConversationSpace {
        ontology_name: name.to_string(),
        key_concepts: vec![],
        dependents: vec![],
        intents: vec![],
        training: vec![],
        entities: vec![],
        synonyms: SynonymDict::new(),
        templates: vec![],
        completion: CompletionMetadata::build(&[]),
        skipped_templates: vec![],
    }
}

/// Lints an ontology in isolation (empty KB/mapping/space).
fn lint_onto(onto: &Ontology) -> DiagnosticSet {
    let kb = KnowledgeBase::new();
    let mapping = OntologyMapping::default();
    let space = empty_space("t");
    let ctx = LintContext::new(onto, &kb, &mapping, &space);
    run_all(&ctx, &LintConfig::default())
}

#[test]
fn baseline_fixture_is_clean() {
    let report = lint(&fixture());
    assert!(report.is_empty(), "baseline fixture must lint clean:\n{}", report.render_text());
}

#[test]
fn bind_checking_is_index_invariant() {
    // The bind-checker drives the same bind phase the planner hangs
    // access-path selection off (DESIGN.md §14); secondary indexes are
    // an execution concern and must not change any binding verdict.
    let mut f = fixture();
    assert!(f.kb.auto_index() > 0, "fixture KB should accept some indexes");
    let report = lint(&f);
    assert!(report.is_empty(), "indexed fixture should lint clean:\n{}", report.render_text());
}

#[test]
fn obcs001_hierarchy_cycle() {
    let onto = OntologyBuilder::new("t").is_a("A", "B").is_a("B", "A").build_unchecked();
    assert!(lint_onto(&onto).has_code("OBCS001"));
}

#[test]
fn obcs002_isolated_concept() {
    let onto = OntologyBuilder::new("t").concept("Lonely").build_unchecked();
    assert!(lint_onto(&onto).has_code("OBCS002"));
}

#[test]
fn obcs003_degenerate_union() {
    let onto = OntologyBuilder::new("t").union("Parent", &["Only"]).build_unchecked();
    assert!(lint_onto(&onto).has_code("OBCS003"));
}

#[test]
fn obcs004_duplicate_union_member() {
    let onto = OntologyBuilder::new("t").union("Parent", &["C", "D", "C"]).build_unchecked();
    assert!(lint_onto(&onto).has_code("OBCS004"));
}

#[test]
fn obcs005_mixed_hierarchy() {
    let onto = OntologyBuilder::new("t")
        .union("Parent", &["C", "D"])
        .is_a("C", "Parent")
        .build_unchecked();
    assert!(lint_onto(&onto).has_code("OBCS005"));
}

#[test]
fn obcs006_unknown_concept_reference() {
    let mut f = fixture();
    f.space.key_concepts.push(ConceptId(99));
    assert!(lint(&f).has_code("OBCS006"));
}

#[test]
fn obcs010_duplicate_example_across_intents() {
    let mut f = fixture();
    f.space.training.push(TrainingExample {
        text: "Precautions of Aspirin".to_string(), // case-variant of an intent-0 example
        intent: IntentId(1),
        source: ExampleSource::SmeAugmented,
    });
    let report = lint(&f);
    assert!(report.has_code("OBCS010"), "{}", report.render_text());
}

#[test]
fn obcs011_reordered_example_across_intents() {
    let mut f = fixture();
    f.space.training.push(TrainingExample {
        text: "aspirin, of precautions".to_string(),
        intent: IntentId(1),
        source: ExampleSource::SmeAugmented,
    });
    let report = lint(&f);
    assert!(report.has_code("OBCS011"), "{}", report.render_text());
}

#[test]
fn obcs012_below_example_floor() {
    let mut f = fixture();
    // Leave exactly one example for intent 0 (floor is 3).
    let mut kept = false;
    f.space.training.retain(|e| {
        if e.intent != IntentId(0) {
            return true;
        }
        !std::mem::replace(&mut kept, true)
    });
    let report = lint(&f);
    assert!(report.has_code("OBCS012"), "{}", report.render_text());
    assert!(!report.has_code("OBCS013"));
}

#[test]
fn obcs013_zero_examples() {
    let mut f = fixture();
    f.space.training.retain(|e| e.intent != IntentId(0));
    let report = lint(&f);
    assert!(report.has_code("OBCS013"), "{}", report.render_text());
}

#[test]
fn obcs014_identical_pattern_renders() {
    let mut f = fixture();
    let mut clone = f.space.intents[0].clone();
    clone.id = IntentId(2);
    clone.name = "Precautions of Drug (again)".to_string();
    f.space.intents.push(clone);
    // Keep the clone detectable so OBCS013 stays out of the picture.
    for text in ["drug warnings", "any warnings", "warnings please"] {
        f.space.training.push(TrainingExample {
            text: text.to_string(),
            intent: IntentId(2),
            source: ExampleSource::SmeAugmented,
        });
    }
    let report = lint(&f);
    assert!(report.has_code("OBCS014"), "{}", report.render_text());
}

#[test]
fn obcs015_entity_value_collision() {
    let mut f = fixture();
    let indication = f.indication();
    // "aspirin" now also names an Indication instance, and Indication is
    // elicitable (an optional entity of the query intent) — a warning.
    f.space.entities.push(EntityDef {
        concept: indication,
        name: "Indication".to_string(),
        kind: EntityKind::Concept,
        examples: vec!["aspirin".to_string()],
        synonyms: vec![],
    });
    f.space.intents[0].optional_entities.push(indication);
    let report = lint(&f);
    let hits = report.with_code("OBCS015");
    assert!(!hits.is_empty(), "{}", report.render_text());
    assert!(hits.iter().any(|d| d.severity == Severity::Warning));
}

#[test]
fn obcs015_unelicitable_collision_is_info() {
    let mut f = fixture();
    // Same collision, but Indication is never captured by any intent: the
    // ambiguity cannot change slot filling, so it is advisory only.
    f.space.entities.push(EntityDef {
        concept: f.indication(),
        name: "Indication".to_string(),
        kind: EntityKind::Concept,
        examples: vec!["aspirin".to_string()],
        synonyms: vec![],
    });
    let report = lint(&f);
    let hits = report.with_code("OBCS015");
    assert!(!hits.is_empty(), "{}", report.render_text());
    assert!(hits.iter().all(|d| d.severity == Severity::Info));
}

#[test]
fn obcs016_key_entity_without_examples() {
    let mut f = fixture();
    f.space.entities[0].examples.clear();
    let report = lint(&f);
    assert!(report.has_code("OBCS016"), "{}", report.render_text());
}

#[test]
fn obcs017_unknown_response_slot() {
    let mut f = fixture();
    f.space.intents[0].response_template = "Here are the {resuts}".to_string();
    let report = lint(&f);
    assert!(report.has_code("OBCS017"), "{}", report.render_text());
}

#[test]
fn obcs018_query_intent_without_templates() {
    let mut f = fixture();
    f.space.templates.clear();
    let report = lint(&f);
    assert!(report.has_code("OBCS018"), "{}", report.render_text());
}

#[test]
fn obcs018_suppressed_by_skip_reason() {
    let mut f = fixture();
    f.space.templates.clear();
    f.space.skipped_templates.push((
        IntentId(0),
        "Precautions".to_string(),
        "no mapping for Precaution".to_string(),
    ));
    assert!(!lint(&f).has_code("OBCS018"));
}

#[test]
fn obcs019_template_param_outside_intent_scope() {
    let mut f = fixture();
    let indication = f.indication();
    let sql = "SELECT name FROM indication WHERE name = '<@Indication>'".to_string();
    f.space.templates[0].templates[0].template = QueryTemplate::new(sql, vec![indication], &f.onto);
    let report = lint(&f);
    assert!(report.has_code("OBCS019"), "{}", report.render_text());
}

#[test]
fn obcs020_empty_elicitation() {
    let f = fixture();
    let mut ctx = LintContext::new(&f.onto, &f.kb, &f.mapping, &f.space);
    ctx.logic.rows[0].required[0].elicitation = String::new();
    let report = run_all(&ctx, &LintConfig::default());
    let hits = report.with_code("OBCS020");
    assert!(!hits.is_empty(), "{}", report.render_text());
    // Drug instances exist in the KB, so the empty prompt is a warning.
    assert!(hits.iter().all(|d| d.severity == Severity::Warning));
}

#[test]
fn obcs020_unelicitable_and_valueless_is_error() {
    let mut f = fixture();
    // A concept with no KB table: no values to match answers against.
    let ghost = {
        let mut onto = f.onto.clone();
        let id = onto.add_concept("Ghost").expect("add concept");
        onto.add_data_property(id, "name").expect("add property");
        f.onto = onto;
        id
    };
    f.space.intents[0].required_entities.push(ghost);
    let mut ctx = LintContext::new(&f.onto, &f.kb, &f.mapping, &f.space);
    let ghost_slot = ctx.logic.rows[0]
        .required
        .iter_mut()
        .find(|r| r.concept == ghost)
        .expect("ghost is required");
    ghost_slot.elicitation = String::new();
    let report = run_all(&ctx, &LintConfig::default());
    assert!(
        report.with_code("OBCS020").iter().any(|d| d.severity == Severity::Error),
        "{}",
        report.render_text()
    );
}

#[test]
fn obcs021_row_without_example() {
    let mut f = fixture();
    f.space.training.retain(|e| e.intent != IntentId(1));
    let report = lint(&f);
    assert!(report.has_code("OBCS021"), "{}", report.render_text());
}

#[test]
fn obcs022_row_for_unknown_intent() {
    let f = fixture();
    let mut ctx = LintContext::new(&f.onto, &f.kb, &f.mapping, &f.space);
    ctx.logic.rows[0].intent = IntentId(77);
    let report = run_all(&ctx, &LintConfig::default());
    assert!(report.has_code("OBCS022"), "{}", report.render_text());
}

#[test]
fn obcs030_entity_only_dead_end() {
    let mut f = fixture();
    // No query intent requires exactly [Drug] any more, so the tree has
    // nothing to propose for entity-only drug mentions.
    let precaution = f.precaution();
    f.space.intents[0].required_entities.push(precaution);
    let report = lint(&f);
    assert!(report.has_code("OBCS030"), "{}", report.render_text());
}

#[test]
fn obcs031_proposal_for_unknown_intent() {
    let f = fixture();
    let mut ctx = LintContext::new(&f.onto, &f.kb, &f.mapping, &f.space);
    let drug = f.drug();
    ctx.tree.proposals.push((drug, vec![IntentId(55)]));
    let report = run_all(&ctx, &LintConfig::default());
    assert!(
        report.with_code("OBCS031").iter().any(|d| d.severity == Severity::Error),
        "{}",
        report.render_text()
    );
}

#[test]
fn obcs040_mapped_table_missing() {
    let mut f = fixture();
    f.mapping.set_table(f.drug(), "no_such_table");
    let report = lint(&f);
    assert!(report.has_code("OBCS040"), "{}", report.render_text());
}

#[test]
fn obcs041_label_column_missing() {
    let mut f = fixture();
    f.mapping.set_label_column(f.drug(), "no_such_column");
    let report = lint(&f);
    assert!(report.has_code("OBCS041"), "{}", report.render_text());
}

#[test]
fn obcs042_join_path_uses_missing_column() {
    let mut f = fixture();
    let prop = f
        .onto
        .object_properties()
        .iter()
        .find(|p| p.name == "hasPrecaution")
        .expect("fixture relation")
        .id;
    f.mapping.set_join(
        prop,
        JoinPath::direct(JoinEdge {
            left_table: "drug".to_string(),
            left_column: "bogus".to_string(),
            right_table: "precaution".to_string(),
            right_column: "drug_id".to_string(),
        }),
    );
    let report = lint(&f);
    assert!(report.has_code("OBCS042"), "{}", report.render_text());
}

#[test]
fn obcs043_relationship_without_join() {
    let report = lint(&fixture_unjoined_relation());
    assert!(report.has_code("OBCS043"), "{}", report.render_text());
}

#[test]
fn obcs050_empty_table() {
    let mut f = fixture();
    f.kb.create_table(TableSchema::new("audit_log").column("entry", ColumnType::Text))
        .expect("create table");
    let report = lint(&f);
    assert!(report.has_code("OBCS050"), "{}", report.render_text());
}

#[test]
fn obcs051_fk_references_missing_table() {
    let report = lint(&fixture_broken_fk_decl());
    assert!(report.has_code("OBCS051"), "{}", report.render_text());
}

#[test]
fn obcs052_orphaned_fk_rows() {
    let report = lint(&fixture_orphan_row());
    assert!(report.has_code("OBCS052"), "{}", report.render_text());
}

// ---- flow: OBCS100–OBCS105 ----

#[test]
fn obcs100_untrained_unproposed_intent_is_unreachable() {
    let f = fixture_with(Options {
        train_query_intent: false,
        key_concept: false, // no proposal path either
        ..Options::default()
    });
    let report = lint(&f);
    assert!(report.has_code("OBCS100"), "expected OBCS100:\n{}", report.render_text());
    assert!(!lint(&fixture()).has_code("OBCS100"));
}

#[test]
fn obcs100_intent_reachable_through_proposals_alone() {
    // Untrained but proposable: the entity-only path must count as
    // reachability, so the repaired space only needs the key concept.
    let f = fixture_with(Options { train_query_intent: false, ..Options::default() });
    let report = lint(&f);
    assert!(!report.has_code("OBCS100"), "proposal path fulfills:\n{}", report.render_text());
}

#[test]
fn obcs101_unprovidable_slot_livelocks_elicitation() {
    let f = fixture_with(Options {
        drug_providable: false,
        entity_only_intent: false,
        ..Options::default()
    });
    let report = lint(&f);
    assert!(report.has_code("OBCS101"), "expected OBCS101:\n{}", report.render_text());
    assert!(!lint(&fixture()).has_code("OBCS101"));
}

#[test]
fn obcs102_proposal_accept_falls_back_without_logic_row() {
    let f = fixture();
    let mut ctx = LintContext::new(&f.onto, &f.kb, &f.mapping, &f.space);
    // Drop the serving tree's logic row for the proposed intent: `yes`
    // now falls back instead of slot-filling.
    ctx.tree.logic.rows.retain(|r| r.intent != IntentId(0));
    let report = run_all(&ctx, &LintConfig::default());
    assert!(report.has_code("OBCS102"), "expected OBCS102:\n{}", report.render_text());
    assert!(!lint(&fixture()).has_code("OBCS102"));
}

#[test]
fn obcs103_dead_logic_row_for_untrained_intent() {
    let f = fixture_with(Options {
        train_query_intent: false,
        key_concept: false,
        ..Options::default()
    });
    let report = lint(&f);
    assert!(report.has_code("OBCS103"), "expected OBCS103:\n{}", report.render_text());
    assert!(!lint(&fixture()).has_code("OBCS103"));
}

#[test]
fn obcs104_proposal_branch_unreachable_without_instances() {
    // Proposals for Drug exist, but nothing can utter a drug (no examples,
    // no rows, no entity-only intent) so the branch never fires.
    let f = fixture_with(Options {
        drug_providable: false,
        entity_only_intent: false,
        ..Options::default()
    });
    let report = lint(&f);
    assert!(report.has_code("OBCS104"), "expected OBCS104:\n{}", report.render_text());
    assert!(!lint(&fixture()).has_code("OBCS104"));
}

#[test]
fn obcs105_truncated_exploration_is_reported() {
    let f = fixture();
    let ctx = LintContext::new(&f.onto, &f.kb, &f.mapping, &f.space);
    let report = run_all(&ctx, &LintConfig { max_states: 1, ..LintConfig::default() });
    assert!(report.has_code("OBCS105"), "expected OBCS105:\n{}", report.render_text());
    assert!(!lint(&fixture()).has_code("OBCS105"));
}

// ---- bindcheck: OBCS110–OBCS114 ----

#[test]
fn obcs110_template_naming_missing_column_fails_bind() {
    let f = fixture_with(Options {
        template_sql: "SELECT precaution.warnings FROM precaution \
                       JOIN drug ON precaution.drug_id = drug.id \
                       WHERE drug.name = '<@Drug>'",
        ..Options::default()
    });
    let report = lint(&f);
    assert!(report.has_code("OBCS110"), "expected OBCS110:\n{}", report.render_text());
    assert!(!lint(&fixture()).has_code("OBCS110"));
}

#[test]
fn obcs110_marker_inside_a_longer_literal_fails_prepare() {
    // Spliced into a longer literal, the marker would run as a constant
    // instead of taking the entity's value.
    let f = fixture_with(Options {
        template_sql: "SELECT precaution.text FROM precaution \
                       JOIN drug ON precaution.drug_id = drug.id \
                       WHERE drug.name = 'generic <@Drug>'",
        ..Options::default()
    });
    let report = lint(&f);
    assert!(report.has_code("OBCS110"), "expected OBCS110:\n{}", report.render_text());
}

#[test]
fn obcs111_unprovidable_template_slot() {
    let f = fixture_with(Options {
        drug_providable: false,
        entity_only_intent: false,
        ..Options::default()
    });
    let report = lint(&f);
    assert!(report.has_code("OBCS111"), "expected OBCS111:\n{}", report.render_text());
    assert!(!lint(&fixture()).has_code("OBCS111"));
}

#[test]
fn obcs112_duplicate_projection_names_collide() {
    let f = fixture_with(Options {
        template_sql: "SELECT text, text FROM precaution \
                       JOIN drug ON precaution.drug_id = drug.id \
                       WHERE drug.name = '<@Drug>'",
        ..Options::default()
    });
    let report = lint(&f);
    assert!(report.has_code("OBCS112"), "expected OBCS112:\n{}", report.render_text());
    assert!(!lint(&fixture()).has_code("OBCS112"));
}

#[test]
fn obcs113_slot_compared_against_int_column() {
    // The "retyped slot": the filter moved from the text label to the
    // integer key, so no instantiation can ever match.
    let f = fixture_with(Options {
        template_sql: "SELECT precaution.text FROM precaution \
                       JOIN drug ON precaution.drug_id = drug.id \
                       WHERE drug.id = '<@Drug>'",
        ..Options::default()
    });
    let report = lint(&f);
    assert!(report.has_code("OBCS113"), "expected OBCS113:\n{}", report.render_text());
    assert!(!lint(&fixture()).has_code("OBCS113"));
}

#[test]
fn obcs114_pattern_without_template_or_skip() {
    let f = fixture_with(Options { drop_template: true, ..Options::default() });
    let report = lint(&f);
    assert!(report.has_code("OBCS114"), "expected OBCS114:\n{}", report.render_text());

    // Repaired: the same hole with a recorded skip reason passes.
    let mut f = fixture_with(Options { drop_template: true, ..Options::default() });
    f.space.skipped_templates.push((
        IntentId(0),
        "Precautions".to_string(),
        "no mappable projection".to_string(),
    ));
    let report = lint(&f);
    assert!(!report.has_code("OBCS114"), "skip entry should repair:\n{}", report.render_text());
}

// ---- consistency: OBCS120–OBCS122 ----

#[test]
fn obcs120_training_example_for_unknown_intent() {
    let f = fixture_with(Options { dangling_training: true, ..Options::default() });
    let report = lint(&f);
    assert!(report.has_code("OBCS120"), "expected OBCS120:\n{}", report.render_text());
    assert!(!lint(&fixture()).has_code("OBCS120"));
}

#[test]
fn obcs120_training_intent_without_logic_row() {
    let f = fixture();
    let mut ctx = LintContext::new(&f.onto, &f.kb, &f.mapping, &f.space);
    ctx.logic.rows.retain(|r| r.intent != IntentId(0));
    let report = run_all(&ctx, &LintConfig::default());
    assert!(report.has_code("OBCS120"), "expected OBCS120:\n{}", report.render_text());
}

#[test]
fn obcs121_template_topic_matches_no_pattern() {
    let f = fixture_with(Options { template_topic: "Warnings", ..Options::default() });
    let report = lint(&f);
    assert!(report.has_code("OBCS121"), "expected OBCS121:\n{}", report.render_text());
    assert!(!lint(&fixture()).has_code("OBCS121"));
}

#[test]
fn obcs121_template_slot_not_produced_by_patterns() {
    // The slot concept swapped to Indication, which no pattern of the
    // intent requires — the dialogue would never elicit it.
    let f = fixture_with(Options {
        template_sql: "SELECT precaution.text FROM precaution \
                       JOIN drug ON precaution.drug_id = drug.id \
                       WHERE drug.name = '<@Indication>'",
        template_params: &["Indication"],
        ..Options::default()
    });
    let report = lint(&f);
    assert!(report.has_code("OBCS121"), "expected OBCS121:\n{}", report.render_text());
}

#[test]
fn obcs122_join_not_backed_by_declared_fk() {
    let f = fixture_with(Options { fk_target: "droog".to_string(), ..Options::default() });
    let report = lint(&f);
    assert!(report.has_code("OBCS122"), "expected OBCS122:\n{}", report.render_text());
    assert!(!lint(&fixture()).has_code("OBCS122"));
}
