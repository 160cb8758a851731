//! Golden tests: for every `OBCS1xx` rule, a minimal space that trips it
//! and the repaired space that passes it.

mod common;

use common::{fixture, fixture_with, Options};
use obcs_core::IntentId;
use obcs_lint::DiagnosticSet;
use obcs_verify::{run_all, VerifyConfig, VerifyContext};

fn verify(f: &common::Fixture) -> DiagnosticSet {
    let ctx = VerifyContext::new(&f.onto, &f.kb, &f.mapping, &f.space);
    run_all(&ctx, &VerifyConfig::default())
}

#[test]
fn baseline_fixture_verifies_clean() {
    let f = fixture();
    let report = verify(&f);
    assert!(report.is_empty(), "clean fixture should verify clean:\n{}", report.render_text());
}

#[test]
fn bind_checking_is_index_invariant() {
    // The bind-checker drives the same bind phase the planner hangs
    // access-path selection off (DESIGN.md §14); secondary indexes are
    // an execution concern and must not change any binding verdict.
    let mut f = fixture();
    assert!(f.kb.auto_index() > 0, "fixture KB should accept some indexes");
    let report = verify(&f);
    assert!(report.is_empty(), "indexed fixture should verify clean:\n{}", report.render_text());
}

// ---- flow: OBCS100–OBCS105 ----

#[test]
fn obcs100_untrained_unproposed_intent_is_unreachable() {
    let f = fixture_with(Options {
        train_query_intent: false,
        key_concept: false, // no proposal path either
        ..Options::default()
    });
    let report = verify(&f);
    assert!(report.has_code("OBCS100"), "expected OBCS100:\n{}", report.render_text());
    assert!(!verify(&fixture()).has_code("OBCS100"));
}

#[test]
fn obcs100_intent_reachable_through_proposals_alone() {
    // Untrained but proposable: the entity-only path must count as
    // reachability, so the repaired space only needs the key concept.
    let f = fixture_with(Options { train_query_intent: false, ..Options::default() });
    let report = verify(&f);
    assert!(!report.has_code("OBCS100"), "proposal path fulfills:\n{}", report.render_text());
}

#[test]
fn obcs101_unprovidable_slot_livelocks_elicitation() {
    let f = fixture_with(Options {
        drug_providable: false,
        entity_only_intent: false,
        ..Options::default()
    });
    let report = verify(&f);
    assert!(report.has_code("OBCS101"), "expected OBCS101:\n{}", report.render_text());
    assert!(!verify(&fixture()).has_code("OBCS101"));
}

#[test]
fn obcs102_proposal_accept_falls_back_without_logic_row() {
    let f = fixture();
    let ctx = VerifyContext::new(&f.onto, &f.kb, &f.mapping, &f.space);
    // Drop the serving tree's logic row for the proposed intent: `yes`
    // now falls back instead of slot-filling.
    let mut ctx = ctx;
    ctx.lint.tree.logic.rows.retain(|r| r.intent != IntentId(0));
    let report = run_all(&ctx, &VerifyConfig::default());
    assert!(report.has_code("OBCS102"), "expected OBCS102:\n{}", report.render_text());
    assert!(!verify(&fixture()).has_code("OBCS102"));
}

#[test]
fn obcs103_dead_logic_row_for_untrained_intent() {
    let f = fixture_with(Options {
        train_query_intent: false,
        key_concept: false,
        ..Options::default()
    });
    let report = verify(&f);
    assert!(report.has_code("OBCS103"), "expected OBCS103:\n{}", report.render_text());
    assert!(!verify(&fixture()).has_code("OBCS103"));
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
    let report = verify(&f);
    assert!(report.has_code("OBCS104"), "expected OBCS104:\n{}", report.render_text());
    assert!(!verify(&fixture()).has_code("OBCS104"));
}

#[test]
fn obcs105_truncated_exploration_is_reported() {
    let f = fixture();
    let ctx = VerifyContext::new(&f.onto, &f.kb, &f.mapping, &f.space);
    let report = run_all(&ctx, &VerifyConfig { max_states: 1 });
    assert!(report.has_code("OBCS105"), "expected OBCS105:\n{}", report.render_text());
    assert!(!verify(&fixture()).has_code("OBCS105"));
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
    let report = verify(&f);
    assert!(report.has_code("OBCS110"), "expected OBCS110:\n{}", report.render_text());
    assert!(!verify(&fixture()).has_code("OBCS110"));
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
    let report = verify(&f);
    assert!(report.has_code("OBCS110"), "expected OBCS110:\n{}", report.render_text());
}

#[test]
fn obcs111_unprovidable_template_slot() {
    let f = fixture_with(Options {
        drug_providable: false,
        entity_only_intent: false,
        ..Options::default()
    });
    let report = verify(&f);
    assert!(report.has_code("OBCS111"), "expected OBCS111:\n{}", report.render_text());
    assert!(!verify(&fixture()).has_code("OBCS111"));
}

#[test]
fn obcs112_duplicate_projection_names_collide() {
    let f = fixture_with(Options {
        template_sql: "SELECT text, text FROM precaution \
                       JOIN drug ON precaution.drug_id = drug.id \
                       WHERE drug.name = '<@Drug>'",
        ..Options::default()
    });
    let report = verify(&f);
    assert!(report.has_code("OBCS112"), "expected OBCS112:\n{}", report.render_text());
    assert!(!verify(&fixture()).has_code("OBCS112"));
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
    let report = verify(&f);
    assert!(report.has_code("OBCS113"), "expected OBCS113:\n{}", report.render_text());
    assert!(!verify(&fixture()).has_code("OBCS113"));
}

#[test]
fn obcs114_pattern_without_template_or_skip() {
    let f = fixture_with(Options { drop_template: true, ..Options::default() });
    let report = verify(&f);
    assert!(report.has_code("OBCS114"), "expected OBCS114:\n{}", report.render_text());

    // Repaired: the same hole with a recorded skip reason passes.
    let mut f = fixture_with(Options { drop_template: true, ..Options::default() });
    f.space.skipped_templates.push((
        IntentId(0),
        "Precautions".to_string(),
        "no mappable projection".to_string(),
    ));
    let report = verify(&f);
    assert!(!report.has_code("OBCS114"), "skip entry should repair:\n{}", report.render_text());
}

// ---- consistency: OBCS120–OBCS122 ----

#[test]
fn obcs120_training_example_for_unknown_intent() {
    let f = fixture_with(Options { dangling_training: true, ..Options::default() });
    let report = verify(&f);
    assert!(report.has_code("OBCS120"), "expected OBCS120:\n{}", report.render_text());
    assert!(!verify(&fixture()).has_code("OBCS120"));
}

#[test]
fn obcs120_training_intent_without_logic_row() {
    let f = fixture();
    let mut ctx = VerifyContext::new(&f.onto, &f.kb, &f.mapping, &f.space);
    ctx.lint.logic.rows.retain(|r| r.intent != IntentId(0));
    let report = run_all(&ctx, &VerifyConfig::default());
    assert!(report.has_code("OBCS120"), "expected OBCS120:\n{}", report.render_text());
}

#[test]
fn obcs121_template_topic_matches_no_pattern() {
    let f = fixture_with(Options { template_topic: "Warnings", ..Options::default() });
    let report = verify(&f);
    assert!(report.has_code("OBCS121"), "expected OBCS121:\n{}", report.render_text());
    assert!(!verify(&fixture()).has_code("OBCS121"));
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
    let report = verify(&f);
    assert!(report.has_code("OBCS121"), "expected OBCS121:\n{}", report.render_text());
}

#[test]
fn obcs122_join_not_backed_by_declared_fk() {
    let f = fixture_with(Options { fk_target: "droog", ..Options::default() });
    let report = verify(&f);
    assert!(report.has_code("OBCS122"), "expected OBCS122:\n{}", report.render_text());
    assert!(!verify(&fixture()).has_code("OBCS122"));
}
