//! Property tests: *wherever* a targeted mutation lands in the artifact
//! chain, the matching lint code fires. The mutation site is
//! proptest-driven; the assertion is always about the specific code.

mod common;

use common::{build_kb, fixture, Fixture, Options};
use obcs_core::training::{ExampleSource, TrainingExample};
use obcs_core::IntentId;
use obcs_lint::{run_all, DiagnosticSet, LintConfig, LintContext};
use obcs_nlq::OntologyMapping;
use proptest::prelude::*;

fn lint(f: &Fixture) -> DiagnosticSet {
    let ctx = LintContext::new(&f.onto, &f.kb, &f.mapping, &f.space);
    run_all(&ctx, &LintConfig::default())
}

proptest! {
    /// Copying any training example onto the other intent always raises
    /// OBCS010, regardless of which example is duplicated.
    #[test]
    fn duplicating_any_example_across_intents_fires_obcs010(idx in 0usize..6) {
        let mut f = fixture();
        let source = f.space.training[idx].clone();
        let other = if source.intent == IntentId(0) { IntentId(1) } else { IntentId(0) };
        f.space.training.push(TrainingExample {
            text: source.text.clone(),
            intent: other,
            source: ExampleSource::SmeAugmented,
        });
        prop_assert!(lint(&f).has_code("OBCS010"));
    }

    /// Blanking the elicitation prompt of any logic-table slot always
    /// raises OBCS020.
    #[test]
    fn dropping_any_elicitation_fires_obcs020(row in 0usize..2) {
        let f = fixture();
        let mut ctx = LintContext::new(&f.onto, &f.kb, &f.mapping, &f.space);
        // Row 1 (the entity-only intent) has no required slots; target the
        // query row in that case.
        let row = if ctx.logic.rows[row].required.is_empty() { 0 } else { row };
        ctx.logic.rows[row].required[0].elicitation = String::new();
        let report = run_all(&ctx, &LintConfig::default());
        prop_assert!(report.has_code("OBCS020"), "{}", report.render_text());
    }

    /// Pointing the precaution foreign key at any nonexistent table name
    /// always raises OBCS051.
    #[test]
    fn breaking_the_fk_declaration_fires_obcs051(name in "[a-z]{4,10}") {
        prop_assume!(name != "drug" && name != "indication" && name != "precaution");
        let onto_fixture = fixture();
        let kb = build_kb(&Options { fk_target: name, ..Options::default() });
        let mapping = OntologyMapping::infer(&onto_fixture.onto, &build_kb(&Options::default()));
        let f = Fixture { onto: onto_fixture.onto, kb, mapping, space: onto_fixture.space };
        prop_assert!(lint(&f).has_code("OBCS051"));
    }

    /// Dropping all of an intent's training below the floor fires OBCS012
    /// (some examples left) or OBCS013 (none left), never neither.
    #[test]
    fn starving_an_intent_fires_floor_codes(keep in 0usize..3, intent in 0u32..2) {
        let mut f = fixture();
        let intent = IntentId(intent);
        let mut kept = 0usize;
        f.space.training.retain(|e| {
            if e.intent != intent {
                return true;
            }
            kept += 1;
            kept <= keep
        });
        let report = lint(&f);
        if keep == 0 {
            prop_assert!(report.has_code("OBCS013"), "{}", report.render_text());
        } else {
            prop_assert!(report.has_code("OBCS012"), "{}", report.render_text());
        }
    }
}
