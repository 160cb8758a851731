//! Coverage tests for the conversation-management catalog: every pattern
//! must be reachable by at least one trigger, triggers must be
//! conflict-free, and the §6.3 management phrasings must resolve.

use obcs_dialogue::management::{normalize, ManagementAction, ManagementCatalog};
use obcs_dialogue::{ManagementPattern, PatternLevel};

#[test]
fn every_pattern_is_reachable_by_its_own_triggers() {
    let c = ManagementCatalog::standard();
    for p in c.patterns() {
        for t in &p.triggers {
            // Wildcards stand in for some concrete term.
            let probe = t.replace('*', "something");
            let hit = c
                .detect(&probe)
                .unwrap_or_else(|| panic!("trigger `{t}` of `{}` matched nothing", p.id));
            // The *first* matching pattern wins; it must at least be a
            // pattern with the same action, or the pattern itself.
            assert!(
                hit.id == p.id || hit.action == p.action || t.contains('*'),
                "trigger `{t}` of `{}` was captured by `{}`",
                p.id,
                hit.id
            );
        }
    }
}

#[test]
fn trigger_phrases_are_normalised_and_unique_per_action() {
    let c = ManagementCatalog::standard();
    for p in c.patterns() {
        for t in &p.triggers {
            // Each non-wildcard fragment must already be normalised (so
            // matching against normalised utterances can succeed).
            for fragment in t.split('*') {
                let f = fragment.trim();
                assert_eq!(f, normalize(f), "trigger `{t}` of `{}` is not normalised", p.id);
            }
        }
    }
    // No exact trigger appears under two different actions.
    let mut seen: Vec<(&str, ManagementAction)> = Vec::new();
    for p in c.patterns() {
        for t in &p.triggers {
            if let Some((prev, action)) = seen.iter().find(|(s, _)| s == t) {
                assert_eq!(*action, p.action, "trigger `{prev}` is claimed by two actions");
            }
            seen.push((t, p.action));
        }
    }
}

#[test]
fn paper_transcript_phrasings_resolve() {
    let c = ManagementCatalog::standard();
    let cases = [
        ("okay", ManagementAction::Acknowledgement),
        ("thanks", ManagementAction::Appreciation),
        ("never mind", ManagementAction::Abort),
        ("What did you say?", ManagementAction::RepeatRequest),
        ("what do you mean by effective?", ManagementAction::DefinitionRequest),
        ("no", ManagementAction::Deny),
        ("yes", ManagementAction::Affirm),
        ("goodbye", ManagementAction::Closing),
        ("hello", ManagementAction::Greeting),
        ("help", ManagementAction::HelpRequest),
    ];
    for (utterance, action) in cases {
        let p = c.detect(utterance).unwrap_or_else(|| panic!("`{utterance}` unmatched"));
        assert_eq!(p.action, action, "`{utterance}`");
    }
}

#[test]
fn levels_partition_a_and_b_pattern_ids() {
    let c = ManagementCatalog::standard();
    for p in c.patterns() {
        match p.level {
            PatternLevel::Conversation => assert!(p.id.starts_with('A'), "{}", p.id),
            PatternLevel::Sequence => assert!(p.id.starts_with('B'), "{}", p.id),
        }
    }
}

#[test]
fn catalog_is_extensible_without_breaking_detection() {
    let mut c = ManagementCatalog::standard();
    let before = c.patterns().len();
    c.add(ManagementPattern {
        id: "B9.0".into(),
        level: PatternLevel::Sequence,
        name: "Custom".into(),
        action: ManagementAction::Chitchat,
        triggers: vec!["tell me a story".into()],
        response: "No stories, only drug facts.".into(),
    });
    assert_eq!(c.patterns().len(), before + 1);
    assert_eq!(c.detect("tell me a story").unwrap().id, "B9.0");
    // Existing detection unchanged.
    assert_eq!(c.detect("thanks").unwrap().action, ManagementAction::Appreciation);
}

#[test]
fn long_domain_utterances_never_match_management() {
    let c = ManagementCatalog::standard();
    for u in [
        "show me drugs that treat psoriasis in children",
        "what is the dosage for tazarotene in plaque psoriasis",
        "is heparin compatible with normal saline in a y-site",
        "thanks to this drug my fever is gone, what was its dose again",
    ] {
        assert!(c.detect(u).is_none(), "`{u}` must reach the domain pipeline");
    }
}
