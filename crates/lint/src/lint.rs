//! The `Lint` trait, the rule registry and the driver.

use crate::context::LintContext;
use crate::diag::{Diagnostic, DiagnosticSet};
use crate::rules;

/// Tunable thresholds of the lint pass.
#[derive(Debug, Clone, Copy)]
pub struct LintConfig {
    /// Minimum training examples per intent before `OBCS012` fires.
    pub example_floor: usize,
    /// Rows scanned per table for the orphan-foreign-key check
    /// (`OBCS052`); caps lint cost on large KBs.
    pub fk_scan_cap: usize,
    /// Abstract-state cap for the dialogue-flow exploration. When the
    /// reachable state space exceeds this, exploration stops and
    /// `OBCS105` reports the proof as incomplete.
    pub max_states: usize,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig { example_floor: 3, fk_scan_cap: 2000, max_states: 50_000 }
    }
}

/// One static-analysis rule over the artifact chain.
///
/// A rule owns one or more stable codes (`OBCS0xx` for one artifact,
/// `OBCS1xx` for the space as a whole); `codes` documents them and `run`
/// appends any findings to `out`.
pub trait Lint {
    /// Short kebab-case rule name, e.g. `training-duplicates`.
    fn name(&self) -> &'static str;
    /// The stable codes this rule can emit.
    fn codes(&self) -> &'static [&'static str];
    /// One-line description for `spacelint --rules`.
    fn description(&self) -> &'static str;
    fn run(&self, ctx: &LintContext<'_>, cfg: &LintConfig, out: &mut Vec<Diagnostic>);
}

/// The full registry, in code order.
pub fn all_lints() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(rules::ontology::OntologyValidity),
        Box::new(rules::ontology::SpaceConceptRefs),
        Box::new(rules::training::DuplicateTraining),
        Box::new(rules::training::NearDuplicateTraining),
        Box::new(rules::training::ExampleFloor),
        Box::new(rules::patterns::DuplicatePatternRender),
        Box::new(rules::entities::EntityCollisions),
        Box::new(rules::entities::EmptyEntities),
        Box::new(rules::templates::ResponsePlaceholders),
        Box::new(rules::templates::MissingQueryTemplates),
        Box::new(rules::templates::TemplateParamScope),
        Box::new(rules::dialogue::LogicTableCompleteness),
        Box::new(rules::tree::TreeReachability),
        Box::new(rules::mapping::MappingIntegrity),
        Box::new(rules::kbcheck::KbIntegrity),
        Box::new(rules::flow::IntentReachability),
        Box::new(rules::flow::ElicitationLiveness),
        Box::new(rules::flow::ProposalEdges),
        Box::new(rules::flow::DeadLogicRows),
        Box::new(rules::flow::TreeNodeReachability),
        Box::new(rules::flow::ExplorationBound),
        Box::new(rules::bindcheck::TemplateBindCheck),
        Box::new(rules::bindcheck::SlotFillability),
        Box::new(rules::bindcheck::ProjectionCollisions),
        Box::new(rules::bindcheck::PredicateTypes),
        Box::new(rules::bindcheck::PatternCoverage),
        Box::new(rules::consistency::TrainingLogicConsistency),
        Box::new(rules::consistency::PatternTemplateConsistency),
        Box::new(rules::consistency::JoinFkConsistency),
    ]
}

/// Runs every registered lint and returns the sorted diagnostic set.
pub fn run_all(ctx: &LintContext<'_>, cfg: &LintConfig) -> DiagnosticSet {
    let mut out = Vec::new();
    for lint in all_lints() {
        lint.run(ctx, cfg, &mut out);
    }
    let mut set = DiagnosticSet { diagnostics: out };
    set.sort();
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn registry_codes_are_unique_well_formed_and_in_code_order() {
        let lints = all_lints();
        assert_eq!(lints.len(), 29);
        let mut names = HashSet::new();
        let mut last = "";
        for lint in lints {
            assert!(names.insert(lint.name()), "rule {} registered twice", lint.name());
            assert!(!lint.codes().is_empty(), "{} declares no codes", lint.name());
            for code in lint.codes() {
                assert!(
                    (code.starts_with("OBCS0") || code.starts_with("OBCS1")) && code.len() == 7,
                    "malformed code {code}"
                );
                assert!(*code > last, "code {code} registered twice or out of order");
                last = code;
            }
        }
    }
}
