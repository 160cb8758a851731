//! Static query bind-checking (`OBCS110`–`OBCS114`).
//!
//! Every structured query the space can ever issue is a template: a
//! committed SQL string with `'<@Concept>'` markers, which the engine
//! prepares once with each marker as a parameter and runs with entity
//! values at serving time. Because the KB's bind phase
//! ([`KnowledgeBase::prepare_with`]) resolves every table, column, join
//! and predicate against the schemas *without reading a row*, the whole
//! query surface can be proven well-typed offline:
//!
//! * **OBCS110** — every template, prepared with its markers as the
//!   engine prepares it, binds against the KB schema (tables exist,
//!   columns resolve, joins relate to earlier tables, every marker is a
//!   whole string literal).
//! * **OBCS111** — every template slot is fillable by some ontology term:
//!   an entity example or a KB instance value exists for its concept.
//! * **OBCS112** — the bound projection never emits two output columns
//!   with the same unqualified name (result sections would be
//!   indistinguishable downstream).
//! * **OBCS113** — every literal predicate type-checks: a quoted slot
//!   marker (whose parameter always takes a text value) must compare
//!   against a text column, and plain literals must be admissible in
//!   their column's type.
//! * **OBCS114** — bind coverage is complete: every query pattern of
//!   every intent either produced a template or carries a recorded skip
//!   reason, so nothing escapes the checks above.
//!
//! Soundness argument (DESIGN.md §13.2): the check prepares the very plan
//! the engine prepares, and a parameter's value never reaches the binder
//! (the access path costs a parameter exactly as a literal, from
//! distinct-key counts alone), so one successful bind per template proves
//! the query binds for every runtime value.

use std::collections::BTreeSet;

use obcs_core::intents::Intent;
use obcs_core::templates::LabeledTemplate;
use obcs_kb::schema::ColumnType;
use obcs_kb::sql::ast::{Predicate, Select};
use obcs_kb::sql::parser;
use obcs_kb::KnowledgeBase;
use obcs_lint::{Diagnostic, LintContext, Location, Severity};

use crate::check::{representative_value, Check, VerifyConfig, VerifyContext};

/// Iterates every `(intent, template)` pair of the space, skipping
/// template groups whose intent the space does not define (OBCS019's
/// territory).
fn each_template<'a>(
    lint: &'a LintContext<'_>,
) -> impl Iterator<Item = (&'a Intent, &'a LabeledTemplate)> {
    lint.space
        .templates
        .iter()
        .filter_map(move |group| lint.space.intent(group.intent).map(|i| (i, &group.templates)))
        .flat_map(|(intent, templates)| templates.iter().map(move |t| (intent, t)))
}

fn template_location(intent: &Intent, template: &LabeledTemplate) -> Location {
    Location::new("space", format!("intent `{}`, template \"{}\"", intent.name, template.topic))
}

/// OBCS110: a template that fails to prepare against the KB schema — at
/// serving time every turn that runs it would count a pipeline error.
pub struct TemplateBindCheck;

impl Check for TemplateBindCheck {
    fn name(&self) -> &'static str {
        "template-bind-check"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["OBCS110"]
    }

    fn description(&self) -> &'static str {
        "query templates that fail to bind against the KB schema"
    }

    fn run(&self, ctx: &VerifyContext<'_>, _cfg: &VerifyConfig, out: &mut Vec<Diagnostic>) {
        for (intent, template) in each_template(&ctx.lint) {
            // The plan the engine runs: every marker a parameter.
            if let Err(e) = template.template.prepare(ctx.lint.kb) {
                out.push(
                    Diagnostic::new(
                        "OBCS110",
                        Severity::Error,
                        template_location(intent, template),
                        format!("template does not bind against the KB schema: {e}"),
                    )
                    .with_suggestion(
                        "regenerate the templates, or restore the table/column the SQL names",
                    ),
                );
            }
        }
    }
}

/// OBCS111: a template slot no ontology term can fill — its concept has
/// neither entity examples nor KB instance values, so no recognised or
/// elicited entity could ever instantiate the template.
pub struct SlotFillability;

impl Check for SlotFillability {
    fn name(&self) -> &'static str {
        "slot-fillability"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["OBCS111"]
    }

    fn description(&self) -> &'static str {
        "template slots no entity example or KB instance can fill"
    }

    fn run(&self, ctx: &VerifyContext<'_>, _cfg: &VerifyConfig, out: &mut Vec<Diagnostic>) {
        for (intent, template) in each_template(&ctx.lint) {
            for concept in template.template.required_concepts() {
                if representative_value(&ctx.lint, concept).is_none() {
                    out.push(
                        Diagnostic::new(
                            "OBCS111",
                            Severity::Error,
                            template_location(intent, template),
                            format!(
                                "slot `<@{}>` is unfillable: the concept has no entity examples \
                                 and no KB instance values",
                                ctx.lint.concept_label(concept)
                            ),
                        )
                        .with_suggestion(
                            "add instance rows to the concept's table or examples to its entity",
                        ),
                    );
                }
            }
        }
    }
}

/// OBCS112: the bound projection of a template emits two output columns
/// with the same (unqualified) name — downstream consumers cannot tell
/// the result sections apart.
pub struct ProjectionCollisions;

impl Check for ProjectionCollisions {
    fn name(&self) -> &'static str {
        "projection-collisions"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["OBCS112"]
    }

    fn description(&self) -> &'static str {
        "bound projections emitting duplicate output column names"
    }

    fn run(&self, ctx: &VerifyContext<'_>, _cfg: &VerifyConfig, out: &mut Vec<Diagnostic>) {
        for (intent, template) in each_template(&ctx.lint) {
            let Ok(plan) = template.template.prepare(ctx.lint.kb) else {
                continue; // OBCS110 reports it.
            };
            let mut seen = BTreeSet::new();
            for col in plan.columns() {
                if !seen.insert(col.as_str()) {
                    out.push(
                        Diagnostic::new(
                            "OBCS112",
                            Severity::Error,
                            template_location(intent, template),
                            format!("projection emits output column `{col}` more than once"),
                        )
                        .with_suggestion("qualify or alias the colliding projections"),
                    );
                }
            }
        }
    }
}

/// Resolves the table a binding name (alias or table name) refers to in a
/// parsed SELECT.
pub(crate) fn binding_table<'a>(stmt: &'a Select, binding: &str) -> Option<&'a str> {
    if stmt.from.binding() == binding {
        return Some(&stmt.from.table);
    }
    stmt.joins.iter().find(|j| j.table.binding() == binding).map(|j| j.table.table.as_str())
}

/// The declared type of `qualifier.column` in the statement's scope, if
/// it resolves unambiguously (bind errors are OBCS110's territory).
fn column_type(
    kb: &KnowledgeBase,
    stmt: &Select,
    qualifier: Option<&str>,
    column: &str,
) -> Option<(String, ColumnType)> {
    let tables: Vec<&str> = match qualifier {
        Some(q) => vec![binding_table(stmt, q)?],
        None => std::iter::once(stmt.from.table.as_str())
            .chain(stmt.joins.iter().map(|j| j.table.table.as_str()))
            .collect(),
    };
    let mut found = None;
    for table in tables {
        let schema = &kb.table(table).ok()?.schema;
        if let Some(def) = schema.column_def(column) {
            if found.is_some() {
                return None; // ambiguous — the binder reports it
            }
            found = Some((format!("{table}.{column}"), def.ty));
        }
    }
    found
}

/// OBCS113: a literal predicate whose value can never match its column's
/// type — in particular a quoted `'<@Concept>'` slot (whose parameter
/// always takes a text value) compared against a non-text column.
pub struct PredicateTypes;

impl Check for PredicateTypes {
    fn name(&self) -> &'static str {
        "predicate-types"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["OBCS113"]
    }

    fn description(&self) -> &'static str {
        "template predicates comparing literals against incompatible column types"
    }

    fn run(&self, ctx: &VerifyContext<'_>, _cfg: &VerifyConfig, out: &mut Vec<Diagnostic>) {
        for (intent, template) in each_template(&ctx.lint) {
            // Parse the *template* SQL: markers sit inside quotes, so the
            // parser sees them as ordinary text literals and the marker
            // text survives for inspection.
            let Ok(stmt) = parser::parse(template.template.sql()) else {
                continue; // an unparsable template fails OBCS110.
            };
            for pred in &stmt.predicates {
                let Predicate::ColumnLiteral { column, literal, .. } = pred else {
                    continue;
                };
                let Some((qualified, ty)) =
                    column_type(ctx.lint.kb, &stmt, column.qualifier.as_deref(), &column.column)
                else {
                    continue; // unresolvable columns are OBCS110's territory.
                };
                let marker = literal.as_text().filter(|t| t.contains("<@"));
                if let Some(marker) = marker {
                    if ty != ColumnType::Text {
                        out.push(
                            Diagnostic::new(
                                "OBCS113",
                                Severity::Error,
                                template_location(intent, template),
                                format!(
                                    "slot `{marker}` takes a text value but is \
                                     compared against `{qualified}` of type {ty:?}"
                                ),
                            )
                            .with_suggestion("filter on the concept's text label column instead"),
                        );
                    }
                } else if !ty.admits(literal) {
                    out.push(
                        Diagnostic::new(
                            "OBCS113",
                            Severity::Error,
                            template_location(intent, template),
                            format!(
                                "literal `{literal}` can never match `{qualified}` of type {ty:?}"
                            ),
                        )
                        .with_suggestion("fix the literal or the column the predicate names"),
                    );
                }
            }
        }
    }
}

/// OBCS114: a query pattern that neither produced a template nor carries
/// a recorded skip reason — a hole in bind-check coverage: some
/// conversations would reach fulfilment with no query to run.
pub struct PatternCoverage;

impl Check for PatternCoverage {
    fn name(&self) -> &'static str {
        "pattern-coverage"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["OBCS114"]
    }

    fn description(&self) -> &'static str {
        "query patterns with neither a template nor a recorded skip reason"
    }

    fn run(&self, ctx: &VerifyContext<'_>, _cfg: &VerifyConfig, out: &mut Vec<Diagnostic>) {
        for intent in &ctx.lint.space.intents {
            let templates = ctx.lint.space.templates_for(intent.id);
            for pattern in intent.patterns() {
                let has_template = templates.iter().any(|t| t.topic == pattern.topic);
                let has_skip = ctx
                    .lint
                    .space
                    .skipped_templates
                    .iter()
                    .any(|(id, topic, _)| *id == intent.id && *topic == pattern.topic);
                if !has_template && !has_skip {
                    out.push(
                        Diagnostic::new(
                            "OBCS114",
                            Severity::Warning,
                            Location::new(
                                "space",
                                format!("intent `{}`, pattern \"{}\"", intent.name, pattern.topic),
                            ),
                            "pattern has neither a query template nor a recorded skip reason; \
                             bind-check coverage is incomplete",
                        )
                        .with_suggestion("regenerate the templates from the current space"),
                    );
                }
            }
        }
    }
}
