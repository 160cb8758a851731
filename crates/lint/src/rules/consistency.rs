//! Cross-artifact consistency (`OBCS120`–`OBCS122`).
//!
//! The bootstrapped space is a bundle of artifacts — training examples,
//! intents, the dialogue logic table, query patterns, templates — that
//! are only meaningful *together*. Each pass here pins one referential
//! invariant between two artifact layers:
//!
//! * **OBCS120** — every training example's intent exists in the space
//!   and has a dialogue-logic row (otherwise the NLU can classify into a
//!   dead intent the dialogue layer cannot serve).
//! * **OBCS121** — every template slot is produced by the owning
//!   intent's query patterns, and every template topic names one of those
//!   patterns (otherwise the dialogue elicits the wrong slots for the
//!   query it will eventually run).
//! * **OBCS122** — every join equality a template's SQL performs is
//!   backed by a foreign key declared in the KB schema, in either
//!   direction (joins are only meaningful along declared relationships;
//!   an unbacked join silently cross-products unrelated rows).

use std::collections::BTreeSet;

use obcs_kb::sql::parser;

use crate::context::LintContext;
use crate::diag::{Diagnostic, Location, Severity};
use crate::lint::{Lint, LintConfig};
use crate::rules::bindcheck::{binding_table, each_template, template_location};

/// OBCS120: a training example whose intent is missing from the space's
/// intent list or from the dialogue logic table.
pub struct TrainingLogicConsistency;

impl Lint for TrainingLogicConsistency {
    fn name(&self) -> &'static str {
        "training-logic-consistency"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["OBCS120"]
    }

    fn description(&self) -> &'static str {
        "training examples referencing intents absent from the space or logic table"
    }

    fn run(&self, ctx: &LintContext<'_>, _cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        let mut reported = BTreeSet::new();
        for example in &ctx.space.training {
            if !reported.insert(example.intent) {
                continue; // one diagnostic per dangling intent
            }
            if ctx.space.intent(example.intent).is_none() {
                out.push(
                    Diagnostic::new(
                        "OBCS120",
                        Severity::Error,
                        Location::new("space", format!("training example \"{}\"", example.text)),
                        format!(
                            "training intent {:?} does not exist in the space; the NLU can \
                             classify into an intent the system cannot serve",
                            example.intent
                        ),
                    )
                    .with_suggestion("regenerate the training set from the current intents"),
                );
            } else if !ctx.logic.rows.iter().any(|row| row.intent == example.intent) {
                out.push(
                    Diagnostic::new(
                        "OBCS120",
                        Severity::Error,
                        Location::new("space", format!("training example \"{}\"", example.text)),
                        format!(
                            "training intent {:?} has no dialogue-logic row; classified turns \
                             would reach an intent the dialogue layer cannot drive",
                            example.intent
                        ),
                    )
                    .with_suggestion("rebuild the logic table from the current intents"),
                );
            }
        }
    }
}

/// OBCS121: a template whose slots are not produced by the owning
/// intent's query patterns, or whose topic names no pattern of that
/// intent.
pub struct PatternTemplateConsistency;

impl Lint for PatternTemplateConsistency {
    fn name(&self) -> &'static str {
        "pattern-template-consistency"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["OBCS121"]
    }

    fn description(&self) -> &'static str {
        "template slots or topics not produced by the owning intent's patterns"
    }

    fn run(&self, ctx: &LintContext<'_>, _cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        for group in &ctx.space.templates {
            let Some(intent) = ctx.space.intent(group.intent) else {
                continue; // dangling template groups are lint OBCS019's territory
            };
            let patterns = intent.patterns();
            let producible: BTreeSet<_> =
                patterns.iter().flat_map(|p| p.required.iter().copied()).collect();
            for template in &group.templates {
                let location = template_location(intent, template);
                if !patterns.iter().any(|p| p.topic == template.topic) {
                    out.push(
                        Diagnostic::new(
                            "OBCS121",
                            Severity::Error,
                            location.clone(),
                            format!(
                                "template topic \"{}\" matches no query pattern of intent `{}`",
                                template.topic, intent.name
                            ),
                        )
                        .with_suggestion("regenerate the templates from the current patterns"),
                    );
                }
                for concept in template.template.required_concepts() {
                    if !producible.contains(&concept) {
                        out.push(
                            Diagnostic::new(
                                "OBCS121",
                                Severity::Error,
                                location.clone(),
                                format!(
                                    "slot `<@{}>` is not a required concept of any pattern of \
                                     intent `{}`; the dialogue would never elicit it",
                                    ctx.concept_label(concept),
                                    intent.name
                                ),
                            )
                            .with_suggestion(
                                "regenerate the templates, or add the concept to the intent's \
                                 required entities",
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// OBCS122: a template SQL join not backed by a foreign key declared in
/// the KB schema (in either direction).
pub struct JoinFkConsistency;

impl JoinFkConsistency {
    /// Whether `left_table.left_col = right_table.right_col` is a declared
    /// FK edge in either direction.
    fn fk_backed(
        ctx: &LintContext<'_>,
        left_table: &str,
        left_col: &str,
        right_table: &str,
        right_col: &str,
    ) -> bool {
        let declared = |from: &str, from_col: &str, to: &str, to_col: &str| {
            ctx.kb.table(from).is_ok_and(|t| {
                t.schema.foreign_keys.iter().any(|fk| {
                    fk.column == from_col
                        && fk.references_table == to
                        && fk.references_column == to_col
                })
            })
        };
        declared(left_table, left_col, right_table, right_col)
            || declared(right_table, right_col, left_table, left_col)
    }
}

impl Lint for JoinFkConsistency {
    fn name(&self) -> &'static str {
        "join-fk-consistency"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["OBCS122"]
    }

    fn description(&self) -> &'static str {
        "template SQL joins not backed by a declared foreign key"
    }

    fn run(&self, ctx: &LintContext<'_>, _cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        for (intent, template) in each_template(ctx) {
            let Ok(stmt) = parser::parse(template.template.sql()) else {
                continue; // an unparsable template fails OBCS110
            };
            for join in &stmt.joins {
                let left = &join.left;
                let right = &join.right;
                let resolve = |qualifier: Option<&str>, default: &str| {
                    qualifier.and_then(|q| binding_table(&stmt, q)).unwrap_or(default).to_string()
                };
                // An unqualified join column defaults to the joined
                // table itself; the other side defaults to FROM.
                let left_table = resolve(left.qualifier.as_deref(), &join.table.table);
                let right_table = resolve(right.qualifier.as_deref(), &stmt.from.table);
                if !Self::fk_backed(ctx, &left_table, &left.column, &right_table, &right.column) {
                    out.push(
                        Diagnostic::new(
                            "OBCS122",
                            Severity::Error,
                            template_location(intent, template),
                            format!(
                                "join `{left_table}.{} = {right_table}.{}` is not backed by \
                                 a foreign key declared in the KB schema",
                                left.column, right.column
                            ),
                        )
                        .with_suggestion(
                            "declare the foreign key in the schema, or regenerate the \
                             templates",
                        ),
                    );
                }
            }
        }
    }
}
