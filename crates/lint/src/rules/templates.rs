//! Response- and query-template rules (`OBCS017`–`OBCS019`).

use crate::context::LintContext;
use crate::diag::{Diagnostic, Location, Severity};
use crate::lint::{Lint, LintConfig};
use crate::rules::bindcheck::template_location;

/// The slots the serving stack substitutes in response templates:
/// `{topic}`/`{entities}`/`{results}` in fulfilment responses (NLG) and
/// `{agent}` in management responses.
const KNOWN_SLOTS: [&str; 4] = ["topic", "entities", "results", "agent"];

/// Extracts `{slot}` names from a response template.
fn slots(template: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = template;
    while let Some(start) = rest.find('{') {
        let tail = &rest[start + 1..];
        match tail.find('}') {
            Some(end) => {
                out.push(&tail[..end]);
                rest = &tail[end + 1..];
            }
            None => break,
        }
    }
    out
}

/// OBCS017: a response template names a slot the dialogue layer never
/// substitutes, so the literal `{typo}` would be shown to users.
pub struct ResponsePlaceholders;

impl Lint for ResponsePlaceholders {
    fn name(&self) -> &'static str {
        "response-placeholders"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["OBCS017"]
    }

    fn description(&self) -> &'static str {
        "response templates naming slots the dialogue layer does not substitute"
    }

    fn run(&self, ctx: &LintContext<'_>, _cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        for intent in &ctx.space.intents {
            // Entity-only intents never render their template: the tree
            // builds the proposal text itself.
            if matches!(intent.goal, obcs_core::intents::IntentGoal::EntityOnly(_)) {
                continue;
            }
            for slot in slots(&intent.response_template) {
                if !KNOWN_SLOTS.contains(&slot) {
                    out.push(
                        Diagnostic::new(
                            "OBCS017",
                            Severity::Error,
                            Location::new("space", format!("intent `{}`", intent.name)),
                            format!(
                                "response template references unknown slot `{{{slot}}}`; \
                                 known slots are {{topic}}, {{entities}}, {{results}}, {{agent}}"
                            ),
                        )
                        .with_suggestion("fix the slot name or escape the braces"),
                    );
                }
            }
        }
    }
}

/// OBCS018: a query intent has no structured-query templates and no
/// recorded skip reason — fulfilment would silently return nothing.
pub struct MissingQueryTemplates;

impl Lint for MissingQueryTemplates {
    fn name(&self) -> &'static str {
        "query-templates-missing"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["OBCS018"]
    }

    fn description(&self) -> &'static str {
        "query intents without templates and without a recorded skip reason"
    }

    fn run(&self, ctx: &LintContext<'_>, _cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        for intent in &ctx.space.intents {
            if !intent.is_query() {
                continue;
            }
            if !ctx.space.templates_for(intent.id).is_empty() {
                continue;
            }
            let skipped = ctx.space.skipped_templates.iter().any(|(id, _, _)| *id == intent.id);
            if !skipped {
                out.push(
                    Diagnostic::new(
                        "OBCS018",
                        Severity::Error,
                        Location::new("space", format!("intent `{}`", intent.name)),
                        "query intent has no structured-query templates and no skip reason",
                    )
                    .with_suggestion(
                        "check the mapping covers the pattern's concepts, or record a skip reason",
                    ),
                );
            }
        }
    }
}

/// OBCS019: a query template requires a concept that is neither a required
/// nor an optional entity of its intent — slot filling can never supply
/// the value, so instantiation always fails.
pub struct TemplateParamScope;

impl Lint for TemplateParamScope {
    fn name(&self) -> &'static str {
        "template-param-scope"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["OBCS019"]
    }

    fn description(&self) -> &'static str {
        "query templates requiring concepts their intent never elicits"
    }

    fn run(&self, ctx: &LintContext<'_>, _cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        for group in &ctx.space.templates {
            let Some(intent) = ctx.space.intent(group.intent) else {
                out.push(
                    Diagnostic::new(
                        "OBCS019",
                        Severity::Error,
                        Location::new("space", format!("templates[#{}]", group.intent.0)),
                        format!(
                            "template group references intent #{} which the space does not define",
                            group.intent.0
                        ),
                    )
                    .with_suggestion("regenerate the templates from the current intent set"),
                );
                continue;
            };
            for labeled in &group.templates {
                for concept in labeled.template.required_concepts() {
                    let in_scope = intent.required_entities.contains(&concept)
                        || intent.optional_entities.contains(&concept);
                    if !in_scope {
                        out.push(
                            Diagnostic::new(
                                "OBCS019",
                                Severity::Error,
                                template_location(intent, labeled),
                                format!(
                                    "template requires `{}` which the intent never captures or elicits",
                                    ctx.concept_label(concept)
                                ),
                            )
                            .with_suggestion(
                                "add the concept to the intent's required entities",
                            ),
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::slots;

    #[test]
    fn extracts_slots() {
        assert_eq!(
            slots("Here are the {topic} for {entities}:\n{results}"),
            vec!["topic", "entities", "results"]
        );
        assert_eq!(slots("no slots"), Vec::<&str>::new());
        assert_eq!(slots("broken {unclosed"), Vec::<&str>::new());
    }
}
