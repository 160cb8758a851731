//! Training-example rules (`OBCS010`–`OBCS013`).
//!
//! The classifier is only as good as its training set; these rules catch
//! the degradations the paper's SME-feedback loop exists to fix —
//! cross-intent label noise and starved intents.

use std::collections::HashMap;

use obcs_core::IntentId;

use crate::context::LintContext;
use crate::diag::{Diagnostic, Location, Severity};
use crate::lint::{Lint, LintConfig};

fn normalize(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ").to_lowercase()
}

/// Sorted, deduplicated token set — the order-insensitive signature used
/// for the near-duplicate check.
fn token_signature(text: &str) -> String {
    let mut tokens: Vec<String> = text
        .split_whitespace()
        .map(|t| t.trim_matches(|c: char| !c.is_alphanumeric()).to_lowercase())
        .filter(|t| !t.is_empty())
        .collect();
    tokens.sort();
    tokens.dedup();
    tokens.join(" ")
}

/// OBCS010: the same training text (modulo case/whitespace) is labelled
/// with two different intents — direct label noise for the classifier.
pub struct DuplicateTraining;

impl Lint for DuplicateTraining {
    fn name(&self) -> &'static str {
        "training-duplicates"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["OBCS010"]
    }

    fn description(&self) -> &'static str {
        "identical training examples labelled with different intents"
    }

    fn run(&self, ctx: &LintContext<'_>, _cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        // normalized text → (first index, intents seen, already reported)
        let mut seen: HashMap<String, (usize, Vec<IntentId>, bool)> = HashMap::new();
        for (i, ex) in ctx.space.training.iter().enumerate() {
            let key = normalize(&ex.text);
            let entry = seen.entry(key).or_insert_with(|| (i, Vec::new(), false));
            if !entry.1.contains(&ex.intent) {
                entry.1.push(ex.intent);
            }
            if entry.1.len() > 1 && !entry.2 {
                entry.2 = true;
                let intents: Vec<String> = entry.1.iter().map(|&id| ctx.intent_label(id)).collect();
                out.push(
                    Diagnostic::new(
                        "OBCS010",
                        Severity::Error,
                        Location::new("space", format!("training[{i}]")),
                        format!(
                            "example \"{}\" is labelled with {} different intents: {}",
                            ex.text,
                            entry.1.len(),
                            intents.join(", ")
                        ),
                    )
                    .with_suggestion(
                        "keep the example under one intent; ambiguous phrasings confuse the classifier",
                    ),
                );
            }
        }
    }
}

/// OBCS011: two examples of different intents are token-identical (same
/// word set, different surface order) — near-duplicates the exact check
/// misses.
pub struct NearDuplicateTraining;

impl Lint for NearDuplicateTraining {
    fn name(&self) -> &'static str {
        "training-near-duplicates"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["OBCS011"]
    }

    fn description(&self) -> &'static str {
        "token-identical training examples (reordered words) across intents"
    }

    fn run(&self, ctx: &LintContext<'_>, _cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        // signature → (first index, intents, exact texts, reported)
        let mut seen: HashMap<String, (usize, Vec<IntentId>, Vec<String>, bool)> = HashMap::new();
        for (i, ex) in ctx.space.training.iter().enumerate() {
            let sig = token_signature(&ex.text);
            if sig.is_empty() {
                continue;
            }
            let entry = seen.entry(sig).or_insert_with(|| (i, Vec::new(), Vec::new(), false));
            if !entry.1.contains(&ex.intent) {
                entry.1.push(ex.intent);
            }
            let norm = normalize(&ex.text);
            if !entry.2.contains(&norm) {
                entry.2.push(norm);
            }
            // Only flag reorderings the exact-duplicate lint does not
            // already cover: distinct surface texts, distinct intents.
            if entry.1.len() > 1 && entry.2.len() > 1 && !entry.3 {
                entry.3 = true;
                let intents: Vec<String> = entry.1.iter().map(|&id| ctx.intent_label(id)).collect();
                out.push(
                    Diagnostic::new(
                        "OBCS011",
                        Severity::Warning,
                        Location::new("space", format!("training[{i}]")),
                        format!(
                            "example \"{}\" uses the same words as an example of another intent ({})",
                            ex.text,
                            intents.join(", ")
                        ),
                    )
                    .with_suggestion("rephrase one of the examples to separate the intents"),
                );
            }
        }
    }
}

/// OBCS012 (warning) / OBCS013 (error): intents with too few, or zero,
/// training examples. A zero-example intent is unreachable by the
/// classifier — it can never be detected.
pub struct ExampleFloor;

impl Lint for ExampleFloor {
    fn name(&self) -> &'static str {
        "training-floor"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["OBCS012", "OBCS013"]
    }

    fn description(&self) -> &'static str {
        "intents with too few (or zero) training examples"
    }

    fn run(&self, ctx: &LintContext<'_>, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        let mut counts: HashMap<IntentId, usize> = HashMap::new();
        for ex in &ctx.space.training {
            *counts.entry(ex.intent).or_insert(0) += 1;
        }
        for intent in &ctx.space.intents {
            // Management intents are matched by the dialogue layer's
            // pattern catalog, not the classifier.
            if matches!(intent.goal, obcs_core::intents::IntentGoal::ConversationManagement) {
                continue;
            }
            let n = counts.get(&intent.id).copied().unwrap_or(0);
            let location = Location::new("space", format!("intent `{}`", intent.name));
            if n == 0 {
                out.push(
                    Diagnostic::new(
                        "OBCS013",
                        Severity::Error,
                        location,
                        "intent has no training examples; the classifier can never detect it",
                    )
                    .with_suggestion(
                        "add SME examples or check the training generator covers this intent",
                    ),
                );
            } else if n < cfg.example_floor {
                out.push(
                    Diagnostic::new(
                        "OBCS012",
                        Severity::Warning,
                        location,
                        format!(
                            "intent has only {n} training example(s); floor is {}",
                            cfg.example_floor
                        ),
                    )
                    .with_suggestion("raise examples_per_pattern or add SME examples"),
                );
            }
        }
    }
}
