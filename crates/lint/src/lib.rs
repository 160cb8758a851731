//! # obcs-lint
//!
//! Compiler-style static analysis over the bootstrapped conversation
//! space and every artifact it touches: the ontology, the KB schema and
//! data, the ontology-to-schema mapping, the conversation space itself,
//! and the derived dialogue logic table and tree.
//!
//! The paper's pipeline (§4–§5) machine-generates all of these artifacts;
//! SME feedback and designer customisation then edit them by hand. This
//! crate is the safety net between those edits and the online system: a
//! single pass that cross-checks the whole chain and reports findings as
//! [`Diagnostic`]s with stable codes, rustc-like text rendering and
//! machine-readable JSON. The codes come in two families:
//!
//! * `OBCS0xx` inspect one artifact at a time (ontology, training,
//!   entities, templates, logic table, tree, mapping, KB).
//! * `OBCS1xx` prove behavioural properties of the space as a whole:
//!   [`rules::flow`] model-checks the dialogue state machine by driving
//!   the real [`obcs_dialogue::DialogueTree::evaluate`] over an abstract
//!   input alphabet (`OBCS100`–`OBCS105`), [`rules::bindcheck`] binds
//!   every query template against the KB schema without running it
//!   (`OBCS110`–`OBCS114`), and [`rules::consistency`] pins references
//!   between artifact layers (`OBCS120`–`OBCS122`).
//!
//! ```no_run
//! use obcs_lint::{LintConfig, LintContext, run_all};
//! # let (onto, kb, mapping, space) = todo!();
//! let ctx = LintContext::new(&onto, &kb, &mapping, &space);
//! let report = run_all(&ctx, &LintConfig::default());
//! print!("{}", report.render_text());
//! report.gate(/* deny_warnings */ false).expect("space must lint clean");
//! ```
//!
//! The `spacelint` binary lints committed artifacts:
//!
//! ```text
//! cargo run -p obcs-lint --bin spacelint -- artifacts/mdx_space.json
//! ```
//!
//! Crate role: DESIGN.md §2; rule catalogue and severity policy: §8; the
//! state-machine abstraction and the bind-check soundness argument: §13.

pub mod artifacts;
pub mod context;
pub mod diag;
#[allow(clippy::module_inception)]
pub mod lint;
pub mod rules;

pub use artifacts::{load_artifacts, reconstruct_ontology, sibling_kb};
pub use context::LintContext;
pub use diag::{Diagnostic, DiagnosticSet, JsonReport, Location, Severity};
pub use lint::{all_lints, run_all, Lint, LintConfig};
