//! # obcs-nlq
//!
//! An ontology-driven natural-language-query (NLQ) service — the
//! reproduction of the Athena-style component (\[29\]) the paper uses to turn
//! the bootstrapped intents' example utterances into structured SQL queries
//! and, from those, parameterised *structured query templates* (§4.4,
//! Fig. 9).
//!
//! Pipeline:
//!
//! 1. [`mapping`] — link the domain ontology to the physical KB schema:
//!    concept → table, data property → column, object property → join
//!    columns, plus a *label column* per concept (the human-readable name
//!    column instances are referred to by).
//! 2. [`annotate`] — evidence annotation: find mentions of concepts, data
//!    properties, and instance values inside a user utterance.
//! 3. [`mod@interpret`] — assemble an interpreted query (focus concept,
//!    projections, join path over the ontology, filters) and render SQL.
//! 4. [`template`] — parameterise SQL into a reusable template with
//!    `<@Concept>` markers, prepared once as a plan whose parameters
//!    take the recognised entities at runtime.
//!
//! Crate role: DESIGN.md §2; annotation performance architecture: §9;
//! traced interpretation (`interpret_traced`, `annotate_traced`): §10.

pub mod annotate;
pub mod interpret;
pub mod mapping;
pub mod template;

pub use interpret::{interpret, interpret_traced, InterpretedQuery, NlqError};
pub use mapping::OntologyMapping;
pub use template::QueryTemplate;
