//! # obcs-telemetry
//!
//! Zero-dependency tracing and metrics for the OBCS serving pipeline —
//! the turn-level observability layer behind `repro trace` (see
//! DESIGN.md §10 "Observability").
//!
//! The paper's §7 evaluation is built from per-turn behaviour observed
//! over seven months of production traffic: classification confidence,
//! repair rates, per-request latency. This crate makes the reproduction
//! report the same signals from inside the hot path:
//!
//! * [`Recorder`] — the instrumentation sink. [`NoopRecorder`] makes
//!   every call an immediate return (serving and benches);
//!   [`CollectingRecorder`] keeps hierarchical spans, labelled counters,
//!   and fixed-bucket histograms (replay and diagnostics).
//! * [`clock`] — span timing is pluggable: [`MonotonicClock`] measures
//!   wall nanoseconds, [`TickClock`] measures deterministic *ticks* so a
//!   traced replay is bit-for-bit reproducible on any machine at any
//!   parallelism (DESIGN.md §7's determinism contract, extended to
//!   traces).
//! * [`hist`] — log-linear fixed-bucket [`Histogram`]s with p50/p95/p99
//!   quantiles; merging is bucket-wise addition, so per-shard aggregation
//!   is order-insensitive.
//! * [`trace`] — [`TraceReport`] (drained from a recorder, merged across
//!   shards), text tables, JSONL export, and a self-contained
//!   [`validate_jsonl`] checker that CI runs against every exported
//!   trace.
//!
//! ## Example
//!
//! ```
//! use obcs_telemetry::{span, CollectingRecorder, Recorder};
//!
//! let rec = CollectingRecorder::ticks();
//! {
//!     let _turn = span(&rec, "turn");
//!     let _classify = span(&rec, "classify");
//!     rec.observe_ratio("confidence", "Uses of Drug", 0.84);
//! } // guards close the spans
//! let report = rec.take_report();
//! assert_eq!(report.spans.len(), 2);
//! assert_eq!(report.spans[1].parent, Some(0));
//! obcs_telemetry::validate_jsonl(&report.to_jsonl()).expect("well-formed trace");
//! ```

pub mod clock;
pub mod hist;
mod json;
pub mod recorder;
pub mod trace;

pub use clock::{Clock, MonotonicClock, TickClock};
pub use hist::Histogram;
pub use recorder::{span, CollectingRecorder, NoopRecorder, Recorder, SpanGuard, SpanId};
pub use trace::{validate_jsonl, SpanEvent, TraceReport, TraceStats};

/// The shared stage vocabulary: every instrumented crate names its spans
/// from here so traces aggregate under stable keys.
pub mod stage {
    /// One full `respond` turn (parent of everything below).
    pub const TURN: &str = "turn";
    /// Entity annotation over the utterance (`obcs-nlq` lexicon).
    pub const ANNOTATE: &str = "annotate";
    /// Intent classification (`obcs-classifier` predict).
    pub const CLASSIFY: &str = "classify";
    /// Dialogue-tree evaluation (`obcs-dialogue`).
    pub const DIALOGUE_EVAL: &str = "dialogue_eval";
    /// NL→SQL interpretation (`obcs-nlq`); in a fulfilment, filling the
    /// parameters of a prepared optional-entity query.
    pub const NLQ_INTERPRET: &str = "nlq_interpret";
    /// Filling the parameters of a prepared structured-query template.
    pub const TEMPLATE_INSTANTIATE: &str = "template_instantiate";
    /// SQL execution against the knowledge base (`obcs-kb`).
    pub const KB_EXECUTE: &str = "kb_execute";
    /// Response verbalisation (`obcs-agent` NLG).
    pub const NLG: &str = "nlg";
    /// One served socket turn (`obcs-serve`): session lookup/admission,
    /// the engine [`TURN`] nested inside, and the wire reply built from
    /// it. It closes before the response is encoded and written.
    pub const SERVE_TURN: &str = "serve_turn";
}

/// The shared counter/metric vocabulary.
pub mod metric {
    /// Counter: turns served (label empty).
    pub const TURNS: &str = "turns";
    /// Counter: replies by reply-kind label (`fulfilment`, `fallback`,
    /// `elicitation`, …).
    pub const REPLY_KIND: &str = "reply_kind";
    /// Counter: accepted domain intents by intent-name label.
    pub const INTENT: &str = "intent";
    /// Counter: repair turns by kind label (`fallback`,
    /// `disambiguation`, `elicitation`, `low_confidence`).
    pub const REPAIR: &str = "repair";
    /// Ratio histogram: classifier confidence by intent-name label.
    pub const CONFIDENCE: &str = "confidence";
    /// Counter: KB queries executed (label empty).
    pub const KB_QUERIES: &str = "kb_queries";
    /// Counter: KB rows returned (label empty).
    pub const KB_ROWS: &str = "kb_rows";
    /// Counter: injected faults by fault-kind label (`kb_failure`,
    /// `kb_timeout`, `classifier_collapse`, `annotation_dropout`).
    pub const FAULTS: &str = "fault";
    /// Counter: retry attempts by pipeline-stage label.
    pub const RETRIES: &str = "retry";
    /// Counter: injected faults cleared by retrying, by fault-kind label.
    pub const FAULT_RECOVERED: &str = "fault_recovered";
    /// Counter: degraded (apology/fallback) replies by cause label
    /// (`kb`, `classifier`, `annotator`, `engine`).
    pub const DEGRADED: &str = "degraded";
    /// Counter: non-injected pipeline errors swallowed on the historical
    /// template-skip path, by cause label.
    pub const PIPELINE_ERRORS: &str = "pipeline_error";
    /// Counter: turns shed by serving admission control before reaching
    /// the engine, by cause label (`capacity`).
    pub const SHED: &str = "shed";
}
