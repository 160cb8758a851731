//! The diagnostic model: what a lint reports and how a batch of reports is
//! rendered, counted and gated.
//!
//! Mirrors a compiler's diagnostic stream: every finding carries a stable
//! code (`OBCS0xx`), a severity, a location inside the artifact chain, a
//! human message and an optional suggestion. Codes are stable across
//! releases so CI configurations and suppressions survive refactors.

use std::fmt;

use serde::{Deserialize, Serialize};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Advisory; never gates, even under `--deny-warnings`.
    Info,
    /// Suspicious but the space still functions; gates under
    /// `--deny-warnings`.
    Warning,
    /// The artifact chain is broken; always gates.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Where in the artifact chain a finding points.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Location {
    /// Which artifact: `ontology`, `kb`, `mapping`, `space`, `logic-table`,
    /// `dialogue-tree`.
    pub artifact: String,
    /// The item within the artifact, e.g. `intent `Precautions of Drug``
    /// or `training[412]`.
    pub item: String,
}

impl Location {
    pub fn new(artifact: impl Into<String>, item: impl Into<String>) -> Self {
        Location { artifact: artifact.into(), item: item.into() }
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.artifact, self.item)
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable code, e.g. `OBCS013`.
    pub code: String,
    pub severity: Severity,
    pub location: Location,
    pub message: String,
    /// What the designer could do about it, when a fix is known.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    pub fn new(
        code: &str,
        severity: Severity,
        location: Location,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code: code.to_string(),
            severity,
            location,
            message: message.into(),
            suggestion: None,
        }
    }

    pub fn with_suggestion(mut self, suggestion: impl Into<String>) -> Self {
        self.suggestion = Some(suggestion.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {} ({})", self.severity, self.code, self.message, self.location)?;
        if let Some(s) = &self.suggestion {
            write!(f, "\n    = help: {s}")?;
        }
        Ok(())
    }
}

/// The collected output of one lint run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DiagnosticSet {
    pub diagnostics: Vec<Diagnostic>,
}

impl DiagnosticSet {
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == severity).count()
    }

    /// All diagnostics carrying a given code.
    pub fn with_code(&self, code: &str) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }

    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Sorts by (severity desc, code, location) for deterministic output.
    pub fn sort(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.code.cmp(&b.code))
                .then_with(|| a.location.artifact.cmp(&b.location.artifact))
                .then_with(|| a.location.item.cmp(&b.location.item))
        });
    }

    /// Whether the run should fail the build. Errors always gate; warnings
    /// gate only under `deny_warnings`. Info never gates.
    pub fn gate(&self, deny_warnings: bool) -> Result<(), String> {
        let errors = self.count(Severity::Error);
        let warnings = self.count(Severity::Warning);
        if errors > 0 || (deny_warnings && warnings > 0) {
            Err(format!("lint failed: {errors} error(s), {warnings} warning(s)"))
        } else {
            Ok(())
        }
    }

    /// Renders the set in rustc-like text form, one block per finding,
    /// followed by a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} info(s)\n",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        ));
        out
    }

    /// Machine-readable JSON (pretty-printed array plus summary counts).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("diagnostic serialisation cannot fail")
    }

    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// The machine-readable report envelope the `spacelint` binary emits
/// under `--json`: which tool ran, over which artifact, severity counts,
/// and the findings themselves. CI consumers should key on
/// `errors`/`warnings` rather than re-counting diagnostics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JsonReport {
    /// The emitting tool, `spacelint`.
    pub tool: String,
    /// The artifact the report is about (the space file path).
    pub artifact: String,
    pub errors: usize,
    pub warnings: usize,
    pub infos: usize,
    pub diagnostics: Vec<Diagnostic>,
}

impl JsonReport {
    /// Wraps a finished diagnostic set in the report envelope.
    pub fn new(tool: &str, artifact: &str, set: &DiagnosticSet) -> Self {
        JsonReport {
            tool: tool.to_string(),
            artifact: artifact.to_string(),
            errors: set.count(Severity::Error),
            warnings: set.count(Severity::Warning),
            infos: set.count(Severity::Info),
            diagnostics: set.diagnostics.clone(),
        }
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialisation cannot fail")
    }

    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic::new(
            "OBCS013",
            Severity::Error,
            Location::new("space", "intent `Precautions of Drug`"),
            "intent has no training examples",
        )
        .with_suggestion("add SME examples or raise examples_per_pattern")
    }

    #[test]
    fn severity_orders_info_warning_error() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn gate_denies_errors_always() {
        let mut set = DiagnosticSet::default();
        set.push(sample());
        assert!(set.gate(false).is_err());
    }

    #[test]
    fn gate_denies_warnings_only_when_asked() {
        let mut set = DiagnosticSet::default();
        set.push(Diagnostic::new(
            "OBCS012",
            Severity::Warning,
            Location::new("space", "intent `X`"),
            "below floor",
        ));
        assert!(set.gate(false).is_ok());
        assert!(set.gate(true).is_err());
    }

    #[test]
    fn info_never_gates() {
        let mut set = DiagnosticSet::default();
        set.push(Diagnostic::new(
            "OBCS050",
            Severity::Info,
            Location::new("kb", "table `empty`"),
            "empty table",
        ));
        assert!(set.gate(true).is_ok());
    }

    #[test]
    fn render_includes_code_and_suggestion() {
        let text = sample().to_string();
        assert!(text.contains("error[OBCS013]"));
        assert!(text.contains("= help:"));
    }

    #[test]
    fn json_round_trip() {
        let mut set = DiagnosticSet::default();
        set.push(sample());
        let back = DiagnosticSet::from_json(&set.to_json()).unwrap();
        assert_eq!(back.diagnostics, set.diagnostics);
    }

    #[test]
    fn json_report_round_trip() {
        let mut set = DiagnosticSet::default();
        set.push(sample());
        set.push(Diagnostic::new(
            "OBCS012",
            Severity::Warning,
            Location::new("space", "intent `X`"),
            "below floor",
        ));
        let report = JsonReport::new("spacelint", "artifacts/mdx_space.json", &set);
        assert_eq!((report.errors, report.warnings, report.infos), (1, 1, 0));
        let back = JsonReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }
}
