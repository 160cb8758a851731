//! The unified error taxonomy for the online turn pipeline.
//!
//! Before this crate, each layer surfaced its own error enum (`KbError`,
//! `NlqError`) or — worse — stringly-typed fallbacks
//! inside the engine. [`ObcsError`] is the single type the engine reasons
//! about when deciding whether a turn can proceed, must retry, or must
//! degrade into a repair reply.

use std::fmt;

use obcs_kb::KbError;
use obcs_nlq::interpret::NlqError;

use crate::plan::{FaultKind, FaultStage};

/// Any fault the turn pipeline can encounter, typed per origin.
///
/// The engine's degradation policy is written against this enum: injected
/// and infrastructure faults are retried then degraded, while semantic
/// errors (a template that cannot bind, an unmapped concept) keep their
/// historical handling — they are user-repairable, not system faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObcsError {
    /// A knowledge-base storage or SQL error.
    Kb(KbError),
    /// A natural-language-query interpretation error.
    Nlq(NlqError),
    /// The dialogue tree asked the engine to fulfil an intent it does not
    /// know how to translate into a query.
    UnknownIntent(String),
    /// A fault injected by the active [`FaultInjector`](crate::FaultInjector).
    Injected {
        /// Pipeline stage at which the fault fired.
        stage: FaultStage,
        /// The injected fault class.
        kind: FaultKind,
    },
    /// The per-turn deadline budget was exhausted.
    DeadlineExceeded {
        /// Pipeline stage that observed the exhausted budget.
        stage: FaultStage,
        /// Clock readings elapsed since the turn started.
        elapsed: u64,
        /// The configured budget, in the same clock units.
        budget: u64,
    },
    /// A retryable fault persisted past the configured retry allowance.
    RetriesExhausted {
        /// Pipeline stage whose operation kept failing.
        stage: FaultStage,
        /// Attempts made (initial call plus retries).
        attempts: u32,
        /// The last underlying failure.
        cause: Box<ObcsError>,
    },
}

impl ObcsError {
    /// True when the engine should retry the failing operation before
    /// degrading: injected faults model transient infrastructure trouble.
    /// Budget exhaustion and semantic errors are never retried.
    pub fn is_retryable(&self) -> bool {
        matches!(self, ObcsError::Injected { .. })
    }

    /// Short stable label naming the degradation cause, used as the
    /// telemetry counter label (`degraded{cause}`).
    pub fn cause_label(&self) -> &'static str {
        match self {
            ObcsError::Kb(_) => "kb",
            ObcsError::Nlq(_) => "nlq",
            ObcsError::UnknownIntent(_) => "engine",
            ObcsError::Injected { stage, .. } | ObcsError::DeadlineExceeded { stage, .. } => {
                stage.cause_label()
            }
            ObcsError::RetriesExhausted { cause, .. } => cause.cause_label(),
        }
    }
}

impl fmt::Display for ObcsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObcsError::Kb(e) => write!(f, "knowledge base error: {e}"),
            ObcsError::Nlq(e) => write!(f, "query interpretation error: {e}"),
            ObcsError::UnknownIntent(i) => write!(f, "no query translation for intent `{i}`"),
            ObcsError::Injected { stage, kind } => {
                write!(f, "injected {} fault at stage `{}`", kind.label(), stage.label())
            }
            ObcsError::DeadlineExceeded { stage, elapsed, budget } => write!(
                f,
                "turn budget exhausted at stage `{}` ({elapsed} of {budget} clock units)",
                stage.label()
            ),
            ObcsError::RetriesExhausted { stage, attempts, cause } => write!(
                f,
                "stage `{}` still failing after {attempts} attempts: {cause}",
                stage.label()
            ),
        }
    }
}

impl std::error::Error for ObcsError {}

impl From<KbError> for ObcsError {
    fn from(e: KbError) -> Self {
        ObcsError::Kb(e)
    }
}

impl From<NlqError> for ObcsError {
    fn from(e: NlqError) -> Self {
        ObcsError::Nlq(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_labels_follow_origin() {
        assert_eq!(ObcsError::Kb(KbError::UnknownTable("t".into())).cause_label(), "kb");
        assert_eq!(ObcsError::Nlq(NlqError::NoEvidence).cause_label(), "nlq");
        assert_eq!(ObcsError::UnknownIntent("x".into()).cause_label(), "engine");
        let inj = ObcsError::Injected {
            stage: FaultStage::Classify,
            kind: FaultKind::ClassifierCollapse,
        };
        assert_eq!(inj.cause_label(), "classifier");
        let exhausted = ObcsError::RetriesExhausted {
            stage: FaultStage::KbExecute,
            attempts: 3,
            cause: Box::new(ObcsError::Injected {
                stage: FaultStage::KbExecute,
                kind: FaultKind::KbTimeout,
            }),
        };
        assert_eq!(exhausted.cause_label(), "kb");
    }

    #[test]
    fn only_injected_faults_are_retryable() {
        let inj = ObcsError::Injected { stage: FaultStage::KbExecute, kind: FaultKind::KbFailure };
        assert!(inj.is_retryable());
        assert!(!ObcsError::Kb(KbError::UnknownTable("t".into())).is_retryable());
        assert!(!ObcsError::DeadlineExceeded {
            stage: FaultStage::KbExecute,
            elapsed: 10,
            budget: 5
        }
        .is_retryable());
    }

    #[test]
    fn display_is_informative() {
        let e =
            ObcsError::Injected { stage: FaultStage::Annotate, kind: FaultKind::AnnotationDropout };
        assert!(e.to_string().contains("annotation_dropout"));
        assert!(e.to_string().contains("annotate"));
    }
}
