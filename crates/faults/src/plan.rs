//! Deterministic, seeded fault injection.
//!
//! The injector mirrors the telemetry `Recorder` design: the engine holds
//! an `Arc<dyn FaultInjector>` initialised to [`NoFaults`], so production
//! turns pay exactly one virtual dispatch per injection point and nothing
//! else. Chaos replays swap in [`PlannedFaults`], which decides each
//! injection *statelessly* from a hash of `(seed, stage, key)` — the same
//! utterance at the same stage always draws the same fault, regardless of
//! thread interleaving, which is what makes sharded chaos replays
//! bit-for-bit reproducible at any parallelism.

use serde::{Deserialize, Serialize};

/// Pipeline stages at which faults can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultStage {
    /// Entity annotation over the utterance.
    Annotate,
    /// Intent classification.
    Classify,
    /// Knowledge-base query execution.
    KbExecute,
}

impl FaultStage {
    /// Stable lowercase label, aligned with the telemetry stage names.
    pub fn label(self) -> &'static str {
        match self {
            FaultStage::Annotate => "annotate",
            FaultStage::Classify => "classify",
            FaultStage::KbExecute => "kb_execute",
        }
    }

    /// The degradation-cause label turns at this stage degrade under.
    pub fn cause_label(self) -> &'static str {
        match self {
            FaultStage::Annotate => "annotator",
            FaultStage::Classify => "classifier",
            FaultStage::KbExecute => "kb",
        }
    }

    fn salt(self) -> u64 {
        match self {
            FaultStage::Annotate => 0x616e_6e6f,
            FaultStage::Classify => 0x636c_7366,
            FaultStage::KbExecute => 0x6b62_6578,
        }
    }
}

/// The fault classes the injector can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// The KB query runs past its deadline.
    KbTimeout,
    /// The KB query fails outright (storage-layer error).
    KbFailure,
    /// The classifier returns no usable prediction (confidence collapse).
    ClassifierCollapse,
    /// Entity annotation drops every recognised span.
    AnnotationDropout,
}

impl FaultKind {
    /// Stable lowercase label, used for telemetry counter labels.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::KbTimeout => "kb_timeout",
            FaultKind::KbFailure => "kb_failure",
            FaultKind::ClassifierCollapse => "classifier_collapse",
            FaultKind::AnnotationDropout => "annotation_dropout",
        }
    }
}

/// A single injection decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// What kind of fault fires.
    pub kind: FaultKind,
    /// How many consecutive attempts fail before the operation recovers.
    /// `u32::MAX` means the fault is persistent: every retry fails too.
    pub fail_attempts: u32,
}

impl InjectedFault {
    /// True when no number of retries will clear this fault.
    pub fn is_persistent(&self) -> bool {
        self.fail_attempts == u32::MAX
    }
}

/// Decides, per stage and operation key, whether a fault fires.
///
/// Implementations must be pure functions of `(stage, key)` so that
/// replaying the same traffic yields the same faults — the chaos
/// harness's determinism contract depends on it.
pub trait FaultInjector: Send + Sync {
    /// Returns the fault to inject for this operation, if any. The `key`
    /// identifies the operation deterministically (the engine passes the
    /// turn's utterance).
    fn inject(&self, stage: FaultStage, key: &str) -> Option<InjectedFault>;
}

/// The production injector: never fires.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoFaults;

impl FaultInjector for NoFaults {
    fn inject(&self, _stage: FaultStage, _key: &str) -> Option<InjectedFault> {
        None
    }
}

/// A seeded chaos profile: per-stage fault rates in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed mixed into every injection decision.
    pub seed: u64,
    /// Probability that a KB query fails outright.
    pub kb_failure: f64,
    /// Probability that a KB query times out.
    pub kb_timeout: f64,
    /// Probability that classification collapses.
    pub classifier_collapse: f64,
    /// Probability that annotation drops all spans.
    pub annotation_dropout: f64,
    /// Fraction of fired faults that are transient (clear after
    /// `transient_attempts` failures) rather than persistent.
    pub transient_share: f64,
    /// Failed attempts a transient fault charges before recovering.
    pub transient_attempts: u32,
}

impl FaultPlan {
    /// A plan that never fires; useful as a baseline in tests.
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            kb_failure: 0.0,
            kb_timeout: 0.0,
            classifier_collapse: 0.0,
            annotation_dropout: 0.0,
            transient_share: 0.0,
            transient_attempts: 1,
        }
    }

    /// The standard chaos profile used by `repro chaos`: roughly one turn
    /// in eight hits some fault, split across all four kinds, with a
    /// third of faults transient (recoverable within one retry).
    pub fn chaos(seed: u64) -> Self {
        FaultPlan {
            seed,
            kb_failure: 0.04,
            kb_timeout: 0.03,
            classifier_collapse: 0.04,
            annotation_dropout: 0.02,
            transient_share: 1.0 / 3.0,
            transient_attempts: 1,
        }
    }
}

/// [`FaultInjector`] driven by a [`FaultPlan`].
#[derive(Debug, Clone)]
pub struct PlannedFaults {
    plan: FaultPlan,
}

impl PlannedFaults {
    /// Wraps a plan.
    pub fn new(plan: FaultPlan) -> Self {
        PlannedFaults { plan }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn draw(&self, stage: FaultStage, key: &str, lane: u64) -> f64 {
        let mut h = splitmix64(self.plan.seed ^ stage.salt().wrapping_mul(0x9e37_79b9_7f4a_7c15));
        for b in key.as_bytes() {
            h = splitmix64(h ^ u64::from(*b));
        }
        let bits = splitmix64(h ^ lane);
        // Map the top 53 bits to [0, 1): same construction as
        // `rand`'s `f64` sampling, bias-free at f64 precision.
        (bits >> 11) as f64 / (1u64 << 53) as f64
    }

    fn fire(&self, stage: FaultStage, key: &str, kind: FaultKind) -> InjectedFault {
        let transient = self.draw(stage, key, 0x7472_616e) < self.plan.transient_share;
        InjectedFault {
            kind,
            fail_attempts: if transient { self.plan.transient_attempts } else { u32::MAX },
        }
    }
}

impl FaultInjector for PlannedFaults {
    fn inject(&self, stage: FaultStage, key: &str) -> Option<InjectedFault> {
        let u = self.draw(stage, key, 0);
        match stage {
            FaultStage::Annotate if u < self.plan.annotation_dropout => {
                Some(self.fire(stage, key, FaultKind::AnnotationDropout))
            }
            FaultStage::Classify if u < self.plan.classifier_collapse => {
                Some(self.fire(stage, key, FaultKind::ClassifierCollapse))
            }
            FaultStage::KbExecute if u < self.plan.kb_failure => {
                Some(self.fire(stage, key, FaultKind::KbFailure))
            }
            FaultStage::KbExecute if u < self.plan.kb_failure + self.plan.kb_timeout => {
                Some(self.fire(stage, key, FaultKind::KbTimeout))
            }
            _ => None,
        }
    }
}

/// The same finalizer the sim crate uses for session seeding; duplicated
/// here so the faults crate stays dependency-light.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_is_silent() {
        assert_eq!(NoFaults.inject(FaultStage::KbExecute, "anything"), None);
    }

    #[test]
    fn injection_is_a_pure_function_of_stage_and_key() {
        let inj = PlannedFaults::new(FaultPlan::chaos(42));
        for stage in [FaultStage::Annotate, FaultStage::Classify, FaultStage::KbExecute] {
            for key in ["what treats headaches", "dosage of aspirin", ""] {
                assert_eq!(inj.inject(stage, key), inj.inject(stage, key));
            }
        }
    }

    #[test]
    fn quiet_plan_never_fires() {
        let inj = PlannedFaults::new(FaultPlan::quiet(7));
        for i in 0..200 {
            let key = format!("utterance {i}");
            assert_eq!(inj.inject(FaultStage::KbExecute, &key), None);
            assert_eq!(inj.inject(FaultStage::Classify, &key), None);
        }
    }

    #[test]
    fn chaos_plan_fires_at_roughly_the_configured_rate() {
        let plan = FaultPlan::chaos(42);
        let inj = PlannedFaults::new(plan);
        let n = 4000;
        let mut kb = 0;
        let mut transient = 0;
        for i in 0..n {
            let key = format!("utterance number {i} about drugs");
            if let Some(f) = inj.inject(FaultStage::KbExecute, &key) {
                kb += 1;
                if !f.is_persistent() {
                    transient += 1;
                }
            }
        }
        let expect = (plan.kb_failure + plan.kb_timeout) * n as f64;
        assert!(
            (kb as f64) > expect * 0.5 && (kb as f64) < expect * 1.5,
            "kb fault rate off: {kb} fired, expected ~{expect}"
        );
        assert!(transient > 0, "some faults must be transient");
        assert!(transient < kb, "some faults must be persistent");
    }

    #[test]
    fn different_seeds_draw_different_faults() {
        let a = PlannedFaults::new(FaultPlan::chaos(1));
        let b = PlannedFaults::new(FaultPlan::chaos(2));
        let mut diff = 0;
        for i in 0..500 {
            let key = format!("utterance {i}");
            if a.inject(FaultStage::KbExecute, &key) != b.inject(FaultStage::KbExecute, &key) {
                diff += 1;
            }
        }
        assert!(diff > 0, "seeds must matter");
    }
}
