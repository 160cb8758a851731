//! The `repro chaos` subcommand: sharded traffic replay under fault
//! injection.
//!
//! Replays the quick (or full) traffic profile with the
//! [`FaultPlan::chaos`] injector and the chaos [`ResilienceConfig`]
//! installed on the agent (forks inherit both), then checks the
//! robustness contract of DESIGN.md §11:
//!
//! 1. **No panics** — the replay completes at every parallelism.
//! 2. **Determinism** — the merged trace (spans, counters, histograms)
//!    and the record sequence are byte-for-byte identical at
//!    parallelism 1 and N, because fault decisions are stateless hashes
//!    of `(seed, stage, utterance)` and retry/backoff time comes from a
//!    per-session clock.
//! 3. **No silent faults** — per cause, every observed fault is either
//!    recovered by a retry or surfaced to the user as a degraded reply:
//!    `fault <= fault_recovered + degraded` (the turn budget couples
//!    stages, so a recovered fault can still burn enough clock to
//!    degrade a later stage — over-surfacing is fine, silence is not),
//!    and every degradation produced exactly one visible
//!    `ReplyKind::Degraded` reply.
//!
//! Violations are collected (not panicked) so the CLI can print all of
//! them and exit non-zero.

use std::sync::Arc;

use obcs_faults::{FaultPlan, PlannedFaults, ResilienceConfig};
use obcs_mdx::data::MdxDataConfig;
use obcs_sim::traffic::{run_traffic_traced, SimConfig, TraceMode};
use obcs_sim::SimOutcome;
use obcs_telemetry::{metric, TraceReport};

use crate::World;

/// Options of the `repro chaos` subcommand.
#[derive(Debug, Clone, Copy)]
pub struct ChaosOptions {
    /// Quick profile (60 drugs, 400 interactions — the CI gate) instead of
    /// the full one (150 drugs, 2000 interactions).
    pub quick: bool,
    /// Seed for the synthetic world, the traffic, and the fault plan.
    pub seed: u64,
    /// Replay shard threads for the cross-parallelism determinism check
    /// (the baseline always runs at parallelism 1).
    pub parallelism: usize,
}

/// Outcome of a chaos run: the parallelism-1 baseline plus every
/// contract violation found.
pub struct ChaosReport {
    /// Merged trace of the baseline (parallelism 1) replay.
    pub report: TraceReport,
    /// Replay outcome of the baseline run.
    pub outcome: SimOutcome,
    /// Human-readable contract violations; empty means the run passed.
    pub violations: Vec<String>,
}

impl ChaosReport {
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Sum of a counter metric across all labels.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.report.counters.iter().filter(|((m, _), _)| m == name).map(|(_, &v)| v).sum()
    }
}

/// One replay of the traffic profile with the chaos plan installed.
fn replay(opts: &ChaosOptions, parallelism: usize) -> (TraceReport, SimOutcome) {
    let (drugs, interactions) = if opts.quick { (60, 400) } else { (150, 2000) };
    let world = World::with_config(MdxDataConfig { drugs, seed: opts.seed });
    let mut mdx = world.agent();
    mdx.agent.set_fault_injector(Arc::new(PlannedFaults::new(FaultPlan::chaos(opts.seed))));
    mdx.agent.set_resilience(ResilienceConfig::chaos());
    let (outcome, report) = run_traffic_traced(
        &mut mdx.agent,
        &world.onto,
        &world.pools,
        SimConfig { interactions, seed: opts.seed, parallelism, ..SimConfig::default() },
        TraceMode::Ticks,
    );
    (report.expect("trace mode is never Off here"), outcome)
}

/// The fault-kind labels that feed each degradation cause label.
const CAUSES: &[(&str, &[&str])] = &[
    ("kb", &["kb_timeout", "kb_failure"]),
    ("classifier", &["classifier_collapse"]),
    ("annotator", &["annotation_dropout"]),
];

/// Runs the chaos harness: a parallelism-1 baseline, a cross-parallelism
/// determinism check, and the fault-accounting invariants.
pub fn run(opts: &ChaosOptions) -> ChaosReport {
    let (report, outcome) = replay(opts, 1);
    let mut violations = Vec::new();

    if opts.parallelism > 1 {
        let (par_report, par_outcome) = replay(opts, opts.parallelism);
        if par_report.to_jsonl() != report.to_jsonl() {
            violations.push(format!(
                "nondeterministic trace: parallelism {} differs from parallelism 1",
                opts.parallelism
            ));
        }
        if par_outcome.records != outcome.records {
            violations.push(format!(
                "nondeterministic records: parallelism {} differs from parallelism 1",
                opts.parallelism
            ));
        }
    }

    let counter = |name: &str, label: &str| -> u64 {
        report.counters.get(&(name.to_string(), label.to_string())).copied().unwrap_or(0)
    };

    // The plan must actually bite: a chaos run with zero injected faults
    // (or zero surfaced degradations) means the harness is testing
    // nothing.
    let mut fault_total = 0u64;
    for (cause, kinds) in CAUSES {
        let faults: u64 = kinds.iter().map(|k| counter(metric::FAULTS, k)).sum();
        let recovered: u64 = kinds.iter().map(|k| counter(metric::FAULT_RECOVERED, k)).sum();
        let degraded = counter(metric::DEGRADED, cause);
        fault_total += faults;
        // Silence is the violation: a fault that neither recovered nor
        // degraded vanished. The converse overshoot is legitimate — a
        // recovered fault burns turn budget, which can deadline-degrade
        // a later stage of the same turn.
        if faults > recovered + degraded {
            violations.push(format!(
                "unsurfaced {cause} faults: {faults} observed, {recovered} recovered + \
                 {degraded} degraded"
            ));
        }
        if recovered > faults {
            violations.push(format!(
                "phantom {cause} recoveries: {recovered} recovered but only {faults} observed"
            ));
        }
    }
    if fault_total == 0 {
        violations.push("the chaos plan injected no faults at all".to_string());
    }

    // Every degradation — injected or organic — must have produced
    // exactly one visible degraded reply.
    let degraded_total: u64 =
        report.counters.iter().filter(|((m, _), _)| m == metric::DEGRADED).map(|(_, &v)| v).sum();
    let degraded_replies = counter(metric::REPAIR, "degraded");
    if degraded_total == 0 {
        violations.push("no turn degraded under the chaos plan".to_string());
    }
    if degraded_total != degraded_replies {
        violations.push(format!(
            "invisible degradations: {degraded_total} counted, {degraded_replies} degraded \
             replies shown"
        ));
    }

    ChaosReport { report, outcome, violations }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_chaos_passes_the_contract() {
        let opts = ChaosOptions { quick: true, seed: 42, parallelism: 4 };
        let chaos = run(&opts);
        assert!(chaos.passed(), "violations: {:?}", chaos.violations);
        assert!(chaos.counter_total(metric::FAULTS) > 0);
        assert!(chaos.counter_total(metric::DEGRADED) > 0);
        assert!(chaos.counter_total(metric::FAULT_RECOVERED) > 0);
        // Degradation hurts but does not sink the replay.
        assert!(chaos.outcome.success_rate() > 0.5);
    }
}
