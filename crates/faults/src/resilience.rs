//! Retry, backoff, and per-turn deadline budget.
//!
//! The engine wraps each fault-exposed pipeline stage in
//! [`run_resilient`], which layers three policies over the raw operation:
//!
//! 1. **Injection** — if the active fault plan fired for this operation,
//!    the first `fail_attempts` attempts fail with
//!    [`ObcsError::Injected`] instead of running the real operation;
//! 2. **Retry with backoff** — retryable failures are retried up to
//!    [`ResilienceConfig::max_retries`] times, with an exponential
//!    backoff spun on the engine's [`Clock`] (deterministic under
//!    `TickClock`: a backoff of *d* consumes exactly *d* readings);
//! 3. **Deadline budget** — each attempt first checks the turn's elapsed
//!    clock readings against [`ResilienceConfig::turn_budget`]; an
//!    exhausted budget aborts with [`ObcsError::DeadlineExceeded`]
//!    rather than retrying forever.
//!
//! All time is read from one clock owned by the calling engine, so the
//! whole policy is a pure function of the call structure — which is what
//! lets the chaos harness demand bit-identical counters at any replay
//! parallelism.

use obcs_telemetry::{metric, Clock, Recorder};

use crate::error::ObcsError;
use crate::plan::{FaultKind, FaultStage, InjectedFault};

/// Tunables for the engine's degradation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Retries allowed per operation (total attempts = 1 + retries).
    pub max_retries: u32,
    /// Backoff before retry `i` is `backoff_base << i` clock readings.
    pub backoff_base: u64,
    /// Clock readings an injected timeout burns before failing.
    pub timeout_cost: u64,
    /// Per-turn deadline in clock readings; `None` disables the budget.
    pub turn_budget: Option<u64>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig { max_retries: 2, backoff_base: 4, timeout_cost: 32, turn_budget: None }
    }
}

impl ResilienceConfig {
    /// The profile `repro chaos` runs under: two retries and a turn
    /// budget tight enough that repeated injected timeouts can exhaust
    /// it (exercising the `DeadlineExceeded` path).
    pub fn chaos() -> Self {
        ResilienceConfig {
            max_retries: 2,
            backoff_base: 4,
            timeout_cost: 32,
            turn_budget: Some(96),
        }
    }

    /// The profile `obcs-serve` installs on session forks: one retry (a
    /// served turn would rather degrade fast than stall a socket) and a
    /// per-turn budget of 4,096 readings of the fork's tick clock. Only
    /// the turn start, each `run_resilient` check and injected waits
    /// (timeouts, backoff) advance that clock; a fault-free fulfilment
    /// reads it three times plus once per KB query. So the budget caps
    /// how many injected waits and retries one turn can pile up: no
    /// fault-free turn can exhaust it, and no stage's wall time counts
    /// against it (DESIGN.md §15.4).
    pub fn serving() -> Self {
        ResilienceConfig {
            max_retries: 1,
            backoff_base: 2,
            timeout_cost: 32,
            turn_budget: Some(4096),
        }
    }
}

/// How a resilient call concluded, from the fault-accounting side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// No fault was injected; the operation ran normally.
    Clean,
    /// A fault was injected but retries cleared it.
    Recovered(FaultKind),
}

/// Runs `op` under the resilience policy. `injected` is the fault-plan
/// decision for this operation (made once by the caller, so the fault is
/// counted once no matter how many attempts run); `turn_start` is the
/// clock reading taken at the top of the turn.
///
/// On success returns the value plus whether an injected fault was
/// overcome; on failure returns the terminal [`ObcsError`] — the caller
/// degrades the turn. Retry attempts are counted on `rec` under
/// [`metric::RETRIES`] labelled with the stage.
pub fn run_resilient<T>(
    stage: FaultStage,
    injected: Option<InjectedFault>,
    config: &ResilienceConfig,
    clock: &dyn Clock,
    turn_start: u64,
    rec: &dyn Recorder,
    mut op: impl FnMut() -> Result<T, ObcsError>,
) -> Result<(T, Recovery), ObcsError> {
    let mut attempt: u32 = 0;
    loop {
        if let Some(budget) = config.turn_budget {
            let elapsed = clock.now().saturating_sub(turn_start);
            if elapsed >= budget {
                return Err(ObcsError::DeadlineExceeded { stage, elapsed, budget });
            }
        }
        let outcome = match injected {
            Some(fault) if attempt < fault.fail_attempts => {
                if fault.kind == FaultKind::KbTimeout {
                    spin(clock, config.timeout_cost);
                }
                Err(ObcsError::Injected { stage, kind: fault.kind })
            }
            _ => op(),
        };
        match outcome {
            Ok(value) => {
                let recovery = match injected {
                    Some(fault) if attempt >= fault.fail_attempts => {
                        Recovery::Recovered(fault.kind)
                    }
                    _ => Recovery::Clean,
                };
                return Ok((value, recovery));
            }
            Err(err) if !err.is_retryable() => return Err(err),
            Err(err) => {
                // Re-check the budget after the failed attempt: an
                // injected timeout burns clock inside the attempt, and
                // retrying past the deadline helps nobody.
                if let Some(budget) = config.turn_budget {
                    let elapsed = clock.now().saturating_sub(turn_start);
                    if elapsed >= budget {
                        return Err(ObcsError::DeadlineExceeded { stage, elapsed, budget });
                    }
                }
                if attempt >= config.max_retries {
                    return Err(ObcsError::RetriesExhausted {
                        stage,
                        attempts: attempt + 1,
                        cause: Box::new(err),
                    });
                }
                rec.incr(metric::RETRIES, stage.label());
                spin(clock, config.backoff_base << attempt);
                attempt += 1;
            }
        }
    }
}

/// Burns `readings` clock readings. Under `TickClock` each `now()`
/// advances time by one, so this terminates after exactly `readings`
/// reads; under a wall clock it busy-waits `readings` nanoseconds.
fn spin(clock: &dyn Clock, readings: u64) {
    let start = clock.now();
    while clock.now().saturating_sub(start) < readings {}
}

#[cfg(test)]
mod tests {
    use obcs_telemetry::{NoopRecorder, TickClock};

    use super::*;

    fn tick_env() -> (TickClock, NoopRecorder) {
        (TickClock::new(), NoopRecorder)
    }

    #[test]
    fn clean_call_runs_once() {
        let (clock, rec) = tick_env();
        let start = clock.now();
        let mut calls = 0;
        let out = run_resilient(
            FaultStage::KbExecute,
            None,
            &ResilienceConfig::default(),
            &clock,
            start,
            &rec,
            || {
                calls += 1;
                Ok::<_, ObcsError>(41)
            },
        );
        assert_eq!(out, Ok((41, Recovery::Clean)));
        assert_eq!(calls, 1);
    }

    #[test]
    fn transient_fault_recovers_after_retry() {
        let (clock, rec) = tick_env();
        let start = clock.now();
        let fault = InjectedFault { kind: FaultKind::KbFailure, fail_attempts: 1 };
        let mut calls = 0;
        let out = run_resilient(
            FaultStage::KbExecute,
            Some(fault),
            &ResilienceConfig::default(),
            &clock,
            start,
            &rec,
            || {
                calls += 1;
                Ok::<_, ObcsError>("rows")
            },
        );
        assert_eq!(out, Ok(("rows", Recovery::Recovered(FaultKind::KbFailure))));
        assert_eq!(calls, 1, "the real operation runs only once the fault clears");
    }

    #[test]
    fn persistent_fault_exhausts_retries() {
        let (clock, rec) = tick_env();
        let start = clock.now();
        let fault = InjectedFault { kind: FaultKind::KbFailure, fail_attempts: u32::MAX };
        let config = ResilienceConfig { max_retries: 2, ..ResilienceConfig::default() };
        let out = run_resilient::<()>(
            FaultStage::KbExecute,
            Some(fault),
            &config,
            &clock,
            start,
            &rec,
            || unreachable!("persistent fault never reaches the operation"),
        );
        match out {
            Err(ObcsError::RetriesExhausted { attempts: 3, cause, .. }) => {
                assert_eq!(
                    *cause,
                    ObcsError::Injected {
                        stage: FaultStage::KbExecute,
                        kind: FaultKind::KbFailure
                    }
                );
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn non_retryable_errors_fail_fast() {
        let (clock, rec) = tick_env();
        let start = clock.now();
        let mut calls = 0;
        let out = run_resilient::<()>(
            FaultStage::KbExecute,
            None,
            &ResilienceConfig::default(),
            &clock,
            start,
            &rec,
            || {
                calls += 1;
                Err(ObcsError::UnknownIntent("x".into()))
            },
        );
        assert_eq!(out, Err(ObcsError::UnknownIntent("x".into())));
        assert_eq!(calls, 1);
    }

    #[test]
    fn timeouts_can_exhaust_the_turn_budget() {
        let (clock, rec) = tick_env();
        let start = clock.now();
        let fault = InjectedFault { kind: FaultKind::KbTimeout, fail_attempts: u32::MAX };
        let config = ResilienceConfig::chaos();
        let out = run_resilient::<()>(
            FaultStage::KbExecute,
            Some(fault),
            &config,
            &clock,
            start,
            &rec,
            || unreachable!(),
        );
        match out {
            Err(ObcsError::DeadlineExceeded { budget, elapsed, .. }) => {
                assert!(elapsed >= budget);
            }
            Err(ObcsError::RetriesExhausted { .. }) => {
                panic!("budget should trip before retries run out under chaos profile")
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn backoff_is_deterministic_in_ticks() {
        let run = || {
            let (clock, rec) = tick_env();
            let start = clock.now();
            let fault = InjectedFault { kind: FaultKind::KbFailure, fail_attempts: 2 };
            let out = run_resilient(
                FaultStage::Classify,
                Some(fault),
                &ResilienceConfig::default(),
                &clock,
                start,
                &rec,
                || Ok::<_, ObcsError>(()),
            );
            assert!(out.is_ok());
            clock.now()
        };
        assert_eq!(run(), run(), "tick cost of an identical call must be identical");
    }
}
