//! The tracked performance baseline behind `repro perf`.
//!
//! Times every hot-path stage of the pipeline — offline bootstrap, NLU
//! construction, entity annotation, classifier training, and traffic
//! replay — and, for each stage that this codebase optimised, measures the
//! retained *before* implementation (`annotate_scan`, `train_scan`,
//! `parallelism = 1`) against the shipped one on the same workload. The
//! report serialises to `BENCH_perf.json`; CI replays the quick profile
//! and fails when any stage regresses more than [`MAX_REGRESSION`]× against
//! the committed baseline.

use std::hint::black_box;
use std::time::Instant;

use obcs_agent::nlu::Nlu;
use obcs_classifier::logreg::{LogReg, LogRegConfig};
use obcs_classifier::Dataset;
use obcs_mdx::data::MdxDataConfig;
use obcs_sim::traffic::{run_traffic, SimConfig, INTENT_MIX};
use obcs_sim::utterance::generate;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::World;

/// A CI run fails when a stage is more than this many times slower than
/// the committed baseline. Generous on purpose: the gate exists to catch
/// accidental algorithmic regressions (a trie turning back into a scan),
/// not scheduler noise on a loaded runner.
pub const MAX_REGRESSION: f64 = 5.0;

/// The committed floor for the `cached_replay` stage: replaying a
/// repeated fulfilment-heavy mix with the NLU memo on must beat the
/// memo-off replay by at least this factor. Unlike the regression
/// ceiling, this is an absolute speedup requirement recorded in the
/// baseline and enforced by `check_against`.
pub const CACHED_REPLAY_FLOOR: f64 = 2.0;

/// Committed floor for the `annotate` comparison: the interned-token
/// trie must beat the span-join scan by at least this factor (the
/// baseline sits near 5x; 2x leaves headroom for runner noise without
/// letting the trie silently degrade into a scan).
pub const ANNOTATE_FLOOR: f64 = 2.0;

/// Committed floor for the `logreg_train` comparison: pre-vectorised
/// CSR training with parallel one-vs-rest vs the per-example
/// re-featurising scan (baseline near 5x).
pub const LOGREG_TRAIN_FLOOR: f64 = 2.0;

/// How the harness was sized.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfOptions {
    /// Reduced world and workload sizes, for CI and the committed baseline.
    pub quick: bool,
    pub seed: u64,
}

/// A stage with a single implementation: wall time only.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Timing {
    pub name: String,
    /// What was measured, in human units (e.g. "60-drug world").
    pub work: String,
    pub ms: f64,
}

/// A stage where the pre-optimisation implementation is retained as an
/// oracle: both paths run on the identical workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Comparison {
    pub name: String,
    pub work: String,
    pub before_ms: f64,
    pub after_ms: f64,
    pub speedup: f64,
    /// When set (in the committed baseline), `check_against` fails any
    /// run of this stage whose speedup falls below the floor. No serde
    /// attribute: the offline derive shim treats any `skip*` ident as
    /// `#[serde(skip)]`, and the shim already reads a missing or `null`
    /// field as `None`, so old baselines stay parseable as-is.
    pub min_speedup: Option<f64>,
}

/// The full perf report, as committed to `BENCH_perf.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfReport {
    /// "quick" or "full" — reports are only comparable within a mode.
    pub mode: String,
    pub seed: u64,
    pub timings: Vec<Timing>,
    pub comparisons: Vec<Comparison>,
}

fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1000.0);
    }
    best
}

fn comparison(name: &str, work: String, before_ms: f64, after_ms: f64) -> Comparison {
    let speedup = if after_ms > 0.0 { before_ms / after_ms } else { f64::INFINITY };
    Comparison { name: name.to_string(), work, before_ms, after_ms, speedup, min_speedup: None }
}

/// Runs the full measurement pass.
pub fn run(opts: &PerfOptions) -> PerfReport {
    let (drugs, utterances_n, interactions, reps) =
        if opts.quick { (60, 300, 400, 3) } else { (150, 2000, 3000, 1) };
    let mut timings = Vec::new();
    let mut comparisons = Vec::new();

    // Stage: offline bootstrap (ontology + KB + conversation space).
    let t = Instant::now();
    let world = World::with_config(MdxDataConfig { drugs, seed: opts.seed });
    timings.push(Timing {
        name: "bootstrap".to_string(),
        work: format!("{drugs}-drug world"),
        ms: t.elapsed().as_secs_f64() * 1000.0,
    });

    // Stage: NLU construction (lexicon trie + classifier training as shipped).
    let t = Instant::now();
    let nlu = Nlu::from_space(&world.space, &world.onto, &world.kb, &world.mapping);
    timings.push(Timing {
        name: "nlu_build".to_string(),
        work: format!("{} training examples", world.space.training.len()),
        ms: t.elapsed().as_secs_f64() * 1000.0,
    });

    // Stage: annotation throughput — interned-token trie vs span-join scan
    // over the same simulated utterance workload.
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed ^ 0x7e5);
    let mut utterances: Vec<String> = Vec::with_capacity(utterances_n);
    while utterances.len() < utterances_n {
        for (intent, _) in INTENT_MIX {
            if let Some(u) = generate(intent, &world.pools, &mut rng) {
                utterances.push(u);
            }
        }
    }
    utterances.truncate(utterances_n);
    let lex = nlu.lexicon();
    for u in &utterances {
        assert_eq!(lex.annotate(u), lex.annotate_scan(u), "trie diverged from scan on {u:?}");
    }
    let before = best_of(reps, || {
        for u in &utterances {
            black_box(lex.annotate_scan(u));
        }
    });
    let after = best_of(reps, || {
        for u in &utterances {
            black_box(lex.annotate(u));
        }
    });
    let mut annotate = comparison("annotate", format!("{utterances_n} utterances"), before, after);
    annotate.min_speedup = Some(ANNOTATE_FLOOR);
    comparisons.push(annotate);

    // Stage: logistic-regression training — pre-vectorized CSR with
    // parallel one-vs-rest, vs the per-example re-featurising scan.
    let mut data = Dataset::new();
    for e in &world.space.training {
        if let Some(i) = world.space.intent(e.intent) {
            data.push(lex.mask(&e.text, &world.onto), i.name.clone());
        }
    }
    let config = LogRegConfig { seed: opts.seed, parallelism: 0, ..Default::default() };
    let before = best_of(reps, || {
        black_box(LogReg::train_scan(&data, config));
    });
    let after = best_of(reps, || {
        black_box(LogReg::train(&data, config));
    });
    let mut logreg = comparison(
        "logreg_train",
        format!("{} examples, {} epochs", data.len(), config.epochs),
        before,
        after,
    );
    logreg.min_speedup = Some(LOGREG_TRAIN_FLOOR);
    comparisons.push(logreg);

    // Stage: traffic replay — auto parallelism vs the single caller
    // thread. The outputs must be bit-for-bit identical. In quick mode
    // the replay sits under `AUTO_FORK_THRESHOLD`, so auto mode itself
    // chooses the sequential path and the comparison pins that choice
    // at ~1.0x (sharding small replays used to *lose* ~5% to fork and
    // thread overhead); the full profile is large enough to shard.
    let sim = |parallelism| SimConfig {
        interactions,
        seed: opts.seed,
        parallelism,
        ..SimConfig::default()
    };
    let mut seq_agent = world.agent();
    let t = Instant::now();
    let seq = run_traffic(&mut seq_agent.agent, &world.onto, &world.pools, sim(1));
    let before = t.elapsed().as_secs_f64() * 1000.0;
    let mut par_agent = world.agent();
    let t = Instant::now();
    let par = run_traffic(&mut par_agent.agent, &world.onto, &world.pools, sim(0));
    let after = t.elapsed().as_secs_f64() * 1000.0;
    assert_eq!(seq, par, "parallel replay diverged from sequential replay");
    comparisons.push(comparison("replay", format!("{interactions} interactions"), before, after));

    // Stage: cached replay — the NLU memo on vs off, both over the
    // agent's prepared fulfilment plans, across a repeated
    // fulfilment-heavy utterance mix (DESIGN.md §12). The committed
    // baseline carries a hard speedup floor for this stage, not just the
    // regression ceiling.
    let heavy_intents = [
        "Precautions of Drug",
        "Uses of Drug",
        "Adverse Effects of Drug",
        "Drugs That Treat Condition",
        "IV Compatibility of Drug",
        "Drug-Drug Interactions",
    ];
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed ^ 0xcac4e);
    let mix_n = 40;
    let mut mix: Vec<String> = Vec::with_capacity(mix_n);
    while mix.len() < mix_n {
        for intent in heavy_intents {
            if let Some(u) = generate(intent, &world.pools, &mut rng) {
                mix.push(u);
            }
        }
    }
    mix.truncate(mix_n);
    let rounds = if opts.quick { 6 } else { 10 };
    let cached_base = world.agent();
    let mut uncached_base = world.agent();
    uncached_base.agent.set_caching(false);
    // Caches must be value-invisible: identical replies turn for turn,
    // including the warm rounds.
    {
        let mut c = cached_base.agent.fork_session();
        let mut u = uncached_base.agent.fork_session();
        for _ in 0..2 {
            for utterance in &mix {
                assert_eq!(
                    c.respond(utterance),
                    u.respond(utterance),
                    "caching changed the reply to {utterance:?}"
                );
            }
        }
    }
    // One pre-created fork per repetition so log growth never skews the
    // later repetitions.
    let mut uncached_forks: Vec<_> =
        (0..reps).map(|_| uncached_base.agent.fork_session()).collect();
    let before = best_of(reps, || {
        let mut a = uncached_forks.pop().expect("one fork per rep");
        for _ in 0..rounds {
            for utterance in &mix {
                black_box(a.respond(utterance));
            }
        }
    });
    let mut cached_forks: Vec<_> = (0..reps).map(|_| cached_base.agent.fork_session()).collect();
    let after = best_of(reps, || {
        let mut a = cached_forks.pop().expect("one fork per rep");
        for _ in 0..rounds {
            for utterance in &mix {
                black_box(a.respond(utterance));
            }
        }
    });
    let mut cached_replay =
        comparison("cached_replay", format!("{mix_n} utterances x {rounds} rounds"), before, after);
    cached_replay.min_speedup = Some(CACHED_REPLAY_FLOOR);
    comparisons.push(cached_replay);

    // Stage group: the large-world scaling curve (DESIGN.md §14) —
    // point lookup, FK join and the served shapes at 150 / 1.5k / 15k
    // drugs, indexed vs scan twin, with `min_speedup` floors at the 15k
    // point.
    let scale = crate::scale::run(opts);
    timings.extend(scale.timings);
    comparisons.extend(scale.comparisons);

    // Stage group: the socket serving benchmark (DESIGN.md §15) — a
    // real server under the Table 5 load mix, byte-identity asserted
    // before timing; p50/p99 served-turn latency plus run wall time
    // (throughput) join the committed baseline.
    let serve = crate::serve::run(opts);
    timings.extend(serve.timings);

    // Stage group: the durability benchmark (DESIGN.md §16) — snapshot
    // write, WAL append, and kill-style recovery over a torn log, with
    // recovered-vs-original served replies asserted byte-identical
    // before any number counts.
    let recover = crate::recover::run(opts);
    timings.extend(recover.timings);
    comparisons.extend(recover.comparisons);

    PerfReport {
        mode: if opts.quick { "quick" } else { "full" }.to_string(),
        seed: opts.seed,
        timings,
        comparisons,
    }
}

impl PerfReport {
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("perf report serialises")
    }

    /// A fixed-width human rendering of the report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:<28} {:>12} {:>12} {:>9}\n",
            "stage", "work", "before(ms)", "after(ms)", "speedup"
        ));
        for t in &self.timings {
            out.push_str(&format!(
                "{:<14} {:<28} {:>12} {:>12.1} {:>9}\n",
                t.name, t.work, "-", t.ms, "-"
            ));
        }
        for c in &self.comparisons {
            out.push_str(&format!(
                "{:<14} {:<28} {:>12.1} {:>12.1} {:>8.1}x\n",
                c.name, c.work, c.before_ms, c.after_ms, c.speedup
            ));
        }
        out
    }

    /// Compares this run against a committed baseline report. Fails on a
    /// malformed baseline, a mode mismatch, a stage that disappeared, a
    /// stage the baseline lacks (it would run ungated), or any stage more
    /// than [`MAX_REGRESSION`]× slower than the baseline. Sub-millisecond
    /// baseline stages are clamped to 1 ms before the multiplier so
    /// timer jitter cannot trip the gate.
    pub fn check_against(&self, baseline: &PerfReport) -> Result<String, String> {
        if baseline.mode != self.mode {
            return Err(format!(
                "mode mismatch: baseline is {:?}, this run is {:?}",
                baseline.mode, self.mode
            ));
        }
        let ungated = self
            .timings
            .iter()
            .map(|t| &t.name)
            .find(|name| !baseline.timings.iter().any(|b| &b.name == *name))
            .or_else(|| {
                self.comparisons
                    .iter()
                    .map(|c| &c.name)
                    .find(|name| !baseline.comparisons.iter().any(|b| &b.name == *name))
            });
        if let Some(name) = ungated {
            return Err(format!("stage {name:?} has no baseline entry: commit one"));
        }
        let mut checked = 0usize;
        for b in &baseline.timings {
            let cur = self
                .timings
                .iter()
                .find(|t| t.name == b.name)
                .ok_or_else(|| format!("stage {:?} missing from this run", b.name))?;
            gate(&b.name, cur.ms, b.ms)?;
            checked += 1;
        }
        for b in &baseline.comparisons {
            let cur = self
                .comparisons
                .iter()
                .find(|c| c.name == b.name)
                .ok_or_else(|| format!("stage {:?} missing from this run", b.name))?;
            gate(&b.name, cur.after_ms, b.after_ms)?;
            if let Some(floor) = b.min_speedup {
                if cur.speedup < floor {
                    return Err(format!(
                        "stage {:?} speedup {:.2}x fell below the committed floor of {floor:.2}x",
                        b.name, cur.speedup
                    ));
                }
            }
            checked += 1;
        }
        Ok(format!("perf check passed: {checked} stages within {MAX_REGRESSION}x of baseline"))
    }

    /// A copy of this report keeping only stages whose name starts with
    /// `prefix`. `repro scale` uses this to run and check just the
    /// scaling-curve stages against the full committed baseline without
    /// tripping `check_against`'s missing-stage error on the rest.
    pub fn filtered(&self, prefix: &str) -> PerfReport {
        PerfReport {
            mode: self.mode.clone(),
            seed: self.seed,
            timings: self.timings.iter().filter(|t| t.name.starts_with(prefix)).cloned().collect(),
            comparisons: self
                .comparisons
                .iter()
                .filter(|c| c.name.starts_with(prefix))
                .cloned()
                .collect(),
        }
    }
}

fn gate(name: &str, current_ms: f64, baseline_ms: f64) -> Result<(), String> {
    let ceiling = baseline_ms.max(1.0) * MAX_REGRESSION;
    if current_ms > ceiling {
        return Err(format!(
            "stage {name:?} regressed: {current_ms:.1} ms vs baseline {baseline_ms:.1} ms \
             (ceiling {ceiling:.1} ms)"
        ));
    }
    Ok(())
}

/// Parses a committed `BENCH_perf.json`.
pub fn load_baseline(path: &str) -> Result<PerfReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("malformed {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(ms: f64) -> PerfReport {
        PerfReport {
            mode: "quick".to_string(),
            seed: 7,
            timings: vec![Timing { name: "bootstrap".into(), work: "w".into(), ms }],
            comparisons: vec![Comparison {
                name: "annotate".into(),
                work: "w".into(),
                before_ms: ms * 4.0,
                after_ms: ms,
                speedup: 4.0,
                min_speedup: None,
            }],
        }
    }

    #[test]
    fn json_roundtrip() {
        let r = report(10.0);
        let parsed: PerfReport = serde_json::from_str(&r.to_json()).expect("parses");
        assert_eq!(parsed.mode, "quick");
        assert_eq!(parsed.timings.len(), 1);
        assert_eq!(parsed.comparisons.len(), 1);
        assert!((parsed.comparisons[0].speedup - 4.0).abs() < 1e-12);
    }

    #[test]
    fn check_passes_within_ceiling() {
        let baseline = report(10.0);
        let current = report(40.0);
        assert!(current.check_against(&baseline).is_ok());
    }

    #[test]
    fn check_fails_past_ceiling() {
        let baseline = report(10.0);
        let current = report(60.0);
        let err = current.check_against(&baseline).expect_err("should fail");
        assert!(err.contains("regressed"), "{err}");
    }

    #[test]
    fn check_fails_on_mode_mismatch() {
        let baseline = report(10.0);
        let mut current = report(10.0);
        current.mode = "full".to_string();
        assert!(current.check_against(&baseline).is_err());
    }

    #[test]
    fn check_fails_on_missing_stage() {
        let baseline = report(10.0);
        let mut current = report(10.0);
        current.comparisons.clear();
        let err = current.check_against(&baseline).expect_err("should fail");
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn check_fails_on_a_stage_the_baseline_lacks() {
        let mut baseline = report(10.0);
        let current = report(10.0);
        baseline.comparisons.clear();
        let err = current.check_against(&baseline).expect_err("an ungated comparison");
        assert!(err.contains("no baseline"), "{err}");
        let mut baseline = report(10.0);
        baseline.timings.clear();
        let err = current.check_against(&baseline).expect_err("an ungated timing");
        assert!(err.contains("\"bootstrap\""), "{err}");
    }

    #[test]
    fn speedup_floor_from_the_baseline_is_enforced() {
        let mut baseline = report(10.0);
        baseline.comparisons[0].min_speedup = Some(2.0);
        // 4.0x current speedup clears a 2.0x floor.
        let current = report(10.0);
        assert!(current.check_against(&baseline).is_ok());
        // A run whose speedup collapsed below the floor fails even though
        // its absolute time is within the regression ceiling.
        let mut slow = report(10.0);
        slow.comparisons[0].before_ms = 15.0;
        slow.comparisons[0].speedup = 1.5;
        let err = slow.check_against(&baseline).expect_err("floor should trip");
        assert!(err.contains("floor"), "{err}");
        // min_speedup in the baseline survives a JSON round-trip, and its
        // absence stays absent (old baselines remain readable).
        let parsed: PerfReport = serde_json::from_str(&baseline.to_json()).expect("parses");
        assert_eq!(parsed.comparisons[0].min_speedup, Some(2.0));
        let bare: PerfReport = serde_json::from_str(&report(10.0).to_json()).expect("parses");
        assert_eq!(bare.comparisons[0].min_speedup, None);
    }

    #[test]
    fn filtered_keeps_only_matching_stages() {
        let mut r = report(10.0);
        r.timings.push(Timing { name: "scale_build_150".into(), work: "w".into(), ms: 5.0 });
        r.comparisons.push(Comparison {
            name: "scale_point_lookup_150".into(),
            work: "w".into(),
            before_ms: 10.0,
            after_ms: 1.0,
            speedup: 10.0,
            min_speedup: None,
        });
        let f = r.filtered("scale_");
        assert_eq!(f.timings.len(), 1);
        assert_eq!(f.comparisons.len(), 1);
        assert_eq!(f.comparisons[0].name, "scale_point_lookup_150");
        // A scale-only run checks cleanly against a filtered baseline.
        assert!(f.check_against(&r.filtered("scale_")).is_ok());
        // …but the full baseline would demand the missing stages.
        assert!(f.check_against(&r).is_err());
    }

    #[test]
    fn sub_millisecond_baselines_are_clamped() {
        // 0.01 ms baseline with a 0.9 ms current run: 90x the raw ratio,
        // but under the 1 ms clamp it must pass.
        assert!(gate("fast", 0.9, 0.01).is_ok());
    }

    #[test]
    fn malformed_baseline_is_an_error() {
        assert!(load_baseline("/nonexistent/BENCH_perf.json").is_err());
    }
}
