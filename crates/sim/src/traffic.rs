//! The 7-month traffic replay (paper §7.2): simulated users drawn from the
//! published intent mix interact with the agent; a calibrated feedback
//! model attaches thumbs up/down the way the paper observed real users
//! doing (negative feedback credible, positive rare, occasional
//! accidental taps).
//!
//! ## Sharded replay and the determinism contract
//!
//! Replay is the expensive side of regenerating the paper's Table 5 /
//! Fig. 11–12 statistics, so it shards across threads. The unit of work is
//! the *session* (a run of interactions sharing agent context):
//!
//! 1. session boundaries are planned up front from a dedicated RNG stream
//!    (they depend only on `seed` and `mean_session_length`, never on what
//!    happens inside an interaction);
//! 2. every session draws its randomness from its own `ChaCha8Rng`,
//!    derived from `(seed, first interaction index)`;
//! 3. whole sessions are assigned to shards in contiguous, interaction-
//!    balanced chunks; each shard replays its sessions on a
//!    [`ConversationAgent::fork_session`] fork sharing the trained NLU via
//!    `Arc`; records are concatenated in shard order.
//!
//! Because sessions are atomic and self-seeded, the record sequence is
//! **bit-for-bit identical for every `parallelism` value** (a test
//! enforces `parallelism = N` ≡ `parallelism = 1`). `parallelism = 1`
//! replays every session on the caller's thread and agent — no forks, no
//! threads.

use std::sync::Arc;

use obcs_agent::{ConversationAgent, Feedback, ReplyKind};
use obcs_ontology::Ontology;
use obcs_telemetry::{CollectingRecorder, Recorder, TraceReport};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::noise;
use crate::utterance::{generate, ValuePools};

/// The intent mix of the simulated traffic, in relative weights. The
/// top-10 weights are the usage column of the paper's Table 5; the tail is
/// split across the remaining intents.
pub const INTENT_MIX: &[(&str, f64)] = &[
    ("Drug Dosage for Condition", 150.0),
    ("Administration of Drug", 120.0),
    ("IV Compatibility of Drug", 110.0),
    ("Drugs That Treat Condition", 100.0),
    ("Uses of Drug", 90.0),
    ("Adverse Effects of Drug", 50.0),
    ("Drug-Drug Interactions", 40.0),
    ("DRUG_GENERAL", 40.0),
    ("Dose Adjustments for Drug", 30.0),
    ("Regulatory Status for Drug", 20.0),
    ("Pharmacokinetics", 30.0),
    ("Precautions of Drug", 25.0),
    ("Risks of Drug", 15.0),
    ("Dosages of Drug", 15.0),
    ("Toxicology of Drug", 10.0),
    ("Monitoring of Drug", 10.0),
    ("Mechanism of Action of Drug", 10.0),
    ("Conditions Treated by Drug", 10.0),
    ("Drugs That May Cause Condition", 5.0),
    ("Conditions May Be Caused By Drug", 5.0),
    ("Drugs and Dosage for Condition", 5.0),
    ("Drug Toxicology for Condition", 3.0),
    ("Drugs and Toxicology for Condition", 2.0),
    ("Greeting", 20.0),
    ("Appreciation", 20.0),
    ("Acknowledgement", 12.0),
    ("Affirmation", 10.0),
    ("Disconfirmation", 8.0),
    ("Closing", 15.0),
    ("Help Request", 6.0),
    ("Repeat Request", 3.0),
    ("Definition Request", 5.0),
    ("Paraphrase Request", 3.0),
    ("Abort", 3.0),
    ("Capability Check", 3.0),
    ("Chitchat", 7.0),
];

/// The feedback behaviour of simulated users (§7.2 observations).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FeedbackModel {
    /// P(thumbs down | interaction went wrong).
    pub p_down_given_wrong: f64,
    /// P(accidental thumbs down | interaction was fine).
    pub p_down_accidental: f64,
    /// P(thumbs up | interaction was fine) — rare, per the paper.
    pub p_up_given_right: f64,
}

impl Default for FeedbackModel {
    fn default() -> Self {
        FeedbackModel { p_down_given_wrong: 0.45, p_down_accidental: 0.004, p_up_given_right: 0.03 }
    }
}

/// Traffic-simulation configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of user interactions (logical requests, possibly multi-turn).
    pub interactions: usize,
    pub seed: u64,
    /// Probability an utterance gets a misspelling.
    pub misspell_rate: f64,
    /// Probability a domain utterance is reduced to keyword style.
    pub keyword_rate: f64,
    /// Probability of a gibberish interaction ("apfjhd").
    pub gibberish_rate: f64,
    /// Mean number of requests per session (geometric). 1.0 = every
    /// interaction starts a fresh conversation; larger values keep the
    /// persistent context alive across requests, as the paper's real
    /// sessions do (§6.3: treatment → definition → dosage in one session).
    pub mean_session_length: f64,
    pub feedback: FeedbackModel,
    /// Replay shard threads: `1` runs every session sequentially on the
    /// caller's thread and agent, `N` uses `N` threads, and `0` ("auto")
    /// uses one thread per available core — but only once the replay is
    /// at least [`AUTO_FORK_THRESHOLD`] interactions, because forking
    /// per-shard agents and spawning threads costs more than it saves on
    /// small replays. The produced record sequence is identical for
    /// every value (see the module docs).
    pub parallelism: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            interactions: 5000,
            seed: 20200614,
            misspell_rate: 0.04,
            keyword_rate: 0.05,
            gibberish_rate: 0.006,
            mean_session_length: 1.0,
            feedback: FeedbackModel::default(),
            parallelism: 1,
        }
    }
}

/// One simulated interaction with its ground truth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimRecord {
    /// The intent the simulated user had in mind (`None` for gibberish).
    pub expected_intent: Option<String>,
    /// The (possibly noisy) first utterance.
    pub utterance: String,
    /// The intent the system detected on the final reply.
    pub detected_intent: Option<String>,
    pub reply_kind: ReplyKind,
    /// Ground truth: did the agent do the right thing (SME view)?
    pub correct: bool,
    pub feedback: Option<Feedback>,
    /// Total user turns the interaction took (1 + elicitation answers).
    pub turns: usize,
}

/// The traffic-simulation outcome.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimOutcome {
    pub records: Vec<SimRecord>,
}

impl SimOutcome {
    /// Overall success rate per the paper's Equation 1 (user feedback).
    pub fn success_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let negative =
            self.records.iter().filter(|r| r.feedback == Some(Feedback::ThumbsDown)).count();
        (self.records.len() - negative) as f64 / self.records.len() as f64
    }

    /// Ground-truth accuracy (share of interactions the SME would mark
    /// positive).
    pub fn accuracy(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.correct).count() as f64 / self.records.len() as f64
    }
}

/// Below this interaction count, auto parallelism (`parallelism = 0`)
/// replays sequentially instead of forking shards: cloning per-shard
/// agent forks and spawning threads is fixed overhead that a small
/// replay never amortises (the quick perf profile measured sharded
/// replay *slower* than sequential at 400 interactions). An explicit
/// `parallelism = N` is always honoured — the threshold only gates the
/// automatic choice.
pub const AUTO_FORK_THRESHOLD: usize = 1_000;

/// The shard-thread count a replay will actually use: explicit
/// `parallelism = N` verbatim, auto (`0`) resolves to the core count
/// once the replay clears [`AUTO_FORK_THRESHOLD`] interactions and to
/// `1` below it, and everything is capped by the session count (a shard
/// needs at least one whole session).
pub fn planned_threads(config: &SimConfig, session_count: usize) -> usize {
    let requested = match config.parallelism {
        0 if config.interactions < AUTO_FORK_THRESHOLD => 1,
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        n => n,
    };
    requested.min(session_count.max(1))
}

/// A planned session: `len` consecutive interactions starting at global
/// interaction index `start`, sharing agent context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Session {
    start: usize,
    len: usize,
}

/// Draws the session boundaries for a configuration. Uses a dedicated RNG
/// stream so the plan depends only on the config, never on interaction
/// outcomes — the property that makes whole sessions relocatable across
/// shards.
fn plan_sessions(config: &SimConfig) -> Vec<Session> {
    // P(session continues) under a geometric session-length model.
    let p_continue = if config.mean_session_length <= 1.0 {
        0.0
    } else {
        1.0 - 1.0 / config.mean_session_length
    };
    let mut rng = ChaCha8Rng::seed_from_u64(splitmix64(config.seed ^ 0x5e55_10b0));
    let mut sessions: Vec<Session> = Vec::new();
    for i in 0..config.interactions {
        if i > 0 && rng.gen_bool(p_continue) {
            sessions.last_mut().expect("first interaction opened a session").len += 1;
        } else {
            sessions.push(Session { start: i, len: 1 });
        }
    }
    sessions
}

/// SplitMix64 finaliser — decorrelates per-session seeds derived from the
/// master seed and the session's start index.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The session's private randomness, derived from the master seed and the
/// session's first interaction index.
fn session_rng(seed: u64, session: &Session) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(splitmix64(seed ^ splitmix64(session.start as u64 + 1)))
}

/// Replays one session: resets the agent, then runs its interactions in
/// order, appending records to `out`.
fn run_session(
    agent: &mut ConversationAgent,
    onto: &Ontology,
    pools: &ValuePools,
    config: &SimConfig,
    session: &Session,
    total_weight: f64,
    out: &mut Vec<SimRecord>,
) {
    agent.reset();
    let mut rng = session_rng(config.seed, session);
    for _ in 0..session.len {
        let record = if rng.gen_bool(config.gibberish_rate) {
            run_gibberish(agent, &mut rng)
        } else {
            let expected = draw_intent(&mut rng, total_weight);
            run_interaction(agent, onto, pools, expected, *config, &mut rng)
        };
        // Feedback model.
        let feedback = if record.correct {
            if rng.gen_bool(config.feedback.p_down_accidental) {
                Some(Feedback::ThumbsDown)
            } else if rng.gen_bool(config.feedback.p_up_given_right) {
                Some(Feedback::ThumbsUp)
            } else {
                None
            }
        } else if rng.gen_bool(config.feedback.p_down_given_wrong) {
            Some(Feedback::ThumbsDown)
        } else {
            None
        };
        if let Some(fb) = feedback {
            agent.feedback(fb);
        }
        out.push(SimRecord { feedback, ..record });
    }
}

/// Splits the session plan into at most `shards` contiguous chunks,
/// balanced by interaction count.
fn partition_sessions(sessions: &[Session], shards: usize) -> Vec<&[Session]> {
    let total: usize = sessions.iter().map(|s| s.len).sum();
    let mut chunks = Vec::with_capacity(shards);
    let mut begin = 0usize;
    let mut done = 0usize;
    for shard in 0..shards {
        if begin >= sessions.len() {
            break;
        }
        // Even share of the interactions still unassigned.
        let target = (total - done).div_ceil(shards - shard);
        let mut end = begin;
        let mut taken = 0usize;
        while end < sessions.len() && (taken < target || end == begin) {
            taken += sessions[end].len;
            end += 1;
        }
        chunks.push(&sessions[begin..end]);
        begin = end;
        done += taken;
    }
    chunks
}

/// How a traced replay measures span durations (DESIGN.md §10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TraceMode {
    /// No tracing: the replay runs through the agent's installed recorder
    /// (the zero-cost no-op by default).
    #[default]
    Off,
    /// Deterministic tick clock: traces are bit-for-bit identical across
    /// runs, machines, and `parallelism` values.
    Ticks,
    /// Wall-clock nanoseconds: real latencies, machine-dependent.
    Wall,
}

impl TraceMode {
    fn recorder(self) -> Option<Arc<CollectingRecorder>> {
        match self {
            TraceMode::Off => None,
            TraceMode::Ticks => Some(Arc::new(CollectingRecorder::ticks())),
            TraceMode::Wall => Some(Arc::new(CollectingRecorder::wall())),
        }
    }
}

/// Runs the traffic simulation against an assembled agent, sharding whole
/// sessions across `config.parallelism` threads. The record sequence is
/// identical for every parallelism value (see the module docs).
pub fn run_traffic(
    agent: &mut ConversationAgent,
    onto: &Ontology,
    pools: &ValuePools,
    config: SimConfig,
) -> SimOutcome {
    run_traffic_traced(agent, onto, pools, config, TraceMode::Off).0
}

/// Like [`run_traffic`], optionally collecting a telemetry trace of every
/// replayed turn. With `TraceMode::Off` the second element is `None` and
/// the replay is exactly [`run_traffic`]. Otherwise each shard records
/// into its own [`CollectingRecorder`] (per-shard tick clocks start at
/// zero) and the per-shard reports are merged in shard order — which
/// equals session order — so under [`TraceMode::Ticks`] the merged report
/// is identical for every `parallelism` value (a test enforces it).
pub fn run_traffic_traced(
    agent: &mut ConversationAgent,
    onto: &Ontology,
    pools: &ValuePools,
    config: SimConfig,
    mode: TraceMode,
) -> (SimOutcome, Option<TraceReport>) {
    let total_weight: f64 = INTENT_MIX.iter().map(|&(_, w)| w).sum();
    let sessions = plan_sessions(&config);
    let threads = planned_threads(&config, sessions.len());

    if threads <= 1 {
        // Install the collecting recorder on the caller's agent for the
        // duration of the replay, restoring whatever was there before.
        let recorder = mode.recorder();
        let prev = recorder.as_ref().map(|rec| {
            let prev = agent.recorder();
            agent.set_recorder(Arc::clone(rec) as Arc<dyn Recorder>);
            prev
        });
        let mut records = Vec::with_capacity(config.interactions);
        for session in &sessions {
            run_session(agent, onto, pools, &config, session, total_weight, &mut records);
        }
        if let Some(prev) = prev {
            agent.set_recorder(prev);
        }
        return (SimOutcome { records }, recorder.map(|rec| rec.take_report()));
    }

    let chunks = partition_sessions(&sessions, threads);
    // Forks share the trained NLU via `Arc`; each shard owns its fork and
    // (when tracing) its own recorder — the open-span stack is logically
    // single-threaded, so recorders are never shared across shards.
    let mut recorders: Vec<Arc<CollectingRecorder>> = Vec::new();
    let forks: Vec<ConversationAgent> = chunks
        .iter()
        .map(|_| {
            let mut fork = agent.fork_session();
            if let Some(rec) = mode.recorder() {
                fork.set_recorder(Arc::clone(&rec) as Arc<dyn Recorder>);
                recorders.push(rec);
            }
            fork
        })
        .collect();
    let shard_records: Vec<Vec<SimRecord>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .zip(forks)
            .map(|(chunk, mut shard_agent)| {
                let config = &config;
                scope.spawn(move || {
                    let mut records = Vec::new();
                    for session in *chunk {
                        run_session(
                            &mut shard_agent,
                            onto,
                            pools,
                            config,
                            session,
                            total_weight,
                            &mut records,
                        );
                    }
                    records
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("replay shard panicked")).collect()
    });
    let report = (mode != TraceMode::Off)
        .then(|| TraceReport::merge(recorders.iter().map(|rec| rec.take_report()).collect()));
    (SimOutcome { records: shard_records.into_iter().flatten().collect() }, report)
}

pub(crate) fn draw_intent(rng: &mut ChaCha8Rng, total_weight: f64) -> &'static str {
    let mut x = rng.gen_range(0.0..total_weight);
    for (name, w) in INTENT_MIX {
        if x < *w {
            return name;
        }
        x -= w;
    }
    INTENT_MIX.last().expect("mix non-empty").0
}

fn run_gibberish(agent: &mut ConversationAgent, rng: &mut ChaCha8Rng) -> SimRecord {
    let utterance = noise::gibberish(rng);
    let reply = agent.respond(&utterance);
    SimRecord {
        expected_intent: None,
        utterance,
        detected_intent: None,
        reply_kind: reply.kind,
        // Meaningless input is a negative interaction in the SME review
        // (§7.2), regardless of the agent's graceful fallback.
        correct: false,
        feedback: None,
        turns: 1,
    }
}

fn run_interaction(
    agent: &mut ConversationAgent,
    onto: &Ontology,
    pools: &ValuePools,
    expected: &str,
    config: SimConfig,
    rng: &mut ChaCha8Rng,
) -> SimRecord {
    let clean = generate(expected, pools, rng)
        .unwrap_or_else(|| panic!("no templates for intent `{expected}`"));
    let is_management = is_management_intent(expected);
    let mut utterance = clean;
    if !is_management && rng.gen_bool(config.keyword_rate) {
        utterance = noise::keywordize(&utterance);
    }
    if rng.gen_bool(config.misspell_rate) {
        utterance = noise::misspell(&utterance, rng);
    }

    let mut reply = agent.respond(&utterance);
    let mut turns = 1;
    // Answer elicitations the way a cooperative user would (Fig. 10b).
    while reply.kind == ReplyKind::Elicitation && turns < 4 {
        let answer = match agent.context().eliciting {
            Some(concept) => match onto.concept_name(concept) {
                "AgeGroup" => pools.ages[rng.gen_range(0..pools.ages.len())].clone(),
                "Condition" => pools.conditions[rng.gen_range(0..pools.conditions.len())].clone(),
                "Drug" => pools.drugs[rng.gen_range(0..pools.drugs.len())].clone(),
                _ => "adult".to_string(),
            },
            None => "adult".to_string(),
        };
        reply = agent.respond(&answer);
        turns += 1;
    }

    let detected_intent =
        reply.intent.and_then(|id| agent.space().intent(id)).map(|i| i.name.clone());
    let correct = judge(expected, &detected_intent, &reply);
    SimRecord {
        expected_intent: Some(expected.to_string()),
        utterance,
        detected_intent,
        reply_kind: reply.kind,
        correct,
        feedback: None,
        turns,
    }
}

/// Ground-truth judgement of one interaction (the SME criterion of §7.2):
/// the agent must have done the semantically right thing for the user's
/// actual request.
pub fn judge(expected: &str, detected: &Option<String>, reply: &obcs_agent::AgentReply) -> bool {
    if expected == "DRUG_GENERAL" {
        return reply.kind == ReplyKind::Proposal;
    }
    if is_management_intent(expected) {
        return match expected {
            "Closing" => reply.kind == ReplyKind::Closing,
            // "no" with no pending proposal legitimately closes.
            "Disconfirmation" => {
                matches!(reply.kind, ReplyKind::Management | ReplyKind::Closing)
            }
            _ => reply.kind == ReplyKind::Management,
        };
    }
    // A fulfilment of the right intent is correct even when the KB has no
    // recorded content for the specific combination ("no results found" is
    // a faithful answer); wrong-intent fulfilments and non-fulfilments are
    // errors. Some intent pairs answer the same user need from different
    // pattern shapes and count as equivalent.
    if reply.kind != ReplyKind::Fulfilment {
        return false;
    }
    let Some(det) = detected.as_deref() else {
        return false;
    };
    det == expected
        || EQUIVALENT
            .iter()
            .any(|&(a, b)| (a == expected && b == det) || (b == expected && a == det))
}

/// Intent pairs that fulfil the same user need (a bare dosage request is
/// answered correctly whether it is routed through the drug-scoped or the
/// condition-scoped dosage intent).
const EQUIVALENT: &[(&str, &str)] = &[
    ("Dosages of Drug", "Drug Dosage for Condition"),
    ("Toxicology of Drug", "Drug Toxicology for Condition"),
    ("Drugs and Dosage for Condition", "Drugs That Treat Condition"),
    ("Drugs and Toxicology for Condition", "Drug Toxicology for Condition"),
];

/// Whether an intent is conversation management (by the MDX intent names).
pub fn is_management_intent(name: &str) -> bool {
    obcs_mdx::sme::MANAGEMENT_INTENTS.iter().any(|&(n, _)| n == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obcs_mdx::data::MdxDataConfig;
    use obcs_mdx::ConversationalMdx;

    fn small_sim(interactions: usize, seed: u64) -> SimOutcome {
        let (onto, kb, _, _) =
            ConversationalMdx::bootstrap_space(MdxDataConfig { drugs: 80, seed: 7 });
        let pools = ValuePools::from_kb(&kb);
        let mut mdx = ConversationalMdx::with_config(MdxDataConfig { drugs: 80, seed: 7 });
        run_traffic(
            &mut mdx.agent,
            &onto,
            &pools,
            SimConfig { interactions, seed, ..SimConfig::default() },
        )
    }

    #[test]
    fn traffic_runs_and_mostly_succeeds() {
        let outcome = small_sim(300, 1);
        assert_eq!(outcome.records.len(), 300);
        let acc = outcome.accuracy();
        assert!(acc > 0.7, "ground-truth accuracy too low: {acc}");
        let sr = outcome.success_rate();
        assert!(sr > 0.9, "user-feedback success rate too low: {sr}");
        assert!(sr > acc, "thumbs-down is sparser than true errors");
    }

    #[test]
    fn traffic_is_deterministic() {
        let a = small_sim(100, 5);
        let b = small_sim(100, 5);
        let ka: Vec<&str> = a.records.iter().map(|r| r.utterance.as_str()).collect();
        let kb_: Vec<&str> = b.records.iter().map(|r| r.utterance.as_str()).collect();
        assert_eq!(ka, kb_);
        assert_eq!(a.success_rate(), b.success_rate());
    }

    #[test]
    fn mix_covers_all_intents() {
        let (_, _, _, space) =
            ConversationalMdx::bootstrap_space(MdxDataConfig { drugs: 80, seed: 7 });
        for (name, _) in INTENT_MIX {
            assert!(space.intent_by_name(name).is_some(), "mix references unknown intent `{name}`");
        }
        assert_eq!(INTENT_MIX.len(), 36);
    }

    #[test]
    fn elicitation_followups_happen() {
        let outcome = small_sim(300, 2);
        assert!(
            outcome.records.iter().any(|r| r.turns > 1),
            "some interactions should need elicitation follow-ups"
        );
    }

    #[test]
    fn multi_request_sessions_still_mostly_succeed() {
        let (onto, kb, _, _) =
            ConversationalMdx::bootstrap_space(MdxDataConfig { drugs: 80, seed: 7 });
        let pools = ValuePools::from_kb(&kb);
        let mut mdx = ConversationalMdx::with_config(MdxDataConfig { drugs: 80, seed: 7 });
        let outcome = run_traffic(
            &mut mdx.agent,
            &onto,
            &pools,
            SimConfig {
                interactions: 300,
                seed: 21,
                mean_session_length: 3.0,
                ..SimConfig::default()
            },
        );
        // Persistent context across requests costs a little accuracy
        // (stale entities can leak between topics) but the system must
        // stay in a usable band.
        assert!(outcome.accuracy() > 0.6, "accuracy {}", outcome.accuracy());
        assert!(outcome.success_rate() > 0.85, "rate {}", outcome.success_rate());
    }

    fn traced_sim(interactions: usize, seed: u64, parallelism: usize) -> (SimOutcome, TraceReport) {
        let (onto, kb, _, _) =
            ConversationalMdx::bootstrap_space(MdxDataConfig { drugs: 80, seed: 7 });
        let pools = ValuePools::from_kb(&kb);
        let mut mdx = ConversationalMdx::with_config(MdxDataConfig { drugs: 80, seed: 7 });
        let (outcome, report) = run_traffic_traced(
            &mut mdx.agent,
            &onto,
            &pools,
            SimConfig { interactions, seed, parallelism, ..SimConfig::default() },
            TraceMode::Ticks,
        );
        (outcome, report.expect("tracing was on"))
    }

    #[test]
    fn traced_replay_collects_turn_spans() {
        let (outcome, report) = traced_sim(60, 11, 1);
        assert_eq!(report.unit, "ticks");
        // One turn span per user turn replayed (interactions plus
        // elicitation answers).
        let turns: usize = outcome.records.iter().map(|r| r.turns).sum();
        assert_eq!(report.stages["turn"].count, turns as u64);
        assert_eq!(report.counters[&("turns".into(), String::new())], turns as u64);
        for stage in ["annotate", "classify", "dialogue_eval"] {
            assert!(report.stages.contains_key(stage), "missing stage {stage}");
        }
        obcs_telemetry::validate_jsonl(&report.to_jsonl()).expect("well-formed trace");
    }

    #[test]
    fn traced_replay_is_deterministic_at_any_parallelism() {
        // Two identical traced replays → identical reports; and the merged
        // sharded report equals the sequential one bit for bit (per-shard
        // tick clocks start at zero and sessions are atomic).
        let (outcome1, sequential) = traced_sim(80, 13, 1);
        let (outcome2, again) = traced_sim(80, 13, 1);
        assert_eq!(outcome1, outcome2);
        assert_eq!(sequential, again);
        for parallelism in [3, 0] {
            let (outcome_p, sharded) = traced_sim(80, 13, parallelism);
            assert_eq!(outcome1, outcome_p, "records differ at parallelism {parallelism}");
            assert_eq!(sequential, sharded, "trace differs at parallelism {parallelism}");
            assert_eq!(sequential.to_jsonl(), sharded.to_jsonl());
        }
    }

    #[test]
    fn untraced_replay_returns_no_report() {
        let (onto, kb, _, _) =
            ConversationalMdx::bootstrap_space(MdxDataConfig { drugs: 80, seed: 7 });
        let pools = ValuePools::from_kb(&kb);
        let mut mdx = ConversationalMdx::with_config(MdxDataConfig { drugs: 80, seed: 7 });
        let (_, report) = run_traffic_traced(
            &mut mdx.agent,
            &onto,
            &pools,
            SimConfig { interactions: 20, seed: 1, ..SimConfig::default() },
            TraceMode::Off,
        );
        assert!(report.is_none());
    }

    #[test]
    fn auto_parallelism_stays_sequential_below_the_fork_threshold() {
        let small = SimConfig { interactions: AUTO_FORK_THRESHOLD - 1, ..SimConfig::default() };
        // parallelism = 0 on a small replay: no forks, no threads.
        let auto_small = SimConfig { parallelism: 0, ..small };
        assert_eq!(planned_threads(&auto_small, 500), 1);
        // Above the threshold auto mode shards (given enough sessions
        // and more than one core; single-core machines stay at 1).
        let auto_big =
            SimConfig { interactions: AUTO_FORK_THRESHOLD, parallelism: 0, ..SimConfig::default() };
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(planned_threads(&auto_big, 10_000), cores);
        // An explicit request is always honoured, threshold or not.
        let explicit = SimConfig { parallelism: 3, ..small };
        assert_eq!(planned_threads(&explicit, 500), 3);
        // The session count caps everything: a shard replays whole
        // sessions, so there is never a thread without one.
        assert_eq!(planned_threads(&explicit, 2), 2);
        assert_eq!(planned_threads(&auto_big, 1), 1);
    }

    #[test]
    fn gibberish_interactions_are_negative_ground_truth() {
        let outcome = small_sim(600, 3);
        let gibberish: Vec<&SimRecord> =
            outcome.records.iter().filter(|r| r.expected_intent.is_none()).collect();
        assert!(!gibberish.is_empty(), "gibberish rate should produce some");
        assert!(gibberish.iter().all(|r| !r.correct));
    }
}
