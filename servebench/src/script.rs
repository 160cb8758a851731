//! Deterministic request scripts: which simulated clinician says what,
//! in which order, with which answers ready for elicitation prompts.
//!
//! A script is fixed before the server starts: the same workload, seed
//! and request count always give the same bytes (see [`Script::encode`]).
//! Only the number of elicitation follow-ups a request needs depends on
//! the replies, so every possible answer is drawn up front.

use std::collections::BTreeMap;

use obcs_sim::noise;
use obcs_sim::traffic::{is_management_intent, SimConfig, INTENT_MIX};
use obcs_sim::utterance::{generate, ValuePools};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::workload::Workload;

/// Elicitation prompts one request answers at most (the `obcs_sim::load`
/// client answers two before it gives up).
pub const MAX_FOLLOWUPS: usize = 2;

/// Stream tag for session boundaries.
const PLAN_STREAM: u64 = 0x5e55_10b0;

/// Stream tag for the correctness gate's session sample.
const GATE_STREAM: u64 = 0x6a7e;

/// Share of a script's requests the correctness gate replays in-process.
const GATE_PERMILLE: usize = 100;

/// Answers ready for one elicitation prompt, one per kind of prompt.
#[derive(Debug, Clone, PartialEq)]
pub struct Answers {
    pub age: String,
    pub condition: String,
    pub drug: String,
}

/// One simulated request: an utterance plus its elicitation follow-ups.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub session: u32,
    /// Position of the request within its session.
    pub index: u32,
    /// The intent the clinician means; `None` for gibberish.
    pub expected: Option<&'static str>,
    pub utterance: String,
    pub answers: [Answers; MAX_FOLLOWUPS],
}

#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    Ask(Request),
    /// The clinician leaves: the client sends `End` for the session.
    End(u32),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    pub steps: Vec<Step>,
    pub sessions: u32,
    pub requests: usize,
}

/// The session id a script session travels under on the wire.
pub fn session_id(session: u32) -> String {
    format!("s{session}")
}

/// SplitMix64 finaliser, the seed-derivation scheme `obcs-sim` uses.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The session's private randomness, so a session's content does not
/// depend on how sessions interleave.
fn session_rng(seed: u64, session: u32) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(splitmix64(seed ^ splitmix64(u64::from(session) + 1)))
}

/// A weighted draw over the Table 5 intent mix ([`INTENT_MIX`]).
pub fn draw_intent(rng: &mut ChaCha8Rng, total_weight: f64) -> &'static str {
    let mut x = rng.gen_range(0.0..total_weight);
    for (name, weight) in INTENT_MIX {
        if x < *weight {
            return name;
        }
        x -= weight;
    }
    INTENT_MIX.last().expect("the intent mix is not empty").0
}

/// The answer to an elicitation prompt, chosen from its text the way the
/// `obcs_sim::load` client chooses: a remote client cannot see which
/// concept the engine is eliciting.
pub fn answer<'a>(prompt: &str, answers: &'a Answers) -> &'a str {
    let lower = prompt.to_lowercase();
    if lower.contains("age") {
        &answers.age
    } else if lower.contains("condition") {
        &answers.condition
    } else if lower.contains("drug") || lower.contains("medication") {
        &answers.drug
    } else {
        "adult"
    }
}

fn pick(values: &[String], rng: &mut ChaCha8Rng) -> String {
    values[rng.gen_range(0..values.len())].clone()
}

/// One request with simulator noise at the `SimConfig` default rates.
fn draw_request(
    session: u32,
    index: u32,
    rng: &mut ChaCha8Rng,
    pools: &ValuePools,
    total_weight: f64,
) -> Request {
    let rates = SimConfig::default();
    let (expected, utterance) = if rng.gen_bool(rates.gibberish_rate) {
        (None, noise::gibberish(rng))
    } else {
        let intent = draw_intent(rng, total_weight);
        let mut utterance =
            generate(intent, pools, rng).expect("every intent in the mix has utterance templates");
        if !is_management_intent(intent) && rng.gen_bool(rates.keyword_rate) {
            utterance = noise::keywordize(&utterance);
        }
        if rng.gen_bool(rates.misspell_rate) {
            utterance = noise::misspell(&utterance, rng);
        }
        (Some(intent), utterance)
    };
    let answers = [(); MAX_FOLLOWUPS].map(|_| Answers {
        age: pick(&pools.ages, rng),
        condition: pick(&pools.conditions, rng),
        drug: pick(&pools.drugs, rng),
    });
    Request { session, index, expected, utterance, answers }
}

struct Seat {
    session: u32,
    rng: ChaCha8Rng,
    asked: u32,
    remaining: usize,
}

impl Script {
    /// `requests` requests from `workload.users` clinicians taking turns
    /// round-robin. A clinician whose session has run its length sends
    /// `End`, and a new clinician opens a session in the seat.
    pub fn build(workload: &Workload, seed: u64, requests: usize, pools: &ValuePools) -> Script {
        let total_weight: f64 = INTENT_MIX.iter().map(|(_, w)| w).sum();
        let p_continue = workload.mean_session.map(|mean| 1.0 - 1.0 / mean);
        let mut plan = ChaCha8Rng::seed_from_u64(splitmix64(seed ^ PLAN_STREAM));
        let mut seats: Vec<Option<Seat>> = (0..workload.users).map(|_| None).collect();
        let mut steps = Vec::with_capacity(requests + requests / 2);
        let mut sessions = 0u32;
        for i in 0..requests {
            let seat = &mut seats[i % workload.users];
            if seat.as_ref().is_none_or(|s| s.remaining == 0) {
                if let Some(done) = seat.take() {
                    steps.push(Step::End(done.session));
                }
                let length = match p_continue {
                    Some(p) => {
                        let mut n = 1;
                        while plan.gen_bool(p) {
                            n += 1;
                        }
                        n
                    }
                    None => usize::MAX,
                };
                *seat = Some(Seat {
                    session: sessions,
                    rng: session_rng(seed, sessions),
                    asked: 0,
                    remaining: length,
                });
                sessions += 1;
            }
            let s = seat.as_mut().expect("the seat was just filled");
            steps.push(Step::Ask(draw_request(
                s.session,
                s.asked,
                &mut s.rng,
                pools,
                total_weight,
            )));
            s.asked += 1;
            s.remaining -= 1;
        }
        steps.extend(seats.into_iter().flatten().map(|s| Step::End(s.session)));
        Script { steps, sessions, requests }
    }

    /// A canonical text encoding: two scripts are the same input exactly
    /// when their encodings are equal.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for step in &self.steps {
            match step {
                Step::Ask(r) => {
                    out.push_str(&format!(
                        "ask\t{}\t{}\t{}\t{}",
                        r.session,
                        r.index,
                        r.expected.unwrap_or("-"),
                        r.utterance
                    ));
                    for a in &r.answers {
                        out.push_str(&format!("\t{}|{}|{}", a.age, a.condition, a.drug));
                    }
                    out.push('\n');
                }
                Step::End(session) => out.push_str(&format!("end\t{session}\n")),
            }
        }
        out
    }
}

/// The sessions whose served replies the correctness gate replays
/// in-process, and how many of each session's leading requests it
/// replays. A prefix replays exactly: a session's replies depend only on
/// its own earlier turns.
#[derive(Debug, Clone, PartialEq)]
pub struct GateSample {
    prefix: BTreeMap<u32, u32>,
}

impl GateSample {
    /// Sessions in a seed-keyed order, until about a tenth of the
    /// script's requests are covered.
    pub fn choose(script: &Script, seed: u64) -> GateSample {
        let mut lengths: BTreeMap<u32, u32> = BTreeMap::new();
        for step in &script.steps {
            if let Step::Ask(r) = step {
                *lengths.entry(r.session).or_insert(0) += 1;
            }
        }
        let mut order: Vec<u32> = lengths.keys().copied().collect();
        order.sort_by_key(|&s| splitmix64(seed ^ GATE_STREAM ^ u64::from(s)));
        let mut budget = (script.requests * GATE_PERMILLE / 1000).max(1) as u32;
        let mut prefix = BTreeMap::new();
        for session in order {
            if budget == 0 {
                break;
            }
            let take = lengths[&session].min(budget);
            prefix.insert(session, take);
            budget -= take;
        }
        GateSample { prefix }
    }

    pub fn covers(&self, request: &Request) -> bool {
        self.prefix.get(&request.session).is_some_and(|&n| request.index < n)
    }

    /// The part of `script` the gate replays.
    pub fn filter(&self, script: &Script) -> Script {
        let steps: Vec<Step> = script
            .steps
            .iter()
            .filter(|step| match step {
                Step::Ask(r) => self.covers(r),
                Step::End(session) => self.prefix.contains_key(session),
            })
            .cloned()
            .collect();
        let requests = steps.iter().filter(|s| matches!(s, Step::Ask(_))).count();
        Script { steps, sessions: self.prefix.len() as u32, requests }
    }

    pub fn sessions(&self) -> usize {
        self.prefix.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    fn pools() -> ValuePools {
        ValuePools {
            drugs: vec!["Aspirin".into(), "Ibuprofen".into(), "Tazarotene".into()],
            brands: vec!["Bayer".into(), "Advil".into(), "Tazorac".into()],
            conditions: vec!["Fever".into(), "Psoriasis".into()],
            ages: vec!["adult".into(), "pediatric".into()],
            treatment_pairs: vec![("Aspirin".into(), "Fever".into())],
        }
    }

    #[test]
    fn same_seed_gives_a_byte_identical_script() {
        let pools = ValuePools::from_kb(&workload::WORKLOADS[0].kb());
        for w in workload::WORKLOADS {
            let a = Script::build(w, 7, 500, &pools);
            let b = Script::build(w, 7, 500, &pools);
            assert_eq!(a.encode(), b.encode(), "{}", w.name);
            let c = Script::build(w, 8, 500, &pools);
            assert_ne!(a.encode(), c.encode(), "{}: another seed, other inputs", w.name);
        }
    }

    #[test]
    fn scripts_have_the_workload_shape() {
        let pools = pools();
        let clinic = workload::find("clinic").expect("clinic");
        let s = Script::build(clinic, 3, 3000, &pools);
        assert_eq!(s.requests, 3000);
        let mean = s.requests as f64 / f64::from(s.sessions);
        assert!((2.6..3.4).contains(&mean), "mean session length {mean}");
        let ends = s.steps.iter().filter(|st| matches!(st, Step::End(_))).count();
        assert_eq!(ends as u32, s.sessions, "every session is ended exactly once");

        let deep_kb = workload::find("deep_kb").expect("deep_kb");
        let s = Script::build(deep_kb, 3, 3000, &pools);
        assert_eq!(s.sessions, 4, "whole-run sessions, one per clinician");
        assert!(matches!(s.steps[..4], [Step::Ask(_), Step::Ask(_), Step::Ask(_), Step::Ask(_)]));
    }

    #[test]
    fn the_draw_matches_the_intent_mix() {
        let total: f64 = INTENT_MIX.iter().map(|(_, w)| w).sum();
        let n = 200_000;
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for _ in 0..n {
            *counts.entry(draw_intent(&mut rng, total)).or_insert(0) += 1;
        }
        for (name, weight) in INTENT_MIX {
            let p = weight / total;
            let observed = counts.get(name).copied().unwrap_or(0) as f64 / n as f64;
            // Five standard errors of a binomial share.
            let tolerance = 5.0 * (p * (1.0 - p) / n as f64).sqrt();
            assert!((observed - p).abs() <= tolerance, "{name}: {observed} vs {p}");
        }
    }

    #[test]
    fn prompts_are_answered_by_keyword() {
        let a = Answers { age: "pediatric".into(), condition: "Fever".into(), drug: "X".into() };
        assert_eq!(answer("What age group?", &a), "pediatric");
        assert_eq!(answer("For which condition?", &a), "Fever");
        assert_eq!(answer("Which drug do you mean?", &a), "X");
        assert_eq!(answer("Adult or pediatric?", &a), "adult");
    }

    #[test]
    fn the_gate_sample_is_a_bounded_deterministic_prefix_set() {
        let pools = pools();
        let clinic = workload::find("clinic").expect("clinic");
        let s = Script::build(clinic, 5, 2000, &pools);
        let g = GateSample::choose(&s, 5);
        assert_eq!(g, GateSample::choose(&s, 5));
        let sub = g.filter(&s);
        assert!(sub.requests > 0 && sub.requests <= 200, "{}", sub.requests);
        for step in &sub.steps {
            if let Step::Ask(r) = step {
                assert!(g.covers(r));
            }
        }
        let deep_kb = workload::find("deep_kb").expect("deep_kb");
        let s = Script::build(deep_kb, 5, 2000, &pools);
        let sub = GateSample::choose(&s, 5).filter(&s);
        assert_eq!(sub.requests, 200, "a prefix of one whole-run session");
    }
}
