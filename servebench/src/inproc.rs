//! In-process passes over the same script, for the correctness gate and
//! the per-layer figures: a socketless server (the codec plus a
//! `SessionTable` built the way `Server::start` builds it), optionally
//! traced, and an untraced count pass that owns its forks.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use obcs_agent::ConversationAgent;
use obcs_cache::CacheStats;
use obcs_faults::ResilienceConfig;
use obcs_serve::protocol::{decode_request, decode_response, encode_line};
use obcs_serve::{Admission, Request as WireRequest, ServeConfig, SessionConfig, SessionTable};
use obcs_telemetry::{metric, span, CollectingRecorder, NoopRecorder, Recorder, TraceReport};

use crate::alloc::{self, Allocs};
use crate::script::{session_id, GateSample, Script, Step};
use crate::turns::{digest, judged, play, reply_line, wire, Digests};

/// Benchmark-side span names around the public `SessionTable` calls.
pub const SPAN_OPEN: &str = "serve.session_open";
pub const SPAN_TURN: &str = "serve.session_turn";
pub const SPAN_END: &str = "serve.session_end";

/// A base agent configured as `Server::start` configures the one it is
/// given: a fork of `template` (so the template keeps sole ownership of
/// the NLU between passes) under the serving resilience budget.
pub fn serving_base(template: &ConversationAgent) -> ConversationAgent {
    let mut agent = template.fork_session();
    if let Some(budget) = ServeConfig::default().turn_budget {
        agent.set_resilience(ResilienceConfig {
            turn_budget: Some(budget),
            ..ResilienceConfig::serving()
        });
    }
    agent
}

/// Empties the NLU memo the template shares with its forks, so every
/// pass starts as cold as a freshly started server. Needs every fork of
/// the template dropped.
pub fn cool(template: &mut ConversationAgent) {
    template.set_caching(false);
    template.set_caching(true);
}

/// What a pass through the socketless server measured.
#[derive(Default)]
pub struct TablePass {
    /// `SessionTable::turn`, timed around the call, per turn.
    pub turn_ns: Vec<u64>,
    /// The four codec steps of a turn: client encodes the request, server
    /// decodes it, server renders and encodes the reply, client decodes it.
    pub codec_ns: Vec<u64>,
    pub digests: Digests,
    pub trace: Option<TraceReport>,
}

/// Replays `script` through a `SessionTable` holding `base`. With
/// `traced`, every turn runs under that wall-clock recorder inside a
/// benchmark span that tells first-contact turns from established ones.
/// With `gate`, reply digests of the sampled sessions are kept.
pub fn table_pass(
    base: ConversationAgent,
    script: &Script,
    gate: Option<&GateSample>,
    traced: Option<Arc<CollectingRecorder>>,
) -> TablePass {
    let recorder: Arc<dyn Recorder> = match &traced {
        Some(r) => Arc::clone(r) as Arc<dyn Recorder>,
        None => Arc::new(NoopRecorder),
    };
    let table = SessionTable::new(base, SessionConfig::default());
    let mut out = TablePass {
        turn_ns: Vec::with_capacity(script.requests * 5 / 4),
        codec_ns: Vec::with_capacity(script.requests * 5 / 4),
        ..TablePass::default()
    };
    let mut open: BTreeSet<u32> = BTreeSet::new();
    for step in &script.steps {
        match step {
            Step::Ask(request) => {
                let session = session_id(request.session);
                let sampled = gate.is_some_and(|g| g.covers(request));
                play(request, |utterance| {
                    let t = Instant::now();
                    let line = encode_line(&WireRequest::Turn {
                        session: session.clone(),
                        utterance: utterance.to_string(),
                    });
                    let Ok(WireRequest::Turn { session: sid, utterance: said }) =
                        decode_request(&line)
                    else {
                        panic!("a turn request must survive the codec");
                    };
                    let decode_ns = t.elapsed().as_nanos() as u64;

                    let stage = if open.insert(request.session) { SPAN_OPEN } else { SPAN_TURN };
                    let t = Instant::now();
                    let admission = {
                        let _span = span(&*recorder, stage);
                        table.turn(&sid, &said, &recorder)
                    };
                    out.turn_ns.push(t.elapsed().as_nanos() as u64);
                    let Admission::Served(reply) = admission else {
                        panic!("the in-process table shed a turn");
                    };

                    let t = Instant::now();
                    let line = reply_line(wire(&sid, &reply, table.intent_name(reply.intent)));
                    let decoded = decode_response(&line).expect("a reply must survive the codec");
                    out.codec_ns.push(decode_ns + t.elapsed().as_nanos() as u64);
                    std::hint::black_box(decoded);
                    if sampled {
                        out.digests.entry(request.session).or_default().push(digest(&line));
                    }
                    Some(reply)
                });
            }
            Step::End(session) => {
                open.remove(session);
                let _span = span(&*recorder, SPAN_END);
                table.end(&session_id(*session));
            }
        }
    }
    out.trace = traced.map(|r| r.take_report());
    out
}

/// Counters the engine reports through its recorder, kept without
/// allocating so the count pass's allocation figures are the engine's.
#[derive(Default)]
struct EngineCounters {
    turns: AtomicU64,
    kb_queries: AtomicU64,
    kb_rows: AtomicU64,
    pipeline_errors: AtomicU64,
    low_confidence: AtomicU64,
}

impl Recorder for EngineCounters {
    fn add(&self, name: &'static str, label: &str, by: u64) {
        let counter = match (name, label) {
            (metric::TURNS, _) => &self.turns,
            (metric::KB_QUERIES, _) => &self.kb_queries,
            (metric::KB_ROWS, _) => &self.kb_rows,
            (metric::PIPELINE_ERRORS, _) => &self.pipeline_errors,
            (metric::REPAIR, "low_confidence") => &self.low_confidence,
            _ => return,
        };
        counter.fetch_add(by, Ordering::Relaxed);
    }
}

/// Exact counts from the untraced count pass; they repeat run to run.
#[derive(Debug, Default)]
pub struct Counts {
    pub turns: u64,
    pub requests: u64,
    pub correct: u64,
    pub sessions_opened: u64,
    /// `fork_session` wall time per opened session (counting off).
    pub fork_ns: Vec<u64>,
    /// Bytes one fork holds once made.
    pub fork_bytes: u64,
    /// Allocations made inside `respond`, all turns.
    pub respond: Allocs,
    pub kb_plan: CacheStats,
    pub kb_result: CacheStats,
    pub nlu_classify: CacheStats,
    pub nlu_recognize: CacheStats,
    pub kb_queries: u64,
    pub kb_rows: u64,
    pub pipeline_errors: u64,
    pub low_confidence: u64,
}

/// Adds a finished fork's KB cache counters, then drops the fork.
fn retire(fork: ConversationAgent, out: &mut Counts) {
    let kb = fork.cache_stats().0;
    out.kb_plan = out.kb_plan.merged(kb.plan);
    out.kb_result = out.kb_result.merged(kb.result);
}

fn minus(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        invalidations: after.invalidations - before.invalidations,
    }
}

/// Replays `script` on forks this pass owns, reading each fork's cache
/// counters before dropping it, with allocation counting on inside
/// `respond` and off around the timed `fork_session`.
pub fn count_pass(base: &ConversationAgent, script: &Script) -> Counts {
    let counters = Arc::new(EngineCounters::default());
    let memo_before = base.cache_stats().1;
    let mut out = Counts::default();
    let (probe, fork_allocs) = alloc::measure(|| base.fork_session());
    out.fork_bytes = fork_allocs.live();
    drop(probe);

    let mut forks: HashMap<u32, ConversationAgent> = HashMap::new();
    for step in &script.steps {
        match step {
            Step::Ask(request) => {
                let fork = forks.entry(request.session).or_insert_with(|| {
                    let t = Instant::now();
                    let mut fork = base.fork_session();
                    out.fork_ns.push(t.elapsed().as_nanos() as u64);
                    fork.set_recorder(Arc::clone(&counters) as Arc<dyn Recorder>);
                    fork
                });
                let respond = &mut out.respond;
                let last = play(request, |utterance| {
                    let (reply, allocs) = alloc::measure(|| fork.respond(utterance));
                    *respond += allocs;
                    Some(reply)
                })
                .expect("an in-process turn always answers");
                let detected =
                    last.intent.and_then(|id| fork.space().intent(id)).map(|i| i.name.clone());
                out.requests += 1;
                if judged(request.expected, &detected, &last) {
                    out.correct += 1;
                }
            }
            Step::End(session) => {
                if let Some(fork) = forks.remove(session) {
                    retire(fork, &mut out);
                }
            }
        }
    }
    for (_, fork) in forks.drain() {
        retire(fork, &mut out);
    }
    let memo = base.cache_stats().1;
    out.nlu_classify = minus(memo.classify, memo_before.classify);
    out.nlu_recognize = minus(memo.recognize, memo_before.recognize);
    out.sessions_opened = out.fork_ns.len() as u64;
    out.turns = counters.turns.load(Ordering::Relaxed);
    out.kb_queries = counters.kb_queries.load(Ordering::Relaxed);
    out.kb_rows = counters.kb_rows.load(Ordering::Relaxed);
    out.pipeline_errors = counters.pipeline_errors.load(Ordering::Relaxed);
    out.low_confidence = counters.low_confidence.load(Ordering::Relaxed);
    out
}
