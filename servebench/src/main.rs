//! Served-conversation benchmark for OBCS.
//!
//! ```text
//! servebench --workload <clinic|deep_kb> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the MDX world, starts a real `obcs-serve` server in-process and
//! drives simulated clinicians over the NDJSON protocol from one client
//! thread on one connection: a closed loop with one request in flight.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` replays the
//! same script through in-process passes and prints per-layer metrics.
//! The last stdout line is the JSON result; a readable summary goes to
//! stderr. See README.md beside this crate for every metric.

mod alloc;
mod inproc;
mod report;
mod script;
mod served;
mod turns;
mod workload;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use obcs_agent::nlu::Nlu;
use obcs_agent::ConversationAgent;
use obcs_mdx::ConversationalMdx;
use obcs_sim::utterance::ValuePools;
use obcs_telemetry::{stage, CollectingRecorder};

use crate::inproc::{cool, serving_base, SPAN_END, SPAN_OPEN, SPAN_TURN};
use crate::report::{engine_closes, median, per_turn, ratio, Metrics, RoundTrip, SpanTimes};
use crate::script::{GateSample, Script};
use crate::served::Served;
use crate::workload::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Complete set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::find(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be within 1..=600, not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The `deep_kb` durability directory, beside the benchmark executable
/// (inside the build's target directory), removed when the run ends.
struct DurableDir(PathBuf);

impl DurableDir {
    fn new() -> DurableDir {
        let exe = std::env::current_exe().expect("locate the benchmark executable");
        let dir = exe
            .parent()
            .expect("the executable lives in a directory")
            .join(format!("servebench-durable-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        DurableDir(dir)
    }
}

impl Drop for DurableDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Everything generated from the seed before any timing starts.
struct Inputs {
    script: Script,
    gate: GateSample,
    durable: Option<DurableDir>,
}

impl Inputs {
    fn durable(&self) -> Option<&Path> {
        self.durable.as_ref().map(|d| d.0.as_path())
    }
}

fn inputs(w: &Workload, seed: u64, seconds: u64) -> Inputs {
    let kb = w.kb();
    let pools = ValuePools::from_kb(&kb);
    let requests = w.requests_per_second * seconds as usize;
    let script = Script::build(w, seed, requests, &pools);
    let gate = GateSample::choose(&script, seed);
    let durable = w.wal_records.map(|records| {
        let dir = DurableDir::new();
        workload::write_durability_dir(&dir.0, kb, records, seed);
        dir
    });
    let digest = turns::digest(&script.encode());
    eprintln!("servebench {}: {}", w.name, w.why);
    eprintln!(
        "  {} requests, {} sessions, {} users, script digest {digest:016x}, \
         gate replays {} sessions",
        script.requests,
        script.sessions,
        w.users,
        gate.sessions()
    );
    Inputs { script, gate, durable }
}

/// The agent the in-process passes fork from: assembled like the served
/// one, holding the recovered KB when the server recovered one.
fn template_agent(w: &Workload, durable: Option<&Path>) -> ConversationAgent {
    let mut agent = w.agent();
    if let Some(dir) = durable {
        agent.set_kb(workload::recover(dir).0);
    }
    agent
}

/// VmHWM of this process — the one hosting the server — in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn summary_served(served: &Served) {
    eprintln!(
        "  load: {} turns in {:.3} s, {} requests, {} failed of {} attempted, task success {:.4}",
        served.turns_ok,
        served.wall_s,
        served.requests,
        served.failed,
        served.attempted,
        served.task_success()
    );
}

/// `--trace 0`: the end-to-end metrics, with tracing off.
fn end_to_end(args: &Args) -> (bool, Served, Metrics) {
    let w = args.workload;
    let inputs = inputs(w, args.seed, args.seconds);
    let durable = inputs.durable();

    // The first set-up serves the load; the others follow it, so the
    // peak RSS read after the load reflects one set-up and the load.
    let mut running = served::set_up(w, durable);
    let mut setups = vec![running.setup_s];
    let served = served::drive(&mut running, &inputs.script, &inputs.gate);
    let peak_rss = peak_rss_mb();
    running.stop();
    for _ in 1..SETUPS {
        let running = served::set_up(w, durable);
        setups.push(running.setup_s);
        running.stop();
    }
    summary_served(&served);
    eprintln!("  set-ups (s): {setups:?}");

    let template = template_agent(w, durable);
    let replay = inproc::table_pass(
        serving_base(&template),
        &inputs.gate.filter(&inputs.script),
        Some(&inputs.gate),
        None,
    );
    let gate = turns::compare(&served.digests, &replay.digests);
    if let Err(e) = &gate {
        eprintln!("  correctness gate FAILED: {e}");
    }

    let latency = report::latency(&served.rtt_ns);
    eprintln!("  latency percentiles: median over {} blocks", latency.blocks);
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    m.put("turn_p50_ms", latency.p50_ns / 1e6, "ms");
    m.put("turn_p99_ms", latency.p99_ns / 1e6, "ms");
    m.put("turns_per_s", served.turns_ok as f64 / served.wall_s, "1/s");
    m.put("peak_rss_mb", peak_rss, "MB");
    m.put("task_success", served.task_success(), "ratio");
    (gate.is_ok(), served, m)
}

/// `--trace 1`: the per-layer metrics.
fn per_layer(args: &Args) -> (bool, Served, Metrics) {
    let w = args.workload;
    let inputs = inputs(w, args.seed, args.seconds);
    let durable = inputs.durable();
    let script = &inputs.script;
    let mut m = Metrics::default();

    // Set-up, layer by layer, timed from outside through public calls.
    let t = Instant::now();
    let (onto, kb, mapping, space) = ConversationalMdx::bootstrap_space(w.data());
    let world_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let nlu = Nlu::from_space(&space, &onto, &kb, &mapping);
    let nlu_ms = t.elapsed().as_secs_f64() * 1e3;
    drop((nlu, onto, kb, mapping, space));
    let (recover_ms, recover_records) = match durable {
        Some(dir) => {
            let t = Instant::now();
            let (kb, records) = workload::recover(dir);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            drop(kb);
            (ms, records)
        }
        None => (0.0, 0),
    };
    let mut running = served::set_up(w, durable);
    let setup_ms = running.setup_s * 1e3;
    let start_ms = running.start_ms;
    let served = served::drive(&mut running, script, &inputs.gate);
    running.stop();
    summary_served(&served);

    // The socketless server, untraced: the gate, and the session-table
    // and codec means of the round-trip reconciliation.
    let mut template = template_agent(w, durable);
    let untraced = inproc::table_pass(serving_base(&template), script, Some(&inputs.gate), None);
    let gate = turns::compare(&served.digests, &untraced.digests);
    if let Err(e) = &gate {
        eprintln!("  correctness gate FAILED: {e}");
    }
    cool(&mut template);

    // The same pass under a wall-clock recorder.
    let recorder = Arc::new(CollectingRecorder::wall());
    let traced =
        inproc::table_pass(serving_base(&template), script, None, Some(Arc::clone(&recorder)));
    cool(&mut template);
    let trace = traced.trace.as_ref().expect("the traced pass keeps its report");
    let spans = SpanTimes::of(trace);

    let counts = inproc::count_pass(&serving_base(&template), script);

    // Reconciliation on means per turn.
    let turns = untraced.turn_ns.len() as u64;
    let served_turns = served.rtt_ns.len() as u64;
    let rtt_total: u64 = served.answered_ns().sum();
    let trip = RoundTrip::split(
        per_turn(rtt_total, served.turns_ok),
        per_turn(untraced.turn_ns.iter().sum(), turns),
        per_turn(untraced.codec_ns.iter().sum(), turns),
    );
    let traced_turns = traced.turn_ns.len() as u64;
    let bench_total: u64 =
        [SPAN_OPEN, SPAN_TURN].iter().map(|s| spans.inclusive(s).iter().sum::<u64>()).sum();
    let traced_table_turn = per_turn(bench_total, traced_turns);
    // Traced layers are shares of the untraced client total: scaling by
    // untraced/traced session-table time removes the tracing overhead,
    // so the shares of one turn's parts add up to 1.
    let untrace = trip.table_turn / traced_table_turn;
    let traced_share =
        |calls: &[u64]| per_turn(calls.iter().sum(), traced_turns) * untrace / trip.rtt;
    let engine = [
        ("agent.turn_self_us", stage::TURN),
        ("nlq.annotate_us", stage::ANNOTATE),
        ("classifier.classify_us", stage::CLASSIFY),
        ("dialogue.eval_us", stage::DIALOGUE_EVAL),
        ("nlq.instantiate_us", stage::TEMPLATE_INSTANTIATE),
        ("nlq.interpret_us", stage::NLQ_INTERPRET),
        ("kb.execute_us", stage::KB_EXECUTE),
        ("agent.nlg_us", stage::NLG),
    ];
    let engine_total: u64 = spans.inclusive(stage::TURN).iter().sum();
    let own_totals: Vec<u64> =
        engine.iter().map(|(_, s)| spans.own(s).iter().sum::<u64>()).collect();
    let reconciled = trip.closes() && engine_closes(engine_total, &own_totals);
    eprintln!(
        "  round trip {:.2} us = session table {:.2} us + codec {:.2} us + transport {:.2} us",
        trip.rtt / 1e3,
        trip.table_turn / 1e3,
        trip.codec / 1e3,
        trip.transport / 1e3
    );
    eprintln!(
        "  engine turn {:.2} us = {}",
        per_turn(engine_total, traced_turns) / 1e3,
        engine
            .iter()
            .zip(&own_totals)
            .map(|((n, _), &t)| format!("{n} {:.2}", per_turn(t, traced_turns) / 1e3))
            .collect::<Vec<_>>()
            .join(" + ")
    );

    // Set-up layers.
    let setup_share = |x: f64| x / setup_ms;
    m.put("setup.world_ms", world_ms, "ms");
    m.put("setup.world_ms.share", setup_share(world_ms), "ratio");
    m.put("setup.nlu_build_ms", nlu_ms, "ms");
    m.put("setup.nlu_build_ms.share", setup_share(nlu_ms), "ratio");
    m.put("kb.recover_ms", recover_ms, "ms");
    m.put("kb.recover_ms.share", setup_share(recover_ms), "ratio");
    m.put("kb.recover_records", recover_records as f64, "count");
    m.put("serve.start_ms", start_ms, "ms");
    m.put("serve.start_ms.share", setup_share(start_ms), "ratio");

    // The client's round trip and its parts.
    m.put("client.rtt_us.mean", trip.rtt / 1e3, "us");
    m.put("serve.table_turn_us.mean", trip.table_turn / 1e3, "us");
    m.timed("serve.codec_us", "us", &untraced.codec_ns, turns, trip.codec / trip.rtt);
    m.put("serve.transport_us.mean", trip.transport / 1e3, "us");
    m.put("serve.transport_us.share", trip.transport / trip.rtt, "ratio");
    m.put("trace.overhead_ratio", traced_table_turn / trip.table_turn, "ratio");

    // Session lifecycle.
    let open = spans.inclusive(SPAN_OPEN);
    m.timed("serve.session_open_ms", "ms", open, traced_turns, traced_share(open));
    let established = spans.own(SPAN_TURN);
    m.timed(
        "serve.session_turn_self_us",
        "us",
        established,
        traced_turns,
        traced_share(established),
    );
    let end = spans.inclusive(SPAN_END);
    m.timed("serve.session_end_ms", "ms", end, traced_turns, traced_share(end));
    let fork_share = per_turn(counts.fork_ns.iter().sum(), counts.turns) / trip.rtt;
    m.timed("agent.fork_ms", "ms", &counts.fork_ns, counts.turns, fork_share);
    m.put("agent.fork_mb", counts.fork_bytes as f64 / (1 << 20) as f64, "MB");
    m.put("serve.sessions_opened", counts.sessions_opened as f64, "count");

    // Engine stages.
    let whole = spans.inclusive(stage::TURN);
    m.timed("agent.turn_us", "us", whole, traced_turns, traced_share(whole));
    for (name, s) in engine {
        let own = spans.own(s);
        m.timed(name, "us", own, traced_turns, traced_share(own));
    }
    m.put("alloc.per_turn", ratio(counts.respond.calls, counts.turns), "count/turn");
    m.put("alloc.bytes_per_turn", ratio(counts.respond.allocated, counts.turns), "B/turn");

    // Caches and counts from the count pass.
    let caches = [
        ("cache.nlu_recognize", counts.nlu_recognize),
        ("cache.nlu_classify", counts.nlu_classify),
        ("cache.kb_plan", counts.kb_plan),
        ("cache.kb_result", counts.kb_result),
    ];
    for (name, c) in caches {
        m.put(format!("{name}_hit_ratio"), ratio(c.hits, c.hits + c.misses), "ratio");
        m.put(format!("{name}_lookups"), (c.hits + c.misses) as f64, "count");
    }
    m.put("nlu.low_confidence_share", ratio(counts.low_confidence, counts.turns), "ratio");
    m.put("kb.queries_per_turn", ratio(counts.kb_queries, counts.turns), "count/turn");
    m.put("kb.rows_per_query", ratio(counts.kb_rows, counts.kb_queries), "count/query");
    m.put("kb.pipeline_errors", counts.pipeline_errors as f64, "count");

    // Every pass saw the same conversation: same turns, same judgement.
    let consistent = counts.turns == turns
        && traced_turns == turns
        && (served.failed > 0 || served_turns == turns)
        && counts.requests == served.requests
        && counts.correct == served.correct;
    if !consistent {
        eprintln!(
            "  passes disagree: served {served_turns} turns / {} correct, in-process {turns} / \
             traced {traced_turns} / counted {} turns, {} correct",
            served.correct, counts.turns, counts.correct
        );
    }
    if !reconciled {
        eprintln!("  the reconciliation does not close");
    }
    (gate.is_ok() && consistent && reconciled, served, m)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload <clinic|deep_kb> --seed <n> --seconds <s> \
                 --trace <0|1>\n(seed {} is held out for confirming claimed gains)",
                workload::HELD_OUT_SEED
            );
            std::process::exit(2);
        }
    };
    let (correct, served, metrics) = if args.trace { per_layer(&args) } else { end_to_end(&args) };
    for metric in &metrics.0 {
        eprintln!("  {:<40} {:>16.6} {}", metric.name, metric.value, metric.unit);
    }
    println!("{}", metrics.result_line(correct, served.attempted, served.failed));
    if !correct {
        std::process::exit(1);
    }
}
