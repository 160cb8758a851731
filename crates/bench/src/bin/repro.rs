//! Reproduction harness: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p obcs-bench --bin repro -- all
//! cargo run --release -p obcs-bench --bin repro -- table5 [--seed N] [--interactions N]
//! ```
//!
//! Subcommands: `fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 table1
//! table2 table3 table4 table5 fig11 fig12 inventory summary transcript
//! ablation-centrality ablation-training ablation-synonyms
//! ablation-augmentation ablation-classifier ablation-feedback-loop
//! ablation-sessions all` — plus the non-artifact passes, which are not
//! part of `all`: `lint` (obcs-lint static analysis over the artifact
//! chain), `perf` (stage timings against the committed baseline), `scale`
//! (the latency-vs-KB-size curve for indexed KB execution, with enforced
//! speedup floors at the 15k-drug point), `serve` (the socket serving
//! benchmark: a real `obcs-serve` server under the Table 5 load mix,
//! with p50/p99 served-turn latency gates), `recover` (the durability
//! benchmark: kill-style snapshot + WAL recovery over a torn log, with
//! recovered-server replies gated byte-identical), `trace` (traced traffic replay
//! with per-stage latency breakdown), `chaos` (fault-injected replay
//! checking the robustness contract), and `export` (lint-gates and writes
//! the offline artifacts to `artifacts/`, or `--dir DIR`). The README's
//! "Reproduction harness" section documents the full set.

use obcs_agent::ReplyKind;
use obcs_bench::World;
use obcs_core::training::{generate_for_intent, ExampleSource, TrainingGenConfig};
use obcs_dialogue::DialogueLogicTable;
use obcs_lint::{run_all, LintConfig, LintContext};
use obcs_mdx::data::MdxDataConfig;
use obcs_sim::eval::{classifier_evaluation, fig11, fig12, render_success_rows};
use obcs_sim::traffic::{run_traffic, SimConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const DEFAULT_SEED: u64 = 20200614;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let seed = flag(&args, "--seed").unwrap_or(DEFAULT_SEED);
    let interactions = flag(&args, "--interactions").unwrap_or(5000) as usize;
    let drugs = flag(&args, "--drugs").unwrap_or(150) as usize;

    // `perf` and `trace` manage their own worlds (they time or trace the
    // whole pipeline themselves) and are deliberately not part of `all`:
    // they are measurement passes, not paper artifacts.
    if cmd == "perf" {
        perf(&args, seed);
        return;
    }
    if cmd == "trace" {
        trace(&args, seed);
        return;
    }
    if cmd == "chaos" {
        chaos(&args, seed);
        return;
    }
    if cmd == "verify" {
        verify(&args);
        return;
    }
    if cmd == "scale" {
        scale(&args, seed);
        return;
    }
    if cmd == "serve" {
        serve(&args, seed);
        return;
    }
    if cmd == "recover" {
        recover(&args, seed);
        return;
    }

    let world = World::with_config(MdxDataConfig { drugs, seed });
    let run = |name: &str| cmd == name || cmd == "all";

    if run("lint") {
        lint_report(&world);
    }
    if run("inventory") {
        inventory(&world);
    }
    if run("fig2") {
        fig2(&world);
    }
    if run("fig3") {
        fig3(&world);
    }
    if run("fig4") {
        fig4(&world);
    }
    if run("fig5") {
        fig5(&world);
    }
    if run("fig6") {
        fig6(&world);
    }
    if run("fig7") {
        fig7(&world, seed);
    }
    if run("fig8") {
        fig8(&world);
    }
    if run("fig9") {
        fig9(&world);
    }
    if run("fig10") {
        fig10(&world);
    }
    if run("table1") {
        table1(&world);
    }
    if run("table2") {
        table2(&world);
    }
    if run("table3") {
        table3(seed);
    }
    if run("table4") {
        table4(&world);
    }
    if run("table5") || run("fig11") || run("fig12") || run("summary") {
        evaluation(&world, seed, interactions, cmd);
    }
    if run("transcript") {
        transcript(&world);
    }
    if run("ablation-centrality") {
        ablation_centrality(&world);
    }
    if run("ablation-training") {
        ablation_training(seed);
    }
    if run("ablation-synonyms") {
        ablation_synonyms(&world);
    }
    if run("ablation-augmentation") {
        ablation_augmentation(&world);
    }
    if run("ablation-classifier") {
        ablation_classifier(&world, seed);
    }
    if run("ablation-feedback-loop") {
        ablation_feedback_loop(&world);
    }
    if run("ablation-sessions") {
        ablation_sessions(&world, seed);
    }
    if cmd == "export" {
        let dir = str_flag(&args, "--dir").unwrap_or_else(|| "artifacts".to_string());
        export(&world, &dir);
    }
}

fn flag(args: &[String], name: &str) -> Option<u64> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).and_then(|v| v.parse().ok())
}

fn str_flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

/// `repro perf [--quick] [--seed N] [--out PATH] [--check BASELINE]`
///
/// Times every pipeline stage, comparing the retained pre-optimisation
/// implementations against the shipped ones on identical workloads.
/// `--out` writes the JSON report (the committed `BENCH_perf.json` is a
/// `--quick` run); `--check` compares this run against a committed
/// baseline and exits non-zero on a malformed file or a regression.
fn perf(args: &[String], seed: u64) {
    use obcs_bench::perf;
    let opts = perf::PerfOptions { quick: args.iter().any(|a| a == "--quick"), seed };
    heading(&format!("Performance baseline ({} mode)", if opts.quick { "quick" } else { "full" }));
    let report = perf::run(&opts);
    print!("{}", report.render_text());
    if let Some(path) = str_flag(args, "--out") {
        std::fs::write(&path, report.to_json()).expect("write perf report");
        println!("wrote {path}");
    }
    if let Some(path) = str_flag(args, "--check") {
        let verdict =
            perf::load_baseline(&path).and_then(|baseline| report.check_against(&baseline));
        match verdict {
            Ok(msg) => println!("{msg}"),
            Err(msg) => {
                eprintln!("perf check failed: {msg}");
                std::process::exit(1);
            }
        }
    }
}

/// `repro scale [--quick] [--seed N] [--check BASELINE]`
///
/// Runs just the large-world scaling curve (DESIGN.md §14): indexed vs
/// scan-twin latency for point lookup, FK join, LIKE-prefix and the
/// three served template shapes at 150 / 1.5k / 15k drugs. The floors
/// the run itself carries (10x point lookup at 15k, etc.) are enforced
/// directly; `--check` additionally
/// compares against the scale stages of a committed baseline.
fn scale(args: &[String], seed: u64) {
    use obcs_bench::{perf, scale};
    let opts = perf::PerfOptions { quick: args.iter().any(|a| a == "--quick"), seed };
    heading(&format!(
        "Large-world scaling curve ({} mode)",
        if opts.quick { "quick" } else { "full" }
    ));
    let outcome = scale::run(&opts);
    let report = perf::PerfReport {
        mode: if opts.quick { "quick" } else { "full" }.to_string(),
        seed,
        timings: outcome.timings,
        comparisons: outcome.comparisons,
    };
    print!("{}", report.render_text());
    for c in &report.comparisons {
        if let Some(floor) = c.min_speedup {
            if c.speedup < floor {
                eprintln!(
                    "scale check failed: {} speedup {:.2}x below the {floor:.2}x floor",
                    c.name, c.speedup
                );
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = str_flag(args, "--check") {
        let verdict = perf::load_baseline(&path)
            .and_then(|baseline| report.check_against(&baseline.filtered("scale_")));
        match verdict {
            Ok(msg) => println!("{msg}"),
            Err(msg) => {
                eprintln!("scale check failed: {msg}");
                std::process::exit(1);
            }
        }
    }
}

/// `repro serve [--quick] [--seed N] [--check BASELINE]`
///
/// Runs the socket serving benchmark (DESIGN.md §15): starts a real
/// `obcs-serve` server on an ephemeral port, proves served replies are
/// byte-identical to an in-process replay of the same script, then
/// drives the Table 5 intent mix from concurrent connections and
/// reports p50/p99 served-turn latency and turns/sec. The invariants
/// the run itself carries (all turns answered, zero shed, zero
/// degraded, byte-identity) are enforced inside the run; `--check`
/// additionally compares the `serve_` stages against a committed
/// baseline.
fn serve(args: &[String], seed: u64) {
    use obcs_bench::{perf, serve};
    let opts = perf::PerfOptions { quick: args.iter().any(|a| a == "--quick"), seed };
    heading(&format!(
        "Socket serving benchmark ({} mode)",
        if opts.quick { "quick" } else { "full" }
    ));
    let outcome = serve::run(&opts);
    let report = perf::PerfReport {
        mode: if opts.quick { "quick" } else { "full" }.to_string(),
        seed,
        timings: outcome.timings,
        comparisons: Vec::new(),
    };
    print!("{}", report.render_text());
    println!(
        "served {} turns over {} connections: p50 {:.3} ms, p99 {:.3} ms, {:.0} turns/s \
         (shed {}, degraded {})",
        outcome.turns,
        outcome.connections,
        outcome.p50_ms,
        outcome.p99_ms,
        outcome.turns_per_sec,
        outcome.shed,
        outcome.degraded
    );
    if outcome.p99_ms < outcome.p50_ms {
        eprintln!("serve check failed: p99 below p50");
        std::process::exit(1);
    }
    if let Some(path) = str_flag(args, "--check") {
        let verdict = perf::load_baseline(&path)
            .and_then(|baseline| report.check_against(&baseline.filtered("serve_")));
        match verdict {
            Ok(msg) => println!("{msg}"),
            Err(msg) => {
                eprintln!("serve check failed: {msg}");
                std::process::exit(1);
            }
        }
    }
}

/// `repro recover [--quick] [--seed N] [--check BASELINE]`
///
/// Runs the durability benchmark (DESIGN.md §16): seeds a snapshot +
/// WAL pair from the MDX world, logs a mutation tail, drops the handle
/// without a snapshot (kill-style), corrupts the log tail with garbage
/// bytes, and recovers. The run itself enforces the correctness
/// contract — recovered KB byte-identical to a live oracle (data,
/// secondary indexes, access paths) and a server
/// restarted over the recovered directory serving byte-identical
/// replies to the original. `--check` additionally compares the
/// `recover_` stages against a committed baseline.
fn recover(args: &[String], seed: u64) {
    use obcs_bench::{perf, recover};
    let opts = perf::PerfOptions { quick: args.iter().any(|a| a == "--quick"), seed };
    heading(&format!("Durability benchmark ({} mode)", if opts.quick { "quick" } else { "full" }));
    let outcome = recover::run(&opts);
    let report = perf::PerfReport {
        mode: if opts.quick { "quick" } else { "full" }.to_string(),
        seed,
        timings: outcome.timings,
        comparisons: outcome.comparisons,
    };
    print!("{}", report.render_text());
    println!(
        "recovered {} WAL records (torn tail: {} bytes truncated) in {:.1} ms — \
         rebuild twin {:.1} ms, compaction {:.1} ms; \
         {} served turns byte-identical after restart",
        outcome.wal_records,
        outcome.wal_truncated_bytes,
        outcome.recover_ms,
        outcome.rebuild_ms,
        outcome.compact_ms,
        outcome.identity_turns
    );
    if outcome.wal_truncated_bytes == 0 {
        eprintln!("recover check failed: the pass must exercise a torn tail");
        std::process::exit(1);
    }
    if let Some(path) = str_flag(args, "--check") {
        let verdict = perf::load_baseline(&path)
            .and_then(|baseline| report.check_against(&baseline.filtered("recover_")));
        match verdict {
            Ok(msg) => println!("{msg}"),
            Err(msg) => {
                eprintln!("recover check failed: {msg}");
                std::process::exit(1);
            }
        }
    }
}

/// `repro trace [--quick] [--wall] [--seed N] [--parallelism N] [--out PATH]`
///
/// Replays the traffic profile with telemetry collection on and prints
/// the per-stage latency breakdown (p50/p95/p99), usage counters, and
/// per-intent confidence histograms. Durations default to deterministic
/// ticks (identical output for every run and parallelism at a fixed
/// seed); `--wall` measures real nanoseconds. `--out` writes the JSONL
/// trace; the emitted trace is validated either way and a malformed one
/// exits non-zero.
fn trace(args: &[String], seed: u64) {
    use obcs_bench::trace;
    let opts = trace::TraceOptions {
        quick: args.iter().any(|a| a == "--quick"),
        wall: args.iter().any(|a| a == "--wall"),
        seed,
        parallelism: flag(args, "--parallelism").unwrap_or(1) as usize,
    };
    heading(&format!(
        "Traced traffic replay ({} profile, {} timing)",
        if opts.quick { "quick" } else { "full" },
        if opts.wall { "wall" } else { "tick" }
    ));
    let (report, outcome) = trace::run(&opts);
    print!("{}", report.render_latency_table());
    print!("{}", report.render_counter_table());
    print!("{}", report.render_ratio_table());
    println!(
        "replayed {} interactions — success rate {:.1}%",
        outcome.records.len(),
        outcome.success_rate() * 100.0
    );
    let jsonl = report.to_jsonl();
    match obcs_telemetry::validate_jsonl(&jsonl) {
        Ok(stats) => println!(
            "trace OK: {} spans, {} counters, {} histograms",
            stats.spans, stats.counters, stats.histograms
        ),
        Err(msg) => {
            eprintln!("malformed trace: {msg}");
            std::process::exit(1);
        }
    }
    if let Some(path) = str_flag(args, "--out") {
        std::fs::write(&path, &jsonl).expect("write trace");
        println!("wrote {path}");
    }
}

/// `repro chaos [--quick] [--seed N] [--parallelism N]`
///
/// Replays the traffic profile under the seeded chaos fault plan and
/// checks the robustness contract (DESIGN.md §11): no panics, a trace
/// and record sequence that are byte-identical at parallelism 1 and N,
/// and no silent faults — every injected fault is either recovered by a
/// retry or surfaced as a visible degraded reply. Any violation prints
/// and exits non-zero.
fn chaos(args: &[String], seed: u64) {
    use obcs_bench::chaos;
    let opts = chaos::ChaosOptions {
        quick: args.iter().any(|a| a == "--quick"),
        seed,
        parallelism: flag(args, "--parallelism").unwrap_or(4) as usize,
    };
    heading(&format!(
        "Chaos replay ({} profile, determinism checked at parallelism {})",
        if opts.quick { "quick" } else { "full" },
        opts.parallelism
    ));
    let chaos = chaos::run(&opts);
    print!("{}", chaos.report.render_counter_table());
    println!(
        "replayed {} interactions under faults — success rate {:.1}%",
        chaos.outcome.records.len(),
        chaos.outcome.success_rate() * 100.0
    );
    println!(
        "faults {}  recovered {}  degraded {}  retries {}",
        chaos.counter_total(obcs_telemetry::metric::FAULTS),
        chaos.counter_total(obcs_telemetry::metric::FAULT_RECOVERED),
        chaos.counter_total(obcs_telemetry::metric::DEGRADED),
        chaos.counter_total(obcs_telemetry::metric::RETRIES),
    );
    if chaos.passed() {
        println!("chaos OK: deterministic, every fault recovered or surfaced");
    } else {
        for v in &chaos.violations {
            eprintln!("chaos violation: {v}");
        }
        std::process::exit(1);
    }
}

/// `repro verify [--quick]`
///
/// Runs the full static pass — obcs-lint (`OBCS0xx`) and obcs-verify
/// (`OBCS1xx`: dialogue-flow model checking, query bind-checking,
/// cross-artifact consistency) — over every committed
/// `artifacts/*_space.json`, each loaded exactly as the `spacelint` /
/// `spaceverify` binaries load it. Exits non-zero if any space produces
/// an error. `--quick` lowers the flow-exploration state cap (a
/// truncated exploration is reported as a warning, never silently).
fn verify(args: &[String]) {
    let quick = args.iter().any(|a| a == "--quick");
    let cfg = obcs_verify::VerifyConfig {
        max_states: if quick { 5_000 } else { obcs_verify::VerifyConfig::default().max_states },
    };
    heading(&format!(
        "Static verification — lint + verify over committed artifacts ({} mode)",
        if quick { "quick" } else { "full" }
    ));

    let mut spaces: Vec<std::path::PathBuf> = std::fs::read_dir("artifacts")
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.ends_with("_space.json"))
                })
                .collect()
        })
        .unwrap_or_default();
    spaces.sort();
    if spaces.is_empty() {
        eprintln!("verify: no artifacts/*_space.json found — run `repro export` first");
        std::process::exit(1);
    }

    let mut errors = 0usize;
    let mut warnings = 0usize;
    for space_path in &spaces {
        let (space, kb, onto) = match obcs_lint::load_artifacts(space_path, None) {
            Ok(loaded) => loaded,
            Err(msg) => {
                eprintln!("verify: {msg}");
                std::process::exit(1);
            }
        };
        let mapping = obcs_nlq::OntologyMapping::infer(&onto, &kb);
        let lint_ctx = LintContext::new(&onto, &kb, &mapping, &space);
        let lint_report = run_all(&lint_ctx, &LintConfig::default());
        let verify_ctx = obcs_verify::VerifyContext::new(&onto, &kb, &mapping, &space);
        let verify_report = obcs_verify::run_all(&verify_ctx, &cfg);
        let flow = verify_ctx.flow(&cfg);
        println!(
            "{}: lint {} finding(s), verify {} finding(s) — flow explored {} states / {} edges{}",
            space_path.display(),
            lint_report.len(),
            verify_report.len(),
            flow.states,
            flow.edges,
            if flow.truncated { " (truncated)" } else { "" },
        );
        for report in [&lint_report, &verify_report] {
            if !report.is_empty() {
                print!("{}", report.render_text());
            }
            errors += report.count(obcs_lint::Severity::Error);
            warnings += report.count(obcs_lint::Severity::Warning);
        }
    }
    println!("verified {} space(s): {} error(s), {} warning(s)", spaces.len(), errors, warnings);
    if errors > 0 {
        eprintln!("verify: FAILED with {errors} error(s)");
        std::process::exit(1);
    }
    println!("verify OK");
}

fn heading(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

fn inventory(world: &World) {
    heading("§6 inventory — paper vs reproduction");
    let inv = world.space.inventory();
    println!("ontology concepts        paper 59   ours {}", world.onto.concept_count());
    println!("ontology properties      paper 178  ours {}", world.onto.data_property_count());
    println!("ontology relationships   paper 58   ours {}", world.onto.object_property_count());
    println!("lookup intents           paper 14   ours {}", inv.lookup_intents);
    println!("relationship intents     paper 8    ours {}", inv.relationship_intents);
    println!("management intents       paper 14   ours {}", inv.management_intents);
    println!("entity-only intents      paper (DRUG_GENERAL) ours {}", inv.entity_only_intents);
    println!("total intents            paper 36   ours {}", inv.intents_total);
    println!("entities                 paper 52   ours {}", inv.entities);
    println!("training examples                    ours {}", inv.training_examples);
    println!("query templates                      ours {}", inv.templates);
}

fn fig2(world: &World) {
    heading("Figure 2 — medical ontology snippet (Drug neighbourhood)");
    let drug = world.onto.concept_id("Drug").expect("Drug");
    println!("data properties of Drug:");
    for dp in world.onto.data_properties_of(drug) {
        println!("  Drug.{}", dp.name);
    }
    println!("relationships from Drug:");
    for op in world.onto.outgoing(drug) {
        println!("  Drug -[{}]-> {}", op.name, world.onto.concept_name(op.target));
    }
    let risk = world.onto.concept_id("Risk").expect("Risk");
    println!("union:");
    for m in world.onto.union_members(risk) {
        println!("  Risk = unionOf(... {})", world.onto.concept_name(m));
    }
    let di = world.onto.concept_id("DrugInteraction").expect("DrugInteraction");
    println!("inheritance:");
    for c in world.onto.is_a_children(di) {
        println!("  {} isA DrugInteraction", world.onto.concept_name(c));
    }
    println!("(full graph: obcs_ontology::dot::to_dot exports Graphviz)");
}

fn fig3(world: &World) {
    heading("Figure 3 — lookup pattern");
    let intent = world.space.intent_by_name("Precautions of Drug").expect("intent");
    let p = &intent.patterns()[0];
    println!("Pattern:  {}", p.render(&world.onto));
    println!("Query:    Show me the Precautions for Benazepril?");
}

fn fig4(world: &World) {
    heading("Figure 4 — lookup pattern with union augmentation");
    let intent = world.space.intent_by_name("Risks of Drug").expect("intent");
    for (i, p) in intent.patterns().iter().enumerate() {
        let label = if i == 0 { "Pattern:   " } else { "Augmented: " };
        println!("{label}{}", p.render(&world.onto));
    }
}

fn fig5(world: &World) {
    heading("Figure 5 — direct relationship pattern (forward + inverse)");
    for name in ["Drugs That Treat Condition", "Conditions Treated by Drug"] {
        let intent = world.space.intent_by_name(name).expect("intent");
        println!("{}", intent.patterns()[0].render(&world.onto));
    }
    println!("Query 1:  What Drug treats Fever?");
    println!("Query 2:  What Indications are treated by Aspirin?");
}

fn fig6(world: &World) {
    heading("Figure 6 — indirect relationship pattern via Dosage");
    for name in ["Drugs and Dosage for Condition", "Drug Dosage for Condition"] {
        let intent = world.space.intent_by_name(name).expect("intent");
        println!("{}", intent.patterns()[0].render(&world.onto));
    }
    println!("Query 1:  Give me the Drug and its Dosage that treats Fever");
    println!("Query 2:  Give me the Dosage for Aspirin that treats Fever");
}

fn fig7(world: &World, seed: u64) {
    heading("Figure 7 — auto-generated intent training examples");
    let intent = world.space.intent_by_name("Precautions of Drug").expect("intent");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let examples = generate_for_intent(
        intent,
        &world.onto,
        &world.kb,
        &world.mapping,
        &world.space.synonyms,
        TrainingGenConfig { examples_per_pattern: 6, ..Default::default() },
        &mut rng,
    );
    println!("Pattern: {}", intent.patterns()[0].render(&world.onto));
    for e in examples.iter().take(6) {
        println!("  {}", e.text);
    }
}

fn fig8(world: &World) {
    heading("Figure 8 — SME augmentation of training examples");
    let intent = world.space.intent_by_name("Dose Adjustments for Drug").expect("intent");
    let generated: Vec<&str> = world
        .space
        .training
        .iter()
        .filter(|e| e.intent == intent.id && e.source == ExampleSource::Generated)
        .map(|e| e.text.as_str())
        .take(4)
        .collect();
    let augmented: Vec<&str> = world
        .space
        .training
        .iter()
        .filter(|e| e.intent == intent.id && e.source == ExampleSource::SmeAugmented)
        .map(|e| e.text.as_str())
        .collect();
    println!("Auto-generated:");
    for g in generated {
        println!("  {g}");
    }
    println!("From prior user queries (SME-labelled):");
    for a in augmented {
        println!("  {a}");
    }
}

fn fig9(world: &World) {
    heading("Figure 9 — structured query template generation");
    let intent = world.space.intent_by_name("Precautions of Drug").expect("intent");
    let labeled = &world.space.templates_for(intent.id)[0];
    println!("Pattern:   {}", intent.patterns()[0].render(&world.onto));
    println!("Template:  {}", labeled.template.sql());
    // Prepared once, as the engine prepares it: each marker a parameter.
    let plan = labeled.template.prepare(&world.kb).expect("template binds");
    let bindings: Vec<String> = labeled
        .template
        .required_concepts()
        .iter()
        .enumerate()
        .map(|(i, &c)| format!("${i} = <@{}>", world.onto.concept_name(c)))
        .collect();
    println!("Plan:      {} ({})", plan.access_label(), bindings.join(", "));
    let rs = world.kb.execute(&plan, &[obcs_kb::Value::text("Ibuprofen")]).expect("execution");
    println!("Run:       $0 = 'Ibuprofen' -> {} rows", rs.rows.len());
    print!("{}", rs.render());
}

fn fig10(world: &World) {
    heading("Figure 10 — dialogue-tree slot filling");
    let mut mdx = world.agent();
    println!("(a) user input matches intent but lacks the required entity:");
    println!("U: show me drugs that treat psoriasis");
    let r = mdx.agent.respond("show me drugs that treat psoriasis");
    println!("A: {}   [{:?}]", r.text, r.kind);
    println!("(b) next input supplies the entity; the response fires:");
    println!("U: pediatric");
    let r = mdx.agent.respond("pediatric");
    let first = r.text.lines().next().unwrap_or_default();
    println!("A: {first} …   [{:?}]", r.kind);
}

fn table1(world: &World) {
    heading("Table 1 — sample entity population");
    let concepts: Vec<&str> =
        world.onto.concepts().iter().take(4).map(|c| c.name.as_str()).collect();
    println!("{:<18} | Examples", "Entity");
    println!("{:<18} | {} … [Ontology Concepts]", "Concepts", concepts.join(", "));
    let risk = world.onto.concept_id("Risk").expect("Risk");
    let members: Vec<&str> =
        world.onto.union_members(risk).iter().map(|&m| world.onto.concept_name(m)).collect();
    println!("{:<18} | {} [Concepts under Risk]", "Risk", members.join(", "));
    let di = world.onto.concept_id("DrugInteraction").expect("DI");
    let children: Vec<&str> =
        world.onto.is_a_children(di).iter().map(|&m| world.onto.concept_name(m)).collect();
    println!(
        "{:<18} | {} [Concepts under Drug Interaction]",
        "Drug Interaction",
        children.join(", ")
    );
    let drug_entity = world
        .space
        .entities
        .iter()
        .find(|e| world.onto.concept_name(e.concept) == "Drug")
        .expect("drug entity");
    let ex: Vec<&str> = drug_entity.examples.iter().take(4).map(String::as_str).collect();
    println!("{:<18} | {} … [Instances of Drug]", "Drug", ex.join(", "));
}

fn table2(world: &World) {
    heading("Table 2 — sample entity synonyms");
    println!("{:<18} | Synonyms", "Entity");
    for canonical in ["Adverse Effect", "Condition", "Drug", "Precaution", "Dose Adjustment"] {
        let syns = world.space.synonyms.synonyms_of(canonical);
        println!("{canonical:<18} | {}", syns.join(", "));
    }
}

fn table3(seed: u64) {
    heading("Table 3 — generic dialogue logic table (mini Figure-2 domain)");
    let (onto, kb, mapping) = obcs_core::testutil::fig2_fixture();
    let space = obcs_core::bootstrap(
        &onto,
        &kb,
        &mapping,
        obcs_core::BootstrapConfig {
            training: TrainingGenConfig { seed, ..Default::default() },
            ..Default::default()
        },
        &obcs_core::SmeFeedback::new(),
    );
    let table = DialogueLogicTable::from_space(&space, &onto);
    print!("{}", table.render(&onto));
}

fn table4(world: &World) {
    heading("Table 4 — MDX dialogue logic table (three request kinds)");
    let table = DialogueLogicTable::from_space(&world.space, &world.onto);
    let rows: Vec<_> = table
        .rows
        .iter()
        .filter(|r| {
            ["Drugs That Treat Condition", "Drug Dosage for Condition", "Drug-Drug Interactions"]
                .contains(&r.intent_name.as_str())
        })
        .cloned()
        .collect();
    let filtered = DialogueLogicTable { rows };
    print!("{}", filtered.render(&world.onto));
}

fn evaluation(world: &World, seed: u64, interactions: usize, cmd: &str) {
    let mut mdx = world.agent();
    let outcome = run_traffic(
        &mut mdx.agent,
        &world.onto,
        &world.pools,
        SimConfig { interactions, seed, ..SimConfig::default() },
    );
    let want = |name: &str| cmd == name || cmd == "all";

    if want("table5") || want("summary") {
        let (report, rows) = classifier_evaluation(
            &world.space,
            &world.onto,
            &world.kb,
            &world.mapping,
            &outcome,
            12,
            seed,
        );
        if want("table5") {
            heading("Table 5 — top-10 intent usage and F1 (paper: avg F1 0.85)");
            println!("{:<36} {:>6} {:>6}   (paper usage / F1)", "Intent", "usage", "F1");
            let paper: &[(&str, &str, &str)] = &[
                ("Drug Dosage for Condition", "15%", "0.85"),
                ("Administration of Drug", "12%", "0.88"),
                ("IV Compatibility of Drug", "11%", "0.86"),
                ("Drugs That Treat Condition", "10%", "0.82"),
                ("Uses of Drug", "9%", "0.99"),
                ("Adverse Effects of Drug", "5%", "0.84"),
                ("Drug-Drug Interactions", "4%", "0.88"),
                ("DRUG_GENERAL", "4%", "0.65"),
                ("Dose Adjustments for Drug", "3%", "0.95"),
                ("Regulatory Status for Drug", "2%", "0.93"),
            ];
            for row in &rows {
                let reference = paper
                    .iter()
                    .find(|(n, _, _)| *n == row.intent)
                    .map(|(_, u, f)| format!("({u} / {f})"))
                    .unwrap_or_default();
                println!(
                    "{:<36} {:>5.1}% {:>6.2}   {reference}",
                    row.intent,
                    row.usage * 100.0,
                    row.f1
                );
            }
            println!(
                "macro F1 over all 36 intents: {:.3} (paper reports avg 0.85)",
                report.macro_f1
            );
        }
        if want("summary") {
            heading("§7 summary scalars — paper vs reproduction");
            println!("avg intent F1            paper 0.85    ours {:.3}", report.macro_f1);
            println!(
                "overall success rate     paper 96.3%   ours {:.1}%",
                outcome.success_rate() * 100.0
            );
            let (_, sme_rate, user_rate) = fig12(&outcome, 0.10, 10, seed);
            println!("10% sample, user rate    paper 97.9%   ours {:.1}%", user_rate * 100.0);
            println!("10% sample, SME rate     paper 90.8%   ours {:.1}%", sme_rate * 100.0);
        }
    }
    if want("fig11") {
        heading("Figure 11 — success rate per intent (user feedback, top 10)");
        let (rows, overall) = fig11(&outcome, 10);
        print!("{}", render_success_rows(&rows));
        println!("overall success rate: {:.1}% (paper: 96.3%)", overall * 100.0);
    }
    if want("fig12") {
        heading("Figure 12 — success rate per intent (SME-judged 10% sample, top 10)");
        let (rows, sme_rate, user_rate) = fig12(&outcome, 0.10, 10, seed);
        print!("{}", render_success_rows(&rows));
        println!(
            "sample rates — SME: {:.1}% (paper 90.8%)   user feedback: {:.1}% (paper 97.9%)",
            sme_rate * 100.0,
            user_rate * 100.0
        );
    }
}

fn transcript(world: &World) {
    heading("§6.3 transcripts replayed against the reproduction");
    let mut mdx = world.agent();
    let say = |mdx: &mut obcs_mdx::ConversationalMdx, u: &str| {
        let r = mdx.agent.respond(u);
        println!("U: {u}");
        let first = r.text.lines().take(2).collect::<Vec<_>>().join(" | ");
        println!("A: {first}");
        r
    };
    println!("--- MDX sample conversation (§6.3) ---");
    say(&mut mdx, "show me drugs that treat psoriasis");
    say(&mut mdx, "adult");
    say(&mut mdx, "I mean pediatric");
    say(&mut mdx, "what do you mean by effective?");
    say(&mut mdx, "thanks");
    say(&mut mdx, "dosage for Tazarotene");
    say(&mut mdx, "how about for Fluocinonide?");
    say(&mut mdx, "no");
    say(&mut mdx, "goodbye");

    println!("\n--- User 480 (keyword search) ---");
    let mut mdx = world.agent();
    say(&mut mdx, "cogentin");
    say(&mut mdx, "What are the side effects of cogentin");
    say(&mut mdx, "no");
    let r = say(&mut mdx, "cogentin adverse effects");
    assert_eq!(r.kind, ReplyKind::Fulfilment, "final request fulfils");
}

fn ablation_centrality(world: &World) {
    heading("Ablation — key-concept identification: centrality measure × nameability");
    use obcs_core::concepts::{identify_key_concepts, KeyConceptConfig};
    use obcs_ontology::centrality::CentralityMeasure;
    for measure in
        [CentralityMeasure::Degree, CentralityMeasure::PageRank, CentralityMeasure::Betweenness]
    {
        for nameable in [true, false] {
            let keys = identify_key_concepts(
                &world.onto,
                &world.mapping,
                KeyConceptConfig { measure, require_nameable: nameable, ..Default::default() },
            );
            let names: Vec<&str> = keys.iter().map(|&k| world.onto.concept_name(k)).collect();
            println!("{measure:?} nameable={nameable}: {} keys → {:?}", keys.len(), names);
        }
    }
    println!("(the paper's key concepts for MDX are Drug and Condition)");
}

fn ablation_training(seed: u64) {
    heading("Ablation — training volume vs classifier F1 (mini domain)");
    let (onto, kb, mapping) = obcs_core::testutil::fig2_fixture();
    for per_pattern in [2usize, 4, 8, 16, 32] {
        let space = obcs_core::bootstrap(
            &onto,
            &kb,
            &mapping,
            obcs_core::BootstrapConfig {
                training: TrainingGenConfig {
                    examples_per_pattern: per_pattern,
                    seed,
                    ..Default::default()
                },
                ..Default::default()
            },
            &obcs_core::SmeFeedback::new(),
        );
        // Hold-out split over the generated examples.
        let mut data = obcs_classifier::Dataset::new();
        for e in &space.training {
            if let Some(i) = space.intent(e.intent) {
                data.push(e.text.clone(), i.name.clone());
            }
        }
        let (train, test) = obcs_classifier::split::stratified_split(&data, 0.3, seed);
        let model = obcs_classifier::naive_bayes::NaiveBayes::train(&train, Default::default());
        use obcs_classifier::Classifier;
        let predicted: Vec<String> = test.texts.iter().map(|t| model.predict(t).label).collect();
        let report = obcs_classifier::metrics::evaluate(&test.labels, &predicted);
        println!(
            "examples/pattern {per_pattern:>3}: {} examples, held-out macro F1 {:.3}",
            data.len(),
            report.macro_f1
        );
    }
}

fn ablation_synonyms(world: &World) {
    heading("Ablation — synonym population on/off (entity-recognition recall)");
    use obcs_nlq::annotate::Lexicon;
    let probes = [
        ("side effects of aspirin", "Adverse Effect concept"),
        ("meds for fever", "Drug concept"),
        ("overdose of tylenol", "Toxicology concept"),
        ("cogentin interactions", "brand-name instance"),
    ];
    // Without synonyms: the raw lexicon.
    let bare = Lexicon::build(&world.onto, &world.kb, &world.mapping);
    // With synonyms: the assembled agent's NLU lexicon.
    let mdx = world.agent();
    let rich = mdx.agent.space();
    let _ = rich;
    let nlu_rich =
        obcs_agent::nlu::Nlu::from_space(&world.space, &world.onto, &world.kb, &world.mapping);
    println!("{:<32} {:>12} {:>12}", "probe", "no synonyms", "with synonyms");
    for (probe, _) in probes {
        let without = bare.annotate(probe).len();
        let with = nlu_rich.lexicon().annotate(probe).len();
        println!("{probe:<32} {without:>12} {with:>12}");
    }
}

fn ablation_augmentation(world: &World) {
    heading("Ablation — union/inheritance pattern augmentation");
    let risk_intent = world.space.intent_by_name("Risks of Drug").expect("risks");
    let with = world.space.templates_for(risk_intent.id).len();
    println!(
        "Risks of Drug: {} patterns / {} templates with augmentation (1 without)",
        risk_intent.patterns().len(),
        with
    );
    let mut mdx = world.agent();
    let r = mdx.agent.respond("black box warning for Aspirin");
    println!(
        "\"black box warning for Aspirin\" → kind {:?} (member concept reachable only via augmentation)",
        r.kind
    );
    let idx = world.space.intents.iter().filter(|i| i.patterns().len() > 1).count();
    println!("{idx} intents carry augmented pattern groups");
}

/// Writes the offline artifacts to `artifacts/`: the uploadable
/// conversation space (the paper uploads these artifacts to Watson
/// Assistant), the ontology as OWL/Turtle and Graphviz DOT, and the
/// synthetic KB.
/// Runs the obcs-lint pass over the freshly bootstrapped world and prints
/// the report.
fn lint_report(world: &World) -> obcs_lint::DiagnosticSet {
    heading("Static analysis — obcs-lint over the artifact chain");
    let ctx = LintContext::new(&world.onto, &world.kb, &world.mapping, &world.space);
    let report = run_all(&ctx, &LintConfig::default());
    print!("{}", report.render_text());
    report
}

/// `repro export [--drugs N] [--dir DIR]`
///
/// Lint-gates and writes the offline artifact chain. `--dir` (default
/// `artifacts`) redirects the output, which ci.sh uses to materialise a
/// large-world space under `target/` and bind-check it at scale without
/// touching the committed artifacts.
fn export(world: &World, dir: &str) {
    heading(&format!("Exporting offline artifacts to {dir}/"));
    // Deny gate: never export an artifact chain with lint errors.
    let report = lint_report(world);
    if let Err(msg) = report.gate(false) {
        eprintln!("export aborted: {msg}");
        std::process::exit(1);
    }
    // The library custom domain ships alongside MDX so the gates always
    // exercise a data-driven (non-built-in) ontology path too.
    let (lib_onto, lib_kb, lib_mapping, lib_space) = obcs_bench::library::library_world();
    let lib_ctx = LintContext::new(&lib_onto, &lib_kb, &lib_mapping, &lib_space);
    let lib_report = run_all(&lib_ctx, &LintConfig::default());
    if let Err(msg) = lib_report.gate(false) {
        print!("{}", lib_report.render_text());
        eprintln!("export aborted (library domain): {msg}");
        std::process::exit(1);
    }
    std::fs::create_dir_all(dir).expect("create artifacts dir");
    let writes: &[(String, String)] = &[
        (format!("{dir}/mdx_space.json"), world.space.to_json()),
        (format!("{dir}/mdx_ontology.ttl"), obcs_ontology::turtle::to_turtle(&world.onto)),
        (format!("{dir}/mdx_ontology.dot"), obcs_ontology::dot::to_dot(&world.onto)),
        (format!("{dir}/mdx_kb.json"), world.kb.to_json()),
        (format!("{dir}/library_space.json"), lib_space.to_json()),
        (format!("{dir}/library_kb.json"), lib_kb.to_json()),
    ];
    for (path, content) in writes {
        std::fs::write(path, content).expect("write artifact");
        println!("wrote {path} ({} bytes)", content.len());
    }
}

fn ablation_classifier(world: &World, seed: u64) {
    heading("Ablation — Naive Bayes vs logistic regression on the same bootstrapped data");
    use obcs_classifier::logreg::{LogReg, LogRegConfig};
    use obcs_classifier::naive_bayes::{NaiveBayes, NaiveBayesConfig};
    use obcs_classifier::Classifier;
    use obcs_sim::utterance::generate;

    // Shared masked training set.
    let nlu =
        obcs_agent::nlu::Nlu::from_space(&world.space, &world.onto, &world.kb, &world.mapping);
    let mut data = obcs_classifier::Dataset::new();
    for e in &world.space.training {
        if let Some(i) = world.space.intent(e.intent) {
            data.push(nlu.lexicon().mask(&e.text, &world.onto), i.name.clone());
        }
    }
    let nb = NaiveBayes::train(&data, NaiveBayesConfig::default());
    let lr = LogReg::train(&data, LogRegConfig { seed, ..Default::default() });

    // Shared simulated-user test set.
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xab1a);
    let mut gold = Vec::new();
    let mut masked = Vec::new();
    for (intent, _) in obcs_sim::traffic::INTENT_MIX {
        for _ in 0..10 {
            let text = generate(intent, &world.pools, &mut rng).expect("templates");
            gold.push(intent.to_string());
            masked.push(nlu.lexicon().mask(&text, &world.onto));
        }
    }
    for (name, predict) in [
        ("naive bayes", Box::new(|t: &str| nb.predict(t).label) as Box<dyn Fn(&str) -> String>),
        ("logistic regression", Box::new(|t: &str| lr.predict(t).label)),
    ] {
        let predicted: Vec<String> = masked.iter().map(|t| predict(t)).collect();
        let report = obcs_classifier::metrics::evaluate(&gold, &predicted);
        println!("{name:<22} macro F1 {:.3}  accuracy {:.3}", report.macro_f1, report.accuracy);
    }
}

fn ablation_feedback_loop(world: &World) {
    heading("Future work (§9) — learning from usage logs");
    let mut mdx = world.agent();
    let probe = "gimme the lowdown on hazards of Aspirin";
    let before = mdx.agent.respond(probe);
    println!("before retraining: {:?} → {:?}", probe, before.kind);
    mdx.agent.retrain_with(&[
        (probe.to_string(), "Risks of Drug".to_string()),
        ("lowdown on hazards of Ibuprofen".to_string(), "Risks of Drug".to_string()),
        ("the lowdown on hazards please".to_string(), "Risks of Drug".to_string()),
    ]);
    mdx.agent.reset();
    let after = mdx.agent.respond(probe);
    let name = after.intent.and_then(|id| mdx.agent.space().intent(id)).map(|i| i.name.clone());
    println!("after SME-labelled retraining: {:?} → {:?} ({:?})", probe, after.kind, name);
}

fn ablation_sessions(world: &World, seed: u64) {
    heading("Ablation — persistent context under longer sessions");
    println!("mean session length vs SME accuracy and user-feedback success (1500 interactions):");
    for mean in [1.0f64, 2.0, 4.0, 8.0] {
        let mut mdx = world.agent();
        let outcome = run_traffic(
            &mut mdx.agent,
            &world.onto,
            &world.pools,
            SimConfig {
                interactions: 1500,
                seed,
                mean_session_length: mean,
                ..SimConfig::default()
            },
        );
        println!(
            "  mean {mean:>3.0} requests/session: SME accuracy {:.1}%  user success {:.1}%",
            outcome.accuracy() * 100.0,
            outcome.success_rate() * 100.0
        );
    }
    println!(
        "(persistent context enables §6.3-style follow-ups; stale entities cost a little accuracy)"
    );
}

#[cfg(test)]
mod tests {
    #[test]
    fn flag_parsing() {
        let args: Vec<String> =
            vec!["table5".into(), "--seed".into(), "7".into(), "--drugs".into(), "99".into()];
        assert_eq!(super::flag(&args, "--seed"), Some(7));
        assert_eq!(super::flag(&args, "--drugs"), Some(99));
        assert_eq!(super::flag(&args, "--interactions"), None);
    }
}
