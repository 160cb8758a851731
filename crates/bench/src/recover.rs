//! The durability benchmark behind `repro recover` (DESIGN.md §16): a
//! kill-style restart over a real snapshot + WAL pair. The pass seeds a
//! durability directory from the MDX world, logs a mutation tail (bulk
//! `risk` inserts plus an index build), drops the handle *without* a
//! snapshot, corrupts the log's tail with garbage bytes, and then times
//! recovery — asserting the recovered KB matches a live oracle that
//! applied the same mutations: same JSON image, same index count, same
//! access paths. Recovery is compared with rebuilding the same KB from
//! the data generator (`recover_vs_rebuild`), each side timed
//! [`TIMED_RUNS`] times and gated on the medians.
//! A `recover_compact` stage times one compaction (`DurableKb::snapshot`:
//! stream the snapshot to tmp, rename, reset the WAL) over the
//! recovered state. Finally a server started over the recovered
//! directory replays a deterministic script and its replies are
//! asserted byte-identical to a server holding the original KB — the
//! same equality-before-speed contract every other stage follows. The
//! timed stages join the `repro perf` report under the usual regression
//! ceiling in `BENCH_perf.json`. Two ungated readings describe the log
//! codec: the log's bytes per record, and the replay alone (decode and
//! apply onto the loaded snapshot) per record.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use obcs_kb::snapshot::read_snapshot;
use obcs_kb::{DurableKb, Value, Wal, SNAPSHOT_FILE, WAL_FILE};
use obcs_mdx::data::build_mdx_kb;
use obcs_serve::protocol::encode_line;
use obcs_serve::{Client, DurabilityConfig, ServeConfig, Server};
use obcs_sim::traffic::INTENT_MIX;
use obcs_sim::utterance::generate;

use crate::perf::{Comparison, PerfOptions, Timing};
use crate::World;

/// Committed floor for the `recover_vs_rebuild` comparison. In the
/// quick profile the 60-drug generator is about as cheap as recovery
/// itself (both a handful of ms), so the floor does not demand a win —
/// it demands recovery never become *materially slower* than throwing
/// the directory away and regenerating the world, which is the point
/// where durability stops paying for itself.
pub const RECOVER_VS_REBUILD_FLOOR: f64 = 0.5;

/// How many times each side of `recover_vs_rebuild` is timed; the
/// medians are compared, so one scheduler stall cannot fail the floor.
pub const TIMED_RUNS: usize = 5;

/// The median of `times` (the upper one for an even count).
fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// What one `repro recover` run produced: the gated timings plus the
/// raw recovery numbers the report prints.
pub struct RecoverBenchOutcome {
    /// Stages for the perf report (`recover_` prefix).
    pub timings: Vec<Timing>,
    /// The recover-vs-rebuild comparison (`recover_` prefix).
    pub comparisons: Vec<Comparison>,
    /// WAL records replayed by the timed recovery.
    pub wal_records: usize,
    /// Garbage tail bytes the recovery truncated (must be non-zero: the
    /// pass always tears the log before recovering).
    pub wal_truncated_bytes: u64,
    /// Median wall time of the timed recoveries, ms.
    pub recover_ms: f64,
    /// Wall time of one compaction over the recovered state, ms.
    pub compact_ms: f64,
    /// Median wall time of rebuilding the same KB from the data
    /// generator, ms.
    pub rebuild_ms: f64,
    /// Turns in the byte-identity script served by both servers.
    pub identity_turns: usize,
    /// Bytes of the intact log (header and frames) the recoveries read.
    pub wal_bytes: u64,
    /// Median wall time of replaying the log alone — decode and apply
    /// onto the already loaded snapshot — ms.
    pub replay_ms: f64,
}

/// Copies the snapshot and log of `from` into a fresh directory `to`.
fn copy_dir(from: &Path, to: PathBuf) -> PathBuf {
    std::fs::remove_dir_all(&to).ok();
    std::fs::create_dir_all(&to).expect("recover bench: copy dir");
    for f in [SNAPSHOT_FILE, WAL_FILE] {
        std::fs::copy(from.join(f), to.join(f)).expect("recover bench: copy file");
    }
    to
}

/// Deterministic script for the recovered-server identity check — same
/// shape as the serve bench: a greeting, generated domain utterances
/// over the intent mix, and a gibberish repair turn.
fn identity_script(world: &World, seed: u64) -> Vec<String> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x4ec0);
    let mut script = vec!["hello".to_string()];
    for (name, _) in INTENT_MIX.iter().take(10) {
        if let Some(utterance) = generate(name, &world.pools, &mut rng) {
            script.push(utterance);
        }
    }
    script.push("asdf qwerty zxcv".to_string());
    script
}

/// Replay `script` on a fresh session against `server`, returning each
/// reply's full encoded wire line.
fn replay(server: &Server, script: &[String]) -> Vec<String> {
    let mut client = Client::connect(server.addr()).expect("recover bench: connect");
    let lines = script
        .iter()
        .map(|utt| encode_line(&client.turn("recover-identity", utt).expect("recover bench: turn")))
        .collect();
    client.end("recover-identity").expect("recover bench: end session");
    lines
}

/// Run the durability benchmark. Panics on any recovery divergence from
/// the live oracle or on served-reply divergence — a run with either is
/// not a benchmark.
pub fn run(opts: &PerfOptions) -> RecoverBenchOutcome {
    let world = if opts.quick { World::small(opts.seed) } else { World::full(opts.seed) };
    let drugs = world.config.drugs as i64;
    let tail_inserts: usize = if opts.quick { 240 } else { 1200 };

    let dir: PathBuf = std::env::temp_dir().join(format!(
        "obcs_recover_bench_{}_{}",
        std::process::id(),
        opts.seed
    ));
    std::fs::remove_dir_all(&dir).ok();

    // ---- rebuild twin: the same KB from the data generator ---------
    let rebuild_ms = median(
        (0..TIMED_RUNS)
            .map(|_| {
                let t = Instant::now();
                let rebuilt = build_mdx_kb(world.config);
                let ms = t.elapsed().as_secs_f64() * 1000.0;
                assert!(rebuilt.has_table("risk"), "recover bench: generator produced the schema");
                ms
            })
            .collect(),
    );

    // ---- seed the durability directory from the bootstrapped KB ----
    let seeded = world.kb.clone();
    let t = Instant::now();
    let mut durable = DurableKb::create(&dir, seeded).expect("recover bench: create");
    let snapshot_write_ms = t.elapsed().as_secs_f64() * 1000.0;

    // ---- mutation tail: bulk inserts + an index build --------------
    let t = Instant::now();
    for i in 0..tail_inserts {
        durable
            .insert(
                "risk",
                vec![
                    Value::Int(1_000_000 + i as i64),
                    Value::Int(i as i64 % drugs),
                    Value::text(format!("recovered-tail risk {i}")),
                    Value::text(format!("post-snapshot summary {i}")),
                    Value::text(if i % 2 == 0 { "low" } else { "high" }),
                    Value::text("see monograph"),
                ],
            )
            .expect("recover bench: tail insert");
    }
    let index_created =
        durable.create_index("risk", "severity_note").expect("recover bench: tail index");
    durable.sync().expect("recover bench: sync");
    let wal_append_ms = t.elapsed().as_secs_f64() * 1000.0;
    let expected_records = tail_inserts + usize::from(index_created);
    assert_eq!(durable.pending_records(), expected_records);

    // ---- kill-style exit: no snapshot, then tear the log tail ------
    let wal_path = durable.wal_path().to_path_buf();
    let wal_bytes = std::fs::metadata(&wal_path).expect("recover bench: stat the log").len();
    let oracle = durable.into_kb();
    let garbage: &[u8] = &[0xde, 0xad, 0xbe, 0xef, 0x00, 0x7f, 0x01];
    std::fs::OpenOptions::new()
        .append(true)
        .open(&wal_path)
        .and_then(|mut f| f.write_all(garbage))
        .expect("recover bench: tear the tail");

    // The first open truncates the torn tail, so every timed open but
    // the last recovery reads its own torn copy of the directory; the
    // last recovery opens `dir` itself, which the checks below go on to
    // use.
    let torn_copy = |i: usize| {
        let name = format!("obcs_recover_bench_torn{i}_{}_{}", std::process::id(), opts.seed);
        copy_dir(&dir, dir.with_file_name(name))
    };

    // ---- the replay alone (ungated) --------------------------------
    // The snapshot is loaded untimed, then the log is decoded and
    // applied onto it, as recovery does.
    let replay_ms = median(
        (0..TIMED_RUNS)
            .map(|i| {
                let copy = torn_copy(i);
                let (mut kb, _) =
                    read_snapshot(&copy.join(SNAPSHOT_FILE)).expect("recover bench: snapshot");
                let mut replayed = 0;
                let t = Instant::now();
                Wal::open(copy.join(WAL_FILE), |_, record| {
                    record.apply(&mut kb)?;
                    replayed += 1;
                    Ok(())
                })
                .expect("recover bench: replay");
                let ms = t.elapsed().as_secs_f64() * 1000.0;
                assert_eq!(replayed, expected_records, "the replay reads every tail record");
                std::fs::remove_dir_all(&copy).ok();
                ms
            })
            .collect(),
    );

    // ---- timed recoveries ------------------------------------------
    let mut recover_times = Vec::with_capacity(TIMED_RUNS);
    for i in 1..TIMED_RUNS {
        let copy = torn_copy(i);
        let t = Instant::now();
        let (copy_kb, copy_report) = DurableKb::open(&copy).expect("recover bench: recover copy");
        recover_times.push(t.elapsed().as_secs_f64() * 1000.0);
        assert_eq!(copy_report.wal_records, expected_records, "every copy replays the tail");
        drop(copy_kb);
        std::fs::remove_dir_all(&copy).ok();
    }
    let t = Instant::now();
    let (recovered, report) = DurableKb::open(&dir).expect("recover bench: recover");
    recover_times.push(t.elapsed().as_secs_f64() * 1000.0);
    let recover_ms = median(recover_times);

    assert!(report.snapshot_loaded, "recover bench: the seed snapshot must load");
    assert_eq!(report.wal_records, expected_records, "every intact tail record replays");
    assert_eq!(report.wal_truncated_bytes, garbage.len() as u64, "the torn tail is truncated");
    let recovered = recovered.into_kb();
    assert_eq!(recovered.index_count(), oracle.index_count(), "secondary indexes restored");
    assert_eq!(recovered.to_json(), oracle.to_json(), "recovered KB is byte-identical");
    // The replayed tail is live data, not just bytes: a marker row the
    // pre-tail world never had answers through the recovered KB, with
    // the same access path the oracle uses.
    let marker = "SELECT description FROM risk WHERE risk_id = 1000001";
    assert_eq!(recovered.query(marker).expect("marker query").rows.len(), 1);
    assert_eq!(world.kb.query(marker).expect("marker query").rows.len(), 0);
    for probe in [marker, "SELECT summary FROM risk WHERE severity_note = 'high'"] {
        assert_eq!(
            recovered.prepare(probe).expect("plan").access_label(),
            oracle.prepare(probe).expect("plan").access_label(),
            "access path diverged on {probe:?}"
        );
    }

    // ---- timed compaction over the recovered state -----------------
    // Runs on a copy of the recovered directory so the main directory
    // keeps its replayable tail for the server-startup check below. One
    // `snapshot()` is a whole compaction: stream the image to a tmp
    // file, rename-commit at the next epoch, reset the WAL.
    let compact_dir = copy_dir(
        &dir,
        dir.with_file_name(format!(
            "obcs_recover_bench_compact_{}_{}",
            std::process::id(),
            opts.seed
        )),
    );
    let (mut compactable, creport) =
        DurableKb::open(&compact_dir).expect("recover bench: compact open");
    assert_eq!(creport.wal_records, expected_records);
    let compact_epoch = compactable.epoch();
    let t = Instant::now();
    compactable.snapshot().expect("recover bench: compaction");
    let compact_ms = t.elapsed().as_secs_f64() * 1000.0;
    assert_eq!(compactable.pending_records(), 0, "compaction empties the log");
    assert_eq!(compactable.epoch(), compact_epoch + 1, "compaction bumps the epoch");
    let compacted = compactable.into_kb();
    let (reopened, rreport) = DurableKb::open(&compact_dir).expect("recover bench: compact reopen");
    assert_eq!(rreport.wal_records, 0, "a compacted directory replays nothing");
    assert_eq!(rreport.epoch, compact_epoch + 1);
    assert_eq!(reopened.into_kb().to_json(), compacted.to_json(), "compaction lost nothing");
    std::fs::remove_dir_all(&compact_dir).ok();

    // ---- byte-identity: recovered server vs original server --------
    let script = identity_script(&world, opts.seed);
    let mut original_agent = world.agent().agent;
    original_agent.set_kb(oracle);
    let mut original_server = Server::start(original_agent, ServeConfig::default())
        .expect("recover bench: bind original");
    let expected_lines = replay(&original_server, &script);
    original_server.shutdown();

    // The recovered server starts from a *stale* agent (bootstrap-era
    // KB); startup recovery must bring its replies up to the original.
    let config = ServeConfig { durability: Some(DurabilityConfig::at(&dir)), ..Default::default() };
    let mut recovered_server =
        Server::start(world.agent().agent, config).expect("recover bench: bind recovered");
    let startup = recovered_server.recovery().expect("recover bench: startup recovery").clone();
    assert_eq!(startup.wal_records, expected_records, "server recovery replays the same tail");
    assert_eq!(startup.wal_truncated_bytes, 0, "the first recovery already truncated the tear");
    let served_lines = replay(&recovered_server, &script);
    recovered_server.shutdown();
    assert_eq!(
        served_lines, expected_lines,
        "recovered-server replies must be byte-identical to the original server"
    );

    std::fs::remove_dir_all(&dir).ok();

    let timings = vec![
        Timing {
            name: "recover_snapshot_write".to_string(),
            work: format!("{}-drug world snapshot", world.config.drugs),
            ms: snapshot_write_ms,
        },
        Timing {
            name: "recover_wal_append".to_string(),
            work: format!("{expected_records} records + fsync"),
            ms: wal_append_ms,
        },
        Timing {
            name: "recover_compact".to_string(),
            work: format!("compaction @ {expected_records} records"),
            ms: compact_ms,
        },
    ];
    let ratio = |before: f64, after: f64| if after > 0.0 { before / after } else { f64::INFINITY };
    let comparisons = vec![Comparison {
        name: "recover_vs_rebuild".to_string(),
        work: format!("snapshot + {expected_records} records, median of {TIMED_RUNS}"),
        before_ms: rebuild_ms,
        after_ms: recover_ms,
        speedup: ratio(rebuild_ms, recover_ms),
        min_speedup: Some(RECOVER_VS_REBUILD_FLOOR),
    }];
    RecoverBenchOutcome {
        timings,
        comparisons,
        wal_records: expected_records,
        wal_truncated_bytes: garbage.len() as u64,
        recover_ms,
        compact_ms,
        rebuild_ms,
        identity_turns: script.len(),
        wal_bytes,
        replay_ms,
    }
}
