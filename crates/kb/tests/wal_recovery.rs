//! Torn-file recovery properties (DESIGN.md §16), for both durability
//! files. The WAL side: a log cut at *any* byte offset recovers to a
//! prefix-consistent KB — exactly the records whose frames survived in
//! full, never a panic, never a half-applied record. The deterministic
//! test walks every byte offset of the final record's frame; the
//! property test cuts at arbitrary offsets over arbitrary insert
//! batches so cut points interact with varied frame sizes. The snapshot
//! side is the opposite contract: snapshot commits are atomic (tmp +
//! rename), so a binary snapshot cut at *any* byte offset is hard
//! `Corrupt` — never a silent partial load. A property test also pins
//! a snapshot to its original: the image loads back observationally
//! identical (rows, index policy, planner access labels). A last
//! property test logs rows of every value kind, with their edge cases,
//! through `DurableKb` and recovers them from the log alone: the codec
//! the log shares with the snapshot must lose nothing.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use obcs_kb::schema::{ColumnType, TableSchema};
use obcs_kb::snapshot::{read_snapshot, write_snapshot};
use obcs_kb::{DurabilityError, DurableKb, KnowledgeBase, Value, Wal, WalRecord};
use proptest::prelude::*;

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("obcs_walrec_{}_{tag}_{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Writes `records` to a fresh WAL at `path`, returning the file length
/// after each record (frame boundaries, starting with the 16-byte v2
/// header: magic + epoch).
fn write_wal(path: &Path, records: &[WalRecord]) -> Vec<u64> {
    let (mut wal, _) =
        Wal::open(path, |_, _| panic!("a fresh log replays nothing")).expect("fresh wal");
    let mut boundaries = vec![16u64];
    for r in records {
        wal.append(r).expect("append");
        wal.sync().expect("sync");
        boundaries.push(std::fs::metadata(path).expect("stat").len());
    }
    boundaries
}

/// KB states after applying each prefix of `records`: `oracles[k]` is
/// the serialized KB after records `0..k`.
fn prefix_oracles(records: &[WalRecord]) -> Vec<String> {
    let mut kb = KnowledgeBase::new();
    let mut oracles = vec![kb.to_json()];
    for r in records {
        r.clone().apply(&mut kb).expect("oracle apply");
        oracles.push(kb.to_json());
    }
    oracles
}

fn sample_records(inserts: &[(i64, String)]) -> Vec<WalRecord> {
    let mut records = vec![WalRecord::CreateTable(
        TableSchema::new("drug")
            .column("drug_id", ColumnType::Int)
            .column("name", ColumnType::Text)
            .primary_key("drug_id"),
    )];
    for (id, name) in inserts {
        records.push(WalRecord::Insert {
            table: "drug".to_string(),
            row: vec![Value::Int(*id), Value::text(name.clone())],
        });
    }
    records.push(WalRecord::CreateIndex { table: "drug".to_string(), column: "name".to_string() });
    records.push(WalRecord::AutoIndex);
    records
}

/// Recovery from a WAL whose file was cut to `cut` bytes must yield the
/// KB of the longest record prefix whose frames fit within the cut.
fn assert_prefix_consistent(
    dir: &Path,
    full: &[u8],
    cut: usize,
    boundaries: &[u64],
    oracles: &[String],
) {
    let wal_path = dir.join(format!("cut_{cut}.wal"));
    std::fs::write(&wal_path, &full[..cut]).expect("write cut file");
    let (kb, report) = KnowledgeBase::recover_from(dir.join("no_snapshot"), &wal_path)
        .expect("torn tails recover, never error");
    let survivors = boundaries.iter().filter(|b| **b <= cut as u64).count() - 1;
    assert_eq!(report.wal_records, survivors, "cut at {cut}");
    assert_eq!(report.wal_truncated_bytes, cut as u64 - boundaries[survivors], "cut at {cut}");
    assert_eq!(
        kb.to_json(),
        oracles[survivors],
        "cut at {cut}: state must match the {survivors}-record prefix"
    );
    // The truncation is persisted: a second recovery replays the same
    // prefix cleanly with nothing left to truncate.
    let (_, again) =
        KnowledgeBase::recover_from(dir.join("no_snapshot"), &wal_path).expect("second recovery");
    assert_eq!(again.wal_records, survivors);
    assert_eq!(again.wal_truncated_bytes, 0, "first recovery already truncated the tail");
    std::fs::remove_file(&wal_path).ok();
}

#[test]
fn every_byte_offset_of_the_final_record_recovers_the_prefix() {
    let dir = temp_dir("final_record");
    let inserts: Vec<(i64, String)> =
        (0..8).map(|i| (i, format!("Drug{i} with a name long enough to matter"))).collect();
    let records = sample_records(&inserts);
    let wal_path = dir.join("full.wal");
    let boundaries = write_wal(&wal_path, &records);
    let oracles = prefix_oracles(&records);
    let full = std::fs::read(&wal_path).expect("read full wal");
    assert_eq!(*boundaries.last().expect("boundaries") as usize, full.len());

    // Every cut inside the final record's frame — from "frame absent
    // entirely" through "one byte short of intact" — plus the intact
    // file itself.
    let last_start = boundaries[boundaries.len() - 2] as usize;
    for cut in last_start..=full.len() {
        assert_prefix_consistent(&dir, &full, cut, &boundaries, &oracles);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cuts_inside_the_magic_header_are_corruption_not_panics() {
    let dir = temp_dir("header");
    let records = sample_records(&[(1, "Aspirin".to_string())]);
    let wal_path = dir.join("full.wal");
    write_wal(&wal_path, &records);
    let full = std::fs::read(&wal_path).expect("read");
    for cut in 1..8 {
        let path = dir.join(format!("hdr_{cut}.wal"));
        std::fs::write(&path, &full[..cut]).expect("write");
        let err = KnowledgeBase::recover_from(dir.join("no_snapshot"), &path)
            .expect_err("a torn magic header is not a valid log");
        assert!(matches!(err, DurabilityError::Corrupt(_)), "cut at {cut}: {err}");
    }
    // Cuts inside the v2 *epoch* field are a crash mid-reset, not
    // corruption: the truncate-first reset ordering guarantees nothing
    // follows a torn header, so the file reopens as a fresh epoch-0 log.
    for cut in 8..16 {
        let path = dir.join(format!("epoch_{cut}.wal"));
        std::fs::write(&path, &full[..cut]).expect("write");
        let (kb, report) = KnowledgeBase::recover_from(dir.join("no_snapshot"), &path)
            .expect("a torn epoch field repairs to a fresh log");
        assert_eq!(report.wal_records, 0, "cut at {cut}");
        assert_eq!(report.epoch, 0, "cut at {cut}");
        assert_eq!(report.wal_truncated_bytes, cut as u64 - 8, "cut at {cut}");
        assert_eq!(kb.to_json(), KnowledgeBase::new().to_json());
    }
    // Cut to zero bytes: an empty file is a *fresh* log, not corruption.
    let path = dir.join("hdr_0.wal");
    std::fs::write(&path, b"").expect("write");
    let (kb, report) =
        KnowledgeBase::recover_from(dir.join("no_snapshot"), &path).expect("empty file is fresh");
    assert_eq!(report.wal_records, 0);
    assert_eq!(kb.to_json(), KnowledgeBase::new().to_json());
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    /// Arbitrary cut offsets over arbitrary insert batches: recovery is
    /// always the exact longest intact prefix.
    #[test]
    fn any_cut_offset_recovers_a_consistent_prefix(
        ids in proptest::collection::vec((0i64..64, 0u8..8), 1..12),
        cut_seed in 0usize..1_000_000,
    ) {
        let dir = temp_dir("prop");
        // Distinct PKs so every generated record applies cleanly; the
        // suffix varies payload length so frames differ in size.
        let mut seen = std::collections::HashSet::new();
        let inserts: Vec<(i64, String)> = ids
            .iter()
            .filter(|(id, _)| seen.insert(*id))
            .map(|(id, pad)| (*id, format!("Drug{id}{}", "x".repeat(*pad as usize * 7))))
            .collect();
        let records = sample_records(&inserts);
        let wal_path = dir.join("full.wal");
        let boundaries = write_wal(&wal_path, &records);
        let oracles = prefix_oracles(&records);
        let full = std::fs::read(&wal_path).expect("read full wal");
        // Any offset from "just the header" to "fully intact".
        let cut = 16 + cut_seed % (full.len() - 15);
        assert_prefix_consistent(&dir, &full, cut, &boundaries, &oracles);
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------
// Snapshot format: truncation is corruption, and a snapshot is
// observationally equivalent to its original.
// ---------------------------------------------------------------------

/// A KB with enough variety to exercise every value tag and the index
/// policy: two tables, an FK, mixed Int/Float/Null/Text values, huge
/// (beyond-2^53) keys, and three indexes.
fn varied_kb(rows: &[(i64, u8, u8)]) -> KnowledgeBase {
    let mut kb = KnowledgeBase::new();
    kb.create_table(
        TableSchema::new("drug")
            .column("drug_id", ColumnType::Int)
            .column("name", ColumnType::Text)
            .column("weight", ColumnType::Float)
            .column("otc", ColumnType::Bool)
            .primary_key("drug_id"),
    )
    .expect("schema");
    kb.create_table(
        TableSchema::new("precautions")
            .column("prec_id", ColumnType::Int)
            .column("drug_id", ColumnType::Int)
            .column("description", ColumnType::Text)
            .primary_key("prec_id")
            .foreign_key("drug_id", "drug", "drug_id"),
    )
    .expect("schema");
    for (i, (id, pad, sel)) in rows.iter().enumerate() {
        let weight = match sel % 5 {
            0 => Value::Int(id % 4),
            1 => Value::float(*id as f64 + 0.5).expect("finite"),
            2 => Value::Null,
            3 => Value::Int((1i64 << 53) + id),
            _ => Value::float(-(*id as f64)).expect("finite"),
        };
        let otc = match sel % 3 {
            0 => Value::Bool(true),
            1 => Value::Bool(false),
            _ => Value::Null,
        };
        kb.insert(
            "drug",
            vec![
                Value::Int(*id),
                Value::text(format!("Drug{id}{}", "x".repeat(*pad as usize))),
                weight,
                otc,
            ],
        )
        .expect("distinct PKs");
        kb.insert(
            "precautions",
            vec![Value::Int(i as i64), Value::Int(*id), Value::text(format!("warning {id}"))],
        )
        .expect("FK holds");
    }
    kb.create_index("drug", "drug_id").expect("index");
    kb.create_index("drug", "name").expect("index");
    kb.create_index("precautions", "drug_id").expect("index");
    kb
}

/// Queries whose planner access labels must survive a snapshot (point
/// probe, name equality, FK join).
const LABEL_QUERIES: &[&str] = &[
    "SELECT name FROM drug WHERE drug_id = 3",
    "SELECT drug_id FROM drug WHERE name = 'Drug1'",
    "SELECT p.description FROM precautions p \
     INNER JOIN drug d ON p.drug_id = d.drug_id WHERE d.drug_id = 2",
];

#[test]
fn every_byte_truncation_of_a_binary_snapshot_is_hard_corrupt() {
    let dir = temp_dir("snap_trunc");
    let rows: Vec<(i64, u8, u8)> = (0..12).map(|i| (i, (i % 5) as u8, (i % 7) as u8)).collect();
    let kb = varied_kb(&rows);
    let path = dir.join("kb.snapshot");
    write_snapshot(&kb, &path, 9).expect("write");
    let full = std::fs::read(&path).expect("read");
    assert!(full.len() > 500, "image is big enough for the walk to mean something");
    let cut_path = dir.join("cut.snapshot");
    // Snapshot commits are atomic, so *no* truncation is a valid file:
    // every cut — mid-magic, mid-epoch, mid-section-header, mid-payload,
    // one byte short of intact — must be a hard error, never a silent
    // partial load.
    for cut in 0..full.len() {
        std::fs::write(&cut_path, &full[..cut]).expect("write cut");
        let err = read_snapshot(&cut_path).expect_err("truncated snapshot must not load");
        assert!(matches!(err, DurabilityError::Corrupt(_)), "cut at {cut}: {err}");
    }
    // And the intact file still loads, proving the walk tested the real
    // image rather than some always-rejected garbage.
    std::fs::write(&cut_path, &full).expect("write intact");
    let (back, epoch) = read_snapshot(&cut_path).expect("intact file loads");
    assert_eq!(epoch, 9);
    assert_eq!(back.to_json(), kb.to_json());
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    /// A snapshot loads back observationally identical to the KB it was
    /// written from: same rows, same index policy, same planner access
    /// labels.
    #[test]
    fn snapshots_load_back_identical_to_the_original(
        ids in proptest::collection::vec((0i64..64, 0u8..9, 0u8..16), 1..24),
        epoch in 0u64..1000,
    ) {
        let dir = temp_dir("snap_prop");
        let mut seen = std::collections::HashSet::new();
        let rows: Vec<(i64, u8, u8)> =
            ids.into_iter().filter(|(id, _, _)| seen.insert(*id)).collect();
        let kb = varied_kb(&rows);

        let path = dir.join("kb.snapshot");
        write_snapshot(&kb, &path, epoch).expect("write");
        let (back, back_epoch) = read_snapshot(&path).expect("read");
        prop_assert_eq!(back_epoch, epoch);

        prop_assert_eq!(back.to_json(), kb.to_json());
        prop_assert_eq!(back.index_count(), kb.index_count());
        for sql in LABEL_QUERIES {
            prop_assert_eq!(
                back.prepare(sql).expect("plan").access_label(),
                kb.prepare(sql).expect("plan").access_label(),
                "access path diverged from the original for {}", sql
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------
// WAL codec: every value kind survives a log-only recovery.
// ---------------------------------------------------------------------

const EDGE_INTS: &[i64] = &[0, 1, -1, 1 << 53, -(1 << 53), (1 << 53) + 1, i64::MAX, i64::MIN];

const EDGE_FLOATS: &[f64] = &[
    0.0,
    -0.0,
    1.5,
    -2.25e-7,
    f64::MIN_POSITIVE,
    f64::MIN_POSITIVE / 2.0, // subnormal
    5e-324,                  // the smallest subnormal
    -5e-324,
    f64::MAX,
    f64::MIN,
];

const EDGE_TEXTS: &[&str] = &[
    "",
    "Aspirin",
    "naïve café — 日本語 ✓",
    "O'Brien's \"quoted\" \\ text",
    "'; DROP TABLE item; --",
    "tab\tnew\nline",
];

/// One `item` row: its key and the pool index of each other column. An
/// index one past a pool's end picks NULL; for `weight`, two past picks
/// an integer (a float column admits one).
type ItemPicks = (i64, usize, usize, usize, usize);

fn item_row((id, flag, amount, weight, label): ItemPicks) -> Vec<Value> {
    let weight = match weight.checked_sub(EDGE_FLOATS.len()) {
        None => Value::float(EDGE_FLOATS[weight]).expect("finite"),
        Some(0) => Value::Null,
        Some(_) => Value::Int(id % 7),
    };
    vec![
        Value::Int(id),
        [true, false].get(flag).map_or(Value::Null, |b| Value::Bool(*b)),
        EDGE_INTS.get(amount).map_or(Value::Null, |i| Value::Int(*i)),
        weight,
        EDGE_TEXTS.get(label).map_or(Value::Null, |t| Value::text(*t)),
    ]
}

/// Row equality that also tells floats apart by bit pattern.
fn same_rows(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    let same = |x: &Value, y: &Value| match (x, y) {
        (Value::Float(x), Value::Float(y)) => x.get().to_bits() == y.get().to_bits(),
        _ => x == y,
    };
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(r, s)| r.len() == s.len() && r.iter().zip(s).all(|(x, y)| same(x, y)))
}

proptest! {
    /// Rows of every value kind (NULL, both bools, ints up to the i64
    /// extremes, floats down to subnormals, empty, non-ASCII and
    /// quote-bearing text) logged through `DurableKb` into PK and FK
    /// tables, with two `CreateIndex` records and an `AutoIndex` marker
    /// in the log, recover from the log alone to the live KB: same JSON
    /// image, same rows bit for bit, same index count, same access
    /// labels.
    #[test]
    fn every_value_kind_survives_a_log_only_recovery(
        picks in proptest::collection::vec(
            (any::<i64>(), 0usize..3, 0usize..9, 0usize..12, 0usize..7),
            0..12,
        ),
    ) {
        let dir = temp_dir("codec");
        // Coverage rows first: together they hit every pool entry and
        // every NULL, under the extreme keys.
        let mut rows: Vec<ItemPicks> =
            (0..12).map(|k| (EDGE_INTS.get(k).copied().unwrap_or(k as i64), k % 3, k % 9, k, k % 7)).collect();
        let mut seen: std::collections::HashSet<i64> = rows.iter().map(|r| r.0).collect();
        rows.extend(picks.into_iter().filter(|p| seen.insert(p.0)));

        let mut durable = DurableKb::create(&dir, KnowledgeBase::new()).expect("create");
        durable
            .create_table(
                TableSchema::new("item")
                    .column("item_id", ColumnType::Int)
                    .column("flag", ColumnType::Bool)
                    .column("amount", ColumnType::Int)
                    .column("weight", ColumnType::Float)
                    .column("label", ColumnType::Text)
                    .primary_key("item_id"),
            )
            .expect("item schema");
        durable
            .create_table(
                TableSchema::new("note")
                    .column("note_id", ColumnType::Int)
                    .column("item_id", ColumnType::Int)
                    .column("body", ColumnType::Text)
                    .primary_key("note_id")
                    .foreign_key("item_id", "item", "item_id"),
            )
            .expect("note schema");
        // Half the rows before the indexes and half after, so replay
        // also maintains indexes it has rebuilt.
        let half = rows.len() / 2;
        for (i, picks) in rows.iter().enumerate() {
            if i == half {
                prop_assert!(durable.create_index("item", "label").expect("index"));
                prop_assert!(durable.create_index("item", "amount").expect("index"));
                prop_assert!(durable.auto_index().expect("auto_index") > 0);
            }
            durable.insert("item", item_row(*picks)).expect("item row");
            let body = Value::text(EDGE_TEXTS[i % EDGE_TEXTS.len()]);
            durable.insert("note", vec![Value::Int(i as i64), Value::Int(picks.0), body]).expect("note row");
        }
        durable.sync().expect("sync");
        let logged = durable.pending_records();
        // Dropped without a snapshot: everything after `create` lives in
        // the log alone.
        let live = durable.into_kb();

        let (recovered, report) = DurableKb::open(&dir).expect("recover");
        prop_assert_eq!(report.wal_records, logged);
        prop_assert_eq!(report.wal_truncated_bytes, 0);
        let recovered = recovered.into_kb();
        prop_assert_eq!(recovered.to_json(), live.to_json());
        for table in ["item", "note"] {
            prop_assert!(
                same_rows(&recovered.table(table).expect("table").rows, &live.table(table).expect("table").rows),
                "{} rows differ after recovery", table
            );
        }
        prop_assert_eq!(recovered.index_count(), live.index_count());
        let label_queries = [
            format!("SELECT label FROM item WHERE item_id = {}", rows[0].0),
            "SELECT item_id FROM item WHERE label = 'Aspirin'".to_string(),
            "SELECT item_id FROM item WHERE amount = 1".to_string(),
            "SELECT n.body FROM note n INNER JOIN item i ON n.item_id = i.item_id \
             WHERE i.item_id = 1".to_string(),
        ];
        for sql in &label_queries {
            prop_assert_eq!(
                recovered.prepare(sql).expect("plan").access_label(),
                live.prepare(sql).expect("plan").access_label(),
                "access path diverged for {}", sql
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
