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
//! identical (rows, index policy, planner access labels).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use obcs_kb::schema::{ColumnType, TableSchema};
use obcs_kb::snapshot::{read_snapshot, write_snapshot};
use obcs_kb::{DurabilityError, IndexKind, KnowledgeBase, Value, Wal, WalRecord};
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
    let (mut wal, replay) = Wal::open(path).expect("fresh wal");
    assert!(replay.records.is_empty());
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
        r.apply(&mut kb).expect("oracle apply");
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
    records.push(WalRecord::CreateIndex {
        table: "drug".to_string(),
        column: "name".to_string(),
        kind: IndexKind::Ordered,
    });
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
/// (beyond-2^53) keys, and both index kinds.
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
    kb.create_index("drug", "drug_id", IndexKind::Hash).expect("index");
    kb.create_index("drug", "name", IndexKind::Ordered).expect("index");
    kb.create_index("precautions", "drug_id", IndexKind::Hash).expect("index");
    kb
}

/// Queries whose planner access labels must survive a snapshot (point
/// probe, LIKE prefix, FK join).
const LABEL_QUERIES: &[&str] = &[
    "SELECT name FROM drug WHERE drug_id = 3",
    "SELECT name FROM drug WHERE name LIKE 'Drug1%'",
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
