//! Format tripwire for the two durability files (DESIGN.md §16.1).
//!
//! The snapshot of one small fixed KB, written at a fixed epoch, and a
//! log holding one record of each `WalRecord` kind are fingerprinted by
//! byte length and CRC-32, and each fingerprint is pinned beside the
//! magic its file was written under. Any change to the bytes either
//! file holds for the same content moves a fingerprint and fails this
//! test. A new fingerprint needs a new magic: a build reading the old
//! magic would misread the new bytes. Bump the magic in the same change
//! (there is no legacy reader, so an older file then fails as
//! `Corrupt`), and pin the new pair here beside it.

use std::path::PathBuf;

use obcs_kb::schema::{ColumnType, TableSchema};
use obcs_kb::snapshot::{write_snapshot, SNAPSHOT_MAGIC_BINARY};
use obcs_kb::wal::{crc32, WAL_MAGIC};
use obcs_kb::{KnowledgeBase, Value, Wal, WalRecord};

/// The snapshot's magic, byte length and CRC-32.
const SNAPSHOT: (&str, usize, u32) = ("OBCSSNB3", 763, 0xF79299DA);

/// The log's magic, byte length and CRC-32.
const LOG: (&str, usize, u32) = ("OBCSWAL4", 297, 0xD1F05A4A);

/// The epoch both files are written at.
const EPOCH: u64 = 7;

fn drug_schema() -> TableSchema {
    TableSchema::new("drug")
        .column("drug_id", ColumnType::Int)
        .column("name", ColumnType::Text)
        .column("weight", ColumnType::Float)
        .column("otc", ColumnType::Bool)
        .primary_key("drug_id")
}

fn precaution_schema() -> TableSchema {
    TableSchema::new("precaution")
        .column("prec_id", ColumnType::Int)
        .column("drug_id", ColumnType::Int)
        .column("note", ColumnType::Text)
        .primary_key("prec_id")
        .foreign_key("drug_id", "drug", "drug_id")
}

/// Drug rows holding every value kind: NULL, both bools, an integer in
/// the float column, a negative float, and non-ASCII text.
fn drug_rows() -> Vec<Vec<Value>> {
    let float = |f: f64| Value::float(f).expect("finite");
    vec![
        vec![Value::Int(1), Value::text("Aspirin"), float(0.5), Value::Bool(true)],
        vec![Value::Int(2), Value::text("naïve café"), Value::Null, Value::Bool(false)],
        vec![Value::Int(-3), Value::text(""), Value::Int(2), Value::Null],
        vec![Value::Int(i64::MAX), Value::text("O'Neil"), float(-2.25e-7), Value::Bool(true)],
    ]
}

/// The file `name` in a fresh directory of its own.
fn temp_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("obcs_tripwire_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Asserts that the file at `path`, written under `magic`, matches the
/// pinned fingerprint, then removes it.
fn assert_pinned(what: &str, path: PathBuf, magic: &[u8; 8], pinned: (&str, usize, u32)) {
    let bytes = std::fs::read(&path).expect("read the written file");
    let magic = std::str::from_utf8(magic).expect("an ASCII magic");
    let found = (magic, bytes.len(), crc32(&bytes));
    assert_eq!(
        found, pinned,
        "the {what} format changed: write it under a new magic and pin (magic, length, crc32) \
         = ({magic:?}, {}, 0x{:08X}) beside it",
        found.1, found.2
    );
    assert_eq!(&bytes[..8], magic.as_bytes(), "the {what} starts with its magic");
    std::fs::remove_dir_all(path.parent().expect("a directory")).ok();
}

#[test]
fn the_snapshot_format_matches_its_pinned_fingerprint() {
    let mut kb = KnowledgeBase::new();
    kb.create_table(drug_schema()).expect("drug");
    kb.create_table(precaution_schema()).expect("precaution");
    for row in drug_rows() {
        kb.insert("drug", row).expect("drug row");
    }
    for (prec, drug, note) in [(10, Value::Int(1), "take with food"), (11, Value::Null, "")] {
        kb.insert("precaution", vec![Value::Int(prec), drug, Value::text(note)])
            .expect("precaution row");
    }
    kb.create_index("precaution", "note").expect("index");
    kb.auto_index();
    let path = temp_file("kb.snapshot");
    write_snapshot(&kb, &path, EPOCH).expect("write the snapshot");
    assert_pinned("snapshot", path, SNAPSHOT_MAGIC_BINARY, SNAPSHOT);
}

#[test]
fn the_log_format_matches_its_pinned_fingerprint() {
    let path = temp_file("kb.wal");
    let (mut wal, _) = Wal::open(&path, |_, _| panic!("a fresh log")).expect("open the log");
    wal.reset(EPOCH).expect("stamp the epoch");
    let records = [
        WalRecord::CreateTable(drug_schema()),
        WalRecord::Insert { table: "drug".to_string(), row: drug_rows().swap_remove(1) },
        WalRecord::CreateIndex { table: "drug".to_string(), column: "otc".to_string() },
        WalRecord::AutoIndex,
    ];
    for record in &records {
        wal.append(record).expect("append");
    }
    wal.sync().expect("sync");
    drop(wal);
    assert_pinned("log", path, WAL_MAGIC, LOG);
}
