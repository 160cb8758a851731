//! The append-only write-ahead log of KB mutations (DESIGN.md §16).
//!
//! Every mutation that changes a [`KnowledgeBase`]'s durable state —
//! `create_table`, `insert`, `create_index`, and the policy-driven
//! `auto_index` sweep — has a [`WalRecord`] form. Records are framed as
//!
//! ```text
//! [u32 payload_len LE] [u32 crc32(payload) LE] [payload: record JSON]
//! ```
//!
//! after the 16-byte file header: the `OBCSWAL2` magic followed by a
//! little-endian u64 **durability epoch** — the epoch of the snapshot
//! this log extends (DESIGN.md §16). Recovery refuses to replay a log
//! whose epoch does not match its snapshot's, which is what makes the
//! snapshot-then-reset compaction sequence crash-safe: a fresh snapshot
//! next to a not-yet-reset log is detected by the mismatch and the
//! stale records are discarded instead of double-applied.
//!
//! The frame makes the log self-validating: on [`Wal::open`] the file
//! is replayed front to back and the scan stops at the first frame that
//! is incomplete, fails its checksum, or does not decode — a *torn
//! tail*, the expected residue of a crash mid-append. The torn bytes
//! are truncated away (never replayed, never panicked over), so
//! recovery is always prefix-consistent: every state the log can
//! produce is a state the original KB passed through. A file cut
//! inside its epoch field (a crash mid-[`Wal::reset`]) is likewise
//! expected residue: the truncation guarantees no record can follow a
//! torn header, so the file reopens as a fresh epoch-0 log.
//!
//! Compaction is the snapshot's job ([`crate::snapshot`]): after a
//! point-in-time snapshot at epoch `e` is on disk, [`Wal::reset`] drops
//! every logged record and stamps `e` into the header, since the
//! snapshot already contains the records' effects.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::index::IndexKind;
use crate::schema::TableSchema;
use crate::store::{KbError, KnowledgeBase};
use crate::value::Value;

/// Magic header identifying a WAL file (format version 2). The magic is
/// followed by a little-endian u64 durability epoch. Logs of any other
/// version are rejected as [`DurabilityError::Corrupt`].
pub const WAL_MAGIC_V2: &[u8; 8] = b"OBCSWAL2";

/// Byte length of the header: magic plus the u64 epoch.
const WAL_HEADER_V2: usize = WAL_MAGIC_V2.len() + 8;

/// Upper bound on a single record's payload. A length prefix beyond this
/// is treated as frame corruption (torn tail), not an allocation request:
/// a flipped bit in the length field must not ask for gigabytes.
pub const MAX_RECORD_BYTES: usize = 64 * 1024 * 1024;

/// One logged KB mutation, in the order the store applied it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WalRecord {
    /// `KnowledgeBase::create_table` with the checked schema.
    CreateTable(TableSchema),
    /// `KnowledgeBase::insert` of one validated row.
    Insert {
        /// Target table name.
        table: String,
        /// The full row, in schema column order.
        row: Vec<Value>,
    },
    /// `KnowledgeBase::create_index` that actually created an index
    /// (no-op re-creations are not logged).
    CreateIndex {
        /// Target table name.
        table: String,
        /// Indexed column name.
        column: String,
        /// Physical index shape.
        kind: IndexKind,
    },
    /// A `KnowledgeBase::auto_index` sweep that created at least one
    /// index. The sweep is deterministic in the KB state, and replay
    /// sees exactly the state the original saw (same snapshot, same
    /// record prefix), so re-running it recreates the same indexes and
    /// the same generation bumps.
    AutoIndex,
}

impl WalRecord {
    /// Re-applies this mutation to `kb`, exactly as the original call
    /// did — including its generation bumps.
    pub fn apply(&self, kb: &mut KnowledgeBase) -> Result<(), KbError> {
        match self {
            WalRecord::CreateTable(schema) => kb.create_table(schema.clone()),
            WalRecord::Insert { table, row } => kb.insert(table, row.clone()),
            WalRecord::CreateIndex { table, column, kind } => {
                kb.create_index(table, column, *kind).map(|_| ())
            }
            WalRecord::AutoIndex => {
                kb.auto_index();
                Ok(())
            }
        }
    }
}

/// Errors of the durability subsystem (WAL, snapshot, recovery).
#[derive(Debug)]
pub enum DurabilityError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A file is unrecoverably malformed — wrong magic, or a corrupt
    /// snapshot body. (A torn WAL *tail* is not an error; it is
    /// truncated and reported in [`WalReplay::truncated_bytes`].)
    Corrupt(String),
    /// Replaying a logged mutation failed against the store — the log
    /// and snapshot disagree about KB history.
    Kb(KbError),
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Io(e) => write!(f, "durability I/O error: {e}"),
            DurabilityError::Corrupt(msg) => write!(f, "corrupt durability file: {msg}"),
            DurabilityError::Kb(e) => write!(f, "WAL replay rejected by the store: {e}"),
        }
    }
}

impl std::error::Error for DurabilityError {}

impl From<std::io::Error> for DurabilityError {
    fn from(e: std::io::Error) -> Self {
        DurabilityError::Io(e)
    }
}

impl From<KbError> for DurabilityError {
    fn from(e: KbError) -> Self {
        DurabilityError::Kb(e)
    }
}

/// What [`Wal::open`] found in an existing log.
#[derive(Debug)]
pub struct WalReplay {
    /// Every intact record, in append order.
    pub records: Vec<WalRecord>,
    /// Bytes of torn tail truncated away (0 for a cleanly closed log).
    pub truncated_bytes: u64,
    /// The durability epoch in the header (fresh logs start at 0).
    pub epoch: u64,
}

/// An open write-ahead log, positioned for appends past the last intact
/// record.
pub struct Wal {
    file: File,
    path: PathBuf,
    epoch: u64,
}

impl fmt::Debug for Wal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Wal").field("path", &self.path).finish_non_exhaustive()
    }
}

impl Wal {
    /// Opens (or creates) the log at `path`, replaying every intact
    /// record and truncating a torn tail. Fresh logs start at epoch 0.
    /// Errors only on I/O failure or a wrong magic header — a file that
    /// is not a WAL of this format at all.
    pub fn open(path: impl AsRef<Path>) -> Result<(Wal, WalReplay), DurabilityError> {
        let path = path.as_ref().to_path_buf();
        // truncate(false): an existing log must be replayed, not wiped.
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        if bytes.is_empty() {
            file.write_all(WAL_MAGIC_V2)?;
            file.write_all(&0u64.to_le_bytes())?;
            file.sync_all()?;
            return Ok((
                Wal { file, path, epoch: 0 },
                WalReplay { records: Vec::new(), truncated_bytes: 0, epoch: 0 },
            ));
        }
        if !bytes.starts_with(WAL_MAGIC_V2) {
            return Err(DurabilityError::Corrupt(format!(
                "{} does not start with the OBCSWAL2 magic",
                path.display()
            )));
        }
        if bytes.len() < WAL_HEADER_V2 {
            // A crash mid-reset tore the epoch field. The reset ordering
            // (truncate, sync, then header) guarantees no record can
            // follow a torn header, so rewrite the file as a fresh
            // epoch-0 log.
            let torn = (bytes.len() - WAL_MAGIC_V2.len()) as u64;
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(WAL_MAGIC_V2)?;
            file.write_all(&0u64.to_le_bytes())?;
            file.sync_all()?;
            return Ok((
                Wal { file, path, epoch: 0 },
                WalReplay { records: Vec::new(), truncated_bytes: torn, epoch: 0 },
            ));
        }
        let epoch = u64::from_le_bytes(
            bytes[WAL_MAGIC_V2.len()..WAL_HEADER_V2].try_into().expect("8 bytes"),
        );

        let mut records = Vec::new();
        let mut pos = WAL_HEADER_V2;
        // Scan frame by frame; stop at the first incomplete or invalid
        // frame. Everything before `pos` is intact, everything after is
        // the torn tail.
        loop {
            if pos == bytes.len() {
                break;
            }
            if bytes.len() - pos < 8 {
                break;
            }
            let len =
                u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
                    as usize;
            let crc = u32::from_le_bytes([
                bytes[pos + 4],
                bytes[pos + 5],
                bytes[pos + 6],
                bytes[pos + 7],
            ]);
            if len > MAX_RECORD_BYTES || pos + 8 + len > bytes.len() {
                break;
            }
            let payload = &bytes[pos + 8..pos + 8 + len];
            if crc32(payload) != crc {
                break;
            }
            let Ok(text) = std::str::from_utf8(payload) else { break };
            let Ok(record) = serde_json::from_str::<WalRecord>(text) else { break };
            records.push(record);
            pos += 8 + len;
        }

        let truncated_bytes = (bytes.len() - pos) as u64;
        if truncated_bytes > 0 {
            file.set_len(pos as u64)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(pos as u64))?;
        Ok((Wal { file, path, epoch }, WalReplay { records, truncated_bytes, epoch }))
    }

    /// Reads the epoch out of a log header without opening, replaying
    /// or repairing the file. `None` for a missing, foreign, or torn
    /// file.
    pub(crate) fn peek_epoch(path: &Path) -> Option<u64> {
        let mut header = [0u8; WAL_HEADER_V2];
        let mut f = File::open(path).ok()?;
        f.read_exact(&mut header).ok()?;
        if &header[..WAL_MAGIC_V2.len()] != WAL_MAGIC_V2 {
            return None;
        }
        Some(u64::from_le_bytes(header[WAL_MAGIC_V2.len()..].try_into().expect("8 bytes")))
    }

    /// Appends one record frame. The bytes reach the OS here; call
    /// [`Wal::sync`] to force them to stable storage.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), DurabilityError> {
        let payload = serde_json::to_string(record)
            .expect("WAL record serialisation cannot fail")
            .into_bytes();
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file.write_all(&frame)?;
        Ok(())
    }

    /// fsyncs the log. Idempotent; cheap when nothing is pending.
    pub fn sync(&mut self) -> Result<(), DurabilityError> {
        self.file.sync_all()?;
        Ok(())
    }

    /// Compaction: drops every logged record and stamps `epoch` into a
    /// fresh header. Call after a snapshot at `epoch` has made the
    /// records redundant.
    ///
    /// The ordering is crash-critical: truncate to zero and sync
    /// *before* writing the new header. Writing the header first could
    /// leave the new epoch over the old records if the truncation never
    /// reached disk — exactly the double-apply the epoch exists to
    /// prevent. With truncate-first, every crash point leaves either the
    /// old log (intact, old epoch — discarded by the epoch check), an
    /// empty file (a fresh log), or a torn header (repaired to a fresh
    /// log by [`Wal::open`]).
    pub fn reset(&mut self, epoch: u64) -> Result<(), DurabilityError> {
        self.file.set_len(0)?;
        self.file.sync_all()?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(WAL_MAGIC_V2)?;
        self.file.write_all(&epoch.to_le_bytes())?;
        self.file.sync_all()?;
        self.epoch = epoch;
        Ok(())
    }

    /// The durability epoch this log extends.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE 802.3 polynomial, the zlib/`cksum -o 3` variant) over
/// `bytes`. Implemented locally — the offline build has no crc crate.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("obcs_wal_{}_{tag}_{n}.wal", std::process::id()))
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::CreateTable(
                TableSchema::new("drug")
                    .column("drug_id", ColumnType::Int)
                    .column("name", ColumnType::Text)
                    .primary_key("drug_id"),
            ),
            WalRecord::Insert {
                table: "drug".to_string(),
                row: vec![Value::Int(1), Value::text("Aspirin")],
            },
            WalRecord::CreateIndex {
                table: "drug".to_string(),
                column: "name".to_string(),
                kind: IndexKind::Ordered,
            },
            WalRecord::AutoIndex,
        ]
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_reopen_replays_in_order() {
        let path = temp_path("replay");
        let records = sample_records();
        {
            let (mut wal, replay) = Wal::open(&path).unwrap();
            assert!(replay.records.is_empty());
            for r in &records {
                wal.append(r).unwrap();
            }
            wal.sync().unwrap();
        }
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.records, records);
        assert_eq!(replay.truncated_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_not_replayed() {
        let path = temp_path("torn");
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            for r in sample_records() {
                wal.append(&r).unwrap();
            }
            wal.sync().unwrap();
        }
        let clean_len = std::fs::metadata(&path).unwrap().len();
        // A crash mid-append: half a frame header and some garbage.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0x90, 0x01, 0x00, 0x00, 0xde, 0xad]).unwrap();
        drop(f);
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.records, sample_records());
        assert_eq!(replay.truncated_bytes, 6);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len, "tail truncated on disk");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_checksum_cuts_the_log_there() {
        let path = temp_path("crc");
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            for r in sample_records() {
                wal.append(&r).unwrap();
            }
            wal.sync().unwrap();
        }
        // Flip one payload byte of the second record (frames start
        // after the 16-byte v2 header).
        let mut bytes = std::fs::read(&path).unwrap();
        let first_frame = WAL_HEADER_V2;
        let first_len =
            u32::from_le_bytes(bytes[first_frame..first_frame + 4].try_into().unwrap()) as usize;
        let second_payload = first_frame + 8 + first_len + 8;
        bytes[second_payload] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.records, sample_records()[..1], "scan stops at the corrupt record");
        assert!(replay.truncated_bytes > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_length_prefix_is_corruption_not_allocation() {
        let path = temp_path("len");
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(&sample_records()[0]).unwrap();
            wal.sync().unwrap();
        }
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&u32::MAX.to_le_bytes()).unwrap();
        f.write_all(&[0u8; 4]).unwrap();
        drop(f);
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.truncated_bytes, 8);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_is_an_error() {
        let path = temp_path("magic");
        // A foreign file, and a log written by an older build: both fail
        // naming the expected magic, never replay.
        for bytes in [&b"NOTAWAL!xxxx"[..], &b"OBCSWAL1"[..]] {
            std::fs::write(&path, bytes).unwrap();
            match Wal::open(&path) {
                Err(DurabilityError::Corrupt(msg)) => assert!(msg.contains("OBCSWAL2"), "{msg}"),
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reset_compacts_to_header_only_and_stamps_the_epoch() {
        let path = temp_path("reset");
        {
            let (mut wal, replay) = Wal::open(&path).unwrap();
            assert_eq!(replay.epoch, 0, "fresh logs start at epoch 0");
            for r in sample_records() {
                wal.append(&r).unwrap();
            }
            wal.reset(7).unwrap();
            assert_eq!(wal.epoch(), 7);
            wal.append(&sample_records()[0]).unwrap();
            wal.sync().unwrap();
        }
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.records, sample_records()[..1], "only post-reset records survive");
        assert_eq!(replay.epoch, 7, "the epoch survives reopen");
        assert_eq!(Wal::peek_epoch(&path), Some(7));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_epoch_header_reopens_as_a_fresh_log() {
        let path = temp_path("torn_epoch");
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(&sample_records()[0]).unwrap();
            wal.reset(5).unwrap();
        }
        // A crash mid-reset: the header write itself tore. Every cut
        // inside the epoch field must reopen as a fresh epoch-0 log —
        // the truncate-first ordering guarantees no record follows it.
        let full = std::fs::read(&path).unwrap();
        for cut in WAL_MAGIC_V2.len()..WAL_HEADER_V2 {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (_, replay) = Wal::open(&path).unwrap();
            assert!(replay.records.is_empty(), "cut at {cut}");
            assert_eq!(replay.epoch, 0, "cut at {cut}: repaired to a fresh log");
            assert_eq!(replay.truncated_bytes, (cut - WAL_MAGIC_V2.len()) as u64);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_apply_matches_direct_mutation() {
        let mut direct = KnowledgeBase::new();
        let mut replayed = KnowledgeBase::new();
        for r in sample_records() {
            r.apply(&mut replayed).unwrap();
        }
        direct
            .create_table(
                TableSchema::new("drug")
                    .column("drug_id", ColumnType::Int)
                    .column("name", ColumnType::Text)
                    .primary_key("drug_id"),
            )
            .unwrap();
        direct.insert("drug", vec![Value::Int(1), Value::text("Aspirin")]).unwrap();
        direct.create_index("drug", "name", IndexKind::Ordered).unwrap();
        direct.auto_index();
        assert_eq!(direct.to_json(), replayed.to_json());
        assert_eq!(direct.generation(), replayed.generation());
        assert_eq!(direct.schema_generation(), replayed.schema_generation());
    }
}
