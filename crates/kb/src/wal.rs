//! The append-only write-ahead log of KB mutations (DESIGN.md §16).
//!
//! Every mutation that changes a [`KnowledgeBase`]'s durable state —
//! `create_table`, `insert`, `create_index`, and the policy-driven
//! `auto_index` sweep — has a [`WalRecord`] form. Records are framed as
//!
//! ```text
//! [u32 payload_len LE] [u32 crc32(payload) LE] [payload]
//! ```
//!
//! after the 16-byte file header: the `OBCSWAL4` magic followed by a
//! little-endian u64 **durability epoch** — the epoch of the snapshot
//! this log extends (DESIGN.md §16). A payload is one record tag byte
//! followed by the record's fields in the snapshot's codec
//! (`crate::codec`): text length-prefixed, a row as a value count and
//! tag-encoded values, a schema as the snapshot writes it. The writer
//! refuses a payload over [`MAX_RECORD_BYTES`] with
//! [`DurabilityError::RecordTooLarge`], so every frame on disk is one
//! the scan accepts. Recovery refuses to replay a log whose epoch does not
//! match its snapshot's, which is what makes the snapshot-then-reset
//! compaction sequence crash-safe: a fresh snapshot next to a
//! not-yet-reset log is detected by the mismatch and the stale records
//! are discarded instead of double-applied.
//!
//! The frame makes the log self-validating: [`Wal::open`] scans the
//! file front to back through a `BufReader`, one frame at a time, and
//! hands each decoded record to its caller before reading the next, so
//! a scan holds one frame, never the whole log. The scan stops at the
//! first frame that is incomplete, fails its checksum, or does not
//! decode — a *torn tail*, the expected residue of a crash mid-append.
//! The torn bytes are truncated away (never replayed, never panicked
//! over), so recovery is always prefix-consistent: every state the log
//! can produce is a state the original KB passed through. A file cut
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
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::codec::{self, Cursor};
use crate::schema::TableSchema;
use crate::store::{KbError, KnowledgeBase};
use crate::value::Value;

/// Magic header identifying a WAL file (format version 4: binary
/// payloads, an index record naming only its table and column). The
/// magic is followed by a little-endian u64 durability epoch. Logs of
/// any other version are rejected as [`DurabilityError::Corrupt`].
pub const WAL_MAGIC: &[u8; 8] = b"OBCSWAL4";

/// Byte length of the header: magic plus the u64 epoch.
const WAL_HEADER: usize = WAL_MAGIC.len() + 8;

/// Byte length of a frame header: payload length plus checksum.
const FRAME_HEADER: usize = 8;

/// Upper bound on a single record's payload, and on a snapshot
/// section's. A length prefix beyond this is treated as frame corruption
/// (torn tail), not an allocation request: a flipped bit in the length
/// field must not ask for gigabytes. The writers refuse anything larger
/// ([`DurabilityError::RecordTooLarge`]).
pub const MAX_RECORD_BYTES: usize = 64 * 1024 * 1024;

/// Payload tags, one per record kind.
const TAG_CREATE_TABLE: u8 = 0;
const TAG_INSERT: u8 = 1;
const TAG_CREATE_INDEX: u8 = 2;
const TAG_AUTO_INDEX: u8 = 3;

/// One logged KB mutation, in the order the store applied it.
#[derive(Debug, Clone, PartialEq)]
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
    },
    /// A `KnowledgeBase::auto_index` sweep that created at least one
    /// index. The sweep is deterministic in the KB state, and replay
    /// sees exactly the state the original saw (same snapshot, same
    /// record prefix), so re-running it recreates the same indexes. A
    /// marker written under an older index policy replays the current
    /// one.
    AutoIndex,
}

impl WalRecord {
    /// Re-applies this mutation to `kb`, exactly as the original call
    /// did. The record is consumed: its row moves into the store.
    pub fn apply(self, kb: &mut KnowledgeBase) -> Result<(), KbError> {
        match self {
            WalRecord::CreateTable(schema) => kb.create_table(schema),
            WalRecord::Insert { table, row } => kb.insert(&table, row),
            WalRecord::CreateIndex { table, column } => {
                kb.create_index(&table, &column).map(|_| ())
            }
            WalRecord::AutoIndex => {
                kb.auto_index();
                Ok(())
            }
        }
    }

    /// This record's frame, ready to append.
    pub(crate) fn frame(&self) -> Vec<u8> {
        match self {
            WalRecord::CreateTable(schema) => frame(|buf| {
                buf.push(TAG_CREATE_TABLE);
                codec::encode_schema(buf, schema);
            }),
            WalRecord::Insert { table, row } => insert_frame(table, row),
            WalRecord::CreateIndex { table, column } => frame(|buf| {
                buf.push(TAG_CREATE_INDEX);
                codec::encode_text(buf, table);
                codec::encode_text(buf, column);
            }),
            WalRecord::AutoIndex => frame(|buf| buf.push(TAG_AUTO_INDEX)),
        }
    }

    /// Decodes one frame payload. Any failure is `Corrupt`; the scan
    /// treats it as the start of a torn tail.
    fn decode(payload: &[u8]) -> Result<WalRecord, DurabilityError> {
        let mut c = Cursor::new(payload, "WAL record");
        let record = match c.u8()? {
            TAG_CREATE_TABLE => WalRecord::CreateTable(c.schema()?),
            TAG_INSERT => {
                let table = c.text()?;
                // Every value is at least its tag byte.
                let arity = c.count(1)?;
                let mut row = Vec::with_capacity(arity);
                for _ in 0..arity {
                    row.push(c.value()?);
                }
                WalRecord::Insert { table, row }
            }
            TAG_CREATE_INDEX => WalRecord::CreateIndex { table: c.text()?, column: c.text()? },
            TAG_AUTO_INDEX => WalRecord::AutoIndex,
            tag => return Err(c.corrupt(&format!("unknown record tag {tag}"))),
        };
        c.finish()?;
        Ok(record)
    }
}

/// The frame of an `Insert` of `row` into `table`, encoded from borrowed
/// parts so that the caller can still hand the row to the store.
pub(crate) fn insert_frame(table: &str, row: &[Value]) -> Vec<u8> {
    frame(|buf| {
        buf.push(TAG_INSERT);
        codec::encode_text(buf, table);
        buf.extend_from_slice(&(row.len() as u32).to_le_bytes());
        for v in row {
            codec::encode_value(buf, v);
        }
    })
}

/// Refuses a frame whose payload exceeds [`MAX_RECORD_BYTES`]: the scan
/// in [`Wal::open`] would take it for a torn tail and truncate the log
/// there, dropping it and every record after it.
pub(crate) fn check_frame(frame: &[u8]) -> Result<(), DurabilityError> {
    check_size(frame.len() - FRAME_HEADER)
}

/// Refuses a record or snapshot section of `bytes` bytes over
/// [`MAX_RECORD_BYTES`].
pub(crate) fn check_size(bytes: usize) -> Result<(), DurabilityError> {
    if bytes > MAX_RECORD_BYTES {
        return Err(DurabilityError::RecordTooLarge { bytes, limit: MAX_RECORD_BYTES });
    }
    Ok(())
}

/// Builds one `[len][crc][payload]` frame; `encode` writes the payload.
fn frame(encode: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut frame = vec![0u8; FRAME_HEADER];
    encode(&mut frame);
    let payload = &frame[FRAME_HEADER..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    frame[..4].copy_from_slice(&len.to_le_bytes());
    frame[4..FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
    frame
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
    /// A record or snapshot section of `bytes` bytes exceeds the `limit`
    /// ([`MAX_RECORD_BYTES`]) the readers accept. Nothing was written:
    /// the mutation was not applied, or the snapshot was not committed.
    RecordTooLarge {
        /// The encoded size.
        bytes: usize,
        /// The largest size the readers accept.
        limit: usize,
    },
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Io(e) => write!(f, "durability I/O error: {e}"),
            DurabilityError::Corrupt(msg) => write!(f, "corrupt durability file: {msg}"),
            DurabilityError::Kb(e) => write!(f, "WAL replay rejected by the store: {e}"),
            DurabilityError::RecordTooLarge { bytes, limit } => {
                write!(f, "a durable record of {bytes} bytes exceeds the {limit}-byte limit")
            }
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

/// What [`Wal::open`] found in an existing log, besides the records it
/// handed to its caller.
#[derive(Debug)]
pub struct WalReplay {
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
    /// Opens (or creates) the log at `path`, scanning it frame by frame
    /// and truncating a torn tail. `each` receives the header's epoch
    /// and every intact record, by value and in append order, before the
    /// next frame is read; an error from it stops the scan, leaves the
    /// file as it was, and is returned. Fresh logs start at epoch 0.
    /// Errors otherwise only on I/O failure or a wrong magic header — a
    /// file that is not a WAL of this format at all.
    pub fn open(
        path: impl AsRef<Path>,
        mut each: impl FnMut(u64, WalRecord) -> Result<(), DurabilityError>,
    ) -> Result<(Wal, WalReplay), DurabilityError> {
        let path = path.as_ref().to_path_buf();
        // truncate(false): an existing log must be replayed, not wiped.
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        let file_len = file.metadata()?.len();
        if file_len == 0 {
            write_header(&mut file, 0)?;
            return Ok((Wal { file, path, epoch: 0 }, WalReplay { truncated_bytes: 0, epoch: 0 }));
        }

        let mut reader = BufReader::new(&file);
        let mut header = [0u8; WAL_HEADER];
        let header_len = file_len.min(WAL_HEADER as u64) as usize;
        reader.read_exact(&mut header[..header_len])?;
        if header_len < WAL_MAGIC.len() || &header[..WAL_MAGIC.len()] != WAL_MAGIC {
            return Err(DurabilityError::Corrupt(format!(
                "{} does not start with the {} magic",
                path.display(),
                String::from_utf8_lossy(WAL_MAGIC)
            )));
        }
        if header_len < WAL_HEADER {
            // A crash mid-reset tore the epoch field. The reset ordering
            // (truncate, sync, then header) guarantees no record can
            // follow a torn header, so rewrite the file as a fresh
            // epoch-0 log.
            drop(reader);
            let torn = (header_len - WAL_MAGIC.len()) as u64;
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            write_header(&mut file, 0)?;
            return Ok((
                Wal { file, path, epoch: 0 },
                WalReplay { truncated_bytes: torn, epoch: 0 },
            ));
        }
        let epoch = u64::from_le_bytes(header[WAL_MAGIC.len()..].try_into().expect("8 bytes"));

        // Scan frame by frame; stop at the first incomplete or invalid
        // frame. Everything before `pos` is intact, everything after is
        // the torn tail. A length is checked against the bytes left in
        // the file before the payload buffer is sized from it.
        let mut pos = WAL_HEADER as u64;
        let mut payload = Vec::new();
        while file_len - pos >= FRAME_HEADER as u64 {
            let mut frame_header = [0u8; FRAME_HEADER];
            reader.read_exact(&mut frame_header)?;
            let len = u32::from_le_bytes(frame_header[..4].try_into().expect("4 bytes")) as usize;
            let crc = u32::from_le_bytes(frame_header[4..].try_into().expect("4 bytes"));
            if len > MAX_RECORD_BYTES || (len as u64) > file_len - pos - FRAME_HEADER as u64 {
                break;
            }
            payload.resize(len, 0);
            reader.read_exact(&mut payload)?;
            if crc32(&payload) != crc {
                break;
            }
            let Ok(record) = WalRecord::decode(&payload) else { break };
            each(epoch, record)?;
            pos += (FRAME_HEADER + len) as u64;
        }
        drop(reader);

        let truncated_bytes = file_len - pos;
        if truncated_bytes > 0 {
            file.set_len(pos)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(pos))?;
        Ok((Wal { file, path, epoch }, WalReplay { truncated_bytes, epoch }))
    }

    /// Opens (or creates) the log at `path` without reading it, and
    /// [resets](Self::reset) it to an empty log at `epoch`: whatever the
    /// file held, in whatever format, is discarded unread.
    pub(crate) fn create(path: &Path, epoch: u64) -> Result<Wal, DurabilityError> {
        // truncate(false): `reset` truncates, then syncs, then writes
        // the header, in that order.
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let mut wal = Wal { file, path: path.to_path_buf(), epoch };
        wal.reset(epoch)?;
        Ok(wal)
    }

    /// Reads the epoch out of a log header without opening, replaying
    /// or repairing the file. `None` for a missing, foreign, or torn
    /// file.
    pub(crate) fn peek_epoch(path: &Path) -> Option<u64> {
        let mut header = [0u8; WAL_HEADER];
        let mut f = File::open(path).ok()?;
        f.read_exact(&mut header).ok()?;
        if &header[..WAL_MAGIC.len()] != WAL_MAGIC {
            return None;
        }
        Some(u64::from_le_bytes(header[WAL_MAGIC.len()..].try_into().expect("8 bytes")))
    }

    /// Appends one record frame. The bytes reach the OS here; call
    /// [`Wal::sync`] to force them to stable storage.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), DurabilityError> {
        self.append_frame(&record.frame())
    }

    /// Appends a frame built by [`WalRecord::frame`] or [`insert_frame`],
    /// as one `write_all` on the file. A frame over the record cap is
    /// refused unwritten.
    pub(crate) fn append_frame(&mut self, frame: &[u8]) -> Result<(), DurabilityError> {
        check_frame(frame)?;
        self.file.write_all(frame)?;
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
        write_header(&mut self.file, epoch)?;
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

/// Writes the magic and `epoch` at the file's position, then syncs.
fn write_header(file: &mut File, epoch: u64) -> Result<(), DurabilityError> {
    file.write_all(WAL_MAGIC)?;
    file.write_all(&epoch.to_le_bytes())?;
    file.sync_all()?;
    Ok(())
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

    /// Opens the log at `path`, collecting the records the scan hands
    /// over.
    fn open_collect(path: &Path) -> (Wal, Vec<WalRecord>, WalReplay) {
        let mut records = Vec::new();
        let (wal, replay) = Wal::open(path, |_, r| {
            records.push(r);
            Ok(())
        })
        .unwrap();
        (wal, records, replay)
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
            WalRecord::CreateIndex { table: "drug".to_string(), column: "name".to_string() },
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
            let (mut wal, replayed, _) = open_collect(&path);
            assert!(replayed.is_empty());
            for r in &records {
                wal.append(r).unwrap();
            }
            wal.sync().unwrap();
        }
        let (_, replayed, replay) = open_collect(&path);
        assert_eq!(replayed, records);
        assert_eq!(replay.truncated_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_not_replayed() {
        let path = temp_path("torn");
        {
            let (mut wal, _, _) = open_collect(&path);
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
        let (_, replayed, replay) = open_collect(&path);
        assert_eq!(replayed, sample_records());
        assert_eq!(replay.truncated_bytes, 6);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len, "tail truncated on disk");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_checksum_cuts_the_log_there() {
        let path = temp_path("crc");
        {
            let (mut wal, _, _) = open_collect(&path);
            for r in sample_records() {
                wal.append(&r).unwrap();
            }
            wal.sync().unwrap();
        }
        // Flip one payload byte of the second record (frames start
        // after the 16-byte header).
        let mut bytes = std::fs::read(&path).unwrap();
        let first_frame = WAL_HEADER;
        let first_len =
            u32::from_le_bytes(bytes[first_frame..first_frame + 4].try_into().unwrap()) as usize;
        let second_payload = first_frame + 8 + first_len + 8;
        bytes[second_payload] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let (_, replayed, replay) = open_collect(&path);
        assert_eq!(replayed, sample_records()[..1], "scan stops at the corrupt record");
        assert!(replay.truncated_bytes > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn undecodable_payload_cuts_the_log_there() {
        let path = temp_path("decode");
        {
            let (mut wal, _, _) = open_collect(&path);
            wal.append(&sample_records()[0]).unwrap();
            // Checksummed frames whose payloads do not decode: an unknown
            // record tag, and an insert with a trailing byte.
            wal.append_frame(&frame(|buf| buf.push(9))).unwrap();
            wal.append_frame(&frame(|buf| {
                buf.extend_from_slice(&insert_frame("drug", &[Value::Int(1)])[FRAME_HEADER..]);
                buf.push(0);
            }))
            .unwrap();
            wal.sync().unwrap();
        }
        let (_, replayed, replay) = open_collect(&path);
        assert_eq!(replayed, sample_records()[..1]);
        assert!(replay.truncated_bytes > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_length_prefix_is_corruption_not_allocation() {
        let path = temp_path("len");
        {
            let (mut wal, _, _) = open_collect(&path);
            wal.append(&sample_records()[0]).unwrap();
            wal.sync().unwrap();
        }
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&u32::MAX.to_le_bytes()).unwrap();
        f.write_all(&[0u8; 4]).unwrap();
        drop(f);
        let (_, replayed, replay) = open_collect(&path);
        assert_eq!(replayed.len(), 1);
        assert_eq!(replay.truncated_bytes, 8);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_is_an_error() {
        let path = temp_path("magic");
        // A foreign file, and logs written by older builds (the JSON
        // payload formats, and the binary one whose index records carry
        // a kind byte): all fail naming the expected magic, never replay.
        let older = [
            &b"NOTAWAL!xxxx"[..],
            &b"OBCSWAL1"[..],
            &b"OBCSWAL2\0\0\0\0\0\0\0\0"[..],
            &b"OBCSWAL3\0\0\0\0\0\0\0\0"[..],
        ];
        for bytes in older {
            std::fs::write(&path, bytes).unwrap();
            match Wal::open(&path, |_, _| panic!("nothing replays")) {
                Err(DurabilityError::Corrupt(msg)) => assert!(msg.contains("OBCSWAL4"), "{msg}"),
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_frame_over_the_record_cap_is_refused_unwritten() {
        let path = temp_path("cap");
        let (mut wal, _, _) = open_collect(&path);
        wal.append(&sample_records()[0]).unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        // Zeroed pages: only the length is ever read.
        let oversized = vec![0u8; FRAME_HEADER + MAX_RECORD_BYTES + 1];
        match wal.append_frame(&oversized) {
            Err(DurabilityError::RecordTooLarge { bytes, limit }) => {
                assert_eq!((bytes, limit), (MAX_RECORD_BYTES + 1, MAX_RECORD_BYTES));
            }
            other => panic!("expected RecordTooLarge, got {other:?}"),
        }
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len, "nothing was written");
        // A payload of exactly the cap is one the scan accepts.
        assert!(check_frame(&oversized[1..]).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn create_resets_any_file_without_reading_it() {
        let path = temp_path("create");
        let mut current = b"OBCSWAL4".to_vec();
        current.extend_from_slice(&3u64.to_le_bytes());
        current.extend_from_slice(&sample_records()[1].frame());
        for stale in [&b"OBCSWAL2\0\0\0\0\0\0\0\0"[..], b"\xde\xad garbage", &current] {
            std::fs::write(&path, stale).unwrap();
            let wal = Wal::create(&path, 9).unwrap();
            assert_eq!(wal.epoch(), 9);
            drop(wal);
            let (_, replayed, replay) = open_collect(&path);
            assert!(replayed.is_empty());
            assert_eq!(replay.epoch, 9);
            assert_eq!(std::fs::metadata(&path).unwrap().len(), WAL_HEADER as u64);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_failing_consumer_stops_the_scan_and_leaves_the_file() {
        let path = temp_path("consumer");
        {
            let (mut wal, _, _) = open_collect(&path);
            for r in sample_records() {
                wal.append(&r).unwrap();
            }
            wal.sync().unwrap();
        }
        // A torn tail that a completed scan would truncate.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xde, 0xad]).unwrap();
        drop(f);
        let before = std::fs::read(&path).unwrap();
        let mut seen = 0;
        let err = Wal::open(&path, |_, _| {
            seen += 1;
            Err(DurabilityError::Kb(KbError::UnknownTable("drug".to_string())))
        })
        .expect_err("the consumer's error is returned");
        assert!(matches!(err, DurabilityError::Kb(_)), "{err}");
        assert_eq!(seen, 1, "no record is read after the failing one");
        assert_eq!(std::fs::read(&path).unwrap(), before);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reset_compacts_to_header_only_and_stamps_the_epoch() {
        let path = temp_path("reset");
        {
            let (mut wal, _, replay) = open_collect(&path);
            assert_eq!(replay.epoch, 0, "fresh logs start at epoch 0");
            for r in sample_records() {
                wal.append(&r).unwrap();
            }
            wal.reset(7).unwrap();
            assert_eq!(wal.epoch(), 7);
            wal.append(&sample_records()[0]).unwrap();
            wal.sync().unwrap();
        }
        let mut epochs = Vec::new();
        let (_, replay) = Wal::open(&path, |epoch, _| {
            epochs.push(epoch);
            Ok(())
        })
        .unwrap();
        assert_eq!(epochs, [7], "only post-reset records survive, under the new epoch");
        assert_eq!(replay.epoch, 7, "the epoch survives reopen");
        assert_eq!(Wal::peek_epoch(&path), Some(7));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_epoch_header_reopens_as_a_fresh_log() {
        let path = temp_path("torn_epoch");
        {
            let (mut wal, _, _) = open_collect(&path);
            wal.append(&sample_records()[0]).unwrap();
            wal.reset(5).unwrap();
        }
        // A crash mid-reset: the header write itself tore. Every cut
        // inside the epoch field must reopen as a fresh epoch-0 log —
        // the truncate-first ordering guarantees no record follows it.
        let full = std::fs::read(&path).unwrap();
        for cut in WAL_MAGIC.len()..WAL_HEADER {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (_, replayed, replay) = open_collect(&path);
            assert!(replayed.is_empty(), "cut at {cut}");
            assert_eq!(replay.epoch, 0, "cut at {cut}: repaired to a fresh log");
            assert_eq!(replay.truncated_bytes, (cut - WAL_MAGIC.len()) as u64);
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
        direct.create_index("drug", "name").unwrap();
        direct.auto_index();
        assert_eq!(direct.to_json(), replayed.to_json());
        assert_eq!(direct.index_count(), replayed.index_count());
    }
}
