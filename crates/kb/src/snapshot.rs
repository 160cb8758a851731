//! Point-in-time KB snapshots and epoch-checked recovery (DESIGN.md
//! §16).
//!
//! A snapshot is a **binary streamed** image:
//!
//! ```text
//! OBCSSNB2 [u64 epoch LE]
//!   section: meta            [u32 table_count]
//!   per table (sorted by name):
//!     section: table header  name, schema JSON, index specs, row count
//!     section*: row chunks   [u32 rows] then rows, values tag-encoded
//! ```
//!
//! where every `section` is `[u32 len LE] [u32 crc32 LE] [payload]`.
//! Values are encoded directly from their in-memory form (one tag byte
//! plus a fixed-width integer/float or length-prefixed text) — no JSON
//! string round-trips — and both sides stream through
//! `BufWriter`/`BufReader` in bounded chunks, so neither writing nor
//! reading materialises the whole image. The header's **epoch** pairs
//! the snapshot with the WAL that extends it: recovery replays the log
//! only when the epochs match, which is what makes the
//! snapshot-then-reset compaction sequence crash-safe (see
//! [`crate::wal`]).
//!
//! Snapshots are committed atomically — stream to `<path>.tmp`, fsync,
//! rename over `<path>` — so a crash mid-snapshot leaves the previous
//! snapshot intact. A torn *snapshot* therefore never occurs on the
//! normal path, and [`read_snapshot`] treats any frame damage as hard
//! corruption rather than something to silently truncate (unlike the
//! WAL tail, where torn frames are the expected crash residue). A file
//! with any other magic — including a snapshot written by an older
//! build — is likewise [`DurabilityError::Corrupt`], never misread.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::index::{IndexKind, IndexSpec};
use crate::schema::TableSchema;
use crate::store::{KnowledgeBase, Table};
use crate::value::{FiniteF64, Value};
use crate::wal::{crc32, DurabilityError, Wal, MAX_RECORD_BYTES};

/// Magic header identifying a binary streamed snapshot. The magic is
/// followed by a little-endian u64 durability epoch.
pub const SNAPSHOT_MAGIC_BINARY: &[u8; 8] = b"OBCSSNB2";

/// Target payload size of one row-chunk section. Large enough to keep
/// framing overhead negligible, small enough that neither side ever
/// holds more than one chunk of encoded rows in memory.
const CHUNK_TARGET_BYTES: usize = 256 * 1024;

/// What one recovery pass did, for operators and the `repro recover`
/// harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a snapshot file existed (false: recovery started from an
    /// empty KB and replayed the WAL alone).
    pub snapshot_loaded: bool,
    /// The durability epoch of the recovered state: the snapshot's
    /// epoch, or the WAL's when no snapshot exists.
    pub epoch: u64,
    /// Intact WAL records replayed on top of the snapshot.
    pub wal_records: usize,
    /// Torn-tail bytes truncated from the WAL (0 for a clean shutdown).
    pub wal_truncated_bytes: u64,
    /// Intact WAL records *discarded* instead of replayed, because the
    /// log's epoch did not pair with the snapshot's — the residue of a
    /// crash between a snapshot commit and its WAL reset. Their effects
    /// are already in the snapshot; replaying them would double-apply.
    pub wal_discarded_records: usize,
    /// Why records were discarded, when [`Self::wal_discarded_records`]
    /// is non-zero.
    pub wal_discard_reason: Option<String>,
}

// ---------------------------------------------------------------------
// Binary format: value and section codecs
// ---------------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_TEXT: u8 = 4;

fn encode_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(TAG_NULL),
        Value::Bool(b) => {
            buf.push(TAG_BOOL);
            buf.push(u8::from(*b));
        }
        Value::Int(i) => {
            buf.push(TAG_INT);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            buf.push(TAG_FLOAT);
            buf.extend_from_slice(&f.get().to_bits().to_le_bytes());
        }
        Value::Text(s) => {
            buf.push(TAG_TEXT);
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
    }
}

/// A bounds-checked cursor over one decoded section payload. Every read
/// failure is a [`DurabilityError::Corrupt`]: the payload already passed
/// its checksum, so running out of bytes means the writer and reader
/// disagree about the layout — never something to tolerate.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    context: &'a str,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8], context: &'a str) -> Self {
        Cursor { bytes, pos: 0, context }
    }

    fn corrupt(&self, what: &str) -> DurabilityError {
        DurabilityError::Corrupt(format!("{}: {what}", self.context))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DurabilityError> {
        if self.bytes.len() - self.pos < n {
            return Err(self.corrupt("section payload ends mid-field"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DurabilityError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DurabilityError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, DurabilityError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a u32 element count and checks that the rest of the payload
    /// can hold that many elements of at least `min_bytes` each, so an
    /// inflated count is corruption before anything is sized from it.
    fn count(&mut self, min_bytes: usize) -> Result<usize, DurabilityError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_bytes) > self.bytes.len() - self.pos {
            return Err(self.corrupt(&format!("count {n} overruns the section payload")));
        }
        Ok(n)
    }

    fn text(&mut self) -> Result<String, DurabilityError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.corrupt("non-UTF-8 text field"))
    }

    fn value(&mut self) -> Result<Value, DurabilityError> {
        match self.u8()? {
            TAG_NULL => Ok(Value::Null),
            TAG_BOOL => Ok(Value::Bool(self.u8()? != 0)),
            TAG_INT => Ok(Value::Int(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))),
            TAG_FLOAT => {
                let bits = u64::from_le_bytes(self.take(8)?.try_into().expect("8"));
                let f = f64::from_bits(bits);
                if !f.is_finite() {
                    return Err(self.corrupt("non-finite float value"));
                }
                Ok(Value::Float(FiniteF64::new(f)))
            }
            TAG_TEXT => Ok(Value::Text(self.text()?)),
            tag => Err(self.corrupt(&format!("unknown value tag {tag}"))),
        }
    }

    fn finish(&self) -> Result<(), DurabilityError> {
        if self.pos != self.bytes.len() {
            return Err(self.corrupt("trailing bytes after the last field"));
        }
        Ok(())
    }
}

/// Writes one `[len][crc][payload]` section.
fn write_section(w: &mut impl Write, payload: &[u8]) -> Result<(), DurabilityError> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// Reads one section. Every failure mode — a short header, an oversized
/// length, a short payload, a checksum mismatch — is hard corruption:
/// snapshot commits are atomic, so a damaged section means the file was
/// damaged, not interrupted.
fn read_section(r: &mut impl Read, path: &Path) -> Result<Vec<u8>, DurabilityError> {
    let mut header = [0u8; 8];
    read_exact_or_corrupt(r, &mut header, path, "section header")?;
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    if len > MAX_RECORD_BYTES {
        return Err(DurabilityError::Corrupt(format!(
            "{}: section claims {len} bytes (limit {MAX_RECORD_BYTES})",
            path.display()
        )));
    }
    let mut payload = vec![0u8; len];
    read_exact_or_corrupt(r, &mut payload, path, "section payload")?;
    if crc32(&payload) != crc {
        return Err(DurabilityError::Corrupt(format!(
            "{}: section checksum mismatch",
            path.display()
        )));
    }
    Ok(payload)
}

/// `read_exact` that reports a short read as corruption (a truncated
/// snapshot) instead of a bare I/O error.
fn read_exact_or_corrupt(
    r: &mut impl Read,
    buf: &mut [u8],
    path: &Path,
    what: &str,
) -> Result<(), DurabilityError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            DurabilityError::Corrupt(format!("{}: truncated {what}", path.display()))
        } else {
            DurabilityError::Io(e)
        }
    })
}

// ---------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------

/// Writes `kb` as a binary snapshot at `path`, atomically: stream to
/// `<path>.tmp`, fsync, rename over `path`, sync the directory. The
/// rename is the durability commit point — before it the old snapshot
/// (and its matching WAL) is the recovered state, after it the new one
/// is.
pub fn write_snapshot(kb: &KnowledgeBase, path: &Path, epoch: u64) -> Result<(), DurabilityError> {
    let tmp = path.with_extension("tmp");
    let mut w = BufWriter::new(File::create(&tmp)?);
    w.write_all(SNAPSHOT_MAGIC_BINARY)?;
    w.write_all(&epoch.to_le_bytes())?;

    let names = kb.table_names();
    write_section(&mut w, &(names.len() as u32).to_le_bytes())?;

    for name in names {
        let table = kb.table(name).expect("table_names() returns existing tables");
        let schema_json = serde_json::to_string(&table.schema)
            .expect("schema serialisation cannot fail")
            .into_bytes();
        let specs = table.index_specs();

        let mut header = Vec::new();
        header.extend_from_slice(&(name.len() as u32).to_le_bytes());
        header.extend_from_slice(name.as_bytes());
        header.extend_from_slice(&(schema_json.len() as u32).to_le_bytes());
        header.extend_from_slice(&schema_json);
        header.extend_from_slice(&(specs.len() as u32).to_le_bytes());
        for spec in &specs {
            header.extend_from_slice(&(spec.column.len() as u32).to_le_bytes());
            header.extend_from_slice(spec.column.as_bytes());
            header.push(match spec.kind {
                IndexKind::Hash => 0,
                IndexKind::Ordered => 1,
            });
        }
        header.extend_from_slice(&(table.rows.len() as u64).to_le_bytes());
        write_section(&mut w, &header)?;

        // Row chunks: encode into a bounded buffer, flush a section
        // whenever it passes the target. The chunk boundaries are not
        // part of the format's meaning — the reader just consumes
        // sections until the declared row count is reached.
        let mut chunk = Vec::with_capacity(CHUNK_TARGET_BYTES + 1024);
        let mut rows_in_chunk = 0u32;
        chunk.extend_from_slice(&[0u8; 4]); // row-count placeholder
        for row in &table.rows {
            for v in row {
                encode_value(&mut chunk, v);
            }
            rows_in_chunk += 1;
            if chunk.len() >= CHUNK_TARGET_BYTES {
                chunk[..4].copy_from_slice(&rows_in_chunk.to_le_bytes());
                write_section(&mut w, &chunk)?;
                chunk.clear();
                chunk.extend_from_slice(&[0u8; 4]);
                rows_in_chunk = 0;
            }
        }
        if rows_in_chunk > 0 {
            chunk[..4].copy_from_slice(&rows_in_chunk.to_le_bytes());
            write_section(&mut w, &chunk)?;
        }
    }

    let file = w.into_inner().map_err(|e| DurabilityError::Io(e.into_error()))?;
    file.sync_all()?;
    std::fs::rename(&tmp, path)?;
    // Persist the rename itself where the platform allows it.
    if let Some(dir) = path.parent() {
        if let Ok(d) = OpenOptions::new().read(true).open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Readers
// ---------------------------------------------------------------------

/// Reads a snapshot back into a [`KnowledgeBase`] (indexes restored),
/// returning the header epoch. Any frame
/// damage is [`DurabilityError::Corrupt`] — snapshot commits are atomic,
/// so a torn snapshot means the file was damaged, not interrupted.
pub fn read_snapshot(path: &Path) -> Result<(KnowledgeBase, u64), DurabilityError> {
    let mut r = BufReader::new(File::open(path)?);
    let mut magic = [0u8; 8];
    read_exact_or_corrupt(&mut r, &mut magic, path, "magic header")?;
    if &magic != SNAPSHOT_MAGIC_BINARY {
        return Err(DurabilityError::Corrupt(format!(
            "{} is not an {} snapshot",
            path.display(),
            String::from_utf8_lossy(SNAPSHOT_MAGIC_BINARY)
        )));
    }
    let mut epoch = [0u8; 8];
    read_exact_or_corrupt(&mut r, &mut epoch, path, "snapshot epoch")?;
    let epoch = u64::from_le_bytes(epoch);

    let meta = read_section(&mut r, path)?;
    let mut c = Cursor::new(&meta, "meta section");
    let table_count = c.u32()?;
    c.finish()?;

    let corrupt = |msg: String| DurabilityError::Corrupt(format!("{}: {msg}", path.display()));
    // Not pre-sized: every table is a section of its own, so the meta
    // payload cannot vouch for `table_count`.
    let mut tables = HashMap::new();
    for _ in 0..table_count {
        let header = read_section(&mut r, path)?;
        let mut c = Cursor::new(&header, "table header section");
        let name = c.text()?;
        let schema_json = c.text()?;
        let schema: TableSchema = serde_json::from_str(&schema_json)
            .map_err(|e| corrupt(format!("table {name:?} schema does not parse: {e}")))?;
        schema.check().map_err(|e| corrupt(format!("table {name:?} schema is invalid: {e}")))?;
        // A spec is at least a column-name length and a kind byte.
        let spec_count = c.count(5)?;
        let mut specs = Vec::with_capacity(spec_count);
        for _ in 0..spec_count {
            let column = c.text()?;
            let kind = match c.u8()? {
                0 => IndexKind::Hash,
                1 => IndexKind::Ordered,
                k => return Err(corrupt(format!("table {name:?} has unknown index kind {k}"))),
            };
            specs.push(IndexSpec { column, kind });
        }
        let row_count = c.u64()?;
        c.finish()?;

        // Rows are reserved chunk by chunk, never from `row_count`: a
        // chunk's count is checked against its own bytes first (every
        // value is at least its tag byte, and a checked schema has at
        // least one column).
        let arity = schema.columns.len();
        let mut rows: Vec<Vec<Value>> = Vec::new();
        while (rows.len() as u64) < row_count {
            let chunk = read_section(&mut r, path)?;
            let mut c = Cursor::new(&chunk, "row chunk section");
            let n = c.count(arity)?;
            let remaining = row_count - rows.len() as u64;
            if n == 0 || n as u64 > remaining {
                return Err(corrupt(format!(
                    "table {name:?} chunk carries {n} rows against {remaining} remaining"
                )));
            }
            rows.reserve(n);
            for _ in 0..n {
                let mut row = Vec::with_capacity(arity);
                for _ in 0..arity {
                    row.push(c.value()?);
                }
                rows.push(row);
            }
            c.finish()?;
        }

        let table = Table::assemble(schema, rows, &specs)
            .map_err(|e| corrupt(format!("table {name:?} does not reassemble: {e}")))?;
        tables.insert(name, table);
    }

    // The image must end exactly where the declared sections do:
    // trailing bytes mean the file and its framing disagree.
    let mut probe = [0u8; 1];
    if r.read(&mut probe)? != 0 {
        return Err(corrupt("trailing bytes after the final section".to_string()));
    }

    Ok((KnowledgeBase::assemble(tables), epoch))
}

/// Reads the epoch out of a snapshot header without loading the image.
/// `None` for a missing, foreign, or torn file.
pub(crate) fn peek_epoch(path: &Path) -> Option<u64> {
    let mut header = [0u8; 16];
    let mut f = File::open(path).ok()?;
    f.read_exact(&mut header).ok()?;
    if &header[..8] != SNAPSHOT_MAGIC_BINARY {
        return None;
    }
    Some(u64::from_le_bytes(header[8..].try_into().expect("8 bytes")))
}

// ---------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------

/// Recovery internals shared by [`KnowledgeBase::recover_from`] and
/// `DurableKb::open`: load the snapshot, then replay the WAL *iff its
/// epoch pairs with the snapshot's* (torn tail already truncated by
/// `Wal::open`).
pub(crate) fn recover(
    snapshot_path: &Path,
    wal_path: &Path,
) -> Result<(KnowledgeBase, Wal, RecoveryReport), DurabilityError> {
    let snapshot_loaded = snapshot_path.exists();
    let (mut kb, snap_epoch) = if snapshot_loaded {
        let (kb, epoch) = read_snapshot(snapshot_path)?;
        (kb, Some(epoch))
    } else {
        (KnowledgeBase::new(), None)
    };

    let (mut wal, replay) = Wal::open(wal_path)?;
    let intact = replay.records.len();
    let (records, epoch, wal_discarded_records, wal_discard_reason) = match snap_epoch {
        // The log extends this snapshot: replay it.
        Some(se) if se == replay.epoch => (replay.records, se, 0, None),
        // Epoch mismatch: a crash between a snapshot commit and its WAL
        // reset (or a stale log from an earlier incarnation). The
        // snapshot already contains the records' effects — discard them
        // and realign the log, never double-apply.
        Some(se) => {
            let reason = (intact > 0).then(|| {
                format!(
                    "WAL at epoch {} does not extend the snapshot at epoch {se}; \
                     its {intact} records are already in the snapshot",
                    replay.epoch
                )
            });
            wal.reset(se)?;
            (Vec::new(), se, intact, reason)
        }
        // No snapshot: the log is the authority; adopt its epoch.
        None => (replay.records, replay.epoch, 0, None),
    };

    for record in &records {
        record.apply(&mut kb)?;
    }
    Ok((
        kb,
        wal,
        RecoveryReport {
            snapshot_loaded,
            epoch,
            wal_records: records.len(),
            wal_truncated_bytes: replay.truncated_bytes,
            wal_discarded_records,
            wal_discard_reason,
        },
    ))
}

impl KnowledgeBase {
    /// Writes this KB as an atomic point-in-time binary snapshot at
    /// `path`, stamped at epoch 0. Standalone use only — a snapshot
    /// paired with a WAL must go through `DurableKb`, which manages the
    /// epoch sequence.
    pub fn snapshot_to(&self, path: impl AsRef<Path>) -> Result<(), DurabilityError> {
        write_snapshot(self, path.as_ref(), 0)
    }

    /// Rebuilds a KB from a snapshot plus the WAL tail: loads the
    /// snapshot at `snapshot_path` (or starts empty if none exists),
    /// replays every intact record of the log at `wal_path` — a torn
    /// final record is truncated, never applied, and a log whose epoch
    /// does not pair with the snapshot's is discarded outright (its
    /// records are already in the snapshot). Secondary and PK indexes
    /// both come back, so a recovered KB serves with the same access
    /// paths as the original (see `WalRecord::apply`).
    pub fn recover_from(
        snapshot_path: impl AsRef<Path>,
        wal_path: impl AsRef<Path>,
    ) -> Result<(KnowledgeBase, RecoveryReport), DurabilityError> {
        let (kb, _wal, report) = recover(snapshot_path.as_ref(), wal_path.as_ref())?;
        Ok((kb, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexKind;
    use crate::schema::{ColumnType, TableSchema};
    use crate::value::Value;
    use crate::wal::WalRecord;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("obcs_snap_{}_{tag}_{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        kb.create_table(
            TableSchema::new("drug")
                .column("drug_id", ColumnType::Int)
                .column("name", ColumnType::Text)
                .primary_key("drug_id"),
        )
        .unwrap();
        for (i, n) in [(1, "Aspirin"), (2, "Ibuprofen")] {
            kb.insert("drug", vec![Value::Int(i), Value::text(n)]).unwrap();
        }
        kb.create_index("drug", "drug_id", IndexKind::Hash).unwrap();
        kb
    }

    #[test]
    fn binary_snapshot_roundtrip_restores_everything() {
        let dir = temp_dir("roundtrip");
        let kb = sample_kb();
        let path = dir.join("kb.snapshot");
        write_snapshot(&kb, &path, 42).unwrap();
        assert_eq!(peek_epoch(&path), Some(42));
        let (back, epoch) = read_snapshot(&path).unwrap();
        assert_eq!(epoch, 42, "the header epoch comes back");
        assert_eq!(back.to_json(), kb.to_json());
        assert_eq!(back.index_count(), kb.index_count());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `image` with the payload of its `index`-th section edited in
    /// place and the section checksum recomputed, so only the reader's
    /// own checks can reject it.
    fn edit_section(image: &[u8], index: usize, edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
        let mut out = image.to_vec();
        let section_len =
            |out: &[u8], pos: usize| u32::from_le_bytes(out[pos..pos + 4].try_into().unwrap());
        let mut pos = 16;
        for _ in 0..index {
            pos += 8 + section_len(&out, pos) as usize;
        }
        let payload = pos + 8..pos + 8 + section_len(&out, pos) as usize;
        edit(&mut out[payload.clone()]);
        let crc = crc32(&out[payload]);
        out[pos + 4..pos + 8].copy_from_slice(&crc.to_le_bytes());
        out
    }

    #[test]
    fn corrupt_snapshot_is_an_error_not_a_truncation() {
        let dir = temp_dir("corrupt");
        let path = dir.join("kb.snapshot");
        sample_kb().snapshot_to(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        let mut flipped = full.clone();
        flipped[full.len() / 2] ^= 0x10;
        let mut padded = full.clone();
        padded.push(0);
        // Counts inflated behind a valid checksum: the META table count
        // (the last field of section 0) and the first table's row count
        // (the last field of its header, section 1). Both must be
        // refused before anything is sized from them.
        let huge_tables =
            edit_section(&full, 0, |meta| meta.copy_from_slice(&u32::MAX.to_le_bytes()));
        let huge_rows = edit_section(&full, 1, |header| {
            let at = header.len() - 8;
            header[at..].copy_from_slice(&(1u64 << 40).to_le_bytes());
        });
        let older_build: &[u8] = b"OBCSSNP1";
        // The previous binary format, whose META section differs.
        let mut previous_format = full.clone();
        previous_format[..8].copy_from_slice(b"OBCSSNB1");
        let inputs: [(&str, &[u8]); 7] = [
            ("flipped bit", &flipped),
            ("truncated", &full[..full.len() - 5]),
            ("trailing garbage", &padded),
            ("table count u32::MAX", &huge_tables),
            ("row count 2^40", &huge_rows),
            ("older-build magic", older_build),
            ("OBCSSNB1 magic", &previous_format),
        ];
        for (what, bytes) in inputs {
            std::fs::write(&path, bytes).unwrap();
            match read_snapshot(&path) {
                Err(DurabilityError::Corrupt(msg)) => {
                    if bytes == older_build || bytes == previous_format {
                        assert!(
                            msg.contains("OBCSSNB2"),
                            "{what}: names the expected magic: {msg}"
                        );
                    }
                }
                Err(other) => panic!("{what}: expected Corrupt, got {other}"),
                Ok(_) => panic!("{what}: a damaged snapshot loaded"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_from_snapshot_plus_wal_tail() {
        let dir = temp_dir("recover");
        let snap = dir.join("kb.snapshot");
        let wal_path = dir.join("kb.wal");
        let mut kb = sample_kb();
        kb.snapshot_to(&snap).unwrap();
        let (mut wal, _) = Wal::open(&wal_path).unwrap();
        // Post-snapshot mutations, applied and logged in lockstep.
        let tail = vec![
            WalRecord::Insert {
                table: "drug".to_string(),
                row: vec![Value::Int(3), Value::text("Naproxen")],
            },
            WalRecord::CreateIndex {
                table: "drug".to_string(),
                column: "name".to_string(),
                kind: IndexKind::Ordered,
            },
        ];
        for r in &tail {
            r.apply(&mut kb).unwrap();
            wal.append(r).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);

        let (recovered, report) = KnowledgeBase::recover_from(&snap, &wal_path).unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.epoch, 0, "snapshot_to stamps epoch 0; the fresh WAL matches");
        assert_eq!(report.wal_records, 2);
        assert_eq!(report.wal_truncated_bytes, 0);
        assert_eq!(report.wal_discarded_records, 0);
        assert_eq!(recovered.to_json(), kb.to_json());
        assert_eq!(recovered.index_count(), kb.index_count());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn epoch_mismatch_discards_the_stale_wal_with_a_reason() {
        let dir = temp_dir("mismatch");
        let snap = dir.join("kb.snapshot");
        let wal_path = dir.join("kb.wal");
        // A WAL at epoch 0 carrying records whose effects the epoch-1
        // snapshot already contains — the exact residue of a crash
        // between a snapshot commit and its WAL reset.
        let mut kb = sample_kb();
        let (mut wal, _) = Wal::open(&wal_path).unwrap();
        let stale = WalRecord::Insert {
            table: "drug".to_string(),
            row: vec![Value::Int(3), Value::text("Naproxen")],
        };
        stale.apply(&mut kb).unwrap();
        wal.append(&stale).unwrap();
        wal.sync().unwrap();
        drop(wal);
        write_snapshot(&kb, &snap, 1).unwrap();

        let (recovered, report) = KnowledgeBase::recover_from(&snap, &wal_path).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.wal_records, 0, "stale records never replay");
        assert_eq!(report.wal_discarded_records, 1);
        let reason = report.wal_discard_reason.as_deref().expect("discard is reported");
        assert!(reason.contains("epoch 0") && reason.contains("epoch 1"), "{reason}");
        assert_eq!(recovered.to_json(), kb.to_json(), "no duplicate row");
        // The realignment is durable: a second recovery is clean.
        let (again, report) = KnowledgeBase::recover_from(&snap, &wal_path).unwrap();
        assert_eq!(report.wal_discarded_records, 0);
        assert_eq!(report.epoch, 1);
        assert_eq!(again.to_json(), kb.to_json());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_without_snapshot_replays_the_wal_alone() {
        let dir = temp_dir("walonly");
        let snap = dir.join("kb.snapshot");
        let wal_path = dir.join("kb.wal");
        let mut oracle = KnowledgeBase::new();
        let records = vec![
            WalRecord::CreateTable(
                TableSchema::new("t").column("id", ColumnType::Int).primary_key("id"),
            ),
            WalRecord::Insert { table: "t".to_string(), row: vec![Value::Int(9)] },
        ];
        let (mut wal, _) = Wal::open(&wal_path).unwrap();
        for r in &records {
            r.apply(&mut oracle).unwrap();
            wal.append(r).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let (recovered, report) = KnowledgeBase::recover_from(&snap, &wal_path).unwrap();
        assert!(!report.snapshot_loaded);
        assert_eq!(report.wal_records, 2);
        assert_eq!(report.epoch, 0, "a fresh WAL starts the epoch sequence at 0");
        assert_eq!(recovered.table("t").unwrap().len(), 1);
        assert_eq!(recovered.to_json(), oracle.to_json());
        assert_eq!(recovered.index_count(), oracle.index_count());
        std::fs::remove_dir_all(&dir).ok();
    }
}
