//! [`DurableKb`]: a [`KnowledgeBase`] paired with its write-ahead log
//! and snapshot file (DESIGN.md §16).
//!
//! The handle owns one durability directory containing
//! [`SNAPSHOT_FILE`] and [`WAL_FILE`]. Every mutating call is applied
//! to the in-memory store *first* — the store is the validator; an
//! insert the store rejects must never reach the log — and appended to
//! the WAL second. The window between apply and append is the usual
//! write-ahead trade made explicit: a crash there loses the final
//! mutation entirely (prefix consistency) rather than ever replaying a
//! half-applied or invalid record.
//!
//! # Epochs and compaction
//!
//! Snapshot and WAL are paired by a **durability epoch**: the snapshot
//! header carries the epoch it was written at, the WAL header carries
//! the epoch of the snapshot it extends, and recovery replays the log
//! only when the two match (see [`KnowledgeBase::recover_from`]). The
//! handle owns the sequence. [`DurableKb::snapshot`] is the one way to
//! compact: it commits a snapshot at the next epoch atomically, then
//! resets the log to that epoch. A crash between the two leaves a
//! snapshot next to a log of the previous epoch, which recovery detects
//! by the mismatch; the already-snapshotted records are discarded
//! instead of double-applied.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::index::IndexKind;
use crate::schema::TableSchema;
use crate::snapshot::{self, RecoveryReport};
use crate::store::KnowledgeBase;
use crate::value::Value;
use crate::wal::{DurabilityError, Wal, WalRecord};

/// Snapshot file name inside a durability directory.
pub const SNAPSHOT_FILE: &str = "kb.snapshot";

/// WAL file name inside a durability directory.
pub const WAL_FILE: &str = "kb.wal";

/// A knowledge base whose mutations are durable: apply in memory, then
/// log; recover by snapshot + WAL replay.
pub struct DurableKb {
    kb: KnowledgeBase,
    wal: Wal,
    snapshot_path: PathBuf,
    /// The current durability epoch: the epoch of the live snapshot,
    /// which the live WAL extends. Bumped by every compaction.
    epoch: u64,
    /// Records appended since the last snapshot.
    pending: usize,
}

impl fmt::Debug for DurableKb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableKb")
            .field("snapshot_path", &self.snapshot_path)
            .field("epoch", &self.epoch)
            .field("pending", &self.pending)
            .finish_non_exhaustive()
    }
}

impl DurableKb {
    /// Starts a fresh durability directory from `kb`: writes an initial
    /// snapshot and an empty WAL (discarding any stale files from an
    /// earlier incarnation).
    pub fn create(dir: impl AsRef<Path>, kb: KnowledgeBase) -> Result<DurableKb, DurabilityError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let wal_path = dir.join(WAL_FILE);
        // Start above every epoch any stale file wears, so the crash
        // window below (snapshot committed, WAL not yet realigned) is
        // caught by the mismatch instead of replaying the old log.
        let epoch = snapshot::peek_epoch(&snapshot_path)
            .into_iter()
            .chain(Wal::peek_epoch(&wal_path))
            .max()
            .map_or(0, |stale| stale + 1);
        snapshot::write_snapshot(&kb, &snapshot_path, epoch)?;
        let (mut wal, _) = Wal::open(&wal_path)?;
        wal.reset(epoch)?;
        Ok(DurableKb { kb, wal, snapshot_path, epoch, pending: 0 })
    }

    /// Recovers from an existing durability directory: snapshot + WAL
    /// replay with torn-tail truncation and the epoch check (see
    /// [`KnowledgeBase::recover_from`]). The returned handle keeps the
    /// log open, positioned to append after the last intact record.
    pub fn open(dir: impl AsRef<Path>) -> Result<(DurableKb, RecoveryReport), DurabilityError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let (kb, wal, report) = snapshot::recover(&snapshot_path, &dir.join(WAL_FILE))?;
        let pending = report.wal_records;
        let epoch = report.epoch;
        Ok((DurableKb { kb, wal, snapshot_path, epoch, pending }, report))
    }

    /// Whether `dir` holds durable state to recover (a snapshot or a
    /// WAL from an earlier run).
    pub fn exists(dir: impl AsRef<Path>) -> bool {
        let dir = dir.as_ref();
        dir.join(SNAPSHOT_FILE).exists() || dir.join(WAL_FILE).exists()
    }

    /// The in-memory store. Mutations must go through the logged
    /// methods below, so only shared access is exposed.
    pub fn kb(&self) -> &KnowledgeBase {
        &self.kb
    }

    /// Consumes the handle, returning the in-memory store (the log is
    /// closed as written; un-synced bytes are flushed by the OS).
    pub fn into_kb(self) -> KnowledgeBase {
        self.kb
    }

    /// Logged [`KnowledgeBase::create_table`].
    pub fn create_table(&mut self, schema: TableSchema) -> Result<(), DurabilityError> {
        self.kb.create_table(schema.clone())?;
        self.log(WalRecord::CreateTable(schema))
    }

    /// Logged [`KnowledgeBase::insert`].
    pub fn insert(&mut self, table: &str, row: Vec<Value>) -> Result<(), DurabilityError> {
        self.kb.insert(table, row.clone())?;
        self.log(WalRecord::Insert { table: table.to_string(), row })
    }

    /// Logged [`KnowledgeBase::create_index`]. No-op re-creations
    /// return `Ok(false)` without writing a record.
    pub fn create_index(
        &mut self,
        table: &str,
        column: &str,
        kind: IndexKind,
    ) -> Result<bool, DurabilityError> {
        let created = self.kb.create_index(table, column, kind)?;
        if created {
            self.log(WalRecord::CreateIndex {
                table: table.to_string(),
                column: column.to_string(),
                kind,
            })?;
        }
        Ok(created)
    }

    /// Logged [`KnowledgeBase::auto_index`]: the sweep is deterministic
    /// in KB state, so a single marker record replays it exactly.
    pub fn auto_index(&mut self) -> Result<usize, DurabilityError> {
        let created = self.kb.auto_index();
        if created > 0 {
            self.log(WalRecord::AutoIndex)?;
        }
        Ok(created)
    }

    fn log(&mut self, record: WalRecord) -> Result<(), DurabilityError> {
        self.wal.append(&record)?;
        self.pending += 1;
        Ok(())
    }

    /// fsyncs the log. Idempotent: syncing an already-synced log is a
    /// cheap no-op, so shutdown paths may call this repeatedly.
    pub fn sync(&mut self) -> Result<(), DurabilityError> {
        self.wal.sync()
    }

    /// Compaction: commits a snapshot at the next epoch atomically, then
    /// resets the log to that epoch. Recovery afterwards replays zero
    /// records. The ordering is crash-safe: until the snapshot's rename
    /// commits, the old snapshot + WAL pair is the recovered state; after
    /// it, the new snapshot is, and a log not yet reset is discarded by
    /// the epoch check.
    pub fn snapshot(&mut self) -> Result<(), DurabilityError> {
        let epoch = self.epoch + 1;
        snapshot::write_snapshot(&self.kb, &self.snapshot_path, epoch)?;
        self.wal.reset(epoch)?;
        self.epoch = epoch;
        self.pending = 0;
        Ok(())
    }

    /// The current durability epoch (of the live snapshot + WAL pair).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Records appended since the last snapshot (or open).
    pub fn pending_records(&self) -> usize {
        self.pending
    }

    /// Path of the snapshot file.
    pub fn snapshot_path(&self) -> &Path {
        &self.snapshot_path
    }

    /// Path of the WAL file.
    pub fn wal_path(&self) -> &Path {
        self.wal.path()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("obcs_durable_{}_{tag}_{n}", std::process::id()))
    }

    fn drug_schema() -> TableSchema {
        TableSchema::new("drug")
            .column("drug_id", ColumnType::Int)
            .column("name", ColumnType::Text)
            .primary_key("drug_id")
    }

    #[test]
    fn kill_style_restart_recovers_every_logged_mutation() {
        let dir = temp_dir("kill");
        let original = {
            let mut d = DurableKb::create(&dir, KnowledgeBase::new()).unwrap();
            d.create_table(drug_schema()).unwrap();
            for i in 0..10 {
                d.insert("drug", vec![Value::Int(i), Value::text(format!("Drug{i}"))]).unwrap();
            }
            d.create_index("drug", "name", IndexKind::Ordered).unwrap();
            assert_eq!(d.auto_index().unwrap(), 1, "PK hash index");
            d.sync().unwrap();
            assert_eq!(d.pending_records(), 13);
            d.into_kb() // dropped without snapshot(): kill-style exit
        };
        let (recovered, report) = DurableKb::open(&dir).unwrap();
        assert!(report.snapshot_loaded, "create() wrote the initial snapshot");
        assert_eq!(report.wal_records, 13);
        assert_eq!(report.wal_discarded_records, 0);
        assert_eq!(recovered.kb().to_json(), original.to_json());
        assert_eq!(recovered.kb().generation(), original.generation());
        assert_eq!(recovered.kb().schema_generation(), original.schema_generation());
        assert_eq!(recovered.kb().index_count(), original.index_count());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejected_mutations_never_reach_the_log() {
        let dir = temp_dir("reject");
        let mut d = DurableKb::create(&dir, KnowledgeBase::new()).unwrap();
        d.create_table(drug_schema()).unwrap();
        d.insert("drug", vec![Value::Int(1), Value::text("A")]).unwrap();
        let pending = d.pending_records();
        assert!(d.insert("drug", vec![Value::Int(1), Value::text("dup")]).is_err());
        assert!(d.insert("nope", vec![Value::Int(1)]).is_err());
        assert_eq!(d.pending_records(), pending, "failed mutations are not logged");
        drop(d);
        let (recovered, report) = DurableKb::open(&dir).unwrap();
        assert_eq!(report.wal_records, pending);
        assert_eq!(recovered.kb().table("drug").unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_compacts_the_log_and_bumps_the_epoch() {
        let dir = temp_dir("compact");
        let mut d = DurableKb::create(&dir, KnowledgeBase::new()).unwrap();
        assert_eq!(d.epoch(), 0);
        d.create_table(drug_schema()).unwrap();
        for i in 0..5 {
            d.insert("drug", vec![Value::Int(i), Value::text(format!("D{i}"))]).unwrap();
        }
        d.snapshot().unwrap();
        assert_eq!(d.pending_records(), 0);
        assert_eq!(d.epoch(), 1);
        d.insert("drug", vec![Value::Int(99), Value::text("After")]).unwrap();
        let original = d.into_kb();
        let (recovered, report) = DurableKb::open(&dir).unwrap();
        assert_eq!(report.wal_records, 1, "only the post-snapshot record replays");
        assert_eq!(report.epoch, 1);
        assert_eq!(recovered.kb().to_json(), original.to_json());
        assert_eq!(recovered.kb().generation(), original.generation());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_between_snapshot_and_wal_reset_never_double_applies() {
        let dir = temp_dir("crash_window");
        let mut d = DurableKb::create(&dir, KnowledgeBase::new()).unwrap();
        d.create_table(drug_schema()).unwrap();
        for i in 0..6 {
            d.insert("drug", vec![Value::Int(i), Value::text(format!("Drug{i}"))]).unwrap();
        }
        d.sync().unwrap();
        let oracle = d.kb().clone();
        let stale_records = d.pending_records();
        assert!(stale_records > 0);
        // Simulate the PR-9 crash window: the next-epoch snapshot
        // commits, then the process dies before the WAL is realigned —
        // a fresh snapshot sitting next to a stale log whose records
        // the snapshot already contains.
        let next_epoch = d.epoch() + 1;
        snapshot::write_snapshot(d.kb(), d.snapshot_path(), next_epoch).unwrap();
        drop(d); // no wal.reset(): the crash

        let (recovered, report) = DurableKb::open(&dir).unwrap();
        assert_eq!(report.epoch, next_epoch);
        assert_eq!(report.wal_records, 0, "stale records must not replay");
        assert_eq!(report.wal_discarded_records, stale_records, "…and the discard is reported");
        assert!(report.wal_discard_reason.is_some());
        assert_eq!(
            recovered.kb().to_json(),
            oracle.to_json(),
            "exactly the oracle — no duplicates"
        );
        assert_eq!(recovered.kb().table("drug").unwrap().len(), 6);
        assert_eq!(recovered.epoch(), next_epoch);
        // The recovered handle keeps working at the realigned epoch.
        let mut recovered = recovered;
        recovered.insert("drug", vec![Value::Int(100), Value::text("Post")]).unwrap();
        drop(recovered);
        let (again, report) = DurableKb::open(&dir).unwrap();
        assert_eq!(report.wal_records, 1);
        assert_eq!(report.wal_discarded_records, 0);
        assert_eq!(again.kb().table("drug").unwrap().len(), 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_discards_stale_durable_state() {
        let dir = temp_dir("stale");
        {
            let mut d = DurableKb::create(&dir, KnowledgeBase::new()).unwrap();
            d.create_table(drug_schema()).unwrap();
            d.insert("drug", vec![Value::Int(1), Value::text("Old")]).unwrap();
            d.snapshot().unwrap(); // leave a non-zero epoch behind
        }
        assert!(DurableKb::exists(&dir));
        // A fresh create over the same dir starts from the new KB alone,
        // at an epoch above everything the stale files wear.
        let d = DurableKb::create(&dir, KnowledgeBase::new()).unwrap();
        assert_eq!(d.epoch(), 2, "stale epoch 1 is skipped past");
        drop(d);
        let (recovered, report) = DurableKb::open(&dir).unwrap();
        assert_eq!(report.wal_records, 0);
        assert!(!recovered.kb().has_table("drug"));
        std::fs::remove_dir_all(&dir).ok();
        assert!(!DurableKb::exists(&dir));
    }
}
