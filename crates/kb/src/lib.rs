//! # obcs-kb
//!
//! An in-memory relational knowledge base used as the storage substrate of
//! the ontology-based conversation system (SIGMOD'20). The paper stores the
//! Micromedex KB in Db2 on Cloud and executes the SQL produced by the
//! conversation space against it; this crate provides the equivalent local
//! substrate:
//!
//! * a typed relational store with primary/foreign-key constraints
//!   ([`KnowledgeBase`], [`schema`]),
//! * a SQL-subset parser and executor covering the query fragment the
//!   conversation system generates — `SELECT [DISTINCT] … FROM … INNER JOIN
//!   … ON … WHERE … AND … [ORDER BY …] [LIMIT …]` ([`sql`]),
//! * planner-selected secondary indexes — hash for equality and join
//!   probes, ordered for LIKE-prefix range reads — chosen at bind time
//!   and guaranteed byte-identical to scan execution ([`index`],
//!   DESIGN.md §14),
//! * data statistics (row counts, distinct counts, categorical-attribute
//!   detection) used by the bootstrapper to identify dependent concepts
//!   (paper §4.2.1) ([`stats`]),
//! * the data-driven ontology generator of the paper's \[18\]: inferring
//!   concepts, data properties, functional relationships, isA, and unionOf
//!   from schema constraints plus instance statistics ([`ontogen`]),
//! * durability: an append-only, checksummed write-ahead log of mutations
//!   plus atomic point-in-time snapshots that compact it. Recovery replays
//!   snapshot + WAL tail, truncates a torn final record instead of
//!   panicking, and restores generation counters and secondary indexes so
//!   a recovered KB serves with identical access paths ([`wal`],
//!   [`snapshot`], [`durable`], DESIGN.md §16).
//!
//! ## Example
//!
//! ```
//! use obcs_kb::{KnowledgeBase, schema::{TableSchema, ColumnType}, value::Value};
//!
//! let mut kb = KnowledgeBase::new();
//! kb.create_table(
//!     TableSchema::new("drug")
//!         .column("drug_id", ColumnType::Int).primary_key("drug_id")
//!         .column("name", ColumnType::Text),
//! ).unwrap();
//! kb.insert("drug", vec![Value::Int(1), Value::text("Aspirin")]).unwrap();
//! let rows = kb.query("SELECT name FROM drug WHERE drug_id = 1").unwrap();
//! assert_eq!(rows.rows[0][0], Value::text("Aspirin"));
//! ```
//!
//! Crate role: DESIGN.md §2; executor performance architecture: §9;
//! traced query execution (`query_traced`): §10.

pub mod durable;
pub mod index;
pub mod ontogen;
pub mod schema;
pub mod snapshot;
pub mod sql;
pub mod stats;
pub mod store;
pub mod value;
pub mod wal;

pub use durable::{DurableKb, SNAPSHOT_FILE, WAL_FILE};
pub use index::{IndexKind, IndexSpec, SecondaryIndex};
pub use snapshot::RecoveryReport;
pub use sql::exec::BoundPlan;
pub use store::{GenerationStamp, KbCacheStats, KbError, KnowledgeBase, ResultSet};
pub use value::Value;
pub use wal::{DurabilityError, Wal, WalRecord};
