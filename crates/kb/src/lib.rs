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
//! * secondary indexes — one shape, a hash index serving equality and
//!   join probes — picked by the planner at bind time and guaranteed
//!   byte-identical to scan execution ([`index`], DESIGN.md §14). A
//!   filter on a joined table's indexed column probes that index and
//!   walks the join keys back to the FROM table. Every other predicate,
//!   LIKE included, is a scan predicate. The default policy
//!   ([`KnowledgeBase::auto_index`]) indexes every primary and foreign
//!   key, the join keys template SQL probes, and each table's name
//!   column, where its filters land,
//! * prepared plans: a template's `'<@Concept>'` markers bind as
//!   parameters, so a query is bound once and executed with a value
//!   vector ([`KnowledgeBase::prepare_with`], [`KnowledgeBase::execute`],
//!   DESIGN.md §14.2),
//! * data statistics (row counts, distinct counts, categorical-attribute
//!   detection) used by the bootstrapper to identify dependent concepts
//!   (paper §4.2.1) ([`stats`]),
//! * the data-driven ontology generator of the paper's \[18\]: inferring
//!   concepts, data properties, functional relationships, isA, and unionOf
//!   from schema constraints plus instance statistics ([`ontogen`]),
//! * durability: an append-only, checksummed write-ahead log of mutations
//!   plus atomic point-in-time snapshots that compact it. Recovery replays
//!   snapshot + WAL tail, truncates a torn final record instead of
//!   panicking, and restores secondary indexes so a recovered KB serves
//!   with identical access paths. The writer refuses a record the
//!   reader would refuse ([`wal`], [`snapshot`], [`durable`],
//!   DESIGN.md §16).
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
//! traced query execution (`execute_traced`): §10.

mod codec;
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
pub use index::SecondaryIndex;
pub use snapshot::RecoveryReport;
pub use sql::exec::BoundPlan;
pub use store::{KbCacheStats, KbError, KnowledgeBase, ResultSet};
pub use value::Value;
pub use wal::{DurabilityError, Wal, WalRecord};
