//! The knowledge-base store: tables of typed rows with constraint checking
//! and a query entry point.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

use obcs_cache::{CacheConfig, CacheStats, GenCache};
use serde::{Deserialize, Serialize};

use crate::index::{IndexKind, IndexSpec, SecondaryIndex};
use crate::schema::TableSchema;
use crate::sql;
use crate::stats;
use crate::value::Value;

/// Errors produced by the store and the SQL engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KbError {
    TableExists(String),
    UnknownTable(String),
    UnknownColumn {
        table: String,
        column: String,
    },
    SchemaInvalid(String),
    ArityMismatch {
        table: String,
        expected: usize,
        got: usize,
    },
    TypeMismatch {
        table: String,
        column: String,
        value: String,
    },
    NullPrimaryKey {
        table: String,
    },
    DuplicatePrimaryKey {
        table: String,
        key: String,
    },
    ForeignKeyViolation {
        table: String,
        column: String,
        value: String,
    },
    /// SQL parse error with position information.
    Parse(String),
    /// SQL semantic error (ambiguous column, unknown alias, ...).
    Semantic(String),
}

impl fmt::Display for KbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KbError::TableExists(t) => write!(f, "table `{t}` already exists"),
            KbError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            KbError::UnknownColumn { table, column } => {
                write!(f, "unknown column `{column}` in table `{table}`")
            }
            KbError::SchemaInvalid(msg) => write!(f, "invalid schema: {msg}"),
            KbError::ArityMismatch { table, expected, got } => {
                write!(f, "table `{table}` expects {expected} values, got {got}")
            }
            KbError::TypeMismatch { table, column, value } => {
                write!(f, "value `{value}` not admissible in `{table}.{column}`")
            }
            KbError::NullPrimaryKey { table } => {
                write!(f, "primary key of `{table}` cannot be NULL")
            }
            KbError::DuplicatePrimaryKey { table, key } => {
                write!(f, "duplicate primary key `{key}` in `{table}`")
            }
            KbError::ForeignKeyViolation { table, column, value } => {
                write!(f, "`{table}.{column}` = `{value}` references a missing row")
            }
            KbError::Parse(msg) => write!(f, "SQL parse error: {msg}"),
            KbError::Semantic(msg) => write!(f, "SQL error: {msg}"),
        }
    }
}

impl std::error::Error for KbError {}

/// One stored table: schema plus row data and a primary-key index.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    pub schema: TableSchema,
    pub rows: Vec<Vec<Value>>,
    /// PK value → row position, present when the schema declares a PK.
    #[serde(skip)]
    pk_index: HashMap<Value, usize>,
    /// Secondary index *structures* (DESIGN.md §14): maintained on
    /// insert, rebuilt from rows on load, never serialised directly.
    #[serde(skip)]
    secondary: Vec<SecondaryIndex>,
    /// Durable index policy (DESIGN.md §16): the `(column, kind)` specs
    /// of `secondary`, stamped into the JSON envelope by
    /// [`KnowledgeBase::to_json`] so deserialisation rebuilds the same
    /// access paths. `None` in live tables and in pre-policy envelopes
    /// (those deserialise scan-only, exactly as before).
    index_policy: Option<Vec<IndexSpec>>,
}

impl Table {
    fn new(schema: TableSchema) -> Self {
        Table {
            schema,
            rows: Vec::new(),
            pk_index: HashMap::new(),
            secondary: Vec::new(),
            index_policy: None,
        }
    }

    /// Finds a row by primary-key value.
    pub fn row_by_pk(&self, key: &Value) -> Option<&[Value]> {
        self.pk_index.get(key).map(|&i| self.rows[i].as_slice())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The secondary indexes on this table.
    pub fn secondary_indexes(&self) -> &[SecondaryIndex] {
        &self.secondary
    }

    /// A secondary index of `kind` on column position `col`, if any.
    pub fn index_of_kind(&self, col: usize, kind: IndexKind) -> Option<&SecondaryIndex> {
        self.secondary.iter().find(|i| i.column_pos() == col && i.kind() == kind)
    }

    /// The best index for an equality probe on column position `col`:
    /// a hash index if present, else an ordered one.
    pub fn index_for_eq(&self, col: usize) -> Option<&SecondaryIndex> {
        self.index_of_kind(col, IndexKind::Hash)
            .or_else(|| self.index_of_kind(col, IndexKind::Ordered))
    }

    /// The column position a new `kind` index on `column` would cover,
    /// or `None` if an identical index already exists.
    fn new_index_column(&self, column: &str, kind: IndexKind) -> Result<Option<usize>, KbError> {
        let col = self.schema.column_index(column).ok_or_else(|| KbError::UnknownColumn {
            table: self.schema.name.clone(),
            column: column.to_string(),
        })?;
        Ok(self.index_of_kind(col, kind).is_none().then_some(col))
    }

    /// Adds (and builds) a secondary index; a no-op if an identical one
    /// already exists.
    fn add_secondary(&mut self, column: &str, kind: IndexKind) -> Result<(), KbError> {
        if let Some(col) = self.new_index_column(column, kind)? {
            let mut idx = SecondaryIndex::new(column, col, kind);
            idx.rebuild(&self.rows);
            self.secondary.push(idx);
        }
        Ok(())
    }

    fn rebuild_pk_index(&mut self) {
        self.pk_index.clear();
        if let Some(pk) = self.schema.primary_key.clone() {
            let idx = self.schema.column_index(&pk).expect("checked schema");
            for (i, row) in self.rows.iter().enumerate() {
                self.pk_index.insert(row[idx].clone(), i);
            }
        }
        for sec in &mut self.secondary {
            sec.rebuild(&self.rows);
        }
    }

    /// Reassembles a table from its durable parts — the binary snapshot
    /// reader's entry point, which has already checked `schema`. Indexes
    /// (PK and the recorded policy) are rebuilt from the rows, exactly as
    /// [`KnowledgeBase::from_json`] does for the JSON envelope.
    pub(crate) fn assemble(
        schema: TableSchema,
        rows: Vec<Vec<Value>>,
        policy: &[IndexSpec],
    ) -> Result<Table, KbError> {
        let mut t = Table::new(schema);
        for spec in policy {
            t.add_secondary(&spec.column, spec.kind)?;
        }
        t.rows = rows;
        t.rebuild_pk_index();
        Ok(t)
    }

    /// The durable `(column, kind)` specs of this table's secondary
    /// indexes, in creation order — what [`KnowledgeBase::to_json`]
    /// stamps as `index_policy` and the binary snapshot writes per
    /// table.
    pub(crate) fn index_specs(&self) -> Vec<IndexSpec> {
        self.secondary.iter().map(SecondaryIndex::spec).collect()
    }
}

/// The result of a query: column headers plus rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultSet {
    /// Output column labels (unqualified names, or `table.column` when
    /// needed for disambiguation).
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// Values of the single output column; errors if the shape differs.
    pub fn single_column(&self) -> Result<Vec<&Value>, KbError> {
        if self.columns.len() != 1 {
            return Err(KbError::Semantic(format!(
                "expected a single output column, got {}",
                self.columns.len()
            )));
        }
        Ok(self.rows.iter().map(|r| &r[0]).collect())
    }

    /// Renders a compact ASCII table for transcripts and the repro harness.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.columns.join(" | "));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            out.push_str(&cells.join(" | "));
            out.push('\n');
        }
        out
    }
}

/// Hit/miss counters of the KB's two cache layers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KbCacheStats {
    /// Prepared-plan cache (`kb_plan` telemetry layer).
    pub plan: CacheStats,
    /// Result cache (`kb_result` telemetry layer).
    pub result: CacheStats,
}

/// The query caches riding on a [`KnowledgeBase`] (DESIGN.md §12): a
/// prepared-plan cache validated against the *schema* generation and a
/// result cache validated against the *data* generation. Cloning a KB
/// (e.g. `fork_session`) shares the table data copy-on-write but starts
/// the clone with fresh empty caches, so forks never share mutable
/// state; only the enabled flag carries over.
struct QueryCaches {
    enabled: bool,
    plan: Mutex<GenCache<Arc<sql::exec::BoundPlan>>>,
    result: Mutex<GenCache<ResultSet>>,
}

/// Plans are small; cap by count only.
const PLAN_CACHE_ENTRIES: usize = 512;

impl Default for QueryCaches {
    fn default() -> Self {
        QueryCaches {
            enabled: true,
            plan: Mutex::new(GenCache::new(CacheConfig::entries(PLAN_CACHE_ENTRIES))),
            result: Mutex::new(GenCache::new(CacheConfig::default())),
        }
    }
}

impl Clone for QueryCaches {
    fn clone(&self) -> Self {
        QueryCaches { enabled: self.enabled, ..QueryCaches::default() }
    }
}

impl fmt::Debug for QueryCaches {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryCaches").field("enabled", &self.enabled).finish_non_exhaustive()
    }
}

/// Locks a cache, recovering from a poisoned mutex: the caches hold no
/// invariants across panics (worst case a half-touched LRU order), so a
/// poisoned lock is safe to re-enter.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Rough serialized size of a result set, used to cost result-cache
/// entries against the byte budget. Exactness doesn't matter — it only
/// has to scale with the real footprint.
fn approx_result_bytes(rs: &ResultSet) -> usize {
    let mut bytes = 64 + rs.columns.iter().map(|c| c.len() + 24).sum::<usize>();
    for row in &rs.rows {
        bytes += 24;
        for v in row {
            bytes += 16 + v.as_text().map_or(0, str::len);
        }
    }
    bytes
}

/// The durable form of the generation counters, stamped into the JSON
/// envelope by [`KnowledgeBase::to_json`] and restored by `from_json`.
/// Without it a reloaded KB would restart both counters at zero and
/// could collide with generation stamps held by a live `GenCache`,
/// serving stale plans or results (DESIGN.md §16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GenerationStamp {
    /// The data generation at serialisation time.
    pub data: u64,
    /// The schema generation at serialisation time.
    pub schema: u64,
}

/// The in-memory knowledge base: a named collection of tables.
///
/// The table map sits behind one [`Arc`] and is copied on write: a clone
/// shares every row and index with its source until either side mutates,
/// so forking a session costs a reference-count increment, not a copy
/// of the data. Each mutator validates before it calls
/// [`Arc::make_mut`], so a rejected mutation never copies.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KnowledgeBase {
    tables: Arc<HashMap<String, Table>>,
    /// Persisted envelope copy of the generation counters; `None` in
    /// live KBs (the live counters below are authoritative) and in
    /// envelopes written before the stamp existed (those reload at
    /// generation zero).
    generations: Option<GenerationStamp>,
    /// Data generation: bumped by every successful mutation
    /// ([`insert`](Self::insert) and [`create_table`](Self::create_table));
    /// validates result-cache entries.
    #[serde(skip)]
    generation: u64,
    /// Schema generation: bumped by [`create_table`](Self::create_table)
    /// and [`create_index`](Self::create_index); validates plan-cache
    /// entries (plans depend on schemas and on the available access
    /// paths, never on row data, and this KB has no DROP/ALTER).
    #[serde(skip)]
    schema_generation: u64,
    /// Inverted so the serde-skip `Default` (false) means "enabled":
    /// see [`set_index_enabled`](Self::set_index_enabled).
    #[serde(skip)]
    indexes_disabled: bool,
    #[serde(skip)]
    caches: QueryCaches,
}

impl KnowledgeBase {
    pub fn new() -> Self {
        KnowledgeBase::default()
    }

    /// Creates a table from a checked schema.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<(), KbError> {
        schema.check().map_err(KbError::SchemaInvalid)?;
        if self.tables.contains_key(&schema.name) {
            return Err(KbError::TableExists(schema.name));
        }
        Arc::make_mut(&mut self.tables).insert(schema.name.clone(), Table::new(schema));
        self.generation += 1;
        self.schema_generation += 1;
        Ok(())
    }

    /// Inserts a row, enforcing arity, types, PK uniqueness and FK
    /// referential integrity (referenced tables must be populated first).
    pub fn insert(&mut self, table: &str, row: Vec<Value>) -> Result<(), KbError> {
        // FK checks need immutable access to other tables, so validate
        // before mutably borrowing the target table.
        {
            let t =
                self.tables.get(table).ok_or_else(|| KbError::UnknownTable(table.to_string()))?;
            if row.len() != t.schema.columns.len() {
                return Err(KbError::ArityMismatch {
                    table: table.to_string(),
                    expected: t.schema.columns.len(),
                    got: row.len(),
                });
            }
            for (col, v) in t.schema.columns.iter().zip(&row) {
                if !col.ty.admits(v) {
                    return Err(KbError::TypeMismatch {
                        table: table.to_string(),
                        column: col.name.clone(),
                        value: v.to_string(),
                    });
                }
            }
            if let Some(pk) = &t.schema.primary_key {
                let idx = t.schema.column_index(pk).expect("checked schema");
                if row[idx].is_null() {
                    return Err(KbError::NullPrimaryKey { table: table.to_string() });
                }
                if t.pk_index.contains_key(&row[idx]) {
                    return Err(KbError::DuplicatePrimaryKey {
                        table: table.to_string(),
                        key: row[idx].to_string(),
                    });
                }
            }
            for fk in &t.schema.foreign_keys {
                let idx = t.schema.column_index(&fk.column).expect("checked schema");
                let v = &row[idx];
                if v.is_null() {
                    continue;
                }
                let target = self
                    .tables
                    .get(&fk.references_table)
                    .ok_or_else(|| KbError::UnknownTable(fk.references_table.clone()))?;
                let ok = match (&target.schema.primary_key, &fk.references_column) {
                    (Some(pk), rc) if pk == rc => target.pk_index.contains_key(v),
                    _ => {
                        let ridx =
                            target.schema.column_index(&fk.references_column).ok_or_else(|| {
                                KbError::UnknownColumn {
                                    table: fk.references_table.clone(),
                                    column: fk.references_column.clone(),
                                }
                            })?;
                        target.rows.iter().any(|r| r[ridx].sql_eq(v))
                    }
                };
                if !ok {
                    return Err(KbError::ForeignKeyViolation {
                        table: table.to_string(),
                        column: fk.column.clone(),
                        value: v.to_string(),
                    });
                }
            }
        }
        let t = Arc::make_mut(&mut self.tables).get_mut(table).expect("existence checked above");
        if let Some(pk) = t.schema.primary_key.clone() {
            let idx = t.schema.column_index(&pk).expect("checked schema");
            t.pk_index.insert(row[idx].clone(), t.rows.len());
        }
        let pos = t.rows.len() as u32;
        for sec in &mut t.secondary {
            sec.insert_row(pos, &row[sec.column_pos()]);
        }
        t.rows.push(row);
        self.generation += 1;
        Ok(())
    }

    /// Creates (and builds) a secondary index on `table.column`; `false`
    /// if an identical index already exists. Bumps both generations:
    /// the schema generation because cached plans embed access-path
    /// choices, and the data generation so PR 5's result cache revalidates
    /// against index-backed execution (DESIGN.md §14).
    pub fn create_index(
        &mut self,
        table: &str,
        column: &str,
        kind: IndexKind,
    ) -> Result<bool, KbError> {
        if self.table(table)?.new_index_column(column, kind)?.is_none() {
            return Ok(false);
        }
        let t = Arc::make_mut(&mut self.tables).get_mut(table).expect("existence checked above");
        t.add_secondary(column, kind)?;
        self.generation += 1;
        self.schema_generation += 1;
        Ok(true)
    }

    /// Stats-guided index selection over the whole KB (DESIGN.md §14):
    /// hash indexes on every primary-key and foreign-key column (join
    /// keys and point lookups), ordered indexes on high-cardinality
    /// non-categorical text columns (LIKE-prefix targets). Idempotent;
    /// returns the number of indexes newly created.
    pub fn auto_index(&mut self) -> usize {
        let policy = stats::CategoricalPolicy::default();
        let mut wanted: Vec<(String, String, IndexKind)> = Vec::new();
        for name in self.table_names() {
            let t = &self.tables[name];
            if let Some(pk) = &t.schema.primary_key {
                wanted.push((name.to_string(), pk.clone(), IndexKind::Hash));
            }
            for fk in &t.schema.foreign_keys {
                wanted.push((name.to_string(), fk.column.clone(), IndexKind::Hash));
            }
            for col in &t.schema.columns {
                if col.ty != crate::schema::ColumnType::Text {
                    continue;
                }
                let Ok(s) = stats::column_stats(self, name, &col.name) else { continue };
                if s.distinct_count > policy.max_distinct && !stats::is_categorical(&s, policy) {
                    wanted.push((name.to_string(), col.name.clone(), IndexKind::Ordered));
                }
            }
        }
        let mut created = 0;
        for (table, column, kind) in wanted {
            if self.create_index(&table, &column, kind).unwrap_or(false) {
                created += 1;
            }
        }
        created
    }

    /// Enables or disables index-backed execution at run time. Purely a
    /// routing switch — indexed and scan execution return byte-identical
    /// results (the index-oracle property test) — so no generation is
    /// bumped and cached plans/results stay valid either way.
    pub fn set_index_enabled(&mut self, on: bool) {
        self.indexes_disabled = !on;
    }

    /// Whether index-backed execution is enabled (default: yes).
    pub fn index_enabled(&self) -> bool {
        !self.indexes_disabled
    }

    /// Total number of secondary indexes across all tables.
    pub fn index_count(&self) -> usize {
        self.tables.values().map(|t| t.secondary_indexes().len()).sum()
    }

    /// Parses and executes a SQL query against the store.
    ///
    /// With caching enabled (the default), the lookup goes through two
    /// generation-checked layers keyed on the SQL text: the result cache
    /// (validated against the data generation) and the prepared-plan
    /// cache (validated against the schema generation). Cached and
    /// uncached execution return identical values by construction — a hit
    /// replays a value the same engine computed earlier at the same
    /// generation — so callers cannot observe the cache except through
    /// [`cache_stats`](Self::cache_stats). Errors are never cached.
    pub fn query(&self, sql_text: &str) -> Result<ResultSet, KbError> {
        if !self.caches.enabled {
            let stmt = sql::parser::parse(sql_text)?;
            return sql::exec::execute(self, &stmt);
        }
        if let Some(rs) = lock(&self.caches.result).get(sql_text, self.generation) {
            return Ok(rs);
        }
        // Bind the lookup result before matching: a guard held across the
        // match arms would self-deadlock on the `put` below.
        let cached_plan = lock(&self.caches.plan).get(sql_text, self.schema_generation);
        let plan = match cached_plan {
            Some(plan) => plan,
            None => {
                let stmt = sql::parser::parse(sql_text)?;
                let plan = Arc::new(sql::exec::bind(self, &stmt)?);
                lock(&self.caches.plan).put(sql_text, self.schema_generation, plan.clone(), 1);
                plan
            }
        };
        let rs = sql::exec::execute_bound(self, &plan)?;
        lock(&self.caches.result).put(
            sql_text,
            self.generation,
            rs.clone(),
            approx_result_bytes(&rs),
        );
        Ok(rs)
    }

    /// Parses and **binds** a query against the current schemas without
    /// executing it: the static front half of [`query`](Self::query)
    /// (DESIGN.md §12). Binding resolves every table and column name,
    /// relates each join to an earlier table, lowers predicates, and
    /// fixes the projection — so a successful `prepare` proves the SQL
    /// type-checks against the schema without reading a single row.
    /// Verification layers (`obcs-verify`) use this to statically check
    /// every generated query template.
    pub fn prepare(&self, sql_text: &str) -> Result<sql::exec::BoundPlan, KbError> {
        let stmt = sql::parser::parse(sql_text)?;
        sql::exec::bind(self, &stmt)
    }

    /// Enables or disables the query caches. Disabling drops every cached
    /// entry (counters are kept), so a later re-enable starts cold.
    pub fn set_cache_enabled(&mut self, on: bool) {
        self.caches.enabled = on;
        if !on {
            lock(&self.caches.plan).clear();
            lock(&self.caches.result).clear();
        }
    }

    /// Whether the query caches are enabled.
    pub fn cache_enabled(&self) -> bool {
        self.caches.enabled
    }

    /// Counters accumulated by the plan and result caches so far.
    pub fn cache_stats(&self) -> KbCacheStats {
        KbCacheStats {
            plan: lock(&self.caches.plan).stats(),
            result: lock(&self.caches.result).stats(),
        }
    }

    /// The data generation (bumped by every successful mutation).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The schema generation (bumped by `create_table` / `create_index`).
    pub fn schema_generation(&self) -> u64 {
        self.schema_generation
    }

    /// Like [`KnowledgeBase::query`], recording a
    /// [`kb_execute`](obcs_telemetry::stage::KB_EXECUTE) span plus
    /// query/row counters on `rec` (see DESIGN.md §10).
    pub fn query_traced(
        &self,
        sql_text: &str,
        rec: &dyn obcs_telemetry::Recorder,
    ) -> Result<ResultSet, KbError> {
        let _span = obcs_telemetry::span(rec, obcs_telemetry::stage::KB_EXECUTE);
        let result = self.query(sql_text);
        rec.incr(obcs_telemetry::metric::KB_QUERIES, "");
        if let Ok(rs) = &result {
            rec.add(obcs_telemetry::metric::KB_ROWS, "", rs.rows.len() as u64);
        }
        result
    }

    /// Table lookup.
    pub fn table(&self, name: &str) -> Result<&Table, KbError> {
        self.tables.get(name).ok_or_else(|| KbError::UnknownTable(name.to_string()))
    }

    /// Whether a table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Table names in sorted order (deterministic iteration).
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// All distinct non-null values of one column, sorted.
    pub fn distinct_values(&self, table: &str, column: &str) -> Result<Vec<Value>, KbError> {
        let t = self.table(table)?;
        let idx = t.schema.column_index(column).ok_or_else(|| KbError::UnknownColumn {
            table: table.to_string(),
            column: column.to_string(),
        })?;
        let mut vals: Vec<Value> =
            t.rows.iter().map(|r| r[idx].clone()).filter(|v| !v.is_null()).collect();
        vals.sort_by(|a, b| a.total_cmp(b));
        vals.dedup();
        Ok(vals)
    }

    /// Rebuilds all PK indexes (after deserialisation).
    pub fn rebuild_indexes(&mut self) {
        for t in Arc::make_mut(&mut self.tables).values_mut() {
            t.rebuild_pk_index();
        }
    }

    /// Parses a KB from JSON, restoring the envelope (DESIGN.md §16):
    /// generation counters come back from the [`GenerationStamp`], and
    /// each table's secondary indexes are rebuilt from its recorded
    /// index policy before the PK indexes are rebuilt. Pre-policy
    /// envelopes (no `generations`, no `index_policy`) deserialise
    /// exactly as before: generation zero, scan-only.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        let mut kb: KnowledgeBase = serde_json::from_str(json)?;
        if let Some(stamp) = kb.generations.take() {
            kb.generation = stamp.data;
            kb.schema_generation = stamp.schema;
        }
        for t in Arc::make_mut(&mut kb.tables).values_mut() {
            if let Some(policy) = t.index_policy.take() {
                for spec in policy {
                    // The schema the policy was recorded against is the
                    // schema being deserialised, so the column resolves;
                    // a hand-edited envelope that broke this simply
                    // loses that index (add_secondary rejects it).
                    let _ = t.add_secondary(&spec.column, spec.kind);
                }
            }
        }
        kb.rebuild_indexes();
        Ok(kb)
    }

    /// Reassembles a KB from tables plus its generation stamp — the
    /// binary snapshot reader's entry point. The tables arrive already
    /// indexed (see [`Table::assemble`]); the stamp restores the cache
    /// validation counters exactly as `from_json` does.
    pub(crate) fn assemble(tables: HashMap<String, Table>, stamp: GenerationStamp) -> Self {
        KnowledgeBase {
            tables: Arc::new(tables),
            generations: None,
            generation: stamp.data,
            schema_generation: stamp.schema,
            indexes_disabled: false,
            caches: QueryCaches::default(),
        }
    }

    /// Serialises the KB with its durable envelope stamped in: the
    /// current generation counters and each table's index policy, so
    /// [`from_json`](Self::from_json) restores an equivalent KB —
    /// same data, same access paths, same cache-validation stamps.
    pub fn to_json(&self) -> String {
        let mut kb = self.clone();
        kb.generations =
            Some(GenerationStamp { data: self.generation, schema: self.schema_generation });
        for t in Arc::make_mut(&mut kb.tables).values_mut() {
            t.index_policy = Some(t.secondary.iter().map(SecondaryIndex::spec).collect());
        }
        serde_json::to_string_pretty(&kb).expect("KB serialisation cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;

    fn kb_with_drug() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        kb.create_table(
            TableSchema::new("drug")
                .column("drug_id", ColumnType::Int)
                .column("name", ColumnType::Text)
                .primary_key("drug_id"),
        )
        .unwrap();
        kb
    }

    #[test]
    fn create_insert_lookup() {
        let mut kb = kb_with_drug();
        kb.insert("drug", vec![Value::Int(1), Value::text("Aspirin")]).unwrap();
        let t = kb.table("drug").unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.row_by_pk(&Value::Int(1)).unwrap()[1], Value::text("Aspirin"));
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut kb = kb_with_drug();
        let err =
            kb.create_table(TableSchema::new("drug").column("x", ColumnType::Int)).unwrap_err();
        assert_eq!(err, KbError::TableExists("drug".into()));
    }

    #[test]
    fn arity_and_type_enforced() {
        let mut kb = kb_with_drug();
        assert!(matches!(
            kb.insert("drug", vec![Value::Int(1)]),
            Err(KbError::ArityMismatch { .. })
        ));
        assert!(matches!(
            kb.insert("drug", vec![Value::text("x"), Value::text("y")]),
            Err(KbError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn pk_constraints_enforced() {
        let mut kb = kb_with_drug();
        kb.insert("drug", vec![Value::Int(1), Value::text("A")]).unwrap();
        assert!(matches!(
            kb.insert("drug", vec![Value::Int(1), Value::text("B")]),
            Err(KbError::DuplicatePrimaryKey { .. })
        ));
        assert!(matches!(
            kb.insert("drug", vec![Value::Null, Value::text("C")]),
            Err(KbError::NullPrimaryKey { .. })
        ));
    }

    #[test]
    fn fk_enforced_and_null_fk_allowed() {
        let mut kb = kb_with_drug();
        kb.create_table(
            TableSchema::new("dosage")
                .column("dosage_id", ColumnType::Int)
                .column("drug_id", ColumnType::Int)
                .primary_key("dosage_id")
                .foreign_key("drug_id", "drug", "drug_id"),
        )
        .unwrap();
        kb.insert("drug", vec![Value::Int(1), Value::text("A")]).unwrap();
        kb.insert("dosage", vec![Value::Int(10), Value::Int(1)]).unwrap();
        assert!(matches!(
            kb.insert("dosage", vec![Value::Int(11), Value::Int(99)]),
            Err(KbError::ForeignKeyViolation { .. })
        ));
        // NULL FK is allowed.
        kb.insert("dosage", vec![Value::Int(12), Value::Null]).unwrap();
    }

    #[test]
    fn distinct_values_sorted_deduped() {
        let mut kb = kb_with_drug();
        for (i, n) in ["B", "A", "B"].iter().enumerate() {
            kb.insert("drug", vec![Value::Int(i as i64), Value::text(*n)]).unwrap();
        }
        assert_eq!(
            kb.distinct_values("drug", "name").unwrap(),
            vec![Value::text("A"), Value::text("B")]
        );
    }

    #[test]
    fn json_roundtrip_rebuilds_pk_index() {
        let mut kb = kb_with_drug();
        kb.insert("drug", vec![Value::Int(7), Value::text("A")]).unwrap();
        let kb2 = KnowledgeBase::from_json(&kb.to_json()).unwrap();
        assert!(kb2.table("drug").unwrap().row_by_pk(&Value::Int(7)).is_some());
        // And the rebuilt index still prevents duplicates.
        let mut kb3 = kb2.clone();
        assert!(kb3.insert("drug", vec![Value::Int(7), Value::text("B")]).is_err());
    }

    #[test]
    fn cached_query_hits_and_matches_uncached() {
        let mut kb = kb_with_drug();
        for (i, n) in [(1, "Aspirin"), (2, "Ibuprofen")] {
            kb.insert("drug", vec![Value::Int(i), Value::text(n)]).unwrap();
        }
        assert!(kb.cache_enabled(), "caching is on by default");
        let sql = "SELECT name FROM drug WHERE drug_id >= 1";
        let first = kb.query(sql).unwrap();
        let second = kb.query(sql).unwrap();
        assert_eq!(first, second);
        let stats = kb.cache_stats();
        assert_eq!(stats.result.hits, 1, "second run served from the result cache");
        assert_eq!(stats.plan.misses, 1, "plan bound once");

        let mut oracle = kb.clone();
        oracle.set_cache_enabled(false);
        assert_eq!(oracle.query(sql).unwrap(), first, "cache is value-invisible");
    }

    #[test]
    fn insert_invalidates_results_but_keeps_plans() {
        let mut kb = kb_with_drug();
        kb.insert("drug", vec![Value::Int(1), Value::text("A")]).unwrap();
        let sql = "SELECT name FROM drug";
        assert_eq!(kb.query(sql).unwrap().rows.len(), 1);
        kb.insert("drug", vec![Value::Int(2), Value::text("B")]).unwrap();
        assert_eq!(kb.query(sql).unwrap().rows.len(), 2, "stale result must not serve");
        let stats = kb.cache_stats();
        assert_eq!(stats.result.invalidations, 1);
        assert_eq!(stats.plan.hits, 1, "plans survive data mutations");
    }

    #[test]
    fn create_table_invalidates_plans() {
        let mut kb = kb_with_drug();
        kb.insert("drug", vec![Value::Int(1), Value::text("A")]).unwrap();
        let sql = "SELECT name FROM drug";
        kb.query(sql).unwrap();
        kb.create_table(TableSchema::new("other").column("x", ColumnType::Int)).unwrap();
        kb.query(sql).unwrap();
        assert_eq!(kb.cache_stats().plan.invalidations, 1, "schema bump drops the plan");
    }

    #[test]
    fn errors_are_not_cached() {
        let kb = kb_with_drug();
        assert!(kb.query("SELECT nope FROM drug").is_err());
        assert!(kb.query("SELECT nope FROM drug").is_err());
        let stats = kb.cache_stats();
        assert_eq!(stats.plan.hits + stats.result.hits, 0);
    }

    #[test]
    fn clone_starts_with_cold_caches() {
        let mut kb = kb_with_drug();
        kb.insert("drug", vec![Value::Int(1), Value::text("A")]).unwrap();
        kb.query("SELECT name FROM drug").unwrap();
        let fork = kb.clone();
        assert!(fork.cache_enabled());
        assert_eq!(fork.cache_stats(), KbCacheStats::default(), "no shared or carried state");
    }

    #[test]
    fn clone_shares_tables_until_either_side_mutates() {
        let mut kb = kb_with_drug();
        kb.insert("drug", vec![Value::Int(1), Value::text("A")]).unwrap();
        kb.create_index("drug", "drug_id", IndexKind::Hash).unwrap();
        let mut fork = kb.clone();
        assert!(Arc::ptr_eq(&kb.tables, &fork.tables), "a clone shares table storage");

        // Rejected or no-op mutations never copy.
        assert!(fork.insert("drug", vec![Value::Int(1), Value::text("dup")]).is_err());
        assert!(fork.insert("nope", vec![]).is_err());
        assert!(fork.create_table(TableSchema::new("drug").column("x", ColumnType::Int)).is_err());
        assert!(fork.create_index("drug", "nope", IndexKind::Hash).is_err());
        assert!(!fork.create_index("drug", "drug_id", IndexKind::Hash).unwrap());
        assert!(Arc::ptr_eq(&kb.tables, &fork.tables), "a rejected mutation copied the tables");

        fork.insert("drug", vec![Value::Int(2), Value::text("B")]).unwrap();
        assert!(!Arc::ptr_eq(&kb.tables, &fork.tables), "the fork's first write copies");
        let twin = kb.clone();
        kb.create_table(TableSchema::new("other").column("x", ColumnType::Int)).unwrap();
        assert!(!Arc::ptr_eq(&kb.tables, &twin.tables), "the source's first write copies");
    }

    /// Probes whose results and access paths a sibling's mutation could
    /// move if the twins shared more than read-only table storage.
    const TWIN_PROBES: &[&str] = &[
        "SELECT name FROM drug WHERE drug_id = 1",
        "SELECT drug_id FROM drug WHERE name LIKE 'A%'",
    ];

    /// A KB and its clone, both with every probe answered once, so both
    /// result caches are warm.
    fn warm_twins() -> (KnowledgeBase, KnowledgeBase) {
        let mut kb = kb_with_drug();
        for (i, n) in [(1, "Aspirin"), (2, "Abacavir"), (3, "Ibuprofen")] {
            kb.insert("drug", vec![Value::Int(i), Value::text(n)]).unwrap();
        }
        kb.create_index("drug", "drug_id", IndexKind::Hash).unwrap();
        let twin = kb.clone();
        for sql in TWIN_PROBES {
            kb.query(sql).unwrap();
            twin.query(sql).unwrap();
        }
        (kb, twin)
    }

    /// What one twin exposes: its JSON image (rows, schemas, index
    /// policy, generation stamp), both generations, its index count and
    /// the access path of every probe.
    fn twin_view(kb: &KnowledgeBase) -> (String, u64, u64, usize, Vec<&'static str>) {
        let labels =
            TWIN_PROBES.iter().map(|sql| kb.prepare(sql).unwrap().access_label()).collect();
        (kb.to_json(), kb.generation(), kb.schema_generation(), kb.index_count(), labels)
    }

    #[test]
    fn mutating_either_twin_leaves_the_other_unchanged() {
        type Mutation = fn(&mut KnowledgeBase);
        let mutations: [(&str, Mutation); 3] = [
            ("insert", |kb| {
                kb.insert("drug", vec![Value::Int(9), Value::text("Acarbose")]).unwrap()
            }),
            ("create_table", |kb| {
                kb.create_table(TableSchema::new("extra").column("x", ColumnType::Int)).unwrap()
            }),
            ("create_index", |kb| {
                assert!(kb.create_index("drug", "name", IndexKind::Ordered).unwrap())
            }),
        ];
        for (what, mutate) in mutations {
            for mutate_source in [true, false] {
                let (mut source, mut clone) = warm_twins();
                let (changed, kept) = if mutate_source {
                    (&mut source, &mut clone)
                } else {
                    (&mut clone, &mut source)
                };
                let view = twin_view(kept);
                let results: Vec<ResultSet> =
                    TWIN_PROBES.iter().map(|sql| kept.query(sql).unwrap()).collect();
                let hits = kept.cache_stats().result.hits;

                mutate(changed);
                assert_ne!(twin_view(changed), view, "{what} had no effect");
                assert_eq!(twin_view(kept), view, "{what} on one twin moved the other");
                for (sql, expected) in TWIN_PROBES.iter().zip(&results) {
                    assert_eq!(&kept.query(sql).unwrap(), expected, "{what} moved {sql:?}");
                }
                assert_eq!(
                    kept.cache_stats().result.hits,
                    hits + TWIN_PROBES.len() as u64,
                    "{what} on one twin invalidated the other's cached results"
                );
            }
        }
    }

    #[test]
    fn create_index_invalidates_plans_and_is_idempotent() {
        let mut kb = kb_with_drug();
        for i in 0..20 {
            kb.insert("drug", vec![Value::Int(i), Value::text(format!("Drug{i}"))]).unwrap();
        }
        let sql = "SELECT name FROM drug WHERE drug_id = 3";
        let before = kb.query(sql).unwrap();
        assert!(!kb.prepare(sql).unwrap().uses_index());
        assert!(kb.create_index("drug", "drug_id", IndexKind::Hash).unwrap());
        assert_eq!(kb.query(sql).unwrap(), before, "index is value-invisible");
        let stats = kb.cache_stats();
        assert_eq!(stats.plan.invalidations, 1, "schema bump re-binds the plan");
        assert_eq!(stats.result.invalidations, 1, "data bump revalidates the result");
        assert!(kb.prepare(sql).unwrap().uses_index());
        // Identical index again: no-op, no generation churn.
        let gen = kb.generation();
        assert!(!kb.create_index("drug", "drug_id", IndexKind::Hash).unwrap());
        assert_eq!(kb.generation(), gen);
        assert_eq!(kb.index_count(), 1);
    }

    #[test]
    fn create_index_rejects_unknown_targets() {
        let mut kb = kb_with_drug();
        assert!(matches!(
            kb.create_index("nope", "x", IndexKind::Hash),
            Err(KbError::UnknownTable(_))
        ));
        assert!(matches!(
            kb.create_index("drug", "nope", IndexKind::Hash),
            Err(KbError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn inserts_maintain_secondary_indexes() {
        let mut kb = kb_with_drug();
        kb.create_index("drug", "name", IndexKind::Ordered).unwrap();
        for (i, n) in [(1, "Cardiozol"), (2, "Aspirin"), (3, "Cardiomax")] {
            kb.insert("drug", vec![Value::Int(i), Value::text(n)]).unwrap();
        }
        let idx = kb.table("drug").unwrap().index_for_eq(1).unwrap();
        assert_eq!(idx.probe_prefix("Cardio"), Some(vec![0, 2]));
        assert_eq!(idx.distinct_count(), 3);
    }

    #[test]
    fn auto_index_covers_keys_and_high_cardinality_text() {
        let mut kb = kb_with_drug();
        kb.create_table(
            TableSchema::new("dosage")
                .column("dosage_id", ColumnType::Int)
                .column("drug_id", ColumnType::Int)
                .primary_key("dosage_id")
                .foreign_key("drug_id", "drug", "drug_id"),
        )
        .unwrap();
        for i in 0..100 {
            kb.insert("drug", vec![Value::Int(i), Value::text(format!("Drug{i}"))]).unwrap();
            kb.insert("dosage", vec![Value::Int(i), Value::Int(i)]).unwrap();
        }
        let created = kb.auto_index();
        // drug.drug_id (PK hash), drug.name (ordered), dosage.dosage_id
        // (PK hash), dosage.drug_id (FK hash).
        assert_eq!(created, 4);
        assert_eq!(kb.auto_index(), 0, "idempotent");
        let drug = kb.table("drug").unwrap();
        assert!(drug.index_of_kind(0, IndexKind::Hash).is_some());
        assert!(drug.index_of_kind(1, IndexKind::Ordered).is_some());
        assert!(kb.index_enabled());
    }

    #[test]
    fn json_roundtrip_rebuilds_secondary_indexes_from_policy() {
        let mut kb = kb_with_drug();
        for i in 0..20 {
            kb.insert("drug", vec![Value::Int(i), Value::text(format!("Drug{i}"))]).unwrap();
        }
        kb.create_index("drug", "drug_id", IndexKind::Hash).unwrap();
        kb.create_index("drug", "name", IndexKind::Ordered).unwrap();
        let kb2 = KnowledgeBase::from_json(&kb.to_json()).unwrap();
        assert_eq!(kb2.index_count(), 2, "the recorded index policy rebuilds secondaries");
        let t = kb2.table("drug").unwrap();
        assert!(t.index_of_kind(0, IndexKind::Hash).is_some());
        assert!(t.index_of_kind(1, IndexKind::Ordered).is_some());
        assert_eq!(
            kb2.query("SELECT name FROM drug WHERE drug_id = 1").unwrap().rows.len(),
            1,
            "rebuilt indexes answer correctly"
        );
        // Regression: the reload path must keep the planner's access
        // paths — a dropped index here regresses point lookups to scans.
        for sql in [
            "SELECT name FROM drug WHERE drug_id = 3",
            "SELECT drug_id FROM drug WHERE name LIKE 'Drug1%'",
        ] {
            assert_eq!(
                kb2.prepare(sql).unwrap().access_label(),
                kb.prepare(sql).unwrap().access_label(),
                "access path changed across a JSON round-trip for {sql:?}"
            );
        }
        assert!(kb2.prepare("SELECT name FROM drug WHERE drug_id = 3").unwrap().uses_index());
    }

    #[test]
    fn json_roundtrip_preserves_generation_counters() {
        let mut kb = kb_with_drug();
        kb.insert("drug", vec![Value::Int(1), Value::text("A")]).unwrap();
        kb.create_index("drug", "drug_id", IndexKind::Hash).unwrap();
        assert!(kb.generation() > 0 && kb.schema_generation() > 0);
        let kb2 = KnowledgeBase::from_json(&kb.to_json()).unwrap();
        assert_eq!(kb2.generation(), kb.generation(), "data generation survives reload");
        assert_eq!(kb2.schema_generation(), kb.schema_generation(), "schema generation survives");
        // And keeps advancing from there, never re-treading old stamps.
        let mut kb3 = kb2.clone();
        kb3.insert("drug", vec![Value::Int(2), Value::text("B")]).unwrap();
        assert_eq!(kb3.generation(), kb.generation() + 1);
    }

    #[test]
    fn pre_policy_envelope_still_loads_scan_only_at_generation_zero() {
        // A committed artifact written before the durable envelope: no
        // `generations`, no `index_policy`. It must parse, scan-only.
        let json = r#"{
            "tables": {
                "drug": {
                    "schema": {
                        "name": "drug",
                        "columns": [
                            {"name": "drug_id", "ty": "Int"},
                            {"name": "name", "ty": "Text"}
                        ],
                        "primary_key": "drug_id",
                        "foreign_keys": []
                    },
                    "rows": [[{"Int": 1}, {"Text": "Aspirin"}]]
                }
            }
        }"#;
        let kb = KnowledgeBase::from_json(json).expect("old envelope parses");
        assert_eq!(kb.generation(), 0);
        assert_eq!(kb.schema_generation(), 0);
        assert_eq!(kb.index_count(), 0, "no recorded policy, no indexes");
        assert_eq!(kb.query("SELECT name FROM drug WHERE drug_id = 1").unwrap().rows.len(), 1);
    }

    #[test]
    fn table_names_sorted() {
        let mut kb = kb_with_drug();
        kb.create_table(TableSchema::new("a_table").column("x", ColumnType::Int)).unwrap();
        assert_eq!(kb.table_names(), vec!["a_table", "drug"]);
    }
}
