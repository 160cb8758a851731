//! The knowledge-base store: tables of typed rows with constraint checking
//! and a query entry point.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::index::SecondaryIndex;
use crate::schema::TableSchema;
use crate::sql;
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
    /// Durable index policy (DESIGN.md §16): the indexed column names
    /// of `secondary`, in creation order, stamped into the JSON envelope
    /// by [`KnowledgeBase::to_json`] so deserialisation rebuilds the
    /// same access paths. `None` in live tables and in pre-policy
    /// envelopes (those deserialise scan-only, exactly as before).
    index_policy: Option<Vec<String>>,
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

    /// The secondary index on column position `col`, if any.
    pub fn index(&self, col: usize) -> Option<&SecondaryIndex> {
        self.secondary.iter().find(|i| i.column_pos() == col)
    }

    /// The column position a new index on `column` would cover, or
    /// `None` if the column is already indexed.
    fn new_index_column(&self, column: &str) -> Result<Option<usize>, KbError> {
        let col = self.schema.column_index(column).ok_or_else(|| KbError::UnknownColumn {
            table: self.schema.name.clone(),
            column: column.to_string(),
        })?;
        Ok(self.index(col).is_none().then_some(col))
    }

    /// Adds (and builds) a secondary index; a no-op if the column is
    /// already indexed.
    fn add_secondary(&mut self, column: &str) -> Result<(), KbError> {
        if let Some(col) = self.new_index_column(column)? {
            let mut idx = SecondaryIndex::new(column, col);
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

    /// Reassembles a table from its durable parts — the entry point of
    /// the binary snapshot reader (which has already checked `schema`)
    /// and of [`KnowledgeBase::from_json`]. Indexes (PK and the recorded
    /// policy) are built once, from the rows.
    pub(crate) fn assemble(
        schema: TableSchema,
        rows: Vec<Vec<Value>>,
        policy: &[String],
    ) -> Result<Table, KbError> {
        let mut t = Table::new(schema);
        for column in policy {
            t.add_secondary(column)?;
        }
        t.rows = rows;
        t.rebuild_pk_index();
        Ok(t)
    }
}

/// The result of a query: column headers plus rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultSet {
    /// Output column labels (unqualified names, or `table.column` when
    /// needed for disambiguation), shared with the plan that produced
    /// them and with every other result of that plan.
    pub columns: Arc<Vec<String>>,
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
    /// Inverted so the serde-skip `Default` (false) means "enabled":
    /// see [`set_index_enabled`](Self::set_index_enabled).
    #[serde(skip)]
    indexes_disabled: bool,
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
        Ok(())
    }

    /// Creates (and builds) a hash index on `table.column`; `false` if
    /// the column is already indexed. An index never changes a result
    /// (DESIGN.md §14).
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<bool, KbError> {
        if self.table(table)?.new_index_column(column)?.is_none() {
            return Ok(false);
        }
        let t = Arc::make_mut(&mut self.tables).get_mut(table).expect("existence checked above");
        t.add_secondary(column)?;
        Ok(true)
    }

    /// The default index policy (DESIGN.md §14.2): a hash index on every
    /// primary-key and foreign-key column — the join keys and point
    /// lookups that template SQL probes — and on each table's
    /// [name column](TableSchema::name_column), where every instance
    /// filter lands. Free-text label columns get none. Idempotent;
    /// returns the number of indexes newly created.
    pub fn auto_index(&mut self) -> usize {
        let mut keys: Vec<(String, String)> = Vec::new();
        for name in self.table_names() {
            let schema = &self.tables[name].schema;
            let fks = schema.foreign_keys.iter().map(|fk| fk.column.as_str());
            for column in
                schema.primary_key.as_deref().into_iter().chain(fks).chain(schema.name_column())
            {
                keys.push((name.to_string(), column.to_string()));
            }
        }
        let mut created = 0;
        for (table, column) in keys {
            if self.create_index(&table, &column).unwrap_or(false) {
                created += 1;
            }
        }
        created
    }

    /// Enables or disables index-backed execution at run time. Purely a
    /// routing switch: indexed and scan execution return byte-identical
    /// results (the index-oracle property test).
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

    /// Parses, binds and executes a SQL query against the store. Every
    /// string literal is a constant: this is
    /// [`prepare`](Self::prepare) followed by [`execute`](Self::execute)
    /// with no parameters.
    pub fn query(&self, sql_text: &str) -> Result<ResultSet, KbError> {
        self.execute(&self.prepare(sql_text)?, &[])
    }

    /// Parses and **binds** a query against the current schemas without
    /// executing it (DESIGN.md §14.2). Binding resolves every table and
    /// column name, relates each join to an earlier table, lowers
    /// predicates, chooses the access path, and fixes the projection —
    /// so a successful `prepare` proves the SQL type-checks against the
    /// schema without reading a single row.
    pub fn prepare(&self, sql_text: &str) -> Result<sql::exec::BoundPlan, KbError> {
        self.prepare_with(sql_text, &[])
    }

    /// Like [`prepare`](Self::prepare), binding every string literal
    /// equal to `markers[i]` (a template's `'<@Concept>'`) as parameter
    /// `i`: the plan is bound once and [executed](Self::execute) with a
    /// value per marker. A marker inside a longer literal is an error,
    /// so marker text never runs as a constant. `obcs-verify` and the
    /// conversation engine prepare every template this way.
    pub fn prepare_with(
        &self,
        sql_text: &str,
        markers: &[&str],
    ) -> Result<sql::exec::BoundPlan, KbError> {
        let stmt = sql::parser::parse(sql_text)?;
        sql::exec::bind(self, &stmt, markers)
    }

    /// Runs a prepared plan against the current rows, `params[i]` standing
    /// for its parameter `i`. The result equals
    /// [`query`](Self::query) of the SQL with each marker replaced by its
    /// quoted value.
    pub fn execute(
        &self,
        plan: &sql::exec::BoundPlan,
        params: &[Value],
    ) -> Result<ResultSet, KbError> {
        sql::exec::execute_bound(self, plan, params)
    }

    /// Like [`execute`](Self::execute), recording a
    /// [`kb_execute`](obcs_telemetry::stage::KB_EXECUTE) span plus
    /// query/row counters on `rec` (see DESIGN.md §10).
    pub fn execute_traced(
        &self,
        plan: &sql::exec::BoundPlan,
        params: &[Value],
        rec: &dyn obcs_telemetry::Recorder,
    ) -> Result<ResultSet, KbError> {
        let _span = obcs_telemetry::span(rec, obcs_telemetry::stage::KB_EXECUTE);
        let result = self.execute(plan, params);
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

    /// Parses a KB from JSON, restoring the envelope (DESIGN.md §16):
    /// each table is reassembled with the secondary indexes its recorded
    /// index policy names, every index built once from the rows.
    /// Pre-policy envelopes (no `index_policy`) deserialise scan-only;
    /// fields this build no longer writes (an old `generations` stamp)
    /// are ignored.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        let kb: KnowledgeBase = serde_json::from_str(json)?;
        let tables = Arc::unwrap_or_clone(kb.tables)
            .into_iter()
            .map(|(name, t)| {
                let mut policy = t.index_policy.unwrap_or_default();
                // The schema the policy was recorded against is the
                // schema being deserialised, so the columns resolve; a
                // hand-edited envelope that broke this simply loses
                // that index.
                policy.retain(|column| t.schema.column_index(column).is_some());
                let table = Table::assemble(t.schema, t.rows, &policy)
                    .expect("every retained spec names a column");
                (name, table)
            })
            .collect();
        Ok(KnowledgeBase::assemble(tables))
    }

    /// Reassembles a KB from its tables — the entry point of the binary
    /// snapshot reader and of [`from_json`](Self::from_json). The tables
    /// arrive already indexed (see [`Table::assemble`]).
    pub(crate) fn assemble(tables: HashMap<String, Table>) -> Self {
        KnowledgeBase { tables: Arc::new(tables), ..KnowledgeBase::default() }
    }

    /// Serialises the KB with its durable envelope stamped in: each
    /// table's index policy, so [`from_json`](Self::from_json) restores
    /// an equivalent KB — same data, same access paths.
    pub fn to_json(&self) -> String {
        let mut kb = self.clone();
        for t in Arc::make_mut(&mut kb.tables).values_mut() {
            t.index_policy = Some(t.secondary.iter().map(|i| i.column().to_string()).collect());
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
    fn clone_shares_tables_until_either_side_mutates() {
        let mut kb = kb_with_drug();
        kb.insert("drug", vec![Value::Int(1), Value::text("A")]).unwrap();
        kb.create_index("drug", "drug_id").unwrap();
        let mut fork = kb.clone();
        assert!(Arc::ptr_eq(&kb.tables, &fork.tables), "a clone shares table storage");

        // Rejected or no-op mutations never copy.
        assert!(fork.insert("drug", vec![Value::Int(1), Value::text("dup")]).is_err());
        assert!(fork.insert("nope", vec![]).is_err());
        assert!(fork.create_table(TableSchema::new("drug").column("x", ColumnType::Int)).is_err());
        assert!(fork.create_index("drug", "nope").is_err());
        assert!(!fork.create_index("drug", "drug_id").unwrap());
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
        "SELECT drug_id FROM drug WHERE name = 'Abacavir'",
    ];

    /// A KB and its clone.
    fn twins() -> (KnowledgeBase, KnowledgeBase) {
        let mut kb = kb_with_drug();
        for (i, n) in [(1, "Aspirin"), (2, "Abacavir"), (3, "Ibuprofen")] {
            kb.insert("drug", vec![Value::Int(i), Value::text(n)]).unwrap();
        }
        kb.create_index("drug", "drug_id").unwrap();
        let twin = kb.clone();
        (kb, twin)
    }

    /// What one twin exposes: its JSON image (rows, schemas, index
    /// policy), its index count and the access path of every probe.
    fn twin_view(kb: &KnowledgeBase) -> (String, usize, Vec<&'static str>) {
        let labels =
            TWIN_PROBES.iter().map(|sql| kb.prepare(sql).unwrap().access_label()).collect();
        (kb.to_json(), kb.index_count(), labels)
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
            ("create_index", |kb| assert!(kb.create_index("drug", "name").unwrap())),
        ];
        for (what, mutate) in mutations {
            for mutate_source in [true, false] {
                let (mut source, mut clone) = twins();
                let (changed, kept) = if mutate_source {
                    (&mut source, &mut clone)
                } else {
                    (&mut clone, &mut source)
                };
                let view = twin_view(kept);
                let results: Vec<ResultSet> =
                    TWIN_PROBES.iter().map(|sql| kept.query(sql).unwrap()).collect();

                mutate(changed);
                assert_ne!(twin_view(changed), view, "{what} had no effect");
                assert_eq!(twin_view(kept), view, "{what} on one twin moved the other");
                for (sql, expected) in TWIN_PROBES.iter().zip(&results) {
                    assert_eq!(&kept.query(sql).unwrap(), expected, "{what} moved {sql:?}");
                }
            }
        }
    }

    #[test]
    fn create_index_is_value_invisible_and_idempotent() {
        let mut kb = kb_with_drug();
        for i in 0..20 {
            kb.insert("drug", vec![Value::Int(i), Value::text(format!("Drug{i}"))]).unwrap();
        }
        let sql = "SELECT name FROM drug WHERE drug_id = 3";
        let before = kb.query(sql).unwrap();
        assert!(!kb.prepare(sql).unwrap().uses_index());
        assert!(kb.create_index("drug", "drug_id").unwrap());
        assert_eq!(kb.query(sql).unwrap(), before, "index is value-invisible");
        assert!(kb.prepare(sql).unwrap().uses_index());
        // The same column again: a no-op.
        assert!(!kb.create_index("drug", "drug_id").unwrap());
        assert_eq!(kb.index_count(), 1);
    }

    #[test]
    fn create_index_rejects_unknown_targets() {
        let mut kb = kb_with_drug();
        assert!(matches!(kb.create_index("nope", "x"), Err(KbError::UnknownTable(_))));
        assert!(matches!(kb.create_index("drug", "nope"), Err(KbError::UnknownColumn { .. })));
    }

    #[test]
    fn inserts_maintain_secondary_indexes() {
        let mut kb = kb_with_drug();
        kb.create_index("drug", "name").unwrap();
        for (i, n) in [(1, "Cardiozol"), (2, "Aspirin"), (3, "Cardiozol")] {
            kb.insert("drug", vec![Value::Int(i), Value::text(n)]).unwrap();
        }
        let idx = kb.table("drug").unwrap().index(1).unwrap();
        assert_eq!(idx.probe_raw(&Value::text("Cardiozol")), Some(&[0u32, 2][..]));
        assert_eq!(idx.distinct_count(), 2);
    }

    #[test]
    fn auto_index_covers_join_keys_and_name_columns() {
        let mut kb = kb_with_drug();
        kb.create_table(
            TableSchema::new("dosage")
                .column("dosage_id", ColumnType::Int)
                .column("drug_id", ColumnType::Int)
                .column("description", ColumnType::Text)
                .primary_key("dosage_id")
                .foreign_key("drug_id", "drug", "drug_id"),
        )
        .unwrap();
        for i in 0..100 {
            kb.insert("drug", vec![Value::Int(i), Value::text(format!("Drug{i}"))]).unwrap();
            kb.insert("dosage", vec![Value::Int(i), Value::Int(i), Value::text("daily")]).unwrap();
        }
        let created = kb.auto_index();
        // drug.drug_id (PK hash), drug.name (name-column hash),
        // dosage.dosage_id (PK hash), dosage.drug_id (FK hash). The
        // free-text label dosage.description gets nothing: no instance
        // filter lands on it.
        assert_eq!(created, 4);
        assert_eq!(kb.auto_index(), 0, "idempotent");
        let drug = kb.table("drug").unwrap();
        assert!(drug.index(0).is_some());
        assert!(drug.index(1).is_some(), "drug.name is indexed");
        assert!(kb.table("dosage").unwrap().index(2).is_none(), "no free-text index");
        assert!(kb.index_enabled());
    }

    #[test]
    fn json_roundtrip_rebuilds_secondary_indexes_from_policy() {
        let mut kb = kb_with_drug();
        for i in 0..20 {
            kb.insert("drug", vec![Value::Int(i), Value::text(format!("Drug{i}"))]).unwrap();
        }
        kb.create_index("drug", "name").unwrap();
        kb.create_index("drug", "drug_id").unwrap();
        let json = kb.to_json();
        let compact: String = json.split_whitespace().collect();
        assert!(
            compact.contains(r#""index_policy":["name","drug_id"]"#),
            "the policy is the indexed column names, in creation order"
        );
        let kb2 = KnowledgeBase::from_json(&json).unwrap();
        assert_eq!(kb2.index_count(), 2, "the recorded index policy rebuilds secondaries");
        let t = kb2.table("drug").unwrap();
        assert!(t.index(0).is_some());
        assert!(t.index(1).is_some());
        assert_eq!(
            kb2.query("SELECT name FROM drug WHERE drug_id = 1").unwrap().rows.len(),
            1,
            "rebuilt indexes answer correctly"
        );
        // Regression: the reload path must keep the planner's access
        // paths — a dropped index here regresses point lookups to scans.
        for sql in [
            "SELECT name FROM drug WHERE drug_id = 3",
            "SELECT drug_id FROM drug WHERE name = 'Drug1'",
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
    fn pre_policy_envelope_still_loads_scan_only() {
        // An envelope with no `index_policy` must parse, scan-only. It
        // also carries the `generations` stamp older builds wrote, which
        // this build ignores.
        let json = r#"{
            "generations": {"data": 7, "schema": 2},
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
        assert_eq!(kb.index_count(), 0, "no recorded policy, no indexes");
        assert!(!kb.to_json().contains("generations"), "the stamp is not written back");
        assert_eq!(kb.query("SELECT name FROM drug WHERE drug_id = 1").unwrap().rows.len(), 1);
    }

    #[test]
    fn table_names_sorted() {
        let mut kb = kb_with_drug();
        kb.create_table(TableSchema::new("a_table").column("x", ColumnType::Int)).unwrap();
        assert_eq!(kb.table_names(), vec!["a_table", "drug"]);
    }
}
