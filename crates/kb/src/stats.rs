//! Data statistics over the knowledge base.
//!
//! The bootstrapper (paper §4.2.1) inspects instance-data statistics to
//! decide which neighbourhood concepts are *categorical attributes* — and
//! hence dependent concepts of a key concept — and to pull instance values
//! for entity population and training-example generation (§4.3, §4.5).

use serde::{Deserialize, Serialize};

use crate::store::{KbError, KnowledgeBase};
use crate::value::Value;

/// Statistics of one column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnStats {
    pub table: String,
    pub column: String,
    pub row_count: usize,
    /// Number of distinct non-null values.
    pub distinct_count: usize,
    pub null_count: usize,
}

impl ColumnStats {
    /// Distinct-to-row ratio (0 when the table is empty).
    pub fn distinct_ratio(&self) -> f64 {
        if self.row_count == 0 {
            0.0
        } else {
            self.distinct_count as f64 / self.row_count as f64
        }
    }
}

/// Thresholds for categorical-attribute detection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CategoricalPolicy {
    /// A column is categorical if it has at most this many distinct values…
    pub max_distinct: usize,
    /// …or if its distinct ratio is at most this (repetition-heavy column).
    pub max_distinct_ratio: f64,
}

impl Default for CategoricalPolicy {
    fn default() -> Self {
        // Defaults tuned for reference-data KBs: a column with ≤ 64 distinct
        // values (age groups, routes, severities) or heavy repetition is an
        // enumerable attribute a user can be prompted with.
        CategoricalPolicy { max_distinct: 64, max_distinct_ratio: 0.1 }
    }
}

/// Computes statistics for one column.
pub fn column_stats(kb: &KnowledgeBase, table: &str, column: &str) -> Result<ColumnStats, KbError> {
    let t = kb.table(table)?;
    let idx = t.schema.column_index(column).ok_or_else(|| KbError::UnknownColumn {
        table: table.to_string(),
        column: column.to_string(),
    })?;
    let mut distinct = std::collections::HashSet::new();
    let mut nulls = 0usize;
    for row in &t.rows {
        match &row[idx] {
            Value::Null => nulls += 1,
            v => {
                distinct.insert(v.clone());
            }
        }
    }
    Ok(ColumnStats {
        table: table.to_string(),
        column: column.to_string(),
        row_count: t.len(),
        distinct_count: distinct.len(),
        null_count: nulls,
    })
}

/// Whether a column is categorical under the policy.
pub fn is_categorical(stats: &ColumnStats, policy: CategoricalPolicy) -> bool {
    if stats.row_count == 0 || stats.distinct_count == 0 {
        return false;
    }
    stats.distinct_count <= policy.max_distinct
        || stats.distinct_ratio() <= policy.max_distinct_ratio
}

/// Whether a *table* looks like a categorical attribute of its FK targets:
/// small distinct value domain in its descriptive columns relative to its
/// referencing role. The paper marks the neighbourhood concepts of a key
/// concept as dependent when their instance data behaves categorically.
pub fn table_is_categorical(
    kb: &KnowledgeBase,
    table: &str,
    policy: CategoricalPolicy,
) -> Result<bool, KbError> {
    let t = kb.table(table)?;
    if t.is_empty() {
        return Ok(false);
    }
    // A table behaves categorically if any of its non-key text columns is
    // categorical, or the table itself is small.
    if t.len() <= policy.max_distinct {
        return Ok(true);
    }
    for col in &t.schema.columns {
        let is_key = t.schema.primary_key.as_deref() == Some(col.name.as_str())
            || t.schema.is_foreign_key(&col.name);
        if is_key {
            continue;
        }
        let s = column_stats(kb, table, &col.name)?;
        if is_categorical(&s, policy) {
            return Ok(true);
        }
    }
    Ok(false)
}

/// O(1) index-backed estimate of how many rows an equality predicate on
/// `table.column` selects: row count over the index's distinct-key count
/// (uniform-distribution assumption). `None` when the column has no
/// secondary index — the planner then has no cheap estimate and keeps
/// the scan (DESIGN.md §14). Unlike [`column_stats`] this never touches
/// row data, so the binder can afford it on every plan.
pub fn estimated_eq_rows(kb: &KnowledgeBase, table: &str, column: &str) -> Option<f64> {
    let t = kb.table(table).ok()?;
    let col = t.schema.column_index(column)?;
    let idx = t.index(col)?;
    let distinct = idx.distinct_count();
    if distinct == 0 {
        return Some(0.0);
    }
    Some(t.len() as f64 / distinct as f64)
}

/// Samples up to `limit` distinct non-null values of a column (sorted, so
/// deterministic).
pub fn sample_values(
    kb: &KnowledgeBase,
    table: &str,
    column: &str,
    limit: usize,
) -> Result<Vec<Value>, KbError> {
    let mut vals = kb.distinct_values(table, column)?;
    vals.truncate(limit);
    Ok(vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, TableSchema};

    fn kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        kb.create_table(
            TableSchema::new("t")
                .column("id", ColumnType::Int)
                .column("category", ColumnType::Text)
                .column("unique_text", ColumnType::Text)
                .primary_key("id"),
        )
        .unwrap();
        for i in 0..100 {
            kb.insert(
                "t",
                vec![
                    Value::Int(i),
                    Value::text(if i % 2 == 0 { "adult" } else { "pediatric" }),
                    Value::text(format!("desc-{i}")),
                ],
            )
            .unwrap();
        }
        kb
    }

    #[test]
    fn stats_counts() {
        let kb = kb();
        let s = column_stats(&kb, "t", "category").unwrap();
        assert_eq!(s.row_count, 100);
        assert_eq!(s.distinct_count, 2);
        assert_eq!(s.null_count, 0);
        assert!((s.distinct_ratio() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn categorical_detection() {
        let kb = kb();
        let policy = CategoricalPolicy::default();
        let cat = column_stats(&kb, "t", "category").unwrap();
        let uniq = column_stats(&kb, "t", "unique_text").unwrap();
        assert!(is_categorical(&cat, policy));
        assert!(!is_categorical(&uniq, policy));
    }

    #[test]
    fn null_heavy_column() {
        let mut kb = KnowledgeBase::new();
        kb.create_table(
            TableSchema::new("n")
                .column("id", ColumnType::Int)
                .column("x", ColumnType::Text)
                .primary_key("id"),
        )
        .unwrap();
        for i in 0..10 {
            kb.insert("n", vec![Value::Int(i), Value::Null]).unwrap();
        }
        let s = column_stats(&kb, "n", "x").unwrap();
        assert_eq!(s.null_count, 10);
        assert_eq!(s.distinct_count, 0);
        assert!(!is_categorical(&s, CategoricalPolicy::default()));
    }

    #[test]
    fn empty_table_not_categorical() {
        let mut kb = KnowledgeBase::new();
        kb.create_table(TableSchema::new("e").column("x", ColumnType::Int)).unwrap();
        assert!(!table_is_categorical(&kb, "e", CategoricalPolicy::default()).unwrap());
    }

    #[test]
    fn small_table_is_categorical() {
        let mut kb = KnowledgeBase::new();
        kb.create_table(
            TableSchema::new("route")
                .column("id", ColumnType::Int)
                .column("name", ColumnType::Text)
                .primary_key("id"),
        )
        .unwrap();
        for (i, r) in ["ORAL", "TOPICAL", "IV"].iter().enumerate() {
            kb.insert("route", vec![Value::Int(i as i64), Value::text(*r)]).unwrap();
        }
        assert!(table_is_categorical(&kb, "route", CategoricalPolicy::default()).unwrap());
    }

    #[test]
    fn large_unique_table_not_categorical() {
        let mut kb = KnowledgeBase::new();
        kb.create_table(
            TableSchema::new("big")
                .column("id", ColumnType::Int)
                .column("desc", ColumnType::Text)
                .primary_key("id"),
        )
        .unwrap();
        for i in 0..1000 {
            kb.insert("big", vec![Value::Int(i), Value::text(format!("d{i}"))]).unwrap();
        }
        assert!(!table_is_categorical(&kb, "big", CategoricalPolicy::default()).unwrap());
    }

    #[test]
    fn sample_values_deterministic() {
        let kb = kb();
        let v = sample_values(&kb, "t", "category", 10).unwrap();
        assert_eq!(v, vec![Value::text("adult"), Value::text("pediatric")]);
        let v = sample_values(&kb, "t", "category", 1).unwrap();
        assert_eq!(v.len(), 1);
    }
}
