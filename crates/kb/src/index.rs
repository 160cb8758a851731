//! Secondary indexes over table columns (DESIGN.md §14).
//!
//! One shape: a hash map from raw `Value` keys to ascending row
//! positions. It serves equality probes, with a numeric-twin dual probe
//! bridging the `Int`/`Float` cross-type cases of `sql_eq`, and join
//! builds: raw keys in insertion order replicate the executor's
//! per-query hash join exactly, so probing the persistent index is
//! indistinguishable from rebuilding the map per query.
//!
//! Indexes are *candidate generators*, never truth: every probe returns
//! a superset of the matching row positions in ascending order, and the
//! executor re-applies all predicates to the candidates — which makes
//! indexed execution byte-identical to a full scan by construction
//! (property-tested in `tests/index_oracle.rs`). A probe may also
//! return `None` ("cannot answer exactly"): numeric keys at magnitudes
//! ≥ 2^53 lose `sql_eq` precision to f64 rounding (several `Int`s can
//! equal one `Float`), so the index declines and the executor scans.

use std::collections::HashMap;

use crate::value::Value;

/// Magnitude bound below which every `Int` has an exact `f64` twin and
/// vice versa. At or above 2^53 several distinct `Int`s round to the
/// same `Float` under `sql_eq`, so index probes cannot be exact.
const EXACT_F64_BOUND: f64 = 9_007_199_254_740_992.0; // 2^53

/// Whether an equality probe key determines its `sql_eq` class exactly:
/// the set of values equal to it is `{Int(k), Float(k)}` (or just the
/// raw key for non-numerics), both representable.
fn exactly_probeable(v: &Value) -> bool {
    match v {
        Value::Int(i) => (i.unsigned_abs() as f64) < EXACT_F64_BOUND,
        Value::Float(f) => f.get().abs() < EXACT_F64_BOUND,
        _ => true,
    }
}

/// The `Int`↔`Float` twin a numeric key is `sql_eq` to, if distinct
/// from the key itself under raw (derived) equality.
fn numeric_twin(v: &Value) -> Option<Value> {
    match v {
        Value::Int(i) => Value::float(*i as f64),
        Value::Float(f) => {
            let x = f.get();
            (x.fract() == 0.0).then_some(Value::Int(x as i64))
        }
        _ => None,
    }
}

/// One secondary index over a single column of a table. NULLs are never
/// indexed (they match no predicate and no join).
#[derive(Debug, Clone)]
pub struct SecondaryIndex {
    column: String,
    /// Column position within the table's schema.
    col: usize,
    map: HashMap<Value, Vec<u32>>,
}

impl SecondaryIndex {
    pub fn new(column: impl Into<String>, col: usize) -> Self {
        SecondaryIndex { column: column.into(), col, map: HashMap::new() }
    }

    /// The indexed column's name.
    pub fn column(&self) -> &str {
        &self.column
    }

    /// The indexed column's position within the table schema.
    pub fn column_pos(&self) -> usize {
        self.col
    }

    /// Number of distinct keys — the O(1) cardinality estimate behind
    /// the planner's index-vs-scan decision (`stats::estimated_eq_rows`).
    pub fn distinct_count(&self) -> usize {
        self.map.len()
    }

    /// Registers row `pos` holding `value` in the indexed column. Called
    /// on every insert (positions arrive in ascending order) and from
    /// [`rebuild`](Self::rebuild).
    pub fn insert_row(&mut self, pos: u32, value: &Value) {
        if !value.is_null() {
            self.map.entry(value.clone()).or_default().push(pos);
        }
    }

    /// Rebuilds from scratch over a table's rows.
    pub fn rebuild(&mut self, rows: &[Vec<Value>]) {
        self.map.clear();
        for (pos, row) in rows.iter().enumerate() {
            self.insert_row(pos as u32, &row[self.col]);
        }
    }

    /// Positions whose key equals `key` under **raw** (derived) `Value`
    /// equality — the equality hash joins use.
    pub fn probe_raw(&self, key: &Value) -> Option<&[u32]> {
        self.map.get(key).map(Vec::as_slice)
    }

    /// Candidate positions for an `sql_eq` equality predicate, ascending.
    /// Returns `None` when the index cannot answer exactly (a numeric key
    /// at magnitude ≥ 2^53); the caller must then fall back to a scan.
    pub fn probe_sql_eq(&self, key: &Value) -> Option<Vec<u32>> {
        if key.is_null() {
            return Some(Vec::new());
        }
        if !exactly_probeable(key) {
            return None;
        }
        let direct = self.probe_raw(key).unwrap_or(&[]);
        let twin =
            numeric_twin(key).filter(|t| t != key).and_then(|t| self.probe_raw(&t)).unwrap_or(&[]);
        Some(merge_ascending(direct, twin))
    }
}

/// Merges two ascending position slices into one ascending vec.
fn merge_ascending(a: &[u32], b: &[u32]) -> Vec<u32> {
    if a.is_empty() {
        return b.to_vec();
    }
    if b.is_empty() {
        return a.to_vec();
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_probe_raw_groups_in_insertion_order() {
        let mut idx = SecondaryIndex::new("c", 0);
        for (i, v) in [Value::Int(5), Value::Int(7), Value::Int(5)].iter().enumerate() {
            idx.insert_row(i as u32, v);
        }
        assert_eq!(idx.probe_raw(&Value::Int(5)), Some(&[0u32, 2][..]));
        assert_eq!(idx.probe_raw(&Value::Int(9)), None);
        assert_eq!(idx.distinct_count(), 2);
    }

    #[test]
    fn hash_sql_eq_dual_probes_numeric_twins() {
        let mut idx = SecondaryIndex::new("c", 0);
        idx.insert_row(0, &Value::Int(2));
        idx.insert_row(1, &Value::float(2.0).unwrap());
        idx.insert_row(2, &Value::float(2.5).unwrap());
        assert_eq!(idx.probe_sql_eq(&Value::Int(2)), Some(vec![0, 1]));
        assert_eq!(idx.probe_sql_eq(&Value::float(2.0).unwrap()), Some(vec![0, 1]));
        assert_eq!(idx.probe_sql_eq(&Value::float(2.5).unwrap()), Some(vec![2]));
        assert_eq!(idx.probe_sql_eq(&Value::Null), Some(vec![]));
    }

    #[test]
    fn huge_numeric_probe_declines() {
        let mut idx = SecondaryIndex::new("c", 0);
        idx.insert_row(0, &Value::Int(1 << 53));
        assert_eq!(idx.probe_sql_eq(&Value::Int(1 << 53)), None, "beyond 2^53 must scan");
        assert_eq!(idx.probe_sql_eq(&Value::Int(3)), Some(vec![]), "small keys stay exact");
    }

    #[test]
    fn merge_ascending_interleaves() {
        assert_eq!(merge_ascending(&[1, 4, 9], &[2, 3, 10]), vec![1, 2, 3, 4, 9, 10]);
        assert_eq!(merge_ascending(&[], &[2]), vec![2]);
        assert_eq!(merge_ascending(&[1], &[]), vec![1]);
    }
}
