//! Store-level edge cases: error rendering, result-set helpers, and value
//! semantics the SQL engine relies on.

use obcs_kb::schema::{ColumnType, TableSchema};
use obcs_kb::value::{sql_quote, FiniteF64};
use obcs_kb::{KbError, KnowledgeBase, ResultSet, Value};

fn kb() -> KnowledgeBase {
    let mut kb = KnowledgeBase::new();
    kb.create_table(
        TableSchema::new("t")
            .column("id", ColumnType::Int)
            .column("x", ColumnType::Text)
            .column("f", ColumnType::Float)
            .primary_key("id"),
    )
    .expect("schema");
    kb.insert("t", vec![Value::Int(1), Value::text("a"), Value::float(1.5).expect("finite")])
        .expect("row");
    kb
}

#[test]
fn all_error_variants_render_readably() {
    let mut kb = kb();
    let errors: Vec<KbError> = vec![
        kb.create_table(TableSchema::new("t").column("x", ColumnType::Int)).unwrap_err(),
        kb.query("SELECT x FROM nope").unwrap_err(),
        kb.query("SELECT nope FROM t").unwrap_err(),
        kb.insert("t", vec![Value::Int(1)]).unwrap_err(),
        kb.insert("t", vec![Value::text("no"), Value::text("a"), Value::Null]).unwrap_err(),
        kb.insert("t", vec![Value::Int(1), Value::text("dup"), Value::Null]).unwrap_err(),
        kb.query("SELECT").unwrap_err(),
    ];
    for e in errors {
        let msg = e.to_string();
        assert!(!msg.is_empty());
        assert!(!msg.contains("Err("), "no debug formatting leaks: {msg}");
    }
}

#[test]
fn result_set_render_and_single_column() {
    let kb = kb();
    let rs = kb.query("SELECT id, x FROM t").expect("query");
    let rendered = rs.render();
    assert!(rendered.starts_with("id | x\n"));
    assert!(rendered.contains("1 | a"));
    assert!(rs.single_column().is_err(), "two columns");
    let one = kb.query("SELECT x FROM t").expect("query");
    assert_eq!(one.single_column().unwrap().len(), 1);
    // Manually constructed empty result set.
    let empty = ResultSet { columns: vec!["c".into()].into(), rows: vec![] };
    assert_eq!(empty.render(), "c\n");
}

#[test]
fn float_columns_accept_ints_and_compare_numerically() {
    let mut kb = kb();
    kb.insert("t", vec![Value::Int(2), Value::text("b"), Value::Int(2)]).expect("widening");
    let rs = kb.query("SELECT x FROM t WHERE f >= 1.5").expect("query");
    assert_eq!(rs.rows.len(), 2);
    let rs = kb.query("SELECT x FROM t WHERE f = 2").expect("query");
    assert_eq!(rs.rows.len(), 1);
}

#[test]
#[should_panic(expected = "finite")]
fn finite_f64_rejects_nan() {
    let _ = FiniteF64::new(f64::NAN);
}

#[test]
fn sql_quote_handles_pathological_values() {
    let kb = kb();
    for v in ["", "'", "''", "a'b'c", "%;--", "\" OR 1=1"] {
        let sql = format!("SELECT x FROM t WHERE x = {}", sql_quote(v));
        // Never a parse error, never an injection (the engine has no DML).
        let rs = kb.query(&sql).expect("quoted literal parses");
        assert!(rs.rows.len() <= 1);
    }
}

#[test]
fn json_round_trip_preserves_float_bits() {
    let kb = kb();
    let back = KnowledgeBase::from_json(&kb.to_json()).expect("round trip");
    assert_eq!(back.table("t").unwrap().rows[0][2], Value::float(1.5).unwrap());
}
