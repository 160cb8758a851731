//! Property-based equivalence of index-backed execution against a
//! scan-only oracle (DESIGN.md §14): starting from no index or from the
//! default policy, over arbitrary interleavings of inserts, queries,
//! index creations, and index enable/disable toggles,
//! a KB answering through its secondary indexes must return
//! byte-identical results — including errors — to a KB that never
//! builds an index. The schema mixes an `Int` PK, a high-cardinality text column, and a
//! `Float` column that also admits `Int` values, so the dual-probe
//! (`Int`↔`Float` `sql_eq`) and huge-key decline (≥ 2^53) paths are
//! both exercised mid-stream. LIKE is a scan predicate on every KB. Equalities on *joined* tables exercise the join
//! probe (DESIGN.md §14.1): one and two hops back to the FROM table,
//! across NULL join keys and filters that match several drugs.
//! Mid-stream the indexed KB may also be cloned, after which the twins
//! mutate independently: each must keep matching an oracle rebuilt from
//! its own history, never from a clone.
//!
//! Over the same schema, a template prepared once with its `'<@…>'`
//! markers as parameters (DESIGN.md §14.2) must answer every parameter
//! vector exactly as `query` answers the template with each marker
//! replaced by the quoted value, adversarial values included.

use std::collections::BTreeSet;

use obcs_kb::schema::{ColumnType, TableSchema};
use obcs_kb::value::sql_quote;
use obcs_kb::{KnowledgeBase, Value};
use proptest::prelude::*;

fn fresh_kb() -> KnowledgeBase {
    let mut kb = KnowledgeBase::new();
    kb.create_table(
        TableSchema::new("drug")
            .column("drug_id", ColumnType::Int)
            .column("name", ColumnType::Text)
            .column("weight", ColumnType::Float)
            .primary_key("drug_id"),
    )
    .expect("schema");
    kb.create_table(
        TableSchema::new("precautions")
            .column("prec_id", ColumnType::Int)
            .column("drug_id", ColumnType::Int)
            .column("description", ColumnType::Text)
            .primary_key("prec_id")
            .foreign_key("drug_id", "drug", "drug_id"),
    )
    .expect("schema");
    kb.create_table(
        TableSchema::new("advisory")
            .column("adv_id", ColumnType::Int)
            .column("prec_id", ColumnType::Int)
            .column("note", ColumnType::Text)
            .primary_key("adv_id")
            .foreign_key("prec_id", "precautions", "prec_id"),
    )
    .expect("schema");
    kb
}

/// Query shapes covering every index-eligible path: point lookup,
/// equality on the text name column, the `Int`/`Float` dual probe both
/// ways, a join over the FK index, join probes (a name, a weight
/// matching several drugs with both twin types, a filter on the FROM
/// side's partner whose keys may be NULL, and a two-hop walk), a
/// huge-magnitude equality (the index must decline and scan), and error
/// shapes. The LIKE shapes — anchored, unanchored, and under DISTINCT,
/// ORDER BY and LIMIT — bind to a scan on every KB.
const QUERIES: &[&str] = &[
    "SELECT name FROM drug WHERE drug_id = 5",
    "SELECT name FROM drug WHERE name LIKE 'Drug1%'",
    "SELECT name FROM drug WHERE name LIKE '%x2'",
    "SELECT drug_id FROM drug WHERE name = 'Drug3x1'",
    "SELECT name FROM drug WHERE weight = 2",
    "SELECT name FROM drug WHERE weight = 2.0",
    "SELECT name FROM drug WHERE weight = 2.5",
    "SELECT name FROM drug WHERE weight = 9007199254740997",
    "SELECT DISTINCT name FROM drug WHERE name LIKE 'D%' ORDER BY name DESC LIMIT 3",
    "SELECT p.description FROM precautions p \
     INNER JOIN drug d ON p.drug_id = d.drug_id WHERE d.drug_id = 2",
    "SELECT d.name, p.description FROM drug d \
     INNER JOIN precautions p ON d.drug_id = p.drug_id ORDER BY name ASC",
    "SELECT p.description FROM precautions p \
     INNER JOIN drug d ON p.drug_id = d.drug_id WHERE d.name = 'Drug3x1'",
    "SELECT p.prec_id, d.weight FROM precautions p \
     INNER JOIN drug d ON p.drug_id = d.drug_id WHERE d.weight = 2",
    "SELECT DISTINCT d.name FROM precautions p \
     INNER JOIN drug d ON p.drug_id = d.drug_id WHERE d.weight = 2.0 ORDER BY name ASC",
    "SELECT d.name FROM drug d \
     INNER JOIN precautions p ON d.drug_id = p.drug_id WHERE p.description = 'precaution 3'",
    "SELECT a.note, d.name FROM advisory a \
     INNER JOIN precautions p ON a.prec_id = p.prec_id \
     INNER JOIN drug d ON p.drug_id = d.drug_id WHERE d.name = 'Drug5x0'",
    "SELECT a.adv_id, p.description FROM advisory a \
     INNER JOIN precautions p ON a.prec_id = p.prec_id \
     INNER JOIN drug d ON p.drug_id = d.drug_id WHERE d.drug_id = 3",
    "SELECT a.adv_id FROM advisory a \
     INNER JOIN precautions p ON a.prec_id = p.prec_id \
     INNER JOIN drug d ON p.drug_id = d.drug_id WHERE d.weight = 1 AND a.adv_id < 20",
    "SELECT nope FROM drug",
];

/// The index targets the `CreateIndex` op draws from.
const INDEXES: &[(&str, &str)] = &[
    ("drug", "drug_id"),
    ("drug", "name"),
    ("drug", "weight"),
    ("precautions", "drug_id"),
    ("precautions", "description"),
    ("precautions", "prec_id"),
    ("advisory", "adv_id"),
    ("advisory", "prec_id"),
];

/// A fresh indexed KB — empty, or under the default policy (PK, FK and
/// name-column hash indexes, every one an `INDEXES` target), so the join
/// probe is live from the first insert — and the `INDEXES` targets it
/// already holds.
fn fresh_indexed(auto_index: bool) -> (KnowledgeBase, BTreeSet<usize>) {
    let mut kb = fresh_kb();
    if auto_index {
        kb.auto_index();
    }
    let held = (0..INDEXES.len())
        .filter(|&i| {
            let (table, column) = INDEXES[i];
            let t = kb.table(table).expect("table");
            t.index(t.schema.column_index(column).expect("column")).is_some()
        })
        .collect();
    (kb, held)
}

#[derive(Debug, Clone)]
enum Op {
    /// Insert a drug row; the selector picks the weight's type so the
    /// Float column holds a mix of `Int`, `Float`, NULL, and huge keys.
    InsertDrug(i64, u8, u8),
    /// Insert a precaution referencing drug `drug_id` (may violate FK;
    /// NULL for the largest selector).
    InsertPrecaution(i64, i64),
    /// Insert an advisory referencing precaution `prec_id` (may violate
    /// FK; NULL for the largest selector).
    InsertAdvisory(i64, i64),
    Query(usize),
    CreateIndex(usize),
    /// Toggle index-backed execution on the indexed KB mid-stream.
    SetIndexes(bool),
    /// Clone the indexed KB into a new twin; later ops each land on one
    /// twin, so the twins diverge.
    Fork,
}

fn weight_value(id: i64, sel: u8) -> Value {
    match sel % 5 {
        0 => Value::Int(id % 4),
        1 => Value::float((id % 4) as f64).expect("finite"),
        2 => Value::float(id as f64 + 0.5).expect("finite"),
        3 => Value::Null,
        // Beyond 2^53: index probes decline and scan.
        _ => Value::Int((1i64 << 53) + id),
    }
}

/// An op plus the selector of the twin it lands on.
fn op_strategy() -> impl Strategy<Value = (usize, Op)> {
    (0usize..10, 0i64..24, 0i64..14, 0u8..8, 0usize..MAX_TWINS).prop_map(
        |(kind, id, drug, sel, twin)| {
            let op = match kind {
                0 | 1 => Op::InsertDrug(id % 12, sel % 4, sel),
                2 => Op::InsertPrecaution(id, drug),
                3 => Op::CreateIndex(id as usize % INDEXES.len()),
                4 => Op::SetIndexes(sel % 2 == 0),
                5 => Op::Fork,
                6 => Op::InsertAdvisory(id, drug),
                _ => Op::Query(id as usize),
            };
            (twin, op)
        },
    )
}

/// A referencing key: `Int(key)`, or NULL for the largest selector.
fn key_or_null(key: i64) -> Value {
    if key == 13 {
        Value::Null
    } else {
        Value::Int(key)
    }
}

fn apply_insert(kb: &mut KnowledgeBase, op: &Op) -> Result<(), obcs_kb::KbError> {
    match op {
        Op::InsertDrug(id, suffix, sel) => kb.insert(
            "drug",
            vec![
                Value::Int(*id),
                Value::text(format!("Drug{id}x{suffix}")),
                weight_value(*id, *sel),
            ],
        ),
        Op::InsertPrecaution(id, drug) => kb.insert(
            "precautions",
            vec![Value::Int(*id), key_or_null(*drug), Value::text(format!("precaution {id}"))],
        ),
        Op::InsertAdvisory(id, prec) => kb.insert(
            "advisory",
            vec![Value::Int(*id), key_or_null(*prec), Value::text(format!("advisory {id}"))],
        ),
        _ => unreachable!("only insert ops reach apply_insert"),
    }
}

/// Most twins one case may fork into.
const MAX_TWINS: usize = 4;

/// One line of descent: the indexed KB, the inserts it has
/// seen, the index targets it has built, and its scan-only oracle.
struct Twin {
    indexed: KnowledgeBase,
    inserts: Vec<Op>,
    indexes: BTreeSet<usize>,
    oracle: KnowledgeBase,
}

/// A scan-only KB built from `inserts` alone — never cloned, so it
/// shares storage with nothing.
fn oracle_of(inserts: &[Op]) -> KnowledgeBase {
    let mut oracle = fresh_kb();
    oracle.set_index_enabled(false);
    for op in inserts {
        let _ = apply_insert(&mut oracle, op);
    }
    oracle
}

proptest! {
    /// Indexed execution is observationally identical to a scan-only
    /// oracle over any interleaving of mutations,
    /// queries, index creations, index toggles, and clones that go on
    /// mutating independently.
    #[test]
    fn indexed_queries_match_scan_only_oracle(
        auto_index in any::<bool>(),
        ops in proptest::collection::vec(op_strategy(), 1..50),
    ) {
        let (indexed, indexes) = fresh_indexed(auto_index);
        let mut twins =
            vec![Twin { indexed, inserts: Vec::new(), indexes, oracle: oracle_of(&[]) }];
        prop_assert!(twins[0].indexed.index_enabled());

        for (sel, op) in &ops {
            let at = sel % twins.len();
            match op {
                Op::Query(i) => {
                    let sql = QUERIES[i % QUERIES.len()];
                    // Every twin, so a sibling's mutation that leaked
                    // into shared storage shows up here.
                    for (n, twin) in twins.iter().enumerate() {
                        prop_assert_eq!(
                            twin.indexed.query(sql), twin.oracle.query(sql), "twin {} on {}", n, sql
                        );
                    }
                }
                Op::CreateIndex(i) => {
                    let i = i % INDEXES.len();
                    let (table, column) = INDEXES[i];
                    let twin = &mut twins[at];
                    let created =
                        twin.indexed.create_index(table, column).expect("valid index target");
                    prop_assert_eq!(
                        created, twin.indexes.insert(i), "index {:?} on twin {}", INDEXES[i], at
                    );
                }
                Op::SetIndexes(on) => twins[at].indexed.set_index_enabled(*on),
                Op::Fork => {
                    if twins.len() < MAX_TWINS {
                        let source = &twins[at];
                        let twin = Twin {
                            indexed: source.indexed.clone(),
                            inserts: source.inserts.clone(),
                            indexes: source.indexes.clone(),
                            oracle: oracle_of(&source.inserts),
                        };
                        twins.push(twin);
                    }
                }
                insert => {
                    let twin = &mut twins[at];
                    let a = apply_insert(&mut twin.indexed, insert);
                    let b = apply_insert(&mut twin.oracle, insert);
                    prop_assert_eq!(a, b, "mutation outcomes diverged on {:?}", insert);
                    twin.inserts.push(insert.clone());
                }
            }
            for (n, twin) in twins.iter().enumerate() {
                prop_assert_eq!(
                    twin.indexed.index_count(), twin.indexes.len(), "twin {} index count", n
                );
                prop_assert_eq!(twin.oracle.index_count(), 0, "the oracle must never index");
            }
        }
    }
}

/// Deterministic end-to-end check of the headline path: a fully indexed
/// KB — the default policy (join keys and name columns) plus explicit
/// indexes for the weight and description shapes — agrees with its scan
/// twin on every query shape above, the name filters on joined tables
/// bind the join probe, and every LIKE shape binds a scan.
#[test]
fn auto_indexed_kb_matches_scan_twin_exhaustively() {
    let mut indexed = fresh_kb();
    for id in 0..40i64 {
        indexed
            .insert(
                "drug",
                vec![
                    Value::Int(id),
                    Value::text(format!("Drug{id}x{}", id % 3)),
                    weight_value(id, (id % 5) as u8),
                ],
            )
            .expect("insert");
    }
    for id in 0..60i64 {
        // Every seventh precaution has a NULL drug.
        let drug = if id % 7 == 6 { Value::Null } else { Value::Int(id % 12) };
        indexed
            .insert(
                "precautions",
                vec![Value::Int(id), drug, Value::text(format!("precaution {id}"))],
            )
            .expect("insert");
    }
    for id in 0..90i64 {
        let prec = if id % 11 == 10 { Value::Null } else { Value::Int((id * 7) % 60) };
        indexed
            .insert("advisory", vec![Value::Int(id), prec, Value::text(format!("advisory {id}"))])
            .expect("insert");
    }
    let mut scan = indexed.clone();
    scan.set_index_enabled(false);
    assert!(indexed.auto_index() > 0);
    for (table, column) in [("drug", "weight"), ("precautions", "description")] {
        assert!(indexed.create_index(table, column).expect("index"));
    }
    let likes: Vec<&str> = QUERIES.iter().copied().filter(|q| q.contains(" LIKE ")).collect();
    assert_eq!(likes.len(), 3, "the anchored, unanchored and DISTINCT/ORDER BY/LIMIT shapes");
    for sql in likes {
        assert_eq!(indexed.prepare(sql).expect("plan").access_label(), "scan", "{sql}");
    }
    for sql in QUERIES.iter().filter(|q| q.contains("d.name = ")) {
        assert_eq!(indexed.prepare(sql).expect("plan").access_label(), "join_probe", "{sql}");
    }
    for sql in QUERIES {
        assert_eq!(indexed.query(sql), scan.query(sql), "divergence on {sql}");
    }
}

/// Marker templates over the oracle schema: equality on the FROM table
/// and through one- and two-hop join probes, two markers in one
/// statement, a marker under LIKE, CONTAINS and `!=`, and a bind error.
const TEMPLATES: &[&str] = &[
    "SELECT drug_id FROM drug WHERE name = '<@Drug>'",
    "SELECT p.description FROM precautions p \
     INNER JOIN drug d ON p.drug_id = d.drug_id WHERE d.name = '<@Drug>'",
    "SELECT a.note, d.name FROM advisory a \
     INNER JOIN precautions p ON a.prec_id = p.prec_id \
     INNER JOIN drug d ON p.drug_id = d.drug_id \
     WHERE d.name = '<@Drug>' AND p.description = '<@Note>'",
    "SELECT DISTINCT d.name FROM drug d \
     INNER JOIN precautions p ON d.drug_id = p.drug_id \
     WHERE p.description = '<@Note>' ORDER BY name ASC",
    "SELECT name FROM drug WHERE name LIKE '<@Drug>'",
    "SELECT name FROM drug WHERE name CONTAINS '<@Note>'",
    "SELECT name FROM drug WHERE name != '<@Drug>' ORDER BY name DESC LIMIT 4",
    "SELECT nope FROM drug WHERE name = '<@Drug>'",
];

const MARKERS: [&str; 2] = ["<@Drug>", "<@Note>"];

/// Fragments adversarial values are spliced from: quotes, marker text,
/// LIKE wildcards, the response template's markers, non-ASCII, and
/// pieces of stored names so that some values match.
const FRAGMENTS: &[&str] =
    &["'", "''", "<@Drug>", "<@Note>", "%", "_", "{results}", "Ü", "日本", "Drug", "1x0", " "];

/// The template with every quoted marker replaced by the quoted value, in
/// one left-to-right pass, so a value holding marker text stays literal.
fn substitute(template: &str, values: &[String]) -> String {
    let mut out = String::new();
    let mut rest = template;
    while let Some((at, i)) = MARKERS
        .iter()
        .enumerate()
        .filter_map(|(i, m)| rest.find(&format!("'{m}'")).map(|at| (at, i)))
        .min()
    {
        out.push_str(&rest[..at]);
        out.push_str(&sql_quote(&values[i]));
        rest = &rest[at + MARKERS[i].len() + 2..];
    }
    out.push_str(rest);
    out
}

/// The oracle schema, holding adversarial names and descriptions next to
/// ordinary ones, under the default index policy (which covers
/// `drug.name`) plus an index on `precautions.description`, so every
/// filtered text column is indexed.
fn adversarial_kb() -> KnowledgeBase {
    let mut kb = fresh_kb();
    let names = ["Drug1x0", "O'Neil", "''", "<@Drug>", "50%", "a_b", "{results}", "Ünï日本", ""];
    for (id, name) in names.iter().enumerate() {
        let id = id as i64;
        kb.insert("drug", vec![Value::Int(id), Value::text(*name), Value::Int(id % 3)])
            .expect("insert drug");
        for k in 0..2 {
            let prec = id * 2 + k;
            let note = if k == 0 {
                names[(id as usize + 3) % names.len()].to_string()
            } else {
                format!("precaution {prec}")
            };
            kb.insert("precautions", vec![Value::Int(prec), Value::Int(id), Value::text(note)])
                .expect("insert precaution");
            kb.insert("advisory", vec![Value::Int(prec), Value::Int(prec), Value::text("advice")])
                .expect("insert advisory");
        }
    }
    kb.auto_index();
    kb.create_index("precautions", "description").expect("index");
    kb
}

fn value_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..FRAGMENTS.len(), 0..4)
        .prop_map(|picks| picks.into_iter().map(|i| FRAGMENTS[i]).collect())
}

proptest! {
    /// Preparing a template once and executing it with values answers
    /// exactly what `query` answers for the template with each marker
    /// replaced by `sql_quote(value)`: same rows, same order, same
    /// errors, with indexes on and off.
    #[test]
    fn prepared_templates_match_quoted_substitution(
        drug in value_strategy(),
        note in value_strategy(),
    ) {
        let mut kb = adversarial_kb();
        let values = [drug, note];
        let params: Vec<Value> = values.iter().map(|v| Value::text(v.as_str())).collect();
        for indexes in [true, false] {
            kb.set_index_enabled(indexes);
            for sql in TEMPLATES {
                let prepared =
                    kb.prepare_with(sql, &MARKERS).and_then(|plan| kb.execute(&plan, &params));
                let expected = kb.query(&substitute(sql, &values));
                prop_assert_eq!(prepared, expected, "{} with {:?}", sql, values);
            }
        }
    }
}

#[test]
fn stored_adversarial_names_are_found_through_parameters() {
    let kb = adversarial_kb();
    let plan = kb.prepare_with(TEMPLATES[0], &MARKERS).expect("prepare");
    for (id, name) in ["O'Neil", "''", "<@Drug>", "{results}", "Ünï日本", ""].iter().enumerate()
    {
        let rows = kb.execute(&plan, &[Value::text(*name), Value::text("")]).expect("execute");
        assert_eq!(rows.rows.len(), 1, "{name:?} (case {id})");
    }
}

/// Every execution of a plan shares the plan's column names instead of
/// copying them, and its rows and columns still equal the scan twin's.
#[test]
fn executions_of_one_plan_share_its_column_names() {
    let indexed = adversarial_kb();
    let mut scan = indexed.clone();
    scan.set_index_enabled(false);
    for sql in &TEMPLATES[..4] {
        let plan = indexed.prepare_with(sql, &MARKERS).expect("prepare");
        let twin = scan.prepare_with(sql, &MARKERS).expect("prepare the twin");
        let mut first: Option<obcs_kb::ResultSet> = None;
        for name in ["Drug1x0", "O'Neil", "precaution 3"] {
            let params = [Value::text(name), Value::text("precaution 3")];
            let rs = indexed.execute(&plan, &params).expect("execute");
            assert_eq!(Ok(&rs), scan.execute(&twin, &params).as_ref(), "{sql} with {name:?}");
            assert_eq!(*rs.columns, plan.columns(), "{sql}");
            let first = first.get_or_insert_with(|| rs.clone());
            assert!(std::sync::Arc::ptr_eq(&first.columns, &rs.columns), "{sql} with {name:?}");
        }
    }
}
