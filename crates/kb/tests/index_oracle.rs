//! Property-based equivalence of index-backed execution against a
//! scan-only oracle (DESIGN.md §14): over arbitrary interleavings of
//! inserts, queries, index creations, and index enable/disable toggles,
//! a KB answering through its secondary indexes (and its result cache)
//! must return byte-identical results — including errors — to a
//! KB that never builds an index and executes with caching off. The
//! schema mixes an `Int` PK, a high-cardinality text column, and a
//! `Float` column that also admits `Int` values, so the dual-probe
//! (`Int`↔`Float` `sql_eq`) and saturation (≥ 2^53) paths are all
//! exercised mid-stream. Mid-stream the indexed KB may also be cloned,
//! after which the twins mutate independently: each must keep matching
//! an oracle rebuilt from its own history, never from a clone.

use std::collections::BTreeSet;

use obcs_kb::schema::{ColumnType, TableSchema};
use obcs_kb::{IndexKind, KnowledgeBase, Value};
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
    kb
}

/// Query shapes covering every index-eligible path: hash point lookup,
/// ordered LIKE-prefix, equality through an ordered text index, the
/// `Int`/`Float` dual probe both ways, a join over the FK hash index,
/// an unanchored LIKE (must stay a scan), a huge-magnitude equality
/// (the index must decline and scan), and error shapes.
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
    "SELECT nope FROM drug",
];

/// The index targets the `CreateIndex` op draws from.
const INDEXES: &[(&str, &str, IndexKind)] = &[
    ("drug", "drug_id", IndexKind::Hash),
    ("drug", "name", IndexKind::Ordered),
    ("drug", "weight", IndexKind::Hash),
    ("drug", "weight", IndexKind::Ordered),
    ("precautions", "drug_id", IndexKind::Hash),
    ("precautions", "description", IndexKind::Ordered),
];

#[derive(Debug, Clone)]
enum Op {
    /// Insert a drug row; the selector picks the weight's type so the
    /// Float column holds a mix of `Int`, `Float`, NULL, and huge keys.
    InsertDrug(i64, u8, u8),
    /// Insert a precaution referencing drug `drug_id` (may violate FK).
    InsertPrecaution(i64, i64),
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
        // Beyond 2^53: saturates ordered indexes, declines hash probes.
        _ => Value::Int((1i64 << 53) + id),
    }
}

/// An op plus the selector of the twin it lands on.
fn op_strategy() -> impl Strategy<Value = (usize, Op)> {
    (0usize..9, 0i64..24, 0i64..14, 0u8..8, 0usize..MAX_TWINS).prop_map(
        |(kind, id, drug, sel, twin)| {
            let op = match kind {
                0 | 1 => Op::InsertDrug(id % 12, sel % 4, sel),
                2 => Op::InsertPrecaution(id, drug),
                3 => Op::CreateIndex(id as usize % INDEXES.len()),
                4 => Op::SetIndexes(sel % 2 == 0),
                5 => Op::Fork,
                _ => Op::Query(id as usize),
            };
            (twin, op)
        },
    )
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
            vec![Value::Int(*id), Value::Int(*drug), Value::text(format!("precaution {id}"))],
        ),
        _ => unreachable!("only insert ops reach apply_insert"),
    }
}

/// Most twins one case may fork into.
const MAX_TWINS: usize = 4;

/// One line of descent: the indexed (and cached) KB, the inserts it has
/// seen, the index targets it has built, and its scan-only oracle.
struct Twin {
    indexed: KnowledgeBase,
    inserts: Vec<Op>,
    indexes: BTreeSet<usize>,
    oracle: KnowledgeBase,
}

/// A scan-only, cache-free KB built from `inserts` alone — never cloned,
/// so it shares storage with nothing.
fn oracle_of(inserts: &[Op]) -> KnowledgeBase {
    let mut oracle = fresh_kb();
    oracle.set_cache_enabled(false);
    oracle.set_index_enabled(false);
    for op in inserts {
        let _ = apply_insert(&mut oracle, op);
    }
    oracle
}

proptest! {
    /// Indexed (and cached) execution is observationally identical to a
    /// scan-only, cache-free oracle over any interleaving of mutations,
    /// queries, index creations, index toggles, and clones that go on
    /// mutating independently.
    #[test]
    fn indexed_queries_match_scan_only_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..50),
    ) {
        let mut twins = vec![Twin {
            indexed: fresh_kb(),
            inserts: Vec::new(),
            indexes: BTreeSet::new(),
            oracle: oracle_of(&[]),
        }];
        prop_assert!(twins[0].indexed.index_enabled());

        for (sel, op) in &ops {
            let at = sel % twins.len();
            match op {
                Op::Query(i) => {
                    let sql = QUERIES[i % QUERIES.len()];
                    // Every twin, so a sibling's mutation that leaked
                    // into shared storage shows up here.
                    for (n, twin) in twins.iter().enumerate() {
                        let expected = twin.oracle.query(sql);
                        // Twice: the second run exercises the cache-hit
                        // path on top of the index-backed plan.
                        prop_assert_eq!(
                            &twin.indexed.query(sql), &expected, "twin {} cold on {}", n, sql
                        );
                        prop_assert_eq!(
                            &twin.indexed.query(sql), &expected, "twin {} warm on {}", n, sql
                        );
                    }
                }
                Op::CreateIndex(i) => {
                    let i = i % INDEXES.len();
                    let (table, column, kind) = INDEXES[i];
                    let twin = &mut twins[at];
                    let created =
                        twin.indexed.create_index(table, column, kind).expect("valid index target");
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
/// KB — the default join-key policy plus explicit ordered indexes for
/// the prefix and ordered-equality shapes — agrees with its scan twin on
/// every query shape above.
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
        indexed
            .insert(
                "precautions",
                vec![Value::Int(id), Value::Int(id % 12), Value::text(format!("precaution {id}"))],
            )
            .expect("insert");
    }
    let mut scan = indexed.clone();
    scan.set_index_enabled(false);
    scan.set_cache_enabled(false);
    assert!(indexed.auto_index() > 0);
    for (table, column) in [("drug", "name"), ("drug", "weight"), ("precautions", "description")] {
        assert!(indexed.create_index(table, column, IndexKind::Ordered).expect("index"));
    }
    assert_eq!(
        indexed
            .prepare("SELECT name FROM drug WHERE name LIKE 'Drug1%'")
            .expect("plan")
            .access_label(),
        "index_prefix"
    );
    for sql in QUERIES {
        assert_eq!(indexed.query(sql), scan.query(sql), "divergence on {sql}");
    }
}
