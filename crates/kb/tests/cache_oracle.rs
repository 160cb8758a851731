//! Property-based equivalence of the cached query path against a
//! cache-disabled oracle (DESIGN.md §12): over arbitrary sequences of
//! inserts interleaved with queries, a KB answering through its result
//! cache must return byte-identical results — including errors — to a
//! KB with caching off. Each query runs twice against the cached KB so
//! the second execution exercises the hit path.

use obcs_kb::schema::{ColumnType, TableSchema};
use obcs_kb::{KnowledgeBase, Value};
use proptest::prelude::*;

/// The fixed drug/precautions schema every generated sequence runs over.
fn fresh_kb() -> KnowledgeBase {
    let mut kb = KnowledgeBase::new();
    kb.create_table(
        TableSchema::new("drug")
            .column("drug_id", ColumnType::Int)
            .column("name", ColumnType::Text)
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

/// The query shapes the sequences draw from: single-table scans with
/// every comparison family, joins, a self-join with colliding projected
/// names, DISTINCT/ORDER BY/LIMIT, and LIKE/CONTAINS.
const QUERIES: &[&str] = &[
    "SELECT name FROM drug",
    "SELECT name FROM drug WHERE drug_id >= 3",
    "SELECT name FROM drug WHERE name LIKE 'D%'",
    "SELECT name FROM drug WHERE name CONTAINS 'rug'",
    "SELECT DISTINCT name FROM drug ORDER BY name DESC LIMIT 4",
    "SELECT p.description FROM precautions p \
     INNER JOIN drug d ON p.drug_id = d.drug_id WHERE d.drug_id <= 5",
    "SELECT a.name, b.name FROM drug a INNER JOIN drug b ON a.drug_id = b.drug_id",
    "SELECT d.name, p.description FROM drug d \
     INNER JOIN precautions p ON d.drug_id = p.drug_id ORDER BY name ASC",
    // Error shapes: unknown column / ambiguous column — never cached,
    // and the oracle must agree on the error value too.
    "SELECT nope FROM drug",
    "SELECT drug_id FROM precautions INNER JOIN drug ON precautions.drug_id = drug.drug_id",
];

/// One step of a generated sequence.
#[derive(Debug, Clone)]
enum Op {
    /// Insert a drug row (id, name-suffix); duplicates of an existing PK
    /// are themselves part of the property (both KBs must reject alike).
    InsertDrug(i64, u8),
    /// Insert a precaution referencing drug `drug_id` (may violate FK).
    InsertPrecaution(i64, i64),
    /// Run `QUERIES[i % len]`.
    Query(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored proptest shim has no `prop_oneof!`; draw a kind tag
    // plus every operand and map to the variant.
    (0usize..4, 0i64..24, 0i64..14, 0u8..4).prop_map(|(kind, id, drug, suffix)| match kind {
        0 => Op::InsertDrug(id % 12, suffix),
        1 => Op::InsertPrecaution(id, drug),
        _ => Op::Query(id as usize),
    })
}

fn apply_insert(kb: &mut KnowledgeBase, op: &Op) -> Result<(), obcs_kb::KbError> {
    match op {
        Op::InsertDrug(id, suffix) => {
            kb.insert("drug", vec![Value::Int(*id), Value::text(format!("Drug{id}x{suffix}"))])
        }
        Op::InsertPrecaution(id, drug) => kb.insert(
            "precautions",
            vec![Value::Int(*id), Value::Int(*drug), Value::text(format!("precaution {id}"))],
        ),
        Op::Query(_) => unreachable!("queries are not inserts"),
    }
}

proptest! {
    /// Cached execution is observationally identical to the oracle over
    /// any interleaving of mutations and queries.
    #[test]
    fn cached_queries_match_cache_disabled_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let mut cached = fresh_kb();
        let mut oracle = fresh_kb();
        oracle.set_cache_enabled(false);
        prop_assert!(cached.cache_enabled());

        for op in &ops {
            match op {
                Op::Query(i) => {
                    let sql = QUERIES[i % QUERIES.len()];
                    let expected = oracle.query(sql);
                    // Twice: first may fill the caches, second must hit.
                    prop_assert_eq!(&cached.query(sql), &expected, "cold divergence on {}", sql);
                    prop_assert_eq!(&cached.query(sql), &expected, "warm divergence on {}", sql);
                }
                insert => {
                    let a = apply_insert(&mut cached, insert);
                    let b = apply_insert(&mut oracle, insert);
                    prop_assert_eq!(a, b, "mutation outcomes diverged on {:?}", insert);
                }
            }
        }
        // The interleavings above must actually have exercised the cache.
        let stats = cached.cache_stats();
        prop_assert_eq!(oracle.cache_stats().result.lookups(), 0);
        prop_assert!(
            ops.iter().all(|o| !matches!(o, Op::Query(_))) || stats.result.hits > 0,
            "sequences with queries must produce cache hits: {:?}",
            stats
        );
    }
}
