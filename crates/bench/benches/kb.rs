//! Knowledge-base engine benches: SQL parsing, single-table filters, hash
//! joins (direct FK and M:N bridge), the statistics the bootstrapper
//! relies on, and the secondary-index hot paths (point lookup, FK join)
//! against a scan-only twin at small and large world sizes.

use criterion::{criterion_group, criterion_main, Criterion};
use obcs_bench::World;
use obcs_kb::sql::parser::parse;
use obcs_kb::stats::{column_stats, table_is_categorical, CategoricalPolicy};
use obcs_kb::KnowledgeBase;
use obcs_mdx::data::{build_mdx_kb, MdxDataConfig};
use std::hint::black_box;

fn bench_kb(c: &mut Criterion) {
    let world = World::full(7);
    let kb = &world.kb;

    let mut group = c.benchmark_group("kb");
    group.bench_function("parse_join_query", |b| {
        b.iter(|| {
            black_box(parse(
                "SELECT p.description FROM precaution p \
                 INNER JOIN drug d ON p.drug_id = d.drug_id WHERE d.name = 'Aspirin'",
            ))
        })
    });
    group.bench_function("point_filter", |b| {
        b.iter(|| black_box(kb.query("SELECT name FROM drug WHERE name = 'Aspirin'")))
    });
    group.bench_function("fk_join", |b| {
        b.iter(|| {
            black_box(kb.query(
                "SELECT p.description FROM precaution p \
                 INNER JOIN drug d ON p.drug_id = d.drug_id WHERE d.name = 'Aspirin'",
            ))
        })
    });
    group.bench_function("bridge_join_two_hops", |b| {
        b.iter(|| {
            black_box(kb.query(
                "SELECT DISTINCT g.name FROM drug g \
                 INNER JOIN treats t ON g.drug_id = t.drug_id \
                 INNER JOIN condition c ON t.condition_id = c.condition_id \
                 WHERE c.name = 'Psoriasis'",
            ))
        })
    });
    group.bench_function("five_way_join", |b| {
        b.iter(|| {
            black_box(kb.query(
                "SELECT d.description FROM dosage d \
                 INNER JOIN drug g ON d.drug_id = g.drug_id \
                 INNER JOIN condition c ON d.condition_id = c.condition_id \
                 INNER JOIN age_group a ON d.age_group_id = a.age_group_id \
                 INNER JOIN frequency f ON d.frequency_id = f.frequency_id \
                 WHERE g.name = 'Tazarotene' AND c.name = 'Psoriasis' AND a.name = 'pediatric'",
            ))
        })
    });
    group.bench_function("distinct_order_limit", |b| {
        b.iter(|| black_box(kb.query("SELECT DISTINCT name FROM drug ORDER BY name DESC LIMIT 10")))
    });
    group.bench_function("column_stats", |b| {
        b.iter(|| black_box(column_stats(kb, "dosage", "description")))
    });
    group.bench_function("categorical_detection", |b| {
        b.iter(|| black_box(table_is_categorical(kb, "age_group", CategoricalPolicy::default())))
    });
    group.finish();
}

/// The auto-indexed KB and its scan-only twin; every iteration pays
/// parse + bind + execute.
fn twins(drugs: usize) -> (KnowledgeBase, KnowledgeBase) {
    let indexed = build_mdx_kb(MdxDataConfig { drugs, seed: 7 });
    let mut scan = indexed.clone();
    scan.set_index_enabled(false);
    (indexed, scan)
}

/// Indexed execution vs the scan twin on the two index-accelerated
/// hot paths, at the paper-scale world and the 15k-drug large world
/// (the same curve `repro scale` commits to `BENCH_perf.json`).
fn bench_kb_index(c: &mut Criterion) {
    for drugs in [150usize, 15_000] {
        let (indexed, scan) = twins(drugs);
        let n = drugs as i64;
        let point = format!("SELECT name FROM drug WHERE drug_id = {}", (n * 37 + 11) % n);
        let join = format!(
            "SELECT a.effect FROM drug d \
             INNER JOIN adverse_effect a ON a.drug_id = d.drug_id \
             WHERE d.drug_id = {}",
            (n * 53 + 7) % n
        );

        let mut group = c.benchmark_group(format!("kb_index_{drugs}"));
        for (label, kb) in [("indexed", &indexed), ("scan", &scan)] {
            group.bench_function(format!("point_lookup_{label}"), |b| {
                b.iter(|| black_box(kb.query(&point)))
            });
            group.bench_function(format!("fk_join_{label}"), |b| {
                b.iter(|| black_box(kb.query(&join)))
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_kb, bench_kb_index);
criterion_main!(benches);
