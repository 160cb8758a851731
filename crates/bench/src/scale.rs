//! The "large world" scaling harness behind `repro scale` (DESIGN.md
//! §14): a latency-vs-KB-size curve for the two index-accelerated KB
//! hot paths — point lookup and FK join — and for the three shapes the
//! served templates run — one hop (dosage by drug name), a bridge
//! (black-box warning via risk) and the condition-driven drug list with
//! an age group — measured at 150 / 1.5k / 15k drugs on the
//! deterministic MDX generator. Each stage runs the identical query
//! batch against the auto-indexed KB and a scan-only twin
//! (`set_index_enabled(false)`), and the results are asserted
//! byte-identical before any timing counts. The stages join the `repro
//! perf` report, so the curve is committed to `BENCH_perf.json` with
//! enforced `min_speedup` floors at the 15k point.

use std::hint::black_box;
use std::time::Instant;

use obcs_kb::{KnowledgeBase, Value};
use obcs_mdx::data::{build_mdx_kb, MdxDataConfig};

use crate::perf::{Comparison, PerfOptions, Timing};

/// The KB sizes (in drugs — total rows scale ~40×) the curve samples.
pub const SCALE_SIZES: [usize; 3] = [150, 1_500, 15_000];

/// Committed floor at the 15k point: an indexed point lookup must beat
/// the full scan by at least this factor (ISSUE 7 acceptance).
pub const POINT_LOOKUP_FLOOR_15K: f64 = 10.0;
/// Committed floor for the FK join at 15k: probing the persistent hash
/// index must beat rebuilding the per-query join map.
pub const FK_JOIN_FLOOR_15K: f64 = 5.0;
/// Committed floor at 15k for the served one-hop shape: a join probe
/// on `drug.name` must beat scanning the dosage table.
pub const SERVED_ONE_HOP_FLOOR_15K: f64 = 100.0;
/// Committed floor at 15k for the served bridge shape (two hops back
/// to the FROM table).
pub const SERVED_BRIDGE_FLOOR_15K: f64 = 100.0;
/// Committed floor at 15k for the condition-driven drug list: its probe
/// still fans out to every drug treating the condition.
pub const SERVED_CONDITION_FLOOR_15K: f64 = 3.0;

/// What one size-point of the curve measured.
pub struct ScaleOutcome {
    pub timings: Vec<Timing>,
    pub comparisons: Vec<Comparison>,
}

/// How many queries one timed batch executes.
const BATCH: usize = 40;

/// `v` as a SQL string literal.
fn quoted(v: &Value) -> String {
    format!("'{}'", v.as_text().expect("text label").replace('\'', "''"))
}

/// `BATCH` values of `table.column`'s distinct values, strided so a
/// batch spreads over the whole table.
fn strided(kb: &KnowledgeBase, table: &str, column: &str) -> Vec<String> {
    let values = kb.distinct_values(table, column).expect("label column");
    (0..BATCH).map(|i| quoted(&values[(i * 37 + 11) % values.len()])).collect()
}

fn batch_ms(reps: usize, kb: &KnowledgeBase, queries: &[String]) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        for sql in queries {
            black_box(kb.query(sql).expect("scale query executes"));
        }
        best = best.min(t.elapsed().as_secs_f64() * 1000.0);
    }
    best
}

/// One comparison stage: identical batch on the indexed KB vs the scan
/// twin, after asserting result equality query by query.
fn stage(
    name: String,
    work: String,
    reps: usize,
    indexed: &KnowledgeBase,
    scan: &KnowledgeBase,
    queries: &[String],
    min_speedup: Option<f64>,
) -> Comparison {
    for sql in queries {
        assert_eq!(
            indexed.query(sql),
            scan.query(sql),
            "indexed execution diverged from scan on {sql:?}"
        );
    }
    let before_ms = batch_ms(reps, scan, queries);
    let after_ms = batch_ms(reps, indexed, queries);
    let speedup = if after_ms > 0.0 { before_ms / after_ms } else { f64::INFINITY };
    Comparison { name, work, before_ms, after_ms, speedup, min_speedup }
}

/// Runs the scaling curve. The sizes are fixed (the curve *is* the
/// deliverable); `quick` only lowers the repetition count.
pub fn run(opts: &PerfOptions) -> ScaleOutcome {
    let reps = if opts.quick { 3 } else { 5 };
    let mut timings = Vec::new();
    let mut comparisons = Vec::new();

    for drugs in SCALE_SIZES {
        let t = Instant::now();
        let indexed = build_mdx_kb(MdxDataConfig { drugs, seed: opts.seed });
        let build_ms = t.elapsed().as_secs_f64() * 1000.0;
        let total_rows: usize =
            indexed.table_names().iter().map(|n| indexed.table(n).expect("own table").len()).sum();
        timings.push(Timing {
            name: format!("scale_build_{drugs}"),
            work: format!("{total_rows} rows, {} indexes", indexed.index_count()),
            ms: build_ms,
        });

        // The scan twin: same rows, indexes routed off. Every timed
        // query pays parse + bind + execute.
        let mut scan = indexed.clone();
        scan.set_index_enabled(false);

        let n = drugs as i64;
        let floor = |f: f64| (drugs == 15_000).then_some(f);

        // Point lookup: PK equality through the hash index.
        let queries: Vec<String> = (0..BATCH)
            .map(|i| format!("SELECT name FROM drug WHERE drug_id = {}", (i as i64 * 37 + 11) % n))
            .collect();
        comparisons.push(stage(
            format!("scale_point_lookup_{drugs}"),
            format!("{BATCH} lookups, {drugs}-drug world"),
            reps,
            &indexed,
            &scan,
            &queries,
            floor(POINT_LOOKUP_FLOOR_15K),
        ));

        // FK join: a point-filtered drug joined to its adverse effects —
        // the FROM side goes through the PK hash index, the join side
        // probes the persistent FK hash index instead of rebuilding a
        // per-query map over the (large) child table.
        let queries: Vec<String> = (0..BATCH)
            .map(|i| {
                format!(
                    "SELECT a.effect FROM drug d \
                     INNER JOIN adverse_effect a ON a.drug_id = d.drug_id \
                     WHERE d.drug_id = {}",
                    (i as i64 * 53 + 7) % n
                )
            })
            .collect();
        comparisons.push(stage(
            format!("scale_fk_join_{drugs}"),
            format!("{BATCH} joins, {drugs}-drug world"),
            reps,
            &indexed,
            &scan,
            &queries,
            floor(FK_JOIN_FLOOR_15K),
        ));

        // The served shapes, as the MDX templates write them: the
        // key-concept filter sits on a joined table, so the indexed side
        // binds a join probe (DESIGN.md §14.1).
        let drug_names = strided(&indexed, "drug", "name");
        let one_hop: Vec<String> = drug_names
            .iter()
            .map(|name| {
                format!(
                    "SELECT DISTINCT oDosage.description, oDosage.amount, oDosage.regimen, \
                     oDosage.note FROM dosage oDosage \
                     INNER JOIN drug oDrug ON oDosage.drug_id = oDrug.drug_id \
                     WHERE oDrug.name = {name}"
                )
            })
            .collect();
        let bridge: Vec<String> = drug_names
            .iter()
            .map(|name| {
                format!(
                    "SELECT DISTINCT oBlackBoxWarning.description, oBlackBoxWarning.boxed_text, \
                     oBlackBoxWarning.note FROM black_box_warning oBlackBoxWarning \
                     INNER JOIN risk oRisk ON oBlackBoxWarning.risk_id = oRisk.risk_id \
                     INNER JOIN drug oDrug ON oRisk.drug_id = oDrug.drug_id \
                     WHERE oDrug.name = {name}"
                )
            })
            .collect();
        let age_groups = strided(&indexed, "age_group", "name");
        let condition: Vec<String> = strided(&indexed, "condition", "name")
            .iter()
            .zip(&age_groups)
            .map(|(condition, age_group)| {
                format!(
                    "SELECT DISTINCT oDrug.name FROM drug oDrug \
                     INNER JOIN treats b1 ON oDrug.drug_id = b1.drug_id \
                     INNER JOIN condition oCondition ON b1.condition_id = oCondition.condition_id \
                     INNER JOIN dosage oDosage ON oDrug.drug_id = oDosage.drug_id \
                     INNER JOIN age_group oAgeGroup ON oDosage.age_group_id = oAgeGroup.age_group_id \
                     WHERE oCondition.name = {condition} AND oAgeGroup.name = {age_group}"
                )
            })
            .collect();
        for (kind, queries, what, min_speedup) in [
            ("one_hop", one_hop, "dosage-by-drug", SERVED_ONE_HOP_FLOOR_15K),
            ("bridge", bridge, "black-box-via-risk", SERVED_BRIDGE_FLOOR_15K),
            ("condition", condition, "drugs-for-condition", SERVED_CONDITION_FLOOR_15K),
        ] {
            assert_eq!(
                indexed.prepare(&queries[0]).expect("served shape binds").access_label(),
                "join_probe",
                "the served {kind} shape must start from an index"
            );
            comparisons.push(stage(
                format!("scale_served_{kind}_{drugs}"),
                format!("{BATCH} {what} queries, {drugs}-drug world"),
                reps,
                &indexed,
                &scan,
                &queries,
                floor(min_speedup),
            ));
        }
    }

    ScaleOutcome { timings, comparisons }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_stage_names_cover_the_curve() {
        // The committed baseline keys stages by these names; keep the
        // cross-product stable.
        for drugs in SCALE_SIZES {
            for kind in
                ["point_lookup", "fk_join", "served_one_hop", "served_bridge", "served_condition"]
            {
                let name = format!("scale_{kind}_{drugs}");
                assert!(name.starts_with("scale_"));
            }
        }
    }

    #[test]
    fn smallest_size_point_measures_and_matches() {
        // A truncated run (just the 150-drug point) exercises the whole
        // stage machinery — equality assertions included — in test time.
        let opts = PerfOptions { quick: true, seed: 7 };
        let indexed = build_mdx_kb(MdxDataConfig { drugs: SCALE_SIZES[0], seed: opts.seed });
        let mut scan = indexed.clone();
        scan.set_index_enabled(false);
        let queries = vec![
            "SELECT name FROM drug WHERE drug_id = 3".to_string(),
            "SELECT drug_id FROM drug WHERE name LIKE 'Cardio%'".to_string(),
        ];
        let c = stage("scale_smoke".into(), "2 queries".into(), 1, &indexed, &scan, &queries, None);
        assert!(c.before_ms >= 0.0 && c.after_ms >= 0.0);
    }
}
