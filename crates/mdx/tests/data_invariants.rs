//! Invariant tests over the synthetic MDX knowledge base: the shape
//! properties the bootstrapper and evaluation rely on must hold at every
//! scale and seed.

use obcs_kb::Value;
use obcs_mdx::assemble::ConversationalMdx;
use obcs_mdx::data::{build_mdx_kb, MdxDataConfig, CONDITIONS, CURATED_DRUGS};
use obcs_mdx::ontology::build_mdx_ontology;
use obcs_nlq::OntologyMapping;

/// Every template filters a key concept by name on a joined table, and
/// the default index policy hashes that name column and every join key,
/// so each instantiated template's plan starts from an index probe and
/// walks the joins back to its FROM table (DESIGN.md §14.1).
#[test]
fn every_template_plan_starts_from_an_index() {
    let (_, kb, mapping, space) = ConversationalMdx::bootstrap_space(MdxDataConfig::default());
    let mut scan = kb.clone();
    scan.set_index_enabled(false);
    let mut checked = 0;
    for labeled in space.templates.iter().flat_map(|t| &t.templates) {
        let values: Vec<(_, String)> = labeled
            .template
            .required_concepts()
            .into_iter()
            .map(|c| {
                let (table, label) =
                    (mapping.table(c).expect("table"), mapping.label(c).expect("label"));
                let first = kb.distinct_values(table, label).expect("label column").remove(0);
                (c, first.as_text().expect("text label").to_string())
            })
            .collect();
        let sql = labeled.template.instantiate(&values).expect("instantiate");
        let plan = kb.prepare(&sql).expect("bind");
        assert_eq!(plan.access_label(), "join_probe", "{}: {sql}", labeled.topic);
        assert_eq!(kb.query(&sql), scan.query(&sql), "{}: {sql}", labeled.topic);
        checked += 1;
    }
    assert_eq!(checked, 27, "every MDX template");
}

#[test]
fn every_concept_with_instances_has_a_table() {
    let onto = build_mdx_ontology();
    let kb = build_mdx_kb(MdxDataConfig { drugs: 70, seed: 3 });
    let mapping = OntologyMapping::infer(&onto, &kb);
    let mut unmapped = Vec::new();
    for c in onto.concepts() {
        if mapping.table(c.id).is_none() {
            unmapped.push(c.name.clone());
        }
    }
    assert!(unmapped.is_empty(), "concepts without tables: {unmapped:?}");
}

#[test]
fn every_ontology_relationship_has_a_join() {
    let onto = build_mdx_ontology();
    let kb = build_mdx_kb(MdxDataConfig { drugs: 70, seed: 3 });
    let mapping = OntologyMapping::infer(&onto, &kb);
    let mut unjoined = Vec::new();
    for op in onto.object_properties() {
        if mapping.join(op.id).is_none() {
            unjoined.push(format!(
                "{} -[{}]-> {}",
                onto.concept_name(op.source),
                op.name,
                onto.concept_name(op.target)
            ));
        }
    }
    assert!(unjoined.is_empty(), "relationships without joins: {unjoined:?}");
}

#[test]
fn scales_and_seeds_vary_but_curated_content_is_stable() {
    for (drugs, seed) in [(64usize, 1u64), (100, 2), (150, 3)] {
        let kb = build_mdx_kb(MdxDataConfig { drugs, seed });
        assert_eq!(kb.table("drug").unwrap().len(), drugs);
        // Curated drugs always occupy the first rows in curated order.
        for (i, (name, ..)) in CURATED_DRUGS.iter().take(drugs).enumerate() {
            let row = kb
                .table("drug")
                .unwrap()
                .row_by_pk(&Value::Int(i as i64))
                .expect("curated drug present");
            assert_eq!(row[1], Value::text(*name));
        }
        assert_eq!(kb.table("condition").unwrap().len(), CONDITIONS.len());
    }
}

#[test]
fn dosage_rows_reference_only_treated_conditions_or_pins() {
    let kb = build_mdx_kb(MdxDataConfig { drugs: 70, seed: 5 });
    let treats: std::collections::HashSet<(i64, i64)> = kb
        .table("treats")
        .unwrap()
        .rows
        .iter()
        .map(|r| (r[1].as_int().unwrap(), r[2].as_int().unwrap()))
        .collect();
    for row in &kb.table("dosage").unwrap().rows {
        let pair = (row[1].as_int().unwrap(), row[2].as_int().unwrap());
        assert!(
            treats.contains(&pair),
            "dosage row for a (drug, condition) pair the drug does not treat: {pair:?}"
        );
    }
}

#[test]
fn every_drug_has_full_reference_coverage() {
    // The content sets a clinician expects for every monograph must be
    // present for every drug (min-1 generation policy).
    let kb = build_mdx_kb(MdxDataConfig { drugs: 70, seed: 9 });
    let n = kb.table("drug").unwrap().len();
    for table in [
        "administration",
        "mechanism_of_action",
        "pharmacokinetics",
        "regulatory_status",
        "use",
        "adverse_effect",
        "precaution",
        "dose_adjustment",
        "iv_compatibility",
        "monitoring",
        "toxicology",
        "drug_interaction",
        "risk",
    ] {
        let t = kb.table(table).unwrap();
        let covered: std::collections::HashSet<i64> =
            t.rows.iter().map(|r| r[1].as_int().expect("drug_id column")).collect();
        assert_eq!(covered.len(), n, "table `{table}` does not cover every drug");
    }
}

#[test]
fn pk_as_fk_children_are_subsets_of_parents() {
    let kb = build_mdx_kb(MdxDataConfig { drugs: 70, seed: 11 });
    for (parent, children) in [
        ("risk", vec!["contra_indication", "black_box_warning"]),
        (
            "drug_interaction",
            vec!["drug_drug_interaction", "drug_food_interaction", "drug_lab_interaction"],
        ),
    ] {
        let parent_keys: std::collections::HashSet<i64> =
            kb.table(parent).unwrap().rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        let mut child_total = 0;
        for child in children {
            let t = kb.table(child).unwrap();
            child_total += t.len();
            for row in &t.rows {
                assert!(
                    parent_keys.contains(&row[0].as_int().unwrap()),
                    "{child} row outside {parent}"
                );
            }
        }
        assert_eq!(child_total, parent_keys.len(), "{parent} children partition it");
    }
}

#[test]
fn generated_drug_names_are_unique_and_capitalised() {
    let kb = build_mdx_kb(MdxDataConfig { drugs: 150, seed: 13 });
    let names: Vec<String> =
        kb.table("drug").unwrap().rows.iter().map(|r| r[1].to_string()).collect();
    let mut deduped = names.clone();
    deduped.sort();
    deduped.dedup();
    assert_eq!(deduped.len(), names.len(), "duplicate drug names");
    for n in &names {
        assert!(n.chars().next().unwrap().is_uppercase(), "drug name not capitalised: {n}");
    }
}
