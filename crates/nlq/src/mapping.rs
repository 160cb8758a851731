//! Ontology-to-schema mapping: how concepts, properties and relationships
//! of the domain ontology bind to tables, columns and joins of the KB.

use std::collections::HashMap;

use obcs_kb::schema::is_name_column;
use obcs_kb::KnowledgeBase;
use obcs_ontology::{ConceptId, ObjectPropertyId, Ontology};
use serde::{Deserialize, Serialize};

/// A single equi-join step: `left_table.left_column =
/// right_table.right_column`, where the right table is the one newly
/// brought into scope when traversing the step left-to-right.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinEdge {
    pub left_table: String,
    pub left_column: String,
    pub right_table: String,
    pub right_column: String,
}

impl JoinEdge {
    /// The step traversed in the opposite direction.
    pub fn reversed(&self) -> JoinEdge {
        JoinEdge {
            left_table: self.right_table.clone(),
            left_column: self.right_column.clone(),
            right_table: self.left_table.clone(),
            right_column: self.left_column.clone(),
        }
    }
}

/// The physical realisation of one ontology object property: a sequence of
/// join steps from the property's source table to its target table. One
/// step for a plain foreign key; two steps when the relationship is
/// realised by an M:N bridge table (e.g. `drug —treats→ indication` via a
/// `treats(drug_id, indication_id)` table).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinPath {
    pub steps: Vec<JoinEdge>,
}

impl JoinPath {
    pub fn direct(edge: JoinEdge) -> Self {
        JoinPath { steps: vec![edge] }
    }

    /// The path traversed target-to-source.
    pub fn reversed(&self) -> JoinPath {
        JoinPath { steps: self.steps.iter().rev().map(JoinEdge::reversed).collect() }
    }
}

/// The binding of a domain ontology to a physical schema.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OntologyMapping {
    /// Concept → table name.
    table_of: HashMap<ConceptId, String>,
    /// Concept → the text column instances are referred to by (e.g.
    /// `drug.name`).
    label_column: HashMap<ConceptId, String>,
    /// Object property → join realisation.
    join_of: HashMap<ObjectPropertyId, JoinPath>,
}

impl OntologyMapping {
    /// Infers the mapping by convention: concept `DrugFoodInteraction` ↔
    /// table `drug_food_interaction`; the label column is the table's
    /// [`TableSchema::label_column`](obcs_kb::schema::TableSchema::label_column)
    /// (its `name` text column, else its first text column); each non-hierarchy
    /// object property binds to a foreign key between the two tables
    /// (looked up in either direction, preferring an FK column whose name
    /// resembles the relationship).
    ///
    /// Concepts without a matching table (abstract concepts such as union
    /// parents) are left unmapped and resolved through their members at
    /// query time.
    pub fn infer(onto: &Ontology, kb: &KnowledgeBase) -> Self {
        let mut m = OntologyMapping::default();
        for c in onto.concepts() {
            let table = snake_case(&c.name);
            if !kb.has_table(&table) {
                continue;
            }
            if let Some(col) = kb.table(&table).ok().and_then(|t| t.schema.label_column()) {
                m.label_column.insert(c.id, col.to_string());
            }
            m.table_of.insert(c.id, table);
        }
        for op in onto.object_properties() {
            let (Some(src), Some(tgt)) = (m.table_of.get(&op.source), m.table_of.get(&op.target))
            else {
                continue;
            };
            // Hierarchical edges (isA/unionOf) are physically realised by
            // shared-primary-key joins (child PK = FK to parent PK), which
            // `find_join` discovers like any other FK.
            if let Some(edge) = find_join(kb, src, tgt, &op.name) {
                m.join_of.insert(op.id, edge);
            }
        }
        m
    }

    /// Overrides or sets the table for a concept.
    pub fn set_table(&mut self, concept: ConceptId, table: impl Into<String>) {
        self.table_of.insert(concept, table.into());
    }

    /// Overrides or sets the label column for a concept.
    pub fn set_label_column(&mut self, concept: ConceptId, column: impl Into<String>) {
        self.label_column.insert(concept, column.into());
    }

    /// Overrides or sets the join for an object property.
    pub fn set_join(&mut self, prop: ObjectPropertyId, path: JoinPath) {
        self.join_of.insert(prop, path);
    }

    pub fn table(&self, concept: ConceptId) -> Option<&str> {
        self.table_of.get(&concept).map(String::as_str)
    }

    pub fn label(&self, concept: ConceptId) -> Option<&str> {
        self.label_column.get(&concept).map(String::as_str)
    }

    pub fn join(&self, prop: ObjectPropertyId) -> Option<&JoinPath> {
        self.join_of.get(&prop)
    }

    /// Whether a concept's instances carry a proper *name* — a label
    /// column literally called `name`, `title`, or `label`
    /// ([`is_name_column`], the rule `obcs-kb`'s index policy shares). The paper's
    /// key concepts are entities users refer to by name; dependent
    /// concepts typically only have free-text descriptions.
    pub fn is_nameable(&self, concept: ConceptId) -> bool {
        self.label(concept).is_some_and(is_name_column)
    }

    /// Concepts that have both a table and a label column — i.e. whose
    /// instances can be referenced by name in utterances.
    pub fn nameable_concepts(&self) -> Vec<ConceptId> {
        let mut out: Vec<ConceptId> =
            self.table_of.keys().filter(|c| self.label_column.contains_key(c)).copied().collect();
        out.sort();
        out
    }
}

/// `DrugFoodInteraction` → `drug_food_interaction`.
pub fn snake_case(camel: &str) -> String {
    let mut out = String::with_capacity(camel.len() + 4);
    for ch in camel.chars() {
        if ch.is_uppercase() {
            if !out.is_empty() && !out.ends_with('_') {
                out.push('_');
            }
            out.extend(ch.to_lowercase());
        } else if ch == ' ' {
            if !out.ends_with('_') {
                out.push('_');
            }
        } else {
            out.push(ch);
        }
    }
    out
}

/// How strongly an FK column name matches a (snake-cased) relationship
/// name: exact match (ignoring a trailing `_id`) ranks above the length of
/// the shared suffix, so `drug_class_id` wins `drug_id` for relationship
/// `drug_class` — and loses it for `drug`.
fn fk_affinity(column: &str, rel_snake: &str) -> (bool, usize) {
    let lower = column.to_lowercase();
    let base = lower.strip_suffix("_id").unwrap_or(&lower);
    let common_suffix =
        base.chars().rev().zip(rel_snake.chars().rev()).take_while(|(a, b)| a == b).count();
    (base == rel_snake, common_suffix)
}

fn find_join(kb: &KnowledgeBase, src: &str, tgt: &str, rel_name: &str) -> Option<JoinPath> {
    // A foreign key held by `from` that references `to`, as a join step
    // stated left-to-right from `to`'s perspective when needed.
    let fk_between = |from: &str, to: &str| -> Option<JoinEdge> {
        let t = kb.table(from).ok()?;
        let fks: Vec<_> =
            t.schema.foreign_keys.iter().filter(|fk| fk.references_table == to).collect();
        let chosen = if fks.len() > 1 {
            // Pick the FK whose column name best matches the relationship:
            // exact (modulo `_id`) beats longest common suffix beats
            // nothing, with a deterministic tie-break. A bare substring
            // test bound the wrong key when names overlap (`drug_id`
            // shadowing `drug_class_id` and vice versa).
            let rel_snake = snake_case(rel_name);
            fks.iter()
                .max_by(|a, b| {
                    fk_affinity(&a.column, &rel_snake)
                        .cmp(&fk_affinity(&b.column, &rel_snake))
                        // Prefer the shorter, then lexicographically
                        // smaller column name.
                        .then_with(|| b.column.len().cmp(&a.column.len()))
                        .then_with(|| b.column.cmp(&a.column))
                })
                .copied()
        } else {
            fks.first().copied()
        };
        chosen.map(|fk| JoinEdge {
            left_table: from.to_string(),
            left_column: fk.column.clone(),
            right_table: to.to_string(),
            right_column: fk.references_column.clone(),
        })
    };
    // Direct FK in either direction.
    if let Some(edge) = fk_between(tgt, src) {
        // tgt holds the FK: step goes src → tgt.
        return Some(JoinPath::direct(edge.reversed()));
    }
    if let Some(edge) = fk_between(src, tgt) {
        return Some(JoinPath::direct(edge));
    }
    // M:N bridge: a table named after the relationship (or `src_tgt`) with
    // FKs to both sides.
    let rel_snake = snake_case(rel_name);
    let candidates = [rel_snake.clone(), format!("{src}_{tgt}"), format!("{tgt}_{src}")];
    for bridge in candidates {
        if !kb.has_table(&bridge) || bridge == src || bridge == tgt {
            continue;
        }
        let (Some(to_src), Some(to_tgt)) = (fk_between(&bridge, src), fk_between(&bridge, tgt))
        else {
            continue;
        };
        return Some(JoinPath { steps: vec![to_src.reversed(), to_tgt] });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use obcs_kb::schema::{ColumnType, TableSchema};
    use obcs_kb::Value;
    use obcs_ontology::OntologyBuilder;

    fn fixture() -> (Ontology, KnowledgeBase) {
        let onto = OntologyBuilder::new("m")
            .data("Drug", &["name", "brand"])
            .data("Precaution", &["description"])
            .relation_with_inverse("treats", "is treated by", "Drug", "Indication")
            .relation("has", "Drug", "Precaution")
            .data("Indication", &["name"])
            .build()
            .unwrap();
        let mut kb = KnowledgeBase::new();
        kb.create_table(
            TableSchema::new("drug")
                .column("drug_id", ColumnType::Int)
                .column("name", ColumnType::Text)
                .column("brand", ColumnType::Text)
                .primary_key("drug_id"),
        )
        .unwrap();
        kb.create_table(
            TableSchema::new("indication")
                .column("indication_id", ColumnType::Int)
                .column("name", ColumnType::Text)
                .primary_key("indication_id"),
        )
        .unwrap();
        kb.create_table(
            TableSchema::new("precaution")
                .column("prec_id", ColumnType::Int)
                .column("drug_id", ColumnType::Int)
                .column("description", ColumnType::Text)
                .primary_key("prec_id")
                .foreign_key("drug_id", "drug", "drug_id"),
        )
        .unwrap();
        kb.create_table(
            TableSchema::new("treats")
                .column("treats_id", ColumnType::Int)
                .column("drug_id", ColumnType::Int)
                .column("indication_id", ColumnType::Int)
                .primary_key("treats_id")
                .foreign_key("drug_id", "drug", "drug_id")
                .foreign_key("indication_id", "indication", "indication_id"),
        )
        .unwrap();
        kb.insert("drug", vec![Value::Int(1), Value::text("Aspirin"), Value::text("Bayer")])
            .unwrap();
        (onto, kb)
    }

    #[test]
    fn snake_case_conversion() {
        assert_eq!(snake_case("Drug"), "drug");
        assert_eq!(snake_case("DrugFoodInteraction"), "drug_food_interaction");
        assert_eq!(snake_case("Black Box Warning"), "black_box_warning");
        assert_eq!(snake_case("already_snake"), "already_snake");
    }

    #[test]
    fn infer_tables_and_labels() {
        let (onto, kb) = fixture();
        let m = OntologyMapping::infer(&onto, &kb);
        let drug = onto.concept_id("Drug").unwrap();
        let prec = onto.concept_id("Precaution").unwrap();
        assert_eq!(m.table(drug), Some("drug"));
        assert_eq!(m.label(drug), Some("name"), "prefers `name` column");
        assert_eq!(m.label(prec), Some("description"), "falls back to first text column");
    }

    #[test]
    fn infer_join_from_child_fk() {
        let (onto, kb) = fixture();
        let m = OntologyMapping::infer(&onto, &kb);
        // Drug --has--> Precaution: FK lives in precaution table.
        let has = onto.object_properties().iter().find(|op| op.name == "has").unwrap();
        let path = m.join(has.id).unwrap();
        assert_eq!(path.steps.len(), 1);
        let edge = &path.steps[0];
        assert_eq!(edge.left_table, "drug");
        assert_eq!(edge.right_table, "precaution");
        assert_eq!(edge.right_column, "drug_id");
    }

    #[test]
    fn infer_join_through_bridge_table() {
        let (onto, kb) = fixture();
        let m = OntologyMapping::infer(&onto, &kb);
        // Drug --treats--> Indication realised by the `treats` bridge.
        let treats = onto.object_properties().iter().find(|op| op.name == "treats").unwrap();
        let path = m.join(treats.id).unwrap();
        assert_eq!(path.steps.len(), 2);
        assert_eq!(path.steps[0].left_table, "drug");
        assert_eq!(path.steps[0].right_table, "treats");
        assert_eq!(path.steps[1].left_table, "treats");
        assert_eq!(path.steps[1].right_table, "indication");
        // Reversal flips the walk.
        let rev = path.reversed();
        assert_eq!(rev.steps[0].left_table, "indication");
        assert_eq!(rev.steps[1].right_table, "drug");
    }

    #[test]
    fn overlapping_fk_names_bind_the_right_key() {
        // Two relationships into tables whose FK column names overlap as
        // substrings: `drug_id` vs `drug_class_id`. The old lowercase
        // `contains` chooser could bind `drug_class` through `drug_id`
        // (and vice versa) depending on declaration order.
        let onto = OntologyBuilder::new("m")
            .data("Prescription", &["note"])
            .data("Drug", &["name"])
            .data("DrugClass", &["name"])
            .relation("drug", "Prescription", "Drug")
            .relation("drug_class", "Prescription", "Drug")
            .build()
            .unwrap();
        let mut kb = KnowledgeBase::new();
        kb.create_table(
            TableSchema::new("drug")
                .column("drug_id", ColumnType::Int)
                .column("name", ColumnType::Text)
                .primary_key("drug_id"),
        )
        .unwrap();
        // Both FKs reference `drug` (the class is modelled as a
        // representative drug), so the chooser must disambiguate by name.
        kb.create_table(
            TableSchema::new("prescription")
                .column("prescription_id", ColumnType::Int)
                .column("drug_class_id", ColumnType::Int)
                .column("drug_id", ColumnType::Int)
                .column("note", ColumnType::Text)
                .primary_key("prescription_id")
                .foreign_key("drug_class_id", "drug", "drug_id")
                .foreign_key("drug_id", "drug", "drug_id"),
        )
        .unwrap();
        let m = OntologyMapping::infer(&onto, &kb);
        let rel_drug = onto.object_properties().iter().find(|op| op.name == "drug").unwrap();
        let rel_class = onto.object_properties().iter().find(|op| op.name == "drug_class").unwrap();
        let drug_path = m.join(rel_drug.id).expect("drug relationship mapped");
        assert_eq!(
            drug_path.steps[0].left_column, "drug_id",
            "`drug` must not bind through drug_class_id: {drug_path:?}"
        );
        let class_path = m.join(rel_class.id).expect("drug_class relationship mapped");
        assert_eq!(
            class_path.steps[0].left_column, "drug_class_id",
            "`drug_class` must bind its exact column: {class_path:?}"
        );
    }

    #[test]
    fn fk_affinity_prefers_exact_then_suffix() {
        // Exact (modulo _id) beats everything.
        assert!(fk_affinity("drug_class_id", "drug_class") > fk_affinity("drug_id", "drug_class"));
        assert!(fk_affinity("drug_id", "drug") > fk_affinity("drug_class_id", "drug"));
        // Longest common suffix ranks next: `interacting_drug_id` shares
        // the `drug` suffix with relationship `drug`; `class_id` none.
        assert!(fk_affinity("interacting_drug_id", "drug") > fk_affinity("class_id", "drug"));
    }

    #[test]
    fn unmapped_concepts_skipped() {
        let (mut onto, kb) = fixture();
        // An abstract concept with no table.
        onto.add_concept("Risk").unwrap();
        let m = OntologyMapping::infer(&onto, &kb);
        let risk = onto.concept_id("Risk").unwrap();
        assert!(m.table(risk).is_none());
        assert!(!m.nameable_concepts().contains(&risk));
    }

    #[test]
    fn manual_overrides() {
        let (onto, kb) = fixture();
        let mut m = OntologyMapping::infer(&onto, &kb);
        let drug = onto.concept_id("Drug").unwrap();
        m.set_label_column(drug, "brand");
        assert_eq!(m.label(drug), Some("brand"));
    }

    #[test]
    fn nameable_concepts_sorted() {
        let (onto, kb) = fixture();
        let m = OntologyMapping::infer(&onto, &kb);
        let nameable = m.nameable_concepts();
        assert!(nameable.windows(2).all(|w| w[0] < w[1]));
        assert!(nameable.contains(&onto.concept_id("Drug").unwrap()));
    }
}
