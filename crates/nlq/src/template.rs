//! Parameterised structured query templates (paper §4.4, Fig. 9).
//!
//! A template is a SQL string containing `'<@Concept>'` parameter markers,
//! one per required entity. The conversation engine
//! [prepares](QueryTemplate::prepare) each template once, every marker
//! bound as a parameter, and runs the plan with the entities recognised
//! in (or elicited from) the user's utterances as parameter values.

use obcs_kb::{BoundPlan, KbError, KnowledgeBase};
use obcs_ontology::{ConceptId, Ontology};
use serde::{Deserialize, Serialize};

/// A parameterised SQL query template.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryTemplate {
    sql: String,
    /// The concepts whose instance values must be supplied, in marker
    /// order. Each entry carries the marker text used in the SQL.
    params: Vec<TemplateParam>,
}

/// One parameter of a template.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TemplateParam {
    pub concept: ConceptId,
    /// The marker as it appears in the SQL, e.g. `<@Drug>`.
    pub marker: String,
}

impl QueryTemplate {
    /// Creates a template from SQL containing `<@Concept>` markers for the
    /// given concepts.
    pub fn new(sql: String, param_concepts: Vec<ConceptId>, onto: &Ontology) -> Self {
        let params = param_concepts
            .into_iter()
            .map(|c| TemplateParam { concept: c, marker: format!("<@{}>", onto.concept_name(c)) })
            .collect();
        QueryTemplate { sql, params }
    }

    /// The template SQL with markers.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// The required parameters (deduplicated, in order of first use).
    pub fn required_concepts(&self) -> Vec<ConceptId> {
        let mut out = Vec::new();
        for p in &self.params {
            if !out.contains(&p.concept) {
                out.push(p.concept);
            }
        }
        out
    }

    /// Binds the template against `kb` once, each distinct marker as a
    /// parameter (DESIGN.md §14.2): parameter `i` of the plan takes the
    /// value of concept `required_concepts()[i]`. A marker that is not a
    /// whole string literal fails to prepare.
    pub fn prepare(&self, kb: &KnowledgeBase) -> Result<BoundPlan, KbError> {
        let mut markers: Vec<&str> = Vec::new();
        for p in &self.params {
            if !markers.contains(&p.marker.as_str()) {
                markers.push(&p.marker);
            }
        }
        kb.prepare_with(&self.sql, &markers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obcs_ontology::OntologyBuilder;

    fn onto() -> Ontology {
        OntologyBuilder::new("t").concept("Drug").concept("Indication").build().unwrap()
    }

    #[test]
    fn prepare_binds_one_parameter_per_concept() {
        use obcs_kb::schema::{ColumnType, TableSchema};
        use obcs_kb::Value;
        let o = onto();
        let drug = o.concept_id("Drug").unwrap();
        let ind = o.concept_id("Indication").unwrap();
        let mut kb = KnowledgeBase::new();
        kb.create_table(
            TableSchema::new("t")
                .column("a", ColumnType::Text)
                .column("b", ColumnType::Text)
                .column("c", ColumnType::Text),
        )
        .unwrap();
        kb.insert("t", vec![Value::text("X"), Value::text("Y"), Value::text("X")]).unwrap();
        let tpl = QueryTemplate::new(
            "SELECT a FROM t WHERE a = '<@Drug>' AND b = '<@Indication>' AND c = '<@Drug>'".into(),
            vec![drug, ind, drug],
            &o,
        );
        assert_eq!(tpl.required_concepts(), vec![drug, ind]);
        let plan = tpl.prepare(&kb).unwrap();
        assert_eq!(plan.param_count(), 2);
        let rows = |d: &str, i: &str| kb.execute(&plan, &[Value::text(d), Value::text(i)]);
        assert_eq!(rows("X", "Y").unwrap().rows.len(), 1);
        assert!(rows("Y", "X").unwrap().rows.is_empty());
    }

    #[test]
    fn serde_roundtrip() {
        let o = onto();
        let drug = o.concept_id("Drug").unwrap();
        let tpl = QueryTemplate::new("x = '<@Drug>'".into(), vec![drug], &o);
        let tpl2: QueryTemplate =
            serde_json::from_str(&serde_json::to_string(&tpl).unwrap()).unwrap();
        assert_eq!(tpl, tpl2);
    }
}
