//! Parameterised structured query templates (paper §4.4, Fig. 9).
//!
//! A template is a SQL string containing `'<@Concept>'` parameter markers,
//! one per required entity. At runtime the dialogue layer instantiates the
//! template with the entities recognised in (or elicited from) the user's
//! utterances.

use std::fmt;

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

/// Errors instantiating a template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TemplateError {
    /// A required parameter was not supplied.
    MissingParam(String),
}

impl fmt::Display for TemplateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemplateError::MissingParam(m) => write!(f, "missing value for parameter `{m}`"),
        }
    }
}

impl std::error::Error for TemplateError {}

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

    /// Instantiates the template: every marker is replaced by the supplied
    /// value for its concept (single-quote-escaped). All parameters must be
    /// supplied. Substitution is one left-to-right pass over the template,
    /// so an inserted value is never scanned again: a value that contains
    /// marker text stays literal.
    pub fn instantiate(&self, values: &[(ConceptId, String)]) -> Result<String, TemplateError> {
        let mut hits: Vec<(usize, &str, &str)> = Vec::new();
        for p in &self.params {
            let value = values
                .iter()
                .find(|(c, _)| *c == p.concept)
                .map(|(_, v)| v.as_str())
                .ok_or_else(|| TemplateError::MissingParam(p.marker.clone()))?;
            hits.extend(self.sql.match_indices(&p.marker).map(|(at, _)| (at, &*p.marker, value)));
        }
        // Stable sort: at one position the first parameter wins, and a
        // repeated parameter's second set of hits is skipped below.
        hits.sort_by_key(|&(at, ..)| at);
        let mut sql = String::with_capacity(self.sql.len());
        let mut end = 0;
        for (at, marker, value) in hits {
            if at < end {
                continue;
            }
            sql.push_str(&self.sql[end..at]);
            // The marker sits inside single quotes in the SQL; escape the
            // value for that context.
            sql.push_str(&value.replace('\'', "''"));
            end = at + marker.len();
        }
        sql.push_str(&self.sql[end..]);
        Ok(sql)
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
    fn instantiate_replaces_markers() {
        let o = onto();
        let drug = o.concept_id("Drug").unwrap();
        let tpl =
            QueryTemplate::new("SELECT x FROM t WHERE name = '<@Drug>'".into(), vec![drug], &o);
        let sql = tpl.instantiate(&[(drug, "Aspirin".into())]).unwrap();
        assert_eq!(sql, "SELECT x FROM t WHERE name = 'Aspirin'");
    }

    #[test]
    fn missing_param_errors() {
        let o = onto();
        let drug = o.concept_id("Drug").unwrap();
        let tpl = QueryTemplate::new("… '<@Drug>' …".into(), vec![drug], &o);
        assert!(matches!(tpl.instantiate(&[]), Err(TemplateError::MissingParam(_))));
    }

    #[test]
    fn values_are_escaped() {
        let o = onto();
        let drug = o.concept_id("Drug").unwrap();
        let tpl = QueryTemplate::new("name = '<@Drug>'".into(), vec![drug], &o);
        let sql = tpl.instantiate(&[(drug, "O'Neil".into())]).unwrap();
        assert_eq!(sql, "name = 'O''Neil'");
    }

    #[test]
    fn multiple_params_and_dedup() {
        let o = onto();
        let drug = o.concept_id("Drug").unwrap();
        let ind = o.concept_id("Indication").unwrap();
        let tpl = QueryTemplate::new(
            "a = '<@Drug>' AND b = '<@Indication>' AND c = '<@Drug>'".into(),
            vec![drug, ind, drug],
            &o,
        );
        assert_eq!(tpl.required_concepts(), vec![drug, ind]);
        let sql = tpl.instantiate(&[(drug, "X".into()), (ind, "Y".into())]).unwrap();
        assert_eq!(sql, "a = 'X' AND b = 'Y' AND c = 'X'");
    }

    #[test]
    fn inserted_values_are_never_rescanned_for_markers() {
        let o = onto();
        let drug = o.concept_id("Drug").unwrap();
        let ind = o.concept_id("Indication").unwrap();
        let tpl =
            QueryTemplate::new("a = '<@Drug>' AND b = '<@Indication>'".into(), vec![drug, ind], &o);
        let sql =
            tpl.instantiate(&[(drug, "<@Indication>".into()), (ind, "Fever".into())]).unwrap();
        assert_eq!(sql, "a = '<@Indication>' AND b = 'Fever'");
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
