//! Interpretation of an annotated utterance into a structured query over
//! the ontology, and rendering of that query as SQL.
//!
//! The heuristic mirrors how the paper's intents are shaped (§4.2.1): the
//! first concept mentioned is the *requested* information (the focus);
//! instance mentions become filter conditions on their concept's label
//! column; the join tree is the union of shortest relationship paths from
//! the focus to every filter concept.

use std::fmt;

use obcs_kb::value::sql_quote;
use obcs_kb::KnowledgeBase;
use obcs_ontology::graph::{shortest_path, EdgeFilter, Path};
use obcs_ontology::{ConceptId, Ontology};
use serde::{Deserialize, Serialize};

use crate::annotate::{Evidence, Lexicon};
use crate::mapping::OntologyMapping;
use crate::template::QueryTemplate;

/// Errors from interpretation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NlqError {
    /// Nothing in the utterance matched the ontology or KB.
    NoEvidence,
    /// The focus concept has no table (abstract concept such as a union
    /// parent); interpret the augmented member patterns instead.
    UnmappedConcept(String),
    /// No relationship path connects the focus to a filter concept.
    Disconnected { from: String, to: String },
    /// An object property on the join path has no join columns.
    UnmappedRelationship(String),
}

impl fmt::Display for NlqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NlqError::NoEvidence => f.write_str("utterance contains no recognisable evidence"),
            NlqError::UnmappedConcept(c) => {
                write!(f, "concept `{c}` is not mapped to a table")
            }
            NlqError::Disconnected { from, to } => {
                write!(f, "no relationship path from `{from}` to `{to}`")
            }
            NlqError::UnmappedRelationship(r) => {
                write!(f, "relationship `{r}` has no join mapping")
            }
        }
    }
}

impl std::error::Error for NlqError {}

/// A filter condition: `concept.column = value`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Filter {
    pub concept: ConceptId,
    pub column: String,
    pub value: String,
}

/// A structured interpretation of an utterance.
#[derive(Debug, Clone, PartialEq)]
pub struct InterpretedQuery {
    /// The concept whose information is requested.
    pub focus: ConceptId,
    /// Join paths from the focus to each filter concept (deduplicated
    /// hops are handled at SQL generation).
    pub paths: Vec<Path>,
    pub filters: Vec<Filter>,
}

/// Interprets an utterance over the ontology using a prebuilt lexicon.
pub fn interpret(
    utterance: &str,
    onto: &Ontology,
    lexicon: &Lexicon,
    mapping: &OntologyMapping,
) -> Result<InterpretedQuery, NlqError> {
    let annotations = lexicon.annotate(utterance);
    if annotations.is_empty() {
        return Err(NlqError::NoEvidence);
    }
    // Focus: the first pure concept mention; fallback: concept of the first
    // instance mention.
    let mut focus: Option<ConceptId> = None;
    let mut filters: Vec<Filter> = Vec::new();
    for ann in &annotations {
        match &ann.evidence {
            Evidence::Concept(c) => {
                if focus.is_none() {
                    focus = Some(*c);
                }
            }
            Evidence::Instance { concept, value } => {
                let column = mapping
                    .label(*concept)
                    .ok_or_else(|| {
                        NlqError::UnmappedConcept(onto.concept_name(*concept).to_string())
                    })?
                    .to_string();
                filters.push(Filter { concept: *concept, column, value: value.clone() });
            }
        }
    }
    let focus = focus
        .or_else(|| filters.first().map(|f| f.concept))
        .expect("annotations non-empty implies focus or filter");
    build_query(onto, mapping, focus, &filters)
}

/// Like [`fn@interpret`], recording an
/// [`nlq_interpret`](obcs_telemetry::stage::NLQ_INTERPRET) span on `rec`
/// (see DESIGN.md §10).
pub fn interpret_traced(
    utterance: &str,
    onto: &Ontology,
    lexicon: &Lexicon,
    mapping: &OntologyMapping,
    rec: &dyn obcs_telemetry::Recorder,
) -> Result<InterpretedQuery, NlqError> {
    let _span = obcs_telemetry::span(rec, obcs_telemetry::stage::NLQ_INTERPRET);
    interpret(utterance, onto, lexicon, mapping)
}

/// Builds an interpreted query directly from a focus concept and filters
/// (used by the bootstrapper, which knows the pattern structure).
pub fn build_query(
    onto: &Ontology,
    mapping: &OntologyMapping,
    focus: ConceptId,
    filters: &[Filter],
) -> Result<InterpretedQuery, NlqError> {
    if mapping.table(focus).is_none() {
        return Err(NlqError::UnmappedConcept(onto.concept_name(focus).to_string()));
    }
    let mut paths = Vec::new();
    for f in filters {
        if f.concept == focus {
            continue;
        }
        // All edges admitted: hierarchy edges let union/isA members reach
        // their key concept through the parent's table (PK-sharing join).
        let path = shortest_path(onto, focus, f.concept, EdgeFilter::All).ok_or_else(|| {
            NlqError::Disconnected {
                from: onto.concept_name(focus).to_string(),
                to: onto.concept_name(f.concept).to_string(),
            }
        })?;
        paths.push(path);
    }
    Ok(InterpretedQuery { focus, paths, filters: filters.to_vec() })
}

impl InterpretedQuery {
    /// Renders the query as executable SQL.
    pub fn to_sql(
        &self,
        onto: &Ontology,
        kb: &KnowledgeBase,
        mapping: &OntologyMapping,
    ) -> Result<String, NlqError> {
        self.render(onto, kb, mapping, |f| sql_quote(&f.value))
    }

    /// Renders a parameterised template: each filter value becomes a
    /// `'<@Concept>'` marker (Fig. 9).
    pub fn to_template(
        &self,
        onto: &Ontology,
        kb: &KnowledgeBase,
        mapping: &OntologyMapping,
    ) -> Result<QueryTemplate, NlqError> {
        let sql =
            self.render(onto, kb, mapping, |f| format!("'<@{}>'", onto.concept_name(f.concept)))?;
        let params: Vec<ConceptId> = self.filters.iter().map(|f| f.concept).collect();
        Ok(QueryTemplate::new(sql, params, onto))
    }

    fn render(
        &self,
        onto: &Ontology,
        kb: &KnowledgeBase,
        mapping: &OntologyMapping,
        literal: impl Fn(&Filter) -> String,
    ) -> Result<String, NlqError> {
        let focus_table = mapping
            .table(self.focus)
            .ok_or_else(|| NlqError::UnmappedConcept(onto.concept_name(self.focus).to_string()))?;

        // Assign one alias per concept appearing in the query, in
        // deterministic first-use order.
        let mut aliased: Vec<(ConceptId, String, String)> = Vec::new(); // (concept, table, alias)
        let mut ensure_alias =
            |concept: ConceptId, mapping: &OntologyMapping| -> Result<String, NlqError> {
                if let Some((_, _, a)) = aliased.iter().find(|(c, _, _)| *c == concept) {
                    return Ok(a.clone());
                }
                let table = mapping.table(concept).ok_or_else(|| {
                    NlqError::UnmappedConcept(onto.concept_name(concept).to_string())
                })?;
                let alias = format!("o{}", onto.concept_name(concept));
                aliased.push((concept, table.to_string(), alias.clone()));
                Ok(alias)
            };
        ensure_alias(self.focus, mapping)?;

        // Collect join clauses by walking each path; deduplicate edges.
        let mut join_clauses: Vec<String> = Vec::new();
        let mut seen_edges: Vec<(ConceptId, ConceptId, u32)> = Vec::new();
        let mut bridge_counter = 0usize;
        for path in &self.paths {
            let mut current = path.start;
            for hop in &path.hops {
                let op = onto.object_property(hop.property);
                let next = if hop.forward { op.target } else { op.source };
                let key = (current.min(next), current.max(next), op.id.0);
                if !seen_edges.contains(&key) {
                    seen_edges.push(key);
                    let join_path = mapping
                        .join(op.id)
                        .ok_or_else(|| NlqError::UnmappedRelationship(op.name.clone()))?;
                    // Orient the physical steps along the traversal
                    // direction of this hop.
                    let oriented =
                        if hop.forward { join_path.clone() } else { join_path.reversed() };
                    let mut left_alias = ensure_alias(current, mapping)?;
                    let n_steps = oriented.steps.len();
                    for (si, step) in oriented.steps.iter().enumerate() {
                        let right_alias = if si + 1 == n_steps {
                            ensure_alias(next, mapping)?
                        } else {
                            // Bridge tables get fresh aliases.
                            bridge_counter += 1;
                            format!("b{bridge_counter}")
                        };
                        join_clauses.push(format!(
                            "INNER JOIN {} {} ON {}.{} = {}.{}",
                            step.right_table,
                            right_alias,
                            left_alias,
                            step.left_column,
                            right_alias,
                            step.right_column
                        ));
                        left_alias = right_alias;
                    }
                }
                current = next;
            }
        }

        // Projection: the focus concept's descriptive columns — its data
        // properties that exist as physical columns, else all columns.
        let focus_alias = ensure_alias(self.focus, mapping)?;
        let table = kb
            .table(focus_table)
            .map_err(|_| NlqError::UnmappedConcept(onto.concept_name(self.focus).to_string()))?;
        // A nameable focus (Drug, Condition) answers with its names — the
        // paper's treatment responses list drug names, not full records.
        let mut proj: Vec<String> = if let Some(label) =
            mapping.label(self.focus).filter(|_| mapping.is_nameable(self.focus))
        {
            vec![format!("{focus_alias}.{label}")]
        } else {
            onto.data_properties_of(self.focus)
                .filter(|dp| table.schema.column_index(&dp.name).is_some())
                .map(|dp| format!("{focus_alias}.{}", dp.name))
                .collect()
        };
        if proj.is_empty() {
            // Fall back to every descriptive (non-key) column of the table.
            proj.extend(
                table
                    .schema
                    .columns
                    .iter()
                    .filter(|c| {
                        table.schema.primary_key.as_deref() != Some(c.name.as_str())
                            && !table.schema.is_foreign_key(&c.name)
                    })
                    .map(|c| format!("{focus_alias}.{}", c.name)),
            );
        }
        if proj.is_empty() {
            // Degenerate table of nothing but keys: project the PK.
            proj.extend(table.schema.columns.iter().map(|c| format!("{focus_alias}.{}", c.name)));
        }

        // WHERE clause.
        let mut conditions: Vec<String> = Vec::new();
        for f in &self.filters {
            let alias = ensure_alias(f.concept, mapping)?;
            conditions.push(format!("{alias}.{} = {}", f.column, literal(f)));
        }

        let mut sql =
            format!("SELECT DISTINCT {} FROM {} {}", proj.join(", "), focus_table, focus_alias);
        for j in &join_clauses {
            sql.push(' ');
            sql.push_str(j);
        }
        if !conditions.is_empty() {
            sql.push_str(" WHERE ");
            sql.push_str(&conditions.join(" AND "));
        }
        Ok(sql)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obcs_kb::schema::{ColumnType, TableSchema};
    use obcs_kb::Value;
    use obcs_ontology::OntologyBuilder;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    /// Drug(name) --has--> Precaution(description); Drug --treats--> Indication(name);
    /// Drug --has--> Dosage(amount) --for--> Indication.
    fn fixture(
    ) -> Result<(Ontology, KnowledgeBase, OntologyMapping, Lexicon), Box<dyn std::error::Error>>
    {
        let onto = OntologyBuilder::new("m")
            .data("Drug", &["name"])
            .data("Precaution", &["description"])
            .data("Indication", &["name"])
            .data("Dosage", &["amount"])
            .relation("hasPrecaution", "Drug", "Precaution")
            .relation_with_inverse("treats", "is treated by", "Drug", "Indication")
            .relation("hasDosage", "Drug", "Dosage")
            .relation("dosageFor", "Dosage", "Indication")
            .build()?;
        let mut kb = KnowledgeBase::new();
        kb.create_table(
            TableSchema::new("drug")
                .column("drug_id", ColumnType::Int)
                .column("name", ColumnType::Text)
                .primary_key("drug_id"),
        )?;
        kb.create_table(
            TableSchema::new("indication")
                .column("indication_id", ColumnType::Int)
                .column("name", ColumnType::Text)
                .primary_key("indication_id"),
        )?;
        kb.create_table(
            TableSchema::new("precaution")
                .column("prec_id", ColumnType::Int)
                .column("drug_id", ColumnType::Int)
                .column("description", ColumnType::Text)
                .primary_key("prec_id")
                .foreign_key("drug_id", "drug", "drug_id"),
        )?;
        kb.create_table(
            TableSchema::new("treats")
                .column("treats_id", ColumnType::Int)
                .column("drug_id", ColumnType::Int)
                .column("indication_id", ColumnType::Int)
                .primary_key("treats_id")
                .foreign_key("drug_id", "drug", "drug_id")
                .foreign_key("indication_id", "indication", "indication_id"),
        )?;
        kb.create_table(
            TableSchema::new("dosage")
                .column("dosage_id", ColumnType::Int)
                .column("drug_id", ColumnType::Int)
                .column("indication_id", ColumnType::Int)
                .column("amount", ColumnType::Text)
                .primary_key("dosage_id")
                .foreign_key("drug_id", "drug", "drug_id")
                .foreign_key("indication_id", "indication", "indication_id"),
        )?;
        // Instances.
        for (i, n) in ["Aspirin", "Ibuprofen"].iter().enumerate() {
            kb.insert("drug", vec![Value::Int(i as i64), Value::text(*n)])?;
        }
        for (i, n) in ["Fever", "Psoriasis"].iter().enumerate() {
            kb.insert("indication", vec![Value::Int(i as i64), Value::text(*n)])?;
        }
        kb.insert("precaution", vec![Value::Int(0), Value::Int(0), Value::text("bleeding risk")])?;
        kb.insert("treats", vec![Value::Int(0), Value::Int(0), Value::Int(0)])?;
        kb.insert(
            "dosage",
            vec![Value::Int(0), Value::Int(0), Value::Int(0), Value::text("500mg")],
        )?;
        let mapping = OntologyMapping::infer(&onto, &kb);
        let lexicon = Lexicon::build(&onto, &kb, &mapping);
        Ok((onto, kb, mapping, lexicon))
    }

    #[test]
    fn lookup_query_interprets_and_executes() -> TestResult {
        let (onto, kb, mapping, lex) = fixture()?;
        let q = interpret("show me the precaution for aspirin", &onto, &lex, &mapping)?;
        assert_eq!(q.focus, onto.concept_id("Precaution")?);
        assert_eq!(q.filters.len(), 1);
        let sql = q.to_sql(&onto, &kb, &mapping)?;
        assert!(sql.contains("INNER JOIN drug oDrug"), "sql: {sql}");
        assert!(sql.contains("oDrug.name = 'Aspirin'"), "sql: {sql}");
        let rs = kb.query(&sql)?;
        assert_eq!(rs.rows[0][0], Value::text("bleeding risk"));
        Ok(())
    }

    #[test]
    fn instance_only_utterance_focuses_its_concept() -> TestResult {
        let (onto, kb, mapping, lex) = fixture()?;
        let q = interpret("aspirin", &onto, &lex, &mapping)?;
        assert_eq!(q.focus, onto.concept_id("Drug")?);
        let sql = q.to_sql(&onto, &kb, &mapping)?;
        let rs = kb.query(&sql)?;
        assert_eq!(rs.rows, vec![vec![Value::text("Aspirin")]]);
        Ok(())
    }

    #[test]
    fn no_evidence_errors() -> TestResult {
        let (onto, _, mapping, lex) = fixture()?;
        assert_eq!(
            interpret("hello world", &onto, &lex, &mapping).unwrap_err(),
            NlqError::NoEvidence
        );
        Ok(())
    }

    #[test]
    fn two_hop_path_generates_two_joins() -> TestResult {
        let (onto, kb, mapping, _) = fixture()?;
        // Dosage of Aspirin for Fever: focus Dosage, filters Drug + Indication.
        let drug = onto.concept_id("Drug")?;
        let ind = onto.concept_id("Indication")?;
        let dosage = onto.concept_id("Dosage")?;
        let q = build_query(
            &onto,
            &mapping,
            dosage,
            &[
                Filter { concept: drug, column: "name".into(), value: "Aspirin".into() },
                Filter { concept: ind, column: "name".into(), value: "Fever".into() },
            ],
        )?;
        let sql = q.to_sql(&onto, &kb, &mapping)?;
        let rs = kb.query(&sql)?;
        assert_eq!(rs.rows, vec![vec![Value::text("500mg")]]);
        Ok(())
    }

    #[test]
    fn template_has_markers_and_runs_prepared() -> TestResult {
        let (onto, kb, mapping, lex) = fixture()?;
        let q = interpret("precaution for aspirin", &onto, &lex, &mapping)?;
        let tpl = q.to_template(&onto, &kb, &mapping)?;
        assert!(tpl.sql().contains("'<@Drug>'"), "template: {}", tpl.sql());
        let rs = kb.execute(&tpl.prepare(&kb)?, &[Value::text("Aspirin")])?;
        assert_eq!(rs, kb.query(&q.to_sql(&onto, &kb, &mapping)?)?);
        assert_eq!(rs.rows.len(), 1);
        Ok(())
    }

    #[test]
    fn unmapped_focus_errors() -> TestResult {
        let (mut onto, kb, mapping, _) = fixture()?;
        let ghost = onto.add_concept("Ghost")?;
        let err = build_query(&onto, &mapping, ghost, &[]).unwrap_err();
        assert!(matches!(err, NlqError::UnmappedConcept(_)));
        let _ = kb;
        Ok(())
    }

    #[test]
    fn disconnected_filter_errors() -> TestResult {
        let (mut onto, kb, mapping, _) = fixture()?;
        let island = onto.add_concept("Island")?;
        onto.add_data_property(island, "name")?;
        let drug = onto.concept_id("Drug")?;
        // Need island mapped to err on path, not mapping — give it a table.
        let mut mapping = mapping;
        let mut kb = kb;
        kb.create_table(
            TableSchema::new("island")
                .column("island_id", ColumnType::Int)
                .column("name", ColumnType::Text)
                .primary_key("island_id"),
        )?;
        mapping.set_table(island, "island");
        mapping.set_label_column(island, "name");
        let err = build_query(
            &onto,
            &mapping,
            island,
            &[Filter { concept: drug, column: "name".into(), value: "Aspirin".into() }],
        )
        .unwrap_err();
        assert!(matches!(err, NlqError::Disconnected { .. }));
        Ok(())
    }

    #[test]
    fn filter_on_focus_needs_no_join() -> TestResult {
        let (onto, kb, mapping, _) = fixture()?;
        let drug = onto.concept_id("Drug")?;
        let q = build_query(
            &onto,
            &mapping,
            drug,
            &[Filter { concept: drug, column: "name".into(), value: "Ibuprofen".into() }],
        )?;
        let sql = q.to_sql(&onto, &kb, &mapping)?;
        assert!(!sql.contains("JOIN"), "sql: {sql}");
        let rs = kb.query(&sql)?;
        assert_eq!(rs.rows, vec![vec![Value::text("Ibuprofen")]]);
        Ok(())
    }

    #[test]
    fn quotes_in_values_are_escaped() -> TestResult {
        let (onto, kb, mapping, _) = fixture()?;
        let drug = onto.concept_id("Drug")?;
        let q = build_query(
            &onto,
            &mapping,
            drug,
            &[Filter { concept: drug, column: "name".into(), value: "O'Neil".into() }],
        )?;
        let sql = q.to_sql(&onto, &kb, &mapping)?;
        assert!(sql.contains("'O''Neil'"));
        // Parses and executes (empty result).
        assert!(kb.query(&sql)?.rows.is_empty());
        Ok(())
    }
}
