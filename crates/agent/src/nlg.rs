//! Natural-language generation: verbalising query results through an
//! intent's response template.

use std::fmt::Write;

use obcs_kb::ResultSet;

/// Fills an intent response template: `{entities}` with the entity text,
/// `{results}` with the verbalised rows. One left-to-right pass over the
/// template, so inserted text is never scanned again: an entity value
/// holding `{results}` stays literal.
pub fn fill_response(template: &str, entities: &str, results: &str) -> String {
    let mut out = String::with_capacity(template.len() + entities.len() + results.len());
    let mut rest = template;
    while let Some(at) = rest.find('{') {
        out.push_str(&rest[..at]);
        rest = &rest[at..];
        let (text, marker) = if rest.starts_with("{entities}") {
            (entities, "{entities}")
        } else if rest.starts_with("{results}") {
            (results, "{results}")
        } else {
            ("{", "{")
        };
        out.push_str(text);
        rest = &rest[marker.len()..];
    }
    out.push_str(rest);
    out
}

/// Verbalises a result set: single-column results become a comma list,
/// multi-column results become one line per row.
pub fn render_results(results: &ResultSet) -> String {
    let mut out = String::new();
    write_results(&mut out, results);
    out
}

/// Appends [`render_results`]'s text to `out`, writing every value in
/// place rather than through a string per row.
fn write_results(out: &mut String, results: &ResultSet) {
    if results.rows.is_empty() {
        out.push_str("(no results found)");
        return;
    }
    for (i, row) in results.rows.iter().enumerate() {
        if results.columns.len() == 1 {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}", row[0]);
            continue;
        }
        if i > 0 {
            out.push('\n');
        }
        for (j, (v, c)) in row.iter().zip(results.columns.iter()).enumerate() {
            if j > 0 {
                out.push_str("; ");
            }
            let _ = write!(out, "{c}: {v}");
        }
    }
}

/// Merges several result sets (an intent's multiple templates, e.g. the
/// union augmentation) into one labelled body.
pub fn render_merged(results: &[(&str, ResultSet)]) -> String {
    let non_empty: Vec<&(&str, ResultSet)> =
        results.iter().filter(|(_, r)| !r.rows.is_empty()).collect();
    let mut out = String::new();
    match non_empty.as_slice() {
        [] => out.push_str("(no results found)"),
        [(_, only)] => write_results(&mut out, only),
        sections => {
            for (i, (label, r)) in sections.iter().enumerate() {
                if i > 0 {
                    out.push('\n');
                }
                out.push_str(label);
                out.push_str(": ");
                write_results(&mut out, r);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use obcs_kb::Value;
    use std::sync::Arc;

    fn rs(columns: &[&str], rows: Vec<Vec<Value>>) -> ResultSet {
        ResultSet { columns: Arc::new(columns.iter().map(|s| s.to_string()).collect()), rows }
    }

    #[test]
    fn single_column_comma_list() {
        let r = rs(&["name"], vec![vec![Value::text("A")], vec![Value::text("B")]]);
        assert_eq!(render_results(&r), "A, B");
    }

    #[test]
    fn multi_column_lines() {
        let r = rs(&["name", "dose"], vec![vec![Value::text("A"), Value::text("5mg")]]);
        assert_eq!(render_results(&r), "name: A; dose: 5mg");
    }

    #[test]
    fn empty_results_message() {
        let r = rs(&["name"], vec![]);
        assert_eq!(render_results(&r), "(no results found)");
    }

    #[test]
    fn fill_response_substitutes() {
        let text =
            fill_response("Here are the Precautions for {entities}:\n{results}", "Aspirin", "X");
        assert_eq!(text, "Here are the Precautions for Aspirin:\nX");
        let text = fill_response("{results} {x} {entities}{entities} {", "e", "r");
        assert_eq!(text, "r {x} ee {");
    }

    #[test]
    fn inserted_text_is_never_rescanned_for_markers() {
        // A two-pass `replace` expanded an entity value holding
        // `{results}` with the results.
        let text = fill_response("{entities}: {results}", "{results}", "{entities}");
        assert_eq!(text, "{results}: {entities}");
    }

    #[test]
    fn merged_results_label_sections() {
        let merged = render_merged(&[
            ("Contra Indications", rs(&["d"], vec![vec![Value::text("x")]])),
            ("Black Box Warnings", rs(&["d"], vec![])),
            ("Risks", rs(&["d"], vec![vec![Value::text("y")]])),
        ]);
        assert!(merged.contains("Contra Indications: x"));
        assert!(!merged.contains("Black Box"));
        assert!(merged.contains("Risks: y"));
    }

    #[test]
    fn merged_single_section_unlabelled() {
        let merged = render_merged(&[
            ("Only", rs(&["d"], vec![vec![Value::text("x")]])),
            ("Empty", rs(&["d"], vec![])),
        ]);
        assert_eq!(merged, "x");
    }

    #[test]
    fn merged_all_empty() {
        let merged = render_merged(&[("A", rs(&["d"], vec![]))]);
        assert_eq!(merged, "(no results found)");
    }
}
