//! Loading committed artifact files back into an analysable in-memory
//! chain, shared by the `spacelint` binary and the `repro verify` pass.
//!
//! A committed space (`artifacts/<domain>_space.json`) travels with its
//! KB (`artifacts/<domain>_kb.json`). The ontology is *reconstructed*
//! rather than stored: the built-in `mdx` ontology is rebuilt from code,
//! and any other domain regenerates its ontology from the KB with the
//! data-driven generator ([`obcs_kb::ontogen`]) — exactly the path the
//! custom-domain example takes, and deterministic for a given KB. The
//! mapping is re-inferred from the ontology and KB, exactly as the
//! bootstrapper infers it.

use std::path::{Path, PathBuf};

use obcs_core::ConversationSpace;
use obcs_kb::ontogen::{generate_ontology, OntogenOptions};
use obcs_kb::KnowledgeBase;
use obcs_ontology::Ontology;

/// `artifacts/mdx_space.json` → `artifacts/mdx_kb.json`, when that
/// sibling exists.
pub fn sibling_kb(space_path: &Path) -> Option<PathBuf> {
    let stem = space_path.file_stem()?.to_str()?;
    let kb_name = match stem.strip_suffix("_space") {
        Some(prefix) => format!("{prefix}_kb.json"),
        None => format!("{stem}_kb.json"),
    };
    let candidate = space_path.with_file_name(kb_name);
    candidate.exists().then_some(candidate)
}

/// Loads a committed space + KB pair and reconstructs the ontology named
/// by the space. When `kb_path` is `None` the KB defaults to the
/// `*_kb.json` sibling of the space file. Errors are human-readable
/// strings suitable for a CLI's stderr.
pub fn load_artifacts(
    space_path: &Path,
    kb_path: Option<&Path>,
) -> Result<(ConversationSpace, KnowledgeBase, Ontology), String> {
    let space_text = std::fs::read_to_string(space_path)
        .map_err(|e| format!("cannot read {}: {e}", space_path.display()))?;
    let space: ConversationSpace = serde_json::from_str(&space_text)
        .map_err(|e| format!("cannot parse {}: {e}", space_path.display()))?;

    let kb_path = match kb_path {
        Some(p) => p.to_path_buf(),
        None => sibling_kb(space_path).ok_or_else(|| {
            format!("no KB given and no `*_kb.json` sibling of {} found", space_path.display())
        })?,
    };
    let kb_text = std::fs::read_to_string(&kb_path)
        .map_err(|e| format!("cannot read {}: {e}", kb_path.display()))?;
    let kb = KnowledgeBase::from_json(&kb_text)
        .map_err(|e| format!("cannot parse {}: {e}", kb_path.display()))?;

    let onto = reconstruct_ontology(&space.ontology_name, &kb)?;
    Ok((space, kb, onto))
}

/// Rebuilds the ontology a space was bootstrapped from. The built-in
/// `mdx` ontology is rebuilt from code; every other name is regenerated
/// from the KB with the data-driven generator (deterministic for a given
/// KB, and the same path data-driven domains use to build their ontology
/// in the first place).
pub fn reconstruct_ontology(name: &str, kb: &KnowledgeBase) -> Result<Ontology, String> {
    match name {
        "mdx" => Ok(obcs_mdx::ontology::build_mdx_ontology()),
        other => generate_ontology(kb, other, OntogenOptions::default())
            .map_err(|e| format!("cannot regenerate ontology `{other}` from the KB: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sibling_kb_maps_space_to_kb() {
        // Use this crate's own manifest dir for an existing-file anchor.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        let missing = dir.join("no_such_space.json");
        assert_eq!(sibling_kb(&missing), None, "missing sibling yields None");
    }

    #[test]
    fn reconstruct_mdx_ontology() {
        let kb = KnowledgeBase::new();
        let onto = reconstruct_ontology("mdx", &kb).unwrap();
        assert!(onto.concept_id("Drug").is_ok());
    }

    #[test]
    fn reconstruct_data_driven_ontology() {
        use obcs_kb::schema::{ColumnType, TableSchema};
        use obcs_kb::Value;
        let mut kb = KnowledgeBase::new();
        kb.create_table(
            TableSchema::new("book")
                .column("id", ColumnType::Int)
                .column("name", ColumnType::Text)
                .primary_key("id"),
        )
        .unwrap();
        kb.insert("book", vec![Value::Int(1), Value::text("Dune")]).unwrap();
        let onto = reconstruct_ontology("library", &kb).unwrap();
        assert!(onto.concept_id("Book").is_ok());
    }
}
