//! Evidence annotation: locating mentions of ontology concepts, data
//! properties, and KB instance values inside an utterance.
//!
//! This is the first stage of the Athena-style interpretation pipeline: the
//! utterance is scanned for the longest token spans that match (a) concept
//! names and their registered synonyms, (b) data property names, and (c)
//! instance values from the label columns of nameable concepts.
//!
//! ## Hot-path layout
//!
//! Annotation runs on every utterance of every simulated user, so the
//! lexicon is stored as an interned-token trie rather than a phrase map:
//! tokens are interned to dense `u32` ids once at build time, and
//! [`Lexicon::annotate`] walks the trie left to right over the utterance's
//! token-id sequence. Matching a span costs a few binary searches over
//! sorted edge lists — no per-span `String` joins, no hashing of candidate
//! phrases. Partial-entity matching is served by a token-level inverted
//! index (token id → phrases containing it) instead of a scan over the
//! whole vocabulary. The original span-join implementation is kept as
//! [`Lexicon::annotate_scan`], the equivalence oracle for tests and the
//! "before" side of the tracked perf baseline.

use std::collections::HashMap;

use obcs_kb::KnowledgeBase;
use obcs_ontology::{ConceptId, Ontology};
use serde::{Deserialize, Serialize};

use crate::mapping::OntologyMapping;

/// What an annotated span refers to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Evidence {
    /// A mention of the concept itself ("precautions", "drug").
    Concept(ConceptId),
    /// A mention of an instance of the concept ("Aspirin" → Drug).
    Instance { concept: ConceptId, value: String },
}

/// An annotated token span `[start, end)` over the utterance's tokens.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Annotation {
    pub start: usize,
    pub end: usize,
    pub evidence: Evidence,
}

/// One registered phrase: its normalised text and every evidence it may
/// refer to.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Phrase {
    text: String,
    evidences: Vec<Evidence>,
}

/// A trie node; edges are token ids, kept sorted for binary search.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct TrieNode {
    /// Sorted `(token id, child node index)` edges.
    children: Vec<(u32, u32)>,
    /// Phrase ending at this node, if any.
    phrase: Option<u32>,
}

/// A lexicon mapping normalised phrases to evidence, built once per
/// conversation space and reused for every utterance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Lexicon {
    /// Interned token text → dense token id.
    token_ids: HashMap<String, u32>,
    /// Token id → token text (the interner's inverse), scanned by
    /// substring during partial matching.
    tokens: Vec<String>,
    /// Normalised phrase → phrase id (exact lookups).
    phrase_ids: HashMap<String, u32>,
    phrases: Vec<Phrase>,
    /// Inverted index: token id → sorted phrase ids containing the token.
    occurrences: Vec<Vec<u32>>,
    /// Trie over token-id paths; `nodes[0]` is the root.
    nodes: Vec<TrieNode>,
    /// Longest phrase length in tokens (bounds the span search).
    max_tokens: usize,
}

impl Default for Lexicon {
    fn default() -> Self {
        Lexicon {
            token_ids: HashMap::new(),
            tokens: Vec::new(),
            phrase_ids: HashMap::new(),
            phrases: Vec::new(),
            occurrences: Vec::new(),
            nodes: vec![TrieNode::default()],
            max_tokens: 0,
        }
    }
}

impl Lexicon {
    /// Builds the lexicon from concept names and instance values.
    pub fn build(onto: &Ontology, kb: &KnowledgeBase, mapping: &OntologyMapping) -> Self {
        let mut lex = Lexicon::default();
        for c in onto.concepts() {
            lex.add_phrase(&split_camel(&c.name), Evidence::Concept(c.id));
        }
        for concept in mapping.nameable_concepts() {
            // Only concepts whose instances carry proper names contribute
            // instance values — free-text description columns of dependent
            // concepts would pollute the vocabulary.
            if !mapping.is_nameable(concept) {
                continue;
            }
            let (Some(table), Some(label)) = (mapping.table(concept), mapping.label(concept))
            else {
                continue;
            };
            if let Ok(values) = kb.distinct_values(table, label) {
                for v in values {
                    if let Some(s) = v.as_text() {
                        lex.add_phrase(s, Evidence::Instance { concept, value: s.to_string() });
                    }
                }
            }
        }
        lex
    }

    /// Registers an additional phrase (synonyms, abbreviations), together
    /// with a naive plural/singular variant of its last word so "show me
    /// the precautions" matches the `Precaution` concept.
    pub fn add_phrase(&mut self, phrase: &str, evidence: Evidence) {
        let norm = normalize(phrase);
        if norm.is_empty() {
            return;
        }
        for variant in number_variants(&norm) {
            let tok_ids: Vec<u32> = variant.split(' ').map(|t| self.intern(t)).collect();
            self.max_tokens = self.max_tokens.max(tok_ids.len());
            let node = self.trie_insert(&tok_ids);
            let pid = match self.nodes[node].phrase {
                Some(pid) => pid,
                None => {
                    let pid = self.phrases.len() as u32;
                    self.phrases.push(Phrase { text: variant.clone(), evidences: Vec::new() });
                    self.phrase_ids.insert(variant, pid);
                    self.nodes[node].phrase = Some(pid);
                    for &t in &tok_ids {
                        let occ = &mut self.occurrences[t as usize];
                        if occ.last() != Some(&pid) {
                            occ.push(pid);
                        }
                    }
                    pid
                }
            };
            let evs = &mut self.phrases[pid as usize].evidences;
            if !evs.contains(&evidence) {
                evs.push(evidence.clone());
            }
        }
    }

    /// Interns a token, returning its dense id.
    fn intern(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.token_ids.get(token) {
            return id;
        }
        let id = self.tokens.len() as u32;
        self.token_ids.insert(token.to_string(), id);
        self.tokens.push(token.to_string());
        self.occurrences.push(Vec::new());
        id
    }

    /// Walks/extends the trie along a token-id path, returning the final
    /// node index.
    fn trie_insert(&mut self, tok_ids: &[u32]) -> usize {
        let mut node = 0usize;
        for &t in tok_ids {
            node = match self.nodes[node].children.binary_search_by_key(&t, |e| e.0) {
                Ok(i) => self.nodes[node].children[i].1 as usize,
                Err(i) => {
                    let child = self.nodes.len() as u32;
                    self.nodes.push(TrieNode::default());
                    self.nodes[node].children.insert(i, (t, child));
                    child as usize
                }
            };
        }
        node
    }

    /// All evidences for a normalised phrase.
    pub fn lookup(&self, phrase: &str) -> &[Evidence] {
        self.phrase_ids
            .get(&normalize(phrase))
            .map(|&pid| self.phrases[pid as usize].evidences.as_slice())
            .unwrap_or(&[])
    }

    pub fn len(&self) -> usize {
        self.phrases.len()
    }

    pub fn is_empty(&self) -> bool {
        self.phrases.is_empty()
    }

    /// The utterance's tokens mapped to interned ids (`None` for tokens
    /// the lexicon has never seen — no phrase can cross them).
    fn token_id_seq(&self, text: &str) -> Vec<Option<u32>> {
        let mut ids = Vec::new();
        let mut buf = String::new();
        for ch in text.chars() {
            if ch.is_alphanumeric() {
                buf.extend(ch.to_lowercase());
            } else if !buf.is_empty() {
                ids.push(self.token_ids.get(buf.as_str()).copied());
                buf.clear();
            }
        }
        if !buf.is_empty() {
            ids.push(self.token_ids.get(buf.as_str()).copied());
        }
        ids
    }

    /// Annotates an utterance: greedy longest-match over token spans,
    /// left to right, no overlaps. One trie walk per start position; no
    /// per-span allocations.
    pub fn annotate(&self, utterance: &str) -> Vec<Annotation> {
        let ids = self.token_id_seq(utterance);
        let mut annotations = Vec::new();
        let mut i = 0;
        while i < ids.len() {
            let mut node = 0usize;
            let mut best: Option<(usize, u32)> = None;
            let limit = ids.len().min(i + self.max_tokens);
            for (j, slot) in ids.iter().enumerate().take(limit).skip(i) {
                let Some(tid) = *slot else { break };
                let Ok(edge) = self.nodes[node].children.binary_search_by_key(&tid, |e| e.0) else {
                    break;
                };
                node = self.nodes[node].children[edge].1 as usize;
                if let Some(pid) = self.nodes[node].phrase {
                    best = Some((j + 1, pid));
                }
            }
            match best {
                Some((end, pid)) => {
                    for ev in &self.phrases[pid as usize].evidences {
                        annotations.push(Annotation { start: i, end, evidence: ev.clone() });
                    }
                    i = end;
                }
                None => i += 1,
            }
        }
        annotations
    }

    /// Like [`Lexicon::annotate`], recording an
    /// [`annotate`](obcs_telemetry::stage::ANNOTATE) span on `rec`
    /// (see DESIGN.md §10).
    pub fn annotate_traced(
        &self,
        utterance: &str,
        rec: &dyn obcs_telemetry::Recorder,
    ) -> Vec<Annotation> {
        let _span = obcs_telemetry::span(rec, obcs_telemetry::stage::ANNOTATE);
        self.annotate(utterance)
    }

    /// The pre-trie reference annotator: greedy longest match via per-span
    /// token joins and hash lookups. Semantically identical to
    /// [`Lexicon::annotate`] (a property test enforces it); kept as the
    /// oracle and as the "before" side of `repro perf`.
    #[doc(hidden)]
    pub fn annotate_scan(&self, utterance: &str) -> Vec<Annotation> {
        let tokens = tokens_of(utterance);
        let mut annotations = Vec::new();
        let mut i = 0;
        while i < tokens.len() {
            let mut matched = false;
            let max_len = self.max_tokens.min(tokens.len() - i);
            for len in (1..=max_len).rev() {
                let phrase = tokens[i..i + len].join(" ");
                let evs = self.lookup(&phrase);
                if !evs.is_empty() {
                    for ev in evs {
                        annotations.push(Annotation {
                            start: i,
                            end: i + len,
                            evidence: ev.clone(),
                        });
                    }
                    i += len;
                    matched = true;
                    break;
                }
            }
            if !matched {
                i += 1;
            }
        }
        annotations
    }

    /// Replaces every recognised *instance* span with a placeholder token
    /// derived from its concept (`"dosage for Aspirin"` → `"dosage for
    /// entdrug"`). Intent classifiers train and predict on masked text so
    /// specific entity values don't act as spurious intent features — the
    /// paper's intent + entity separation. Annotates, then
    /// [`mask_annotated`].
    pub fn mask(&self, utterance: &str, onto: &Ontology) -> String {
        mask_annotated(utterance, &self.annotate(utterance), onto)
    }

    /// Finds instance values whose text *contains* the given partial
    /// phrase — the paper's partial-entity matching (§6.1): "Calcium" →
    /// ["Calcium Carbonate", ...]. Returns (concept, value) pairs sorted
    /// for determinism.
    ///
    /// Candidates come from the inverted index: any phrase containing the
    /// needle must have a token that contains the needle's first token as
    /// a substring, so only the (much smaller) distinct-token inventory is
    /// scanned and only indexed candidates are verified.
    pub fn partial_matches(&self, partial: &str) -> Vec<(ConceptId, String)> {
        let needle = normalize(partial);
        // Very short fragments match half the vocabulary; require a
        // meaningful stem. A phrase with an exact entry is a full match,
        // not a partial one.
        if needle.len() < 4 || self.phrase_ids.contains_key(&needle) {
            return Vec::new();
        }
        let first = needle.split(' ').next().unwrap_or(&needle);
        let mut candidates: Vec<u32> = Vec::new();
        for (tid, token) in self.tokens.iter().enumerate() {
            if token.contains(first) {
                candidates.extend_from_slice(&self.occurrences[tid]);
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        let mut out: Vec<(ConceptId, String)> = candidates
            .into_iter()
            .map(|pid| &self.phrases[pid as usize])
            .filter(|p| p.text.contains(&needle) && p.text != needle)
            .flat_map(|p| {
                p.evidences.iter().filter_map(|ev| match ev {
                    Evidence::Instance { concept, value } => Some((*concept, value.clone())),
                    Evidence::Concept(_) => None,
                })
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// The pre-index reference for [`Lexicon::partial_matches`]: a linear
    /// `contains` scan over every phrase. Oracle + perf baseline.
    #[doc(hidden)]
    pub fn partial_matches_scan(&self, partial: &str) -> Vec<(ConceptId, String)> {
        let needle = normalize(partial);
        if needle.len() < 4 || self.phrase_ids.contains_key(&needle) {
            return Vec::new();
        }
        let mut out: Vec<(ConceptId, String)> = self
            .phrases
            .iter()
            .filter(|p| p.text.contains(&needle) && p.text != needle)
            .flat_map(|p| {
                p.evidences.iter().filter_map(|ev| match ev {
                    Evidence::Instance { concept, value } => Some((*concept, value.clone())),
                    Evidence::Concept(_) => None,
                })
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

/// [`Lexicon::mask`] over the annotations [`Lexicon::annotate`] already
/// made for `utterance`: its normalised tokens joined by single spaces,
/// with each instance span replaced by `ent` and its lowercased concept
/// name. One walk over the utterance, with a cursor over the annotations
/// (`annotate` orders them by start). Where several annotations start at
/// one token, the first instance evidence names the placeholder.
pub fn mask_annotated(utterance: &str, annotations: &[Annotation], onto: &Ontology) -> String {
    let mut out = String::with_capacity(utterance.len());
    // The next annotation not yet behind the walk.
    let mut next = 0;
    // Index of the token being read, or of the next one to start.
    let mut token = 0;
    // Tokens below this index lie inside an already masked span.
    let mut masked_until = 0;
    let (mut in_token, mut copy) = (false, false);
    for ch in utterance.chars() {
        if !ch.is_alphanumeric() {
            if in_token {
                in_token = false;
                token += 1;
            }
            continue;
        }
        if !in_token {
            in_token = true;
            copy = token >= masked_until;
            if copy {
                while annotations.get(next).is_some_and(|a| a.start < token) {
                    next += 1;
                }
                let instance = annotations[next..]
                    .iter()
                    .take_while(|a| a.start == token)
                    .find_map(|a| match a.evidence {
                        Evidence::Instance { concept, .. } => Some((concept, a.end)),
                        Evidence::Concept(_) => None,
                    });
                if !out.is_empty() {
                    out.push(' ');
                }
                if let Some((concept, end)) = instance {
                    out.push_str("ent");
                    out.push_str(&onto.concept_name(concept).to_lowercase());
                    masked_until = end;
                    copy = false;
                }
            }
        }
        if copy {
            out.extend(ch.to_lowercase());
        }
    }
    out
}

/// The phrase itself plus a naive singular/plural variant of its last
/// word (`precaution` ↔ `precautions`). Words already ending in `ss`
/// ("pharmacokinetics"-style nouns are handled by the plural variant) or
/// shorter than 3 characters are left alone.
fn number_variants(norm: &str) -> Vec<String> {
    let mut out = vec![norm.to_string()];
    let Some(last) = norm.rsplit(' ').next() else {
        return out;
    };
    if last.len() < 3 {
        return out;
    }
    if let Some(stem) = last.strip_suffix('s') {
        if !stem.ends_with('s') && stem.len() >= 3 {
            out.push(format!("{}{stem}", &norm[..norm.len() - last.len()]));
        }
    } else {
        out.push(format!("{norm}s"));
    }
    out
}

/// Normalises a phrase: lowercase, alphanumeric tokens joined by single
/// spaces.
pub fn normalize(phrase: &str) -> String {
    // `tokens_of(phrase).join(" ")`, built in one allocation.
    let mut out = String::with_capacity(phrase.len());
    for ch in phrase.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch.to_ascii_lowercase());
        } else if ch.is_alphanumeric() {
            out.extend(ch.to_lowercase());
        } else if !out.is_empty() && !out.ends_with(' ') {
            out.push(' ');
        }
    }
    if out.ends_with(' ') {
        out.pop();
    }
    out
}

fn tokens_of(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            cur.extend(ch.to_lowercase());
        } else if !cur.is_empty() {
            tokens.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        tokens.push(cur);
    }
    tokens
}

/// `DrugFoodInteraction` → `Drug Food Interaction` (for lexicon phrases).
pub fn split_camel(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    let chars: Vec<char> = name.chars().collect();
    for (i, &ch) in chars.iter().enumerate() {
        if ch.is_uppercase() && i > 0 && chars[i - 1].is_lowercase() {
            out.push(' ');
        }
        out.push(ch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use obcs_kb::schema::{ColumnType, TableSchema};
    use obcs_kb::Value;
    use obcs_ontology::OntologyBuilder;

    fn fixture() -> (Ontology, KnowledgeBase, OntologyMapping) {
        let onto = OntologyBuilder::new("m")
            .data("Drug", &["name"])
            .data("DrugFoodInteraction", &["description"])
            .relation("interacts", "Drug", "DrugFoodInteraction")
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
        for (i, n) in ["Aspirin", "Calcium Carbonate", "Calcium Citrate"].iter().enumerate() {
            kb.insert("drug", vec![Value::Int(i as i64), Value::text(*n)]).unwrap();
        }
        let mapping = OntologyMapping::infer(&onto, &kb);
        (onto, kb, mapping)
    }

    #[test]
    fn annotates_concepts_and_instances() {
        let (onto, kb, mapping) = fixture();
        let lex = Lexicon::build(&onto, &kb, &mapping);
        let drug = onto.concept_id("Drug").unwrap();
        let anns = lex.annotate("show me the drug aspirin");
        assert_eq!(anns.len(), 2);
        assert_eq!(anns[0].evidence, Evidence::Concept(drug));
        assert_eq!(anns[1].evidence, Evidence::Instance { concept: drug, value: "Aspirin".into() });
    }

    #[test]
    fn longest_match_wins() {
        let (onto, kb, mapping) = fixture();
        let lex = Lexicon::build(&onto, &kb, &mapping);
        let anns = lex.annotate("dosage of calcium carbonate please");
        let values: Vec<&str> = anns
            .iter()
            .filter_map(|a| match &a.evidence {
                Evidence::Instance { value, .. } => Some(value.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(values, vec!["Calcium Carbonate"]);
    }

    #[test]
    fn camel_case_concepts_match_spaced_text() {
        let (onto, kb, mapping) = fixture();
        let lex = Lexicon::build(&onto, &kb, &mapping);
        let dfi = onto.concept_id("DrugFoodInteraction").unwrap();
        let anns = lex.annotate("any drug food interaction for aspirin?");
        assert!(anns.iter().any(|a| a.evidence == Evidence::Concept(dfi)));
    }

    #[test]
    fn case_insensitive_matching() {
        let (onto, kb, mapping) = fixture();
        let lex = Lexicon::build(&onto, &kb, &mapping);
        let anns = lex.annotate("ASPIRIN");
        assert_eq!(anns.len(), 1);
    }

    #[test]
    fn synonyms_via_add_phrase() {
        let (onto, kb, mapping) = fixture();
        let mut lex = Lexicon::build(&onto, &kb, &mapping);
        let drug = onto.concept_id("Drug").unwrap();
        lex.add_phrase("medicine", Evidence::Concept(drug));
        let anns = lex.annotate("which medicine helps");
        assert_eq!(anns[0].evidence, Evidence::Concept(drug));
    }

    #[test]
    fn partial_entity_matching() {
        let (onto, kb, mapping) = fixture();
        let lex = Lexicon::build(&onto, &kb, &mapping);
        let matches = lex.partial_matches("calcium");
        let values: Vec<&str> = matches.iter().map(|(_, v)| v.as_str()).collect();
        assert_eq!(values, vec!["Calcium Carbonate", "Calcium Citrate"]);
        assert!(lex.partial_matches("aspirin").is_empty(), "exact match is not partial");
        assert!(lex.partial_matches("").is_empty());
    }

    #[test]
    fn partial_matching_spans_token_boundaries() {
        let (onto, kb, mapping) = fixture();
        let lex = Lexicon::build(&onto, &kb, &mapping);
        // The needle crosses the space between two phrase tokens; the
        // index must still surface the phrase (candidate generation goes
        // through the needle's *first* token).
        let matches = lex.partial_matches("cium carbo");
        let values: Vec<&str> = matches.iter().map(|(_, v)| v.as_str()).collect();
        assert_eq!(values, vec!["Calcium Carbonate"]);
        assert_eq!(matches, lex.partial_matches_scan("cium carbo"));
    }

    #[test]
    fn no_overlapping_annotations() {
        let (onto, kb, mapping) = fixture();
        let lex = Lexicon::build(&onto, &kb, &mapping);
        let anns = lex.annotate("calcium carbonate calcium citrate");
        assert_eq!(anns.len(), 2);
        assert!(anns[0].end <= anns[1].start);
    }

    #[test]
    fn normalize_and_split_camel() {
        assert_eq!(normalize("  Hello,  WORLD! "), "hello world");
        // The one-pass form agrees with joining the tokens, Unicode
        // lowercasing (`İ` → `i̇`, `ẞ` → `ß`) and punctuation runs included.
        for s in ["", "  ", "Co-Q10 (200mg)", "İstanbul ẞtraße!", "naïve--café, já", "a.b"] {
            assert_eq!(normalize(s), tokens_of(s).join(" "), "{s:?}");
        }
        assert_eq!(split_camel("DrugFoodInteraction"), "Drug Food Interaction");
        assert_eq!(split_camel("Drug"), "Drug");
        // Consecutive capitals (acronyms) stay together.
        assert_eq!(split_camel("IVCompatibility"), "IVCompatibility");
    }

    #[test]
    fn ambiguous_phrase_yields_all_evidences() {
        let (onto, kb, mapping) = fixture();
        let mut lex = Lexicon::build(&onto, &kb, &mapping);
        let drug = onto.concept_id("Drug").unwrap();
        let dfi = onto.concept_id("DrugFoodInteraction").unwrap();
        lex.add_phrase("thing", Evidence::Concept(drug));
        lex.add_phrase("thing", Evidence::Concept(dfi));
        let anns = lex.annotate("thing");
        assert_eq!(anns.len(), 2);
    }

    #[test]
    fn trie_matches_scan_on_fixture_probes() {
        let (onto, kb, mapping) = fixture();
        let lex = Lexicon::build(&onto, &kb, &mapping);
        for probe in [
            "show me the drug aspirin",
            "dosage of calcium carbonate please",
            "calcium carbonate calcium citrate",
            "any drug food interaction for aspirin?",
            "ASPIRIN",
            "nothing matches here",
            "",
            "calcium calcium calcium",
            "drug drug food interaction",
        ] {
            assert_eq!(lex.annotate(probe), lex.annotate_scan(probe), "probe `{probe}`");
        }
    }

    #[test]
    fn empty_lexicon_annotates_nothing() {
        let lex = Lexicon::default();
        assert!(lex.annotate("anything at all").is_empty());
        assert!(lex.is_empty());
        assert_eq!(lex.len(), 0);
    }

    #[test]
    fn serde_roundtrip_preserves_matching() {
        let (onto, kb, mapping) = fixture();
        let lex = Lexicon::build(&onto, &kb, &mapping);
        let json = serde_json::to_string(&lex).unwrap();
        let back: Lexicon = serde_json::from_str(&json).unwrap();
        let probe = "dosage of calcium carbonate please";
        assert_eq!(lex.annotate(probe), back.annotate(probe));
        assert_eq!(lex.partial_matches("calcium"), back.partial_matches("calcium"));
    }
}
