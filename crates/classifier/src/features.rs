//! Vocabulary construction and TF-IDF feature vectors.
//!
//! Vectorization is the inner loop of both classifiers, so the vocabulary
//! caches its IDF weights at build time and exposes a batch
//! [`Vocabulary::vectorize_corpus`] API producing a sparse CSR matrix:
//! training code vectorizes the corpus exactly once and then iterates over
//! contiguous index/value slices instead of re-tokenizing text.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::tokenize::{features, for_each_token};

/// A vocabulary mapping feature strings to indices, with document
/// frequencies for IDF weighting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Vocabulary {
    index: HashMap<String, usize>,
    doc_freq: Vec<usize>,
    documents: usize,
    /// Smoothed IDF per feature, cached at build time.
    idf: Vec<f64>,
}

/// How [`Vocabulary::vectorize_corpus`] weights features.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureWeighting {
    /// Raw term counts (Naive Bayes).
    Counts,
    /// L2-normalised TF-IDF (logistic regression).
    Tfidf,
}

impl Vocabulary {
    /// Builds a vocabulary over a corpus, keeping features that appear in
    /// at least `min_df` documents.
    pub fn build<'a>(corpus: impl Iterator<Item = &'a str>, min_df: usize) -> Self {
        let mut df: HashMap<String, usize> = HashMap::new();
        let mut documents = 0usize;
        for doc in corpus {
            documents += 1;
            let mut feats = features(doc);
            feats.sort_unstable();
            feats.dedup();
            for f in feats {
                *df.entry(f).or_insert(0) += 1;
            }
        }
        let mut kept: Vec<(String, usize)> =
            df.into_iter().filter(|&(_, c)| c >= min_df.max(1)).collect();
        // Deterministic index assignment.
        kept.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut index = HashMap::with_capacity(kept.len());
        let mut doc_freq = Vec::with_capacity(kept.len());
        for (i, (feat, c)) in kept.into_iter().enumerate() {
            index.insert(feat, i);
            doc_freq.push(c);
        }
        let idf = doc_freq
            .iter()
            .map(|&c| ((1.0 + documents as f64) / (1.0 + c as f64)).ln() + 1.0)
            .collect();
        Vocabulary { index, doc_freq, documents, idf }
    }

    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Index of a feature if in the vocabulary.
    pub fn get(&self, feature: &str) -> Option<usize> {
        self.index.get(feature).copied()
    }

    /// Smoothed inverse document frequency of feature `i` (cached).
    pub fn idf(&self, i: usize) -> f64 {
        self.idf[i]
    }

    /// Sparse raw term counts of a text, as (feature index, count) in
    /// index order: the unigrams and bigrams of [`features`], looked up
    /// through two reused buffers instead of a `String` per feature, then
    /// sorted and run-length-encoded.
    pub fn counts(&self, text: &str) -> Vec<(usize, f64)> {
        // Both sized for a typical utterance, so neither grows.
        let mut v: Vec<(usize, f64)> = Vec::with_capacity(16);
        // The previous token; while a bigram is looked up, `previous_token`.
        let mut bigram = String::with_capacity(64);
        for_each_token(text, |token| {
            if !bigram.is_empty() {
                bigram.push('_');
                bigram.push_str(token);
                v.extend(self.get(&bigram).map(|i| (i, 1.0)));
                bigram.clear();
            }
            v.extend(self.get(token).map(|i| (i, 1.0)));
            bigram.push_str(token);
        });
        v.sort_unstable_by_key(|&(i, _)| i);
        v.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
        v
    }

    /// Sparse L2-normalised TF-IDF vector of a text.
    pub fn tfidf(&self, text: &str) -> Vec<(usize, f64)> {
        let mut v = self.counts(text);
        tfidf_in_place(&self.idf, &mut v);
        v
    }

    /// The pre-optimisation vectorizer, kept verbatim: rebuilds a hash map
    /// and re-evaluates the IDF formula on every call. Produces bitwise
    /// the same vector as [`Vocabulary::tfidf`] (a test enforces it); used
    /// by `LogReg::train_scan` as the "before" side of `repro perf`.
    #[doc(hidden)]
    pub fn tfidf_scan(&self, text: &str) -> Vec<(usize, f64)> {
        let mut counts: HashMap<usize, f64> = HashMap::new();
        for f in features(text) {
            if let Some(i) = self.get(&f) {
                *counts.entry(i).or_insert(0.0) += 1.0;
            }
        }
        let mut v: Vec<(usize, f64)> = counts.into_iter().collect();
        v.sort_unstable_by_key(|&(i, _)| i);
        for (i, w) in v.iter_mut() {
            *w *= ((1.0 + self.documents as f64) / (1.0 + self.doc_freq[*i] as f64)).ln() + 1.0;
        }
        let norm: f64 = v.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
        if norm > 0.0 {
            for (_, w) in v.iter_mut() {
                *w /= norm;
            }
        }
        v
    }

    /// Vectorizes a whole corpus into one sparse CSR matrix. Both
    /// classifiers train from this: text is tokenized exactly once and the
    /// SGD/counting loops run over contiguous slices.
    pub fn vectorize_corpus<'a>(
        &self,
        corpus: impl Iterator<Item = &'a str>,
        weighting: FeatureWeighting,
    ) -> CsrMatrix {
        let mut m = CsrMatrix::new();
        for doc in corpus {
            let mut row = self.counts(doc);
            if weighting == FeatureWeighting::Tfidf {
                tfidf_in_place(&self.idf, &mut row);
            }
            m.push_row(&row);
        }
        m
    }
}

/// Scales a sorted sparse count vector by IDF and L2-normalises it.
fn tfidf_in_place(idf: &[f64], v: &mut [(usize, f64)]) {
    for (i, w) in v.iter_mut() {
        *w *= idf[*i];
    }
    let norm: f64 = v.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
    if norm > 0.0 {
        for (_, w) in v.iter_mut() {
            *w /= norm;
        }
    }
}

/// A compressed-sparse-row matrix: row `i` occupies
/// `indices[indptr[i]..indptr[i+1]]` / `values[..]`, column indices sorted
/// ascending within each row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CsrMatrix {
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl Default for CsrMatrix {
    fn default() -> Self {
        CsrMatrix::new()
    }
}

impl CsrMatrix {
    pub fn new() -> Self {
        CsrMatrix { indptr: vec![0], indices: Vec::new(), values: Vec::new() }
    }

    /// Appends a row given as sorted (feature index, value) pairs.
    pub fn push_row(&mut self, row: &[(usize, f64)]) {
        for &(i, w) in row {
            self.indices.push(i as u32);
            self.values.push(w);
        }
        self.indptr.push(self.indices.len());
    }

    pub fn rows(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Row `i` as parallel (column indices, values) slices.
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let (a, b) = (self.indptr[i], self.indptr[i + 1]);
        (&self.indices[a..b], &self.values[a..b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<&'static str> {
        vec![
            "show me precautions for aspirin",
            "show me dosage for aspirin",
            "what drugs treat fever",
        ]
    }

    #[test]
    fn build_is_deterministic() {
        let v1 = Vocabulary::build(corpus().into_iter(), 1);
        let v2 = Vocabulary::build(corpus().into_iter(), 1);
        assert_eq!(v1.len(), v2.len());
        assert_eq!(v1.get("aspirin"), v2.get("aspirin"));
    }

    #[test]
    fn min_df_prunes_rare_features() {
        let v = Vocabulary::build(corpus().into_iter(), 2);
        assert!(v.get("aspirin").is_some(), "appears in 2 docs");
        assert!(v.get("fever").is_none(), "appears in 1 doc");
    }

    #[test]
    fn idf_downweights_common_features() {
        let v = Vocabulary::build(corpus().into_iter(), 1);
        let common = v.get("show").unwrap(); // 2 docs
        let rare = v.get("fever").unwrap(); // 1 doc
        assert!(v.idf(rare) > v.idf(common));
    }

    #[test]
    fn cached_idf_matches_formula() {
        let v = Vocabulary::build(corpus().into_iter(), 1);
        let i = v.get("show").unwrap();
        let expect = ((1.0 + v.documents as f64) / (1.0 + v.doc_freq[i] as f64)).ln() + 1.0;
        assert!((v.idf(i) - expect).abs() < 1e-15);
    }

    #[test]
    fn counts_accumulate_repeats() {
        let v = Vocabulary::build(["a a b"].into_iter(), 1);
        let c = v.counts("a a a b");
        let a_idx = v.get("a").unwrap();
        assert!(c.contains(&(a_idx, 3.0)));
    }

    #[test]
    fn counts_are_sorted_by_index() {
        let v = Vocabulary::build(corpus().into_iter(), 1);
        let c = v.counts("what drugs treat fever show me");
        assert!(c.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn tfidf_is_unit_norm() {
        let v = Vocabulary::build(corpus().into_iter(), 1);
        let t = v.tfidf("show me precautions for aspirin");
        let norm: f64 = t.iter().map(|&(_, w)| w * w).sum::<f64>();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tfidf_scan_is_a_bitwise_oracle() {
        let v = Vocabulary::build(corpus().into_iter(), 1);
        for doc in corpus().into_iter().chain(["show show me aspirin zzz", ""]) {
            assert_eq!(v.tfidf(doc), v.tfidf_scan(doc), "{doc:?}");
        }
    }

    #[test]
    fn oov_text_yields_empty_vector() {
        let v = Vocabulary::build(corpus().into_iter(), 1);
        assert!(v.tfidf("zzz qqq").is_empty());
    }

    #[test]
    fn vectorize_corpus_matches_per_text_vectors() {
        let v = Vocabulary::build(corpus().into_iter(), 1);
        for weighting in [FeatureWeighting::Counts, FeatureWeighting::Tfidf] {
            let m = v.vectorize_corpus(corpus().into_iter(), weighting);
            assert_eq!(m.rows(), corpus().len());
            for (r, doc) in corpus().into_iter().enumerate() {
                let expect = match weighting {
                    FeatureWeighting::Counts => v.counts(doc),
                    FeatureWeighting::Tfidf => v.tfidf(doc),
                };
                let (idx, vals) = m.row(r);
                assert_eq!(idx.len(), expect.len());
                for (k, &(i, w)) in expect.iter().enumerate() {
                    assert_eq!(idx[k] as usize, i);
                    assert!((vals[k] - w).abs() < 1e-15);
                }
            }
        }
    }

    #[test]
    fn csr_empty_rows_are_representable() {
        let mut m = CsrMatrix::new();
        m.push_row(&[]);
        m.push_row(&[(2, 1.0)]);
        m.push_row(&[]);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.nnz(), 1);
        assert!(m.row(0).0.is_empty());
        assert_eq!(m.row(1).0, &[2]);
        assert!(m.row(2).0.is_empty());
    }
}
