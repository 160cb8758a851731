//! Property-based tests over both classifier families and the evaluation
//! machinery.

use obcs_classifier::features::Vocabulary;
use obcs_classifier::logreg::{LogReg, LogRegConfig};
use obcs_classifier::naive_bayes::{NaiveBayes, NaiveBayesConfig};
use obcs_classifier::split::stratified_split;
use obcs_classifier::tokenize::features;
use obcs_classifier::{Classifier, Dataset};
use proptest::prelude::*;

/// Words generated texts are drawn from: plurals the stemmer strips and
/// `ss` endings it keeps, contractions, mixed case, digits, non-ASCII.
const WORDS: &[&str] = &[
    "show",
    "me",
    "the",
    "precautions",
    "precaution",
    "for",
    "entdrug",
    "dose",
    "dosage",
    "what",
    "drugs",
    "treat",
    "Treats",
    "class",
    "don't",
    "it’s",
    "Ärzte",
    "x2",
    "12",
    "gas",
];

/// Separators between drawn words.
const SEPARATORS: &[&str] = &[" ", ", ", "? ", "-", "  "];

/// Labels generated datasets draw from; few, so ties and repeats occur.
const LABELS: &[&str] = &["b", "a", "c"];

/// A text of `words` (indices into `WORDS`, `SEPARATORS`).
fn text_of(words: &[(usize, usize)]) -> String {
    let mut text = String::new();
    for &(word, sep) in words {
        text.push_str(WORDS[word]);
        text.push_str(SEPARATORS[sep]);
    }
    text
}

fn words() -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0..WORDS.len(), 0..SEPARATORS.len()), 0..10)
}

/// The count `Vocabulary::counts` used to compute: every feature string
/// of `features`, looked up, sorted and run-length-encoded.
fn counts_oracle(vocab: &Vocabulary, text: &str) -> Vec<(usize, f64)> {
    let mut idx: Vec<usize> = features(text).iter().filter_map(|f| vocab.get(f)).collect();
    idx.sort_unstable();
    let mut out: Vec<(usize, f64)> = Vec::new();
    for i in idx {
        match out.last_mut() {
            Some(last) if last.0 == i => last.1 += 1.0,
            _ => out.push((i, 1.0)),
        }
    }
    out
}

/// `predict` is `predict_all()[0]`: the same label and, bit for bit, the
/// same confidence (or the empty prediction when there is none).
fn assert_predict_is_first_of_predict_all(
    model: &dyn Classifier,
    text: &str,
) -> Result<(), TestCaseError> {
    let pred = model.predict(text);
    match model.predict_all(text).into_iter().next() {
        Some((label, p)) => {
            prop_assert_eq!(&pred.label, &label, "{:?}", text);
            prop_assert_eq!(pred.confidence.to_bits(), p.to_bits(), "{:?}", text);
        }
        None => prop_assert!(pred.label.is_empty() && pred.confidence == 0.0),
    }
    Ok(())
}

fn dataset(labels: &[u8], texts: &[String]) -> Dataset {
    let mut d = Dataset::new();
    for (l, t) in labels.iter().zip(texts) {
        d.push(t.clone(), format!("c{}", l % 3));
    }
    d
}

proptest! {
    /// Stratified splitting partitions the dataset: no loss, no
    /// duplication, per-class counts preserved.
    #[test]
    fn split_partitions_dataset(
        labels in proptest::collection::vec(0u8..3, 4..60),
        frac in 0.1f64..0.9,
        seed in 0u64..1000,
    ) {
        let texts: Vec<String> = (0..labels.len()).map(|i| format!("text {i}")).collect();
        let data = dataset(&labels, &texts);
        let (train, test) = stratified_split(&data, frac, seed);
        prop_assert_eq!(train.len() + test.len(), data.len());
        let mut all: Vec<&String> = train.texts.iter().chain(test.texts.iter()).collect();
        all.sort();
        all.dedup();
        prop_assert_eq!(all.len(), data.len(), "no duplicates, no losses");
        // Per-class counts preserved across the split.
        for label in data.label_set() {
            let total = data.labels.iter().filter(|l| l.as_str() == label).count();
            let split_total = train.labels.iter().filter(|l| l.as_str() == label).count()
                + test.labels.iter().filter(|l| l.as_str() == label).count();
            prop_assert_eq!(total, split_total);
        }
    }

    /// Both models train without panicking on arbitrary corpora, and the
    /// training data itself is classified mostly correctly by NB when the
    /// classes use disjoint vocabulary.
    #[test]
    fn disjoint_vocabulary_is_learned(n_per_class in 2usize..8) {
        let mut data = Dataset::new();
        for i in 0..n_per_class {
            data.push(format!("alpha bravo charlie {i}"), "a");
            data.push(format!("delta echo foxtrot {i}"), "b");
            data.push(format!("golf hotel india {i}"), "c");
        }
        let nb = NaiveBayes::train(&data, NaiveBayesConfig::default());
        let lr = LogReg::train(&data, LogRegConfig { epochs: 20, ..Default::default() });
        for (text, label) in data.iter() {
            prop_assert_eq!(nb.predict(text).label, label.to_string());
            prop_assert_eq!(lr.predict(text).label, label.to_string());
        }
    }

    /// The buffered `counts` yields the `features()`-based count: the same
    /// `(index, count)` pairs in index order.
    #[test]
    fn counts_equal_the_features_oracle(
        corpus in proptest::collection::vec(words(), 1..8),
        probes in proptest::collection::vec(words(), 1..6),
        min_df in 1usize..3,
    ) {
        let docs: Vec<String> = corpus.iter().map(|w| text_of(w)).collect();
        let vocab = Vocabulary::build(docs.iter().map(String::as_str), min_df);
        for text in probes.iter().map(|w| text_of(w)).chain(docs.iter().cloned()) {
            prop_assert_eq!(vocab.counts(&text), counts_oracle(&vocab, &text), "{:?}", text);
        }
    }

    /// Both classifiers' `predict` equals `predict_all()[0]` in label and
    /// confidence, bit for bit. Documents are often repeated under
    /// several labels, so probabilities tie and the label order decides.
    #[test]
    fn predict_is_the_first_of_predict_all(
        examples in proptest::collection::vec((0..LABELS.len(), words()), 0..12),
        duplicate in any::<bool>(),
        probes in proptest::collection::vec(words(), 1..6),
    ) {
        let mut data = Dataset::new();
        for (label, w) in &examples {
            data.push(text_of(w), LABELS[*label]);
            if duplicate {
                // The same text under every label: equal likelihoods.
                for other in LABELS {
                    data.push(text_of(w), *other);
                }
            }
        }
        let nb = NaiveBayes::train(&data, NaiveBayesConfig::default());
        let lr = LogReg::train(&data, LogRegConfig { epochs: 5, ..Default::default() });
        for text in probes.iter().map(|w| text_of(w)) {
            assert_predict_is_first_of_predict_all(&nb, &text)?;
            assert_predict_is_first_of_predict_all(&lr, &text)?;
        }
    }

    /// Prediction confidence is a probability and predict_all is a
    /// distribution over exactly the trained labels.
    #[test]
    fn predictions_are_distributions(probe in "\\PC{0,40}") {
        let mut data = Dataset::new();
        data.push("one two three", "x");
        data.push("four five six", "y");
        let nb = NaiveBayes::train(&data, NaiveBayesConfig::default());
        let all = nb.predict_all(&probe);
        prop_assert_eq!(all.len(), 2);
        let total: f64 = all.iter().map(|&(_, p)| p).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(all.iter().all(|&(_, p)| (0.0..=1.0).contains(&p)));
    }
}

#[test]
fn logreg_and_nb_agree_on_easy_data() {
    let mut data = Dataset::new();
    for t in ["precautions for aspirin", "precautions for ibuprofen", "drug precautions"] {
        data.push(t, "precautions");
    }
    for t in ["what treats fever", "drugs that treat acne", "treatment for headache"] {
        data.push(t, "treatment");
    }
    let nb = NaiveBayes::train(&data, NaiveBayesConfig::default());
    let lr = LogReg::train(&data, LogRegConfig::default());
    for probe in ["precautions for tylenol", "what treats migraine"] {
        assert_eq!(nb.predict(probe).label, lr.predict(probe).label, "probe: {probe}");
    }
}
