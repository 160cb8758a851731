//! Multinomial Naive Bayes intent classifier with Laplace smoothing.

use serde::{Deserialize, Serialize};

use crate::features::{FeatureWeighting, Vocabulary};
use crate::{Classifier, Dataset, Prediction};

/// Hyper-parameters for Naive Bayes training.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct NaiveBayesConfig {
    /// Laplace smoothing constant.
    pub alpha: f64,
    /// Minimum document frequency for vocabulary features.
    pub min_df: usize,
}

impl Default for NaiveBayesConfig {
    fn default() -> Self {
        NaiveBayesConfig { alpha: 0.5, min_df: 1 }
    }
}

/// A trained multinomial Naive Bayes model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NaiveBayes {
    vocab: Vocabulary,
    labels: Vec<String>,
    /// Log prior per label.
    log_prior: Vec<f64>,
    /// `log_likelihood[label][feature]` — log P(feature | label).
    log_likelihood: Vec<Vec<f64>>,
    /// Log-probability of an unseen feature per label (smoothing floor).
    log_unseen: Vec<f64>,
}

impl NaiveBayes {
    /// Trains on a labelled dataset.
    pub fn train(data: &Dataset, config: NaiveBayesConfig) -> Self {
        let vocab = Vocabulary::build(data.texts.iter().map(String::as_str), config.min_df);
        let labels: Vec<String> = data.label_set().into_iter().map(str::to_string).collect();
        let label_index = |l: &str| labels.iter().position(|x| x == l).expect("label in set");
        let k = labels.len();
        let v = vocab.len();

        // One batch vectorization pass; the counting loop runs over the
        // CSR matrix's contiguous slices, not over text.
        let x =
            vocab.vectorize_corpus(data.texts.iter().map(String::as_str), FeatureWeighting::Counts);
        let mut class_counts = vec![0usize; k];
        let mut feature_counts = vec![vec![0.0f64; v]; k];
        let mut total_counts = vec![0.0f64; k];
        for (row, label) in data.labels.iter().enumerate() {
            let li = label_index(label);
            class_counts[li] += 1;
            let (idx, vals) = x.row(row);
            for (&fi, &c) in idx.iter().zip(vals) {
                feature_counts[li][fi as usize] += c;
                total_counts[li] += c;
            }
        }
        let n = data.len().max(1) as f64;
        let log_prior: Vec<f64> =
            class_counts.iter().map(|&c| ((c as f64 + 1.0) / (n + k as f64)).ln()).collect();
        let mut log_likelihood = Vec::with_capacity(k);
        let mut log_unseen = Vec::with_capacity(k);
        for li in 0..k {
            let denom = total_counts[li] + config.alpha * (v as f64 + 1.0);
            log_likelihood.push(
                feature_counts[li].iter().map(|&c| ((c + config.alpha) / denom).ln()).collect(),
            );
            log_unseen.push((config.alpha / denom).ln());
        }
        NaiveBayes { vocab, labels, log_prior, log_likelihood, log_unseen }
    }

    /// The label inventory in training order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    fn scores(&self, text: &str) -> Vec<f64> {
        let counts = self.vocab.counts(text);
        self.labels
            .iter()
            .enumerate()
            .map(|(li, _)| {
                let mut s = self.log_prior[li];
                for &(fi, c) in &counts {
                    s += c * self.log_likelihood[li][fi];
                }
                s
            })
            .collect()
    }
}

/// Converts log scores to a softmax probability distribution.
pub(crate) fn softmax(scores: &[f64]) -> Vec<f64> {
    if scores.is_empty() {
        return Vec::new();
    }
    let max = scores.iter().cloned().fold(f64::MIN, f64::max);
    let exps: Vec<f64> = scores.iter().map(|&s| (s - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// What `predict_all(..)[0]` would be, without building the distribution:
/// the label of the highest softmax probability, ties broken toward the
/// smaller label as `predict_all`'s sort breaks them. Each probability
/// comes from [`softmax`]'s arithmetic, so the confidence is bit-identical;
/// only the winner's label is cloned. Empty scores predict the empty label
/// at zero confidence.
pub(crate) fn argmax(labels: &[String], scores: &[f64]) -> Prediction {
    let max = scores.iter().cloned().fold(f64::MIN, f64::max);
    let sum: f64 = scores.iter().map(|&s| (s - max).exp()).sum();
    let mut best: Option<(&String, f64)> = None;
    for (label, &s) in labels.iter().zip(scores) {
        let p = (s - max).exp() / sum;
        let wins = match best {
            None => true,
            Some((best_label, best_p)) => p > best_p || (p == best_p && label < best_label),
        };
        if wins {
            best = Some((label, p));
        }
    }
    match best {
        Some((label, confidence)) => Prediction { label: label.clone(), confidence },
        None => Prediction { label: String::new(), confidence: 0.0 },
    }
}

impl Classifier for NaiveBayes {
    fn predict(&self, text: &str) -> Prediction {
        argmax(&self.labels, &self.scores(text))
    }

    fn predict_all(&self, text: &str) -> Vec<(String, f64)> {
        let probs = softmax(&self.scores(text));
        let mut out: Vec<(String, f64)> = self.labels.iter().cloned().zip(probs).collect();
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("softmax probabilities are finite")
                .then_with(|| a.0.cmp(&b.0))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Dataset {
        let mut d = Dataset::new();
        for t in [
            "show me the precautions for aspirin",
            "give me the precautions for ibuprofen",
            "tell me about the precautions for tylenol",
            "precautions for benazepril please",
        ] {
            d.push(t, "precautions");
        }
        for t in [
            "what drugs treat fever",
            "which drug treats psoriasis",
            "show me drugs that treat acne",
            "drugs treating headache",
        ] {
            d.push(t, "treatment");
        }
        for t in [
            "dosage for tazarotene",
            "give me the dosage of aspirin",
            "what is the dose for ibuprofen",
            "dosing for amoxicillin",
        ] {
            d.push(t, "dosage");
        }
        d
    }

    #[test]
    fn learns_separable_intents() {
        let m = NaiveBayes::train(&data(), NaiveBayesConfig::default());
        assert_eq!(m.predict("precautions for calcium").label, "precautions");
        assert_eq!(m.predict("what drug treats migraine").label, "treatment");
        assert_eq!(m.predict("dosage of tylenol").label, "dosage");
    }

    #[test]
    fn confidence_is_probability() {
        let m = NaiveBayes::train(&data(), NaiveBayesConfig::default());
        let all = m.predict_all("precautions for calcium");
        let total: f64 = all.iter().map(|&(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(all[0].1 >= all[1].1);
        assert!(all[0].1 > 1.0 / 3.0);
    }

    #[test]
    fn oov_input_falls_back_to_priors() {
        let mut d = data();
        // Make precautions the dominant class.
        for i in 0..8 {
            d.push(format!("precaution variant {i}"), "precautions");
        }
        let m = NaiveBayes::train(&d, NaiveBayesConfig::default());
        let p = m.predict("zzzz qqqq xxxx");
        assert_eq!(p.label, "precautions", "prior should dominate for OOV");
        assert!(p.confidence < 0.9, "OOV prediction must not be overconfident");
    }

    #[test]
    fn empty_model_is_graceful() {
        let m = NaiveBayes::train(&Dataset::new(), NaiveBayesConfig::default());
        let p = m.predict("anything");
        assert!(p.label.is_empty());
        assert_eq!(p.confidence, 0.0);
    }

    #[test]
    fn single_class_predicts_it() {
        let mut d = Dataset::new();
        d.push("hello there", "greet");
        let m = NaiveBayes::train(&d, NaiveBayesConfig::default());
        let p = m.predict("hi");
        assert_eq!(p.label, "greet");
        assert!((p.confidence - 1.0).abs() < 1e-9);
    }

    #[test]
    fn softmax_properties() {
        assert!(softmax(&[]).is_empty());
        let p = softmax(&[0.0, 0.0]);
        assert!((p[0] - 0.5).abs() < 1e-12);
        // Large magnitude inputs don't overflow.
        let p = softmax(&[-1000.0, -1001.0]);
        assert!(p[0] > p[1]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn serde_roundtrip() {
        let m = NaiveBayes::train(&data(), NaiveBayesConfig::default());
        let json = serde_json::to_string(&m).unwrap();
        let m2: NaiveBayes = serde_json::from_str(&json).unwrap();
        assert_eq!(m.predict("dosage of tylenol").label, m2.predict("dosage of tylenol").label);
    }
}
