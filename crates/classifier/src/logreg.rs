//! One-vs-rest logistic regression trained with SGD over TF-IDF features.
//! Slower to train than Naive Bayes but usually better calibrated on the
//! bootstrapped training distributions; the `repro` harness compares both
//! (classifier ablation).
//!
//! ## Hot-path layout
//!
//! Training is the dominant offline cost, so it is laid out for speed
//! without giving up determinism:
//!
//! - the corpus is tokenized and vectorized exactly **once** into a sparse
//!   CSR matrix ([`Vocabulary::vectorize_corpus`]); the SGD loop runs over
//!   contiguous index/value slices, never over text;
//! - the per-epoch shuffle orders are drawn **up front** from the seeded
//!   RNG, which decouples the classes from the RNG stream;
//! - the one-vs-rest binary problems are independent, so classes are
//!   trained in parallel across [`std::thread::scope`] threads. Results
//!   are bitwise identical for any thread count (each class consumes the
//!   same orders and the same rows in the same order).
//!
//! The naive reference — re-tokenizing and re-vectorizing every example on
//! every epoch, all classes interleaved on one thread — is kept as
//! [`LogReg::train_scan`]: it is the equivalence oracle for tests and the
//! "before" side of the `repro perf` baseline.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::features::{CsrMatrix, FeatureWeighting, Vocabulary};
use crate::naive_bayes::{argmax, softmax};
use crate::{Classifier, Dataset, Prediction};

/// Hyper-parameters for logistic-regression training.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LogRegConfig {
    pub epochs: usize,
    pub learning_rate: f64,
    /// Learning-rate decay factor `d`: epoch `e` trains at
    /// `learning_rate / (1 + d·e)`.
    pub decay: f64,
    /// L2 regularisation strength.
    pub l2: f64,
    pub min_df: usize,
    /// RNG seed for example shuffling.
    pub seed: u64,
    /// One-vs-rest training threads; `0` means one per available core.
    /// The trained model is bitwise identical for every value.
    pub parallelism: usize,
}

impl Default for LogRegConfig {
    fn default() -> Self {
        LogRegConfig {
            epochs: 30,
            learning_rate: 0.5,
            decay: 0.1,
            l2: 1e-4,
            min_df: 1,
            seed: 7,
            parallelism: 0,
        }
    }
}

/// A trained one-vs-rest logistic-regression model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogReg {
    vocab: Vocabulary,
    labels: Vec<String>,
    /// `weights[label][feature]`.
    weights: Vec<Vec<f64>>,
    bias: Vec<f64>,
}

/// The per-epoch example orders, drawn up front so every class replays the
/// same shuffles regardless of which thread trains it. Mirrors the
/// sequential reference exactly: one `Vec` shuffled in place per epoch,
/// snapshotted after each shuffle.
fn epoch_orders(n: usize, config: &LogRegConfig) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    (0..config.epochs)
        .map(|_| {
            order.shuffle(&mut rng);
            order.clone()
        })
        .collect()
}

/// Trains the binary classifiers for the class block `[first, first + kb)`
/// over the pre-vectorized corpus, with the block's weights interleaved as
/// `wt[feature * kb + class]`. The transposed layout turns both the dot
/// products and the updates into unit-stride loops over the block, which
/// the compiler vectorizes; the classes never interact, so the per-class
/// arithmetic — and therefore the trained model — is bitwise identical to
/// training each class alone, for any block size.
fn train_class_block(
    x: &CsrMatrix,
    label_ids: &[usize],
    orders: &[Vec<usize>],
    features: usize,
    config: &LogRegConfig,
    first: usize,
    kb: usize,
) -> Vec<(Vec<f64>, f64)> {
    let mut wt = vec![0.0f64; features * kb];
    let mut bias = vec![0.0f64; kb];
    let mut err = vec![0.0f64; kb];
    for (epoch, order) in orders.iter().enumerate() {
        let lr = config.learning_rate / (1.0 + epoch as f64 * config.decay);
        for &i in order {
            let (idx, vals) = x.row(i);
            // Accumulate the dot products from zero and add the bias last,
            // in the same association order as the sequential reference
            // (`bias + Σ`): float addition is not associative and the
            // models must stay bitwise equal.
            err.fill(0.0);
            for (&f, &xv) in idx.iter().zip(vals) {
                let row = &wt[f as usize * kb..f as usize * kb + kb];
                for (zc, wc) in err.iter_mut().zip(row) {
                    *zc += xv * *wc;
                }
            }
            let yi = label_ids[i];
            for (c, (zc, bc)) in err.iter_mut().zip(&bias).enumerate() {
                let target = if first + c == yi { 1.0 } else { 0.0 };
                *zc = sigmoid(*bc + *zc) - target;
            }
            for (bc, ec) in bias.iter_mut().zip(&err) {
                *bc -= lr * *ec;
            }
            for (&f, &xv) in idx.iter().zip(vals) {
                let row = &mut wt[f as usize * kb..f as usize * kb + kb];
                for (wc, ec) in row.iter_mut().zip(&err) {
                    *wc -= lr * (*ec * xv + config.l2 * *wc);
                }
            }
        }
    }
    (0..kb).map(|c| ((0..features).map(|f| wt[f * kb + c]).collect(), bias[c])).collect()
}

fn effective_parallelism(requested: usize, classes: usize) -> usize {
    let t = if requested == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        requested
    };
    t.min(classes).max(1)
}

impl LogReg {
    /// Trains one binary logistic regression per label (one-vs-rest),
    /// pre-vectorized and class-parallel; see the module docs for the
    /// determinism contract.
    pub fn train(data: &Dataset, config: LogRegConfig) -> Self {
        let vocab = Vocabulary::build(data.texts.iter().map(String::as_str), config.min_df);
        let labels: Vec<String> = data.label_set().into_iter().map(str::to_string).collect();
        let k = labels.len();
        let v = vocab.len();
        let x =
            vocab.vectorize_corpus(data.texts.iter().map(String::as_str), FeatureWeighting::Tfidf);
        let label_ids: Vec<usize> = data
            .labels
            .iter()
            .map(|l| labels.iter().position(|x| x == l).expect("label in set"))
            .collect();
        let orders = epoch_orders(data.len(), &config);

        let mut weights: Vec<Vec<f64>> = Vec::with_capacity(k);
        let mut bias: Vec<f64> = Vec::with_capacity(k);
        let threads = effective_parallelism(config.parallelism, k.max(1));
        if threads <= 1 || k <= 1 {
            for (w, b) in train_class_block(&x, &label_ids, &orders, v, &config, 0, k) {
                weights.push(w);
                bias.push(b);
            }
        } else {
            let chunk = k.div_ceil(threads);
            let trained: Vec<Vec<(Vec<f64>, f64)>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..k)
                    .step_by(chunk)
                    .map(|start| {
                        let end = (start + chunk).min(k);
                        let (x, label_ids, orders, config) = (&x, &label_ids, &orders, &config);
                        s.spawn(move || {
                            train_class_block(x, label_ids, orders, v, config, start, end - start)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("training thread panicked")).collect()
            });
            for (w, b) in trained.into_iter().flatten() {
                weights.push(w);
                bias.push(b);
            }
        }
        LogReg { vocab, labels, weights, bias }
    }

    /// The pre-CSR reference trainer: single-threaded, all classes
    /// interleaved, and every example re-tokenized and re-vectorized on
    /// every epoch. Produces a bitwise-identical model to
    /// [`LogReg::train`] (a test enforces it); kept as the oracle and as
    /// the "before" side of `repro perf`.
    #[doc(hidden)]
    pub fn train_scan(data: &Dataset, config: LogRegConfig) -> Self {
        let vocab = Vocabulary::build(data.texts.iter().map(String::as_str), config.min_df);
        let labels: Vec<String> = data.label_set().into_iter().map(str::to_string).collect();
        let k = labels.len();
        let v = vocab.len();
        let label_ids: Vec<usize> = data
            .labels
            .iter()
            .map(|l| labels.iter().position(|x| x == l).expect("label in set"))
            .collect();

        let mut weights = vec![vec![0.0f64; v]; k];
        let mut bias = vec![0.0f64; k];
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        for epoch in 0..config.epochs {
            order.shuffle(&mut rng);
            let lr = config.learning_rate / (1.0 + epoch as f64 * config.decay);
            for &i in &order {
                let x = vocab.tfidf_scan(&data.texts[i]);
                let yi = label_ids[i];
                for li in 0..k {
                    let target = if li == yi { 1.0 } else { 0.0 };
                    let z = bias[li] + x.iter().map(|&(f, w)| w * weights[li][f]).sum::<f64>();
                    let err = sigmoid(z) - target;
                    bias[li] -= lr * err;
                    let wl = &mut weights[li];
                    for &(f, w) in &x {
                        wl[f] -= lr * (err * w + config.l2 * wl[f]);
                    }
                }
            }
        }
        LogReg { vocab, labels, weights, bias }
    }

    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    fn scores(&self, text: &str) -> Vec<f64> {
        let x = self.vocab.tfidf(text);
        (0..self.labels.len())
            .map(|li| self.bias[li] + x.iter().map(|&(f, w)| w * self.weights[li][f]).sum::<f64>())
            .collect()
    }
}

fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl Classifier for LogReg {
    fn predict(&self, text: &str) -> Prediction {
        argmax(&self.labels, &self.scores(text))
    }

    fn predict_all(&self, text: &str) -> Vec<(String, f64)> {
        let probs = softmax(&self.scores(text));
        let mut out: Vec<(String, f64)> = self.labels.iter().cloned().zip(probs).collect();
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).expect("probabilities are finite").then_with(|| a.0.cmp(&b.0))
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
            "tell me about precautions for tylenol",
        ] {
            d.push(t, "precautions");
        }
        for t in [
            "what drugs treat fever",
            "which drug treats psoriasis",
            "show me drugs that treat acne",
        ] {
            d.push(t, "treatment");
        }
        d
    }

    #[test]
    fn learns_separable_intents() {
        let m = LogReg::train(&data(), LogRegConfig::default());
        assert_eq!(m.predict("precautions for calcium").label, "precautions");
        assert_eq!(m.predict("what drug treats migraine").label, "treatment");
    }

    #[test]
    fn training_is_deterministic_for_fixed_seed() {
        let m1 = LogReg::train(&data(), LogRegConfig::default());
        let m2 = LogReg::train(&data(), LogRegConfig::default());
        let a = m1.predict_all("drugs that treat fever");
        let b = m2.predict_all("drugs that treat fever");
        assert_eq!(a, b);
    }

    #[test]
    fn csr_parallel_training_matches_naive_reference_bitwise() {
        let d = data();
        let reference = LogReg::train_scan(&d, LogRegConfig::default());
        for parallelism in [1, 2, 4] {
            let m = LogReg::train(&d, LogRegConfig { parallelism, ..LogRegConfig::default() });
            assert_eq!(m.weights, reference.weights, "parallelism {parallelism}");
            assert_eq!(m.bias, reference.bias, "parallelism {parallelism}");
        }
    }

    #[test]
    fn decay_config_changes_training() {
        let fast = LogReg::train(&data(), LogRegConfig { decay: 0.0, ..LogRegConfig::default() });
        let slow = LogReg::train(&data(), LogRegConfig { decay: 5.0, ..LogRegConfig::default() });
        assert_ne!(fast.weights, slow.weights, "decay must feed the LR schedule");
        // Epoch 0 runs at the undecayed rate either way; later epochs run at
        // learning_rate / (1 + decay·e).
        let e = 3usize;
        let cfg = LogRegConfig::default();
        let expect = cfg.learning_rate / (1.0 + e as f64 * cfg.decay);
        assert!((expect - 0.5 / 1.3).abs() < 1e-12);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let m = LogReg::train(&data(), LogRegConfig::default());
        let all = m.predict_all("precautions for x");
        let total: f64 = all.iter().map(|&(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_model_is_graceful() {
        let m = LogReg::train(&Dataset::new(), LogRegConfig::default());
        let p = m.predict("anything");
        assert!(p.label.is_empty());
    }

    #[test]
    fn sigmoid_is_stable() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!(sigmoid(-1000.0) < 1e-100);
    }
}
