//! Latent Dirichlet Allocation via collapsed Gibbs sampling.
//!
//! A real LDA implementation (not a simulation): the paper trains PLDA
//! with 500 topics on the 80% training split and ranks documents by the
//! similarity of their topic mixtures. At our corpus scale a few dozen
//! topics and a few dozen sweeps converge; the behavioural signature —
//! topic mixing smooths similarity but destroys exact-document recovery
//! (lowest HIT@k in Table IV) — is preserved.

use newslink_util::{DetRng, FxHashMap};

/// LDA hyperparameters.
#[derive(Debug, Clone)]
pub struct LdaConfig {
    /// Number of latent topics.
    pub topics: usize,
    /// Dirichlet prior on document–topic mixtures.
    pub alpha: f64,
    /// Dirichlet prior on topic–word distributions.
    pub beta: f64,
    /// Gibbs sweeps over the training corpus.
    pub train_sweeps: usize,
    /// Gibbs sweeps for folding in an unseen document.
    pub infer_sweeps: usize,
    /// Sampler seed.
    pub seed: u64,
}

impl Default for LdaConfig {
    fn default() -> Self {
        Self {
            topics: 32,
            alpha: 0.1,
            beta: 0.01,
            train_sweeps: 30,
            infer_sweeps: 15,
            seed: 0x1DA,
        }
    }
}

/// A trained LDA model.
#[derive(Debug, Clone)]
pub struct Lda {
    config: LdaConfig,
    vocab: FxHashMap<String, usize>,
    /// `topic_word[k][w]` — topic-word assignment counts.
    topic_word: Vec<Vec<u32>>,
    /// `topic_total[k]` — tokens assigned to topic k.
    topic_total: Vec<u64>,
}

impl Lda {
    /// Train on term streams via collapsed Gibbs sampling.
    pub fn train<S: AsRef<str>>(docs: &[Vec<S>], config: LdaConfig) -> Self {
        assert!(config.topics > 0, "LDA needs at least one topic");
        let mut vocab: FxHashMap<String, usize> = FxHashMap::default();
        let corpus: Vec<Vec<usize>> = docs
            .iter()
            .map(|d| {
                d.iter()
                    .map(|t| {
                        let next = vocab.len();
                        *vocab.entry(t.as_ref().to_string()).or_insert(next)
                    })
                    .collect()
            })
            .collect();
        let v = vocab.len();
        let k = config.topics;
        let mut rng = DetRng::new(config.seed);

        let mut topic_word = vec![vec![0u32; v]; k];
        let mut topic_total = vec![0u64; k];
        let mut doc_topic: Vec<Vec<u32>> = corpus.iter().map(|_| vec![0u32; k]).collect();
        let mut assignments: Vec<Vec<usize>> = corpus
            .iter()
            .map(|doc| doc.iter().map(|_| 0usize).collect())
            .collect();

        // Random initialization.
        for (d, doc) in corpus.iter().enumerate() {
            for (i, &w) in doc.iter().enumerate() {
                let z = rng.below(k);
                assignments[d][i] = z;
                doc_topic[d][z] += 1;
                topic_word[z][w] += 1;
                topic_total[z] += 1;
            }
        }

        let beta_sum = config.beta * v as f64;
        let mut weights = vec![0.0f64; k];
        for _sweep in 0..config.train_sweeps {
            for (d, doc) in corpus.iter().enumerate() {
                for (i, &w) in doc.iter().enumerate() {
                    let old = assignments[d][i];
                    doc_topic[d][old] -= 1;
                    topic_word[old][w] -= 1;
                    topic_total[old] -= 1;
                    for (z, wt) in weights.iter_mut().enumerate() {
                        *wt = (f64::from(doc_topic[d][z]) + config.alpha)
                            * (f64::from(topic_word[z][w]) + config.beta)
                            / (topic_total[z] as f64 + beta_sum);
                    }
                    let z = rng.pick_weighted(&weights).unwrap_or(old);
                    assignments[d][i] = z;
                    doc_topic[d][z] += 1;
                    topic_word[z][w] += 1;
                    topic_total[z] += 1;
                }
            }
        }

        Self {
            config,
            vocab,
            topic_word,
            topic_total,
        }
    }

    /// Vocabulary size.
    #[cfg(test)]
    pub(crate) fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// Fold in an unseen term stream, returning its topic mixture θ.
    ///
    /// Uses a per-document sampler seeded from the stream so inference is
    /// deterministic per input. Out-of-vocabulary words are skipped.
    pub fn infer<S: AsRef<str>>(&self, terms: &[S]) -> Vec<f64> {
        let k = self.config.topics;
        let words: Vec<usize> = terms
            .iter()
            .filter_map(|t| self.vocab.get(t.as_ref()).copied())
            .collect();
        let mut theta = vec![self.config.alpha; k];
        if words.is_empty() {
            let sum: f64 = theta.iter().sum();
            for t in theta.iter_mut() {
                *t /= sum;
            }
            return theta;
        }
        let mix = words.iter().fold(self.config.seed, |acc, &w| {
            acc.rotate_left(7) ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        });
        let mut rng = DetRng::new(mix);
        let v = self.vocab.len();
        let beta_sum = self.config.beta * v as f64;
        let mut doc_topic = vec![0u32; k];
        let mut assignments = vec![0usize; words.len()];
        for (i, &w) in words.iter().enumerate() {
            let _ = w;
            let z = rng.below(k);
            assignments[i] = z;
            doc_topic[z] += 1;
        }
        let mut weights = vec![0.0f64; k];
        for _ in 0..self.config.infer_sweeps {
            for (i, &w) in words.iter().enumerate() {
                let old = assignments[i];
                doc_topic[old] -= 1;
                for (z, wt) in weights.iter_mut().enumerate() {
                    *wt = (f64::from(doc_topic[z]) + self.config.alpha)
                        * (f64::from(self.topic_word[z][w]) + self.config.beta)
                        / (self.topic_total[z] as f64 + beta_sum);
                }
                let z = rng.pick_weighted(&weights).unwrap_or(old);
                assignments[i] = z;
                doc_topic[z] += 1;
            }
        }
        for (z, &c) in doc_topic.iter().enumerate() {
            theta[z] += f64::from(c);
        }
        let sum: f64 = theta.iter().sum();
        for t in theta.iter_mut() {
            *t /= sum;
        }
        theta
    }

    /// Cosine similarity between two topic mixtures.
    pub fn similarity(theta_a: &[f64], theta_b: &[f64]) -> f64 {
        let dot: f64 = theta_a.iter().zip(theta_b).map(|(a, b)| a * b).sum();
        let na: f64 = theta_a.iter().map(|a| a * a).sum::<f64>().sqrt();
        let nb: f64 = theta_b.iter().map(|b| b * b).sum::<f64>().sqrt();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na * nb)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn terms(s: &str) -> Vec<String> {
        s.split_whitespace().map(|w| w.to_string()).collect()
    }

    /// Two clearly separated topics: conflict vs sports.
    fn corpus() -> Vec<Vec<String>> {
        let conflict = [
            "bomb attack city forces casualties militants strike",
            "militants attack forces bomb strike casualties war",
            "war forces strike militants bomb city attack",
            "casualties city war attack strike bomb militants",
        ];
        let sports = [
            "match goal team fans stadium championship score",
            "team score match championship goal stadium fans",
            "fans stadium goal team score match championship",
            "championship match team stadium fans score goal",
        ];
        conflict
            .iter()
            .chain(sports.iter())
            .map(|s| terms(s))
            .collect()
    }

    fn small_config() -> LdaConfig {
        LdaConfig {
            topics: 4,
            train_sweeps: 60,
            infer_sweeps: 30,
            ..LdaConfig::default()
        }
    }

    #[test]
    fn training_is_deterministic() {
        let a = Lda::train(&corpus(), small_config());
        let b = Lda::train(&corpus(), small_config());
        assert_eq!(a.infer(&terms("bomb attack")), b.infer(&terms("bomb attack")));
    }

    #[test]
    fn theta_is_a_distribution() {
        let m = Lda::train(&corpus(), small_config());
        let theta = m.infer(&terms("bomb attack city"));
        assert_eq!(theta.len(), 4);
        let sum: f64 = theta.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(theta.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn same_topic_documents_are_more_similar() {
        let m = Lda::train(&corpus(), small_config());
        let q = m.infer(&terms("bomb attack forces"));
        let conflict = m.infer(&terms("militants strike casualties"));
        let sports = m.infer(&terms("match goal stadium"));
        assert!(
            Lda::similarity(&q, &conflict) > Lda::similarity(&q, &sports),
            "topic separation failed"
        );
    }

    #[test]
    fn oov_only_document_gets_uniform_theta() {
        let m = Lda::train(&corpus(), small_config());
        let theta = m.infer(&terms("zzz yyy xxx"));
        let expected = 1.0 / 4.0;
        assert!(theta.iter().all(|&t| (t - expected).abs() < 1e-9));
    }

    #[test]
    fn similarity_bounds() {
        let a = [0.7, 0.1, 0.1, 0.1];
        assert!((Lda::similarity(&a, &a) - 1.0).abs() < 1e-12);
        assert_eq!(Lda::similarity(&a, &[0.0; 4]), 0.0);
    }

    #[test]
    fn vocab_and_topics_exposed() {
        let m = Lda::train(&corpus(), small_config());
        assert!(m.vocab_size() >= 14);
        assert_eq!(m.config.topics, 4);
    }
}
