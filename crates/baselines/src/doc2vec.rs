//! Doc2Vec substitute: random-indexing document embeddings (DESIGN.md
//! §6.4).
//!
//! gensim's PV training is replaced by *random indexing* (Kanerva et al.):
//! every word has a fixed sparse ternary index vector; training slides a
//! context window over the training split and accumulates, for each word,
//! the index vectors of its neighbours. Words used in similar contexts —
//! e.g. the synonym pools of the corpus templates — therefore end up with
//! similar *context vectors*, capturing word co-occurrence just as the
//! paper describes Doc2Vec doing ("uses the skip-gram model to capture the
//! word co-occurrences"). A document embeds as the idf-weighted mean of
//! its words' context vectors.

use newslink_util::FxHashMap;

use crate::vector::{add_assign, add_scaled, normalize, ternary_vector};

/// Training and inference configuration.
#[derive(Debug, Clone)]
pub struct Doc2VecConfig {
    /// Embedding dimensionality (the paper trains 500; 128 keeps brute-
    /// force ranking fast with the same behaviour).
    pub(crate) dim: usize,
    /// Nonzero entries per ternary index vector.
    pub(crate) nonzeros: usize,
    /// Context window radius.
    pub(crate) window: usize,
    /// Hash seed.
    pub(crate) seed: u64,
}

impl Default for Doc2VecConfig {
    fn default() -> Self {
        Self {
            dim: 128,
            nonzeros: 8,
            window: 4,
            seed: 0xD0C2,
        }
    }
}

/// A trained random-indexing model.
#[derive(Debug, Clone)]
pub struct Doc2Vec {
    config: Doc2VecConfig,
    /// word → accumulated context vector (unnormalized).
    context: FxHashMap<String, Vec<f32>>,
    /// word → training document frequency (for idf weighting).
    doc_freq: FxHashMap<String, u32>,
    /// number of training documents.
    n_docs: usize,
}

impl Doc2Vec {
    /// Train on the term streams of the training split.
    pub fn train<S: AsRef<str>>(docs: &[Vec<S>], config: Doc2VecConfig) -> Self {
        let mut context: FxHashMap<String, Vec<f32>> = FxHashMap::default();
        let mut doc_freq: FxHashMap<String, u32> = FxHashMap::default();
        let dim = config.dim;
        for doc in docs {
            let terms: Vec<&str> = doc.iter().map(|t| t.as_ref()).collect();
            let mut seen: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
            for (i, &w) in terms.iter().enumerate() {
                seen.insert(w);
                let lo = i.saturating_sub(config.window);
                let hi = (i + config.window + 1).min(terms.len());
                let entry = context
                    .entry(w.to_string())
                    .or_insert_with(|| vec![0.0f32; dim]);
                for (j, &c) in terms.iter().enumerate().take(hi).skip(lo) {
                    if j != i {
                        add_assign(
                            entry,
                            &ternary_vector(c, dim, config.nonzeros, config.seed),
                        );
                    }
                }
            }
            for w in seen {
                *doc_freq.entry(w.to_string()).or_default() += 1;
            }
        }
        Self {
            config,
            context,
            doc_freq,
            n_docs: docs.len(),
        }
    }

    /// Vocabulary size after training.
    #[cfg(test)]
    pub(crate) fn vocab_size(&self) -> usize {
        self.context.len()
    }

    /// idf weight; unseen words get the maximum idf.
    fn idf(&self, word: &str) -> f32 {
        let n = (self.n_docs.max(1)) as f64;
        let df = self.doc_freq.get(word).copied().unwrap_or(0) as f64;
        (((n + 1.0) / (df + 1.0)).ln() + 1.0) as f32
    }

    /// Embed a term stream: idf-weighted mean of context vectors. Unseen
    /// words fall back to their index vector (FastText-like OOV handling).
    pub fn embed<S: AsRef<str>>(&self, terms: &[S]) -> Vec<f32> {
        let dim = self.config.dim;
        let mut v = vec![0.0f32; dim];
        for t in terms {
            let w = t.as_ref();
            let idf = self.idf(w);
            match self.context.get(w) {
                Some(cv) => {
                    // Context vectors grow with corpus frequency; normalize
                    // per word so frequent words don't dominate.
                    let norm: f64 = cv.iter().map(|&x| f64::from(x).powi(2)).sum();
                    if norm > 0.0 {
                        add_scaled(&mut v, cv, idf / norm.sqrt() as f32);
                        continue;
                    }
                    add_scaled(
                        &mut v,
                        &ternary_vector(w, dim, self.config.nonzeros, self.config.seed),
                        idf,
                    );
                }
                None => add_scaled(
                    &mut v,
                    &ternary_vector(w, dim, self.config.nonzeros, self.config.seed),
                    idf,
                ),
            }
        }
        normalize(&mut v);
        v
    }

    /// Cosine similarity of two term streams.
    #[cfg(test)]
    pub(crate) fn similarity<S: AsRef<str>>(&self, a: &[S], b: &[S]) -> f64 {
        use crate::vector::cosine;
        cosine(&self.embed(a), &self.embed(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::cosine;

    fn terms(s: &str) -> Vec<String> {
        s.split_whitespace().map(|w| w.to_string()).collect()
    }

    fn training() -> Vec<Vec<String>> {
        // "struck" and "hit" share contexts; "cricket" lives elsewhere.
        vec![
            terms("bomb struck city officials said"),
            terms("bomb hit city officials said"),
            terms("blast struck town forces said"),
            terms("blast hit town forces said"),
            terms("cricket match drew fans stadium"),
            terms("cricket final drew crowds stadium"),
        ]
    }

    #[test]
    fn training_builds_vocab() {
        let m = Doc2Vec::train(&training(), Doc2VecConfig::default());
        assert!(m.vocab_size() >= 10);
    }

    #[test]
    fn synonyms_by_context_are_similar() {
        let m = Doc2Vec::train(&training(), Doc2VecConfig::default());
        let struck = m.embed(&terms("struck"));
        let hit = m.embed(&terms("hit"));
        let cricket = m.embed(&terms("cricket"));
        let syn = cosine(&struck, &hit);
        let diff = cosine(&struck, &cricket);
        assert!(syn > diff, "context similarity {syn} <= {diff}");
    }

    #[test]
    fn similar_documents_score_higher() {
        let m = Doc2Vec::train(&training(), Doc2VecConfig::default());
        let q = terms("bomb struck city");
        let rel = terms("blast hit town");
        let unrel = terms("cricket final stadium");
        assert!(m.similarity(&q, &rel) > m.similarity(&q, &unrel));
    }

    #[test]
    fn oov_words_still_embed() {
        let m = Doc2Vec::train(&training(), Doc2VecConfig::default());
        let v = m.embed(&terms("zeppelin"));
        assert!(v.iter().any(|&x| x != 0.0));
        // OOV embedding is deterministic.
        assert_eq!(v, m.embed(&terms("zeppelin")));
    }

    #[test]
    fn empty_input_embeds_to_zero() {
        let m = Doc2Vec::train(&training(), Doc2VecConfig::default());
        assert_eq!(m.embed::<&str>(&[]), vec![0.0; 128]);
        assert_eq!(m.similarity::<&str>(&[], &[]), 0.0);
    }

    #[test]
    fn deterministic_training() {
        let a = Doc2Vec::train(&training(), Doc2VecConfig::default());
        let b = Doc2Vec::train(&training(), Doc2VecConfig::default());
        assert_eq!(a.embed(&terms("bomb city")), b.embed(&terms("bomb city")));
    }
}
