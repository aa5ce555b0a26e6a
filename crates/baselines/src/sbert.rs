//! SBERT simulation (DESIGN.md §6.5).
//!
//! The paper uses the pretrained `bert-large-nli-mean-tokens` model. A
//! pretrained transformer is out of scope offline, so we reproduce the
//! *behavioral signature* Table IV shows for SBERT — very high SIM@k
//! (dense mean-pooled sentence vectors smooth similarity) but low HIT@k
//! (no exact term anchoring) — with SIF-weighted mean pooling of
//! deterministic word vectors. The smooth-inverse-frequency weights
//! (Arora et al., 2017) downweight frequent words exactly like BERT's
//! contextual attention effectively does for stopwords; frequencies come
//! from a fixed background estimate, keeping the model corpus-independent
//! ("pretrained").

use newslink_nlp::{stopwords::is_stopword, tokenize_lower};
use newslink_util::FxHashMap;

use crate::vector::{cosine, hash_vector, normalize};

/// Mean-pooled sentence embedder with SIF weighting.
#[derive(Debug, Clone)]
pub struct SbertEmbedder {
    dim: usize,
    seed: u64,
    /// SIF smoothing constant `a` in `a / (a + p(w))`.
    sif_a: f64,
}

impl SbertEmbedder {
    /// Standard configuration (the paper's SBERT uses 1024 dims; 256 keeps
    /// our brute-force ranking fast with identical behaviour).
    pub fn new(dim: usize, seed: u64) -> Self {
        Self {
            dim,
            seed,
            sif_a: 1e-3,
        }
    }

    /// A fixed background word-probability estimate: stopwords are very
    /// frequent; short words are more frequent than long ones. This is the
    /// "pretrained knowledge" stand-in — independent of any corpus.
    fn background_prob(word: &str) -> f64 {
        if is_stopword(word) {
            0.05
        } else {
            // ~Zipf by length: longer words are rarer.
            (0.01 / (word.len() as f64)).min(0.01)
        }
    }

    /// SIF weight for a word.
    fn weight(&self, word: &str) -> f64 {
        self.sif_a / (self.sif_a + Self::background_prob(word))
    }

    /// Embed a text: SIF-weighted mean of word vectors, L2-normalized.
    pub fn embed(&self, text: &str) -> Vec<f32> {
        let mut tf: FxHashMap<String, u32> = FxHashMap::default();
        for t in tokenize_lower(text) {
            *tf.entry(t).or_default() += 1;
        }
        let mut v = vec![0.0f32; self.dim];
        let mut total = 0.0f64;
        for (word, count) in tf {
            let w = self.weight(&word) * f64::from(count);
            let wv = hash_vector(&word, self.dim, self.seed);
            for (a, &x) in v.iter_mut().zip(&wv) {
                *a += (w as f32) * x;
            }
            total += w;
        }
        if total > 0.0 {
            normalize(&mut v);
        }
        v
    }

    /// Cosine similarity of two texts.
    pub fn similarity(&self, a: &str, b: &str) -> f64 {
        cosine(&self.embed(a), &self.embed(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sbert() -> SbertEmbedder {
        SbertEmbedder::new(256, 99)
    }

    #[test]
    fn content_words_outweigh_stopwords() {
        let e = sbert();
        assert!(e.weight("taliban") > e.weight("the") * 5.0);
    }

    #[test]
    fn identical_sentences_max_similarity() {
        let e = sbert();
        let s = e.similarity("Pakistan condemned the attack", "Pakistan condemned the attack");
        assert!((s - 1.0).abs() < 1e-6);
    }

    #[test]
    fn shared_content_words_dominate_similarity() {
        let e = sbert();
        let share = e.similarity(
            "the taliban attacked pakistan",
            "a taliban offensive in pakistan",
        );
        let none = e.similarity(
            "the taliban attacked pakistan",
            "a cricket final in melbourne",
        );
        assert!(share > none + 0.2, "{share} vs {none}");
    }

    #[test]
    fn stopword_only_overlap_scores_low() {
        let e = sbert();
        let s = e.similarity("the of and in", "the of and in but over");
        let t = e.similarity("taliban attack", "taliban attack");
        assert!(s < t);
    }

    #[test]
    fn deterministic() {
        let e = sbert();
        assert_eq!(e.embed("abc def"), e.embed("abc def"));
    }

    #[test]
    fn empty_text_zero_vector() {
        let e = sbert();
        assert_eq!(e.embed(""), vec![0.0; 256]);
    }
}
