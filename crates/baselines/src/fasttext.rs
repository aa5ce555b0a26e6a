//! The FastText-style judge embedding (DESIGN.md §6.8).
//!
//! The paper converts full test documents and results to FastText vectors
//! and measures SIM@k as their cosine. The judge only needs to be a *fixed
//! external* embedding space shared by all methods, so we reproduce
//! FastText's signature design — bags of character n-grams plus the word
//! itself — with deterministic hash vectors.

use newslink_nlp::tokenize_lower;
use newslink_util::FxHashMap;

use crate::vector::{add_assign, cosine, hash_vector, normalize};

/// A deterministic character-n-gram sentence/document embedder.
#[derive(Debug, Clone)]
pub struct FastTextEmbedder {
    dim: usize,
    seed: u64,
    min_gram: usize,
    max_gram: usize,
}

impl FastTextEmbedder {
    /// Standard configuration: 128 dimensions, 3–5-grams.
    pub fn new(dim: usize, seed: u64) -> Self {
        Self {
            dim,
            seed,
            min_gram: 3,
            max_gram: 5,
        }
    }

    /// The n-grams of `word`, FastText-style with boundary markers.
    fn ngrams(&self, word: &str) -> Vec<String> {
        let decorated: Vec<char> = format!("<{word}>").chars().collect();
        let mut grams = vec![word.to_string()];
        for n in self.min_gram..=self.max_gram {
            if decorated.len() < n {
                break;
            }
            for w in decorated.windows(n) {
                grams.push(w.iter().collect());
            }
        }
        grams
    }

    /// Embed one word (mean of its n-gram vectors).
    pub(crate) fn embed_word(&self, word: &str) -> Vec<f32> {
        let grams = self.ngrams(word);
        let mut v = vec![0.0f32; self.dim];
        for g in &grams {
            add_assign(&mut v, &hash_vector(g, self.dim, self.seed));
        }
        normalize(&mut v);
        v
    }

    /// Embed a text: tf-weighted mean of word vectors, L2-normalized.
    pub fn embed(&self, text: &str) -> Vec<f32> {
        let mut tf: FxHashMap<String, u32> = FxHashMap::default();
        for t in tokenize_lower(text) {
            *tf.entry(t).or_default() += 1;
        }
        let mut v = vec![0.0f32; self.dim];
        for (word, count) in tf {
            let wv = self.embed_word(&word);
            for (a, &x) in v.iter_mut().zip(&wv) {
                *a += count as f32 * x;
            }
        }
        normalize(&mut v);
        v
    }

    /// Cosine similarity of two texts in this space.
    pub fn similarity(&self, a: &str, b: &str) -> f64 {
        cosine(&self.embed(a), &self.embed(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ft() -> FastTextEmbedder {
        FastTextEmbedder::new(128, 42)
    }

    #[test]
    fn identical_texts_have_similarity_one() {
        let e = ft();
        let s = e.similarity("Taliban attack in Pakistan", "Taliban attack in Pakistan");
        assert!((s - 1.0).abs() < 1e-6);
    }

    #[test]
    fn embedding_is_deterministic() {
        let e = ft();
        assert_eq!(e.embed("some news text"), e.embed("some news text"));
    }

    #[test]
    fn related_texts_score_higher_than_unrelated() {
        let e = ft();
        let related = e.similarity(
            "Taliban bombing rocked Pakistan on Sunday",
            "Pakistan blamed Taliban for the bombing",
        );
        let unrelated = e.similarity(
            "Taliban bombing rocked Pakistan on Sunday",
            "the cricket final ended in a thrilling draw",
        );
        assert!(related > unrelated, "{related} <= {unrelated}");
    }

    #[test]
    fn char_ngrams_give_partial_credit_for_morphology() {
        let e = ft();
        // "bombing" vs "bombings" share most n-grams.
        let morph = cosine(&e.embed_word("bombing"), &e.embed_word("bombings"));
        let distinct = cosine(&e.embed_word("bombing"), &e.embed_word("election"));
        assert!(morph > distinct + 0.2, "{morph} vs {distinct}");
    }

    #[test]
    fn empty_text_is_zero_vector() {
        let e = ft();
        assert_eq!(e.embed(""), vec![0.0; 128]);
        assert_eq!(e.similarity("", "anything"), 0.0);
    }

    #[test]
    fn word_order_is_ignored() {
        let e = ft();
        let s = e.similarity("pakistan taliban attack", "attack taliban pakistan");
        assert!((s - 1.0).abs() < 1e-6);
    }
}
