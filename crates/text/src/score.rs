//! BM25, the one similarity function over the inverted index.
//!
//! [`Bm25`] is the probabilistic relevance function Lucene 7.x uses by
//! default (the paper's NS component scores with "BM25 with default
//! settings provided by Lucene"). It scores one `(query-term, document)`
//! contribution at a time against explicit collection statistics; the
//! exhaustive executor ([`crate::search`]) accumulates contributions
//! term-at-a-time, the pruned one ([`crate::maxscore`])
//! document-at-a-time, and both call the same float operations.

use crate::inverted::CollectionStats;

/// Okapi BM25 (Robertson & Zaragoza), Lucene defaults `k1 = 1.2`,
/// `b = 0.75`, with Lucene's non-negative idf formulation.
#[derive(Debug, Clone, Copy)]
pub struct Bm25 {
    /// Term-frequency saturation.
    pub k1: f64,
    /// Length normalization strength.
    pub b: f64,
}

impl Default for Bm25 {
    fn default() -> Self {
        Self { k1: 1.2, b: 0.75 }
    }
}

impl Bm25 {
    /// Lucene-style idf: `ln(1 + (N - df + 0.5) / (df + 0.5))`.
    pub(crate) fn idf(&self, n_docs: usize, df: u32) -> f64 {
        let n = n_docs as f64;
        let df = df as f64;
        (1.0 + (n - df + 0.5) / (df + 0.5)).ln()
    }

    /// BM25 contribution against explicit collection statistics.
    ///
    /// `stats` and `df` describe the whole collection while `doc_len` is the
    /// document's own token length, so a segmented index can score each
    /// segment locally under a global-stats overlay.
    pub fn contribution_with(
        &self,
        stats: CollectionStats,
        doc_len: u32,
        tf: u32,
        df: u32,
        qtf: u32,
    ) -> f64 {
        self.contribution_from_partial(stats, doc_len, tf, self.term_partial(stats, df, qtf))
    }

    /// The document-independent factor of a term's BM25 contribution:
    /// `qtf · idf(N, df)`. Constant across every posting of a query term,
    /// so the pruned evaluators fold it once per term instead of once per
    /// posting.
    pub(crate) fn term_partial(&self, stats: CollectionStats, df: u32, qtf: u32) -> f64 {
        qtf as f64 * self.idf(stats.docs, df)
    }

    /// Finish a contribution from a precomputed [`Self::term_partial`].
    ///
    /// `(qtf · idf) · sat` is exactly how `qtf as f64 * idf * sat`
    /// associates (f64 `*` is left-associative), so splitting the product
    /// at the term boundary is bit-identical to evaluating it whole —
    /// these float operations are the single source of truth that
    /// [`Self::contribution_with`] and the hot scan loops both delegate
    /// to.
    pub(crate) fn contribution_from_partial(
        &self,
        stats: CollectionStats,
        doc_len: u32,
        tf: u32,
        partial: f64,
    ) -> f64 {
        if tf == 0 {
            return 0.0;
        }
        let tf = tf as f64;
        let avg = stats.avg_doc_len().max(1e-9);
        let norm = 1.0 - self.b + self.b * (doc_len as f64 / avg);
        let sat = tf * (self.k1 + 1.0) / (tf + self.k1 * norm);
        partial * sat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inverted::{DocId, IndexBuilder, InvertedIndex};

    /// `s`'s contribution of a term to `doc` under `idx`'s own statistics.
    fn contribution(s: &Bm25, idx: &InvertedIndex, doc: DocId, tf: u32, df: u32) -> f64 {
        s.contribution_with(CollectionStats::from_index(idx), idx.doc_len(doc), tf, df, 1)
    }

    fn sample() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add_document(&["taliban", "attack", "pakistan", "attack"]);
        b.add_document(&["pakistan", "election", "results", "pakistan"]);
        b.add_document(&["cricket", "match", "score"]);
        b.build()
    }

    #[test]
    fn bm25_idf_decreases_with_df() {
        let s = Bm25::default();
        assert!(s.idf(100, 1) > s.idf(100, 10));
        assert!(s.idf(100, 10) > s.idf(100, 99));
        assert!(s.idf(100, 100) >= 0.0);
    }

    #[test]
    fn bm25_contribution_positive_and_saturating() {
        let idx = sample();
        let s = Bm25::default();
        let c1 = contribution(&s, &idx, DocId(0), 1, 1);
        let c2 = contribution(&s, &idx, DocId(0), 2, 1);
        let c10 = contribution(&s, &idx, DocId(0), 10, 1);
        assert!(c1 > 0.0);
        assert!(c2 > c1);
        // saturation: the step from 2→10 is less than 8× the step 0→1
        assert!(c10 - c2 < 8.0 * c1);
        assert_eq!(contribution(&s, &idx, DocId(0), 0, 1), 0.0);
    }

    #[test]
    fn bm25_rewards_rarity() {
        let idx = sample();
        let s = Bm25::default();
        // "taliban" (df=1) vs "pakistan" (df=2), same tf in same doc
        let rare = contribution(&s, &idx, DocId(0), 1, 1);
        let common = contribution(&s, &idx, DocId(0), 1, 2);
        assert!(rare > common);
    }

    #[test]
    fn bm25_length_normalization_penalizes_long_docs() {
        let mut b = IndexBuilder::new();
        b.add_document(&["x", "y"]);
        let long: Vec<&str> = std::iter::once("x")
            .chain(std::iter::repeat_n("z", 50))
            .collect();
        b.add_document(&long);
        let idx = b.build();
        let s = Bm25::default();
        let short = contribution(&s, &idx, DocId(0), 1, 2);
        let long = contribution(&s, &idx, DocId(1), 1, 2);
        assert!(short > long);
    }

    #[test]
    fn term_partial_split_is_bit_identical() {
        // The hot-loop kernel folds `qtf · idf` once per term and
        // multiplies by saturation per posting; the split must reproduce
        // the whole product bit for bit for every BM25 parameterization
        // the engine uses (prose b=0.75, node streams b=0).
        let idx = sample();
        let stats = CollectionStats::from_index(&idx);
        for scorer in [Bm25::default(), Bm25 { k1: 1.2, b: 0.0 }] {
            for doc in 0..3u32 {
                let doc_len = idx.doc_len(DocId(doc));
                for (tf, df, qtf) in [(1u32, 1, 1), (2, 2, 1), (3, 1, 2), (7, 3, 3), (0, 1, 1)] {
                    // The pre-split expression, written out literally.
                    let whole = if tf == 0 {
                        0.0
                    } else {
                        let tf = tf as f64;
                        let avg = stats.avg_doc_len().max(1e-9);
                        let norm = 1.0 - scorer.b + scorer.b * (doc_len as f64 / avg);
                        let sat = tf * (scorer.k1 + 1.0) / (tf + scorer.k1 * norm);
                        qtf as f64 * scorer.idf(stats.docs, df) * sat
                    };
                    let partial = scorer.term_partial(stats, df, qtf);
                    let split = scorer.contribution_from_partial(stats, doc_len, tf, partial);
                    assert_eq!(whole.to_bits(), split.to_bits());
                    let via_with = scorer.contribution_with(stats, doc_len, tf, df, qtf);
                    assert_eq!(whole.to_bits(), via_with.to_bits());
                }
            }
        }
    }
}
