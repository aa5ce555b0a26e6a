//! Query execution: term-at-a-time accumulation and top-k selection.

use newslink_util::{FxHashMap, TopK};

use crate::inverted::{CollectionStats, DocId, InvertedIndex};
use crate::score::{Bm25, Scorer};

/// A ranked result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// The matching document.
    pub doc: DocId,
    /// Its score under the searcher's scorer.
    pub score: f64,
}

/// Query-side term frequencies.
///
/// Build this **once** per query and reuse it for every segment: `FxHash`
/// is deterministic, so the same insertion sequence yields the same map
/// layout and therefore the same iteration order. Since each document
/// lives in exactly one segment, scoring every segment with one shared
/// `qtf` replays the exact per-document accumulation sequence of the
/// monolithic path — bit-identical sums.
pub fn query_tf<T: AsRef<str>>(query_terms: &[T]) -> FxHashMap<&str, u32> {
    let mut qtf: FxHashMap<&str, u32> = FxHashMap::default();
    for t in query_terms {
        *qtf.entry(t.as_ref()).or_default() += 1;
    }
    qtf
}

/// BM25-score every live document of one segment under a global-stats
/// overlay.
///
/// `stats` carries the collection-wide document count and total length,
/// `global_df` the collection-wide document frequency of each query term
/// (live documents only), and `live` decides whether a segment-local doc
/// still counts (tombstone filter). The returned map is keyed by
/// segment-local [`DocId`]; the caller translates to global ids.
///
/// On a single segment with `stats = CollectionStats::from_index`,
/// `global_df` = dictionary doc-freqs and `live = |_| true`, this is
/// bit-identical to `Searcher::new(segment, scorer).score_all(query)`.
pub fn score_segment(
    scorer: Bm25,
    segment: &InvertedIndex,
    stats: CollectionStats,
    qtf: &FxHashMap<&str, u32>,
    global_df: &FxHashMap<&str, u32>,
    mut live: impl FnMut(DocId) -> bool,
) -> FxHashMap<DocId, f64> {
    let mut acc: FxHashMap<DocId, f64> = FxHashMap::default();
    for (term, &qtf) in qtf {
        let Some(id) = segment.term_id(term) else { continue };
        let df = global_df.get(term).copied().unwrap_or(0);
        for p in segment.postings(id) {
            if !live(p.doc) {
                continue;
            }
            let c = scorer.contribution_with(stats, segment.doc_len(p.doc), p.tf, df, qtf);
            if c != 0.0 {
                *acc.entry(p.doc).or_default() += c;
            }
        }
    }
    acc
}

/// Executes queries against one [`InvertedIndex`] with one [`Scorer`].
pub struct Searcher<'i, S: Scorer> {
    index: &'i InvertedIndex,
    scorer: S,
}

impl<'i, S: Scorer> Searcher<'i, S> {
    /// Create a searcher.
    pub fn new(index: &'i InvertedIndex, scorer: S) -> Self {
        Self { index, scorer }
    }

    /// The underlying index.
    pub fn index(&self) -> &'i InvertedIndex {
        self.index
    }

    /// Score every document matching at least one query term.
    ///
    /// Returns the normalized accumulator map — the building block for
    /// blended scoring (NewsLink's Equation 3 combines two of these maps).
    pub fn score_all<T: AsRef<str>>(&self, query_terms: &[T]) -> FxHashMap<DocId, f64> {
        let qtf = query_tf(query_terms);
        let mut acc: FxHashMap<DocId, f64> = FxHashMap::default();
        for (term, &qtf) in &qtf {
            let Some(id) = self.index.term_id(term) else { continue };
            let df = self.index.doc_freq(id);
            for p in self.index.postings(id) {
                let c = self.scorer.contribution(self.index, p.doc, p.tf, df, qtf);
                if c != 0.0 {
                    *acc.entry(p.doc).or_default() += c;
                }
            }
        }
        for (doc, score) in acc.iter_mut() {
            *score = self.scorer.normalize(self.index, *doc, *score);
        }
        acc
    }

    /// Top-k documents for a term query, sorted by descending score (ties:
    /// lower doc id first, deterministically).
    pub fn search<T: AsRef<str>>(&self, query_terms: &[T], k: usize) -> Vec<Hit> {
        let acc = self.score_all(query_terms);
        let mut entries: Vec<(DocId, f64)> = acc.into_iter().collect();
        // Deterministic feed order into TopK (hash maps iterate arbitrarily).
        entries.sort_unstable_by_key(|(d, _)| *d);
        let mut topk = TopK::new(k);
        for (doc, score) in entries {
            topk.push(score, doc);
        }
        topk.into_sorted()
            .into_iter()
            .map(|(score, doc)| Hit { doc, score })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inverted::IndexBuilder;
    use crate::score::{Bm25, TfIdfCosine};

    fn sample() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add_document(&["taliban", "attack", "pakistan", "attack"]); // 0
        b.add_document(&["pakistan", "election", "results"]); // 1
        b.add_document(&["cricket", "match", "score"]); // 2
        b.add_document(&["taliban", "pakistan", "conflict"]); // 3
        b.build()
    }

    #[test]
    fn bm25_search_ranks_matching_docs() {
        let idx = sample();
        let s = Searcher::new(&idx, Bm25::default());
        let hits = s.search(&["taliban", "pakistan"], 10);
        assert_eq!(hits.len(), 3);
        // Docs 0 and 3 match both terms; doc 1 matches only one.
        let top2: Vec<u32> = hits[..2].iter().map(|h| h.doc.0).collect();
        assert!(top2.contains(&0));
        assert!(top2.contains(&3));
        assert_eq!(hits[2].doc, DocId(1));
        assert!(hits[0].score >= hits[1].score);
    }

    #[test]
    fn k_limits_results() {
        let idx = sample();
        let s = Searcher::new(&idx, Bm25::default());
        assert_eq!(s.search(&["pakistan"], 2).len(), 2);
        assert_eq!(s.search(&["pakistan"], 0).len(), 0);
    }

    #[test]
    fn no_match_returns_empty() {
        let idx = sample();
        let s = Searcher::new(&idx, Bm25::default());
        assert!(s.search(&["zebra"], 5).is_empty());
        assert!(s.search::<&str>(&[], 5).is_empty());
    }

    #[test]
    fn score_all_matches_search_scores() {
        let idx = sample();
        let s = Searcher::new(&idx, Bm25::default());
        let all = s.score_all(&["taliban", "pakistan"]);
        for hit in s.search(&["taliban", "pakistan"], 10) {
            assert!((all[&hit.doc] - hit.score).abs() < 1e-12);
        }
    }

    #[test]
    fn repeated_query_terms_increase_score() {
        let idx = sample();
        let s = Searcher::new(&idx, Bm25::default());
        let single = s.score_all(&["pakistan"]);
        let double = s.score_all(&["pakistan", "pakistan"]);
        assert!(double[&DocId(1)] > single[&DocId(1)]);
    }

    #[test]
    fn tfidf_cosine_search_is_normalized() {
        let idx = sample();
        let scorer = TfIdfCosine::new(&idx);
        let s = Searcher::new(&idx, scorer);
        let hits = s.search(&["taliban", "attack"], 10);
        assert!(!hits.is_empty());
        assert_eq!(hits[0].doc, DocId(0));
        // Cosine against a unit-ish query stays bounded in practice.
        assert!(hits.iter().all(|h| h.score.is_finite() && h.score > 0.0));
    }

    #[test]
    fn search_matches_naive_scoring_exactly() {
        // term-at-a-time accumulation must equal direct per-doc scoring
        let idx = sample();
        let bm = Bm25::default();
        let s = Searcher::new(&idx, bm);
        let query = ["taliban", "attack", "pakistan"];
        let got = s.score_all(&query);
        for doc in 0..idx.doc_count() as u32 {
            let doc = DocId(doc);
            let mut want = 0.0;
            for term in &query {
                let tf = idx.term_freq(term, doc);
                let df = idx
                    .dictionary()
                    .get(term)
                    .map(|t| idx.dictionary().doc_freq(t))
                    .unwrap_or(0);
                want += bm.contribution(&idx, doc, tf, df, 1);
            }
            if want != 0.0 {
                assert!((got[&doc] - want).abs() < 1e-12);
            } else {
                assert!(!got.contains_key(&doc));
            }
        }
    }

    #[test]
    fn score_segment_single_segment_is_bit_identical_to_score_all() {
        let idx = sample();
        let scorer = Bm25::default();
        let query = ["taliban", "pakistan", "pakistan", "zebra"];
        let want = Searcher::new(&idx, scorer).score_all(&query);

        let qtf = query_tf(&query);
        let stats = CollectionStats::from_index(&idx);
        let dict = idx.dictionary();
        let mut global_df: FxHashMap<&str, u32> = FxHashMap::default();
        for &term in qtf.keys() {
            let df = dict.get(term).map(|t| dict.doc_freq(t)).unwrap_or(0);
            global_df.insert(term, df);
        }
        let got = score_segment(scorer, &idx, stats, &qtf, &global_df, |_| true);

        assert_eq!(got.len(), want.len());
        for (doc, score) in &want {
            assert_eq!(got[doc].to_bits(), score.to_bits(), "doc {doc:?}");
        }
    }

    #[test]
    fn score_segment_tombstone_filter_drops_docs() {
        let idx = sample();
        let scorer = Bm25::default();
        let query = ["pakistan"];
        let qtf = query_tf(&query);
        let stats = CollectionStats::from_index(&idx);
        // df excluding tombstoned doc 1: "pakistan" appears live in 0 and 3.
        let mut global_df: FxHashMap<&str, u32> = FxHashMap::default();
        global_df.insert("pakistan", 2);
        let got = score_segment(scorer, &idx, stats, &qtf, &global_df, |d| d != DocId(1));
        assert!(!got.contains_key(&DocId(1)));
        assert!(got.contains_key(&DocId(0)));
        assert!(got.contains_key(&DocId(3)));
    }

    #[test]
    fn deterministic_tie_breaking() {
        let mut b = IndexBuilder::new();
        b.add_document(&["same", "words"]);
        b.add_document(&["same", "words"]);
        let idx = b.build();
        let s = Searcher::new(&idx, Bm25::default());
        let hits = s.search(&["same"], 2);
        assert_eq!(hits[0].doc, DocId(0));
        assert_eq!(hits[1].doc, DocId(1));
    }
}
