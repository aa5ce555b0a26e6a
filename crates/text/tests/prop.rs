//! Property tests for the retrieval substrate: pruning and persistence
//! must be *exactly* equivalent to the naive paths on arbitrary corpora.

use proptest::prelude::*;

use newslink_text::{
    maxscore_search, read_index_columnar, read_index_columnar_lazy, write_index_columnar, Bm25,
    IndexBuilder, Searcher,
};
use newslink_util::Bytes;

/// Strategy: a corpus of small documents over a tiny vocabulary (so terms
/// collide across documents and scoring paths are exercised).
fn corpus_strategy() -> impl Strategy<Value = Vec<Vec<String>>> {
    prop::collection::vec(
        prop::collection::vec(0u8..20, 0..15)
            .prop_map(|ws| ws.into_iter().map(|w| format!("w{w}")).collect()),
        1..40,
    )
}

fn query_strategy() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(0u8..25, 1..6).prop_map(|ws| {
        ws.into_iter().map(|w| format!("w{w}")).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// MaxScore pruning returns exactly the exhaustive top-k.
    #[test]
    fn maxscore_equals_exhaustive(docs in corpus_strategy(), query in query_strategy(), k in 1usize..8) {
        let mut b = IndexBuilder::new();
        for d in &docs {
            b.add_document(d);
        }
        let index = b.build();
        let naive = Searcher::new(&index, Bm25::default()).search(&query, k);
        let pruned = maxscore_search(&index, Bm25::default(), &query, k);
        prop_assert_eq!(naive.len(), pruned.len());
        for (a, b) in naive.iter().zip(&pruned) {
            prop_assert_eq!(a.doc, b.doc);
            prop_assert!((a.score - b.score).abs() < 1e-9);
        }
    }

    /// The columnar section round-trips scores bit for bit, through both
    /// the eager and the lazy reader.
    #[test]
    fn codec_preserves_scores(docs in corpus_strategy(), query in query_strategy()) {
        let mut b = IndexBuilder::new();
        for d in &docs {
            b.add_document(d);
        }
        let index = b.build();
        let mut buf = Vec::new();
        write_index_columnar(&index, &mut buf).unwrap();
        let bytes = Bytes::from_vec(buf);
        let a = Searcher::new(&index, Bm25::default()).search(&query, 10);
        for back in [
            read_index_columnar(&bytes).unwrap(),
            read_index_columnar_lazy(&bytes).unwrap(),
        ] {
            let c = Searcher::new(&back, Bm25::default()).search(&query, 10);
            prop_assert_eq!(a.len(), c.len());
            for (x, y) in a.iter().zip(&c) {
                prop_assert_eq!(x.doc, y.doc);
                prop_assert_eq!(x.score.to_bits(), y.score.to_bits());
            }
        }
    }
}
