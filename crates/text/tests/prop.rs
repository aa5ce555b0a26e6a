//! Property tests for the retrieval substrate: pruning and persistence
//! must be *exactly* equivalent to the naive paths on arbitrary corpora.

use proptest::prelude::*;

use newslink_text::{
    blended_scan, query_tf, read_index_columnar, write_index_columnar, Bm25, CollectionStats,
    IndexBuilder, PruneStats, Searcher, SideSpec,
};
use newslink_util::{Bytes, TopK};

/// Strategy: a corpus of small documents over a tiny vocabulary (so terms
/// collide across documents and scoring paths are exercised).
fn corpus_strategy() -> impl Strategy<Value = Vec<Vec<String>>> {
    prop::collection::vec(
        prop::collection::vec(0u8..20, 0..15)
            .prop_map(|ws| ws.into_iter().map(|w| format!("w{w}")).collect()),
        1..40,
    )
}

/// Strategy: a short query. `w20`–`w24` never occur in a corpus, so some
/// queries mix unknown terms in; the two flags repeat the first term and
/// append a term no corpus has, so repeated and unknown terms are covered
/// on every run.
fn query_strategy() -> impl Strategy<Value = Vec<String>> {
    (prop::collection::vec(0u8..25, 1..6), any::<bool>(), any::<bool>()).prop_map(
        |(ws, repeat, unknown)| {
            let mut q: Vec<String> = ws.into_iter().map(|w| format!("w{w}")).collect();
            if repeat {
                q.push(q[0].clone());
            }
            if unknown {
                q.push("zzz".to_string());
            }
            q
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The block-max pruned scan on one side at β = 0 returns exactly the
    /// exhaustive top-k — same documents, same order, same score bits —
    /// at the drawn `k` and at `k = 1`, where pruning is most eager.
    #[test]
    fn maxscore_equals_exhaustive(docs in corpus_strategy(), query in query_strategy(), k in 1usize..8) {
        let mut b = IndexBuilder::new();
        for d in &docs {
            b.add_document(d);
        }
        let index = b.build();
        let qtf = query_tf(&query);
        let spec = SideSpec {
            index: &index,
            scorer: Bm25::default(),
            stats: CollectionStats::from_index(&index),
            terms: qtf
                .iter()
                .filter_map(|(&t, &q)| {
                    let id = index.term_id(t)?;
                    Some((index.postings(id), q, index.doc_freq(id)))
                })
                .collect(),
            norm: 1.0,
        };
        let searcher = Searcher::new(&index, Bm25::default());
        for k in [k, 1] {
            let naive = searcher.search(&query, k);
            let mut topk = TopK::new(k);
            blended_scan(
                Some(&spec),
                None,
                0.0,
                f64::NEG_INFINITY,
                |_| true,
                |d| d,
                &mut topk,
                &mut PruneStats::default(),
            );
            let pruned = topk.into_sorted();
            prop_assert_eq!(naive.len(), pruned.len());
            for (a, (score, (doc, bow, bon))) in naive.iter().zip(&pruned) {
                prop_assert_eq!(a.doc, *doc);
                prop_assert_eq!(a.score.to_bits(), score.to_bits());
                prop_assert_eq!(a.score.to_bits(), bow.to_bits());
                prop_assert_eq!(*bon, 0.0);
            }
        }
    }

    /// The columnar section round-trips scores bit for bit.
    #[test]
    fn codec_preserves_scores(docs in corpus_strategy(), query in query_strategy()) {
        let mut b = IndexBuilder::new();
        for d in &docs {
            b.add_document(d);
        }
        let index = b.build();
        let mut buf = Vec::new();
        write_index_columnar(&index, &mut buf).unwrap();
        let back = read_index_columnar(&Bytes::from_vec(buf)).unwrap();
        let a = Searcher::new(&index, Bm25::default()).search(&query, 10);
        let c = Searcher::new(&back, Bm25::default()).search(&query, 10);
        prop_assert_eq!(a.len(), c.len());
        for (x, y) in a.iter().zip(&c) {
            prop_assert_eq!(x.doc, y.doc);
            prop_assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
    }
}
