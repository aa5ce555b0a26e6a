//! Property tests for the block-max pruned evaluator: on arbitrary
//! corpora, with any blend of β, score normalization, threading,
//! segmentation, and tombstones, the pruned path
//! (`prune_topk = true`, the default) must return *bit-identical*
//! results to the exhaustive full-scoring oracle
//! (`with_prune_topk(false)`). Pruning is a work-avoidance strategy,
//! never a ranking change — not even in the last bit of a score.

use proptest::prelude::*;

use newslink_core::{
    read_newslink_index, write_newslink_index, NewsLink, NewsLinkConfig, NewsLinkIndex,
    SearchRequest, SearchResponse,
};
use newslink_kg::{EntityType, GraphBuilder, KnowledgeGraph, LabelIndex};
use newslink_text::DocId;

/// A small fixed world: enough entities that documents collide on both
/// the BOW side (shared filler words) and the BON side (shared graph
/// neighborhoods).
fn world() -> (KnowledgeGraph, LabelIndex) {
    let mut b = GraphBuilder::new();
    let khyber = b.add_node("Khyber", EntityType::Gpe);
    let kunar = b.add_node("Kunar", EntityType::Gpe);
    let taliban = b.add_node("Taliban", EntityType::Organization);
    let pakistan = b.add_node("Pakistan", EntityType::Gpe);
    let kabul = b.add_node("Kabul", EntityType::Gpe);
    let unhcr = b.add_node("UNHCR", EntityType::Organization);
    b.add_edge(kunar, khyber, "borders", 1);
    b.add_edge(taliban, kunar, "operates in", 1);
    b.add_edge(khyber, pakistan, "located in", 1);
    b.add_edge(kabul, pakistan, "trades with", 2);
    b.add_edge(unhcr, kabul, "operates in", 1);
    let g = b.freeze();
    let idx = LabelIndex::build(&g);
    (g, idx)
}

/// Words documents and queries are drawn from: entity labels (which hit
/// the BON side) plus plain filler (BOW only).
const VOCAB: &[&str] = &[
    "Khyber", "Kunar", "Taliban", "Pakistan", "Kabul", "UNHCR", "trade", "talks", "storm",
    "attack", "aid", "festival",
];

fn doc_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0..VOCAB.len(), 1..12)
        .prop_map(|ws| ws.into_iter().map(|w| VOCAB[w]).collect::<Vec<_>>().join(" ") + ".")
}

fn corpus_strategy() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(doc_strategy(), 1..14)
}

fn query_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0..VOCAB.len(), 1..5)
        .prop_map(|ws| ws.into_iter().map(|w| VOCAB[w]).collect::<Vec<_>>().join(" "))
}

/// One uncached query, so every call runs the full NLP + NE + NS path.
fn search(engine: &NewsLink<'_>, index: &NewsLinkIndex, query: &str, k: usize) -> SearchResponse {
    engine.execute(index, &SearchRequest::new(query).with_k(k).without_cache())
}

/// Regression for the tie-retention class the random corpora are too
/// small to hit. Which of several *tied* documents a bounded heap keeps
/// depends on how higher-scoring pushes interleave with the tied ones;
/// the exhaustive oracle feeds each segment's survivors to the merge
/// heap in *descending score* order, while a single heap carried across
/// segments would see them in *doc-id* order. The two disagree exactly
/// when a segment holds tied docs followed by a higher scorer: at merge
/// the high scorer fills the heap first and the same-segment tie is
/// rejected, but in doc-id order the tie lands first and the high
/// scorer later evicts a tie. A heap that evicted the *earliest* of
/// several tied minima (a previous segment's tie) would keep different
/// members under the two orders; `TopK` evicts the latest, so both keep
/// the lowest ids. The pruned path still mirrors the oracle's
/// per-segment-heaps-then-merge structure, and this pins the survivor.
#[test]
fn tied_docs_across_segments_match_oracle() {
    let (g, li) = world();
    // Segments (segment_docs = 3): [P, A, Z] and [B, C, Q] with
    // score(P) > score(Q) > score(A) = score(B) = score(C) > 0 = score(Z)
    // for the query below. At k = 3 the oracle keeps {P, Q, A}: the
    // tie group's lowest id.
    let docs: Vec<String> = [
        "Pakistan Pakistan Pakistan talks talks talks.", // P
        "Pakistan aid talks.",                           // A
        "storm.",                                        // Z
        "Pakistan aid talks.",                           // B
        "Pakistan aid talks.",                           // C
        "Pakistan Pakistan aid talks talks.",            // Q
    ]
    .map(String::from)
    .to_vec();
    let pruned_cfg = NewsLinkConfig::default().with_segment_docs(3);
    let oracle_cfg = pruned_cfg.clone().with_prune_topk(false);
    let pruned_engine = NewsLink::new(&g, &li, pruned_cfg);
    let oracle_engine = NewsLink::new(&g, &li, oracle_cfg);
    let idx = pruned_engine.index_corpus(&docs);

    let oracle = search(&oracle_engine, &idx, "Pakistan talks", 3);
    // Precondition: the corpus really produces the P > Q > tie shape the
    // regression needs (fails loudly if scorer changes perturb it).
    assert_eq!(oracle.results.len(), 3);
    assert_eq!(oracle.results[0].doc, DocId(0), "P must rank first");
    assert_eq!(oracle.results[1].doc, DocId(5), "Q must rank second");
    assert!(
        oracle.results[1].score > oracle.results[2].score,
        "Q must score strictly above the tie group"
    );
    assert_eq!(oracle.results[2].doc, DocId(1), "the tie group keeps its lowest id");

    for k in [1usize, 2, 3, 4, 6, 100] {
        let pruned = search(&pruned_engine, &idx, "Pakistan talks", k);
        let oracle = search(&oracle_engine, &idx, "Pakistan talks", k);
        assert_eq!(pruned.results.len(), oracle.results.len(), "k={k}");
        for (x, y) in pruned.results.iter().zip(&oracle.results) {
            assert_eq!(x.doc, y.doc, "tied-doc retention (k={k})");
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "k={k}");
        }
    }
}

/// Save `index` as a v4 snapshot and load it back (strict: any damage
/// would fail the load).
fn round_trip(g: &KnowledgeGraph, index: &NewsLinkIndex) -> NewsLinkIndex {
    let mut buf = Vec::new();
    write_newslink_index(index, g, &mut buf).expect("encode v4");
    read_newslink_index(g, &mut &buf[..]).expect("load v4")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The pruned evaluator returns the same `SearchResult` vector as
    /// the exhaustive oracle, bit for bit, across the whole configuration
    /// surface: β ∈ {0, 0.3, 1}, one worker thread or auto (the
    /// `newslink serve` setting), one to four segments, with and without
    /// tombstones, and k from 1 up to well past the corpus size.
    #[test]
    fn pruned_path_is_bit_identical_to_exhaustive(
        docs in corpus_strategy(),
        query in query_strategy(),
        beta_i in 0usize..3,
        k_i in 0usize..3,
        auto_threads in any::<bool>(),
        segment_docs in 0usize..4,
        do_delete in any::<bool>(),
        delete_mask in prop::collection::vec(any::<bool>(), 10..11),
    ) {
        let beta = [0.0, 0.3, 1.0][beta_i];
        let k = [1usize, 5, 100][k_i];
        let (g, li) = world();
        let mut pruned_cfg = NewsLinkConfig::default()
            .with_beta(beta)
            .with_segment_docs(segment_docs);
        if auto_threads {
            pruned_cfg = pruned_cfg.with_auto_threads();
        }
        prop_assert!(pruned_cfg.prune_topk, "pruning must be the default");
        let oracle_cfg = pruned_cfg.clone().with_prune_topk(false);
        let threads = pruned_cfg.threads;
        let pruned_engine = NewsLink::new(&g, &li, pruned_cfg);
        let oracle_engine = NewsLink::new(&g, &li, oracle_cfg);

        let mut idx = pruned_engine.index_corpus(&docs);
        if do_delete {
            // Delete a pseudo-random subset, keeping at least one doc.
            let mut live = docs.len();
            for i in 0..docs.len() {
                if live > 1 && delete_mask[i % delete_mask.len()] {
                    prop_assert!(idx.delete(DocId(i as u32)));
                    live -= 1;
                }
            }
        }

        let pruned = search(&pruned_engine, &idx, &query, k);
        let oracle = search(&oracle_engine, &idx, &query, k);
        prop_assert_eq!(
            pruned.results.len(),
            oracle.results.len(),
            "result count (β={} k={} threads={} segdocs={})",
            beta, k, threads, segment_docs
        );
        for (x, y) in pruned.results.iter().zip(&oracle.results) {
            prop_assert_eq!(x.doc, y.doc, "doc order for β={} k={}", beta, k);
            prop_assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "score bits for doc {} (β={} k={} threads={} segdocs={})",
                x.doc.0, beta, k, threads, segment_docs
            );
            prop_assert_eq!(x.bow.to_bits(), y.bow.to_bits(), "bow bits for doc {}", x.doc.0);
            prop_assert_eq!(x.bon.to_bits(), y.bon.to_bits(), "bon bits for doc {}", x.doc.0);
        }

        // Block-max pruning over a reloaded snapshot, whose postings are
        // slices of the loaded file's buffer, stays bit-identical.
        let reloaded = round_trip(&g, &idx);
        let again = search(&pruned_engine, &reloaded, &query, k);
        prop_assert_eq!(again.results.len(), pruned.results.len(), "reload");
        for (x, y) in again.results.iter().zip(&pruned.results) {
            prop_assert_eq!(x.doc, y.doc, "reload doc order");
            prop_assert_eq!(
                x.score.to_bits(), y.score.to_bits(),
                "reload score bits for doc {}", x.doc.0
            );
        }
    }

    /// The escape hatch really is exhaustive: with pruning off, every
    /// pruning counter stays zero; with it on, the evaluator reports its
    /// work.
    #[test]
    fn prune_counters_only_tick_on_the_pruned_path(
        docs in corpus_strategy(),
        query in query_strategy(),
    ) {
        let (g, li) = world();
        let pruned_engine = NewsLink::new(&g, &li, NewsLinkConfig::default());
        let oracle_engine =
            NewsLink::new(&g, &li, NewsLinkConfig::default().with_prune_topk(false));
        let idx = pruned_engine.index_corpus(&docs);
        let oracle = search(&oracle_engine, &idx, &query, 5);
        prop_assert_eq!(oracle.prune.candidates, 0);
        prop_assert_eq!(oracle.prune.scored, 0);
        prop_assert_eq!(oracle.prune.blocks_skipped, 0);
        let pruned = search(&pruned_engine, &idx, &query, 5);
        if !pruned.results.is_empty() {
            prop_assert!(pruned.prune.candidates > 0, "matches imply candidates");
            prop_assert!(pruned.prune.scored > 0, "results imply scored docs");
            prop_assert!(pruned.prune.scored <= pruned.prune.candidates);
        }
    }
}
