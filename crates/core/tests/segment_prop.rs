//! Property tests for the segmented index: on arbitrary corpora, a
//! multi-segment index must rank *bit-identically* to the monolithic
//! (single-segment) build — before and after deletions, and before and
//! after compaction. The segment layout is an internal storage decision;
//! it must never leak into scores.

use proptest::prelude::*;

use newslink_core::{
    read_newslink_index, write_newslink_index, NewsLink, NewsLinkConfig, NewsLinkIndex,
    SearchRequest,
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
    prop::collection::vec(doc_strategy(), 1..10)
}

fn query_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0..VOCAB.len(), 1..5)
        .prop_map(|ws| ws.into_iter().map(|w| VOCAB[w]).collect::<Vec<_>>().join(" "))
}

/// Assert two indexes rank `query` bit-identically (uncached, so each
/// side runs the full NLP + NE + NS path).
fn assert_same_ranking(
    engine: &NewsLink<'_>,
    a: &NewsLinkIndex,
    b: &NewsLinkIndex,
    query: &str,
    k: usize,
    label: &str,
) {
    let request = SearchRequest::new(query).with_k(k).without_cache();
    let ra = engine.execute(a, &request);
    let rb = engine.execute(b, &request);
    assert_eq!(ra.results.len(), rb.results.len(), "{label}: result count");
    for (x, y) in ra.results.iter().zip(&rb.results) {
        assert_eq!(x.doc, y.doc, "{label}: doc order");
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "{label}: score bits for doc {}",
            x.doc.0
        );
        assert_eq!(x.bow.to_bits(), y.bow.to_bits(), "{label}: bow bits");
        assert_eq!(x.bon.to_bits(), y.bon.to_bits(), "{label}: bon bits");
    }
}

/// Save `index` as a v4 snapshot and load it back (strict: any damage
/// would fail the load). Persistence is an internal decision just like
/// segmentation — it must never leak into scores.
fn round_trip(g: &KnowledgeGraph, index: &NewsLinkIndex) -> NewsLinkIndex {
    let mut buf = Vec::new();
    write_newslink_index(index, g, &mut buf).expect("encode v4");
    read_newslink_index(g, &mut &buf[..]).expect("load v4")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sharding the build (any segment size, including one doc per
    /// segment, with any thread count) never changes a single ranking bit.
    #[test]
    fn segmented_build_ranks_bit_identically(
        docs in corpus_strategy(),
        query in query_strategy(),
        k in 1usize..6,
        segment_docs in 1usize..4,
        threads in 1usize..4,
    ) {
        let (g, li) = world();
        let mono_engine = NewsLink::new(&g, &li, NewsLinkConfig::default());
        let mono = mono_engine.index_corpus(&docs);
        let seg_cfg = NewsLinkConfig::default()
            .with_segment_docs(segment_docs)
            .with_threads(threads);
        let seg_engine = NewsLink::new(&g, &li, seg_cfg);
        let seg = seg_engine.index_corpus(&docs);
        if segment_docs < docs.len() {
            prop_assert!(seg.segment_count() > 1, "sharding must actually happen");
        }
        assert_same_ranking(&mono_engine, &mono, &seg, &query, k, "sharded build");

        // Compaction back to one segment converges on the monolithic
        // layout and, again, the same bits.
        let mut compacted = seg_engine.index_corpus(&docs);
        compacted.compact();
        prop_assert_eq!(compacted.segment_count(), 1);
        assert_same_ranking(&mono_engine, &mono, &compacted, &query, k, "compacted");

        // A v4 snapshot round-trip reproduces the segmented ranking bit
        // for bit.
        let reloaded = round_trip(&g, &seg);
        assert_same_ranking(&seg_engine, &seg, &reloaded, &query, k, "reload");
    }

    /// Deletions behave identically however the index is laid out — a
    /// sharded build, or the live path (one `insert_document` per doc,
    /// then `delete_document`) under any segment ceiling — both while the
    /// tombstones are live and after compaction expunges them.
    #[test]
    fn tombstones_rank_bit_identically_across_layouts(
        docs in corpus_strategy(),
        query in query_strategy(),
        k in 1usize..6,
        delete_mask in prop::collection::vec(any::<bool>(), 10..11),
        max_segments in 1usize..4,
    ) {
        let (g, li) = world();
        let mono_engine = NewsLink::new(&g, &li, NewsLinkConfig::default());
        let seg_engine = NewsLink::new(&g, &li, NewsLinkConfig::default().with_segment_docs(2));
        let mut mono = mono_engine.index_corpus(&docs);
        let mut seg = seg_engine.index_corpus(&docs);
        let engine = NewsLink::new(
            &g,
            &li,
            NewsLinkConfig::default().with_max_segments(max_segments),
        );
        let mut inc = engine.index_corpus::<&str>(&[]);
        for (i, d) in docs.iter().enumerate() {
            prop_assert_eq!(engine.insert_document(&mut inc, d), DocId(i as u32));
            prop_assert!(inc.segment_count() <= max_segments);
        }
        // Delete the same subset from all three; keep at least one doc live.
        let mut live = docs.len();
        for (i, _) in docs.iter().enumerate() {
            if live > 1 && delete_mask[i % delete_mask.len()] {
                prop_assert!(mono.delete(DocId(i as u32)));
                prop_assert!(seg.delete(DocId(i as u32)));
                prop_assert!(engine.delete_document(&mut inc, DocId(i as u32)));
                live -= 1;
            }
        }
        prop_assert_eq!(mono.doc_count(), live);
        prop_assert_eq!(seg.doc_count(), live);
        prop_assert_eq!(inc.doc_count(), live);
        prop_assert!(inc.segment_count() <= max_segments);
        assert_same_ranking(&mono_engine, &mono, &seg, &query, k, "tombstoned");
        assert_same_ranking(&mono_engine, &mono, &inc, &query, k, "inserted");

        // Tombstones persist through the v4 round-trip.
        let reloaded = round_trip(&g, &seg);
        assert_same_ranking(&mono_engine, &mono, &reloaded, &query, k, "tombstoned reload");

        // Compacting the segmented index expunges its tombstones but
        // must not change what a search returns.
        seg.compact();
        prop_assert_eq!(seg.segment_count(), 1);
        prop_assert_eq!(seg.tombstone_count(), 0, "compaction expunges");
        assert_same_ranking(&mono_engine, &mono, &seg, &query, k, "expunged");

        // Surviving ids are stable: every live doc keeps its identity.
        let mono_ids: Vec<u32> = mono.doc_ids().map(|d| d.0).collect();
        let seg_ids: Vec<u32> = seg.doc_ids().map(|d| d.0).collect();
        let inc_ids: Vec<u32> = inc.doc_ids().map(|d| d.0).collect();
        prop_assert_eq!(&mono_ids, &seg_ids);
        prop_assert_eq!(&mono_ids, &inc_ids);
    }
}
