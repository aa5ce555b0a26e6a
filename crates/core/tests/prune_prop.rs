//! Property tests for the block-max pruned evaluator: on arbitrary
//! corpora, with any blend of β, score normalization, threading,
//! segmentation, and tombstones, the pruned path
//! (`prune_topk = true`, the default) must return *bit-identical*
//! results to the exhaustive full-scoring oracle
//! (`with_prune_topk(false)`). Pruning is a work-avoidance strategy,
//! never a ranking change — not even in the last bit of a score.

use proptest::prelude::*;

use newslink_core::{
    index_corpus, search, write_newslink_index, Directory, FsDirectory, NewsLinkConfig,
    NewsLinkIndex, RamDirectory, StorageBackend,
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
    let idx = index_corpus(&g, &li, &pruned_cfg, &docs);

    let oracle = search(&g, &li, &oracle_cfg, &idx, "Pakistan talks", 3);
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
        let pruned = search(&g, &li, &pruned_cfg, &idx, "Pakistan talks", k);
        let oracle = search(&g, &li, &oracle_cfg, &idx, "Pakistan talks", k);
        assert_eq!(pruned.results.len(), oracle.results.len(), "k={k}");
        for (x, y) in pruned.results.iter().zip(&oracle.results) {
            assert_eq!(x.doc, y.doc, "tied-doc retention (k={k})");
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "k={k}");
        }
    }
}

/// Save `index` as a v4 snapshot and load it back through both storage
/// backends (heap over a [`RamDirectory`], mmap over a real file).
fn round_trip_both_backends(
    g: &KnowledgeGraph,
    index: &NewsLinkIndex,
    tag: &str,
) -> (NewsLinkIndex, NewsLinkIndex) {
    let mut buf = Vec::new();
    write_newslink_index(index, g, &mut buf).expect("encode v4");
    let ram = RamDirectory::new();
    ram.atomic_write("index.nlnk", &buf).expect("ram write");
    let (heap, _) = StorageBackend::Heap
        .reader()
        .read_snapshot(&ram, "index.nlnk", g, false)
        .expect("heap load");
    let dir = std::env::temp_dir().join(format!(
        "newslink_prune_prop_{}_{tag}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let fs = FsDirectory::create(&dir).expect("fs dir");
    fs.atomic_write("index.nlnk", &buf).expect("fs write");
    let (mmap, _) = StorageBackend::Mmap
        .reader()
        .read_snapshot(&fs, "index.nlnk", g, false)
        .expect("mmap load");
    std::fs::remove_dir_all(&dir).ok();
    (heap, mmap)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The pruned evaluator returns the same `SearchResult` vector as
    /// the exhaustive oracle, bit for bit, across the whole configuration
    /// surface: β ∈ {0, 0.3, 1}, normalization on/off, one worker thread
    /// or auto (the `newslink serve` setting), one to four segments, with
    /// and without tombstones, and k from 1 up to well past the corpus
    /// size.
    #[test]
    fn pruned_path_is_bit_identical_to_exhaustive(
        docs in corpus_strategy(),
        query in query_strategy(),
        beta_i in 0usize..3,
        k_i in 0usize..3,
        normalize in any::<bool>(),
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
        pruned_cfg.normalize_scores = normalize;
        prop_assert!(pruned_cfg.prune_topk, "pruning must be the default");
        let oracle_cfg = pruned_cfg.clone().with_prune_topk(false);

        let mut idx = index_corpus(&g, &li, &pruned_cfg, &docs);
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

        let pruned = search(&g, &li, &pruned_cfg, &idx, &query, k);
        let oracle = search(&g, &li, &oracle_cfg, &idx, &query, k);
        prop_assert_eq!(
            pruned.results.len(),
            oracle.results.len(),
            "result count (β={} k={} norm={} threads={} segdocs={})",
            beta, k, normalize, pruned_cfg.threads, segment_docs
        );
        for (x, y) in pruned.results.iter().zip(&oracle.results) {
            prop_assert_eq!(x.doc, y.doc, "doc order for β={} k={}", beta, k);
            prop_assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "score bits for doc {} (β={} k={} norm={} threads={} segdocs={})",
                x.doc.0, beta, k, normalize, pruned_cfg.threads, segment_docs
            );
            prop_assert_eq!(x.bow.to_bits(), y.bow.to_bits(), "bow bits for doc {}", x.doc.0);
            prop_assert_eq!(x.bon.to_bits(), y.bon.to_bits(), "bon bits for doc {}", x.doc.0);
        }

        // Block-max pruning over reloaded snapshots: the pruned path
        // must stay bit-identical whether the postings live on the heap
        // or straight in a file mapping.
        let (heap_idx, mmap_idx) = round_trip_both_backends(&g, &idx, "pruned");
        for (reloaded, label) in [(&heap_idx, "heap"), (&mmap_idx, "mmap")] {
            let again = search(&g, &li, &pruned_cfg, reloaded, &query, k);
            prop_assert_eq!(again.results.len(), pruned.results.len(), "{} reload", label);
            for (x, y) in again.results.iter().zip(&pruned.results) {
                prop_assert_eq!(x.doc, y.doc, "{} reload doc order", label);
                prop_assert_eq!(
                    x.score.to_bits(), y.score.to_bits(),
                    "{} reload score bits for doc {}", label, x.doc.0
                );
            }
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
        let pruned_cfg = NewsLinkConfig::default();
        let oracle_cfg = NewsLinkConfig::default().with_prune_topk(false);
        let idx = index_corpus(&g, &li, &pruned_cfg, &docs);
        let oracle = search(&g, &li, &oracle_cfg, &idx, &query, 5);
        prop_assert_eq!(oracle.prune.candidates, 0);
        prop_assert_eq!(oracle.prune.scored, 0);
        prop_assert_eq!(oracle.prune.blocks_skipped, 0);
        let pruned = search(&g, &li, &pruned_cfg, &idx, &query, 5);
        if !pruned.results.is_empty() {
            prop_assert!(pruned.prune.candidates > 0, "matches imply candidates");
            prop_assert!(pruned.prune.scored > 0, "results imply scored docs");
            prop_assert!(pruned.prune.scored <= pruned.prune.candidates);
        }
    }
}
