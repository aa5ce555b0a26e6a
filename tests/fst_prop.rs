//! FST ≡ HashMap parity property suite (proptest).
//!
//! The byte-trie automaton backend ([`newslink::kg::FstLabelIndex`]) must be
//! observationally identical to the two-HashMap oracle
//! ([`newslink::kg::HashLabelIndex`]) at every layer it touches:
//!
//! 1. `S(l)` — exact-match node sets and token-containment candidates
//!    agree on random graphs with aliases, shared surfaces and unicode
//!    labels.
//! 2. Gazetteer NER — the recognizer emits bit-identical mention spans
//!    over sentences assembled from the graph's own surface forms.
//! 3. End-to-end search — a `NewsLink` engine over a synthetic world
//!    returns bit-identical ranked results (doc ids and raw score bits)
//!    whichever backend resolves labels.

use proptest::prelude::*;

use newslink::core::{NewsLink, NewsLinkConfig, SearchRequest};
use newslink::kg::{
    normalize_label, synth, EntityType, GraphBuilder, KnowledgeGraph, LabelIndex, SynthConfig,
};
use newslink::nlp::{tokenize, Recognizer};

/// Word pool mixing plain ASCII, multi-byte unicode, and words whose
/// lowercase expands (`İ` → `i̇`), so normalization edge cases are always
/// in play.
const WORDS: &[&str] = &[
    "Earth", "Union", "Bernie", "Sanders", "Vermont", "Senate", "café", "München", "Zürich",
    "İstanbul", "北京", "Über", "naïve", "ØRSTED", "election", "treaty", "harbor", "ALBANY",
];

/// Strategy: one surface form of 1..=3 words from the pool.
fn surface_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..WORDS.len(), 1..4)
        .prop_map(|idx| idx.iter().map(|&i| WORDS[i]).collect::<Vec<_>>().join(" "))
}

/// Build a connected graph whose labels (and aliases) come from `labels`.
/// Aliasing re-uses earlier surfaces, so shared surfaces — several nodes
/// behind one normalized form — occur by construction.
fn graph_from_labels(labels: &[String], alias_picks: &[(usize, usize)]) -> KnowledgeGraph {
    let mut b = GraphBuilder::new();
    let types = [
        EntityType::Person,
        EntityType::Organization,
        EntityType::Gpe,
        EntityType::Event,
        EntityType::Location,
    ];
    let nodes: Vec<_> = labels
        .iter()
        .enumerate()
        .map(|(i, l)| b.add_node(l, types[i % types.len()]))
        .collect();
    for w in nodes.windows(2) {
        b.add_edge(w[0], w[1], "linked to", 1);
    }
    for &(node, label) in alias_picks {
        b.add_alias(nodes[node % nodes.len()], &labels[label % labels.len()]);
    }
    b.freeze()
}

/// Assert full observational parity between the hash oracle and an FST
/// backend over every surface the oracle knows, plus the given probes.
fn assert_resolver_parity(
    graph: &KnowledgeGraph,
    hash: &LabelIndex,
    fst: &LabelIndex,
    probes: &[String],
) {
    assert_eq!(hash.len(), fst.len(), "surface count");
    assert_eq!(hash.max_label_tokens(), fst.max_label_tokens());
    assert_eq!(hash.surface_postings(), fst.surface_postings());
    for (surface, expect) in hash.surface_postings() {
        let got: Vec<_> = fst.exact(&surface).collect();
        assert_eq!(got, expect, "exact postings for {surface:?}");
    }
    for probe in probes {
        let norm = normalize_label(probe);
        let h: Vec<_> = hash.exact(&norm).collect();
        let f: Vec<_> = fst.exact(&norm).collect();
        assert_eq!(h, f, "exact probe {norm:?}");
        assert_eq!(hash.has_exact(&norm), fst.has_exact(&norm));
        let mut hc = hash.candidates(graph, &norm);
        let mut fc = fst.candidates(graph, &norm);
        hc.sort_unstable();
        fc.sort_unstable();
        assert_eq!(hc, fc, "candidates for {norm:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Layer 1: S(l) parity on random alias-heavy unicode graphs.
    #[test]
    fn fst_matches_hash_oracle_on_random_graphs(
        labels in prop::collection::vec(surface_strategy(), 2..24),
        aliases in prop::collection::vec((0usize..24, 0usize..24), 0..8),
        probes in prop::collection::vec(surface_strategy(), 0..8),
    ) {
        let graph = graph_from_labels(&labels, &aliases);
        let hash = LabelIndex::build(&graph);
        let fst = LabelIndex::build_fst(&graph);
        let mut all_probes = probes;
        all_probes.extend(labels.iter().cloned());
        assert_resolver_parity(&graph, &hash, &fst, &all_probes);
    }

    /// Layer 2: gazetteer NER parity — sentences assembled from the
    /// graph's own surfaces plus filler produce identical mention spans.
    #[test]
    fn recognizer_spans_agree_across_backends(
        labels in prop::collection::vec(surface_strategy(), 2..16),
        aliases in prop::collection::vec((0usize..16, 0usize..16), 0..6),
        picks in prop::collection::vec(0usize..16, 1..6),
    ) {
        let graph = graph_from_labels(&labels, &aliases);
        let hash = LabelIndex::build(&graph);
        let fst = LabelIndex::build_fst(&graph);
        let mentioned: Vec<&str> = picks
            .iter()
            .map(|&p| labels[p % labels.len()].as_str())
            .collect();
        let sentence = format!(
            "Reports said {} met near {} yesterday.",
            mentioned.join(" and "),
            mentioned[0]
        );
        let tokens = tokenize(&sentence);
        let h = Recognizer::new(&graph, &hash).recognize(&sentence, &tokens);
        let f = Recognizer::new(&graph, &fst).recognize(&sentence, &tokens);
        prop_assert_eq!(h, f, "mention spans diverged for {:?}", sentence);
    }

    /// Layer 3: end-to-end search parity on a synthetic world — ranked
    /// docs and raw score bits are identical under either backend.
    #[test]
    fn search_results_are_bit_identical(seed in 0u64..512, k in 1usize..8) {
        let world = synth::generate(&SynthConfig::small(seed));
        let corpus = newslink::corpus::generate_fact_corpus(
            &world,
            &newslink::corpus::FactCorpusConfig::new(seed, 24),
        );
        let texts: Vec<&str> = corpus.docs.iter().map(|d| d.text.as_str()).collect();

        let hash = LabelIndex::build(&world.graph);
        let fst = LabelIndex::build_fst(&world.graph);
        let eh = NewsLink::new(&world.graph, &hash, NewsLinkConfig::default());
        let ef = NewsLink::new(&world.graph, &fst, NewsLinkConfig::default());
        let ih = eh.index_corpus(&texts);
        let if_ = ef.index_corpus(&texts);

        for &query in texts.iter().take(4) {
            let request = SearchRequest::new(query).with_k(k);
            let rh = eh.execute(&ih, &request);
            let rf = ef.execute(&if_, &request);
            prop_assert_eq!(rh.results.len(), rf.results.len());
            for (a, b) in rh.results.iter().zip(rf.results.iter()) {
                prop_assert_eq!(a.doc, b.doc);
                prop_assert_eq!(a.score.to_bits(), b.score.to_bits(), "score bits");
                prop_assert_eq!(a.bow.to_bits(), b.bow.to_bits(), "bow bits");
                prop_assert_eq!(a.bon.to_bits(), b.bon.to_bits(), "bon bits");
            }
        }
    }
}
