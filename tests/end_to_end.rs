//! Cross-crate integration tests: the full NewsLink pipeline over the
//! synthetic world, exercised through the facade crate's public API.

use newslink::core::{EmbeddingModel, NewsLink, NewsLinkConfig, SearchRequest};
use newslink::corpus::{generate_corpus, CorpusConfig, CorpusFlavor, Split};
use newslink::kg::{synth, LabelIndex, SynthConfig};
use newslink::nlp::NlpPipeline;

fn fixture() -> (synth::SynthWorld, LabelIndex, Vec<String>) {
    let world = synth::generate(&SynthConfig::small(1234));
    let labels = LabelIndex::build(&world.graph);
    let corpus = generate_corpus(&world, &CorpusConfig::new(99, 60, CorpusFlavor::CnnLike));
    let texts = corpus.docs.iter().map(|d| d.text.clone()).collect();
    (world, labels, texts)
}

#[test]
fn pipeline_indexes_and_searches() {
    let (world, labels, texts) = fixture();
    let engine = NewsLink::new(&world.graph, &labels, NewsLinkConfig::default());
    let index = engine.index_corpus(&texts);
    assert_eq!(index.doc_count(), 60);
    assert!(index.embedded_ratio() > 0.8, "{}", index.embedded_ratio());

    // Query with each document's first sentence; the source should appear
    // in the top 5 for the clear majority.
    let mut hits = 0;
    for (i, text) in texts.iter().enumerate().take(20) {
        let first = text.split('.').next().unwrap();
        let outcome = engine.execute(&index, &SearchRequest::new(first).with_k(5));
        if outcome.results.iter().any(|r| r.doc.index() == i) {
            hits += 1;
        }
    }
    assert!(hits >= 14, "only {hits}/20 first-sentence queries recovered");
}

#[test]
fn explanations_reference_real_graph_labels() {
    let (world, labels, texts) = fixture();
    let engine = NewsLink::new(
        &world.graph,
        &labels,
        NewsLinkConfig::default().with_beta(1.0),
    );
    let index = engine.index_corpus(&texts);
    let mut explained = 0;
    for text in texts.iter().take(10) {
        let first = text.split('.').next().unwrap();
        let outcome = engine.execute(&index, &SearchRequest::new(first).with_k(3));
        for hit in &outcome.results {
            for path in engine.explain(&index, &outcome.embedding, hit.doc, 5, 5) {
                let rendered = path.render(&world.graph);
                assert!(!rendered.is_empty());
                assert!(rendered.contains('—') || rendered.contains('←'));
                explained += 1;
            }
        }
    }
    assert!(explained > 0, "no explanations produced at all");
}

#[test]
fn beta_sweep_is_monotone_in_components() {
    let (world, labels, texts) = fixture();
    // At β=0 the BON component must be zero everywhere; at β=1 the BOW
    // component must be zero everywhere.
    for (beta, check_bow_zero, check_bon_zero) in
        [(0.0, false, true), (1.0, true, false)]
    {
        let engine = NewsLink::new(
            &world.graph,
            &labels,
            NewsLinkConfig::default().with_beta(beta),
        );
        let index = engine.index_corpus(&texts);
        let first = texts[0].split('.').next().unwrap();
        let outcome = engine.execute(&index, &SearchRequest::new(first).with_k(5));
        for r in &outcome.results {
            if check_bow_zero {
                assert_eq!(r.bow, 0.0);
            }
            if check_bon_zero {
                assert_eq!(r.bon, 0.0);
            }
        }
    }
}

#[test]
fn tree_and_lcag_models_agree_on_doc_alignment() {
    let (world, labels, texts) = fixture();
    for model in [EmbeddingModel::Lcag, EmbeddingModel::Tree] {
        let engine = NewsLink::new(
            &world.graph,
            &labels,
            NewsLinkConfig::default().with_model(model),
        );
        let index = engine.index_corpus(&texts);
        assert_eq!(index.doc_count(), texts.len());
        for seg in index.segments() {
            assert_eq!(seg.bow().doc_count(), seg.bon().doc_count());
        }
    }
}

#[test]
fn nlp_matching_ratio_in_paper_range() {
    let (world, labels, texts) = fixture();
    let nlp = NlpPipeline::new(&world.graph, &labels);
    let mut identified = 0;
    let mut matched = 0;
    for t in &texts {
        let a = nlp.analyze_document(t);
        identified += a.stats.identified;
        matched += a.stats.matched;
    }
    let ratio = matched as f64 / identified.max(1) as f64;
    assert!(
        (0.85..=1.0).contains(&ratio),
        "matching ratio {ratio} outside plausible range"
    );
}

#[test]
fn splits_are_usable_for_training() {
    let (_, _, texts) = fixture();
    let split = Split::new(texts.len(), 5);
    assert_eq!(split.train.len(), 48);
    assert_eq!(split.validation.len(), 6);
    assert_eq!(split.test.len(), 6);
}

#[test]
fn deterministic_end_to_end() {
    let (world, labels, texts) = fixture();
    let engine = NewsLink::new(&world.graph, &labels, NewsLinkConfig::default());
    let index1 = engine.index_corpus(&texts);
    let index2 = engine.index_corpus(&texts);
    let q = texts[3].split('.').next().unwrap();
    let request = SearchRequest::new(q).with_k(10);
    let ids = |index| -> Vec<u32> {
        engine.execute(index, &request).results.iter().map(|r| r.doc.0).collect()
    };
    let (r1, r2) = (ids(&index1), ids(&index2));
    assert_eq!(r1, r2);
}
