//! A score explanation is part of the result: `NewsLink::explain_score`
//! must reproduce the blended score `execute` ranked with, bit for bit,
//! on the seeded evaluation fixtures — across a segmented build, live
//! tombstones, live inserts and the β sweep.

use newslink::core::{NewsLink, NewsLinkConfig, SearchRequest};
use newslink::corpus::QueryStrategy;
use newslink::eval::{cnn_context, kaggle_context, EvalContext, EvalScale};
use newslink::text::DocId;

fn assert_explanations_match_ranking(ctx: &EvalContext) -> usize {
    let builder = NewsLink::new(
        &ctx.world.graph,
        &ctx.label_index,
        NewsLinkConfig::default().with_segment_docs(7),
    );
    let mut index = builder.index_corpus(&ctx.texts);
    for doc in (0..ctx.texts.len()).step_by(5) {
        assert!(builder.delete_document(&mut index, DocId(doc as u32)));
    }
    for text in ctx.texts.iter().skip(1).take(6) {
        builder.insert_document(&mut index, text);
    }
    assert!(index.tombstone_count() > 0, "the fixture must exercise tombstones");

    let queries: Vec<String> = [QueryStrategy::LargestEntityDensity, QueryStrategy::Random]
        .into_iter()
        .flat_map(|strategy| ctx.queries(strategy))
        .map(|case| case.query)
        .collect();
    let mut checked = 0;
    for beta in [0.0, 0.2, 0.5, 1.0] {
        let engine = NewsLink::new(
            &ctx.world.graph,
            &ctx.label_index,
            NewsLinkConfig::default().with_beta(beta),
        );
        for query in &queries {
            let response = engine.execute(&index, &SearchRequest::new(query.as_str()));
            for hit in &response.results {
                let ex = engine.explain_score(&index, query, hit.doc);
                let at = format!("β={beta} doc {} query {query:?}", hit.doc.0);
                assert_eq!(ex.total.to_bits(), hit.score.to_bits(), "total, {at}");
                assert_eq!(ex.bow.normalized.to_bits(), hit.bow.to_bits(), "bow, {at}");
                assert_eq!(ex.bon.normalized.to_bits(), hit.bon.to_bits(), "bon, {at}");
                checked += 1;
            }
        }
    }
    checked
}

#[test]
fn explain_score_is_bit_identical_to_execute_on_the_cnn_fixture() {
    let checked = assert_explanations_match_ranking(&cnn_context(EvalScale::Tiny));
    assert!(checked > 100, "only {checked} hits checked");
}

#[test]
fn explain_score_is_bit_identical_to_execute_on_the_kaggle_fixture() {
    let checked = assert_explanations_match_ranking(&kaggle_context(EvalScale::Tiny));
    assert!(checked > 100, "only {checked} hits checked");
}
