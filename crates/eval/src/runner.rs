//! Experiment runners: one function per paper table/figure.

use serde::Serialize;

use newslink_baselines::FastTextEmbedder;
use newslink_core::{EmbeddingModel, NewsLink, NewsLinkConfig, SearchRequest};
use newslink_corpus::QueryStrategy;
use newslink_nlp::NlpPipeline;

use crate::context::{EvalContext, QueryCase};
use crate::methods::{
    Doc2VecMethod, LdaMethod, LuceneMethod, NewsLinkMethod, QeprfMethod, SbertMethod,
    SearchMethod,
};
use crate::metrics::{hit_at_k, judge_vectors, sim_at_k, RankedCase};

/// The k values the paper reports.
pub const SIM_KS: [usize; 3] = [5, 10, 20];
/// HIT@k depths of Table IV.
pub const HIT_KS: [usize; 2] = [1, 5];

/// Scores of one method under one query strategy.
#[derive(Debug, Clone, Serialize)]
pub struct MethodScores {
    /// Method display name.
    pub method: String,
    /// Query strategy name (`density` / `random`).
    pub strategy: String,
    /// `(k, SIM@k)` pairs.
    pub sim: Vec<(usize, f64)>,
    /// `(k, HIT@k)` pairs.
    pub hit: Vec<(usize, f64)>,
}

/// Evaluate one method over prepared query cases.
pub fn evaluate_method(
    method: &dyn SearchMethod,
    cases: &[QueryCase],
    strategy: QueryStrategy,
    doc_vectors: &[Vec<f32>],
) -> MethodScores {
    let max_k = SIM_KS.iter().chain(HIT_KS.iter()).copied().max().unwrap_or(5);
    // Queries are independent: fan them out across scoped threads.
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(cases.len())
        .max(1);
    let mut ranked: Vec<Option<RankedCase>> = Vec::new();
    ranked.resize_with(cases.len(), || None);
    let chunk = cases.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let mut slots = ranked.as_mut_slice();
        let mut offset = 0usize;
        while offset < cases.len() {
            let take = chunk.min(cases.len() - offset);
            let (head, rest) = slots.split_at_mut(take);
            slots = rest;
            let batch = &cases[offset..offset + take];
            scope.spawn(move || {
                for (slot, c) in head.iter_mut().zip(batch) {
                    *slot = Some(RankedCase {
                        query_doc: c.doc,
                        results: method.rank(&c.query, max_k),
                    });
                }
            });
            offset += take;
        }
    });
    let ranked: Vec<RankedCase> = ranked.into_iter().map(|r| r.expect("ranked")).collect();
    MethodScores {
        method: method.name(),
        strategy: strategy.name().to_string(),
        sim: SIM_KS
            .iter()
            .map(|&k| (k, sim_at_k(&ranked, doc_vectors, k)))
            .collect(),
        hit: HIT_KS.iter().map(|&k| (k, hit_at_k(&ranked, k))).collect(),
    }
}

/// The FastText-substitute judge used by all SIM@k evaluations.
pub fn judge() -> FastTextEmbedder {
    FastTextEmbedder::new(128, 0xFA57)
}

/// Table IV: all six methods, both query strategies, one corpus.
pub fn run_table_iv(ctx: &EvalContext) -> Vec<MethodScores> {
    let judge = judge();
    let vectors = judge_vectors(&judge, &ctx.texts);
    let methods: Vec<Box<dyn SearchMethod + '_>> = vec![
        Box::new(Doc2VecMethod::new(ctx)),
        Box::new(SbertMethod::new(ctx)),
        Box::new(LdaMethod::new(ctx)),
        Box::new(QeprfMethod::new(ctx)),
        Box::new(LuceneMethod::new(ctx)),
        Box::new(NewsLinkMethod::new(ctx, 0.2, EmbeddingModel::Lcag)),
    ];
    let mut out = Vec::new();
    for strategy in [QueryStrategy::LargestEntityDensity, QueryStrategy::Random] {
        let cases = ctx.queries(strategy);
        for m in &methods {
            out.push(evaluate_method(m.as_ref(), &cases, strategy, &vectors));
        }
    }
    out
}

/// Table V: average entity matching ratio per test query.
#[derive(Debug, Clone, Serialize)]
pub struct MatchingRatio {
    /// Corpus name.
    pub corpus: String,
    /// Mean matched/identified ratio over test queries.
    pub ratio: f64,
    /// Number of test queries measured.
    pub queries: usize,
}

/// Compute Table V for one fixture.
pub fn run_table_v(ctx: &EvalContext) -> MatchingRatio {
    let nlp = NlpPipeline::new(&ctx.world.graph, &ctx.label_index);
    let cases = ctx.queries(QueryStrategy::LargestEntityDensity);
    let mut total = 0.0;
    let mut n = 0usize;
    for c in &cases {
        let a = nlp.analyze_document(&c.query);
        if a.stats.identified > 0 {
            total += a.stats.ratio();
            n += 1;
        }
    }
    MatchingRatio {
        corpus: ctx.corpus.flavor.name().to_string(),
        ratio: if n == 0 { 1.0 } else { total / n as f64 },
        queries: n,
    }
}

/// Table VII: NewsLink(β) vs TreeEmb(β) for the paper's β sweep.
pub fn run_table_vii(ctx: &EvalContext, betas: &[f64]) -> Vec<MethodScores> {
    let judge = judge();
    let vectors = judge_vectors(&judge, &ctx.texts);
    let mut out = Vec::new();
    for &model in &[EmbeddingModel::Lcag, EmbeddingModel::Tree] {
        for &beta in betas {
            let method = NewsLinkMethod::new(ctx, beta, model);
            for strategy in [QueryStrategy::LargestEntityDensity, QueryStrategy::Random] {
                let cases = ctx.queries(strategy);
                out.push(evaluate_method(&method, &cases, strategy, &vectors));
            }
        }
    }
    out
}

/// Table VIII: per-component query latency (milliseconds).
#[derive(Debug, Clone, Serialize)]
pub struct QueryTiming {
    /// Corpus name.
    pub corpus: String,
    /// Mean NLP time per query (ms).
    pub nlp_ms: f64,
    /// Mean NE (subgraph embedding) time per query (ms).
    pub ne_ms: f64,
    /// Mean NS (retrieval) time per query (ms).
    pub ns_ms: f64,
    /// Queries measured.
    pub queries: usize,
}

/// Measure Table VIII on a prebuilt NewsLink method.
pub fn run_table_viii(ctx: &EvalContext, method: &NewsLinkMethod<'_>) -> QueryTiming {
    let cases = ctx.queries(QueryStrategy::LargestEntityDensity);
    let mut nlp = 0.0;
    let mut ne = 0.0;
    let mut ns = 0.0;
    for c in &cases {
        // Uncached, so every query pays the full NLP + NE + NS cost.
        let request = SearchRequest::new(&c.query).with_k(20).without_cache();
        let outcome = method.engine().execute(method.index(), &request);
        nlp += outcome.timer.total("nlp").as_secs_f64() * 1e3;
        ne += outcome.timer.total("ne").as_secs_f64() * 1e3;
        ns += outcome.timer.total("ns").as_secs_f64() * 1e3;
    }
    let n = cases.len().max(1) as f64;
    QueryTiming {
        corpus: ctx.corpus.flavor.name().to_string(),
        nlp_ms: nlp / n,
        ne_ms: ne / n,
        ns_ms: ns / n,
        queries: cases.len(),
    }
}

/// Figure 7: average embedding time per document for both NE models.
#[derive(Debug, Clone, Serialize)]
pub struct EmbeddingTiming {
    /// Corpus name.
    pub corpus: String,
    /// `(model, nlp ms/doc, ne ms/doc)` rows.
    pub rows: Vec<(String, f64, f64)>,
}

/// Measure Figure 7 by re-embedding the corpus under each model.
pub fn run_fig7(ctx: &EvalContext) -> EmbeddingTiming {
    let mut rows = Vec::new();
    for (name, model) in [
        ("NewsLink", EmbeddingModel::Lcag),
        ("TreeEmb", EmbeddingModel::Tree),
    ] {
        let config = NewsLinkConfig::default().with_model(model);
        let engine = NewsLink::new(&ctx.world.graph, &ctx.label_index, config);
        let index = engine.index_corpus(&ctx.texts);
        let n = ctx.texts.len().max(1) as f64;
        rows.push((
            name.to_string(),
            index.timer.total("nlp").as_secs_f64() * 1e3 / n,
            index.timer.total("ne").as_secs_f64() * 1e3 / n,
        ));
    }
    EmbeddingTiming {
        corpus: ctx.corpus.flavor.name().to_string(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::EvalScale;
    use newslink_corpus::CorpusFlavor;

    fn ctx() -> EvalContext {
        EvalContext::build(CorpusFlavor::CnnLike, EvalScale::Tiny, 21)
    }

    #[test]
    fn evaluate_method_produces_all_metrics() {
        let ctx = ctx();
        let judge = judge();
        let vectors = judge_vectors(&judge, &ctx.texts);
        let cases = ctx.queries(QueryStrategy::LargestEntityDensity);
        let m = LuceneMethod::new(&ctx);
        let s = evaluate_method(&m, &cases, QueryStrategy::LargestEntityDensity, &vectors);
        assert_eq!(s.method, "Lucene");
        assert_eq!(s.sim.len(), 3);
        assert_eq!(s.hit.len(), 2);
        for (_, v) in s.sim.iter().chain(&s.hit) {
            assert!((0.0..=1.0).contains(v), "{v}");
        }
        // HIT@5 >= HIT@1 by construction.
        assert!(s.hit[1].1 >= s.hit[0].1);
    }

    #[test]
    fn lucene_hits_are_high_for_exact_sentences() {
        let ctx = ctx();
        let judge = judge();
        let vectors = judge_vectors(&judge, &ctx.texts);
        let cases = ctx.queries(QueryStrategy::LargestEntityDensity);
        let m = LuceneMethod::new(&ctx);
        let s = evaluate_method(&m, &cases, QueryStrategy::LargestEntityDensity, &vectors);
        assert!(s.hit[1].1 > 0.4, "HIT@5 = {}", s.hit[1].1);
    }

    #[test]
    fn table_v_ratio_is_high_but_imperfect() {
        let ctx = ctx();
        let r = run_table_v(&ctx);
        assert!(r.ratio > 0.5, "ratio {}", r.ratio);
        assert!(r.ratio <= 1.0);
        assert!(r.queries > 0);
    }

    #[test]
    fn table_viii_timings_positive() {
        let ctx = ctx();
        let nl = NewsLinkMethod::new(&ctx, 0.2, EmbeddingModel::Lcag);
        let t = run_table_viii(&ctx, &nl);
        assert!(t.ne_ms >= 0.0);
        assert!(t.queries > 0);
    }
}
