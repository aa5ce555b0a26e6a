//! The unified method registry: every Table IV / VII competitor behind one
//! trait, so runners can sweep them uniformly.

use newslink_baselines::vector::cosine;
use newslink_baselines::{
    Doc2Vec, Doc2VecConfig, Lda, LdaConfig, Qeprf, QeprfConfig, SbertEmbedder,
};
use newslink_core::{EmbeddingModel, NewsLink, NewsLinkConfig, NewsLinkIndex, SearchRequest};
use newslink_kg::{KnowledgeGraph, LabelIndex};
use newslink_nlp::analyze;
use newslink_text::{Bm25, Searcher};
use newslink_util::TopK;

use crate::context::EvalContext;

/// A ranked-retrieval method under evaluation.
///
/// `Sync` so runners can fan queries out across threads.
pub trait SearchMethod: Sync {
    /// Display name for tables (e.g. `NewsLink(0.2)`).
    fn name(&self) -> String;
    /// Top-k corpus document indices for `query`, best first.
    fn rank(&self, query: &str, k: usize) -> Vec<usize>;
}

/// Brute-force cosine ranking over precomputed document vectors.
fn rank_by_cosine(doc_vectors: &[Vec<f32>], query_vec: &[f32], k: usize) -> Vec<usize> {
    let mut topk = TopK::new(k);
    for (i, v) in doc_vectors.iter().enumerate() {
        let s = cosine(query_vec, v);
        if s > 0.0 {
            topk.push(s, i);
        }
    }
    topk.into_sorted().into_iter().map(|(_, i)| i).collect()
}

// ---------------------------------------------------------------------------

/// The Lucene baseline: BM25 over the text index, default settings.
pub struct LuceneMethod<'c> {
    ctx: &'c EvalContext,
}

impl<'c> LuceneMethod<'c> {
    /// Build over the fixture's text index.
    pub fn new(ctx: &'c EvalContext) -> Self {
        Self { ctx }
    }
}

impl SearchMethod for LuceneMethod<'_> {
    fn name(&self) -> String {
        "Lucene".to_string()
    }

    fn rank(&self, query: &str, k: usize) -> Vec<usize> {
        let searcher = Searcher::new(&self.ctx.bow_index, Bm25::default());
        searcher
            .search(&analyze(query), k)
            .into_iter()
            .map(|h| h.doc.index())
            .collect()
    }
}

// ---------------------------------------------------------------------------

/// QEPRF: KG-description + PRF query expansion over BM25.
pub struct QeprfMethod<'c> {
    ctx: &'c EvalContext,
    config: QeprfConfig,
}

impl<'c> QeprfMethod<'c> {
    /// Build with default expansion settings.
    pub fn new(ctx: &'c EvalContext) -> Self {
        Self {
            ctx,
            config: QeprfConfig::default(),
        }
    }
}

impl SearchMethod for QeprfMethod<'_> {
    fn name(&self) -> String {
        "QEPRF".to_string()
    }

    fn rank(&self, query: &str, k: usize) -> Vec<usize> {
        let q = Qeprf::new(
            &self.ctx.world.graph,
            &self.ctx.label_index,
            &self.ctx.bow_index,
            &self.ctx.doc_terms,
            self.config.clone(),
        );
        q.search(query, k).into_iter().map(|h| h.doc.index()).collect()
    }
}

// ---------------------------------------------------------------------------

/// Doc2Vec substitute: random-indexing embeddings trained on the train
/// split, brute-force cosine ranking.
pub struct Doc2VecMethod {
    model: Doc2Vec,
    doc_vectors: Vec<Vec<f32>>,
}

impl Doc2VecMethod {
    /// Train on the fixture's training split and embed every document.
    pub fn new(ctx: &EvalContext) -> Self {
        let model = Doc2Vec::train(&ctx.train_terms(), Doc2VecConfig::default());
        let doc_vectors = ctx.doc_terms.iter().map(|t| model.embed(t)).collect();
        Self { model, doc_vectors }
    }
}

impl SearchMethod for Doc2VecMethod {
    fn name(&self) -> String {
        "Doc2Vec".to_string()
    }

    fn rank(&self, query: &str, k: usize) -> Vec<usize> {
        let qv = self.model.embed(&analyze(query));
        rank_by_cosine(&self.doc_vectors, &qv, k)
    }
}

// ---------------------------------------------------------------------------

/// SBERT substitute: pretrained-style SIF-pooled sentence vectors.
pub struct SbertMethod {
    embedder: SbertEmbedder,
    doc_vectors: Vec<Vec<f32>>,
}

impl SbertMethod {
    /// Embed every document with the corpus-independent embedder.
    pub fn new(ctx: &EvalContext) -> Self {
        let embedder = SbertEmbedder::new(256, 0x5BE7);
        let doc_vectors = ctx.texts.iter().map(|t| embedder.embed(t)).collect();
        Self {
            embedder,
            doc_vectors,
        }
    }
}

impl SearchMethod for SbertMethod {
    fn name(&self) -> String {
        "SBERT".to_string()
    }

    fn rank(&self, query: &str, k: usize) -> Vec<usize> {
        let qv = self.embedder.embed(query);
        rank_by_cosine(&self.doc_vectors, &qv, k)
    }
}

// ---------------------------------------------------------------------------

/// LDA: collapsed-Gibbs topic mixtures, cosine over θ.
pub struct LdaMethod {
    model: Lda,
    doc_thetas: Vec<Vec<f64>>,
}

impl LdaMethod {
    /// Train on the training split and infer θ for every document.
    pub fn new(ctx: &EvalContext) -> Self {
        let model = Lda::train(&ctx.train_terms(), LdaConfig::default());
        let doc_thetas = ctx.doc_terms.iter().map(|t| model.infer(t)).collect();
        Self { model, doc_thetas }
    }
}

impl SearchMethod for LdaMethod {
    fn name(&self) -> String {
        "LDA".to_string()
    }

    fn rank(&self, query: &str, k: usize) -> Vec<usize> {
        let q = self.model.infer(&analyze(query));
        let mut topk = TopK::new(k);
        for (i, theta) in self.doc_thetas.iter().enumerate() {
            let s = Lda::similarity(&q, theta);
            if s > 0.0 {
                topk.push(s, i);
            }
        }
        topk.into_sorted().into_iter().map(|(_, i)| i).collect()
    }
}

// ---------------------------------------------------------------------------

/// NewsLink(β), optionally with the TreeEmb model (the paper's
/// `TreeEmb(β)` rows of Table VII): one engine and the index it built.
pub struct NewsLinkMethod<'g> {
    engine: NewsLink<'g>,
    index: NewsLinkIndex,
}

impl<'g> NewsLinkMethod<'g> {
    /// Embed and index the fixture's corpus under `model` with weight β.
    pub fn new(ctx: &'g EvalContext, beta: f64, model: EmbeddingModel) -> Self {
        let config = NewsLinkConfig::default()
            .with_beta(beta)
            .with_model(model)
            .with_auto_threads();
        Self::with_config(ctx, config)
    }

    /// Embed and index under an explicit configuration (used by the
    /// ablations, e.g. the `single_path` width ablation).
    pub fn with_config(ctx: &'g EvalContext, config: NewsLinkConfig) -> Self {
        Self::over(&ctx.world.graph, &ctx.label_index, &ctx.texts, config)
    }

    /// Embed and index `texts` over an explicit graph (used by the
    /// edge-weight ablation's reweighted graph).
    pub fn over(
        graph: &'g KnowledgeGraph,
        labels: &'g LabelIndex,
        texts: &[String],
        config: NewsLinkConfig,
    ) -> Self {
        let engine = NewsLink::new(graph, labels, config);
        let index = engine.index_corpus(texts);
        Self { engine, index }
    }

    /// The built index (reused by timing experiments).
    pub fn index(&self) -> &NewsLinkIndex {
        &self.index
    }

    /// The engine that built the index.
    pub fn engine(&self) -> &NewsLink<'g> {
        &self.engine
    }
}

impl SearchMethod for NewsLinkMethod<'_> {
    fn name(&self) -> String {
        let config = self.engine.config();
        match config.model {
            EmbeddingModel::Lcag => format!("NewsLink({})", config.beta),
            EmbeddingModel::Tree => format!("TreeEmb({})", config.beta),
        }
    }

    fn rank(&self, query: &str, k: usize) -> Vec<usize> {
        let response = self.engine.execute(&self.index, &SearchRequest::new(query).with_k(k));
        response.results.into_iter().map(|r| r.doc.index()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{EvalContext, EvalScale};
    use newslink_corpus::{CorpusFlavor, QueryStrategy};

    fn ctx() -> EvalContext {
        EvalContext::build(CorpusFlavor::CnnLike, EvalScale::Tiny, 13)
    }

    #[test]
    fn all_methods_return_bounded_ranked_lists() {
        let ctx = ctx();
        let q = &ctx.queries(QueryStrategy::LargestEntityDensity)[0];
        let methods: Vec<Box<dyn SearchMethod>> = vec![
            Box::new(LuceneMethod::new(&ctx)),
            Box::new(QeprfMethod::new(&ctx)),
            Box::new(SbertMethod::new(&ctx)),
        ];
        for m in &methods {
            let r = m.rank(&q.query, 5);
            assert!(r.len() <= 5, "{}", m.name());
            assert!(r.iter().all(|&d| d < ctx.corpus.len()), "{}", m.name());
            // no duplicates
            let set: std::collections::HashSet<_> = r.iter().collect();
            assert_eq!(set.len(), r.len(), "{}", m.name());
        }
    }

    #[test]
    fn lucene_recovers_exact_text() {
        let ctx = ctx();
        let q = &ctx.queries(QueryStrategy::LargestEntityDensity)[0];
        let lucene = LuceneMethod::new(&ctx);
        let r = lucene.rank(&q.query, 5);
        assert!(
            r.contains(&q.doc),
            "BM25 should recover the source of its own sentence"
        );
    }

    #[test]
    fn newslink_method_names() {
        let ctx = ctx();
        let nl = NewsLinkMethod::new(&ctx, 0.2, EmbeddingModel::Lcag);
        assert_eq!(nl.name(), "NewsLink(0.2)");
        assert!(nl.index().doc_count() == ctx.corpus.len());
        let te = NewsLinkMethod::new(&ctx, 1.0, EmbeddingModel::Tree);
        assert_eq!(te.name(), "TreeEmb(1)");
    }

    #[test]
    fn newslink_ranks_reasonably() {
        let ctx = ctx();
        let q = &ctx.queries(QueryStrategy::LargestEntityDensity)[0];
        let nl = NewsLinkMethod::new(&ctx, 0.2, EmbeddingModel::Lcag);
        let r = nl.rank(&q.query, 5);
        assert!(!r.is_empty());
        assert!(r.contains(&q.doc), "blended search should recover source");
    }

    #[test]
    fn trained_methods_build() {
        let ctx = ctx();
        let d2v = Doc2VecMethod::new(&ctx);
        let lda = LdaMethod::new(&ctx);
        let q = &ctx.queries(QueryStrategy::Random)[0];
        assert!(d2v.rank(&q.query, 3).len() <= 3);
        assert!(lda.rank(&q.query, 3).len() <= 3);
        assert_eq!(d2v.name(), "Doc2Vec");
        assert_eq!(lda.name(), "LDA");
    }
}
