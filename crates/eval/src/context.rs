//! The shared evaluation fixture: world + corpus + splits + text index.
//!
//! Every experiment (Tables IV, V, VII, VIII; Figures 5–7) runs against an
//! [`EvalContext`], which pins one synthetic world, one generated corpus,
//! the 80/10/10 split, the analyzed term streams, and the BM25 text index
//! over the *whole* corpus (the paper queries "the entire news corpus").

use newslink_corpus::{
    generate_corpus, select_query, Corpus, CorpusConfig, CorpusFlavor, QueryStrategy, Split,
};
use newslink_kg::{synth, LabelIndex, SynthConfig, SynthWorld};
use newslink_nlp::{analyze, NlpPipeline};
use newslink_text::{IndexBuilder, InvertedIndex};
use newslink_util::DetRng;

/// One evaluation query: the source test document and the query sentence
/// extracted from it.
#[derive(Debug, Clone)]
pub struct QueryCase {
    /// Corpus index of the source document.
    pub doc: usize,
    /// The (partial) query text.
    pub query: String,
}

/// Scale of an evaluation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalScale {
    /// Tiny: unit-test sized (small world, ~80 docs).
    Tiny,
    /// Default `repro` scale (medium world, ~600 docs per corpus).
    Small,
    /// Fuller run (medium world, ~2400 docs).
    Medium,
    /// Stress scale (large world, ~12000 docs).
    Large,
}

impl EvalScale {
    /// Parse from the `NEWSLINK_SCALE` environment variable.
    pub fn from_env() -> Self {
        match std::env::var("NEWSLINK_SCALE").as_deref() {
            Ok("tiny") => EvalScale::Tiny,
            Ok("medium") => EvalScale::Medium,
            Ok("large") => EvalScale::Large,
            _ => EvalScale::Small,
        }
    }

    /// World configuration for this scale.
    pub fn world_config(self, seed: u64) -> SynthConfig {
        match self {
            EvalScale::Tiny => SynthConfig::small(seed),
            EvalScale::Small | EvalScale::Medium => SynthConfig::medium(seed),
            EvalScale::Large => SynthConfig::large(seed),
        }
    }

    /// Documents per corpus for this scale.
    pub fn documents(self) -> usize {
        match self {
            EvalScale::Tiny => 80,
            EvalScale::Small => 600,
            EvalScale::Medium => 2400,
            EvalScale::Large => 12_000,
        }
    }
}

/// The pinned evaluation fixture.
pub struct EvalContext {
    /// The synthetic world (graph + registers).
    pub world: SynthWorld,
    /// Label index over the world graph.
    pub label_index: LabelIndex,
    /// The generated corpus.
    pub corpus: Corpus,
    /// The 80/10/10 split.
    pub split: Split,
    /// Full document texts (aligned with corpus doc ids).
    pub texts: Vec<String>,
    /// Analyzed BOW term streams per document.
    pub doc_terms: Vec<Vec<String>>,
    /// BM25 text index over the whole corpus (the Lucene substitute).
    pub bow_index: InvertedIndex,
    /// The master seed.
    pub seed: u64,
    /// The scale the fixture was built at.
    pub scale: EvalScale,
}

impl EvalContext {
    /// Build a fixture for `flavor` at `scale` with `seed`.
    pub fn build(flavor: CorpusFlavor, scale: EvalScale, seed: u64) -> Self {
        let world = synth::generate(&scale.world_config(seed));
        let label_index = LabelIndex::build(&world.graph);
        let corpus = generate_corpus(
            &world,
            &CorpusConfig::new(seed ^ 0xC0_FF_EE, scale.documents(), flavor),
        );
        let split = Split::new(corpus.len(), seed ^ 0x5311);
        let texts: Vec<String> = corpus.docs.iter().map(|d| d.text.clone()).collect();
        let doc_terms: Vec<Vec<String>> = texts.iter().map(|t| analyze(t)).collect();
        let mut ib = IndexBuilder::new();
        for t in &doc_terms {
            ib.add_document(t);
        }
        Self {
            world,
            label_index,
            corpus,
            split,
            texts,
            doc_terms,
            bow_index: ib.build(),
            seed,
            scale,
        }
    }

    /// Term streams of the training split (for trainable baselines).
    pub fn train_terms(&self) -> Vec<Vec<String>> {
        self.split
            .train
            .iter()
            .map(|&i| self.doc_terms[i].clone())
            .collect()
    }

    /// Build the evaluation query set from the test split.
    pub fn queries(&self, strategy: QueryStrategy) -> Vec<QueryCase> {
        let nlp = NlpPipeline::new(&self.world.graph, &self.label_index);
        let mut rng = DetRng::new(self.seed ^ 0x9E_AB_12);
        let mut out = Vec::new();
        for &doc in &self.split.test {
            let analysis = nlp.analyze_document(&self.texts[doc]);
            if let Some(query) = select_query(&analysis, strategy, &mut rng) {
                out.push(QueryCase { doc, query });
            }
        }
        out
    }
}

/// The fixed seed the recorded CNN-flavor experiments use.
pub const CNN_SEED: u64 = 1101;
/// Kaggle-flavor fixture seed.
pub const KAGGLE_SEED: u64 = 2202;

/// Build the CNN-flavor fixture the recorded experiments use.
pub fn cnn_context(scale: EvalScale) -> EvalContext {
    EvalContext::build(CorpusFlavor::CnnLike, scale, CNN_SEED)
}

/// Build the Kaggle-flavor fixture the recorded experiments use.
pub fn kaggle_context(scale: EvalScale) -> EvalContext {
    EvalContext::build(CorpusFlavor::KaggleLike, scale, KAGGLE_SEED)
}

/// Print the standard experiment banner.
pub fn banner(name: &str, ctx: &EvalContext) {
    println!(
        "\n### {name} | corpus={} docs={} kg_nodes={} kg_edges={} scale={:?}",
        ctx.corpus.flavor.name(),
        ctx.corpus.len(),
        ctx.world.graph.node_count(),
        ctx.world.graph.edge_count(),
        ctx.scale,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> EvalContext {
        EvalContext::build(CorpusFlavor::CnnLike, EvalScale::Tiny, 7)
    }

    #[test]
    fn fixture_is_internally_consistent() {
        let ctx = tiny();
        assert_eq!(ctx.corpus.len(), 80);
        assert_eq!(ctx.texts.len(), 80);
        assert_eq!(ctx.doc_terms.len(), 80);
        assert_eq!(ctx.bow_index.doc_count(), 80);
        assert_eq!(ctx.split.len(), 80);
        assert_eq!(ctx.split.test.len(), 8);
    }

    #[test]
    fn queries_come_from_test_split() {
        let ctx = tiny();
        let qs = ctx.queries(QueryStrategy::LargestEntityDensity);
        assert!(!qs.is_empty());
        for q in &qs {
            assert!(ctx.split.test.contains(&q.doc));
            assert!(!q.query.is_empty());
            assert!(ctx.texts[q.doc].contains(&q.query));
        }
    }

    #[test]
    fn density_and_random_strategies_differ_somewhere() {
        let ctx = tiny();
        let d = ctx.queries(QueryStrategy::LargestEntityDensity);
        let r = ctx.queries(QueryStrategy::Random);
        assert_eq!(d.len(), r.len());
        assert!(
            d.iter().zip(&r).any(|(a, b)| a.query != b.query),
            "strategies should pick different sentences for some doc"
        );
    }

    #[test]
    fn train_terms_match_split() {
        let ctx = tiny();
        assert_eq!(ctx.train_terms().len(), ctx.split.train.len());
    }

    #[test]
    fn scale_from_env_defaults_to_small() {
        // (Does not set the variable to avoid cross-test interference.)
        assert_eq!(EvalScale::Small.documents(), 600);
        assert_eq!(EvalScale::Tiny.documents(), 80);
    }
}
