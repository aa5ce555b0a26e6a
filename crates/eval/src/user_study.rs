//! Simulated user study (Figure 5; DESIGN.md §6.7).
//!
//! The paper showed 20 human participants ten query/result pairs retrieved
//! with subgraph embeddings only (β = 1) and asked whether the embedding
//! information helps understand the stories' relatedness. Participants are
//! unavailable offline, so we simulate a panel whose *failure modes are
//! exactly the three the paper's participants reported*:
//!
//! 1. the participant already knows the connection → not helped;
//! 2. the embedding adds nothing beyond the text → not helpful;
//! 3. the embedding is too large → overload, not helpful.
//!
//! Each simulated participant draws personal thresholds from a seeded RNG;
//! each pair contributes features (relationship-path count, novel induced
//! entities, embedding size) computed from the real retrieval pipeline.

use serde::Serialize;

use newslink_core::{EmbeddingModel, NewsLink, NewsLinkConfig, SearchRequest};
use newslink_corpus::QueryStrategy;
use newslink_embed::relationship_paths;
use newslink_util::DetRng;

use crate::context::EvalContext;

/// A participant's answer for one pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Verdict {
    /// The embedding helped understand the relatedness.
    Helpful,
    /// Indifferent.
    Neutral,
    /// Actively unhelpful (redundant or overwhelming).
    NotHelpful,
}

/// Features of one query/result pair shown to the panel.
#[derive(Debug, Clone, Serialize)]
pub struct PairFeatures {
    /// Corpus doc index of the query document.
    pub query_doc: usize,
    /// Corpus doc index of the top result.
    pub result_doc: usize,
    /// Number of relationship paths linking the two embeddings.
    pub path_count: usize,
    /// Induced entities (embedding nodes not mentioned in either text).
    pub novel_entities: usize,
    /// Total nodes across both embeddings.
    pub embedding_size: usize,
}

/// Aggregated study outcome.
#[derive(Debug, Clone, Serialize)]
pub struct UserStudyResult {
    /// Pair features shown.
    pub pairs: Vec<PairFeatures>,
    /// Panel size.
    pub participants: usize,
    /// Total Helpful votes.
    pub helpful: usize,
    /// Total Neutral votes.
    pub neutral: usize,
    /// Total NotHelpful votes.
    pub not_helpful: usize,
}

impl UserStudyResult {
    /// Fraction of votes that were Helpful.
    pub fn helpful_fraction(&self) -> f64 {
        let total = self.helpful + self.neutral + self.not_helpful;
        if total == 0 {
            0.0
        } else {
            self.helpful as f64 / total as f64
        }
    }
}

/// One simulated participant's private thresholds.
struct Participant {
    /// Probability they already know the connection (failure mode 1).
    knows_prob: f64,
    /// Minimum novel entities demanded (failure mode 2).
    novelty_need: usize,
    /// Embedding size above which they feel overloaded (failure mode 3).
    overload_at: usize,
}

impl Participant {
    fn draw(rng: &mut DetRng) -> Self {
        Self {
            knows_prob: 0.05 + 0.25 * rng.unit(),
            novelty_need: 1 + rng.below(2),
            overload_at: 40 + rng.below(60),
        }
    }

    fn judge(&self, rng: &mut DetRng, pair: &PairFeatures) -> Verdict {
        if rng.chance(self.knows_prob) {
            // Already knew the connection — extra information is noise.
            return Verdict::Neutral;
        }
        if pair.embedding_size > self.overload_at {
            return Verdict::NotHelpful;
        }
        if pair.novel_entities < self.novelty_need {
            // Everything shown was already in the text.
            return Verdict::NotHelpful;
        }
        if pair.path_count >= 1 {
            Verdict::Helpful
        } else {
            Verdict::Neutral
        }
    }
}

/// Build pair features with the β = 1 retrieval pipeline (as in §VII-D).
pub fn build_pairs(ctx: &EvalContext, n_pairs: usize) -> Vec<PairFeatures> {
    let config = NewsLinkConfig::default()
        .with_beta(1.0)
        .with_model(EmbeddingModel::Lcag)
        .with_auto_threads();
    let engine = NewsLink::new(&ctx.world.graph, &ctx.label_index, config);
    let index = engine.index_corpus(&ctx.texts);
    let mut pairs = Vec::new();
    for case in ctx.queries(QueryStrategy::LargestEntityDensity) {
        if pairs.len() == n_pairs {
            break;
        }
        let outcome = engine.execute(&index, &SearchRequest::new(&case.query).with_k(5));
        // Top result that is not the query's own document.
        let Some(hit) = outcome.results.iter().find(|r| r.doc.index() != case.doc) else {
            continue;
        };
        let result_doc = hit.doc.index();
        let result_embedding = index.embedding(hit.doc).expect("live build-time doc");
        let query_embedding = index
            .embedding(newslink_text::DocId(case.doc as u32))
            .expect("live build-time doc");
        let paths = relationship_paths(query_embedding, result_embedding, 6, 50);
        let both_texts = format!("{} {}", ctx.texts[case.doc], ctx.texts[result_doc]);
        let lower = both_texts.to_lowercase();
        let mut novel = 0usize;
        let mut size = 0usize;
        for &node in query_embedding
            .all_nodes()
            .iter()
            .chain(result_embedding.all_nodes().iter())
        {
            size += 1;
            let label = ctx.world.graph.label(node).to_lowercase();
            if !lower.contains(&label) {
                novel += 1;
            }
        }
        pairs.push(PairFeatures {
            query_doc: case.doc,
            result_doc,
            path_count: paths.len(),
            novel_entities: novel,
            embedding_size: size,
        });
    }
    pairs
}

/// Run the full simulated study.
pub fn run_user_study(
    ctx: &EvalContext,
    n_pairs: usize,
    participants: usize,
    seed: u64,
) -> UserStudyResult {
    let pairs = build_pairs(ctx, n_pairs);
    let mut rng = DetRng::new(seed);
    let mut helpful = 0;
    let mut neutral = 0;
    let mut not_helpful = 0;
    for _ in 0..participants {
        let p = Participant::draw(&mut rng);
        for pair in &pairs {
            match p.judge(&mut rng, pair) {
                Verdict::Helpful => helpful += 1,
                Verdict::Neutral => neutral += 1,
                Verdict::NotHelpful => not_helpful += 1,
            }
        }
    }
    UserStudyResult {
        pairs,
        participants,
        helpful,
        neutral,
        not_helpful,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::EvalScale;
    use newslink_corpus::CorpusFlavor;

    fn ctx() -> EvalContext {
        EvalContext::build(CorpusFlavor::CnnLike, EvalScale::Tiny, 31)
    }

    #[test]
    fn pairs_have_real_retrieval_features() {
        let ctx = ctx();
        let pairs = build_pairs(&ctx, 5);
        assert!(!pairs.is_empty());
        for p in &pairs {
            assert_ne!(p.query_doc, p.result_doc);
            assert!(p.embedding_size > 0);
        }
    }

    #[test]
    fn study_is_deterministic() {
        let ctx = ctx();
        let a = run_user_study(&ctx, 5, 10, 77);
        let b = run_user_study(&ctx, 5, 10, 77);
        assert_eq!(a.helpful, b.helpful);
        assert_eq!(a.neutral, b.neutral);
        assert_eq!(a.not_helpful, b.not_helpful);
    }

    #[test]
    fn majority_finds_embeddings_helpful() {
        // The paper's headline: "more than half participants think the
        // subgraph embeddings are helpful".
        let ctx = ctx();
        let r = run_user_study(&ctx, 10, 20, 5);
        assert!(
            r.helpful_fraction() > 0.5,
            "helpful fraction {} (h={} n={} nh={})",
            r.helpful_fraction(),
            r.helpful,
            r.neutral,
            r.not_helpful
        );
        // And the failure modes exist: not everyone is helped.
        assert!(r.neutral + r.not_helpful > 0);
    }

    #[test]
    fn vote_totals_add_up() {
        let ctx = ctx();
        let r = run_user_study(&ctx, 4, 7, 3);
        assert_eq!(
            r.helpful + r.neutral + r.not_helpful,
            r.pairs.len() * r.participants
        );
    }
}
