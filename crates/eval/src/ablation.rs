//! The two ablations: G* path coverage (DESIGN.md E8) and edge weighting.
//!
//! Both run at β = 1 (embeddings only), so any quality difference comes
//! from the subgraph embeddings alone.

use serde::Serialize;

use newslink_core::{EmbeddingModel, NewsLinkConfig, NewsLinkIndex};
use newslink_corpus::QueryStrategy;
use newslink_embed::SearchConfig;
use newslink_kg::{reweight_by_predicate_rarity, LabelIndex};

use crate::context::EvalContext;
use crate::methods::{NewsLinkMethod, SearchMethod};
use crate::runner::{evaluate_method, judge, MethodScores};

/// One ablation: embedding size and SIM/HIT quality per variant.
#[derive(Debug, Clone, Default, Serialize)]
pub struct AblationResult {
    /// `(variant, mean embedding nodes per document)` rows.
    pub nodes_per_doc: Vec<(String, f64)>,
    /// One row per variant and query strategy.
    pub scores: Vec<MethodScores>,
}

/// NewsLink(1) with the LCAG model, on every available core.
fn beta_one_config() -> NewsLinkConfig {
    NewsLinkConfig::default()
        .with_beta(1.0)
        .with_model(EmbeddingModel::Lcag)
        .with_auto_threads()
}

fn nodes_per_doc(index: &NewsLinkIndex, docs: usize) -> f64 {
    let nodes: usize = index.embeddings().map(|e| e.all_nodes().len()).sum();
    nodes as f64 / docs.max(1) as f64
}

/// Score `method` under both query strategies, naming the rows `label`.
fn score_variant(
    ctx: &EvalContext,
    method: &dyn SearchMethod,
    label: &str,
    vectors: &[Vec<f32>],
    out: &mut Vec<MethodScores>,
) {
    for strategy in [QueryStrategy::LargestEntityDensity, QueryStrategy::Random] {
        let cases = ctx.queries(strategy);
        let mut s = evaluate_method(method, &cases, strategy, vectors);
        s.method = label.to_string();
        out.push(s);
    }
}

/// Does the multi-path *width* of `G*` matter? Full `G*` (all shortest
/// paths per label) against the `single_path` variant (one shortest path
/// per label), with identical compactness-optimal root selection. This
/// isolates the coverage property the paper credits for beating tree
/// models.
pub fn run_ablation_coverage(ctx: &EvalContext) -> AblationResult {
    let vectors = crate::metrics::judge_vectors(&judge(), &ctx.texts);
    let full_cfg = beta_one_config();
    let mut narrow_cfg = full_cfg.clone();
    narrow_cfg.search = SearchConfig {
        single_path: true,
        ..SearchConfig::default()
    };
    let mut result = AblationResult::default();
    for (label, cfg) in [("full-width G*", full_cfg), ("single-path G*", narrow_cfg)] {
        let method = NewsLinkMethod::with_config(ctx, cfg);
        result.nodes_per_doc.push((
            label.to_string(),
            nodes_per_doc(method.index(), ctx.texts.len()),
        ));
        score_variant(ctx, &method, label, &vectors, &mut result.scores);
    }
    result
}

/// Does edge weighting matter? The model is defined over weighted KGs
/// but the paper evaluates unit weights. This compares, on identical
/// topology, unit weights against predicate-rarity weights where common
/// predicates (generic containment) cost 2 — biasing `G*` toward
/// specific relationships.
pub fn run_ablation_weights(ctx: &EvalContext) -> AblationResult {
    let vectors = crate::metrics::judge_vectors(&judge(), &ctx.texts);
    let config = beta_one_config();
    let reweighted = reweight_by_predicate_rarity(&ctx.world.graph, 0.5);
    let reweighted_labels = LabelIndex::build(&reweighted);
    let mut result = AblationResult::default();
    for (label, graph, labels) in [
        ("unit weights", &ctx.world.graph, &ctx.label_index),
        ("rarity weights", &reweighted, &reweighted_labels),
    ] {
        let method = NewsLinkMethod::over(graph, labels, &ctx.texts, config.clone());
        result.nodes_per_doc.push((
            label.to_string(),
            nodes_per_doc(method.index(), ctx.texts.len()),
        ));
        score_variant(ctx, &method, label, &vectors, &mut result.scores);
    }
    result
}
