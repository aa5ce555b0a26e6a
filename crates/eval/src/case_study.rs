//! Case study (Figure 6, Tables I/II/VI): a fully worked query/result
//! pair with its subgraph embeddings and rendered relationship paths.

use std::fmt;

use serde::Serialize;

use newslink_core::{EmbeddingModel, NewsLink, NewsLinkConfig, SearchRequest};
use newslink_corpus::QueryStrategy;
use newslink_embed::{overlap_to_dot, relationship_paths};
use newslink_nlp::NlpPipeline;

use crate::context::EvalContext;

/// The rendered case study.
#[derive(Debug, Clone, Serialize)]
pub struct CaseStudy {
    /// The partial query text.
    pub query: String,
    /// Full text of the retrieved result.
    pub result: String,
    /// Entities matched in both texts (Table I column 3).
    pub matched_entities: Vec<String>,
    /// Entities identified in the texts but resolved only through the KG
    /// (Table I column 4 analog: present in one text, absent in the other).
    pub unmatched_entities: Vec<String>,
    /// Induced entities: embedding nodes mentioned in neither text
    /// (Table I column 5 — e.g. *Khyber* in the paper's example).
    pub induced_entities: Vec<String>,
    /// Rendered relationship paths (Tables II / VI).
    pub paths: Vec<String>,
    /// Graphviz DOT of the two embeddings with overlap coloring (the
    /// Figure 6 picture; render with `dot -Tsvg`).
    pub dot: String,
}

impl fmt::Display for CaseStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "QUERY   : {}", self.query)?;
        writeln!(f, "RESULT  : {}", self.result)?;
        writeln!(f, "matched : {}", self.matched_entities.join(", "))?;
        writeln!(f, "unmatched: {}", self.unmatched_entities.join(", "))?;
        writeln!(f, "induced : {}", self.induced_entities.join(", "))?;
        writeln!(f, "relationship paths:")?;
        for p in &self.paths {
            writeln!(f, "  {p}")?;
        }
        Ok(())
    }
}

/// Run the case study: retrieve with embeddings only (β = 1, as in
/// §VII-E) and explain the top non-self result. Returns `None` when no
/// query produces an explained result (tiny corpora).
pub fn run_case_study(ctx: &EvalContext) -> Option<CaseStudy> {
    let config = NewsLinkConfig::default()
        .with_beta(1.0)
        .with_model(EmbeddingModel::Lcag)
        .with_auto_threads();
    let engine = NewsLink::new(&ctx.world.graph, &ctx.label_index, config);
    let index = engine.index_corpus(&ctx.texts);
    let nlp = NlpPipeline::new(&ctx.world.graph, &ctx.label_index);

    for case in ctx.queries(QueryStrategy::LargestEntityDensity) {
        let outcome = engine.execute(&index, &SearchRequest::new(&case.query).with_k(5));
        let Some(hit) = outcome.results.iter().find(|r| r.doc.index() != case.doc) else {
            continue;
        };
        let result_doc = hit.doc.index();
        let result_embedding = index.embedding(hit.doc).expect("live build-time doc");
        let paths = relationship_paths(&outcome.embedding, result_embedding, 6, 8);
        if paths.is_empty() {
            continue;
        }

        // Entity bookkeeping for the Table-I-style columns.
        let qa = nlp.analyze_document(&case.query);
        let ra = nlp.analyze_document(&ctx.texts[result_doc]);
        let q_entities = qa.all_entities();
        let r_entities = ra.all_entities();
        let matched: Vec<String> = q_entities.intersection(&r_entities).cloned().collect();
        let unmatched: Vec<String> = q_entities
            .symmetric_difference(&r_entities)
            .cloned()
            .collect();
        let both_lower =
            format!("{} {}", case.query, ctx.texts[result_doc]).to_lowercase();
        let mut induced: Vec<String> = outcome
            .embedding
            .all_nodes()
            .iter()
            .chain(result_embedding.all_nodes().iter())
            .map(|&n| ctx.world.graph.label(n).to_string())
            .filter(|l| !both_lower.contains(&l.to_lowercase()))
            .collect();
        induced.sort();
        induced.dedup();

        return Some(CaseStudy {
            query: case.query.clone(),
            result: ctx.texts[result_doc].clone(),
            matched_entities: matched,
            unmatched_entities: unmatched,
            induced_entities: induced,
            paths: paths
                .iter()
                .map(|p| p.render(&ctx.world.graph))
                .collect(),
            dot: overlap_to_dot(
                &ctx.world.graph,
                &outcome.embedding,
                result_embedding,
                "figure6",
            ),
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::EvalScale;
    use newslink_corpus::CorpusFlavor;

    #[test]
    fn case_study_produces_paths_and_entities() {
        let ctx = EvalContext::build(CorpusFlavor::CnnLike, EvalScale::Tiny, 41);
        let cs = run_case_study(&ctx).expect("tiny corpus should yield a case");
        assert!(!cs.paths.is_empty());
        assert!(!cs.query.is_empty());
        assert!(!cs.result.is_empty());
        // Paths render with direction arrows.
        assert!(cs.paths.iter().any(|p| p.contains('→') || p.contains('←')));
        let display = cs.to_string();
        assert!(display.contains("relationship paths"));
        assert!(cs.dot.starts_with("digraph"));
        assert!(cs.dot.contains("->"));
    }
}
