//! Lucene-style score explanations.
//!
//! Lucene's `explain()` API decomposes a document's score into per-term
//! contributions; since NewsLink's NS component is Lucene-compatible by
//! design (§VI), we provide the same introspection for the *blended* score:
//! the BOW side lists word-term BM25 contributions, the BON side lists
//! node-term contributions with their knowledge-graph labels, and the
//! blend shows how β combined the two normalized sides.

use std::fmt;

use newslink_embed::parse_node_term;
use newslink_text::{query_tf, Bm25, DocId};

use crate::indexer::NewsLinkIndex;
use crate::pipeline::NewsLink;
use crate::segment::Side;

/// One term's contribution to one side of the score.
#[derive(Debug, Clone, PartialEq)]
pub struct TermContribution {
    /// The index term (word, or `n<id>` node term).
    pub(crate) term: String,
    /// Human-readable rendering (the node's KG label for BON terms).
    pub(crate) display: String,
    /// Term frequency in the document / embedding.
    pub(crate) tf: u32,
    /// Document frequency in the index.
    pub(crate) df: u32,
    /// Query-side term frequency.
    pub(crate) qtf: u32,
    /// BM25 contribution.
    pub(crate) score: f64,
}

/// One side (BOW or BON) of the blended score.
#[derive(Debug, Clone, Default)]
pub struct SideExplanation {
    /// Per-term contributions, largest first.
    pub(crate) contributions: Vec<TermContribution>,
    /// Raw accumulated score.
    pub(crate) raw: f64,
    /// The normalization divisor (the side's maximum over all candidates),
    /// 0 when the side is inactive or empty.
    pub(crate) max_raw: f64,
    /// The normalized value entering the blend.
    pub normalized: f64,
}

/// The full explanation of `F(query, doc)`.
#[derive(Debug, Clone)]
pub struct ScoreExplanation {
    /// The explained document.
    pub(crate) doc: DocId,
    /// β used in the blend.
    pub(crate) beta: f64,
    /// `(1-β)·bow.normalized + β·bon.normalized`.
    pub total: f64,
    /// The text side.
    pub bow: SideExplanation,
    /// The subgraph-embedding side.
    pub bon: SideExplanation,
}

impl fmt::Display for ScoreExplanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "doc {}: F = {:.4} = {:.2}·{:.4} (BOW) + {:.2}·{:.4} (BON)",
            self.doc.0,
            self.total,
            1.0 - self.beta,
            self.bow.normalized,
            self.beta,
            self.bon.normalized
        )?;
        for (name, side) in [("BOW", &self.bow), ("BON", &self.bon)] {
            writeln!(
                f,
                "  {name}: raw {:.4}{}",
                side.raw,
                if side.max_raw > 0.0 {
                    format!(" / max {:.4} = {:.4}", side.max_raw, side.normalized)
                } else {
                    String::new()
                }
            )?;
            for c in &side.contributions {
                writeln!(
                    f,
                    "    {:<28} tf={:<3} df={:<4} qtf={} -> {:.4}",
                    c.display, c.tf, c.df, c.qtf, c.score
                )?;
            }
        }
        Ok(())
    }
}

/// Per-term contributions of `query_terms` against `doc` on one side of
/// the segmented index. The document's term frequencies come from its own
/// segment; document frequencies and collection statistics use the same
/// global overlay as ranking, so each contribution replays the searcher's
/// float operations exactly.
fn side_contributions(
    index: &NewsLinkIndex,
    side: Side,
    scorer: Bm25,
    query_terms: &[String],
    doc: DocId,
    display: impl Fn(&str) -> String,
) -> SideExplanation {
    let Some((seg, local)) = index.locate(doc) else {
        return SideExplanation::default();
    };
    if !index.is_live(doc) {
        return SideExplanation::default();
    }
    let seg_index = seg.side(side);
    let stats = index.side_stats(side);
    let qtf = query_tf(query_terms);
    let global_df = index.side_global_df(side, &qtf);
    let mut contributions = Vec::new();
    let mut raw = 0.0;
    for (term, &qtf) in &qtf {
        let tf = seg_index.term_freq(term, local);
        if tf == 0 {
            continue;
        }
        let df = global_df.get(term).copied().unwrap_or(0);
        let score = scorer.contribution_with(stats, seg_index.doc_len(local), tf, df, qtf);
        raw += score;
        contributions.push(TermContribution {
            term: term.to_string(),
            display: display(term),
            tf,
            df,
            qtf,
            score,
        });
    }
    contributions.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.term.cmp(&b.term)));
    SideExplanation {
        contributions,
        raw,
        max_raw: 0.0,
        normalized: raw,
    }
}

impl NewsLink<'_> {
    /// Explain the blended score of `doc` for `query` under the engine's β.
    ///
    /// The query terms come from [`analyze_query`](Self::analyze_query),
    /// the same analysis [`execute`](Self::execute) scores with, and each
    /// side's normalization divisor is recomputed over the whole candidate
    /// set, so `total`, `bow.normalized` and `bon.normalized` equal the
    /// ranked result's `score`, `bow` and `bon` bit for bit.
    pub fn explain_score(
        &self,
        index: &NewsLinkIndex,
        query: &str,
        doc: DocId,
    ) -> ScoreExplanation {
        let analysis = self.analyze_query(query);
        let graph = self.graph();
        let beta = self.config().beta;
        let bow_scorer = Bm25::default();
        let bon_scorer = Bm25 { k1: 1.2, b: 0.0 };

        let mut bow = if beta < 1.0 {
            side_contributions(index, Side::Bow, bow_scorer, &analysis.terms, doc, |t| {
                t.to_string()
            })
        } else {
            SideExplanation::default()
        };
        let mut bon = if beta > 0.0 {
            side_contributions(index, Side::Bon, bon_scorer, &analysis.bon_terms, doc, |t| {
                match parse_node_term(t) {
                    Some(node) if graph.contains(node) => {
                        format!("{t} ({})", graph.label(node))
                    }
                    _ => t.to_string(),
                }
            })
        } else {
            SideExplanation::default()
        };

        let side_max = |side: Side, scorer: Bm25, terms: &[String]| -> f64 {
            index
                .score_side_parts(side, scorer, terms)
                .iter()
                .flat_map(|m| m.values().copied())
                .fold(0.0, f64::max)
        };
        if beta < 1.0 {
            bow.max_raw = side_max(Side::Bow, bow_scorer, &analysis.terms);
            bow.normalized = if bow.max_raw > 0.0 { bow.raw / bow.max_raw } else { 0.0 };
        }
        if beta > 0.0 {
            bon.max_raw = side_max(Side::Bon, bon_scorer, &analysis.bon_terms);
            bon.normalized = if bon.max_raw > 0.0 { bon.raw / bon.max_raw } else { 0.0 };
        }

        ScoreExplanation {
            doc,
            beta,
            total: (1.0 - beta) * bow.normalized + beta * bon.normalized,
            bow,
            bon,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SearchRequest;
    use crate::config::NewsLinkConfig;
    use newslink_kg::{EntityType, GraphBuilder, KnowledgeGraph, LabelIndex};

    fn world() -> (KnowledgeGraph, LabelIndex) {
        let mut b = GraphBuilder::new();
        let khyber = b.add_node("Khyber", EntityType::Gpe);
        let kunar = b.add_node("Kunar", EntityType::Gpe);
        let taliban = b.add_node("Taliban", EntityType::Organization);
        let pakistan = b.add_node("Pakistan", EntityType::Gpe);
        b.add_edge(kunar, khyber, "borders", 1);
        b.add_edge(taliban, kunar, "operates in", 1);
        b.add_edge(khyber, pakistan, "located in", 1);
        let g = b.freeze();
        let idx = LabelIndex::build(&g);
        (g, idx)
    }

    const DOCS: &[&str] = &[
        "Taliban attacked Kunar. Pakistan responded near Khyber.",
        "Pakistan held trade talks.",
    ];

    #[test]
    fn explanation_total_matches_search_score() {
        let (g, li) = world();
        let engine = NewsLink::new(&g, &li, NewsLinkConfig::default());
        let idx = engine.index_corpus(DOCS);
        let q = "Taliban clashes near Kunar in Pakistan";
        let response = engine.execute(&idx, &SearchRequest::new(q).with_k(5));
        assert!(!response.results.is_empty());
        for hit in &response.results {
            let ex = engine.explain_score(&idx, q, hit.doc);
            assert_eq!(ex.total.to_bits(), hit.score.to_bits(), "doc {}", hit.doc.0);
            assert_eq!(ex.bow.normalized.to_bits(), hit.bow.to_bits(), "doc {}", hit.doc.0);
            assert_eq!(ex.bon.normalized.to_bits(), hit.bon.to_bits(), "doc {}", hit.doc.0);
        }
    }

    #[test]
    fn bon_contributions_show_node_labels() {
        let (g, li) = world();
        let engine = NewsLink::new(&g, &li, NewsLinkConfig::default());
        let idx = engine.index_corpus(DOCS);
        let ex = engine.explain_score(&idx, "Taliban in Kunar", DocId(0));
        assert!(!ex.bon.contributions.is_empty());
        assert!(
            ex.bon
                .contributions
                .iter()
                .any(|c| c.display.contains("Taliban") || c.display.contains("Kunar")),
            "{:?}",
            ex.bon.contributions
        );
    }

    #[test]
    fn display_renders_both_sides() {
        let (g, li) = world();
        let engine = NewsLink::new(&g, &li, NewsLinkConfig::default());
        let idx = engine.index_corpus(DOCS);
        let ex = engine.explain_score(&idx, "Pakistan talks", DocId(1));
        let text = ex.to_string();
        assert!(text.contains("BOW"));
        assert!(text.contains("BON"));
        assert!(text.contains("F ="));
    }

    #[test]
    fn contributions_sorted_descending() {
        let (g, li) = world();
        let engine = NewsLink::new(&g, &li, NewsLinkConfig::default());
        let idx = engine.index_corpus(DOCS);
        let ex = engine.explain_score(&idx, "Taliban Kunar Pakistan Khyber", DocId(0));
        assert!(ex
            .bow
            .contributions
            .windows(2)
            .all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn non_matching_doc_scores_zero() {
        let (g, li) = world();
        let engine = NewsLink::new(&g, &li, NewsLinkConfig::default());
        let idx = engine.index_corpus(DOCS);
        let ex = engine.explain_score(&idx, "cricket stadium", DocId(0));
        assert_eq!(ex.total, 0.0);
        assert!(ex.bow.contributions.is_empty());
        assert!(ex.bon.contributions.is_empty());
    }
}
