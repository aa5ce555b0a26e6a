//! Lucene-style score explanations.
//!
//! Lucene's `explain()` API decomposes a document's score into per-term
//! contributions; since NewsLink's NS component is Lucene-compatible by
//! design (§VI), we provide the same introspection for the *blended* score:
//! the BOW side lists word-term BM25 contributions, the BON side lists
//! node-term contributions with their knowledge-graph labels, and the
//! blend shows how β combined the two normalized sides.

use std::fmt;

use newslink_embed::{bon_terms, parse_node_term};
use newslink_kg::{KnowledgeGraph, LabelIndex};
use newslink_text::{query_tf, Bm25, DocId};

use crate::config::NewsLinkConfig;
use crate::indexer::{embed_one, NewsLinkIndex};
use crate::segment::Side;

/// One term's contribution to one side of the score.
#[derive(Debug, Clone, PartialEq)]
pub struct TermContribution {
    /// The index term (word, or `n<id>` node term).
    pub term: String,
    /// Human-readable rendering (the node's KG label for BON terms).
    pub display: String,
    /// Term frequency in the document / embedding.
    pub tf: u32,
    /// Document frequency in the index.
    pub df: u32,
    /// Query-side term frequency.
    pub qtf: u32,
    /// BM25 contribution.
    pub score: f64,
}

/// One side (BOW or BON) of the blended score.
#[derive(Debug, Clone, Default)]
pub struct SideExplanation {
    /// Per-term contributions, largest first.
    pub contributions: Vec<TermContribution>,
    /// Raw accumulated score.
    pub raw: f64,
    /// The normalization divisor (the side's maximum over all candidates),
    /// 0 when the side is inactive or empty.
    pub max_raw: f64,
    /// The normalized value entering the blend.
    pub normalized: f64,
}

/// The full explanation of `F(query, doc)`.
#[derive(Debug, Clone)]
pub struct ScoreExplanation {
    /// The explained document.
    pub doc: DocId,
    /// β used in the blend.
    pub beta: f64,
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

/// Explain the blended score of `doc` for `query_text`.
///
/// Runs the same NLP/NE path as [`crate::searcher::search`] and
/// recomputes each side's normalization divisor over the whole candidate
/// set so the reported numbers match the ranking exactly.
pub fn explain_score(
    graph: &KnowledgeGraph,
    label_index: &LabelIndex,
    config: &NewsLinkConfig,
    index: &NewsLinkIndex,
    query_text: &str,
    doc: DocId,
) -> ScoreExplanation {
    let artifacts = embed_one(graph, label_index, config, query_text);
    let beta = config.beta;
    let bow_scorer = Bm25::default();
    let bon_scorer = Bm25 { k1: 1.2, b: 0.0 };
    let bon_query = bon_terms(&artifacts.embedding);

    let mut bow = if beta < 1.0 {
        side_contributions(
            index,
            Side::Bow,
            bow_scorer,
            &artifacts.analysis.terms,
            doc,
            |t| t.to_string(),
        )
    } else {
        SideExplanation::default()
    };
    let mut bon = if beta > 0.0 {
        side_contributions(index, Side::Bon, bon_scorer, &bon_query, doc, |t| {
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

    let side_max = |side: Side, terms: &[String]| -> f64 {
        index
            .score_side_parts(side, match side {
                Side::Bow => bow_scorer,
                Side::Bon => bon_scorer,
            }, terms)
            .iter()
            .flat_map(|m| m.values().copied())
            .fold(0.0, f64::max)
    };
    if beta < 1.0 {
        bow.max_raw = side_max(Side::Bow, &artifacts.analysis.terms);
        bow.normalized = if bow.max_raw > 0.0 { bow.raw / bow.max_raw } else { 0.0 };
    }
    if beta > 0.0 {
        bon.max_raw = side_max(Side::Bon, &bon_query);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::indexer::index_corpus;
    use crate::searcher::search;
    use newslink_kg::{EntityType, GraphBuilder};

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
        let cfg = NewsLinkConfig::default();
        let idx = index_corpus(&g, &li, &cfg, DOCS);
        let q = "Taliban clashes near Kunar in Pakistan";
        let outcome = search(&g, &li, &cfg, &idx, q, 5);
        for hit in &outcome.results {
            let ex = explain_score(&g, &li, &cfg, &idx, q, hit.doc);
            assert!(
                (ex.total - hit.score).abs() < 1e-9,
                "doc {}: explain {} vs search {}",
                hit.doc.0,
                ex.total,
                hit.score
            );
            assert!((ex.bow.normalized - hit.bow).abs() < 1e-9);
            assert!((ex.bon.normalized - hit.bon).abs() < 1e-9);
        }
    }

    #[test]
    fn bon_contributions_show_node_labels() {
        let (g, li) = world();
        let cfg = NewsLinkConfig::default();
        let idx = index_corpus(&g, &li, &cfg, DOCS);
        let ex = explain_score(&g, &li, &cfg, &idx, "Taliban in Kunar", DocId(0));
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
        let cfg = NewsLinkConfig::default();
        let idx = index_corpus(&g, &li, &cfg, DOCS);
        let ex = explain_score(&g, &li, &cfg, &idx, "Pakistan talks", DocId(1));
        let text = ex.to_string();
        assert!(text.contains("BOW"));
        assert!(text.contains("BON"));
        assert!(text.contains("F ="));
    }

    #[test]
    fn contributions_sorted_descending() {
        let (g, li) = world();
        let cfg = NewsLinkConfig::default();
        let idx = index_corpus(&g, &li, &cfg, DOCS);
        let ex = explain_score(&g, &li, &cfg, &idx, "Taliban Kunar Pakistan Khyber", DocId(0));
        assert!(ex
            .bow
            .contributions
            .windows(2)
            .all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn non_matching_doc_scores_zero() {
        let (g, li) = world();
        let cfg = NewsLinkConfig::default();
        let idx = index_corpus(&g, &li, &cfg, DOCS);
        let ex = explain_score(&g, &li, &cfg, &idx, "cricket stadium", DocId(0));
        assert_eq!(ex.total, 0.0);
        assert!(ex.bow.contributions.is_empty());
        assert!(ex.bon.contributions.is_empty());
    }
}
