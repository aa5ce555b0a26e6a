//! Path summarization — the improvement the paper's user study motivates.
//!
//! §VII-D reports that embeddings "containing too much information
//! overwhelm users"; the paper concludes it should "present only necessary
//! path relationships and make the visualized parts more concise". This
//! module implements that follow-up:
//!
//! - rank paths by *informativeness* (specific intermediate nodes beat
//!   generic hubs — a low-degree province says more than the root of the
//!   geography tree);
//! - keep at most one path per endpoint pair;
//! - render a natural-language description per path shape, like the
//!   "Description" column of Tables II and VI.

use newslink_kg::{KnowledgeGraph, NodeId};
use newslink_util::FxHashSet;

use crate::explain::RelationshipPath;

/// Informativeness of a path: shorter is better, and intermediate nodes
/// are weighted by `1 / ln(2 + degree)` so generic hubs (country roots,
/// continents) count less than specific entities.
pub(crate) fn path_informativeness(graph: &KnowledgeGraph, path: &RelationshipPath) -> f64 {
    if path.is_empty() {
        return 0.0;
    }
    let nodes = path.nodes();
    let inner = &nodes[1..nodes.len().saturating_sub(1)];
    let specificity: f64 = inner
        .iter()
        .map(|&n| 1.0 / (2.0 + graph.degree(n) as f64).ln())
        .sum::<f64>()
        .max(0.5); // direct edges (no inner nodes) stay comparable
    specificity / path.len() as f64
}

/// Select a concise subset: the most informative path per endpoint pair,
/// globally capped at `max_total`, ordered most-informative first.
pub fn summarize_paths(
    graph: &KnowledgeGraph,
    paths: &[RelationshipPath],
    max_total: usize,
) -> Vec<RelationshipPath> {
    let mut scored: Vec<(f64, &RelationshipPath)> = paths
        .iter()
        .filter(|p| !p.is_empty())
        .map(|p| (path_informativeness(graph, p), p))
        .collect();
    scored.sort_by(|a, b| {
        b.0.total_cmp(&a.0)
            .then_with(|| a.1.len().cmp(&b.1.len()))
            .then_with(|| a.1.start.cmp(&b.1.start))
    });
    let mut seen_pairs: FxHashSet<(NodeId, NodeId)> = FxHashSet::default();
    let mut out = Vec::new();
    if max_total == 0 {
        return out;
    }
    for (_, p) in scored {
        let nodes = p.nodes();
        let (a, b) = (nodes[0], *nodes.last().expect("non-empty path"));
        let key = if a < b { (a, b) } else { (b, a) };
        if !seen_pairs.insert(key) {
            continue;
        }
        out.push(p.clone());
        if out.len() == max_total {
            break;
        }
    }
    out
}

/// A natural-language description of a path, in the spirit of the
/// "Description" column of Tables II and VI.
pub fn describe_path(graph: &KnowledgeGraph, path: &RelationshipPath) -> String {
    let name = |n: NodeId| graph.label(n).to_string();
    match path.steps.as_slice() {
        [] => format!("{} stands alone.", name(path.start)),
        [s] => {
            if s.against {
                format!("{} {} {}.", name(s.to), graph.resolve(s.predicate), name(path.start))
            } else {
                format!("{} {} {}.", name(path.start), graph.resolve(s.predicate), name(s.to))
            }
        }
        [s1, s2] if s1.predicate == s2.predicate && !s1.against && s2.against => {
            // A —p→ C ←p— B : the paper's "both candidates of the election".
            format!(
                "{} and {} are both linked to {} by \"{}\".",
                name(path.start),
                name(s2.to),
                name(s1.to),
                graph.resolve(s1.predicate)
            )
        }
        steps => {
            let mut out = name(path.start);
            for s in steps {
                if s.against {
                    out.push_str(&format!(
                        ", which {} {}",
                        reverse_phrase(graph.resolve(s.predicate)),
                        name(s.to)
                    ));
                } else {
                    out.push_str(&format!(
                        ", which {} {}",
                        graph.resolve(s.predicate),
                        name(s.to)
                    ));
                }
            }
            out.push('.');
            out
        }
    }
}

/// Phrase the reverse direction of a predicate ("located in" read
/// backwards becomes "is the location of").
fn reverse_phrase(predicate: &str) -> String {
    match predicate {
        "located in" => "contains".to_string(),
        "capital of" => "has capital".to_string(),
        "citizen of" => "has citizen".to_string(),
        "member of" => "has member".to_string(),
        "participant of" => "has participant".to_string(),
        "candidate in" => "has candidate".to_string(),
        "created by" => "created".to_string(),
        other => format!("is the target of \"{other}\" from"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{find_lcag, SearchConfig};
    use crate::explain::relationship_paths;
    use crate::union::DocEmbedding;
    use newslink_kg::{EntityType, GraphBuilder, LabelIndex};

    fn world() -> (KnowledgeGraph, LabelIndex) {
        let mut b = GraphBuilder::new();
        let election = b.add_node("2016 US presidential election", EntityType::Event);
        let clinton = b.add_node("Hillary Clinton", EntityType::Person);
        let trump = b.add_node("Donald Trump", EntityType::Person);
        let sanders = b.add_node("Bernie Sanders", EntityType::Person);
        let usa = b.add_node("United States", EntityType::Gpe);
        // Make the election node a high-degree hub and USA moderate.
        b.add_edge(clinton, election, "candidate in", 1);
        b.add_edge(trump, election, "candidate in", 1);
        b.add_edge(sanders, election, "candidate in", 1);
        b.add_edge(election, usa, "located in", 1);
        b.add_edge(clinton, usa, "citizen of", 1);
        b.add_edge(trump, usa, "citizen of", 1);
        let g = b.freeze();
        let idx = LabelIndex::build(&g);
        (g, idx)
    }

    fn paths(g: &KnowledgeGraph, idx: &LabelIndex) -> Vec<RelationshipPath> {
        let e1 = DocEmbedding::new(vec![find_lcag(
            g,
            idx,
            &["hillary clinton".into(), "bernie sanders".into()],
            &SearchConfig::default(),
        )
        .unwrap()]);
        let e2 = DocEmbedding::new(vec![
            find_lcag(
                g,
                idx,
                &["donald trump".into(), "2016 us presidential election".into()],
                &SearchConfig::default(),
            )
            .unwrap(),
            find_lcag(
                g,
                idx,
                &["donald trump".into(), "united states".into()],
                &SearchConfig::default(),
            )
            .unwrap(),
        ]);
        relationship_paths(&e1, &e2, 4, 50)
    }

    #[test]
    fn summarization_keeps_one_path_per_pair() {
        let (g, idx) = world();
        let all = paths(&g, &idx);
        let summary = summarize_paths(&g, &all, 10);
        let mut pairs = FxHashSet::default();
        for p in &summary {
            let n = p.nodes();
            let key = (n[0].min(*n.last().unwrap()), n[0].max(*n.last().unwrap()));
            assert!(pairs.insert(key), "duplicate endpoint pair");
        }
        assert!(summary.len() <= all.len());
        assert!(!summary.is_empty());
    }

    #[test]
    fn max_total_caps_output() {
        let (g, idx) = world();
        let all = paths(&g, &idx);
        assert!(summarize_paths(&g, &all, 1).len() <= 1);
        assert!(summarize_paths(&g, &all, 0).is_empty());
    }

    #[test]
    fn shorter_paths_are_more_informative() {
        let (g, idx) = world();
        let all = paths(&g, &idx);
        let one_hop = all.iter().find(|p| p.len() == 1);
        let three_hop = all.iter().find(|p| p.len() >= 3);
        if let (Some(a), Some(b)) = (one_hop, three_hop) {
            assert!(path_informativeness(&g, a) > path_informativeness(&g, b));
        }
    }

    #[test]
    fn shared_predicate_shape_describes_both_sides() {
        let (g, idx) = world();
        let all = paths(&g, &idx);
        let shared = all
            .iter()
            .map(|p| describe_path(&g, p))
            .find(|d| d.contains("are both linked to"));
        assert!(
            shared.is_some(),
            "expected a 'both linked' description: {:?}",
            all.iter().map(|p| describe_path(&g, p)).collect::<Vec<_>>()
        );
        let d = shared.unwrap();
        assert!(d.contains("candidate in") || d.contains("citizen of"), "{d}");
    }

    #[test]
    fn single_edge_description_reads_forward() {
        let (g, idx) = world();
        let all = paths(&g, &idx);
        for p in all.iter().filter(|p| p.len() == 1) {
            let d = describe_path(&g, p);
            assert!(d.ends_with('.'));
            assert!(!d.contains("which"), "single edges read plainly: {d}");
        }
    }

    #[test]
    fn reverse_phrases_known_predicates() {
        assert_eq!(reverse_phrase("located in"), "contains");
        assert_eq!(reverse_phrase("candidate in"), "has candidate");
        assert!(reverse_phrase("weird pred").contains("weird pred"));
    }

    #[test]
    fn empty_path_description() {
        let (g, _) = world();
        let p = RelationshipPath {
            start: NodeId(0),
            steps: vec![],
        };
        assert!(describe_path(&g, &p).contains("stands alone"));
        assert_eq!(path_informativeness(&g, &p), 0.0);
    }
}
