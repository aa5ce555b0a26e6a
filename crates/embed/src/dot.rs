//! Graphviz DOT export of subgraph embeddings.
//!
//! The paper communicates its contribution through figures: Figure 1
//! (query and result embeddings with their overlap) and Figure 6 (the
//! case study). [`overlap_to_dot`] renders exactly those pictures from
//! real embeddings — feed the output to `dot -Tsvg`.
//!
//! Conventions (matching the paper's legend):
//! - lowest-common-ancestor roots are drawn as boxes, other nodes as
//!   ellipses;
//! - nodes/edges in the *query* embedding only are blue, in the *result*
//!   only are green, and in the overlap are orange;
//! - edges are drawn in their original KG direction with predicate labels.

use std::fmt::Write as _;

use newslink_kg::{KnowledgeGraph, NodeId};
use newslink_util::FxHashSet;

use crate::union::DocEmbedding;

/// Escape a DOT double-quoted string.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Which side(s) of a comparison an element belongs to.
#[derive(Clone, Copy, PartialEq)]
enum Side {
    A,
    B,
    Both,
}

impl Side {
    fn color(self) -> &'static str {
        match self {
            Side::A => "#4477ff",
            Side::B => "#33aa55",
            Side::Both => "#ff8800",
        }
    }
}

fn write_node(
    out: &mut String,
    graph: &KnowledgeGraph,
    node: NodeId,
    side: Side,
    is_root: bool,
) {
    let shape = if is_root { "box" } else { "ellipse" };
    let _ = writeln!(
        out,
        "  n{} [label=\"{}\", shape={}, color=\"{}\", fontcolor=\"{}\"];",
        node.0,
        escape(graph.label(node)),
        shape,
        side.color(),
        side.color(),
    );
}

/// Render a query/result pair with overlap highlighting (the paper's
/// Figures 1 and 6).
pub fn overlap_to_dot(
    graph: &KnowledgeGraph,
    query: &DocEmbedding,
    result: &DocEmbedding,
    name: &str,
) -> String {
    let mut out = format!("digraph \"{}\" {{\n  rankdir=BT;\n", escape(name));
    let qa = query.node_counts();
    let rb = result.node_counts();
    let roots: FxHashSet<NodeId> = query
        .groups
        .iter()
        .chain(&result.groups)
        .map(|g| g.root)
        .collect();
    let mut nodes: Vec<NodeId> = qa.keys().chain(rb.keys()).copied().collect();
    nodes.sort_unstable();
    nodes.dedup();
    for node in nodes {
        let side = match (qa.contains_key(&node), rb.contains_key(&node)) {
            (true, true) => Side::Both,
            (true, false) => Side::A,
            _ => Side::B,
        };
        write_node(&mut out, graph, node, side, roots.contains(&node));
    }
    let qe: FxHashSet<(NodeId, NodeId, &str)> = query
        .all_edges()
        .into_iter()
        .map(|e| {
            let (src, dst) = if e.inverse { (e.to, e.from) } else { (e.from, e.to) };
            (src, dst, graph.resolve(e.predicate))
        })
        .collect();
    let re: FxHashSet<(NodeId, NodeId, &str)> = result
        .all_edges()
        .into_iter()
        .map(|e| {
            let (src, dst) = if e.inverse { (e.to, e.from) } else { (e.from, e.to) };
            (src, dst, graph.resolve(e.predicate))
        })
        .collect();
    let mut all: Vec<&(NodeId, NodeId, &str)> = qe.union(&re).collect();
    all.sort_by_key(|(a, b, p)| (*a, *b, p.to_string()));
    for &(src, dst, pred) in all {
        let side = match (qe.contains(&(src, dst, pred)), re.contains(&(src, dst, pred))) {
            (true, true) => Side::Both,
            (true, false) => Side::A,
            _ => Side::B,
        };
        let _ = writeln!(
            out,
            "  n{} -> n{} [label=\"{}\", color=\"{}\"];",
            src.0,
            dst.0,
            escape(pred),
            side.color(),
        );
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{find_lcag, SearchConfig};
    use newslink_kg::{EntityType, GraphBuilder, LabelIndex};

    fn fixture() -> (KnowledgeGraph, DocEmbedding, DocEmbedding) {
        let mut b = GraphBuilder::new();
        let khyber = b.add_node("Khyber", EntityType::Gpe);
        let kunar = b.add_node("Kunar", EntityType::Gpe);
        let taliban = b.add_node("Taliban", EntityType::Organization);
        let pakistan = b.add_node("Pakistan", EntityType::Gpe);
        let lahore = b.add_node("Lahore \"the city\"", EntityType::Gpe);
        b.add_edge(kunar, khyber, "borders", 1);
        b.add_edge(taliban, kunar, "operates in", 1);
        b.add_edge(taliban, khyber, "operates in", 1);
        b.add_edge(khyber, pakistan, "located in", 1);
        b.add_edge(lahore, pakistan, "located in", 1);
        let g = b.freeze();
        let idx = LabelIndex::build(&g);
        let cfg = SearchConfig::default();
        let q = DocEmbedding::new(vec![
            find_lcag(&g, &idx, &["taliban".into(), "pakistan".into()], &cfg).unwrap(),
        ]);
        let r = DocEmbedding::new(vec![
            find_lcag(&g, &idx, &["kunar".into(), "pakistan".into()], &cfg).unwrap(),
        ]);
        (g, q, r)
    }

    #[test]
    fn overlap_dot_colors_three_ways() {
        let (g, q, r) = fixture();
        let dot = overlap_to_dot(&g, &q, &r, "figure1");
        // Query-only (blue), result-only (green) and shared (orange) all
        // appear: Taliban is query-only, Kunar result-only, Pakistan shared.
        assert!(dot.contains(Side::A.color()));
        assert!(dot.contains(Side::B.color()));
        assert!(dot.contains(Side::Both.color()));
    }

    #[test]
    fn labels_with_quotes_escaped() {
        let (g, _, _) = fixture();
        let lahore = g.nodes().find(|&n| g.label(n).contains("the city")).unwrap();
        let e = DocEmbedding::new(vec![crate::model::CommonAncestorGraph {
            root: lahore,
            labels: vec!["lahore".into()],
            distances: vec![0],
            nodes: vec![lahore],
            edges: vec![],
            sources: vec![vec![lahore]],
        }]);
        let dot = overlap_to_dot(&g, &e, &DocEmbedding::default(), "esc");
        assert!(dot.starts_with("digraph \"esc\" {"));
        assert!(dot.contains("\\\"the city\\\""));
        assert!(dot.contains("shape=box"), "the root is drawn as a box");
    }

    #[test]
    fn empty_embedding_renders_empty_graph() {
        let (g, _, _) = fixture();
        let empty = DocEmbedding::default();
        let dot = overlap_to_dot(&g, &empty, &empty, "empty");
        assert!(dot.contains("digraph"));
        assert!(!dot.contains("->"));
    }

    #[test]
    fn edges_render_in_original_kg_direction() {
        let (g, q, _) = fixture();
        let dot = overlap_to_dot(&g, &q, &DocEmbedding::default(), "dir");
        // The KG has khyber -> pakistan "located in"; regardless of
        // traversal direction the DOT edge must read n0 -> n3.
        assert!(dot.contains("n0 -> n3"), "{dot}");
    }
}
