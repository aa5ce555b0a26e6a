//! TreeEmb: the tree-based subgraph-extraction baseline (§VII-F).
//!
//! The paper replaces the NE component with "a tree-based \[model\] that
//! approximates the Group Steiner Tree model" [Kacholia et al., VLDB'05]
//! to validate the `G*` design. We implement the classic star
//! approximation on the one NE search of [`crate::algo`]: per-label
//! Dijkstra frontiers that keep **one** predecessor per node, and a root
//! rule that picks the root minimizing the *sum* of label→root distances.
//! The result is one shortest path per label — a tree, with no multi-path
//! width — so comparing it against `G*` isolates precisely the paper's
//! coverage question (Tables VII and the Figure 7 timing contrast).

use newslink_kg::{KnowledgeGraph, LabelIndex, NodeId};

use crate::algo::{search, EmbedError, RootRule, SearchConfig};
use crate::model::CommonAncestorGraph;

/// TreeEmb's rule: the lowest distance sum (ties: lowest root id), kept
/// as `(sum, root, distances)`.
#[derive(Default)]
struct DistanceSum(Option<(u64, NodeId, Vec<u32>)>);

impl RootRule for DistanceSum {
    /// A future root's sum is at least the next frontier distance; stop
    /// once that cannot beat the best sum found.
    fn stop(&self, next_dist: u32) -> bool {
        self.0.as_ref().is_some_and(|&(sum, _, _)| u64::from(next_dist) > sum)
    }

    fn offer(&mut self, root: NodeId, distances: Vec<u32>) {
        let sum = distances.iter().map(|&d| u64::from(d)).sum();
        if self.0.as_ref().is_none_or(|&(s, r, _)| (sum, root) < (s, r)) {
            self.0 = Some((sum, root, distances));
        }
    }

    fn best(self) -> Option<(NodeId, Vec<u32>)> {
        self.0.map(|(_, root, distances)| (root, distances))
    }
}

/// Find the TreeEmb embedding for `labels`: the best-sum star root with one
/// shortest path per label.
pub fn find_tree_embedding(
    graph: &KnowledgeGraph,
    index: &LabelIndex,
    labels: &[String],
    config: &SearchConfig,
) -> Result<CommonAncestorGraph, EmbedError> {
    search(graph, index, labels, config, false, DistanceSum::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::find_lcag;
    use newslink_kg::{EntityType, GraphBuilder};

    /// Diamond: taliban has TWO 2-hop routes to khyber; tree keeps one.
    fn diamond() -> (KnowledgeGraph, LabelIndex) {
        let mut b = GraphBuilder::new();
        let khyber = b.add_node("Khyber", EntityType::Gpe);
        let w = b.add_node("Waziristan", EntityType::Gpe);
        let k = b.add_node("Kunar", EntityType::Gpe);
        let t = b.add_node("Taliban", EntityType::Organization);
        let p = b.add_node("Pakistan", EntityType::Gpe);
        b.add_edge(t, w, "operates in", 1);
        b.add_edge(t, k, "operates in", 1);
        b.add_edge(w, khyber, "located in", 1);
        b.add_edge(k, khyber, "located in", 1);
        b.add_edge(p, khyber, "contains", 1);
        let g = b.freeze();
        let idx = LabelIndex::build(&g);
        (g, idx)
    }

    fn labels(ls: &[&str]) -> Vec<String> {
        ls.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn tree_keeps_single_path_where_lcag_keeps_both() {
        let (g, idx) = diamond();
        let l = labels(&["taliban", "pakistan"]);
        let cfg = SearchConfig::default();
        let tree = find_tree_embedding(&g, &idx, &l, &cfg).unwrap();
        let lcag = find_lcag(&g, &idx, &l, &cfg).unwrap();
        assert!(lcag.node_count() > tree.node_count(), "G* must be wider");
        // Tree contains exactly one of the two mid nodes.
        let mids = [NodeId(1), NodeId(2)];
        let in_tree = mids.iter().filter(|n| tree.contains_node(**n)).count();
        assert_eq!(in_tree, 1);
        let in_lcag = mids.iter().filter(|n| lcag.contains_node(**n)).count();
        assert_eq!(in_lcag, 2);
    }

    #[test]
    fn tree_is_acyclic_and_connected() {
        let (g, idx) = diamond();
        let l = labels(&["taliban", "pakistan", "kunar"]);
        let tree = find_tree_embedding(&g, &idx, &l, &SearchConfig::default()).unwrap();
        // A tree over n nodes has at most n-1 distinct edges.
        assert!(tree.edges.len() < tree.nodes.len());
    }

    #[test]
    fn tree_root_minimizes_distance_sum() {
        let (g, idx) = diamond();
        let l = labels(&["taliban", "pakistan"]);
        let tree = find_tree_embedding(&g, &idx, &l, &SearchConfig::default()).unwrap();
        let sum: u32 = tree.distances.iter().sum();
        // Best possible meeting point is khyber (2+1) or either mid (1+2):
        // sum 3 either way.
        assert_eq!(sum, 3);
        let _ = g;
    }

    #[test]
    fn tree_single_label() {
        let (g, idx) = diamond();
        let tree =
            find_tree_embedding(&g, &idx, &labels(&["pakistan"]), &SearchConfig::default())
                .unwrap();
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.nodes.len(), 1);
        let _ = g;
    }

    #[test]
    fn tree_errors_match_lcag_errors() {
        let (g, idx) = diamond();
        assert_eq!(
            find_tree_embedding(&g, &idx, &[], &SearchConfig::default()).unwrap_err(),
            EmbedError::EmptyLabelSet
        );
        assert_eq!(
            find_tree_embedding(&g, &idx, &labels(&["atlantis"]), &SearchConfig::default())
                .unwrap_err(),
            EmbedError::NoSources("atlantis".into())
        );
    }
}
