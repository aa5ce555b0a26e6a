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

use crate::algo::{loses, search, EmbedError, RootRule, SearchConfig};
use crate::model::CommonAncestorGraph;

/// TreeEmb's rule: the lowest distance sum (ties: lowest root id), kept
/// as `(sum, root, distances)`.
#[derive(Default)]
struct DistanceSum(Option<(u64, NodeId, Vec<u32>)>);

fn sum(distances: &[u32]) -> u64 {
    distances.iter().map(|&d| u64::from(d)).sum()
}

impl RootRule for DistanceSum {
    /// A root's sum is at least the sum of its bound: the Definition-4
    /// stop of `G*` with `Σ b_i` in place of the sorted vector.
    fn excludes(&mut self, bound: &[u32], root: Option<NodeId>) -> bool {
        self.0
            .as_ref()
            .is_some_and(|&(s, best_root, _)| loses(sum(bound).cmp(&s), root, best_root))
    }

    fn offer(&mut self, root: NodeId, distances: &[u32]) {
        let total = sum(distances);
        if self.0.as_ref().is_none_or(|&(s, r, _)| (total, root) < (s, r)) {
            self.0 = Some((total, root, distances.to_vec()));
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
    use crate::algo::tests::{settled, two_hubs};
    use crate::ne_oracle::{assert_same, tree};
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

    /// The stop TreeEmb had before the exact rule: a future root's sum is
    /// at least the smallest head. Partial nodes never hold it up.
    /// (Faithful while no frontier is exhausted.)
    #[derive(Default)]
    struct HeadStop(DistanceSum);

    impl RootRule for HeadStop {
        fn excludes(&mut self, bound: &[u32], root: Option<NodeId>) -> bool {
            let min_head = bound.iter().copied().min().map_or(u64::MAX, u64::from);
            root.is_some() || self.0 .0.as_ref().is_some_and(|&(s, _, _)| min_head > s)
        }

        fn offer(&mut self, root: NodeId, distances: &[u32]) {
            self.0.offer(root, distances);
        }

        fn best(self) -> Option<(NodeId, Vec<u32>)> {
            self.0.best()
        }
    }

    #[test]
    fn exact_stop_settles_fewer_nodes_than_the_head_bound() {
        let (g, idx, _, bravo) = two_hubs(false);
        let l = labels(&["alpha", "bravo"]);
        let config = SearchConfig::default();
        let (exact, exact_settled) = settled(|| find_tree_embedding(&g, &idx, &l, &config));
        let (head, head_settled) =
            settled(|| search(&g, &idx, &l, &config, false, HeadStop::default()));
        // Root Bravo (sum 1) after three settles; the heads sum to 2 and
        // the partial Alpha ties at 1 with the higher id. The head bound
        // waits for the smallest head to pass 1.
        assert_eq!(exact_settled, 3);
        assert_eq!(head_settled, 14);
        assert_eq!(exact.as_ref().unwrap().root, bravo);
        assert_same("exact vs head bound", &exact, &head);
        assert_same("exact vs oracle", &exact, &tree::find_tree_embedding(&g, &idx, &l, &config));
    }

    #[test]
    fn exact_stop_waits_for_a_lower_root_that_ties() {
        let (g, idx, alpha, bravo) = two_hubs(true);
        let l = labels(&["alpha", "bravo"]);
        let config = SearchConfig::default();
        // Bravo (sum 1) is the best after three settles, but the partial
        // Alpha is bounded by sum 1 and has the lower id.
        let cut = SearchConfig { max_settled: 3, ..config.clone() };
        assert_eq!(find_tree_embedding(&g, &idx, &l, &cut).unwrap().root, bravo);
        let (found, n) = settled(|| find_tree_embedding(&g, &idx, &l, &config));
        assert_eq!(n, 9);
        assert_eq!(found.as_ref().unwrap().root, alpha);
        assert_same("tie", &found, &tree::find_tree_embedding(&g, &idx, &l, &config));
    }
}
