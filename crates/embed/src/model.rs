//! The subgraph-embedding model: Common Ancestor Graphs and the
//! compactness order (Definitions 3–5 of the paper).

use newslink_kg::{NodeId, Symbol};

/// One directed edge of an embedding, oriented along a shortest path from
/// an entity node *toward the root* (the paper's paths `l → r`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct EmbedEdge {
    /// Path-order source (closer to the entity).
    pub from: NodeId,
    /// Path-order target (closer to the root).
    pub to: NodeId,
    /// The relationship predicate.
    pub predicate: Symbol,
    /// True when the traversal used the reversed twin of the original KG
    /// edge (i.e. the original relationship points `to → from`).
    pub inverse: bool,
}

/// A Common Ancestor Graph `G_r(L)` (Definition 3): the union of *all*
/// shortest paths from every entity label in `L` to the root `r`.
///
/// The optimal one under the compactness order is the paper's Lowest
/// Common Ancestor Graph `G*` (Definition 5) and serves as the subgraph
/// embedding of one news segment.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CommonAncestorGraph {
    /// The common-ancestor root.
    pub root: NodeId,
    /// The input entity labels (normalized), in input order.
    pub labels: Vec<String>,
    /// `D(l_i, root)` per label, aligned with `labels`.
    pub distances: Vec<u32>,
    /// All nodes on some retained shortest path (sources, internals, root);
    /// sorted and deduplicated.
    pub nodes: Vec<NodeId>,
    /// All edges of the retained shortest-path DAG, oriented entity→root.
    pub edges: Vec<EmbedEdge>,
    /// For each label, its source nodes `S(l_i)` that realize the shortest
    /// distance (the path start points).
    pub sources: Vec<Vec<NodeId>>,
}

impl CommonAncestorGraph {
    /// The depth `d(G_r) = max_i D(l_i, r)`.
    pub fn depth(&self) -> u32 {
        self.distances.iter().copied().max().unwrap_or(0)
    }

    /// The compactness key: distances sorted in descending order
    /// (Definition 4 compares these lexicographically).
    pub fn compactness_key(&self) -> Vec<u32> {
        let mut v = self.distances.clone();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    }

    /// True when `node` lies in this embedding.
    #[cfg(test)]
    pub(crate) fn contains_node(&self, node: NodeId) -> bool {
        self.nodes.binary_search(&node).is_ok()
    }

    /// Number of nodes in the embedding.
    #[cfg(test)]
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

/// Definition 4: compare two candidate embeddings by their descending
/// distance vectors, lexicographically; `Less` means *more compact*
/// (`G_r < G_{r'}`).
///
/// The vectors must stem from the same label set `L`, so they have equal
/// length; if lengths differ (defensive), the shorter is padded with 0,
/// which matches treating missing labels as distance 0.
pub fn compactness_cmp(a: &[u32], b: &[u32]) -> std::cmp::Ordering {
    let n = a.len().max(b.len());
    for i in 0..n {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        match x.cmp(&y) {
            std::cmp::Ordering::Equal => continue,
            other => return other,
        }
    }
    std::cmp::Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cag(root: u32, distances: Vec<u32>) -> CommonAncestorGraph {
        CommonAncestorGraph {
            root: NodeId(root),
            labels: distances.iter().map(|d| format!("l{d}")).collect(),
            distances,
            nodes: vec![NodeId(root)],
            edges: vec![],
            sources: vec![],
        }
    }

    #[test]
    fn depth_is_max_distance() {
        assert_eq!(cag(0, vec![2, 1, 1, 1]).depth(), 2);
        assert_eq!(cag(0, vec![]).depth(), 0);
    }

    #[test]
    fn compactness_key_sorts_descending() {
        assert_eq!(cag(0, vec![1, 2, 1, 1]).compactness_key(), vec![2, 1, 1, 1]);
    }

    #[test]
    fn paper_compactness_example() {
        // G_{v0}: {2,1,1,1}; G_u: {2,2,1,1} — G_{v0} is more compact
        // because the second-largest distance is smaller.
        let g_v0 = cag(0, vec![2, 1, 1, 1]).compactness_key();
        let g_u = cag(1, vec![2, 2, 1, 1]).compactness_key();
        assert_eq!(compactness_cmp(&g_v0, &g_u), std::cmp::Ordering::Less);
    }

    #[test]
    fn equal_vectors_are_equal() {
        let a = vec![3, 2, 1];
        assert_eq!(compactness_cmp(&a, &a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn first_coordinate_dominates() {
        assert_eq!(
            compactness_cmp(&[1, 9, 9], &[2, 0, 0]),
            std::cmp::Ordering::Less
        );
    }

    #[test]
    fn smaller_depth_implies_more_compact() {
        // Lemma 1's underpinning: d(G) < d(G') ⇒ G < G'.
        let a = vec![2, 2, 2];
        let b = vec![3, 0, 0];
        assert_eq!(compactness_cmp(&a, &b), std::cmp::Ordering::Less);
    }

    #[test]
    fn contains_node_uses_sorted_nodes() {
        let mut g = cag(5, vec![1]);
        g.nodes = vec![NodeId(1), NodeId(3), NodeId(5)];
        assert!(g.contains_node(NodeId(3)));
        assert!(!g.contains_node(NodeId(2)));
        assert_eq!(g.node_count(), 3);
    }
}
