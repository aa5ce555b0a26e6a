//! Document embeddings: the union of per-segment `G*`s.
//!
//! §V: "Given a document with multiple entity groups identified, we take
//! the union of all `G*` as the final document subgraph embedding." Nodes
//! appearing in several groups (the orange nodes of Figure 4) carry higher
//! weight in the Bag-Of-Node model.

use newslink_kg::NodeId;
use newslink_util::FxHashMap;

use crate::model::{CommonAncestorGraph, EmbedEdge};

/// The subgraph embedding of a whole news document.
#[derive(Debug, Clone, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DocEmbedding {
    /// One `G*` per entity group of the maximal co-occurrence set.
    pub groups: Vec<CommonAncestorGraph>,
}

impl DocEmbedding {
    /// Wrap per-group embeddings.
    pub fn new(groups: Vec<CommonAncestorGraph>) -> Self {
        Self { groups }
    }

    /// True when no group produced an embedding.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Node → number of groups containing it (the BON term frequency).
    pub(crate) fn node_counts(&self) -> FxHashMap<NodeId, u32> {
        let mut counts: FxHashMap<NodeId, u32> = FxHashMap::default();
        for g in &self.groups {
            for &n in &g.nodes {
                *counts.entry(n).or_default() += 1;
            }
        }
        counts
    }

    /// All distinct nodes across groups, sorted.
    pub fn all_nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.node_counts().into_keys().collect();
        v.sort_unstable();
        v
    }

    /// All edges across groups, deduplicated.
    pub(crate) fn all_edges(&self) -> Vec<EmbedEdge> {
        let mut v: Vec<EmbedEdge> = self.groups.iter().flat_map(|g| g.edges.iter().copied()).collect();
        v.sort_unstable_by_key(|e| (e.from, e.to, e.predicate, e.inverse));
        v.dedup();
        v
    }

    /// All entity source nodes (path start points) across groups, sorted
    /// and deduplicated — the anchors for relationship-path explanations.
    pub(crate) fn entity_nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .groups
            .iter()
            .flat_map(|g| g.sources.iter().flatten().copied())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(root: u32, nodes: &[u32], srcs: &[u32]) -> CommonAncestorGraph {
        CommonAncestorGraph {
            root: NodeId(root),
            labels: vec!["l".into()],
            distances: vec![1],
            nodes: nodes.iter().map(|&n| NodeId(n)).collect(),
            edges: vec![],
            sources: vec![srcs.iter().map(|&n| NodeId(n)).collect()],
        }
    }

    #[test]
    fn node_counts_accumulate_across_groups() {
        let e = DocEmbedding::new(vec![group(0, &[0, 1, 2], &[2]), group(0, &[0, 2, 3], &[3])]);
        let c = e.node_counts();
        assert_eq!(c[&NodeId(0)], 2);
        assert_eq!(c[&NodeId(2)], 2);
        assert_eq!(c[&NodeId(1)], 1);
        assert_eq!(c[&NodeId(3)], 1);
    }

    #[test]
    fn all_nodes_sorted_unique() {
        let e = DocEmbedding::new(vec![group(0, &[2, 0], &[]), group(0, &[1, 2], &[])]);
        assert_eq!(e.all_nodes(), vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn entity_nodes_dedupe() {
        let e = DocEmbedding::new(vec![group(0, &[0, 5], &[5]), group(0, &[0, 5], &[5])]);
        assert_eq!(e.entity_nodes(), vec![NodeId(5)]);
    }

    #[test]
    fn empty_embedding() {
        let e = DocEmbedding::default();
        assert!(e.is_empty());
        assert!(e.all_nodes().is_empty());
        assert!(e.entity_nodes().is_empty());
    }
}
