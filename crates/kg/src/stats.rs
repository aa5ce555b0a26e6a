//! Descriptive statistics over a knowledge graph.
//!
//! Used by the corpus generator (to sanity-check the synthetic world), the
//! documentation examples, and the experiment reports, which record the KG
//! scale alongside each table (the paper reports 30M nodes / 135M edges for
//! its Wikidata dump).

use newslink_util::FxHashMap;

use crate::graph::{EntityType, KnowledgeGraph};

/// Summary statistics for a [`KnowledgeGraph`].
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Node count.
    pub nodes: usize,
    /// Forward (original) edge count.
    pub edges: usize,
    /// Mean bi-directed out-degree.
    pub avg_degree: f64,
    /// Maximum bi-directed out-degree.
    pub max_degree: usize,
    /// Number of distinct normalized labels.
    pub distinct_labels: usize,
    /// Nodes that share a label with at least one other node.
    pub ambiguous_nodes: usize,
    /// Node counts per entity type.
    pub per_type: Vec<(EntityType, usize)>,
}

impl GraphStats {
    /// Compute statistics for `graph`.
    pub fn compute(graph: &KnowledgeGraph) -> Self {
        let nodes = graph.node_count();
        let mut max_degree = 0;
        let mut degree_sum = 0usize;
        let mut per_type: FxHashMap<&'static str, (EntityType, usize)> = FxHashMap::default();
        let mut label_counts: FxHashMap<crate::interner::Symbol, usize> = FxHashMap::default();
        for node in graph.nodes() {
            let d = graph.degree(node);
            degree_sum += d;
            max_degree = max_degree.max(d);
            let ty = graph.entity_type(node);
            per_type.entry(ty.as_str()).or_insert((ty, 0)).1 += 1;
            *label_counts.entry(graph.label_symbol(node)).or_default() += 1;
        }
        let ambiguous_nodes = label_counts.values().filter(|&&c| c > 1).copied().sum();
        let mut per_type: Vec<(EntityType, usize)> =
            per_type.into_values().collect();
        per_type.sort_by_key(|(t, _)| t.as_str());
        Self {
            nodes,
            edges: graph.edge_count(),
            avg_degree: if nodes == 0 {
                0.0
            } else {
                degree_sum as f64 / nodes as f64
            },
            max_degree,
            distinct_labels: label_counts.len(),
            ambiguous_nodes,
            per_type,
        }
    }

    /// Node count for one entity type.
    #[cfg(test)]
    pub(crate) fn count_of(&self, ty: EntityType) -> usize {
        self.per_type
            .iter()
            .find(|(t, _)| *t == ty)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "nodes={} edges={} avg_degree={:.2} max_degree={} labels={} ambiguous={}",
            self.nodes,
            self.edges,
            self.avg_degree,
            self.max_degree,
            self.distinct_labels,
            self.ambiguous_nodes
        )?;
        for (ty, c) in &self.per_type {
            writeln!(f, "  {:<12} {c}", ty.as_str())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn stats_of_small_graph() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("A", EntityType::Gpe);
        let c = b.add_node("B", EntityType::Person);
        let d = b.add_node("B", EntityType::Person); // ambiguous label
        b.add_edge(a, c, "p", 1);
        b.add_edge(a, d, "p", 1);
        let g = b.freeze();
        let s = GraphStats::compute(&g);
        assert_eq!(s.nodes, 3);
        assert_eq!(s.edges, 2);
        assert_eq!(s.max_degree, 2);
        assert!((s.avg_degree - 4.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.distinct_labels, 2);
        assert_eq!(s.ambiguous_nodes, 2);
        assert_eq!(s.count_of(EntityType::Person), 2);
        assert_eq!(s.count_of(EntityType::Gpe), 1);
        assert_eq!(s.count_of(EntityType::Event), 0);
    }

    #[test]
    fn empty_graph_stats() {
        let g = GraphBuilder::new().freeze();
        let s = GraphStats::compute(&g);
        assert_eq!(s.nodes, 0);
        assert_eq!(s.avg_degree, 0.0);
        assert_eq!(s.ambiguous_nodes, 0);
    }

    #[test]
    fn display_renders() {
        let mut b = GraphBuilder::new();
        b.add_node("A", EntityType::Gpe);
        let g = b.freeze();
        let text = GraphStats::compute(&g).to_string();
        assert!(text.contains("nodes=1"));
        assert!(text.contains("GPE"));
    }
}
