//! Mutable construction of a [`KnowledgeGraph`].
//!
//! The builder accumulates nodes and forward edges, then [`freeze`]s into
//! the CSR layout, inserting the reversed twin of every edge so the frozen
//! graph is bi-directed as the paper requires.
//!
//! [`freeze`]: GraphBuilder::freeze

use crate::graph::{Edge, EntityType, KnowledgeGraph, NodeId};
use crate::interner::{StringInterner, Symbol};

/// A forward edge awaiting freeze.
#[derive(Debug, Clone, Copy)]
struct PendingEdge {
    src: NodeId,
    dst: NodeId,
    predicate: Symbol,
    weight: u32,
}

/// Incremental graph builder.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    interner: StringInterner,
    labels: Vec<Symbol>,
    types: Vec<EntityType>,
    pending: Vec<PendingEdge>,
    aliases: Vec<(NodeId, Symbol)>,
}

impl GraphBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node with `label` and `ty`, returning its id.
    ///
    /// Labels are *not* deduplicated: distinct nodes may share a label
    /// (Wikidata has many "Springfield"s); the label index maps one label to
    /// the whole set `S(l)`.
    pub fn add_node(&mut self, label: &str, ty: EntityType) -> NodeId {
        let sym = self.interner.get_or_intern(label);
        let id = NodeId(
            u32::try_from(self.labels.len()).expect("graph overflow: more than 2^32 nodes"),
        );
        self.labels.push(sym);
        self.types.push(ty);
        id
    }

    /// Add a forward relationship edge. `weight` must be positive.
    ///
    /// # Panics
    /// Panics on out-of-range node ids or zero weight (Dijkstra requires
    /// positive weights).
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, predicate: &str, weight: u32) {
        assert!(src.index() < self.labels.len(), "edge source out of range");
        assert!(dst.index() < self.labels.len(), "edge target out of range");
        assert!(weight > 0, "edge weight must be positive");
        let predicate = self.interner.get_or_intern(predicate);
        self.pending.push(PendingEdge {
            src,
            dst,
            predicate,
            weight,
        });
    }

    /// Number of nodes added so far.
    pub(crate) fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Label of an already-added node.
    pub(crate) fn label(&self, node: NodeId) -> &str {
        self.interner.resolve(self.labels[node.index()])
    }

    /// Register an alternative surface form for `node` (Wikidata alias).
    /// Empty or duplicate-of-label aliases are ignored.
    pub fn add_alias(&mut self, node: NodeId, alias: &str) {
        assert!(node.index() < self.labels.len(), "alias node out of range");
        if alias.trim().is_empty() {
            return;
        }
        let sym = self.interner.get_or_intern(alias);
        if sym == self.labels[node.index()] {
            return;
        }
        self.aliases.push((node, sym));
    }

    /// Freeze into the immutable CSR representation, materializing the
    /// reversed twin of every forward edge.
    pub fn freeze(self) -> KnowledgeGraph {
        let n = self.labels.len();
        let forward = self.pending.len();

        // Counting sort into CSR: each pending edge contributes one entry at
        // `src` (forward) and one at `dst` (inverse twin).
        let mut degree = vec![0u32; n + 1];
        for e in &self.pending {
            degree[e.src.index() + 1] += 1;
            degree[e.dst.index() + 1] += 1;
        }
        let mut offsets = degree;
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }

        let placeholder = Edge {
            to: NodeId(0),
            predicate: Symbol(0),
            weight: 1,
            inverse: false,
        };
        let mut edges = vec![placeholder; forward * 2];
        let mut cursor = offsets.clone();
        for e in &self.pending {
            let fwd_pos = cursor[e.src.index()] as usize;
            cursor[e.src.index()] += 1;
            edges[fwd_pos] = Edge {
                to: e.dst,
                predicate: e.predicate,
                weight: e.weight,
                inverse: false,
            };
            let inv_pos = cursor[e.dst.index()] as usize;
            cursor[e.dst.index()] += 1;
            edges[inv_pos] = Edge {
                to: e.src,
                predicate: e.predicate,
                weight: e.weight,
                inverse: true,
            };
        }

        // Deterministic adjacency order (by target, predicate) regardless of
        // insertion order; simplifies tests and stabilizes traversal output.
        for v in 0..n {
            let lo = offsets[v] as usize;
            let hi = offsets[v + 1] as usize;
            edges[lo..hi].sort_by_key(|e| (e.to, e.predicate, e.inverse));
        }

        let mut aliases = self.aliases;
        aliases.sort_unstable();
        aliases.dedup();
        KnowledgeGraph {
            interner: self.interner,
            labels: self.labels,
            types: self.types,
            offsets,
            edges,
            forward_edges: forward,
            aliases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freeze_builds_sorted_bidirected_csr() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_node("a", EntityType::Gpe);
        let v1 = b.add_node("b", EntityType::Gpe);
        let v2 = b.add_node("c", EntityType::Gpe);
        b.add_edge(v2, v0, "p", 1);
        b.add_edge(v1, v0, "p", 1);
        let g = b.freeze();
        // v0 has two inverse edges, sorted by target.
        let n: Vec<_> = g.neighbors(v0).iter().map(|e| e.to).collect();
        assert_eq!(n, vec![v1, v2]);
        assert!(g.neighbors(v0).iter().all(|e| e.inverse));
        assert_eq!(g.neighbors(v1).len(), 1);
        assert!(!g.neighbors(v1)[0].inverse);
    }

    #[test]
    fn duplicate_labels_create_distinct_nodes() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("Springfield", EntityType::Gpe);
        let c = b.add_node("Springfield", EntityType::Gpe);
        assert_ne!(a, c);
        let g = b.freeze();
        assert_eq!(g.label(a), g.label(c));
        assert_eq!(g.label_symbol(a), g.label_symbol(c));
    }

    #[test]
    fn empty_graph_freezes() {
        let g = GraphBuilder::new().freeze();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn isolated_nodes_have_no_neighbors() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("lonely", EntityType::Person);
        let g = b.freeze();
        assert!(g.neighbors(a).is_empty());
        assert_eq!(g.degree(a), 0);
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn zero_weight_rejected() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("a", EntityType::Gpe);
        let c = b.add_node("b", EntityType::Gpe);
        b.add_edge(a, c, "p", 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dangling_edge_rejected() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("a", EntityType::Gpe);
        b.add_edge(a, NodeId(99), "p", 1);
    }

    #[test]
    fn aliases_round_trip_through_freeze() {
        let mut b = GraphBuilder::new();
        let who = b.add_node("World Health Organization", EntityType::Organization);
        let other = b.add_node("Somewhere", EntityType::Gpe);
        b.add_alias(who, "WHO");
        b.add_alias(who, "W.H.O.");
        b.add_alias(who, "WHO"); // duplicate collapses
        b.add_alias(who, "World Health Organization"); // same as label: ignored
        b.add_alias(other, "");
        let g = b.freeze();
        let aliases: Vec<&str> = g.aliases_of(who).collect();
        // Sorted by interning order (insertion order of first occurrence).
        assert_eq!(aliases, vec!["WHO", "W.H.O."]);
        assert_eq!(g.aliases_of(other).count(), 0);
        assert_eq!(g.aliases().count(), 2);
    }

    #[test]
    fn parallel_edges_are_preserved() {
        // Two different predicates between the same pair: both must survive,
        // giving G* its multi-path "width".
        let mut b = GraphBuilder::new();
        let a = b.add_node("a", EntityType::Person);
        let c = b.add_node("b", EntityType::Event);
        b.add_edge(a, c, "participant of", 1);
        b.add_edge(a, c, "candidate in", 1);
        let g = b.freeze();
        assert_eq!(g.neighbors(a).len(), 2);
        assert_eq!(g.neighbors(c).len(), 2);
        assert_eq!(g.edge_count(), 2);
    }
}
