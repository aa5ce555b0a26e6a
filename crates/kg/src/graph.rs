//! The knowledge-graph store.
//!
//! A frozen, in-memory property graph in CSR (compressed sparse row) form:
//! typed, labeled nodes and predicate-labeled, weighted edges. Following the
//! paper (§V-A), the graph is made *bi-directed* at freeze time — every
//! original relationship edge gets a reversed twin flagged [`Edge::inverse`]
//! — so that distances are symmetric and any node can serve as a common
//! ancestor.

use serde::{Deserialize, Serialize};

use crate::interner::{StringInterner, Symbol};

/// Index of a node in the graph. Dense, 4 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's index as `usize`.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// Entity types, mirroring the NER type inventory of §IV.
///
/// The paper considers "all entity types except those representing numbers
/// or quantities"; [`EntityType::is_searchable`] encodes that filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EntityType {
    /// A person.
    Person,
    /// Nationality, religious or political group.
    Norp,
    /// Buildings, airports, highways, bridges.
    Facility,
    /// Companies, agencies, institutions, militant groups, teams, parties.
    Organization,
    /// Geo-political entity: countries, provinces, cities.
    Gpe,
    /// Non-GPE locations: mountain ranges, valleys, bodies of water.
    Location,
    /// Objects, vehicles, foods (not services).
    Product,
    /// Named events: wars, elections, attacks, sports events.
    Event,
    /// Titles of books, songs, films.
    WorkOfArt,
    /// Named documents made into laws.
    Law,
    /// A named language.
    Language,
    /// Numeric / quantity types — excluded from entity matching per §IV.
    Quantity,
}

impl EntityType {
    /// All variants, for iteration in tests and generators.
    pub(crate) const ALL: [EntityType; 12] = [
        EntityType::Person,
        EntityType::Norp,
        EntityType::Facility,
        EntityType::Organization,
        EntityType::Gpe,
        EntityType::Location,
        EntityType::Product,
        EntityType::Event,
        EntityType::WorkOfArt,
        EntityType::Law,
        EntityType::Language,
        EntityType::Quantity,
    ];

    /// Whether entities of this type participate in search (§IV excludes
    /// number/quantity types).
    #[inline]
    pub fn is_searchable(self) -> bool {
        !matches!(self, EntityType::Quantity)
    }

    /// Stable textual name (used by the TSV serialization).
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            EntityType::Person => "PERSON",
            EntityType::Norp => "NORP",
            EntityType::Facility => "FAC",
            EntityType::Organization => "ORG",
            EntityType::Gpe => "GPE",
            EntityType::Location => "LOC",
            EntityType::Product => "PRODUCT",
            EntityType::Event => "EVENT",
            EntityType::WorkOfArt => "WORK_OF_ART",
            EntityType::Law => "LAW",
            EntityType::Language => "LANGUAGE",
            EntityType::Quantity => "QUANTITY",
        }
    }

    /// Parse the textual name produced by [`EntityType::as_str`].
    pub(crate) fn parse(s: &str) -> Option<Self> {
        EntityType::ALL.into_iter().find(|t| t.as_str() == s)
    }
}

/// One directed adjacency entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Target node.
    pub to: NodeId,
    /// Interned predicate name (e.g. `located in`).
    pub predicate: Symbol,
    /// Positive traversal weight (the paper's examples use weight 1).
    pub weight: u32,
    /// True when this entry is the reversed twin added for bi-direction.
    pub inverse: bool,
}

/// A frozen knowledge graph.
///
/// Construct through [`crate::builder::GraphBuilder`]. All queries are
/// read-only and `&self`, so a graph can be shared across threads freely.
#[derive(Debug, Clone)]
pub struct KnowledgeGraph {
    pub(crate) interner: StringInterner,
    pub(crate) labels: Vec<Symbol>,
    pub(crate) types: Vec<EntityType>,
    pub(crate) offsets: Vec<u32>,
    pub(crate) edges: Vec<Edge>,
    pub(crate) forward_edges: usize,
    /// `(node, alias)` pairs, sorted by node (Wikidata-style alternative
    /// surface forms; resolved by the label index like primary labels).
    pub(crate) aliases: Vec<(NodeId, Symbol)>,
}

impl KnowledgeGraph {
    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of *original* (forward) relationship edges; the stored
    /// adjacency holds twice this many entries due to bi-direction.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.forward_edges
    }

    /// Number of stored directed adjacency entries (forward + inverse).
    #[inline]
    pub fn directed_edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Outgoing adjacency of `node` in the bi-directed graph.
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> &[Edge] {
        let lo = self.offsets[node.index()] as usize;
        let hi = self.offsets[node.index() + 1] as usize;
        &self.edges[lo..hi]
    }

    /// Out-degree of `node` in the bi-directed graph.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.neighbors(node).len()
    }

    /// The display label of `node`.
    #[inline]
    pub fn label(&self, node: NodeId) -> &str {
        self.interner.resolve(self.labels[node.index()])
    }

    /// The interned label symbol of `node`.
    #[inline]
    pub(crate) fn label_symbol(&self, node: NodeId) -> Symbol {
        self.labels[node.index()]
    }

    /// The entity type of `node`.
    #[inline]
    pub fn entity_type(&self, node: NodeId) -> EntityType {
        self.types[node.index()]
    }

    /// Resolve an interned predicate or label symbol.
    #[inline]
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.interner.resolve(sym)
    }

    /// Iterate over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.labels.len() as u32).map(NodeId)
    }

    /// True when `node` is a valid id for this graph.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        node.index() < self.labels.len()
    }

    /// Alias surface forms of `node` (excluding its primary label).
    pub fn aliases_of(&self, node: NodeId) -> impl Iterator<Item = &str> {
        let start = self.aliases.partition_point(|(n, _)| *n < node);
        self.aliases[start..]
            .iter()
            .take_while(move |(n, _)| *n == node)
            .map(|(_, s)| self.interner.resolve(*s))
    }

    /// All `(node, alias)` pairs.
    pub(crate) fn aliases(&self) -> impl Iterator<Item = (NodeId, &str)> {
        self.aliases
            .iter()
            .map(|(n, s)| (*n, self.interner.resolve(*s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn tiny() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_node("Khyber", EntityType::Gpe);
        let c = b.add_node("Kunar", EntityType::Gpe);
        let d = b.add_node("Taliban", EntityType::Organization);
        b.add_edge(c, a, "shares border with", 1);
        b.add_edge(d, c, "operates in", 1);
        b.freeze()
    }

    #[test]
    fn counts_reflect_bidirection() {
        let g = tiny();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.directed_edge_count(), 4);
    }

    #[test]
    fn neighbors_include_inverse_edges() {
        let g = tiny();
        let khyber = NodeId(0);
        let n = g.neighbors(khyber);
        assert_eq!(n.len(), 1);
        assert!(n[0].inverse);
        assert_eq!(g.label(n[0].to), "Kunar");
    }

    #[test]
    fn labels_and_types_resolve() {
        let g = tiny();
        assert_eq!(g.label(NodeId(2)), "Taliban");
        assert_eq!(g.entity_type(NodeId(2)), EntityType::Organization);
        assert_eq!(g.entity_type(NodeId(0)), EntityType::Gpe);
    }

    #[test]
    fn entity_type_round_trips_through_names() {
        for t in EntityType::ALL {
            assert_eq!(EntityType::parse(t.as_str()), Some(t));
        }
        assert_eq!(EntityType::parse("bogus"), None);
    }

    #[test]
    fn quantity_is_not_searchable() {
        assert!(!EntityType::Quantity.is_searchable());
        assert!(EntityType::Gpe.is_searchable());
        assert_eq!(
            EntityType::ALL.iter().filter(|t| t.is_searchable()).count(),
            11
        );
    }

    #[test]
    fn contains_bounds_check() {
        let g = tiny();
        assert!(g.contains(NodeId(2)));
        assert!(!g.contains(NodeId(3)));
    }
}
