//! Edge re-weighting.
//!
//! The paper's model is defined over *weighted* KGs ("W.L.O.G., we assume
//! the KG is connected, labeled and weighted") but evaluates with unit
//! weights. Real deployments often weight edges by relationship strength
//! — e.g. generic containment predicates weaker (heavier) than specific
//! ones. This module rebuilds a graph with new per-edge weights so the
//! weighting ablation can compare schemes on identical topology.

use newslink_util::FxHashMap;

use crate::builder::GraphBuilder;
use crate::graph::{KnowledgeGraph, NodeId};
use crate::interner::Symbol;

/// Rebuild `graph` with weights chosen per edge by `weight_of`
/// (`(source, predicate, target, old_weight) -> new_weight`). Node ids,
/// labels, types and aliases are preserved exactly; returned weights are
/// clamped to ≥ 1.
pub(crate) fn reweight(
    graph: &KnowledgeGraph,
    mut weight_of: impl FnMut(NodeId, Symbol, NodeId, u32) -> u32,
) -> KnowledgeGraph {
    let mut b = GraphBuilder::new();
    for node in graph.nodes() {
        b.add_node(graph.label(node), graph.entity_type(node));
    }
    for (node, alias) in graph.aliases() {
        b.add_alias(node, alias);
    }
    for node in graph.nodes() {
        for e in graph.neighbors(node) {
            if e.inverse {
                continue;
            }
            let w = weight_of(node, e.predicate, e.to, e.weight).max(1);
            b.add_edge(node, e.to, graph.resolve(e.predicate), w);
        }
    }
    b.freeze()
}

/// Weight edges by predicate frequency: edges with *common* predicates are
/// weaker relationships and get weight 2; edges with rarer predicates keep
/// weight 1. `heavy_fraction` selects how much of the edge mass counts as
/// common (e.g. 0.5 = predicates covering the top half of edges).
pub fn reweight_by_predicate_rarity(graph: &KnowledgeGraph, heavy_fraction: f64) -> KnowledgeGraph {
    let mut freq: FxHashMap<Symbol, usize> = FxHashMap::default();
    for node in graph.nodes() {
        for e in graph.neighbors(node) {
            if !e.inverse {
                *freq.entry(e.predicate).or_default() += 1;
            }
        }
    }
    let mut by_freq: Vec<(Symbol, usize)> = freq.iter().map(|(&s, &c)| (s, c)).collect();
    by_freq.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let total: usize = by_freq.iter().map(|(_, c)| c).sum();
    let budget = (total as f64 * heavy_fraction.clamp(0.0, 1.0)) as usize;
    let mut heavy: FxHashMap<Symbol, ()> = FxHashMap::default();
    let mut used = 0usize;
    for (sym, count) in by_freq {
        if used >= budget {
            break;
        }
        heavy.insert(sym, ());
        used += count;
    }
    reweight(graph, |_, pred, _, w| {
        if heavy.contains_key(&pred) {
            w * 2
        } else {
            w
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EntityType;

    fn sample() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_node("A", EntityType::Gpe);
        let c = b.add_node("B", EntityType::Gpe);
        let d = b.add_node("C", EntityType::Organization);
        b.add_alias(d, "CC");
        b.add_edge(a, c, "located in", 1);
        b.add_edge(c, d, "located in", 1);
        b.add_edge(a, d, "rare link", 1);
        b.freeze()
    }

    #[test]
    fn reweight_preserves_structure() {
        let g = sample();
        let g2 = reweight(&g, |_, _, _, w| w * 3);
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        for node in g.nodes() {
            assert_eq!(g2.label(node), g.label(node));
            assert_eq!(g2.entity_type(node), g.entity_type(node));
            let a: Vec<_> = g.neighbors(node).iter().map(|e| (e.to, e.inverse)).collect();
            let b: Vec<_> = g2.neighbors(node).iter().map(|e| (e.to, e.inverse)).collect();
            assert_eq!(a, b);
            assert!(g2.neighbors(node).iter().all(|e| e.weight == 3));
        }
        assert_eq!(g2.aliases().count(), 1);
    }

    #[test]
    fn weights_clamped_to_one() {
        let g = sample();
        let g2 = reweight(&g, |_, _, _, _| 0);
        assert!(g2
            .nodes()
            .flat_map(|n| g2.neighbors(n).iter())
            .all(|e| e.weight == 1));
    }

    #[test]
    fn rarity_scheme_penalizes_common_predicates() {
        let g = sample();
        // "located in" covers 2 of 3 edges -> heavy at fraction 0.5.
        let g2 = reweight_by_predicate_rarity(&g, 0.5);
        let mut by_pred: FxHashMap<String, u32> = FxHashMap::default();
        for node in g2.nodes() {
            for e in g2.neighbors(node) {
                if !e.inverse {
                    by_pred.insert(g2.resolve(e.predicate).to_string(), e.weight);
                }
            }
        }
        assert_eq!(by_pred["located in"], 2);
        assert_eq!(by_pred["rare link"], 1);
    }

    #[test]
    fn zero_fraction_changes_nothing() {
        let g = sample();
        let g2 = reweight_by_predicate_rarity(&g, 0.0);
        for node in g2.nodes() {
            for (e1, e2) in g.neighbors(node).iter().zip(g2.neighbors(node)) {
                assert_eq!(e1.weight, e2.weight);
            }
        }
    }
}
