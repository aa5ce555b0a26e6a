//! Relationship-path explanations.
//!
//! The overlap of query and result subgraph embeddings induces concrete
//! relationship paths between the entities of the two news texts (the
//! paper's Tables II and VI). Paths are found by BFS over the *union* of
//! the two embeddings' edges, anchored at entity source nodes, and rendered
//! with the original KG edge directions (`—pred→` / `←pred—`).

use std::collections::VecDeque;

use newslink_kg::{KnowledgeGraph, NodeId, Symbol};
use newslink_util::{FxHashMap, FxHashSet};

use crate::union::DocEmbedding;

/// One step of a relationship path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub(crate) struct PathStep {
    /// The node this step arrives at.
    pub(crate) to: NodeId,
    /// The predicate traversed.
    pub(crate) predicate: Symbol,
    /// True when the *original* KG edge points against the traversal
    /// direction (render as `←pred—`).
    pub(crate) against: bool,
}

/// A relationship path between two entity nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RelationshipPath {
    /// The starting entity node.
    pub(crate) start: NodeId,
    /// The steps from `start` to the final entity node.
    pub(crate) steps: Vec<PathStep>,
}

impl RelationshipPath {
    /// All nodes on the path, start first.
    pub(crate) fn nodes(&self) -> Vec<NodeId> {
        std::iter::once(self.start)
            .chain(self.steps.iter().map(|s| s.to))
            .collect()
    }

    /// Number of edges.
    pub(crate) fn len(&self) -> usize {
        self.steps.len()
    }

    /// True for a trivial single-node path.
    pub(crate) fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Render like `Clinton —candidate in→ election ←candidate in— Trump`.
    pub fn render(&self, graph: &KnowledgeGraph) -> String {
        let mut out = String::new();
        out.push_str(graph.label(self.start));
        for s in &self.steps {
            let pred = graph.resolve(s.predicate);
            if s.against {
                out.push_str(&format!(" ←{pred}— "));
            } else {
                out.push_str(&format!(" —{pred}→ "));
            }
            out.push_str(graph.label(s.to));
        }
        out
    }
}

/// Undirected adjacency over the union of two embeddings' edges.
///
/// Entry `(to, predicate, against)` — `against` is relative to traversal
/// from the keyed node.
fn union_adjacency(
    a: &DocEmbedding,
    b: &DocEmbedding,
) -> FxHashMap<NodeId, Vec<(NodeId, Symbol, bool)>> {
    let mut adj: FxHashMap<NodeId, Vec<(NodeId, Symbol, bool)>> = FxHashMap::default();
    let mut seen: FxHashSet<(NodeId, NodeId, Symbol, bool)> = FxHashSet::default();
    for e in a.all_edges().into_iter().chain(b.all_edges()) {
        if !seen.insert((e.from, e.to, e.predicate, e.inverse)) {
            continue;
        }
        // The embedding edge was traversed from→to; the ORIGINAL KG edge
        // points from→to when !e.inverse, and to→from when e.inverse.
        adj.entry(e.from)
            .or_default()
            .push((e.to, e.predicate, e.inverse));
        adj.entry(e.to)
            .or_default()
            .push((e.from, e.predicate, !e.inverse));
    }
    adj
}

/// Shortest path between two nodes in the union graph, if one exists
/// within `max_len` edges.
fn bfs_path(
    adj: &FxHashMap<NodeId, Vec<(NodeId, Symbol, bool)>>,
    start: NodeId,
    goal: NodeId,
    max_len: usize,
) -> Option<RelationshipPath> {
    if start == goal {
        return Some(RelationshipPath {
            start,
            steps: vec![],
        });
    }
    let mut parent: FxHashMap<NodeId, (NodeId, Symbol, bool)> = FxHashMap::default();
    let mut depth: FxHashMap<NodeId, usize> = FxHashMap::default();
    depth.insert(start, 0);
    let mut q = VecDeque::from([start]);
    while let Some(v) = q.pop_front() {
        let dv = depth[&v];
        if dv >= max_len {
            continue;
        }
        let Some(neigh) = adj.get(&v) else { continue };
        for &(to, pred, against) in neigh {
            if depth.contains_key(&to) {
                continue;
            }
            depth.insert(to, dv + 1);
            parent.insert(to, (v, pred, against));
            if to == goal {
                // Reconstruct.
                let mut steps = Vec::new();
                let mut cur = goal;
                while cur != start {
                    let (p, pred, against) = parent[&cur];
                    steps.push(PathStep {
                        to: cur,
                        predicate: pred,
                        against,
                    });
                    cur = p;
                }
                steps.reverse();
                return Some(RelationshipPath { start, steps });
            }
            q.push_back(to);
        }
    }
    None
}

/// Find relationship paths linking the entities of embedding `a` to the
/// entities of embedding `b` (inter-document), shortest first, at most
/// `max_paths` of length ≤ `max_len`.
///
/// Entity pairs resolving to the same node (matched entities) yield no
/// path — the interesting evidence links *unmatched* entities, as in the
/// paper's Example 1.
pub fn relationship_paths(
    a: &DocEmbedding,
    b: &DocEmbedding,
    max_len: usize,
    max_paths: usize,
) -> Vec<RelationshipPath> {
    let adj = union_adjacency(a, b);
    let mut out: Vec<RelationshipPath> = Vec::new();
    let mut seen_pairs: FxHashSet<(NodeId, NodeId)> = FxHashSet::default();
    for &ea in &a.entity_nodes() {
        for &eb in &b.entity_nodes() {
            if ea == eb {
                continue;
            }
            let key = if ea < eb { (ea, eb) } else { (eb, ea) };
            if !seen_pairs.insert(key) {
                continue;
            }
            if let Some(p) = bfs_path(&adj, ea, eb, max_len) {
                if !p.is_empty() {
                    out.push(p);
                }
            }
        }
    }
    out.sort_by_key(|p| (p.len(), p.start, p.steps.last().map(|s| s.to)));
    out.truncate(max_paths);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{find_lcag, SearchConfig};
    use crate::model::EmbedEdge;
    use newslink_kg::{EntityType, GraphBuilder, KnowledgeGraph, LabelIndex};

    /// Election world resembling the paper's case study (Figure 6):
    /// Clinton and Trump are both candidates in the election; Sanders too.
    fn election_world() -> (KnowledgeGraph, LabelIndex) {
        let mut b = GraphBuilder::new();
        let election = b.add_node("2016 US presidential election", EntityType::Event);
        let clinton = b.add_node("Hillary Clinton", EntityType::Person);
        let trump = b.add_node("Donald Trump", EntityType::Person);
        let sanders = b.add_node("Bernie Sanders", EntityType::Person);
        let fbi = b.add_node("FBI", EntityType::Organization);
        let usa = b.add_node("United States", EntityType::Gpe);
        b.add_edge(clinton, election, "candidate in", 1);
        b.add_edge(trump, election, "candidate in", 1);
        b.add_edge(sanders, election, "candidate in", 1);
        b.add_edge(fbi, clinton, "investigated", 1);
        b.add_edge(election, usa, "located in", 1);
        let g = b.freeze();
        let idx = LabelIndex::build(&g);
        (g, idx)
    }

    fn embed(g: &KnowledgeGraph, idx: &LabelIndex, labels: &[&str]) -> DocEmbedding {
        let l: Vec<String> = labels.iter().map(|s| s.to_string()).collect();
        DocEmbedding::new(vec![
            find_lcag(g, idx, &l, &SearchConfig::default()).unwrap()
        ])
    }

    #[test]
    fn case_study_paths_link_candidates_through_election() {
        let (g, idx) = election_world();
        // Q mentions Clinton and Sanders (their G* meets at the election);
        // R mentions Trump and the FBI (whose G* also runs through the
        // election via Clinton) — the Figure 6 shape.
        let q = embed(&g, &idx, &["hillary clinton", "bernie sanders"]);
        let r = embed(&g, &idx, &["donald trump", "fbi"]);
        let paths = relationship_paths(&q, &r, 4, 10);
        assert!(!paths.is_empty());
        let rendered: Vec<String> = paths.iter().map(|p| p.render(&g)).collect();
        // Some path must connect Clinton to Trump via the election node.
        assert!(
            rendered
                .iter()
                .any(|s| s.contains("Clinton") && s.contains("Trump") && s.contains("election")),
            "paths: {rendered:?}"
        );
    }

    #[test]
    fn render_shows_edge_directions() {
        let (g, idx) = election_world();
        let q = embed(&g, &idx, &["hillary clinton"]);
        let r = embed(&g, &idx, &["donald trump", "hillary clinton"]);
        let paths = relationship_paths(&q, &r, 4, 10);
        let rendered: Vec<String> = paths.iter().map(|p| p.render(&g)).collect();
        // Clinton —candidate in→ election ←candidate in— Trump
        assert!(
            rendered
                .iter()
                .any(|s| s.contains("—candidate in→") && s.contains("←candidate in—")),
            "paths: {rendered:?}"
        );
    }

    #[test]
    fn same_node_entities_yield_no_path() {
        let (g, idx) = election_world();
        let q = embed(&g, &idx, &["hillary clinton"]);
        let paths = relationship_paths(&q, &q, 4, 10);
        assert!(paths.is_empty());
    }

    #[test]
    fn max_len_limits_path_discovery() {
        let (g, idx) = election_world();
        let q = embed(&g, &idx, &["fbi", "hillary clinton"]);
        let r = embed(&g, &idx, &["donald trump", "bernie sanders"]);
        // FBI→Clinton→election→Trump needs 3 hops; with max_len 1 only
        // direct edges qualify.
        let paths = relationship_paths(&q, &r, 1, 10);
        assert!(paths.iter().all(|p| p.len() <= 1));
    }

    #[test]
    fn max_paths_truncates_sorted_by_length() {
        let (g, idx) = election_world();
        let q = embed(&g, &idx, &["fbi", "hillary clinton"]);
        let r = embed(&g, &idx, &["donald trump", "bernie sanders"]);
        let all = relationship_paths(&q, &r, 6, 100);
        let one = relationship_paths(&q, &r, 6, 1);
        assert_eq!(one.len(), 1.min(all.len()));
        if !all.is_empty() {
            assert_eq!(one[0], all[0]);
            assert!(all.windows(2).all(|w| w[0].len() <= w[1].len()));
        }
    }

    #[test]
    fn path_nodes_consistent_with_steps() {
        let (g, idx) = election_world();
        let q = embed(&g, &idx, &["hillary clinton"]);
        let r = embed(&g, &idx, &["donald trump", "hillary clinton"]);
        for p in relationship_paths(&q, &r, 4, 10) {
            assert_eq!(p.nodes().len(), p.len() + 1);
        }
    }

    /// A document of up to three entity groups over `pool`, embedded with
    /// `find_lcag`; groups that fail to embed contribute nothing.
    fn synth_doc(
        g: &KnowledgeGraph,
        idx: &LabelIndex,
        pool: &[NodeId],
        groups: &[Vec<usize>],
    ) -> DocEmbedding {
        let cags = groups
            .iter()
            .filter_map(|picks| {
                let l: Vec<String> =
                    picks.iter().map(|&p| g.label(pool[p % pool.len()]).to_string()).collect();
                find_lcag(g, idx, &l, &SearchConfig::default()).ok()
            })
            .collect();
        DocEmbedding::new(cags)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Every explanation is a real KG walk inside `G*_a ∪ G*_b` that
        /// joins an entity of `a` to a different entity of `b`.
        #[test]
        fn relationship_paths_are_kg_walks_between_the_two_documents(
            seed in 0u64..1_000,
            groups_a in proptest::collection::vec(proptest::collection::vec(0usize..10_000, 1..5), 1..4),
            groups_b in proptest::collection::vec(proptest::collection::vec(0usize..10_000, 1..5), 1..4),
            max_len in 1usize..7,
            max_paths in 1usize..12,
        ) {
            let world = newslink_kg::synth::generate(&newslink_kg::SynthConfig::small(seed));
            let g = &world.graph;
            let idx = LabelIndex::build(g);
            let pool: Vec<NodeId> =
                world.countries.iter().chain(&world.cities).chain(&world.people).copied().collect();
            let a = synth_doc(g, &idx, &pool, &groups_a);
            let b = synth_doc(g, &idx, &pool, &groups_b);
            let in_union = |from: NodeId, to: NodeId, predicate: Symbol, inverse: bool| {
                let e = EmbedEdge { from, to, predicate, inverse };
                let twin = EmbedEdge { from: to, to: from, predicate, inverse: !inverse };
                [&a, &b].iter().any(|d| d.all_edges().iter().any(|&x| x == e || x == twin))
            };

            let paths = relationship_paths(&a, &b, max_len, max_paths);
            assert!(paths.len() <= max_paths);
            let order = |p: &RelationshipPath| (p.len(), p.start, p.steps.last().map(|s| s.to));
            assert!(paths.windows(2).all(|w| order(&w[0]) <= order(&w[1])), "sorted");
            for p in &paths {
                let end = p.steps.last().expect("a path has at least one step").to;
                assert!(a.entity_nodes().contains(&p.start), "starts at an entity of a");
                assert!(b.entity_nodes().contains(&end), "ends at an entity of b");
                assert_ne!(p.start, end);
                assert!(p.len() <= max_len);
                let mut u = p.start;
                for s in &p.steps {
                    assert!(
                        g.neighbors(u)
                            .iter()
                            .any(|e| e.to == s.to && e.predicate == s.predicate && e.inverse == s.against),
                        "step {u:?} -> {:?} is a KG edge with its predicate and direction",
                        s.to
                    );
                    assert!(in_union(u, s.to, s.predicate, s.against), "step lies in G*_a ∪ G*_b");
                    u = s.to;
                }
            }
        }
    }
}
