//! Property-based integration tests of the paper's formal claims, run on
//! randomly generated graphs and label sets (proptest).

use proptest::prelude::*;

use newslink::embed::{compactness_cmp, find_lcag, find_tree_embedding, SearchConfig};
use newslink::kg::{EntityType, GraphBuilder, KnowledgeGraph, LabelIndex, NodeId};
use newslink::util::FxHashMap;

/// Build a random connected graph: a spanning chain plus random extra
/// edges. Node labels are `n0..n{n-1}` (unique, so `S(l)` is a singleton).
fn random_graph(n: usize, extra_edges: &[(usize, usize)]) -> KnowledgeGraph {
    let mut b = GraphBuilder::new();
    let nodes: Vec<NodeId> = (0..n)
        .map(|i| b.add_node(&format!("n{i}"), EntityType::Gpe))
        .collect();
    for w in nodes.windows(2) {
        b.add_edge(w[0], w[1], "chain", 1);
    }
    for &(u, v) in extra_edges {
        let (u, v) = (u % n, v % n);
        if u != v {
            b.add_edge(nodes[u], nodes[v], "extra", 1);
        }
    }
    b.freeze()
}

/// All-pairs BFS distance from `src` in the bidirected graph.
fn bfs(graph: &KnowledgeGraph, src: NodeId) -> FxHashMap<NodeId, u32> {
    let mut dist = FxHashMap::default();
    dist.insert(src, 0);
    let mut q = std::collections::VecDeque::from([src]);
    while let Some(v) = q.pop_front() {
        let d = dist[&v];
        for e in graph.neighbors(v) {
            dist.entry(e.to).or_insert_with(|| {
                q.push_back(e.to);
                d + 1
            });
        }
    }
    dist
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lemma 1: `G*` has the smallest depth over all common ancestor
    /// graphs — i.e. its depth equals min over roots of max label→root
    /// distance (verified against brute-force BFS).
    #[test]
    fn lcag_depth_is_optimal(
        n in 3usize..24,
        extra in prop::collection::vec((0usize..24, 0usize..24), 0..12),
        picks in prop::collection::vec(0usize..24, 2..5),
    ) {
        let g = random_graph(n, &extra);
        let labels: Vec<String> = {
            let mut v: Vec<usize> = picks.iter().map(|p| p % n).collect();
            v.sort_unstable();
            v.dedup();
            v.into_iter().map(|i| format!("n{i}")).collect()
        };
        prop_assume!(labels.len() >= 2);
        let idx = LabelIndex::build(&g);
        let e = find_lcag(&g, &idx, &labels, &SearchConfig::default()).unwrap();

        // Brute force: per label BFS, min over roots of max distance.
        let dists: Vec<FxHashMap<NodeId, u32>> = labels
            .iter()
            .map(|l| bfs(&g, *idx.exact(l).first().expect("label resolves")))
            .collect();
        let best = g
            .nodes()
            .map(|r| dists.iter().map(|d| d[&r]).max().unwrap())
            .min()
            .unwrap();
        prop_assert_eq!(e.depth(), best, "depth not optimal");
    }

    /// The full compactness key of `G*` is lexicographically minimal over
    /// all roots (Definition 5 exactness, not just depth).
    #[test]
    fn lcag_key_is_lexicographically_minimal(
        n in 3usize..20,
        extra in prop::collection::vec((0usize..20, 0usize..20), 0..10),
        picks in prop::collection::vec(0usize..20, 2..4),
    ) {
        let g = random_graph(n, &extra);
        let labels: Vec<String> = {
            let mut v: Vec<usize> = picks.iter().map(|p| p % n).collect();
            v.sort_unstable();
            v.dedup();
            v.into_iter().map(|i| format!("n{i}")).collect()
        };
        prop_assume!(labels.len() >= 2);
        let idx = LabelIndex::build(&g);
        let e = find_lcag(&g, &idx, &labels, &SearchConfig::default()).unwrap();
        let got = e.compactness_key();

        let dists: Vec<FxHashMap<NodeId, u32>> = labels
            .iter()
            .map(|l| bfs(&g, *idx.exact(l).first().expect("label resolves")))
            .collect();
        for r in g.nodes() {
            let mut key: Vec<u32> = dists.iter().map(|d| d[&r]).collect();
            key.sort_unstable_by(|a, b| b.cmp(a));
            prop_assert_ne!(
                compactness_cmp(&key, &got),
                std::cmp::Ordering::Less,
                "root {:?} strictly more compact than returned G*", r
            );
        }
    }

    /// Lemma 2: any two nodes of `G*` are within `2·d(G*)` of each other.
    #[test]
    fn lemma2_bound_holds(
        n in 3usize..20,
        extra in prop::collection::vec((0usize..20, 0usize..20), 0..10),
        picks in prop::collection::vec(0usize..20, 2..4),
    ) {
        let g = random_graph(n, &extra);
        let labels: Vec<String> = {
            let mut v: Vec<usize> = picks.iter().map(|p| p % n).collect();
            v.sort_unstable();
            v.dedup();
            v.into_iter().map(|i| format!("n{i}")).collect()
        };
        prop_assume!(labels.len() >= 2);
        let idx = LabelIndex::build(&g);
        let e = find_lcag(&g, &idx, &labels, &SearchConfig::default()).unwrap();
        let bound = 2 * e.depth();
        for &a in &e.nodes {
            let d = bfs(&g, a);
            for &b in &e.nodes {
                prop_assert!(d[&b] <= bound);
            }
        }
    }

    /// The tree embedding is always a sub-structure: no more nodes than
    /// `G*` for the same label set, and at most |nodes|-1 edges.
    #[test]
    fn tree_is_never_wider_than_lcag(
        n in 3usize..20,
        extra in prop::collection::vec((0usize..20, 0usize..20), 0..10),
        picks in prop::collection::vec(0usize..20, 2..4),
    ) {
        let g = random_graph(n, &extra);
        let labels: Vec<String> = {
            let mut v: Vec<usize> = picks.iter().map(|p| p % n).collect();
            v.sort_unstable();
            v.dedup();
            v.into_iter().map(|i| format!("n{i}")).collect()
        };
        prop_assume!(labels.len() >= 2);
        let idx = LabelIndex::build(&g);
        let cfg = SearchConfig::default();
        let tree = find_tree_embedding(&g, &idx, &labels, &cfg).unwrap();
        prop_assert!(tree.edges.len() <= tree.nodes.len().saturating_sub(1));
        // Tree sum-of-distances <= LCAG sum (star root minimizes sum).
        let lcag = find_lcag(&g, &idx, &labels, &cfg).unwrap();
        let tsum: u32 = tree.distances.iter().sum();
        let lsum: u32 = lcag.distances.iter().sum();
        prop_assert!(tsum <= lsum, "tree sum {tsum} > lcag sum {lsum}");
    }

    /// Embedding edges always step exactly one unit of label-distance
    /// toward the root, so every edge lies on a genuine shortest path.
    #[test]
    fn lcag_edges_lie_on_shortest_paths(
        n in 3usize..20,
        extra in prop::collection::vec((0usize..20, 0usize..20), 0..10),
        picks in prop::collection::vec(0usize..20, 2..4),
    ) {
        let g = random_graph(n, &extra);
        let labels: Vec<String> = {
            let mut v: Vec<usize> = picks.iter().map(|p| p % n).collect();
            v.sort_unstable();
            v.dedup();
            v.into_iter().map(|i| format!("n{i}")).collect()
        };
        prop_assume!(labels.len() >= 2);
        let idx = LabelIndex::build(&g);
        let e = find_lcag(&g, &idx, &labels, &SearchConfig::default()).unwrap();
        let root_dist = bfs(&g, e.root);
        for edge in &e.edges {
            // Edges are oriented entity→root, so `to` is strictly closer
            // to the root than `from`.
            prop_assert!(root_dist[&edge.to] < root_dist[&edge.from]);
            prop_assert_eq!(root_dist[&edge.from] - root_dist[&edge.to], 1);
        }
    }
}
