//! The one NE search behind both embedding models (Algorithms 1–3 of the
//! paper).
//!
//! For entity labels `L = {l_1, …, l_m}` the search runs one multi-source
//! Dijkstra frontier per label (`F_i`, a distance min-priority queue). The
//! *PathEnumeration* procedure always advances the globally smallest
//! frontier (Equation 2), guaranteeing monotonically non-decreasing
//! enumeration distances (Lemma 3). *CandidateCollection* offers a node as
//! a candidate root once every label's search has settled it. A root rule
//! keeps the best candidate and decides when no unseen root can beat it;
//! the chosen root is then expanded by walking each frontier's
//! predecessors back to the label's sources.
//!
//! The two models differ only in the root rule and in how many
//! predecessors a frontier keeps:
//! - `G*` ([`find_lcag`]) picks the root that is minimal under
//!   Definition 4 and stops at `C_1 ∧ C_2`. Its frontiers keep *all*
//!   tight predecessors, so the root expands into the full shortest-path
//!   DAG `∪_i P(l_i → r, D)` — the multi-path "width" that distinguishes
//!   `G*` from tree models. [`SearchConfig::single_path`] keeps one.
//! - TreeEmb ([`crate::find_tree_embedding`]) picks the root with the
//!   lowest distance sum and keeps one predecessor, so each label
//!   contributes exactly one shortest path.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use newslink_kg::{KnowledgeGraph, LabelIndex, NodeId};
use newslink_util::{FxHashMap, FxHashSet};

use crate::model::{compactness_cmp, CommonAncestorGraph, EmbedEdge};

/// Tuning knobs for the NE search.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Upper bound on total settled nodes across all frontiers (the paper's
    /// `while Not Timeout` guard, expressed deterministically).
    pub max_settled: usize,
    /// Cap on `|S(l)|` source nodes per label (highly ambiguous labels).
    pub max_sources_per_label: usize,
    /// Ablation knob: `G*`'s frontiers keep only ONE predecessor per node,
    /// collapsing its multi-path width to single shortest paths (the root
    /// selection stays compactness-optimal). Used by the coverage
    /// ablation bench.
    pub single_path: bool,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            max_settled: 200_000,
            max_sources_per_label: 32,
            single_path: false,
        }
    }
}

/// Why a `G*` could not be produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmbedError {
    /// A label had no matching KG nodes: `S(l)` is empty.
    NoSources(String),
    /// The label set was empty.
    EmptyLabelSet,
    /// The searches exhausted the graph or the budget without any node
    /// being reached by every label.
    NoCommonAncestor,
}

impl std::fmt::Display for EmbedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmbedError::NoSources(l) => write!(f, "label {l:?} matches no KG node"),
            EmbedError::EmptyLabelSet => write!(f, "empty entity label set"),
            EmbedError::NoCommonAncestor => write!(f, "no common ancestor found within budget"),
        }
    }
}

impl std::error::Error for EmbedError {}

/// One label's Dijkstra frontier (`F_i`).
struct Frontier {
    dist: FxHashMap<NodeId, u32>,
    settled: FxHashMap<NodeId, u32>,
    heap: BinaryHeap<Reverse<(u32, NodeId)>>,
    /// The edge that set each reached node's current distance.
    pred: FxHashMap<NodeId, EmbedEdge>,
    /// Further tight predecessor edges, kept only in all-predecessors mode.
    ties: FxHashMap<NodeId, Vec<EmbedEdge>>,
    all_preds: bool,
}

impl Frontier {
    fn new(sources: &[NodeId], all_preds: bool) -> Self {
        Self {
            dist: sources.iter().map(|&s| (s, 0)).collect(),
            settled: FxHashMap::default(),
            heap: sources.iter().map(|&s| Reverse((0, s))).collect(),
            pred: FxHashMap::default(),
            ties: FxHashMap::default(),
            all_preds,
        }
    }

    /// Current frontier head distance, skipping stale (lazy-deleted)
    /// entries.
    fn peek(&mut self) -> Option<u32> {
        while let Some(&Reverse((d, v))) = self.heap.peek() {
            if self.settled.contains_key(&v) || self.dist.get(&v) != Some(&d) {
                self.heap.pop();
            } else {
                return Some(d);
            }
        }
        None
    }

    /// Settle the head node and relax its neighbours (Algorithm 2 body).
    fn settle(&mut self, graph: &KnowledgeGraph) -> Option<NodeId> {
        let Reverse((d, v)) = self.heap.pop()?;
        self.settled.insert(v, d);
        for e in graph.neighbors(v) {
            let nd = d + e.weight;
            let pred = EmbedEdge { from: v, to: e.to, predicate: e.predicate, inverse: e.inverse };
            match self.dist.get(&e.to) {
                Some(&old) if nd > old => {}
                Some(&old) if nd == old => {
                    // A further tight predecessor: preserves path width.
                    if self.all_preds {
                        self.ties.entry(e.to).or_default().push(pred);
                    }
                }
                // Already final (only if nd >= its settled distance).
                _ if self.settled.contains_key(&e.to) => {}
                _ => {
                    // A shorter distance makes the old ties stale.
                    if self.dist.insert(e.to, nd).is_some() && self.all_preds {
                        self.ties.remove(&e.to);
                    }
                    self.pred.insert(e.to, pred);
                    self.heap.push(Reverse((nd, e.to)));
                }
            }
        }
        Some(v)
    }
}

/// How a model chooses its root among the candidates, and when it may
/// stop looking.
pub(crate) trait RootRule {
    /// True once no root settled at `next_dist` or later can beat the
    /// best candidate.
    fn stop(&self, next_dist: u32) -> bool;
    /// Consider `root`, which every label has settled at `distances`.
    fn offer(&mut self, root: NodeId, distances: Vec<u32>);
    /// The chosen root and its per-label distances.
    fn best(self) -> Option<(NodeId, Vec<u32>)>;
}

/// `G*`'s rule: the candidate minimal under Definition 4 (ties: lowest
/// root id), kept as `(key, root, distances)`.
#[derive(Default)]
struct Compactness(Option<(Vec<u32>, NodeId, Vec<u32>)>);

impl RootRule for Compactness {
    /// `C_1 ∧ C_2` (lines 11–13 of Algorithm 1): a candidate exists and
    /// the next frontier distance exceeds its depth `key[0]` — the
    /// smallest collected depth, as the order compares depths first — so
    /// by Lemma 3 no unseen root can be more compact.
    fn stop(&self, next_dist: u32) -> bool {
        self.0.as_ref().is_some_and(|(key, _, _)| key[0] < next_dist)
    }

    fn offer(&mut self, root: NodeId, distances: Vec<u32>) {
        let mut key = distances.clone();
        key.sort_unstable_by(|a, b| b.cmp(a));
        let better = self
            .0
            .as_ref()
            .is_none_or(|(k, r, _)| compactness_cmp(&key, k).then(root.cmp(r)).is_lt());
        if better {
            self.0 = Some((key, root, distances));
        }
    }

    fn best(self) -> Option<(NodeId, Vec<u32>)> {
        self.0.map(|(_, root, distances)| (root, distances))
    }
}

/// The search both models share: resolve `S(l)` per label, advance the
/// frontiers (one predecessor each unless `all_preds`), offer every
/// completed root to `rule`, and materialise the root it chose.
pub(crate) fn search(
    graph: &KnowledgeGraph,
    index: &LabelIndex,
    labels: &[String],
    config: &SearchConfig,
    all_preds: bool,
    mut rule: impl RootRule,
) -> Result<CommonAncestorGraph, EmbedError> {
    if labels.is_empty() {
        return Err(EmbedError::EmptyLabelSet);
    }
    let mut frontiers = Vec::with_capacity(labels.len());
    for l in labels {
        let mut sources = index.candidates(graph, l);
        if sources.is_empty() {
            return Err(EmbedError::NoSources(l.clone()));
        }
        sources.truncate(config.max_sources_per_label);
        frontiers.push(Frontier::new(&sources, all_preds));
    }

    let mut settled_total = 0usize;
    loop {
        // Equation 2: pick the label whose frontier head is globally
        // smallest (ties: lowest label index, deterministically).
        let head = frontiers.iter_mut().enumerate().filter_map(|(i, f)| Some((f.peek()?, i)));
        let Some((next_dist, li)) = head.min() else {
            break; // all frontiers exhausted
        };
        if rule.stop(next_dist) {
            break;
        }

        // PathEnumeration: settle one node of the chosen frontier.
        let Some(v) = frontiers[li].settle(graph) else {
            continue;
        };
        settled_total += 1;

        // CandidateCollection (Algorithm 3): has every label settled v?
        // Each label settles a node once, so a root completes only once.
        if frontiers.iter().all(|f| f.settled.contains_key(&v)) {
            rule.offer(v, frontiers.iter().map(|f| f.settled[&v]).collect());
        }

        // Budget guard (the paper's `while Not Timeout`).
        if settled_total >= config.max_settled {
            break;
        }
    }

    let (root, distances) = rule.best().ok_or(EmbedError::NoCommonAncestor)?;
    Ok(materialize(labels, &frontiers, root, distances))
}

/// Find the Lowest Common Ancestor Graph for `labels` (Algorithm 1).
///
/// `labels` are normalized entity surface forms; sources are resolved
/// through [`LabelIndex::candidates`].
pub fn find_lcag(
    graph: &KnowledgeGraph,
    index: &LabelIndex,
    labels: &[String],
    config: &SearchConfig,
) -> Result<CommonAncestorGraph, EmbedError> {
    search(graph, index, labels, config, !config.single_path, Compactness::default())
}

/// Expand `root` into `∪_i P(l_i → r, D)` by walking each label's
/// predecessors backwards from the root; on a one-predecessor frontier
/// that is one shortest path per label. The walk reaches only settled
/// nodes, and a settled node's recorded predecessors are all settled and
/// tight for its final distance (a shorter distance drops the old ties),
/// so it needs no distance check.
fn materialize(
    labels: &[String],
    frontiers: &[Frontier],
    root: NodeId,
    distances: Vec<u32>,
) -> CommonAncestorGraph {
    let mut nodes: FxHashSet<NodeId> = FxHashSet::default();
    let mut edges: FxHashSet<EmbedEdge> = FxHashSet::default();
    let mut sources: Vec<Vec<NodeId>> = Vec::with_capacity(frontiers.len());

    for f in frontiers {
        let mut reached_sources = Vec::new();
        let mut visited: FxHashSet<NodeId> = FxHashSet::default();
        let mut stack = vec![root];
        visited.insert(root);
        while let Some(v) = stack.pop() {
            nodes.insert(v);
            if f.dist.get(&v) == Some(&0) {
                reached_sources.push(v);
            }
            let ties = f.ties.get(&v).into_iter().flatten();
            for &p in f.pred.get(&v).into_iter().chain(ties) {
                edges.insert(p);
                if visited.insert(p.from) {
                    stack.push(p.from);
                }
            }
        }
        reached_sources.sort_unstable();
        sources.push(reached_sources);
    }

    let mut nodes: Vec<NodeId> = nodes.into_iter().collect();
    nodes.sort_unstable();
    let mut edges: Vec<EmbedEdge> = edges.into_iter().collect();
    edges.sort_unstable_by_key(|e| (e.from, e.to, e.predicate, e.inverse));

    CommonAncestorGraph {
        root,
        labels: labels.to_vec(),
        distances,
        nodes,
        edges,
        sources,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use newslink_kg::{EntityType, GraphBuilder};

    /// The paper's Figure 1 topology (weights 1):
    /// v2 (Taliban) → v1 (Waziristan) → v0 (Khyber)
    /// v2 (Taliban) → v3 (Kunar)      → v0 (Khyber)
    /// v7 (Upper Dir) → v0, v8 (Swat Valley) → v0, v6 (Pakistan) → v0
    fn figure1() -> (KnowledgeGraph, LabelIndex) {
        let mut b = GraphBuilder::new();
        let v0 = b.add_node("Khyber", EntityType::Gpe); // 0
        let v1 = b.add_node("Waziristan", EntityType::Gpe); // 1
        let v2 = b.add_node("Taliban", EntityType::Organization); // 2
        let v3 = b.add_node("Kunar", EntityType::Gpe); // 3
        let v6 = b.add_node("Pakistan", EntityType::Gpe); // 4
        let v7 = b.add_node("Upper Dir", EntityType::Gpe); // 5
        let v8 = b.add_node("Swat Valley", EntityType::Location); // 6
        b.add_edge(v2, v1, "operates in", 1);
        b.add_edge(v2, v3, "operates in", 1);
        b.add_edge(v1, v0, "located in", 1);
        b.add_edge(v3, v0, "shares border with", 1);
        b.add_edge(v7, v0, "located in", 1);
        b.add_edge(v8, v0, "located in", 1);
        b.add_edge(v6, v0, "contains", 1);
        let g = b.freeze();
        let idx = LabelIndex::build(&g);
        (g, idx)
    }

    fn labels(ls: &[&str]) -> Vec<String> {
        ls.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn figure1_query_embedding() {
        let (g, idx) = figure1();
        let l = labels(&["upper dir", "swat valley", "pakistan", "taliban"]);
        let e = find_lcag(&g, &idx, &l, &SearchConfig::default()).unwrap();
        assert_eq!(g.label(e.root), "Khyber");
        let mut key = e.compactness_key();
        key.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(key, vec![2, 1, 1, 1]);
        // Width: BOTH two-hop Taliban paths are retained.
        assert!(e.contains_node(NodeId(1)), "Waziristan path kept");
        assert!(e.contains_node(NodeId(3)), "Kunar path kept");
        assert_eq!(e.depth(), 2);
    }

    #[test]
    fn figure1_edges_are_oriented_toward_root() {
        let (g, idx) = figure1();
        let l = labels(&["taliban", "pakistan"]);
        let e = find_lcag(&g, &idx, &l, &SearchConfig::default()).unwrap();
        // Every non-root node has an outgoing edge chain reaching the root.
        assert!(e.edges.iter().any(|ed| ed.to == e.root));
        for ed in &e.edges {
            assert!(e.contains_node(ed.from));
            assert!(e.contains_node(ed.to));
        }
        let _ = g;
    }

    #[test]
    fn single_label_is_its_own_ancestor() {
        let (g, idx) = figure1();
        let l = labels(&["pakistan"]);
        let e = find_lcag(&g, &idx, &l, &SearchConfig::default()).unwrap();
        assert_eq!(g.label(e.root), "Pakistan");
        assert_eq!(e.depth(), 0);
        assert_eq!(e.nodes.len(), 1);
        assert!(e.edges.is_empty());
    }

    #[test]
    fn missing_label_is_reported() {
        let (g, idx) = figure1();
        let l = labels(&["atlantis"]);
        assert_eq!(
            find_lcag(&g, &idx, &l, &SearchConfig::default()).unwrap_err(),
            EmbedError::NoSources("atlantis".to_string())
        );
    }

    #[test]
    fn empty_label_set_is_reported() {
        let (g, idx) = figure1();
        assert_eq!(
            find_lcag(&g, &idx, &[], &SearchConfig::default()).unwrap_err(),
            EmbedError::EmptyLabelSet
        );
    }

    #[test]
    fn disconnected_labels_have_no_ancestor() {
        let mut b = GraphBuilder::new();
        b.add_node("IslandA", EntityType::Gpe);
        b.add_node("IslandB", EntityType::Gpe);
        let g = b.freeze();
        let idx = LabelIndex::build(&g);
        let l = labels(&["islanda", "islandb"]);
        assert_eq!(
            find_lcag(&g, &idx, &l, &SearchConfig::default()).unwrap_err(),
            EmbedError::NoCommonAncestor
        );
    }

    #[test]
    fn two_entities_meet_in_the_middle() {
        // a - b - c: LCAG of {a, c} may root anywhere with key {1,1}
        // (b) rather than {2,0} (a or c); {1,1} < {2,0}.
        let mut b = GraphBuilder::new();
        let a = b.add_node("Alpha", EntityType::Gpe);
        let mid = b.add_node("Mid", EntityType::Gpe);
        let c = b.add_node("Gamma", EntityType::Gpe);
        b.add_edge(a, mid, "p", 1);
        b.add_edge(mid, c, "p", 1);
        let g = b.freeze();
        let idx = LabelIndex::build(&g);
        let e = find_lcag(&g, &idx, &labels(&["alpha", "gamma"]), &SearchConfig::default())
            .unwrap();
        assert_eq!(e.root, mid);
        assert_eq!(e.compactness_key(), vec![1, 1]);
        let _ = (a, c);
    }

    #[test]
    fn ambiguous_label_uses_closest_source() {
        // Two nodes named "Springfield": one adjacent to "Capital", one far.
        let mut b = GraphBuilder::new();
        let near = b.add_node("Springfield", EntityType::Gpe);
        let far = b.add_node("Springfield", EntityType::Gpe);
        let capital = b.add_node("Capital", EntityType::Gpe);
        let hop = b.add_node("Hop", EntityType::Gpe);
        b.add_edge(near, capital, "p", 1);
        b.add_edge(far, hop, "p", 1);
        b.add_edge(hop, capital, "p", 1);
        let g = b.freeze();
        let idx = LabelIndex::build(&g);
        let e = find_lcag(
            &g,
            &idx,
            &labels(&["springfield", "capital"]),
            &SearchConfig::default(),
        )
        .unwrap();
        // Entity-node distance (Definition 2) is the min over S(l).
        assert_eq!(e.depth(), 1);
        assert!(e.sources[0].contains(&near));
        assert!(!e.sources[0].contains(&far));
    }

    #[test]
    fn weighted_edges_respected() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("A", EntityType::Gpe);
        let c = b.add_node("C", EntityType::Gpe);
        let mid = b.add_node("M", EntityType::Gpe);
        b.add_edge(a, c, "direct", 5);
        b.add_edge(a, mid, "p", 1);
        b.add_edge(mid, c, "p", 1);
        let g = b.freeze();
        let idx = LabelIndex::build(&g);
        let e =
            find_lcag(&g, &idx, &labels(&["a", "c"]), &SearchConfig::default()).unwrap();
        // Shortest A–C route is through M (cost 2), so the best root has
        // key {1,1}; the direct weight-5 edge must not be in the embedding.
        assert_eq!(e.root, mid);
        assert!(!e
            .edges
            .iter()
            .any(|ed| g.resolve(ed.predicate) == "direct"));
    }

    #[test]
    fn budget_exhaustion_still_returns_candidate_if_found() {
        let (g, idx) = figure1();
        let l = labels(&["taliban", "pakistan"]);
        let tight = SearchConfig {
            max_settled: 4,
            ..SearchConfig::default()
        };
        // With a tiny budget we may or may not find the optimum, but we
        // must never panic; either a candidate or NoCommonAncestor.
        match find_lcag(&g, &idx, &l, &tight) {
            Ok(e) => assert!(e.depth() >= 1),
            Err(EmbedError::NoCommonAncestor) => {}
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn single_path_ablation_drops_width() {
        let (g, idx) = figure1();
        let l = labels(&["upper dir", "swat valley", "pakistan", "taliban"]);
        let full = find_lcag(&g, &idx, &l, &SearchConfig::default()).unwrap();
        let narrow = find_lcag(
            &g,
            &idx,
            &l,
            &SearchConfig {
                single_path: true,
                ..SearchConfig::default()
            },
        )
        .unwrap();
        assert_eq!(full.root, narrow.root, "root selection unchanged");
        assert!(narrow.node_count() < full.node_count());
        // Exactly one of the two Taliban mid nodes survives.
        let mids = [NodeId(1), NodeId(3)];
        assert_eq!(
            mids.iter().filter(|n| narrow.contains_node(**n)).count(),
            1
        );
    }

    #[test]
    fn lemma2_pairwise_distance_bound() {
        // Every pair of embedding nodes is within 2·d(G*) in the embedding
        // (via the root), hence also in the graph.
        let (g, idx) = figure1();
        let l = labels(&["upper dir", "swat valley", "pakistan", "taliban"]);
        let e = find_lcag(&g, &idx, &l, &SearchConfig::default()).unwrap();
        let bound = 2 * e.depth();
        // BFS in the bidirected graph between all embedding node pairs.
        for &a in &e.nodes {
            let mut dist: FxHashMap<NodeId, u32> = FxHashMap::default();
            dist.insert(a, 0);
            let mut q = std::collections::VecDeque::from([a]);
            while let Some(v) = q.pop_front() {
                let dv = dist[&v];
                for ed in g.neighbors(v) {
                    dist.entry(ed.to).or_insert_with(|| {
                        q.push_back(ed.to);
                        dv + 1
                    });
                }
            }
            for &bn in &e.nodes {
                assert!(
                    dist[&bn] <= bound,
                    "nodes {a:?},{bn:?} exceed 2·depth bound"
                );
            }
        }
    }
}
