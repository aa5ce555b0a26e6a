//! The one NE search behind both embedding models (Algorithms 1–3 of the
//! paper).
//!
//! For entity labels `L = {l_1, …, l_m}` the search runs one multi-source
//! Dijkstra frontier per label (`F_i`, a distance min-priority queue). The
//! *PathEnumeration* procedure always advances the globally smallest
//! frontier (Equation 2), guaranteeing monotonically non-decreasing
//! enumeration distances (Lemma 3). *CandidateCollection* offers a node as
//! a candidate root once every label's search has settled it. A root rule
//! keeps the best candidate; the search stops as soon as no unseen root
//! can beat it, and the chosen root is then expanded by walking each
//! frontier's predecessors back to the label's sources.
//!
//! The two models differ only in the root rule and in how many
//! predecessors a frontier keeps:
//! - `G*` ([`find_lcag`]) picks the root that is minimal under
//!   Definition 4. Its frontiers keep *all* tight predecessors, so the
//!   root expands into the full shortest-path DAG `∪_i P(l_i → r, D)` —
//!   the multi-path "width" that distinguishes `G*` from tree models.
//!   [`SearchConfig::single_path`] keeps one.
//! - TreeEmb ([`crate::find_tree_embedding`]) picks the root with the
//!   lowest distance sum and keeps one predecessor, so each label
//!   contributes exactly one shortest path.
//!
//! **Stop.** A label that has not settled a node `r` will reach it at no
//! less than its frontier head (Lemma 3), so `b_i(r)` — `r`'s settled
//! distance if label `i` settled it, else `head_i` (∞ once `F_i` is
//! exhausted) — bounds `r`'s future distance vector from below, component
//! by component. The search stops once the root rule excludes the heads
//! vector (every node no label has settled) and `b(r)` of every partially
//! settled `r`. For `G*` that is the exact Definition-4 bound, which
//! subsumes `C_1 ∧ C_2` of lines 11–13; DESIGN.md §6m has the proof that
//! the answer is unchanged.
//!
//! **State.** Search state is dense: a thread-local array numbers the
//! nodes a search touches (4 bytes per graph node per thread, reset
//! through the touched list, so a search costs O(visited)), and each
//! frontier keeps its distances, settled flags and predecessors in a
//! `Vec` indexed by that local number. The thread keeps these buffers
//! between searches, so they are allocated per thread, not per search.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use newslink_kg::{KnowledgeGraph, LabelIndex, NodeId};

use crate::model::{compactness_cmp, CommonAncestorGraph, EmbedEdge};

/// Tuning knobs for the NE search.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Upper bound on total settled nodes across all frontiers (the paper's
    /// `while Not Timeout` guard, expressed deterministically). The search
    /// stops earlier once its answer is proved, and a binding budget cuts
    /// the same settle sequence, so any budget at or above an unlimited
    /// run's settle count returns that run's answer.
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

/// The distance of a node a frontier has not reached, and the head of an
/// exhausted frontier.
const INF: u32 = u32::MAX;

/// The nodes one search has touched, numbered densely in first-touch
/// order.
#[derive(Default)]
struct Locals {
    /// `NodeId` → local number; `INF` for every node no search holds.
    of: Vec<u32>,
    /// Local number → node; also the list the reset walks.
    nodes: Vec<NodeId>,
    /// Local number → how many labels have settled the node.
    settled_by: Vec<u32>,
}

impl Locals {
    /// `v`'s local number, assigning the next one on first touch.
    fn local(&mut self, v: NodeId) -> usize {
        let l = &mut self.of[v.0 as usize];
        if *l == INF {
            *l = self.nodes.len() as u32;
            self.nodes.push(v);
            self.settled_by.push(0);
        }
        *l as usize
    }
}

/// The search state a thread keeps between searches: the node → local
/// array, grown to the largest graph searched, and the buffers of the
/// largest search so far, so a search allocates only to outgrow them.
#[derive(Default)]
struct Pool {
    locals: Locals,
    /// One frontier per label of the widest search so far; a search
    /// uses the first `m`.
    frontiers: Vec<Frontier>,
}

thread_local! {
    static POOL: Cell<Pool> = const {
        Cell::new(Pool {
            locals: Locals { of: Vec::new(), nodes: Vec::new(), settled_by: Vec::new() },
            frontiers: Vec::new(),
        })
    };
}

/// The thread's pool, taken for one search.
struct Taken(Pool);

impl Taken {
    fn new(node_count: usize, labels: usize) -> Self {
        let mut pool = POOL.take();
        if pool.locals.of.len() < node_count {
            pool.locals.of.resize(node_count, INF);
        }
        pool.frontiers.resize_with(pool.frontiers.len().max(labels), Frontier::default);
        Self(pool)
    }
}

impl Drop for Taken {
    /// Every way out of a search — an answer, an error, a panic — resets
    /// exactly the entries the search set and hands the pool back.
    fn drop(&mut self) {
        let mut pool = std::mem::take(&mut self.0);
        for v in pool.locals.nodes.drain(..) {
            pool.locals.of[v.0 as usize] = INF;
        }
        pool.locals.settled_by.clear();
        for f in &mut pool.frontiers {
            f.clear();
        }
        // Nothing to hand back to while the thread is being torn down.
        let _ = POOL.try_with(|cell| cell.set(pool));
    }
}

/// One label's state of one node.
#[derive(Clone, Copy)]
struct Slot {
    /// Tentative distance, final once `settled`; `INF` when unreached.
    dist: u32,
    settled: bool,
    /// The edge that set `dist` (none for a source).
    pred: Option<EmbedEdge>,
    /// The most recent further tight predecessor in the frontier's
    /// `ties` list, `INF` for none.
    tie: u32,
}

const UNREACHED: Slot = Slot { dist: INF, settled: false, pred: None, tie: INF };

/// One label's Dijkstra frontier (`F_i`).
#[derive(Default)]
struct Frontier {
    /// Indexed by local number; locals past the end are unreached.
    slots: Vec<Slot>,
    /// Lazy-deletion queue ordered by `(distance, NodeId)`; the local
    /// number rides along and, being a function of the node, never
    /// decides the order.
    heap: BinaryHeap<Reverse<(u32, NodeId, usize)>>,
    /// Further tight predecessor edges, kept only in all-predecessors
    /// mode: each links to the same node's previous one, and a slot's
    /// `tie` heads its list (a shorter distance just drops the head).
    ties: Vec<(EmbedEdge, u32)>,
    all_preds: bool,
}

impl Frontier {
    /// Start an empty frontier at `sources`.
    fn seed(&mut self, sources: &[NodeId], locals: &mut Locals, all_preds: bool) {
        self.all_preds = all_preds;
        for &s in sources {
            let l = locals.local(s);
            self.slot_mut(l).dist = 0;
            self.heap.push(Reverse((0, s, l)));
        }
    }

    /// Empty the frontier, keeping its buffers.
    fn clear(&mut self) {
        self.slots.clear();
        self.heap.clear();
        self.ties.clear();
    }

    fn slot(&self, l: usize) -> Slot {
        self.slots.get(l).copied().unwrap_or(UNREACHED)
    }

    fn slot_mut(&mut self, l: usize) -> &mut Slot {
        if l >= self.slots.len() {
            self.slots.resize(l + 1, UNREACHED);
        }
        &mut self.slots[l]
    }

    /// Current frontier head distance (`INF` when exhausted), skipping
    /// stale (lazy-deleted) entries.
    fn peek(&mut self) -> u32 {
        while let Some(&Reverse((d, _, l))) = self.heap.peek() {
            let s = &self.slots[l];
            if s.settled || s.dist != d {
                self.heap.pop();
            } else {
                return d;
            }
        }
        INF
    }

    /// Settle the head node (after a `peek`) and relax its neighbours
    /// (Algorithm 2 body); returns the node and its local number.
    fn settle(&mut self, graph: &KnowledgeGraph, locals: &mut Locals) -> (NodeId, usize) {
        let Reverse((d, v, lv)) = self.heap.pop().expect("settle follows a successful peek");
        self.slots[lv].settled = true;
        for e in graph.neighbors(v) {
            let nd = d + e.weight;
            let pred = EmbedEdge { from: v, to: e.to, predicate: e.predicate, inverse: e.inverse };
            let l = locals.local(e.to);
            let (all_preds, next_tie) = (self.all_preds, self.ties.len() as u32);
            let slot = self.slot_mut(l);
            if nd > slot.dist {
            } else if nd == slot.dist {
                // A further tight predecessor: preserves path width.
                if all_preds {
                    let prev = std::mem::replace(&mut slot.tie, next_tie);
                    self.ties.push((pred, prev));
                }
            } else if !slot.settled {
                // A shorter distance makes the old ties stale.
                slot.dist = nd;
                slot.pred = Some(pred);
                slot.tie = INF;
                self.heap.push(Reverse((nd, e.to, l)));
            }
        }
        (v, lv)
    }
}

/// How a model chooses its root among the candidates, and what no future
/// root can beat.
pub(crate) trait RootRule {
    /// True when a best candidate exists and no root whose distances are
    /// component-wise at least `bound` can beat it. With `root: None` the
    /// root id is unknown, so only a strictly worse bound excludes; with
    /// `Some(r)` a tie also excludes when `r` loses the tie-break.
    fn excludes(&mut self, bound: &[u32], root: Option<NodeId>) -> bool;
    /// Consider `root`, which every label has settled at `distances`.
    fn offer(&mut self, root: NodeId, distances: &[u32]);
    /// The chosen root and its per-label distances.
    fn best(self) -> Option<(NodeId, Vec<u32>)>;
}

/// Whether `(cmp, root)` against the best `(key, best_root)` is excluded:
/// a worse key, or an equal one that loses the lowest-root-id tie-break.
pub(crate) fn loses(cmp: std::cmp::Ordering, root: Option<NodeId>, best_root: NodeId) -> bool {
    cmp.then(root.map_or(std::cmp::Ordering::Less, |r| r.cmp(&best_root))).is_gt()
}

/// `values` in descending order, in the scratch buffer `buf`: a
/// candidate's Definition-4 key, or a bound on one (sorting preserves
/// component-wise order, so a sorted bound bounds the sorted key).
fn sort_desc<'a>(buf: &'a mut Vec<u32>, values: &[u32]) -> &'a [u32] {
    buf.clear();
    buf.extend_from_slice(values);
    buf.sort_unstable_by(|a, b| b.cmp(a));
    buf
}

/// `G*`'s rule: the candidate minimal under Definition 4 (ties: lowest
/// root id), kept as `(key, root, distances)`; `sorted` is scratch space.
#[derive(Default)]
struct Compactness {
    best: Option<(Vec<u32>, NodeId, Vec<u32>)>,
    sorted: Vec<u32>,
}

impl RootRule for Compactness {
    fn excludes(&mut self, bound: &[u32], root: Option<NodeId>) -> bool {
        let Some((key, best_root, _)) = &self.best else {
            return false;
        };
        loses(compactness_cmp(sort_desc(&mut self.sorted, bound), key), root, *best_root)
    }

    fn offer(&mut self, root: NodeId, distances: &[u32]) {
        let key = sort_desc(&mut self.sorted, distances);
        let better = self
            .best
            .as_ref()
            .is_none_or(|(k, r, _)| compactness_cmp(key, k).then(root.cmp(r)).is_lt());
        if better {
            self.best = Some((key.to_vec(), root, distances.to_vec()));
        }
    }

    fn best(self) -> Option<(NodeId, Vec<u32>)> {
        self.best.map(|(_, root, distances)| (root, distances))
    }
}

#[cfg(test)]
thread_local! {
    /// Nodes settled by the last search on this thread, for the stop tests.
    pub(crate) static SETTLED: Cell<usize> = const { Cell::new(0) };
}

/// The search both models share: resolve `S(l)` per label, advance the
/// frontiers (one predecessor each unless `all_preds`), offer every
/// completed root to `rule`, stop once [`proved`], and materialise the
/// root the rule chose.
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
    let mut taken = Taken::new(graph.node_count(), labels.len());
    let Pool { locals, frontiers } = &mut taken.0;
    let frontiers = &mut frontiers[..labels.len()];
    for (l, f) in labels.iter().zip(frontiers.iter_mut()) {
        let mut sources = index.candidates(graph, l);
        if sources.is_empty() {
            return Err(EmbedError::NoSources(l.clone()));
        }
        sources.truncate(config.max_sources_per_label);
        f.seed(&sources, locals, all_preds);
    }

    let m = labels.len() as u32;
    let mut heads = vec![INF; labels.len()];
    // Scratch for a partial node's bound and a completed root's distances.
    let mut scratch = vec![0; labels.len()];
    // Locals settled by at least one label and possibly not by all.
    let mut partial: Vec<usize> = Vec::new();
    let mut settled_total = 0usize;
    loop {
        for (h, f) in heads.iter_mut().zip(frontiers.iter_mut()) {
            *h = f.peek();
        }
        // Equation 2: pick the label whose frontier head is globally
        // smallest (ties: lowest label index, deterministically).
        let (next_dist, li) = heads.iter().copied().zip(0..).min().expect("labels is not empty");
        if next_dist == INF {
            break; // all frontiers exhausted
        }
        if proved(&mut rule, &heads, frontiers, locals, &mut partial, &mut scratch) {
            break;
        }

        // PathEnumeration: settle one node of the chosen frontier.
        let (v, lv) = frontiers[li].settle(graph, locals);
        settled_total += 1;

        // CandidateCollection (Algorithm 3): has every label settled v?
        // Each label settles a node once, so a root completes only once.
        let count = &mut locals.settled_by[lv];
        *count += 1;
        if *count == m {
            for (d, f) in scratch.iter_mut().zip(frontiers.iter()) {
                *d = f.slots[lv].dist;
            }
            rule.offer(v, &scratch);
        } else if *count == 1 {
            partial.push(lv);
        }

        // Budget guard (the paper's `while Not Timeout`).
        if settled_total >= config.max_settled {
            break;
        }
    }
    #[cfg(test)]
    SETTLED.with(|c| c.set(settled_total));

    let (root, distances) = rule.best().ok_or(EmbedError::NoCommonAncestor)?;
    Ok(materialize(labels, frontiers, locals, root, distances))
}

/// True once no unseen root can beat `rule`'s best candidate: the rule
/// excludes the `heads` bound, and the bound `b(r)` of every partially
/// settled node `r` (its settled distance for each label that settled
/// it, that label's head otherwise). An ∞ component means a label can
/// never settle the node.
///
/// Bounds only rise and the best only improves, so an excluded partial
/// node stays excluded: it leaves `partial` for good, as does one that
/// has completed, and the scan stops at the first node still in the
/// running, which is checked first next time.
fn proved(
    rule: &mut impl RootRule,
    heads: &[u32],
    frontiers: &[Frontier],
    locals: &Locals,
    partial: &mut Vec<usize>,
    bound: &mut [u32],
) -> bool {
    if !heads.contains(&INF) && !rule.excludes(heads, None) {
        return false;
    }
    while let Some(&r) = partial.last() {
        if locals.settled_by[r] < frontiers.len() as u32 {
            for ((b, f), &h) in bound.iter_mut().zip(frontiers).zip(heads) {
                let s = f.slot(r);
                *b = if s.settled { s.dist } else { h };
            }
            if !bound.contains(&INF) && !rule.excludes(bound, Some(locals.nodes[r])) {
                return false;
            }
        }
        partial.pop();
    }
    true
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
    locals: &Locals,
    root: NodeId,
    distances: Vec<u32>,
) -> CommonAncestorGraph {
    let mut nodes: Vec<NodeId> = Vec::new();
    let mut edges: Vec<EmbedEdge> = Vec::new();
    let mut sources: Vec<Vec<NodeId>> = Vec::with_capacity(frontiers.len());
    let r = locals.of[root.0 as usize] as usize;
    // The label whose walk last visited each local.
    let mut visited = vec![usize::MAX; locals.nodes.len()];

    for (i, f) in frontiers.iter().enumerate() {
        let mut reached_sources = Vec::new();
        let mut stack = vec![r];
        visited[r] = i;
        while let Some(l) = stack.pop() {
            let v = locals.nodes[l];
            nodes.push(v);
            let slot = f.slots[l];
            if slot.dist == 0 {
                reached_sources.push(v);
            }
            let mut tie = slot.tie;
            let ties = std::iter::from_fn(|| {
                (tie != INF).then(|| {
                    let (p, prev) = f.ties[tie as usize];
                    tie = prev;
                    p
                })
            });
            for p in slot.pred.into_iter().chain(ties) {
                edges.push(p);
                let from = locals.of[p.from.0 as usize] as usize;
                if visited[from] != i {
                    visited[from] = i;
                    stack.push(from);
                }
            }
        }
        reached_sources.sort_unstable();
        sources.push(reached_sources);
    }

    nodes.sort_unstable();
    nodes.dedup();
    edges.sort_unstable_by_key(|e| (e.from, e.to, e.predicate, e.inverse));
    edges.dedup();

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
pub(crate) mod tests {
    use super::*;
    use crate::ne_oracle::{assert_same, entity_pool, lcag, tree, Found};
    use newslink_kg::{synth, EntityType, GraphBuilder, SynthConfig};
    use newslink_util::FxHashMap;

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

    /// `Alpha` and `Bravo` joined by one edge, each with five leaves of
    /// its own (`X1`–`X5` on `Alpha`, `Y1`–`Y5` on `Bravo`); `alpha_first`
    /// gives `Alpha` the lower id.
    pub(crate) fn two_hubs(alpha_first: bool) -> (KnowledgeGraph, LabelIndex, NodeId, NodeId) {
        let mut b = GraphBuilder::new();
        let (alpha, bravo) = if alpha_first {
            let a = b.add_node("Alpha", EntityType::Gpe);
            (a, b.add_node("Bravo", EntityType::Gpe))
        } else {
            let v = b.add_node("Bravo", EntityType::Gpe);
            (b.add_node("Alpha", EntityType::Gpe), v)
        };
        b.add_edge(alpha, bravo, "p", 1);
        for i in 1..=5 {
            let x = b.add_node(&format!("X{i}"), EntityType::Gpe);
            b.add_edge(x, alpha, "p", 1);
        }
        for i in 1..=5 {
            let y = b.add_node(&format!("Y{i}"), EntityType::Gpe);
            b.add_edge(y, bravo, "p", 1);
        }
        let g = b.freeze();
        let idx = LabelIndex::build(&g);
        (g, idx, alpha, bravo)
    }

    /// `C_1 ∧ C_2` (lines 11–13 of Algorithm 1) as a root rule: stop once
    /// the smallest head exceeds the best candidate's depth. Partial
    /// nodes never hold it up. (Faithful while no frontier is exhausted.)
    #[derive(Default)]
    struct DepthStop(Compactness);

    impl RootRule for DepthStop {
        fn excludes(&mut self, bound: &[u32], root: Option<NodeId>) -> bool {
            let min_head = bound.iter().copied().min().unwrap_or(INF);
            root.is_some() || self.0.best.as_ref().is_some_and(|(key, _, _)| key[0] < min_head)
        }

        fn offer(&mut self, root: NodeId, distances: &[u32]) {
            self.0.offer(root, distances);
        }

        fn best(self) -> Option<(NodeId, Vec<u32>)> {
            self.0.best()
        }
    }

    /// Run `search` and return its answer with the number of nodes it
    /// settled.
    pub(crate) fn settled(run: impl FnOnce() -> Found) -> (Found, usize) {
        let found = run();
        (found, SETTLED.with(Cell::get))
    }

    #[test]
    fn exact_stop_settles_fewer_nodes_than_c1_c2() {
        let (g, idx, _, bravo) = two_hubs(false);
        let l = labels(&["alpha", "bravo"]);
        let config = SearchConfig::default();
        let (exact, exact_settled) = settled(|| find_lcag(&g, &idx, &l, &config));
        let (depth, depth_settled) =
            settled(|| search(&g, &idx, &l, &config, true, DepthStop::default()));
        // Alpha, Bravo, then Bravo for `alpha` completes root Bravo with key
        // {1, 0}. The heads {1, 1} and the partial Alpha ({1, 0}, higher id)
        // are excluded at once; C1 ∧ C2 waits until both heads pass depth 1,
        // settling every distance-1 node of both labels: five leaves each
        // and Alpha for `bravo`.
        assert_eq!(exact_settled, 3);
        assert_eq!(depth_settled, 14);
        assert_eq!(exact.as_ref().unwrap().root, bravo);
        assert_same("exact vs C1 ∧ C2", &exact, &depth);
        assert_same("exact vs oracle", &exact, &lcag::find_lcag(&g, &idx, &l, &config));
    }

    #[test]
    fn exact_stop_waits_for_a_lower_root_that_ties() {
        let (g, idx, alpha, bravo) = two_hubs(true);
        let l = labels(&["alpha", "bravo"]);
        let config = SearchConfig::default();
        // After three settles Bravo is the best root, key {1, 0}, and the
        // heads {1, 1} are beaten; but Alpha, settled by `alpha` only, is
        // bounded by {1, 0} too and has the lower id.
        let cut = SearchConfig { max_settled: 3, ..config.clone() };
        assert_eq!(find_lcag(&g, &idx, &l, &cut).unwrap().root, bravo);
        // So the search runs on (`alpha` settles its five leaves first,
        // Equation 2's lowest label index) until `bravo` settles Alpha.
        let (found, n) = settled(|| find_lcag(&g, &idx, &l, &config));
        assert_eq!(n, 9);
        assert_eq!(found.as_ref().unwrap().root, alpha);
        assert_eq!(found.as_ref().unwrap().compactness_key(), vec![1, 0]);
        assert_same("tie", &found, &lcag::find_lcag(&g, &idx, &l, &config));
    }

    /// One thread, three graphs: the dense search state must come back
    /// clean from every exit, so every answer equals the oracle's. A
    /// skipped reset leaves stale local numbers on low node ids, which
    /// both graphs use.
    #[test]
    fn search_state_is_clean_after_every_exit() {
        let world = synth::generate(&SynthConfig::scaled(7, 10_000));
        let big = (&world.graph, LabelIndex::build(&world.graph));
        let (fig_graph, fig_index) = figure1();
        let fig = (&fig_graph, fig_index);
        let label = |g: &KnowledgeGraph, id: u32| g.label(NodeId(id)).to_string();
        let pool = entity_pool(&world);
        let mut world_groups: Vec<Vec<String>> =
            (0..7).map(|id| vec![label(big.0, id), label(big.0, id + 7)]).collect();
        world_groups.extend(pool.chunks(3).step_by(97).map(|c| {
            c.iter().map(|&n| big.0.label(n).to_string()).collect()
        }));
        let fig_groups = [
            labels(&["upper dir", "swat valley", "pakistan", "taliban"]),
            labels(&["taliban", "pakistan"]),
            labels(&["kunar"]),
        ];
        let unlimited = SearchConfig::default();
        let one_settle = SearchConfig { max_settled: 1, ..SearchConfig::default() };
        let check = |(g, idx): &(&KnowledgeGraph, LabelIndex), l: &[String], config| {
            let what = format!("{l:?} under {config:?}");
            assert_same(
                &format!("G* of {what}"),
                &find_lcag(g, idx, l, config),
                &lcag::find_lcag(g, idx, l, config),
            );
            assert_same(
                &format!("TreeEmb of {what}"),
                &crate::find_tree_embedding(g, idx, l, config),
                &tree::find_tree_embedding(g, idx, l, config),
            );
        };
        for round in 0..2 {
            for l in &world_groups {
                check(&big, l, &unlimited);
            }
            // NoSources on the second label, after the first label's
            // frontier (low ids) is seeded.
            let missing = vec![label(big.0, 3), "no such entity".to_string()];
            assert_eq!(
                find_lcag(big.0, &big.1, &missing, &unlimited).unwrap_err(),
                EmbedError::NoSources("no such entity".to_string())
            );
            check(&big, &missing, &unlimited);
            // NoCommonAncestor: one settle cannot complete a root.
            let pair = vec![label(big.0, 2), label(big.0, 5)];
            assert_eq!(
                find_lcag(big.0, &big.1, &pair, &one_settle).unwrap_err(),
                EmbedError::NoCommonAncestor
            );
            if round == 0 {
                for l in &fig_groups {
                    check(&fig, l, &unlimited);
                }
                check(&fig, &labels(&["taliban", "pakistan"]), &one_settle);
                check(&fig, &labels(&["pakistan", "atlantis"]), &unlimited);
            }
        }
    }
}
