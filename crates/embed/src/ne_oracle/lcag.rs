//! The pre-merge `G*` search (`LabelSearch`), verbatim.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use newslink_kg::{KnowledgeGraph, LabelIndex, NodeId, Symbol};
use newslink_util::{FxHashMap, FxHashSet};

use crate::algo::{EmbedError, SearchConfig};
use crate::model::{compactness_cmp, CommonAncestorGraph, EmbedEdge};

/// A tight-predecessor record: the traversal reached the owning node from
/// `from` over `predicate`.
#[derive(Debug, Clone, Copy)]
struct Pred {
    from: NodeId,
    predicate: Symbol,
    inverse: bool,
}

/// One label's Dijkstra frontier (`F_i`).
struct LabelSearch {
    dist: FxHashMap<NodeId, u32>,
    settled: FxHashMap<NodeId, u32>,
    heap: BinaryHeap<Reverse<(u32, NodeId)>>,
    preds: FxHashMap<NodeId, Vec<Pred>>,
}

impl LabelSearch {
    fn new(sources: Vec<NodeId>) -> Self {
        let mut dist = FxHashMap::default();
        let mut heap = BinaryHeap::new();
        for &s in &sources {
            dist.insert(s, 0);
            heap.push(Reverse((0, s)));
        }
        Self {
            dist,
            settled: FxHashMap::default(),
            heap,
            preds: FxHashMap::default(),
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
    fn settle(&mut self, graph: &KnowledgeGraph) -> Option<(NodeId, u32)> {
        let Reverse((d, v)) = self.heap.pop()?;
        debug_assert!(!self.settled.contains_key(&v));
        self.settled.insert(v, d);
        for e in graph.neighbors(v) {
            let nd = d + e.weight;
            match self.dist.get(&e.to) {
                Some(&old) if nd > old => {}
                Some(&old) if nd == old => {
                    // A second tight predecessor: preserves path width.
                    self.preds.entry(e.to).or_default().push(Pred {
                        from: v,
                        predicate: e.predicate,
                        inverse: e.inverse,
                    });
                }
                _ => {
                    if self.settled.contains_key(&e.to) {
                        continue; // already final (can happen only if nd >= settled dist)
                    }
                    self.dist.insert(e.to, nd);
                    let preds = self.preds.entry(e.to).or_default();
                    preds.clear();
                    preds.push(Pred {
                        from: v,
                        predicate: e.predicate,
                        inverse: e.inverse,
                    });
                    self.heap.push(Reverse((nd, e.to)));
                }
            }
        }
        Some((v, d))
    }
}

/// A collected candidate root with its compactness key.
struct Candidate {
    root: NodeId,
    key: Vec<u32>,
    distances: Vec<u32>,
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
    if labels.is_empty() {
        return Err(EmbedError::EmptyLabelSet);
    }
    let mut searches = Vec::with_capacity(labels.len());
    for l in labels {
        let mut sources = index.candidates(graph, l);
        if sources.is_empty() {
            return Err(EmbedError::NoSources(l.clone()));
        }
        sources.truncate(config.max_sources_per_label);
        searches.push(LabelSearch::new(sources));
    }

    let mut settled_total = 0usize;
    // The most compact candidate so far (Definition 4; ties: lowest root
    // id). Its depth `key[0]` is the smallest collected depth, because
    // the compactness order compares depths first.
    let mut best: Option<Candidate> = None;

    loop {
        // Equation 2: pick the label whose frontier head is globally
        // smallest (ties: lowest label index, deterministically).
        let mut head: Option<(u32, usize)> = None;
        for (i, s) in searches.iter_mut().enumerate() {
            if let Some(d) = s.peek() {
                if head.is_none_or(|(hd, _)| d < hd) {
                    head = Some((d, i));
                }
            }
        }
        let Some((next_dist, li)) = head else {
            break; // all frontiers exhausted
        };

        // Termination test C1 ∧ C2 (lines 11–13 of Algorithm 1): a
        // candidate exists and the next frontier distance exceeds its
        // depth, so by Lemma 3 no unseen root can be more compact.
        if best.as_ref().is_some_and(|b| b.key[0] < next_dist) {
            break;
        }

        // PathEnumeration: settle one node of the chosen frontier.
        let Some((v_f, _)) = searches[li].settle(graph) else {
            continue;
        };
        settled_total += 1;

        // CandidateCollection (Algorithm 3): has every label settled v_f?
        // Each label settles a node once, so a root completes only once.
        let distances: Option<Vec<u32>> =
            searches.iter().map(|s| s.settled.get(&v_f).copied()).collect();
        if let Some(distances) = distances {
            let mut key = distances.clone();
            key.sort_unstable_by(|a, b| b.cmp(a));
            let candidate = Candidate {
                root: v_f,
                key,
                distances,
            };
            // Compactness sorting, one candidate at a time.
            let better = best.as_ref().is_none_or(|b| {
                compactness_cmp(&candidate.key, &b.key)
                    .then(candidate.root.cmp(&b.root))
                    .is_lt()
            });
            if better {
                best = Some(candidate);
            }
        }

        // Budget guard (the paper's `while Not Timeout`).
        if settled_total >= config.max_settled {
            break;
        }
    }

    let best = best.ok_or(EmbedError::NoCommonAncestor)?;
    Ok(materialize(labels, &searches, best, config.single_path))
}

/// Expand the chosen root into `∪_i P(l_i → r, D)` by walking each label's
/// tight-predecessor DAG backwards from the root.
fn materialize(
    labels: &[String],
    searches: &[LabelSearch],
    best: Candidate,
    single_path: bool,
) -> CommonAncestorGraph {
    let mut nodes: FxHashSet<NodeId> = FxHashSet::default();
    let mut edges: FxHashSet<EmbedEdge> = FxHashSet::default();
    let mut sources: Vec<Vec<NodeId>> = Vec::with_capacity(searches.len());
    nodes.insert(best.root);

    for s in searches {
        let mut reached_sources = Vec::new();
        let mut visited: FxHashSet<NodeId> = FxHashSet::default();
        let mut stack = vec![best.root];
        visited.insert(best.root);
        while let Some(v) = stack.pop() {
            nodes.insert(v);
            if s.dist.get(&v) == Some(&0) {
                reached_sources.push(v);
            }
            if let Some(preds) = s.preds.get(&v) {
                let dv = s.settled.get(&v).copied().unwrap_or(u32::MAX);
                let mut taken = 0usize;
                for p in preds {
                    // Only tight predecessors on *final* shortest paths: the
                    // predecessor's settled distance must step down exactly.
                    let Some(&du) = s.settled.get(&p.from) else {
                        continue;
                    };
                    if du >= dv {
                        continue;
                    }
                    if single_path && taken == 1 {
                        break;
                    }
                    taken += 1;
                    edges.insert(EmbedEdge {
                        from: p.from,
                        to: v,
                        predicate: p.predicate,
                        inverse: p.inverse,
                    });
                    if visited.insert(p.from) {
                        stack.push(p.from);
                    }
                }
            }
        }
        reached_sources.sort_unstable();
        reached_sources.dedup();
        sources.push(reached_sources);
    }

    let mut nodes: Vec<NodeId> = nodes.into_iter().collect();
    nodes.sort_unstable();
    let mut edges: Vec<EmbedEdge> = edges.into_iter().collect();
    edges.sort_unstable_by_key(|e| (e.from, e.to, e.predicate, e.inverse));

    CommonAncestorGraph {
        root: best.root,
        labels: labels.to_vec(),
        distances: best.distances,
        nodes,
        edges,
        sources,
    }
}
