//! The pre-merge TreeEmb search (`TreeSearch`), verbatim.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use newslink_kg::{KnowledgeGraph, LabelIndex, NodeId, Symbol};
use newslink_util::{FxHashMap, FxHashSet};

use crate::algo::{EmbedError, SearchConfig};
use crate::model::{CommonAncestorGraph, EmbedEdge};

/// A single-predecessor Dijkstra for one label.
struct TreeSearch {
    dist: FxHashMap<NodeId, u32>,
    settled: FxHashMap<NodeId, u32>,
    heap: BinaryHeap<Reverse<(u32, NodeId)>>,
    pred: FxHashMap<NodeId, (NodeId, Symbol, bool)>,
}

impl TreeSearch {
    fn new(sources: &[NodeId]) -> Self {
        let mut dist = FxHashMap::default();
        let mut heap = BinaryHeap::new();
        for &s in sources {
            dist.insert(s, 0);
            heap.push(Reverse((0, s)));
        }
        Self {
            dist,
            settled: FxHashMap::default(),
            heap,
            pred: FxHashMap::default(),
        }
    }

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

    fn settle(&mut self, graph: &KnowledgeGraph) -> Option<(NodeId, u32)> {
        let Reverse((d, v)) = self.heap.pop()?;
        self.settled.insert(v, d);
        for e in graph.neighbors(v) {
            let nd = d + e.weight;
            let better = match self.dist.get(&e.to) {
                Some(&old) => nd < old,
                None => true,
            };
            if better && !self.settled.contains_key(&e.to) {
                self.dist.insert(e.to, nd);
                self.pred.insert(e.to, (v, e.predicate, e.inverse));
                self.heap.push(Reverse((nd, e.to)));
            }
        }
        Some((v, d))
    }
}

/// Find the TreeEmb embedding for `labels`: the best-sum star root with one
/// shortest path per label.
pub fn find_tree_embedding(
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
        searches.push(TreeSearch::new(&sources));
    }

    let mut best: Option<(u64, NodeId, Vec<u32>)> = None;
    let mut settled_total = 0usize;
    loop {
        let mut head: Option<(u32, usize)> = None;
        for (i, s) in searches.iter_mut().enumerate() {
            if let Some(d) = s.peek() {
                if head.is_none_or(|(hd, _)| d < hd) {
                    head = Some((d, i));
                }
            }
        }
        let Some((next_dist, li)) = head else { break };
        // A future candidate's sum is at least the next frontier distance;
        // stop once that cannot beat the best sum found.
        if let Some((best_sum, _, _)) = best {
            if u64::from(next_dist) > best_sum {
                break;
            }
        }
        let Some((v, _)) = searches[li].settle(graph) else {
            continue;
        };
        settled_total += 1;
        // Candidate when all labels have settled v.
        let mut sum = 0u64;
        let mut distances = Vec::with_capacity(searches.len());
        let mut complete = true;
        for s in &searches {
            match s.settled.get(&v) {
                Some(&d) => {
                    sum += u64::from(d);
                    distances.push(d);
                }
                None => {
                    complete = false;
                    break;
                }
            }
        }
        if complete {
            let better = match &best {
                Some((bs, br, _)) => sum < *bs || (sum == *bs && v < *br),
                None => true,
            };
            if better {
                best = Some((sum, v, distances));
            }
        }
        if settled_total >= config.max_settled {
            break;
        }
    }

    let (_, root, distances) = best.ok_or(EmbedError::NoCommonAncestor)?;

    // Materialize one shortest path per label by following single preds.
    let mut nodes: FxHashSet<NodeId> = FxHashSet::default();
    let mut edges: FxHashSet<EmbedEdge> = FxHashSet::default();
    let mut sources: Vec<Vec<NodeId>> = Vec::with_capacity(searches.len());
    nodes.insert(root);
    for s in &searches {
        let mut v = root;
        loop {
            nodes.insert(v);
            if s.dist.get(&v) == Some(&0) {
                sources.push(vec![v]);
                break;
            }
            let Some(&(u, predicate, inverse)) = s.pred.get(&v) else {
                // Defensive: broken chain (cannot happen for settled roots).
                sources.push(vec![]);
                break;
            };
            edges.insert(EmbedEdge {
                from: u,
                to: v,
                predicate,
                inverse,
            });
            v = u;
        }
    }

    let mut nodes: Vec<NodeId> = nodes.into_iter().collect();
    nodes.sort_unstable();
    let mut edges: Vec<EmbedEdge> = edges.into_iter().collect();
    edges.sort_unstable_by_key(|e| (e.from, e.to, e.predicate, e.inverse));

    Ok(CommonAncestorGraph {
        root,
        labels: labels.to_vec(),
        distances,
        nodes,
        edges,
        sources,
    })
}

