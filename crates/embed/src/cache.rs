//! The embedding cache for the hot `G*` path.
//!
//! Figure 7 of the paper identifies embedding time as the dominant
//! indexing cost, and real corpora repeat entity groups across thousands
//! of documents. [`EmbeddingCache`] memoizes the full
//! `Result<G*, EmbedError>` per `(model, label sequence)`: a recurring
//! entity group skips traversal entirely, and a miss runs the uncached
//! [`find_lcag`] / [`find_tree_embedding`] and stores what it returned.
//! Errors are cached too: a group that cannot embed today cannot embed
//! tomorrow (the graph is frozen and the search is deterministic).
//!
//! Cached ≡ uncached therefore holds by construction, in every
//! configuration: there is one search, behind one hash map.

use std::sync::Arc;

use newslink_kg::{KnowledgeGraph, LabelIndex};
use newslink_util::{CacheStats, ShardedCache};

use crate::algo::{find_lcag, EmbedError, SearchConfig};
use crate::model::CommonAncestorGraph;
use crate::tree::find_tree_embedding;

/// Which subgraph-embedding model the NE component runs. It is also part
/// of the group memo's key: the same labels embed differently under each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CachedModel {
    /// The paper's Lowest Common Ancestor Graph `G*` (all shortest paths,
    /// compactness-order optimal root).
    Lcag,
    /// The TreeEmb baseline of §VII-F (Group-Steiner-Tree star
    /// approximation, one path per label).
    Tree,
}

impl CachedModel {
    /// Embed one entity group under this model, uncached: [`find_lcag`]
    /// or [`find_tree_embedding`].
    pub fn search(
        self,
        graph: &KnowledgeGraph,
        index: &LabelIndex,
        labels: &[String],
        config: &SearchConfig,
    ) -> Result<CommonAncestorGraph, EmbedError> {
        match self {
            CachedModel::Lcag => find_lcag(graph, index, labels, config),
            CachedModel::Tree => find_tree_embedding(graph, index, labels, config),
        }
    }
}

/// Group-memo key: the exact label sequence plus the model.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct GroupKey {
    model: CachedModel,
    labels: Box<[String]>,
}

type GroupResult = Arc<Result<CommonAncestorGraph, EmbedError>>;

/// The group-memo embedding cache. Safe to share across threads (`&self`
/// everywhere); create one per `(graph, SearchConfig)` pair — entries are
/// results for a specific graph under a specific search configuration and
/// must not be reused across either.
#[derive(Debug)]
pub struct EmbeddingCache {
    groups: ShardedCache<GroupKey, GroupResult>,
}

impl EmbeddingCache {
    /// A cache bounded to `group_capacity` memoized groups (zero disables
    /// it). The second argument is ignored: it sized the removed
    /// distance-map tier and stays only because `perf/` compiles against
    /// this signature.
    pub fn new(group_capacity: usize, _distance_capacity: usize) -> Self {
        Self {
            groups: ShardedCache::new(group_capacity),
        }
    }

    /// Embed one entity group under `model`: the memoized result, or on a
    /// miss the uncached [`find_lcag`] / [`find_tree_embedding`], stored.
    pub fn embed_group(
        &self,
        graph: &KnowledgeGraph,
        index: &LabelIndex,
        labels: &[String],
        config: &SearchConfig,
        model: CachedModel,
    ) -> Result<CommonAncestorGraph, EmbedError> {
        let key = GroupKey {
            model,
            labels: labels.to_vec().into_boxed_slice(),
        };
        if let Some(cached) = self.groups.get(&key) {
            return (*cached).clone();
        }
        let result = model.search(graph, index, labels, config);
        self.groups.insert(key, Arc::new(result.clone()));
        result
    }

    /// Group-memo counters.
    pub fn group_stats(&self) -> CacheStats {
        self.groups.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use newslink_kg::{EntityType, GraphBuilder};

    /// The paper's Figure 1 topology (same as `algo::tests::figure1`).
    fn figure1() -> (KnowledgeGraph, LabelIndex) {
        let mut b = GraphBuilder::new();
        let v0 = b.add_node("Khyber", EntityType::Gpe);
        let v1 = b.add_node("Waziristan", EntityType::Gpe);
        let v2 = b.add_node("Taliban", EntityType::Organization);
        let v3 = b.add_node("Kunar", EntityType::Gpe);
        let v6 = b.add_node("Pakistan", EntityType::Gpe);
        let v7 = b.add_node("Upper Dir", EntityType::Gpe);
        let v8 = b.add_node("Swat Valley", EntityType::Location);
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

    fn assert_same_cag(a: &CommonAncestorGraph, b: &CommonAncestorGraph) {
        assert_eq!(a.root, b.root);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.distances, b.distances);
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.sources, b.sources);
    }

    #[test]
    fn cached_lcag_matches_uncached_exactly() {
        let (g, idx) = figure1();
        let cfg = SearchConfig::default();
        let cache = EmbeddingCache::new(64, 64);
        for ls in [
            labels(&["upper dir", "swat valley", "pakistan", "taliban"]),
            labels(&["taliban", "pakistan"]),
            labels(&["pakistan"]),
            labels(&["kunar", "waziristan"]),
        ] {
            let want = find_lcag(&g, &idx, &ls, &cfg).unwrap();
            let cold = cache
                .embed_group(&g, &idx, &ls, &cfg, CachedModel::Lcag)
                .unwrap();
            let warm = cache
                .embed_group(&g, &idx, &ls, &cfg, CachedModel::Lcag)
                .unwrap();
            assert_same_cag(&want, &cold);
            assert_same_cag(&want, &warm);
        }
        let gs = cache.group_stats();
        assert_eq!(gs.hits, 4, "second pass must hit the group memo");
    }

    #[test]
    fn cached_errors_match_and_are_memoized() {
        let (g, idx) = figure1();
        let cfg = SearchConfig::default();
        let cache = EmbeddingCache::new(16, 16);
        assert_eq!(
            cache
                .embed_group(&g, &idx, &labels(&["atlantis"]), &cfg, CachedModel::Lcag)
                .unwrap_err(),
            EmbedError::NoSources("atlantis".to_string())
        );
        assert_eq!(
            cache
                .embed_group(&g, &idx, &[], &cfg, CachedModel::Lcag)
                .unwrap_err(),
            EmbedError::EmptyLabelSet
        );
        // Two islands: no common ancestor, cached as such.
        let mut b = GraphBuilder::new();
        b.add_node("IslandA", EntityType::Gpe);
        b.add_node("IslandB", EntityType::Gpe);
        let g2 = b.freeze();
        let idx2 = LabelIndex::build(&g2);
        let cache2 = EmbeddingCache::new(16, 16);
        for _ in 0..2 {
            assert_eq!(
                cache2
                    .embed_group(
                        &g2,
                        &idx2,
                        &labels(&["islanda", "islandb"]),
                        &cfg,
                        CachedModel::Lcag
                    )
                    .unwrap_err(),
                EmbedError::NoCommonAncestor
            );
        }
        assert_eq!(cache2.group_stats().hits, 1);
    }

    #[test]
    fn tree_embeddings_are_memoized() {
        let (g, idx) = figure1();
        let cfg = SearchConfig::default();
        let cache = EmbeddingCache::new(16, 16);
        let l = labels(&["taliban", "pakistan"]);
        let want = find_tree_embedding(&g, &idx, &l, &cfg).unwrap();
        let cold = cache
            .embed_group(&g, &idx, &l, &cfg, CachedModel::Tree)
            .unwrap();
        let warm = cache
            .embed_group(&g, &idx, &l, &cfg, CachedModel::Tree)
            .unwrap();
        assert_same_cag(&want, &cold);
        assert_same_cag(&want, &warm);
        assert_eq!(cache.group_stats().hits, 1);
        // Lcag and Tree results for the same labels are cached separately.
        let lcag = cache
            .embed_group(&g, &idx, &l, &cfg, CachedModel::Lcag)
            .unwrap();
        assert!(lcag.node_count() >= want.node_count());
    }
}
