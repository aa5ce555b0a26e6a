//! Engine-level caches shared by indexing and search.
//!
//! [`EngineCaches`] bundles the two cache layers a [`crate::NewsLink`]
//! engine owns:
//!
//! - the `newslink-embed` [`EmbeddingCache`] (the `G*` group memo),
//!   consulted by every per-document and per-query embedding, from
//!   `index_corpus` and `execute_batch` worker threads alike;
//! - a query memo mapping the raw query string to its finished NLP + NE
//!   artifacts, so a repeated query skips both components entirely.
//!
//! Everything keys on frozen-graph state plus the engine's fixed
//! `SearchConfig`/model, so hits are bit-identical to recomputation; the
//! per-request β override only affects score blending, which is never
//! cached.

use std::sync::Arc;

use newslink_embed::{DocEmbedding, EmbeddingCache};
use newslink_util::{CacheStats, ShardedCache};

use crate::config::CacheConfig;

/// The cached output of query analysis: exactly the inputs scoring needs.
#[derive(Debug)]
pub(crate) struct QueryArtifacts {
    /// Analyzed BOW terms.
    pub(crate) terms: Vec<String>,
    /// The query's subgraph embedding.
    pub(crate) embedding: DocEmbedding,
}

/// All caches owned by one engine.
#[derive(Debug)]
pub(crate) struct EngineCaches {
    /// Group memo for the NE component.
    pub(crate) embed: EmbeddingCache,
    /// Whole-query artifact memo for the engine's search entry points.
    pub(crate) query: ShardedCache<String, Arc<QueryArtifacts>>,
}

impl EngineCaches {
    /// Build caches sized by `config`; returns `None` when caching is
    /// disabled so call sites fall through to the uncached paths.
    pub(crate) fn from_config(config: &CacheConfig) -> Option<Self> {
        if !config.enabled {
            return None;
        }
        Some(Self {
            embed: EmbeddingCache::new(config.group_capacity, config.distance_capacity),
            query: ShardedCache::new(config.query_capacity),
        })
    }

    /// Snapshot every tier's counters.
    pub(crate) fn stats(&self) -> EngineCacheStats {
        EngineCacheStats {
            groups: self.embed.group_stats(),
            distances: CacheStats::default(),
            queries: self.query.stats(),
        }
    }
}

/// Per-tier counter snapshot of an engine's caches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct EngineCacheStats {
    /// The `(model, label set) -> G*` memo.
    pub groups: CacheStats,
    /// Always all-zero: the distance-map tier is gone and the field stays
    /// only because `perf/` compiles against it.
    pub distances: CacheStats,
    /// The whole-query artifact memo.
    pub queries: CacheStats,
}

impl EngineCacheStats {
    /// Sum of all tiers, for one-line reporting.
    pub fn combined(&self) -> CacheStats {
        self.groups.merged(&self.queries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_builds_no_caches() {
        assert!(EngineCaches::from_config(&CacheConfig::disabled()).is_none());
        assert!(EngineCaches::from_config(&CacheConfig::default()).is_some());
    }

    #[test]
    fn stats_cover_all_tiers() {
        let caches = EngineCaches::from_config(&CacheConfig::default()).unwrap();
        assert!(caches.query.get(&"q".to_string()).is_none());
        let s = caches.stats();
        assert_eq!(s.queries.misses, 1);
        assert_eq!(s.combined().misses, 1);

        // An indexing run moves the group memo and nothing else: the
        // inert `distances` field must not come back to life.
        let world = newslink_kg::synth::generate(&newslink_kg::SynthConfig::small(5));
        let labels = newslink_kg::LabelIndex::build(&world.graph);
        let country = world.graph.label(world.countries[0]);
        let docs = [format!("Officials from {country} signed the accord.")];
        let engine = crate::NewsLink::new(&world.graph, &labels, crate::NewsLinkConfig::default());
        engine.index_corpus(&docs);
        let stats = engine.cache_stats();
        assert!(stats.groups.lookups() > 0);
        assert_eq!(stats.queries.lookups(), 0);
        assert_eq!(stats.distances, CacheStats::default());
    }
}
