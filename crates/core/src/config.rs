//! NewsLink configuration.

use newslink_embed::SearchConfig;

/// Which subgraph-embedding model the NE component runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EmbeddingModel {
    /// The paper's Lowest Common Ancestor Graph `G*` (all shortest paths,
    /// compactness-order optimal root).
    Lcag,
    /// The TreeEmb baseline of §VII-F (Group-Steiner-Tree star
    /// approximation, one path per label).
    Tree,
}

/// Capacity knobs for the engine's shared caches (see
/// [`crate::pipeline::NewsLink`] and `newslink_embed::EmbeddingCache`).
///
/// Two tiers, both whole-result memos keyed on frozen-graph state: the
/// `G*` group memo and the query memo. A miss runs the uncached code and
/// stores what it returned, so caching never changes results — only how
/// often the traversal actually runs. Disabling the cache (or setting a
/// capacity to zero) routes every request through the uncached code path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Master switch; `false` makes every tier a pass-through.
    pub enabled: bool,
    /// Memoized `(model, label set) -> G*` results.
    pub group_capacity: usize,
    /// Ignored: it sized the removed distance-map tier and stays only
    /// because `perf/` compiles against it.
    pub distance_capacity: usize,
    /// Engine-level memo of whole query artifacts (NLP + NE output).
    pub query_capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            group_capacity: 8192,
            distance_capacity: 4096,
            query_capacity: 1024,
        }
    }
}

impl CacheConfig {
    /// A configuration with every cache tier off.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }
}

/// End-to-end pipeline configuration.
#[derive(Debug, Clone)]
pub struct NewsLinkConfig {
    /// Equation 3's `β ∈ [0, 1]`: 0 = pure BOW (reduces to Lucene),
    /// 1 = pure BON (subgraph embeddings only). The paper's best setting
    /// is 0.2.
    pub beta: f64,
    /// Subgraph-embedding model.
    pub model: EmbeddingModel,
    /// NE search knobs.
    pub search: SearchConfig,
    /// Worker threads for corpus embedding and batch search. A single
    /// query's NS scan is always sequential.
    ///
    /// `1` = serial. `0` = auto: each call site resolves the pool size
    /// through [`Self::effective_threads`], which asks
    /// `std::thread::available_parallelism()` *at that moment* (falling
    /// back to 1 if the machine won't say) and then clamps to
    /// `[1, work_items]` — auto mode therefore never spawns more workers
    /// than there are items to process, and a value of `0` is never used
    /// as a literal pool size. Set via [`Self::with_auto_threads`];
    /// [`Self::with_threads`] floors explicit counts at 1.
    pub threads: usize,
    /// Shared traversal/embedding cache sizing.
    pub cache: CacheConfig,
    /// Normalize BOW/BON score maps by their maxima before blending so β
    /// weights two comparable [0, 1] signals. (The paper blends Lucene
    /// scores; normalization pins the β semantics across index scales.)
    pub normalize_scores: bool,
    /// Documents per immutable index segment at build time. `0` (the
    /// default) seals the whole corpus into one segment — the
    /// pre-segmentation behaviour. Smaller segments build in parallel
    /// across [`threads`](Self::threads); search results are bit-identical
    /// either way (global-stats overlay, see `crate::segment`).
    pub segment_docs: usize,
    /// Rank the blended score with the block-max pruned evaluator
    /// (`newslink_text::blended_scan`): documents whose score upper bound
    /// cannot reach the current top-k threshold are skipped without being
    /// scored, and whole posting blocks are skipped without being
    /// decoded. Results are bit-identical to the exhaustive path — this
    /// knob is an escape hatch (and the oracle switch for equivalence
    /// tests), not a quality trade-off.
    pub prune_topk: bool,
    /// Ceiling on live segment count (floor 1). Incremental inserts
    /// through [`crate::NewsLink::insert_document`] and
    /// [`crate::LiveNewsLink::commit`] compact adjacent segments back
    /// under this bound. Build-time sharding is governed by
    /// [`segment_docs`](Self::segment_docs), not this.
    pub max_segments: usize,
}

impl Default for NewsLinkConfig {
    fn default() -> Self {
        Self {
            beta: 0.2,
            model: EmbeddingModel::Lcag,
            search: SearchConfig::default(),
            threads: 1,
            cache: CacheConfig::default(),
            normalize_scores: true,
            segment_docs: 0,
            prune_topk: true,
            max_segments: 8,
        }
    }
}

impl NewsLinkConfig {
    /// The paper's best setting, `NewsLink(0.2)`.
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// Set β (clamped to [0, 1]).
    pub fn with_beta(mut self, beta: f64) -> Self {
        self.beta = beta.clamp(0.0, 1.0);
        self
    }

    /// Set the embedding model.
    pub fn with_model(mut self, model: EmbeddingModel) -> Self {
        self.model = model;
        self
    }

    /// Set worker threads (min 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Size worker pools to the machine (resolved per call site by
    /// [`effective_threads`](Self::effective_threads)).
    pub fn with_auto_threads(mut self) -> Self {
        self.threads = 0;
        self
    }

    /// Set the cache configuration.
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// Turn every cache tier off.
    pub fn without_cache(mut self) -> Self {
        self.cache = CacheConfig::disabled();
        self
    }

    /// Resolve `threads` for a workload of `work` items: 0 means "use the
    /// machine's available parallelism", and the answer never exceeds the
    /// work or drops below one. The machine is consulted on every call,
    /// so auto mode tracks runtime changes to the CPU budget (e.g.
    /// container cpuset updates between batches).
    pub fn effective_threads(&self, work: usize) -> usize {
        let requested = if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        };
        requested.min(work).max(1)
    }

    /// Set the build-time segment size (`0` = one segment for the whole
    /// corpus).
    pub fn with_segment_docs(mut self, docs: usize) -> Self {
        self.segment_docs = docs;
        self
    }

    /// Enable or disable the pruned top-k evaluator (`false` routes the
    /// blended score through the exhaustive full-scoring oracle path).
    pub fn with_prune_topk(mut self, on: bool) -> Self {
        self.prune_topk = on;
        self
    }

    /// Set the live segment-count ceiling (min 1).
    pub fn with_max_segments(mut self, max: usize) -> Self {
        self.max_segments = max.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_best() {
        let c = NewsLinkConfig::default();
        assert_eq!(c.beta, 0.2);
        assert_eq!(c.model, EmbeddingModel::Lcag);
        assert!(c.normalize_scores);
        assert_eq!(c.segment_docs, 0, "single segment by default");
        assert_eq!(c.max_segments, 8);
        assert!(c.prune_topk, "pruned evaluator on by default");
        assert!(
            !NewsLinkConfig::default().with_prune_topk(false).prune_topk,
            "escape hatch routes through the exhaustive oracle"
        );
    }

    #[test]
    fn segment_knobs_chain_and_floor() {
        let c = NewsLinkConfig::default()
            .with_segment_docs(512)
            .with_max_segments(0);
        assert_eq!(c.segment_docs, 512);
        assert_eq!(c.max_segments, 1, "max_segments floors at one");
    }

    #[test]
    fn beta_is_clamped() {
        assert_eq!(NewsLinkConfig::default().with_beta(2.0).beta, 1.0);
        assert_eq!(NewsLinkConfig::default().with_beta(-0.5).beta, 0.0);
    }

    #[test]
    fn threads_floor_at_one() {
        assert_eq!(NewsLinkConfig::default().with_threads(0).threads, 1);
        assert_eq!(NewsLinkConfig::default().with_threads(8).threads, 8);
    }

    #[test]
    fn auto_threads_resolve_to_machine_bounded_by_work() {
        let c = NewsLinkConfig::default().with_auto_threads();
        assert_eq!(c.threads, 0);
        assert!(c.effective_threads(1000) >= 1);
        assert_eq!(c.effective_threads(1), 1);
        assert_eq!(c.effective_threads(0), 1);
        // Explicit counts pass through, still bounded by the work.
        let e = NewsLinkConfig::default().with_threads(4);
        assert_eq!(e.effective_threads(100), 4);
        assert_eq!(e.effective_threads(2), 2);
    }

    #[test]
    fn auto_threads_pin_to_available_parallelism() {
        // Pin the documented auto semantics exactly: with abundant work,
        // the resolved count IS the machine's available parallelism (or 1
        // when unknown), and it never exceeds the work item count.
        let machine = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let c = NewsLinkConfig::default().with_auto_threads();
        assert_eq!(c.effective_threads(usize::MAX), machine);
        for work in [1usize, 2, 3, machine, machine + 1, 10 * machine] {
            let resolved = c.effective_threads(work);
            assert!(resolved >= 1, "never below one");
            assert!(resolved <= work, "never more workers than work");
            assert!(resolved <= machine, "never more workers than cores");
            assert_eq!(resolved, machine.min(work));
        }
    }

    #[test]
    fn cache_defaults_on_and_disables() {
        let c = NewsLinkConfig::default();
        assert!(c.cache.enabled);
        assert!(c.cache.group_capacity > 0);
        let off = c.clone().without_cache();
        assert!(!off.cache.enabled);
        let custom = NewsLinkConfig::default().with_cache(CacheConfig {
            query_capacity: 7,
            ..CacheConfig::default()
        });
        assert_eq!(custom.cache.query_capacity, 7);
    }

    #[test]
    fn builder_style_chains() {
        let c = NewsLinkConfig::default()
            .with_beta(1.0)
            .with_model(EmbeddingModel::Tree);
        assert_eq!(c.beta, 1.0);
        assert_eq!(c.model, EmbeddingModel::Tree);
    }
}
