//! Corpus indexing: the NS component's *index building* half (§VI).
//!
//! For every document the pipeline runs NLP analysis, embeds each entity
//! group of the maximal co-occurrence set to a `G*` (or TreeEmb), and
//! feeds two inverted indexes: a BOW index over analyzed word terms and a
//! BON index over node terms. Documents whose groups all fail to embed are
//! kept searchable by text (the paper filters them from its corpus; we
//! record them so experiments can report the same coverage statistic).
//!
//! The index itself is *segmented* (see [`crate::segment`]): documents are
//! chunked by `config.segment_docs` into immutable [`IndexSegment`]s that
//! build in parallel across `config.effective_threads`. The default
//! (`segment_docs = 0`) seals the whole corpus into one segment — the
//! degenerate case every pre-segmentation behaviour reduces to.

use std::time::Instant;

use newslink_embed::{
    find_lcag, find_tree_embedding, CachedModel, DocEmbedding, EmbeddingCache,
};
use newslink_kg::{KnowledgeGraph, LabelIndex};
use newslink_nlp::{DocumentAnalysis, MatchStats, NlpPipeline};
use newslink_text::DocId;
use newslink_util::{CacheStats, ComponentTimer, FxHashSet};

use crate::config::{EmbeddingModel, NewsLinkConfig};
use crate::segment::IndexSegment;

/// The frozen search-side state for one corpus: an ordered set of
/// immutable segments plus a tombstone set ([`crate::segment`] holds the
/// segment-management and per-segment scoring machinery).
#[derive(Debug)]
pub struct NewsLinkIndex {
    /// Immutable shards sorted by disjoint ascending global-id ranges.
    pub(crate) segments: Vec<IndexSegment>,
    /// Deleted-but-not-expunged global ids.
    pub(crate) tombstones: FxHashSet<u32>,
    /// Next global id to assign; ids are never reused.
    pub(crate) next_id: u32,
    /// Allocation stride: fresh ids advance by this much, keeping a
    /// cluster shard's mints on its own modular stripe (1 = dense ids,
    /// the single-process default). Not persisted — a shard re-pins its
    /// stripe with [`NewsLinkIndex::set_id_stripe`] after every load.
    pub(crate) id_stride: u32,
    /// Segment merges performed over this index's lifetime.
    pub(crate) compactions: u64,
    /// Opaque mutation stamp; see [`NewsLinkIndex::generation`].
    pub(crate) generation: u64,
    /// Aggregated entity matching statistics (Table V's numerator /
    /// denominator).
    pub match_stats: MatchStats,
    /// Documents for which at least one entity group embedded.
    pub embedded_docs: usize,
    /// Accumulated per-component indexing time ("nlp", "ne", "ns").
    pub timer: ComponentTimer,
    /// Group-memo cache activity during this indexing run (all zeros when
    /// the run was uncached).
    pub cache_stats: CacheStats,
}

impl NewsLinkIndex {
    /// An index with no documents (the live engine's starting state).
    pub(crate) fn empty() -> Self {
        Self {
            segments: Vec::new(),
            tombstones: FxHashSet::default(),
            next_id: 0,
            id_stride: 1,
            compactions: 0,
            generation: fresh_generation(),
            match_stats: MatchStats::default(),
            embedded_docs: 0,
            timer: ComponentTimer::new(),
            cache_stats: CacheStats::default(),
        }
    }

    /// Number of live (non-tombstoned) documents.
    pub fn doc_count(&self) -> usize {
        self.total_docs() - self.tombstones.len()
    }

    /// Fraction of indexed documents with a non-empty subgraph embedding
    /// (the paper reports 96.3% for CNN, 91.2% for Kaggle). This is an
    /// indexing-time statistic: its denominator counts every document
    /// ever sealed into the index, including later-tombstoned ones that
    /// compaction has not yet expunged.
    pub fn embedded_ratio(&self) -> f64 {
        let total = self.total_docs();
        if total == 0 {
            0.0
        } else {
            self.embedded_docs as f64 / total as f64
        }
    }

    /// Pin the id allocator to the modular stripe `shard (mod of)`:
    /// future fresh ids are ≡ `shard`, advancing by `of`, so mints from
    /// `of` cluster shards can never collide. Fast-forwards the allocator
    /// to the smallest on-stripe id at or above its current position —
    /// call this after every load (the stripe is a deployment property,
    /// not part of the snapshot). `of == 0` or `shard >= of` is a caller
    /// bug and panics.
    pub fn set_id_stripe(&mut self, shard: u32, of: u32) {
        assert!(of > 0 && shard < of, "stripe {shard} of {of} is malformed");
        self.id_stride = of;
        let offset = (shard + of - self.next_id % of) % of;
        self.next_id += offset;
    }

    /// An opaque stamp of the index's searchable content. It changes on
    /// every mutation — a document installed (insert, WAL replay) or
    /// tombstoned — and is never carried by two states: values come from
    /// one process-wide counter, so no other index instance in the
    /// process ever holds the same stamp, and the counter starts at a
    /// per-process random nonce, so a restarted process does not repeat
    /// its predecessor's. Equal generations therefore mean identical
    /// live documents, which is what lets a router reuse a cached
    /// collection-statistics overlay. Compaction keeps the stamp: it
    /// rewrites segments but not the live set or any score.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Record a mutation of the live document set.
    pub(crate) fn bump_generation(&mut self) {
        self.generation = fresh_generation();
    }
}

/// A generation no index has carried before (see
/// [`NewsLinkIndex::generation`]). The nonce is shifted below 2^62 so a
/// stamp always fits the `i64` integers of the JSON wire.
pub(crate) fn fresh_generation() -> u64 {
    use std::hash::BuildHasher;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;

    static NEXT: OnceLock<AtomicU64> = OnceLock::new();
    NEXT.get_or_init(|| {
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        // `RandomState` is seeded from the OS; hashing the clock and pid
        // through it yields a nonce a restart cannot reproduce.
        let nonce = std::collections::hash_map::RandomState::new()
            .hash_one((now, std::process::id()));
        AtomicU64::new(nonce >> 2)
    })
    .fetch_add(1, Ordering::Relaxed)
}

/// Per-document artifacts produced by the embedding stage.
pub(crate) struct DocArtifacts {
    pub analysis: DocumentAnalysis,
    pub embedding: DocEmbedding,
    pub nlp_nanos: u64,
    pub ne_nanos: u64,
}

/// Run NLP + NE for one document (uncached).
pub(crate) fn embed_one(
    graph: &KnowledgeGraph,
    label_index: &LabelIndex,
    config: &NewsLinkConfig,
    text: &str,
) -> DocArtifacts {
    embed_one_with(graph, label_index, config, None, text)
}

/// Run NLP + NE for one document, consulting `cache` for every entity
/// group when provided. Cached and uncached runs produce identical
/// artifacts (see `newslink_embed::cache`); only the timings differ.
pub(crate) fn embed_one_with(
    graph: &KnowledgeGraph,
    label_index: &LabelIndex,
    config: &NewsLinkConfig,
    cache: Option<&EmbeddingCache>,
    text: &str,
) -> DocArtifacts {
    let nlp = NlpPipeline::new(graph, label_index);
    let t0 = Instant::now();
    let analysis = nlp.analyze_document(text);
    let nlp_nanos = t0.elapsed().as_nanos() as u64;

    let t1 = Instant::now();
    let mut groups = Vec::new();
    for set in &analysis.entity_groups {
        let labels: Vec<String> = set.iter().cloned().collect();
        let result = match (cache, config.model) {
            (Some(c), EmbeddingModel::Lcag) => {
                c.embed_group(graph, label_index, &labels, &config.search, CachedModel::Lcag)
            }
            (Some(c), EmbeddingModel::Tree) => {
                c.embed_group(graph, label_index, &labels, &config.search, CachedModel::Tree)
            }
            (None, EmbeddingModel::Lcag) => find_lcag(graph, label_index, &labels, &config.search),
            (None, EmbeddingModel::Tree) => {
                find_tree_embedding(graph, label_index, &labels, &config.search)
            }
        };
        // Groups that fail to embed (no sources / disconnected / budget)
        // simply contribute nothing, as in the paper's corpus filtering.
        if let Ok(g) = result {
            groups.push(g);
        }
    }
    let ne_nanos = t1.elapsed().as_nanos() as u64;

    DocArtifacts {
        analysis,
        embedding: DocEmbedding::new(groups),
        nlp_nanos,
        ne_nanos,
    }
}

/// Embed and index a whole corpus.
///
/// Both stages parallelize across `config.threads` (the paper notes corpus
/// embedding "can easily be parallelized"): embedding chunks documents
/// across worker threads, and with `config.segment_docs > 0` the sealed
/// segments build concurrently too. Document ids are assigned before the
/// fan-out, so the result is deterministic and identical to a serial run.
pub fn index_corpus<S: AsRef<str> + Sync>(
    graph: &KnowledgeGraph,
    label_index: &LabelIndex,
    config: &NewsLinkConfig,
    texts: &[S],
) -> NewsLinkIndex {
    // A run-local cache: recurring entity groups across the corpus embed
    // once. Engine-owned callers share a longer-lived cache instead via
    // [`index_corpus_with`].
    let local = if config.cache.enabled {
        Some(EmbeddingCache::new(
            config.cache.group_capacity,
            config.cache.distance_capacity,
        ))
    } else {
        None
    };
    index_corpus_with(graph, label_index, config, local.as_ref(), texts)
}

/// [`index_corpus`] against a caller-owned [`EmbeddingCache`] (pass `None`
/// for a fully uncached run). The cache is read and populated from every
/// worker thread.
pub fn index_corpus_with<S: AsRef<str> + Sync>(
    graph: &KnowledgeGraph,
    label_index: &LabelIndex,
    config: &NewsLinkConfig,
    cache: Option<&EmbeddingCache>,
    texts: &[S],
) -> NewsLinkIndex {
    index_corpus_stripe(graph, label_index, config, cache, texts, 0, 1)
}

/// Build one cluster shard's slice of a corpus: documents at positions
/// `i ≡ shard (mod shard_count)` keep their corpus-order global id `i`,
/// and the id allocator continues on the same stripe. The union of the
/// `shard_count` shard builds is document-for-document, id-for-id the
/// single-process [`index_corpus_with`] build of the whole corpus —
/// which, combined with the global-stats overlay, is what keeps a
/// scatter-gather search bit-identical to the in-process path.
pub fn index_corpus_sharded<S: AsRef<str> + Sync>(
    graph: &KnowledgeGraph,
    label_index: &LabelIndex,
    config: &NewsLinkConfig,
    cache: Option<&EmbeddingCache>,
    texts: &[S],
    shard: u32,
    shard_count: u32,
) -> NewsLinkIndex {
    assert!(
        shard_count > 0 && shard < shard_count,
        "stripe {shard} of {shard_count} is malformed"
    );
    index_corpus_stripe(graph, label_index, config, cache, texts, shard, shard_count)
}

fn index_corpus_stripe<S: AsRef<str> + Sync>(
    graph: &KnowledgeGraph,
    label_index: &LabelIndex,
    config: &NewsLinkConfig,
    cache: Option<&EmbeddingCache>,
    texts: &[S],
    shard: u32,
    shard_count: u32,
) -> NewsLinkIndex {
    let before = cache.map(|c| c.group_stats()).unwrap_or_default();
    // The stripe's documents with their corpus-order global ids. Ids are
    // fixed before any fan-out, so the result is deterministic.
    let (ids, kept): (Vec<u32>, Vec<&S>) = texts
        .iter()
        .enumerate()
        .filter(|(i, _)| *i as u32 % shard_count == shard)
        .map(|(i, t)| (i as u32, t))
        .unzip();
    let threads = config.effective_threads(kept.len());
    let artifacts: Vec<DocArtifacts> = if threads <= 1 {
        kept.iter()
            .map(|t| embed_one_with(graph, label_index, config, cache, t.as_ref()))
            .collect()
    } else {
        parallel_embed(graph, label_index, config, cache, threads, &kept)
    };

    let mut timer = ComponentTimer::new();
    let mut match_stats = MatchStats::default();
    let mut embedded_docs = 0;
    for a in &artifacts {
        timer.record("nlp", std::time::Duration::from_nanos(a.nlp_nanos));
        timer.record("ne", std::time::Duration::from_nanos(a.ne_nanos));
        match_stats.identified += a.analysis.stats.identified;
        match_stats.matched += a.analysis.stats.matched;
        if !a.embedding.is_empty() {
            embedded_docs += 1;
        }
    }

    let total = artifacts.len();
    let t_ns = Instant::now();
    let chunk_size = if config.segment_docs == 0 {
        total.max(1)
    } else {
        config.segment_docs
    };
    let mut chunks: Vec<Vec<(u32, DocArtifacts)>> = Vec::new();
    {
        let mut it = ids.into_iter().zip(artifacts);
        loop {
            let chunk: Vec<_> = it.by_ref().take(chunk_size).collect();
            if chunk.is_empty() {
                break;
            }
            chunks.push(chunk);
        }
    }
    let build_threads = config.effective_threads(chunks.len());
    let segments: Vec<IndexSegment> = if build_threads <= 1 || chunks.len() < 2 {
        chunks.into_iter().map(IndexSegment::build).collect()
    } else {
        parallel_build_segments(chunks, build_threads)
    };
    timer.record_batch("ns", t_ns.elapsed(), total.max(1) as u64);

    // The allocator resumes past the whole corpus, on this stripe.
    let n = texts.len() as u32;
    let next_id = n + (shard + shard_count - n % shard_count) % shard_count;
    NewsLinkIndex {
        segments: segments.into_iter().filter(|s| !s.is_empty()).collect(),
        tombstones: FxHashSet::default(),
        next_id,
        id_stride: shard_count,
        compactions: 0,
        generation: fresh_generation(),
        match_stats,
        embedded_docs,
        timer,
        cache_stats: cache
            .map(|c| c.group_stats().since(&before))
            .unwrap_or_default(),
    }
}

/// Chunked parallel embedding via crossbeam scoped threads.
fn parallel_embed<S: AsRef<str> + Sync>(
    graph: &KnowledgeGraph,
    label_index: &LabelIndex,
    config: &NewsLinkConfig,
    cache: Option<&EmbeddingCache>,
    threads: usize,
    texts: &[S],
) -> Vec<DocArtifacts> {
    let chunk = texts.len().div_ceil(threads);
    let mut out: Vec<Option<DocArtifacts>> = Vec::new();
    out.resize_with(texts.len(), || None);
    crossbeam::thread::scope(|scope| {
        let mut slots = out.as_mut_slice();
        let mut offset = 0usize;
        let mut handles = Vec::new();
        while offset < texts.len() {
            let take = chunk.min(texts.len() - offset);
            let (head, rest) = slots.split_at_mut(take);
            slots = rest;
            let batch = &texts[offset..offset + take];
            handles.push(scope.spawn(move |_| {
                for (slot, text) in head.iter_mut().zip(batch) {
                    *slot = Some(embed_one_with(graph, label_index, config, cache, text.as_ref()));
                }
            }));
            offset += take;
        }
        for h in handles {
            h.join().expect("embedding worker panicked");
        }
    })
    .expect("crossbeam scope failed");
    out.into_iter().map(|a| a.expect("all docs embedded")).collect()
}

/// Seal chunks into segments on scoped worker threads. Chunks carry their
/// pre-assigned global ids, so build order cannot affect the result.
fn parallel_build_segments(
    mut chunks: Vec<Vec<(u32, DocArtifacts)>>,
    threads: usize,
) -> Vec<IndexSegment> {
    let per = chunks.len().div_ceil(threads);
    let mut out: Vec<Option<IndexSegment>> = Vec::new();
    out.resize_with(chunks.len(), || None);
    std::thread::scope(|scope| {
        let mut slots = out.as_mut_slice();
        while !chunks.is_empty() {
            let take = per.min(chunks.len());
            let group: Vec<Vec<(u32, DocArtifacts)>> = chunks.drain(..take).collect();
            let (head, rest) = slots.split_at_mut(take);
            slots = rest;
            scope.spawn(move || {
                for (slot, chunk) in head.iter_mut().zip(group) {
                    *slot = Some(IndexSegment::build(chunk));
                }
            });
        }
    });
    out.into_iter()
        .map(|s| s.expect("all segments built"))
        .collect()
}

/// Live document ids of an index, in ascending order.
///
/// Ordering guarantee: at build time ids are **dense** (`0..doc_count`)
/// in corpus order, regardless of `segment_docs` or thread count — ids
/// are assigned before the segment-build fan-out. Afterwards ids are
/// **stable**: deletion and compaction never renumber a surviving
/// document, and reclaimed ids are never reused for new documents (live
/// inserts always draw fresh ids from `next_id`). The sequence therefore
/// stays strictly ascending but may grow gaps once documents are
/// deleted.
pub fn doc_ids(index: &NewsLinkIndex) -> impl Iterator<Item = DocId> + '_ {
    index.doc_ids()
}

#[cfg(test)]
mod tests {
    use super::*;
    use newslink_kg::{EntityType, GraphBuilder};

    fn world() -> (KnowledgeGraph, LabelIndex) {
        let mut b = GraphBuilder::new();
        let khyber = b.add_node("Khyber", EntityType::Gpe);
        let kunar = b.add_node("Kunar", EntityType::Gpe);
        let taliban = b.add_node("Taliban", EntityType::Organization);
        let pakistan = b.add_node("Pakistan", EntityType::Gpe);
        let lahore = b.add_node("Lahore", EntityType::Gpe);
        b.add_edge(kunar, khyber, "shares border with", 1);
        b.add_edge(taliban, kunar, "operates in", 1);
        b.add_edge(taliban, khyber, "operates in", 1);
        b.add_edge(khyber, pakistan, "located in", 1);
        b.add_edge(lahore, pakistan, "located in", 1);
        let g = b.freeze();
        let idx = LabelIndex::build(&g);
        (g, idx)
    }

    const DOCS: &[&str] = &[
        "Taliban attacked Kunar. Pakistan forces responded near Khyber.",
        "Bombing hit Lahore. Pakistan blamed Taliban.",
        "A plain story with no known names at all.",
    ];

    #[test]
    fn index_builds_aligned_bow_and_bon() {
        let (g, li) = world();
        let idx = index_corpus(&g, &li, &NewsLinkConfig::default(), DOCS);
        assert_eq!(idx.doc_count(), 3);
        assert_eq!(idx.segment_count(), 1);
        let seg = &idx.segments()[0];
        assert_eq!(seg.bow().doc_count(), 3);
        assert_eq!(seg.bon().doc_count(), 3);
        assert_eq!(idx.embedded_docs, 2);
        assert!((idx.embedded_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn embeddings_contain_induced_entities() {
        let (g, li) = world();
        let idx = index_corpus(&g, &li, &NewsLinkConfig::default(), DOCS);
        // Doc 0 mentions Taliban+Kunar+Pakistan+Khyber; its embedding
        // connects them.
        assert!(!idx.embedding(DocId(0)).unwrap().is_empty());
        // Doc 2 has no entities -> empty embedding.
        assert!(idx.embedding(DocId(2)).unwrap().is_empty());
        let _ = g;
    }

    #[test]
    fn parallel_indexing_matches_serial() {
        let (g, li) = world();
        let serial = index_corpus(&g, &li, &NewsLinkConfig::default(), DOCS);
        let par = index_corpus(
            &g,
            &li,
            &NewsLinkConfig::default().with_threads(3),
            DOCS,
        );
        assert_eq!(serial.doc_count(), par.doc_count());
        assert_eq!(serial.embedded_docs, par.embedded_docs);
        for (a, b) in serial.embeddings().zip(par.embeddings()) {
            assert_eq!(a.all_nodes(), b.all_nodes());
        }
        assert_eq!(
            serial.match_stats.identified,
            par.match_stats.identified
        );
    }

    #[test]
    fn parallel_segment_build_matches_serial() {
        let (g, li) = world();
        let serial = index_corpus(
            &g,
            &li,
            &NewsLinkConfig::default().with_segment_docs(1),
            DOCS,
        );
        let par = index_corpus(
            &g,
            &li,
            &NewsLinkConfig::default()
                .with_segment_docs(1)
                .with_threads(3),
            DOCS,
        );
        assert_eq!(serial.segment_count(), 3);
        assert_eq!(par.segment_count(), 3);
        for (a, b) in serial.segments().iter().zip(par.segments()) {
            assert_eq!(a.globals(), b.globals());
            assert_eq!(a.bow().doc_count(), b.bow().doc_count());
            assert_eq!(a.bon().doc_count(), b.bon().doc_count());
        }
    }

    #[test]
    fn tree_model_indexes_too() {
        let (g, li) = world();
        let cfg = NewsLinkConfig::default().with_model(EmbeddingModel::Tree);
        let idx = index_corpus(&g, &li, &cfg, DOCS);
        assert_eq!(idx.embedded_docs, 2);
        // Tree embeddings never exceed LCAG embeddings in node count.
        let lcag = index_corpus(&g, &li, &NewsLinkConfig::default(), DOCS);
        for (t, l) in idx.embeddings().zip(lcag.embeddings()) {
            assert!(t.all_nodes().len() <= l.all_nodes().len());
        }
    }

    #[test]
    fn timers_record_components() {
        let (g, li) = world();
        let idx = index_corpus(&g, &li, &NewsLinkConfig::default(), DOCS);
        assert_eq!(idx.timer.count("nlp"), 3);
        assert_eq!(idx.timer.count("ne"), 3);
        assert!(idx.timer.count("ns") >= 1);
    }

    #[test]
    fn cached_indexing_matches_uncached_and_counts() {
        let (g, li) = world();
        let cfg = NewsLinkConfig::default();
        let uncached = index_corpus_with(&g, &li, &cfg, None, DOCS);
        assert_eq!(uncached.cache_stats, CacheStats::default());

        let cache = EmbeddingCache::new(64, 64);
        let first = index_corpus_with(&g, &li, &cfg, Some(&cache), DOCS);
        assert!(first.cache_stats.lookups() > 0);
        // A rebuild over the same corpus is answered by the group memo.
        let second = index_corpus_with(&g, &li, &cfg, Some(&cache), DOCS);
        assert_eq!(second.cache_stats.misses, 0);
        assert!(second.cache_stats.hits > 0);

        for run in [&first, &second] {
            assert_eq!(run.embedded_docs, uncached.embedded_docs);
            for (a, b) in uncached.embeddings().zip(run.embeddings()) {
                assert_eq!(a.all_nodes(), b.all_nodes());
            }
        }
    }

    #[test]
    fn empty_corpus() {
        let (g, li) = world();
        let idx = index_corpus::<&str>(&g, &li, &NewsLinkConfig::default(), &[]);
        assert_eq!(idx.doc_count(), 0);
        assert_eq!(idx.segment_count(), 0);
        assert_eq!(idx.embedded_ratio(), 0.0);
    }

    #[test]
    fn striped_builds_partition_the_corpus() {
        let (g, li) = world();
        let cfg = NewsLinkConfig::default().with_segment_docs(1);
        let mono = index_corpus(&g, &li, &cfg, DOCS);
        for shard_count in [1u32, 2, 3, 4] {
            let mut shards: Vec<NewsLinkIndex> = (0..shard_count)
                .map(|s| index_corpus_sharded(&g, &li, &cfg, None, DOCS, s, shard_count))
                .collect();
            // Stripes are disjoint and their union is the full id range.
            let mut union: Vec<u32> = Vec::new();
            for (s, shard) in shards.iter().enumerate() {
                let ids: Vec<u32> = shard.doc_ids().map(|d| d.0).collect();
                assert!(
                    ids.iter().all(|id| id % shard_count == s as u32),
                    "shard {s} holds only its stripe"
                );
                union.extend(ids);
            }
            union.sort_unstable();
            assert_eq!(union, (0..DOCS.len() as u32).collect::<Vec<_>>());
            // Each stripe's documents embed identically to the monolithic
            // build (same artifacts under their global ids).
            for shard in &shards {
                for d in shard.doc_ids() {
                    assert_eq!(
                        shard.embedding(d).unwrap().all_nodes(),
                        mono.embedding(d).unwrap().all_nodes()
                    );
                }
            }
            // The allocator resumes past the corpus, on this shard's
            // stripe, and keeps minting on it.
            for (s, shard) in shards.iter_mut().enumerate() {
                let a = shard.reserve_id();
                let b = shard.reserve_id();
                assert!(a.0 >= DOCS.len() as u32);
                assert_eq!(a.0 % shard_count, s as u32);
                assert_eq!(b.0, a.0 + shard_count);
            }
        }
    }

    #[test]
    fn set_id_stripe_fast_forwards_to_the_stripe() {
        let (g, li) = world();
        let mut idx = index_corpus(&g, &li, &NewsLinkConfig::default(), DOCS);
        // next_id is 3 after the build; stripe 1 of 3 keeps ids ≡ 1 (mod 3).
        idx.set_id_stripe(1, 3);
        let a = idx.reserve_id();
        let b = idx.reserve_id();
        assert_eq!(a.0, 4);
        assert_eq!(b.0, 7);
        // Already on-stripe: no fast-forward.
        let mut idx2 = index_corpus(&g, &li, &NewsLinkConfig::default(), DOCS);
        idx2.set_id_stripe(0, 3);
        assert_eq!(idx2.reserve_id().0, 3);
    }

    #[test]
    fn generation_changes_on_every_mutation_and_never_repeats() {
        let (g, li) = world();
        let engine = crate::pipeline::NewsLink::new(&g, &li, NewsLinkConfig::default());
        let mut idx = engine.index_corpus(DOCS);
        let twin = engine.index_corpus(DOCS);
        let mut seen = vec![idx.generation(), twin.generation()];
        engine.insert_document(&mut idx, "Taliban attacked Khyber.");
        seen.push(idx.generation());
        assert!(engine.delete_document(&mut idx, DocId(0)));
        seen.push(idx.generation());
        let last = idx.generation();
        assert!(!engine.delete_document(&mut idx, DocId(0)), "already deleted");
        assert_eq!(idx.generation(), last, "a no-op delete is no mutation");
        idx.compact();
        assert_eq!(idx.generation(), last, "compaction keeps the live set");
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4, "every state and instance has its own stamp");
        assert!(seen.iter().all(|&g| g < 1 << 63), "stamps fit an i64");
    }

    #[test]
    #[should_panic(expected = "malformed")]
    fn malformed_stripe_panics() {
        let (g, li) = world();
        let mut idx = index_corpus(&g, &li, &NewsLinkConfig::default(), DOCS);
        idx.set_id_stripe(2, 2);
    }

    #[test]
    fn doc_ids_dense_at_build_and_stable_after_compaction() {
        let (g, li) = world();
        let mut idx = index_corpus(
            &g,
            &li,
            &NewsLinkConfig::default()
                .with_segment_docs(1)
                .with_threads(3),
            DOCS,
        );
        // Dense at build, in corpus order, independent of sharding and
        // thread count.
        let ids: Vec<u32> = doc_ids(&idx).map(|d| d.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        // Deletion leaves a gap; compaction does not renumber survivors.
        idx.delete(DocId(1));
        idx.compact();
        let ids: Vec<u32> = doc_ids(&idx).map(|d| d.0).collect();
        assert_eq!(ids, vec![0, 2]);
        assert!(idx.embedding(DocId(0)).is_some());
        assert!(idx.embedding(DocId(1)).is_none());
    }
}
