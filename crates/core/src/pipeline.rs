//! The user-facing NewsLink facade.
//!
//! Wires together the NLP, NE and NS components (Figure 2 of the paper)
//! behind one handle. Typical use:
//!
//! ```
//! use newslink_core::{NewsLink, NewsLinkConfig};
//! use newslink_kg::{synth, LabelIndex, SynthConfig};
//!
//! let world = synth::generate(&SynthConfig::small(7));
//! let labels = LabelIndex::build(&world.graph);
//! let engine = NewsLink::new(&world.graph, &labels, NewsLinkConfig::default());
//!
//! let docs = vec!["Some news text mentioning entities.".to_string()];
//! let index = engine.index_corpus(&docs);
//! let outcome = engine.search(&index, "entities in the news", 5);
//! for hit in &outcome.results {
//!     println!("doc {} scored {:.3}", hit.doc.0, hit.score);
//! }
//! ```

use std::time::Instant;

use newslink_embed::{bon_terms, DocEmbedding, RelationshipPath};
use newslink_kg::{KnowledgeGraph, LabelIndex};
use newslink_text::DocId;
use newslink_util::ComponentTimer;

use crate::api::{
    BatchResponse, Explanation, ParallelShell, QueryCacheInfo, SearchRequest, SearchResponse,
};
use crate::cache::{EngineCacheStats, EngineCaches};
use crate::config::NewsLinkConfig;
use crate::indexer::{embed_one_with, index_corpus_with, NewsLinkIndex};
use crate::persist::PersistError;
use crate::searcher::{analyze_query_text, explain, parallel_map, run_query, QueryOutcome};
use crate::segment::IndexSegment;

/// The query-side artifacts a scatter-gather router needs: the analyzed
/// BOW terms, the BON node terms derived from the query embedding, and
/// the embedding itself. Both term sequences are in their canonical
/// order — shards rebuild their query-term maps from these exact
/// sequences, which is what keeps the per-document float accumulation
/// order (and therefore every score bit) identical to an in-process
/// search.
#[derive(Debug, Clone)]
pub struct QueryAnalysis {
    /// Analyzed word terms (the BOW side's query).
    pub terms: Vec<String>,
    /// Node terms of the query embedding (the BON side's query).
    pub bon_terms: Vec<String>,
    /// The query's own subgraph embedding (drives explanations).
    pub embedding: DocEmbedding,
    /// NLP/NE latency of this analysis (zero-duration on a memo hit).
    pub timer: ComponentTimer,
    /// How the engine's caches served the analysis.
    pub cache: QueryCacheInfo,
}

/// The NewsLink engine: borrow a KG and its label index, hold a config
/// plus the shared traversal/embedding caches every entry point consults.
pub struct NewsLink<'g> {
    graph: &'g KnowledgeGraph,
    label_index: &'g LabelIndex,
    config: NewsLinkConfig,
    caches: Option<EngineCaches>,
}

impl<'g> NewsLink<'g> {
    /// Create an engine over `graph`.
    pub fn new(graph: &'g KnowledgeGraph, label_index: &'g LabelIndex, config: NewsLinkConfig) -> Self {
        let caches = EngineCaches::from_config(&config.cache);
        Self {
            graph,
            label_index,
            config,
            caches,
        }
    }

    /// Create an engine with [`StoreOptions`] overrides applied over
    /// `config` (storage backend selection happens where the snapshot
    /// is opened: [`DurableStore::open_with`] takes the same options).
    ///
    /// [`StoreOptions`]: crate::reader::StoreOptions
    /// [`DurableStore::open_with`]: crate::store::DurableStore::open_with
    pub fn open_with(
        graph: &'g KnowledgeGraph,
        label_index: &'g LabelIndex,
        config: NewsLinkConfig,
        options: &crate::reader::StoreOptions,
    ) -> Self {
        Self::new(graph, label_index, options.apply(config))
    }

    /// The engine's configuration.
    pub fn config(&self) -> &NewsLinkConfig {
        &self.config
    }

    /// The underlying knowledge graph.
    pub fn graph(&self) -> &'g KnowledgeGraph {
        self.graph
    }

    /// The label index.
    pub fn label_index(&self) -> &'g LabelIndex {
        self.label_index
    }

    /// Embed and index a corpus (the *index building* half of the NS
    /// component). Recurring entity groups are served by the engine's
    /// shared embedding cache; the returned index's
    /// [`cache_stats`](NewsLinkIndex::cache_stats) records this run's
    /// share of that activity.
    pub fn index_corpus<S: AsRef<str> + Sync>(&self, texts: &[S]) -> NewsLinkIndex {
        index_corpus_with(
            self.graph,
            self.label_index,
            &self.config,
            self.caches.as_ref().map(|c| &c.embed),
            texts,
        )
    }

    /// Embed and index this engine's stripe of a corpus: documents whose
    /// position `i` satisfies `i % shard_count == shard` are indexed
    /// under their *global* id `i`, and the index's id allocator mints
    /// only ids on that stripe afterwards. The union of every shard's
    /// stripe over the same corpus covers exactly the documents (and
    /// ids) of a single [`index_corpus`](Self::index_corpus) build.
    pub fn index_corpus_sharded<S: AsRef<str> + Sync>(
        &self,
        texts: &[S],
        shard: u32,
        shard_count: u32,
    ) -> NewsLinkIndex {
        crate::indexer::index_corpus_sharded(
            self.graph,
            self.label_index,
            &self.config,
            self.caches.as_ref().map(|c| &c.embed),
            texts,
            shard,
            shard_count,
        )
    }

    /// Run only the query-side NLP + NE stages (no index needed): the
    /// analysis a scatter-gather router performs once and ships to every
    /// shard. Served from the engine's query memo when possible, exactly
    /// like [`search`](Self::search).
    pub fn analyze_query(&self, query_text: &str) -> QueryAnalysis {
        let mut timer = ComponentTimer::new();
        let mut cache = QueryCacheInfo {
            enabled: self.caches.is_some(),
            query_hit: false,
        };
        let (terms, embedding) = analyze_query_text(
            self.graph,
            self.label_index,
            &self.config,
            self.caches.as_ref(),
            query_text,
            &mut timer,
            &mut cache,
        );
        QueryAnalysis {
            terms,
            bon_terms: bon_terms(&embedding),
            embedding,
            timer,
            cache,
        }
    }

    /// Embed and append one document to a built index, sealing it as a
    /// single-document segment and compacting adjacent small segments
    /// back under `config.max_segments`. Returns the new document's
    /// stable id (never a reused one). Results afterwards are
    /// bit-identical to rebuilding the index over the enlarged corpus.
    pub fn insert_document(&self, index: &mut NewsLinkIndex, text: &str) -> DocId {
        let artifacts = embed_one_with(
            self.graph,
            self.label_index,
            &self.config,
            self.caches.as_ref().map(|c| &c.embed),
            text,
        );
        index
            .timer
            .record("nlp", std::time::Duration::from_nanos(artifacts.nlp_nanos));
        index
            .timer
            .record("ne", std::time::Duration::from_nanos(artifacts.ne_nanos));
        index.match_stats.identified += artifacts.analysis.stats.identified;
        index.match_stats.matched += artifacts.analysis.stats.matched;
        if !artifacts.embedding.is_empty() {
            index.embedded_docs += 1;
        }
        let id = index.reserve_id();
        let segment = IndexSegment::build(vec![(id.0, artifacts)]);
        index.install_segment(segment);
        index.compact_to(self.config.max_segments);
        id
    }

    /// Tombstone one document in a built index (physically expunged by a
    /// later compaction). Returns `false` for unknown or already deleted
    /// ids.
    pub fn delete_document(&self, index: &mut NewsLinkIndex, doc: DocId) -> bool {
        index.delete(doc)
    }

    /// Re-apply one write-ahead-log record to `index` during crash
    /// recovery. Returns `Ok(true)` when the record mutated the index
    /// and `Ok(false)` when it was already reflected — replay is
    /// idempotent, so a checkpoint that crashed between writing its
    /// snapshot and resetting the log is harmless.
    ///
    /// Inserts re-embed the logged text; embedding is deterministic
    /// given the graph and config, so the replayed index is
    /// bit-identical to the pre-crash one. An insert whose id is below
    /// the allocator is already in the snapshot and is skipped; one
    /// whose id is *above* it fast-forwards the allocator first (ids in
    /// between belonged to mutations that were never acknowledged). If
    /// the insert lands on a different id than the log recorded —
    /// possible only if id allocation changes between the run that wrote
    /// the log and this one — replay fails with
    /// [`PersistError::ReplayDiverged`] rather than silently building an
    /// index whose ids disagree with every later logged delete.
    pub fn replay_wal(
        &self,
        index: &mut NewsLinkIndex,
        record: &crate::wal::WalRecord,
    ) -> Result<bool, PersistError> {
        match record {
            crate::wal::WalRecord::Insert { id, text } => {
                if *id < index.next_id {
                    return Ok(false);
                }
                index.next_id = *id;
                let got = self.insert_document(index, text);
                if got.0 != *id {
                    return Err(PersistError::ReplayDiverged {
                        logged: *id,
                        got: got.0,
                    });
                }
                Ok(true)
            }
            crate::wal::WalRecord::Delete { id } => Ok(index.delete(DocId(*id))),
        }
    }

    /// Blended top-k search (the *query processing* half), through the
    /// engine caches. Equivalent to
    /// `execute(index, &SearchRequest::new(query).with_k(k))` minus the
    /// response envelope.
    pub fn search(&self, index: &NewsLinkIndex, query: &str, k: usize) -> QueryOutcome {
        run_query(
            self.graph,
            self.label_index,
            &self.config,
            index,
            self.caches.as_ref(),
            query,
            k,
            None,
            None,
        )
    }

    /// Execute one declarative [`SearchRequest`].
    ///
    /// A request [`timeout_ms`](SearchRequest::timeout_ms) budget starts
    /// counting here. It is checked between pipeline stages (after
    /// NLP + NE, and again before explanations): on expiry the response
    /// carries [`timed_out`](SearchResponse::timed_out) plus whatever the
    /// finished stages produced — the timer doubles as a partial report
    /// of where the budget went.
    pub fn execute(&self, index: &NewsLinkIndex, request: &SearchRequest) -> SearchResponse {
        let deadline = request
            .timeout_ms
            .map(|ms| Instant::now() + std::time::Duration::from_millis(ms));
        let caches = if request.use_cache {
            self.caches.as_ref()
        } else {
            None
        };
        let outcome = run_query(
            self.graph,
            self.label_index,
            &self.config,
            index,
            caches,
            &request.query,
            request.k,
            request.beta,
            deadline,
        );
        let mut timed_out = outcome.timed_out;
        let explanations = match request.explain {
            // Explanations are the most expensive optional stage; a spent
            // budget skips them but keeps the ranked results.
            Some(_) if deadline.is_some_and(|d| Instant::now() >= d) => {
                timed_out = true;
                Vec::new()
            }
            Some(opts) => outcome
                .results
                .iter()
                .map(|r| Explanation {
                    doc: r.doc,
                    paths: explain(index, &outcome.embedding, r.doc, opts.max_len, opts.max_paths),
                })
                .collect(),
            None => Vec::new(),
        };
        SearchResponse {
            results: outcome.results,
            embedding: outcome.embedding,
            timer: outcome.timer,
            cache: outcome.cache,
            explanations,
            timed_out,
            prune: outcome.prune,
            parallel: ParallelShell::default(),
        }
    }

    /// Execute many requests, in parallel per `config.threads` (0 = match
    /// the machine). Responses preserve input order; the batch timer
    /// aggregates every per-query component timer plus a `"batch"` entry
    /// for the whole call's wall-clock.
    pub fn execute_batch(&self, index: &NewsLinkIndex, requests: &[SearchRequest]) -> BatchResponse {
        let t0 = Instant::now();
        let threads = self.config.effective_threads(requests.len());
        let responses = parallel_map(requests, threads, |r| self.execute(index, r));
        let mut timer = ComponentTimer::new();
        for response in &responses {
            timer.merge(&response.timer);
        }
        timer.record("batch", t0.elapsed());
        BatchResponse { responses, timer }
    }

    /// Counter snapshot of every cache tier (all zeros when caching is
    /// disabled).
    pub fn cache_stats(&self) -> EngineCacheStats {
        self.caches
            .as_ref()
            .map(|c| c.stats())
            .unwrap_or_default()
    }

    /// Drop all cached entries (counters survive; capacity is unchanged).
    pub fn clear_caches(&self) {
        if let Some(c) = &self.caches {
            c.clear();
        }
    }

    /// Relationship-path explanations for one result.
    pub fn explain(
        &self,
        index: &NewsLinkIndex,
        query_embedding: &DocEmbedding,
        doc: DocId,
        max_len: usize,
        max_paths: usize,
    ) -> Vec<RelationshipPath> {
        explain(index, query_embedding, doc, max_len, max_paths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use newslink_kg::{synth, SynthConfig};

    #[test]
    fn end_to_end_on_synthetic_world() {
        let world = synth::generate(&SynthConfig::small(3));
        let labels = LabelIndex::build(&world.graph);
        let engine = NewsLink::new(&world.graph, &labels, NewsLinkConfig::default());

        // Two documents about the same country.
        let country = world.graph.label(world.countries[0]);
        let city = world.graph.label(world.cities[0]);
        let docs = vec![
            format!("Tensions rose in {country} as officials met in {city}."),
            format!("A festival in {city} drew visitors from across {country}."),
            "Completely unrelated filler text with no entity names.".to_string(),
        ];
        let index = engine.index_corpus(&docs);
        assert_eq!(index.doc_count(), 3);

        let outcome = engine.search(&index, &format!("News about {country}."), 3);
        assert!(!outcome.results.is_empty());
        let top = outcome.results[0].doc;
        assert!(top.0 < 2, "entity-bearing docs must rank above filler");
    }

    #[test]
    fn execute_matches_search_and_reports_cache_activity() {
        let world = synth::generate(&SynthConfig::small(5));
        let labels = LabelIndex::build(&world.graph);
        let engine = NewsLink::new(&world.graph, &labels, NewsLinkConfig::default());
        let country = world.graph.label(world.countries[0]);
        let docs = vec![
            format!("Officials from {country} signed the accord."),
            format!("Protests spread across {country} overnight."),
        ];
        let index = engine.index_corpus(&docs);
        assert!(index.cache_stats.lookups() > 0, "indexing must exercise the cache");

        let query = format!("latest news from {country}");
        let request = SearchRequest::new(&query).with_k(5);
        let cold = engine.execute(&index, &request);
        assert!(cold.cache.enabled && !cold.cache.query_hit);
        let warm = engine.execute(&index, &request);
        assert!(warm.cache.query_hit, "repeat request must hit the query memo");
        assert_eq!(warm.results, cold.results);
        assert_eq!(warm.results, engine.search(&index, &query, 5).results);

        let stats = engine.cache_stats();
        assert!(stats.queries.hits >= 1);
        assert!(stats.combined().lookups() > 0);

        // Bypassing the cache still returns identical results.
        let bypass = engine.execute(&index, &request.clone().without_cache());
        assert!(!bypass.cache.enabled);
        assert_eq!(bypass.results, cold.results);

        engine.clear_caches();
        assert_eq!(engine.cache_stats().queries.entries, 0);
        let after_clear = engine.execute(&index, &request);
        assert!(!after_clear.cache.query_hit);
        assert_eq!(after_clear.results, cold.results);
    }

    #[test]
    fn execute_batch_aggregates_and_explains() {
        let world = synth::generate(&SynthConfig::small(6));
        let labels = LabelIndex::build(&world.graph);
        let engine = NewsLink::new(
            &world.graph,
            &labels,
            NewsLinkConfig::default().with_threads(2),
        );
        let country = world.graph.label(world.countries[0]);
        let city = world.graph.label(world.cities[0]);
        let docs = vec![
            format!("Tensions rose in {country} as officials met in {city}."),
            format!("A festival in {city} drew visitors from {country}."),
        ];
        let index = engine.index_corpus(&docs);
        let requests = vec![
            crate::api::SearchRequest::new(format!("news about {country}")).explained(),
            crate::api::SearchRequest::new(format!("events in {city}")).with_beta(1.0),
            crate::api::SearchRequest::new(format!("news about {country}")).explained(),
        ];
        let batch = engine.execute_batch(&index, &requests);
        assert_eq!(batch.responses.len(), 3);
        assert_eq!(batch.timer.count("batch"), 1);
        assert_eq!(batch.timer.count("nlp"), 3);
        // Explained requests carry one explanation per result.
        for r in [&batch.responses[0], &batch.responses[2]] {
            assert_eq!(r.explanations.len(), r.results.len());
        }
        assert!(batch.responses[1].explanations.is_empty());
        // β-override request used pure BON.
        for hit in &batch.responses[1].results {
            assert_eq!(hit.bow, 0.0);
        }
    }

    #[test]
    fn zero_budget_times_out_with_partial_timer() {
        let world = synth::generate(&SynthConfig::small(9));
        let labels = LabelIndex::build(&world.graph);
        let engine = NewsLink::new(&world.graph, &labels, NewsLinkConfig::default());
        let country = world.graph.label(world.countries[0]);
        let docs = vec![format!("A summit was held in {country}.")];
        let index = engine.index_corpus(&docs);
        let query = format!("summit {country}");

        // Zero budget: NLP + NE run, the gate before scoring fires.
        let strict = SearchRequest::new(&query)
            .explained()
            .with_timeout(std::time::Duration::ZERO);
        let out = engine.execute(&index, &strict);
        assert!(out.timed_out);
        assert!(out.results.is_empty() && out.explanations.is_empty());
        assert_eq!(out.timer.count("nlp"), 1);
        assert_eq!(out.timer.count("ns"), 0, "partial report stops at the gate");

        // A generous budget behaves exactly like no deadline.
        let relaxed = SearchRequest::new(&query)
            .explained()
            .with_timeout(std::time::Duration::from_secs(3600));
        let ok = engine.execute(&index, &relaxed);
        assert!(!ok.timed_out);
        let unbounded = engine.execute(&index, &SearchRequest::new(&query).explained());
        assert_eq!(ok.results, unbounded.results);
        assert_eq!(ok.explanations.len(), ok.results.len());

        // Batches surface the per-request flags.
        let batch = engine.execute_batch(&index, &[strict, relaxed]);
        assert_eq!(batch.timed_out(), 1);
    }

    #[test]
    fn insert_and_delete_mutate_a_built_index() {
        let world = synth::generate(&SynthConfig::small(8));
        let labels = LabelIndex::build(&world.graph);
        let engine = NewsLink::new(&world.graph, &labels, NewsLinkConfig::default());
        let country = world.graph.label(world.countries[0]);
        let city = world.graph.label(world.cities[0]);
        let docs = vec![
            format!("Officials from {country} signed the accord."),
            format!("A festival in {city} drew visitors."),
        ];
        let mut index = engine.index_corpus(&docs);
        assert_eq!(index.doc_count(), 2);

        let extra = format!("Protests spread across {country} overnight.");
        let id = engine.insert_document(&mut index, &extra);
        assert_eq!(id.0, 2, "fresh id after the build");
        assert_eq!(index.doc_count(), 3);
        assert!(index.segment_count() <= engine.config().max_segments);

        // The mutated index scores exactly like a fresh build of the same
        // three documents.
        let full_docs = vec![docs[0].clone(), docs[1].clone(), extra.clone()];
        let rebuilt = engine.index_corpus(&full_docs);
        let q = format!("news about {country}");
        let a = engine.search(&index, &q, 5);
        let b = engine.search(&rebuilt, &q, 5);
        assert_eq!(a.results.len(), b.results.len());
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.doc, y.doc);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }

        // Deletion hides the doc immediately and compaction expunges it.
        assert!(engine.delete_document(&mut index, id));
        assert!(!engine.delete_document(&mut index, id));
        assert_eq!(index.doc_count(), 2);
        let after = engine.search(&index, &q, 5);
        assert!(after.results.iter().all(|r| r.doc != id));
        index.compact();
        assert_eq!(index.tombstone_count(), 0);
        let compacted = engine.search(&index, &q, 5);
        let baseline = engine.search(&engine.index_corpus(&docs), &q, 5);
        assert_eq!(compacted.results.len(), baseline.results.len());
        for (x, y) in compacted.results.iter().zip(&baseline.results) {
            assert_eq!(x.doc, y.doc);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
    }

    #[test]
    fn disabled_cache_engine_still_works() {
        let world = synth::generate(&SynthConfig::small(7));
        let labels = LabelIndex::build(&world.graph);
        let engine = NewsLink::new(
            &world.graph,
            &labels,
            NewsLinkConfig::default().without_cache(),
        );
        let country = world.graph.label(world.countries[0]);
        let docs = vec![format!("A summit was held in {country}.")];
        let index = engine.index_corpus(&docs);
        assert_eq!(index.cache_stats.lookups(), 0);
        let out = engine.execute(&index, &SearchRequest::new(format!("summit {country}")));
        assert!(!out.cache.enabled);
        assert_eq!(engine.cache_stats(), Default::default());
    }

    #[test]
    fn accessors_expose_parts() {
        let world = synth::generate(&SynthConfig::small(4));
        let labels = LabelIndex::build(&world.graph);
        let engine = NewsLink::new(&world.graph, &labels, NewsLinkConfig::default());
        assert_eq!(engine.config().beta, 0.2);
        assert_eq!(
            engine.graph().node_count(),
            world.graph.node_count()
        );
        assert!(!engine.label_index().is_empty());
    }
}
