//! The user-facing NewsLink facade.
//!
//! Wires together the NLP, NE and NS components (Figure 2 of the paper)
//! behind one handle. Typical use:
//!
//! ```
//! use newslink_core::{NewsLink, NewsLinkConfig, SearchRequest};
//! use newslink_kg::{synth, LabelIndex, SynthConfig};
//!
//! let world = synth::generate(&SynthConfig::small(7));
//! let labels = LabelIndex::build(&world.graph);
//! let engine = NewsLink::new(&world.graph, &labels, NewsLinkConfig::default());
//!
//! let docs = vec!["Some news text mentioning entities.".to_string()];
//! let index = engine.index_corpus(&docs);
//! let response = engine.execute(&index, &SearchRequest::new("entities in the news").with_k(5));
//! for hit in &response.results {
//!     println!("doc {} scored {:.3}", hit.doc.0, hit.score);
//! }
//! ```

use std::time::{Duration, Instant};

use newslink_embed::{bon_terms, relationship_paths, DocEmbedding, RelationshipPath};
use newslink_kg::{KnowledgeGraph, LabelIndex};
use newslink_nlp::MatchStats;
use newslink_text::DocId;
use newslink_util::ComponentTimer;

use crate::api::{
    BatchResponse, Explanation, ParallelShell, QueryCacheInfo, SearchRequest, SearchResponse,
};
use crate::cache::{EngineCacheStats, EngineCaches};
use crate::config::NewsLinkConfig;
use crate::indexer::{build_stripe, embed_one_with, NewsLinkIndex};
use crate::persist::PersistError;
use crate::searcher::{analyze_query_text, parallel_map, run_query};
use crate::segment::{CompactionPlan, IndexSegment};

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

/// A document insert computed by [`NewsLink::prepare_insert`] under
/// shared access to an index and published by
/// [`NewsLink::install_insert`] under exclusive access: the sealed
/// one-document segment, the id it will be installed under, and every
/// merge the follow-up compaction runs.
#[derive(Debug)]
pub struct PreparedInsert {
    id: DocId,
    /// `(generation, compactions)` of the index the plan was made from.
    basis: (u64, u64),
    segment: IndexSegment,
    compaction: CompactionPlan,
    nlp: Duration,
    ne: Duration,
    match_stats: MatchStats,
    embedded: bool,
}

impl PreparedInsert {
    /// The id the document will be installed under — what a write-ahead
    /// log must record before the install.
    pub fn id(&self) -> DocId {
        self.id
    }
}

/// What [`NewsLink::install_insert`] hands back: the id the document was
/// installed under, plus the segments its merges replaced. Freeing those
/// is the one costly part of an install (every merged-away posting list
/// and dictionary), so it happens when this value drops — after the
/// caller has released the index's write lock.
#[derive(Debug)]
#[must_use = "dropping it frees the replaced segments: drop it after releasing the index lock"]
pub struct InstalledInsert {
    id: DocId,
    _retired: Vec<IndexSegment>,
}

impl InstalledInsert {
    /// The installed document's id.
    pub fn id(&self) -> DocId {
        self.id
    }
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
        self.index_corpus_sharded(texts, 0, 1)
    }

    /// Embed and index this engine's stripe of a corpus: documents whose
    /// position `i` satisfies `i % shard_count == shard` are indexed
    /// under their *global* id `i`, and the index's id allocator mints
    /// only ids on that stripe afterwards. The union of every shard's
    /// stripe over the same corpus covers exactly the documents (and
    /// ids) of a single [`index_corpus`](Self::index_corpus) build.
    /// `shard >= shard_count` is a caller bug and panics.
    pub fn index_corpus_sharded<S: AsRef<str> + Sync>(
        &self,
        texts: &[S],
        shard: u32,
        shard_count: u32,
    ) -> NewsLinkIndex {
        assert!(
            shard_count > 0 && shard < shard_count,
            "stripe {shard} of {shard_count} is malformed"
        );
        build_stripe(
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
    /// like [`execute`](Self::execute).
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
    ///
    /// This is [`prepare_insert`](Self::prepare_insert) followed by
    /// [`install_insert`](Self::install_insert); a server that must keep
    /// answering searches calls the two halves around its lock instead.
    pub fn insert_document(&self, index: &mut NewsLinkIndex, text: &str) -> DocId {
        let prepared = self.prepare_insert(index, text);
        self.install_insert(index, prepared).id()
    }

    /// The expensive half of [`insert_document`](Self::insert_document),
    /// under shared access: embed `text`, seal it as a one-document
    /// segment under the id `index` will mint next, and build every merge
    /// the compaction after installing it will run. Nothing in `index`
    /// changes; the result is valid for [`install_insert`](Self::install_insert)
    /// only while `index` stays exactly as it is now.
    pub fn prepare_insert(&self, index: &NewsLinkIndex, text: &str) -> PreparedInsert {
        let artifacts = embed_one_with(
            self.graph,
            self.label_index,
            &self.config,
            self.caches.as_ref().map(|c| &c.embed),
            text,
        );
        let id = DocId(index.next_id);
        let nlp = Duration::from_nanos(artifacts.nlp_nanos);
        let ne = Duration::from_nanos(artifacts.ne_nanos);
        let match_stats = artifacts.analysis.stats;
        let embedded = !artifacts.embedding.is_empty();
        let segment = IndexSegment::build(vec![(id.0, artifacts)]);
        let compaction = index.plan_compaction(Some(&segment), self.config.max_segments);
        PreparedInsert {
            id,
            basis: (index.generation, index.compactions),
            segment,
            compaction,
            nlp,
            ne,
            match_stats,
            embedded,
        }
    }

    /// The publishing half of [`insert_document`](Self::insert_document),
    /// under exclusive access: reserve the prepared id, append the sealed
    /// segment, splice in the planned merges, drop the tombstones they
    /// expunge and bump the generation. Returns the prepared id together
    /// with the segments the merges replaced, whose memory is freed when
    /// the returned value drops — outside the caller's lock, if it holds
    /// one.
    ///
    /// # Panics
    ///
    /// When `index` changed since `prepared` was made (another mutation,
    /// compaction or id-stripe change ran in between, or the plan came
    /// from a different index). The check runs before anything is
    /// touched, so a refused plan leaves `index` as it was and never
    /// lands under an id other than [`PreparedInsert::id`] — the id a
    /// write-ahead log recorded. Callers hold one lock across both halves,
    /// which makes this unreachable.
    pub fn install_insert(
        &self,
        index: &mut NewsLinkIndex,
        prepared: PreparedInsert,
    ) -> InstalledInsert {
        assert!(
            prepared.basis == (index.generation, index.compactions)
                && prepared.id.0 == index.next_id,
            "stale insert plan: the index changed between prepare_insert and install_insert"
        );
        index.timer.record("nlp", prepared.nlp);
        index.timer.record("ne", prepared.ne);
        index.match_stats.identified += prepared.match_stats.identified;
        index.match_stats.matched += prepared.match_stats.matched;
        if prepared.embedded {
            index.embedded_docs += 1;
        }
        let id = index.reserve_id();
        index.install_segment(prepared.segment);
        InstalledInsert {
            id,
            _retired: index.apply_compaction(prepared.compaction),
        }
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

    /// Execute one declarative [`SearchRequest`]: blended top-k search
    /// (the *query processing* half), through the engine caches unless
    /// the request opts out.
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
            .map(|ms| Instant::now() + Duration::from_millis(ms));
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
                    paths: self.explain(
                        index,
                        &outcome.embedding,
                        r.doc,
                        opts.max_len,
                        opts.max_paths,
                    ),
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
        let responses =
            parallel_map(requests.iter().collect(), threads, |r| self.execute(index, r));
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

    /// Relationship-path explanations for one result: paths linking the
    /// query's entities to the document's entities through the overlap of
    /// their subgraph embeddings (§VII-E). Empty for unknown or deleted
    /// documents.
    pub fn explain(
        &self,
        index: &NewsLinkIndex,
        query_embedding: &DocEmbedding,
        doc: DocId,
        max_len: usize,
        max_paths: usize,
    ) -> Vec<RelationshipPath> {
        match index.embedding(doc) {
            Some(doc_embedding) => {
                relationship_paths(query_embedding, doc_embedding, max_len, max_paths)
            }
            None => Vec::new(),
        }
    }
}

/// Shorthands for the crate's unit tests that need only a built index or
/// one uncached query.
#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// Index `docs` with a fresh engine configured by `config`.
    pub(crate) fn index_corpus(
        graph: &KnowledgeGraph,
        labels: &LabelIndex,
        config: &NewsLinkConfig,
        docs: &[&str],
    ) -> NewsLinkIndex {
        NewsLink::new(graph, labels, config.clone()).index_corpus(docs)
    }

    /// One uncached top-`k` query through an engine configured by `config`.
    pub(crate) fn search(
        graph: &KnowledgeGraph,
        labels: &LabelIndex,
        config: &NewsLinkConfig,
        index: &NewsLinkIndex,
        query: &str,
        k: usize,
    ) -> SearchResponse {
        NewsLink::new(graph, labels, config.clone().without_cache())
            .execute(index, &SearchRequest::new(query).with_k(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::searcher::SearchResult;
    use newslink_kg::{synth, SynthConfig};

    fn search(
        engine: &NewsLink<'_>,
        index: &NewsLinkIndex,
        q: &str,
        k: usize,
    ) -> Vec<SearchResult> {
        engine.execute(index, &SearchRequest::new(q).with_k(k)).results
    }

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

        let results = search(&engine, &index, &format!("News about {country}."), 3);
        assert!(!results.is_empty());
        let top = results[0].doc;
        assert!(top.0 < 2, "entity-bearing docs must rank above filler");
    }

    #[test]
    fn execute_is_cache_transparent_and_reports_cache_activity() {
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

        let stats = engine.cache_stats();
        assert!(stats.queries.hits >= 1);
        assert!(stats.combined().lookups() > 0);

        // Bypassing the cache still returns identical results.
        let bypass = engine.execute(&index, &request.clone().without_cache());
        assert!(!bypass.cache.enabled);
        assert_eq!(bypass.results, cold.results);
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
        let a = search(&engine, &index, &q, 5);
        let b = search(&engine, &rebuilt, &q, 5);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.doc, y.doc);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }

        // Deletion hides the doc immediately and compaction expunges it.
        assert!(engine.delete_document(&mut index, id));
        assert!(!engine.delete_document(&mut index, id));
        assert_eq!(index.doc_count(), 2);
        let after = search(&engine, &index, &q, 5);
        assert!(after.iter().all(|r| r.doc != id));
        index.compact();
        assert_eq!(index.tombstone_count(), 0);
        let compacted = search(&engine, &index, &q, 5);
        let baseline = search(&engine, &engine.index_corpus(&docs), &q, 5);
        assert_eq!(compacted.len(), baseline.len());
        for (x, y) in compacted.iter().zip(&baseline) {
            assert_eq!(x.doc, y.doc);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
    }

    /// Everything an insert or delete can change about an index's shape:
    /// per-segment ids, sorted tombstones, merges, the id allocator and
    /// the indexing statistics.
    fn shape(index: &NewsLinkIndex) -> (Vec<Vec<u32>>, Vec<u32>, u64, u32, usize, MatchStats) {
        let mut tombstones: Vec<u32> = index.tombstones.iter().copied().collect();
        tombstones.sort_unstable();
        (
            index
                .segments()
                .iter()
                .map(|s| s.globals().to_vec())
                .collect(),
            tombstones,
            index.compactions(),
            index.next_id,
            index.embedded_docs,
            index.match_stats,
        )
    }

    /// The unsplit insert: reserve, seal, install, then let `compact`
    /// bring the segment count back under `max_segments` in place.
    fn insert_in_place(
        engine: &NewsLink<'_>,
        index: &mut NewsLinkIndex,
        text: &str,
        compact: fn(&mut NewsLinkIndex, usize),
    ) -> DocId {
        let a = embed_one_with(
            engine.graph,
            engine.label_index,
            &engine.config,
            engine.caches.as_ref().map(|c| &c.embed),
            text,
        );
        index.match_stats.identified += a.analysis.stats.identified;
        index.match_stats.matched += a.analysis.stats.matched;
        if !a.embedding.is_empty() {
            index.embedded_docs += 1;
        }
        let id = index.reserve_id();
        index.install_segment(IndexSegment::build(vec![(id.0, a)]));
        compact(index, engine.config.max_segments);
        id
    }

    /// Compaction as one merge at a time in place: the adjacent pair with
    /// the fewest live documents (first such pair on ties), expunging its
    /// tombstones, until at most `max` segments remain.
    fn compact_by_pairs(index: &mut NewsLinkIndex, max: usize) {
        while index.segments.len() > max.max(1) {
            let live = |i: usize| index.segments[i].live_count(&index.tombstones);
            let best = (0..index.segments.len() - 1)
                .min_by_key(|&i| live(i) + live(i + 1))
                .expect("two segments");
            let b = index.segments.remove(best + 1);
            let a = index.segments.remove(best);
            let merged = IndexSegment::merge(&a, &b, &index.tombstones);
            for g in a.globals().iter().chain(b.globals()) {
                index.tombstones.remove(g);
            }
            if !merged.is_empty() {
                index.segments.insert(best, merged);
            }
            index.compactions += 1;
        }
    }

    /// Prepare-then-install is the in-place insert: after every step of
    /// one insert/delete sequence, `insert_document` (prepare + install)
    /// leaves the same segments, tombstones and merge count as
    /// `install_segment` + `compact_to`, and as one-pair-at-a-time
    /// compaction.
    #[test]
    fn prepared_insert_matches_insert_then_compact() {
        let world = synth::generate(&SynthConfig::small(8));
        let labels = LabelIndex::build(&world.graph);
        let country = world.graph.label(world.countries[0]);
        let city = world.graph.label(world.cities[0]);
        let texts: Vec<String> = (0..9)
            .map(|i| match i % 3 {
                0 => format!("Officials from {country} met in {city}, report {i}."),
                1 => format!("A festival in {city} drew crowds, day {i}."),
                _ => format!("Unrelated filler story number {i}."),
            })
            .collect();
        for max_segments in [1, 3] {
            let config = NewsLinkConfig::default()
                .with_segment_docs(2)
                .with_max_segments(max_segments);
            let engine = NewsLink::new(&world.graph, &labels, config);
            let mut split = engine.index_corpus(&texts[..4]);
            let mut in_place = engine.index_corpus(&texts[..4]);
            let mut by_pairs = engine.index_corpus(&texts[..4]);
            let mut inserted = Vec::new();
            for (step, text) in texts[4..].iter().enumerate() {
                let id = engine.insert_document(&mut split, text);
                let compact_to = |i: &mut NewsLinkIndex, max| {
                    i.compact_to(max);
                };
                assert_eq!(
                    insert_in_place(&engine, &mut in_place, text, compact_to),
                    id
                );
                assert_eq!(
                    insert_in_place(&engine, &mut by_pairs, text, compact_by_pairs),
                    id
                );
                inserted.push(id);
                // Every other step, retract an older document: one from
                // the initial build, then the previous insert.
                let victim = match step % 4 {
                    1 => Some(DocId(step as u32 / 4)),
                    3 => Some(inserted[step - 1]),
                    _ => None,
                };
                if let Some(victim) = victim {
                    for index in [&mut split, &mut in_place, &mut by_pairs] {
                        assert!(engine.delete_document(index, victim), "step {step}");
                    }
                }
                let want = shape(&split);
                assert_eq!(shape(&in_place), want, "max {max_segments} step {step}");
                assert_eq!(shape(&by_pairs), want, "max {max_segments} step {step}");
            }
            assert!(split.compactions() > 0, "the sequence must exercise merges");
            let q = format!("news from {city} in {country}");
            let a = search(&engine, &split, &q, 5);
            let b = search(&engine, &by_pairs, &q, 5);
            assert!(!a.is_empty());
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!((x.doc, x.score.to_bits()), (y.doc, y.score.to_bits()));
            }
        }
    }

    /// A plan made before another mutation is refused before it touches
    /// anything — whether the index gained a tombstone, a document or
    /// only a compaction in between.
    #[test]
    fn stale_prepared_insert_is_refused() {
        let world = synth::generate(&SynthConfig::small(8));
        let labels = LabelIndex::build(&world.graph);
        let country = world.graph.label(world.countries[0]);
        let engine = NewsLink::new(
            &world.graph,
            &labels,
            NewsLinkConfig::default().with_segment_docs(1),
        );
        let docs: Vec<String> = (0..4)
            .map(|i| format!("Report {i} from {country}."))
            .collect();
        let text = format!("Late news from {country}.");
        let interleaved: [fn(&NewsLink<'_>, &mut NewsLinkIndex); 3] = [
            |e, i| assert!(e.delete_document(i, DocId(1))),
            |e, i| {
                e.insert_document(i, "An unrelated insert.");
            },
            |_, i| assert!(i.compact_to(1) > 0),
        ];
        for mutate in interleaved {
            let mut index = engine.index_corpus(&docs);
            let prepared = engine.prepare_insert(&index, &text);
            assert_eq!(prepared.id(), DocId(4));
            mutate(&engine, &mut index);
            let (before, generation) = (shape(&index), index.generation());
            let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.install_insert(&mut index, prepared)
            }));
            assert!(refused.is_err(), "a stale plan must be refused");
            assert_eq!(shape(&index), before, "a refused plan changes nothing");
            assert_eq!(index.generation(), generation);
            // A fresh plan against the mutated index installs normally.
            let fresh = engine.prepare_insert(&index, &text);
            let id = fresh.id();
            assert_eq!(engine.install_insert(&mut index, fresh).id(), id);
            assert!(index.is_live(id));
        }
    }

    #[test]
    fn repeated_insert_hits_the_group_memo() {
        let world = synth::generate(&SynthConfig::small(8));
        let labels = LabelIndex::build(&world.graph);
        let engine = NewsLink::new(&world.graph, &labels, NewsLinkConfig::default());
        let country = world.graph.label(world.countries[0]);
        let city = world.graph.label(world.cities[0]);
        let text = format!("Officials from {country} met in {city}.");
        let mut index = engine.index_corpus::<&str>(&[]);
        engine.insert_document(&mut index, &text);
        let first = engine.cache_stats().groups;
        assert!(first.misses > 0, "the first insert embeds its groups");
        // Same article again: every entity group is memoized.
        engine.insert_document(&mut index, &text);
        let second = engine.cache_stats().groups;
        assert_eq!(second.misses, first.misses);
        assert!(second.hits > first.hits);
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
