//! Incremental NewsLink: the full blended engine over growing corpora.
//!
//! A news search deployment ingests a stream; re-embedding and re-indexing
//! the whole corpus per article (the frozen [`crate::indexer`] path) does
//! not scale. [`LiveNewsLink`] wraps the same segmented
//! [`NewsLinkIndex`] the frozen engine searches, plus one *open* mutable
//! segment: [`add_document`](LiveNewsLink::add_document) buffers analyzed
//! documents there, [`commit`](LiveNewsLink::commit) seals the buffer
//! into an immutable [`IndexSegment`] and compacts small segments back
//! under the configured ceiling. Search simply runs the shared segmented
//! query path, so live results are bit-identical to a frozen index over
//! the same live documents.

use newslink_embed::{relationship_paths, DocEmbedding, RelationshipPath};
use newslink_kg::{KnowledgeGraph, LabelIndex};
use newslink_text::DocId;
use newslink_util::{CacheStats, FxHashSet};

use crate::cache::EngineCaches;
use crate::config::NewsLinkConfig;
use crate::indexer::{embed_one_with, DocArtifacts, NewsLinkIndex};
use crate::searcher::run_query;
use crate::segment::{IndexSegment, IndexStats};

/// A blended hit from the live engine.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveHit {
    /// Stable document id.
    pub id: DocId,
    /// Blended score.
    pub score: f64,
}

/// The incremental NewsLink engine.
pub struct LiveNewsLink<'g> {
    graph: &'g KnowledgeGraph,
    label_index: &'g LabelIndex,
    config: NewsLinkConfig,
    index: NewsLinkIndex,
    /// The open segment: embedded documents not yet sealed. Ids are
    /// reserved at add time and never reused, even when the document is
    /// deleted before its first commit.
    pending: Vec<(u32, DocArtifacts)>,
    /// Buffered documents deleted before sealing (dropped at commit).
    pending_deleted: FxHashSet<u32>,
    /// Engine caches shared by ingestion and search. Entries key on the
    /// immutably borrowed graph, never on document state, so add / delete
    /// / commit require no invalidation — a stream of near-duplicate
    /// articles embeds its recurring entity groups once.
    caches: Option<EngineCaches>,
    max_segments: usize,
}

impl<'g> LiveNewsLink<'g> {
    /// Create an empty live engine; `max_segments` bounds the index's
    /// segment count after every commit.
    pub fn new(
        graph: &'g KnowledgeGraph,
        label_index: &'g LabelIndex,
        config: NewsLinkConfig,
        max_segments: usize,
    ) -> Self {
        let caches = EngineCaches::from_config(&config.cache);
        Self {
            graph,
            label_index,
            config,
            index: NewsLinkIndex::empty(),
            pending: Vec::new(),
            pending_deleted: FxHashSet::default(),
            caches,
            max_segments: max_segments.max(1),
        }
    }

    /// Group-memo counters of the live embedding cache (zeros when
    /// caching is disabled).
    pub fn cache_stats(&self) -> CacheStats {
        self.caches
            .as_ref()
            .map(|c| c.embed.group_stats())
            .unwrap_or_default()
    }

    /// The committed segmented index (for stats and advanced callers).
    pub fn index(&self) -> &NewsLinkIndex {
        &self.index
    }

    /// Segment / tombstone / compaction gauges of the committed index.
    pub fn stats(&self) -> IndexStats {
        self.index.stats()
    }

    /// Analyze, embed and buffer one document in the open segment;
    /// returns its stable id. Searchable after the next
    /// [`commit`](Self::commit).
    pub fn add_document(&mut self, text: &str) -> DocId {
        let artifacts = embed_one_with(
            self.graph,
            self.label_index,
            &self.config,
            self.caches.as_ref().map(|c| &c.embed),
            text,
        );
        self.index
            .timer
            .record("nlp", std::time::Duration::from_nanos(artifacts.nlp_nanos));
        self.index
            .timer
            .record("ne", std::time::Duration::from_nanos(artifacts.ne_nanos));
        let id = self.index.reserve_id();
        self.pending.push((id.0, artifacts));
        id
    }

    /// Delete a document (buffered or committed).
    pub fn delete_document(&mut self, id: DocId) -> bool {
        if self.pending_deleted.contains(&id.0) {
            return false;
        }
        if self.pending.iter().any(|(g, _)| *g == id.0) {
            self.pending_deleted.insert(id.0);
            return true;
        }
        self.index.delete(id)
    }

    /// Seal the open segment into an immutable one, then compact adjacent
    /// small segments until at most `max_segments` remain (expunging
    /// tombstones along the way).
    pub fn commit(&mut self) {
        if !self.pending.is_empty() {
            let pending = std::mem::take(&mut self.pending);
            let retained: Vec<(u32, DocArtifacts)> = pending
                .into_iter()
                .filter(|(g, _)| !self.pending_deleted.contains(g))
                .collect();
            if !retained.is_empty() {
                for (_, a) in &retained {
                    self.index.match_stats.identified += a.analysis.stats.identified;
                    self.index.match_stats.matched += a.analysis.stats.matched;
                    if !a.embedding.is_empty() {
                        self.index.embedded_docs += 1;
                    }
                }
                let segment = IndexSegment::build(retained);
                self.index.install_segment(segment);
            }
        }
        self.pending_deleted.clear();
        self.index.compact_to(self.max_segments);
    }

    /// Live document count (including uncommitted).
    pub fn doc_count(&self) -> usize {
        self.index.doc_count()
            + self
                .pending
                .iter()
                .filter(|(g, _)| !self.pending_deleted.contains(g))
                .count()
    }

    /// The stored embedding of a live document (committed or buffered).
    pub fn embedding(&self, id: DocId) -> Option<&DocEmbedding> {
        if let Some(e) = self.index.embedding(id) {
            return Some(e);
        }
        if self.pending_deleted.contains(&id.0) {
            return None;
        }
        self.pending
            .iter()
            .find(|(g, _)| *g == id.0)
            .map(|(_, a)| &a.embedding)
    }

    /// Blended top-k search over committed documents — the exact frozen
    /// query path (Equation 3, per-segment scoring, normalization) over the live
    /// index.
    pub fn search(&self, query_text: &str, k: usize) -> (Vec<LiveHit>, DocEmbedding) {
        let outcome = run_query(
            self.graph,
            self.label_index,
            &self.config,
            &self.index,
            self.caches.as_ref(),
            query_text,
            k,
            None,
            None,
        );
        let hits = outcome
            .results
            .into_iter()
            .map(|r| LiveHit {
                id: r.doc,
                score: r.score,
            })
            .collect();
        (hits, outcome.embedding)
    }

    /// Relationship-path explanations for a live result.
    pub fn explain(
        &self,
        query_embedding: &DocEmbedding,
        id: DocId,
        max_len: usize,
        max_paths: usize,
    ) -> Vec<RelationshipPath> {
        match self.embedding(id) {
            Some(result) => relationship_paths(query_embedding, result, max_len, max_paths),
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::indexer::index_corpus;
    use crate::searcher::search;
    use newslink_kg::{EntityType, GraphBuilder};

    fn world() -> (KnowledgeGraph, LabelIndex) {
        let mut b = GraphBuilder::new();
        let khyber = b.add_node("Khyber", EntityType::Gpe);
        let kunar = b.add_node("Kunar", EntityType::Gpe);
        let taliban = b.add_node("Taliban", EntityType::Organization);
        let pakistan = b.add_node("Pakistan", EntityType::Gpe);
        let lahore = b.add_node("Lahore", EntityType::Gpe);
        b.add_edge(kunar, khyber, "borders", 1);
        b.add_edge(taliban, kunar, "operates in", 1);
        b.add_edge(khyber, pakistan, "located in", 1);
        b.add_edge(lahore, pakistan, "located in", 1);
        let g = b.freeze();
        let idx = LabelIndex::build(&g);
        (g, idx)
    }

    const DOCS: &[&str] = &[
        "Taliban attacked Kunar. Pakistan responded near Khyber.",
        "Explosions rocked Lahore. Pakistan blamed Taliban.",
        "A plain story with no known names at all.",
    ];

    #[test]
    fn live_matches_frozen_engine() {
        let (g, li) = world();
        let cfg = NewsLinkConfig::default();
        // Frozen reference (single segment).
        let frozen = index_corpus(&g, &li, &cfg, DOCS);
        // Live engine with per-doc commits and merging.
        let mut live = LiveNewsLink::new(&g, &li, cfg.clone(), 2);
        for d in DOCS {
            live.add_document(d);
            live.commit();
        }
        assert!(live.stats().compactions > 0, "merging actually happened");
        for q in ["Taliban near Kunar", "Explosions in Lahore", "Pakistan"] {
            let want = search(&g, &li, &cfg, &frozen, q, 3);
            let (got, _) = live.search(q, 3);
            assert_eq!(got.len(), want.results.len(), "query {q}");
            for (x, y) in got.iter().zip(&want.results) {
                assert_eq!(x.id, y.doc, "query {q}");
                assert_eq!(
                    x.score.to_bits(),
                    y.score.to_bits(),
                    "query {q}: live {} vs frozen {}",
                    x.score,
                    y.score
                );
            }
        }
    }

    #[test]
    fn uncommitted_docs_invisible_then_searchable() {
        let (g, li) = world();
        let mut live = LiveNewsLink::new(&g, &li, NewsLinkConfig::default(), 4);
        let id = live.add_document(DOCS[0]);
        assert!(live.search("Taliban", 5).0.is_empty());
        live.commit();
        let (hits, _) = live.search("Taliban", 5);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, id);
    }

    #[test]
    fn deletion_removes_doc_and_embedding() {
        let (g, li) = world();
        let mut live = LiveNewsLink::new(&g, &li, NewsLinkConfig::default(), 4);
        let a = live.add_document(DOCS[0]);
        let b = live.add_document(DOCS[1]);
        live.commit();
        assert!(live.delete_document(a));
        assert!(live.embedding(a).is_none());
        assert!(live.embedding(b).is_some());
        live.commit();
        let (hits, _) = live.search("Taliban", 5);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, b);
        assert_eq!(live.doc_count(), 1);
    }

    #[test]
    fn buffered_delete_drops_doc_but_not_its_id() {
        let (g, li) = world();
        let mut live = LiveNewsLink::new(&g, &li, NewsLinkConfig::default(), 4);
        let a = live.add_document(DOCS[0]);
        assert!(live.delete_document(a), "buffered doc deletable");
        assert!(!live.delete_document(a), "double delete");
        assert!(live.embedding(a).is_none());
        live.commit();
        // The dropped buffered doc never consumed a segment slot, but its
        // id is not reused.
        let b = live.add_document(DOCS[1]);
        assert!(b.0 > a.0, "ids are never reused");
        live.commit();
        assert_eq!(live.doc_count(), 1);
        let (hits, _) = live.search("Taliban", 5);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, b);
    }

    #[test]
    fn explanations_work_on_live_results() {
        let (g, li) = world();
        let mut live = LiveNewsLink::new(
            &g,
            &li,
            NewsLinkConfig::default().with_beta(1.0),
            4,
        );
        for d in DOCS {
            live.add_document(d);
        }
        live.commit();
        let (hits, qe) = live.search("Taliban strikes in Kunar.", 3);
        let top = hits.first().expect("has hits");
        let paths = live.explain(&qe, top.id, 4, 10);
        assert!(!paths.is_empty());
        assert!(live.explain(&qe, DocId(999), 4, 10).is_empty());
    }

    #[test]
    fn repeated_ingestion_hits_the_cache() {
        let (g, li) = world();
        let mut live = LiveNewsLink::new(&g, &li, NewsLinkConfig::default(), 4);
        live.add_document(DOCS[0]);
        let after_first = live.cache_stats();
        // Same article again: every entity group is memoized.
        live.add_document(DOCS[0]);
        let after_second = live.cache_stats();
        assert_eq!(after_second.misses, after_first.misses);
        assert!(after_second.hits > after_first.hits);

        // Disabled cache keeps zeros and identical behaviour.
        let mut plain = LiveNewsLink::new(
            &g,
            &li,
            NewsLinkConfig::default().without_cache(),
            4,
        );
        plain.add_document(DOCS[0]);
        assert_eq!(plain.cache_stats(), CacheStats::default());
    }

    #[test]
    fn stable_ids_across_merges() {
        let (g, li) = world();
        let mut live = LiveNewsLink::new(&g, &li, NewsLinkConfig::default(), 1);
        let mut ids = Vec::new();
        for i in 0..8 {
            let text = format!("Update {i}: Taliban activity near Kunar continued.");
            ids.push(live.add_document(&text));
            live.commit();
        }
        // Merged down to one segment; every id still resolves.
        assert_eq!(live.stats().segments, 1);
        assert_eq!(live.stats().compactions, 7);
        let (hits, _) = live.search("Taliban Kunar", 10);
        assert_eq!(hits.len(), 8);
        for h in &hits {
            assert!(ids.contains(&h.id));
            assert!(live.embedding(h.id).is_some());
        }
    }
}
