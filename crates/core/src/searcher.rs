//! Query processing: the NS component's scoring half (§VI, Equation 3).
//!
//! A query is treated exactly like a document: NLP analysis, `G*`
//! embedding, then
//!
//! ```text
//! F(Tq, Tc) = (1-β) · F_BOW(Tq, Tc) + β · F_BON(G*q, G*c)
//! ```
//!
//! over the union of candidates from both inverted indexes (BM25 on each),
//! followed by top-k selection.

use std::sync::Arc;
use std::time::{Duration, Instant};

use newslink_embed::{bon_terms, DocEmbedding};
use newslink_kg::{KnowledgeGraph, LabelIndex};
use newslink_text::{Bm25, DocId, PruneStats};
use newslink_util::{ComponentTimer, FxHashMap, TopK};

use crate::api::QueryCacheInfo;
use crate::cache::{EngineCaches, QueryArtifacts};
use crate::config::NewsLinkConfig;
use crate::indexer::{embed_one_with, NewsLinkIndex};
use crate::segment::Side;

/// One blended search result.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SearchResult {
    /// The matched document.
    pub doc: DocId,
    /// The blended score `F`.
    pub score: f64,
    /// The BOW component, max-normalized.
    pub bow: f64,
    /// The BON component, max-normalized.
    pub bon: f64,
}

/// The artifacts of processing one query (reused for explanations).
#[derive(Debug)]
pub(crate) struct QueryOutcome {
    /// Ranked results, best first.
    pub(crate) results: Vec<SearchResult>,
    /// The query's own subgraph embedding.
    pub(crate) embedding: DocEmbedding,
    /// Per-component latency ("nlp", "ne", "ns").
    pub(crate) timer: ComponentTimer,
    /// How the engine's caches served this query (all-false when it
    /// bypassed them).
    pub(crate) cache: QueryCacheInfo,
    /// The deadline expired between pipeline stages; `results` is empty
    /// and `timer` reports only the stages that ran.
    pub(crate) timed_out: bool,
    /// Pruned-evaluator work counters (all zero on the exhaustive
    /// oracle path).
    pub(crate) prune: PruneStats,
}

/// Max-normalize per-segment score maps in place against their *global*
/// maximum. `max` over a set is order-independent, so this is
/// bit-identical to normalizing one monolithic map.
fn max_normalize_parts(parts: &mut [FxHashMap<DocId, f64>]) {
    let max = parts
        .iter()
        .flat_map(|m| m.values().copied())
        .fold(0.0f64, f64::max);
    if max > 0.0 {
        for m in parts.iter_mut() {
            for v in m.values_mut() {
                *v /= max;
            }
        }
    }
}

/// The full query path: NLP + NE (through `caches` when provided), then
/// Equation 3 blended scoring and top-k. `beta_override` replaces the
/// configured β for this query only. `deadline` is the request's time
/// budget, checked between pipeline stages: if it has passed once NLP +
/// NE finish, scoring is skipped and the outcome comes back
/// [`timed_out`](QueryOutcome::timed_out) with the partial timer.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_query(
    graph: &KnowledgeGraph,
    label_index: &LabelIndex,
    config: &NewsLinkConfig,
    index: &NewsLinkIndex,
    caches: Option<&EngineCaches>,
    query_text: &str,
    k: usize,
    beta_override: Option<f64>,
    deadline: Option<Instant>,
) -> QueryOutcome {
    let mut timer = ComponentTimer::new();
    let mut cache_info = QueryCacheInfo {
        enabled: caches.is_some(),
        query_hit: false,
    };
    let (terms, embedding) = analyze_query_text(
        graph,
        label_index,
        config,
        caches,
        query_text,
        &mut timer,
        &mut cache_info,
    );

    // Deadline gate between the NLP/NE and NS stages: embedding work is
    // already spent (and cached for a retry), but scoring is skipped and
    // the caller gets the partial timer report.
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return QueryOutcome {
            results: Vec::new(),
            embedding,
            timer,
            cache: cache_info,
            timed_out: true,
            prune: PruneStats::default(),
        };
    }

    let t_ns = Instant::now();
    let beta = beta_override.unwrap_or(config.beta).clamp(0.0, 1.0);
    let mut prune = PruneStats::default();

    let results = if config.prune_topk {
        // Block-max pruned blended top-k straight off the posting cursors
        // (bit-identical to the exhaustive oracle below — the escape
        // hatch is `with_prune_topk(false)`).
        let (ranked, stats) = index.blended_topk(beta, &terms, &bon_terms(&embedding), k);
        prune = stats;
        ranked
            .into_iter()
            .map(|(score, (doc, bow, bon))| SearchResult {
                doc,
                score,
                bow,
                bon,
            })
            .collect()
    } else {
        // Exhaustive oracle path. Both sides are scored segment by segment
        // under the global-stats overlay, yielding one global-id-keyed
        // score map per segment (disjoint keys). BOW is skipped entirely
        // at β = 1, as in the paper's NewsLink(1).
        let mut bow_parts = if beta < 1.0 {
            index.score_side_parts(Side::Bow, Bm25::default(), &terms)
        } else {
            Vec::new()
        };
        // BON side (skipped at β = 0, which reduces to Lucene). Node
        // streams are not prose: penalizing documents with rich embeddings
        // would contradict the coverage goal, so BM25 runs without length
        // normalization (b = 0) on the BON index.
        let mut bon_parts = if beta > 0.0 {
            let bon_bm25 = Bm25 { k1: 1.2, b: 0.0 };
            index.score_side_parts(Side::Bon, bon_bm25, &bon_terms(&embedding))
        } else {
            Vec::new()
        };
        // Each side is divided by its maximum before the Equation 3
        // blend, so β weights two comparable [0, 1] signals.
        max_normalize_parts(&mut bow_parts);
        max_normalize_parts(&mut bon_parts);

        // Per-segment blended top-k, then a top-k merge in segment
        // order. Segment ranges ascend and `TopK` favors earlier
        // insertions on ties, so the merged heap reproduces the
        // monolithic ascending-doc-id scan bit for bit: a document
        // beaten inside its own segment's top-k can never reach the
        // global top-k.
        let nsegs = bow_parts.len().max(bon_parts.len());
        let empty = FxHashMap::default();
        let mut merged = TopK::new(k);
        for si in 0..nsegs {
            let bow_scores = bow_parts.get(si).unwrap_or(&empty);
            let bon_scores = bon_parts.get(si).unwrap_or(&empty);
            let mut docs: Vec<DocId> = bow_scores
                .keys()
                .chain(bon_scores.keys())
                .copied()
                .collect();
            docs.sort_unstable();
            docs.dedup();
            let mut seg_topk = TopK::new(k);
            for doc in docs {
                let bow = bow_scores.get(&doc).copied().unwrap_or(0.0);
                let bon = bon_scores.get(&doc).copied().unwrap_or(0.0);
                let score = (1.0 - beta) * bow + beta * bon;
                if score > 0.0 {
                    seg_topk.push(score, (doc, bow, bon));
                }
            }
            for (score, item) in seg_topk.into_sorted() {
                merged.push(score, item);
            }
        }
        merged
            .into_sorted()
            .into_iter()
            .map(|(score, (doc, bow, bon))| SearchResult {
                doc,
                score,
                bow,
                bon,
            })
            .collect()
    };
    timer.record("ns", t_ns.elapsed());

    QueryOutcome {
        results,
        embedding,
        timer,
        cache: cache_info,
        timed_out: false,
        prune,
    }
}

/// NLP + NE on the query, reusing the document path. A whole-query memo
/// hit skips both components; zero-duration records keep the
/// per-component work-item counts identical either way. Shared by
/// [`run_query`] and the router's scatter-side
/// [`crate::NewsLink::analyze_query`], so both derive the exact same
/// canonical term sequences.
pub(crate) fn analyze_query_text(
    graph: &KnowledgeGraph,
    label_index: &LabelIndex,
    config: &NewsLinkConfig,
    caches: Option<&EngineCaches>,
    query_text: &str,
    timer: &mut ComponentTimer,
    cache_info: &mut QueryCacheInfo,
) -> (Vec<String>, DocEmbedding) {
    match caches {
        Some(c) => {
            if let Some(art) = c.query.get(query_text) {
                cache_info.query_hit = true;
                timer.record("nlp", Duration::ZERO);
                timer.record("ne", Duration::ZERO);
                (art.terms.clone(), art.embedding.clone())
            } else {
                let artifacts =
                    embed_one_with(graph, label_index, config, Some(&c.embed), query_text);
                timer.record("nlp", Duration::from_nanos(artifacts.nlp_nanos));
                timer.record("ne", Duration::from_nanos(artifacts.ne_nanos));
                let art = Arc::new(QueryArtifacts {
                    terms: artifacts.analysis.terms,
                    embedding: artifacts.embedding,
                });
                c.query.insert(query_text.to_string(), Arc::clone(&art));
                (art.terms.clone(), art.embedding.clone())
            }
        }
        None => {
            let artifacts = embed_one_with(graph, label_index, config, None, query_text);
            timer.record("nlp", Duration::from_nanos(artifacts.nlp_nanos));
            timer.record("ne", Duration::from_nanos(artifacts.ne_nanos));
            (artifacts.analysis.terms, artifacts.embedding)
        }
    }
}

/// Apply `f` to every item on `threads` scoped workers (contiguous
/// chunks), preserving input order. `threads <= 1` runs inline. Items are
/// consumed, so a worker can take ownership of what it maps.
pub(crate) fn parallel_map<T: Send, R: Send>(
    items: Vec<T>,
    threads: usize,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    if threads <= 1 || items.len() < 2 {
        return items.into_iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads.min(items.len()));
    let mut items = items.into_iter();
    let f = &f;
    std::thread::scope(|scope| {
        let workers: Vec<_> = std::iter::from_fn(|| {
            let batch: Vec<T> = items.by_ref().take(chunk).collect();
            (!batch.is_empty())
                .then(|| scope.spawn(move || batch.into_iter().map(f).collect::<Vec<R>>()))
        })
        .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SearchRequest;
    use crate::pipeline::test_support::{index_corpus, search};
    use crate::pipeline::NewsLink;
    use newslink_kg::{EntityType, GraphBuilder};

    fn world() -> (KnowledgeGraph, LabelIndex) {
        let mut b = GraphBuilder::new();
        let khyber = b.add_node("Khyber", EntityType::Gpe);
        let kunar = b.add_node("Kunar", EntityType::Gpe);
        let taliban = b.add_node("Taliban", EntityType::Organization);
        let pakistan = b.add_node("Pakistan", EntityType::Gpe);
        let lahore = b.add_node("Lahore", EntityType::Gpe);
        let peshawar = b.add_node("Peshawar", EntityType::Gpe);
        b.add_edge(kunar, khyber, "shares border with", 1);
        b.add_edge(taliban, kunar, "operates in", 1);
        b.add_edge(taliban, khyber, "operates in", 1);
        b.add_edge(khyber, pakistan, "located in", 1);
        b.add_edge(lahore, pakistan, "located in", 1);
        b.add_edge(peshawar, khyber, "located in", 1);
        let g = b.freeze();
        let idx = LabelIndex::build(&g);
        (g, idx)
    }

    const DOCS: &[&str] = &[
        // 0: the Tq-like doc (conflict around Upper-Dir-ish places)
        "Military conflicts between Pakistan and Taliban intensified near Kunar.",
        // 1: the Tr-like doc: different words, related entities
        "Explosions rocked Lahore and Peshawar. Authorities suspected Taliban operatives.",
        // 2: unrelated sports story
        "The championship match drew huge crowds and ended in a draw.",
    ];

    fn setup() -> (KnowledgeGraph, LabelIndex) {
        world()
    }

    #[test]
    fn blended_search_ranks_related_doc_above_unrelated() {
        let (g, li) = setup();
        let cfg = NewsLinkConfig::default();
        let idx = index_corpus(&g, &li, &cfg, DOCS);
        let out = search(&g, &li, &cfg, &idx, "Pakistan and Taliban clash.", 3);
        assert!(!out.results.is_empty());
        let ranked: Vec<u32> = out.results.iter().map(|r| r.doc.0).collect();
        assert!(ranked.contains(&0));
        // The sports doc shares no words or entities.
        assert!(!ranked.contains(&2));
    }

    #[test]
    fn beta_one_uses_only_embeddings() {
        let (g, li) = setup();
        let cfg = NewsLinkConfig::default().with_beta(1.0);
        let idx = index_corpus(&g, &li, &cfg, DOCS);
        // Query shares entities (via KG) but few words with doc 1.
        let out = search(&g, &li, &cfg, &idx, "Taliban attack in Khyber.", 3);
        for r in &out.results {
            assert_eq!(r.bow, 0.0, "β=1 must ignore text");
            assert!(r.bon > 0.0);
        }
        let ranked: Vec<u32> = out.results.iter().map(|r| r.doc.0).collect();
        assert!(ranked.contains(&1), "KG overlap must retrieve doc 1");
    }

    #[test]
    fn beta_zero_reduces_to_lucene() {
        let (g, li) = setup();
        let cfg = NewsLinkConfig::default().with_beta(0.0);
        let idx = index_corpus(&g, &li, &cfg, DOCS);
        let out = search(&g, &li, &cfg, &idx, "championship match crowds", 3);
        assert_eq!(out.results[0].doc, DocId(2));
        for r in &out.results {
            assert_eq!(r.bon, 0.0);
        }
    }

    #[test]
    fn vocabulary_mismatch_bridged_by_embeddings() {
        // Query about Kunar; doc 1 never mentions Kunar, but both embed
        // near Khyber. With β > 0 doc 1 scores; with β = 0 it may not.
        let (g, li) = setup();
        let cfg1 = NewsLinkConfig::default().with_beta(0.8);
        let idx = index_corpus(&g, &li, &cfg1, DOCS);
        let out = search(&g, &li, &cfg1, &idx, "Clashes near Kunar and Peshawar.", 3);
        let with_kg: Vec<u32> = out.results.iter().map(|r| r.doc.0).collect();
        assert!(with_kg.contains(&1));
        assert!(with_kg.contains(&0));
    }

    #[test]
    fn results_sorted_descending() {
        let (g, li) = setup();
        let cfg = NewsLinkConfig::default();
        let idx = index_corpus(&g, &li, &cfg, DOCS);
        let out = search(&g, &li, &cfg, &idx, "Taliban Pakistan Lahore Peshawar", 10);
        assert!(out
            .results
            .windows(2)
            .all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn empty_query_returns_nothing() {
        let (g, li) = setup();
        let cfg = NewsLinkConfig::default();
        let idx = index_corpus(&g, &li, &cfg, DOCS);
        let out = search(&g, &li, &cfg, &idx, "", 5);
        assert!(out.results.is_empty());
        assert!(out.embedding.is_empty());
    }

    #[test]
    fn timer_records_all_components() {
        let (g, li) = setup();
        let cfg = NewsLinkConfig::default();
        let idx = index_corpus(&g, &li, &cfg, DOCS);
        let out = search(&g, &li, &cfg, &idx, "Taliban in Pakistan", 5);
        for c in ["nlp", "ne", "ns"] {
            assert_eq!(out.timer.count(c), 1, "component {c}");
        }
    }

    #[test]
    fn explain_produces_paths_for_kg_matched_result() {
        let (g, li) = setup();
        let cfg = NewsLinkConfig::default().with_beta(1.0);
        let idx = index_corpus(&g, &li, &cfg, DOCS);
        let out = search(&g, &li, &cfg, &idx, "Taliban strikes in Kunar.", 3);
        let top = out.results.first().expect("has a result");
        let paths = NewsLink::new(&g, &li, cfg).explain(&idx, &out.embedding, top.doc, 4, 10);
        assert!(!paths.is_empty(), "expected relationship-path evidence");
        // All rendered paths mention real labels.
        for p in &paths {
            let s = p.render(&g);
            assert!(!s.is_empty());
        }
    }

    #[test]
    fn batch_search_matches_sequential() {
        let (g, li) = setup();
        let cfg = NewsLinkConfig::default().with_threads(3);
        let idx = index_corpus(&g, &li, &cfg, DOCS);
        let queries = [
            "Taliban in Pakistan",
            "Explosions near Peshawar",
            "championship crowds",
            "",
        ];
        let requests: Vec<_> = queries.iter().map(|q| SearchRequest::new(*q).with_k(3)).collect();
        let engine = NewsLink::new(&g, &li, cfg.clone().without_cache());
        let batch = engine.execute_batch(&idx, &requests);
        assert_eq!(batch.responses.len(), queries.len());
        for (q, got) in queries.iter().zip(&batch.responses) {
            let want = search(&g, &li, &cfg, &idx, q, 3);
            assert_eq!(got.results.len(), want.results.len(), "query {q}");
            for (x, y) in got.results.iter().zip(&want.results) {
                assert_eq!(x.doc, y.doc);
                assert!((x.score - y.score).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cached_query_path_is_bit_identical_and_observable() {
        let (g, li) = setup();
        let cfg = NewsLinkConfig::default();
        let idx = index_corpus(&g, &li, &cfg, DOCS);
        let caches = crate::cache::EngineCaches::from_config(&cfg.cache).unwrap();
        let q = "Taliban in Pakistan near Kunar";

        let plain = search(&g, &li, &cfg, &idx, q, 3);
        assert_eq!(plain.cache, crate::api::QueryCacheInfo::default());

        let cold = run_query(&g, &li, &cfg, &idx, Some(&caches), q, 3, None, None);
        assert!(cold.cache.enabled && !cold.cache.query_hit);
        let warm = run_query(&g, &li, &cfg, &idx, Some(&caches), q, 3, None, None);
        assert!(warm.cache.query_hit);
        // Warm hits skip NLP/NE but keep the work-item counts.
        for c in ["nlp", "ne", "ns"] {
            assert_eq!(warm.timer.count(c), 1, "component {c}");
        }
        for out in [&cold, &warm] {
            assert_eq!(out.results, plain.results);
        }
        assert_eq!(caches.stats().queries.hits, 1);
    }

    #[test]
    fn beta_override_changes_blend_without_touching_config() {
        let (g, li) = setup();
        let cfg = NewsLinkConfig::default();
        let idx = index_corpus(&g, &li, &cfg, DOCS);
        let q = "Taliban attack in Khyber.";
        let pure_bon = run_query(&g, &li, &cfg, &idx, None, q, 3, Some(1.0), None);
        for r in &pure_bon.results {
            assert_eq!(r.bow, 0.0);
        }
        let want = search(&g, &li, &NewsLinkConfig::default().with_beta(1.0), &idx, q, 3);
        assert_eq!(pure_bon.results, want.results);
    }

    #[test]
    fn batch_timer_aggregates_components() {
        let (g, li) = setup();
        let cfg = NewsLinkConfig::default().with_threads(2);
        let idx = index_corpus(&g, &li, &cfg, DOCS);
        let queries = ["Taliban in Pakistan", "Explosions near Peshawar", "Kunar"];
        let requests: Vec<_> = queries.iter().map(|q| SearchRequest::new(*q).with_k(3)).collect();
        let batch = NewsLink::new(&g, &li, cfg.without_cache()).execute_batch(&idx, &requests);
        assert_eq!(batch.responses.len(), 3);
        for c in ["nlp", "ne", "ns"] {
            assert_eq!(batch.timer.count(c), 3, "component {c}");
        }
        assert_eq!(batch.timer.count("batch"), 1);
    }

    #[test]
    fn auto_threads_batch_matches_sequential() {
        let (g, li) = setup();
        let cfg = NewsLinkConfig::default().with_auto_threads();
        let idx = index_corpus(&g, &li, &cfg, DOCS);
        let queries = ["Taliban in Pakistan", "championship crowds"];
        let requests: Vec<_> = queries.iter().map(|q| SearchRequest::new(*q).with_k(3)).collect();
        let engine = NewsLink::new(&g, &li, cfg.clone().without_cache());
        let batch = engine.execute_batch(&idx, &requests);
        for (q, got) in queries.iter().zip(&batch.responses) {
            let want = search(&g, &li, &cfg, &idx, q, 3);
            assert_eq!(got.results, want.results, "query {q}");
        }
    }

    #[test]
    fn expired_deadline_skips_scoring_with_partial_timer() {
        let (g, li) = setup();
        let cfg = NewsLinkConfig::default();
        let idx = index_corpus(&g, &li, &cfg, DOCS);
        let q = "Taliban in Pakistan";
        // A deadline in the past: NLP + NE still run (budget is checked
        // *between* stages), scoring never does.
        let expired = Instant::now() - Duration::from_millis(1);
        let out = run_query(&g, &li, &cfg, &idx, None, q, 3, None, Some(expired));
        assert!(out.timed_out);
        assert!(out.results.is_empty());
        assert_eq!(out.timer.count("nlp"), 1, "NLP stage ran before the gate");
        assert_eq!(out.timer.count("ne"), 1, "NE stage ran before the gate");
        assert_eq!(out.timer.count("ns"), 0, "scoring must be skipped");
        assert!(!out.embedding.is_empty(), "embedding survives for the report");

        // A generous deadline changes nothing.
        let far = Instant::now() + Duration::from_secs(3600);
        let ok = run_query(&g, &li, &cfg, &idx, None, q, 3, None, Some(far));
        assert!(!ok.timed_out);
        assert_eq!(ok.results, search(&g, &li, &cfg, &idx, q, 3).results);
    }

    #[test]
    fn segmented_search_is_bit_identical_to_monolithic() {
        let (g, li) = setup();
        let cfg = NewsLinkConfig::default();
        let mono = index_corpus(&g, &li, &cfg, DOCS);
        assert_eq!(mono.segment_count(), 1);
        for segment_docs in [1, 2] {
            let sharded_cfg = cfg.clone().with_segment_docs(segment_docs).with_threads(3);
            let sharded = index_corpus(&g, &li, &sharded_cfg, DOCS);
            for q in [
                "Taliban in Pakistan",
                "Explosions near Peshawar and Lahore",
                "championship crowds",
            ] {
                let a = search(&g, &li, &cfg, &mono, q, 3);
                let b = search(&g, &li, &sharded_cfg, &sharded, q, 3);
                assert_eq!(a.results.len(), b.results.len(), "query {q}");
                for (x, y) in a.results.iter().zip(&b.results) {
                    assert_eq!(x.doc, y.doc, "query {q}");
                    assert_eq!(
                        x.score.to_bits(),
                        y.score.to_bits(),
                        "query {q} segdocs={segment_docs}"
                    );
                    assert_eq!(x.bow.to_bits(), y.bow.to_bits());
                    assert_eq!(x.bon.to_bits(), y.bon.to_bits());
                }
            }
        }
    }

    #[test]
    fn explain_out_of_range_doc_is_empty() {
        let (g, li) = setup();
        let cfg = NewsLinkConfig::default();
        let idx = index_corpus(&g, &li, &cfg, DOCS);
        let out = search(&g, &li, &cfg, &idx, "Taliban", 1);
        let engine = NewsLink::new(&g, &li, cfg);
        assert!(engine.explain(&idx, &out.embedding, DocId(99), 4, 10).is_empty());
    }
}
