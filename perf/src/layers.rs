//! The traced pass: where the time of one operation goes, layer by
//! layer (layer = crate or module of the program).
//!
//! One client drives the workload against one deployment in two phases
//! of the run's `--seconds`:
//!
//! 1. *over TCP* (60%) — the servers run `Server::serve_with` around
//!    the public `dispatch` / `dispatch_cluster`. Tracing alternates in
//!    blocks of operations: in a traced block every round trip and
//!    every handler call is a span, in an untraced block nothing is
//!    recorded. Both kinds of block see the same server state, so the
//!    difference of their medians is the tracing overhead and nothing
//!    else (`trace_overhead_frac`);
//! 2. *direct* (40%) — the same kind of operations as plain calls into
//!    each crate's public functions, each in a span, on engines and
//!    caches the benchmark owns (so a miss and a hit can be told apart).
//!
//! Counts come from what the program reports publicly: the replies'
//! `prune` / `parallel` / `cache` objects, `NewsLink::cache_stats`,
//! `NewsLinkIndex::stats`, `ServerMetrics`, the replicas' request
//! counters and `Cluster::metrics_value`.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use newslink_core::{DocId, DurableStore, NewsLink, NewsLinkConfig, SearchRequest};
use newslink_embed::{find_lcag, CachedModel, EmbeddingCache};
use newslink_nlp::{tokenize_lower, NlpPipeline};
use serde::{Serialize, Value};

use crate::client::{Client, Tally, SPAN_ROUNDTRIP};
use crate::deploy::{data_dir, deploy, Deployment, SPAN_ROUTER, SPAN_SERVE, SPAN_SHARD};
use crate::fixture::{Dataset, Texts, CORPUS_DOCS};
use crate::gen::{Op, Plan, Workload, K};
use crate::report::Metric;
use crate::run::{new_clients, p, warm_pool, WARMUP_OPS};
use crate::trace::{self_times_ns, write_jsonl, Span, Tracer};
use crate::verify::{gate, Checked};

/// Shares of `--seconds` given to the two phases.
const TCP_SHARE: f64 = 0.6;
const DIRECT_SHARE: f64 = 0.4;
/// Operations per block of the TCP phase; tracing flips between blocks.
const BLOCK_OPS: usize = 50;

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// One operation of the TCP phase, folded from its spans.
#[derive(Default)]
struct TcpOp {
    roundtrip_ns: u64,
    /// The front door's handler (standalone `dispatch` or the router's
    /// `dispatch_cluster`): duration and self time.
    front_ns: u64,
    front_self_ns: u64,
    shard_sum_ns: u64,
}

/// Fold the TCP phase's spans into one record per *search*. With one
/// client the resolved list holds each operation's spans contiguously,
/// root first.
fn fold_searches(spans: &[Span]) -> Vec<TcpOp> {
    let selfs = self_times_ns(spans);
    let mut ops: Vec<TcpOp> = Vec::new();
    let mut in_search = false;
    for (span, self_ns) in spans.iter().zip(selfs) {
        if span.parent.is_none() {
            in_search = span.name == SPAN_ROUNDTRIP;
            if in_search {
                ops.push(TcpOp {
                    roundtrip_ns: span.duration_ns(),
                    ..TcpOp::default()
                });
            }
            continue;
        }
        let Some(op) = ops.last_mut().filter(|_| in_search) else {
            continue;
        };
        match span.name {
            SPAN_SERVE | SPAN_ROUTER => {
                op.front_ns = span.duration_ns();
                op.front_self_ns = self_ns;
            }
            SPAN_SHARD => op.shard_sum_ns += span.duration_ns(),
            _ => {}
        }
    }
    ops
}

/// Counters read before and after the TCP phase.
struct Counters {
    cache: newslink_core::EngineCacheStats,
    shed: u64,
    replica_requests: u64,
}

fn counters(d: &Deployment<'_>) -> Counters {
    Counters {
        cache: d.engine.cache_stats(),
        shed: d.metrics.iter().map(|m| m.shed_total()).sum(),
        replica_requests: d.cluster.map_or(0, |c| {
            c.groups()
                .iter()
                .flat_map(|g| g.replicas())
                .map(|r| r.requests())
                .sum()
        }),
    }
}

fn hit_ratio(before: &newslink_util::CacheStats, after: &newslink_util::CacheStats) -> f64 {
    let hits = after.hits - before.hits;
    ratio(hits, hits + (after.misses - before.misses))
}

/// Failovers and hedges, from the cluster's public metrics document.
fn cluster_retries(d: &Deployment<'_>) -> (f64, f64) {
    let Some(v) = d.cluster.map(|c| c.metrics_value()) else {
        return (0.0, 0.0);
    };
    let failovers: i64 = v["groups"]
        .as_array()
        .unwrap_or(&[])
        .iter()
        .filter_map(|g| g["failovers"].as_i64())
        .sum();
    let hedges = v["resilience"]["hedges_launched"].as_i64().unwrap_or(0);
    (failovers as f64, hedges as f64)
}

/// Turn a table of `(name, value, unit)` into metrics.
fn metrics<const N: usize>(table: [(&'static str, f64, &'static str); N]) -> Vec<Metric> {
    table
        .into_iter()
        .map(|(name, value, unit)| Metric::new(name, value, unit))
        .collect()
}

/// The metrics of the TCP phase. `spans` and `replies` are those of the
/// traced blocks; `searches` counts the searches of all blocks, which is
/// what the counter differences cover.
fn tcp_metrics(
    d: &Deployment<'_>,
    spans: &[Span],
    replies: &[String],
    searches: u64,
    before: &Counters,
    after: &Counters,
) -> Vec<Metric> {
    let ops = fold_searches(spans);
    let p50 =
        |f: &dyn Fn(&TcpOp) -> u64| p(&ops.iter().map(|o| us(f(o))).collect::<Vec<_>>(), 50.0);
    let front = p50(&|o| o.front_ns);
    let routed = |value: f64| if d.cluster.is_some() { value } else { 0.0 };
    let (failovers, hedges) = cluster_retries(d);

    let (mut candidates, mut scored, mut workers) = (0i64, 0i64, 0i64);
    for reply in replies {
        if let Ok(v) = serde_json::from_str::<Value>(reply) {
            candidates += v["prune"]["candidates"].as_i64().unwrap_or(0);
            scored += v["prune"]["scored"].as_i64().unwrap_or(0);
            workers += v["parallel"]["workers"].as_i64().unwrap_or(0);
        }
    }
    let replied = replies.len() as u64;
    let reply_bytes: usize = replies.iter().map(String::len).sum();
    let (b, a) = (&before.cache, &after.cache);
    metrics([
        ("serve.roundtrip_us", p50(&|o| o.roundtrip_ns), "us"),
        ("serve.dispatch_us", front, "us"),
        (
            "serve.overhead_us",
            p50(&|o| o.roundtrip_ns.saturating_sub(o.front_ns)),
            "us",
        ),
        (
            "serve.response_bytes",
            ratio(reply_bytes as u64, replied),
            "bytes",
        ),
        (
            "serve.shed_count",
            (after.shed - before.shed) as f64,
            "count",
        ),
        ("cluster.dispatch_us", routed(front), "us"),
        (
            "cluster.shard_dispatch_us",
            routed(p50(&|o| o.shard_sum_ns)),
            "us",
        ),
        (
            "cluster.hop_overhead_us",
            routed(p50(&|o| o.front_self_ns)),
            "us",
        ),
        (
            "cluster.internal_calls_per_search",
            ratio(after.replica_requests - before.replica_requests, searches),
            "count",
        ),
        ("cluster.failovers", failovers, "count"),
        ("cluster.hedges", hedges, "count"),
        (
            "text.postings_scored_per_query",
            ratio(scored as u64, replied),
            "count",
        ),
        (
            "text.pruned_ratio",
            ratio((candidates - scored) as u64, candidates as u64),
            "ratio",
        ),
        (
            "text.fanout_workers",
            ratio(workers as u64, replied),
            "count",
        ),
        (
            "embed.group_hit_ratio",
            hit_ratio(&b.groups, &a.groups),
            "ratio",
        ),
        (
            "embed.distance_hit_ratio",
            hit_ratio(&b.distances, &a.distances),
            "ratio",
        ),
        (
            "core.query_memo_hit_ratio",
            hit_ratio(&b.queries, &a.queries),
            "ratio",
        ),
    ])
}

/// Span names of the direct phase.
mod direct {
    pub const NLP: &str = "nlp.analyze_document";
    pub const RESOLVE: &str = "kg.longest_match";
    pub const LCAG: &str = "embed.find_lcag";
    pub const CACHED_MISS: &str = "embed.embed_group.miss";
    pub const CACHED_HIT: &str = "embed.embed_group.hit";
    pub const ANALYZE: &str = "core.analyze_query";
    pub const EXECUTE: &str = "core.execute";
    pub const EXPLAIN: &str = "core.explain";
    pub const BOW: &str = "text.bow_topk";
    pub const SERIALIZE: &str = "serve.serialize";
    pub const INSERT: &str = "core.insert_document";
    pub const DELETE: &str = "core.delete_document";
    pub const WAL: &str = "core.log_insert";
    pub const OP: &str = "direct.op";
}

/// Sums the direct phase keeps beside its spans.
#[derive(Default)]
struct DirectCounts {
    searches: u64,
    identified: u64,
    matched: u64,
    groups: u64,
    embeddings: u64,
    nodes: u64,
    probes: u64,
    /// Per-search `execute − analyze_query`, the NS share.
    ns_us: Vec<f64>,
}

/// The direct phase: each operation of a fresh stream as plain calls
/// into the crates, until `budget` is spent.
fn direct_phase(
    d: &Deployment<'_>,
    workload: Workload,
    plan: &Plan,
    texts: &Texts,
    scratch: &Path,
    tracer: &Tracer,
    budget: Duration,
) -> io::Result<DirectCounts> {
    let graph = &d.dataset.world.graph;
    let labels = &d.dataset.labels;
    let config = NewsLinkConfig::default();
    // Two engines fed the same queries, so their query memos agree: one
    // is timed on `execute`, the other on `analyze_query` alone.
    let executing = NewsLink::new(graph, labels, config.clone());
    let analyzing = NewsLink::new(graph, labels, config.clone());
    let cache = EmbeddingCache::new(config.cache.group_capacity, config.cache.distance_capacity);
    let nlp = NlpPipeline::new(graph, labels);
    // The first document holder's index: the whole corpus standalone, a
    // shard's stripe behind the router.
    let index = d.holders[0].1;
    let wal_dir = scratch.join("wal-probe");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let mut store = if workload.has_writes() {
        let opened = DurableStore::open(&executing, &wal_dir, || {
            executing.index_corpus(&texts.corpus[..1])
        });
        Some(opened.map_err(|e| io::Error::other(e.to_string()))?.0)
    } else {
        None
    };

    if workload != Workload::SearchNovel {
        // Bring the benchmark's own caches to the state the servers'
        // are in: the whole pool seen once.
        for &sentence in &plan.pool {
            let query = &texts.sentences[sentence];
            executing.execute(&index.read(), &SearchRequest::new(query.as_str()).with_k(K));
            analyzing.analyze_query(query);
            for set in &nlp.analyze_document(query).entity_groups {
                let group: Vec<String> = set.iter().cloned().collect();
                let _ = cache.embed_group(graph, labels, &group, &config.search, CachedModel::Lcag);
            }
        }
    }

    let mut counts = DirectCounts::default();
    let mut inserted: Vec<DocId> = Vec::new();
    let deadline = Instant::now() + budget;
    tracer.set_on(true);
    for (i, op) in plan.stream(workload, 0, 1).enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let op_id = Some((1u64 << 62) + i as u64);
        tracer.span(direct::OP, op_id, || match op {
            Op::Search { sentence, explain } => {
                let query = texts.sentences[sentence].as_str();
                counts.searches += 1;
                let analysis = tracer.span(direct::NLP, None, || nlp.analyze_document(query));
                counts.identified += analysis.stats.identified as u64;
                counts.matched += analysis.stats.matched as u64;

                let tokens = tokenize_lower(query);
                let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
                let widest = labels.max_label_tokens();
                tracer.span(direct::RESOLVE, None, || {
                    for at in 0..refs.len() {
                        let cap = widest.min(refs.len() - at);
                        std::hint::black_box(labels.longest_match(
                            &refs[at..at + cap],
                            cap,
                            true,
                            &mut |_| true,
                        ));
                    }
                });
                counts.probes += refs.len() as u64;

                for set in &analysis.entity_groups {
                    let group: Vec<String> = set.iter().cloned().collect();
                    counts.groups += 1;
                    let found = tracer.span(direct::LCAG, None, || {
                        find_lcag(graph, labels, &group, &config.search)
                    });
                    if let Ok(g) = &found {
                        counts.embeddings += 1;
                        counts.nodes += g.nodes.len() as u64;
                    }
                    let misses = cache.group_stats().misses;
                    let first = tracer.now_ns();
                    let _ =
                        cache.embed_group(graph, labels, &group, &config.search, CachedModel::Lcag);
                    let missed = cache.group_stats().misses > misses;
                    let name = if missed {
                        direct::CACHED_MISS
                    } else {
                        direct::CACHED_HIT
                    };
                    tracer.record(name, first, None);
                    tracer.span(direct::CACHED_HIT, None, || {
                        let _ = cache.embed_group(
                            graph,
                            labels,
                            &group,
                            &config.search,
                            CachedModel::Lcag,
                        );
                    });
                }

                let request = SearchRequest::new(query).with_k(K);
                let t = Instant::now();
                let analyzed =
                    tracer.span(direct::ANALYZE, None, || analyzing.analyze_query(query));
                let analyze = t.elapsed();
                let guard = index.read();
                let t = Instant::now();
                let response = tracer.span(direct::EXECUTE, None, || {
                    executing.execute(&guard, &request)
                });
                let execute = t.elapsed();
                counts
                    .ns_us
                    .push((execute.as_secs_f64() - analyze.as_secs_f64()) * 1e6);
                if explain {
                    tracer.span(direct::EXPLAIN, None, || {
                        for hit in &response.results {
                            std::hint::black_box(executing.explain(
                                &guard,
                                &response.embedding,
                                hit.doc,
                                4,
                                10,
                            ));
                        }
                    });
                }
                tracer.span(direct::BOW, None, || {
                    std::hint::black_box(guard.bow_topk(&analyzed.terms, K))
                });
                tracer.span(direct::SERIALIZE, None, || {
                    std::hint::black_box(response.serialize_value().to_compact_string())
                });
            }
            Op::Insert { doc } => {
                let text = &texts.held_out[doc];
                let id = tracer.span(direct::INSERT, None, || {
                    executing.insert_document(&mut index.write(), text)
                });
                inserted.push(id);
                if let Some(store) = &mut store {
                    let logged = tracer.span(direct::WAL, None, || store.log_insert(id, text));
                    std::hint::black_box(logged.is_ok());
                }
            }
            Op::Delete { nth } => {
                tracer.span(direct::DELETE, None, || {
                    executing.delete_document(&mut index.write(), inserted[nth])
                });
            }
        });
    }
    tracer.set_on(false);
    drop(store);
    let _ = std::fs::remove_dir_all(&wal_dir);
    Ok(counts)
}

/// Median duration, in µs, of the spans called `name`.
fn p50_us(spans: &[Span], name: &str) -> f64 {
    let xs: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| us(s.duration_ns()))
        .collect();
    p(&xs, 50.0)
}

fn direct_metrics(spans: &[Span], c: &DirectCounts) -> Vec<Metric> {
    let p50 = |name: &str| p50_us(spans, name);
    let per_search = |n: u64| ratio(n, c.searches);
    let resolve_ns: u64 = spans
        .iter()
        .filter(|s| s.name == direct::RESOLVE)
        .map(Span::duration_ns)
        .sum();
    metrics([
        ("nlp.analyze_us", p50(direct::NLP), "us"),
        ("nlp.mentions_per_query", per_search(c.identified), "count"),
        ("kg.resolve_ns", ratio(resolve_ns, c.probes), "ns"),
        (
            "kg.resolve_hit_ratio",
            ratio(c.matched, c.identified),
            "ratio",
        ),
        ("embed.find_lcag_us", p50(direct::LCAG), "us"),
        ("embed.cached_miss_us", p50(direct::CACHED_MISS), "us"),
        ("embed.cached_hit_us", p50(direct::CACHED_HIT), "us"),
        ("embed.groups_per_query", per_search(c.groups), "count"),
        (
            "embed.nodes_per_embedding",
            ratio(c.nodes, c.embeddings),
            "count",
        ),
        ("text.bow_topk_us", p50(direct::BOW), "us"),
        ("core.execute_us", p50(direct::EXECUTE), "us"),
        ("core.analyze_query_us", p50(direct::ANALYZE), "us"),
        ("core.ns_us", p(&c.ns_us, 50.0), "us"),
        ("core.explain_us", p50(direct::EXPLAIN), "us"),
        ("core.insert_us", p50(direct::INSERT), "us"),
        ("core.delete_us", p50(direct::DELETE), "us"),
        ("core.wal_append_us", p50(direct::WAL), "us"),
        ("serve.serialize_us", p50(direct::SERIALIZE), "us"),
    ])
}

fn search_p50_ms(tally: &Tally) -> f64 {
    let ms: Vec<f64> = tally.search_ms.iter().map(|&(_, ms)| ms).collect();
    p(&ms, 50.0)
}

/// What the TCP phase hands on.
struct TcpPhase {
    untraced: Tally,
    traced: Tally,
    /// Wall-clock of the untraced blocks alone.
    untraced_wall: Duration,
    before: Counters,
    after: Counters,
}

/// Drive `client` for `budget`, tracing every other block of operations.
fn tcp_phase(
    d: &Deployment<'_>,
    client: &mut Client<'_>,
    tracer: &Tracer,
    budget: Duration,
) -> TcpPhase {
    let before = counters(d);
    let mut untraced = Tally::default();
    let mut traced = Tally::default();
    let mut untraced_wall = Duration::ZERO;
    let deadline = Instant::now() + budget;
    let mut on = false;
    while Instant::now() < deadline {
        tracer.set_on(on);
        client.keep_replies = on;
        let began = Instant::now();
        for _ in 0..BLOCK_OPS {
            client.step(on.then_some(tracer));
        }
        if !on {
            untraced_wall += began.elapsed();
        }
        let block = std::mem::take(&mut client.tally);
        if on { &mut traced } else { &mut untraced }.absorb(block);
        on = !on;
    }
    tracer.set_on(false);
    TcpPhase {
        untraced,
        traced,
        untraced_wall,
        before,
        after: counters(d),
    }
}

/// What the holders' indexes look like after the traffic, and what
/// set-up cost.
fn index_metrics(d: &Deployment<'_>, texts: &Texts) -> Vec<Metric> {
    let stats: Vec<_> = d
        .holders
        .iter()
        .map(|(_, index)| index.read().stats())
        .collect();
    let sum = |f: &dyn Fn(&newslink_core::IndexStats) -> f64| stats.iter().map(f).sum::<f64>();
    let snapshot_bytes = d
        .durable
        .and_then(|s| s.gauges()["snapshot_bytes"].as_i64())
        .unwrap_or(0);
    metrics([
        ("core.segments_end", sum(&|s| s.segments as f64), "count"),
        (
            "core.tombstones_end",
            sum(&|s| s.tombstones as f64),
            "count",
        ),
        ("core.compactions", sum(&|s| s.compactions as f64), "count"),
        (
            "core.index_docs_per_s",
            CORPUS_DOCS as f64 / d.index_s,
            "1/s",
        ),
        (
            "core.snapshot_bytes_per_text_byte",
            snapshot_bytes as f64 / texts.corpus_bytes() as f64,
            "ratio",
        ),
    ])
}

/// The result of a traced run.
pub struct Layers {
    pub metrics: Vec<Metric>,
    pub checked: Checked,
}

pub fn traced(workload: Workload, seed: u64, seconds: f64, scratch: &Path) -> io::Result<Layers> {
    let reference = Dataset::build();
    let texts = Texts::build(&reference.world);
    let plan = Plan::new(seed, texts.sentences.len(), texts.held_out.len());
    let tracer = Tracer::new();
    let trace_file = scratch.join(format!("trace-{}.jsonl", workload.name()));

    let layers = deploy(workload, &texts.corpus, scratch, Some(&tracer), |d| {
        let mut checked = Checked::default();
        // Behind the router, count the answers whose tie order differs
        // from one index's (the gate of the end-to-end pass, again: the
        // count depends only on the seed, so it repeats exactly).
        let mut tie_divergent = 0;
        if workload == Workload::RoutedRepeat {
            let oracle = NewsLink::new(
                &reference.world.graph,
                &reference.labels,
                NewsLinkConfig::default(),
            );
            let whole = oracle.index_corpus(&texts.corpus);
            let gated = gate(d, &oracle, Some(&whole), &plan, &texts);
            checked.add(gated.checked);
            tie_divergent = gated.tie_divergent;
        }
        if workload != Workload::SearchNovel {
            checked.add(warm_pool(d.front, &plan, &texts));
        }
        let mut client = new_clients(workload, d.front, &plan, &texts, 1)
            .pop()
            .expect("one client");
        for _ in 0..WARMUP_OPS {
            client.step(None);
        }
        checked.failed += std::mem::take(&mut client.tally).failed;
        checked.attempted += WARMUP_OPS;

        let budget = Duration::from_secs_f64(seconds * TCP_SHARE);
        let tcp = tcp_phase(d, &mut client, &tracer, budget);
        drop(client);
        checked.attempted += tcp.untraced.ops + tcp.traced.ops;
        checked.failed += tcp.untraced.failed + tcp.traced.failed;
        let mut spans = tracer.drain();
        let searches = (tcp.untraced.search_ms.len() + tcp.traced.search_ms.len()) as u64;
        let mut out = tcp_metrics(
            d,
            &spans,
            &tcp.traced.search_replies,
            searches,
            &tcp.before,
            &tcp.after,
        );
        // Before the direct phase writes to the index.
        out.extend(index_metrics(d, &texts));

        let budget = Duration::from_secs_f64(seconds * DIRECT_SHARE);
        let counts = direct_phase(d, workload, &plan, &texts, scratch, &tracer, budget)?;
        let direct_spans = tracer.drain();
        out.extend(direct_metrics(&direct_spans, &counts));

        // Insert acknowledgement latency as the one client saw it, traced
        // and untraced blocks alike (0 on the workloads that never write).
        let insert_ms: Vec<f64> = tcp
            .untraced
            .insert_ms
            .iter()
            .chain(&tcp.traced.insert_ms)
            .map(|&(_, ms)| ms)
            .collect();
        out.extend(metrics([
            (
                "cluster.tie_divergent_answers",
                tie_divergent as f64,
                "count",
            ),
            ("write_p50_ms", p(&insert_ms, 50.0), "ms"),
            ("write_p95_ms", p(&insert_ms, 95.0), "ms"),
            (
                "trace_overhead_frac",
                search_p50_ms(&tcp.traced) / search_p50_ms(&tcp.untraced) - 1.0,
                "ratio",
            ),
            (
                "generator_idle_frac",
                tcp.untraced.busy.as_secs_f64() / tcp.untraced_wall.as_secs_f64(),
                "ratio",
            ),
        ]));

        // Parent indexes are per list; shift the second list's.
        let offset = spans.len();
        spans.extend(direct_spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        write_jsonl(&trace_file, &spans)?;
        Ok(Layers {
            metrics: out,
            checked,
        })
    })?;
    let _ = std::fs::remove_dir_all(data_dir(scratch));
    layers
}
