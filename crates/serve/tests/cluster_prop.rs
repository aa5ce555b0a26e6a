//! Property test for the cluster layer's core guarantee: a router
//! scatter-gathering real shard servers over TCP merges to the **same
//! bits** an in-process multi-segment search produces over the union.
//!
//! Each case builds a corpus, stripes it over 1–4 single-replica shard
//! groups, and puts two routers in front: one that caches routed
//! overlays and one built with caching off. It relays inserts and
//! deletes through the router between repeated searches of the same
//! queries (so the overlay cache is warm when writes land), and after
//! every search requires both routers' `results` (and the explanations
//! riding along) to equal those of one index rebuilt in process over the
//! live corpus. Scores travel the wire as `f64` bit patterns and both
//! sides format responses with the same serializer, so JSON-level
//! equality here is bit-level equality of the blended scores.

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;

use newslink_core::{
    CacheConfig, DocId, ExplainOptions, NewsLink, NewsLinkConfig, NewsLinkIndex, SearchRequest,
};
use newslink_kg::{EntityType, GraphBuilder, KnowledgeGraph, LabelIndex};
use newslink_serve::cluster::proto::{f64_bits, OverlayWire, ShardSearchRequest};
use newslink_serve::{client, Cluster, ResilienceConfig, ServeConfig, Server};
use newslink_util::chaos::{ChaosProxy, Fault, FaultPlan};
use parking_lot::RwLock;
use proptest::prelude::*;
use serde::{Serialize, Value};

/// A small fixed world: enough entities that documents collide on both
/// the BOW side (shared filler words) and the BON side (shared graph
/// neighborhoods).
fn world() -> (KnowledgeGraph, LabelIndex) {
    let mut b = GraphBuilder::new();
    let khyber = b.add_node("Khyber", EntityType::Gpe);
    let kunar = b.add_node("Kunar", EntityType::Gpe);
    let taliban = b.add_node("Taliban", EntityType::Organization);
    let pakistan = b.add_node("Pakistan", EntityType::Gpe);
    let kabul = b.add_node("Kabul", EntityType::Gpe);
    let unhcr = b.add_node("UNHCR", EntityType::Organization);
    b.add_edge(kunar, khyber, "borders", 1);
    b.add_edge(taliban, kunar, "operates in", 1);
    b.add_edge(khyber, pakistan, "located in", 1);
    b.add_edge(kabul, pakistan, "trades with", 2);
    b.add_edge(unhcr, kabul, "operates in", 1);
    let g = b.freeze();
    let idx = LabelIndex::build(&g);
    (g, idx)
}

const VOCAB: &[&str] = &[
    "Khyber", "Kunar", "Taliban", "Pakistan", "Kabul", "UNHCR", "trade", "talks", "storm",
    "attack", "aid", "festival",
];

fn doc_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0..VOCAB.len(), 1..12)
        .prop_map(|ws| ws.into_iter().map(|w| VOCAB[w]).collect::<Vec<_>>().join(" ") + ".")
}

fn query_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0..VOCAB.len(), 1..5)
        .prop_map(|ws| ws.into_iter().map(|w| VOCAB[w]).collect::<Vec<_>>().join(" "))
}

/// `(query, beta, k)` — beta from the interesting points of the blend
/// (pure BOW, paper default, even blend, pure BON).
fn search_strategy() -> impl Strategy<Value = (String, f64, usize)> {
    (query_strategy(), 0..4usize, 1usize..6)
        .prop_map(|(q, b, k)| (q, [0.0, 0.2, 0.5, 1.0][b], k))
}

/// One step of a session driven through the router.
#[derive(Debug, Clone)]
enum Op {
    /// `POST /docs`: the router relays it to the text's owning group.
    Insert(String),
    /// `DELETE /docs/<id>`: live ids answer 200, others 404.
    Delete(u32),
    /// Re-run search `i` of the session's fixed list.
    Search(usize),
}

/// A corpus, a fixed list of searches, and a sequence of inserts,
/// deletes (targets drawn around the corpus's id range, so some hit
/// inserted documents and some miss) and repeats of those searches.
#[allow(clippy::type_complexity)]
fn session_strategy() -> impl Strategy<Value = (Vec<String>, Vec<(String, f64, usize)>, Vec<Op>)> {
    (
        prop::collection::vec(doc_strategy(), 1..10),
        prop::collection::vec(search_strategy(), 1..3),
    )
        .prop_flat_map(|(docs, searches)| {
            let ids = docs.len() as u32 + 4;
            let op = (0..8usize, doc_strategy(), 0..ids, 0..searches.len()).prop_map(
                |(kind, text, id, search)| match kind {
                    0 | 1 => Op::Insert(text),
                    2 | 3 => Op::Delete(id),
                    _ => Op::Search(search),
                },
            );
            (Just(docs), Just(searches), prop::collection::vec(op, 0..10))
        })
}

/// The JSON body of one `(query, beta, k)` search, explanations on.
fn search_body((query, beta, k): &(String, f64, usize)) -> String {
    format!(r#"{{"query": {query:?}, "k": {k}, "beta": {beta}, "explain": true}}"#)
}

/// Demand a router reply equal the oracle's body: status 200, bit-equal
/// results and explanations, not degraded.
fn assert_same_answer(label: &str, oracle: &str, (status, reply): (u16, String)) {
    assert_eq!(status, 200, "{label}: {reply}");
    let m: Value = serde_json::from_str(oracle).expect("oracle json");
    let r: Value = serde_json::from_str(&reply).expect("router json");
    assert_eq!(
        m.get("results"),
        r.get("results"),
        "{label}: results diverge\noracle: {oracle}\nrouter: {reply}"
    );
    assert_eq!(
        m.get("explanations"),
        r.get("explanations"),
        "{label}: explanations diverge"
    );
    assert_eq!(r.get("degraded"), Some(&Value::Bool(false)), "{label}: {reply}");
}

/// Shard servers over the id stripes of a corpus, and two routers in
/// front of the same shards: one whose engine caches (routed overlays
/// included) and one built with `CacheConfig::disabled()`, which runs
/// all three protocol phases for every search.
struct Routers<'a> {
    /// The engine the shards and the caching router run.
    engine: &'a NewsLink<'a>,
    shards: Vec<SocketAddr>,
    cached: SocketAddr,
    cached_cluster: &'a Cluster,
    uncached: SocketAddr,
    uncached_cluster: &'a Cluster,
}

fn with_routers(texts: &[String], shard_count: u32, body: impl FnOnce(&Routers<'_>)) {
    let (graph, labels) = world();
    // Multi-segment: the merge invariants must hold for the layered case
    // (segments within shards within the cluster).
    let config = NewsLinkConfig::default().with_segment_docs(2);
    let engine = NewsLink::new(&graph, &labels, config.clone());
    let uncached_engine =
        NewsLink::new(&graph, &labels, config.with_cache(CacheConfig::disabled()));
    let shard_indexes: Vec<RwLock<NewsLinkIndex>> = (0..shard_count)
        .map(|s| {
            let mut idx = engine.index_corpus_sharded(texts, s, shard_count);
            idx.set_id_stripe(s, shard_count);
            RwLock::new(idx)
        })
        .collect();

    // A short idle read timeout so shutdown does not wait out the
    // default 5s drain for every connection a router left parked.
    let serve_config = ServeConfig {
        read_timeout_ms: 250,
        ..ServeConfig::default()
    };
    let bind = || Server::bind("127.0.0.1:0", serve_config.clone()).expect("bind");
    let shard_servers: Vec<Server> = (0..shard_count).map(|_| bind()).collect();
    let groups: Vec<Vec<SocketAddr>> =
        shard_servers.iter().map(|s| vec![s.local_addr()]).collect();
    let cached_cluster = Cluster::new(groups.clone());
    let uncached_cluster = Cluster::new(groups);
    let (cached_router, uncached_router) = (bind(), bind());
    let handles: Vec<_> = shard_servers
        .iter()
        .chain([&cached_router, &uncached_router])
        .map(Server::handle)
        .collect();

    // `move` closures below must capture shared references, not the
    // owning locals.
    let (engine, uncached_engine) = (&engine, &uncached_engine);
    let (cached_cluster, uncached_cluster) = (&cached_cluster, &uncached_cluster);
    let (cached_router, uncached_router) = (&cached_router, &uncached_router);
    std::thread::scope(|scope| {
        for (srv, idx) in shard_servers.iter().zip(&shard_indexes) {
            scope.spawn(move || srv.run(engine, idx));
        }
        scope.spawn(move || cached_router.run_router(engine, cached_cluster));
        scope.spawn(move || uncached_router.run_router(uncached_engine, uncached_cluster));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            body(&Routers {
                engine,
                shards: shard_servers.iter().map(Server::local_addr).collect(),
                cached: cached_router.local_addr(),
                cached_cluster,
                uncached: uncached_router.local_addr(),
                uncached_cluster,
            })
        }));
        for h in &handles {
            h.shutdown();
        }
        if let Err(panic) = result {
            std::panic::resume_unwind(panic);
        }
    });
}

/// One index rebuilt over the live corpus, id for id: every id ever
/// minted holds its text (gaps hold an empty placeholder) and every id
/// not live is tombstoned — by the house contract the same ranking as
/// any segmentation, striping or tombstone history of that live set.
fn rebuild(
    engine: &NewsLink<'_>,
    docs: &BTreeMap<u32, String>,
    live: &BTreeSet<u32>,
) -> NewsLinkIndex {
    let end = docs.keys().next_back().map_or(0, |&id| id + 1);
    let padded: Vec<String> = (0..end)
        .map(|id| docs.get(&id).cloned().unwrap_or_default())
        .collect();
    let mut index = engine.index_corpus(&padded);
    for id in (0..end).filter(|id| !live.contains(id)) {
        engine.delete_document(&mut index, DocId(id));
    }
    index
}

/// Drive `ops` through the caching router — every search asked of both
/// routers — and demand, after every search, bit-identity with one
/// index rebuilt over the live corpus. Every search runs once up front,
/// so the overlay cache is warm when the writes start.
fn run_session(
    texts: &[String],
    shard_count: u32,
    searches: &[(String, f64, usize)],
    ops: &[Op],
) {
    with_routers(texts, shard_count, |r| {
        let mut docs: BTreeMap<u32, String> = (0u32..).zip(texts.iter().cloned()).collect();
        let mut live: BTreeSet<u32> = docs.keys().copied().collect();
        let search = |docs: &BTreeMap<u32, String>, live: &BTreeSet<u32>, i: usize| {
            let (query, beta, k) = &searches[i];
            let mut request = SearchRequest::new(query.as_str()).with_k(*k);
            request.beta = Some(*beta);
            request.explain = Some(ExplainOptions::default());
            let oracle = r
                .engine
                .execute(&rebuild(r.engine, docs, live), &request)
                .serialize_value()
                .to_compact_string();
            let body = search_body(&searches[i]);
            for (name, router) in [("cached", r.cached), ("uncached", r.uncached)] {
                let reply = client::request(router, "POST", "/v1/search", &body).expect("search");
                let label =
                    format!("{name} router, {shard_count} shards, {query:?} beta {beta} k {k}");
                assert_same_answer(&label, &oracle, reply);
            }
        };
        for i in 0..searches.len() {
            search(&docs, &live, i);
        }
        for op in ops {
            match op {
                Op::Insert(text) => {
                    let body = Value::Object(vec![("text".into(), Value::String(text.clone()))]);
                    let (status, reply) =
                        client::request(r.cached, "POST", "/v1/docs", &body.to_compact_string())
                            .expect("insert");
                    assert_eq!(status, 200, "{reply}");
                    let v: Value = serde_json::from_str(&reply).expect("insert json");
                    let id = v["id"].as_i64().and_then(|id| u32::try_from(id).ok()).expect("id");
                    assert!(docs.insert(id, text.clone()).is_none(), "ids are never reused");
                    live.insert(id);
                }
                Op::Delete(id) => {
                    let path = format!("/v1/docs/{id}");
                    let (status, reply) =
                        client::request(r.cached, "DELETE", &path, "").expect("delete");
                    let want = if live.remove(id) { 200 } else { 404 };
                    assert_eq!(status, want, "delete {id}: {reply}");
                }
                Op::Search(i) => search(&docs, &live, *i),
            }
        }
    });
}

/// The chaos dimension: the same bit-equality property, but the first
/// replica of every group sits behind a seeded [`ChaosProxy`] injecting
/// recoverable faults (latency, short writes, throttling), with a
/// healthy sibling replica to fail over to. The resilience layer must
/// absorb every fault without changing a single bit of the answer —
/// loss shows up as a degraded 503 (which `assert_same_answer`
/// rejects), never as a silently truncated 200. Every search runs
/// twice, so the repeat takes the one-scatter path through the faults.
fn run_chaos_case(texts: &[String], chaos_seed: u64, searches: &[(String, f64, usize)]) {
    let (graph, labels) = world();
    let config = NewsLinkConfig::default().with_segment_docs(2);
    let engine = NewsLink::new(&graph, &labels, config);
    let shard_count = 2u32;

    let mono_index = RwLock::new(engine.index_corpus(texts));
    let mut shard_indexes: Vec<RwLock<NewsLinkIndex>> = Vec::new();
    for s in 0..shard_count {
        let mut idx = engine.index_corpus_sharded(texts, s, shard_count);
        idx.set_id_stripe(s, shard_count);
        shard_indexes.push(RwLock::new(idx));
    }

    let serve_config = ServeConfig {
        read_timeout_ms: 250,
        ..ServeConfig::default()
    };
    let mono = Server::bind("127.0.0.1:0", serve_config.clone()).expect("bind mono");
    // Two replicas per group over the group's shared index: the first
    // behind a seeded proxy mixing benign faults, the second direct.
    let replica_servers: Vec<Vec<Server>> = (0..shard_count)
        .map(|_| {
            (0..2)
                .map(|_| Server::bind("127.0.0.1:0", serve_config.clone()).expect("bind replica"))
                .collect()
        })
        .collect();
    let plan = |group: u64| {
        FaultPlan::seeded(
            chaos_seed ^ group,
            vec![
                (3, Fault::None),
                (2, Fault::Delay { ms: 8, jitter_ms: 4 }),
                (2, Fault::ShortWrite { keep_bytes: 48 }),
                (2, Fault::Throttle { bytes_per_sec: 50_000 }),
            ],
        )
    };
    let proxies: Vec<ChaosProxy> = replica_servers
        .iter()
        .enumerate()
        .map(|(g, group)| {
            ChaosProxy::spawn(group[0].local_addr(), plan(g as u64)).expect("spawn proxy")
        })
        .collect();
    let groups: Vec<Vec<SocketAddr>> = proxies
        .iter()
        .zip(&replica_servers)
        .map(|(proxy, group)| vec![proxy.addr(), group[1].local_addr()])
        .collect();
    let resilience = ResilienceConfig {
        retry_budget: 1.0,
        ..ResilienceConfig::default()
    };
    let cluster = Cluster::with_config(groups, resilience);
    let router = Server::bind("127.0.0.1:0", serve_config).expect("bind router");

    let mono_handle = mono.handle();
    let router_handle = router.handle();
    let replica_handles: Vec<_> = replica_servers.iter().flatten().map(Server::handle).collect();

    let (engine, mono_index, cluster) = (&engine, &mono_index, &cluster);
    let (mono, router) = (&mono, &router);
    let replica_servers = &replica_servers;
    std::thread::scope(|scope| {
        scope.spawn(move || mono.run(engine, mono_index));
        for (group, idx) in replica_servers.iter().zip(&shard_indexes) {
            for srv in group {
                scope.spawn(move || srv.run(engine, idx));
            }
        }
        scope.spawn(move || router.run_router(engine, cluster));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Searches only: writes route to the group primary (the
            // proxied replica) by design and are not failover-eligible,
            // so a torn write would legitimately surface as an error.
            for search in searches.iter().chain(searches) {
                let body = search_body(search);
                let (status, mono) =
                    client::request(mono_handle.addr(), "POST", "/v1/search", &body).expect("mono");
                assert_eq!(status, 200, "mono: {mono}");
                let reply = client::request(router_handle.addr(), "POST", "/v1/search", &body)
                    .expect("router");
                assert_same_answer(&format!("query {:?}", search.0), &mono, reply);
            }
        }));
        router_handle.shutdown();
        for h in &replica_handles {
            h.shutdown();
        }
        mono_handle.shutdown();
        if let Err(panic) = result {
            std::panic::resume_unwind(panic);
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance property: for any corpus, any interleaving of
    /// inserts, deletes and repeated searches, any query, beta, and k,
    /// both routers' merged answers — the cached one-scatter path and the
    /// three-phase oracle — are bit-identical to the in-process answer
    /// over the live corpus, at every shard count from one (degenerate
    /// cluster) to four (more groups than some corpora have docs, so
    /// empty shards are covered too).
    #[test]
    fn router_merge_is_bit_identical_to_in_process(
        (texts, searches, ops) in session_strategy(),
    ) {
        for shard_count in 1..=4u32 {
            run_session(&texts, shard_count, &searches, &ops);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Chaos property: under any seed's mix of recoverable injected
    /// faults, the router's answer stays bit-identical to the oracle —
    /// the resilience layer recovers (retries, fails over) rather than
    /// truncating, and never fakes a clean 200 out of a lossy path.
    #[test]
    fn router_merge_survives_recoverable_chaos_bit_identical(
        texts in prop::collection::vec(doc_strategy(), 3..10),
        chaos_seed in any::<u64>(),
        searches in prop::collection::vec(search_strategy(), 2..4),
    ) {
        run_chaos_case(&texts, chaos_seed, &searches);
    }
}

/// The corpus of the deterministic tests below.
fn fixed_corpus() -> Vec<String> {
    [
        "Taliban attack in Kunar near the Khyber border.",
        "Pakistan trade talks with Kabul resume.",
        "UNHCR aid convoy reaches Kabul after the storm.",
        "Khyber festival draws crowds from Pakistan.",
        "Kabul festival celebrates trade with Pakistan.",
        "Khyber attack disrupts Pakistan trade routes.",
    ]
    .map(String::from)
    .to_vec()
}

/// Internal calls a router has made, over every replica.
fn internal_calls(cluster: &Cluster) -> u64 {
    cluster
        .groups()
        .iter()
        .flat_map(|g| g.replicas())
        .map(|r| r.requests())
        .sum()
}

/// One of the router's `overlay` counters.
fn overlay_counter(cluster: &Cluster, name: &str) -> i64 {
    cluster.metrics_value()["overlay"][name].as_i64().expect("overlay counter")
}

/// The steady state is one scatter: over two shards a repeated search
/// costs 2 internal calls where the router with caching off pays 6 for
/// every search, and a write costs the next search one refuted attempt
/// plus the full protocol. Both routers answer bit-identically.
#[test]
fn cached_router_makes_two_internal_calls_per_repeat_and_the_oracle_six() {
    with_routers(&fixed_corpus(), 2, |r| {
        let body = search_body(&("Pakistan trade talks".to_string(), 0.2, 3));
        let search = |router: SocketAddr, cluster: &Cluster| {
            let before = internal_calls(cluster);
            let (status, reply) =
                client::request(router, "POST", "/v1/search", &body).expect("search");
            assert_eq!(status, 200, "{reply}");
            (internal_calls(cluster) - before, reply)
        };
        let (calls, oracle) = search(r.uncached, r.uncached_cluster);
        assert_eq!(calls, 6, "three phases × two shards");
        assert_eq!(search(r.uncached, r.uncached_cluster).0, 6, "no cache, no shortcut");
        assert_eq!(overlay_counter(r.uncached_cluster, "misses"), 0, "the cache is bypassed");

        let (calls, reply) = search(r.cached, r.cached_cluster);
        assert_eq!(calls, 6, "a miss runs all three phases");
        assert_same_answer("miss", &oracle, (200, reply));
        for _ in 0..3 {
            let (calls, reply) = search(r.cached, r.cached_cluster);
            assert_eq!(calls, 2, "a hit is phase 3 alone");
            assert_same_answer("hit", &oracle, (200, reply));
        }
        assert_eq!(overlay_counter(r.cached_cluster, "hits"), 3);
        assert_eq!(overlay_counter(r.cached_cluster, "misses"), 1);

        // A delete moves one shard's generation: the next search is
        // refuted (2 calls) and reruns all three phases (6 more).
        let (status, reply) =
            client::request(r.cached, "DELETE", "/v1/docs/1", "").expect("delete");
        assert_eq!(status, 200, "{reply}");
        let (oracle_calls, oracle) = search(r.uncached, r.uncached_cluster);
        assert_eq!(oracle_calls, 6);
        let (calls, reply) = search(r.cached, r.cached_cluster);
        assert_eq!(calls, 8, "refuted attempt plus the full protocol");
        assert_same_answer("after a write", &oracle, (200, reply));
        assert_eq!(overlay_counter(r.cached_cluster, "stale"), 1);
        let (calls, reply) = search(r.cached, r.cached_cluster);
        assert_eq!(calls, 2, "the rerun refilled the cache");
        assert_same_answer("refilled", &oracle, (200, reply));
    });
}

/// A shard checks the generation a phase-3 request expects under the
/// lock it ranks under: a mismatch answers `{"stale": true}` and ranks
/// nothing, and every internal reply names the generation it was served
/// at.
#[test]
fn shard_answers_stale_to_a_mismatched_generation() {
    with_routers(&fixed_corpus(), 1, |r| {
        let shard = r.shards[0];
        let post = |path: &str, body: &str| {
            let (status, reply) =
                client::request(shard, "POST", path, body).expect("internal call");
            assert_eq!(status, 200, "{path}: {reply}");
            serde_json::from_str::<Value>(&reply).expect("internal json")
        };
        let generation = || {
            let v = post("/internal/stats", r#"{"bow_terms": ["pakistan"], "bon_terms": []}"#);
            v["generation"].as_i64().and_then(|g| u64::try_from(g).ok()).expect("generation")
        };
        let search = |expected: Option<u64>| {
            let side = |terms: Vec<String>| OverlayWire {
                df: vec![1; terms.len()],
                terms,
                docs: 6,
                total_len: 40,
                norm_bits: f64_bits(1.0),
            };
            let request = ShardSearchRequest {
                query: "Pakistan".into(),
                k: 3,
                beta_bits: f64_bits(0.0),
                floor_bits: f64_bits(f64::NEG_INFINITY),
                budget_ms: None,
                explain: None,
                bow: side(vec!["pakistan".into()]),
                bon: side(Vec::new()),
                generation: expected,
            };
            post("/internal/search", &request.serialize_value().to_compact_string())
        };

        let before = generation();
        assert_eq!(generation(), before, "reads do not move the generation");
        let ranked = search(Some(before));
        assert_eq!(ranked["generation"].as_i64(), i64::try_from(before).ok());
        assert!(!ranked["hits"].as_array().expect("hits").is_empty(), "{ranked:?}");
        assert!(search(None)["hits"].as_array().is_some(), "unchecked requests always rank");
        let stale = search(Some(before + 1));
        assert_eq!(stale, serde_json::from_str::<Value>(r#"{"stale":true}"#).expect("json"));

        let (status, reply) = client::request(shard, "DELETE", "/v1/docs/1", "").expect("delete");
        assert_eq!(status, 200, "{reply}");
        let after = generation();
        assert_ne!(after, before, "a delete moves the generation");
        assert_eq!(search(Some(before))["stale"], Value::Bool(true), "the old stamp is refuted");
        assert!(search(Some(after))["hits"].as_array().is_some());
    });
}
