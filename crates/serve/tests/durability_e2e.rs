//! End-to-end durability tests: run the server with a data directory,
//! mutate over real TCP, restart (new server, new store open, same
//! directory), and verify recovery — including a degraded start over a
//! deliberately corrupted snapshot.

use std::path::{Path, PathBuf};

use newslink_core::{segment_byte_spans, DurableStore, NewsLink, NewsLinkConfig, NewsLinkIndex};
use newslink_kg::{synth, KnowledgeGraph, LabelIndex, SynthConfig};
use newslink_serve::{client, DurableState, ServeConfig, Server, ServerHandle};
use serde::Value;

struct Fixture {
    graph: KnowledgeGraph,
    country: String,
    city: String,
}

impl Fixture {
    fn new(seed: u64) -> Self {
        let world = synth::generate(&SynthConfig::small(seed));
        let country = world.graph.label(world.countries[0]).to_string();
        let city = world.graph.label(world.cities[0]).to_string();
        Self {
            graph: world.graph,
            country,
            city,
        }
    }

    fn docs(&self) -> Vec<String> {
        vec![
            format!(
                "Tensions rose in {} as officials met in {}.",
                self.country, self.city
            ),
            format!(
                "A festival in {} drew visitors from across {}.",
                self.city, self.country
            ),
            "Completely unrelated filler text with no entity names.".to_string(),
        ]
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("newslink_serve_durable_{}_{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Open the store on `dir` and run a durable server for the duration of `f`. Each call is one "process
/// lifetime": dropping the store at the end and calling again models a
/// restart.
fn with_durable_server<R>(
    fixture: &Fixture,
    engine_config: NewsLinkConfig,
    dir: &Path,
    f: impl FnOnce(&ServerHandle, &DurableState) -> R,
) -> R {
    let labels = LabelIndex::build(&fixture.graph);
    let engine = NewsLink::new(&fixture.graph, &labels, engine_config);
    let docs = fixture.docs();
    let (store, index) =
        DurableStore::open(&engine, dir, || engine.index_corpus(&docs)).expect("open store");
    let durable = DurableState::new(store);
    let index: parking_lot::RwLock<NewsLinkIndex> = parking_lot::RwLock::new(index);

    let server = Server::bind("127.0.0.1:0", ServeConfig::default().with_workers(2))
        .expect("bind ephemeral port");
    let handle = server.handle();
    std::thread::scope(|scope| {
        let runner = scope.spawn(|| server.run_durable(&engine, &index, Some(&durable)));
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&handle, &durable)));
        handle.shutdown();
        runner.join().expect("server thread").expect("server run");
        match result {
            Ok(r) => r,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

fn parse(body: &str) -> Value {
    serde_json::from_str(body).unwrap_or_else(|e| panic!("bad JSON {e}: {body}"))
}

#[test]
fn acknowledged_mutations_survive_a_restart() {
    let fixture = Fixture::new(21);
    let dir = temp_dir("restart");

    // First lifetime: insert one document, delete one, no checkpoint.
    with_durable_server(&fixture, NewsLinkConfig::default(), &dir, |handle, _| {
        let body = format!(
            r#"{{"text": "Breaking report from {} about {}."}}"#,
            fixture.city, fixture.country
        );
        let (status, text) = client::request(handle.addr(), "POST", "/docs", &body).unwrap();
        assert_eq!(status, 200, "{text}");
        assert_eq!(parse(&text)["id"].as_i64(), Some(3));
        let (status, text) = client::request(handle.addr(), "DELETE", "/docs/0", "").unwrap();
        assert_eq!(status, 200, "{text}");

        // Both mutations were WAL-logged before they were acknowledged.
        let (_, text) = client::request(handle.addr(), "GET", "/metrics", "").unwrap();
        let v = parse(&text);
        assert_eq!(v["durability"]["wal_appends"], 2u64, "{text}");
        let wal_bytes = v["durability"]["wal_bytes"].as_i64().unwrap();
        assert!(wal_bytes > 5, "{text}");

        // Deletes that answer 404 never touch the log: neither an
        // unknown id nor an already-deleted one pays an fsync or grows
        // the WAL.
        for missing in ["/docs/999", "/docs/0"] {
            let (status, text) =
                client::request(handle.addr(), "DELETE", missing, "").unwrap();
            assert_eq!(status, 404, "{missing}: {text}");
        }
        let (_, text) = client::request(handle.addr(), "GET", "/metrics", "").unwrap();
        let v = parse(&text);
        assert_eq!(v["durability"]["wal_appends"], 2u64, "404s append nothing: {text}");
        assert_eq!(
            v["durability"]["wal_bytes"].as_i64().unwrap(),
            wal_bytes,
            "404s grow nothing: {text}"
        );
    });

    // Restart: the WAL replays over the snapshot.
    with_durable_server(&fixture, NewsLinkConfig::default(), &dir, |handle, durable| {
        assert_eq!(durable.report().wal_records_replayed, 2);
        let (status, text) = client::request(handle.addr(), "GET", "/healthz", "").unwrap();
        assert_eq!(status, 200);
        let health = parse(&text);
        assert_eq!(health["status"], "ok", "{text}");
        assert_eq!(health["backend"], "durable", "{text}");

        let (_, text) = client::request(handle.addr(), "GET", "/metrics", "").unwrap();
        let v = parse(&text);
        assert_eq!(v["index"]["docs"], 3u64, "3 built + 1 inserted - 1 deleted: {text}");
        assert_eq!(v["durability"]["wal_records_replayed"], 2u64, "{text}");
        // Replay folded into a fresh snapshot: the WAL is back to its header.
        assert_eq!(v["durability"]["wal_bytes"], 5u64, "{text}");
        assert!(v["durability"]["snapshot_bytes"].as_i64().unwrap() > 0, "{text}");

        // The recovered document is searchable; the deleted one is gone.
        let query = format!(r#"{{"query": "breaking report about {}", "k": 6}}"#, fixture.country);
        let (status, text) = client::request(handle.addr(), "POST", "/search", &query).unwrap();
        assert_eq!(status, 200);
        let hits: Vec<i64> = parse(&text)["results"]
            .as_array()
            .unwrap()
            .iter()
            .map(|h| h["doc"].as_i64().unwrap())
            .collect();
        assert!(hits.contains(&3), "replayed insert ranks: {hits:?}");
        assert!(!hits.contains(&0), "replayed delete holds: {hits:?}");
    });
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn admin_snapshot_checkpoints_and_resets_the_wal() {
    let fixture = Fixture::new(22);
    let dir = temp_dir("checkpoint");
    with_durable_server(&fixture, NewsLinkConfig::default(), &dir, |handle, _| {
        let body = format!(r#"{{"text": "Update from {}."}}"#, fixture.city);
        let (status, _) = client::request(handle.addr(), "POST", "/docs", &body).unwrap();
        assert_eq!(status, 200);

        let (status, text) =
            client::request(handle.addr(), "POST", "/admin/snapshot", "").unwrap();
        assert_eq!(status, 200, "{text}");
        let v = parse(&text);
        assert_eq!(v["checkpointed"], true);
        assert_eq!(v["docs"], 4u64);
        assert_eq!(v["wal_bytes"], 5u64, "WAL reset to its header: {text}");
        assert_eq!(v["snapshots"], 1u64);

        let (status, _) = client::request(handle.addr(), "GET", "/admin/snapshot", "").unwrap();
        assert_eq!(status, 405, "wrong method on the admin route");

        let (_, text) = client::request(handle.addr(), "GET", "/metrics", "").unwrap();
        assert_eq!(parse(&text)["durability"]["snapshots"], 1u64, "{text}");
    });

    // The checkpoint made the mutation part of the snapshot: a restart
    // replays nothing and still has all four documents.
    with_durable_server(&fixture, NewsLinkConfig::default(), &dir, |handle, durable| {
        assert_eq!(durable.report().wal_records_replayed, 0);
        let (_, text) = client::request(handle.addr(), "GET", "/metrics", "").unwrap();
        assert_eq!(parse(&text)["index"]["docs"], 4u64, "{text}");
    });
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_endpoint_without_data_dir_is_a_clear_400() {
    let fixture = Fixture::new(23);
    let labels = LabelIndex::build(&fixture.graph);
    let engine = NewsLink::new(&fixture.graph, &labels, NewsLinkConfig::default());
    let index = parking_lot::RwLock::new(engine.index_corpus(&fixture.docs()));
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let handle = server.handle();
    std::thread::scope(|scope| {
        let runner = scope.spawn(|| server.run(&engine, &index));
        let (status, text) =
            client::request(handle.addr(), "POST", "/admin/snapshot", "").unwrap();
        assert_eq!(status, 400, "{text}");
        assert!(text.contains("--data-dir"), "error says how to enable: {text}");
        // And /metrics has no durability section at all.
        let (_, text) = client::request(handle.addr(), "GET", "/metrics", "").unwrap();
        assert!(parse(&text)["durability"].is_null(), "{text}");
        handle.shutdown();
        runner.join().expect("server thread").expect("server run");
    });
}

#[test]
fn degraded_start_still_serves_and_reports_itself() {
    let fixture = Fixture::new(24);
    let dir = temp_dir("degraded");
    // One document per segment, no compaction: the snapshot carries one
    // frame per document, so corrupting one loses exactly one document.
    let engine_config = NewsLinkConfig::default().with_segment_docs(1).with_max_segments(64);

    with_durable_server(&fixture, engine_config.clone(), &dir, |handle, _| {
        // One extra WAL-only mutation, to prove replay works over a
        // degraded snapshot too.
        let body = format!(r#"{{"text": "Late extra from {}."}}"#, fixture.city);
        let (status, _) = client::request(handle.addr(), "POST", "/docs", &body).unwrap();
        assert_eq!(status, 200);
    });

    // Corrupt one byte inside the second segment's v4 section; the
    // format's own directory locates it, so this stays correct as the
    // physical layout evolves.
    let snapshot = dir.join("index.nlnk");
    let mut bytes = std::fs::read(&snapshot).expect("read snapshot");
    let spans = segment_byte_spans(&bytes).expect("v4 section directory");
    assert!(spans.len() >= 3, "one section per document");
    let (start, end) = spans[1];
    bytes[start + (end - start) / 2] ^= 0x40;
    std::fs::write(&snapshot, &bytes).expect("rewrite snapshot");

    with_durable_server(&fixture, engine_config, &dir, |handle, durable| {
        assert!(durable.degraded());
        assert_eq!(durable.report().quarantined_segments, 1);

        // Health says degraded (still 200: up, but serving a subset).
        let (status, text) = client::request(handle.addr(), "GET", "/healthz", "").unwrap();
        assert_eq!(status, 200);
        let v = parse(&text);
        assert_eq!(v["status"], "degraded", "{text}");
        assert_eq!(v["quarantined_segments"], 1u64, "{text}");

        // Metrics carry the full recovery report.
        let (_, text) = client::request(handle.addr(), "GET", "/metrics", "").unwrap();
        let v = parse(&text);
        assert_eq!(v["durability"]["degraded"], true, "{text}");
        assert_eq!(v["durability"]["quarantined_segments"], 1u64, "{text}");
        assert_eq!(v["durability"]["wal_records_replayed"], 1u64, "{text}");
        assert_eq!(v["index"]["docs"], 3u64, "4 docs minus the quarantined one: {text}");

        // Searches over the survivors still answer.
        let query = format!(r#"{{"query": "news about {}", "k": 6}}"#, fixture.country);
        let (status, _) = client::request(handle.addr(), "POST", "/search", &query).unwrap();
        assert_eq!(status, 200);
    });

    // The degraded open deliberately did not overwrite the damaged
    // snapshot: the corrupted bytes are still there for an operator.
    assert_eq!(std::fs::read(&snapshot).expect("reread"), bytes);
    std::fs::remove_dir_all(&dir).ok();
}

/// Searches and writes race over real TCP — four search clients, two
/// writer clients (inserts, deletes of their own inserts, and periodic
/// checkpoints) — and every reply is `200`. After shutdown, reopening
/// the data directory (snapshot + WAL replay) rebuilds an index that
/// answers a fixed query set bit-identically to the live one: WAL order
/// is install order, and no checkpoint fell between a log append and its
/// install.
#[test]
fn concurrent_searches_and_writes_recover_bit_identically() {
    const SEARCHES_PER_CLIENT: usize = 40;
    const WRITES_PER_CLIENT: usize = 24;
    let fixture = Fixture::new(25);
    let dir = temp_dir("stress");
    let labels = LabelIndex::build(&fixture.graph);
    let engine = NewsLink::new(
        &fixture.graph,
        &labels,
        NewsLinkConfig::default().with_max_segments(3),
    );
    let docs = fixture.docs();
    let (store, index) =
        DurableStore::open(&engine, &dir, || engine.index_corpus(&docs)).expect("open store");
    let durable = DurableState::new(store);
    let index = parking_lot::RwLock::new(index);
    let queries = [
        format!("tensions in {}", fixture.country),
        format!("festival in {}", fixture.city),
        format!("{} and {}", fixture.city, fixture.country),
    ];

    let server = Server::bind("127.0.0.1:0", ServeConfig::default().with_workers(6))
        .expect("bind ephemeral port");
    let handle = server.handle();
    let addr = handle.addr();
    std::thread::scope(|scope| {
        let runner = scope.spawn(|| server.run_durable(&engine, &index, Some(&durable)));
        let searchers: Vec<_> = (0..4)
            .map(|c| {
                let queries = &queries;
                scope.spawn(move || {
                    for i in 0..SEARCHES_PER_CLIENT {
                        let q = &queries[(c + i) % queries.len()];
                        let body = format!(r#"{{"query": "{q}", "k": 5}}"#);
                        let (status, text) =
                            client::request(addr, "POST", "/v1/search", &body).expect("search");
                        assert_eq!(status, 200, "search {c}/{i}: {text}");
                    }
                })
            })
            .collect();
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let fixture = &fixture;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    for i in 0..WRITES_PER_CLIENT {
                        let (method, path, body) = match i % 6 {
                            5 if w == 0 => ("POST", "/v1/admin/snapshot".to_string(), String::new()),
                            3 => ("DELETE", format!("/v1/docs/{}", mine.remove(0)), String::new()),
                            _ => (
                                "POST",
                                "/v1/docs".to_string(),
                                format!(
                                    r#"{{"text": "Writer {w} update {i}: crowds in {} as {} reacts."}}"#,
                                    fixture.city, fixture.country
                                ),
                            ),
                        };
                        let (status, text) =
                            client::request(addr, method, &path, &body).expect("write");
                        assert_eq!(status, 200, "writer {w} op {i} {method} {path}: {text}");
                        if path == "/v1/docs" {
                            mine.push(parse(&text)["id"].as_i64().expect("minted id"));
                        }
                    }
                })
            })
            .collect();
        // Join every client before propagating a failure, so a failed
        // assertion stops the server instead of hanging the scope.
        let outcomes: Vec<_> = searchers
            .into_iter()
            .chain(writers)
            .map(|c| c.join())
            .collect();
        handle.shutdown();
        runner.join().expect("server thread").expect("server run");
        for outcome in outcomes {
            if let Err(panic) = outcome {
                std::panic::resume_unwind(panic);
            }
        }
    });
    let live = index.into_inner();
    drop(durable);

    let (_store, recovered) = DurableStore::open(&engine, &dir, || {
        panic!("the data directory already holds a snapshot")
    })
    .expect("reopen store");
    assert_eq!(
        recovered.doc_ids().collect::<Vec<_>>(),
        live.doc_ids().collect::<Vec<_>>()
    );
    for q in &queries {
        let request = newslink_core::SearchRequest::new(q.as_str()).with_k(10);
        let want = engine.execute(&live, &request).results;
        let got = engine.execute(&recovered, &request).results;
        assert!(!want.is_empty(), "{q}");
        assert_eq!(got.len(), want.len(), "{q}");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(
                (g.doc, g.score.to_bits()),
                (w.doc, w.score.to_bits()),
                "{q}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
