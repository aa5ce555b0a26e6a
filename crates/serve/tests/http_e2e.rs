//! End-to-end tests over real TCP: bind an ephemeral port, run the
//! server against a synthetic world, and drive it with raw
//! `TcpStream` clients (the crate's own one-shot client helper).

use std::net::TcpStream;
use std::time::Duration;

use newslink_core::{NewsLink, NewsLinkConfig, NewsLinkIndex};
use newslink_kg::{synth, KnowledgeGraph, LabelIndex, SynthConfig};
use newslink_serve::{client, ServeConfig, Server, ServerHandle};
use serde::Value;

/// A tiny world plus an indexed two-document corpus to serve.
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
}

/// Run `server` for the duration of `f`, then shut it down gracefully.
fn with_server<R>(
    config: ServeConfig,
    fixture: &Fixture,
    f: impl FnOnce(&ServerHandle, &Server) -> R,
) -> R {
    with_server_engine(config, NewsLinkConfig::default(), fixture, f)
}

/// Like [`with_server`] but with a caller-chosen engine configuration
/// (segment sizing, compaction threshold, ...).
fn with_server_engine<R>(
    config: ServeConfig,
    engine_config: NewsLinkConfig,
    fixture: &Fixture,
    f: impl FnOnce(&ServerHandle, &Server) -> R,
) -> R {
    let labels = LabelIndex::build(&fixture.graph);
    let engine = NewsLink::new(&fixture.graph, &labels, engine_config);
    let docs = vec![
        format!(
            "Tensions rose in {} as officials met in {}.",
            fixture.country, fixture.city
        ),
        format!(
            "A festival in {} drew visitors from across {}.",
            fixture.city, fixture.country
        ),
        "Completely unrelated filler text with no entity names.".to_string(),
    ];
    let index: parking_lot::RwLock<NewsLinkIndex> =
        parking_lot::RwLock::new(engine.index_corpus(&docs));

    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let handle = server.handle();
    std::thread::scope(|scope| {
        let runner = scope.spawn(|| server.run(&engine, &index));
        // A failed assertion must still shut the server down, or the
        // scope would deadlock joining the accept loop.
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&handle, &server)));
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
fn search_happy_path_over_tcp() {
    let fixture = Fixture::new(11);
    with_server(ServeConfig::default().with_workers(2), &fixture, |handle, _| {
        let body = format!(
            r#"{{"query": "News about {}.", "k": 3, "explain": true}}"#,
            fixture.country
        );
        let (status, text) = client::request(handle.addr(), "POST", "/search", &body).unwrap();
        assert_eq!(status, 200, "body: {text}");
        let v = parse(&text);
        let results = v["results"].as_array().expect("results array");
        assert!(!results.is_empty(), "entity query must hit");
        // DocId is a newtype, so it serializes transparently as a number.
        let top_doc = results[0]["doc"]
            .as_i64()
            .unwrap_or_else(|| panic!("doc id missing in {text}"));
        assert!(top_doc < 2, "entity-bearing docs outrank filler");
        assert!(results[0]["score"].as_f64().unwrap() > 0.0);
        // Explanations ride along, aligned with results.
        assert_eq!(
            v["explanations"].as_array().map(|a| a.len()),
            Some(results.len())
        );
        assert_eq!(v["timed_out"], false);
        assert_eq!(v["cache"]["enabled"], true);
        // The component timer doubles as a per-request latency report.
        assert_eq!(v["timer"]["nlp"]["count"], 1u64);
    });
}

#[test]
fn batch_endpoint_answers_all_requests_in_order() {
    let fixture = Fixture::new(12);
    with_server(ServeConfig::default(), &fixture, |handle, _| {
        let body = format!(
            r#"{{"requests": [
                {{"query": "news about {c}"}},
                {{"query": "events in {t}", "beta": 1.0}},
                {{"query": "news about {c}"}}
            ]}}"#,
            c = fixture.country,
            t = fixture.city
        );
        let (status, text) =
            client::request(handle.addr(), "POST", "/search/batch", &body).unwrap();
        assert_eq!(status, 200, "body: {text}");
        let v = parse(&text);
        let responses = v["responses"].as_array().expect("responses");
        assert_eq!(responses.len(), 3);
        // The third request repeats the first: the shared engine cache
        // answers it from the whole-query memo.
        assert_eq!(responses[2]["cache"]["query_hit"], true);
        // Pure-BON request: every hit's BOW side is zero.
        for hit in responses[1]["results"].as_array().unwrap() {
            assert_eq!(hit["bow"].as_f64(), Some(0.0));
        }
        assert_eq!(v["timer"]["batch"]["count"], 1u64);
    });
}

#[test]
fn malformed_and_unroutable_requests() {
    let fixture = Fixture::new(13);
    with_server(ServeConfig::default(), &fixture, |handle, _| {
        // Not JSON at all.
        let (status, text) = client::request(handle.addr(), "POST", "/search", "{oops").unwrap();
        assert_eq!(status, 400);
        assert!(parse(&text)["error"]["message"].as_str().is_some());
        // Valid JSON, wrong shape.
        let (status, _) = client::request(handle.addr(), "POST", "/search", r#"{"k": 3}"#).unwrap();
        assert_eq!(status, 400);
        // Unknown fields are rejected, not ignored.
        let (status, text) =
            client::request(handle.addr(), "POST", "/search", r#"{"query":"q","knn":1}"#).unwrap();
        assert_eq!(status, 400);
        assert!(text.contains("knn"), "error names the field: {text}");
        // Unknown route and wrong method.
        let (status, _) = client::request(handle.addr(), "GET", "/nope", "").unwrap();
        assert_eq!(status, 404);
        let (status, _) = client::request(handle.addr(), "GET", "/search", "").unwrap();
        assert_eq!(status, 405);
        // A body declared over the cap is rejected from the head alone,
        // before any of it is read.
        use std::io::Write;
        let mut big = TcpStream::connect(handle.addr()).unwrap();
        big.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        big.write_all(
            b"POST /search HTTP/1.1\r\nHost: t\r\nContent-Length: 2097152\r\n\r\n",
        )
        .unwrap();
        let (status, _) = client::read_response(&mut big).unwrap();
        assert_eq!(status, 413);
    });
}

#[test]
fn zero_timeout_yields_503_with_partial_timer() {
    let fixture = Fixture::new(14);
    with_server(ServeConfig::default(), &fixture, |handle, _| {
        let body = format!(
            r#"{{"query": "news about {}", "timeout_ms": 0}}"#,
            fixture.country
        );
        let (status, text) = client::request(handle.addr(), "POST", "/search", &body).unwrap();
        assert_eq!(status, 503, "body: {text}");
        let v = parse(&text);
        assert_eq!(v["timed_out"], true);
        assert_eq!(v["results"].as_array().map(|a| a.len()), Some(0));
        // The partial timer shows where the budget went: analysis ran,
        // scoring never started.
        assert_eq!(v["timer"]["nlp"]["count"], 1u64);
        assert!(v["timer"]["ns"].is_null());
    });
}

#[test]
fn over_capacity_connections_are_shed_with_429() {
    let fixture = Fixture::new(15);
    // One worker, no queue: the second concurrent connection must shed.
    let config = ServeConfig::default().with_workers(1).with_queue_depth(0);
    let body = format!(r#"{{"query": "news about {}"}}"#, fixture.country);
    with_server(config, &fixture, |handle, server| {
        // Occupy the whole capacity: send the request head but hold back
        // the body, so the connection stays in flight while the worker
        // blocks reading it.
        use std::io::Write;
        let mut hog = TcpStream::connect(handle.addr()).unwrap();
        hog.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let head = format!(
            "POST /search HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        hog.write_all(head.as_bytes()).unwrap();
        hog.flush().unwrap();
        // Let the accept loop admit the hog before the next connection.
        std::thread::sleep(Duration::from_millis(50));

        // Capacity is 1 and the hog holds it: this connection sheds,
        // and the raw response carries a `Retry-After` hint so
        // well-behaved clients back off instead of hammering.
        let (status, headers, text) =
            client::request_with_headers(handle.addr(), "POST", "/search", &body).unwrap();
        assert_eq!(status, 429, "body: {text}");
        let retry_after = headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case("retry-after"))
            .map(|(_, v)| v.as_str());
        assert_eq!(retry_after, Some("1"), "429 must carry Retry-After: {headers:?}");
        assert!(parse(&text)["error"]["message"].as_str().is_some());
        assert!(server.metrics().shed_total() >= 1);

        // The hog was never dropped: completing its body gets a real answer.
        hog.write_all(body.as_bytes()).unwrap();
        hog.flush().unwrap();
        let (status, text) = client::read_response(&mut hog).unwrap();
        assert_eq!(status, 200, "body: {text}");

        // Once the worker is free again, new requests are admitted.
        let (status, _) = client::request(handle.addr(), "GET", "/healthz", "").unwrap();
        assert_eq!(status, 200);
    });
}

#[test]
fn metrics_report_traffic_latency_and_cache_counters() {
    let fixture = Fixture::new(16);
    with_server(ServeConfig::default(), &fixture, |handle, _| {
        let body = format!(r#"{{"query": "news about {}"}}"#, fixture.country);
        for _ in 0..3 {
            let (status, _) = client::request(handle.addr(), "POST", "/search", &body).unwrap();
            assert_eq!(status, 200);
        }
        // /healthz is a JSON operational summary, not just a liveness
        // ping — but the bare-200 contract stays for load balancers.
        let (status, text) = client::request(handle.addr(), "GET", "/healthz", "").unwrap();
        assert_eq!(status, 200);
        let h = parse(&text);
        assert_eq!(h["status"], "ok");
        assert_eq!(h["degraded"], false);
        assert_eq!(h["backend"], "memory");
        assert!(h["docs"].as_i64().unwrap() > 0, "{text}");
        assert!(h["segments"].as_i64().unwrap() > 0, "{text}");
        assert_eq!(h["version"].as_str().unwrap(), env!("CARGO_PKG_VERSION"));

        let (status, text) = client::request(handle.addr(), "GET", "/metrics", "").unwrap();
        assert_eq!(status, 200);
        let v = parse(&text);
        assert!(v["requests_total"].as_i64().unwrap() >= 4);
        assert_eq!(v["routes"]["search"], 3u64);
        assert!(v["responses"]["ok"].as_i64().unwrap() >= 4);
        // Latency histogram has real samples.
        assert!(v["latency_us"]["count"].as_i64().unwrap() >= 4);
        assert!(v["latency_us"]["p50"].as_i64().is_some());
        assert!(!v["latency_us"]["buckets"].as_array().unwrap().is_empty());
        // Cache counters flowed through from the engine: the repeated
        // query produced whole-query memo hits.
        assert!(v["cache"]["queries"]["hits"].as_i64().unwrap() >= 2, "{text}");
        assert!(v["uptime_ms"].as_i64().unwrap() >= 0);
        // The knowledge-graph/resolver gauges are static but present.
        assert!(v["kg"]["nodes"].as_i64().unwrap() > 0, "{text}");
        assert!(v["kg"]["edges"].as_i64().unwrap() > 0, "{text}");
        assert!(v["kg"]["surfaces"].as_i64().unwrap() > 0, "{text}");
        assert!(v["kg"]["resolver_bytes"].as_i64().unwrap() > 0, "{text}");
    });
}

#[test]
fn metrics_segment_gauges_move_with_live_inserts_and_compaction() {
    let fixture = Fixture::new(18);
    // A compaction threshold of 2 guarantees live inserts trigger merges.
    let engine_config = NewsLinkConfig::default().with_max_segments(2);
    with_server_engine(ServeConfig::default(), engine_config, &fixture, |handle, _| {
        let gauges = |label: &str| {
            let (status, text) = client::request(handle.addr(), "GET", "/metrics", "").unwrap();
            assert_eq!(status, 200, "{label}: {text}");
            let v = parse(&text);
            let g = |k: &str| v["index"][k].as_i64().unwrap_or_else(|| panic!("{label}: missing index.{k} in {text}"));
            (g("docs"), g("segments"), g("tombstones"), g("compactions"))
        };

        // The build-time corpus: one segment, nothing deleted or merged.
        assert_eq!(gauges("fresh"), (3, 1, 0, 0));

        // Three live inserts: each seals its own segment, and once the
        // count exceeds max_segments the insert path compacts in place.
        for i in 0..3 {
            let body = format!(
                r#"{{"text": "Late report {i} from {} about {}."}}"#,
                fixture.city, fixture.country
            );
            let (status, text) = client::request(handle.addr(), "POST", "/docs", &body).unwrap();
            assert_eq!(status, 200, "insert {i}: {text}");
            assert_eq!(parse(&text)["id"].as_i64(), Some(3 + i));
        }
        let (docs, segments, tombstones, compactions) = gauges("after inserts");
        assert_eq!(docs, 6);
        assert!(segments <= 2, "compaction keeps the segment count bounded");
        assert_eq!(tombstones, 0);
        assert!(compactions >= 2, "inserts past the cap compacted");

        // The inserted documents are immediately searchable.
        let query = format!(r#"{{"query": "late report about {}", "k": 6}}"#, fixture.country);
        let (status, text) = client::request(handle.addr(), "POST", "/search", &query).unwrap();
        assert_eq!(status, 200);
        let hits: Vec<i64> = parse(&text)["results"]
            .as_array()
            .unwrap()
            .iter()
            .map(|h| h["doc"].as_i64().unwrap())
            .collect();
        assert!(hits.iter().any(|&d| d >= 3), "a live-inserted doc ranks: {hits:?}");

        // Deleting tombstones without renumbering; the id 404s afterwards.
        let (status, text) = client::request(handle.addr(), "DELETE", "/docs/0", "").unwrap();
        assert_eq!(status, 200, "{text}");
        let (status, _) = client::request(handle.addr(), "DELETE", "/docs/0", "").unwrap();
        assert_eq!(status, 404, "double delete");
        let (docs, _, tombstones, _) = gauges("after delete");
        assert_eq!(docs, 5);
        assert_eq!(tombstones, 1);

        // Mutation-route error handling.
        let (status, _) = client::request(handle.addr(), "DELETE", "/docs/zero", "").unwrap();
        assert_eq!(status, 400, "non-numeric id");
        let (status, _) = client::request(handle.addr(), "GET", "/docs/0", "").unwrap();
        assert_eq!(status, 405, "wrong method on /docs/<id>");
        let (status, _) =
            client::request(handle.addr(), "POST", "/docs", r#"{"body": "x"}"#).unwrap();
        assert_eq!(status, 400, "unknown insert field");
    });
}

#[test]
fn v1_prefix_routes_and_legacy_paths_carry_deprecation_header() {
    let fixture = Fixture::new(19);
    with_server(ServeConfig::default(), &fixture, |handle, _| {
        let body = format!(r#"{{"query": "news about {}"}}"#, fixture.country);
        let has_deprecation = |headers: &[(String, String)]| {
            headers
                .iter()
                .any(|(n, v)| n.eq_ignore_ascii_case("deprecation") && v == "true")
        };

        // The versioned path is the canonical surface: no deprecation.
        let (status, headers, text) =
            client::request_with_headers(handle.addr(), "POST", "/v1/search", &body).unwrap();
        assert_eq!(status, 200, "body: {text}");
        assert!(!has_deprecation(&headers), "headers: {headers:?}");
        let v1_results = parse(&text)["results"].as_array().unwrap().len();

        // The legacy alias answers identically but flags itself.
        let (status, headers, text) =
            client::request_with_headers(handle.addr(), "POST", "/search", &body).unwrap();
        assert_eq!(status, 200);
        assert!(has_deprecation(&headers), "headers: {headers:?}");
        assert_eq!(parse(&text)["results"].as_array().unwrap().len(), v1_results);

        // Observability endpoints route under /v1 too.
        let (status, headers, text) =
            client::request_with_headers(handle.addr(), "GET", "/v1/healthz", "").unwrap();
        assert_eq!(status, 200);
        assert!(!has_deprecation(&headers));
        assert_eq!(parse(&text)["status"], "ok");
        let (status, _, _) =
            client::request_with_headers(handle.addr(), "GET", "/v1/metrics", "").unwrap();
        assert_eq!(status, 200);

        // Errors are typed envelopes with machine-readable codes.
        let (status, _, text) =
            client::request_with_headers(handle.addr(), "POST", "/v1/search", "{oops").unwrap();
        assert_eq!(status, 400);
        let v = parse(&text);
        assert_eq!(v["error"]["code"], "bad_request");
        assert!(v["error"]["message"].as_str().is_some());
        let (status, headers, text) =
            client::request_with_headers(handle.addr(), "GET", "/v1/nope", "").unwrap();
        assert_eq!(status, 404);
        assert_eq!(parse(&text)["error"]["code"], "not_found");
        // An unknown path is not a legacy alias of anything.
        assert!(!has_deprecation(&headers));
        let (status, _, text) =
            client::request_with_headers(handle.addr(), "GET", "/v1/search", "").unwrap();
        assert_eq!(status, 405);
        assert_eq!(parse(&text)["error"]["code"], "method_not_allowed");
        // "/v1" alone names no endpoint.
        let (status, _, _) =
            client::request_with_headers(handle.addr(), "GET", "/v1", "").unwrap();
        assert_eq!(status, 404);
    });
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let fixture = Fixture::new(17);
    let config = ServeConfig::default().with_workers(1);
    let body = format!(r#"{{"query": "news about {}"}}"#, fixture.country);
    with_server(config, &fixture, |handle, _| {
        // Start a request but hold back the last byte of the body so it
        // is accepted and in flight when shutdown triggers.
        let mut slow = TcpStream::connect(handle.addr()).unwrap();
        slow.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        use std::io::Write;
        let head = format!(
            "POST /search HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        slow.write_all(head.as_bytes()).unwrap();
        slow.write_all(&body.as_bytes()[..body.len() - 1]).unwrap();
        slow.flush().unwrap();
        std::thread::sleep(Duration::from_millis(100)); // let it reach the worker

        assert!(handle.shutdown(), "trigger graceful shutdown");

        // Finish the body after shutdown: the in-flight request must
        // still be served to completion.
        slow.write_all(&body.as_bytes()[body.len() - 1..]).unwrap();
        slow.flush().unwrap();
        let (status, text) = client::read_response(&mut slow).unwrap();
        assert_eq!(status, 200, "drained request completes: {text}");
        assert!(!parse(&text)["results"].as_array().unwrap().is_empty());
    });
    // with_server returning proves run() unblocked and the pool joined.
}
