//! The cluster, for real: spawn the release binary as two shard groups
//! of two replicas each (every shard durable on its own `--data-dir`),
//! put a router in front, and prove the headline claims over raw TCP:
//!
//! - the router's merged answer is identical to one standalone process
//!   serving the whole corpus;
//! - `kill -9` a primary and searches keep answering `200` by failing
//!   over to the secondary, within the same request;
//! - writes to a group with a dead primary are refused (`503`) and
//!   never acknowledged — no silent forking onto a secondary;
//! - kill the *whole* group and searches degrade honestly: `503`,
//!   `"degraded": true`, partial results from the surviving group;
//! - restart the primary on its old address and data dir: the cluster
//!   heals and every acknowledged write is still there (WAL replay);
//! - restart it once more with no write in between: the new process's
//!   index generation refutes the overlay the router cached before the
//!   restart, so a pre-restart overlay never ranks anything.
//!
//! Ignored by default because it needs `target/release/newslink`;
//! `scripts/tier1.sh` builds release first and runs it with
//! `-- --ignored`.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use newslink_serve::client;
use newslink_serve::cluster::fnv1a64;
use serde::Value;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn release_binary() -> PathBuf {
    let bin = workspace_root().join("target/release/newslink");
    assert!(
        bin.exists(),
        "release binary missing at {} — run `cargo build --release` first",
        bin.display()
    );
    bin
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("newslink_cluster_{}_{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Run a one-shot `newslink` subcommand to completion.
fn run_tool(args: &[&str]) {
    let status = Command::new(release_binary())
        .args(args)
        .status()
        .expect("spawn newslink");
    assert!(status.success(), "newslink {args:?} failed");
}

/// A child server killed on drop, so a failing assertion never leaks
/// orphan processes (which would squat ports and hold pipes open for
/// the next run).
struct ChildGuard(Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl std::ops::Deref for ChildGuard {
    type Target = Child;
    fn deref(&self) -> &Child {
        &self.0
    }
}

impl std::ops::DerefMut for ChildGuard {
    fn deref_mut(&mut self) -> &mut Child {
        &mut self.0
    }
}

/// Spawn `newslink serve` with `args` and block until the startup
/// banner reveals the bound address.
fn spawn_server(args: &[&str]) -> (ChildGuard, SocketAddr) {
    let mut child = Command::new(release_binary())
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn newslink serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let deadline = Instant::now() + Duration::from_secs(120);
    let addr = loop {
        assert!(Instant::now() < deadline, "server never printed its banner");
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read child stdout");
        assert!(n > 0, "server exited before printing its banner: {args:?}");
        if let Some(rest) = line.split("on http://").nth(1) {
            let addr = rest.split_whitespace().next().expect("address after http://");
            break addr.parse::<SocketAddr>().expect("parse bound address");
        }
    };
    // Keep draining so later prints cannot fill the pipe and stall the child.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while reader.read_line(&mut sink).is_ok_and(|n| n > 0) {
            sink.clear();
        }
    });
    (ChildGuard(child), addr)
}

/// Spawn one shard replica: `--shard-index`/`--shard-count` stripe the
/// corpus, `--data-dir` makes its writes durable.
fn spawn_shard(
    world: &Path,
    corpus: &Path,
    data_dir: &Path,
    shard: usize,
    of: usize,
    addr: &str,
) -> (ChildGuard, SocketAddr) {
    let (shard, of) = (shard.to_string(), of.to_string());
    spawn_server(&[
        "serve",
        "--world",
        world.to_str().expect("utf-8 path"),
        "--corpus",
        corpus.to_str().expect("utf-8 path"),
        "--addr",
        addr,
        "--workers",
        "2",
        "--data-dir",
        data_dir.to_str().expect("utf-8 path"),
        "--shard-index",
        &shard,
        "--shard-count",
        &of,
    ])
}

fn parse(body: &str) -> Value {
    serde_json::from_str(body).unwrap_or_else(|e| panic!("bad JSON {e}: {body}"))
}

fn get(addr: SocketAddr, path: &str) -> (u16, Value) {
    let (status, text) = client::request(addr, "GET", path, "").expect("GET");
    (status, parse(&text))
}

fn search(addr: SocketAddr, query: &str, k: usize) -> (u16, Value) {
    let body = format!(r#"{{"query": {query:?}, "k": {k}}}"#);
    let (status, text) = client::request(addr, "POST", "/v1/search", &body).expect("POST /v1/search");
    (status, parse(&text))
}

/// Result doc ids of a parsed search response.
fn doc_ids(v: &Value) -> Vec<i64> {
    v.get("results")
        .and_then(Value::as_array)
        .expect("results array")
        .iter()
        .map(|h| h.get("doc").and_then(Value::as_i64).expect("doc id"))
        .collect()
}

/// The first `"{prefix} {i}."` the router's content hash sends to
/// `group` (of two) — so the test never guesses where a text routes.
fn text_for_group(prefix: &str, group: u64) -> String {
    (0..)
        .map(|i| format!("{prefix} {i}."))
        .find(|t| fnv1a64(t.as_bytes()) % 2 == group)
        .expect("some suffix hashes to the group")
}

#[test]
#[ignore = "needs target/release/newslink; run via scripts/tier1.sh"]
fn router_survives_primary_kill_and_loses_no_acked_write() {
    let dir = temp_dir("failover");
    let world = dir.join("kg.tsv");
    let corpus = dir.join("corpus.txt");
    run_tool(&["generate-world", "--scale", "small", "--out", world.to_str().expect("path")]);
    run_tool(&[
        "generate-corpus",
        "--world-seed",
        "42",
        "--scale",
        "small",
        "--docs",
        "12",
        "--out",
        corpus.to_str().expect("path"),
    ]);
    let world_s = world.to_str().expect("path");

    // Typed CLI validation: a malformed --shards must refuse to start.
    for bad in ["", "a:1|,b:2", "127.0.0.1:1,127.0.0.1:1", "nonsense"] {
        let out = Command::new(release_binary())
            .args(["serve", "--world", world_s, "--mode", "router", "--shards", bad])
            .output()
            .expect("spawn");
        assert!(!out.status.success(), "--shards {bad:?} must be rejected");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--shards"), "error names the flag: {err}");
    }

    // Two groups × two replicas, each shard durable in its own dir.
    let (mut p0, p0_addr) = spawn_shard(&world, &corpus, &dir.join("p0"), 0, 2, "127.0.0.1:0");
    let (mut s0, s0_addr) = spawn_shard(&world, &corpus, &dir.join("s0"), 0, 2, "127.0.0.1:0");
    let (mut p1, p1_addr) = spawn_shard(&world, &corpus, &dir.join("p1"), 1, 2, "127.0.0.1:0");
    let (mut s1, s1_addr) = spawn_shard(&world, &corpus, &dir.join("s1"), 1, 2, "127.0.0.1:0");
    let shards = format!("{p0_addr}|{s0_addr},{p1_addr}|{s1_addr}");
    let (mut router, router_addr) = spawn_server(&[
        "serve", "--world", world_s, "--addr", "127.0.0.1:0", "--mode", "router", "--shards",
        &shards,
    ]);
    // One standalone process over the whole corpus: the merge oracle.
    let (mut mono, mono_addr) = spawn_server(&[
        "serve",
        "--world",
        world_s,
        "--corpus",
        corpus.to_str().expect("path"),
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "2",
    ]);

    // Router healthz: the JSON body says what this node is.
    let (status, v) = get(router_addr, "/v1/healthz");
    assert_eq!(status, 200);
    assert_eq!(v["status"], "ok");
    assert_eq!(v["backend"], "router");
    assert_eq!(v["degraded"], false);

    // Scatter-gather answers exactly what the single process answers —
    // same docs, same score text (both sides print the same f64 bits).
    let first_line = std::fs::read_to_string(&corpus)
        .expect("read corpus")
        .lines()
        .next()
        .expect("non-empty corpus")
        .to_string();
    let query: String = first_line.split_whitespace().take(5).collect::<Vec<_>>().join(" ");
    let (status, routed) = search(router_addr, &query, 8);
    assert_eq!(status, 200, "{routed:?}");
    assert_eq!(routed["degraded"], false);
    let (status, solo) = search(mono_addr, &query, 8);
    assert_eq!(status, 200);
    assert!(!doc_ids(&solo).is_empty(), "oracle query must hit: {query:?}");
    assert_eq!(
        routed.get("results"),
        solo.get("results"),
        "router merge must be identical to the single process"
    );
    mono.kill().expect("kill oracle");
    mono.wait().expect("reap oracle");

    // Four inserts through the router, two per group (texts picked by
    // the same content hash the router routes with). Interleaved so the
    // minted ids are deterministic: 12, 13, 14, 15.
    let (mut group0_texts, mut group1_texts) = (Vec::new(), Vec::new());
    let mut i = 0;
    while group0_texts.len() < 2 || group1_texts.len() < 2 {
        let text = format!("Survivor document number {i}.");
        let target = if fnv1a64(text.as_bytes()).is_multiple_of(2) {
            &mut group0_texts
        } else {
            &mut group1_texts
        };
        if target.len() < 2 {
            target.push(text);
        }
        i += 1;
    }
    let mut acked = Vec::new();
    for pair in group0_texts.iter().zip(&group1_texts) {
        for (text, group) in [(pair.0, 0), (pair.1, 1)] {
            let body = format!(r#"{{"text": {text:?}}}"#);
            let (status, text) =
                client::request(router_addr, "POST", "/v1/docs", &body).expect("insert");
            assert_eq!(status, 200, "{text}");
            let v = parse(&text);
            let id = v["id"].as_i64().expect("minted id");
            assert_eq!(v["shard_group"].as_i64(), Some(group), "{text}");
            assert_eq!(id % 2, group, "ids mint on the owning shard's stripe");
            acked.push(id);
        }
    }
    assert_eq!(acked, vec![12, 13, 14, 15]);
    let (status, v) = search(router_addr, "Survivor document number", 20);
    assert_eq!(status, 200);
    let ids = doc_ids(&v);
    for id in &acked {
        assert!(ids.contains(id), "inserted doc {id} must be searchable: {ids:?}");
    }

    // SIGKILL the group-0 primary: reads fail over to the secondary
    // within the same request — still 200, not degraded.
    p0.kill().expect("kill -9 p0");
    p0.wait().expect("reap p0");
    let (status, v) = search(router_addr, &query, 8);
    assert_eq!(status, 200, "failover search: {v:?}");
    assert_eq!(v["degraded"], false);
    let (status, m) = get(router_addr, "/v1/metrics");
    assert_eq!(status, 200);
    assert!(
        m["cluster"]["groups"][0]["failovers"].as_i64().expect("failovers") >= 1,
        "{m:?}"
    );

    // Writes must NOT fail over (the secondary does not own the WAL):
    // an insert routed to the dead primary's group is refused.
    let unacked = text_for_group("Unacked zulu", 0);
    let body = format!(r#"{{"text": {unacked:?}}}"#);
    let (status, text) = client::request(router_addr, "POST", "/v1/docs", &body).expect("insert");
    assert_eq!(status, 503, "dead primary refuses writes: {text}");
    // The healthy group still takes writes.
    let body = format!(r#"{{"text": {:?}}}"#, text_for_group("Failback", 1));
    let (status, text) = client::request(router_addr, "POST", "/v1/docs", &body).expect("insert");
    assert_eq!(status, 200, "{text}");

    // Kill the secondary too: group 0 is gone. The router answers 503
    // with the partial results it could gather and says so.
    s0.kill().expect("kill -9 s0");
    s0.wait().expect("reap s0");
    let (status, v) = search(router_addr, "Survivor document number", 20);
    assert_eq!(status, 503, "whole group down: {v:?}");
    assert_eq!(v["degraded"], true);
    let ids = doc_ids(&v);
    assert!(!ids.is_empty(), "partial results from the surviving group");
    assert!(ids.iter().all(|id| id % 2 == 1), "only group-1 docs remain: {ids:?}");
    let (_, h) = get(router_addr, "/v1/healthz");
    assert_eq!(h["status"], "degraded");
    assert_eq!(h["degraded"], true);

    // Restart the primary on its old address and data dir: WAL replay
    // brings back every acknowledged write, and the router heals on the
    // next call (a group with no healthy replica retries cold ones).
    let (mut p0, _) = spawn_shard(
        &world,
        &corpus,
        &dir.join("p0"),
        0,
        2,
        &p0_addr.to_string(),
    );
    let (status, v) = search(router_addr, "Survivor document number", 20);
    assert_eq!(status, 200, "healed search: {v:?}");
    assert_eq!(v["degraded"], false);
    let ids = doc_ids(&v);
    for id in &acked {
        assert!(ids.contains(id), "acked write {id} survived the kill: {ids:?}");
    }
    // The refused write really was never applied anywhere.
    let (status, v) = search(router_addr, "Unacked zulu", 20);
    assert_eq!(status, 200);
    assert!(
        doc_ids(&v).iter().all(|&id| id < 12),
        "the 503'd insert must not exist: {v:?}"
    );
    // The restarted shard itself confirms the replay.
    let (status, m) = get(p0_addr, "/v1/metrics");
    assert_eq!(status, 200);
    assert_eq!(m["index"]["docs"], 8u64, "6 striped + 2 acked inserts: {m:?}");
    assert!(m["durability"]["wal_records_replayed"].as_i64().expect("replay") >= 2);

    // Restart the primary once more on the same data directory, with no
    // write in between: the replay rebuilds the same documents, but the
    // new process stamps a new generation, so the overlay the router
    // cached before the restart must be refuted, never ranked under.
    let overlay = |counter: &str| {
        let (_, m) = get(router_addr, "/v1/metrics");
        m["cluster"]["overlay"][counter].as_i64().expect("overlay counter")
    };
    let (status, before_restart) = search(router_addr, "Survivor document number", 20);
    assert_eq!(status, 200, "{before_restart:?}");
    let hits = overlay("hits");
    let (_, again) = search(router_addr, "Survivor document number", 20);
    assert_eq!(again.get("results"), before_restart.get("results"));
    assert_eq!(overlay("hits"), hits + 1, "the overlay is cached before the restart");
    let stale = overlay("stale");
    p0.kill().expect("kill -9 p0 again");
    p0.wait().expect("reap p0");
    let (mut p0, _) = spawn_shard(
        &world,
        &corpus,
        &dir.join("p0"),
        0,
        2,
        &p0_addr.to_string(),
    );
    let give_up = Instant::now() + Duration::from_secs(10);
    while get(router_addr, "/v1/healthz").1["status"] != "ok" {
        assert!(Instant::now() < give_up, "router never saw p0 again");
        std::thread::sleep(Duration::from_millis(50));
    }
    let (status, v) = search(router_addr, "Survivor document number", 20);
    assert_eq!(status, 200, "search after the restart: {v:?}");
    assert_eq!(v["degraded"], false);
    assert_eq!(v.get("results"), before_restart.get("results"), "same documents, same answer");
    assert_eq!(overlay("stale"), stale + 1, "the pre-restart overlay was refuted");

    for child in [&mut p0, &mut p1, &mut s1, &mut router] {
        child.kill().expect("cleanup kill");
        child.wait().expect("reap");
    }
    std::fs::remove_dir_all(&dir).ok();
}
