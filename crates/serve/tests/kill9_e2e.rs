//! The real thing: spawn the release `newslink serve --data-dir` binary,
//! mutate it over TCP, `kill -9` it mid-flight, restart it on the same
//! directory, and verify every acknowledged mutation survived.
//!
//! Ignored by default because it needs `target/release/newslink` to
//! exist; `scripts/tier1.sh` builds release first and then runs it with
//! `-- --ignored`.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use newslink_serve::client;
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
    let dir = std::env::temp_dir().join(format!("newslink_kill9_{}_{tag}", std::process::id()));
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

/// Spawn `newslink serve` and block until its startup banner reveals the
/// bound address. The child's stdout stays piped (and is drained by a
/// thread) so the server never blocks on a full pipe.
fn spawn_server(
    world: &Path,
    corpus: &Path,
    data_dir: &Path,
) -> (Child, SocketAddr) {
    let mut child = Command::new(release_binary())
        .args([
            "serve",
            "--world",
            world.to_str().expect("utf-8 path"),
            "--corpus",
            corpus.to_str().expect("utf-8 path"),
            "--addr",
            "127.0.0.1:0",
            "--data-dir",
            data_dir.to_str().expect("utf-8 path"),
            "--workers",
            "2",
        ])
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
        assert!(n > 0, "server exited before printing its banner");
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
    (child, addr)
}

fn parse(body: &str) -> Value {
    serde_json::from_str(body).unwrap_or_else(|e| panic!("bad JSON {e}: {body}"))
}

fn metrics(addr: SocketAddr) -> Value {
    let (status, text) = client::request(addr, "GET", "/metrics", "").expect("GET /metrics");
    assert_eq!(status, 200, "{text}");
    parse(&text)
}

#[test]
#[ignore = "needs target/release/newslink; run via scripts/tier1.sh"]
fn sigkill_loses_no_acknowledged_mutation() {
    let dir = temp_dir("sigkill");
    let world = dir.join("kg.tsv");
    let corpus = dir.join("corpus.txt");
    let data_dir = dir.join("data");
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

    // First lifetime: mutate, then die without warning.
    let (mut child, addr) = spawn_server(&world, &corpus, &data_dir);
    let base_docs = metrics(addr)["index"]["docs"].as_i64().expect("docs gauge");
    assert_eq!(base_docs, 12);

    for i in 0..3 {
        let body = format!(r#"{{"text": "Survivor document number {i}."}}"#);
        let (status, text) = client::request(addr, "POST", "/docs", &body).expect("POST /docs");
        assert_eq!(status, 200, "insert {i}: {text}");
    }
    let (status, text) = client::request(addr, "DELETE", "/docs/0", "").expect("DELETE");
    assert_eq!(status, 200, "{text}");
    let v = metrics(addr);
    assert_eq!(v["index"]["docs"], 14u64);
    assert_eq!(v["durability"]["wal_appends"], 4u64);

    // SIGKILL: no drop handlers, no flush, no goodbye.
    child.kill().expect("kill -9");
    child.wait().expect("reap");

    // Second lifetime on the same directory: the WAL replays.
    let (mut child, addr) = spawn_server(&world, &corpus, &data_dir);
    let v = metrics(addr);
    assert_eq!(
        v["index"]["docs"], 14u64,
        "12 built + 3 inserted - 1 deleted survive the kill: {v:?}"
    );
    assert_eq!(v["durability"]["wal_records_replayed"], 4u64, "{v:?}");
    assert_eq!(v["durability"]["degraded"], false, "{v:?}");

    let (status, text) = client::request(addr, "GET", "/healthz", "").expect("GET /healthz");
    assert_eq!(status, 200);
    let health = parse(&text);
    assert_eq!(health["status"], "ok");
    assert_eq!(health["backend"], "durable", "{text}");

    // The replayed inserts are live and searchable; the delete held.
    let (status, text) = client::request(
        addr,
        "POST",
        "/search",
        r#"{"query": "survivor document", "k": 14}"#,
    )
    .expect("POST /search");
    assert_eq!(status, 200, "{text}");
    let (status, _) = client::request(addr, "DELETE", "/docs/0", "").expect("DELETE again");
    assert_eq!(status, 404, "doc 0 stayed deleted across the kill");

    child.kill().expect("cleanup kill");
    child.wait().expect("reap");
    std::fs::remove_dir_all(&dir).ok();
}
