//! Chaos end-to-end suite: the cluster router driven through seeded
//! network fault injection ([`newslink_util::chaos`]).
//!
//! Every test stands up real TCP servers — a standalone *mono* oracle
//! holding the whole corpus, shard servers holding stripes, and a
//! router — and puts a [`ChaosProxy`] in front of selected replicas.
//! The contract under test, per fault class:
//!
//! - **Recoverable faults** (latency, throttling, short writes, resets
//!   with a healthy sibling replica): the router's answers stay
//!   **bit-identical** to the mono oracle, paid for out of the retry
//!   budget — never silently truncated, never degraded.
//! - **Loss faults** (a black-holed group with no healthy sibling): the
//!   router answers an **honestly degraded 503** — `"degraded": true`
//!   and the dead group listed — within the request deadline.
//! - **Sustained refusal** trips the replica's circuit breaker (calls
//!   stop dialing it entirely), and a healed replica is re-admitted by
//!   the probe loop without any data traffic.
//! - The prober itself is immune to black holes and slow-loris drips:
//!   every probe carries an absolute deadline, so `probe_once` returns
//!   on budget no matter how the replica misbehaves.
//!
//! Fault schedules are pure functions of a u64 seed, so each run
//! injects exactly the same faults — chaos testing without flakes.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use newslink_core::{NewsLink, NewsLinkConfig, NewsLinkIndex};
use newslink_kg::{EntityType, GraphBuilder, KnowledgeGraph, LabelIndex};
use newslink_serve::cluster::client::ReplicaClient;
use newslink_serve::{client, Cluster, ResilienceConfig, ServeConfig, Server};
use newslink_util::chaos::{ChaosProxy, Fault, FaultPlan};
use newslink_util::{wake_accept, ShutdownFlag};
use parking_lot::RwLock;
use serde::Value;

/// A small fixed world: enough entities that documents collide on both
/// the BOW side (shared filler words) and the BON side (shared graph
/// neighborhoods). Same shape as `cluster_prop`'s.
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

/// A fixed eight-document corpus: determinism end to end.
fn corpus() -> Vec<String> {
    [
        "Taliban attack in Kunar near the Khyber border.",
        "Pakistan trade talks with Kabul resume.",
        "UNHCR aid convoy reaches Kabul after the storm.",
        "Khyber festival draws crowds from Pakistan.",
        "Storm damages aid depots in Kunar.",
        "Kabul festival celebrates trade with Pakistan.",
        "Taliban talks stall as UNHCR warns on aid.",
        "Khyber attack disrupts Pakistan trade routes.",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

const SEARCHES: &[(&str, f64, usize)] = &[
    ("Taliban attack Khyber", 0.2, 3),
    ("Pakistan trade", 0.5, 4),
    ("UNHCR aid Kabul", 0.0, 2),
    ("storm festival", 1.0, 3),
];

/// Everything a test body needs to poke the running cluster.
struct Ctx<'a> {
    mono: SocketAddr,
    router: SocketAddr,
    proxies: &'a [Vec<Option<ChaosProxy>>],
    cluster: &'a Cluster,
}

impl Ctx<'_> {
    /// The router's `/metrics` document.
    fn metrics(&self) -> Value {
        let (status, body) =
            client::request(self.router, "GET", "/metrics", "").expect("metrics fetch");
        assert_eq!(status, 200, "{body}");
        serde_json::from_str(&body).expect("metrics json")
    }

    /// The replica object at `(group, replica)` inside `/metrics`.
    fn replica_metrics(&self, group: usize, replica: usize) -> Value {
        self.metrics()
            .get("cluster")
            .and_then(|c| c.get("groups"))
            .and_then(|g| g.as_array())
            .and_then(|g| g.get(group).cloned())
            .and_then(|g| g.get("replicas").and_then(|r| r.as_array().map(|a| a.to_vec())))
            .and_then(|r| r.get(replica).cloned())
            .expect("replica metrics present")
    }

    /// The cluster-level resilience section of `/metrics`.
    fn resilience_metrics(&self) -> Value {
        self.metrics()
            .get("cluster")
            .and_then(|c| c.get("resilience").cloned())
            .expect("resilience metrics present")
    }
}

/// Stand up mono + shards + proxies + router and hand control to
/// `body`. `plans[g][r]` is `Some(plan)` to interpose a chaos proxy in
/// front of replica `r` of group `g`, `None` to wire it directly. All
/// replicas of a group serve the same shard index.
fn with_chaos_cluster(
    plans: Vec<Vec<Option<FaultPlan>>>,
    resilience: ResilienceConfig,
    request_timeout_ms: Option<u64>,
    body: impl FnOnce(&Ctx<'_>),
) {
    let (graph, labels) = world();
    let texts = corpus();
    // Multi-segment on both sides so the layered merge invariants are
    // the ones under chaos, not a degenerate single-segment case.
    let config = NewsLinkConfig::default().with_segment_docs(2);
    let engine = NewsLink::new(&graph, &labels, config);
    let shard_count = plans.len() as u32;

    let mono_index = RwLock::new(engine.index_corpus(&texts));
    let mut shard_indexes: Vec<RwLock<NewsLinkIndex>> = Vec::new();
    for s in 0..shard_count {
        let mut idx = engine.index_corpus_sharded(&texts, s, shard_count);
        idx.set_id_stripe(s, shard_count);
        shard_indexes.push(RwLock::new(idx));
    }

    let mut serve_config = ServeConfig {
        read_timeout_ms: 250,
        ..ServeConfig::default()
    };
    if let Some(ms) = request_timeout_ms {
        serve_config = serve_config.with_default_timeout(Duration::from_millis(ms));
    }
    let mono = Server::bind("127.0.0.1:0", serve_config.clone()).expect("bind mono");
    // One server per replica; replicas of a group share the group's
    // index (they are supposed to be identical copies).
    let replica_servers: Vec<Vec<Server>> = plans
        .iter()
        .map(|group| {
            group
                .iter()
                .map(|_| Server::bind("127.0.0.1:0", serve_config.clone()).expect("bind replica"))
                .collect()
        })
        .collect();
    // Interpose the chaos proxies and collect what the router dials.
    let proxies: Vec<Vec<Option<ChaosProxy>>> = plans
        .iter()
        .zip(&replica_servers)
        .map(|(group_plans, group_servers)| {
            group_plans
                .iter()
                .zip(group_servers)
                .map(|(plan, srv)| {
                    plan.clone()
                        .map(|p| ChaosProxy::spawn(srv.local_addr(), p).expect("spawn proxy"))
                })
                .collect()
        })
        .collect();
    let groups: Vec<Vec<SocketAddr>> = proxies
        .iter()
        .zip(&replica_servers)
        .map(|(group_proxies, group_servers)| {
            group_proxies
                .iter()
                .zip(group_servers)
                .map(|(proxy, srv)| match proxy {
                    Some(p) => p.addr(),
                    None => srv.local_addr(),
                })
                .collect()
        })
        .collect();
    let cluster = Cluster::with_config(groups, resilience);
    let router = Server::bind("127.0.0.1:0", serve_config).expect("bind router");

    let mono_handle = mono.handle();
    let router_handle = router.handle();
    let replica_handles: Vec<_> = replica_servers
        .iter()
        .flatten()
        .map(Server::handle)
        .collect();

    let (engine, mono_index, cluster) = (&engine, &mono_index, &cluster);
    let (mono, router, proxies) = (&mono, &router, &proxies);
    let replica_servers = &replica_servers;
    std::thread::scope(|scope| {
        scope.spawn(move || mono.run(engine, mono_index));
        for (group_servers, idx) in replica_servers.iter().zip(&shard_indexes) {
            for srv in group_servers {
                scope.spawn(move || srv.run(engine, idx));
            }
        }
        scope.spawn(move || router.run_router(engine, cluster));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            body(&Ctx {
                mono: mono_handle.addr(),
                router: router_handle.addr(),
                proxies,
                cluster,
            })
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

/// Run the fixed search set against both servers and demand bit-equal
/// results and explanations and a non-degraded router answer.
fn assert_bit_identical(ctx: &Ctx<'_>) {
    for (query, beta, k) in SEARCHES {
        let body = format!(r#"{{"query": {query:?}, "k": {k}, "beta": {beta}, "explain": true}}"#);
        let (ms, mtext) = client::request(ctx.mono, "POST", "/v1/search", &body).expect("mono");
        let (rs, rtext) = client::request(ctx.router, "POST", "/v1/search", &body).expect("router");
        assert_eq!(ms, 200, "mono: {mtext}");
        assert_eq!(rs, 200, "router: {rtext}");
        let m: Value = serde_json::from_str(&mtext).expect("mono json");
        let r: Value = serde_json::from_str(&rtext).expect("router json");
        assert_eq!(
            m.get("results"),
            r.get("results"),
            "query {query:?}: results diverge\nmono:   {mtext}\nrouter: {rtext}"
        );
        assert_eq!(m.get("explanations"), r.get("explanations"), "query {query:?}");
        assert_eq!(r.get("degraded"), Some(&Value::Bool(false)), "{rtext}");
    }
}

/// Assert upstream amplification stayed inside the configured budget:
/// `retries_spent ≤ ratio × primary_calls + cap` (the token bucket's
/// hard bound), from the router's own `/metrics` counters.
fn assert_amplification_bounded(ctx: &Ctx<'_>) {
    let res = ctx.resilience_metrics();
    let get = |k: &str| res.get(k).and_then(|v| v.as_i64()).expect("counter") as f64;
    let cfg = ctx.cluster.config();
    let bound = cfg.retry_budget * get("primary_calls") + cfg.retry_budget_cap;
    let spent = get("retries_spent");
    assert!(
        spent <= bound.floor(),
        "amplification {spent} exceeds budget bound {bound} (ratio {}, cap {})",
        cfg.retry_budget,
        cfg.retry_budget_cap
    );
}

// ---------------------------------------------------------------------
// Recoverable faults: bit-identical answers.
// ---------------------------------------------------------------------

/// Latency and throttling lose nothing: the router's answers are
/// bit-identical to the oracle straight through the sick connections —
/// no failover even needed, just patience inside the deadline.
#[test]
fn latency_and_throttle_faults_stay_bit_identical() {
    let plans = vec![
        vec![Some(FaultPlan::always(Fault::Delay { ms: 15, jitter_ms: 5 }))],
        vec![Some(FaultPlan::always(Fault::Throttle { bytes_per_sec: 20_000 }))],
    ];
    with_chaos_cluster(plans, ResilienceConfig::default(), None, |ctx| {
        // Writes cross the sick wire too: delete on both sides, then
        // compare answers over the mutated corpus.
        for id in [0u32, 3] {
            let path = format!("/v1/docs/{id}");
            let (ms, _) = client::request(ctx.mono, "DELETE", &path, "").expect("mono delete");
            let (rs, rb) = client::request(ctx.router, "DELETE", &path, "").expect("router delete");
            assert_eq!(ms, rs, "delete {id}: router said {rb}");
        }
        assert_bit_identical(ctx);
        let delayed = ctx.proxies[0][0].as_ref().expect("proxy").stats().delays();
        assert!(delayed > 0, "the latency fault actually fired");
    });
}

/// A replica that truncates responses (short writes) is failed over
/// within the request: answers stay bit-identical, the retry budget
/// pays for the extra attempts, and amplification stays bounded.
#[test]
fn short_writes_fail_over_bit_identical() {
    let plans = vec![vec![
        Some(FaultPlan::always(Fault::ShortWrite { keep_bytes: 60 })),
        None,
    ]];
    let cfg = ResilienceConfig {
        retry_budget: 1.0,
        // Keep the prober from marking the sick replica down before the
        // first request: otherwise that request goes straight to the
        // sibling, no failover happens and whether one is observed
        // depends on a race with the prober's first sweep.
        probe_failures: u32::MAX,
        ..ResilienceConfig::default()
    };
    with_chaos_cluster(plans, cfg, None, |ctx| {
        assert_bit_identical(ctx);
        let stats = ctx.proxies[0][0].as_ref().expect("proxy").stats();
        assert!(stats.short_writes() > 0, "the fault actually fired");
        let res = ctx.resilience_metrics();
        assert!(
            res.get("retries_spent").and_then(|v| v.as_i64()).expect("spent") > 0,
            "failover was budget-paid: {res:?}"
        );
        assert_amplification_bounded(ctx);
    });
}

/// Same contract under mid-stream connection resets.
#[test]
fn resets_fail_over_bit_identical() {
    let plans = vec![vec![
        Some(FaultPlan::always(Fault::Reset { after_bytes: 20 })),
        None,
    ]];
    let cfg = ResilienceConfig {
        retry_budget: 1.0,
        ..ResilienceConfig::default()
    };
    with_chaos_cluster(plans, cfg, None, |ctx| {
        assert_bit_identical(ctx);
        let stats = ctx.proxies[0][0].as_ref().expect("proxy").stats();
        assert!(stats.resets() > 0, "the fault actually fired");
        assert_amplification_bounded(ctx);
    });
}

/// Hedged reads around one slow replica: the delayed replica is listed
/// first, so it is every read's primary; after 3 ms the router races a
/// budget-paid hedge at the healthy sibling and takes whichever answers
/// first. Answers stay bit-identical, hedges both launch and win, and
/// amplification stays inside the budget. Latency is not asserted.
#[test]
fn hedged_reads_beat_a_slow_primary_bit_identical() {
    let slow = FaultPlan::always(Fault::Delay {
        ms: 15,
        jitter_ms: 5,
    });
    let plans = vec![vec![Some(slow), None]];
    let cfg = ResilienceConfig {
        hedge_after_ms: Some(3),
        retry_budget: 2.0,
        ..Default::default()
    };
    with_chaos_cluster(plans, cfg, None, |ctx| {
        assert_bit_identical(ctx);
        let res = ctx.resilience_metrics();
        let counter = |k: &str| res.get(k).and_then(|v| v.as_i64()).expect("counter");
        assert!(
            counter("hedges_launched") > 0 && counter("hedges_won") > 0,
            "hedges launched at and won against the slow primary: {res:?}"
        );
        assert_amplification_bounded(ctx);
    });
}

// ---------------------------------------------------------------------
// Loss faults: honest degradation.
// ---------------------------------------------------------------------

/// A black-holed group with no healthy sibling cannot contribute —
/// the router must answer an honest 503 with `"degraded": true` within
/// the request deadline, never a silently truncated 200.
#[test]
fn black_holed_group_degrades_honestly_within_deadline() {
    let plans = vec![vec![None], vec![Some(FaultPlan::always(Fault::BlackHole))]];
    with_chaos_cluster(plans, ResilienceConfig::default(), Some(700), |ctx| {
        let body = r#"{"query": "Pakistan trade", "k": 4}"#;
        let t = Instant::now();
        let (status, text) =
            client::request(ctx.router, "POST", "/v1/search", body).expect("router search");
        let elapsed = t.elapsed();
        assert_eq!(status, 503, "loss must degrade, not fake a 200: {text}");
        let r: Value = serde_json::from_str(&text).expect("json");
        assert_eq!(r.get("degraded"), Some(&Value::Bool(true)), "{text}");
        // The black-holed group is down; the sibling group may also
        // report down if the hole consumed the whole gather deadline
        // before its later phases ran. Honesty is the contract, not a
        // minimal blast radius.
        let down = r
            .get("groups_down")
            .and_then(|v| v.as_i64())
            .expect("groups_down counted");
        assert!(down >= 1, "the black-holed group is counted down: {text}");
        assert!(r.get("results").is_some(), "partials still carry a results field");
        assert!(
            elapsed < Duration::from_millis(2_500),
            "answered within the deadline, not the black hole's: {elapsed:?}"
        );
        assert!(
            ctx.proxies[1][0].as_ref().expect("proxy").stats().black_holed() > 0,
            "the fault actually fired"
        );
        let m = ctx.metrics();
        let degraded = m
            .get("cluster")
            .and_then(|c| c.get("degraded_responses"))
            .and_then(|v| v.as_i64())
            .expect("degraded counter");
        assert!(degraded >= 1);
    });
}

// ---------------------------------------------------------------------
// Breaker lifecycle: trip on refusal, heal through the prober.
// ---------------------------------------------------------------------

/// Sustained connection refusal trips the replica's breaker: the router
/// stops dialing it entirely (fail-fast, no connect spent) while its
/// healthy sibling keeps answering 200. Healing the proxy lets the
/// probe loop close the breaker again with no data traffic required.
#[test]
fn refusal_opens_breaker_and_probe_heals_it() {
    let plans = vec![vec![Some(FaultPlan::always(Fault::Refuse)), None]];
    let cfg = ResilienceConfig {
        probe_interval_ms: 100,
        breaker_window: 4,
        breaker_failures: 2,
        breaker_cooldown_ms: 60_000, // heal only through a probe success
        retry_budget: 4.0,
        ..ResilienceConfig::default()
    };
    with_chaos_cluster(plans, cfg, None, |ctx| {
        let search = |label: &str| {
            let body = r#"{"query": "Pakistan trade", "k": 3}"#;
            let (status, text) =
                client::request(ctx.router, "POST", "/v1/search", body).expect("router search");
            assert_eq!(status, 200, "{label}: {text}");
        };
        // Drive until the breaker opens (probe failures at 100 ms
        // cadence accumulate even without traffic).
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            search("while tripping");
            let state = ctx.replica_metrics(0, 0);
            if state.get("breaker").and_then(|v| v.as_str()) == Some("open") {
                break;
            }
            assert!(Instant::now() < deadline, "breaker never opened: {state:?}");
            std::thread::sleep(Duration::from_millis(50));
        }
        // Open breaker: the sick replica is not dialed anymore, yet
        // reads keep succeeding through the sibling.
        let dialed_while_open = ctx.cluster.groups()[0].replicas()[0].requests();
        for _ in 0..3 {
            search("while open");
        }
        assert_eq!(
            ctx.cluster.groups()[0].replicas()[0].requests(),
            dialed_while_open,
            "an open breaker spends no connects on the data path"
        );
        // Heal the proxy; the prober is the half-open trial and closes
        // the breaker within a few sweeps.
        ctx.proxies[0][0].as_ref().expect("proxy").set_plan(FaultPlan::healthy());
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let state = ctx.replica_metrics(0, 0);
            if state.get("breaker").and_then(|v| v.as_str()) == Some("closed")
                && state.get("healthy") == Some(&Value::Bool(true))
            {
                break;
            }
            assert!(Instant::now() < deadline, "breaker never healed: {state:?}");
            std::thread::sleep(Duration::from_millis(50));
        }
        search("after heal");
        assert_bit_identical(ctx);
    });
}

// ---------------------------------------------------------------------
// Prober immunity (satellite regression): probes carry deadlines.
// ---------------------------------------------------------------------

/// A running [`fixed_upstream`]; dropping it stops its accept loop.
struct FixedUpstream {
    addr: SocketAddr,
    stop: ShutdownFlag,
}

impl Drop for FixedUpstream {
    fn drop(&mut self) {
        self.stop.trigger();
        wake_accept(self.addr);
    }
}

/// A minimal standalone upstream answering every request with one
/// framed response of `body_len` bytes — big enough to drip slowly.
fn fixed_upstream(body_len: usize) -> FixedUpstream {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind upstream");
    let addr = listener.local_addr().expect("addr");
    let stop = ShutdownFlag::new();
    let stop2 = stop.clone();
    std::thread::spawn(move || {
        while !stop2.is_triggered() {
            match listener.accept() {
                Ok(_) if stop2.is_triggered() => break,
                Ok((mut s, _)) => {
                    let stop3 = stop2.clone();
                    std::thread::spawn(move || {
                        let _ = s.set_read_timeout(Some(Duration::from_millis(50)));
                        let mut pending = Vec::new();
                        let mut buf = [0u8; 4096];
                        while !stop3.is_triggered() {
                            match (&s).read(&mut buf) {
                                Ok(0) => break,
                                Ok(n) => {
                                    pending.extend_from_slice(&buf[..n]);
                                    while let Some(pos) =
                                        pending.windows(4).position(|w| w == b"\r\n\r\n")
                                    {
                                        pending.drain(..pos + 4);
                                        let body = "x".repeat(body_len);
                                        let resp = format!(
                                            "HTTP/1.1 200 OK\r\nContent-Length: {body_len}\r\nConnection: keep-alive\r\n\r\n{body}"
                                        );
                                        if s.write_all(resp.as_bytes()).is_err() {
                                            return;
                                        }
                                    }
                                }
                                Err(e)
                                    if matches!(
                                        e.kind(),
                                        std::io::ErrorKind::WouldBlock
                                            | std::io::ErrorKind::TimedOut
                                    ) => {}
                                Err(_) => break,
                            }
                        }
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    });
    FixedUpstream { addr, stop }
}

/// The slow-loris regression: a replica dripping bytes fast enough to
/// keep every *individual* read alive must still lose against the
/// call's absolute deadline. Before the `DeadlineStream` fix the
/// per-syscall read timeout re-armed on every drip, so this call took
/// as long as the replica cared to drip.
#[test]
fn deadline_beats_a_byte_dripping_replica() {
    let upstream = fixed_upstream(2_048);
    // 64-byte slices every ~50 ms: each read succeeds well inside a
    // 250 ms socket timeout, but the full response takes ~1.6 s.
    let proxy = ChaosProxy::spawn(upstream.addr, FaultPlan::always(Fault::Throttle { bytes_per_sec: 1_280 }))
        .expect("spawn proxy");
    let client = ReplicaClient::new(proxy.addr());
    let t = Instant::now();
    let deadline = t + Duration::from_millis(250);
    let err = client
        .call("GET", "/healthz", "", Some(deadline))
        .expect_err("a dripped response must not beat the deadline");
    let elapsed = t.elapsed();
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut, "{err}");
    assert!(
        elapsed < Duration::from_millis(800),
        "returned at the deadline, not the drip's pace: {elapsed:?}"
    );
}

/// A black-holed (and a dripping) replica cannot stall the prober
/// thread: `probe_once` completes on budget and marks them unhealthy.
#[test]
fn prober_is_immune_to_black_holes_and_drips() {
    let upstream = fixed_upstream(256);
    let hole = ChaosProxy::spawn(upstream.addr, FaultPlan::always(Fault::BlackHole)).expect("hole");
    let drip = ChaosProxy::spawn(upstream.addr, FaultPlan::always(Fault::Throttle { bytes_per_sec: 320 }))
        .expect("drip");
    let cluster = Cluster::new(vec![vec![hole.addr()], vec![drip.addr()]]);
    let t = Instant::now();
    cluster.probe_once();
    let elapsed = t.elapsed();
    // Two sequential probes at a 250 ms budget each, plus slack.
    assert!(
        elapsed < Duration::from_millis(1_500),
        "probe sweep stalled: {elapsed:?}"
    );
    for (g, name) in [(0, "black-holed"), (1, "dripping")] {
        assert!(
            !cluster.groups()[g].replicas()[0].is_healthy(),
            "{name} replica marked unhealthy"
        );
    }
}

// ---------------------------------------------------------------------
// Determinism: same seed, same injected faults.
// ---------------------------------------------------------------------

/// Drive `n` sequential one-request connections into a proxy and
/// report its fault counters.
fn drive_and_count(plan: &FaultPlan, upstream: SocketAddr, n: u64) -> Vec<u64> {
    let proxy = ChaosProxy::spawn(upstream, plan.clone()).expect("spawn proxy");
    for _ in 0..n {
        // Sequential single client: accept order equals connection
        // order, so the seeded schedule maps 1:1 onto connections.
        if let Ok(stream) = TcpStream::connect_timeout(&proxy.addr(), Duration::from_millis(300)) {
            let _ = stream.set_read_timeout(Some(Duration::from_millis(300)));
            let mut s = &stream;
            let _ = s.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
            let mut sink = [0u8; 4096];
            while matches!(s.read(&mut sink), Ok(x) if x > 0) {}
        }
    }
    let st = proxy.stats();
    vec![
        st.connections(),
        st.passthrough(),
        st.refused(),
        st.black_holed(),
        st.delays(),
        st.resets(),
        st.short_writes(),
        st.throttled(),
    ]
}

/// The acceptance clause: the same seed yields the same fault schedule
/// across runs — observed at the wire (injected-fault counters), over a
/// plan mixing all six fault classes — and a different seed diverges.
#[test]
fn same_seed_injects_the_same_fault_schedule() {
    let all_six = |seed: u64| {
        FaultPlan::seeded(
            seed,
            vec![
                (2, Fault::None),
                (1, Fault::Refuse),
                (1, Fault::BlackHole),
                (2, Fault::Delay { ms: 5, jitter_ms: 3 }),
                (1, Fault::Reset { after_bytes: 30 }),
                (1, Fault::ShortWrite { keep_bytes: 30 }),
                (2, Fault::Throttle { bytes_per_sec: 50_000 }),
            ],
        )
    };
    // Schedule level: pure function of (seed, connection index).
    let schedule = |seed: u64| (0..64).map(|i| all_six(seed).fault_for(i)).collect::<Vec<_>>();
    assert_eq!(schedule(7), schedule(7), "same seed, same schedule");
    assert_ne!(schedule(7), schedule(8), "different seed, different schedule");
    // Wire level: two identical runs inject identical fault counts.
    let upstream = fixed_upstream(200);
    let a = drive_and_count(&all_six(7), upstream.addr, 16);
    let b = drive_and_count(&all_six(7), upstream.addr, 16);
    assert_eq!(a, b, "same seed, same injected faults on the wire");
    assert_eq!(a[0], 16, "all connections arrived");
}
