//! The cluster layer: a scatter-gather shard router with health-checked
//! replica failover and a budgeted resilience layer.
//!
//! Topology comes from [`spec::parse_shards`]: shard *groups* partition
//! the corpus by document id (`id % groups`), and each group is a
//! replica set — identical copies of that shard's index, primary first.
//! Searches scatter to **one healthy replica per group** and gather
//! through the same global-stats overlay + top-k merge the in-process
//! multi-segment search uses, so blended scores are bit-identical to a
//! single process searching the union (see [`proto`] for the wire
//! contract and `DESIGN.md` §6i for the proof sketch). The overlay a
//! search needs is cached per (query, β) and re-validated by every
//! shard's index generation, so a repeat costs one internal call per
//! group instead of three. Writes hash to
//! their owning group and go to its primary only — the replica set is
//! read scale-out, not write redundancy.
//!
//! Health: a background prober (`probe_loop`) GETs every replica's
//! `/healthz` on a configurable cadence, and every data-path call
//! updates the same flag — a failed scatter marks the replica unhealthy
//! and fails over to the next one *within the same request*. A group
//! with no reachable replica at all makes the response *degraded*: the
//! router answers `503` with the partial results it could gather and
//! `"degraded": true`, so a load balancer sheds while clients still see
//! what the healthy shards found.
//!
//! Resilience (see [`resilience`] and `DESIGN.md` §6k): every replica
//! carries a circuit breaker that `call_group` consults before dialing
//! (an open breaker is skipped without spending a connect timeout), all
//! extra attempts — failovers and hedges — are paid for from a shared
//! token-bucket retry budget so a brown-out can never become a retry
//! storm, sequential failovers are spaced by decorrelated jitter, and
//! reads can optionally *hedge*: if the chosen replica hasn't answered
//! within `--hedge-after-ms`, a second replica is raced first-success-
//! wins, with the loser reaped at its own read deadline.

pub mod client;
pub mod proto;
pub mod resilience;
pub mod spec;

mod gather;

pub use gather::{dispatch_cluster, ClusterContext};
pub use resilience::{BreakerState, CircuitBreaker, FlagError, ResilienceConfig, RetryBudget};
pub use spec::{parse_shards, SpecError};

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use newslink_util::rng::DetRng;
use newslink_util::{Histogram, ShutdownFlag};
use parking_lot::Mutex;
use serde::{Number, Serialize, Value};

use client::ReplicaClient;
use resilience::DecorrelatedJitter;

/// Per-probe deadline: a health check must be cheap and decisive. This
/// also bounds how long a black-holed replica can hold the prober.
const PROBE_BUDGET_MS: u64 = 250;

/// One replica of one shard group: its pooled client, circuit breaker,
/// and health and traffic counters.
#[derive(Debug)]
pub struct Replica {
    client: ReplicaClient,
    /// Start optimistic: the first failed call or probe flips it.
    healthy: AtomicBool,
    breaker: CircuitBreaker,
    probes: AtomicU64,
    probe_failures: AtomicU64,
    /// Probe failures since the last probe success — compared against
    /// `ResilienceConfig::probe_failures` before health flips.
    consecutive_probe_failures: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
}

impl Replica {
    fn new(addr: SocketAddr, cfg: &ResilienceConfig) -> Self {
        Self {
            client: ReplicaClient::new(addr),
            healthy: AtomicBool::new(true),
            breaker: CircuitBreaker::from_config(cfg),
            probes: AtomicU64::new(0),
            probe_failures: AtomicU64::new(0),
            consecutive_probe_failures: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        }
    }

    /// The replica's address.
    pub fn addr(&self) -> SocketAddr {
        self.client.addr()
    }

    /// Last known health (from the prober or the data path).
    pub fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::Relaxed)
    }

    /// Total calls attempted against this replica.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Record a data-path outcome on health flag and breaker alike.
    fn note_outcome(&self, ok: bool) {
        self.healthy.store(ok, Ordering::Relaxed);
        if !ok {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.breaker.record(ok, Instant::now());
    }
}

/// One shard group: its replicas (primary first) plus gather-side
/// latency and failover counters. Replicas are `Arc`'d so hedge
/// attempts can run on detached threads and outlive a reaped loser.
#[derive(Debug)]
pub struct ShardGroup {
    replicas: Vec<Arc<Replica>>,
    latency_us: Mutex<Histogram>,
    failovers: AtomicU64,
}

impl ShardGroup {
    /// The group's replicas, primary first.
    pub fn replicas(&self) -> &[Arc<Replica>] {
        &self.replicas
    }

    /// Whether any replica is currently believed healthy.
    pub fn has_healthy_replica(&self) -> bool {
        self.replicas.iter().any(|r| r.is_healthy())
    }
}

/// The error a scatter sees when a whole group is unreachable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupDown;

/// The full cluster topology plus its live health/traffic state.
#[derive(Debug)]
pub struct Cluster {
    groups: Vec<ShardGroup>,
    config: ResilienceConfig,
    budget: RetryBudget,
    degraded_responses: AtomicU64,
    probe_rounds: AtomicU64,
    hedges_launched: AtomicU64,
    hedges_won: AtomicU64,
    /// Per-call counter seeding each call's jitter stream.
    call_seq: AtomicU64,
    /// Routed-search overlays by (query text, β bits).
    overlays: gather::OverlayCache,
}

impl Cluster {
    /// Build the cluster from parsed replica sets (see
    /// [`spec::parse_shards`]) with default resilience settings.
    pub fn new(groups: Vec<Vec<SocketAddr>>) -> Self {
        Self::with_config(groups, ResilienceConfig::default())
    }

    /// Build the cluster with explicit resilience settings.
    pub fn with_config(groups: Vec<Vec<SocketAddr>>, config: ResilienceConfig) -> Self {
        Self {
            groups: groups
                .into_iter()
                .map(|addrs| ShardGroup {
                    replicas: addrs
                        .into_iter()
                        .map(|a| Arc::new(Replica::new(a, &config)))
                        .collect(),
                    latency_us: Mutex::new(Histogram::new()),
                    failovers: AtomicU64::new(0),
                })
                .collect(),
            budget: RetryBudget::from_config(&config),
            config,
            degraded_responses: AtomicU64::new(0),
            probe_rounds: AtomicU64::new(0),
            hedges_launched: AtomicU64::new(0),
            hedges_won: AtomicU64::new(0),
            call_seq: AtomicU64::new(0),
            overlays: gather::OverlayCache::new(),
        }
    }

    /// The resilience settings this cluster runs under.
    pub fn config(&self) -> &ResilienceConfig {
        &self.config
    }

    /// The shard groups, in spec order.
    pub fn groups(&self) -> &[ShardGroup] {
        &self.groups
    }

    /// Indices of groups with no healthy replica (the degraded set).
    pub fn groups_down(&self) -> Vec<usize> {
        self.groups
            .iter()
            .enumerate()
            .filter(|(_, g)| !g.has_healthy_replica())
            .map(|(i, _)| i)
            .collect()
    }

    /// Count one degraded (partial-results) response.
    pub(crate) fn note_degraded(&self) {
        self.degraded_responses.fetch_add(1, Ordering::Relaxed);
    }

    /// The owning group of a document id (id-hash routing: shard `s`
    /// holds documents with `id % groups == s`).
    pub fn route_doc(&self, id: u32) -> usize {
        id as usize % self.groups.len().max(1)
    }

    /// The owning group of a new document: a stable content hash, so
    /// re-submitting the same text lands on the same shard.
    pub fn route_insert(&self, text: &str) -> usize {
        (fnv1a64(text.as_bytes()) % self.groups.len().max(1) as u64) as usize
    }

    /// Candidate order for a read: healthy replicas first (in listed
    /// order), then the unhealthy ones as a last resort — a replica the
    /// prober wrote off may have just come back, and trying it beats
    /// refusing the query. Open breakers are *not* filtered here:
    /// admission is checked at attempt time, so a half-open trial slot
    /// is never consumed for a replica that is never actually dialed.
    fn candidates(&self, group: usize) -> Vec<Arc<Replica>> {
        let g = &self.groups[group];
        g.replicas
            .iter()
            .filter(|r| r.is_healthy())
            .chain(g.replicas.iter().filter(|r| !r.is_healthy()))
            .cloned()
            .collect()
    }

    /// Advance `cursor` to the next breaker-admitted candidate.
    fn next_admitted(candidates: &[Arc<Replica>], cursor: &mut usize) -> Option<Arc<Replica>> {
        while *cursor < candidates.len() {
            let r = Arc::clone(&candidates[*cursor]);
            *cursor += 1;
            if r.breaker.admit(Instant::now()) {
                return Some(r);
            }
        }
        None
    }

    /// Call one group with failover, breaker admission, the shared
    /// retry budget, and (when enabled) hedging. Every attempt past the
    /// first — failover or hedge — must be paid for from the budget;
    /// when the bucket is dry the group is reported down rather than
    /// amplifying a brown-out. Any non-200 answer or transport error
    /// marks the replica unhealthy (flag + breaker) and moves on;
    /// success marks it healthy and records gather latency.
    pub fn call_group(
        &self,
        group: usize,
        method: &str,
        path: &str,
        body: &str,
        deadline: Option<Instant>,
    ) -> Result<(u16, String), GroupDown> {
        let candidates = self.candidates(group);
        let start = Instant::now();
        let result = match self.config.hedge_after_ms {
            Some(hedge_ms) => self.call_group_hedged(group, &candidates, method, path, body, deadline, hedge_ms),
            None => self.call_group_sequential(group, &candidates, method, path, body, deadline),
        };
        if result.is_ok() {
            self.groups[group].latency_us.lock().record_micros(start.elapsed());
        }
        result
    }

    /// The non-hedged read path: one attempt at a time on the caller's
    /// thread (keeping the pooled-client fast path allocation-free),
    /// decorrelated-jitter sleeps between budget-paid failovers.
    fn call_group_sequential(
        &self,
        group: usize,
        candidates: &[Arc<Replica>],
        method: &str,
        path: &str,
        body: &str,
        deadline: Option<Instant>,
    ) -> Result<(u16, String), GroupDown> {
        let g = &self.groups[group];
        self.budget.deposit();
        let mut jitter = self.fresh_jitter();
        let mut cursor = 0;
        let mut attempt = 0;
        while let Some(r) = Self::next_admitted(candidates, &mut cursor) {
            if attempt > 0 {
                if !self.budget.try_spend() {
                    break;
                }
                g.failovers.fetch_add(1, Ordering::Relaxed);
                Self::backoff(&mut jitter, deadline);
            }
            attempt += 1;
            r.requests.fetch_add(1, Ordering::Relaxed);
            match r.client.call(method, path, body, deadline) {
                Ok((200, body)) => {
                    r.note_outcome(true);
                    return Ok((200, body));
                }
                Ok(_) | Err(_) => r.note_outcome(false),
            }
        }
        Err(GroupDown)
    }

    /// The hedged read path: attempts run on detached threads racing
    /// into a channel, first 200 wins. If the lead attempt hasn't
    /// answered by `hedge_ms`, one budget-paid hedge is launched
    /// against the next admitted replica; failures trigger budget-paid
    /// failover respawns. Losing attempts are not joined — each dies at
    /// its own read deadline and its outcome still lands on the
    /// replica's breaker/health via the `Arc`.
    #[allow(clippy::too_many_arguments)]
    fn call_group_hedged(
        &self,
        group: usize,
        candidates: &[Arc<Replica>],
        method: &str,
        path: &str,
        body: &str,
        deadline: Option<Instant>,
        hedge_ms: u64,
    ) -> Result<(u16, String), GroupDown> {
        let g = &self.groups[group];
        self.budget.deposit();
        let start = Instant::now();
        let overall = deadline.unwrap_or(start + client::DEFAULT_CALL_BUDGET);
        let hedge_at = start + Duration::from_millis(hedge_ms);
        let (tx, rx) = mpsc::channel::<(usize, Option<String>)>();
        let mut cursor = 0;
        let mut next_no = 0usize;
        let mut hedge_no: Option<usize> = None;
        let mut outstanding = 0usize;
        let spawn = |r: Arc<Replica>, no: usize| {
            let (m, p, b) = (method.to_string(), path.to_string(), body.to_string());
            let tx = tx.clone();
            std::thread::spawn(move || {
                r.requests.fetch_add(1, Ordering::Relaxed);
                let res = r.client.call(&m, &p, &b, Some(overall));
                let won = matches!(&res, Ok((200, _)));
                r.note_outcome(won);
                let body = if let Ok((200, body)) = res { Some(body) } else { None };
                let _ = tx.send((no, body));
            });
        };
        match Self::next_admitted(candidates, &mut cursor) {
            Some(r) => {
                spawn(r, next_no);
                next_no += 1;
                outstanding += 1;
            }
            None => return Err(GroupDown),
        }
        loop {
            let now = Instant::now();
            if now >= overall {
                return Err(GroupDown);
            }
            let wait_until = if hedge_no.is_none() && now < hedge_at {
                hedge_at.min(overall)
            } else {
                overall
            };
            match rx.recv_timeout(wait_until.saturating_duration_since(now)) {
                Ok((no, Some(body))) => {
                    if hedge_no == Some(no) {
                        self.hedges_won.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok((200, body));
                }
                Ok((_, None)) => {
                    outstanding -= 1;
                    // Failover: respawn on the next admitted replica,
                    // paid from the budget like any extra attempt.
                    if let Some(r) = Self::next_admitted(candidates, &mut cursor) {
                        if self.budget.try_spend() {
                            g.failovers.fetch_add(1, Ordering::Relaxed);
                            spawn(r, next_no);
                            next_no += 1;
                            outstanding += 1;
                        }
                    }
                    if outstanding == 0 {
                        return Err(GroupDown);
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if hedge_no.is_none() && Instant::now() >= hedge_at {
                        // The hedge moment: race one more replica if the
                        // budget allows. Mark the moment spent either
                        // way so a dry budget doesn't retrigger.
                        if let Some(r) = Self::next_admitted(candidates, &mut cursor) {
                            if self.budget.try_spend() {
                                self.hedges_launched.fetch_add(1, Ordering::Relaxed);
                                hedge_no = Some(next_no);
                                spawn(r, next_no);
                                next_no += 1;
                                outstanding += 1;
                            } else {
                                hedge_no = Some(usize::MAX);
                            }
                        } else {
                            hedge_no = Some(usize::MAX);
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => return Err(GroupDown),
            }
        }
    }

    /// A per-call deterministic jitter stream.
    fn fresh_jitter(&self) -> DecorrelatedJitter {
        let call = self.call_seq.fetch_add(1, Ordering::Relaxed);
        DecorrelatedJitter::new(
            self.config.backoff_base_ms,
            self.config.backoff_cap_ms,
            DetRng::new(self.config.seed).fork(call),
        )
    }

    /// Sleep one backoff step, never past half the remaining deadline.
    fn backoff(jitter: &mut DecorrelatedJitter, deadline: Option<Instant>) {
        let mut delay = jitter.next_delay();
        if let Some(d) = deadline {
            let left = d.saturating_duration_since(Instant::now());
            delay = delay.min(left / 2);
        }
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
    }

    /// Call a group's *primary* only — the write path. Writes must not
    /// fail over (a secondary does not own the group's WAL, so routing
    /// an insert there would fork the replica set) and never hedge: a
    /// raced duplicate write is a duplicate document. An open breaker
    /// fails fast instead of dialing a known-dead primary. The caller
    /// relays whatever status the primary answered (a `404` from a
    /// delete is an answer, not a failure).
    pub fn call_primary(
        &self,
        group: usize,
        method: &str,
        path: &str,
        body: &str,
        deadline: Option<Instant>,
    ) -> io::Result<(u16, String)> {
        let r = &self.groups[group].replicas[0];
        self.budget.deposit();
        if !r.breaker.admit(Instant::now()) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "primary circuit breaker open",
            ));
        }
        r.requests.fetch_add(1, Ordering::Relaxed);
        match r.client.call(method, path, body, deadline) {
            Ok(resp) => {
                r.healthy.store(true, Ordering::Relaxed);
                r.breaker.record(true, Instant::now());
                Ok(resp)
            }
            Err(e) => {
                r.note_outcome(false);
                Err(e)
            }
        }
    }

    /// One probe sweep: GET every replica's `/healthz` under a short
    /// explicit deadline (so a black-holed replica cannot stall the
    /// prober) and update its health flag and breaker. Health only
    /// flips down after `probe_failures` *consecutive* failures; a
    /// success resets the streak and — acting as the breaker's
    /// half-open trial — closes an open breaker.
    pub fn probe_once(&self) {
        let threshold = u64::from(self.config.probe_failures.max(1));
        for g in &self.groups {
            for r in &g.replicas {
                r.probes.fetch_add(1, Ordering::Relaxed);
                let deadline = Instant::now() + Duration::from_millis(PROBE_BUDGET_MS);
                let up = matches!(
                    r.client.call("GET", "/healthz", "", Some(deadline)),
                    Ok((200, _))
                );
                r.breaker.record(up, Instant::now());
                if up {
                    r.consecutive_probe_failures.store(0, Ordering::Relaxed);
                    r.healthy.store(true, Ordering::Relaxed);
                } else {
                    r.probe_failures.fetch_add(1, Ordering::Relaxed);
                    let streak = r.consecutive_probe_failures.fetch_add(1, Ordering::Relaxed) + 1;
                    if streak >= threshold {
                        r.healthy.store(false, Ordering::Relaxed);
                    }
                }
            }
        }
        self.probe_rounds.fetch_add(1, Ordering::Relaxed);
    }

    /// Probe on the configured cadence until `stop` triggers. Sleeps in
    /// short slices so shutdown is prompt.
    pub fn probe_loop(&self, stop: &ShutdownFlag) {
        let interval = self.config.probe_interval_ms.max(10);
        while !stop.is_triggered() {
            self.probe_once();
            let mut slept = 0;
            while slept < interval && !stop.is_triggered() {
                let slice = (interval - slept).min(50);
                std::thread::sleep(Duration::from_millis(slice));
                slept += slice;
            }
        }
    }

    /// The `/metrics` cluster section: per-group gather latency,
    /// failovers and per-replica health/breaker/traffic counters, the
    /// cluster-wide degraded-response and probe-round totals, the
    /// resilience section (hedges, retry-budget flow) and the overlay
    /// cache section (`hits`, `misses`, `stale`, `entries`).
    pub fn metrics_value(&self) -> Value {
        let num = |n: u64| Value::Number(Number::from_i128(n as i128));
        let groups = self
            .groups
            .iter()
            .map(|g| {
                let replicas = g
                    .replicas
                    .iter()
                    .map(|r| {
                        Value::Object(vec![
                            ("addr".into(), Value::String(r.addr().to_string())),
                            ("healthy".into(), Value::Bool(r.is_healthy())),
                            (
                                "breaker".into(),
                                Value::String(r.breaker.state().as_str().to_string()),
                            ),
                            ("breaker_opens".into(), num(r.breaker.opens())),
                            ("probes".into(), num(r.probes.load(Ordering::Relaxed))),
                            (
                                "probe_failures".into(),
                                num(r.probe_failures.load(Ordering::Relaxed)),
                            ),
                            ("requests".into(), num(r.requests.load(Ordering::Relaxed))),
                            ("errors".into(), num(r.errors.load(Ordering::Relaxed))),
                        ])
                    })
                    .collect();
                Value::Object(vec![
                    ("replicas".into(), Value::Array(replicas)),
                    ("healthy".into(), Value::Bool(g.has_healthy_replica())),
                    ("failovers".into(), num(g.failovers.load(Ordering::Relaxed))),
                    (
                        "gather_latency_us".into(),
                        g.latency_us.lock().serialize_value(),
                    ),
                ])
            })
            .collect();
        let resilience = Value::Object(vec![
            (
                "hedge_after_ms".into(),
                match self.config.hedge_after_ms {
                    Some(ms) => num(ms),
                    None => Value::Null,
                },
            ),
            ("hedges_launched".into(), num(self.hedges_launched.load(Ordering::Relaxed))),
            ("hedges_won".into(), num(self.hedges_won.load(Ordering::Relaxed))),
            ("primary_calls".into(), num(self.budget.deposits())),
            ("retries_spent".into(), num(self.budget.spent())),
            ("retries_denied".into(), num(self.budget.denied())),
            ("retry_tokens_milli".into(), num(self.budget.tokens_milli())),
        ]);
        Value::Object(vec![
            ("groups".into(), Value::Array(groups)),
            (
                "degraded_responses".into(),
                num(self.degraded_responses.load(Ordering::Relaxed)),
            ),
            ("probe_rounds".into(), num(self.probe_rounds.load(Ordering::Relaxed))),
            ("resilience".into(), resilience),
            ("overlay".into(), self.overlays.metrics_value()),
        ])
    }
}

/// FNV-1a, 64-bit: the insert-routing content hash. Deliberately
/// self-contained — the routing function is part of the wire contract
/// between router and shards, so it must not drift with a hasher crate.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn cluster(n: usize) -> Cluster {
        // Ports nothing listens on; these tests never hit the network
        // except where they expect failure.
        let groups = (0..n)
            .map(|i| vec![format!("127.0.0.1:{}", 1 + i).parse().unwrap()])
            .collect();
        Cluster::new(groups)
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let c = cluster(3);
        for id in 0..50u32 {
            assert_eq!(c.route_doc(id), id as usize % 3);
        }
        let g = c.route_insert("Some news text.");
        assert!(g < 3);
        assert_eq!(g, c.route_insert("Some news text."), "content hash is stable");
    }

    #[test]
    fn dead_group_fails_over_then_reports_down() {
        let c = Cluster::new(vec![vec![
            "127.0.0.1:1".parse().unwrap(),
            "127.0.0.1:2".parse().unwrap(),
        ]]);
        let deadline = Instant::now() + Duration::from_millis(300);
        let err = c.call_group(0, "GET", "/healthz", "", Some(deadline));
        assert_eq!(err, Err(GroupDown));
        // Both replicas were tried: one failover, both marked unhealthy.
        let g = &c.groups()[0];
        assert_eq!(g.failovers.load(Ordering::Relaxed), 1);
        assert!(!g.has_healthy_replica());
        assert_eq!(c.groups_down(), vec![0]);
        // The failover was paid for by the budget.
        assert_eq!(c.budget.spent(), 1);
    }

    #[test]
    fn exhausted_budget_stops_failover() {
        let cfg = ResilienceConfig {
            retry_budget: 0.0,
            retry_budget_cap: 0.0,
            ..ResilienceConfig::default()
        };
        let c = Cluster::with_config(
            vec![vec![
                "127.0.0.1:1".parse().unwrap(),
                "127.0.0.1:2".parse().unwrap(),
            ]],
            cfg,
        );
        let deadline = Instant::now() + Duration::from_millis(300);
        assert_eq!(c.call_group(0, "GET", "/healthz", "", Some(deadline)), Err(GroupDown));
        let g = &c.groups()[0];
        assert_eq!(g.failovers.load(Ordering::Relaxed), 0, "no token, no failover");
        assert_eq!(c.budget.denied(), 1);
        // Only the first replica was ever dialed.
        assert_eq!(g.replicas()[1].requests(), 0);
    }

    #[test]
    fn repeated_failures_open_the_breaker_and_stop_dialing() {
        let cfg = ResilienceConfig {
            breaker_window: 4,
            breaker_failures: 2,
            breaker_cooldown_ms: 60_000, // effectively never in this test
            ..ResilienceConfig::default()
        };
        let c = Cluster::with_config(vec![vec!["127.0.0.1:1".parse().unwrap()]], cfg);
        for _ in 0..2 {
            let deadline = Instant::now() + Duration::from_millis(200);
            let _ = c.call_group(0, "GET", "/healthz", "", Some(deadline));
        }
        let r = &c.groups()[0].replicas()[0];
        assert_eq!(r.breaker.state(), BreakerState::Open);
        let dialed = r.requests();
        // Subsequent calls are rejected without dialing.
        let deadline = Instant::now() + Duration::from_millis(200);
        assert_eq!(c.call_group(0, "GET", "/healthz", "", Some(deadline)), Err(GroupDown));
        assert_eq!(r.requests(), dialed, "open breaker spends no connect");
    }

    #[test]
    fn primary_breaker_fails_writes_fast() {
        let cfg = ResilienceConfig {
            breaker_window: 2,
            breaker_failures: 1,
            breaker_cooldown_ms: 60_000,
            ..ResilienceConfig::default()
        };
        let c = Cluster::with_config(vec![vec!["127.0.0.1:1".parse().unwrap()]], cfg);
        let deadline = Instant::now() + Duration::from_millis(200);
        assert!(c.call_primary(0, "POST", "/v1/docs", "{}", Some(deadline)).is_err());
        let t = Instant::now();
        let err = c
            .call_primary(0, "POST", "/v1/docs", "{}", Some(t + Duration::from_secs(5)))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        assert!(t.elapsed() < Duration::from_millis(50), "failed fast, no dial");
    }

    #[test]
    fn metrics_value_has_the_expected_shape() {
        let c = cluster(2);
        let v = c.metrics_value();
        let groups = v.get("groups").and_then(|g| g.as_array()).unwrap();
        assert_eq!(groups.len(), 2);
        let replicas = groups[0].get("replicas").and_then(|r| r.as_array()).unwrap();
        assert_eq!(replicas.len(), 1);
        assert!(replicas[0].get("addr").unwrap().as_str().unwrap().contains("127.0.0.1"));
        assert_eq!(replicas[0].get("breaker").unwrap().as_str().unwrap(), "closed");
        assert!(v.get("degraded_responses").is_some());
        let res = v.get("resilience").unwrap();
        for key in [
            "hedges_launched",
            "hedges_won",
            "primary_calls",
            "retries_spent",
            "retries_denied",
        ] {
            assert!(res.get(key).is_some(), "missing resilience.{key}");
        }
        let overlay = v.get("overlay").unwrap();
        for key in ["hits", "misses", "stale", "entries"] {
            assert_eq!(overlay.get(key).and_then(|n| n.as_i64()), Some(0), "overlay.{key}");
        }
    }
}
