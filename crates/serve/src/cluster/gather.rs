//! Router-mode request dispatch: scatter each search across the shard
//! groups, gather and merge.
//!
//! The merge reproduces the in-process multi-segment search bit for
//! bit. Three invariants carry the proof:
//!
//! 1. **Exact overlay** — collection statistics and per-term document
//!    frequencies are integer sums over shards, so the totals the
//!    shards score under equal the monolithic values; normalization
//!    divisors are maxima over shard maxima, and `max` over a set is
//!    feed-order independent. A cached overlay ranks only after every
//!    group confirmed, by generation, that it still describes that
//!    group's index (see [`super::proto`]).
//! 2. **Exact selection** — each shard returns its k best under the
//!    total order (score desc, global id asc); the union of shard
//!    lists therefore contains the global k best.
//! 3. **Canonical merge order** — the gathered union is sorted by
//!    ascending global id before being pushed through one
//!    `newslink_util::TopK`, which keeps the earliest pushes of a tie
//!    group — i.e. the lowest ids, exactly like the in-process
//!    per-segment-then-merge structure.
//!
//! A search whose overlay the router has cached makes one scatter
//! (phase 3); any other makes three and refills the cache.
//!
//! Failures degrade instead of failing: a group whose every replica is
//! unreachable is dropped from later phases and the response comes back
//! `503` with `"degraded": true` plus whatever the healthy groups
//! found.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use newslink_core::{
    DocId, Explanation, IndexStats, NewsLink, ParallelShell, PruneStats, QueryAnalysis,
    SearchRequest, SearchResponse, SearchResult,
};
use newslink_util::{ClockCache, TopK};
use parking_lot::RwLock;
use serde::{Deserialize, Number, Serialize, Value};

use super::proto::{
    f64_bits, f64_from_bits, OverlayWire, ShardSearchReply, ShardSearchRequest, StatsRequest,
    StatsResponse, Top1Request, Top1Response,
};
use super::Cluster;
use crate::metrics::{Route, ServerMetrics};
use crate::protocol::HttpRequest;
use crate::router::{
    apply_deadline, error_body, is_api_path, parse_body, parse_insert_body, request_from_value,
    routed, Routed,
};
use crate::server::ServeConfig;

/// Everything a router worker needs to answer one request.
pub struct ClusterContext<'a, 'g> {
    /// Cluster topology and health state.
    pub cluster: &'a Cluster,
    /// The router's engine — it analyzes queries (NLP + NE) and owns
    /// the caches; it holds no corpus index.
    pub engine: &'a NewsLink<'g>,
    /// Server configuration (default deadline budget).
    pub config: &'a ServeConfig,
    /// Server counters, for the `/metrics` document.
    pub metrics: &'a ServerMetrics,
    /// Deadline anchor (accept or keep-alive arrival).
    pub accepted: Instant,
    /// Current admission gauge.
    pub in_flight: usize,
}

/// Dispatch one parsed request in router mode. Same `/v1` versioning
/// and legacy-alias deprecation as the standalone
/// [`dispatch`](crate::router::dispatch).
pub fn dispatch_cluster(req: &HttpRequest, ctx: &ClusterContext<'_, '_>) -> Routed {
    let (path, legacy) = match req.path.strip_prefix("/v1") {
        Some(rest) if rest.starts_with('/') => (rest, false),
        _ => (req.path.as_str(), true),
    };
    let mut r = dispatch_path(req, path, ctx);
    r.deprecated = legacy && is_api_path(path);
    r
}

fn dispatch_path(req: &HttpRequest, path: &str, ctx: &ClusterContext<'_, '_>) -> Routed {
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => handle_healthz(ctx),
        ("GET", "/metrics") => {
            let snap = ctx.metrics.snapshot(
                ctx.in_flight,
                &ctx.engine.cache_stats(),
                IndexStats::default(),
                crate::metrics::KgStats::of(ctx.engine.graph(), ctx.engine.label_index()),
                None,
                Some(ctx.cluster.metrics_value()),
            );
            routed(Route::Metrics, 200, snap.to_compact_string())
        }
        ("POST", "/search") => handle_search(req, ctx),
        ("POST", "/search/batch") => handle_batch(req, ctx),
        ("POST", "/docs") => handle_insert(req, ctx),
        ("POST", "/admin/snapshot") => routed(
            Route::Admin,
            400,
            error_body(400, "snapshots are per-shard; POST /v1/admin/snapshot to a shard directly"),
        ),
        ("DELETE", path) if path.strip_prefix("/docs/").is_some() => handle_delete(path, ctx),
        (_, path) if is_api_path(path) => routed(
            Route::Other,
            405,
            error_body(405, &format!("method {} not allowed here", req.method)),
        ),
        (_, path) => routed(Route::Other, 404, error_body(404, &format!("no route {path}"))),
    }
}

/// Router `/healthz`: up as long as the router itself runs, `degraded`
/// when any shard group has no healthy replica. Always `200` with
/// `"status": "ok"` unless degraded — same contract as the standalone
/// server, with the topology view replacing the index gauges.
fn handle_healthz(ctx: &ClusterContext<'_, '_>) -> Routed {
    let num = |n: u64| Value::Number(Number::from_i128(n as i128));
    let down = ctx.cluster.groups_down();
    let degraded = !down.is_empty();
    let status = if degraded { "degraded" } else { "ok" };
    let body = Value::Object(vec![
        ("status".into(), Value::String(status.into())),
        ("degraded".into(), Value::Bool(degraded)),
        ("backend".into(), Value::String("router".into())),
        ("groups".into(), num(ctx.cluster.groups().len() as u64)),
        ("groups_down".into(), num(down.len() as u64)),
        (
            "version".into(),
            Value::String(env!("CARGO_PKG_VERSION").into()),
        ),
    ]);
    routed(Route::Healthz, 200, body.to_compact_string())
}

fn handle_search(req: &HttpRequest, ctx: &ClusterContext<'_, '_>) -> Routed {
    let request = match parse_body(&req.body).and_then(|v| request_from_value(&v)) {
        Ok(r) => apply_deadline(r, ctx.config.default_timeout_ms, ctx.accepted),
        Err(e) => return e.into_routed(Route::Search),
    };
    let (value, status) = cluster_execute(&request, ctx);
    routed(Route::Search, status, value.to_compact_string())
}

/// `POST /search/batch` in router mode: requests run sequentially, each
/// through the full scatter-gather; the batch answers `200` as long as
/// it parsed (per-response `degraded` / `timed_out` flags tell the
/// rest), matching the standalone batch contract.
fn handle_batch(req: &HttpRequest, ctx: &ClusterContext<'_, '_>) -> Routed {
    let v = match parse_body(&req.body) {
        Ok(v) => v,
        Err(e) => return e.into_routed(Route::Batch),
    };
    let Some(items) = v.as_object().and_then(|obj| {
        (obj.len() == 1).then_some(())?;
        v.get("requests").and_then(|r| r.as_array())
    }) else {
        return routed(
            Route::Batch,
            400,
            error_body(400, "batch body must be {\"requests\": [...]}"),
        );
    };
    let start = Instant::now();
    let mut responses = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let request = match request_from_value(item) {
            Ok(r) => apply_deadline(r, ctx.config.default_timeout_ms, ctx.accepted),
            Err(e) => {
                return routed(
                    Route::Batch,
                    400,
                    error_body(400, &format!("requests[{i}]: {}", match e {
                        crate::router::RequestError::BadRequest(m)
                        | crate::router::RequestError::Internal(m) => m,
                    })),
                )
            }
        };
        let (value, _status) = cluster_execute(&request, ctx);
        responses.push(value);
    }
    let mut timer = newslink_util::ComponentTimer::new();
    timer.record("batch", start.elapsed());
    let body = Value::Object(vec![
        ("responses".into(), Value::Array(responses)),
        ("timer".into(), timer.serialize_value()),
    ]);
    routed(Route::Batch, 200, body.to_compact_string())
}

/// `POST /docs` in router mode: hash the text to its owning group and
/// relay to that group's *primary* — the only replica with the group's
/// WAL. A dead primary is a `503` (writes do not fail over; see
/// [`Cluster::call_primary`]).
fn handle_insert(req: &HttpRequest, ctx: &ClusterContext<'_, '_>) -> Routed {
    let text = match parse_insert_body(&req.body) {
        Ok(t) => t,
        Err(e) => return e.into_routed(Route::Docs),
    };
    let group = ctx.cluster.route_insert(&text);
    relay_write(ctx, group, "POST", "/v1/docs", &req.body)
}

/// `DELETE /docs/<id>` in router mode: the id names its owning group
/// (`id % groups`); relay to that group's primary. A `404` from the
/// shard passes through — it is an answer, not a failure.
fn handle_delete(path: &str, ctx: &ClusterContext<'_, '_>) -> Routed {
    let raw = path.strip_prefix("/docs/").unwrap_or_default();
    let Ok(id) = raw.parse::<u32>() else {
        return routed(Route::Docs, 400, error_body(400, &format!("bad document id {raw:?}")));
    };
    let group = ctx.cluster.route_doc(id);
    relay_write(ctx, group, "DELETE", &format!("/v1/docs/{id}"), "")
}

fn relay_write(
    ctx: &ClusterContext<'_, '_>,
    group: usize,
    method: &str,
    path: &str,
    body: &str,
) -> Routed {
    let deadline = write_deadline(ctx);
    match ctx.cluster.call_primary(group, method, path, body, deadline) {
        Ok((status, body)) => routed(Route::Docs, status, annotate_group(body, group)),
        Err(_) => routed(
            Route::Docs,
            503,
            error_body(
                503,
                &format!("shard group {group} primary unreachable; write not applied"),
            ),
        ),
    }
}

/// Tag a relayed JSON-object response with the group that served it.
fn annotate_group(body: String, group: usize) -> String {
    match serde_json::from_str::<Value>(&body) {
        Ok(Value::Object(mut pairs)) => {
            pairs.push((
                "shard_group".into(),
                Value::Number(Number::from_i128(group as i128)),
            ));
            Value::Object(pairs).to_compact_string()
        }
        _ => body,
    }
}

/// The deadline a relayed write propagates: the request's remaining
/// accept-anchored budget when the server has one.
fn write_deadline(ctx: &ClusterContext<'_, '_>) -> Option<Instant> {
    ctx.config
        .default_timeout_ms
        .map(|ms| ctx.accepted + Duration::from_millis(ms))
}

/// Routed-search overlays kept per (query text, β bits). A constant, not
/// a knob: an entry is two short term lists plus one integer per group.
const OVERLAY_CAPACITY: usize = 1024;

/// What phases 1–2 produce for one (query, β): both sides' cluster-wide
/// statistics and normalization divisors, and per group the generation
/// it answered both phases at.
#[derive(Debug)]
struct Overlay {
    bow: OverlayWire,
    bon: OverlayWire,
    /// `None` for a group that failed a phase or answered the two
    /// phases at different generations.
    generations: Vec<Option<u64>>,
}

impl Overlay {
    /// Every group answered both phases at one unchanged generation.
    fn cacheable(&self) -> bool {
        self.generations.iter().all(Option::is_some)
    }
}

/// The router's [`Overlay`] cache, keyed by (query text, β bits), with
/// its `/metrics` counters.
#[derive(Debug)]
pub(crate) struct OverlayCache {
    entries: RwLock<ClockCache<(String, i64), Arc<Overlay>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    stale: AtomicU64,
}

impl OverlayCache {
    pub(crate) fn new() -> Self {
        Self {
            entries: RwLock::new(ClockCache::new(OVERLAY_CAPACITY)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stale: AtomicU64::new(0),
        }
    }

    /// The `/metrics` `overlay` section: searches answered in one
    /// scatter (`hits`), searches that ran all three phases because no
    /// usable entry existed (`misses`), and cached overlays a shard
    /// refuted by generation (`stale` — each such search then ran all
    /// three phases too).
    pub(crate) fn metrics_value(&self) -> Value {
        let num = |n: u64| Value::Number(Number::from_i128(n as i128));
        Value::Object(vec![
            ("hits".into(), num(self.hits.load(Ordering::Relaxed))),
            ("misses".into(), num(self.misses.load(Ordering::Relaxed))),
            ("stale".into(), num(self.stale.load(Ordering::Relaxed))),
            ("entries".into(), num(self.entries.read().len() as u64)),
        ])
    }
}

/// What the gather produced, before it becomes a response body.
struct GatherOutcome {
    results: Vec<SearchResult>,
    explanations: Vec<Explanation>,
    prune: PruneStats,
    timed_out: bool,
    groups_down: usize,
}

/// Send `path` to every still-alive group concurrently — the first
/// group's call on this thread, every other group's on a scoped thread
/// (the calls are blocking I/O) — parse each `200` answer, and mark
/// groups that failed any step as dead. `body_for` gives each group's
/// request body.
fn scatter<'b, T: Deserialize>(
    cluster: &Cluster,
    alive: &mut [bool],
    path: &str,
    body_for: impl Fn(usize) -> &'b str + Sync,
    deadline: Option<Instant>,
) -> Vec<Option<T>> {
    let call = |i: usize| {
        cluster
            .call_group(i, "POST", path, body_for(i), deadline)
            .ok()
            .map(|(_, body)| body)
    };
    let call = &call;
    let mut raw: Vec<Option<String>> = vec![None; alive.len()];
    let live: Vec<usize> = (0..alive.len()).filter(|&i| alive[i]).collect();
    if let Some((&first, rest)) = live.split_first() {
        std::thread::scope(|scope| {
            let handles: Vec<_> = rest
                .iter()
                .map(|&i| (i, scope.spawn(move || call(i))))
                .collect();
            raw[first] = call(first);
            for (i, handle) in handles {
                raw[i] = handle.join().ok().flatten();
            }
        });
    }
    raw.into_iter()
        .enumerate()
        .map(|(i, body)| {
            let parsed = body.and_then(|b| serde_json::from_str::<T>(&b).ok());
            if parsed.is_none() {
                alive[i] = false;
            }
            parsed
        })
        .collect()
}

/// Execute one search request across the cluster: analyze locally, then
/// either one scatter under a cached overlay or all three protocol
/// phases, and merge. Returns the response body and its status (`503`
/// when degraded or timed out, else `200`).
fn cluster_execute(request: &SearchRequest, ctx: &ClusterContext<'_, '_>) -> (Value, u16) {
    let config = ctx.engine.config();
    let deadline = request
        .timeout_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let gather_start = Instant::now();
    let analysis = ctx.engine.analyze_query(&request.query);
    let beta = request.beta.unwrap_or(config.beta).clamp(0.0, 1.0);
    let beta_bits = f64_bits(beta);
    let n = ctx.cluster.groups().len();
    let mut alive = vec![true; n];

    // Deadline gate between analysis and the scatter, mirroring the
    // in-process gate between NLP/NE and NS.
    if deadline.is_some_and(|d| Instant::now() >= d) {
        let outcome = GatherOutcome {
            results: Vec::new(),
            explanations: Vec::new(),
            prune: PruneStats::default(),
            timed_out: true,
            groups_down: 0,
        };
        return respond(ctx, analysis, outcome, gather_start);
    }

    // The overlay cache is one of the engine's caches: with caching off
    // (engine-wide or for this request) every search runs all three
    // phases — the oracle the one-scatter path must equal.
    let overlays = &ctx.cluster.overlays;
    let key =
        (config.cache.enabled && request.use_cache).then(|| (request.query.clone(), beta_bits));
    if let Some(key) = &key {
        let cached = overlays.entries.read().get(key).cloned();
        match cached {
            Some(overlay) => {
                let parts =
                    search_phase(request, ctx, &mut alive, &overlay, beta_bits, true, deadline);
                if parts
                    .iter()
                    .any(|p| matches!(p, Some(ShardSearchReply::Stale)))
                {
                    // Some group's index moved on: discard every part
                    // and recompute the overlay from scratch.
                    overlays.stale.fetch_add(1, Ordering::Relaxed);
                    overlays.entries.write().remove(key);
                } else if alive.iter().all(|&a| a) {
                    overlays.hits.fetch_add(1, Ordering::Relaxed);
                    // The top-1 passes did not run: `prune` counts the
                    // phase-3 scans only.
                    let prune = PruneStats::default();
                    return merge(request, ctx, analysis, parts, prune, &alive, gather_start);
                } else {
                    // A group is down: answer without it, exactly as a
                    // search that found it down in phase 1 would.
                    overlays.misses.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => {
                overlays.misses.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    let (overlay, prune) = overlay_phases(&analysis, ctx, &mut alive, beta_bits, deadline);
    if alive.iter().all(|a| !a) {
        let outcome = GatherOutcome {
            results: Vec::new(),
            explanations: Vec::new(),
            prune,
            timed_out: false,
            groups_down: n,
        };
        return respond(ctx, analysis, outcome, gather_start);
    }
    let overlay = Arc::new(overlay);
    if let Some(key) = key.filter(|_| overlay.cacheable()) {
        overlays.entries.write().insert(key, Arc::clone(&overlay));
    }
    let parts =
        search_phase(request, ctx, &mut alive, &overlay, beta_bits, false, deadline);
    merge(request, ctx, analysis, parts, prune, &alive, gather_start)
}

/// Phases 1–2: sum the shards' statistics into the cluster-wide overlay
/// and, with normalization on, fold the shard maxima into its divisors.
/// Returns the overlay and the top-1 passes' pruning work.
fn overlay_phases(
    analysis: &QueryAnalysis,
    ctx: &ClusterContext<'_, '_>,
    alive: &mut [bool],
    beta_bits: i64,
    deadline: Option<Instant>,
) -> (Overlay, PruneStats) {
    // Phase 1: shard-local statistics, summed into the global overlay.
    let stats_request = StatsRequest {
        bow_terms: analysis.terms.clone(),
        bon_terms: analysis.bon_terms.clone(),
    };
    // `to_string` is infallible for these plain internal-protocol
    // structs (string keys, no fallible Serialize impls); the
    // `unwrap_or_default` here and below keeps the socket path free of
    // panics without introducing an error branch that cannot fire — an
    // empty body would 400 at the shard and count as a failed call.
    let body = serde_json::to_string(&stats_request).unwrap_or_default();
    let stats: Vec<Option<StatsResponse>> =
        scatter(ctx.cluster, alive, "/internal/stats", |_| body.as_str(), deadline);
    let mut generations: Vec<Option<u64>> =
        stats.iter().map(|s| s.as_ref().map(|s| s.generation)).collect();

    let mut bow = OverlayWire {
        terms: analysis.terms.clone(),
        docs: 0,
        total_len: 0,
        df: vec![0; analysis.terms.len()],
        norm_bits: f64_bits(1.0),
    };
    let mut bon = OverlayWire {
        terms: analysis.bon_terms.clone(),
        docs: 0,
        total_len: 0,
        df: vec![0; analysis.bon_terms.len()],
        norm_bits: f64_bits(1.0),
    };
    for s in stats.into_iter().flatten() {
        for (side, wire) in [(&mut bow, s.bow), (&mut bon, s.bon)] {
            side.docs += wire.docs;
            side.total_len += wire.total_len;
            if wire.df.len() == side.df.len() {
                for (slot, df) in side.df.iter_mut().zip(&wire.df) {
                    *slot += df;
                }
            }
        }
    }

    // Phase 2: normalization divisors — each side's global maximum raw
    // score is the max over shard maxima.
    let mut prune = PruneStats::default();
    if ctx.engine.config().normalize_scores {
        let top1_request = Top1Request {
            beta_bits,
            bow: bow.clone(),
            bon: bon.clone(),
        };
        let body = serde_json::to_string(&top1_request).unwrap_or_default();
        let tops: Vec<Option<Top1Response>> =
            scatter(ctx.cluster, alive, "/internal/top1", |_| body.as_str(), deadline);
        for (generation, top) in generations.iter_mut().zip(&tops) {
            if top.as_ref().map(|t| t.generation) != *generation {
                *generation = None;
            }
        }
        let (mut bow_max, mut bon_max) = (0.0f64, 0.0f64);
        for t in tops.into_iter().flatten() {
            bow_max = bow_max.max(f64_from_bits(t.bow_max_bits));
            bon_max = bon_max.max(f64_from_bits(t.bon_max_bits));
            prune.add(&t.prune);
        }
        if bow_max > 0.0 {
            bow.norm_bits = f64_bits(bow_max);
        }
        if bon_max > 0.0 {
            bon.norm_bits = f64_bits(bon_max);
        }
    }
    (Overlay { bow, bon, generations }, prune)
}

/// Phase 3: the pruned blended top-k under `overlay`. With `checked`,
/// each group's request carries the generation the overlay was computed
/// against, and a group whose index has moved on answers
/// [`ShardSearchReply::Stale`].
fn search_phase(
    request: &SearchRequest,
    ctx: &ClusterContext<'_, '_>,
    alive: &mut [bool],
    overlay: &Overlay,
    beta_bits: i64,
    checked: bool,
    deadline: Option<Instant>,
) -> Vec<Option<ShardSearchReply>> {
    let remaining_ms =
        deadline.map(|d| d.saturating_duration_since(Instant::now()).as_millis() as u64);
    let mut search_request = ShardSearchRequest {
        query: request.query.clone(),
        k: request.k,
        beta_bits,
        floor_bits: f64_bits(f64::NEG_INFINITY),
        budget_ms: remaining_ms,
        explain: request.explain,
        bow: overlay.bow.clone(),
        bon: overlay.bon.clone(),
        generation: None,
    };
    let bodies: Vec<String> = overlay
        .generations
        .iter()
        .map(|&generation| {
            search_request.generation = generation.filter(|_| checked);
            serde_json::to_string(&search_request).unwrap_or_default()
        })
        .collect();
    scatter(ctx.cluster, alive, "/internal/search", |i| bodies[i].as_str(), deadline)
}

/// Merge the groups' phase-3 parts into one response: sort the union by
/// ascending global id, then push it through one TopK — a tie group
/// straddling rank k keeps its lowest ids, exactly like the in-process
/// per-segment-then-merge structure.
fn merge(
    request: &SearchRequest,
    ctx: &ClusterContext<'_, '_>,
    analysis: QueryAnalysis,
    parts: Vec<Option<ShardSearchReply>>,
    mut prune: PruneStats,
    alive: &[bool],
    gather_start: Instant,
) -> (Value, u16) {
    let mut union: Vec<(f64, (DocId, f64, f64))> = Vec::new();
    let mut shard_explanations: Vec<Explanation> = Vec::new();
    let mut timed_out = false;
    for part in parts.into_iter().flatten() {
        let ShardSearchReply::Ranked(part) = part else {
            continue;
        };
        prune.add(&part.prune);
        timed_out |= part.timed_out;
        shard_explanations.extend(part.explanations);
        for h in part.hits {
            union.push((
                f64_from_bits(h.score_bits),
                (
                    DocId(h.doc),
                    f64_from_bits(h.bow_bits),
                    f64_from_bits(h.bon_bits),
                ),
            ));
        }
    }
    union.sort_by_key(|&(_, (doc, _, _))| doc.0);
    let mut merged: TopK<(DocId, f64, f64)> = TopK::new(request.k);
    for (score, item) in union {
        merged.push(score, item);
    }
    let results: Vec<SearchResult> = merged
        .into_sorted()
        .into_iter()
        .map(|(score, (doc, bow, bon))| SearchResult { doc, score, bow, bon })
        .collect();
    let explanations = if request.explain.is_some() && !timed_out {
        results
            .iter()
            .filter_map(|r| shard_explanations.iter().find(|e| e.doc == r.doc).cloned())
            .collect()
    } else {
        Vec::new()
    };

    ctx.metrics.observe_pruning(&prune);
    let outcome = GatherOutcome {
        results,
        explanations,
        prune,
        timed_out,
        groups_down: alive.iter().filter(|a| !**a).count(),
    };
    respond(ctx, analysis, outcome, gather_start)
}

/// Assemble the wire response: the standalone `SearchResponse` shape
/// plus the router's `degraded` / `groups_down` fields.
fn respond(
    ctx: &ClusterContext<'_, '_>,
    analysis: QueryAnalysis,
    outcome: GatherOutcome,
    gather_start: Instant,
) -> (Value, u16) {
    let degraded = outcome.groups_down > 0;
    if degraded {
        ctx.cluster.note_degraded();
    }
    let mut timer = analysis.timer;
    timer.record("gather", gather_start.elapsed());
    let response = SearchResponse {
        results: outcome.results,
        embedding: analysis.embedding,
        timer,
        cache: analysis.cache,
        explanations: outcome.explanations,
        timed_out: outcome.timed_out,
        prune: outcome.prune,
        parallel: ParallelShell::default(),
    };
    let mut value = response.serialize_value();
    if let Value::Object(pairs) = &mut value {
        pairs.push(("degraded".into(), Value::Bool(degraded)));
        pairs.push((
            "groups_down".into(),
            Value::Number(Number::from_i128(outcome.groups_down as i128)),
        ));
    }
    let status = if degraded || outcome.timed_out { 503 } else { 200 };
    (value, status)
}
