//! Request routing: map parsed HTTP requests onto the engine's
//! request-based search API.
//!
//! The wire format *is* [`SearchRequest`]'s serde form — there is no
//! parallel DTO layer. Incoming JSON is validated (object, known keys,
//! required `"query"`), merged over a default request, and handed to the
//! derived `Deserialize` impl, so clients may omit any optional field
//! and the engine's defaults apply.
//!
//! Deadlines are anchored at *accept* time: the server's default budget
//! starts counting the moment the connection is accepted, so time spent
//! queued behind the worker pool eats into it. A request that also
//! carries its own `timeout_ms` gets the tighter of the two.
//!
//! `/docs` mutations prepare under the index's *upgradable* read lock
//! — shared with searches, exclusive against other mutations — and take
//! the write lock only to publish: an insert embeds, seals and builds its
//! merges while searches keep running, then installs in a short
//! exclusive section. When the server runs with a data directory, every
//! mutation is write-ahead logged *before* it is installed (log, then
//! install), still under the upgradable lock, so WAL order is install
//! order and a failed append changes nothing: the `500` means "not
//! durable, not applied". A logged delete of a document that turns out
//! not to exist is a harmless no-op on replay.

use std::time::{Duration, Instant};

use newslink_core::{
    CollectionStats, DocId, Explanation, NewsLink, NewsLinkIndex, SearchRequest, Side, SideOverlay,
};
use parking_lot::{RwLock, RwLockUpgradableReadGuard};
use serde::{Deserialize, Serialize, Value};

use crate::cluster::proto::{
    f64_bits, f64_from_bits, HitWire, OverlayWire, ShardSearchReply, ShardSearchRequest,
    ShardSearchResponse, SideStatsWire, StatsRequest, StatsResponse, Top1Request, Top1Response,
};
use crate::durable::DurableState;
use crate::metrics::{Route, ServerMetrics};
use crate::protocol::HttpRequest;
use crate::server::ServeConfig;

/// Caps on request knobs, enforced at the protocol boundary so a single
/// request cannot ask for unbounded work.
pub const MAX_K: usize = 10_000;
/// Longest connecting path an `explain` may request.
pub const MAX_EXPLAIN_LEN: usize = 32;
/// Most paths an `explain` may request per hit.
pub const MAX_EXPLAIN_PATHS: usize = 1_000;

/// Everything a worker needs to answer one request.
pub struct RequestContext<'a, 'g> {
    /// The shared engine.
    pub engine: &'a NewsLink<'g>,
    /// The corpus index being served. Searches take the read lock and
    /// scan its segments; `/docs` mutations and checkpoints take the
    /// upgradable read lock, and mutations upgrade it to the write lock
    /// only to publish.
    pub index: &'a RwLock<NewsLinkIndex>,
    /// Server configuration (default deadline budget).
    pub config: &'a ServeConfig,
    /// Server counters, for the `/metrics` document.
    pub metrics: &'a ServerMetrics,
    /// When the connection was accepted (deadline anchor).
    pub accepted: Instant,
    /// Current admission gauge, for the `/metrics` document.
    pub in_flight: usize,
    /// Durability wiring, present when the server was started with a
    /// data directory. Lock order: the index's upgradable gate, then the
    /// index, then the store.
    pub durable: Option<&'a DurableState>,
}

/// The routing outcome: which route matched, the status, and the body.
pub struct Routed {
    /// Route label for metrics.
    pub route: Route,
    /// HTTP status code.
    pub status: u16,
    /// JSON response body.
    pub body: String,
    /// The request arrived on a legacy unversioned path (`/search`
    /// instead of `/v1/search`); the response carries a
    /// `Deprecation: true` header.
    pub deprecated: bool,
}

pub(crate) fn routed(route: Route, status: u16, body: String) -> Routed {
    Routed {
        route,
        status,
        body,
        deprecated: false,
    }
}

/// Why a request could not be served. Replaces in-handler panics: a
/// malformed request is the client's fault (`400`), an invariant that
/// failed to hold is ours (`500`, counted under `responses.error`).
#[derive(Debug, PartialEq, Eq)]
pub enum RequestError {
    /// The client sent something invalid; the message names the field.
    BadRequest(String),
    /// The server could not uphold its own invariants.
    Internal(String),
}

impl RequestError {
    fn status(&self) -> u16 {
        match self {
            Self::BadRequest(_) => 400,
            Self::Internal(_) => 500,
        }
    }

    fn message(&self) -> &str {
        match self {
            Self::BadRequest(msg) | Self::Internal(msg) => msg,
        }
    }

    /// Render as a routed error response.
    pub(crate) fn into_routed(self, route: Route) -> Routed {
        routed(route, self.status(), error_body(self.status(), self.message()))
    }
}

fn bad(msg: impl Into<String>) -> RequestError {
    RequestError::BadRequest(msg.into())
}

/// The machine-readable error code for a status: part of the typed
/// error envelope, stable across message-wording changes.
pub fn error_code(status: u16) -> &'static str {
    match status {
        400 => "bad_request",
        404 => "not_found",
        405 => "method_not_allowed",
        413 => "payload_too_large",
        429 => "too_many_requests",
        500 => "internal",
        503 => "service_unavailable",
        _ => "error",
    }
}

/// The typed JSON error envelope:
/// `{"error": {"code": "...", "message": "..."}}` with proper escaping.
/// Every non-2xx body the service emits has this shape.
pub fn error_body(status: u16, msg: &str) -> String {
    Value::Object(vec![(
        "error".into(),
        Value::Object(vec![
            ("code".into(), Value::String(error_code(status).into())),
            ("message".into(), Value::String(msg.into())),
        ]),
    )])
    .to_compact_string()
}

/// Whether `path` (canonical, un-prefixed form) names an endpoint this
/// service serves — used to decide if a legacy alias deserves the
/// deprecation header.
pub(crate) fn is_api_path(path: &str) -> bool {
    matches!(
        path,
        "/healthz" | "/metrics" | "/search" | "/search/batch" | "/docs" | "/admin/snapshot"
    ) || path.strip_prefix("/docs/").is_some()
}

/// Dispatch one parsed request to its handler.
///
/// The wire surface is versioned under `/v1/`; the bare, unprefixed
/// paths remain as aliases for one release and answer identically but
/// with [`Routed::deprecated`] set (the server turns that into a
/// `Deprecation: true` response header).
pub fn dispatch(req: &HttpRequest, ctx: &RequestContext<'_, '_>) -> Routed {
    let (path, legacy) = match req.path.strip_prefix("/v1") {
        Some(rest) if rest.starts_with('/') => (rest, false),
        _ => (req.path.as_str(), true),
    };
    let mut r = dispatch_path(req, path, ctx);
    r.deprecated = legacy && is_api_path(path);
    r
}

/// Route a canonical (version-stripped) path.
fn dispatch_path(req: &HttpRequest, path: &str, ctx: &RequestContext<'_, '_>) -> Routed {
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => handle_healthz(ctx),
        ("GET", "/metrics") => {
            let index_stats = ctx.index.read().stats();
            let durability = ctx.durable.map(DurableState::gauges);
            let snap = ctx.metrics.snapshot(
                ctx.in_flight,
                &ctx.engine.cache_stats(),
                index_stats,
                crate::metrics::KgStats::of(ctx.engine.graph(), ctx.engine.label_index()),
                durability,
                None,
            );
            routed(Route::Metrics, 200, snap.to_compact_string())
        }
        ("POST", "/search") => handle_search(req, ctx),
        ("POST", "/search/batch") => handle_batch(req, ctx),
        ("POST", "/docs") => handle_insert(req, ctx),
        ("POST", "/admin/snapshot") => handle_snapshot(ctx),
        ("POST", "/internal/stats") => handle_internal_stats(req, ctx),
        ("POST", "/internal/top1") => handle_internal_top1(req, ctx),
        ("POST", "/internal/search") => handle_internal_search(req, ctx),
        ("DELETE", path) if path.strip_prefix("/docs/").is_some() => handle_delete(path, ctx),
        (_, path) if is_api_path(path) => routed(
            Route::Other,
            405,
            error_body(405, &format!("method {} not allowed here", req.method)),
        ),
        (_, path) => routed(Route::Other, 404, error_body(404, &format!("no route {path}"))),
    }
}

/// `GET /healthz`: a small operational summary — liveness (`status`),
/// a `degraded` flag (recovery quarantined segments: up, but serving a
/// subset), the deployment mode (`backend`: `"memory"` or `"durable"`;
/// a router answers `"router"`), the live doc/segment gauges and the
/// crate version. Always `200` with `"status": "ok"` unless degraded:
/// degraded is an operator signal, not an outage, and the bare-200
/// contract is what load balancers probe.
fn handle_healthz(ctx: &RequestContext<'_, '_>) -> Routed {
    let num = |n: u64| Value::Number(serde::Number::from_i128(n as i128));
    let degraded = ctx.durable.is_some_and(DurableState::degraded);
    let stats = ctx.index.read().stats();
    let mut pairs = vec![
        (
            "status".into(),
            Value::String(if degraded { "degraded" } else { "ok" }.into()),
        ),
        ("degraded".into(), Value::Bool(degraded)),
        (
            "backend".into(),
            Value::String(if ctx.durable.is_some() { "durable" } else { "memory" }.into()),
        ),
        ("docs".into(), num(stats.docs as u64)),
        ("segments".into(), num(stats.segments as u64)),
        (
            "version".into(),
            Value::String(env!("CARGO_PKG_VERSION").into()),
        ),
    ];
    if degraded {
        if let Some(durable) = ctx.durable {
            pairs.push((
                "quarantined_segments".into(),
                num(durable.report().quarantined_segments as u64),
            ));
        }
    }
    routed(Route::Healthz, 200, Value::Object(pairs).to_compact_string())
}

/// `POST /search`: one [`SearchRequest`] in, one serialized
/// `SearchResponse` out. A response whose deadline expired mid-pipeline
/// comes back as `503` but still carries the partial timer report.
fn handle_search(req: &HttpRequest, ctx: &RequestContext<'_, '_>) -> Routed {
    let request = match parse_body(&req.body).and_then(|v| request_from_value(&v)) {
        Ok(r) => apply_deadline(r, ctx.config.default_timeout_ms, ctx.accepted),
        Err(e) => return e.into_routed(Route::Search),
    };
    let response = ctx.engine.execute(&ctx.index.read(), &request);
    ctx.metrics.observe_pruning(&response.prune);
    let status = if response.timed_out { 503 } else { 200 };
    routed(Route::Search, status, response.serialize_value().to_compact_string())
}

/// `POST /search/batch`: `{"requests": [...]}` in, a serialized
/// `BatchResponse` out. Individual deadline expiries are reported per
/// response; the batch itself is `200` as long as it parsed.
fn handle_batch(req: &HttpRequest, ctx: &RequestContext<'_, '_>) -> Routed {
    let requests = match parse_batch(&req.body, ctx) {
        Ok(r) => r,
        Err(e) => return e.into_routed(Route::Batch),
    };
    let response = ctx.engine.execute_batch(&ctx.index.read(), &requests);
    for r in &response.responses {
        ctx.metrics.observe_pruning(&r.prune);
    }
    routed(Route::Batch, 200, response.serialize_value().to_compact_string())
}

/// `POST /docs`: `{"text": "..."}` in, `{"id": n, "index": {...}}` out.
/// The new document lands in its own sealed segment; if that pushes the
/// segment count past the engine's `max_segments`, the insert also
/// compacts.
///
/// Embedding, sealing and building the merges run under the upgradable
/// read lock, so searches keep running; with durability on, the insert
/// is WAL-logged and fsynced under the same lock, under the id the
/// prepared plan will mint. Only then does the lock upgrade to publish
/// the prepared segment and merges — a microsecond splice; the
/// segments they replace are freed after the lock is released. A failed
/// append answers `500` and changes nothing: the insert was neither
/// acknowledged, applied nor made durable.
fn handle_insert(req: &HttpRequest, ctx: &RequestContext<'_, '_>) -> Routed {
    let text = match parse_insert_body(&req.body) {
        Ok(t) => t,
        Err(e) => return e.into_routed(Route::Docs),
    };
    let index = ctx.index.upgradable_read();
    let prepared = ctx.engine.prepare_insert(&index, &text);
    if let Some(durable) = ctx.durable {
        if let Err(e) = durable.store().log_insert(prepared.id(), &text) {
            drop(index);
            return routed(
                Route::Docs,
                500,
                error_body(500, &format!("wal append failed, insert not applied: {e}")),
            );
        }
        durable.note_append();
    }
    let mut index = RwLockUpgradableReadGuard::upgrade(index);
    let installed = ctx.engine.install_insert(&mut index, prepared);
    let stats = index.stats();
    drop(index);
    let id = installed.id();
    // Frees the merged-away segments, now outside the lock.
    drop(installed);
    let body = Value::Object(vec![
        ("id".into(), Value::Number(serde::Number::from_i128(id.0 as i128))),
        ("index".into(), index_stats_value(stats)),
    ]);
    routed(Route::Docs, 200, body.to_compact_string())
}

/// `DELETE /docs/<id>`: tombstone a live document. Unknown or already
/// deleted ids answer `404`; the id itself must be a decimal integer.
///
/// Liveness is verified under the upgradable read lock — no other
/// mutation can run until this one finishes, so the answer cannot race
/// — and a `404` returns without touching the log: a miss must not pay
/// an fsync or grow the WAL. With durability on, a live document is
/// then WAL-logged *before* the lock upgrades to tombstone it: if the
/// append fails nothing changes (`500`), and once it succeeds the
/// acknowledgement can never outrun the disk.
fn handle_delete(path: &str, ctx: &RequestContext<'_, '_>) -> Routed {
    let raw = path.strip_prefix("/docs/").unwrap_or_default();
    let Ok(id) = raw.parse::<u32>() else {
        return routed(Route::Docs, 400, error_body(400, &format!("bad document id {raw:?}")));
    };
    let index = ctx.index.upgradable_read();
    if !index.is_live(DocId(id)) {
        drop(index);
        return routed(Route::Docs, 404, error_body(404, &format!("no live document {id}")));
    }
    if let Some(durable) = ctx.durable {
        if let Err(e) = durable.store().log_delete(DocId(id)) {
            drop(index);
            return routed(
                Route::Docs,
                500,
                error_body(500, &format!("wal append failed, delete not applied: {e}")),
            );
        }
        durable.note_append();
    }
    let mut index = RwLockUpgradableReadGuard::upgrade(index);
    let deleted = ctx.engine.delete_document(&mut index, DocId(id));
    let stats = index.stats();
    drop(index);
    debug_assert!(
        deleted,
        "liveness was checked under the same upgradable lock"
    );
    let body = Value::Object(vec![
        ("deleted".into(), Value::Number(serde::Number::from_i128(id as i128))),
        ("index".into(), index_stats_value(stats)),
    ]);
    routed(Route::Docs, 200, body.to_compact_string())
}

/// `POST /admin/snapshot`: checkpoint the index — write a crash-atomic
/// snapshot, then reset the WAL. Runs under the upgradable read lock:
/// searches continue, while mutations wait, so a checkpoint can never
/// fall between a mutation's log append and its install (which would
/// snapshot an index missing a logged record, then discard the record).
/// Answers `400` when the server runs without a data directory.
fn handle_snapshot(ctx: &RequestContext<'_, '_>) -> Routed {
    let Some(durable) = ctx.durable else {
        return routed(
            Route::Admin,
            400,
            error_body(400, "durability not enabled (start the server with --data-dir)"),
        );
    };
    let index = ctx.index.upgradable_read();
    let mut store = durable.store();
    match store.checkpoint(&index, ctx.engine.graph()) {
        Ok(()) => {
            durable.note_snapshot();
            let num = |n: u64| Value::Number(serde::Number::from_i128(n as i128));
            let body = Value::Object(vec![
                ("checkpointed".into(), Value::Bool(true)),
                ("docs".into(), num(index.doc_count() as u64)),
                ("wal_bytes".into(), num(store.wal_len())),
                ("snapshots".into(), num(durable.snapshots_total())),
            ]);
            routed(Route::Admin, 200, body.to_compact_string())
        }
        Err(e) => routed(
            Route::Admin,
            500,
            error_body(500, &format!("checkpoint failed: {e}")),
        ),
    }
}

/// Parse an internal-protocol body, or answer `400` with the typed
/// envelope. Internal endpoints are router-to-shard only, so a parse
/// failure here means a version skew or a stray client — either way a
/// clear `400` beats a panic.
fn parse_internal<T: Deserialize>(body: &str) -> Result<T, RequestError> {
    serde_json::from_str(body).map_err(|e| bad(format!("invalid internal request: {e}")))
}

/// Rebuild a [`SideOverlay`] from its wire form. The wire arrays must
/// stay aligned — a df list of the wrong length would silently score
/// under garbage frequencies.
fn overlay_from_wire(wire: &OverlayWire) -> Result<SideOverlay<'_>, RequestError> {
    if wire.df.len() != wire.terms.len() {
        return Err(bad(format!(
            "overlay df length {} does not match {} terms",
            wire.df.len(),
            wire.terms.len()
        )));
    }
    Ok(SideOverlay {
        terms: &wire.terms,
        stats: CollectionStats {
            docs: wire.docs as usize,
            total_len: wire.total_len,
        },
        df: &wire.df,
        norm: f64_from_bits(wire.norm_bits),
    })
}

/// `POST /internal/stats` (phase 1, run only when the router has no
/// cached overlay): this shard's live collection statistics and
/// per-term document frequencies, both sides, plus the index
/// `generation` they were read at. The router sums these across shards
/// — exact integer sums, so the totals equal the monolithic values.
fn handle_internal_stats(req: &HttpRequest, ctx: &RequestContext<'_, '_>) -> Routed {
    let r: StatsRequest = match parse_internal(&req.body) {
        Ok(r) => r,
        Err(e) => return e.into_routed(Route::Internal),
    };
    let index = ctx.index.read();
    let side = |side: Side, terms: &[String]| {
        let (stats, df) = index.side_overlay_stats(side, terms);
        SideStatsWire {
            docs: stats.docs as u64,
            total_len: stats.total_len,
            df,
        }
    };
    let response = StatsResponse {
        bow: side(Side::Bow, &r.bow_terms),
        bon: side(Side::Bon, &r.bon_terms),
        generation: index.generation(),
    };
    routed(
        Route::Internal,
        200,
        response.serialize_value().to_compact_string(),
    )
}

/// `POST /internal/top1` (phase 2, run only when the router has no
/// cached overlay): this shard's maximum raw score per side under the
/// router's summed overlay, plus the index `generation` it scanned.
/// Only sides the blend actually uses are scanned (BOW at β < 1, BON at
/// β > 0) — the same gating the in-process normalizer applies, so an
/// inactive side reports 0.0 and the router's fold leaves its divisor
/// at 1.0.
fn handle_internal_top1(req: &HttpRequest, ctx: &RequestContext<'_, '_>) -> Routed {
    let r: Top1Request = match parse_internal(&req.body) {
        Ok(r) => r,
        Err(e) => return e.into_routed(Route::Internal),
    };
    let (bow_ov, bon_ov) = match (overlay_from_wire(&r.bow), overlay_from_wire(&r.bon)) {
        (Ok(bow), Ok(bon)) => (bow, bon),
        (Err(e), _) | (_, Err(e)) => return e.into_routed(Route::Internal),
    };
    let beta = f64_from_bits(r.beta_bits);
    let index = ctx.index.read();
    let mut prune = newslink_core::PruneStats::default();
    let bow_max = if beta < 1.0 {
        index.side_top1_overlay(Side::Bow, &bow_ov, &mut prune)
    } else {
        0.0
    };
    let bon_max = if beta > 0.0 {
        index.side_top1_overlay(Side::Bon, &bon_ov, &mut prune)
    } else {
        0.0
    };
    ctx.metrics.observe_pruning(&prune);
    let response = Top1Response {
        bow_max_bits: f64_bits(bow_max),
        bon_max_bits: f64_bits(bon_max),
        prune,
        generation: index.generation(),
    };
    routed(
        Route::Internal,
        200,
        response.serialize_value().to_compact_string(),
    )
}

/// `POST /internal/search` (phase 3, the only call of a search whose
/// overlay the router had cached): the shard-side half of the
/// scatter-gather search — the pruned blended top-k under the router's
/// cluster-wide overlays, plus explanations when requested, stamped
/// with the index `generation` that ranked. A request carrying an
/// expected `generation` is checked under the same read lock the scan
/// runs under; if the index has moved on, the answer is
/// `{"stale": true}` and nothing is ranked. Always `200`: staleness and
/// a deadline expiry (`timed_out`) are both reported in-band, because
/// the router folds shard answers into one response.
fn handle_internal_search(req: &HttpRequest, ctx: &RequestContext<'_, '_>) -> Routed {
    let r: ShardSearchRequest = match parse_internal(&req.body) {
        Ok(r) => r,
        Err(e) => return e.into_routed(Route::Internal),
    };
    if r.k > MAX_K {
        return bad(format!("k must be at most {MAX_K}, got {}", r.k)).into_routed(Route::Internal);
    }
    let (bow_ov, bon_ov) = match (overlay_from_wire(&r.bow), overlay_from_wire(&r.bon)) {
        (Ok(bow), Ok(bon)) => (bow, bon),
        (Err(e), _) | (_, Err(e)) => return e.into_routed(Route::Internal),
    };
    let answer = |response: ShardSearchResponse| {
        routed(
            Route::Internal,
            200,
            response.serialize_value().to_compact_string(),
        )
    };
    let index = ctx.index.read();
    let generation = index.generation();
    if r.generation.is_some_and(|expected| expected != generation) {
        return routed(Route::Internal, 200, ShardSearchReply::STALE_BODY.to_string());
    }
    // The budget is anchored at this shard's own request arrival: the
    // router already subtracted its elapsed share before scattering.
    let deadline = r
        .budget_ms
        .map(|ms| ctx.accepted + Duration::from_millis(ms));
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return answer(ShardSearchResponse {
            hits: Vec::new(),
            explanations: Vec::new(),
            prune: newslink_core::PruneStats::default(),
            timed_out: true,
            generation,
        });
    }
    let beta = f64_from_bits(r.beta_bits);
    let (ranked, prune) =
        index.blended_topk_overlay(beta, &bow_ov, &bon_ov, r.k, f64_from_bits(r.floor_bits));
    ctx.metrics.observe_pruning(&prune);
    let mut timed_out = false;
    let mut explanations = Vec::new();
    if let Some(opts) = r.explain {
        // Same gate as the in-process path: explanations are the most
        // expensive optional stage; a spent budget skips them but keeps
        // the ranked hits.
        if deadline.is_some_and(|d| Instant::now() >= d) {
            timed_out = true;
        } else {
            let analysis = ctx.engine.analyze_query(&r.query);
            explanations = ranked
                .iter()
                .map(|&(_, (doc, _, _))| Explanation {
                    doc,
                    paths: ctx.engine.explain(
                        &index,
                        &analysis.embedding,
                        doc,
                        opts.max_len,
                        opts.max_paths,
                    ),
                })
                .collect();
        }
    }
    let hits = ranked
        .into_iter()
        .map(|(score, (doc, bow, bon))| HitWire {
            doc: doc.0,
            score_bits: f64_bits(score),
            bow_bits: f64_bits(bow),
            bon_bits: f64_bits(bon),
        })
        .collect();
    answer(ShardSearchResponse {
        hits,
        explanations,
        prune,
        timed_out,
        generation,
    })
}

/// Render [`newslink_core::IndexStats`] as a JSON object (shared by the
/// `/docs` responses and sanity-checked against the `/metrics` gauges).
fn index_stats_value(stats: newslink_core::IndexStats) -> Value {
    let num = |n: u64| Value::Number(serde::Number::from_i128(n as i128));
    Value::Object(vec![
        ("docs".into(), num(stats.docs as u64)),
        ("segments".into(), num(stats.segments as u64)),
        ("tombstones".into(), num(stats.tombstones as u64)),
        ("compactions".into(), num(stats.compactions)),
    ])
}

/// Validate a `POST /docs` body: an object whose only field is a string
/// `"text"`.
pub(crate) fn parse_insert_body(body: &str) -> Result<String, RequestError> {
    let v = parse_body(body)?;
    let obj = v
        .as_object()
        .ok_or_else(|| bad("insert body must be a JSON object"))?;
    for (key, _) in obj {
        if key != "text" {
            return Err(bad(format!("unknown field {key:?} (expected \"text\")")));
        }
    }
    v.get("text")
        .and_then(|t| t.as_str())
        .map(str::to_string)
        .ok_or_else(|| bad("missing required string field \"text\""))
}

pub(crate) fn parse_body(body: &str) -> Result<Value, RequestError> {
    serde_json::from_str(body).map_err(|e| bad(format!("invalid JSON: {e}")))
}

fn parse_batch(
    body: &str,
    ctx: &RequestContext<'_, '_>,
) -> Result<Vec<SearchRequest>, RequestError> {
    let v = parse_body(body)?;
    let obj = v
        .as_object()
        .ok_or_else(|| bad("batch body must be a JSON object"))?;
    for (key, _) in obj {
        if key != "requests" {
            return Err(bad(format!("unknown field {key:?} (expected \"requests\")")));
        }
    }
    let items = v
        .get("requests")
        .and_then(|r| r.as_array())
        .ok_or_else(|| bad("missing required array field \"requests\""))?;
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            request_from_value(item)
                .map(|r| apply_deadline(r, ctx.config.default_timeout_ms, ctx.accepted))
                .map_err(|e| match e {
                    RequestError::BadRequest(msg) => bad(format!("requests[{i}]: {msg}")),
                    internal => internal,
                })
        })
        .collect()
}

/// Tighten `request`'s deadline with the server default, both anchored at
/// accept time: `execute` starts its own clock, so hand it only what is
/// left of the accept-anchored budget — time spent queued behind the
/// worker pool counts against the request. A budget that is already gone
/// becomes a zero remainder: the request still runs up to the first
/// inter-stage gate and comes back `timed_out` with its partial timer,
/// the same shape as any other expiry.
pub(crate) fn apply_deadline(
    mut request: SearchRequest,
    default_timeout_ms: Option<u64>,
    accepted: Instant,
) -> SearchRequest {
    let budget_ms = match (request.timeout_ms, default_timeout_ms) {
        (Some(r), Some(s)) => Some(r.min(s)),
        (r, s) => r.or(s),
    };
    if let Some(budget_ms) = budget_ms {
        let elapsed_ms = accepted.elapsed().as_millis() as u64;
        request.timeout_ms = Some(budget_ms.saturating_sub(elapsed_ms));
    }
    request
}

/// Build a [`SearchRequest`] from user JSON: must be an object with a
/// string `"query"`; all other fields are optional. Omitted fields fall
/// back to [`SearchRequest::new`]'s defaults by merging the user object
/// over the serialized default request, keeping the derived serde impl
/// as the single wire format: a field that request does not serialize
/// is unknown and rejected.
///
/// Numeric fields are validated here, at the protocol boundary, so the
/// engine never sees a non-finite β or an unbounded `k`: the JSON
/// number grammar cannot produce NaN, but it happily produces
/// infinities (`1e999`), and those must die with a clear `400`, not a
/// poisoned score.
pub fn request_from_value(v: &Value) -> Result<SearchRequest, RequestError> {
    let obj = v
        .as_object()
        .ok_or_else(|| bad("request must be a JSON object"))?;
    let query = v
        .get("query")
        .and_then(|q| q.as_str())
        .ok_or_else(|| bad("missing required string field \"query\""))?;
    let mut merged = SearchRequest::new(query).serialize_value();
    let Value::Object(pairs) = &mut merged else {
        return Err(RequestError::Internal(
            "default request did not serialize as an object".into(),
        ));
    };
    for (key, user_value) in obj {
        if key == "query" {
            continue;
        }
        let Some(slot) = pairs.iter_mut().find(|(k, _)| k == key) else {
            return Err(bad(format!("unknown field {key:?}")));
        };
        slot.1 = if key == "explain" {
            explain_value(user_value)?
        } else {
            user_value.clone()
        };
    }
    let request = SearchRequest::deserialize_value(&merged).map_err(|e| bad(e.to_string()))?;
    if let Some(beta) = request.beta {
        if !beta.is_finite() {
            return Err(bad(format!("beta must be a finite number, got {beta}")));
        }
        if !(0.0..=1.0).contains(&beta) {
            return Err(bad(format!("beta must be in [0, 1], got {beta}")));
        }
    }
    if request.k > MAX_K {
        return Err(bad(format!("k must be at most {MAX_K}, got {}", request.k)));
    }
    if let Some(explain) = &request.explain {
        if explain.max_len > MAX_EXPLAIN_LEN {
            return Err(bad(format!(
                "explain.max_len must be at most {MAX_EXPLAIN_LEN}, got {}",
                explain.max_len
            )));
        }
        if explain.max_paths > MAX_EXPLAIN_PATHS {
            return Err(bad(format!(
                "explain.max_paths must be at most {MAX_EXPLAIN_PATHS}, got {}",
                explain.max_paths
            )));
        }
    }
    Ok(request)
}

/// Normalize the `"explain"` field: `null`/`false` = off, `true` = on
/// with defaults, an object = merged over the default options.
fn explain_value(v: &Value) -> Result<Value, RequestError> {
    let defaults = newslink_core::ExplainOptions::default();
    match v {
        Value::Null | Value::Bool(false) => Ok(Value::Null),
        Value::Bool(true) => Ok(defaults.serialize_value()),
        Value::Object(pairs) => {
            let mut merged = defaults.serialize_value();
            let Value::Object(slots) = &mut merged else {
                return Err(RequestError::Internal(
                    "ExplainOptions did not serialize as an object".into(),
                ));
            };
            for (key, value) in pairs {
                let Some(slot) = slots.iter_mut().find(|(k, _)| k == key) else {
                    return Err(bad(format!("unknown explain field {key:?}")));
                };
                slot.1 = value.clone();
            }
            Ok(merged)
        }
        _ => Err(bad("explain must be null, a bool, or an options object")),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    /// Parse body text straight into a request.
    fn parse_search_request(body: &str) -> Result<SearchRequest, String> {
        parse_body(body)
            .and_then(|v| request_from_value(&v))
            .map_err(|e| e.message().to_string())
    }

    #[test]
    fn minimal_request_gets_defaults() {
        let r = parse_search_request(r#"{"query": "taliban in kunar"}"#).unwrap();
        assert_eq!(r, SearchRequest::new("taliban in kunar"));
    }

    #[test]
    fn full_request_round_trips() {
        let r = parse_search_request(
            r#"{"query": "q", "k": 3, "beta": 0.5, "explain": {"max_len": 2, "max_paths": 1},
               "use_cache": false, "timeout_ms": 250}"#,
        )
        .unwrap();
        assert_eq!(r.k, 3);
        assert_eq!(r.beta, Some(0.5));
        let e = r.explain.unwrap();
        assert_eq!((e.max_len, e.max_paths), (2, 1));
        assert!(!r.use_cache);
        assert_eq!(r.timeout_ms, Some(250));
    }

    #[test]
    fn explain_bool_and_partial_object() {
        let r = parse_search_request(r#"{"query": "q", "explain": true}"#).unwrap();
        assert_eq!(r.explain, Some(newslink_core::ExplainOptions::default()));
        let r = parse_search_request(r#"{"query": "q", "explain": false}"#).unwrap();
        assert!(r.explain.is_none());
        let r = parse_search_request(r#"{"query": "q", "explain": {"max_paths": 2}}"#).unwrap();
        let e = r.explain.unwrap();
        assert_eq!(e.max_paths, 2);
        assert_eq!(e.max_len, newslink_core::ExplainOptions::default().max_len);
    }

    #[test]
    fn rejects_bad_requests() {
        assert!(parse_search_request("not json").is_err());
        assert!(parse_search_request(r#"["query"]"#).is_err());
        assert!(parse_search_request(r#"{"k": 3}"#).is_err(), "query is required");
        assert!(parse_search_request(r#"{"query": 7}"#).is_err(), "query must be a string");
        assert!(parse_search_request(r#"{"query": "q", "knn": 3}"#).is_err(), "unknown field");
        assert!(parse_search_request(r#"{"query": "q", "beta": 1.5}"#).is_err(), "beta range");
        assert!(
            parse_search_request(r#"{"query": "q", "explain": {"depth": 3}}"#).is_err(),
            "unknown explain field"
        );
    }

    #[test]
    fn rejects_out_of_range_numeric_fields_with_clear_messages() {
        // The JSON number grammar can produce an infinity; it must be
        // named as non-finite, not swallowed by the range check.
        let err = parse_search_request(r#"{"query": "q", "beta": 1e999}"#).unwrap_err();
        assert!(err.contains("finite"), "names non-finiteness: {err}");
        let err = parse_search_request(r#"{"query": "q", "beta": -1e999}"#).unwrap_err();
        assert!(err.contains("finite"), "{err}");
        let err = parse_search_request(r#"{"query": "q", "beta": -0.25}"#).unwrap_err();
        assert!(err.contains("[0, 1]"), "names the range: {err}");
        let err = parse_search_request(r#"{"query": "q", "k": 1000000}"#).unwrap_err();
        assert!(err.contains("10000"), "names the cap: {err}");
        let err =
            parse_search_request(r#"{"query": "q", "explain": {"max_len": 99}}"#).unwrap_err();
        assert!(err.contains("max_len"), "{err}");
        let err =
            parse_search_request(r#"{"query": "q", "explain": {"max_paths": 5000}}"#).unwrap_err();
        assert!(err.contains("max_paths"), "{err}");
        // The caps themselves are accepted.
        let r = parse_search_request(
            r#"{"query": "q", "k": 10000, "explain": {"max_len": 32, "max_paths": 1000}}"#,
        )
        .unwrap();
        assert_eq!(r.k, MAX_K);
    }

    #[test]
    fn request_error_maps_to_status() {
        assert_eq!(bad("x").status(), 400);
        assert_eq!(RequestError::Internal("x".into()).status(), 500);
        let r = RequestError::Internal("broken invariant".into()).into_routed(Route::Search);
        assert_eq!(r.status, 500);
        assert!(r.body.contains("broken invariant"));
        assert!(r.body.contains(r#""code":"internal""#), "{}", r.body);
    }

    #[test]
    fn error_body_is_a_typed_envelope_with_escaping() {
        assert_eq!(
            error_body(400, "bad \"x\""),
            r#"{"error":{"code":"bad_request","message":"bad \"x\""}}"#
        );
        for (status, code) in [
            (400, "bad_request"),
            (404, "not_found"),
            (405, "method_not_allowed"),
            (413, "payload_too_large"),
            (429, "too_many_requests"),
            (500, "internal"),
            (503, "service_unavailable"),
        ] {
            assert_eq!(error_code(status), code);
        }
    }

    /// A mutation's expensive half runs under the upgradable lock, which
    /// searches pass and other mutations do not. With the test holding
    /// that lock (standing in for a slow prepare), a search through
    /// `dispatch` completes while an insert waits for it.
    #[test]
    fn searches_pass_a_preparing_mutation_and_inserts_wait() {
        use newslink_kg::{synth, LabelIndex, SynthConfig};
        use std::sync::mpsc;

        let world = synth::generate(&SynthConfig::small(3));
        let labels = LabelIndex::build(&world.graph);
        let engine = NewsLink::new(
            &world.graph,
            &labels,
            newslink_core::NewsLinkConfig::default(),
        );
        let country = world.graph.label(world.countries[0]).to_string();
        let index = RwLock::new(engine.index_corpus(&[format!("Talks opened in {country}.")]));
        let (config, metrics) = (ServeConfig::default(), ServerMetrics::new());
        let ctx = RequestContext {
            engine: &engine,
            index: &index,
            config: &config,
            metrics: &metrics,
            accepted: Instant::now(),
            in_flight: 0,
            durable: None,
        };
        let post = |path: &str, body: String| HttpRequest {
            method: "POST".into(),
            path: path.into(),
            body,
            keep_alive: false,
        };
        let search = post(
            "/v1/search",
            format!(r#"{{"query": "talks in {country}"}}"#),
        );
        let insert = post(
            "/v1/docs",
            format!(r#"{{"text": "More news from {country}."}}"#),
        );

        let preparing = index.upgradable_read();
        std::thread::scope(|s| {
            let (tx, rx) = mpsc::channel();
            let (ctx, insert_tx) = (&ctx, tx.clone());
            let inserter = s.spawn(move || {
                let r = dispatch(&insert, ctx);
                insert_tx.send("insert").expect("send");
                r
            });
            let searcher = s.spawn(move || {
                let r = dispatch(&search, ctx);
                tx.send("search").expect("send");
                r
            });
            assert_eq!(rx.recv().expect("a reply"), "search", "the search waited");
            let searched = searcher.join().expect("search thread");
            assert_eq!(searched.status, 200, "{}", searched.body);
            assert!(
                rx.recv_timeout(Duration::from_millis(200)).is_err(),
                "the insert must wait for the upgradable lock"
            );
            assert_eq!(index.read().doc_count(), 1);
            drop(preparing);
            assert_eq!(rx.recv().expect("a reply"), "insert");
            let inserted = inserter.join().expect("insert thread");
            assert_eq!(inserted.status, 200, "{}", inserted.body);
        });
        assert_eq!(index.read().doc_count(), 2);
    }

    #[test]
    fn api_paths_cover_the_route_table() {
        for p in [
            "/healthz",
            "/metrics",
            "/search",
            "/search/batch",
            "/docs",
            "/docs/17",
            "/admin/snapshot",
        ] {
            assert!(is_api_path(p), "{p}");
        }
        assert!(!is_api_path("/nope"));
        assert!(!is_api_path("/v1/search"), "prefix is stripped before the check");
    }
}
