//! Server observability: request/response counters and a latency
//! histogram, snapshotted as the `GET /metrics` JSON document.
//!
//! Counters are lock-free atomics so the accept loop and every worker
//! can record without contention; only the latency histogram sits behind
//! a mutex (one `record` per finished request). The snapshot folds in
//! the engine's [`EngineCacheStats`] so one endpoint answers both "how
//! is the server doing" and "how warm are the caches".

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use newslink_core::{EngineCacheStats, IndexStats};
use newslink_util::Histogram;
use parking_lot::Mutex;
use serde::{Number, Serialize, Value};

/// An integer counter as a JSON value.
fn num(n: u64) -> Value {
    Value::Number(Number::from_i128(n as i128))
}

/// Which endpoint a request resolved to, for per-route counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `POST /search`.
    Search,
    /// `POST /search/batch`.
    Batch,
    /// `GET /healthz`.
    Healthz,
    /// `GET /metrics`.
    Metrics,
    /// `POST /docs` and `DELETE /docs/<id>` (live index mutations).
    Docs,
    /// `POST /admin/snapshot` (checkpoint the durable store).
    Admin,
    /// `POST /internal/*` (shard-side scatter-gather endpoints, called
    /// by a router, never by end clients).
    Internal,
    /// Anything else (unknown paths, unparseable requests).
    Other,
}

/// The `/metrics` `kg` section: knowledge-graph shape and label-resolver
/// gauges. Static for a server's lifetime (the graph is immutable), so
/// it is computed once at startup and passed into every snapshot.
#[derive(Debug, Clone, Copy, Default)]
pub struct KgStats {
    /// Nodes in the knowledge graph.
    pub nodes: usize,
    /// Undirected edges in the knowledge graph.
    pub edges: usize,
    /// Distinct normalized surfaces in the label resolver.
    pub surfaces: usize,
    /// Approximate resident bytes of the resolver structures.
    pub resolver_bytes: usize,
}

impl KgStats {
    /// Gauge the graph and its label index.
    pub fn of(graph: &newslink_kg::KnowledgeGraph, index: &newslink_kg::LabelIndex) -> Self {
        Self {
            nodes: graph.node_count(),
            edges: graph.edge_count(),
            surfaces: index.len(),
            resolver_bytes: index.resolver_bytes(),
        }
    }

    fn serialize_value(&self) -> Value {
        Value::Object(vec![
            ("nodes".into(), num(self.nodes as u64)),
            ("edges".into(), num(self.edges as u64)),
            ("surfaces".into(), num(self.surfaces as u64)),
            ("resolver_bytes".into(), num(self.resolver_bytes as u64)),
        ])
    }
}

/// Aggregate counters for one server's lifetime.
#[derive(Debug)]
pub struct ServerMetrics {
    started: Instant,
    requests_total: AtomicU64,
    search: AtomicU64,
    batch: AtomicU64,
    healthz: AtomicU64,
    metrics: AtomicU64,
    docs: AtomicU64,
    admin: AtomicU64,
    internal: AtomicU64,
    ok: AtomicU64,
    bad_request: AtomicU64,
    not_found: AtomicU64,
    method_not_allowed: AtomicU64,
    payload_too_large: AtomicU64,
    shed: AtomicU64,
    timeout: AtomicU64,
    error: AtomicU64,
    ns_candidates: AtomicU64,
    ns_docs_scored: AtomicU64,
    ns_blocks_skipped: AtomicU64,
    latency_us: Mutex<Histogram>,
}

impl ServerMetrics {
    /// Fresh metrics; the uptime clock starts now.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            requests_total: AtomicU64::new(0),
            search: AtomicU64::new(0),
            batch: AtomicU64::new(0),
            healthz: AtomicU64::new(0),
            metrics: AtomicU64::new(0),
            docs: AtomicU64::new(0),
            admin: AtomicU64::new(0),
            internal: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            bad_request: AtomicU64::new(0),
            not_found: AtomicU64::new(0),
            method_not_allowed: AtomicU64::new(0),
            payload_too_large: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            timeout: AtomicU64::new(0),
            error: AtomicU64::new(0),
            ns_candidates: AtomicU64::new(0),
            ns_docs_scored: AtomicU64::new(0),
            ns_blocks_skipped: AtomicU64::new(0),
            latency_us: Mutex::new(Histogram::new()),
        }
    }

    /// Fold one query's pruned-evaluator counters into the server-wide
    /// totals (candidates considered, documents fully scored, posting
    /// blocks skipped without decoding).
    pub fn observe_pruning(&self, prune: &newslink_core::PruneStats) {
        self.ns_candidates.fetch_add(prune.candidates, Ordering::Relaxed);
        self.ns_docs_scored.fetch_add(prune.scored, Ordering::Relaxed);
        self.ns_blocks_skipped
            .fetch_add(prune.blocks_skipped, Ordering::Relaxed);
    }

    /// Record one finished request: which route it hit, the status it got,
    /// and its accept-to-response latency.
    pub fn observe(&self, route: Route, status: u16, latency: Duration) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        let route_counter = match route {
            Route::Search => Some(&self.search),
            Route::Batch => Some(&self.batch),
            Route::Healthz => Some(&self.healthz),
            Route::Metrics => Some(&self.metrics),
            Route::Docs => Some(&self.docs),
            Route::Admin => Some(&self.admin),
            Route::Internal => Some(&self.internal),
            Route::Other => None,
        };
        if let Some(counter) = route_counter {
            counter.fetch_add(1, Ordering::Relaxed);
        }
        let status_counter = match status {
            200 => &self.ok,
            400 => &self.bad_request,
            404 => &self.not_found,
            405 => &self.method_not_allowed,
            413 => &self.payload_too_large,
            429 => &self.shed,
            503 => &self.timeout,
            _ => &self.error,
        };
        status_counter.fetch_add(1, Ordering::Relaxed);
        self.latency_us.lock().record_micros(latency);
    }

    /// A load-shed rejection written straight from the accept loop (the
    /// connection never reached a worker, so there is no latency sample).
    pub fn observe_shed(&self) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests rejected by admission control.
    pub fn shed_total(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// The full `/metrics` document: uptime, per-route and per-status
    /// counters, the latency histogram, the admission gauge, the
    /// engine's cache counters, the segmented index's gauges, and the
    /// knowledge-graph/resolver gauges (`kg`). When the server runs
    /// durably, `durability` carries the recovery report and
    /// WAL/checkpoint gauges and lands as one more section; in router
    /// mode `cluster` does the same for the shard map (per-group
    /// latency, failovers, probe state).
    pub fn snapshot(
        &self,
        in_flight: usize,
        cache: &EngineCacheStats,
        index: IndexStats,
        kg: KgStats,
        durability: Option<Value>,
        cluster: Option<Value>,
    ) -> Value {
        let load = |c: &AtomicU64| num(c.load(Ordering::Relaxed));
        let mut sections = vec![
            (
                "uptime_ms".into(),
                num(self.started.elapsed().as_millis() as u64),
            ),
            ("requests_total".into(), load(&self.requests_total)),
            (
                "routes".into(),
                Value::Object(vec![
                    ("search".into(), load(&self.search)),
                    ("batch".into(), load(&self.batch)),
                    ("healthz".into(), load(&self.healthz)),
                    ("metrics".into(), load(&self.metrics)),
                    ("docs".into(), load(&self.docs)),
                    ("admin".into(), load(&self.admin)),
                    ("internal".into(), load(&self.internal)),
                ]),
            ),
            (
                "responses".into(),
                Value::Object(vec![
                    ("ok".into(), load(&self.ok)),
                    ("bad_request".into(), load(&self.bad_request)),
                    ("not_found".into(), load(&self.not_found)),
                    ("method_not_allowed".into(), load(&self.method_not_allowed)),
                    ("payload_too_large".into(), load(&self.payload_too_large)),
                    ("shed".into(), load(&self.shed)),
                    ("timeout".into(), load(&self.timeout)),
                    ("error".into(), load(&self.error)),
                ]),
            ),
            ("in_flight".into(), num(in_flight as u64)),
            (
                "pruning".into(),
                Value::Object(vec![
                    ("candidates".into(), load(&self.ns_candidates)),
                    ("docs_scored".into(), load(&self.ns_docs_scored)),
                    ("blocks_skipped".into(), load(&self.ns_blocks_skipped)),
                ]),
            ),
            ("latency_us".into(), self.latency_us.lock().serialize_value()),
            ("cache".into(), cache.serialize_value()),
            (
                "index".into(),
                Value::Object(vec![
                    ("docs".into(), num(index.docs as u64)),
                    ("segments".into(), num(index.segments as u64)),
                    ("tombstones".into(), num(index.tombstones as u64)),
                    ("compactions".into(), num(index.compactions)),
                ]),
            ),
            ("kg".into(), kg.serialize_value()),
        ];
        if let Some(durability) = durability {
            sections.push(("durability".into(), durability));
        }
        if let Some(cluster) = cluster {
            sections.push(("cluster".into(), cluster));
        }
        Value::Object(sections)
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn observes_routes_statuses_and_latency() {
        let m = ServerMetrics::new();
        m.observe(Route::Search, 200, Duration::from_micros(150));
        m.observe(Route::Search, 503, Duration::from_micros(90));
        m.observe(Route::Healthz, 200, Duration::from_micros(5));
        m.observe(Route::Other, 404, Duration::from_micros(3));
        m.observe_shed();
        assert_eq!(m.requests_total.load(Ordering::Relaxed), 5);
        assert_eq!(m.ok.load(Ordering::Relaxed), 2);
        assert_eq!(m.shed_total(), 1);
        assert_eq!(m.latency_us.lock().count(), 4, "shed requests have no latency sample");
    }

    #[test]
    fn snapshot_has_every_section() {
        let m = ServerMetrics::new();
        m.observe(Route::Batch, 200, Duration::from_micros(42));
        m.observe(Route::Docs, 200, Duration::from_micros(7));
        let index = IndexStats {
            docs: 10,
            segments: 3,
            tombstones: 2,
            compactions: 5,
        };
        let kg = KgStats {
            nodes: 100,
            edges: 250,
            surfaces: 97,
            resolver_bytes: 4096,
        };
        let snap = m.snapshot(3, &EngineCacheStats::default(), index, kg, None, None);
        assert_eq!(snap["requests_total"], 2u64);
        assert_eq!(snap["routes"]["batch"], 1u64);
        assert_eq!(snap["routes"]["docs"], 1u64);
        assert_eq!(snap["routes"]["admin"], 0u64);
        assert_eq!(snap["responses"]["ok"], 2u64);
        assert_eq!(snap["in_flight"], 3u64);
        assert_eq!(snap["latency_us"]["count"], 2u64);
        assert!(!snap["cache"]["queries"].is_null());
        assert_eq!(snap["index"]["docs"], 10u64);
        assert_eq!(snap["index"]["segments"], 3u64);
        assert_eq!(snap["index"]["tombstones"], 2u64);
        assert_eq!(snap["index"]["compactions"], 5u64);
        assert_eq!(snap["kg"]["nodes"], 100u64);
        assert_eq!(snap["kg"]["edges"], 250u64);
        assert_eq!(snap["kg"]["surfaces"], 97u64);
        assert_eq!(snap["kg"]["resolver_bytes"], 4096u64);
        assert_eq!(snap["pruning"]["candidates"], 0u64);
        assert_eq!(snap["pruning"]["docs_scored"], 0u64);
        assert_eq!(snap["pruning"]["blocks_skipped"], 0u64);
        // Without durability wiring, the section is absent entirely.
        assert!(snap["durability"].is_null());
        // The document renders as valid JSON text.
        let text = serde_json::to_string(&snap).unwrap();
        assert!(text.contains("\"uptime_ms\""));
    }

    #[test]
    fn pruning_counters_accumulate_across_queries() {
        let m = ServerMetrics::new();
        m.observe_pruning(&newslink_core::PruneStats {
            candidates: 10,
            scored: 4,
            blocks_skipped: 3,
        });
        m.observe_pruning(&newslink_core::PruneStats {
            candidates: 5,
            scored: 5,
            blocks_skipped: 0,
        });
        let snap = m.snapshot(
            0,
            &EngineCacheStats::default(),
            IndexStats::default(),
            KgStats::default(),
            None,
            None,
        );
        assert_eq!(snap["pruning"]["candidates"], 15u64);
        assert_eq!(snap["pruning"]["docs_scored"], 9u64);
        assert_eq!(snap["pruning"]["blocks_skipped"], 3u64);
    }

    #[test]
    fn snapshot_carries_the_durability_section_when_given_one() {
        let m = ServerMetrics::new();
        m.observe(Route::Admin, 200, Duration::from_micros(12));
        let gauges = Value::Object(vec![("quarantined_segments".into(), num(1))]);
        let snap = m.snapshot(
            0,
            &EngineCacheStats::default(),
            IndexStats::default(),
            KgStats::default(),
            Some(gauges),
            None,
        );
        assert_eq!(snap["routes"]["admin"], 1u64);
        assert_eq!(snap["durability"]["quarantined_segments"], 1u64);
    }
}
