//! `newslink-serve`: an HTTP search service over the NewsLink engine.
//!
//! The serving layer the paper's system demo implies but never details:
//! a small, dependency-free HTTP/1.1 server (plain `std::net`, no async
//! runtime — the offline build rules out tokio) that exposes the
//! engine's request-based search API over real TCP:
//!
//! The wire surface is versioned under `/v1/`:
//!
//! | Endpoint                | Body                        | Answer |
//! |-------------------------|-----------------------------|--------|
//! | `POST /v1/search`       | a [`SearchRequest`] as JSON | the `SearchResponse` (hits, timers, cache info, explanations) |
//! | `POST /v1/search/batch` | `{"requests": [...]}`       | the `BatchResponse` |
//! | `POST /v1/docs`         | `{"text": "..."}`           | `{"id": n, "index": {...}}` — seal a one-doc segment, compact if needed |
//! | `DELETE /v1/docs/<id>`  | —                           | tombstone a live document |
//! | `POST /v1/admin/snapshot` | —                         | checkpoint the durable store (snapshot + WAL reset); `400` without `--data-dir` |
//! | `GET /v1/healthz`       | —                           | `{"status":"ok"}`, or `{"status":"degraded",...}` after a lossy recovery |
//! | `GET /v1/metrics`       | —                           | counters, latency histogram, cache stats, segment/tombstone/compaction gauges, durability gauges (WAL and snapshot bytes, recovery report) |
//!
//! The bare, unprefixed spellings (`/search`, …) remain as aliases for
//! one release: they answer identically but carry a
//! `Deprecation: true` response header. Every non-2xx response body is
//! the typed envelope `{"error": {"code": "...", "message": "..."}}`
//! (see [`router::error_code`] for the code vocabulary).
//!
//! Production shape, in miniature:
//!
//! - **Worker pool** — a fixed number of scoped handler threads
//!   borrowing one shared engine (and its caches), fed by the accept
//!   loop over a channel.
//! - **Admission control** — at most `workers + queue_depth`
//!   connections in flight; the rest are shed with `429` straight from
//!   the accept loop.
//! - **Deadlines** — a per-request budget (server default and/or the
//!   request's own `timeout_ms`) anchored at accept time and checked
//!   between pipeline stages; expiry yields `503` with a partial
//!   component-timer report.
//! - **Graceful shutdown** — a [`ServerHandle`] trigger stops the
//!   accept loop, drains every already-accepted request, then joins the
//!   pool.
//! - **Durability (opt-in)** — [`Server::run_durable`] takes a
//!   [`DurableState`] wrapping a [`newslink_core::DurableStore`]:
//!   mutations are write-ahead logged and fsynced before they are
//!   acknowledged, `POST /admin/snapshot` checkpoints, and the recovery
//!   report (quarantined segments, WAL replay counters) is surfaced on
//!   `/healthz` and `/metrics`.
//!
//! ```no_run
//! use newslink_core::{NewsLink, NewsLinkConfig};
//! use newslink_kg::{synth, LabelIndex, SynthConfig};
//! use newslink_serve::{ServeConfig, Server};
//!
//! let world = synth::generate(&SynthConfig::small(1));
//! let labels = LabelIndex::build(&world.graph);
//! let engine = NewsLink::new(&world.graph, &labels, NewsLinkConfig::default());
//! let index = parking_lot::RwLock::new(engine.index_corpus(&["Some news text.".to_string()]));
//!
//! let server = Server::bind("127.0.0.1:8080", ServeConfig::default()).unwrap();
//! println!("listening on {}", server.local_addr());
//! server.run(&engine, &index).unwrap(); // blocks until handle().shutdown()
//! ```
//!
//! [`SearchRequest`]: newslink_core::SearchRequest

// Handlers answer errors over the wire; a panic (or a lazy unwrap that
// becomes one) turns into a blanket 500 and loses the diagnosis.
#![warn(clippy::unwrap_used)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod durable;
pub mod metrics;
pub mod protocol;
pub mod router;
pub mod server;

pub use cluster::{parse_shards, Cluster, FlagError, ResilienceConfig, SpecError};
pub use durable::DurableState;
pub use metrics::{KgStats, Route, ServerMetrics};
pub use protocol::{client, HttpRequest};
pub use router::RequestError;
pub use server::{ServeConfig, Server, ServerHandle};
