//! Shared utilities for the NewsLink workspace.
//!
//! This crate deliberately has no knowledge of news, graphs or search; it
//! provides the low-level building blocks the other crates share:
//!
//! - [`fxhash`] — a fast, non-cryptographic hasher (FxHash) plus
//!   [`FxHashMap`]/[`FxHashSet`] aliases, following the guidance of the Rust
//!   Performance Book for integer-keyed tables on hot paths.
//! - [`rng`] — deterministic, seedable random-number helpers so every
//!   synthetic artifact in the workspace (knowledge graph, corpora,
//!   simulated user panel) is reproducible from a single seed.
//! - [`TopK`] — a bounded min-heap for streaming top-k selection, the
//!   retrieval primitive used by every ranking component.
//! - [`ComponentTimer`] — a component stopwatch used to reproduce the
//!   paper's per-component time breakdowns (Table VIII, Figure 7).
//! - [`ClockCache`] / [`ShardedCache`] — capacity-bounded CLOCK caches,
//!   their sharded concurrent wrapper and hit/miss counters: the memo
//!   tiers on the hot path.
//! - [`histogram`] — log2-bucketed value histograms for latency
//!   reporting (merge-friendly, quantiles from bucket bounds).
//! - [`ShutdownFlag`] — a cloneable one-way stop bit for cooperative
//!   drain-and-exit, and [`wake_accept`] for a loop blocked in `accept`.
//! - [`crc32`](mod@crc32) — table-driven CRC-32 (IEEE) for frame checksums in the
//!   persistence and write-ahead-log formats.
//! - [`failpoint`] — deterministic fail-at-byte-N / short-write / lost
//!   unsynced-tail I/O wrappers that drive the crash-recovery test
//!   suites.
//! - [`chaos`] — the network analogue of [`failpoint`]: a seeded
//!   in-process TCP fault proxy (refusal, black-hole, latency, reset,
//!   short write, throttling) driving the cluster resilience suites.
//! - [`Bytes`] — a shared heap byte region with zero-copy sub-views: a
//!   loaded snapshot's posting data and doc store are slices of the one
//!   buffer the file was read into.
//!
//! With the `serde` feature on, the observability types ([`CacheStats`],
//! [`ComponentTimer`], [`Histogram`]) serialize through the vendored
//! serde shim so metrics endpoints can report them as JSON.
//!
//! The workspace has no `unsafe` code: every crate root forbids it, and
//! `scripts/tier1.sh` also fails on any `unsafe` fn, impl or block.

#![forbid(unsafe_code)]

pub(crate) mod bytes;
pub(crate) mod cache;
pub mod chaos;
pub mod crc32;
pub mod failpoint;
pub mod fxhash;
pub mod histogram;
pub mod rng;
pub(crate) mod shutdown;
pub(crate) mod timer;
pub(crate) mod topk;
pub mod varint;
pub mod xxh64;

pub use bytes::Bytes;
pub use cache::{CacheStats, ClockCache, ShardedCache};
pub use chaos::{ChaosProxy, Fault, FaultPlan};
pub use crc32::crc32;
pub use fxhash::{FxHashMap, FxHashSet};
pub use histogram::Histogram;
pub use rng::DetRng;
pub use shutdown::{wake_accept, ShutdownFlag};
pub use timer::ComponentTimer;
pub use topk::TopK;
pub use xxh64::xxh64;
