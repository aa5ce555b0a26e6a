//! The NewsLink framework (the paper's primary contribution, §III–§VI).
//!
//! Wires the NLP component (`newslink-nlp`), the NE component
//! (`newslink-embed`) and the NS component (BOW/BON blending over
//! `newslink-text`) into one engine:
//!
//! - [`NewsLinkConfig`] — β, embedding model, threading, segment sizing;
//! - [`NewsLinkIndex`] — the segmented index: corpus embedding, parallel
//!   segment building, immutable [`IndexSegment`]s, tombstones,
//!   compaction and the global-stats scoring overlay ([`SideOverlay`]);
//! - [`SearchResult`] — one Equation 3 blended hit, produced by
//!   per-segment scoring and the top-k merge;
//! - [`save_newslink_index`] / [`load_newslink_index`] — the v4 snapshot
//!   format; a snapshot is read into the heap and decoded by one
//!   validating decoder ([`read_newslink_index_tolerant`] quarantines
//!   damaged segments instead of failing);
//! - [`wal`] / [`DurableStore`] — the write-ahead log and the durable
//!   store that pairs it with snapshots;
//! - [`SearchRequest`] / [`SearchResponse`] — the declarative
//!   request/response types;
//! - [`ScoreExplanation`] — Lucene-`explain()`-style score breakdowns;
//! - [`NewsLink`] — the facade, the only public way to
//!   index ([`NewsLink::index_corpus`], [`NewsLink::index_corpus_sharded`]),
//!   search ([`NewsLink::execute`], [`NewsLink::execute_batch`]) and
//!   explain ([`NewsLink::explain`], [`NewsLink::explain_score`]). Its
//!   `insert_document` / `delete_document` are the one way a document
//!   enters or leaves a built index.

#![forbid(unsafe_code)]

pub(crate) mod api;
mod cache;
pub(crate) mod config;
pub(crate) mod directory;
pub(crate) mod indexer;
pub(crate) mod persist;
pub(crate) mod pipeline;
pub(crate) mod score_explain;
pub(crate) mod searcher;
pub(crate) mod segment;
pub(crate) mod store;
pub mod wal;

pub use api::{
    BatchResponse, ExplainOptions, Explanation, ParallelShell, QueryCacheInfo, SearchRequest,
    SearchResponse,
};
pub use cache::EngineCacheStats;
pub use config::{CacheConfig, EmbeddingModel, NewsLinkConfig};
pub use indexer::NewsLinkIndex;
pub use pipeline::{InstalledInsert, NewsLink, PreparedInsert, QueryAnalysis};
pub use score_explain::{ScoreExplanation, SideExplanation, TermContribution};
pub use searcher::SearchResult;
pub use segment::{IndexSegment, IndexStats, Side, SideOverlay};
pub use persist::{
    load_newslink_index, read_newslink_index, read_newslink_index_tolerant, save_newslink_index,
    segment_byte_spans, write_newslink_index, LoadReport, PersistError,
};
pub use store::DurableStore;

/// Document ids are minted by the index; re-exported so downstream
/// crates (serve, cli) can name them without depending on the text crate.
pub use newslink_text::{CollectionStats, DocId, PruneStats};
