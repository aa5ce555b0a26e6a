//! The NewsLink framework (the paper's primary contribution, §III–§VI).
//!
//! Wires the NLP component (`newslink-nlp`), the NE component
//! (`newslink-embed`) and the NS component (BOW/BON blending over
//! `newslink-text`) into one engine:
//!
//! - [`config`] — β, embedding model, threading, segment sizing;
//! - [`indexer`] — the [`NewsLinkIndex`] type, corpus embedding and
//!   parallel segment building;
//! - [`segment`] — immutable index segments, tombstones, compaction and
//!   the global-stats scoring overlay;
//! - [`searcher`] — Equation 3 blended scoring, per-segment scoring and
//!   the top-k merge;
//! - [`directory`] / [`reader`] — the storage seam: named-blob
//!   directories (file-system or in-memory) and heap/mmap snapshot
//!   readers;
//! - [`persist`] / [`wal`] / [`store`] — snapshots, the write-ahead log
//!   and the durable store that pairs them;
//! - [`api`] — the declarative request/response types;
//! - [`score_explain`] — Lucene-`explain()`-style score breakdowns;
//! - [`pipeline`] — the [`NewsLink`] facade, the only public way to
//!   index ([`NewsLink::index_corpus`], [`NewsLink::index_corpus_sharded`]),
//!   search ([`NewsLink::execute`], [`NewsLink::execute_batch`]) and
//!   explain ([`NewsLink::explain`], [`NewsLink::explain_score`]). Its
//!   `insert_document` / `delete_document` are the one way a document
//!   enters or leaves a built index.

#![deny(unsafe_code)]

pub mod api;
mod cache;
pub mod config;
pub mod directory;
pub mod indexer;
pub mod persist;
pub mod pipeline;
pub mod reader;
pub mod score_explain;
pub mod searcher;
pub mod segment;
pub mod store;
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
pub use directory::{Directory, FsDirectory, RamDirectory};
pub use persist::{
    atomic_write_file, load_newslink_index, read_newslink_index, read_newslink_index_bytes,
    read_newslink_index_tolerant, save_newslink_index, segment_byte_spans, write_newslink_index,
    LoadReport, PersistError,
};
pub use reader::{HeapSegmentReader, MmapSegmentReader, SegmentReader, StorageBackend};
pub use store::DurableStore;
pub use wal::{Wal, WalRecord};

/// Document ids are minted by the index; re-exported so downstream
/// crates (serve, cli) can name them without depending on the text crate.
pub use newslink_text::{CollectionStats, DocId, PruneStats};
