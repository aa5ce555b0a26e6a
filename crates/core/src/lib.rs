//! The NewsLink framework (the paper's primary contribution, §III–§VI).
//!
//! Wires the NLP component (`newslink-nlp`), the NE component
//! (`newslink-embed`) and the NS component (BOW/BON blending over
//! `newslink-text`) into one engine:
//!
//! - [`config`] — β, embedding model, threading, segment sizing;
//! - [`indexer`] — corpus embedding + parallel segment building;
//! - [`segment`] — immutable index segments, tombstones, compaction and
//!   the global-stats scoring overlay;
//! - [`searcher`] — Equation 3 blended scoring, per-segment scoring,
//!   top-k merge, explanations;
//! - [`directory`] / [`reader`] — the storage seam: named-blob
//!   directories (file-system or in-memory) and heap/mmap snapshot
//!   readers;
//! - [`pipeline`] — the [`NewsLink`] facade.

#![deny(unsafe_code)]

pub mod alerts;
pub mod api;
mod cache;
pub mod config;
pub mod directory;
pub mod indexer;
pub mod live;
pub mod persist;
pub mod pipeline;
pub mod reader;
pub mod score_explain;
pub mod searcher;
pub mod segment;
pub mod store;
pub mod wal;

pub use alerts::{AlertMatch, AlertRegistry};
pub use api::{
    BatchResponse, ExplainOptions, Explanation, ParallelShell, QueryCacheInfo, SearchRequest,
    SearchResponse,
};
pub use cache::EngineCacheStats;
pub use config::{CacheConfig, EmbeddingModel, NewsLinkConfig};
pub use indexer::{doc_ids, index_corpus, index_corpus_sharded, index_corpus_with, NewsLinkIndex};
pub use live::{LiveHit, LiveNewsLink};
pub use pipeline::{NewsLink, QueryAnalysis};
pub use score_explain::{explain_score, ScoreExplanation, SideExplanation, TermContribution};
pub use searcher::{explain, search, search_batch, QueryOutcome, SearchResult};
pub use segment::{IndexSegment, IndexStats, Side, SideOverlay};
pub use directory::{Directory, FsDirectory, RamDirectory};
pub use persist::{
    atomic_write_file, load_label_fst, load_newslink_index, load_newslink_index_tolerant,
    read_newslink_index, read_newslink_index_bytes, read_newslink_index_tolerant, save_label_fst,
    save_newslink_index, segment_byte_spans, write_newslink_index, write_newslink_index_v3,
    LoadReport, PersistError, LABEL_FST_BLOB,
};
pub use reader::{HeapSegmentReader, MmapSegmentReader, SegmentReader, StorageBackend, StoreOptions};
pub use store::DurableStore;
pub use wal::{Wal, WalRecord};

/// Document ids are minted by the index; re-exported so downstream
/// crates (serve, cli) can name them without depending on the text crate.
pub use newslink_text::{CollectionStats, DocId, PruneStats};
