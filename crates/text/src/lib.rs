//! Text retrieval substrate (the paper's Apache Lucene substitute).
//!
//! A from-scratch inverted index with BM25 scoring and a deterministic
//! top-k executor. It plays three roles in the reproduction:
//! the standalone "Lucene" baseline of Table IV, the BOW half of NewsLink's
//! blended score (Equation 3), and — fed node-id terms instead of words —
//! the BON half as well (§VI "scoring compatibility").
//!
//! - [`inverted`] / [`dictionary`] — the immutable index and its builder;
//! - [`score`] / [`search`] — BM25 and the exhaustive scorer (the oracle);
//! - [`maxscore`] — the block-max pruned top-k evaluator, the one pruned
//!   path for BOW top-k and for the blended score alike;
//! - [`codec`] — the columnar on-disk index section.
//!
//! Segments, tombstones and live updates live one layer up, in
//! `newslink-core`'s `NewsLinkIndex`.

#![deny(unsafe_code)]

pub mod codec;
pub mod dictionary;
pub mod inverted;
pub mod maxscore;
pub mod score;
pub mod search;

pub use dictionary::{TermDictionary, TermId};
pub use inverted::{
    BlockMeta, CollectionStats, DocId, IndexBuilder, InvertedIndex, Posting, PostingCursor,
    PostingIter, PostingList, BLOCK_LEN,
};
pub use score::Bm25;
pub use codec::{read_index_columnar, read_index_columnar_lazy, write_index_columnar};
pub use maxscore::{blended_scan, PruneStats, SideSpec};
pub use search::{query_tf, score_segment, Hit, Searcher};
