//! Text retrieval substrate (the paper's Apache Lucene substitute).
//!
//! A from-scratch inverted index with BM25 scoring and a deterministic
//! top-k executor. It plays three roles in the reproduction:
//! the standalone "Lucene" baseline of Table IV, the BOW half of NewsLink's
//! blended score (Equation 3), and — fed node-id terms instead of words —
//! the BON half as well (§VI "scoring compatibility").
//!
//! - [`InvertedIndex`] / [`IndexBuilder`] — the immutable index and its
//!   builder;
//! - [`Bm25`] / [`Searcher`] — BM25 and the exhaustive scorer (the
//!   oracle);
//! - [`blended_scan`] — the block-max pruned top-k evaluator, the one
//!   pruned path for BOW top-k and for the blended score alike;
//! - [`write_index_columnar`] / [`read_index_columnar`] — the columnar
//!   on-disk index section.
//!
//! Segments, tombstones and live updates live one layer up, in
//! `newslink-core`'s `NewsLinkIndex`.

#![forbid(unsafe_code)]

pub(crate) mod codec;
pub(crate) mod dictionary;
pub(crate) mod inverted;
pub(crate) mod maxscore;
pub(crate) mod score;
pub(crate) mod search;

pub use dictionary::{TermDictionary, TermId};
pub use inverted::{
    CollectionStats, DocId, IndexBuilder, InvertedIndex, Posting, PostingIter, PostingList,
};
pub use score::Bm25;
pub use codec::{read_index_columnar, write_index_columnar};
pub use maxscore::{blended_scan, PruneStats, SideSpec};
pub use search::{query_tf, score_segment, Hit, Searcher};
