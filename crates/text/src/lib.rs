//! Text retrieval substrate (the paper's Apache Lucene substitute).
//!
//! A from-scratch inverted index with BM25 and TF-IDF cosine scoring and a
//! deterministic top-k executor. It plays three roles in the reproduction:
//! the standalone "Lucene" baseline of Table IV, the BOW half of NewsLink's
//! blended score (Equation 3), and — fed node-id terms instead of words —
//! the BON half as well (§VI "scoring compatibility").

#![deny(unsafe_code)]

pub mod codec;
pub mod dictionary;
pub mod inverted;
pub mod live;
pub mod maxscore;
pub mod positions;
pub mod score;
pub mod search;

pub use dictionary::{TermDictionary, TermId};
pub use inverted::{
    BlockMeta, CollectionStats, DocId, IndexBuilder, InvertedIndex, Posting, PostingCursor,
    PostingIter, PostingList, BLOCK_LEN,
};
pub use score::{Bm25, Scorer, TfIdfCosine};
pub use codec::{
    load_index, read_index, read_index_columnar, read_index_columnar_lazy, save_index,
    write_index, write_index_columnar,
};
pub use live::{GlobalId, SegmentedIndex};
pub use maxscore::{blended_scan, maxscore_search, maxscore_search_with, PruneStats, SideSpec};
pub use positions::{PositionalBuilder, PositionalIndex};
pub use search::{query_tf, score_segment, Hit, Searcher};
