//! Search baselines for the NewsLink evaluation (Table IV competitors).
//!
//! - [`Doc2Vec`] — random-indexing document embeddings (gensim Doc2Vec
//!   substitute, DESIGN.md §6.4);
//! - [`SbertEmbedder`] — SIF-pooled deterministic word vectors (pretrained SBERT
//!   substitute, §6.5);
//! - [`Lda`] — a real collapsed-Gibbs LDA (PLDA substitute, §6.6);
//! - [`Qeprf`] — KG-description + pseudo-relevance-feedback query
//!   expansion (Xiong & Callan);
//! - [`FastTextEmbedder`] — the char-n-gram judge embedding used only for SIM@k
//!   evaluation (§6.8);
//! - [`vector`] — shared dense-vector helpers.
//!
//! The Lucene baseline is `newslink-text` itself (BM25 with default
//! settings), used directly by the evaluation harness.

#![forbid(unsafe_code)]

pub(crate) mod doc2vec;
pub(crate) mod fasttext;
pub(crate) mod lda;
pub(crate) mod qeprf;
pub(crate) mod sbert;
pub mod vector;

pub use doc2vec::{Doc2Vec, Doc2VecConfig};
pub use fasttext::FastTextEmbedder;
pub use lda::{Lda, LdaConfig};
pub use qeprf::{Qeprf, QeprfConfig};
pub use sbert::SbertEmbedder;
