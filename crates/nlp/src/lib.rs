//! NLP substrate for NewsLink (the paper's NLP component, §IV).
//!
//! The paper uses spaCy for tokenization, sentence splitting and NER; this
//! crate is the from-scratch offline substitute:
//!
//! - [`token`] — span-preserving tokenizer;
//! - [`split_sentences`] — sentence splitter (each sentence is a *news segment*);
//! - [`analyze`] — BOW term analysis (lowercase, stopwords, light stems);
//! - [`Recognizer`] — gazetteer NER against the KG label index with a
//!   capitalization fallback for out-of-KG names;
//! - [`maximal_cooccurrence`] — maximal entity co-occurrence sets (Definition 1);
//! - [`NlpPipeline`] — the end-to-end pipeline.

#![forbid(unsafe_code)]

pub(crate) mod analyzer;
pub(crate) mod cooccur;
pub(crate) mod ner;
pub(crate) mod segment;
pub(crate) mod sentence;
pub mod stopwords;
pub mod token;

pub use analyzer::{analyze, stem};
pub use cooccur::{maximal_cooccurrence, EntitySet};
pub use ner::{EntityMention, MatchStats, Recognizer};
pub use segment::{DocumentAnalysis, NlpPipeline, Segment};
pub use sentence::{split_sentences, Sentence};
pub use token::{tokenize, tokenize_lower, Token};
