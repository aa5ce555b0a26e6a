//! Synthetic news corpora for the NewsLink reproduction.
//!
//! The paper evaluates on the CNN and Kaggle "all-the-news" datasets,
//! which are unavailable offline; this crate generates event-driven
//! substitutes from the synthetic knowledge-graph world (DESIGN.md §6,
//! S15):
//!
//! - [`generate_fact_corpus`] — entity-profile fact-sentence documents (Wikidata-style
//!   triple flattening) for resolution-at-scale tests;
//! - [`generate_corpus`] — document generation over world events;
//! - `templates` — per-event-kind sentence templates with synonym pools
//!   (the controlled vocabulary-mismatch knob);
//! - [`Split`] — the paper's 80/10/10 train/validation/test split;
//! - [`select_query`] — query-sentence selection (largest-entity-density and
//!   random, §VII-B).

#![forbid(unsafe_code)]

pub(crate) mod fact;
pub(crate) mod gen;
pub(crate) mod query;
pub(crate) mod split;
pub(crate) mod templates;

pub use fact::{generate_fact_corpus, FactCorpus, FactCorpusConfig, FactDoc};
pub use gen::{generate_corpus, Corpus, CorpusConfig, CorpusFlavor, NewsDoc};
pub use query::{select_query, QueryStrategy};
pub use split::Split;
