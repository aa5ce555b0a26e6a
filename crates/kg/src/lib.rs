//! Knowledge-graph substrate for NewsLink.
//!
//! The paper (§V) models the KG as a connected, labeled, weighted graph
//! `K(V, R)` made bi-directed by adding a reversed edge per relationship.
//! This crate provides:
//!
//! - [`graph::KnowledgeGraph`] — the frozen CSR property graph, built with
//!   [`builder::GraphBuilder`];
//! - [`label_index::LabelIndex`] — entity label → node resolution, the
//!   paper's `S(l)`, a hash index built from the loaded graph;
//! - [`synth`] — a deterministic Wikidata-like world generator (the offline
//!   stand-in for the paper's Wikidata dump; see DESIGN.md §6.1);
//! - [`triples`] — plain-text persistence, the graph's one text format
//!   (TSV node and edge lines);
//! - [`describe`] — derived entity descriptions (consumed by the QEPRF
//!   baseline);
//! - [`stats`] — descriptive statistics for reports.

#![forbid(unsafe_code)]

pub mod builder;
pub mod describe;
pub mod graph;
pub mod interner;
pub mod label_index;
pub mod reweight;
pub mod stats;
pub mod synth;
pub mod triples;

pub use builder::GraphBuilder;
pub use graph::{EntityType, KnowledgeGraph, NodeId};
pub use interner::Symbol;
pub use label_index::{normalize_label, LabelIndex};
pub use reweight::reweight_by_predicate_rarity;
pub use stats::GraphStats;
pub use synth::{EventInfo, EventKind, SynthConfig, SynthWorld};
