//! The NE component: subgraph embeddings from knowledge graphs (§V).
//!
//! - `model` — Common Ancestor Graphs and the compactness order
//!   (Definitions 3–5);
//! - `algo` — the one NE search (Algorithms 1–3) behind both models:
//!   per-label Dijkstra frontiers that keep all tight predecessors or one,
//!   path enumeration, candidate collection, and a root rule per model;
//!   `G*` ([`find_lcag`]) uses the compactness rule;
//! - `tree` — the TreeEmb baseline ([`find_tree_embedding`], a
//!   Group-Steiner-Tree star approximation) the paper compares against in
//!   Table VII: the same search with one predecessor and the
//!   distance-sum rule;
//! - `cache` — the model enum ([`CachedModel`]) and the
//!   [`EmbeddingCache`] group memo that amortizes traversal across
//!   recurring entity groups without changing any result (a miss runs the
//!   same search and stores it);
//! - `union` — document embeddings as unions of per-segment `G*`;
//! - `bon` — the Bag-Of-Node representation feeding the NS component;
//! - `explain` — relationship-path extraction from embedding overlap, the
//!   intuitive-search feature of the paper's case study;
//! - [`codec`] — the on-disk encoding of document embeddings.

#![forbid(unsafe_code)]

mod algo;
mod bon;
mod cache;
pub mod codec;
mod dot;
mod explain;
mod model;
#[cfg(test)]
mod ne_oracle;
mod summarize;
mod tree;
mod union;

pub use algo::{find_lcag, EmbedError, SearchConfig};
pub use bon::{bon_term_counts, bon_terms, parse_node_term};
pub use cache::{CachedModel, EmbeddingCache};
pub use dot::overlap_to_dot;
pub use explain::{relationship_paths, RelationshipPath};
pub use model::{compactness_cmp, CommonAncestorGraph, EmbedEdge};
pub use summarize::{describe_path, summarize_paths};
pub use tree::find_tree_embedding;
pub use union::DocEmbedding;
