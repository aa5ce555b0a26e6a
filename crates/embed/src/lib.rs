//! The NE component: subgraph embeddings from knowledge graphs (§V).
//!
//! - [`model`] — Common Ancestor Graphs and the compactness order
//!   (Definitions 3–5);
//! - [`algo`] — the `G*` search (Algorithms 1–3): per-label Dijkstra
//!   frontiers, path enumeration, candidate collection, compactness
//!   sorting;
//! - [`tree`] — the TreeEmb baseline (Group-Steiner-Tree approximation) the
//!   paper compares against in Table VII;
//! - [`cache`] — the [`cache::EmbeddingCache`] group memo that amortizes
//!   traversal across recurring entity groups without changing any
//!   result (a miss runs the same [`algo`] search and stores it);
//! - [`union`] — document embeddings as unions of per-segment `G*`;
//! - [`bon`] — the Bag-Of-Node representation feeding the NS component;
//! - [`explain`] — relationship-path extraction from embedding overlap, the
//!   intuitive-search feature of the paper's case study.

#![forbid(unsafe_code)]

pub mod algo;
pub mod bon;
pub mod cache;
pub mod codec;
pub mod dot;
pub mod explain;
pub mod model;
pub mod summarize;
pub mod tree;
pub mod union;

pub use algo::{find_lcag, EmbedError, SearchConfig};
pub use bon::{bon_term_counts, bon_terms, node_term, parse_node_term};
pub use cache::{CachedModel, EmbeddingCache};
pub use dot::overlap_to_dot;
pub use explain::{relationship_paths, RelationshipPath};
pub use model::{compactness_cmp, CommonAncestorGraph, EmbedEdge};
pub use summarize::{describe_path, path_informativeness, summarize_paths};
pub use tree::find_tree_embedding;
pub use union::DocEmbedding;
