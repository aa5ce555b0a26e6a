//! The request-based search API.
//!
//! [`SearchRequest`] describes one query declaratively — the text, how
//! many hits, an optional per-request β override, whether to attach
//! relationship-path explanations, and whether this request may use the
//! engine's caches. [`crate::NewsLink::execute`] turns it into a
//! [`SearchResponse`] carrying the ranked hits plus the query embedding,
//! timers, cache observability and explanations.
//!
//! With the `serde` feature enabled these types double as the wire
//! format of the `newslink-serve` HTTP layer: [`SearchRequest`] and
//! [`ExplainOptions`] round-trip through JSON, and the response types
//! serialize (responses carry a [`ComponentTimer`], whose `&'static str`
//! component keys make deserialization meaningless — clients read
//! response JSON generically).

use newslink_embed::{DocEmbedding, RelationshipPath};
use newslink_text::DocId;
use newslink_util::ComponentTimer;

use crate::searcher::SearchResult;

/// Explanation knobs for a request (paths per result, hops per path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ExplainOptions {
    /// Maximum relationship-path length in edges.
    pub max_len: usize,
    /// Maximum number of paths per explained result.
    pub max_paths: usize,
}

impl Default for ExplainOptions {
    fn default() -> Self {
        Self {
            max_len: 4,
            max_paths: 10,
        }
    }
}

/// One declarative search request.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SearchRequest {
    /// The query text.
    pub query: String,
    /// Number of results to return.
    pub k: usize,
    /// Per-request β override (engine default when `None`); clamped to
    /// `[0, 1]` by the builder.
    pub beta: Option<f64>,
    /// Attach relationship-path explanations to every result.
    pub explain: Option<ExplainOptions>,
    /// Allow this request to read and populate the engine's caches.
    pub use_cache: bool,
    /// Per-request deadline budget in milliseconds, measured from
    /// [`crate::NewsLink::execute`] entry. The budget is checked between
    /// pipeline stages (after NLP + NE, and before explanations): on
    /// expiry the response comes back with
    /// [`timed_out`](SearchResponse::timed_out) set and whatever stages
    /// completed — a partial timer report rather than an answer.
    /// `None` = no deadline.
    pub timeout_ms: Option<u64>,
}

impl SearchRequest {
    /// A request for `query` with the defaults: `k = 10`, engine β,
    /// no explanations, caching on, no deadline.
    pub fn new(query: impl Into<String>) -> Self {
        Self {
            query: query.into(),
            k: 10,
            beta: None,
            explain: None,
            use_cache: true,
            timeout_ms: None,
        }
    }

    /// Set the number of results.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Override β for this request only (clamped to `[0, 1]`).
    #[cfg(test)]
    pub(crate) fn with_beta(mut self, beta: f64) -> Self {
        self.beta = Some(beta.clamp(0.0, 1.0));
        self
    }

    /// Attach explanations with the given options.
    pub(crate) fn with_explanations(mut self, options: ExplainOptions) -> Self {
        self.explain = Some(options);
        self
    }

    /// Attach explanations with default options.
    pub fn explained(self) -> Self {
        self.with_explanations(ExplainOptions::default())
    }

    /// Bypass the engine's caches for this request.
    pub fn without_cache(mut self) -> Self {
        self.use_cache = false;
        self
    }

    /// Give this request a deadline budget (rounded down to whole
    /// milliseconds).
    #[cfg(test)]
    pub(crate) fn with_timeout(mut self, budget: std::time::Duration) -> Self {
        self.timeout_ms = Some(u64::try_from(budget.as_millis()).unwrap_or(u64::MAX));
        self
    }
}

/// How the engine's caches served one request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct QueryCacheInfo {
    /// Caching was on for this request (engine caches exist and the
    /// request allowed them).
    pub enabled: bool,
    /// The whole-query memo answered, skipping NLP and NE entirely.
    pub query_hit: bool,
}

/// Relationship-path evidence for one ranked result.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Explanation {
    /// The explained document.
    pub doc: DocId,
    /// Paths linking query entities to the document's entities.
    pub paths: Vec<RelationshipPath>,
}

/// Everything produced by executing one [`SearchRequest`].
#[derive(Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct SearchResponse {
    /// Ranked results, best first.
    pub results: Vec<SearchResult>,
    /// The query's subgraph embedding.
    pub embedding: DocEmbedding,
    /// Per-component latency ("nlp", "ne", "ns").
    pub timer: ComponentTimer,
    /// Cache participation of this request.
    pub cache: QueryCacheInfo,
    /// Per-result explanations, aligned with `results`; empty unless the
    /// request asked for them.
    pub explanations: Vec<Explanation>,
    /// The request's deadline expired mid-pipeline: `results` /
    /// `explanations` cover only the stages that finished, and `timer`
    /// is a partial report of the work actually done.
    pub timed_out: bool,
    /// Pruned-evaluator work counters for the scoring stage (all zero
    /// when the request ran on the exhaustive oracle path).
    pub prune: newslink_text::PruneStats,
    /// Always `{"workers": 0}`: the NS scan is sequential.
    pub parallel: ParallelShell,
}

/// The serialized `parallel` object of a [`SearchResponse`]. It carries
/// no information and stays only because the benchmark reads
/// `parallel.workers` (perf/README.md § "Signatures the benchmark pins").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct ParallelShell {
    /// Always 0.
    pub(crate) workers: u64,
}

/// The outcome of executing a batch of requests.
#[derive(Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct BatchResponse {
    /// One response per request, in input order.
    pub responses: Vec<SearchResponse>,
    /// Per-query component timers aggregated across the batch, plus a
    /// `"batch"` entry recording the wall-clock of the whole call (which
    /// is less than the component sum when queries ran in parallel).
    pub timer: ComponentTimer,
}

impl BatchResponse {
    /// Requests whose deadline expired mid-pipeline.
    #[cfg(test)]
    pub(crate) fn timed_out(&self) -> usize {
        self.responses.iter().filter(|r| r.timed_out).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builder_defaults_and_overrides() {
        let r = SearchRequest::new("taliban in kunar");
        assert_eq!(r.k, 10);
        assert_eq!(r.beta, None);
        assert!(r.use_cache);
        assert!(r.explain.is_none());

        let r = SearchRequest::new("q")
            .with_k(3)
            .with_beta(2.0)
            .explained()
            .without_cache()
            .with_timeout(std::time::Duration::from_millis(250));
        assert_eq!(r.k, 3);
        assert_eq!(r.beta, Some(1.0), "β must clamp");
        assert!(!r.use_cache);
        assert_eq!(r.explain.unwrap().max_len, 4);
        assert_eq!(r.timeout_ms, Some(250));
    }

    #[cfg(feature = "serde")]
    #[test]
    fn request_round_trips_through_json() {
        let r = SearchRequest::new("taliban in kunar")
            .with_k(3)
            .with_beta(0.5)
            .explained()
            .with_timeout(std::time::Duration::from_millis(250));
        let json = serde_json::to_string(&r).unwrap();
        let back: SearchRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        // Unset options serialize as null and come back as None.
        let plain = SearchRequest::new("q");
        let back: SearchRequest =
            serde_json::from_str(&serde_json::to_string(&plain).unwrap()).unwrap();
        assert_eq!(back, plain);
    }

    #[cfg(feature = "serde")]
    #[test]
    fn request_json_uses_field_names() {
        let json = serde_json::to_string(&SearchRequest::new("x").with_k(2)).unwrap();
        for key in ["query", "k", "beta", "explain", "use_cache", "timeout_ms"] {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key} in {json}");
        }
    }
}
