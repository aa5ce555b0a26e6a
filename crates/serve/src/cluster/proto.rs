//! Wire types for the router ↔ shard internal protocol.
//!
//! Three phases, all `POST` with JSON bodies, all designed so the
//! router's merged answer is **bit-identical** to a single process
//! searching the union of the shards:
//!
//! 1. `/internal/stats` — per-shard live collection statistics and
//!    document frequencies for the query's terms. Integer sums, so the
//!    router's totals equal the monolithic values in any reply order.
//! 2. `/internal/top1` — each shard's maximum raw score per side under
//!    the summed overlay. `max` over a set is feed-order independent, so
//!    folding the shard maxima equals the in-process global top-1.
//! 3. `/internal/search` — the pruned blended top-k under the full
//!    overlay (stats + df + normalization divisors), plus optional
//!    explanations.
//!
//! **One phase in the steady state, three on a miss.** Phases 1–2
//! depend only on the query text, β and the shards' live documents. Every
//! reply carries the answering index's **generation** — an opaque stamp
//! that changes on every insert, delete or WAL replay and is never
//! carried by two index states, not even across restarts (see
//! `NewsLinkIndex::generation`). The router caches the overlay phases
//! 1–2 produced, keyed by (query text, β bits), together with each
//! group's generation, but only when every group answered both phases at
//! one unchanged generation. A repeat search sends phase 3 alone,
//! carrying each group's expected generation; the shard compares it
//! under the same read lock it scores under and, on a mismatch, answers
//! `{"stale": true}` instead of ranking. A stale reply from any group
//! discards every group's part and reruns all three phases, which
//! refills the entry.
//!
//! Exactness: a part is used only if its shard's generation equals the
//! one stamped when the overlay was computed, so that shard's live
//! documents — and hence its statistics, document frequencies and
//! side maxima — are exactly those the overlay summed. Since every group
//! must pass the check for any part to be used, the overlay a hit ranks
//! under is the one a fresh three-phase run would compute at that
//! moment; a stale overlay never ranks anything.
//!
//! Floats never cross the wire as decimal text: a score is shipped as
//! its IEEE-754 bit pattern (`f64::to_bits`, carried in an `i64` — the
//! vendored JSON number model round-trips `i64` exactly), so the router
//! reassembles the *same* doubles the shard computed, not a close
//! decimal cousin.

use newslink_core::{Explanation, ExplainOptions, PruneStats};
use serde::{Deserialize, Serialize, Value};

/// Encode a double for the wire: its bit pattern, as `i64`.
pub fn f64_bits(x: f64) -> i64 {
    x.to_bits() as i64
}

/// Decode a wire double: the exact `f64` whose bits were shipped.
pub fn f64_from_bits(bits: i64) -> f64 {
    f64::from_bits(bits as u64)
}

/// Phase 1 request: the analyzed query, one term list per side, in the
/// canonical analysis order (the order fixes the shard's float
/// accumulation order, so it must survive the trip verbatim).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatsRequest {
    /// Word terms (the BOW side's query).
    pub bow_terms: Vec<String>,
    /// Node terms (the BON side's query).
    pub bon_terms: Vec<String>,
}

/// One side's shard-local statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SideStatsWire {
    /// Live documents on this shard.
    pub docs: u64,
    /// Total live token length on this shard.
    pub total_len: u64,
    /// Live document frequency per query term, aligned with the
    /// request's term list (0 for absent terms).
    pub df: Vec<u32>,
}

/// Phase 1 response: both sides' shard-local statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatsResponse {
    /// The BOW side.
    pub bow: SideStatsWire,
    /// The BON side.
    pub bon: SideStatsWire,
    /// The generation of the index the statistics were read from.
    pub generation: u64,
}

/// One side's cluster-wide overlay, as the router computed it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverlayWire {
    /// Query terms in canonical analysis order.
    pub terms: Vec<String>,
    /// Cluster-wide live document count.
    pub docs: u64,
    /// Cluster-wide total live token length.
    pub total_len: u64,
    /// Cluster-wide live document frequency per term, aligned with
    /// `terms`.
    pub df: Vec<u32>,
    /// Normalization divisor (bit pattern; 1.0 when normalization is
    /// off or the side's global maximum was not positive).
    pub norm_bits: i64,
}

/// Phase 2 request: find each side's shard-local maximum raw score
/// under the summed overlay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Top1Request {
    /// The blend weight (bit pattern) — it gates which sides are active.
    pub beta_bits: i64,
    /// The BOW overlay (its `norm_bits` is ignored here).
    pub bow: OverlayWire,
    /// The BON overlay (its `norm_bits` is ignored here).
    pub bon: OverlayWire,
}

/// Phase 2 response: the shard's per-side maxima (0.0 bits when the
/// side is inactive or nothing matched) plus the pruning work done.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Top1Response {
    /// Max raw BOW score on this shard (bit pattern).
    pub bow_max_bits: i64,
    /// Max raw BON score on this shard (bit pattern).
    pub bon_max_bits: i64,
    /// Pruned-evaluator work counters for the top-1 passes.
    pub prune: PruneStats,
    /// The generation of the index the maxima were computed on.
    pub generation: u64,
}

/// Phase 3 request: the shard-side half of the scatter-gather search.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardSearchRequest {
    /// The raw query text (re-analyzed shard-side only when
    /// explanations are requested — scoring runs off the overlays).
    pub query: String,
    /// Results to return from this shard.
    pub k: usize,
    /// The blend weight (bit pattern).
    pub beta_bits: i64,
    /// Cross-shard pruning floor (bit pattern; `-inf` when unknown).
    pub floor_bits: i64,
    /// Remaining deadline budget in milliseconds, anchored at the
    /// shard's own request arrival. `None` = no deadline.
    pub budget_ms: Option<u64>,
    /// Attach relationship-path explanations to every hit.
    pub explain: Option<ExplainOptions>,
    /// The BOW overlay, normalization divisor included.
    pub bow: OverlayWire,
    /// The BON overlay, normalization divisor included.
    pub bon: OverlayWire,
    /// The generation the overlay was computed against, when it came
    /// from the router's cache: the shard answers [`ShardSearchReply::Stale`]
    /// instead of ranking if its index has moved on. `None` = the
    /// overlay is fresh from phases 1–2; rank unconditionally.
    pub generation: Option<u64>,
}

/// One ranked hit, scores as bit patterns.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HitWire {
    /// Global document id.
    pub doc: u32,
    /// Blended score bits.
    pub score_bits: i64,
    /// BOW component bits.
    pub bow_bits: i64,
    /// BON component bits.
    pub bon_bits: i64,
}

/// Phase 3 response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardSearchResponse {
    /// This shard's top-k, best first.
    pub hits: Vec<HitWire>,
    /// Explanations aligned with `hits` (empty unless requested, or
    /// when the deadline expired before they ran).
    pub explanations: Vec<Explanation>,
    /// Pruned-evaluator work counters for the scan.
    pub prune: PruneStats,
    /// The shard's deadline expired mid-pipeline.
    pub timed_out: bool,
    /// The generation of the index that ranked.
    pub generation: u64,
}

/// What a shard answers to phase 3: a ranking, or `{"stale": true}`
/// when the request's expected generation is not the index's current
/// one. Both are `200`s — a stale reply is an answer, not a failure, so
/// it never touches breakers, failover, the retry budget or hedging.
#[derive(Debug)]
pub enum ShardSearchReply {
    /// The shard ranked under the request's overlay.
    Ranked(ShardSearchResponse),
    /// The cached overlay no longer describes this shard.
    Stale,
}

impl ShardSearchReply {
    /// The body of a stale reply.
    pub const STALE_BODY: &'static str = r#"{"stale":true}"#;
}

impl Deserialize for ShardSearchReply {
    fn deserialize_value(v: &Value) -> Result<Self, serde::Error> {
        if v.get("stale") == Some(&Value::Bool(true)) {
            return Ok(Self::Stale);
        }
        ShardSearchResponse::deserialize_value(v).map(Self::Ranked)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn f64_bits_round_trip_exactly() {
        for x in [
            0.0,
            -0.0,
            1.0,
            std::f64::consts::PI,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::MIN_POSITIVE,
            1.000000000000001,
        ] {
            let back = f64_from_bits(f64_bits(x));
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn wire_structs_round_trip_through_json() {
        let req = ShardSearchRequest {
            query: "taliban in kunar".into(),
            k: 7,
            beta_bits: f64_bits(0.3),
            floor_bits: f64_bits(f64::NEG_INFINITY),
            budget_ms: Some(250),
            explain: Some(ExplainOptions::default()),
            bow: OverlayWire {
                terms: vec!["taliban".into(), "kunar".into()],
                docs: 12,
                total_len: 345,
                df: vec![3, 0],
                norm_bits: f64_bits(2.5),
            },
            bon: OverlayWire {
                terms: vec!["n7".into()],
                docs: 12,
                total_len: 40,
                df: vec![2],
                norm_bits: f64_bits(1.0),
            },
            generation: Some(1 << 61),
        };
        let text = serde_json::to_string(&req).unwrap();
        let back: ShardSearchRequest = serde_json::from_str(&text).unwrap();
        assert_eq!(back.query, req.query);
        assert_eq!(back.k, req.k);
        assert_eq!(back.beta_bits, req.beta_bits);
        assert_eq!(f64_from_bits(back.floor_bits), f64::NEG_INFINITY);
        assert_eq!(back.budget_ms, Some(250));
        assert_eq!(back.explain, req.explain);
        assert_eq!(back.bow.terms, req.bow.terms);
        assert_eq!(back.bow.df, req.bow.df);
        assert_eq!(back.bon.norm_bits, f64_bits(1.0));
        assert_eq!(back.generation, Some(1 << 61));

        let resp = ShardSearchResponse {
            hits: vec![HitWire {
                doc: 4,
                score_bits: f64_bits(0.75),
                bow_bits: f64_bits(0.5),
                bon_bits: f64_bits(1.0),
            }],
            explanations: Vec::new(),
            prune: PruneStats {
                candidates: 9,
                scored: 4,
                blocks_skipped: 2,
            },
            timed_out: false,
            generation: 7,
        };
        let text = serde_json::to_string(&resp).unwrap();
        let Ok(ShardSearchReply::Ranked(back)) = serde_json::from_str(&text) else {
            panic!("a ranked reply parses as ranked: {text}");
        };
        assert_eq!(back.hits.len(), 1);
        assert_eq!(f64_from_bits(back.hits[0].score_bits), 0.75);
        assert_eq!(back.prune, resp.prune);
        assert!(!back.timed_out);
        assert_eq!(back.generation, 7);
    }

    #[test]
    fn stale_reply_parses_as_stale() {
        let reply: ShardSearchReply = serde_json::from_str(ShardSearchReply::STALE_BODY).unwrap();
        assert!(matches!(reply, ShardSearchReply::Stale));
        assert!(serde_json::from_str::<ShardSearchReply>(r#"{"stale":false}"#).is_err());
    }
}
