//! The correctness gate: what the servers answer over TCP against what
//! `NewsLink::execute` returns in this process.

use std::collections::HashMap;
use std::net::SocketAddr;

use newslink_core::{
    DocId, ExplainOptions, NewsLink, NewsLinkIndex, SearchRequest, SearchResponse,
};
use serde::{Serialize, Value};

use crate::client::Conn;
use crate::deploy::Deployment;
use crate::fixture::Texts;
use crate::gen::{search_body, Plan, EXPLAIN_EVERY, K};

/// Attempted and failed checks or operations.
#[derive(Default, Clone, Copy, Debug)]
pub struct Checked {
    pub attempted: usize,
    pub failed: usize,
}

impl Checked {
    pub fn add(&mut self, other: Checked) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn note(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// How an answer is held against the oracle.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// The same documents in the same order, every field bit for bit.
    /// Holds between a server and `execute` on that server's own index.
    Exact,
    /// A valid top-k whose members may differ inside the group of equal
    /// scores that straddles the cut. A router in front of shards picks
    /// other members of that group than one index does (`TopK` evicts
    /// its *earliest* equal-scored entry when a better one arrives, so
    /// the survivors depend on how documents are partitioned); every
    /// field of every hit it does return must still be bit-identical.
    UpToTies,
}

fn bits(v: &Value) -> Option<u64> {
    v.as_f64().map(f64::to_bits)
}

fn hit_equals(got: &Value, want: &newslink_core::SearchResult) -> bool {
    got["doc"].as_i64() == Some(i64::from(want.doc.0))
        && bits(&got["score"]) == Some(want.score.to_bits())
        && bits(&got["bow"]) == Some(want.bow.to_bits())
        && bits(&got["bon"]) == Some(want.bon.to_bits())
}

/// [`Rule::Exact`]: `reply` equals `expected` hit for hit, and carries
/// the same explanation paths.
fn same_answer(reply: &Value, expected: &SearchResponse) -> bool {
    let Some(results) = reply["results"].as_array() else {
        return false;
    };
    results.len() == expected.results.len()
        && results
            .iter()
            .zip(&expected.results)
            .all(|(got, want)| hit_equals(got, want))
        && reply["explanations"].to_compact_string()
            == expected.explanations.serialize_value().to_compact_string()
}

/// [`Rule::UpToTies`]: `reply` against the oracle's *complete* ranking
/// `full` (asked with `k` = every document, so nothing was evicted).
fn valid_answer(
    reply: &Value,
    full: &SearchResponse,
    oracle: &NewsLink<'_>,
    index: &NewsLinkIndex,
    explain: Option<ExplainOptions>,
) -> bool {
    let Some(results) = reply["results"].as_array() else {
        return false;
    };
    let by_doc: HashMap<u32, &newslink_core::SearchResult> =
        full.results.iter().map(|r| (r.doc.0, r)).collect();
    let mut seen = std::collections::HashSet::new();
    let hits_ok = results.len() == full.results.len().min(K)
        && results.iter().zip(&full.results).all(|(got, canonical)| {
            // Rank by rank the canonical score; the document is any one
            // that has exactly this score, with its own BOW and BON.
            let doc = got["doc"].as_i64().and_then(|d| u32::try_from(d).ok());
            bits(&got["score"]) == Some(canonical.score.to_bits())
                && doc.is_some_and(|d| {
                    seen.insert(d) && by_doc.get(&d).is_some_and(|want| hit_equals(got, want))
                })
        });
    let explanations = reply["explanations"].as_array().unwrap_or(&[]);
    let explained_ok = match explain {
        None => explanations.is_empty(),
        Some(opts) => {
            explanations.len() == results.len()
                && explanations.iter().zip(results).all(|(e, hit)| {
                    let Some(doc) = hit["doc"].as_i64().and_then(|d| u32::try_from(d).ok()) else {
                        return false;
                    };
                    let want = oracle.explain(
                        index,
                        &full.embedding,
                        DocId(doc),
                        opts.max_len,
                        opts.max_paths,
                    );
                    e["doc"].as_i64() == Some(i64::from(doc))
                        && e["paths"].to_compact_string()
                            == want.serialize_value().to_compact_string()
                })
        }
    };
    hits_ok && explained_ok
}

/// The gate's verdict on one server.
#[derive(Default, Clone, Copy)]
pub struct Gate {
    pub checked: Checked,
    /// Answers accepted under [`Rule::UpToTies`] that [`Rule::Exact`]
    /// would have refused.
    pub tie_divergent: usize,
}

/// Send the seed's gate sentences, every fourth with an explanation, to
/// `addr` and hold each reply against `oracle` on `index`.
fn gate_server(
    addr: SocketAddr,
    oracle: &NewsLink<'_>,
    index: &NewsLinkIndex,
    plan: &Plan,
    texts: &Texts,
    rule: Rule,
) -> Gate {
    let mut conn = Conn::keep_alive(addr);
    let mut gate = Gate::default();
    for (i, &sentence) in plan.gate.iter().enumerate() {
        let query = &texts.sentences[sentence];
        let explain = ((i + 1) % EXPLAIN_EVERY == 0).then(ExplainOptions::default);
        let mut request = SearchRequest::new(query.as_str()).with_k(K);
        request.explain = explain;
        let reply = match conn.call(
            "POST",
            "/v1/search",
            &search_body(query, K, explain.is_some()),
        ) {
            Ok((200, body)) => serde_json::from_str::<Value>(&body).ok(),
            _ => None,
        };
        let exact = reply
            .as_ref()
            .is_some_and(|r| same_answer(r, &oracle.execute(index, &request)));
        let ok = exact
            || rule == Rule::UpToTies
                && reply.as_ref().is_some_and(|r| {
                    let everything =
                        SearchRequest::new(query.as_str()).with_k(index.doc_count().max(K));
                    valid_answer(
                        r,
                        &oracle.execute(index, &everything),
                        oracle,
                        index,
                        explain,
                    )
                });
        gate.checked.note(ok);
        if ok && !exact {
            gate.tie_divergent += 1;
        }
    }
    gate
}

/// Gate every server of the deployment: each document holder exactly
/// against `execute` on its own index and — when a router fronts them —
/// the router against `execute` on the whole corpus in one index.
pub fn gate(
    d: &Deployment<'_>,
    oracle: &NewsLink<'_>,
    whole: Option<&NewsLinkIndex>,
    plan: &Plan,
    texts: &Texts,
) -> Gate {
    let mut total = Gate::default();
    for (addr, index) in &d.holders {
        let g = gate_server(*addr, oracle, &index.read(), plan, texts, Rule::Exact);
        total.checked.add(g.checked);
    }
    if let Some(whole) = whole {
        let g = gate_server(d.front, oracle, whole, plan, texts, Rule::UpToTies);
        total.checked.add(g.checked);
        total.tie_divergent += g.tie_divergent;
    }
    total
}
