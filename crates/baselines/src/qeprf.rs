//! QEPRF: query expansion with KG entity descriptions plus pseudo-
//! relevance feedback (Xiong & Callan, ICTIR'15 — the paper's KG-powered
//! query-expansion competitor).
//!
//! Unsupervised version, as evaluated in the paper: (1) link query
//! entities to KG nodes and expand with terms from their descriptions;
//! (2) run a first-pass BM25 retrieval and expand with the most
//! discriminative terms of the top-ranked documents; (3) re-run BM25 with
//! the expanded query, original terms weighted higher.

use newslink_kg::{describe, KnowledgeGraph, LabelIndex};
use newslink_nlp::{analyze, stem, stopwords::is_stopword, tokenize, Recognizer};
use newslink_text::{Bm25, Hit, InvertedIndex, Searcher};
use newslink_util::FxHashMap;

/// Expansion knobs.
#[derive(Debug, Clone)]
pub struct QeprfConfig {
    /// Feedback depth: top documents of the first pass.
    pub(crate) prf_docs: usize,
    /// Expansion terms taken from feedback documents.
    pub(crate) prf_terms: usize,
    /// Expansion terms taken from each linked entity's description.
    pub(crate) desc_terms: usize,
    /// Repetition factor of original query terms in the final query.
    pub(crate) original_weight: usize,
}

impl Default for QeprfConfig {
    fn default() -> Self {
        Self {
            prf_docs: 10,
            prf_terms: 15,
            desc_terms: 10,
            original_weight: 3,
        }
    }
}

/// The QEPRF searcher.
pub struct Qeprf<'a> {
    graph: &'a KnowledgeGraph,
    label_index: &'a LabelIndex,
    index: &'a InvertedIndex,
    doc_terms: &'a [Vec<String>],
    config: QeprfConfig,
}

impl<'a> Qeprf<'a> {
    /// Create a searcher over a prebuilt BM25 index and the per-document
    /// term streams it was built from.
    pub fn new(
        graph: &'a KnowledgeGraph,
        label_index: &'a LabelIndex,
        index: &'a InvertedIndex,
        doc_terms: &'a [Vec<String>],
        config: QeprfConfig,
    ) -> Self {
        debug_assert_eq!(index.doc_count(), doc_terms.len());
        Self {
            graph,
            label_index,
            index,
            doc_terms,
            config,
        }
    }

    /// Terms from the descriptions of KG entities linked in the query.
    fn entity_expansion(&self, query_text: &str) -> Vec<String> {
        let recognizer = Recognizer::new(self.graph, self.label_index);
        let tokens = tokenize(query_text);
        let mentions = recognizer.recognize(query_text, &tokens);
        let mut out = Vec::new();
        for m in mentions.iter().filter(|m| m.matched) {
            for &node in self.label_index.exact(&m.norm) {
                let terms = describe::description_terms(self.graph, node);
                out.extend(
                    terms
                        .into_iter()
                        .filter(|t| !is_stopword(t))
                        .map(|t| stem(&t))
                        .take(self.config.desc_terms),
                );
            }
        }
        out
    }

    /// PRF expansion: the most discriminative terms of the feedback docs,
    /// scored by `tf_feedback · idf`.
    fn prf_expansion(&self, first_pass: &[Hit]) -> Vec<String> {
        let mut tf: FxHashMap<&str, u32> = FxHashMap::default();
        for hit in first_pass.iter().take(self.config.prf_docs) {
            for t in &self.doc_terms[hit.doc.index()] {
                *tf.entry(t.as_str()).or_default() += 1;
            }
        }
        let n = self.index.doc_count() as f64;
        let dict = self.index.dictionary();
        let mut scored: Vec<(f64, &str)> = tf
            .into_iter()
            .map(|(t, f)| {
                let df = dict.get(t).map(|id| dict.doc_freq(id)).unwrap_or(0) as f64;
                let idf = ((n + 1.0) / (df + 1.0)).ln();
                (f64::from(f) * idf, t)
            })
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(b.1)));
        scored
            .into_iter()
            .take(self.config.prf_terms)
            .map(|(_, t)| t.to_string())
            .collect()
    }

    /// Run the expanded search.
    pub fn search(&self, query_text: &str, k: usize) -> Vec<Hit> {
        let original = analyze(query_text);
        if original.is_empty() {
            return Vec::new();
        }
        let searcher = Searcher::new(self.index, Bm25::default());

        // First pass: original + entity-description terms.
        let desc = self.entity_expansion(query_text);
        let mut first_query = original.clone();
        first_query.extend(desc.iter().cloned());
        let first_pass = searcher.search(&first_query, self.config.prf_docs.max(k));

        // Second pass: weighted original + description + PRF terms.
        let prf = self.prf_expansion(&first_pass);
        let mut final_query = Vec::with_capacity(
            original.len() * self.config.original_weight + desc.len() + prf.len(),
        );
        for _ in 0..self.config.original_weight.max(1) {
            final_query.extend(original.iter().cloned());
        }
        final_query.extend(desc);
        final_query.extend(prf);
        searcher.search(&final_query, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use newslink_kg::{EntityType, GraphBuilder};
    use newslink_text::IndexBuilder;

    struct Fixture {
        graph: KnowledgeGraph,
        label_index: LabelIndex,
        index: InvertedIndex,
        doc_terms: Vec<Vec<String>>,
    }

    fn fixture() -> Fixture {
        let mut b = GraphBuilder::new();
        let khyber = b.add_node("Khyber", EntityType::Gpe);
        let pakistan = b.add_node("Pakistan", EntityType::Gpe);
        let taliban = b.add_node("Taliban", EntityType::Organization);
        b.add_edge(khyber, pakistan, "located in", 1);
        b.add_edge(taliban, khyber, "operates in", 1);
        let graph = b.freeze();
        let label_index = LabelIndex::build(&graph);
        let docs = [
            "Taliban fighters moved through Khyber toward Pakistan.",
            "Bombing in Khyber region shocked residents.",
            "Pakistan officials met about security concerns.",
            "The cricket tournament concluded with celebrations.",
        ];
        let doc_terms: Vec<Vec<String>> = docs.iter().map(|d| analyze(d)).collect();
        let mut ib = IndexBuilder::new();
        for t in &doc_terms {
            ib.add_document(t);
        }
        Fixture {
            graph,
            label_index,
            index: ib.build(),
            doc_terms,
        }
    }

    #[test]
    fn entity_descriptions_expand_the_query() {
        let f = fixture();
        let q = Qeprf::new(
            &f.graph,
            &f.label_index,
            &f.index,
            &f.doc_terms,
            QeprfConfig::default(),
        );
        let terms = q.entity_expansion("Attack by Taliban today");
        // Taliban's description mentions Khyber ("operates in Khyber").
        assert!(terms.iter().any(|t| t == "khyber"), "{terms:?}");
    }

    #[test]
    fn expansion_retrieves_vocabulary_mismatched_docs() {
        let f = fixture();
        let q = Qeprf::new(
            &f.graph,
            &f.label_index,
            &f.index,
            &f.doc_terms,
            QeprfConfig::default(),
        );
        // Query says only "Taliban"; doc 1 (Khyber bombing) shares no
        // query words but arrives via the description expansion.
        let hits = q.search("Taliban", 4);
        let ids: Vec<u32> = hits.iter().map(|h| h.doc.0).collect();
        assert!(ids.contains(&0));
        assert!(ids.contains(&1), "expansion should reach doc 1: {ids:?}");
        assert!(!ids.contains(&3), "sports doc must not match");
    }

    #[test]
    fn original_terms_keep_top_rank() {
        let f = fixture();
        let q = Qeprf::new(
            &f.graph,
            &f.label_index,
            &f.index,
            &f.doc_terms,
            QeprfConfig::default(),
        );
        let hits = q.search("Taliban fighters Khyber Pakistan", 4);
        assert_eq!(hits[0].doc.0, 0, "directly matching doc stays first");
    }

    #[test]
    fn empty_query_returns_nothing() {
        let f = fixture();
        let q = Qeprf::new(
            &f.graph,
            &f.label_index,
            &f.index,
            &f.doc_terms,
            QeprfConfig::default(),
        );
        assert!(q.search("", 5).is_empty());
        assert!(q.search("the of and", 5).is_empty());
    }

    #[test]
    fn prf_pulls_terms_from_top_docs() {
        let f = fixture();
        let q = Qeprf::new(
            &f.graph,
            &f.label_index,
            &f.index,
            &f.doc_terms,
            QeprfConfig::default(),
        );
        let searcher = Searcher::new(&f.index, Bm25::default());
        let first = searcher.search(&["taliban"], 2);
        let prf = q.prf_expansion(&first);
        assert!(!prf.is_empty());
        assert!(prf.iter().all(|t| !t.is_empty()));
    }
}
