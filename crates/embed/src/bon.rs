//! The Bag-Of-Node (BON) model (§VI).
//!
//! A document embedding is flattened to "node terms" — one occurrence per
//! group containing the node — and fed to the same inverted-index machinery
//! as words. This is the paper's *scoring compatibility*: TF-IDF/BM25
//! weighting and top-k retrieval apply unchanged with words replaced by KG
//! nodes.

use newslink_kg::NodeId;

use crate::union::DocEmbedding;

/// The index term used for a KG node in the BON index.
///
/// BON terms live in their own index, so plain decimal ids are
/// collision-free; the `n` prefix only aids debugging.
pub(crate) fn node_term(node: NodeId) -> String {
    format!("n{}", node.0)
}

/// Parse a BON index term (`n<node id>`) back to its node.
pub fn parse_node_term(term: &str) -> Option<NodeId> {
    term.strip_prefix('n')?.parse().ok().map(NodeId)
}

/// Flatten a document embedding into BON terms: each node contributes one
/// occurrence per group containing it, so overlap across groups raises
/// term frequency exactly as Figure 4's orange nodes suggest.
pub fn bon_terms(embedding: &DocEmbedding) -> Vec<String> {
    let mut out = Vec::new();
    for (term, count) in bon_term_counts(embedding) {
        for _ in 0..count {
            out.push(term.clone());
        }
    }
    out
}

/// Pre-aggregated `(node-term, group-count)` pairs in ascending node-id
/// order — the same sequence [`bon_terms`] flattens, so feeding these to
/// `IndexBuilder::add_document_counts` builds an index identical to the
/// flattened-stream path (segment builds index straight from counts
/// without materialising repeated term strings).
pub fn bon_term_counts(embedding: &DocEmbedding) -> Vec<(String, u32)> {
    let mut counts: Vec<(NodeId, u32)> = embedding.node_counts().into_iter().collect();
    counts.sort_unstable_by_key(|(n, _)| *n);
    counts
        .into_iter()
        .map(|(node, count)| (node_term(node), count))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CommonAncestorGraph;

    fn group(nodes: &[u32]) -> CommonAncestorGraph {
        CommonAncestorGraph {
            root: NodeId(nodes[0]),
            labels: vec!["l".into()],
            distances: vec![0],
            nodes: nodes.iter().map(|&n| NodeId(n)).collect(),
            edges: vec![],
            sources: vec![],
        }
    }

    #[test]
    fn node_term_round_trips() {
        assert_eq!(node_term(NodeId(42)), "n42");
        assert_eq!(parse_node_term("n42"), Some(NodeId(42)));
        assert_eq!(parse_node_term("x42"), None);
        assert_eq!(parse_node_term("n"), None);
    }

    #[test]
    fn term_frequency_equals_group_count() {
        let e = DocEmbedding::new(vec![group(&[0, 1]), group(&[0, 2])]);
        let terms = bon_terms(&e);
        assert_eq!(terms.iter().filter(|t| *t == "n0").count(), 2);
        assert_eq!(terms.iter().filter(|t| *t == "n1").count(), 1);
        assert_eq!(terms.iter().filter(|t| *t == "n2").count(), 1);
        assert_eq!(terms.len(), 4);
    }

    #[test]
    fn empty_embedding_has_no_terms() {
        assert!(bon_terms(&DocEmbedding::default()).is_empty());
        assert!(bon_term_counts(&DocEmbedding::default()).is_empty());
    }

    #[test]
    fn counts_aggregate_the_flattened_stream() {
        let e = DocEmbedding::new(vec![group(&[0, 1]), group(&[0, 2])]);
        let counts = bon_term_counts(&e);
        assert_eq!(
            counts,
            vec![("n0".to_string(), 2), ("n1".to_string(), 1), ("n2".to_string(), 1)]
        );
        // Flattening the counts reproduces bon_terms exactly.
        let mut flat = Vec::new();
        for (t, c) in &counts {
            for _ in 0..*c {
                flat.push(t.clone());
            }
        }
        assert_eq!(flat, bon_terms(&e));
    }

    #[test]
    fn terms_deterministically_ordered() {
        let e = DocEmbedding::new(vec![group(&[3, 1, 2])]);
        assert_eq!(bon_terms(&e), vec!["n1", "n2", "n3"]);
    }
}
