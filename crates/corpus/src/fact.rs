//! Entity-grounded fact-sentence documents.
//!
//! The event corpus ([`crate::gen`]) stresses retrieval; this module
//! stresses *resolution at scale*. Each document profiles one anchor
//! entity and renders a handful of its knowledge-graph edges as short
//! declarative fact sentences ("Khyber is located in Pakistan."), the way
//! Wikidata-derived datasets flatten triples into natural-language rows.
//! Every sentence is grounded: its proper names are KG labels, so a
//! gazetteer pass over a fact corpus should resolve essentially every
//! mention — which makes these documents the calibration corpus for
//! label resolution (the benchmark draws its queries from them).

use newslink_kg::synth::predicates;
use newslink_kg::{NodeId, SynthWorld};
use newslink_util::DetRng;

/// Fact-corpus knobs.
#[derive(Debug, Clone)]
pub struct FactCorpusConfig {
    /// Seed for anchor sampling and fact selection.
    pub(crate) seed: u64,
    /// Number of documents (one anchor entity each).
    pub(crate) documents: usize,
    /// Facts per document (inclusive range); clamped to the anchor's
    /// degree.
    pub(crate) facts_per_doc: (usize, usize),
}

impl FactCorpusConfig {
    /// Defaults: 3–8 facts per document.
    pub fn new(seed: u64, documents: usize) -> Self {
        Self {
            seed,
            documents,
            facts_per_doc: (3, 8),
        }
    }
}

/// One entity-profile document.
#[derive(Debug, Clone)]
pub struct FactDoc {
    /// Full text (headline `"Profile: <label>"` + fact sentences).
    pub text: String,
    /// The profiled entity (generation ground truth).
    #[cfg(test)]
    pub(crate) anchor: NodeId,
}

/// A generated fact corpus.
#[derive(Debug, Clone)]
pub struct FactCorpus {
    /// The documents.
    pub docs: Vec<FactDoc>,
}

/// Render one forward edge as a declarative sentence. The subject and
/// object are verbatim graph labels so every sentence resolves through the
/// label index.
fn fact_sentence(subj: &str, pred: &str, obj: &str) -> String {
    use predicates::*;
    match pred {
        LOCATED_IN => format!("{subj} is located in {obj}."),
        CAPITAL_OF => format!("{subj} is the capital of {obj}."),
        SHARES_BORDER => format!("{subj} shares a border with {obj}."),
        CITIZEN_OF => format!("{subj} is a citizen of {obj}."),
        MEMBER_OF => format!("{subj} is a member of {obj}."),
        LEADER_OF => format!("{subj} leads {obj}."),
        HEADQUARTERED_IN => format!("{subj} is headquartered in {obj}."),
        OPERATES_IN => format!("{subj} operates in {obj}."),
        PARTICIPANT_OF => format!("{subj} took part in {obj}."),
        CANDIDATE_IN => format!("{subj} stood as a candidate in {obj}."),
        SPOUSE_OF => format!("{subj} is married to {obj}."),
        PLAYS_FOR => format!("{subj} plays for {obj}."),
        CREATED_BY => format!("{subj} was created by {obj}."),
        OFFICIAL_LANGUAGE => format!("{subj} has {obj} as an official language."),
        ENACTED_BY => format!("{subj} was enacted by {obj}."),
        PART_OF => format!("{subj} is part of {obj}."),
        AFFECTED => format!("{subj} affected {obj}."),
        other => format!("{subj} is linked to {obj} ({other})."),
    }
}

/// Generate a fact corpus over `world`.
///
/// Anchors are sampled uniformly from nodes with at least one forward
/// edge; an anchor may recur (popular entities get several profiles, with
/// different fact subsets).
pub fn generate_fact_corpus(world: &SynthWorld, cfg: &FactCorpusConfig) -> FactCorpus {
    let g = &world.graph;
    let anchors: Vec<NodeId> = g
        .nodes()
        .filter(|&n| g.neighbors(n).iter().any(|e| !e.inverse))
        .collect();
    assert!(!anchors.is_empty(), "world has no forward edges");
    let root = DetRng::new(cfg.seed);
    let mut rng = root.fork(0xFAC7);
    let (lo, hi) = cfg.facts_per_doc;
    let mut docs = Vec::with_capacity(cfg.documents);
    for _ in 0..cfg.documents {
        let anchor = anchors[rng.below(anchors.len())];
        let subj = g.label(anchor);
        let mut edges: Vec<usize> = g
            .neighbors(anchor)
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.inverse)
            .map(|(i, _)| i)
            .collect();
        rng.shuffle(&mut edges);
        let want = rng.range(lo.max(1), hi.max(lo.max(1))).min(edges.len());
        let title = format!("Profile: {subj}");
        let mut body = Vec::with_capacity(want);
        for &i in edges.iter().take(want.max(1)) {
            let e = &g.neighbors(anchor)[i];
            body.push(fact_sentence(subj, g.resolve(e.predicate), g.label(e.to)));
        }
        let text = format!("{title}. {}", body.join(" "));
        docs.push(FactDoc {
            text,
            #[cfg(test)]
            anchor,
        });
    }
    FactCorpus { docs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use newslink_kg::{synth, LabelIndex, SynthConfig};
    use newslink_nlp::{tokenize, Recognizer};

    fn world() -> SynthWorld {
        synth::generate(&SynthConfig::small(5))
    }

    #[test]
    fn fact_corpus_is_deterministic() {
        let w = world();
        let cfg = FactCorpusConfig::new(3, 25);
        let a = generate_fact_corpus(&w, &cfg);
        let b = generate_fact_corpus(&w, &cfg);
        assert_eq!(a.docs.len(), 25);
        for (x, y) in a.docs.iter().zip(&b.docs) {
            assert_eq!(x.text, y.text);
            assert_eq!(x.anchor, y.anchor);
        }
    }

    #[test]
    fn every_doc_mentions_its_anchor() {
        let w = world();
        let c = generate_fact_corpus(&w, &FactCorpusConfig::new(7, 40));
        for d in &c.docs {
            let label = w.graph.label(d.anchor);
            assert!(d.text.contains(label), "{} missing from {}", label, d.text);
            assert!(d.text.starts_with(&format!("Profile: {label}.")));
        }
    }

    #[test]
    fn fact_sentences_are_entity_grounded() {
        // Every rendered label resolves through the index, a gazetteer pass
        // matches well over half the identified mentions (the rest are
        // non-searchable types and capitalized prose runs).
        let w = world();
        let c = generate_fact_corpus(&w, &FactCorpusConfig::new(9, 30));
        let idx = LabelIndex::build(&w.graph);
        for d in &c.docs {
            let norm = newslink_kg::normalize_label(w.graph.label(d.anchor));
            assert!(!idx.exact(&norm).is_empty(), "anchor label must resolve");
        }
        let mut identified = 0usize;
        let mut matched = 0usize;
        for d in &c.docs {
            let toks = tokenize(&d.text);
            let m = Recognizer::new(&w.graph, &idx).recognize(&d.text, &toks);
            identified += m.len();
            matched += m.iter().filter(|m| m.matched).count();
        }
        assert!(identified > 0);
        let ratio = matched as f64 / identified as f64;
        assert!(ratio > 0.55, "grounding ratio {ratio} too low");
    }

    #[test]
    fn facts_per_doc_respects_range() {
        let w = world();
        let mut cfg = FactCorpusConfig::new(11, 20);
        cfg.facts_per_doc = (1, 2);
        let c = generate_fact_corpus(&w, &cfg);
        for d in &c.docs {
            let sentences = d.text.matches('.').count();
            // Headline period + at most 2 fact sentences.
            assert!((2..=3).contains(&sentences), "{}", d.text);
        }
    }
}
