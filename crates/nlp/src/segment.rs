//! Document analysis: the NLP component's end-to-end output.
//!
//! §III/§IV: a news document is split into *news segments* (sentences),
//! entities are recognized per segment, and the entity groups are reduced
//! to the maximal entity co-occurrence set that the NE component embeds.

use newslink_kg::{KnowledgeGraph, LabelIndex};

use crate::analyzer::analyze;
use crate::cooccur::{maximal_cooccurrence, EntitySet};
use crate::ner::{matched_labels, EntityMention, MatchStats, Recognizer};
use crate::sentence::split_sentences;
use crate::token::tokenize;

/// One news segment (a sentence) with its recognized entities.
#[derive(Debug, Clone)]
pub struct Segment {
    /// The segment text.
    pub text: String,
    /// Entity mentions recognized in the segment.
    pub(crate) mentions: Vec<EntityMention>,
}

impl Segment {
    /// Entity density: entities per token, the paper's query-selection
    /// criterion (§VII-B).
    pub fn entity_density(&self) -> f64 {
        let tokens = tokenize(&self.text).len();
        if tokens == 0 {
            0.0
        } else {
            self.mentions.len() as f64 / tokens as f64
        }
    }
}

/// The NLP component's output for one document.
#[derive(Debug, Clone)]
pub struct DocumentAnalysis {
    /// Analyzed BOW terms of the full document.
    pub terms: Vec<String>,
    /// Per-sentence segments with mentions.
    pub segments: Vec<Segment>,
    /// The maximal entity co-occurrence set `U_m` (matched labels only —
    /// unmatched mentions have no KG nodes to embed).
    pub entity_groups: Vec<EntitySet>,
    /// Identified/matched counts (Table V).
    pub stats: MatchStats,
}

impl DocumentAnalysis {
    /// All distinct matched entity labels across the document.
    pub fn all_entities(&self) -> EntitySet {
        self.entity_groups.iter().flatten().cloned().collect()
    }
}

/// The full NLP component.
#[derive(Clone, Copy)]
pub struct NlpPipeline<'g> {
    recognizer: Recognizer<'g>,
}

impl<'g> NlpPipeline<'g> {
    /// Build the pipeline over a graph and its label index.
    pub fn new(graph: &'g KnowledgeGraph, index: &'g LabelIndex) -> Self {
        Self {
            recognizer: Recognizer::new(graph, index),
        }
    }

    /// Run tokenization, sentence splitting, NER, and co-occurrence
    /// reduction over `text`.
    pub fn analyze_document(&self, text: &str) -> DocumentAnalysis {
        let mut segments = Vec::new();
        let mut stats = MatchStats::default();
        let mut sets: Vec<EntitySet> = Vec::new();
        for span in split_sentences(text) {
            let sentence = span.text(text);
            let tokens = tokenize(sentence);
            let mentions = self.recognizer.recognize(sentence, &tokens);
            stats.add(&mentions);
            let labels: EntitySet = matched_labels(&mentions).into_iter().collect();
            sets.push(labels);
            segments.push(Segment {
                text: sentence.to_string(),
                mentions,
            });
        }
        DocumentAnalysis {
            terms: analyze(text),
            segments,
            entity_groups: maximal_cooccurrence(&sets),
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use newslink_kg::{EntityType, GraphBuilder};

    fn world() -> (KnowledgeGraph, LabelIndex) {
        let mut b = GraphBuilder::new();
        b.add_node("Pakistan", EntityType::Gpe);
        b.add_node("Taliban", EntityType::Organization);
        b.add_node("Upper Dir", EntityType::Gpe);
        b.add_node("Swat Valley", EntityType::Location);
        b.add_node("Afghanistan", EntityType::Gpe);
        let g = b.freeze();
        let idx = LabelIndex::build(&g);
        (g, idx)
    }

    #[test]
    fn full_document_analysis() {
        let (g, idx) = world();
        let nlp = NlpPipeline::new(&g, &idx);
        let text = "Fighting between Pakistan, Afghanistan and Taliban spread. \
                    Clashes near Upper Dir hit Afghanistan and Taliban. \
                    Strikes in Upper Dir and Swat Valley shook Pakistan and Taliban. \
                    Residents of Upper Dir blamed Taliban.";
        let a = nlp.analyze_document(text);
        assert_eq!(a.segments.len(), 4);
        // Last sentence's set {upper dir, taliban} is a subset of sentence 3.
        assert_eq!(a.entity_groups.len(), 3);
        assert!(a.all_entities().contains("swat valley"));
        assert!(a.stats.identified >= a.stats.matched);
        assert!(!a.terms.is_empty());
    }

    #[test]
    fn entity_density_selects_entity_rich_sentences() {
        let (g, idx) = world();
        let nlp = NlpPipeline::new(&g, &idx);
        let a = nlp.analyze_document(
            "Pakistan Taliban Afghanistan clashed. This sentence has no entities whatsoever in it.",
        );
        assert!(a.segments[0].entity_density() > a.segments[1].entity_density());
        assert_eq!(a.segments[1].entity_density(), 0.0);
    }

    #[test]
    fn empty_document() {
        let (g, idx) = world();
        let nlp = NlpPipeline::new(&g, &idx);
        let a = nlp.analyze_document("");
        assert!(a.segments.is_empty());
        assert!(a.entity_groups.is_empty());
        assert!(a.terms.is_empty());
        assert_eq!(a.stats.ratio(), 1.0);
    }

    #[test]
    fn document_without_entities() {
        let (g, idx) = world();
        let nlp = NlpPipeline::new(&g, &idx);
        let a = nlp.analyze_document("the quick brown fox jumps over the lazy dog.");
        assert_eq!(a.entity_groups.len(), 0);
        assert!(!a.terms.is_empty());
    }

    #[test]
    fn segments_keep_original_text() {
        let (g, idx) = world();
        let nlp = NlpPipeline::new(&g, &idx);
        let a = nlp.analyze_document("Taliban struck. Pakistan responded.");
        assert_eq!(a.segments[0].text, "Taliban struck");
        assert_eq!(a.segments[1].text, "Pakistan responded");
    }
}
