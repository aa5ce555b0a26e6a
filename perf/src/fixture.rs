//! The frozen data set and the texts the generator draws from.
//!
//! The world and the corpus are a fixture, like the data set of any
//! standard benchmark: they are the same on every run, so `setup_s`
//! times identical work and a latency never moves because a seed drew
//! a denser graph. `--seed` decides the *traffic* — which queries form
//! the hot pool, their popularity, the order of everything, which
//! documents are written and deleted.

use std::collections::HashSet;

use newslink_corpus::{generate_fact_corpus, FactCorpusConfig};
use newslink_kg::{synth, LabelIndex, SynthConfig, SynthWorld};

/// Seed and size of the knowledge graph (`SynthConfig::scaled`).
pub const WORLD_SEED: u64 = 7;
pub const WORLD_NODES: usize = 10_000;
/// The indexed corpus: `corpus::fact` entity profiles.
pub const CORPUS_SEED: u64 = 11;
pub const CORPUS_DOCS: usize = 800;
/// The held-out profiles: their sentences are the queries, their texts
/// the documents `mixed_rw` inserts. Another seed than the corpus, so a
/// query resolves and embeds but is no indexed document verbatim.
pub const HELD_OUT_SEED: u64 = 99;
pub const HELD_OUT_DOCS: usize = 60_000;

/// The knowledge graph and its label index: what a server loads first.
pub struct Dataset {
    pub world: SynthWorld,
    pub labels: LabelIndex,
}

impl Dataset {
    pub fn build() -> Self {
        let world = synth::generate(&SynthConfig::scaled(WORLD_SEED, WORLD_NODES));
        let labels = LabelIndex::build(&world.graph);
        Self { world, labels }
    }
}

/// Everything the generator sends, as text.
pub struct Texts {
    /// The documents every server indexes during set-up.
    pub corpus: Vec<String>,
    /// Distinct held-out documents, for `POST /v1/docs`.
    pub held_out: Vec<String>,
    /// Distinct single fact sentences of the held-out documents.
    pub sentences: Vec<String>,
}

impl Texts {
    pub fn build(world: &SynthWorld) -> Self {
        let corpus = generate_fact_corpus(world, &FactCorpusConfig::new(CORPUS_SEED, CORPUS_DOCS))
            .docs
            .into_iter()
            .map(|d| d.text)
            .collect();
        let held =
            generate_fact_corpus(world, &FactCorpusConfig::new(HELD_OUT_SEED, HELD_OUT_DOCS));
        let mut seen_docs = HashSet::new();
        let mut seen_sentences = HashSet::new();
        let mut held_out = Vec::new();
        let mut sentences = Vec::new();
        for doc in held.docs {
            // "Profile: X. <fact>. <fact>." — labels hold no period, so
            // ". " only ever separates sentences.
            for sentence in doc.text.trim_end_matches('.').split(". ").skip(1) {
                if seen_sentences.insert(sentence.to_string()) {
                    sentences.push(sentence.to_string());
                }
            }
            if seen_docs.insert(doc.text.clone()) {
                held_out.push(doc.text);
            }
        }
        Self {
            corpus,
            held_out,
            sentences,
        }
    }

    pub fn corpus_bytes(&self) -> usize {
        self.corpus.iter().map(String::len).sum()
    }
}
