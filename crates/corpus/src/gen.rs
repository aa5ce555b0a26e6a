//! Corpus generation: events → news documents.
//!
//! Substitution for the paper's CNN and Kaggle datasets (DESIGN.md §6,
//! S15). Each document reports on one world event; several documents cover
//! the same event with different templates and synonyms, so genuinely
//! similar documents exist for the retrieval task, while vocabulary
//! mismatch between them stresses pure keyword search exactly as §I
//! motivates.

use newslink_kg::synth::predicates;
use newslink_kg::{EntityType, EventInfo, NodeId, SynthWorld};
use newslink_util::DetRng;

use crate::templates::{generic_sentences, headline, sentences, Cast};

/// Which of the paper's two datasets a corpus imitates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorpusFlavor {
    /// CNN-like: longer wire stories.
    CnnLike,
    /// Kaggle "all-the-news"-like: shorter pieces with a byline.
    KaggleLike,
}

impl CorpusFlavor {
    /// Display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            CorpusFlavor::CnnLike => "CNN",
            CorpusFlavor::KaggleLike => "Kaggle",
        }
    }
}

/// Corpus generation knobs.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Seed for all sampling (independent of the world seed).
    pub(crate) seed: u64,
    /// Number of documents to generate.
    pub(crate) documents: usize,
    /// Dataset flavor.
    pub(crate) flavor: CorpusFlavor,
    /// Probability of planting an out-of-KG proper name in a document
    /// (drives the sub-100% entity matching ratio of Table V).
    pub(crate) oov_entity_prob: f64,
    /// Zipf exponent for event popularity (>1 ⇒ some events get many
    /// documents, guaranteeing near-duplicates for retrieval).
    pub(crate) event_skew: f64,
}

impl CorpusConfig {
    /// Defaults for a given flavor.
    pub fn new(seed: u64, documents: usize, flavor: CorpusFlavor) -> Self {
        Self {
            seed,
            documents,
            flavor,
            oov_entity_prob: 0.35,
            event_skew: 1.05,
        }
    }
}

/// One generated news document.
#[derive(Debug, Clone)]
pub struct NewsDoc {
    /// Headline.
    pub title: String,
    /// Full text (headline + body sentences).
    pub text: String,
    /// Index into the world's event register (generation ground truth;
    /// never exposed to search methods).
    #[cfg(test)]
    pub(crate) event_idx: usize,
}

/// A generated corpus.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The documents.
    pub docs: Vec<NewsDoc>,
    /// The flavor it imitates.
    pub flavor: CorpusFlavor,
}

impl Corpus {
    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }
}

/// Label of a node in the world graph.
fn label(world: &SynthWorld, n: NodeId) -> String {
    world.graph.label(n).to_string()
}

/// A surface form for `n`: the primary label, or (with probability
/// `alias_prob`) one of its aliases — the acronym/full-name switching of
/// real news copy. Pure keyword search cannot bridge the two forms; the
/// knowledge graph resolves both to the same node.
fn surface(world: &SynthWorld, rng: &mut DetRng, n: NodeId, alias_prob: f64) -> String {
    if rng.chance(alias_prob) {
        let aliases: Vec<&str> = world.graph.aliases_of(n).collect();
        if !aliases.is_empty() {
            return aliases[rng.below(aliases.len())].to_string();
        }
    }
    label(world, n)
}

/// A place located in `container`, found through inverse `located in`
/// edges; falls back to `fallback` when none exists.
fn contained_place(world: &SynthWorld, rng: &mut DetRng, container: NodeId, fallback: &[NodeId]) -> NodeId {
    let g = &world.graph;
    let candidates: Vec<NodeId> = g
        .neighbors(container)
        .iter()
        .filter(|e| e.inverse && g.resolve(e.predicate) == predicates::LOCATED_IN)
        .map(|e| e.to)
        .collect();
    if candidates.is_empty() {
        *rng.pick(fallback)
    } else {
        candidates[rng.below(candidates.len())]
    }
}

/// Assemble the template cast for one event.
fn build_cast(world: &SynthWorld, rng: &mut DetRng, event: &EventInfo) -> Cast {
    let g = &world.graph;
    let country = event.places[0];
    let place = *event.places.last().expect("events have places");
    // A sibling place inside the same country (for place2).
    let prov = contained_place(world, rng, country, &world.provinces);
    let place2 = contained_place(world, rng, prov, &world.cities);

    let mut people: Vec<NodeId> = event
        .participants
        .iter()
        .copied()
        .filter(|&p| g.entity_type(p) == EntityType::Person)
        .collect();
    // Per-document shuffling: different documents about the same election
    // lead with different candidates.
    rng.shuffle(&mut people);
    if people.is_empty() {
        people.push(*rng.pick(&world.people));
    }
    let person = people[0];
    let person2 = if people.len() > 1 {
        people[1]
    } else {
        *rng.pick(&world.people)
    };

    let groups: Vec<NodeId> = event
        .participants
        .iter()
        .copied()
        .filter(|&p| matches!(g.entity_type(p), EntityType::Norp | EntityType::Organization))
        .collect();
    let group = if groups.is_empty() {
        *rng.pick(&world.organizations)
    } else {
        groups[rng.below(groups.len())]
    };
    let org = *rng.pick(&world.organizations);

    Cast {
        event: label(world, event.node),
        place: label(world, place),
        country: label(world, country),
        group: surface(world, rng, group, 0.35),
        person: label(world, person),
        person2: label(world, person2),
        org: surface(world, rng, org, 0.35),
        place2: label(world, place2),
    }
}

/// Generate a corpus over `world`.
pub fn generate_corpus(world: &SynthWorld, cfg: &CorpusConfig) -> Corpus {
    assert!(!world.events.is_empty(), "world has no events");
    let root = DetRng::new(cfg.seed);
    let mut rng = root.fork(0xC0FFEE);
    let mut docs = Vec::with_capacity(cfg.documents);
    // Recent sentences quotable as background recalls (real wire stories
    // reuse agency copy verbatim across otherwise unrelated stories; this
    // is the ambiguity that keyword search cannot resolve but entity
    // context can).
    let mut quotable: Vec<String> = Vec::new();
    // Mildly skewed popularity over an active-event pool: a handful of
    // docs per event on average, a popular head, no single event
    // dominating the corpus.
    let active = world
        .events
        .len()
        .min((cfg.documents / 4).max(10))
        .max(1);
    for _ in 0..cfg.documents {
        let event_idx = if rng.chance(0.25) {
            rng.zipf(active, cfg.event_skew.max(1.05))
        } else {
            rng.below(active)
        };
        let event = &world.events[event_idx];
        let cast = build_cast(world, &mut rng, event);
        let n_sentences = match cfg.flavor {
            CorpusFlavor::CnnLike => rng.range(6, 11),
            CorpusFlavor::KaggleLike => rng.range(4, 8),
        };
        let title = headline(&mut rng, event.kind, &cast);
        let mut body = sentences(&mut rng, event.kind, &cast, n_sentences);
        body.extend(generic_sentences(&mut rng, &cast));
        if cfg.flavor == CorpusFlavor::KaggleLike {
            let reporter = newslink_kg::synth::names::person(&mut rng);
            body.push(format!("Report by {reporter} for {}.", cast.org));
        }
        if rng.chance(cfg.oov_entity_prob) {
            // An out-of-KG spokesperson: identified by NER, unmatched in
            // the KG — the source of Table V's <100% matching ratio.
            let spokesman = newslink_kg::synth::names::person(&mut rng);
            body.push(format!(
                "Spokesman {spokesman} said the situation remained tense."
            ));
        }
        if rng.chance(0.4) && world.events.len() > 1 {
            // A cross-topic brief, as real wire stories carry: adds lexical
            // noise for keyword search while contributing its own entity
            // group to the embedding.
            let other_idx = rng.below(world.events.len());
            if other_idx != event_idx {
                let other = &world.events[other_idx];
                body.push(format!(
                    "In other news, the {} drew attention across {}.",
                    label(world, other.node),
                    label(world, other.places[0]),
                ));
            }
        }
        if !quotable.is_empty() {
            // Verbatim background recalls quoted from earlier stories —
            // usually about a DIFFERENT event. Keyword search cannot tell
            // the source from the quoter; the document-level entity
            // context can.
            if rng.chance(0.55) {
                body.push(quotable[rng.below(quotable.len())].clone());
            }
            if rng.chance(0.2) {
                body.push(quotable[rng.below(quotable.len())].clone());
            }
        }
        // This document's LEAST entity-dense sentences become quotable:
        // real background recalls are narrative copy, and (crucially for
        // evaluation) a quoted sentence should rarely become the quoting
        // document's densest — i.e. query — sentence.
        let mut by_caps: Vec<&String> = body.iter().collect();
        by_caps.sort_by_key(|s| {
            s.split_whitespace()
                .filter(|w| w.chars().next().is_some_and(char::is_uppercase))
                .count()
        });
        for sent in by_caps.into_iter().take(2) {
            quotable.push(sent.clone());
        }
        if quotable.len() > 64 {
            let drop = quotable.len() - 64;
            quotable.drain(..drop);
        }
        let text = format!("{title}. {}", body.join(" "));
        docs.push(NewsDoc {
            title,
            text,
            #[cfg(test)]
            event_idx,
        });
    }
    Corpus {
        docs,
        flavor: cfg.flavor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use newslink_kg::{synth, SynthConfig};

    fn world() -> SynthWorld {
        synth::generate(&SynthConfig::small(5))
    }

    #[test]
    fn corpus_is_deterministic() {
        let w = world();
        let cfg = CorpusConfig::new(11, 30, CorpusFlavor::CnnLike);
        let a = generate_corpus(&w, &cfg);
        let b = generate_corpus(&w, &cfg);
        assert_eq!(a.len(), 30);
        for (x, y) in a.docs.iter().zip(&b.docs) {
            assert_eq!(x.text, y.text);
            assert_eq!(x.event_idx, y.event_idx);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let w = world();
        let a = generate_corpus(&w, &CorpusConfig::new(1, 10, CorpusFlavor::CnnLike));
        let b = generate_corpus(&w, &CorpusConfig::new(2, 10, CorpusFlavor::CnnLike));
        assert!(a.docs.iter().zip(&b.docs).any(|(x, y)| x.text != y.text));
    }

    #[test]
    fn documents_mention_kg_entities() {
        let w = world();
        let c = generate_corpus(&w, &CorpusConfig::new(3, 20, CorpusFlavor::CnnLike));
        for (i, doc) in c.docs.iter().enumerate() {
            let event = &w.events[doc.event_idx];
            let country = w.graph.label(event.places[0]);
            assert!(
                doc.text.contains(country) || doc.text.contains(w.graph.label(event.node)),
                "doc {} does not mention its event context: {}",
                i,
                doc.text
            );
        }
    }

    #[test]
    fn event_skew_produces_popular_events() {
        let w = world();
        let c = generate_corpus(&w, &CorpusConfig::new(7, 200, CorpusFlavor::CnnLike));
        let mut counts = vec![0usize; w.events.len()];
        for d in &c.docs {
            counts[d.event_idx] += 1;
        }
        let max = counts.iter().max().copied().unwrap();
        assert!(max >= 10, "zipf skew should concentrate coverage: {max}");
    }

    #[test]
    fn kaggle_flavor_has_byline() {
        let w = world();
        let c = generate_corpus(&w, &CorpusConfig::new(9, 10, CorpusFlavor::KaggleLike));
        assert!(c.docs.iter().all(|d| d.text.contains("Report by")));
        assert_eq!(c.flavor.name(), "Kaggle");
    }

    #[test]
    fn oov_probability_zero_plants_no_spokesmen() {
        let w = world();
        let mut cfg = CorpusConfig::new(13, 20, CorpusFlavor::CnnLike);
        cfg.oov_entity_prob = 0.0;
        let c = generate_corpus(&w, &cfg);
        assert!(c.docs.iter().all(|d| !d.text.contains("Spokesman")));
        cfg.oov_entity_prob = 1.0;
        let c = generate_corpus(&w, &cfg);
        assert!(c.docs.iter().all(|d| d.text.contains("Spokesman")));
    }

    #[test]
    fn titles_are_part_of_text() {
        let w = world();
        let c = generate_corpus(&w, &CorpusConfig::new(15, 5, CorpusFlavor::CnnLike));
        for d in &c.docs {
            assert!(d.text.starts_with(&d.title));
        }
    }
}
