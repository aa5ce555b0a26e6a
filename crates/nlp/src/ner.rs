//! Named-entity recognition.
//!
//! The paper delegates NER to spaCy's pretrained pipeline. Our offline
//! substitute is a *gazetteer recognizer*: longest-match of token windows
//! against the knowledge graph's label index (DESIGN.md §6.2), plus a
//! capitalization fallback that identifies proper-noun runs with no KG
//! counterpart. The fallback matters: it recreates the paper's imperfect
//! *entity matching ratio* (Table V reports ≈96–97%, not 100%), because the
//! corpus generator plants out-of-KG names.

use newslink_kg::{normalize_label, KnowledgeGraph, LabelIndex};
use newslink_util::FxHashSet;

use crate::stopwords::is_stopword;
use crate::token::Token;

/// One recognized entity mention within a sentence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntityMention {
    /// Exact surface text.
    pub(crate) surface: String,
    /// Normalized form (lowercased, whitespace-collapsed) — the entity
    /// label `l` used downstream.
    pub norm: String,
    /// Index of the first token of the mention.
    pub(crate) token_start: usize,
    /// Number of tokens covered.
    pub(crate) token_len: usize,
    /// True when the mention resolved to at least one KG node of a
    /// searchable entity type (the paper's "matched entity").
    pub matched: bool,
}

/// Gazetteer + capitalization-fallback recognizer.
///
/// Borrowed from a [`KnowledgeGraph`] and its [`LabelIndex`]; cheap to
/// construct, free to clone.
#[derive(Clone, Copy)]
pub struct Recognizer<'g> {
    graph: &'g KnowledgeGraph,
    index: &'g LabelIndex,
}

impl<'g> Recognizer<'g> {
    /// Create a recognizer over `graph` with its prebuilt `index`.
    pub fn new(graph: &'g KnowledgeGraph, index: &'g LabelIndex) -> Self {
        Self { graph, index }
    }

    /// Recognize entity mentions in one sentence.
    ///
    /// `tokens` must be the tokenization of `sentence` (spans index it).
    pub fn recognize(&self, sentence: &str, tokens: &[Token]) -> Vec<EntityMention> {
        let lower: Vec<String> = tokens
            .iter()
            .map(|t| t.text(sentence).to_lowercase())
            .collect();
        let lower_refs: Vec<&str> = lower.iter().map(String::as_str).collect();
        let max_window = self.index.max_label_tokens().max(1);
        let mut searchable = |n| self.graph.entity_type(n).is_searchable();
        let mut mentions = Vec::new();
        let mut i = 0;
        while i < tokens.len() {
            // Longest gazetteer match first: one resolver probe covers
            // every window width starting at `i`. Single-token matches
            // must look like proper nouns in the text: a lowercase "as"
            // must not link to a node or acronym alias labeled "AS".
            let cap = max_window.min(tokens.len() - i);
            let allow_single =
                tokens[i].is_capitalized(sentence) || tokens[i].is_numeric(sentence);
            if let Some(w) =
                self.index
                    .longest_match(&lower_refs[i..i + cap], cap, allow_single, &mut searchable)
            {
                let start = tokens[i].start;
                let end = tokens[i + w - 1].end;
                let surface = sentence[start..end].to_string();
                mentions.push(EntityMention {
                    norm: normalize_label(&surface).into_owned(),
                    surface,
                    token_start: i,
                    token_len: w,
                    matched: true,
                });
                i += w;
                continue;
            }
            // Fallback: a maximal run of capitalized, non-stopword,
            // non-numeric tokens is an identified (but unmatched) entity.
            if self.starts_proper_run(sentence, tokens, &lower, i) {
                let mut j = i + 1;
                while j < tokens.len()
                    && tokens[j].is_capitalized(sentence)
                    && !is_stopword(&lower[j])
                    && !tokens[j].is_numeric(sentence)
                {
                    j += 1;
                }
                // A single capitalized sentence-initial word is almost
                // always ordinary prose; require length >= 2 there.
                let run_len = j - i;
                if run_len >= 2 || i > 0 {
                    let start = tokens[i].start;
                    let end = tokens[j - 1].end;
                    let surface = sentence[start..end].to_string();
                    mentions.push(EntityMention {
                        norm: normalize_label(&surface).into_owned(),
                        surface,
                        token_start: i,
                        token_len: run_len,
                        matched: false,
                    });
                    i = j;
                    continue;
                }
            }
            i += 1;
        }
        mentions
    }

    fn starts_proper_run(
        &self,
        sentence: &str,
        tokens: &[Token],
        lower: &[String],
        i: usize,
    ) -> bool {
        tokens[i].is_capitalized(sentence)
            && !is_stopword(&lower[i])
            && !tokens[i].is_numeric(sentence)
    }
}

/// The paper's Table V statistic for one query/document: identified and
/// matched mention counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Mentions the recognizer identified.
    pub identified: usize,
    /// Mentions that resolved to searchable KG nodes.
    pub matched: usize,
}

impl MatchStats {
    /// Accumulate mention counts.
    pub(crate) fn add(&mut self, mentions: &[EntityMention]) {
        self.identified += mentions.len();
        self.matched += mentions.iter().filter(|m| m.matched).count();
    }

    /// matched / identified, or 1.0 when nothing was identified.
    pub fn ratio(&self) -> f64 {
        if self.identified == 0 {
            1.0
        } else {
            self.matched as f64 / self.identified as f64
        }
    }
}

/// Collect the distinct normalized labels of matched mentions, in first-
/// occurrence order.
pub(crate) fn matched_labels(mentions: &[EntityMention]) -> Vec<String> {
    let mut seen = FxHashSet::default();
    let mut out = Vec::new();
    for m in mentions {
        if m.matched && seen.insert(m.norm.clone()) {
            out.push(m.norm.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::tokenize;
    use newslink_kg::{EntityType, GraphBuilder};

    fn world() -> (KnowledgeGraph, LabelIndex) {
        let mut b = GraphBuilder::new();
        b.add_node("Pakistan", EntityType::Gpe);
        b.add_node("Taliban", EntityType::Organization);
        b.add_node("Upper Dir", EntityType::Gpe);
        b.add_node("Swat Valley", EntityType::Location);
        b.add_node("Five", EntityType::Quantity);
        let g = b.freeze();
        let idx = LabelIndex::build(&g);
        (g, idx)
    }

    fn recognize(text: &str) -> Vec<EntityMention> {
        let (g, idx) = world();
        let r = Recognizer::new(&g, &idx);
        let toks = tokenize(text);
        r.recognize(text, &toks)
    }

    #[test]
    fn finds_single_token_entities() {
        let m = recognize("Military conflicts between Pakistan and Taliban.");
        let names: Vec<_> = m.iter().map(|x| x.norm.as_str()).collect();
        assert_eq!(names, vec!["pakistan", "taliban"]);
        assert!(m.iter().all(|x| x.matched));
    }

    #[test]
    fn longest_match_wins() {
        let m = recognize("Clashes in Upper Dir continued.");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].norm, "upper dir");
        assert_eq!(m[0].token_len, 2);
        assert!(m[0].matched);
    }

    #[test]
    fn multiword_entities_found_mid_sentence() {
        let m = recognize("Fighting reached Swat Valley and Pakistan yesterday.");
        let names: Vec<_> = m.iter().map(|x| x.norm.as_str()).collect();
        assert_eq!(names, vec!["swat valley", "pakistan"]);
    }

    #[test]
    fn quantity_entities_filtered() {
        // "Five" is in the KG but with a non-searchable type.
        let m = recognize("Attack kills Five in Pakistan.");
        let names: Vec<_> = m.iter().map(|x| x.norm.as_str()).collect();
        // "Five" is capitalized mid-sentence -> identified-but-unmatched.
        assert!(names.contains(&"pakistan"));
        let five = m.iter().find(|x| x.norm == "five").unwrap();
        assert!(!five.matched);
    }

    #[test]
    fn unknown_proper_nouns_identified_but_unmatched() {
        let m = recognize("Forces entered Quettaville near Pakistan.");
        let unmatched: Vec<_> = m.iter().filter(|x| !x.matched).collect();
        assert_eq!(unmatched.len(), 1);
        assert_eq!(unmatched[0].norm, "quettaville");
    }

    #[test]
    fn sentence_initial_single_word_not_entity() {
        let m = recognize("Bombing hit the city.");
        assert!(m.is_empty());
    }

    #[test]
    fn sentence_initial_two_word_run_is_entity() {
        let m = recognize("Kunar Heights saw clashes.");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].norm, "kunar heights");
        assert!(!m[0].matched);
    }

    #[test]
    fn lowercase_words_do_not_link_to_acronyms() {
        let mut b = GraphBuilder::new();
        let org = b.add_node("Adrainviam Systems", EntityType::Organization);
        b.add_alias(org, "AS");
        b.add_node("Pakistan", EntityType::Gpe);
        let g = b.freeze();
        let idx = LabelIndex::build(&g);
        let r = Recognizer::new(&g, &idx);
        let text = "Officials described Pakistan as calm.";
        let m = r.recognize(text, &tokenize(text));
        let names: Vec<&str> = m.iter().map(|x| x.norm.as_str()).collect();
        assert_eq!(names, vec!["pakistan"], "lowercase 'as' must not match");
        // The capitalized acronym still links.
        let text2 = "AS expanded operations in Pakistan.";
        let m2 = r.recognize(text2, &tokenize(text2));
        assert!(m2.iter().any(|x| x.norm == "as" && x.matched));
    }

    #[test]
    fn match_stats_ratio() {
        let m = recognize("Forces entered Quettaville near Pakistan.");
        let mut stats = MatchStats::default();
        stats.add(&m);
        assert_eq!(stats.identified, 2);
        assert_eq!(stats.matched, 1);
        assert!((stats.ratio() - 0.5).abs() < 1e-12);
        assert_eq!(MatchStats::default().ratio(), 1.0);
    }

    #[test]
    fn matched_labels_dedupe_in_order() {
        let m = recognize("Pakistan praised Pakistan and Taliban.");
        assert_eq!(matched_labels(&m), vec!["pakistan", "taliban"]);
    }
}
