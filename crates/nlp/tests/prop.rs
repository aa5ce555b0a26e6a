//! Property tests for the NLP substrate.

use std::collections::BTreeSet;

use proptest::prelude::*;

use newslink_nlp::{analyze, maximal_cooccurrence, split_sentences, stem, tokenize};

fn set_strategy() -> impl Strategy<Value = Vec<BTreeSet<String>>> {
    prop::collection::vec(
        prop::collection::btree_set((0u8..10).prop_map(|e| format!("e{e}")), 0..6),
        0..12,
    )
}

fn check_token_spans(text: &str) {
    let mut prev_end = 0;
    for t in &tokenize(text) {
        assert!(t.start >= prev_end, "overlapping tokens");
        assert!(t.end > t.start);
        assert!(t.end <= text.len());
        assert!(text.is_char_boundary(t.start));
        assert!(text.is_char_boundary(t.end));
        assert!(!t.text(text).is_empty());
        prev_end = t.end;
    }
}

fn check_sentence_spans(text: &str) {
    let mut prev_end = 0;
    for s in &split_sentences(text) {
        assert!(s.start >= prev_end);
        assert!(s.end > s.start);
        assert!(s.end <= text.len());
        assert!(!s.text(text).trim().is_empty());
        prev_end = s.end;
    }
}

/// A once-shrunk failing input: a lone combining mark (KHMER SIGN
/// MUUSIKATOAN) before a period. It must stay a well-formed case.
#[test]
fn combining_mark_before_period_spans_are_well_formed() {
    let text = "\u{17c9}.";
    check_token_spans(text);
    check_sentence_spans(text);
}

proptest! {
    /// Definition 1: every survivor is in U, no survivor is a subset of
    /// another survivor, and every member of U is a subset of some
    /// survivor (so no information is lost).
    #[test]
    fn maximal_cooccurrence_is_sound_and_complete(sets in set_strategy()) {
        let um = maximal_cooccurrence(&sets);
        for s in &um {
            prop_assert!(sets.contains(s), "survivor not from U");
        }
        for (i, a) in um.iter().enumerate() {
            for (j, b) in um.iter().enumerate() {
                if i != j {
                    prop_assert!(!a.is_subset(b), "{a:?} ⊆ {b:?}");
                }
            }
        }
        for s in sets.iter().filter(|s| !s.is_empty()) {
            prop_assert!(
                um.iter().any(|m| s.is_subset(m)),
                "{s:?} lost without a covering survivor"
            );
        }
    }

    /// Survivors are unique.
    #[test]
    fn maximal_cooccurrence_unique(sets in set_strategy()) {
        let um = maximal_cooccurrence(&sets);
        let distinct: BTreeSet<_> = um.iter().cloned().collect();
        prop_assert_eq!(distinct.len(), um.len());
    }

    /// Token spans index the source exactly and never overlap.
    #[test]
    fn token_spans_are_well_formed(text in "\\PC{0,200}") {
        check_token_spans(&text);
    }

    /// Sentence spans are ordered, in-bounds, and non-empty.
    #[test]
    fn sentence_spans_are_well_formed(text in "\\PC{0,300}") {
        check_sentence_spans(&text);
    }

    /// Stemming is idempotent for ascii words (stem(stem(w)) == stem(w)).
    #[test]
    fn stemming_is_idempotent(word in "[a-z]{1,15}") {
        let once = stem(&word);
        prop_assert_eq!(stem(&once), once.clone());
    }

    /// Analysis is case-insensitive.
    #[test]
    fn analysis_is_case_insensitive(text in "[a-zA-Z ]{0,80}") {
        prop_assert_eq!(analyze(&text), analyze(&text.to_lowercase()));
    }
}
