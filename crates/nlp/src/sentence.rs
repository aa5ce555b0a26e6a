//! Sentence splitting.
//!
//! The paper uses "every sentence as a news segment, as it guarantees the
//! semantic consistence of occurring entities" (§VII-A4). This splitter
//! breaks on `.`, `!`, `?` and newlines, with a small abbreviation guard.

/// Common abbreviations that do not end a sentence.
const ABBREVIATIONS: &[&str] = &["mr", "mrs", "ms", "dr", "prof", "gen", "col", "lt", "st", "vs"];

/// A sentence span over the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sentence {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl Sentence {
    /// The sentence text within `source`.
    pub fn text<'a>(&self, source: &'a str) -> &'a str {
        &source[self.start..self.end]
    }
}

/// True when the word ending at `end` (exclusive) is a known abbreviation.
fn ends_with_abbreviation(text: &str, end: usize) -> bool {
    let head = &text[..end];
    let word_start = head
        .char_indices()
        .rev()
        .find(|(_, c)| !c.is_alphabetic())
        .map(|(i, c)| i + c.len_utf8())
        .unwrap_or(0);
    let word = &head[word_start..end];
    if word.is_empty() {
        return false;
    }
    let lower = word.to_lowercase();
    ABBREVIATIONS.contains(&lower.as_str()) || (word.len() == 1 && word != "I" && word != "A")
}

/// Split `text` into trimmed, non-empty sentence spans.
pub fn split_sentences(text: &str) -> Vec<Sentence> {
    let mut sentences = Vec::new();
    let mut start = 0usize;
    let push = |start: usize, end: usize, sentences: &mut Vec<Sentence>| {
        let raw = &text[start..end];
        let trimmed = raw.trim();
        if !trimmed.is_empty() {
            let lead = raw.len() - raw.trim_start().len();
            let trail = raw.len() - raw.trim_end().len();
            sentences.push(Sentence {
                start: start + lead,
                end: end - trail,
            });
        }
    };
    let chars: Vec<(usize, char)> = text.char_indices().collect();
    let mut i = 0;
    while i < chars.len() {
        let (pos, c) = chars[i];
        let is_break = match c {
            '!' | '?' | '\n' => true,
            '.' => {
                // Not a break after an abbreviation or inside a number.
                let next_is_digit = chars
                    .get(i + 1)
                    .is_some_and(|&(_, n)| n.is_ascii_digit());
                !ends_with_abbreviation(text, pos) && !next_is_digit
            }
            _ => false,
        };
        if is_break {
            push(start, pos, &mut sentences);
            start = pos + c.len_utf8();
        }
        i += 1;
    }
    push(start, text.len(), &mut sentences);
    sentences
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sentence_texts(text: &str) -> Vec<&str> {
        split_sentences(text).iter().map(|s| s.text(text)).collect()
    }

    #[test]
    fn splits_basic_sentences() {
        let s = sentence_texts("Pakistan fights Taliban. Attack hits Lahore! Is it over?");
        assert_eq!(
            s,
            vec!["Pakistan fights Taliban", "Attack hits Lahore", "Is it over"]
        );
    }

    #[test]
    fn newlines_split() {
        let s = sentence_texts("Headline about Khyber\nBody starts here");
        assert_eq!(s, vec!["Headline about Khyber", "Body starts here"]);
    }

    #[test]
    fn abbreviations_do_not_split() {
        let s = sentence_texts("Mr. Sanders spoke. Dr. Khan agreed.");
        assert_eq!(s, vec!["Mr. Sanders spoke", "Dr. Khan agreed"]);
    }

    #[test]
    fn decimal_numbers_do_not_split() {
        let s = sentence_texts("Turnout was 56.4 percent. Very high.");
        assert_eq!(s, vec!["Turnout was 56.4 percent", "Very high"]);
    }

    #[test]
    fn single_initial_does_not_split() {
        let s = sentence_texts("George W. Bush spoke.");
        assert_eq!(s, vec!["George W. Bush spoke"]);
    }

    #[test]
    fn empty_and_whitespace() {
        assert!(split_sentences("").is_empty());
        assert!(split_sentences("   \n\n  ").is_empty());
    }

    #[test]
    fn spans_index_source() {
        let text = "One. Two.";
        let spans = split_sentences(text);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].text(text), "One");
        assert_eq!(spans[1].text(text), "Two");
        assert!(spans[1].start > spans[0].end);
    }

    #[test]
    fn no_terminal_punctuation() {
        let s = sentence_texts("no punctuation at all");
        assert_eq!(s, vec!["no punctuation at all"]);
    }
}
