//! Tokenization with source spans.
//!
//! A token is a maximal run of alphanumeric characters (plus internal
//! apostrophes, so `People's` stays one token). Spans index the original
//! text, letting the NER report exact surface forms.

/// One token with its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl Token {
    /// The token's surface text within `source`.
    #[inline]
    pub fn text<'a>(&self, source: &'a str) -> &'a str {
        &source[self.start..self.end]
    }

    /// True when the first character is uppercase.
    pub(crate) fn is_capitalized(&self, source: &str) -> bool {
        self.text(source)
            .chars()
            .next()
            .is_some_and(|c| c.is_uppercase())
    }

    /// True when every character is a digit.
    pub(crate) fn is_numeric(&self, source: &str) -> bool {
        let t = self.text(source);
        !t.is_empty() && t.chars().all(|c| c.is_ascii_digit())
    }
}

/// Is `c` part of a token?
#[inline]
fn is_word_char(c: char) -> bool {
    c.is_alphanumeric()
}

/// Tokenize `text` into spans.
pub fn tokenize(text: &str) -> Vec<Token> {
    let mut tokens = Vec::new();
    let bytes = text.char_indices().collect::<Vec<_>>();
    let mut i = 0;
    while i < bytes.len() {
        let (pos, c) = bytes[i];
        if is_word_char(c) {
            let start = pos;
            let mut j = i + 1;
            while j < bytes.len() {
                let (_, cj) = bytes[j];
                if is_word_char(cj) {
                    j += 1;
                } else if cj == '\'' && j + 1 < bytes.len() && is_word_char(bytes[j + 1].1) {
                    // internal apostrophe: People's
                    j += 2;
                } else {
                    break;
                }
            }
            let end = if j < bytes.len() { bytes[j].0 } else { text.len() };
            tokens.push(Token { start, end });
            i = j;
        } else {
            i += 1;
        }
    }
    tokens
}

/// Convenience: lowercase token strings (no span bookkeeping).
pub fn tokenize_lower(text: &str) -> Vec<String> {
    tokenize(text)
        .iter()
        .map(|t| t.text(text).to_lowercase())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_punctuation_and_space() {
        let text = "Bombing attack, by Taliban in Pakistan.";
        let toks: Vec<&str> = tokenize(text).iter().map(|t| t.text(text)).collect();
        assert_eq!(
            toks,
            vec!["Bombing", "attack", "by", "Taliban", "in", "Pakistan"]
        );
    }

    #[test]
    fn internal_apostrophe_kept() {
        let text = "the People's Party";
        let toks: Vec<&str> = tokenize(text).iter().map(|t| t.text(text)).collect();
        assert_eq!(toks, vec!["the", "People's", "Party"]);
    }

    #[test]
    fn trailing_apostrophe_dropped() {
        let text = "the voters' choice";
        let toks: Vec<&str> = tokenize(text).iter().map(|t| t.text(text)).collect();
        assert_eq!(toks, vec!["the", "voters", "choice"]);
    }

    #[test]
    fn numbers_are_tokens() {
        let text = "2016 Pakistan presidential election";
        let toks = tokenize(text);
        assert_eq!(toks[0].text(text), "2016");
        assert!(toks[0].is_numeric(text));
        assert!(!toks[1].is_numeric(text));
    }

    #[test]
    fn capitalization_detection() {
        let text = "Upper Dir region";
        let toks = tokenize(text);
        assert!(toks[0].is_capitalized(text));
        assert!(toks[1].is_capitalized(text));
        assert!(!toks[2].is_capitalized(text));
    }

    #[test]
    fn empty_and_punct_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("?!... --- ").is_empty());
    }

    #[test]
    fn unicode_words_survive() {
        let text = "Zürich café";
        let toks: Vec<&str> = tokenize(text).iter().map(|t| t.text(text)).collect();
        assert_eq!(toks, vec!["Zürich", "café"]);
    }

    #[test]
    fn tokenize_lower_lowercases() {
        assert_eq!(
            tokenize_lower("Taliban IN Pakistan"),
            vec!["taliban", "in", "pakistan"]
        );
    }
}
