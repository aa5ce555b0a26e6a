//! English stopword list for the analyzer, comparable to Lucene's default
//! `EnglishAnalyzer` set plus a few news-domain function words.

/// Sorted stopword list (binary-searchable).
pub(crate) const STOPWORDS: &[&str] = &[
    "a", "about", "after", "again", "all", "also", "am", "an", "and", "any", "are", "as", "at",
    "be", "because", "been", "before", "being", "between", "both", "but", "by", "can", "could",
    "did", "do", "does", "doing", "down", "during", "each", "few", "for", "from", "further",
    "had", "has", "have", "having", "he", "her", "here", "hers", "him", "his", "how", "i", "if",
    "in", "into", "is", "it", "its", "itself", "just", "me", "more", "most", "my", "no", "nor",
    "not", "now", "of", "off", "on", "once", "only", "or", "other", "our", "ours", "out", "over",
    "own", "said", "same", "she", "should", "so", "some", "such", "than", "that", "the", "their",
    "theirs", "them", "then", "there", "these", "they", "this", "those", "through", "to", "too",
    "under", "until", "up", "very", "was", "we", "were", "what", "when", "where", "which",
    "while", "who", "whom", "why", "will", "with", "would", "you", "your", "yours",
];

/// Is `word` (lowercase) a stopword?
pub fn is_stopword(word: &str) -> bool {
    STOPWORDS.binary_search(&word).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_is_sorted_for_binary_search() {
        let mut sorted = STOPWORDS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, STOPWORDS);
    }

    #[test]
    fn common_words_are_stopwords() {
        for w in ["the", "and", "of", "in", "is"] {
            assert!(is_stopword(w), "{w} should be a stopword");
        }
    }

    #[test]
    fn content_words_are_not() {
        for w in ["taliban", "pakistan", "bombing", "election"] {
            assert!(!is_stopword(w), "{w} should not be a stopword");
        }
    }

    #[test]
    fn case_sensitive_lowercase_contract() {
        // Caller must lowercase first.
        assert!(!is_stopword("The"));
    }
}
