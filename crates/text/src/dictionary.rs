//! Term dictionary: string terms ↔ dense term ids with document
//! frequencies.

use newslink_util::FxHashMap;

/// Dense id of a term in a [`TermDictionary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl TermId {
    /// The term's index as `usize`.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// Append-only term dictionary with per-term document frequency.
#[derive(Debug, Default, Clone)]
pub struct TermDictionary {
    terms: Vec<Box<str>>,
    lookup: FxHashMap<Box<str>, TermId>,
    doc_freq: Vec<u32>,
}

impl TermDictionary {
    /// Rebuild a dictionary from its serialized parts (codec use). Terms
    /// must be distinct; `doc_freq` must be aligned with `terms`.
    pub(crate) fn from_parts(terms: Vec<String>, doc_freq: Vec<u32>) -> Self {
        debug_assert_eq!(terms.len(), doc_freq.len());
        let mut lookup = FxHashMap::default();
        let terms: Vec<Box<str>> = terms.into_iter().map(Box::<str>::from).collect();
        for (i, t) in terms.iter().enumerate() {
            lookup.insert(t.clone(), TermId(i as u32));
        }
        Self {
            terms,
            lookup,
            doc_freq,
        }
    }
}

impl TermDictionary {
    /// Create an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a term.
    pub(crate) fn get_or_insert(&mut self, term: &str) -> TermId {
        if let Some(&id) = self.lookup.get(term) {
            return id;
        }
        let id = TermId(
            u32::try_from(self.terms.len()).expect("dictionary overflow: more than 2^32 terms"),
        );
        let boxed: Box<str> = term.into();
        self.terms.push(boxed.clone());
        self.lookup.insert(boxed, id);
        self.doc_freq.push(0);
        id
    }

    /// Look up a term without interning.
    pub fn get(&self, term: &str) -> Option<TermId> {
        self.lookup.get(term).copied()
    }

    /// The term string for `id`.
    #[inline]
    pub fn term(&self, id: TermId) -> &str {
        &self.terms[id.index()]
    }

    /// Document frequency of `id`.
    #[inline]
    pub fn doc_freq(&self, id: TermId) -> u32 {
        self.doc_freq[id.index()]
    }

    /// Increment the document frequency of `id` (builder use).
    pub(crate) fn bump_doc_freq(&mut self, id: TermId) {
        self.doc_freq[id.index()] += 1;
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when no terms are interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_and_resolve() {
        let mut d = TermDictionary::new();
        let a = d.get_or_insert("taliban");
        let b = d.get_or_insert("pakistan");
        assert_ne!(a, b);
        assert_eq!(d.term(a), "taliban");
        assert_eq!(d.get("pakistan"), Some(b));
        assert_eq!(d.get("missing"), None);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn doc_freq_counts() {
        let mut d = TermDictionary::new();
        let a = d.get_or_insert("x");
        assert_eq!(d.doc_freq(a), 0);
        d.bump_doc_freq(a);
        d.bump_doc_freq(a);
        assert_eq!(d.doc_freq(a), 2);
    }

    #[test]
    fn reinsert_is_idempotent() {
        let mut d = TermDictionary::new();
        let a = d.get_or_insert("x");
        let b = d.get_or_insert("x");
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }
}
