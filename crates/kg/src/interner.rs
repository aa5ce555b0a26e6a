//! String interning.
//!
//! Node labels and predicate names repeat heavily (a synthetic Wikidata has
//! a few dozen predicates over millions of edges), so the graph stores
//! 4-byte [`Symbol`]s and resolves them through a `StringInterner`.

use newslink_util::FxHashMap;
use serde::{Deserialize, Serialize};

/// A handle to an interned string. Cheap to copy and compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The index of this symbol in its interner.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// An append-only string interner.
///
/// Strings are owned once and resolved by slice; `get_or_intern` is O(1)
/// amortized via an FxHash side table.
#[derive(Debug, Default, Clone)]
pub(crate) struct StringInterner {
    strings: Vec<Box<str>>,
    lookup: FxHashMap<Box<str>, Symbol>,
}

impl StringInterner {
    /// Intern `s`, returning the existing symbol when already present.
    pub(crate) fn get_or_intern(&mut self, s: &str) -> Symbol {
        if let Some(&sym) = self.lookup.get(s) {
            return sym;
        }
        let sym = Symbol(
            u32::try_from(self.strings.len()).expect("interner overflow: more than 2^32 strings"),
        );
        let boxed: Box<str> = s.into();
        self.strings.push(boxed.clone());
        self.lookup.insert(boxed, sym);
        sym
    }

    /// Resolve a symbol to its string. Panics on a foreign symbol.
    #[inline]
    pub(crate) fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_round_trips() {
        let mut i = StringInterner::default();
        let a = i.get_or_intern("Pakistan");
        let b = i.get_or_intern("Taliban");
        assert_eq!(i.resolve(a), "Pakistan");
        assert_eq!(i.resolve(b), "Taliban");
        assert_ne!(a, b);
    }

    #[test]
    fn reinterning_returns_same_symbol() {
        let mut i = StringInterner::default();
        let a = i.get_or_intern("Khyber");
        let b = i.get_or_intern("Khyber");
        assert_eq!(a, b);
        assert_eq!(i.strings.len(), 1);
    }
}
