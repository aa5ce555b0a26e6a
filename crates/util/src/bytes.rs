//! [`Bytes`]: a cheaply-sliceable, shared heap byte region.
//!
//! A snapshot is read into one heap buffer, and the index loaded from it
//! keeps byte ranges of that buffer (posting data, the encoded doc
//! store). `Bytes` is a `(buffer, start, len)` view that dereferences to
//! `&[u8]`; [`Bytes::slice`] produces sub-views without copying —
//! cloning the shared buffer handle, never its contents.

use std::ops::Range;
use std::sync::Arc;

/// An immutable, shared heap byte region.
///
/// Clones and [slices](Bytes::slice) are O(1): they share the backing
/// buffer. Equality and hashing compare contents, matching `&[u8]`.
#[derive(Clone)]
pub struct Bytes {
    /// The shared buffer; `None` for the empty region, so that
    /// [`Bytes::empty`] can be `const`.
    source: Option<Arc<[u8]>>,
    start: usize,
    len: usize,
}

impl Bytes {
    /// The empty region (const, so it can live in a `static`).
    pub const fn empty() -> Self {
        Self {
            source: None,
            start: 0,
            len: 0,
        }
    }

    /// Take ownership of a heap buffer.
    pub fn from_vec(v: Vec<u8>) -> Self {
        let len = v.len();
        Self {
            source: Some(Arc::from(v)),
            start: 0,
            len,
        }
    }

    /// The bytes themselves.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[u8] {
        match &self.source {
            Some(buf) => &buf[self.start..self.start + self.len],
            None => &[],
        }
    }

    /// A zero-copy sub-view. Panics when `range` exceeds the region
    /// (same contract as slicing `&[u8]`).
    pub fn slice(&self, range: Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "slice {range:?} out of bounds of {} bytes",
            self.len
        );
        Self {
            source: self.source.clone(),
            start: self.start + range.start,
            len: range.end - range.start,
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Self::empty()
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Self::from_vec(v)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes)", self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_const_and_default() {
        static EMPTY: Bytes = Bytes::empty();
        assert!(EMPTY.is_empty());
        assert_eq!(&*EMPTY, &[] as &[u8]);
        assert_eq!(Bytes::default(), EMPTY);
        assert_eq!(Bytes::from_vec(Vec::new()), EMPTY);
    }

    #[test]
    fn heap_round_trip_and_slicing() {
        let b = Bytes::from_vec((0u8..32).collect());
        assert_eq!(b.len(), 32);
        let s = b.slice(4..12);
        assert_eq!(&*s, &[4, 5, 6, 7, 8, 9, 10, 11]);
        let ss = s.slice(2..4);
        assert_eq!(&*ss, &[6, 7]);
        // Slices share storage; equality is by content.
        assert_eq!(ss, Bytes::from_vec(vec![6, 7]));
        assert_ne!(ss, Bytes::from_vec(vec![6, 8]));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oversized_slice_panics() {
        Bytes::from_vec(vec![1, 2, 3]).slice(1..5);
    }
}
