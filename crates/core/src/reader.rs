//! [`SegmentReader`]: how snapshot bytes reach the engine.
//!
//! A [`crate::directory::Directory`] names blobs; a
//! `SegmentReader` decides *what kind of bytes* a snapshot loads
//! through:
//!
//! - [`HeapSegmentReader`] copies the file into one owned buffer and
//!   decodes from there — the classic path, required for nothing but
//!   familiar everywhere, and the only choice when the platform cannot
//!   map files.
//! - [`MmapSegmentReader`] memory-maps the file and hands the reader a
//!   zero-copy [`Bytes`](newslink_util::Bytes) view: posting data and
//!   the encoded doc store become `&[u8]` slices straight out of the
//!   mapping, so cold start is "map, validate footers, go" and the OS
//!   page cache owns the corpus.
//!
//! Both backends produce **bit-identical** indexes: there is one
//! snapshot format and one decoder, run over the same bytes; only the
//! residence of those bytes differs. The segment/prune property suites
//! assert this: the pruned scan decoding posting blocks straight out of
//! a file mapping ranks exactly like one over heap buffers.

use std::fmt;

use newslink_kg::KnowledgeGraph;

use crate::directory::Directory;
use crate::indexer::NewsLinkIndex;
use crate::persist::{read_newslink_index_bytes, LoadReport, PersistError};

/// Which storage backend snapshot bytes are served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageBackend {
    /// Copy the snapshot into process-heap buffers.
    #[default]
    Heap,
    /// Memory-map the snapshot and serve it zero-copy.
    Mmap,
}

impl StorageBackend {
    /// The CLI spelling (`--storage {heap,mmap}`).
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Heap => "heap",
            Self::Mmap => "mmap",
        }
    }

    /// Parse the CLI spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "heap" => Some(Self::Heap),
            "mmap" => Some(Self::Mmap),
            _ => None,
        }
    }

    /// The reader implementing this backend.
    pub fn reader(self) -> Box<dyn SegmentReader> {
        match self {
            Self::Heap => Box::new(HeapSegmentReader),
            Self::Mmap => Box::new(MmapSegmentReader),
        }
    }
}

impl fmt::Display for StorageBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Loads index snapshots out of a [`Directory`].
pub trait SegmentReader: Send + Sync + fmt::Debug {
    /// The backend this reader implements.
    fn backend(&self) -> StorageBackend;

    /// Load the snapshot blob `name` from `dir`, validating it against
    /// `graph`. `tolerant` selects quarantine-and-continue over
    /// fail-on-first-damage (see
    /// [`read_newslink_index_tolerant`](crate::persist::read_newslink_index_tolerant)).
    fn read_snapshot(
        &self,
        dir: &dyn Directory,
        name: &str,
        graph: &KnowledgeGraph,
        tolerant: bool,
    ) -> Result<(NewsLinkIndex, LoadReport), PersistError>;
}

/// Heap-resident snapshot loading ([`StorageBackend::Heap`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct HeapSegmentReader;

impl SegmentReader for HeapSegmentReader {
    fn backend(&self) -> StorageBackend {
        StorageBackend::Heap
    }

    fn read_snapshot(
        &self,
        dir: &dyn Directory,
        name: &str,
        graph: &KnowledgeGraph,
        tolerant: bool,
    ) -> Result<(NewsLinkIndex, LoadReport), PersistError> {
        let bytes = dir.read(name)?;
        read_newslink_index_bytes(graph, &bytes, tolerant)
    }
}

/// Memory-mapped snapshot loading ([`StorageBackend::Mmap`]).
///
/// The index returned by [`read_snapshot`](SegmentReader::read_snapshot)
/// keeps the mapping alive through its posting-list and doc-store
/// views; dropping the index unmaps. Snapshot replacement is safe
/// because [`Directory::atomic_write`] publishes by rename — a live
/// mapping keeps reading the old inode.
#[derive(Debug, Clone, Copy, Default)]
pub struct MmapSegmentReader;

impl SegmentReader for MmapSegmentReader {
    fn backend(&self) -> StorageBackend {
        StorageBackend::Mmap
    }

    fn read_snapshot(
        &self,
        dir: &dyn Directory,
        name: &str,
        graph: &KnowledgeGraph,
        tolerant: bool,
    ) -> Result<(NewsLinkIndex, LoadReport), PersistError> {
        let bytes = dir.open_bytes(name)?;
        read_newslink_index_bytes(graph, &bytes, tolerant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parsing_round_trips() {
        for b in [StorageBackend::Heap, StorageBackend::Mmap] {
            assert_eq!(StorageBackend::parse(b.as_str()), Some(b));
            assert_eq!(b.reader().backend(), b);
            assert_eq!(b.to_string(), b.as_str());
        }
        assert_eq!(StorageBackend::parse("disk"), None);
        assert_eq!(StorageBackend::default(), StorageBackend::Heap);
    }
}
