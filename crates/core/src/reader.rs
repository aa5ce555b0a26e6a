//! [`SegmentReader`]: how snapshot bytes reach the engine, and
//! [`StoreOptions`]: the open-time configuration surface.
//!
//! A [`Directory`](crate::directory::Directory) names blobs; a
//! `SegmentReader` decides *what kind of bytes* a snapshot loads
//! through:
//!
//! - [`HeapSegmentReader`] copies the file into one owned buffer and
//!   decodes from there — the classic path, required for nothing but
//!   familiar everywhere, and the only choice when the platform cannot
//!   map files. Reads version-3 (and the v2 index sections inside it)
//!   as well as version-4 snapshots.
//! - [`MmapSegmentReader`] memory-maps the file and hands the v4 reader
//!   a zero-copy [`Bytes`](newslink_util::Bytes) view: posting data and
//!   the encoded doc store become `&[u8]` slices straight out of the
//!   mapping, so cold start is "map, validate footers, go" and the OS
//!   page cache owns the corpus. Version-3 snapshots still load (the
//!   v3 decoder copies as it walks — format, not backend, decides).
//!
//! Both backends produce **bit-identical** indexes: the v4 decoder is
//! the same code over the same bytes; only the residence of those bytes
//! differs. The segment/prune property suites assert this: the pruned
//! scan decoding posting blocks straight out of a file mapping ranks
//! exactly like one over heap buffers.

use std::fmt;

use newslink_kg::KnowledgeGraph;

use crate::config::NewsLinkConfig;
use crate::directory::Directory;
use crate::indexer::NewsLinkIndex;
use crate::persist::{read_newslink_index_bytes, LoadReport, PersistError};

/// Which storage backend snapshot bytes are served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageBackend {
    /// Copy the snapshot into process-heap buffers.
    #[default]
    Heap,
    /// Memory-map the snapshot; zero-copy for version-4 files.
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

/// Builder-style open options for [`NewsLink::open_with`] and
/// [`DurableStore::open_with`]: the storage backend plus engine-config
/// overrides that matter at open time. Unset overrides leave the
/// provided [`NewsLinkConfig`] untouched.
///
/// [`NewsLink::open_with`]: crate::pipeline::NewsLink::open_with
/// [`DurableStore::open_with`]: crate::store::DurableStore::open_with
#[derive(Debug, Clone, Default)]
pub struct StoreOptions {
    backend: StorageBackend,
    prune_topk: Option<bool>,
    segment_docs: Option<usize>,
    max_segments: Option<usize>,
    threads: Option<usize>,
}

impl StoreOptions {
    /// Defaults: heap backend, no config overrides.
    pub fn new() -> Self {
        Self::default()
    }

    /// Select the storage backend.
    pub fn backend(mut self, backend: StorageBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Override [`NewsLinkConfig::prune_topk`].
    pub fn prune_topk(mut self, on: bool) -> Self {
        self.prune_topk = Some(on);
        self
    }

    /// Override [`NewsLinkConfig::segment_docs`].
    pub fn segment_docs(mut self, docs: usize) -> Self {
        self.segment_docs = Some(docs);
        self
    }

    /// Override [`NewsLinkConfig::max_segments`].
    pub fn max_segments(mut self, max: usize) -> Self {
        self.max_segments = Some(max);
        self
    }

    /// Override [`NewsLinkConfig::threads`].
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// The selected backend.
    pub fn storage_backend(&self) -> StorageBackend {
        self.backend
    }

    /// The reader for the selected backend.
    pub fn segment_reader(&self) -> Box<dyn SegmentReader> {
        self.backend.reader()
    }

    /// Apply the overrides to a base config.
    pub fn apply(&self, mut config: NewsLinkConfig) -> NewsLinkConfig {
        if let Some(on) = self.prune_topk {
            config = config.with_prune_topk(on);
        }
        if let Some(docs) = self.segment_docs {
            config = config.with_segment_docs(docs);
        }
        if let Some(max) = self.max_segments {
            config = config.with_max_segments(max);
        }
        if let Some(threads) = self.threads {
            config = config.with_threads(threads);
        }
        config
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

    #[test]
    fn options_apply_only_set_overrides() {
        let base = NewsLinkConfig::default();
        let untouched = StoreOptions::new().apply(base.clone());
        assert_eq!(untouched.prune_topk, base.prune_topk);
        assert_eq!(untouched.segment_docs, base.segment_docs);
        let tuned = StoreOptions::new()
            .backend(StorageBackend::Mmap)
            .prune_topk(false)
            .segment_docs(128)
            .max_segments(4)
            .threads(2)
            .apply(base.clone());
        assert!(!tuned.prune_topk);
        assert_eq!(tuned.segment_docs, 128);
        assert_eq!(tuned.max_segments, 4);
        assert_eq!(tuned.threads, 2);
        // Untouched knobs keep their base values.
        assert_eq!(tuned.beta.to_bits(), base.beta.to_bits());
    }
}
