//! [`Directory`]: the storage layer's file-system seam.
//!
//! Snapshot I/O goes through a small named-blob abstraction instead of
//! raw paths, so the same persistence code runs against a real directory
//! ([`FsDirectory`] — crash-atomic writes, optional memory-mapped reads)
//! or an in-memory map ([`RamDirectory`] — unit tests and failpoint
//! harnesses that want no disk at all). The two read methods encode the
//! storage-backend choice:
//!
//! - [`Directory::read`] always returns *heap* bytes — the file copied
//!   into one owned buffer.
//! - [`Directory::open_bytes`] returns the cheapest zero-copy view the
//!   directory can offer: a shared memory mapping for [`FsDirectory`],
//!   a shared heap buffer for [`RamDirectory`]. Slices taken from the
//!   returned [`Bytes`] keep the backing alive.
//!
//! Writes are atomic-by-name: [`Directory::atomic_write`] publishes the
//! whole blob or nothing (temp file + fsync + rename on disk, a single
//! map insert in RAM), so a reader never observes a torn file. Because
//! replacement happens by *rename*, an open memory mapping keeps reading
//! the old inode — live [`MmapSegmentReader`](crate::reader) snapshots
//! stay valid across checkpoints.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use newslink_util::{Bytes, Mmap};

use crate::persist::atomic_write_file;

/// A flat namespace of immutable-once-published byte blobs.
///
/// Implementations must make [`atomic_write`](Directory::atomic_write)
/// all-or-nothing with respect to concurrent readers of the same name.
pub trait Directory: Send + Sync + std::fmt::Debug {
    /// Read a whole blob into owned heap bytes.
    fn read(&self, name: &str) -> io::Result<Bytes>;

    /// Open a blob for zero-copy access: memory-mapped when the
    /// directory is file-backed, a shared heap buffer otherwise.
    fn open_bytes(&self, name: &str) -> io::Result<Bytes>;

    /// Publish `bytes` under `name`, atomically replacing any previous
    /// blob of that name.
    fn atomic_write(&self, name: &str, bytes: &[u8]) -> io::Result<()>;

    /// True when a blob named `name` exists.
    fn exists(&self, name: &str) -> bool;

    /// Delete the blob named `name` (ok if absent).
    fn remove(&self, name: &str) -> io::Result<()>;
}

/// A [`Directory`] over one real file-system directory.
///
/// `read` copies the file into the heap; `open_bytes` memory-maps it
/// (empty files map to the empty region). `atomic_write` is the
/// temp-file + fsync + rename protocol of
/// [`crate::persist::atomic_write_file`].
#[derive(Debug, Clone)]
pub struct FsDirectory {
    root: PathBuf,
}

impl FsDirectory {
    /// Open (creating if needed) a directory rooted at `root`.
    pub fn create(root: impl AsRef<Path>) -> io::Result<Self> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    /// The directory's root path.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Absolute path of a named blob.
    pub fn path_of(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Directory for FsDirectory {
    fn read(&self, name: &str) -> io::Result<Bytes> {
        std::fs::read(self.path_of(name)).map(Bytes::from_vec)
    }

    fn open_bytes(&self, name: &str) -> io::Result<Bytes> {
        let file = std::fs::File::open(self.path_of(name))?;
        Ok(Bytes::from_mmap(Arc::new(Mmap::map(&file)?)))
    }

    fn atomic_write(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        atomic_write_file(&self.path_of(name), bytes)
    }

    fn exists(&self, name: &str) -> bool {
        self.path_of(name).exists()
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        match std::fs::remove_file(self.path_of(name)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            other => other,
        }
    }
}

/// An in-memory [`Directory`] for tests and failpoint harnesses.
///
/// Blobs live in a mutex-guarded map of shared buffers; `read` and
/// `open_bytes` both hand out zero-copy views of the stored
/// `Arc<[u8]>`, and `atomic_write` replaces the entry in one step.
#[derive(Debug, Default)]
pub struct RamDirectory {
    files: Mutex<BTreeMap<String, Arc<[u8]>>>,
}

impl RamDirectory {
    /// An empty in-memory directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Names of every stored blob, sorted.
    pub fn names(&self) -> Vec<String> {
        self.files.lock().unwrap().keys().cloned().collect()
    }

    fn get(&self, name: &str) -> io::Result<Arc<[u8]>> {
        self.files
            .lock()
            .unwrap()
            .get(name)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no blob {name:?}")))
    }
}

impl Directory for RamDirectory {
    fn read(&self, name: &str) -> io::Result<Bytes> {
        self.get(name).map(Bytes::from_arc)
    }

    fn open_bytes(&self, name: &str) -> io::Result<Bytes> {
        self.get(name).map(Bytes::from_arc)
    }

    fn atomic_write(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.files
            .lock()
            .unwrap()
            .insert(name.to_string(), Arc::from(bytes));
        Ok(())
    }

    fn exists(&self, name: &str) -> bool {
        self.files.lock().unwrap().contains_key(name)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.files.lock().unwrap().remove(name);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(dir: &dyn Directory) {
        assert!(!dir.exists("a"));
        assert!(dir.read("a").is_err());
        assert!(dir.open_bytes("a").is_err());
        dir.atomic_write("a", b"hello").unwrap();
        assert!(dir.exists("a"));
        assert_eq!(&*dir.read("a").unwrap(), b"hello");
        assert_eq!(&*dir.open_bytes("a").unwrap(), b"hello");
        // Atomic replace: the new contents fully supersede the old.
        dir.atomic_write("a", b"world!").unwrap();
        assert_eq!(&*dir.read("a").unwrap(), b"world!");
        // Zero-copy views survive replacement (rename keeps the old
        // inode alive; Arc keeps the old buffer alive).
        let old = dir.open_bytes("a").unwrap();
        dir.atomic_write("a", b"next").unwrap();
        assert_eq!(&*old, b"world!");
        assert_eq!(&*dir.open_bytes("a").unwrap(), b"next");
        dir.remove("a").unwrap();
        assert!(!dir.exists("a"));
        dir.remove("a").unwrap(); // idempotent
    }

    #[test]
    fn ram_directory_contract() {
        exercise(&RamDirectory::new());
    }

    #[test]
    fn fs_directory_contract() {
        let root = std::env::temp_dir().join(format!(
            "newslink_dir_test_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let dir = FsDirectory::create(&root).unwrap();
        exercise(&dir);
        // No temp residue after atomic writes.
        dir.atomic_write("b", b"x").unwrap();
        assert!(!root.join("b.tmp").exists());
        assert_eq!(dir.path_of("b"), root.join("b"));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn fs_open_bytes_is_mapped() {
        let root = std::env::temp_dir().join(format!(
            "newslink_dir_map_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let dir = FsDirectory::create(&root).unwrap();
        dir.atomic_write("m", b"mapped bytes").unwrap();
        let b = dir.open_bytes("m").unwrap();
        assert!(b.is_mapped());
        assert_eq!(b.heap_bytes(), 0);
        let h = dir.read("m").unwrap();
        assert!(!h.is_mapped());
        assert_eq!(h.heap_bytes(), 12);
        std::fs::remove_dir_all(&root).ok();
    }
}
