//! [`Directory`]: the storage layer's file-system seam.
//!
//! Snapshot I/O goes through a small named-blob abstraction instead of
//! raw paths. [`Directory::read`] returns a blob as one owned heap
//! buffer; that buffer is what
//! [`read_newslink_index_bytes`](crate::persist::read_newslink_index_bytes)
//! decodes, and the loaded index keeps slices of it.
//!
//! Writes are atomic-by-name: [`Directory::atomic_write`] publishes the
//! whole blob or nothing (temp file + fsync + rename), so a reader never
//! observes a torn file.

use std::io;
use std::path::{Path, PathBuf};

use newslink_util::Bytes;

use crate::persist::atomic_write_file;

/// A flat namespace of immutable-once-published byte blobs.
///
/// Implementations must make [`atomic_write`](Directory::atomic_write)
/// all-or-nothing with respect to concurrent readers of the same name.
pub(crate) trait Directory: Send + Sync + std::fmt::Debug {
    /// Read a whole blob into owned heap bytes.
    fn read(&self, name: &str) -> io::Result<Bytes>;

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
/// `read` copies the file into the heap; `atomic_write` is the
/// temp-file + fsync + rename protocol of
/// [`crate::persist::atomic_write_file`].
#[derive(Debug, Clone)]
pub(crate) struct FsDirectory {
    root: PathBuf,
}

impl FsDirectory {
    /// Open (creating if needed) a directory rooted at `root`.
    pub(crate) fn create(root: impl AsRef<Path>) -> io::Result<Self> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    /// Absolute path of a named blob.
    pub(crate) fn path_of(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Directory for FsDirectory {
    fn read(&self, name: &str) -> io::Result<Bytes> {
        std::fs::read(self.path_of(name)).map(Bytes::from_vec)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fs_directory_contract() {
        let root = std::env::temp_dir().join(format!(
            "newslink_dir_test_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let dir = FsDirectory::create(&root).unwrap();
        assert!(!dir.exists("a"));
        assert!(dir.read("a").is_err());
        dir.atomic_write("a", b"hello").unwrap();
        assert!(dir.exists("a"));
        assert_eq!(&*dir.read("a").unwrap(), b"hello");
        // Atomic replace: the new contents fully supersede the old, and
        // bytes read before the replace are an independent copy.
        let old = dir.read("a").unwrap();
        dir.atomic_write("a", b"world!").unwrap();
        assert_eq!(&*dir.read("a").unwrap(), b"world!");
        assert_eq!(&*old, b"hello");
        dir.remove("a").unwrap();
        assert!(!dir.exists("a"));
        dir.remove("a").unwrap(); // idempotent

        // No temp residue after atomic writes.
        dir.atomic_write("b", b"x").unwrap();
        assert!(!root.join("b.tmp").exists());
        assert_eq!(dir.path_of("b"), root.join("b"));
        std::fs::remove_dir_all(&root).ok();
    }
}
