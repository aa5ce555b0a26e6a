//! The durable store: snapshot + write-ahead log under one directory.
//!
//! [`DurableStore`] composes the two crash-safety primitives into the
//! recovery protocol a serving process uses:
//!
//! 1. **Open** — load the latest snapshot in degraded-tolerant mode
//!    (quarantining damaged segments rather than refusing to start),
//!    then replay the WAL over it, truncating any torn final append.
//!    A [`LoadReport`] records exactly what happened.
//! 2. **Serve** — every acknowledged mutation is appended to the WAL
//!    and fsynced *before* the acknowledgement ([`log_insert`] /
//!    [`log_delete`]); the in-memory index is the authority for reads.
//! 3. **Checkpoint** — write a crash-atomic snapshot (temp + fsync +
//!    rename + directory fsync), then reset the WAL. A crash between
//!    the two steps leaves stale-but-idempotent records behind: replay
//!    skips inserts the snapshot already holds and deletes of already
//!    tombstoned docs.
//!
//! The directory layout is two files: `index.nlnk` (snapshot, format
//! v4) and `wal.log`. A leftover `index.nlnk.tmp` from a checkpoint
//! that crashed before its rename is deleted on open — it was never
//! made visible, so it is garbage by construction.
//!
//! Snapshot I/O goes through the [`Directory`] seam: the snapshot is
//! read into the heap and decoded by
//! [`read_newslink_index_bytes`](crate::persist::read_newslink_index_bytes),
//! and checkpoints publish by atomic rename. The WAL is always
//! file-backed — durability is its whole point.
//!
//! [`log_insert`]: DurableStore::log_insert
//! [`log_delete`]: DurableStore::log_delete

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use newslink_kg::KnowledgeGraph;
use newslink_text::DocId;

use crate::directory::{Directory, FsDirectory};
use crate::indexer::NewsLinkIndex;
use crate::persist::{read_newslink_index_bytes, write_newslink_index, LoadReport, PersistError};
use crate::pipeline::NewsLink;
use crate::wal::{Wal, WalRecord};

/// Snapshot file name inside the data directory.
pub(crate) const SNAPSHOT_FILE: &str = "index.nlnk";
/// Write-ahead-log file name inside the data directory.
pub(crate) const WAL_FILE: &str = "wal.log";

/// A data directory holding one index: snapshot + WAL. See the module
/// docs for the recovery protocol.
#[derive(Debug)]
pub struct DurableStore {
    fs: FsDirectory,
    wal: Wal,
    report: LoadReport,
}

impl DurableStore {
    /// Open (creating if needed) the data directory `dir`, recover the
    /// index it holds, and return the store ready for logging. When no
    /// snapshot exists yet, `seed` builds the initial index (e.g. from
    /// the corpus file) and it is checkpointed immediately so the next
    /// open skips the build.
    ///
    /// Recovery also checkpoints when the WAL held records and the
    /// snapshot loaded clean, folding them in so the log stays short. A
    /// *degraded* load (quarantined segments) is deliberately never
    /// auto-checkpointed: overwriting the damaged snapshot would destroy
    /// the evidence an operator may want for repair. An explicit
    /// [`checkpoint`](Self::checkpoint) accepts the loss.
    ///
    /// A snapshot this build cannot read — a foreign magic, or any
    /// version but the current one — fails the open with a typed
    /// [`PersistError`] before anything is written, so the file is left
    /// exactly as it was found.
    pub fn open(
        engine: &NewsLink<'_>,
        dir: &Path,
        seed: impl FnOnce() -> NewsLinkIndex,
    ) -> Result<(Self, NewsLinkIndex), PersistError> {
        let fsdir = FsDirectory::create(dir)?;
        fsdir.remove(&format!("{SNAPSHOT_FILE}.tmp"))?;
        let fresh = !fsdir.exists(SNAPSHOT_FILE);
        let (mut index, mut report) = if fresh {
            (seed(), LoadReport::default())
        } else {
            read_newslink_index_bytes(engine.graph(), &fsdir.read(SNAPSHOT_FILE)?, true)?
        };
        let (wal, records, torn) = Wal::open(&dir.join(WAL_FILE))?;
        report.wal_truncated_bytes = torn;
        for record in &records {
            if engine.replay_wal(&mut index, record)? {
                report.wal_records_replayed += 1;
            } else {
                report.wal_records_skipped += 1;
            }
        }
        let mut store = Self {
            fs: fsdir,
            wal,
            report,
        };
        if fresh || (!records.is_empty() && !store.report.degraded()) {
            store.checkpoint(&index, engine.graph())?;
        }
        Ok((store, index))
    }

    /// What recovery salvaged, replayed and dropped.
    pub fn report(&self) -> &LoadReport {
        &self.report
    }

    /// Current WAL length in bytes (its 5-byte header included).
    pub fn wal_len(&self) -> u64 {
        self.wal.len()
    }

    /// The snapshot's path (for tooling/tests).
    pub(crate) fn snapshot_path(&self) -> PathBuf {
        self.fs.path_of(SNAPSHOT_FILE)
    }

    /// Size of the current snapshot file in bytes (0 when absent).
    pub fn snapshot_len(&self) -> u64 {
        fs::metadata(self.snapshot_path()).map_or(0, |m| m.len())
    }

    /// Log an insert durably. Returns only after the record is fsynced;
    /// on `Err` the caller must not acknowledge the mutation.
    pub fn log_insert(&mut self, id: DocId, text: &str) -> io::Result<()> {
        self.wal.append(&WalRecord::Insert {
            id: id.0,
            text: text.to_string(),
        })
    }

    /// Log a delete durably (same contract as [`log_insert`](Self::log_insert)).
    pub fn log_delete(&mut self, id: DocId) -> io::Result<()> {
        self.wal.append(&WalRecord::Delete { id: id.0 })
    }

    /// Write a crash-atomic snapshot of `index`, then reset the WAL.
    /// `index` must reflect every record currently in the log (it does
    /// whenever mutations log, then install, and the checkpoint excludes
    /// mutations from the first append to the last install — the serve
    /// layer holds the index's upgradable lock for both).
    pub fn checkpoint(
        &mut self,
        index: &NewsLinkIndex,
        graph: &KnowledgeGraph,
    ) -> Result<(), PersistError> {
        let mut bytes = Vec::new();
        write_newslink_index(index, graph, &mut bytes)?;
        self.fs.atomic_write(SNAPSHOT_FILE, &bytes)?;
        self.wal.reset()?;
        // `report` is deliberately left alone: it describes what this
        // open recovered (and what was lost), which stays true and
        // worth surfacing even after the log has been folded in.
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NewsLinkConfig;
    use newslink_kg::{EntityType, GraphBuilder, LabelIndex};

    fn world() -> (KnowledgeGraph, LabelIndex) {
        let mut b = GraphBuilder::new();
        let khyber = b.add_node("Khyber", EntityType::Gpe);
        let kunar = b.add_node("Kunar", EntityType::Gpe);
        let taliban = b.add_node("Taliban", EntityType::Organization);
        let pakistan = b.add_node("Pakistan", EntityType::Gpe);
        b.add_edge(kunar, khyber, "borders", 1);
        b.add_edge(taliban, kunar, "operates in", 1);
        b.add_edge(khyber, pakistan, "located in", 1);
        let g = b.freeze();
        let idx = LabelIndex::build(&g);
        (g, idx)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "newslink_store_test_{}_{tag}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    const DOCS: &[&str] = &[
        "Taliban attacked Kunar. Pakistan responded near Khyber.",
        "Pakistan held talks in Khyber.",
    ];

    #[test]
    fn fresh_open_seeds_and_checkpoints() {
        let (g, li) = world();
        let engine = NewsLink::new(&g, &li, NewsLinkConfig::default());
        let dir = temp_dir("fresh");
        let (store, index) =
            DurableStore::open(&engine, &dir, || engine.index_corpus(DOCS)).unwrap();
        assert_eq!(index.doc_count(), 2);
        assert!(store.snapshot_path().exists(), "seed build is checkpointed");
        assert_eq!(store.wal_len(), crate::wal::WAL_HEADER_LEN);
        assert_eq!(store.report(), &LoadReport::default());
        // Second open loads the snapshot instead of seeding.
        drop(store);
        let (_, reloaded) = DurableStore::open(&engine, &dir, || {
            panic!("snapshot exists; seed must not run")
        })
        .unwrap();
        assert_eq!(reloaded.doc_count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn logged_mutations_survive_reopen_and_checkpoint_resets() {
        let (g, li) = world();
        let engine = NewsLink::new(&g, &li, NewsLinkConfig::default());
        let dir = temp_dir("replay");
        {
            let (mut store, mut index) =
                DurableStore::open(&engine, &dir, || engine.index_corpus(DOCS)).unwrap();
            let id = engine.insert_document(&mut index, "Kunar aid convoy arrived.");
            store.log_insert(id, "Kunar aid convoy arrived.").unwrap();
            assert!(engine.delete_document(&mut index, DocId(0)));
            store.log_delete(DocId(0)).unwrap();
            assert!(store.wal_len() > crate::wal::WAL_HEADER_LEN);
            // No checkpoint: the mutations live only in the WAL.
        }
        let (store, index) = DurableStore::open(&engine, &dir, || unreachable!()).unwrap();
        assert_eq!(index.doc_count(), 2, "insert and delete both replayed");
        assert!(index.locate(DocId(2)).is_some());
        let report = store.report();
        assert_eq!(report.wal_records_replayed, 2);
        assert_eq!(report.wal_records_skipped, 0);
        assert!(!report.degraded());
        // Replay folded into a fresh snapshot, so the WAL is empty and a
        // third open replays nothing.
        assert_eq!(store.wal_len(), crate::wal::WAL_HEADER_LEN);
        drop(store);
        let (store, index) = DurableStore::open(&engine, &dir, || unreachable!()).unwrap();
        assert_eq!(index.doc_count(), 2);
        assert_eq!(store.report().wal_records_replayed, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crashed_checkpoint_replays_idempotently() {
        let (g, li) = world();
        let engine = NewsLink::new(&g, &li, NewsLinkConfig::default());
        let dir = temp_dir("idempotent");
        let (mut store, mut index) =
            DurableStore::open(&engine, &dir, || engine.index_corpus(DOCS)).unwrap();
        let id = engine.insert_document(&mut index, "Khyber border reopened.");
        store.log_insert(id, "Khyber border reopened.").unwrap();
        // Simulate a checkpoint that crashed after the snapshot rename
        // but before the WAL reset: snapshot reflects the insert, the
        // log still carries it.
        crate::persist::save_newslink_index(&index, &g, &store.snapshot_path()).unwrap();
        drop(store);
        let (store, reloaded) = DurableStore::open(&engine, &dir, || unreachable!()).unwrap();
        assert_eq!(reloaded.doc_count(), 3);
        assert_eq!(store.report().wal_records_replayed, 0);
        assert_eq!(store.report().wal_records_skipped, 1, "stale record skipped");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn leftover_tmp_snapshot_is_discarded() {
        let (g, li) = world();
        let engine = NewsLink::new(&g, &li, NewsLinkConfig::default());
        let dir = temp_dir("tmp");
        let (store, _) = DurableStore::open(&engine, &dir, || engine.index_corpus(DOCS)).unwrap();
        drop(store);
        let tmp = dir.join(format!("{SNAPSHOT_FILE}.tmp"));
        std::fs::write(&tmp, b"half a snapshot").unwrap();
        let (_, index) = DurableStore::open(&engine, &dir, || unreachable!()).unwrap();
        assert_eq!(index.doc_count(), 2);
        assert!(!tmp.exists(), "garbage temp file removed on open");
        std::fs::remove_dir_all(&dir).ok();
    }
}
