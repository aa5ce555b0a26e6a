//! Server-side durability state: the [`DurableStore`] behind a mutex,
//! plus the recovery report and checkpoint counters the observability
//! endpoints surface.
//!
//! Mutations log, then install: each one holds the index's upgradable
//! read lock while it prepares and appends its WAL record, and upgrades
//! to the write lock only to publish — so WAL order is install order,
//! and a checkpoint (which takes the same upgradable lock) never falls
//! between a record and its install. The store mutex serializes WAL
//! appends and checkpoints; the index lock stays the outer lock
//! everywhere (the upgradable gate, then `index`, then `store`), so no
//! two paths can deadlock.
//!
//! The [`LoadReport`] captured at construction is immutable: it
//! describes what *this process's* open recovered (and lost), which
//! stays true for the lifetime of the server no matter how many
//! checkpoints later fold the log away.

use std::sync::atomic::{AtomicU64, Ordering};

use newslink_core::{DurableStore, LoadReport};
use parking_lot::{Mutex, MutexGuard};
use serde::{Number, Value};

/// Durability wiring shared by every handler thread.
#[derive(Debug)]
pub struct DurableState {
    store: Mutex<DurableStore>,
    report: LoadReport,
    wal_appends: AtomicU64,
    snapshots: AtomicU64,
}

impl DurableState {
    /// Wrap a freshly opened store. The store's [`LoadReport`] is
    /// captured here and served unchanged for the process lifetime.
    pub fn new(store: DurableStore) -> Self {
        let report = store.report().clone();
        Self {
            store: Mutex::new(store),
            report,
            wal_appends: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
        }
    }

    /// What this process's open recovered, replayed and dropped.
    pub fn report(&self) -> &LoadReport {
        &self.report
    }

    /// Whether the snapshot load quarantined any segment.
    pub fn degraded(&self) -> bool {
        self.report.degraded()
    }

    /// Lock the store for an append or a checkpoint. Callers must
    /// already hold the index's upgradable read lock — never acquire it
    /// the other way around.
    pub(crate) fn store(&self) -> MutexGuard<'_, DurableStore> {
        self.store.lock()
    }

    /// Count one fsynced, acknowledged WAL append.
    pub(crate) fn note_append(&self) {
        self.wal_appends.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one successful checkpoint.
    pub(crate) fn note_snapshot(&self) {
        self.snapshots.fetch_add(1, Ordering::Relaxed);
    }

    /// WAL appends acknowledged since startup.
    pub fn wal_appends_total(&self) -> u64 {
        self.wal_appends.load(Ordering::Relaxed)
    }

    /// Checkpoints taken since startup (`POST /admin/snapshot`).
    pub fn snapshots_total(&self) -> u64 {
        self.snapshots.load(Ordering::Relaxed)
    }

    /// The `/metrics` durability section: the immutable recovery report
    /// plus live append/checkpoint counters, the current WAL size and
    /// the snapshot size.
    pub fn gauges(&self) -> Value {
        let num = |n: u64| Value::Number(Number::from_i128(n as i128));
        let store = self.store();
        let wal_bytes = store.wal_len();
        let snapshot_bytes = store.snapshot_len();
        drop(store);
        Value::Object(vec![
            ("snapshot_bytes".into(), num(snapshot_bytes)),
            ("degraded".into(), Value::Bool(self.report.degraded())),
            (
                "segments_loaded".into(),
                num(self.report.segments_loaded as u64),
            ),
            (
                "quarantined_segments".into(),
                num(self.report.quarantined_segments as u64),
            ),
            (
                "dropped_tombstones".into(),
                num(self.report.dropped_tombstones as u64),
            ),
            (
                "wal_records_replayed".into(),
                num(self.report.wal_records_replayed as u64),
            ),
            (
                "wal_records_skipped".into(),
                num(self.report.wal_records_skipped as u64),
            ),
            (
                "wal_truncated_bytes".into(),
                num(self.report.wal_truncated_bytes),
            ),
            ("wal_appends".into(), num(self.wal_appends_total())),
            ("wal_bytes".into(), num(wal_bytes)),
            ("snapshots".into(), num(self.snapshots_total())),
        ])
    }
}
