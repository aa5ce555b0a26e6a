//! Write-ahead log for live index mutations.
//!
//! The segmented live path (§6e) applies `POST /docs` / `DELETE
//! /docs/<id>` mutations in memory; snapshots make them durable only at
//! checkpoint time. The WAL closes the gap: every mutation is appended
//! here and fsynced *before* the caller acknowledges it, so a `kill -9`
//! at any byte loses nothing that was acknowledged. On open, the log is
//! replayed over the latest snapshot (see
//! [`DurableStore`](crate::store::DurableStore)); a checkpoint writes an
//! atomic snapshot and resets the log.
//!
//! ## On-disk format
//!
//! ```text
//! "NLWL" (4)  version (1)
//! record*  where  record = [payload-len varint][payload][CRC-32 LE (4)]
//! payload  = 0x01 [doc-id varint][text-len varint][text UTF-8]   insert
//!          | 0x02 [doc-id varint]                                 delete
//! ```
//!
//! The length prefix frames records; the CRC detects torn or corrupted
//! appends. [`scan`] is total: on *any* byte slice it returns the
//! longest prefix of intact records plus how many trailing bytes are
//! torn — it never panics and never returns a half-record. A torn tail
//! can only be the final append (appends are sequential and fsynced),
//! which by construction was never acknowledged, so truncating it on
//! open is exactly the crash contract.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

use newslink_util::failpoint::FaultMedia;
use newslink_util::{crc32, varint};

/// File magic for WAL files.
pub const WAL_MAGIC: &[u8; 4] = b"NLWL";
/// Current WAL format version.
pub const WAL_VERSION: u8 = 1;
/// Bytes of magic + version before the first record.
pub const WAL_HEADER_LEN: u64 = 5;

const TAG_INSERT: u8 = 1;
const TAG_DELETE: u8 = 2;
/// Documents are measured in kilobytes; a longer payload length means a
/// corrupt prefix. [`Wal::append`] enforces the same bound on the way
/// in, so a record it acknowledges is always one [`scan`] will accept.
pub(crate) const MAX_RECORD_BYTES: u64 = 1 << 28;
/// Upper bound handed to [`varint::read_str`] when decoding a payload.
const MAX_TEXT_BYTES: usize = MAX_RECORD_BYTES as usize;

/// One logged mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A document insert: the id the live path assigned and the raw text
    /// (replay re-embeds it; embeddings are deterministic given the
    /// graph and config, so the replayed segment is bit-identical).
    Insert {
        /// The global id reserved for the document.
        id: u32,
        /// The document text.
        text: String,
    },
    /// A document delete (tombstone).
    Delete {
        /// The global id being tombstoned.
        id: u32,
    },
}

/// Append `record`'s framed encoding to `out`.
pub fn encode_record(out: &mut Vec<u8>, record: &WalRecord) {
    let mut payload = Vec::new();
    match record {
        WalRecord::Insert { id, text } => {
            payload.push(TAG_INSERT);
            varint::write_u32(&mut payload, *id).expect("vec write is infallible");
            varint::write_str(&mut payload, text).expect("vec write is infallible");
        }
        WalRecord::Delete { id } => {
            payload.push(TAG_DELETE);
            varint::write_u32(&mut payload, *id).expect("vec write is infallible");
        }
    }
    varint::write_u64(out, payload.len() as u64).expect("vec write is infallible");
    out.extend_from_slice(&payload);
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
}

fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let mut cursor = payload;
    let input = &mut cursor;
    let mut tag = [0u8; 1];
    input.read_exact(&mut tag).ok()?;
    let record = match tag[0] {
        TAG_INSERT => WalRecord::Insert {
            id: varint::read_u32(input).ok()?,
            text: varint::read_str(input, MAX_TEXT_BYTES).ok()?,
        },
        TAG_DELETE => WalRecord::Delete {
            id: varint::read_u32(input).ok()?,
        },
        _ => return None,
    };
    // Trailing bytes under a valid CRC mean an encoder/decoder mismatch;
    // treat the record as unreadable rather than silently dropping data.
    if !input.is_empty() {
        return None;
    }
    Some(record)
}

/// What [`scan`] recovered from a WAL byte image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// Intact records, in append order.
    pub records: Vec<WalRecord>,
    /// Whether the magic + version header was intact. When false there
    /// are no records and the whole file length counts as torn.
    pub header_ok: bool,
    /// Byte length of the valid prefix (header + intact records); the
    /// file should be truncated to this on open.
    pub(crate) valid_len: u64,
    /// Bytes beyond the valid prefix: a torn final append (or, with
    /// `header_ok == false`, a file that never finished its header).
    pub torn_bytes: u64,
}

/// Parse a WAL byte image, stopping at the first record that is torn
/// (length prefix or body runs past the end) or corrupt (CRC mismatch,
/// unknown tag, payload underrun). Total: never panics, never errors.
pub fn scan(bytes: &[u8]) -> WalScan {
    if bytes.len() < WAL_HEADER_LEN as usize
        || &bytes[..4] != WAL_MAGIC
        || bytes[4] != WAL_VERSION
    {
        return WalScan {
            records: Vec::new(),
            header_ok: false,
            valid_len: 0,
            torn_bytes: bytes.len() as u64,
        };
    }
    let mut records = Vec::new();
    let mut at = WAL_HEADER_LEN as usize;
    loop {
        let mut cursor = &bytes[at..];
        if cursor.is_empty() {
            break;
        }
        let Ok(len) = varint::read_u64(&mut cursor) else {
            break; // torn length prefix
        };
        if len > MAX_RECORD_BYTES || (len as usize + 4) > cursor.len() {
            break; // implausible length, or body/CRC runs past the end
        }
        let (payload, rest) = cursor.split_at(len as usize);
        let stored = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        if crc32(payload) != stored {
            break; // torn or bit-flipped append
        }
        let Some(record) = decode_payload(payload) else {
            break;
        };
        records.push(record);
        at = bytes.len() - rest.len() + 4;
    }
    WalScan {
        records,
        header_ok: true,
        valid_len: at as u64,
        torn_bytes: (bytes.len() - at) as u64,
    }
}

/// The storage operations [`Wal`] needs from its backing file.
///
/// Production code uses [`File`]; crash tests substitute
/// [`FaultMedia`] to drive the append *error* path (torn write, failed
/// fsync, failed repair) deterministically at every byte offset — the
/// shapes a real disk produces at the worst possible moments.
pub trait WalStorage {
    /// Write all of `buf` at the current cursor.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Make every prior write durable (fsync).
    fn sync_data(&mut self) -> io::Result<()>;
    /// Truncate (or zero-extend) the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Move the cursor to absolute offset `pos`.
    fn seek_to(&mut self, pos: u64) -> io::Result<()>;
}

impl WalStorage for File {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        Write::write_all(self, buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        File::sync_data(self)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        File::set_len(self, len)
    }

    fn seek_to(&mut self, pos: u64) -> io::Result<()> {
        self.seek(SeekFrom::Start(pos)).map(|_| ())
    }
}

impl WalStorage for FaultMedia {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        FaultMedia::write_all(self, buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        FaultMedia::sync_data(self)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        FaultMedia::set_len(self, len)
    }

    fn seek_to(&mut self, pos: u64) -> io::Result<()> {
        FaultMedia::seek_to(self, pos)
    }
}

/// An open WAL file: appends are fsynced before they return, so a
/// record that [`Wal::append`] acknowledged survives any crash.
///
/// A *failed* append repairs the file back to its pre-append length
/// before returning the error, so the log stays usable: later appends
/// land after the acknowledged prefix, never after garbage. If the
/// repair itself fails the log is **poisoned** — every further append
/// and reset refuses with an error until the file is reopened (which
/// re-runs torn-tail recovery) — because continuing to write at an
/// unknown offset could bury acknowledged records behind an unscannable
/// frame.
#[derive(Debug)]
pub struct Wal<S: WalStorage = File> {
    storage: S,
    len: u64,
    poisoned: bool,
}

impl Wal<File> {
    /// Open (or create) the log at `path`, recover its intact records
    /// and truncate any torn tail. Returns the log positioned for
    /// appends, the recovered records, and how many torn bytes were
    /// discarded.
    pub(crate) fn open(path: &Path) -> io::Result<(Self, Vec<WalRecord>, u64)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let scanned = scan(&bytes);
        let (records, torn) = if scanned.header_ok {
            if scanned.torn_bytes > 0 {
                file.set_len(scanned.valid_len)?;
                file.sync_data()?;
            }
            (scanned.records, scanned.torn_bytes)
        } else {
            // Unreadable header: either a brand-new file (0 bytes, the
            // common case) or one that died mid-header before any record
            // was acknowledged. Start it over.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            Write::write_all(&mut file, WAL_MAGIC)?;
            Write::write_all(&mut file, &[WAL_VERSION])?;
            file.sync_data()?;
            (Vec::new(), bytes.len() as u64)
        };
        let len = if scanned.header_ok {
            scanned.valid_len
        } else {
            WAL_HEADER_LEN
        };
        file.seek(SeekFrom::Start(len))?;
        Ok((
            Self {
                storage: file,
                len,
                poisoned: false,
            },
            records,
            torn,
        ))
    }
}

impl<S: WalStorage> Wal<S> {
    /// Start an empty log on `storage` (writing and syncing the header).
    /// This is the fault-injection entry point: production opens go
    /// through `Wal::open`, which also recovers existing records.
    pub fn over(mut storage: S) -> io::Result<Self> {
        storage.set_len(0)?;
        storage.seek_to(0)?;
        storage.write_all(WAL_MAGIC)?;
        storage.write_all(&[WAL_VERSION])?;
        storage.sync_data()?;
        Ok(Self {
            storage,
            len: WAL_HEADER_LEN,
            poisoned: false,
        })
    }

    /// The backing storage (for inspecting the byte image in tests).
    pub fn storage(&self) -> &S {
        &self.storage
    }

    /// Mutable access to the backing storage, for arming injected
    /// failures. Mutating the file image itself voids the `Wal`'s
    /// invariants — reopen to recover.
    pub fn storage_mut(&mut self) -> &mut S {
        &mut self.storage
    }

    /// Append one record and fsync it. When this returns `Ok`, the
    /// record is durable; on `Err`, the caller must NOT acknowledge the
    /// mutation. An `Err` leaves the log consistent: the file has been
    /// truncated back to its pre-append length (acknowledged records are
    /// untouched and later appends land cleanly after them), or — if
    /// that repair also failed — the log is poisoned and every further
    /// append fails until the file is reopened.
    ///
    /// A record whose payload exceeds `MAX_RECORD_BYTES` (256 MiB) is rejected
    /// up front (`InvalidInput`) without touching the file: [`scan`]
    /// would refuse the frame on reopen, silently dropping it and every
    /// record after it.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other(
                "wal poisoned by an unrepaired append failure; reopen the log to recover",
            ));
        }
        let payload = payload_len(record);
        if payload > MAX_RECORD_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "wal record payload is {payload} bytes, over the \
                     {MAX_RECORD_BYTES}-byte scan limit"
                ),
            ));
        }
        let mut buf = Vec::new();
        encode_record(&mut buf, record);
        let wrote = self
            .storage
            .write_all(&buf)
            .and_then(|()| self.storage.sync_data());
        match wrote {
            Ok(()) => {
                self.len += buf.len() as u64;
                Ok(())
            }
            Err(e) => {
                // Partial (or fully written but unacknowledged) frame
                // bytes sit at the cursor: cut them off so the next
                // append continues from the acknowledged prefix, and so
                // a sync-failed-but-written record cannot resurrect on
                // replay.
                if self.repair().is_err() {
                    self.poisoned = true;
                }
                Err(e)
            }
        }
    }

    /// Restore the on-disk invariant `file == acknowledged prefix` after
    /// a failed write: truncate to the last acknowledged length, move
    /// the cursor back, and sync the truncation.
    fn repair(&mut self) -> io::Result<()> {
        self.storage.set_len(self.len)?;
        self.storage.seek_to(self.len)?;
        self.storage.sync_data()
    }

    /// Discard all records (the snapshot now owns them): truncate back
    /// to the header and fsync. On `Err` the log is poisoned — the file
    /// may or may not have shrunk, so the in-memory length can no longer
    /// be trusted; reopen to recover. (The records themselves stay safe
    /// either way: they are idempotent against the snapshot that
    /// prompted the reset.)
    pub(crate) fn reset(&mut self) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other(
                "wal poisoned by an unrepaired append failure; reopen the log to recover",
            ));
        }
        let result = self
            .storage
            .set_len(WAL_HEADER_LEN)
            .and_then(|()| self.storage.seek_to(WAL_HEADER_LEN))
            .and_then(|()| self.storage.sync_data());
        match result {
            Ok(()) => {
                self.len = WAL_HEADER_LEN;
                Ok(())
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    /// Current file length in bytes (header included).
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// True when the log holds no records.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == WAL_HEADER_LEN
    }

    /// True when a failed append could not be repaired: the log refuses
    /// all writes until reopened.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }
}

fn varint_len(mut v: u64) -> u64 {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

/// Byte length of `record`'s frame payload (tag + varints + text),
/// computed without building it.
fn payload_len(record: &WalRecord) -> u64 {
    match record {
        WalRecord::Insert { id, text } => {
            1 + varint_len(u64::from(*id))
                + varint_len(text.len() as u64)
                + text.len() as u64
        }
        WalRecord::Delete { id } => 1 + varint_len(u64::from(*id)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Insert {
                id: 0,
                text: "Taliban attacked Kunar.".into(),
            },
            WalRecord::Delete { id: 0 },
            WalRecord::Insert {
                id: 1,
                text: "Pakistan held talks in Khyber — über déjà-vu.".into(),
            },
            WalRecord::Insert {
                id: 2,
                text: String::new(),
            },
            WalRecord::Delete { id: 2 },
        ]
    }

    fn image(records: &[WalRecord]) -> (Vec<u8>, Vec<u64>) {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(WAL_MAGIC);
        bytes.push(WAL_VERSION);
        // Byte offset at which each record's frame *ends*.
        let mut ends = Vec::new();
        for r in records {
            encode_record(&mut bytes, r);
            ends.push(bytes.len() as u64);
        }
        (bytes, ends)
    }

    #[test]
    fn encode_scan_round_trip() {
        let records = sample_records();
        let (bytes, _) = image(&records);
        let scanned = scan(&bytes);
        assert!(scanned.header_ok);
        assert_eq!(scanned.records, records);
        assert_eq!(scanned.valid_len, bytes.len() as u64);
        assert_eq!(scanned.torn_bytes, 0);
    }

    #[test]
    fn scan_of_every_prefix_recovers_exactly_the_whole_frames() {
        let records = sample_records();
        let (bytes, ends) = image(&records);
        for cut in 0..=bytes.len() {
            let scanned = scan(&bytes[..cut]);
            if cut < WAL_HEADER_LEN as usize {
                assert!(!scanned.header_ok, "cut {cut}");
                assert_eq!(scanned.torn_bytes, cut as u64);
                continue;
            }
            // Exactly the records whose frames fit wholly in the prefix.
            let expect = ends.iter().filter(|&&e| e <= cut as u64).count();
            assert_eq!(scanned.records.len(), expect, "cut {cut}");
            assert_eq!(scanned.records[..], records[..expect], "cut {cut}");
            let valid = ends[..expect].last().copied().unwrap_or(WAL_HEADER_LEN);
            assert_eq!(scanned.valid_len, valid, "cut {cut}");
            assert_eq!(scanned.torn_bytes, cut as u64 - valid, "cut {cut}");
        }
    }

    #[test]
    fn scan_stops_at_any_flipped_byte_and_keeps_the_prefix() {
        let records = sample_records();
        let (bytes, ends) = image(&records);
        for at in WAL_HEADER_LEN as usize..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x10;
            let scanned = scan(&bad);
            assert!(scanned.header_ok, "flip at {at}");
            // Recovered records must be a prefix of the originals: a
            // flip never invents or reorders mutations. Records whose
            // frames end at or before the flipped byte are untouched.
            let intact = ends.iter().filter(|&&e| e <= at as u64).count();
            assert!(scanned.records.len() >= intact, "flip at {at}");
            assert_eq!(
                scanned.records[..],
                records[..scanned.records.len()],
                "flip at {at}"
            );
        }
    }

    #[test]
    fn scan_rejects_foreign_headers() {
        for bytes in [
            &b""[..],
            &b"NLW"[..],
            &b"XXXX\x01"[..],
            &b"NLWL\x09"[..], // wrong version
        ] {
            let scanned = scan(bytes);
            assert!(!scanned.header_ok);
            assert!(scanned.records.is_empty());
            assert_eq!(scanned.torn_bytes, bytes.len() as u64);
        }
    }

    fn temp_wal(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("newslink_wal_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn file_append_reopen_and_reset() {
        let path = temp_wal("roundtrip.wal");
        std::fs::remove_file(&path).ok();
        let records = sample_records();
        {
            let (mut wal, recovered, torn) = Wal::open(&path).unwrap();
            assert!(recovered.is_empty());
            assert_eq!(torn, 0);
            assert!(wal.is_empty());
            for r in &records {
                wal.append(r).unwrap();
            }
            assert!(!wal.is_empty());
        }
        // Reopen: every acknowledged record is back, none torn.
        let (mut wal, recovered, torn) = Wal::open(&path).unwrap();
        assert_eq!(recovered, records);
        assert_eq!(torn, 0);
        // Checkpoint: reset empties the log durably.
        wal.reset().unwrap();
        drop(wal);
        let (wal, recovered, torn) = Wal::open(&path).unwrap();
        assert!(recovered.is_empty());
        assert_eq!(torn, 0);
        assert!(wal.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_truncates_torn_tail_and_appends_continue() {
        let path = temp_wal("torn.wal");
        std::fs::remove_file(&path).ok();
        let records = sample_records();
        {
            let (mut wal, _, _) = Wal::open(&path).unwrap();
            for r in &records[..3] {
                wal.append(r).unwrap();
            }
        }
        // Simulate a crash mid-append: half of a fourth record on disk.
        let mut torn_frame = Vec::new();
        encode_record(&mut torn_frame, &records[3]);
        let keep = torn_frame.len() / 2;
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            Write::write_all(&mut f, &torn_frame[..keep]).unwrap();
        }
        let (mut wal, recovered, torn) = Wal::open(&path).unwrap();
        assert_eq!(recovered, records[..3], "acknowledged records survive");
        assert_eq!(torn, keep as u64, "the torn tail is measured and dropped");
        // The log is usable immediately: a fresh append lands cleanly.
        wal.append(&records[4]).unwrap();
        drop(wal);
        let (_, recovered, torn) = Wal::open(&path).unwrap();
        assert_eq!(recovered.len(), 4);
        assert_eq!(recovered[3], records[4]);
        assert_eq!(torn, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unreadable_header_restarts_the_file() {
        let path = temp_wal("badheader.wal");
        std::fs::write(&path, b"NL").unwrap(); // died mid-header
        let (wal, recovered, torn) = Wal::open(&path).unwrap();
        assert!(recovered.is_empty());
        assert_eq!(torn, 2);
        assert!(wal.is_empty());
        drop(wal);
        assert_eq!(std::fs::read(&path).unwrap(), b"NLWL\x01");
        std::fs::remove_file(&path).ok();
    }

    use newslink_util::failpoint::{is_injected, FailMode, FaultMedia};

    /// A failed append (torn at every byte offset of the frame, in both
    /// failure modes) repairs the file back to the acknowledged prefix,
    /// and the log keeps accepting appends.
    #[test]
    fn failed_append_repairs_the_file_and_the_log_continues() {
        let records = sample_records();
        let mut frame = Vec::new();
        encode_record(&mut frame, &records[1]);
        for mode in [FailMode::Clean, FailMode::ShortWrite] {
            for cut in 0..frame.len() {
                let label = format!("mode {mode:?}, cut {cut}");
                let mut wal = Wal::over(FaultMedia::new()).unwrap();
                wal.append(&records[0]).unwrap();
                let len_before = wal.len();

                wal.storage_mut().fail_write_after(cut as u64, mode);
                let err = wal.append(&records[1]).unwrap_err();
                assert!(is_injected(&err), "{label}: {err}");
                assert!(!wal.is_poisoned(), "{label}: repair succeeded");
                assert_eq!(wal.len(), len_before, "{label}: length not advanced");

                // The file holds exactly the acknowledged record: no
                // partial frame bytes survive the repair.
                let scanned = scan(wal.storage().contents());
                assert_eq!(scanned.records, records[..1], "{label}");
                assert_eq!(scanned.torn_bytes, 0, "{label}: garbage truncated");

                // The next append lands cleanly after the prefix — not
                // after garbage — so nothing acknowledged is ever lost.
                wal.append(&records[2]).unwrap();
                let scanned = scan(wal.storage().contents());
                assert_eq!(
                    scanned.records,
                    vec![records[0].clone(), records[2].clone()],
                    "{label}"
                );
                assert_eq!(scanned.torn_bytes, 0, "{label}");
            }
        }
    }

    /// The subtle case: the frame is *fully written* but the fsync
    /// fails. The record was never acknowledged, so the repair must
    /// remove it — otherwise a crash-free continuation (or a replay)
    /// would resurrect a mutation the caller never applied.
    #[test]
    fn failed_fsync_rolls_the_unacknowledged_frame_back() {
        let records = sample_records();
        let mut wal = Wal::over(FaultMedia::new()).unwrap();
        wal.append(&records[0]).unwrap();

        wal.storage_mut().fail_next_sync();
        let err = wal.append(&records[1]).unwrap_err();
        assert!(is_injected(&err), "{err}");
        assert!(!wal.is_poisoned());
        let scanned = scan(wal.storage().contents());
        assert_eq!(scanned.records, records[..1], "unsynced frame removed");
        assert_eq!(scanned.torn_bytes, 0);

        wal.append(&records[2]).unwrap();
        let scanned = scan(wal.storage().contents());
        assert_eq!(scanned.records, vec![records[0].clone(), records[2].clone()]);
    }

    /// When the repair itself fails, the log poisons itself: every later
    /// append and reset refuses, and reopening the image recovers
    /// exactly the acknowledged records (the garbage tail scans as torn).
    #[test]
    fn failed_repair_poisons_the_log() {
        let records = sample_records();
        let mut wal = Wal::over(FaultMedia::new()).unwrap();
        wal.append(&records[0]).unwrap();

        wal.storage_mut().fail_write_after(3, FailMode::ShortWrite);
        wal.storage_mut().fail_next_set_len();
        let err = wal.append(&records[1]).unwrap_err();
        assert!(is_injected(&err), "{err}");
        assert!(wal.is_poisoned());

        let err = wal.append(&records[2]).unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
        let err = wal.reset().unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");

        // The image still recovers every acknowledged record; the three
        // torn bytes the failed repair left behind scan as a torn tail.
        let scanned = scan(wal.storage().contents());
        assert_eq!(scanned.records, records[..1]);
        assert_eq!(scanned.torn_bytes, 3);
    }

    /// A failed reset poisons (the file may or may not have shrunk), and
    /// the acknowledged records survive for the reopen.
    #[test]
    fn failed_reset_poisons_the_log() {
        let records = sample_records();
        let mut wal = Wal::over(FaultMedia::new()).unwrap();
        wal.append(&records[0]).unwrap();
        wal.storage_mut().fail_next_set_len();
        assert!(wal.reset().is_err());
        assert!(wal.is_poisoned());
        assert!(wal.append(&records[1]).is_err());
        let scanned = scan(wal.storage().contents());
        assert_eq!(scanned.records, records[..1]);
    }

    /// An oversized record is refused before any byte reaches the file:
    /// fsyncing a frame `scan` would reject silently drops it (and every
    /// record after it) on reopen.
    #[test]
    fn oversized_record_is_rejected_before_touching_the_file() {
        let records = sample_records();
        let mut wal = Wal::over(FaultMedia::new()).unwrap();
        wal.append(&records[0]).unwrap();
        let len_before = wal.len();

        let big = String::from_utf8(vec![b'x'; MAX_RECORD_BYTES as usize]).unwrap();
        let err = wal
            .append(&WalRecord::Insert { id: 7, text: big })
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert!(!wal.is_poisoned(), "a rejected record is not a failure");
        assert_eq!(wal.len(), len_before);
        assert_eq!(
            wal.storage().contents().len() as u64,
            len_before,
            "nothing was written"
        );
        wal.append(&records[1]).unwrap();
    }

    /// `payload_len` agrees with the encoder exactly, so the
    /// `MAX_RECORD_BYTES` gate keys off the real frame size.
    #[test]
    fn payload_len_matches_the_encoder() {
        let mut records = sample_records();
        records.push(WalRecord::Insert {
            id: u32::MAX,
            text: "x".repeat(300), // two-byte length varint
        });
        for r in &records {
            let mut frame = Vec::new();
            encode_record(&mut frame, r);
            let framed = payload_len(r)
                + varint_len(payload_len(r)) // length prefix
                + 4; // CRC
            assert_eq!(frame.len() as u64, framed, "{r:?}");
        }
    }
}
