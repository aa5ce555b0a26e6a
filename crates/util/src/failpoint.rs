//! Deterministic I/O fault injection for crash-safety tests.
//!
//! Durability code is only as good as the failures it has been run
//! against, and real disks fail in inconvenient ways: a `write` persists
//! a prefix of the buffer, a process dies between `write` and `fsync`, a
//! file read back after a crash ends mid-record. This module provides
//! small, fully deterministic wrappers that reproduce those shapes on
//! demand so a test can assert recovery behaviour at *every* byte offset
//! rather than at whatever offsets a flaky-VM test happened to hit:
//!
//! - [`FailWriter`] — passes bytes through until a budget is exhausted,
//!   then errors; in [`FailMode::ShortWrite`] the crossing write persists
//!   its prefix first (a torn write), in [`FailMode::Clean`] it persists
//!   nothing (a whole-syscall failure).
//! - [`FailReader`] — the read-side twin, for exercising loaders against
//!   media that dies mid-scan.
//! - [`FaultMedia`] — an in-memory stand-in for a *mutable* file (cursor,
//!   truncate, fsync) with one-shot failure injection per operation, for
//!   exercising error-*recovery* paths: the process survives the failed
//!   syscall and keeps using the file, so tests can assert the repair
//!   left it consistent.
//!
//! All injected errors use [`std::io::ErrorKind::Other`] with a message
//! prefixed `failpoint:` so tests can tell injected failures from real
//! ones.

use std::io::{self, Read, Write};

/// What happens to the write that crosses the failure offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailMode {
    /// The crossing write fails atomically: no bytes of it reach the
    /// inner writer (the whole syscall failed).
    Clean,
    /// The crossing write is torn: the prefix up to the budget reaches
    /// the inner writer, then the error is reported (a short write whose
    /// caller never got to retry).
    ShortWrite,
}

fn injected(at: u64) -> io::Error {
    io::Error::other(format!("failpoint: injected failure at byte {at}"))
}

/// Is `e` an error injected by this module (as opposed to a real one)?
pub fn is_injected(e: &io::Error) -> bool {
    e.to_string().starts_with("failpoint:")
}

/// A [`Write`] that forwards `budget` bytes and then fails every call.
#[derive(Debug)]
pub struct FailWriter<W: Write> {
    inner: W,
    budget: u64,
    written: u64,
    mode: FailMode,
    tripped: bool,
}

impl<W: Write> FailWriter<W> {
    /// Forward exactly `budget` bytes to `inner`, then start failing.
    pub fn new(inner: W, budget: u64, mode: FailMode) -> Self {
        Self {
            inner,
            budget,
            written: 0,
            mode,
            tripped: false,
        }
    }

    /// Recover the inner writer (e.g. the `Vec<u8>` holding the torn
    /// prefix) for post-crash inspection.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FailWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.tripped {
            return Err(injected(self.budget));
        }
        let remaining = self.budget - self.written;
        if (buf.len() as u64) <= remaining {
            let n = self.inner.write(buf)?;
            self.written += n as u64;
            return Ok(n);
        }
        // This write crosses the failure offset.
        self.tripped = true;
        if self.mode == FailMode::ShortWrite && remaining > 0 {
            self.inner.write_all(&buf[..remaining as usize])?;
            self.written += remaining;
        }
        Err(injected(self.budget))
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.tripped {
            return Err(injected(self.budget));
        }
        self.inner.flush()
    }
}

/// A [`Read`] that yields `budget` bytes and then fails every call.
#[derive(Debug)]
pub struct FailReader<R: Read> {
    inner: R,
    budget: u64,
    read: u64,
}

impl<R: Read> FailReader<R> {
    /// Yield exactly `budget` bytes from `inner`, then start failing.
    pub fn new(inner: R, budget: u64) -> Self {
        Self {
            inner,
            budget,
            read: 0,
        }
    }
}

impl<R: Read> Read for FailReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let remaining = self.budget - self.read;
        if remaining == 0 {
            return Err(injected(self.budget));
        }
        let cap = buf.len().min(remaining as usize);
        let n = self.inner.read(&mut buf[..cap])?;
        self.read += n as u64;
        Ok(n)
    }
}

/// An in-memory stand-in for a mutable on-disk file: a byte image with a
/// cursor, positioned writes, truncate and fsync — the operations a
/// write-ahead log performs — plus deterministic **one-shot** failure
/// injection on each of them.
///
/// Where [`FailWriter`] models a writer that is abandoned after its
/// failure (the crash shape), `FaultMedia` models the *transient* shape:
/// the failed syscall returns an error, the process keeps the file open
/// and keeps using it. Recovery code can therefore be driven through its
/// repair path and the resulting image inspected with
/// [`contents`](Self::contents).
#[derive(Debug, Default)]
pub struct FaultMedia {
    bytes: Vec<u8>,
    pos: usize,
    /// `Some((remaining_budget, mode))`: the write crossing the budget
    /// fails (tearing its prefix in [`FailMode::ShortWrite`]) and clears
    /// the plan, so later writes succeed again.
    write_plan: Option<(u64, FailMode)>,
    fail_next_sync: bool,
    fail_next_set_len: bool,
    syncs: u64,
}

impl FaultMedia {
    /// An empty file with no failures armed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm a one-shot write failure: the write that would carry the file
    /// past `budget` further bytes fails (persisting its prefix up to
    /// the budget in [`FailMode::ShortWrite`], nothing of itself in
    /// [`FailMode::Clean`]); writes after the failing one succeed.
    pub fn fail_write_after(&mut self, budget: u64, mode: FailMode) {
        self.write_plan = Some((budget, mode));
    }

    /// Arm a one-shot [`sync_data`](Self::sync_data) failure.
    pub fn fail_next_sync(&mut self) {
        self.fail_next_sync = true;
    }

    /// Arm a one-shot [`set_len`](Self::set_len) failure.
    pub fn fail_next_set_len(&mut self) {
        self.fail_next_set_len = true;
    }

    /// The current byte image of the file.
    pub fn contents(&self) -> &[u8] {
        &self.bytes
    }

    fn splice(&mut self, buf: &[u8]) {
        let end = self.pos + buf.len();
        if end > self.bytes.len() {
            self.bytes.resize(end, 0);
        }
        self.bytes[self.pos..end].copy_from_slice(buf);
        self.pos = end;
    }

    /// Write all of `buf` at the cursor (overwriting, then extending),
    /// honouring an armed write failure.
    pub fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        if let Some((budget, mode)) = self.write_plan.take() {
            if (buf.len() as u64) > budget {
                if mode == FailMode::ShortWrite {
                    self.splice(&buf[..budget as usize]);
                }
                return Err(injected(self.pos as u64));
            }
            self.write_plan = Some((budget - buf.len() as u64, mode));
        }
        self.splice(buf);
        Ok(())
    }

    /// The fsync point; a no-op here (the image is always "durable"),
    /// but it honours an armed sync failure.
    pub fn sync_data(&mut self) -> io::Result<()> {
        if self.fail_next_sync {
            self.fail_next_sync = false;
            return Err(io::Error::other("failpoint: injected fsync failure"));
        }
        self.syncs += 1;
        Ok(())
    }

    /// Truncate (or zero-extend) the file to `len` bytes. Like
    /// `File::set_len`, the cursor does not move.
    pub fn set_len(&mut self, len: u64) -> io::Result<()> {
        if self.fail_next_set_len {
            self.fail_next_set_len = false;
            return Err(io::Error::other("failpoint: injected truncate failure"));
        }
        self.bytes.resize(len as usize, 0);
        Ok(())
    }

    /// Move the cursor to absolute offset `pos`.
    pub fn seek_to(&mut self, pos: u64) -> io::Result<()> {
        self.pos = pos as usize;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_mode_crossing_write_persists_nothing() {
        let mut w = FailWriter::new(Vec::new(), 5, FailMode::Clean);
        w.write_all(b"abc").unwrap();
        let err = w.write_all(b"defgh").unwrap_err();
        assert!(is_injected(&err), "{err}");
        assert!(w.tripped);
        assert_eq!(w.into_inner(), b"abc");
    }

    #[test]
    fn short_write_mode_persists_the_prefix() {
        let mut w = FailWriter::new(Vec::new(), 5, FailMode::ShortWrite);
        w.write_all(b"abc").unwrap();
        let err = w.write_all(b"defgh").unwrap_err();
        assert!(is_injected(&err), "{err}");
        assert_eq!(w.written, 5);
        assert_eq!(w.into_inner(), b"abcde");
    }

    #[test]
    fn every_call_fails_after_tripping() {
        let mut w = FailWriter::new(Vec::new(), 0, FailMode::Clean);
        assert!(w.write_all(b"x").is_err());
        assert!(w.write_all(b"y").is_err());
        assert!(w.flush().is_err());
        assert_eq!(w.written, 0);
    }

    #[test]
    fn budget_boundary_is_exact() {
        // Writing exactly the budget succeeds; one more byte fails.
        let mut w = FailWriter::new(Vec::new(), 4, FailMode::ShortWrite);
        w.write_all(b"abcd").unwrap();
        assert!(!w.tripped);
        assert!(w.write_all(b"e").is_err());
        assert_eq!(w.into_inner(), b"abcd");
    }

    #[test]
    fn reader_fails_after_budget() {
        let data = b"hello world".to_vec();
        let mut r = FailReader::new(&data[..], 5);
        let mut out = Vec::new();
        let err = r.read_to_end(&mut out).unwrap_err();
        assert!(is_injected(&err), "{err}");
        assert_eq!(out, b"hello");
    }

    #[test]
    fn fault_media_write_failures_are_one_shot() {
        let mut m = FaultMedia::new();
        m.write_all(b"abc").unwrap();
        m.fail_write_after(2, FailMode::ShortWrite);
        m.write_all(b"de").unwrap(); // within budget
        let err = m.write_all(b"fgh").unwrap_err();
        assert!(is_injected(&err), "{err}");
        assert_eq!(m.contents(), b"abcde", "crossing write tore nothing past the budget");
        // The plan is consumed: the very next write succeeds.
        m.write_all(b"xyz").unwrap();
        assert_eq!(m.contents(), b"abcdexyz");
    }

    #[test]
    fn fault_media_clean_mode_persists_nothing_of_the_crossing_write() {
        let mut m = FaultMedia::new();
        m.fail_write_after(2, FailMode::Clean);
        assert!(m.write_all(b"abc").is_err());
        assert_eq!(m.contents(), b"");
    }

    #[test]
    fn fault_media_truncate_seek_and_overwrite_behave_like_a_file() {
        let mut m = FaultMedia::new();
        m.write_all(b"0123456789").unwrap();
        m.set_len(4).unwrap();
        assert_eq!(m.contents(), b"0123");
        m.seek_to(2).unwrap();
        m.write_all(b"ZZZ").unwrap();
        assert_eq!(m.contents(), b"01ZZZ", "overwrite then extend");
        // set_len past the end zero-fills, like File::set_len.
        m.set_len(7).unwrap();
        assert_eq!(m.contents(), b"01ZZZ\0\0");
    }

    #[test]
    fn fault_media_sync_and_truncate_failures_are_one_shot() {
        let mut m = FaultMedia::new();
        m.fail_next_sync();
        let err = m.sync_data().unwrap_err();
        assert!(is_injected(&err), "{err}");
        m.sync_data().unwrap();
        assert_eq!(m.syncs, 1);
        m.fail_next_set_len();
        assert!(m.set_len(0).is_err());
        m.set_len(0).unwrap();
    }
}
