//! Whole-index persistence: save a built [`NewsLinkIndex`] to one file and
//! reload it without re-embedding the corpus.
//!
//! Corpus embedding dominates indexing cost (Figure 7), so a production
//! deployment builds once and serves many sessions. There is one on-disk
//! format, version 4; a file carrying any other version byte is refused
//! with [`PersistError::UnsupportedVersion`] (re-index to upgrade):
//!
//! ```text
//! [NLNK][4][header frame]  …pad…  [section 0] …pad… [section N-1]
//! [directory: N × {offset u64, len u64, xxh64 u64}][dir CRC u32][NL4F]
//! ```
//!
//! The header frame (`[len varint][body][CRC-32]`) carries the graph
//! fingerprint, id allocator, lifecycle counters, tombstones and
//! segment count. Every segment then lives in its own **64-byte-aligned,
//! checksummed section** addressed by the offset directory at the tail —
//! no pointer chasing, no length-prefixed deserialization walk. Inside a
//! section every table is fixed-width little-endian (globals, embedding
//! record ends, the columnar BOW/BON indexes of
//! [`newslink_text::read_index_columnar`]). A snapshot loads in one way:
//! the file is read into one heap buffer, every section's checksum is
//! verified, and each section is decoded eagerly with full validation.
//! Posting data and the encoded doc store stay slices of that buffer
//! rather than copies.
//!
//! - **Detection**: a bit flip anywhere fails a checksum instead of
//!   deserializing into silently wrong postings.
//! - **Isolation**: [`read_newslink_index_tolerant`] quarantines damaged
//!   segments and loads the rest, reporting what was lost in a
//!   [`LoadReport`]. Because each section is located by the directory —
//!   not by walking its predecessors — a corrupt section quarantines
//!   *alone*; later segments still load.
//!
//! [`save_newslink_index`] is crash-atomic: it writes `<path>.tmp`,
//! fsyncs the file, renames it over `path` and fsyncs the parent
//! directory, so a crash mid-save leaves the previous snapshot intact.
//! Failures surface as typed [`PersistError`]s — a corrupt or truncated
//! file, a checksum mismatch, a version mismatch and a foreign graph are
//! distinguishable without string matching.

use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;

use newslink_embed::codec as embed_codec;
use newslink_kg::KnowledgeGraph;
use newslink_nlp::MatchStats;
use newslink_text::{read_index_columnar, write_index_columnar};
use newslink_util::{crc32, varint, xxh64, Bytes, ComponentTimer, FxHashSet};

use crate::indexer::NewsLinkIndex;
use crate::segment::{DocStore, IndexSegment};

const MAGIC: &[u8; 4] = b"NLNK";
/// The one format this build writes and reads: aligned,
/// directory-addressed sections with fixed-width tables. Any other
/// version byte is refused, not migrated.
const VERSION: u8 = 4;

/// No frame in a real index approaches this; a longer length prefix
/// means the prefix itself is corrupt.
const MAX_FRAME_BYTES: u64 = 1 << 32;

/// Segment sections start on this alignment (cache-line sized; also
/// keeps the fixed-width u32 tables 4-byte aligned within the file).
const SECTION_ALIGN: usize = 64;
/// One directory entry: `offset u64 | len u64 | xxh64 u64`,
/// little-endian. Section payloads are bulk data checked on every open,
/// so they carry XXH64 (see `newslink_util::xxh64` for why); the small
/// envelope frames keep CRC-32.
const DIR_ENTRY_BYTES: usize = 24;
/// Fixed section preamble: `n_docs | bow_len | bon_len | emb_len`.
const SECTION_HEADER_BYTES: usize = 16;
/// Trailing magic confirming the directory + footer are present.
const FOOTER_MAGIC: &[u8; 4] = b"NL4F";
/// Footer: `[directory CRC-32 u32][NL4F]`.
const FOOTER_BYTES: usize = 8;

/// Why a snapshot could not be written or read back.
#[derive(Debug)]
pub enum PersistError {
    /// The underlying reader/writer failed (includes truncation, which
    /// surfaces as `UnexpectedEof`).
    Io(io::Error),
    /// The file does not start with the `NLNK` magic.
    BadMagic,
    /// The file's format version is not the one this build understands.
    UnsupportedVersion(u8),
    /// The snapshot was built against a different graph build.
    GraphMismatch {
        /// Node count recorded in the file.
        file_nodes: usize,
        /// Edge count recorded in the file.
        file_edges: usize,
        /// Node count of the graph given to the loader.
        graph_nodes: usize,
        /// Edge count of the graph given to the loader.
        graph_edges: usize,
    },
    /// A frame's stored checksum (CRC-32 for envelope frames, XXH64 for
    /// v4 segment sections) does not match its bytes: the file was
    /// corrupted at rest or in transit.
    ChecksumMismatch {
        /// Which frame failed ("header" or "segment N").
        what: String,
        /// The checksum recorded in the file.
        stored: u64,
        /// The checksum of the bytes actually read.
        computed: u64,
    },
    /// The manifest decoded but violates a structural invariant.
    Corrupt(String),
    /// Replaying a WAL insert did not land on the id the log recorded:
    /// the engine allocating ids during recovery disagrees with the one
    /// that wrote the log (e.g. a config change between runs). Serving
    /// the result would corrupt every later delete replay, so recovery
    /// fails instead.
    ReplayDiverged {
        /// The id the WAL recorded for the insert.
        logged: u32,
        /// The id the replayed insert actually received.
        got: u32,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::BadMagic => write!(f, "bad magic (not a NewsLink index file)"),
            Self::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported index version {v} (this build reads {VERSION})"
                )
            }
            Self::GraphMismatch {
                file_nodes,
                file_edges,
                graph_nodes,
                graph_edges,
            } => write!(
                f,
                "index was built against a different graph \
                 ({file_nodes} nodes / {file_edges} edges vs {graph_nodes} / {graph_edges})"
            ),
            Self::ChecksumMismatch {
                what,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch in {what}: stored {stored:#x}, computed {computed:#x}"
            ),
            Self::Corrupt(msg) => write!(f, "corrupt index manifest: {msg}"),
            Self::ReplayDiverged { logged, got } => write!(
                f,
                "wal replay diverged: logged insert id {logged} landed on {got} \
                 (was the engine config changed since the log was written?)"
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// What a tolerant load salvaged and what it had to give up, plus the
/// write-ahead-log replay counters filled in by
/// [`DurableStore::open`](crate::store::DurableStore::open).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Segments that decoded and validated.
    pub segments_loaded: usize,
    /// Segments dropped because their frame failed its checksum, was
    /// truncated, or violated a structural invariant. Their documents
    /// are gone until the corpus is re-indexed; the id allocator still
    /// accounts for them, so fresh inserts never reuse their ids.
    pub quarantined_segments: usize,
    /// Tombstones referencing documents that no longer resolve (their
    /// segment was quarantined).
    pub dropped_tombstones: usize,
    /// WAL records re-applied over the snapshot on open.
    pub wal_records_replayed: usize,
    /// WAL records skipped during replay because the snapshot already
    /// reflected them (replay is idempotent).
    pub wal_records_skipped: usize,
    /// Bytes discarded from the WAL tail: a torn final append.
    pub wal_truncated_bytes: u64,
}

impl LoadReport {
    /// True when data was lost: the store is serving a subset of the
    /// corpus and operators should re-index.
    pub fn degraded(&self) -> bool {
        self.quarantined_segments > 0
    }
}

/// Encode the header frame body.
fn encode_header_body(index: &NewsLinkIndex, graph: &KnowledgeGraph) -> io::Result<Vec<u8>> {
    let mut body = Vec::new();
    // Graph fingerprint.
    varint::write_u64(&mut body, graph.node_count() as u64)?;
    varint::write_u64(&mut body, graph.edge_count() as u64)?;
    // Id allocator + lifecycle counters.
    varint::write_u64(&mut body, u64::from(index.next_id))?;
    varint::write_u64(&mut body, index.compactions)?;
    varint::write_u64(&mut body, index.match_stats.identified as u64)?;
    varint::write_u64(&mut body, index.match_stats.matched as u64)?;
    varint::write_u64(&mut body, index.embedded_docs as u64)?;
    // Tombstones, sorted for determinism.
    let mut tombstones: Vec<u32> = index.tombstones.iter().copied().collect();
    tombstones.sort_unstable();
    varint::write_u64(&mut body, tombstones.len() as u64)?;
    for t in tombstones {
        varint::write_u64(&mut body, u64::from(t))?;
    }
    varint::write_u64(&mut body, index.segments.len() as u64)?;
    Ok(body)
}

/// Serialize a built index: header frame, aligned checksummed segment
/// sections, offset directory, footer.
/// The bytes are assembled in memory first (offsets must be known), then
/// streamed to `out` — so failpoint writers still see one sequential
/// write.
pub fn write_newslink_index<W: Write>(
    index: &NewsLinkIndex,
    graph: &KnowledgeGraph,
    out: &mut W,
) -> Result<(), PersistError> {
    let bytes = encode_newslink_index(index, graph)?;
    out.write_all(&bytes)?;
    Ok(())
}

/// Encode the snapshot into one buffer.
fn encode_newslink_index(
    index: &NewsLinkIndex,
    graph: &KnowledgeGraph,
) -> Result<Vec<u8>, PersistError> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    write_frame(&mut out, &encode_header_body(index, graph)?)?;

    let mut dir = Vec::with_capacity(index.segments.len() * DIR_ENTRY_BYTES);
    for seg in &index.segments {
        // Pad so every section starts on a SECTION_ALIGN boundary.
        out.resize(out.len().next_multiple_of(SECTION_ALIGN), 0);
        let section = encode_segment_section(seg)?;
        dir.extend_from_slice(&(out.len() as u64).to_le_bytes());
        dir.extend_from_slice(&(section.len() as u64).to_le_bytes());
        dir.extend_from_slice(&xxh64(&section).to_le_bytes());
        out.extend_from_slice(&section);
    }
    out.extend_from_slice(&dir);
    out.extend_from_slice(&crc32(&dir).to_le_bytes());
    out.extend_from_slice(FOOTER_MAGIC);
    Ok(out)
}

/// Encode one segment as a v4 section: a fixed preamble, the
/// fixed-width global-id and embedding-end tables, the columnar BOW and
/// BON indexes, and the concatenated encoded doc store.
fn encode_segment_section(seg: &IndexSegment) -> Result<Vec<u8>, PersistError> {
    let n = seg.len();
    let mut bow_buf = Vec::new();
    write_index_columnar(seg.bow(), &mut bow_buf)?;
    let mut bon_buf = Vec::new();
    write_index_columnar(seg.bon(), &mut bon_buf)?;
    let mut emb_buf = Vec::new();
    let mut ends = Vec::with_capacity(n);
    for e in seg.embeddings() {
        embed_codec::write_embedding(e, &mut emb_buf)?;
        ends.push(section_u32(emb_buf.len(), "doc store")?);
    }

    let mut out =
        Vec::with_capacity(SECTION_HEADER_BYTES + 8 * n + bow_buf.len() + bon_buf.len() + emb_buf.len());
    out.extend_from_slice(&section_u32(n, "doc count")?.to_le_bytes());
    out.extend_from_slice(&section_u32(bow_buf.len(), "BOW index")?.to_le_bytes());
    out.extend_from_slice(&section_u32(bon_buf.len(), "BON index")?.to_le_bytes());
    out.extend_from_slice(&section_u32(emb_buf.len(), "doc store")?.to_le_bytes());
    for &g in seg.globals() {
        out.extend_from_slice(&g.to_le_bytes());
    }
    for end in ends {
        out.extend_from_slice(&end.to_le_bytes());
    }
    out.extend_from_slice(&bow_buf);
    out.extend_from_slice(&bon_buf);
    out.extend_from_slice(&emb_buf);
    Ok(out)
}

fn section_u32(v: usize, what: &str) -> Result<u32, PersistError> {
    u32::try_from(v)
        .map_err(|_| PersistError::Corrupt(format!("{what} of {v} bytes exceeds a v4 section")))
}

fn write_frame<W: Write>(out: &mut W, body: &[u8]) -> io::Result<()> {
    varint::write_u64(out, body.len() as u64)?;
    out.write_all(body)?;
    out.write_all(&crc32(body).to_le_bytes())
}

/// Read one `[len][body][crc]` frame, verifying the checksum.
fn read_frame<R: Read>(input: &mut R, what: &str) -> Result<Vec<u8>, PersistError> {
    let len = varint::read_u64(input)?;
    if len > MAX_FRAME_BYTES {
        return Err(PersistError::Corrupt(format!(
            "{what} frame length {len} is implausible"
        )));
    }
    let mut body = vec![0u8; len as usize];
    input.read_exact(&mut body)?;
    let mut stored = [0u8; 4];
    input.read_exact(&mut stored)?;
    let stored = u32::from_le_bytes(stored);
    let computed = crc32(&body);
    if stored != computed {
        return Err(PersistError::ChecksumMismatch {
            what: what.to_string(),
            stored: stored.into(),
            computed: computed.into(),
        });
    }
    Ok(body)
}

struct Header {
    file_nodes: usize,
    file_edges: usize,
    next_id: u32,
    compactions: u64,
    identified: usize,
    matched: usize,
    embedded_docs: usize,
    tombstones: Vec<u32>,
    n_segments: usize,
}

/// Parse the header frame body. The frame's CRC already passed, so any
/// failure here means the writer produced an invalid manifest: always
/// [`PersistError::Corrupt`].
fn parse_header(mut body: &[u8]) -> Result<Header, PersistError> {
    let input = &mut body;
    let oops = |e: io::Error| PersistError::Corrupt(format!("header frame underruns: {e}"));
    let file_nodes = varint::read_u64(input).map_err(oops)? as usize;
    let file_edges = varint::read_u64(input).map_err(oops)? as usize;
    let next_id = read_u32(input, "next_id")?;
    let compactions = varint::read_u64(input).map_err(oops)?;
    let identified = varint::read_u64(input).map_err(oops)? as usize;
    let matched = varint::read_u64(input).map_err(oops)? as usize;
    let embedded_docs = varint::read_u64(input).map_err(oops)? as usize;
    let n_tombstones = varint::read_u64(input).map_err(oops)? as usize;
    let mut tombstones = Vec::with_capacity(n_tombstones.min(1 << 20));
    for _ in 0..n_tombstones {
        let t = read_u32(input, "tombstone id")?;
        if t >= next_id {
            return Err(PersistError::Corrupt(format!(
                "tombstone id {t} beyond allocator ({next_id})"
            )));
        }
        tombstones.push(t);
    }
    let n_segments = varint::read_u64(input).map_err(oops)? as usize;
    if !input.is_empty() {
        return Err(PersistError::Corrupt(format!(
            "header frame has {} trailing bytes",
            input.len()
        )));
    }
    Ok(Header {
        file_nodes,
        file_edges,
        next_id,
        compactions,
        identified,
        matched,
        embedded_docs,
        tombstones,
        n_segments,
    })
}

/// Parse one segment section and validate every invariant the
/// zero-copy views rely on: exact tiling of the fixed-width tables and
/// blobs, ascending global ids, monotone embedding record ends. The
/// section's checksum has already passed; any failure here is
/// [`Corrupt`].
///
/// The returned segment's posting data and doc store are zero-copy
/// `Bytes` slices of `section`.
///
/// [`Corrupt`]: PersistError::Corrupt
fn parse_segment(
    section: &Bytes,
    si: usize,
    next_id: u32,
    prev_global: Option<u32>,
) -> Result<(IndexSegment, u32), PersistError> {
    let raw: &[u8] = section;
    let oops = |msg: String| PersistError::Corrupt(format!("segment {si}: {msg}"));
    let word = |at: usize| -> Result<usize, PersistError> {
        raw.get(at..at + 4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize)
            .ok_or_else(|| oops(format!("section underruns at byte {at}")))
    };
    let n = word(0)?;
    if n == 0 {
        return Err(PersistError::Corrupt(format!("segment {si} is empty")));
    }
    let bow_len = word(4)?;
    let bon_len = word(8)?;
    let emb_len = word(12)?;
    let globals_at = SECTION_HEADER_BYTES;
    // Every span is a u32, so u64 arithmetic cannot overflow.
    let total = SECTION_HEADER_BYTES as u64
        + 8 * n as u64
        + bow_len as u64
        + bon_len as u64
        + emb_len as u64;
    if total != raw.len() as u64 {
        return Err(oops(format!(
            "section is {} bytes but its tables claim {total}",
            raw.len()
        )));
    }
    let ends_at = globals_at + 4 * n;
    let bow_at = ends_at + 4 * n;
    let bon_at = bow_at + bow_len;
    let emb_at = bon_at + bon_len;

    // Tiling was just proved exact, so both tables slice cleanly; decode
    // them with straight-line chunk walks.
    let mut globals = Vec::with_capacity(n);
    let mut prev = prev_global;
    for w in raw[globals_at..ends_at].chunks_exact(4) {
        let g = u32::from_le_bytes(w.try_into().expect("4 bytes"));
        if prev.is_some_and(|p| p >= g) {
            return Err(oops(format!("global ids not strictly ascending at {g}")));
        }
        if g >= next_id {
            return Err(oops(format!("global id {g} beyond allocator ({next_id})")));
        }
        prev = Some(g);
        globals.push(g);
    }
    let mut ends = Vec::with_capacity(n);
    for (i, w) in raw[ends_at..bow_at].chunks_exact(4).enumerate() {
        let end = u32::from_le_bytes(w.try_into().expect("4 bytes"));
        if ends.last().is_some_and(|&p| p > end) {
            return Err(oops(format!("embedding record ends regress at doc {i}")));
        }
        ends.push(end);
    }
    if ends.last().copied().unwrap_or(0) as usize != emb_len {
        return Err(oops(format!(
            "doc store is {emb_len} bytes but records end at {}",
            ends.last().copied().unwrap_or(0)
        )));
    }

    let bow = read_index_columnar(&section.slice(bow_at..bon_at))
        .map_err(|e| oops(format!("BOW index: {e}")))?;
    let bon = read_index_columnar(&section.slice(bon_at..emb_at))
        .map_err(|e| oops(format!("BON index: {e}")))?;
    if bow.doc_count() != n || bon.doc_count() != n {
        return Err(oops(format!(
            "doc counts misaligned (globals {n}, BOW {}, BON {})",
            bow.doc_count(),
            bon.doc_count()
        )));
    }
    let store = DocStore::lazy(section.slice(emb_at..raw.len()), ends);
    let last = globals[n - 1];
    Ok((
        IndexSegment::from_lazy_parts(bow, bon, store, globals),
        last,
    ))
}

/// Deserialize an index, verifying it was built against `graph` and that
/// every frame checksum and structural invariant holds. Any damage —
/// one flipped bit anywhere — fails the whole load; use
/// [`read_newslink_index_tolerant`] to salvage what survives.
///
/// Reads the stream to its end first: the layout is directory-addressed
/// and needs random access.
pub fn read_newslink_index<R: Read>(
    graph: &KnowledgeGraph,
    input: &mut R,
) -> Result<NewsLinkIndex, PersistError> {
    let mut buf = Vec::new();
    input.read_to_end(&mut buf)?;
    read_newslink_index_bytes(graph, &Bytes::from_vec(buf), false).map(|(index, _)| index)
}

/// Deserialize an index in degraded mode: segments that fail their
/// checksum or validation are *quarantined* (skipped) rather than fatal,
/// and tombstones pointing into quarantined segments are dropped. The
/// envelope — magic, version, graph fingerprint, the header frame and
/// the section directory + footer — must still be intact; without
/// the allocator and manifest there is nothing safe to serve.
///
/// The returned [`LoadReport`] says exactly what was lost;
/// [`LoadReport::degraded`] is the "page the operator" bit.
pub fn read_newslink_index_tolerant<R: Read>(
    graph: &KnowledgeGraph,
    input: &mut R,
) -> Result<(NewsLinkIndex, LoadReport), PersistError> {
    let mut buf = Vec::new();
    input.read_to_end(&mut buf)?;
    read_newslink_index_bytes(graph, &Bytes::from_vec(buf), true)
}

/// Deserialize an index from a whole-file byte region. This is the
/// storage layer's entry point: posting data and the encoded doc store
/// of the loaded index stay views of `bytes`. `tolerant` selects
/// quarantine-and-continue over fail-on-first-damage.
///
/// The envelope is validated first, then each directory-addressed
/// section is checked and parsed independently, so a damaged one
/// quarantines alone.
pub fn read_newslink_index_bytes(
    graph: &KnowledgeGraph,
    bytes: &Bytes,
    tolerant: bool,
) -> Result<(NewsLinkIndex, LoadReport), PersistError> {
    let envelope = parse_envelope(bytes)?;
    check_graph(&envelope.header, graph)?;

    let mut report = LoadReport::default();
    let mut segments = Vec::with_capacity(envelope.header.n_segments.min(1024));
    let mut prev_global: Option<u32> = None;
    for (si, &(start, end, stored)) in envelope.sections.iter().enumerate() {
        let section = bytes.slice(start..end);
        let computed = xxh64(&section);
        let parsed = if computed != stored {
            Err(PersistError::ChecksumMismatch {
                what: format!("segment {si}"),
                stored,
                computed,
            })
        } else {
            parse_segment(&section, si, envelope.header.next_id, prev_global)
        };
        match parsed {
            Ok((seg, last)) => {
                prev_global = Some(last);
                segments.push(seg);
            }
            Err(_) if tolerant => {
                report.quarantined_segments += 1;
            }
            Err(e) => return Err(e),
        }
    }
    assemble_index(envelope.header, segments, report, tolerant)
}

/// The magic and version gate every reader passes: anything but
/// [`VERSION`] is [`PersistError::UnsupportedVersion`].
fn check_magic_and_version(raw: &[u8]) -> Result<(), PersistError> {
    let eof = || PersistError::Io(io::ErrorKind::UnexpectedEof.into());
    if raw.get(..4).ok_or_else(eof)? != MAGIC {
        return Err(PersistError::BadMagic);
    }
    match raw.get(4) {
        None => Err(eof()),
        Some(&VERSION) => Ok(()),
        Some(&v) => Err(PersistError::UnsupportedVersion(v)),
    }
}

/// Reject a snapshot built against a different graph build.
fn check_graph(header: &Header, graph: &KnowledgeGraph) -> Result<(), PersistError> {
    if header.file_nodes != graph.node_count() || header.file_edges != graph.edge_count() {
        return Err(PersistError::GraphMismatch {
            file_nodes: header.file_nodes,
            file_edges: header.file_edges,
            graph_nodes: graph.node_count(),
            graph_edges: graph.edge_count(),
        });
    }
    Ok(())
}

/// The load tail: build the index, resolve tombstones against
/// the segments that survived.
fn assemble_index(
    header: Header,
    segments: Vec<IndexSegment>,
    mut report: LoadReport,
    tolerant: bool,
) -> Result<(NewsLinkIndex, LoadReport), PersistError> {
    report.segments_loaded = segments.len();
    let mut index = NewsLinkIndex {
        segments,
        tombstones: FxHashSet::default(),
        next_id: header.next_id,
        id_stride: 1,
        compactions: header.compactions,
        generation: crate::indexer::fresh_generation(),
        match_stats: MatchStats {
            identified: header.identified,
            matched: header.matched,
        },
        embedded_docs: header.embedded_docs,
        timer: ComponentTimer::new(),
        cache_stats: Default::default(),
    };
    for t in header.tombstones {
        if index.locate(newslink_text::DocId(t)).is_some() {
            index.tombstones.insert(t);
        } else if tolerant {
            report.dropped_tombstones += 1;
        } else {
            return Err(PersistError::Corrupt(format!(
                "tombstone id {t} not stored in any segment"
            )));
        }
    }
    Ok((index, report))
}

/// Parsed envelope: the header plus each section's `(start, end,
/// xxh64)` from the tail directory. Fails on any damage to the header
/// frame, directory checksum or footer — the envelope must be intact
/// even for tolerant loads.
struct Envelope {
    header: Header,
    sections: Vec<(usize, usize, u64)>,
}

/// Validate the envelope of a whole file: magic and version, header
/// frame, footer magic, directory CRC, and per-section bounds against
/// the data region.
fn parse_envelope(raw: &[u8]) -> Result<Envelope, PersistError> {
    check_magic_and_version(raw)?;
    let mut cursor = &raw[5..];
    let header = parse_header(&read_frame(&mut cursor, "header")?)?;
    let header_end = raw.len() - cursor.len();

    if raw.len() < header_end + FOOTER_BYTES || &raw[raw.len() - 4..] != FOOTER_MAGIC {
        return Err(PersistError::Corrupt(
            "missing v4 footer (truncated file?)".to_string(),
        ));
    }
    let stored_dir_crc = u32::from_le_bytes(
        raw[raw.len() - FOOTER_BYTES..raw.len() - 4]
            .try_into()
            .expect("4 bytes"),
    );
    let dir_len = header
        .n_segments
        .checked_mul(DIR_ENTRY_BYTES)
        .filter(|&l| l <= raw.len() - FOOTER_BYTES - header_end)
        .ok_or_else(|| {
            PersistError::Corrupt(format!(
                "directory of {} segments does not fit the file",
                header.n_segments
            ))
        })?;
    let dir_start = raw.len() - FOOTER_BYTES - dir_len;
    let dir = &raw[dir_start..raw.len() - FOOTER_BYTES];
    let computed = crc32(dir);
    if computed != stored_dir_crc {
        return Err(PersistError::ChecksumMismatch {
            what: "segment directory".to_string(),
            stored: stored_dir_crc.into(),
            computed: computed.into(),
        });
    }

    let mut sections = Vec::with_capacity(header.n_segments);
    for si in 0..header.n_segments {
        let e = &dir[si * DIR_ENTRY_BYTES..(si + 1) * DIR_ENTRY_BYTES];
        let offset = u64::from_le_bytes(e[0..8].try_into().expect("8 bytes"));
        let len = u64::from_le_bytes(e[8..16].try_into().expect("8 bytes"));
        let sum = u64::from_le_bytes(e[16..24].try_into().expect("8 bytes"));
        let (Ok(start), Some(end)) = (usize::try_from(offset), offset.checked_add(len)) else {
            return Err(PersistError::Corrupt(format!(
                "segment {si} span {offset}+{len} overflows"
            )));
        };
        let Ok(end) = usize::try_from(end) else {
            return Err(PersistError::Corrupt(format!(
                "segment {si} span {offset}+{len} overflows"
            )));
        };
        if start < header_end || end > dir_start {
            return Err(PersistError::Corrupt(format!(
                "segment {si} span {start}..{end} escapes the data region \
                 ({header_end}..{dir_start})"
            )));
        }
        sections.push((start, end, sum));
    }
    Ok(Envelope { header, sections })
}

/// `(start, end)` byte span of every segment section in a snapshot, in
/// directory order. The fault-injection suites use this to flip bytes
/// inside a chosen segment without hand-walking the layout. Fails
/// exactly when the reader would reject the envelope.
pub fn segment_byte_spans(raw: &[u8]) -> Result<Vec<(usize, usize)>, PersistError> {
    let envelope = parse_envelope(raw)?;
    Ok(envelope
        .sections
        .into_iter()
        .map(|(start, end, _)| (start, end))
        .collect())
}

fn read_u32<R: Read>(input: &mut R, what: &str) -> Result<u32, PersistError> {
    let v = varint::read_u64(input)
        .map_err(|e| PersistError::Corrupt(format!("{what} underruns: {e}")))?;
    u32::try_from(v).map_err(|_| PersistError::Corrupt(format!("{what} {v} overflows u32")))
}

/// Write `bytes` to `path` crash-atomically: write `<path>.tmp`, fsync
/// it, rename over `path`, fsync the parent directory. A crash at any
/// point leaves either the old file or the new one, never a torn mix.
pub fn atomic_write_file(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp_name);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            // The rename is only durable once the directory entry is on
            // disk. Best-effort: some filesystems refuse dir fsync.
            if let Ok(dir) = std::fs::File::open(parent) {
                let _ = dir.sync_all();
            }
        }
    }
    Ok(())
}

/// Save to a file, crash-atomically: write `<path>.tmp`, fsync it,
/// rename over `path`, fsync the parent directory.
pub fn save_newslink_index(
    index: &NewsLinkIndex,
    graph: &KnowledgeGraph,
    path: &Path,
) -> Result<(), PersistError> {
    let mut bytes = Vec::new();
    write_newslink_index(index, graph, &mut bytes)?;
    atomic_write_file(path, &bytes)?;
    Ok(())
}

/// Load from a file, strictly (any damage is fatal).
pub fn load_newslink_index(
    graph: &KnowledgeGraph,
    path: &Path,
) -> Result<NewsLinkIndex, PersistError> {
    let mut f = io::BufReader::new(std::fs::File::open(path)?);
    read_newslink_index(graph, &mut f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NewsLinkConfig;
    use crate::pipeline::test_support::{index_corpus, search};
    use newslink_kg::{EntityType, GraphBuilder, LabelIndex};
    use newslink_text::DocId;

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

    const DOCS: &[&str] = &[
        "Taliban attacked Kunar. Pakistan responded near Khyber.",
        "Pakistan held talks in Khyber.",
        "A story with no entities whatsoever.",
    ];

    /// Re-stamp the CRC of the frame whose body spans `[start, end)`
    /// after a deliberate body edit (so the edit reaches the structural
    /// validators instead of tripping the checksum).
    fn restamp_crc(buf: &mut [u8], body_start: usize, body_end: usize) {
        let crc = crc32(&buf[body_start..body_end]);
        buf[body_end..body_end + 4].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn round_trip_preserves_search_behaviour() {
        let (g, li) = world();
        let cfg = NewsLinkConfig::default();
        let idx = index_corpus(&g, &li, &cfg, DOCS);
        let mut buf = Vec::new();
        write_newslink_index(&idx, &g, &mut buf).unwrap();
        let back = read_newslink_index(&g, &mut &buf[..]).unwrap();
        assert_eq!(back.doc_count(), idx.doc_count());
        assert_eq!(back.embedded_docs, idx.embedded_docs);
        assert_eq!(back.match_stats, idx.match_stats);
        for q in ["Taliban near Kunar", "Pakistan talks"] {
            let a = search(&g, &li, &cfg, &idx, q, 3);
            let b = search(&g, &li, &cfg, &back, q, 3);
            assert_eq!(a.results.len(), b.results.len(), "query {q}");
            for (x, y) in a.results.iter().zip(&b.results) {
                assert_eq!(x.doc, y.doc);
                assert!((x.score - y.score).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn multi_segment_round_trip_with_tombstones() {
        let (g, li) = world();
        let cfg = NewsLinkConfig::default().with_segment_docs(1);
        let mut idx = index_corpus(&g, &li, &cfg, DOCS);
        idx.delete(DocId(1));
        assert_eq!(idx.segment_count(), 3);
        assert_eq!(idx.tombstone_count(), 1);

        let mut buf = Vec::new();
        write_newslink_index(&idx, &g, &mut buf).unwrap();
        let back = read_newslink_index(&g, &mut &buf[..]).unwrap();
        assert_eq!(back.segment_count(), 3);
        assert_eq!(back.tombstone_count(), 1);
        assert_eq!(back.compactions(), idx.compactions());
        assert_eq!(back.doc_count(), 2);
        for q in ["Taliban near Kunar", "Pakistan talks", "story entities"] {
            let a = search(&g, &li, &cfg, &idx, q, 3);
            let b = search(&g, &li, &cfg, &back, q, 3);
            assert_eq!(a.results.len(), b.results.len(), "query {q}");
            for (x, y) in a.results.iter().zip(&b.results) {
                assert_eq!(x.doc, y.doc);
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "query {q}");
            }
        }
        // Ids and the allocator survive the round trip: a reloaded index
        // keeps assigning fresh ids.
        let mut back = back;
        assert_eq!(back.reserve_id(), DocId(3));
    }

    #[test]
    fn graph_fingerprint_mismatch_rejected() {
        let (g, li) = world();
        let idx = index_corpus(&g, &li, &NewsLinkConfig::default(), DOCS);
        let mut buf = Vec::new();
        write_newslink_index(&idx, &g, &mut buf).unwrap();
        // A different graph: one extra node.
        let mut b = GraphBuilder::new();
        b.add_node("Lonely", EntityType::Gpe);
        let other = b.freeze();
        let err = read_newslink_index(&other, &mut &buf[..]).unwrap_err();
        assert!(matches!(err, PersistError::GraphMismatch { .. }), "{err}");
        assert!(err.to_string().contains("different graph"), "{err}");
    }

    #[test]
    fn truncated_file_rejected() {
        let (g, li) = world();
        let idx = index_corpus(&g, &li, &NewsLinkConfig::default(), DOCS);
        let mut buf = Vec::new();
        write_newslink_index(&idx, &g, &mut buf).unwrap();
        // Every truncation point must produce an error, never a panic —
        // in tolerant mode too: a cut always tears the envelope (header
        // frame, directory or footer), and that is never salvageable.
        for cut in [3, 5, 9, buf.len() / 2, buf.len() - 3] {
            let err = read_newslink_index(&g, &mut &buf[..cut]);
            assert!(err.is_err(), "cut at {cut} must fail");
            let err = read_newslink_index_tolerant(&g, &mut &buf[..cut]);
            assert!(err.is_err(), "tolerant load of cut at {cut} must fail");
        }
    }

    #[test]
    fn version_mismatch_is_typed() {
        let (g, li) = world();
        let idx = index_corpus(&g, &li, &NewsLinkConfig::default(), DOCS);
        let mut buf = Vec::new();
        write_newslink_index(&idx, &g, &mut buf).unwrap();
        // 3 is the retired sequential-frame format, 2 the pre-checksum
        // one: both are refused by the reader and the span helper alike.
        for old in [3u8, 2] {
            buf[4] = old;
            match read_newslink_index(&g, &mut &buf[..]) {
                Err(PersistError::UnsupportedVersion(v)) => assert_eq!(v, old),
                other => panic!("expected UnsupportedVersion({old}), got {other:?}"),
            }
            assert!(matches!(
                segment_byte_spans(&buf),
                Err(PersistError::UnsupportedVersion(v)) if v == old
            ));
        }
        buf[0] = b'X';
        assert!(matches!(
            read_newslink_index(&g, &mut &buf[..]),
            Err(PersistError::BadMagic)
        ));
    }

    #[test]
    fn corrupt_manifest_is_typed_not_a_panic() {
        let (g, li) = world();
        let cfg = NewsLinkConfig::default().with_segment_docs(1);
        let idx = index_corpus(&g, &li, &cfg, DOCS);
        let mut buf = Vec::new();
        write_newslink_index(&idx, &g, &mut buf).unwrap();
        // The header frame starts after magic + version:
        // `[len varint][body][CRC-32]`. Body layout: nodes(1) edges(1)
        // next_id(1) … — all small varints in this fixture. Zeroing
        // next_id makes every stored global id fall beyond the
        // allocator; the CRC is re-stamped so the edit reaches the
        // structural validator, not the checksum.
        let mut cursor = &buf[5..];
        let len = varint::read_u64(&mut cursor).unwrap() as usize;
        let body_start = buf.len() - cursor.len();
        assert_eq!(buf[body_start + 2], 3, "fixture layout changed");
        buf[body_start + 2] = 0;
        restamp_crc(&mut buf, body_start, body_start + len);
        match read_newslink_index(&g, &mut &buf[..]) {
            Err(PersistError::Corrupt(msg)) => {
                assert!(msg.contains("beyond allocator"), "{msg}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn tolerant_load_drops_tombstones_into_quarantined_segments() {
        let (g, li) = world();
        let cfg = NewsLinkConfig::default().with_segment_docs(1);
        let mut idx = index_corpus(&g, &li, &cfg, DOCS);
        idx.delete(DocId(1));
        let mut buf = Vec::new();
        write_newslink_index(&idx, &g, &mut buf).unwrap();
        // Quarantine segment 1, which holds the tombstoned doc 1.
        let (start, end) = segment_byte_spans(&buf).unwrap()[1];
        buf[(start + end) / 2] ^= 0x08;
        let (back, report) = read_newslink_index_tolerant(&g, &mut &buf[..]).unwrap();
        assert_eq!(report.quarantined_segments, 1);
        assert_eq!(report.dropped_tombstones, 1);
        assert_eq!(back.tombstone_count(), 0);
        assert_eq!(back.doc_count(), 2);
        // Strict mode refuses the same bytes outright.
        assert!(matches!(
            read_newslink_index(&g, &mut &buf[..]),
            Err(PersistError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn tolerant_load_on_clean_bytes_reports_nothing_lost() {
        let (g, li) = world();
        let cfg = NewsLinkConfig::default().with_segment_docs(1);
        let idx = index_corpus(&g, &li, &cfg, DOCS);
        let mut buf = Vec::new();
        write_newslink_index(&idx, &g, &mut buf).unwrap();
        let (back, report) = read_newslink_index_tolerant(&g, &mut &buf[..]).unwrap();
        assert!(!report.degraded());
        assert_eq!(report, LoadReport {
            segments_loaded: 3,
            ..LoadReport::default()
        });
        assert_eq!(back.doc_count(), 3);
    }

    #[test]
    fn display_formats_every_variant() {
        let cases: Vec<(PersistError, &str)> = vec![
            (
                PersistError::Io(io::Error::new(io::ErrorKind::UnexpectedEof, "early eof")),
                "i/o error: early eof",
            ),
            (PersistError::BadMagic, "bad magic"),
            (
                PersistError::UnsupportedVersion(9),
                "unsupported index version 9",
            ),
            (
                PersistError::GraphMismatch {
                    file_nodes: 1,
                    file_edges: 2,
                    graph_nodes: 3,
                    graph_edges: 4,
                },
                "different graph (1 nodes / 2 edges vs 3 / 4)",
            ),
            (
                PersistError::ChecksumMismatch {
                    what: "segment 7".into(),
                    stored: 0xDEAD_BEEF,
                    computed: 0x0BAD_F00D,
                },
                "checksum mismatch in segment 7: stored 0xdeadbeef, computed 0xbadf00d",
            ),
            (
                PersistError::Corrupt("segment 0 is empty".into()),
                "corrupt index manifest: segment 0 is empty",
            ),
            (
                PersistError::ReplayDiverged { logged: 5, got: 7 },
                "wal replay diverged: logged insert id 5 landed on 7",
            ),
        ];
        for (err, needle) in cases {
            let text = err.to_string();
            assert!(text.contains(needle), "{text:?} missing {needle:?}");
        }
        // The source chain exposes the io error and nothing else.
        use std::error::Error;
        assert!(PersistError::Io(io::Error::other("x")).source().is_some());
        assert!(PersistError::BadMagic.source().is_none());
    }

    #[test]
    fn file_round_trip_is_atomic_and_overwrites() {
        let (g, li) = world();
        let idx = index_corpus(&g, &li, &NewsLinkConfig::default(), DOCS);
        let dir = std::env::temp_dir().join(format!(
            "newslink_persist_test_{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.nlnk");
        save_newslink_index(&idx, &g, &path).unwrap();
        let back = load_newslink_index(&g, &path).unwrap();
        assert_eq!(back.doc_count(), 3);
        // No temp residue, and saving over an existing file works.
        assert!(!dir.join("index.nlnk.tmp").exists());
        save_newslink_index(&back, &g, &path).unwrap();
        let again = load_newslink_index(&g, &path).unwrap();
        assert_eq!(again.doc_count(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v4_sections_are_aligned_and_addressable() {
        let (g, li) = world();
        let cfg = NewsLinkConfig::default().with_segment_docs(1);
        let idx = index_corpus(&g, &li, &cfg, DOCS);
        let mut buf = Vec::new();
        write_newslink_index(&idx, &g, &mut buf).unwrap();
        assert_eq!(buf[4], VERSION);
        assert_eq!(&buf[buf.len() - 4..], FOOTER_MAGIC);
        let spans = segment_byte_spans(&buf).unwrap();
        assert_eq!(spans.len(), 3);
        let mut prev_end = 5;
        for &(start, end) in &spans {
            assert_eq!(start % SECTION_ALIGN, 0, "section at {start} misaligned");
            assert!(start >= prev_end && end > start && end <= buf.len());
            prev_end = end;
        }
    }

    #[test]
    fn v4_quarantine_is_per_section_even_for_early_segments() {
        let (g, li) = world();
        let cfg = NewsLinkConfig::default().with_segment_docs(1);
        let idx = index_corpus(&g, &li, &cfg, DOCS);
        let mut buf = Vec::new();
        write_newslink_index(&idx, &g, &mut buf).unwrap();
        // Corrupt the FIRST section: the directory still addresses
        // segments 1 and 2, so only doc 0 is lost.
        let (start, end) = segment_byte_spans(&buf).unwrap()[0];
        buf[(start + end) / 2] ^= 0x20;
        match read_newslink_index(&g, &mut &buf[..]) {
            Err(PersistError::ChecksumMismatch { what, .. }) => assert_eq!(what, "segment 0"),
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
        let (back, report) = read_newslink_index_tolerant(&g, &mut &buf[..]).unwrap();
        assert_eq!(report.quarantined_segments, 1);
        assert_eq!(report.segments_loaded, 2);
        assert!(back.locate(DocId(0)).is_none(), "doc 0 was quarantined");
        assert!(back.locate(DocId(1)).is_some());
        assert!(back.locate(DocId(2)).is_some());
        // The survivors still answer a query, and the lost doc never ranks.
        let out = search(&g, &li, &cfg, &back, "Pakistan talks", 3);
        assert!(out.results.iter().any(|r| r.doc == DocId(1)));
        assert!(out.results.iter().all(|r| r.doc != DocId(0)));
        // The allocator still accounts for the lost doc: fresh ids are new.
        let mut back = back;
        assert_eq!(back.reserve_id(), DocId(3));
    }

    #[test]
    fn v4_directory_and_footer_damage_are_fatal_even_tolerant() {
        let (g, li) = world();
        let cfg = NewsLinkConfig::default().with_segment_docs(1);
        let idx = index_corpus(&g, &li, &cfg, DOCS);
        let mut buf = Vec::new();
        write_newslink_index(&idx, &g, &mut buf).unwrap();
        // Flip a byte inside the directory (between the last section's
        // end and the footer).
        let spans = segment_byte_spans(&buf).unwrap();
        let dir_start = buf.len() - FOOTER_BYTES - spans.len() * DIR_ENTRY_BYTES;
        let mut dirty = buf.clone();
        dirty[dir_start + 3] ^= 0x01;
        match read_newslink_index_tolerant(&g, &mut &dirty[..]) {
            Err(PersistError::ChecksumMismatch { what, .. }) => {
                assert_eq!(what, "segment directory")
            }
            other => panic!("expected directory ChecksumMismatch, got {other:?}"),
        }
        // Mangle the footer magic: the file no longer parses at all.
        let mut nofoot = buf.clone();
        let at = nofoot.len() - 1;
        nofoot[at] = b'X';
        assert!(matches!(
            read_newslink_index_tolerant(&g, &mut &nofoot[..]),
            Err(PersistError::Corrupt(_))
        ));
    }
}
