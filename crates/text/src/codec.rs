//! The on-disk inverted-index section: a columnar, fixed-width layout.
//!
//! This is the BOW/BON index section of a snapshot segment
//! (`newslink_core::persist`). Every table is fixed-width little-endian
//! and addressed by offset, so the reader walks three small tables and
//! then *slices* the posting data blob — no per-posting decode walk at
//! load time. Layout:
//!
//! ```text
//! header    n_terms u32, n_docs u32, total_len u64,
//!           term_blob_len u32, n_blocks u32, data_len u32     (28 bytes)
//! doc_len   n_docs × u32
//! sorted    n_terms × u32 — term ids in ascending term-byte order
//! terms     n_terms × {df u32, count u32, term_end u32,
//!                      block_end u32, data_end u32}           (20 bytes each)
//! term blob concatenated UTF-8 (term i = blob[term_end[i-1]..term_end[i]])
//! blocks    n_blocks × {last_doc u32, max_tf u32, offset u32} (12 bytes each)
//! data      concatenated per-list delta streams                (sliced zero-copy)
//! ```
//!
//! `*_end` columns are cumulative end offsets; entry `i`'s start is entry
//! `i-1`'s end. Posting blocks are stored exactly as
//! [`crate::inverted::PostingList`] holds them in memory (varint
//! `(doc_delta, tf)` pairs), so loading is a slice, not a re-encode. The
//! `sorted` permutation is part of the format and is validated on read.
//!
//! The section travels inside a checksummed segment section of the
//! snapshot, and [`read_index_columnar`] still re-validates everything
//! later slicing relies on (monotone offsets, in-bounds ends, ascending
//! blocks), so damage the checksum missed is a typed error, not a panic.

use std::io;

use newslink_util::Bytes;

use crate::dictionary::{TermDictionary, TermId};
use crate::inverted::{BlockMeta, DocId, InvertedIndex, PostingList, BLOCK_LEN};

fn corrupt(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Fixed-width byte cost of one term-table entry.
const TERM_ENTRY_BYTES: usize = 20;
/// Fixed-width byte cost of one block-table entry.
const BLOCK_ENTRY_BYTES: usize = 12;
/// Columnar header length.
const COLUMNAR_HEADER_BYTES: usize = 28;

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Serialize `index` in the columnar layout.
pub fn write_index_columnar(index: &InvertedIndex, out: &mut Vec<u8>) -> io::Result<()> {
    let dict = index.dictionary();
    let n_terms = dict.len();
    let too_big = || corrupt("columnar section exceeds 4 GiB");
    let as_u32 = |v: usize| u32::try_from(v).map_err(|_| too_big());

    let mut term_blob_len = 0usize;
    let mut n_blocks = 0usize;
    let mut data_len = 0usize;
    for t in 0..n_terms {
        let term = TermId(t as u32);
        term_blob_len += dict.term(term).len();
        let list = index.postings(term);
        n_blocks += list.blocks().len();
        data_len += list.raw_data().len();
    }

    push_u32(out, as_u32(n_terms)?);
    push_u32(out, as_u32(index.doc_count())?);
    out.extend_from_slice(&index.total_len().to_le_bytes());
    push_u32(out, as_u32(term_blob_len)?);
    push_u32(out, as_u32(n_blocks)?);
    push_u32(out, as_u32(data_len)?);

    for d in 0..index.doc_count() {
        push_u32(out, index.doc_len(DocId(d as u32)));
    }

    // Sorted permutation: term ids in ascending term-byte order.
    let mut sorted: Vec<u32> = (0..n_terms as u32).collect();
    sorted.sort_by(|&a, &b| dict.term(TermId(a)).as_bytes().cmp(dict.term(TermId(b)).as_bytes()));
    for id in &sorted {
        push_u32(out, *id);
    }

    let (mut term_end, mut block_end, mut data_end) = (0usize, 0usize, 0usize);
    for t in 0..n_terms {
        let term = TermId(t as u32);
        let list = index.postings(term);
        term_end += dict.term(term).len();
        block_end += list.blocks().len();
        data_end += list.raw_data().len();
        push_u32(out, dict.doc_freq(term));
        push_u32(out, as_u32(list.len())?);
        push_u32(out, as_u32(term_end)?);
        push_u32(out, as_u32(block_end)?);
        push_u32(out, as_u32(data_end)?);
    }
    for t in 0..n_terms {
        out.extend_from_slice(dict.term(TermId(t as u32)).as_bytes());
    }
    for t in 0..n_terms {
        for meta in index.postings(TermId(t as u32)).blocks() {
            push_u32(out, meta.last_doc);
            push_u32(out, meta.max_tf);
            push_u32(out, meta.offset);
        }
    }
    for t in 0..n_terms {
        out.extend_from_slice(index.postings(TermId(t as u32)).raw_data());
    }
    Ok(())
}

/// Little-endian u32 at `offset`, bounds-checked.
fn le_u32(bytes: &[u8], offset: usize) -> io::Result<u32> {
    bytes
        .get(offset..offset + 4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .ok_or_else(|| corrupt("columnar section truncated"))
}

/// Deserialize a columnar section. Posting data is *sliced* from
/// `bytes`, so the loaded index shares the snapshot's buffer for its
/// postings; only the dictionary, the doc-length table and the block
/// metadata are copied out. The whole of `bytes` must be the section
/// (no trailing garbage).
pub fn read_index_columnar(bytes: &Bytes) -> io::Result<InvertedIndex> {
    let raw: &[u8] = bytes;
    let n_terms = le_u32(raw, 0)? as usize;
    let n_docs = le_u32(raw, 4)? as usize;
    let total_len = raw
        .get(8..16)
        .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
        .ok_or_else(|| corrupt("columnar section truncated"))?;
    let term_blob_len = le_u32(raw, 16)? as usize;
    let n_blocks = le_u32(raw, 20)? as usize;
    let data_len = le_u32(raw, 24)? as usize;

    let doc_len_at = COLUMNAR_HEADER_BYTES;
    let sorted_at =
        doc_len_at + n_docs.checked_mul(4).ok_or_else(|| corrupt("doc table overflow"))?;
    let terms_at =
        sorted_at + n_terms.checked_mul(4).ok_or_else(|| corrupt("sorted table overflow"))?;
    let blob_at = terms_at
        + n_terms
            .checked_mul(TERM_ENTRY_BYTES)
            .ok_or_else(|| corrupt("term table overflow"))?;
    let blocks_at = blob_at + term_blob_len;
    let data_at = blocks_at
        + n_blocks
            .checked_mul(BLOCK_ENTRY_BYTES)
            .ok_or_else(|| corrupt("block table overflow"))?;
    let end = data_at + data_len;
    if end != raw.len() {
        return Err(corrupt("columnar section length mismatch"));
    }

    let mut doc_len = Vec::with_capacity(n_docs.min(1 << 24));
    let mut sum = 0u64;
    for d in 0..n_docs {
        let l = le_u32(raw, doc_len_at + d * 4)?;
        sum += u64::from(l);
        doc_len.push(l);
    }
    if sum != total_len {
        return Err(corrupt("doc-length table disagrees with total_len"));
    }

    let mut terms = Vec::with_capacity(n_terms.min(1 << 20));
    let mut doc_freq = Vec::with_capacity(n_terms.min(1 << 20));
    let mut postings = Vec::with_capacity(n_terms.min(1 << 20));
    let (mut term_start, mut block_start, mut data_start) = (0usize, 0usize, 0usize);
    for t in 0..n_terms {
        let at = terms_at + t * TERM_ENTRY_BYTES;
        let df = le_u32(raw, at)?;
        let count = le_u32(raw, at + 4)? as usize;
        let term_end = le_u32(raw, at + 8)? as usize;
        let block_end = le_u32(raw, at + 12)? as usize;
        let data_end = le_u32(raw, at + 16)? as usize;
        if term_end < term_start || term_end > term_blob_len {
            return Err(corrupt("term blob offsets not monotone"));
        }
        if block_end < block_start || block_end > n_blocks {
            return Err(corrupt("block table offsets not monotone"));
        }
        if data_end < data_start || data_end > data_len {
            return Err(corrupt("posting data offsets not monotone"));
        }
        if block_end - block_start != count.div_ceil(BLOCK_LEN) {
            return Err(corrupt("posting count disagrees with block count"));
        }
        let term = std::str::from_utf8(&raw[blob_at + term_start..blob_at + term_end])
            .map_err(|_| corrupt("term blob is not UTF-8"))?;
        terms.push(term.to_string());
        doc_freq.push(df);

        let list_len = data_end - data_start;
        let mut blocks = Vec::with_capacity(block_end - block_start);
        let mut prev_offset = 0usize;
        let mut prev_last = 0u32;
        for b in block_start..block_end {
            let at = blocks_at + b * BLOCK_ENTRY_BYTES;
            let last_doc = le_u32(raw, at)?;
            let max_tf = le_u32(raw, at + 4)?;
            let offset = le_u32(raw, at + 8)?;
            if last_doc as usize >= n_docs {
                return Err(corrupt("posting block references unknown document"));
            }
            if b > block_start && (last_doc <= prev_last || (offset as usize) <= prev_offset) {
                return Err(corrupt("posting blocks not ascending"));
            }
            if b == block_start && offset != 0 {
                return Err(corrupt("first posting block must start at offset 0"));
            }
            if offset as usize > list_len {
                return Err(corrupt("posting block offset out of bounds"));
            }
            prev_offset = offset as usize;
            prev_last = last_doc;
            blocks.push(BlockMeta {
                last_doc,
                max_tf,
                offset,
            });
        }
        let data = bytes.slice(data_at + data_start..data_at + data_end);
        postings.push(PostingList::from_raw_parts(data, blocks, count));
        term_start = term_end;
        block_start = block_end;
        data_start = data_end;
    }
    if term_start != term_blob_len || block_start != n_blocks || data_start != data_len {
        return Err(corrupt("columnar tables not fully consumed"));
    }

    // The sorted permutation must enumerate every term exactly once in
    // strictly ascending byte order (distinct terms make strict order
    // imply a permutation).
    let mut prev: Option<&str> = None;
    for i in 0..n_terms {
        let id = le_u32(raw, sorted_at + i * 4)? as usize;
        let term = terms
            .get(id)
            .map(String::as_str)
            .ok_or_else(|| corrupt("sorted table references unknown term"))?;
        if prev.is_some_and(|p| p >= term) {
            return Err(corrupt("sorted table not strictly ascending"));
        }
        prev = Some(term);
    }

    Ok(InvertedIndex::from_parts(
        TermDictionary::from_parts(terms, doc_freq),
        postings,
        doc_len,
        total_len,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inverted::IndexBuilder;
    use crate::score::Bm25;
    use crate::search::Searcher;
    use newslink_util::DetRng;

    fn sample() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add_document(&["taliban", "attack", "pakistan", "attack"]);
        b.add_document(&["pakistan", "election", "results"]);
        b.add_document::<&str>(&[]);
        b.add_document(&["swat", "valley", "clashes"]);
        b.build()
    }

    fn assert_index_eq(a: &InvertedIndex, b: &InvertedIndex) {
        assert_eq!(a.doc_count(), b.doc_count());
        assert_eq!(a.total_len(), b.total_len());
        assert_eq!(a.dictionary().len(), b.dictionary().len());
        for t in 0..a.dictionary().len() {
            let term = TermId(t as u32);
            assert_eq!(a.dictionary().term(term), b.dictionary().term(term));
            assert_eq!(a.dictionary().doc_freq(term), b.dictionary().doc_freq(term));
            assert_eq!(a.postings(term), b.postings(term));
        }
        for d in 0..a.doc_count() {
            assert_eq!(a.doc_len(DocId(d as u32)), b.doc_len(DocId(d as u32)));
        }
    }

    #[test]
    fn columnar_round_trip_preserves_structure() {
        let idx = sample();
        let mut buf = Vec::new();
        write_index_columnar(&idx, &mut buf).unwrap();
        let back = read_index_columnar(&Bytes::from_vec(buf)).unwrap();
        assert_index_eq(&idx, &back);
    }

    #[test]
    fn columnar_round_trip_multi_block_and_empty() {
        let mut b = IndexBuilder::new();
        for i in 0..1000u32 {
            if i % 3 == 0 {
                b.add_document(&["common", "filler"]);
            } else {
                b.add_document(&["common"]);
            }
        }
        let idx = b.build();
        assert!(idx.postings_for("common").blocks().len() > 1);
        let mut buf = Vec::new();
        write_index_columnar(&idx, &mut buf).unwrap();
        let back = read_index_columnar(&Bytes::from_vec(buf)).unwrap();
        assert_index_eq(&idx, &back);

        let empty = IndexBuilder::new().build();
        let mut buf = Vec::new();
        write_index_columnar(&empty, &mut buf).unwrap();
        let back = read_index_columnar(&Bytes::from_vec(buf)).unwrap();
        assert_eq!(back.doc_count(), 0);
        assert_eq!(back.dictionary().len(), 0);
    }

    #[test]
    fn columnar_round_trip_preserves_scores_bit_exactly() {
        let mut rng = DetRng::new(11);
        let mut b = IndexBuilder::new();
        for _ in 0..300 {
            let len = rng.range(2, 24);
            let terms: Vec<String> =
                (0..len).map(|_| format!("w{}", rng.zipf(80, 1.2))).collect();
            b.add_document(&terms);
        }
        let idx = b.build();
        let mut buf = Vec::new();
        write_index_columnar(&idx, &mut buf).unwrap();
        let back = read_index_columnar(&Bytes::from_vec(buf)).unwrap();
        let s1 = Searcher::new(&idx, Bm25::default());
        let s2 = Searcher::new(&back, Bm25::default());
        for q in [vec!["w0", "w3"], vec!["w1"], vec!["w2", "w2", "w7"]] {
            let a = s1.search(&q, 10);
            let b = s2.search(&q, 10);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.doc, y.doc);
                assert_eq!(x.score.to_bits(), y.score.to_bits());
            }
        }
    }

    #[test]
    fn columnar_rejects_structural_corruption_without_panicking() {
        let idx = sample();
        let mut buf = Vec::new();
        write_index_columnar(&idx, &mut buf).unwrap();
        // Truncations at every table boundary and inside them.
        for cut in [0, 4, 27, 28, buf.len() / 2, buf.len() - 1] {
            let b = Bytes::from_vec(buf[..cut].to_vec());
            assert!(read_index_columnar(&b).is_err(), "cut at {cut}");
        }
        // Trailing garbage is a length mismatch, not silently ignored.
        let mut padded = buf.clone();
        padded.push(0);
        assert!(read_index_columnar(&Bytes::from_vec(padded)).is_err());
        // Growing a count/offset field must fail validation, not panic.
        for at in (0..buf.len().min(256)).step_by(7) {
            let mut bad = buf.clone();
            bad[at] ^= 0x40;
            let _ = read_index_columnar(&Bytes::from_vec(bad)); // must not panic
        }
    }

    #[test]
    fn compression_is_effective_on_dense_postings() {
        // 1000 docs sharing one term: deltas of 1 → ~2 bytes/posting in
        // the posting data. The whole section is not the measure: it
        // also carries a 4-byte-per-doc length table.
        let mut b = IndexBuilder::new();
        for _ in 0..1000 {
            b.add_document(&["common"]);
        }
        let idx = b.build();
        let mut buf = Vec::new();
        write_index_columnar(&idx, &mut buf).unwrap();
        let data_len = u32::from_le_bytes(buf[24..28].try_into().unwrap());
        assert!(
            data_len < 1000 * 4,
            "expected delta compression, got {data_len} posting bytes"
        );
    }
}
