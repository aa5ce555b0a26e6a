//! The inverted index.
//!
//! Frozen posting lists per term, document lengths, and collection
//! statistics — the substrate both the "Lucene" baseline and NewsLink's
//! BOW/BON scoring run on. Build with [`IndexBuilder`], then query through
//! [`crate::search::Searcher`].
//!
//! ## Block-compressed postings
//!
//! Sealed posting lists are stored as fixed-size blocks of
//! [`BLOCK_LEN`] entries, each a run of delta-coded LEB128 varints
//! `(doc_delta, tf)`. Deltas continue across block boundaries (block
//! `i`'s first delta is relative to block `i-1`'s last document), so a
//! sequential [`PostingList::iter`] is one straight scan of the byte
//! stream. Per-block metadata ([`BlockMeta`]) records the block's last
//! document id and maximum term frequency: `last_doc` lets
//! [`PostingCursor::seek`] skip whole blocks without decoding them, and
//! `max_tf` gives block-max evaluators a per-block BM25 score bound.
//! The [`IndexBuilder`] accumulates plain `Vec<Posting>` buffers and
//! compresses only on [`IndexBuilder::build`] — the live (unsealed)
//! representation stays uncompressed.

use newslink_util::{Bytes, FxHashMap};

use crate::dictionary::{TermDictionary, TermId};

/// Dense document id within one index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DocId(pub u32);

impl DocId {
    /// The document's index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One `(document, term-frequency)` entry in a posting list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// The containing document.
    pub doc: DocId,
    /// Occurrences of the term in that document.
    pub tf: u32,
}

/// Entries per compressed posting block. Every block except the last
/// holds exactly this many postings, so a posting's rank is
/// `block_index * BLOCK_LEN + offset_in_block`.
pub const BLOCK_LEN: usize = 128;

/// Metadata of one compressed posting block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// Highest document id in the block (skip pointer).
    pub(crate) last_doc: u32,
    /// Highest term frequency in the block (score-bound input).
    pub(crate) max_tf: u32,
    /// Byte offset of the block's first delta in the list's data.
    pub(crate) offset: u32,
}

/// Append `v` as a LEB128 varint (same wire format as
/// `newslink_util::varint::write_u32`).
#[inline]
fn push_varint(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Decode one LEB128 varint from trusted in-memory data. Panics on
/// truncation — the encoder in this module is the only producer.
#[inline]
fn read_varint(data: &[u8], pos: &mut usize) -> u32 {
    let mut shift = 0u32;
    let mut out = 0u32;
    loop {
        let b = data[*pos];
        *pos += 1;
        out |= u32::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return out;
        }
        shift += 7;
    }
}

/// A block-compressed, immutable posting list sorted by document id.
///
/// The delta bytes live in a [`Bytes`] region, so a list loaded from a
/// snapshot is a slice of the snapshot's buffer rather than a copy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PostingList {
    /// Concatenated `(doc_delta, tf)` varint pairs for all blocks.
    data: Bytes,
    /// One entry per block, ascending by `last_doc`.
    blocks: Vec<BlockMeta>,
    /// Total postings across all blocks.
    count: usize,
}

/// The empty list `postings_for` hands out for unindexed terms.
static EMPTY_LIST: PostingList = PostingList {
    data: Bytes::empty(),
    blocks: Vec::new(),
    count: 0,
};

impl PostingList {
    /// Compress a doc-sorted posting slice into blocks.
    pub(crate) fn from_postings(postings: &[Posting]) -> Self {
        let mut data = Vec::new();
        let mut blocks = Vec::with_capacity(postings.len().div_ceil(BLOCK_LEN));
        let mut prev = 0u32;
        for chunk in postings.chunks(BLOCK_LEN) {
            let offset = u32::try_from(data.len()).expect("posting list exceeds 4 GiB");
            let mut max_tf = 0u32;
            for p in chunk {
                debug_assert!(p.doc.0 >= prev, "postings must be sorted by doc id");
                push_varint(&mut data, p.doc.0 - prev);
                push_varint(&mut data, p.tf);
                max_tf = max_tf.max(p.tf);
                prev = p.doc.0;
            }
            blocks.push(BlockMeta {
                last_doc: prev,
                max_tf,
                offset,
            });
        }
        Self {
            data: Bytes::from_vec(data),
            blocks,
            count: postings.len(),
        }
    }

    /// Assemble from already-validated compressed parts (codec read
    /// path). `data` is typically a slice of the snapshot's buffer.
    pub(crate) fn from_raw_parts(data: Bytes, blocks: Vec<BlockMeta>, count: usize) -> Self {
        Self {
            data,
            blocks,
            count,
        }
    }

    /// The whole delta byte stream (codec write path).
    pub(crate) fn raw_data(&self) -> &[u8] {
        &self.data
    }

    /// Number of postings.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    /// True when no document contains the term.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Per-block metadata, ascending by `last_doc`.
    pub(crate) fn blocks(&self) -> &[BlockMeta] {
        &self.blocks
    }

    /// The raw delta bytes of block `i` (cursor decode path).
    pub(crate) fn block_bytes(&self, i: usize) -> &[u8] {
        let start = self.blocks[i].offset as usize;
        let end = self
            .blocks
            .get(i + 1)
            .map_or(self.data.len(), |b| b.offset as usize);
        &self.data[start..end]
    }

    /// Highest term frequency anywhere in the list (list-level score
    /// bound input).
    pub(crate) fn max_tf(&self) -> u32 {
        self.blocks.iter().map(|b| b.max_tf).max().unwrap_or(0)
    }

    /// Bytes held by the compressed representation (delta stream plus
    /// block metadata).
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.data.len() + self.blocks.len() * std::mem::size_of::<BlockMeta>()
    }

    /// Entries in block `i` (every block is full except possibly the last).
    #[inline]
    fn block_len(&self, block: usize) -> usize {
        if block + 1 == self.blocks.len() {
            self.count - block * BLOCK_LEN
        } else {
            BLOCK_LEN
        }
    }

    /// Sequential decode of the whole list.
    pub(crate) fn iter(&self) -> PostingIter<'_> {
        PostingIter {
            data: &self.data,
            pos: 0,
            prev: 0,
            remaining: self.count,
        }
    }

    /// Decode into a plain vector (tests, merges).
    #[cfg(test)]
    pub(crate) fn to_vec(&self) -> Vec<Posting> {
        self.iter().collect()
    }

    /// Random access: the posting for `doc` and its rank in the list,
    /// if present. Skips to the right block by metadata, then decodes
    /// only that block.
    pub(crate) fn find(&self, doc: DocId) -> Option<(usize, Posting)> {
        let bi = self.blocks.partition_point(|b| b.last_doc < doc.0);
        if bi >= self.blocks.len() {
            return None;
        }
        let mut pos = self.blocks[bi].offset as usize;
        let mut prev = if bi == 0 {
            0
        } else {
            self.blocks[bi - 1].last_doc
        };
        for j in 0..self.block_len(bi) {
            prev += read_varint(&self.data, &mut pos);
            let tf = read_varint(&self.data, &mut pos);
            if prev >= doc.0 {
                return (prev == doc.0).then_some((bi * BLOCK_LEN + j, Posting { doc, tf }));
            }
        }
        None
    }

    /// A seekable cursor positioned at the first posting.
    pub(crate) fn cursor(&self) -> PostingCursor<'_> {
        PostingCursor::new(self)
    }
}

/// Sequential iterator over a [`PostingList`].
#[derive(Debug, Clone)]
pub struct PostingIter<'a> {
    data: &'a [u8],
    pos: usize,
    prev: u32,
    remaining: usize,
}

impl Iterator for PostingIter<'_> {
    type Item = Posting;

    #[inline]
    fn next(&mut self) -> Option<Posting> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.prev += read_varint(self.data, &mut self.pos);
        let tf = read_varint(self.data, &mut self.pos);
        Some(Posting {
            doc: DocId(self.prev),
            tf,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for PostingIter<'_> {}

impl<'a> IntoIterator for &'a PostingList {
    type Item = Posting;
    type IntoIter = PostingIter<'a>;

    fn into_iter(self) -> PostingIter<'a> {
        self.iter()
    }
}

/// Batch-decode one block's `(doc_delta, tf)` varint pairs into the SoA
/// scratch arrays in a single pass over the block's exact byte range.
///
/// This is the hot decode loop under every scoring scan. Working on the
/// block's own sub-slice (instead of indexing the whole list's data with
/// a running offset) narrows the bounds the compiler must reason about,
/// and the single-byte fast path — the overwhelmingly common shape for
/// both delta and tf once ids are block-local — is one load, one compare
/// and one add, with the multi-byte continuation kept out of line.
#[inline]
fn decode_block_into(
    bytes: &[u8],
    mut prev: u32,
    len: usize,
    docs: &mut [u32; BLOCK_LEN],
    tfs: &mut [u32; BLOCK_LEN],
) {
    let mut pos = 0usize;
    for j in 0..len {
        prev += read_varint_fast(bytes, &mut pos);
        docs[j] = prev;
        tfs[j] = read_varint_fast(bytes, &mut pos);
    }
}

/// [`read_varint`] with the one-byte case inlined and the continuation
/// cold: values below 128 decode without entering the shift loop.
#[inline(always)]
fn read_varint_fast(bytes: &[u8], pos: &mut usize) -> u32 {
    let b = bytes[*pos];
    *pos += 1;
    if b & 0x80 == 0 {
        return u32::from(b);
    }
    read_varint_cont(bytes, pos, b)
}

/// Multi-byte continuation of [`read_varint_fast`]; identical wire
/// semantics to [`read_varint`], split out so the fast path stays small.
#[cold]
fn read_varint_cont(bytes: &[u8], pos: &mut usize, first: u8) -> u32 {
    let mut out = u32::from(first & 0x7f);
    let mut shift = 7u32;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        out |= u32::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return out;
        }
        shift += 7;
    }
}

/// A DAAT cursor over a [`PostingList`] with block-skipping `seek`.
///
/// The cursor keeps exactly one block decoded. [`PostingCursor::seek`]
/// first consults block metadata: blocks whose `last_doc` is below the
/// target are skipped whole, without decoding (counted in
/// [`PostingCursor::blocks_skipped`]), and only the landing block is
/// materialized.
#[derive(Debug, Clone)]
pub struct PostingCursor<'a> {
    list: &'a PostingList,
    /// Current block; `list.blocks.len()` once exhausted.
    block: usize,
    /// Position within the decoded block.
    pos: usize,
    /// Entries in the decoded block.
    len: usize,
    docs: [u32; BLOCK_LEN],
    tfs: [u32; BLOCK_LEN],
    blocks_skipped: u64,
}

impl<'a> PostingCursor<'a> {
    fn new(list: &'a PostingList) -> Self {
        let mut c = Self {
            list,
            block: 0,
            pos: 0,
            len: 0,
            docs: [0; BLOCK_LEN],
            tfs: [0; BLOCK_LEN],
            blocks_skipped: 0,
        };
        if !list.blocks.is_empty() {
            c.decode_block(0);
        }
        c
    }

    fn decode_block(&mut self, block: usize) {
        let prev = if block == 0 {
            0
        } else {
            self.list.blocks[block - 1].last_doc
        };
        let len = self.list.block_len(block);
        decode_block_into(
            self.list.block_bytes(block),
            prev,
            len,
            &mut self.docs,
            &mut self.tfs,
        );
        self.block = block;
        self.len = len;
        self.pos = 0;
    }

    /// True once every posting has been passed.
    #[inline]
    pub(crate) fn is_exhausted(&self) -> bool {
        self.block >= self.list.blocks.len()
    }

    /// The posting under the cursor.
    #[inline]
    pub(crate) fn current(&self) -> Option<Posting> {
        if self.is_exhausted() {
            None
        } else {
            Some(Posting {
                doc: DocId(self.docs[self.pos]),
                tf: self.tfs[self.pos],
            })
        }
    }

    /// The document under the cursor.
    #[inline]
    pub(crate) fn current_doc(&self) -> Option<DocId> {
        if self.is_exhausted() {
            None
        } else {
            Some(DocId(self.docs[self.pos]))
        }
    }

    /// Highest term frequency in the current block (0 when exhausted) —
    /// the block-max score-bound input.
    #[inline]
    pub(crate) fn block_max_tf(&self) -> u32 {
        if self.is_exhausted() {
            0
        } else {
            self.list.blocks[self.block].max_tf
        }
    }

    /// Blocks skipped whole (never decoded) by `seek` so far.
    pub(crate) fn blocks_skipped(&self) -> u64 {
        self.blocks_skipped
    }

    /// Step to the next posting.
    pub(crate) fn advance(&mut self) {
        if self.is_exhausted() {
            return;
        }
        self.pos += 1;
        if self.pos >= self.len {
            let next = self.block + 1;
            if next < self.list.blocks.len() {
                self.decode_block(next);
            } else {
                self.block = next;
            }
        }
    }

    /// Move to the first posting with `doc >= target`. Blocks wholly
    /// below the target are skipped by metadata without decoding.
    pub(crate) fn seek(&mut self, target: DocId) {
        if self.is_exhausted() || self.docs[self.pos] >= target.0 {
            return;
        }
        if self.list.blocks[self.block].last_doc < target.0 {
            let from = self.block + 1;
            let skip = self.list.blocks[from..].partition_point(|b| b.last_doc < target.0);
            self.blocks_skipped += skip as u64;
            let landing = from + skip;
            if landing >= self.list.blocks.len() {
                self.block = landing;
                return;
            }
            self.decode_block(landing);
        }
        // The block's last_doc is >= target, so the position is in range.
        self.pos += self.docs[self.pos..self.len].partition_point(|&d| d < target.0);
    }
}

/// Collection-level statistics BM25 needs: how many documents exist and
/// their total token length.
///
/// For a monolithic index these are just [`InvertedIndex::doc_count`] and
/// the internal length sum. For a *segmented* index they are the overlay
/// that makes per-segment scoring exact: sum the integer counts across
/// segments (exact — no float accumulation) and score every segment with
/// the collection-wide average. A single segment with its own stats is
/// the degenerate case and scores bit-identically to the monolithic path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectionStats {
    /// Documents in the collection.
    pub docs: usize,
    /// Total token length across those documents.
    pub total_len: u64,
}

impl CollectionStats {
    /// The stats of one monolithic index.
    pub fn from_index(index: &InvertedIndex) -> Self {
        Self {
            docs: index.doc_count(),
            total_len: index.total_len(),
        }
    }

    /// Fold another shard's counts in (integer addition, exact).
    pub fn add(&mut self, other: CollectionStats) {
        self.docs += other.docs;
        self.total_len += other.total_len;
    }

    /// Count one document of length `len`.
    pub fn add_doc(&mut self, len: u32) {
        self.docs += 1;
        self.total_len += u64::from(len);
    }

    /// Mean document length; 0 for an empty collection. Matches
    /// [`InvertedIndex::avg_doc_len`] operation-for-operation so overlay
    /// scoring stays bit-identical.
    pub(crate) fn avg_doc_len(&self) -> f64 {
        if self.docs == 0 {
            0.0
        } else {
            self.total_len as f64 / self.docs as f64
        }
    }
}

/// A frozen inverted index: the term dictionary, one posting list per
/// term, and the document-length table. [`IndexBuilder::build`],
/// [`InvertedIndex::merge`] and the columnar reader
/// ([`read_index_columnar`](crate::codec::read_index_columnar)) make one.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    dict: TermDictionary,
    postings: Vec<PostingList>,
    doc_len: Vec<u32>,
    total_len: u64,
}

impl InvertedIndex {
    /// Assemble an index from its parts.
    pub(crate) fn from_parts(
        dict: TermDictionary,
        postings: Vec<PostingList>,
        doc_len: Vec<u32>,
        total_len: u64,
    ) -> Self {
        Self {
            dict,
            postings,
            doc_len,
            total_len,
        }
    }

    /// Number of indexed documents.
    #[inline]
    pub fn doc_count(&self) -> usize {
        self.doc_len.len()
    }

    /// Token length of `doc` (as counted at indexing time).
    #[inline]
    pub fn doc_len(&self, doc: DocId) -> u32 {
        self.doc_len[doc.index()]
    }

    /// Total token length across all documents.
    #[inline]
    pub(crate) fn total_len(&self) -> u64 {
        self.total_len
    }

    /// Mean document length; 0 for an empty index.
    pub fn avg_doc_len(&self) -> f64 {
        if self.doc_count() == 0 {
            0.0
        } else {
            self.total_len() as f64 / self.doc_count() as f64
        }
    }

    /// The term dictionary.
    pub fn dictionary(&self) -> &TermDictionary {
        &self.dict
    }

    /// Resolve a term string to its id.
    pub fn term_id(&self, term: &str) -> Option<TermId> {
        self.dict.get(term)
    }

    /// Document frequency of a term id.
    #[inline]
    pub fn doc_freq(&self, term: TermId) -> u32 {
        self.dict.doc_freq(term)
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.dict.len()
    }

    /// Posting list for a term id (sorted by doc id).
    #[inline]
    pub fn postings(&self, term: TermId) -> &PostingList {
        &self.postings[term.index()]
    }

    /// Posting list for a term string, empty when unindexed.
    pub fn postings_for(&self, term: &str) -> &PostingList {
        match self.term_id(term) {
            Some(id) => self.postings(id),
            None => &EMPTY_LIST,
        }
    }

    /// Term frequency of `term` in `doc` (block-skip + in-block scan).
    pub fn term_freq(&self, term: &str, doc: DocId) -> u32 {
        self.postings_for(term)
            .find(doc)
            .map_or(0, |(_, p)| p.tf)
    }

    /// Merge indexes end to end, keeping the documents each mask admits
    /// (`keep[d]` for local document `d`; one entry per document). Kept
    /// documents are renumbered densely in input order, and each posting
    /// list is the concatenation of the sources' kept postings under the
    /// new ids, so no term string is interned per posting.
    ///
    /// The result equals replaying every kept document's `(term, tf)`
    /// pairs, in ascending source term id order, through
    /// [`IndexBuilder::add_document_counts`]: a term's id follows its
    /// first kept appearance (ties within that document broken by source
    /// term id), terms with no kept posting vanish, document frequencies
    /// count kept documents, and document lengths carry over.
    pub fn merge(parts: &[(&InvertedIndex, &[bool])]) -> InvertedIndex {
        /// One output term: the `(new doc, source term id)` of its first
        /// kept appearance, which orders the output dictionary.
        struct Slot<'a> {
            first: (u32, u32),
            term: &'a str,
            postings: Vec<Posting>,
        }
        let mut doc_len = Vec::new();
        let mut total_len = 0u64;
        let mut slots: Vec<Slot<'_>> = Vec::new();
        let mut by_term: FxHashMap<&str, usize> = FxHashMap::default();
        let mut remap: Vec<Option<u32>> = Vec::new();
        for &(index, keep) in parts {
            assert_eq!(keep.len(), index.doc_count(), "one keep flag per document");
            remap.clear();
            for (local, &kept) in keep.iter().enumerate() {
                remap.push(kept.then(|| {
                    let doc = u32::try_from(doc_len.len())
                        .expect("index overflow: more than 2^32 documents");
                    let len = index.doc_len(DocId(local as u32));
                    doc_len.push(len);
                    total_len += u64::from(len);
                    doc
                }));
            }
            let dict = index.dictionary();
            for t in 0..dict.len() {
                let source = TermId(t as u32);
                let kept = index.postings(source).iter().filter_map(|p| {
                    remap[p.doc.index()].map(|doc| Posting {
                        doc: DocId(doc),
                        tf: p.tf,
                    })
                });
                let term = dict.term(source);
                if let Some(&slot) = by_term.get(term) {
                    slots[slot].postings.extend(kept);
                    continue;
                }
                let postings: Vec<Posting> = kept.collect();
                if let Some(first) = postings.first() {
                    by_term.insert(term, slots.len());
                    slots.push(Slot {
                        first: (first.doc.0, source.0),
                        term,
                        postings,
                    });
                }
            }
        }
        slots.sort_unstable_by_key(|s| s.first);
        let doc_freq = slots.iter().map(|s| s.postings.len() as u32).collect();
        let postings = slots
            .iter()
            .map(|s| PostingList::from_postings(&s.postings))
            .collect();
        let terms = slots.iter().map(|s| s.term.to_string()).collect();
        InvertedIndex::from_parts(
            TermDictionary::from_parts(terms, doc_freq),
            postings,
            doc_len,
            total_len,
        )
    }
}

/// Accumulates documents, then freezes into an [`InvertedIndex`].
#[derive(Debug, Default)]
pub struct IndexBuilder {
    dict: TermDictionary,
    postings: Vec<Vec<Posting>>,
    doc_len: Vec<u32>,
    total_len: u64,
}

impl IndexBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one document given its term stream; returns its [`DocId`].
    ///
    /// Documents are assigned consecutive ids starting at 0, so callers can
    /// keep a parallel store of originals.
    pub fn add_document<S: AsRef<str>>(&mut self, terms: &[S]) -> DocId {
        let doc = DocId(
            u32::try_from(self.doc_len.len()).expect("index overflow: more than 2^32 documents"),
        );
        let mut tf: FxHashMap<TermId, u32> = FxHashMap::default();
        for t in terms {
            let id = self.dict.get_or_insert(t.as_ref());
            *tf.entry(id).or_default() += 1;
        }
        let mut entries: Vec<(TermId, u32)> = tf.into_iter().collect();
        entries.sort_unstable_by_key(|(t, _)| *t);
        for (term, tf) in entries {
            if term.index() >= self.postings.len() {
                self.postings.resize_with(term.index() + 1, Vec::new);
            }
            self.postings[term.index()].push(Posting { doc, tf });
            self.dict.bump_doc_freq(term);
        }
        self.doc_len.push(terms.len() as u32);
        self.total_len += terms.len() as u64;
        doc
    }

    /// Add one document given pre-aggregated `(term, count)` pairs; returns
    /// its [`DocId`].
    ///
    /// Equivalent to [`IndexBuilder::add_document`] on the stream that
    /// repeats each term `count` times in order: the document length is the
    /// sum of counts and the resulting index is identical given the same
    /// term order. Pairs with a zero count are ignored. Segment builds
    /// feed node-term counts through it, and [`InvertedIndex::merge`]
    /// reproduces exactly what replaying documents through it would build.
    pub fn add_document_counts<S: AsRef<str>>(&mut self, counts: &[(S, u32)]) -> DocId {
        let doc = DocId(
            u32::try_from(self.doc_len.len()).expect("index overflow: more than 2^32 documents"),
        );
        let mut len: u64 = 0;
        let mut tf: FxHashMap<TermId, u32> = FxHashMap::default();
        for (t, count) in counts {
            if *count == 0 {
                continue;
            }
            let id = self.dict.get_or_insert(t.as_ref());
            *tf.entry(id).or_default() += count;
            len += u64::from(*count);
        }
        let mut entries: Vec<(TermId, u32)> = tf.into_iter().collect();
        entries.sort_unstable_by_key(|(t, _)| *t);
        for (term, tf) in entries {
            if term.index() >= self.postings.len() {
                self.postings.resize_with(term.index() + 1, Vec::new);
            }
            self.postings[term.index()].push(Posting { doc, tf });
            self.dict.bump_doc_freq(term);
        }
        let len = u32::try_from(len).expect("document longer than 2^32 tokens");
        self.doc_len.push(len);
        self.total_len += u64::from(len);
        doc
    }

    /// Number of documents added so far.
    #[cfg(test)]
    pub(crate) fn doc_count(&self) -> usize {
        self.doc_len.len()
    }

    /// Freeze into an immutable index: seal every per-term buffer into
    /// its block-compressed form.
    pub fn build(mut self) -> InvertedIndex {
        // Terms interned but never posted (impossible through the public
        // API, defensive for future extension).
        self.postings.resize_with(self.dict.len(), Vec::new);
        InvertedIndex::from_parts(
            self.dict,
            self.postings
                .iter()
                .map(|p| PostingList::from_postings(p))
                .collect(),
            self.doc_len,
            self.total_len,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add_document(&["taliban", "attack", "pakistan", "attack"]);
        b.add_document(&["pakistan", "election"]);
        b.add_document(&["sports", "match"]);
        b.build()
    }

    #[test]
    fn doc_ids_are_sequential() {
        let mut b = IndexBuilder::new();
        assert_eq!(b.add_document(&["a"]), DocId(0));
        assert_eq!(b.add_document(&["b"]), DocId(1));
        assert_eq!(b.doc_count(), 2);
    }

    #[test]
    fn postings_sorted_with_tf() {
        let idx = sample();
        let p = idx.postings_for("pakistan").to_vec();
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].doc, DocId(0));
        assert_eq!(p[1].doc, DocId(1));
        assert!(p.windows(2).all(|w| w[0].doc < w[1].doc));
        assert_eq!(idx.term_freq("attack", DocId(0)), 2);
        assert_eq!(idx.term_freq("attack", DocId(1)), 0);
    }

    #[test]
    fn doc_freq_counts_documents_not_occurrences() {
        let idx = sample();
        let d = idx.dictionary();
        assert_eq!(d.doc_freq(d.get("attack").unwrap()), 1);
        assert_eq!(d.doc_freq(d.get("pakistan").unwrap()), 2);
    }

    #[test]
    fn lengths_and_average() {
        let idx = sample();
        assert_eq!(idx.doc_len(DocId(0)), 4);
        assert_eq!(idx.doc_len(DocId(1)), 2);
        assert!((idx.avg_doc_len() - 8.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_terms_have_empty_postings() {
        let idx = sample();
        assert!(idx.postings_for("zebra").is_empty());
        assert_eq!(idx.term_freq("zebra", DocId(0)), 0);
        assert!(idx.postings_for("zebra").find(DocId(0)).is_none());
        assert!(idx.postings_for("zebra").cursor().current().is_none());
    }

    #[test]
    fn empty_index() {
        let idx = IndexBuilder::new().build();
        assert_eq!(idx.doc_count(), 0);
        assert_eq!(idx.avg_doc_len(), 0.0);
    }

    #[test]
    fn counts_entry_matches_stream_entry() {
        let mut a = IndexBuilder::new();
        a.add_document(&["x", "y", "x", "z"]);
        a.add_document(&["y", "y"]);
        let a = a.build();

        let mut b = IndexBuilder::new();
        b.add_document_counts(&[("x", 2u32), ("y", 1), ("z", 1), ("dead", 0)]);
        b.add_document_counts(&[("y", 2u32)]);
        let b = b.build();

        assert_eq!(a.doc_count(), b.doc_count());
        for term in ["x", "y", "z"] {
            assert_eq!(a.postings_for(term), b.postings_for(term), "term {term}");
            let (da, db) = (a.dictionary(), b.dictionary());
            assert_eq!(
                da.doc_freq(da.get(term).unwrap()),
                db.doc_freq(db.get(term).unwrap())
            );
        }
        assert!(b.dictionary().get("dead").is_none(), "zero-count terms are not interned");
        assert!(b.postings_for("dead").is_empty());
        assert_eq!(a.doc_len(DocId(0)), b.doc_len(DocId(0)));
        assert_eq!(a.avg_doc_len(), b.avg_doc_len());
    }

    /// `(term, tf)` pairs of every document in ascending source term
    /// id order — the replay `InvertedIndex::merge` must reproduce.
    fn replay_counts(index: &InvertedIndex) -> Vec<Vec<(String, u32)>> {
        let mut per_doc = vec![Vec::new(); index.doc_count()];
        let dict = index.dictionary();
        for t in 0..dict.len() {
            for p in index.postings(TermId(t as u32)) {
                per_doc[p.doc.index()].push((dict.term(TermId(t as u32)).to_string(), p.tf));
            }
        }
        per_doc
    }

    #[test]
    fn merge_matches_replay_through_the_builder() {
        let mut a = IndexBuilder::new();
        a.add_document(&["gone", "x", "y", "x"]);
        a.add_document(&["y", "z"]);
        a.add_document(&["only_dropped"]);
        let a = a.build();
        let mut b = IndexBuilder::new();
        b.add_document(&["w", "gone", "z"]);
        b.add_document::<&str>(&[]);
        b.add_document(&["x", "v", "v"]);
        let b = b.build();
        let (keep_a, keep_b) = ([false, true, false], [true, true, true]);

        let mut replay = IndexBuilder::new();
        for (index, keep) in [(&a, &keep_a[..]), (&b, &keep_b[..])] {
            for (doc, counts) in replay_counts(index).into_iter().enumerate() {
                if keep[doc] {
                    replay.add_document_counts(&counts);
                }
            }
        }
        let want = replay.build();
        let got = InvertedIndex::merge(&[(&a, &keep_a), (&b, &keep_b)]);

        assert_eq!(got.doc_count(), want.doc_count());
        assert_eq!(got.term_count(), want.term_count());
        assert!(
            got.term_id("only_dropped").is_none(),
            "a term with no kept posting vanishes"
        );
        // "gone" first appears (kept) in b's doc 0, before "z" there.
        for t in 0..want.term_count() {
            let id = TermId(t as u32);
            assert_eq!(
                got.dictionary().term(id),
                want.dictionary().term(id),
                "term {t}"
            );
            assert_eq!(got.doc_freq(id), want.doc_freq(id), "df {t}");
            assert_eq!(got.postings(id), want.postings(id), "postings {t}");
        }
        for d in 0..want.doc_count() as u32 {
            assert_eq!(got.doc_len(DocId(d)), want.doc_len(DocId(d)));
        }
        assert_eq!(got.total_len(), want.total_len());
    }

    #[test]
    fn collection_stats_overlay_matches_index() {
        let idx = sample();
        let stats = CollectionStats::from_index(&idx);
        assert_eq!(stats.docs, 3);
        assert_eq!(stats.total_len, 8);
        assert_eq!(stats.avg_doc_len(), idx.avg_doc_len());
        assert_eq!(CollectionStats::default().avg_doc_len(), 0.0);

        // Summing shard stats reproduces the monolithic overlay exactly.
        let mut sum = CollectionStats::default();
        sum.add(CollectionStats { docs: 1, total_len: 4 });
        sum.add_doc(2);
        sum.add_doc(2);
        assert_eq!(sum, stats);
    }

    #[test]
    fn empty_document_indexable() {
        let mut b = IndexBuilder::new();
        let d = b.add_document::<&str>(&[]);
        let idx = b.build();
        assert_eq!(idx.doc_len(d), 0);
        assert_eq!(idx.doc_count(), 1);
    }

    /// A long, gappy posting list spanning several blocks.
    fn long_list() -> (Vec<Posting>, PostingList) {
        let postings: Vec<Posting> = (0..1000u32)
            .map(|i| Posting {
                doc: DocId(i * 7 + (i % 3)),
                tf: 1 + (i % 9),
            })
            .collect();
        let list = PostingList::from_postings(&postings);
        (postings, list)
    }

    #[test]
    fn block_round_trip_multi_block() {
        let (postings, list) = long_list();
        assert_eq!(list.len(), postings.len());
        assert_eq!(list.blocks().len(), postings.len().div_ceil(BLOCK_LEN));
        assert_eq!(list.to_vec(), postings);
        // Block metadata matches the content.
        for (bi, chunk) in postings.chunks(BLOCK_LEN).enumerate() {
            let meta = list.blocks()[bi];
            assert_eq!(meta.last_doc, chunk.last().unwrap().doc.0);
            assert_eq!(meta.max_tf, chunk.iter().map(|p| p.tf).max().unwrap());
        }
        assert_eq!(list.max_tf(), 9);
    }

    #[test]
    fn find_matches_linear_scan() {
        let (postings, list) = long_list();
        for (rank, p) in postings.iter().enumerate() {
            assert_eq!(list.find(p.doc), Some((rank, *p)));
        }
        // Misses: docs in the gaps and past the end.
        assert_eq!(list.find(DocId(postings.last().unwrap().doc.0 + 1)), None);
        for probe in [3u32, 10, 7_000] {
            if postings.iter().all(|p| p.doc.0 != probe) {
                assert_eq!(list.find(DocId(probe)), None, "doc {probe}");
            }
        }
    }

    #[test]
    fn cursor_advance_walks_every_posting() {
        let (postings, list) = long_list();
        let mut c = list.cursor();
        for p in &postings {
            assert_eq!(c.current(), Some(*p));
            c.advance();
        }
        assert!(c.is_exhausted());
        assert!(c.current().is_none());
        c.advance();
        assert!(c.is_exhausted(), "advance past the end is a no-op");
    }

    #[test]
    fn cursor_seek_skips_blocks_without_decoding() {
        let (postings, list) = long_list();
        let mut c = list.cursor();
        // Jump straight to the last posting: every interior block skips.
        let last = *postings.last().unwrap();
        c.seek(last.doc);
        assert_eq!(c.current(), Some(last));
        assert_eq!(c.blocks_skipped(), list.blocks().len() as u64 - 2);
        // Seeking backwards or to the current doc is a no-op.
        c.seek(DocId(0));
        assert_eq!(c.current(), Some(last));
        c.advance();
        assert!(c.is_exhausted());
        c.seek(DocId(u32::MAX));
        assert!(c.is_exhausted());
    }

    #[test]
    fn cursor_seek_matches_linear_semantics() {
        let (postings, list) = long_list();
        // For a spread of targets: seek lands on the first doc >= target.
        for target in (0..7100u32).step_by(13) {
            let mut c = list.cursor();
            c.seek(DocId(target));
            let want = postings.iter().find(|p| p.doc.0 >= target).copied();
            assert_eq!(c.current(), want, "target {target}");
        }
    }

    #[test]
    fn cursor_block_max_tf_tracks_current_block() {
        let (postings, list) = long_list();
        let mut c = list.cursor();
        while let Some(p) = c.current() {
            let bi = postings.iter().position(|q| q.doc == p.doc).unwrap() / BLOCK_LEN;
            assert_eq!(c.block_max_tf(), list.blocks()[bi].max_tf);
            c.advance();
        }
        assert_eq!(c.block_max_tf(), 0);
    }

    #[test]
    fn compression_shrinks_dense_lists() {
        let postings: Vec<Posting> = (0..10_000u32)
            .map(|i| Posting { doc: DocId(i), tf: 1 })
            .collect();
        let list = PostingList::from_postings(&postings);
        let uncompressed = postings.len() * std::mem::size_of::<Posting>();
        assert!(
            list.heap_bytes() < uncompressed / 2,
            "expected >2x shrink: {} vs {uncompressed}",
            list.heap_bytes()
        );
    }
}
