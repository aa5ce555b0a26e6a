//! Immutable index segments — the Lucene-style sharding under
//! [`NewsLinkIndex`].
//!
//! An [`IndexSegment`] is a frozen shard: its own BOW inverted index, BON
//! node postings, doc store (per-document subgraph embeddings) and — by
//! construction of `newslink_text::InvertedIndex` — segment-local TF-IDF /
//! BM25 statistics. [`NewsLinkIndex`] owns an ordered set of segments plus
//! a tombstone set; every global document id lives in exactly one segment.
//!
//! ## Score parity
//!
//! Scoring never uses segment-local collection statistics directly.
//! Instead the searcher computes a *global-stats overlay* — live document
//! count, total token length ([`CollectionStats`]) and per-query-term live
//! document frequency — by exact integer summation across segments, and
//! scores each segment under that overlay
//! ([`newslink_text::score_segment`]). Because each document belongs to
//! one segment and the query-side term-frequency map is built once and
//! shared, the per-document float operations replay the monolithic
//! sequence exactly: a multi-segment index is **bit-identical** to the
//! single-segment build over the same live documents.
//!
//! ## Ordering invariant
//!
//! Segments are kept sorted by disjoint ascending global-id ranges: the
//! builder assigns dense consecutive ids chunk by chunk, live inserts
//! append fresh ids, and compaction only merges *adjacent* pairs in
//! place. This makes `locate` a binary search and lets per-segment top-k
//! results merge in segment order with the same deterministic tie-breaks
//! (lowest id wins among equal scores) as a monolithic scan.

use std::sync::OnceLock;

use newslink_embed::{bon_term_counts, codec as embed_codec, DocEmbedding};
use newslink_text::{
    blended_scan, query_tf, score_segment, Bm25, CollectionStats, DocId, IndexBuilder,
    InvertedIndex, PruneStats, SideSpec,
};
use newslink_util::{Bytes, FxHashMap, FxHashSet, TopK};

use crate::indexer::{DocArtifacts, NewsLinkIndex};

/// The per-segment doc store: each document's subgraph embedding.
///
/// Live builds hold decoded embeddings (`Eager`). Segments opened from a
/// version-4 snapshot keep the *encoded* blob — a zero-copy [`Bytes`]
/// view of the loaded snapshot — and decode one document on first touch
/// (`Lazy`). Scoring never reads the doc store (the
/// blended score is computed from the BOW/BON posting lists alone), so a
/// cold start pays no decode cost; only `explain`, merges and snapshot
/// rewrites fault embeddings in, and each is decoded at most once.
#[derive(Debug)]
pub(crate) enum DocStore {
    /// Decoded embeddings, aligned with local doc ids.
    Eager(Vec<DocEmbedding>),
    /// Encoded embeddings decoded on demand.
    Lazy {
        /// Concatenated `embed_codec` records.
        blob: Bytes,
        /// Cumulative end offset of each record in `blob`
        /// (non-decreasing; the last equals `blob.len()`).
        ends: Vec<u32>,
        /// Per-document decode-once cells.
        cells: Vec<OnceLock<DocEmbedding>>,
    },
}

impl DocStore {
    /// A lazy store over an encoded blob. `ends` must be non-decreasing
    /// record end offsets with `ends.last() == blob.len()` — the v4
    /// reader validates this before construction.
    pub(crate) fn lazy(blob: Bytes, ends: Vec<u32>) -> Self {
        debug_assert!(ends.windows(2).all(|w| w[0] <= w[1]));
        debug_assert_eq!(ends.last().copied().unwrap_or(0) as usize, blob.len());
        let mut cells = Vec::with_capacity(ends.len());
        cells.resize_with(ends.len(), OnceLock::new);
        Self::Lazy {
            blob,
            ends,
            cells,
        }
    }

    fn len(&self) -> usize {
        match self {
            Self::Eager(v) => v.len(),
            Self::Lazy { ends, .. } => ends.len(),
        }
    }

    /// The embedding of one local doc, decoding on first touch.
    ///
    /// Panics when a lazy record fails to decode: record framing was
    /// validated at load and the section passed its CRC, so a decode
    /// failure means the checksum itself was forged — fail loudly
    /// rather than serve a wrong embedding.
    fn get(&self, local: usize) -> Option<&DocEmbedding> {
        match self {
            Self::Eager(v) => v.get(local),
            Self::Lazy { blob, ends, cells } => {
                let cell = cells.get(local)?;
                Some(cell.get_or_init(|| {
                    let start = if local == 0 { 0 } else { ends[local - 1] as usize };
                    let end = ends[local] as usize;
                    embed_codec::read_embedding(&mut &blob[start..end])
                        .expect("embedding record validated by section checksum at load")
                }))
            }
        }
    }

    fn iter(&self) -> impl Iterator<Item = &DocEmbedding> + '_ {
        (0..self.len()).map(move |i| self.get(i).expect("index in range"))
    }
}

/// Which of the two per-segment inverted indexes a scoring pass targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Word terms.
    Bow,
    /// Node terms.
    Bon,
}

impl Side {
    /// The scorer Equation 3 pins to this side: BM25 with length
    /// normalization for prose (BOW), without it for node streams (BON).
    pub(crate) fn scorer(self) -> Bm25 {
        match self {
            Side::Bow => Bm25::default(),
            Side::Bon => Bm25 { k1: 1.2, b: 0.0 },
        }
    }
}

/// One side's externally supplied global query state — the shard-side
/// half of the scatter-gather overlay. A router sums each shard's
/// [`NewsLinkIndex::side_overlay_stats`] (exact integer sums, so the
/// result is order-independent and equals the monolithic values), derives
/// the normalization divisor from the shards' pruned top-1 maxima, and
/// hands the totals back so every shard scores under the *cluster-wide*
/// statistics. `df` is aligned with `terms`; `terms` order is canonical —
/// the per-document float accumulation replays it, so every participant
/// must use the same sequence.
#[derive(Debug, Clone, Copy)]
pub struct SideOverlay<'a> {
    /// Query terms for this side, in the canonical (analysis) order.
    pub terms: &'a [String],
    /// Cluster-wide live collection statistics for this side.
    pub stats: CollectionStats,
    /// Cluster-wide live document frequency of each term, aligned with
    /// `terms` (0 for terms no live document carries).
    pub df: &'a [u32],
    /// Normalization divisor (1.0 when the side's global maximum raw
    /// score was not positive).
    pub norm: f64,
}

/// One immutable shard of a [`NewsLinkIndex`].
#[derive(Debug)]
pub struct IndexSegment {
    bow: InvertedIndex,
    bon: InvertedIndex,
    docs: DocStore,
    /// Global id of each segment-local document, strictly ascending.
    globals: Vec<u32>,
}

impl IndexSegment {
    /// Seal `(global id, artifacts)` pairs into an immutable segment. Ids
    /// must be strictly ascending.
    pub(crate) fn build(docs: Vec<(u32, DocArtifacts)>) -> Self {
        let mut bow = IndexBuilder::new();
        let mut bon = IndexBuilder::new();
        let mut embeddings = Vec::with_capacity(docs.len());
        let mut globals = Vec::with_capacity(docs.len());
        for (global, a) in docs {
            debug_assert!(
                globals.last().is_none_or(|&l| l < global),
                "segment ids must ascend"
            );
            let doc = bow.add_document(&a.analysis.terms);
            let bdoc = bon.add_document_counts(&bon_term_counts(&a.embedding));
            debug_assert_eq!(doc, bdoc, "BOW and BON doc ids must stay aligned");
            embeddings.push(a.embedding);
            globals.push(global);
        }
        Self {
            bow: bow.build(),
            bon: bon.build(),
            docs: DocStore::Eager(embeddings),
            globals,
        }
    }

    /// Rebuild from already-frozen parts with a still-encoded doc store
    /// (snapshot loading; `store` is typically a zero-copy view of the
    /// snapshot).
    pub(crate) fn from_lazy_parts(
        bow: InvertedIndex,
        bon: InvertedIndex,
        store: DocStore,
        globals: Vec<u32>,
    ) -> Self {
        Self {
            bow,
            bon,
            docs: store,
            globals,
        }
    }

    /// Merge two adjacent segments, physically dropping tombstoned
    /// documents (Lucene's expunge-on-merge). `a` must precede `b` in
    /// global-id order; the result preserves it.
    ///
    /// Both sides concatenate the inputs' posting lists under renumbered
    /// doc ids ([`InvertedIndex::merge`]); term frequencies, document
    /// frequencies and document lengths carry over exactly, so overlay
    /// scoring is unchanged by the merge.
    pub(crate) fn merge(a: &IndexSegment, b: &IndexSegment, tombstones: &FxHashSet<u32>) -> Self {
        let keep = |seg: &IndexSegment| -> Vec<bool> {
            seg.globals
                .iter()
                .map(|g| !tombstones.contains(g))
                .collect()
        };
        let (keep_a, keep_b) = (keep(a), keep(b));
        let mut embeddings = Vec::new();
        let mut globals = Vec::new();
        for (seg, keep) in [(a, &keep_a), (b, &keep_b)] {
            for (local, _) in keep.iter().enumerate().filter(|(_, &k)| k) {
                embeddings.push(seg.docs.get(local).expect("local id in range").clone());
                globals.push(seg.globals[local]);
            }
        }
        Self {
            bow: InvertedIndex::merge(&[(&a.bow, &keep_a), (&b.bow, &keep_b)]),
            bon: InvertedIndex::merge(&[(&a.bon, &keep_a), (&b.bon, &keep_b)]),
            docs: DocStore::Eager(embeddings),
            globals,
        }
    }

    /// The shard's word-term index.
    pub fn bow(&self) -> &InvertedIndex {
        &self.bow
    }

    /// The shard's node-term index.
    pub fn bon(&self) -> &InvertedIndex {
        &self.bon
    }

    /// One side of the shard.
    pub(crate) fn side(&self, side: Side) -> &InvertedIndex {
        match side {
            Side::Bow => &self.bow,
            Side::Bon => &self.bon,
        }
    }

    /// Stored per-document embeddings in local doc-id order. Under a
    /// lazy (snapshot-backed) doc store this decodes every document it
    /// visits, so it belongs on rewrite paths, not serving paths.
    pub(crate) fn embeddings(&self) -> impl Iterator<Item = &DocEmbedding> + '_ {
        self.docs.iter()
    }

    /// The embedding of one segment-local document.
    pub(crate) fn embedding_at(&self, local: usize) -> Option<&DocEmbedding> {
        self.docs.get(local)
    }

    /// Global ids of this shard's documents (strictly ascending).
    pub(crate) fn globals(&self) -> &[u32] {
        &self.globals
    }

    /// Documents in this shard (live or tombstoned).
    pub(crate) fn len(&self) -> usize {
        self.globals.len()
    }

    /// True when the shard holds no documents.
    pub(crate) fn is_empty(&self) -> bool {
        self.globals.is_empty()
    }

    /// Documents not covered by `tombstones`.
    pub(crate) fn live_count(&self, tombstones: &FxHashSet<u32>) -> usize {
        if tombstones.is_empty() {
            self.globals.len()
        } else {
            self.globals
                .iter()
                .filter(|g| !tombstones.contains(g))
                .count()
        }
    }

    /// The global id of a segment-local document.
    #[inline]
    pub(crate) fn global_of(&self, local: DocId) -> u32 {
        self.globals[local.index()]
    }

    /// The segment-local id of a global document, if stored here.
    pub(crate) fn local_of(&self, global: u32) -> Option<DocId> {
        self.globals
            .binary_search(&global)
            .ok()
            .map(|i| DocId(i as u32))
    }
}

/// A compaction built ahead of time by
/// [`NewsLinkIndex::plan_compaction`] and spliced in by
/// [`NewsLinkIndex::apply_compaction`].
#[derive(Debug)]
pub(crate) struct CompactionPlan {
    /// The segment list after every merge, in order.
    layout: Vec<Planned>,
    /// Tombstoned ids the merges physically drop.
    expunged: Vec<u32>,
    /// Merges performed.
    merges: usize,
}

/// One segment of a planned layout.
#[derive(Debug)]
enum Planned {
    /// The segment at this position of the pre-compaction list.
    Keep(usize),
    /// A segment the plan merged.
    Merged(Box<IndexSegment>),
}

/// A segment as the planner sees it while simulating merges.
enum Slot<'a> {
    /// Position and contents of a segment in the pre-compaction list.
    Stored(usize, &'a IndexSegment),
    /// A merge result.
    Built(Box<IndexSegment>),
}

impl Slot<'_> {
    fn segment(&self) -> &IndexSegment {
        match self {
            Slot::Stored(_, seg) => seg,
            Slot::Built(seg) => seg,
        }
    }

    /// The tombstoned ids a merge of this slot expunges (a merge result
    /// holds none).
    fn tombstoned<'s>(&'s self, tombstones: &'s FxHashSet<u32>) -> impl Iterator<Item = u32> + 's {
        let globals: &[u32] = match self {
            Slot::Stored(_, seg) if !tombstones.is_empty() => &seg.globals,
            _ => &[],
        };
        globals.iter().copied().filter(|g| tombstones.contains(g))
    }
}

/// Gauge snapshot of a segmented index (exposed by `/metrics`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Live (non-tombstoned) documents.
    pub docs: usize,
    /// Immutable segments.
    pub segments: usize,
    /// Deleted-but-not-yet-expunged documents.
    pub tombstones: usize,
    /// Segment merges performed over the index's lifetime.
    pub compactions: u64,
}

impl NewsLinkIndex {
    /// The immutable segments, in ascending global-id order.
    pub fn segments(&self) -> &[IndexSegment] {
        &self.segments
    }

    /// Number of immutable segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Deleted documents awaiting physical removal by compaction.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones.len()
    }

    /// Segment merges performed so far.
    pub(crate) fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Documents physically stored (live + tombstoned).
    pub(crate) fn total_docs(&self) -> usize {
        self.segments.iter().map(IndexSegment::len).sum()
    }

    /// Gauge snapshot for observability endpoints.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            docs: self.doc_count(),
            segments: self.segment_count(),
            tombstones: self.tombstone_count(),
            compactions: self.compactions(),
        }
    }

    /// True when `doc` is stored and not tombstoned.
    pub fn is_live(&self, doc: DocId) -> bool {
        !self.tombstones.contains(&doc.0) && self.locate(doc).is_some()
    }

    /// The stored embedding of a live document.
    pub fn embedding(&self, doc: DocId) -> Option<&DocEmbedding> {
        if self.tombstones.contains(&doc.0) {
            return None;
        }
        let (seg, local) = self.locate(doc)?;
        seg.embedding_at(local.index())
    }

    /// Live document embeddings in ascending global-id order.
    pub fn embeddings(&self) -> impl Iterator<Item = &DocEmbedding> {
        self.segments
            .iter()
            .flat_map(|s| s.globals.iter().zip(s.docs.iter()))
            .filter(|(g, _)| !self.tombstones.contains(g))
            .map(|(_, e)| e)
    }

    /// Live document ids, in ascending order.
    ///
    /// Ordering guarantee: at build time ids are **dense** (`0..doc_count`)
    /// in corpus order, regardless of `segment_docs` or thread count — ids
    /// are assigned before the segment-build fan-out. Afterwards ids are
    /// **stable**: deletion and compaction never renumber a surviving
    /// document, and reclaimed ids are never reused for new documents (live
    /// inserts always draw fresh ids from the allocator). The sequence
    /// therefore stays strictly ascending but may grow gaps once documents
    /// are deleted.
    pub fn doc_ids(&self) -> impl Iterator<Item = DocId> + '_ {
        self.segments
            .iter()
            .flat_map(|s| s.globals.iter().copied())
            .filter(|g| !self.tombstones.contains(g))
            .map(DocId)
    }

    /// Find the segment holding `doc` (live or tombstoned) and its local
    /// id — binary search over the disjoint ascending segment ranges.
    pub(crate) fn locate(&self, doc: DocId) -> Option<(&IndexSegment, DocId)> {
        let id = doc.0;
        let si = self
            .segments
            .partition_point(|s| s.globals.last().is_some_and(|&last| last < id));
        let seg = self.segments.get(si)?;
        let local = seg.local_of(id)?;
        Some((seg, local))
    }

    /// Tombstone a document. Returns `false` for unknown or already
    /// deleted ids. The document stops matching searches immediately and
    /// is physically expunged by the next compaction that touches its
    /// segment.
    pub fn delete(&mut self, doc: DocId) -> bool {
        if self.tombstones.contains(&doc.0) || self.locate(doc).is_none() {
            return false;
        }
        self.tombstones.insert(doc.0);
        self.bump_generation();
        true
    }

    /// Allocate the next global document id. Ids are never reused, even
    /// when the reserving caller drops the document before sealing it.
    /// Advances by the index's stripe stride (1 unless
    /// [`Self::set_id_stripe`] pinned a cluster stripe).
    pub(crate) fn reserve_id(&mut self) -> DocId {
        let id = self.next_id;
        self.next_id += self.id_stride.max(1);
        DocId(id)
    }

    /// Append a sealed segment. Its ids must all be reserved (below
    /// `next_id`) and above every stored id, keeping segments sorted by
    /// disjoint ascending ranges.
    pub(crate) fn install_segment(&mut self, segment: IndexSegment) {
        if segment.is_empty() {
            return;
        }
        debug_assert!(
            segment.globals.last().is_some_and(|&l| l < self.next_id),
            "segment ids must be reserved before installation"
        );
        debug_assert!(
            self.segments
                .last()
                .and_then(|s| s.globals.last())
                .is_none_or(|&prev| prev < segment.globals[0]),
            "segments must stay sorted by ascending id ranges"
        );
        self.segments.push(segment);
        self.bump_generation();
    }

    /// Merge segments until at most `max_segments` (floor 1) remain,
    /// always picking the adjacent pair with the fewest live documents.
    /// Tombstoned documents inside merged pairs are physically dropped
    /// and their ids leave the tombstone set. Returns the number of
    /// merges performed.
    pub(crate) fn compact_to(&mut self, max_segments: usize) -> usize {
        let plan = self.plan_compaction(None, max_segments);
        let merges = plan.merges;
        self.apply_compaction(plan);
        merges
    }

    /// Compact everything into (at most) one segment, expunging all
    /// tombstones it can reach.
    pub fn compact(&mut self) -> usize {
        self.compact_to(1)
    }

    /// Build every merge [`compact_to`](Self::compact_to) would run on
    /// this index — with `incoming` appended first, when given — without
    /// touching the index. Only shared access is needed, so the expensive
    /// part of a compaction can run while searches continue;
    /// [`apply_compaction`](Self::apply_compaction) then splices the
    /// result in, and is valid only while the index is unchanged.
    pub(crate) fn plan_compaction(
        &self,
        incoming: Option<&IndexSegment>,
        max_segments: usize,
    ) -> CompactionPlan {
        let max = max_segments.max(1);
        let mut slots: Vec<Slot<'_>> = self
            .segments
            .iter()
            .chain(incoming)
            .enumerate()
            .map(|(i, seg)| Slot::Stored(i, seg))
            .collect();
        let mut expunged = Vec::new();
        let mut merges = 0usize;
        // Merged segments hold no tombstoned document, so scoring every
        // slot against the unchanged tombstone set is exact.
        while slots.len() > max {
            let best = (0..slots.len() - 1)
                .min_by_key(|&i| {
                    slots[i].segment().live_count(&self.tombstones)
                        + slots[i + 1].segment().live_count(&self.tombstones)
                })
                .expect("at least two slots");
            let b = slots.remove(best + 1);
            let a = slots.remove(best);
            let merged = IndexSegment::merge(a.segment(), b.segment(), &self.tombstones);
            expunged.extend(a.tombstoned(&self.tombstones));
            expunged.extend(b.tombstoned(&self.tombstones));
            if !merged.is_empty() {
                slots.insert(best, Slot::Built(Box::new(merged)));
            }
            merges += 1;
        }
        // Force-merge semantics: compacting all the way down to one
        // segment also rewrites a lone segment that still carries
        // tombstones (as Lucene's forceMerge(1) expunges deletes even
        // when there is no merge partner).
        if max == 1 && slots.len() == 1 && self.tombstones.len() > expunged.len() {
            let lone = slots.pop().expect("one slot");
            let rewritten = IndexSegment::merge(
                lone.segment(),
                &IndexSegment::build(Vec::new()),
                &self.tombstones,
            );
            expunged.extend(lone.tombstoned(&self.tombstones));
            if !rewritten.is_empty() {
                slots.push(Slot::Built(Box::new(rewritten)));
            }
            merges += 1;
        }
        let layout = slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Stored(i, _) => Planned::Keep(i),
                Slot::Built(seg) => Planned::Merged(seg),
            })
            .collect();
        CompactionPlan {
            layout,
            expunged,
            merges,
        }
    }

    /// Splice a [`plan_compaction`](Self::plan_compaction) result in:
    /// move the kept segments into the planned layout, drop the
    /// expunged tombstones and count the merges. Returns the segments the
    /// merges replaced, so the caller decides where their memory is
    /// freed. The caller guarantees the index has not changed since the
    /// plan was made (plus the `incoming` segment, pushed last).
    pub(crate) fn apply_compaction(&mut self, plan: CompactionPlan) -> Vec<IndexSegment> {
        if plan.merges == 0 {
            return Vec::new();
        }
        let mut stored: Vec<Option<IndexSegment>> = std::mem::take(&mut self.segments)
            .into_iter()
            .map(Some)
            .collect();
        self.segments = plan
            .layout
            .into_iter()
            .map(|p| match p {
                Planned::Keep(i) => stored[i].take().expect("a planned slot is kept once"),
                Planned::Merged(seg) => *seg,
            })
            .collect();
        for g in &plan.expunged {
            self.tombstones.remove(g);
        }
        self.compactions += plan.merges as u64;
        stored.into_iter().flatten().collect()
    }

    /// Collection-wide BM25 statistics for one side, over live documents
    /// only (exact integer summation across segments).
    pub(crate) fn side_stats(&self, side: Side) -> CollectionStats {
        let mut stats = CollectionStats::default();
        for seg in &self.segments {
            let index = seg.side(side);
            if self.tombstones.is_empty() {
                stats.add(CollectionStats::from_index(index));
            } else {
                for (local, g) in seg.globals.iter().enumerate() {
                    if !self.tombstones.contains(g) {
                        stats.add_doc(index.doc_len(DocId(local as u32)));
                    }
                }
            }
        }
        stats
    }

    /// Collection-wide live document frequency of each query term on one
    /// side. With a single segment and no tombstones this equals the
    /// segment dictionary's doc-freq, i.e. the monolithic value.
    pub(crate) fn side_global_df<'q>(
        &self,
        side: Side,
        qtf: &FxHashMap<&'q str, u32>,
    ) -> FxHashMap<&'q str, u32> {
        let mut out: FxHashMap<&'q str, u32> = FxHashMap::default();
        for &term in qtf.keys() {
            let mut df = 0u32;
            for seg in &self.segments {
                let index = seg.side(side);
                if self.tombstones.is_empty() {
                    if let Some(id) = index.term_id(term) {
                        df += index.doc_freq(id);
                    }
                } else {
                    for p in index.postings_for(term) {
                        if !self.tombstones.contains(&seg.global_of(p.doc)) {
                            df += 1;
                        }
                    }
                }
            }
            if df > 0 {
                out.insert(term, df);
            }
        }
        out
    }

    /// The per-document liveness predicate for one segment's scan,
    /// monomorphized away from the hash probe when the tombstone set is
    /// empty. Both variants admit exactly the same documents (an empty
    /// set contains nothing), so which one a scan receives is invisible
    /// in its results — only in its per-posting cost.
    fn liveness<'a>(&'a self, seg: &'a IndexSegment) -> Liveness<'a> {
        if self.tombstones.is_empty() {
            Liveness::All
        } else {
            Liveness::Probe {
                tombstones: &self.tombstones,
                seg,
            }
        }
    }

    /// Score one side across segments under the global-stats overlay.
    /// Returns one global-id-keyed score map per segment, in segment
    /// order. Query state (overlay stats, term frequencies, live document
    /// frequencies) is resolved once through [`SideWork`] and shared by
    /// every segment.
    pub(crate) fn score_side_parts(
        &self,
        side: Side,
        scorer: Bm25,
        query_terms: &[String],
    ) -> Vec<FxHashMap<DocId, f64>> {
        let Some(w) = self.side_work(side, scorer, query_terms, true) else {
            return Vec::new();
        };
        self.segments
            .iter()
            .map(|seg| {
                let live = self.liveness(seg);
                let local =
                    score_segment(w.scorer, seg.side(side), w.stats, &w.qtf, &w.global_df, |d| {
                        live.is_live(d)
                    });
                local
                    .into_iter()
                    .map(|(d, s)| (DocId(seg.global_of(d)), s))
                    .collect()
            })
            .collect()
    }

    /// BM25 top-k over the BOW side only — the "plain Lucene" view of the
    /// segmented index. This is the blended scan at β = 0 with the BOW
    /// side alone and divisor 1.0, where `(1-0)·raw/1 + 0·0` is the raw
    /// BM25 score exactly, so the ranking and the scores are the
    /// exhaustive ones bit for bit (ties resolve toward lower ids).
    pub fn bow_topk<S: AsRef<str>>(&self, query_terms: &[S], k: usize) -> Vec<(DocId, f64)> {
        if k == 0 {
            return Vec::new();
        }
        let terms: Vec<String> = query_terms.iter().map(|t| t.as_ref().to_string()).collect();
        let Some(w) = self.side_work(Side::Bow, Bm25::default(), &terms, true) else {
            return Vec::new();
        };
        self.blended_merge(0.0, Some(&w), None, k, f64::NEG_INFINITY, &mut PruneStats::default())
            .into_iter()
            .map(|(score, (doc, _, _))| (doc, score))
            .collect()
    }

    /// Resolve one side's collection-wide query state (overlay stats,
    /// query term frequencies, live document frequencies) for the pruned
    /// evaluators. `None` when the side is inactive or has no live
    /// documents — matching the exhaustive path, which skips such sides
    /// entirely (their contribution is 0.0).
    fn side_work<'q>(
        &self,
        side: Side,
        scorer: Bm25,
        query_terms: &'q [String],
        active: bool,
    ) -> Option<SideWork<'q>> {
        if !active {
            return None;
        }
        let stats = self.side_stats(side);
        if stats.docs == 0 {
            return None;
        }
        let qtf = query_tf(query_terms);
        let global_df = self.side_global_df(side, &qtf);
        Some(SideWork {
            side,
            scorer,
            stats,
            qtf,
            global_df,
            norm: 1.0,
        })
    }

    /// Resolve a side against one segment: posting lists in the canonical
    /// query-term order (the `qtf` map's iteration order — exactly what
    /// `score_segment` walks), with overlay df and the current
    /// normalization divisor.
    fn side_spec<'i>(&self, seg: &'i IndexSegment, w: &SideWork<'_>) -> SideSpec<'i> {
        let index = seg.side(w.side);
        let mut terms = Vec::with_capacity(w.qtf.len());
        for (term, &q) in &w.qtf {
            let Some(id) = index.term_id(term) else { continue };
            let df = w.global_df.get(term).copied().unwrap_or(0);
            terms.push((index.postings(id), q, df));
        }
        SideSpec {
            index,
            scorer: w.scorer,
            stats: w.stats,
            terms,
            norm: w.norm,
        }
    }

    /// The side's global maximum raw score, found with a pruned top-1
    /// pass over all segments (β pinned so the raw value passes through
    /// the blend bit-exactly). Returns 0.0 when nothing matches — the
    /// same fold-over-nothing result as the exhaustive normalizer.
    fn side_top1(&self, w: &SideWork<'_>, prune: &mut PruneStats) -> f64 {
        let beta = match w.side {
            Side::Bow => 0.0,
            Side::Bon => 1.0,
        };
        let mut top1: TopK<(DocId, f64, f64)> = TopK::new(1);
        for seg in &self.segments {
            let spec = self.side_spec(seg, w);
            let (bow, bon) = match w.side {
                Side::Bow => (Some(&spec), None),
                Side::Bon => (None, Some(&spec)),
            };
            let live = self.liveness(seg);
            blended_scan(
                bow,
                bon,
                beta,
                f64::NEG_INFINITY,
                |d| live.is_live(d),
                |d| d,
                &mut top1,
                prune,
            );
        }
        top1.into_sorted().first().map(|(s, _)| *s).unwrap_or(0.0)
    }

    /// Block-max pruned blended top-k over all live segments: Equation 3
    /// `(1-β)·bow + β·bon` evaluated document-at-a-time, **bit-identical**
    /// to the exhaustive score-map path (same scores, same tie order:
    /// earlier segment / lower doc id wins among equals).
    ///
    /// Each segment gets its own fresh `TopK(k)` whose threshold drives
    /// the pruning, and the per-segment survivors merge exactly like the
    /// exhaustive path's per-segment heaps. The heaps must not be shared:
    /// which of several *tied* documents a bounded heap retains depends on
    /// how higher-scoring pushes interleave with the tied ones, so a
    /// single heap carried across segments could keep a different tied doc
    /// than the oracle's per-segment-then-merge structure. Cross-segment
    /// pruning still happens through the `floor` argument — the merged
    /// heap's k-th score after the previous segments, below which no
    /// candidate can survive the merge (see [`blended_scan`] for why the
    /// skip is exact).
    ///
    /// Each active side's global maximum is found first by a cheap pruned
    /// top-1 pass, then used as that side's divisor in the main scan —
    /// reproducing the exhaustive max-normalization exactly (a max over a
    /// set is feed-order independent, so sharing the top-1 heap across
    /// segments is safe there). Returns `(score, (doc, bow, bon))` tuples
    /// sorted by descending score plus the pruning work counters.
    #[allow(clippy::type_complexity)]
    pub(crate) fn blended_topk(
        &self,
        beta: f64,
        bow_terms: &[String],
        bon_terms: &[String],
        k: usize,
    ) -> (Vec<(f64, (DocId, f64, f64))>, PruneStats) {
        let mut prune = PruneStats::default();
        if k == 0 {
            return (Vec::new(), prune);
        }
        let bon_bm25 = Bm25 { k1: 1.2, b: 0.0 };
        let mut bow = self.side_work(Side::Bow, Bm25::default(), bow_terms, beta < 1.0);
        let mut bon = self.side_work(Side::Bon, bon_bm25, bon_terms, beta > 0.0);
        for w in [&mut bow, &mut bon].into_iter().flatten() {
            let max = self.side_top1(w, &mut prune);
            if max > 0.0 {
                w.norm = max;
            }
        }
        let ranked =
            self.blended_merge(beta, bow.as_ref(), bon.as_ref(), k, f64::NEG_INFINITY, &mut prune);
        (ranked, prune)
    }

    /// The shared engine under [`Self::blended_topk`] and
    /// [`Self::blended_topk_overlay`]: scan the segments left to right,
    /// each with a fresh `TopK(k)`, pruning against the merged heap's
    /// k-th score after its left neighbors (or the caller's `floor`, if
    /// higher), and merge the survivors in ascending segment order.
    fn blended_merge(
        &self,
        beta: f64,
        bow: Option<&SideWork<'_>>,
        bon: Option<&SideWork<'_>>,
        k: usize,
        floor: f64,
        prune: &mut PruneStats,
    ) -> Vec<(f64, (DocId, f64, f64))> {
        let mut merged: TopK<(DocId, f64, f64)> = TopK::new(k);
        for seg in &self.segments {
            let bow_spec = bow.map(|w| self.side_spec(seg, w));
            let bon_spec = bon.map(|w| self.side_spec(seg, w));
            let mut seg_topk: TopK<(DocId, f64, f64)> = TopK::new(k);
            let live = self.liveness(seg);
            blended_scan(
                bow_spec.as_ref(),
                bon_spec.as_ref(),
                beta,
                merged.threshold().unwrap_or(f64::NEG_INFINITY).max(floor),
                |d| live.is_live(d),
                |d| DocId(seg.global_of(d)),
                &mut seg_topk,
                prune,
            );
            for (score, item) in seg_topk.into_sorted() {
                merged.push(score, item);
            }
        }
        merged.into_sorted()
    }

    /// One shard's contribution to the cluster overlay: this index's live
    /// collection statistics for `side` plus the live document frequency
    /// of every query term, aligned with `terms`. A router sums these
    /// across shards — both are exact integer sums, so the totals equal
    /// the monolithic values regardless of shard layout or reply order.
    pub fn side_overlay_stats(&self, side: Side, terms: &[String]) -> (CollectionStats, Vec<u32>) {
        let stats = self.side_stats(side);
        let qtf = query_tf(terms);
        let dfm = self.side_global_df(side, &qtf);
        let df = terms
            .iter()
            .map(|t| dfm.get(t.as_str()).copied().unwrap_or(0))
            .collect();
        (stats, df)
    }

    /// Resolve one side's query state from an externally supplied overlay
    /// instead of this index's own statistics. `None` mirrors the
    /// in-process path's skip conditions: inactive side, or no live
    /// document cluster-wide.
    fn side_work_from<'q>(
        &self,
        side: Side,
        overlay: &SideOverlay<'q>,
        active: bool,
    ) -> Option<SideWork<'q>> {
        if !active || overlay.stats.docs == 0 {
            return None;
        }
        let qtf = query_tf(overlay.terms);
        let mut global_df: FxHashMap<&'q str, u32> = FxHashMap::default();
        for (term, &df) in overlay.terms.iter().zip(overlay.df) {
            if df > 0 {
                global_df.insert(term.as_str(), df);
            }
        }
        Some(SideWork {
            side,
            scorer: side.scorer(),
            stats: overlay.stats,
            qtf,
            global_df,
            norm: overlay.norm,
        })
    }

    /// This shard's maximum raw score on one side under a cluster-wide
    /// overlay (β pinned, pruned top-1 across the shard's segments; 0.0
    /// when nothing matches). The router takes the max over shards —
    /// `max` over a set is feed-order independent, so the result equals
    /// the in-process `side_top1` over the union. `overlay.norm`
    /// is ignored (the pass computes the divisor's input).
    pub fn side_top1_overlay(
        &self,
        side: Side,
        overlay: &SideOverlay<'_>,
        prune: &mut PruneStats,
    ) -> f64 {
        let overlay = SideOverlay { norm: 1.0, ..*overlay };
        match self.side_work_from(side, &overlay, true) {
            Some(w) => self.side_top1(&w, prune),
            None => 0.0,
        }
    }

    /// Block-max pruned blended top-k under externally supplied overlays —
    /// the shard-side half of a scatter-gather search. Identical to
    /// `blended_topk` except that collection statistics, document
    /// frequencies and normalization divisors come from the router's
    /// cluster-wide totals, and `floor` seeds the merged-heap threshold
    /// (scores at or below it can never survive the router's final merge,
    /// so pruning against it is exact; pass `NEG_INFINITY` when no floor
    /// is known).
    ///
    /// Because each shard pushes its per-segment survivors through the
    /// same fresh-heap-then-merge structure as the in-process path, the
    /// returned list is this shard's k best under the total order
    /// (score desc, global id asc) — which is what lets the router's
    /// id-ordered merge of shard lists reproduce the single-process
    /// result bit for bit.
    #[allow(clippy::type_complexity)]
    pub fn blended_topk_overlay(
        &self,
        beta: f64,
        bow: &SideOverlay<'_>,
        bon: &SideOverlay<'_>,
        k: usize,
        floor: f64,
    ) -> (Vec<(f64, (DocId, f64, f64))>, PruneStats) {
        let mut prune = PruneStats::default();
        if k == 0 {
            return (Vec::new(), prune);
        }
        let bow_w = self.side_work_from(Side::Bow, bow, beta < 1.0);
        let bon_w = self.side_work_from(Side::Bon, bon, beta > 0.0);
        let ranked = self.blended_merge(beta, bow_w.as_ref(), bon_w.as_ref(), k, floor, &mut prune);
        (ranked, prune)
    }
}

/// The per-segment document liveness test, resolved once per scan so a
/// tombstone-free index never pays a hash probe per posting: `All` is a
/// constant `true` the optimizer folds away, `Probe` consults the real
/// tombstone set. Both admit exactly the same documents when the set is
/// empty, so the choice cannot change any result.
enum Liveness<'a> {
    /// No tombstones: every document is live.
    All,
    /// Probe the tombstone set by the document's global id.
    Probe {
        tombstones: &'a FxHashSet<u32>,
        seg: &'a IndexSegment,
    },
}

impl Liveness<'_> {
    /// Whether segment-local document `d` is live.
    #[inline(always)]
    fn is_live(&self, d: DocId) -> bool {
        match self {
            Liveness::All => true,
            Liveness::Probe { tombstones, seg } => !tombstones.contains(&seg.global_of(d)),
        }
    }
}

/// One side's resolved query state, computed **exactly once per (side,
/// query)** — overlay document frequencies in particular are integer
/// sums over every segment's postings, so hoisting them here keeps the
/// top-1 normalization pass and the main scan from re-walking the
/// dictionaries — and shared across segments by the pruned evaluators:
/// overlay statistics, query term frequencies (whose map iteration order
/// *is* the canonical accumulation order), live document frequencies,
/// and the normalization divisor.
struct SideWork<'q> {
    side: Side,
    scorer: Bm25,
    stats: CollectionStats,
    qtf: FxHashMap<&'q str, u32>,
    global_df: FxHashMap<&'q str, u32>,
    norm: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NewsLinkConfig;
    use crate::pipeline::test_support::index_corpus;
    use crate::pipeline::NewsLink;
    use newslink_kg::{EntityType, GraphBuilder, KnowledgeGraph, LabelIndex};

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
        "Pakistan held talks in Khyber province.",
        "Taliban activity reported again in Kunar.",
        "A plain story with no entities.",
        "Kunar and Khyber braced for winter.",
    ];

    #[test]
    fn segment_docs_controls_sharding() {
        let (g, li) = world();
        let mono = index_corpus(&g, &li, &NewsLinkConfig::default(), DOCS);
        assert_eq!(mono.segment_count(), 1);
        let sharded = index_corpus(
            &g,
            &li,
            &NewsLinkConfig::default().with_segment_docs(2),
            DOCS,
        );
        assert_eq!(sharded.segment_count(), 3);
        assert_eq!(sharded.doc_count(), DOCS.len());
        // Segments hold disjoint ascending id ranges.
        let all: Vec<u32> = sharded
            .segments()
            .iter()
            .flat_map(|s| s.globals().iter().copied())
            .collect();
        assert_eq!(all, (0..DOCS.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn locate_and_embedding_resolve_across_segments() {
        let (g, li) = world();
        let idx = index_corpus(
            &g,
            &li,
            &NewsLinkConfig::default().with_segment_docs(2),
            DOCS,
        );
        for d in 0..DOCS.len() as u32 {
            let (seg, local) = idx.locate(DocId(d)).expect("doc located");
            assert_eq!(seg.global_of(local), d);
            assert!(idx.embedding(DocId(d)).is_some());
        }
        assert!(idx.locate(DocId(99)).is_none());
        assert!(idx.embedding(DocId(99)).is_none());
    }

    #[test]
    fn delete_tombstones_and_compaction_expunges() {
        let (g, li) = world();
        let mut idx = index_corpus(
            &g,
            &li,
            &NewsLinkConfig::default().with_segment_docs(1),
            DOCS,
        );
        assert_eq!(idx.segment_count(), 5);
        assert!(idx.delete(DocId(1)));
        assert!(!idx.delete(DocId(1)), "double delete");
        assert!(!idx.delete(DocId(42)), "unknown id");
        assert_eq!(idx.tombstone_count(), 1);
        assert_eq!(idx.doc_count(), 4);
        assert!(idx.embedding(DocId(1)).is_none());

        let merges = idx.compact_to(1);
        assert_eq!(merges, 4);
        assert_eq!(idx.segment_count(), 1);
        assert_eq!(idx.compactions(), 4);
        assert_eq!(idx.tombstone_count(), 0, "expunged on merge");
        assert_eq!(idx.doc_count(), 4);
        // Surviving ids are unchanged (stable across compaction).
        let ids: Vec<u32> = idx.doc_ids().map(|d| d.0).collect();
        assert_eq!(ids, vec![0, 2, 3, 4]);
    }

    /// Per-document `(term, tf)` lists of one inverted index, replayed
    /// from its posting lists in ascending source term id order.
    fn doc_term_counts(index: &InvertedIndex) -> Vec<Vec<(String, u32)>> {
        let dict = index.dictionary();
        let mut per_doc: Vec<Vec<(String, u32)>> = vec![Vec::new(); index.doc_count()];
        for t in 0..dict.len() {
            let term = newslink_text::TermId(t as u32);
            for p in index.postings(term) {
                per_doc[p.doc.index()].push((dict.term(term).to_string(), p.tf));
            }
        }
        per_doc
    }

    /// The string-replay merge: every kept document re-added through
    /// the builder as `(term, tf)` counts. Oracle for the posting merge.
    fn merge_by_replay(
        a: &IndexSegment,
        b: &IndexSegment,
        tombstones: &FxHashSet<u32>,
    ) -> [InvertedIndex; 2] {
        let mut bow = IndexBuilder::new();
        let mut bon = IndexBuilder::new();
        for seg in [a, b] {
            let docs = doc_term_counts(&seg.bow)
                .into_iter()
                .zip(doc_term_counts(&seg.bon));
            for (local, (bow_counts, bon_counts)) in docs.enumerate() {
                if !tombstones.contains(&seg.globals[local]) {
                    bow.add_document_counts(&bow_counts);
                    bon.add_document_counts(&bon_counts);
                }
            }
        }
        [bow.build(), bon.build()]
    }

    fn assert_same_index(got: &InvertedIndex, want: &InvertedIndex, what: &str) {
        assert_eq!(got.doc_count(), want.doc_count(), "{what}: docs");
        assert_eq!(got.term_count(), want.term_count(), "{what}: terms");
        for t in 0..want.term_count() {
            let id = newslink_text::TermId(t as u32);
            assert_eq!(
                got.dictionary().term(id),
                want.dictionary().term(id),
                "{what}: term {t}"
            );
            assert_eq!(got.doc_freq(id), want.doc_freq(id), "{what}: df {t}");
            assert_eq!(got.postings(id), want.postings(id), "{what}: postings {t}");
        }
        for d in 0..want.doc_count() as u32 {
            assert_eq!(
                got.doc_len(DocId(d)),
                want.doc_len(DocId(d)),
                "{what}: len {d}"
            );
        }
        assert_eq!(
            got.avg_doc_len().to_bits(),
            want.avg_doc_len().to_bits(),
            "{what}: avg"
        );
    }

    /// Merging by posting concatenation builds exactly the dictionaries,
    /// postings and lengths the string replay builds — over tombstoned
    /// segments built live and loaded from a snapshot.
    #[test]
    fn posting_merge_matches_string_replay() {
        let (g, li) = world();
        let docs: Vec<&str> = DOCS.iter().chain(DOCS.iter().rev()).copied().collect();
        let mut live = index_corpus(
            &g,
            &li,
            &NewsLinkConfig::default().with_segment_docs(3),
            &docs,
        );
        for victim in [1, 3, 4, 8] {
            assert!(live.delete(DocId(victim)));
        }
        let mut buf = Vec::new();
        crate::persist::write_newslink_index(&live, &g, &mut buf).unwrap();
        let loaded = crate::persist::read_newslink_index(&g, &mut &buf[..]).unwrap();
        let empty = IndexSegment::build(Vec::new());
        for (name, index) in [("live", &live), ("loaded", &loaded)] {
            assert_eq!(index.tombstone_count(), 4, "{name}");
            let segs = &index.segments;
            assert!(segs.len() >= 3, "{name}");
            let pairs = segs
                .windows(2)
                .map(|w| (&w[0], &w[1]))
                .chain([(&segs[0], &empty)]);
            for (i, (a, b)) in pairs.enumerate() {
                let merged = IndexSegment::merge(a, b, &index.tombstones);
                let [bow, bon] = merge_by_replay(a, b, &index.tombstones);
                assert_same_index(merged.bow(), &bow, &format!("{name} pair {i} bow"));
                assert_same_index(merged.bon(), &bon, &format!("{name} pair {i} bon"));
                let kept: Vec<u32> = a
                    .globals()
                    .iter()
                    .chain(b.globals())
                    .copied()
                    .filter(|g| !index.tombstones.contains(g))
                    .collect();
                assert_eq!(merged.globals(), kept.as_slice(), "{name} pair {i}");
                assert_eq!(merged.len(), bow.doc_count());
            }
        }
    }

    #[test]
    fn stats_snapshot_tracks_lifecycle() {
        let (g, li) = world();
        let mut idx = index_corpus(
            &g,
            &li,
            &NewsLinkConfig::default().with_segment_docs(2),
            DOCS,
        );
        let s0 = idx.stats();
        assert_eq!(
            s0,
            IndexStats {
                docs: 5,
                segments: 3,
                tombstones: 0,
                compactions: 0
            }
        );
        idx.delete(DocId(0));
        idx.compact_to(1);
        let s1 = idx.stats();
        assert_eq!(s1.docs, 4);
        assert_eq!(s1.segments, 1);
        assert_eq!(s1.tombstones, 0);
        assert_eq!(s1.compactions, 2);
    }

    /// `bow_topk` on the pruned scan equals the exhaustive BM25 top-k bit
    /// for bit — same ids, same order, same score bits — on a monolithic
    /// and a sharded layout with every third document tombstoned. The
    /// corpus repeats `DOCS`, so tie groups straddle rank `k`.
    #[test]
    fn bow_topk_matches_monolithic_bm25() {
        let (g, li) = world();
        let docs: Vec<&str> = DOCS.iter().copied().cycle().take(30).collect();
        let query: Vec<String> = ["kunar", "khyber", "pakistan", "taliban", "kunar"]
            .iter()
            .map(|t| t.to_string())
            .collect();
        for segment_docs in [usize::MAX, 4] {
            let config = NewsLinkConfig::default().with_segment_docs(segment_docs);
            let mut idx = index_corpus(&g, &li, &config, &docs);
            for d in (0..docs.len() as u32).step_by(3) {
                assert!(idx.delete(DocId(d)));
            }
            let mut scored: Vec<(DocId, f64)> = idx
                .score_side_parts(Side::Bow, Bm25::default(), &query)
                .into_iter()
                .flatten()
                .collect();
            scored.sort_unstable_by_key(|(d, _)| *d);
            assert!(scored.len() > 4 && scored.len() < 100, "k = 4 cuts, k = 100 does not");
            for k in [0, 1, 4, 100] {
                let mut oracle = TopK::new(k);
                for &(d, score) in &scored {
                    oracle.push(score, d);
                }
                let want: Vec<(DocId, u64)> = oracle
                    .into_sorted()
                    .into_iter()
                    .map(|(score, d)| (d, score.to_bits()))
                    .collect();
                let got: Vec<(DocId, u64)> = idx
                    .bow_topk(&query, k)
                    .into_iter()
                    .map(|(d, score)| (d, score.to_bits()))
                    .collect();
                assert_eq!(got, want, "segment_docs {segment_docs} k {k}");
            }
        }
    }

    /// The empty-tombstone fast path ([`Liveness::All`]) and the hash
    /// probe it replaces must admit the same documents: pruned results
    /// are bit-identical under both, per segment.
    #[test]
    fn liveness_fast_path_matches_probe() {
        let (g, li) = world();
        let idx = index_corpus(
            &g,
            &li,
            &NewsLinkConfig::default().with_segment_docs(2),
            DOCS,
        );
        assert!(idx.tombstones.is_empty());
        let terms: Vec<String> = ["kunar", "khyber", "pakistan", "taliban"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let w = idx
            .side_work(Side::Bow, Bm25::default(), &terms, true)
            .expect("live side");
        let empty = FxHashSet::default();
        let mut hits = 0;
        for seg in &idx.segments {
            let spec = idx.side_spec(seg, &w);
            let run = |live: Liveness<'_>| {
                let mut topk: TopK<(DocId, f64, f64)> = TopK::new(4);
                let mut prune = PruneStats::default();
                blended_scan(
                    Some(&spec),
                    None,
                    0.0,
                    f64::NEG_INFINITY,
                    |d| live.is_live(d),
                    |d| DocId(seg.global_of(d)),
                    &mut topk,
                    &mut prune,
                );
                topk.into_sorted()
            };
            let fast = run(Liveness::All);
            let probe = run(Liveness::Probe {
                tombstones: &empty,
                seg,
            });
            assert_eq!(fast.len(), probe.len());
            hits += fast.len();
            for (a, b) in fast.iter().zip(&probe) {
                assert_eq!(a.0.to_bits(), b.0.to_bits());
                assert_eq!(a.1, b.1);
            }
        }
        assert!(hits > 0);
    }

    /// The scatter-gather algebra, exercised in-process: stripe the corpus
    /// across shard indexes, sum overlay statistics, take the max of the
    /// per-shard top-1 maxima as each side's divisor, run every shard's
    /// `blended_topk_overlay`, and merge the union id-ordered through one
    /// `TopK`. Every score bit and the tie order must match the
    /// single-index `blended_topk`.
    #[test]
    fn overlay_scatter_gather_is_bit_identical_to_monolithic() {
        let (g, li) = world();
        let config = NewsLinkConfig::default().with_segment_docs(2);
        let bow_terms: Vec<String> = ["kunar", "khyber", "pakistan", "taliban"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let bon_terms: Vec<String> =
            ["n0", "n1", "n2", "n3"].iter().map(|s| s.to_string()).collect();
        let k = 4;
        for shard_count in [1u32, 2, 3] {
            let engine = NewsLink::new(&g, &li, config.clone().without_cache());
            let mut mono = engine.index_corpus(DOCS);
            let mut shards: Vec<NewsLinkIndex> = (0..shard_count)
                .map(|s| engine.index_corpus_sharded(DOCS, s, shard_count))
                .collect();
            // Tombstone one document on its owning shard and the oracle.
            assert!(mono.delete(DocId(1)));
            assert!(shards[(1 % shard_count) as usize].delete(DocId(1)));
            for beta in [0.0, 0.2, 1.0] {
                let expected = mono.blended_topk(beta, &bow_terms, &bon_terms, k).0;

                // Phase 1: exact integer sums of per-shard statistics.
                let mut totals = [(CollectionStats::default(), vec![0u32; bow_terms.len()]),
                    (CollectionStats::default(), vec![0u32; bon_terms.len()])];
                for shard in &shards {
                    for (slot, (side, terms)) in totals
                        .iter_mut()
                        .zip([(Side::Bow, &bow_terms), (Side::Bon, &bon_terms)])
                    {
                        let (stats, df) = shard.side_overlay_stats(side, terms);
                        slot.0.docs += stats.docs;
                        slot.0.total_len += stats.total_len;
                        for (acc, d) in slot.1.iter_mut().zip(&df) {
                            *acc += d;
                        }
                    }
                }
                // Phase 2: each side's divisor is the max of shard maxima.
                let mut prune = PruneStats::default();
                let mut norms = [1.0f64; 2];
                for (i, terms) in [&bow_terms, &bon_terms].into_iter().enumerate() {
                    let side = if i == 0 { Side::Bow } else { Side::Bon };
                    let ov = SideOverlay {
                        terms,
                        stats: totals[i].0,
                        df: &totals[i].1,
                        norm: 1.0,
                    };
                    let max = shards
                        .iter()
                        .map(|s| s.side_top1_overlay(side, &ov, &mut prune))
                        .fold(0.0f64, f64::max);
                    if max > 0.0 {
                        norms[i] = max;
                    }
                }

                // Phase 3: gather shard lists, merge id-ordered.
                let bow_ov = SideOverlay {
                    terms: &bow_terms,
                    stats: totals[0].0,
                    df: &totals[0].1,
                    norm: norms[0],
                };
                let bon_ov = SideOverlay {
                    terms: &bon_terms,
                    stats: totals[1].0,
                    df: &totals[1].1,
                    norm: norms[1],
                };
                let mut union: Vec<(f64, (DocId, f64, f64))> = Vec::new();
                for shard in &shards {
                    let (hits, _) =
                        shard.blended_topk_overlay(beta, &bow_ov, &bon_ov, k, f64::NEG_INFINITY);
                    union.extend(hits);
                }
                union.sort_by_key(|(_, (doc, _, _))| doc.0);
                let mut merged: TopK<(DocId, f64, f64)> = TopK::new(k);
                for (score, item) in union {
                    merged.push(score, item);
                }
                let got = merged.into_sorted();

                assert_eq!(got.len(), expected.len(), "shards={shard_count} beta={beta}");
                for (x, y) in got.iter().zip(&expected) {
                    assert_eq!(x.1 .0, y.1 .0, "doc order, shards={shard_count} beta={beta}");
                    assert_eq!(x.0.to_bits(), y.0.to_bits(), "score bits");
                    assert_eq!(x.1 .1.to_bits(), y.1 .1.to_bits(), "bow bits");
                    assert_eq!(x.1 .2.to_bits(), y.1 .2.to_bits(), "bon bits");
                }
            }
        }
    }
}
