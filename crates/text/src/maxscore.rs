//! Document-at-a-time top-k with MaxScore and block-max pruning.
//!
//! The paper's NS component "employ\[s\] existing top-k ranking algorithms
//! \[Threshold Algorithm; VSM\]" (§VI). This module computes that top-k
//! exactly by pruning the index itself:
//!
//! - [`maxscore_search`] / [`maxscore_search_with`] — single-side BM25
//!   top-k with Turtle & Flood's MaxScore term partition, upgraded with
//!   block-max bounds: terms are split into an *essential* set — at least
//!   one of which any new top-k document must contain — and a
//!   non-essential remainder evaluated only for candidates that survive a
//!   per-block score bound check. [`PostingCursor::seek`] skips whole
//!   compressed blocks via their metadata without decoding them.
//! - [`blended_scan`] — the *two-sided* evaluator behind NewsLink's
//!   Equation-3 score `(1-β)·bow + β·bon`: one cursor set drives both the
//!   BOW and the BON posting lists with the combined bound
//!   `(1-β)·bow_bound + β·bon_bound`, producing the blended top-k
//!   directly, without materializing per-document score maps.
//!
//! ## Exactness
//!
//! Pruning decisions only ever *skip* pushing a document whose score
//! upper bound cannot beat the current k-th score; a skipped push is
//! exactly one the top-k heap would have rejected (rejected pushes leave
//! the heap untouched, including its tie counter). Full scores are
//! accumulated in the same canonical term order as the exhaustive
//! evaluator ([`crate::search::score_segment`]), so surviving documents
//! carry bit-identical f64 scores. Every bound is additionally inflated
//! by [`SAFETY`] before comparison so floating-point rounding in the
//! bound arithmetic can never turn a mathematical upper bound into a
//! hair-too-small one.

use newslink_util::{FxHashMap, TopK};

use crate::dictionary::TermId;
use crate::inverted::{CollectionStats, DocId, InvertedIndex, PostingCursor, PostingList};
use crate::score::Bm25;
use crate::search::Hit;

/// Multiplicative inflation applied to every pruning bound before it is
/// compared against the heap threshold. Bounds are mathematical upper
/// bounds evaluated in floating point; their handful of f64 operations
/// can land within ~1e-14 relative error of the true supremum, so
/// comparing `bound * SAFETY` guarantees a document whose exact score
/// would beat the threshold is never skipped — pruning stays exact, it
/// only becomes infinitesimally less eager.
pub const SAFETY: f64 = 1.0 + 1e-9;

/// Work counters for the pruned evaluators: how much the index structure
/// let us avoid.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PruneStats {
    /// Live candidate documents examined (DAAT pivots).
    pub candidates: u64,
    /// Candidates that survived every bound check and were fully scored.
    pub scored: u64,
    /// Posting blocks skipped whole by metadata, never decoded.
    pub blocks_skipped: u64,
}

impl PruneStats {
    /// Fold another evaluator pass's counters in.
    pub fn add(&mut self, other: &PruneStats) {
        self.candidates += other.candidates;
        self.scored += other.scored;
        self.blocks_skipped += other.blocks_skipped;
    }
}

/// Upper bound of BM25's tf-saturation factor over all document lengths:
/// `tf·(k1+1) / (tf + k1·(1-b))` — the saturation at the minimal length
/// norm `1-b` (`doc_len = 0`). Exact (not just an upper bound) for
/// `b = 0`, where the norm is length-independent.
#[inline]
fn sat_bound(scorer: &Bm25, tf: u32) -> f64 {
    if tf == 0 {
        return 0.0;
    }
    let tf = f64::from(tf);
    tf * (scorer.k1 + 1.0) / (tf + scorer.k1 * (1.0 - scorer.b))
}

/// Top-k search with MaxScore pruning; identical results to exhaustive
/// BM25 evaluation (same scores, same deterministic tie-breaking).
pub fn maxscore_search<T: AsRef<str>>(
    index: &InvertedIndex,
    scorer: Bm25,
    query_terms: &[T],
    k: usize,
) -> Vec<Hit> {
    maxscore_search_with(
        index,
        scorer,
        query_terms,
        k,
        CollectionStats::from_index(index),
        |term| index.term_id(term).map(|t| index.doc_freq(t)).unwrap_or(0),
        |_| true,
    )
}

/// Per-query-term state for the single-side DAAT traversal.
struct TermCursor<'i> {
    cursor: PostingCursor<'i>,
    /// `qtf · idf` ([`Bm25::term_partial`]) — multiply by a saturation
    /// bound for a score bound, or by the actual saturation for the
    /// term's exact contribution.
    base: f64,
    /// Upper bound on this term's contribution to any document.
    max_contribution: f64,
}

/// MaxScore top-k over one **segment** of a larger collection.
///
/// `stats` and `df_of` supply the collection-wide overlay (live document
/// count, total length, per-term live document frequency) while postings
/// and document lengths stay segment-local; `live` filters tombstoned
/// documents out of candidacy. With monolithic stats, dictionary
/// doc-freqs, and an always-true filter this reduces to
/// [`maxscore_search`], and scores match the exhaustive evaluator
/// bit-for-bit because both delegate to [`Bm25::contribution_with`].
pub fn maxscore_search_with<T: AsRef<str>>(
    index: &InvertedIndex,
    scorer: Bm25,
    query_terms: &[T],
    k: usize,
    stats: CollectionStats,
    df_of: impl Fn(&str) -> u32,
    live: impl Fn(DocId) -> bool,
) -> Vec<Hit> {
    if k == 0 {
        return Vec::new();
    }
    // Aggregate query-side term frequencies and build cursors. The
    // query's own string rides along so `df_of` never needs an
    // id-to-term lookup (which would materialize a mapped dictionary).
    let mut qtf: FxHashMap<TermId, (u32, &str)> = FxHashMap::default();
    for t in query_terms {
        if let Some(id) = index.term_id(t.as_ref()) {
            qtf.entry(id).or_insert((0, t.as_ref())).0 += 1;
        }
    }
    let mut cursors: Vec<TermCursor<'_>> = qtf
        .into_iter()
        .filter_map(|(term, (qtf, text))| {
            let postings = index.postings(term);
            if postings.is_empty() {
                return None;
            }
            let df = df_of(text);
            let base = f64::from(qtf) * scorer.idf(stats.docs, df);
            // Bounded by the saturation limit of the list's largest tf at
            // the smallest possible length norm.
            let max_contribution = base * sat_bound(&scorer, postings.max_tf());
            Some(TermCursor {
                cursor: postings.cursor(),
                base,
                max_contribution,
            })
        })
        .collect();
    if cursors.is_empty() {
        return Vec::new();
    }
    // Ascending by bound: prefix terms are the non-essential ones.
    cursors.sort_by(|a, b| a.max_contribution.total_cmp(&b.max_contribution));
    // prefix_bounds[i] = sum of bounds of cursors[0..i].
    let mut prefix_bounds = vec![0.0f64; cursors.len() + 1];
    for i in 0..cursors.len() {
        prefix_bounds[i + 1] = prefix_bounds[i] + cursors[i].max_contribution;
    }

    let mut topk: TopK<DocId> = TopK::new(k);
    // Number of non-essential (prefix) terms; grows as threshold rises.
    let mut first_essential = 0usize;

    loop {
        // Raise the essential boundary as far as the threshold allows.
        if let Some(theta) = topk.threshold() {
            while first_essential < cursors.len()
                && prefix_bounds[first_essential + 1] * SAFETY <= theta
            {
                first_essential += 1;
            }
        }
        if first_essential >= cursors.len() {
            break; // no essential terms left: nothing new can qualify
        }
        // Next candidate: smallest current doc among essential cursors
        // (essential cursors never lag behind the pivot).
        let mut pivot: Option<DocId> = None;
        for c in &cursors[first_essential..] {
            if let Some(d) = c.cursor.current_doc() {
                pivot = Some(match pivot {
                    Some(p) if p <= d => p,
                    _ => d,
                });
            }
        }
        let Some(doc) = pivot else { break };

        // Tombstoned documents never qualify: advance past and move on.
        if !live(doc) {
            for c in cursors[first_essential..].iter_mut() {
                if c.cursor.current_doc() == Some(doc) {
                    c.cursor.advance();
                }
            }
            continue;
        }

        // Block-max refinement: tighten the essential bound from list-level
        // to the blocks the candidate actually lives in.
        if let Some(theta) = topk.threshold() {
            let mut block_bound = prefix_bounds[first_essential];
            for c in &cursors[first_essential..] {
                if c.cursor.current_doc() == Some(doc) {
                    block_bound += c.base * sat_bound(&scorer, c.cursor.block_max_tf());
                }
            }
            if block_bound * SAFETY <= theta {
                for c in cursors[first_essential..].iter_mut() {
                    if c.cursor.current_doc() == Some(doc) {
                        c.cursor.advance();
                    }
                }
                continue;
            }
        }

        // Score essential terms for `doc`, advancing their cursors. The
        // per-term `base` is exactly `qtf · idf`, so finishing from the
        // partial is bit-identical to `contribution_with` and skips the
        // per-posting idf recomputation.
        let mut score = 0.0;
        let doc_len = index.doc_len(doc);
        for c in cursors[first_essential..].iter_mut() {
            if let Some(p) = c.cursor.current() {
                if p.doc == doc {
                    score += scorer.contribution_from_partial(stats, doc_len, p.tf, c.base);
                    c.cursor.advance();
                }
            }
        }
        // Add non-essential terms most-promising-first, abandoning the
        // candidate as soon as even full bounds cannot reach the threshold.
        for i in (0..first_essential).rev() {
            if let Some(theta) = topk.threshold() {
                if (score + prefix_bounds[i + 1]) * SAFETY <= theta {
                    score = f64::NEG_INFINITY; // cannot qualify
                    break;
                }
            }
            let c = &mut cursors[i];
            c.cursor.seek(doc);
            if let Some(p) = c.cursor.current() {
                if p.doc == doc {
                    score += scorer.contribution_from_partial(stats, doc_len, p.tf, c.base);
                }
            }
        }
        if score > 0.0 {
            topk.push(score, doc);
        }
    }

    let mut hits: Vec<Hit> = topk
        .into_sorted()
        .into_iter()
        .map(|(score, doc)| Hit { doc, score })
        .collect();
    // TopK ties break by insertion order, which here is doc order — same
    // as the exhaustive Searcher. Re-sort defensively for determinism.
    hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc)));
    hits
}

/// One side (BOW or BON) of the blended evaluator, fully resolved
/// against one segment.
pub struct SideSpec<'i> {
    /// The segment's inverted index for this side (document lengths).
    pub index: &'i InvertedIndex,
    /// The side's BM25 parameterization.
    pub scorer: Bm25,
    /// Collection-wide overlay statistics for the side.
    pub stats: CollectionStats,
    /// `(postings, query_tf, global_df)` per resolved query term, in the
    /// shared canonical query-term order — the order
    /// [`crate::search::score_segment`] accumulates contributions in,
    /// which the blended evaluator must reproduce for bit-identity.
    pub terms: Vec<(&'i PostingList, u32, u32)>,
    /// Normalization divisor (the side's global score max, or 1.0).
    pub norm: f64,
}

/// Per-term cursor state of the blended evaluator. Cursor order is the
/// canonical accumulation order: all BOW terms first, then all BON
/// terms, each side in its spec order.
struct BlendedCursor<'i> {
    cursor: PostingCursor<'i>,
    /// 0 = BOW, 1 = BON.
    side: usize,
    scorer: Bm25,
    /// `qtf · idf` ([`Bm25::term_partial`]) — the document-independent
    /// factor of this term's raw contribution, folded once per term so
    /// the scoring loop multiplies it by saturation per posting instead
    /// of recomputing the idf (bit-identical: the product associates at
    /// the same boundary).
    partial: f64,
    /// `weight · qtf · idf / norm` — multiply by a saturation bound for
    /// a weighted normalized score bound.
    base: f64,
    /// List-level weighted upper bound on this term's blended
    /// contribution.
    wub: f64,
}

/// Pruned blended top-k scan of **one segment**: pushes every live
/// document whose Equation-3 score `(1-β)·bow + β·bon` can still beat
/// the threshold of `topk`, in ascending doc-id order, with scores
/// bit-identical to the exhaustive map-based evaluator.
///
/// For bit-identical top-k across segments, feed each segment a *fresh*
/// `topk` and merge the survivors afterwards: a heap carried across
/// segments can retain a different one of several tied documents than
/// the per-segment-then-merge structure the exhaustive path uses.
/// (Sharing `topk` across segments is fine when only the retained
/// *values* matter, e.g. a top-1 max pass.)
///
/// `floor` is an extra pruning threshold from *outside* this segment:
/// the merged heap's k-th score after the previous segments
/// (`f64::NEG_INFINITY` for none). Skipping a candidate whose bound is
/// ≤ the floor cannot change the merged outcome: such a document would
/// be rejected when the survivors are pushed into the (already full,
/// min ≥ floor) merged heap, and inside this segment's heap ≤-floor
/// entries are only ever eviction victims, so which above-floor
/// documents survive — and their tie order — is unaffected by their
/// presence.
///
/// `map_doc` translates segment-local ids to global ones at push time;
/// `live` filters tombstoned documents. A side passed as `None`
/// contributes 0.0, matching the exhaustive path's behavior for
/// `β ∈ {0, 1}` and for sides with no live documents.
#[allow(clippy::too_many_arguments)]
pub fn blended_scan(
    bow: Option<&SideSpec<'_>>,
    bon: Option<&SideSpec<'_>>,
    beta: f64,
    floor: f64,
    live: impl Fn(DocId) -> bool,
    map_doc: impl Fn(DocId) -> DocId,
    topk: &mut TopK<(DocId, f64, f64)>,
    stats_out: &mut PruneStats,
) {
    let sides = [bow, bon];
    let weights = [1.0 - beta, beta];
    let mut cursors: Vec<BlendedCursor<'_>> = Vec::new();
    for (si, spec) in sides.iter().enumerate() {
        let Some(spec) = spec else { continue };
        for &(list, qtf, df) in &spec.terms {
            if list.is_empty() {
                continue;
            }
            let base = weights[si] * f64::from(qtf) * spec.scorer.idf(spec.stats.docs, df)
                / spec.norm;
            let wub = base * sat_bound(&spec.scorer, list.max_tf());
            cursors.push(BlendedCursor {
                cursor: list.cursor(),
                side: si,
                scorer: spec.scorer,
                partial: spec.scorer.term_partial(spec.stats, df, qtf),
                base,
                wub,
            });
        }
    }
    if cursors.is_empty() {
        return;
    }
    // Evaluation order ascending by bound; ties by canonical index so the
    // partition is deterministic. (Bound order only steers *which* docs
    // get fully scored, never their scores.)
    let mut order: Vec<usize> = (0..cursors.len()).collect();
    order.sort_by(|&a, &b| cursors[a].wub.total_cmp(&cursors[b].wub).then(a.cmp(&b)));
    // prefix_bounds[i] = sum of bounds of order[0..i].
    let mut prefix_bounds = vec![0.0f64; cursors.len() + 1];
    for i in 0..cursors.len() {
        prefix_bounds[i + 1] = prefix_bounds[i] + cursors[order[i]].wub;
    }
    let mut first_essential = 0usize;

    loop {
        let theta = topk.threshold().unwrap_or(f64::NEG_INFINITY).max(floor);
        while first_essential < cursors.len()
            && prefix_bounds[first_essential + 1] * SAFETY <= theta
        {
            first_essential += 1;
        }
        if first_essential >= cursors.len() {
            break;
        }
        let mut pivot: Option<DocId> = None;
        for &ci in &order[first_essential..] {
            if let Some(d) = cursors[ci].cursor.current_doc() {
                pivot = Some(match pivot {
                    Some(p) if p <= d => p,
                    _ => d,
                });
            }
        }
        let Some(doc) = pivot else { break };

        if live(doc) {
            stats_out.candidates += 1;
            // Bound refinement, most-promising non-essential first:
            // `bound` holds block-level bounds for every cursor known to
            // sit on `doc` plus list-level bounds for the not-yet-seeked
            // prefix. Only bounds are consulted here — actual scores are
            // computed once, in canonical order, for survivors.
            let mut bound = prefix_bounds[first_essential];
            for &ci in &order[first_essential..] {
                let c = &cursors[ci];
                if c.cursor.current_doc() == Some(doc) {
                    bound += c.base * sat_bound(&c.scorer, c.cursor.block_max_tf());
                }
            }
            let mut abandoned = false;
            let mut j = first_essential;
            loop {
                let local = topk.threshold().unwrap_or(f64::NEG_INFINITY);
                if bound * SAFETY <= local.max(floor) {
                    abandoned = true;
                    break;
                }
                if j == 0 {
                    break;
                }
                j -= 1;
                let ci = order[j];
                bound -= cursors[ci].wub;
                let c = &mut cursors[ci];
                c.cursor.seek(doc);
                if c.cursor.current_doc() == Some(doc) {
                    bound += c.base * sat_bound(&c.scorer, c.cursor.block_max_tf());
                }
            }
            if !abandoned {
                stats_out.scored += 1;
                // Canonical-order accumulation: identical f64 sums to the
                // exhaustive evaluator's per-document map entries. The
                // per-term `qtf · idf` partial is folded into the cursor;
                // only the length-dependent saturation is computed here.
                let mut raw = [0.0f64; 2];
                for c in &cursors {
                    if let Some(p) = c.cursor.current() {
                        if p.doc == doc {
                            let spec = sides[c.side].expect("cursor from an active side");
                            raw[c.side] += spec.scorer.contribution_from_partial(
                                spec.stats,
                                spec.index.doc_len(doc),
                                p.tf,
                                c.partial,
                            );
                        }
                    }
                }
                let bow_v = sides[0].map_or(0.0, |s| raw[0] / s.norm);
                let bon_v = sides[1].map_or(0.0, |s| raw[1] / s.norm);
                let score = (1.0 - beta) * bow_v + beta * bon_v;
                if score > 0.0 {
                    topk.push(score, (map_doc(doc), bow_v, bon_v));
                }
            }
        }
        for c in cursors.iter_mut() {
            if c.cursor.current_doc() == Some(doc) {
                c.cursor.advance();
            }
        }
    }
    stats_out.blocks_skipped += cursors
        .iter()
        .map(|c| c.cursor.blocks_skipped())
        .sum::<u64>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inverted::IndexBuilder;
    use crate::search::{query_tf, score_segment, Searcher};
    use newslink_util::DetRng;

    fn random_index(seed: u64, docs: usize, vocab: usize) -> (InvertedIndex, Vec<Vec<String>>) {
        let mut rng = DetRng::new(seed);
        let mut b = IndexBuilder::new();
        let mut all = Vec::new();
        for _ in 0..docs {
            let len = rng.range(3, 30);
            let terms: Vec<String> = (0..len)
                .map(|_| format!("t{}", rng.zipf(vocab, 1.2)))
                .collect();
            b.add_document(&terms);
            all.push(terms);
        }
        (b.build(), all)
    }

    #[test]
    fn matches_exhaustive_search_exactly() {
        let (index, _) = random_index(1, 300, 50);
        let searcher = Searcher::new(&index, Bm25::default());
        for qseed in 0..20u64 {
            let mut rng = DetRng::new(1000 + qseed);
            let qlen = rng.range(1, 6);
            let query: Vec<String> = (0..qlen).map(|_| format!("t{}", rng.zipf(50, 1.2))).collect();
            let naive = searcher.search(&query, 10);
            let pruned = maxscore_search(&index, Bm25::default(), &query, 10);
            assert_eq!(naive.len(), pruned.len(), "query {query:?}");
            for (a, b) in naive.iter().zip(&pruned) {
                assert_eq!(a.doc, b.doc, "query {query:?}");
                assert!((a.score - b.score).abs() < 1e-9, "query {query:?}");
            }
        }
    }

    #[test]
    fn handles_unknown_terms() {
        let (index, _) = random_index(2, 50, 20);
        assert!(maxscore_search(&index, Bm25::default(), &["zzz"], 5).is_empty());
        let mixed = maxscore_search(&index, Bm25::default(), &["zzz", "t1"], 5);
        let naive = Searcher::new(&index, Bm25::default()).search(&["zzz", "t1"], 5);
        assert_eq!(mixed.len(), naive.len());
    }

    #[test]
    fn k_zero_and_empty_query() {
        let (index, _) = random_index(3, 50, 20);
        assert!(maxscore_search(&index, Bm25::default(), &["t1"], 0).is_empty());
        assert!(maxscore_search::<&str>(&index, Bm25::default(), &[], 10).is_empty());
    }

    #[test]
    fn small_k_prunes_but_stays_exact() {
        let (index, _) = random_index(4, 1000, 30);
        let query = ["t0", "t1", "t2", "t3", "t4"];
        let naive = Searcher::new(&index, Bm25::default()).search(&query, 1);
        let pruned = maxscore_search(&index, Bm25::default(), &query, 1);
        assert_eq!(naive[0].doc, pruned[0].doc);
        assert!((naive[0].score - pruned[0].score).abs() < 1e-9);
    }

    #[test]
    fn repeated_query_terms_weighted() {
        let (index, _) = random_index(5, 200, 20);
        let naive = Searcher::new(&index, Bm25::default()).search(&["t1", "t1", "t2"], 8);
        let pruned = maxscore_search(&index, Bm25::default(), &["t1", "t1", "t2"], 8);
        for (a, b) in naive.iter().zip(&pruned) {
            assert_eq!(a.doc, b.doc);
            assert!((a.score - b.score).abs() < 1e-9);
        }
    }

    #[test]
    fn overlay_with_tombstones_matches_filtered_exhaustive() {
        let (index, docs) = random_index(7, 200, 30);
        // Tombstone every fifth document.
        let dead: Vec<DocId> = (0..docs.len() as u32)
            .filter(|d| d % 5 == 0)
            .map(DocId)
            .collect();
        let is_live = |d: DocId| !dead.contains(&d);
        // Overlay stats over live docs only.
        let mut stats = CollectionStats::default();
        for d in 0..docs.len() as u32 {
            if is_live(DocId(d)) {
                stats.add_doc(index.doc_len(DocId(d)));
            }
        }
        let df_of = |term: &str| {
            index
                .postings_for(term)
                .iter()
                .filter(|p| is_live(p.doc))
                .count() as u32
        };
        let query = ["t0", "t1", "t2"];
        let pruned = maxscore_search_with(&index, Bm25::default(), &query, 10, stats, df_of, is_live);
        assert!(!pruned.is_empty());
        assert!(pruned.iter().all(|h| is_live(h.doc)));

        // Reference: rebuild an index from live docs only and search it.
        let mut b = IndexBuilder::new();
        let mut live_ids = Vec::new();
        for (i, terms) in docs.iter().enumerate() {
            if is_live(DocId(i as u32)) {
                live_ids.push(i as u32);
                b.add_document(terms);
            }
        }
        let fresh = b.build();
        let want = Searcher::new(&fresh, Bm25::default()).search(&query, 10);
        assert_eq!(pruned.len(), want.len());
        for (a, b) in pruned.iter().zip(&want) {
            assert_eq!(a.doc, DocId(live_ids[b.doc.index()]));
            assert!((a.score - b.score).abs() < 1e-9);
        }
    }

    #[test]
    fn seek_gallops_correctly() {
        let mut b = IndexBuilder::new();
        for i in 0..100 {
            if i % 3 == 0 {
                b.add_document(&["x"]);
            } else {
                b.add_document(&["y"]);
            }
        }
        let index = b.build();
        let naive = Searcher::new(&index, Bm25::default()).search(&["x", "y"], 10);
        let pruned = maxscore_search(&index, Bm25::default(), &["x", "y"], 10);
        assert_eq!(naive.len(), pruned.len());
        for (a, b) in naive.iter().zip(&pruned) {
            assert_eq!(a.doc, b.doc);
        }
    }

    /// Build a [`SideSpec`] the way the segmented engine does: terms in
    /// `query_tf` iteration order, dictionary doc-freqs, no overlay.
    fn spec_for<'i>(
        index: &'i InvertedIndex,
        scorer: Bm25,
        qtf: &FxHashMap<&str, u32>,
        norm: f64,
    ) -> SideSpec<'i> {
        let dict = index.dictionary();
        let mut terms = Vec::new();
        for (term, &q) in qtf {
            let Some(id) = dict.get(term) else { continue };
            terms.push((index.postings(id), q, dict.doc_freq(id)));
        }
        SideSpec {
            index,
            scorer,
            stats: CollectionStats::from_index(index),
            terms,
            norm,
        }
    }

    /// Exhaustive oracle mirroring the engine's map-based blended path.
    fn blended_exhaustive(
        index: &InvertedIndex,
        query: &[String],
        beta: f64,
        k: usize,
    ) -> Vec<(DocId, f64, f64, f64)> {
        let qtf = query_tf(query);
        let dict = index.dictionary();
        let stats = CollectionStats::from_index(index);
        let mut df = FxHashMap::default();
        for term in qtf.keys() {
            if let Some(id) = dict.get(term) {
                df.insert(*term, dict.doc_freq(id));
            }
        }
        let scores = score_segment(Bm25::default(), index, stats, &qtf, &df, |_| true);
        let mut docs: Vec<DocId> = scores.keys().copied().collect();
        docs.sort_unstable();
        let mut topk = TopK::new(k);
        for doc in docs {
            let bow = scores.get(&doc).copied().unwrap_or(0.0);
            let score = (1.0 - beta) * bow + beta * 0.0;
            if score > 0.0 {
                topk.push(score, (doc, bow, 0.0));
            }
        }
        topk.into_sorted()
            .into_iter()
            .map(|(s, (d, bw, bn))| (d, s, bw, bn))
            .collect()
    }

    #[test]
    fn blended_scan_single_side_is_bit_identical_to_exhaustive() {
        let (index, _) = random_index(11, 400, 40);
        for beta in [0.0, 0.4] {
            for k in [1usize, 5, 1000] {
                for qseed in 0..10u64 {
                    let mut rng = DetRng::new(3000 + qseed);
                    let qlen = rng.range(1, 6);
                    let query: Vec<String> =
                        (0..qlen).map(|_| format!("t{}", rng.zipf(40, 1.2))).collect();
                    let qtf = query_tf(&query);
                    let spec = spec_for(&index, Bm25::default(), &qtf, 1.0);
                    let mut topk = TopK::new(k);
                    let mut stats = PruneStats::default();
                    blended_scan(
                        Some(&spec),
                        None,
                        beta,
                        f64::NEG_INFINITY,
                        |_| true,
                        |d| d,
                        &mut topk,
                        &mut stats,
                    );
                    let got: Vec<(DocId, f64, f64, f64)> = topk
                        .into_sorted()
                        .into_iter()
                        .map(|(s, (d, bw, bn))| (d, s, bw, bn))
                        .collect();
                    let want = blended_exhaustive(&index, &query, beta, k);
                    assert_eq!(got.len(), want.len(), "beta {beta} k {k} query {query:?}");
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(g.0, w.0, "beta {beta} k {k} query {query:?}");
                        assert_eq!(g.1.to_bits(), w.1.to_bits(), "score bits");
                        assert_eq!(g.2.to_bits(), w.2.to_bits(), "bow bits");
                        assert_eq!(g.3.to_bits(), w.3.to_bits(), "bon bits");
                    }
                    assert!(stats.scored <= stats.candidates);
                }
            }
        }
    }

    #[test]
    fn blended_scan_prunes_on_small_k() {
        let (index, _) = random_index(12, 2000, 30);
        let query: Vec<String> = (0..4).map(|i| format!("t{i}")).collect();
        let qtf = query_tf(&query);
        let spec = spec_for(&index, Bm25::default(), &qtf, 1.0);
        let mut topk = TopK::new(3);
        let mut stats = PruneStats::default();
        blended_scan(
            Some(&spec),
            None,
            0.0,
            f64::NEG_INFINITY,
            |_| true,
            |d| d,
            &mut topk,
            &mut stats,
        );
        assert!(stats.candidates > 0);
        assert!(
            stats.scored < stats.candidates,
            "expected pruning: {stats:?}"
        );
    }
}
