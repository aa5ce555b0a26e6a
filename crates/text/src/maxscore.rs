//! Document-at-a-time top-k with MaxScore and block-max pruning.
//!
//! The paper's NS component "employ\[s\] existing top-k ranking algorithms
//! \[Threshold Algorithm; VSM\]" (§VI). [`blended_scan`] computes that
//! top-k exactly by pruning the index itself. It evaluates NewsLink's
//! Equation-3 score `(1-β)·bow + β·bon`: one cursor set drives both the
//! BOW and the BON posting lists. Terms are split, in Turtle & Flood's
//! MaxScore fashion, into an *essential* set — at least one of which any
//! new top-k document must contain — and a non-essential remainder
//! evaluated only for candidates that survive a per-block score bound
//! check against the combined bound `(1-β)·bow_bound + β·bon_bound`.
//! [`PostingCursor::seek`] skips whole compressed blocks via their
//! metadata without decoding them. With one side at its full weight
//! (β = 0 with BOW alone) the scan is plain BM25 top-k, which is how
//! `newslink-core`'s `NewsLinkIndex::bow_topk` runs it.
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

use newslink_util::TopK;

use crate::inverted::{CollectionStats, DocId, InvertedIndex, PostingCursor, PostingList};
use crate::score::Bm25;

/// Multiplicative inflation applied to every pruning bound before it is
/// compared against the heap threshold. Bounds are mathematical upper
/// bounds evaluated in floating point; their handful of f64 operations
/// can land within ~1e-14 relative error of the true supremum, so
/// comparing `bound * SAFETY` guarantees a document whose exact score
/// would beat the threshold is never skipped — pruning stays exact, it
/// only becomes infinitesimally less eager.
pub(crate) const SAFETY: f64 = 1.0 + 1e-9;

/// Work counters for the pruned evaluator: how much the index structure
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
    use crate::search::{query_tf, score_segment};
    use newslink_util::{DetRng, FxHashMap};

    fn random_index(seed: u64, docs: usize, vocab: usize) -> InvertedIndex {
        let mut rng = DetRng::new(seed);
        let mut b = IndexBuilder::new();
        for _ in 0..docs {
            let len = rng.range(3, 30);
            let terms: Vec<String> = (0..len)
                .map(|_| format!("t{}", rng.zipf(vocab, 1.2)))
                .collect();
            b.add_document(&terms);
        }
        b.build()
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
        let index = random_index(11, 400, 40);
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
        let index = random_index(12, 2000, 30);
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
