//! Bounded top-k selection over a stream of scored items.
//!
//! Every ranking component in the workspace (BOW search, BON search, the
//! blended NewsLink scorer, all baselines) funnels candidates through this
//! structure. It keeps the k best-scoring items in a min-heap so that each
//! push is `O(log k)` and the common reject path (score below the current
//! threshold once the heap is full) is `O(1)`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scored entry. Ordered by score ascending so the *worst* retained item
/// sits at the top of the `BinaryHeap` (min-heap via reversed comparison).
#[derive(Debug, Clone, Copy)]
struct Entry<T> {
    score: f64,
    tie: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score && self.tie == other.tie
    }
}
impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: lower score = "greater" so BinaryHeap pops the minimum.
        // Ties broken by insertion sequence (later = greater), so the
        // latest of several equal-scored minima is the one evicted and
        // the earliest survive, yielding deterministic output.
        other
            .score
            .total_cmp(&self.score)
            .then_with(|| self.tie.cmp(&other.tie))
    }
}

/// A bounded collector that retains the `k` highest-scoring items.
///
/// Retains exactly the `k` best items under (score descending, insertion
/// order ascending): ties are broken toward earlier insertions, both when
/// a tied newcomer meets a full heap and when a better item evicts one of
/// several tied minima. Callers that push in ascending document-id order
/// therefore keep the lowest ids of a tie group that straddles rank `k`,
/// however the documents were partitioned.
#[derive(Debug, Clone)]
pub struct TopK<T> {
    k: usize,
    seq: u64,
    heap: BinaryHeap<Entry<T>>,
}

impl<T> TopK<T> {
    /// Create a collector for the top `k` items. `k == 0` collects nothing.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            seq: 0,
            heap: BinaryHeap::with_capacity(k.saturating_add(1)),
        }
    }

    /// True when no items are retained.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The score an item must *exceed* to enter a full collector, if full.
    pub fn threshold(&self) -> Option<f64> {
        if self.heap.len() >= self.k {
            self.heap.peek().map(|e| e.score)
        } else {
            None
        }
    }

    /// Offer an item. Returns `true` if it was retained.
    pub fn push(&mut self, score: f64, item: T) -> bool {
        if self.k == 0 {
            return false;
        }
        if self.heap.len() == self.k {
            // Fast reject: strictly worse than (or tied with) the current
            // minimum loses — earlier insertions win ties.
            let min = self.heap.peek().expect("heap non-empty when full");
            if score <= min.score {
                return false;
            }
            self.heap.pop();
        }
        self.heap.push(Entry {
            score,
            tie: self.seq,
            item,
        });
        self.seq += 1;
        true
    }

    /// Consume the collector, returning `(score, item)` pairs sorted by
    /// descending score (earlier-inserted first among equal scores).
    pub fn into_sorted(self) -> Vec<(f64, T)> {
        let mut entries: Vec<Entry<T>> = self.heap.into_vec();
        entries.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.tie.cmp(&b.tie)));
        entries.into_iter().map(|e| (e.score, e.item)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retains_best_k() {
        let mut tk = TopK::new(3);
        for (s, i) in [(1.0, 'a'), (5.0, 'b'), (3.0, 'c'), (4.0, 'd'), (2.0, 'e')] {
            tk.push(s, i);
        }
        let out = tk.into_sorted();
        assert_eq!(
            out.iter().map(|(_, c)| *c).collect::<String>(),
            "bdc".to_string()
        );
    }

    #[test]
    fn fewer_than_k_returns_all_sorted() {
        let mut tk = TopK::new(10);
        tk.push(1.0, "x");
        tk.push(9.0, "y");
        let out = tk.into_sorted();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].1, "y");
        assert_eq!(out[1].1, "x");
    }

    #[test]
    fn zero_k_accepts_nothing() {
        let mut tk = TopK::new(0);
        assert!(!tk.push(100.0, ()));
        assert!(tk.is_empty());
        assert!(tk.into_sorted().is_empty());
    }

    #[test]
    fn ties_prefer_earlier_insertions() {
        let mut tk = TopK::new(2);
        tk.push(1.0, "first");
        tk.push(1.0, "second");
        tk.push(1.0, "third"); // tied with the minimum -> rejected
        let out = tk.into_sorted();
        assert_eq!(out[0].1, "first");
        assert_eq!(out[1].1, "second");
    }

    #[test]
    fn eviction_from_a_tie_group_straddling_k_drops_the_latest() {
        // Three entries tie at the cut of k = 3; a better item arriving
        // afterwards must evict the *latest* of them, so the survivors
        // are the earliest pushes — the same set a single sorted pass
        // would keep.
        let mut tk = TopK::new(3);
        tk.push(1.0, "a");
        tk.push(1.0, "b");
        tk.push(1.0, "c");
        tk.push(2.0, "d");
        let out = tk.into_sorted();
        assert_eq!(out.iter().map(|(_, s)| *s).collect::<Vec<_>>(), ["d", "a", "b"]);

        // Same scores, pushed around a better item that arrives first:
        // the result is the same function of (score, push order).
        let mut tk = TopK::new(3);
        tk.push(2.0, "d");
        tk.push(1.0, "a");
        tk.push(1.0, "b");
        tk.push(1.0, "c");
        let out = tk.into_sorted();
        assert_eq!(out.iter().map(|(_, s)| *s).collect::<Vec<_>>(), ["d", "a", "b"]);
    }

    #[test]
    fn threshold_reports_current_minimum_when_full() {
        let mut tk = TopK::new(2);
        assert_eq!(tk.threshold(), None);
        tk.push(3.0, ());
        assert_eq!(tk.threshold(), None);
        tk.push(7.0, ());
        assert_eq!(tk.threshold(), Some(3.0));
        tk.push(5.0, ());
        assert_eq!(tk.threshold(), Some(5.0));
    }

    #[test]
    fn push_reports_retention() {
        let mut tk = TopK::new(1);
        assert!(tk.push(1.0, ()));
        assert!(!tk.push(0.5, ()));
        assert!(tk.push(2.0, ()));
    }

    #[test]
    fn handles_negative_and_nan_free_ordering() {
        let mut tk = TopK::new(2);
        tk.push(-5.0, "a");
        tk.push(-1.0, "b");
        tk.push(-3.0, "c");
        let out = tk.into_sorted();
        assert_eq!(out[0].1, "b");
        assert_eq!(out[1].1, "c");
    }

    #[test]
    fn large_stream_matches_naive_selection() {
        let mut tk = TopK::new(16);
        let mut all = Vec::new();
        let mut x = 123456789u64;
        for i in 0..5000u64 {
            // simple LCG scores
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let score = (x >> 33) as f64 / 1e6;
            all.push((score, i));
            tk.push(score, i);
        }
        all.sort_by(|a, b| b.0.total_cmp(&a.0));
        let got = tk.into_sorted();
        for (g, w) in got.iter().zip(all.iter().take(16)) {
            assert_eq!(g.0, w.0);
            assert_eq!(g.1, w.1);
        }
    }
}
