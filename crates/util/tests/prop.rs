//! Property tests for the utility primitives.

use proptest::prelude::*;

use newslink_util::{histogram, varint};
use newslink_util::{DetRng, Histogram, TopK};

proptest! {
    /// TopK agrees with sort-and-truncate for arbitrary score streams.
    #[test]
    fn topk_matches_sorting(
        scores in prop::collection::vec(-1e6f64..1e6, 0..200),
        k in 0usize..20,
    ) {
        let mut tk = TopK::new(k);
        for (i, &s) in scores.iter().enumerate() {
            tk.push(s, i);
        }
        let got = tk.into_sorted();
        let mut want: Vec<(f64, usize)> =
            scores.iter().copied().enumerate().map(|(i, s)| (s, i)).collect();
        // descending score, ascending index on ties (earlier insertion wins)
        want.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        want.truncate(k);
        prop_assert_eq!(got, want);
    }

    /// The same agreement when scores come from a handful of values, so
    /// tie groups routinely straddle rank k: the earliest-pushed members
    /// of the group must be the survivors.
    #[test]
    fn topk_keeps_earliest_ties_at_the_cut(
        scores in prop::collection::vec(0u8..4, 0..60),
        k in 0usize..12,
    ) {
        let mut tk = TopK::new(k);
        for (i, &s) in scores.iter().enumerate() {
            tk.push(f64::from(s), i);
        }
        let got = tk.into_sorted();
        let mut want: Vec<(f64, usize)> =
            scores.iter().enumerate().map(|(i, &s)| (f64::from(s), i)).collect();
        want.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        want.truncate(k);
        prop_assert_eq!(got, want);
    }

    /// Varints round-trip any u64 and any sequence.
    #[test]
    fn varint_round_trips(values in prop::collection::vec(any::<u64>(), 0..64)) {
        let mut buf = Vec::new();
        for &v in &values {
            varint::write_u64(&mut buf, v).unwrap();
        }
        let mut r = &buf[..];
        for &v in &values {
            prop_assert_eq!(varint::read_u64(&mut r).unwrap(), v);
        }
        prop_assert!(r.is_empty());
    }

    /// Strings of any shape round-trip.
    #[test]
    fn varint_strings_round_trip(s in "\\PC*") {
        let mut buf = Vec::new();
        varint::write_str(&mut buf, &s).unwrap();
        let got = varint::read_str(&mut &buf[..], s.len().max(1)).unwrap();
        prop_assert_eq!(got, s);
    }

    /// below() is uniform enough to hit every bucket of a small range.
    #[test]
    fn rng_below_stays_in_bounds(seed in any::<u64>(), bound in 1usize..1000) {
        let mut rng = DetRng::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    /// sample_indices returns distinct in-range indices.
    #[test]
    fn rng_sample_indices_distinct(seed in any::<u64>(), n in 1usize..200, k in 0usize..100) {
        let mut rng = DetRng::new(seed);
        let s = rng.sample_indices(n, k);
        prop_assert_eq!(s.len(), k.min(n));
        let set: std::collections::HashSet<_> = s.iter().collect();
        prop_assert_eq!(set.len(), s.len());
        prop_assert!(s.iter().all(|&i| i < n));
    }

    /// pick_weighted never selects a zero-weight item.
    #[test]
    fn rng_pick_weighted_respects_zeros(
        seed in any::<u64>(),
        weights in prop::collection::vec(0.0f64..10.0, 1..20),
    ) {
        let mut rng = DetRng::new(seed);
        for _ in 0..50 {
            match rng.pick_weighted(&weights) {
                Some(i) => prop_assert!(weights[i] > 0.0),
                None => prop_assert!(weights.iter().all(|&w| w <= 0.0)),
            }
        }
    }

    /// Histogram merge is associative (and agrees with recording the
    /// concatenated stream).
    #[test]
    fn histogram_merge_associative(
        xs in prop::collection::vec(any::<u64>(), 0..100),
        ys in prop::collection::vec(any::<u64>(), 0..100),
        zs in prop::collection::vec(any::<u64>(), 0..100),
    ) {
        let build = |vals: &[u64]| {
            let mut h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let (a, b, c) = (build(&xs), build(&ys), build(&zs));
        prop_assert_eq!(a.merged(&b).merged(&c), a.merged(&b.merged(&c)));
        prop_assert_eq!(a.merged(&b), b.merged(&a));
        let mut all = xs.clone();
        all.extend(&ys);
        all.extend(&zs);
        prop_assert_eq!(build(&all), a.merged(&b).merged(&c));
    }

    /// Bucket index is monotone in the value, and every value lies within
    /// its bucket's bounds.
    #[test]
    fn histogram_buckets_monotone(mut values in prop::collection::vec(any::<u64>(), 2..100)) {
        values.sort_unstable();
        for w in values.windows(2) {
            prop_assert!(histogram::bucket_index(w[0]) <= histogram::bucket_index(w[1]));
        }
        for &v in &values {
            let i = histogram::bucket_index(v);
            prop_assert!(v <= histogram::bucket_upper_bound(i));
            if i > 0 {
                prop_assert!(v > histogram::bucket_upper_bound(i - 1));
            }
        }
    }

    /// Quantiles are bucket upper bounds: for the q-th ranked sample v,
    /// v <= quantile(q) < 2·v (exact at v = 0), and quantile(1.0) bounds
    /// the maximum.
    #[test]
    fn histogram_quantile_bounds(
        values in prop::collection::vec(0u64..1_000_000, 1..200),
        q in 0.0f64..1.0,
    ) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        let true_v = sorted[rank - 1];
        let got = h.quantile(q);
        prop_assert!(got >= true_v, "quantile({q}) = {got} < sample {true_v}");
        if true_v > 0 {
            prop_assert!(got < 2 * true_v, "quantile({q}) = {got} >= 2·{true_v}");
        } else {
            prop_assert_eq!(got, 0);
        }
        prop_assert!(h.quantile(1.0) >= *sorted.last().unwrap());
        prop_assert_eq!(h.count(), values.len() as u64);
    }
}
