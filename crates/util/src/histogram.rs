//! Log2-bucketed value histograms.
//!
//! [`Histogram`] counts `u64` observations (the serving layer records
//! request latencies in microseconds) into power-of-two buckets: bucket 0
//! holds the value `0`, bucket `i ≥ 1` holds `[2^(i-1), 2^i - 1]`. Two
//! properties make this the right shape for a metrics endpoint:
//!
//! - recording is a single array increment (no allocation, no sort), so a
//!   histogram can sit behind a mutex on the request path;
//! - merging is element-wise addition, so per-worker histograms fold into
//!   one fleet-wide report associatively and commutatively.
//!
//! Quantiles are answered from bucket boundaries: `quantile(q)` returns
//! the *upper bound* of the bucket containing the q-th ranked sample, so
//! the true sample value `v` satisfies `v <= quantile(q) < 2·v` (exact
//! for `v = 0`). Property tests in `tests/prop.rs` pin merge
//! associativity, bucket monotonicity, and these quantile bounds.

use std::time::Duration;

/// Number of buckets: one for zero plus one per bit of `u64`.
pub(crate) const BUCKET_COUNT: usize = 65;

/// The bucket index observing `value` increments.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The largest value falling into bucket `index` (saturates to
/// `u64::MAX` for the last bucket).
#[inline]
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// A fixed-size log2 histogram of `u64` observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKET_COUNT],
    total: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: [0; BUCKET_COUNT],
            total: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.total += 1;
        self.sum += value as u128;
    }

    /// Record a duration in whole microseconds.
    pub fn record_micros(&mut self, elapsed: Duration) {
        self.record(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when nothing was recorded.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Sum of all recorded values.
    #[cfg(test)]
    pub(crate) fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean recorded value (zero when empty).
    #[cfg(any(test, feature = "serde"))]
    pub(crate) fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Fold another histogram into this one (element-wise addition).
    pub(crate) fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// `self` merged with `other`, by value.
    pub fn merged(&self, other: &Histogram) -> Histogram {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// Upper bound of the bucket containing the `q`-th ranked sample
    /// (`q` clamped to `[0, 1]`; zero when empty). The true sample `v`
    /// satisfies `v <= quantile(q) < 2·v` for `v > 0`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(BUCKET_COUNT - 1)
    }

    /// Upper bound of the highest nonzero bucket (zero when empty).
    #[cfg(any(test, feature = "serde"))]
    pub(crate) fn max_bound(&self) -> u64 {
        self.counts
            .iter()
            .rposition(|&c| c > 0)
            .map(bucket_upper_bound)
            .unwrap_or(0)
    }

    /// `(upper_bound, count)` for every nonzero bucket, ascending.
    #[cfg(any(test, feature = "serde"))]
    pub(crate) fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_upper_bound(i), c))
    }
}

/// Render as `{"count", "mean", "p50", "p90", "p99", "max", "buckets":
/// [{"le", "count"}, …]}` — the shape the serving layer's `/metrics`
/// endpoint reports.
#[cfg(feature = "serde")]
impl serde::Serialize for Histogram {
    fn serialize_value(&self) -> serde::Value {
        let buckets = self
            .nonzero_buckets()
            .map(|(le, count)| {
                serde::Value::Object(vec![
                    ("le".to_string(), le.serialize_value()),
                    ("count".to_string(), count.serialize_value()),
                ])
            })
            .collect();
        serde::Value::Object(vec![
            ("count".to_string(), self.total.serialize_value()),
            ("mean".to_string(), self.mean().serialize_value()),
            ("p50".to_string(), self.quantile(0.50).serialize_value()),
            ("p90".to_string(), self.quantile(0.90).serialize_value()),
            ("p99".to_string(), self.quantile(0.99).serialize_value()),
            ("max".to_string(), self.max_bound().serialize_value()),
            ("buckets".to_string(), serde::Value::Array(buckets)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        // Every value lands in a bucket whose bounds contain it.
        for v in [0u64, 1, 2, 3, 7, 8, 1000, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i));
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1));
            }
        }
    }

    #[test]
    fn record_count_and_mean() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        for v in [0u64, 10, 100, 90] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 200);
        assert!((h.mean() - 50.0).abs() < 1e-9);
        assert!(!h.is_empty());
    }

    #[test]
    fn quantiles_bound_the_samples() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        assert!((500..1000).contains(&p50), "p50={p50}");
        assert!(h.quantile(1.0) >= 1000);
        assert!(h.quantile(0.0) >= 1);
        assert_eq!(h.max_bound(), bucket_upper_bound(bucket_index(1000)));
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new();
        a.record(5);
        let mut b = Histogram::new();
        b.record(5);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 510);
        let buckets: Vec<_> = a.nonzero_buckets().collect();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0], (bucket_upper_bound(bucket_index(5)), 2));
    }

    #[test]
    fn record_micros_converts() {
        let mut h = Histogram::new();
        h.record_micros(Duration::from_millis(3));
        assert_eq!(h.sum(), 3000);
    }

    #[cfg(feature = "serde")]
    #[test]
    fn serializes_summary_shape() {
        use serde::Serialize;
        let mut h = Histogram::new();
        h.record(7);
        let v = h.serialize_value();
        assert_eq!(v.get("count").and_then(|c| c.as_i64()), Some(1));
        assert!(v.get("buckets").and_then(|b| b.as_array()).is_some());
    }
}
