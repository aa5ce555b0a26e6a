//! Order statistics: the percentile rule, medians, and the quartile
//! spread the noise check uses.

/// The highest percentile a sample supports: at least `beyond` samples
/// must lie strictly above the reported one, so the figure is never the
/// maximum or a handful of outliers. Candidates are the usual ladder.
pub const LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples required beyond a reported percentile.
pub const BEYOND: usize = 10;

/// Nearest rank (from 1) of percentile `p` among `n` samples. The
/// small slack keeps `99.9% of 10,000` at 9,990, not one above it
/// through rounding.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The value at percentile `p` of an ascending slice (nearest rank).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    sorted[rank(sorted.len(), p) - 1]
}

/// How many samples lie beyond percentile `p` of `n`.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest ladder percentile with at least [`BEYOND`] samples past
/// it, or `None` when even the median has fewer.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|&p| n > 0 && beyond(n, p) >= BEYOND)
}

/// Percentile `wanted` of `sample` — or, when the sample has fewer
/// than [`BEYOND`] values past it, the highest percentile it does
/// support (the median at worst). Returns the value and the percentile
/// actually used; 0 for an empty sample.
pub fn reported(sample: &[f64], wanted: f64) -> (f64, f64) {
    if sample.is_empty() {
        return (0.0, wanted);
    }
    let used = highest_supported(sample.len()).map_or(50.0, |top| top.min(wanted));
    (percentile(&sort(sample.to_vec()), used), used)
}

pub fn sort(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

pub fn median(xs: &[f64]) -> f64 {
    let s = sort(xs.to_vec());
    assert!(!s.is_empty(), "median of nothing");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// computes them (the "exclusive" method), so the spread printed here
/// is the one the acceptance check computes. Needs two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sort(xs.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Quartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_returns_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(19), None, "median of 19 leaves 9");
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(40), Some(75.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(199), Some(90.0));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(999), Some(95.0));
        assert_eq!(highest_supported(1_000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(100_000), Some(99.99));
    }

    #[test]
    fn reported_percentile_falls_back_when_the_sample_is_too_small() {
        let big: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(reported(&big, 99.0), (990.0, 99.0));
        assert_eq!(reported(&big, 50.0), (500.0, 50.0));
        let small: Vec<f64> = (1..=240).map(f64::from).collect();
        assert_eq!(
            reported(&small, 99.0),
            (228.0, 95.0),
            "240 samples support p95"
        );
        assert_eq!(reported(&[3.0, 1.0, 2.0], 99.0), (2.0, 50.0));
        assert_eq!(reported(&[], 99.0), (0.0, 99.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,...,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&xs), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let (q1, q3) = quartiles(&[10.0, 20.0]);
        assert_eq!((q1, q3), (7.5, 22.5));
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
    }
}
