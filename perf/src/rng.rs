//! The benchmark's own random numbers.
//!
//! The generator is pinned here, not borrowed from `newslink_util`, so a
//! change to the library's `DetRng` can never change the requests a seed
//! produces: the same `--seed` must send the same bytes on every commit.

/// xoshiro256** seeded through SplitMix64.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        Self {
            s: std::array::from_fn(|_| splitmix64(&mut sm)),
        }
    }

    /// An independent stream for a named purpose (a client, the rank
    /// rotation, the query pool), so draws in one never shift another.
    pub fn fork(&self, stream: u64) -> Self {
        let mixed = self
            .s
            .iter()
            .fold(stream, |acc, w| acc.rotate_left(17) ^ *w);
        Self::new(mixed)
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, bound)`; `bound` must be positive.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "below(0)");
        // Multiply-shift: bias is below 2^-40 for every bound used here.
        ((u128::from(self.next_u64()) * bound as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf over ranks `0..n`: `P(rank r) ∝ 1 / (r + 1)^s`, drawn by binary
/// search over the exact cumulative weights.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over nothing");
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self { cdf }
    }

    /// The probability of `rank`.
    #[cfg(test)]
    pub fn p(&self, rank: usize) -> f64 {
        self.cdf[rank] - if rank == 0 { 0.0 } else { self.cdf[rank - 1] }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let root = Rng::new(42);
        assert_ne!(root.fork(1).next_u64(), root.fork(2).next_u64());
        assert_eq!(root.fork(1).next_u64(), root.fork(1).next_u64());
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut rng = Rng::new(7);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[rng.below(10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zipf_rank_one_frequency_matches_theory_within_two_percent() {
        let zipf = Zipf::new(500, 1.0);
        let mut rng = Rng::new(3);
        let draws = 100_000;
        let top = (0..draws).filter(|_| zipf.sample(&mut rng) == 0).count();
        let observed = top as f64 / draws as f64;
        let theory = zipf.p(0);
        // H_500 ≈ 6.79, so theory ≈ 0.147.
        assert!((theory - 1.0 / 6.792_823).abs() < 1e-4, "{theory}");
        assert!(
            (observed - theory).abs() / theory < 0.02,
            "observed {observed}, theory {theory}"
        );
    }

    #[test]
    fn zipf_probabilities_sum_to_one_and_never_leave_the_range() {
        let zipf = Zipf::new(50, 1.0);
        let total: f64 = (0..50).map(|r| zipf.p(r)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let mut rng = Rng::new(11);
        assert!((0..10_000).all(|_| zipf.sample(&mut rng) < 50));
    }
}
