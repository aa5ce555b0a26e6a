//! Dense-vector helpers shared by the embedding baselines.
//!
//! Word vectors are *hash-seeded*: a word's vector is a pure function of
//! its surface form and a global seed, simulating "pretrained" models whose
//! parameters do not depend on our corpora (DESIGN.md §6.5).

use newslink_util::fxhash::hash_str;
use newslink_util::DetRng;

/// Cosine similarity; 0 when either vector is zero.
pub fn cosine(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut dot = 0.0f64;
    let mut na = 0.0f64;
    let mut nb = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        dot += f64::from(x) * f64::from(y);
        na += f64::from(x) * f64::from(x);
        nb += f64::from(y) * f64::from(y);
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

/// `acc += v`.
pub(crate) fn add_assign(acc: &mut [f32], v: &[f32]) {
    debug_assert_eq!(acc.len(), v.len());
    for (a, &x) in acc.iter_mut().zip(v) {
        *a += x;
    }
}

/// `acc += s · v`.
pub(crate) fn add_scaled(acc: &mut [f32], v: &[f32], s: f32) {
    debug_assert_eq!(acc.len(), v.len());
    for (a, &x) in acc.iter_mut().zip(v) {
        *a += s * x;
    }
}

/// Scale in place.
pub(crate) fn scale(v: &mut [f32], s: f32) {
    for x in v.iter_mut() {
        *x *= s;
    }
}

/// L2-normalize in place (no-op for the zero vector).
pub fn normalize(v: &mut [f32]) {
    let norm: f64 = v.iter().map(|&x| f64::from(x) * f64::from(x)).sum();
    if norm > 0.0 {
        let inv = (1.0 / norm.sqrt()) as f32;
        scale(v, inv);
    }
}

/// Deterministic Gaussian vector for `key` under `seed`.
pub fn hash_vector(key: &str, dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = DetRng::new(hash_str(key) ^ seed.rotate_left(17));
    (0..dim).map(|_| rng.normal() as f32).collect()
}

/// Deterministic *sparse ternary* index vector for `key` (classic random
/// indexing): mostly zeros with a few ±1 entries.
pub fn ternary_vector(key: &str, dim: usize, nonzeros: usize, seed: u64) -> Vec<f32> {
    let mut rng = DetRng::new(hash_str(key) ^ seed.rotate_left(29));
    let mut v = vec![0.0f32; dim];
    for _ in 0..nonzeros {
        let i = rng.below(dim);
        v[i] += if rng.chance(0.5) { 1.0 } else { -1.0 };
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_basics() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-9);
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-9);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-9);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn hash_vector_is_deterministic_and_word_specific() {
        let a = hash_vector("taliban", 64, 7);
        let b = hash_vector("taliban", 64, 7);
        let c = hash_vector("pakistan", 64, 7);
        assert_eq!(a, b);
        assert!(cosine(&a, &c).abs() < 0.5, "distinct words nearly orthogonal");
        let d = hash_vector("taliban", 64, 8);
        assert_ne!(a, d, "seed changes the space");
    }

    #[test]
    fn normalize_makes_unit_length() {
        let mut v = hash_vector("x", 32, 1);
        normalize(&mut v);
        let n: f64 = v.iter().map(|&x| f64::from(x).powi(2)).sum();
        assert!((n - 1.0).abs() < 1e-5);
        let mut z = vec![0.0f32; 4];
        normalize(&mut z);
        assert_eq!(z, vec![0.0; 4]);
    }

    #[test]
    fn arithmetic_helpers() {
        let mut acc = vec![1.0, 2.0];
        add_assign(&mut acc, &[3.0, 4.0]);
        assert_eq!(acc, vec![4.0, 6.0]);
        add_scaled(&mut acc, &[1.0, 1.0], 0.5);
        assert_eq!(acc, vec![4.5, 6.5]);
        scale(&mut acc, 2.0);
        assert_eq!(acc, vec![9.0, 13.0]);
    }

    #[test]
    fn ternary_vectors_are_sparse() {
        let v = ternary_vector("word", 512, 8, 3);
        let nz = v.iter().filter(|&&x| x != 0.0).count();
        assert!(nz <= 8);
        assert!(nz >= 4);
        assert_eq!(v, ternary_vector("word", 512, 8, 3));
    }
}
