//! FxHash: the fast, non-cryptographic hash function used throughout rustc.
//!
//! The workspace hashes small integer keys (node ids, term ids, doc ids) on
//! hot paths; SipHash's HashDoS protection is unnecessary here because all
//! keys are internally generated. Implemented in-tree rather than pulling in
//! `rustc-hash` to keep the dependency set to the approved list.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Firefox/rustc FxHash implementation
/// (64-bit variant): `0x51_7c_c1_b7_27_22_0a_95`.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// A streaming FxHash hasher.
///
/// Quality is low (it is not avalanche-complete) but speed is very high for
/// short keys, which dominates all our workloads.
#[derive(Default, Clone, Copy, Debug)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("chunk is 8 bytes"));
            self.add_to_hash(word);
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
            // Mix in the length so prefixes hash differently.
            self.add_to_hash(rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

/// Hash a string slice with FxHash.
#[inline]
pub fn hash_str(s: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(hash_str("taliban"), hash_str("taliban"));
    }

    #[test]
    fn distinct_inputs_hash_differently() {
        assert_ne!(hash_str("pakistan"), hash_str("pakista"));
        assert_ne!(hash_str("pakistan"), hash_str("Pakistan"));
    }

    #[test]
    fn prefix_inputs_hash_differently() {
        // Regression guard for the tail-padding scheme: a 3-byte string and
        // the same string zero-padded must not collide trivially.
        assert_ne!(hash_str("abc"), hash_str("abc\0"));
        assert_ne!(hash_str(""), hash_str("\0"));
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(7, "seven");
        assert_eq!(m.get(&7), Some(&"seven"));

        let mut s: FxHashSet<u64> = FxHashSet::default();
        s.insert(99);
        assert!(s.contains(&99));
        assert!(!s.contains(&98));
    }

    #[test]
    fn long_input_uses_word_chunks() {
        let long = "a".repeat(1000);
        let long2 = format!("{}b", "a".repeat(999));
        assert_ne!(hash_str(&long), hash_str(&long2));
        assert_eq!(hash_str(&long), hash_str(&"a".repeat(1000)));
    }
}
