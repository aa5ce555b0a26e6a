//! XXH64 — the 64-bit xxHash, the workspace's *bulk payload* checksum.
//!
//! [`crate::crc32`](mod@crate::crc32) guards the small frames: WAL records, snapshot
//! headers, the v4 section directory. Its table-driven fold tops out
//! near 2 GB/s on one core, and a snapshot open must checksum *every*
//! payload byte before serving. XXH64 runs the same
//! verification several times faster: four independent 64-bit
//! multiply-rotate lanes consume 32 bytes per iteration with no table
//! loads and no serial dependency between lanes, approaching memory
//! bandwidth in safe scalar Rust. The storage layer therefore frames v4
//! segment sections with XXH64 (64-bit, so the collision floor also
//! drops from 2⁻³² to 2⁻⁶⁴) and keeps CRC-32 where frames are tiny and
//! its burst-error guarantees are the point.
//!
//! This is the canonical XXH64 algorithm (seed 0 unless given),
//! bit-compatible with the reference implementation — the known-answer
//! tests below pin the constants.

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline(always)]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

#[inline(always)]
fn merge_round(hash: u64, acc: u64) -> u64 {
    (hash ^ round(0, acc))
        .wrapping_mul(PRIME64_1)
        .wrapping_add(PRIME64_4)
}

#[inline(always)]
fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

#[inline(always)]
fn read_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("4 bytes"))
}

/// XXH64 of `bytes` with an explicit seed.
pub(crate) fn xxh64_seeded(bytes: &[u8], seed: u64) -> u64 {
    let len = bytes.len();
    let mut hash;
    let mut rest = bytes;

    if len >= 32 {
        let mut v1 = seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2);
        let mut v2 = seed.wrapping_add(PRIME64_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME64_1);
        let mut stripes = rest.chunks_exact(32);
        for s in &mut stripes {
            v1 = round(v1, read_u64(&s[0..]));
            v2 = round(v2, read_u64(&s[8..]));
            v3 = round(v3, read_u64(&s[16..]));
            v4 = round(v4, read_u64(&s[24..]));
        }
        rest = stripes.remainder();
        hash = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        hash = merge_round(hash, v1);
        hash = merge_round(hash, v2);
        hash = merge_round(hash, v3);
        hash = merge_round(hash, v4);
    } else {
        hash = seed.wrapping_add(PRIME64_5);
    }

    hash = hash.wrapping_add(len as u64);

    while rest.len() >= 8 {
        hash = (hash ^ round(0, read_u64(rest)))
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        hash = (hash ^ u64::from(read_u32(rest)).wrapping_mul(PRIME64_1))
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        rest = &rest[4..];
    }
    for &b in rest {
        hash = (hash ^ u64::from(b).wrapping_mul(PRIME64_5))
            .rotate_left(11)
            .wrapping_mul(PRIME64_1);
    }

    hash ^= hash >> 33;
    hash = hash.wrapping_mul(PRIME64_2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(PRIME64_3);
    hash ^= hash >> 32;
    hash
}

/// XXH64 of `bytes` with seed 0 — the storage layer's one-shot entry
/// point (sections are checksummed whole; no streaming state needed).
pub fn xxh64(bytes: &[u8]) -> u64 {
    xxh64_seeded(bytes, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer_vectors() {
        // Canonical vectors from the reference xxHash implementation.
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64_seeded(b"", 1), 0xD5AF_BA13_36A3_BE4B);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            xxh64(b"xxhash is a fast non-cryptographic hash algorithm"),
            xxh64(b"xxhash is a fast non-cryptographic hash algorithm"),
        );
    }

    #[test]
    fn every_tail_length_is_distinct_and_stable() {
        // Cover all tail branches: 0..=66 bytes crosses the 32-byte
        // stripe boundary, the 8-byte and 4-byte tails and the byte
        // loop. Each prefix must hash differently from its neighbors.
        let data: Vec<u8> = (0u8..=66).collect();
        let mut seen = std::collections::HashSet::new();
        for n in 0..=data.len() {
            assert!(seen.insert(xxh64(&data[..n])), "collision at prefix {n}");
        }
    }

    #[test]
    fn detects_every_single_byte_flip() {
        let data: Vec<u8> = (0..512u16).map(|i| (i % 251) as u8).collect();
        let clean = xxh64(&data);
        for i in 0..data.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bad = data.clone();
                bad[i] ^= flip;
                assert_ne!(xxh64(&bad), clean, "flip {flip:#x} at {i} undetected");
            }
        }
    }

    #[test]
    fn seed_changes_the_digest() {
        let data = b"seeded hashing";
        assert_ne!(xxh64_seeded(data, 0), xxh64_seeded(data, 1));
        assert_eq!(xxh64(data), xxh64_seeded(data, 0));
    }
}
