//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the checksum
//! guarding every persisted frame in the workspace.
//!
//! FxHash ([`crate::fxhash`]) is the right tool for in-memory tables but a
//! poor integrity check: it has no error-detection guarantees and its
//! output depends on word-at-a-time chunking. CRC-32 detects all
//! single-bit errors and all burst errors up to 32 bits in a frame, which
//! is exactly the failure model of a torn or bit-flipped disk write. The
//! implementation is table-driven *slicing-by-8*: eight derived tables
//! (built at compile time, no runtime init) fold 8 input bytes per
//! iteration, producing the identical IEEE digest as the classic
//! byte-at-a-time loop at several times the throughput — this checksum
//! sits on the snapshot cold-start and WAL append paths.
//!
//! Large buffers additionally *braid*: the input splits into three
//! equal streams folded by independent CRC registers inside one loop —
//! slicing-by-8's bottleneck is the serial dependency through the CRC
//! register (each iteration's eight table loads wait on the previous
//! iteration), so three independent chains keep the core's load ports
//! busy — and the three partial registers are then joined exactly with
//! the GF(2) zero-block operator (the `crc32_combine` construction:
//! appending `n` zero bytes is a linear map on the register, applied in
//! `O(log n)` by squaring its bit matrix). Same digest, one pass,
//! no threads.

/// Streaming CRC-32 state. Feed bytes with [`Crc32::update`], read the
/// digest with [`Crc32::finish`].
#[derive(Debug, Clone)]
pub(crate) struct Crc32 {
    state: u32,
}

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k]` advances
/// a CRC by `k` additional zero bytes, which is what lets one iteration
/// consume 8 input bytes.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// One slicing-by-8 step: fold an 8-byte chunk into `crc`.
#[inline(always)]
fn fold8(crc: u32, c: &[u8]) -> u32 {
    let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
    let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
    TABLES[7][(lo & 0xFF) as usize]
        ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
        ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
        ^ TABLES[4][(lo >> 24) as usize]
        ^ TABLES[3][(hi & 0xFF) as usize]
        ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
        ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
        ^ TABLES[0][(hi >> 24) as usize]
}

/// `mat · vec` over GF(2): XOR of the rows of `mat` selected by the set
/// bits of `vec`. `mat[k]` is the image of register bit `k`.
fn gf2_matrix_times(mat: &[u32; 32], mut vec: u32) -> u32 {
    let mut sum = 0;
    let mut i = 0;
    while vec != 0 {
        if vec & 1 != 0 {
            sum ^= mat[i];
        }
        vec >>= 1;
        i += 1;
    }
    sum
}

/// Matrix square over GF(2): the operator applied twice.
fn gf2_matrix_square(mat: &[u32; 32]) -> [u32; 32] {
    let mut sq = [0u32; 32];
    for (s, &m) in sq.iter_mut().zip(mat.iter()) {
        *s = gf2_matrix_times(mat, m);
    }
    sq
}

/// Advance a *raw* CRC register `reg` past `len` zero bytes, i.e. the
/// linear operator that re-bases a prefix register so an independently
/// computed suffix register (started from zero) can be XORed on:
/// `raw(A ‖ B) = zeros_shift(raw(A), |B|) ^ raw₀(B)`.
fn zeros_shift(mut reg: u32, mut len: u64) -> u32 {
    if len == 0 || reg == 0 {
        return reg;
    }
    // One-zero-bit operator on the reflected register:
    // bit 0 maps to the polynomial, bit k to bit k-1.
    let mut odd = [0u32; 32];
    odd[0] = 0xEDB8_8320;
    for (k, o) in odd.iter_mut().enumerate().skip(1) {
        *o = 1 << (k - 1);
    }
    let mut even = gf2_matrix_square(&odd); // 2 zero bits
    odd = gf2_matrix_square(&even); // 4 zero bits
    loop {
        even = gf2_matrix_square(&odd); // 8·2^i zero bits
        if len & 1 != 0 {
            reg = gf2_matrix_times(&even, reg);
        }
        len >>= 1;
        if len == 0 {
            break;
        }
        odd = gf2_matrix_square(&even);
        if len & 1 != 0 {
            reg = gf2_matrix_times(&odd, reg);
        }
        len >>= 1;
        if len == 0 {
            break;
        }
    }
    reg
}

/// Below this the GF(2) combine arithmetic outweighs the braiding win.
const BRAID_MIN: usize = 4 * 8 * 1024;

impl Crc32 {
    /// Fresh state (all-ones preload per the IEEE spec).
    pub(crate) fn new() -> Self {
        Self { state: !0 }
    }

    /// Fold `bytes` into the running checksum.
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        if bytes.len() >= BRAID_MIN {
            self.update_braided(bytes);
        } else {
            self.state = Self::fold_serial(self.state, bytes);
        }
    }

    /// Serial slicing-by-8 over `bytes`, returning the raw register.
    fn fold_serial(mut crc: u32, bytes: &[u8]) -> u32 {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            crc = fold8(crc, c);
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        crc
    }

    /// Three-stream braid: one loop advances three independent registers
    /// over three equal slices, then the zero-block operator splices the
    /// partials into a single register identical to the serial walk's.
    /// (Four lanes measured slower on the target hardware — the extra
    /// stream thrashes the L1-resident tables more than it hides
    /// latency.)
    fn update_braided(&mut self, bytes: &[u8]) {
        let lane = (bytes.len() / 3) & !7;
        let (a, rest) = bytes.split_at(lane);
        let (b, rest) = rest.split_at(lane);
        let (c, tail) = rest.split_at(lane);
        let mut ra = self.state;
        let mut rb = 0u32;
        let mut rc = 0u32;
        for ((ca, cb), cc) in a
            .chunks_exact(8)
            .zip(b.chunks_exact(8))
            .zip(c.chunks_exact(8))
        {
            ra = fold8(ra, ca);
            rb = fold8(rb, cb);
            rc = fold8(rc, cc);
        }
        let mut reg = zeros_shift(ra, lane as u64) ^ rb;
        reg = zeros_shift(reg, lane as u64) ^ rc;
        self.state = Self::fold_serial(reg, tail);
    }

    /// Final digest (state complemented per the IEEE spec).
    pub(crate) fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot convenience: checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The CRC-32 "check" value from the IEEE spec.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data: Vec<u8> = (0u16..2048).map(|i| (i % 251) as u8).collect();
        let whole = crc32(&data);
        for split in [0, 1, 7, 100, data.len() - 1, data.len()] {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), whole, "split at {split}");
        }
    }

    /// Classic byte-at-a-time reference — the ground truth both the
    /// slicing and braided paths must reproduce exactly.
    fn reference(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn braided_path_matches_reference() {
        // Sizes around the braid threshold, including lane-remainder and
        // tail-remainder shapes.
        for n in [
            BRAID_MIN - 1,
            BRAID_MIN,
            BRAID_MIN + 1,
            BRAID_MIN + 7,
            BRAID_MIN + 8,
            3 * BRAID_MIN + 5,
        ] {
            let data: Vec<u8> = (0..n).map(|i| (i * 31 % 251) as u8).collect();
            assert_eq!(crc32(&data), reference(&data), "len {n}");
        }
    }

    #[test]
    fn streaming_across_braid_threshold() {
        let data: Vec<u8> = (0..2 * BRAID_MIN + 13).map(|i| (i % 253) as u8).collect();
        let whole = crc32(&data);
        for split in [1, 100, BRAID_MIN - 1, BRAID_MIN, BRAID_MIN + 9, data.len() - 1] {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn zeros_shift_matches_feeding_zeros() {
        for len in [0u64, 1, 7, 8, 63, 255, 1024, 65537] {
            for seed in [0u32, 1, 0xDEAD_BEEF, !0] {
                let zeros = vec![0u8; len as usize];
                let want = Crc32::fold_serial(seed, &zeros);
                assert_eq!(zeros_shift(seed, len), want, "len {len} seed {seed:#x}");
            }
        }
    }

    #[test]
    fn detects_every_single_byte_flip() {
        let data = b"frame body with enough bytes to be interesting".to_vec();
        let clean = crc32(&data);
        for i in 0..data.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bad = data.clone();
                bad[i] ^= flip;
                assert_ne!(crc32(&bad), clean, "flip {flip:#x} at {i} undetected");
            }
        }
    }
}
