//! Input generation: field data is a xorshift64* stream keyed by
//! `(seed, rank, field)`. The program under test only ever receives the
//! generated buffers; restores are compared against a regeneration.

/// Bytes at the front of every block that carry the generation number,
/// so a restore that returns an older generation's (otherwise identical)
/// bytes is a mismatch.
pub const STAMP_LEN: usize = 8;

/// splitmix64 finalizer: spreads the key so neighbouring
/// `(seed, rank, field)` triples start far apart, and never yields the
/// all-zero state xorshift cannot leave.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) | 1
}

/// The `len`-byte block for `(seed, rank, field)`.
pub fn block(seed: u64, rank: u32, field: usize, len: usize) -> Vec<u8> {
    let mut s = mix(seed ^ mix(((rank as u64) << 32) | field as u64));
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        out.extend_from_slice(&s.wrapping_mul(0x2545_F491_4F6C_DD1D).to_le_bytes());
    }
    out.truncate(len);
    out
}

/// All blocks of a run: `data[rank][field]`.
pub struct FieldData {
    blocks: Vec<Vec<Vec<u8>>>,
}

impl FieldData {
    /// Generate `nranks × nfields` blocks of `len` bytes from `seed`.
    pub fn generate(seed: u64, nranks: u32, nfields: usize, len: usize) -> FieldData {
        assert!(len >= STAMP_LEN, "blocks must hold the generation stamp");
        FieldData {
            blocks: (0..nranks)
                .map(|r| (0..nfields).map(|f| block(seed, r, f, len)).collect())
                .collect(),
        }
    }

    /// User bytes in one generation.
    pub fn total_bytes(&self) -> u64 {
        self.blocks
            .iter()
            .flat_map(|r| r.iter())
            .map(|b| b.len() as u64)
            .sum()
    }

    /// Hand block `(rank, field)` of generation `gen` to the program:
    /// copy it into `dst` and stamp the generation number.
    pub fn fill(&self, gen: u64, rank: u32, field: usize, dst: &mut [u8]) {
        dst.copy_from_slice(&self.blocks[rank as usize][field]);
        dst[..STAMP_LEN].copy_from_slice(&gen.to_le_bytes());
    }

    /// Whether `got` is byte-for-byte block `(rank, field)` of
    /// generation `gen`.
    pub fn matches(&self, gen: u64, rank: u32, field: usize, got: &[u8]) -> bool {
        let want = &self.blocks[rank as usize][field];
        got.len() == want.len()
            && got[..STAMP_LEN] == gen.to_le_bytes()
            && got[STAMP_LEN..] == want[STAMP_LEN..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_same_bytes_and_any_key_part_changes_them() {
        let a = block(7, 3, 1, 4096);
        assert_eq!(a, block(7, 3, 1, 4096));
        assert_ne!(a, block(8, 3, 1, 4096));
        assert_ne!(a, block(7, 4, 1, 4096));
        assert_ne!(a, block(7, 3, 2, 4096));
        // A prefix of a longer block is the shorter block (pure stream).
        assert_eq!(a[..100], block(7, 3, 1, 100)[..]);
        assert_eq!(block(7, 3, 1, 13).len(), 13);
    }

    #[test]
    fn stream_is_not_degenerate() {
        let b = block(0, 0, 0, 1 << 16);
        let ones: u32 = b.iter().map(|x| x.count_ones()).sum();
        let bits = (b.len() * 8) as f64;
        assert!((ones as f64 / bits - 0.5).abs() < 0.01, "bit balance");
    }

    #[test]
    fn fill_stamps_generation_and_matches_only_that_generation() {
        let d = FieldData::generate(42, 2, 2, 64);
        assert_eq!(d.total_bytes(), 2 * 2 * 64);
        let mut buf = vec![0u8; 64];
        d.fill(9, 1, 0, &mut buf);
        assert!(d.matches(9, 1, 0, &buf));
        assert!(!d.matches(10, 1, 0, &buf), "stale generation");
        assert!(!d.matches(9, 0, 0, &buf), "wrong rank");
        buf[63] ^= 1;
        assert!(!d.matches(9, 1, 0, &buf), "flipped bit");
        assert!(!d.matches(9, 1, 0, &buf[..63]), "short");
    }
}
