//! Block striping across NSD servers.
//!
//! GPFS stripes file blocks round-robin across its NSD servers; a large
//! write therefore fans out over many servers (and their DDN arrays) in
//! parallel, which is where the filesystem's aggregate bandwidth comes
//! from.

/// One per-server piece of a striped request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Chunk {
    /// Serving NSD server index.
    pub(crate) server: u32,
    /// Absolute file offset of this piece.
    pub(crate) offset: u64,
    /// Length in bytes.
    pub(crate) len: u64,
}

/// Split the request `[offset, offset+len)` at block boundaries and assign
/// each block to its server: block `b` of the file is served by
/// `(b + shift) % nservers`. Adjacent blocks mapping to the same server
/// (only possible with one server) are not merged — each block is one
/// server request, which is what the per-request overhead models. The
/// per-file rotation `shift` is how GPFS round-robins each file's first
/// block, so a thousand small files spread over all servers instead of
/// queueing on server 0.
pub(crate) fn stripe_chunks_shifted(
    offset: u64,
    len: u64,
    block_size: u64,
    nservers: u32,
    shift: u32,
) -> Vec<Chunk> {
    assert!(block_size > 0 && nservers > 0);
    if len == 0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity((len / block_size + 2) as usize);
    let mut cur = offset;
    let end = offset + len;
    while cur < end {
        let block = cur / block_size;
        let block_end = (block + 1) * block_size;
        let piece_end = end.min(block_end);
        out.push(Chunk {
            server: ((block + u64::from(shift)) % u64::from(nservers)) as u32,
            offset: cur,
            len: piece_end - cur,
        });
        cur = piece_end;
    }
    out
}

/// The stripe rotation of a file: a multiplicative hash of the file id so
/// consecutive plan files land on well-spread starting servers.
pub(crate) fn stripe_shift(file: u32, nservers: u32) -> u32 {
    ((u64::from(file).wrapping_mul(0x9E37_79B9) >> 16) % u64::from(nservers.max(1))) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Striping with no per-file rotation.
    fn stripe_chunks(offset: u64, len: u64, block_size: u64, nservers: u32) -> Vec<Chunk> {
        stripe_chunks_shifted(offset, len, block_size, nservers, 0)
    }

    #[test]
    fn single_block_single_chunk() {
        let c = stripe_chunks(0, 100, 4096, 8);
        assert_eq!(
            c,
            vec![Chunk {
                server: 0,
                offset: 0,
                len: 100
            }]
        );
    }

    #[test]
    fn spans_blocks_round_robin() {
        let c = stripe_chunks(0, 3 * 4096, 4096, 8);
        assert_eq!(c.len(), 3);
        assert_eq!(c[0].server, 0);
        assert_eq!(c[1].server, 1);
        assert_eq!(c[2].server, 2);
        assert!(c.iter().all(|ch| ch.len == 4096));
    }

    #[test]
    fn unaligned_start_and_end() {
        let c = stripe_chunks(1000, 4096, 4096, 4);
        // [1000,4096) on server 0, [4096,5096) on server 1.
        assert_eq!(c.len(), 2);
        assert_eq!((c[0].server, c[0].offset, c[0].len), (0, 1000, 3096));
        assert_eq!((c[1].server, c[1].offset, c[1].len), (1, 4096, 1000));
    }

    #[test]
    fn server_wraps_modulo() {
        let c = stripe_chunks(10 * 4096, 4096, 4096, 4);
        assert_eq!(c[0].server, 2); // block 10 % 4
    }

    #[test]
    fn total_length_preserved() {
        let c = stripe_chunks(12345, 999_999, 4096, 16);
        let total: u64 = c.iter().map(|ch| ch.len).sum();
        assert_eq!(total, 999_999);
        // Chunks are contiguous.
        for w in c.windows(2) {
            assert_eq!(w[0].offset + w[0].len, w[1].offset);
        }
    }

    #[test]
    fn empty_request() {
        assert!(stripe_chunks(500, 0, 4096, 8).is_empty());
    }
}
