//! A rank's staging image as a map of references.
//!
//! The plan IR addresses a rank's staging buffer as one flat byte range:
//! `Recv`, `Pack` and `ReadAt` land bytes in it, `WriteAt` and `Send` read
//! ranges of it. [`StagingMap`] keeps that address space without holding
//! a buffer: it is an ordered list of `staging range → source` segments,
//! where a source is a range of the owner's payload or an immutable
//! [`Bytes`] (a received message, or a pooled buffer filled by `ReadAt`
//! or with synthetic data). Landing bytes inserts a segment — the latest
//! write wins, and whatever it overlaps is trimmed or split — and reading
//! a range yields the pieces that cover it in order, a range never
//! written reading as zeros. No byte moves until a write or a send
//! resolves its pieces: aggregation is list I/O, one gather per write.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::buf::Bytes;

/// Where a segment's bytes live.
#[derive(Clone)]
pub(crate) enum Src {
    /// The owner's payload, from this offset.
    Own(u64),
    /// Exactly the segment's bytes.
    Buf(Bytes),
}

/// One piece of a staging range, in range order.
pub(crate) enum Piece<'m> {
    /// This many bytes never written: zeros.
    Zeros(u64),
    /// `len` bytes of the owner's payload from `off`.
    Own { off: u64, len: u64 },
    /// A range of bytes the map holds.
    Buf(&'m Bytes, Range<usize>),
}

#[derive(Clone)]
struct Seg {
    len: u64,
    src: Src,
}

impl Seg {
    /// The `n` bytes of this segment from its `k`th on.
    fn sub(&self, k: u64, n: u64) -> Seg {
        let src = match &self.src {
            Src::Own(off) => Src::Own(off + k),
            Src::Buf(b) => Src::Buf(b.slice(k as usize..(k + n) as usize)),
        };
        Seg { len: n, src }
    }
}

/// Segments keyed by their staging offset; none overlap, none is empty.
#[derive(Default)]
pub(crate) struct StagingMap {
    segs: BTreeMap<u64, Seg>,
}

impl StagingMap {
    /// Land `len` bytes of `src` at `at`.
    pub(crate) fn put(&mut self, at: u64, len: u64, src: Src) {
        self.clear(at, len);
        if len > 0 {
            self.segs.insert(at, Seg { len, src });
        }
    }

    /// Land a copy of `[from, from + len)` at `to` — by reference: the
    /// sources are immutable, so sharing them is copying them.
    pub(crate) fn copy_within(&mut self, from: u64, len: u64, to: u64) {
        let moved: Vec<(u64, Option<Src>)> = self
            .pieces(from, len)
            .map(|p| match p {
                Piece::Zeros(n) => (n, None),
                Piece::Own { off, len } => (len, Some(Src::Own(off))),
                Piece::Buf(b, r) => (r.len() as u64, Some(Src::Buf(b.slice(r)))),
            })
            .collect();
        let mut at = to;
        for (n, src) in moved {
            match src {
                Some(src) => self.put(at, n, src),
                None => self.clear(at, n),
            }
            at += n;
        }
    }

    /// Make `[at, at + len)` read as zeros again: segments inside it go,
    /// segments reaching into it are trimmed (or split in two, when the
    /// range sits inside one).
    fn clear(&mut self, at: u64, len: u64) {
        if len == 0 {
            return;
        }
        let end = at + len;
        if let Some((&s, seg)) = self.segs.range(..at).next_back() {
            let seg_end = s + seg.len;
            if seg_end > at {
                let seg = seg.clone();
                self.segs.insert(s, seg.sub(0, at - s));
                if seg_end > end {
                    self.segs.insert(end, seg.sub(end - s, seg_end - end));
                }
            }
        }
        while let Some((&s, _)) = self.segs.range(at..end).next() {
            let seg = self.segs.remove(&s).expect("just found");
            let seg_end = s + seg.len;
            if seg_end > end {
                self.segs.insert(end, seg.sub(end - s, seg_end - end));
            }
        }
    }

    /// The pieces covering `[at, at + len)`, in order; together exactly
    /// `len` bytes.
    pub(crate) fn pieces(&self, at: u64, len: u64) -> impl Iterator<Item = Piece<'_>> {
        let end = at + len;
        let first = self
            .segs
            .range(..=at)
            .next_back()
            .filter(|(&s, seg)| s + seg.len > at && len > 0);
        let rest = self.segs.range(at + 1..end.max(at + 1));
        let mut segs = first.into_iter().chain(rest).peekable();
        let mut pos = at;
        std::iter::from_fn(move || {
            if pos >= end {
                return None;
            }
            let piece = match segs.peek() {
                Some(&(&s, _)) if s > pos => Piece::Zeros(s.min(end) - pos),
                Some(&(&s, seg)) => {
                    segs.next();
                    let (k, n) = (pos - s, (s + seg.len).min(end) - pos);
                    match &seg.src {
                        Src::Own(off) => Piece::Own {
                            off: off + k,
                            len: n,
                        },
                        Src::Buf(b) => Piece::Buf(b, k as usize..(k + n) as usize),
                    }
                }
                None => Piece::Zeros(end - pos),
            };
            pos += match &piece {
                Piece::Zeros(n) | Piece::Own { len: n, .. } => *n,
                Piece::Buf(_, r) => r.len() as u64,
            };
            Some(piece)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The map's bytes over `[0, len)`, with `payload` behind `Own`.
    fn read(m: &StagingMap, payload: &[u8], at: u64, len: u64) -> Vec<u8> {
        m.pieces(at, len)
            .flat_map(|p| match p {
                Piece::Zeros(n) => vec![0; n as usize],
                Piece::Own { off, len } => payload[off as usize..(off + len) as usize].to_vec(),
                Piece::Buf(b, r) => b[r].to_vec(),
            })
            .collect()
    }

    fn buf(fill: u8, n: usize) -> Src {
        Src::Buf(Bytes::from_vec(vec![fill; n]))
    }

    #[test]
    fn unwritten_ranges_read_as_zeros() {
        let mut m = StagingMap::default();
        assert_eq!(read(&m, &[], 0, 8), vec![0; 8]);
        m.put(4, 2, buf(7, 2));
        assert_eq!(read(&m, &[], 0, 8), [0, 0, 0, 0, 7, 7, 0, 0]);
        assert_eq!(m.pieces(0, 8).count(), 3);
        assert_eq!(m.pieces(3, 0).count(), 0);
    }

    #[test]
    fn the_latest_write_wins_and_splits_what_it_lands_inside() {
        let payload: Vec<u8> = (0..32).collect();
        let mut m = StagingMap::default();
        m.put(0, 16, Src::Own(8));
        m.put(4, 4, buf(0xAA, 4));
        let mut want: Vec<u8> = (8..24).collect();
        want[4..8].fill(0xAA);
        assert_eq!(read(&m, &payload, 0, 16), want);
        // Straddle the inner segment and the tail of the outer one.
        m.put(6, 6, buf(0xBB, 6));
        want[6..12].fill(0xBB);
        assert_eq!(read(&m, &payload, 0, 16), want);
        assert_eq!(m.pieces(0, 16).count(), 4);
        // A read starting mid-segment.
        assert_eq!(read(&m, &payload, 5, 9), want[5..14]);
    }

    #[test]
    fn copy_within_shares_sources_even_when_ranges_overlap() {
        let payload: Vec<u8> = (100..140).collect();
        let mut m = StagingMap::default();
        m.put(2, 10, Src::Own(0));
        m.put(14, 2, buf(9, 2));
        let mut flat = read(&m, &payload, 0, 24);
        // Source [0, 16) lands at [6, 22): overlapping, zeros included.
        m.copy_within(0, 16, 6);
        flat.copy_within(0..16, 6);
        assert_eq!(read(&m, &payload, 0, 24), flat);
    }

    #[test]
    fn random_operations_match_a_flat_buffer() {
        const LEN: u64 = 64;
        let payload: Vec<u8> = (0..=255).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        let mut m = StagingMap::default();
        let mut flat = vec![0u8; LEN as usize];
        for step in 0..2000u64 {
            let at = next(LEN);
            let len = next(LEN - at + 1);
            let r = at as usize..(at + len) as usize;
            match next(3) {
                0 => {
                    let off = next(256 - len);
                    m.put(at, len, Src::Own(off));
                    flat[r].copy_from_slice(&payload[off as usize..(off + len) as usize]);
                }
                1 => {
                    let fill = step as u8;
                    m.put(at, len, buf(fill, len as usize));
                    flat[r].fill(fill);
                }
                _ => {
                    let to = next(LEN - len + 1);
                    m.copy_within(at, len, to);
                    flat.copy_within(r, to as usize);
                }
            }
            assert_eq!(read(&m, &payload, 0, LEN), flat, "step {step}");
        }
    }
}
