//! A byte range held as a map of references.
//!
//! A rank's staging image under the plan interpreter and each file a tier
//! stage holds are both [`ExtentMap`]s: ordered `range → source`
//! segments, generic over where a segment's bytes live. Landing
//! bytes inserts a segment (the latest write wins; what it overlaps is
//! trimmed or split); reading a range yields the pieces covering it in
//! order, a never-written stretch as zeros. No byte moves until a write
//! resolves its pieces: aggregation is list I/O, one gather per write.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Range;

use crate::buf::Bytes;

/// Where a segment's bytes live: the map asks one thing of it.
pub trait Source: Clone {
    /// The `n` bytes of this source from its `k`th on.
    fn sub(&self, k: u64, n: u64) -> Self;
}

/// A held slice is its own source: a tier stage's files map them.
impl Source for Bytes {
    fn sub(&self, k: u64, n: u64) -> Bytes {
        self.slice(k as usize..(k + n) as usize)
    }
}

/// One piece of a range of the map, in range order.
pub enum Piece<'m, S> {
    /// This many bytes never written: zeros.
    Zeros(u64),
    /// These bytes of a source the map holds.
    Data(&'m S, Range<u64>),
}

/// `offset → (length, source)` segments; none overlap, none is empty.
#[derive(Clone, Debug)]
pub struct ExtentMap<S> {
    segs: BTreeMap<u64, (u64, S)>,
}

impl<S> Default for ExtentMap<S> {
    fn default() -> Self {
        ExtentMap {
            segs: BTreeMap::new(),
        }
    }
}

impl<S: Source> ExtentMap<S> {
    /// Land `len` bytes of `src` at `at`.
    pub fn put(&mut self, at: u64, len: u64, src: S) {
        self.clear(at, len);
        if len > 0 {
            self.segs.insert(at, (len, src));
        }
    }

    /// Land a copy of `[from, from + len)` at `to` — by reference: the
    /// sources are immutable, so sharing them is copying them.
    pub fn copy_within(&mut self, from: u64, len: u64, to: u64) {
        let mut at = to;
        let moved: Vec<(u64, (u64, S))> = self
            .pieces(from, len)
            .filter_map(|p| {
                let (n, src) = match p {
                    Piece::Zeros(n) => (n, None),
                    Piece::Data(s, r) => (r.end - r.start, Some(s.sub(r.start, r.end - r.start))),
                };
                at += n;
                Some((at - n, (n, src?)))
            })
            .collect();
        self.clear(to, len);
        self.segs.extend(moved);
    }

    /// One past the last byte ever landed (0 for an empty map).
    pub fn end(&self) -> u64 {
        self.segs.last_key_value().map_or(0, |(&s, &(n, _))| s + n)
    }

    /// The bytes of `[at, at + len)`, in order: a piece's as `bytes`
    /// resolves it, a never-written stretch as zeros made for it.
    pub fn slices<'m, 'b>(
        &'m self,
        at: u64,
        len: u64,
        bytes: impl Fn(&'m S, Range<u64>) -> &'b [u8] + 'm,
    ) -> impl Iterator<Item = Cow<'b, [u8]>> + 'm {
        self.pieces(at, len).map(move |p| match p {
            Piece::Zeros(n) => Cow::Owned(vec![0; n as usize]),
            Piece::Data(s, r) => Cow::Borrowed(bytes(s, r)),
        })
    }

    /// Copy `[at, at + buf.len())` into `buf`, sources resolved by `bytes`.
    pub fn read<'m>(
        &'m self,
        at: u64,
        buf: &mut [u8],
        bytes: impl Fn(&'m S, Range<u64>) -> &'m [u8] + 'm,
    ) {
        let mut i = 0;
        for s in self.slices(at, buf.len() as u64, bytes) {
            buf[i..i + s.len()].copy_from_slice(&s);
            i += s.len();
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
        if let Some((&s, (n, src))) = self.segs.range(..at).next_back() {
            if s + n > at {
                let (e, src) = (s + n, src.clone());
                self.segs.insert(s, (at - s, src.sub(0, at - s)));
                if e > end {
                    self.segs.insert(end, (e - end, src.sub(end - s, e - end)));
                }
            }
        }
        while let Some((&s, _)) = self.segs.range(at..end).next() {
            let (n, src) = self.segs.remove(&s).expect("just found");
            if s + n > end {
                self.segs
                    .insert(end, (s + n - end, src.sub(end - s, s + n - end)));
            }
        }
    }

    /// The pieces covering `[at, at + len)`, in order; together exactly
    /// `len` bytes.
    pub fn pieces(&self, at: u64, len: u64) -> impl Iterator<Item = Piece<'_, S>> {
        let end = at + len;
        let first = self
            .segs
            .range(..=at)
            .next_back()
            .filter(|(&s, &(n, _))| s + n > at && len > 0);
        let rest = self.segs.range(at + 1..end.max(at + 1));
        let mut segs = first.into_iter().chain(rest).peekable();
        let mut pos = at;
        std::iter::from_fn(move || {
            if pos >= end {
                return None;
            }
            let (piece, n) = match segs.peek() {
                Some(&(&s, _)) if s > pos => (Piece::Zeros(s.min(end) - pos), s.min(end) - pos),
                Some(&(&s, (seg_len, src))) => {
                    segs.next();
                    let (k, n) = (pos - s, (s + seg_len).min(end) - pos);
                    (Piece::Data(src, k..k + n), n)
                }
                None => (Piece::Zeros(end - pos), end - pos),
            };
            pos += n;
            Some(piece)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::interp::Src;

    /// The map's bytes over `[at, at + len)`, each source resolved by
    /// `bytes`.
    fn read<S: Source>(
        m: &ExtentMap<S>,
        bytes: &impl Fn(&S, Range<u64>) -> Vec<u8>,
        at: u64,
        len: u64,
    ) -> Vec<u8> {
        m.pieces(at, len)
            .flat_map(|p| match p {
                Piece::Zeros(n) => vec![0; n as usize],
                Piece::Data(s, r) => bytes(s, r),
            })
            .collect()
    }

    /// `Src`'s bytes, with `payload` behind `Own`.
    fn src_bytes(payload: &[u8]) -> impl Fn(&Src, Range<u64>) -> Vec<u8> + '_ {
        |s, r| match s {
            Src::Own(off) => payload[(off + r.start) as usize..(off + r.end) as usize].to_vec(),
            Src::Buf(b) => b[r.start as usize..r.end as usize].to_vec(),
        }
    }

    fn buf(fill: u8, n: usize) -> Src {
        Src::Buf(Bytes::from_vec(vec![fill; n]))
    }

    #[test]
    fn unwritten_ranges_read_as_zeros() {
        let mut m = ExtentMap::default();
        let bytes = src_bytes(&[]);
        assert_eq!(read(&m, &bytes, 0, 8), vec![0; 8]);
        assert_eq!(m.end(), 0);
        m.put(4, 2, buf(7, 2));
        assert_eq!(read(&m, &bytes, 0, 8), [0, 0, 0, 0, 7, 7, 0, 0]);
        assert_eq!(m.pieces(0, 8).count(), 3);
        assert_eq!(m.pieces(3, 0).count(), 0);
        assert_eq!(m.end(), 6);
    }

    #[test]
    fn the_latest_write_wins_and_splits_what_it_lands_inside() {
        let payload: Vec<u8> = (0..32).collect();
        let bytes = src_bytes(&payload);
        let mut m = ExtentMap::default();
        m.put(0, 16, Src::Own(8));
        m.put(4, 4, buf(0xAA, 4));
        let mut want: Vec<u8> = (8..24).collect();
        want[4..8].fill(0xAA);
        assert_eq!(read(&m, &bytes, 0, 16), want);
        // Straddle the inner segment and the tail of the outer one.
        m.put(6, 6, buf(0xBB, 6));
        want[6..12].fill(0xBB);
        assert_eq!(read(&m, &bytes, 0, 16), want);
        assert_eq!(m.pieces(0, 16).count(), 4);
        // A read starting mid-segment.
        assert_eq!(read(&m, &bytes, 5, 9), want[5..14]);
    }

    #[test]
    fn copy_within_shares_sources_even_when_ranges_overlap() {
        let payload: Vec<u8> = (100..140).collect();
        let bytes = src_bytes(&payload);
        let mut m = ExtentMap::default();
        m.put(2, 10, Src::Own(0));
        m.put(14, 2, buf(9, 2));
        let mut flat = read(&m, &bytes, 0, 24);
        // Source [0, 16) lands at [6, 22): overlapping, zeros included.
        m.copy_within(0, 16, 6);
        flat.copy_within(0..16, 6);
        assert_eq!(read(&m, &bytes, 0, 24), flat);
    }

    /// Random puts and copies against a flat buffer. `fresh(step, data)`
    /// makes a source holding exactly `data`; `bytes` reads one back.
    fn random_operations<S: Source>(
        mut fresh: impl FnMut(u64, &[u8]) -> S,
        bytes: impl Fn(&S, Range<u64>) -> Vec<u8>,
    ) {
        const LEN: u64 = 64;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        let mut m = ExtentMap::default();
        let mut flat = vec![0u8; LEN as usize];
        for step in 0..2000u64 {
            let at = next(LEN);
            let len = next(LEN - at + 1);
            let r = at as usize..(at + len) as usize;
            if next(3) < 2 {
                let data: Vec<u8> = (0..len).map(|i| (step * 7 + i) as u8).collect();
                m.put(at, len, fresh(step, &data));
                flat[r].copy_from_slice(&data);
            } else {
                let to = next(LEN - len + 1);
                m.copy_within(at, len, to);
                flat.copy_within(r, to as usize);
            }
            assert_eq!(read(&m, &bytes, 0, LEN), flat, "step {step}");
            assert!(m.end() <= LEN);
        }
    }

    #[test]
    fn random_operations_match_a_flat_buffer() {
        // The interpreter's sources: a payload range or a buffer, alternately.
        let payload = std::sync::Mutex::new(Vec::new());
        random_operations(
            |step, data| {
                if step % 2 == 1 {
                    return Src::Buf(Bytes::from_vec(data.to_vec()));
                }
                let mut p = payload.lock().unwrap();
                p.extend_from_slice(data);
                Src::Own((p.len() - data.len()) as u64)
            },
            |s, r| src_bytes(&payload.lock().unwrap())(s, r),
        );
        // The tier's: held slices.
        random_operations(
            |_, data| Bytes::from_vec(data.to_vec()),
            |s: &Bytes, r| s[r.start as usize..r.end as usize].to_vec(),
        );
    }
}
