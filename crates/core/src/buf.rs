//! Zero-copy buffer layer for the checkpoint datapath.
//!
//! The paper's rbIO handoff is cheap because a worker's package is
//! allocated once and every later stage — channel, writer aggregation,
//! flush — works on the *same* bytes. This module gives every
//! generation-sized buffer of the runtime that one lifecycle:
//!
//! **lease → fill → freeze → share → recycle.**
//!
//! [`BufPool::lease`] hands out a [`PooledBuf`]: owned, mutable,
//! zero-filled to the requested length. Its holder fills it in place — the
//! application's `fill` closure, a `pread`. Inside the crate, a holder
//! that writes every byte before it reads or freezes any (a restore's
//! blocks, a `pread` of a whole range, a copy) leases through
//! `BufPool::lease_to_overwrite` instead and skips the zero-fill.
//! [`PooledBuf::freeze`] turns it, in O(1) and without moving a byte, into
//! a [`Bytes`]: a refcounted, immutable slice with cheap `clone` and
//! `slice`. When the `PooledBuf`, or the last `Bytes` over it, drops, the
//! storage returns to its pool, so steady-state checkpointing recycles a
//! fixed set of resident buffers instead of mapping (and page-faulting)
//! fresh ones every generation.
//!
//! Ownership and lifetime rules (see DESIGN.md §9):
//!
//! * a buffer is written only while it is a `PooledBuf` — one owner,
//!   `&mut` access; `freeze` consumes that owner, so the bytes behind a
//!   `Bytes` are immutable for its entire lifetime — every copy-avoidance
//!   decision in the executors leans on this;
//! * a pooled buffer is returned to its pool exactly when its
//!   `PooledBuf`, or the last `Bytes`/slice over it, drops; the pool only
//!   ever hands it out again after that point, so no live reader can
//!   observe reuse;
//! * stale bytes never cross a caller: a recycled buffer keeps the
//!   previous lease's bytes until its next holder writes over them. The
//!   public lease of a shared pool zero-fills them (a `memset` of resident
//!   pages, not a page-fault storm, and counted in `bytes_zeroed`); an
//!   overwrite lease is frozen only once every byte is written, and every
//!   error or panic between the lease and the `freeze` drops it unfrozen.
//!   A caller whose leases are read before they are written — the
//!   checkpoint manager's `fill` — leases from a pool of its own
//!   (`BufPool::child`), which zero-fills a buffer once, when it adopts it
//!   from the global pool, and never again: what its holder can see there
//!   is what the same caller wrote before;
//! * copies are *counted*: every helper that actually moves bytes calls
//!   [`rbio_profile::counters::add_bytes_copied`], making "copies per
//!   checkpoint byte" a measurable quantity rather than a code-review
//!   claim;
//! * fit and retention are the pool's business, with no knob: requests
//!   are served at size classes (≤ 12.5 % slack) by best fit, a
//!   zero-length lease takes nothing, a miss maps fresh and regrows
//!   nothing, idle capacity is bounded in bytes — and a round whose first
//!   lease fits nothing kept makes room rather than stack a new shape on
//!   the old one's idle buffers.

use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::{Arc, Mutex, OnceLock, Weak};

use rbio_profile::counters;

use crate::sched::unpoisoned;

/// One buffer's storage and its way home: shared by the [`PooledBuf`]
/// that fills it and the [`Bytes`] slices it is frozen into.
struct Inner {
    /// A pooled buffer at its class capacity, its length as far as any
    /// lease of it has reached; a lease is a view of its first bytes.
    data: Vec<u8>,
    /// The pool to return `data` to on final drop, when pool-backed.
    pool: Option<Weak<PoolShared>>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.as_ref().and_then(Weak::upgrade) {
            pool.put(std::mem::take(&mut self.data), true);
        }
    }
}

/// An owned, mutable buffer leased from a [`BufPool`]: the "fill" stage
/// of the lifecycle. Derefs to the `[u8]` of the requested length, all
/// zeros out of [`BufPool::lease`]. Dropping it recycles the storage;
/// [`PooledBuf::freeze`] shares it instead.
pub struct PooledBuf {
    inner: Inner,
    len: usize,
}

impl PooledBuf {
    /// End the mutable phase: the same storage as an immutable,
    /// refcounted [`Bytes`]. O(1), no copy; the buffer now returns to its
    /// pool when the last slice over it drops.
    pub fn freeze(self) -> Bytes {
        Bytes {
            inner: Arc::new(self.inner),
            off: 0,
            len: self.len,
        }
    }
}

impl Default for PooledBuf {
    /// The zero-length lease: no storage, no pool.
    fn default() -> PooledBuf {
        PooledBuf {
            inner: Inner {
                data: Vec::new(),
                pool: None,
            },
            len: 0,
        }
    }
}

impl Deref for PooledBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.inner.data[..self.len]
    }
}

impl DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.inner.data[..self.len]
    }
}

impl Clone for PooledBuf {
    /// A second lease from the same pool holding the same bytes — a real
    /// data movement, accounted as copied bytes.
    fn clone(&self) -> PooledBuf {
        counters::add_bytes_copied(self.len() as u64);
        match self.inner.pool.as_ref().and_then(Weak::upgrade) {
            Some(shared) => {
                let mut out = BufPool { shared }.lease_to_overwrite(self.len());
                out.copy_from_slice(self);
                out
            }
            // Zero-length, or the private pool is gone: plain storage.
            None => PooledBuf {
                inner: Inner {
                    data: self.to_vec(),
                    pool: None,
                },
                len: self.len,
            },
        }
    }
}

impl From<PooledBuf> for Bytes {
    fn from(b: PooledBuf) -> Bytes {
        b.freeze()
    }
}

/// A cheaply cloneable, immutable, refcounted byte slice.
///
/// `clone` and [`Bytes::slice`] are O(1) and never touch the data. The
/// underlying storage is freed (or returned to its [`BufPool`]) when the
/// last slice over it drops.
#[derive(Clone)]
pub struct Bytes {
    inner: Arc<Inner>,
    off: usize,
    len: usize,
}

impl Bytes {
    /// An empty slice (no allocation).
    pub fn new() -> Bytes {
        static EMPTY: OnceLock<Bytes> = OnceLock::new();
        EMPTY.get_or_init(|| Bytes::from_vec(Vec::new())).clone()
    }

    /// Take ownership of `v` without copying.
    pub fn from_vec(v: Vec<u8>) -> Bytes {
        let len = v.len();
        Bytes {
            inner: Arc::new(Inner {
                data: v,
                pool: None,
            }),
            off: 0,
            len,
        }
    }

    /// Copy `src` into a buffer leased from the global pool. This is a
    /// real data movement and is accounted as copied bytes.
    pub fn copy_from_slice(src: &[u8]) -> Bytes {
        BufPool::global().copy_from_slice(src)
    }

    /// Slice length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// O(1) subslice sharing the same storage.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&e) => e + 1,
            Bound::Excluded(&e) => e,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "slice [{start}..{end}) out of bounds of {}",
            self.len
        );
        Bytes {
            inner: Arc::clone(&self.inner),
            off: self.off + start,
            len: end - start,
        }
    }

    /// Recover a `Vec<u8>`: zero-copy when this is the only slice over a
    /// non-pooled, full-range storage; otherwise a counted copy. (A
    /// frozen lease is copied out, never surrendered: the only way out of
    /// the lifecycle is back into the pool, or every generation would
    /// drain it into the allocator.)
    pub fn into_vec(self) -> Vec<u8> {
        let whole = self.off == 0 && self.len == self.inner.data.len();
        if whole && self.inner.pool.is_none() {
            match Arc::try_unwrap(self.inner) {
                Ok(mut inner) => return std::mem::take(&mut inner.data),
                Err(inner) => {
                    // Another slice is alive: copy out.
                    counters::add_bytes_copied(inner.data.len() as u64);
                    return inner.data.clone();
                }
            }
        }
        counters::add_bytes_copied(self.len as u64);
        self.as_ref().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.inner.data[self.off..self.off + self.len]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes[{} bytes", self.len)?;
        if self.inner.pool.is_some() {
            write!(f, ", pooled")?;
        }
        write!(f, "]")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::from_vec(v)
    }
}

/// Retain at most this many free buffers per pool.
const MAX_POOLED_BUFS: usize = 64;
/// Retain at most this much free capacity per pool; a buffer that would
/// push the free list past it goes back to the allocator instead. Sized
/// for a few generations' worth of payload, eager-send and restore buffers —
/// what a steady-state checkpoint loop keeps in flight.
const MAX_RETAINED_BYTES: usize = 256 << 20;
/// Smallest size class.
const MIN_CLASS: usize = 64;

/// The capacity a request of `len` bytes is served at: `len` rounded up
/// to one of eight classes per power of two, so at most 12.5 % slack. A
/// rank's restore buffer (its field blocks) is therefore of the class of
/// the payload (`header + blocks`) it was written from, and a recycled
/// buffer serves every request of its class.
fn class_capacity(len: usize) -> usize {
    if len <= MIN_CLASS {
        return MIN_CLASS;
    }
    len.next_multiple_of(1 << (len.ilog2() - 3))
}

/// A pool's books: the free buffers, sorted by capacity, the bytes of
/// capacity idle in them, and how many buffers are out on lease.
#[derive(Default)]
struct PoolState {
    bufs: Vec<Vec<u8>>,
    idle: usize,
    out: usize,
}

impl PoolState {
    /// Index of the smallest buffer of at least `cap` bytes (`len()` when
    /// there is none): the best fit, and where a buffer of `cap` belongs.
    fn at_least(&self, cap: usize) -> usize {
        self.bufs.partition_point(|b| b.capacity() < cap)
    }

    /// Take out the buffer that serves a request of class capacity
    /// `cap`, if one is held: the smallest of `cap`'s class or above, but
    /// never one more than twice as large — a 1 MiB chunk must not walk
    /// off with a 36 MiB payload.
    fn best_fit(&mut self, cap: usize) -> Option<Vec<u8>> {
        let i = self.at_least(cap);
        let v = self.bufs.get(i).filter(|b| b.capacity() <= 2 * cap)?;
        self.idle -= v.capacity();
        Some(self.bufs.remove(i))
    }

    /// Take out of the free list, for the caller to release, every buffer
    /// too large to serve `cap` (none above `cap` fitted, or this would
    /// not be a miss) and then the largest of the rest until at least
    /// `cap` bytes — what is about to be mapped — have gone.
    fn make_room(&mut self, cap: usize) -> Vec<Vec<u8>> {
        let mut out = self.bufs.split_off(self.at_least(cap));
        let mut freed: usize = out.iter().map(Vec::capacity).sum();
        while freed < cap {
            let Some(largest) = self.bufs.pop() else {
                break;
            };
            freed += largest.capacity();
            out.push(largest);
        }
        self.idle -= freed;
        out
    }

    /// Is a request of `cap` bytes on the scale of what is kept — would a
    /// full free list of such buffers hold at least the bytes idle now?
    /// Only such a request, arriving while nothing is out, is taken for
    /// the start of a round of another shape; a smaller one is incidental
    /// to whatever round comes next and must not cost it its buffers.
    fn round_sized(&self, cap: usize) -> bool {
        cap.saturating_mul(MAX_POOLED_BUFS) >= self.idle
    }

    /// True if a buffer with base pointer `p` already sits in the free
    /// list (the double-recycle predicate; split out for unit testing).
    fn contains_ptr(&self, p: *const u8) -> bool {
        self.bufs.iter().any(|b| std::ptr::eq(b.as_ptr(), p))
    }
}

struct PoolShared {
    /// The pool's books, taken through [`unpoisoned`]. Every update of
    /// [`PoolState`] is a free-list edit and its byte or lease count in
    /// straight-line code that cannot panic between them, so a panic on a
    /// thread holding the guard leaves no half-made change to refuse.
    state: Mutex<PoolState>,
    /// The pool this one is a child of ([`BufPool::child`]): a miss adopts
    /// one of its idle buffers, and a drop hands it every idle buffer.
    parent: Option<Arc<PoolShared>>,
}

impl Drop for PoolShared {
    /// A child's idle buffers go to its parent, which keeps what fits its
    /// own bounds and releases the rest.
    fn drop(&mut self) {
        if let Some(parent) = &self.parent {
            let state = unpoisoned(self.state.get_mut());
            for v in std::mem::take(&mut state.bufs) {
                parent.put(v, false);
            }
        }
    }
}

impl PoolShared {
    /// Count a lease of class capacity `cap` out and return the buffer
    /// that serves it, if one is held (`PoolState::best_fit`).
    ///
    /// A miss takes nothing and regrows nothing: the caller maps `cap`
    /// fresh bytes. One kind of miss also makes room for them: the first
    /// lease of a round — nothing else is out — that fits nothing kept and
    /// is round-sized (`PoolState::round_sized`). The work has changed
    /// shape (an application re-planned with another layout or rank
    /// count, or a tool reading whole files through
    /// [`crate::backend::IoBackend::read_at`] between checkpoints), and
    /// what was kept for the last round would otherwise
    /// sit resident under the new one: retention would stack the peaks of
    /// phases that never run together. A miss while other leases are out
    /// is fluctuation within a round and releases nothing; nor does a
    /// small one between rounds (a marker's few hundred bytes streamed
    /// through the sealer), which says nothing about the next round.
    fn take(&self, cap: usize) -> Option<Vec<u8>> {
        let mut g = unpoisoned(self.state.lock());
        let hit = g.best_fit(cap);
        let displaced = if hit.is_none() && g.out == 0 && g.round_sized(cap) {
            g.make_room(cap)
        } else {
            Vec::new()
        };
        g.out += 1;
        // Unmap outside the lock.
        drop(g);
        drop(displaced);
        hit
    }

    /// A buffer of class capacity `cap` for a child pool to adopt, if one
    /// is idle here: the same best fit as a lease, but nothing is counted
    /// out and nothing makes room — the buffer leaves this pool for good.
    fn adopt(&self, cap: usize) -> Option<Vec<u8>> {
        unpoisoned(self.state.lock()).best_fit(cap)
    }

    /// Take `v` back: kept, bytes as its last holder left them, when the
    /// free list has room; released otherwise. `leased`
    /// says whether it comes home from a lease of this pool (one fewer
    /// out) or from a child pool that is dropping.
    fn put(&self, v: Vec<u8>, leased: bool) {
        let cap = v.capacity();
        if cap == 0 {
            return;
        }
        let mut g = unpoisoned(self.state.lock());
        if crate::sched::controlled() && g.contains_ptr(v.as_ptr()) {
            // The same allocation is being recycled twice: some live
            // `Bytes` still references a buffer the pool may hand out
            // again (use-after-recycle). Report it to the checker
            // rather than corrupting the free list.
            crate::sched::emit(|| crate::sched::Event::BufDoubleRecycle {
                addr: v.as_ptr() as usize,
            });
            return;
        }
        if leased {
            g.out = g.out.saturating_sub(1);
        }
        if g.bufs.len() < MAX_POOLED_BUFS && g.idle + cap <= MAX_RETAINED_BYTES {
            let i = g.at_least(cap);
            g.bufs.insert(i, v);
            g.idle += cap;
        } else {
            // Over budget: unmap outside the lock.
            drop(g);
            drop(v);
        }
    }
}

/// The recycling pool behind the buffer lifecycle: every generation-sized
/// allocation of the runtime — payloads, restore buffers, eager-send
/// copies, bytes read back into staging, a service session's chunk copies
/// and restore images — is leased here.
pub struct BufPool {
    shared: Arc<PoolShared>,
}

impl BufPool {
    /// A fresh, private pool (tests; the runtime uses [`BufPool::global`]).
    pub fn new() -> BufPool {
        BufPool {
            shared: Arc::new(PoolShared {
                state: Mutex::default(),
                parent: None,
            }),
        }
    }

    /// A pool of one caller's own, drawing on this one: its leases and
    /// their stale bytes stay among that caller's, so a lease that skips
    /// the zero-fill hands back only what the same caller left there. A
    /// miss adopts an idle buffer of the parent's, zero-filled on the way
    /// in (another caller's bytes), before it maps fresh; dropped, the
    /// child hands its idle buffers back to the parent.
    pub(crate) fn child(&self) -> BufPool {
        BufPool {
            shared: Arc::new(PoolShared {
                state: Mutex::default(),
                parent: Some(Arc::clone(&self.shared)),
            }),
        }
    }

    /// The process-wide pool shared by both executors.
    pub fn global() -> &'static BufPool {
        static POOL: OnceLock<BufPool> = OnceLock::new();
        POOL.get_or_init(BufPool::new)
    }

    /// Number of free buffers currently held (test observability).
    pub fn free_buffers(&self) -> usize {
        unpoisoned(self.shared.state.lock()).bufs.len()
    }

    /// Summed capacity of the free buffers currently held (test
    /// observability).
    pub fn retained_bytes(&self) -> usize {
        unpoisoned(self.shared.state.lock()).idle
    }

    /// Capacity of the largest free buffer currently held (test
    /// observability).
    pub fn largest_free(&self) -> usize {
        unpoisoned(self.shared.state.lock())
            .bufs
            .last()
            .map_or(0, Vec::capacity)
    }

    /// Lease a buffer of `len` zero bytes: a recycled one of `len`'s size
    /// class when the pool holds one (its previous lease's bytes zeroed — a
    /// `memset` of resident pages), otherwise a fresh allocation at class
    /// capacity. A zero-length lease holds no storage and touches nothing.
    pub fn lease(&self, len: usize) -> PooledBuf {
        let (mut buf, stale) = self.lease_stale(len);
        counters::add_bytes_zeroed(stale as u64);
        buf[..stale].fill(0);
        buf
    }

    /// [`BufPool::lease`] without the zero-fill, for a holder that writes
    /// all `len` bytes before it reads or freezes any: a recycled buffer
    /// still holds what earlier leases of this pool left. Every error or
    /// panic between this lease and its `freeze` must drop the buffer, so
    /// that those bytes never leave the crate; a child pool's holder may
    /// read them ([`BufPool::child`]).
    pub(crate) fn lease_to_overwrite(&self, len: usize) -> PooledBuf {
        self.lease_stale(len).0
    }

    /// A lease of `len` bytes and how many of them a previous lease of
    /// this pool left: a recycled buffer of `len`'s class, as its earlier
    /// leases left it; else a child's adopted buffer, every byte a lease of
    /// the parent reached zero-filled; else a fresh zeroed allocation at
    /// class capacity. Bytes past the furthest any lease of the buffer
    /// reached are zero-filled once, when a lease first reaches them.
    fn lease_stale(&self, len: usize) -> (PooledBuf, usize) {
        if len == 0 {
            return (PooledBuf::default(), 0);
        }
        let cap = class_capacity(len);
        let adopt = || self.shared.parent.as_ref().and_then(|p| p.adopt(cap));
        let (mut data, stale) = if let Some(v) = self.shared.take(cap) {
            let stale = v.len().min(len);
            (v, stale)
        } else if let Some(mut v) = adopt() {
            // Another caller's bytes: none of them enter this pool.
            counters::add_bytes_zeroed(v.len() as u64);
            v.fill(0);
            (v, 0)
        } else {
            // Zeroed by the allocator (untouched fresh pages when it maps
            // them), cut to `len` with the capacity kept.
            let mut v = vec![0u8; cap];
            v.truncate(len);
            (v, 0)
        };
        if data.len() < len {
            counters::add_bytes_zeroed((len - data.len()) as u64);
            data.resize(len, 0);
        }
        let inner = Inner {
            data,
            pool: Some(Arc::downgrade(&self.shared)),
        };
        (PooledBuf { inner, len }, stale)
    }

    /// Copy `src` into a pooled buffer (counted as copied bytes).
    pub fn copy_from_slice(&self, src: &[u8]) -> Bytes {
        counters::add_bytes_copied(src.len() as u64);
        let mut buf = self.lease_to_overwrite(src.len());
        buf.copy_from_slice(src);
        buf.freeze()
    }

    /// Fill a pooled buffer of `len` bytes with `f(index)` — used for
    /// synthetic plan data, where the bytes are generated, not copied.
    pub fn from_fn(&self, len: usize, f: impl Fn(usize) -> u8) -> Bytes {
        let mut buf = self.lease_to_overwrite(len);
        buf.iter_mut().enumerate().for_each(|(i, b)| *b = f(i));
        buf.freeze()
    }
}

impl std::fmt::Debug for BufPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = unpoisoned(self.shared.state.lock());
        write!(f, "BufPool[{} free, {} bytes idle]", g.bufs.len(), g.idle)
    }
}

impl Default for BufPool {
    fn default() -> BufPool {
        BufPool::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_is_zero_copy_round_trip() {
        let before = counters::snapshot();
        let v: Vec<u8> = (0..200u8).collect();
        let ptr = v.as_ptr();
        let b = Bytes::from_vec(v);
        assert_eq!(b.len(), 200);
        assert_eq!(&b[..5], &[0, 1, 2, 3, 4]);
        let back = b.into_vec();
        assert_eq!(back.as_ptr(), ptr, "unique full-range into_vec moves");
        // No counted copies happened on this thread's path. (Other tests
        // may run concurrently, so only check our own allocation moved.)
        let _ = before;
    }

    #[test]
    fn slices_share_storage_and_compare() {
        let b = Bytes::from_vec((0..100u8).collect());
        let s = b.slice(10..20);
        assert_eq!(s.len(), 10);
        assert_eq!(&s[..], &(10..20u8).collect::<Vec<_>>()[..]);
        let s2 = s.slice(2..=4);
        assert_eq!(&s2[..], &[12, 13, 14]);
        assert_eq!(s.slice(..), s);
        let c = s.clone();
        assert_eq!(c, s);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let b = Bytes::from_vec(vec![0; 4]);
        let _ = b.slice(2..8);
    }

    #[test]
    fn pooled_buffers_recycle_on_last_drop() {
        let pool = BufPool::new();
        let b = pool.copy_from_slice(&[7u8; 128]);
        let s = b.slice(5..100);
        assert_eq!(pool.free_buffers(), 0, "still referenced");
        drop(b);
        assert_eq!(pool.free_buffers(), 0, "slice still referenced");
        drop(s);
        assert_eq!(pool.free_buffers(), 1, "returned on final drop");
        // The next lease of that class reuses the buffer.
        let c = pool.copy_from_slice(&[1u8; 100]);
        assert_eq!(pool.free_buffers(), 0);
        assert_eq!(&c[..3], &[1, 1, 1]);
    }

    #[test]
    fn lease_fill_freeze_is_one_allocation() {
        let pool = BufPool::new();
        let mut buf = pool.lease(300);
        assert_eq!(buf.len(), 300);
        assert!(buf.iter().all(|&b| b == 0), "a lease starts zeroed");
        buf[7] = 9;
        let ptr = buf.as_ptr();
        let frozen = buf.freeze();
        assert_eq!(frozen.as_ptr(), ptr, "freeze moves no byte");
        assert_eq!((frozen.len(), frozen[7]), (300, 9));
        assert_eq!(pool.free_buffers(), 0, "frozen, not recycled");
        drop(frozen);
        assert_eq!(pool.free_buffers(), 1);
        // An unfrozen lease goes home on drop too.
        drop(pool.lease(300));
        assert_eq!(pool.free_buffers(), 1);
    }

    #[test]
    fn size_classes_waste_at_most_an_eighth() {
        for len in [
            1,
            64,
            65,
            100,
            4096,
            4097,
            (2 << 20) + 300,
            (32 << 20) + 4500,
        ] {
            let cap = class_capacity(len);
            assert!(cap >= len && cap - len <= len.max(MIN_CLASS) / 8 + MIN_CLASS);
            assert_eq!(class_capacity(cap), cap, "a class is its own class");
        }
        // header + data and header + data + footer share a class.
        assert_eq!(
            class_capacity((32 << 20) + 4500),
            class_capacity((32 << 20) + 4500 + 92)
        );
    }

    #[test]
    fn best_fit_picks_the_smallest_sufficient_class() {
        let pool = BufPool::new();
        let (a, b, c) = (pool.lease(1000), pool.lease(1500), pool.lease(2000));
        let ptr_b = b.as_ptr();
        drop((c, a, b));
        assert_eq!(pool.free_buffers(), 3);
        let got = pool.lease(1100);
        assert_eq!(
            got.as_ptr(),
            ptr_b,
            "1024 is too small, 2048 is not the best"
        );
        assert_eq!(pool.free_buffers(), 2);
    }

    #[test]
    fn a_miss_within_a_round_leaves_the_free_list_intact() {
        let pool = BufPool::new();
        let _out = pool.lease(64); // the round is under way
        let small = pool.lease(1000);
        let ptr = small.as_ptr();
        drop((pool.lease(200), small));
        let retained = pool.retained_bytes();
        // Nothing held is large enough for the first — it is mapped
        // fresh at its class's capacity, never a smaller buffer regrown —
        // and the only sufficient buffers are more than twice too large
        // for the second.
        let (big, tiny) = (pool.lease(4000), pool.lease(1));
        assert_eq!(big.inner.data.capacity(), class_capacity(4000));
        assert_ne!(big.as_ptr(), ptr);
        assert_eq!(tiny.inner.data.capacity(), MIN_CLASS);
        assert_eq!(pool.free_buffers(), 2);
        assert_eq!(pool.retained_bytes(), retained);
    }

    #[test]
    fn the_first_lease_of_a_round_that_fits_nothing_makes_room() {
        let pool = BufPool::new();
        // Checkpoint rounds: a header-carrying payload and seven plain
        // ones, kept in between.
        let checkpoint = || {
            let first = pool.lease(1100);
            (first, (0..7).map(|_| pool.lease(1000)).collect::<Vec<_>>())
        };
        let kept = class_capacity(1100) + 7 * 1024;
        for _ in 0..2 {
            drop(checkpoint());
            assert_eq!((pool.free_buffers(), pool.retained_bytes()), (8, kept));
        }
        // A round of another shape: its first lease fits none of them and
        // nothing is out, so the largest go — as many bytes as it maps —
        // instead of sitting resident under it.
        let image = pool.lease(6000);
        assert_eq!(pool.free_buffers(), 2);
        assert!(kept - pool.retained_bytes() >= class_capacity(6000));
        drop(image);
        assert_eq!(pool.free_buffers(), 3);
        // Back to checkpoints: the round's first lease finds only the
        // image above its class, far too large to serve it. The image
        // goes; the two small buffers still serve their class.
        let round = checkpoint();
        assert_eq!(pool.free_buffers(), 0);
        drop(round);
        assert_eq!((pool.free_buffers(), pool.retained_bytes()), (8, kept));
    }

    #[test]
    fn a_small_lease_between_rounds_displaces_nothing() {
        let pool = BufPool::new();
        drop((pool.lease(8000), pool.lease(8000)));
        let kept = pool.retained_bytes();
        // Nothing is out and nothing kept is small enough to serve it, but
        // 64 of its like would not amount to what is kept: no new round.
        let small = pool.lease(100);
        assert_eq!((pool.free_buffers(), pool.retained_bytes()), (2, kept));
        drop(small);
        // Nor does the next one, of another class, now that one is kept.
        let other = pool.lease(200);
        assert_eq!(pool.free_buffers(), 3);
        let round = (pool.lease(8000), pool.lease(8000));
        assert_eq!(pool.free_buffers(), 1);
        drop((other, round));
        assert_eq!(pool.free_buffers(), 4);
        // A round-sized request that fits nothing still makes room.
        drop(pool.lease(12_000));
        assert_eq!(pool.free_buffers(), 3, "both 8 KiB buffers went");
    }

    #[test]
    fn zero_length_lease_touches_nothing() {
        let pool = BufPool::new();
        drop(pool.lease(64));
        let empty = pool.lease(0);
        assert!(empty.is_empty());
        assert_eq!(pool.free_buffers(), 1, "no buffer consumed");
        assert!(empty.clone().freeze().is_empty());
        assert_eq!(pool.free_buffers(), 1, "and none returned");
    }

    #[test]
    fn retention_is_bounded_in_bytes_not_in_buffer_size() {
        let pool = BufPool::new();
        // Fresh leases are untouched zero pages: no memory is committed.
        drop(pool.lease(MAX_RETAINED_BYTES + 1));
        assert_eq!(pool.free_buffers(), 0, "over the budget: released");
        drop(pool.lease(40 << 20));
        assert_eq!(pool.retained_bytes(), 40 << 20, "under the budget: kept");
        let held: Vec<_> = (0..8).map(|_| pool.lease(40 << 20)).collect();
        drop(held);
        assert_eq!(pool.free_buffers(), MAX_RETAINED_BYTES / (40 << 20));
        assert!(pool.retained_bytes() <= MAX_RETAINED_BYTES);
    }

    #[test]
    fn a_recycled_lease_is_zeroed() {
        let pool = BufPool::new();
        let mut buf = pool.lease(5000);
        buf.fill(0xAA);
        let ptr = buf.as_ptr();
        drop(buf);
        // Cut to a shorter lease, then grown back past where it was cut.
        for len in [5000, 4700, 5000] {
            let before = counters::snapshot();
            let mut again = pool.lease(len);
            let zeroed = counters::snapshot().delta_since(&before).bytes_zeroed;
            assert_eq!(again.as_ptr(), ptr, "same class, same buffer");
            assert!(again.iter().all(|&b| b == 0), "stale bytes at len {len}");
            assert!(zeroed >= len as u64, "{zeroed} bytes zeroed at len {len}");
            again.fill(0xAA);
        }
    }

    #[test]
    fn an_overwrite_lease_zero_fills_only_its_growth() {
        let pool = BufPool::new();
        let mut buf = pool.lease(4700);
        buf.fill(0xAA);
        let ptr = buf.as_ptr();
        drop(buf);
        let before = counters::snapshot();
        let again = pool.lease_to_overwrite(5000);
        let zeroed = counters::snapshot().delta_since(&before).bytes_zeroed;
        assert_eq!(again.as_ptr(), ptr, "same class, same buffer");
        assert!(again[..4700].iter().all(|&b| b == 0xAA), "no memset");
        assert!(
            again[4700..].iter().all(|&b| b == 0),
            "the growth is zeroed"
        );
        assert!(zeroed >= 300, "the growth is counted");
    }

    #[test]
    fn a_lease_short_of_the_buffers_furthest_reach_fills_nothing() {
        let pool = BufPool::new();
        let mut buf = pool.lease(5000);
        buf.fill(0xBB);
        drop(buf);
        let mut buf = pool.lease(4700);
        buf.fill(0xAA);
        drop(buf);
        // Longer than the last lease, not than the one before: the tail
        // shows what that lease left.
        let again = pool.lease_to_overwrite(5000);
        assert!(again[..4700].iter().all(|&b| b == 0xAA), "no memset");
        assert!(again[4700..].iter().all(|&b| b == 0xBB), "no growth fill");
    }

    #[test]
    fn a_child_zeroes_what_it_adopts_and_hands_it_back_on_drop() {
        let parent = BufPool::new();
        let mut dirty = parent.lease(5000);
        dirty.fill(0xA5);
        let ptr = dirty.as_ptr();
        drop(dirty);
        let child = parent.child();
        let mut buf = child.lease_to_overwrite(5000);
        assert_eq!(buf.as_ptr(), ptr, "adopted, not mapped");
        assert!(buf.iter().all(|&b| b == 0), "the parent's bytes stay out");
        buf.fill(7);
        drop(buf);
        assert_eq!((child.free_buffers(), parent.free_buffers()), (1, 0));
        let again = child.lease_to_overwrite(5000);
        assert!(again.iter().all(|&b| b == 7), "its own bytes, no memset");
        drop(again);
        drop(child);
        assert_eq!(parent.free_buffers(), 1, "handed back on drop");
        let g = unpoisoned(parent.shared.state.lock());
        assert_eq!(g.out, 0, "an adopted buffer is not out on lease");
    }

    #[test]
    fn clone_is_a_counted_second_lease() {
        let pool = BufPool::new();
        let mut a = pool.lease(256);
        a.fill(3);
        let before = counters::snapshot();
        let b = a.clone();
        let d = counters::snapshot().delta_since(&before);
        assert!(d.bytes_copied >= 256, "copies must be accounted");
        assert_eq!(a[..], b[..]);
        assert_ne!(a.as_ptr(), b.as_ptr());
        drop((a, b));
        assert_eq!(pool.free_buffers(), 2, "both go home to the same pool");
    }

    #[test]
    fn copy_from_slice_is_counted() {
        let before = counters::snapshot();
        let pool = BufPool::new();
        let _b = pool.copy_from_slice(&[0u8; 4096]);
        let d = counters::snapshot().delta_since(&before);
        assert!(d.bytes_copied >= 4096, "copies must be accounted");
    }

    #[test]
    fn from_fn_generates_without_copy_accounting() {
        let pool = BufPool::new();
        let b = pool.from_fn(16, |i| (i * 3) as u8);
        assert_eq!(b[5], 15);
        assert_eq!(b.len(), 16);
    }

    #[test]
    fn into_vec_copies_when_shared_or_pooled() {
        let pool = BufPool::new();
        let b = pool.copy_from_slice(&[9u8; 32]);
        let v = b.clone().into_vec(); // shared + pooled: must copy
        assert_eq!(v, vec![9u8; 32]);
        drop(b);
        assert_eq!(pool.free_buffers(), 1, "pooled storage stays pooled");
    }

    #[test]
    fn empty_bytes() {
        let e = Bytes::new();
        assert!(e.is_empty());
        assert_eq!(e.slice(0..0).len(), 0);
        assert_eq!(Bytes::default(), e);
    }

    #[test]
    fn double_recycle_predicate_spots_aliased_buffer() {
        // `put` reports `BufDoubleRecycle` under a controlled scheduler
        // exactly when this predicate holds for the returning buffer.
        let pool = BufPool::new();
        let b = pool.copy_from_slice(&[3u8; 64]);
        let ptr = b.as_ref().as_ptr();
        drop(b); // storage returns to the free list
        let g = unpoisoned(pool.shared.state.lock());
        assert!(
            g.contains_ptr(ptr),
            "recycled buffer must be found by pointer identity"
        );
        assert!(!g.contains_ptr([0u8; 1].as_ptr()));
    }
}
