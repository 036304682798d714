//! Deterministic fault injection for the executors.
//!
//! A [`FaultPlan`] is a small, cloneable handle (shared via `Arc`) that
//! both executors consult at their I/O and messaging edges:
//!
//! * **kill** — terminate a rank once its cumulative written bytes reach a
//!   threshold (models a node dying mid-checkpoint, including right before
//!   the commit rename);
//! * **transient write error** — fail the K-th `write_at` on a rank with
//!   `EIO` for a configurable number of attempts, then succeed (models the
//!   I/O-node hiccups the retry path exists for);
//! * **message drop** — swallow the N-th worker→writer message on a
//!   channel (models a lost handoff; the receiver times out with a typed
//!   error instead of hanging);
//! * **hang** — wedge a rank at its next write edge for a duration
//!   (models a hung-but-not-dead writer: the failover monitor must
//!   declare it dead and fence it before it revives);
//! * **write delay** — slow every write on a rank by a fixed delay
//!   (models a slow writer that stays alive: its drain waits it out, and
//!   the failover monitor does not declare it dead while its heartbeat
//!   moves).
//!
//! The default plan injects nothing and costs one atomic load per check.

use std::collections::HashMap;
use std::io;
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rbio_plan::Rank;
use rbio_profile::counters;

use crate::crash;
use crate::sched::{self, unpoisoned};

/// What a write-edge fault check decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteFault {
    /// The rank dies here: abandon its program immediately.
    Kill,
    /// This attempt fails with a transient I/O error; retrying may succeed.
    Error,
    /// The device accepts only the first `cap` bytes of this write; the
    /// caller must deliver the remainder itself (short-write path). The
    /// plan has already accounted the *full* length — the logical write
    /// will eventually deliver every byte.
    Short {
        /// Bytes the device accepts before cutting the write short.
        cap: u64,
    },
    /// The device is out of space: this and every later write on the rank
    /// fails with `ENOSPC`. Not transient — retrying a full disk is
    /// wasted work, so the retry loops surface it immediately.
    Enospc,
}

#[derive(Debug, Default)]
struct Inner {
    /// rank → kill once cumulative bytes written reach this threshold.
    kill_after: HashMap<Rank, u64>,
    /// rank → cumulative bytes successfully written so far.
    written: HashMap<Rank, u64>,
    /// rank → (failing write index, remaining failures) keyed per rank.
    fail_write: HashMap<Rank, (u64, u32)>,
    /// rank → (write index, byte cap): that write is cut short at `cap`
    /// bytes, one-shot.
    short_write: HashMap<Rank, (u64, u64)>,
    /// rank → index of the next `write_at` (attempt 0 only).
    write_index: HashMap<Rank, u64>,
    /// (src, dst) → message index to drop on that channel.
    drop_msg: HashMap<(Rank, Rank), u64>,
    /// (src, dst) → messages sent so far on that channel.
    sent: HashMap<(Rank, Rank), u64>,
    /// rank → one-shot hang duration at its next write edge.
    hang: HashMap<Rank, Duration>,
    /// rank → fixed delay added to every write.
    delay: HashMap<Rank, Duration>,
    /// ranks whose next directory fsync (the rename-durability barrier in
    /// `commit_file`) fails once with an injected error.
    dir_fsync_fail: std::collections::HashSet<Rank>,
    /// rank → cumulative byte budget after which every write fails with
    /// `ENOSPC` (a full device stays full: persistent, never cleared).
    enospc_after: HashMap<Rank, u64>,
    /// ranks whose file fsyncs fail with `EIO`.
    fsync_eio: std::collections::HashSet<Rank>,
    /// ranks on which an fsync has already failed. Sticky: per fsyncgate
    /// semantics, once an fsync fails the kernel may have dropped the
    /// dirty pages, so no later fsync on that rank is allowed to report
    /// the data durable.
    fsync_failed: std::collections::HashSet<Rank>,
}

/// Shared fault-injection plan. Cloning shares state: the same plan handed
/// to an executor and inspected by a test observes one set of counters.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    armed: Arc<AtomicBool>,
    /// Taken through [`unpoisoned`]: every update under it is a map
    /// insert or remove, or a counter bump, in straight-line code with no
    /// call that can panic between two of them, so a panic on a thread
    /// holding it leaves no half-made change to refuse.
    inner: Arc<Mutex<Inner>>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Kill `rank` once it has written at least `bytes` cumulative bytes
    /// (checked before each write; `0` kills on the first write attempt).
    pub fn kill_writer_after_bytes(self, rank: Rank, bytes: u64) -> Self {
        unpoisoned(self.inner.lock()).kill_after.insert(rank, bytes);
        self.armed.store(true, Ordering::Release);
        self
    }

    /// Fail `rank`'s `nth` write (0-based) with a transient error for the
    /// first `times` attempts; the next retry succeeds.
    pub fn fail_nth_write(self, rank: Rank, nth: u64, times: u32) -> Self {
        unpoisoned(self.inner.lock())
            .fail_write
            .insert(rank, (nth, times));
        self.armed.store(true, Ordering::Release);
        self
    }

    /// Cut `rank`'s `nth` write (0-based) short: the device accepts only
    /// the first `cap` bytes, and the writer must deliver the remainder
    /// itself (a resubmit in the ring backend, a continuation loop in the
    /// threaded one). One-shot. Models the partial `pwrite` returns that
    /// striped file systems produce near stripe boundaries.
    pub fn short_write(self, rank: Rank, nth: u64, cap: u64) -> Self {
        unpoisoned(self.inner.lock())
            .short_write
            .insert(rank, (nth, cap));
        self.armed.store(true, Ordering::Release);
        self
    }

    /// Drop the `nth` message (0-based) sent from `src` to `dst`.
    pub fn drop_message(self, src: Rank, dst: Rank, nth: u64) -> Self {
        unpoisoned(self.inner.lock())
            .drop_msg
            .insert((src, dst), nth);
        self.armed.store(true, Ordering::Release);
        self
    }

    /// Wedge `rank` at its *next* write edge for `dur` (one-shot). The
    /// rank is alive but makes no progress: the failover monitor sees a
    /// stale heartbeat, declares it dead past the dead-writer deadline,
    /// and must fence it so its post-revival commit is refused.
    pub fn hang_writer(self, rank: Rank, dur: Duration) -> Self {
        unpoisoned(self.inner.lock()).hang.insert(rank, dur);
        self.armed.store(true, Ordering::Release);
        self
    }

    /// Add `delay` to every write `rank` performs (a slow writer, never
    /// dead: the write still lands, late, through the fault plan).
    pub fn delay_writes(self, rank: Rank, delay: Duration) -> Self {
        unpoisoned(self.inner.lock()).delay.insert(rank, delay);
        self.armed.store(true, Ordering::Release);
        self
    }

    /// The device runs out of space for `rank` once it has written
    /// `bytes` cumulative bytes: that write and every later one fails
    /// with `ENOSPC`. Persistent (a full disk stays full), and never
    /// retried — `ENOSPC` is not transient.
    pub fn enospc_after_bytes(self, rank: Rank, bytes: u64) -> Self {
        unpoisoned(self.inner.lock())
            .enospc_after
            .insert(rank, bytes);
        self.armed.store(true, Ordering::Release);
        self
    }

    /// Fail `rank`'s file fsyncs with `EIO`. The first failure latches:
    /// even if the injection is later cleared, subsequent fsyncs on the
    /// rank keep failing (see `FaultPlan::on_fsync`).
    ///
    /// The injection keys on the rank that *issues* the fsync. An atomic
    /// plan file has exactly one — the `sync_all` in its owner's `Commit`
    /// — so for such a file this is the rank that commits it; arming any
    /// other rank that writes the file (a coIO aggregator, say) injects
    /// nothing, because that rank never syncs. A *real* writeback error on
    /// any writer's pages still surfaces there: the kernel records it on
    /// the inode (`errseq`), and [`crate::commit::commit_file`] opens its
    /// descriptor before it syncs, so that `sync_all` reports an error no
    /// descriptor has yet been told about, whichever rank dirtied the
    /// page.
    pub fn fsync_eio(self, rank: Rank) -> Self {
        unpoisoned(self.inner.lock()).fsync_eio.insert(rank);
        self.armed.store(true, Ordering::Release);
        self
    }

    /// Consult the plan as `rank` is about to fsync a data file.
    /// `Some(error)` means the fsync fails. Sticky (the fsyncgate rule):
    /// after the first failure on a rank, every later fsync on that rank
    /// also fails — writeback errors may have dropped the dirty pages, so
    /// a retried fsync that reports clean proves nothing. Consulted by
    /// the one fsync, [`crate::commit::sync_file`], before its `sync_all`.
    pub(crate) fn on_fsync(&self, rank: Rank) -> Option<io::Error> {
        if !self.is_armed() {
            return None;
        }
        let mut g = unpoisoned(self.inner.lock());
        if g.fsync_failed.contains(&rank) {
            return Some(io::Error::from_raw_os_error(5));
        }
        if g.fsync_eio.contains(&rank) {
            g.fsync_failed.insert(rank);
            return Some(io::Error::from_raw_os_error(5));
        }
        None
    }

    /// Record that a *real* fsync failed on `rank`, so the sticky rule in
    /// [`FaultPlan::on_fsync`] applies to it from now on.
    pub(crate) fn latch_fsync_failure(&self, rank: Rank) {
        unpoisoned(self.inner.lock()).fsync_failed.insert(rank);
        self.armed.store(true, Ordering::Release);
    }

    /// Fail `rank`'s next directory fsync (the commit path's
    /// rename-durability barrier) once with an injected I/O error.
    #[cfg(test)]
    pub(crate) fn fail_dir_fsync(self, rank: Rank) -> Self {
        unpoisoned(self.inner.lock()).dir_fsync_fail.insert(rank);
        self.armed.store(true, Ordering::Release);
        self
    }

    /// Consult the plan as `rank` fsyncs the directory containing a
    /// freshly renamed commit. `Some(error)` means the barrier fails
    /// (one-shot); the commit must report it.
    pub(crate) fn on_dir_fsync(&self, rank: Rank) -> Option<io::Error> {
        if !self.is_armed() {
            return None;
        }
        unpoisoned(self.inner.lock())
            .dir_fsync_fail
            .remove(&rank)
            .then(|| io::Error::other(format!("injected directory fsync failure on rank {rank}")))
    }

    /// Take (and clear) the pending one-shot hang for `rank`, if any.
    /// The caller performs the actual stall so the shared lock is never
    /// held across a sleep.
    pub(crate) fn take_hang(&self, rank: Rank) -> Option<Duration> {
        if !self.is_armed() {
            return None;
        }
        unpoisoned(self.inner.lock()).hang.remove(&rank)
    }

    /// The per-write delay configured for `rank`, if any.
    pub(crate) fn write_delay(&self, rank: Rank) -> Option<Duration> {
        if !self.is_armed() {
            return None;
        }
        unpoisoned(self.inner.lock()).delay.get(&rank).copied()
    }

    /// Whether any fault is configured (fast path: one atomic load).
    pub(crate) fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Acquire)
    }

    /// Consult the plan before `rank` writes `bytes` (attempt number
    /// `attempt`, 0 on the first try). `None` means proceed — the plan
    /// then accounts the bytes as written.
    pub(crate) fn on_write(&self, rank: Rank, bytes: u64, attempt: u32) -> Option<WriteFault> {
        if !self.is_armed() {
            return None;
        }
        let mut g = unpoisoned(self.inner.lock());
        if let Some(&threshold) = g.kill_after.get(&rank) {
            if *g.written.entry(rank).or_insert(0) >= threshold {
                return Some(WriteFault::Kill);
            }
        }
        if let Some(&cap) = g.enospc_after.get(&rank) {
            // The write that would cross the remaining-space budget is
            // the one the device rejects; once it fires, the cap drops
            // to zero so every later write fails too (the disk stays
            // full even for smaller writes).
            if g.written
                .get(&rank)
                .copied()
                .unwrap_or(0)
                .saturating_add(bytes)
                > cap
            {
                g.enospc_after.insert(rank, 0);
                return Some(WriteFault::Enospc);
            }
        }
        // The logical write index advances only on first attempts, so a
        // retried write keeps its index.
        let idx = if attempt == 0 {
            let e = g.write_index.entry(rank).or_insert(0);
            let idx = *e;
            *e += 1;
            idx
        } else {
            g.write_index.get(&rank).copied().unwrap_or(1) - 1
        };
        if let Some(&(nth, times)) = g.fail_write.get(&rank) {
            if idx == nth && attempt < times {
                return Some(WriteFault::Error);
            }
        }
        if let Some(&(nth, cap)) = g.short_write.get(&rank) {
            if idx == nth && attempt == 0 {
                // The write proceeds (short), so the full length is
                // accounted now: the caller owes the remainder and the
                // plan never sees this logical write again.
                g.short_write.remove(&rank);
                *g.written.entry(rank).or_insert(0) += bytes;
                return Some(WriteFault::Short { cap });
            }
        }
        *g.written.entry(rank).or_insert(0) += bytes;
        None
    }

    /// Consult the plan as `rank` is about to commit (rename) a file;
    /// `true` means the rank dies here — after its data writes, before the
    /// rename — the worst spot for crash consistency. Consulted by
    /// [`crate::commit::commit_file_with_faults`] alone.
    pub(crate) fn on_commit(&self, rank: Rank) -> bool {
        if !self.is_armed() {
            return false;
        }
        let g = unpoisoned(self.inner.lock());
        match g.kill_after.get(&rank) {
            Some(&threshold) => g.written.get(&rank).copied().unwrap_or(0) >= threshold,
            None => false,
        }
    }

    /// Consult the plan as `src` sends a message to `dst`; `true` means
    /// drop it (the receiver never sees it).
    pub(crate) fn on_send(&self, src: Rank, dst: Rank) -> bool {
        if !self.is_armed() {
            return false;
        }
        let mut g = unpoisoned(self.inner.lock());
        let e = g.sent.entry((src, dst)).or_insert(0);
        let idx = *e;
        *e += 1;
        g.drop_msg.get(&(src, dst)) == Some(&idx)
    }
}

/// Failure of a fault-checked, retried write.
#[derive(Debug)]
pub enum WriteError {
    /// Fault injection killed the rank; abandon its program.
    Killed,
    /// A real or injected I/O error that exhausted the retry budget.
    Io(io::Error),
    /// Transient errors persisted past the retry wall-clock deadline;
    /// the writer gave up even though attempts remained.
    DeadlineExceeded {
        /// How long the write (including retries) had been running.
        waited: Duration,
    },
    /// A partial write could not be completed: the device accepted a
    /// prefix and then stopped making progress (or failed hard). Typed so
    /// callers can report exactly how much of the payload landed instead
    /// of folding it into a generic retry error.
    ShortWrite {
        /// Bytes that reached the device before progress stopped.
        written: u64,
        /// Bytes the logical write was supposed to deliver.
        expected: u64,
    },
}

impl WriteError {
    /// The `io::Error` this failure surfaces as — `None` for an injected
    /// kill, which every caller reports in its own error space.
    pub(crate) fn into_io(self) -> Option<io::Error> {
        match self {
            WriteError::Killed => None,
            WriteError::Io(e) => Some(e),
            WriteError::DeadlineExceeded { waited } => Some(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("write retries exhausted their deadline after {waited:?}"),
            )),
            WriteError::ShortWrite { written, expected } => Some(io::Error::new(
                io::ErrorKind::WriteZero,
                format!("short write stalled at {written}/{expected} bytes"),
            )),
        }
    }
}

impl From<io::Error> for WriteError {
    fn from(e: io::Error) -> Self {
        WriteError::Io(e)
    }
}

/// For callers with no error space of their own for a kill.
impl From<WriteError> for io::Error {
    fn from(e: WriteError) -> Self {
        e.into_io()
            .unwrap_or_else(|| io::Error::other("killed by fault injection"))
    }
}

/// Errors worth retrying a write for (besides injected ones).
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Total retry wall-clock budget for one logical write: the doubling
/// backoff series `initial_backoff · 2^retries` (exponent capped so huge
/// retry counts cannot produce an unbounded budget), clamped to
/// [50 ms, 2 s]. The floor guarantees the full attempt schedule of the
/// small default backoffs always fits; the ceiling bounds how long a
/// writer can sit on an EIO-forever device before surfacing a typed
/// [`WriteError::DeadlineExceeded`].
fn retry_budget(max_retries: u32, initial_backoff: Duration) -> Duration {
    let factor = 1u32 << max_retries.min(12);
    initial_backoff
        .saturating_mul(factor)
        .clamp(Duration::from_millis(50), Duration::from_secs(2))
}

/// splitmix64: a tiny, well-mixed PRNG step. Derives every seeded
/// choice the runtime makes: retry jitter, crash-image subsets.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Deterministic backoff jitter in `[0, backoff/2]`, decorrelating the
/// retry storms of writers that hit the same I/O-node hiccup together.
fn retry_jitter(backoff: Duration, rank: Rank, offset: u64, attempt: u32) -> Duration {
    let x = splitmix64(u64::from(rank) ^ offset.rotate_left(17) ^ (u64::from(attempt) << 32));
    backoff
        .checked_div(2)
        .unwrap_or(Duration::ZERO)
        .mul_f64((x % 1000) as f64 / 1000.0)
}

/// One write's retry clock: sleeps the (jittered) backoff, doubling it
/// each attempt, and fails with a typed error once the wall-clock
/// deadline passes — an EIO-forever device gives up in bounded time no
/// matter how large the attempt budget is.
struct RetryClock {
    start: Instant,
    deadline: Instant,
}

impl RetryClock {
    fn new(max_retries: u32, initial_backoff: Duration) -> Self {
        let start = Instant::now();
        RetryClock {
            start,
            deadline: start + retry_budget(max_retries, initial_backoff),
        }
    }

    fn backoff(
        &self,
        backoff: &mut Duration,
        rank: Rank,
        offset: u64,
        attempt: u32,
    ) -> Result<(), WriteError> {
        let now = Instant::now();
        if now >= self.deadline {
            return Err(WriteError::DeadlineExceeded {
                waited: now.duration_since(self.start),
            });
        }
        let jittered = backoff.saturating_add(retry_jitter(*backoff, rank, offset, attempt));
        #[allow(clippy::disallowed_methods)] // retry backoff: a deliberate delay, not a wait
        std::thread::sleep(jittered.min(self.deadline.duration_since(now)));
        *backoff = backoff.saturating_mul(2);
        Ok(())
    }
}

/// Retries per logical write on a transient error: the one budget every
/// library writer runs under (plan writers under either entry point, a
/// service session's pool writer, and [`crate::commit::commit_bytes`]).
pub(crate) const WRITE_RETRIES: u32 = 3;
/// First retry backoff of that budget; it doubles per attempt, jittered
/// and capped by the write's wall-clock deadline.
pub(crate) const RETRY_BACKOFF: Duration = Duration::from_micros(500);

/// Immutable per-writer context every fault-checked write runs under.
/// Re-exported as [`crate::backend::IoCtx`]: backends receive it from
/// the flush pool and pass it straight down.
pub struct IoCtx<'a> {
    /// The writer's rank (fault-plan key and event payload).
    pub rank: Rank,
    /// Pool slot index, carried into submission/completion events.
    pub wid: usize,
    /// Fault-injection plan consulted before every logical write.
    pub faults: &'a FaultPlan,
    /// Retry budget per logical write.
    pub write_retries: u32,
    /// Initial retry backoff (doubles per attempt).
    pub retry_backoff: Duration,
}

impl<'a> IoCtx<'a> {
    /// `rank`'s context under the one budget, [`WRITE_RETRIES`] from
    /// [`RETRY_BACKOFF`].
    pub(crate) fn new(rank: Rank, wid: usize, faults: &'a FaultPlan) -> Self {
        IoCtx {
            rank,
            wid,
            faults,
            write_retries: WRITE_RETRIES,
            retry_backoff: RETRY_BACKOFF,
        }
    }
}

/// What one fault-checked write delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Written {
    /// Retried attempts consumed by transient errors.
    pub(crate) attempts: u32,
    /// `Some(n)` after an injected [`WriteFault::Short`]: only the first
    /// `n` bytes of the buffers landed, and the remainder is owed through
    /// [`finish_short_write`]. `None`: delivered in full.
    pub(crate) short: Option<u64>,
}

/// The one fault-checked write: `bufs` land back to back at `offset` as
/// **one** logical write of their total length. Every write the serial
/// interpreter, both backends and the text-artifact commit issue goes
/// through this loop, so their failure behaviour cannot differ:
///
/// * the rank's injected [`FaultPlan::delay_writes`] is slept first
///   (skipped under a controlled scheduler, where wall-clock sleeps
///   would wreck determinism);
/// * the plan is consulted once per attempt. [`WriteFault::Kill`] →
///   [`WriteError::Killed`]; [`WriteFault::Enospc`] → `ENOSPC`, never
///   retried; [`WriteFault::Error`] → `EIO`, retried like a real
///   transient error: up to `ctx.write_retries` more attempts on the
///   jittered, doubling, deadline-capped [`RetryClock`];
/// * [`WriteFault::Short`] lands only the first `cap` bytes — the buffer
///   list cut at `cap`, however many buffers that spans — and returns with
///   `short = Some(cap)`: how a completion queue surfaces a partial write;
/// * the bytes go down through one raw write loop, which repeats its
///   syscall until every byte has landed: a `pwrite` for one buffer, a
///   seek and a `writev` for several;
/// * the bytes landed are journaled to [`crate::crash`] exactly once.
///
/// Counting a multi-buffer batch as one write changes the plan's
/// per-write accounting granularity, so the executors only coalesce when
/// [`FaultPlan::is_armed`] is false — fault semantics are specified
/// against plan ops, not against batched syscalls.
pub(crate) fn write_at_or_short(
    ctx: &IoCtx<'_>,
    file: &std::fs::File,
    offset: u64,
    bufs: &[impl AsRef<[u8]>],
) -> Result<Written, WriteError> {
    if let Some(d) = ctx.faults.write_delay(ctx.rank) {
        if !sched::registered() {
            #[allow(clippy::disallowed_methods)] // the injected slow write is the fault
            std::thread::sleep(d);
        }
    }
    let total = bufs.iter().map(|b| b.as_ref().len()).sum();
    let mut attempt = 0u32;
    let mut backoff = ctx.retry_backoff;
    let clock = RetryClock::new(ctx.write_retries, ctx.retry_backoff);
    loop {
        let fault = ctx.faults.on_write(ctx.rank, total as u64, attempt);
        let res = match fault {
            Some(WriteFault::Kill) => return Err(WriteError::Killed),
            Some(WriteFault::Enospc) => {
                return Err(WriteError::Io(io::Error::from_raw_os_error(28)))
            }
            // EIO: the canonical "device hiccup" errno.
            Some(WriteFault::Error) => Err(WriteError::Io(io::Error::from_raw_os_error(5))),
            Some(WriteFault::Short { cap }) if cap < total as u64 => {
                // One-shot and already accounted in full by the plan, so
                // a failure of the prefix itself is final, not retried.
                write_range(file, offset, bufs, 0, cap as usize)?;
                return Ok(Written {
                    attempts: attempt,
                    short: Some(cap),
                });
            }
            _ => write_range(file, offset, bufs, 0, total),
        };
        match res {
            Ok(()) => {
                return Ok(Written {
                    attempts: attempt,
                    short: None,
                })
            }
            Err(WriteError::Io(e))
                if attempt < ctx.write_retries
                    && (fault == Some(WriteFault::Error) || is_transient(&e)) =>
            {
                attempt += 1;
                clock.backoff(&mut backoff, ctx.rank, offset, attempt)?;
            }
            Err(e) => return Err(e),
        }
    }
}

/// [`write_at_or_short`] for callers without a completion queue: an
/// injected short write is completed in place — the remainder is a
/// continuation of the *same* logical write, counted as a short-write
/// retry, never as a retry attempt, and journaled as its own
/// record after the prefix's. Returns the retried attempts.
pub(crate) fn write_at(
    ctx: &IoCtx<'_>,
    file: &std::fs::File,
    offset: u64,
    bufs: &[impl AsRef<[u8]>],
) -> Result<u32, WriteError> {
    let w = write_at_or_short(ctx, file, offset, bufs)?;
    if let Some(cut) = w.short {
        finish_short_write(file, offset, bufs, cut as usize)?;
    }
    Ok(w.attempts)
}

/// Deliver (and journal) what a short write still owes: the bytes of
/// `bufs` past the first `already`, at `offset + already`. Counted as one
/// short-write retry. No fault consult — the logical write's bytes were
/// accounted on its first submission.
pub(crate) fn finish_short_write(
    file: &std::fs::File,
    offset: u64,
    bufs: &[impl AsRef<[u8]>],
    already: usize,
) -> Result<(), WriteError> {
    counters::add_short_write_retries(1);
    let total = bufs.iter().map(|b| b.as_ref().len()).sum();
    write_range(file, offset, bufs, already, total)
}

/// The bytes `[from, to)` of `bufs` laid back to back, as slices of them.
fn window<B: AsRef<[u8]>>(bufs: &[B], from: usize, to: usize) -> impl Iterator<Item = &[u8]> {
    let mut start = 0;
    bufs.iter().filter_map(move |b| {
        let b = b.as_ref();
        let (lo, hi) = (from.max(start), to.min(start + b.len()));
        let piece = (lo < hi).then(|| &b[lo - start..hi - start]);
        start += b.len();
        piece
    })
}

/// Buffers one `writev` takes (Linux's `UIO_MAXIOV`); the standard
/// library submits no more than this per call.
const IOV_MAX: usize = 1024;

/// The one raw data write: deliver the bytes `[from, to)` of `bufs`, laid
/// back to back, at `offset + from`, then journal them as one record.
/// The syscall repeats until every byte has landed: a `pwrite` when
/// `bufs` is one buffer, a seek and a `writev` of the remaining slices
/// when it is several. (The seek clobbers the file's cursor: the
/// executors use only positional I/O elsewhere, and each rank owns its
/// own open file description, so this is safe.)
///
/// A syscall that lands less than it was handed is a short write, and
/// the syscall that continues it counts one short-write retry (as
/// [`finish_short_write`] counts the continuation of an injected cut).
/// No progress, or a hard error after some bytes of the range
/// landed, is a typed [`WriteError::ShortWrite`] with the exact
/// written/expected counts; a hard error before any is
/// [`WriteError::Io`].
fn write_range(
    file: &std::fs::File,
    offset: u64,
    bufs: &[impl AsRef<[u8]>],
    from: usize,
    to: usize,
) -> Result<(), WriteError> {
    use std::io::{IoSlice, Seek, SeekFrom, Write};
    let mut at = from;
    let mut continues = false;
    while at < to {
        if continues {
            counters::add_short_write_retries(1);
        }
        let pos = offset + at as u64;
        let (res, handed) = match bufs {
            [one] => {
                let rest = &one.as_ref()[at..to];
                #[allow(clippy::disallowed_methods)] // the one raw write, behind the fault plan
                let res = file.write_at(rest, pos);
                (res, rest.len())
            }
            _ => {
                // Sized up front: `window` cannot tell how many it yields.
                let mut slices = Vec::with_capacity(bufs.len().min(IOV_MAX));
                slices.extend(window(bufs, at, to).take(IOV_MAX).map(IoSlice::new));
                let handed = slices.iter().map(|s| s.len()).sum();
                let mut f = file;
                let res = f
                    .seek(SeekFrom::Start(pos))
                    .and_then(|_| f.write_vectored(&slices));
                (res, handed)
            }
        };
        match res {
            Ok(n) if n > 0 => {
                at += n;
                continues = n < handed;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if at == from => return Err(WriteError::Io(e)),
            // No progress, or a hard error after a prefix landed: report
            // how far the write got, not just the errno.
            _ => {
                return Err(WriteError::ShortWrite {
                    written: at as u64,
                    expected: to as u64,
                })
            }
        }
    }
    crash::record_write(file, offset + from as u64, window(bufs, from, to));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::{RecOp, Recorder};
    use std::path::PathBuf;

    /// A fresh scratch directory holding one open read-write file `f`.
    fn tmpfile(name: &str) -> (PathBuf, std::fs::File) {
        let dir = std::env::temp_dir().join(format!("rbio-fault-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let f = std::fs::OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(dir.join("f"))
            .unwrap();
        (dir, f)
    }

    fn ctx(faults: &FaultPlan, rank: Rank, write_retries: u32, backoff: Duration) -> IoCtx<'_> {
        IoCtx {
            rank,
            wid: 0,
            faults,
            write_retries,
            retry_backoff: backoff,
        }
    }

    #[test]
    fn default_plan_is_inert() {
        let p = FaultPlan::none();
        assert!(!p.is_armed());
        assert_eq!(p.on_write(0, 1 << 20, 0), None);
        assert!(!p.on_send(0, 1));
    }

    #[test]
    fn kill_threshold_counts_cumulative_bytes() {
        let p = FaultPlan::none().kill_writer_after_bytes(2, 100);
        assert_eq!(p.on_write(2, 60, 0), None);
        assert_eq!(p.on_write(2, 60, 0), None); // 60 < 100 still
        assert_eq!(p.on_write(2, 1, 0), Some(WriteFault::Kill)); // 120 >= 100
                                                                 // Other ranks unaffected.
        assert_eq!(p.on_write(3, 1 << 30, 0), None);
    }

    #[test]
    fn kill_at_zero_fires_before_first_write() {
        let p = FaultPlan::none().kill_writer_after_bytes(0, 0);
        assert_eq!(p.on_write(0, 1, 0), Some(WriteFault::Kill));
    }

    #[test]
    fn nth_write_fails_then_recovers() {
        let p = FaultPlan::none().fail_nth_write(1, 1, 2);
        assert_eq!(p.on_write(1, 10, 0), None); // write 0 ok
        assert_eq!(p.on_write(1, 10, 0), Some(WriteFault::Error)); // write 1, attempt 0
        assert_eq!(p.on_write(1, 10, 1), Some(WriteFault::Error)); // retry 1
        assert_eq!(p.on_write(1, 10, 2), None); // retry 2 succeeds
        assert_eq!(p.on_write(1, 10, 0), None); // write 2 ok
    }

    #[test]
    fn commit_kill_fires_once_threshold_reached() {
        let p = FaultPlan::none().kill_writer_after_bytes(0, 100);
        assert!(!p.on_commit(0), "threshold not reached yet");
        assert_eq!(p.on_write(0, 100, 0), None);
        assert!(p.on_commit(0), "all data written: die before the rename");
        assert!(!p.on_commit(1));
    }

    #[test]
    fn drops_exactly_the_nth_message() {
        let p = FaultPlan::none().drop_message(5, 0, 1);
        assert!(!p.on_send(5, 0));
        assert!(p.on_send(5, 0));
        assert!(!p.on_send(5, 0));
        assert!(!p.on_send(0, 5)); // direction matters
    }

    #[test]
    fn vectored_write_lands_all_buffers_contiguously() {
        let (dir, f) = tmpfile("vec");
        let plan = FaultPlan::none();
        let bufs = [vec![1u8; 3], vec![2u8; 5], vec![3u8; 2]];
        let attempts = write_at(&ctx(&plan, 0, 3, Duration::from_micros(10)), &f, 4, &bufs);
        assert_eq!(attempts.unwrap(), 0);
        let bytes = std::fs::read(dir.join("f")).unwrap();
        assert_eq!(&bytes[4..], &[1, 1, 1, 2, 2, 2, 2, 2, 3, 3]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn vectored_write_is_one_logical_write_for_faults() {
        let (dir, f) = tmpfile("vec1");
        // Fail write index 0 twice: the whole batch retries as a unit.
        let plan = FaultPlan::none().fail_nth_write(9, 0, 2);
        let bufs = [[5u8; 4], [6u8; 4]];
        let attempts = write_at(&ctx(&plan, 9, 3, Duration::from_micros(10)), &f, 0, &bufs);
        assert_eq!(attempts.unwrap(), 2);
        // The next write on this rank is logical index 1: no fault left.
        assert_eq!(plan.on_write(9, 1, 0), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_short_write_over_a_gather_is_cut_and_completed() {
        let (dir, f) = tmpfile("shortv");
        let rec = Recorder::install(&dir).expect("recorder");
        const WHOLE: [u8; 8] = [5, 5, 5, 5, 6, 6, 6, 6];
        // A gather whose cut lands inside its second buffer, and the same
        // bytes as one buffer: both shapes go through the one write loop.
        for bufs in [vec![&WHOLE[..4], &WHOLE[4..]], vec![&WHOLE[..]]] {
            let shape = format!("{} bufs", bufs.len());
            f.set_len(0).unwrap();
            let plan = FaultPlan::none().short_write(8, 0, 6);
            let before = counters::failover_snapshot();
            let attempts = write_at(&ctx(&plan, 8, 0, Duration::ZERO), &f, 0, &bufs);
            assert_eq!(
                attempts.unwrap(),
                0,
                "{shape}: a short write is not a retry"
            );
            let d = counters::failover_snapshot().delta_since(&before);
            assert!(
                d.short_write_retries >= 1,
                "{shape}: the continuation is counted"
            );
            // The cut prefix first, then the rest of the same logical
            // write, each journaled once.
            let journal: Vec<(u64, Vec<u8>)> = rec
                .take()
                .into_iter()
                .map(|op| match op {
                    RecOp::Write { offset, data, .. } => (offset, data),
                    other => panic!("{shape}: unexpected journal op {other:?}"),
                })
                .collect();
            assert_eq!(
                journal,
                [(0, WHOLE[..6].to_vec()), (6, WHOLE[6..].to_vec())],
                "{shape}"
            );
            let bytes = std::fs::read(dir.join("f")).unwrap();
            assert_eq!(bytes, WHOLE, "{shape}: the file must come out whole");
        }
        drop(rec);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clones_share_state() {
        let p = FaultPlan::none().kill_writer_after_bytes(0, 10);
        let q = p.clone();
        assert_eq!(q.on_write(0, 10, 0), None);
        // p sees q's accounting.
        assert_eq!(p.on_write(0, 1, 0), Some(WriteFault::Kill));
    }

    #[test]
    fn hang_is_one_shot_and_delay_persists() {
        let p = FaultPlan::none()
            .hang_writer(3, Duration::from_millis(7))
            .delay_writes(5, Duration::from_micros(2));
        assert!(p.is_armed());
        assert_eq!(p.take_hang(3), Some(Duration::from_millis(7)));
        assert_eq!(p.take_hang(3), None, "hang fires once");
        assert_eq!(p.take_hang(5), None);
        assert_eq!(p.write_delay(5), Some(Duration::from_micros(2)));
        assert_eq!(p.write_delay(5), Some(Duration::from_micros(2)));
        assert_eq!(p.write_delay(3), None);
    }

    #[test]
    fn eio_forever_gives_up_within_the_retry_deadline() {
        let (dir, f) = tmpfile("ddl");
        // Every attempt fails, and the attempt budget alone would allow
        // far more retries than the wall-clock deadline: the deadline
        // must end it with a typed error.
        let plan = FaultPlan::none().fail_nth_write(7, 0, u32::MAX);
        let start = Instant::now();
        let c = ctx(&plan, 7, u32::MAX, Duration::from_micros(1));
        let err = write_at(&c, &f, 0, &[[1u8; 8]]).expect_err("EIO-forever must not succeed");
        let elapsed = start.elapsed();
        match err {
            WriteError::DeadlineExceeded { waited } => {
                assert!(waited >= Duration::from_millis(50), "{waited:?}");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(
            elapsed < Duration::from_secs(5),
            "gave up far too late: {elapsed:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn enospc_fires_at_budget_and_is_persistent() {
        let p = FaultPlan::none().enospc_after_bytes(4, 100);
        assert_eq!(p.on_write(4, 100, 0), None); // fills the device exactly
        assert_eq!(p.on_write(4, 1, 0), Some(WriteFault::Enospc));
        assert_eq!(p.on_write(4, 1, 1), Some(WriteFault::Enospc), "retry too");
        assert_eq!(p.on_write(4, 1, 0), Some(WriteFault::Enospc), "stays full");
        assert_eq!(p.on_write(5, 1 << 20, 0), None, "other ranks unaffected");
    }

    #[test]
    fn enospc_rejects_the_single_write_that_crosses_the_budget() {
        // One large write bigger than the remaining space must fail —
        // the device does not accept a prefix of it.
        let p = FaultPlan::none().enospc_after_bytes(4, 256);
        assert_eq!(p.on_write(4, 1280, 0), Some(WriteFault::Enospc));
        // …and the latch holds even for writes that would have fit.
        assert_eq!(p.on_write(4, 1, 0), Some(WriteFault::Enospc));
    }

    #[test]
    fn enospc_surfaces_errno_28_without_retries() {
        let (dir, f) = tmpfile("nospc");
        let plan = FaultPlan::none().enospc_after_bytes(6, 0);
        let start = Instant::now();
        let err = write_at(
            &ctx(&plan, 6, 8, Duration::from_millis(10)),
            &f,
            0,
            &[[1u8; 8]],
        )
        .expect_err("full device must fail");
        assert!(
            start.elapsed() < Duration::from_millis(10),
            "ENOSPC must not consume the retry schedule"
        );
        match err {
            WriteError::Io(e) => assert_eq!(e.raw_os_error(), Some(28)),
            other => panic!("expected Io(ENOSPC), got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_failure_is_sticky() {
        let p = FaultPlan::none().fsync_eio(2);
        let e = p.on_fsync(2).expect("injected fsync failure");
        assert_eq!(e.raw_os_error(), Some(5));
        // fsyncgate: a retried fsync must not report clean.
        assert!(p.on_fsync(2).is_some(), "second fsync must also fail");
        assert!(p.on_fsync(2).is_some(), "and every one after");
        assert!(p.on_fsync(3).is_none(), "other ranks unaffected");
    }

    #[test]
    fn real_fsync_failure_latches_the_rank() {
        let p = FaultPlan::none();
        assert!(p.on_fsync(1).is_none());
        p.latch_fsync_failure(1);
        assert!(p.on_fsync(1).is_some(), "latched rank can never sync clean");
        assert!(p.on_fsync(0).is_none());
    }

    #[test]
    fn bounded_attempts_still_recover_under_the_deadline() {
        let (dir, f) = tmpfile("rec");
        let plan = FaultPlan::none().fail_nth_write(2, 0, 2);
        let attempts = write_at(
            &ctx(&plan, 2, 3, Duration::from_micros(10)),
            &f,
            0,
            &[[9u8; 4]],
        )
        .expect("recovers inside both budgets");
        assert_eq!(attempts, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// What one cell of the fault matrix must produce.
    enum Expect {
        /// Every byte lands after `attempts` retried attempts.
        Lands { attempts: u32 },
        /// Nothing lands; the error is [`WriteError::Killed`].
        Killed,
        /// Nothing lands; the error is `Io` with this errno.
        Errno(i32),
    }

    /// Every [`WriteFault`] kind × {1, 3 buffers} × {complete in place,
    /// return short}: file bytes, attempt count, error variant and
    /// journal are what [`write_at_or_short`]'s doc states.
    #[test]
    fn fault_matrix_matches_the_documented_contract() {
        const RANK: Rank = 3;
        const RETRIES: u32 = 2;
        const PAYLOAD: [u8; 9] = [1, 2, 3, 4, 5, 6, 7, 8, 9];
        const AT: u64 = 5;
        type Case = (&'static str, fn() -> FaultPlan, Expect);
        let cases: [Case; 6] = [
            ("none", FaultPlan::none, Expect::Lands { attempts: 0 }),
            (
                "kill",
                || FaultPlan::none().kill_writer_after_bytes(RANK, 0),
                Expect::Killed,
            ),
            (
                "error within budget",
                || FaultPlan::none().fail_nth_write(RANK, 0, RETRIES),
                Expect::Lands { attempts: RETRIES },
            ),
            (
                "error beyond budget",
                || FaultPlan::none().fail_nth_write(RANK, 0, RETRIES + 1),
                Expect::Errno(5),
            ),
            (
                "short",
                || FaultPlan::none().short_write(RANK, 0, 4),
                Expect::Lands { attempts: 0 },
            ),
            (
                "enospc",
                || FaultPlan::none().enospc_after_bytes(RANK, 8),
                Expect::Errno(28),
            ),
        ];
        let (dir, f) = tmpfile("matrix");
        let rec = Recorder::install(&dir).expect("recorder");
        for (name, plan, expect) in &cases {
            for bufs in [
                vec![&PAYLOAD[..]],
                vec![&PAYLOAD[..2], &PAYLOAD[2..3], &PAYLOAD[3..]],
            ] {
                for in_place in [true, false] {
                    let cell = format!("{name} x {} bufs x in_place={in_place}", bufs.len());
                    f.set_len(0).unwrap();
                    rec.take();
                    let plan = plan();
                    let c = ctx(&plan, RANK, RETRIES, Duration::from_micros(10));
                    // A short write is cut at its cap, across buffers too.
                    let cut = (*name == "short").then_some(4u64);
                    let res = if in_place {
                        write_at(&c, &f, AT, &bufs)
                    } else {
                        write_at_or_short(&c, &f, AT, &bufs).map(|w| {
                            assert_eq!(w.short, cut, "{cell}");
                            w.attempts
                        })
                    };
                    let on_disk = std::fs::read(dir.join("f")).unwrap();
                    let journal: Vec<(u64, Vec<u8>)> = rec
                        .take()
                        .into_iter()
                        .map(|op| match op {
                            RecOp::Write { offset, data, .. } => (offset, data),
                            other => panic!("{cell}: unexpected journal op {other:?}"),
                        })
                        .collect();
                    let piece =
                        |r: std::ops::Range<usize>| (AT + r.start as u64, PAYLOAD[r].to_vec());
                    let lands = matches!(expect, Expect::Lands { .. });
                    let (landed, want_journal) = match (lands, cut.map(|n| n as usize), in_place) {
                        (false, ..) => (0, vec![]),
                        (true, None, _) => (9, vec![piece(0..9)]),
                        // Completed in place: the prefix, then the tail.
                        (true, Some(n), true) => (9, vec![piece(0..n), piece(n..9)]),
                        // Returned short: only the prefix, journaled.
                        (true, Some(n), false) => (n, vec![piece(0..n)]),
                    };
                    match (expect, res) {
                        (Expect::Lands { attempts }, res) => {
                            assert_eq!(res.expect(&cell), *attempts, "{cell}")
                        }
                        (Expect::Killed, Err(WriteError::Killed)) => {}
                        (Expect::Errno(n), Err(WriteError::Io(e)))
                            if e.raw_os_error() == Some(*n) => {}
                        (_, other) => panic!("{cell}: unexpected outcome {other:?}"),
                    }
                    if landed == 0 {
                        assert!(on_disk.is_empty(), "{cell}: a failed write left bytes");
                    } else {
                        assert_eq!(&on_disk[AT as usize..], &PAYLOAD[..landed], "{cell}");
                    }
                    assert_eq!(journal, want_journal, "{cell}");
                }
            }
        }
        drop(rec);
        std::fs::remove_dir_all(&dir).ok();
    }
}
