//! Scheduling instrumentation points for deterministic concurrency testing.
//!
//! The runtime (pipeline flush pool, [`crate::exec`], [`crate::rt`]) is
//! instrumented with *yield points* (places where a thread may pause and
//! another may run) and *events* (facts about shared-state transitions).
//! In production nothing is installed and every hook is a single relaxed
//! atomic load. Under `rbio-check`, a controller implementing [`Sched`]
//! is installed process-wide: it serializes all registered threads onto a
//! single run token, picks the next thread at every yield point from a
//! seeded (or pinned) schedule, and feeds the event stream to invariant
//! checkers. See DESIGN.md §11.
//!
//! Contract for instrumented code:
//!
//! * Never call [`yield_now`] while holding a lock another registered
//!   thread may need — drop the lock, yield, re-acquire, re-check.
//! * [`emit`] may be called under a runtime lock (the controller lock is
//!   a leaf).
//! * Blocking waits must become drop-lock/yield/re-check loops when the
//!   calling thread [`is registered`](Sched::is_registered); unbounded
//!   waits use a waiting [`Point`] (see [`Point::is_wait`]), timed waits
//!   use a deterministic futile-poll budget instead of wall-clock time.
//! * A thread must be announced with [`spawning`] before it is spawned
//!   and must call [`register`] first thing and [`unregister`] last, so
//!   schedule decisions never depend on OS thread-startup timing.

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, RwLock};

/// Where a thread is pausing. Waiting points ([`Point::is_wait`]) mean
/// the thread cannot make progress until another thread acts; a
/// bounded-preemption scheduler must switch threads there or it
/// livelocks. Progress points are optional preemption opportunities.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Point {
    /// Writer pipeline full; waiting for a flush job to complete.
    SubmitFull,
    /// Waiting for a writer's pipeline to empty in `drain`.
    DrainWait,
    /// Waiting for a writer's pipeline to empty before freeing the slot.
    QuiesceWait,
    /// Flush worker waiting for a runnable writer.
    WorkerIdle,
    /// Waiting at a rank barrier.
    BarrierWait,
    /// Polling an empty message queue (futile-poll budgeted).
    RecvEmpty,
    /// Polling a full bounded message queue (send backpressure).
    SendFull,
    /// A session waiting in the service admission queue.
    AdmitWait,
    /// A session waiting for its fair-share bandwidth grant.
    GrantWait,
    /// Driver waiting for rank threads to finish.
    JoinWait,
    /// Tier drain engine waiting for a staged generation to drain.
    TierDrainIdle,
    /// Caller waiting for a generation to become durable on the PFS tier.
    TierDurableWait,
    /// A flush job was submitted.
    Submitted,
    /// A flush worker is about to execute a job.
    JobRun,
    /// Generic preemption opportunity (e.g. between plan ops).
    Progress,
}

impl Point {
    /// True for points where the yielding thread is blocked on another
    /// thread's progress (a scheduler must eventually run someone else).
    pub fn is_wait(self) -> bool {
        matches!(
            self,
            Point::SubmitFull
                | Point::DrainWait
                | Point::QuiesceWait
                | Point::WorkerIdle
                | Point::BarrierWait
                | Point::RecvEmpty
                | Point::SendFull
                | Point::AdmitWait
                | Point::GrantWait
                | Point::JoinWait
                | Point::TierDrainIdle
                | Point::TierDurableWait
        )
    }
}

/// A level of the checkpoint storage hierarchy, as carried by tier
/// events (see [`crate::tier`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TierId {
    /// Node-local slab tier (memory-speed staging).
    Local,
    /// Intermediate burst-buffer tier.
    Burst,
    /// The parallel filesystem — the durable tier of record.
    Pfs,
}

/// The kind of a [`crate::pipeline::FlushJob`], as seen by checkers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// Single buffered write.
    Write,
    /// Vectored write of several contiguous chunks.
    WriteV,
    /// File close (optionally fsynced).
    Close,
    /// Footer + rename publish.
    Commit,
}

/// Shared-state transitions reported to the installed scheduler. The
/// controller replays these through a shadow model of the pipeline to
/// check invariants at every scheduling point.
#[derive(Clone, Debug)]
pub enum Event {
    /// A program execution began. Execution-scoped invariants
    /// (exactly-once sends, exactly-once takeover, fencing, unique
    /// extent commits) reset at this boundary: a multi-generation run
    /// re-executes fresh plans whose op indices restart from zero.
    ExecStarted {
        /// Ranks in the program.
        nranks: u32,
    },
    /// A writer slot was registered to a handle.
    WriterRegistered {
        /// Pool slot index.
        wid: usize,
        /// Owning rank.
        rank: u32,
    },
    /// A writer slot was quiesced and freed.
    WriterFreed {
        /// Pool slot index.
        wid: usize,
    },
    /// A job entered a writer's queue. `hash` fingerprints the payload
    /// bytes at submit time (0 for non-write jobs).
    Submit {
        /// Pool slot index.
        wid: usize,
        /// Job kind.
        kind: JobKind,
        /// FNV-1a of the payload at submit time.
        hash: u64,
    },
    /// A pool thread claimed a writer from the runnable queue.
    /// `was_active` must always be false: true means two threads are
    /// draining one writer (the PR 2 double-enqueue race).
    WorkerClaim {
        /// Pool slot index.
        wid: usize,
        /// Writer was already being drained by another thread.
        was_active: bool,
    },
    /// A pool thread is about to run (or skip) a popped job. `hash`
    /// re-fingerprints the payload: a mismatch with the submit-time
    /// hash means the buffer was recycled and overwritten in flight.
    JobStart {
        /// Pool slot index.
        wid: usize,
        /// Per-writer execution sequence number (FIFO check).
        seq: u64,
        /// Job kind.
        kind: JobKind,
        /// FNV-1a of the payload at execution time.
        hash: u64,
        /// Job is skipped (latched error or freed slot).
        skipped: bool,
    },
    /// A job finished executing.
    JobEnd {
        /// Pool slot index.
        wid: usize,
        /// Job succeeded.
        ok: bool,
    },
    /// A write op was queued as an SQE in a completion-queue backend.
    /// `hash` fingerprints the payload buffers at queue time.
    SubmitQueued {
        /// Pool slot index.
        wid: usize,
        /// Ring user-data token, unique within the batch.
        udata: u64,
        /// FNV-1a of the payload at queue time.
        hash: u64,
    },
    /// A run of queued SQEs was submitted to the device as one batch.
    SubmitBatched {
        /// Pool slot index.
        wid: usize,
        /// SQEs in the batch.
        count: usize,
    },
    /// A completion was reaped. `hash` re-fingerprints the buffers the
    /// ring still holds for this SQE: a mismatch with the queue-time
    /// hash means the buffer was released (and possibly recycled)
    /// before its completion was reaped.
    CompletionReaped {
        /// Pool slot index.
        wid: usize,
        /// Ring user-data token of the reaped SQE.
        udata: u64,
        /// FNV-1a of the held payload at reap time.
        hash: u64,
        /// Completion carried no error.
        ok: bool,
    },
    /// A reaped completion was short (partial write); the remainder is
    /// being resubmitted as a continuation SQE.
    ShortWriteResubmit {
        /// Pool slot index.
        wid: usize,
        /// Ring user-data token of the short completion.
        udata: u64,
        /// Bytes delivered before the cut.
        written: u64,
        /// Bytes the op was supposed to deliver.
        expected: u64,
    },
    /// A writer latched its first error; later jobs must be skipped.
    ErrorLatched {
        /// Pool slot index.
        wid: usize,
    },
    /// A latched error was taken by `submit`/`drain` (pipeline reusable).
    ErrorCleared {
        /// Pool slot index.
        wid: usize,
    },
    /// A Commit job is actually executing (not skipped). Must never
    /// happen after `ErrorLatched` without an intervening
    /// `ErrorCleared`.
    CommitExecuted {
        /// Pool slot index.
        wid: usize,
    },
    /// A rank is entering a plan barrier; its pipeline must be quiescent.
    BarrierEnter {
        /// The rank.
        rank: u32,
    },
    /// A rank executed a `Send` plan op (delivered or fault-dropped).
    /// The same `(rank, op_index)` attempted twice is the PR 3
    /// fault-drop re-execution bug.
    SendAttempt {
        /// Sending rank.
        rank: u32,
        /// Destination rank.
        dst: u32,
        /// Index of the op in the rank's program.
        op_index: usize,
        /// The fault plan swallowed this send.
        dropped: bool,
    },
    /// `BufPool` was asked to recycle a buffer whose pointer is already
    /// in the free list (use-after-recycle / double-free of a slab).
    BufDoubleRecycle {
        /// Buffer base address.
        addr: usize,
    },
    /// A writer's progress stalled past the straggler deadline.
    WriterStraggling {
        /// The straggling writer.
        rank: u32,
    },
    /// A writer was declared dead and fenced; its extent is orphaned.
    WriterDead {
        /// The dead writer.
        rank: u32,
    },
    /// A successor claimed an orphaned extent for takeover. At most one
    /// claim per orphan (exactly-once takeover invariant).
    TakeoverClaim {
        /// The dead writer whose extent is taken over.
        orphan: u32,
        /// The surviving writer doing the takeover.
        successor: u32,
    },
    /// A fenced writer's commit attempt was refused.
    FenceRefused {
        /// The fenced writer.
        rank: u32,
    },
    /// An atomic file was committed (footer + rename). `path_hash`
    /// fingerprints the final path; two commits of one path is the
    /// double-commit hazard the fence exists to prevent, and a commit
    /// `by` a fenced rank is a fence violation.
    ExtentCommit {
        /// Rank that owned the extent in the plan.
        owner: u32,
        /// Rank that performed the commit (the owner, or its successor).
        by: u32,
        /// FNV-1a of the final path.
        path_hash: u64,
    },
    /// A checkpoint extent landed in the node-local slab tier.
    TierExtentStaged {
        /// Generation step the extent belongs to.
        step: u64,
        /// FNV-1a of the extent's final file name.
        path_hash: u64,
    },
    /// The drain engine finished flushing one staged file to `tier`.
    TierExtentDrained {
        /// Generation step the extent belongs to.
        step: u64,
        /// Tier the extent now lives on.
        tier: TierId,
        /// FNV-1a of the extent's final file name.
        path_hash: u64,
    },
    /// A generation's manifest + commit marker were published: it is
    /// durable on the PFS tier. Emitting this while any staged extent of
    /// the step has not been drained to [`TierId::Pfs`] is the
    /// durable-before-drained violation.
    TierDurable {
        /// The now-durable generation step.
        step: u64,
    },
    /// A storage tier was lost (simulated node-local media failure).
    TierLost {
        /// The lost tier.
        tier: TierId,
    },
    /// A restore was served from `tier` instead of the PFS.
    TierRestore {
        /// The restored generation step.
        step: u64,
        /// Tier that served the restore.
        tier: TierId,
    },
    /// A generation was published with fsync on: the API promised the
    /// caller this step is durable and will survive a crash.
    GenDurable {
        /// The promised-durable generation step.
        step: u64,
    },
    /// `restore_latest` returned a generation to the caller. Returning
    /// a step older than the newest [`Event::GenDurable`] promise is
    /// the fsynced-implies-recoverable violation.
    RestoreDone {
        /// The restored generation step.
        step: u64,
    },
}

/// A pluggable scheduler. The production scheduler is "no scheduler"
/// (every method a no-op); `rbio-check` installs a cooperative
/// single-token controller.
pub trait Sched: Send + Sync {
    /// True while a controlled run is active (drives `FlushPool::current`
    /// redirection and jitter/gate suppression).
    fn controlled(&self) -> bool {
        false
    }
    /// True if the calling thread is registered with the scheduler.
    fn is_registered(&self) -> bool {
        false
    }
    /// Announce that a controlled thread is about to be spawned.
    fn spawning(&self) {}
    /// Register the calling thread under `name`; may block until the
    /// scheduler grants it the run token.
    fn register(&self, name: &str) {
        let _ = name;
    }
    /// Remove the calling thread from scheduling (it is about to exit).
    fn unregister(&self) {}
    /// Pause at `point`; the scheduler picks who runs next.
    fn yield_point(&self, point: Point) {
        let _ = point;
    }
    /// Report a shared-state transition to the invariant checkers.
    fn emit(&self, event: Event) {
        let _ = event;
    }
}

/// The production scheduler: every hook is a no-op.
pub struct OsSched;

impl Sched for OsSched {}

/// A historical bug a test can switch back on, to prove the harness that
/// guards the fix still catches it (`rbio-check --revert-prN`,
/// `rbio-crash --revert-pr1`, `crates/check/tests/regressions.rs`). The
/// library reads a switch with [`reverted`] at the one site of each fix;
/// nothing outside tests may arm one.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Revert {
    /// PR 1: `commit_file` skips the directory fsync after the rename, so
    /// a crash can lose the *publication* of a fully written file. The
    /// crash-image sweep in [`crate::crash`] must catch it as a
    /// restored-step regression.
    Pr1CommitFsync,
    /// PR 2: `submit` re-enqueues a writer already in the runnable queue,
    /// so two pool threads can drain one writer concurrently.
    Pr2DoubleEnqueue,
    /// PR 3: the interpreter does not advance past a `Send` whose message
    /// an injected fault dropped; the op re-executes and, the drop budget
    /// being spent, delivers the "lost" message after all.
    Pr3FaultDrop,
    /// PR 5: `FailoverDirector::allow_commit` stops refusing fenced
    /// writers, reopening the double-commit hazard the p5 sweep flags.
    Pr5Fence,
    /// PR 7: the ring backend releases buffer ownership after execution
    /// instead of at completion reap. A reaped short write then has
    /// nothing left to resubmit, the file keeps a hole, and the `p8a`
    /// family flags the divergence.
    Pr7EarlyRecycle,
}

impl Revert {
    fn bit(self) -> u8 {
        1 << self as u8
    }
}

/// One bit per armed [`Revert`].
static REVERTED: AtomicU8 = AtomicU8::new(0);

/// True while `bug` is armed. One relaxed load.
#[doc(hidden)]
#[inline]
pub fn reverted(bug: Revert) -> bool {
    REVERTED.load(Ordering::Relaxed) & bug.bit() != 0
}

/// Arms one [`Revert`] for as long as it lives; disarms on drop even if
/// the test panics, so one failure cannot leak into the next run. The
/// switches are process-wide: callers serialize the runs that arm them.
#[doc(hidden)]
pub struct RevertGuard(Revert);

impl RevertGuard {
    /// Switch `bug` back on.
    pub fn arm(bug: Revert) -> Self {
        REVERTED.fetch_or(bug.bit(), Ordering::SeqCst);
        RevertGuard(bug)
    }

    /// Switch it off early (to rerun the same schedule on the fixed code).
    pub fn disarm(&self) {
        REVERTED.fetch_and(!self.0.bit(), Ordering::SeqCst);
    }
}

impl Drop for RevertGuard {
    fn drop(&mut self) {
        self.disarm();
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SCHED: RwLock<Option<Arc<dyn Sched>>> = RwLock::new(None);

/// Install a scheduler process-wide (normally once, by the test
/// harness). Replaces any previous scheduler.
pub fn install(sched: Arc<dyn Sched>) {
    *SCHED.write().expect("sched lock") = Some(sched);
    ENABLED.store(true, Ordering::Release);
}

/// Remove the installed scheduler (hooks become no-ops again).
pub fn uninstall() {
    ENABLED.store(false, Ordering::Release);
    *SCHED.write().expect("sched lock") = None;
}

/// The installed scheduler, if any. Fast path: one relaxed load.
pub fn handle() -> Option<Arc<dyn Sched>> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    SCHED.read().expect("sched lock").clone()
}

/// True while a controlled run is active.
pub fn controlled() -> bool {
    handle().is_some_and(|s| s.controlled())
}

/// True if the calling thread is registered with an installed scheduler.
pub fn registered() -> bool {
    handle().is_some_and(|s| s.is_registered())
}

/// Announce an about-to-spawn controlled thread (no-op in production).
pub fn spawning() {
    if let Some(s) = handle() {
        s.spawning();
    }
}

/// Register the calling thread (no-op in production).
pub fn register(name: &str) {
    if let Some(s) = handle() {
        s.register(name);
    }
}

/// Unregister the calling thread (no-op in production).
pub fn unregister() {
    if let Some(s) = handle() {
        s.unregister();
    }
}

/// Yield at `point` (no-op in production).
pub fn yield_now(point: Point) {
    if let Some(s) = handle() {
        s.yield_point(point);
    }
}

/// Emit an event to the invariant checkers. The closure is only invoked
/// while a controlled run is active, so fingerprint hashing costs
/// nothing in production.
pub fn emit(make: impl FnOnce() -> Event) {
    if let Some(s) = handle() {
        if s.controlled() {
            s.emit(make());
        }
    }
}

/// FNV-1a over a list of byte slices — the payload fingerprint used by
/// the use-after-recycle check. Not cryptographic; collision odds are
/// irrelevant at test scale.
pub fn fingerprint<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for part in parts {
        for &b in part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Fingerprint of a file path, as carried by [`Event::ExtentCommit`].
/// Only the final component is hashed: plan file names are unique
/// within a generation, while the parent directory is a per-run
/// scratch dir that would make event streams unreproducible across
/// replays.
pub fn path_fingerprint(p: &std::path::Path) -> u64 {
    let name = p.file_name().map(|n| n.to_string_lossy());
    fingerprint([name
        .as_deref()
        .unwrap_or_else(|| p.to_str().unwrap_or(""))
        .as_bytes()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_hooks_are_noops() {
        assert!(handle().is_none());
        assert!(!controlled());
        assert!(!registered());
        yield_now(Point::Progress);
        emit(|| unreachable!("emit closure must not run with no scheduler"));
    }

    #[test]
    fn wait_points_classified() {
        for p in [
            Point::SubmitFull,
            Point::DrainWait,
            Point::QuiesceWait,
            Point::WorkerIdle,
            Point::BarrierWait,
            Point::RecvEmpty,
            Point::SendFull,
            Point::AdmitWait,
            Point::GrantWait,
            Point::JoinWait,
            Point::TierDrainIdle,
            Point::TierDurableWait,
        ] {
            assert!(p.is_wait());
        }
        for p in [Point::Submitted, Point::JobRun, Point::Progress] {
            assert!(!p.is_wait());
        }
    }

    #[test]
    fn fingerprint_is_order_sensitive_and_concat_consistent() {
        let ab = fingerprint([b"ab".as_slice()]);
        assert_eq!(fingerprint([b"a".as_slice(), b"b".as_slice()]), ab);
        assert_ne!(fingerprint([b"ba".as_slice()]), ab);
        assert_ne!(fingerprint([b"".as_slice()]), ab);
    }
}
