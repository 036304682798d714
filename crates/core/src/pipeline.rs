//! Background flush pipeline behind the real plan interpreter.
//!
//! The paper's rbIO writers win by overlap: aggregation of the next
//! package proceeds while the previous one is on its way to disk. This
//! module provides that overlap for the interpreter [`crate::exec`] and
//! [`crate::rt`] both run: a small process-wide pool of flush threads serves per-writer FIFO queues
//! of deferred file work ([`FlushJob`]), with bounded depth (double
//! buffering at depth 2) and first-error latching.
//!
//! Correctness relies on three properties, each enforced here or by the
//! callers:
//!
//! 1. **Owned at issue** — a `Write`/`WriteV` job owns its bytes as
//!    immutable [`Bytes`] slices of storage that is never mutated again
//!    (payloads, received messages, read-back buffers), so later `Pack`
//!    and `Recv` ops land new references and never touch a queued job.
//! 2. **Per-writer FIFO** — one pool thread at a time drains a writer's
//!    queue in order, so the [`FaultPlan`] byte accounting and the
//!    write→close→commit ordering are exactly the serial executor's.
//!    In particular the commit job can never run before (or after a
//!    failure of) the data writes it seals.
//! 3. **Drain points** — callers drain before plan barriers, before
//!    `ReadAt`, and at end of program, so cross-rank happens-before edges
//!    (e.g. "all collective writes land before the owner commits") carry
//!    over from the serial semantics.
//!
//! A latched error poisons the writer: all later jobs are skipped (never
//! executed), and the error surfaces at the next `submit` or `drain`.
//! Every wait on the pool — a full pipeline, a drain, a quiescing handle,
//! an idle worker — is one `Wait` parked on the pool's condvars.
//! The pool owns order and error latching, not durability: `Close` and
//! `Commit` jobs call [`crate::commit`]'s fsync and commit.
//!
//! A writer registered as durable ([`WriterTuning::durable`]: its files
//! will be fsynced) also keeps the *device* busy: behind each landed
//! write of 256 KiB or more it asks the kernel to start writeback
//! (`hint_writeback`), so the one fsync at commit waits for a remainder
//! rather than for the whole file.

use std::collections::VecDeque;
use std::fs::File;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, RwLock};

use rbio_plan::Rank;
use rbio_profile::counters;

use crate::backend::{self, IoBackend, IoCtx, WriteOp};
use crate::buf::Bytes;
use crate::commit;
use crate::fault::{self, FaultPlan};
use crate::sched::{self, unpoisoned, Point, Revert, Wait};
use crate::sys;

/// Why a writer's background pipeline failed.
#[derive(Debug)]
pub enum PipelineError {
    /// Fault injection killed the rank in a background job.
    Killed {
        /// The killed rank.
        rank: Rank,
    },
    /// A real or injected I/O error that exhausted the retry budget.
    Io(io::Error),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Killed { rank } => write!(f, "rank {rank} killed in background job"),
            PipelineError::Io(e) => write!(f, "pipeline I/O error: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// One unit of deferred writer work, executed in submission order.
pub enum FlushJob {
    /// Flush one buffered chunk to the file.
    Write {
        /// Open target file (the `.tmp` sibling for atomic files).
        file: Arc<File>,
        /// Absolute file offset.
        offset: u64,
        /// The chunk: an immutable slice of bytes the writer already
        /// holds (payload, received message, read-back buffer).
        data: Bytes,
    },
    /// Flush several chunks destined for contiguous offsets as one
    /// vectored write (one gather, one logical write for fault
    /// accounting): a coalesced run, or the pieces of one staging range.
    WriteV {
        /// Open target file (the `.tmp` sibling for atomic files).
        file: Arc<File>,
        /// Absolute file offset of the first chunk.
        offset: u64,
        /// The chunks, back to back.
        bufs: Vec<Bytes>,
    },
    /// Close the file (the job drops the final handle; optional fsync).
    Close {
        /// The handle being retired.
        file: Arc<File>,
        /// fsync before closing.
        fsync: bool,
    },
    /// Seal and publish an atomic file (footer + rename) — always the
    /// last job a writer submits for that file.
    Commit {
        /// The `.tmp` sibling holding the data.
        tmp: PathBuf,
        /// The final published name.
        final_path: PathBuf,
        /// Logical (pre-footer) size the tmp file must have.
        size: u64,
        /// fsync footer and directory.
        fsync: bool,
    },
}

impl FlushJob {
    fn kind(&self) -> sched::JobKind {
        match self {
            FlushJob::Write { .. } => sched::JobKind::Write,
            FlushJob::WriteV { .. } => sched::JobKind::WriteV,
            FlushJob::Close { .. } => sched::JobKind::Close,
            FlushJob::Commit { .. } => sched::JobKind::Commit,
        }
    }

    /// Payload fingerprint for the use-after-recycle check: hashed at
    /// submit time and again just before execution; a mismatch means
    /// the buffer was recycled and overwritten while the job was
    /// queued. Non-write jobs hash to 0. Only called under a
    /// controlled scheduler.
    fn fingerprint(&self) -> u64 {
        match self {
            FlushJob::Write { data, .. } => sched::fingerprint([data.as_ref()]),
            FlushJob::WriteV { bufs, .. } => sched::fingerprint(bufs.iter().map(|b| b.as_ref())),
            FlushJob::Close { .. } | FlushJob::Commit { .. } => 0,
        }
    }

    fn is_write(&self) -> bool {
        matches!(self, FlushJob::Write { .. } | FlushJob::WriteV { .. })
    }

    /// The backend op of a `Write`/`WriteV` job.
    fn into_write_op(self) -> WriteOp {
        match self {
            FlushJob::Write { file, offset, data } => WriteOp {
                file,
                offset,
                bufs: vec![data],
            },
            FlushJob::WriteV { file, offset, bufs } => WriteOp { file, offset, bufs },
            FlushJob::Close { .. } | FlushJob::Commit { .. } => {
                unreachable!("only write jobs become backend ops")
            }
        }
    }
}

/// Per-writer knobs, grouped so `register` does not grow a parameter per
/// feature. [`Default`] is "off": no heartbeat, the threaded backend, no
/// writeback hints. The retry budget is not a knob: every writer's
/// writes retry on `fault::WRITE_RETRIES` from `fault::RETRY_BACKOFF`.
#[derive(Default, Clone)]
pub struct WriterTuning {
    /// Liveness heartbeat bumped as this writer's jobs execute, so the
    /// failover monitor does not declare a rank dead while its queue is
    /// merely deep.
    pub beat: Option<Arc<AtomicU64>>,
    /// I/O backend executing this writer's write jobs. `None` uses the
    /// threaded baseline (`backend::threaded`). Tests and check
    /// programs inject custom ring geometries here.
    pub backend: Option<Arc<dyn IoBackend>>,
    /// This writer's files will be fsynced before they are published:
    /// writeback of each landed write is started behind it
    /// (`hint_writeback`), so that fsync waits for a remainder instead
    /// of the whole file. Set from the caller's fsync switch and from
    /// nothing else; off, no hint is ever issued.
    pub durable: bool,
}

/// Immutable per-writer execution context, set at registration.
#[derive(Clone)]
struct WriterCtx {
    rank: Rank,
    /// Pool slot index (set once the slot is known in `register`).
    wid: usize,
    faults: FaultPlan,
    tuning: WriterTuning,
}

impl WriterCtx {
    fn io_ctx(&self) -> IoCtx<'_> {
        IoCtx::new(self.rank, self.wid, &self.faults)
    }

    /// The engine for this writer's write jobs: the registered one, else
    /// the threaded baseline.
    fn backend(&self) -> &dyn IoBackend {
        self.tuning
            .backend
            .as_deref()
            .unwrap_or(&backend::ThreadedBackend)
    }
}

struct WriterState {
    ctx: WriterCtx,
    queue: VecDeque<FlushJob>,
    /// Queued jobs plus the one (if any) a pool thread is executing.
    in_flight: usize,
    /// A pool thread is currently draining this writer's queue.
    active: bool,
    /// The writer sits in the runnable queue awaiting a pool thread.
    /// Together with `active` this guarantees at most one thread ever
    /// drains a writer: without it, two submits racing ahead of a busy
    /// pool would enqueue the writer twice and two threads would then
    /// pop jobs from the same queue concurrently, breaking FIFO (e.g. a
    /// commit running beside the write it is supposed to seal).
    enqueued: bool,
    /// First failure; once set, every later job is skipped.
    error: Option<PipelineError>,
    /// Retried write attempts accumulated by background jobs.
    retries: u64,
    /// Jobs claimed so far (the sequence number of job trace events).
    seq: u64,
    /// Slot is registered to a live handle.
    occupied: bool,
}

#[derive(Default)]
struct Inner {
    writers: Vec<WriterState>,
    free: Vec<usize>,
    runnable: VecDeque<usize>,
}

struct Shared {
    /// Taken through [`unpoisoned`]: every edit under it is straight-line
    /// bookkeeping that cannot panic midway, and jobs run with it
    /// released, so a panic on a thread holding it leaves no half-made
    /// change to refuse.
    inner: Mutex<Inner>,
    /// Signaled when a writer becomes runnable.
    work: Condvar,
    /// Signaled when a job completes (backpressure / drain wakeups).
    done: Condvar,
    /// Set by [`FlushPool::shutdown`]: workers exit once idle.
    stop: AtomicBool,
}

impl Shared {
    fn new() -> Shared {
        Shared {
            inner: Mutex::new(Inner::default()),
            work: Condvar::new(),
            done: Condvar::new(),
            stop: AtomicBool::new(false),
        }
    }
}

/// A flush thread pool: a fixed set of worker threads draining
/// per-writer FIFO queues. Explicitly constructible
/// ([`FlushPool::with_threads`]) so a long-lived service owns — and
/// sizes — its pool; executors without one share the lazily created
/// process default ([`FlushPool::current`]).
pub struct FlushPool {
    shared: Arc<Shared>,
}

/// Pool used by controlled (`rbio-check`) runs instead of the global
/// one, so schedule decisions see a fixed, named set of worker threads.
/// Taken through [`unpoisoned`]: each store replaces it whole.
static CHECK_POOL: RwLock<Option<Arc<FlushPool>>> = RwLock::new(None);

impl FlushPool {
    fn global_arc() -> &'static Arc<FlushPool> {
        static POOL: OnceLock<Arc<FlushPool>> = OnceLock::new();
        POOL.get_or_init(|| {
            let threads = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .clamp(2, 8);
            FlushPool::spawn_pool(threads, "rbio-flush")
        })
    }

    /// Spawn `threads` detached workers over a fresh shared state.
    fn spawn_pool(threads: usize, name: &str) -> Arc<FlushPool> {
        let threads = threads.max(1);
        let shared = Arc::new(Shared::new());
        for i in 0..threads {
            let s = Arc::clone(&shared);
            #[allow(clippy::expect_used, reason = "a pool without workers never drains")]
            std::thread::Builder::new()
                .name(format!("{name}-{i}"))
                .spawn(move || worker_loop(&s))
                .expect("spawn flush worker");
        }
        Arc::new(FlushPool { shared })
    }

    /// An explicitly-constructed pool with `threads` workers (min 1).
    /// The owner decides its lifetime: call [`FlushPool::shutdown`]
    /// when done, or the workers idle forever.
    pub fn with_threads(threads: usize) -> Arc<FlushPool> {
        Self::spawn_pool(threads, "rbio-pool")
    }

    /// Ask this pool's workers to exit once their queues are empty.
    /// Graceful: queued jobs still run; new registrations panic.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.work.notify_all();
    }

    /// The pool executors should register with: the controlled check
    /// pool while a deterministic run is active, else the lazily created
    /// process default.
    pub fn current() -> Arc<FlushPool> {
        if sched::controlled() {
            if let Some(p) = unpoisoned(CHECK_POOL.read()).as_ref() {
                return Arc::clone(p);
            }
        }
        Arc::clone(Self::global_arc())
    }

    /// Create (once) the controlled pool with `threads` workers named
    /// `flush{i}`, each registered with the installed scheduler. The
    /// pool persists for the process; workers park between runs.
    #[doc(hidden)]
    pub fn init_check_pool(threads: usize) {
        let mut slot = unpoisoned(CHECK_POOL.write());
        if slot.is_some() {
            return;
        }
        let shared = Arc::new(Shared::new());
        for i in 0..threads {
            sched::spawning();
            let s = Arc::clone(&shared);
            #[allow(clippy::expect_used, reason = "a controlled run needs its workers")]
            std::thread::Builder::new()
                .name(format!("rbio-check-flush-{i}"))
                .spawn(move || {
                    sched::register(&format!("flush{i}"));
                    worker_loop(&s)
                })
                .expect("spawn check flush worker");
        }
        *slot = Some(Arc::new(FlushPool { shared }));
    }

    /// Reset the controlled pool's writer table between runs so slot
    /// indices (`wid` in events) are assigned identically on every run —
    /// without this, the free-list order left by run *k* leaks into run
    /// *k+1*'s event stream and breaks byte-for-byte replay. Callers must
    /// guarantee no run is active and all pool workers are parked.
    #[doc(hidden)]
    pub fn reset_check_pool() {
        let slot = unpoisoned(CHECK_POOL.read());
        let Some(pool) = slot.as_ref() else { return };
        let mut g = unpoisoned(pool.shared.inner.lock());
        assert!(
            g.runnable.is_empty() && g.writers.iter().all(|w| !w.occupied && w.in_flight == 0),
            "reset_check_pool during an active run"
        );
        g.writers.clear();
        g.free.clear();
    }

    /// Register one writer pipeline of `depth` outstanding jobs
    /// (depth 2 = double buffering). `depth` must be ≥ 1.
    pub fn register(
        &self,
        rank: Rank,
        depth: u32,
        faults: FaultPlan,
        tuning: WriterTuning,
    ) -> WriterHandle {
        assert!(depth >= 1, "pipeline depth must be at least 1");
        assert!(
            !self.shared.stop.load(Ordering::Acquire),
            "register on a shut-down flush pool"
        );
        let ctx = WriterCtx {
            rank,
            wid: 0, // patched below once the slot is known
            faults,
            tuning,
        };
        let state = WriterState {
            ctx,
            queue: VecDeque::new(),
            in_flight: 0,
            active: false,
            enqueued: false,
            error: None,
            retries: 0,
            seq: 0,
            occupied: true,
        };
        let mut g = unpoisoned(self.shared.inner.lock());
        let wid = match g.free.pop() {
            Some(w) => {
                g.writers[w] = state;
                w
            }
            None => {
                g.writers.push(state);
                g.writers.len() - 1
            }
        };
        g.writers[wid].ctx.wid = wid;
        sched::emit(|| sched::Event::WriterRegistered { wid, rank });
        WriterHandle {
            shared: Arc::clone(&self.shared),
            wid,
            depth: depth as usize,
        }
    }
}

/// One rank's submission endpoint into the pool. Jobs run FIFO; `submit`
/// blocks while `depth` jobs are outstanding; `drain` waits for an empty
/// pipeline and reports the first latched error.
pub struct WriterHandle {
    shared: Arc<Shared>,
    wid: usize,
    depth: usize,
}

impl WriterHandle {
    /// Enqueue `job`, blocking while the pipeline is full. Fails fast
    /// with the latched error if an earlier job already failed.
    pub fn submit(&self, job: FlushJob) -> Result<(), PipelineError> {
        let sh = &*self.shared;
        let mut g = unpoisoned(sh.inner.lock());
        let mut wait = Wait::new(Point::SubmitFull, None);
        loop {
            let w = &mut g.writers[self.wid];
            if let Some(e) = w.error.take() {
                sched::emit(|| sched::Event::ErrorCleared { wid: self.wid });
                return Err(e);
            }
            if w.in_flight < self.depth {
                break;
            }
            g = wait.park(&sh.inner, &sh.done, g).unwrap_or_else(|(g, _)| g);
        }
        sched::emit(|| sched::Event::Submit {
            wid: self.wid,
            kind: job.kind(),
            hash: job.fingerprint(),
        });
        let w = &mut g.writers[self.wid];
        w.queue.push_back(job);
        w.in_flight += 1;
        // `!w.enqueued` is the PR 2 fix: without it, two back-to-back
        // submits ahead of a busy pool enqueue the writer twice and two
        // threads drain one queue concurrently.
        let enqueue = if sched::reverted(Revert::Pr2DoubleEnqueue) {
            !w.active
        } else {
            !w.active && !w.enqueued
        };
        if enqueue {
            w.enqueued = true;
            g.runnable.push_back(self.wid);
            self.shared.work.notify_one();
        }
        drop(g);
        sched::yield_now(Point::Submitted);
        Ok(())
    }

    /// Wait for every submitted job to finish. Returns the background
    /// retry count on success, or the first latched error.
    pub fn drain(&self) -> Result<u64, PipelineError> {
        let mut g = self.wait_idle(Point::DrainWait);
        let w = &mut g.writers[self.wid];
        let retries = std::mem::take(&mut w.retries);
        match w.error.take() {
            Some(e) => {
                sched::emit(|| sched::Event::ErrorCleared { wid: self.wid });
                Err(e)
            }
            None => Ok(retries),
        }
    }

    /// Park at `point` until this writer has no job queued or running,
    /// and return the pool lock.
    fn wait_idle(&self, point: Point) -> MutexGuard<'_, Inner> {
        let sh = &*self.shared;
        let mut g = unpoisoned(sh.inner.lock());
        let mut wait = Wait::new(point, None);
        while g.writers[self.wid].in_flight > 0 {
            g = wait.park(&sh.inner, &sh.done, g).unwrap_or_else(|(g, _)| g);
        }
        g
    }
}

impl Drop for WriterHandle {
    fn drop(&mut self) {
        // Quiesce (jobs hold no reference to the handle, but the slot
        // must not be reused while its queue drains), then free the slot.
        let mut g = self.wait_idle(Point::QuiesceWait);
        let w = &mut g.writers[self.wid];
        w.occupied = false;
        w.error = None;
        w.queue.clear();
        g.free.push(self.wid);
        sched::emit(|| sched::Event::WriterFreed { wid: self.wid });
    }
}

fn worker_loop(shared: &Shared) {
    // The batch a claim takes and, for a durable writer, where its writes
    // land (see `run_batch`): this thread's lists, reused, so a batch
    // allocates neither.
    let mut batch = Vec::new();
    let mut behind = Vec::new();
    let mut idle = Wait::new(Point::WorkerIdle, None);
    let mut g = unpoisoned(shared.inner.lock());
    loop {
        let wid = loop {
            if let Some(w) = g.runnable.pop_front() {
                break w;
            }
            if shared.stop.load(Ordering::Acquire) {
                return;
            }
            g = idle
                .park(&shared.inner, &shared.work, g)
                .unwrap_or_else(|(g, _)| g);
        };
        sched::emit(|| sched::Event::WorkerClaim {
            wid,
            was_active: g.writers[wid].active,
        });
        g.writers[wid].enqueued = false;
        g.writers[wid].active = true;
        loop {
            // Claim: a run of consecutive write jobs goes to the backend
            // as one batch; a `Close`, a `Commit` or a skipped job (latched
            // error) is a batch of one.
            let w = &mut g.writers[wid];
            let Some(job) = w.queue.pop_front() else {
                w.active = false;
                break;
            };
            let skip = w.error.is_some() || !w.occupied;
            let ctx = w.ctx.clone();
            let max_batch = if skip || !job.is_write() {
                1
            } else {
                ctx.backend().max_batch().max(1)
            };
            batch.push(job);
            while batch.len() < max_batch && w.queue.front().is_some_and(FlushJob::is_write) {
                batch.extend(w.queue.pop_front());
            }
            let seq = w.seq;
            w.seq += batch.len() as u64;
            for (seq, j) in (seq..).zip(&batch) {
                sched::emit(|| sched::Event::JobStart {
                    wid,
                    seq,
                    kind: j.kind(),
                    hash: j.fingerprint(),
                    skipped: skip,
                });
            }
            if !skip && matches!(batch[0], FlushJob::Commit { .. }) {
                sched::emit(|| sched::Event::CommitExecuted { wid });
            }
            // Run, unlocked.
            drop(g);
            sched::yield_now(Point::JobRun);
            let n = batch.len();
            let outcome = if skip {
                backend::BatchOutcome::ok(0)
            } else {
                run_batch(&ctx, &mut batch, &mut behind)
            };
            // Retire.
            g = unpoisoned(shared.inner.lock());
            let w = &mut g.writers[wid];
            w.retries += u64::from(outcome.retries);
            let err_idx = outcome.error.as_ref().map(|(i, _)| *i);
            if let Some((_, e)) = outcome.error {
                if w.error.is_none() {
                    let killed = PipelineError::Killed { rank: ctx.rank };
                    w.error = Some(e.into_io().map_or(killed, PipelineError::Io));
                    sched::emit(|| sched::Event::ErrorLatched { wid });
                }
            }
            for k in 0..n {
                // Linked-op semantics: the failing job and everything
                // after it (canceled, never executed) end not-ok.
                let ok = err_idx.is_none_or(|i| k < i);
                sched::emit(|| sched::Event::JobEnd { wid, ok });
            }
            w.in_flight -= n;
            shared.done.notify_all();
            // A skipped batch is dropped here, never run.
            batch.clear();
        }
    }
}

/// Writes shorter than this get no writeback hint: footers, headers and
/// marker text are a page or two that the file's fsync carries for free,
/// and a hint per small write would only add syscalls.
const WRITEBACK_HINT_MIN: u64 = 256 << 10;

/// Start writeback of the `len` bytes that just landed at `offset` of
/// `file`, a file that *will* be fsynced: the device drains them while
/// the CPU stages, checksums and seals, and the fsync finds most of the
/// file already on its way. A hint ([`sys::start_writeback`]): it is not
/// a durability point, is not journaled, and leaves the crash model —
/// any subset of un-fsynced writes may persist — as it was. Callers
/// guard it with their fsync switch.
pub(crate) fn hint_writeback(file: &File, offset: u64, len: u64) {
    if len >= WRITEBACK_HINT_MIN {
        sys::start_writeback(file, offset, len);
        counters::add_writeback_hints(1);
    }
}

/// Run one claimed batch, consuming its jobs: write jobs go to the
/// backend as one submission, a `Close` or a `Commit` runs alone. The
/// liveness beat advances once per job before the batch runs and once
/// after.
fn run_batch(
    ctx: &WriterCtx,
    jobs: &mut Vec<FlushJob>,
    behind: &mut Vec<(Arc<File>, u64, u64)>,
) -> backend::BatchOutcome {
    let n = jobs.len() as u64;
    if let Some(b) = &ctx.tuning.beat {
        b.fetch_add(n, Ordering::Relaxed);
    }
    let alone = |res: Result<(), fault::WriteError>| backend::BatchOutcome {
        retries: 0,
        error: res.err().map(|e| (0, e)),
    };
    let out = match jobs.as_slice() {
        [FlushJob::Close { file, fsync }] => alone(if *fsync {
            commit::sync_file(file, &ctx.faults, ctx.rank).map_err(fault::WriteError::Io)
        } else {
            Ok(())
        }),
        [FlushJob::Commit {
            tmp,
            final_path,
            size,
            fsync,
        }] => alone(
            commit::commit_file_with_faults(tmp, final_path, *size, *fsync, &ctx.faults, ctx.rank)
                .map(|()| {
                    sched::emit(|| sched::Event::ExtentCommit {
                        owner: ctx.rank,
                        by: ctx.rank,
                        path_hash: sched::path_fingerprint(final_path),
                    })
                }),
        ),
        _ => {
            let ops: Vec<WriteOp> = jobs.drain(..).map(FlushJob::into_write_op).collect();
            // The backend consumes the ops; a durable writer notes in
            // `behind` (the worker's scratch list, empty between batches)
            // where each lands, to hint behind it.
            if ctx.tuning.durable {
                behind.extend(
                    ops.iter()
                        .map(|op| (Arc::clone(&op.file), op.offset, op.len())),
                );
            }
            let out = ctx.backend().run_writes(&ctx.io_ctx(), ops);
            // Ops from the failing one on were canceled, never executed.
            let landed = out.error.as_ref().map_or(usize::MAX, |(i, _)| *i);
            for (file, offset, len) in behind.drain(..).take(landed) {
                hint_writeback(&file, offset, len);
            }
            out
        }
    };
    // A `Close` drops the file's final handle here.
    jobs.clear();
    if let Some(b) = &ctx.tuning.beat {
        b.fetch_add(n, Ordering::Relaxed);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::os::unix::fs::FileExt;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("rbio-pipe-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).expect("mkdir");
        d
    }

    fn open_rw(p: &std::path::Path) -> Arc<File> {
        Arc::new(
            std::fs::OpenOptions::new()
                .create(true)
                .truncate(true)
                .read(true)
                .write(true)
                .open(p)
                .expect("open"),
        )
    }

    fn handle(rank: Rank, depth: u32, faults: FaultPlan) -> WriterHandle {
        FlushPool::current().register(rank, depth, faults, WriterTuning::default())
    }

    #[test]
    fn jobs_execute_in_fifo_order() {
        let dir = tmpdir("fifo");
        let file = open_rw(&dir.join("f"));
        let h = handle(0, 2, FaultPlan::none());
        // Overlapping writes: later jobs must win, proving order.
        for i in 0..20u8 {
            h.submit(FlushJob::Write {
                file: Arc::clone(&file),
                offset: 0,
                data: Bytes::from_vec(vec![i; 8]),
            })
            .expect("submit");
        }
        h.drain().expect("drain");
        let mut buf = [0u8; 8];
        file.read_exact_at(&mut buf, 0).expect("read");
        assert_eq!(buf, [19u8; 8]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rapid_double_submit_never_double_drains() {
        let dir = tmpdir("race");
        let file = open_rw(&dir.join("f"));
        // Submitting several conflicting writes back-to-back parks them
        // all on the queue before any pool thread claims the writer; a
        // single drainer must still run them FIFO. (Regression: a double
        // runnable enqueue once let two threads drain the same writer
        // concurrently, and the earlier write could land last.)
        let h = handle(0, 4, FaultPlan::none());
        for round in 0..200u64 {
            for i in 0..4u8 {
                h.submit(FlushJob::Write {
                    file: Arc::clone(&file),
                    offset: 0,
                    data: Bytes::from_vec(vec![i.wrapping_add(round as u8); 32]),
                })
                .expect("submit");
            }
            h.drain().expect("drain");
            let mut buf = [0u8; 32];
            file.read_exact_at(&mut buf, 0).expect("read");
            assert_eq!(buf, [3u8.wrapping_add(round as u8); 32], "round {round}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_latches_and_poisons_later_jobs() {
        let dir = tmpdir("poison");
        let file = open_rw(&dir.join("f.tmp"));
        // Kill rank 7 immediately: the first write latches Killed, and
        // the commit job must be skipped — no final file appears.
        let h = handle(7, 4, FaultPlan::none().kill_writer_after_bytes(7, 0));
        h.submit(FlushJob::Write {
            file: Arc::clone(&file),
            offset: 0,
            data: Bytes::from_vec(vec![1; 64]),
        })
        .expect("submit");
        // The kill surfaces exactly once: at this submit if the write
        // already ran (the commit is then never enqueued), else at drain
        // (the commit is enqueued but skipped by the poisoned pipeline).
        let err = match h.submit(FlushJob::Commit {
            tmp: dir.join("f.tmp"),
            final_path: dir.join("f"),
            size: 64,
            fsync: false,
        }) {
            Err(e) => {
                h.drain().expect("nothing else failed");
                e
            }
            Ok(()) => h.drain().expect_err("must latch the kill"),
        };
        assert!(matches!(err, PipelineError::Killed { rank: 7 }));
        assert!(!dir.join("f").exists(), "final name must not appear");
        // The pipeline is reusable after drain cleared the error.
        h.submit(FlushJob::Close { file, fsync: false })
            .expect("submit");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn depth_bounds_outstanding_jobs_without_deadlock() {
        let dir = tmpdir("depth");
        // More writers than pool threads, each pushing more jobs than its
        // depth: every pipeline must still drain.
        let handles: Vec<WriterHandle> = (0..16).map(|r| handle(r, 2, FaultPlan::none())).collect();
        let files: Vec<Arc<File>> = (0..16)
            .map(|r| open_rw(&dir.join(format!("f{r}"))))
            .collect();
        for (r, h) in handles.iter().enumerate() {
            for k in 0..8u64 {
                h.submit(FlushJob::Write {
                    file: Arc::clone(&files[r]),
                    offset: k * 4,
                    data: Bytes::from_vec(vec![r as u8; 4]),
                })
                .expect("submit");
            }
        }
        for (r, h) in handles.iter().enumerate() {
            h.drain().expect("drain");
            let mut buf = Vec::new();
            File::open(dir.join(format!("f{r}")))
                .expect("open")
                .read_to_end(&mut buf)
                .expect("read");
            assert_eq!(buf, vec![r as u8; 32]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn background_retries_are_reported_by_drain() {
        let dir = tmpdir("retries");
        let file = open_rw(&dir.join("f"));
        let h = handle(3, 2, FaultPlan::none().fail_nth_write(3, 0, 2));
        h.submit(FlushJob::Write {
            file,
            offset: 0,
            data: Bytes::from_vec(vec![9; 16]),
        })
        .expect("submit");
        assert_eq!(h.drain().expect("drain"), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shutdown_pool_refuses_new_writers() {
        let p = FlushPool::with_threads(1);
        let dir = tmpdir("shutdown");
        let file = open_rw(&dir.join("f"));
        let h = p.register(0, 2, FaultPlan::none(), WriterTuning::default());
        h.submit(FlushJob::Write {
            file: Arc::clone(&file),
            offset: 0,
            data: Bytes::from_vec(vec![1; 8]),
        })
        .expect("submit");
        h.drain().expect("drain");
        drop(h);
        p.shutdown();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.register(1, 2, FaultPlan::none(), WriterTuning::default())
        }));
        assert!(r.is_err(), "register after shutdown must panic");
        std::fs::remove_dir_all(&dir).ok();
    }
}
