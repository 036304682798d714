//! Real plan executor: one thread per rank, bounded mailboxes for
//! messages, actual files on disk.
//!
//! This is the back-end a downstream application uses to checkpoint for
//! real (at in-process scale), and what the test suite uses to prove that
//! every strategy's plan moves every byte to its correct file offset. The
//! simulated Blue Gene/P executor in `rbio-machine` interprets the *same*
//! plans in virtual time.
//!
//! [`execute`] is a thin driver: it spawns the rank threads, runs the
//! shared interpreter (the private `interp` module — the same one
//! [`crate::rt`] runs) on each over this module's transport, and then
//! lets surviving writers serve as successors for dead ones by running
//! that interpreter once more over a pull transport.

mod interp;
mod mailbox;

use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

use rbio_plan::{DataRef, Op, Program};

pub(crate) use self::interp::{Blocked, Interp, Payload, StepError, Transport, View};
pub(crate) use self::mailbox::{MailError, Mailbox};
use crate::backend::BackendKind;
use crate::buf::{Bytes, CopyMode};
use crate::failover::{FailoverDirector, FailoverPolicy, WriterHealth};
use crate::fault::FaultPlan;
use crate::sched::{self, Point};

/// Default per-rank mailbox capacity (messages). Bounded so a burst or a
/// stalled receiver exerts backpressure on senders instead of growing
/// the heap without bound; override via [`ExecConfig::chan_capacity`].
pub const DEFAULT_CHAN_CAPACITY: usize = 256;

/// Default cap on one coalesced vectored write, bytes. Overridable per
/// run via [`ExecConfig::coalesce_caps`] (the autotuner exports tuned
/// values through `rbio-tune`'s plan JSON).
pub const DEFAULT_COALESCE_BYTES: u64 = 8 << 20;
/// Default cap on chunks per coalesced write (well under any `IOV_MAX`).
pub const DEFAULT_COALESCE_OPS: usize = 64;

/// The source of a `WriteAt` op (callers guarantee the variant).
fn write_src(op: &Op) -> &DataRef {
    match op {
        Op::WriteAt { src, .. } => src,
        _ => unreachable!("write run contains only WriteAt ops"),
    }
}

/// Length of the maximal coalescible run of `WriteAt` ops starting at
/// `ops[i]`: same file, byte-contiguous offsets, bounded size.
fn write_run_len(
    ops: &[Op],
    i: usize,
    file: u32,
    offset: u64,
    max_bytes: u64,
    max_ops: usize,
) -> usize {
    let (mut end, mut next) = (i, offset);
    while end < ops.len()
        && end - i < max_ops.max(1)
        && (end == i || next - offset < max_bytes.max(1))
    {
        match &ops[end] {
            Op::WriteAt {
                file: f,
                offset: o,
                src,
            } if f.0 == file && *o == next => {
                next += src.len();
                end += 1;
            }
            _ => break,
        }
    }
    end
}

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Directory all plan file names are resolved against.
    pub base_dir: PathBuf,
    /// Make every file durable before `execute` returns (slower). Atomic
    /// files are synced once, at commit — footer in, then one `fsync`,
    /// the rename, and an `fsync` of its directory — with writeback of
    /// each large write started behind it so that sync finds little left;
    /// a non-atomic file has no commit and is synced by its `Close`.
    pub fsync_on_close: bool,
    /// Sleep for `Compute` ops' durations (off by default: tests and
    /// benches usually want the I/O path only).
    pub honor_compute: bool,
    /// Faults to inject (inert by default).
    pub faults: FaultPlan,
    /// Retries per `WriteAt` on a transient error before giving up.
    pub write_retries: u32,
    /// Initial backoff between retries (doubles each attempt).
    pub retry_backoff: Duration,
    /// How long a `Recv` waits with no matching message before failing
    /// (a lost handoff must surface as a typed error, not a hang).
    pub recv_timeout: Duration,
    /// Outstanding background flush jobs per writer. `1` (the default)
    /// is the fully serial path; `≥ 2` defers `WriteAt`/`Close`/`Commit`
    /// to the shared [`crate::pipeline::FlushPool`] so field *k+1* aggregation overlaps
    /// field *k*'s disk write (2 = double buffering). Output is
    /// byte-identical at any depth: data is snapshotted at issue, jobs
    /// run FIFO per writer, and the pipeline drains at plan barriers,
    /// reads, and end of program.
    pub pipeline_depth: u32,
    /// When set, background jobs sleep a seed-derived pseudo-random
    /// duration before running — a deterministic way for equivalence
    /// tests to sweep cross-rank interleavings.
    pub pipeline_jitter: Option<u64>,
    /// How payload bytes travel to disk. [`CopyMode::ZeroCopy`] (the
    /// default) moves refcounted [`Bytes`] slices and coalesces
    /// contiguous writes; [`CopyMode::DeepCopy`] deep-copies at every
    /// hop — the legacy datapath, kept as the baseline for equivalence
    /// tests and the bytes-copied benchmark.
    pub copy_mode: CopyMode,
    /// Writer failover policy. Disabled by default: a dead writer aborts
    /// the run, exactly as before. When enabled (and the plan supports
    /// takeover — per-writer files, no writer barriers), a dead or hung
    /// writer's extent is re-staged and written by the next surviving
    /// writer, and the generation completes in degraded mode.
    pub failover: FailoverPolicy,
    /// When set, atomic plan files divert into this node-local tier
    /// stage instead of the filesystem: `Open` becomes a no-op,
    /// `WriteAt` appends to the slab at memory speed, and `Commit`
    /// seals the staged file for the background drain engine
    /// (see [`crate::tier`]). Non-atomic files still hit the PFS.
    pub stage: Option<Arc<crate::tier::TierStage>>,
    /// I/O backend driving the background flush pipeline's writes
    /// (ignored at `pipeline_depth` 1, where the serial path issues its
    /// own blocking writes). [`BackendKind::Default`] honors
    /// `RBIO_IO_BACKEND`.
    pub io_backend: BackendKind,
    /// Cap on one coalesced vectored write, bytes (min 1).
    pub coalesce_max_bytes: u64,
    /// Cap on chunks per coalesced vectored write (min 1).
    pub coalesce_max_ops: usize,
    /// Per-rank message mailbox capacity (min 1). Mailboxes are bounded
    /// `sync_channel`s: a sender facing a full mailbox blocks (bounded
    /// resident bytes) and surfaces the typed `TimedOut` error after
    /// `recv_timeout` rather than growing the queue without limit.
    pub chan_capacity: usize,
}

impl ExecConfig {
    /// Config writing under `base_dir`, no fsync, compute ops skipped.
    pub fn new(base_dir: impl AsRef<Path>) -> Self {
        ExecConfig {
            base_dir: base_dir.as_ref().to_path_buf(),
            fsync_on_close: false,
            honor_compute: false,
            faults: FaultPlan::none(),
            write_retries: 3,
            retry_backoff: Duration::from_micros(500),
            recv_timeout: Duration::from_secs(2),
            pipeline_depth: 1,
            pipeline_jitter: None,
            copy_mode: CopyMode::ZeroCopy,
            failover: FailoverPolicy::disabled(),
            stage: None,
            io_backend: BackendKind::Default,
            coalesce_max_bytes: DEFAULT_COALESCE_BYTES,
            coalesce_max_ops: DEFAULT_COALESCE_OPS,
            chan_capacity: DEFAULT_CHAN_CAPACITY,
        }
    }

    /// Replace the fault plan.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Set the writer pipeline depth (1 = serial, 2 = double buffering).
    pub fn pipeline_depth(mut self, depth: u32) -> Self {
        self.pipeline_depth = depth.max(1);
        self
    }

    /// Set the background-job jitter seed for interleaving sweeps.
    pub fn pipeline_jitter(mut self, seed: u64) -> Self {
        self.pipeline_jitter = Some(seed);
        self
    }

    /// Select the datapath copy discipline.
    pub fn copy_mode(mut self, mode: CopyMode) -> Self {
        self.copy_mode = mode;
        self
    }

    /// Replace the writer failover policy.
    pub fn failover(mut self, policy: FailoverPolicy) -> Self {
        self.failover = policy;
        self
    }

    /// Stage atomic files into the node-local tier instead of the PFS.
    pub fn stage(mut self, stage: Arc<crate::tier::TierStage>) -> Self {
        self.stage = Some(stage);
        self
    }

    /// Select the pipeline's I/O backend.
    pub fn io_backend(mut self, kind: BackendKind) -> Self {
        self.io_backend = kind;
        self
    }

    /// Cap coalesced vectored writes at `max_bytes` bytes and `max_ops`
    /// chunks (both clamped to at least 1).
    pub fn coalesce_caps(mut self, max_bytes: u64, max_ops: usize) -> Self {
        self.coalesce_max_bytes = max_bytes.max(1);
        self.coalesce_max_ops = max_ops.max(1);
        self
    }

    /// Set the per-rank message mailbox capacity (clamped to at least 1).
    pub fn chan_capacity(mut self, cap: usize) -> Self {
        self.chan_capacity = cap.max(1);
        self
    }
}

/// Execution outcome.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// Per-rank wall time from the synchronized start to that rank's last
    /// op retiring — the "I/O time distribution" of the paper's Figs. 9–11.
    pub rank_times: Vec<Duration>,
    /// Total wall time (slowest rank).
    pub wall_time: Duration,
    /// Total bytes written to files (headers included).
    pub bytes_written: u64,
    /// Total bytes sent through channels.
    pub bytes_sent: u64,
    /// Write attempts repeated after a transient error, across all ranks.
    pub retries: u64,
    /// Completed writer takeovers as `(dead_writer, successor)` pairs, in
    /// failover order. Empty on a healthy run (or with failover disabled).
    pub failovers: Vec<(u32, u32)>,
}

impl ExecReport {
    /// Aggregate write bandwidth in bytes/second, the paper's definition:
    /// total bytes over the slowest rank's wall time.
    pub fn bandwidth(&self) -> f64 {
        let s = self.wall_time.as_secs_f64();
        if s > 0.0 {
            self.bytes_written as f64 / s
        } else {
            f64::INFINITY
        }
    }
}

/// Executor failure.
#[derive(Debug)]
pub enum ExecError {
    /// Plan/payload mismatch detected before starting.
    Setup(String),
    /// An I/O error on some rank.
    Io {
        /// Rank that failed.
        rank: u32,
        /// Underlying error.
        source: io::Error,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Setup(s) => write!(f, "executor setup: {s}"),
            ExecError::Io { rank, source } => write!(f, "rank {rank}: {source}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl ExecConfig {
    fn view(&self) -> View<'_> {
        View {
            base_dir: &self.base_dir,
            fsync: self.fsync_on_close,
            honor_compute: self.honor_compute,
            faults: &self.faults,
            write_retries: self.write_retries,
            retry_backoff: self.retry_backoff,
            pipeline_depth: self.pipeline_depth,
            pipeline_jitter: self.pipeline_jitter,
            copy_mode: self.copy_mode,
            stage: self.stage.as_ref(),
            io_backend: self.io_backend,
            coalesce_max_bytes: self.coalesce_max_bytes,
            coalesce_max_ops: self.coalesce_max_ops,
        }
    }
}

impl StepError {
    /// The `io::Error` an [`ExecError::Io`] on `rank` carries for this
    /// failure.
    pub(crate) fn into_io(self, rank: u32) -> io::Error {
        use io::ErrorKind::{Interrupted, TimedOut};
        match self {
            StepError::Killed => io::Error::other(format!("fault injection: rank {rank} killed")),
            StepError::Aborted => io::Error::new(Interrupted, "aborted: a peer rank failed"),
            StepError::Timeout { op, waited } => io::Error::new(
                TimedOut,
                match op {
                    Blocked::Send { dst, .. } => format!(
                        "send timeout: rank {dst}'s mailbox stayed full for {waited:?} \
                         (stalled receiver?)"
                    ),
                    Blocked::Recv { src, tag } => format!(
                        "recv timeout: no message from rank {src} tag {tag} within {waited:?} \
                         (lost handoff?)"
                    ),
                    Blocked::Barrier => {
                        format!("barrier timeout: peers missing after {waited:?}")
                    }
                },
            ),
            StepError::PeerGone { .. } => io::Error::other("message channel closed"),
            StepError::PlanMismatch(what) => io::Error::other(what),
            StepError::Io(e) => e,
        }
    }
}

/// A barrier whose waiters poll a shared abort flag, so one rank dying
/// mid-plan (injected fault or real I/O error) releases everyone with an
/// error instead of wedging the whole executor. `std::sync::Barrier` has
/// no such escape hatch.
struct AbortBarrier {
    n: usize,
    state: Mutex<(u64, usize)>, // (generation, arrived)
    cvar: Condvar,
}

impl AbortBarrier {
    fn new(n: usize) -> Self {
        AbortBarrier {
            n,
            state: Mutex::new((0, 0)),
            cvar: Condvar::new(),
        }
    }

    fn wait(&self, abort: &AtomicBool, timeout: Duration) -> Result<(), StepError> {
        let mut g = self.state.lock().expect("barrier lock");
        g.1 += 1;
        if g.1 == self.n {
            g.0 += 1;
            g.1 = 0;
            self.cvar.notify_all();
            return Ok(());
        }
        let generation = g.0;
        // One deadline for the whole wait, derived from the configured
        // timeout. Waiters sleep on the condvar until the generation
        // advances or a failing peer wakes them via `wake()` — no fixed
        // poll interval. A barrier stuck past the deadline means a peer
        // is lost without having raised the abort flag; surface that as
        // a typed timeout instead of wedging.
        let deadline = Instant::now() + timeout;
        while g.0 == generation {
            if abort.load(Ordering::Acquire) {
                return Err(StepError::Aborted);
            }
            if sched::registered() {
                // Controlled run: blocking on the condvar would wedge
                // the single run token — poll via the scheduler.
                drop(g);
                sched::yield_now(Point::BarrierWait);
                g = self.state.lock().expect("barrier lock");
            } else {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(StepError::Timeout {
                        op: Blocked::Barrier,
                        waited: timeout,
                    });
                }
                g = self.cvar.wait_timeout(g, left).expect("barrier lock").0;
            }
        }
        Ok(())
    }

    /// Wake all waiters so they re-check the abort flag. Called by a
    /// failing rank after it raises `abort`.
    fn wake(&self) {
        self.cvar.notify_all();
    }
}

/// What every rank thread of one [`execute`] call shares.
struct Shared<'a> {
    program: &'a Program,
    payloads: &'a [Bytes],
    cfg: &'a ExecConfig,
    barriers: &'a [AbortBarrier],
    abort: &'a Arc<AtomicBool>,
    /// Present when the policy is enabled and the plan supports takeover.
    director: Option<&'a FailoverDirector>,
}

/// A rank thread's way to its peers: its mailbox, the plan's barriers,
/// and — with failover engaged — the fence that reroutes sends around a
/// dead writer.
struct ExecTransport<'a> {
    rank: u32,
    mail: Mailbox,
    sh: &'a Shared<'a>,
}

impl ExecTransport<'_> {
    fn send_as(&self, src: u32, dst: u32, tag: u64, data: Bytes) -> Result<(), StepError> {
        // A dead destination writer needs no delivery: its successor
        // re-derives this payload from the shared buffers during takeover.
        // Checked again after a failed send — the writer may have died
        // between the check and the send. Any other vanished receiver
        // failed and dropped its endpoint: collateral of that failure.
        let fenced = || self.sh.director.is_some_and(|d| d.is_fenced(dst));
        if fenced() {
            return Ok(());
        }
        match self.mail.send_as(src, dst, tag, data) {
            Err(MailError::Disconnected) if fenced() => Ok(()),
            Err(MailError::Disconnected) => Err(StepError::Aborted),
            r => r.map_err(|e| e.during(Blocked::Send { dst, tag }, dst)),
        }
    }
}

impl Transport for ExecTransport<'_> {
    fn send(&mut self, dst: u32, tag: u64, data: Bytes) -> Result<(), StepError> {
        self.send_as(self.rank, dst, tag, data)
    }

    fn recv(&mut self, src: u32, tag: u64) -> Result<Bytes, StepError> {
        self.mail
            .recv(src, tag)
            .map_err(|e| e.during(Blocked::Recv { src, tag }, src))
    }

    fn barrier(&mut self, comm: u32) -> Result<(), StepError> {
        self.sh.barriers[comm as usize].wait(self.sh.abort, self.sh.cfg.recv_timeout)
    }

    fn op_boundary(&mut self) -> Result<(), StepError> {
        self.mail.beat();
        Ok(())
    }
}

/// A successor's transport while it re-runs an orphaned writer's ops.
///
/// Failover is pull-based: instead of replaying the messages the dead
/// writer consumed, a `Recv` is resolved by scanning the sender's op
/// list for the matching (FIFO per `(src, tag)`) `Send` and slicing its
/// `DataRef` straight out of that rank's shared payload. This is why
/// takeover is only offered for plans whose inbound sends are payload- or
/// synthetic-sourced and whose writers meet no barrier (see
/// [`failover_supported`]). Sends are forwarded on the orphan's behalf
/// (wave-chain tokens etc.): messages carry their source rank, so the
/// receiver matches them as if the orphan had sent them, and a duplicate
/// of a pre-death send parks harmlessly in the receiver's stash.
struct PullTransport<'a> {
    orphan: u32,
    via: &'a ExecTransport<'a>,
    /// FIFO scan positions into each sender's op list, per `(src, tag)`.
    scan: HashMap<(u32, u64), usize>,
}

impl Transport for PullTransport<'_> {
    fn send(&mut self, dst: u32, tag: u64, data: Bytes) -> Result<(), StepError> {
        self.via.send_as(self.orphan, dst, tag, data)
    }

    fn recv(&mut self, src: u32, tag: u64) -> Result<Bytes, StepError> {
        let orphan = self.orphan;
        let pos = self.scan.entry((src, tag)).or_insert(0);
        let sent = self.via.sh.program.ops[src as usize][*pos..]
            .iter()
            .inspect(|_| *pos += 1)
            .find_map(|op| match op {
                Op::Send { dst, tag: t, src } if *dst == orphan && t.0 == tag => Some(*src),
                _ => None,
            });
        match sent {
            Some(DataRef::Own { off, len }) => {
                Ok(self.via.sh.payloads[src as usize].slice(off as usize..(off + len) as usize))
            }
            Some(DataRef::Synthetic { len }) => Ok(crate::buf::BufPool::global()
                .from_fn(len as usize, |i| crate::format::synthetic_byte(i as u64))),
            // `failover_supported` admits neither; a successor cannot see
            // sender-side staging.
            Some(DataRef::Staging { .. }) | None => Err(StepError::PlanMismatch(format!(
                "takeover of rank {orphan}: no payload-sourced send from rank {src} \
                 tag {tag} in the plan (unsupported plan shape)"
            ))),
        }
    }

    fn barrier(&mut self, _comm: u32) -> Result<(), StepError> {
        Err(StepError::PlanMismatch(format!(
            "takeover of rank {} hit a barrier (unsupported plan shape)",
            self.orphan
        )))
    }

    fn op_boundary(&mut self) -> Result<(), StepError> {
        self.via.mail.poll().map_err(|_| StepError::Aborted)
    }
}

/// Re-execute `orphan`'s op list on the surviving rank behind `me`.
///
/// The same interpreter, over a [`PullTransport`], with no background
/// pipeline: writes go through the serial fault-checked path under the
/// *successor's* rank identity, so cascading failures stay injectable.
/// The final `Commit` is guarded by the director's per-extent CAS.
fn take_over(me: &mut Interp<'_, ExecTransport<'_>>, orphan: u32) -> Result<(), StepError> {
    let via = &me.transport;
    let sh = via.sh;
    let pull = PullTransport {
        orphan,
        via,
        scan: HashMap::new(),
    };
    let mut it = Interp::new(
        via.rank,
        orphan,
        sh.program,
        Payload::Shared(&sh.payloads[orphan as usize]),
        sh.cfg.view(),
        sh.director,
        pull,
        None,
    );
    let res = it.run();
    me.retries += it.retries;
    res
}

/// One rank's whole life inside [`execute`]: run its own ops, have its
/// death absorbed if failover can, then — a surviving writer — serve as
/// successor until the generation quiesces: every writer done or dead,
/// every orphaned extent re-written and committed.
fn run_rank(
    it: &mut Interp<'_, ExecTransport<'_>>,
    controlled: bool,
) -> (Duration, Result<(), StepError>) {
    let (rank, sh) = (it.transport.rank, it.transport.sh);
    let t0 = Instant::now();
    let mut res = it.run();
    if let (Err(e), Some(dir)) = (&res, sh.director) {
        // Only an injected death is absorbed (genuine I/O errors and
        // timeouts still abort the run) — and a fenced zombie's late
        // errors are moot: workers reroute around it and a successor owns
        // its extent, so the revived thread must not abort a healthy run.
        // Either way its pipeline quiesces *before* the death is
        // announced, so a successor never races leftover background jobs.
        let killed = matches!(e, StepError::Killed);
        if killed || dir.is_fenced(rank) {
            it.quiesce();
            if !killed || dir.report_dead(rank) {
                res = Ok(());
            }
        }
    }
    let dt = t0.elapsed();
    let dir = match sh.director {
        Some(d) if res.is_ok() && d.is_writer(rank) && !d.is_fenced(rank) => d,
        _ => return (dt, res),
    };
    dir.mark_writer_done(rank);
    while !sh.abort.load(Ordering::Acquire) {
        if let Some(orphan) = dir.claim_orphan(rank) {
            match take_over(it, orphan) {
                Ok(()) => dir.orphan_completed(orphan),
                Err(e) => {
                    // Cascade: a successor killed mid-takeover has the
                    // orphan re-homed to the next survivor.
                    let cascade = matches!(e, StepError::Killed) && {
                        it.quiesce();
                        dir.report_dead(rank)
                    };
                    if !cascade {
                        res = Err(e);
                    }
                    break;
                }
            }
        } else if dir.quiesced() {
            break;
        } else if controlled {
            sched::yield_now(Point::JoinWait);
        } else {
            dir.wait_changed(Duration::from_millis(2));
        }
    }
    (dt, res)
}

/// Ranks that perform file ops — the failover domain. For rbIO these are
/// the `ng` aggregating writers; for one-file-per-process every rank.
fn writer_ranks(program: &Program) -> Vec<u32> {
    (0..program.nranks())
        .filter(|&r| {
            program.ops[r as usize]
                .iter()
                .any(|o| matches!(o, Op::Open { .. }))
        })
        .collect()
}

/// Can a dead writer's extent be re-derived by a successor?
///
/// Takeover replays the orphan's op list from the shared payload
/// buffers, so it requires (a) no barriers on any writer — a collective
/// commit protocol cannot make progress with a member missing — and (b)
/// every send *into* a writer sourced from the sender's payload (or
/// synthetic), never from sender-side staging the successor cannot see.
fn failover_supported(program: &Program, writers: &[u32]) -> bool {
    if writers.len() < 2 {
        return false;
    }
    let writer_set: HashSet<u32> = writers.iter().copied().collect();
    for r in 0..program.nranks() {
        for o in &program.ops[r as usize] {
            match o {
                Op::Barrier { .. } if writer_set.contains(&r) => return false,
                Op::Send { dst, src, .. }
                    if writer_set.contains(dst) && matches!(src, DataRef::Staging { .. }) =>
                {
                    return false
                }
                _ => {}
            }
        }
    }
    true
}

/// Production health monitor: watches writer heartbeats and reports
/// stalls to the director. Controlled runs never spawn this — the
/// injected hang announces the monitor's verdict deterministically.
fn monitor_writers(
    dir: &FailoverDirector,
    beats: &[Arc<AtomicU64>],
    finished: &AtomicBool,
    abort: &AtomicBool,
) {
    let policy = *dir.policy();
    let poll = (policy.straggler_after / 4).max(Duration::from_millis(1));
    let now = Instant::now();
    let mut last: Vec<(u32, u64, Instant)> = dir
        .writers()
        .iter()
        .map(|&w| (w, beats[w as usize].load(Ordering::Relaxed), now))
        .collect();
    loop {
        if finished.load(Ordering::Acquire) || abort.load(Ordering::Acquire) {
            return;
        }
        std::thread::sleep(poll);
        for entry in &mut last {
            let (w, seen, since) = *entry;
            if dir.is_done(w) || dir.is_fenced(w) {
                continue;
            }
            let v = beats[w as usize].load(Ordering::Relaxed);
            if v != seen {
                *entry = (w, v, Instant::now());
                continue;
            }
            match policy.classify_stall(since.elapsed()) {
                WriterHealth::Dead => {
                    let _ = dir.report_dead(w);
                }
                WriterHealth::Straggling => dir.report_straggling(w),
                WriterHealth::Healthy => {}
            }
        }
    }
}

/// Run `body(rank, mailbox)` on one scoped thread per mailbox and join
/// them in rank order — the thread-per-rank scaffolding under both
/// [`execute`] and [`crate::rt::run`].
///
/// Under a controlled scheduler each thread registers as `rank{r}`, and
/// the caller — which must not block in a join while rank threads still
/// need the run token — spins at a yield point until all of them have
/// left the controlled world. `body` must therefore drop whatever waits
/// on scheduled work (a writer handle quiescing its jobs) before it
/// returns, while its thread is still scheduled.
pub(crate) fn run_ranks<T: Send>(
    mailboxes: Vec<Mailbox>,
    body: impl Fn(u32, Mailbox) -> T + Sync,
) -> Vec<std::thread::Result<T>> {
    let controlled = sched::controlled();
    let alive = AtomicUsize::new(mailboxes.len());
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(mailboxes.len());
        for (rank, mail) in mailboxes.into_iter().enumerate() {
            let (body, alive) = (&body, &alive);
            if controlled {
                sched::spawning();
            }
            handles.push(scope.spawn(move || {
                if controlled {
                    sched::register(&format!("rank{rank}"));
                }
                let out = body(rank as u32, mail);
                alive.fetch_sub(1, Ordering::Release);
                if controlled {
                    sched::unregister();
                }
                out
            }));
        }
        while controlled && alive.load(Ordering::Acquire) > 0 {
            sched::yield_now(Point::JoinWait);
        }
        handles.into_iter().map(|h| h.join()).collect()
    })
}

/// Execute `program` with the given per-rank payload buffers under `cfg`.
///
/// `payloads[r]` must be at least `program.payload[r]` bytes; each is
/// frozen into a [`Bytes`] as it is — leased buffers from
/// [`crate::format::materialize_payloads`] stay pool-backed and recycle
/// when the call returns, a plain `Vec<u8>` is wrapped without a copy.
/// The program should already be validated (plans from
/// [`crate::CheckpointSpec::plan`] are); an invalid program may deadlock
/// or panic.
pub fn execute(
    program: &Program,
    payloads: Vec<impl Into<Bytes>>,
    cfg: &ExecConfig,
) -> Result<ExecReport, ExecError> {
    // Freeze each payload once; every rank-side reference is a refcounted
    // slice of this single allocation (no per-op copies under ZeroCopy).
    let payloads: Vec<Bytes> = payloads.into_iter().map(Into::into).collect();
    let nranks = program.nranks() as usize;
    if payloads.len() != nranks {
        return Err(ExecError::Setup(format!(
            "got {} payloads for {} ranks",
            payloads.len(),
            nranks
        )));
    }
    for (r, p) in payloads.iter().enumerate() {
        if (p.len() as u64) < program.payload[r] {
            return Err(ExecError::Setup(format!(
                "rank {r}: payload {} bytes < required {}",
                p.len(),
                program.payload[r]
            )));
        }
    }
    if nranks > 4096 {
        return Err(ExecError::Setup(format!(
            "real executor spawns one thread per rank; {nranks} ranks is too many \
             (use the simulator for machine-scale runs)"
        )));
    }
    std::fs::create_dir_all(&cfg.base_dir)
        .map_err(|e| ExecError::Setup(format!("create base dir: {e}")))?;
    sched::emit(|| sched::Event::ExecStarted {
        nranks: nranks as u32,
    });

    let barriers: Vec<AbortBarrier> = program
        .comms
        .iter()
        .map(|m| AbortBarrier::new(m.len()))
        .collect();
    let start_gate = Barrier::new(nranks);
    let abort = Arc::new(AtomicBool::new(false));
    let controlled = sched::controlled();

    // Failover engages only when the policy asks for it AND the plan
    // shape supports pull-based takeover; otherwise a dead writer aborts
    // the run exactly as before.
    let writers = writer_ranks(program);
    let director = (cfg.failover.enabled && failover_supported(program, &writers))
        .then(|| FailoverDirector::new(cfg.failover, writers));
    let director = director.as_ref();
    // Per-rank liveness heartbeats; `Arc` because the shared flush pool's
    // detached workers bump them too while draining a writer's jobs.
    let heartbeats: Vec<Arc<AtomicU64>> = (0..nranks).map(|_| Arc::default()).collect();
    let sh = &Shared {
        program,
        payloads: &payloads,
        cfg,
        barriers: &barriers,
        abort: &abort,
        director,
    };

    let run_rank_thread = |rank: u32, mut mail: Mailbox| {
        let beat = &heartbeats[rank as usize];
        let view = cfg.view();
        let hedge_after = director.map(|d| d.policy().straggler_after);
        let pipe = view.writer(rank, hedge_after, Some(Arc::clone(beat)));
        (mail.abort, mail.beat) = (Some(Arc::clone(&abort)), Some(Arc::clone(beat)));
        let mut it = Interp::new(
            rank,
            rank,
            program,
            Payload::Shared(&payloads[rank as usize]),
            view,
            director,
            ExecTransport { rank, mail, sh },
            pipe,
        );
        if !controlled {
            // Registration already serializes controlled ranks; an OS
            // barrier here would wedge the run token.
            start_gate.wait();
        }
        let (dt, res) = run_rank(&mut it, controlled);
        if res.is_err() {
            // Release peers stuck in barriers/receives.
            abort.store(true, Ordering::Release);
            barriers.iter().for_each(AbortBarrier::wake);
        }
        (dt, res, it.retries)
    };
    let mailboxes = Mailbox::mesh(nranks, cfg.chan_capacity, cfg.recv_timeout);
    let finished = AtomicBool::new(false);
    let joined = std::thread::scope(|scope| {
        if let (Some(dir), false) = (director, controlled) {
            let (beats, finished, abort) = (&heartbeats, &finished, &*abort);
            scope.spawn(move || monitor_writers(dir, beats, finished, abort));
        }
        let joined = run_ranks(mailboxes, run_rank_thread);
        finished.store(true, Ordering::Release);
        joined
    });

    let mut rank_times = vec![Duration::ZERO; nranks];
    let mut retries = 0;
    // Prefer a root-cause error (fault/I-O) over abort-induced collateral.
    let mut first_err: Option<ExecError> = None;
    let mut first_collateral: Option<ExecError> = None;
    for (rank, joined) in joined.into_iter().enumerate() {
        let rank = rank as u32;
        let res = match joined {
            Ok((dt, res, retried)) => {
                rank_times[rank as usize] = dt;
                retries += retried;
                res
            }
            Err(_) => Err(StepError::Io(io::Error::other("rank thread panicked"))),
        };
        if let Err(e) = res {
            let slot = match e {
                StepError::Aborted => &mut first_collateral,
                _ => &mut first_err,
            };
            slot.get_or_insert(ExecError::Io {
                rank,
                source: e.into_io(rank),
            });
        }
    }

    if let Some(e) = first_err.or(first_collateral) {
        return Err(e);
    }
    let stats = program.stats();
    let wall_time = rank_times.iter().copied().max().unwrap_or(Duration::ZERO);
    Ok(ExecReport {
        rank_times,
        wall_time,
        bytes_written: stats.bytes_written,
        bytes_sent: stats.bytes_sent,
        retries,
        failovers: director
            .map(|d| d.completed_takeovers())
            .unwrap_or_default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::synthetic_byte;
    use rbio_plan::{validate, CoverageMode, ProgramBuilder, Tag};
    use rbio_profile::counters;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("rbio-exec-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn direct_writes_land_at_offsets() {
        let mut b = ProgramBuilder::new(vec![4, 4]);
        let f = b.file("out.bin", 8);
        b.push(
            0,
            Op::Open {
                file: f,
                create: true,
            },
        );
        b.push(
            0,
            Op::WriteAt {
                file: f,
                offset: 0,
                src: DataRef::Own { off: 0, len: 4 },
            },
        );
        b.push(0, Op::Close { file: f });
        // Rank 1 waits for rank 0's close via a message, then appends.
        b.reserve_staging(1, 1);
        b.push(
            0,
            Op::Send {
                dst: 1,
                tag: Tag(9),
                src: DataRef::Own { off: 0, len: 1 },
            },
        );
        b.push(
            1,
            Op::Recv {
                src: 0,
                tag: Tag(9),
                bytes: 1,
                staging_off: 0,
            },
        );
        b.push(
            1,
            Op::Open {
                file: f,
                create: false,
            },
        );
        b.push(
            1,
            Op::WriteAt {
                file: f,
                offset: 4,
                src: DataRef::Own { off: 0, len: 4 },
            },
        );
        b.push(1, Op::Close { file: f });
        let p = b.build();
        validate(&p, CoverageMode::ExactWrite).unwrap();

        let dir = tmpdir("direct");
        let payloads = vec![vec![1u8, 2, 3, 4], vec![5u8, 6, 7, 8]];
        let rep = execute(&p, payloads, &ExecConfig::new(&dir)).unwrap();
        assert_eq!(rep.bytes_written, 8);
        assert_eq!(rep.rank_times.len(), 2);
        let bytes = std::fs::read(dir.join("out.bin")).unwrap();
        assert_eq!(bytes, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stalled_receiver_bounds_resident_queue_and_times_out() {
        // Pre-PR the rank mailboxes were unbounded `mpsc::channel`s: a
        // sender bursting at a stalled receiver grew the heap without
        // limit and never surfaced an error. Bounded mailboxes cap the
        // resident queue at `chan_capacity` messages and surface the
        // typed send timeout.
        let before = counters::service_snapshot();
        let cap = 4usize;
        let burst = 8usize;
        let mut b = ProgramBuilder::new(vec![0, 0]);
        // Rank 1 "stalls" (models a slow writer) before draining.
        b.push(
            1,
            Op::Compute {
                nanos: Duration::from_millis(400).as_nanos() as u64,
            },
        );
        b.reserve_staging(1, 1024);
        for _ in 0..burst {
            b.push(
                0,
                Op::Send {
                    dst: 1,
                    tag: Tag(7),
                    src: DataRef::Synthetic { len: 1024 },
                },
            );
            b.push(
                1,
                Op::Recv {
                    src: 0,
                    tag: Tag(7),
                    bytes: 1024,
                    staging_off: 0,
                },
            );
        }
        let p = b.build();
        let dir = tmpdir("stalled-recv");
        let cfg = ExecConfig::new(&dir).chan_capacity(cap);
        let cfg = ExecConfig {
            honor_compute: true,
            recv_timeout: Duration::from_millis(50),
            ..cfg
        };
        let err = execute(&p, vec![vec![], vec![]], &cfg).expect_err("send must time out");
        match err {
            ExecError::Io { rank: 0, source } => {
                assert_eq!(source.kind(), io::ErrorKind::TimedOut, "{source}");
                assert!(source.to_string().contains("send timeout"), "{source}");
            }
            other => panic!("expected rank 0 send timeout, got {other}"),
        }
        let delta = counters::service_snapshot().delta_since(&before);
        assert!(delta.send_backpressure_blocks >= 1, "block must be counted");
        assert!(
            delta.send_backpressure_timeouts >= 1,
            "timeout must be counted"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn aggregation_via_messages() {
        // Rank 1 and 2 send to rank 0, which reorders into one file.
        let mut b = ProgramBuilder::new(vec![0, 3, 3]);
        let f = b.file("agg.bin", 6);
        b.reserve_staging(0, 6);
        b.push(
            1,
            Op::Send {
                dst: 0,
                tag: Tag(0),
                src: DataRef::Own { off: 0, len: 3 },
            },
        );
        b.push(
            2,
            Op::Send {
                dst: 0,
                tag: Tag(0),
                src: DataRef::Own { off: 0, len: 3 },
            },
        );
        // Receive rank 2's data *first* (stash must hold rank 1's if it
        // arrives early).
        b.push(
            0,
            Op::Recv {
                src: 2,
                tag: Tag(0),
                bytes: 3,
                staging_off: 3,
            },
        );
        b.push(
            0,
            Op::Recv {
                src: 1,
                tag: Tag(0),
                bytes: 3,
                staging_off: 0,
            },
        );
        b.push(
            0,
            Op::Open {
                file: f,
                create: true,
            },
        );
        b.push(
            0,
            Op::WriteAt {
                file: f,
                offset: 0,
                src: DataRef::Staging { off: 0, len: 6 },
            },
        );
        b.push(0, Op::Close { file: f });
        let p = b.build();
        validate(&p, CoverageMode::ExactWrite).unwrap();

        let dir = tmpdir("agg");
        let payloads = vec![vec![], vec![10, 11, 12], vec![20, 21, 22]];
        execute(&p, payloads, &ExecConfig::new(&dir)).unwrap();
        let bytes = std::fs::read(dir.join("agg.bin")).unwrap();
        assert_eq!(bytes, vec![10, 11, 12, 20, 21, 22]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn synthetic_writes_are_deterministic() {
        let mut b = ProgramBuilder::new(vec![0]);
        let f = b.file("syn.bin", 16);
        b.push(
            0,
            Op::Open {
                file: f,
                create: true,
            },
        );
        b.push(
            0,
            Op::WriteAt {
                file: f,
                offset: 0,
                src: DataRef::Synthetic { len: 16 },
            },
        );
        b.push(0, Op::Close { file: f });
        let p = b.build();
        let dir = tmpdir("syn");
        execute(&p, vec![vec![]], &ExecConfig::new(&dir)).unwrap();
        let bytes = std::fs::read(dir.join("syn.bin")).unwrap();
        let expect: Vec<u8> = (0..16u64).map(synthetic_byte).collect();
        assert_eq!(bytes, expect);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn setup_errors() {
        let b = ProgramBuilder::new(vec![10]);
        let p = b.build();
        let none = Vec::<Vec<u8>>::new();
        let err = execute(&p, none, &ExecConfig::new(tmpdir("e1"))).unwrap_err();
        assert!(matches!(err, ExecError::Setup(_)));
        let err = execute(&p, vec![vec![0u8; 5]], &ExecConfig::new(tmpdir("e2"))).unwrap_err();
        assert!(matches!(err, ExecError::Setup(_)));
    }

    #[test]
    fn injected_transient_write_error_is_retried() {
        let mut b = ProgramBuilder::new(vec![4]);
        let f = b.file("retry.bin", 4);
        b.push(
            0,
            Op::Open {
                file: f,
                create: true,
            },
        );
        b.push(
            0,
            Op::WriteAt {
                file: f,
                offset: 0,
                src: DataRef::Own { off: 0, len: 4 },
            },
        );
        b.push(0, Op::Close { file: f });
        let p = b.build();
        let dir = tmpdir("retry");
        let cfg = ExecConfig::new(&dir).faults(FaultPlan::none().fail_nth_write(0, 0, 2));
        let rep = execute(&p, vec![vec![1, 2, 3, 4]], &cfg).unwrap();
        assert_eq!(rep.retries, 2);
        assert_eq!(
            std::fs::read(dir.join("retry.bin")).unwrap(),
            vec![1, 2, 3, 4]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_error_beyond_retry_budget_fails() {
        let mut b = ProgramBuilder::new(vec![4]);
        let f = b.file("exhaust.bin", 4);
        b.push(
            0,
            Op::Open {
                file: f,
                create: true,
            },
        );
        b.push(
            0,
            Op::WriteAt {
                file: f,
                offset: 0,
                src: DataRef::Own { off: 0, len: 4 },
            },
        );
        b.push(0, Op::Close { file: f });
        let p = b.build();
        let dir = tmpdir("exhaust");
        let mut cfg = ExecConfig::new(&dir).faults(FaultPlan::none().fail_nth_write(0, 0, 10));
        cfg.write_retries = 2;
        let err = execute(&p, vec![vec![0; 4]], &cfg).unwrap_err();
        match err {
            ExecError::Io { rank: 0, source } => {
                assert_eq!(source.raw_os_error(), Some(5), "EIO expected: {source}")
            }
            other => panic!("expected rank-0 Io error, got {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_file_commits_via_rename() {
        let mut b = ProgramBuilder::new(vec![8]);
        let f = b.file_atomic("atomic.bin", 8);
        b.push(
            0,
            Op::Open {
                file: f,
                create: true,
            },
        );
        b.push(
            0,
            Op::WriteAt {
                file: f,
                offset: 0,
                src: DataRef::Own { off: 0, len: 8 },
            },
        );
        b.push(0, Op::Close { file: f });
        b.push(0, Op::Commit { file: f });
        let p = b.build();
        validate(&p, CoverageMode::ExactWrite).unwrap();
        let dir = tmpdir("atomic");
        execute(&p, vec![vec![7u8; 8]], &ExecConfig::new(&dir)).unwrap();
        assert!(!dir.join("atomic.bin.tmp").exists(), "tmp renamed away");
        let bytes = std::fs::read(dir.join("atomic.bin")).unwrap();
        assert_eq!(&bytes[..8], &[7u8; 8]);
        assert!(
            crate::commit::verify_committed(&bytes, 8).is_none(),
            "footer must validate"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn killed_writer_never_publishes_final_file() {
        let mut b = ProgramBuilder::new(vec![8]);
        let f = b.file_atomic("victim.bin", 8);
        b.push(
            0,
            Op::Open {
                file: f,
                create: true,
            },
        );
        b.push(
            0,
            Op::WriteAt {
                file: f,
                offset: 0,
                src: DataRef::Own { off: 0, len: 8 },
            },
        );
        b.push(0, Op::Close { file: f });
        b.push(0, Op::Commit { file: f });
        let p = b.build();
        let dir = tmpdir("killed");
        // Threshold 4: crossed by the single 8-byte write, so the rank
        // dies at the commit edge — after its data, before the rename.
        let cfg = ExecConfig::new(&dir).faults(FaultPlan::none().kill_writer_after_bytes(0, 4));
        let err = execute(&p, vec![vec![0; 8]], &cfg).unwrap_err();
        assert!(err.to_string().contains("killed"), "{err}");
        assert!(
            !dir.join("victim.bin").exists(),
            "final name must not appear"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pipelined_atomic_commit_matches_serial_output() {
        let mut b = ProgramBuilder::new(vec![16]);
        let f = b.file_atomic("p.bin", 16);
        b.push(
            0,
            Op::Open {
                file: f,
                create: true,
            },
        );
        for k in 0..4u64 {
            b.push(
                0,
                Op::WriteAt {
                    file: f,
                    offset: k * 4,
                    src: DataRef::Own { off: k * 4, len: 4 },
                },
            );
        }
        b.push(0, Op::Close { file: f });
        b.push(0, Op::Commit { file: f });
        let p = b.build();
        validate(&p, CoverageMode::ExactWrite).unwrap();
        let payload: Vec<u8> = (0..16).collect();

        let dir_s = tmpdir("pipe-serial");
        execute(&p, vec![payload.clone()], &ExecConfig::new(&dir_s)).unwrap();
        let dir_p = tmpdir("pipe-deep");
        let cfg = ExecConfig::new(&dir_p).pipeline_depth(2).pipeline_jitter(7);
        execute(&p, vec![payload], &cfg).unwrap();

        let a = std::fs::read(dir_s.join("p.bin")).unwrap();
        let b2 = std::fs::read(dir_p.join("p.bin")).unwrap();
        assert_eq!(a, b2, "pipelined output must be byte-identical");
        assert!(!dir_p.join("p.bin.tmp").exists());
        std::fs::remove_dir_all(&dir_s).ok();
        std::fs::remove_dir_all(&dir_p).ok();
    }

    #[test]
    fn pipelined_killed_writer_never_publishes_final_file() {
        let mut b = ProgramBuilder::new(vec![8]);
        let f = b.file_atomic("pvictim.bin", 8);
        b.push(
            0,
            Op::Open {
                file: f,
                create: true,
            },
        );
        b.push(
            0,
            Op::WriteAt {
                file: f,
                offset: 0,
                src: DataRef::Own { off: 0, len: 8 },
            },
        );
        b.push(0, Op::Close { file: f });
        b.push(0, Op::Commit { file: f });
        let p = b.build();
        let dir = tmpdir("pipe-killed");
        let cfg = ExecConfig::new(&dir)
            .faults(FaultPlan::none().kill_writer_after_bytes(0, 4))
            .pipeline_depth(4);
        let err = execute(&p, vec![vec![0; 8]], &cfg).unwrap_err();
        assert!(err.to_string().contains("killed"), "{err}");
        assert!(
            !dir.join("pvictim.bin").exists(),
            "final name must not appear"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn killed_writer_fails_over_to_successor() {
        // Two independent writers, each with its own atomic file. Rank 0
        // is killed mid-extent; with failover enabled the run still
        // succeeds and rank 1 re-stages and commits rank 0's extent.
        let mut b = ProgramBuilder::new(vec![8, 8]);
        let fa = b.file_atomic("a.bin", 8);
        let fb = b.file_atomic("b.bin", 8);
        for (rank, f) in [(0u32, fa), (1u32, fb)] {
            b.push(
                rank,
                Op::Open {
                    file: f,
                    create: true,
                },
            );
            b.push(
                rank,
                Op::WriteAt {
                    file: f,
                    offset: 0,
                    src: DataRef::Own { off: 0, len: 8 },
                },
            );
            b.push(rank, Op::Close { file: f });
            b.push(rank, Op::Commit { file: f });
        }
        let p = b.build();
        validate(&p, CoverageMode::ExactWrite).unwrap();
        let dir = tmpdir("failover-kill");
        let cfg = ExecConfig::new(&dir)
            .faults(FaultPlan::none().kill_writer_after_bytes(0, 4))
            .failover(FailoverPolicy::from_recv_timeout(Duration::from_secs(2)));
        let pay_a: Vec<u8> = (10..18).collect();
        let pay_b: Vec<u8> = (50..58).collect();
        let rep = execute(&p, vec![pay_a.clone(), pay_b.clone()], &cfg).unwrap();
        assert_eq!(rep.failovers, vec![(0, 1)], "rank 1 must take over rank 0");
        for (name, want) in [("a.bin", &pay_a), ("b.bin", &pay_b)] {
            let bytes = std::fs::read(dir.join(name)).unwrap();
            assert_eq!(&bytes[..8], &want[..], "{name}");
            assert!(
                crate::commit::verify_committed(&bytes, 8).is_none(),
                "{name}: committed footer must validate"
            );
            assert!(!dir.join(format!("{name}.tmp")).exists(), "{name} tmp");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hung_writer_is_fenced_and_successor_commits() {
        // Rank 0 hangs at its first write long past the dead deadline;
        // the production monitor declares it dead, rank 1 takes over,
        // and when the zombie revives its commit is refused — the
        // extent still lands exactly once.
        let mut b = ProgramBuilder::new(vec![8, 8]);
        let fa = b.file_atomic("ha.bin", 8);
        let fb = b.file_atomic("hb.bin", 8);
        for (rank, f) in [(0u32, fa), (1u32, fb)] {
            b.push(
                rank,
                Op::Open {
                    file: f,
                    create: true,
                },
            );
            b.push(
                rank,
                Op::WriteAt {
                    file: f,
                    offset: 0,
                    src: DataRef::Own { off: 0, len: 8 },
                },
            );
            b.push(rank, Op::Close { file: f });
            b.push(rank, Op::Commit { file: f });
        }
        let p = b.build();
        let dir = tmpdir("failover-hang");
        let policy = FailoverPolicy {
            enabled: true,
            straggler_after: Duration::from_millis(25),
            dead_after: Duration::from_millis(50),
        };
        let cfg = ExecConfig::new(&dir)
            .faults(FaultPlan::none().hang_writer(0, Duration::from_millis(300)))
            .failover(policy);
        let before = rbio_profile::counters::failover_snapshot();
        let pay_a: Vec<u8> = (20..28).collect();
        let pay_b: Vec<u8> = (60..68).collect();
        let rep = execute(&p, vec![pay_a.clone(), pay_b.clone()], &cfg).unwrap();
        assert_eq!(rep.failovers, vec![(0, 1)]);
        let delta = rbio_profile::counters::failover_snapshot().delta_since(&before);
        assert!(delta.failovers >= 1, "{delta:?}");
        assert!(
            delta.fenced_commits_refused >= 1,
            "the revived zombie's commit must be refused: {delta:?}"
        );
        let bytes = std::fs::read(dir.join("ha.bin")).unwrap();
        assert_eq!(&bytes[..8], &pay_a[..]);
        assert!(
            crate::commit::verify_committed(&bytes, 8).is_none(),
            "footer must survive the zombie's late writes"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn worker_sends_to_dead_writer_are_rerouted() {
        // Rank 0 aggregates worker rank 1's block, rank 2 is the other
        // writer. Rank 0 dies between its two writes; rank 2's takeover
        // re-derives the worker's message straight from rank 1's payload
        // (pull-based failover), whether or not the send was delivered.
        let mut b = ProgramBuilder::new(vec![4, 4, 4]);
        let fa = b.file_atomic("agg.bin", 8);
        let fw = b.file_atomic("w2.bin", 4);
        b.reserve_staging(0, 4);
        b.push(
            0,
            Op::Open {
                file: fa,
                create: true,
            },
        );
        b.push(
            0,
            Op::Recv {
                src: 1,
                tag: Tag(3),
                bytes: 4,
                staging_off: 0,
            },
        );
        b.push(
            0,
            Op::WriteAt {
                file: fa,
                offset: 0,
                src: DataRef::Own { off: 0, len: 4 },
            },
        );
        b.push(
            0,
            Op::WriteAt {
                file: fa,
                offset: 4,
                src: DataRef::Staging { off: 0, len: 4 },
            },
        );
        b.push(0, Op::Close { file: fa });
        b.push(0, Op::Commit { file: fa });
        b.push(
            1,
            Op::Send {
                dst: 0,
                tag: Tag(3),
                src: DataRef::Own { off: 0, len: 4 },
            },
        );
        b.push(
            2,
            Op::Open {
                file: fw,
                create: true,
            },
        );
        b.push(
            2,
            Op::WriteAt {
                file: fw,
                offset: 0,
                src: DataRef::Own { off: 0, len: 4 },
            },
        );
        b.push(2, Op::Close { file: fw });
        b.push(2, Op::Commit { file: fw });
        let p = b.build();
        validate(&p, CoverageMode::ExactWrite).unwrap();
        let dir = tmpdir("failover-reroute");
        let cfg = ExecConfig::new(&dir)
            .faults(FaultPlan::none().kill_writer_after_bytes(0, 2))
            .failover(FailoverPolicy::from_recv_timeout(Duration::from_secs(2)));
        let rep = execute(
            &p,
            vec![vec![1u8, 2, 3, 4], vec![5u8, 6, 7, 8], vec![9u8, 9, 9, 9]],
            &cfg,
        )
        .unwrap();
        assert_eq!(rep.failovers, vec![(0, 2)], "rank 2 must take over rank 0");
        let agg = std::fs::read(dir.join("agg.bin")).unwrap();
        assert_eq!(
            &agg[..8],
            &[1, 2, 3, 4, 5, 6, 7, 8],
            "own block + re-derived worker block"
        );
        assert!(crate::commit::verify_committed(&agg, 8).is_none());
        assert_eq!(&std::fs::read(dir.join("w2.bin")).unwrap()[..4], &[9; 4]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pipelined_background_retries_are_counted() {
        let mut b = ProgramBuilder::new(vec![4]);
        let f = b.file("pretry.bin", 4);
        b.push(
            0,
            Op::Open {
                file: f,
                create: true,
            },
        );
        b.push(
            0,
            Op::WriteAt {
                file: f,
                offset: 0,
                src: DataRef::Own { off: 0, len: 4 },
            },
        );
        b.push(0, Op::Close { file: f });
        let p = b.build();
        let dir = tmpdir("pipe-retry");
        let cfg = ExecConfig::new(&dir)
            .faults(FaultPlan::none().fail_nth_write(0, 0, 2))
            .pipeline_depth(2);
        let rep = execute(&p, vec![vec![1, 2, 3, 4]], &cfg).unwrap();
        assert_eq!(rep.retries, 2);
        assert_eq!(
            std::fs::read(dir.join("pretry.bin")).unwrap(),
            vec![1, 2, 3, 4]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_back_via_readat() {
        let mut b = ProgramBuilder::new(vec![8]);
        let f = b.file("rb.bin", 8);
        b.reserve_staging(0, 8);
        b.push(
            0,
            Op::Open {
                file: f,
                create: true,
            },
        );
        b.push(
            0,
            Op::WriteAt {
                file: f,
                offset: 0,
                src: DataRef::Own { off: 0, len: 8 },
            },
        );
        b.push(
            0,
            Op::ReadAt {
                file: f,
                offset: 2,
                len: 4,
                staging_off: 0,
            },
        );
        b.push(
            0,
            Op::Send {
                dst: 0,
                tag: Tag(0),
                src: DataRef::Staging { off: 0, len: 4 },
            },
        );
        b.push(
            0,
            Op::Recv {
                src: 0,
                tag: Tag(0),
                bytes: 4,
                staging_off: 4,
            },
        );
        b.push(0, Op::Close { file: f });
        let p = b.build();
        let dir = tmpdir("rb");
        let payload = vec![9u8, 8, 7, 6, 5, 4, 3, 2];
        execute(&p, vec![payload], &ExecConfig::new(&dir)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
