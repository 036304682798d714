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
//!
//! [`ExecConfig`] is the interpreter's one config, under either entry
//! point: [`crate::rt::RtConfig`] is another name for it. Three of its
//! fields — `recv_timeout`, `chan_capacity` and `failover` — concern the
//! mailboxes and the takeover that only `execute` owns.

pub(crate) mod interp;
mod mailbox;

use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

use rbio_plan::{DataRef, Op, Program};

pub(crate) use self::interp::{Blocked, Interp, Payload, StepError, Transport};
pub(crate) use self::mailbox::{MailError, Mailbox};
use crate::backend::{self, BackendKind};
use crate::buf::Bytes;
use crate::failover::{FailoverDirector, FailoverPolicy};
use crate::fault::FaultPlan;
use crate::pipeline::{FlushPool, WriterHandle, WriterTuning};
use crate::sched::{self, unpoisoned, Point, Wait};

/// Default per-rank mailbox capacity (messages). Bounded so a burst or a
/// stalled receiver exerts backpressure on senders instead of growing
/// the heap without bound; override via [`ExecConfig::chan_capacity`].
pub const DEFAULT_CHAN_CAPACITY: usize = 256;

/// Default cap on one coalesced vectored write, bytes. Overridable per
/// run via [`ExecConfig::coalesce_caps`].
pub const DEFAULT_COALESCE_BYTES: u64 = 8 << 20;
/// Default cap on plan ops per coalesced write. Their staging pieces may
/// number more; the vectored write loop submits at most `IOV_MAX` a call.
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

/// Interpreter configuration, for [`execute`] and for
/// [`crate::rt::checkpoint_rank_with`] alike.
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
    /// Faults to inject (inert by default). A transient write error is
    /// retried on the one budget every writer shares,
    /// [`crate::fault::WRITE_RETRIES`] from [`crate::fault::RETRY_BACKOFF`].
    pub faults: FaultPlan,
    /// `execute` only: how long a `Recv` waits with no matching message
    /// before failing (a lost handoff must surface as a typed error, not
    /// a hang). Under `rt` the application's [`crate::rt::Comm`] owns the
    /// timeout ([`crate::rt::Comm::set_recv_timeout`]).
    pub recv_timeout: Duration,
    /// Outstanding background flush jobs per writer. `1` (the default)
    /// is the fully serial path; `≥ 2` defers `WriteAt`/`Close`/`Commit`
    /// to the shared [`crate::pipeline::FlushPool`] so field *k+1* aggregation overlaps
    /// field *k*'s disk write (2 = double buffering). Output is
    /// byte-identical at any depth: a job owns immutable bytes at issue, jobs
    /// run FIFO per writer, and the pipeline drains at plan barriers,
    /// reads, and end of program.
    pub pipeline_depth: u32,
    /// `execute` only: writer failover policy. Disabled by default: a
    /// dead writer aborts the run. When enabled (and the plan supports
    /// takeover — per-writer files, no writer barriers), a dead or hung
    /// writer's extent is re-staged and written by the next surviving
    /// writer, and the generation completes in degraded mode. `rt` does
    /// not offer takeover: a rank sees no other rank's payload.
    pub failover: FailoverPolicy,
    /// When set, atomic plan files divert into this node-local tier
    /// stage instead of the filesystem: `Open` becomes a no-op,
    /// `WriteAt` hands the stage its pieces without a copy, and `Commit`
    /// seals the staged file for the background drain engine
    /// (see [`crate::tier`]). Non-atomic files still hit the PFS.
    pub stage: Option<Arc<crate::tier::TierStage>>,
    /// I/O backend driving the background flush pipeline's writes
    /// (ignored at `pipeline_depth` 1, where the serial path issues its
    /// own blocking writes). [`BackendKind::Threaded`] by default.
    pub io_backend: BackendKind,
    /// Cap on one coalesced vectored write, bytes (min 1).
    pub coalesce_max_bytes: u64,
    /// Cap on chunks per coalesced vectored write (min 1).
    pub coalesce_max_ops: usize,
    /// `execute` only: per-rank message mailbox capacity (min 1).
    /// Mailboxes are bounded `sync_channel`s: a sender facing a full
    /// mailbox blocks (bounded resident bytes) and surfaces the typed
    /// `TimedOut` error after `recv_timeout` rather than growing the
    /// queue without limit. Under `rt` the application sizes its
    /// mailboxes ([`crate::rt::run_with_capacity`]).
    pub chan_capacity: usize,
}

impl ExecConfig {
    /// Config writing under `base_dir`, no fsync, no faults, serial.
    pub fn new(base_dir: impl AsRef<Path>) -> Self {
        ExecConfig {
            base_dir: base_dir.as_ref().to_path_buf(),
            fsync_on_close: false,
            faults: FaultPlan::none(),
            recv_timeout: Duration::from_secs(2),
            pipeline_depth: 1,
            failover: FailoverPolicy::disabled(),
            stage: None,
            io_backend: BackendKind::Threaded,
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
    /// Register `rank`'s background flush pipeline with the current
    /// pool; `None` at depth 1, the fully serial path.
    pub(crate) fn writer(&self, rank: u32, beat: Option<Arc<AtomicU64>>) -> Option<WriterHandle> {
        (self.pipeline_depth >= 2).then(|| {
            FlushPool::current().register(
                rank,
                self.pipeline_depth,
                self.faults.clone(),
                WriterTuning {
                    beat,
                    backend: Some(backend::resolve(self.io_backend)),
                    durable: self.fsync_on_close,
                },
            )
        })
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
                },
            ),
            StepError::PeerGone { .. } => io::Error::other("message channel closed"),
            StepError::PlanMismatch(what) => io::Error::other(what),
            StepError::Io(e) => e,
        }
    }
}

/// What every rank thread of one [`execute`] call shares.
struct Shared<'a> {
    program: &'a Program,
    payloads: &'a [Bytes],
    cfg: &'a ExecConfig,
    abort: &'a Arc<AtomicBool>,
    /// Present when the policy is enabled and the plan supports takeover.
    director: Option<&'a FailoverDirector>,
}

/// A rank thread's way to its peers: its mailbox and — with failover
/// engaged — the fence that reroutes sends around a dead writer.
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
        sh.cfg,
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
fn run_rank(it: &mut Interp<'_, ExecTransport<'_>>) -> (Duration, Result<(), StepError>) {
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
    let mut wait = Wait::new(Point::JoinWait, None).slice(Duration::from_millis(2));
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
        } else {
            drop(wait.park(&dir.state, &dir.changed, dir.lock()));
        }
    }
    (dt, res)
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

/// The end of an [`execute`] run: set once every rank returned or one
/// raised `abort`, and notified, so the health monitor stops at once
/// instead of at the end of its poll. Taken through [`unpoisoned`]: its
/// one update is a store of `true`.
type RunOver = (Mutex<bool>, Condvar);

fn end_run((over, cv): &RunOver) {
    *unpoisoned(over.lock()) = true;
    cv.notify_all();
}

/// Production health monitor: watches writer heartbeats every poll, an
/// eighth of `dead_after`, and declares dead a writer whose heartbeat has
/// not moved for `dead_after`, until the run is over. Controlled runs
/// never spawn this — the injected hang announces the monitor's verdict
/// deterministically.
fn monitor_writers(dir: &FailoverDirector, beats: &[Arc<AtomicU64>], run_over: &RunOver) {
    let policy = *dir.policy();
    let poll = (policy.dead_after / 8).max(Duration::from_millis(1));
    let now = Instant::now();
    let mut last: Vec<(u32, u64, Instant)> = dir
        .writers()
        .iter()
        .map(|&w| (w, beats[w as usize].load(Ordering::Relaxed), now))
        .collect();
    let (over, cv) = run_over;
    let mut wait = Wait::new(Point::JoinWait, None).slice(poll);
    loop {
        let mut g = unpoisoned(over.lock());
        if !*g {
            g = wait.park(over, cv, g).unwrap_or_else(|(g, _)| g);
        }
        if *g {
            return;
        }
        drop(g);
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
            if since.elapsed() >= policy.dead_after {
                let _ = dir.report_dead(w);
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
    // slice of this single allocation (no per-op copies).
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

    let (ends, failovers) = run_plan(program, &payloads, cfg);
    let mut rank_times = Vec::with_capacity(nranks);
    let mut retries = 0;
    // Prefer a root-cause error (fault/I-O) over abort-induced collateral.
    let mut first_err: Option<ExecError> = None;
    let mut first_collateral: Option<ExecError> = None;
    for (rank, (dt, res, retried)) in ends.into_iter().enumerate() {
        let rank = rank as u32;
        rank_times.push(dt);
        retries += retried;
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
        failovers,
    })
}

/// One rank's end of an [`execute`] run: its time, its result and its
/// write retries.
type RankEnd = (Duration, Result<(), StepError>, u64);

/// Run `program` on one thread per rank; every rank's end in rank order,
/// and the takeovers the run completed.
fn run_plan(
    program: &Program,
    payloads: &[Bytes],
    cfg: &ExecConfig,
) -> (Vec<RankEnd>, Vec<(u32, u32)>) {
    let nranks = program.nranks() as usize;
    sched::emit(|| sched::Event::ExecStarted {
        nranks: nranks as u32,
    });

    let start_gate = Barrier::new(nranks);
    let abort = Arc::new(AtomicBool::new(false));
    let run_over: RunOver = Default::default();
    let controlled = sched::controlled();

    // Failover engages only when the policy asks for it AND the plan
    // shape supports pull-based takeover; otherwise a dead writer aborts
    // the run exactly as before.
    let writers = program.writer_ranks();
    let director = (cfg.failover.enabled && failover_supported(program, &writers))
        .then(|| FailoverDirector::new(cfg.failover, writers));
    let director = director.as_ref();
    // Per-rank liveness heartbeats; `Arc` because the shared flush pool's
    // detached workers bump them too while draining a writer's jobs.
    let heartbeats: Vec<Arc<AtomicU64>> = (0..nranks).map(|_| Arc::default()).collect();
    let sh = &Shared {
        program,
        payloads,
        cfg,
        abort: &abort,
        director,
    };

    let run_rank_thread = |rank: u32, mut mail: Mailbox| {
        let beat = &heartbeats[rank as usize];
        let pipe = cfg.writer(rank, Some(Arc::clone(beat)));
        (mail.abort, mail.beat) = (Some(Arc::clone(&abort)), Some(Arc::clone(beat)));
        let mut it = Interp::new(
            rank,
            rank,
            program,
            Payload::Shared(&payloads[rank as usize]),
            cfg,
            director,
            ExecTransport { rank, mail, sh },
            pipe,
        );
        if !controlled {
            // Registration already serializes controlled ranks; an OS
            // barrier here would wedge the run token.
            start_gate.wait();
        }
        let (dt, res) = run_rank(&mut it);
        if res.is_err() {
            // Release peers blocked in the mailbox (at its next poll),
            // and the monitor.
            abort.store(true, Ordering::Release);
            end_run(&run_over);
        }
        (dt, res, it.retries)
    };
    let mailboxes = Mailbox::mesh(nranks, cfg.chan_capacity, cfg.recv_timeout);
    let joined = std::thread::scope(|scope| {
        if let (Some(dir), false) = (director, controlled) {
            let (beats, run_over) = (&heartbeats, &run_over);
            scope.spawn(move || monitor_writers(dir, beats, run_over));
        }
        let joined = run_ranks(mailboxes, run_rank_thread);
        end_run(&run_over);
        joined
    });

    let panicked = || Err(StepError::Io(io::Error::other("rank thread panicked")));
    let ends = joined
        .into_iter()
        .map(|j| j.unwrap_or_else(|_| (Duration::ZERO, panicked(), 0)))
        .collect();
    let failovers = director
        .map(|d| d.completed_takeovers())
        .unwrap_or_default();
    (ends, failovers)
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
        // Rank 1 stalls in a slow write (an injected 400 ms delay) before
        // draining.
        let f = b.file("stall.bin", 1);
        b.push(
            1,
            Op::Open {
                file: f,
                create: true,
            },
        );
        b.push(
            1,
            Op::WriteAt {
                file: f,
                offset: 0,
                src: DataRef::Synthetic { len: 1 },
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
        let cfg = ExecConfig::new(&dir)
            .chan_capacity(cap)
            .faults(FaultPlan::none().delay_writes(1, Duration::from_millis(400)));
        let cfg = ExecConfig {
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
        // Ten failing attempts outlast the budget's first try and retries.
        let cfg = ExecConfig::new(&dir).faults(FaultPlan::none().fail_nth_write(0, 0, 10));
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
        let cfg = ExecConfig::new(&dir_p).pipeline_depth(2);
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
    fn a_rank_killed_before_its_barrier_releases_its_group_within_one_poll() {
        // coIO(2) over 8 ranks: each group's leader writes the header,
        // then the group barriers. Leader 0 dies at that first write, so
        // members 1–3 wait in the barrier's fan-out receive. They must see
        // the abort at the mailbox's next poll, not at `recv_timeout`.
        use crate::strategy::{CheckpointSpec, Strategy};
        let layout = crate::layout::DataLayout::uniform(8, &[("u", 4096), ("v", 512)]);
        let plan = CheckpointSpec::new(layout, "abort")
            .strategy(Strategy::coio(2))
            .plan()
            .unwrap();
        assert_eq!(plan.program.comms[0], vec![0, 1, 2, 3]);
        let dir = tmpdir("barrier-abort");
        let cfg = ExecConfig::new(&dir).faults(FaultPlan::none().kill_writer_after_bytes(0, 0));
        let payloads: Vec<Bytes> = crate::format::materialize_payloads(&plan, |_, _, b| b.fill(3))
            .into_iter()
            .map(Into::into)
            .collect();
        let (ends, _) = run_plan(&plan.program, &payloads, &cfg);
        let (killed_at, killed, _) = &ends[0];
        assert!(matches!(killed, Err(StepError::Killed)), "{killed:?}");
        // The slack covers waking and scheduling eight threads on a
        // loaded two-core box; `recv_timeout` (2 s) is far beyond it.
        let bound = *killed_at + mailbox::RECV_POLL + Duration::from_millis(100);
        assert!(bound < cfg.recv_timeout);
        for (m, (dt, res, _)) in ends.iter().enumerate().take(4).skip(1) {
            assert!(matches!(res, Err(StepError::Aborted)), "rank {m}: {res:?}");
            assert!(
                *dt <= bound,
                "rank {m} returned after {dt:?}, bound {bound:?}"
            );
        }
        // The other group finished, or was caught blocked by the abort.
        for (r, (_, res, _)) in ends.iter().enumerate().skip(4) {
            assert!(
                matches!(res, Ok(()) | Err(StepError::Aborted)),
                "rank {r}: {res:?}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_barrier_member_that_never_arrives_is_a_typed_timeout() {
        // Rank 1 never reaches the barrier and nothing aborts: rank 0, the
        // group's first member, waits in the fan-in receive until
        // `recv_timeout`, then fails typed instead of hanging.
        let mut b = ProgramBuilder::new(vec![0, 0]);
        let c = b.comm(vec![0, 1]);
        b.push(0, Op::Barrier { comm: c });
        let p = b.build();
        let dir = tmpdir("barrier-missing");
        let cfg = ExecConfig {
            recv_timeout: Duration::from_millis(100),
            ..ExecConfig::new(&dir)
        };
        let t0 = Instant::now();
        let err = execute(&p, vec![Vec::<u8>::new(), vec![]], &cfg).unwrap_err();
        let took = t0.elapsed();
        match err {
            ExecError::Io { rank: 0, source } => {
                assert_eq!(source.kind(), io::ErrorKind::TimedOut, "{source}");
                assert!(
                    source.to_string().contains("no message from rank 1"),
                    "{source}"
                );
            }
            other => panic!("expected rank 0's receive timeout, got {other}"),
        }
        assert!(
            took >= cfg.recv_timeout && took < Duration::from_secs(2),
            "{took:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn strategy_plans_keep_the_writer_list_and_barrier_premises() {
        use crate::strategy::{CheckpointSpec, RbIoCommit, Strategy};
        let layout = crate::layout::DataLayout::uniform(8, &[("u", 4096), ("v", 512)]);
        let program = |s: Strategy| {
            CheckpointSpec::new(layout.clone(), "w")
                .strategy(s)
                .plan()
                .unwrap()
                .program
        };
        for s in [
            Strategy::OnePfpp,
            Strategy::rbio(2),
            Strategy::RbIo {
                ng: 2,
                commit: RbIoCommit::CollectiveShared,
            },
            Strategy::coio(2),
            Strategy::CoIo {
                nf: 2,
                aggregator_ratio: 1,
            },
        ] {
            let p = program(s);
            let opens: Vec<u32> = (0..p.nranks())
                .filter(|&r| {
                    p.ops[r as usize]
                        .iter()
                        .any(|o| matches!(o, Op::Open { .. }))
                })
                .collect();
            let writers = p.writer_ranks();
            // The failover domain is the ranks with a `WriteAt`. Where
            // that differs from the ranks with an `Open` (coIO: every
            // member opens the shared file, only aggregators write),
            // both lists meet a barrier, so takeover is refused either way.
            if opens != writers {
                assert!(
                    !failover_supported(&p, &opens) && !failover_supported(&p, &writers),
                    "{s:?}: opens {opens:?}, writers {writers:?}"
                );
            }
        }
        // The plans of the gated `exec` workloads run no barrier.
        for s in [Strategy::rbio(2), Strategy::OnePfpp] {
            assert_eq!(program(s).stats().barriers, 0, "{s:?}");
        }
    }

    #[test]
    fn execute_under_failover_returns_when_its_ranks_do() {
        // rbIO(2) with the monitor on and a 500 ms poll: the ranks finish
        // in milliseconds, and `execute` must not wait out the poll.
        use crate::strategy::{CheckpointSpec, Strategy};
        let layout = crate::layout::DataLayout::uniform(8, &[("u", 4096), ("v", 512)]);
        let plan = CheckpointSpec::new(layout, "mon")
            .strategy(Strategy::rbio(2))
            .plan()
            .unwrap();
        let writers = plan.program.writer_ranks();
        assert!(failover_supported(&plan.program, &writers), "{writers:?}");
        let dir = tmpdir("failover-returns");
        let policy = FailoverPolicy {
            enabled: true,
            dead_after: Duration::from_secs(4),
        };
        let cfg = ExecConfig::new(&dir).failover(policy);
        let payloads = crate::format::materialize_payloads(&plan, |_, _, b| b.fill(7));
        let t0 = Instant::now();
        let rep = execute(&plan.program, payloads, &cfg).unwrap();
        let took = t0.elapsed();
        assert!(took < Duration::from_millis(250), "execute took {took:?}");
        assert!(rep.failovers.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // polls the disk for the successor's commit
    fn a_hung_writer_is_taken_over_within_dead_after_and_one_poll() {
        // The monitor parks between polls, yet still wakes every poll: a
        // writer that hangs mid-generation is declared dead and its
        // extent committed by the successor long before it revives.
        let mut b = ProgramBuilder::new(vec![8, 8]);
        let fa = b.file_atomic("ta.bin", 8);
        let fb = b.file_atomic("tb.bin", 8);
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
        let dir = tmpdir("failover-takeover-time");
        let policy = FailoverPolicy {
            enabled: true,
            dead_after: Duration::from_millis(200),
        };
        let poll = policy.dead_after / 8;
        let hang = Duration::from_millis(1500);
        let cfg = ExecConfig::new(&dir)
            .faults(FaultPlan::none().hang_writer(0, hang))
            .failover(policy);
        let pay_a: Vec<u8> = (30..38).collect();
        let t0 = Instant::now();
        let taken_over = std::thread::scope(|scope| {
            let run = scope.spawn(|| execute(&p, vec![pay_a.clone(), vec![9; 8]], &cfg));
            while !dir.join("ta.bin").exists() && !run.is_finished() {
                std::thread::sleep(Duration::from_millis(1));
            }
            let taken_over = t0.elapsed();
            let rep = run.join().unwrap().unwrap();
            assert_eq!(rep.failovers, vec![(0, 1)]);
            taken_over
        });
        // The stall counts from the first poll that saw a beat; then the
        // takeover's own 8-byte write and commit.
        let bound = policy.dead_after + 2 * poll + Duration::from_millis(200);
        assert!(
            taken_over < bound && bound < hang,
            "taken over after {taken_over:?}, bound {bound:?}"
        );
        let bytes = std::fs::read(dir.join("ta.bin")).unwrap();
        assert_eq!(&bytes[..8], &pay_a[..]);
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
