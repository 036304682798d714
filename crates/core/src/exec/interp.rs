//! The one real interpreter of the plan IR.
//!
//! [`Interp`] executes one rank's op list: it owns that rank's staging
//! image (leased from the [`BufPool`], frozen once the plan stops
//! mutating it — see [`Staging`]), open-file table and optional
//! background flush pipeline, and performs every pack, file op, commit,
//! fault consultation and controlled-scheduler yield. It reaches other
//! ranks only through a [`Transport`], so the three ways a plan runs for
//! real differ in the transport alone:
//!
//! * [`crate::exec::execute`] — bounded mailboxes, condvar barriers, an
//!   abort flag, failover fencing on sends;
//! * [`crate::rt::checkpoint_rank_with`] — the application's
//!   [`crate::rt::Comm`], barriers as tagged fan-in/fan-out messages;
//! * writer takeover — a successor re-running an orphan's ops, where a
//!   receive is *pulled* out of the sender's payload instead of waited
//!   for.
//!
//! All three read one [`ExecConfig`], borrowed for the run.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use rbio_plan::{DataRef, Op, Program};
use rbio_profile::counters;

use super::mailbox::MailError;
use super::{write_run_len, write_src, ExecConfig};
use crate::buf::{BufPool, Bytes, PooledBuf};
use crate::commit;
use crate::failover::{FailoverDirector, WriterHealth};
use crate::fault::{self, IoCtx};
use crate::format::synthetic_byte;
use crate::pipeline::{self, FlushJob, PipelineError, WriterHandle};
use crate::sched::{self, Point, Revert};
use crate::tier::TierStage;

/// What a rank was blocked on when its deadline passed.
#[derive(Debug)]
pub(crate) enum Blocked {
    Send { dst: u32, tag: u64 },
    Recv { src: u32, tag: u64 },
    Barrier,
}

/// Why a rank stopped mid-plan. Converted to `ExecError` / `RtError` at
/// the two entry points; inside, failover absorption and root-cause
/// reporting match on the variant instead of sniffing message text.
#[derive(Debug)]
pub(crate) enum StepError {
    /// Fault injection killed this rank — the only failure a successor
    /// may absorb.
    Killed,
    /// A *peer* failed and the run is being torn down; collateral, never
    /// the root cause.
    Aborted,
    /// A send, receive or barrier outlived its deadline.
    Timeout { op: Blocked, waited: Duration },
    /// A peer's endpoint is gone.
    PeerGone { peer: u32 },
    /// Plan and runtime state disagree.
    PlanMismatch(String),
    /// A file op failed (retries exhausted).
    Io(io::Error),
}

impl From<io::Error> for StepError {
    fn from(e: io::Error) -> Self {
        StepError::Io(e)
    }
}

impl From<fault::WriteError> for StepError {
    fn from(e: fault::WriteError) -> Self {
        e.into_io().map_or(StepError::Killed, StepError::Io)
    }
}

impl From<PipelineError> for StepError {
    fn from(e: PipelineError) -> Self {
        match e {
            PipelineError::Killed { .. } => StepError::Killed,
            PipelineError::Io(source) => StepError::Io(source),
        }
    }
}

impl MailError {
    /// The step failure of a rank whose `op` on `peer` ended this way.
    pub(crate) fn during(self, op: Blocked, peer: u32) -> StepError {
        match self {
            MailError::Aborted => StepError::Aborted,
            MailError::Disconnected => StepError::PeerGone { peer },
            MailError::Timeout(waited) => StepError::Timeout { op, waited },
        }
    }
}

/// How an [`Interp`] reaches other ranks. Called once per op, never per
/// byte.
pub(crate) trait Transport {
    /// Deliver `data` to `dst` under plan tag `tag`.
    fn send(&mut self, dst: u32, tag: u64, data: Bytes) -> Result<(), StepError>;
    /// The next message from `src` under plan tag `tag`.
    fn recv(&mut self, src: u32, tag: u64) -> Result<Bytes, StepError>;
    /// Rendezvous with the other members of plan communicator `comm`.
    fn barrier(&mut self, comm: u32) -> Result<(), StepError>;
    /// Called before every op; an `Err` stops the rank there.
    fn op_boundary(&mut self) -> Result<(), StepError> {
        Ok(())
    }
}

/// The rank's packed payload. `exec` shares one refcounted allocation
/// per rank, so an owned reference is an O(1) slice; `rt` borrows the
/// application's buffer for the duration of the call only, so owning
/// payload bytes costs one pooled copy — the MPI eager-buffer copy,
/// charged to the counters like any other.
pub(crate) enum Payload<'a> {
    Shared(&'a Bytes),
    Borrowed(&'a [u8]),
}

impl Payload<'_> {
    fn as_slice(&self) -> &[u8] {
        match self {
            Payload::Shared(b) => b,
            Payload::Borrowed(s) => s,
        }
    }

    fn owned(&self, off: usize, len: usize) -> Bytes {
        match self {
            Payload::Shared(b) => b.slice(off..off + len),
            Payload::Borrowed(s) => BufPool::global().copy_from_slice(&s[off..off + len]),
        }
    }
}

/// A rank's staging image along the buffer lifecycle: leased and mutable
/// while the plan still packs, receives or reads into it; frozen — in
/// O(1), no copy — by the first deferred write after the op list's last
/// such op, from when every reference to it is a refcounted slice.
enum Staging {
    Live(PooledBuf),
    Frozen(Bytes),
}

impl Staging {
    fn as_slice(&self) -> &[u8] {
        match self {
            Staging::Live(b) => b,
            Staging::Frozen(b) => b,
        }
    }

    /// The image for a `Pack`, `Recv` or `ReadAt` to write into.
    fn as_mut(&mut self) -> &mut [u8] {
        match self {
            Staging::Live(b) => b,
            Staging::Frozen(_) => unreachable!("staging frozen before the plan's last mutation"),
        }
    }

    fn freeze(&mut self) {
        if let Staging::Live(b) = self {
            *self = Staging::Frozen(std::mem::take(b).freeze());
        }
    }
}

/// One rank's execution state over transport `T`.
pub(crate) struct Interp<'a, T: Transport> {
    /// Who is executing: the identity faults are injected under and
    /// commits are attributed to.
    rank: u32,
    /// Whose op list, payload and files these are — `rank` itself,
    /// except for a successor re-running an orphaned writer's ops.
    owner: u32,
    program: &'a Program,
    payload: Payload<'a>,
    cfg: &'a ExecConfig,
    /// Present when failover is engaged for this run.
    director: Option<&'a FailoverDirector>,
    pub(crate) transport: T,
    staging: Staging,
    /// Index past the owner's last staging-mutating op (`Pack`, `Recv`,
    /// `ReadAt`): from here on the image is immutable and may freeze.
    staging_final_from: usize,
    files: HashMap<u32, Arc<File>>,
    /// Background flush pipeline (`pipeline_depth >= 2`).
    pipe: Option<WriterHandle>,
    /// Write attempts repeated after a transient error.
    pub(crate) retries: u64,
}

impl<'a, T: Transport> Interp<'a, T> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        rank: u32,
        owner: u32,
        program: &'a Program,
        payload: Payload<'a>,
        cfg: &'a ExecConfig,
        director: Option<&'a FailoverDirector>,
        transport: T,
        pipe: Option<WriterHandle>,
    ) -> Self {
        let mutates_staging =
            |op: &Op| matches!(op, Op::Pack { .. } | Op::Recv { .. } | Op::ReadAt { .. });
        Interp {
            rank,
            owner,
            program,
            payload,
            cfg,
            director,
            transport,
            staging: Staging::Live(
                BufPool::global().lease(program.staging[owner as usize] as usize),
            ),
            staging_final_from: program.ops[owner as usize]
                .iter()
                .rposition(mutates_staging)
                .map_or(0, |last| last + 1),
            files: HashMap::new(),
            pipe,
            retries: 0,
        }
    }

    /// Wait out and release the background pipeline (a no-op without
    /// one), so nothing of this rank's is still writing afterwards.
    pub(crate) fn quiesce(&mut self) {
        self.pipe.take();
    }

    /// Materialize `r` as an owned, immutable [`Bytes`] — what a `Send` or
    /// a deferred (pipelined) write needs. A payload reference costs what
    /// [`Payload::owned`] costs; a staging reference is an O(1) slice once
    /// the image is frozen and a pooled snapshot copy before that, because
    /// live staging is reused by later `Pack`/`Recv`/`ReadAt` ops. Every
    /// memcpy is charged to [`counters::add_bytes_copied`].
    fn resolve_owned(&self, r: &DataRef, file_off: u64) -> Bytes {
        match *r {
            DataRef::Own { off, len } => self.payload.owned(off as usize, len as usize),
            DataRef::Staging { off, len } => {
                let range = off as usize..(off + len) as usize;
                match &self.staging {
                    Staging::Frozen(image) => image.slice(range),
                    Staging::Live(image) => BufPool::global().copy_from_slice(&image[range]),
                }
            }
            DataRef::Synthetic { len } => {
                BufPool::global().from_fn(len as usize, |i| synthetic_byte(file_off + i as u64))
            }
        }
    }

    /// `r`'s bytes without a snapshot, for a write that completes before
    /// its op retires: payload and staging are borrowed in place,
    /// synthetic data is generated.
    fn borrow_src(&self, r: &DataRef, file_off: u64) -> Cow<'_, [u8]> {
        match *r {
            DataRef::Own { off, len } => {
                Cow::Borrowed(&self.payload.as_slice()[off as usize..(off + len) as usize])
            }
            DataRef::Staging { off, len } => {
                Cow::Borrowed(&self.staging.as_slice()[off as usize..(off + len) as usize])
            }
            DataRef::Synthetic { len } => {
                Cow::Owned((0..len).map(|i| synthetic_byte(file_off + i)).collect())
            }
        }
    }

    /// Run the owner's op list to completion.
    pub(crate) fn run(&mut self) -> Result<(), StepError> {
        // Copy out the `&'a Program` so indexed op access does not hold
        // a borrow of `self` across `&mut self` calls.
        let program = self.program;
        let ops = &program.ops[self.owner as usize];
        let mut i = 0;
        while i < ops.len() {
            sched::yield_now(Point::Progress);
            self.transport.op_boundary()?;
            match &ops[i] {
                Op::Compute { nanos } => {
                    if self.cfg.honor_compute {
                        std::thread::sleep(Duration::from_nanos(*nanos));
                    }
                }
                Op::Pack {
                    src,
                    staging_off,
                    bytes,
                } => match src {
                    Some(DataRef::Staging { off, len }) => {
                        counters::add_bytes_copied(*len);
                        let from = *off as usize..(off + len) as usize;
                        self.staging
                            .as_mut()
                            .copy_within(from, *staging_off as usize);
                    }
                    Some(s) => {
                        let data = self.resolve_owned(s, 0);
                        self.fill_staging(*staging_off, *bytes, &data);
                    }
                    None => {}
                },
                Op::Send { dst, tag, src } => {
                    let data = self.resolve_owned(src, 0);
                    // A successor forwards the orphan's sends as they
                    // are: the loss dice were rolled, and the attempt
                    // announced, under the orphan's own run.
                    if self.owner == self.rank {
                        let dropped = self.cfg.faults.on_send(self.rank, *dst);
                        sched::emit(|| sched::Event::SendAttempt {
                            rank: self.rank,
                            dst: *dst,
                            op_index: i,
                            dropped,
                        });
                        if dropped {
                            // Injected message loss: the receiver times
                            // out. Advancing `i` is the PR 3 fix —
                            // without it the op re-executes and, the
                            // drop budget being spent, delivers the
                            // "lost" message after all.
                            if !sched::reverted(Revert::Pr3FaultDrop) {
                                i += 1;
                            }
                            continue;
                        }
                    }
                    self.transport.send(*dst, tag.0, data)?;
                }
                Op::Recv {
                    src,
                    tag,
                    bytes,
                    staging_off,
                } => {
                    let data = self.transport.recv(*src, tag.0)?;
                    if data.len() as u64 != *bytes {
                        return Err(StepError::PlanMismatch(format!(
                            "recv size mismatch: want {bytes}, got {}",
                            data.len()
                        )));
                    }
                    // The one aggregation copy the plan IR mandates: the
                    // received chunk lands in this writer's staging image.
                    self.fill_staging(*staging_off, *bytes, &data);
                }
                Op::Barrier { comm } => {
                    // Barriers carry cross-rank happens-before edges (e.g.
                    // "all collective writes land before the owner
                    // commits"), so the pipeline must be empty on entry.
                    self.drain_pipe()?;
                    sched::emit(|| sched::Event::BarrierEnter { rank: self.rank });
                    self.transport.barrier(comm.0)?;
                }
                Op::Open { file, create } => self.open(file.0, *create)?,
                Op::WriteAt { file, offset, .. } => {
                    i = self.write_run(ops, i, file.0, *offset)?;
                    continue;
                }
                Op::ReadAt {
                    file,
                    offset,
                    len,
                    staging_off,
                } => {
                    // Read-after-write: pending flushes must land first.
                    self.drain_pipe()?;
                    let f = self.files.get(&file.0).expect("validated: opened");
                    let dst = &mut self.staging.as_mut()
                        [*staging_off as usize..*staging_off as usize + *len as usize];
                    f.read_exact_at(dst, *offset)?;
                }
                Op::Close { file } => self.close(file.0)?,
                Op::Commit { file } => self.commit(file.0)?,
            }
            i += 1;
        }
        self.drain_pipe()
    }

    fn fill_staging(&mut self, staging_off: u64, bytes: u64, data: &[u8]) {
        counters::add_bytes_copied(bytes);
        self.staging.as_mut()[staging_off as usize..(staging_off + bytes) as usize]
            .copy_from_slice(data);
    }

    /// The tier stage `file` diverts into: staging must be configured
    /// and the file atomic (non-atomic files always go to the PFS,
    /// since only committed files are drain-publishable).
    fn staged_for(&self, file: u32) -> Option<&'a Arc<TierStage>> {
        self.cfg
            .stage
            .as_ref()
            .filter(|_| self.program.files[file as usize].atomic)
    }

    fn final_path(&self, file: u32) -> PathBuf {
        self.cfg
            .base_dir
            .join(&self.program.files[file as usize].name)
    }

    fn open(&mut self, file: u32, create: bool) -> Result<(), StepError> {
        if self.staged_for(file).is_some() {
            // Tier-staged file: no filesystem object exists until the
            // drain engine publishes it.
            return Ok(());
        }
        // Atomic files live under their `.tmp` sibling until the owner's
        // `Commit` renames them into place.
        let mut path = self.final_path(file);
        if self.program.files[file as usize].atomic {
            path = commit::tmp_path(&path);
        }
        if create {
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let f = OpenOptions::new()
            .create(create)
            .truncate(create)
            .write(true)
            .read(true)
            .open(&path)?;
        self.files.insert(file, Arc::new(f));
        Ok(())
    }

    /// Execute the run of `WriteAt` ops starting at `ops[i]`; returns the
    /// index of the first op not consumed.
    ///
    /// Coalescing turns byte-contiguous same-file writes into one
    /// vectored write. It is skipped when faults are armed — the
    /// [`crate::fault::FaultPlan`] counts logical writes and its semantics
    /// are specified against plan ops, one write per op.
    /// Tier-staged runs always coalesce: a slab append is memory-speed
    /// and deliberately skips the per-write fault hooks, since the
    /// staged path's failure mode is losing the tier
    /// ([`crate::tier::TierEngine::lose_local`]), not a torn write.
    fn write_run(
        &mut self,
        ops: &[Op],
        i: usize,
        file: u32,
        offset: u64,
    ) -> Result<usize, StepError> {
        self.maybe_hang();
        let stage = self.staged_for(file);
        let coalesce = stage.is_some() || !self.cfg.faults.is_armed();
        let end = if coalesce {
            let (max_bytes, max_ops) = (self.cfg.coalesce_max_bytes, self.cfg.coalesce_max_ops);
            write_run_len(ops, i, file, offset, max_bytes, max_ops)
        } else {
            i + 1
        };
        let run = &ops[i..end];
        let run_bytes: u64 = run.iter().map(|o| write_src(o).len()).sum();
        counters::add_checkpoint_bytes(run_bytes);
        // Each chunk of the run with the file offset it lands at.
        let mut next = offset;
        let chunks = run.iter().map(|o| {
            let at = next;
            next += write_src(o).len();
            (write_src(o), at)
        });

        if let Some(stage) = stage {
            let name = &self.program.files[file as usize].name;
            for (src, at) in chunks {
                stage
                    .append(name, at, &self.borrow_src(src, at))
                    .map_err(io::Error::other)?;
            }
            return Ok(end);
        }
        // Deferred flush: each source leaves as owned `Bytes`, so the
        // background write never races with later staging reuse. Past the
        // plan's last staging mutation there is no later reuse: the image
        // freezes and every job gets a slice of it; before that a staging
        // source is snapshotted.
        if self.pipe.is_some() && i >= self.staging_final_from {
            self.staging.freeze();
        }
        let f = self.files.get(&file).expect("validated: opened");
        if let Some(pipe) = &self.pipe {
            let file = Arc::clone(f);
            pipe.submit(if run.len() == 1 {
                let data = self.resolve_owned(write_src(&run[0]), offset);
                FlushJob::Write { file, offset, data }
            } else {
                let bufs = chunks.map(|(s, at)| self.resolve_owned(s, at)).collect();
                FlushJob::WriteV { file, offset, bufs }
            })?;
            return Ok(end);
        }
        // Serial: the write completes before the op retires, so it goes
        // straight from the borrowed sources — no snapshot at all.
        let ctx = IoCtx {
            rank: self.rank,
            wid: 0,
            faults: &self.cfg.faults,
            write_retries: self.cfg.write_retries,
            retry_backoff: self.cfg.retry_backoff,
        };
        let (one, many); // a single-chunk run stays off the heap
        let srcs: &[Cow<'_, [u8]>] = if let [op] = run {
            one = [self.borrow_src(write_src(op), offset)];
            &one
        } else {
            many = chunks
                .map(|(s, at)| self.borrow_src(s, at))
                .collect::<Vec<_>>();
            &many
        };
        let attempts = fault::write_at(&ctx, f, offset, srcs)?;
        self.retries += u64::from(attempts);
        if self.cfg.fsync_on_close {
            pipeline::hint_writeback(f, offset, run_bytes);
        }
        Ok(end)
    }

    /// Consult the one-shot hang fault for this rank, if armed. A hang
    /// models a wedged writer: in production the thread genuinely sleeps
    /// and the monitor watches its heartbeat go stale; under a controlled
    /// scheduler wall-clock stalls would wreck determinism, so the rank
    /// announces the monitor's verdict for the injected duration itself
    /// and then yields so peers interleave. Either way the rank *revives*
    /// afterwards and runs on as a zombie — the fence at `Commit` is what
    /// keeps it from publishing.
    fn maybe_hang(&self) {
        let Some(d) = self.cfg.faults.take_hang(self.rank) else {
            return;
        };
        if !sched::registered() {
            return std::thread::sleep(d);
        }
        if let Some(dir) = self.director {
            match dir.policy().classify_stall(d) {
                WriterHealth::Dead => {
                    let _ = dir.report_dead(self.rank);
                }
                WriterHealth::Straggling => dir.report_straggling(self.rank),
                WriterHealth::Healthy => {}
            }
        }
        for _ in 0..4 {
            sched::yield_now(Point::Progress);
        }
    }

    fn drain_pipe(&mut self) -> Result<(), StepError> {
        if let Some(p) = &self.pipe {
            self.retries += p.drain()?;
        }
        Ok(())
    }

    /// An atomic file is synced once, by its `Commit`, after the footer
    /// is in it (whichever ranks wrote its pages: `sync_all` is per
    /// inode); closing it only retires the handle. A non-atomic file has
    /// no commit, so its `Close` is its durability point.
    fn close(&mut self, file: u32) -> Result<(), StepError> {
        let Some(f) = self.files.remove(&file) else {
            return Ok(());
        };
        let fsync = self.cfg.fsync_on_close && !self.program.files[file as usize].atomic;
        if let Some(pipe) = &self.pipe {
            pipe.submit(FlushJob::Close { file: f, fsync })?;
        } else if fsync {
            commit::sync_file(&f, &self.cfg.faults, self.rank)?;
        }
        Ok(())
    }

    fn commit(&mut self, file: u32) -> Result<(), StepError> {
        // Exactly one rank ever publishes an extent. A writer declared
        // dead (whose extent a successor now owns) is fenced: it must
        // never publish, even if it revives after a hang — the refusal is
        // absorbed, the zombie simply skips the rename and retires. A
        // successor publishes the orphan's extent only by winning the
        // director's per-extent CAS.
        let admitted = match self.director {
            None => true,
            Some(d) if self.owner == self.rank => d.allow_commit(self.rank),
            Some(d) => d.begin_commit(self.owner, file),
        };
        if !admitted {
            return Ok(());
        }
        let spec = &self.program.files[file as usize];
        if let Some(stage) = self.staged_for(file) {
            // Tier-staged: sealing is the whole commit; the drain engine
            // publishes to the PFS (footer + rename) in the background.
            stage.seal_file(&spec.name, spec.size);
            return Ok(());
        }
        let final_path = self.final_path(file);
        let tmp = commit::tmp_path(&final_path);
        let (size, fsync) = (spec.size, self.cfg.fsync_on_close);
        if let Some(pipe) = &self.pipe {
            // The commit fault check and the rename both run inside the
            // job, after this writer's data writes (FIFO) — commit stays
            // the last op on the owner.
            pipe.submit(FlushJob::Commit {
                tmp,
                final_path,
                size,
                fsync,
            })?;
            return Ok(());
        }
        let (faults, rank) = (&self.cfg.faults, self.rank);
        commit::commit_file_with_faults(&tmp, &final_path, size, fsync, faults, rank)?;
        sched::emit(|| sched::Event::ExtentCommit {
            owner: self.owner,
            by: self.rank,
            path_hash: sched::path_fingerprint(&final_path),
        });
        Ok(())
    }
}
