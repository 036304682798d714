//! The one real interpreter of the plan IR.
//!
//! [`Interp`] executes one rank's op list: it owns that rank's staging
//! image (an [`ExtentMap`] of references to bytes already held — no
//! buffer of its own), open-file table and optional background flush
//! pipeline, and performs every pack, file op, commit, fault
//! consultation and controlled-scheduler yield. It reaches other
//! ranks only through a [`Transport`], so the three ways a plan runs for
//! real differ in the transport alone:
//!
//! * [`crate::exec::execute`] — bounded mailboxes, an abort flag,
//!   failover fencing on sends;
//! * [`crate::rt::checkpoint_rank_with`] — the application's
//!   [`crate::rt::Comm`];
//! * writer takeover — a successor re-running an orphan's ops, where a
//!   receive is *pulled* out of the sender's payload instead of waited
//!   for.
//!
//! All three read one [`ExecConfig`], borrowed for the run.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io;
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use rbio_plan::{DataRef, Op, Program, RESERVED_TAG_BASE};
use rbio_profile::counters;

use super::mailbox::MailError;
use super::{write_run_len, write_src, ExecConfig};
use crate::buf::{BufPool, Bytes};
use crate::commit;
use crate::extent::{ExtentMap, Piece, Source};
use crate::failover::FailoverDirector;
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
    /// A send or receive outlived its deadline.
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
    fn range(&self, off: u64, len: u64) -> &[u8] {
        let range = off as usize..(off + len) as usize;
        match self {
            Payload::Shared(b) => &b[range],
            Payload::Borrowed(s) => &s[range],
        }
    }

    fn owned(&self, off: u64, len: u64) -> Bytes {
        match self {
            Payload::Shared(b) => b.slice(off as usize..(off + len) as usize),
            Payload::Borrowed(_) => BufPool::global().copy_from_slice(self.range(off, len)),
        }
    }
}

/// Where a stretch of a rank's staging image lives.
#[derive(Clone)]
pub(crate) enum Src {
    /// The owner's payload, from this offset.
    Own(u64),
    /// Exactly the stretch's bytes: a received message, or a pooled
    /// buffer filled by `ReadAt` or with synthetic data.
    Buf(Bytes),
}

impl Source for Src {
    fn sub(&self, k: u64, n: u64) -> Src {
        match self {
            Src::Own(off) => Src::Own(off + k),
            Src::Buf(b) => Src::Buf(b.sub(k, n)),
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
    staging: ExtentMap<Src>,
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
        Interp {
            rank,
            owner,
            program,
            payload,
            cfg,
            director,
            transport,
            staging: ExtentMap::default(),
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

    /// The bytes `r` of staging source `src`, borrowed in place.
    fn src_bytes<'s>(&'s self, src: &'s Src, r: Range<u64>) -> &'s [u8] {
        match src {
            Src::Own(off) => self.payload.range(off + r.start, r.end - r.start),
            Src::Buf(b) => &b[r.start as usize..r.end as usize],
        }
    }

    /// Append `r`'s bytes to `out` without a copy, for a write that
    /// completes before its op retires: payload and staging pieces are
    /// borrowed in place, synthetic data and never-written staging are
    /// generated.
    fn gather<'s>(&'s self, r: &DataRef, file_off: u64, out: &mut Vec<Cow<'s, [u8]>>) {
        match *r {
            DataRef::Own { off, len } => out.push(Cow::Borrowed(self.payload.range(off, len))),
            DataRef::Staging { off, len } => out.extend(
                self.staging
                    .slices(off, len, |src, r| self.src_bytes(src, r)),
            ),
            DataRef::Synthetic { len } => out.push(Cow::Owned(
                (0..len).map(|i| synthetic_byte(file_off + i)).collect(),
            )),
        }
    }

    /// Append `r`'s bytes to `out` as owned, immutable [`Bytes`] — what a
    /// deferred (pipelined) write needs. A staging piece held by the map
    /// is an O(1) slice; a payload piece costs what [`Payload::owned`]
    /// costs; synthetic data and never-written staging are generated.
    fn gather_owned(&self, r: &DataRef, file_off: u64, out: &mut Vec<Bytes>) {
        match *r {
            DataRef::Own { off, len } => out.push(self.payload.owned(off, len)),
            DataRef::Staging { off, len } => {
                // Sized up front: the pieces cannot tell how many they are.
                out.reserve(self.staging.pieces(off, len).count());
                out.extend(self.staging.pieces(off, len).map(|p| match p {
                    Piece::Zeros(n) => BufPool::global().lease(n as usize).freeze(),
                    Piece::Data(Src::Own(o), r) => self.payload.owned(o + r.start, r.end - r.start),
                    Piece::Data(Src::Buf(b), r) => b.slice(r.start as usize..r.end as usize),
                }))
            }
            DataRef::Synthetic { len } => out.push(
                BufPool::global().from_fn(len as usize, |i| synthetic_byte(file_off + i as u64)),
            ),
        }
    }

    /// `r` as one message for a `Send`: what [`Self::gather_owned`] gives
    /// when that is one piece; a staging range over several segments is
    /// concatenated — one counted pooled copy, over every byte of a lease
    /// that skips the zero-fill.
    fn message(&self, r: &DataRef) -> Bytes {
        if let DataRef::Staging { off, len } = *r {
            if self.staging.pieces(off, len).nth(1).is_some() {
                let mut msg = BufPool::global().lease_to_overwrite(len as usize);
                self.staging
                    .read(off, &mut msg, |src, r| self.src_bytes(src, r));
                counters::add_bytes_copied(len);
                return msg.freeze();
            }
        }
        let mut one = Vec::with_capacity(1);
        self.gather_owned(r, 0, &mut one);
        one.pop().unwrap_or_default()
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
                // The simulator's op: the real interpreter only moves bytes.
                Op::Compute { .. } => {}
                Op::Pack {
                    src, staging_off, ..
                } => match *src {
                    // Packing lands a reference: no byte moves until a
                    // write or a send resolves it.
                    Some(DataRef::Staging { off, len }) => {
                        self.staging.copy_within(off, len, *staging_off)
                    }
                    Some(DataRef::Own { off, len }) => {
                        self.staging.put(*staging_off, len, Src::Own(off))
                    }
                    Some(DataRef::Synthetic { len }) => {
                        let data =
                            BufPool::global().from_fn(len as usize, |i| synthetic_byte(i as u64));
                        self.staging.put(*staging_off, len, Src::Buf(data));
                    }
                    None => {}
                },
                Op::Send { dst, tag, src } => {
                    let data = self.message(src);
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
                    // The received message itself becomes this stretch of
                    // the writer's staging image: aggregation moves no
                    // byte, the write that reads it gathers it.
                    self.staging.put(*staging_off, *bytes, Src::Buf(data));
                }
                Op::Barrier { comm } => {
                    // Barriers carry cross-rank happens-before edges (e.g.
                    // "all collective writes land before the owner
                    // commits"), so the pipeline must be empty on entry.
                    self.drain_pipe()?;
                    sched::emit(|| sched::Event::BarrierEnter { rank: self.rank });
                    self.barrier(comm.0)?;
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
                    // Overwritten end to end, or dropped with the error.
                    let mut data = BufPool::global().lease_to_overwrite(*len as usize);
                    f.read_exact_at(&mut data, *offset)?;
                    self.staging
                        .put(*staging_off, *len, Src::Buf(data.freeze()));
                }
                Op::Close { file } => self.close(file.0)?,
                Op::Commit { file } => self.commit(file.0)?,
            }
            i += 1;
        }
        self.drain_pipe()
    }

    /// Rendezvous with the other members of plan communicator `comm`: a
    /// flat fan-in/fan-out over its first member, one empty message each
    /// way per other member, under tag [`RESERVED_TAG_BASE`]` + comm`, so
    /// groups barrier independently, no plan `Recv` matches a barrier
    /// message, and a waiter times out or aborts as a `Recv` does.
    fn barrier(&mut self, comm: u32) -> Result<(), StepError> {
        if self.owner != self.rank {
            // A successor cannot stand in for an orphan at a collective.
            return Err(StepError::PlanMismatch(format!(
                "takeover of rank {} hit a barrier (unsupported plan shape)",
                self.owner
            )));
        }
        let members = &self.program.comms[comm as usize];
        let (leader, rest) = members.split_first().expect("validated: comm has members");
        let tag = RESERVED_TAG_BASE + u64::from(comm);
        if self.rank == *leader {
            for &m in rest {
                self.transport.recv(m, tag)?;
            }
            for &m in rest {
                self.transport.send(m, tag, Bytes::new())?;
            }
        } else {
            self.transport.send(*leader, tag, Bytes::new())?;
            self.transport.recv(*leader, tag)?;
        }
        Ok(())
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
    /// Tier-staged runs always coalesce: staging moves no byte and
    /// deliberately skips the per-write fault hooks, since the
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

        if stage.is_none() && self.pipe.is_none() {
            // Serial: the write completes before the op retires, so it
            // goes straight from the borrowed pieces — one gather, no copy.
            let f = self.files.get(&file).expect("validated: opened");
            let ctx = IoCtx::new(self.rank, 0, &self.cfg.faults);
            let mut srcs = Vec::new();
            for (src, at) in chunks {
                self.gather(src, at, &mut srcs);
            }
            let attempts = fault::write_at(&ctx, f, offset, &srcs)?;
            self.retries += u64::from(attempts);
            if self.cfg.fsync_on_close {
                pipeline::hint_writeback(f, offset, run_bytes);
            }
            return Ok(end);
        }
        // Deferred: the stage or the flush job owns the run's pieces —
        // slices of the immutable sources the staging map references, so
        // later staging ops never race with the background write.
        let mut bufs = Vec::new();
        for (src, at) in chunks {
            self.gather_owned(src, at, &mut bufs);
        }
        if let Some(stage) = stage {
            let name = &self.program.files[file as usize].name;
            stage
                .append_bytes(name, offset, &bufs)
                .map_err(io::Error::other)?;
        } else if let Some(pipe) = &self.pipe {
            let file = Arc::clone(self.files.get(&file).expect("validated: opened"));
            pipe.submit(if bufs.len() == 1 {
                let data = bufs.pop().expect("one piece");
                FlushJob::Write { file, offset, data }
            } else {
                FlushJob::WriteV { file, offset, bufs }
            })?;
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
            #[allow(clippy::disallowed_methods)] // the injected hang is the fault
            return std::thread::sleep(d);
        }
        if let Some(dir) = self.director {
            if d >= dir.policy().dead_after {
                let _ = dir.report_dead(self.rank);
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
