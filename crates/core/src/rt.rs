//! A small MPI-like in-process runtime.
//!
//! NekCEM-style applications are SPMD: every rank runs the same program on
//! its own data, communicating by message passing (§III-A). This module
//! provides that shape at in-process scale — one OS thread per rank, a
//! [`Comm`] handle with `send`/`recv`/`barrier`/reductions — so a
//! downstream application can write its compute loop naturally and call
//! [`checkpoint_rank`] collectively wherever it wants a checkpoint, with
//! every rank executing exactly its own slice of the compiled plan.
//!
//! [`checkpoint_rank_with`] runs the same interpreter as
//! [`crate::exec::execute`] over a transport built on [`Comm`]
//! (nonblocking sends, FIFO matching per `(src, tag)` channel); tests
//! assert that a plan executed rank-by-rank under this runtime produces
//! byte-identical files to `execute`. What differs is what an SPMD rank
//! can see: only its own payload, borrowed for the call (so owning payload
//! bytes costs the eager-buffer copy), and no shared abort flag or
//! failover director (so a dead peer surfaces as a typed timeout, and
//! writer takeover — which reads *other* ranks' payloads — is not offered).

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use rbio_plan::Program;

use crate::backend::BackendKind;
use crate::buf::{Bytes, CopyMode};
use crate::exec::{
    run_ranks, Blocked, Interp, Mailbox, Payload, StepError, Transport, View, DEFAULT_CHAN_CAPACITY,
};
use crate::failover::{FailoverPolicy, WriterHealth};
use crate::fault::FaultPlan;

/// A typed runtime failure, always carrying the failing rank.
#[derive(Debug)]
pub enum RtError {
    /// A peer's thread has exited: its channel endpoint is gone.
    PeerGone {
        /// Rank observing the failure.
        rank: u32,
        /// The vanished peer.
        peer: u32,
    },
    /// A send blocked on a full bounded mailbox for the whole deadline:
    /// the receiver is stalled (or slower than the sender's burst) and
    /// backpressure reached the surface instead of growing the heap.
    SendTimeout {
        /// Rank observing the failure.
        rank: u32,
        /// The backpressuring destination.
        dst: u32,
        /// Tag of the stuck message.
        tag: u64,
        /// How long the rank waited.
        waited: Duration,
    },
    /// No matching message arrived within the receive timeout (a lost
    /// handoff — e.g. a dropped worker→writer message).
    RecvTimeout {
        /// Rank observing the failure.
        rank: u32,
        /// Expected sender.
        src: u32,
        /// Expected tag.
        tag: u64,
        /// How long the rank waited.
        waited: Duration,
        /// The peer's health as classified by the failover policy derived
        /// from this receive timeout: a stall of the full timeout is past
        /// the dead deadline, so a recovery layer above the runtime can
        /// treat the sender as dead rather than merely slow.
        peer_health: WriterHealth,
    },
    /// An I/O error in the plan's file ops (retries exhausted).
    Io {
        /// Failing rank.
        rank: u32,
        /// Underlying error.
        source: io::Error,
    },
    /// Fault injection terminated the rank mid-plan.
    Killed {
        /// The killed rank.
        rank: u32,
    },
    /// Plan and runtime state disagree (wrong message size, bad call).
    PlanMismatch {
        /// Failing rank.
        rank: u32,
        /// Description.
        what: String,
    },
}

impl std::fmt::Display for RtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtError::PeerGone { rank, peer } => {
                write!(f, "rank {rank}: peer rank {peer} is gone")
            }
            RtError::SendTimeout {
                rank,
                dst,
                tag,
                waited,
            } => write!(
                f,
                "rank {rank}: rank {dst}'s mailbox stayed full for {waited:?} \
                 sending tag {tag} (stalled receiver?)"
            ),
            RtError::RecvTimeout {
                rank,
                src,
                tag,
                waited,
                peer_health,
            } => write!(
                f,
                "rank {rank}: no message from rank {src} tag {tag} within {waited:?} \
                 (peer classified {peer_health:?})"
            ),
            RtError::Io { rank, source } => write!(f, "rank {rank}: {source}"),
            RtError::Killed { rank } => write!(f, "rank {rank}: killed by fault injection"),
            RtError::PlanMismatch { rank, what } => write!(f, "rank {rank}: {what}"),
        }
    }
}

impl std::error::Error for RtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RtError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl StepError {
    /// The typed runtime error `rank` reports for this failure.
    fn into_rt(self, rank: u32) -> RtError {
        match self {
            StepError::Killed => RtError::Killed { rank },
            StepError::PeerGone { peer } => RtError::PeerGone { rank, peer },
            StepError::Timeout {
                op: Blocked::Send { dst, tag },
                waited,
            } => RtError::SendTimeout {
                rank,
                dst,
                tag,
                waited,
            },
            // The silent peer is classified through the failover health
            // state machine: a stall of the full timeout is past the
            // dead deadline derived from it.
            StepError::Timeout {
                op: Blocked::Recv { src, tag },
                waited,
            } => RtError::RecvTimeout {
                rank,
                src,
                tag,
                waited,
                peer_health: FailoverPolicy::from_recv_timeout(waited).classify_stall(waited),
            },
            StepError::PlanMismatch(what) => RtError::PlanMismatch { rank, what },
            // A file op failed. (`Aborted` and barrier timeouts land here
            // too, but never arise over a `Comm`: it has no abort flag and
            // its barriers are messages.)
            e => RtError::Io {
                rank,
                source: e.into_io(rank),
            },
        }
    }
}

/// Communicator handle owned by one rank's thread.
pub struct Comm {
    rank: u32,
    size: u32,
    mail: Mailbox,
    world_barrier: Arc<Barrier>,
    reduce_slots: Arc<Vec<Mutex<Vec<f64>>>>,
}

impl Comm {
    /// This rank's id.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Total ranks.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// How long `recv` waits before failing with [`RtError::RecvTimeout`]
    /// (default 2 s), and how long a backpressured `send` waits on a full
    /// mailbox before failing with [`RtError::SendTimeout`]. A timeout
    /// turns a lost message (or a stalled receiver) into a typed error
    /// instead of a hang.
    pub fn set_recv_timeout(&mut self, timeout: Duration) {
        self.mail.timeout = timeout;
    }

    /// Nonblocking-style send while the destination's bounded mailbox
    /// has room (`MPI_Isend` with eager buffering: the one copy into the
    /// eager buffer happens here). A full mailbox blocks — that bounded
    /// wait is the runtime's backpressure, capping resident queue bytes
    /// at the mailbox capacity — and fails with [`RtError::SendTimeout`]
    /// after the timeout. Fails with [`RtError::PeerGone`] if the
    /// destination rank's thread has already exited.
    pub fn send(&self, dst: u32, tag: u64, data: &[u8]) -> Result<(), RtError> {
        self.send_bytes(dst, tag, Bytes::from_vec(data.to_vec()))
    }

    /// [`Comm::send`] for callers that already own the bytes: the buffer
    /// moves into the channel with no copy at all.
    pub fn send_bytes(&self, dst: u32, tag: u64, data: Bytes) -> Result<(), RtError> {
        self.try_send(dst, tag, data)
            .map_err(|e| e.into_rt(self.rank))
    }

    fn try_send(&self, dst: u32, tag: u64, data: Bytes) -> Result<(), StepError> {
        self.mail
            .send_as(self.rank, dst, tag, data)
            .map_err(|e| e.during(Blocked::Send { dst, tag }, dst))
    }

    /// Blocking receive matching `(src, tag)`, FIFO per channel. Fails
    /// with [`RtError::RecvTimeout`] when nothing arrives in time.
    pub fn recv(&mut self, src: u32, tag: u64) -> Result<Vec<u8>, RtError> {
        self.recv_bytes(src, tag).map(Bytes::into_vec)
    }

    /// [`Comm::recv`] without the `Vec` conversion: the returned handle
    /// is the sender's buffer, not a copy.
    pub fn recv_bytes(&mut self, src: u32, tag: u64) -> Result<Bytes, RtError> {
        self.try_recv(src, tag).map_err(|e| e.into_rt(self.rank))
    }

    fn try_recv(&mut self, src: u32, tag: u64) -> Result<Bytes, StepError> {
        self.mail
            .recv(src, tag)
            .map_err(|e| e.during(Blocked::Recv { src, tag }, src))
    }

    /// Barrier across all ranks.
    pub fn barrier(&self) {
        self.world_barrier.wait();
    }

    /// All-reduce a double with `op` (commutative); returns the reduction
    /// of every rank's contribution. Implemented as a shared slot vector
    /// plus two barriers — fine at in-process scale.
    pub fn allreduce_f64(&self, value: f64, op: impl Fn(f64, f64) -> f64) -> f64 {
        {
            let mut slot = self.reduce_slots[0].lock().expect("no poisoned locks");
            slot[self.rank as usize] = value;
        }
        self.barrier();
        let result = {
            let slot = self.reduce_slots[0].lock().expect("no poisoned locks");
            slot.iter().copied().reduce(&op).expect("nonempty")
        };
        self.barrier();
        result
    }

    /// Broadcast `data` from `root` to every rank; returns the payload.
    pub fn broadcast(&mut self, root: u32, data: Option<&[u8]>) -> Result<Vec<u8>, RtError> {
        const BCAST_TAG: u64 = u64::MAX - 1;
        if self.rank == root {
            let d = data.expect("root must supply the payload");
            for r in 0..self.size {
                if r != root {
                    self.send(r, BCAST_TAG, d)?;
                }
            }
            Ok(d.to_vec())
        } else {
            self.recv(root, BCAST_TAG)
        }
    }
}

/// Run `f` on `nranks` ranks (one thread each) and collect the per-rank
/// return values in rank order. Rank mailboxes hold
/// [`DEFAULT_CHAN_CAPACITY`] messages; see [`run_with_capacity`].
pub fn run<T, F>(nranks: u32, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Comm) -> T + Sync,
{
    run_with_capacity(nranks, DEFAULT_CHAN_CAPACITY, f)
}

/// [`run`] with an explicit per-rank mailbox capacity. Mailboxes are
/// bounded `sync_channel`s: a sender facing a full mailbox blocks (so a
/// burst or a stalled receiver caps resident queue bytes at
/// `chan_capacity` messages) and fails with [`RtError::SendTimeout`]
/// after the receive-timeout deadline.
pub fn run_with_capacity<T, F>(nranks: u32, chan_capacity: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Comm) -> T + Sync,
{
    assert!(nranks >= 1);
    let mailboxes = Mailbox::mesh(nranks as usize, chan_capacity, Duration::from_secs(2));
    let world_barrier = Arc::new(Barrier::new(nranks as usize));
    let reduce_slots = Arc::new(vec![Mutex::new(vec![0.0; nranks as usize])]);
    let body = |rank, mail| {
        f(Comm {
            rank,
            size: nranks,
            mail,
            world_barrier: Arc::clone(&world_barrier),
            reduce_slots: Arc::clone(&reduce_slots),
        })
    };
    run_ranks(mailboxes, body)
        .into_iter()
        .map(|r| r.expect("rank thread must not panic"))
        .collect()
}

/// Configuration for [`checkpoint_rank_with`]: target directory plus the
/// same durability/fault/retry knobs as [`crate::exec::ExecConfig`].
#[derive(Debug, Clone)]
pub struct RtConfig {
    /// Directory all plan file names are resolved against.
    pub base_dir: PathBuf,
    /// Make every file durable before the call returns. Atomic files are
    /// synced once, at commit (footer, one `fsync`, rename, directory
    /// `fsync`); non-atomic files by their `Close`. See
    /// [`crate::exec::ExecConfig::fsync_on_close`].
    pub fsync_on_close: bool,
    /// Faults to inject (inert by default).
    pub faults: FaultPlan,
    /// Retries per `WriteAt` on a transient error before giving up.
    pub write_retries: u32,
    /// Initial backoff between retries (doubles each attempt).
    pub retry_backoff: Duration,
    /// Outstanding background flush jobs per writer, served by the
    /// shared [`FlushPool`] worker threads. `1` (default) is the serial
    /// path; `≥ 2` overlaps aggregation with disk writes while keeping
    /// output byte-identical (see [`crate::pipeline`]).
    pub pipeline_depth: u32,
    /// Seed-derived jitter before each background job, for deterministic
    /// interleaving sweeps in equivalence tests.
    pub pipeline_jitter: Option<u64>,
    /// Datapath copy discipline — see [`crate::exec::ExecConfig::copy_mode`].
    pub copy_mode: CopyMode,
    /// When set, atomic plan files divert into this node-local tier
    /// stage instead of the filesystem — see
    /// [`crate::exec::ExecConfig::stage`].
    pub stage: Option<Arc<crate::tier::TierStage>>,
    /// I/O backend for the background flush pipeline — see
    /// [`crate::exec::ExecConfig::io_backend`].
    pub io_backend: BackendKind,
    /// Cap on one coalesced vectored write, bytes — see
    /// [`crate::exec::ExecConfig::coalesce_max_bytes`].
    pub coalesce_max_bytes: u64,
    /// Cap on chunks per coalesced vectored write.
    pub coalesce_max_ops: usize,
}

impl RtConfig {
    /// Config writing under `base_dir`, no fsync, no faults.
    pub fn new(base_dir: impl AsRef<Path>) -> Self {
        RtConfig {
            base_dir: base_dir.as_ref().to_path_buf(),
            fsync_on_close: false,
            faults: FaultPlan::none(),
            write_retries: 3,
            retry_backoff: Duration::from_micros(500),
            pipeline_depth: 1,
            pipeline_jitter: None,
            copy_mode: CopyMode::ZeroCopy,
            stage: None,
            io_backend: BackendKind::Default,
            coalesce_max_bytes: crate::exec::DEFAULT_COALESCE_BYTES,
            coalesce_max_ops: crate::exec::DEFAULT_COALESCE_OPS,
        }
    }

    /// Cap coalesced vectored writes — see
    /// [`crate::exec::ExecConfig::coalesce_caps`].
    pub fn coalesce_caps(mut self, max_bytes: u64, max_ops: usize) -> Self {
        self.coalesce_max_bytes = max_bytes.max(1);
        self.coalesce_max_ops = max_ops.max(1);
        self
    }

    /// Replace the fault plan.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Select the datapath copy discipline.
    pub fn copy_mode(mut self, mode: CopyMode) -> Self {
        self.copy_mode = mode;
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

    fn view(&self) -> View<'_> {
        View {
            base_dir: &self.base_dir,
            fsync: self.fsync_on_close,
            honor_compute: false,
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

/// Execute `rank`'s ops of a checkpoint `program` inside an application
/// thread, using its [`Comm`] for the messaging ops. Must be called by
/// *every* rank of the runtime with the same program (a collective call,
/// like the strategies' MPI originals). `payload` is this rank's packed
/// payload (see [`crate::format::materialize_payloads`]; a leased buffer
/// derefs to the slice, is only borrowed for the call, and recycles when
/// the application drops it).
///
/// Plan barriers use dedicated tags over `comm` (a flat fan-in/fan-out to
/// the group's first rank), so they do not interfere with application
/// messages as long as the application avoids tags ≥ 2⁶¹.
pub fn checkpoint_rank(
    comm: &mut Comm,
    program: &Program,
    payload: &[u8],
    base_dir: impl AsRef<Path>,
) -> Result<(), RtError> {
    checkpoint_rank_with(comm, program, payload, &RtConfig::new(base_dir))
}

/// [`checkpoint_rank`] with explicit durability/fault/retry configuration.
pub fn checkpoint_rank_with(
    comm: &mut Comm,
    program: &Program,
    payload: &[u8],
    cfg: &RtConfig,
) -> Result<(), RtError> {
    let rank = comm.rank();
    assert_eq!(
        comm.size(),
        program.nranks(),
        "collective call on all ranks"
    );
    assert!(
        payload.len() as u64 >= program.payload[rank as usize],
        "payload too small for rank {rank}"
    );
    std::fs::create_dir_all(&cfg.base_dir).map_err(|source| RtError::Io { rank, source })?;
    let view = cfg.view();
    // The "small worker thread pool behind rt": writer groups hand their
    // flushes to the shared pool so they progress concurrently with the
    // foreground aggregation of the next package.
    let pipe = view.writer(rank, None, None);
    let transport = CommTransport { comm, program };
    let payload = Payload::Borrowed(payload);
    Interp::new(rank, rank, program, payload, view, None, transport, pipe)
        .run()
        .map_err(|e| e.into_rt(rank))
}

/// Tag spaces of plan messages and plan barriers on the application's
/// [`Comm`] (see [`checkpoint_rank`]).
const PLAN_TAG_BASE: u64 = 1 << 61;
const BARRIER_TAG_BASE: u64 = 1 << 62;

/// The interpreter's way to its peers under this runtime: the
/// application's own [`Comm`].
struct CommTransport<'a> {
    comm: &'a mut Comm,
    program: &'a Program,
}

impl Transport for CommTransport<'_> {
    fn send(&mut self, dst: u32, tag: u64, data: Bytes) -> Result<(), StepError> {
        self.comm.try_send(dst, PLAN_TAG_BASE + tag, data)
    }

    fn recv(&mut self, src: u32, tag: u64) -> Result<Bytes, StepError> {
        self.comm.try_recv(src, PLAN_TAG_BASE + tag)
    }

    /// Flat fan-in/fan-out over the group's first rank, using a per-comm
    /// tag so concurrent groups stay independent.
    fn barrier(&mut self, cid: u32) -> Result<(), StepError> {
        let members = &self.program.comms[cid as usize];
        let leader = members[0];
        let tag = BARRIER_TAG_BASE + u64::from(cid);
        if self.comm.rank == leader {
            for &m in &members[1..] {
                self.comm.try_recv(m, tag)?;
            }
            for &m in &members[1..] {
                self.comm.try_send(m, tag, Bytes::new())?;
            }
        } else {
            self.comm.try_send(leader, tag, Bytes::new())?;
            self.comm.try_recv(leader, tag)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buf::PooledBuf;
    use crate::exec::{execute, ExecConfig};
    use crate::format::materialize_payloads;
    use crate::layout::DataLayout;
    use crate::strategy::{CheckpointSpec, Strategy};
    use crate::tier::{SlabPool, TierStage};
    use rbio_profile::counters;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("rbio-rt-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    /// `checkpoint_rank_with` called collectively, one rank per payload.
    fn run_rt(program: &Program, payloads: &[PooledBuf], cfg: &RtConfig) {
        run(program.nranks(), |mut comm| {
            let rank = comm.rank() as usize;
            checkpoint_rank_with(&mut comm, program, &payloads[rank], cfg).expect("rt checkpoint");
        });
    }

    fn tier_stage(dir: &Path) -> Arc<TierStage> {
        std::fs::create_dir_all(dir).expect("stage dir");
        let slab = SlabPool::create(&dir.join("gen.slab"), 1 << 20).expect("slab");
        Arc::new(TierStage::new(1, Arc::new(slab)))
    }

    #[test]
    fn send_recv_and_barrier() {
        let results = run(4, |mut comm| {
            let r = comm.rank();
            // Ring: send to the right, receive from the left.
            comm.send((r + 1) % 4, 7, &[r as u8; 3]).expect("send");
            let left = comm.recv((r + 3) % 4, 7).expect("recv");
            comm.barrier();
            left[0]
        });
        assert_eq!(results, vec![3, 0, 1, 2]);
    }

    #[test]
    fn out_of_order_tags_are_stashed() {
        let results = run(2, |mut comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, b"one").expect("send");
                comm.send(1, 2, b"two").expect("send");
                0
            } else {
                // Receive in reverse order.
                let two = comm.recv(0, 2).expect("recv");
                let one = comm.recv(0, 1).expect("recv");
                assert_eq!(two, b"two");
                assert_eq!(one, b"one");
                1
            }
        });
        assert_eq!(results, vec![0, 1]);
    }

    #[test]
    fn recv_times_out_with_typed_error() {
        let errs = run(2, |mut comm| {
            if comm.rank() == 0 {
                comm.set_recv_timeout(Duration::from_millis(50));
                // Nobody ever sends on tag 99.
                Some(comm.recv(1, 99).expect_err("must time out"))
            } else {
                None
            }
        });
        match errs[0].as_ref().expect("rank 0 result") {
            RtError::RecvTimeout {
                rank: 0,
                src: 1,
                tag: 99,
                ..
            } => {}
            other => panic!("expected RecvTimeout, got {other}"),
        }
    }

    #[test]
    fn stalled_receiver_bounds_resident_queue_and_times_out() {
        // The pre-PR unbounded channel let a burst against a stalled
        // receiver land every message (unbounded resident bytes). With
        // bounded mailboxes exactly `cap` messages land, the next send
        // blocks, and the typed timeout surfaces.
        let before = counters::service_snapshot();
        let cap = 4usize;
        let sent = run_with_capacity(2, cap, |mut comm| {
            if comm.rank() == 0 {
                comm.set_recv_timeout(Duration::from_millis(50));
                let mut ok = 0usize;
                let err = loop {
                    match comm.send(1, 5, &[7u8; 1024]) {
                        Ok(()) => ok += 1,
                        Err(e) => break e,
                    }
                    assert!(
                        ok <= cap,
                        "unbounded queueing: {ok} sends landed in a capacity-{cap} mailbox"
                    );
                };
                match err {
                    RtError::SendTimeout {
                        rank: 0,
                        dst: 1,
                        tag: 5,
                        ..
                    } => {}
                    other => panic!("expected SendTimeout, got {other}"),
                }
                comm.barrier();
                ok
            } else {
                // Stalled receiver: never drains its mailbox.
                comm.barrier();
                0
            }
        });
        assert_eq!(sent[0], cap, "resident queue must cap at the mailbox size");
        let delta = counters::service_snapshot().delta_since(&before);
        assert!(delta.send_backpressure_blocks >= 1, "block must be counted");
        assert!(
            delta.send_backpressure_timeouts >= 1,
            "timeout must be counted"
        );
    }

    #[test]
    fn allreduce_and_broadcast() {
        let sums = run(5, |comm| {
            comm.allreduce_f64(f64::from(comm.rank()) + 1.0, |a, b| a + b)
        });
        assert!(sums.iter().all(|&s| (s - 15.0).abs() < 1e-12));
        let payloads = run(3, |mut comm| {
            if comm.rank() == 1 {
                comm.broadcast(1, Some(b"mesh")).expect("broadcast")
            } else {
                comm.broadcast(1, None).expect("broadcast")
            }
        });
        assert!(payloads.iter().all(|p| p == b"mesh"));
    }

    #[test]
    fn plan_under_rt_matches_exec_byte_for_byte() {
        let layout = DataLayout::uniform(8, &[("Ex", 2048), ("Hy", 512)]);
        let fill = |rank: u32, field: usize, buf: &mut [u8]| {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = (rank as usize * 13 + field * 5 + i) as u8;
            }
        };
        for strategy in [Strategy::rbio(2), Strategy::coio(2), Strategy::OnePfpp] {
            let plan = CheckpointSpec::new(layout.clone(), "rt")
                .strategy(strategy)
                .plan()
                .expect("plan");
            let payloads = materialize_payloads(&plan, fill);

            let tag = format!("{strategy:?}").replace([' ', ':', '{', '}'], "");
            let dir_exec = tmpdir(&format!("exec-{tag}"));
            execute(&plan.program, payloads.clone(), &ExecConfig::new(&dir_exec)).expect("exec");

            let dir_rt = tmpdir(&format!("rt-{tag}"));
            let program = &plan.program;
            run_rt(program, &payloads, &RtConfig::new(&dir_rt));

            for pf in &plan.plan_files {
                let a = std::fs::read(dir_exec.join(&pf.name)).expect("exec file");
                let b = std::fs::read(dir_rt.join(&pf.name)).expect("rt file");
                assert_eq!(a, b, "{strategy:?}: {} differs", pf.name);
            }

            // Tier-staged: under either entry point every atomic file's
            // logical image lands in the slab, and nothing reaches the
            // PFS before a drain.
            let (dir_se, dir_sr) = (tmpdir(&format!("se-{tag}")), tmpdir(&format!("sr-{tag}")));
            let (stage_e, stage_r) = (tier_stage(&dir_se), tier_stage(&dir_sr));
            let cfg_e = ExecConfig::new(&dir_se).stage(Arc::clone(&stage_e));
            execute(program, payloads.clone(), &cfg_e).expect("staged exec");
            let cfg_r = RtConfig::new(&dir_sr).stage(Arc::clone(&stage_r));
            run_rt(program, &payloads, &cfg_r);
            for f in program.files.iter().filter(|f| f.atomic) {
                let want = std::fs::read(dir_exec.join(&f.name)).expect("exec file");
                let got = stage_r.assemble(&f.name).expect("rt sealed the file");
                assert_eq!(got, want[..f.size as usize], "{strategy:?}: {}", f.name);
                assert_eq!(stage_e.assemble(&f.name), Some(got), "{strategy:?}");
                for d in [&dir_se, &dir_sr] {
                    let pfs = d.join(&f.name);
                    assert!(!pfs.exists() && !crate::commit::tmp_path(&pfs).exists());
                }
            }
            for d in [dir_exec, dir_rt, dir_se, dir_sr] {
                std::fs::remove_dir_all(&d).ok();
            }
        }
    }

    #[test]
    fn hung_writer_stalls_then_completes_under_rt() {
        // `rt` has no failover, so a hang is just a stall: the one-shot
        // must be consumed, the stall served, and the output unchanged.
        let layout = DataLayout::uniform(4, &[("u", 256)]);
        let plan = CheckpointSpec::new(layout, "hang")
            .strategy(Strategy::rbio(2))
            .plan()
            .expect("plan");
        let payloads = materialize_payloads(&plan, |rank, _, buf| buf.fill(rank as u8 + 1));
        let writer = 0; // rbIO writers lead their groups
        let (dir_ref, dir_hang) = (tmpdir("hang-ref"), tmpdir("hang"));
        run_rt(&plan.program, &payloads, &RtConfig::new(&dir_ref));
        let stall = Duration::from_millis(50);
        let faults = FaultPlan::none().hang_writer(writer, stall);
        let cfg = RtConfig::new(&dir_hang).faults(faults.clone());
        let t0 = std::time::Instant::now();
        run_rt(&plan.program, &payloads, &cfg);
        assert!(t0.elapsed() >= stall, "the hang must be served");
        assert_eq!(faults.take_hang(writer), None, "one-shot consumed");
        for pf in &plan.plan_files {
            let a = std::fs::read(dir_ref.join(&pf.name)).expect("reference file");
            let b = std::fs::read(dir_hang.join(&pf.name)).expect("hung-run file");
            assert_eq!(a, b, "{} differs", pf.name);
        }
        std::fs::remove_dir_all(&dir_ref).ok();
        std::fs::remove_dir_all(&dir_hang).ok();
    }

    #[test]
    fn pipelined_rt_matches_serial_rt_byte_for_byte() {
        let layout = DataLayout::uniform(8, &[("Ex", 2048), ("Hy", 512)]);
        let fill = |rank: u32, field: usize, buf: &mut [u8]| {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = (rank as usize * 31 + field * 7 + i) as u8;
            }
        };
        for strategy in [Strategy::rbio(2), Strategy::coio(2), Strategy::OnePfpp] {
            let plan = CheckpointSpec::new(layout.clone(), "rtp")
                .strategy(strategy)
                .plan()
                .expect("plan");
            let payloads = materialize_payloads(&plan, fill);
            let tag = format!("{strategy:?}").replace([' ', ':', '{', '}'], "");
            let dir_serial = tmpdir(&format!("ps-{tag}"));
            let dir_pipe = tmpdir(&format!("pp-{tag}"));
            for (dir, depth) in [(&dir_serial, 1u32), (&dir_pipe, 3)] {
                let cfg = RtConfig::new(dir).pipeline_depth(depth).pipeline_jitter(11);
                run_rt(&plan.program, &payloads, &cfg);
            }
            for pf in &plan.plan_files {
                let a = std::fs::read(dir_serial.join(&pf.name)).expect("serial file");
                let b = std::fs::read(dir_pipe.join(&pf.name)).expect("pipelined file");
                assert_eq!(a, b, "{strategy:?}: {} differs", pf.name);
                assert!(!dir_pipe.join(format!("{}.tmp", pf.name)).exists());
            }
            std::fs::remove_dir_all(&dir_serial).ok();
            std::fs::remove_dir_all(&dir_pipe).ok();
        }
    }

    #[test]
    fn app_loop_with_interleaved_checkpoints() {
        // An SPMD app: iterate, halo-exchange, checkpoint mid-loop.
        let layout = DataLayout::uniform(4, &[("u", 64)]);
        let plan = CheckpointSpec::new(layout, "loop")
            .strategy(Strategy::rbio(1))
            .plan()
            .expect("plan");
        let dir = tmpdir("app-loop");
        let program = &plan.program;
        let dir_ref = &dir;
        let finals = run(4, |mut comm| {
            let r = comm.rank();
            let mut u = [f64::from(r); 16];
            for _ in 0..3 {
                // "Solve": average with the left neighbour's edge value.
                comm.send((r + 1) % 4, 42, &u[15].to_le_bytes())
                    .expect("send");
                let left = comm.recv((r + 3) % 4, 42).expect("recv");
                let left = f64::from_le_bytes(left.try_into().expect("8 bytes"));
                for v in u.iter_mut() {
                    *v = 0.5 * (*v + left);
                }
                // Checkpoint collectively with the current state.
                let mut payload = vec![0u8; program.payload[r as usize] as usize];
                for (i, v) in u.iter().take(8).enumerate() {
                    payload[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
                }
                checkpoint_rank(&mut comm, program, &payload, dir_ref).expect("checkpoint");
                comm.barrier();
            }
            comm.allreduce_f64(u[0], |a, b| a + b)
        });
        // Everybody agrees on the reduction.
        assert!(finals.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12));
        std::fs::remove_dir_all(&dir).ok();
    }
}
