//! A small MPI-like in-process runtime.
//!
//! NekCEM-style applications are SPMD: every rank runs the same program on
//! its own data, communicating by message passing (§III-A). This module
//! provides that shape at in-process scale — one OS thread per rank, a
//! [`Comm`] handle with `send`/`recv`/`barrier` — so a
//! downstream application can write its compute loop naturally and call
//! [`checkpoint_rank`] collectively wherever it wants a checkpoint, with
//! every rank executing exactly its own slice of the compiled plan.
//!
//! [`checkpoint_rank_with`] runs the same interpreter as
//! [`crate::exec::execute`], under the same config ([`RtConfig`] is
//! [`ExecConfig`] by another name), over a transport built on [`Comm`]
//! (nonblocking sends, FIFO matching per `(src, tag)` channel); tests
//! assert that a plan executed rank-by-rank under this runtime produces
//! byte-identical files to `execute`. What differs is what an SPMD rank
//! can see: only its own payload, borrowed for the call (so owning payload
//! bytes costs the eager-buffer copy), and no shared abort flag or
//! failover director (so a dead peer surfaces as a typed timeout, and
//! writer takeover — which reads *other* ranks' payloads — is not offered).
//! The `Comm` owns the mailboxes and their timeout, so the config's
//! `recv_timeout` and `failover` do not apply here.

use std::io;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use rbio_plan::Program;

use crate::buf::Bytes;
use crate::exec::{
    run_ranks, Blocked, ExecConfig, Interp, Mailbox, Payload, StepError, Transport,
    DEFAULT_CHAN_CAPACITY,
};

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
            } => write!(
                f,
                "rank {rank}: no message from rank {src} tag {tag} within {waited:?}"
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
            StepError::Timeout {
                op: Blocked::Recv { src, tag },
                waited,
            } => RtError::RecvTimeout {
                rank,
                src,
                tag,
                waited,
            },
            StepError::PlanMismatch(what) => RtError::PlanMismatch { rank, what },
            // A file op failed. (`Aborted` lands here too, but never
            // arises over a `Comm`: it has no abort flag.)
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
    pub(crate) fn send_bytes(&self, dst: u32, tag: u64, data: Bytes) -> Result<(), RtError> {
        self.try_send(dst, tag, data)
            .map_err(|e| e.into_rt(self.rank))
    }

    fn try_send(&self, dst: u32, tag: u64, data: Bytes) -> Result<(), StepError> {
        self.member(dst)?;
        self.mail
            .send_as(self.rank, dst, tag, data)
            .map_err(|e| e.during(Blocked::Send { dst, tag }, dst))
    }

    /// A rank past `size()` has no mailbox to index and no message to await.
    fn member(&self, peer: u32) -> Result<(), StepError> {
        if peer >= self.size {
            let what = format!("rank {peer} is outside this {}-rank comm", self.size);
            return Err(StepError::PlanMismatch(what));
        }
        Ok(())
    }

    /// Blocking receive matching `(src, tag)`, FIFO per channel. Fails
    /// with [`RtError::RecvTimeout`] when nothing arrives in time.
    pub fn recv(&mut self, src: u32, tag: u64) -> Result<Vec<u8>, RtError> {
        self.recv_bytes(src, tag).map(Bytes::into_vec)
    }

    /// [`Comm::recv`] without the `Vec` conversion: the returned handle
    /// is the sender's buffer, not a copy.
    pub(crate) fn recv_bytes(&mut self, src: u32, tag: u64) -> Result<Bytes, RtError> {
        self.try_recv(src, tag).map_err(|e| e.into_rt(self.rank))
    }

    fn try_recv(&mut self, src: u32, tag: u64) -> Result<Bytes, StepError> {
        self.member(src)?;
        self.mail
            .recv(src, tag)
            .map_err(|e| e.during(Blocked::Recv { src, tag }, src))
    }

    /// Barrier across all ranks.
    pub fn barrier(&self) {
        self.world_barrier.wait();
    }
}

/// Run `f` on `nranks` ranks (one thread each) and collect the per-rank
/// return values in rank order. Each rank's mailbox is bounded (256
/// messages): a sender facing a full one blocks, and fails with
/// [`RtError::SendTimeout`] after the receive timeout.
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
#[allow(clippy::expect_used, reason = "a rank's panic re-raises in run")]
pub(crate) fn run_with_capacity<T, F>(nranks: u32, chan_capacity: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Comm) -> T + Sync,
{
    assert!(nranks >= 1);
    let mailboxes = Mailbox::mesh(nranks as usize, chan_capacity, Duration::from_secs(2));
    let world_barrier = Arc::new(Barrier::new(nranks as usize));
    let body = |rank, mail| {
        f(Comm {
            rank,
            size: nranks,
            mail,
            world_barrier: Arc::clone(&world_barrier),
        })
    };
    run_ranks(mailboxes, body)
        .into_iter()
        .map(|r| r.expect("rank thread must not panic"))
        .collect()
}

/// The config of [`checkpoint_rank_with`]: the interpreter's one config,
/// [`ExecConfig`], under the name `rt` callers (and `benchmark/`) use.
/// `recv_timeout` and `failover` are `execute`'s alone.
pub type RtConfig = ExecConfig;

/// Execute `rank`'s ops of a checkpoint `program` inside an application
/// thread, using its [`Comm`] for the messaging ops. Must be called by
/// *every* rank of the runtime with the same program (a collective call,
/// like the strategies' MPI originals). `payload` is this rank's packed
/// payload (see [`crate::format::materialize_payloads`]; a leased buffer
/// derefs to the slice, is only borrowed for the call, and recycles when
/// the application drops it).
///
/// Plan messages and plan barriers (a flat fan-in/fan-out to the group's
/// first rank) use tags ≥ 2⁶¹ over `comm`, so they do not interfere with
/// application messages as long as the application avoids those tags.
pub fn checkpoint_rank(
    comm: &mut Comm,
    program: &Program,
    payload: &[u8],
    base_dir: impl AsRef<Path>,
) -> Result<(), RtError> {
    checkpoint_rank_with(comm, program, payload, &RtConfig::new(base_dir))
}

/// [`checkpoint_rank`] with explicit durability/fault/retry configuration.
///
/// A `comm` whose size is not the plan's rank count, or a payload shorter
/// than the plan's for this rank, is [`RtError::PlanMismatch`] before any
/// op runs.
pub fn checkpoint_rank_with(
    comm: &mut Comm,
    program: &Program,
    payload: &[u8],
    cfg: &RtConfig,
) -> Result<(), RtError> {
    let rank = comm.rank();
    let mismatch = |what| Err(RtError::PlanMismatch { rank, what });
    // The size first: a larger `comm` has ranks the plan has no entry for.
    if comm.size() != program.nranks() {
        return mismatch(format!(
            "comm of {} ranks for a {}-rank plan",
            comm.size(),
            program.nranks()
        ));
    }
    let required = program.payload[rank as usize];
    if (payload.len() as u64) < required {
        return mismatch(format!(
            "payload {} bytes < required {required}",
            payload.len()
        ));
    }
    std::fs::create_dir_all(&cfg.base_dir).map_err(|source| RtError::Io { rank, source })?;
    // The "small worker thread pool behind rt": writer groups hand their
    // flushes to the shared pool so they progress concurrently with the
    // foreground aggregation of the next package.
    let pipe = cfg.writer(rank, None);
    let transport = CommTransport { comm };
    let payload = Payload::Borrowed(payload);
    Interp::new(rank, rank, program, payload, cfg, None, transport, pipe)
        .run()
        .map_err(|e| e.into_rt(rank))
}

/// Where plan tags start on the application's [`Comm`] (see
/// [`checkpoint_rank`]). A plan tag is below 2⁶¹ and the interpreter's
/// barrier tags sit just above (2⁶¹ + comm), so everything a checkpoint
/// sends lands in [2⁶¹, 2⁶³).
const PLAN_TAG_BASE: u64 = 1 << 61;

/// The interpreter's way to its peers under this runtime: the
/// application's own [`Comm`].
struct CommTransport<'a> {
    comm: &'a mut Comm,
}

impl Transport for CommTransport<'_> {
    fn send(&mut self, dst: u32, tag: u64, data: Bytes) -> Result<(), StepError> {
        self.comm.try_send(dst, PLAN_TAG_BASE + tag, data)
    }

    fn recv(&mut self, src: u32, tag: u64) -> Result<Bytes, StepError> {
        self.comm.try_recv(src, PLAN_TAG_BASE + tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buf::PooledBuf;
    use crate::exec::execute;
    use crate::fault::FaultPlan;
    use crate::format::materialize_payloads;
    use crate::layout::DataLayout;
    use crate::strategy::{CheckpointSpec, Strategy};
    use crate::tier::{DrainJob, TierEngine, TierStage};
    use rbio_profile::counters;
    use std::path::PathBuf;

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
        Arc::new(TierStage::with_budget(1, 1 << 20))
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
                comm.mail.timeout = Duration::from_millis(50);
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
                comm.mail.timeout = Duration::from_millis(50);
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
    fn out_of_range_peers_are_typed_errors() {
        let results = run(2, |mut comm| {
            vec![
                comm.send(2, 1, b"x").expect_err("send past the comm"),
                comm.send_bytes(7, 1, Bytes::new())
                    .expect_err("send_bytes past it"),
                comm.recv(2, 1).expect_err("recv past the comm"),
            ]
        });
        assert_eq!(results.iter().map(Vec::len).collect::<Vec<_>>(), [3, 3]);
        for (rank, errs) in results.into_iter().enumerate() {
            for e in errs {
                match e {
                    RtError::PlanMismatch { rank: r, .. } => assert_eq!(r, rank as u32),
                    other => panic!("rank {rank}: expected PlanMismatch, got {other}"),
                }
            }
        }
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

            // Tier-staged: under either entry point nothing reaches the
            // PFS before a drain, and every atomic file the drain then
            // lands there is the untiered run's, byte for byte.
            let (dir_se, dir_sr) = (tmpdir(&format!("se-{tag}")), tmpdir(&format!("sr-{tag}")));
            let (stage_e, stage_r) = (tier_stage(&dir_se), tier_stage(&dir_sr));
            let cfg_e = ExecConfig::new(&dir_se).stage(Arc::clone(&stage_e));
            execute(program, payloads.clone(), &cfg_e).expect("staged exec");
            let cfg_r = RtConfig::new(&dir_sr).stage(Arc::clone(&stage_r));
            run_rt(program, &payloads, &cfg_r);
            for (d, stage) in [(&dir_se, stage_e), (&dir_sr, stage_r)] {
                let atomic = || program.files.iter().filter(|f| f.atomic);
                for f in atomic() {
                    let pfs = d.join(&f.name);
                    assert!(!pfs.exists() && !crate::commit::tmp_path(&pfs).exists());
                }
                let engine = TierEngine::new(1);
                engine.submit(DrainJob {
                    step: 1,
                    stage,
                    pfs_dir: d.clone(),
                    burst_dir: None,
                    fsync: false,
                    publish: Box::new(|_| Ok(())),
                });
                engine.wait_durable(1).expect("drain");
                for f in atomic() {
                    let want = std::fs::read(dir_exec.join(&f.name)).expect("exec file");
                    let got = std::fs::read(d.join(&f.name)).expect("drained file");
                    assert!(got == want, "{strategy:?}: drained {} differs", f.name);
                }
            }
            for d in [dir_exec, dir_rt, dir_se, dir_sr] {
                std::fs::remove_dir_all(&d).ok();
            }
        }
    }

    /// Each rank's result must be the typed mismatch, naming that rank and
    /// `what` — and nothing may have been created on disk.
    fn assert_plan_mismatch(results: Vec<Result<(), RtError>>, what: &str, dir: &Path) {
        for (rank, res) in results.into_iter().enumerate() {
            match res {
                Err(RtError::PlanMismatch { rank: r, what: w }) => {
                    assert_eq!(r, rank as u32);
                    assert!(w.contains(what), "rank {rank}: {w}");
                }
                other => panic!("rank {rank}: expected PlanMismatch, got {other:?}"),
            }
        }
        assert!(!dir.exists(), "the call must refuse before any op runs");
    }

    #[test]
    fn short_payloads_are_a_typed_plan_mismatch() {
        let layout = DataLayout::uniform(4, &[("u", 256)]);
        let plan = CheckpointSpec::new(layout, "short")
            .strategy(Strategy::rbio(2))
            .plan()
            .expect("plan");
        let (program, dir) = (&plan.program, tmpdir("short-payload"));
        let results = run(program.nranks(), |mut comm| {
            let short = vec![0u8; program.payload[comm.rank() as usize] as usize - 1];
            checkpoint_rank_with(&mut comm, program, &short, &RtConfig::new(&dir))
        });
        assert_plan_mismatch(results, "payload", &dir);
    }

    #[test]
    fn a_comm_of_the_wrong_size_is_a_typed_plan_mismatch() {
        let layout = DataLayout::uniform(2, &[("u", 64)]);
        let plan = CheckpointSpec::new(layout, "size")
            .strategy(Strategy::OnePfpp)
            .plan()
            .expect("plan");
        let payloads = materialize_payloads(&plan, |_, _, buf| buf.fill(1));
        let (program, dir) = (&plan.program, tmpdir("wrong-size"));
        // Smaller and larger than the plan: the larger has a rank the
        // plan has no payload entry for.
        for nranks in [1, 3] {
            let results = run(nranks, |mut comm| {
                let payload = &payloads[comm.rank().min(1) as usize];
                checkpoint_rank_with(&mut comm, program, payload, &RtConfig::new(&dir))
            });
            assert_plan_mismatch(results, "2-rank plan", &dir);
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
                let cfg = RtConfig::new(dir).pipeline_depth(depth);
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
            u[0]
        });
        // The same three solves, run serially, give every rank's state.
        let mut want: Vec<f64> = (0..4).map(f64::from).collect();
        for _ in 0..3 {
            want = (0..4)
                .map(|r| 0.5 * (want[r] + want[(r + 3) % 4]))
                .collect();
        }
        assert_eq!(finals, want);
        std::fs::remove_dir_all(&dir).ok();
    }
}
