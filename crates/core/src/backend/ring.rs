//! A portable completion-queue core and the [`RingBackend`] built on
//! it.
//!
//! [`RingCore`] is the submission/completion *state machine* of a kernel
//! ring such as io_uring — bounded in-flight depth, FIFO execution per
//! submission batch, linked-op cancelation, out-of-order completion
//! delivery, short-write resubmission at reap time, and buffer ownership
//! held until reap — with no syscalls of its own: every SQE executes
//! through the fault layer's `pwrite`, on the calling thread. On the wall
//! clock it ties the threaded engine (EXPERIMENTS.md, "I/O backend
//! ablation"); it is kept for the transitions `rbio-check`'s p8
//! families, the conformance suite and `ring_props` explore.
//!
//! Completion *delivery* order is permuted by a seeded xorshift so reap
//! order is deterministic per seed but decoupled from submission order —
//! exactly the property the p8 check family sweeps. Execution order is
//! never permuted: ops run in submission order through the same fault
//! layer as the threaded backend, so fault-plan byte accounting (kill
//! thresholds, nth-write errors) lands on identical logical-write
//! boundaries on every backend.

use std::collections::VecDeque;
use std::fs::File;
use std::sync::Arc;

use super::{BatchOutcome, IoBackend, IoCtx, WriteOp};
use crate::buf::Bytes;
use crate::fault::{self, WriteError};
use crate::sched::{self, Point, Revert};

/// Ring geometry and determinism knobs.
#[derive(Debug, Clone, Copy)]
pub struct RingConfig {
    /// In-flight bound: pushed-but-unreaped SQEs never exceed this.
    pub depth: usize,
    /// Max write ops per submission batch (≤ `depth`).
    pub batch: usize,
    /// Seed for the completion-delivery permutation.
    pub completion_seed: u64,
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig {
            depth: 16,
            batch: 8,
            completion_seed: 0,
        }
    }
}

/// Why a ring push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingFull;

/// The generic submission/completion core: `T` is the SQE payload, `C`
/// the completion payload. Tracks the in-flight bound and delivers
/// completions in a seeded permutation of execution order, each exactly
/// once. Pure bookkeeping — no I/O — so property tests can drive it
/// with arbitrary op sequences.
pub struct RingCore<T, C> {
    depth: usize,
    rng: u64,
    next_udata: u64,
    /// Pushed, not yet submitted (FIFO).
    sq: VecDeque<(u64, T)>,
    /// Executed, awaiting reap. The payload stays here — buffer
    /// ownership is not released until the completion is reaped.
    cq: Vec<(u64, T, C)>,
    /// Highest pushed-but-unreaped count ever observed.
    high_water: usize,
}

impl<T, C> RingCore<T, C> {
    /// A ring of `depth` in-flight slots with a seeded delivery order.
    pub fn new(depth: usize, completion_seed: u64) -> Self {
        RingCore {
            depth: depth.max(1),
            // xorshift64 must not start at 0.
            rng: completion_seed | 1,
            next_udata: 1,
            sq: VecDeque::new(),
            cq: Vec::new(),
            high_water: 0,
        }
    }

    /// Pushed-but-unreaped SQEs (queued + awaiting reap).
    pub fn in_flight(&self) -> usize {
        self.sq.len() + self.cq.len()
    }

    /// SQEs pushed and not yet submitted.
    pub fn queued(&self) -> usize {
        self.sq.len()
    }

    /// Completions executed and not yet reaped.
    pub fn unreaped(&self) -> usize {
        self.cq.len()
    }

    /// Highest in-flight count ever observed (depth-bound property).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Queue one SQE; fails when the in-flight bound is reached.
    /// Returns the SQE's user data token.
    pub fn push(&mut self, payload: T) -> Result<u64, RingFull> {
        if self.in_flight() >= self.depth {
            return Err(RingFull);
        }
        let udata = self.next_udata;
        self.next_udata += 1;
        self.sq.push_back((udata, payload));
        self.high_water = self.high_water.max(self.in_flight());
        Ok(udata)
    }

    /// Execute every queued SQE in FIFO order. `exec` returns the
    /// completion and whether the link continues; once it reports a
    /// broken link, every later queued SQE completes via `cancel`
    /// without executing (io_uring `IOSQE_IO_LINK` semantics). Returns
    /// the number of SQEs consumed.
    pub fn submit(
        &mut self,
        mut exec: impl FnMut(u64, &mut T) -> (C, bool),
        mut cancel: impl FnMut(u64, &mut T) -> C,
    ) -> usize {
        let n = self.sq.len();
        let mut linked = true;
        while let Some((udata, mut payload)) = self.sq.pop_front() {
            let cqe = if linked {
                let (cqe, cont) = exec(udata, &mut payload);
                linked = cont;
                cqe
            } else {
                cancel(udata, &mut payload)
            };
            self.cq.push((udata, payload, cqe));
        }
        n
    }

    /// Deliver one completion, chosen by the seeded permutation.
    /// Ownership of the SQE payload transfers to the caller only here.
    pub fn reap(&mut self) -> Option<(u64, T, C)> {
        if self.cq.is_empty() {
            return None;
        }
        // xorshift64: deterministic, cheap, well-mixed enough to shuffle
        // a handful of completions.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let idx = (self.rng % self.cq.len() as u64) as usize;
        Some(self.cq.swap_remove(idx))
    }
}

/// One write SQE as the ring backend submits it.
struct Sqe {
    /// Index of the originating op in the `run_writes` batch (a
    /// short-write continuation keeps its op's index).
    op_index: usize,
    file: Arc<File>,
    /// Offset of the *full* op (continuations re-derive their own).
    offset: u64,
    bufs: Vec<Bytes>,
    /// `Some(n)` marks a short-write continuation: `n` bytes of the op
    /// are already on disk (`n` may be 0 — a device that accepted
    /// nothing).
    resume_at: Option<u64>,
}

/// One CQE.
enum Cqe {
    /// The op's remaining bytes all landed.
    Done { attempts: u32 },
    /// The device accepted only a prefix; the reaper must resubmit the
    /// remainder.
    Short { written: u64, attempts: u32 },
    /// The op failed (fault-layer kill, exhausted retries, hard error).
    Failed(WriteError),
    /// A later link sibling of a failed op: never executed.
    Canceled,
}

/// The io_uring-style backend over the portable emulation. One shared
/// instance serves every pool thread; per-batch ring state lives on the
/// calling worker's stack, so batches on different writers never
/// contend.
pub struct RingBackend {
    cfg: RingConfig,
}

impl RingBackend {
    /// A backend with explicit ring geometry.
    pub fn with_config(cfg: RingConfig) -> Self {
        let mut cfg = cfg;
        cfg.depth = cfg.depth.max(1);
        cfg.batch = cfg.batch.clamp(1, cfg.depth);
        RingBackend { cfg }
    }

    /// This backend's geometry.
    pub fn config(&self) -> RingConfig {
        self.cfg
    }
}

/// Execute one SQE through the fault layer. Continuation SQEs skip the
/// fault consult: they complete a logical write whose bytes were
/// already accounted on its first submission.
fn exec_sqe(ctx: &IoCtx<'_>, sqe: &Sqe) -> (Cqe, bool) {
    let res = match sqe.resume_at {
        // Only single-buffer writes are ever cut short.
        Some(at) => fault::finish_short_write(&sqe.file, sqe.offset, &sqe.bufs[0], at as usize)
            .map(|()| Cqe::Done { attempts: 0 }),
        None => fault::write_at_or_short(ctx, &sqe.file, sqe.offset, &sqe.bufs).map(|w| {
            let attempts = w.attempts;
            match w.short {
                Some(written) => Cqe::Short { written, attempts },
                None => Cqe::Done { attempts },
            }
        }),
    };
    match res {
        Ok(cqe) => (cqe, true),
        Err(e) => (Cqe::Failed(e), false),
    }
}

impl IoBackend for RingBackend {
    fn name(&self) -> &'static str {
        "ring"
    }

    fn max_batch(&self) -> usize {
        self.cfg.batch
    }

    fn run_writes(&self, ctx: &IoCtx<'_>, ops: Vec<WriteOp>) -> BatchOutcome {
        let early_recycle = sched::reverted(Revert::Pr7EarlyRecycle);
        let mut core: RingCore<Sqe, Cqe> = RingCore::new(self.cfg.depth, self.cfg.completion_seed);
        let mut retries = 0u32;
        let mut error: Option<(usize, WriteError)> = None;

        // The pool bounds its batches by `max_batch() <= depth`, but any
        // caller may hand over more: submit in windows of at most `depth`
        // ops, each one linked chain reaped to quiescence before the next
        // is queued. A failure breaks the link across windows too — the
        // ops behind it are dropped unexecuted.
        let mut ops = ops.into_iter().enumerate().peekable();
        while error.is_none() && ops.peek().is_some() {
            for (i, op) in ops.by_ref().take(self.cfg.depth) {
                queue(
                    &mut core,
                    ctx.wid,
                    Sqe {
                        op_index: i,
                        file: op.file,
                        offset: op.offset,
                        bufs: op.bufs,
                        resume_at: None,
                    },
                );
            }
            submit_queued(&mut core, ctx, early_recycle);

            // Completion phase: reap until quiescent, resubmitting short
            // writes. A yield between reaps lets rbio-check interleave
            // other threads with completion delivery.
            while core.in_flight() > 0 {
                sched::yield_now(Point::Progress);
                let (udata, sqe, cqe) = core.reap().expect("in-flight implies a completion");
                let ok = !matches!(cqe, Cqe::Failed(_));
                let reap_hash = sched_hash(&sqe.bufs);
                sched::emit(|| sched::Event::CompletionReaped {
                    wid: ctx.wid,
                    udata,
                    hash: reap_hash,
                    ok,
                });
                match cqe {
                    Cqe::Done { attempts } => retries += attempts,
                    Cqe::Short { written, attempts } => {
                        retries += attempts;
                        let expected = sqe.bufs.first().map_or(0, |b| b.len() as u64);
                        sched::emit(|| sched::Event::ShortWriteResubmit {
                            wid: ctx.wid,
                            udata,
                            written,
                            expected,
                        });
                        if sqe.bufs.is_empty() || sqe.bufs[0].is_empty() {
                            // The reverted early release already gave the
                            // buffer away: nothing left to resubmit, the op
                            // is (incorrectly) treated as complete and the
                            // file keeps a hole — the divergence p8a flags.
                            continue;
                        }
                        queue(
                            &mut core,
                            ctx.wid,
                            Sqe {
                                resume_at: Some(written),
                                ..sqe
                            },
                        );
                        submit_queued(&mut core, ctx, early_recycle);
                    }
                    Cqe::Failed(e) => {
                        // First failure in submission order wins — exactly
                        // the threaded path's latch.
                        let earlier = match &error {
                            Some((i, _)) => sqe.op_index < *i,
                            None => true,
                        };
                        if earlier {
                            error = Some((sqe.op_index, e));
                        }
                    }
                    Cqe::Canceled => {}
                }
                // Buffer ownership releases here: `sqe.bufs` drops only
                // after its completion was reaped (and any continuation
                // took what it needed).
            }
        }
        BatchOutcome { retries, error }
    }
}

/// Queue one SQE and report it to the shadow model. Both callers have
/// room by construction: a window of at most `depth` ops enters a
/// quiescent ring, and a continuation takes the slot its reap just freed.
fn queue(core: &mut RingCore<Sqe, Cqe>, wid: usize, sqe: Sqe) {
    let hash = sched_hash(&sqe.bufs);
    let udata = core.push(sqe).expect("in-flight room by construction");
    sched::emit(|| sched::Event::SubmitQueued { wid, udata, hash });
}

/// Execute everything queued as one linked chain.
fn submit_queued(core: &mut RingCore<Sqe, Cqe>, ctx: &IoCtx<'_>, early_recycle: bool) {
    let count = core.submit(|_, sqe| exec_sqe(ctx, sqe), |_, _| Cqe::Canceled);
    sched::emit(|| sched::Event::SubmitBatched {
        wid: ctx.wid,
        count,
    });
    if early_recycle {
        // Reverted bug: buffer ownership released at execution time
        // instead of reap time. The pooled slabs go back for reuse while
        // their completions are still in flight — a reaped short write
        // then has nothing left to resubmit.
        release_buffers_early(core);
    }
}

/// Payload fingerprint, computed only under a controlled scheduler
/// (mirrors `FlushJob::fingerprint`).
fn sched_hash(bufs: &[Bytes]) -> u64 {
    if !sched::controlled() {
        return 0;
    }
    sched::fingerprint(bufs.iter().map(|b| b.as_ref()))
}

/// The reverted bug's mechanics: drop every unreaped completion's
/// buffers (returning pooled slabs to their pool) before reap.
fn release_buffers_early(core: &mut RingCore<Sqe, Cqe>) {
    for i in 0..core.cq.len() {
        core.cq[i].1.bufs = Vec::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use rbio_profile::counters;
    use std::time::Duration;

    fn tmpfile(name: &str) -> (std::path::PathBuf, Arc<File>) {
        let dir = std::env::temp_dir().join(format!("rbio-ring-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let p = dir.join("f");
        let f = std::fs::OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&p)
            .expect("open");
        (dir, Arc::new(f))
    }

    fn ctx(faults: &FaultPlan) -> IoCtx<'_> {
        IoCtx {
            rank: 0,
            wid: 0,
            faults,
            write_retries: 3,
            retry_backoff: Duration::from_micros(50),
        }
    }

    fn op(f: &Arc<File>, offset: u64, fill: u8, len: usize) -> WriteOp {
        WriteOp {
            file: Arc::clone(f),
            offset,
            bufs: vec![Bytes::from_vec(vec![fill; len])],
        }
    }

    #[test]
    fn core_bounds_in_flight_and_delivers_exactly_once() {
        let mut core: RingCore<u32, u32> = RingCore::new(2, 7);
        core.push(10).unwrap();
        core.push(11).unwrap();
        assert_eq!(core.push(12), Err(RingFull));
        assert_eq!(core.submit(|_, t| (*t * 2, true), |_, _| 0), 2);
        let mut seen = Vec::new();
        while let Some((udata, t, c)) = core.reap() {
            assert_eq!(c, t * 2);
            seen.push(udata);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2]);
        assert_eq!(core.reap(), None);
        assert_eq!(core.high_water(), 2);
    }

    #[test]
    fn core_cancels_links_after_a_break() {
        let mut core: RingCore<u32, &'static str> = RingCore::new(8, 1);
        for v in 0..4 {
            core.push(v).unwrap();
        }
        core.submit(
            |_, t| {
                if *t == 1 {
                    ("failed", false)
                } else {
                    ("done", true)
                }
            },
            |_, _| "canceled",
        );
        let mut by_payload: Vec<(u32, &str)> = Vec::new();
        while let Some((_, t, c)) = core.reap() {
            by_payload.push((t, c));
        }
        by_payload.sort_unstable();
        assert_eq!(
            by_payload,
            vec![(0, "done"), (1, "failed"), (2, "canceled"), (3, "canceled")]
        );
    }

    #[test]
    fn ring_backend_matches_submission_order_on_disk() {
        let (dir, f) = tmpfile("order");
        let b = RingBackend::with_config(RingConfig {
            depth: 8,
            batch: 8,
            completion_seed: 0xDECAF,
        });
        let faults = FaultPlan::none();
        // Conflicting writes at offset 0: submission order must win even
        // though completion delivery is permuted.
        let out = b.run_writes(
            &ctx(&faults),
            vec![op(&f, 0, 1, 8), op(&f, 0, 2, 8), op(&f, 0, 3, 8)],
        );
        assert!(out.error.is_none());
        let got = b.read_at(&f, 0, 8).expect("read");
        assert_eq!(got.as_ref(), &[3u8; 8]);
        assert!(b.read_at(&f, 4, 8).is_err(), "past-EOF must fail");
        assert!(b.read_at(&f, 0, 0).expect("empty").is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ring_backend_resubmits_injected_short_writes() {
        let (dir, f) = tmpfile("short");
        let b = RingBackend::with_config(RingConfig::default());
        let before = counters::failover_snapshot();
        let faults = FaultPlan::none().short_write(0, 1, 3);
        let out = b.run_writes(
            &ctx(&faults),
            vec![op(&f, 0, 5, 8), op(&f, 8, 6, 8), op(&f, 16, 7, 8)],
        );
        assert!(out.error.is_none());
        let got = b.read_at(&f, 0, 24).expect("read");
        let mut want = vec![5u8; 8];
        want.extend_from_slice(&[6; 8]);
        want.extend_from_slice(&[7; 8]);
        assert_eq!(got.as_ref(), &want[..]);
        let delta = counters::failover_snapshot().delta_since(&before);
        assert!(
            delta.short_write_retries >= 1,
            "resubmit must count a short-write retry"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn short_write_continuation_is_journaled() {
        let (dir, f) = tmpfile("journal");
        let rec = crate::crash::Recorder::install(&dir).expect("recorder");
        let b = RingBackend::with_config(RingConfig::default());
        // `cap = 0`: the device accepted nothing, the continuation owes
        // the whole op.
        for cap in [3, 0] {
            // One byte past the op: trips only if its bytes are accounted
            // twice.
            let faults = FaultPlan::none()
                .short_write(0, 0, cap)
                .kill_writer_after_bytes(0, 9);
            let out = b.run_writes(&ctx(&faults), vec![op(&f, 0, 5, 8)]);
            assert!(out.error.is_none());
            // The crash journal must hold every byte the op landed: the
            // capped prefix *and* the resubmitted remainder.
            let mut covered = [false; 8];
            for rec_op in rec.take() {
                if let crate::crash::RecOp::Write { offset, data, .. } = rec_op {
                    covered[offset as usize..offset as usize + data.len()].fill(true);
                }
            }
            assert_eq!(
                covered, [true; 8],
                "cap {cap}: journaled coverage of [0, 8)"
            );
            assert!(
                !faults.on_commit(0),
                "cap {cap}: the continuation consulted the fault plan again"
            );
        }
        drop(rec);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ring_backend_latches_first_error_in_submission_order() {
        let (dir, f) = tmpfile("err");
        let b = RingBackend::with_config(RingConfig::default());
        // Write index 1 fails on every attempt: the batch must surface
        // the failure at op 1, with op 2 canceled (never executed).
        let faults = FaultPlan::none().fail_nth_write(0, 1, u32::MAX);
        let out = b.run_writes(
            &ctx(&faults),
            vec![op(&f, 0, 1, 4), op(&f, 4, 2, 4), op(&f, 8, 3, 4)],
        );
        match out.error {
            Some((1, WriteError::Io(_))) => {}
            other => panic!("expected EIO at op 1, got {other:?}"),
        }
        assert_eq!(f.metadata().expect("meta").len(), 4, "only op 0 landed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kill_lands_on_the_same_byte_boundary_as_threaded() {
        let faults = || FaultPlan::none().kill_writer_after_bytes(0, 10);
        let run = |backend: &dyn IoBackend, name: &str| -> u64 {
            let (dir, f) = tmpfile(name);
            let plan = faults();
            let c = ctx(&plan);
            let out =
                backend.run_writes(&c, vec![op(&f, 0, 1, 6), op(&f, 6, 2, 6), op(&f, 12, 3, 6)]);
            assert!(matches!(out.error, Some((_, WriteError::Killed))));
            let len = f.metadata().expect("meta").len();
            std::fs::remove_dir_all(&dir).ok();
            len
        };
        let t = run(&super::super::ThreadedBackend, "kill-t");
        let r = run(&RingBackend::with_config(RingConfig::default()), "kill-r");
        assert_eq!(t, r, "kill byte boundary must not depend on the backend");
        // The kill threshold is consulted before each write's accounting,
        // so ops 0 and 1 (12 bytes) land and the kill stops op 2.
        assert_eq!(t, 12, "kill fires on the first write at or past 10 bytes");
    }
}
