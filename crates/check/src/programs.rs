//! The workload families the explorer drives.
//!
//! Each family is a small, fixed program with a known-good outcome, so
//! any schedule-dependent deviation is a bug:
//!
//! * `p1` — direct flush-pipeline driver: one writer, four contiguous
//!   chunks and a close, submitted through [`WriterHandle`] against the
//!   two-worker check pool. The smallest state space containing the
//!   PR 2 double-enqueue race.
//! * `p2` — the thread-per-rank executor running a real RB-IO
//!   checkpoint plan, pipelined, compared byte-for-byte against an
//!   uncontrolled serial reference that issues one write per plan op.
//! * `p3` — the same plan through the MPI-like runtime
//!   ([`rt::checkpoint_rank_with`]), against the same reference.
//! * `p4` — a two-rank aggregation with an injected message drop. The
//!   correct outcome is a typed receive timeout on the aggregator; the
//!   PR 3 fault-drop bug instead re-executes the send and "delivers"
//!   the lost message (a duplicate [`SendAttempt`] the model flags).
//! * `p5` — a four-rank, two-writer RB-IO plan where one writer hangs
//!   mid-write and is declared dead. The correct outcome is a clean
//!   failover: the surviving writer re-stages the orphaned extent and
//!   the output matches an uninjected serial reference byte-for-byte,
//!   with exactly-once takeover and no commit under the fenced rank
//!   (PR 5 territory; `Revert::Pr5Fence` re-opens the zombie
//!   double-commit hole).
//! * `p6` — the tiered checkpoint manager: generation 2's background
//!   drain races a restore, so the nearest durable tier copy is
//!   schedule-dependent (step 1's retained local stage, or step 2 once
//!   drained) but must always be byte-exact, and the model checks no
//!   generation is marked durable before every staged extent reaches
//!   the PFS tier.
//! * `p7` — the node-local tier is lost deterministically between the
//!   drain's burst and PFS hops. The correct outcome is a recovered,
//!   *degraded* generation: every file is re-read from its verified
//!   burst copy and the restore matches an untiered reference
//!   byte-for-byte.
//! * `p8a` — the ring backend under permuted completion delivery plus an
//!   injected short write: submission order must still win on disk and
//!   the short op's continuation must fill the hole byte-for-byte
//!   (PR 7 territory; `Revert::Pr7EarlyRecycle` gives buffers away
//!   before reap, so the continuation has nothing to resubmit).
//! * `p8b` — a persistently failing write in the middle of a ring batch:
//!   the first failure in *submission* order must latch, later linked
//!   ops cancel, and the trailing commit never publishes.
//! * `p8c` — pooled staging buffers race late completions: the
//!   foreground keeps leasing from the same private pool while a ring
//!   batch is mid-reap, which must never observe a payload fingerprint
//!   change between submit and reap.
//! * `p9a` — the service admission gate under contention: one in-flight
//!   slot and one queue slot raced by three sessions. On every schedule
//!   at most one session is in flight, exactly one contender queues and
//!   is admitted after the holder leaves, and exactly one is rejected
//!   with the typed error.
//! * `p9b` — weighted fair-share grants: two tenants (weights 1 and 2)
//!   pump equal-sized grants through the arbiter, and a third pumps its
//!   grants from inside one chunk loop, stalling between them. Because a
//!   looping tenant announces its next grant before it yields, and the
//!   chunk loop keeps the third visible between grants, the WFQ bound is
//!   schedule-independent: no tenant's weight-normalized bytes may lead
//!   another's by more than two quanta while both are active, and every
//!   grant completes (no starvation, no timeout) on every schedule.
//! * `p9c` — QoS preemption: a throughput tenant streams grants while a
//!   latency-sensitive tenant runs a burst. From the burst's first
//!   announcement to its leave, the throughput tenant must complete
//!   zero grants, and it must resume (and finish) after the burst ends.
//! * `p10` — drain-vs-crash interleavings against the fsync promise: a
//!   tiered manager publishes two fsynced generations (every hop of the
//!   background drain interleaved with the foreground), then the
//!   process "crashes" — a fresh manager with no tier state reopens the
//!   PFS directory. The shadow model's fsynced-implies-recoverable
//!   invariant requires every restore to return at least the newest
//!   [`Event::GenDurable`] step, and both restores must be byte-exact
//!   against untiered references.
//! * `p11` — a coIO plan with two fields through the pipelined executor:
//!   each aggregator runs one collective per field over the *same*
//!   staging range, so the first field's deferred write is still queued
//!   when the second field's receives land on its source range. The job
//!   holds references to the first field's messages, not to the range:
//!   the shadow model's submit-time = execution-time fingerprint
//!   invariant and the byte comparison against the serial reference
//!   both hold only if landing bytes never mutates what a job holds.
//! * `p12` — an rbIO plan (two writers, independent files, two fields)
//!   through the pipelined executor: each writer's staging image is a map
//!   of its workers' messages, and every deferred write is one gather
//!   over many of them, checked byte-for-byte against the serial
//!   reference and by the same fingerprint invariant.
//! * `p13` — four tiered generations while a second thread holds a
//!   retained stage as a restore does: a stage holds its generation's
//!   payload slices, and an evicted stage's buffers go back to the
//!   `BufPool` for later generations to lease, unless something still
//!   holds the stage. The held stage (generation 1's on every seed swept
//!   so far) is read only after generation 4 has staged into recycled
//!   leases, and it must be byte-exact, as must the settled restore; a
//!   buffer recycled while a slice still reads it is a `BufDoubleRecycle`.
//!
//! [`WriterHandle`]: rbio::pipeline::WriterHandle
//! [`SendAttempt`]: rbio::sched::Event::SendAttempt

use std::fs::OpenOptions;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rbio::backend::{RingBackend, RingConfig};
use rbio::buf::{BufPool, Bytes};
use rbio::exec::{execute, ExecConfig};
use rbio::failover::FailoverPolicy;
use rbio::fault::FaultPlan;
use rbio::format::materialize_payloads;
use rbio::layout::DataLayout;
use rbio::manager::{CheckpointManager, GenerationState, ManagerConfig};
use rbio::pipeline::{FlushJob, FlushPool, WriterTuning};
use rbio::restart::{read_checkpoint_staged, RestoredData};
use rbio::rt;
use rbio::sched::{self, Point};
use rbio::service::{Admission, AdmissionGate, FairShare, QosClass, ServiceError, TenantSpec};
use rbio::strategy::{CheckpointPlan, CheckpointSpec, RbIoCommit, Strategy};
use rbio::tier::TierConfig;
use rbio_plan::{DataRef, Op, ProgramBuilder, Tag};

/// Which workload family to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProgramKind {
    /// `p1`: direct pipeline submits (PR 2 race territory).
    PipelineRace,
    /// `p2`: pipelined executor vs. serial one-write-per-op reference.
    ExecEquiv,
    /// `p3`: MPI-like runtime vs. the same reference.
    RtEquiv,
    /// `p4`: injected message loss (PR 3 bug territory).
    FaultDrop,
    /// `p5`: hung-writer failover (PR 5 territory).
    Failover,
    /// `p6`: tiered drain racing a restore (PR 6 territory).
    TierDrain,
    /// `p7`: mid-drain local-tier loss, recovered from the burst tier.
    TierLoss,
    /// `p8a`: ring completion reorder + short-write resubmit (PR 7).
    RingEquiv,
    /// `p8b`: persistent mid-batch write failure latching through a ring.
    RingErrorLatch,
    /// `p8c`: pooled buffers racing late ring completions.
    RingRecycle,
    /// `p9a`: admission gate mutual exclusion / queue / reject (PR 9).
    ServiceAdmission,
    /// `p9b`: weighted fair-share grant bounds and liveness.
    ServiceFairShare,
    /// `p9c`: latency-sensitive QoS preemption of throughput grants.
    ServiceQos,
    /// `p10`: drain-vs-crash interleavings against the fsync promise.
    CrashRestore,
    /// `p11`: per-field collectives reusing staging under deferred writes.
    StagingReuse,
    /// `p12`: rbIO writers gathering their workers' messages per write.
    WriterGather,
    /// `p13`: recycled buffers staged into while a restore may hold a
    /// stage.
    StageRecycle,
}

impl ProgramKind {
    /// Parse a CLI/label name (`p1`..`p13`).
    pub fn parse(s: &str) -> Option<ProgramKind> {
        match s {
            "p1" => Some(ProgramKind::PipelineRace),
            "p2" => Some(ProgramKind::ExecEquiv),
            "p3" => Some(ProgramKind::RtEquiv),
            "p4" => Some(ProgramKind::FaultDrop),
            "p5" => Some(ProgramKind::Failover),
            "p6" => Some(ProgramKind::TierDrain),
            "p7" => Some(ProgramKind::TierLoss),
            "p8a" => Some(ProgramKind::RingEquiv),
            "p8b" => Some(ProgramKind::RingErrorLatch),
            "p8c" => Some(ProgramKind::RingRecycle),
            "p9a" => Some(ProgramKind::ServiceAdmission),
            "p9b" => Some(ProgramKind::ServiceFairShare),
            "p9c" => Some(ProgramKind::ServiceQos),
            "p10" => Some(ProgramKind::CrashRestore),
            "p11" => Some(ProgramKind::StagingReuse),
            "p12" => Some(ProgramKind::WriterGather),
            "p13" => Some(ProgramKind::StageRecycle),
            _ => None,
        }
    }

    /// Every family, in sweep order.
    pub fn all() -> [ProgramKind; 17] {
        [
            ProgramKind::PipelineRace,
            ProgramKind::ExecEquiv,
            ProgramKind::RtEquiv,
            ProgramKind::FaultDrop,
            ProgramKind::Failover,
            ProgramKind::TierDrain,
            ProgramKind::TierLoss,
            ProgramKind::RingEquiv,
            ProgramKind::RingErrorLatch,
            ProgramKind::RingRecycle,
            ProgramKind::ServiceAdmission,
            ProgramKind::ServiceFairShare,
            ProgramKind::ServiceQos,
            ProgramKind::CrashRestore,
            ProgramKind::StagingReuse,
            ProgramKind::WriterGather,
            ProgramKind::StageRecycle,
        ]
    }

    /// Short stable name (`p1`..`p13`).
    pub fn label(&self) -> &'static str {
        match self {
            ProgramKind::PipelineRace => "p1",
            ProgramKind::ExecEquiv => "p2",
            ProgramKind::RtEquiv => "p3",
            ProgramKind::FaultDrop => "p4",
            ProgramKind::Failover => "p5",
            ProgramKind::TierDrain => "p6",
            ProgramKind::TierLoss => "p7",
            ProgramKind::RingEquiv => "p8a",
            ProgramKind::RingErrorLatch => "p8b",
            ProgramKind::RingRecycle => "p8c",
            ProgramKind::ServiceAdmission => "p9a",
            ProgramKind::ServiceFairShare => "p9b",
            ProgramKind::ServiceQos => "p9c",
            ProgramKind::CrashRestore => "p10",
            ProgramKind::StagingReuse => "p11",
            ProgramKind::WriterGather => "p12",
            ProgramKind::StageRecycle => "p13",
        }
    }

    /// One-line description for `--help` and reports.
    pub fn describe(&self) -> &'static str {
        match self {
            ProgramKind::PipelineRace => "direct flush-pipeline submits (double-enqueue race)",
            ProgramKind::ExecEquiv => "pipelined executor vs. serial one-write-per-op reference",
            ProgramKind::RtEquiv => "MPI-like runtime vs. serial one-write-per-op reference",
            ProgramKind::FaultDrop => "two-rank aggregation with an injected message drop",
            ProgramKind::Failover => "hung-writer failover vs. uninjected serial reference",
            ProgramKind::TierDrain => "tiered drain racing a local-tier restore",
            ProgramKind::TierLoss => "mid-drain local-tier loss recovered from the burst tier",
            ProgramKind::RingEquiv => {
                "ring completion reorder + short-write resubmit byte-identity"
            }
            ProgramKind::RingErrorLatch => {
                "mid-batch write failure latching through ring completions"
            }
            ProgramKind::RingRecycle => "pooled staging buffers racing late ring completions",
            ProgramKind::ServiceAdmission => {
                "service admission gate: mutual exclusion, FIFO queue, typed reject"
            }
            ProgramKind::ServiceFairShare => {
                "weighted fair-share grants: bounded overtake, no starvation"
            }
            ProgramKind::ServiceQos => {
                "latency-sensitive burst freezes throughput grants, then both finish"
            }
            ProgramKind::CrashRestore => {
                "drain racing a crash + reopen: fsynced generations stay recoverable"
            }
            ProgramKind::StagingReuse => {
                "per-field coIO collectives reusing staging under deferred writes"
            }
            ProgramKind::WriterGather => "rbIO writers gathering their workers' messages per write",
            ProgramKind::StageRecycle => {
                "recycled buffers staged into while a restore may hold an old tier stage"
            }
        }
    }

    /// Whether a failing program outcome is the *expected* result (true
    /// only for the fault-injection family, where the correct behavior
    /// is a typed receive-timeout error).
    pub fn tolerates_failure(&self) -> bool {
        matches!(self, ProgramKind::FaultDrop)
    }
}

/// A program instance, bound to a scratch directory: `body` runs under
/// the controlled scheduler (its result is the run outcome), `verify`
/// runs afterwards, uncontrolled, and checks on-disk effects against
/// the reference computed at prepare time.
pub struct PreparedProgram {
    /// The controlled program body.
    pub body: Box<dyn FnOnce() -> Result<(), String> + Send>,
    /// Post-run output check (byte-for-byte where a reference exists).
    pub verify: Box<dyn FnOnce() -> Result<(), String> + Send>,
}

/// Deterministic payload filler (same recipe as the equivalence tests).
fn fill(rank: u32, field: usize, buf: &mut [u8]) {
    let mut x = (u64::from(rank) << 24) ^ ((field as u64) << 8) ^ 0x2545F4914F6CDD1D;
    for b in buf.iter_mut() {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *b = (x >> 33) as u8;
    }
}

/// Instantiate `kind` under `dir` (a fresh scratch directory the caller
/// owns). Reference outputs are computed here, *before* the controlled
/// run begins, with the stock OS scheduler.
pub fn prepare(kind: ProgramKind, dir: &Path) -> PreparedProgram {
    match kind {
        ProgramKind::PipelineRace => prepare_pipeline_race(dir),
        ProgramKind::ExecEquiv => prepare_plan_equiv(dir, rbio_shared_plan(), false),
        ProgramKind::RtEquiv => prepare_plan_equiv(dir, rbio_shared_plan(), true),
        ProgramKind::FaultDrop => prepare_fault_drop(dir),
        ProgramKind::Failover => prepare_failover(dir),
        ProgramKind::TierDrain => prepare_tier_drain(dir),
        ProgramKind::TierLoss => prepare_tier_loss(dir),
        ProgramKind::RingEquiv => prepare_ring_equiv(dir),
        ProgramKind::RingErrorLatch => prepare_ring_error_latch(dir),
        ProgramKind::RingRecycle => prepare_ring_recycle(dir),
        ProgramKind::ServiceAdmission => prepare_service_admission(dir),
        ProgramKind::ServiceFairShare => prepare_service_fair_share(dir),
        ProgramKind::ServiceQos => prepare_service_qos(dir),
        ProgramKind::CrashRestore => prepare_crash_restore(dir),
        ProgramKind::StagingReuse => prepare_plan_equiv(dir, coio_two_field_plan(), false),
        ProgramKind::WriterGather => prepare_plan_equiv(dir, rbio_two_field_plan(), false),
        ProgramKind::StageRecycle => prepare_stage_recycle(dir),
    }
}

/// The ring geometry the `p8` family drives: small enough to keep the
/// schedule space tractable, deep enough that a whole batch of chunks
/// is in flight at once with its completions permuted.
fn check_ring() -> Arc<dyn rbio::backend::IoBackend> {
    Arc::new(RingBackend::with_config(RingConfig {
        depth: 8,
        batch: 4,
        completion_seed: 0x9E3779B97F4A7C15,
    }))
}

/// Register a ring-backed writer on the controlled check pool.
fn ring_writer(rank: u32, depth: u32, faults: FaultPlan) -> rbio::pipeline::WriterHandle {
    FlushPool::current().register(
        rank,
        depth,
        faults,
        WriterTuning {
            backend: Some(check_ring()),
            ..WriterTuning::default()
        },
    )
}

/// `p8a`: six chunks through a ring-backed writer, with the third
/// logical write injected short (a 100-byte prefix of 384). Completion
/// delivery is permuted by the ring seed and interleaved by the
/// controlled scheduler, but submission order must win on disk and the
/// short write's continuation must fill the rest of its chunk. Under
/// `Revert::Pr7EarlyRecycle` the buffers are given away before reap:
/// the model flags the fingerprint drift and the unfillable hole
/// surfaces as an `Equivalence` violation.
fn prepare_ring_equiv(dir: &Path) -> PreparedProgram {
    const CHUNK: usize = 384;
    const NCHUNKS: usize = 6;
    let path = dir.join("ring.bin");
    let expected: Vec<u8> = (0..NCHUNKS)
        .flat_map(|i| std::iter::repeat_n(b'a' + i as u8, CHUNK))
        .collect();
    let body_path = path.clone();
    PreparedProgram {
        body: Box::new(move || {
            let file = Arc::new(
                OpenOptions::new()
                    .create(true)
                    .truncate(true)
                    .write(true)
                    .open(&body_path)
                    .map_err(|e| format!("open {}: {e}", body_path.display()))?,
            );
            let h = ring_writer(
                0,
                (NCHUNKS + 1) as u32,
                FaultPlan::none().short_write(0, 2, 100),
            );
            for i in 0..NCHUNKS {
                let data = Bytes::from_vec(vec![b'a' + i as u8; CHUNK]);
                h.submit(FlushJob::Write {
                    file: Arc::clone(&file),
                    offset: (i * CHUNK) as u64,
                    data,
                })
                .map_err(|e| format!("submit chunk {i}: {e:?}"))?;
            }
            drop(file);
            h.drain().map_err(|e| format!("drain: {e:?}"))?;
            Ok(())
        }),
        verify: Box::new(move || {
            let got = std::fs::read(&path).map_err(|e| format!("read back: {e}"))?;
            if got == expected {
                Ok(())
            } else if got.len() != expected.len() {
                Err(format!(
                    "ring.bin: got {} bytes, want {}",
                    got.len(),
                    expected.len()
                ))
            } else {
                let hole = got
                    .iter()
                    .zip(&expected)
                    .position(|(g, w)| g != w)
                    .expect("lengths equal, bytes differ");
                Err(format!(
                    "ring.bin diverges at byte {hole}: a short write's \
                     continuation never landed"
                ))
            }
        }),
    }
}

/// `p8b`: logical write 1 of a four-chunk ring batch fails on every
/// attempt. Correct behavior: chunk 0 lands, the failure latches at the
/// *submission*-order index no matter when its completion is delivered,
/// the later linked ops cancel, and the trailing commit never publishes
/// the final file. The surfaced error reaches the driver at `submit` or
/// `drain` — whichever the schedule hits first.
fn prepare_ring_error_latch(dir: &Path) -> PreparedProgram {
    const CHUNK: usize = 256;
    const NCHUNKS: usize = 4;
    let tmp = dir.join("latch.bin.tmp");
    let final_path = dir.join("latch.bin");
    let body_tmp = tmp.clone();
    let body_final = final_path.clone();
    PreparedProgram {
        body: Box::new(move || {
            let file = Arc::new(
                OpenOptions::new()
                    .create(true)
                    .truncate(true)
                    .write(true)
                    .open(&body_tmp)
                    .map_err(|e| format!("open {}: {e}", body_tmp.display()))?,
            );
            let h = ring_writer(
                0,
                (NCHUNKS + 2) as u32,
                FaultPlan::none().fail_nth_write(0, 1, u32::MAX),
            );
            let mut surfaced = false;
            for i in 0..NCHUNKS {
                let data = Bytes::from_vec(vec![b'a' + i as u8; CHUNK]);
                let sub = h.submit(FlushJob::Write {
                    file: Arc::clone(&file),
                    offset: (i * CHUNK) as u64,
                    data,
                });
                if sub.is_err() {
                    surfaced = true;
                    break;
                }
            }
            drop(file);
            if !surfaced {
                surfaced = h
                    .submit(FlushJob::Commit {
                        tmp: body_tmp.clone(),
                        final_path: body_final.clone(),
                        size: (NCHUNKS * CHUNK) as u64,
                        fsync: false,
                    })
                    .is_err();
            }
            if h.drain().is_err() {
                surfaced = true;
            }
            if surfaced {
                Ok(())
            } else {
                Err("persistently failing write 1 never surfaced an error".into())
            }
        }),
        verify: Box::new(move || {
            if final_path.exists() {
                return Err(format!(
                    "{} was published despite a latched write error",
                    final_path.display()
                ));
            }
            Ok(())
        }),
    }
}

/// `p8c`: chunks staged in a private [`BufPool`] and submitted through a
/// ring-backed writer while the foreground keeps leasing new buffers
/// from the same pool. Correct behavior: a slab returns to the free
/// list only after its completion is reaped, so the later leases get
/// fresh (or legitimately retired) slabs and every payload fingerprint
/// matches between submit and reap. The early-release revert frees
/// slabs mid-batch, so a foreground lease can overwrite bytes a pending
/// completion still owns.
fn prepare_ring_recycle(dir: &Path) -> PreparedProgram {
    const CHUNK: usize = 320;
    const NCHUNKS: usize = 6;
    let path = dir.join("recycle.bin");
    let expected: Vec<u8> = (0..NCHUNKS)
        .flat_map(|i| std::iter::repeat_n(0x30 + i as u8, CHUNK))
        .collect();
    let body_path = path.clone();
    PreparedProgram {
        body: Box::new(move || {
            let file = Arc::new(
                OpenOptions::new()
                    .create(true)
                    .truncate(true)
                    .write(true)
                    .open(&body_path)
                    .map_err(|e| format!("open {}: {e}", body_path.display()))?,
            );
            let pool = BufPool::new();
            let h = ring_writer(
                0,
                (NCHUNKS + 1) as u32,
                FaultPlan::none().short_write(0, 3, 64),
            );
            for i in 0..NCHUNKS {
                // Lease from the pool *between* submits: under the
                // revert, a slab freed by the mid-batch early release is
                // handed right back here and overwritten while its
                // completion (or short-write continuation) is pending.
                let data = pool.from_fn(CHUNK, |_| 0x30 + i as u8);
                h.submit(FlushJob::Write {
                    file: Arc::clone(&file),
                    offset: (i * CHUNK) as u64,
                    data,
                })
                .map_err(|e| format!("submit chunk {i}: {e:?}"))?;
            }
            drop(file);
            h.drain().map_err(|e| format!("drain: {e:?}"))?;
            if pool.free_buffers() == 0 {
                return Err("drained writer returned no slabs to the pool".into());
            }
            Ok(())
        }),
        verify: Box::new(move || {
            let got = std::fs::read(&path).map_err(|e| format!("read back: {e}"))?;
            if got == expected {
                Ok(())
            } else {
                Err(format!(
                    "recycle.bin: got {} bytes, want {} with per-chunk fill",
                    got.len(),
                    expected.len()
                ))
            }
        }),
    }
}

fn prepare_pipeline_race(dir: &Path) -> PreparedProgram {
    const CHUNK: usize = 512;
    const NCHUNKS: usize = 4;
    let path = dir.join("race.bin");
    let expected: Vec<u8> = (0..NCHUNKS)
        .flat_map(|i| std::iter::repeat_n(b'a' + i as u8, CHUNK))
        .collect();
    let body_path = path.clone();
    PreparedProgram {
        body: Box::new(move || {
            let file = Arc::new(
                OpenOptions::new()
                    .create(true)
                    .truncate(true)
                    .write(true)
                    .open(&body_path)
                    .map_err(|e| format!("open {}: {e}", body_path.display()))?,
            );
            // Depth ≥ NCHUNKS+1 so no submit blocks on backpressure: the
            // interesting interleavings are submit-vs-claim, not
            // submit-vs-drain.
            let h = FlushPool::current().register(
                0,
                (NCHUNKS + 1) as u32,
                FaultPlan::none(),
                WriterTuning::default(),
            );
            for i in 0..NCHUNKS {
                let data = Bytes::from_vec(vec![b'a' + i as u8; CHUNK]);
                h.submit(FlushJob::Write {
                    file: Arc::clone(&file),
                    offset: (i * CHUNK) as u64,
                    data,
                })
                .map_err(|e| format!("submit chunk {i}: {e:?}"))?;
            }
            drop(file);
            h.drain().map_err(|e| format!("drain: {e:?}"))?;
            Ok(())
        }),
        verify: Box::new(move || {
            let got = std::fs::read(&path).map_err(|e| format!("read back: {e}"))?;
            if got == expected {
                Ok(())
            } else {
                Err(format!(
                    "race.bin: got {} bytes, want {} with per-chunk fill",
                    got.len(),
                    expected.len()
                ))
            }
        }),
    }
}

/// `p2`/`p3`: a 3-rank, 2-group RB-IO plan with a shared collective
/// commit — writers aggregate peers' data, so the schedule interleaves
/// messaging, pipelined writes, and the commit protocol.
fn rbio_shared_plan() -> CheckpointPlan {
    let layout = DataLayout::uniform(3, &[("Ex", 384), ("Ey", 160)]);
    CheckpointSpec::new(layout, "ck")
        .strategy(Strategy::RbIo {
            ng: 2,
            commit: RbIoCommit::CollectiveShared,
        })
        .step(7)
        .plan()
        .expect("valid rb-io plan")
}

/// `p11`: a 4-rank coIO plan, two files, two fields — one aggregator per
/// file runs a collective per field over the same staging range, so a
/// deferred write of field 0 is in flight while field 1 lands on its
/// source.
fn coio_two_field_plan() -> CheckpointPlan {
    let layout = DataLayout::uniform(4, &[("Ex", 384), ("Ey", 160)]);
    CheckpointSpec::new(layout, "ck")
        .strategy(Strategy::coio(2))
        .step(13)
        .plan()
        .expect("valid co-io plan")
}

/// `p12`: a 4-rank rbIO plan, two writers with a file each, two fields —
/// each writer's image is its own blocks and its worker's message, and
/// every `WriteAt` gathers pieces of both.
fn rbio_two_field_plan() -> CheckpointPlan {
    let layout = DataLayout::uniform(4, &[("Ex", 384), ("Ey", 160)]);
    CheckpointSpec::new(layout, "ck")
        .strategy(Strategy::rbio(2))
        .step(17)
        .plan()
        .expect("valid rb-io plan")
}

/// Run `plan` pipelined (depth 2) under the controlled scheduler, through
/// `exec` or the MPI-like runtime. The reference is the serial executor,
/// one write per op, run uncontrolled at prepare time.
fn prepare_plan_equiv(dir: &Path, plan: CheckpointPlan, through_rt: bool) -> PreparedProgram {
    let payloads = materialize_payloads(&plan, fill);

    let ref_dir = dir.join("ref");
    execute(
        &plan.program,
        payloads.clone(),
        &ExecConfig::new(&ref_dir).coalesce_caps(1, 1),
    )
    .expect("uncontrolled reference execution");
    let expected: Vec<(String, Vec<u8>)> = plan
        .plan_files
        .iter()
        .map(|pf| {
            let bytes = std::fs::read(ref_dir.join(&pf.name)).expect("reference file");
            (pf.name.clone(), bytes)
        })
        .collect();

    let out_dir = dir.join("out");
    let program = plan.program;
    let body: Box<dyn FnOnce() -> Result<(), String> + Send> = if through_rt {
        let base = out_dir.clone();
        Box::new(move || {
            let cfg = rt::RtConfig::new(&base).pipeline_depth(2);
            let results = rt::run(program.nranks(), |mut comm| {
                let rank = comm.rank() as usize;
                rt::checkpoint_rank_with(&mut comm, &program, &payloads[rank], &cfg)
                    .map_err(|e| format!("{e:?}"))
            });
            results.into_iter().collect::<Result<Vec<()>, _>>()?;
            Ok(())
        })
    } else {
        let base = out_dir.clone();
        Box::new(move || {
            execute(
                &program,
                payloads,
                &ExecConfig::new(&base).pipeline_depth(2),
            )
            .map(|_| ())
            .map_err(|e| e.to_string())
        })
    };
    PreparedProgram {
        body,
        verify: Box::new(move || {
            for (name, want) in &expected {
                let got =
                    std::fs::read(out_dir.join(name)).map_err(|e| format!("read {name}: {e}"))?;
                if &got != want {
                    return Err(format!(
                        "{name}: controlled output differs from the serial \
                         reference ({} vs {} bytes)",
                        got.len(),
                        want.len()
                    ));
                }
            }
            Ok(())
        }),
    }
}

/// `p5`: a 4-rank, 2-group RB-IO plan with independent per-writer
/// commits; writer rank 0 hangs at its first write long enough to be
/// classified dead. Correct behavior: the run still succeeds — the
/// surviving writer claims the orphaned extent, re-derives its bytes
/// from the shared payloads, and commits it exactly once while the
/// fence keeps the reviving zombie from ever publishing. The reference
/// is an uninjected serial run, one write per op; the model checks
/// exactly-once takeover, no fenced commits, and unique extent
/// commits on top of the byte-for-byte comparison.
fn prepare_failover(dir: &Path) -> PreparedProgram {
    let layout = DataLayout::uniform(4, &[("Ex", 256), ("Ey", 96)]);
    let plan = CheckpointSpec::new(layout, "ck")
        .strategy(Strategy::rbio(2))
        .step(11)
        .plan()
        .expect("valid rb-io plan");
    let payloads = materialize_payloads(&plan, fill);

    let ref_dir = dir.join("ref");
    execute(
        &plan.program,
        payloads.clone(),
        &ExecConfig::new(&ref_dir).coalesce_caps(1, 1),
    )
    .expect("uncontrolled reference execution");
    let expected: Vec<(String, Vec<u8>)> = plan
        .plan_files
        .iter()
        .map(|pf| {
            let bytes = std::fs::read(ref_dir.join(&pf.name)).expect("reference file");
            (pf.name.clone(), bytes)
        })
        .collect();

    let out_dir = dir.join("out");
    let program = plan.program;
    let base = out_dir.clone();
    // dead_after = 1s, so a 1s hang classifies as Dead; under the
    // controlled scheduler the hang is a self-announcement plus a few
    // yields, not a wall-clock sleep, so schedules stay deterministic.
    let policy = FailoverPolicy::from_recv_timeout(Duration::from_secs(2));
    PreparedProgram {
        body: Box::new(move || {
            let cfg = ExecConfig::new(&base)
                .pipeline_depth(2)
                .faults(FaultPlan::none().hang_writer(0, Duration::from_secs(1)))
                .failover(policy);
            let report = execute(&program, payloads, &cfg).map_err(|e| e.to_string())?;
            if report.failovers.is_empty() {
                return Err("hung writer 0 was never taken over".into());
            }
            Ok(())
        }),
        verify: Box::new(move || {
            for (name, want) in &expected {
                let got =
                    std::fs::read(out_dir.join(name)).map_err(|e| format!("read {name}: {e}"))?;
                if &got != want {
                    return Err(format!(
                        "{name}: degraded-mode output differs from the uninjected \
                         serial reference ({} vs {} bytes)",
                        got.len(),
                        want.len()
                    ));
                }
            }
            Ok(())
        }),
    }
}

/// `p4`: rank 1 hands its block to aggregator rank 0; the fault plan
/// drops that one message. Correct behavior: the receive times out with
/// a typed error (run outcome `Err`, tolerated for this family) and the
/// send is attempted exactly once.
fn prepare_fault_drop(dir: &Path) -> PreparedProgram {
    const BLOCK: u64 = 256;
    let mut b = ProgramBuilder::new(vec![0, BLOCK]);
    let f = b.file("agg.bin", BLOCK);
    b.reserve_staging(0, BLOCK);
    b.push(
        0,
        Op::Open {
            file: f,
            create: true,
        },
    );
    b.push(
        0,
        Op::Recv {
            src: 1,
            tag: Tag(7),
            bytes: BLOCK,
            staging_off: 0,
        },
    );
    b.push(
        0,
        Op::WriteAt {
            file: f,
            offset: 0,
            src: DataRef::Staging { off: 0, len: BLOCK },
        },
    );
    b.push(0, Op::Close { file: f });
    b.push(
        1,
        Op::Send {
            dst: 0,
            tag: Tag(7),
            src: DataRef::Own { off: 0, len: BLOCK },
        },
    );
    let program = b.build();
    let mut payload = vec![0u8; BLOCK as usize];
    fill(1, 0, &mut payload);
    let base = dir.join("out");
    PreparedProgram {
        body: Box::new(move || {
            let cfg = ExecConfig::new(&base).faults(FaultPlan::none().drop_message(1, 0, 0));
            execute(&program, vec![Vec::new(), payload], &cfg)
                .map(|_| ())
                .map_err(|e| e.to_string())
        }),
        // The outcome (a receive timeout) is checked by the caller via
        // `tolerates_failure`; exactly-once sends by the model.
        verify: Box::new(|| Ok(())),
    }
}

/// Shared layout of the tier families: small enough to keep the
/// schedule space tractable, two fields so restores exercise the full
/// rank-block slicing.
fn tier_layout() -> DataLayout {
    DataLayout::uniform(4, &[("Ex", 256), ("Ey", 96)])
}

/// Per-step manager fill (the step folds into every byte so each
/// generation's data is distinct).
fn tier_fill(step: u64) -> impl FnMut(u32, usize, &mut [u8]) {
    move |rank, field, buf| {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = (step as usize)
                .wrapping_add(rank as usize * 3)
                .wrapping_add(field * 7)
                .wrapping_add(i) as u8;
        }
    }
}

fn tier_manager_cfg(pfs: &Path, tier: Option<TierConfig>) -> ManagerConfig {
    let mut cfg = ManagerConfig::new(pfs, Strategy::rbio(2));
    cfg.keep = 2;
    cfg.tier = tier;
    cfg
}

/// Byte-compare a restored generation against its reference twin.
fn restored_eq(got: &RestoredData, want: &RestoredData) -> Result<(), String> {
    for rank in 0..want.nranks {
        for field in 0..want.field_names.len() {
            if got.field_data(rank, field) != want.field_data(rank, field) {
                return Err(format!(
                    "step {}: restored bytes differ from the reference at rank \
                     {rank} field {field}",
                    got.step
                ));
            }
        }
    }
    Ok(())
}

/// Byte-compare every checkpoint file the reference run produced
/// against its twin in the controlled run's PFS directory.
fn rbio_files_eq(pfs: &Path, ref_dir: &Path) -> Result<(), String> {
    let mut compared = 0;
    for entry in std::fs::read_dir(ref_dir).map_err(|e| format!("read ref dir: {e}"))? {
        let p = entry.map_err(|e| format!("ref dir entry: {e}"))?.path();
        if p.extension().is_none_or(|e| e != "rbio") {
            continue;
        }
        let name = p
            .file_name()
            .expect("file name")
            .to_string_lossy()
            .into_owned();
        let want = std::fs::read(&p).map_err(|e| format!("read reference {name}: {e}"))?;
        let got =
            std::fs::read(pfs.join(&name)).map_err(|e| format!("read drained {name}: {e}"))?;
        if got != want {
            return Err(format!(
                "{name}: drained PFS bytes differ from the direct-path reference \
                 ({} vs {} bytes)",
                got.len(),
                want.len()
            ));
        }
        compared += 1;
    }
    if compared == 0 {
        return Err("reference run produced no checkpoint files".into());
    }
    Ok(())
}

/// `p6`: two tiered generations through the checkpoint manager, with
/// generation 2's background drain racing a restore. The nearest
/// durable tier copy at the racing restore is schedule-dependent —
/// step 1's retained local stage, or step 2 once its drain publishes —
/// and both must be byte-exact against direct-path references. The
/// shadow model additionally checks the durability invariant on every
/// schedule: no `TierDurable` before every staged extent of that step
/// was drained to the PFS tier.
fn prepare_tier_drain(dir: &Path) -> PreparedProgram {
    // Direct-to-PFS references for both generations, uncontrolled.
    let ref_dir = dir.join("ref");
    let ref_mgr = CheckpointManager::new(tier_layout(), tier_manager_cfg(&ref_dir, None))
        .expect("reference manager");
    ref_mgr.checkpoint(1, tier_fill(1)).expect("reference ck 1");
    let want1 = ref_mgr.restore_latest().expect("reference restore 1");
    ref_mgr.checkpoint(2, tier_fill(2)).expect("reference ck 2");
    let want2 = ref_mgr.restore_latest().expect("reference restore 2");

    let pfs = dir.join("pfs");
    let local = dir.join("local");
    let body_pfs = pfs.clone();
    PreparedProgram {
        body: Box::new(move || {
            let tier = TierConfig::new(&local).slab_capacity(1 << 20);
            let mgr =
                CheckpointManager::new(tier_layout(), tier_manager_cfg(&body_pfs, Some(tier)))
                    .map_err(|e| format!("tiered manager: {e}"))?;
            mgr.checkpoint(1, tier_fill(1))
                .map_err(|e| format!("ck 1: {e}"))?;
            mgr.wait_durable(1)
                .map_err(|e| format!("gen 1 drain: {e}"))?;
            // Generation 2 is staged and returns immediately; its drain
            // now races the restore below.
            mgr.checkpoint(2, tier_fill(2))
                .map_err(|e| format!("ck 2: {e}"))?;
            let racing = mgr
                .restore_latest()
                .map_err(|e| format!("racing restore: {e}"))?;
            let want = match racing.step {
                1 => &want1,
                2 => &want2,
                s => return Err(format!("racing restore produced unknown step {s}")),
            };
            restored_eq(&racing, want)?;
            mgr.wait_durable(2)
                .map_err(|e| format!("gen 2 drain: {e}"))?;
            let settled = mgr
                .restore_latest()
                .map_err(|e| format!("settled restore: {e}"))?;
            if settled.step != 2 {
                return Err(format!(
                    "settled restore came from step {}, want 2",
                    settled.step
                ));
            }
            restored_eq(&settled, &want2)
        }),
        verify: Box::new(move || rbio_files_eq(&pfs, &ref_dir)),
    }
}

/// `p13`: four tiered generations through one manager (`retain = 1`)
/// while a second thread holds the newest retained stage it finds —
/// generation 1's on every seed swept so far — and reads it only once
/// generation 4 is staged. A stage holds slices of its generation's
/// pooled payloads; an evicted stage lets them go, and each buffer
/// returns to the `BufPool` only once no slice of it is held anywhere, so
/// a later generation's payloads lease recycled buffers while the held
/// stage keeps its own. On every schedule some generation stages while
/// the held stage is out, and the held stage must still read
/// byte-exactly as its own generation. So must the settled restore of
/// generation 4. A buffer handed back twice (a slice outliving its
/// return) reports `BufDoubleRecycle`.
fn prepare_stage_recycle(dir: &Path) -> PreparedProgram {
    let ref_dir = dir.join("ref");
    let ref_mgr = CheckpointManager::new(tier_layout(), tier_manager_cfg(&ref_dir, None))
        .expect("reference manager");
    let want: Vec<RestoredData> = (1..=4)
        .map(|step| {
            ref_mgr
                .checkpoint(step, tier_fill(step))
                .expect("reference ck");
            ref_mgr.restore_latest().expect("reference restore")
        })
        .collect();
    let want = Arc::new(want);

    let pfs = dir.join("pfs");
    let local = dir.join("local");
    let body_pfs = pfs.clone();
    PreparedProgram {
        body: Box::new(move || {
            let tier = TierConfig::new(&local).slab_capacity(1 << 20);
            let mgr =
                CheckpointManager::new(tier_layout(), tier_manager_cfg(&body_pfs, Some(tier)))
                    .map_err(|e| format!("tiered manager: {e}"))?;
            mgr.checkpoint(1, tier_fill(1))
                .map_err(|e| format!("ck 1: {e}"))?;
            mgr.wait_durable(1)
                .map_err(|e| format!("gen 1 drain: {e}"))?;
            let engine = Arc::clone(mgr.tier_engine().expect("engine exists with a tier"));
            let staged4 = Arc::new(AtomicBool::new(false));
            let done = Arc::new(AtomicBool::new(false));
            let (s4, d2, w2) = (Arc::clone(&staged4), Arc::clone(&done), Arc::clone(&want));
            sched::spawning();
            let holder = std::thread::spawn(move || {
                sched::register("holder");
                let stage = engine.newest_retained();
                while !s4.load(Ordering::Acquire) {
                    sched::yield_now(Point::JoinWait);
                }
                let res = match stage {
                    Some(stage) => {
                        let step = stage.step();
                        CheckpointSpec::new(tier_layout(), format!("step{step:010}"))
                            .strategy(Strategy::rbio(2))
                            .step(step)
                            .plan()
                            .map_err(|e| format!("plan for step {step}: {e:?}"))
                            .and_then(|plan| {
                                read_checkpoint_staged(&plan, &stage)
                                    .map_err(|e| format!("held step {step}: {e}"))
                            })
                            .and_then(|got| restored_eq(&got, &w2[step as usize - 1]))
                    }
                    None => Err("no retained stage after generation 1".into()),
                };
                d2.store(true, Ordering::Release);
                sched::unregister();
                res
            });
            let run = (|| {
                for step in 2..=4 {
                    mgr.checkpoint(step, tier_fill(step))
                        .map_err(|e| format!("ck {step}: {e}"))?;
                    if step == 4 {
                        staged4.store(true, Ordering::Release);
                    }
                    mgr.wait_durable(step)
                        .map_err(|e| format!("gen {step} drain: {e}"))?;
                }
                Ok::<(), String>(())
            })();
            staged4.store(true, Ordering::Release);
            while !done.load(Ordering::Acquire) {
                sched::yield_now(Point::JoinWait);
            }
            let held = holder.join().map_err(|_| "holder panicked".to_string())?;
            run?;
            held?;
            let settled = mgr
                .restore_latest()
                .map_err(|e| format!("settled restore: {e}"))?;
            if settled.step != 4 {
                return Err(format!(
                    "settled restore came from step {}, want 4",
                    settled.step
                ));
            }
            restored_eq(&settled, &want[3])
        }),
        verify: Box::new(move || rbio_files_eq(&pfs, &ref_dir)),
    }
}

/// `p7`: the node-local tier dies deterministically between the drain's
/// burst and PFS hops. Correct behavior: every file of the in-flight
/// generation is recovered from its verified burst copy, the generation
/// publishes *degraded* (its marker lands them `tierloss:burst`), and the
/// restore matches an untiered reference byte-for-byte.
fn prepare_tier_loss(dir: &Path) -> PreparedProgram {
    let ref_dir = dir.join("ref");
    let ref_mgr = CheckpointManager::new(tier_layout(), tier_manager_cfg(&ref_dir, None))
        .expect("reference manager");
    ref_mgr.checkpoint(3, tier_fill(3)).expect("reference ck");
    let want = ref_mgr.restore_latest().expect("reference restore");

    let pfs = dir.join("pfs");
    let local = dir.join("local");
    let burst = dir.join("burst");
    let body_pfs = pfs.clone();
    PreparedProgram {
        body: Box::new(move || {
            let tier = TierConfig::new(&local)
                .burst_dir(&burst)
                .slab_capacity(1 << 20);
            let mgr =
                CheckpointManager::new(tier_layout(), tier_manager_cfg(&body_pfs, Some(tier)))
                    .map_err(|e| format!("tiered manager: {e}"))?;
            mgr.tier_engine()
                .expect("engine exists with a tier")
                .lose_local_between_hops();
            mgr.checkpoint(3, tier_fill(3))
                .map_err(|e| format!("staged ck: {e}"))?;
            mgr.wait_durable(3)
                .map_err(|e| format!("burst-recovered drain: {e}"))?;
            let state = mgr.generation_state(3);
            if state != GenerationState::Degraded {
                return Err(format!(
                    "generation after tier loss is {state:?}, want Degraded"
                ));
            }
            let restored = mgr
                .restore_latest()
                .map_err(|e| format!("degraded restore: {e}"))?;
            if restored.step != 3 {
                return Err(format!("restored step {}, want 3", restored.step));
            }
            restored_eq(&restored, &want)
        }),
        verify: Box::new(move || {
            let marker = rbio::commit::read_committed_text(&pfs.join("step0000000003.commit"))
                .map_err(|e| format!("read marker: {e}"))?;
            if !marker.contains(" tierloss:burst") {
                return Err(format!(
                    "marker does not record the burst recovery:\n{marker}"
                ));
            }
            rbio_files_eq(&pfs, &ref_dir)
        }),
    }
}

/// `p10`: the crash-consistency promise under the controlled scheduler.
/// A tiered manager with `fsync = true` lands two generations — every
/// stage/burst/PFS hop of the background drain interleaving with the
/// foreground — then the process "crashes": the manager is dropped and
/// a fresh one, with *no* tier state (the node-local slabs are gone,
/// exactly like a reboot), reopens the PFS directory. The model's
/// fsynced-implies-recoverable invariant pins every `RestoreDone` to
/// the newest `GenDurable` floor, so a publish that rename-skips,
/// under-fsyncs, or rotates away a promised generation surfaces on
/// whichever schedule exposes it; both restores must also be byte-exact
/// against untiered references.
fn prepare_crash_restore(dir: &Path) -> PreparedProgram {
    let ref_dir = dir.join("ref");
    let ref_mgr = CheckpointManager::new(tier_layout(), tier_manager_cfg(&ref_dir, None))
        .expect("reference manager");
    ref_mgr.checkpoint(1, tier_fill(1)).expect("reference ck 1");
    let want1 = ref_mgr.restore_latest().expect("reference restore 1");
    ref_mgr.checkpoint(2, tier_fill(2)).expect("reference ck 2");
    let want2 = ref_mgr.restore_latest().expect("reference restore 2");

    let pfs = dir.join("pfs");
    let local = dir.join("local");
    let body_pfs = pfs.clone();
    PreparedProgram {
        body: Box::new(move || {
            let tier = TierConfig::new(&local).slab_capacity(1 << 20);
            let mut cfg = tier_manager_cfg(&body_pfs, Some(tier));
            cfg.fsync = true;
            let mgr = CheckpointManager::new(tier_layout(), cfg)
                .map_err(|e| format!("tiered manager: {e}"))?;
            mgr.checkpoint(1, tier_fill(1))
                .map_err(|e| format!("ck 1: {e}"))?;
            mgr.wait_durable(1)
                .map_err(|e| format!("gen 1 drain: {e}"))?;
            // Quiescent restore: only generation 1 exists and it was
            // promised durable, so the floor is 1 and the restore must
            // meet it (the model checks; we check the bytes).
            let first = mgr
                .restore_latest()
                .map_err(|e| format!("restore after gen 1: {e}"))?;
            if first.step != 1 {
                return Err(format!("restore after gen 1 came from step {}", first.step));
            }
            restored_eq(&first, &want1)?;
            mgr.checkpoint(2, tier_fill(2))
                .map_err(|e| format!("ck 2: {e}"))?;
            mgr.wait_durable(2)
                .map_err(|e| format!("gen 2 drain: {e}"))?;
            // Crash: the tiered manager dies with the process. Nothing
            // node-local survives — the reopened manager has no tier
            // config, so only what the drain published to the PFS (the
            // fsync promise) can serve the restore.
            drop(mgr);
            let reopened = CheckpointManager::new(tier_layout(), tier_manager_cfg(&body_pfs, None))
                .map_err(|e| format!("reopened manager: {e}"))?;
            let recovered = reopened
                .restore_latest()
                .map_err(|e| format!("post-crash restore: {e}"))?;
            if recovered.step != 2 {
                return Err(format!(
                    "post-crash restore came from step {}, want the promised 2",
                    recovered.step
                ));
            }
            restored_eq(&recovered, &want2)
        }),
        verify: Box::new(move || rbio_files_eq(&pfs, &ref_dir)),
    }
}

/// `p9a`: one in-flight slot, one queue slot, three sessions. The body
/// holds the slot, then races two contenders: on every schedule exactly
/// one queues (and admits only after the holder leaves) and the other
/// gets the typed `Rejected` error; the gate never reports more than
/// one session in flight. The holder releases only after observing the
/// rejection, so the phase structure is schedule-independent.
fn prepare_service_admission(_dir: &Path) -> PreparedProgram {
    PreparedProgram {
        body: Box::new(move || {
            let gate = AdmissionGate::new(1, 1, Duration::from_secs(5));
            let inflight = Arc::new(AtomicUsize::new(0));
            let peak = Arc::new(AtomicUsize::new(0));
            let rejected = Arc::new(AtomicUsize::new(0));
            let queued_admitted = Arc::new(AtomicUsize::new(0));
            let immediate = Arc::new(AtomicUsize::new(0));
            let live = Arc::new(AtomicUsize::new(2));
            let errors: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));

            let holder = gate.acquire(0).map_err(|e| format!("seed acquire: {e}"))?;
            if !matches!(holder.admission, Admission::Admitted) {
                return Err("empty gate queued its first session".into());
            }
            inflight.store(1, Ordering::SeqCst);

            let mut handles = Vec::new();
            for t in 1..=2u64 {
                let gate = Arc::clone(&gate);
                let inflight = Arc::clone(&inflight);
                let peak = Arc::clone(&peak);
                let rejected = Arc::clone(&rejected);
                let queued_admitted = Arc::clone(&queued_admitted);
                let immediate = Arc::clone(&immediate);
                let live = Arc::clone(&live);
                let errors = Arc::clone(&errors);
                sched::spawning();
                handles.push(std::thread::spawn(move || {
                    sched::register(&format!("tenant{t}"));
                    match gate.acquire(t) {
                        Ok(p) => {
                            let now = inflight.fetch_add(1, Ordering::SeqCst) + 1;
                            peak.fetch_max(now, Ordering::SeqCst);
                            match p.admission {
                                Admission::Queued => queued_admitted.fetch_add(1, Ordering::SeqCst),
                                Admission::Admitted => immediate.fetch_add(1, Ordering::SeqCst),
                            };
                            sched::yield_now(Point::Progress);
                            inflight.fetch_sub(1, Ordering::SeqCst);
                            drop(p);
                        }
                        Err(ServiceError::Rejected { .. }) => {
                            rejected.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(e) => {
                            let mut g = errors.lock().expect("error list");
                            g.push(format!("tenant {t}: {e}"));
                        }
                    }
                    live.fetch_sub(1, Ordering::SeqCst);
                    sched::unregister();
                }));
            }
            // Hold the slot until one contender is queued and the other
            // rejected — only then does releasing make the queue drain.
            // (An unexpected contender error also ends the hold, so a
            // broken gate surfaces as a violation, not a stuck run.)
            while rejected.load(Ordering::SeqCst) == 0
                && errors.lock().expect("error list").is_empty()
            {
                sched::yield_now(Point::JoinWait);
            }
            inflight.fetch_sub(1, Ordering::SeqCst);
            drop(holder);
            while live.load(Ordering::SeqCst) > 0 {
                sched::yield_now(Point::JoinWait);
            }
            for h in handles {
                h.join().map_err(|_| "contender panicked".to_string())?;
            }
            let errs = errors.lock().expect("error list");
            if !errs.is_empty() {
                return Err(errs.join("; "));
            }
            let peak = peak.load(Ordering::SeqCst);
            if peak > 1 {
                return Err(format!("admission ceiling violated: {peak} in flight"));
            }
            let (r, q, a) = (
                rejected.load(Ordering::SeqCst),
                queued_admitted.load(Ordering::SeqCst),
                immediate.load(Ordering::SeqCst),
            );
            if (r, q, a) != (1, 1, 0) {
                return Err(format!(
                    "outcome mix (rejected, queued, immediate) = ({r}, {q}, {a}), want (1, 1, 0)"
                ));
            }
            Ok(())
        }),
        verify: Box::new(|| Ok(())),
    }
}

/// `p9b`: tenants of weight 1 and 2 each pump six equal-sized grants,
/// and a third (weight 1) pumps six more from inside one chunk loop
/// ([`FairShare::call`]), stalling between its grants. Under the
/// controlled scheduler a looping tenant announces its next grant before
/// it ever yields, and the looping third tenant is visible through its
/// call, so whenever one tenant is granted every other active one is
/// waiting, arriving or counted by the arbiter — which makes the WFQ
/// bound exact on every schedule: a tenant's weight-normalized bytes may
/// not lead an active contender's by more than two quanta. Liveness
/// rides along: every grant must complete (no `GrantTimeout`, no
/// starvation), the stalled loop's included.
fn prepare_service_fair_share(_dir: &Path) -> PreparedProgram {
    const Q: u64 = 1024;
    const K: u64 = 6;
    /// Yields the looping tenant spends between two of its grants.
    const STALL: usize = 3;
    const WEIGHTS: [u64; 3] = [1, 2, 1];
    PreparedProgram {
        body: Box::new(move || {
            let fs = Arc::new(FairShare::new(Q, Duration::from_secs(5)));
            for (idx, w) in WEIGHTS.iter().enumerate() {
                fs.join(&TenantSpec::new(idx as u64 + 1).weight(*w as u32));
            }
            let bytes: Arc<[AtomicU64; 3]> = Arc::new(Default::default());
            let done: Arc<[AtomicBool; 3]> = Arc::new(Default::default());
            let live = Arc::new(AtomicUsize::new(WEIGHTS.len()));
            let violations: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
            let mut handles = Vec::new();
            for (idx, weight) in WEIGHTS.into_iter().enumerate() {
                let fs = Arc::clone(&fs);
                let bytes = Arc::clone(&bytes);
                let done = Arc::clone(&done);
                let live = Arc::clone(&live);
                let violations = Arc::clone(&violations);
                sched::spawning();
                handles.push(std::thread::spawn(move || {
                    let id = idx as u64 + 1;
                    sched::register(&format!("tenant{id}"));
                    let stalls = idx == 2;
                    let call = stalls.then(|| fs.call(id));
                    if let Some(Err(e)) = &call {
                        let mut g = violations.lock().expect("violations");
                        g.push(format!("tenant {id} call: {e}"));
                    }
                    for _ in 0..K {
                        if let Err(e) = fs.grant(id, Q) {
                            let mut g = violations.lock().expect("violations");
                            g.push(format!("tenant {id} grant: {e}"));
                            break;
                        }
                        let mine = bytes[idx].fetch_add(Q, Ordering::SeqCst) + Q;
                        for (other, other_weight) in WEIGHTS.into_iter().enumerate() {
                            // `theirs == 0` can also mean "not yet entered
                            // its first grant", where the bound does not
                            // apply — skip until the contender has output.
                            let theirs = bytes[other].load(Ordering::SeqCst);
                            if other != idx
                                && !done[other].load(Ordering::SeqCst)
                                && theirs > 0
                                && mine / weight > theirs / other_weight + 2 * Q
                            {
                                let mut g = violations.lock().expect("violations");
                                g.push(format!(
                                    "tenant {id} overtook tenant {}: {mine}B at weight \
                                     {weight} vs {theirs}B at weight {other_weight} \
                                     (quantum {Q})",
                                    other + 1
                                ));
                            }
                        }
                        if stalls {
                            for _ in 0..STALL {
                                sched::yield_now(Point::Progress);
                            }
                        }
                    }
                    done[idx].store(true, Ordering::SeqCst);
                    drop(call);
                    fs.leave(id);
                    live.fetch_sub(1, Ordering::SeqCst);
                    sched::unregister();
                }));
            }
            while live.load(Ordering::SeqCst) > 0 {
                sched::yield_now(Point::JoinWait);
            }
            for h in handles {
                h.join().map_err(|_| "tenant thread panicked".to_string())?;
            }
            let v = violations.lock().expect("violations");
            if !v.is_empty() {
                return Err(v.join("; "));
            }
            for (i, b) in bytes.iter().enumerate() {
                let got = b.load(Ordering::SeqCst);
                if got != K * Q {
                    return Err(format!(
                        "tenant {} moved {got} bytes, want {}",
                        i + 1,
                        K * Q
                    ));
                }
            }
            Ok(())
        }),
        verify: Box::new(|| Ok(())),
    }
}

/// `p9c`: a throughput tenant streams grants while a latency-sensitive
/// tenant (joined up front) runs a four-grant burst. From the burst's
/// first announcement to its leave the throughput stream must complete
/// zero grants — the burst's arrivals and waiters freeze it at every
/// grant point — and it must resume and finish once the burst ends.
fn prepare_service_qos(_dir: &Path) -> PreparedProgram {
    const Q: u64 = 512;
    PreparedProgram {
        body: Box::new(move || {
            let fs = Arc::new(FairShare::new(Q, Duration::from_secs(5)));
            fs.join(&TenantSpec::new(7).qos(QosClass::Throughput));
            // Joined before the stream starts; the throughput loop
            // yields at every grant's announcement, so the burst can
            // begin between any two of its grants.
            fs.join(&TenantSpec::new(9).qos(QosClass::LatencySensitive));
            let t_count = Arc::new(AtomicU64::new(0));
            let stop = Arc::new(AtomicBool::new(false));
            let live = Arc::new(AtomicUsize::new(1));
            let thr_err: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
            sched::spawning();
            let handle = {
                let fs = Arc::clone(&fs);
                let t_count = Arc::clone(&t_count);
                let stop = Arc::clone(&stop);
                let live = Arc::clone(&live);
                let thr_err = Arc::clone(&thr_err);
                std::thread::spawn(move || {
                    sched::register("thr");
                    while !stop.load(Ordering::SeqCst) {
                        if let Err(e) = fs.grant(7, Q) {
                            *thr_err.lock().expect("thr error slot") =
                                Some(format!("throughput grant: {e}"));
                            break;
                        }
                        t_count.fetch_add(1, Ordering::SeqCst);
                    }
                    fs.leave(7);
                    live.fetch_sub(1, Ordering::SeqCst);
                    sched::unregister();
                })
            };
            // Let the stream establish itself before the burst.
            while t_count.load(Ordering::SeqCst) < 2 {
                if thr_err.lock().expect("thr error slot").is_some() {
                    break;
                }
                sched::yield_now(Point::JoinWait);
            }
            let before = t_count.load(Ordering::SeqCst);
            let mut burst_err = None;
            for i in 0..4 {
                if let Err(e) = fs.grant(9, Q) {
                    burst_err = Some(format!("latency grant {i}: {e}"));
                    break;
                }
            }
            let after = t_count.load(Ordering::SeqCst);
            fs.leave(9);
            stop.store(true, Ordering::SeqCst);
            while live.load(Ordering::SeqCst) > 0 {
                sched::yield_now(Point::JoinWait);
            }
            handle
                .join()
                .map_err(|_| "throughput thread panicked".to_string())?;
            if let Some(e) = burst_err {
                return Err(e);
            }
            if let Some(e) = thr_err.lock().expect("thr error slot").take() {
                return Err(e);
            }
            if after != before {
                return Err(format!(
                    "throughput tenant completed {} grants under a latency waiter",
                    after - before
                ));
            }
            if t_count.load(Ordering::SeqCst) <= before {
                return Err("throughput stream never resumed after the burst".into());
            }
            Ok(())
        }),
        verify: Box::new(|| Ok(())),
    }
}
