//! Shadow model of the runtime, fed by the instrumentation [`Event`]
//! stream. Each event advances a small abstract copy of the pipeline
//! state and checks the invariants the real code is supposed to keep:
//!
//! * **Single drainer** — `WorkerClaim.was_active` must be false (true is
//!   the PR 2 double-enqueue race: two pool threads draining one writer).
//! * **Per-writer FIFO** — jobs start in submission order with
//!   monotonically increasing sequence numbers.
//! * **Snapshot integrity** — a job's payload fingerprint at execution
//!   must equal its fingerprint at submission; a mismatch means the
//!   buffer was recycled and overwritten while queued (use-after-recycle).
//! * **Error latching** — no `Commit` executes after a latched error
//!   without an intervening clear.
//! * **Drain points** — a rank entering a plan barrier has no in-flight
//!   flush jobs.
//! * **Exactly-once sends** — a `(rank, op_index)` send op is attempted
//!   once (twice is the PR 3 fault-drop re-execution bug).
//! * **Pool sanity** — no buffer is recycled while already free.
//! * **Exactly-once takeover** — an orphaned writer's extent is claimed
//!   by at most one successor (PR 5 failover).
//! * **Fenced writers never commit** — once a writer is declared dead,
//!   no commit runs under its identity (a late-reviving zombie must be
//!   fenced out; `Revert::Pr5Fence` re-opens this hole).
//! * **Extent commits are unique** — each final path is renamed into
//!   place exactly once per generation.
//! * **Durable implies drained** — a tiered generation is never marked
//!   durable (commit marker published) while any staged extent has
//!   not reached the PFS tier.
//! * **Buffers live until reap** — a ring-backend SQE's payload
//!   fingerprint at completion reap must equal its fingerprint at
//!   submission (recycling a buffer while its completion is in flight is
//!   the PR 7 early-release bug), and each submitted SQE is reaped
//!   exactly once.
//! * **Fsynced implies recoverable** — once a generation is published
//!   with fsync on ([`Event::GenDurable`]), no later restore may return
//!   an older step (PR 10 crash consistency: the fsync promise is the
//!   durability floor).
//!
//! Violations are recorded, not thrown: the run continues so one report
//! carries everything a schedule uncovered.

use std::collections::{HashMap, HashSet, VecDeque};

use rbio::sched::{Event, JobKind, TierId};

/// What kind of invariant broke.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// Two pool threads draining one writer (PR 2 double-enqueue race).
    DoubleDrain,
    /// A job started out of submission order (or with none submitted).
    FifoMismatch,
    /// Per-writer sequence numbers went backwards or skipped.
    SeqRegression,
    /// Payload fingerprint changed between submit and execution.
    UseAfterRecycle,
    /// A Commit executed while the writer had a latched error.
    CommitAfterError,
    /// A rank entered a plan barrier with flush jobs in flight.
    BarrierWithInflight,
    /// The same Send op was attempted twice (PR 3 fault-drop bug).
    DuplicateSend,
    /// A buffer was recycled while already on the pool free list.
    BufDoubleRecycle,
    /// The run exceeded its schedule-decision budget and was aborted.
    StepBudget,
    /// Output differed from the reference executor (post-run check).
    Equivalence,
    /// An orphaned writer's extent was claimed by two successors.
    DuplicateTakeover,
    /// A commit ran under a fenced (declared-dead) writer's identity.
    FencedCommit,
    /// The same final path was committed twice in one generation.
    DoubleCommit,
    /// A generation was marked durable while staged extents had not
    /// reached the PFS tier (the tier drain published the commit marker
    /// before finishing its PFS hops).
    DurableBeforeDrained,
    /// A ring SQE's payload fingerprint changed between submission and
    /// completion reap: its buffer was recycled while the completion was
    /// still in flight (the PR 7 early-release bug).
    EarlyBufferRelease,
    /// A completion was reaped for an SQE that was never submitted, or
    /// was reaped a second time (exactly-once delivery broke).
    DuplicateReap,
    /// A restore returned a step older than the newest generation the
    /// API promised durable with fsync on (PR 10: the crash-consistency
    /// contract is that an fsynced generation survives and wins).
    FsyncedNotRecovered,
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One invariant violation, with where in the schedule it surfaced.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// Human-readable specifics.
    pub detail: String,
    /// Number of schedule decisions taken when it surfaced.
    pub at_step: usize,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[step {}] {}: {}", self.at_step, self.kind, self.detail)
    }
}

#[derive(Default)]
struct WriterModel {
    rank: u32,
    /// (kind, fingerprint) of submitted-but-not-started jobs, FIFO.
    queue: VecDeque<(JobKind, u64)>,
    next_seq: u64,
    latched: bool,
    /// Submitted minus finished jobs.
    in_flight: usize,
}

/// The shadow state, advanced one event at a time.
#[derive(Default)]
pub struct Model {
    writers: HashMap<usize, WriterModel>,
    sends: HashSet<(u32, usize)>,
    /// Ranks declared dead by the failover director; anything they do
    /// after this point must be refused by the fence.
    fenced: HashSet<u32>,
    /// Orphaned ranks already claimed by a successor.
    claimed: HashSet<u32>,
    /// Final-path fingerprints already committed this generation.
    committed_paths: HashSet<u64>,
    /// Per-step staged extents (path hashes) that have not yet been
    /// drained to the PFS tier. A `TierDurable` for a step with a
    /// non-empty set here is the durable-before-drained violation.
    tier_pending: HashMap<u64, HashSet<u64>>,
    /// Ring SQEs submitted and not yet reaped: `(wid, udata)` → payload
    /// fingerprint at submission. The reap must find the same
    /// fingerprint (buffers-live-until-reap) and find it exactly once.
    ring_pending: HashMap<(usize, u64), u64>,
    /// Newest step published with fsync on: the durability floor any
    /// later restore must meet or beat (fsynced-implies-recoverable).
    durable_floor: Option<u64>,
}

impl Model {
    /// Advance the model by one event, appending any violations found.
    /// `step` is the current schedule position (for reports).
    pub fn on_event(&mut self, event: &Event, step: usize, out: &mut Vec<Violation>) {
        let mut flag = |kind: ViolationKind, detail: String| {
            out.push(Violation {
                kind,
                detail,
                at_step: step,
            })
        };
        match *event {
            Event::ExecStarted { .. } => {
                // Execution-scoped invariants reset: a fresh plan's op
                // indices restart from zero, its failover director
                // starts with no deaths, and its extents are new paths.
                // Writer slots and tier state deliberately survive the
                // boundary — the flush pool and the drain engine outlive
                // individual executions.
                self.sends.clear();
                self.fenced.clear();
                self.claimed.clear();
                self.committed_paths.clear();
            }
            Event::WriterRegistered { wid, rank } => {
                self.writers.insert(
                    wid,
                    WriterModel {
                        rank,
                        ..WriterModel::default()
                    },
                );
            }
            Event::WriterFreed { wid } => {
                self.writers.remove(&wid);
            }
            Event::Submit { wid, kind, hash } => {
                if let Some(w) = self.writers.get_mut(&wid) {
                    w.queue.push_back((kind, hash));
                    w.in_flight += 1;
                }
            }
            Event::WorkerClaim { wid, was_active } => {
                if was_active {
                    flag(
                        ViolationKind::DoubleDrain,
                        format!("writer {wid} claimed by a second pool thread while active"),
                    );
                }
            }
            Event::JobStart {
                wid,
                seq,
                kind,
                hash,
                skipped,
            } => {
                let Some(w) = self.writers.get_mut(&wid) else {
                    return;
                };
                if seq != w.next_seq {
                    flag(
                        ViolationKind::SeqRegression,
                        format!("writer {wid}: job seq {seq}, expected {}", w.next_seq),
                    );
                }
                w.next_seq = seq.wrapping_add(1);
                match w.queue.pop_front() {
                    None => flag(
                        ViolationKind::FifoMismatch,
                        format!("writer {wid}: job {kind:?} started with an empty submit queue"),
                    ),
                    Some((k, h)) => {
                        if k != kind {
                            flag(
                                ViolationKind::FifoMismatch,
                                format!("writer {wid}: started {kind:?}, next submitted was {k:?}"),
                            );
                        } else if h != hash && !skipped {
                            flag(
                                ViolationKind::UseAfterRecycle,
                                format!(
                                    "writer {wid}: {kind:?} payload fingerprint changed \
                                     {h:#018x} -> {hash:#018x} between submit and execution"
                                ),
                            );
                        }
                    }
                }
            }
            Event::JobEnd { wid, ok: _ } => {
                if let Some(w) = self.writers.get_mut(&wid) {
                    w.in_flight = w.in_flight.saturating_sub(1);
                }
            }
            Event::ErrorLatched { wid } => {
                if let Some(w) = self.writers.get_mut(&wid) {
                    w.latched = true;
                }
            }
            Event::ErrorCleared { wid } => {
                if let Some(w) = self.writers.get_mut(&wid) {
                    w.latched = false;
                }
            }
            Event::CommitExecuted { wid } => {
                if self.writers.get(&wid).is_some_and(|w| w.latched) {
                    flag(
                        ViolationKind::CommitAfterError,
                        format!("writer {wid}: Commit executed after a latched error"),
                    );
                }
                if let Some(w) = self.writers.get(&wid) {
                    if self.fenced.contains(&w.rank) {
                        flag(
                            ViolationKind::FencedCommit,
                            format!(
                                "writer {wid}: Commit executed under fenced rank {} \
                                 (zombie slipped past the fence)",
                                w.rank
                            ),
                        );
                    }
                }
            }
            Event::FenceRefused { .. } => {
                // Informational: a refused commit is a legal outcome, not
                // invariant state.
            }
            Event::WriterDead { rank } => {
                self.fenced.insert(rank);
            }
            Event::TakeoverClaim { orphan, successor } => {
                if !self.claimed.insert(orphan) {
                    flag(
                        ViolationKind::DuplicateTakeover,
                        format!(
                            "orphan {orphan} claimed a second time (by successor \
                             {successor}) — extent would be re-staged twice"
                        ),
                    );
                }
            }
            Event::ExtentCommit {
                owner,
                by,
                path_hash,
            } => {
                if self.fenced.contains(&by) {
                    flag(
                        ViolationKind::FencedCommit,
                        format!(
                            "extent of rank {owner} committed by fenced rank {by} \
                             (path hash {path_hash:#018x})"
                        ),
                    );
                }
                if !self.committed_paths.insert(path_hash) {
                    flag(
                        ViolationKind::DoubleCommit,
                        format!(
                            "path hash {path_hash:#018x} (owner {owner}) committed \
                             twice, second time by rank {by}"
                        ),
                    );
                }
            }
            Event::BarrierEnter { rank } => {
                for (wid, w) in &self.writers {
                    if w.rank == rank && w.in_flight > 0 {
                        flag(
                            ViolationKind::BarrierWithInflight,
                            format!(
                                "rank {rank} entered a barrier with {} job(s) in flight on \
                                 writer {wid}",
                                w.in_flight
                            ),
                        );
                    }
                }
            }
            Event::SendAttempt {
                rank,
                dst,
                op_index,
                dropped,
            } => {
                if !self.sends.insert((rank, op_index)) {
                    flag(
                        ViolationKind::DuplicateSend,
                        format!(
                            "rank {rank} op {op_index} (send to {dst}, dropped={dropped}) \
                             attempted twice — fault-drop re-execution"
                        ),
                    );
                }
            }
            Event::BufDoubleRecycle { addr } => {
                flag(
                    ViolationKind::BufDoubleRecycle,
                    format!("buffer {addr:#x} recycled while already on the free list"),
                );
            }
            Event::TierExtentStaged { step, path_hash } => {
                self.tier_pending.entry(step).or_default().insert(path_hash);
            }
            Event::TierExtentDrained {
                step,
                tier,
                path_hash,
            } => {
                // Only the PFS hop makes an extent durable; a burst-tier
                // landing is progress, not durability.
                if tier == TierId::Pfs {
                    if let Some(pending) = self.tier_pending.get_mut(&step) {
                        pending.remove(&path_hash);
                    }
                }
            }
            Event::TierDurable { step } => {
                let pending = self.tier_pending.remove(&step).unwrap_or_default();
                if !pending.is_empty() {
                    let mut hashes: Vec<u64> = pending.into_iter().collect();
                    hashes.sort_unstable();
                    let listed: Vec<String> = hashes.iter().map(|h| format!("{h:#018x}")).collect();
                    flag(
                        ViolationKind::DurableBeforeDrained,
                        format!(
                            "step {step} marked durable with {} staged extent(s) not yet \
                             on the PFS tier: {}",
                            listed.len(),
                            listed.join(", ")
                        ),
                    );
                }
            }
            Event::TierLost { .. } | Event::TierRestore { .. } => {
                // Informational: tier loss and tier-served restores are
                // legal outcomes the manager degrades through; the
                // durability invariant is carried by the events above.
            }
            Event::GenDurable { step } => {
                if self.durable_floor.is_none_or(|floor| step > floor) {
                    self.durable_floor = Some(step);
                }
            }
            Event::RestoreDone { step } => {
                if let Some(floor) = self.durable_floor {
                    if step < floor {
                        flag(
                            ViolationKind::FsyncedNotRecovered,
                            format!(
                                "restore returned step {step}, older than step {floor} \
                                 the API promised durable with fsync on"
                            ),
                        );
                    }
                }
            }
            Event::SubmitQueued { wid, udata, hash } => {
                self.ring_pending.insert((wid, udata), hash);
            }
            Event::CompletionReaped {
                wid,
                udata,
                hash,
                ok: _,
            } => match self.ring_pending.remove(&(wid, udata)) {
                None => flag(
                    ViolationKind::DuplicateReap,
                    format!(
                        "writer {wid}: completion {udata} reaped without a matching \
                         submission (delivered twice or never queued)"
                    ),
                ),
                Some(h) => {
                    if h != hash {
                        flag(
                            ViolationKind::EarlyBufferRelease,
                            format!(
                                "writer {wid}: SQE {udata} payload fingerprint changed \
                                 {h:#018x} -> {hash:#018x} between submit and reap — \
                                 buffer recycled while its completion was in flight"
                            ),
                        );
                    }
                }
            },
            Event::SubmitBatched { .. } | Event::ShortWriteResubmit { .. } => {
                // Informational: batch sizes and short-write continuations
                // are legal; the continuation SQE re-enters via its own
                // SubmitQueued/CompletionReaped pair.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(events: &[Event]) -> Vec<Violation> {
        let mut m = Model::default();
        let mut v = Vec::new();
        for (i, e) in events.iter().enumerate() {
            m.on_event(e, i, &mut v);
        }
        v
    }

    #[test]
    fn clean_pipeline_lifecycle_has_no_violations() {
        let v = feed(&[
            Event::WriterRegistered { wid: 0, rank: 3 },
            Event::Submit {
                wid: 0,
                kind: JobKind::Write,
                hash: 11,
            },
            Event::Submit {
                wid: 0,
                kind: JobKind::Commit,
                hash: 0,
            },
            Event::WorkerClaim {
                wid: 0,
                was_active: false,
            },
            Event::JobStart {
                wid: 0,
                seq: 0,
                kind: JobKind::Write,
                hash: 11,
                skipped: false,
            },
            Event::JobEnd { wid: 0, ok: true },
            Event::JobStart {
                wid: 0,
                seq: 1,
                kind: JobKind::Commit,
                hash: 0,
                skipped: false,
            },
            Event::CommitExecuted { wid: 0 },
            Event::JobEnd { wid: 0, ok: true },
            Event::BarrierEnter { rank: 3 },
            Event::WriterFreed { wid: 0 },
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn double_claim_fifo_and_hash_violations_detected() {
        let v = feed(&[
            Event::WriterRegistered { wid: 1, rank: 0 },
            Event::Submit {
                wid: 1,
                kind: JobKind::Write,
                hash: 5,
            },
            Event::WorkerClaim {
                wid: 1,
                was_active: true,
            },
            // Fingerprint changed in flight.
            Event::JobStart {
                wid: 1,
                seq: 0,
                kind: JobKind::Write,
                hash: 6,
                skipped: false,
            },
            // Nothing left in the queue for this one.
            Event::JobStart {
                wid: 1,
                seq: 1,
                kind: JobKind::Close,
                hash: 0,
                skipped: false,
            },
        ]);
        let kinds: Vec<ViolationKind> = v.iter().map(|x| x.kind).collect();
        assert_eq!(
            kinds,
            vec![
                ViolationKind::DoubleDrain,
                ViolationKind::UseAfterRecycle,
                ViolationKind::FifoMismatch
            ],
            "{v:?}"
        );
    }

    #[test]
    fn failover_invariants_detected() {
        let v = feed(&[
            // Rank 3 registered a pipelined writer, then is declared dead.
            Event::WriterRegistered { wid: 2, rank: 3 },
            Event::WriterDead { rank: 3 },
            // Clean takeover by rank 5, then a duplicate claim.
            Event::TakeoverClaim {
                orphan: 3,
                successor: 5,
            },
            Event::TakeoverClaim {
                orphan: 3,
                successor: 7,
            },
            // The fence refusing the zombie is fine ...
            Event::FenceRefused { rank: 3 },
            // ... but a commit executing under its identity is not,
            // whether surfaced as a pipeline job or an extent rename.
            Event::CommitExecuted { wid: 2 },
            Event::ExtentCommit {
                owner: 3,
                by: 3,
                path_hash: 0xAB,
            },
            // Successor committing the same path again: double commit.
            Event::ExtentCommit {
                owner: 3,
                by: 5,
                path_hash: 0xAB,
            },
            // A different path by a healthy rank is clean.
            Event::ExtentCommit {
                owner: 5,
                by: 5,
                path_hash: 0xCD,
            },
        ]);
        let kinds: Vec<ViolationKind> = v.iter().map(|x| x.kind).collect();
        assert_eq!(
            kinds,
            vec![
                ViolationKind::DuplicateTakeover,
                ViolationKind::FencedCommit,
                ViolationKind::FencedCommit,
                ViolationKind::DoubleCommit
            ],
            "{v:?}"
        );
    }

    #[test]
    fn commit_after_error_barrier_inflight_and_dup_send_detected() {
        let v = feed(&[
            Event::WriterRegistered { wid: 0, rank: 2 },
            Event::Submit {
                wid: 0,
                kind: JobKind::Commit,
                hash: 0,
            },
            Event::ErrorLatched { wid: 0 },
            Event::JobStart {
                wid: 0,
                seq: 0,
                kind: JobKind::Commit,
                hash: 0,
                skipped: false,
            },
            Event::CommitExecuted { wid: 0 },
            // Barrier while the commit is still in flight (no JobEnd yet).
            Event::BarrierEnter { rank: 2 },
            Event::SendAttempt {
                rank: 1,
                dst: 0,
                op_index: 4,
                dropped: true,
            },
            Event::SendAttempt {
                rank: 1,
                dst: 0,
                op_index: 4,
                dropped: false,
            },
        ]);
        let kinds: Vec<ViolationKind> = v.iter().map(|x| x.kind).collect();
        assert_eq!(
            kinds,
            vec![
                ViolationKind::CommitAfterError,
                ViolationKind::BarrierWithInflight,
                ViolationKind::DuplicateSend
            ],
            "{v:?}"
        );
    }

    #[test]
    fn exec_boundary_resets_execution_scoped_state() {
        // The same (rank, op_index) send in two different executions is
        // legal; within one execution it is the PR 3 duplicate.
        let v = feed(&[
            Event::ExecStarted { nranks: 2 },
            Event::SendAttempt {
                rank: 1,
                dst: 0,
                op_index: 0,
                dropped: false,
            },
            Event::ExecStarted { nranks: 2 },
            Event::SendAttempt {
                rank: 1,
                dst: 0,
                op_index: 0,
                dropped: false,
            },
            Event::SendAttempt {
                rank: 1,
                dst: 0,
                op_index: 0,
                dropped: false,
            },
        ]);
        let kinds: Vec<ViolationKind> = v.iter().map(|x| x.kind).collect();
        assert_eq!(kinds, vec![ViolationKind::DuplicateSend], "{v:?}");
    }

    #[test]
    fn clean_tier_lifecycle_has_no_violations() {
        let v = feed(&[
            Event::TierExtentStaged {
                step: 4,
                path_hash: 0xA1,
            },
            Event::TierExtentStaged {
                step: 4,
                path_hash: 0xA2,
            },
            // A burst hop alone is not durability ...
            Event::TierExtentDrained {
                step: 4,
                tier: TierId::Burst,
                path_hash: 0xA1,
            },
            // ... but every extent reaching the PFS before TierDurable is.
            Event::TierExtentDrained {
                step: 4,
                tier: TierId::Pfs,
                path_hash: 0xA1,
            },
            Event::TierExtentDrained {
                step: 4,
                tier: TierId::Pfs,
                path_hash: 0xA2,
            },
            Event::TierDurable { step: 4 },
            // Loss and tier-served restores are informational.
            Event::TierLost {
                tier: TierId::Local,
            },
            Event::TierRestore {
                step: 4,
                tier: TierId::Burst,
            },
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn ring_buffer_lifetime_violations_detected() {
        // A clean submit → reap pair (including a short-write
        // continuation under a fresh udata) is silent.
        let clean = feed(&[
            Event::SubmitQueued {
                wid: 0,
                udata: 1,
                hash: 0xAA,
            },
            Event::SubmitBatched { wid: 0, count: 1 },
            Event::CompletionReaped {
                wid: 0,
                udata: 1,
                hash: 0xAA,
                ok: true,
            },
            Event::ShortWriteResubmit {
                wid: 0,
                udata: 1,
                written: 3,
                expected: 8,
            },
            Event::SubmitQueued {
                wid: 0,
                udata: 2,
                hash: 0xAA,
            },
            Event::CompletionReaped {
                wid: 0,
                udata: 2,
                hash: 0xAA,
                ok: true,
            },
        ]);
        assert!(clean.is_empty(), "{clean:?}");
        // Fingerprint drift between submit and reap, then a second reap
        // of the same udata.
        let v = feed(&[
            Event::SubmitQueued {
                wid: 1,
                udata: 1,
                hash: 0xAA,
            },
            Event::CompletionReaped {
                wid: 1,
                udata: 1,
                hash: 0xBB,
                ok: true,
            },
            Event::CompletionReaped {
                wid: 1,
                udata: 1,
                hash: 0xBB,
                ok: true,
            },
        ]);
        let kinds: Vec<ViolationKind> = v.iter().map(|x| x.kind).collect();
        assert_eq!(
            kinds,
            vec![
                ViolationKind::EarlyBufferRelease,
                ViolationKind::DuplicateReap
            ],
            "{v:?}"
        );
        // The same udata on different writers is independent state.
        let cross = feed(&[
            Event::SubmitQueued {
                wid: 0,
                udata: 1,
                hash: 0x11,
            },
            Event::SubmitQueued {
                wid: 1,
                udata: 1,
                hash: 0x22,
            },
            Event::CompletionReaped {
                wid: 1,
                udata: 1,
                hash: 0x22,
                ok: true,
            },
            Event::CompletionReaped {
                wid: 0,
                udata: 1,
                hash: 0x11,
                ok: false,
            },
        ]);
        assert!(cross.is_empty(), "{cross:?}");
    }

    #[test]
    fn fsynced_implies_recoverable_tracks_the_floor() {
        // Restoring the promised step, or a newer one, is clean — and a
        // restore with no promise outstanding is always legal.
        let clean = feed(&[
            Event::RestoreDone { step: 1 },
            Event::GenDurable { step: 3 },
            Event::GenDurable { step: 2 }, // floor stays at 3
            Event::RestoreDone { step: 3 },
            Event::GenDurable { step: 5 },
            Event::RestoreDone { step: 6 },
        ]);
        assert!(clean.is_empty(), "{clean:?}");
        // Restoring below the floor is the breach.
        let v = feed(&[
            Event::GenDurable { step: 4 },
            Event::RestoreDone { step: 2 },
        ]);
        let kinds: Vec<ViolationKind> = v.iter().map(|x| x.kind).collect();
        assert_eq!(kinds, vec![ViolationKind::FsyncedNotRecovered], "{v:?}");
        assert!(v[0].detail.contains("step 2"), "{v:?}");
        assert!(v[0].detail.contains("step 4"), "{v:?}");
    }

    #[test]
    fn durable_before_pfs_drain_detected() {
        let v = feed(&[
            Event::TierExtentStaged {
                step: 9,
                path_hash: 0xB1,
            },
            Event::TierExtentStaged {
                step: 9,
                path_hash: 0xB2,
            },
            // Only one extent reaches the PFS; the other sits at burst.
            Event::TierExtentDrained {
                step: 9,
                tier: TierId::Pfs,
                path_hash: 0xB1,
            },
            Event::TierExtentDrained {
                step: 9,
                tier: TierId::Burst,
                path_hash: 0xB2,
            },
            Event::TierDurable { step: 9 },
        ]);
        let kinds: Vec<ViolationKind> = v.iter().map(|x| x.kind).collect();
        assert_eq!(kinds, vec![ViolationKind::DurableBeforeDrained], "{v:?}");
        assert!(v[0].detail.contains("0x00000000000000b2"), "{v:?}");
        // Steps are tracked independently: a different step staged later
        // is unaffected by step 9's violation.
        let clean = feed(&[
            Event::TierExtentStaged {
                step: 10,
                path_hash: 0xC1,
            },
            Event::TierExtentDrained {
                step: 10,
                tier: TierId::Pfs,
                path_hash: 0xC1,
            },
            Event::TierDurable { step: 10 },
        ]);
        assert!(clean.is_empty(), "{clean:?}");
    }
}
