//! Process-wide datapath copy accounting.
//!
//! The rbIO pitch is that a worker's checkpoint bytes are touched as few
//! times as possible between the application buffer and the writer's file
//! image. These counters pin that numerically: every memcpy on the
//! checkpoint datapath (payload → channel, channel → staging, staging →
//! flush snapshot, …) adds to `bytes_copied`, and every byte handed to a
//! file write adds to `checkpoint_bytes`. The ratio
//! `bytes_copied / checkpoint_bytes` is the *copies per checkpoint byte*
//! reported by the `datapath` bench — ~3 on the legacy deep-copy path,
//! ≤ ~1 on the zero-copy path.
//!
//! The counters are process-wide atomics (relaxed ordering: they are
//! statistics, not synchronization). Measurement protocol: [`reset`], run
//! the workload, [`snapshot`] — or take a snapshot before and after and
//! subtract with [`CopySnapshot::delta_since`] when other work may run
//! concurrently.

use std::sync::atomic::{AtomicU64, Ordering};

static BYTES_COPIED: AtomicU64 = AtomicU64::new(0);
static CHECKPOINT_BYTES: AtomicU64 = AtomicU64::new(0);

// Failover observability (see `rbio::failover`): how often the runtime
// had to absorb a writer failure rather than abort.
static FAILOVERS: AtomicU64 = AtomicU64::new(0);
static HEDGED_JOBS: AtomicU64 = AtomicU64::new(0);
static FENCED_COMMITS_REFUSED: AtomicU64 = AtomicU64::new(0);
static DEGRADED_GENERATIONS: AtomicU64 = AtomicU64::new(0);
static SHORT_WRITE_RETRIES: AtomicU64 = AtomicU64::new(0);

// Tiered-staging observability (see `rbio::tier`): how much checkpoint
// data took the fast local tier, and how the drain engine fared.
static TIER_STAGED_BYTES: AtomicU64 = AtomicU64::new(0);
static TIER_DRAINED_BYTES: AtomicU64 = AtomicU64::new(0);
static TIER_RESTORES: AtomicU64 = AtomicU64::new(0);
static TIER_LOSSES: AtomicU64 = AtomicU64::new(0);

// Autotuner observability (see `rbio-tune`): how hard the solver worked
// and how much the caches saved. Evaluated = full simulations actually
// run; memo hits = candidates answered from the canonical-config cache;
// pruned = subtrees discarded by the branch-and-bound lower bound.
static TUNE_EVALS: AtomicU64 = AtomicU64::new(0);
static TUNE_MEMO_HITS: AtomicU64 = AtomicU64::new(0);
static TUNE_PRUNED: AtomicU64 = AtomicU64::new(0);
static TUNE_EVAL_NANOS: AtomicU64 = AtomicU64::new(0);

// Crash-torture and scrub observability (see `rbio::crash` and
// `rbio::scrub`): how many synthetic crash images the durability sweep
// has checked, what the scrubber verified, found, and repaired, and how
// many orphaned files startup/restore GC reaped.
static CRASH_IMAGES_CHECKED: AtomicU64 = AtomicU64::new(0);
static SCRUB_FILES_CHECKED: AtomicU64 = AtomicU64::new(0);
static SCRUB_BYTES_VERIFIED: AtomicU64 = AtomicU64::new(0);
static SCRUB_DAMAGE_FOUND: AtomicU64 = AtomicU64::new(0);
static SCRUB_REPAIRS: AtomicU64 = AtomicU64::new(0);
static GC_ORPHANS: AtomicU64 = AtomicU64::new(0);

// Multi-tenant service observability (see `rbio::service`): admission
// decisions, backpressure and QoS events.
static SERVICE_ADMITTED: AtomicU64 = AtomicU64::new(0);
static SERVICE_QUEUED: AtomicU64 = AtomicU64::new(0);
static SERVICE_REJECTED: AtomicU64 = AtomicU64::new(0);
static SERVICE_COMPLETED: AtomicU64 = AtomicU64::new(0);
static SERVICE_FAILED: AtomicU64 = AtomicU64::new(0);
static SERVICE_PREEMPTIONS: AtomicU64 = AtomicU64::new(0);
static SERVICE_THROTTLE_WAITS: AtomicU64 = AtomicU64::new(0);
// Bounded-channel backpressure in the executors: sends that found the
// queue full and had to wait, and sends that hit their deadline.
static SEND_BACKPRESSURE_BLOCKS: AtomicU64 = AtomicU64::new(0);
static SEND_BACKPRESSURE_TIMEOUTS: AtomicU64 = AtomicU64::new(0);

/// Fixed number of per-tenant counter slots. Tenants hash into slots
/// ([`tenant_slot`]); recording is a relaxed atomic add into a static
/// array — no allocation, no locks, safe from any thread.
pub const TENANT_SLOTS: usize = 256;

static TENANT_BYTES_WRITTEN: [AtomicU64; TENANT_SLOTS] =
    [const { AtomicU64::new(0) }; TENANT_SLOTS];
static TENANT_BYTES_READ: [AtomicU64; TENANT_SLOTS] = [const { AtomicU64::new(0) }; TENANT_SLOTS];
static TENANT_SESSIONS_DONE: [AtomicU64; TENANT_SLOTS] =
    [const { AtomicU64::new(0) }; TENANT_SLOTS];

/// Samples the live service time series retains. Power of two so the
/// ring index is a mask.
pub const SERVICE_SERIES_CAP: usize = 512;

// The ring is four parallel static arrays plus a monotone head; a
// sample is (seq, tenant slot, cumulative tenant bytes, cumulative
// tenant sessions). Writers only touch atomics (zero-alloc); readers
// may observe a torn in-progress sample under wrap races, which is
// acceptable for an observability feed.
static SERIES_HEAD: AtomicU64 = AtomicU64::new(0);
static SERIES_SEQ: [AtomicU64; SERVICE_SERIES_CAP] =
    [const { AtomicU64::new(0) }; SERVICE_SERIES_CAP];
static SERIES_TENANT: [AtomicU64; SERVICE_SERIES_CAP] =
    [const { AtomicU64::new(0) }; SERVICE_SERIES_CAP];
static SERIES_BYTES: [AtomicU64; SERVICE_SERIES_CAP] =
    [const { AtomicU64::new(0) }; SERVICE_SERIES_CAP];
static SERIES_SESSIONS: [AtomicU64; SERVICE_SERIES_CAP] =
    [const { AtomicU64::new(0) }; SERVICE_SERIES_CAP];

/// A point-in-time reading of the datapath copy counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopySnapshot {
    /// Total bytes memcpy'd on the checkpoint datapath.
    pub bytes_copied: u64,
    /// Total bytes handed to checkpoint file writes.
    pub checkpoint_bytes: u64,
}

impl CopySnapshot {
    /// Copies per checkpoint byte: the headline datapath metric.
    /// Returns 0.0 when no checkpoint bytes were written.
    pub fn copies_per_checkpoint_byte(&self) -> f64 {
        if self.checkpoint_bytes == 0 {
            0.0
        } else {
            self.bytes_copied as f64 / self.checkpoint_bytes as f64
        }
    }

    /// The counter growth between `prev` (earlier) and `self` (later).
    pub fn delta_since(&self, prev: &CopySnapshot) -> CopySnapshot {
        CopySnapshot {
            bytes_copied: self.bytes_copied.saturating_sub(prev.bytes_copied),
            checkpoint_bytes: self.checkpoint_bytes.saturating_sub(prev.checkpoint_bytes),
        }
    }
}

/// A point-in-time reading of the writer-failover counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverSnapshot {
    /// Writer failures absorbed by rerouting to a successor.
    pub failovers: u64,
    /// Flush jobs hedged past the straggler deadline.
    pub hedged_jobs: u64,
    /// Commit attempts refused because the writer was fenced.
    pub fenced_commits_refused: u64,
    /// Generations restored (or committed) in degraded mode.
    pub degraded_generations: u64,
    /// Continuations of writes the device cut short (partial `pwrite`
    /// returns and injected short-write faults) — distinct from hedges:
    /// the same logical write finishing, not a duplicate submission.
    pub short_write_retries: u64,
}

impl FailoverSnapshot {
    /// The counter growth between `prev` (earlier) and `self` (later).
    pub fn delta_since(&self, prev: &FailoverSnapshot) -> FailoverSnapshot {
        FailoverSnapshot {
            failovers: self.failovers.saturating_sub(prev.failovers),
            hedged_jobs: self.hedged_jobs.saturating_sub(prev.hedged_jobs),
            fenced_commits_refused: self
                .fenced_commits_refused
                .saturating_sub(prev.fenced_commits_refused),
            degraded_generations: self
                .degraded_generations
                .saturating_sub(prev.degraded_generations),
            short_write_retries: self
                .short_write_retries
                .saturating_sub(prev.short_write_retries),
        }
    }

    /// Render as a JSON object, for inclusion in profile exports.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"failovers\": {}, \"hedged_jobs\": {}, \"fenced_commits_refused\": {}, \
             \"degraded_generations\": {}, \"short_write_retries\": {}}}",
            self.failovers,
            self.hedged_jobs,
            self.fenced_commits_refused,
            self.degraded_generations,
            self.short_write_retries
        )
    }
}

/// A point-in-time reading of the tiered-staging counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierSnapshot {
    /// Bytes appended to the node-local slab tier.
    pub staged_bytes: u64,
    /// Bytes the drain engine has flushed to the durable PFS tier.
    pub drained_bytes: u64,
    /// Restores served from a faster tier instead of the PFS.
    pub tier_restores: u64,
    /// Simulated tier losses absorbed without aborting.
    pub tier_losses: u64,
}

impl TierSnapshot {
    /// The counter growth between `prev` (earlier) and `self` (later).
    pub fn delta_since(&self, prev: &TierSnapshot) -> TierSnapshot {
        TierSnapshot {
            staged_bytes: self.staged_bytes.saturating_sub(prev.staged_bytes),
            drained_bytes: self.drained_bytes.saturating_sub(prev.drained_bytes),
            tier_restores: self.tier_restores.saturating_sub(prev.tier_restores),
            tier_losses: self.tier_losses.saturating_sub(prev.tier_losses),
        }
    }

    /// Render as a JSON object, for inclusion in profile exports.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"staged_bytes\": {}, \"drained_bytes\": {}, \"tier_restores\": {}, \
             \"tier_losses\": {}}}",
            self.staged_bytes, self.drained_bytes, self.tier_restores, self.tier_losses
        )
    }
}

/// A point-in-time reading of the autotuner counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneSnapshot {
    /// Candidate configurations costed by a full simulation run.
    pub evals: u64,
    /// Candidates answered from the memoization cache.
    pub memo_hits: u64,
    /// Candidates (or subtree members) discarded by bound pruning.
    pub pruned: u64,
    /// Wall nanoseconds spent inside cost evaluations.
    pub eval_nanos: u64,
}

impl TuneSnapshot {
    /// The counter growth between `prev` (earlier) and `self` (later).
    pub fn delta_since(&self, prev: &TuneSnapshot) -> TuneSnapshot {
        TuneSnapshot {
            evals: self.evals.saturating_sub(prev.evals),
            memo_hits: self.memo_hits.saturating_sub(prev.memo_hits),
            pruned: self.pruned.saturating_sub(prev.pruned),
            eval_nanos: self.eval_nanos.saturating_sub(prev.eval_nanos),
        }
    }

    /// Cache hit rate over all candidate lookups (0.0 when none).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.evals + self.memo_hits;
        if lookups == 0 {
            0.0
        } else {
            self.memo_hits as f64 / lookups as f64
        }
    }

    /// Mean wall seconds per full evaluation (0.0 when none).
    pub fn secs_per_eval(&self) -> f64 {
        if self.evals == 0 {
            0.0
        } else {
            self.eval_nanos as f64 / 1e9 / self.evals as f64
        }
    }

    /// Render as a JSON object, for inclusion in profile exports.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"evals\": {}, \"memo_hits\": {}, \"pruned\": {}, \"eval_nanos\": {}, \
             \"hit_rate\": {:.4}, \"secs_per_eval\": {:.6}}}",
            self.evals,
            self.memo_hits,
            self.pruned,
            self.eval_nanos,
            self.hit_rate(),
            self.secs_per_eval()
        )
    }
}

/// Account `n` candidate configurations costed by full simulation.
#[inline]
pub fn add_tune_evals(n: u64) {
    TUNE_EVALS.fetch_add(n, Ordering::Relaxed);
}

/// Account `n` candidates served from the memoization cache.
#[inline]
pub fn add_tune_memo_hits(n: u64) {
    TUNE_MEMO_HITS.fetch_add(n, Ordering::Relaxed);
}

/// Account `n` candidates discarded by branch-and-bound pruning.
#[inline]
pub fn add_tune_pruned(n: u64) {
    TUNE_PRUNED.fetch_add(n, Ordering::Relaxed);
}

/// Account `n` wall nanoseconds spent inside cost evaluations.
#[inline]
pub fn add_tune_eval_nanos(n: u64) {
    TUNE_EVAL_NANOS.fetch_add(n, Ordering::Relaxed);
}

/// Read the autotuner counters.
pub fn tune_snapshot() -> TuneSnapshot {
    TuneSnapshot {
        evals: TUNE_EVALS.load(Ordering::Relaxed),
        memo_hits: TUNE_MEMO_HITS.load(Ordering::Relaxed),
        pruned: TUNE_PRUNED.load(Ordering::Relaxed),
        eval_nanos: TUNE_EVAL_NANOS.load(Ordering::Relaxed),
    }
}

/// Account `n` bytes appended to the node-local slab tier.
#[inline]
pub fn add_tier_staged_bytes(n: u64) {
    TIER_STAGED_BYTES.fetch_add(n, Ordering::Relaxed);
}

/// Account `n` bytes drained to the durable PFS tier.
#[inline]
pub fn add_tier_drained_bytes(n: u64) {
    TIER_DRAINED_BYTES.fetch_add(n, Ordering::Relaxed);
}

/// Account one restore served from a faster tier instead of the PFS.
#[inline]
pub fn add_tier_restores(n: u64) {
    TIER_RESTORES.fetch_add(n, Ordering::Relaxed);
}

/// Account one simulated tier loss absorbed without aborting.
#[inline]
pub fn add_tier_losses(n: u64) {
    TIER_LOSSES.fetch_add(n, Ordering::Relaxed);
}

/// Read the tiered-staging counters.
pub fn tier_snapshot() -> TierSnapshot {
    TierSnapshot {
        staged_bytes: TIER_STAGED_BYTES.load(Ordering::Relaxed),
        drained_bytes: TIER_DRAINED_BYTES.load(Ordering::Relaxed),
        tier_restores: TIER_RESTORES.load(Ordering::Relaxed),
        tier_losses: TIER_LOSSES.load(Ordering::Relaxed),
    }
}

/// A point-in-time reading of the crash-sweep / scrubber / GC counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubSnapshot {
    /// Synthetic crash images materialized and restore-checked.
    pub crash_images_checked: u64,
    /// Generation files whose footer CRCs the scrubber re-verified.
    pub scrub_files_checked: u64,
    /// Bytes read and checksummed by the scrubber.
    pub scrub_bytes_verified: u64,
    /// Damage records the scrubber classified (torn, missing, orphan,
    /// metadata divergence).
    pub scrub_damage_found: u64,
    /// Damaged files repaired from a redundant copy.
    pub scrub_repairs: u64,
    /// Orphaned `*.tmp` / unreferenced slab files garbage-collected.
    pub gc_orphans: u64,
}

impl ScrubSnapshot {
    /// The counter growth between `prev` (earlier) and `self` (later).
    pub fn delta_since(&self, prev: &ScrubSnapshot) -> ScrubSnapshot {
        ScrubSnapshot {
            crash_images_checked: self
                .crash_images_checked
                .saturating_sub(prev.crash_images_checked),
            scrub_files_checked: self
                .scrub_files_checked
                .saturating_sub(prev.scrub_files_checked),
            scrub_bytes_verified: self
                .scrub_bytes_verified
                .saturating_sub(prev.scrub_bytes_verified),
            scrub_damage_found: self
                .scrub_damage_found
                .saturating_sub(prev.scrub_damage_found),
            scrub_repairs: self.scrub_repairs.saturating_sub(prev.scrub_repairs),
            gc_orphans: self.gc_orphans.saturating_sub(prev.gc_orphans),
        }
    }

    /// Render as a JSON object, for inclusion in profile exports.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"crash_images_checked\": {}, \"scrub_files_checked\": {}, \
             \"scrub_bytes_verified\": {}, \"scrub_damage_found\": {}, \
             \"scrub_repairs\": {}, \"gc_orphans\": {}}}",
            self.crash_images_checked,
            self.scrub_files_checked,
            self.scrub_bytes_verified,
            self.scrub_damage_found,
            self.scrub_repairs,
            self.gc_orphans
        )
    }
}

/// Account `n` synthetic crash images restore-checked.
#[inline]
pub fn add_crash_images_checked(n: u64) {
    CRASH_IMAGES_CHECKED.fetch_add(n, Ordering::Relaxed);
}

/// Account `n` generation files re-verified by the scrubber.
#[inline]
pub fn add_scrub_files_checked(n: u64) {
    SCRUB_FILES_CHECKED.fetch_add(n, Ordering::Relaxed);
}

/// Account `n` bytes read and checksummed by the scrubber.
#[inline]
pub fn add_scrub_bytes_verified(n: u64) {
    SCRUB_BYTES_VERIFIED.fetch_add(n, Ordering::Relaxed);
}

/// Account `n` damage records classified by the scrubber.
#[inline]
pub fn add_scrub_damage_found(n: u64) {
    SCRUB_DAMAGE_FOUND.fetch_add(n, Ordering::Relaxed);
}

/// Account `n` files repaired from a redundant copy.
#[inline]
pub fn add_scrub_repairs(n: u64) {
    SCRUB_REPAIRS.fetch_add(n, Ordering::Relaxed);
}

/// Account `n` orphaned files garbage-collected.
#[inline]
pub fn add_gc_orphans(n: u64) {
    GC_ORPHANS.fetch_add(n, Ordering::Relaxed);
}

/// Read the crash-sweep / scrubber / GC counters.
pub fn scrub_snapshot() -> ScrubSnapshot {
    ScrubSnapshot {
        crash_images_checked: CRASH_IMAGES_CHECKED.load(Ordering::Relaxed),
        scrub_files_checked: SCRUB_FILES_CHECKED.load(Ordering::Relaxed),
        scrub_bytes_verified: SCRUB_BYTES_VERIFIED.load(Ordering::Relaxed),
        scrub_damage_found: SCRUB_DAMAGE_FOUND.load(Ordering::Relaxed),
        scrub_repairs: SCRUB_REPAIRS.load(Ordering::Relaxed),
        gc_orphans: GC_ORPHANS.load(Ordering::Relaxed),
    }
}

/// Account `n` bytes memcpy'd on the checkpoint datapath.
#[inline]
pub fn add_bytes_copied(n: u64) {
    BYTES_COPIED.fetch_add(n, Ordering::Relaxed);
}

/// Account one writer failover (a successor took over an orphan extent).
#[inline]
pub fn add_failovers(n: u64) {
    FAILOVERS.fetch_add(n, Ordering::Relaxed);
}

/// Account one hedged flush job (straggler deadline exceeded).
#[inline]
pub fn add_hedged_jobs(n: u64) {
    HEDGED_JOBS.fetch_add(n, Ordering::Relaxed);
}

/// Account one commit refused because its writer was fenced.
#[inline]
pub fn add_fenced_commits_refused(n: u64) {
    FENCED_COMMITS_REFUSED.fetch_add(n, Ordering::Relaxed);
}

/// Account one generation observed degraded-but-recoverable.
#[inline]
pub fn add_degraded_generations(n: u64) {
    DEGRADED_GENERATIONS.fetch_add(n, Ordering::Relaxed);
}

/// Account one continuation of a short (partial) write.
#[inline]
pub fn add_short_write_retries(n: u64) {
    SHORT_WRITE_RETRIES.fetch_add(n, Ordering::Relaxed);
}

/// Read the failover counters.
pub fn failover_snapshot() -> FailoverSnapshot {
    FailoverSnapshot {
        failovers: FAILOVERS.load(Ordering::Relaxed),
        hedged_jobs: HEDGED_JOBS.load(Ordering::Relaxed),
        fenced_commits_refused: FENCED_COMMITS_REFUSED.load(Ordering::Relaxed),
        degraded_generations: DEGRADED_GENERATIONS.load(Ordering::Relaxed),
        short_write_retries: SHORT_WRITE_RETRIES.load(Ordering::Relaxed),
    }
}

/// Account `n` bytes handed to a checkpoint file write.
#[inline]
pub fn add_checkpoint_bytes(n: u64) {
    CHECKPOINT_BYTES.fetch_add(n, Ordering::Relaxed);
}

/// Read both counters.
pub fn snapshot() -> CopySnapshot {
    CopySnapshot {
        bytes_copied: BYTES_COPIED.load(Ordering::Relaxed),
        checkpoint_bytes: CHECKPOINT_BYTES.load(Ordering::Relaxed),
    }
}

/// Zero both counters. Only meaningful when the caller owns the process
/// (benches); concurrent tests should use [`CopySnapshot::delta_since`].
pub fn reset() {
    BYTES_COPIED.store(0, Ordering::Relaxed);
    CHECKPOINT_BYTES.store(0, Ordering::Relaxed);
}

/// A point-in-time reading of the multi-tenant service counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceSnapshot {
    /// Sessions admitted to run immediately.
    pub admitted: u64,
    /// Sessions parked in the bounded waiting room.
    pub queued: u64,
    /// Sessions refused with a typed `Rejected` outcome.
    pub rejected: u64,
    /// Sessions that ran to completion.
    pub completed: u64,
    /// Sessions that surfaced a typed error.
    pub failed: u64,
    /// Throughput grants deferred because a latency-sensitive session
    /// was waiting at the same grant point.
    pub preemptions: u64,
    /// Fair-share grants that had to wait for a lagging tenant.
    pub throttle_waits: u64,
    /// Bounded-channel sends that found the queue full and waited.
    pub send_backpressure_blocks: u64,
    /// Bounded-channel sends that hit their deadline.
    pub send_backpressure_timeouts: u64,
}

impl ServiceSnapshot {
    /// Counter increments since `prev` (same protocol as the others).
    pub fn delta_since(&self, prev: &ServiceSnapshot) -> ServiceSnapshot {
        ServiceSnapshot {
            admitted: self.admitted - prev.admitted,
            queued: self.queued - prev.queued,
            rejected: self.rejected - prev.rejected,
            completed: self.completed - prev.completed,
            failed: self.failed - prev.failed,
            preemptions: self.preemptions - prev.preemptions,
            throttle_waits: self.throttle_waits - prev.throttle_waits,
            send_backpressure_blocks: self.send_backpressure_blocks - prev.send_backpressure_blocks,
            send_backpressure_timeouts: self.send_backpressure_timeouts
                - prev.send_backpressure_timeouts,
        }
    }

    /// JSON object for reports.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"admitted\": {}, \"queued\": {}, \"rejected\": {}, \"completed\": {}, \
             \"failed\": {}, \"preemptions\": {}, \"throttle_waits\": {}, \
             \"send_backpressure_blocks\": {}, \"send_backpressure_timeouts\": {}}}",
            self.admitted,
            self.queued,
            self.rejected,
            self.completed,
            self.failed,
            self.preemptions,
            self.throttle_waits,
            self.send_backpressure_blocks,
            self.send_backpressure_timeouts,
        )
    }
}

/// Count a session admitted to run immediately.
#[inline]
pub fn add_service_admitted(n: u64) {
    SERVICE_ADMITTED.fetch_add(n, Ordering::Relaxed);
}

/// Count a session parked in the waiting room.
#[inline]
pub fn add_service_queued(n: u64) {
    SERVICE_QUEUED.fetch_add(n, Ordering::Relaxed);
}

/// Count a session refused admission.
#[inline]
pub fn add_service_rejected(n: u64) {
    SERVICE_REJECTED.fetch_add(n, Ordering::Relaxed);
}

/// Count a session that ran to completion.
#[inline]
pub fn add_service_completed(n: u64) {
    SERVICE_COMPLETED.fetch_add(n, Ordering::Relaxed);
}

/// Count a session that surfaced a typed error.
#[inline]
pub fn add_service_failed(n: u64) {
    SERVICE_FAILED.fetch_add(n, Ordering::Relaxed);
}

/// Count a throughput grant deferred behind a latency-sensitive one.
#[inline]
pub fn add_service_preemptions(n: u64) {
    SERVICE_PREEMPTIONS.fetch_add(n, Ordering::Relaxed);
}

/// Count a fair-share grant that had to wait its turn.
#[inline]
pub fn add_service_throttle_waits(n: u64) {
    SERVICE_THROTTLE_WAITS.fetch_add(n, Ordering::Relaxed);
}

/// Count a bounded-channel send that found the queue full.
#[inline]
pub fn add_send_backpressure_blocks(n: u64) {
    SEND_BACKPRESSURE_BLOCKS.fetch_add(n, Ordering::Relaxed);
}

/// Count a bounded-channel send that hit its deadline.
#[inline]
pub fn add_send_backpressure_timeouts(n: u64) {
    SEND_BACKPRESSURE_TIMEOUTS.fetch_add(n, Ordering::Relaxed);
}

/// Read the service counters.
pub fn service_snapshot() -> ServiceSnapshot {
    ServiceSnapshot {
        admitted: SERVICE_ADMITTED.load(Ordering::Relaxed),
        queued: SERVICE_QUEUED.load(Ordering::Relaxed),
        rejected: SERVICE_REJECTED.load(Ordering::Relaxed),
        completed: SERVICE_COMPLETED.load(Ordering::Relaxed),
        failed: SERVICE_FAILED.load(Ordering::Relaxed),
        preemptions: SERVICE_PREEMPTIONS.load(Ordering::Relaxed),
        throttle_waits: SERVICE_THROTTLE_WAITS.load(Ordering::Relaxed),
        send_backpressure_blocks: SEND_BACKPRESSURE_BLOCKS.load(Ordering::Relaxed),
        send_backpressure_timeouts: SEND_BACKPRESSURE_TIMEOUTS.load(Ordering::Relaxed),
    }
}

/// The counter slot a tenant id hashes into (Fibonacci hash so dense
/// and strided tenant ids both spread over the slots).
#[inline]
pub fn tenant_slot(tenant: u64) -> usize {
    (tenant.wrapping_mul(0x9E3779B97F4A7C15) >> 32) as usize % TENANT_SLOTS
}

/// Account `n` checkpoint bytes written on behalf of tenant `slot`.
#[inline]
pub fn tenant_add_bytes_written(slot: usize, n: u64) {
    TENANT_BYTES_WRITTEN[slot % TENANT_SLOTS].fetch_add(n, Ordering::Relaxed);
}

/// Account `n` restore bytes read on behalf of tenant `slot`.
#[inline]
pub fn tenant_add_bytes_read(slot: usize, n: u64) {
    TENANT_BYTES_READ[slot % TENANT_SLOTS].fetch_add(n, Ordering::Relaxed);
}

/// Count a finished session for tenant `slot`.
#[inline]
pub fn tenant_add_session_done(slot: usize) {
    TENANT_SESSIONS_DONE[slot % TENANT_SLOTS].fetch_add(1, Ordering::Relaxed);
}

/// A point-in-time reading of one tenant slot's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantSnapshot {
    /// The slot read.
    pub slot: usize,
    /// Checkpoint bytes written.
    pub bytes_written: u64,
    /// Restore bytes read.
    pub bytes_read: u64,
    /// Sessions finished.
    pub sessions_done: u64,
}

impl TenantSnapshot {
    /// Counter increments since `prev` (must be the same slot).
    pub fn delta_since(&self, prev: &TenantSnapshot) -> TenantSnapshot {
        debug_assert_eq!(self.slot, prev.slot);
        TenantSnapshot {
            slot: self.slot,
            bytes_written: self.bytes_written - prev.bytes_written,
            bytes_read: self.bytes_read - prev.bytes_read,
            sessions_done: self.sessions_done - prev.sessions_done,
        }
    }
}

/// Read one tenant slot's counters.
pub fn tenant_snapshot(slot: usize) -> TenantSnapshot {
    let slot = slot % TENANT_SLOTS;
    TenantSnapshot {
        slot,
        bytes_written: TENANT_BYTES_WRITTEN[slot].load(Ordering::Relaxed),
        bytes_read: TENANT_BYTES_READ[slot].load(Ordering::Relaxed),
        sessions_done: TENANT_SESSIONS_DONE[slot].load(Ordering::Relaxed),
    }
}

/// One sample of the live service time series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesSample {
    /// Monotone sample number (1-based; the ring keeps the newest
    /// [`SERVICE_SERIES_CAP`]).
    pub seq: u64,
    /// Tenant slot the sample describes.
    pub tenant: usize,
    /// Tenant's cumulative bytes written at sample time.
    pub bytes_written: u64,
    /// Tenant's cumulative finished sessions at sample time.
    pub sessions_done: u64,
}

/// Append a sample of tenant `slot`'s cumulative progress to the ring.
/// Zero-alloc: four relaxed stores and one fetch-add.
pub fn service_series_record(slot: usize) {
    let slot = slot % TENANT_SLOTS;
    let seq = SERIES_HEAD.fetch_add(1, Ordering::Relaxed);
    let i = seq as usize % SERVICE_SERIES_CAP;
    SERIES_TENANT[i].store(slot as u64, Ordering::Relaxed);
    SERIES_BYTES[i].store(
        TENANT_BYTES_WRITTEN[slot].load(Ordering::Relaxed),
        Ordering::Relaxed,
    );
    SERIES_SESSIONS[i].store(
        TENANT_SESSIONS_DONE[slot].load(Ordering::Relaxed),
        Ordering::Relaxed,
    );
    // Seq is stored last (release) so a reader that sees it sees the
    // fields of *some* complete sample at this ring position.
    SERIES_SEQ[i].store(seq + 1, Ordering::Release);
}

/// Read the retained series oldest-first. Allocates only here, on the
/// read side.
pub fn service_series() -> Vec<SeriesSample> {
    let head = SERIES_HEAD.load(Ordering::Relaxed);
    let cap = SERVICE_SERIES_CAP as u64;
    let start = head.saturating_sub(cap);
    let mut out = Vec::with_capacity((head - start) as usize);
    for seq in start..head {
        let i = seq as usize % SERVICE_SERIES_CAP;
        if SERIES_SEQ[i].load(Ordering::Acquire) != seq + 1 {
            continue; // overwritten (or mid-write) since we computed the range
        }
        out.push(SeriesSample {
            seq: seq + 1,
            tenant: SERIES_TENANT[i].load(Ordering::Relaxed) as usize,
            bytes_written: SERIES_BYTES[i].load(Ordering::Relaxed),
            sessions_done: SERIES_SESSIONS[i].load(Ordering::Relaxed),
        });
    }
    out
}

/// The retained series as a JSON array of sample objects.
pub fn service_series_to_json() -> String {
    let samples = service_series();
    let mut s = String::from("[");
    for (k, sample) in samples.iter().enumerate() {
        if k > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!(
            "{{\"seq\": {}, \"tenant\": {}, \"bytes_written\": {}, \"sessions_done\": {}}}",
            sample.seq, sample.tenant, sample.bytes_written, sample.sessions_done
        ));
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_and_ratio() {
        let before = snapshot();
        add_bytes_copied(300);
        add_checkpoint_bytes(100);
        let d = snapshot().delta_since(&before);
        // Other tests in this process may add concurrently, so the delta
        // is a lower bound, never less than what we added.
        assert!(d.bytes_copied >= 300);
        assert!(d.checkpoint_bytes >= 100);
        let r = CopySnapshot {
            bytes_copied: 300,
            checkpoint_bytes: 100,
        };
        assert!((r.copies_per_checkpoint_byte() - 3.0).abs() < 1e-12);
        let zero = CopySnapshot {
            bytes_copied: 5,
            checkpoint_bytes: 0,
        };
        assert_eq!(zero.copies_per_checkpoint_byte(), 0.0);
    }

    #[test]
    fn failover_counters_delta_and_json() {
        let before = failover_snapshot();
        add_failovers(1);
        add_hedged_jobs(2);
        add_fenced_commits_refused(3);
        add_degraded_generations(4);
        add_short_write_retries(5);
        let d = failover_snapshot().delta_since(&before);
        assert!(d.failovers >= 1);
        assert!(d.hedged_jobs >= 2);
        assert!(d.fenced_commits_refused >= 3);
        assert!(d.degraded_generations >= 4);
        assert!(d.short_write_retries >= 5);
        let j = FailoverSnapshot {
            failovers: 1,
            hedged_jobs: 2,
            fenced_commits_refused: 3,
            degraded_generations: 4,
            short_write_retries: 5,
        }
        .to_json();
        assert!(j.contains("\"failovers\": 1"), "{j}");
        assert!(j.contains("\"hedged_jobs\": 2"), "{j}");
        assert!(j.contains("\"fenced_commits_refused\": 3"), "{j}");
        assert!(j.contains("\"degraded_generations\": 4"), "{j}");
        assert!(j.contains("\"short_write_retries\": 5"), "{j}");
    }

    #[test]
    fn tune_counters_delta_rates_and_json() {
        let before = tune_snapshot();
        add_tune_evals(4);
        add_tune_memo_hits(12);
        add_tune_pruned(30);
        add_tune_eval_nanos(8_000_000_000);
        let d = tune_snapshot().delta_since(&before);
        assert!(d.evals >= 4);
        assert!(d.memo_hits >= 12);
        assert!(d.pruned >= 30);
        assert!(d.eval_nanos >= 8_000_000_000);
        let s = TuneSnapshot {
            evals: 4,
            memo_hits: 12,
            pruned: 30,
            eval_nanos: 8_000_000_000,
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert!((s.secs_per_eval() - 2.0).abs() < 1e-12);
        let j = s.to_json();
        assert!(j.contains("\"evals\": 4"), "{j}");
        assert!(j.contains("\"memo_hits\": 12"), "{j}");
        assert!(j.contains("\"pruned\": 30"), "{j}");
        assert!(j.contains("\"hit_rate\": 0.7500"), "{j}");
        let zero = TuneSnapshot {
            evals: 0,
            memo_hits: 0,
            pruned: 0,
            eval_nanos: 0,
        };
        assert_eq!(zero.hit_rate(), 0.0);
        assert_eq!(zero.secs_per_eval(), 0.0);
    }

    #[test]
    fn tier_counters_delta_and_json() {
        let before = tier_snapshot();
        add_tier_staged_bytes(100);
        add_tier_drained_bytes(90);
        add_tier_restores(1);
        add_tier_losses(2);
        let d = tier_snapshot().delta_since(&before);
        assert!(d.staged_bytes >= 100);
        assert!(d.drained_bytes >= 90);
        assert!(d.tier_restores >= 1);
        assert!(d.tier_losses >= 2);
        let j = TierSnapshot {
            staged_bytes: 100,
            drained_bytes: 90,
            tier_restores: 1,
            tier_losses: 2,
        }
        .to_json();
        assert!(j.contains("\"staged_bytes\": 100"), "{j}");
        assert!(j.contains("\"drained_bytes\": 90"), "{j}");
        assert!(j.contains("\"tier_restores\": 1"), "{j}");
        assert!(j.contains("\"tier_losses\": 2"), "{j}");
    }

    #[test]
    fn service_counters_delta_and_json() {
        let before = service_snapshot();
        add_service_admitted(1);
        add_service_queued(2);
        add_service_rejected(3);
        add_service_completed(4);
        add_service_failed(5);
        add_service_preemptions(6);
        add_service_throttle_waits(7);
        add_send_backpressure_blocks(9);
        add_send_backpressure_timeouts(10);
        let d = service_snapshot().delta_since(&before);
        assert!(d.admitted >= 1);
        assert!(d.queued >= 2);
        assert!(d.rejected >= 3);
        assert!(d.completed >= 4);
        assert!(d.failed >= 5);
        assert!(d.preemptions >= 6);
        assert!(d.throttle_waits >= 7);
        assert!(d.send_backpressure_blocks >= 9);
        assert!(d.send_backpressure_timeouts >= 10);
        let j = ServiceSnapshot {
            admitted: 1,
            rejected: 3,
            ..ServiceSnapshot::default()
        }
        .to_json();
        assert!(j.contains("\"admitted\": 1"), "{j}");
        assert!(j.contains("\"rejected\": 3"), "{j}");
        assert!(j.contains("\"send_backpressure_blocks\": 0"), "{j}");
    }

    #[test]
    fn tenant_slots_accumulate_independently() {
        // Slots 250/251 are reserved for this test (tenant ids are
        // hashed in production; tests may address slots directly).
        let (a, b) = (250usize, 251usize);
        let before_a = tenant_snapshot(a);
        let before_b = tenant_snapshot(b);
        tenant_add_bytes_written(a, 1000);
        tenant_add_bytes_read(a, 30);
        tenant_add_session_done(a);
        tenant_add_bytes_written(b, 7);
        let da = tenant_snapshot(a).delta_since(&before_a);
        let db = tenant_snapshot(b).delta_since(&before_b);
        assert!(da.bytes_written >= 1000);
        assert!(da.bytes_read >= 30);
        assert!(da.sessions_done >= 1);
        assert!(db.bytes_written >= 7);
        assert_eq!(db.bytes_read, before_b.bytes_read - before_b.bytes_read);
    }

    #[test]
    fn tenant_slot_hash_spreads_and_stays_in_range() {
        let mut seen = std::collections::HashSet::new();
        for t in 0..64u64 {
            let s = tenant_slot(t);
            assert!(s < TENANT_SLOTS);
            seen.insert(s);
        }
        // Fibonacci hashing must not collapse dense ids onto few slots.
        assert!(seen.len() > 48, "only {} distinct slots", seen.len());
    }

    #[test]
    fn service_series_retains_newest_samples_in_order() {
        let slot = 252usize;
        tenant_add_bytes_written(slot, 64);
        service_series_record(slot);
        tenant_add_bytes_written(slot, 64);
        service_series_record(slot);
        let series = service_series();
        assert!(series.len() >= 2);
        // Monotone seq, oldest first.
        assert!(series.windows(2).all(|w| w[0].seq < w[1].seq));
        let ours: Vec<_> = series.iter().filter(|s| s.tenant == slot).collect();
        assert!(ours.len() >= 2);
        let last2 = &ours[ours.len() - 2..];
        assert!(last2[0].bytes_written < last2[1].bytes_written);
        let j = service_series_to_json();
        assert!(j.starts_with('[') && j.ends_with(']'), "{j}");
        assert!(j.contains("\"tenant\": 252"), "{j}");
    }

    #[test]
    fn service_series_wraps_without_growing() {
        let slot = 253usize;
        for _ in 0..(SERVICE_SERIES_CAP + 16) {
            service_series_record(slot);
        }
        let series = service_series();
        assert!(series.len() <= SERVICE_SERIES_CAP);
        assert!(series.windows(2).all(|w| w[0].seq < w[1].seq));
    }
}
