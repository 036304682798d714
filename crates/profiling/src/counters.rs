//! Process-wide event and byte counters, declared once in one table.
//!
//! A counter *group* is a `Group<N>`: `N` relaxed `AtomicU64` cells with
//! one `add`, one `read`, one saturating `delta` and one `json`
//! rendering. Which counters exist is the table under `counters!`: one
//! line per counter names the snapshot field (with its doc) and the
//! `add_*` function that feeds it; the cell, the add function, the field,
//! the read, the delta and the JSON key all follow from that line.
//!
//! Measurement protocol: the cells are never reset, so a measurement is
//! a *difference* — take a snapshot (`snapshot()`, `tier_snapshot()`, …),
//! run the workload, take another, subtract with `delta_since`. Other
//! threads may add in between, so a delta is at least what the measured
//! work added; with the arguments swapped it saturates at zero. Ordering
//! is relaxed throughout: these are statistics, not synchronization.
//!
//! The copy group is the rbIO pitch in numbers: every memcpy on the
//! checkpoint datapath (payload → channel → staging → flush snapshot)
//! adds to `bytes_copied`, every byte handed to a file write to
//! `checkpoint_bytes`; their ratio is the *copies per checkpoint byte*
//! the benches report — ~3 on the deep-copy path, ≤ ~1 on zero-copy.

use std::sync::atomic::{AtomicU64, Ordering};

/// `N` process-wide counter cells.
struct Group<const N: usize>([AtomicU64; N]);

impl<const N: usize> Group<N> {
    const fn new() -> Self {
        Group([const { AtomicU64::new(0) }; N])
    }

    #[inline]
    fn add(&self, i: usize, n: u64) {
        self.0[i].fetch_add(n, Ordering::Relaxed);
    }

    fn read(&self) -> [u64; N] {
        std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed))
    }
}

/// Cell-wise growth from `prev` to `now`; zero where `prev` is the larger.
fn delta<const N: usize>(now: [u64; N], prev: [u64; N]) -> [u64; N] {
    std::array::from_fn(|i| now[i].saturating_sub(prev[i]))
}

/// `{"name": value, …}` in the order given, the `derived` pairs last.
fn json(names: &[&str], values: &[u64], derived: &[(&str, String)]) -> String {
    let counters = names.iter().zip(values).map(|(k, v)| (*k, v.to_string()));
    let pairs: Vec<String> = counters
        .chain(derived.iter().cloned())
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", pairs.join(", "))
}

/// Test hook: run this work between two reads; the delta's cells and JSON.
#[cfg(test)]
type DeltaOver<'a> = &'a dyn Fn(&dyn Fn()) -> (Vec<u64>, String);

/// The counter table. Per group: the snapshot type, the function that
/// reads it, the static holding its cells, one `field += add_fn;` line per
/// counter, and optionally the derived JSON keys as `method: "format"`.
/// The macro only binds these names to [`Group`], [`delta`] and [`json`].
macro_rules! counters {
    ($(
        $(#[$gdoc:meta])*
        $Snap:ident = $read:ident() from $CELLS:ident {
            $( $(#[$fdoc:meta])* $field:ident += $add:ident; )+
        } $(+ derived { $($derived:ident: $fmt:literal),+ })?
    )+) => {
        $(
            $(#[$gdoc])*
            #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
            pub struct $Snap { $( $(#[$fdoc])* pub $field: u64, )+ }

            static $CELLS: Group<{ $Snap::N }> = Group::new();

            #[doc = concat!("Read the process-wide counters of [`", stringify!($Snap), "`].")]
            pub fn $read() -> $Snap {
                $Snap::from_array($CELLS.read())
            }

            impl $Snap {
                const NAMES: &'static [&'static str] = &[$(stringify!($field)),+];
                const N: usize = Self::NAMES.len();

                fn from_array([$($field),+]: [u64; $Snap::N]) -> Self {
                    Self { $($field),+ }
                }

                fn to_array(self) -> [u64; $Snap::N] {
                    [$(self.$field),+]
                }

                /// The counter growth between `prev` (earlier) and `self`
                /// (later), saturating at zero.
                pub fn delta_since(&self, prev: &$Snap) -> $Snap {
                    Self::from_array(delta(self.to_array(), prev.to_array()))
                }

                /// Render as a JSON object, keys in declaration order.
                pub fn to_json(&self) -> String {
                    json(
                        Self::NAMES,
                        &self.to_array(),
                        &[$($((stringify!($derived), format!($fmt, self.$derived()))),+)?],
                    )
                }
            }

            counters!(@adds $Snap $CELLS 0; $($field $add)+);
        )+

        /// Visit each group: type name, field names, `add_*` fns, [`DeltaOver`].
        #[cfg(test)]
        fn for_each_group(mut visit: impl FnMut(&str, &[&str], &[fn(u64)], DeltaOver)) {
            $(visit(stringify!($Snap), $Snap::NAMES, &[$($add),+], &|work| {
                let before = $read();
                work();
                let d = $read().delta_since(&before);
                (d.to_array().to_vec(), d.to_json())
            });)+
        }
    };
    // One `add_*` per counter, bound to the cell at its table position.
    (@adds $Snap:ident $CELLS:ident $i:expr;) => {};
    (@adds $Snap:ident $CELLS:ident $i:expr; $field:ident $add:ident $($rest:tt)*) => {
        #[doc = concat!("Add `n` to [`", stringify!($Snap), "::", stringify!($field), "`].")]
        #[inline]
        pub fn $add(n: u64) {
            $CELLS.add($i, n);
        }
        counters!(@adds $Snap $CELLS $i + 1; $($rest)*);
    };
}

counters! {
    /// A point-in-time reading of the datapath copy counters.
    CopySnapshot = snapshot() from COPY {
        /// Total bytes memcpy'd on the checkpoint datapath.
        bytes_copied += add_bytes_copied;
        /// Total bytes handed to checkpoint file writes.
        checkpoint_bytes += add_checkpoint_bytes;
        /// Early-writeback hints issued behind landed writes of writers
        /// whose files will be fsynced (none when fsync is off).
        writeback_hints += add_writeback_hints;
    }

    /// A point-in-time reading of the writer-failover counters: how often
    /// `rbio::failover` absorbed a writer failure rather than abort.
    FailoverSnapshot = failover_snapshot() from FAILOVER {
        /// Writer failures absorbed by rerouting to a successor.
        failovers += add_failovers;
        /// Flush jobs hedged past the straggler deadline.
        hedged_jobs += add_hedged_jobs;
        /// Commit attempts refused because the writer was fenced.
        fenced_commits_refused += add_fenced_commits_refused;
        /// Generations restored (or committed) in degraded mode.
        degraded_generations += add_degraded_generations;
        /// Continuations of writes the device cut short (partial `pwrite`
        /// returns and injected short-write faults) — distinct from hedges:
        /// the same logical write finishing, not a duplicate submission.
        short_write_retries += add_short_write_retries;
    }

    /// A point-in-time reading of the tiered-staging counters: how much
    /// data took `rbio::tier`'s fast tier and how the drain engine fared.
    TierSnapshot = tier_snapshot() from TIER {
        /// Bytes appended to the node-local slab tier.
        staged_bytes += add_tier_staged_bytes;
        /// Bytes the drain engine has flushed to the durable PFS tier.
        drained_bytes += add_tier_drained_bytes;
        /// Restores served from a faster tier instead of the PFS.
        tier_restores += add_tier_restores;
        /// Simulated tier losses absorbed without aborting.
        tier_losses += add_tier_losses;
    }

    /// A point-in-time reading of the autotuner counters: how hard the
    /// `rbio-tune` solver worked and how much its caches saved.
    TuneSnapshot = tune_snapshot() from TUNE {
        /// Candidate configurations costed by a full simulation run.
        evals += add_tune_evals;
        /// Candidates answered from the canonical-config memoization cache.
        memo_hits += add_tune_memo_hits;
        /// Candidates (or subtree members) discarded by bound pruning.
        pruned += add_tune_pruned;
        /// Wall nanoseconds spent inside cost evaluations.
        eval_nanos += add_tune_eval_nanos;
    } + derived { hit_rate: "{:.4}", secs_per_eval: "{:.6}" }

    /// A point-in-time reading of the crash-sweep / scrubber / GC counters.
    ScrubSnapshot = scrub_snapshot() from SCRUB {
        /// Synthetic crash images materialized and restore-checked.
        crash_images_checked += add_crash_images_checked;
        /// Generation files whose footer CRCs the scrubber re-verified.
        scrub_files_checked += add_scrub_files_checked;
        /// Bytes read and checksummed by the scrubber.
        scrub_bytes_verified += add_scrub_bytes_verified;
        /// Damage records the scrubber classified (torn, missing, orphan,
        /// metadata divergence).
        scrub_damage_found += add_scrub_damage_found;
        /// Damaged files repaired from a redundant copy.
        scrub_repairs += add_scrub_repairs;
        /// Orphaned `*.tmp` / unreferenced slab files garbage-collected.
        gc_orphans += add_gc_orphans;
    }

    /// A point-in-time reading of the `rbio::service` admission and QoS
    /// counters and the executors' bounded-channel backpressure.
    ServiceSnapshot = service_snapshot() from SERVICE {
        /// Sessions admitted to run immediately.
        admitted += add_service_admitted;
        /// Sessions parked in the bounded waiting room.
        queued += add_service_queued;
        /// Sessions refused with a typed `Rejected` outcome.
        rejected += add_service_rejected;
        /// Sessions that ran to completion.
        completed += add_service_completed;
        /// Sessions that surfaced a typed error.
        failed += add_service_failed;
        /// Throughput grants deferred because a latency-sensitive session
        /// was waiting at the same grant point.
        preemptions += add_service_preemptions;
        /// Fair-share grants that had to wait for a lagging tenant.
        throttle_waits += add_service_throttle_waits;
        /// Bounded-channel sends that found the queue full and waited.
        send_backpressure_blocks += add_send_backpressure_blocks;
        /// Bounded-channel sends that hit their deadline.
        send_backpressure_timeouts += add_send_backpressure_timeouts;
    }
}

/// `num / den`, or 0.0 over no events.
fn per(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

impl CopySnapshot {
    /// Copies per checkpoint byte: the headline datapath metric.
    /// Returns 0.0 when no checkpoint bytes were written.
    pub fn copies_per_checkpoint_byte(&self) -> f64 {
        per(self.bytes_copied as f64, self.checkpoint_bytes)
    }
}

impl TuneSnapshot {
    /// Cache hit rate over all candidate lookups (0.0 when none).
    pub fn hit_rate(&self) -> f64 {
        per(self.memo_hits as f64, self.evals + self.memo_hits)
    }

    /// Mean wall seconds per full evaluation (0.0 when none).
    pub fn secs_per_eval(&self) -> f64 {
        per(self.eval_nanos as f64 / 1e9, self.evals)
    }
}

/// Fixed number of per-tenant counter slots. Tenants hash into slots
/// ([`tenant_slot`]); recording is a relaxed atomic add into a static
/// array — no allocation, no locks, safe from any thread.
pub const TENANT_SLOTS: usize = 256;

// One group per slot; cells in `TenantSnapshot` field order after `slot`.
static TENANTS: [Group<3>; TENANT_SLOTS] = [const { Group::new() }; TENANT_SLOTS];

/// The counter slot a tenant id hashes into (Fibonacci hash so dense
/// and strided tenant ids both spread over the slots).
#[inline]
pub fn tenant_slot(tenant: u64) -> usize {
    (tenant.wrapping_mul(0x9E3779B97F4A7C15) >> 32) as usize % TENANT_SLOTS
}

/// Account `n` checkpoint bytes written on behalf of tenant `slot`.
#[inline]
pub fn tenant_add_bytes_written(slot: usize, n: u64) {
    TENANTS[slot % TENANT_SLOTS].add(0, n);
}

/// Account `n` restore bytes read on behalf of tenant `slot`.
#[inline]
pub fn tenant_add_bytes_read(slot: usize, n: u64) {
    TENANTS[slot % TENANT_SLOTS].add(1, n);
}

/// Count a finished session for tenant `slot`.
#[inline]
pub fn tenant_add_session_done(slot: usize) {
    TENANTS[slot % TENANT_SLOTS].add(2, 1);
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
    fn from_cells(slot: usize, [bytes_written, bytes_read, sessions_done]: [u64; 3]) -> Self {
        TenantSnapshot {
            slot,
            bytes_written,
            bytes_read,
            sessions_done,
        }
    }

    /// Growth since `prev` (must be the same slot), saturating at zero.
    pub fn delta_since(&self, prev: &TenantSnapshot) -> TenantSnapshot {
        debug_assert_eq!(self.slot, prev.slot);
        let cells = |s: &TenantSnapshot| [s.bytes_written, s.bytes_read, s.sessions_done];
        Self::from_cells(self.slot, delta(cells(self), cells(prev)))
    }
}

/// Read one tenant slot's counters.
pub fn tenant_snapshot(slot: usize) -> TenantSnapshot {
    let slot = slot % TENANT_SLOTS;
    TenantSnapshot::from_cells(slot, TENANTS[slot].read())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_counter_reaches_its_field_and_its_json_key() {
        let mut groups = 0;
        for_each_group(|g, names, adds, delta_over| {
            groups += 1;
            let distinct: std::collections::HashSet<_> = names.iter().collect();
            assert_eq!(distinct.len(), names.len(), "{g}: duplicate field name");
            // A distinct amount per counter, so a crossed binding shows.
            let k = |i: usize| 10 + 3 * i as u64;
            let (d, json) = delta_over(&|| {
                for (i, add) in adds.iter().enumerate() {
                    add(k(i));
                }
            });
            // Other tests in this process may add concurrently, so the
            // delta is a lower bound, never less than what we added.
            let mut keys = Vec::new();
            for (i, name) in names.iter().enumerate() {
                assert!(d[i] >= k(i), "{g}.{name}: {} < {}", d[i], k(i));
                keys.push(format!("\"{name}\": {}", d[i]));
            }
            let in_declaration_order = format!("{{{}", keys.join(", "));
            assert!(json.starts_with(&in_declaration_order), "{g}: {json}");
        });
        assert_eq!(groups, 6);
    }

    #[test]
    fn ratios_and_json_match_the_hand_written_renderings() {
        let copies = |cells| CopySnapshot::from_array(cells).copies_per_checkpoint_byte();
        assert!((copies([300, 100, 0]) - 3.0).abs() < 1e-12);
        assert_eq!(copies([5, 0, 0]), 0.0);
        assert_eq!(TuneSnapshot::default().hit_rate(), 0.0);
        assert_eq!(TuneSnapshot::default().secs_per_eval(), 0.0);
        let tune = TuneSnapshot::from_array([4, 12, 30, 8_000_000_000]);
        assert!((tune.hit_rate() - 0.75).abs() < 1e-12);
        assert!((tune.secs_per_eval() - 2.0).abs() < 1e-12);
        for (got, want) in [
            (
                FailoverSnapshot::from_array([1, 2, 3, 4, 5]).to_json(),
                "{\"failovers\": 1, \"hedged_jobs\": 2, \"fenced_commits_refused\": 3, \
                 \"degraded_generations\": 4, \"short_write_retries\": 5}",
            ),
            (
                TierSnapshot::from_array([100, 90, 1, 2]).to_json(),
                "{\"staged_bytes\": 100, \"drained_bytes\": 90, \"tier_restores\": 1, \
                 \"tier_losses\": 2}",
            ),
            (
                ScrubSnapshot::from_array([6, 5, 4, 3, 2, 1]).to_json(),
                "{\"crash_images_checked\": 6, \"scrub_files_checked\": 5, \
                 \"scrub_bytes_verified\": 4, \"scrub_damage_found\": 3, \
                 \"scrub_repairs\": 2, \"gc_orphans\": 1}",
            ),
            (
                ServiceSnapshot::from_array([1, 0, 3, 0, 0, 0, 0, 0, 9]).to_json(),
                "{\"admitted\": 1, \"queued\": 0, \"rejected\": 3, \"completed\": 0, \
                 \"failed\": 0, \"preemptions\": 0, \"throttle_waits\": 0, \
                 \"send_backpressure_blocks\": 0, \"send_backpressure_timeouts\": 9}",
            ),
            (
                tune.to_json(),
                "{\"evals\": 4, \"memo_hits\": 12, \"pruned\": 30, \"eval_nanos\": 8000000000, \
                 \"hit_rate\": 0.7500, \"secs_per_eval\": 2.000000}",
            ),
        ] {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn every_delta_saturates_instead_of_underflowing() {
        // The service and tenant deltas once subtracted unchecked (debug panic).
        let (zero, mut later) = (ServiceSnapshot::default(), ServiceSnapshot::default());
        later.admitted = 1;
        assert_eq!(zero.delta_since(&later), zero);
        assert!(later.to_json().starts_with("{\"admitted\": 1, "));
        let (zero, mut later) = (TenantSnapshot::default(), TenantSnapshot::default());
        later.bytes_read = 1;
        assert_eq!(zero.delta_since(&later), zero);
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
        assert_eq!(db.bytes_read, 0);
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
}
