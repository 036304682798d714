//! Writer failover: absorb dead, hung, and straggling writers instead of
//! aborting the whole checkpoint.
//!
//! In rbIO every group of `np/ng` workers funnels its payload through one
//! dedicated writer, so PR 1's abort-instead-of-hang posture makes a
//! single wedged writer take down the entire generation. This module adds
//! the coordination state for the alternative: each writer is tracked
//! through the health state machine
//!
//! ```text
//! healthy → straggling → dead → fenced
//! ```
//!
//! and when a writer is declared dead its group's extent becomes an
//! *orphan* that is handed to a designated **successor** — the next
//! surviving writer in `ng` order — which re-stages and rewrites the
//! orphaned extent from the shared payloads and commits it exactly once.
//! The dead writer is **fenced** the moment it is declared dead, so a
//! late-reviving writer (a hang that turns out not to be a death) can
//! never double-commit its file: its commit attempt is refused at the
//! commit edge.
//!
//! The [`FailoverDirector`] is the shared arbiter: declarations, claims,
//! and commit admission all go through one mutex-protected state so the
//! *exactly-once takeover* invariant is a CAS, not a convention. This
//! module holds coordination state only: a takeover itself is the plan
//! interpreter run once more by the successor over a pull transport
//! (see [`crate::exec`]), which is why it exists under
//! [`crate::exec::execute`] and not under [`crate::rt`], whose ranks
//! cannot see each other's payloads. The
//! schedule-exploration harness (`rbio-check` program family p5) drives
//! this logic under a controlled scheduler and checks exactly-once
//! takeover and fenced-writer-never-commits as model invariants.

use std::collections::HashMap;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use rbio_profile::counters;

use crate::sched::{self, Event, Revert};

/// A writer's health as seen by the failover director.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriterHealth {
    /// Making progress within the straggler deadline.
    Healthy,
    /// Progress stalled past the straggler deadline but not long enough
    /// to be declared dead; candidates for hedged re-submits.
    Straggling,
    /// Declared dead: its extent is orphaned and will be taken over.
    /// A dead writer is immediately fenced.
    Dead,
}

/// When to classify a writer as straggling or dead, derived from the
/// executors' existing `recv_timeout` plumbing.
#[derive(Debug, Clone, Copy)]
pub struct FailoverPolicy {
    /// Master switch: disabled means the PR 1 behavior (abort on writer
    /// failure) everywhere.
    pub enabled: bool,
    /// Progress stall after which a writer counts as straggling (hedged
    /// re-submits become eligible in the flush pipeline).
    pub straggler_after: Duration,
    /// Progress stall after which a writer is declared dead and fenced.
    pub dead_after: Duration,
}

impl FailoverPolicy {
    /// Failover off: writer failures abort the run (PR 1 semantics).
    pub fn disabled() -> Self {
        FailoverPolicy {
            enabled: false,
            straggler_after: Duration::from_millis(500),
            dead_after: Duration::from_secs(1),
        }
    }

    /// Deadlines derived from a receive timeout: a writer that stalls a
    /// quarter of the timeout is straggling, half of it is dead. Both
    /// are comfortably inside `recv_timeout`, so failover engages before
    /// peers start timing out on the dead writer.
    pub fn from_recv_timeout(recv_timeout: Duration) -> Self {
        FailoverPolicy {
            enabled: true,
            straggler_after: recv_timeout / 4,
            dead_after: recv_timeout / 2,
        }
    }

    /// Classify a progress stall of `stalled` under this policy.
    pub fn classify_stall(&self, stalled: Duration) -> WriterHealth {
        if stalled >= self.dead_after {
            WriterHealth::Dead
        } else if stalled >= self.straggler_after {
            WriterHealth::Straggling
        } else {
            WriterHealth::Healthy
        }
    }
}

/// One orphaned extent: a dead writer's group output awaiting takeover.
#[derive(Debug, Clone)]
struct Orphan {
    /// The dead writer whose ops are being replayed.
    rank: u32,
    /// Designated successor (next surviving writer in `ng` order).
    successor: u32,
    /// Taken by the successor's epilogue loop (exactly-once claim).
    claimed: bool,
    /// Files of this orphan whose commit was entered (exactly-once per
    /// extent; a writer may own several files).
    committed_files: Vec<u32>,
    /// The takeover finished (extent rewritten and committed).
    completed: bool,
}

#[derive(Debug, Default)]
struct DirectorState {
    /// Writer ranks in `ng` order (successor designation walks this).
    writers: Vec<u32>,
    /// Health per writer rank.
    health: HashMap<u32, WriterHealth>,
    /// Writers that finished their own ops.
    done: Vec<u32>,
    /// Orphaned extents, in death order.
    orphans: Vec<Orphan>,
}

impl DirectorState {
    fn is_dead(&self, rank: u32) -> bool {
        self.health.get(&rank) == Some(&WriterHealth::Dead)
    }

    /// The next surviving writer after `dead` in cyclic `ng` order.
    fn successor_of(&self, dead: u32) -> Option<u32> {
        let i = self.writers.iter().position(|&w| w == dead)?;
        let n = self.writers.len();
        (1..n)
            .map(|k| self.writers[(i + k) % n])
            .find(|&w| !self.is_dead(w))
    }
}

/// Shared failover arbiter for one execution: health declarations,
/// successor designation, exactly-once takeover claims, and commit
/// fencing. One instance per [`crate::exec::execute`] call.
#[derive(Debug)]
pub struct FailoverDirector {
    policy: FailoverPolicy,
    state: Mutex<DirectorState>,
    /// Signalled on every state change so epilogue loops can park.
    changed: Condvar,
}

impl FailoverDirector {
    /// A director for the given writer ranks (in `ng` order).
    pub fn new(policy: FailoverPolicy, writer_ranks: Vec<u32>) -> Self {
        let health = writer_ranks
            .iter()
            .map(|&w| (w, WriterHealth::Healthy))
            .collect();
        FailoverDirector {
            policy,
            state: Mutex::new(DirectorState {
                writers: writer_ranks,
                health,
                ..DirectorState::default()
            }),
            changed: Condvar::new(),
        }
    }

    /// The policy this director enforces.
    pub fn policy(&self) -> &FailoverPolicy {
        &self.policy
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, DirectorState> {
        self.state.lock().expect("failover director lock")
    }

    /// Mark `rank` as straggling (progress stalled past the straggler
    /// deadline but short of death). Purely observational.
    pub fn report_straggling(&self, rank: u32) {
        let mut g = self.lock();
        if g.health.get(&rank) == Some(&WriterHealth::Healthy) {
            g.health.insert(rank, WriterHealth::Straggling);
            sched::emit(|| Event::WriterStraggling { rank });
        }
    }

    /// Declare `rank` dead and fence it. Designates a successor for its
    /// extent and for any orphan it had claimed but not completed.
    /// Returns `false` when failover cannot engage — disabled, `rank` is
    /// not a tracked writer, or no surviving writer remains — in which
    /// case the caller must abort exactly as before this subsystem
    /// existed.
    pub fn report_dead(&self, rank: u32) -> bool {
        if !self.policy.enabled {
            return false;
        }
        let mut g = self.lock();
        if !g.writers.contains(&rank) {
            return false;
        }
        if g.is_dead(rank) {
            // Already declared (e.g. monitor and self-report racing):
            // the first declaration arranged everything.
            return true;
        }
        g.health.insert(rank, WriterHealth::Dead);
        let Some(successor) = g.successor_of(rank) else {
            // No survivor to take over: undo and let the caller abort.
            g.health.insert(rank, WriterHealth::Healthy);
            return false;
        };
        sched::emit(|| Event::WriterDead { rank });
        g.orphans.push(Orphan {
            rank,
            successor,
            claimed: false,
            committed_files: Vec::new(),
            completed: false,
        });
        // Re-home any orphan routed to (or mid-takeover on) the newly
        // dead writer: cascading failures re-designate down the ring.
        let mut rehome = Vec::new();
        for o in g.orphans.iter_mut() {
            if o.successor == rank && !o.completed {
                o.claimed = false;
                o.committed_files.clear();
                rehome.push(o.rank);
            }
        }
        for orphan_rank in rehome {
            match g.successor_of(orphan_rank) {
                Some(s) => {
                    for o in g.orphans.iter_mut() {
                        if o.rank == orphan_rank {
                            o.successor = s;
                        }
                    }
                }
                None => {
                    g.health.insert(rank, WriterHealth::Healthy);
                    g.orphans.retain(|o| o.rank != rank);
                    return false;
                }
            }
        }
        self.changed.notify_all();
        true
    }

    /// Whether `rank` has been declared dead (and is therefore fenced).
    pub fn is_fenced(&self, rank: u32) -> bool {
        self.lock().is_dead(rank)
    }

    /// Whether `rank` is in the tracked writer set.
    pub fn is_writer(&self, rank: u32) -> bool {
        self.lock().writers.contains(&rank)
    }

    /// Whether `rank` has finished its own ops.
    pub fn is_done(&self, rank: u32) -> bool {
        self.lock().done.contains(&rank)
    }

    /// The tracked writer ranks, in `ng` order.
    pub fn writers(&self) -> Vec<u32> {
        self.lock().writers.clone()
    }

    /// Commit admission: a fenced writer may not commit. Refusals bump
    /// the `fenced_commits_refused` counter. The test-only
    /// [`Revert::Pr5Fence`] switch disables the refusal to demonstrate
    /// the double-commit hazard to the p5 sweep.
    pub fn allow_commit(&self, rank: u32) -> bool {
        if !self.lock().is_dead(rank) {
            return true;
        }
        if sched::reverted(Revert::Pr5Fence) {
            return true;
        }
        counters::add_fenced_commits_refused(1);
        sched::emit(|| Event::FenceRefused { rank });
        false
    }

    /// Claim the next orphan designated to `successor` (exactly-once:
    /// a given orphan is handed out a single time unless its claimant
    /// later dies). Bumps the `failovers` counter per claim.
    pub fn claim_orphan(&self, successor: u32) -> Option<u32> {
        let mut g = self.lock();
        let o = g
            .orphans
            .iter_mut()
            .find(|o| o.successor == successor && !o.claimed && !o.completed)?;
        o.claimed = true;
        let orphan = o.rank;
        counters::add_failovers(1);
        sched::emit(|| Event::TakeoverClaim { orphan, successor });
        Some(orphan)
    }

    /// Enter the commit of the orphan's file `file`: `true` exactly once
    /// per (orphan, file) — the CAS behind exactly-once takeover commits.
    pub fn begin_commit(&self, orphan: u32, file: u32) -> bool {
        let mut g = self.lock();
        match g
            .orphans
            .iter_mut()
            .find(|o| o.rank == orphan && !o.committed_files.contains(&file))
        {
            Some(o) => {
                o.committed_files.push(file);
                true
            }
            None => false,
        }
    }

    /// Record the takeover of `orphan` finished.
    pub fn orphan_completed(&self, orphan: u32) {
        let mut g = self.lock();
        for o in g.orphans.iter_mut() {
            if o.rank == orphan {
                o.completed = true;
            }
        }
        self.changed.notify_all();
    }

    /// Record writer `rank` finished its own ops (it now only serves
    /// takeovers in its epilogue).
    pub fn mark_writer_done(&self, rank: u32) {
        let mut g = self.lock();
        if !g.done.contains(&rank) {
            g.done.push(rank);
        }
        self.changed.notify_all();
    }

    /// Whether the failover phase is over: every writer is done or dead
    /// and every orphan extent has been rewritten. Epilogue loops exit
    /// when this turns true.
    pub fn quiesced(&self) -> bool {
        let g = self.lock();
        g.writers
            .iter()
            .all(|&w| g.is_dead(w) || g.done.contains(&w))
            && g.orphans.iter().all(|o| o.completed)
    }

    /// Park until the state changes or `timeout` passes (production
    /// epilogue loops; controlled runs spin on yield points instead).
    pub fn wait_changed(&self, timeout: Duration) {
        let g = self.lock();
        let _ = self
            .changed
            .wait_timeout(g, timeout)
            .expect("failover director lock");
    }

    /// Completed takeovers as `(orphan, successor)` pairs, in death
    /// order — the manager turns this into the generation manifest.
    pub fn completed_takeovers(&self) -> Vec<(u32, u32)> {
        self.lock()
            .orphans
            .iter()
            .filter(|o| o.completed)
            .map(|o| (o.rank, o.successor))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn director(writers: &[u32]) -> FailoverDirector {
        FailoverDirector::new(
            FailoverPolicy::from_recv_timeout(Duration::from_secs(2)),
            writers.to_vec(),
        )
    }

    #[test]
    fn classify_stall_walks_the_state_machine() {
        let p = FailoverPolicy::from_recv_timeout(Duration::from_secs(2));
        assert_eq!(p.classify_stall(Duration::ZERO), WriterHealth::Healthy);
        assert_eq!(
            p.classify_stall(Duration::from_millis(600)),
            WriterHealth::Straggling
        );
        assert_eq!(p.classify_stall(Duration::from_secs(1)), WriterHealth::Dead);
    }

    #[test]
    fn successor_is_next_surviving_writer_in_ng_order() {
        let d = director(&[1, 3, 5, 7]);
        assert!(d.report_dead(3));
        assert_eq!(d.claim_orphan(5), Some(3));
        // 5 dies too before completing: 3's extent re-homes to 7, and
        // 5's own extent is orphaned to 7 as well.
        assert!(d.report_dead(5));
        assert_eq!(d.claim_orphan(7), Some(3));
        assert_eq!(d.claim_orphan(7), Some(5));
        assert_eq!(d.claim_orphan(7), None);
    }

    #[test]
    fn no_survivor_means_no_failover() {
        let d = director(&[2]);
        assert!(!d.report_dead(2), "sole writer has no successor");
        assert!(!d.is_fenced(2), "declaration rolled back");
        let d2 = director(&[0, 4]);
        assert!(d2.report_dead(0));
        assert!(!d2.report_dead(4), "last survivor must not be declared");
    }

    #[test]
    fn claims_and_commits_are_exactly_once() {
        let d = director(&[0, 4]);
        assert!(d.report_dead(0));
        assert_eq!(d.claim_orphan(4), Some(0));
        assert_eq!(d.claim_orphan(4), None, "claim is exactly-once");
        assert!(d.begin_commit(0, 7));
        assert!(!d.begin_commit(0, 7), "commit CAS is exactly-once per file");
        assert!(d.begin_commit(0, 8), "a second file commits independently");
        d.orphan_completed(0);
        assert_eq!(d.completed_takeovers(), vec![(0, 4)]);
    }

    #[test]
    fn fenced_writer_commit_is_refused_and_counted() {
        let before = counters::failover_snapshot();
        let d = director(&[0, 4]);
        assert!(d.allow_commit(0), "healthy writer commits freely");
        assert!(d.report_dead(0));
        assert!(d.is_fenced(0));
        assert!(!d.allow_commit(0), "fenced writer is refused");
        assert!(d.allow_commit(4));
        let delta = counters::failover_snapshot().delta_since(&before);
        assert!(delta.fenced_commits_refused >= 1);
    }

    #[test]
    fn quiesces_when_writers_done_and_orphans_complete() {
        let d = director(&[0, 4]);
        assert!(!d.quiesced());
        d.mark_writer_done(0);
        d.mark_writer_done(4);
        assert!(d.quiesced());
        assert!(d.report_dead(0));
        // 0 is dead now, but its orphan is outstanding.
        assert!(!d.quiesced());
        assert_eq!(d.claim_orphan(4), Some(0));
        d.orphan_completed(0);
        assert!(d.quiesced());
    }

    #[test]
    fn disabled_policy_never_engages() {
        let d = FailoverDirector::new(FailoverPolicy::disabled(), vec![0, 4]);
        assert!(!d.report_dead(0));
        assert!(d.allow_commit(0));
    }
}
