//! rbio-check: deterministic schedule exploration for the rbio runtime.
//!
//! The runtime's pipeline, executor, and MPI-like runtime are
//! instrumented with [`rbio::sched`] yield points and events. This crate
//! installs a single-token cooperative [`Controller`] behind that trait
//! and replays small fixed workloads ([`ProgramKind`]) under chosen
//! schedules:
//!
//! * [`Policy::seeded`] — uniform random interleaving per seed (breadth);
//! * [`Policy::bounded_preempt`] — run-to-completion plus a bounded
//!   number of preemptions (depth: most real races need only a few
//!   context switches at the right spots);
//! * [`Policy::pinned`] — byte-for-byte replay of a recorded schedule,
//!   which is just the comma-joined thread-name trace a failing run
//!   prints.
//!
//! At every scheduling point a shadow [`Model`] checks the pipeline's
//! invariants (single drainer, per-writer FIFO, snapshot integrity,
//! error latching, barrier drain, exactly-once sends). A run is a pure
//! function of its policy, so `seed → violations` is reproducible and a
//! failing seed's schedule can be pinned as a regression forever — see
//! `tests/regressions.rs`, which replays the historical PR 2
//! double-enqueue race and PR 3 fault-drop bug through their
//! test-only revert switches.

#![forbid(unsafe_code)]

pub mod controller;
pub mod explore;
pub mod model;
pub mod policy;
pub mod programs;

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

pub use controller::{Controller, RunReport};
pub use explore::{sweep, SweepResult};
pub use model::{Violation, ViolationKind};
pub use policy::Policy;
pub use programs::{prepare, PreparedProgram, ProgramKind};

use rbio::pipeline::FlushPool;

/// Schedule decisions allowed per run before the controller declares the
/// schedule stuck, releases every thread, and records a `StepBudget`
/// violation. Real runs of these programs take a few hundred decisions.
pub const STEP_BUDGET: usize = 500_000;

/// Worker threads in the controlled flush pool (two is the minimum that
/// can race a double-enqueued writer).
const CHECK_POOL_THREADS: usize = 2;

fn controller() -> &'static Arc<Controller> {
    static CTL: OnceLock<Arc<Controller>> = OnceLock::new();
    CTL.get_or_init(|| Arc::new(Controller::new()))
}

/// One controlled run at a time per process: the scheduler, the check
/// pool, and the revert switches are process-global.
fn run_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Install the controller and spin up the controlled flush pool (once).
fn init() {
    static INIT: OnceLock<()> = OnceLock::new();
    INIT.get_or_init(|| {
        rbio::sched::install(Arc::clone(controller()) as Arc<dyn rbio::sched::Sched>);
        FlushPool::init_check_pool(CHECK_POOL_THREADS);
    });
}

/// Everything one controlled run produced.
pub struct CheckReport {
    /// Which program family ran.
    pub program: ProgramKind,
    /// The schedule taken: the chosen thread name per decision.
    pub trace: Vec<String>,
    /// Every instrumentation event, rendered, in order.
    pub events: Vec<String>,
    /// Invariant violations (shadow model + controller + output check).
    pub violations: Vec<Violation>,
    /// The run blew [`STEP_BUDGET`] and finished free-running.
    pub aborted: bool,
    /// A pinned replay had to fall back (the schedule did not fit).
    pub diverged: bool,
    /// What the program body returned.
    pub outcome: Result<(), String>,
}

impl CheckReport {
    /// The replayable schedule string (`--schedule` / [`Policy::pinned`]).
    pub fn schedule(&self) -> String {
        self.trace.join(",")
    }

    /// A failing run: any violation, or an unexpected program failure.
    pub fn failed(&self) -> bool {
        !self.violations.is_empty() || (self.outcome.is_err() && !self.program.tolerates_failure())
    }
}

/// Run `kind` once under `policy`. Fully serialized per process, and a
/// pure function of `(kind, policy)` — same inputs, same report.
pub fn run_one(kind: ProgramKind, policy: Policy) -> CheckReport {
    init();
    let _guard = run_lock();

    // A per-run scratch directory; the counter (not the pid alone) keeps
    // reruns within a process from seeing stale files.
    static RUN_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = RUN_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "rbio-check-{}-{seq}-{}",
        std::process::id(),
        kind.label()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    // Reference outputs are computed uncontrolled, before the run.
    let prepared = prepare(kind, &dir);

    // Writer-slot assignment must restart from zero or wids (and with
    // them the whole event stream) differ between otherwise identical
    // runs.
    FlushPool::reset_check_pool();

    let ctl = controller();
    ctl.begin_run(policy, STEP_BUDGET);
    rbio::sched::register("driver");
    let outcome = (prepared.body)();
    // Order matters: end the run while this thread still holds the token
    // (every other thread is parked), *then* shed the identity — the
    // other way round hands the token to an idle pool worker and the
    // trace grows a nondeterministic tail of worker bounces.
    let report = ctl.end_run();
    rbio::sched::unregister();

    let mut violations = report.violations;
    if let Err(e) = (prepared.verify)() {
        violations.push(Violation {
            kind: ViolationKind::Equivalence,
            detail: e,
            at_step: report.trace.len(),
        });
    }
    std::fs::remove_dir_all(&dir).ok();

    CheckReport {
        program: kind,
        trace: report.trace,
        events: report.events,
        violations,
        aborted: report.aborted,
        diverged: report.diverged,
        outcome,
    }
}
