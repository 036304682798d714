//! `rbio-tune`: a solver-driven autotuner for the checkpoint I/O plan.
//!
//! The paper reads its sweet spots off hand-run sweeps (Fig. 8's
//! nf ≈ 1024). This crate closes the loop instead: a typed
//! configuration space ([`Space`]) over the knobs the stack actually
//! exposes, a deterministic cost oracle ([`MachineOracle`]) that runs
//! the `rbio-machine` Blue Gene/P model per candidate, analytic lower
//! bounds ([`BoundModel`]) that let the solver prove candidates
//! hopeless without simulating them, and a coordinate-descent +
//! local-search [`search`] that rediscovers the paper's optima — and
//! finds *different* optima when the machine model changes (staging
//! tier, PVFS profile, syscall-heavy CIOD) — at a fraction of the
//! exhaustive sweep's cost.
//!
//! The winner exports as a [`TunedPlan`]: JSON on disk, or directly as
//! the planner/executor/simulator configs the rest of the stack takes.
//!
//! ```text
//! Space ──► solver::search ──► TunedPlan ──► {ExecConfig, MachineConfig,
//!              │   ▲                          Strategy + Tuning, JSON}
//!              ▼   │ memoized cost (CanonKey)
//!          MachineOracle ──► rbio_machine::SimArena (per worker)
//!              │
//!              └── BoundModel: flat-disk / stream-cap / create-storm
//! ```

#![forbid(unsafe_code)]

pub mod bound;
pub mod canon;
pub mod oracle;
pub mod plan_out;
pub mod solver;
pub mod space;

pub use bound::BoundModel;
pub use canon::{canon_key, plan_key, CanonKey, PlanKey};
pub use oracle::{Env, MachineOracle, Objective, Workload};
pub use plan_out::TunedPlan;
pub use solver::{exhaustive, search, SearchConfig, SearchOutcome};
pub use space::{BackendKnob, Candidate, Knob, Space, StrategyKind, ALL_KNOBS};
