//! The simulated Blue Gene/P "Intrepid": executes checkpoint plans in
//! virtual time at 16Ki–64Ki ranks.
//!
//! Composition (Fig. 4 of the paper):
//!
//! ```text
//! rank program ─ torus network ─┐
//!        │                      │ (worker→writer, exchange messages)
//!        └─ pset ION pipe ── GPFS model (metadata, locks, servers, DDN)
//! ```
//!
//! The executor interprets the *same* [`rbio_plan::Program`]s the real
//! threaded executor runs, so simulated timings come from exactly the data
//! movement the library performs. Every shared resource is a deterministic
//! calendar; all noise is seeded. See `config.rs` for the calibration
//! constants and the rationale for each value.

#![forbid(unsafe_code)]

pub mod config;
pub mod metrics;
pub mod query;
pub mod run;

pub use config::{
    ConfigError, IoBackendModel, MachineConfig, ProfileLevel, TierModel, WriterFailure,
};
pub use metrics::RunMetrics;
pub use query::CostQuery;
pub use run::{simulate, SimArena};
